//! The paper's boldest defense suggestion (§4), side by side with the
//! system it fixes: "scrip could be the basis for an incentive-compatible
//! gossip system that is robust against lotus-eater attacks."
//!
//! Run with: `cargo run --release --example scrip_gossip_defense`

use lotus_eater::bar_gossip::scrip_gossip::{ScripGossipConfig, ScripGossipSim};
use lotus_eater::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = BarGossipConfig::builder()
        .nodes(120)
        .updates_per_round(6)
        .copies_seeded(8)
        .rounds(25)
        .build()?;

    println!("Trade lotus-eater attack, satiating 70% of the system\n");
    println!(
        "{:>10} {:>22} {:>22}",
        "attacker", "vanilla BAR Gossip", "scrip gossip"
    );

    for fraction in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let attack = AttackPlan::trade_lotus_eater(fraction, 0.70);
        let vanilla = run::<BarGossipSim>(base.clone(), attack, 7);
        let scrip = run::<ScripGossipSim>(ScripGossipConfig::new(base.clone()), attack, 7);
        println!(
            "{:>9.0}% {:>21.3}{} {:>21.3}{}",
            fraction * 100.0,
            vanilla.isolated_delivery(),
            if vanilla.isolated_usable() { " " } else { "!" },
            scrip.isolated_delivery,
            if scrip.isolated_usable(0.93) {
                " "
            } else {
                "!"
            },
        );
    }

    println!();
    println!("('!' marks isolated delivery at or below the 93% usability line.)");
    println!();
    println!("Why it works: in scrip gossip, a node gifted every update stops BUYING");
    println!("but keeps SELLING — it still wants income. Update-satiation and");
    println!("money-satiation are decoupled, and money-satiation is capped by the");
    println!("fixed scrip supply (see the x4 preset).");
    Ok(())
}
