//! Quickstart: mount the three attacks of the paper's Figure 1 against a
//! small BAR Gossip system and compare what isolated nodes receive.
//!
//! Run with: `cargo run --release --example quickstart`

use lotus_eater::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down BAR Gossip system (the paper's Table 1 uses 250 nodes;
    // `BarGossipConfig::default()` reproduces it exactly).
    let cfg = BarGossipConfig::builder()
        .nodes(100)
        .updates_per_round(6)
        .update_lifetime(10)
        .copies_seeded(8)
        .rounds(30)
        .build()?;

    println!(
        "BAR Gossip, {} nodes — attacker controls 20% of the system\n",
        100
    );
    println!(
        "{:<28} {:>18} {:>18} {:>14}",
        "attack", "isolated delivery", "satiated delivery", "usable?"
    );

    let attacks = [
        ("no attack", AttackPlan::none()),
        ("crash", AttackPlan::crash(0.20)),
        (
            "ideal lotus-eater",
            AttackPlan::ideal_lotus_eater(0.20, 0.70),
        ),
        (
            "trade lotus-eater",
            AttackPlan::trade_lotus_eater(0.20, 0.70),
        ),
    ];

    for (name, plan) in attacks {
        let report = run::<BarGossipSim>(cfg.clone(), plan, 42);
        println!(
            "{:<28} {:>18.3} {:>18.3} {:>14}",
            name,
            report.isolated_delivery(),
            report.satiated_delivery(),
            if report.isolated_usable() {
                "yes"
            } else {
                "NO"
            }
        );
    }

    println!();
    println!("The lotus-eater attacker harms nobody directly — he *gives* service to");
    println!("the satiated 70% until they stop serving everyone else. Isolated nodes");
    println!("starve while satiated nodes enjoy near-perfect delivery.");
    Ok(())
}
