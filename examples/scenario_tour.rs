//! Tour of the unified `Scenario` API: run the same lotus-eater attack
//! family against every substrate through one interface and compare the
//! common-vocabulary reports.
//!
//! ```text
//! cargo run --release --example scenario_tour
//! ```

use lotus_eater::lotus_core::scenario::{boxed, DynScenario};
use lotus_eater::prelude::*;
use lotus_eater::scrip_economy::ScripAttack;
use lotus_eater::torrent_sim::{SwarmAttack, TargetPolicy};

fn main() {
    // One attack posture — "satiate roughly a third of the honest
    // population" — expressed in each substrate's native attack type.
    let seed = 7;
    let mut runs: Vec<Box<dyn DynScenario>> = vec![
        boxed::<BarGossipSim>(
            BarGossipConfig::builder()
                .nodes(80)
                .updates_per_round(4)
                .copies_seeded(6)
                .rounds(30)
                .build()
                .expect("valid config"),
            AttackPlan::trade_lotus_eater(0.30, 0.70),
            seed,
        ),
        boxed::<ScripSim>(
            ScripConfig::builder()
                .agents(80)
                .rounds(4_000)
                .warmup(400)
                .build()
                .expect("valid config"),
            ScripAttack::lotus_eater(0.33, 1.0),
            seed,
        ),
        boxed::<SwarmSim>(
            SwarmConfig::builder()
                .leechers(32)
                .pieces(48)
                .build()
                .expect("valid config"),
            SwarmAttack::satiate(3, 8, 0.33, TargetPolicy::Random),
            seed,
        ),
        boxed::<TokenSystem>(
            TokenScenarioConfig::new(
                TokenSystemConfig::builder(Graph::complete(80))
                    .tokens(16)
                    .build()
                    .expect("valid config"),
                120,
            ),
            TokenAttack::random_fraction(0.33),
            seed,
        ),
    ];

    println!("One attack posture, four substrates, one report vocabulary:\n");
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>7}",
        "scenario", "rounds", "overall", "targeted", "usable"
    );
    for run in &mut runs {
        let s = run.finish_dyn();
        println!(
            "{:<12} {:>8} {:>10.3} {:>10.3} {:>7}",
            s.scenario, s.rounds, s.overall_delivery, s.targeted_service, s.usable
        );
    }
    println!();
    println!("The lotus-eater signature: the targeted population is served at or");
    println!("near saturation while overall honest service degrades — except in");
    println!("BitTorrent, where the attacker's upload capacity helps the swarm.");
    println!("Run `lotus-bench --list` for the full scenario catalogue.");
}
