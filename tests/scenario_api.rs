//! Property tests for the unified `Scenario` API, on all six substrates:
//!
//! * every registered scenario is deterministic — the same
//!   `(config, attack, seed)` triple produces a bit-identical
//!   `ScenarioReport`;
//! * the type-erased `DynScenario` layer round-trips the typed reports —
//!   driving through `Box<dyn DynScenario>` yields exactly
//!   `typed_report.summarize()`;
//! * completion is idempotent — once a run is `Done`, further steps
//!   return `Done` and leave the report unchanged.

use lotus_eater::lotus_core::attack::TokenAttack;
use lotus_eater::lotus_core::scenario::{
    boxed, run, DynScenario, Scenario, ScenarioReport, Summarize,
};
use lotus_eater::lotus_core::token::{TokenScenarioConfig, TokenSystemConfig};
use lotus_eater::prelude::*;
use lotus_eater::scrip_economy::ScripAttack;
use lotus_eater::torrent_sim::{SwarmAttack, TargetPolicy};

fn token_cfg() -> TokenScenarioConfig {
    TokenScenarioConfig::new(
        TokenSystemConfig::builder(Graph::complete(24))
            .tokens(8)
            .build()
            .expect("valid config"),
        60,
    )
}

/// Drive a scenario twice from the same seed, typed and erased, and check
/// all three contract clauses.
fn check_contract<S: Scenario + 'static>(cfg: S::Config, attack: S::Attack, seed: u64)
where
    S::Report: PartialEq + std::fmt::Debug,
{
    let a = run::<S>(cfg.clone(), attack.clone(), seed);
    let mut sim = S::build(cfg.clone(), attack.clone(), seed);
    let b = Scenario::finish(&mut sim);
    assert_eq!(
        a,
        b,
        "{}: same seed must give bit-identical reports",
        S::NAME
    );
    for _ in 0..3 {
        assert!(
            Scenario::step(&mut sim).is_done(),
            "{}: a finished scenario stays done",
            S::NAME
        );
    }
    assert_eq!(
        Scenario::report(&sim),
        a,
        "{}: stepping a finished scenario must not change its report",
        S::NAME
    );

    let summary: ScenarioReport = boxed::<S>(cfg, attack, seed).finish_dyn();
    assert_eq!(
        summary,
        a.summarize(),
        "{}: DynScenario must round-trip the typed report",
        S::NAME
    );
    assert_eq!(summary.scenario, S::NAME);
}

#[test]
fn all_scenarios_are_deterministic_and_round_trip() {
    for seed in [1, 7, 42] {
        check_contract::<BarGossipSim>(
            BarGossipConfig::builder()
                .nodes(60)
                .updates_per_round(4)
                .copies_seeded(6)
                .rounds(15)
                .warmup_rounds(5)
                .build()
                .expect("valid config"),
            AttackPlan::trade_lotus_eater(0.3, 0.7),
            seed,
        );
        check_contract::<ScripSim>(
            ScripConfig::builder()
                .agents(40)
                .rounds(800)
                .warmup(100)
                .build()
                .expect("valid config"),
            ScripAttack::lotus_eater(0.4, 1.0),
            seed,
        );
        check_contract::<SwarmSim>(
            SwarmConfig::builder()
                .leechers(16)
                .pieces(24)
                .build()
                .expect("valid config"),
            SwarmAttack::satiate(2, 4, 0.3, TargetPolicy::Random),
            seed,
        );
        check_contract::<TokenSystem>(token_cfg(), TokenAttack::random_fraction(0.4), seed);
        check_contract::<ScripGossipSim>(
            ScripGossipConfig::new(
                BarGossipConfig::builder()
                    .nodes(60)
                    .updates_per_round(4)
                    .copies_seeded(6)
                    .rounds(15)
                    .warmup_rounds(5)
                    .build()
                    .expect("valid config"),
            ),
            AttackPlan::trade_lotus_eater(0.3, 0.7),
            seed,
        );
        check_contract::<ReputationSim>(
            ReputationConfig {
                agents: 40,
                rounds: 800,
                warmup: 100,
                ..ReputationConfig::default()
            },
            ReputationAttack::Inflate {
                target_fraction: 0.4,
            },
            seed,
        );
    }
}

#[test]
fn step_after_done_is_a_no_op() {
    let mut sim = TokenSystem::build(token_cfg(), TokenAttack::none(), 3);
    let first = Scenario::finish(&mut sim);
    for _ in 0..3 {
        assert!(Scenario::step(&mut sim).is_done());
    }
    assert_eq!(
        Scenario::report(&sim),
        first,
        "stepping a finished scenario must not change its report"
    );
}

#[test]
fn erased_scenarios_mix_in_one_collection() {
    let mut runs: Vec<Box<dyn DynScenario>> = vec![
        boxed::<TokenSystem>(token_cfg(), TokenAttack::random_fraction(0.3), 5),
        boxed::<SwarmSim>(
            SwarmConfig::builder()
                .leechers(12)
                .pieces(16)
                .build()
                .expect("valid config"),
            SwarmAttack::none(),
            5,
        ),
    ];
    let summaries: Vec<ScenarioReport> = runs.iter_mut().map(|s| s.finish_dyn()).collect();
    assert_eq!(summaries[0].scenario, "token");
    assert_eq!(summaries[1].scenario, "bittorrent");
    for s in &summaries {
        assert!(s.overall_delivery >= 0.0 && s.overall_delivery <= 1.0);
        assert!(s.metric("rounds").unwrap() > 0.0);
    }
}
