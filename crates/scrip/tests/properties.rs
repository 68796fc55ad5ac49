//! Property-based tests for the scrip economy: conservation and
//!
//! Requires the external `proptest` crate: enable the `proptest-tests`
//! feature *and* add the `proptest` dev-dependency once the workspace
//! has access to a registry (the default build must stay dependency-free).
#![cfg(feature = "proptest-tests")]
//! satiation invariants under arbitrary parameters and attacks.

use lotus_core::satiation::Satiable;
use lotus_core::scenario::run;
use netsim::round::RoundSim;
use netsim::NodeId;
use proptest::prelude::*;
use scrip_economy::{ScripAttack, ScripConfig, ScripSim};

fn arb_attack() -> impl Strategy<Value = ScripAttack> {
    prop_oneof![
        Just(ScripAttack::None),
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(t, e)| ScripAttack::lotus_eater(t, e)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn money_is_conserved_under_any_attack(
        seed in any::<u64>(),
        agents in 5u32..60,
        m in 1u32..6,
        k in 1u32..8,
        beta in 0.05f64..1.0,
        altruists_frac in 0.0f64..0.5,
        attack in arb_attack(),
    ) {
        let altruists = ((agents as f64) * altruists_frac) as u32;
        let cfg = ScripConfig::builder()
            .agents(agents)
            .money_per_agent(m)
            .threshold(k)
            .availability(beta)
            .altruists(altruists)
            .rounds(300)
            .warmup(30)
            .build()
            .expect("valid config");
        let supply = cfg.total_supply();
        let mut sim = ScripSim::new(cfg, attack, seed);
        for t in 0..150 {
            sim.round(t);
            prop_assert_eq!(sim.total_money(), supply);
        }
        let report = sim.report();
        prop_assert_eq!(report.total_money, supply);
    }

    #[test]
    fn rates_partition_requests(
        seed in any::<u64>(),
        agents in 5u32..40,
        attack in arb_attack(),
    ) {
        let cfg = ScripConfig::builder()
            .agents(agents)
            .rounds(2_000)
            .warmup(100)
            .build()
            .expect("valid config");
        let report = run::<ScripSim>(cfg, attack, seed);
        let total = report.free_rate
            + report.paid_rate
            + report.fail_broke_rate
            + report.fail_no_volunteer_rate;
        prop_assert!((total - 1.0).abs() < 1e-9, "rates must partition: {total}");
        prop_assert!((report.service_rate - report.free_rate - report.paid_rate).abs() < 1e-9);
    }

    #[test]
    fn satiation_matches_balances(seed in any::<u64>(), agents in 5u32..30) {
        let cfg = ScripConfig::builder()
            .agents(agents)
            .rounds(500)
            .warmup(0)
            .build()
            .expect("valid config");
        let mut sim = ScripSim::new(cfg, ScripAttack::None, seed);
        for t in 0..200 {
            sim.round(t);
        }
        for i in 0..agents {
            let node = NodeId(i);
            if sim.is_satiated(node) {
                prop_assert!(sim.money(node) >= u64::from(sim.threshold(node)));
            }
        }
    }

    #[test]
    fn gini_is_in_unit_range(values in proptest::collection::vec(0u64..1000, 1..60)) {
        let g = scrip_economy::gini(&values);
        prop_assert!((0.0..=1.0).contains(&g), "gini {g}");
    }
}
