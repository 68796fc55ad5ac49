//! Property-based tests for the BAR Gossip simulator: report sanity and
//!
//! Requires the external `proptest` crate: enable the `proptest-tests`
//! feature *and* add the `proptest` dev-dependency once the workspace
//! has access to a registry (the default build must stay dependency-free).
#![cfg(feature = "proptest-tests")]
//! protocol invariants under arbitrary attacks and defenses.

use bar_gossip::{AttackPlan, BarGossipConfig, BarGossipSim, DefenseSuite, ReportConfig};
use lotus_core::scenario::run;
use proptest::prelude::*;

fn arb_plan() -> impl Strategy<Value = AttackPlan> {
    prop_oneof![
        Just(AttackPlan::none()),
        (0.0f64..1.0).prop_map(AttackPlan::crash),
        (0.0f64..0.9, 0.3f64..0.9).prop_map(|(a, s)| AttackPlan::ideal_lotus_eater(a, s)),
        (0.0f64..0.9, 0.3f64..0.9).prop_map(|(a, s)| AttackPlan::trade_lotus_eater(a, s)),
        (0.0f64..0.9, 0.3f64..0.9, 1u64..20)
            .prop_map(|(a, s, p)| AttackPlan::trade_lotus_eater(a, s).with_rotation(p)),
    ]
}

fn arb_defenses() -> impl Strategy<Value = DefenseSuite> {
    (
        any::<bool>(),
        proptest::option::of(1u32..8),
        proptest::option::of((0.0f64..1.0, 1u32..5)),
    )
        .prop_map(|(unbalanced, rate_limit, report)| DefenseSuite {
            unbalanced_exchanges: unbalanced,
            rate_limit,
            report: report.map(|(obedient_fraction, quorum)| ReportConfig {
                obedient_fraction,
                quorum,
                excess_slack: 1,
            }),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reports_are_always_sane(
        seed in any::<u64>(),
        plan in arb_plan(),
        defenses in arb_defenses(),
        push_size in 1u32..12,
    ) {
        let cfg = BarGossipConfig::builder()
            .nodes(40)
            .updates_per_round(4)
            .update_lifetime(6)
            .copies_seeded(5)
            .rounds(8)
            .warmup_rounds(4)
            .push_size(push_size)
            .defenses(defenses)
            .build()
            .expect("valid config");
        let report = run::<BarGossipSim>(cfg, plan, seed);

        for v in [
            report.delivery.isolated,
            report.delivery.satiated,
            report.delivery.overall,
            report.attacker_coverage,
            report.junk_fraction,
            report.min_node_delivery,
            report.nodes_ever_unusable,
            report.unusable_node_rounds,
        ] {
            prop_assert!((0.0..=1.0).contains(&v), "metric out of range: {v}");
        }
        prop_assert_eq!(
            report.counts.isolated + report.counts.satiated + report.counts.attacker,
            40
        );
        prop_assert!(report.evictions <= report.counts.attacker,
            "only attackers are ever evicted");
        prop_assert!(report.mean_attacker_upload >= 0.0);
        // The overall delivery is a weighted mean of the class deliveries.
        let lo = report.delivery.isolated.min(report.delivery.satiated);
        let hi = report.delivery.isolated.max(report.delivery.satiated);
        if report.counts.isolated > 0 && report.counts.satiated > 0 {
            prop_assert!(report.delivery.overall >= lo - 1e-9);
            prop_assert!(report.delivery.overall <= hi + 1e-9);
        }
    }

    #[test]
    fn crash_attackers_never_upload(seed in any::<u64>(), frac in 0.0f64..1.0) {
        let cfg = BarGossipConfig::builder()
            .nodes(30)
            .updates_per_round(4)
            .update_lifetime(6)
            .copies_seeded(5)
            .rounds(6)
            .warmup_rounds(3)
            .build()
            .expect("valid config");
        let report = run::<BarGossipSim>(cfg, AttackPlan::crash(frac), seed);
        prop_assert_eq!(report.mean_attacker_upload, 0.0);
    }

    #[test]
    fn honest_only_system_never_evicts(seed in any::<u64>(), obedient in 0.0f64..1.0) {
        let cfg = BarGossipConfig::builder()
            .nodes(30)
            .updates_per_round(4)
            .update_lifetime(6)
            .copies_seeded(5)
            .rounds(6)
            .warmup_rounds(3)
            .unbalanced_exchanges(true)
            .report_defense(ReportConfig {
                obedient_fraction: obedient,
                quorum: 1,
                excess_slack: 1,
            })
            .build()
            .expect("valid config");
        let report = run::<BarGossipSim>(cfg, AttackPlan::none(), seed);
        prop_assert_eq!(report.evictions, 0);
    }
}
