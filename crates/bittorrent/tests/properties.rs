//! Property-based tests for the swarm simulator.
//!
//! Requires the external `proptest` crate: enable the `proptest-tests`
//! feature *and* add the `proptest` dev-dependency once the workspace
//! has access to a registry (the default build must stay dependency-free).
#![cfg(feature = "proptest-tests")]

use lotus_core::satiation::Satiable;
use lotus_core::scenario::run;
use netsim::round::RoundSim;
use netsim::NodeId;
use proptest::prelude::*;
use torrent_sim::{PiecePolicy, SwarmAttack, SwarmConfig, SwarmSim, TargetPolicy};

fn arb_attack() -> impl Strategy<Value = SwarmAttack> {
    prop_oneof![
        Just(SwarmAttack::none()),
        (1u32..5, 1u32..8, 0.0f64..1.0)
            .prop_map(|(p, s, f)| { SwarmAttack::satiate(p, s, f, TargetPolicy::Random) }),
        (1u32..5, 1u32..8, 0.0f64..1.0).prop_map(|(p, s, f)| {
            SwarmAttack::satiate(p, s, f, TargetPolicy::RarePieceHolders)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pieces_only_accumulate(
        seed in any::<u64>(),
        leechers in 4u32..20,
        pieces in 4u32..40,
        attack in arb_attack(),
    ) {
        let cfg = SwarmConfig::builder()
            .leechers(leechers)
            .pieces(pieces)
            .max_rounds(200)
            .build()
            .expect("valid config");
        let mut sim = SwarmSim::new(cfg, attack, seed);
        let n = sim.node_count();
        let mut prev = vec![false; n as usize];
        for t in 0..40 {
            sim.round(t);
            for i in 0..n {
                let complete = sim.is_complete(NodeId(i));
                prop_assert!(
                    complete || !prev[i as usize],
                    "completion is permanent (node {i})"
                );
                prev[i as usize] = complete;
            }
        }
    }

    #[test]
    fn swarm_always_completes_with_a_permanent_seed(
        seed in any::<u64>(),
        leechers in 4u32..16,
        pieces in 4u32..24,
        policy in prop_oneof![Just(PiecePolicy::RarestFirst), Just(PiecePolicy::Random)],
    ) {
        let cfg = SwarmConfig::builder()
            .leechers(leechers)
            .pieces(pieces)
            .piece_policy(policy)
            .max_rounds(1_500)
            .build()
            .expect("valid config");
        let report = run::<SwarmSim>(cfg, SwarmAttack::none(), seed);
        prop_assert!(report.all_complete, "stuck after {} rounds", report.rounds);
        for c in &report.completion_rounds {
            prop_assert!(c.is_some());
        }
    }

    #[test]
    fn upload_accounting_is_consistent(
        seed in any::<u64>(),
        attack in arb_attack(),
    ) {
        let cfg = SwarmConfig::builder()
            .leechers(10)
            .pieces(16)
            .max_rounds(400)
            .build()
            .expect("valid config");
        let mut sim = SwarmSim::new(cfg, attack, seed);
        for t in 0..60 {
            sim.round(t);
        }
        let report = sim.report();
        let per_node: u64 = (0..sim.node_count())
            .map(|i| sim.service_provided(NodeId(i)))
            .sum();
        prop_assert_eq!(report.attacker_upload + report.honest_upload, per_node);
        // Useful receipts cannot exceed uploads.
        prop_assert!(report.duplicates <= per_node);
    }

    #[test]
    fn satiation_equals_completion(seed in any::<u64>()) {
        let cfg = SwarmConfig::builder()
            .leechers(8)
            .pieces(12)
            .max_rounds(400)
            .build()
            .expect("valid config");
        let mut sim = SwarmSim::new(cfg, SwarmAttack::none(), seed);
        for t in 0..30 {
            sim.round(t);
        }
        for i in 0..sim.node_count() {
            prop_assert_eq!(sim.is_satiated(NodeId(i)), sim.is_complete(NodeId(i)));
        }
    }
}
