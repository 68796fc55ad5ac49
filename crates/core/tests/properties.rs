//! Property-based tests for the token model and sweep harness.
//!
//! Requires the external `proptest` crate: enable the `proptest-tests`
//! feature *and* add the `proptest` dev-dependency once the workspace
//! has access to a registry (the default build must stay dependency-free).
#![cfg(feature = "proptest-tests")]

use lotus_core::attack::{
    Attacker, BudgetedAttacker, RotatingSatiation, SatiateRandomFraction, TokenAttack,
};
use lotus_core::scenario::Scenario;
use lotus_core::token::{SatFunction, TokenScenarioConfig, TokenSystem, TokenSystemConfig};
use netsim::graph::Graph;
use netsim::rng::DetRng;
use netsim::NodeId;
use proptest::prelude::*;

fn arb_config(n: u32, tokens: usize, altruism: f64) -> TokenSystemConfig {
    TokenSystemConfig::builder(Graph::complete(n))
        .tokens(tokens)
        .altruism(altruism)
        .build()
        .expect("valid config")
}

fn arb_system(n: u32, tokens: usize, altruism: f64, seed: u64) -> TokenSystem {
    TokenSystem::new(arb_config(n, tokens, altruism), seed)
}

/// An unattacked system run through its first `rounds` rounds.
fn arb_finished(n: u32, tokens: usize, seed: u64, rounds: u64) -> TokenSystem {
    let cfg = TokenScenarioConfig::new(arb_config(n, tokens, 0.0), rounds);
    let mut sys = TokenSystem::build(cfg, TokenAttack::none(), seed);
    Scenario::finish(&mut sys);
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn holdings_grow_monotonically_under_any_attack(
        seed in any::<u64>(),
        n in 4u32..24,
        tokens in 2usize..24,
        fraction in 0.0f64..1.0,
        altruism in 0.0f64..1.0,
    ) {
        let mut sys = arb_system(n, tokens, altruism, seed);
        let mut attack = SatiateRandomFraction::new(fraction);
        let mut rng = DetRng::seed_from(seed ^ 1);
        let mut prev: Vec<usize> = (0..n).map(|i| sys.holdings(NodeId(i)).len()).collect();
        for _ in 0..15 {
            let targets = attack.targets(&sys.view(), &mut rng);
            for t in targets {
                sys.satiate(t);
            }
            use netsim::round::RoundSim;
            let t = sys.rounds_run();
            sys.round(t);
            for i in 0..n {
                let len = sys.holdings(NodeId(i)).len();
                prop_assert!(len >= prev[i as usize], "holdings shrank at node {i}");
                prop_assert!(len <= tokens);
                prev[i as usize] = len;
            }
        }
    }

    #[test]
    fn coverage_and_satiation_agree(
        seed in any::<u64>(),
        n in 4u32..20,
        tokens in 2usize..16,
    ) {
        let sys = arb_finished(n, tokens, seed, 30);
        let report = sys.report();
        for (i, &cov) in report.coverage.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&cov));
            let holds_all = (cov - 1.0).abs() < 1e-12;
            use lotus_core::satiation::Satiable;
            prop_assert_eq!(
                sys.is_satiated(NodeId(i as u32)),
                holds_all,
                "CollectAll satiation must equal full coverage"
            );
        }
        if let Some(t) = report.all_satiated_at {
            prop_assert!(t <= report.rounds);
            prop_assert!(report.mean_coverage() >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn sat_functions_are_pointwise_monotone(
        seed in any::<u64>(),
        n in 4u32..16,
        tokens in 4usize..16,
        k1 in 1usize..16,
        k2 in 1usize..16,
    ) {
        // On any holding set, satisfying AnyK(max) implies AnyK(min), and
        // CollectAll implies every AnyK. (Note: this is a *pointwise*
        // property. Globally, weaker satiation can complete LATER, because
        // early-satiated nodes withdraw service and strand stragglers —
        // the satiation trap.)
        let (k_lo, k_hi) = {
            let a = k1.min(tokens);
            let b = k2.min(tokens);
            (a.min(b).max(1), a.max(b).max(1))
        };
        let sys = arb_finished(n, tokens, seed, 10);
        for i in 0..n {
            let h = sys.holdings(NodeId(i));
            if SatFunction::AnyK(k_hi).is_satiated(h) {
                prop_assert!(SatFunction::AnyK(k_lo).is_satiated(h));
            }
            if SatFunction::CollectAll.is_satiated(h) {
                prop_assert!(SatFunction::AnyK(k_lo).is_satiated(h));
                prop_assert_eq!(SatFunction::AnyK(k_lo).deficit(h), 0);
            }
            // Deficits are consistent with satiation.
            for f in [SatFunction::CollectAll, SatFunction::AnyK(k_lo), SatFunction::AnyK(k_hi)] {
                prop_assert_eq!(f.is_satiated(h), f.deficit(h) == 0);
            }
        }
    }

    #[test]
    fn budgets_are_respected(
        seed in any::<u64>(),
        budget in 0usize..6,
        fraction in 0.0f64..1.0,
    ) {
        let sys = arb_system(12, 6, 0.0, seed);
        let mut attack = BudgetedAttacker::new(SatiateRandomFraction::new(fraction), budget);
        let mut rng = DetRng::seed_from(seed);
        for _ in 0..5 {
            let t = attack.targets(&sys.view(), &mut rng);
            prop_assert!(t.len() <= budget);
        }
        prop_assert!(attack.spent() <= (budget * 5) as u64);
    }

    #[test]
    fn rotating_satiation_targets_are_valid(
        seed in any::<u64>(),
        fraction in 0.0f64..1.0,
        period in 1u64..5,
    ) {
        let mut sys = arb_system(15, 4, 0.0, seed);
        let mut attack = RotatingSatiation::new(fraction, period);
        let mut rng = DetRng::seed_from(seed);
        for _ in 0..8 {
            let targets = attack.targets(&sys.view(), &mut rng);
            let set: std::collections::HashSet<_> = targets.iter().collect();
            prop_assert_eq!(set.len(), targets.len(), "no duplicate targets");
            prop_assert!(targets.iter().all(|t| t.0 < 15));
            use netsim::round::RoundSim;
            let t = sys.rounds_run();
            sys.round(t);
        }
    }

    #[test]
    fn served_counters_only_grow(seed in any::<u64>(), altruism in 0.0f64..1.0) {
        let mut sys = arb_system(10, 8, altruism, seed);
        let mut prev = [0u64; 10];
        for _ in 0..10 {
            use netsim::round::RoundSim;
            let t = sys.rounds_run();
            sys.round(t);
            for i in 0..10u32 {
                let s = sys.served(NodeId(i));
                prop_assert!(s >= prev[i as usize]);
                prev[i as usize] = s;
            }
        }
    }
}
