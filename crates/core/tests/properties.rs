//! Property tests for the token model and its attackers, on the
//! dependency-free [`proptest_lite`](lotus_core::proptest_lite) harness.
//!
//! Every property runs 32 cases; the seed of each case's system comes
//! from its derived stream ([`Draw::rng`]), and every size, fraction and
//! parameter is a shrinkable draw.

use lotus_core::attack::{
    Attacker, BudgetedAttacker, RotatingSatiation, SatiateRandomFraction, TokenAttack,
};
use lotus_core::proptest_lite::{check, Draw};
use lotus_core::satiation::Satiable;
use lotus_core::scenario::Scenario;
use lotus_core::token::{SatFunction, TokenScenarioConfig, TokenSystem, TokenSystemConfig};
use netsim::graph::Graph;
use netsim::rng::DetRng;
use netsim::round::RoundSim;
use netsim::NodeId;

const CASES: u64 = 32;

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

fn seed(d: &Draw) -> u64 {
    d.rng("seed").next_u64()
}

/// Run the system's next round.
fn step(sys: &mut TokenSystem) {
    let t = sys.rounds_run();
    sys.round(t);
}

#[test]
fn holdings_grow_monotonically_under_any_attack() {
    check("token::holdings_grow_monotonically", CASES, |d| {
        let seed = seed(d);
        let n = d.int("n", 4, 23) as u32;
        let tokens = d.int("tokens", 2, 23) as usize;
        let fraction = d.ratio("fraction");
        let altruism = d.ratio("altruism");
        let mut sys = arb_system(n, tokens, altruism, seed);
        let mut attack = SatiateRandomFraction::new(fraction);
        let mut rng = DetRng::seed_from(seed ^ 1);
        let mut prev: Vec<usize> = (0..n).map(|i| sys.holdings(NodeId(i)).len()).collect();
        for _ in 0..15 {
            for t in attack.targets(&sys.view(), &mut rng) {
                sys.satiate(t);
            }
            step(&mut sys);
            for i in 0..n {
                let len = sys.holdings(NodeId(i)).len();
                if len < prev[i as usize] || len > tokens {
                    return Err(format!(
                        "node {i} holds {len} (was {}, {tokens} tokens)",
                        prev[i as usize]
                    ));
                }
                prev[i as usize] = len;
            }
        }
        Ok(())
    });
}

#[test]
fn coverage_and_satiation_agree() {
    check("token::coverage_and_satiation_agree", CASES, |d| {
        let seed = seed(d);
        let n = d.int("n", 4, 19) as u32;
        let tokens = d.int("tokens", 2, 15) as usize;
        let sys = arb_finished(n, tokens, seed, 30);
        let report = sys.report();
        for (i, &cov) in report.coverage.iter().enumerate() {
            if !(0.0..=1.0).contains(&cov) {
                return Err(format!("node {i} coverage {cov}"));
            }
            // CollectAll satiation must equal full coverage.
            let holds_all = (cov - 1.0).abs() < 1e-12;
            if sys.is_satiated(NodeId(i as u32)) != holds_all {
                return Err(format!("node {i}: coverage {cov} but satiation disagrees"));
            }
        }
        if let Some(t) = report.all_satiated_at {
            if t > report.rounds || report.mean_coverage() < 1.0 - 1e-12 {
                return Err(format!(
                    "all satiated at {t} of {} rounds, mean coverage {}",
                    report.rounds,
                    report.mean_coverage()
                ));
            }
        }
        Ok(())
    });
}

#[test]
fn sat_functions_are_pointwise_monotone() {
    // On any holding set, satisfying AnyK(max) implies AnyK(min), and
    // CollectAll implies every AnyK. (Note: this is a *pointwise*
    // property. Globally, weaker satiation can complete LATER, because
    // early-satiated nodes withdraw service and strand stragglers — the
    // satiation trap.)
    check("token::sat_functions_pointwise_monotone", CASES, |d| {
        let seed = seed(d);
        let n = d.int("n", 4, 15) as u32;
        let tokens = d.int("tokens", 4, 15) as usize;
        let k1 = (d.int("k1", 1, 15) as usize).min(tokens);
        let k2 = (d.int("k2", 1, 15) as usize).min(tokens);
        let (k_lo, k_hi) = (k1.min(k2).max(1), k1.max(k2).max(1));
        let sys = arb_finished(n, tokens, seed, 10);
        for i in 0..n {
            let h = sys.holdings(NodeId(i));
            let (lo, hi) = (SatFunction::AnyK(k_lo), SatFunction::AnyK(k_hi));
            if hi.is_satiated(h) && !lo.is_satiated(h) {
                return Err(format!("node {i}: AnyK({k_hi}) without AnyK({k_lo})"));
            }
            if SatFunction::CollectAll.is_satiated(h) && (!lo.is_satiated(h) || lo.deficit(h) != 0)
            {
                return Err(format!("node {i}: CollectAll without AnyK({k_lo})"));
            }
            // Deficits are consistent with satiation.
            for f in [SatFunction::CollectAll, lo, hi] {
                if f.is_satiated(h) != (f.deficit(h) == 0) {
                    return Err(format!("node {i}: {f:?} satiation and deficit disagree"));
                }
            }
        }
        Ok(())
    });
}

#[test]
fn budgets_are_respected() {
    check("token::budgets_respected", CASES, |d| {
        let seed = seed(d);
        let budget = d.int("budget", 0, 5) as usize;
        let fraction = d.ratio("fraction");
        let sys = arb_system(12, 6, 0.0, seed);
        let mut attack = BudgetedAttacker::new(SatiateRandomFraction::new(fraction), budget);
        let mut rng = DetRng::seed_from(seed);
        for _ in 0..5 {
            let t = attack.targets(&sys.view(), &mut rng);
            if t.len() > budget {
                return Err(format!("{} targets over a budget of {budget}", t.len()));
            }
        }
        if attack.spent() > (budget * 5) as u64 {
            return Err(format!(
                "spent {} over 5 rounds of {budget}",
                attack.spent()
            ));
        }
        Ok(())
    });
}

#[test]
fn rotating_satiation_targets_are_valid() {
    check("token::rotating_targets_valid", CASES, |d| {
        let seed = seed(d);
        let fraction = d.ratio("fraction");
        let period = d.int("period", 1, 4) as u64;
        let mut sys = arb_system(15, 4, 0.0, seed);
        let mut attack = RotatingSatiation::new(fraction, period);
        let mut rng = DetRng::seed_from(seed);
        for _ in 0..8 {
            let mut targets = attack.targets(&sys.view(), &mut rng);
            if targets.iter().any(|t| t.0 >= 15) {
                return Err(format!("target out of range: {targets:?}"));
            }
            let drawn = targets.len();
            targets.sort_unstable_by_key(|t| t.0);
            targets.dedup();
            if targets.len() != drawn {
                return Err("duplicate targets".into());
            }
            step(&mut sys);
        }
        Ok(())
    });
}

#[test]
fn served_counters_only_grow() {
    check("token::served_counters_only_grow", CASES, |d| {
        let seed = seed(d);
        let altruism = d.ratio("altruism");
        let mut sys = arb_system(10, 8, altruism, seed);
        let mut prev = [0u64; 10];
        for _ in 0..10 {
            step(&mut sys);
            for i in 0..10u32 {
                let s = sys.served(NodeId(i));
                if s < prev[i as usize] {
                    return Err(format!("node {i} served {s}, was {}", prev[i as usize]));
                }
                prev[i as usize] = s;
            }
        }
        Ok(())
    });
}
