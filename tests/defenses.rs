//! Integration: every §4 defense measurably helps against a live attack.

use lotus_eater::bar_gossip::ReportConfig;
use lotus_eater::lotus_core::token::{Allocation, SatFunction, TokenSystemConfig};
use lotus_eater::prelude::*;

/// A consistent scaled-down BAR Gossip config for defense tests.
fn small(push_size: u32, unbalanced: bool) -> BarGossipConfig {
    BarGossipConfig::builder()
        .nodes(100)
        .updates_per_round(6)
        .update_lifetime(10)
        .copies_seeded(8)
        .rounds(20)
        .warmup_rounds(10)
        .push_size(push_size)
        .unbalanced_exchanges(unbalanced)
        .build()
        .expect("valid config")
}

#[test]
fn bigger_pushes_blunt_the_ideal_attack_figure_2() {
    let attack = AttackPlan::ideal_lotus_eater(0.10, 0.70);
    let mut small_sum = 0.0;
    let mut big_sum = 0.0;
    for seed in 1..=3u64 {
        small_sum += run::<BarGossipSim>(small(2, false), attack, seed).isolated_delivery();
        big_sum += run::<BarGossipSim>(small(10, false), attack, seed).isolated_delivery();
    }
    assert!(
        big_sum > small_sum + 0.05,
        "push size 10 must help isolated nodes: {big_sum:.3} vs {small_sum:.3} (sum of 3 seeds)"
    );
}

#[test]
fn unbalanced_exchanges_blunt_the_trade_attack_figure_3() {
    let attack = AttackPlan::trade_lotus_eater(0.25, 0.70);
    let mut bal = 0.0;
    let mut unb = 0.0;
    for seed in 1..=3u64 {
        bal += run::<BarGossipSim>(small(2, false), attack, seed).isolated_delivery();
        unb += run::<BarGossipSim>(small(2, true), attack, seed).isolated_delivery();
    }
    assert!(
        unb > bal,
        "unbalanced exchanges must help isolated nodes: {unb:.3} vs {bal:.3}"
    );
}

#[test]
fn figure_3_combination_beats_the_baseline() {
    let attack = AttackPlan::trade_lotus_eater(0.30, 0.70);
    let mean_isolated = |push, unb| -> f64 {
        (1..=3u64)
            .map(|seed| run::<BarGossipSim>(small(push, unb), attack, seed).isolated_delivery())
            .sum::<f64>()
            / 3.0
    };
    let baseline = mean_isolated(2, false);
    let combo = mean_isolated(4, true);
    assert!(
        combo > baseline,
        "push 4 + unbalanced must beat the baseline: {combo:.3} vs {baseline:.3}"
    );
}

#[test]
fn report_and_evict_restores_usability() {
    let attack = AttackPlan::trade_lotus_eater(0.30, 0.70);
    let undefended = run::<BarGossipSim>(small(2, false), attack, 5);
    let mut cfg = small(2, false);
    cfg.defenses.report = Some(ReportConfig {
        obedient_fraction: 0.6,
        quorum: 3,
        excess_slack: 1,
    });
    let defended = run::<BarGossipSim>(cfg, attack, 5);
    assert!(
        defended.evictions > 0,
        "obedient reporters must evict attackers"
    );
    assert!(
        defended.isolated_delivery() > undefended.isolated_delivery(),
        "eviction must restore isolated delivery: {} vs {}",
        defended.isolated_delivery(),
        undefended.isolated_delivery()
    );
}

#[test]
fn coding_satiation_defeats_rare_token_denial() {
    let untouched_satiated = |sat: SatFunction| -> f64 {
        let cfg = TokenSystemConfig::builder(Graph::complete(50))
            .tokens(10)
            .sat(sat)
            .allocation(Allocation::RareToken {
                holder: NodeId(0),
                copies: 4,
            })
            .build()
            .expect("valid config");
        let cfg = TokenScenarioConfig::new(cfg, 80);
        let mut sys = TokenSystem::build(cfg, TokenAttack::rare_holders(0), 11);
        let report = Scenario::finish(&mut sys);
        // Fraction of untouched nodes reaching satiation (getting content).
        let attacked: std::collections::HashSet<_> =
            report.attacked_nodes.iter().copied().collect();
        let mut ok = 0u32;
        let mut total = 0u32;
        for v in NodeId::all(50) {
            if attacked.contains(&v) {
                continue;
            }
            total += 1;
            if sat.is_satiated(sys.holdings(v)) {
                ok += 1;
            }
        }
        f64::from(ok) / f64::from(total.max(1))
    };
    let collect_all = untouched_satiated(SatFunction::CollectAll);
    let coded = untouched_satiated(SatFunction::AnyK(9));
    assert_eq!(
        collect_all, 0.0,
        "denying the rare token denies collect-all entirely"
    );
    assert!(
        coded > 0.9,
        "any-9-of-10 coding must make the rare token skippable, got {coded}"
    );
}

#[test]
fn altruism_defends_the_token_model() {
    let untouched_coverage = |a: f64| -> f64 {
        let cfg = TokenSystemConfig::builder(Graph::complete(60))
            .tokens(16)
            .altruism(a)
            .build()
            .expect("valid config");
        let cfg = TokenScenarioConfig::new(cfg, 100);
        let attack = TokenAttack::random_fraction(0.5);
        run::<TokenSystem>(cfg, attack, 13).untouched_mean_coverage()
    };
    let without = untouched_coverage(0.0);
    let with = untouched_coverage(0.2);
    assert!(
        with > without,
        "altruism must raise untouched coverage: {with:.3} vs {without:.3}"
    );
    assert!(
        with > 0.99,
        "a = 0.2 should essentially heal the system, got {with}"
    );
}

#[test]
fn budgeted_rare_holder_attack_defeated_by_spreading() {
    let reach = |copies: usize| -> f64 {
        let cfg = TokenSystemConfig::builder(Graph::complete(50))
            .tokens(8)
            .allocation(Allocation::Explicit({
                let mut lists = vec![(0..copies as u32).map(NodeId).collect::<Vec<_>>()];
                for t in 1..8u32 {
                    lists.push(vec![NodeId(t * 3), NodeId(t * 5 % 50)]);
                }
                lists
            }))
            .build()
            .expect("valid config");
        let cfg = TokenScenarioConfig::new(cfg, 80);
        let attack = TokenAttack::rare_holders(0).budgeted(2);
        let mut sys = TokenSystem::build(cfg, attack, 17);
        Scenario::finish(&mut sys);
        sys.view().holders_of(0).len() as f64 / 50.0
    };
    let contained = reach(1);
    let escaped = reach(6);
    assert!(contained < 0.2, "single holder contained, got {contained}");
    assert!(
        escaped > 0.8,
        "six holders outrun a budget-2 attacker, got {escaped}"
    );
}
