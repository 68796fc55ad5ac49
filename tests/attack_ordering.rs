//! Integration: the paper's headline result survives end-to-end.
//!
//! On a scaled-down BAR Gossip system, the three attacks of Figure 1 must
//! order exactly as the paper reports: the ideal lotus-eater breaks the
//! stream with far fewer nodes than the trade variant, which needs far
//! fewer than the crash baseline — and the satiated set enjoys
//! near-perfect service throughout.

use lotus_eater::lotus_core::report::UsabilityThreshold;
use lotus_eater::lotus_core::sweep::{grid, sweep_fraction, SweepConfig};
use lotus_eater::prelude::*;

fn small_cfg() -> BarGossipConfig {
    BarGossipConfig::builder()
        .nodes(100)
        .updates_per_round(6)
        .update_lifetime(10)
        .copies_seeded(8)
        .rounds(20)
        .warmup_rounds(10)
        .build()
        .expect("valid config")
}

fn curve(kind: AttackKind, xs: &[f64]) -> netsim::metrics::Series {
    let cfg = small_cfg();
    let sweep = SweepConfig {
        seeds: vec![1, 2],
        threads: 4,
    };
    sweep_fraction(kind.label(), xs, &sweep, move |x, seed| {
        let plan = match kind {
            AttackKind::None => AttackPlan::none(),
            AttackKind::Crash => AttackPlan::crash(x),
            AttackKind::IdealLotusEater => AttackPlan::ideal_lotus_eater(x, 0.70),
            AttackKind::TradeLotusEater => AttackPlan::trade_lotus_eater(x, 0.70),
            AttackKind::Masquerade => AttackPlan::masquerade(x),
            AttackKind::Poison => AttackPlan::poison(x, 1.0),
        };
        run::<BarGossipSim>(cfg.clone(), plan, seed).isolated_delivery()
    })
}

#[test]
fn break_points_order_as_in_figure_1() {
    let xs = grid(0.0, 0.8, 9);
    let threshold = UsabilityThreshold::BAR_GOSSIP;

    let ideal = threshold.break_point(&curve(AttackKind::IdealLotusEater, &xs));
    let trade = threshold.break_point(&curve(AttackKind::TradeLotusEater, &xs));
    let crash = threshold.break_point(&curve(AttackKind::Crash, &xs));

    let ideal = ideal.expect("ideal attack must break the stream on [0, 0.8]");
    let trade = trade.expect("trade attack must break the stream on [0, 0.8]");
    assert!(
        ideal < trade,
        "ideal ({ideal:.3}) must break earlier than trade ({trade:.3})"
    );
    // If crash never breaks on this range, the ordering holds trivially.
    if let Some(c) = crash {
        assert!(
            trade < c,
            "trade ({trade:.3}) must break earlier than crash ({c:.3})"
        );
    }
}

#[test]
fn satiated_nodes_receive_near_perfect_service() {
    for plan in [
        AttackPlan::ideal_lotus_eater(0.15, 0.70),
        AttackPlan::trade_lotus_eater(0.30, 0.70),
    ] {
        let report = run::<BarGossipSim>(small_cfg(), plan, 5);
        assert!(
            report.satiated_delivery() > 0.95,
            "{:?}: satiated delivery {}",
            plan.kind,
            report.satiated_delivery()
        );
        assert!(
            report.isolated_delivery() < report.satiated_delivery(),
            "{:?}: isolated must do worse than satiated",
            plan.kind
        );
    }
}

#[test]
fn partial_satiation_suffices_for_the_ideal_attack() {
    // Paper: at its break point the ideal attacker holds well under full
    // coverage — frequent partial satiation is enough. (At this reduced
    // scale the denser seeding means the break happens around 10%.)
    let report = run::<BarGossipSim>(small_cfg(), AttackPlan::ideal_lotus_eater(0.10, 0.70), 3);
    assert!(
        report.attacker_coverage < 0.75,
        "attacker coverage should be partial, got {}",
        report.attacker_coverage
    );
    assert!(
        report.isolated_delivery() < 0.93,
        "yet the attack already breaks usability, got {}",
        report.isolated_delivery()
    );
}

#[test]
fn crash_attack_is_bandwidth_free_and_lotus_eater_is_not() {
    let crash = run::<BarGossipSim>(small_cfg(), AttackPlan::crash(0.3), 7);
    let trade = run::<BarGossipSim>(small_cfg(), AttackPlan::trade_lotus_eater(0.3, 0.7), 7);
    assert_eq!(crash.mean_attacker_upload, 0.0);
    assert!(
        trade.mean_attacker_upload > crash.mean_attacker_upload,
        "the trade attack must pay bandwidth"
    );
}
