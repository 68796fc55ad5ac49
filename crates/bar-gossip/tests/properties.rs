//! Property tests for the BAR Gossip simulator: report sanity and
//! protocol invariants under arbitrary attacks and defenses, on the
//! dependency-free [`proptest_lite`](lotus_core::proptest_lite) harness.
//!
//! Every property runs 24 cases; the seed of each case's run comes from
//! its derived stream ([`Draw::rng`]), and the attack, the defenses and
//! every parameter are shrinkable draws.

use bar_gossip::{AttackPlan, BarGossipConfig, BarGossipSim, DefenseSuite, ReportConfig};
use lotus_core::proptest_lite::{check, Draw};
use lotus_core::scenario::run;

const CASES: u64 = 24;

/// No attack, crash, ideal, trade or rotating trade, equally likely.
fn arb_plan(d: &mut Draw) -> AttackPlan {
    let attackers = |d: &mut Draw| 0.9 * d.ratio("attacker_fraction");
    let satiated = |d: &mut Draw| 0.3 + 0.6 * d.ratio("satiate_fraction");
    match d.int("plan", 0, 4) {
        0 => AttackPlan::none(),
        1 => AttackPlan::crash(d.ratio("attacker_fraction")),
        2 => AttackPlan::ideal_lotus_eater(attackers(d), satiated(d)),
        3 => AttackPlan::trade_lotus_eater(attackers(d), satiated(d)),
        _ => AttackPlan::trade_lotus_eater(attackers(d), satiated(d))
            .with_rotation(d.int("rotation", 1, 19) as u64),
    }
}

/// The unbalanced-exchange switch, an optional rate limit and an
/// optional report defense, each on half the time.
fn arb_defenses(d: &mut Draw) -> DefenseSuite {
    let unbalanced_exchanges = d.int("unbalanced", 0, 1) == 1;
    let rate_limit = (d.int("rate_limit_on", 0, 1) == 1).then(|| d.int("rate_limit", 1, 7) as u32);
    let report = (d.int("report_on", 0, 1) == 1).then(|| ReportConfig {
        obedient_fraction: d.ratio("obedient_fraction"),
        quorum: d.int("quorum", 1, 4) as u32,
        excess_slack: 1,
    });
    DefenseSuite {
        unbalanced_exchanges,
        rate_limit,
        report,
        ..DefenseSuite::default()
    }
}

fn small_cfg(nodes: u32, rounds: u32) -> bar_gossip::config::BarGossipConfigBuilder {
    BarGossipConfig::builder()
        .nodes(nodes)
        .updates_per_round(4)
        .update_lifetime(6)
        .copies_seeded(5)
        .rounds(rounds)
        .warmup_rounds(rounds / 2)
}

#[test]
fn reports_are_always_sane() {
    check("bar_gossip::reports_sane", CASES, |d| {
        let seed = d.rng("seed").next_u64();
        let plan = arb_plan(d);
        let defenses = arb_defenses(d);
        let push_size = d.int("push_size", 1, 11) as u32;
        let cfg = small_cfg(40, 8)
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
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("metric out of range: {v}"));
            }
        }
        let counts = report.counts;
        if counts.isolated + counts.satiated + counts.attacker != 40 {
            return Err(format!("class counts {counts:?} do not sum to 40"));
        }
        if report.evictions > counts.attacker {
            return Err(format!(
                "{} evictions of {} attackers: only attackers are ever evicted",
                report.evictions, counts.attacker
            ));
        }
        if report.mean_attacker_upload < 0.0 {
            return Err(format!("attacker upload {}", report.mean_attacker_upload));
        }
        // The overall delivery is a weighted mean of the class deliveries.
        let delivery = report.delivery;
        let lo = delivery.isolated.min(delivery.satiated);
        let hi = delivery.isolated.max(delivery.satiated);
        if counts.isolated > 0
            && counts.satiated > 0
            && !(lo - 1e-9..=hi + 1e-9).contains(&delivery.overall)
        {
            return Err(format!("overall {} outside [{lo}, {hi}]", delivery.overall));
        }
        Ok(())
    });
}

#[test]
fn crash_attackers_never_upload() {
    check("bar_gossip::crash_attackers_never_upload", CASES, |d| {
        let seed = d.rng("seed").next_u64();
        let frac = d.ratio("attacker_fraction");
        let cfg = small_cfg(30, 6).build().expect("valid config");
        let report = run::<BarGossipSim>(cfg, AttackPlan::crash(frac), seed);
        if report.mean_attacker_upload != 0.0 {
            return Err(format!(
                "crash attackers uploaded {}",
                report.mean_attacker_upload
            ));
        }
        Ok(())
    });
}

#[test]
fn honest_only_system_never_evicts() {
    check("bar_gossip::honest_only_never_evicts", CASES, |d| {
        let seed = d.rng("seed").next_u64();
        let cfg = small_cfg(30, 6)
            .unbalanced_exchanges(true)
            .report_defense(ReportConfig {
                obedient_fraction: d.ratio("obedient_fraction"),
                quorum: 1,
                excess_slack: 1,
            })
            .build()
            .expect("valid config");
        let report = run::<BarGossipSim>(cfg, AttackPlan::none(), seed);
        if report.evictions != 0 {
            return Err(format!("{} honest nodes evicted", report.evictions));
        }
        Ok(())
    });
}
