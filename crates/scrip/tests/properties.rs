//! Property tests for the scrip economy: conservation and satiation
//! invariants under arbitrary parameters and attacks, on the
//! dependency-free [`proptest_lite`](lotus_core::proptest_lite) harness.
//!
//! Every property runs 24 cases; the seed of each case's economy comes
//! from its derived stream ([`Draw::rng`]), and the attack and every
//! parameter are shrinkable draws.

use lotus_core::proptest_lite::{check, Draw};
use lotus_core::satiation::Satiable;
use lotus_core::scenario::run;
use netsim::round::RoundSim;
use netsim::NodeId;
use scrip_economy::{ScripAttack, ScripConfig, ScripSim};

const CASES: u64 = 24;

/// No attack or a lotus-eater attack, equally likely.
fn arb_attack(d: &mut Draw) -> ScripAttack {
    if d.int("attack", 0, 1) == 0 {
        ScripAttack::None
    } else {
        ScripAttack::lotus_eater(d.ratio("target_fraction"), d.ratio("endowment_fraction"))
    }
}

#[test]
fn money_is_conserved_under_any_attack() {
    check("scrip::money_conserved", CASES, |d| {
        let seed = d.rng("seed").next_u64();
        let agents = d.int("agents", 5, 59) as u32;
        let altruists = ((agents as f64) * 0.5 * d.ratio("altruists_frac")) as u32;
        let cfg = ScripConfig::builder()
            .agents(agents)
            .money_per_agent(d.int("money_per_agent", 1, 5) as u32)
            .threshold(d.int("threshold", 1, 7) as u32)
            .availability(0.05 + 0.95 * d.ratio("availability"))
            .altruists(altruists)
            .rounds(300)
            .warmup(30)
            .build()
            .expect("valid config");
        let supply = cfg.total_supply();
        let mut sim = ScripSim::new(cfg, arb_attack(d), seed);
        for t in 0..150 {
            sim.round(t);
            if sim.total_money() != supply {
                return Err(format!("round {t}: {} of {supply}", sim.total_money()));
            }
        }
        if sim.report().total_money != supply {
            return Err(format!(
                "report money {} of {supply}",
                sim.report().total_money
            ));
        }
        Ok(())
    });
}

#[test]
fn rates_partition_requests() {
    check("scrip::rates_partition_requests", CASES, |d| {
        let seed = d.rng("seed").next_u64();
        let cfg = ScripConfig::builder()
            .agents(d.int("agents", 5, 39) as u32)
            .rounds(2_000)
            .warmup(100)
            .build()
            .expect("valid config");
        let report = run::<ScripSim>(cfg, arb_attack(d), seed);
        let total = report.free_rate
            + report.paid_rate
            + report.fail_broke_rate
            + report.fail_no_volunteer_rate;
        if (total - 1.0).abs() >= 1e-9 {
            return Err(format!("rates must partition: {total}"));
        }
        if (report.service_rate - report.free_rate - report.paid_rate).abs() >= 1e-9 {
            return Err(format!(
                "service rate {} is not free + paid",
                report.service_rate
            ));
        }
        Ok(())
    });
}

#[test]
fn satiation_matches_balances() {
    check("scrip::satiation_matches_balances", CASES, |d| {
        let seed = d.rng("seed").next_u64();
        let agents = d.int("agents", 5, 29) as u32;
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
        for node in NodeId::all(agents) {
            if sim.is_satiated(node) && sim.money(node) < u64::from(sim.threshold(node)) {
                return Err(format!("agent {} satiated below its threshold", node.0));
            }
        }
        Ok(())
    });
}

#[test]
fn gini_is_in_unit_range() {
    check("scrip::gini_in_unit_range", CASES, |d| {
        let len = d.int("len", 1, 59);
        let values: Vec<u64> = (0..len).map(|_| d.int("value", 0, 999) as u64).collect();
        let g = scrip_economy::gini(&values);
        if !(0.0..=1.0).contains(&g) {
            return Err(format!("gini {g} of {values:?}"));
        }
        Ok(())
    });
}
