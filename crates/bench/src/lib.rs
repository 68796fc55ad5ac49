//! `lotus-bench` — the figure/table regeneration harness.
//!
//! The heart of the crate is the unified runner: [`registry`] maps every
//! substrate to a named [`ScenarioSpec`](registry::ScenarioSpec) driven
//! through the `lotus_core::scenario` API, and [`runner`] is the single
//! CLI (`lotus-bench --scenario ... --attack ...`) that sweeps any of
//! them. One binary per paper artifact remains (see `src/bin/`): `table1`,
//! `fig1`, `fig2`, `fig3` reproduce the paper's quantitative evaluation
//! and the `ext_*` binaries turn each of the paper's §1/§3/§4 analytical
//! claims into a measured experiment — but each is now a thin preset over
//! the runner (a registry lookup plus an argument list).
//!
//! Every binary accepts `--quick` (fewer seeds and sweep points) so CI can
//! smoke-test it, plus every other runner flag (`--seeds`, `--format
//! json`, extra `--param`s), and prints the blocks the harness promises:
//! a CSV of the series, an ASCII rendering of the figure, and — where
//! paper values exist — a paper-vs-measured crossover table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod runner;
pub mod timing;

use bar_gossip::{AttackKind, AttackPlan, BarGossipConfig, BarGossipSim};
use lotus_core::report::{CrossoverRecord, UsabilityThreshold};
use lotus_core::sweep::{sweep_fraction, SweepConfig};
use netsim::metrics::Series;
use netsim::plot::{render, PlotConfig};
use netsim::table::Table;

/// Sweep fidelity, selected by the `--quick` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Full sweep: paper-quality resolution (default).
    Full,
    /// Smoke-test sweep for CI.
    Quick,
}

impl Fidelity {
    /// Parse from process arguments (`--quick` selects [`Fidelity::Quick`]).
    pub fn from_args() -> Fidelity {
        if std::env::args().any(|a| a == "--quick") {
            Fidelity::Quick
        } else {
            Fidelity::Full
        }
    }

    /// Seeds to average over.
    pub fn seeds(self) -> usize {
        match self {
            Fidelity::Full => 5,
            Fidelity::Quick => 2,
        }
    }

    /// Points on the attacker-fraction axis over `[lo, hi]`.
    pub fn grid(self, lo: f64, hi: f64) -> Vec<f64> {
        let points = match self {
            Fidelity::Full => 21,
            Fidelity::Quick => 7,
        };
        lotus_core::sweep::grid(lo, hi, points)
    }

    /// The matching sweep configuration.
    pub fn sweep(self) -> SweepConfig {
        SweepConfig::with_seeds(self.seeds())
    }

    /// Timed iterations per scenario in `--bench` mode.
    pub fn bench_iters(self) -> u32 {
        match self {
            Fidelity::Full => 12,
            Fidelity::Quick => 3,
        }
    }

    /// Untimed warmup runs per scenario in `--bench` mode.
    pub fn bench_warmup(self) -> u32 {
        match self {
            Fidelity::Full => 3,
            Fidelity::Quick => 1,
        }
    }
}

/// Run one attack curve over attacker fractions for a BAR Gossip config:
/// y = mean isolated-node delivery.
pub fn attack_curve(
    label: impl Into<String>,
    kind: AttackKind,
    cfg: &BarGossipConfig,
    xs: &[f64],
    sweep: &SweepConfig,
) -> Series {
    let cfg = cfg.clone();
    sweep_fraction(label, xs, sweep, move |x, seed| {
        let plan = match kind {
            AttackKind::None => AttackPlan::none(),
            AttackKind::Crash => AttackPlan::crash(x),
            AttackKind::IdealLotusEater => {
                AttackPlan::ideal_lotus_eater(x, AttackPlan::PAPER_SATIATE_FRACTION)
            }
            AttackKind::TradeLotusEater => {
                AttackPlan::trade_lotus_eater(x, AttackPlan::PAPER_SATIATE_FRACTION)
            }
            AttackKind::Masquerade => AttackPlan::masquerade(x),
            // Full-strength withholding; use the registry's
            // `poison_rate` param for graded curves.
            AttackKind::Poison => AttackPlan::poison(x, 1.0),
        };
        BarGossipSim::new(cfg.clone(), plan, seed)
            .run_to_report()
            .isolated_delivery()
    })
}

/// Print a figure: header, CSV, ASCII chart, and crossover records.
pub fn print_figure(
    title: &str,
    series: &[Series],
    paper_crossovers: &[(usize, Option<f64>)],
    x_label: &str,
) {
    println!("# {title}");
    println!();
    // CSV block.
    let mut csv = Table::new(vec!["series", "x", "y"]);
    for s in series {
        for &(x, y) in &s.points {
            csv.row(vec![s.label.clone(), format!("{x:.4}"), format!("{y:.4}")]);
        }
    }
    println!("{}", csv.to_csv());
    // ASCII chart.
    let cfg = PlotConfig {
        width: 64,
        height: 20,
        x_label: x_label.to_string(),
        y_label: "Fraction of updates received by isolated nodes".to_string(),
        y_range: Some((0.0, 1.0)),
    };
    println!("{}", render(series, &cfg));
    // Crossover table (93% usability line).
    let mut t = Table::new(vec!["curve", "paper break point", "measured break point"]);
    for &(idx, paper) in paper_crossovers {
        let rec = CrossoverRecord::from_curve(&series[idx], UsabilityThreshold::BAR_GOSSIP, paper);
        t.row(vec![
            rec.label.clone(),
            paper.map_or("-".into(), |p| format!("{p:.2}")),
            rec.measured.map_or("-".into(), |m| format!("{m:.3}")),
        ]);
    }
    println!("Usability line: isolated delivery > 0.93");
    println!("{}", t.render());
}

/// Print a generic experiment table (for the `ext_*` binaries).
pub fn print_series_table(title: &str, series: &[Series], x_label: &str, y_label: &str) {
    println!("# {title}");
    println!();
    let mut csv = Table::new(vec!["series", "x", "y"]);
    for s in series {
        for &(x, y) in &s.points {
            csv.row(vec![s.label.clone(), format!("{x:.4}"), format!("{y:.4}")]);
        }
    }
    println!("{}", csv.to_csv());
    let cfg = PlotConfig {
        width: 64,
        height: 18,
        x_label: x_label.to_string(),
        y_label: y_label.to_string(),
        y_range: None,
    };
    println!("{}", render(series, &cfg));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_parameters() {
        assert_eq!(Fidelity::Full.seeds(), 5);
        assert_eq!(Fidelity::Quick.seeds(), 2);
        assert_eq!(Fidelity::Quick.grid(0.0, 1.0).len(), 7);
        assert_eq!(Fidelity::Full.grid(0.0, 1.0).len(), 21);
    }

    #[test]
    fn attack_curve_produces_points() {
        let cfg = BarGossipConfig::builder()
            .nodes(40)
            .updates_per_round(4)
            .copies_seeded(5)
            .rounds(10)
            .warmup_rounds(5)
            .build()
            .unwrap();
        let sweep = SweepConfig {
            seeds: vec![1],
            threads: 2,
        };
        let s = attack_curve("crash", AttackKind::Crash, &cfg, &[0.0, 0.5], &sweep);
        assert_eq!(s.points.len(), 2);
        assert!(s.points[0].1 >= s.points[1].1, "crash hurts");
    }
}
