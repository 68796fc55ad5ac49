//! A Figure-1-style sweep on a scaled-down streaming system, rendered as
//! an ASCII chart: how much must each attack control before the stream
//! becomes unusable for isolated nodes?
//!
//! Run with: `cargo run --release --example streaming_attack`

use lotus_eater::netsim::plot::{render, PlotConfig};
use lotus_eater::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = BarGossipConfig::builder()
        .nodes(120)
        .updates_per_round(6)
        .copies_seeded(8)
        .rounds(25)
        .build()?;

    let xs = lotus_eater::lotus_core::sweep::grid(0.0, 0.6, 13);
    let sweep = SweepConfig::with_seeds(3);

    let mut curves = Vec::new();
    for (label, make) in [
        ("Crash attack", AttackPlan::crash as fn(f64) -> AttackPlan),
        ("Ideal lotus-eater attack", |x| {
            AttackPlan::ideal_lotus_eater(x, 0.70)
        }),
        ("Trade lotus-eater attack", |x| {
            AttackPlan::trade_lotus_eater(x, 0.70)
        }),
    ] {
        let cfg = cfg.clone();
        let curve = sweep_fraction(label, &xs, &sweep, move |x, seed| {
            run::<BarGossipSim>(cfg.clone(), make(x), seed).isolated_delivery()
        });
        curves.push(curve);
    }

    let chart = render(
        &curves,
        &PlotConfig {
            width: 64,
            height: 18,
            x_label: "fraction of nodes controlled by attacker".into(),
            y_label: "isolated delivery".into(),
            y_range: Some((0.0, 1.0)),
        },
    );
    println!("{chart}");

    let threshold = lotus_eater::lotus_core::report::UsabilityThreshold::BAR_GOSSIP;
    for curve in &curves {
        match threshold.break_point(curve) {
            Some(x) => println!(
                "{}: stream unusable once attacker holds {:.1}% of nodes",
                curve.label,
                x * 100.0
            ),
            None => println!("{}: never breaks the 93% line on this range", curve.label),
        }
    }
    println!();
    println!("Same ordering as the paper's Figure 1: the ideal lotus-eater needs a");
    println!("tiny sliver of the system, the trade variant a modest minority, and the");
    println!("traditional crash attack close to half.");
    Ok(())
}
