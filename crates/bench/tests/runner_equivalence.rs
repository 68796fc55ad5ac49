//! The acceptance contract of the unified runner: the registry path
//! (`lotus-bench --scenario bar-gossip --attack trade ...`) must produce
//! exactly the numbers the legacy figure pipeline produced for identical
//! seeds — same simulator, same sweep, same averages, bit for bit.

use lotus_bench::registry::{Params, RunRequest, ScenarioRegistry};
use lotus_bench::runner::{evaluate, parse_args};

/// A small Figure-2-shaped configuration (push size 10) so the test runs
/// in CI time.
const FIG2_PARAMS: &[(&str, &str)] = &[
    ("nodes", "60"),
    ("updates_per_round", "4"),
    ("copies_seeded", "6"),
    ("rounds", "12"),
    ("warmup_rounds", "5"),
    ("push_size", "10"),
];

#[test]
fn registry_reproduces_the_legacy_fig2_curve() {
    let seeds = 2;

    // Legacy path: the curve the closure-based `attack_curve` pipeline
    // (a `BarGossipSim` per (x, seed) under `AttackPlan::trade_lotus_eater`
    // at the paper's satiate fraction, averaged over seeds 1 and 2)
    // produced for this configuration, as `(x, y.to_bits())`.
    let legacy = [
        (0.0, 0x3feff1c71c71c71c_u64), // 0.9982638888888888
        (0.2, 0x3fee800000000000),     // 0.953125
        (0.4, 0x3fedb425ed097b42),     // 0.9282407407407407
        (0.6, 0x3fe871c71c71c71c),     // 0.7638888888888888
    ];

    // Registry path: what `lotus-bench --scenario bar-gossip --attack
    // trade --param push_size=10 ...` evaluates.
    let mut args = vec![
        "--scenario".to_string(),
        "bar-gossip".to_string(),
        "--attack".to_string(),
        "trade".to_string(),
        "--x-values".to_string(),
        "0,0.2,0.4,0.6".to_string(),
        "--seeds".to_string(),
        seeds.to_string(),
    ];
    for (k, v) in FIG2_PARAMS {
        args.push("--param".to_string());
        args.push(format!("{k}={v}"));
    }
    let opts = parse_args(&args).expect("CLI parses");
    let figure = evaluate(&ScenarioRegistry::standard(), &opts).expect("figure evaluates");

    assert_eq!(figure.series.len(), 1);
    assert_eq!(figure.series[0].points.len(), legacy.len());
    for (&(lx, bits), &(rx, ry)) in legacy.iter().zip(&figure.series[0].points) {
        assert_eq!(lx, rx, "x grids must align");
        assert_eq!(
            bits,
            ry.to_bits(),
            "registry and legacy paths diverge at x={lx}: {} vs {ry}",
            f64::from_bits(bits)
        );
    }
}

#[test]
fn registry_run_is_deterministic_across_calls() {
    let reg = ScenarioRegistry::standard();
    let mut params = Params::new();
    for (k, v) in FIG2_PARAMS {
        params.set(*k, *v);
    }
    let req = RunRequest::new(0.3, 5, "trade", "fraction", &params);
    let a = reg.run("bar-gossip", &req).expect("runs");
    let b = reg.run("bar-gossip", &req).expect("runs");
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}
