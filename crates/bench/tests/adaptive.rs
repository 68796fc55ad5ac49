//! Determinism and equivalence tests for the adaptive bandit attackers.
//!
//! The contract mirrors the schedule layer's (see `schedule_golden.rs`):
//! with `--adaptive` unset nothing changes (the golden fixtures pin
//! that), a degenerate `fixed-<arm>` policy reproduces the equivalent
//! static schedule **exactly**, and every learning policy replays
//! bit-identically — same seed, same policy, same arm trace, same
//! report.

use lotus_bench::registry::{Params, RunRequest, ScenarioRegistry};
use lotus_bench::runner::run_args;
use lotus_core::adaptive::TraceEntry;
use lotus_core::scenario::ScenarioReport;

/// `(scenario, attack, base params)` for one small, fast case per
/// scheduled substrate (the same shapes the schedule goldens use).
type Case = (
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
);

const CASES: &[Case] = &[
    (
        "bar-gossip",
        "trade",
        &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
        ],
    ),
    (
        "scrip",
        "lotus-eater",
        &[("agents", "40"), ("rounds", "600"), ("warmup", "100")],
    ),
    (
        "bittorrent",
        "satiate",
        &[("leechers", "15"), ("pieces", "16")],
    ),
    (
        "token",
        "random-fraction",
        &[("nodes", "24"), ("rounds", "50")],
    ),
    (
        "scrip-gossip",
        "trade",
        &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
        ],
    ),
];

fn run_case(
    scenario: &str,
    attack: &str,
    seed: u64,
    base: &[(&str, &str)],
    extra: &[(&str, &str)],
) -> ScenarioReport {
    let reg = ScenarioRegistry::standard();
    let mut p = Params::new();
    for (k, v) in base.iter().chain(extra) {
        p.set(*k, *v);
    }
    let req = RunRequest::new(0.3, seed, attack, "fraction", &p);
    reg.run(scenario, &req)
        .unwrap_or_else(|e| panic!("{scenario} {attack} seed {seed}: {e}"))
}

/// Run through the build path and capture the arm trace alongside the
/// summary.
fn traced_run(
    scenario: &str,
    attack: &str,
    seed: u64,
    base: &[(&str, &str)],
    extra: &[(&str, &str)],
) -> (ScenarioReport, Option<Vec<TraceEntry>>) {
    let reg = ScenarioRegistry::standard();
    let mut p = Params::new();
    for (k, v) in base.iter().chain(extra) {
        p.set(*k, *v);
    }
    let req = RunRequest::new(0.3, seed, attack, "fraction", &p);
    let mut built = reg
        .build(scenario, &req)
        .unwrap_or_else(|e| panic!("{scenario} {attack} seed {seed}: {e}"));
    let report = built.finish_dyn();
    (report, built.arm_trace_dyn().map(<[TraceEntry]>::to_vec))
}

/// The ISSUE-4 acceptance criterion: with exploration disabled and the
/// best arm pinned, the adaptive path must reproduce the equivalent
/// static schedule byte-for-byte — `fixed-defect` is `always`, on every
/// scheduled substrate.
#[test]
fn fixed_defect_policy_reproduces_static_always_exactly() {
    for (scenario, attack, base) in CASES {
        let always = run_case(scenario, attack, 1, base, &[("schedule", "always")]);
        let fixed = run_case(
            scenario,
            attack,
            1,
            base,
            &[("adaptive", "fixed-defect,10,0")],
        );
        assert_eq!(
            fixed.to_json(),
            always.to_json(),
            "{scenario}: fixed-defect must be the static always-on attack"
        );
    }
}

/// The dormant pin is the other degenerate end: never attacking must
/// match a trigger round that never arrives.
#[test]
fn fixed_dormant_policy_matches_an_attack_that_never_fires() {
    for (scenario, attack, base) in CASES {
        let never = run_case(scenario, attack, 1, base, &[("schedule", "at:1000000")]);
        let dormant = run_case(
            scenario,
            attack,
            1,
            base,
            &[("adaptive", "fixed-dormant,10,0")],
        );
        assert_eq!(
            dormant.to_json(),
            never.to_json(),
            "{scenario}: fixed-dormant must equal the never-firing schedule"
        );
    }
}

/// Same seed + same policy ⇒ identical arm trace and identical report,
/// for both learning policies, on every scheduled substrate.
#[test]
fn adaptive_runs_replay_bit_identically() {
    for policy in ["epsilon-greedy,6,0.3", "ucb,6,0.8"] {
        for (scenario, attack, base) in CASES {
            let extra = [("adaptive", policy)];
            let (r1, t1) = traced_run(scenario, attack, 1, base, &extra);
            let (r2, t2) = traced_run(scenario, attack, 1, base, &extra);
            assert_eq!(
                r1, r2,
                "{scenario} with {policy} must replay bit-identically"
            );
            let t1 = t1.unwrap_or_else(|| panic!("{scenario}: adaptive run must trace arms"));
            let t2 = t2.expect("second run traces too");
            assert_eq!(t1, t2, "{scenario} with {policy}: arm traces must replay");
            assert!(!t1.is_empty(), "{scenario}: trace has at least one phase");
            // Phases are consecutive and the first four are the
            // canonical initialization sweep (when the run is long
            // enough to play them).
            for (i, e) in t1.iter().enumerate() {
                assert_eq!(e.phase, i as u64, "{scenario}: phases are consecutive");
            }
            for (i, arm) in lotus_core::adaptive::AttackMode::ALL.iter().enumerate() {
                if let Some(e) = t1.get(i) {
                    assert_eq!(
                        e.arm, *arm,
                        "{scenario} with {policy}: init sweep is canonical"
                    );
                }
            }
        }
    }
}

/// Different seeds must explore differently somewhere (the policy rng is
/// a seed-derived fork, not a constant stream).
#[test]
fn exploration_randomness_is_seed_dependent() {
    let (_, base) = ("bar-gossip", CASES[0].2);
    let traces: Vec<Vec<TraceEntry>> = (1..=8)
        .map(|seed| {
            traced_run(
                "bar-gossip",
                "trade",
                seed,
                base,
                &[("adaptive", "epsilon-greedy,3,0.8"), ("rounds", "30")],
            )
            .1
            .expect("traced")
        })
        .collect();
    let distinct: std::collections::BTreeSet<String> = traces
        .iter()
        .map(|t| t.iter().map(|e| e.arm.name()).collect::<Vec<_>>().join(","))
        .collect();
    assert!(
        distinct.len() > 1,
        "8 seeds with epsilon=0.8 must not all explore identically: {distinct:?}"
    );
}

/// The adaptive convergence metrics appear exactly when a learning
/// policy drove the run, and the per-arm shares partition the phases.
#[test]
fn adaptive_metrics_appear_only_for_learning_policies() {
    let (scenario, attack, base) = ("bar-gossip", "trade", CASES[0].2);
    let plain = run_case(scenario, attack, 1, base, &[]);
    assert_eq!(plain.metric("adaptive_phases"), None);
    let fixed = run_case(
        scenario,
        attack,
        1,
        base,
        &[("adaptive", "fixed-defect,5,0")],
    );
    assert_eq!(
        fixed.metric("adaptive_phases"),
        None,
        "degenerate policies attach nothing (static equivalence)"
    );
    let learned = run_case(
        scenario,
        attack,
        1,
        base,
        &[("adaptive", "epsilon-greedy,5,0.2")],
    );
    let phases = learned.metric("adaptive_phases").expect("phase count");
    assert!(phases >= 4.0, "long enough to sweep the arms: {phases}");
    let shares: f64 = [
        "adaptive_dormant_share",
        "adaptive_cooperate_share",
        "adaptive_defect_share",
        "adaptive_rotate_share",
    ]
    .iter()
    .map(|k| learned.metric(k).expect("share metric"))
    .sum();
    assert!((shares - 1.0).abs() < 1e-12, "arm shares partition phases");
    let active = learned.metric("adaptive_active_share").expect("active");
    assert!((0.0..=1.0).contains(&active));
    let final_arm = learned.metric("adaptive_final_arm").expect("final arm");
    assert!((0.0..=3.0).contains(&final_arm));
}

/// A learning bandit's timing differs from the always-on attack (the
/// axis is real): its first phases are spent dormant/cooperating.
#[test]
fn learning_policies_have_observable_effect() {
    let (scenario, attack, base) = ("bar-gossip", "trade", CASES[0].2);
    let always = run_case(scenario, attack, 1, base, &[]);
    let adaptive = run_case(
        scenario,
        attack,
        1,
        base,
        &[("adaptive", "epsilon-greedy,5,0.2")],
    );
    assert!(
        adaptive.overall_delivery > always.overall_delivery,
        "the bandit's dormant init phases must leave delivery healthier \
         ({} vs {})",
        adaptive.overall_delivery,
        always.overall_delivery
    );
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_string()).collect()
}

const RUNNER_BASE: &[&str] = &[
    "--scenario",
    "bar-gossip",
    "--seeds",
    "1",
    "--param",
    "nodes=50",
    "--param",
    "rounds=10",
    "--param",
    "warmup_rounds=5",
    "--param",
    "updates_per_round=4",
    "--param",
    "copies_seeded=5",
];

/// `--sweep adaptive_epsilon` / `adaptive_phase` drive the bandit knobs
/// through the ordinary sweep grammar on every scheduled substrate.
#[test]
fn adaptive_sweep_axes_run_end_to_end() {
    let mut a = args(RUNNER_BASE);
    a.extend(args(&[
        "--attack",
        "trade",
        "--adaptive",
        "epsilon-greedy,5,0.1",
        "--sweep",
        "adaptive_epsilon",
        "--x-values",
        "0,0.5",
        "--metric",
        "adaptive_defect_share",
        "--format",
        "json",
    ]));
    let out = run_args(&a).expect("epsilon sweep runs");
    assert!(
        out.contains("\"metric\":\"adaptive_defect_share\""),
        "{out}"
    );
    assert!(out.contains("\"points\":[[0,"), "{out}");

    let mut a = args(RUNNER_BASE);
    a.extend(args(&[
        "--attack",
        "trade",
        "--sweep",
        "adaptive_phase",
        "--x-values",
        "5,10",
        "--format",
        "json",
    ]));
    let out = run_args(&a).expect("phase sweep runs (implies epsilon-greedy)");
    assert!(out.contains("\"points\":[[5,"), "{out}");
}

/// `--arm-trace` appends the representative traces in both formats.
#[test]
fn arm_trace_output_appears_in_both_formats() {
    let mut a = args(RUNNER_BASE);
    a.extend(args(&[
        "--attack",
        "trade",
        "--adaptive",
        "ucb,5,0.5",
        "--x-values",
        "0.3",
        "--arm-trace",
        "--format",
        "json",
    ]));
    let out = run_args(&a).expect("arm-trace json runs");
    assert!(out.contains("\"arm_traces\":["), "{out}");
    assert!(out.contains("\"arm\":\"dormant\""), "{out}");
    assert!(out.contains("\"mean_damage\":"), "{out}");

    let mut a = args(RUNNER_BASE);
    a.extend(args(&[
        "--attack",
        "trade",
        "--adaptive",
        "ucb,5,0.5",
        "--x-values",
        "0.3",
        "--arm-trace",
    ]));
    let out = run_args(&a).expect("arm-trace table runs");
    assert!(out.contains("Arm trace — trade (x=0.3, seed 1):"), "{out}");

    // Without an adaptive curve the flag is a clean no-op.
    let mut a = args(RUNNER_BASE);
    a.extend(args(&[
        "--attack",
        "trade",
        "--x-values",
        "0.3",
        "--arm-trace",
        "--format",
        "json",
    ]));
    let out = run_args(&a).expect("non-adaptive arm-trace runs");
    assert!(!out.contains("arm_traces"), "{out}");
}

/// Malformed or conflicting adaptive requests fail with clean messages.
#[test]
fn invalid_adaptive_requests_error_cleanly() {
    // Bad specs die at flag-parse time.
    for bad in [
        "bogus,10,0.1",
        "epsilon-greedy,0,0.1",
        "epsilon-greedy,10,7",
        "ucb,10,-2",
        "fixed-sideways,10,0",
    ] {
        let mut a = args(RUNNER_BASE);
        a.extend(args(&["--attack", "trade", "--adaptive", bad]));
        assert!(run_args(&a).is_err(), "{bad:?} must be rejected");
    }
    // An adaptive attacker replaces the open-loop schedule...
    let mut a = args(RUNNER_BASE);
    a.extend(args(&[
        "--attack",
        "trade",
        "--x-values",
        "0.3",
        "--adaptive",
        "ucb,5,0.5",
        "--schedule",
        "periodic:6:3",
    ]));
    let err = run_args(&a).expect_err("schedule+adaptive must conflict");
    assert!(err.contains("adaptive"), "{err}");
    // ...and owns the rotation clock.
    let mut a = args(RUNNER_BASE);
    a.extend(args(&[
        "--attack",
        "trade",
        "--x-values",
        "0.3",
        "--adaptive",
        "ucb,5,0.5",
        "--param",
        "rotation_period=6",
    ]));
    let err = run_args(&a).expect_err("rotation_period+adaptive must conflict");
    assert!(err.contains("rotation"), "{err}");
    // Keeping --schedule at its default is explicitly allowed.
    let mut a = args(RUNNER_BASE);
    a.extend(args(&[
        "--attack",
        "trade",
        "--x-values",
        "0.3",
        "--adaptive",
        "fixed-defect,5,0",
        "--schedule",
        "always",
    ]));
    assert!(
        run_args(&a).is_ok(),
        "schedule=always composes with adaptive"
    );
}
