//! Smoke tests: the paper-artifact presets run end-to-end in `--quick`
//! mode and print the blocks the harness promises (CSV, chart,
//! conclusions).
//!
//! Only the light presets are exercised here — the full sweeps live in
//! `results/` and EXPERIMENTS.md.

use std::process::Command;

fn run_preset(id: &str, extra: &[&str]) -> String {
    let mut args = vec!["--preset", id, "--quick"];
    args.extend(extra);
    run_runner(&args)
}

#[test]
fn table1_prints_the_paper_parameters() {
    let out = run_preset("table1", &[]);
    for needle in [
        "TABLE 1",
        "Number of Nodes       | 250",
        "Updates per Round     | 10",
        "Update Lifetime (rds) | 10",
        "Copies Seeded         | 12",
        "Opt. Push Size (upd)  | 2",
    ] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }
}

#[test]
fn ext_rare_prints_series_and_conclusion() {
    let out = run_preset("x3", &[]);
    assert!(out.contains("series,x,y"), "CSV block missing");
    assert!(out.contains("no attack"), "clean series missing");
    assert!(
        out.contains("rare-holder satiation attack"),
        "attack series missing"
    );
    assert!(out.contains("spreading"), "conclusion missing");
}

#[test]
fn ext_coding_shows_the_collapse_at_zero_redundancy() {
    let out = run_preset("x10", &[]);
    assert!(
        out.contains("rare-token attack,0.0000,0.0000"),
        "collect-all must be fully denied:\n{out}"
    );
    assert!(out.contains("Avalanche"), "conclusion missing");
}

fn run_runner(args: &[&str]) -> String {
    let bin = env!("CARGO_BIN_EXE_lotus-bench");
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        out.status.success(),
        "lotus-bench {args:?} exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("runner prints UTF-8")
}

#[test]
fn runner_lists_every_registered_scenario() {
    let out = run_runner(&["--list"]);
    for name in [
        "bar-gossip",
        "bar-gossip-digest",
        "scrip",
        "bittorrent",
        "token",
        "scrip-gossip",
        "reputation",
    ] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn runner_list_documents_attacks_and_schedule_churn_axes() {
    let out = run_runner(&["--list"]);
    // Per-scenario attacks are enumerated with their doc lines, not just
    // names, so presets are discoverable from the CLI alone.
    for needle in [
        "trade — trade lotus-eater: in-protocol give-everything",
        "satiate — attacker peers upload generously, but only to their targets",
        "rotating — rotate the satiated fraction every `period` rounds",
    ] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }
    // The schedule/churn axes appear, as parameter lines, for every
    // substrate config that takes them (bar-gossip three times: the paper
    // scale, the digest substrate and the 1M scale).
    assert_eq!(
        out.matches("      schedule — attack timing: always | at:<r>")
            .count(),
        7,
        "seven scenario configs advertise the schedule axis:\n{out}"
    );
    assert_eq!(
        out.matches("      churn_leave — per-round probability a node goes offline")
            .count(),
        7,
        "seven scenario configs advertise the churn axis:\n{out}"
    );
    // Every axis is spelled one way, as a parameter.
    let help = run_runner(&["--help"]);
    assert!(help.contains("--param K=V"), "{help}");
}

#[test]
fn runner_schedule_and_churn_flags_run_end_to_end() {
    let base = [
        "--scenario",
        "bar-gossip",
        "--attack",
        "trade",
        "--format",
        "json",
        "--quick",
        "--seeds",
        "1",
        "--x-values",
        "0.3",
        "--param",
        "nodes=50",
        "--param",
        "rounds=8",
        "--param",
        "warmup_rounds=4",
        "--param",
        "updates_per_round=4",
        "--param",
        "copies_seeded=5",
    ];
    let mut scheduled = base.to_vec();
    scheduled.extend([
        "--param",
        "schedule=periodic:6:3",
        "--param",
        "churn_profile=uniform:0.05:0.5",
    ]);
    let out = run_runner(&scheduled);
    assert!(out.contains("\"points\":[[0.3,"), "no points in:\n{out}");

    // A malformed grammar value fails with status 2 and a message that
    // names its grammar, whether it is passed to every curve or to one.
    let curveless = [&base[..2], &base[4..]].concat();
    for (key, value, grammar) in [
        ("faults", "bogus", "wants <kind>:<args>"),
        ("schedule", "sometimes", "periodic:<p>:<a>"),
        ("schedule", "periodic:0:0", "need 1 <= active <= period"),
        ("adaptive", "bogus:10:0.1", "ucb | fixed-<arm>"),
        ("churn_profile", "0.5:0.1", "<weight>:<leave>:<rejoin>"),
        ("churn_profile", "uniform:1.5", "leave probability 1.5"),
        ("arrival", "burst:x", "<round>:<size>[:<period>]"),
    ] {
        let param = format!("{key}={value}");
        let curve = format!("trade,{param}");
        for args in [
            [&base[..], &["--param", &param]].concat(),
            [&curveless[..], &["--curve", &curve]].concat(),
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_lotus-bench"))
                .args(&args)
                .output()
                .expect("runner launches");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?} should be rejected");
            assert!(
                stderr.contains(grammar) && !stderr.contains("panicked"),
                "{args:?} needs a message naming {grammar:?}, not a panic: {stderr}"
            );
        }
    }

    // Malformed specs and parameters fail with status 2 and a message,
    // never a panic (a panicking sweep worker would salvage a made-up
    // point and exit 0).
    let token = [
        "--scenario",
        "token",
        "--quick",
        "--seeds",
        "1",
        "--x-values",
        "0.3",
        "--param",
        "nodes=20",
        "--param",
        "rounds=10",
    ];
    let small = |scenario| {
        let mut args = vec![scenario, "--quick", "--seeds", "1", "--x-values", "0.3"];
        args.extend(match scenario {
            "bittorrent" => &["--param", "leechers=10", "--param", "pieces=12"][..],
            _ => &["--param", "agents=30", "--param", "rounds=200"],
        });
        [&["--scenario"][..], &args].concat()
    };
    let (scrip, bittorrent, reputation) =
        (small("scrip"), small("bittorrent"), small("reputation"));
    for (base, bad, named) in [
        (
            &token[..],
            &["--attack", "rotating", "--param", "period=0"][..],
            "period",
        ),
        (
            &token,
            &["--attack", "rotating", "--param", "period=-1"],
            "period",
        ),
        (
            &token,
            &["--attack", "rotating", "--param", "period=0.5"],
            "period",
        ),
        (
            &token,
            &["--attack", "rare-holders", "--param", "token=12"],
            "token=",
        ),
        (
            &token,
            &["--attack", "rare-holders", "--param", "token=-1"],
            "token=",
        ),
        (
            &token,
            &["--attack", "cut-column", "--param", "cut_col=99"],
            "cut_col",
        ),
        (&token, &["--attack", "cut-column"], "cut-column"),
        // The cut planner ran on the graph before it was validated.
        (
            &token,
            &["--attack", "cut-plan", "--param", "nodes=0"],
            "two nodes",
        ),
        // Values that used to be truncated, clamped or let through.
        (
            &scrip,
            &["--attack", "lotus-eater", "--param", "threshold=2.9"],
            "threshold",
        ),
        (
            &scrip,
            &["--attack", "lotus-eater", "--param", "agents=40.7"],
            "agents",
        ),
        (
            &scrip,
            &["--attack", "retainer", "--param", "endowment=2"],
            "endowment",
        ),
        (
            &scrip,
            &[
                "--attack",
                "none",
                "--sweep",
                "altruists",
                "--x-values",
                "2.5",
            ],
            "altruists",
        ),
        (
            &token,
            &["--attack", "random-fraction", "--param", "budget=-1"],
            "budget",
        ),
        (
            &token,
            &[
                "--attack", "none", "--param", "graph=er", "--param", "er_p=2",
            ],
            "er_p",
        ),
        (
            &token,
            &[
                "--attack",
                "none",
                "--param",
                "allocation=rare-spread",
                "--param",
                "rare_holders=0",
            ],
            "rare_holders",
        ),
        (
            &token,
            &[
                "--attack",
                "none",
                "--param",
                "allocation=rare-spread",
                "--param",
                "rare_holders=1e9",
            ],
            "rare_holders",
        ),
        (
            &bittorrent,
            &["--attack", "satiate", "--param", "attacker_peers=2.5"],
            "attacker_peers",
        ),
        // An x outside [0, 1] under the default fraction sweep.
        (
            &token,
            &["--attack", "random-fraction", "--x-values", "1.5"],
            "fraction",
        ),
        (
            &scrip,
            &["--attack", "lotus-eater", "--x-values", "-0.5"],
            "fraction",
        ),
        (
            &reputation,
            &["--attack", "inflate", "--x-values", "2"],
            "fraction",
        ),
    ] {
        let mut args = base.to_vec();
        args.extend(bad);
        let out = Command::new(env!("CARGO_BIN_EXE_lotus-bench"))
            .args(&args)
            .output()
            .expect("runner launches");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?} should be rejected");
        assert!(
            stderr.contains(named) && !stderr.contains("panicked"),
            "{bad:?} needs a message naming {named}, not a panic: {stderr}"
        );
    }
}

#[test]
fn oscillating_and_churn_presets_run_in_quick_mode() {
    let osc = run_preset("x15", &[]);
    assert!(osc.contains("Oscillating lotus-eater"), "{osc}");
    assert!(osc.contains("oscillating trade attack"), "{osc}");
    let churn = run_preset("x16", &[]);
    assert!(churn.contains("Churn-gossip"), "{churn}");
    assert!(churn.contains("trade attack at 22%"), "{churn}");
}

#[test]
fn adaptive_preset_runs_in_quick_mode_and_prints_arm_traces() {
    // X17 at full scale is a long sweep; shrink it through the ordinary
    // pass-through arguments (every preset accepts them).
    let out = run_preset(
        "x17",
        &[
            "--seeds",
            "1",
            "--x-values",
            "0,0.5",
            "--param",
            "nodes=60",
            "--param",
            "rounds=60",
        ],
    );
    assert!(out.contains("Adaptive bandit attackers"), "{out}");
    assert!(out.contains("adaptive epsilon-greedy"), "{out}");
    assert!(out.contains("Arm trace — adaptive UCB1"), "{out}");
    assert!(out.contains("dormant("), "init sweep visible:\n{out}");
}

#[test]
fn runner_emits_json_for_the_acceptance_invocation() {
    // The ISSUE-1 acceptance CLI (scaled down so CI stays fast).
    let out = run_runner(&[
        "--scenario",
        "bar-gossip",
        "--attack",
        "trade",
        "--format",
        "json",
        "--quick",
        "--seeds",
        "1",
        "--x-values",
        "0,0.3",
        "--param",
        "nodes=50",
        "--param",
        "rounds=8",
        "--param",
        "warmup_rounds=4",
        "--param",
        "updates_per_round=4",
        "--param",
        "copies_seeded=5",
    ]);
    assert!(
        out.starts_with('{') && out.trim_end().ends_with('}'),
        "not JSON:\n{out}"
    );
    assert!(out.contains("\"scenario\":\"bar-gossip\""));
    assert!(out.contains("\"metric\":\"isolated_delivery\""));
    assert!(out.contains("\"points\":[[0,"));
}

/// Extract the number following `"<key>":` at the first occurrence after
/// `from` in a JSON string (enough structure-checking for a smoke test
/// without a JSON dependency).
fn json_u64_after(json: &str, from: usize, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json[from..]
        .find(&needle)
        .unwrap_or_else(|| panic!("missing {needle} in:\n{json}"))
        + from
        + needle.len();
    json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("bad number for {key}: {e}"))
}

#[test]
fn bench_mode_emits_wellformed_json_with_nonzero_timings() {
    // The ISSUE-2 acceptance invocation (tiny iteration counts for CI).
    let out = run_runner(&[
        "--bench",
        "--scenario",
        "bar-gossip",
        "--format",
        "json",
        "--bench-iters",
        "2",
        "--bench-warmup",
        "1",
        "--param",
        "rounds=6",
        "--param",
        "warmup_rounds=3",
        "--param",
        "update_lifetime=4",
        "--param",
        "nodes=40",
    ]);
    let json = out.trim_end();
    assert!(
        json.starts_with('{') && json.ends_with('}'),
        "not JSON:\n{json}"
    );
    // Stable schema keys.
    for key in [
        "\"bench\":true",
        "\"unix_time\":",
        "\"warmup\":1",
        "\"iters\":2",
        "\"seeds\":1",
        "\"scenarios\":[",
        "\"scenario\":\"bar-gossip\"",
        "\"attack\":\"none\"",
        "\"steps_per_run\":",
        "\"run_ns\":{",
        "\"step_ns\":{",
        "\"min\":",
        "\"median\":",
        "\"p90\":",
        "\"mean\":",
        "\"samples\":",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    // Nonzero timings and sane sample counts.
    let steps = json_u64_after(json, 0, "steps_per_run");
    assert_eq!(steps, 13, "3 warmup + 6 measured + 4 drain rounds");
    let run_at = json.find("\"run_ns\"").expect("run_ns present");
    assert!(
        json_u64_after(json, run_at, "min") > 0,
        "a run takes measurable time:\n{json}"
    );
    assert_eq!(json_u64_after(json, run_at, "samples"), 2);
    let step_at = json.find("\"step_ns\"").expect("step_ns present");
    assert!(json_u64_after(json, step_at, "min") > 0);
    assert_eq!(json_u64_after(json, step_at, "samples"), 26, "2 runs x 13");
}

#[test]
fn bench_mode_covers_every_scenario_by_default() {
    let out = run_runner(&[
        "--bench",
        "--quick",
        "--bench-iters",
        "1",
        "--bench-warmup",
        "0",
        "--format",
        "json",
    ]);
    for name in [
        "\"scenario\":\"bar-gossip\"",
        "\"scenario\":\"bar-gossip-digest\"",
        "\"scenario\":\"scrip\"",
        "\"scenario\":\"bittorrent\"",
        "\"scenario\":\"token\"",
        "\"scenario\":\"scrip-gossip\"",
        "\"scenario\":\"reputation\"",
    ] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn runner_rejects_unknown_scenarios_with_status_2() {
    for (args, message) in [
        (
            &[
                "--scenario",
                "no-such-substrate",
                "--attack",
                "none",
                "--quick",
            ][..],
            "unknown scenario",
        ),
        (&["--preset", "ext_churn", "--quick"], "unknown preset"),
        // Grammar values have no flag spelling of their own.
        (&["--schedule", "always"], "unknown flag \"--schedule\""),
        (&["--churn", "0.05"], "unknown flag \"--churn\""),
        (
            &["--churn-profile", "none"],
            "unknown flag \"--churn-profile\"",
        ),
        (&["--arrival", "none"], "unknown flag \"--arrival\""),
        (&["--faults", "none"], "unknown flag \"--faults\""),
        (&["--adaptive", "ucb,5,0.5"], "unknown flag \"--adaptive\""),
        (&["--run-threads", "1"], "unknown flag \"--run-threads\""),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lotus-bench"))
            .args(args)
            .output()
            .expect("launches");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(message));
    }
}
