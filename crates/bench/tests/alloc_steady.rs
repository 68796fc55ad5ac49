//! Dynamic twin of `lotus-lint`'s static hot-loop rule: with a counting
//! global allocator installed, every registered scenario must execute its
//! steady-state step with **zero heap allocations** — under an active
//! attack, so attacker target selection, scheduling and churn timing are
//! all on the measured path.
//!
//! Build and warm-up may allocate freely (that is where scratch buffers
//! and series reservations happen); the measured steps may not. A canary
//! test proves the allocator shim is actually installed — without it the
//! thread-local counters would sit at zero and every assertion here would
//! pass vacuously.
//!
//! The same allocator also holds builds to a footprint budget: a
//! million-node bar-gossip build requests at most 64 bytes per node, with
//! or without a quorum defense, and a Table-1 build no more than it
//! requested before its per-node state was trimmed.

lotus_core::install_counting_allocator!();

use lotus_bench::registry::{Params, RunRequest, ScenarioRegistry};
use lotus_core::alloc_guard::measure;
use lotus_core::scenario::StepOutcome;

/// Steps to run before measuring: enough for every substrate to reach
/// steady state (lazy series growth done, all scratch at final size).
const WARMUP_STEPS: u32 = 30;
/// Steps measured one by one, each asserted allocation-free.
const MEASURED_STEPS: u32 = 10;

/// Build `scenario` under `attack` from its registry `bench_params`
/// (plus `overrides`, for scenarios whose bench horizon is shorter than
/// the warm-up), warm it up, then assert zero allocations per step.
fn assert_steady_steps_alloc_free(scenario: &str, attack: &str, overrides: &[(&str, &str)]) {
    let reg = ScenarioRegistry::standard();
    let spec = reg.get(scenario).expect("scenario is registered");
    let mut params = Params::new();
    for (k, v) in spec.bench_params {
        params.set(*k, *v);
    }
    for (k, v) in overrides {
        params.set(*k, *v);
    }
    let req = RunRequest::new(0.3, 1, attack, "fraction", &params);
    let mut sim = reg
        .build(scenario, &req)
        .unwrap_or_else(|e| panic!("build {scenario}/{attack}: {e}"));

    for s in 0..WARMUP_STEPS {
        assert_eq!(
            sim.step_dyn(),
            StepOutcome::Continue,
            "{scenario} finished during warm-up step {s} — lengthen its horizon"
        );
    }
    for s in 0..MEASURED_STEPS {
        let mut outcome = StepOutcome::Done;
        let stats = measure(|| outcome = sim.step_dyn());
        assert_eq!(
            outcome,
            StepOutcome::Continue,
            "{scenario} finished during measured step {s} — lengthen its horizon"
        );
        assert!(
            stats.is_zero(),
            "{scenario}/{attack} steady-state step {s} allocated: \
             {} allocation(s), {} bytes",
            stats.allocations,
            stats.bytes
        );
    }
}

/// If this fails, the `install_counting_allocator!` expansion above is
/// not the active global allocator and every other test here is vacuous.
#[test]
fn canary_deliberate_allocation_trips_the_guard() {
    let stats = measure(|| {
        std::hint::black_box(Vec::<u8>::with_capacity(64));
    });
    assert!(
        stats.allocations > 0,
        "counting allocator not installed — zero-alloc assertions are vacuous"
    );
    assert!(stats.bytes >= 64, "{stats:?}");
}

#[test]
fn bar_gossip_steady_step_is_alloc_free() {
    // Bench horizon is 12 rounds; stretch it past warm-up + measurement.
    assert_steady_steps_alloc_free("bar-gossip", "trade", &[("rounds", "60")]);
}

#[test]
fn bar_gossip_digest_steady_step_is_alloc_free() {
    // The two-leg digest round on its worst path: a poisoning attacker,
    // the digest audit arming the silence cut-off, and link faults on
    // the transfer leg. The per-round probe-index rebuild, want-list
    // assembly and the delivery leg must all run on the
    // construction-time scratch (every buffer is reserved to the
    // live-window ceiling). The 64-bit filter gives the longest
    // shared-bit runs and the most false positives.
    for bits in ["1024", "64"] {
        assert_steady_steps_alloc_free(
            "bar-gossip-digest",
            "poison",
            &[
                ("rounds", "60"),
                ("audit", "0.05"),
                ("cutoff", "3"),
                ("faults", "loss:0.05"),
                ("digest_bits", bits),
            ],
        );
    }
}

#[test]
fn scrip_gossip_steady_step_is_alloc_free() {
    assert_steady_steps_alloc_free("scrip-gossip", "trade", &[("rounds", "60")]);
}

#[test]
fn scrip_steady_step_is_alloc_free() {
    assert_steady_steps_alloc_free("scrip", "lotus-eater", &[]);
}

#[test]
fn reputation_steady_step_is_alloc_free() {
    assert_steady_steps_alloc_free("reputation", "inflate", &[]);
}

#[test]
fn token_steady_step_is_alloc_free() {
    assert_steady_steps_alloc_free("token", "random-fraction", &[]);
}

#[test]
fn faulted_steady_steps_are_alloc_free() {
    // The fault layer's own acceptance bar: with every fault component
    // active (loss, dup, delay, crash/recover, a partition epoch that
    // spans the measured window) plus the masquerade attacker and the
    // cutoff defense, the steady-state step must stay allocation-free —
    // fate draws, crash scans and partition checks all run on fixed
    // scratch.
    let faults = &[
        ("rounds", "60"),
        (
            "faults",
            "loss:0.1/dup:0.05/delay:0.05/crash:0.02:0.2/partition:10:40:0.4",
        ),
        ("cutoff", "3"),
    ];
    assert_steady_steps_alloc_free("bar-gossip", "masquerade", faults);
    assert_steady_steps_alloc_free("scrip-gossip", "masquerade", faults);
    assert_steady_steps_alloc_free("scrip", "lotus-eater", &faults[1..2]);
    assert_steady_steps_alloc_free("token", "random-fraction", &faults[1..2]);
    assert_steady_steps_alloc_free("bittorrent", "satiate", &[("pieces", "128"), faults[1]]);
}

#[test]
fn sharded_multi_shard_steady_step_is_alloc_free() {
    // Above the single-shard cutoff (1024 indices) the round loops run
    // the sharded O(active) paths: shard-ordered round order, batched
    // partner sampling and shard-range counter clears must all stay on
    // preallocated scratch. The burst pool is held back beyond the
    // horizon, so the measured steps walk a sparse multi-shard map.
    assert_steady_steps_alloc_free(
        "bar-gossip",
        "trade",
        &[
            ("nodes", "2500"),
            ("rounds", "60"),
            ("arrival", "burst:100000:2000"),
        ],
    );
}

#[test]
fn flash_crowd_landing_leaves_steady_steps_alloc_free() {
    // The crowd lands at round 35, inside the measured steps (rounds
    // 30..40): the landing step itself — engaging 2000 nodes and
    // quintupling the exchange plan — must be allocation-free, as must
    // every step after it at full multi-shard occupancy. Scrip-gossip's
    // ideal pool also engages held-back targets before their wave lands.
    let crowd = [
        ("nodes", "2500"),
        ("rounds", "60"),
        ("arrival", "burst:35:2000"),
    ];
    assert_steady_steps_alloc_free("bar-gossip", "trade", &crowd);
    assert_steady_steps_alloc_free("scrip-gossip", "ideal", &crowd);
}

#[test]
fn plan_phase_at_pool_scale_is_alloc_free() {
    // Past the plan pool's engagement floor (16384 active) the batched
    // exchange plan runs the chunked multi-shard path. At run_threads=1
    // it stays on the calling thread, so the whole plan/apply round —
    // chunk tables, plan entries, shuffle, apply — must live on reused
    // scratch. (run_threads > 1 spawns scoped threads, which allocate by
    // nature; that the *figures* are identical across thread counts is
    // pinned by `plan_props` in bar-gossip.)
    assert_steady_steps_alloc_free(
        "bar-gossip",
        "trade",
        &[("nodes", "20000"), ("rounds", "60"), ("run_threads", "1")],
    );
}

#[test]
fn scrip_multi_shard_steady_step_is_alloc_free() {
    // The scrip volunteer scan walks active shards above the cutoff.
    assert_steady_steps_alloc_free("scrip", "lotus-eater", &[("agents", "2500")]);
}

#[test]
fn bittorrent_steady_step_is_alloc_free() {
    // More pieces than the bench default so no leecher completes inside
    // the measured window.
    assert_steady_steps_alloc_free("bittorrent", "satiate", &[("pieces", "128")]);
}

#[test]
fn economy_weather_steady_steps_are_alloc_free() {
    // The exact weather the economy-weather benchmark runs: a two-cohort
    // churn profile, loss plus crash/recover faults and a periodic attack
    // schedule (on for rounds 0..20 of every 40, so the warm-up crosses
    // the switch-off and the measured steps run with the attack off).
    let [churn, faults, schedule] = [
        ("churn_profile", "0.7:0.01:0.2/0.3:0.1:0.5"),
        ("faults", "loss:0.05/crash:0.01:0.2"),
        ("schedule", "periodic:40:20"),
    ];
    let weather = [churn, faults, schedule];
    assert_steady_steps_alloc_free("scrip", "lotus-eater", &weather);
    assert_steady_steps_alloc_free(
        "scrip-gossip",
        "trade",
        &[churn, faults, schedule, ("rounds", "60")],
    );
    assert_steady_steps_alloc_free(
        "bittorrent",
        "satiate",
        &[churn, faults, schedule, ("pieces", "128")],
    );
    assert_steady_steps_alloc_free("token", "random-fraction", &weather);
}

/// Heap bytes `ScenarioRegistry::build` requests for `scenario` under
/// `attack` at x = `fraction`, with `params` set (cumulative: memory
/// freed during the build still counts).
fn build_bytes(scenario: &str, attack: &str, fraction: f64, params: &[(&str, &str)]) -> u64 {
    let reg = ScenarioRegistry::standard();
    let mut p = Params::new();
    for (k, v) in params {
        p.set(*k, *v);
    }
    let req = RunRequest::new(fraction, 1, attack, "fraction", &p);
    measure(|| {
        reg.build(scenario, &req)
            .unwrap_or_else(|e| panic!("build {scenario}/{attack}: {e}"))
    })
    .bytes
}

/// Heap bytes per node a `bar-gossip-1m` build may request. The
/// per-node state a run reads (window rows, plan entries, delivery and
/// usability counters, payload meter, served counters, seeding list)
/// comes to ~55 bytes; a quorum defense at quorum 3 adds 8 bytes of
/// accuser slots.
const BYTES_PER_NODE_1M: u64 = 64;

#[test]
fn million_node_builds_fit_the_per_node_budget() {
    let n = 1_000_000u64;
    for (attack, x, extra) in [
        ("none", 0.0, &[][..]),
        ("crash", 0.005, &[][..]),
        ("crash", 0.005, &[("cutoff", "3")][..]),
        ("crash", 0.005, &[("report_obedient", "0.5")][..]),
    ] {
        let bytes = build_bytes("bar-gossip-1m", attack, x, extra);
        assert!(
            bytes <= BYTES_PER_NODE_1M * n,
            "bar-gossip-1m {attack} {x} {extra:?}: build requested {bytes} bytes, \
             {:.2} per node (budget {BYTES_PER_NODE_1M})",
            bytes as f64 / n as f64
        );
    }
}

#[test]
fn table_1_builds_stay_within_their_earlier_footprint() {
    // Build bytes at Table 1 (250 nodes) before the per-node state was
    // trimmed; a build must never request more again.
    for (attack, x, before) in [("none", 0.0, 38_054), ("trade", 0.3, 40_462)] {
        let bytes = build_bytes("bar-gossip", attack, x, &[]);
        assert!(
            bytes <= before,
            "bar-gossip {attack} {x}: build requested {bytes} bytes, more than {before}"
        );
    }
}
