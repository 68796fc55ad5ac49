//! Figure-sweep benchmark for the lotus-eater simulators.
//!
//! Drives the simulator from outside, the way a figure is made: every
//! job of a workload goes through `ScenarioRegistry::build`,
//! `DynScenario::step_dyn` to completion and `report_dyn`, with jobs
//! fanned out by `lotus_core::sweep`. See `README.md` for the workloads
//! and metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name|all> --repin
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last stdout line is one JSON object either way.

mod metrics;
mod pass;
mod replay;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use lotus_bench::registry::ScenarioRegistry;

use metrics::{median, peak_rss_mb, quantile, result_line, Metric};
use pass::{run_pass, Counters, JobRecord, Pass};
use trace::Trace;
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench --workload <name|all> --repin";

/// Measured passes per untraced run, at least.
const MIN_PASSES: usize = 3;
/// A step slower than this multiple of its job's median step is a burst.
const BURST_FACTOR: f64 = 8.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repin: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        repin: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--repin" {
            args.repin = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let reg = ScenarioRegistry::standard();
    if args.repin {
        return repin(&reg, &args.workload);
    }
    let Some(wl) = Workload::find(&args.workload) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; known: {}",
            args.workload,
            known.join(", ")
        );
        return ExitCode::from(2);
    };
    let mut check = Check::default();
    let pins = match parse_pins(wl.pins) {
        Ok(pins) => pins,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", wl.name);
            return ExitCode::from(1);
        }
    };
    // Warm-up: the default seed's jobs, checked against the pins.
    let warm = run_pass(
        &reg,
        &wl.jobs(DEFAULT_SEED, wl.run_threads),
        wl.workers,
        None,
    );
    check.outcomes(&warm, "warm-up");
    check.fingerprints(&warm, &pins, "warm-up vs pins");

    println!(
        "# perfbench workload={} seed={} trace={} seconds={}",
        wl.name,
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!("# env {}", environment(wl));
    let budget = Duration::from_secs_f64(args.seconds);
    let metrics = if args.trace {
        traced_run(&reg, wl, args.seed, budget, &pins, &mut check)
    } else {
        timed_run(&reg, wl, args.seed, budget, &pins, &mut check)
    };
    for note in &check.notes {
        println!("# FAIL {note}");
    }
    for m in &metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(check.failed == 0, check.attempted, check.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Measure the workload's job list for `budget`, tracing off.
fn timed_run(
    reg: &ScenarioRegistry,
    wl: &Workload,
    seed: u64,
    budget: Duration,
    pins: &[u64],
    check: &mut Check,
) -> Vec<Metric> {
    let jobs = wl.jobs(seed, wl.run_threads);
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(run_pass(reg, &jobs, wl.workers, None));
        let elapsed = start.elapsed();
        let per_pass = elapsed / passes.len() as u32;
        if passes.len() >= MIN_PASSES && elapsed + per_pass > budget {
            break;
        }
    }
    check.same_work(&passes, seed, pins);
    let walls: Vec<f64> = passes.iter().map(Pass::wall_s).collect();
    let run_ms: Vec<f64> = best_per_job(&passes, |r| r.run_ns)
        .map(|ns| ns * 1e-6)
        .collect();
    let setup_s: Vec<f64> = best_per_job(&passes, |r| r.build_ns)
        .map(|ns| ns * 1e-9)
        .collect();
    println!(
        "# passes={} jobs_per_pass={} run_ms_samples={} (best of {} per job) {}",
        passes.len(),
        jobs.len(),
        run_ms.len(),
        passes.len(),
        counters_line(&passes[0].counters())
    );
    let walls_ms: Vec<String> = walls.iter().map(|w| format!("{:.1}", w * 1e3)).collect();
    println!("# pass_ms {}", walls_ms.join(" "));
    vec![
        Metric::new(
            "sweep_s",
            "s",
            walls.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        Metric::new("run_ms_p50", "ms", median(&run_ms)),
        Metric::new("run_ms_p90", "ms", quantile(&run_ms, 0.9)),
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb().unwrap_or(0.0)),
    ]
}

/// Each job's fastest repeat across `passes`, in job order. Other
/// tenants of a shared machine only ever add time, so the fastest
/// repeat is the steadiest estimate of the job's own cost.
fn best_per_job<'a>(
    passes: &'a [Pass],
    ns: impl Fn(&JobRecord) -> u64 + 'a,
) -> impl Iterator<Item = f64> + 'a {
    (0..passes[0].jobs.len()).filter_map(move |j| {
        passes
            .iter()
            .filter_map(|p| p.jobs[j].as_ref().ok())
            .map(&ns)
            .min()
            .map(|v| v as f64)
    })
}

/// Untraced and traced passes in pairs, one pass with the other fan-out,
/// then the primitive replays; returns the per-layer metrics.
fn traced_run(
    reg: &ScenarioRegistry,
    wl: &Workload,
    seed: u64,
    budget: Duration,
    pins: &[u64],
    check: &mut Check,
) -> Vec<Metric> {
    let jobs = wl.jobs(seed, wl.run_threads);
    let mut trace = Trace::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        plain.push(run_pass(reg, &jobs, wl.workers, None));
        let pass = run_pass(reg, &jobs, wl.workers, Some(trace.epoch));
        for r in pass.records() {
            trace.extend_job(&r.spans);
        }
        traced.push(pass);
        let elapsed = start.elapsed();
        if elapsed + elapsed / plain.len() as u32 > budget / 2 {
            break;
        }
    }
    let alt_jobs = wl.jobs(seed, wl.alt_run_threads);
    let alt = run_pass(reg, &alt_jobs, wl.alt_workers, None);
    println!(
        "# fan-out check: {} worker(s) x run_threads={} against {} x {}",
        wl.alt_workers, wl.alt_run_threads, wl.workers, wl.run_threads
    );
    let counters = plain[0].counters();
    let overhead_s = median(&traced.iter().map(Pass::wall_s).collect::<Vec<_>>())
        - median(&plain.iter().map(Pass::wall_s).collect::<Vec<_>>());
    let busy: Vec<f64> = traced
        .iter()
        .map(|p| {
            let job_ns: u64 = p.records().map(|r| r.job_ns).sum();
            job_ns as f64 / (p.workers as f64 * p.wall_ns as f64)
        })
        .collect();
    let (warm_us, burst_ms) = step_split(&traced);
    let report_us: Vec<f64> = trace.durations("report").map(|d| d as f64 * 1e-3).collect();
    let replayed = replay::run_replays(wl, seed, &mut trace);

    let pairs = plain.len();
    let mut all: Vec<Pass> = plain;
    all.extend(traced);
    all.push(alt);
    check.same_work(&all, seed, pins);

    let path = std::path::PathBuf::from(format!(".bench_out/spans-{}-seed{seed}.csv", wl.name));
    match trace.write_csv(&path) {
        Ok(()) => println!(
            "# spans: {} written to {}",
            trace.spans.len(),
            path.display()
        ),
        Err(e) => println!("# spans: not written ({e})"),
    }
    println!(
        "# traced pairs={} jobs_per_pass={} warm_steps={} burst_steps={} reports={} {}",
        pairs,
        jobs.len(),
        warm_us.len(),
        burst_ms.len(),
        report_us.len(),
        counters_line(&counters)
    );
    let mut out = vec![
        Metric::new("sweep.jobs", "count", counters.jobs as f64),
        Metric::new("sweep.busy_frac", "ratio", median(&busy)),
        Metric::new("trace.overhead_s", "s", overhead_s),
        Metric::new("failed_frac", "ratio", check.failed_frac()),
        Metric::new("step.warm_us_p50", "us", median(&warm_us)),
        Metric::new("step.warm_us_p90", "us", quantile(&warm_us, 0.9)),
        Metric::new("step.burst_ms_p50", "ms", median(&burst_ms)),
        Metric::new("step.count", "count", counters.steps as f64),
        Metric::new("report.us_p50", "us", median(&report_us)),
        Metric::new("digest.requests", "count", counters.digest_requests as f64),
        Metric::new(
            "digest.bytes_on_wire",
            "bytes",
            counters.digest_bytes as f64,
        ),
        Metric::new(
            "digest.fp_rate",
            "ratio",
            if counters.digest_requests == 0 {
                0.0
            } else {
                counters.digest_wasted as f64 / counters.digest_requests as f64
            },
        ),
        Metric::new("faults.dropped", "count", counters.faults_dropped as f64),
        Metric::new("faults.crashes", "count", counters.faults_crashes as f64),
    ];
    out.extend(replayed);
    out
}

/// Step times of the traced passes, split per job into warm steps (µs)
/// and bursts (ms): steps slower than `BURST_FACTOR` × the job's median.
fn step_split(traced: &[Pass]) -> (Vec<f64>, Vec<f64>) {
    let (mut warm, mut burst) = (Vec::new(), Vec::new());
    for r in traced.iter().flat_map(Pass::records) {
        let steps: Vec<f64> = r
            .spans
            .iter()
            .filter(|s| s.name == "step")
            .map(|s| s.duration_ns() as f64)
            .collect();
        let cut = median(&steps) * BURST_FACTOR;
        for ns in steps {
            if ns > cut {
                burst.push(ns * 1e-6);
            } else {
                warm.push(ns * 1e-3);
            }
        }
    }
    (warm, burst)
}

fn counters_line(c: &Counters) -> String {
    format!(
        "jobs={} step.count={} digest.requests={} digest.wasted={} digest.bytes_on_wire={} \
         faults.dropped={} faults.crashes={}",
        c.jobs,
        c.steps,
        c.digest_requests,
        c.digest_wasted,
        c.digest_bytes,
        c.faults_dropped,
        c.faults_crashes
    )
}

/// Correctness bookkeeping: jobs attempted, jobs failed, and why.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Check {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Count a pass's jobs; an error or panic fails the job.
    fn outcomes(&mut self, pass: &Pass, what: &str) {
        for (j, outcome) in pass.jobs.iter().enumerate() {
            self.attempted += 1;
            if let Err(e) = outcome {
                self.fail(format!("{what}: job {j}: {e}"));
            }
        }
    }

    /// Fail every job whose fingerprint differs from `expected`.
    fn fingerprints(&mut self, pass: &Pass, expected: &[u64], what: &str) {
        if expected.len() != pass.jobs.len() {
            self.fail(format!(
                "{what}: {} fingerprints for {} jobs",
                expected.len(),
                pass.jobs.len()
            ));
            return;
        }
        for (j, (outcome, &want)) in pass.jobs.iter().zip(expected).enumerate() {
            if let Ok(r) = outcome {
                if r.fingerprint != want {
                    self.fail(format!(
                        "{what}: job {j}: fingerprint {:016x}, expected {want:016x}",
                        r.fingerprint
                    ));
                }
            }
        }
    }

    /// Count the passes' jobs and require every pass to repeat the first
    /// one's fingerprints and counters exactly (and the pins, at the
    /// default seed).
    fn same_work(&mut self, passes: &[Pass], seed: u64, pins: &[u64]) {
        let first: Vec<u64> = passes[0]
            .jobs
            .iter()
            .map(|o| o.as_ref().map_or(0, |r| r.fingerprint))
            .collect();
        let counters = passes[0].counters();
        for (i, pass) in passes.iter().enumerate() {
            self.outcomes(pass, &format!("pass {i}"));
            if i == 0 {
                if seed == DEFAULT_SEED {
                    self.fingerprints(pass, pins, "pass 0 vs pins");
                }
                continue;
            }
            self.fingerprints(pass, &first, &format!("pass {i} vs pass 0"));
            if pass.counters() != counters {
                self.fail(format!(
                    "pass {i}: counters drifted: {} vs {}",
                    counters_line(&pass.counters()),
                    counters_line(&counters)
                ));
            }
        }
    }
}

/// Parse a pins file: one `<hex fingerprint> <job label>` line per job,
/// `#` lines are comments.
fn parse_pins(text: &str) -> Result<Vec<u64>, String> {
    let pins: Vec<u64> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let hex = l.split_whitespace().next().unwrap_or("");
            u64::from_str_radix(hex, 16).map_err(|_| format!("bad pin line {l:?}"))
        })
        .collect::<Result<_, _>>()?;
    if pins.is_empty() {
        return Err("no pinned fingerprints; run with --repin".to_string());
    }
    Ok(pins)
}

/// Rewrite the pins of one workload (or `all`) from the default seed.
fn repin(reg: &ScenarioRegistry, name: &str) -> ExitCode {
    let chosen: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| name == "all" || w.name == name)
        .collect();
    if chosen.is_empty() {
        eprintln!("perfbench: unknown workload {name:?}");
        return ExitCode::from(2);
    }
    for wl in chosen {
        let jobs = wl.jobs(DEFAULT_SEED, wl.run_threads);
        let pass = run_pass(reg, &jobs, wl.workers, None);
        let mut text = format!(
            "# Report fingerprints of workload {} at seed {DEFAULT_SEED}: FNV-1a of the report\n\
             # JSON without the digest wire metrics. Regenerate with --repin.\n",
            wl.name
        );
        for (job, outcome) in jobs.iter().zip(&pass.jobs) {
            match outcome {
                Ok(r) => text.push_str(&format!("{:016x} {}\n", r.fingerprint, job.label())),
                Err(e) => {
                    eprintln!("perfbench: {}: {}: {e}", wl.name, job.label());
                    return ExitCode::from(1);
                }
            }
        }
        let path = format!("{}/pins/{}.txt", env!("CARGO_MANIFEST_DIR"), wl.name);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: writing {path}: {e}");
            return ExitCode::from(1);
        }
        println!("pinned {} jobs to {path}", jobs.len());
    }
    ExitCode::SUCCESS
}

/// Where the numbers were taken: machine, toolchain, commit and fan-out.
fn environment(wl: &Workload) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={} sweep_workers={} run_threads={}",
        env!("PERFBENCH_RUSTC"),
        git_commit().unwrap_or_else(|| "unknown".to_string()),
        wl.workers,
        wl.run_threads
    )
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
