//! One pass over a job list: build, step to completion and report every
//! job through the registry, fanned out by `lotus_core::sweep`.

use std::sync::Mutex;
use std::time::Instant;

use lotus_bench::registry::{RunRequest, ScenarioRegistry};
use lotus_core::scenario::ScenarioReport;
use lotus_core::sweep::{sweep_stats_salvaged, SweepConfig};

use crate::trace::{since, Span};
use crate::workloads::Job;

/// The wire-accounting metrics a digest redesign may change. They stay
/// out of the fingerprint and are summed as work counters instead.
pub const WIRE_METRICS: [&str; 4] = [
    "digest_bytes_on_wire",
    "digest_bytes_updates",
    "digest_fp_rate",
    "digest_requests",
];

/// Deterministic work summed over a pass; it must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub jobs: u64,
    pub steps: u64,
    pub digest_requests: u64,
    /// Requests for ids the sender did not hold (bloom false positives).
    pub digest_wasted: u64,
    pub digest_bytes: u64,
    pub faults_dropped: u64,
    pub faults_crashes: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.jobs += o.jobs;
        self.steps += o.steps;
        self.digest_requests += o.digest_requests;
        self.digest_wasted += o.digest_wasted;
        self.digest_bytes += o.digest_bytes;
        self.faults_dropped += o.faults_dropped;
        self.faults_crashes += o.faults_crashes;
    }
}

/// What one job took and produced.
#[derive(Debug)]
pub struct JobRecord {
    /// `ScenarioRegistry::build` time.
    pub build_ns: u64,
    /// Step-loop time, build and report excluded.
    pub run_ns: u64,
    /// Build, steps and report together.
    pub job_ns: u64,
    /// Hash of the report JSON without [`WIRE_METRICS`].
    pub fingerprint: u64,
    pub counters: Counters,
    /// The job's spans (traced passes only); parents index this list.
    pub spans: Vec<Span>,
}

/// One pass: its wall time and every job's outcome, in job order.
pub struct Pass {
    pub wall_ns: u64,
    pub workers: usize,
    pub jobs: Vec<Result<JobRecord, String>>,
}

impl Pass {
    pub fn records(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter_map(|j| j.as_ref().ok())
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for r in self.records() {
            c.add(&r.counters);
        }
        c
    }

    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 * 1e-9
    }
}

/// Run every job once on `workers` sweep workers. With `traced` set,
/// each job records spans (relative to that epoch) around its build,
/// every step and its report.
pub fn run_pass(
    reg: &ScenarioRegistry,
    jobs: &[Job],
    workers: usize,
    traced: Option<Instant>,
) -> Pass {
    let slots: Vec<Mutex<Option<Result<JobRecord, String>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let xs: Vec<f64> = (0..jobs.len()).map(|j| j as f64).collect();
    let cfg = SweepConfig {
        seeds: vec![0],
        threads: workers,
    };
    let start = Instant::now();
    let (_, failures) = sweep_stats_salvaged(&xs, &cfg, &|x, _| {
        let j = x as usize;
        let outcome = run_job(reg, &jobs[j], j, traced);
        *slots[j]
            .lock()
            .expect("no job panics while holding its slot") = Some(outcome);
        0.0
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    let mut outcomes: Vec<Option<Result<JobRecord, String>>> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no job panics while holding its slot")
        })
        .collect();
    for f in failures {
        outcomes[f.job] = Some(Err(format!("panicked: {}", f.message)));
    }
    Pass {
        wall_ns,
        workers,
        jobs: outcomes
            .into_iter()
            .map(|o| o.unwrap_or_else(|| Err("job never ran".to_string())))
            .collect(),
    }
}

fn run_job(
    reg: &ScenarioRegistry,
    job: &Job,
    index: usize,
    traced: Option<Instant>,
) -> Result<JobRecord, String> {
    let epoch = traced.unwrap_or_else(Instant::now);
    let mut spans = Vec::new();
    let mut span = |name, start_ns, end_ns| {
        if traced.is_some() {
            spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: if name == "job" { None } else { Some(0) },
                job: Some(index),
            });
        }
    };
    let t0 = since(epoch);
    span("job", t0, t0);
    let req = RunRequest::new(job.x, job.seed, job.attack, "fraction", &job.params);
    let mut sim = reg.build(job.scenario, &req)?;
    let t1 = since(epoch);
    span("build", t0, t1);
    let mut steps = 0u64;
    loop {
        steps += 1;
        let done = if traced.is_some() {
            let s = since(epoch);
            let outcome = sim.step_dyn();
            span("step", s, since(epoch));
            outcome.is_done()
        } else {
            sim.step_dyn().is_done()
        };
        if done {
            break;
        }
    }
    let t2 = since(epoch);
    let report = sim.report_dyn();
    let t3 = since(epoch);
    span("report", t2, t3);
    if let Some(root) = spans.first_mut() {
        root.end_ns = t3;
    }
    check_report(&report)?;
    Ok(JobRecord {
        build_ns: t1 - t0,
        run_ns: t2 - t1,
        job_ns: t3 - t0,
        fingerprint: fnv1a(fingerprint(&report).as_bytes()),
        counters: counters(&report, steps),
        spans,
    })
}

/// Reject reports no correct run can produce.
fn check_report(r: &ScenarioReport) -> Result<(), String> {
    let unit = 0.0..=1.0;
    if r.rounds == 0 || !unit.contains(&r.overall_delivery) || !unit.contains(&r.targeted_service) {
        return Err(format!("implausible report {}", r.to_json()));
    }
    Ok(())
}

/// The report's JSON without the wire-accounting metrics.
pub fn fingerprint(r: &ScenarioReport) -> String {
    let mut f = ScenarioReport::new(
        r.scenario.clone(),
        r.rounds,
        r.overall_delivery,
        r.targeted_service,
        r.usable,
    );
    for (k, v) in r.custom_metrics() {
        if !WIRE_METRICS.contains(&k) {
            f.set_metric(k, v);
        }
    }
    f.to_json()
}

/// 64-bit FNV-1a: a stable hash for pinning fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn counters(r: &ScenarioReport, steps: u64) -> Counters {
    let m = |k: &str| r.metric(k).unwrap_or(0.0);
    let requests = m("digest_requests");
    Counters {
        jobs: 1,
        steps,
        digest_requests: requests as u64,
        digest_wasted: (m("digest_fp_rate") * requests).round() as u64,
        digest_bytes: m("digest_bytes_on_wire") as u64,
        faults_dropped: m("faults_dropped") as u64,
        faults_crashes: m("faults_crashes") as u64,
    }
}
