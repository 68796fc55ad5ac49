//! The four workloads: fixed job lists shaped like the figure sweeps
//! users run, with sim seeds drawn from the workload seed.

use lotus_bench::registry::Params;
use lotus_core::sweep::grid;
use netsim::rng::split_mix64;

/// The seed whose per-job report fingerprints are pinned in `pins/`.
pub const DEFAULT_SEED: u64 = 1;

/// One `ScenarioRegistry::build` request of a sweep.
#[derive(Debug, Clone)]
pub struct Job {
    pub scenario: &'static str,
    pub attack: &'static str,
    pub x: f64,
    pub params: Params,
    pub seed: u64,
}

impl Job {
    /// A short, seed-free name for the job (used in pins and messages).
    pub fn label(&self) -> String {
        let params: Vec<String> = self
            .params
            .keys()
            .filter(|k| *k != "run_threads")
            .map(|k| format!("{k}={}", self.params.get(k).unwrap_or("")))
            .collect();
        let label = format!("{} {} x={}", self.scenario, self.attack, self.x);
        if params.is_empty() {
            label
        } else {
            format!("{label} {}", params.join(","))
        }
    }
}

/// A workload: its name, how its sweep is fanned out, and the shape the
/// primitive replays take.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Sweep workers and intra-run threads of the measured passes.
    pub workers: usize,
    pub run_threads: usize,
    /// The other fan-out, run once in the traced run: reports and
    /// counters must not change with it.
    pub alt_workers: usize,
    pub alt_run_threads: usize,
    /// Node count the replays of size-dependent primitives use.
    pub nodes: usize,
    /// Pinned fingerprints of the default seed's jobs.
    pub pins: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper-gossip",
        workers: 2,
        run_threads: 1,
        alt_workers: 1,
        alt_run_threads: 1,
        nodes: 250,
        pins: include_str!("../pins/paper-gossip.txt"),
    },
    Workload {
        name: "digest-audit",
        workers: 2,
        run_threads: 1,
        alt_workers: 1,
        alt_run_threads: 1,
        nodes: 250,
        pins: include_str!("../pins/digest-audit.txt"),
    },
    Workload {
        name: "flash-crowd-1m",
        workers: 1,
        run_threads: 2,
        alt_workers: 2,
        alt_run_threads: 1,
        nodes: 1_000_000,
        pins: include_str!("../pins/flash-crowd-1m.txt"),
    },
    Workload {
        name: "economy-weather",
        workers: 2,
        run_threads: 1,
        alt_workers: 1,
        alt_run_threads: 1,
        nodes: 200,
        pins: include_str!("../pins/economy-weather.txt"),
    },
];

/// The churn profile, fault plan and attack schedule every
/// economy-weather job runs under.
pub const WEATHER_CHURN: &str = "0.7:0.01:0.2/0.3:0.1:0.5";
pub const WEATHER_FAULTS: &str = "loss:0.05/crash:0.01:0.2";
pub const WEATHER_SCHEDULE: &str = "periodic:40:20";

/// One curve of a figure: a scenario, an attack, its parameter
/// overrides, and the x values it is evaluated at.
struct Curve {
    scenario: &'static str,
    attack: &'static str,
    params: &'static [(&'static str, &'static str)],
    xs: Vec<f64>,
}

fn curve(
    scenario: &'static str,
    attack: &'static str,
    params: &'static [(&'static str, &'static str)],
    xs: Vec<f64>,
) -> Curve {
    Curve {
        scenario,
        attack,
        params,
        xs,
    }
}

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn curves(&self) -> Vec<Curve> {
        match self.name {
            // Figures 1-3 at Table 1: three attacks at push sizes 2 and
            // 10, then the trade attack against the obedient defenses.
            "paper-gossip" => {
                let full = || grid(0.0, 1.0, 21);
                let low = || grid(0.0, 0.7, 15);
                let bg = "bar-gossip";
                vec![
                    curve(bg, "crash", &[], full()),
                    curve(bg, "ideal", &[], full()),
                    curve(bg, "trade", &[], full()),
                    curve(bg, "crash", &[("push_size", "10")], full()),
                    curve(bg, "ideal", &[("push_size", "10")], full()),
                    curve(bg, "trade", &[("push_size", "10")], full()),
                    curve(
                        bg,
                        "trade",
                        &[("push_size", "2"), ("unbalanced", "0")],
                        low(),
                    ),
                    curve(
                        bg,
                        "trade",
                        &[("push_size", "2"), ("unbalanced", "1")],
                        low(),
                    ),
                    curve(
                        bg,
                        "trade",
                        &[("push_size", "4"), ("unbalanced", "0")],
                        low(),
                    ),
                    curve(
                        bg,
                        "trade",
                        &[("push_size", "4"), ("unbalanced", "1")],
                        low(),
                    ),
                ]
            }
            // The X20 curves of the digest substrate.
            "digest-audit" => {
                let xs = || grid(0.0, 0.9, 10);
                let d = "bar-gossip-digest";
                vec![
                    curve(d, "none", &[], xs()),
                    curve(d, "trade", &[], xs()),
                    curve(
                        d,
                        "masquerade",
                        &[("faults", "loss:0.05"), ("cutoff", "3")],
                        xs(),
                    ),
                    curve(d, "poison", &[], xs()),
                    curve(d, "poison", &[("poison_rate", "0.15")], xs()),
                    curve(d, "poison", &[("audit", "0.02"), ("cutoff", "3")], xs()),
                ]
            }
            // The registered 1M defaults. Lotus-eater attacks satiate a
            // share of a million nodes and run ~50 s per job, so the
            // attacked points use the crash attack. Three ~1 s jobs let a
            // run repeat each one about six times.
            "flash-crowd-1m" => vec![
                curve("bar-gossip-1m", "none", &[], vec![0.0]),
                curve("bar-gossip-1m", "crash", &[], vec![0.002, 0.005]),
            ],
            // Four scheduled non-bar-gossip substrates under one weather.
            // Scrip jobs run ~50x longer than the rest; twelve of them
            // put the median job inside the scrip-gossip cluster instead
            // of on the gap between two clusters.
            "economy-weather" => {
                let xs = || grid(0.0, 0.5, 6);
                vec![
                    curve("scrip", "lotus-eater", &[], grid(0.0, 0.55, 12)),
                    curve("scrip-gossip", "trade", &[], xs()),
                    curve("bittorrent", "satiate", &[], xs()),
                    curve("token", "random-fraction", &[], xs()),
                ]
            }
            other => unreachable!("workload {other} has no curves"),
        }
    }

    /// The workload's job list for `seed`, with bar-gossip runs using
    /// `run_threads` intra-run threads. Same seed, same jobs.
    pub fn jobs(&self, seed: u64, run_threads: usize) -> Vec<Job> {
        let mut jobs = Vec::new();
        for c in self.curves() {
            for &x in &c.xs {
                let mut params = Params::new();
                for &(k, v) in c.params {
                    params.set(k, v);
                }
                match c.scenario {
                    "bar-gossip" | "bar-gossip-1m" => {}
                    "bar-gossip-digest" => params.set("rounds", "60"),
                    _ => {
                        params.set("churn_profile", WEATHER_CHURN);
                        params.set("faults", WEATHER_FAULTS);
                        params.set("schedule", WEATHER_SCHEDULE);
                    }
                }
                if c.scenario.starts_with("bar-gossip") {
                    params.set("run_threads", run_threads.to_string());
                }
                let j = jobs.len() as u64;
                jobs.push(Job {
                    scenario: c.scenario,
                    attack: c.attack,
                    x,
                    params,
                    seed: split_mix64(seed ^ split_mix64(j)),
                });
            }
        }
        jobs
    }
}
