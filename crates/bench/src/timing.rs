//! Dependency-free wall-clock timing for scenario hot loops.
//!
//! The ROADMAP's north star is a system that "runs as fast as the
//! hardware allows" — which is unfalsifiable without measurement. This
//! module is the measurement: a tiny `std::time::Instant` harness that
//! warms a scenario factory up, then times N full runs and N per-step
//! traces, and reports robust order statistics (min / median / p90 /
//! mean) in nanoseconds. The `lotus-bench --bench` mode drives it through
//! the registry's scenario factories, so the thing being timed is exactly
//! the code path every figure sweep executes.
//!
//! Timings are wall-clock and therefore machine- and load-dependent; the
//! JSON record (see [`BenchRecord::to_json`]) is meant to be captured as
//! `BENCH_<date>.json` next to the code it measured, so successive PRs
//! can quote their perf delta against the previous record *on the same
//! machine* rather than against folklore.

use lotus_core::scenario::DynScenario;
use std::time::Instant;

/// Order statistics over a set of duration samples, in nanoseconds.
///
/// ```
/// use lotus_bench::timing::TimingStats;
/// let stats = TimingStats::from_samples(&mut [30, 10, 20, 40, 50]).unwrap();
/// assert_eq!(stats.min_ns, 10);
/// assert_eq!(stats.median_ns, 30);
/// assert_eq!(stats.mean_ns, 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingStats {
    /// Fastest sample.
    pub min_ns: u64,
    /// Median sample (nearest-rank).
    pub median_ns: u64,
    /// 90th-percentile sample (nearest-rank).
    pub p90_ns: u64,
    /// Arithmetic mean, rounded to the nearest nanosecond.
    pub mean_ns: u64,
    /// Number of samples the statistics summarise.
    pub samples: u64,
}

impl TimingStats {
    /// Summarise `samples` (sorted in place). Returns `None` when empty.
    pub fn from_samples(samples: &mut [u64]) -> Option<TimingStats> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let rank = |q: f64| -> u64 {
            let idx = ((samples.len() - 1) as f64 * q).round() as usize;
            samples[idx.min(samples.len() - 1)]
        };
        let sum: u128 = samples.iter().map(|&s| u128::from(s)).sum();
        Some(TimingStats {
            min_ns: samples[0],
            median_ns: rank(0.5),
            p90_ns: rank(0.9),
            mean_ns: (sum / samples.len() as u128) as u64,
            samples: samples.len() as u64,
        })
    }

    /// Serialize as a JSON object with stable keys
    /// (`min`/`median`/`p90`/`mean`/`samples`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"min\":{},\"median\":{},\"p90\":{},\"mean\":{},\"samples\":{}}}",
            self.min_ns, self.median_ns, self.p90_ns, self.mean_ns, self.samples
        )
    }
}

/// How far above the median a step sample must sit to count as a burst
/// step (see [`StepTimings`]).
pub const BURST_FACTOR: u64 = 8;

/// Per-step statistics with the steady-state/burst split.
///
/// A scenario with a flash crowd (or any other single catastrophic
/// round) has a bimodal step distribution: `bar-gossip-1m` steps in
/// ~1 ms for nine rounds and then pays one million-node engage round of
/// ~1 s, which drags the step *mean* three orders of magnitude away
/// from the step *median*. Summarising that with one set of order
/// statistics buries both modes, so the step trace is split at
/// [`BURST_FACTOR`] × median: `warm` summarises the steady-state
/// rounds, `burst` the outliers (absent when the distribution has no
/// such tail — at least half of all samples always sit at or below the
/// threshold, so `warm` is never empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepTimings {
    /// Statistics over every step sample (the pre-split aggregate).
    pub all: TimingStats,
    /// Statistics over steady-state steps (≤ [`BURST_FACTOR`] × median).
    pub warm: TimingStats,
    /// Statistics over burst steps (> [`BURST_FACTOR`] × median), when
    /// any exist.
    pub burst: Option<TimingStats>,
}

impl StepTimings {
    /// Summarise `samples` (sorted in place) with the warm/burst split.
    /// Returns `None` when empty.
    pub fn from_samples(samples: &mut [u64]) -> Option<StepTimings> {
        let all = TimingStats::from_samples(samples)?;
        // `samples` is sorted now; the split point is the first sample
        // past the burst threshold.
        let threshold = all.median_ns.saturating_mul(BURST_FACTOR);
        let cut = samples.partition_point(|&s| s <= threshold);
        let (warm, burst) = samples.split_at_mut(cut);
        Some(StepTimings {
            all,
            warm: TimingStats::from_samples(warm)
                .expect("the median is always at or below the burst threshold"),
            burst: TimingStats::from_samples(burst),
        })
    }
}

/// The timing record of one benched `(scenario, attack)` pair.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Attack the scenario ran under.
    pub attack: String,
    /// Steps a single run executes (from the step-timing pass).
    pub steps_per_run: u64,
    /// Full-run wall-clock statistics (build excluded, all steps).
    pub run_ns: TimingStats,
    /// Per-step wall-clock statistics (every step of every iteration),
    /// including the warm/burst split.
    pub step_ns: StepTimings,
}

impl BenchRecord {
    /// Serialize as a JSON object with stable keys (`scenario`/`attack`/
    /// `steps_per_run`/`run_ns`/`step_ns`, plus `step_warm_ns` and —
    /// when a burst tail exists — `step_burst_ns`; the perf gate reads
    /// only `run_ns`, so the split keys are additive).
    pub fn to_json(&self) -> String {
        let mut json = format!(
            "{{\"scenario\":{},\"attack\":{},\"steps_per_run\":{},\"run_ns\":{},\"step_ns\":{},\"step_warm_ns\":{}",
            lotus_core::scenario::json_string(&self.scenario),
            lotus_core::scenario::json_string(&self.attack),
            self.steps_per_run,
            self.run_ns.to_json(),
            self.step_ns.all.to_json(),
            self.step_ns.warm.to_json()
        );
        if let Some(burst) = &self.step_ns.burst {
            json.push_str(",\"step_burst_ns\":");
            json.push_str(&burst.to_json());
        }
        json.push('}');
        json
    }
}

/// Time a scenario factory: `warmup` untimed runs, then `iters` timed
/// full runs, then `iters` step-traced runs.
///
/// `build` receives the iteration index (warmup first, then run-timing,
/// then step-timing iterations, numbered consecutively from 0) so callers
/// can rotate replication seeds; building is *outside* the timers, so the
/// statistics isolate the round loops the simulators actually spend their
/// sweeps in.
///
/// Returns `(run_stats, step_stats, steps_per_run)`; the step stats
/// carry the warm/burst split (see [`StepTimings`]).
///
/// # Errors
///
/// Propagates factory errors; rejects `iters == 0`.
pub fn bench_scenario<F>(
    mut build: F,
    warmup: u32,
    iters: u32,
) -> Result<(TimingStats, StepTimings, u64), String>
where
    F: FnMut(u32) -> Result<Box<dyn DynScenario>, String>,
{
    if iters == 0 {
        return Err("bench needs at least one timed iteration".to_string());
    }
    let mut iteration = 0u32;
    let mut next = |build: &mut F| -> Result<Box<dyn DynScenario>, String> {
        let s = build(iteration);
        iteration += 1;
        s
    };
    for _ in 0..warmup {
        next(&mut build)?.finish_dyn();
    }
    let mut run_samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let mut s = next(&mut build)?;
        let t0 = Instant::now();
        while !s.step_dyn().is_done() {}
        run_samples.push(t0.elapsed().as_nanos() as u64);
    }
    let mut step_samples = Vec::new();
    let mut steps_per_run = 0u64;
    for i in 0..iters {
        let mut s = next(&mut build)?;
        let mut steps = 0u64;
        loop {
            let t0 = Instant::now();
            let outcome = s.step_dyn();
            step_samples.push(t0.elapsed().as_nanos() as u64);
            steps += 1;
            if outcome.is_done() {
                break;
            }
        }
        if i == 0 {
            steps_per_run = steps;
        }
    }
    let run = TimingStats::from_samples(&mut run_samples).expect("iters >= 1");
    let step = StepTimings::from_samples(&mut step_samples).expect("iters >= 1");
    Ok((run, step, steps_per_run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_core::scenario::{ScenarioReport, StepOutcome};

    struct Spin {
        left: u32,
    }

    impl DynScenario for Spin {
        fn name(&self) -> &'static str {
            "spin"
        }

        fn step_dyn(&mut self) -> StepOutcome {
            if self.left == 0 {
                return StepOutcome::Done;
            }
            // Burn a little deterministic work so timings are nonzero.
            let mut acc = 0u64;
            for i in 0..500u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            self.left -= 1;
            if self.left == 0 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        }

        fn report_dyn(&self) -> ScenarioReport {
            ScenarioReport::new("spin", 0, 1.0, 1.0, true)
        }
    }

    #[test]
    fn stats_order_statistics() {
        let mut samples: Vec<u64> = (1..=10).collect();
        let stats = TimingStats::from_samples(&mut samples).unwrap();
        assert_eq!(stats.min_ns, 1);
        assert_eq!(stats.median_ns, 6, "nearest-rank median of 1..=10");
        assert_eq!(stats.p90_ns, 9);
        assert_eq!(stats.mean_ns, 5, "55/10 rounded down");
        assert_eq!(stats.samples, 10);
        assert!(TimingStats::from_samples(&mut []).is_none());
    }

    #[test]
    fn stats_json_has_stable_keys() {
        let stats = TimingStats::from_samples(&mut [5]).unwrap();
        assert_eq!(
            stats.to_json(),
            "{\"min\":5,\"median\":5,\"p90\":5,\"mean\":5,\"samples\":1}"
        );
    }

    #[test]
    fn bench_counts_steps_and_times_them() {
        let (run, step, steps) = bench_scenario(|_| Ok(Box::new(Spin { left: 7 })), 1, 3).unwrap();
        assert_eq!(steps, 7, "7 step calls reach Done");
        assert_eq!(run.samples, 3);
        assert_eq!(step.all.samples, 21);
        let burst = step.burst.map_or(0, |b| b.samples);
        assert_eq!(
            step.warm.samples + burst,
            21,
            "the split partitions the trace"
        );
        assert!(run.min_ns > 0, "a 7-step run takes measurable time");
        assert!(run.min_ns >= step.all.min_ns, "a run contains its steps");
    }

    #[test]
    fn step_split_separates_flash_crowd_rounds() {
        // Nine steady ~1ms rounds and one 1s flash-crowd round: the
        // bar-gossip-1m shape that skewed the aggregate mean 100x off
        // the median.
        let mut samples = [vec![1_000_000u64; 9], vec![1_000_000_000]].concat();
        let step = StepTimings::from_samples(&mut samples).unwrap();
        assert_eq!(step.all.samples, 10);
        assert_eq!(step.warm.samples, 9);
        assert_eq!(
            step.warm.mean_ns, 1_000_000,
            "warm mean tracks the steady rounds"
        );
        let burst = step.burst.expect("the flash-crowd round is a burst");
        assert_eq!(burst.samples, 1);
        assert_eq!(burst.min_ns, 1_000_000_000);
        assert!(
            step.all.mean_ns > 100 * step.all.median_ns,
            "the aggregate mean is the skewed statistic the split fixes"
        );
    }

    #[test]
    fn step_split_without_a_tail_has_no_burst() {
        let mut samples: Vec<u64> = (100..110).collect();
        let step = StepTimings::from_samples(&mut samples).unwrap();
        assert_eq!(step.warm, step.all, "uniform traces are all warm");
        assert!(step.burst.is_none());
        assert!(StepTimings::from_samples(&mut []).is_none());
    }

    #[test]
    fn bench_rejects_zero_iters() {
        assert!(bench_scenario(|_| Ok(Box::new(Spin { left: 1 })), 0, 0).is_err());
    }

    #[test]
    fn bench_propagates_factory_errors() {
        let err = bench_scenario(|_| Err("boom".to_string()), 0, 1);
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn record_json_shape() {
        let stats = TimingStats::from_samples(&mut [1, 2, 3]).unwrap();
        let step = StepTimings::from_samples(&mut [1, 2, 3, 100]).unwrap();
        let rec = BenchRecord {
            scenario: "bar-gossip".to_string(),
            attack: "none".to_string(),
            steps_per_run: 12,
            run_ns: stats,
            step_ns: step,
        };
        let j = rec.to_json();
        for key in [
            "\"scenario\":\"bar-gossip\"",
            "\"attack\":\"none\"",
            "\"steps_per_run\":12",
            "\"run_ns\":{\"min\":1",
            "\"step_ns\":{\"min\":1",
            "\"step_warm_ns\":{\"min\":1",
            "\"step_burst_ns\":{\"min\":100",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }

        let no_burst = BenchRecord {
            step_ns: StepTimings {
                burst: None,
                ..step
            },
            ..rec
        };
        assert!(
            !no_burst.to_json().contains("step_burst_ns"),
            "burst key is omitted when there is no tail"
        );
    }
}
