//! Parameter sweeps with multi-seed replication.
//!
//! Every figure in the paper is a sweep: "fraction of nodes controlled by
//! the attacker" on the x-axis, a delivered-service metric on the y-axis.
//! [`sweep_fraction`] evaluates a measurement closure over a grid of x
//! values, replicated across seeds, in parallel across OS threads
//! (`std::thread::scope` — no external dependency), and returns a
//! [`Series`] ready for crossover extraction and plotting.
//!
//! The library sweeps are strict: a job that panics on its run and on
//! its retry fails the whole sweep. [`sweep_stats_salvaged`] is the
//! salvaging core for callers that report failures themselves (the
//! `lotus-bench` runner).

use netsim::metrics::{Running, Series};

/// Replication and parallelism settings for a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// Seeds to average over (one simulation per seed per x value).
    pub seeds: Vec<u64>,
    /// Worker threads (1 = sequential).
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seeds: vec![1, 2, 3],
            threads: default_threads(),
        }
    }
}

impl SweepConfig {
    /// `n` consecutive seeds starting at 1, default parallelism.
    pub fn with_seeds(n: usize) -> Self {
        SweepConfig {
            seeds: (1..=n as u64).collect(),
            threads: default_threads(),
        }
    }

    /// Override the worker-thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Default worker count: the `LOTUS_SWEEP_THREADS` environment variable
/// when set to a positive integer (the CI determinism matrix pins sweeps
/// to 1 and 8 workers with it), otherwise the machine's parallelism.
/// Results are bit-identical for any worker count — each `(x, seed)` job
/// is independent and accumulation order per x is the job order.
fn default_threads() -> usize {
    if let Some(n) = std::env::var("LOTUS_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Evaluate `measure(x, seed)` over every `(x, seed)` pair and average the
/// results per x value into a labelled [`Series`].
///
/// `measure` must be pure given its arguments (it runs concurrently on
/// multiple threads). Points are returned in the input x order.
///
/// # Panics
///
/// Panics if a job panics on its retry too, as [`sweep_stats`] does.
///
/// ```
/// use lotus_core::sweep::{sweep_fraction, SweepConfig};
///
/// let cfg = SweepConfig { seeds: vec![1, 2], threads: 2 };
/// let s = sweep_fraction("line", &[0.0, 0.5, 1.0], &cfg, |x, _seed| 1.0 - x);
/// assert_eq!(s.points, vec![(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]);
/// ```
pub fn sweep_fraction<F>(
    label: impl Into<String>,
    xs: &[f64],
    cfg: &SweepConfig,
    measure: F,
) -> Series
where
    F: Fn(f64, u64) -> f64 + Sync,
{
    let stats = sweep_stats(xs, cfg, &measure);
    let mut series = Series::new(label);
    for (&x, stat) in xs.iter().zip(&stats) {
        series.push(x, stat.mean());
    }
    series
}

/// One salvaged job failure from a hardened sweep: the job panicked on
/// its first run *and* on its deterministic retry, so its measurement is
/// missing from the per-x statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    /// Job index in x-major, seed-minor order.
    pub job: usize,
    /// The x value the job was evaluating.
    pub x: f64,
    /// The replication seed the job was running.
    pub seed: u64,
    /// The panic payload, when it was a string (best effort).
    pub message: String,
}

impl std::fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep job {} (x = {}, seed = {}) panicked twice: {}",
            self.job, self.x, self.seed, self.message
        )
    }
}

/// Render a panic payload as a string (panics carry `&str` or `String`
/// payloads in practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one `(x, seed)` job with panic isolation: a panicking job gets
/// exactly one retry (the measurement is required to be pure, so a
/// deterministic panic fails twice and is reported; the retry guards
/// against environmental flakes, not logic bugs).
fn run_job<F>(measure: &F, x: f64, seed: u64) -> Result<f64, String>
where
    F: Fn(f64, u64) -> f64,
{
    let mut attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| measure(x, seed)));
    if attempt.is_err() {
        attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| measure(x, seed)));
    }
    attempt.map_err(|payload| panic_message(payload.as_ref()))
}

/// Like [`sweep_fraction`] but returns the full per-x statistics
/// (mean/min/max/std-dev across seeds) for error reporting.
///
/// A panicking job is retried once (see [`sweep_stats_salvaged`]).
///
/// # Panics
///
/// Panics if any job panics on its retry too, naming the first such job
/// in job order (x, seed and message): a sweep missing a measurement
/// would average fewer seeds at that x without saying so. Use
/// [`sweep_stats_salvaged`] to keep the other jobs' statistics instead.
pub fn sweep_stats<F>(xs: &[f64], cfg: &SweepConfig, measure: &F) -> Vec<Running>
where
    F: Fn(f64, u64) -> f64 + Sync,
{
    let (stats, failures) = sweep_stats_salvaged(xs, cfg, measure);
    if let Some(failure) = failures.first() {
        panic!("{failure}");
    }
    stats
}

/// The salvaging sweep core: evaluate every `(x, seed)` job under panic
/// isolation and return the per-x statistics **plus** the failure notes
/// for jobs that panicked twice (their measurements are simply missing
/// from the statistics — a sweep with one poisoned point still yields
/// every other point).
///
/// Results are **bit-identical for any worker count**: workers record
/// each `(x, seed)` outcome into its job slot and the accumulators are
/// folded sequentially in job order afterwards, so no floating-point
/// summation order depends on scheduling (the CI determinism matrix runs
/// the golden suites under `LOTUS_SWEEP_THREADS=1` and `=8` to pin
/// this). On the panic-free path the fold sees exactly the values the
/// pre-hardening harness saw, so results are unchanged byte for byte.
pub fn sweep_stats_salvaged<F>(
    xs: &[f64],
    cfg: &SweepConfig,
    measure: &F,
) -> (Vec<Running>, Vec<SweepFailure>)
where
    F: Fn(f64, u64) -> f64 + Sync,
{
    let seeds = &cfg.seeds;
    let jobs: Vec<(usize, f64, u64)> = xs
        .iter()
        .enumerate()
        .flat_map(|(i, &x)| seeds.iter().map(move |&s| (i, x, s)))
        .collect();
    let threads = cfg.threads.max(1).min(jobs.len().max(1));

    let mut outcomes: Vec<Option<Result<f64, String>>> = vec![None; jobs.len()];
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let j = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&(_, x, seed)) = jobs.get(j) else {
                            break;
                        };
                        local.push((j, run_job(measure, x, seed)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (j, outcome) in handle.join().expect("sweep worker panicked") {
                outcomes[j] = Some(outcome);
            }
        }
    });

    let mut stats = vec![Running::new(); xs.len()];
    let mut failures = Vec::new();
    for (j, (&(i, x, seed), outcome)) in jobs.iter().zip(&outcomes).enumerate() {
        match outcome.as_ref().expect("every job ran") {
            Ok(y) => stats[i].push(*y),
            Err(message) => failures.push(SweepFailure {
                job: j,
                x,
                seed,
                message: message.clone(),
            }),
        }
    }
    (stats, failures)
}

/// An evenly spaced grid of `points` values covering `[lo, hi]` inclusive.
///
/// # Panics
///
/// Panics if `points < 2` or `lo > hi`.
pub fn grid(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2, "a grid needs at least two points");
    assert!(lo <= hi, "grid bounds out of order");
    (0..points)
        .map(|i| lo + (hi - lo) * i as f64 / (points - 1) as f64)
        .collect()
}

/// Refine the crossover of a (monotone-decreasing in expectation) metric
/// with `threshold` by bisection, averaging `measure` over the sweep seeds
/// at each probe.
///
/// Returns the midpoint of the final bracket after `iters` bisections, or
/// `None` if the metric does not bracket the threshold on `[lo, hi]`.
///
/// # Panics
///
/// Panics if a probe's job panics on its retry too, as [`sweep_stats`]
/// does.
pub fn refine_crossover<F>(
    lo: f64,
    hi: f64,
    threshold: f64,
    iters: u32,
    cfg: &SweepConfig,
    measure: F,
) -> Option<f64>
where
    F: Fn(f64, u64) -> f64 + Sync,
{
    let eval = |x: f64| -> f64 {
        let stats = sweep_stats(&[x], cfg, &measure);
        stats[0].mean()
    };
    let (mut lo, mut hi) = (lo, hi);
    let (y_lo, y_hi) = (eval(lo), eval(hi));
    if y_lo < threshold || y_hi >= threshold {
        return None;
    }
    for _ in 0..iters {
        let mid = (lo + hi) / 2.0;
        if eval(mid) >= threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some((lo + hi) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_inclusive_and_even() {
        let g = grid(0.0, 1.0, 5);
        assert_eq!(g, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn grid_needs_two_points() {
        grid(0.0, 1.0, 1);
    }

    #[test]
    fn sweep_averages_over_seeds() {
        let cfg = SweepConfig {
            seeds: vec![0, 10],
            threads: 2,
        };
        // measure = x + seed/10 → mean = x + 0.5
        let s = sweep_fraction("avg", &[0.0, 1.0], &cfg, |x, seed| x + seed as f64 / 20.0);
        assert_eq!(s.points.len(), 2);
        assert!((s.points[0].1 - 0.25).abs() < 1e-12);
        assert!((s.points[1].1 - 1.25).abs() < 1e-12);
    }

    #[test]
    fn sweep_preserves_x_order() {
        let cfg = SweepConfig {
            seeds: vec![1],
            threads: 4,
        };
        let xs = [0.9, 0.1, 0.5];
        let s = sweep_fraction("order", &xs, &cfg, |x, _| x);
        let got: Vec<f64> = s.points.iter().map(|p| p.0).collect();
        assert_eq!(got, xs.to_vec());
    }

    #[test]
    fn sweep_parallel_is_bit_identical_to_sequential() {
        let xs = grid(0.0, 1.0, 7);
        let f = |x: f64, seed: u64| (x * 10.0 + seed as f64).sin();
        let seq = sweep_fraction(
            "s",
            &xs,
            &SweepConfig {
                seeds: vec![1, 2, 3],
                threads: 1,
            },
            f,
        );
        for threads in [2, 8, 32] {
            let par = sweep_fraction(
                "p",
                &xs,
                &SweepConfig {
                    seeds: vec![1, 2, 3],
                    threads,
                },
                f,
            );
            for (a, b) in seq.points.iter().zip(&par.points) {
                assert_eq!(
                    a.1.to_bits(),
                    b.1.to_bits(),
                    "worker count must not change results ({threads} threads)"
                );
            }
        }
    }

    #[test]
    fn sweep_stats_exposes_spread() {
        let cfg = SweepConfig {
            seeds: vec![0, 2],
            threads: 1,
        };
        let stats = sweep_stats(&[1.0], &cfg, &|_, seed| seed as f64);
        assert_eq!(stats[0].len(), 2);
        assert_eq!(stats[0].min(), 0.0);
        assert_eq!(stats[0].max(), 2.0);
        assert_eq!(stats[0].mean(), 1.0);
    }

    #[test]
    fn panicking_job_is_salvaged_not_fatal() {
        let cfg = SweepConfig {
            seeds: vec![1, 2, 3],
            threads: 2,
        };
        // The job at (x = 0.5, seed = 2) always panics; everything else
        // must come through untouched.
        let (stats, failures) = sweep_stats_salvaged(&[0.0, 0.5, 1.0], &cfg, &|x, seed| {
            assert!(!(x == 0.5 && seed == 2), "poisoned job");
            x + seed as f64
        });
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].job, 4); // x-major, seed-minor: 3 + 1
        assert_eq!(failures[0].x, 0.5);
        assert_eq!(failures[0].seed, 2);
        assert!(failures[0].message.contains("poisoned job"));
        assert!(format!("{}", failures[0]).contains("seed = 2"));
        // Clean x values keep all three seeds; the poisoned x keeps two.
        assert_eq!(stats[0].len(), 3);
        assert_eq!(stats[1].len(), 2);
        assert_eq!(stats[2].len(), 3);
        assert_eq!(stats[1].mean(), 0.5 + 2.0); // seeds 1 and 3 average to 2
    }

    #[test]
    #[should_panic(expected = "sweep job 4 (x = 0.5, seed = 2) panicked twice: poisoned job")]
    fn strict_sweep_panics_with_the_first_failed_job() {
        let cfg = SweepConfig {
            seeds: vec![1, 2, 3],
            threads: 2,
        };
        // Jobs 4 (x = 0.5) and 7 (x = 1.0) always panic; the sweep names
        // the first in job order.
        sweep_fraction("strict", &[0.0, 0.5, 1.0], &cfg, |x, seed| {
            assert!(!(x >= 0.5 && seed == 2), "poisoned job");
            x + seed as f64
        });
    }

    #[test]
    fn flaky_job_succeeds_on_the_single_retry() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cfg = SweepConfig {
            seeds: vec![7],
            threads: 1,
        };
        let calls = AtomicUsize::new(0);
        let (stats, failures) = sweep_stats_salvaged(&[1.0], &cfg, &|x, _| {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient flake");
            }
            x * 2.0
        });
        assert!(failures.is_empty(), "retry should have absorbed the flake");
        assert_eq!(stats[0].len(), 1);
        assert_eq!(stats[0].mean(), 2.0);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn refine_crossover_finds_linear_root() {
        let cfg = SweepConfig {
            seeds: vec![1],
            threads: 1,
        };
        // y = 1 - x crosses 0.93 at x = 0.07.
        let x = refine_crossover(0.0, 1.0, 0.93, 20, &cfg, |x, _| 1.0 - x).unwrap();
        assert!((x - 0.07).abs() < 1e-4, "got {x}");
    }

    #[test]
    fn refine_crossover_unbracketed_is_none() {
        let cfg = SweepConfig {
            seeds: vec![1],
            threads: 1,
        };
        assert!(refine_crossover(0.0, 1.0, 0.93, 5, &cfg, |_, _| 1.0).is_none());
        assert!(refine_crossover(0.0, 1.0, 0.93, 5, &cfg, |_, _| 0.0).is_none());
    }

    #[test]
    fn with_seeds_and_threads_builders() {
        let cfg = SweepConfig::with_seeds(5).threads(0);
        assert_eq!(cfg.seeds, vec![1, 2, 3, 4, 5]);
        assert_eq!(cfg.threads, 1, "threads clamps to >= 1");
        assert!(SweepConfig::default().threads >= 1);
    }
}
