//! Scoped worker pool for deterministic *intra-run* parallelism.
//!
//! [`sweep`](crate::sweep) parallelizes across independent `(x, seed)`
//! jobs; this module parallelizes *inside* one run. The unit of work is
//! a contiguous chunk of a pre-sized output slice (in practice: the
//! pair entries of one exchange plan, partitioned along shard
//! boundaries — see `netsim::plan`). Because every chunk's extent is
//! fixed before any worker starts, and chunk `k` always covers the same
//! indices whether it runs on the calling thread or a spawned one, the
//! assembled output is byte-identical for any worker count — the same
//! job-ordered-fold argument `sweep` relies on, with the fold replaced
//! by in-place writes to disjoint subslices.
//!
//! The pool itself is just a thread-count policy wrapped around
//! `std::thread::scope` (zero dependencies, no persistent threads, no
//! channels). A `threads == 1` pool never spawns and never allocates,
//! so steady-state round loops stay allocation-free (the alloc-guard
//! suite pins this); callers gate engagement on a work-size floor so
//! small populations take that path even when more threads are
//! available.

use std::sync::OnceLock;

/// Default intra-run worker count: the `LOTUS_RUN_THREADS` environment
/// variable when set to a positive integer (the CI determinism matrix
/// pins runs to 1 and 8 workers with it), otherwise the machine's
/// parallelism. Results are bit-identical for any worker count; the
/// knob only trades wall-clock for cores. Independent from
/// `LOTUS_SWEEP_THREADS`, which governs the *across-run* sweep pool.
pub fn default_run_threads() -> usize {
    if let Some(n) = std::env::var("LOTUS_RUN_THREADS")
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

/// A scoped worker pool with a fixed thread budget.
///
/// ```
/// use lotus_core::pool::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let mut data = [0u64; 6];
/// // Two chunks: [0..4) and [4..6); chunk k writes k+1 everywhere.
/// pool.run_partitioned(&mut data, &[4, 2], |k, chunk| {
///     for slot in chunk {
///         *slot = k as u64 + 1;
///     }
/// });
/// assert_eq!(data, [1, 1, 1, 1, 2, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPool {
    /// The worker budget; "auto" is resolved on first use, so a run
    /// that never fans out never pays for the parallelism query (a
    /// syscall that costs more than building a small simulator).
    threads: OnceLock<usize>,
}

impl WorkerPool {
    /// A pool with `requested` worker threads; `0` means "auto"
    /// ([`default_run_threads`]).
    pub fn new(requested: usize) -> Self {
        let threads = OnceLock::new();
        if requested != 0 {
            let _ = threads.set(requested);
        }
        WorkerPool { threads }
    }

    /// A pool that never spawns (the sequential, allocation-free path).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The worker budget (at least 1).
    pub fn threads(&self) -> usize {
        *self.threads.get_or_init(default_run_threads)
    }

    /// Split `data` into `sizes.len()` consecutive chunks (chunk `k` is
    /// `sizes[k]` elements long) and run `fill(k, chunk)` on each.
    ///
    /// With one thread or one chunk this degenerates to a plain loop on
    /// the calling thread — no spawn, no allocation. Otherwise each
    /// chunk runs on its own scoped thread (the first chunk on the
    /// calling thread), and the scope joins them all before returning.
    /// Chunk extents depend only on `sizes`, never on the thread
    /// budget, so `data` ends up byte-identical either way.
    ///
    /// # Panics
    ///
    /// Panics when `sizes` does not sum to `data.len()`, and propagates
    /// worker panics.
    // lint: hot-loop
    pub fn run_partitioned<T, F>(&self, data: &mut [T], sizes: &[usize], fill: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let total: usize = sizes.iter().sum();
        assert_eq!(total, data.len(), "chunk sizes must cover the data");
        if sizes.len() <= 1 || self.threads() <= 1 {
            let mut rest = data;
            for (k, &size) in sizes.iter().enumerate() {
                let (chunk, tail) = rest.split_at_mut(size);
                fill(k, chunk);
                rest = tail;
            }
            return;
        }
        std::thread::scope(|scope| {
            let mut rest = data;
            let mut first = None;
            for (k, &size) in sizes.iter().enumerate() {
                let (chunk, tail) = rest.split_at_mut(size);
                rest = tail;
                if k == 0 {
                    first = Some(chunk);
                } else {
                    let fill = &fill;
                    scope.spawn(move || fill(k, chunk));
                }
            }
            if let Some(chunk) = first {
                fill(0, chunk);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_means_auto_and_is_at_least_one() {
        assert!(WorkerPool::new(0).threads() >= 1);
        assert_eq!(WorkerPool::new(3).threads(), 3);
        assert_eq!(WorkerPool::sequential().threads(), 1);
    }

    fn checkered(pool: &WorkerPool, sizes: &[usize]) -> Vec<u64> {
        let n: usize = sizes.iter().sum();
        let mut data = vec![0u64; n];
        pool.run_partitioned(&mut data, sizes, |k, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = (k as u64) << 32 | i as u64;
            }
        });
        data
    }

    #[test]
    fn parallel_matches_sequential_for_any_thread_count() {
        let sizes = [7usize, 0, 13, 1, 64];
        let want = checkered(&WorkerPool::sequential(), &sizes);
        for threads in [2, 3, 8] {
            assert_eq!(
                checkered(&WorkerPool::new(threads), &sizes),
                want,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_work_is_fine() {
        let pool = WorkerPool::new(4);
        let mut data: [u8; 0] = [];
        pool.run_partitioned(&mut data, &[], |_, _| unreachable!());
        pool.run_partitioned(&mut data, &[0, 0], |_, chunk| assert!(chunk.is_empty()));
    }

    #[test]
    #[should_panic(expected = "chunk sizes must cover the data")]
    fn mismatched_sizes_panic() {
        let mut data = [0u8; 3];
        WorkerPool::sequential().run_partitioned(&mut data, &[2], |_, _| {});
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            let mut data = [0u8; 4];
            WorkerPool::new(2).run_partitioned(&mut data, &[2, 2], |k, _| {
                assert_ne!(k, 1, "boom");
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn env_default_parses_positive_integers_only() {
        // Can't set the process env here (other tests run concurrently);
        // just pin that the default is sane.
        assert!(default_run_threads() >= 1);
    }
}
