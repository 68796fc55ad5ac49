//! A minimal round-driven simulation engine.
//!
//! All simulators in the workspace advance in synchronous rounds (the
//! paper's model is round-based, as is BAR Gossip). [`RoundSim`] is the
//! common trait; [`run`] and [`run_with`] drive a simulator while keeping
//! the round counter honest in one place.

use crate::Round;

/// A synchronous round-based simulation.
pub trait RoundSim {
    /// Execute round `t` (starting from 0, strictly increasing).
    fn round(&mut self, t: Round);

    /// Rounds executed so far (i.e. the next round index).
    fn rounds_run(&self) -> Round;
}

/// Drive `sim` for `rounds` additional rounds.
pub fn run<S: RoundSim>(sim: &mut S, rounds: Round) {
    let start = sim.rounds_run();
    for t in start..start + rounds {
        sim.round(t);
    }
}

/// Drive `sim` for `rounds` additional rounds, invoking `before` with the
/// simulator and the round index ahead of every round.
///
/// This is the generic seam for per-round environment dynamics that live
/// outside the simulator proper — population churn
/// (`lotus_core::population`), scheduled attack phase flips, fault
/// injection. The hook runs before the round executes, so whatever it
/// mutates is visible to that round.
pub fn run_with<S: RoundSim>(sim: &mut S, rounds: Round, mut before: impl FnMut(&mut S, Round)) {
    let start = sim.rounds_run();
    for t in start..start + rounds {
        before(sim, t);
        sim.round(t);
    }
}

/// Zero per-node round counters over the given index ranges — the
/// batched, shard-aware stand-in for a full-slab `fill(0)` in per-round
/// exchange bookkeeping (served-interaction counters and the like).
///
/// Callers pass the active ranges of their shard map: only slots a
/// responder can actually touch this round need clearing, so the cost
/// is `O(active shards)` instead of `O(population)`. Ranges must lie
/// within the slab; out-of-range indices panic like any slice index.
// lint: hot-loop
pub fn clear_counters_for(
    counters: &mut [u32],
    ranges: impl IntoIterator<Item = core::ops::Range<usize>>,
) {
    for range in ranges {
        for c in &mut counters[range] {
            *c = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        t: Round,
        history: Vec<Round>,
    }

    impl RoundSim for Counter {
        fn round(&mut self, t: Round) {
            assert_eq!(t, self.t, "rounds must be strictly sequential");
            self.history.push(t);
            self.t += 1;
        }
        fn rounds_run(&self) -> Round {
            self.t
        }
    }

    #[test]
    fn clear_counters_zeroes_exactly_the_ranges() {
        let mut slab = vec![7u32; 10];
        clear_counters_for(&mut slab, [1..3, 8..10]);
        assert_eq!(slab, vec![7, 0, 0, 7, 7, 7, 7, 7, 0, 0]);
        clear_counters_for(&mut slab, std::iter::empty::<std::ops::Range<usize>>());
        assert_eq!(slab[0], 7, "no ranges, no writes");
    }

    #[test]
    fn run_advances_sequentially() {
        let mut c = Counter {
            t: 0,
            history: vec![],
        };
        run(&mut c, 5);
        assert_eq!(c.history, vec![0, 1, 2, 3, 4]);
        run(&mut c, 2);
        assert_eq!(c.rounds_run(), 7);
    }

    #[test]
    fn run_with_invokes_hook_before_each_round() {
        let mut c = Counter {
            t: 0,
            history: vec![],
        };
        let mut hooked = Vec::new();
        run_with(&mut c, 4, |sim, t| {
            assert_eq!(sim.rounds_run(), t, "hook sees the pre-round state");
            hooked.push(t);
        });
        assert_eq!(hooked, vec![0, 1, 2, 3]);
        assert_eq!(c.rounds_run(), 4);
    }
}
