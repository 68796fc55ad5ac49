//! A minimal round-driven simulation engine.
//!
//! All simulators in the workspace advance in synchronous rounds (the
//! paper's model is round-based, as is BAR Gossip). [`RoundSim`] is the
//! common per-round primitive; `lotus_core::scenario` drives it to a
//! horizon (`step_rounds`, `Scenario::finish`).

use crate::Round;

/// A synchronous round-based simulation.
pub trait RoundSim {
    /// Execute round `t` (starting from 0, strictly increasing).
    fn round(&mut self, t: Round);

    /// Rounds executed so far (i.e. the next round index).
    fn rounds_run(&self) -> Round;
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

    #[test]
    fn clear_counters_zeroes_exactly_the_ranges() {
        let mut slab = vec![7u32; 10];
        clear_counters_for(&mut slab, [1..3, 8..10]);
        assert_eq!(slab, vec![7, 0, 0, 7, 7, 7, 7, 7, 0, 0]);
        clear_counters_for(&mut slab, std::iter::empty::<std::ops::Range<usize>>());
        assert_eq!(slab[0], 7, "no ranges, no writes");
    }
}
