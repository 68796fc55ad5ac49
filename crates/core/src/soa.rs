//! Sharded activity index for struct-of-arrays populations.
//!
//! The million-node engine keeps per-node state in parallel `Vec`s and
//! [`BitSet`]s keyed by node index (struct of
//! arrays), and partitions the index space into fixed-size shards, each
//! carrying a cached popcount of an *activity mask* (typically
//! present ∧ not-crashed ∧ not-evicted, folded from
//! [`Population`](crate::population::Population) membership and
//! [`FaultState`](crate::faults::FaultState) crash bits). Round loops
//! then iterate shards, skip fully-inactive shards with one counter
//! test, and within a shard touch only set bits — so per-step cost
//! scales with *active* nodes, not total population.
//!
//! The iteration order is strictly ascending node index, which is what
//! makes a sharded walk a drop-in replacement for the dense
//! `(0..n).filter(alive)` loops: both visit exactly the set bits in the
//! same order, so every downstream rng draw sequence is unchanged and
//! golden fixtures stay byte-identical.
//!
//! Rebuilding the mask is word-parallel (`O(n/64)`): copy the
//! membership mask in, subtract the crash/eviction masks, and
//! [`commit`](ShardMap::commit) the per-shard counts. At one million
//! nodes that is ~16k word operations per round — noise next to the
//! per-active-node work.

use crate::bitset::BitSet;
use core::ops::Range;

/// Default shard width in node indices.
///
/// A power of two and a multiple of 64, so shards align to whole
/// `BitSet` words. It is also the single-shard cutoff: populations at
/// paper scale (hundreds of nodes) fit in one shard, where callers can
/// keep legacy full-population code paths bit-for-bit intact.
pub const DEFAULT_SHARD_SIZE: usize = 1024;

/// A fixed-width sharding of `0..n` with a per-shard activity popcount.
///
/// ```
/// use lotus_core::bitset::BitSet;
/// use lotus_core::soa::ShardMap;
///
/// let mut mask = BitSet::new(5000);
/// mask.insert(3);
/// mask.insert(4097);
/// let mut shards = ShardMap::new(5000);
/// shards.load(&mask);
/// assert_eq!(shards.active_count(), 2);
/// let mut seen = Vec::new();
/// shards.for_each_active(|i| seen.push(i));
/// assert_eq!(seen, vec![3, 4097]);
/// // Shards 1..=3 (indices 1024..4096) are skipped with one test each.
/// assert!(!shards.is_shard_active(1));
/// ```
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// Shard width in indices; multiple of 64.
    shard_size: usize,
    /// The universe size `n` (indices run `0..n`).
    n: usize,
    /// The activity mask, owned so rebuilds are word-parallel copies.
    active: BitSet,
    /// Cached popcount per shard; a shard with count 0 is skipped.
    counts: Vec<u32>,
    /// Cached total popcount across shards.
    total: usize,
}

impl ShardMap {
    /// A shard map over `0..n` with the default shard size; all
    /// indices start inactive.
    pub fn new(n: usize) -> Self {
        Self::with_shard_size(n, DEFAULT_SHARD_SIZE)
    }

    /// A shard map with an explicit shard size (testing seam).
    ///
    /// # Panics
    ///
    /// Panics unless `shard_size` is a nonzero multiple of 64 (shards
    /// must align to `BitSet` words).
    pub fn with_shard_size(n: usize, shard_size: usize) -> Self {
        assert!(
            shard_size > 0 && shard_size.is_multiple_of(64),
            "shard size must be a nonzero multiple of 64"
        );
        let shards = n.div_ceil(shard_size).max(1);
        ShardMap {
            shard_size,
            n,
            active: BitSet::new(n),
            counts: vec![0; shards],
            total: 0,
        }
    }

    /// The universe size `n`.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Shard width in indices.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Number of shards (`ceil(n / shard_size)`, at least 1).
    pub fn shard_count(&self) -> usize {
        self.counts.len()
    }

    /// The index range shard `s` covers, clamped to the universe.
    pub fn shard_range(&self, s: usize) -> Range<usize> {
        let start = s * self.shard_size;
        start..((start + self.shard_size).min(self.n))
    }

    /// Whether shard `s` has any active index.
    pub fn is_shard_active(&self, s: usize) -> bool {
        self.counts[s] > 0
    }

    /// Active indices in shard `s`.
    pub fn shard_active_count(&self, s: usize) -> u32 {
        self.counts[s]
    }

    /// Total active indices (cached; `O(1)`).
    pub fn active_count(&self) -> usize {
        self.total
    }

    /// Whether index `i` is active.
    pub fn contains(&self, i: usize) -> bool {
        self.active.contains(i)
    }

    /// The activity mask itself.
    pub fn active_mask(&self) -> &BitSet {
        &self.active
    }

    /// Replace the activity mask with `mask` and recompute the shard
    /// counts. Word-parallel: `O(n/64)`.
    // lint: hot-loop
    pub fn load(&mut self, mask: &BitSet) {
        self.active.copy_from(mask);
        self.commit();
    }

    /// Rewrite the activity mask in place with `write`, then recompute
    /// the shard counts. Word-parallel: `O(n/64)` plus what `write`
    /// does.
    // lint: hot-loop
    pub fn rebuild(&mut self, write: impl FnOnce(&mut BitSet)) {
        write(&mut self.active);
        self.commit();
    }

    /// Remove `mask`'s members from the activity mask and recompute
    /// the shard counts. Word-parallel: `O(n/64)`.
    // lint: hot-loop
    pub fn subtract(&mut self, mask: &BitSet) {
        self.active.subtract(mask);
        self.commit();
    }

    /// Deactivate index `i`, maintaining the counts incrementally.
    pub fn deactivate(&mut self, i: usize) {
        if self.active.remove(i) {
            self.counts[i / self.shard_size] -= 1;
            self.total -= 1;
        }
    }

    /// Activate index `i`, maintaining the counts incrementally.
    pub fn activate(&mut self, i: usize) {
        if self.active.insert(i) {
            self.counts[i / self.shard_size] += 1;
            self.total += 1;
        }
    }

    /// Recompute every shard count (and the total) from the mask
    /// words. Word-parallel: `O(n/64)`.
    // lint: hot-loop
    pub fn commit(&mut self) {
        let words = self.active.words();
        let wps = self.shard_size / 64;
        let mut total = 0usize;
        for (s, count) in self.counts.iter_mut().enumerate() {
            let start = (s * wps).min(words.len());
            let end = (start + wps).min(words.len());
            let mut c = 0u32;
            for w in &words[start..end] {
                c += w.count_ones();
            }
            *count = c;
            total += c as usize;
        }
        self.total = total;
    }

    /// Visit every active index in ascending order, skipping inactive
    /// shards with one counter test each. This is the engine's core
    /// primitive: cost is `O(active + shards)`, not `O(n)`.
    // lint: hot-loop
    pub fn for_each_active(&self, f: impl FnMut(usize)) {
        self.for_each_active_in(0..self.shard_count(), f);
    }

    /// Visit the active indices of shards `shards.start..shards.end`
    /// only, in ascending order — the seam that lets a worker pool walk
    /// disjoint shard ranges concurrently while each range's visit
    /// order (and hence any per-range output) stays identical to the
    /// corresponding stretch of a full [`ShardMap::for_each_active`] walk.
    // lint: hot-loop
    pub fn for_each_active_in(&self, shards: Range<usize>, mut f: impl FnMut(usize)) {
        let words = self.active.words();
        let wps = self.shard_size / 64;
        let hi = shards.end.min(self.counts.len());
        for s in shards.start..hi {
            let count = self.counts[s];
            if count == 0 {
                continue;
            }
            let start = (s * wps).min(words.len());
            let end = (start + wps).min(words.len());
            for (wi, &word) in words[start..end].iter().enumerate() {
                let mut w = word;
                let base = (start + wi) * 64;
                while w != 0 {
                    f(base + w.trailing_zeros() as usize);
                    w &= w - 1;
                }
            }
        }
    }

    /// Active indices in the shard range `shards.start..shards.end`
    /// (the sum of their cached popcounts; `O(shards)`). This is the
    /// pre-sizing half of the partitioned-walk seam: a caller can size
    /// per-range output slices exactly before any worker runs.
    pub fn active_count_in(&self, shards: Range<usize>) -> usize {
        let hi = shards.end.min(self.counts.len());
        self.counts[shards.start.min(hi)..hi]
            .iter()
            .map(|&c| c as usize)
            .sum()
    }

    /// Clear `out` and fill it with the active indices in ascending
    /// order — the sharded stand-in for `(0..n).filter(active)` list
    /// builds. Indices are stored as `u32` (node ids are `NodeId(u32)`),
    /// half the footprint of `usize`. Allocation-free once `out` has
    /// capacity.
    // lint: hot-loop
    pub fn collect_active_into(&self, out: &mut Vec<u32>) {
        out.clear();
        self.for_each_active(|i| out.push(i as u32));
    }

    /// Index ranges covering the active shards (adjacent active shards
    /// merged), clamped to the universe — the seam for batched range
    /// operations like zeroing per-node counters.
    pub fn active_ranges(&self) -> ActiveRanges<'_> {
        ActiveRanges { map: self, s: 0 }
    }
}

/// Iterator over merged index ranges of active shards.
///
/// Yielded ranges are disjoint, ascending, and cover exactly the
/// shards with a nonzero activity count.
#[derive(Debug)]
pub struct ActiveRanges<'a> {
    map: &'a ShardMap,
    s: usize,
}

impl Iterator for ActiveRanges<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        while self.s < self.map.shard_count() {
            if self.map.counts[self.s] == 0 {
                self.s += 1;
                continue;
            }
            let first = self.s;
            while self.s < self.map.shard_count() && self.map.counts[self.s] > 0 {
                self.s += 1;
            }
            let start = first * self.map.shard_size;
            let end = (self.s * self.map.shard_size).min(self.map.n);
            return Some(start..end);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_of(n: usize, bits: &[usize]) -> BitSet {
        let mut m = BitSet::new(n);
        for &b in bits {
            m.insert(b);
        }
        m
    }

    #[test]
    fn empty_map_visits_nothing() {
        let shards = ShardMap::new(5000);
        let mut seen = Vec::new();
        shards.for_each_active(|i| seen.push(i));
        assert!(seen.is_empty());
        assert_eq!(shards.active_count(), 0);
        assert_eq!(shards.active_ranges().count(), 0);
    }

    #[test]
    fn zero_universe_is_fine() {
        let mut shards = ShardMap::new(0);
        assert_eq!(shards.shard_count(), 1);
        shards.commit();
        assert_eq!(shards.active_count(), 0);
    }

    #[test]
    fn load_visits_exactly_the_set_bits_in_order() {
        let bits = [0, 63, 64, 1023, 1024, 4095, 4999];
        let mask = mask_of(5000, &bits);
        let mut shards = ShardMap::new(5000);
        shards.load(&mask);
        let mut seen = Vec::new();
        shards.for_each_active(|i| seen.push(i));
        assert_eq!(seen, bits.to_vec());
        assert_eq!(shards.active_count(), bits.len());
        assert!(shards.is_shard_active(0));
        assert!(!shards.is_shard_active(2));
        assert!(shards.contains(1024));
        assert!(!shards.contains(1025));
    }

    #[test]
    fn incremental_updates_match_commit() {
        let mut shards = ShardMap::new(3000);
        shards.activate(10);
        shards.activate(2048);
        shards.activate(2048); // idempotent
        assert_eq!(shards.active_count(), 2);
        shards.deactivate(10);
        shards.deactivate(10); // idempotent
        assert_eq!(shards.active_count(), 1);
        let mut recount = shards.clone();
        recount.commit();
        assert_eq!(recount.active_count(), shards.active_count());
        assert_eq!(recount.shard_active_count(2), shards.shard_active_count(2));
    }

    #[test]
    fn subtract_removes_members() {
        let mut shards = ShardMap::new(2000);
        shards.load(&mask_of(2000, &[5, 700, 1500]));
        shards.subtract(&mask_of(2000, &[700, 1999]));
        let mut seen = Vec::new();
        shards.for_each_active(|i| seen.push(i));
        assert_eq!(seen, vec![5, 1500]);
    }

    #[test]
    fn active_ranges_merge_adjacent_shards_and_clamp() {
        let mut shards = ShardMap::with_shard_size(300, 64);
        shards.load(&mask_of(300, &[0, 70, 299]));
        // Shards 0 and 1 are adjacent-active; shard 4 (256..300) clamps.
        let ranges: Vec<Range<usize>> = shards.active_ranges().collect();
        assert_eq!(ranges, vec![0..128, 256..300]);
    }

    #[test]
    fn ranged_walk_partitions_the_full_walk() {
        let bits = [0, 63, 64, 1023, 1024, 4095, 4999];
        let mut shards = ShardMap::new(5000);
        shards.load(&mask_of(5000, &bits));
        let mut full = Vec::new();
        shards.for_each_active(|i| full.push(i));
        // Any split along shard boundaries concatenates back to the
        // full walk, and the counts pre-size each piece exactly.
        for split in 0..=shards.shard_count() {
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            shards.for_each_active_in(0..split, |i| lo.push(i));
            shards.for_each_active_in(split..shards.shard_count(), |i| hi.push(i));
            assert_eq!(lo.len(), shards.active_count_in(0..split));
            assert_eq!(
                hi.len(),
                shards.active_count_in(split..shards.shard_count())
            );
            lo.extend_from_slice(&hi);
            assert_eq!(lo, full, "split at shard {split}");
        }
        // Out-of-range ends clamp instead of panicking.
        let mut all = Vec::new();
        shards.for_each_active_in(0..usize::MAX, |i| all.push(i));
        assert_eq!(all, full);
        assert_eq!(shards.active_count_in(0..usize::MAX), full.len());
    }

    #[test]
    fn collect_matches_bitset_iter() {
        let mask = mask_of(4097, &[1, 64, 4096]);
        let mut shards = ShardMap::new(4097);
        shards.load(&mask);
        let mut out = Vec::new();
        shards.collect_active_into(&mut out);
        let dense: Vec<u32> = mask.iter().map(|i| i as u32).collect();
        assert_eq!(out, dense);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn misaligned_shard_size_panics() {
        let _ = ShardMap::with_shard_size(100, 100);
    }
}
