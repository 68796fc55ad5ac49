//! A dynamic bitset over `u64` words.
//!
//! Token sets (§3 model), live-update windows (BAR Gossip) and piece maps
//! (BitTorrent) are all dense sets of small integers; this bitset is the
//! shared representation. Set algebra (union, difference, intersection
//! counts) is word-parallel, which keeps full parameter sweeps fast enough
//! to run hundreds of simulations per figure.

/// The lowest `n` set bits of `word` (all of them when it has no more):
/// the word-level "first `n` in order" that cuts a packed want mask at
/// its limit.
///
/// ```
/// use lotus_core::bitset::lowest_ones;
/// assert_eq!(lowest_ones(0b1011_0100, 2), 0b0001_0100);
/// assert_eq!(lowest_ones(0b1011_0100, 9), 0b1011_0100);
/// assert_eq!(lowest_ones(0b1011_0100, 0), 0);
/// ```
#[inline]
pub fn lowest_ones(word: u64, n: usize) -> u64 {
    if n >= word.count_ones() as usize {
        return word;
    }
    let mut rest = word;
    for _ in 0..n {
        rest &= rest - 1;
    }
    word ^ rest
}

/// A fixed-universe dynamic bitset.
///
/// The universe size is fixed at construction; all operations between two
/// sets require equal universe sizes.
///
/// ```
/// use lotus_core::bitset::BitSet;
/// let mut a = BitSet::new(10);
/// a.insert(3);
/// a.insert(7);
/// assert_eq!(a.len(), 2);
/// assert!(a.contains(3));
/// assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    universe: usize,
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitSet")
            .field("universe", &self.universe)
            .field("len", &self.len())
            .field("items", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

impl BitSet {
    /// An empty set over the universe `0..universe`.
    pub fn new(universe: usize) -> Self {
        BitSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// The full set over `0..universe`.
    pub fn full(universe: usize) -> Self {
        let mut s = BitSet::new(universe);
        for w in s.words.iter_mut() {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Build from an iterator of elements.
    ///
    /// # Panics
    ///
    /// Panics if an element is `>= universe`.
    pub fn from_iter_with(universe: usize, items: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(universe);
        for i in items {
            s.insert(i);
        }
        s
    }

    /// A uniform sample of `k` distinct members of `0..universe`, as a
    /// set. It draws from `rng` exactly what
    /// [`DetRng::sample_indices`](netsim::rng::DetRng::sample_indices)
    /// draws, its order shuffle included, and selects the same members,
    /// but costs `O(k + universe/64)` and holds no index list (Floyd's
    /// algorithm there tests membership with a linear scan).
    ///
    /// ```
    /// use lotus_core::bitset::BitSet;
    /// use netsim::rng::DetRng;
    ///
    /// let (mut a, mut b) = (DetRng::seed_from(3), DetRng::seed_from(3));
    /// let set = BitSet::sample(50, 10, &mut a);
    /// assert_eq!(set, BitSet::from_iter_with(50, b.sample_indices(50, 10)));
    /// assert_eq!(a.next_u64(), b.next_u64(), "same draws");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `k > universe`.
    pub fn sample(universe: usize, k: usize, rng: &mut netsim::rng::DetRng) -> Self {
        assert!(
            k <= universe,
            "cannot sample {k} items from a universe of {universe}"
        );
        let mut s = BitSet::new(universe);
        s.floyd(universe, k, rng, |_| {});
        s
    }

    /// [`BitSet::sample`] of `k` members of `0..n` into a reused set:
    /// `self` must hold no member below `n` on entry, and on return holds
    /// the sample, whose members `picks` lists (cleared first) in draw
    /// order. The same draws and members as [`BitSet::sample`] in
    /// `O(k)`: a caller that needs the set only briefly removes each pick
    /// afterwards, which leaves `self` ready for the next draw without a
    /// pass over its words, and with `picks` reserved to `k` it
    /// allocates nothing.
    ///
    /// ```
    /// use lotus_core::bitset::BitSet;
    /// use netsim::rng::DetRng;
    ///
    /// let (mut a, mut b) = (DetRng::seed_from(3), DetRng::seed_from(3));
    /// let (mut seen, mut picks) = (BitSet::new(50), Vec::new());
    /// seen.sample_into(50, 10, &mut a, &mut picks);
    /// assert_eq!(seen, BitSet::sample(50, 10, &mut b));
    /// assert_eq!(seen, BitSet::from_iter_with(50, picks.iter().copied()));
    /// assert_eq!(a.next_u64(), b.next_u64(), "same draws");
    /// for &i in &picks {
    ///     seen.remove(i);
    /// }
    /// assert!(seen.is_empty(), "ready for the next draw");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `k > n` or a pick lies outside the universe.
    pub fn sample_into(
        &mut self,
        n: usize,
        k: usize,
        rng: &mut netsim::rng::DetRng,
        picks: &mut Vec<usize>,
    ) {
        assert!(k <= n, "cannot sample {k} items from a universe of {n}");
        picks.clear();
        self.floyd(n, k, rng, |i| picks.push(i));
    }

    /// Floyd's algorithm over `0..n` with `self` as its membership test,
    /// handing each pick to `pick`, then the draws of the order shuffle
    /// [`DetRng::sample_indices`](netsim::rng::DetRng::sample_indices)
    /// makes (a shuffle's draws depend only on the length).
    // lint: hot-loop
    fn floyd(
        &mut self,
        n: usize,
        k: usize,
        rng: &mut netsim::rng::DetRng,
        mut pick: impl FnMut(usize),
    ) {
        for j in (n - k)..n {
            let t = rng.index(j + 1);
            // Every earlier pick is below j, so j itself is free.
            let i = if self.insert(t) {
                t
            } else {
                self.insert(j);
                j
            };
            pick(i);
        }
        for i in (1..k).rev() {
            rng.index(i + 1);
        }
    }

    fn trim(&mut self) {
        if let Some(last) = self.words.len().checked_sub(1) {
            self.words[last] &= self.word_span(last);
        }
    }

    /// Universe size (maximum element + 1 allowed).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` if the set contains every universe element.
    pub fn is_full(&self) -> bool {
        self.len() == self.universe
    }

    /// Insert `i`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.universe,
            "element {i} outside universe {}",
            self.universe
        );
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Remove `i`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe`.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(
            i < self.universe,
            "element {i} outside universe {}",
            self.universe
        );
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(
            i < self.universe,
            "element {i} outside universe {}",
            self.universe
        );
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    fn check_compat(&self, other: &BitSet) {
        assert_eq!(
            self.universe, other.universe,
            "bitset universes differ ({} vs {})",
            self.universe, other.universe
        );
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        self.check_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.check_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self \= other`.
    pub fn subtract(&mut self, other: &BitSet) {
        self.check_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `|self ∩ other|` without allocating.
    #[inline]
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.check_compat(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `|self \ other|` without allocating.
    pub fn difference_count(&self, other: &BitSet) -> usize {
        self.check_compat(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// The backing words in index order (bit `i` lives at
    /// `words()[i / 64] & (1 << (i % 64))`). Read-only seam for
    /// word-parallel consumers — the sharded activity index
    /// ([`crate::soa::ShardMap`]) popcounts per-shard word slices
    /// through this. Bits at or above the universe are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrite backing word `w` (elements `64·w .. 64·w + 64`) — the
    /// write half of [`BitSet::words`], for consumers that compute a set
    /// 64 elements at a time. Bits at or above the universe are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a word of the set.
    #[inline]
    pub fn set_word(&mut self, w: usize, bits: u64) {
        self.words[w] = bits & self.word_span(w);
    }

    /// The in-universe bits of word `w`: all ones except in a partial
    /// last word.
    #[inline]
    pub(crate) fn word_span(&self, w: usize) -> u64 {
        let below = self.universe - w * 64;
        if below >= 64 {
            u64::MAX
        } else {
            (1 << below) - 1
        }
    }

    /// `true` if `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.check_compat(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterate over elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Elements of `self \ other` in increasing order, up to `limit`.
    ///
    /// The exchange protocols use this to pick "which updates to hand over"
    /// deterministically (lowest id = oldest release first).
    pub fn difference_first_n(&self, other: &BitSet, limit: usize) -> Vec<usize> {
        self.check_compat(other);
        let mut out = Vec::with_capacity(limit.min(16));
        'outer: for (wi, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut w = a & !b;
            while w != 0 {
                if out.len() == limit {
                    break 'outer;
                }
                let bit = w.trailing_zeros() as usize;
                out.push(wi * 64 + bit);
                w &= w - 1;
            }
        }
        out
    }

    /// Remove all elements.
    ///
    /// Together with [`BitSet::copy_from`] this is the scratch-buffer
    /// idiom the simulators' hot loops rely on: one set owned by the sim
    /// struct, cleared or overwritten per round, never reallocated.
    #[inline]
    pub fn clear(&mut self) {
        for w in self.words.iter_mut() {
            *w = 0;
        }
    }

    /// Overwrite `self` with the contents of `other` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[inline]
    pub fn copy_from(&mut self, other: &BitSet) {
        self.check_compat(other);
        self.words.copy_from_slice(&other.words);
    }

    /// Insert every universe element in place — the allocation-free
    /// counterpart of [`BitSet::full`], used where a hot loop would
    /// otherwise construct a fresh full set (e.g. satiating a node).
    #[inline]
    pub fn fill(&mut self) {
        for w in self.words.iter_mut() {
            *w = u64::MAX;
        }
        self.trim();
    }
}

/// Iterator over the elements of a [`BitSet`], produced by [`BitSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_selects_and_draws_what_sample_indices_does() {
        for (universe, k) in [(0, 0), (1, 1), (10, 0), (10, 10), (100, 7), (1000, 700)] {
            for seed in 0..4u64 {
                let mut a = netsim::rng::DetRng::seed_from(seed);
                let mut b = a.clone();
                let set = BitSet::sample(universe, k, &mut a);
                let list = b.sample_indices(universe, k);
                assert_eq!(set, BitSet::from_iter_with(universe, list));
                assert_eq!(set.len(), k);
                assert_eq!(a.next_u64(), b.next_u64(), "streams stay aligned");
            }
        }
    }

    #[test]
    fn sample_into_reused_scratch_draws_what_sample_indices_does() {
        crate::proptest_lite::check("bitset::sample_into_matches_sample_indices", 200, |d| {
            let universe = d.int("universe", 0, 300) as usize;
            let mut seen = BitSet::new(universe);
            let mut picks = Vec::new();
            let mut a = d.rng("draws");
            let mut b = a.clone();
            // Several draws through one scratch set, each over a prefix.
            for _ in 0..d.int("draws", 1, 4) {
                let n = d.int("n", 0, universe as i64) as usize;
                let k = match d.int("edge", 0, 3) {
                    0 => 0,
                    1 => n,
                    _ => d.int("k", 0, n as i64) as usize,
                };
                seen.sample_into(n, k, &mut a, &mut picks);
                let list = b.sample_indices(n, k);
                if seen != BitSet::from_iter_with(universe, list.iter().copied()) {
                    return Err(format!("({n}, {k}): the set differs from sample_indices"));
                }
                if picks.len() != k
                    || BitSet::from_iter_with(universe, picks.iter().copied()) != seen
                {
                    return Err(format!("({n}, {k}): picks {picks:?} are not the set"));
                }
                if a.next_u64() != b.next_u64() {
                    return Err(format!("({n}, {k}): the streams diverge"));
                }
                for &i in &picks {
                    seen.remove(i);
                }
            }
            Ok(())
        });
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(100);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(!s.contains(5));
    }

    #[test]
    fn word_boundaries() {
        let mut s = BitSet::new(130);
        for i in [0, 63, 64, 127, 128, 129] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 129]);
        assert_eq!(s.len(), 6);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    #[should_panic(expected = "universes differ")]
    fn mismatched_universe_panics() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(11);
        a.union_with(&b);
    }

    #[test]
    fn full_is_trimmed() {
        let s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.is_full());
        assert!(s.contains(69));
        let e = BitSet::full(0);
        assert!(e.is_empty());
        assert!(e.is_full()); // vacuously: 0 of 0
    }

    #[test]
    fn fill_matches_full_across_word_boundaries() {
        for n in [0, 1, 63, 64, 65, 70, 128, 129] {
            let mut s = BitSet::new(n);
            if n > 0 {
                s.insert(n / 2); // fill must absorb prior contents
            }
            s.fill();
            assert_eq!(s, BitSet::full(n), "universe {n}");
            assert!(s.is_full(), "universe {n}");
            assert_eq!(s.len(), n, "universe {n}");
        }
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter_with(20, [1, 3, 5, 7]);
        let b = BitSet::from_iter_with(20, [3, 4, 5, 6]);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5, 6, 7]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3, 5]);

        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 7]);

        assert_eq!(a.intersection_count(&b), 2);
        assert_eq!(a.difference_count(&b), 2);
        assert!(i.is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn difference_first_n_is_sorted_and_limited() {
        let a = BitSet::from_iter_with(200, [10, 70, 130, 190]);
        let b = BitSet::from_iter_with(200, [70]);
        assert_eq!(a.difference_first_n(&b, 2), vec![10, 130]);
        assert_eq!(a.difference_first_n(&b, 10), vec![10, 130, 190]);
        assert_eq!(a.difference_first_n(&b, 0), Vec::<usize>::new());
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::from_iter_with(10, [1, 2]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.universe(), 10);
    }

    #[test]
    fn clear_and_copy_from_at_word_boundaries() {
        // Universes straddling a word boundary: 63 (one partial word),
        // 64 (exactly one word), 65 (one word + one bit).
        for universe in [63usize, 64, 65] {
            let top = universe - 1;
            let src = BitSet::from_iter_with(universe, [0, top / 2, top]);
            let mut dst = BitSet::full(universe);
            dst.copy_from(&src);
            assert_eq!(dst, src, "universe {universe}: copy_from overwrites");
            assert_eq!(dst.iter().collect::<Vec<_>>(), vec![0, top / 2, top]);
            dst.clear();
            assert!(dst.is_empty(), "universe {universe}: clear empties");
            assert_eq!(dst.universe(), universe);
            // A cleared set is reusable as a scratch buffer.
            assert!(dst.insert(top));
            assert!(dst.contains(top));
            assert!(dst.remove(top));
            assert_eq!(dst.intersection_count(&src), 0);
        }
    }

    #[test]
    #[should_panic(expected = "universes differ")]
    fn copy_from_mismatched_universe_panics() {
        let mut a = BitSet::new(64);
        let b = BitSet::new(65);
        a.copy_from(&b);
    }

    #[test]
    fn debug_shows_items() {
        let s = BitSet::from_iter_with(10, [2, 4]);
        let d = format!("{s:?}");
        assert!(d.contains("[2, 4]"), "debug was {d}");
    }
}

#[cfg(all(test, feature = "proptest-tests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const UNIVERSE: usize = 257; // deliberately not a multiple of 64

    fn model_pair(items: &[usize]) -> (BitSet, BTreeSet<usize>) {
        let set = BitSet::from_iter_with(UNIVERSE, items.iter().map(|&i| i % UNIVERSE));
        let model: BTreeSet<usize> = items.iter().map(|&i| i % UNIVERSE).collect();
        (set, model)
    }

    proptest! {
        #[test]
        fn matches_btreeset_iteration(items in proptest::collection::vec(0usize..UNIVERSE, 0..100)) {
            let (set, model) = model_pair(&items);
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(set.len(), model.len());
        }

        #[test]
        fn union_matches_model(a in proptest::collection::vec(0usize..UNIVERSE, 0..80),
                               b in proptest::collection::vec(0usize..UNIVERSE, 0..80)) {
            let (mut sa, ma) = model_pair(&a);
            let (sb, mb) = model_pair(&b);
            sa.union_with(&sb);
            let mu: BTreeSet<usize> = ma.union(&mb).copied().collect();
            prop_assert_eq!(sa.iter().collect::<BTreeSet<_>>(), mu);
        }

        #[test]
        fn subtract_matches_model(a in proptest::collection::vec(0usize..UNIVERSE, 0..80),
                                  b in proptest::collection::vec(0usize..UNIVERSE, 0..80)) {
            let (mut sa, ma) = model_pair(&a);
            let (sb, mb) = model_pair(&b);
            sa.subtract(&sb);
            let md: BTreeSet<usize> = ma.difference(&mb).copied().collect();
            prop_assert_eq!(sa.iter().collect::<BTreeSet<_>>(), md);
        }

        #[test]
        fn counts_match_model(a in proptest::collection::vec(0usize..UNIVERSE, 0..80),
                              b in proptest::collection::vec(0usize..UNIVERSE, 0..80)) {
            let (sa, ma) = model_pair(&a);
            let (sb, mb) = model_pair(&b);
            prop_assert_eq!(sa.intersection_count(&sb), ma.intersection(&mb).count());
            prop_assert_eq!(sa.difference_count(&sb), ma.difference(&mb).count());
            prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
        }

        #[test]
        fn difference_first_n_prefix(a in proptest::collection::vec(0usize..UNIVERSE, 0..80),
                                     b in proptest::collection::vec(0usize..UNIVERSE, 0..80),
                                     limit in 0usize..20) {
            let (sa, ma) = model_pair(&a);
            let (sb, mb) = model_pair(&b);
            let expected: Vec<usize> = ma.difference(&mb).take(limit).copied().collect();
            prop_assert_eq!(sa.difference_first_n(&sb, limit), expected);
        }

        #[test]
        fn insert_then_remove_roundtrip(items in proptest::collection::vec(0usize..UNIVERSE, 0..50)) {
            let mut s = BitSet::new(UNIVERSE);
            for &i in &items { s.insert(i); }
            for &i in &items { s.remove(i); }
            prop_assert!(s.is_empty());
        }
    }
}
