//! Digest-exchange primitives: the summaries a digest-first gossip
//! round trades before transferring only the diff.
//!
//! Full-window exchange ships every update a peer holds, so a
//! lotus-eater's silent withholding is visible the moment a transfer
//! round comes up short. The realistic protocol shape at scale is
//! *advertise-then-transfer*: peers first swap a cheap summary of what
//! they hold, then request and ship only the difference. Bandwidth
//! scales with the diff — and withholding becomes undetectable until
//! the transfer leg, which is exactly the surface the
//! advertise-then-withhold (`poison`) attack exploits: advertise a
//! truthful digest, then selectively fail to deliver what was asked.
//!
//! Two summary shapes are provided:
//!
//! * [`BloomDigest`] — a fixed-size bloom filter over packed update
//!   ids. Probabilistic: never a false negative, false positives at a
//!   rate set by the bits/hashes/load trade-off
//!   ([`BloomDigest::expected_fp_rate`]). False positives read as
//!   *advertised-but-undelivered* on the wire, which is what gives a
//!   low-rate poisoner plausible deniability. [`BloomIndex`] answers
//!   the same membership questions for a filter built from a packed
//!   window row without building it: one index per round serves every
//!   advertisement of that round.
//! * [`region_hash`] — an exact order-free hash of one region's
//!   membership mask. Peers compare per-region hashes and exchange the
//!   raw masks only for regions that differ: zero false positives, so
//!   an audit of undelivered ids has perfect precision.
//!
//! Hashing is deterministic splitmix ([`netsim::rng::split_mix64`])
//! with fixed internal seeds — the same ids produce the same digest on
//! every machine and thread count, which the determinism gate relies
//! on. Probe, insert and the index rebuild are allocation-free; the
//! only allocations are the buffers sized at construction.

use crate::bitset::lowest_ones;
use netsim::rng::split_mix64;
use netsim::Round;

/// Domain-separation seed for the first bloom probe stream.
const BLOOM_SEED_A: u64 = 0x6c6f_7475_735f_6469; // "lotus_di"
/// Domain-separation seed for the second bloom probe stream.
const BLOOM_SEED_B: u64 = 0x6765_7374_5f62_6c6f; // "gest_blo"
/// Domain-separation seed for [`region_hash`].
const REGION_SEED: u64 = 0x7265_6769_6f6e_5f68; // "region_h"

/// Pack an update id into the digest key space: `round * 64 + slot`
/// (slots are capped at 64 per round, so the packing is injective).
#[inline]
pub fn pack_id(round: Round, slot: u32) -> u64 {
    (round << 6) | u64::from(slot)
}

/// The `hashes` probe positions of `key` in a `bits`-wide filter.
///
/// Double hashing (Kirsch–Mitzenmacher): two splitmix streams `h1`,
/// `h2 | 1` give the positions `h1 + i·h2 mod bits`, so a key costs two
/// mixes regardless of `hashes`. [`BloomDigest::insert`],
/// [`BloomDigest::contains`] and [`BloomIndex::rebuild`] all probe
/// through here, so a filter and its index cannot disagree.
#[inline]
fn probe_positions(key: u64, bits: u32, hashes: u32) -> impl Iterator<Item = usize> {
    let h1 = split_mix64(key ^ BLOOM_SEED_A);
    let h2 = split_mix64(key ^ BLOOM_SEED_B) | 1;
    (0..u64::from(hashes))
        .map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % u64::from(bits)) as usize)
}

/// On-wire size of a `bits`-wide filter, in bytes.
#[inline]
fn filter_bytes(bits: u32) -> u64 {
    u64::from(bits).div_ceil(8)
}

/// A fixed-size bloom filter over packed `u64` update ids.
///
/// Each key sets or tests `hashes` double-hashed positions (two mixes
/// per key regardless of `hashes`). Membership never false-negatives;
/// [`BloomDigest::expected_fp_rate`] estimates the false-positive rate
/// from the realized fill ratio.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomDigest {
    words: Vec<u64>,
    bits: u32,
    hashes: u32,
    inserted: u32,
}

impl BloomDigest {
    /// An empty digest of `bits` filter bits probed `hashes` times per
    /// key.
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `hashes` is zero (configs are validated
    /// upstream; this is the last line of defense).
    pub fn new(bits: u32, hashes: u32) -> Self {
        assert!(bits > 0, "bloom digest wants at least one bit");
        assert!(hashes > 0, "bloom digest wants at least one hash");
        BloomDigest {
            words: vec![0; (bits as usize).div_ceil(64)],
            bits,
            hashes,
            inserted: 0,
        }
    }

    /// Filter width in bits (the `digest_bits` knob).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Probes per key (the `digest_hashes` knob).
    pub fn hashes(&self) -> u32 {
        self.hashes
    }

    /// Keys inserted since the last [`BloomDigest::clear`].
    pub fn inserted(&self) -> u32 {
        self.inserted
    }

    /// Size of this digest on the wire, in bytes.
    pub fn size_bytes(&self) -> u64 {
        filter_bytes(self.bits)
    }

    /// Reset to empty without releasing the word storage.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.inserted = 0;
    }

    /// Insert a packed update id.
    // lint: hot-loop
    #[inline]
    pub fn insert(&mut self, key: u64) {
        for bit in probe_positions(key, self.bits, self.hashes) {
            self.words[bit / 64] |= 1u64 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Whether `key` may be in the set. `true` for every inserted key
    /// (no false negatives); spuriously `true` for an absent key at the
    /// false-positive rate.
    // lint: hot-loop
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        probe_positions(key, self.bits, self.hashes)
            .all(|bit| self.words[bit / 64] & (1u64 << (bit % 64)) != 0)
    }

    /// Fraction of filter bits currently set.
    pub fn fill_ratio(&self) -> f64 {
        // Tail bits beyond `bits` in the last word are never set, so a
        // straight popcount over the words is exact.
        let set: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        f64::from(set) / f64::from(self.bits)
    }

    /// Expected false-positive rate at the current fill: a probe of an
    /// absent key hits `hashes` independent set bits with probability
    /// `fill_ratio ^ hashes`.
    pub fn expected_fp_rate(&self) -> f64 {
        self.fill_ratio().powi(self.hashes as i32)
    }
}

/// The answers of a [`BloomDigest`] built from a packed window row,
/// without building the filter.
///
/// A digest-first gossip round advertises one filter per exchange leg,
/// each over the sender's holdings in the same live window: release
/// rounds `first..=last`, slots `0..per_round`. The sender's holdings
/// arrive as the window's packed bit row, where the id at round offset
/// `o` and slot `s` is bit `o·per_round + s` — its *packed id* (the
/// layout of `bar_gossip::update`). Every such filter is a
/// function of which live ids the sender holds, and a filter built from
/// a set `S` has bit `b` set exactly when some id of `S` probes `b`. So
/// an id `x` tests positive exactly when, for each of its probes, some
/// id of `S` shares that probe's bit. [`BloomIndex::rebuild`] computes
/// once per round, for every live id and probe, the run of live ids
/// sharing that bit; a query then scans those runs against the sender's
/// row, which it reads by reference. No filter is cleared or filled and
/// no key is hashed per advertisement, and the cost per probed id does
/// not depend on the filter width.
///
/// ```
/// use lotus_core::digest::{pack_id, BloomDigest, BloomIndex};
/// let mut index = BloomIndex::new(256, 3, 8, 4);
/// index.rebuild(5, 7); // live release rounds 5, 6, 7
/// // Pack the sender's ids into its row: bit (round − 5)·8 + slot.
/// let pack = |ids: &[(u64, u32)]| {
///     ids.iter()
///         .fold(0u64, |row, &(r, slot)| row | 1 << ((r - 5) * 8 + u64::from(slot)))
/// };
/// let held = [(5, 1), (5, 3), (7, 0)];
/// let sender = [pack(&held)];
/// let mut filter = BloomDigest::new(256, 3);
/// for (r, slot) in held {
///     filter.insert(pack_id(r, slot));
/// }
/// for r in 5..=7 {
///     for slot in 0..8 {
///         assert_eq!(index.contains(&sender, r, slot), filter.contains(pack_id(r, slot)));
///     }
/// }
/// // A receiver holding (5, 1) and (6, 2) asks for the rest.
/// let mut want = Vec::new();
/// let n = index.wanted_into(&sender, &[pack(&[(5, 1), (6, 2)])], usize::MAX, &mut want);
/// assert_eq!(n, want[0].count_ones() as usize);
/// assert_eq!(want[0] & sender[0], pack(&[(5, 3), (7, 0)]));
/// ```
#[derive(Clone, Debug)]
pub struct BloomIndex {
    bits: u32,
    hashes: u32,
    per_round: u32,
    /// Oldest live release round.
    first: Round,
    /// Live packed ids of the last rebuild: `live rounds × per_round`.
    live: usize,
    /// Rebuild scratch: `bit << 32 | pair` per (live id, probe) pair,
    /// where `pair = id * hashes + probe` and `id = round offset *
    /// per_round + slot`; sorted so equal bits form runs.
    keys: Vec<u64>,
    /// Per pair, the `[lo, hi)` range of `members` sharing its bit.
    runs: Vec<(u32, u32)>,
    /// Live packed ids in bit order, so a membership test is one bit
    /// test on the sender's row.
    members: Vec<u32>,
}

/// Whether `row` holds packed id `id`.
#[inline]
fn holds(row: &[u64], id: u32) -> bool {
    row[(id / 64) as usize] & (1u64 << (id % 64)) != 0
}

impl BloomIndex {
    /// An index for `bits`-wide, `hashes`-probe filters over windows of
    /// at most `lifetime` release rounds of `per_round` slots. Every
    /// buffer is sized here; rebuilds and lookups never allocate.
    ///
    /// # Panics
    ///
    /// Panics if `bits`, `hashes`, `per_round` or `lifetime` is zero,
    /// `per_round` exceeds 64, or the (id, probe) pairs of a full window
    /// (`per_round × lifetime × hashes`) do not fit 32-bit pair ids.
    pub fn new(bits: u32, hashes: u32, per_round: u32, lifetime: u32) -> Self {
        assert!(bits > 0, "bloom index wants at least one bit");
        assert!(hashes > 0, "bloom index wants at least one hash");
        assert!((1..=64).contains(&per_round), "per_round must be in 1..=64");
        assert!(lifetime > 0, "lifetime must be positive");
        let pairs = per_round as usize * lifetime as usize * hashes as usize;
        assert!(
            pairs <= Self::MAX_PAIRS,
            "bloom index pairs {pairs} exceed 32-bit pair ids"
        );
        BloomIndex {
            bits,
            hashes,
            per_round,
            first: 0,
            live: 0,
            keys: vec![0; pairs],
            runs: vec![(0, 0); pairs],
            members: vec![0; pairs],
        }
    }

    /// The most (id, probe) pairs an index can hold: pair ids and run
    /// bounds are `u32`.
    pub const MAX_PAIRS: usize = u32::MAX as usize;

    /// On-wire size of the filter this index stands in for, in bytes
    /// (equal to [`BloomDigest::size_bytes`] at the same width).
    pub fn size_bytes(&self) -> u64 {
        filter_bytes(self.bits)
    }

    /// Oldest release round of the last [`BloomIndex::rebuild`].
    pub fn first(&self) -> Round {
        self.first
    }

    /// Index the live window `first..=last`: every slot of every round
    /// in it, whether or not anyone holds it.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or longer than the construction
    /// lifetime.
    // lint: hot-loop
    pub fn rebuild(&mut self, first: Round, last: Round) {
        assert!(first <= last, "bloom index window is empty");
        let rounds = last - first + 1;
        let n = (rounds * u64::from(self.per_round) * u64::from(self.hashes)) as usize;
        assert!(
            n <= self.keys.len(),
            "bloom index window exceeds its lifetime"
        );
        self.first = first;
        self.live = rounds as usize * self.per_round as usize;
        let mut pair = 0;
        for round in first..=last {
            for slot in 0..self.per_round {
                for bit in probe_positions(pack_id(round, slot), self.bits, self.hashes) {
                    self.keys[pair] = (bit as u64) << 32 | pair as u64;
                    pair += 1;
                }
            }
        }
        let k = self.hashes as usize;
        let keys = &mut self.keys[..n];
        keys.sort_unstable();
        let mut lo = 0;
        while lo < n {
            let bit = keys[lo] >> 32;
            let hi = lo
                + keys[lo..]
                    .iter()
                    .take_while(|&&key| key >> 32 == bit)
                    .count();
            for (&key, member) in keys[lo..hi].iter().zip(&mut self.members[lo..hi]) {
                let pair = (key & u64::from(u32::MAX)) as usize;
                self.runs[pair] = (lo as u32, hi as u32);
                *member = (pair / k) as u32;
            }
            lo = hi;
        }
    }

    /// Whether a [`BloomDigest`] of this width and probe count, filled
    /// with every id the sender's packed row holds (bit `(round −
    /// first)·per_round + slot` per held id), would report
    /// [`pack_id`]`(round, slot)` present. `round` must be live in the
    /// last rebuild and `slot < per_round`.
    #[inline]
    pub fn contains(&self, sender: &[u64], round: Round, slot: u32) -> bool {
        debug_assert!(slot < self.per_round, "slot {slot} outside the batch");
        self.contains_id(sender, (round - self.first) as u32 * self.per_round + slot)
    }

    /// [`BloomIndex::contains`] by packed id, the id's bit in the
    /// sender's row: `(round − first)·per_round + slot`. `id` must be
    /// live in the last rebuild.
    // lint: hot-loop
    #[inline]
    pub fn contains_id(&self, sender: &[u64], id: u32) -> bool {
        // A held id lies in each of its own runs; answering it here
        // skips the scans in the common true-positive case.
        if holds(sender, id) {
            return true;
        }
        let k = self.hashes as usize;
        let pair = id as usize * k;
        self.runs[pair..pair + k].iter().all(|&(lo, hi)| {
            self.members[lo as usize..hi as usize]
                .iter()
                .any(|&c| holds(sender, c))
        })
    }

    /// The request mask of one digest leg: the lowest `limit` live ids
    /// the `receiver` row lacks that the filter over the `sender` row
    /// reports present, written into `out` (resized to the live words)
    /// in the rows' packed layout; returns how many.
    ///
    /// Every id the sender holds tests positive, so the mask is `sender
    /// & !receiver` plus the false positives, and only the ids neither
    /// row holds are probed.
    ///
    /// # Panics
    ///
    /// Panics if either row is not the live words of the last rebuild.
    // lint: hot-loop
    pub fn wanted_into(
        &self,
        sender: &[u64],
        receiver: &[u64],
        limit: usize,
        out: &mut Vec<u64>,
    ) -> usize {
        let words = self.live.div_ceil(64);
        assert!(
            sender.len() == words && receiver.len() == words,
            "rows are not the index's live window"
        );
        out.clear();
        out.resize(words, 0);
        let mut left = limit;
        for (w, slot) in out.iter_mut().enumerate() {
            if left == 0 {
                break;
            }
            let (s, r) = (sender[w], receiver[w]);
            let live = if (w + 1) * 64 <= self.live {
                u64::MAX
            } else {
                (1u64 << (self.live - w * 64)) - 1
            };
            let mut want = s & !r;
            let mut neither = !(s | r) & live;
            while neither != 0 {
                let bit = neither.trailing_zeros();
                neither &= neither - 1;
                if self.contains_id(sender, w as u32 * 64 + bit) {
                    want |= 1 << bit;
                }
            }
            *slot = lowest_ones(want, left);
            left -= slot.count_ones() as usize;
        }
        limit - left
    }
}

/// Exact order-free summary of one region's membership mask: equal
/// masks hash equal, and different masks of one region hash different.
/// Peers compare per-region hashes and exchange raw masks only for
/// regions whose hashes differ — the exact (zero-false-positive)
/// alternative to [`BloomDigest`].
///
/// For a fixed region the hash is injective in the mask: it XORs the
/// mask with a constant and applies [`split_mix64`], and both steps are
/// bijections of `u64`. So "the hashes differ" means exactly "the masks
/// differ", and a simulator may compare the masks in place of hashing
/// them.
#[inline]
pub fn region_hash(region: u64, mask: u64) -> u64 {
    split_mix64(split_mix64(region ^ REGION_SEED) ^ mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_keys_are_always_found() {
        let mut d = BloomDigest::new(256, 4);
        for key in 0..64u64 {
            d.insert(key * 977);
        }
        for key in 0..64u64 {
            assert!(d.contains(key * 977));
        }
        assert_eq!(d.inserted(), 64);
    }

    #[test]
    fn clear_resets_to_empty_without_reallocating() {
        let mut d = BloomDigest::new(128, 3);
        d.insert(7);
        assert!(d.contains(7));
        d.clear();
        assert!(!d.contains(7));
        assert_eq!(d.inserted(), 0);
        assert_eq!(d.fill_ratio(), 0.0);
    }

    #[test]
    fn digests_are_deterministic_and_order_free() {
        let mut a = BloomDigest::new(512, 5);
        let mut b = BloomDigest::new(512, 5);
        for key in 0..40u64 {
            a.insert(key);
        }
        for key in (0..40u64).rev() {
            b.insert(key);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn fill_and_fp_estimates_behave() {
        let mut d = BloomDigest::new(1024, 4);
        assert_eq!(d.expected_fp_rate(), 0.0);
        for key in 0..100u64 {
            d.insert(key);
        }
        assert!(d.fill_ratio() > 0.0 && d.fill_ratio() < 1.0);
        assert!(d.expected_fp_rate() < d.fill_ratio());
        assert_eq!(d.size_bytes(), 128);
        assert_eq!(BloomDigest::new(100, 2).size_bytes(), 13);
    }

    #[test]
    fn non_multiple_of_64_widths_stay_in_range() {
        let mut d = BloomDigest::new(67, 8);
        for key in 0..200u64 {
            d.insert(key);
            assert!(d.contains(key));
        }
        assert!(d.fill_ratio() <= 1.0);
    }

    /// The inverse of [`split_mix64`], step by step: an xor-shift
    /// `z ^ z >> s` is undone by xoring in every multiple of the shift,
    /// an odd multiplier by its inverse mod 2^64 (Newton's iteration).
    fn split_mix64_inverse(z: u64) -> u64 {
        let unshift = |z: u64, s: usize| (0..64).step_by(s).fold(0, |acc, k| acc ^ z >> k);
        let inv = |c: u64| {
            (0..6).fold(c, |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)))
            })
        };
        let z = unshift(z, 31);
        let z = unshift(z.wrapping_mul(inv(0x94D0_49BB_1331_11EB)), 27);
        let z = unshift(z.wrapping_mul(inv(0xBF58_476D_1CE4_E5B9)), 30);
        z.wrapping_sub(0x9E37_79B9_7F4A_7C15)
    }

    #[test]
    fn region_hash_is_injective_in_the_mask() {
        // For a fixed region, region_hash is mask ↦ split_mix64(c ^ mask)
        // with c = split_mix64(region ^ REGION_SEED): a XOR with a constant,
        // then split_mix64, whose add, xor-shift and odd-multiply steps are
        // each invertible. A left inverse recovers every mask, so no two
        // masks of one region share a hash.
        let masks = (0..4096u64).chain((0..4096u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        for region in [0u64, 3, 1 << 40, u64::MAX] {
            let c = split_mix64(region ^ REGION_SEED);
            for mask in masks.clone() {
                assert_eq!(split_mix64_inverse(region_hash(region, mask)) ^ c, mask);
            }
        }
    }

    #[test]
    fn region_hash_separates_masks_and_regions() {
        assert_eq!(region_hash(3, 0b1011), region_hash(3, 0b1011));
        assert_ne!(region_hash(3, 0b1011), region_hash(3, 0b1010));
        assert_ne!(region_hash(3, 0b1011), region_hash(4, 0b1011));
        assert_ne!(region_hash(0, 0), region_hash(1, 0));
    }
}
