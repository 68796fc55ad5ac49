//! Update identities and sliding live-update windows.
//!
//! BAR Gossip streams *updates*: each round the broadcaster releases a
//! batch, and every update must reach a node within `lifetime` rounds of
//! its release to be useful (frames of a video stream). A node's holdings
//! are therefore a *sliding window* over the last `lifetime` release
//! rounds. All nodes advance their windows in lockstep, so set operations
//! between two windows zip them word by word.
//!
//! Every window is one packed bit row: `lifetime × per_round` contiguous
//! bits, oldest release round first and slots ascending, so update
//! `(round, slot)` sits at bit `(round − start)·per_round + slot` of
//! `ceil(lifetime·per_round / 64)` words. Bits above the live rounds are
//! always zero. A round's batch may straddle two words; walking the set
//! bits in order visits updates in (round, slot) order, which is the
//! order want lists, rng draws and digests consume them in. At Table 1
//! (10 updates, lifetime 10) a window is 2 words; at 64 updates per
//! round it is one word per round.
//!
//! Three types share that layout:
//!
//! * [`WindowView`] — a borrowed, read-only window (the live words).
//!   Every read-only window operation is implemented once, here;
//! * [`WindowSet`] — one owned window (the reference window of every
//!   release, the attacker pool, test and benchmark windows);
//! * [`WindowSlab`] — every node's window as one row of a single
//!   contiguous array, advanced by one shared alignment. A simulator
//!   holds its population's windows here, so an exchange reads two rows
//!   of one allocation instead of chasing a heap pointer per node.
//!
//! A [`Transfer`] — the updates one exchange moves into a window — is a
//! mask in the same layout plus its popcount:
//! `wanted_rows` computes it word by word and
//! [`WindowSlab::union_words`] writes it, so no exchange names an update
//! one id at a time. The digest path's probe index
//! ([`BloomIndex`](lotus_core::digest::BloomIndex)) reads the sender's
//! row in place and answers with a mask in the same layout.
//!
//! # Row kernels and per-phase bands
//!
//! The exchange layer reads windows through *row kernels*: functions of
//! bare row words and an *age band* — the mask, in the row layout, of the
//! live rounds whose age lies in some `min_age..=max_age` — that make one
//! straight pass over the words (`wanted_rows`, `count_lacking`, and
//! the exchange kernels in [`crate::exchange`]). A kernel neither checks
//! alignment nor derives a band: every slab row advances in lockstep, so
//! a band is the same for every pair of a round. The simulators' push
//! phase computes its recent and old bands once
//! ([`WindowSlab::band_into`]), and every other exchange passes
//! an all-ones band; a phase that reads a [`WindowSet`] (the reference
//! window, the attacker pool) against the rows checks that alignment
//! once. The view-based entries
//! ([`WindowView::wanted_from_into`],
//! [`WindowView::missing_in_age_band`] and the exchange functions over
//! views) are thin wrappers over the same kernels: they check the
//! alignment and derive the band on every call.

use lotus_core::bitset::lowest_ones;
use netsim::Round;

/// A single update's identity: the round it was released in and its slot
/// within that round's batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UpdateId {
    /// Release round.
    pub round: Round,
    /// Slot within the round's batch (`0..updates_per_round`).
    pub slot: u32,
}

impl std::fmt::Display for UpdateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}.{}", self.round, self.slot)
    }
}

/// The maximum batch size a window supports: a round's batch is read
/// back as one `u64` mask ([`WindowView::mask`]).
pub const MAX_UPDATES_PER_ROUND: u32 = 64;

fn check_shape(per_round: u32, lifetime: u32) {
    assert!(
        (1..=MAX_UPDATES_PER_ROUND).contains(&per_round),
        "per_round must be in 1..={MAX_UPDATES_PER_ROUND}"
    );
    assert!(lifetime > 0, "lifetime must be positive");
}

/// Words holding `rounds` packed batches of `per_round` bits.
#[inline]
fn words_for(rounds: u32, per_round: u32) -> usize {
    (rounds as usize * per_round as usize).div_ceil(64)
}

/// The low `n` bits (`n` in `1..=64`).
#[inline]
fn low_bits(n: u32) -> u64 {
    u64::MAX >> (64 - n)
}

/// The bits of word `w` that fall in the bit range `lo..hi` (the word
/// must overlap the range).
#[inline]
fn range_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let base = w * 64;
    let from = lo.saturating_sub(base);
    let to = (hi - base).min(64) as u32;
    low_bits(to) & (u64::MAX << from)
}

/// Ascending positions of the set bits of `word(w)` within bits `lo..hi`.
#[inline]
fn ones(lo: usize, hi: usize, word: impl Fn(usize) -> u64) -> impl Iterator<Item = usize> {
    let end = if lo < hi { hi.div_ceil(64) } else { 0 };
    let mut w = lo / 64;
    let mut cur = if w < end {
        word(w) & range_mask(w, lo, hi)
    } else {
        0
    };
    std::iter::from_fn(move || loop {
        if cur != 0 {
            let bit = cur.trailing_zeros() as usize;
            cur &= cur - 1;
            return Some(w * 64 + bit);
        }
        w += 1;
        if w >= end {
            return None;
        }
        cur = word(w) & range_mask(w, lo, hi);
    })
}

/// The bit range of the live rounds whose age relative to `now` (the
/// newest round has age 0) lies in `min_age..=max_age`, for a window
/// whose oldest live batch was released in `start` and that holds `len`
/// live rounds of `per_round` updates.
fn age_band(
    (start, len, per_round): Alignment,
    now: Round,
    min_age: u32,
    max_age: u32,
) -> (usize, usize) {
    let len = Round::from(len);
    let Some(newest) = now.checked_sub(Round::from(min_age)) else {
        return (0, 0);
    };
    let oldest = now.saturating_sub(Round::from(max_age));
    let lo = oldest.saturating_sub(start).min(len);
    let hi = (newest + 1).saturating_sub(start).clamp(lo, len);
    let per_round = per_round as usize;
    (lo as usize * per_round, hi as usize * per_round)
}

/// The first `words` words of the mask of bits `lo..hi`, in the row
/// layout: an age band ([`age_band`]) as the exchange kernels read it.
#[inline]
fn band_words(words: usize, (lo, hi): (usize, usize)) -> impl Iterator<Item = u64> {
    (0..words).map(move |w| {
        if lo >= hi || hi <= w * 64 || lo >= (w + 1) * 64 {
            0
        } else {
            range_mask(w, lo, hi)
        }
    })
}

/// The band of every live round, for rows whose newest live round is the
/// current one: rows keep the bits above their live rounds zero, so an
/// all-ones band selects exactly the live window.
pub(crate) fn whole_window() -> std::iter::Repeat<u64> {
    std::iter::repeat(u64::MAX)
}

/// Cut a mask holding `held` set bits down to its lowest `limit` — the
/// oldest updates first — and return how many it keeps.
// lint: hot-loop
#[inline]
pub(crate) fn keep_oldest(mask: &mut [u64], held: usize, limit: usize) -> usize {
    if held <= limit {
        return held;
    }
    let mut left = limit;
    for w in mask {
        *w = lowest_ones(*w, left);
        left -= w.count_ones() as usize;
    }
    limit
}

/// The window kernel: write into `want` the updates of row `theirs` that
/// row `mine` lacks within `band`, keeping the oldest `limit`, and
/// return how many it keeps. The rows must share one alignment and
/// `band` must be a mask in their layout (a [`WindowSlab::band_into`]
/// band, or [`whole_window`]); `want` is resized to the rows' words, so
/// a buffer with that capacity never reallocates. One straight pass
/// over the words; a second pass cuts the mask only when more than
/// `limit` updates qualify.
// lint: hot-loop
#[inline]
pub(crate) fn wanted_rows(
    mine: &[u64],
    theirs: &[u64],
    band: impl IntoIterator<Item = u64>,
    limit: usize,
    want: &mut Vec<u64>,
) -> usize {
    // Every word is written below.
    want.resize(mine.len(), 0);
    let mut held = 0;
    for ((w, (m, t)), b) in want.iter_mut().zip(mine.iter().zip(theirs)).zip(band) {
        *w = t & !m & b;
        held += w.count_ones() as usize;
    }
    keep_oldest(want, held, limit)
}

/// Number of updates of row `theirs` that row `mine` lacks within
/// `band` (rows and band as for [`wanted_rows`]).
// lint: hot-loop
#[inline]
pub(crate) fn count_lacking(
    mine: &[u64],
    theirs: &[u64],
    band: impl IntoIterator<Item = u64>,
) -> usize {
    mine.iter()
        .zip(theirs)
        .zip(band)
        .map(|((m, t), b)| (t & !m & b).count_ones() as usize)
        .sum()
}

/// A window's alignment: the release round of its oldest live batch,
/// its live rounds and its batch size. Windows meet only when theirs
/// are equal.
type Alignment = (Round, u32, u32);

/// Panic unless two windows share one alignment.
fn check_aligned(a: Alignment, b: Alignment) {
    assert_eq!(a.0, b.0, "windows not aligned (start)");
    assert_eq!(a.1, b.1, "windows not aligned (len)");
    assert_eq!(a.2, b.2, "windows not aligned (batch)");
}

/// Set bit `pos`; returns `true` if it was clear.
#[inline]
fn set_bit(words: &mut [u64], pos: usize) -> bool {
    let (word, bit) = (&mut words[pos / 64], 1u64 << (pos % 64));
    let had = *word & bit != 0;
    *word |= bit;
    !had
}

/// Pop a full window's oldest batch: shift the row right by `per_round`
/// bits, so the newest batch opens empty, and return the popped batch.
#[inline]
fn shift_out(words: &mut [u64], per_round: u32) -> u64 {
    let expired = words[0] & low_bits(per_round);
    let last = words.len() - 1;
    if per_round == 64 {
        words.copy_within(1.., 0);
        words[last] = 0;
    } else {
        let carry = 64 - per_round;
        for w in 0..last {
            words[w] = words[w] >> per_round | words[w + 1] << carry;
        }
        words[last] >>= per_round;
    }
    expired
}

/// A read-only view of one window: its live words, the release round of
/// the oldest live batch and how many rounds are live.
///
/// Binary operations take any `impl Into<WindowView>`, so a
/// [`WindowSet`] and a [`WindowSlab`] row mix freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowView<'a> {
    /// The live bits, `ceil(len·per_round / 64)` words.
    words: &'a [u64],
    start: Round,
    /// Live release rounds.
    len: u32,
    per_round: u32,
}

impl<'a> From<&'a WindowSet> for WindowView<'a> {
    fn from(w: &'a WindowSet) -> Self {
        w.view()
    }
}

impl<'a> WindowView<'a> {
    /// Release round of the oldest live batch.
    pub fn start(self) -> Round {
        self.start
    }

    /// Updates per release round.
    pub fn per_round(self) -> u32 {
        self.per_round
    }

    /// The packed live words: update `(round, slot)` at bit
    /// `(round − start)·per_round + slot`, every bit above the live
    /// rounds zero.
    pub fn words(self) -> &'a [u64] {
        self.words
    }

    /// Number of live bits (`live rounds × per_round`).
    fn bits(self) -> usize {
        self.len as usize * self.per_round as usize
    }

    /// The update at packed position `pos`.
    #[inline]
    pub fn id_at(self, pos: usize) -> UpdateId {
        let per_round = self.per_round as usize;
        UpdateId {
            round: self.start + (pos / per_round) as Round,
            slot: (pos % per_round) as u32,
        }
    }

    fn offset(self, round: Round) -> Option<usize> {
        let idx = round.checked_sub(self.start)?;
        (idx < Round::from(self.len)).then_some(idx as usize)
    }

    /// `true` if `id`'s release round is currently inside the window.
    pub fn is_live(self, id: UpdateId) -> bool {
        self.offset(id.round).is_some()
    }

    /// Membership test (expired updates are never contained).
    pub fn contains(self, id: UpdateId) -> bool {
        id.slot < self.per_round
            && self.offset(id.round).is_some_and(|i| {
                let pos = i * self.per_round as usize + id.slot as usize;
                self.words[pos / 64] & (1 << (pos % 64)) != 0
            })
    }

    /// The batch of live round `i` (0 = oldest) as a slot mask.
    #[inline]
    fn batch(self, i: usize) -> u64 {
        let per_round = self.per_round;
        let pos = i * per_round as usize;
        let (w, b) = (pos / 64, (pos % 64) as u32);
        let mut mask = self.words[w] >> b;
        if b + per_round > 64 {
            mask |= self.words[w + 1] << (64 - b);
        }
        mask & low_bits(per_round)
    }

    /// Slot mask of a release round (`None` if outside the window).
    pub fn mask(self, round: Round) -> Option<u64> {
        self.offset(round).map(|i| self.batch(i))
    }

    /// Slot mask of every live round, oldest first.
    pub fn masks(self) -> impl Iterator<Item = u64> + 'a {
        (0..self.len as usize).map(move |i| self.batch(i))
    }

    /// Number of live updates held.
    pub fn len(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no live updates are held.
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn alignment(self) -> Alignment {
        (self.start, self.len, self.per_round)
    }

    /// Panic unless `other` shares this window's alignment.
    pub(crate) fn check_aligned(self, other: WindowView<'_>) {
        check_aligned(self.alignment(), other.alignment());
    }

    /// The mask of the age band `min_age..=max_age` relative to `now`
    /// (the newest round has age 0), one word per live word: what the
    /// view-based entries hand the row kernels.
    pub(crate) fn band(self, now: Round, min_age: u32, max_age: u32) -> impl Iterator<Item = u64> {
        let bits = age_band(self.alignment(), now, min_age, max_age);
        band_words(self.words.len(), bits)
    }

    /// Number of live updates in `other` that `self` lacks.
    ///
    /// # Panics
    ///
    /// Panics if the windows are not aligned (different start/shape).
    pub fn missing_from<'b>(self, other: impl Into<WindowView<'b>>) -> usize {
        let other = other.into();
        self.check_aligned(other);
        count_lacking(self.words, other.words, whole_window())
    }

    /// The oldest `limit` updates in `other` that `self` lacks, as a mask
    /// in the window's bit layout written into `out` (resized to the live
    /// words, so a buffer with that capacity never reallocates),
    /// optionally restricted to updates of age `>= min_age` or `<=
    /// max_age` (age in rounds relative to `now`, where the newest round
    /// has age 0). Returns how many updates the mask holds.
    ///
    /// "Oldest first" models nodes prioritising updates closest to expiry.
    /// The view-based entry to the row kernel: it checks the alignment
    /// and derives the band on every call.
    pub fn wanted_from_into<'b>(
        self,
        other: impl Into<WindowView<'b>>,
        now: Round,
        limit: usize,
        min_age: u32,
        max_age: u32,
        out: &mut Vec<u64>,
    ) -> usize {
        let other = other.into();
        self.check_aligned(other);
        let band = self.band(now, min_age, max_age);
        wanted_rows(self.words, other.words, band, limit, out)
    }

    /// Count of updates in `other` missing from `self` within an age band
    /// (the row kernel over the band [`WindowView::wanted_from_into`]
    /// derives).
    pub fn missing_in_age_band<'b>(
        self,
        other: impl Into<WindowView<'b>>,
        now: Round,
        min_age: u32,
        max_age: u32,
    ) -> usize {
        let other = other.into();
        self.check_aligned(other);
        count_lacking(self.words, other.words, self.band(now, min_age, max_age))
    }

    /// Iterate over held updates, oldest release round first.
    pub fn iter(self) -> impl Iterator<Item = UpdateId> + 'a {
        ones(0, self.bits(), move |w| self.words[w]).map(move |pos| self.id_at(pos))
    }
}

/// The updates one exchange moves into a window: a mask in the window
/// row's bit layout (the exchange kernels fill it) and how
/// many bits it holds. [`WindowSlab::union_words`] delivers it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Transfer {
    /// The moved updates' bits, one word per live word of the window.
    pub mask: Vec<u64>,
    /// Set bits of `mask`: the number of updates moved.
    pub len: usize,
}

impl Transfer {
    /// An empty transfer whose mask holds `words` words without
    /// reallocating: pass a window's stride for an allocation-free round
    /// loop.
    pub fn with_capacity(words: usize) -> Self {
        Transfer {
            mask: Vec::with_capacity(words),
            len: 0,
        }
    }

    /// `true` if nothing moves.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A sliding window of live-update holdings.
///
/// One packed bit row (see the [module docs](self)); the window covers
/// the most recent `lifetime` release rounds. Updates outside the window
/// have expired and are dropped.
///
/// ```
/// use bar_gossip::update::{UpdateId, WindowSet};
/// let mut w = WindowSet::new(10, 3); // 10 updates/round, lifetime 3
/// w.advance(0);
/// w.insert(UpdateId { round: 0, slot: 4 });
/// assert!(w.contains(UpdateId { round: 0, slot: 4 }));
/// w.advance(1);
/// w.advance(2);
/// w.advance(3); // round 0 expires
/// assert!(!w.contains(UpdateId { round: 0, slot: 4 }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSet {
    /// `ceil(lifetime·per_round / 64)` packed words, oldest round first.
    words: Vec<u64>,
    /// Release round of the oldest live batch.
    start: Round,
    /// Live release rounds (`≤ lifetime`).
    len: u32,
    per_round: u32,
    lifetime: u32,
}

impl WindowSet {
    /// An empty window for batches of `per_round` updates with the given
    /// `lifetime` in rounds, in one zeroed allocation, so advancing never
    /// reallocates.
    ///
    /// # Panics
    ///
    /// Panics if `per_round` is 0 or exceeds [`MAX_UPDATES_PER_ROUND`], or
    /// if `lifetime` is 0.
    pub fn new(per_round: u32, lifetime: u32) -> Self {
        check_shape(per_round, lifetime);
        WindowSet {
            words: vec![0; words_for(lifetime, per_round)],
            start: 0,
            len: 0,
            per_round,
            lifetime,
        }
    }

    /// The window as a read-only [`WindowView`].
    pub fn view(&self) -> WindowView<'_> {
        WindowView {
            words: &self.words[..words_for(self.len, self.per_round)],
            start: self.start,
            len: self.len,
            per_round: self.per_round,
        }
    }

    /// Updates per release round.
    pub fn per_round(&self) -> u32 {
        self.per_round
    }

    /// Window lifetime in rounds.
    pub fn lifetime(&self) -> u32 {
        self.lifetime
    }

    /// Release round of the oldest live batch (0 before any advance).
    pub fn start(&self) -> Round {
        self.start
    }

    /// Open release round `round` and expire anything older than
    /// `round - lifetime + 1`. Returns the slot mask of the expired
    /// round, if one fell out of the window.
    ///
    /// Rounds must be advanced sequentially starting from 0.
    ///
    /// # Panics
    ///
    /// Panics if rounds are advanced out of order.
    pub fn advance(&mut self, round: Round) -> Option<(Round, u64)> {
        let expected = self.start + Round::from(self.len);
        assert_eq!(
            round, expected,
            "advance({round}) out of order, expected {expected}"
        );
        if self.len < self.lifetime {
            self.len += 1;
            return None;
        }
        let expired = shift_out(&mut self.words, self.per_round);
        self.start += 1;
        Some((self.start - 1, expired))
    }

    /// `true` if `id`'s release round is currently inside the window.
    pub fn is_live(&self, id: UpdateId) -> bool {
        self.view().is_live(id)
    }

    /// Insert a live update; returns `true` if newly inserted, `false` if
    /// already held or expired (expired inserts are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `id.slot >= per_round`.
    pub fn insert(&mut self, id: UpdateId) -> bool {
        assert!(id.slot < self.per_round, "slot {} out of range", id.slot);
        let Some(i) = self.view().offset(id.round) else {
            return false;
        };
        set_bit(
            &mut self.words,
            i * self.per_round as usize + id.slot as usize,
        )
    }

    /// Membership test (expired updates are never contained).
    pub fn contains(&self, id: UpdateId) -> bool {
        self.view().contains(id)
    }

    /// Slot mask of a release round (`None` if outside the window).
    pub fn mask(&self, round: Round) -> Option<u64> {
        self.view().mask(round)
    }

    /// Number of live updates held.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// `true` if no live updates are held.
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// Number of live updates in `other` that `self` lacks
    /// ([`WindowView::missing_from`]).
    pub fn missing_from<'b>(&self, other: impl Into<WindowView<'b>>) -> usize {
        self.view().missing_from(other)
    }

    /// The oldest `limit` updates in `other` that `self` lacks, in an age
    /// band, as a mask into `out`; returns how many
    /// ([`WindowView::wanted_from_into`]).
    pub fn wanted_from_into<'b>(
        &self,
        other: impl Into<WindowView<'b>>,
        now: Round,
        limit: usize,
        min_age: u32,
        max_age: u32,
        out: &mut Vec<u64>,
    ) -> usize {
        self.view()
            .wanted_from_into(other, now, limit, min_age, max_age, out)
    }

    /// Count of updates in `other` missing from `self` within an age band.
    pub fn missing_in_age_band<'b>(
        &self,
        other: impl Into<WindowView<'b>>,
        now: Round,
        min_age: u32,
        max_age: u32,
    ) -> usize {
        self.view()
            .missing_in_age_band(other, now, min_age, max_age)
    }

    /// Union `other` into `self` (used for pooled attacker knowledge and
    /// out-of-band deliveries).
    ///
    /// # Panics
    ///
    /// Panics if the windows are not aligned.
    pub fn union_with<'b>(&mut self, other: impl Into<WindowView<'b>>) {
        let other = other.into();
        self.view().check_aligned(other);
        for (mine, theirs) in self.words.iter_mut().zip(other.words) {
            *mine |= theirs;
        }
    }

    /// Drop every held update, keeping the window's alignment (start,
    /// shape) intact — the scratch-buffer reset for pool windows that are
    /// rebuilt each round.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterate over held updates, oldest release round first.
    pub fn iter(&self) -> impl Iterator<Item = UpdateId> + '_ {
        self.view().iter()
    }
}

/// Every node's window as one row of a single contiguous array.
///
/// Row `i` occupies words `i·stride .. (i+1)·stride`, where the stride is
/// `ceil(lifetime·per_round / 64)`: one packed bit row (see the
/// [module docs](self)). Every row shares one alignment (`start` and the
/// number of live rounds). A row costs `8 × stride` bytes — 16 B at
/// Table 1, 8 B at 4 updates × lifetime 4 — and no allocation of its own.
///
/// Advancing is split in two so a simulator pays per-row work only for
/// the rows it tracks: [`WindowSlab::advance`] moves the shared
/// alignment, and when a round expires the caller pops each tracked
/// row's expired batch with [`WindowSlab::shift`]. A row that was never
/// written stays all-zero, and an all-zero row is already the empty
/// window in lockstep — so rows of nodes that have not joined yet need
/// neither shifting nor any fast-forward when they join.
///
/// ```
/// use bar_gossip::update::{UpdateId, WindowSlab};
/// let mut slab = WindowSlab::new(3, 4, 2); // 3 rows, 4 updates/round, lifetime 2
/// assert_eq!(slab.advance(0), None);
/// slab.insert(0, UpdateId { round: 0, slot: 1 });
/// assert_eq!(slab.advance(1), None);
/// slab.insert(2, UpdateId { round: 1, slot: 0 });
/// assert_eq!(slab.row(2).words(), [1 << 4]); // round 1 starts at bit 4
/// assert_eq!(slab.advance(2), Some(0)); // release round 0 expires
/// assert_eq!(slab.shift(0), 0b10);
/// assert_eq!(slab.shift(2), 0);
/// // Row 1 was never written: unshifted, it is still an empty window.
/// assert!(slab.row(1).is_empty());
/// assert_eq!(slab.row(2).mask(1), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSlab {
    /// `rows × stride` packed words, row-major.
    words: Vec<u64>,
    /// Row stride in words: `ceil(lifetime·per_round / 64)`.
    stride: usize,
    lifetime: u32,
    /// Release round of every row's oldest live batch.
    start: Round,
    /// Live release rounds per row (`≤ lifetime`).
    len: u32,
    /// Words holding the live bits: `ceil(len·per_round / 64)`.
    live: usize,
    per_round: u32,
}

impl WindowSlab {
    /// `rows` empty windows for batches of `per_round` updates with the
    /// given `lifetime`, in one zeroed allocation.
    ///
    /// # Panics
    ///
    /// Panics on the shapes [`WindowSet::new`] rejects.
    pub fn new(rows: usize, per_round: u32, lifetime: u32) -> Self {
        check_shape(per_round, lifetime);
        let stride = words_for(lifetime, per_round);
        WindowSlab {
            words: vec![0; rows * stride],
            stride,
            lifetime,
            start: 0,
            len: 0,
            live: 0,
            per_round,
        }
    }

    /// Row `i` as a read-only [`WindowView`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> WindowView<'_> {
        let lo = i * self.stride;
        WindowView {
            words: &self.words[lo..lo + self.live],
            start: self.start,
            len: self.len,
            per_round: self.per_round,
        }
    }

    fn alignment(&self) -> Alignment {
        (self.start, self.len, self.per_round)
    }

    /// Panic unless `other` shares the rows' alignment. Slab rows are
    /// aligned with each other by construction, so a phase that reads a
    /// [`WindowSet`] (the reference window, the attacker pool) against
    /// them checks this once and then hands the row kernels bare words.
    ///
    /// # Panics
    ///
    /// Panics if `other` is not aligned with the slab.
    pub(crate) fn check_aligned<'b>(&self, other: impl Into<WindowView<'b>>) {
        check_aligned(self.alignment(), other.into().alignment());
    }

    /// Write into `band` the mask of the age band `min_age..=max_age`,
    /// one word per live word of a row, with ages relative to the newest
    /// live round (the round the last [`WindowSlab::advance`] opened;
    /// it has age 0). Every row advances in lockstep, so one band serves
    /// every pair of a phase: the push phase computes its recent and old
    /// bands once and hands them to the row kernels. `band` is resized
    /// to the live words, so a buffer of the stride's capacity never
    /// reallocates.
    pub fn band_into(&self, min_age: u32, max_age: u32, band: &mut Vec<u64>) {
        let newest = (self.start + Round::from(self.len)).saturating_sub(1);
        let bits = age_band(self.alignment(), newest, min_age, max_age);
        band.clear();
        band.extend(band_words(self.live, bits));
    }

    /// The first stored word of row `i` (its oldest live rounds), read
    /// without building a view: a cheap touch that brings the row's
    /// cache line in before the row is used.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub(crate) fn lead_word(&self, i: usize) -> u64 {
        self.words[i * self.stride]
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        let lo = i * self.stride;
        &mut self.words[lo..lo + self.live]
    }

    /// Insert a live update into row `i`; returns `true` if newly
    /// inserted, `false` if already held or expired (ignored).
    ///
    /// # Panics
    ///
    /// Panics if `id.slot >= per_round` or `i` is out of range.
    pub fn insert(&mut self, i: usize, id: UpdateId) -> bool {
        assert!(id.slot < self.per_round, "slot {} out of range", id.slot);
        let Some(offset) = self.row(i).offset(id.round) else {
            return false;
        };
        let pos = offset * self.per_round as usize + id.slot as usize;
        set_bit(self.row_mut(i), pos)
    }

    /// Union `other` into row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is not aligned with the slab.
    pub fn union_with<'b>(&mut self, i: usize, other: impl Into<WindowView<'b>>) {
        let other = other.into();
        self.check_aligned(other);
        self.union_words(i, other.words);
    }

    /// OR a mask in the row layout — a [`Transfer`]'s — into row `i`: the
    /// one write every exchange's delivery makes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `mask` is longer than the live
    /// words.
    // lint: hot-loop
    #[inline]
    pub fn union_words(&mut self, i: usize, mask: &[u64]) {
        let row = self.row_mut(i);
        assert!(mask.len() <= row.len(), "mask wider than the live window");
        for (mine, theirs) in row.iter_mut().zip(mask) {
            *mine |= theirs;
        }
    }

    /// Set rows `a` and `b` both to their union; returns how many
    /// updates `a` and `b` each gained, in that order.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either is out of range.
    pub fn sync(&mut self, a: usize, b: usize) -> (usize, usize) {
        assert_ne!(a, b, "sync needs two distinct rows");
        let (live, stride) = (self.live, self.stride);
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.words.split_at_mut(hi * stride);
        let (row_lo, row_hi) = (
            &mut head[lo * stride..lo * stride + live],
            &mut tail[..live],
        );
        let (row_a, row_b) = if a < b {
            (row_lo, row_hi)
        } else {
            (row_hi, row_lo)
        };
        let (mut gained_a, mut gained_b) = (0, 0);
        for (wa, wb) in row_a.iter_mut().zip(row_b.iter_mut()) {
            gained_a += (*wb & !*wa).count_ones() as usize;
            gained_b += (*wa & !*wb).count_ones() as usize;
            *wa |= *wb;
            *wb = *wa;
        }
        (gained_a, gained_b)
    }

    /// Drop every update row `i` holds (a state-losing crash); the row
    /// stays aligned.
    pub fn clear(&mut self, i: usize) {
        self.row_mut(i).fill(0);
    }

    /// Open release round `round` for every row. Returns the expired
    /// release round once the window is full; the caller must then
    /// [`WindowSlab::shift`] every row it keeps in lockstep before
    /// reading or writing it. All-zero rows may be skipped.
    ///
    /// # Panics
    ///
    /// Panics if rounds are advanced out of order.
    pub fn advance(&mut self, round: Round) -> Option<Round> {
        let expected = self.start + Round::from(self.len);
        assert_eq!(
            round, expected,
            "advance({round}) out of order, expected {expected}"
        );
        if self.len < self.lifetime {
            self.len += 1;
            self.live = words_for(self.len, self.per_round);
            return None;
        }
        self.start += 1;
        Some(self.start - 1)
    }

    /// Pop row `i`'s expired batch after an expiring
    /// [`WindowSlab::advance`]: the row shifts right by `per_round`
    /// bits, and the newest batch opens empty.
    #[inline]
    pub fn shift(&mut self, i: usize) -> u64 {
        debug_assert_eq!(self.len, self.lifetime, "shift follows an expiring advance");
        let lo = i * self.stride;
        shift_out(&mut self.words[lo..lo + self.stride], self.per_round)
    }
}

/// The ids a mask in `view`'s layout names, oldest first (the tests'
/// way of reading a [`Transfer`]).
#[cfg(test)]
pub(crate) fn mask_ids(view: WindowView<'_>, mask: &[u64]) -> Vec<UpdateId> {
    (0..mask.len() * 64)
        .filter(|&pos| mask[pos / 64] >> (pos % 64) & 1 == 1)
        .map(|pos| view.id_at(pos))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(per_round: u32, lifetime: u32, upto: Round) -> WindowSet {
        let mut w = WindowSet::new(per_round, lifetime);
        for t in 0..=upto {
            w.advance(t);
        }
        w
    }

    #[test]
    fn insert_contains_roundtrip() {
        let mut w = window(10, 3, 0);
        let id = UpdateId { round: 0, slot: 7 };
        assert!(w.insert(id));
        assert!(!w.insert(id));
        assert!(w.contains(id));
        assert!(!w.contains(UpdateId { round: 0, slot: 8 }));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn advance_expires_oldest() {
        let mut w = window(4, 2, 1);
        w.insert(UpdateId { round: 0, slot: 1 });
        w.insert(UpdateId { round: 1, slot: 2 });
        let expired = w.advance(2);
        assert_eq!(expired, Some((0, 0b10)));
        assert!(!w.contains(UpdateId { round: 0, slot: 1 }));
        assert!(w.contains(UpdateId { round: 1, slot: 2 }));
        assert_eq!(w.start(), 1);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn advance_must_be_sequential() {
        let mut w = WindowSet::new(4, 2);
        w.advance(1);
    }

    #[test]
    fn expired_insert_is_ignored() {
        let mut w = window(4, 2, 3);
        assert!(!w.insert(UpdateId { round: 0, slot: 0 }));
        assert!(!w.contains(UpdateId { round: 0, slot: 0 }));
        assert!(!w.is_live(UpdateId { round: 0, slot: 0 }));
    }

    #[test]
    #[should_panic(expected = "slot")]
    fn insert_validates_slot() {
        let mut w = window(4, 2, 0);
        w.insert(UpdateId { round: 0, slot: 4 });
    }

    #[test]
    fn missing_from_counts() {
        let mut a = window(8, 2, 1);
        let mut b = window(8, 2, 1);
        b.insert(UpdateId { round: 0, slot: 0 });
        b.insert(UpdateId { round: 1, slot: 3 });
        a.insert(UpdateId { round: 1, slot: 3 });
        assert_eq!(a.missing_from(&b), 1);
        assert_eq!(b.missing_from(&a), 0);
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_windows_panic() {
        let a = window(8, 2, 1);
        let b = window(8, 2, 2);
        let _ = a.missing_from(&b);
    }

    /// `a.wanted_from_into(b, ..)` as the ids its mask names, after
    /// checking the mask's width and count.
    fn wanted(
        a: &WindowSet,
        b: &WindowSet,
        now: Round,
        limit: usize,
        min_age: u32,
        max_age: u32,
    ) -> Vec<UpdateId> {
        let mut mask = Vec::new();
        let n = a.wanted_from_into(b, now, limit, min_age, max_age, &mut mask);
        assert_eq!(mask.len(), a.view().words().len(), "one word per live word");
        let ids = mask_ids(a.view(), &mask);
        assert_eq!(n, ids.len(), "count matches the mask");
        ids
    }

    #[test]
    fn wanted_from_is_oldest_first_and_limited() {
        let mut a = window(8, 4, 3); // live rounds 0..=3, now = 3
        let mut b = window(8, 4, 3);
        for (r, s) in [(0u64, 1u32), (1, 2), (2, 3), (3, 4)] {
            b.insert(UpdateId { round: r, slot: s });
        }
        assert_eq!(
            wanted(&a, &b, 3, 10, 0, u32::MAX),
            vec![
                UpdateId { round: 0, slot: 1 },
                UpdateId { round: 1, slot: 2 },
                UpdateId { round: 2, slot: 3 },
                UpdateId { round: 3, slot: 4 },
            ]
        );
        let limited = wanted(&a, &b, 3, 2, 0, u32::MAX);
        assert_eq!(limited.len(), 2);
        assert_eq!(limited[0].round, 0);
        // Age bands: only "old" updates (age >= 2) => rounds 0 and 1.
        let old = wanted(&a, &b, 3, 10, 2, u32::MAX);
        assert_eq!(old.len(), 2);
        assert!(old.iter().all(|u| u.round <= 1));
        // Only "recent" (age <= 1) => rounds 2 and 3.
        let recent = wanted(&a, &b, 3, 10, 0, 1);
        assert_eq!(recent.len(), 2);
        assert!(recent.iter().all(|u| u.round >= 2));
        a.insert(UpdateId { round: 0, slot: 1 });
        assert_eq!(wanted(&a, &b, 3, 10, 0, u32::MAX).len(), 3);
    }

    #[test]
    fn wanted_from_into_reuses_buffer_and_clears() {
        let a = window(8, 4, 3);
        let mut b = window(8, 4, 3);
        b.insert(UpdateId { round: 1, slot: 2 });
        let mut buf = vec![u64::MAX; 5]; // stale content, too long
        assert_eq!(a.wanted_from_into(&b, 3, 10, 0, u32::MAX, &mut buf), 1);
        assert_eq!(buf, [1 << 10], "round 1 slot 2 is bit 8 + 2");
    }

    #[test]
    fn union_words_delivers_a_transfer() {
        let mut slab = WindowSlab::new(2, 10, 7);
        for t in 0..=6 {
            slab.advance(t);
        }
        slab.insert(1, UpdateId { round: 6, slot: 4 }); // bit 64
        slab.insert(1, UpdateId { round: 0, slot: 2 });
        let mut t = Transfer::with_capacity(2);
        t.len = slab
            .row(0)
            .wanted_from_into(slab.row(1), 6, 1, 0, 0, &mut t.mask);
        assert_eq!(
            (t.len, t.mask.as_slice()),
            (1, &[0, 1][..]),
            "the age band keeps round 6"
        );
        slab.union_words(0, &t.mask);
        assert!(slab.row(0).contains(UpdateId { round: 6, slot: 4 }));
        assert_eq!(slab.row(0).len(), 1);
    }

    #[test]
    fn clear_keeps_alignment() {
        let mut w = window(8, 3, 4);
        w.insert(UpdateId { round: 3, slot: 1 });
        let start = w.start();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.start(), start, "clear preserves window alignment");
        assert!(w.insert(UpdateId { round: 4, slot: 0 }), "still usable");
        w.advance(5); // alignment intact: sequential advance still works
    }

    #[test]
    fn missing_in_age_band_matches_wanted() {
        let a = window(8, 4, 3);
        let mut b = window(8, 4, 3);
        for (r, s) in [(0u64, 1u32), (2, 3)] {
            b.insert(UpdateId { round: r, slot: s });
        }
        assert_eq!(a.missing_in_age_band(&b, 3, 2, u32::MAX), 1);
        assert_eq!(a.missing_in_age_band(&b, 3, 0, 1), 1);
        assert_eq!(a.missing_in_age_band(&b, 3, 0, u32::MAX), 2);
    }

    #[test]
    fn union_with_merges() {
        let mut a = window(8, 2, 1);
        let mut b = window(8, 2, 1);
        a.insert(UpdateId { round: 0, slot: 0 });
        b.insert(UpdateId { round: 1, slot: 1 });
        a.union_with(&b);
        assert_eq!(a.len(), 2);
        assert!(a.contains(UpdateId { round: 1, slot: 1 }));
    }

    #[test]
    fn iter_in_release_order() {
        let mut w = window(8, 3, 2);
        w.insert(UpdateId { round: 2, slot: 0 });
        w.insert(UpdateId { round: 0, slot: 5 });
        w.insert(UpdateId { round: 0, slot: 2 });
        let ids: Vec<UpdateId> = w.iter().collect();
        assert_eq!(
            ids,
            vec![
                UpdateId { round: 0, slot: 2 },
                UpdateId { round: 0, slot: 5 },
                UpdateId { round: 2, slot: 0 },
            ]
        );
    }

    #[test]
    fn packed_layout_is_pinned() {
        // 10 updates × lifetime 7 = 70 bits in 2 words; round 6's batch
        // occupies bits 60..70 and straddles the word boundary.
        let mut w = window(10, 7, 6);
        for (round, slot) in [(0, 0), (1, 9), (6, 3), (6, 4)] {
            w.insert(UpdateId { round, slot });
        }
        assert_eq!(w.view().words(), [1 | 1 << 19 | 1 << 63, 1]);
        assert_eq!(w.mask(6), Some(0b11000));
        assert_eq!(
            w.view().masks().collect::<Vec<_>>(),
            [1, 1 << 9, 0, 0, 0, 0, 0b11000]
        );
        // Expiry shifts the row down by one batch.
        assert_eq!(w.advance(7), Some((0, 1)));
        assert_eq!(w.view().words(), [1 << 9 | 1 << 53 | 1 << 54, 0]);
        assert_eq!(w.view().id_at(54), UpdateId { round: 6, slot: 4 });
        // A short window exposes only its live words.
        assert_eq!(window(10, 7, 5).view().words().len(), 1);
        // A full 64-slot batch is one word per round.
        let mut full = window(64, 2, 1);
        full.insert(UpdateId { round: 1, slot: 63 });
        assert_eq!(full.view().words(), [0, 1 << 63]);
        assert_eq!(full.advance(2), Some((0, 0)));
        assert_eq!(full.view().words(), [1 << 63, 0]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", UpdateId { round: 3, slot: 1 }), "u3.1");
    }

    #[test]
    #[should_panic(expected = "per_round")]
    fn per_round_validated() {
        WindowSet::new(65, 2);
    }

    #[test]
    fn window_shorter_than_lifetime_keeps_everything() {
        let mut w = WindowSet::new(4, 5);
        for t in 0..3 {
            assert_eq!(w.advance(t), None);
        }
        assert_eq!(w.start(), 0);
    }
}
