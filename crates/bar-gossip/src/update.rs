//! Update identities and sliding live-update windows.
//!
//! BAR Gossip streams *updates*: each round the broadcaster releases a
//! batch, and every update must reach a node within `lifetime` rounds of
//! its release to be useful (frames of a video stream). A node's holdings
//! are therefore a *sliding window* of per-release-round bitmasks. All
//! nodes advance their windows in lockstep, so set operations between two
//! windows zip their masks round by round.
//!
//! Three types share that representation:
//!
//! * [`WindowView`] — a borrowed, read-only window (live masks, oldest
//!   first). Every read-only window operation is implemented once, here;
//! * [`WindowSet`] — one owned window (the reference window of every
//!   release, the attacker pool, test and benchmark windows);
//! * [`WindowSlab`] — every node's window as one row of a single
//!   contiguous array, advanced by one shared alignment. A simulator
//!   holds its population's windows here, so an exchange reads two rows
//!   of one allocation instead of chasing a heap pointer per node.

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

/// The maximum batch size a window supports (one `u64` mask per round).
pub const MAX_UPDATES_PER_ROUND: u32 = 64;

fn check_shape(per_round: u32, lifetime: u32) {
    assert!(
        (1..=MAX_UPDATES_PER_ROUND).contains(&per_round),
        "per_round must be in 1..={MAX_UPDATES_PER_ROUND}"
    );
    assert!(lifetime > 0, "lifetime must be positive");
}

/// Pop a full window's oldest mask: shift the rest down one slot and
/// open an empty newest slot.
fn shift_out(masks: &mut [u64]) -> u64 {
    let expired = masks[0];
    masks.copy_within(1.., 0);
    masks[masks.len() - 1] = 0;
    expired
}

/// A read-only view of one window: its live masks, oldest first, and
/// the release round of the first.
///
/// Binary operations take any `impl Into<WindowView>`, so a
/// [`WindowSet`] and a [`WindowSlab`] row mix freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowView<'a> {
    masks: &'a [u64],
    start: Round,
    per_round: u32,
}

impl<'a> From<&'a WindowSet> for WindowView<'a> {
    fn from(w: &'a WindowSet) -> Self {
        w.view()
    }
}

impl<'a> WindowView<'a> {
    /// Release round of the oldest live mask.
    pub fn start(self) -> Round {
        self.start
    }

    /// Updates per release round.
    pub fn per_round(self) -> u32 {
        self.per_round
    }

    fn mask_index(self, round: Round) -> Option<usize> {
        let idx = round.checked_sub(self.start)?;
        (idx < self.masks.len() as Round).then_some(idx as usize)
    }

    /// `true` if `id`'s release round is currently inside the window.
    pub fn is_live(self, id: UpdateId) -> bool {
        self.mask_index(id.round).is_some()
    }

    /// Membership test (expired updates are never contained).
    pub fn contains(self, id: UpdateId) -> bool {
        id.slot < self.per_round && self.mask(id.round).is_some_and(|m| m & (1 << id.slot) != 0)
    }

    /// Raw mask for a release round (`None` if outside the window).
    pub fn mask(self, round: Round) -> Option<u64> {
        self.mask_index(round).map(|i| self.masks[i])
    }

    /// Number of live updates held.
    pub fn len(self) -> usize {
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// `true` if no live updates are held.
    pub fn is_empty(self) -> bool {
        self.masks.iter().all(|&m| m == 0)
    }

    fn check_aligned(self, other: WindowView<'_>) {
        assert_eq!(self.start, other.start, "windows not aligned (start)");
        assert_eq!(
            self.masks.len(),
            other.masks.len(),
            "windows not aligned (len)"
        );
        assert_eq!(
            self.per_round, other.per_round,
            "windows not aligned (batch)"
        );
    }

    /// Number of live updates in `other` that `self` lacks.
    ///
    /// # Panics
    ///
    /// Panics if the windows are not aligned (different start/shape).
    pub fn missing_from<'b>(self, other: impl Into<WindowView<'b>>) -> usize {
        let other = other.into();
        self.check_aligned(other);
        self.masks
            .iter()
            .zip(other.masks)
            .map(|(mine, theirs)| (theirs & !mine).count_ones() as usize)
            .sum()
    }

    /// The oldest `limit` updates in `other` that `self` lacks, into a
    /// caller-owned buffer (cleared first), optionally restricted to
    /// updates of age `>= min_age` or `<= max_age` (age in rounds
    /// relative to `now`, where the newest round has age 0).
    ///
    /// "Oldest first" models nodes prioritising updates closest to expiry.
    pub fn wanted_from_into<'b>(
        self,
        other: impl Into<WindowView<'b>>,
        now: Round,
        limit: usize,
        min_age: u32,
        max_age: u32,
        out: &mut Vec<UpdateId>,
    ) {
        let other = other.into();
        self.check_aligned(other);
        out.clear();
        let rounds = (self.start..).zip(self.masks.iter().zip(other.masks));
        'outer: for (round, (mine, theirs)) in rounds {
            let age = (now - round) as u32;
            if age < min_age || age > max_age {
                continue;
            }
            let mut want = theirs & !mine;
            while want != 0 {
                if out.len() == limit {
                    break 'outer;
                }
                out.push(UpdateId {
                    round,
                    slot: want.trailing_zeros(),
                });
                want &= want - 1;
            }
        }
    }

    /// Count of updates in `other` missing from `self` within an age band.
    pub fn missing_in_age_band<'b>(
        self,
        other: impl Into<WindowView<'b>>,
        now: Round,
        min_age: u32,
        max_age: u32,
    ) -> usize {
        let other = other.into();
        self.check_aligned(other);
        (self.start..)
            .zip(self.masks.iter().zip(other.masks))
            .filter(|&(round, _)| {
                let age = (now - round) as u32;
                age >= min_age && age <= max_age
            })
            .map(|(_, (mine, theirs))| (theirs & !mine).count_ones() as usize)
            .sum()
    }

    /// Iterate over held updates, oldest release round first.
    pub fn iter(self) -> impl Iterator<Item = UpdateId> + 'a {
        let (start, per_round) = (self.start, self.per_round);
        self.masks.iter().enumerate().flat_map(move |(i, &mask)| {
            let round = start + i as Round;
            (0..per_round)
                .filter(move |&s| mask & (1 << s) != 0)
                .map(move |slot| UpdateId { round, slot })
        })
    }
}

/// A sliding window of live-update holdings.
///
/// Masks are indexed by release round; the window covers the most recent
/// `lifetime` release rounds. Updates outside the window have expired and
/// are dropped.
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
    /// Live masks, oldest first; at most `lifetime` of them.
    masks: Vec<u64>,
    /// Release round of `masks[0]`.
    start: Round,
    per_round: u32,
    lifetime: u32,
}

impl WindowSet {
    /// An empty window for batches of `per_round` updates with the given
    /// `lifetime` in rounds. Its buffer is reserved to `lifetime` masks
    /// up front, so advancing never reallocates.
    ///
    /// # Panics
    ///
    /// Panics if `per_round` is 0 or exceeds [`MAX_UPDATES_PER_ROUND`], or
    /// if `lifetime` is 0.
    pub fn new(per_round: u32, lifetime: u32) -> Self {
        check_shape(per_round, lifetime);
        WindowSet {
            masks: Vec::with_capacity(lifetime as usize),
            start: 0,
            per_round,
            lifetime,
        }
    }

    /// The window as a read-only [`WindowView`].
    pub fn view(&self) -> WindowView<'_> {
        WindowView {
            masks: &self.masks,
            start: self.start,
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

    /// Release round of the oldest live mask (0 before any advance).
    pub fn start(&self) -> Round {
        self.start
    }

    /// Open release round `round` and expire anything older than
    /// `round - lifetime + 1`. Returns the mask of the expired round, if
    /// one fell out of the window.
    ///
    /// Rounds must be advanced sequentially starting from 0.
    ///
    /// # Panics
    ///
    /// Panics if rounds are advanced out of order.
    pub fn advance(&mut self, round: Round) -> Option<(Round, u64)> {
        let expected = self.start + self.masks.len() as Round;
        assert_eq!(
            round, expected,
            "advance({round}) out of order, expected {expected}"
        );
        if self.masks.len() < self.lifetime as usize {
            self.masks.push(0);
            return None;
        }
        let expired = shift_out(&mut self.masks);
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
        let Some(idx) = self.view().mask_index(id.round) else {
            return false;
        };
        let bit = 1u64 << id.slot;
        let had = self.masks[idx] & bit != 0;
        self.masks[idx] |= bit;
        !had
    }

    /// Membership test (expired updates are never contained).
    pub fn contains(&self, id: UpdateId) -> bool {
        self.view().contains(id)
    }

    /// Raw mask for a release round (`None` if outside the window).
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
    /// band ([`WindowView::wanted_from_into`]).
    pub fn wanted_from<'b>(
        &self,
        other: impl Into<WindowView<'b>>,
        now: Round,
        limit: usize,
        min_age: u32,
        max_age: u32,
    ) -> Vec<UpdateId> {
        let mut out = Vec::with_capacity(limit.min(8));
        self.wanted_from_into(other, now, limit, min_age, max_age, &mut out);
        out
    }

    /// [`WindowSet::wanted_from`] into a caller-owned buffer (cleared
    /// first), so per-round hot loops can reuse one allocation.
    pub fn wanted_from_into<'b>(
        &self,
        other: impl Into<WindowView<'b>>,
        now: Round,
        limit: usize,
        min_age: u32,
        max_age: u32,
        out: &mut Vec<UpdateId>,
    ) {
        self.view()
            .wanted_from_into(other, now, limit, min_age, max_age, out);
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
        for (mine, theirs) in self.masks.iter_mut().zip(other.masks) {
            *mine |= theirs;
        }
    }

    /// Drop every held update, keeping the window's alignment (start,
    /// shape) intact — the scratch-buffer reset for pool windows that are
    /// rebuilt each round.
    pub fn clear(&mut self) {
        self.masks.fill(0);
    }

    /// Iterate over held updates, oldest release round first.
    pub fn iter(&self) -> impl Iterator<Item = UpdateId> + '_ {
        self.view().iter()
    }
}

/// Every node's window as one row of a single contiguous array.
///
/// Row `i` occupies masks `i·lifetime .. (i+1)·lifetime`; its live masks
/// are the first `len` of those, oldest first, and every row shares one
/// alignment (`start`, `len`). A row costs `8 × lifetime` bytes and no
/// allocation of its own.
///
/// Advancing is split in two so a simulator pays per-row work only for
/// the rows it tracks: [`WindowSlab::advance`] moves the shared
/// alignment, and when a round expires the caller pops each tracked
/// row's expired mask with [`WindowSlab::shift`]. A row that was never
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
/// assert_eq!(slab.advance(2), Some(0)); // release round 0 expires
/// assert_eq!(slab.shift(0), 0b10);
/// assert_eq!(slab.shift(2), 0);
/// // Row 1 was never written: unshifted, it is still an empty window.
/// assert!(slab.row(1).is_empty());
/// assert_eq!(slab.row(2).mask(1), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSlab {
    /// `rows × lifetime` masks, row-major.
    masks: Vec<u64>,
    /// Row stride: the window lifetime.
    lifetime: usize,
    /// Release round of every row's first live mask.
    start: Round,
    /// Live masks per row (`≤ lifetime`).
    len: usize,
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
        WindowSlab {
            masks: vec![0; rows * lifetime as usize],
            lifetime: lifetime as usize,
            start: 0,
            len: 0,
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
        let lo = i * self.lifetime;
        WindowView {
            masks: &self.masks[lo..lo + self.len],
            start: self.start,
            per_round: self.per_round,
        }
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        let lo = i * self.lifetime;
        &mut self.masks[lo..lo + self.len]
    }

    /// Insert a live update into row `i`; returns `true` if newly
    /// inserted, `false` if already held or expired (ignored).
    ///
    /// # Panics
    ///
    /// Panics if `id.slot >= per_round` or `i` is out of range.
    pub fn insert(&mut self, i: usize, id: UpdateId) -> bool {
        assert!(id.slot < self.per_round, "slot {} out of range", id.slot);
        let Some(idx) = id.round.checked_sub(self.start) else {
            return false;
        };
        if idx >= self.len as Round {
            return false;
        }
        let mask = &mut self.masks[i * self.lifetime + idx as usize];
        let bit = 1u64 << id.slot;
        let had = *mask & bit != 0;
        *mask |= bit;
        !had
    }

    /// Union `other` into row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is not aligned with the slab.
    pub fn union_with<'b>(&mut self, i: usize, other: impl Into<WindowView<'b>>) {
        let other = other.into();
        self.row(i).check_aligned(other);
        for (mine, theirs) in self.row_mut(i).iter_mut().zip(other.masks) {
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
        let (len, stride) = (self.len, self.lifetime);
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.masks.split_at_mut(hi * stride);
        let (row_lo, row_hi) = (&mut head[lo * stride..lo * stride + len], &mut tail[..len]);
        let (row_a, row_b) = if a < b {
            (row_lo, row_hi)
        } else {
            (row_hi, row_lo)
        };
        let (mut gained_a, mut gained_b) = (0, 0);
        for (ma, mb) in row_a.iter_mut().zip(row_b.iter_mut()) {
            gained_a += (*mb & !*ma).count_ones() as usize;
            gained_b += (*ma & !*mb).count_ones() as usize;
            *ma |= *mb;
            *mb = *ma;
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
        let expected = self.start + self.len as Round;
        assert_eq!(
            round, expected,
            "advance({round}) out of order, expected {expected}"
        );
        if self.len < self.lifetime {
            self.len += 1;
            return None;
        }
        self.start += 1;
        Some(self.start - 1)
    }

    /// Pop row `i`'s expired mask after an expiring
    /// [`WindowSlab::advance`]: one in-row `copy_within`, and the
    /// newest slot opens empty.
    pub fn shift(&mut self, i: usize) -> u64 {
        debug_assert_eq!(self.len, self.lifetime, "shift follows an expiring advance");
        let lo = i * self.lifetime;
        shift_out(&mut self.masks[lo..lo + self.lifetime])
    }
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

    #[test]
    fn wanted_from_is_oldest_first_and_limited() {
        let mut a = window(8, 4, 3); // live rounds 0..=3, now = 3
        let mut b = window(8, 4, 3);
        for (r, s) in [(0u64, 1u32), (1, 2), (2, 3), (3, 4)] {
            b.insert(UpdateId { round: r, slot: s });
        }
        let want = a.wanted_from(&b, 3, 10, 0, u32::MAX);
        assert_eq!(
            want,
            vec![
                UpdateId { round: 0, slot: 1 },
                UpdateId { round: 1, slot: 2 },
                UpdateId { round: 2, slot: 3 },
                UpdateId { round: 3, slot: 4 },
            ]
        );
        let limited = a.wanted_from(&b, 3, 2, 0, u32::MAX);
        assert_eq!(limited.len(), 2);
        assert_eq!(limited[0].round, 0);
        // Age bands: only "old" updates (age >= 2) => rounds 0 and 1.
        let old = a.wanted_from(&b, 3, 10, 2, u32::MAX);
        assert_eq!(old.len(), 2);
        assert!(old.iter().all(|u| u.round <= 1));
        // Only "recent" (age <= 1) => rounds 2 and 3.
        let recent = a.wanted_from(&b, 3, 10, 0, 1);
        assert_eq!(recent.len(), 2);
        assert!(recent.iter().all(|u| u.round >= 2));
        a.insert(UpdateId { round: 0, slot: 1 });
        assert_eq!(a.wanted_from(&b, 3, 10, 0, u32::MAX).len(), 3);
    }

    #[test]
    fn wanted_from_into_reuses_buffer_and_clears() {
        let a = window(8, 4, 3);
        let mut b = window(8, 4, 3);
        b.insert(UpdateId { round: 1, slot: 2 });
        let mut buf = vec![UpdateId { round: 0, slot: 0 }; 5]; // stale content
        a.wanted_from_into(&b, 3, 10, 0, u32::MAX, &mut buf);
        assert_eq!(buf, vec![UpdateId { round: 1, slot: 2 }]);
        assert_eq!(
            buf,
            a.wanted_from(&b, 3, 10, 0, u32::MAX),
            "into-variant matches the allocating form"
        );
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
