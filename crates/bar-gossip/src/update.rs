//! Update identities and sliding live-update windows.
//!
//! BAR Gossip streams *updates*: each round the broadcaster releases a
//! batch, and every update must reach a node within `lifetime` rounds of
//! its release to be useful (frames of a video stream). A node's holdings
//! are therefore a *sliding window* of per-release-round bitmasks;
//! [`WindowSet`] is that window. All nodes advance their windows in
//! lockstep, so set operations between two windows can align masks
//! round-by-round.

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

/// The maximum batch size [`WindowSet`] supports (one `u64` mask per
/// round).
pub const MAX_UPDATES_PER_ROUND: u32 = 64;

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
    masks: std::collections::VecDeque<u64>,
    /// Release round of `masks[0]`.
    start: Round,
    per_round: u32,
    lifetime: u32,
}

impl WindowSet {
    /// An empty window for batches of `per_round` updates with the given
    /// `lifetime` in rounds. Its buffer is allocated by the first round
    /// it tracks, so building one window per node of a million-node run
    /// costs a 48-byte write each, not an allocation or a clone each.
    ///
    /// # Panics
    ///
    /// Panics if `per_round` is 0 or exceeds [`MAX_UPDATES_PER_ROUND`], or
    /// if `lifetime` is 0.
    pub fn new(per_round: u32, lifetime: u32) -> Self {
        assert!(
            (1..=MAX_UPDATES_PER_ROUND).contains(&per_round),
            "per_round must be in 1..={MAX_UPDATES_PER_ROUND}"
        );
        assert!(lifetime > 0, "lifetime must be positive");
        WindowSet {
            masks: std::collections::VecDeque::new(),
            start: 0,
            per_round,
            lifetime,
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
        self.masks.push_back(0);
        if self.masks.len() > self.lifetime as usize {
            let expired = self.masks.pop_front().expect("non-empty window");
            let expired_round = self.start;
            self.start += 1;
            Some((expired_round, expired))
        } else {
            None
        }
    }

    /// Fast-forward an *empty*, never-scrolled window to the alignment
    /// that advancing it through `round` one step at a time would have
    /// produced: `min(round + 1, lifetime)` all-zero masks ending at
    /// release round `round`. The lazy-engagement seam of the sharded
    /// engine — a flash-crowd node's window is not advanced while the
    /// node waits outside the system (`O(pending)` saved per round),
    /// then snapped into lockstep the round it arrives. An empty window
    /// advanced `round + 1` times holds exactly these zero masks, so
    /// the fast-forward is observationally identical to the dense path.
    ///
    /// # Panics
    ///
    /// Panics if the window holds any update or has already expired a
    /// round (those histories cannot be reproduced by zero-fill), or if
    /// the fast-forward would rewind the window.
    pub fn skip_to(&mut self, round: Round) {
        assert!(
            self.start == 0 && self.is_empty(),
            "skip_to requires a fresh, empty window"
        );
        let len = (round + 1).min(Round::from(self.lifetime)) as usize;
        assert!(
            len >= self.masks.len(),
            "skip_to({round}) would rewind past {} queued rounds",
            self.masks.len()
        );
        self.masks.clear();
        self.masks.resize(len, 0);
        self.start = round + 1 - len as Round;
    }

    fn mask_index(&self, round: Round) -> Option<usize> {
        if round < self.start {
            return None;
        }
        let idx = (round - self.start) as usize;
        if idx < self.masks.len() {
            Some(idx)
        } else {
            None
        }
    }

    /// `true` if `id`'s release round is currently inside the window.
    pub fn is_live(&self, id: UpdateId) -> bool {
        self.mask_index(id.round).is_some()
    }

    /// Insert a live update; returns `true` if newly inserted, `false` if
    /// already held or expired (expired inserts are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `id.slot >= per_round`.
    pub fn insert(&mut self, id: UpdateId) -> bool {
        assert!(id.slot < self.per_round, "slot {} out of range", id.slot);
        let Some(idx) = self.mask_index(id.round) else {
            return false;
        };
        let bit = 1u64 << id.slot;
        let had = self.masks[idx] & bit != 0;
        self.masks[idx] |= bit;
        !had
    }

    /// Membership test (expired updates are never contained).
    pub fn contains(&self, id: UpdateId) -> bool {
        if id.slot >= self.per_round {
            return false;
        }
        self.mask_index(id.round)
            .is_some_and(|idx| self.masks[idx] & (1 << id.slot) != 0)
    }

    /// Raw mask for a release round (`None` if outside the window).
    pub fn mask(&self, round: Round) -> Option<u64> {
        self.mask_index(round).map(|i| self.masks[i])
    }

    /// Number of live updates held.
    pub fn len(&self) -> usize {
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// `true` if no live updates are held.
    pub fn is_empty(&self) -> bool {
        self.masks.iter().all(|&m| m == 0)
    }

    /// Number of live updates in `other` that `self` lacks.
    ///
    /// # Panics
    ///
    /// Panics if the windows are not aligned (different start/shape).
    pub fn missing_from(&self, other: &WindowSet) -> usize {
        self.check_aligned(other);
        self.masks
            .iter()
            .zip(&other.masks)
            .map(|(mine, theirs)| (theirs & !mine).count_ones() as usize)
            .sum()
    }

    fn check_aligned(&self, other: &WindowSet) {
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

    /// The oldest `limit` updates in `other` that `self` lacks, optionally
    /// restricted to updates of age `>= min_age` or `<= max_age` (age in
    /// rounds relative to `now`, where the newest round has age 0).
    ///
    /// "Oldest first" models nodes prioritising updates closest to expiry.
    pub fn wanted_from(
        &self,
        other: &WindowSet,
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
    pub fn wanted_from_into(
        &self,
        other: &WindowSet,
        now: Round,
        limit: usize,
        min_age: u32,
        max_age: u32,
        out: &mut Vec<UpdateId>,
    ) {
        self.check_aligned(other);
        out.clear();
        'outer: for (i, (mine, theirs)) in self.masks.iter().zip(&other.masks).enumerate() {
            let round = self.start + i as Round;
            let age = (now - round) as u32;
            if age < min_age || age > max_age {
                continue;
            }
            let mut want = theirs & !mine;
            while want != 0 {
                if out.len() == limit {
                    break 'outer;
                }
                let slot = want.trailing_zeros();
                out.push(UpdateId { round, slot });
                want &= want - 1;
            }
        }
    }

    /// Count of updates in `other` missing from `self` within an age band.
    pub fn missing_in_age_band(
        &self,
        other: &WindowSet,
        now: Round,
        min_age: u32,
        max_age: u32,
    ) -> usize {
        self.check_aligned(other);
        self.masks
            .iter()
            .zip(&other.masks)
            .enumerate()
            .filter(|(i, _)| {
                let age = (now - (self.start + *i as Round)) as u32;
                age >= min_age && age <= max_age
            })
            .map(|(_, (mine, theirs))| (theirs & !mine).count_ones() as usize)
            .sum()
    }

    /// Union `other` into `self` (used for pooled attacker knowledge and
    /// out-of-band deliveries).
    pub fn union_with(&mut self, other: &WindowSet) {
        self.check_aligned(other);
        for (mine, theirs) in self.masks.iter_mut().zip(&other.masks) {
            *mine |= theirs;
        }
    }

    /// Drop every held update, keeping the window's alignment (start,
    /// shape) intact — the scratch-buffer reset for pool windows that are
    /// rebuilt each round.
    pub fn clear(&mut self) {
        for mask in self.masks.iter_mut() {
            *mask = 0;
        }
    }

    /// Iterate over held updates, oldest release round first.
    pub fn iter(&self) -> impl Iterator<Item = UpdateId> + '_ {
        self.masks.iter().enumerate().flat_map(move |(i, &mask)| {
            let round = self.start + i as Round;
            (0..self.per_round)
                .filter(move |&s| mask & (1 << s) != 0)
                .map(move |slot| UpdateId { round, slot })
        })
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
    fn skip_to_matches_dense_advancement() {
        // Both before the first expiry and well after it, a fast-forward
        // must land on exactly the state a round-at-a-time advance of an
        // empty window reaches: same alignment, same (zero) masks, and
        // the next advance behaves identically.
        for upto in [0, 2, 4, 5, 17] {
            let dense = window(4, 5, upto);
            let mut lazy = WindowSet::new(4, 5);
            lazy.skip_to(upto);
            assert_eq!(lazy.start(), dense.start(), "start after skip_to({upto})");
            assert_eq!(lazy.len(), 0);
            assert_eq!(lazy.missing_from(&dense), 0);
            let mut d2 = dense.clone();
            assert_eq!(lazy.advance(upto + 1), d2.advance(upto + 1));
        }
    }

    #[test]
    #[should_panic(expected = "fresh, empty window")]
    fn skip_to_rejects_populated_windows() {
        let mut w = window(4, 5, 1);
        w.insert(UpdateId { round: 1, slot: 0 });
        w.skip_to(3);
    }

    #[test]
    #[should_panic(expected = "rewind")]
    fn skip_to_rejects_rewinds() {
        let mut w = window(4, 8, 3); // empty, start still 0, 4 masks queued
        w.skip_to(1);
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
