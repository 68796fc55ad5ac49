//! The two gossip sub-protocols: balanced exchange and optimistic push.
//!
//! These are pure functions from a pair of update windows to a transfer
//! plan; the simulator applies the plan, meters bandwidth and runs the
//! excess-service check. Each direction of a plan is a [`Transfer`]: a
//! mask in the window's bit layout and its popcount, which the simulator
//! ORs into the receiving row as it is. Each sub-protocol is one row
//! kernel ([`balanced_rows`], [`push_rows`], [`wants_push_row`]): a
//! single pass over two rows' words and the age bands the phase
//! computed once (see [`crate::update`]'s module docs). The functions
//! over any `impl Into<WindowView>` — a
//! [`WindowSet`](crate::update::WindowSet) or a
//! [`WindowSlab`](crate::update::WindowSlab) row — are thin wrappers that
//! check alignment and derive the bands per call. Keeping them pure
//! makes the exchange arithmetic directly testable — including the
//! properties the attack relies on:
//!
//! * a **balanced exchange** transfers `min(needs)` in each direction, so
//!   a satiated partner (needs 0) yields a useless exchange;
//! * an **optimistic push** moves at most `push_size` recent updates to
//!   the responder and an equal number of items (old updates the initiator
//!   needs, topped up with junk) back, so a rational node with no missing
//!   old updates never initiates one.

use crate::update::{keep_oldest, Transfer, WindowView};
use netsim::Round;

/// Transfer plan of a balanced exchange.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BalancedOutcome {
    /// Updates the initiator receives.
    pub to_initiator: Transfer,
    /// Updates the responder receives.
    pub to_responder: Transfer,
}

impl BalancedOutcome {
    /// `true` if nothing moves.
    pub fn is_empty(&self) -> bool {
        self.to_initiator.is_empty() && self.to_responder.is_empty()
    }
}

/// Compute a balanced exchange between `initiator` and `responder` at
/// round `now`.
///
/// Both sides hand over as many live updates as possible one-for-one
/// (oldest — closest to expiry — first). With `unbalanced` (the Figure 3
/// defense) a node receiving at least one update is willing to give one
/// extra, so the needier side receives `min + 1` where available.
/// `rate_limit` caps each direction (the X9 defense).
pub fn balanced_exchange<'a, 'b>(
    initiator: impl Into<WindowView<'a>>,
    responder: impl Into<WindowView<'b>>,
    now: Round,
    unbalanced: bool,
    rate_limit: Option<u32>,
) -> BalancedOutcome {
    let mut out = BalancedOutcome::default();
    balanced_exchange_into(initiator, responder, now, unbalanced, rate_limit, &mut out);
    out
}

/// [`balanced_exchange`] into a caller-owned outcome (buffers cleared
/// first), so per-round hot loops can reuse the allocations: the
/// view-based entry to [`balanced_rows`], which checks the alignment and
/// derives the band (every live round up to `now`) on every call.
pub fn balanced_exchange_into<'a, 'b>(
    initiator: impl Into<WindowView<'a>>,
    responder: impl Into<WindowView<'b>>,
    now: Round,
    unbalanced: bool,
    rate_limit: Option<u32>,
    out: &mut BalancedOutcome,
) {
    let (initiator, responder) = (initiator.into(), responder.into());
    initiator.check_aligned(responder);
    let band = initiator.band(now, 0, u32::MAX);
    balanced_rows(
        initiator.words(),
        responder.words(),
        band,
        unbalanced,
        rate_limit,
        out,
    );
}

/// The balanced-exchange kernel on two rows of one alignment: one pass
/// over the words yields both sides' needs and both transfer masks,
/// restricted to `band` (a mask in the row layout; the simulators pass
/// an all-ones band, the whole window). Needs count the
/// whole window, as [`WindowView::missing_from`] does. A mask is then
/// cut to its side's share only when more updates qualify than it
/// receives.
// lint: hot-loop
#[inline]
pub fn balanced_rows(
    initiator: &[u64],
    responder: &[u64],
    band: impl IntoIterator<Item = u64>,
    unbalanced: bool,
    rate_limit: Option<u32>,
    out: &mut BalancedOutcome,
) {
    let (to_i, to_r) = (&mut out.to_initiator, &mut out.to_responder);
    // Every word of both masks is written below.
    to_i.mask.resize(initiator.len(), 0);
    to_r.mask.resize(initiator.len(), 0);
    // m: what the initiator could receive; n: what the responder could;
    // held_*: how much of it the band offers.
    let (mut m, mut n, mut held_i, mut held_r) = (0, 0, 0, 0);
    let masks = to_i.mask.iter_mut().zip(to_r.mask.iter_mut());
    let rows = initiator.iter().zip(responder).zip(band);
    for ((gi, gr), ((&a, &b), band)) in masks.zip(rows) {
        let (need_i, need_r) = (b & !a, a & !b);
        m += need_i.count_ones() as usize;
        n += need_r.count_ones() as usize;
        (*gi, *gr) = (need_i & band, need_r & band);
        held_i += gi.count_ones() as usize;
        held_r += gr.count_ones() as usize;
    }
    let k = m.min(n);
    let (mut recv_i, mut recv_r) = (k, k);
    if unbalanced && k >= 1 {
        // The side that needs more receives one extra: its partner is
        // willing to give recv+1 since it receives at least one.
        if m > n {
            recv_i = (k + 1).min(m);
        } else if n > m {
            recv_r = (k + 1).min(n);
        }
    }
    let cap = rate_limit.map_or(usize::MAX, |c| c as usize);
    to_i.len = keep_oldest(&mut to_i.mask, held_i, recv_i.min(cap));
    to_r.len = keep_oldest(&mut to_r.mask, held_r, recv_r.min(cap));
}

/// Transfer plan of an optimistic push.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PushOutcome {
    /// Old updates the initiator receives (what it initiated the push
    /// for).
    pub useful_to_initiator: Transfer,
    /// Recent updates the responder takes from the initiator's offer.
    pub to_responder: Transfer,
    /// Junk items the responder pays when it lacks enough old updates.
    pub junk_to_initiator: u32,
}

impl PushOutcome {
    /// `true` if nothing moves.
    pub fn is_empty(&self) -> bool {
        self.to_responder.is_empty()
    }
}

/// Compute an optimistic push initiated by `initiator` toward `responder`.
///
/// The initiator offers its *recent* updates (age ≤ `recent_age`) and asks
/// for *old* ones it is missing (age ≥ `old_age`). The responder takes up
/// to `push_size` of the offered recents it lacks, paying one item per
/// update taken: old updates the initiator needs while it has them, junk
/// after that. If the responder wants nothing, nothing happens. The push
/// is *optimistic* because the initiator may be paid entirely in junk.
#[allow(clippy::too_many_arguments)]
pub fn optimistic_push<'a, 'b>(
    initiator: impl Into<WindowView<'a>>,
    responder: impl Into<WindowView<'b>>,
    now: Round,
    push_size: u32,
    old_age: u32,
    recent_age: u32,
    rate_limit: Option<u32>,
) -> PushOutcome {
    let mut out = PushOutcome::default();
    optimistic_push_into(
        initiator, responder, now, push_size, old_age, recent_age, rate_limit, &mut out,
    );
    out
}

/// [`optimistic_push`] into a caller-owned outcome (buffers cleared
/// first), so per-round hot loops can reuse the allocations: the
/// view-based entry to [`push_rows`], which checks the alignment and
/// derives the recent and old bands on every call.
#[allow(clippy::too_many_arguments)]
pub fn optimistic_push_into<'a, 'b>(
    initiator: impl Into<WindowView<'a>>,
    responder: impl Into<WindowView<'b>>,
    now: Round,
    push_size: u32,
    old_age: u32,
    recent_age: u32,
    rate_limit: Option<u32>,
    out: &mut PushOutcome,
) {
    let (initiator, responder) = (initiator.into(), responder.into());
    initiator.check_aligned(responder);
    push_rows(
        initiator.words(),
        responder.words(),
        initiator.band(now, 0, recent_age),
        initiator.band(now, old_age, u32::MAX),
        push_size,
        rate_limit,
        out,
    );
}

/// The optimistic-push kernel on two rows of one alignment: one pass over
/// the words yields the initiator's offer (its `recent` band, which the
/// responder lacks) and what the responder can pay with (its `old` band,
/// which the initiator lacks). Both bands are masks in the row layout
/// ([`WindowSlab::band_into`](crate::update::WindowSlab::band_into)).
/// The offer is cut to `push_size` and the payment to what was taken,
/// oldest first, only when more qualifies.
// lint: hot-loop
#[inline]
pub fn push_rows(
    initiator: &[u64],
    responder: &[u64],
    recent: impl IntoIterator<Item = u64>,
    old: impl IntoIterator<Item = u64>,
    push_size: u32,
    rate_limit: Option<u32>,
    out: &mut PushOutcome,
) {
    let (to_r, to_i) = (&mut out.to_responder, &mut out.useful_to_initiator);
    // Every word of both masks is written below.
    to_r.mask.resize(initiator.len(), 0);
    to_i.mask.resize(initiator.len(), 0);
    let (mut offered, mut payable) = (0, 0);
    let masks = to_r.mask.iter_mut().zip(to_i.mask.iter_mut());
    let rows = initiator
        .iter()
        .zip(responder)
        .zip(recent.into_iter().zip(old));
    for ((offer, pay), ((&a, &b), (recent, old))) in masks.zip(rows) {
        (*offer, *pay) = (a & !b & recent, b & !a & old);
        offered += offer.count_ones() as usize;
        payable += pay.count_ones() as usize;
    }
    let cap = rate_limit.map_or(usize::MAX, |c| c as usize);
    to_r.len = keep_oldest(&mut to_r.mask, offered, (push_size as usize).min(cap));
    if to_r.is_empty() {
        to_i.mask.clear();
        to_i.len = 0;
        out.junk_to_initiator = 0;
        return;
    }
    // The responder pays one item per update taken: old updates first.
    let owed = to_r.len;
    to_i.len = keep_oldest(&mut to_i.mask, payable, owed.min(cap));
    out.junk_to_initiator = (owed - to_i.len) as u32;
}

/// Whether the initiator has any reason to start an optimistic push: it is
/// rational to initiate only when missing old (soon-expiring) updates.
/// The view-based entry to [`wants_push_row`].
pub fn wants_push<'a, 'b>(
    node: impl Into<WindowView<'a>>,
    reference_full: impl Into<WindowView<'b>>,
    now: Round,
    old_age: u32,
) -> bool {
    let (node, full) = (node.into(), reference_full.into());
    node.check_aligned(full);
    wants_push_row(
        node.words(),
        full.words(),
        node.band(now, old_age, u32::MAX),
    )
}

/// [`wants_push`] on a row and the reference window's words, given the
/// old band as a mask in the row layout: whether any bit of
/// `full & !row & old` is set.
// lint: hot-loop
#[inline]
pub fn wants_push_row(row: &[u64], full: &[u64], old: impl IntoIterator<Item = u64>) -> bool {
    row.iter()
        .zip(full)
        .zip(old)
        .any(|((r, f), o)| f & !r & o != 0)
}

/// The excess-service test used by the report-and-evict defense: a peer
/// that *gives* more useful updates than it *receives* plus `slack` (and
/// beyond what the sub-protocol could legitimately produce) is providing
/// excessive service.
///
/// Only two parties observe the transfer counts, which is why the paper
/// needs *obedient* receivers to file the report — a rational beneficiary
/// stays quiet.
pub fn is_excessive_service(given: usize, received: usize, slack: u32) -> bool {
    given > received + slack as usize
}

/// The ids a transfer into `w` names, oldest first.
#[cfg(test)]
fn transfer_ids(w: &crate::update::WindowSet, t: &Transfer) -> Vec<crate::update::UpdateId> {
    let ids = crate::update::mask_ids(w.view(), &t.mask);
    assert_eq!(ids.len(), t.len, "the count matches the mask");
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{UpdateId, WindowSet};

    /// Build an aligned pair of windows at `now`, holding the given ids.
    fn pair(now: Round, a: &[(u64, u32)], b: &[(u64, u32)]) -> (WindowSet, WindowSet, Round) {
        let mut wa = WindowSet::new(16, 8);
        let mut wb = WindowSet::new(16, 8);
        for t in 0..=now {
            wa.advance(t);
            wb.advance(t);
        }
        for &(round, slot) in a {
            wa.insert(UpdateId { round, slot });
        }
        for &(round, slot) in b {
            wb.insert(UpdateId { round, slot });
        }
        (wa, wb, now)
    }

    #[test]
    fn balanced_exchange_is_one_for_one() {
        // Initiator lacks 3, responder lacks 1 => 1 each way.
        let (a, b, now) = pair(3, &[(0, 0)], &[(1, 0), (1, 1), (2, 0)]);
        let out = balanced_exchange(&a, &b, now, false, None);
        assert_eq!(
            transfer_ids(&a, &out.to_initiator),
            [UpdateId { round: 1, slot: 0 }],
            "oldest first"
        );
        assert_eq!(
            transfer_ids(&b, &out.to_responder),
            [UpdateId { round: 0, slot: 0 }]
        );
    }

    #[test]
    fn balanced_exchange_with_satiated_partner_is_useless() {
        // Responder holds a superset: it needs nothing, so nothing moves.
        let (a, b, now) = pair(2, &[(0, 0)], &[(0, 0), (1, 0), (1, 1)]);
        let out = balanced_exchange(&a, &b, now, false, None);
        assert!(
            out.is_empty(),
            "the satiation effect: no mutual need, no trade"
        );
    }

    #[test]
    fn unbalanced_exchange_gives_one_extra_to_needier_side() {
        let (a, b, now) = pair(3, &[(0, 0)], &[(1, 0), (1, 1), (2, 0)]);
        let out = balanced_exchange(&a, &b, now, true, None);
        assert_eq!(out.to_initiator.len, 2, "initiator needed 3, gets min+1");
        assert_eq!(out.to_responder.len, 1);
    }

    #[test]
    fn unbalanced_does_not_create_service_from_nothing() {
        // Responder needs nothing => receives 0 => unwilling to give even
        // one: unbalanced exchanges only help under *partial* satiation.
        let (a, b, now) = pair(2, &[(0, 0)], &[(0, 0), (1, 0)]);
        let out = balanced_exchange(&a, &b, now, true, None);
        assert!(out.is_empty());
    }

    #[test]
    fn unbalanced_symmetric_needs_stay_balanced() {
        let (a, b, now) = pair(2, &[(0, 0), (0, 1)], &[(1, 0), (1, 1)]);
        let out = balanced_exchange(&a, &b, now, true, None);
        assert_eq!(out.to_initiator.len, 2);
        assert_eq!(out.to_responder.len, 2);
    }

    #[test]
    fn rate_limit_caps_both_directions() {
        let (a, b, now) = pair(4, &[(0, 0), (0, 1), (0, 2)], &[(1, 0), (1, 1), (1, 2)]);
        let out = balanced_exchange(&a, &b, now, false, Some(2));
        assert_eq!(out.to_initiator.len, 2);
        assert_eq!(out.to_responder.len, 2);
    }

    #[test]
    fn push_moves_recents_for_olds() {
        // now = 7, old_age 4, recent_age 1.
        // Initiator has recents (7,0),(7,1) and misses old (0,0),(1,0)
        // which the responder has.
        let (a, b, now) = pair(7, &[(7, 0), (7, 1)], &[(0, 0), (1, 0)]);
        let out = optimistic_push(&a, &b, now, 2, 4, 1, None);
        assert_eq!(out.to_responder.len, 2, "responder takes both recents");
        assert_eq!(
            transfer_ids(&a, &out.useful_to_initiator),
            [
                UpdateId { round: 0, slot: 0 },
                UpdateId { round: 1, slot: 0 }
            ]
        );
        assert_eq!(out.junk_to_initiator, 0);
    }

    #[test]
    fn push_size_caps_transfer() {
        let (a, b, now) = pair(
            7,
            &[(7, 0), (7, 1), (7, 2), (6, 0)],
            &[(0, 0), (0, 1), (0, 2), (0, 3)],
        );
        let out = optimistic_push(&a, &b, now, 2, 4, 1, None);
        assert_eq!(out.to_responder.len, 2);
        assert_eq!(out.useful_to_initiator.len, 2, "pays one-for-one");
    }

    #[test]
    fn push_pays_junk_when_responder_lacks_olds() {
        let (a, b, now) = pair(7, &[(7, 0), (7, 1)], &[(0, 0)]);
        let out = optimistic_push(&a, &b, now, 2, 4, 1, None);
        assert_eq!(out.to_responder.len, 2);
        assert_eq!(out.useful_to_initiator.len, 1);
        assert_eq!(out.junk_to_initiator, 1, "short one old update => junk");
    }

    #[test]
    fn push_noop_when_responder_wants_nothing() {
        // Responder already has the initiator's recents.
        let (a, b, now) = pair(7, &[(7, 0)], &[(7, 0), (0, 0)]);
        let out = optimistic_push(&a, &b, now, 2, 4, 1, None);
        assert!(out.is_empty());
        assert_eq!(out.junk_to_initiator, 0);
    }

    #[test]
    fn push_only_offers_recent_updates() {
        // Initiator's only update is old; responder lacks it but it is not
        // offerable in a push.
        let (a, b, now) = pair(7, &[(0, 5)], &[(1, 0)]);
        let out = optimistic_push(&a, &b, now, 2, 4, 1, None);
        assert!(out.is_empty());
    }

    #[test]
    fn push_rate_limited() {
        let (a, b, now) = pair(7, &[(7, 0), (7, 1), (7, 2)], &[(0, 0), (0, 1), (0, 2)]);
        let out = optimistic_push(&a, &b, now, 3, 4, 1, Some(1));
        assert_eq!(out.to_responder.len, 1);
        assert!(out.useful_to_initiator.len <= 1);
    }

    #[test]
    fn wants_push_only_when_missing_old() {
        let (a, full, now) = pair(7, &[(7, 0)], &[(0, 0), (7, 0)]);
        assert!(wants_push(&a, &full, now, 4), "missing (0,0) which is old");
        let (b, full2, now2) = pair(7, &[(0, 0)], &[(0, 0), (7, 1)]);
        assert!(
            !wants_push(&b, &full2, now2, 4),
            "only missing a recent update: no push"
        );
    }

    #[test]
    fn excess_service_detector() {
        assert!(!is_excessive_service(3, 3, 1), "balanced is fine");
        assert!(
            !is_excessive_service(4, 3, 1),
            "one extra tolerated (unbalanced defense)"
        );
        assert!(is_excessive_service(5, 3, 1), "gift of 2 extra flagged");
        assert!(is_excessive_service(50, 0, 1), "attacker gift flagged");
        assert!(!is_excessive_service(0, 0, 1));
    }

    #[test]
    fn honest_exchanges_never_trigger_excess_detector() {
        // Property-style check over a few window shapes: the balanced
        // exchange (with and without the unbalanced defense) never gives
        // more than received + 1.
        type Holdings = [(u64, u32)];
        let shapes: &[(&Holdings, &Holdings)] = &[
            (&[(0, 0)], &[(1, 0), (1, 1), (2, 0)]),
            (&[], &[(1, 0), (2, 0)]),
            (&[(0, 0), (0, 1), (1, 2)], &[(2, 0)]),
            (&[(0, 0)], &[(0, 0)]),
        ];
        for &(ha, hb) in shapes {
            let (a, b, now) = pair(3, ha, hb);
            for unb in [false, true] {
                let out = balanced_exchange(&a, &b, now, unb, None);
                assert!(!is_excessive_service(
                    out.to_initiator.len,
                    out.to_responder.len,
                    1
                ));
                assert!(!is_excessive_service(
                    out.to_responder.len,
                    out.to_initiator.len,
                    1
                ));
            }
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::update::{UpdateId, WindowSet};
    use lotus_core::proptest_lite::{check, Draw};

    /// A window of 16-update batches at round `now`, live from round 0,
    /// holding up to 40 random ids.
    fn arb_window(d: &mut Draw, now: Round) -> WindowSet {
        let mut w = WindowSet::new(16, (now + 1) as u32);
        for t in 0..=now {
            w.advance(t);
        }
        for _ in 0..d.int("items", 0, 39) {
            let round = d.int("round", 0, now as i64) as Round;
            let slot = d.int("slot", 0, 15) as u32;
            w.insert(UpdateId { round, slot });
        }
        w
    }

    fn ensure(holds: bool, what: &str) -> Result<(), String> {
        if holds {
            Ok(())
        } else {
            Err(what.to_string())
        }
    }

    #[test]
    fn balanced_exchange_invariants() {
        check("exchange::balanced_invariants", 256, |d| {
            let (a, b) = (arb_window(d, 5), arb_window(d, 5));
            let unbalanced = d.int("unbalanced", 0, 1) == 1;
            let cap = (d.int("capped", 0, 1) == 1).then(|| d.int("cap", 1, 4) as u32);
            let out = balanced_exchange(&a, &b, 5, unbalanced, cap);
            let (gi, gr) = (out.to_initiator.len, out.to_responder.len);
            // Never exceeds one-for-one plus the defense's single extra.
            ensure(gi <= gr + 1 && gr <= gi + 1, "more than one extra")?;
            if !unbalanced && cap.is_none() {
                // Without the defense the cap is the only source of asymmetry.
                ensure(gi == gr, "asymmetric without the defense or a cap")?;
            }
            if let Some(c) = cap {
                ensure(gi <= c as usize && gr <= c as usize, "over the cap")?;
            }
            // Transfers are genuinely useful and available.
            for u in transfer_ids(&a, &out.to_initiator) {
                ensure(b.contains(u) && !a.contains(u), "useless to the initiator")?;
            }
            for u in transfer_ids(&b, &out.to_responder) {
                ensure(a.contains(u) && !b.contains(u), "useless to the responder")?;
            }
            Ok(())
        });
    }

    #[test]
    fn push_invariants() {
        check("exchange::push_invariants", 256, |d| {
            let (a, b) = (arb_window(d, 5), arb_window(d, 5));
            let push_size = d.int("push_size", 1, 5) as u32;
            let out = optimistic_push(&a, &b, 5, push_size, 3, 1, None);
            ensure(out.to_responder.len <= push_size as usize, "over push_size")?;
            // Payment is exact: useful + junk == taken.
            ensure(
                out.useful_to_initiator.len + out.junk_to_initiator as usize
                    == out.to_responder.len,
                "payment differs from what was taken",
            )?;
            for u in transfer_ids(&b, &out.to_responder) {
                ensure(a.contains(u) && !b.contains(u), "useless offer")?;
                ensure(5 - u.round <= 1, "an offered update is not recent")?;
            }
            for u in transfer_ids(&a, &out.useful_to_initiator) {
                ensure(b.contains(u) && !a.contains(u), "useless payment")?;
                ensure(5 - u.round >= 3, "a paid update is not old")?;
            }
            Ok(())
        });
    }
}
