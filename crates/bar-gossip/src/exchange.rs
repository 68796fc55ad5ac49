//! The two gossip sub-protocols: balanced exchange and optimistic push.
//!
//! These are pure functions from a pair of update windows to a transfer
//! plan; the simulator applies the plan, meters bandwidth and runs the
//! excess-service check. Each takes its windows as any
//! `impl Into<WindowView>`, so one code path serves both a
//! [`WindowSet`](crate::update::WindowSet) and a
//! [`WindowSlab`](crate::update::WindowSlab) row. Keeping them pure
//! makes the exchange arithmetic directly testable — including the
//! properties the attack relies on:
//!
//! * a **balanced exchange** transfers `min(needs)` in each direction, so
//!   a satiated partner (needs 0) yields a useless exchange;
//! * an **optimistic push** moves at most `push_size` recent updates to
//!   the responder and an equal number of items (old updates the initiator
//!   needs, topped up with junk) back, so a rational node with no missing
//!   old updates never initiates one.

use crate::update::{UpdateId, WindowView};
use netsim::Round;

/// Transfer plan of a balanced exchange.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BalancedOutcome {
    /// Updates the initiator receives.
    pub to_initiator: Vec<UpdateId>,
    /// Updates the responder receives.
    pub to_responder: Vec<UpdateId>,
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
/// first), so per-round hot loops can reuse the allocations.
pub fn balanced_exchange_into<'a, 'b>(
    initiator: impl Into<WindowView<'a>>,
    responder: impl Into<WindowView<'b>>,
    now: Round,
    unbalanced: bool,
    rate_limit: Option<u32>,
    out: &mut BalancedOutcome,
) {
    let (initiator, responder) = (initiator.into(), responder.into());
    let cap = rate_limit.map_or(usize::MAX, |c| c as usize);
    // m: what the initiator could receive; n: what the responder could.
    let m = initiator.missing_from(responder);
    let n = responder.missing_from(initiator);
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
    recv_i = recv_i.min(cap);
    recv_r = recv_r.min(cap);
    initiator.wanted_from_into(responder, now, recv_i, 0, u32::MAX, &mut out.to_initiator);
    responder.wanted_from_into(initiator, now, recv_r, 0, u32::MAX, &mut out.to_responder);
}

/// Transfer plan of an optimistic push.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PushOutcome {
    /// Old updates the initiator receives (what it initiated the push
    /// for).
    pub useful_to_initiator: Vec<UpdateId>,
    /// Recent updates the responder takes from the initiator's offer.
    pub to_responder: Vec<UpdateId>,
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
/// first), so per-round hot loops can reuse the allocations.
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
    let cap = rate_limit.map_or(usize::MAX, |c| c as usize);
    let take = (push_size as usize).min(cap);
    // Recents the responder lacks, from the initiator's offer.
    responder.wanted_from_into(initiator, now, take, 0, recent_age, &mut out.to_responder);
    if out.to_responder.is_empty() {
        out.useful_to_initiator.clear();
        out.junk_to_initiator = 0;
        return;
    }
    // The responder pays one item per update taken: old updates first.
    let owed = out.to_responder.len();
    initiator.wanted_from_into(
        responder,
        now,
        owed.min(cap),
        old_age,
        u32::MAX,
        &mut out.useful_to_initiator,
    );
    out.junk_to_initiator = (owed - out.useful_to_initiator.len()) as u32;
}

/// Whether the initiator has any reason to start an optimistic push: it is
/// rational to initiate only when missing old (soon-expiring) updates.
pub fn wants_push<'a, 'b>(
    node: impl Into<WindowView<'a>>,
    reference_full: impl Into<WindowView<'b>>,
    now: Round,
    old_age: u32,
) -> bool {
    node.into()
        .missing_in_age_band(reference_full, now, old_age, u32::MAX)
        > 0
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::WindowSet;

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
        assert_eq!(out.to_initiator.len(), 1);
        assert_eq!(out.to_responder.len(), 1);
        assert_eq!(
            out.to_initiator[0],
            UpdateId { round: 1, slot: 0 },
            "oldest first"
        );
        assert_eq!(out.to_responder[0], UpdateId { round: 0, slot: 0 });
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
        assert_eq!(out.to_initiator.len(), 2, "initiator needed 3, gets min+1");
        assert_eq!(out.to_responder.len(), 1);
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
        assert_eq!(out.to_initiator.len(), 2);
        assert_eq!(out.to_responder.len(), 2);
    }

    #[test]
    fn rate_limit_caps_both_directions() {
        let (a, b, now) = pair(4, &[(0, 0), (0, 1), (0, 2)], &[(1, 0), (1, 1), (1, 2)]);
        let out = balanced_exchange(&a, &b, now, false, Some(2));
        assert_eq!(out.to_initiator.len(), 2);
        assert_eq!(out.to_responder.len(), 2);
    }

    #[test]
    fn push_moves_recents_for_olds() {
        // now = 7, old_age 4, recent_age 1.
        // Initiator has recents (7,0),(7,1) and misses old (0,0),(1,0)
        // which the responder has.
        let (a, b, now) = pair(7, &[(7, 0), (7, 1)], &[(0, 0), (1, 0)]);
        let out = optimistic_push(&a, &b, now, 2, 4, 1, None);
        assert_eq!(out.to_responder.len(), 2, "responder takes both recents");
        assert_eq!(
            out.useful_to_initiator,
            vec![
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
        assert_eq!(out.to_responder.len(), 2);
        assert_eq!(out.useful_to_initiator.len(), 2, "pays one-for-one");
    }

    #[test]
    fn push_pays_junk_when_responder_lacks_olds() {
        let (a, b, now) = pair(7, &[(7, 0), (7, 1)], &[(0, 0)]);
        let out = optimistic_push(&a, &b, now, 2, 4, 1, None);
        assert_eq!(out.to_responder.len(), 2);
        assert_eq!(out.useful_to_initiator.len(), 1);
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
        assert_eq!(out.to_responder.len(), 1);
        assert!(out.useful_to_initiator.len() <= 1);
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
                    out.to_initiator.len(),
                    out.to_responder.len(),
                    1
                ));
                assert!(!is_excessive_service(
                    out.to_responder.len(),
                    out.to_initiator.len(),
                    1
                ));
            }
        }
    }
}

#[cfg(all(test, feature = "proptest-tests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_window(now: Round) -> impl Strategy<Value = WindowSet> {
        proptest::collection::vec((0..=now, 0u32..16), 0..40).prop_map(move |items| {
            let mut w = WindowSet::new(16, (now + 1) as u32);
            for t in 0..=now {
                w.advance(t);
            }
            for (round, slot) in items {
                w.insert(UpdateId { round, slot });
            }
            w
        })
    }

    proptest! {
        #[test]
        fn balanced_exchange_invariants(a in arb_window(5), b in arb_window(5),
                                        unbalanced in any::<bool>(),
                                        cap in proptest::option::of(1u32..5)) {
            let out = balanced_exchange(&a, &b, 5, unbalanced, cap);
            let (gi, gr) = (out.to_initiator.len(), out.to_responder.len());
            // Never exceeds one-for-one plus the defense's single extra.
            prop_assert!(gi <= gr + 1 && gr <= gi + 1);
            if !unbalanced {
                // Without the defense the cap is the only source of asymmetry.
                if cap.is_none() { prop_assert_eq!(gi, gr); }
            }
            if let Some(c) = cap {
                prop_assert!(gi <= c as usize && gr <= c as usize);
            }
            // Transfers are genuinely useful and available.
            for u in &out.to_initiator {
                prop_assert!(b.contains(*u) && !a.contains(*u));
            }
            for u in &out.to_responder {
                prop_assert!(a.contains(*u) && !b.contains(*u));
            }
        }

        #[test]
        fn push_invariants(a in arb_window(5), b in arb_window(5),
                           push_size in 1u32..6) {
            let out = optimistic_push(&a, &b, 5, push_size, 3, 1, None);
            prop_assert!(out.to_responder.len() <= push_size as usize);
            // Payment is exact: useful + junk == taken.
            prop_assert_eq!(
                out.useful_to_initiator.len() + out.junk_to_initiator as usize,
                out.to_responder.len()
            );
            for u in &out.to_responder {
                prop_assert!(a.contains(*u) && !b.contains(*u));
                // Only recents are offered.
                prop_assert!(5 - u.round <= 1);
            }
            for u in &out.useful_to_initiator {
                prop_assert!(b.contains(*u) && !a.contains(*u));
                // Only old updates are requested.
                prop_assert!(5 - u.round >= 3);
            }
        }
    }
}
