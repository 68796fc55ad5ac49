//! Two-phase exchange plans: plan read-only, apply in order.
//!
//! The per-edge call pattern — walk the initiators, and for each one
//! immediately sample a partner, check liveness and links, and commit
//! the exchange — welds *what the schedule says* to *what the round
//! does*. This module splits them:
//!
//! 1. **Plan** ([`PairPlanner`]): for each initiator, the scheduled
//!    partner and a snapshot of pair viability (both ends alive, link
//!    up) are computed into [`PlannedPair`] entries. Planning reads
//!    shared round state but writes only its own output slice, and
//!    partner selection is a pure hash ([`PartnerSchedule::partner_of`]),
//!    not an rng stream.
//! 2. **Apply**: the caller walks the planned pairs in a shuffled
//!    initiator order, skips the ones it cannot apply and commits the
//!    rest — transfers, counters and rng-consuming outcomes. Everything
//!    order-sensitive stays in apply.
//!
//! Where the pairs live is the caller's choice. [`ExchangePlan`] holds a
//! whole round as one flat batch, shuffled in place: a Fisher–Yates
//! shuffle draws only as a function of slice *length*, and the batch
//! has exactly one entry per initiator, so shuffling it draws exactly
//! what shuffling the bare initiator list would. The gossip simulators
//! do the latter: they shuffle the initiator list, and one cursor per
//! phase plans it in blocks of 64 pairs as the apply loop consumes
//! them, which gives the same entries without a per-node batch (a
//! pair's partner depends only on its initiator).
//!
//! A viability snapshot may be taken at any point before its pair is
//! applied — the gossip cursor takes it from the activity index built
//! at the top of the round — because state changes during a round only
//! ever *remove* nodes (evictions, silence cut-offs): a pair planned
//! non-viable can never become viable, so apply skips it
//! unconditionally. A caller whose configuration enables such removals
//! rechecks liveness on the viable remainder as each pair is applied.

use crate::partner::{PartnerSchedule, Protocol};
use crate::rng::{split_mix64, DetRng};
use crate::{NodeId, Round};

/// Flag bit: both endpoints were alive when the plan was laid.
pub const VIABLE: u8 = 1;
/// Flag bit: the network link between the endpoints was up.
pub const LINKED: u8 = 1 << 1;
/// Both flags: the pair can be applied without further checks when no
/// defense can remove nodes mid-phase.
pub const READY: u8 = VIABLE | LINKED;

/// One planned initiation: the initiator, its scheduled partner, and
/// the viability snapshot taken at plan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannedPair {
    /// The node the schedule had initiate.
    pub initiator: NodeId,
    /// The partner the schedule assigned it.
    pub partner: NodeId,
    /// [`VIABLE`] / [`LINKED`] snapshot bits.
    pub flags: u8,
}

impl PlannedPair {
    /// Both ends alive and the link up at plan time.
    #[inline]
    pub fn is_ready(self) -> bool {
        self.flags & READY == READY
    }

    /// Both ends alive at plan time.
    #[inline]
    pub fn is_viable(self) -> bool {
        self.flags & VIABLE != 0
    }

    /// The link between the endpoints was up at plan time. Link state is
    /// static within a round (partition epochs flip at round start), so
    /// this snapshot never goes stale during apply.
    #[inline]
    pub fn is_linked(self) -> bool {
        self.flags & LINKED != 0
    }
}

/// A round-and-protocol-specialized partner selector: the per-round and
/// rejection-threshold mixing of [`PartnerSchedule::partner_of`],
/// hoisted once so per-initiator cost is two `split_mix64` rounds plus
/// the (rare) rejection loop. The draw's remainder is a multiplication
/// by a reciprocal computed here, not a division.
#[derive(Debug, Clone, Copy)]
pub struct PairPlanner {
    round_h: u64,
    tag: u64,
    m: u64,
    threshold: u64,
    /// `⌈2¹²⁸ / m⌉` modulo 2¹²⁸ (so 0 when `m = 1`).
    recip: u128,
}

impl PairPlanner {
    pub(crate) fn new(seed: u64, n: u32, round: Round, proto: Protocol) -> Self {
        let m = u64::from(n - 1);
        PairPlanner {
            round_h: split_mix64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            tag: proto.tag(),
            m,
            threshold: m.wrapping_neg() % m,
            recip: (u128::MAX / u128::from(m)).wrapping_add(1),
        }
    }

    /// `draw % m` without a division (Lemire, Kaser & Kurz 2019, "Faster
    /// remainder by direct computation", Theorem 1 with 128 fractional
    /// bits): the low 128 bits of `recip · draw` are the fraction
    /// `draw / m` scaled by 2¹²⁸, and multiplying them by `m` carries the
    /// remainder into bits 128 and up. Exact for every 64-bit draw,
    /// because `recip · m` exceeds 2¹²⁸ by less than `m ≤ 2⁶⁴`.
    #[inline]
    fn rem(&self, draw: u64) -> u64 {
        let frac = self.recip.wrapping_mul(u128::from(draw));
        let m = u128::from(self.m);
        let carry = (u128::from(frac as u64) * m) >> 64;
        (((frac >> 64) * m + carry) >> 64) as u64
    }

    /// The partner `node` initiates with — bit-identical to
    /// [`PartnerSchedule::partner_of`] for the planner's round and
    /// protocol.
    // lint: hot-loop
    #[inline]
    pub fn partner_of(&self, node: NodeId) -> NodeId {
        let mut h = self.round_h;
        h = split_mix64(h ^ u64::from(node.0).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        h = split_mix64(h ^ self.tag);
        let mut draw = h;
        let r = loop {
            if draw >= self.threshold {
                break self.rem(draw);
            }
            draw = split_mix64(draw);
        } as u32;
        if r >= node.0 {
            NodeId(r + 1)
        } else {
            NodeId(r)
        }
    }

    /// Fill `out` with one [`PlannedPair`] per yielded initiator, in
    /// yield order: partner from the schedule, flags from `flags_of`.
    /// `out` must be pre-sized to exactly the initiator count (the
    /// shard map's cached popcounts give workers that number without a
    /// prior walk).
    ///
    /// # Panics
    ///
    /// Panics when `nodes` yields more or fewer initiators than `out`
    /// holds.
    // lint: hot-loop
    pub fn fill(
        &self,
        nodes: impl IntoIterator<Item = NodeId>,
        mut flags_of: impl FnMut(NodeId, NodeId) -> u8,
        out: &mut [PlannedPair],
    ) {
        let mut k = 0usize;
        for initiator in nodes {
            let partner = self.partner_of(initiator);
            out[k] = PlannedPair {
                initiator,
                partner,
                flags: flags_of(initiator, partner),
            };
            k += 1;
        }
        assert_eq!(k, out.len(), "plan segment size must match its walk");
    }
}

impl PartnerSchedule {
    /// A [`PairPlanner`] for `round` under `proto` — the batched,
    /// hoisted form of [`PartnerSchedule::partner_of`].
    pub fn planner(&self, round: Round, proto: Protocol) -> PairPlanner {
        PairPlanner::new(self.seed(), self.len(), round, proto)
    }
}

/// A reusable batch of a whole round's [`PlannedPair`] entries, one per
/// initiator, shuffled in place. Its shuffled entries are the reference
/// for block-wise planning of a shuffled initiator list (see the module
/// docs).
///
/// ```
/// use netsim::partner::{PartnerSchedule, Protocol};
/// use netsim::plan::{ExchangePlan, READY};
/// use netsim::rng::DetRng;
/// use netsim::NodeId;
///
/// let sched = PartnerSchedule::new(42, 250);
/// let planner = sched.planner(7, Protocol::BalancedExchange);
/// let mut plan = ExchangePlan::new();
/// plan.reset(250);
/// planner.fill(NodeId::all(250), |_, _| READY, plan.entries_mut());
/// // Same draws as shuffling a 250-entry initiator list:
/// plan.shuffle(&mut DetRng::seed_from(1).fork_idx("order", 7));
/// for e in plan.entries() {
///     assert_eq!(e.partner, sched.partner_of(e.initiator, 7, Protocol::BalancedExchange));
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExchangePlan {
    entries: Vec<PlannedPair>,
}

impl ExchangePlan {
    /// An empty plan (no capacity yet; grows on first use and then
    /// stays allocation-free at steady state).
    pub fn new() -> Self {
        ExchangePlan::default()
    }

    /// Number of planned pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Size the batch for `count` pairs, reusing capacity. Entries are
    /// left in a default state for the fill to overwrite.
    // lint: hot-loop
    pub fn reset(&mut self, count: usize) {
        self.entries.clear();
        self.entries.resize(count, PlannedPair::default());
    }

    /// The planned pairs.
    pub fn entries(&self) -> &[PlannedPair] {
        &self.entries
    }

    /// The planned pairs, mutably — workers fill disjoint subslices of
    /// this during the plan phase.
    pub fn entries_mut(&mut self) -> &mut [PlannedPair] {
        &mut self.entries
    }

    /// Shuffle the batch with `rng`. A Fisher–Yates shuffle's draw
    /// sequence depends only on the slice *length*, and the batch holds
    /// exactly one entry per initiator — so this consumes the rng
    /// stream bit-identically to the legacy shuffle of a bare initiator
    /// list, which is what keeps golden figures byte-stable across the
    /// plan/apply redesign.
    // lint: hot-loop
    pub fn shuffle(&mut self, rng: &mut DetRng) {
        rng.shuffle(&mut self.entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_matches_partner_of() {
        let s = PartnerSchedule::new(23, 97);
        for round in [0u64, 1, 7, 1000] {
            for proto in [
                Protocol::BalancedExchange,
                Protocol::OptimisticPush,
                Protocol::Other(3),
            ] {
                let planner = s.planner(round, proto);
                for v in NodeId::all(97) {
                    assert_eq!(planner.partner_of(v), s.partner_of(v, round, proto));
                }
            }
        }
    }

    #[test]
    fn reciprocal_remainder_equals_the_division() {
        let mut cases = DetRng::seed_from(41);
        // Node counts: m = n - 1 is 1, a power of two, or near 2³².
        let mut counts = vec![
            2,
            3,
            5,
            17,
            257,
            (1 << 20) + 1,
            (1 << 31) + 1,
            u32::MAX - 1,
            u32::MAX,
        ];
        counts.extend((0..40).map(|_| (cases.next_u32() >> cases.range(31)).max(2)));
        for n in counts {
            let planner = PairPlanner::new(7, n, 0, Protocol::BalancedExchange);
            let m = planner.m;
            let mut draws = vec![0, 1, m - 1, m, m + 1, u64::MAX, u64::MAX - 1];
            draws.extend([u64::MAX / m * m, (u64::MAX / m * m).wrapping_sub(1)]);
            draws.extend((0..500).map(|_| cases.next_u64() >> cases.range(64)));
            for draw in draws {
                assert_eq!(planner.rem(draw), draw % m, "draw {draw} % {m}");
            }
        }
    }

    #[test]
    fn fill_preserves_walk_order_and_flags() {
        let s = PartnerSchedule::new(5, 40);
        let planner = s.planner(3, Protocol::OptimisticPush);
        let mut plan = ExchangePlan::new();
        let actives: Vec<NodeId> = NodeId::all(40).filter(|v| v.0 % 3 == 0).collect();
        plan.reset(actives.len());
        planner.fill(
            actives.iter().copied(),
            |v, p| if (v.0 + p.0) % 2 == 0 { READY } else { VIABLE },
            plan.entries_mut(),
        );
        for (v, e) in actives.iter().zip(plan.entries()) {
            assert_eq!(e.initiator, *v);
            assert_eq!(e.partner, s.partner_of(*v, 3, Protocol::OptimisticPush));
            let want = if (v.0 + e.partner.0) % 2 == 0 {
                READY
            } else {
                VIABLE
            };
            assert_eq!(e.flags, want);
            assert!(e.is_viable());
            assert_eq!(e.is_ready(), want == READY);
        }
    }

    #[test]
    #[should_panic(expected = "plan segment size")]
    fn fill_rejects_size_mismatch() {
        let s = PartnerSchedule::new(5, 10);
        let mut plan = ExchangePlan::new();
        plan.reset(3);
        s.planner(0, Protocol::BalancedExchange).fill(
            NodeId::all(2),
            |_, _| READY,
            plan.entries_mut(),
        );
    }

    #[test]
    fn shuffle_consumes_the_same_stream_as_a_bare_list() {
        // The redesign's keystone: shuffling the pair batch must draw
        // exactly what shuffling the legacy initiator list drew.
        let s = PartnerSchedule::new(11, 300);
        let planner = s.planner(9, Protocol::BalancedExchange);
        let mut plan = ExchangePlan::new();
        plan.reset(300);
        planner.fill(NodeId::all(300), |_, _| READY, plan.entries_mut());
        plan.shuffle(&mut DetRng::seed_from(77).fork_idx("order", 9));

        let mut legacy: Vec<NodeId> = NodeId::all(300).collect();
        DetRng::seed_from(77)
            .fork_idx("order", 9)
            .shuffle(&mut legacy);

        let got: Vec<NodeId> = plan.entries().iter().map(|e| e.initiator).collect();
        assert_eq!(got, legacy);
    }

    #[test]
    fn reset_reuses_capacity() {
        let mut plan = ExchangePlan::new();
        plan.reset(128);
        assert_eq!(plan.len(), 128);
        let cap_ptr = plan.entries().as_ptr();
        plan.reset(64);
        assert_eq!(plan.len(), 64);
        assert!(!plan.is_empty());
        assert_eq!(plan.entries().as_ptr(), cap_ptr, "no realloc on shrink");
    }
}
