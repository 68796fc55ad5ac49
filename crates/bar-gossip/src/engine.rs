//! The gossip engine: node state and round machinery shared by BAR
//! Gossip ([`crate::BarGossipSim`]) and scrip-mediated gossip
//! ([`crate::ScripGossipSim`]).
//!
//! Both simulators embed one [`GossipEngine`] and keep only their
//! exchange step. The engine owns:
//!
//! * the node state: the [`WindowSlab`] of update windows with the
//!   reference window `full` and the ideal-attack `pool`, the class of
//!   every node and the attacker/honest index lists, the attacker's
//!   target set, the report defense's obedient and evicted sets, the
//!   silence cut-off, and the engaged set;
//! * the timing layer ([`RoundEnvelope`], always with its activity
//!   index), the partner schedule and the root, masquerade and seeding
//!   streams;
//! * the round prologue ([`GossipEngine::begin_round`]: envelope step,
//!   crash clear, engaging arrivals), window expiry with the delivery
//!   counters ([`GossipEngine::advance_windows`]), broadcaster seeding
//!   ([`GossipEngine::seed_round`]) and the plan half of every exchange
//!   round: the shuffled initiator list ([`GossipEngine::plan_phase`])
//!   and its pairs, planned one block at a time
//!   ([`GossipEngine::plan_block`]);
//! * the read-outs: [`GossipEngine::delivery`] and the per-node
//!   usability counters.
//!
//! # Engaged rows
//!
//! Only *engaged* rows are shifted when a round expires. A node engages
//! when it is first present (at build, or when its arrival wave lands in
//! [`GossipEngine::begin_round`]). A row that is not engaged must stay
//! all-zero — the empty window at any alignment — so whoever writes to
//! a row of a node that may never have been present engages it first
//! ([`GossipEngine::engage`]).
//!
//! # Kept model differences
//!
//! The two protocols are different models, and these differences change
//! reports, so each stays in its simulator's own code:
//!
//! 1. **Streams.** BAR Gossip forks its root from `"bar-gossip"` and
//!    shuffles each exchange round with `fork_idx("balanced-order", t)`,
//!    `"push-order"` or `"digest-order"`. Scrip-gossip forks from
//!    `"scrip-gossip"` and shuffles with `fork_idx("order", 4t + tag)`,
//!    tag 1 for the first sub-protocol and 2 for the second.
//! 2. **Dense plans.** BAR Gossip plans every node only while the
//!    population fits one shard, and otherwise only active shards.
//!    Scrip-gossip plans every node at any size. The caller passes this
//!    as `dense` to [`GossipEngine::plan_phase`].
//! 3. **The ideal pool.** BAR Gossip's pool collects the broadcaster
//!    seeds that land on attackers, and forwards it to live targets with
//!    metered bandwidth. Scrip-gossip rebuilds it each round as the
//!    union of every attacker row and forwards it, unmetered, to every
//!    target, absent and crashed ones included; it engages each row it
//!    writes.
//! 4. **Slot accounting.** Scrip-gossip skips a crash or ideal attacker's
//!    initiation before it counts a partition-blocked pair; BAR Gossip
//!    counts the blocked pair first.
//! 5. **Responder caps.** BAR Gossip clears its served counters over
//!    the active shards at the start of each sub-protocol phase, so
//!    each sub-protocol has its own cap. Scrip-gossip keeps one counter
//!    across both sub-protocols, cleared once per round.
//!
//! # Hot-loop invariants
//!
//! Every per-round method is allocation-free in steady state: index
//! lists are scratch buffers owned by the engine, reserved to their
//! ceilings at build. The one per-node list is the initiator list
//! `order` (4 bytes per node), which seeding reuses as its active list;
//! planned pairs live only in the apply loop's stack block of
//! [`PLAN_BLOCK`] entries. Seeding draws each update's copies with
//! Floyd's algorithm over the `picked` bitset
//! ([`BitSet::sample_into`]) and clears only the bits it picked, so a
//! draw costs `O(copies)` whatever the population.
//!
//! Every row of the slab advances in lockstep, so an exchange never
//! re-derives what is constant for the round: the apply arms hand the
//! exchange layer's row kernels ([`crate::exchange::balanced_rows`],
//! [`crate::exchange::push_rows`], [`crate::update::wanted_rows`]) bare
//! row words and an age band the phase computed once
//! ([`WindowSlab::band_into`]), and check the alignment of `full` or
//! `pool` against the rows once per phase, not once per pair.
//!
//! Across a multi-shard population the apply loops are bound by memory
//! latency, not by the exchange arithmetic: each pair reads two window
//! rows, two classes and a responder counter at random indices into
//! per-node arrays larger than the core's cache, one pair at a time
//! inside a branchy loop. So a block that is not dense is *gathered*
//! right after it is planned ([`GossipEngine::plan_block`]): those
//! words are read for every viable pair up front, and the block's
//! independent cache misses overlap. The gather only reads, so reports
//! cannot change. Dense plans (Table 1 and every other single-shard
//! run, and scrip-gossip at any size) skip it: there the arrays fit the
//! cache and the reads would be pure overhead. In `bar-gossip-1m`'s
//! burst round (1M pairs a phase) it about halved each apply phase on a
//! 2-vCPU Xeon VM. Reading the classes as well helped further: against
//! rows and counters alone it won 14 of 16 paired balanced-phase runs.

use crate::attack::{AttackKind, AttackPlan};
use crate::config::BarGossipConfig;
use crate::sim::{ClassDelivery, NodeClass};
use crate::update::{UpdateId, WindowSet, WindowSlab};
use lotus_core::bitset::BitSet;
use lotus_core::defense::SilenceCutoff;
use lotus_core::envelope::{RoundEnvelope, Shield, Timing};
use lotus_core::pool::WorkerPool;
use lotus_core::schedule::{self, MetricKey};
use netsim::partner::{PartnerSchedule, Protocol};
use netsim::plan::{PairPlanner, PlannedPair, LINKED, VIABLE};
use netsim::rng::DetRng;
use netsim::{NodeId, Round};

/// Active-node floor below which the plan phase stays on the calling
/// thread even when the pool has more workers: at small populations the
/// spawn/join cost of a scoped chunk fan-out exceeds the walk itself,
/// and the sequential path is what the alloc-guard suite pins as
/// allocation-free.
const PLAN_POOL_MIN_ACTIVE: usize = 1 << 14;

/// Pairs the apply loops plan at a time ([`GossipEngine::plan_block`]):
/// a stack block small enough to stay in L1, large enough that the
/// partner hashing runs as a tight loop rather than once per apply step.
pub(crate) const PLAN_BLOCK: usize = 64;

/// Index of a class in the per-class counter arrays.
fn class_idx(class: NodeClass) -> usize {
    match class {
        NodeClass::Isolated => 0,
        NodeClass::Satiated => 1,
        NodeClass::Attacker => 2,
    }
}

/// Node state and round machinery of a gossip simulator (see the module
/// docs). Fields are crate-visible: the embedding simulator's exchange
/// step reads and writes them directly.
#[derive(Debug, Clone)]
pub(crate) struct GossipEngine {
    pub(crate) cfg: BarGossipConfig,
    pub(crate) plan: AttackPlan,
    /// Per-node update windows, one slab row per node, in lockstep with
    /// `full`. Only engaged rows are shifted when a round expires.
    pub(crate) windows: WindowSlab,
    /// Every update released (the reference window).
    pub(crate) full: WindowSet,
    /// The ideal attack's out-of-band pool.
    pub(crate) pool: WindowSet,
    /// Metric class fixed at assignment time.
    pub(crate) class: Vec<NodeClass>,
    /// Nodes the attacker currently tries to satiate: the satiated
    /// class, unless BAR Gossip rotates it.
    pub(crate) target: BitSet,
    /// Obedient reporters (report-and-evict defense).
    pub(crate) obedient: BitSet,
    /// Evicted by the report defense.
    pub(crate) evicted: BitSet,
    /// The silence cut-off defense (cut nodes are excluded like
    /// `evicted`).
    pub(crate) cutoff: SilenceCutoff,
    /// Nodes that have ever been present, or whose row was written
    /// before they were (see the module docs).
    pub(crate) engaged: BitSet,
    /// Attacker node indices, ascending (class is fixed at assignment).
    pub(crate) attacker_list: Vec<u32>,
    /// Honest node indices, ascending.
    pub(crate) honest_list: Vec<u32>,
    /// Static per-class node counts, indexed by [`class_idx`]. Expiry
    /// accounting multiplies by these totals, so rows that were never
    /// engaged still count against delivery.
    pub(crate) class_counts: [u64; 3],
    /// The timing layer: churn membership, fault injection and attack
    /// timing. Its activity index (present ∧ ¬down ∧ ¬evicted ∧ ¬cut,
    /// rebuilt at the top of every round) is what the round walks
    /// instead of `0..n`.
    pub(crate) env: RoundEnvelope,
    pub(crate) rng: DetRng,
    /// Fault-masquerading attackers' silence draws. Forked at
    /// construction (stream-invisible) and drawn from only when a
    /// masquerade attacker sends — `chance(0.0)` draws nothing, so on a
    /// perfect network the attacker is bit-for-bit honest.
    masq_rng: DetRng,
    pub(crate) schedule: PartnerSchedule,
    /// delivered[class] / totals[class] over expired measured rounds.
    pub(crate) delivered: [u64; 3],
    pub(crate) totals: [u64; 3],
    /// Per-expired-measured-round isolated delivery.
    pub(crate) isolated_series: Vec<(Round, f64)>,
    /// Per-node delivered updates over measured expired rounds.
    pub(crate) node_delivered: Vec<u64>,
    /// Per-node count of measured rounds below the usability threshold.
    pub(crate) node_unusable_rounds: Vec<u32>,
    /// Measured expired rounds so far.
    pub(crate) measured_rounds: u32,
    /// Intra-run worker pool for the multi-shard initiator-list fill
    /// (`cfg.run_threads`; figures are byte-identical for any count).
    run_pool: WorkerPool,
    /// The round's node list, reserved to one entry per node: seeding's
    /// ascending active list, then each exchange phase's shuffled
    /// initiator list ([`GossipEngine::plan_phase`]), which the apply
    /// loop plans block by block ([`GossipEngine::plan_block`]).
    pub(crate) order: Vec<u32>,
    /// Whether the current phase's plan is dense
    /// ([`GossipEngine::plan_phase`]): dense plans skip the block
    /// gather in [`GossipEngine::plan_block`].
    dense: bool,
    // Scratch buffers; contents are meaningless between phases.
    picks_scratch: Vec<usize>,
    /// Seeding's membership set over `order` positions, clear between
    /// draws ([`BitSet::sample_into`]).
    picked: BitSet,
    /// Per-chunk entry counts for the pool's partitioned fill of `order`.
    chunk_sizes: Vec<usize>,
    /// Per-chunk shard-range bounds, parallel to `chunk_sizes`.
    chunk_bounds: Vec<(usize, usize)>,
}

impl GossipEngine {
    /// Assign classes and build the node state for `cfg` under `plan`,
    /// drawing from `rng`, the simulator's root stream.
    pub(crate) fn new(cfg: BarGossipConfig, plan: AttackPlan, rng: DetRng) -> Self {
        let n = cfg.nodes;
        // Assign attacker nodes, then satiated targets among the honest.
        // Each draw is a set (`BitSet::sample` draws what a sampled index
        // list would), dropped as soon as it is read: a sample kept alive
        // past the index lists' allocation raised `flash-crowd-1m` peak
        // RSS by ~3.6 MiB (heap placement across the benchmark's three
        // builds). The index lists are sized exactly.
        let mut assign_rng = rng.fork("assignment");
        let attacker_count = plan.attacker_count(n) as usize;
        let mut class = vec![NodeClass::Isolated; n as usize];
        for i in BitSet::sample(n as usize, attacker_count, &mut assign_rng).iter() {
            class[i] = NodeClass::Attacker;
        }
        let mut attacker_list = Vec::with_capacity(attacker_count);
        let mut honest_list = Vec::with_capacity(n as usize - attacker_count);
        for i in 0..n {
            if class[i as usize] == NodeClass::Attacker {
                attacker_list.push(i);
            } else {
                honest_list.push(i);
            }
        }
        let honest = honest_list.len();
        let satiated_count = (plan.satiated_honest_count(n) as usize).min(honest);
        for hi in BitSet::sample(honest, satiated_count, &mut assign_rng).iter() {
            class[honest_list[hi] as usize] = NodeClass::Satiated;
        }
        // Obedient reporters among honest nodes, drawn only under the
        // report defense.
        let mut obedient = BitSet::new(n as usize);
        if let Some(report) = &cfg.defenses.report {
            let k = ((honest as f64) * report.obedient_fraction).round() as usize;
            for hi in BitSet::sample(honest, k.min(honest), &mut assign_rng).iter() {
                obedient.insert(honest_list[hi] as usize);
            }
        }
        let mut target = BitSet::new(n as usize);
        let mut class_counts = [0u64; 3];
        for (i, &c) in class.iter().enumerate() {
            class_counts[class_idx(c)] += 1;
            if c == NodeClass::Satiated {
                target.insert(i);
            }
        }

        // Flash-crowd nodes are withdrawn now (index-ordered, no
        // randomness) and enter with empty windows at their wave's
        // round. Attackers are exempt from the holdback — they churn
        // like anyone but the crowd itself is honest — so the defection
        // and the crowd stay independently timed dimensions.
        let timing = Timing {
            churn: cfg.churn,
            arrival: cfg.arrival,
            faults: cfg.faults,
            schedule: plan.schedule,
        };
        let env = RoundEnvelope::new(n as usize, timing, &rng, true, |i| {
            if class[i] == NodeClass::Attacker {
                Shield::Crowd
            } else {
                Shield::None
            }
        });
        // Everyone present at round 0 is engaged.
        let engaged = env.population().present().clone();
        let (per_round, lifetime) = (cfg.updates_per_round, cfg.update_lifetime);
        GossipEngine {
            windows: WindowSlab::new(n as usize, per_round, lifetime),
            full: WindowSet::new(per_round, lifetime),
            pool: WindowSet::new(per_round, lifetime),
            target,
            obedient,
            evicted: BitSet::new(n as usize),
            cutoff: SilenceCutoff::new(
                n as usize,
                cfg.defenses.cutoff_quorum,
                attacker_list.len() as u32,
            ),
            engaged,
            class_counts,
            env,
            masq_rng: rng.fork("masquerade"),
            schedule: PartnerSchedule::new(rng.fork("schedule").next_u64(), n),
            delivered: [0; 3],
            totals: [0; 3],
            // One sample per measured round, reserved so the push in
            // `advance_windows` never reallocates mid-run.
            isolated_series: Vec::with_capacity(cfg.rounds as usize),
            node_delivered: vec![0; n as usize],
            node_unusable_rounds: vec![0; n as usize],
            measured_rounds: 0,
            run_pool: WorkerPool::new(cfg.run_threads),
            // One entry per node, so even the round a flash crowd lands
            // allocates nothing.
            order: Vec::with_capacity(n as usize),
            dense: true,
            picks_scratch: Vec::with_capacity(cfg.copies_seeded as usize),
            picked: BitSet::new(n as usize),
            chunk_sizes: Vec::new(),
            chunk_bounds: Vec::new(),
            class,
            attacker_list,
            honest_list,
            rng,
            cfg,
            plan,
        }
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.class.len()
    }

    pub(crate) fn is_attacker(&self, node: NodeId) -> bool {
        self.class[node.index()] == NodeClass::Attacker
    }

    /// Whether the attack is on and `node` runs it openly: a covert
    /// (masquerade/poison) attacker's defection lives inside the
    /// delivery step, so it takes the honest path everywhere else.
    pub(crate) fn overt_attacker(&self, node: NodeId) -> bool {
        self.env.attack_active() && !self.plan.kind.covert() && self.is_attacker(node)
    }

    /// Present, not crashed, not evicted and not cut.
    pub(crate) fn alive(&self, node: NodeId) -> bool {
        let i = node.index();
        !self.evicted.contains(i) && !self.cutoff.is_cut(i) && self.env.is_up(i)
    }

    /// Whether `sender`'s side of this interaction goes silent: a
    /// fault-masquerading attacker withholds at the *round-aware*
    /// ambient fault rate
    /// ([`lotus_core::faults::FaultState::ambient_silence_rate`]), which
    /// folds expected partition blocking in while an epoch is open —
    /// matching only loss and delay would understate real ambient
    /// silence there and make the masquerade statistically visible. Its
    /// defections stay indistinguishable from background silence. Draws
    /// nothing for honest senders, other attack kinds, or a zero
    /// ambient rate (`chance(0.0)` is draw-free).
    pub(crate) fn masquerade_silent(&mut self, sender: NodeId) -> bool {
        if !self.env.attack_active()
            || self.plan.kind != AttackKind::Masquerade
            || !self.is_attacker(sender)
        {
            return false;
        }
        let rate = self.env.faults().ambient_silence_rate();
        self.masq_rng.chance(rate)
    }

    /// `observer` expected a delivery from `partner` and got nothing: a
    /// silence cut-off strike. Returns whether it cut `partner`.
    pub(crate) fn accuse(&mut self, observer: NodeId, partner: NodeId) -> bool {
        let class = &self.class;
        self.cutoff.accuse(observer.index(), partner.index(), |i| {
            class[i] == NodeClass::Attacker
        })
    }

    /// Engage `node` if it is not engaged yet (see
    /// [`GossipEngine::engage`]).
    pub(crate) fn ensure_engaged(&mut self, node: usize) {
        if !self.engaged.contains(node) {
            self.engaged.insert(node);
            self.node_unusable_rounds[node] = self.measured_rounds;
        }
    }

    /// Engage every node of `set` that is not engaged yet, one word at a
    /// time: seed its unusable-round counter with the measured expiries
    /// it slept through (it delivered nothing in each of them, exactly
    /// like an empty window). Its row needs no fast-forward: it is still
    /// all-zero, the empty window in lockstep.
    // lint: hot-loop
    pub(crate) fn engage(
        engaged: &mut BitSet,
        unusable_rounds: &mut [u32],
        measured_rounds: u32,
        set: &BitSet,
    ) {
        for (w, &word) in set.words().iter().enumerate() {
            let mut fresh = word & !engaged.words()[w];
            while fresh != 0 {
                let i = w * 64 + fresh.trailing_zeros() as usize;
                fresh &= fresh - 1;
                engaged.insert(i);
                unusable_rounds[i] = measured_rounds;
            }
        }
    }

    /// The round prologue: step the timing layer (the activity index
    /// excludes evicted and cut nodes; nothing becomes alive mid-round,
    /// so the index is a superset of every later `alive()` check), clear
    /// the windows a crash lost, and engage nodes whose arrival wave
    /// just landed.
    // lint: hot-loop
    pub(crate) fn begin_round(&mut self, t: Round) {
        self.env.begin_round(
            t,
            &[&self.evicted, self.cutoff.cut_set()],
            |key, _| match key {
                MetricKey::FalseCutRate => self.cutoff.stats().map(|c| c.false_cut_rate()),
                _ => schedule::class_delivery_observation(&self.delivered, &self.totals, key),
            },
        );
        // State-losing crash: unlike churned-out nodes, which keep their
        // windows while away, a crashed node re-enters cold.
        for i in self.env.faults().just_crashed().iter() {
            self.windows.clear(i);
        }
        Self::engage(
            &mut self.engaged,
            &mut self.node_unusable_rounds,
            self.measured_rounds,
            self.env.population().present(),
        );
    }

    /// Slide every window; account the expired (measured) round.
    ///
    /// The slab's shared alignment moves in `O(1)`; per-row work happens
    /// only on rounds where a release expires, and only for engaged rows
    /// — `O(engaged)`. A row that is not engaged is all-zero, so its
    /// contribution is `got = 0` with one unusable round per measured
    /// expiry: the class totals use the static per-class counts, and the
    /// unusable rounds are settled at engage and report time.
    // lint: hot-loop
    pub(crate) fn advance_windows(&mut self, t: Round) {
        let popped_full = self.full.advance(t);
        let _ = self.pool.advance(t);
        let expired = self.windows.advance(t);
        let Some((expired_round, full_mask)) = popped_full else {
            return;
        };
        debug_assert_eq!(expired, Some(expired_round), "rows advance with `full`");
        let measured = self.cfg.is_measured_round(expired_round);
        let total = u64::from(full_mask.count_ones());
        let mut class_delivered = [0u64; 3];
        let usable_floor = self.cfg.usability_threshold;
        for i in self.engaged.iter() {
            let mask = self.windows.shift(i);
            if !measured {
                continue;
            }
            let ci = class_idx(self.class[i]);
            let got = u64::from((mask & full_mask).count_ones());
            class_delivered[ci] += got;
            if self.class[i] != NodeClass::Attacker {
                self.node_delivered[i] += got;
                if total > 0 && (got as f64 / total as f64) <= usable_floor {
                    self.node_unusable_rounds[i] += 1;
                }
            }
        }
        if measured {
            self.measured_rounds += 1;
            for (ci, got) in class_delivered.iter().enumerate() {
                self.delivered[ci] += got;
                self.totals[ci] += total * self.class_counts[ci];
            }
            let iso = if self.class_counts[0] * total > 0 {
                class_delivered[0] as f64 / (self.class_counts[0] * total) as f64
            } else {
                0.0
            };
            self.isolated_series.push((expired_round, iso));
        }
    }

    /// The broadcaster releases round `t`'s batch and seeds each update
    /// to `copies_seeded` random active nodes. The broadcaster is
    /// reliable infrastructure (the paper's content source): seeding is
    /// not subject to message faults, but crashed and cut nodes receive
    /// no seeds. The shard walk yields exactly the `(0..n).filter(alive)`
    /// list in ascending order, so the seeding draws match a dense scan.
    /// Seeds landing on an ideal attacker enter the pool. The active list
    /// is collected into `order`, which the exchange phases then refill.
    // lint: hot-loop
    pub(crate) fn seed_round(&mut self, t: Round) {
        self.env.shards().collect_active_into(&mut self.order);
        let mut picks = std::mem::take(&mut self.picks_scratch);
        let copies = (self.cfg.copies_seeded as usize).min(self.order.len());
        let mut seed_rng = self.rng.fork_idx("seeding", t);
        for slot in 0..self.cfg.updates_per_round {
            let id = UpdateId { round: t, slot };
            self.full.insert(id);
            // The picks matter only as a set, so Floyd's draws test
            // membership in a bitset; each pick's bit is cleared as it
            // is used.
            self.picked
                .sample_into(self.order.len(), copies, &mut seed_rng, &mut picks);
            for &pick in &picks {
                self.picked.remove(pick);
                let i = self.order[pick] as usize;
                self.windows.insert(i, id);
                if self.class[i] == NodeClass::Attacker
                    && self.plan.kind == AttackKind::IdealLotusEater
                {
                    self.pool.insert(id);
                }
            }
        }
        self.picks_scratch = picks;
    }

    /// Whether a configured defense can remove nodes *during* an
    /// exchange phase: report-and-evict inserts into `evicted` and the
    /// silence cut-off inserts into `cut` while pairs are being applied.
    /// When neither is on, aliveness is fixed for the whole round (churn
    /// and faults only flip at round start), so the plan's viability
    /// snapshot stays exact through apply and the hot path can skip the
    /// per-pair liveness probes entirely.
    pub(crate) fn strict(&self) -> bool {
        self.cfg.defenses.report.is_some() || self.cutoff.is_on()
    }

    /// Plan-time viability snapshot for a pair. In strict mode this
    /// probes the live [`GossipEngine::alive`] sets; otherwise the
    /// round-top shard snapshot *is* aliveness — one probe per endpoint
    /// instead of four. Link state is static within a round, so it is
    /// only sampled for viable pairs (apply never reads it on skipped
    /// ones).
    // lint: hot-loop
    #[inline]
    fn pair_flags(&self, v: NodeId, p: NodeId, strict: bool) -> u8 {
        let viable = if strict {
            self.alive(v) && self.alive(p)
        } else {
            let shards = self.env.shards();
            shards.contains(v.index()) && shards.contains(p.index())
        };
        if !viable {
            return 0;
        }
        if self.env.faults().link_up(v.index(), p.index()) {
            VIABLE | LINKED
        } else {
            VIABLE
        }
    }

    /// Partition the shard range into at most `run_pool.threads()`
    /// contiguous chunks of near-equal active counts (from the shard
    /// map's cached popcounts — no walk). Chunk boundaries depend on
    /// the worker count, but their concatenation is always the full
    /// ascending shard walk, so the initiator list never does.
    /// Populations under [`PLAN_POOL_MIN_ACTIVE`] stay on one chunk: the
    /// fan-out costs more than the walk, and the sequential path is what
    /// the alloc-guard suite pins as allocation-free.
    fn plan_chunks(&self, total: usize, sizes: &mut Vec<usize>, bounds: &mut Vec<(usize, usize)>) {
        sizes.clear();
        bounds.clear();
        let workers = if total >= PLAN_POOL_MIN_ACTIVE {
            self.run_pool.threads().max(1)
        } else {
            1
        };
        let shards = self.env.shards();
        let shard_count = shards.shard_count();
        if workers <= 1 {
            sizes.push(total);
            bounds.push((0, shard_count));
            return;
        }
        let target = total.div_ceil(workers);
        let mut lo = 0usize;
        let mut acc = 0usize;
        for s in 0..shard_count {
            acc += shards.shard_active_count(s) as usize;
            if acc >= target && sizes.len() + 1 < workers {
                sizes.push(acc);
                bounds.push((lo, s + 1));
                lo = s + 1;
                acc = 0;
            }
        }
        sizes.push(acc);
        bounds.push((lo, shard_count));
    }

    /// The plan half of an exchange round: fill `order` with the round's
    /// initiators and shuffle it with `order_rng`, then return the
    /// round's [`PairPlanner`] for the apply loop's
    /// [`GossipEngine::plan_block`] calls. A `dense` plan covers every
    /// node in index order; otherwise only the active shards enter the
    /// list (ascending walk, chunk-partitioned across the worker pool),
    /// which keeps the round `O(active)` instead of `O(population)`.
    ///
    /// The shuffled list is the permutation a shuffled batch of planned
    /// pairs ([`netsim::plan::ExchangePlan::shuffle`]) would hold: a
    /// Fisher–Yates shuffle's draws depend only on length, and a pair's
    /// partner only on its initiator.
    // lint: hot-loop
    pub(crate) fn plan_phase(
        &mut self,
        t: Round,
        proto: Protocol,
        mut order_rng: DetRng,
        dense: bool,
    ) -> PairPlanner {
        self.order.clear();
        self.dense = dense;
        if dense {
            let n = self.node_count() as u32;
            self.order.extend(0..n);
        } else {
            let total = self.env.shards().active_count();
            self.order.resize(total, 0);
            let mut sizes = std::mem::take(&mut self.chunk_sizes);
            let mut bounds = std::mem::take(&mut self.chunk_bounds);
            self.plan_chunks(total, &mut sizes, &mut bounds);
            let shards = self.env.shards();
            let bounds_ref = &bounds;
            self.run_pool
                .run_partitioned(&mut self.order, &sizes, |chunk, out| {
                    let (lo, hi) = bounds_ref[chunk];
                    let mut k = 0usize;
                    shards.for_each_active_in(lo..hi, |i| {
                        out[k] = i as u32;
                        k += 1;
                    });
                    debug_assert_eq!(k, out.len(), "chunk sizes must match the shard walk");
                });
            self.chunk_sizes = sizes;
            self.chunk_bounds = bounds;
        }
        order_rng.shuffle(&mut self.order);
        self.schedule.planner(t, proto)
    }

    /// Plan the initiators `order[start..start + PLAN_BLOCK]` (fewer at
    /// the list's tail) into `out`: each one's scheduled partner and a
    /// viability snapshot ([`GossipEngine::pair_flags`]), taken now
    /// rather than at the top of the phase. Aliveness only shrinks
    /// within a phase, so a pair that is not viable here could not be
    /// applied either, and strict mode rechecks the viable remainder
    /// against removals made while the block is applied.
    ///
    /// Unless the phase is dense, the block is then gathered
    /// ([`GossipEngine::gather_block`]) against `served`, the
    /// simulator's responder counters.
    // lint: hot-loop
    pub(crate) fn plan_block<'b>(
        &self,
        planner: &PairPlanner,
        start: usize,
        out: &'b mut [PlannedPair; PLAN_BLOCK],
        served: &[u32],
    ) -> &'b [PlannedPair] {
        let initiators = &self.order[start..(start + PLAN_BLOCK).min(self.order.len())];
        let out = &mut out[..initiators.len()];
        let strict = self.strict();
        planner.fill(
            initiators.iter().map(|&i| NodeId(i)),
            |v, p| self.pair_flags(v, p, strict),
            out,
        );
        if !self.dense {
            self.gather_block(out, served);
        }
        out
    }

    /// Read what the apply arms are about to touch for every viable pair
    /// of a planned block — the first word of both rows, both classes
    /// and the responder's `served` counter — so the block's cache misses
    /// overlap (see the module docs). Every apply arm skips a pair
    /// planned non-viable, so its ends are not read: before a flash
    /// crowd lands most scheduled partners are absent. The reads are
    /// folded through [`std::hint::black_box`] so the compiler keeps them.
    // lint: hot-loop
    #[inline]
    fn gather_block(&self, block: &[PlannedPair], served: &[u32]) {
        let mut fold = 0u64;
        for e in block.iter().filter(|e| e.is_viable()) {
            let (v, p) = (e.initiator.index(), e.partner.index());
            fold ^= self.windows.lead_word(v)
                ^ self.windows.lead_word(p)
                ^ u64::from(served[p])
                ^ ((self.class[v] as u64) << 32 | (self.class[p] as u64) << 40);
        }
        std::hint::black_box(fold);
    }

    /// Per-class delivery fractions over the expired measured rounds.
    pub(crate) fn delivery(&self) -> ClassDelivery {
        let frac = |delivered: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                delivered as f64 / total as f64
            }
        };
        ClassDelivery {
            isolated: frac(self.delivered[0], self.totals[0]),
            satiated: frac(self.delivered[1], self.totals[1]),
            overall: frac(
                self.delivered[0] + self.delivered[1],
                self.totals[0] + self.totals[1],
            ),
        }
    }

    /// Measured rounds `node` spent below the usability threshold. A
    /// node that never engaged delivered nothing in every measured
    /// round.
    pub(crate) fn unusable_rounds(&self, node: usize) -> u32 {
        if self.engaged.contains(node) {
            self.node_unusable_rounds[node]
        } else {
            self.measured_rounds
        }
    }
}
