//! The round-based BAR Gossip simulator with attack orchestration.
//!
//! Each round:
//!
//! 1. every window slides forward one round; updates released `lifetime`
//!    rounds ago expire, and their delivery is recorded per node class;
//! 2. the broadcaster releases a fresh batch, seeding each update to
//!    `copies_seeded` random live nodes;
//! 3. under the *ideal* attack, attacker nodes instantly forward their
//!    pooled broadcaster seeds to every satiated-set node (the
//!    out-of-protocol channel the paper postulates);
//! 4. every node initiates one balanced exchange with its
//!    schedule-assigned partner (honest responders serve at most
//!    `responder_cap` incoming exchanges per protocol per round — BAR
//!    Gossip bounds per-round exchanges to limit Byzantine damage);
//! 5. every node missing old updates initiates one optimistic push
//!    likewise; trade-attack nodes use both slots to shower satiated-set
//!    partners with everything *they individually hold* (and give isolated
//!    nodes nothing) — attacker nodes synchronise their holdings only when
//!    the schedule pairs two of them, which is why the trade attack needs
//!    far more nodes than the ideal one;
//! 6. excess-service reports are processed and evictions applied (when the
//!    report-and-evict defense is on).
//!
//! Delivery is measured at expiry: an update counts as delivered to a node
//! iff the node holds it when it leaves the window, i.e. it was received
//! within its lifetime — exactly the streaming-usability notion the paper
//! evaluates.
//!
//! # Plan/apply exchange rounds
//!
//! Phases 4 and 5 run as two sub-phases each (see [`netsim::plan`]):
//! a read-only **plan** walks the live shards in ascending order,
//! batch-selecting every initiator's scheduled partner and a snapshot
//! of pair viability into a flat [`ExchangePlan`]; a sequential
//! **apply** shuffles the batch with the same `fork_idx` stream the
//! legacy initiator-list shuffle drew from (a Fisher–Yates shuffle's
//! draws depend only on length, and the batch has one entry per
//! initiator) and then commits transfers, counters and rng-consuming
//! outcomes pair by pair. Because partner selection is a pure hash and
//! plan-time state is read-only, the plan fill is partitioned along
//! shard bounds across the [`WorkerPool`] — concatenation in chunk
//! order reproduces the ascending walk exactly, so every figure is
//! byte-identical for any `run_threads` value.
//!
//! # Hot-loop invariants
//!
//! The per-round phases are **allocation-free in steady state**: every
//! index list the round loop needs (`alive_scratch`, the exchange-plan
//! batch and its chunk tables, seeding picks, gift/return buffers) is a
//! scratch buffer owned by the sim struct, cleared and refilled in
//! place, and membership tracking (`reporters`, `fed`) uses
//! [`lotus_core::bitset::BitSet`]. The timing layer keeps the invariant:
//! the schedule stepper ([`lotus_core::schedule::ScheduleState`]) and the
//! churn tracker ([`lotus_core::population::Population`]) never allocate,
//! and metric observations for threshold triggers are computed from the
//! running delivery counters, not from a report. Scratch contents are
//! meaningless between phases — each user clears before filling — and
//! none of it affects reports: refactors here must keep reports
//! bit-identical per seed (the determinism, legacy-equivalence and
//! schedule-golden tests are the guardrail).

use crate::attack::{AttackKind, AttackPlan};
use crate::config::{BarGossipConfig, DigestExchangeConfig};
use crate::exchange::{
    balanced_exchange_into, is_excessive_service, optimistic_push_into, wants_push,
    BalancedOutcome, PushOutcome,
};
use crate::update::{UpdateId, WindowSet, WindowSlab, WindowView};
use lotus_core::bitset::BitSet;
use lotus_core::defense::SilenceCutoff;
use lotus_core::digest::{region_hash, BloomIndex};
use lotus_core::envelope::{RoundEnvelope, Shield, Timing};
use lotus_core::faults::{CutStats, Fate, FaultCounters};
use lotus_core::pool::WorkerPool;
use lotus_core::schedule::{self, MetricKey};
use lotus_core::soa::ShardMap;
use netsim::bandwidth::{BandwidthMeter, MsgClass};
use netsim::partner::{PartnerSchedule, Protocol};
use netsim::plan::{ExchangePlan, PlannedPair, LINKED, VIABLE};
use netsim::rng::DetRng;
use netsim::round::RoundSim;
use netsim::sign::Authority;
use netsim::trace::{EventKind, TraceBuffer};
use netsim::{NodeId, Round};

/// Metric class of a node under the running attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Honest node outside the attacker's satiated set (the paper's
    /// figures report *these* nodes' delivery).
    Isolated,
    /// Honest node the attacker tries to satiate.
    Satiated,
    /// Attacker-controlled node.
    Attacker,
}

// Per-node state lives in struct-of-arrays layout on the simulator
// itself (the `windows` slab, `class`, and the `target`/`obedient`/
// `evicted` bitsets), keyed by node index — the flat layout the sharded
// `O(active)` engine iterates.

/// Per-class delivery fractions measured at expiry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassDelivery {
    /// Delivery to isolated honest nodes.
    pub isolated: f64,
    /// Delivery to satiated-set honest nodes.
    pub satiated: f64,
    /// Delivery over all honest nodes.
    pub overall: f64,
}

/// Node-class sizes of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassCounts {
    /// Honest nodes outside the satiated set.
    pub isolated: u32,
    /// Honest nodes inside the satiated set.
    pub satiated: u32,
    /// Attacker nodes.
    pub attacker: u32,
}

/// Wire accounting for the two-leg digest exchange (the
/// `bar-gossip-digest` scenario). Bytes are *attempted-send* bytes —
/// what crossed the sender's interface, whether or not the fault layer
/// delivered it. An update payload is modeled as
/// [`UPDATE_WIRE_BYTES`] and a requested id as [`ID_WIRE_BYTES`];
/// digests cost their exact advertised size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DigestStats {
    /// Bytes spent on digest advertisements (leg 1): `bits/8` per bloom
    /// digest, or 8 bytes per live-round region hash in exact mode.
    pub bytes_digests: u64,
    /// Bytes spent requesting ids (bloom mode: 8 bytes per requested
    /// id) or reconciling divergent regions (exact mode: 8 bytes per
    /// divergent-region mask, each way).
    pub bytes_requests: u64,
    /// Bytes spent shipping requested updates (leg 2).
    pub bytes_updates: u64,
    /// Ids requested across all exchanges.
    pub requests: u64,
    /// Requested ids the sender did not actually hold — bloom false
    /// positives (zero in exact mode). The poisoner's deniability
    /// floor: a withheld id and a false positive look identical to the
    /// receiver.
    pub fp_requests: u64,
    /// Ids a poisoning attacker withheld after advertising them.
    pub withheld: u64,
}

impl DigestStats {
    /// Total attempted bytes on the wire across all three message
    /// classes.
    pub fn bytes_on_wire(&self) -> u64 {
        self.bytes_digests + self.bytes_requests + self.bytes_updates
    }

    /// Fraction of requested ids that were bloom false positives.
    pub fn fp_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.fp_requests as f64 / self.requests as f64
        }
    }
}

/// Final report of a BAR Gossip run.
#[derive(Debug, Clone, PartialEq)]
pub struct BarGossipReport {
    /// Rounds executed (warm-up + measured + drain).
    pub rounds: Round,
    /// Delivery fractions by class.
    pub delivery: ClassDelivery,
    /// Fraction of measured updates the attacker (union over its nodes)
    /// held at expiry — the paper notes an ideal attacker at 4 % holds only
    /// ≈ 39 %, showing partial satiation suffices.
    pub attacker_coverage: f64,
    /// Class sizes.
    pub counts: ClassCounts,
    /// Attacker nodes evicted by the report defense.
    pub evictions: u32,
    /// Junk fraction of all metered traffic.
    pub junk_fraction: f64,
    /// Mean units uploaded per attacker node (the bandwidth cost the paper
    /// notes the trade attack pays and the crash attack does not).
    pub mean_attacker_upload: f64,
    /// Mean units uploaded per honest node.
    pub mean_honest_upload: f64,
    /// Per-expired-measured-round isolated delivery series.
    pub isolated_series: Vec<(Round, f64)>,
    /// The usability threshold the run was configured with.
    pub usability_threshold: f64,
    /// Lowest whole-run delivery over honest nodes.
    pub min_node_delivery: f64,
    /// Fraction of honest nodes that experienced at least one measured
    /// round below the usability threshold (under rotation this tends to
    /// 1.0 — everyone suffers intermittently).
    pub nodes_ever_unusable: f64,
    /// Fraction of honest (node, measured round) samples below the
    /// usability threshold.
    pub unusable_node_rounds: f64,
    /// Silence cut-off outcomes; `None` when the defense is off, so
    /// defense-free reports are unchanged by the cut machinery existing.
    pub cuts: Option<CutStats>,
    /// Fault-injection counters; `None` when the fault plan is inactive.
    pub fault_counters: Option<FaultCounters>,
    /// Digest-exchange wire accounting; `None` under the classic
    /// full-window round, so pre-digest reports are unchanged by the
    /// substrate existing.
    pub digest: Option<DigestStats>,
}

impl BarGossipReport {
    /// Delivery fraction for isolated nodes (the paper's y-axis).
    pub fn isolated_delivery(&self) -> f64 {
        self.delivery.isolated
    }

    /// Delivery fraction for satiated-set nodes.
    pub fn satiated_delivery(&self) -> f64 {
        self.delivery.satiated
    }

    /// Delivery fraction over all honest nodes.
    pub fn overall_delivery(&self) -> f64 {
        self.delivery.overall
    }

    /// Whether isolated nodes find the stream usable (> threshold).
    pub fn isolated_usable(&self) -> bool {
        self.delivery.isolated > self.usability_threshold
    }
}

/// The BAR Gossip simulator.
///
/// ```
/// use bar_gossip::{AttackPlan, BarGossipConfig, BarGossipSim};
///
/// let cfg = BarGossipConfig::builder()
///     .nodes(60)
///     .updates_per_round(4)
///     .copies_seeded(6)
///     .rounds(20)
///     .build()?;
/// let report = BarGossipSim::new(cfg, AttackPlan::none(), 7).run_to_report();
/// assert!(report.overall_delivery() > 0.9, "healthy system delivers");
/// # Ok::<(), bar_gossip::config::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BarGossipSim {
    cfg: BarGossipConfig,
    plan: AttackPlan,
    // ---- struct-of-arrays per-node state, keyed by node index ----
    /// Per-node update windows, one slab row per node, in lockstep with
    /// `full`. Only *engaged* rows (see `engaged`) are shifted when a
    /// round expires; every other row is still all-zero, which is the
    /// empty window at any alignment.
    windows: WindowSlab,
    /// Metric class fixed at assignment time (isolated vs satiated).
    class: Vec<NodeClass>,
    /// Nodes the attacker currently tries to satiate. Equals the
    /// satiated class for the static attacks of Figures 1-3; rotates
    /// under [`AttackPlan::rotation_period`].
    target: BitSet,
    /// Obedient reporters (report-and-evict defense).
    obedient: BitSet,
    /// Evicted by the report defense.
    evicted: BitSet,
    /// The silence cut-off defense (cut nodes are excluded like
    /// `evicted`).
    cutoff: SilenceCutoff,
    /// Nodes that have ever been present. A flash-crowd node still
    /// waiting outside the system is *disengaged*: its slab row is not
    /// shifted (the lazy-window seam that makes `advance_windows`
    /// `O(engaged)` instead of `O(population)`) and it accumulates
    /// zero deliveries — exactly what the dense path computed for it.
    /// Nothing ever writes a disengaged row, so it is still all-zero on
    /// arrival — already the empty window in lockstep, with no
    /// fast-forward — and engaging only seeds its unusable-round
    /// counter with the measured expiries it slept through.
    engaged: BitSet,
    /// Attacker node indices, ascending (class is fixed at assignment).
    attacker_list: Vec<u32>,
    /// Honest node indices, ascending.
    honest_list: Vec<u32>,
    /// Static per-class node counts (classes never change), indexed by
    /// `class_idx`. Expiry accounting multiplies by these totals so
    /// disengaged nodes still count against delivery, as in the dense
    /// path.
    class_counts: [u64; 3],
    /// Whether the fault plan can touch messages at all; hoisted out of
    /// `faulty_send` so inert plans skip the fate machinery entirely.
    faults_msg: bool,
    /// Every update released (the reference window).
    full: WindowSet,
    /// Ideal-attack pooled seeds (the out-of-band channel).
    pool: WindowSet,
    schedule: PartnerSchedule,
    rng: DetRng,
    authority: Authority,
    meter: BandwidthMeter,
    trace: TraceBuffer,
    round: Round,
    /// delivered[class] / totals[class] over expired measured rounds.
    delivered: [u64; 3],
    totals: [u64; 3],
    attacker_union_delivered: u64,
    attacker_union_total: u64,
    /// Distinct reporters per node (report-and-evict defense).
    reporters: Vec<BitSet>,
    evictions: u32,
    isolated_series: Vec<(Round, f64)>,
    /// Incoming interactions served this round, per node, per protocol.
    served_balanced: Vec<u32>,
    served_push: Vec<u32>,
    /// Nodes being fed "sufficiently rapidly" by the Observation 3.1
    /// harness: they receive each new batch the instant it is released.
    fed: BitSet,
    /// Per-node delivered updates over measured expired rounds.
    node_delivered: Vec<u64>,
    /// Per-node count of measured rounds below the usability threshold.
    node_unusable_rounds: Vec<u32>,
    /// Measured expired rounds so far.
    measured_rounds: u32,
    /// The timing layer: churn membership, fault injection and attack
    /// timing. While the schedule has the attack off, attacker nodes
    /// cooperate: they run the honest protocol like everyone else
    /// (building stock the eventual defection exploits). Its activity
    /// index (present ∧ ¬down ∧ ¬evicted ∧ ¬cut, rebuilt word-parallel
    /// at the top of every round) is what round loops walk instead of
    /// `0..n`, so per-step cost scales with active nodes, not total
    /// population.
    env: RoundEnvelope,
    /// Fault-masquerading attackers' silence draws. Forked at
    /// construction (stream-invisible) and drawn from only when a
    /// masquerade attacker sends — `chance(0.0)` draws nothing, so on a
    /// perfect network the attacker is bit-for-bit honest.
    masq_rng: DetRng,
    /// Intra-run worker pool for the plan phase of each exchange round
    /// (`cfg.run_threads`; figures are byte-identical for any count).
    run_pool: WorkerPool,
    // Scratch buffers for the allocation-free round loop (see module
    // docs); contents are meaningless between phases.
    alive_scratch: Vec<usize>,
    picks_scratch: Vec<usize>,
    /// Reusable exchange-plan batch (the plan/apply split's worklist).
    plan_batch: ExchangePlan,
    /// Per-chunk entry counts for the pool's partitioned plan fill.
    chunk_sizes: Vec<usize>,
    /// Per-chunk shard-range bounds, parallel to `chunk_sizes`.
    chunk_bounds: Vec<(usize, usize)>,
    gift_scratch: Vec<UpdateId>,
    returned_scratch: Vec<UpdateId>,
    balanced_scratch: BalancedOutcome,
    push_scratch: PushOutcome,
    /// Two-leg digest-exchange state; `None` runs the classic
    /// full-window round untouched.
    digest_state: Option<DigestState>,
}

/// Modeled wire size of one update payload, in bytes (a stream packet).
/// The absolute value is a convention — bytes-on-wire metrics compare
/// *across* curves sharing it, not against a real deployment.
pub const UPDATE_WIRE_BYTES: u64 = 1024;

/// Modeled wire size of one requested update id (or one region mask),
/// in bytes.
pub const ID_WIRE_BYTES: u64 = 8;

/// Per-run state of the two-leg digest exchange (present only when
/// [`BarGossipConfig::digest`] is set, so classic runs carry none of
/// it). All buffers are sized at construction; the steady-state digest
/// round allocates nothing.
#[derive(Debug, Clone)]
struct DigestState {
    /// The digest knobs in force.
    dcfg: DigestExchangeConfig,
    /// The live window's bloom probe index (bloom mode), rebuilt once
    /// per round; every advertisement of the round is answered from it.
    bloom: BloomIndex,
    /// Ids the initiator requests from the partner this exchange.
    want_initiator: Vec<UpdateId>,
    /// Ids the partner requests from the initiator this exchange.
    want_partner: Vec<UpdateId>,
    /// Transfer-leg delivery buffer (after poison/fp filtering).
    deliver: Vec<UpdateId>,
    /// The poisoning attacker's per-owed-update withhold draws. Forked
    /// at construction (stream-invisible); drawn only when a poison
    /// attacker answers a request, and `chance(0.0)` draws nothing.
    poison_rng: DetRng,
    /// The digest-audit defense's sampling draws; `audit = 0.0` draws
    /// nothing.
    audit_rng: DetRng,
    /// Wire accounting for the report.
    stats: DigestStats,
}

/// Active-node floor below which the plan phase stays on the calling
/// thread even when the pool has more workers: at small populations the
/// spawn/join cost of a scoped chunk fan-out exceeds the walk itself,
/// and the sequential path is what the alloc-guard suite pins as
/// allocation-free.
const PLAN_POOL_MIN_ACTIVE: usize = 1 << 14;

/// The gossip substrates' canonical-metric observation for
/// metric-threshold schedules, computed from the running per-class
/// delivery counters and the cut-off's tallies (no report, no
/// allocation). `None` until the first measured expiry — an unmeasured
/// metric must not latch a threshold trigger — and for false cuts while
/// the cut-off is off.
pub(crate) fn gossip_observation(
    delivered: &[u64; 3],
    totals: &[u64; 3],
    cutoff: &SilenceCutoff,
    key: MetricKey,
) -> Option<f64> {
    match key {
        MetricKey::FalseCutRate => cutoff.stats().map(|c| c.false_cut_rate()),
        _ => schedule::class_delivery_observation(delivered, totals, key),
    }
}

fn class_idx(class: NodeClass) -> usize {
    match class {
        NodeClass::Isolated => 0,
        NodeClass::Satiated => 1,
        NodeClass::Attacker => 2,
    }
}

impl BarGossipSim {
    /// Build a simulator for `cfg` under `plan`, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation (use the builder, which validates).
    pub fn new(cfg: BarGossipConfig, plan: AttackPlan, seed: u64) -> Self {
        cfg.validate().expect("invalid BarGossipConfig");
        let n = cfg.nodes;
        let rng = DetRng::seed_from(seed).fork("bar-gossip");

        // Assign attacker nodes, then satiated targets among the honest.
        let mut assign_rng = rng.fork("assignment");
        let attacker_count = plan.attacker_count(n) as usize;
        let mut classes = vec![NodeClass::Isolated; n as usize];
        let attacker_picks = assign_rng.sample_indices(n as usize, attacker_count);
        for &i in &attacker_picks {
            classes[i] = NodeClass::Attacker;
        }
        let honest: Vec<usize> = (0..n as usize)
            .filter(|&i| classes[i] != NodeClass::Attacker)
            .collect();
        let satiated_count = (plan.satiated_honest_count(n) as usize).min(honest.len());
        for &hi in assign_rng
            .sample_indices(honest.len(), satiated_count)
            .iter()
        {
            classes[honest[hi]] = NodeClass::Satiated;
        }

        // Obedient reporters among honest nodes (drawn only under the
        // report defense, exactly as before, so rng streams match).
        let mut obedient = BitSet::new(n as usize);
        if let Some(report) = &cfg.defenses.report {
            let k = ((honest.len() as f64) * report.obedient_fraction).round() as usize;
            for &hi in assign_rng
                .sample_indices(honest.len(), k.min(honest.len()))
                .iter()
            {
                obedient.insert(honest[hi]);
            }
        }

        let (per_round, lifetime) = (cfg.updates_per_round, cfg.update_lifetime);
        let windows = WindowSlab::new(n as usize, per_round, lifetime);
        let mut target = BitSet::new(n as usize);
        let mut class_counts = [0u64; 3];
        let mut attacker_list = Vec::new();
        let mut honest_list = Vec::new();
        for (i, &c) in classes.iter().enumerate() {
            class_counts[class_idx(c)] += 1;
            if c == NodeClass::Satiated {
                target.insert(i);
            }
            if c == NodeClass::Attacker {
                attacker_list.push(i as u32);
            } else {
                honest_list.push(i as u32);
            }
        }

        // Flash-crowd nodes are withdrawn now (index-ordered, no
        // randomness) and enter with empty windows at their wave's
        // round. Attackers are exempt from the holdback — they churn
        // like anyone but the crowd itself is honest — so the defection
        // and the crowd stay independently timed dimensions.
        let (cutoff_quorum, attackers) = (cfg.defenses.cutoff_quorum, attacker_list.len() as u32);
        let timing = Timing {
            churn: cfg.churn,
            arrival: cfg.arrival,
            faults: cfg.faults,
            schedule: plan.schedule,
        };
        let env = RoundEnvelope::new(n as usize, timing, &rng, true, |i| {
            if classes[i] == NodeClass::Attacker {
                Shield::Crowd
            } else {
                Shield::None
            }
        });
        // Everyone present at round 0 is engaged; flash-crowd nodes
        // engage when their wave lands.
        let engaged = env.population().present().clone();
        // Digest-exchange state only when configured. The forks below
        // are stream-invisible (forking never advances the parent), so
        // classic runs are bit-identical whether or not this substrate
        // exists. Buffers are capacity-reserved for the full live
        // window, so the steady digest round never reallocates.
        let live = (per_round * lifetime) as usize;
        let digest_state = cfg.digest.map(|dcfg| DigestState {
            dcfg,
            bloom: BloomIndex::new(
                dcfg.bits,
                dcfg.hashes,
                cfg.updates_per_round,
                cfg.update_lifetime,
            ),
            want_initiator: Vec::with_capacity(live),
            want_partner: Vec::with_capacity(live),
            deliver: Vec::with_capacity(live),
            poison_rng: rng.fork("poison"),
            audit_rng: rng.fork("audit"),
            stats: DigestStats::default(),
        });
        // The plan batch and the exchange buffers are reserved to their
        // ceilings (one entry per node; one live window of ids), so even
        // the round a flash crowd lands allocates nothing.
        let mut plan_batch = ExchangePlan::new();
        plan_batch.reset(n as usize);
        plan_batch.clear();
        BarGossipSim {
            full: WindowSet::new(per_round, lifetime),
            pool: WindowSet::new(per_round, lifetime),
            schedule: PartnerSchedule::new(rng.fork("schedule").next_u64(), n),
            env,
            faults_msg: cfg.faults.has_message_faults(),
            masq_rng: rng.fork("masquerade"),
            authority: Authority::new(rng.fork("authority").next_u64(), n),
            meter: BandwidthMeter::new(n),
            trace: TraceBuffer::disabled(),
            round: 0,
            delivered: [0; 3],
            totals: [0; 3],
            attacker_union_delivered: 0,
            attacker_union_total: 0,
            // The reporter quorum sets are per-node bitsets — O(n²) bits
            // — so they are only materialised under the report defense.
            reporters: if cfg.defenses.report.is_some() {
                vec![BitSet::new(n as usize); n as usize]
            } else {
                Vec::new()
            },
            evictions: 0,
            // One sample per measured round; reserved up front so the
            // per-round push in `advance_windows` never reallocates
            // mid-run (the steady-state step stays allocation-free).
            isolated_series: Vec::with_capacity(cfg.rounds as usize),
            served_balanced: vec![0; n as usize],
            served_push: vec![0; n as usize],
            fed: BitSet::new(n as usize),
            node_delivered: vec![0; n as usize],
            node_unusable_rounds: vec![0; n as usize],
            measured_rounds: 0,
            run_pool: WorkerPool::new(cfg.run_threads),
            alive_scratch: Vec::with_capacity(n as usize),
            picks_scratch: Vec::with_capacity(cfg.copies_seeded as usize),
            plan_batch,
            chunk_sizes: Vec::new(),
            chunk_bounds: Vec::new(),
            gift_scratch: Vec::with_capacity(live),
            returned_scratch: Vec::with_capacity(live),
            balanced_scratch: BalancedOutcome {
                to_initiator: Vec::with_capacity(live),
                to_responder: Vec::with_capacity(live),
            },
            push_scratch: PushOutcome {
                useful_to_initiator: Vec::with_capacity(live),
                to_responder: Vec::with_capacity(live),
                junk_to_initiator: 0,
            },
            digest_state,
            cfg,
            plan,
            windows,
            class: classes,
            target,
            obedient,
            evicted: BitSet::new(n as usize),
            cutoff: SilenceCutoff::new(n as usize, cutoff_quorum, attackers),
            engaged,
            attacker_list,
            honest_list,
            class_counts,
            rng,
        }
    }

    /// Enable event tracing with the given buffer capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceBuffer::new(capacity);
    }

    /// The trace buffer (disabled by default).
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// The configuration in force.
    pub fn config(&self) -> &BarGossipConfig {
        &self.cfg
    }

    /// The attack plan in force.
    pub fn plan(&self) -> &AttackPlan {
        &self.plan
    }

    /// Metric class of `node`.
    pub fn class_of(&self, node: NodeId) -> NodeClass {
        self.class[node.index()]
    }

    /// Whether `node` has been evicted by the report defense.
    pub fn is_evicted(&self, node: NodeId) -> bool {
        self.evicted.contains(node.index())
    }

    /// Bandwidth meter (units = updates/junk items).
    pub fn meter(&self) -> &BandwidthMeter {
        &self.meter
    }

    /// The sharded activity index (this round's snapshot).
    pub fn shard_map(&self) -> &ShardMap {
        self.env.shards()
    }

    fn is_attacker(&self, node: NodeId) -> bool {
        self.class[node.index()] == NodeClass::Attacker
    }

    fn alive(&self, node: NodeId) -> bool {
        let i = node.index();
        !self.evicted.contains(i) && !self.cutoff.is_cut(i) && self.env.is_up(i)
    }

    /// Engage `node` if it has never been present before: seed its
    /// unusable-round counter with the measured expiries it slept
    /// through (a disengaged node delivered nothing in each of them,
    /// exactly like an empty dense window). Its window needs no
    /// fast-forward: the row is still all-zero, the empty window in
    /// lockstep.
    fn ensure_engaged(&mut self, i: usize) {
        if self.engaged.contains(i) {
            return;
        }
        self.engaged.insert(i);
        self.node_unusable_rounds[i] = self.measured_rounds;
    }

    /// Honest responders serve at most `responder_cap` incoming
    /// interactions per protocol per round; attackers accept everything
    /// — except covert (masquerade/poison) attackers, who stay
    /// protocol-obedient to remain indistinguishable.
    fn responder_accepts(&mut self, node: NodeId, push: bool) -> bool {
        if self.env.attack_active() && !self.plan.kind.covert() && self.is_attacker(node) {
            return true;
        }
        let cap = self.cfg.responder_cap.map_or(u32::MAX, |c| c);
        let served = if push {
            &mut self.served_push[node.index()]
        } else {
            &mut self.served_balanced[node.index()]
        };
        if *served >= cap {
            false
        } else {
            *served += 1;
            true
        }
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
    fn masquerade_silent(&mut self, sender: NodeId) -> bool {
        if !self.env.attack_active()
            || self.plan.kind != AttackKind::Masquerade
            || !self.is_attacker(sender)
        {
            return false;
        }
        let rate = self.env.faults().ambient_silence_rate();
        self.masq_rng.chance(rate)
    }

    /// Deliver one directed batch `from → to` through the masquerade
    /// filter and the fault layer; returns whether the receiver got it.
    /// Uploads are metered on send (a lost message still cost the sender
    /// bandwidth); a masquerade-silent sender sends nothing and meters
    /// nothing; a duplicated batch meters its surplus as junk. Draw-free
    /// when no message faults and no masquerade attack are configured,
    /// so fault-free runs stay bit-identical.
    // lint: hot-loop
    fn faulty_send(&mut self, from: NodeId, to: NodeId, payload: u64, junk: u64) -> bool {
        let units = payload + junk;
        if units == 0 || self.masquerade_silent(from) {
            return false;
        }
        // Inert fault plans skip the fate machinery entirely: the flag
        // is hoisted out of the hot loop so a fault-free delivery path
        // costs a predicted-taken branch, not a call (this recovered
        // the bench regression the fault layer's introduction cost).
        let fate = if self.faults_msg {
            self.env.faults_mut().fate(from.index(), to.index())
        } else {
            Fate::Deliver
        };
        if payload > 0 {
            self.meter.transfer(from, to, MsgClass::Payload, payload);
        }
        if junk > 0 {
            self.meter.transfer(from, to, MsgClass::Junk, junk);
        }
        match fate {
            Fate::Drop => false,
            Fate::Duplicate => {
                self.meter.transfer(from, to, MsgClass::Junk, units);
                true
            }
            Fate::Deliver => true,
        }
    }

    /// `observer` expected a delivery from `partner` inside an
    /// established balanced exchange (digests were traded, so the want
    /// was mutual knowledge) and got nothing: a silence cut-off strike
    /// ([`SilenceCutoff`]). Silence in a push is not actionable: a lost
    /// offer and a withheld payment look identical to the initiator.
    fn note_silence(&mut self, observer: NodeId, partner: NodeId, now: Round) {
        let class = &self.class;
        let is_attacker = |i: usize| class[i] == NodeClass::Attacker;
        if self
            .cutoff
            .accuse(observer.index(), partner.index(), is_attacker)
        {
            self.trace
                .emit(now, partner, EventKind::Evict, "cut on silence quorum");
        }
    }

    // ------------------------------------------------------------------
    // Round phases.
    // ------------------------------------------------------------------

    /// Phase 0: account attacker union coverage for the round about to
    /// expire (must run before the windows slide).
    fn account_attacker_coverage(&mut self, t: Round) {
        if !self.plan.kind.satiates() || t < u64::from(self.cfg.update_lifetime) {
            return;
        }
        let r = t - u64::from(self.cfg.update_lifetime);
        if !self.cfg.is_measured_round(r) {
            return;
        }
        let mut union = 0u64;
        for &i in &self.attacker_list {
            union |= self.windows.row(i as usize).mask(r).unwrap_or(0);
        }
        // The ideal attack's pool also counts (it is what gets forwarded).
        if self.plan.kind == AttackKind::IdealLotusEater {
            union |= self.pool.mask(r).unwrap_or(0);
        }
        self.attacker_union_delivered += u64::from(union.count_ones());
        self.attacker_union_total += u64::from(self.cfg.updates_per_round);
    }

    /// Phase 1: slide windows; account expired (measured) rounds.
    ///
    /// The slab's shared alignment moves in `O(1)`; per-row work happens
    /// only on rounds where a release expires, and only for *engaged*
    /// rows — `O(engaged)`, the hottest win of the sharded engine at
    /// flash-crowd scale. A disengaged row is all-zero, so it needs no
    /// shift: its dense contribution was always `got = 0` with one
    /// unusable round per measured expiry. The class totals below use
    /// the static per-class counts (every window popped in lockstep in
    /// the dense loop, so its `class_nodes` tally was exactly those
    /// counts), and the unusable rounds are settled at engage time /
    /// report time. Reports stay bit-identical.
    // lint: hot-loop
    fn advance_windows(&mut self, t: Round) {
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

    /// Phase 2: broadcaster releases and seeds the new batch.
    // lint: hot-loop
    fn seed_round(&mut self, t: Round) {
        let mut alive = std::mem::take(&mut self.alive_scratch);
        // The broadcaster itself is reliable infrastructure (the paper's
        // content source): seeding is not subject to message faults, but
        // crashed and cut nodes receive no seeds. The shard walk yields
        // exactly the dense `(0..n).filter(alive)` list in the same
        // ascending order (the activity mask *is* that filter), so the
        // seeding draws are unchanged.
        self.env.shards().collect_active_into(&mut alive);
        let mut picks = std::mem::take(&mut self.picks_scratch);
        let copies = (self.cfg.copies_seeded as usize).min(alive.len());
        let mut seed_rng = self.rng.fork_idx("seeding", t);
        for slot in 0..self.cfg.updates_per_round {
            let id = UpdateId { round: t, slot };
            self.full.insert(id);
            seed_rng.sample_indices_into(alive.len(), copies, &mut picks);
            for &pick in &picks {
                let i = alive[pick];
                self.windows.insert(i, id);
                if self.class[i] == NodeClass::Attacker
                    && self.plan.kind == AttackKind::IdealLotusEater
                {
                    self.pool.insert(id);
                }
            }
        }
        self.alive_scratch = alive;
        self.picks_scratch = picks;
    }

    /// Phase 3 (ideal attack only): instant out-of-band forwarding of the
    /// attacker pool to every satiated-set node.
    fn ideal_forwarding(&mut self) {
        if self.plan.kind != AttackKind::IdealLotusEater || !self.env.attack_active() {
            return;
        }
        // Representative attacker for bandwidth attribution (lowest
        // live attacker index, as in the dense scan).
        let Some(rep) = self
            .attacker_list
            .iter()
            .map(|&i| i as usize)
            .find(|&i| self.alive(NodeId(i as u32)))
        else {
            return;
        };
        for i in self.target.iter() {
            if !self.alive(NodeId(i as u32)) {
                continue;
            }
            let gained = self.windows.row(i).missing_from(&self.pool) as u64;
            if gained > 0 {
                self.windows.union_with(i, &self.pool);
                self.meter.transfer(
                    NodeId(rep as u32),
                    NodeId(i as u32),
                    MsgClass::Payload,
                    gained,
                );
            }
        }
    }

    /// A trade-attack gift: `attacker` gives `target` everything *it*
    /// holds that the target lacks (rate limit permitting); the target
    /// reciprocates protocol-style with up to the same number of updates
    /// when `attacker_receives` is on. Obedient targets detect the
    /// excessive service and file a signed report.
    ///
    /// `push_slot` selects the excess bound: in a push interaction service
    /// up to `push_size` is protocol-legal.
    fn attacker_gift(&mut self, attacker: NodeId, target: NodeId, now: Round, push_slot: bool) {
        let cap = self
            .cfg
            .defenses
            .rate_limit
            .map_or(usize::MAX, |c| c as usize);
        let mut gift = std::mem::take(&mut self.gift_scratch);
        self.windows.row(target.index()).wanted_from_into(
            self.windows.row(attacker.index()),
            now,
            cap,
            0,
            u32::MAX,
            &mut gift,
        );
        if gift.is_empty() {
            self.gift_scratch = gift;
            return;
        }
        // The gift rides the same faulty links as honest traffic; a
        // dropped gift is never seen by the target, so it neither
        // satiates nor triggers the excess-service detector.
        if !self.faulty_send(attacker, target, gift.len() as u64, 0) {
            self.gift_scratch = gift;
            return;
        }
        let mut returned = std::mem::take(&mut self.returned_scratch);
        returned.clear();
        if self.cfg.attacker_receives {
            self.windows.row(attacker.index()).wanted_from_into(
                self.windows.row(target.index()),
                now,
                gift.len(),
                0,
                u32::MAX,
                &mut returned,
            );
        }
        for &id in &gift {
            self.windows.insert(target.index(), id);
        }
        if self.faulty_send(target, attacker, returned.len() as u64, 0) {
            for &id in &returned {
                self.windows.insert(attacker.index(), id);
            }
        }
        self.trace.emit_with(now, target, EventKind::Attack, || {
            format!("gift of {} from {attacker}", gift.len())
        });

        if let Some(report) = self.cfg.defenses.report {
            // In a push slot, service up to push_size is protocol-legal;
            // in a balanced slot only reciprocity (+slack) is.
            let effective_received = if push_slot {
                returned.len().max(self.cfg.push_size as usize)
            } else {
                returned.len()
            };
            if is_excessive_service(gift.len(), effective_received, report.excess_slack)
                && self.obedient.contains(target.index())
            {
                self.file_report(target, attacker, now, gift.len() as u64);
            }
        }
        self.gift_scratch = gift;
        self.returned_scratch = returned;
    }

    /// Colluding attacker nodes synchronise fully when the schedule pairs
    /// them — the only in-protocol pooling the trade attack gets.
    fn attacker_sync(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            return;
        }
        let (gained_a, gained_b) = self.windows.sync(a.index(), b.index());
        if gained_b > 0 {
            self.meter
                .transfer(a, b, MsgClass::Payload, gained_b as u64);
        }
        if gained_a > 0 {
            self.meter
                .transfer(b, a, MsgClass::Payload, gained_a as u64);
        }
    }

    /// File a signed excess-service report; evict on quorum.
    fn file_report(&mut self, reporter: NodeId, reported: NodeId, now: Round, amount: u64) {
        let report_cfg = self
            .cfg
            .defenses
            .report
            .expect("file_report requires the report defense");
        // Evidence: the reporter signs (reported, round, amount); the
        // tracker verifies before accepting. With the simulated authority
        // this always verifies, but the flow matches the real protocol.
        let evidence = self.authority.sign(reporter, (reported, now, amount));
        if self.authority.verify(&evidence).is_err() {
            return; // forged evidence is dropped
        }
        self.trace.emit_with(now, reported, EventKind::Report, || {
            format!("excess service reported by {reporter}")
        });
        let set = &mut self.reporters[reported.index()];
        set.insert(reporter.index());
        if set.len() as u32 >= report_cfg.quorum && !self.evicted.contains(reported.index()) {
            self.evicted.insert(reported.index());
            self.evictions += 1;
            self.trace
                .emit(now, reported, EventKind::Evict, "evicted on report quorum");
        }
    }

    /// Rotate the satiated target set (when the plan asks for it): the
    /// target window slides over the honest population so every node takes
    /// turns being satiated — and, in between, isolated.
    fn rotate_targets(&mut self, t: Round) {
        let Some(period) = self.plan.rotation_period() else {
            return;
        };
        if !self.plan.kind.satiates() || !t.is_multiple_of(period) {
            return;
        }
        // Honest indices are fixed at assignment time, so the rotation
        // window reads the static ascending `honest_list` directly —
        // the same list the per-rotation dense scan used to rebuild.
        if self.honest_list.is_empty() {
            return;
        }
        let count = (self.plan.satiated_honest_count(self.class.len() as u32) as usize)
            .min(self.honest_list.len());
        self.target.clear();
        let phase = self
            .env
            .schedule()
            .rotation_phase(t)
            .expect("rotation_period() implies a rotation phase");
        for w in schedule::rotating_window(phase, count, self.honest_list.len()) {
            self.target.insert(self.honest_list[w] as usize);
        }
    }

    /// Whether a configured defense can remove nodes *during* an
    /// exchange phase: report-and-evict inserts into `evicted` and the
    /// silence cut-off inserts into `cut` while pairs are being applied.
    /// When neither is on, aliveness is fixed for the whole round (churn
    /// and faults only flip at round start), so the plan's viability
    /// snapshot stays exact through apply and the hot path can skip the
    /// per-pair liveness probes entirely.
    fn mid_phase_removals_possible(&self) -> bool {
        self.cfg.defenses.report.is_some() || self.cutoff.is_on()
    }

    /// Plan-time viability snapshot for a pair. In strict mode (a
    /// defense can remove nodes mid-phase) this probes the live
    /// [`BarGossipSim::alive`] sets; otherwise the round-top shard
    /// snapshot *is* aliveness — one probe per endpoint instead of four.
    /// Link state is static within a round, so it is only sampled for
    /// viable pairs (apply never reads it on skipped ones).
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
    /// ascending shard walk, so plan content never does. Populations
    /// under [`PLAN_POOL_MIN_ACTIVE`] stay on one chunk: the fan-out
    /// costs more than the walk, and the sequential path is what the
    /// alloc-guard suite pins as allocation-free.
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

    /// The plan sub-phase shared by both exchange protocols: batch every
    /// initiator's scheduled partner and viability snapshot into
    /// `plan_batch` (ascending walk, chunk-partitioned across the
    /// worker pool), then shuffle the batch with `order_rng` — the same
    /// stream the legacy path used on its bare initiator list, drawing
    /// identically because a Fisher–Yates shuffle depends only on
    /// length. Populations that fit in one shard keep the legacy dense
    /// order — all nodes, shuffled — so paper-scale runs (and their
    /// golden fixtures) are byte-identical. Multi-shard populations
    /// plan only the active shards: dead nodes never even enter the
    /// batch, which is what keeps the round `O(active)` instead of
    /// `O(population)`.
    // lint: hot-loop
    fn plan_phase(&mut self, t: Round, proto: Protocol, mut order_rng: DetRng) {
        let mut plan = std::mem::take(&mut self.plan_batch);
        let planner = self.schedule.planner(t, proto);
        let strict = self.mid_phase_removals_possible();
        let n = self.class.len();
        if n <= self.env.shards().shard_size() {
            plan.reset(n);
            planner.fill(
                NodeId::all(n as u32),
                |v, p| self.pair_flags(v, p, strict),
                plan.entries_mut(),
            );
        } else {
            let total = self.env.shards().active_count();
            plan.reset(total);
            let mut sizes = std::mem::take(&mut self.chunk_sizes);
            let mut bounds = std::mem::take(&mut self.chunk_bounds);
            self.plan_chunks(total, &mut sizes, &mut bounds);
            let sim = &*self;
            let bounds_ref = &bounds;
            self.run_pool
                .run_partitioned(plan.entries_mut(), &sizes, |chunk, out| {
                    let (lo, hi) = bounds_ref[chunk];
                    let mut k = 0usize;
                    sim.env.shards().for_each_active_in(lo..hi, |i| {
                        let v = NodeId(i as u32);
                        let p = planner.partner_of(v);
                        out[k] = PlannedPair {
                            initiator: v,
                            partner: p,
                            flags: sim.pair_flags(v, p, strict),
                        };
                        k += 1;
                    });
                    debug_assert_eq!(k, out.len(), "chunk sizes must match the shard walk");
                });
            self.chunk_sizes = sizes;
            self.chunk_bounds = bounds;
        }
        plan.shuffle(&mut order_rng);
        self.plan_batch = plan;
    }

    /// Phase 4: balanced exchanges — plan, shuffle, sequential apply.
    // lint: hot-loop
    fn balanced_phase(&mut self, t: Round) {
        // Only slots inside active shards can be served this round
        // (responders are alive, and alive ⊆ the round snapshot), so
        // the clear is O(active shards), not a full-slab fill.
        netsim::round::clear_counters_for(
            &mut self.served_balanced,
            self.env.shards().active_ranges(),
        );
        self.plan_phase(
            t,
            Protocol::BalancedExchange,
            self.rng.fork_idx("balanced-order", t),
        );
        let strict = self.mid_phase_removals_possible();
        let plan = std::mem::take(&mut self.plan_batch);
        for &e in plan.entries() {
            // Aliveness only shrinks mid-phase, so a pair planned
            // non-viable can never revive; strict mode rechecks the
            // viable remainder against removals applied earlier in this
            // very loop (report evictions, silence cuts).
            if !e.is_viable() {
                continue;
            }
            let (v, p) = (e.initiator, e.partner);
            if strict && (!self.alive(v) || !self.alive(p)) {
                continue;
            }
            if !e.is_linked() {
                // Partitioned apart: the interaction never happens. The
                // blocked-interaction counter ticks here — the position
                // the legacy walk's counting link check sat at.
                self.env.faults_mut().note_partition_blocked();
                continue;
            }
            // While the schedule has the attack off, attacker nodes run
            // the honest protocol (the cooperate phase), so both classes
            // collapse to honest in the dispatch below. Covert
            // (masquerade/poison) attackers *always* take the honest
            // path — their defection lives inside the delivery step, not
            // in the dispatch.
            let classes = if self.env.attack_active() && !self.plan.kind.covert() {
                (self.class[v.index()], self.class[p.index()])
            } else {
                (NodeClass::Isolated, NodeClass::Isolated)
            };
            match classes {
                (NodeClass::Attacker, NodeClass::Attacker) => {
                    if self.plan.kind == AttackKind::TradeLotusEater {
                        self.attacker_sync(v, p);
                    }
                }
                (NodeClass::Attacker, _) => {
                    if self.plan.kind == AttackKind::TradeLotusEater
                        && self.target.contains(p.index())
                        && self.responder_accepts(p, false)
                    {
                        self.attacker_gift(v, p, t, false);
                    }
                    // Crash/ideal attackers never initiate.
                }
                (_, NodeClass::Attacker) => {
                    if self.plan.kind == AttackKind::TradeLotusEater
                        && self.target.contains(v.index())
                    {
                        // The scheduled exchange gives the attacker an
                        // interaction; it responds by gifting.
                        self.attacker_gift(p, v, t, false);
                    }
                    // Otherwise the exchange fails: the initiator's slot is
                    // wasted (exactly the crash attack's damage).
                }
                (_, _) => {
                    if !self.responder_accepts(p, false) {
                        continue; // responder at capacity: initiation wasted
                    }
                    let mut out = std::mem::take(&mut self.balanced_scratch);
                    balanced_exchange_into(
                        self.windows.row(v.index()),
                        self.windows.row(p.index()),
                        t,
                        self.cfg.defenses.unbalanced_exchanges,
                        self.cfg.defenses.rate_limit,
                        &mut out,
                    );
                    // Each direction is one message through the fault
                    // layer; an expected-but-silent direction is what the
                    // cut-off defense strikes on (loss and masquerade are
                    // indistinguishable here — by design).
                    if self.faulty_send(p, v, out.to_initiator.len() as u64, 0) {
                        for &id in &out.to_initiator {
                            self.windows.insert(v.index(), id);
                        }
                    } else if !out.to_initiator.is_empty() {
                        self.note_silence(v, p, t);
                    }
                    if self.faulty_send(v, p, out.to_responder.len() as u64, 0) {
                        for &id in &out.to_responder {
                            self.windows.insert(p.index(), id);
                        }
                    } else if !out.to_responder.is_empty() {
                        self.note_silence(p, v, t);
                    }
                    self.balanced_scratch = out;
                }
            }
        }
        self.plan_batch = plan;
    }

    /// Phase 5: optimistic pushes — plan, shuffle, sequential apply.
    // lint: hot-loop
    fn push_phase(&mut self, t: Round) {
        // Shard-range clear, as in `balanced_phase`.
        netsim::round::clear_counters_for(&mut self.served_push, self.env.shards().active_ranges());
        self.plan_phase(
            t,
            Protocol::OptimisticPush,
            self.rng.fork_idx("push-order", t),
        );
        let strict = self.mid_phase_removals_possible();
        let plan = std::mem::take(&mut self.plan_batch);
        for &e in plan.entries() {
            // Either end planned dead means the legacy walk did nothing
            // for this pair (an attacker initiator with a dead partner
            // entered its branch but took no action), so the skip is
            // exact; strict mode rechecks against mid-phase removals.
            if !e.is_viable() {
                continue;
            }
            let (v, p) = (e.initiator, e.partner);
            if strict && !self.alive(v) {
                continue;
            }
            // Attacker-specific push behaviour only while the attack is
            // on; a cooperating attacker falls through to the honest
            // rational-push logic below, as do covert attackers (whose
            // defection lives inside the delivery step). Note the
            // attacker arms are deliberately *not* gated on the link —
            // the legacy path never was (attacker pooling models an
            // out-of-band channel), and the goldens pin that.
            if self.env.attack_active() && !self.plan.kind.covert() && self.is_attacker(v) {
                if self.plan.kind == AttackKind::TradeLotusEater && (!strict || self.alive(p)) {
                    if self.class[p.index()] == NodeClass::Attacker {
                        self.attacker_sync(v, p);
                    } else if self.target.contains(p.index()) && self.responder_accepts(p, true) {
                        self.attacker_gift(v, p, t, true);
                    }
                }
                continue;
            }
            // Rational initiation condition: only when missing old updates.
            if !wants_push(self.windows.row(v.index()), &self.full, t, self.cfg.old_age) {
                continue;
            }
            if strict && !self.alive(p) {
                continue;
            }
            if !e.is_linked() {
                self.env.faults_mut().note_partition_blocked();
                continue; // partitioned apart
            }
            if self.env.attack_active() && !self.plan.kind.covert() && self.is_attacker(p) {
                if self.plan.kind == AttackKind::TradeLotusEater && self.target.contains(v.index())
                {
                    self.attacker_gift(p, v, t, true);
                }
                continue;
            }
            if !self.responder_accepts(p, true) {
                continue;
            }
            let mut out = std::mem::take(&mut self.push_scratch);
            optimistic_push_into(
                self.windows.row(v.index()),
                self.windows.row(p.index()),
                t,
                self.cfg.push_size,
                self.cfg.old_age,
                self.cfg.recent_age,
                self.cfg.defenses.rate_limit,
                &mut out,
            );
            if out.is_empty() {
                self.push_scratch = out;
                continue;
            }
            // The offer and the payment are each one message through the
            // fault layer (the payment's junk rides along with its
            // useful updates). No silence strikes here: the initiator
            // cannot tell a lost offer from a withheld payment.
            if self.faulty_send(v, p, out.to_responder.len() as u64, 0) {
                for &id in &out.to_responder {
                    self.windows.insert(p.index(), id);
                }
            }
            if self.faulty_send(
                p,
                v,
                out.useful_to_initiator.len() as u64,
                u64::from(out.junk_to_initiator),
            ) {
                for &id in &out.useful_to_initiator {
                    self.windows.insert(v.index(), id);
                }
            }
            self.push_scratch = out;
        }
        self.plan_batch = plan;
    }

    /// Phases 4+5 (digest mode): the two-leg digest exchange replaces
    /// both classic exchange phases. Planning, shuffling, strict
    /// rechecks and the attacker-class dispatch mirror
    /// [`BarGossipSim::balanced_phase`] exactly — only the honest arm
    /// differs, swapping the full-window balanced trade for an
    /// advertise-then-diff exchange ([`BarGossipSim::digest_exchange`]).
    /// Covert (masquerade/poison) attackers take the honest arm; their
    /// defection lives inside the transfer leg. In bloom mode the probe
    /// index is rebuilt over this round's live window first: every
    /// engaged window is in lockstep with `full`, so it covers every
    /// advertisement of the round.
    // lint: hot-loop
    fn digest_phase(&mut self, t: Round) {
        netsim::round::clear_counters_for(
            &mut self.served_balanced,
            self.env.shards().active_ranges(),
        );
        self.plan_phase(
            t,
            Protocol::BalancedExchange,
            self.rng.fork_idx("digest-order", t),
        );
        let st = self
            .digest_state
            .as_mut()
            .expect("digest_phase implies digest state");
        if !st.dcfg.exact {
            st.bloom.rebuild(self.full.start(), t);
        }
        let strict = self.mid_phase_removals_possible();
        let plan = std::mem::take(&mut self.plan_batch);
        for &e in plan.entries() {
            if !e.is_viable() {
                continue;
            }
            let (v, p) = (e.initiator, e.partner);
            if strict && (!self.alive(v) || !self.alive(p)) {
                continue;
            }
            if !e.is_linked() {
                self.env.faults_mut().note_partition_blocked();
                continue;
            }
            let classes = if self.env.attack_active() && !self.plan.kind.covert() {
                (self.class[v.index()], self.class[p.index()])
            } else {
                (NodeClass::Isolated, NodeClass::Isolated)
            };
            match classes {
                (NodeClass::Attacker, NodeClass::Attacker) => {
                    if self.plan.kind == AttackKind::TradeLotusEater {
                        self.attacker_sync(v, p);
                    }
                }
                (NodeClass::Attacker, _) => {
                    if self.plan.kind == AttackKind::TradeLotusEater
                        && self.target.contains(p.index())
                        && self.responder_accepts(p, false)
                    {
                        self.attacker_gift(v, p, t, false);
                    }
                }
                (_, NodeClass::Attacker) => {
                    if self.plan.kind == AttackKind::TradeLotusEater
                        && self.target.contains(v.index())
                    {
                        self.attacker_gift(p, v, t, false);
                    }
                }
                (_, _) => {
                    if !self.responder_accepts(p, false) {
                        continue;
                    }
                    self.digest_exchange(v, p, t);
                }
            }
        }
        self.plan_batch = plan;
    }

    /// One two-leg digest exchange between `v` (initiator) and `p`
    /// (responder). Leg 1 swaps advertisements and builds each side's
    /// request list; leg 2 ships the requested updates
    /// ([`BarGossipSim::digest_deliver`]).
    ///
    /// * **Bloom mode** — each side advertises a
    ///   [`BloomDigest`](lotus_core::digest::BloomDigest) of its whole
    ///   window (`bits/8` bytes each way); the other side probes for its
    ///   *own missing* live ids in round/slot order and requests the
    ///   positives (8 bytes per id). No false negatives means every id
    ///   the sender holds and the receiver needs is requested; a false
    ///   positive wastes one request. The probes are answered from the
    ///   round's [`BloomIndex`], which gives the filter's exact answers.
    /// * **Exact mode** — the sides swap one [`region_hash`] per live
    ///   round (8 bytes each way); divergent rounds exchange their raw
    ///   slot masks (8 bytes each way, counted as request bytes) and
    ///   diff exactly.
    ///
    /// The X9 rate limit caps each request list at build time — the
    /// receiver knows the cap, so truncation can never read as
    /// withholding. Held ids enter the want lists in round/slot order in
    /// both modes, so the poison stream draws identically whichever
    /// advertisement is in force (the delivery-equivalence golden pins
    /// this).
    fn digest_exchange(&mut self, v: NodeId, p: NodeId, t: Round) {
        let mut st = self
            .digest_state
            .take()
            .expect("digest_phase implies digest state");
        let limit = self
            .cfg
            .defenses
            .rate_limit
            .map_or(usize::MAX, |c| c as usize);
        let mut want_v = std::mem::take(&mut st.want_initiator);
        let mut want_p = std::mem::take(&mut st.want_partner);
        let (wv, wp) = (self.windows.row(v.index()), self.windows.row(p.index()));
        if st.dcfg.exact {
            want_v.clear();
            want_p.clear();
            let start = wv.start();
            st.stats.bytes_digests += 2 * ID_WIRE_BYTES * (t - start + 1);
            for r in start..=t {
                let mv = wv.mask(r).unwrap_or(0);
                let mp = wp.mask(r).unwrap_or(0);
                if region_hash(r, mv) == region_hash(r, mp) {
                    continue;
                }
                st.stats.bytes_requests += 2 * ID_WIRE_BYTES;
                let mut only = mp & !mv;
                while only != 0 {
                    let slot = only.trailing_zeros();
                    only &= only - 1;
                    if want_v.len() < limit {
                        want_v.push(UpdateId { round: r, slot });
                    }
                }
                let mut only = mv & !mp;
                while only != 0 {
                    let slot = only.trailing_zeros();
                    only &= only - 1;
                    if want_p.len() < limit {
                        want_p.push(UpdateId { round: r, slot });
                    }
                }
            }
        } else {
            Self::bloom_wants(&mut st.bloom, wp, wv, t, limit, &mut want_v);
            Self::bloom_wants(&mut st.bloom, wv, wp, t, limit, &mut want_p);
            st.stats.bytes_digests += 2 * st.bloom.size_bytes();
            st.stats.bytes_requests += ID_WIRE_BYTES * (want_v.len() + want_p.len()) as u64;
        }
        st.stats.requests += (want_v.len() + want_p.len()) as u64;
        // Leg 2: each side answers the other's request list.
        self.digest_deliver(&mut st, p, v, &want_v, t);
        self.digest_deliver(&mut st, v, p, &want_p, t);
        st.want_initiator = want_v;
        st.want_partner = want_p;
        self.digest_state = Some(st);
    }

    /// Load `sender`'s window into the round's probe index as its
    /// advertisement, then fill `want` with the live ids `receiver` is
    /// missing that probe positive, in round/slot order, stopping at
    /// `limit`. The answers are exactly those of a bloom filter built
    /// from `sender`'s window; no filter is built.
    // lint: hot-loop
    fn bloom_wants(
        bloom: &mut BloomIndex,
        sender: WindowView<'_>,
        receiver: WindowView<'_>,
        t: Round,
        limit: usize,
        want: &mut Vec<UpdateId>,
    ) {
        want.clear();
        debug_assert!(
            sender.start() == bloom.first() && receiver.start() == bloom.first(),
            "engaged windows advance in lockstep with the round's index"
        );
        bloom.advertise((sender.start()..=t).map(|r| sender.mask(r).unwrap_or(0)));
        let per_round = receiver.per_round();
        for r in receiver.start()..=t {
            let held = receiver.mask(r).unwrap_or(0);
            let mut missing = !held & (u64::MAX >> (64 - per_round));
            while missing != 0 {
                let slot = missing.trailing_zeros();
                missing &= missing - 1;
                if want.len() >= limit {
                    return;
                }
                if bloom.contains(r, slot) {
                    want.push(UpdateId { round: r, slot });
                }
            }
        }
    }

    /// Transfer leg: `sender` answers `receiver`'s request list. A
    /// requested id the sender lacks is a bloom false positive (exact
    /// mode never produces one); a poisoning attacker withholds each
    /// *held* id at [`AttackPlan::poison_rate`] — the draw happens only
    /// for held ids, so the poison stream is advertisement-agnostic. The
    /// digest-audit defense samples every advertised-but-undelivered id
    /// at `audit` and files at most one silence strike per direction: to
    /// the receiver, a false positive and a withheld id are
    /// indistinguishable — exactly the attack's deniability claim, which
    /// is why the defense's collateral shows up as `false_cut_rate`.
    /// Whole-message loss of a non-empty delivery strikes as in the
    /// balanced phase (the want was mutual knowledge).
    // lint: hot-loop
    fn digest_deliver(
        &mut self,
        st: &mut DigestState,
        sender: NodeId,
        receiver: NodeId,
        want: &[UpdateId],
        t: Round,
    ) {
        let mut deliver = std::mem::take(&mut st.deliver);
        deliver.clear();
        let poisoner = self.env.attack_active()
            && self.plan.kind == AttackKind::Poison
            && self.is_attacker(sender);
        let mut strike = false;
        for &id in want {
            if !self.windows.row(sender.index()).contains(id) {
                st.stats.fp_requests += 1;
                if !strike {
                    strike = st.audit_rng.chance(st.dcfg.audit);
                }
                continue;
            }
            if poisoner && st.poison_rng.chance(self.plan.poison_rate) {
                st.stats.withheld += 1;
                if !strike {
                    strike = st.audit_rng.chance(st.dcfg.audit);
                }
                continue;
            }
            deliver.push(id);
        }
        st.stats.bytes_updates += UPDATE_WIRE_BYTES * deliver.len() as u64;
        if !deliver.is_empty() {
            if self.faulty_send(sender, receiver, deliver.len() as u64, 0) {
                for &id in &deliver {
                    self.windows.insert(receiver.index(), id);
                }
            } else {
                self.note_silence(receiver, sender, t);
            }
        }
        if strike {
            self.note_silence(receiver, sender, t);
        }
        st.deliver = deliver;
    }

    /// Run the configured horizon and produce the report.
    pub fn run_to_report(mut self) -> BarGossipReport {
        let total = self.cfg.total_rounds();
        while self.round < total {
            let t = self.round;
            self.round(t);
        }
        self.report()
    }

    /// Snapshot the report for the rounds executed so far.
    pub fn report(&self) -> BarGossipReport {
        let frac = |ci: usize| -> f64 {
            if self.totals[ci] == 0 {
                0.0
            } else {
                self.delivered[ci] as f64 / self.totals[ci] as f64
            }
        };
        let honest_delivered = self.delivered[0] + self.delivered[1];
        let honest_total = self.totals[0] + self.totals[1];
        let counts = ClassCounts {
            isolated: self.class_counts[0] as u32,
            satiated: self.class_counts[1] as u32,
            attacker: self.class_counts[2] as u32,
        };
        let attacker_nodes = &self.attacker_list;
        let honest_nodes = &self.honest_list;
        // A node that never engaged (its arrival wave never landed)
        // delivered nothing in every measured round — exactly what its
        // empty dense window would have tallied.
        let unusable_rounds = |i: usize| {
            if self.engaged.contains(i) {
                self.node_unusable_rounds[i]
            } else {
                self.measured_rounds
            }
        };
        BarGossipReport {
            rounds: self.round,
            delivery: ClassDelivery {
                isolated: frac(0),
                satiated: frac(1),
                overall: if honest_total == 0 {
                    0.0
                } else {
                    honest_delivered as f64 / honest_total as f64
                },
            },
            attacker_coverage: if self.attacker_union_total == 0 {
                0.0
            } else {
                self.attacker_union_delivered as f64 / self.attacker_union_total as f64
            },
            counts,
            evictions: self.evictions,
            junk_fraction: self.meter.junk_fraction(),
            mean_attacker_upload: self
                .meter
                .mean_uploaded(attacker_nodes.iter().map(|&i| NodeId(i))),
            mean_honest_upload: self
                .meter
                .mean_uploaded(honest_nodes.iter().map(|&i| NodeId(i))),
            isolated_series: self.isolated_series.clone(),
            usability_threshold: self.cfg.usability_threshold,
            min_node_delivery: {
                let per_round_total =
                    u64::from(self.cfg.updates_per_round) * u64::from(self.measured_rounds);
                if per_round_total == 0 {
                    0.0
                } else {
                    honest_nodes
                        .iter()
                        .map(|&i| self.node_delivered[i as usize] as f64 / per_round_total as f64)
                        .fold(f64::INFINITY, f64::min)
                        .min(1.0)
                }
            },
            nodes_ever_unusable: {
                if honest_nodes.is_empty() {
                    0.0
                } else {
                    honest_nodes
                        .iter()
                        .filter(|&&i| unusable_rounds(i as usize) > 0)
                        .count() as f64
                        / honest_nodes.len() as f64
                }
            },
            unusable_node_rounds: {
                let samples = honest_nodes.len() as u64 * u64::from(self.measured_rounds);
                if samples == 0 {
                    0.0
                } else {
                    honest_nodes
                        .iter()
                        .map(|&i| u64::from(unusable_rounds(i as usize)))
                        .sum::<u64>() as f64
                        / samples as f64
                }
            },
            cuts: self.cutoff.stats(),
            fault_counters: self.env.fault_counters(),
            digest: self.digest_state.as_ref().map(|d| d.stats),
        }
    }
}

impl RoundSim for BarGossipSim {
    // lint: hot-loop
    fn round(&mut self, t: Round) {
        debug_assert_eq!(t, self.round, "rounds must be sequential");
        // Timing layer first. The activity index excludes evicted and
        // cut nodes too; nothing becomes alive mid-round (evictions and
        // cuts only remove), so the index is a superset of every
        // `alive()` check below and the shard walks see exactly the
        // dense filter lists.
        self.env
            .begin_round(t, &[&self.evicted, self.cutoff.cut_set()], |key, _| {
                gossip_observation(&self.delivered, &self.totals, &self.cutoff, key)
            });
        if !self.env.faults().just_crashed().is_empty() {
            // State-losing crash: unlike churned-out nodes, which keep
            // their windows while away, a crashed node re-enters cold.
            for i in self.env.faults().just_crashed().iter() {
                self.windows.clear(i);
            }
        }
        // Engage nodes whose arrival wave just landed (present ∖
        // engaged, one word at a time, ascending) before anything
        // slides. Their all-zero rows are already in lockstep, so this
        // touches no window. Inlined (rather than calling
        // `ensure_engaged`) so the membership words and the engaged-set
        // mutations borrow disjoint fields.
        let present = self.env.population().present().words();
        for (w, &word) in present.iter().enumerate() {
            let mut arrived = word & !self.engaged.words()[w];
            while arrived != 0 {
                let i = w * 64 + arrived.trailing_zeros() as usize;
                arrived &= arrived - 1;
                self.engaged.insert(i);
                self.node_unusable_rounds[i] = self.measured_rounds;
            }
        }
        self.account_attacker_coverage(t);
        self.rotate_targets(t);
        self.advance_windows(t);
        self.seed_round(t);
        // Observation 3.1 harness: fed nodes receive the new batch the
        // moment it is released — "sufficiently rapidly" taken literally.
        if !self.fed.is_empty() {
            for i in self.fed.iter() {
                self.windows.union_with(i, &self.full);
            }
            self.fed.clear();
        }
        self.ideal_forwarding();
        if self.digest_state.is_some() {
            // Digest mode: the two-leg exchange replaces both classic
            // phases (its diff already covers what pushes would carry).
            self.digest_phase(t);
        } else {
            self.balanced_phase(t);
            self.push_phase(t);
        }
        self.round = t + 1;
    }

    fn rounds_run(&self) -> Round {
        self.round
    }
}

impl lotus_core::satiation::Feedable for BarGossipSim {
    /// Hand the node every live update instantly, *including* the batch
    /// the broadcaster will release in the coming round (the attacker's
    /// power in the limit, as Observation 3.1 assumes).
    fn feed_fully(&mut self, node: NodeId) {
        // Feeding a node implies it exists in the system: engage it so
        // its row is shifted from now on.
        self.ensure_engaged(node.index());
        self.windows.union_with(node.index(), &self.full);
        self.fed.insert(node.index());
    }

    fn step(&mut self) {
        let t = self.round;
        self.round(t);
    }
}

impl lotus_core::satiation::Satiable for BarGossipSim {
    fn node_count(&self) -> u32 {
        self.class.len() as u32
    }

    /// A node is satiated when it holds every live update (a
    /// disengaged node's all-zero row is satiated iff nothing is live).
    fn is_satiated(&self, node: NodeId) -> bool {
        self.windows.row(node.index()).missing_from(&self.full) == 0
    }

    fn service_provided(&self, node: NodeId) -> u64 {
        self.meter.uploaded_class(node, MsgClass::Payload)
    }
}

impl lotus_core::scenario::Scenario for BarGossipSim {
    type Config = BarGossipConfig;
    type Attack = AttackPlan;
    type Report = BarGossipReport;
    const NAME: &'static str = "bar-gossip";

    fn build(cfg: BarGossipConfig, attack: AttackPlan, seed: u64) -> Self {
        BarGossipSim::new(cfg, attack, seed)
    }

    fn step(&mut self) -> lotus_core::scenario::StepOutcome {
        lotus_core::scenario::step_rounds(self, self.cfg.total_rounds())
    }

    fn report(&self) -> BarGossipReport {
        BarGossipSim::report(self)
    }

    fn arm_trace(&self) -> Option<&[lotus_core::adaptive::TraceEntry]> {
        self.env.schedule().arm_trace()
    }
}

impl lotus_core::scenario::Summarize for BarGossipReport {
    /// Common vocabulary for BAR Gossip:
    ///
    /// * `overall_delivery` — delivery over all honest nodes;
    /// * `targeted_service` — delivery to the attacker's satiated set;
    /// * `usable` — isolated nodes clear the 93 % streaming bar (the
    ///   paper's y-axis lives on as the `isolated_delivery` metric).
    fn summarize(&self) -> lotus_core::scenario::ScenarioReport {
        let evicted_fraction = if self.counts.attacker == 0 {
            0.0
        } else {
            f64::from(self.evictions) / f64::from(self.counts.attacker)
        };
        // A digest run is its own registered scenario; the report knows
        // which round shape produced it.
        let name = if self.digest.is_some() {
            "bar-gossip-digest"
        } else {
            "bar-gossip"
        };
        let mut r = lotus_core::scenario::ScenarioReport::new(
            name,
            self.rounds,
            self.overall_delivery(),
            self.satiated_delivery(),
            self.isolated_usable(),
        )
        .with_metric("isolated_delivery", self.isolated_delivery())
        .with_metric("satiated_delivery", self.satiated_delivery())
        .with_metric("attacker_coverage", self.attacker_coverage)
        .with_metric("evictions", f64::from(self.evictions))
        .with_metric("evicted_fraction", evicted_fraction)
        .with_metric("junk_fraction", self.junk_fraction)
        .with_metric("mean_attacker_upload", self.mean_attacker_upload)
        .with_metric("mean_honest_upload", self.mean_honest_upload)
        .with_metric("min_node_delivery", self.min_node_delivery)
        .with_metric("nodes_ever_unusable", self.nodes_ever_unusable)
        .with_metric("unusable_node_rounds", self.unusable_node_rounds)
        .with_cut_stats(self.cuts)
        .with_fault_counters(self.fault_counters);
        if let Some(d) = self.digest {
            r = r
                .with_metric("digest_bytes_on_wire", d.bytes_on_wire() as f64)
                .with_metric("digest_bytes_updates", d.bytes_updates as f64)
                .with_metric("digest_fp_rate", d.fp_rate())
                .with_metric("digest_requests", d.requests as f64)
                .with_metric("digest_withheld", d.withheld as f64);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_core::satiation::Satiable;

    fn small_cfg() -> BarGossipConfig {
        BarGossipConfig::builder()
            .nodes(60)
            .updates_per_round(4)
            .update_lifetime(8)
            .copies_seeded(6)
            .rounds(20)
            .warmup_rounds(8)
            .build()
            .unwrap()
    }

    #[test]
    fn healthy_system_delivers_nearly_everything() {
        let report = BarGossipSim::new(small_cfg(), AttackPlan::none(), 1).run_to_report();
        assert!(
            report.overall_delivery() > 0.95,
            "unattacked delivery was {}",
            report.overall_delivery()
        );
        assert_eq!(report.counts.attacker, 0);
        assert_eq!(report.counts.satiated, 0);
        assert!(report.isolated_usable());
        assert_eq!(report.evictions, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = BarGossipSim::new(small_cfg(), AttackPlan::crash(0.2), 5).run_to_report();
        let b = BarGossipSim::new(small_cfg(), AttackPlan::crash(0.2), 5).run_to_report();
        assert_eq!(a, b);
        let c = BarGossipSim::new(small_cfg(), AttackPlan::crash(0.2), 6).run_to_report();
        assert_ne!(a.delivery, c.delivery);
    }

    #[test]
    fn crash_attack_degrades_delivery_monotonically_ish() {
        let d0 = BarGossipSim::new(small_cfg(), AttackPlan::none(), 3)
            .run_to_report()
            .overall_delivery();
        let d50 = BarGossipSim::new(small_cfg(), AttackPlan::crash(0.5), 3)
            .run_to_report()
            .isolated_delivery();
        let d90 = BarGossipSim::new(small_cfg(), AttackPlan::crash(0.9), 3)
            .run_to_report()
            .isolated_delivery();
        assert!(d50 < d0, "50% crash must hurt: {d50} vs {d0}");
        assert!(d90 < d50, "90% crash must hurt more: {d90} vs {d50}");
        assert!(d90 < 0.5, "90% crash should cripple the system");
    }

    #[test]
    fn trade_attack_starves_isolated_and_feeds_satiated() {
        let report = BarGossipSim::new(small_cfg(), AttackPlan::trade_lotus_eater(0.3, 0.7), 4)
            .run_to_report();
        assert!(
            report.satiated_delivery() > 0.9,
            "satiated nodes get near-perfect service, got {}",
            report.satiated_delivery()
        );
        assert!(
            report.isolated_delivery() < report.satiated_delivery(),
            "isolated starve relative to satiated"
        );
        assert!(
            report.mean_attacker_upload > 0.0,
            "trade attack costs bandwidth"
        );
    }

    #[test]
    fn ideal_attack_beats_trade_when_attacker_is_small() {
        // The ideal attack's edge is at *low* attacker fractions: the trade
        // attacker is starved of scheduled interactions while the ideal
        // attacker forwards out-of-band to everyone (paper Figure 1: ideal
        // breaks the system at ~4%, trade needs ~22%).
        let ideal = BarGossipSim::new(small_cfg(), AttackPlan::ideal_lotus_eater(0.05, 0.7), 4)
            .run_to_report();
        let trade = BarGossipSim::new(small_cfg(), AttackPlan::trade_lotus_eater(0.05, 0.7), 4)
            .run_to_report();
        assert!(
            ideal.isolated_delivery() <= trade.isolated_delivery() + 0.02,
            "ideal ({}) should hit at least as hard as trade ({}) at 5%",
            ideal.isolated_delivery(),
            trade.isolated_delivery()
        );
    }

    #[test]
    fn ideal_attacker_holds_partial_coverage() {
        let report = BarGossipSim::new(small_cfg(), AttackPlan::ideal_lotus_eater(0.05, 0.7), 2)
            .run_to_report();
        assert!(
            report.attacker_coverage > 0.05 && report.attacker_coverage < 0.9,
            "a small attacker holds partial coverage, got {}",
            report.attacker_coverage
        );
    }

    #[test]
    fn crash_attack_needs_no_bandwidth() {
        let report = BarGossipSim::new(small_cfg(), AttackPlan::crash(0.3), 2).run_to_report();
        assert_eq!(report.mean_attacker_upload, 0.0);
        assert_eq!(
            report.attacker_coverage, 0.0,
            "crash attack has no coverage metric"
        );
    }

    #[test]
    fn satiable_interface_reports_satiated_nodes() {
        let mut sim = BarGossipSim::new(small_cfg(), AttackPlan::ideal_lotus_eater(0.2, 0.7), 9);
        for t in 0..20 {
            sim.round(t);
        }
        // Some satiated-class node should hold every live update.
        let n = sim.node_count();
        let full_holders = NodeId::all(n)
            .filter(|&v| sim.class_of(v) == NodeClass::Satiated && sim.is_satiated(v))
            .count();
        assert!(full_holders > 0, "ideal attack satiates targets");
    }

    #[test]
    fn report_defense_evicts_trade_attackers() {
        let cfg = BarGossipConfig::builder()
            .nodes(60)
            .updates_per_round(4)
            .update_lifetime(8)
            .copies_seeded(6)
            .rounds(20)
            .warmup_rounds(8)
            .report_defense(crate::config::ReportConfig {
                obedient_fraction: 1.0,
                quorum: 2,
                excess_slack: 1,
            })
            .build()
            .unwrap();
        let report =
            BarGossipSim::new(cfg, AttackPlan::trade_lotus_eater(0.2, 0.7), 3).run_to_report();
        assert!(report.evictions > 0, "attackers should be evicted");
    }

    #[test]
    fn report_defense_never_evicts_honest_nodes() {
        let cfg = BarGossipConfig::builder()
            .nodes(50)
            .updates_per_round(4)
            .update_lifetime(8)
            .copies_seeded(6)
            .rounds(15)
            .warmup_rounds(8)
            .unbalanced_exchanges(true)
            .report_defense(crate::config::ReportConfig {
                obedient_fraction: 1.0,
                quorum: 1,
                excess_slack: 1,
            })
            .build()
            .unwrap();
        let report = BarGossipSim::new(cfg, AttackPlan::none(), 3).run_to_report();
        assert_eq!(
            report.evictions, 0,
            "honest protocol traffic is never excessive"
        );
    }

    #[test]
    fn rate_limit_blunts_trade_attack() {
        let attack = AttackPlan::trade_lotus_eater(0.25, 0.7);
        let open = BarGossipSim::new(small_cfg(), attack, 6).run_to_report();
        let mut limited_cfg = small_cfg();
        limited_cfg.defenses.rate_limit = Some(2);
        let limited = BarGossipSim::new(limited_cfg, attack, 6).run_to_report();
        assert!(
            limited.isolated_delivery() >= open.isolated_delivery() - 0.02,
            "rate limiting should not make isolated nodes worse off: {} vs {}",
            limited.isolated_delivery(),
            open.isolated_delivery()
        );
        assert!(
            limited.satiated_delivery() <= open.satiated_delivery() + 1e-9,
            "rate limiting slows satiation"
        );
    }

    #[test]
    fn series_covers_measured_rounds() {
        let cfg = small_cfg();
        let expected = cfg.rounds as usize;
        let report = BarGossipSim::new(cfg, AttackPlan::none(), 1).run_to_report();
        assert_eq!(report.isolated_series.len(), expected);
        for (r, frac) in &report.isolated_series {
            assert!(*frac >= 0.0 && *frac <= 1.0);
            assert!(*r >= 8, "warmup rounds excluded");
        }
    }

    #[test]
    fn trace_records_attack_events() {
        let mut sim = BarGossipSim::new(small_cfg(), AttackPlan::trade_lotus_eater(0.3, 0.7), 8);
        sim.enable_trace(10_000);
        for t in 0..10 {
            sim.round(t);
        }
        assert!(sim.trace().of_kind(EventKind::Attack).count() > 0);
    }

    #[test]
    fn attacker_receives_flag_controls_pool_growth() {
        let mut cfg = small_cfg();
        cfg.attacker_receives = false;
        let no_recv =
            BarGossipSim::new(cfg, AttackPlan::trade_lotus_eater(0.2, 0.7), 5).run_to_report();
        let recv = BarGossipSim::new(small_cfg(), AttackPlan::trade_lotus_eater(0.2, 0.7), 5)
            .run_to_report();
        assert!(
            recv.attacker_coverage >= no_recv.attacker_coverage,
            "receiving can only grow attacker coverage: {} vs {}",
            recv.attacker_coverage,
            no_recv.attacker_coverage
        );
    }

    #[test]
    fn slow_rotation_spreads_the_pain() {
        // Rotation periods comparable to the update lifetime spread the
        // outage across the population (X11). Fast rotation backfires:
        // the attacker refills rotated-in nodes before their missed
        // updates expire, effectively healing them.
        let static_plan = AttackPlan::trade_lotus_eater(0.3, 0.7);
        let rotating = static_plan.with_rotation(16); // 2x the lifetime
        let fixed = BarGossipSim::new(small_cfg(), static_plan, 12).run_to_report();
        let rotated = BarGossipSim::new(small_cfg(), rotating, 12).run_to_report();
        assert!(
            rotated.nodes_ever_unusable >= fixed.nodes_ever_unusable,
            "slow rotation must touch at least as many nodes: {} vs {}",
            rotated.nodes_ever_unusable,
            fixed.nodes_ever_unusable
        );
    }

    #[test]
    fn per_node_metrics_are_sane() {
        let report = BarGossipSim::new(small_cfg(), AttackPlan::trade_lotus_eater(0.3, 0.7), 3)
            .run_to_report();
        assert!(report.min_node_delivery >= 0.0 && report.min_node_delivery <= 1.0);
        assert!(report.min_node_delivery <= report.overall_delivery() + 1e-9);
        assert!(report.nodes_ever_unusable >= 0.0 && report.nodes_ever_unusable <= 1.0);
        assert!(
            report.unusable_node_rounds <= report.nodes_ever_unusable + 1e-9,
            "a node-round sample fraction cannot exceed the ever-unusable fraction"
        );
    }

    #[test]
    fn clean_run_has_no_unusable_nodes() {
        let report = BarGossipSim::new(small_cfg(), AttackPlan::none(), 2).run_to_report();
        assert!(
            report.unusable_node_rounds < 0.2,
            "healthy system rarely dips below threshold, got {}",
            report.unusable_node_rounds
        );
        assert!(report.min_node_delivery > 0.8);
    }

    #[test]
    fn zero_rate_fault_plan_is_report_invisible() {
        // An explicitly configured all-zero plan must leave every report
        // field byte-identical to the default (no fault layer at all).
        let mut cfg = small_cfg();
        cfg.faults = lotus_core::faults::FaultPlan::parse("loss:0/crash:0:0.5").unwrap();
        let faulted =
            BarGossipSim::new(cfg, AttackPlan::trade_lotus_eater(0.2, 0.7), 5).run_to_report();
        let plain = BarGossipSim::new(small_cfg(), AttackPlan::trade_lotus_eater(0.2, 0.7), 5)
            .run_to_report();
        assert_eq!(faulted, plain);
        assert!(faulted.fault_counters.is_none());
        assert!(faulted.cuts.is_none());
    }

    #[test]
    fn message_loss_degrades_delivery() {
        let mut cfg = small_cfg();
        cfg.faults = lotus_core::faults::FaultPlan::parse("loss:0.4").unwrap();
        let lossy = BarGossipSim::new(cfg, AttackPlan::none(), 3).run_to_report();
        let clean = BarGossipSim::new(small_cfg(), AttackPlan::none(), 3).run_to_report();
        assert!(
            lossy.overall_delivery() < clean.overall_delivery(),
            "40% loss must hurt: {} vs {}",
            lossy.overall_delivery(),
            clean.overall_delivery()
        );
        let counters = lossy.fault_counters.expect("active plan reports counters");
        assert!(counters.dropped > 0);
    }

    #[test]
    fn crashes_lose_state_and_count() {
        let mut cfg = small_cfg();
        cfg.faults = lotus_core::faults::FaultPlan::parse("crash:0.05:0.3").unwrap();
        let crashy = BarGossipSim::new(cfg, AttackPlan::none(), 7).run_to_report();
        let clean = BarGossipSim::new(small_cfg(), AttackPlan::none(), 7).run_to_report();
        let counters = crashy.fault_counters.expect("active plan reports counters");
        assert!(counters.crashes > 0, "5% per round crashes someone");
        assert!(
            crashy.overall_delivery() < clean.overall_delivery(),
            "cold re-entry costs delivery: {} vs {}",
            crashy.overall_delivery(),
            clean.overall_delivery()
        );
    }

    #[test]
    fn partition_blocks_interactions_for_its_epoch() {
        let mut cfg = small_cfg();
        cfg.faults = lotus_core::faults::FaultPlan::parse("partition:10:10:0.5").unwrap();
        let split = BarGossipSim::new(cfg, AttackPlan::none(), 2).run_to_report();
        let counters = split.fault_counters.expect("active plan reports counters");
        assert!(counters.partition_blocked > 0, "cross-cell pairs blocked");
    }

    #[test]
    fn masquerade_is_honest_on_a_perfect_network() {
        let report = BarGossipSim::new(small_cfg(), AttackPlan::masquerade(0.2), 4).run_to_report();
        assert!(
            report.overall_delivery() > 0.95,
            "no ambient faults, nothing to hide behind: delivery {}",
            report.overall_delivery()
        );
    }

    #[test]
    fn masquerade_defects_at_the_ambient_rate() {
        let mut cfg = small_cfg();
        cfg.faults = lotus_core::faults::FaultPlan::parse("loss:0.2").unwrap();
        let attacked =
            BarGossipSim::new(cfg.clone(), AttackPlan::masquerade(0.3), 4).run_to_report();
        let unattacked = BarGossipSim::new(cfg, AttackPlan::none(), 4).run_to_report();
        assert!(
            attacked.overall_delivery() < unattacked.overall_delivery(),
            "masquerade defection compounds the ambient loss: {} vs {}",
            attacked.overall_delivery(),
            unattacked.overall_delivery()
        );
    }

    #[test]
    fn cutoff_never_cuts_anyone_on_a_perfect_network() {
        // Without faults silence never happens among honest nodes, so
        // the defense is surgical: zero cuts with no attack.
        let cfg = BarGossipConfig::builder()
            .nodes(60)
            .updates_per_round(4)
            .update_lifetime(8)
            .copies_seeded(6)
            .rounds(20)
            .warmup_rounds(8)
            .cutoff_quorum(Some(2))
            .build()
            .unwrap();
        let report = BarGossipSim::new(cfg, AttackPlan::none(), 6).run_to_report();
        let cuts = report.cuts.expect("cutoff defense reports cut stats");
        assert_eq!((cuts.cut_honest, cuts.cut_attacker), (0, 0));
        assert_eq!(cuts.precision(), 1.0, "vacuous precision");
    }

    #[test]
    fn cutoff_under_loss_cuts_honest_nodes() {
        // The robustness trade-off: ambient loss makes honest nodes look
        // silent, so a quorum-2 cutoff racks up false positives.
        let cfg = BarGossipConfig::builder()
            .nodes(60)
            .updates_per_round(4)
            .update_lifetime(8)
            .copies_seeded(6)
            .rounds(20)
            .warmup_rounds(8)
            .cutoff_quorum(Some(2))
            .faults(lotus_core::faults::FaultPlan::parse("loss:0.3").unwrap())
            .build()
            .unwrap();
        let report = BarGossipSim::new(cfg, AttackPlan::none(), 6).run_to_report();
        let cuts = report.cuts.expect("cutoff defense reports cut stats");
        assert!(cuts.cut_honest > 0, "loss-induced silence gets punished");
        assert!(cuts.false_cut_rate() > 0.0);
    }

    #[test]
    fn responder_cap_bounds_incoming_service() {
        // With a cap of 1 an honest node serves at most one incoming
        // balanced exchange per round; with no cap it may serve several.
        let mut capped_cfg = small_cfg();
        capped_cfg.responder_cap = Some(1);
        let mut open_cfg = small_cfg();
        open_cfg.responder_cap = None;
        let capped = BarGossipSim::new(capped_cfg, AttackPlan::none(), 11).run_to_report();
        let open = BarGossipSim::new(open_cfg, AttackPlan::none(), 11).run_to_report();
        assert!(
            open.mean_honest_upload >= capped.mean_honest_upload,
            "uncapped responders serve at least as much: {} vs {}",
            open.mean_honest_upload,
            capped.mean_honest_upload
        );
    }

    fn digest_cfg(dcfg: DigestExchangeConfig) -> BarGossipConfig {
        let mut cfg = small_cfg();
        cfg.digest = Some(dcfg);
        cfg
    }

    #[test]
    fn truthful_digest_exchange_delivers_nearly_everything() {
        let report = BarGossipSim::new(
            digest_cfg(DigestExchangeConfig::default()),
            AttackPlan::none(),
            1,
        )
        .run_to_report();
        assert!(
            report.overall_delivery() > 0.95,
            "digest-round delivery was {}",
            report.overall_delivery()
        );
        let d = report.digest.expect("digest runs report wire stats");
        assert!(d.bytes_digests > 0 && d.bytes_updates > 0);
        assert_eq!(d.withheld, 0, "nobody withholds without a poisoner");
        assert!(d.fp_rate() < 0.05, "default 1024-bit digest stays sharp");
    }

    #[test]
    fn bloom_and_exact_digests_deliver_identically() {
        // The sim-level cut of the keystone golden: wire accounting
        // differs by mode, delivery must not (no false negatives, and
        // a false positive only ever wastes a request).
        let bloom = BarGossipSim::new(
            digest_cfg(DigestExchangeConfig::default()),
            AttackPlan::poison(0.3, 1.0),
            9,
        )
        .run_to_report();
        let exact = BarGossipSim::new(
            digest_cfg(DigestExchangeConfig {
                exact: true,
                ..DigestExchangeConfig::default()
            }),
            AttackPlan::poison(0.3, 1.0),
            9,
        )
        .run_to_report();
        let mut b = bloom.clone();
        let mut e = exact.clone();
        b.digest = None;
        e.digest = None;
        assert_eq!(b, e, "delivery must be advertisement-agnostic");
        let exact_stats = exact.digest.unwrap();
        assert_eq!(exact_stats.fp_requests, 0, "exact diffs cannot miss");
        assert_eq!(
            bloom.digest.unwrap().withheld,
            exact_stats.withheld,
            "the poison stream must draw identically in both modes"
        );
    }

    #[test]
    fn poison_attack_starves_via_withholding_only() {
        let honest = BarGossipSim::new(
            digest_cfg(DigestExchangeConfig::default()),
            AttackPlan::poison(0.3, 0.0),
            7,
        )
        .run_to_report();
        let full = BarGossipSim::new(
            digest_cfg(DigestExchangeConfig::default()),
            AttackPlan::poison(0.3, 1.0),
            7,
        )
        .run_to_report();
        assert_eq!(honest.digest.unwrap().withheld, 0, "rate 0 poisons nothing");
        assert!(honest.overall_delivery() > 0.9);
        assert!(full.digest.unwrap().withheld > 0);
        assert!(
            full.isolated_delivery() < honest.isolated_delivery(),
            "full-rate withholding must hurt: {} vs {}",
            full.isolated_delivery(),
            honest.isolated_delivery()
        );
    }

    #[test]
    fn digest_audit_cuts_poisoners() {
        let mut cfg = digest_cfg(DigestExchangeConfig {
            audit: 0.5,
            ..DigestExchangeConfig::default()
        });
        cfg.defenses.cutoff_quorum = Some(2);
        let report = BarGossipSim::new(cfg, AttackPlan::poison(0.3, 1.0), 5).run_to_report();
        let cuts = report.cuts.expect("cutoff defense reports cut stats");
        assert!(
            cuts.attacker_cut_rate() > 0.5,
            "auditing advertised-but-undelivered ids catches full-rate \
             poisoners: cut rate {}",
            cuts.attacker_cut_rate()
        );
    }

    #[test]
    fn digest_runs_are_deterministic_and_config_is_inert_elsewhere() {
        let a = BarGossipSim::new(
            digest_cfg(DigestExchangeConfig::default()),
            AttackPlan::poison(0.2, 0.6),
            3,
        )
        .run_to_report();
        let b = BarGossipSim::new(
            digest_cfg(DigestExchangeConfig::default()),
            AttackPlan::poison(0.2, 0.6),
            3,
        )
        .run_to_report();
        assert_eq!(a, b);
        // A classic run carries no digest stats at all.
        let classic = BarGossipSim::new(small_cfg(), AttackPlan::none(), 3).run_to_report();
        assert!(classic.digest.is_none());
    }
}
