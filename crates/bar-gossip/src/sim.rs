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
//! The node state, the round prologue, window expiry, seeding and the
//! plan half of each exchange phase live in the crate's gossip engine
//! (the `engine` module), which scrip-gossip embeds as well; this file
//! keeps the BAR Gossip exchange step.
//!
//! # Plan/apply exchange rounds
//!
//! Phases 4 and 5 run as two sub-phases each (see [`netsim::plan`]).
//! The **plan** fills the engine's initiator list — every node while the
//! population fits one shard, otherwise the live shards in ascending
//! order — and shuffles it with the phase's `fork_idx` stream. The
//! sequential **apply** is one loop over the engine's pair cursor, which
//! plans the list a block at a time, gathers multi-shard blocks and
//! yields only the pairs that can still be applied (see the engine's
//! module docs); the arms below keep their link gates and commit
//! transfers, counters and rng-consuming outcomes pair by pair. The list
//! fill is partitioned along shard bounds across the
//! [`lotus_core::pool::WorkerPool`] — concatenation in chunk order
//! reproduces the ascending walk exactly, so every figure is
//! byte-identical for any `run_threads` value.
//!
//! Each arm exchanges through the exchange layer's row kernels, on bare
//! row words: the rows advance in lockstep, so the push phase derives
//! its recent and old age bands once (as masks in the row layout) and
//! checks the rows' alignment with `full` once, and every other arm —
//! the balanced transfer, the attacker's gift and its return, the
//! digest's exact diff — reads the whole window. No pair builds a view,
//! re-checks alignment or re-derives a band.
//!
//! The digest substrate runs the same balanced apply loop: only its
//! order stream, the per-round bloom index rebuild and the honest arm
//! (`digest_exchange` instead of `balanced_transfer`) differ, and it
//! replaces the push phase.
//!
//! # Hot-loop invariants
//!
//! The per-round phases are **allocation-free in steady state**: every
//! index list the round loop needs (the engine's initiator list, which
//! seeding shares, and the gift/return and exchange buffers) is a
//! scratch buffer owned by the sim, cleared and refilled in place; the
//! planned pairs live in the cursor's stack block; and membership tracking
//! uses [`lotus_core::bitset::BitSet`] (`fed`) and a flat
//! [`lotus_core::defense::QuorumSlots`] table (the report quorum). The
//! push phase's two band masks are buffers of one row's stride,
//! refilled in place each phase. The
//! timing layer keeps the invariant:
//! the schedule stepper ([`lotus_core::schedule::ScheduleState`]) and the
//! churn tracker ([`lotus_core::population::Population`]) never allocate,
//! and metric observations for threshold triggers are computed from the
//! running delivery counters, not from a report. Scratch contents are
//! meaningless between phases — each user clears before filling — and
//! none of it affects reports: refactors here must keep reports
//! bit-identical per seed (the determinism and schedule-golden tests and
//! `tools/parent_diff.sh` are the guardrail).

use crate::attack::{AttackKind, AttackPlan};
use crate::config::{BarGossipConfig, DigestExchangeConfig};
use crate::engine::GossipEngine;
use crate::exchange::{
    balanced_rows, is_excessive_service, push_rows, wants_push_row, BalancedOutcome, PushOutcome,
};
use crate::update::{count_lacking, wanted_rows, whole_window, Transfer, UpdateId};
use lotus_core::bitset::BitSet;
use lotus_core::defense::QuorumSlots;
use lotus_core::digest::BloomIndex;
use lotus_core::faults::{CutStats, Fate, FaultCounters};
use lotus_core::schedule;
use lotus_core::soa::ShardMap;
use netsim::bandwidth::{BandwidthMeter, MsgClass};
use netsim::partner::Protocol;
use netsim::rng::{DetRng, Odds};
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

// Per-node state lives in struct-of-arrays layout on the gossip engine
// (the `windows` slab, `class`, and the `target`/`obedient`/`evicted`
// bitsets), keyed by node index — the flat layout the sharded
// `O(active)` round iterates.

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
/// use lotus_core::scenario::run;
///
/// let cfg = BarGossipConfig::builder()
///     .nodes(60)
///     .updates_per_round(4)
///     .copies_seeded(6)
///     .rounds(20)
///     .build()?;
/// let report = run::<BarGossipSim>(cfg, AttackPlan::none(), 7);
/// assert!(report.overall_delivery() > 0.9, "healthy system delivers");
/// # Ok::<(), bar_gossip::config::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BarGossipSim {
    /// Node state, timing layer, seeding and planning, shared with
    /// scrip-gossip (see [`crate::engine`]).
    eng: GossipEngine,
    /// Whether the fault plan can touch messages at all; hoisted out of
    /// `faulty_send` so inert plans skip the fate machinery entirely.
    faults_msg: bool,
    /// Report-and-evict state; `None` unless the defense is on.
    reports: Option<ReportState>,
    /// Uploads: payload per node, every class per sender group
    /// ([`BarGossipSim::meter_group`]).
    meter: BandwidthMeter,
    trace: TraceBuffer,
    round: Round,
    attacker_union_delivered: u64,
    attacker_union_total: u64,
    evictions: u32,
    /// Incoming interactions served in the current exchange phase, per
    /// node. Each phase clears the active ranges before use, so the
    /// balanced and push caps never see each other's counts.
    served: Vec<u32>,
    /// Nodes being fed "sufficiently rapidly" by the Observation 3.1
    /// harness: they receive each new batch the instant it is released.
    fed: BitSet,
    // Scratch buffers for the allocation-free round loop (see module
    // docs); contents are meaningless between phases.
    gift_scratch: Transfer,
    returned_scratch: Transfer,
    balanced_scratch: BalancedOutcome,
    push_scratch: PushOutcome,
    /// The push phase's recent and old age bands, as masks in the row
    /// layout: every row advances in lockstep, so the phase computes them
    /// once ([`crate::update::WindowSlab::band_into`]).
    recent_band: Vec<u64>,
    old_band: Vec<u64>,
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

/// Upload-meter sender group of honest nodes.
const HONEST_GROUP: usize = 0;
/// Upload-meter sender group of attacker nodes.
const ATTACKER_GROUP: usize = 1;

/// Per-run state of the report-and-evict defense (present only when
/// the defense is configured).
#[derive(Debug, Clone)]
struct ReportState {
    /// Signs and verifies excess-service evidence.
    authority: Authority,
    /// Distinct reporters per node, up to the eviction quorum.
    reporters: QuorumSlots,
}

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
    /// Ids the initiator requests from the partner this exchange; the
    /// transfer leg narrows the mask to what it delivers.
    want_initiator: Transfer,
    /// Ids the partner requests from the initiator this exchange.
    want_partner: Transfer,
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

impl BarGossipSim {
    /// Build a simulator for `cfg` under `plan`, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation (use the builder, which validates).
    pub fn new(cfg: BarGossipConfig, plan: AttackPlan, seed: u64) -> Self {
        cfg.validate().expect("invalid BarGossipConfig");
        let eng = GossipEngine::new(cfg, plan, DetRng::seed_from(seed).fork("bar-gossip"));
        let (cfg, rng, n) = (&eng.cfg, &eng.rng, eng.cfg.nodes);
        // Digest-exchange state only when configured. The forks below
        // are stream-invisible (forking never advances the parent), so
        // classic runs are bit-identical whether or not this substrate
        // exists. Transfer masks are capacity-reserved for the full
        // live window, so the steady round never reallocates.
        let words = (cfg.updates_per_round as usize * cfg.update_lifetime as usize).div_ceil(64);
        let digest_state = cfg.digest.map(|dcfg| DigestState {
            dcfg,
            bloom: BloomIndex::new(
                dcfg.bits,
                dcfg.hashes,
                cfg.updates_per_round,
                cfg.update_lifetime,
            ),
            want_initiator: Transfer::with_capacity(words),
            want_partner: Transfer::with_capacity(words),
            poison_rng: rng.fork("poison"),
            audit_rng: rng.fork("audit"),
            stats: DigestStats::default(),
        });
        BarGossipSim {
            faults_msg: cfg.faults.has_message_faults(),
            // The authority's fork is stream-invisible, so drawing its
            // seed only under the defense changes no other draw.
            reports: cfg.defenses.report.map(|report| ReportState {
                authority: Authority::new(rng.fork("authority").next_u64(), n),
                reporters: QuorumSlots::new(n as usize, report.quorum),
            }),
            meter: BandwidthMeter::new(n),
            trace: TraceBuffer::disabled(),
            round: 0,
            attacker_union_delivered: 0,
            attacker_union_total: 0,
            evictions: 0,
            served: vec![0; n as usize],
            fed: BitSet::new(n as usize),
            gift_scratch: Transfer::with_capacity(words),
            returned_scratch: Transfer::with_capacity(words),
            balanced_scratch: BalancedOutcome {
                to_initiator: Transfer::with_capacity(words),
                to_responder: Transfer::with_capacity(words),
            },
            push_scratch: PushOutcome {
                useful_to_initiator: Transfer::with_capacity(words),
                to_responder: Transfer::with_capacity(words),
                junk_to_initiator: 0,
            },
            recent_band: Vec::with_capacity(words),
            old_band: Vec::with_capacity(words),
            digest_state,
            eng,
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
        &self.eng.cfg
    }

    /// The attack plan in force.
    pub fn plan(&self) -> &AttackPlan {
        &self.eng.plan
    }

    /// Metric class of `node`.
    pub fn class_of(&self, node: NodeId) -> NodeClass {
        self.eng.class[node.index()]
    }

    /// Whether `node` has been evicted by the report defense.
    pub fn is_evicted(&self, node: NodeId) -> bool {
        self.eng.evicted.contains(node.index())
    }

    /// The sharded activity index (this round's snapshot).
    pub fn shard_map(&self) -> &ShardMap {
        self.eng.env.shards()
    }

    /// Honest responders serve at most `responder_cap` incoming
    /// interactions per protocol per round; attackers accept everything
    /// — except covert (masquerade/poison) attackers, who stay
    /// protocol-obedient to remain indistinguishable.
    fn responder_accepts(&mut self, node: NodeId) -> bool {
        if self.eng.overt_attacker(node) {
            return true;
        }
        let cap = self.eng.cfg.responder_cap.map_or(u32::MAX, |c| c);
        let served = &mut self.served[node.index()];
        if *served >= cap {
            false
        } else {
            *served += 1;
            true
        }
    }

    /// `node`'s sender group in the upload meter. Class is fixed at
    /// build, so a node always meters into the same group, and the
    /// report's group means divide the same integer sums as a per-node
    /// table would.
    #[inline]
    fn meter_group(&self, node: NodeId) -> usize {
        if self.eng.is_attacker(node) {
            ATTACKER_GROUP
        } else {
            HONEST_GROUP
        }
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
        if units == 0 || self.eng.masquerade_silent(from) {
            return false;
        }
        // Inert fault plans skip the fate machinery entirely: the flag
        // is hoisted out of the hot loop so a fault-free delivery path
        // costs a predicted-taken branch, not a call (this recovered
        // the bench regression the fault layer's introduction cost).
        let fate = if self.faults_msg {
            self.eng.env.faults_mut().fate(from.index(), to.index())
        } else {
            Fate::Deliver
        };
        let group = self.meter_group(from);
        if payload > 0 {
            self.meter.transfer(from, group, MsgClass::Payload, payload);
        }
        if junk > 0 {
            self.meter.transfer(from, group, MsgClass::Junk, junk);
        }
        match fate {
            Fate::Drop => false,
            Fate::Duplicate => {
                self.meter.transfer(from, group, MsgClass::Junk, units);
                true
            }
            Fate::Deliver => true,
        }
    }

    /// `observer` expected a delivery from `partner` inside an
    /// established balanced exchange (digests were traded, so the want
    /// was mutual knowledge) and got nothing: a silence cut-off strike
    /// ([`lotus_core::defense::SilenceCutoff`]). Silence in a push is not
    /// actionable: a lost offer and a withheld payment look identical to
    /// the initiator.
    fn note_silence(&mut self, observer: NodeId, partner: NodeId, now: Round) {
        if self.eng.accuse(observer, partner) {
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
        if !self.eng.plan.kind.satiates() || t < u64::from(self.eng.cfg.update_lifetime) {
            return;
        }
        let r = t - u64::from(self.eng.cfg.update_lifetime);
        if !self.eng.cfg.is_measured_round(r) {
            return;
        }
        let mut union = 0u64;
        for &i in &self.eng.attacker_list {
            union |= self.eng.windows.row(i as usize).mask(r).unwrap_or(0);
        }
        // The ideal attack's pool also counts (it is what gets forwarded).
        if self.eng.plan.kind == AttackKind::IdealLotusEater {
            union |= self.eng.pool.mask(r).unwrap_or(0);
        }
        self.attacker_union_delivered += u64::from(union.count_ones());
        self.attacker_union_total += u64::from(self.eng.cfg.updates_per_round);
    }

    /// Phase 3 (ideal attack only): instant out-of-band forwarding of the
    /// attacker pool to every satiated-set node.
    fn ideal_forwarding(&mut self) {
        if self.eng.plan.kind != AttackKind::IdealLotusEater || !self.eng.env.attack_active() {
            return;
        }
        // Representative attacker for bandwidth attribution (lowest
        // live attacker index, as in the dense scan).
        let Some(rep) = self
            .eng
            .attacker_list
            .iter()
            .map(|&i| i as usize)
            .find(|&i| self.eng.alive(NodeId(i as u32)))
        else {
            return;
        };
        self.eng.windows.check_aligned(&self.eng.pool);
        for i in self.eng.target.iter() {
            if !self.eng.alive(NodeId(i as u32)) {
                continue;
            }
            let pool = self.eng.pool.view().words();
            let gained =
                count_lacking(self.eng.windows.row(i).words(), pool, whole_window()) as u64;
            if gained > 0 {
                self.eng.windows.union_words(i, pool);
                self.meter.transfer(
                    NodeId(rep as u32),
                    ATTACKER_GROUP,
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
            .eng
            .cfg
            .defenses
            .rate_limit
            .map_or(usize::MAX, |c| c as usize);
        let mut gift = std::mem::take(&mut self.gift_scratch);
        let (tw, aw) = (
            self.eng.windows.row(target.index()).words(),
            self.eng.windows.row(attacker.index()).words(),
        );
        gift.len = wanted_rows(tw, aw, whole_window(), cap, &mut gift.mask);
        if gift.is_empty() {
            self.gift_scratch = gift;
            return;
        }
        // The gift rides the same faulty links as honest traffic; a
        // dropped gift is never seen by the target, so it neither
        // satiates nor triggers the excess-service detector.
        if !self.faulty_send(attacker, target, gift.len as u64, 0) {
            self.gift_scratch = gift;
            return;
        }
        let mut returned = std::mem::take(&mut self.returned_scratch);
        returned.len = 0;
        if self.eng.cfg.attacker_receives {
            let (tw, aw) = (
                self.eng.windows.row(target.index()).words(),
                self.eng.windows.row(attacker.index()).words(),
            );
            returned.len = wanted_rows(aw, tw, whole_window(), gift.len, &mut returned.mask);
        }
        self.eng.windows.union_words(target.index(), &gift.mask);
        if self.faulty_send(target, attacker, returned.len as u64, 0) && !returned.is_empty() {
            self.eng
                .windows
                .union_words(attacker.index(), &returned.mask);
        }
        self.trace.emit_with(now, target, EventKind::Attack, || {
            format!("gift of {} from {attacker}", gift.len)
        });

        if let Some(report) = self.eng.cfg.defenses.report {
            // In a push slot, service up to push_size is protocol-legal;
            // in a balanced slot only reciprocity (+slack) is.
            let effective_received = if push_slot {
                returned.len.max(self.eng.cfg.push_size as usize)
            } else {
                returned.len
            };
            if is_excessive_service(gift.len, effective_received, report.excess_slack)
                && self.eng.obedient.contains(target.index())
            {
                self.file_report(target, attacker, now, gift.len as u64);
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
        let (gained_a, gained_b) = self.eng.windows.sync(a.index(), b.index());
        if gained_b > 0 {
            self.meter
                .transfer(a, ATTACKER_GROUP, MsgClass::Payload, gained_b as u64);
        }
        if gained_a > 0 {
            self.meter
                .transfer(b, ATTACKER_GROUP, MsgClass::Payload, gained_a as u64);
        }
    }

    /// File a signed excess-service report; evict on quorum.
    fn file_report(&mut self, reporter: NodeId, reported: NodeId, now: Round, amount: u64) {
        let st = self
            .reports
            .as_mut()
            .expect("file_report requires the report defense");
        // Evidence: the reporter signs (reported, round, amount); the
        // tracker verifies before accepting. With the simulated authority
        // this always verifies, but the flow matches the real protocol.
        let evidence = st.authority.sign(reporter, (reported, now, amount));
        if st.authority.verify(&evidence).is_err() {
            return; // forged evidence is dropped
        }
        self.trace.emit_with(now, reported, EventKind::Report, || {
            format!("excess service reported by {reporter}")
        });
        // Only reports evict, so an evicted node's quorum is reached and
        // its reporters are never recorded again.
        if !self.eng.evicted.contains(reported.index())
            && st.reporters.record(reported.index(), reporter.index())
        {
            self.eng.evicted.insert(reported.index());
            self.evictions += 1;
            self.trace
                .emit(now, reported, EventKind::Evict, "evicted on report quorum");
        }
    }

    /// Rotate the satiated target set (when the plan asks for it): the
    /// target window slides over the honest population so every node takes
    /// turns being satiated — and, in between, isolated.
    fn rotate_targets(&mut self, t: Round) {
        let Some(period) = self.eng.plan.rotation_period() else {
            return;
        };
        if !self.eng.plan.kind.satiates() || !t.is_multiple_of(period) {
            return;
        }
        // Honest indices are fixed at assignment time, so the rotation
        // window reads the static ascending `honest_list` directly —
        // the same list the per-rotation dense scan used to rebuild.
        if self.eng.honest_list.is_empty() {
            return;
        }
        let count = (self
            .eng
            .plan
            .satiated_honest_count(self.eng.class.len() as u32) as usize)
            .min(self.eng.honest_list.len());
        self.eng.target.clear();
        let phase = self
            .eng
            .env
            .schedule()
            .rotation_phase(t)
            .expect("rotation_period() implies a rotation phase");
        for w in schedule::rotating_window(phase, count, self.eng.honest_list.len()) {
            self.eng.target.insert(self.eng.honest_list[w] as usize);
        }
    }

    /// Whether the exchange plans cover every node: only while the
    /// population fits one shard, so paper-scale runs keep the dense
    /// order while multi-shard runs plan only active shards.
    fn dense_plan(&self) -> bool {
        self.eng.node_count() <= self.eng.env.shards().shard_size()
    }

    /// Phase 4: balanced exchanges — plan, shuffle, sequential apply.
    ///
    /// In digest mode this one loop also runs the two-leg digest round,
    /// which replaces both classic phases: only the order stream
    /// (`"digest-order"`), the bloom index rebuild and the honest arm
    /// ([`BarGossipSim::digest_exchange`] instead of
    /// [`BarGossipSim::balanced_transfer`]) differ. In bloom mode the
    /// probe index is rebuilt over this round's live window first:
    /// every engaged window is in lockstep with `full`, so it covers
    /// every advertisement of the round.
    // lint: hot-loop
    fn balanced_phase(&mut self, t: Round) {
        // Only slots inside active shards can be served this round
        // (responders are alive, and alive ⊆ the round snapshot), so
        // the clear is O(active shards), not a full-slab fill.
        netsim::round::clear_counters_for(&mut self.served, self.eng.env.shards().active_ranges());
        let order = match &mut self.digest_state {
            Some(st) => {
                if !st.dcfg.exact {
                    st.bloom.rebuild(self.eng.full.start(), t);
                }
                self.eng.rng.fork_idx("digest-order", t)
            }
            None => self.eng.rng.fork_idx("balanced-order", t),
        };
        let mut pairs =
            self.eng
                .plan_phase(t, Protocol::BalancedExchange, order, self.dense_plan());
        while let Some(e) = self.eng.next_pair(&mut pairs, &self.served) {
            let (v, p) = (e.initiator, e.partner);
            if !e.is_linked() {
                // Partitioned apart: the interaction never happens.
                self.eng.env.faults_mut().note_partition_blocked();
                continue;
            }
            // Only overt attackers take the attacker arms: attackers run the
            // honest protocol while the schedule has the attack off, and
            // covert ones always do.
            let trade = self.eng.plan.kind == AttackKind::TradeLotusEater;
            match (self.eng.overt_attacker(v), self.eng.overt_attacker(p)) {
                (true, true) => {
                    if trade {
                        self.attacker_sync(v, p);
                    }
                }
                (true, false) => {
                    if trade && self.eng.target.contains(p.index()) && self.responder_accepts(p) {
                        self.attacker_gift(v, p, t, false);
                    }
                    // Crash/ideal attackers never initiate.
                }
                (false, true) => {
                    if trade && self.eng.target.contains(v.index()) {
                        // The scheduled exchange gives the attacker an
                        // interaction; it responds by gifting.
                        self.attacker_gift(p, v, t, false);
                    }
                    // Otherwise the exchange fails: the initiator's slot is
                    // wasted (exactly the crash attack's damage).
                }
                (false, false) => {
                    if !self.responder_accepts(p) {
                        continue; // responder at capacity: initiation wasted
                    }
                    if self.digest_state.is_some() {
                        self.digest_exchange(v, p, t);
                    } else {
                        self.balanced_transfer(v, p, t);
                    }
                }
            }
        }
    }

    /// The classic honest arm of a balanced exchange: a one-for-one
    /// trade of full windows. Each direction is one message through the
    /// fault layer; an expected-but-silent direction is what the cut-off
    /// defense strikes on (loss and masquerade are indistinguishable
    /// here — by design).
    // lint: hot-loop
    fn balanced_transfer(&mut self, v: NodeId, p: NodeId, t: Round) {
        let mut out = std::mem::take(&mut self.balanced_scratch);
        balanced_rows(
            self.eng.windows.row(v.index()).words(),
            self.eng.windows.row(p.index()).words(),
            whole_window(),
            self.eng.cfg.defenses.unbalanced_exchanges,
            self.eng.cfg.defenses.rate_limit,
            &mut out,
        );
        if self.faulty_send(p, v, out.to_initiator.len as u64, 0) {
            self.eng
                .windows
                .union_words(v.index(), &out.to_initiator.mask);
        } else if !out.to_initiator.is_empty() {
            self.note_silence(v, p, t);
        }
        if self.faulty_send(v, p, out.to_responder.len as u64, 0) {
            self.eng
                .windows
                .union_words(p.index(), &out.to_responder.mask);
        } else if !out.to_responder.is_empty() {
            self.note_silence(p, v, t);
        }
        self.balanced_scratch = out;
    }

    /// Phase 5: optimistic pushes — plan, shuffle, sequential apply.
    // lint: hot-loop
    fn push_phase(&mut self, t: Round) {
        // Shard-range clear, as in `balanced_phase`: the push cap does
        // not count the balanced phase's interactions.
        netsim::round::clear_counters_for(&mut self.served, self.eng.env.shards().active_ranges());
        let mut pairs = self.eng.plan_phase(
            t,
            Protocol::OptimisticPush,
            self.eng.rng.fork_idx("push-order", t),
            self.dense_plan(),
        );
        // The rows and `full` advance in lockstep, so the phase checks
        // their alignment and derives its two age bands once, relative to
        // round t, the newest live round.
        debug_assert!(self.eng.full.is_live(UpdateId { round: t, slot: 0 }));
        let windows = &self.eng.windows;
        windows.check_aligned(&self.eng.full);
        windows.band_into(0, self.eng.cfg.recent_age, &mut self.recent_band);
        windows.band_into(self.eng.cfg.old_age, u32::MAX, &mut self.old_band);
        while let Some(e) = self.eng.next_pair(&mut pairs, &self.served) {
            let (v, p) = (e.initiator, e.partner);
            // Attacker-specific push behaviour only while the attack is
            // on; a cooperating attacker falls through to the honest
            // rational-push logic below, as do covert attackers (whose
            // defection lives inside the delivery step). Note the
            // attacker arms are deliberately *not* gated on the link —
            // the legacy path never was (attacker pooling models an
            // out-of-band channel), and the goldens pin that.
            if self.eng.overt_attacker(v) {
                if self.eng.plan.kind == AttackKind::TradeLotusEater {
                    if self.eng.class[p.index()] == NodeClass::Attacker {
                        self.attacker_sync(v, p);
                    } else if self.eng.target.contains(p.index()) && self.responder_accepts(p) {
                        self.attacker_gift(v, p, t, true);
                    }
                }
                continue;
            }
            // Rational initiation condition: only when missing old updates.
            if !wants_push_row(
                self.eng.windows.row(v.index()).words(),
                self.eng.full.view().words(),
                self.old_band.iter().copied(),
            ) {
                continue;
            }
            if !e.is_linked() {
                self.eng.env.faults_mut().note_partition_blocked();
                continue; // partitioned apart
            }
            if self.eng.overt_attacker(p) {
                if self.eng.plan.kind == AttackKind::TradeLotusEater
                    && self.eng.target.contains(v.index())
                {
                    self.attacker_gift(p, v, t, true);
                }
                continue;
            }
            if !self.responder_accepts(p) {
                continue;
            }
            let mut out = std::mem::take(&mut self.push_scratch);
            push_rows(
                self.eng.windows.row(v.index()).words(),
                self.eng.windows.row(p.index()).words(),
                self.recent_band.iter().copied(),
                self.old_band.iter().copied(),
                self.eng.cfg.push_size,
                self.eng.cfg.defenses.rate_limit,
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
            if self.faulty_send(v, p, out.to_responder.len as u64, 0) {
                self.eng
                    .windows
                    .union_words(p.index(), &out.to_responder.mask);
            }
            if self.faulty_send(
                p,
                v,
                out.useful_to_initiator.len as u64,
                u64::from(out.junk_to_initiator),
            ) {
                self.eng
                    .windows
                    .union_words(v.index(), &out.useful_to_initiator.mask);
            }
            self.push_scratch = out;
        }
    }

    /// One two-leg digest exchange between `v` (initiator) and `p`
    /// (responder). Leg 1 swaps advertisements and builds each side's
    /// request mask; leg 2 ships the requested updates
    /// ([`BarGossipSim::digest_deliver`]).
    ///
    /// * **Bloom mode** — each side advertises a
    ///   [`BloomDigest`](lotus_core::digest::BloomDigest) of its whole
    ///   window (`bits/8` bytes each way); the other side probes for its
    ///   *own missing* live ids in round/slot order and requests the
    ///   positives (8 bytes per id). No false negatives means every id
    ///   the sender holds and the receiver needs is requested; a false
    ///   positive wastes one request. The round's [`BloomIndex`] gives
    ///   the filter's exact answers as a mask: the sender's held ids the
    ///   receiver lacks, plus the false positives among the ids neither
    ///   holds.
    /// * **Exact mode** — the sides swap one
    ///   [`region_hash`](lotus_core::digest::region_hash) per live round
    ///   (8 bytes each way); divergent rounds exchange their raw slot
    ///   masks (8 bytes each way, counted as request bytes) and diff
    ///   exactly. The hash is injective in the mask, so a round diverges
    ///   exactly when its masks differ, and the masks are compared
    ///   directly.
    ///
    /// The X9 rate limit caps each request mask at build time (its
    /// oldest ids are kept) — the receiver knows the cap, so truncation
    /// can never read as withholding. Held ids enter the request masks
    /// identically in both modes, so the poison stream draws identically
    /// whichever advertisement is in force (the delivery-equivalence
    /// golden pins this).
    fn digest_exchange(&mut self, v: NodeId, p: NodeId, t: Round) {
        let mut st = self
            .digest_state
            .take()
            .expect("digest exchanges imply digest state");
        let limit = self
            .eng
            .cfg
            .defenses
            .rate_limit
            .map_or(usize::MAX, |c| c as usize);
        let mut want_v = std::mem::take(&mut st.want_initiator);
        let mut want_p = std::mem::take(&mut st.want_partner);
        let (wv, wp) = (
            self.eng.windows.row(v.index()),
            self.eng.windows.row(p.index()),
        );
        debug_assert!(
            wv.is_live(UpdateId { round: t, slot: 0 }),
            "window ends at t"
        );
        if st.dcfg.exact {
            let diverged = wv.masks().zip(wp.masks()).filter(|(a, b)| a != b).count();
            st.stats.bytes_digests += 2 * ID_WIRE_BYTES * (t - wv.start() + 1);
            st.stats.bytes_requests += 2 * ID_WIRE_BYTES * diverged as u64;
            let (sv, sp) = (wv.words(), wp.words());
            want_v.len = wanted_rows(sv, sp, whole_window(), limit, &mut want_v.mask);
            want_p.len = wanted_rows(sp, sv, whole_window(), limit, &mut want_p.mask);
        } else {
            debug_assert!(
                wv.start() == st.bloom.first(),
                "engaged windows advance in lockstep with the round's index"
            );
            let (sv, sp) = (wv.words(), wp.words());
            want_v.len = st.bloom.wanted_into(sp, sv, limit, &mut want_v.mask);
            want_p.len = st.bloom.wanted_into(sv, sp, limit, &mut want_p.mask);
            st.stats.bytes_digests += 2 * st.bloom.size_bytes();
            st.stats.bytes_requests += ID_WIRE_BYTES * (want_v.len + want_p.len) as u64;
        }
        st.stats.requests += (want_v.len + want_p.len) as u64;
        // Leg 2: each side answers the other's request mask.
        self.digest_deliver(&mut st, p, v, &mut want_v, t);
        self.digest_deliver(&mut st, v, p, &mut want_p, t);
        st.want_initiator = want_v;
        st.want_partner = want_p;
        self.digest_state = Some(st);
    }

    /// Transfer leg: `sender` answers `receiver`'s request mask, which is
    /// narrowed in place to what it delivers. A requested id the sender
    /// lacks is a bloom false positive (exact mode never produces one); a
    /// poisoning attacker withholds each *held* id at
    /// [`AttackPlan::poison_rate`] — one draw per held id in round/slot
    /// order, so the poison stream is advertisement-agnostic. The
    /// digest-audit defense samples every advertised-but-undelivered id
    /// at `audit` until its first hit and files at most one silence
    /// strike per direction: to the receiver, a false positive and a
    /// withheld id are indistinguishable — exactly the attack's
    /// deniability claim, which is why the defense's collateral shows up
    /// as `false_cut_rate`. Every audit draw has the same rate, so the
    /// draws depend only on how many ids went undelivered, not on their
    /// order. Whole-message loss of a non-empty delivery strikes as in
    /// the balanced phase (the want was mutual knowledge).
    // lint: hot-loop
    fn digest_deliver(
        &mut self,
        st: &mut DigestState,
        sender: NodeId,
        receiver: NodeId,
        want: &mut Transfer,
        t: Round,
    ) {
        let poison = if self.eng.env.attack_active()
            && self.eng.plan.kind == AttackKind::Poison
            && self.eng.is_attacker(sender)
        {
            Odds::of(self.eng.plan.poison_rate)
        } else {
            Odds::of(0.0)
        };
        let (mut fp, mut withheld) = (0, 0);
        let held = self.eng.windows.row(sender.index()).words();
        for (w, &s) in want.mask.iter_mut().zip(held) {
            fp += (*w & !s).count_ones() as usize;
            *w &= s;
            let kept = poison.trial(&mut st.poison_rng, *w);
            withheld += kept.count_ones() as usize;
            *w &= !kept;
        }
        let delivered = want.len - fp - withheld;
        want.len = delivered;
        let audit = st.dcfg.audit;
        let strike = (0..fp + withheld).any(|_| st.audit_rng.chance(audit));
        st.stats.fp_requests += fp as u64;
        st.stats.withheld += withheld as u64;
        st.stats.bytes_updates += UPDATE_WIRE_BYTES * delivered as u64;
        if delivered > 0 {
            if self.faulty_send(sender, receiver, delivered as u64, 0) {
                self.eng.windows.union_words(receiver.index(), &want.mask);
            } else {
                self.note_silence(receiver, sender, t);
            }
        }
        if strike {
            self.note_silence(receiver, sender, t);
        }
    }

    /// Snapshot the report for the rounds executed so far.
    pub fn report(&self) -> BarGossipReport {
        let counts = ClassCounts {
            isolated: self.eng.class_counts[0] as u32,
            satiated: self.eng.class_counts[1] as u32,
            attacker: self.eng.class_counts[2] as u32,
        };
        let attacker_nodes = &self.eng.attacker_list;
        let honest_nodes = &self.eng.honest_list;
        let unusable_rounds = |i: usize| self.eng.unusable_rounds(i);
        BarGossipReport {
            rounds: self.round,
            delivery: self.eng.delivery(),
            attacker_coverage: if self.attacker_union_total == 0 {
                0.0
            } else {
                self.attacker_union_delivered as f64 / self.attacker_union_total as f64
            },
            counts,
            evictions: self.evictions,
            junk_fraction: self.meter.junk_fraction(),
            mean_attacker_upload: self.meter.group_mean(ATTACKER_GROUP, attacker_nodes.len()),
            mean_honest_upload: self.meter.group_mean(HONEST_GROUP, honest_nodes.len()),
            isolated_series: self.eng.isolated_series.clone(),
            usability_threshold: self.eng.cfg.usability_threshold,
            min_node_delivery: {
                let per_round_total =
                    u64::from(self.eng.cfg.updates_per_round) * u64::from(self.eng.measured_rounds);
                if per_round_total == 0 {
                    0.0
                } else {
                    honest_nodes
                        .iter()
                        .map(|&i| {
                            self.eng.node_delivered[i as usize] as f64 / per_round_total as f64
                        })
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
                let samples = honest_nodes.len() as u64 * u64::from(self.eng.measured_rounds);
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
            cuts: self.eng.cutoff.stats(),
            fault_counters: self.eng.env.fault_counters(),
            digest: self.digest_state.as_ref().map(|d| d.stats),
        }
    }
}

impl RoundSim for BarGossipSim {
    // lint: hot-loop
    fn round(&mut self, t: Round) {
        debug_assert_eq!(t, self.round, "rounds must be sequential");
        self.eng.begin_round(t);
        self.account_attacker_coverage(t);
        self.rotate_targets(t);
        self.eng.advance_windows(t);
        self.eng.seed_round(t);
        // Observation 3.1 harness: fed nodes receive the new batch the
        // moment it is released — "sufficiently rapidly" taken literally.
        if !self.fed.is_empty() {
            for i in self.fed.iter() {
                self.eng.windows.union_with(i, &self.eng.full);
            }
            self.fed.clear();
        }
        self.ideal_forwarding();
        self.balanced_phase(t);
        // Digest mode: the two-leg exchange replaces both classic phases
        // (its diff already covers what pushes would carry).
        if self.digest_state.is_none() {
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
        self.eng.ensure_engaged(node.index());
        self.eng.windows.union_with(node.index(), &self.eng.full);
        self.fed.insert(node.index());
    }
}

impl lotus_core::satiation::Satiable for BarGossipSim {
    fn node_count(&self) -> u32 {
        self.eng.class.len() as u32
    }

    /// A node is satiated when it holds every live update (a
    /// disengaged node's all-zero row is satiated iff nothing is live).
    fn is_satiated(&self, node: NodeId) -> bool {
        self.eng
            .windows
            .row(node.index())
            .missing_from(&self.eng.full)
            == 0
    }

    fn service_provided(&self, node: NodeId) -> u64 {
        self.meter.payload_uploaded(node)
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
        lotus_core::scenario::step_rounds(self, self.eng.cfg.total_rounds())
    }

    fn report(&self) -> BarGossipReport {
        BarGossipSim::report(self)
    }

    fn arm_trace(&self) -> Option<&[lotus_core::adaptive::TraceEntry]> {
        self.eng.env.schedule().arm_trace()
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
    use lotus_core::scenario::run;

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
        let report = run::<BarGossipSim>(small_cfg(), AttackPlan::none(), 1);
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
        let a = run::<BarGossipSim>(small_cfg(), AttackPlan::crash(0.2), 5);
        let b = run::<BarGossipSim>(small_cfg(), AttackPlan::crash(0.2), 5);
        assert_eq!(a, b);
        let c = run::<BarGossipSim>(small_cfg(), AttackPlan::crash(0.2), 6);
        assert_ne!(a.delivery, c.delivery);
    }

    #[test]
    fn crash_attack_degrades_delivery_monotonically_ish() {
        let d0 = run::<BarGossipSim>(small_cfg(), AttackPlan::none(), 3).overall_delivery();
        let d50 = run::<BarGossipSim>(small_cfg(), AttackPlan::crash(0.5), 3).isolated_delivery();
        let d90 = run::<BarGossipSim>(small_cfg(), AttackPlan::crash(0.9), 3).isolated_delivery();
        assert!(d50 < d0, "50% crash must hurt: {d50} vs {d0}");
        assert!(d90 < d50, "90% crash must hurt more: {d90} vs {d50}");
        assert!(d90 < 0.5, "90% crash should cripple the system");
    }

    #[test]
    fn trade_attack_starves_isolated_and_feeds_satiated() {
        let report = run::<BarGossipSim>(small_cfg(), AttackPlan::trade_lotus_eater(0.3, 0.7), 4);
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
        let ideal = run::<BarGossipSim>(small_cfg(), AttackPlan::ideal_lotus_eater(0.05, 0.7), 4);
        let trade = run::<BarGossipSim>(small_cfg(), AttackPlan::trade_lotus_eater(0.05, 0.7), 4);
        assert!(
            ideal.isolated_delivery() <= trade.isolated_delivery() + 0.02,
            "ideal ({}) should hit at least as hard as trade ({}) at 5%",
            ideal.isolated_delivery(),
            trade.isolated_delivery()
        );
    }

    #[test]
    fn ideal_attacker_holds_partial_coverage() {
        let report = run::<BarGossipSim>(small_cfg(), AttackPlan::ideal_lotus_eater(0.05, 0.7), 2);
        assert!(
            report.attacker_coverage > 0.05 && report.attacker_coverage < 0.9,
            "a small attacker holds partial coverage, got {}",
            report.attacker_coverage
        );
    }

    #[test]
    fn crash_attack_needs_no_bandwidth() {
        let report = run::<BarGossipSim>(small_cfg(), AttackPlan::crash(0.3), 2);
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
        let report = run::<BarGossipSim>(cfg, AttackPlan::trade_lotus_eater(0.2, 0.7), 3);
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
        let report = run::<BarGossipSim>(cfg, AttackPlan::none(), 3);
        assert_eq!(
            report.evictions, 0,
            "honest protocol traffic is never excessive"
        );
    }

    #[test]
    fn rate_limit_blunts_trade_attack() {
        let attack = AttackPlan::trade_lotus_eater(0.25, 0.7);
        let open = run::<BarGossipSim>(small_cfg(), attack, 6);
        let mut limited_cfg = small_cfg();
        limited_cfg.defenses.rate_limit = Some(2);
        let limited = run::<BarGossipSim>(limited_cfg, attack, 6);
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
        let report = run::<BarGossipSim>(cfg, AttackPlan::none(), 1);
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
        let no_recv = run::<BarGossipSim>(cfg, AttackPlan::trade_lotus_eater(0.2, 0.7), 5);
        let recv = run::<BarGossipSim>(small_cfg(), AttackPlan::trade_lotus_eater(0.2, 0.7), 5);
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
        let fixed = run::<BarGossipSim>(small_cfg(), static_plan, 12);
        let rotated = run::<BarGossipSim>(small_cfg(), rotating, 12);
        assert!(
            rotated.nodes_ever_unusable >= fixed.nodes_ever_unusable,
            "slow rotation must touch at least as many nodes: {} vs {}",
            rotated.nodes_ever_unusable,
            fixed.nodes_ever_unusable
        );
    }

    #[test]
    fn per_node_metrics_are_sane() {
        let report = run::<BarGossipSim>(small_cfg(), AttackPlan::trade_lotus_eater(0.3, 0.7), 3);
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
        let report = run::<BarGossipSim>(small_cfg(), AttackPlan::none(), 2);
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
        let faulted = run::<BarGossipSim>(cfg, AttackPlan::trade_lotus_eater(0.2, 0.7), 5);
        let plain = run::<BarGossipSim>(small_cfg(), AttackPlan::trade_lotus_eater(0.2, 0.7), 5);
        assert_eq!(faulted, plain);
        assert!(faulted.fault_counters.is_none());
        assert!(faulted.cuts.is_none());
    }

    #[test]
    fn message_loss_degrades_delivery() {
        let mut cfg = small_cfg();
        cfg.faults = lotus_core::faults::FaultPlan::parse("loss:0.4").unwrap();
        let lossy = run::<BarGossipSim>(cfg, AttackPlan::none(), 3);
        let clean = run::<BarGossipSim>(small_cfg(), AttackPlan::none(), 3);
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
        let crashy = run::<BarGossipSim>(cfg, AttackPlan::none(), 7);
        let clean = run::<BarGossipSim>(small_cfg(), AttackPlan::none(), 7);
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
        let split = run::<BarGossipSim>(cfg, AttackPlan::none(), 2);
        let counters = split.fault_counters.expect("active plan reports counters");
        assert!(counters.partition_blocked > 0, "cross-cell pairs blocked");
    }

    #[test]
    fn masquerade_is_honest_on_a_perfect_network() {
        let report = run::<BarGossipSim>(small_cfg(), AttackPlan::masquerade(0.2), 4);
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
        let attacked = run::<BarGossipSim>(cfg.clone(), AttackPlan::masquerade(0.3), 4);
        let unattacked = run::<BarGossipSim>(cfg, AttackPlan::none(), 4);
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
        let report = run::<BarGossipSim>(cfg, AttackPlan::none(), 6);
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
        let report = run::<BarGossipSim>(cfg, AttackPlan::none(), 6);
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
        let capped = run::<BarGossipSim>(capped_cfg, AttackPlan::none(), 11);
        let open = run::<BarGossipSim>(open_cfg, AttackPlan::none(), 11);
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
        let report = run::<BarGossipSim>(
            digest_cfg(DigestExchangeConfig::default()),
            AttackPlan::none(),
            1,
        );
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
        let bloom = run::<BarGossipSim>(
            digest_cfg(DigestExchangeConfig::default()),
            AttackPlan::poison(0.3, 1.0),
            9,
        );
        let exact = run::<BarGossipSim>(
            digest_cfg(DigestExchangeConfig {
                exact: true,
                ..DigestExchangeConfig::default()
            }),
            AttackPlan::poison(0.3, 1.0),
            9,
        );
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
        let honest = run::<BarGossipSim>(
            digest_cfg(DigestExchangeConfig::default()),
            AttackPlan::poison(0.3, 0.0),
            7,
        );
        let full = run::<BarGossipSim>(
            digest_cfg(DigestExchangeConfig::default()),
            AttackPlan::poison(0.3, 1.0),
            7,
        );
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
        let report = run::<BarGossipSim>(cfg, AttackPlan::poison(0.3, 1.0), 5);
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
        let a = run::<BarGossipSim>(
            digest_cfg(DigestExchangeConfig::default()),
            AttackPlan::poison(0.2, 0.6),
            3,
        );
        let b = run::<BarGossipSim>(
            digest_cfg(DigestExchangeConfig::default()),
            AttackPlan::poison(0.2, 0.6),
            3,
        );
        assert_eq!(a, b);
        // A classic run carries no digest stats at all.
        let classic = run::<BarGossipSim>(small_cfg(), AttackPlan::none(), 3);
        assert!(classic.digest.is_none());
    }
}
