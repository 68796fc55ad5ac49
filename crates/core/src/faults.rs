//! Fault injection: lossy links, crashes and partitions, as a
//! first-class, cross-substrate dimension.
//!
//! The lotus-eater attack is defection by *silence* — and silence is only
//! damning when the network is otherwise reliable. On a perfect network a
//! cut-off defense may attribute every missed exchange to malice; under
//! realistic message loss, crashes and partitions the same defense must
//! trade false positives (punishing unlucky honest nodes) against letting
//! attackers hide inside the background fault rate. This module gives
//! every substrate the same deterministic machinery to pose that
//! question:
//!
//! * [`FaultPlan`] — the `Copy` fault specification, parseable from the
//!   `lotus-bench --faults` grammar (`loss:0.05`, `crash:0.01:0.2`,
//!   `partition:200:80:0.3`, components combinable with `/`);
//! * [`FaultState`] — the per-run stepper: message fates (drop,
//!   duplicate, delay-by-one-round) drawn per directed delivery, node
//!   crashes that *lose state* (the simulator scans
//!   [`FaultState::just_crashed`] and re-enters those nodes cold — empty
//!   windows, empty piece maps, reset histories — distinct from churn,
//!   where absent nodes keep their state), and an epoch partition that
//!   splits the population into two non-communicating cells;
//! * [`Fate`] — what happened to one directed message.
//!
//! # Randomness discipline
//!
//! [`FaultState::new`] forks three labelled child streams from the
//! simulator's root rng — `"faults"` for per-message fates, `"crash"`
//! for crash/recovery draws, `"partition"` for the cell draw — and
//! forking never advances the parent, so *constructing* a fault layer
//! cannot perturb any existing stream.
//!
//! Within a stream, draws go in ascending node order. At the epoch's
//! first round every node draws its cell; every round a down node draws
//! to recover and an up unexempt node draws to crash. A rate of exactly
//! 0 or 1 decides without a draw, as [`DetRng::chance`] does.
//! [`FaultState::begin_round`] makes both draws 64 nodes per word through
//! [`DetRng::chance_bits`] and keeps this order exactly;
//! `crates/core/tests/fault_props.rs` checks it every round against the
//! node-by-node loops it replaced.
//!
//! # Hot-loop allocation invariants
//!
//! [`FaultState::begin_round`] and [`FaultState::fate`] never allocate:
//! they flip bits in preallocated sets. With an inactive plan
//! ([`FaultPlan::none`], but also any explicitly configured zero-rate
//! plan) they return immediately *without drawing randomness*, so
//! configuring faults at rate zero can never perturb any stream, and
//! fault-free runs are bit-identical to pre-fault behaviour per seed
//! (the golden tests in `crates/bench/tests/faults_golden.rs` are the
//! guardrail).
//!
//! # Delay semantics
//!
//! Delay-by-one-round is realised allocation-free as a one-message link
//! buffer per *destination*: a delayed message is withheld this round
//! (the sender sees [`Fate::Drop`]) and a delivery credit is recorded;
//! the next message bound for that destination consumes the credit and
//! is delivered without a draw — the link lags by one round instead of
//! queueing unbounded state.

use crate::bitset::BitSet;
use netsim::rng::{DetRng, Odds};
use netsim::Round;

/// What happened to one directed message under [`FaultState::fate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The message arrives normally.
    Deliver,
    /// The message is lost (or withheld one round by a delay fault).
    Drop,
    /// The message arrives *and* a spurious duplicate arrives with it.
    /// Receivers in every substrate are idempotent, so the duplicate's
    /// only effect is wasted bandwidth — simulators meter it as junk.
    Duplicate,
}

/// Deterministic fault specification: message-level faults, crashes and
/// a partition epoch. `Copy`, so substrate configs stay cheap to clone
/// and sweep.
///
/// ```
/// use lotus_core::faults::FaultPlan;
///
/// let plan = FaultPlan::parse("loss:0.05/crash:0.01:0.2").unwrap();
/// assert!(plan.is_active());
/// assert_eq!(plan.loss, 0.05);
/// assert!(!FaultPlan::none().is_active());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Per-message probability the message is silently dropped.
    pub loss: f64,
    /// Per-message probability a spurious duplicate is delivered
    /// alongside the message.
    pub duplicate: f64,
    /// Per-message probability the message is withheld for one round
    /// (see the module docs for the link-buffer realisation).
    pub delay: f64,
    /// Per-round probability an up node crashes, losing its state.
    pub crash: f64,
    /// Per-round probability a crashed node recovers (re-entering cold).
    pub recover: f64,
    /// First round of the partition epoch.
    pub partition_start: Round,
    /// Rounds the partition lasts (`0` = no partition configured).
    pub partition_len: Round,
    /// Expected fraction of nodes drawn into the minority cell.
    pub partition_frac: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The perfect network: no faults of any kind (the default).
    pub fn none() -> Self {
        FaultPlan {
            loss: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            crash: 0.0,
            recover: 0.0,
            partition_start: 0,
            partition_len: 0,
            partition_frac: 0.0,
        }
    }

    /// Whether any per-message fate can differ from [`Fate::Deliver`].
    pub fn has_message_faults(&self) -> bool {
        self.loss > 0.0 || self.duplicate > 0.0 || self.delay > 0.0
    }

    /// Whether nodes can crash at all.
    pub fn has_crashes(&self) -> bool {
        self.crash > 0.0
    }

    /// Whether a partition epoch is configured and can populate a cell.
    pub fn has_partition(&self) -> bool {
        self.partition_len > 0 && self.partition_frac > 0.0
    }

    /// Whether any fault can happen at all. An inactive plan is a
    /// guaranteed no-op no matter how it was spelled:
    /// [`FaultState::begin_round`] and [`FaultState::fate`] draw nothing
    /// under it, so an explicitly configured zero-rate plan cannot
    /// perturb any randomness stream.
    pub fn is_active(&self) -> bool {
        self.has_message_faults() || self.has_crashes() || self.has_partition()
    }

    /// The ambient silence rate an observer sees on an honest link
    /// outside any partition epoch: the probability a given message
    /// simply fails to arrive this round (loss, or a delay hold). This
    /// is the rate a fault-masquerading defector matches to stay
    /// statistically camouflaged while the network is whole; during a
    /// partition epoch the camouflage rate is
    /// [`FaultPlan::ambient_silence_rate_during`] instead.
    pub fn ambient_silence_rate(&self) -> f64 {
        self.loss + (1.0 - self.loss) * self.delay
    }

    /// Expected probability that a uniformly random pair straddles the
    /// partition cells while the epoch is in force. Each node lands in
    /// the minority cell independently with probability
    /// `partition_frac`, so a pair is cross-cell (and its exchange is
    /// silently blocked) with probability `2f(1 - f)`.
    pub fn partition_cross_cell_rate(&self) -> f64 {
        2.0 * self.partition_frac * (1.0 - self.partition_frac)
    }

    /// The ambient silence rate an observer sees on an honest link,
    /// folding in expected partition blocking when a partition epoch is
    /// currently in force. Loss, delay holds, and cross-cell blocking
    /// compose as independent survival terms:
    /// `1 - (1-loss)(1-delay)(1-block)` where `block` is
    /// [`FaultPlan::partition_cross_cell_rate`] during the epoch and 0
    /// outside it. This is the rate a fault-masquerading defector
    /// matches each round; matching only loss and delay would
    /// understate ambient silence during partition epochs and make the
    /// masquerade statistically visible there.
    pub fn ambient_silence_rate_during(&self, partitioned: bool) -> f64 {
        let base = self.ambient_silence_rate();
        if partitioned {
            base + (1.0 - base) * self.partition_cross_cell_rate()
        } else {
            base
        }
    }

    /// Replace the loss rate (the `fault_loss` sweep axis), clamped to
    /// `[0, 1]`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 1.0);
        self
    }

    /// Parse the `lotus-bench --faults` grammar: `none`, or one or more
    /// `/`-separated components. Each kind may appear at most once;
    /// repeating a kind (`loss:0.1/loss:0.2`) is rejected rather than
    /// silently last-wins, so a typo cannot shadow an earlier rate:
    ///
    /// ```text
    /// loss:<p>                      drop each message with prob. <p>
    /// dup:<p>                       duplicate each message with prob. <p>
    /// delay:<p>                     withhold each message one round
    /// crash:<rate>:<recover>        per-round crash / recovery probs.
    /// partition:<start>:<len>:<frac>  split off a <frac> cell for <len>
    ///                               rounds starting at <start>
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed component and field.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        if spec == "none" {
            return Ok(FaultPlan::none());
        }
        let mut plan = FaultPlan::none();
        // One bit per known kind, in the grammar order loss / dup /
        // delay / crash / partition; unknown kinds error below anyway.
        let mut seen_kinds = 0u8;
        for part in spec.split('/') {
            let (head, rest) = part.split_once(':').ok_or_else(|| {
                format!("fault plan {spec:?}: component {part:?} wants <kind>:<args>")
            })?;
            let kind_bit = match head {
                "loss" => Some(0u8),
                "dup" => Some(1),
                "delay" => Some(2),
                "crash" => Some(3),
                "partition" => Some(4),
                _ => None,
            };
            if let Some(bit) = kind_bit {
                if seen_kinds & (1 << bit) != 0 {
                    return Err(format!(
                        "fault plan {spec:?}: duplicate {head} component (each fault kind may \
                         appear at most once)"
                    ));
                }
                seen_kinds |= 1 << bit;
            }
            let fields: Vec<&str> = rest.split(':').collect();
            let prob = |what: &str, v: &str| -> Result<f64, String> {
                let p = v
                    .parse::<f64>()
                    .map_err(|_| format!("fault plan {spec:?}: {head} {what} is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!(
                        "fault plan {spec:?}: {head} {what} {p} outside [0, 1]"
                    ));
                }
                Ok(p)
            };
            let round = |what: &str, v: &str| -> Result<Round, String> {
                v.parse::<Round>().map_err(|_| {
                    format!("fault plan {spec:?}: {head} {what} is not a non-negative integer")
                })
            };
            match (head, fields.as_slice()) {
                ("loss", [p]) => plan.loss = prob("probability", p)?,
                ("dup", [p]) => plan.duplicate = prob("probability", p)?,
                ("delay", [p]) => plan.delay = prob("probability", p)?,
                ("crash", [rate, recover]) => {
                    plan.crash = prob("rate", rate)?;
                    plan.recover = prob("recovery probability", recover)?;
                }
                ("partition", [start, len, frac]) => {
                    plan.partition_start = round("start", start)?;
                    plan.partition_len = round("length", len)?;
                    plan.partition_frac = prob("fraction", frac)?;
                    if plan.partition_len == 0 {
                        return Err(format!(
                            "fault plan {spec:?}: partition length must be positive"
                        ));
                    }
                }
                ("loss" | "dup" | "delay", _) => {
                    return Err(format!(
                        "fault plan {spec:?}: {head} wants a single probability"
                    ));
                }
                ("crash", _) => {
                    return Err(format!("fault plan {spec:?}: crash wants <rate>:<recover>"));
                }
                ("partition", _) => {
                    return Err(format!(
                        "fault plan {spec:?}: partition wants <start>:<len>:<frac>"
                    ));
                }
                (other, _) => {
                    return Err(format!(
                        "fault plan {spec:?}: unknown fault {other:?} (loss:<p> | dup:<p> | \
                         delay:<p> | crash:<rate>:<recover> | partition:<start>:<len>:<frac> | \
                         none)"
                    ));
                }
            }
        }
        Ok(plan)
    }
}

/// Per-run fault state under a [`FaultPlan`], deterministic in the rng
/// the simulator forks for it.
///
/// Simulators call [`FaultState::begin_round`] once per round (next to
/// `Population::begin_round`), scan [`FaultState::just_crashed`] to
/// cold-reset crashed nodes, gate interactions on
/// [`FaultState::is_down`] / [`FaultState::link_ok`], and draw a
/// [`Fate`] per directed delivery at the exchange seam.
///
/// ```
/// use lotus_core::faults::{Fate, FaultPlan, FaultState};
/// use netsim::rng::DetRng;
///
/// let rng = DetRng::seed_from(7);
/// let mut faults = FaultState::new(10, FaultPlan::parse("loss:0.5").unwrap(), &rng);
/// faults.begin_round(0);
/// let fates: Vec<Fate> = (0..10).map(|i| faults.fate(0, i)).collect();
/// assert!(fates.iter().any(|&f| f == Fate::Drop), "half the messages drop");
/// ```
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    /// Per-message fate draws (`"faults"` fork).
    msg_rng: DetRng,
    /// Crash/recovery draws (`"crash"` fork).
    crash_rng: DetRng,
    /// Partition cell draw (`"partition"` fork).
    partition_rng: DetRng,
    /// Nodes currently crashed.
    down: BitSet,
    /// Nodes that crashed in the round just begun — the simulator scans
    /// this after [`FaultState::begin_round`] and wipes their state.
    crashed_now: BitSet,
    /// Nodes protected from crashing (origin seeds, attacker peers):
    /// their crash draws are skipped entirely, mirroring
    /// `Population::protect`.
    exempt: BitSet,
    /// Per-destination delay credits (see the module docs).
    delay_credit: BitSet,
    /// The minority partition cell, drawn at epoch start.
    cell: BitSet,
    /// Whether the partition is currently in force.
    partitioned: bool,
    /// Messages dropped by loss faults.
    pub dropped: u64,
    /// Spurious duplicates delivered.
    pub duplicated: u64,
    /// Messages withheld one round by delay faults.
    pub delayed: u64,
    /// Crash events (recoveries are not counted).
    pub crashes: u64,
    /// Interactions blocked by the partition.
    pub partition_blocked: u64,
}

impl FaultState {
    /// Fault state for `n` nodes under `plan`, deriving its three
    /// labelled streams from `parent` (conventionally the simulator's
    /// root rng). Forking never advances `parent`, so adding a fault
    /// layer is stream-invisible to everything else.
    pub fn new(n: usize, plan: FaultPlan, parent: &DetRng) -> Self {
        FaultState {
            plan,
            msg_rng: parent.fork("faults"),
            crash_rng: parent.fork("crash"),
            partition_rng: parent.fork("partition"),
            down: BitSet::new(n),
            crashed_now: BitSet::new(n),
            exempt: BitSet::new(n),
            delay_credit: BitSet::new(n),
            cell: BitSet::new(n),
            partitioned: false,
            dropped: 0,
            duplicated: 0,
            delayed: 0,
            crashes: 0,
            partition_blocked: 0,
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any fault can happen at all (see [`FaultPlan::is_active`]).
    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Exclude `node` from crashing (origin seeds, attacker peers —
    /// roles a substrate cannot lose). Its crash draws are skipped, like
    /// a protected node's departure draws under churn. Also brings the
    /// node back up if it is currently crashed.
    pub fn exempt(&mut self, node: usize) {
        self.exempt.insert(node);
        self.down.remove(node);
        self.crashed_now.remove(node);
    }

    /// Whether `node` is currently crashed.
    #[inline]
    pub fn is_down(&self, node: usize) -> bool {
        self.down.contains(node)
    }

    /// Nodes that crashed in the round just begun: the simulator scans
    /// this after [`FaultState::begin_round`] and re-enters them cold.
    pub fn just_crashed(&self) -> &BitSet {
        &self.crashed_now
    }

    /// Nodes currently crashed, as a mask — the word-parallel seam the
    /// sharded engine folds into its per-round activity mask
    /// (present ∧ not-crashed ∧ not-evicted).
    pub fn down_mask(&self) -> &BitSet {
        &self.down
    }

    /// Nodes currently crashed.
    pub fn down_count(&self) -> usize {
        self.down.len()
    }

    /// Whether the partition is currently in force.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned
    }

    /// The ambient silence rate an observer sees on an honest link
    /// *this round*: [`FaultPlan::ambient_silence_rate_during`]
    /// evaluated at the current partition state. A fault-masquerading
    /// defector draws against this round-aware rate so its silence
    /// statistics track real ambient silence through partition epochs
    /// instead of understating them.
    #[inline]
    pub fn ambient_silence_rate(&self) -> f64 {
        self.plan.ambient_silence_rate_during(self.partitioned)
    }

    /// The minority partition cell (empty unless a partition epoch has
    /// started). Together with its complement it covers every node
    /// exactly once — the property `crates/core/tests/fault_props.rs`
    /// pins.
    pub fn cell(&self) -> &BitSet {
        &self.cell
    }

    /// The message-fate rng stream, for test instrumentation: the
    /// no-draw guarantees in the module docs are asserted by comparing
    /// snapshots before and after stepping.
    pub fn msg_rng_snapshot(&self) -> &DetRng {
        &self.msg_rng
    }

    /// The crash rng stream, for test instrumentation.
    pub fn crash_rng_snapshot(&self) -> &DetRng {
        &self.crash_rng
    }

    /// The partition rng stream, for test instrumentation.
    pub fn partition_rng_snapshot(&self) -> &DetRng {
        &self.partition_rng
    }

    /// Whether `a` and `b` can communicate this round: `false` only
    /// while a partition is in force and the two sit in different
    /// cells. Randomness-free; counts blocked interactions.
    #[inline]
    pub fn link_ok(&mut self, a: usize, b: usize) -> bool {
        if self.link_up(a, b) {
            true
        } else {
            self.partition_blocked += 1;
            false
        }
    }

    /// Read-only form of [`FaultState::link_ok`]: same answer, no
    /// blocked-interaction bookkeeping. Link state is static within a
    /// round (the partition epoch flips at [`FaultState::begin_round`]),
    /// so concurrent plan-phase workers may probe this freely; the
    /// apply phase calls [`FaultState::note_partition_blocked`] at the
    /// exact points the legacy per-edge walk would have counted.
    #[inline]
    pub fn link_up(&self, a: usize, b: usize) -> bool {
        !(self.partitioned && self.cell.contains(a) != self.cell.contains(b))
    }

    /// Count one interaction blocked by the partition — the bookkeeping
    /// half of [`FaultState::link_ok`], for callers that already know
    /// the link is down from a plan-time [`FaultState::link_up`] probe.
    #[inline]
    pub fn note_partition_blocked(&mut self) {
        self.partition_blocked += 1;
    }

    /// Draw the fate of one directed message `from → to`. Draws nothing
    /// (and always delivers) when the plan has no message faults; a
    /// pending delay credit for `to` is consumed without a draw. Fate
    /// draws are ordered loss → delay → duplicate, so each component's
    /// stream position is well defined.
    // lint: hot-loop
    #[inline]
    pub fn fate(&mut self, _from: usize, to: usize) -> Fate {
        if !self.plan.has_message_faults() {
            return Fate::Deliver;
        }
        if self.delay_credit.contains(to) {
            // The link's held message arrives in this slot (module docs).
            self.delay_credit.remove(to);
            return Fate::Deliver;
        }
        if self.msg_rng.chance(self.plan.loss) {
            self.dropped += 1;
            return Fate::Drop;
        }
        if self.msg_rng.chance(self.plan.delay) {
            self.delay_credit.insert(to);
            self.delayed += 1;
            return Fate::Drop;
        }
        if self.msg_rng.chance(self.plan.duplicate) {
            self.duplicated += 1;
            return Fate::Duplicate;
        }
        Fate::Deliver
    }

    /// Advance fault state into round `t`: the partition epoch opens
    /// (drawing its cell) or heals, crashed nodes draw recovery, and up
    /// nodes draw crashes. Nodes that crash land in
    /// [`FaultState::just_crashed`] for the simulator to cold-reset.
    ///
    /// A no-op (no rng draws, no allocation) when the plan is inactive —
    /// including explicitly configured zero-rate plans.
    // lint: hot-loop
    pub fn begin_round(&mut self, t: Round) {
        if !self.plan.is_active() {
            return;
        }
        self.crashed_now.clear();
        if self.plan.has_partition() {
            if t == self.plan.partition_start {
                // Draw the minority cell once, at epoch start.
                let odds = Odds::of(self.plan.partition_frac);
                for w in 0..self.cell.words().len() {
                    let nodes = self.cell.word_span(w);
                    self.cell
                        .set_word(w, odds.trial(&mut self.partition_rng, nodes));
                }
                self.partitioned = true;
            } else if self.partitioned && t >= self.plan.partition_start + self.plan.partition_len {
                self.partitioned = false;
            }
        }
        if self.plan.has_crashes() {
            // 64 nodes per step: a down node draws to recover, an up
            // unexempt node draws to crash, in ascending node order.
            let (crash, recover) = (Odds::of(self.plan.crash), Odds::of(self.plan.recover));
            for w in 0..self.down.words().len() {
                let down = self.down.words()[w];
                let up = !down & !self.exempt.words()[w] & self.down.word_span(w);
                let draw = (down & recover.draw) | (up & crash.draw);
                let hits = (down & recover.sure)
                    | (up & crash.sure)
                    | self.crash_rng.chance_bits(draw, |b| {
                        if (down >> b) & 1 == 1 {
                            recover.thr
                        } else {
                            crash.thr
                        }
                    });
                let crashed = hits & up;
                self.down.set_word(w, down ^ hits);
                self.crashed_now.set_word(w, crashed);
                self.crashes += u64::from(crashed.count_ones());
            }
        }
    }

    /// Snapshot the fault counters for a report.
    pub fn counters(&self) -> FaultCounters {
        FaultCounters {
            dropped: self.dropped,
            duplicated: self.duplicated,
            delayed: self.delayed,
            crashes: self.crashes,
            partition_blocked: self.partition_blocked,
        }
    }
}

/// Snapshot of a run's fault counters (see the [`FaultState`] fields of
/// the same names). Reports carry `Option<FaultCounters>`, present only
/// when the plan was active, so fault-free reports stay byte-identical
/// to pre-fault ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Messages dropped by loss faults.
    pub dropped: u64,
    /// Spurious duplicates delivered.
    pub duplicated: u64,
    /// Messages withheld one round by delay faults.
    pub delayed: u64,
    /// Crash events.
    pub crashes: u64,
    /// Interactions blocked by the partition.
    pub partition_blocked: u64,
}

/// Outcome of a cut-style defense against ground truth, for the
/// robustness metrics of X19: who did the defense cut, and of whom?
///
/// `false_cut_rate` is the honest collateral; `attacker_cut_rate`
/// doubles as recall. The lotus-eater framing: a defense that cuts on
/// silence is exactly as good as silence is evidence — under ambient
/// faults a masquerading defector pushes `attacker_cut_rate` down toward
/// `false_cut_rate`, and when the two meet the defense cannot tell
/// malice from weather.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CutStats {
    /// Honest nodes the defense cut.
    pub cut_honest: u32,
    /// Attacker nodes the defense cut.
    pub cut_attacker: u32,
    /// Honest nodes in the run.
    pub honest: u32,
    /// Attacker nodes in the run.
    pub attackers: u32,
}

impl CutStats {
    /// Fraction of honest nodes wrongly cut.
    pub fn false_cut_rate(&self) -> f64 {
        if self.honest == 0 {
            0.0
        } else {
            f64::from(self.cut_honest) / f64::from(self.honest)
        }
    }

    /// Fraction of attacker nodes cut (detection recall).
    pub fn attacker_cut_rate(&self) -> f64 {
        if self.attackers == 0 {
            0.0
        } else {
            f64::from(self.cut_attacker) / f64::from(self.attackers)
        }
    }

    /// Fraction of all cuts that hit attackers (detection precision);
    /// vacuously 1.0 when nothing was cut.
    pub fn precision(&self) -> f64 {
        let total = self.cut_honest + self.cut_attacker;
        if total == 0 {
            1.0
        } else {
            f64::from(self.cut_attacker) / f64::from(total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshots(f: &FaultState) -> (DetRng, DetRng, DetRng) {
        (
            f.msg_rng_snapshot().clone(),
            f.crash_rng_snapshot().clone(),
            f.partition_rng_snapshot().clone(),
        )
    }

    #[test]
    fn parse_grammar() {
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
        let p = FaultPlan::parse("loss:0.05").unwrap();
        assert_eq!(p.loss, 0.05);
        assert!(p.is_active() && p.has_message_faults());
        let p = FaultPlan::parse("dup:0.1/delay:0.2").unwrap();
        assert_eq!((p.duplicate, p.delay), (0.1, 0.2));
        let p = FaultPlan::parse("crash:0.01:0.2").unwrap();
        assert_eq!((p.crash, p.recover), (0.01, 0.2));
        assert!(p.has_crashes() && !p.has_message_faults());
        let p = FaultPlan::parse("partition:200:80:0.3").unwrap();
        assert_eq!(
            (p.partition_start, p.partition_len, p.partition_frac),
            (200, 80, 0.3)
        );
        assert!(p.has_partition());
        let p = FaultPlan::parse("loss:0.05/crash:0.01:0.2/partition:10:5:0.5").unwrap();
        assert!(p.has_message_faults() && p.has_crashes() && p.has_partition());
        for bad in [
            "",
            "x",
            "loss",
            "loss:x",
            "loss:1.5",
            "loss:0.1:0.2",
            "crash:0.1",
            "crash:0.1:0.2:0.3",
            "partition:10:5",
            "partition:10:0:0.5",
            "partition:x:5:0.5",
            "flood:0.5",
            "loss:0.1//dup:0.1",
            "loss:0.1/loss:0.2",
            "dup:0/dup:0",
            "delay:0.1/loss:0.2/delay:0.1",
            "crash:0.1:0.2/crash:0.1:0.2",
            "partition:1:2:0.5/partition:3:4:0.1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn zero_rate_plans_are_inactive() {
        for spec in ["none", "loss:0", "crash:0:0.5", "partition:10:5:0", "dup:0"] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert!(!plan.is_active(), "{spec:?} is zero-rate");
        }
    }

    #[test]
    fn inactive_plan_draws_nothing() {
        // The regression the no-draw guard covers: faults configured at
        // explicit zero rates must not touch any of the three forks, so
        // adding a fault layer at rate zero cannot perturb any stream.
        for spec in [
            "none",
            "loss:0/dup:0/delay:0",
            "crash:0:0.9",
            "partition:5:5:0",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            let mut f = FaultState::new(16, plan, &DetRng::seed_from(3));
            let before = snapshots(&f);
            for t in 0..200 {
                f.begin_round(t);
                for i in 0..16 {
                    assert!(f.link_ok(0, i));
                    assert_eq!(f.fate(0, i), Fate::Deliver);
                }
            }
            assert_eq!(snapshots(&f), before, "{spec:?} must not draw");
            assert_eq!(f.down_count(), 0);
            assert_eq!(
                (
                    f.dropped,
                    f.duplicated,
                    f.delayed,
                    f.crashes,
                    f.partition_blocked
                ),
                (0, 0, 0, 0, 0)
            );
        }
    }

    #[test]
    fn construction_never_advances_the_parent() {
        let mut a = DetRng::seed_from(11);
        let mut b = DetRng::seed_from(11);
        let _ = FaultState::new(32, FaultPlan::parse("loss:0.5").unwrap(), &a);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn loss_drops_at_roughly_the_configured_rate() {
        let plan = FaultPlan::parse("loss:0.3").unwrap();
        let mut f = FaultState::new(4, plan, &DetRng::seed_from(5));
        let mut drops = 0u32;
        for _ in 0..10_000 {
            if f.fate(0, 1) == Fate::Drop {
                drops += 1;
            }
        }
        let rate = f64::from(drops) / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "drop rate was {rate}");
        assert_eq!(f.dropped, u64::from(drops));
    }

    #[test]
    fn duplicates_are_drawn_and_counted() {
        let plan = FaultPlan::parse("dup:0.5").unwrap();
        let mut f = FaultState::new(4, plan, &DetRng::seed_from(6));
        let dups = (0..1000)
            .filter(|_| f.fate(0, 1) == Fate::Duplicate)
            .count();
        assert!((300..700).contains(&dups), "dup count was {dups}");
        assert_eq!(f.duplicated, dups as u64);
    }

    #[test]
    fn delay_withholds_then_delivers_without_a_draw() {
        let plan = FaultPlan::parse("delay:1").unwrap();
        let mut f = FaultState::new(4, plan, &DetRng::seed_from(7));
        // delay:1 uses chance(1.0), which draws nothing — every odd
        // message is withheld, every even one consumes the credit.
        assert_eq!(f.fate(0, 2), Fate::Drop);
        let before = f.msg_rng_snapshot().clone();
        assert_eq!(f.fate(1, 2), Fate::Deliver, "credit consumed");
        assert_eq!(*f.msg_rng_snapshot(), before, "credit draws nothing");
        assert_eq!(f.fate(0, 2), Fate::Drop, "fresh message held again");
        assert_eq!(f.delayed, 2);
        // Credits are per destination: node 3's link is unaffected.
        assert_eq!(f.fate(0, 3), Fate::Drop);
        assert_eq!(f.fate(0, 3), Fate::Deliver);
    }

    #[test]
    fn crashes_and_recoveries_cycle() {
        let plan = FaultPlan::parse("crash:0.2:0.5").unwrap();
        let mut f = FaultState::new(20, plan, &DetRng::seed_from(8));
        let mut ever_down = false;
        let mut ever_recovered = false;
        let mut was_down = [false; 20];
        for t in 0..300 {
            f.begin_round(t);
            for (i, wd) in was_down.iter_mut().enumerate() {
                if f.is_down(i) {
                    if !*wd {
                        assert!(
                            f.just_crashed().contains(i),
                            "fresh crash of {i} must be flagged at round {t}"
                        );
                    }
                    ever_down = true;
                    *wd = true;
                } else {
                    if *wd {
                        ever_recovered = true;
                    }
                    *wd = false;
                }
            }
        }
        assert!(ever_down && ever_recovered);
        assert!(f.crashes > 0);
    }

    #[test]
    fn exempt_nodes_never_crash() {
        let plan = FaultPlan::parse("crash:0.9:0").unwrap();
        let mut f = FaultState::new(10, plan, &DetRng::seed_from(9));
        f.exempt(3);
        for t in 0..100 {
            f.begin_round(t);
            assert!(!f.is_down(3));
        }
        assert!(f.down_count() > 0, "unexempt nodes do crash");
    }

    #[test]
    fn partition_blocks_cross_cell_links_for_its_epoch() {
        let plan = FaultPlan::parse("partition:5:10:0.5").unwrap();
        let mut f = FaultState::new(40, plan, &DetRng::seed_from(10));
        for t in 0..5 {
            f.begin_round(t);
            assert!(!f.is_partitioned(), "partition not yet open at {t}");
            assert!(f.link_ok(0, 1));
        }
        f.begin_round(5);
        assert!(f.is_partitioned());
        let cell_size = f.cell().len();
        assert!(
            (8..32).contains(&cell_size),
            "~half of 40 nodes in the cell, got {cell_size}"
        );
        let inside = f.cell().iter().next().unwrap();
        let outside = (0..40).find(|&i| !f.cell().contains(i)).unwrap();
        let mut blocked = 0;
        for t in 5..15 {
            if t > 5 {
                f.begin_round(t);
            }
            assert!(f.is_partitioned(), "partition holds at {t}");
            assert!(!f.link_ok(inside, outside));
            assert!(!f.link_ok(outside, inside), "blocking is symmetric");
            assert!(f.link_ok(inside, inside) && f.link_ok(outside, outside));
            blocked += 2;
        }
        assert_eq!(f.partition_blocked, blocked);
        f.begin_round(15);
        assert!(!f.is_partitioned(), "partition heals after its epoch");
        assert!(f.link_ok(inside, outside));
    }

    #[test]
    fn replay_is_deterministic() {
        let plan = FaultPlan::parse("loss:0.1/dup:0.05/delay:0.05/crash:0.05:0.3").unwrap();
        let run = || {
            let mut f = FaultState::new(24, plan, &DetRng::seed_from(13));
            let mut trace = Vec::new();
            for t in 0..100 {
                f.begin_round(t);
                for i in 0..24 {
                    trace.push((f.is_down(i), f.fate(0, i)));
                }
            }
            (trace, f.dropped, f.duplicated, f.delayed, f.crashes)
        };
        assert_eq!(run(), run(), "same seed, same fault history");
    }

    #[test]
    fn ambient_silence_rate_composes_loss_and_delay() {
        let p = FaultPlan::parse("loss:0.1/delay:0.2").unwrap();
        assert!((p.ambient_silence_rate() - (0.1 + 0.9 * 0.2)).abs() < 1e-12);
        assert_eq!(FaultPlan::none().ambient_silence_rate(), 0.0);
        assert_eq!(
            FaultPlan::parse("loss:0.3").unwrap().ambient_silence_rate(),
            0.3
        );
    }

    #[test]
    fn with_loss_overrides_and_clamps() {
        let p = FaultPlan::parse("crash:0.01:0.2").unwrap().with_loss(0.4);
        assert_eq!(p.loss, 0.4);
        assert_eq!((p.crash, p.recover), (0.01, 0.2));
        assert_eq!(FaultPlan::none().with_loss(7.0).loss, 1.0);
    }

    #[test]
    fn duplicate_kinds_are_rejected_not_last_wins() {
        // Regression: this used to parse with the later rate silently
        // winning, so a typo could shadow an earlier component.
        let err = FaultPlan::parse("loss:0.1/loss:0.3").unwrap_err();
        assert!(err.contains("duplicate loss"), "got {err:?}");
        let err = FaultPlan::parse("crash:0.1:0.2/crash:0.3:0.4").unwrap_err();
        assert!(err.contains("duplicate crash"), "got {err:?}");
        // Distinct kinds still compose freely.
        let p = FaultPlan::parse("loss:0.1/dup:0.2/delay:0.3/crash:0.01:0.5/partition:5:10:0.4");
        assert!(p.is_ok());
    }

    #[test]
    fn ambient_silence_rate_folds_partition_blocking_during_epochs() {
        let p = FaultPlan::parse("loss:0.1/delay:0.2/partition:5:10:0.3").unwrap();
        let base = 0.1 + 0.9 * 0.2;
        // Outside the epoch the rate is exactly the loss/delay
        // composition (bit-identical with the legacy accessor, so
        // partition-free masquerade streams are unperturbed).
        assert_eq!(
            p.ambient_silence_rate_during(false),
            p.ambient_silence_rate()
        );
        // During the epoch, expected cross-cell blocking (2f(1-f))
        // composes in as an independent survival term.
        let block = 2.0 * 0.3 * 0.7;
        let during = p.ambient_silence_rate_during(true);
        assert!((during - (base + (1.0 - base) * block)).abs() < 1e-12);
        assert!(during > p.ambient_silence_rate());
        // No partition configured: both states agree.
        let q = FaultPlan::parse("loss:0.25").unwrap();
        assert_eq!(q.ambient_silence_rate_during(true), 0.25);
    }

    #[test]
    fn fault_state_ambient_rate_tracks_the_partition_epoch() {
        let plan = FaultPlan::parse("loss:0.1/partition:3:4:0.5").unwrap();
        let mut f = FaultState::new(64, plan, &DetRng::seed_from(9));
        for t in 0..12 {
            f.begin_round(t);
            let expect = plan.ambient_silence_rate_during(f.is_partitioned());
            assert_eq!(f.ambient_silence_rate(), expect, "round {t}");
            if (3..7).contains(&t) {
                assert!(f.is_partitioned(), "round {t} is inside the epoch");
                assert!(f.ambient_silence_rate() > plan.ambient_silence_rate());
            } else {
                assert!(!f.is_partitioned(), "round {t} is outside the epoch");
                assert_eq!(f.ambient_silence_rate(), plan.ambient_silence_rate());
            }
        }
    }
}
