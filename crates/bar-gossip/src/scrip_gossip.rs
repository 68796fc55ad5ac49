//! Scrip-mediated gossip: the paper's §4 suggestion, built.
//!
//! "This suggests that scrip could be the basis for an incentive-
//! compatible gossip system that is robust against lotus-eater attacks."
//!
//! The idea: replace the balanced exchange's *double coincidence of
//! wants* with money. A node **buys** the updates it is missing at one
//! scrip each; a node **sells** whenever its balance is below its
//! threshold. Satiation splits into two independent conditions:
//!
//! * *update-satiated* — holds every live update → stops **buying**, but
//!   keeps **selling** (it still wants income for future rounds);
//! * *money-satiated* — balance at threshold → stops **selling**, but
//!   spends its hoard buying, putting scrip back into circulation.
//!
//! The BAR-Gossip-style lotus-eater attack (gift updates to a satiated
//! set) therefore no longer silences its targets: update-satiated targets
//! still sell to isolated nodes. To silence a node the attacker must
//! *money*-satiate it — and the fixed money supply caps how many nodes he
//! can hold at threshold simultaneously (exactly the X4 argument from the
//! `scrip-economy` crate, now inside a gossip protocol).
//!
//! The simulator reuses the BAR Gossip substrate (windows, seeding,
//! partner schedule, expiry-based delivery metrics) and mounts the same
//! trade-style attack so the two protocols' attack curves are directly
//! comparable (experiment X12).
//!
//! # Hot-loop invariants
//!
//! The round loop is allocation-free in steady state: the interaction
//! order, purchase, presence and seeding-pick lists are scratch buffers
//! owned by the sim struct, and the ideal-attack pool is a persistent
//! [`WindowSet`] advanced in lockstep with the node windows (cleared and
//! re-unioned each round) rather than rebuilt from round 0. The timing
//! layer (`lotus_core::schedule`, `lotus_core::population`) adds no
//! allocations. Scratch contents are meaningless between rounds;
//! refactors here must keep reports bit-identical per seed (the
//! determinism and schedule-golden tests are the guardrail).

use crate::attack::{AttackKind, AttackPlan};
use crate::config::BarGossipConfig;
use crate::update::WindowSet;
use lotus_core::defense::SilenceCutoff;
use lotus_core::envelope::{RoundEnvelope, Shield, Timing};
use lotus_core::faults::{CutStats, Fate, FaultCounters};
use netsim::partner::{PartnerSchedule, Protocol};
use netsim::plan::{ExchangePlan, LINKED, VIABLE};
use netsim::rng::DetRng;
use netsim::round::RoundSim;
use netsim::{NodeId, Round};

/// Configuration of a scrip-gossip run: the gossip substrate plus the
/// monetary parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ScripGossipConfig {
    /// The gossip substrate (nodes, batches, lifetimes, seeding, horizon,
    /// churn, faults). Of `defenses`, only `cutoff_quorum` (the silence
    /// cut-off) is honored — the monetary mechanism replaces the report
    /// and rate-limit defenses; `attacker_receives` is ignored.
    pub base: BarGossipConfig,
    /// Initial scrip per node (the fixed supply is `nodes x this`).
    pub money_per_node: u32,
    /// Sell only while the balance is below this threshold.
    pub threshold: u32,
}

impl ScripGossipConfig {
    /// Gossip substrate with a monetary system sized so the unattacked
    /// economy never blocks on money: one live window's worth of scrip per
    /// node (`updates_per_round x lifetime`), with the sell-threshold at
    /// three times that (calibrated in the X12 experiment; see
    /// EXPERIMENTS.md).
    pub fn new(base: BarGossipConfig) -> Self {
        let window = base.updates_per_round * base.update_lifetime;
        ScripGossipConfig {
            money_per_node: window,
            threshold: window * 3,
            base,
        }
    }

    /// Total scrip in circulation.
    pub fn total_supply(&self) -> u64 {
        u64::from(self.base.nodes) * u64::from(self.money_per_node)
    }

    /// Validate the substrate and monetary parameters.
    ///
    /// # Errors
    ///
    /// Propagates substrate validation failures; rejects a zero threshold
    /// (nobody would ever sell).
    pub fn validate(&self) -> Result<(), crate::config::ConfigError> {
        self.base.validate()?;
        if self.threshold == 0 {
            return Err(crate::config::ConfigError::BadReportConfig(
                "scrip-gossip threshold of 0 means nobody ever sells".into(),
            ));
        }
        Ok(())
    }
}

/// Final report of a scrip-gossip run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScripGossipReport {
    /// Rounds executed.
    pub rounds: Round,
    /// Delivery to isolated honest nodes (comparable to
    /// [`crate::BarGossipReport::isolated_delivery`]).
    pub isolated_delivery: f64,
    /// Delivery to the attacker's satiated-set nodes.
    pub satiated_delivery: f64,
    /// Delivery over all honest nodes.
    pub overall_delivery: f64,
    /// Sales refused because the seller was money-satiated, as a fraction
    /// of attempted purchases.
    pub refusal_rate: f64,
    /// Purchases that failed because the buyer was broke.
    pub broke_rate: f64,
    /// Total scrip at the end (conserved: equals the initial supply —
    /// crashes lose a node's *window*, never its balance, so the supply
    /// invariant survives fault injection).
    pub total_money: u64,
    /// Silence cut-off outcomes; `None` when the defense is off.
    pub cuts: Option<CutStats>,
    /// Fault-injection counters; `None` when the fault plan is inactive.
    pub fault_counters: Option<FaultCounters>,
}

impl ScripGossipReport {
    /// Whether isolated nodes clear the 93 % usability bar.
    pub fn isolated_usable(&self, threshold: f64) -> bool {
        self.isolated_delivery > threshold
    }
}

#[derive(Debug, Clone)]
struct ScripNode {
    window: WindowSet,
    money: u64,
    attacker: bool,
    target: bool,
}

/// The scrip-gossip simulator.
///
/// ```
/// use bar_gossip::scrip_gossip::{ScripGossipConfig, ScripGossipSim};
/// use bar_gossip::{AttackPlan, BarGossipConfig};
///
/// let base = BarGossipConfig::builder()
///     .nodes(60)
///     .updates_per_round(4)
///     .copies_seeded(6)
///     .rounds(20)
///     .build()?;
/// let cfg = ScripGossipConfig::new(base);
/// let report = ScripGossipSim::new(cfg, AttackPlan::none(), 7).run_to_report();
/// assert!(report.overall_delivery > 0.9, "scrip gossip delivers");
/// # Ok::<(), bar_gossip::config::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScripGossipSim {
    cfg: ScripGossipConfig,
    plan: AttackPlan,
    nodes: Vec<ScripNode>,
    full: WindowSet,
    /// Ideal-attack pool: union of attacker holdings, rebuilt in place
    /// each round; advanced in lockstep with the node windows.
    pool: WindowSet,
    schedule: PartnerSchedule,
    rng: DetRng,
    round: Round,
    delivered: [u64; 3], // isolated, satiated, attacker
    totals: [u64; 3],
    purchases_attempted: u64,
    purchases_refused: u64,
    purchases_broke: u64,
    served_this_round: Vec<u32>,
    /// Churn, faults and attack timing (from `cfg.base`); while the
    /// schedule has the attack off, attacker nodes buy and sell
    /// honestly (the cooperate phase).
    env: RoundEnvelope,
    /// Masquerade attackers' silence draws; draw-free on a perfect
    /// network (see `BarGossipSim::masq_rng`).
    masq_rng: DetRng,
    /// The silence cut-off defense: cut nodes are excluded from all
    /// trade.
    cutoff: SilenceCutoff,
    // Scratch buffers for the allocation-free round loop (see module
    // docs); contents are meaningless between rounds.
    /// Reusable exchange-plan batch: partner selection and viability
    /// snapshots are planned up front (`netsim::plan`), then the
    /// shuffled batch is applied in order — the same rng draws as the
    /// legacy shuffled-initiator walk.
    plan_batch: ExchangePlan,
    want_scratch: Vec<crate::update::UpdateId>,
    present_scratch: Vec<usize>,
    picks_scratch: Vec<usize>,
}

impl ScripGossipSim {
    /// Build a simulator, deterministic in `seed`.
    ///
    /// The attack plan is interpreted as in BAR Gossip: `Crash` attackers
    /// do nothing; `TradeLotusEater` attackers gift their holdings free of
    /// charge to the satiated set; `IdealLotusEater` forwards all attacker
    /// seeds out-of-band to the satiated set.
    ///
    /// # Panics
    ///
    /// Panics if the config fails validation.
    pub fn new(cfg: ScripGossipConfig, plan: AttackPlan, seed: u64) -> Self {
        cfg.validate().expect("invalid ScripGossipConfig");
        let n = cfg.base.nodes;
        let rng = DetRng::seed_from(seed).fork("scrip-gossip");
        let mut assign_rng = rng.fork("assignment");
        let attacker_count = plan.attacker_count(n) as usize;
        let mut attacker = vec![false; n as usize];
        for i in assign_rng.sample_indices(n as usize, attacker_count) {
            attacker[i] = true;
        }
        let honest: Vec<usize> = (0..n as usize).filter(|&i| !attacker[i]).collect();
        let satiated_count = (plan.satiated_honest_count(n) as usize).min(honest.len());
        let mut target = vec![false; n as usize];
        for &hi in assign_rng
            .sample_indices(honest.len(), satiated_count)
            .iter()
        {
            target[honest[hi]] = true;
        }
        let window = WindowSet::new(cfg.base.updates_per_round, cfg.base.update_lifetime);
        let nodes = (0..n as usize)
            .map(|i| ScripNode {
                window: window.clone(),
                money: u64::from(cfg.money_per_node),
                attacker: attacker[i],
                target: target[i],
            })
            .collect();
        // As in BAR Gossip: the flash crowd is honest — attacker nodes
        // churn like anyone but are never held back.
        let timing = Timing {
            churn: cfg.base.churn,
            arrival: cfg.base.arrival,
            faults: cfg.base.faults,
            schedule: plan.schedule,
        };
        let env = RoundEnvelope::new(n as usize, timing, &rng, false, |i| {
            if attacker[i] {
                Shield::Crowd
            } else {
                Shield::None
            }
        });
        let attackers = attacker.iter().filter(|&&a| a).count() as u32;
        ScripGossipSim {
            pool: window.clone(),
            full: window,
            schedule: PartnerSchedule::new(rng.fork("schedule").next_u64(), n),
            env,
            masq_rng: rng.fork("masquerade"),
            cutoff: SilenceCutoff::new(n as usize, cfg.base.defenses.cutoff_quorum, attackers),
            served_this_round: vec![0; n as usize],
            plan_batch: ExchangePlan::new(),
            want_scratch: Vec::new(),
            present_scratch: Vec::with_capacity(n as usize),
            picks_scratch: Vec::new(),
            cfg,
            plan,
            nodes,
            rng,
            round: 0,
            delivered: [0; 3],
            totals: [0; 3],
            purchases_attempted: 0,
            purchases_refused: 0,
            purchases_broke: 0,
        }
    }

    fn class_of(&self, i: usize) -> usize {
        if self.nodes[i].attacker {
            2
        } else if self.nodes[i].target {
            1
        } else {
            0
        }
    }

    /// A node trades only while present, not crashed and not cut.
    fn alive(&self, i: usize) -> bool {
        !self.cutoff.is_cut(i) && self.env.is_up(i)
    }

    /// Masquerade silence draw — see `BarGossipSim::masquerade_silent`.
    fn masquerade_silent(&mut self, sender: usize) -> bool {
        if !self.env.attack_active()
            || self.plan.kind != AttackKind::Masquerade
            || !self.nodes[sender].attacker
        {
            return false;
        }
        // Round-aware rate: folds expected partition blocking in while
        // an epoch is open (see `BarGossipSim::masquerade_silent`).
        let rate = self.env.faults().ambient_silence_rate();
        self.masq_rng.chance(rate)
    }

    /// Total scrip across all nodes (conserved).
    pub fn total_money(&self) -> u64 {
        self.nodes.iter().map(|n| n.money).sum()
    }

    /// Current balance of `node`.
    pub fn money(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].money
    }

    fn advance_windows(&mut self, t: Round) {
        let popped_full = self.full.advance(t);
        let _ = self.pool.advance(t);
        if let Some((expired_round, full_mask)) = popped_full {
            let measured = self.cfg.base.is_measured_round(expired_round);
            let total = u64::from(full_mask.count_ones());
            for i in 0..self.nodes.len() {
                let popped = self.nodes[i].window.advance(t);
                if !measured {
                    continue;
                }
                let (_, mask) = popped.expect("lockstep windows");
                let ci = self.class_of(i);
                self.delivered[ci] += u64::from((mask & full_mask).count_ones());
                self.totals[ci] += total;
            }
        } else {
            for node in self.nodes.iter_mut() {
                let _ = node.window.advance(t);
            }
        }
    }

    fn seed_round(&mut self, t: Round) {
        let mut present = std::mem::take(&mut self.present_scratch);
        present.clear();
        // The broadcaster is reliable infrastructure: seeding skips
        // crashed and cut nodes but is not subject to message faults.
        present.extend((0..self.nodes.len()).filter(|&i| self.alive(i)));
        let mut picks = std::mem::take(&mut self.picks_scratch);
        let copies = (self.cfg.base.copies_seeded as usize).min(present.len());
        let mut seed_rng = self.rng.fork_idx("seeding", t);
        for slot in 0..self.cfg.base.updates_per_round {
            let id = crate::update::UpdateId { round: t, slot };
            self.full.insert(id);
            seed_rng.sample_indices_into(present.len(), copies, &mut picks);
            for &pick in &picks {
                self.nodes[present[pick]].window.insert(id);
            }
        }
        self.present_scratch = present;
        self.picks_scratch = picks;
    }

    /// Ideal-attack forwarding: every attacker holding reaches every
    /// target instantly (out of band, free).
    fn ideal_forwarding(&mut self) {
        if self.plan.kind != AttackKind::IdealLotusEater || !self.env.attack_active() {
            return;
        }
        // The persistent pool window stays aligned with the live ones;
        // rebuild its contents in place as the union of all attacker
        // holdings.
        self.pool.clear();
        for node in &self.nodes {
            if node.attacker {
                self.pool.union_with(&node.window);
            }
        }
        for node in self.nodes.iter_mut() {
            if node.target && !node.attacker {
                node.window.union_with(&self.pool);
            }
        }
    }

    /// A purchase: `buyer` buys everything it can afford that `seller`
    /// has. The seller refuses while money-satiated. Attackers gift free
    /// updates to targets instead of selling, and never buy.
    fn interaction(&mut self, buyer: NodeId, seller: NodeId, now: Round, cap: u32) {
        let (b, s) = (buyer.index(), seller.index());
        // Covert (masquerade/poison) attackers take the honest path
        // throughout — masquerade defection is the silence draw at the
        // delivery step below; poison is digest-substrate-only.
        if self.env.attack_active() && !self.plan.kind.covert() && self.nodes[s].attacker {
            // Attacker seller: gift everything, free, to targets only.
            if self.plan.kind == AttackKind::TradeLotusEater && self.nodes[b].target {
                let mut gift = std::mem::take(&mut self.want_scratch);
                self.nodes[b].window.wanted_from_into(
                    &self.nodes[s].window,
                    now,
                    usize::MAX,
                    0,
                    u32::MAX,
                    &mut gift,
                );
                for &id in &gift {
                    self.nodes[b].window.insert(id);
                }
                self.want_scratch = gift;
            }
            return;
        }
        if self.env.attack_active() && self.nodes[b].attacker {
            // Trade attackers replenish their stock by buying like anyone
            // else would — but they pay with their own scrip, which the
            // supply bounds. (They start with the same endowment.)
            // Covert attackers also buy honestly.
            if self.plan.kind != AttackKind::TradeLotusEater && !self.plan.kind.covert() {
                return;
            }
        }
        // Honest (or attacker-buyer) purchase.
        let wants = self.nodes[b].window.missing_from(&self.nodes[s].window) as u64;
        if wants == 0 {
            return;
        }
        self.purchases_attempted += 1;
        if self.served_this_round[s] >= cap {
            return; // seller busy (responder cap)
        }
        if self.nodes[s].money >= u64::from(self.cfg.threshold) {
            self.purchases_refused += 1;
            return; // money-satiated seller refuses to work
        }
        if self.nodes[b].money == 0 {
            self.purchases_broke += 1;
            return;
        }
        let afford = self.nodes[b].money.min(wants) as usize;
        let mut bought = std::mem::take(&mut self.want_scratch);
        self.nodes[b].window.wanted_from_into(
            &self.nodes[s].window,
            now,
            afford,
            0,
            u32::MAX,
            &mut bought,
        );
        if bought.is_empty() {
            self.want_scratch = bought;
            return;
        }
        // The goods ride the faulty link; payment is on delivery, so a
        // lost (or masquerade-withheld) shipment voids the sale — no
        // goods, no money moved, supply conserved — and the buyer, who
        // agreed the trade and got silence, files a cut-off strike.
        // Duplicates are idempotent here (no bandwidth meter to junk).
        let delivered =
            !self.masquerade_silent(s) && self.env.faults_mut().fate(s, b) != Fate::Drop;
        if !delivered {
            let nodes = &self.nodes;
            self.cutoff.accuse(b, s, |i| nodes[i].attacker);
            self.want_scratch = bought;
            return;
        }
        for &id in &bought {
            self.nodes[b].window.insert(id);
        }
        let price = bought.len() as u64;
        self.nodes[b].money -= price;
        self.nodes[s].money += price;
        self.served_this_round[s] += 1;
        self.want_scratch = bought;
    }

    /// Run the configured horizon and produce the report.
    pub fn run_to_report(mut self) -> ScripGossipReport {
        let total = self.cfg.base.total_rounds();
        while self.round < total {
            let t = self.round;
            self.round(t);
        }
        self.report()
    }

    /// Snapshot the report so far.
    pub fn report(&self) -> ScripGossipReport {
        let frac = |ci: usize| {
            if self.totals[ci] == 0 {
                0.0
            } else {
                self.delivered[ci] as f64 / self.totals[ci] as f64
            }
        };
        let honest_delivered = self.delivered[0] + self.delivered[1];
        let honest_total = self.totals[0] + self.totals[1];
        let attempted = self.purchases_attempted.max(1) as f64;
        ScripGossipReport {
            rounds: self.round,
            isolated_delivery: frac(0),
            satiated_delivery: frac(1),
            overall_delivery: if honest_total == 0 {
                0.0
            } else {
                honest_delivered as f64 / honest_total as f64
            },
            refusal_rate: self.purchases_refused as f64 / attempted,
            broke_rate: self.purchases_broke as f64 / attempted,
            total_money: self.total_money(),
            cuts: self.cutoff.stats(),
            fault_counters: self.env.fault_counters(),
        }
    }
}

impl RoundSim for ScripGossipSim {
    // lint: hot-loop
    fn round(&mut self, t: Round) {
        debug_assert_eq!(t, self.round, "rounds must be sequential");
        self.env.begin_round(t, &[], |key, _| {
            crate::sim::gossip_observation(&self.delivered, &self.totals, &self.cutoff, key)
        });
        if !self.env.faults().just_crashed().is_empty() {
            // State-losing crash: the window empties but the balance
            // survives (scrip is a ledger, not local state), keeping the
            // supply invariant intact under fault injection.
            let crashed = self.env.faults().just_crashed();
            for (i, node) in self.nodes.iter_mut().enumerate() {
                if crashed.contains(i) {
                    node.window.clear();
                }
            }
        }
        self.advance_windows(t);
        self.seed_round(t);
        self.ideal_forwarding();
        let cap = self.cfg.base.responder_cap.unwrap_or(u32::MAX);
        self.served_this_round.fill(0);
        // Two purchase opportunities per node per round, mirroring BAR
        // Gossip's two sub-protocols.
        for proto in [Protocol::BalancedExchange, Protocol::OptimisticPush] {
            // Plan: batch every node's scheduled partner and a viability
            // snapshot (ascending), then shuffle the batch — the same
            // length, so the same draws as the legacy initiator shuffle.
            let mut plan = std::mem::take(&mut self.plan_batch);
            let n = self.nodes.len();
            plan.reset(n);
            let planner = self.schedule.planner(t, proto);
            planner.fill(
                NodeId::all(n as u32),
                |v, p| {
                    if !(self.alive(v.index()) && self.alive(p.index())) {
                        0
                    } else if self.env.faults().link_up(v.index(), p.index()) {
                        VIABLE | LINKED
                    } else {
                        VIABLE
                    }
                },
                plan.entries_mut(),
            );
            let proto_tag = match proto {
                Protocol::BalancedExchange => 1u64,
                Protocol::OptimisticPush => 2,
                Protocol::Other(k) => 0x1_0000 + u64::from(k),
            };
            plan.shuffle(
                &mut self
                    .rng
                    .fork_idx("order", t.wrapping_mul(4).wrapping_add(proto_tag)),
            );
            // Apply: aliveness only shrinks mid-phase (silence cuts),
            // so non-viable pairs skip exactly as the legacy per-pair
            // checks did; the viable remainder rechecks liveness when
            // the cut-off defense can remove nodes under its feet.
            let strict = self.cutoff.is_on();
            for &e in plan.entries() {
                if !e.is_viable() {
                    continue; // absent/crashed/cut end: the slot is wasted
                }
                let (v, p) = (e.initiator, e.partner);
                if strict && !self.alive(v.index()) {
                    continue;
                }
                if self.env.attack_active()
                    && self.nodes[v.index()].attacker
                    && matches!(
                        self.plan.kind,
                        AttackKind::Crash | AttackKind::IdealLotusEater
                    )
                {
                    continue; // crash/ideal attackers never interact
                }
                if strict && !self.alive(p.index()) {
                    continue;
                }
                if !e.is_linked() {
                    self.env.faults_mut().note_partition_blocked();
                    continue; // partitioned apart
                }
                self.interaction(v, p, t, cap);
            }
            self.plan_batch = plan;
        }
        self.round = t + 1;
    }

    fn rounds_run(&self) -> Round {
        self.round
    }
}

impl lotus_core::scenario::Scenario for ScripGossipSim {
    type Config = ScripGossipConfig;
    type Attack = AttackPlan;
    type Report = ScripGossipReport;
    const NAME: &'static str = "scrip-gossip";

    fn build(cfg: ScripGossipConfig, attack: AttackPlan, seed: u64) -> Self {
        ScripGossipSim::new(cfg, attack, seed)
    }

    fn step(&mut self) -> lotus_core::scenario::StepOutcome {
        lotus_core::scenario::step_rounds(self, self.cfg.base.total_rounds())
    }

    fn report(&self) -> ScripGossipReport {
        ScripGossipSim::report(self)
    }

    fn arm_trace(&self) -> Option<&[lotus_core::adaptive::TraceEntry]> {
        self.env.schedule().arm_trace()
    }
}

impl lotus_core::scenario::Summarize for ScripGossipReport {
    /// Common vocabulary for scrip-mediated gossip: delivery fractions as
    /// in BAR Gossip, with the market-health rates as custom metrics.
    fn summarize(&self) -> lotus_core::scenario::ScenarioReport {
        lotus_core::scenario::ScenarioReport::new(
            "scrip-gossip",
            self.rounds,
            self.overall_delivery,
            self.satiated_delivery,
            self.isolated_usable(lotus_core::report::UsabilityThreshold::BAR_GOSSIP.0),
        )
        .with_metric("isolated_delivery", self.isolated_delivery)
        .with_metric("satiated_delivery", self.satiated_delivery)
        .with_metric("refusal_rate", self.refusal_rate)
        .with_metric("broke_rate", self.broke_rate)
        .with_metric("total_money", self.total_money as f64)
        .with_cut_stats(self.cuts)
        .with_fault_counters(self.fault_counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> BarGossipConfig {
        BarGossipConfig::builder()
            .nodes(80)
            .updates_per_round(5)
            .update_lifetime(10)
            .copies_seeded(8)
            .rounds(20)
            .warmup_rounds(10)
            .build()
            .unwrap()
    }

    fn cfg() -> ScripGossipConfig {
        ScripGossipConfig::new(base())
    }

    #[test]
    fn healthy_scrip_gossip_delivers() {
        let report = ScripGossipSim::new(cfg(), AttackPlan::none(), 1).run_to_report();
        assert!(
            report.overall_delivery > 0.95,
            "unattacked delivery {}",
            report.overall_delivery
        );
    }

    #[test]
    fn money_is_conserved() {
        let mut sim = ScripGossipSim::new(cfg(), AttackPlan::trade_lotus_eater(0.3, 0.7), 2);
        let supply = sim.total_money();
        for t in 0..30 {
            sim.round(t);
            assert_eq!(sim.total_money(), supply, "supply must never change");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a =
            ScripGossipSim::new(cfg(), AttackPlan::trade_lotus_eater(0.2, 0.7), 9).run_to_report();
        let b =
            ScripGossipSim::new(cfg(), AttackPlan::trade_lotus_eater(0.2, 0.7), 9).run_to_report();
        assert_eq!(a, b);
    }

    #[test]
    fn update_satiated_nodes_keep_selling() {
        // The crux of the defense: under the trade attack, satiated-set
        // nodes still sell to isolated nodes, so isolated delivery holds
        // far better than in vanilla BAR Gossip at the same attack size.
        let attack = AttackPlan::trade_lotus_eater(0.30, 0.70);
        let scrip = ScripGossipSim::new(cfg(), attack, 5).run_to_report();
        let vanilla = crate::BarGossipSim::new(base(), attack, 5).run_to_report();
        assert!(
            scrip.isolated_delivery > vanilla.isolated_delivery(),
            "scrip gossip must resist the gift attack: {} vs vanilla {}",
            scrip.isolated_delivery,
            vanilla.isolated_delivery()
        );
    }

    #[test]
    fn refusals_happen_only_at_threshold() {
        // With a huge threshold nobody is ever money-satiated: no refusals.
        let mut c = cfg();
        c.threshold = 100_000;
        let report = ScripGossipSim::new(c, AttackPlan::none(), 3).run_to_report();
        assert_eq!(report.refusal_rate, 0.0);
        // With a threshold at the starting balance, sellers refuse until
        // they have spent below it.
        let mut c = cfg();
        c.threshold = c.money_per_node; // everyone starts money-satiated
        let report = ScripGossipSim::new(c, AttackPlan::none(), 3).run_to_report();
        assert!(report.refusal_rate > 0.0, "got {}", report.refusal_rate);
    }

    #[test]
    fn money_survives_faults_and_masquerade() {
        // Crashes empty windows but never balances; voided sales move no
        // money — the supply invariant holds under the full fault plan.
        let mut b = base();
        b.faults =
            lotus_core::faults::FaultPlan::parse("loss:0.2/crash:0.03:0.3/partition:8:6:0.4")
                .unwrap();
        let mut sim =
            ScripGossipSim::new(ScripGossipConfig::new(b), AttackPlan::masquerade(0.2), 4);
        let supply = sim.total_money();
        for t in 0..30 {
            sim.round(t);
            assert_eq!(sim.total_money(), supply, "supply must never change");
        }
        let report = sim.report();
        let counters = report.fault_counters.expect("active plan reports counters");
        assert!(counters.dropped > 0);
    }

    #[test]
    fn zero_fault_plan_is_report_invisible() {
        let mut b = base();
        b.faults = lotus_core::faults::FaultPlan::parse("loss:0/dup:0").unwrap();
        let faulted = ScripGossipSim::new(
            ScripGossipConfig::new(b),
            AttackPlan::trade_lotus_eater(0.2, 0.7),
            9,
        )
        .run_to_report();
        let plain =
            ScripGossipSim::new(cfg(), AttackPlan::trade_lotus_eater(0.2, 0.7), 9).run_to_report();
        assert_eq!(faulted, plain);
        assert!(faulted.cuts.is_none());
        assert!(faulted.fault_counters.is_none());
    }

    #[test]
    fn cutoff_is_surgical_without_faults() {
        let mut b = base();
        b.defenses.cutoff_quorum = Some(2);
        let report =
            ScripGossipSim::new(ScripGossipConfig::new(b), AttackPlan::none(), 3).run_to_report();
        let cuts = report.cuts.expect("cutoff defense reports cut stats");
        assert_eq!((cuts.cut_honest, cuts.cut_attacker), (0, 0));
    }

    #[test]
    fn cutoff_under_loss_cuts_honest_nodes() {
        let mut b = base();
        b.defenses.cutoff_quorum = Some(2);
        b.faults = lotus_core::faults::FaultPlan::parse("loss:0.3").unwrap();
        let report =
            ScripGossipSim::new(ScripGossipConfig::new(b), AttackPlan::none(), 3).run_to_report();
        let cuts = report.cuts.expect("cutoff defense reports cut stats");
        assert!(cuts.cut_honest > 0, "voided sales read as silence");
    }

    #[test]
    fn zero_threshold_rejected() {
        let mut c = cfg();
        c.threshold = 0;
        assert!(c.validate().is_err());
    }
}
