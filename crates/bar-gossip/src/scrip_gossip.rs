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
//! The simulator embeds the same gossip engine as [`crate::BarGossipSim`]
//! (the crate's `engine` module): class assignment, update windows, the
//! timing layer, seeding, the partner schedule, exchange planning and the
//! expiry-based delivery metrics are one implementation. What this file
//! adds is the purchase that replaces the exchange, the money ledger and
//! its side of five deliberate model differences, which the engine's
//! module docs list: its own stream labels, a dense plan at every size,
//! an ideal pool rebuilt from attacker rows and forwarded to every
//! target, crash and ideal initiators skipped before partition counting,
//! and one responder counter across both sub-protocols. It mounts the
//! same trade-style attack, so the two protocols' attack curves are
//! directly comparable (experiment X12).
//!
//! # Hot-loop invariants
//!
//! The round loop is allocation-free in steady state: the purchase
//! buffer is reserved to one live window, and everything else is the
//! engine's scratch. Refactors here must keep reports bit-identical per
//! seed (the determinism and golden tests are the guardrail).

use crate::attack::{AttackKind, AttackPlan};
use crate::config::BarGossipConfig;
use crate::engine::{GossipEngine, PLAN_BLOCK};
use crate::update::{count_lacking, wanted_rows, whole_window, Transfer};
use lotus_core::faults::{CutStats, Fate, FaultCounters};
use netsim::partner::Protocol;
use netsim::plan::PlannedPair;
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

/// The scrip-gossip simulator.
///
/// ```
/// use bar_gossip::scrip_gossip::{ScripGossipConfig, ScripGossipSim};
/// use bar_gossip::{AttackPlan, BarGossipConfig};
/// use lotus_core::scenario::run;
///
/// let base = BarGossipConfig::builder()
///     .nodes(60)
///     .updates_per_round(4)
///     .copies_seeded(6)
///     .rounds(20)
///     .build()?;
/// let cfg = ScripGossipConfig::new(base);
/// let report = run::<ScripGossipSim>(cfg, AttackPlan::none(), 7);
/// assert!(report.overall_delivery > 0.9, "scrip gossip delivers");
/// # Ok::<(), bar_gossip::config::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScripGossipSim {
    /// Node state, timing layer, seeding and planning, shared with BAR
    /// Gossip; it holds `cfg.base`. While the schedule has the attack
    /// off, attacker nodes buy and sell honestly (the cooperate phase).
    eng: GossipEngine,
    /// Sell only while the balance is below this threshold.
    threshold: u32,
    /// Per-node scrip balance.
    money: Vec<u64>,
    round: Round,
    purchases_attempted: u64,
    purchases_refused: u64,
    purchases_broke: u64,
    /// Sales served this round per seller, across both sub-protocols.
    served_this_round: Vec<u32>,
    /// Purchase and gift buffer (contents meaningless between uses).
    want_scratch: Transfer,
}

impl ScripGossipSim {
    /// Build a simulator, deterministic in `seed`.
    ///
    /// The attack plan is interpreted as in BAR Gossip: `Crash` attackers
    /// do nothing; `TradeLotusEater` attackers gift their holdings free of
    /// charge to the satiated set; `IdealLotusEater` forwards all attacker
    /// holdings out-of-band to the satiated set.
    ///
    /// # Panics
    ///
    /// Panics if the config fails validation.
    pub fn new(cfg: ScripGossipConfig, plan: AttackPlan, seed: u64) -> Self {
        cfg.validate().expect("invalid ScripGossipConfig");
        let n = cfg.base.nodes as usize;
        let words =
            (cfg.base.updates_per_round as usize * cfg.base.update_lifetime as usize).div_ceil(64);
        let rng = DetRng::seed_from(seed).fork("scrip-gossip");
        ScripGossipSim {
            threshold: cfg.threshold,
            money: vec![u64::from(cfg.money_per_node); n],
            round: 0,
            purchases_attempted: 0,
            purchases_refused: 0,
            purchases_broke: 0,
            served_this_round: vec![0; n],
            want_scratch: Transfer::with_capacity(words),
            eng: GossipEngine::new(cfg.base, plan, rng),
        }
    }

    /// Total scrip across all nodes (conserved).
    pub fn total_money(&self) -> u64 {
        self.money.iter().sum()
    }

    /// Current balance of `node`.
    pub fn money(&self, node: NodeId) -> u64 {
        self.money[node.index()]
    }

    /// Ideal-attack forwarding: every attacker holding reaches every
    /// target instantly (out of band, free), present or not. The pool
    /// stays aligned with the rows and is rebuilt in place as the union
    /// of all attacker rows. Targets are engaged before their rows are
    /// written, so a held-back target's forwarded holdings expire and
    /// count like everyone else's.
    fn ideal_forwarding(&mut self) {
        let e = &mut self.eng;
        if e.plan.kind != AttackKind::IdealLotusEater || !e.env.attack_active() {
            return;
        }
        e.pool.clear();
        for &i in &e.attacker_list {
            e.pool.union_with(e.windows.row(i as usize));
        }
        GossipEngine::engage(
            &mut e.engaged,
            &mut e.node_unusable_rounds,
            e.measured_rounds,
            &e.target,
        );
        e.windows.check_aligned(&e.pool);
        for i in e.target.iter() {
            e.windows.union_words(i, e.pool.view().words());
        }
    }

    /// A purchase: `buyer` buys everything it can afford that `seller`
    /// has. The seller refuses while money-satiated. Attackers gift free
    /// updates to targets instead of selling, and never buy.
    fn interaction(&mut self, buyer: NodeId, seller: NodeId, cap: u32) {
        let (b, s) = (buyer.index(), seller.index());
        // Covert (masquerade/poison) attackers take the honest path
        // throughout — masquerade defection is the silence draw at the
        // delivery step below; poison is digest-substrate-only.
        if self.eng.overt_attacker(seller) {
            // Attacker seller: gift everything, free, to targets only.
            if self.eng.plan.kind == AttackKind::TradeLotusEater && self.eng.target.contains(b) {
                let gift = &mut self.want_scratch;
                let (wb, ws) = (self.eng.windows.row(b), self.eng.windows.row(s));
                gift.len = wanted_rows(
                    wb.words(),
                    ws.words(),
                    whole_window(),
                    usize::MAX,
                    &mut gift.mask,
                );
                self.eng.windows.union_words(b, &gift.mask);
            }
            return;
        }
        // Trade attackers replenish their stock by buying like anyone
        // else would — but they pay with their own scrip, which the
        // supply bounds. (They start with the same endowment.) Covert
        // attackers also buy honestly.
        let kind = self.eng.plan.kind;
        if self.eng.env.attack_active()
            && self.eng.is_attacker(buyer)
            && kind != AttackKind::TradeLotusEater
            && !kind.covert()
        {
            return;
        }
        // Honest (or attacker-buyer) purchase.
        let (wb, ws) = (
            self.eng.windows.row(b).words(),
            self.eng.windows.row(s).words(),
        );
        let wants = count_lacking(wb, ws, whole_window()) as u64;
        if wants == 0 {
            return;
        }
        self.purchases_attempted += 1;
        if self.served_this_round[s] >= cap {
            return; // seller busy (responder cap)
        }
        if self.money[s] >= u64::from(self.threshold) {
            self.purchases_refused += 1;
            return; // money-satiated seller refuses to work
        }
        if self.money[b] == 0 {
            self.purchases_broke += 1;
            return;
        }
        let afford = self.money[b].min(wants) as usize;
        let bought = &mut self.want_scratch;
        let (wb, ws) = (
            self.eng.windows.row(b).words(),
            self.eng.windows.row(s).words(),
        );
        bought.len = wanted_rows(wb, ws, whole_window(), afford, &mut bought.mask);
        if bought.is_empty() {
            return;
        }
        // The goods ride the faulty link; payment is on delivery, so a
        // lost (or masquerade-withheld) shipment voids the sale — no
        // goods, no money moved, supply conserved — and the buyer, who
        // agreed the trade and got silence, files a cut-off strike.
        // Duplicates are idempotent here (no bandwidth meter to junk).
        let delivered = !self.eng.masquerade_silent(seller)
            && self.eng.env.faults_mut().fate(s, b) != Fate::Drop;
        if !delivered {
            self.eng.accuse(buyer, seller);
            return;
        }
        self.eng.windows.union_words(b, &self.want_scratch.mask);
        let price = self.want_scratch.len as u64;
        self.money[b] -= price;
        self.money[s] += price;
        self.served_this_round[s] += 1;
    }

    /// Snapshot the report so far.
    pub fn report(&self) -> ScripGossipReport {
        let delivery = self.eng.delivery();
        let attempted = self.purchases_attempted.max(1) as f64;
        ScripGossipReport {
            rounds: self.round,
            isolated_delivery: delivery.isolated,
            satiated_delivery: delivery.satiated,
            overall_delivery: delivery.overall,
            refusal_rate: self.purchases_refused as f64 / attempted,
            broke_rate: self.purchases_broke as f64 / attempted,
            total_money: self.total_money(),
            cuts: self.eng.cutoff.stats(),
            fault_counters: self.eng.env.fault_counters(),
        }
    }
}

impl RoundSim for ScripGossipSim {
    // lint: hot-loop
    fn round(&mut self, t: Round) {
        debug_assert_eq!(t, self.round, "rounds must be sequential");
        // A crash empties the window but the balance survives (scrip is
        // a ledger, not local state), keeping the supply invariant
        // intact under fault injection.
        self.eng.begin_round(t);
        self.eng.advance_windows(t);
        self.eng.seed_round(t);
        self.ideal_forwarding();
        let cap = self.eng.cfg.responder_cap.unwrap_or(u32::MAX);
        self.served_this_round.fill(0);
        // Two purchase opportunities per node per round, mirroring BAR
        // Gossip's two sub-protocols; every node is planned at any size.
        for (proto, tag) in [
            (Protocol::BalancedExchange, 1u64),
            (Protocol::OptimisticPush, 2),
        ] {
            let order = self
                .eng
                .rng
                .fork_idx("order", t.wrapping_mul(4).wrapping_add(tag));
            let planner = self.eng.plan_phase(t, proto, order, true);
            // Apply: aliveness only shrinks mid-phase (silence cuts), so
            // non-viable pairs skip exactly; the viable remainder
            // rechecks liveness when a defense can remove nodes under
            // its feet.
            let strict = self.eng.strict();
            let mut block = [PlannedPair::default(); PLAN_BLOCK];
            for start in (0..self.eng.order.len()).step_by(PLAN_BLOCK) {
                for &e in self
                    .eng
                    .plan_block(&planner, start, &mut block, &self.served_this_round)
                {
                    if !e.is_viable() {
                        continue; // absent/crashed/cut end: the slot is wasted
                    }
                    let (v, p) = (e.initiator, e.partner);
                    if strict && !self.eng.alive(v) {
                        continue;
                    }
                    if self.eng.env.attack_active()
                        && self.eng.is_attacker(v)
                        && matches!(
                            self.eng.plan.kind,
                            AttackKind::Crash | AttackKind::IdealLotusEater
                        )
                    {
                        continue; // crash/ideal attackers never interact
                    }
                    if strict && !self.eng.alive(p) {
                        continue;
                    }
                    if !e.is_linked() {
                        self.eng.env.faults_mut().note_partition_blocked();
                        continue; // partitioned apart
                    }
                    self.interaction(v, p, cap);
                }
            }
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
        lotus_core::scenario::step_rounds(self, self.eng.cfg.total_rounds())
    }

    fn report(&self) -> ScripGossipReport {
        ScripGossipSim::report(self)
    }

    fn arm_trace(&self) -> Option<&[lotus_core::adaptive::TraceEntry]> {
        self.eng.env.schedule().arm_trace()
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
    use lotus_core::scenario::run;

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
        let report = run::<ScripGossipSim>(cfg(), AttackPlan::none(), 1);
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
        let a = run::<ScripGossipSim>(cfg(), AttackPlan::trade_lotus_eater(0.2, 0.7), 9);
        let b = run::<ScripGossipSim>(cfg(), AttackPlan::trade_lotus_eater(0.2, 0.7), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn update_satiated_nodes_keep_selling() {
        // The crux of the defense: under the trade attack, satiated-set
        // nodes still sell to isolated nodes, so isolated delivery holds
        // far better than in vanilla BAR Gossip at the same attack size.
        let attack = AttackPlan::trade_lotus_eater(0.30, 0.70);
        let scrip = run::<ScripGossipSim>(cfg(), attack, 5);
        let vanilla = run::<crate::BarGossipSim>(base(), attack, 5);
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
        let report = run::<ScripGossipSim>(c, AttackPlan::none(), 3);
        assert_eq!(report.refusal_rate, 0.0);
        // With a threshold at the starting balance, sellers refuse until
        // they have spent below it.
        let mut c = cfg();
        c.threshold = c.money_per_node; // everyone starts money-satiated
        let report = run::<ScripGossipSim>(c, AttackPlan::none(), 3);
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
        let faulted = run::<ScripGossipSim>(
            ScripGossipConfig::new(b),
            AttackPlan::trade_lotus_eater(0.2, 0.7),
            9,
        );
        let plain = run::<ScripGossipSim>(cfg(), AttackPlan::trade_lotus_eater(0.2, 0.7), 9);
        assert_eq!(faulted, plain);
        assert!(faulted.cuts.is_none());
        assert!(faulted.fault_counters.is_none());
    }

    #[test]
    fn cutoff_is_surgical_without_faults() {
        let mut b = base();
        b.defenses.cutoff_quorum = Some(2);
        let report = run::<ScripGossipSim>(ScripGossipConfig::new(b), AttackPlan::none(), 3);
        let cuts = report.cuts.expect("cutoff defense reports cut stats");
        assert_eq!((cuts.cut_honest, cuts.cut_attacker), (0, 0));
    }

    #[test]
    fn cutoff_under_loss_cuts_honest_nodes() {
        let mut b = base();
        b.defenses.cutoff_quorum = Some(2);
        b.faults = lotus_core::faults::FaultPlan::parse("loss:0.3").unwrap();
        let report = run::<ScripGossipSim>(ScripGossipConfig::new(b), AttackPlan::none(), 3);
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
