//! The scrip-economy round simulator.
//!
//! Each round one agent requests a unit of service:
//!
//! 1. the attacker (if any) first tops targets up to their thresholds —
//!    the monetary form of satiation;
//! 2. a requester is drawn uniformly;
//! 3. available altruists serve for free (and a rational requester always
//!    prefers free service);
//! 4. otherwise the request is *paid*: it fails if the requester is broke
//!    or no rational agent below threshold (and able to serve the
//!    requested service class) is available; a uniformly chosen volunteer
//!    earns the requester's scrip;
//! 5. with adaptive thresholds on, agents periodically raise their
//!    threshold after going broke and lower it when free service made
//!    money look worthless — the mechanism behind the EC'07 altruist
//!    crash.
//!
//! Money is conserved exactly: agents' balances plus the attacker's war
//! chest always sum to the initial supply (a property test enforces it).
//!
//! # Hot-loop invariants
//!
//! The per-round request loop is allocation-free in steady state: the
//! free and paid volunteer pools are word masks owned by the sim struct
//! and overwritten 64 agents at a time each round, and the timing layer
//! (`lotus_core::schedule`, `lotus_core::population`) adds no allocations
//! — threshold-trigger observations come from the running request
//! counters. Pool contents are meaningless between rounds, and
//! refactors here must keep reports bit-identical per seed (the
//! determinism, schedule-golden and scrip-golden tests are the
//! guardrail).
//!
//! # Draw order
//!
//! A round draws, from its own `("round", t)` fork: the requester, the
//! special-request coin, one availability coin per live linked agent in
//! ascending index order, then one uniform pick from the free pool, or —
//! when the free pool is empty and a paid sale is attempted — from the
//! paid pool. A pick is `index(pool size)` followed by selecting that
//! member in ascending order.

use crate::attack::ScripAttack;
use crate::config::ScripConfig;
use lotus_core::bitset::BitSet;
use lotus_core::envelope::{RoundEnvelope, Shield, Timing};
use lotus_core::faults::{Fate, FaultCounters};
use lotus_core::satiation::Satiable;
use lotus_core::schedule::MetricKey;
use lotus_core::soa::ShardMap;
use netsim::rng::{DetRng, Odds};
use netsim::round::RoundSim;
use netsim::{NodeId, Round};

/// Role of an agent in the economy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentRole {
    /// Threshold agent (volunteers iff balance < threshold).
    Rational,
    /// Always volunteers when available; serves for free.
    Altruist,
}

// Per-agent state lives in struct-of-arrays layout on the simulator
// itself (`money`, `threshold`, `served`, and the `altruist`/`special`/
// `targeted` bitsets), keyed by agent index — the flat layout the
// word-wise volunteer scan reads 64 agents at a time.

/// Final report of a scrip-economy run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScripReport {
    /// Rounds executed (including warm-up).
    pub rounds: Round,
    /// Fraction of measured requests satisfied (free or paid).
    pub service_rate: f64,
    /// Fraction of measured requests served free by altruists.
    pub free_rate: f64,
    /// Fraction of measured requests served by paid volunteers.
    pub paid_rate: f64,
    /// Fraction of measured requests that failed because the requester was
    /// broke.
    pub fail_broke_rate: f64,
    /// Fraction of measured requests that failed for lack of volunteers.
    pub fail_no_volunteer_rate: f64,
    /// Fraction of measured requests whose service delivery was lost to
    /// an injected message fault (always 0 on a perfect network).
    pub fail_faulted_rate: f64,
    /// Service rate restricted to special requests (1.0 when none occur).
    pub special_service_rate: f64,
    /// Mean over measured rounds of the fraction of rational agents at or
    /// above threshold (satiated).
    pub mean_satiated_fraction: f64,
    /// Fraction of target-round samples in which the target was satiated
    /// (`None` when the attack has no targets).
    pub target_satiation: Option<f64>,
    /// Mean rational threshold at the end of the run.
    pub mean_threshold: f64,
    /// Gini coefficient of agent balances at the end of the run.
    pub gini: f64,
    /// Attacker war chest at the end.
    pub attacker_money: u64,
    /// Total money (agents + attacker) — always the initial supply.
    pub total_money: u64,
    /// Fault-injection counters, present only when the plan was active
    /// (so fault-free reports stay byte-identical to pre-fault ones).
    pub fault_counters: Option<FaultCounters>,
}

/// Gini coefficient of a distribution (0 = perfectly equal).
///
/// Returns 0 for empty or all-zero distributions.
pub fn gini(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<u64> = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let total: u64 = sorted.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut weighted = 0.0;
    for (i, &v) in sorted.iter().enumerate() {
        weighted += (2.0 * (i as f64 + 1.0) - n - 1.0) * v as f64;
    }
    weighted / (n * total as f64)
}

/// The `k`-th member of `pool` in ascending order — the index a uniform
/// `choose` over the ascending member list would return.
fn pick(pool: &BitSet, k: usize) -> usize {
    pool.iter().nth(k).expect("pick index below the pool size")
}

/// The scrip-economy simulator.
///
/// ```
/// use lotus_core::scenario::run;
/// use scrip_economy::{ScripAttack, ScripConfig, ScripSim};
///
/// let cfg = ScripConfig::builder()
///     .agents(50)
///     .money_per_agent(6) // plentiful money: high efficiency (EC'07)
///     .threshold(8)
///     .rounds(2_000)
///     .warmup(200)
///     .build()?;
/// let report = run::<ScripSim>(cfg, ScripAttack::None, 7);
/// assert!(report.service_rate > 0.9, "healthy economy serves requests");
/// # Ok::<(), scrip_economy::config::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScripSim {
    cfg: ScripConfig,
    attack: ScripAttack,
    // ---- struct-of-arrays per-agent state, keyed by agent index ----
    money: Vec<u64>,
    threshold: Vec<u32>,
    /// Altruists (serve for free); everyone else is a threshold agent.
    altruist: BitSet,
    /// Providers of the rare special service.
    special: BitSet,
    /// Attack targets (kept topped up).
    targeted: BitSet,
    served: Vec<u64>,
    // Adaptive bookkeeping for the current interval.
    broke_failures: Vec<u32>,
    free_received: Vec<u32>,
    /// Rational agent indices, ascending (roles are fixed at build).
    rational_list: Vec<u32>,
    /// Attack-target indices, ascending (targets are fixed at build).
    target_list: Vec<u32>,
    attacker_money: u64,
    initial_supply: u64,
    rng: DetRng,
    round: Round,
    // Measured counters.
    requests: u64,
    served_free: u64,
    served_paid: u64,
    failed_broke: u64,
    failed_no_volunteer: u64,
    failed_faulted: u64,
    special_requests: u64,
    special_served: u64,
    satiated_samples: f64,
    satiated_rounds: u64,
    target_satiated_samples: u64,
    target_samples: u64,
    /// Churn, faults (crashes, lost deliveries, the partition) and
    /// attack timing — while the schedule has the attack off, the
    /// attacker neither tops targets up nor bids for requests. Its
    /// activity mask (present ∧ ¬down, rebuilt each round) is what the
    /// volunteer scan reads word by word.
    env: RoundEnvelope,
    /// This round's available altruists (see module docs).
    free_pool: BitSet,
    /// This round's available threshold agents; narrowed to those below
    /// threshold only when a paid sale is attempted.
    paid_pool: BitSet,
}

impl ScripSim {
    /// Build a simulator, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation (use the builder, which validates).
    pub fn new(cfg: ScripConfig, attack: ScripAttack, seed: u64) -> Self {
        cfg.validate().expect("invalid ScripConfig");
        let rng = DetRng::seed_from(seed).fork("scrip");
        let n = cfg.agents as usize;
        let supply = cfg.total_supply();
        let endowment = attack.endowment(supply).min(supply);
        let circulating = supply - endowment;

        // Roles: special providers first, altruists last (disjoint by
        // validation).
        let mut money = vec![0u64; n];
        let threshold = vec![cfg.initial_threshold; n];
        let mut altruist = BitSet::new(n);
        let mut special = BitSet::new(n);
        let mut rational_list = Vec::new();
        for i in 0..n {
            if i >= n - cfg.altruists as usize {
                altruist.insert(i);
            } else {
                rational_list.push(i as u32);
            }
            if i < cfg.special_providers as usize {
                special.insert(i);
            }
        }

        // Distribute circulating scrip round-robin (near-equal start).
        for c in 0..circulating {
            money[(c % n as u64) as usize] += 1;
        }

        // Attack targets.
        let mut targeted = BitSet::new(n);
        match attack {
            ScripAttack::None => {}
            ScripAttack::LotusEater {
                target_fraction, ..
            } => {
                let k = ((n as f64) * target_fraction).round() as usize;
                let mut pick_rng = rng.fork("targets");
                for &idx in pick_rng
                    .sample_indices(rational_list.len(), k.min(rational_list.len()))
                    .iter()
                {
                    targeted.insert(rational_list[idx] as usize);
                }
            }
            ScripAttack::Retainer { .. } => {
                for i in special.iter() {
                    targeted.insert(i);
                }
            }
        }
        let target_list: Vec<u32> = targeted.iter().map(|i| i as u32).collect();

        // Flash-crowd agents are withdrawn now (index-ordered, no
        // randomness) and enter with their initial balance, having never
        // requested or served.
        let timing = Timing {
            churn: cfg.churn,
            arrival: cfg.arrival,
            faults: cfg.faults,
            schedule: cfg.schedule,
        };
        let env = RoundEnvelope::new(n, timing, &rng, true, |_| Shield::None);
        ScripSim {
            cfg,
            attack,
            money,
            threshold,
            altruist,
            special,
            targeted,
            served: vec![0; n],
            broke_failures: vec![0; n],
            free_received: vec![0; n],
            rational_list,
            target_list,
            env,
            attacker_money: endowment,
            initial_supply: supply,
            rng,
            round: 0,
            requests: 0,
            served_free: 0,
            served_paid: 0,
            failed_broke: 0,
            failed_no_volunteer: 0,
            failed_faulted: 0,
            special_requests: 0,
            special_served: 0,
            satiated_samples: 0.0,
            satiated_rounds: 0,
            target_satiated_samples: 0,
            target_samples: 0,
            free_pool: BitSet::new(n),
            paid_pool: BitSet::new(n),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ScripConfig {
        &self.cfg
    }

    /// Current balance of `agent`.
    pub fn money(&self, agent: NodeId) -> u64 {
        self.money[agent.index()]
    }

    /// Current threshold of `agent`.
    pub fn threshold(&self, agent: NodeId) -> u32 {
        self.threshold[agent.index()]
    }

    /// The sharded activity index (this round's snapshot).
    pub fn shard_map(&self) -> &ShardMap {
        self.env.shards()
    }

    /// The attacker's current war chest.
    pub fn attacker_money(&self) -> u64 {
        self.attacker_money
    }

    /// Total money across agents and attacker (conserved).
    pub fn total_money(&self) -> u64 {
        self.attacker_money + self.money.iter().sum::<u64>()
    }

    /// The supply the system started with; [`Self::total_money`] must
    /// always equal this (conservation invariant).
    pub fn initial_supply(&self) -> u64 {
        self.initial_supply
    }

    /// Whether `agent` is an attack target.
    pub fn is_targeted(&self, agent: NodeId) -> bool {
        self.targeted.contains(agent.index())
    }

    fn measured(&self) -> bool {
        self.round >= self.cfg.warmup
    }

    /// Attack phase: top every target up to its threshold while the war
    /// chest lasts. Conservation: every unit moved comes from the chest.
    fn attack_phase(&mut self) {
        if matches!(self.attack, ScripAttack::None) {
            return;
        }
        // Targets are fixed, so the top-up walks the static target list
        // — O(targets), not O(agents) — in the same ascending order the
        // dense scan hit them (draw-free either way).
        for &ti in &self.target_list {
            let i = ti as usize;
            // A crashed target cannot be topped up, same as an absent one.
            if !self.env.is_up(i) {
                continue;
            }
            let need = u64::from(self.threshold[i]).saturating_sub(self.money[i]);
            let transfer = need.min(self.attacker_money);
            self.money[i] += transfer;
            self.attacker_money -= transfer;
        }
    }

    /// One request round.
    // lint: hot-loop
    fn request_round(&mut self) {
        let n = self.money.len();
        let mut rng = self.rng.fork_idx("round", self.round);
        let requester = rng.index(n);
        let special = rng.chance(self.cfg.special_request_prob);
        if !self.env.is_up(requester) {
            return; // the drawn requester is offline or crashed: no request
        }

        // One word of 64 agents at a time: the live agents (present ∧
        // ¬down) other than the requester, minus those across the
        // partition, each draw one availability coin in ascending index
        // order — exactly the agents and the order the scalar scan drew
        // for — and the available ones split into the two pools.
        let availability = Odds::of(self.cfg.availability);
        let faults = self.env.faults();
        let cell = faults
            .is_partitioned()
            .then(|| (faults.cell().words(), faults.cell().contains(requester)));
        let mut blocked = 0u64;
        let mut free_count = 0usize;
        for (w, &live) in self.env.shards().active_mask().words().iter().enumerate() {
            let mut linked = live;
            if w == requester / 64 {
                linked &= !(1 << (requester % 64));
            }
            if let Some((cell, inside)) = cell {
                let same_side = if inside { cell[w] } else { !cell[w] };
                blocked += u64::from((linked & !same_side).count_ones());
                linked &= same_side;
            }
            let mut available = availability.trial(&mut rng, linked);
            if special {
                available &= self.special.words()[w];
            }
            let free = available & self.altruist.words()[w];
            free_count += free.count_ones() as usize;
            self.free_pool.set_word(w, free);
            self.paid_pool.set_word(w, available & !free);
        }
        self.env.faults_mut().partition_blocked += blocked;
        // The attacker volunteers for ordinary paid requests, undercutting
        // honest providers ("providing cheap service", §1): a rational
        // requester prefers him whenever he bids, which both funds the
        // attack and starves honest agents of income.
        let attacker_bids = !special && self.env.attack_active() && self.attack.provides();

        let measured = self.measured();
        if measured {
            self.requests += 1;
            if special {
                self.special_requests += 1;
            }
        }

        let outcome = if free_count > 0 {
            let p = pick(&self.free_pool, rng.index(free_count));
            // Free service still rides the network: a lost delivery
            // means the requester got nothing (and the altruist's effort
            // is wasted — no served credit for a unit never received).
            if self.env.faults_mut().fate(p, requester) == Fate::Drop {
                if measured {
                    self.failed_faulted += 1;
                }
                false
            } else {
                self.served[p] += 1;
                self.free_received[requester] += 1;
                if measured {
                    self.served_free += 1;
                }
                true
            }
        } else if self.money[requester] == 0 {
            self.broke_failures[requester] += 1;
            if measured {
                self.failed_broke += 1;
            }
            false
        } else if attacker_bids {
            // The attacker's channel is out-of-band infrastructure (like
            // the ideal-attack sync), exempt from injected faults.
            self.money[requester] -= 1;
            self.attacker_money += 1;
            if measured {
                self.served_paid += 1;
            }
            true
        } else if let Some(p) = self.pick_paid(&mut rng) {
            // Payment on delivery: a lost shipment voids the sale — no
            // goods, no money movement, so the supply stays conserved.
            if self.env.faults_mut().fate(p, requester) == Fate::Drop {
                if measured {
                    self.failed_faulted += 1;
                }
                false
            } else {
                self.money[requester] -= 1;
                self.money[p] += 1;
                self.served[p] += 1;
                if measured {
                    self.served_paid += 1;
                }
                true
            }
        } else {
            if measured {
                self.failed_no_volunteer += 1;
            }
            false
        };

        if measured && special && outcome {
            self.special_served += 1;
        }
    }

    /// Narrow the paid pool to the available threshold agents still
    /// below their threshold and pick one uniformly (`None` when there is
    /// none, drawing nothing).
    fn pick_paid(&mut self, rng: &mut DetRng) -> Option<usize> {
        let mut count = 0usize;
        for w in 0..self.paid_pool.words().len() {
            let mut left = self.paid_pool.words()[w];
            let mut below = 0u64;
            while left != 0 {
                let b = left.trailing_zeros();
                let i = w * 64 + b as usize;
                below |= u64::from(self.money[i] < u64::from(self.threshold[i])) << b;
                left &= left - 1;
            }
            count += below.count_ones() as usize;
            self.paid_pool.set_word(w, below);
        }
        (count > 0).then(|| pick(&self.paid_pool, rng.index(count)))
    }

    /// Adaptive threshold update (EC'07 crash dynamics, simplified): an
    /// agent that went broke during the interval raises its threshold
    /// (money proved scarce); an agent that received free service and
    /// never went broke lowers it (money proved unnecessary). A threshold
    /// of zero means the agent has dropped out of the paid market.
    fn adapt_phase(&mut self) {
        if !self.cfg.adaptive
            || self.round == 0
            || !self
                .round
                .is_multiple_of(u64::from(self.cfg.adapt_interval))
        {
            return;
        }
        let max = self.cfg.max_threshold;
        for &ri in &self.rational_list {
            let i = ri as usize;
            if self.broke_failures[i] > 0 {
                self.threshold[i] = (self.threshold[i] + 1).min(max);
            } else if self.free_received[i] > 0 {
                self.threshold[i] = self.threshold[i].saturating_sub(1);
            }
            self.broke_failures[i] = 0;
            self.free_received[i] = 0;
        }
    }

    fn sample_satiation(&mut self) {
        if !self.measured() {
            return;
        }
        let rational = self.rational_list.len() as u64;
        let mut satiated = 0u64;
        for &ri in &self.rational_list {
            let i = ri as usize;
            let is_sat = self.money[i] >= u64::from(self.threshold[i]);
            if is_sat {
                satiated += 1;
            }
            if self.targeted.contains(i) {
                self.target_samples += 1;
                if is_sat {
                    self.target_satiated_samples += 1;
                }
            }
        }
        if rational > 0 {
            self.satiated_samples += satiated as f64 / rational as f64;
            self.satiated_rounds += 1;
        }
    }

    /// Snapshot the report so far.
    pub fn report(&self) -> ScripReport {
        let req = self.requests.max(1) as f64;
        let rationals: Vec<u64> = self
            .rational_list
            .iter()
            .map(|&i| self.money[i as usize])
            .collect();
        let thresholds: Vec<f64> = self
            .rational_list
            .iter()
            .map(|&i| f64::from(self.threshold[i as usize]))
            .collect();
        ScripReport {
            rounds: self.round,
            service_rate: (self.served_free + self.served_paid) as f64 / req,
            free_rate: self.served_free as f64 / req,
            paid_rate: self.served_paid as f64 / req,
            fail_broke_rate: self.failed_broke as f64 / req,
            fail_no_volunteer_rate: self.failed_no_volunteer as f64 / req,
            fail_faulted_rate: self.failed_faulted as f64 / req,
            special_service_rate: if self.special_requests == 0 {
                1.0
            } else {
                self.special_served as f64 / self.special_requests as f64
            },
            mean_satiated_fraction: if self.satiated_rounds == 0 {
                0.0
            } else {
                self.satiated_samples / self.satiated_rounds as f64
            },
            target_satiation: if self.target_samples == 0 {
                None
            } else {
                Some(self.target_satiated_samples as f64 / self.target_samples as f64)
            },
            mean_threshold: if thresholds.is_empty() {
                0.0
            } else {
                thresholds.iter().sum::<f64>() / thresholds.len() as f64
            },
            gini: gini(&rationals),
            attacker_money: self.attacker_money,
            total_money: self.total_money(),
            fault_counters: self.env.fault_counters(),
        }
    }
}

impl RoundSim for ScripSim {
    // lint: hot-loop
    fn round(&mut self, t: Round) {
        debug_assert_eq!(t, self.round, "rounds must be sequential");
        // Threshold-trigger observations come from the running counters
        // (no allocation); `None` until the counter in question has
        // measured samples — an unmeasured metric must not latch a
        // trigger. The bank economy has no silence cut-off to report.
        let frac = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
        let attack_on = self.env.begin_round(t, &[], |key, _| match key {
            MetricKey::OverallDelivery => frac(self.served_free + self.served_paid, self.requests),
            MetricKey::TargetedService => frac(self.target_satiated_samples, self.target_samples),
            MetricKey::PresentFraction | MetricKey::FalseCutRate => None,
        });
        if !self.env.faults().just_crashed().is_empty() {
            // State-losing crash: the agent forgets its learned threshold
            // and interval bookkeeping, but keeps its balance — scrip is
            // a bank ledger, so crashes conserve the money supply.
            let initial = self.cfg.initial_threshold;
            for i in self.env.faults().just_crashed().iter() {
                self.threshold[i] = initial;
                self.broke_failures[i] = 0;
                self.free_received[i] = 0;
            }
        }
        if attack_on {
            self.attack_phase();
        }
        self.request_round();
        self.sample_satiation();
        self.round = t + 1;
        self.adapt_phase();
    }

    fn rounds_run(&self) -> Round {
        self.round
    }
}

impl lotus_core::scenario::Scenario for ScripSim {
    type Config = ScripConfig;
    type Attack = ScripAttack;
    type Report = ScripReport;
    const NAME: &'static str = "scrip";

    fn build(cfg: ScripConfig, attack: ScripAttack, seed: u64) -> Self {
        ScripSim::new(cfg, attack, seed)
    }

    fn step(&mut self) -> lotus_core::scenario::StepOutcome {
        lotus_core::scenario::step_rounds(self, self.cfg.warmup + self.cfg.rounds)
    }

    fn report(&self) -> ScripReport {
        ScripSim::report(self)
    }

    fn arm_trace(&self) -> Option<&[lotus_core::adaptive::TraceEntry]> {
        self.env.schedule().arm_trace()
    }
}

impl lotus_core::scenario::Summarize for ScripReport {
    /// Common vocabulary for the scrip economy:
    ///
    /// * `overall_delivery` — the measured service rate (requests
    ///   satisfied, free or paid);
    /// * `targeted_service` — how satiated the attacker kept its targets
    ///   (0 when the attack has no targets);
    /// * `usable` — a functioning market: most requests get served.
    fn summarize(&self) -> lotus_core::scenario::ScenarioReport {
        let mut report = lotus_core::scenario::ScenarioReport::new(
            "scrip",
            self.rounds,
            self.service_rate,
            self.target_satiation.unwrap_or(0.0),
            self.service_rate > 0.5,
        )
        .with_metric("service_rate", self.service_rate)
        .with_metric("free_rate", self.free_rate)
        .with_metric("paid_rate", self.paid_rate)
        .with_metric("fail_broke_rate", self.fail_broke_rate)
        .with_metric("fail_no_volunteer_rate", self.fail_no_volunteer_rate)
        .with_metric("special_service_rate", self.special_service_rate)
        .with_metric("mean_satiated_fraction", self.mean_satiated_fraction)
        .with_metric("mean_threshold", self.mean_threshold)
        .with_metric("gini", self.gini)
        .with_metric("attacker_money", self.attacker_money as f64)
        .with_metric("total_money", self.total_money as f64)
        // 0.0 when the attack has no targets, so fraction sweeps that
        // include the no-attack point stay total.
        .with_metric("target_satiation", self.target_satiation.unwrap_or(0.0));
        // Fault metrics appear only under an active plan, keeping
        // fault-free report output byte-identical to pre-fault runs.
        if self.fault_counters.is_some() {
            report = report.with_metric("fail_faulted_rate", self.fail_faulted_rate);
        }
        report.with_fault_counters(self.fault_counters)
    }
}

impl lotus_core::satiation::Feedable for ScripSim {
    /// Top the agent's balance up to its threshold from an *external*
    /// benefactor. Note this mints scrip: the Observation 3.1 harness
    /// models an outside attacker with unbounded funds, so the
    /// conservation invariant is deliberately suspended here (in-model
    /// attacks go through [`crate::attack::ScripAttack`], which conserves).
    fn feed_fully(&mut self, node: NodeId) {
        let i = node.index();
        self.money[i] = self.money[i].max(u64::from(self.threshold[i]));
    }
}

impl Satiable for ScripSim {
    fn node_count(&self) -> u32 {
        self.money.len() as u32
    }

    /// A rational agent is satiated at or above its threshold; altruists
    /// are never satiated (they serve regardless).
    fn is_satiated(&self, node: NodeId) -> bool {
        let i = node.index();
        !self.altruist.contains(i) && self.money[i] >= u64::from(self.threshold[i])
    }

    fn service_provided(&self, node: NodeId) -> u64 {
        self.served[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScripConfig;
    use lotus_core::scenario::run;

    fn quick_cfg() -> ScripConfig {
        ScripConfig::builder()
            .agents(60)
            .money_per_agent(2)
            .threshold(4)
            .availability(0.6)
            .rounds(6_000)
            .warmup(500)
            .build()
            .unwrap()
    }

    #[test]
    fn healthy_economy_serves() {
        let report = run::<ScripSim>(quick_cfg(), ScripAttack::None, 1);
        // With m = 2 and k = 4 a fraction of requesters is naturally broke
        // (EC'07: efficiency grows with m); ~0.8 is the healthy level here.
        assert!(
            report.service_rate > 0.75,
            "service rate {}",
            report.service_rate
        );
        assert_eq!(report.free_rate, 0.0, "no altruists, no free service");
        assert_eq!(report.total_money, 120);
    }

    #[test]
    fn money_is_conserved() {
        let mut sim = ScripSim::new(quick_cfg(), ScripAttack::lotus_eater(0.3, 0.4), 2);
        for t in 0..2_000 {
            netsim::round::RoundSim::round(&mut sim, t);
            assert_eq!(sim.total_money(), 120, "supply must never change");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run::<ScripSim>(quick_cfg(), ScripAttack::lotus_eater(0.2, 0.3), 9);
        let b = run::<ScripSim>(quick_cfg(), ScripAttack::lotus_eater(0.2, 0.3), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn satiated_agents_do_not_volunteer() {
        // With everyone above threshold (m >= k), no one volunteers for
        // paid service and the economy stalls.
        let cfg = ScripConfig::builder()
            .agents(40)
            .money_per_agent(5)
            .threshold(2)
            .rounds(2_000)
            .warmup(100)
            .build()
            .unwrap();
        let report = run::<ScripSim>(cfg, ScripAttack::None, 3);
        // Requests fail for lack of volunteers (requesters have money).
        assert!(
            report.fail_no_volunteer_rate > 0.9,
            "stalled economy, got {}",
            report.fail_no_volunteer_rate
        );
        assert!(report.mean_satiated_fraction > 0.9);
    }

    #[test]
    fn lotus_eater_satiates_targets_with_budget() {
        let attack = ScripAttack::lotus_eater(0.2, 0.5);
        let report = run::<ScripSim>(quick_cfg(), attack, 4);
        let sat = report.target_satiation.expect("targets exist");
        assert!(
            sat > 0.95,
            "well-funded attacker keeps targets satiated: {sat}"
        );
    }

    #[test]
    fn money_supply_bounds_satiable_fraction() {
        // m = 1, k = 6: satiating 80% of agents would need ~4.8x the whole
        // supply. Even an attacker holding *all* the money cannot do it.
        let cfg = ScripConfig::builder()
            .agents(50)
            .money_per_agent(1)
            .threshold(6)
            .rounds(4_000)
            .warmup(500)
            .build()
            .unwrap();
        let big = ScripAttack::lotus_eater(0.8, 1.0);
        let report = run::<ScripSim>(cfg, big, 5);
        let sat = report.target_satiation.expect("targets exist");
        assert!(sat < 0.5, "the money supply must cap satiation, got {sat}");
    }

    #[test]
    fn retainer_attack_denies_special_service() {
        let cfg = ScripConfig::builder()
            .agents(60)
            .money_per_agent(2)
            .threshold(4)
            .special_service(3, 0.05)
            .rounds(12_000)
            .warmup(500)
            .build()
            .unwrap();
        let clean = run::<ScripSim>(cfg.clone(), ScripAttack::None, 6);
        let attacked = run::<ScripSim>(cfg, ScripAttack::retainer(0.3), 6);
        assert!(
            clean.special_service_rate > 0.25,
            "unattacked special service works, got {}",
            clean.special_service_rate
        );
        assert!(
            attacked.special_service_rate < 0.05,
            "retainer should deny the special service, got {}",
            attacked.special_service_rate
        );
        assert!(attacked.special_service_rate < clean.special_service_rate / 3.0);
    }

    #[test]
    fn altruists_serve_free() {
        let cfg = ScripConfig::builder()
            .agents(40)
            .altruists(10)
            .rounds(3_000)
            .warmup(100)
            .build()
            .unwrap();
        let report = run::<ScripSim>(cfg, ScripAttack::None, 7);
        assert!(
            report.free_rate > 0.5,
            "altruists dominate, got {}",
            report.free_rate
        );
    }

    #[test]
    fn adaptive_altruist_crash_lowers_thresholds() {
        let base = ScripConfig::builder()
            .agents(60)
            .availability(0.5)
            .adaptive(true)
            .rounds(30_000)
            .warmup(1_000)
            .build()
            .unwrap();
        let no_alt = run::<ScripSim>(base.clone(), ScripAttack::None, 8);
        let mut many_alt_cfg = base;
        many_alt_cfg.altruists = 30;
        let many_alt = run::<ScripSim>(many_alt_cfg, ScripAttack::None, 8);
        assert!(
            many_alt.mean_threshold < no_alt.mean_threshold,
            "free service should erode thresholds: {} vs {}",
            many_alt.mean_threshold,
            no_alt.mean_threshold
        );
    }

    #[test]
    fn satiable_interface() {
        let mut sim = ScripSim::new(quick_cfg(), ScripAttack::None, 1);
        assert_eq!(sim.node_count(), 60);
        for t in 0..500 {
            netsim::round::RoundSim::round(&mut sim, t);
        }
        // Some agent should have served by now.
        let served: u64 = (0..60).map(|i| sim.service_provided(NodeId(i))).sum();
        assert!(served > 0);
    }

    #[test]
    fn zero_rate_fault_plan_is_report_invisible() {
        use lotus_core::faults::FaultPlan;
        let mut zeroed = quick_cfg();
        zeroed.faults = FaultPlan::parse("loss:0/dup:0/delay:0/crash:0:0.5").unwrap();
        let a = run::<ScripSim>(quick_cfg(), ScripAttack::lotus_eater(0.2, 0.3), 21);
        let b = run::<ScripSim>(zeroed, ScripAttack::lotus_eater(0.2, 0.3), 21);
        assert_eq!(a, b, "zero-rate plans must be byte-invisible");
        assert!(b.fault_counters.is_none());
    }

    #[test]
    fn money_is_conserved_under_faults() {
        use lotus_core::faults::FaultPlan;
        // No attack: the providing attacker's fault-exempt channel would
        // otherwise absorb every paid request and starve the fate draws.
        let mut cfg = quick_cfg();
        cfg.faults = FaultPlan::parse("loss:0.2/crash:0.02:0.3/partition:100:200:0.4").unwrap();
        let mut sim = ScripSim::new(cfg, ScripAttack::None, 22);
        for t in 0..2_000 {
            netsim::round::RoundSim::round(&mut sim, t);
            assert_eq!(sim.total_money(), 120, "faults must not mint or burn");
        }
        let report = sim.report();
        let fc = report.fault_counters.expect("plan was active");
        assert!(fc.crashes > 0, "crashes happened");
        assert!(
            report.fail_faulted_rate > 0.05,
            "lost deliveries fail requests"
        );
    }

    #[test]
    fn loss_degrades_service() {
        use lotus_core::faults::FaultPlan;
        let clean = run::<ScripSim>(quick_cfg(), ScripAttack::None, 23);
        let mut cfg = quick_cfg();
        cfg.faults = FaultPlan::parse("loss:0.4").unwrap();
        let lossy = run::<ScripSim>(cfg, ScripAttack::None, 23);
        assert!(
            lossy.service_rate < clean.service_rate - 0.1,
            "40% loss must hurt: {} vs {}",
            lossy.service_rate,
            clean.service_rate
        );
    }

    #[test]
    fn gini_properties() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0, 0]), 0.0);
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-12, "equality => 0");
        let unequal = gini(&[0, 0, 0, 100]);
        assert!(unequal > 0.7, "concentration => high gini, got {unequal}");
        let mild = gini(&[2, 3, 4, 5]);
        assert!(mild > 0.0 && mild < unequal);
    }
}
