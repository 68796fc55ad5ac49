//! The paper's §3 abstract token-collecting model `(G, T, sat, f, c, a)`.
//!
//! A system is a connected graph `G` of nodes, a finite token set `T`, a
//! satiation function `sat`, an initial allocation `f` of tokens to nodes,
//! a per-round contact budget `c`, and an altruism probability `a`. Each
//! round every *unsatiated* node contacts up to `c` random neighbours and
//! the pair exchange copies of everything they hold; a *satiated* node
//! stops initiating and responds to requests only with probability `a`.
//! The attacker may, at the start of every round, hand a chosen subset of
//! nodes *all* the tokens (deliberately over-approximating attacker power,
//! as the paper does).
//!
//! This model deliberately strips away protocol detail so the structural
//! questions stand out: which graphs admit cheap cuts, what rare tokens
//! cost to deny, and how much a little altruism `a > 0` buys.

use crate::bitset::BitSet;
use crate::envelope::{RoundEnvelope, Shield, Timing};
use crate::satiation::Satiable;
use crate::schedule::MetricKey;
use netsim::graph::Graph;
use netsim::rng::DetRng;
use netsim::round::RoundSim;
use netsim::{NodeId, Round};

/// The satiation function `sat` — when does a node stop wanting tokens?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatFunction {
    /// Satiated only with every token (`sat(i, t, T') = true` iff `T' = T`);
    /// the paper's baseline.
    CollectAll,
    /// Satiated with any `k` distinct tokens — models network-coding-style
    /// designs (Avalanche) where any `k` of `n` coded blocks reconstruct
    /// the content. Used by the X10 coding-defense experiment.
    AnyK(usize),
}

impl SatFunction {
    /// Evaluate the satiation function on a holding set.
    pub fn is_satiated(&self, holdings: &BitSet) -> bool {
        match *self {
            SatFunction::CollectAll => holdings.is_full(),
            SatFunction::AnyK(k) => holdings.len() >= k,
        }
    }

    /// The number of tokens a node still benefits from acquiring.
    pub fn deficit(&self, holdings: &BitSet) -> usize {
        match *self {
            SatFunction::CollectAll => holdings.universe() - holdings.len(),
            SatFunction::AnyK(k) => k.saturating_sub(holdings.len()),
        }
    }
}

/// The initial allocation `f` of tokens to nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Allocation {
    /// Each token starts at `copies` uniformly chosen distinct nodes.
    UniformCopies {
        /// Number of initial holders per token.
        copies: usize,
    },
    /// Token 0 starts at exactly one designated holder; every other token
    /// starts at `copies` uniform nodes. The rare-token attack scenario.
    RareToken {
        /// The unique initial holder of token 0.
        holder: NodeId,
        /// Copies for every other token.
        copies: usize,
    },
    /// Explicit per-token holder lists (index = token id).
    Explicit(Vec<Vec<NodeId>>),
}

/// Configuration of a token-collecting system.
///
/// Use [`TokenSystemConfig::builder`] unless constructing directly.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenSystemConfig {
    /// The communication graph `G`.
    pub graph: Graph,
    /// `|T|` — number of distinct tokens.
    pub tokens: usize,
    /// The satiation function `sat`.
    pub sat: SatFunction,
    /// The initial allocation `f`.
    pub allocation: Allocation,
    /// `c` — max partners an unsatiated node contacts per round.
    pub contacts_per_round: usize,
    /// `a` — probability a satiated node still responds to a request.
    pub altruism: f64,
}

/// Errors from [`TokenSystemConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The graph has fewer than two nodes.
    GraphTooSmall,
    /// The graph must be connected for the model's guarantees to apply.
    GraphDisconnected,
    /// `tokens` was zero.
    NoTokens,
    /// `contacts_per_round` was zero.
    NoContacts,
    /// The altruism probability was outside `[0, 1]`.
    BadAltruism(f64),
    /// An allocation referenced a token or node out of range.
    BadAllocation(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::GraphTooSmall => write!(f, "graph needs at least two nodes"),
            ConfigError::GraphDisconnected => write!(f, "graph must be connected"),
            ConfigError::NoTokens => write!(f, "token set must be non-empty"),
            ConfigError::NoContacts => write!(f, "contacts per round must be at least 1"),
            ConfigError::BadAltruism(a) => write!(f, "altruism {a} outside [0, 1]"),
            ConfigError::BadAllocation(why) => write!(f, "bad allocation: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl TokenSystemConfig {
    /// Start building a config on the given graph.
    pub fn builder(graph: Graph) -> TokenSystemConfigBuilder {
        TokenSystemConfigBuilder {
            graph,
            tokens: 16,
            sat: SatFunction::CollectAll,
            allocation: Allocation::UniformCopies { copies: 3 },
            contacts_per_round: 1,
            altruism: 0.0,
        }
    }

    /// Check internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.graph.len() < 2 {
            return Err(ConfigError::GraphTooSmall);
        }
        if !self.graph.is_connected() {
            return Err(ConfigError::GraphDisconnected);
        }
        if self.tokens == 0 {
            return Err(ConfigError::NoTokens);
        }
        if self.contacts_per_round == 0 {
            return Err(ConfigError::NoContacts);
        }
        if !(0.0..=1.0).contains(&self.altruism) {
            return Err(ConfigError::BadAltruism(self.altruism));
        }
        let n = self.graph.len();
        match &self.allocation {
            Allocation::UniformCopies { copies } => {
                if *copies == 0 || *copies > n as usize {
                    return Err(ConfigError::BadAllocation(format!(
                        "copies {copies} not in 1..={n}"
                    )));
                }
            }
            Allocation::RareToken { holder, copies } => {
                if holder.0 >= n {
                    return Err(ConfigError::BadAllocation(format!(
                        "holder {holder} out of range"
                    )));
                }
                if *copies == 0 || *copies > n as usize {
                    return Err(ConfigError::BadAllocation(format!(
                        "copies {copies} not in 1..={n}"
                    )));
                }
            }
            Allocation::Explicit(lists) => {
                if lists.len() != self.tokens {
                    return Err(ConfigError::BadAllocation(format!(
                        "expected {} holder lists, got {}",
                        self.tokens,
                        lists.len()
                    )));
                }
                for (tok, holders) in lists.iter().enumerate() {
                    if holders.is_empty() {
                        return Err(ConfigError::BadAllocation(format!(
                            "token {tok} has no initial holder"
                        )));
                    }
                    if holders.iter().any(|h| h.0 >= n) {
                        return Err(ConfigError::BadAllocation(format!(
                            "token {tok} has an out-of-range holder"
                        )));
                    }
                }
            }
        }
        if let SatFunction::AnyK(k) = self.sat {
            if k == 0 || k > self.tokens {
                return Err(ConfigError::BadAllocation(format!(
                    "AnyK({k}) not in 1..={}",
                    self.tokens
                )));
            }
        }
        Ok(())
    }
}

/// Builder for [`TokenSystemConfig`].
#[derive(Debug, Clone)]
pub struct TokenSystemConfigBuilder {
    graph: Graph,
    tokens: usize,
    sat: SatFunction,
    allocation: Allocation,
    contacts_per_round: usize,
    altruism: f64,
}

impl TokenSystemConfigBuilder {
    /// Set `|T|`.
    pub fn tokens(mut self, tokens: usize) -> Self {
        self.tokens = tokens;
        self
    }

    /// Set the satiation function.
    pub fn sat(mut self, sat: SatFunction) -> Self {
        self.sat = sat;
        self
    }

    /// Set the initial allocation.
    pub fn allocation(mut self, allocation: Allocation) -> Self {
        self.allocation = allocation;
        self
    }

    /// Set `c`, the per-round contact budget.
    pub fn contacts_per_round(mut self, c: usize) -> Self {
        self.contacts_per_round = c;
        self
    }

    /// Set `a`, the altruism probability.
    pub fn altruism(mut self, a: f64) -> Self {
        self.altruism = a;
        self
    }

    /// Validate and build.
    ///
    /// # Errors
    ///
    /// Propagates [`TokenSystemConfig::validate`] failures.
    pub fn build(self) -> Result<TokenSystemConfig, ConfigError> {
        let cfg = TokenSystemConfig {
            graph: self.graph,
            tokens: self.tokens,
            sat: self.sat,
            allocation: self.allocation,
            contacts_per_round: self.contacts_per_round,
            altruism: self.altruism,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

/// A read-only view of the running system handed to attackers.
#[derive(Debug)]
pub struct SystemView<'a> {
    /// Current round (the one about to execute).
    pub round: Round,
    /// Per-node holdings.
    pub holdings: &'a [BitSet],
    /// The communication graph.
    pub graph: &'a Graph,
    /// The satiation function in force.
    pub sat: SatFunction,
}

impl SystemView<'_> {
    /// Whether `node` is satiated under the system's satiation function.
    pub fn is_satiated(&self, node: NodeId) -> bool {
        self.sat.is_satiated(&self.holdings[node.index()])
    }

    /// All current holders of `token`.
    pub fn holders_of(&self, token: usize) -> Vec<NodeId> {
        self.holdings
            .iter()
            .enumerate()
            .filter(|(_, h)| h.contains(token))
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Fraction of the token universe held by `node`.
    pub fn coverage(&self, node: NodeId) -> f64 {
        let h = &self.holdings[node.index()];
        if h.universe() == 0 {
            1.0
        } else {
            h.len() as f64 / h.universe() as f64
        }
    }
}

/// Final report of a token-system run.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenReport {
    /// Rounds executed.
    pub rounds: Round,
    /// `(round, satiated fraction)` samples, one per executed round.
    pub satiated_series: Vec<(Round, f64)>,
    /// First round at the *end* of which every node was satiated.
    pub all_satiated_at: Option<Round>,
    /// Final per-node coverage (fraction of tokens held).
    pub coverage: Vec<f64>,
    /// Total tokens served (copies provided to others) per node.
    pub served: Vec<u64>,
    /// Nodes the attacker satiated at least once.
    pub attacked_nodes: Vec<NodeId>,
    /// Per-token reach: the fraction of nodes holding each token at the
    /// end of the run (`token_reach[0]` is the rare-token-denial metric).
    pub token_reach: Vec<f64>,
    /// Fraction of never-attacked nodes that ended the run satiated under
    /// the configured satiation function (the coding-defense metric:
    /// "did the untouched population get the content?").
    pub untouched_satisfied: f64,
    /// Fault-injection counters, present only when the plan was active
    /// (so fault-free reports stay byte-identical to pre-fault ones).
    pub fault_counters: Option<crate::faults::FaultCounters>,
}

impl TokenReport {
    /// Mean final coverage over all nodes.
    pub fn mean_coverage(&self) -> f64 {
        if self.coverage.is_empty() {
            return 0.0;
        }
        self.coverage.iter().sum::<f64>() / self.coverage.len() as f64
    }

    /// Mean final coverage over nodes the attacker never touched.
    pub fn untouched_mean_coverage(&self) -> f64 {
        let attacked: std::collections::BTreeSet<NodeId> =
            self.attacked_nodes.iter().copied().collect();
        let vals: Vec<f64> = self
            .coverage
            .iter()
            .enumerate()
            .filter(|(i, _)| !attacked.contains(&NodeId(*i as u32)))
            .map(|(_, &c)| c)
            .collect();
        if vals.is_empty() {
            return 0.0;
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    /// Lowest final coverage over all nodes.
    pub fn min_coverage(&self) -> f64 {
        self.coverage.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// The running token-collecting system.
///
/// ```
/// use lotus_core::attack::TokenAttack;
/// use lotus_core::token::{TokenScenarioConfig, TokenSystem, TokenSystemConfig};
/// use netsim::graph::Graph;
///
/// let cfg = TokenSystemConfig::builder(Graph::complete(20))
///     .tokens(8)
///     .contacts_per_round(1)
///     .altruism(0.5) // a > 0 guarantees eventual global satiation (§3)
///     .build()?;
/// let cfg = TokenScenarioConfig::new(cfg, 200);
/// let report = lotus_core::scenario::run::<TokenSystem>(cfg, TokenAttack::none(), 7);
/// assert!(report.all_satiated_at.is_some(), "gossip completes unattacked");
/// # Ok::<(), lotus_core::token::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TokenSystem {
    cfg: TokenSystemConfig,
    holdings: Vec<BitSet>,
    /// Start-of-round copy of `holdings`, overwritten in place each round
    /// so the gossip loop never clones the holdings vector.
    snapshot: Vec<BitSet>,
    /// Per-node "satiated at start of round" flags, refilled in place.
    satiated_scratch: Vec<bool>,
    /// Reused buffer for per-node partner picks.
    picks_scratch: Vec<usize>,
    /// Reused buffer for the attacker's per-round target list.
    targets_scratch: Vec<NodeId>,
    served: Vec<u64>,
    round: Round,
    rng: DetRng,
    satiated_series: Vec<(Round, f64)>,
    all_satiated_at: Option<Round>,
    attacked: std::collections::BTreeSet<NodeId>,
    /// The attack consulted at the start of every round (none until
    /// `Scenario::build` sets it).
    attack: crate::attack::TokenAttack,
    /// Horizon (0 until `Scenario::build` sets it).
    horizon: Round,
    /// Attacker randomness, forked once from the system stream.
    attack_rng: DetRng,
    /// Churn, faults and attack timing; inert (everyone present, no
    /// faults, attack always on) unless the scenario config asks for
    /// more.
    env: RoundEnvelope,
}

impl TokenSystem {
    /// Create a system in its initial allocation.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`TokenSystemConfig::validate`]; prefer
    /// building configs through the builder, which validates.
    pub fn new(cfg: TokenSystemConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid TokenSystemConfig");
        let n = cfg.graph.len() as usize;
        let mut rng = DetRng::seed_from(seed).fork("token-system");
        let mut holdings = vec![BitSet::new(cfg.tokens); n];
        let mut alloc_rng = rng.fork("allocation");
        match &cfg.allocation {
            Allocation::UniformCopies { copies } => {
                for tok in 0..cfg.tokens {
                    for i in alloc_rng.sample_indices(n, *copies) {
                        holdings[i].insert(tok);
                    }
                }
            }
            Allocation::RareToken { holder, copies } => {
                holdings[holder.index()].insert(0);
                for tok in 1..cfg.tokens {
                    for i in alloc_rng.sample_indices(n, *copies) {
                        holdings[i].insert(tok);
                    }
                }
            }
            Allocation::Explicit(lists) => {
                for (tok, holders) in lists.iter().enumerate() {
                    for h in holders {
                        holdings[h.index()].insert(tok);
                    }
                }
            }
        }
        let _ = rng.next_u64(); // decouple run stream from allocation stream
        let snapshot = holdings.clone();
        TokenSystem {
            cfg,
            holdings,
            snapshot,
            satiated_scratch: vec![false; n],
            picks_scratch: Vec::new(),
            targets_scratch: Vec::new(),
            served: vec![0; n],
            round: 0,
            attack: crate::attack::TokenAttack::none(),
            horizon: 0,
            attack_rng: rng.fork("attacker"),
            env: RoundEnvelope::new(n, Timing::default(), &rng, false, |_| Shield::None),
            rng,
            satiated_series: Vec::new(),
            all_satiated_at: None,
            attacked: std::collections::BTreeSet::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &TokenSystemConfig {
        &self.cfg
    }

    /// Read-only view for attackers and assertions.
    pub fn view(&self) -> SystemView<'_> {
        SystemView {
            round: self.round,
            holdings: &self.holdings,
            graph: &self.cfg.graph,
            sat: self.cfg.sat,
        }
    }

    /// Grant `node` the full token set (the attacker's power).
    pub fn satiate(&mut self, node: NodeId) {
        // In-place fill: re-satiating an already-attacked node each round
        // (the common steady-state case) must not allocate.
        self.holdings[node.index()].fill();
        self.attacked.insert(node);
    }

    /// Current holdings of `node`.
    pub fn holdings(&self, node: NodeId) -> &BitSet {
        &self.holdings[node.index()]
    }

    /// Cumulative tokens `node` has provided to others.
    pub fn served(&self, node: NodeId) -> u64 {
        self.served[node.index()]
    }

    /// Fraction of nodes currently satiated.
    pub fn satiated_fraction(&self) -> f64 {
        let n = self.holdings.len();
        let sat = self
            .holdings
            .iter()
            .filter(|h| self.cfg.sat.is_satiated(h))
            .count();
        sat as f64 / n as f64
    }

    /// Execute one gossip round (without any attacker action).
    // lint: hot-loop
    fn gossip_round(&mut self) {
        let n = self.holdings.len();
        // Start-of-round state into the persistent scratch buffers: the
        // steady-state round touches no allocator.
        for (snap, h) in self.snapshot.iter_mut().zip(&self.holdings) {
            snap.copy_from(h);
        }
        for (s, h) in self.satiated_scratch.iter_mut().zip(&self.snapshot) {
            *s = self.cfg.sat.is_satiated(h);
        }
        let mut round_rng = self.rng.fork_idx("round", self.round);
        for i in 0..n {
            if self.satiated_scratch[i] || !self.env.is_up(i) {
                continue; // satiated nodes stop initiating; absent/crashed can't
            }
            let degree = self.cfg.graph.degree(NodeId(i as u32));
            if degree == 0 {
                continue;
            }
            let c = self.cfg.contacts_per_round.min(degree);
            round_rng.sample_indices_into(degree, c, &mut self.picks_scratch);
            for p in 0..c {
                let j = self.cfg.graph.neighbors(NodeId(i as u32))[self.picks_scratch[p]] as usize;
                if !self.env.is_up(j) {
                    continue; // absent or crashed partner: the contact is wasted
                }
                if !self.env.faults_mut().link_ok(i, j) {
                    continue; // the partition separates the pair
                }
                if self.satiated_scratch[j] && !round_rng.chance(self.cfg.altruism) {
                    continue; // satiated partner declined (insufficient altruism)
                }
                // Bidirectional copy of start-of-round holdings; each
                // direction draws its own fate (a lost half leaves a
                // one-way exchange — under an inactive plan both always
                // deliver without drawing).
                if self.env.faults_mut().fate(j, i) != crate::faults::Fate::Drop {
                    self.served[j] += self.snapshot[j].difference_count(&self.snapshot[i]) as u64;
                    self.holdings[i].union_with(&self.snapshot[j]);
                }
                if self.env.faults_mut().fate(i, j) != crate::faults::Fate::Drop {
                    self.served[i] += self.snapshot[i].difference_count(&self.snapshot[j]) as u64;
                    self.holdings[j].union_with(&self.snapshot[i]);
                }
            }
        }
        self.round += 1;
        let frac = self.satiated_fraction();
        self.satiated_series.push((self.round, frac));
        if self.all_satiated_at.is_none() && frac >= 1.0 {
            self.all_satiated_at = Some(self.round);
        }
    }

    /// Snapshot the report without running further.
    pub fn report(&self) -> TokenReport {
        let n = self.holdings.len();
        let token_reach = (0..self.cfg.tokens)
            .map(|tok| {
                if n == 0 {
                    0.0
                } else {
                    self.holdings.iter().filter(|h| h.contains(tok)).count() as f64 / n as f64
                }
            })
            .collect();
        let untouched: Vec<&BitSet> = self
            .holdings
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.attacked.contains(&NodeId(*i as u32)))
            .map(|(_, h)| h)
            .collect();
        let untouched_satisfied = if untouched.is_empty() {
            0.0
        } else {
            untouched
                .iter()
                .filter(|h| self.cfg.sat.is_satiated(h))
                .count() as f64
                / untouched.len() as f64
        };
        TokenReport {
            rounds: self.round,
            satiated_series: self.satiated_series.clone(),
            all_satiated_at: self.all_satiated_at,
            coverage: self
                .holdings
                .iter()
                .map(|h| {
                    if h.universe() == 0 {
                        1.0
                    } else {
                        h.len() as f64 / h.universe() as f64
                    }
                })
                .collect(),
            served: self.served.clone(),
            attacked_nodes: self.attacked.iter().copied().collect(),
            token_reach,
            untouched_satisfied,
            fault_counters: self.env.fault_counters(),
        }
    }
}

impl RoundSim for TokenSystem {
    /// One round: the timing layer steps, crashes wipe holdings, the
    /// scenario attacker (when the schedule has the attack on) is
    /// consulted on the start-of-round state and its present targets
    /// are satiated, then gossip happens among present nodes.
    // lint: hot-loop
    fn round(&mut self, t: Round) {
        use crate::attack::Attacker;
        debug_assert_eq!(t, self.round, "TokenSystem rounds must be sequential");
        let (holdings, attacked) = (&self.holdings, &self.attacked);
        let attack_on = self.env.begin_round(t, &[], |key, crashed| {
            coverage_observation(holdings, attacked, crashed, key)
        });
        if !self.env.faults().just_crashed().is_empty() {
            // State-losing crash: unlike a churned-out node, which keeps
            // its holdings while away, a crashed node re-enters with
            // nothing and must regather tokens from its neighbors.
            for i in 0..self.holdings.len() {
                if self.env.faults().just_crashed().contains(i) {
                    self.holdings[i].clear();
                }
            }
        }
        if attack_on {
            // The attack, its rng and the target buffer move out during
            // the round so the borrow checker lets the attacker inspect
            // `self.view()`; DetRng clone and Vec take are heap-free.
            let mut attack =
                std::mem::replace(&mut self.attack, crate::attack::TokenAttack::none());
            let mut attack_rng = self.attack_rng.clone();
            let mut targets = std::mem::take(&mut self.targets_scratch);
            targets.clear();
            attack.targets_into(&self.view(), &mut attack_rng, &mut targets);
            self.attack = attack;
            self.attack_rng = attack_rng;
            for &target in &targets {
                if self.env.population().is_present(target.index()) {
                    self.satiate(target);
                }
            }
            self.targets_scratch = targets;
        }
        self.gossip_round();
    }

    fn rounds_run(&self) -> Round {
        self.round
    }
}

impl Satiable for TokenSystem {
    fn node_count(&self) -> u32 {
        self.cfg.graph.len()
    }

    fn is_satiated(&self, node: NodeId) -> bool {
        self.cfg.sat.is_satiated(&self.holdings[node.index()])
    }

    fn service_provided(&self, node: NodeId) -> u64 {
        self.served[node.index()]
    }
}

/// Scenario configuration for the token model: a [`TokenSystemConfig`]
/// plus the horizon, plus the cross-substrate attack-timing and
/// population dimensions.
#[derive(Debug, Clone)]
pub struct TokenScenarioConfig {
    /// The underlying system configuration.
    pub system: TokenSystemConfig,
    /// Rounds to run.
    pub rounds: Round,
    /// When the attacker strikes (default: always on, the pre-schedule
    /// behaviour).
    pub schedule: crate::schedule::AttackSchedule,
    /// Arrival/departure churn (default: none; a uniform
    /// [`ChurnSpec`](crate::population::ChurnSpec) converts to the
    /// degenerate one-class profile).
    pub churn: crate::population::ChurnProfile,
    /// Flash-crowd arrival process (default: none — everyone present
    /// from round 0).
    pub arrival: crate::population::ArrivalProcess,
    /// Fault plan (default: none). A crashed node loses its *holdings*
    /// (unlike a churned-out node, which keeps them while away); the
    /// rare-token holder of [`Allocation::RareToken`] is crash-exempt so
    /// injected faults cannot destroy the content outright.
    pub faults: crate::faults::FaultPlan,
}

impl TokenScenarioConfig {
    /// Pair a system configuration with a horizon (always-on attack, no
    /// churn).
    pub fn new(system: TokenSystemConfig, rounds: Round) -> Self {
        TokenScenarioConfig {
            system,
            rounds,
            schedule: crate::schedule::AttackSchedule::always(),
            churn: crate::population::ChurnProfile::none(),
            arrival: crate::population::ArrivalProcess::None,
            faults: crate::faults::FaultPlan::none(),
        }
    }

    /// Set the attack schedule (builder style).
    pub fn with_schedule(mut self, schedule: crate::schedule::AttackSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Set the churn profile (builder style; a uniform
    /// [`ChurnSpec`](crate::population::ChurnSpec) converts).
    pub fn with_churn(mut self, churn: impl Into<crate::population::ChurnProfile>) -> Self {
        self.churn = churn.into();
        self
    }

    /// Set the flash-crowd arrival process (builder style).
    pub fn with_arrival(mut self, arrival: crate::population::ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    /// Set the fault plan (builder style).
    pub fn with_faults(mut self, faults: crate::faults::FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// The canonical-metric observation for metric-threshold schedules:
/// computed directly from holdings (no report allocation), as they stand
/// once this round's `crashed` nodes are wiped. Coverage is genuine data
/// from round 0 (the initial allocation), so this always observes.
fn coverage_observation(
    holdings: &[BitSet],
    attacked: &std::collections::BTreeSet<NodeId>,
    crashed: &BitSet,
    key: MetricKey,
) -> Option<f64> {
    let mut untouched_sum = 0.0;
    let mut untouched_n = 0usize;
    let mut attacked_sum = 0.0;
    let mut attacked_n = 0usize;
    for (i, h) in holdings.iter().enumerate() {
        let held = if crashed.contains(i) { 0 } else { h.len() };
        let cov = if h.universe() == 0 {
            1.0
        } else {
            held as f64 / h.universe() as f64
        };
        if attacked.contains(&NodeId(i as u32)) {
            attacked_sum += cov;
            attacked_n += 1;
        } else {
            untouched_sum += cov;
            untouched_n += 1;
        }
    }
    let overall = if untouched_n == 0 {
        0.0
    } else {
        untouched_sum / untouched_n as f64
    };
    Some(match key {
        MetricKey::OverallDelivery => overall,
        MetricKey::TargetedService => {
            if attacked_n == 0 {
                overall
            } else {
                attacked_sum / attacked_n as f64
            }
        }
        // Presence is the envelope's to answer, and the token substrate
        // has no cut defense to report on.
        MetricKey::PresentFraction | MetricKey::FalseCutRate => return None,
    })
}

impl crate::scenario::Scenario for TokenSystem {
    type Config = TokenScenarioConfig;
    type Attack = crate::attack::TokenAttack;
    type Report = TokenReport;
    const NAME: &'static str = "token";

    fn build(cfg: TokenScenarioConfig, attack: crate::attack::TokenAttack, seed: u64) -> Self {
        let mut sys = TokenSystem::new(cfg.system, seed);
        sys.attack = attack;
        sys.horizon = cfg.rounds;
        // Pre-size the per-round series so steady-state pushes never
        // reallocate mid-run.
        sys.satiated_series.reserve(cfg.rounds as usize);
        // Re-fork the timing layer with the configured dimensions;
        // forking never advances `sys.rng`, so the gossip stream is the
        // same whatever the timing dimensions. Flash-crowd members re-enter
        // with whatever their initial allocation gave them — they have
        // never gossiped. The rare-token holder is crash-exempt: faults
        // degrade dissemination, they must not destroy the content
        // outright.
        let rare_holder = match sys.cfg.allocation {
            Allocation::RareToken { holder, .. } => Some(holder.index()),
            _ => None,
        };
        let timing = Timing {
            churn: cfg.churn,
            arrival: cfg.arrival,
            faults: cfg.faults,
            schedule: cfg.schedule,
        };
        sys.env = RoundEnvelope::new(sys.holdings.len(), timing, &sys.rng, false, |i| {
            if Some(i) == rare_holder {
                Shield::Crash
            } else {
                Shield::None
            }
        });
        sys
    }

    fn step(&mut self) -> crate::scenario::StepOutcome {
        crate::scenario::step_rounds(self, self.horizon)
    }

    fn report(&self) -> TokenReport {
        TokenSystem::report(self)
    }

    fn arm_trace(&self) -> Option<&[crate::adaptive::TraceEntry]> {
        self.env.schedule().arm_trace()
    }
}

impl crate::scenario::Summarize for TokenReport {
    /// Common vocabulary for the token model:
    ///
    /// * `overall_delivery` — mean final coverage of never-attacked nodes
    ///   (the population the attack tries to starve);
    /// * `targeted_service` — mean final coverage of attacked nodes
    ///   (satiated nodes hold everything, so this is normally 1.0);
    /// * `usable` — untouched coverage clears
    ///   [`UsabilityThreshold::BAR_GOSSIP`](crate::report::UsabilityThreshold),
    ///   the 93 % bar the workspace uses everywhere.
    fn summarize(&self) -> crate::scenario::ScenarioReport {
        let attacked: std::collections::BTreeSet<NodeId> =
            self.attacked_nodes.iter().copied().collect();
        let targeted: Vec<f64> = self
            .coverage
            .iter()
            .enumerate()
            .filter(|(i, _)| attacked.contains(&NodeId(*i as u32)))
            .map(|(_, &c)| c)
            .collect();
        let overall = self.untouched_mean_coverage();
        let targeted_service = if targeted.is_empty() {
            overall
        } else {
            targeted.iter().sum::<f64>() / targeted.len() as f64
        };
        let mut report = crate::scenario::ScenarioReport::new(
            "token",
            self.rounds,
            overall,
            targeted_service,
            crate::report::UsabilityThreshold::BAR_GOSSIP.usable(overall),
        )
        .with_metric("mean_coverage", self.mean_coverage())
        .with_metric("min_coverage", self.min_coverage())
        .with_metric("untouched_mean_coverage", self.untouched_mean_coverage())
        .with_metric("untouched_satisfied", self.untouched_satisfied)
        .with_metric("attacked_nodes", self.attacked_nodes.len() as f64)
        .with_metric(
            "final_satiated_fraction",
            self.satiated_series.last().map_or(0.0, |&(_, f)| f),
        );
        // -1 when global satiation was never reached, so the metric is
        // total across sweep points.
        report.set_metric(
            "all_satiated_at",
            self.all_satiated_at.map_or(-1.0, |r| r as f64),
        );
        if let Some(&reach) = self.token_reach.first() {
            report.set_metric("token0_reach", reach);
        }
        report.with_fault_counters(self.fault_counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::TokenAttack;
    use crate::scenario::run;

    fn small_cfg(n: u32, tokens: usize) -> TokenSystemConfig {
        TokenSystemConfig::builder(Graph::complete(n))
            .tokens(tokens)
            .allocation(Allocation::UniformCopies { copies: 2 })
            .build()
            .unwrap()
    }

    #[test]
    fn zero_rate_fault_plan_is_report_invisible() {
        let plan = crate::faults::FaultPlan::parse("loss:0/crash:0:0.5/partition:5:5:0").unwrap();
        let base = TokenScenarioConfig::new(small_cfg(20, 6), 40);
        let zeroed = base.clone().with_faults(plan);
        let a = run::<TokenSystem>(base, TokenAttack::none(), 41);
        let b = run::<TokenSystem>(zeroed, TokenAttack::none(), 41);
        assert_eq!(a, b, "zero-rate plans must be byte-invisible");
        assert!(b.fault_counters.is_none());
    }

    #[test]
    fn loss_slows_global_satiation() {
        // a > 0 guarantees eventual global satiation on a fault-free
        // network (§3); loss should visibly delay it.
        let cfg = || {
            TokenSystemConfig::builder(Graph::complete(20))
                .tokens(6)
                .allocation(Allocation::UniformCopies { copies: 2 })
                .altruism(0.5)
                .build()
                .unwrap()
        };
        let clean = run::<TokenSystem>(
            TokenScenarioConfig::new(cfg(), 200),
            TokenAttack::none(),
            42,
        );
        let lossy = run::<TokenSystem>(
            TokenScenarioConfig::new(cfg(), 200)
                .with_faults(crate::faults::FaultPlan::parse("loss:0.5").unwrap()),
            TokenAttack::none(),
            42,
        );
        let fc = lossy.fault_counters.expect("plan was active");
        assert!(fc.dropped > 0);
        let done = clean.all_satiated_at.expect("clean run satiates");
        assert!(
            lossy.all_satiated_at.is_none_or(|r| r > done),
            "50% loss slows satiation: clean {done}, lossy {:?}",
            lossy.all_satiated_at
        );
    }

    #[test]
    fn crashes_wipe_holdings_but_spare_the_rare_holder() {
        let cfg = TokenSystemConfig::builder(Graph::complete(16))
            .tokens(4)
            .allocation(Allocation::RareToken {
                holder: NodeId(3),
                copies: 3,
            })
            .build()
            .unwrap();
        let scenario = TokenScenarioConfig::new(cfg, 300)
            .with_faults(crate::faults::FaultPlan::parse("crash:0.05:0.2").unwrap());
        let report = run::<TokenSystem>(scenario, TokenAttack::none(), 43);
        let fc = report.fault_counters.expect("plan was active");
        assert!(fc.crashes > 0, "crashes happened");
        assert!(
            report.token_reach[0] > 0.0,
            "the exempt rare holder keeps token 0 alive"
        );
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            TokenSystemConfig::builder(Graph::complete(1)).build(),
            Err(ConfigError::GraphTooSmall)
        ));
        assert!(matches!(
            TokenSystemConfig::builder(Graph::from_edges(4, &[(0, 1), (2, 3)])).build(),
            Err(ConfigError::GraphDisconnected)
        ));
        assert!(matches!(
            TokenSystemConfig::builder(Graph::complete(4))
                .tokens(0)
                .build(),
            Err(ConfigError::NoTokens)
        ));
        assert!(matches!(
            TokenSystemConfig::builder(Graph::complete(4))
                .contacts_per_round(0)
                .build(),
            Err(ConfigError::NoContacts)
        ));
        assert!(matches!(
            TokenSystemConfig::builder(Graph::complete(4))
                .altruism(1.5)
                .build(),
            Err(ConfigError::BadAltruism(_))
        ));
    }

    #[test]
    fn explicit_allocation_validated() {
        let r = TokenSystemConfig::builder(Graph::complete(4))
            .tokens(2)
            .allocation(Allocation::Explicit(vec![vec![NodeId(0)]]))
            .build();
        assert!(matches!(r, Err(ConfigError::BadAllocation(_))));

        let r = TokenSystemConfig::builder(Graph::complete(4))
            .tokens(1)
            .allocation(Allocation::Explicit(vec![vec![]]))
            .build();
        assert!(matches!(r, Err(ConfigError::BadAllocation(_))));

        let r = TokenSystemConfig::builder(Graph::complete(4))
            .tokens(1)
            .allocation(Allocation::Explicit(vec![vec![NodeId(9)]]))
            .build();
        assert!(matches!(r, Err(ConfigError::BadAllocation(_))));
    }

    #[test]
    fn any_k_validated() {
        let r = TokenSystemConfig::builder(Graph::complete(4))
            .tokens(4)
            .sat(SatFunction::AnyK(5))
            .build();
        assert!(matches!(r, Err(ConfigError::BadAllocation(_))));
    }

    #[test]
    fn config_error_display_nonempty() {
        for e in [
            ConfigError::GraphTooSmall,
            ConfigError::GraphDisconnected,
            ConfigError::NoTokens,
            ConfigError::NoContacts,
            ConfigError::BadAltruism(2.0),
            ConfigError::BadAllocation("x".into()),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn unattacked_system_converges_with_altruism() {
        // §3: "any system with a > 0 will eventually end up with all nodes
        // satiated".
        let cfg = TokenSystemConfig::builder(Graph::complete(20))
            .tokens(10)
            .allocation(Allocation::UniformCopies { copies: 2 })
            .altruism(0.25)
            .build()
            .unwrap();
        let report = run::<TokenSystem>(TokenScenarioConfig::new(cfg, 300), TokenAttack::none(), 1);
        assert!(report.all_satiated_at.is_some());
        assert!(report.mean_coverage() >= 1.0 - 1e-12);
    }

    #[test]
    fn zero_altruism_can_strand_stragglers() {
        // With a = 0 the system is satiation-compatible, and the paper
        // notes such systems "may experience difficulties even without an
        // attack if key nodes happen to become satiated": the last
        // collectors can be stranded by unresponsive satiated peers. The
        // run still reaches high coverage.
        let cfg = TokenScenarioConfig::new(small_cfg(20, 10), 100);
        let report = run::<TokenSystem>(cfg, TokenAttack::none(), 1);
        assert!(report.mean_coverage() > 0.9);
        if report.all_satiated_at.is_none() {
            let stranded = report.coverage.iter().filter(|&&c| c < 1.0).count();
            assert!(stranded > 0);
        }
    }

    #[test]
    fn holdings_are_monotone() {
        let mut sys = TokenSystem::new(small_cfg(12, 8), 3);
        let mut prev: Vec<BitSet> = (0..12).map(|i| sys.holdings(NodeId(i)).clone()).collect();
        for _ in 0..10 {
            sys.gossip_round();
            for i in 0..12u32 {
                let cur = sys.holdings(NodeId(i));
                assert!(prev[i as usize].is_subset(cur), "holdings of {i} shrank");
                prev[i as usize] = cur.clone();
            }
        }
    }

    #[test]
    fn satiated_nodes_stop_serving_without_altruism() {
        // Complete graph, one node pre-satiated, a = 0: that node's served
        // count only grows while *it* was being contacted... with a = 0 it
        // never responds, and it never initiates, so served stays 0.
        let cfg = small_cfg(10, 4);
        let mut sys = TokenSystem::new(cfg, 5);
        sys.satiate(NodeId(0));
        let before = sys.served(NodeId(0));
        for _ in 0..20 {
            sys.gossip_round();
        }
        assert_eq!(sys.served(NodeId(0)), before, "satiated node served others");
    }

    #[test]
    fn altruistic_satiated_nodes_do_serve() {
        let cfg = TokenSystemConfig::builder(Graph::complete(10))
            .tokens(4)
            .allocation(Allocation::Explicit(vec![
                vec![NodeId(0)],
                vec![NodeId(0)],
                vec![NodeId(0)],
                vec![NodeId(0)],
            ]))
            .altruism(1.0)
            .build()
            .unwrap();
        let mut sys = TokenSystem::new(cfg, 5);
        // Node 0 holds everything => satiated. With a = 1 it still responds.
        assert!(sys.is_satiated(NodeId(0)));
        for _ in 0..30 {
            sys.gossip_round();
        }
        assert!(sys.served(NodeId(0)) > 0);
        assert!(
            sys.satiated_fraction() > 0.9,
            "everyone eventually satiated"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = || TokenScenarioConfig::new(small_cfg(15, 6), 30);
        let r1 = run::<TokenSystem>(cfg(), TokenAttack::none(), 9);
        let r2 = run::<TokenSystem>(cfg(), TokenAttack::none(), 9);
        assert_eq!(r1, r2);
        let r3 = run::<TokenSystem>(cfg(), TokenAttack::none(), 10);
        assert!(r1.satiated_series != r3.satiated_series || r1.coverage != r3.coverage);
    }

    #[test]
    fn attack_marks_attacked_nodes() {
        let cfg = TokenScenarioConfig::new(small_cfg(10, 6), 5);
        let report = run::<TokenSystem>(cfg, TokenAttack::random_fraction(0.3), 2);
        assert_eq!(report.attacked_nodes.len(), 3);
        for n in &report.attacked_nodes {
            assert!((report.coverage[n.index()] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rare_token_allocation() {
        let cfg = TokenSystemConfig::builder(Graph::complete(10))
            .tokens(5)
            .allocation(Allocation::RareToken {
                holder: NodeId(3),
                copies: 4,
            })
            .build()
            .unwrap();
        let sys = TokenSystem::new(cfg, 1);
        let holders = sys.view().holders_of(0);
        assert_eq!(holders, vec![NodeId(3)]);
        for tok in 1..5 {
            assert_eq!(sys.view().holders_of(tok).len(), 4);
        }
    }

    #[test]
    fn view_coverage_and_satiated() {
        let mut sys = TokenSystem::new(small_cfg(6, 4), 0);
        sys.satiate(NodeId(2));
        let v = sys.view();
        assert!(v.is_satiated(NodeId(2)));
        assert!((v.coverage(NodeId(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn any_k_satiation() {
        let mut h = BitSet::new(10);
        let f = SatFunction::AnyK(3);
        assert!(!f.is_satiated(&h));
        assert_eq!(f.deficit(&h), 3);
        h.insert(0);
        h.insert(5);
        h.insert(9);
        assert!(f.is_satiated(&h));
        assert_eq!(f.deficit(&h), 0);
    }

    #[test]
    fn round_sim_trait_drives_system() {
        let mut sys = TokenSystem::new(small_cfg(8, 4), 4);
        for t in 0..5 {
            sys.round(t);
        }
        assert_eq!(sys.rounds_run(), 5);
    }
}
