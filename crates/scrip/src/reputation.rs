//! A reputation economy — §1's other indirect-reciprocity system.
//!
//! "In indirect reciprocity systems, such as reputation systems and scrip
//! systems, peers need to perform service for others often enough to
//! maintain a good reputation or supply of money. If an attacker can
//! ensure that a peer maintains a good reputation … despite any requests
//! the peer makes, then that peer will no longer provide service."
//!
//! The model: each agent holds a non-negative reputation score that
//! **decays** multiplicatively every round (old behaviour matters less).
//! Serving a request earns one point; an agent *volunteers* only while its
//! score is below its threshold (reputation-satiated agents rest); a
//! requester whose score has fallen below the access bar is denied
//! service. The attacker satiates targets by injecting fake praise
//! (sybil feedback) every round.
//!
//! The contrast with scrip is the point of experiment X14: scrip is
//! **conserved**, so satiating a fraction `φ` needs `φ·n·k` of an `m·n`
//! supply — a hard wall. Reputation is *minted* by feedback, so the
//! attacker faces only a **linear maintenance cost** (`≈ k·(1-δ)` fake
//! points per target per round against decay `δ`) and no wall at all.
//! Faster decay raises his bill but hurts honest agents too.

use lotus_core::satiation::{Feedable, Satiable};
use netsim::rng::DetRng;
use netsim::round::RoundSim;
use netsim::{NodeId, Round};

/// Configuration of a reputation-economy run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReputationConfig {
    /// Number of agents.
    pub agents: u32,
    /// Multiplicative per-round reputation decay (0 < δ ≤ 1).
    pub decay: f64,
    /// Volunteer only while reputation < threshold.
    pub threshold: f64,
    /// Requests from agents below this score are denied.
    pub access_bar: f64,
    /// Initial reputation per agent.
    pub initial: f64,
    /// Probability an agent is available to serve in a round.
    pub availability: f64,
    /// Requests served per round (the workload; reputation minting scales
    /// with it, so it balances the decay drain).
    pub requests_per_round: u32,
    /// Measured rounds.
    pub rounds: u64,
    /// Warm-up rounds excluded from measurement.
    pub warmup: u64,
}

impl Default for ReputationConfig {
    fn default() -> Self {
        ReputationConfig {
            agents: 100,
            decay: 0.95,
            threshold: 4.0,
            access_bar: 0.2,
            initial: 1.0,
            availability: 0.5,
            requests_per_round: 10,
            rounds: 20_000,
            warmup: 2_000,
        }
    }
}

/// Errors from [`ReputationConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ReputationConfigError {
    /// Fewer than two agents.
    TooFewAgents(u32),
    /// Decay outside `(0, 1]`.
    BadDecay(f64),
    /// Threshold must be positive.
    BadThreshold(f64),
    /// Availability outside `[0, 1]`.
    BadAvailability(f64),
    /// No measured rounds.
    ZeroRounds,
}

impl std::fmt::Display for ReputationConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReputationConfigError::TooFewAgents(n) => {
                write!(f, "need at least 2 agents, got {n}")
            }
            ReputationConfigError::BadDecay(d) => write!(f, "decay {d} outside (0, 1]"),
            ReputationConfigError::BadThreshold(t) => {
                write!(f, "threshold {t} must be positive")
            }
            ReputationConfigError::BadAvailability(a) => {
                write!(f, "availability {a} outside [0, 1]")
            }
            ReputationConfigError::ZeroRounds => write!(f, "need at least one measured round"),
        }
    }
}

impl std::error::Error for ReputationConfigError {}

impl ReputationConfig {
    /// Check internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ReputationConfigError> {
        if self.agents < 2 {
            return Err(ReputationConfigError::TooFewAgents(self.agents));
        }
        if !(self.decay > 0.0 && self.decay <= 1.0) {
            return Err(ReputationConfigError::BadDecay(self.decay));
        }
        if self.threshold <= 0.0 {
            return Err(ReputationConfigError::BadThreshold(self.threshold));
        }
        if !(0.0..=1.0).contains(&self.availability) {
            return Err(ReputationConfigError::BadAvailability(self.availability));
        }
        if self.rounds == 0 || self.requests_per_round == 0 {
            return Err(ReputationConfigError::ZeroRounds);
        }
        Ok(())
    }
}

/// The reputation-inflation attack: keep a fraction of agents at their
/// thresholds with fake praise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReputationAttack {
    /// No attacker.
    None,
    /// Top a random fraction of agents up to threshold every round.
    Inflate {
        /// Fraction of agents targeted.
        target_fraction: f64,
    },
}

/// Final report of a reputation-economy run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReputationReport {
    /// Rounds executed.
    pub rounds: Round,
    /// Fraction of measured requests served.
    pub service_rate: f64,
    /// Fraction denied because the requester was below the access bar.
    pub denied_rate: f64,
    /// Fraction failed for lack of volunteers.
    pub no_volunteer_rate: f64,
    /// Fraction of target-round samples where the target was satiated
    /// (`None` without an attack).
    pub target_satiation: Option<f64>,
    /// Mean fake reputation the attacker injected per round — his
    /// maintenance bill (zero without an attack).
    pub attacker_cost_per_round: f64,
}

/// The reputation-economy simulator.
///
/// ```
/// use lotus_core::scenario::run;
/// use scrip_economy::reputation::{
///     ReputationAttack, ReputationConfig, ReputationSim,
/// };
///
/// let cfg = ReputationConfig {
///     agents: 50,
///     rounds: 3_000,
///     warmup: 300,
///     ..ReputationConfig::default()
/// };
/// let report = run::<ReputationSim>(cfg, ReputationAttack::None, 7);
/// assert!(report.service_rate > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct ReputationSim {
    cfg: ReputationConfig,
    attack: ReputationAttack,
    reputation: Vec<f64>,
    targeted: Vec<bool>,
    served: Vec<u64>,
    rng: DetRng,
    round: Round,
    requests: u64,
    served_count: u64,
    denied: u64,
    no_volunteer: u64,
    target_satiated: u64,
    target_samples: u64,
    injected: f64,
    /// Nodes fed by the Observation 3.1 harness: re-topped after decay
    /// each round ("sufficiently rapidly").
    fed: std::collections::BTreeSet<usize>,
    /// Reused per-request volunteer list (capacity `agents`), so the
    /// round loop never allocates in steady state.
    volunteer_scratch: Vec<usize>,
}

impl ReputationSim {
    /// Build a simulator, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: ReputationConfig, attack: ReputationAttack, seed: u64) -> Self {
        cfg.validate().expect("invalid ReputationConfig");
        let rng = DetRng::seed_from(seed).fork("reputation");
        let n = cfg.agents as usize;
        let mut targeted = vec![false; n];
        if let ReputationAttack::Inflate { target_fraction } = attack {
            let k = ((n as f64) * target_fraction.clamp(0.0, 1.0)).round() as usize;
            for i in rng.fork("targets").sample_indices(n, k.min(n)) {
                targeted[i] = true;
            }
        }
        ReputationSim {
            reputation: vec![cfg.initial; n],
            targeted,
            served: vec![0; n],
            rng,
            round: 0,
            requests: 0,
            served_count: 0,
            denied: 0,
            no_volunteer: 0,
            target_satiated: 0,
            target_samples: 0,
            injected: 0.0,
            fed: std::collections::BTreeSet::new(),
            volunteer_scratch: Vec::with_capacity(n),
            cfg,
            attack,
        }
    }

    /// Current reputation of `agent`.
    pub fn reputation(&self, agent: NodeId) -> f64 {
        self.reputation[agent.index()]
    }

    /// Whether `agent` is an attack target.
    pub fn is_targeted(&self, agent: NodeId) -> bool {
        self.targeted[agent.index()]
    }

    fn measured(&self) -> bool {
        self.round >= self.cfg.warmup
    }

    /// Snapshot the report so far.
    pub fn report(&self) -> ReputationReport {
        let req = self.requests.max(1) as f64;
        let measured_rounds = self.round.saturating_sub(self.cfg.warmup).max(1) as f64;
        ReputationReport {
            rounds: self.round,
            service_rate: self.served_count as f64 / req,
            denied_rate: self.denied as f64 / req,
            no_volunteer_rate: self.no_volunteer as f64 / req,
            target_satiation: if self.target_samples == 0 {
                None
            } else {
                Some(self.target_satiated as f64 / self.target_samples as f64)
            },
            attacker_cost_per_round: self.injected / measured_rounds,
        }
    }
}

impl lotus_core::scenario::Scenario for ReputationSim {
    type Config = ReputationConfig;
    type Attack = ReputationAttack;
    type Report = ReputationReport;
    const NAME: &'static str = "reputation";

    fn build(cfg: ReputationConfig, attack: ReputationAttack, seed: u64) -> Self {
        ReputationSim::new(cfg, attack, seed)
    }

    fn step(&mut self) -> lotus_core::scenario::StepOutcome {
        lotus_core::scenario::step_rounds(self, self.cfg.warmup + self.cfg.rounds)
    }

    fn report(&self) -> ReputationReport {
        ReputationSim::report(self)
    }
}

impl lotus_core::scenario::Summarize for ReputationReport {
    /// Common vocabulary for the reputation economy, mirroring the scrip
    /// summary so the two satiation currencies compare directly.
    fn summarize(&self) -> lotus_core::scenario::ScenarioReport {
        lotus_core::scenario::ScenarioReport::new(
            "reputation",
            self.rounds,
            self.service_rate,
            self.target_satiation.unwrap_or(0.0),
            self.service_rate > 0.5,
        )
        .with_metric("service_rate", self.service_rate)
        .with_metric("denied_rate", self.denied_rate)
        .with_metric("no_volunteer_rate", self.no_volunteer_rate)
        .with_metric("attacker_cost_per_round", self.attacker_cost_per_round)
        // 0.0 when the attack has no targets, so fraction sweeps that
        // include the no-attack point stay total.
        .with_metric("target_satiation", self.target_satiation.unwrap_or(0.0))
    }
}

impl RoundSim for ReputationSim {
    // lint: hot-loop
    fn round(&mut self, t: Round) {
        debug_assert_eq!(t, self.round, "rounds must be sequential");
        let n = self.reputation.len();
        let measured = self.measured();

        // Decay: old reputation fades.
        for r in self.reputation.iter_mut() {
            *r *= self.cfg.decay;
        }

        // Attack: fake praise tops targets up to their thresholds.
        if matches!(self.attack, ReputationAttack::Inflate { .. }) {
            for i in 0..n {
                if self.targeted[i] && self.reputation[i] < self.cfg.threshold {
                    let need = self.cfg.threshold - self.reputation[i];
                    self.reputation[i] = self.cfg.threshold;
                    if measured {
                        self.injected += need;
                    }
                }
            }
        }
        // Observation 3.1 harness: fed nodes are re-topped after decay.
        if !self.fed.is_empty() {
            let fed = std::mem::take(&mut self.fed);
            for i in fed {
                if self.reputation[i] < self.cfg.threshold {
                    self.reputation[i] = self.cfg.threshold;
                }
            }
        }

        // The round's requests, served one at a time (reputation earned by
        // an early request can satiate a volunteer out of a later one).
        let mut rng = self.rng.fork_idx("round", t);
        for _ in 0..self.cfg.requests_per_round {
            let requester = rng.index(n);
            if measured {
                self.requests += 1;
            }
            if self.reputation[requester] < self.cfg.access_bar {
                if measured {
                    self.denied += 1;
                }
                continue;
            }
            // Same draw order as the old collect-based filter, into the
            // persistent scratch buffer (capacity `n`, so no growth).
            self.volunteer_scratch.clear();
            for i in 0..n {
                if i != requester
                    && rng.chance(self.cfg.availability)
                    && self.reputation[i] < self.cfg.threshold
                {
                    self.volunteer_scratch.push(i);
                }
            }
            if let Some(&p) = rng.choose(&self.volunteer_scratch) {
                self.reputation[p] += 1.0; // service earns reputation
                self.served[p] += 1;
                if measured {
                    self.served_count += 1;
                }
            } else if measured {
                self.no_volunteer += 1;
            }
        }

        // Satiation sampling.
        if measured {
            for i in 0..n {
                if self.targeted[i] {
                    self.target_samples += 1;
                    if self.reputation[i] >= self.cfg.threshold {
                        self.target_satiated += 1;
                    }
                }
            }
        }
        self.round = t + 1;
    }

    fn rounds_run(&self) -> Round {
        self.round
    }
}

impl Satiable for ReputationSim {
    fn node_count(&self) -> u32 {
        self.reputation.len() as u32
    }

    /// Reputation-satiated: banked enough reputation to rest.
    fn is_satiated(&self, node: NodeId) -> bool {
        self.reputation[node.index()] >= self.cfg.threshold
    }

    fn service_provided(&self, node: NodeId) -> u64 {
        self.served[node.index()]
    }
}

impl Feedable for ReputationSim {
    /// Inject enough fake praise to satiate the node now — and keep it
    /// satiated through the coming round's decay ("sufficiently rapidly").
    fn feed_fully(&mut self, node: NodeId) {
        let r = &mut self.reputation[node.index()];
        if *r < self.cfg.threshold {
            *r = self.cfg.threshold;
        }
        self.fed.insert(node.index());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_core::satiation::observation_3_1;
    use lotus_core::scenario::run;

    fn quick_cfg() -> ReputationConfig {
        ReputationConfig {
            agents: 60,
            rounds: 2_000,
            warmup: 200,
            ..ReputationConfig::default()
        }
    }

    #[test]
    fn healthy_reputation_economy_serves() {
        let report = run::<ReputationSim>(quick_cfg(), ReputationAttack::None, 1);
        assert!(report.service_rate > 0.9, "service {}", report.service_rate);
        assert_eq!(report.attacker_cost_per_round, 0.0);
        assert!(report.target_satiation.is_none());
    }

    #[test]
    fn validation_catches_bad_parameters() {
        for (mutate, _name) in [
            (
                Box::new(|c: &mut ReputationConfig| c.agents = 1) as Box<dyn Fn(&mut _)>,
                "agents",
            ),
            (Box::new(|c: &mut ReputationConfig| c.decay = 0.0), "decay"),
            (
                Box::new(|c: &mut ReputationConfig| c.decay = 1.5),
                "decay hi",
            ),
            (
                Box::new(|c: &mut ReputationConfig| c.threshold = 0.0),
                "threshold",
            ),
            (
                Box::new(|c: &mut ReputationConfig| c.availability = -0.1),
                "avail",
            ),
            (Box::new(|c: &mut ReputationConfig| c.rounds = 0), "rounds"),
        ] {
            let mut cfg = quick_cfg();
            mutate(&mut cfg);
            assert!(cfg.validate().is_err());
            assert!(!format!("{}", cfg.validate().unwrap_err()).is_empty());
        }
    }

    #[test]
    fn inflation_attack_satiates_targets_at_linear_cost() {
        let attack = ReputationAttack::Inflate {
            target_fraction: 0.3,
        };
        let report = run::<ReputationSim>(quick_cfg(), attack, 2);
        let sat = report.target_satiation.expect("targets exist");
        assert!(sat > 0.95, "inflation keeps targets satiated: {sat}");
        // Maintenance ≈ k·(1-δ) per target per round: 18 targets × 4 × 0.05
        // (slightly less in practice: targets also earn a little before
        // satiating fully at warm-up's edge).
        let expected = 18.0 * 4.0 * 0.05;
        assert!(
            report.attacker_cost_per_round > expected * 0.5
                && report.attacker_cost_per_round < expected * 1.5,
            "cost {} vs expected ~{expected}",
            report.attacker_cost_per_round
        );
    }

    #[test]
    fn no_hard_cap_unlike_scrip() {
        // Even targeting 90% of agents, reputation inflation succeeds —
        // there is no conserved supply to run out of. (Contrast with the
        // scrip test `money_supply_bounds_satiable_fraction`, where the
        // same coverage is impossible.) The attacker's bill merely grows
        // linearly with the target count.
        let at = |frac| {
            run::<ReputationSim>(
                quick_cfg(),
                ReputationAttack::Inflate {
                    target_fraction: frac,
                },
                3,
            )
        };
        let small = at(0.3);
        let large = at(0.9);
        assert!(
            large.target_satiation.unwrap() > 0.95,
            "no supply wall stops the attacker: {:?}",
            large.target_satiation
        );
        let ratio = large.attacker_cost_per_round / small.attacker_cost_per_round;
        assert!(
            (2.0..4.5).contains(&ratio),
            "cost grows ~linearly in targets (3x targets), got ratio {ratio}"
        );
    }

    #[test]
    fn faster_decay_raises_the_attackers_bill() {
        let attack = ReputationAttack::Inflate {
            target_fraction: 0.3,
        };
        let slow = run::<ReputationSim>(
            ReputationConfig {
                decay: 0.99,
                ..quick_cfg()
            },
            attack,
            4,
        );
        let fast = run::<ReputationSim>(
            ReputationConfig {
                decay: 0.80,
                ..quick_cfg()
            },
            attack,
            4,
        );
        assert!(
            fast.attacker_cost_per_round > slow.attacker_cost_per_round * 2.0,
            "decay is the defense knob: {} vs {}",
            fast.attacker_cost_per_round,
            slow.attacker_cost_per_round
        );
    }

    #[test]
    fn observation_3_1_holds_here_too() {
        let mut sim = ReputationSim::new(quick_cfg(), ReputationAttack::None, 5);
        let report = observation_3_1(&mut sim, NodeId(7), 200);
        assert!(
            report.holds,
            "a reputation-satiated agent never volunteers: {report:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let attack = ReputationAttack::Inflate {
            target_fraction: 0.2,
        };
        let a = run::<ReputationSim>(quick_cfg(), attack, 9);
        let b = run::<ReputationSim>(quick_cfg(), attack, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn reputation_never_negative() {
        let mut sim = ReputationSim::new(quick_cfg(), ReputationAttack::None, 6);
        for t in 0..2_000 {
            sim.round(t);
            for i in 0..60 {
                assert!(sim.reputation(NodeId(i)) >= 0.0);
            }
        }
    }
}
