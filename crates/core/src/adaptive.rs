//! Adaptive bandit attackers: lotus-eaters that *learn* when to defect.
//!
//! PR 3 made attack timing a cross-substrate axis
//! ([`schedule`](crate::schedule)); every schedule there is still
//! *open-loop* — the attacker commits to a phase pattern before the run
//! starts. This module closes the loop the paper leaves open (§2: "By
//! changing who is satiated over time, the attacker could even make the
//! service intermittently unusable for all nodes"): the attacker treats
//! its phase behaviours as **bandit arms** and re-plans each phase from
//! the damage it observes, exactly the template of "Adversarial Attacks
//! on Stochastic Bandits" (Jun et al.) and "Action-Manipulation Attacks
//! Against Stochastic Bandits" (Liu & Lai) — except here the *attacker*
//! is the bandit player and the victim system is the environment.
//!
//! * [`AttackMode`] — the four arms: stay dormant, cooperate while
//!   re-aiming, defect, or defect while rotating the target set;
//! * [`AdaptiveSpec`] — policy + phase length + exploration parameter,
//!   `Copy`, parseable from the `lotus-bench --adaptive` grammar;
//! * [`AdaptivePolicy`] — the deterministic per-run bandit stepper
//!   [`ScheduleState`](crate::schedule::ScheduleState) embeds: epsilon-
//!   greedy or UCB1 arm selection over per-arm
//!   [`Running`] reward statistics, fed from
//!   the same `Option<f64>` metric observations the schedule layer
//!   already consumes;
//! * [`TraceEntry`] — the per-phase arm trace experiments export to show
//!   *which* schedule the bandit converges to per substrate.
//!
//! # Reward model
//!
//! The bandit maximizes observed **damage**: each round the simulator
//! reports the canonical metric the spec names (default
//! `overall_delivery`) and the policy credits `1 − metric` to the arm
//! currently played. An absent observation (`None` — the metric has no
//! measured samples yet) credits nothing, mirroring the metric-trigger
//! convention that unmeasured is *absent*, not zero.
//!
//! # Determinism and hot-loop invariants
//!
//! The policy draws exploration randomness from a **dedicated
//! [`DetRng`] fork** (`rng.fork("adaptive")` in every simulator), so
//! honest-path streams stay bit-identical whether or not an adaptive
//! attacker is configured, and `--adaptive` off reproduces the PR 3
//! golden fixtures exactly. The per-round path
//! ([`AdaptivePolicy::step`]) never allocates; the only allocation is
//! one arm-trace entry per *phase* (amortized by the pre-reserved trace
//! buffer), so simulator round loops stay allocation-free in steady
//! state.

use netsim::metrics::Running;
use netsim::rng::DetRng;
use netsim::Round;

use crate::schedule::MetricKey;

/// One bandit arm: what the attacker's nodes do for a whole phase.
///
/// The arms map exactly onto the two switches the PR 3 timing layer
/// installed in every substrate — the attack-active flag and the
/// target-rotation phase — so an adaptive attacker drives the same
/// cooperate/defect/rotation machinery without any new hot-loop logic:
///
/// | arm | attack active | target window |
/// |-----------------|-----|----------------------------------|
/// | `Dormant`       | off | frozen                           |
/// | `Cooperate`     | off | slides (re-aim while lying low)  |
/// | `Defect`        | on  | frozen                           |
/// | `RotateDefect`  | on  | slides (the §2 rotating striker) |
///
/// Substrates without a target-rotation switch (scrip, bittorrent,
/// token) see `Dormant` ≡ `Cooperate` and `Defect` ≡ `RotateDefect`;
/// the bandit simply learns that those arms tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackMode {
    /// Attack off, target window frozen.
    Dormant,
    /// Attack off, target window slides: run the honest protocol while
    /// re-aiming at a fresh slice of the population.
    Cooperate,
    /// Attack on, fixed targets (the classic lotus-eater).
    Defect,
    /// Attack on, target window slides each phase (intermittent
    /// unusability for everyone).
    RotateDefect,
}

impl AttackMode {
    /// Every arm, in canonical (initialization-sweep) order.
    pub const ALL: [AttackMode; 4] = [
        AttackMode::Dormant,
        AttackMode::Cooperate,
        AttackMode::Defect,
        AttackMode::RotateDefect,
    ];

    /// Canonical index into per-arm arrays.
    pub fn index(self) -> usize {
        match self {
            AttackMode::Dormant => 0,
            AttackMode::Cooperate => 1,
            AttackMode::Defect => 2,
            AttackMode::RotateDefect => 3,
        }
    }

    /// Stable name used by the CLI grammar and the arm-trace JSON.
    pub fn name(self) -> &'static str {
        match self {
            AttackMode::Dormant => "dormant",
            AttackMode::Cooperate => "cooperate",
            AttackMode::Defect => "defect",
            AttackMode::RotateDefect => "rotate",
        }
    }

    /// Parse an arm name (the `fixed-<arm>` policy suffix).
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(name: &str) -> Result<AttackMode, String> {
        AttackMode::ALL
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| format!("unknown arm {name:?} (dormant | cooperate | defect | rotate)"))
    }

    /// Whether the attack is on while this arm is played.
    pub fn is_active(self) -> bool {
        matches!(self, AttackMode::Defect | AttackMode::RotateDefect)
    }

    /// Whether selecting this arm slides the target window by one step.
    pub fn rotates(self) -> bool {
        matches!(self, AttackMode::Cooperate | AttackMode::RotateDefect)
    }
}

impl std::fmt::Display for AttackMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the next arm is chosen at each phase boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Epsilon-greedy: explore a uniform arm with probability `epsilon`,
    /// otherwise exploit the best observed mean damage. Untried arms are
    /// played first, in canonical order. `epsilon = 0` is pure greedy
    /// and draws no randomness at all.
    EpsilonGreedy,
    /// UCB1: maximize `mean + c * sqrt(ln N / n)` over phase-level play
    /// counts, with `c` the spec's exploration parameter (`sqrt(2)` is
    /// the textbook choice; `0` disables the bonus). Untried arms are
    /// played first, in canonical order. Draws no randomness.
    Ucb1,
    /// Always play one arm — the degenerate bandit used to pin
    /// equivalence with static schedules (e.g. `fixed-defect` must
    /// reproduce `--schedule always` bit-identically).
    Fixed(AttackMode),
}

/// A complete adaptive-attacker specification: policy, phase length and
/// exploration parameter. `Copy`, and carried inside
/// [`AttackSchedule`](crate::schedule::AttackSchedule) so every substrate
/// config that already takes a schedule takes an adaptive attacker for
/// free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSpec {
    /// Arm-selection policy.
    pub policy: PolicyKind,
    /// Rounds per phase: the arm is committed for this long before the
    /// bandit re-plans (must be positive).
    pub phase_len: Round,
    /// Exploration parameter: epsilon for
    /// [`PolicyKind::EpsilonGreedy`] (in `[0, 1]`), the confidence
    /// weight `c` for [`PolicyKind::Ucb1`] (non-negative); ignored by
    /// fixed policies.
    pub epsilon: f64,
    /// The canonical metric observed as the reward signal; the arm's
    /// reward each round is `1 − metric` (damage).
    pub metric: MetricKey,
}

impl AdaptiveSpec {
    /// Default phase length (two BAR Gossip update lifetimes — long
    /// enough for a defection to register in the delivery counters).
    pub const DEFAULT_PHASE_LEN: Round = 20;
    /// Default exploration rate for epsilon-greedy.
    pub const DEFAULT_EPSILON: f64 = 0.1;

    /// An epsilon-greedy attacker.
    ///
    /// # Panics
    ///
    /// Panics if `phase_len == 0` or `epsilon` is outside `[0, 1]`.
    pub fn epsilon_greedy(phase_len: Round, epsilon: f64) -> Self {
        assert!(phase_len > 0, "adaptive phase length must be positive");
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0, 1]");
        AdaptiveSpec {
            policy: PolicyKind::EpsilonGreedy,
            phase_len,
            epsilon,
            metric: MetricKey::OverallDelivery,
        }
    }

    /// A UCB1 attacker with exploration weight `c`.
    ///
    /// # Panics
    ///
    /// Panics if `phase_len == 0` or `c < 0`.
    pub fn ucb1(phase_len: Round, c: f64) -> Self {
        assert!(phase_len > 0, "adaptive phase length must be positive");
        assert!(c >= 0.0, "UCB exploration weight must be non-negative");
        AdaptiveSpec {
            policy: PolicyKind::Ucb1,
            phase_len,
            epsilon: c,
            metric: MetricKey::OverallDelivery,
        }
    }

    /// The degenerate always-`arm` policy.
    ///
    /// # Panics
    ///
    /// Panics if `phase_len == 0`.
    pub fn fixed(arm: AttackMode, phase_len: Round) -> Self {
        assert!(phase_len > 0, "adaptive phase length must be positive");
        AdaptiveSpec {
            policy: PolicyKind::Fixed(arm),
            phase_len,
            epsilon: 0.0,
            metric: MetricKey::OverallDelivery,
        }
    }

    /// Observe `metric` as the reward signal instead of
    /// `overall_delivery` (builder style).
    pub fn with_metric(mut self, metric: MetricKey) -> Self {
        self.metric = metric;
        self
    }

    /// Whether this policy can ever play a window-sliding arm — i.e.
    /// whether the embedding schedule needs a rotation period at all.
    pub fn can_rotate(&self) -> bool {
        match self.policy {
            PolicyKind::EpsilonGreedy | PolicyKind::Ucb1 => true,
            PolicyKind::Fixed(arm) => arm.rotates(),
        }
    }

    /// Whether the policy learns from observations (fixed policies do
    /// not, so they require no per-round metric computation).
    pub fn needs_observation(&self) -> bool {
        !matches!(self.policy, PolicyKind::Fixed(_))
    }

    /// Parse the `lotus-bench --adaptive` grammar:
    ///
    /// ```text
    /// <policy>,<phase-len>,<epsilon>[,<metric>]
    /// ```
    ///
    /// with `:` accepted wherever `,` is (so the spec survives the
    /// comma-splitting `--curve` grammar as `adaptive=ucb:20:1.4`), and
    ///
    /// * `policy` — `epsilon-greedy` | `ucb` | `fixed-dormant` |
    ///   `fixed-cooperate` | `fixed-defect` | `fixed-rotate`;
    /// * `phase-len` — positive integer rounds per phase;
    /// * `epsilon` — exploration rate (epsilon-greedy, in `[0, 1]`) or
    ///   confidence weight (ucb, `>= 0`); must be given, even for fixed
    ///   policies (where it is ignored — keep `0`);
    /// * `metric` — optional reward observation, `delivery` (default) or
    ///   `targeted`.
    ///
    /// ```
    /// use lotus_core::adaptive::{AdaptiveSpec, AttackMode, PolicyKind};
    /// let spec = AdaptiveSpec::parse("epsilon-greedy,20,0.1").unwrap();
    /// assert_eq!(spec.policy, PolicyKind::EpsilonGreedy);
    /// assert_eq!(spec.phase_len, 20);
    /// let fixed = AdaptiveSpec::parse("fixed-defect:10:0").unwrap();
    /// assert_eq!(fixed.policy, PolicyKind::Fixed(AttackMode::Defect));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn parse(spec: &str) -> Result<AdaptiveSpec, String> {
        let mut parts = spec.split([',', ':']).map(str::trim);
        let policy = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| format!("adaptive {spec:?}: missing policy"))?;
        let phase_len = parts
            .next()
            .ok_or_else(|| format!("adaptive {spec:?}: missing phase length"))?
            .parse::<Round>()
            .map_err(|_| format!("adaptive {spec:?}: phase length is not an integer"))?;
        if phase_len == 0 {
            return Err(format!("adaptive {spec:?}: phase length must be positive"));
        }
        let epsilon = parts
            .next()
            .ok_or_else(|| format!("adaptive {spec:?}: missing exploration parameter"))?
            .parse::<f64>()
            .map_err(|_| format!("adaptive {spec:?}: exploration parameter is not a number"))?;
        let metric = match parts.next() {
            None | Some("delivery") => MetricKey::OverallDelivery,
            Some("targeted") => MetricKey::TargetedService,
            Some(other) => {
                return Err(format!(
                    "adaptive {spec:?}: unknown reward metric {other:?} (delivery | targeted)"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("adaptive {spec:?}: trailing fields"));
        }
        let parsed = match policy {
            "epsilon-greedy" => {
                if !(0.0..=1.0).contains(&epsilon) {
                    return Err(format!("adaptive {spec:?}: epsilon outside [0, 1]"));
                }
                AdaptiveSpec::epsilon_greedy(phase_len, epsilon)
            }
            "ucb" => {
                if epsilon < 0.0 {
                    return Err(format!(
                        "adaptive {spec:?}: UCB exploration weight must be non-negative"
                    ));
                }
                AdaptiveSpec::ucb1(phase_len, epsilon)
            }
            fixed if fixed.starts_with("fixed-") => {
                let arm = AttackMode::parse(&fixed["fixed-".len()..])
                    .map_err(|e| format!("adaptive {spec:?}: {e}"))?;
                AdaptiveSpec::fixed(arm, phase_len)
            }
            other => {
                return Err(format!(
                    "unknown adaptive policy {other:?} (epsilon-greedy | ucb | fixed-<arm>)"
                ))
            }
        };
        Ok(parsed.with_metric(metric))
    }
}

/// One completed-or-in-flight phase of the arm trace: which arm the
/// bandit played and what damage it observed while playing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Phase index (`round / phase_len`).
    pub phase: u64,
    /// The arm played for this phase.
    pub arm: AttackMode,
    /// Rounds of this phase that produced a reward observation.
    pub observations: u64,
    /// Mean observed damage (`1 − metric`) over those rounds.
    pub mean_damage: f64,
}

impl TraceEntry {
    fn observe(&mut self, damage: f64) {
        self.observations += 1;
        self.mean_damage += (damage - self.mean_damage) / self.observations as f64;
    }
}

/// Render an arm trace as a JSON array (stable keys, no dependencies) —
/// the payload behind `lotus-bench --arm-trace`.
pub fn trace_to_json(trace: &[TraceEntry]) -> String {
    use std::fmt::Write;
    let mut out = String::from("[");
    for (i, e) in trace.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"phase\":{},\"arm\":\"{}\",\"observations\":{},\"mean_damage\":{}}}",
            e.phase,
            e.arm.name(),
            e.observations,
            crate::scenario::json_number(e.mean_damage)
        );
    }
    out.push(']');
    out
}

/// The deterministic per-run bandit stepper.
///
/// Embedded by [`ScheduleState`](crate::schedule::ScheduleState); one
/// [`AdaptivePolicy::step`] call per round credits the current arm with
/// the round's observed damage and, at phase boundaries, selects the
/// next arm. Cloning a policy clones its learning state exactly
/// (replay-safe), and two runs with the same `(spec, rng, observation
/// stream)` produce identical arm traces.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePolicy {
    spec: AdaptiveSpec,
    rng: DetRng,
    /// Per-arm reward statistics (canonical arm order), fed per round.
    arms: [Running; 4],
    /// Per-arm phase-level play counts (the UCB1 `n_i`).
    plays: [u64; 4],
    /// The arm currently committed (meaningless before the first phase).
    current: AttackMode,
    /// Whether the first phase has started.
    started: bool,
    /// How often a window-sliding arm has been selected: the rotation
    /// phase fed to
    /// [`rotating_window`](crate::schedule::rotating_window).
    rotation_phase: u64,
    trace: Vec<TraceEntry>,
}

impl AdaptivePolicy {
    /// Build a policy from its spec and a dedicated rng fork.
    pub fn new(spec: AdaptiveSpec, rng: DetRng) -> Self {
        AdaptivePolicy {
            spec,
            rng,
            arms: [Running::new(); 4],
            plays: [0; 4],
            current: AttackMode::Dormant,
            started: false,
            rotation_phase: 0,
            // One entry per phase: pre-reserve a typical run's worth so
            // steady-state pushes rarely reallocate.
            trace: Vec::with_capacity(32),
        }
    }

    /// The specification in force.
    pub fn spec(&self) -> &AdaptiveSpec {
        &self.spec
    }

    /// The arm committed for the current phase.
    pub fn current_arm(&self) -> AttackMode {
        self.current
    }

    /// The per-phase arm trace so far (last entry is the in-flight
    /// phase).
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Current rotation phase (how often a sliding arm has been played).
    pub fn rotation_phase(&self) -> u64 {
        self.rotation_phase
    }

    /// Advance one round: credit the arm played *up to* round `t` with
    /// the damage observed at the top of round `t` (the observation
    /// reflects the state the previous rounds produced), then — on a
    /// phase boundary — select the arm for the phase starting at `t`.
    /// Returns whether the attack is on for round `t`. Never allocates
    /// except the one trace entry per phase boundary.
    pub fn step(&mut self, t: Round, observed: Option<f64>) -> bool {
        if self.started {
            if let Some(obs) = observed {
                let damage = 1.0 - obs;
                self.arms[self.current.index()].push(damage);
                if let Some(entry) = self.trace.last_mut() {
                    entry.observe(damage);
                }
            }
        }
        if t.is_multiple_of(self.spec.phase_len) {
            self.select_arm();
            self.started = true;
            let phase = t / self.spec.phase_len;
            if phase > 0 && self.current.rotates() {
                self.rotation_phase += 1;
            }
            self.trace.push(TraceEntry {
                phase,
                arm: self.current,
                observations: 0,
                mean_damage: 0.0,
            });
        }
        self.current.is_active()
    }

    /// Pick the arm for the next phase and bump its play count.
    fn select_arm(&mut self) {
        let chosen = match self.spec.policy {
            PolicyKind::Fixed(arm) => arm,
            PolicyKind::EpsilonGreedy => {
                if let Some(untried) = self.first_untried() {
                    untried
                } else if self.spec.epsilon > 0.0 && self.rng.chance(self.spec.epsilon) {
                    AttackMode::ALL[self.rng.range(4) as usize]
                } else {
                    self.best_mean_arm()
                }
            }
            PolicyKind::Ucb1 => {
                if let Some(untried) = self.first_untried() {
                    untried
                } else {
                    let total: u64 = self.plays.iter().sum();
                    let ln_total = (total as f64).ln();
                    let mut best = AttackMode::Dormant;
                    let mut best_score = f64::NEG_INFINITY;
                    for arm in AttackMode::ALL {
                        let i = arm.index();
                        let bonus = self.spec.epsilon * (ln_total / self.plays[i] as f64).sqrt();
                        let score = self.arms[i].mean() + bonus;
                        if score > best_score {
                            best = arm;
                            best_score = score;
                        }
                    }
                    best
                }
            }
        };
        self.plays[chosen.index()] += 1;
        self.current = chosen;
    }

    /// The first never-played arm in canonical order (the deterministic
    /// initialization sweep both learning policies share).
    fn first_untried(&self) -> Option<AttackMode> {
        AttackMode::ALL
            .into_iter()
            .find(|a| self.plays[a.index()] == 0)
    }

    /// The arm with the best observed mean damage (ties break toward the
    /// canonical order).
    fn best_mean_arm(&self) -> AttackMode {
        let mut best = AttackMode::Dormant;
        let mut best_mean = f64::NEG_INFINITY;
        for arm in AttackMode::ALL {
            let mean = self.arms[arm.index()].mean();
            if mean > best_mean {
                best = arm;
                best_mean = mean;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::seed_from(42).fork("adaptive")
    }

    #[test]
    fn arm_names_round_trip() {
        for arm in AttackMode::ALL {
            assert_eq!(AttackMode::parse(arm.name()).unwrap(), arm);
            assert_eq!(format!("{arm}"), arm.name());
        }
        assert!(AttackMode::parse("bogus").is_err());
        assert_eq!(AttackMode::Defect.index(), 2);
    }

    #[test]
    fn arm_switches_match_the_table() {
        assert!(!AttackMode::Dormant.is_active());
        assert!(!AttackMode::Cooperate.is_active());
        assert!(AttackMode::Defect.is_active());
        assert!(AttackMode::RotateDefect.is_active());
        assert!(!AttackMode::Dormant.rotates());
        assert!(AttackMode::Cooperate.rotates());
        assert!(!AttackMode::Defect.rotates());
        assert!(AttackMode::RotateDefect.rotates());
    }

    #[test]
    fn parse_round_trips_the_grammar() {
        let spec = AdaptiveSpec::parse("epsilon-greedy,40,0.25").unwrap();
        assert_eq!(spec, AdaptiveSpec::epsilon_greedy(40, 0.25));
        let spec = AdaptiveSpec::parse("ucb:15:1.4").unwrap();
        assert_eq!(spec, AdaptiveSpec::ucb1(15, 1.4));
        let spec = AdaptiveSpec::parse("fixed-rotate,8,0").unwrap();
        assert_eq!(spec, AdaptiveSpec::fixed(AttackMode::RotateDefect, 8));
        let spec = AdaptiveSpec::parse("epsilon-greedy,20,0.1,targeted").unwrap();
        assert_eq!(spec.metric, MetricKey::TargetedService);
        assert!(spec.needs_observation());
        assert!(!AdaptiveSpec::parse("fixed-defect,20,0")
            .unwrap()
            .needs_observation());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "epsilon-greedy",
            "epsilon-greedy,20",
            "epsilon-greedy,0,0.1",
            "epsilon-greedy,20,1.5",
            "epsilon-greedy,x,0.1",
            "ucb,20,-1",
            "fixed-bogus,20,0",
            "softmax,20,0.1",
            "epsilon-greedy,20,0.1,damage",
            "epsilon-greedy,20,0.1,delivery,extra",
        ] {
            assert!(AdaptiveSpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rotation_capability_tracks_policy() {
        assert!(AdaptiveSpec::epsilon_greedy(20, 0.1).can_rotate());
        assert!(AdaptiveSpec::ucb1(20, 1.0).can_rotate());
        assert!(AdaptiveSpec::fixed(AttackMode::RotateDefect, 20).can_rotate());
        assert!(AdaptiveSpec::fixed(AttackMode::Cooperate, 20).can_rotate());
        assert!(!AdaptiveSpec::fixed(AttackMode::Defect, 20).can_rotate());
        assert!(!AdaptiveSpec::fixed(AttackMode::Dormant, 20).can_rotate());
    }

    #[test]
    fn fixed_policy_is_the_degenerate_bandit() {
        let mut p = AdaptivePolicy::new(AdaptiveSpec::fixed(AttackMode::Defect, 5), rng());
        for t in 0..20 {
            assert!(p.step(t, None), "fixed-defect is always on");
        }
        assert_eq!(p.trace().len(), 4, "one entry per phase");
        assert!(p.trace().iter().all(|e| e.arm == AttackMode::Defect));
        assert_eq!(p.rotation_phase(), 0, "defect never slides the window");
    }

    #[test]
    fn learning_policies_sweep_every_arm_first() {
        for spec in [
            AdaptiveSpec::epsilon_greedy(2, 0.0),
            AdaptiveSpec::ucb1(2, 1.0),
        ] {
            let mut p = AdaptivePolicy::new(spec, rng());
            for t in 0..8 {
                p.step(t, Some(0.5));
            }
            let arms: Vec<AttackMode> = p.trace().iter().map(|e| e.arm).collect();
            assert_eq!(
                arms,
                AttackMode::ALL.to_vec(),
                "first four phases are the canonical initialization sweep"
            );
        }
    }

    #[test]
    fn greedy_converges_to_the_most_damaging_arm() {
        // Simulated environment: defecting depresses delivery to 0.2
        // (damage 0.8), rotating wastes part of the strike (0.5), lying
        // low keeps the system healthy (0.95). After the initialization
        // sweep a zero-epsilon greedy policy must lock onto defect.
        let mut p = AdaptivePolicy::new(AdaptiveSpec::epsilon_greedy(3, 0.0), rng());
        let mut delivery = 0.95;
        for t in 0..60 {
            let active = p.step(t, Some(delivery));
            delivery = if active {
                if p.current_arm() == AttackMode::Defect {
                    0.2
                } else {
                    0.5
                }
            } else {
                0.95
            };
        }
        let last = p.trace().last().unwrap();
        assert_eq!(
            last.arm,
            AttackMode::Defect,
            "greedy must converge to the highest-damage arm; trace: {:?}",
            p.trace()
                .iter()
                .map(|e| (e.phase, e.arm.name()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn ucb_keeps_exploring_with_a_large_bonus() {
        // A huge exploration weight forces UCB to keep cycling arms
        // regardless of their means.
        let mut p = AdaptivePolicy::new(AdaptiveSpec::ucb1(1, 1e6), rng());
        for t in 0..40 {
            p.step(t, Some(0.5));
        }
        for arm in AttackMode::ALL {
            let played = p.trace().iter().filter(|e| e.arm == arm).count();
            assert!(
                played >= 8,
                "arm {arm} played only {played} of 40 phases under a huge bonus"
            );
        }
    }

    #[test]
    fn rotation_counter_advances_only_on_sliding_arms() {
        let mut p = AdaptivePolicy::new(AdaptiveSpec::fixed(AttackMode::RotateDefect, 4), rng());
        for t in 0..16 {
            assert!(p.step(t, None));
        }
        // Phase 0 starts at window 0; each later phase slides once.
        assert_eq!(p.rotation_phase(), 3);
    }

    #[test]
    fn replays_are_bit_identical() {
        let drive = || {
            let mut p = AdaptivePolicy::new(AdaptiveSpec::epsilon_greedy(3, 0.5), rng());
            let mut active_pattern = Vec::new();
            let mut delivery = 0.9;
            for t in 0..45 {
                let active = p.step(t, Some(delivery));
                active_pattern.push(active);
                delivery = if active { 0.4 } else { 0.9 };
            }
            (active_pattern, p.trace().to_vec())
        };
        let (a1, t1) = drive();
        let (a2, t2) = drive();
        assert_eq!(a1, a2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn none_observations_credit_nothing() {
        let mut p = AdaptivePolicy::new(AdaptiveSpec::epsilon_greedy(5, 0.0), rng());
        for t in 0..10 {
            p.step(t, None);
        }
        assert!(p.trace().iter().all(|e| e.observations == 0));
        assert!(p.arms.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn trace_json_is_stable() {
        let trace = [
            TraceEntry {
                phase: 0,
                arm: AttackMode::Defect,
                observations: 5,
                mean_damage: 0.25,
            },
            TraceEntry {
                phase: 1,
                arm: AttackMode::Cooperate,
                observations: 0,
                mean_damage: 0.0,
            },
        ];
        assert_eq!(
            trace_to_json(&trace),
            "[{\"phase\":0,\"arm\":\"defect\",\"observations\":5,\"mean_damage\":0.25},\
             {\"phase\":1,\"arm\":\"cooperate\",\"observations\":0,\"mean_damage\":0}]"
        );
    }
}
