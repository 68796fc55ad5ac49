//! The scenario registry: every substrate, every attack, one driving API.
//!
//! A [`ScenarioSpec`] describes one registered scenario — its attacks,
//! tunable parameters, sweepable knobs and report metrics — plus a
//! `build` factory that constructs the substrate through the unified
//! [`Scenario`](lotus_core::scenario::Scenario) API as an unstarted
//! [`DynScenario`]. [`ScenarioRegistry::run`] drives the factory to
//! completion and returns the common-vocabulary [`ScenarioReport`];
//! the `--bench` timing mode steps the same factory under a timer. The
//! [`ScenarioRegistry`] is the name → spec map behind the `lotus-bench`
//! CLI and every paper-artifact preset; experiment logic lives here
//! exactly once.
//!
//! ```
//! use lotus_bench::registry::{Params, RunRequest, ScenarioRegistry};
//!
//! let reg = ScenarioRegistry::standard();
//! let report = reg
//!     .run("token", &RunRequest::new(0.5, 1, "random-fraction", "fraction", &Params::new()))
//!     .expect("token scenario runs");
//! assert_eq!(report.scenario, "token");
//! ```

use std::collections::BTreeMap;

use bar_gossip::scrip_gossip::{ScripGossipConfig, ScripGossipSim};
use bar_gossip::{AttackPlan, BarGossipConfig, BarGossipSim, DigestExchangeConfig, ReportConfig};
use lotus_core::adaptive::{AdaptiveSpec, AttackMode, PolicyKind};
use lotus_core::attack::{SatiateCut, TokenAttack};
use lotus_core::faults::FaultPlan;
use lotus_core::population::{ArrivalProcess, ChurnProfile, ChurnSpec};
use lotus_core::scenario::{boxed, DynScenario, ScenarioReport};
use lotus_core::schedule::AttackSchedule;
use lotus_core::token::{
    Allocation, SatFunction, TokenScenarioConfig, TokenSystem, TokenSystemConfig,
};
use netsim::graph::Graph;
use netsim::rng::DetRng;
use netsim::NodeId;
use scrip_economy::reputation::{ReputationAttack, ReputationConfig, ReputationSim};
use scrip_economy::{ScripAttack, ScripConfig, ScripSim};
use torrent_sim::{PiecePolicy, SwarmAttack, SwarmConfig, SwarmSim, TargetPolicy};

/// String-typed scenario parameters (CLI `--param key=value` pairs),
/// with typed accessors. Values are kept raw so one map serves numeric,
/// boolean and keyword parameters alike.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Params(BTreeMap<String, String>);

impl Params {
    /// An empty parameter set.
    pub fn new() -> Self {
        Params::default()
    }

    /// Set (or replace) a parameter.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.0.insert(key.into(), value.into());
    }

    /// Builder-style [`Params::set`].
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.set(key, value);
        self
    }

    /// Overlay `other` on top of `self` (curve params over global params).
    pub fn merged_with(&self, other: &Params) -> Params {
        let mut out = self.clone();
        for (k, v) in &other.0 {
            out.0.insert(k.clone(), v.clone());
        }
        out
    }

    /// Raw string value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// Parameter names present.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// Numeric value, if present.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse as a number.
    pub fn num(&self, key: &str) -> Result<Option<f64>, String> {
        match self.0.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<f64>()
                .map(Some)
                .map_err(|_| format!("parameter {key}={v} is not a number")),
        }
    }

    /// Boolean value (`1`/`true`/`yes` vs `0`/`false`/`no`), if present.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is not a recognised boolean.
    pub fn flag(&self, key: &str) -> Result<Option<bool>, String> {
        match self.0.get(key).map(String::as_str) {
            None => Ok(None),
            Some("1" | "true" | "yes" | "on") => Ok(Some(true)),
            Some("0" | "false" | "no" | "off") => Ok(Some(false)),
            Some(v) => Err(format!("parameter {key}={v} is not a boolean")),
        }
    }
}

/// One `(x, seed)` evaluation request against a registered scenario.
#[derive(Debug, Clone)]
pub struct RunRequest<'a> {
    /// The current x-axis value.
    pub x: f64,
    /// The replication seed.
    pub seed: u64,
    /// Attack name (one of the spec's `attacks`).
    pub attack: &'a str,
    /// The knob `x` drives: `"fraction"` (attack intensity, the default)
    /// or any parameter name the spec lists under `sweeps`.
    pub sweep: &'a str,
    /// Scenario parameters.
    pub params: &'a Params,
}

impl<'a> RunRequest<'a> {
    /// Convenience constructor.
    pub fn new(x: f64, seed: u64, attack: &'a str, sweep: &'a str, params: &'a Params) -> Self {
        RunRequest {
            x,
            seed,
            attack,
            sweep,
            params,
        }
    }

    /// Numeric parameter with sweep override: when `--sweep key` is
    /// active the x value wins over any `--param key=...`.
    fn num(&self, key: &str, default: f64) -> Result<f64, String> {
        if self.sweep == key {
            return Ok(self.x);
        }
        Ok(self.params.num(key)?.unwrap_or(default))
    }

    /// Like [`RunRequest::num`] but without a default.
    fn opt_num(&self, key: &str) -> Result<Option<f64>, String> {
        if self.sweep == key {
            return Ok(Some(self.x));
        }
        self.params.num(key)
    }

    /// A probability parameter (sweep override as in [`RunRequest::num`]),
    /// rejected outside `[0, 1]` — NaN included — rather than clamped.
    fn unit(&self, key: &str) -> Result<Option<f64>, String> {
        match self.opt_num(key)? {
            Some(p) if !(0.0..=1.0).contains(&p) => {
                Err(format!("parameter {key}={p} outside [0, 1]"))
            }
            p => Ok(p),
        }
    }

    /// A count parameter (sweep override as in [`RunRequest::num`]),
    /// rejected unless it is a whole number in `u32` range rather than
    /// truncated or saturated.
    fn whole(&self, key: &str) -> Result<Option<u32>, String> {
        match self.opt_num(key)? {
            Some(v) if !(0.0..=f64::from(u32::MAX)).contains(&v) || v.fract() != 0.0 => {
                Err(format!("parameter {key}={v} is not a whole number"))
            }
            v => Ok(v.map(|v| v as u32)),
        }
    }

    /// The attack intensity: `x` under the default fraction sweep,
    /// otherwise the `fraction` parameter (so a parameter sweep can hold
    /// the attack fixed, e.g. "trade attack at 30 %").
    fn fraction(&self, default: f64) -> Result<f64, String> {
        if self.sweep == "fraction" {
            Ok(self.x)
        } else {
            Ok(self.params.num("fraction")?.unwrap_or(default))
        }
    }
}

/// A registered scenario: documentation plus the driving function.
pub struct ScenarioSpec {
    /// Registry name (`--scenario` value).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// `(name, doc)` for every supported attack.
    pub attacks: &'static [(&'static str, &'static str)],
    /// `(name, doc)` for every supported parameter.
    pub params: &'static [(&'static str, &'static str)],
    /// Parameter names that `--sweep` may drive (besides `"fraction"`).
    pub sweeps: &'static [&'static str],
    /// Metric names the summary exposes (beyond the canonical four).
    pub metrics: &'static [&'static str],
    /// Default y-axis metric.
    pub default_metric: &'static str,
    /// Build one `(x, seed)` evaluation as an *unstarted* scenario. The
    /// sweep path ([`ScenarioRegistry::run`]) drives it to completion;
    /// the `--bench` timing mode steps the very same factory under a
    /// timer — one grammar, no hand-wired loops.
    pub build: fn(&RunRequest<'_>) -> Result<Box<dyn DynScenario>, String>,
    /// Small-config parameter overrides for the `--bench` timing mode
    /// (sized so a single run finishes in milliseconds; explicit
    /// `--param`s override them).
    pub bench_params: &'static [(&'static str, &'static str)],
}

impl ScenarioSpec {
    /// Whether `name` is a registered attack of this scenario.
    pub fn has_attack(&self, name: &str) -> bool {
        self.attacks.iter().any(|(a, _)| *a == name)
    }

    /// Whether `knob` may be swept (`"fraction"` always may).
    pub fn has_sweep(&self, knob: &str) -> bool {
        knob == "fraction" || self.sweeps.contains(&knob)
    }

    /// Whether `name` is a registered parameter.
    pub fn has_param(&self, name: &str) -> bool {
        self.params.iter().any(|(p, _)| *p == name)
    }
}

/// The name → [`ScenarioSpec`] map.
pub struct ScenarioRegistry {
    specs: Vec<ScenarioSpec>,
}

impl ScenarioRegistry {
    /// The standard registry: every substrate in the workspace.
    pub fn standard() -> Self {
        ScenarioRegistry {
            specs: vec![
                bar_gossip_spec(),
                bar_gossip_digest_spec(),
                bar_gossip_1m_spec(),
                scrip_spec(),
                bittorrent_spec(),
                token_spec(),
                scrip_gossip_spec(),
                reputation_spec(),
            ],
        }
    }

    /// Look a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// All registered scenarios, in registration order.
    pub fn specs(&self) -> &[ScenarioSpec] {
        &self.specs
    }

    /// Run one evaluation against a named scenario: build through the
    /// spec's factory, step to completion, summarize. When the run was
    /// driven by a *learning* adaptive bandit, the summary additionally
    /// carries the `adaptive_*` convergence metrics derived from the arm
    /// trace (degenerate `fixed-<arm>` policies attach nothing, so their
    /// reports stay byte-identical to the equivalent static schedule's).
    ///
    /// # Errors
    ///
    /// Unknown scenario/attack names, unknown or malformed parameters,
    /// and invalid substrate configurations all surface as messages.
    pub fn run(&self, scenario: &str, req: &RunRequest<'_>) -> Result<ScenarioReport, String> {
        let mut built = self.build(scenario, req)?;
        let mut report = built.finish();
        let learning = matches!(
            parse_adaptive(req),
            Ok(Some(spec)) if spec.needs_observation()
        );
        if learning {
            if let Some(trace) = built.arm_trace_dyn() {
                attach_adaptive_metrics(&mut report, trace);
            }
        }
        Ok(report)
    }

    /// Build one evaluation as an unstarted scenario (the timing bench's
    /// entry point), with the same name/attack/parameter validation as
    /// [`ScenarioRegistry::run`].
    ///
    /// # Errors
    ///
    /// As for [`ScenarioRegistry::run`].
    pub fn build(
        &self,
        scenario: &str,
        req: &RunRequest<'_>,
    ) -> Result<Box<dyn DynScenario>, String> {
        let spec = self.get(scenario).ok_or_else(|| {
            let known: Vec<&str> = self.specs.iter().map(|s| s.name).collect();
            format!("unknown scenario {scenario:?}; known: {}", known.join(", "))
        })?;
        if !spec.has_attack(req.attack) {
            let known: Vec<&str> = spec.attacks.iter().map(|(a, _)| *a).collect();
            return Err(format!(
                "scenario {scenario:?} has no attack {:?}; known: {}",
                req.attack,
                known.join(", ")
            ));
        }
        if !spec.has_sweep(req.sweep) {
            return Err(format!(
                "scenario {scenario:?} cannot sweep {:?}; sweepable: fraction, {}",
                req.sweep,
                spec.sweeps.join(", ")
            ));
        }
        for key in req.params.keys() {
            if !spec.has_param(key) {
                let known: Vec<&str> = spec.params.iter().map(|(p, _)| *p).collect();
                return Err(format!(
                    "scenario {scenario:?} has no parameter {key:?}; known: {}",
                    known.join(", ")
                ));
            }
        }
        (spec.build)(req)
    }
}

/// Shared parameter documentation for the cross-substrate schedule/churn
/// axes (every schedulable scenario lists these).
const SCHEDULE_PARAM_DOC: (&str, &str) = (
    "schedule",
    "attack timing: always | at:<r> | window:<a>:<b> | periodic:<p>:<a> | \
     delivery-above:<x> | delivery-below:<x> | targeted-above:<x> | targeted-below:<x> | \
     presence-above:<x> | presence-below:<x>",
);
const CHURN_LEAVE_DOC: (&str, &str) = (
    "churn_leave",
    "per-round probability a node goes offline (0 = closed population)",
);
const CHURN_REJOIN_DOC: (&str, &str) = (
    "churn_rejoin",
    "per-round probability an offline node returns (default 0.25)",
);
const CHURN_PROFILE_DOC: (&str, &str) = (
    "churn_profile",
    "heterogeneous churn cohorts: none | uniform:<leave>[:<rejoin>] | \
     <w>:<leave>:<rejoin>[/...] (up to 4 weighted classes; replaces \
     churn_leave/churn_rejoin)",
);
const ARRIVAL_DOC: (&str, &str) = (
    "arrival",
    "flash-crowd arrivals: none | burst:<round>:<size>[:<period>] | \
     ramp:<start>:<size>[:<rate>] (held-back nodes enter with empty state)",
);
const ARRIVAL_SIZE_DOC: (&str, &str) = (
    "arrival_size",
    "override (or sweep) the flash-crowd size of the configured arrival process",
);
const FAULTS_PARAM_DOC: (&str, &str) = (
    "faults",
    "fault plan: loss:<p> | dup:<p> | delay:<p> | crash:<p>:<recover> | \
     partition:<start>:<len>:<frac>, combined with '/' (default: none)",
);
const FAULT_LOSS_DOC: (&str, &str) = (
    "fault_loss",
    "override (or sweep) the message-loss rate of the fault plan",
);

const ADAPTIVE_PARAM_DOC: (&str, &str) = (
    "adaptive",
    "bandit attacker re-planning each phase from observed damage: \
     <policy>,<phase-len>,<epsilon>[,<metric>] with policy epsilon-greedy | ucb | \
     fixed-<dormant|cooperate|defect|rotate> (replaces the open-loop schedule)",
);
const ADAPTIVE_EPSILON_DOC: (&str, &str) = (
    "adaptive_epsilon",
    "override the adaptive exploration parameter (epsilon / UCB weight)",
);
const ADAPTIVE_PHASE_DOC: (&str, &str) = (
    "adaptive_phase",
    "override the adaptive phase length in rounds",
);

/// The `adaptive_*` convergence metrics every scenario report gains when
/// a bandit drove the run.
pub const ADAPTIVE_METRICS: &[&str] = &[
    "adaptive_phases",
    "adaptive_active_share",
    "adaptive_dormant_share",
    "adaptive_cooperate_share",
    "adaptive_defect_share",
    "adaptive_rotate_share",
    "adaptive_final_arm",
];

/// Parse the `faults` / `fault_loss` parameters into a fault plan. The
/// sweepable `fault_loss` override lets X19 drive the loss rate through
/// x while the rest of the plan (crashes, partitions) stays fixed.
fn parse_faults(req: &RunRequest<'_>) -> Result<FaultPlan, String> {
    let mut plan = match req.params.get("faults") {
        Some(spec) => FaultPlan::parse(spec)?,
        None => FaultPlan::none(),
    };
    if let Some(loss) = req.opt_num("fault_loss")? {
        if !(0.0..=1.0).contains(&loss) {
            return Err(format!("parameter fault_loss={loss} outside [0, 1]"));
        }
        plan = plan.with_loss(loss);
    }
    Ok(plan)
}

/// Parse the `schedule` parameter (default: always-on).
fn parse_schedule(req: &RunRequest<'_>) -> Result<AttackSchedule, String> {
    match req.params.get("schedule") {
        None => Ok(AttackSchedule::always()),
        Some(spec) => AttackSchedule::parse(spec),
    }
}

/// Parse the `adaptive` / `adaptive_phase` / `adaptive_epsilon`
/// parameters into a bandit spec. The numeric overrides are sweepable
/// (`--sweep adaptive_epsilon` drives x through them) and imply the
/// default epsilon-greedy policy when `adaptive` itself is absent.
fn parse_adaptive(req: &RunRequest<'_>) -> Result<Option<AdaptiveSpec>, String> {
    let base = match req.params.get("adaptive") {
        Some(spec) => Some(AdaptiveSpec::parse(spec)?),
        None => None,
    };
    let phase = req.opt_num("adaptive_phase")?;
    let epsilon = req.opt_num("adaptive_epsilon")?;
    let mut spec = match (base, phase, epsilon) {
        (None, None, None) => return Ok(None),
        (Some(s), _, _) => s,
        (None, _, _) => AdaptiveSpec::epsilon_greedy(
            AdaptiveSpec::DEFAULT_PHASE_LEN,
            AdaptiveSpec::DEFAULT_EPSILON,
        ),
    };
    if let Some(p) = phase {
        if p < 1.0 || p.fract() != 0.0 {
            return Err(format!(
                "parameter adaptive_phase={p} is not a positive round count"
            ));
        }
        spec.phase_len = p as u64;
    }
    if let Some(e) = epsilon {
        let valid = match spec.policy {
            PolicyKind::EpsilonGreedy => (0.0..=1.0).contains(&e),
            PolicyKind::Ucb1 => e >= 0.0,
            PolicyKind::Fixed(_) => true, // ignored, but keep it sane
        };
        if !valid {
            return Err(format!(
                "parameter adaptive_epsilon={e} out of range for the {:?} policy",
                spec.policy
            ));
        }
        spec.epsilon = e;
    }
    Ok(Some(spec))
}

/// Resolve the full attack-timing axis: the open-loop `schedule`
/// parameter plus the closed-loop `adaptive` family. The two are
/// mutually exclusive (the bandit owns the activity switch).
fn parse_timing(req: &RunRequest<'_>) -> Result<AttackSchedule, String> {
    let schedule = parse_schedule(req)?;
    match parse_adaptive(req)? {
        None => Ok(schedule),
        Some(adaptive) => {
            if !schedule.is_always() {
                return Err(
                    "adaptive attackers replace the schedule: drop --schedule (or keep it \
                     'always') when passing --adaptive"
                        .to_string(),
                );
            }
            Ok(schedule.with_adaptive(adaptive))
        }
    }
}

/// Attach the arm-trace convergence metrics to an adaptive run's report
/// (see [`ADAPTIVE_METRICS`]).
fn attach_adaptive_metrics(
    report: &mut ScenarioReport,
    trace: &[lotus_core::adaptive::TraceEntry],
) {
    let phases = trace.len();
    report.set_metric("adaptive_phases", phases as f64);
    if phases == 0 {
        return;
    }
    let share =
        |arm: AttackMode| trace.iter().filter(|e| e.arm == arm).count() as f64 / phases as f64;
    report.set_metric(
        "adaptive_active_share",
        trace.iter().filter(|e| e.arm.is_active()).count() as f64 / phases as f64,
    );
    report.set_metric("adaptive_dormant_share", share(AttackMode::Dormant));
    report.set_metric("adaptive_cooperate_share", share(AttackMode::Cooperate));
    report.set_metric("adaptive_defect_share", share(AttackMode::Defect));
    report.set_metric("adaptive_rotate_share", share(AttackMode::RotateDefect));
    let last = trace[phases - 1];
    report.set_metric("adaptive_final_arm", last.arm.index() as f64);
}

/// Parse the `churn_leave`/`churn_rejoin` parameters (default: none).
fn parse_churn(req: &RunRequest<'_>) -> Result<ChurnSpec, String> {
    let leave = req.num("churn_leave", 0.0)?;
    let rejoin = req.num("churn_rejoin", 0.25)?;
    for (name, p) in [("churn_leave", leave), ("churn_rejoin", rejoin)] {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("parameter {name}={p} outside [0, 1]"));
        }
    }
    Ok(ChurnSpec::new(leave, rejoin))
}

/// Resolve the full population axis: the heterogeneous `churn_profile`
/// (which supersedes the uniform `churn_leave`/`churn_rejoin` pair — the
/// two spellings are mutually exclusive) plus the `arrival` flash-crowd
/// process with its sweepable `arrival_size` override.
fn parse_population(req: &RunRequest<'_>) -> Result<(ChurnProfile, ArrivalProcess), String> {
    let profile = match req.params.get("churn_profile") {
        Some(spec) => {
            let uniform_axis = ["churn_leave", "churn_rejoin"];
            if uniform_axis.iter().any(|k| req.params.get(k).is_some())
                || uniform_axis.contains(&req.sweep)
            {
                return Err(
                    "churn_profile replaces the uniform axis: drop churn_leave/churn_rejoin \
                     (use uniform:<leave>:<rejoin> inside the profile instead)"
                        .to_string(),
                );
            }
            ChurnProfile::parse(spec)?
        }
        None => ChurnProfile::uniform(parse_churn(req)?),
    };
    let mut arrival = match req.params.get("arrival") {
        Some(spec) => ArrivalProcess::parse(spec)?,
        None => ArrivalProcess::None,
    };
    if let Some(size) = req.opt_num("arrival_size")? {
        if !arrival.is_some() {
            return Err(
                "arrival_size needs an arrival process: pass arrival=burst:... or ramp:..."
                    .to_string(),
            );
        }
        if size < 0.0 || size.fract() != 0.0 {
            return Err(format!(
                "parameter arrival_size={size} is not a non-negative node count"
            ));
        }
        arrival = arrival.with_size(size as u32);
    }
    Ok((profile, arrival))
}

// ---------------------------------------------------------------------
// bar-gossip
// ---------------------------------------------------------------------

fn bar_gossip_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "bar-gossip",
        about: "BAR Gossip streaming (the paper's §2 evaluation substrate)",
        attacks: &[
            ("none", "no attack (baseline)"),
            ("crash", "attacker nodes go silent"),
            ("ideal", "ideal lotus-eater: out-of-band instant forwarding"),
            ("trade", "trade lotus-eater: in-protocol give-everything"),
            (
                "masquerade",
                "plausibly-deniable defection: silence rate tracks the ambient fault rate",
            ),
        ],
        params: &[
            ("nodes", "number of nodes (Table 1: 250)"),
            ("updates_per_round", "broadcaster batch size (Table 1: 10)"),
            (
                "update_lifetime",
                "rounds before an update expires (Table 1: 10)",
            ),
            ("copies_seeded", "seed copies per update (Table 1: 12)"),
            ("push_size", "optimistic push size (Table 1: 2)"),
            ("rounds", "measured rounds"),
            ("warmup_rounds", "warm-up rounds excluded from measurement"),
            ("fraction", "attacker fraction when x sweeps another knob"),
            (
                "satiate_fraction",
                "fraction of the system targeted for satiation (paper: 0.70)",
            ),
            (
                "rotation_period",
                "rotate the satiated set every N rounds (0 = static)",
            ),
            (
                "unbalanced",
                "obedient unbalanced exchanges (Figure 3 defense)",
            ),
            (
                "rate_limit",
                "per-interaction cap on useful updates (0 or >=32 = uncapped)",
            ),
            (
                "report_obedient",
                "fraction of honest nodes reporting excess service (enables report-and-evict)",
            ),
            (
                "report_quorum",
                "distinct reports needed to evict (default 3)",
            ),
            (
                "report_excess_slack",
                "updates above the cap tolerated before reporting (default 1)",
            ),
            (
                "cutoff",
                "silence cut-off defense: distinct accusers needed to cut a silent node (0 = off)",
            ),
            (
                "run_threads",
                "intra-run plan-phase worker threads (0 = auto: LOTUS_RUN_THREADS, else machine parallelism; figures identical for any value)",
            ),
            FAULTS_PARAM_DOC,
            FAULT_LOSS_DOC,
            SCHEDULE_PARAM_DOC,
            ADAPTIVE_PARAM_DOC,
            ADAPTIVE_EPSILON_DOC,
            ADAPTIVE_PHASE_DOC,
            CHURN_LEAVE_DOC,
            CHURN_REJOIN_DOC,
            CHURN_PROFILE_DOC,
            ARRIVAL_DOC,
            ARRIVAL_SIZE_DOC,
        ],
        sweeps: &[
            "rate_limit",
            "rotation_period",
            "report_obedient",
            "push_size",
            "satiate_fraction",
            "fault_loss",
            "cutoff",
            "churn_leave",
            "churn_rejoin",
            "arrival_size",
            "adaptive_epsilon",
            "adaptive_phase",
        ],
        metrics: &[
            "isolated_delivery",
            "satiated_delivery",
            "attacker_coverage",
            "evictions",
            "evicted_fraction",
            "junk_fraction",
            "mean_attacker_upload",
            "mean_honest_upload",
            "min_node_delivery",
            "nodes_ever_unusable",
            "unusable_node_rounds",
            "false_cut_rate",
            "attacker_cut_rate",
            "cut_precision",
            "cut_recall",
            "faults_dropped",
            "faults_duplicated",
            "faults_delayed",
            "faults_crashes",
            "faults_partition_blocked",
        ],
        default_metric: "isolated_delivery",
        build: build_bar_gossip,
        bench_params: &[
            ("nodes", "60"),
            ("rounds", "12"),
            ("warmup_rounds", "6"),
            ("updates_per_round", "4"),
            ("copies_seeded", "6"),
        ],
    }
}

fn bar_gossip_config(req: &RunRequest<'_>) -> Result<BarGossipConfig, String> {
    let mut b = BarGossipConfig::builder();
    if let Some(v) = req.whole("nodes")? {
        b = b.nodes(v);
    }
    if let Some(v) = req.whole("updates_per_round")? {
        b = b.updates_per_round(v);
    }
    if let Some(v) = req.whole("update_lifetime")? {
        b = b.update_lifetime(v);
    }
    if let Some(v) = req.whole("copies_seeded")? {
        b = b.copies_seeded(v);
    }
    if let Some(v) = req.whole("push_size")? {
        b = b.push_size(v);
    }
    if let Some(v) = req.whole("rounds")? {
        b = b.rounds(v);
    }
    if let Some(v) = req.whole("warmup_rounds")? {
        b = b.warmup_rounds(v);
    }
    if req.params.flag("unbalanced")?.unwrap_or(false) {
        b = b.unbalanced_exchanges(true);
    }
    if let Some(v) = req.whole("rate_limit")? {
        // The X9 plotting convention: the unbounded point sits at 32.
        b = b.rate_limit(if v == 0 || v >= 32 { None } else { Some(v) });
    }
    if let Some(ob) = req.unit("report_obedient")? {
        b = b.report_defense(ReportConfig {
            obedient_fraction: ob,
            quorum: req.whole("report_quorum")?.unwrap_or(3),
            excess_slack: req.whole("report_excess_slack")?.unwrap_or(1),
        });
    }
    if let Some(q) = req.whole("cutoff")? {
        b = b.cutoff_quorum(if q == 0 { None } else { Some(q) });
    }
    if let Some(v) = req.whole("run_threads")? {
        b = b.run_threads(v as usize);
    }
    let (churn, arrival) = parse_population(req)?;
    b = b.churn(churn).arrival(arrival).faults(parse_faults(req)?);
    b.build()
        .map_err(|e| format!("invalid bar-gossip config: {e}"))
}

fn bar_gossip_plan(req: &RunRequest<'_>) -> Result<AttackPlan, String> {
    let fraction = req.unit("fraction")?.unwrap_or(0.0);
    let satiate = req
        .unit("satiate_fraction")?
        .unwrap_or(AttackPlan::PAPER_SATIATE_FRACTION);
    let mut plan = match req.attack {
        "none" => AttackPlan::none(),
        "crash" => AttackPlan::crash(fraction),
        "ideal" => AttackPlan::ideal_lotus_eater(fraction, satiate),
        "trade" => AttackPlan::trade_lotus_eater(fraction, satiate),
        "masquerade" => AttackPlan::masquerade(fraction),
        // Only reachable through the digest spec (attack names are
        // validated against each spec's list before build).
        "poison" => AttackPlan::poison(fraction, req.unit("poison_rate")?.unwrap_or(1.0)),
        other => return Err(format!("unknown bar-gossip attack {other:?}")),
    };
    let timing = parse_timing(req)?;
    let rotation = req.whole("rotation_period")?.unwrap_or(0);
    if rotation > 0 {
        if timing.adaptive.is_some() {
            return Err(
                "adaptive attackers rotate on their own phase clock: drop rotation_period \
                 when passing --adaptive"
                    .to_string(),
            );
        }
        plan = plan.with_rotation(u64::from(rotation));
    }
    plan = plan.with_schedule(timing);
    Ok(plan)
}

fn build_bar_gossip(req: &RunRequest<'_>) -> Result<Box<dyn DynScenario>, String> {
    let cfg = bar_gossip_config(req)?;
    let plan = bar_gossip_plan(req)?;
    Ok(boxed::<BarGossipSim>(cfg, plan, req.seed))
}

/// The digest-exchange configuration of bar-gossip: the two-leg
/// advertise-then-diff round over [`lotus_core::digest`] replaces the
/// classic full-window exchange phases, hosting the
/// advertise-then-withhold (`poison`) attack and the digest-audit
/// defense alongside every classic attack.
fn bar_gossip_digest_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "bar-gossip-digest",
        about: "bar-gossip over a two-leg digest exchange (advertise, diff, transfer)",
        attacks: &[
            ("none", "no attack (baseline)"),
            ("crash", "attacker nodes go silent"),
            ("ideal", "ideal lotus-eater: out-of-band instant forwarding"),
            ("trade", "trade lotus-eater: in-protocol give-everything"),
            (
                "masquerade",
                "plausibly-deniable defection: silence rate tracks the ambient fault rate",
            ),
            (
                "poison",
                "advertise-then-withhold: truthful digest, then withhold requested \
                 updates at poison_rate (deniable against bloom false positives)",
            ),
        ],
        params: &[
            ("nodes", "number of nodes (Table 1: 250)"),
            ("updates_per_round", "broadcaster batch size (Table 1: 10)"),
            (
                "update_lifetime",
                "rounds before an update expires (Table 1: 10)",
            ),
            ("copies_seeded", "seed copies per update (Table 1: 12)"),
            ("push_size", "optimistic push size (unused by the digest round)"),
            ("rounds", "measured rounds"),
            ("warmup_rounds", "warm-up rounds excluded from measurement"),
            ("fraction", "attacker fraction when x sweeps another knob"),
            (
                "satiate_fraction",
                "fraction of the system targeted for satiation (paper: 0.70)",
            ),
            (
                "rotation_period",
                "rotate the satiated set every N rounds (0 = static)",
            ),
            (
                "unbalanced",
                "obedient unbalanced exchanges (Figure 3 defense)",
            ),
            (
                "rate_limit",
                "per-direction cap on requested updates (0 or >=32 = uncapped)",
            ),
            (
                "report_obedient",
                "fraction of honest nodes reporting excess service (enables report-and-evict)",
            ),
            (
                "report_quorum",
                "distinct reports needed to evict (default 3)",
            ),
            (
                "report_excess_slack",
                "updates above the cap tolerated before reporting (default 1)",
            ),
            (
                "cutoff",
                "silence cut-off defense: distinct accusers needed to cut a silent node (0 = off)",
            ),
            (
                "run_threads",
                "intra-run plan-phase worker threads (0 = auto: LOTUS_RUN_THREADS, else machine parallelism; figures identical for any value)",
            ),
            (
                "digest_bits",
                "bloom digest width in bits (default 1024; wire cost bits/8 each way)",
            ),
            ("digest_hashes", "bloom probe count per id (default 4)"),
            (
                "digest_exact",
                "advertise exact per-round region hashes instead of a bloom filter \
                 (zero false positives; delivery is identical by construction)",
            ),
            (
                "audit",
                "digest-audit defense: sampling rate per advertised-but-undelivered \
                 id, feeding the silence cut-off (0 = off; needs cutoff > 0 to bite)",
            ),
            (
                "poison_rate",
                "poison attack: probability a held, requested update is withheld \
                 (default 1.0; small values hide inside the bloom false-positive rate)",
            ),
            FAULTS_PARAM_DOC,
            FAULT_LOSS_DOC,
            SCHEDULE_PARAM_DOC,
            ADAPTIVE_PARAM_DOC,
            ADAPTIVE_EPSILON_DOC,
            ADAPTIVE_PHASE_DOC,
            CHURN_LEAVE_DOC,
            CHURN_REJOIN_DOC,
            CHURN_PROFILE_DOC,
            ARRIVAL_DOC,
            ARRIVAL_SIZE_DOC,
        ],
        sweeps: &[
            "rate_limit",
            "rotation_period",
            "report_obedient",
            "satiate_fraction",
            "fault_loss",
            "cutoff",
            "digest_bits",
            "poison_rate",
            "audit",
            "churn_leave",
            "churn_rejoin",
            "arrival_size",
            "adaptive_epsilon",
            "adaptive_phase",
        ],
        metrics: &[
            "isolated_delivery",
            "satiated_delivery",
            "attacker_coverage",
            "evictions",
            "evicted_fraction",
            "junk_fraction",
            "mean_attacker_upload",
            "mean_honest_upload",
            "min_node_delivery",
            "nodes_ever_unusable",
            "unusable_node_rounds",
            "false_cut_rate",
            "attacker_cut_rate",
            "cut_precision",
            "cut_recall",
            "faults_dropped",
            "faults_duplicated",
            "faults_delayed",
            "faults_crashes",
            "faults_partition_blocked",
            "digest_bytes_on_wire",
            "digest_bytes_updates",
            "digest_fp_rate",
            "digest_requests",
            "digest_withheld",
        ],
        default_metric: "isolated_delivery",
        build: build_bar_gossip_digest,
        bench_params: &[
            ("nodes", "60"),
            ("rounds", "12"),
            ("warmup_rounds", "6"),
            ("updates_per_round", "4"),
            ("copies_seeded", "6"),
        ],
    }
}

fn build_bar_gossip_digest(req: &RunRequest<'_>) -> Result<Box<dyn DynScenario>, String> {
    let mut cfg = bar_gossip_config(req)?;
    let bits = req.num("digest_bits", 1024.0)?;
    let hashes = req.num("digest_hashes", 4.0)?;
    for (name, v) in [("digest_bits", bits), ("digest_hashes", hashes)] {
        if v < 1.0 || v.fract() != 0.0 {
            return Err(format!(
                "parameter {name}={v} is not a positive whole number"
            ));
        }
    }
    cfg.digest = Some(DigestExchangeConfig {
        bits: bits as u32,
        hashes: hashes as u32,
        exact: req.params.flag("digest_exact")?.unwrap_or(false),
        audit: req.num("audit", 0.0)?,
    });
    // The builder validated the base config; revalidate for the digest
    // block set after the fact.
    cfg.validate()
        .map_err(|e| format!("invalid bar-gossip-digest config: {e}"))?;
    let plan = bar_gossip_plan(req)?;
    Ok(boxed::<BarGossipSim>(cfg, plan, req.seed))
}

/// The million-node scale configuration of bar-gossip: a 1 000 000-node
/// universe where 99 % of the population is a flash crowd
/// (`ArrivalProcess::Burst`) that lands in the run's final round. The
/// registered defaults keep the run small enough for `--bench` — the
/// sharded `O(active)` engine carries ~10 000 present nodes until the
/// crowd arrives — while any explicit `--param` (or sweep) still wins.
fn bar_gossip_1m_spec() -> ScenarioSpec {
    let base = bar_gossip_spec();
    ScenarioSpec {
        name: "bar-gossip-1m",
        about: "bar-gossip at 1M nodes behind a flash crowd (O(active) scale config)",
        attacks: base.attacks,
        params: base.params,
        sweeps: base.sweeps,
        metrics: base.metrics,
        default_metric: base.default_metric,
        build: build_bar_gossip_1m,
        bench_params: &[],
    }
}

fn build_bar_gossip_1m(req: &RunRequest<'_>) -> Result<Box<dyn DynScenario>, String> {
    let mut base = Params::new();
    base.set("nodes", "1000000");
    // A run executes warmup + measured + lifetime drain rounds (2+4+4 =
    // 10 here); the 990k held-back nodes burst in at the final round, so
    // every benched run pays exactly one full-crowd round — the engine's
    // O(active) steady state for nine steps, then a million-node engage
    // and exchange round. Move the burst earlier (e.g.
    // --param arrival=burst:5:990000) to land the crowd inside the
    // measured metric window instead; each earlier round is another
    // full-crowd round of wall-clock.
    base.set("arrival", "burst:9:990000");
    base.set("rounds", "4");
    base.set("warmup_rounds", "2");
    base.set("update_lifetime", "4");
    base.set("updates_per_round", "4");
    base.set("copies_seeded", "6");
    let params = base.merged_with(req.params);
    let scaled = RunRequest {
        params: &params,
        ..*req
    };
    build_bar_gossip(&scaled)
}

// ---------------------------------------------------------------------
// scrip
// ---------------------------------------------------------------------

fn scrip_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "scrip",
        about: "Scrip economy (KFH EC'07): conserved money as the satiation currency",
        attacks: &[
            ("none", "no attack (baseline)"),
            (
                "lotus-eater",
                "keep a fraction of agents topped up to their thresholds",
            ),
            ("retainer", "hoard an endowment without satiating anyone"),
        ],
        params: &[
            ("agents", "number of agents"),
            (
                "money_per_agent",
                "initial scrip per agent (the money supply)",
            ),
            ("threshold", "stop-providing balance threshold k"),
            ("availability", "probability an agent can serve in a round"),
            ("altruists", "number of always-free providers"),
            (
                "adaptive_thresholds",
                "agents adapt their thresholds (altruist-crash dynamics)",
            ),
            ("rounds", "measured rounds"),
            ("warmup", "warm-up rounds"),
            ("fraction", "targeted fraction when x sweeps another knob"),
            (
                "endowment",
                "attacker's share of the money supply (default 1.0 = all of it)",
            ),
            FAULTS_PARAM_DOC,
            FAULT_LOSS_DOC,
            SCHEDULE_PARAM_DOC,
            ADAPTIVE_PARAM_DOC,
            ADAPTIVE_EPSILON_DOC,
            ADAPTIVE_PHASE_DOC,
            CHURN_LEAVE_DOC,
            CHURN_REJOIN_DOC,
            CHURN_PROFILE_DOC,
            ARRIVAL_DOC,
            ARRIVAL_SIZE_DOC,
        ],
        sweeps: &[
            "altruists",
            "money_per_agent",
            "threshold",
            "fault_loss",
            "churn_leave",
            "churn_rejoin",
            "arrival_size",
            "adaptive_epsilon",
            "adaptive_phase",
        ],
        metrics: &[
            "service_rate",
            "free_rate",
            "paid_rate",
            "fail_broke_rate",
            "fail_no_volunteer_rate",
            "special_service_rate",
            "mean_satiated_fraction",
            "target_satiation",
            "mean_threshold",
            "gini",
            "attacker_money",
            "total_money",
            "fail_faulted_rate",
            "faults_dropped",
            "faults_duplicated",
            "faults_delayed",
            "faults_crashes",
            "faults_partition_blocked",
        ],
        default_metric: "target_satiation",
        build: build_scrip,
        bench_params: &[("agents", "60"), ("rounds", "2000"), ("warmup", "200")],
    }
}

fn build_scrip(req: &RunRequest<'_>) -> Result<Box<dyn DynScenario>, String> {
    let mut b = ScripConfig::builder();
    if let Some(v) = req.opt_num("agents")? {
        b = b.agents(v as u32);
    }
    if let Some(v) = req.opt_num("money_per_agent")? {
        b = b.money_per_agent(v as u32);
    }
    if let Some(v) = req.opt_num("threshold")? {
        b = b.threshold(v as u32);
    }
    if let Some(v) = req.opt_num("availability")? {
        b = b.availability(v);
    }
    if let Some(v) = req.opt_num("altruists")? {
        b = b.altruists(v as u32);
    }
    if let Some(v) = req.params.flag("adaptive_thresholds")? {
        b = b.adaptive(v);
    }
    if let Some(v) = req.opt_num("rounds")? {
        b = b.rounds(v as u64);
    }
    if let Some(v) = req.opt_num("warmup")? {
        b = b.warmup(v as u64);
    }
    let (churn, arrival) = parse_population(req)?;
    b = b
        .schedule(parse_timing(req)?)
        .churn(churn)
        .arrival(arrival)
        .faults(parse_faults(req)?);
    let cfg = b
        .build()
        .map_err(|e| format!("invalid scrip config: {e}"))?;
    let endowment = req.num("endowment", 1.0)?;
    let attack = match req.attack {
        "none" => ScripAttack::None,
        "lotus-eater" => ScripAttack::lotus_eater(req.fraction(0.0)?, endowment),
        "retainer" => ScripAttack::retainer(endowment),
        other => return Err(format!("unknown scrip attack {other:?}")),
    };
    Ok(boxed::<ScripSim>(cfg, attack, req.seed))
}

// ---------------------------------------------------------------------
// bittorrent
// ---------------------------------------------------------------------

fn bittorrent_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "bittorrent",
        about: "Simplified BitTorrent swarm: the substrate the attack barely dents (§1)",
        attacks: &[
            ("none", "no attack (baseline)"),
            (
                "satiate",
                "attacker peers upload generously, but only to their targets",
            ),
        ],
        params: &[
            ("leechers", "number of leechers"),
            ("origin_seeds", "number of origin seeds"),
            ("pieces", "pieces in the file"),
            ("unchoke_slots", "tit-for-tat unchoke slots per peer"),
            ("piece_policy", "piece selection: rarest | random"),
            (
                "seed_after_completion",
                "rounds a finished leecher lingers as a seed",
            ),
            ("max_rounds", "simulation horizon"),
            (
                "fraction",
                "targeted leecher fraction when x sweeps another knob",
            ),
            ("attacker_peers", "number of attacker peers (0 = no attack)"),
            ("attacker_slots", "upload slots per attacker peer"),
            (
                "target_policy",
                "target choice: random | rare (rare-piece holders)",
            ),
            FAULTS_PARAM_DOC,
            FAULT_LOSS_DOC,
            SCHEDULE_PARAM_DOC,
            ADAPTIVE_PARAM_DOC,
            ADAPTIVE_EPSILON_DOC,
            ADAPTIVE_PHASE_DOC,
            CHURN_LEAVE_DOC,
            CHURN_REJOIN_DOC,
            CHURN_PROFILE_DOC,
            ARRIVAL_DOC,
            ARRIVAL_SIZE_DOC,
        ],
        sweeps: &[
            "attacker_peers",
            "pieces",
            "leechers",
            "fault_loss",
            "churn_leave",
            "churn_rejoin",
            "arrival_size",
            "adaptive_epsilon",
            "adaptive_phase",
        ],
        metrics: &[
            "mean_completion",
            "mean_completion_nontargeted",
            "mean_completion_targeted",
            "p95_completion_nontargeted",
            "attacker_upload",
            "honest_upload",
            "duplicates",
            "faults_dropped",
            "faults_duplicated",
            "faults_delayed",
            "faults_crashes",
            "faults_partition_blocked",
        ],
        default_metric: "mean_completion_nontargeted",
        build: build_bittorrent,
        bench_params: &[("leechers", "25"), ("pieces", "32")],
    }
}

fn build_bittorrent(req: &RunRequest<'_>) -> Result<Box<dyn DynScenario>, String> {
    let mut b = SwarmConfig::builder();
    if let Some(v) = req.opt_num("leechers")? {
        b = b.leechers(v as u32);
    }
    if let Some(v) = req.opt_num("origin_seeds")? {
        b = b.seeds(v as u32);
    }
    if let Some(v) = req.opt_num("pieces")? {
        b = b.pieces(v as u32);
    }
    if let Some(v) = req.opt_num("unchoke_slots")? {
        b = b.unchoke_slots(v as u32);
    }
    if let Some(v) = req.opt_num("seed_after_completion")? {
        b = b.seed_after_completion(v as u32);
    }
    if let Some(v) = req.opt_num("max_rounds")? {
        b = b.max_rounds(v as u64);
    }
    match req.params.get("piece_policy") {
        None | Some("rarest") => {}
        Some("random") => b = b.piece_policy(PiecePolicy::Random),
        Some(other) => return Err(format!("unknown piece_policy {other:?} (rarest | random)")),
    }
    let (churn, arrival) = parse_population(req)?;
    b = b.churn(churn).arrival(arrival).faults(parse_faults(req)?);
    let cfg = b
        .build()
        .map_err(|e| format!("invalid bittorrent config: {e}"))?;
    let attack = match req.attack {
        "none" => SwarmAttack::none(),
        "satiate" => {
            let peers = req.num("attacker_peers", 4.0)? as u32;
            let slots = req.num("attacker_slots", 8.0)? as u32;
            let fraction = req.fraction(0.33)?;
            let policy = match req.params.get("target_policy") {
                None | Some("random") => TargetPolicy::Random,
                Some("rare") => TargetPolicy::RarePieceHolders,
                Some(other) => {
                    return Err(format!("unknown target_policy {other:?} (random | rare)"))
                }
            };
            if peers == 0 || fraction <= 0.0 {
                SwarmAttack::none()
            } else {
                SwarmAttack::satiate(peers, slots, fraction, policy)
            }
        }
        other => return Err(format!("unknown bittorrent attack {other:?}")),
    };
    let attack = attack.with_schedule(parse_timing(req)?);
    Ok(boxed::<SwarmSim>(cfg, attack, req.seed))
}

// ---------------------------------------------------------------------
// token
// ---------------------------------------------------------------------

fn token_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "token",
        about: "The paper's §3 abstract token-collecting model (G, T, sat, f, c, a)",
        attacks: &[
            ("none", "no attack (baseline)"),
            (
                "random-fraction",
                "mass satiation of a random fraction each round",
            ),
            ("rare-holders", "satiate every current holder of one token"),
            (
                "rotating",
                "rotate the satiated fraction every `period` rounds",
            ),
            ("cut-column", "satiate one grid column (a vertex cut)"),
            (
                "cut-plan",
                "plan a cut with the BFS-layer heuristic from node 0",
            ),
        ],
        params: &[
            ("nodes", "number of nodes (complete/er/geometric graphs)"),
            ("tokens", "size of the token universe"),
            ("altruism", "probability a satiated node still responds"),
            ("contacts_per_round", "gossip contacts per node per round"),
            ("rounds", "simulation horizon (default 150)"),
            ("graph", "topology: complete | grid | er | geometric"),
            ("rows", "grid rows"),
            ("cols", "grid columns"),
            ("er_p", "Erdős–Rényi edge probability"),
            ("radius", "random-geometric connection radius"),
            (
                "allocation",
                "initial allocation: uniform | rare | rare-spread",
            ),
            (
                "copies",
                "copies per token (uniform) / per non-rare token (rare)",
            ),
            (
                "rare_holders",
                "initial holders of token 0 (rare-spread allocation)",
            ),
            (
                "redundancy",
                "coding defense: satiation needs (tokens - redundancy) tokens",
            ),
            ("fraction", "satiated fraction when x sweeps another knob"),
            ("token", "which token rare-holders chases (default 0)"),
            (
                "budget",
                "satiations per round the attacker can afford (0 = unlimited)",
            ),
            ("period", "rotation period in rounds (rotating attack)"),
            ("cut_col", "which grid column to cut (default cols/2)"),
            FAULTS_PARAM_DOC,
            FAULT_LOSS_DOC,
            SCHEDULE_PARAM_DOC,
            ADAPTIVE_PARAM_DOC,
            ADAPTIVE_EPSILON_DOC,
            ADAPTIVE_PHASE_DOC,
            CHURN_LEAVE_DOC,
            CHURN_REJOIN_DOC,
            CHURN_PROFILE_DOC,
            ARRIVAL_DOC,
            ARRIVAL_SIZE_DOC,
        ],
        sweeps: &[
            "altruism",
            "rare_holders",
            "redundancy",
            "tokens",
            "budget",
            "fault_loss",
            "churn_leave",
            "churn_rejoin",
            "arrival_size",
            "adaptive_epsilon",
            "adaptive_phase",
        ],
        metrics: &[
            "mean_coverage",
            "min_coverage",
            "untouched_mean_coverage",
            "untouched_satisfied",
            "attacked_nodes",
            "final_satiated_fraction",
            "all_satiated_at",
            "token0_reach",
            "faults_dropped",
            "faults_duplicated",
            "faults_delayed",
            "faults_crashes",
            "faults_partition_blocked",
        ],
        default_metric: "untouched_mean_coverage",
        build: build_token,
        bench_params: &[("nodes", "40"), ("rounds", "60")],
    }
}

/// Draw the configured topology, re-drawing random graphs (up to 50
/// attempts) until connected, as every token experiment requires.
fn token_graph(req: &RunRequest<'_>) -> Result<Graph, String> {
    let nodes = req.num("nodes", 60.0)? as u32;
    match req.params.get("graph").unwrap_or("complete") {
        "complete" => Ok(Graph::complete(nodes)),
        "grid" => {
            let rows = req.num("rows", 8.0)? as u32;
            let cols = req.num("cols", 12.0)? as u32;
            Ok(Graph::grid(rows, cols, false))
        }
        kind @ ("er" | "geometric") => {
            let rng = DetRng::seed_from(req.seed).fork("topology");
            for attempt in 0..50 {
                let g = match kind {
                    "er" => Graph::erdos_renyi(
                        nodes,
                        req.num("er_p", 0.08)?,
                        &mut rng.fork_idx("try", attempt),
                    ),
                    _ => Graph::random_geometric(
                        nodes,
                        req.num("radius", 0.17)?,
                        &mut rng.fork_idx("try", attempt),
                    ),
                };
                if g.is_connected() {
                    return Ok(g);
                }
            }
            Err(format!("no connected {kind} draw within 50 attempts"))
        }
        other => Err(format!(
            "unknown graph {other:?} (complete | grid | er | geometric)"
        )),
    }
}

fn token_allocation(
    req: &RunRequest<'_>,
    n: u32,
    tokens: usize,
) -> Result<Option<Allocation>, String> {
    let copies = req.num("copies", 4.0)? as usize;
    match req.params.get("allocation") {
        None | Some("uniform") => Ok(if req.params.get("copies").is_some() {
            Some(Allocation::UniformCopies { copies })
        } else {
            None // keep the builder default
        }),
        Some("rare") => Ok(Some(Allocation::RareToken {
            holder: NodeId(0),
            copies,
        })),
        Some("rare-spread") => {
            // Token 0 starts at the first `rare_holders` nodes; every other
            // token gets `copies` deterministically scattered holders (the
            // X3 rare-token-denial layout).
            let holders = (req.num("rare_holders", 1.0)? as u32).clamp(1, n);
            let mut lists: Vec<Vec<NodeId>> = vec![(0..holders).map(NodeId).collect()];
            for t in 1..tokens as u32 {
                lists.push(
                    (0..copies as u32)
                        .map(|i| NodeId((t * 5 + i) % n))
                        .collect(),
                );
            }
            Ok(Some(Allocation::Explicit(lists)))
        }
        Some(other) => Err(format!(
            "unknown allocation {other:?} (uniform | rare | rare-spread)"
        )),
    }
}

fn token_attack(req: &RunRequest<'_>, graph: &Graph, tokens: usize) -> Result<TokenAttack, String> {
    let attack = match req.attack {
        "none" => TokenAttack::none(),
        "random-fraction" => TokenAttack::random_fraction(req.fraction(0.5)?),
        "rare-holders" => {
            let token = req.whole("token")?.unwrap_or(0) as usize;
            if token >= tokens {
                return Err(format!(
                    "parameter token={token} out of range for tokens={tokens}"
                ));
            }
            TokenAttack::rare_holders(token)
        }
        "rotating" => {
            let period = req.whole("period")?.unwrap_or(10);
            if period == 0 {
                return Err("parameter period=0 must be at least 1".to_string());
            }
            TokenAttack::rotating(req.fraction(0.3)?, u64::from(period))
        }
        "cut-column" => {
            let rows = req.num("rows", 8.0)? as u32;
            let cols = req.num("cols", 12.0)? as u32;
            let col = req.whole("cut_col")?.unwrap_or(cols / 2);
            if col >= cols {
                return Err(format!(
                    "parameter cut_col={col} out of range for cols={cols}"
                ));
            }
            let grid = u64::from(rows) * u64::from(cols);
            if grid > u64::from(graph.len()) {
                return Err(format!(
                    "cut-column needs rows x cols = {grid} nodes but the graph has {}",
                    graph.len()
                ));
            }
            TokenAttack::cut(SatiateCut::grid_column(rows, cols, col))
        }
        // The planner can fail on cut-free graphs — that failure IS the
        // §3 point that random graphs resist structural attacks, so it
        // degrades to the null attack rather than erroring.
        "cut-plan" => match SatiateCut::plan(graph, NodeId(0)) {
            Some(cut) => TokenAttack::cut(cut),
            None => TokenAttack::none(),
        },
        other => return Err(format!("unknown token attack {other:?}")),
    };
    let budget = req.num("budget", 0.0)? as usize;
    Ok(if budget > 0 {
        attack.budgeted(budget)
    } else {
        attack
    })
}

fn build_token(req: &RunRequest<'_>) -> Result<Box<dyn DynScenario>, String> {
    let graph = token_graph(req)?;
    let n = graph.len();
    let tokens = req.num("tokens", 12.0)? as usize;
    let attack = token_attack(req, &graph, tokens)?;
    let mut b = TokenSystemConfig::builder(graph).tokens(tokens);
    if let Some(v) = req.opt_num("altruism")? {
        b = b.altruism(v);
    }
    if let Some(v) = req.opt_num("contacts_per_round")? {
        b = b.contacts_per_round(v as usize);
    }
    let redundancy = req.num("redundancy", 0.0)? as usize;
    if redundancy > 0 {
        b = b.sat(SatFunction::AnyK(tokens.saturating_sub(redundancy).max(1)));
    }
    if let Some(alloc) = token_allocation(req, n, tokens)? {
        b = b.allocation(alloc);
    }
    let cfg = b
        .build()
        .map_err(|e| format!("invalid token config: {e}"))?;
    let rounds = req.num("rounds", 150.0)? as u64;
    let (churn, arrival) = parse_population(req)?;
    let scenario_cfg = TokenScenarioConfig::new(cfg, rounds)
        .with_schedule(parse_timing(req)?)
        .with_churn(churn)
        .with_arrival(arrival)
        .with_faults(parse_faults(req)?);
    Ok(boxed::<TokenSystem>(scenario_cfg, attack, req.seed))
}

// ---------------------------------------------------------------------
// scrip-gossip
// ---------------------------------------------------------------------

fn scrip_gossip_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "scrip-gossip",
        about: "Scrip-mediated gossip: the §4 'incentive-compatible gossip' sketch, built",
        attacks: &[
            ("none", "no attack (baseline)"),
            ("crash", "attacker nodes go silent"),
            ("ideal", "ideal lotus-eater (out-of-band forwarding)"),
            (
                "trade",
                "trade lotus-eater (update gifts cannot silence a seller)",
            ),
            (
                "masquerade",
                "plausibly-deniable defection: silence rate tracks the ambient fault rate",
            ),
        ],
        params: &[
            ("nodes", "number of nodes"),
            ("updates_per_round", "broadcaster batch size"),
            ("update_lifetime", "rounds before an update expires"),
            ("copies_seeded", "seed copies per update"),
            ("push_size", "optimistic push size"),
            ("rounds", "measured rounds"),
            ("warmup_rounds", "warm-up rounds"),
            ("fraction", "attacker fraction when x sweeps another knob"),
            (
                "satiate_fraction",
                "fraction targeted for satiation (paper: 0.70)",
            ),
            (
                "cutoff",
                "silence cut-off defense: distinct accusers needed to cut a silent node (0 = off)",
            ),
            FAULTS_PARAM_DOC,
            FAULT_LOSS_DOC,
            SCHEDULE_PARAM_DOC,
            ADAPTIVE_PARAM_DOC,
            ADAPTIVE_EPSILON_DOC,
            ADAPTIVE_PHASE_DOC,
            CHURN_LEAVE_DOC,
            CHURN_REJOIN_DOC,
            CHURN_PROFILE_DOC,
            ARRIVAL_DOC,
            ARRIVAL_SIZE_DOC,
        ],
        sweeps: &[
            "fault_loss",
            "cutoff",
            "churn_leave",
            "churn_rejoin",
            "arrival_size",
            "adaptive_epsilon",
            "adaptive_phase",
        ],
        metrics: &[
            "isolated_delivery",
            "satiated_delivery",
            "refusal_rate",
            "broke_rate",
            "total_money",
            "false_cut_rate",
            "attacker_cut_rate",
            "cut_precision",
            "cut_recall",
            "faults_dropped",
            "faults_duplicated",
            "faults_delayed",
            "faults_crashes",
            "faults_partition_blocked",
        ],
        default_metric: "isolated_delivery",
        build: build_scrip_gossip,
        bench_params: &[
            ("nodes", "60"),
            ("rounds", "12"),
            ("warmup_rounds", "6"),
            ("updates_per_round", "4"),
            ("copies_seeded", "6"),
        ],
    }
}

fn build_scrip_gossip(req: &RunRequest<'_>) -> Result<Box<dyn DynScenario>, String> {
    let base = bar_gossip_config(req)?;
    let cfg = ScripGossipConfig::new(base);
    let plan = bar_gossip_plan(req)?;
    Ok(boxed::<ScripGossipSim>(cfg, plan, req.seed))
}

// ---------------------------------------------------------------------
// reputation
// ---------------------------------------------------------------------

fn reputation_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "reputation",
        about: "Minted reputation as the satiation currency (no supply wall, only a bill)",
        attacks: &[
            ("none", "no attack (baseline)"),
            ("inflate", "fake praise tops targets up to their thresholds"),
        ],
        params: &[
            ("agents", "number of agents"),
            ("threshold", "stop-volunteering reputation threshold"),
            ("decay", "multiplicative per-round reputation decay"),
            ("availability", "probability an agent can serve in a round"),
            ("rounds", "measured rounds"),
            ("warmup", "warm-up rounds"),
            ("fraction", "targeted fraction when x sweeps another knob"),
        ],
        sweeps: &[],
        metrics: &[
            "service_rate",
            "denied_rate",
            "no_volunteer_rate",
            "target_satiation",
            "attacker_cost_per_round",
        ],
        default_metric: "target_satiation",
        build: build_reputation,
        bench_params: &[("agents", "60"), ("rounds", "2000"), ("warmup", "200")],
    }
}

fn build_reputation(req: &RunRequest<'_>) -> Result<Box<dyn DynScenario>, String> {
    let mut cfg = ReputationConfig::default();
    if let Some(v) = req.opt_num("agents")? {
        cfg.agents = v as u32;
    }
    if let Some(v) = req.opt_num("threshold")? {
        cfg.threshold = v;
    }
    if let Some(v) = req.opt_num("decay")? {
        cfg.decay = v;
    }
    if let Some(v) = req.opt_num("availability")? {
        cfg.availability = v;
    }
    if let Some(v) = req.opt_num("rounds")? {
        cfg.rounds = v as u64;
    }
    if let Some(v) = req.opt_num("warmup")? {
        cfg.warmup = v as u64;
    }
    cfg.validate()
        .map_err(|e| format!("invalid reputation config: {e}"))?;
    let attack = match req.attack {
        "none" => ReputationAttack::None,
        "inflate" => ReputationAttack::Inflate {
            target_fraction: req.fraction(0.0)?,
        },
        other => return Err(format!("unknown reputation attack {other:?}")),
    };
    Ok(boxed::<ReputationSim>(cfg, attack, req.seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_core::scenario::Summarize;

    #[test]
    fn every_spec_is_internally_consistent() {
        let reg = ScenarioRegistry::standard();
        assert!(reg.specs().len() >= 4, "all four substrates register");
        for spec in reg.specs() {
            assert!(spec.has_attack("none"), "{} needs a baseline", spec.name);
            assert!(
                spec.metrics.contains(&spec.default_metric),
                "{}: default metric must be listed",
                spec.name
            );
            for knob in spec.sweeps {
                assert!(
                    spec.has_param(knob),
                    "{}: sweepable knob {knob} must be a parameter",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn unknown_names_error_cleanly() {
        let reg = ScenarioRegistry::standard();
        let p = Params::new();
        let req = RunRequest::new(0.0, 1, "none", "fraction", &p);
        assert!(reg.run("no-such-scenario", &req).is_err());
        let req = RunRequest::new(0.0, 1, "no-such-attack", "fraction", &p);
        assert!(reg.run("token", &req).is_err());
        let bad = Params::new().with("no_such_param", "1");
        let req = RunRequest::new(0.0, 1, "none", "fraction", &bad);
        assert!(reg.run("token", &req).is_err());
    }

    #[test]
    fn gossip_params_reject_bad_values_instead_of_clamping() {
        // One parser serves every gossip scenario: an out-of-range
        // probability or a non-whole count must fail with the parameter's
        // name, never run as a clamped, truncated or saturated value.
        const UNIT: &str = "outside [0, 1]";
        const WHOLE: &str = "is not a whole number";
        let cases: &[(&str, &str, &str, &str)] = &[
            ("trade", "satiate_fraction", "1.5", UNIT),
            ("trade", "satiate_fraction", "-0.5", UNIT),
            ("trade", "satiate_fraction", "NaN", UNIT),
            ("trade", "fraction", "1.01", UNIT),
            ("trade", "report_obedient", "2", UNIT),
            ("poison", "poison_rate", "-0.1", UNIT),
            ("trade", "nodes", "40.7", WHOLE),
            ("trade", "copies_seeded", "-1", WHOLE),
            ("trade", "rounds", "1e12", WHOLE),
            ("trade", "rotation_period", "2.5", WHOLE),
            ("trade", "rate_limit", "-3", WHOLE),
            ("trade", "report_quorum", "2.5", WHOLE),
            ("trade", "cutoff", "1.5", WHOLE),
            ("trade", "run_threads", "-2", WHOLE),
        ];
        let reg = ScenarioRegistry::standard();
        for scenario in [
            "bar-gossip",
            "bar-gossip-digest",
            "bar-gossip-1m",
            "scrip-gossip",
        ] {
            let spec = reg.get(scenario).unwrap();
            for &(attack, key, value, expected) in cases {
                if !spec.has_param(key) || !spec.has_attack(attack) {
                    continue;
                }
                // report_quorum is read only under the report defense.
                let mut p = Params::new();
                if key == "report_quorum" {
                    p.set("report_obedient", "0.5");
                }
                p.set(key, value);
                // x drives an unrelated knob so `fraction` is read from
                // the params.
                let req = RunRequest::new(0.2, 1, attack, "fault_loss", &p);
                let err = reg
                    .build(scenario, &req)
                    .err()
                    .unwrap_or_else(|| panic!("{scenario}: {key}={value} must be rejected"));
                assert!(
                    err.contains(key) && err.contains(expected),
                    "{scenario}: {key}={value} gave {err:?}"
                );
            }
            // The swept x is the fraction: it is checked the same way.
            let p = Params::new();
            let req = RunRequest::new(1.5, 1, "trade", "fraction", &p);
            let err = reg.build(scenario, &req).err().expect("x=1.5 rejected");
            assert!(err.contains(UNIT), "{scenario}: x=1.5 gave {err:?}");
        }
    }

    #[test]
    fn digest_index_overflow_is_a_typed_error() {
        // 64 updates × lifetime 2^22 × 16 hashes = 2^32 (id, probe) pairs:
        // one more than a 32-bit pair id can number. The parser must say
        // so instead of building an index whose size wrapped to zero.
        let reg = ScenarioRegistry::standard();
        let p = Params::new()
            .with("nodes", "4")
            .with("copies_seeded", "2")
            .with("updates_per_round", "64")
            .with("update_lifetime", "4194304")
            .with("digest_hashes", "16")
            .with("rounds", "2");
        let req = RunRequest::new(0.0, 1, "none", "fraction", &p);
        let err = reg
            .build("bar-gossip-digest", &req)
            .err()
            .expect("2^32 bloom probe pairs must be rejected");
        assert!(err.contains("overflow 32-bit pair ids"), "gave {err:?}");
    }

    #[test]
    fn every_scenario_runs_its_baseline() {
        let reg = ScenarioRegistry::standard();
        // Small/fast overrides per scenario so the test stays quick.
        let shrink: &[(&str, &[(&str, &str)])] = &[
            (
                "bar-gossip",
                &[
                    ("nodes", "40"),
                    ("rounds", "8"),
                    ("warmup_rounds", "4"),
                    ("updates_per_round", "4"),
                    ("copies_seeded", "5"),
                ],
            ),
            (
                "bar-gossip-digest",
                &[
                    ("nodes", "40"),
                    ("rounds", "8"),
                    ("warmup_rounds", "4"),
                    ("updates_per_round", "4"),
                    ("copies_seeded", "5"),
                ],
            ),
            (
                "scrip",
                &[("agents", "30"), ("rounds", "400"), ("warmup", "50")],
            ),
            ("bittorrent", &[("leechers", "10"), ("pieces", "12")]),
            ("token", &[("nodes", "20"), ("rounds", "40")]),
            (
                "scrip-gossip",
                &[
                    ("nodes", "40"),
                    ("rounds", "8"),
                    ("warmup_rounds", "4"),
                    ("updates_per_round", "4"),
                    ("copies_seeded", "5"),
                ],
            ),
            (
                "reputation",
                &[("agents", "30"), ("rounds", "400"), ("warmup", "50")],
            ),
        ];
        for (name, overrides) in shrink {
            let mut p = Params::new();
            for (k, v) in *overrides {
                p.set(*k, *v);
            }
            let req = RunRequest::new(0.0, 1, "none", "fraction", &p);
            let report = reg
                .run(name, &req)
                .unwrap_or_else(|e| panic!("{name} baseline failed: {e}"));
            assert_eq!(&report.scenario, name);
            let again = reg.run(name, &req).unwrap();
            assert_eq!(report, again, "{name}: registry path must be deterministic");
        }
    }

    #[test]
    fn bar_gossip_1m_params_override_the_scale_defaults() {
        // With every scale default overridden explicitly, the 1M spec is
        // plain bar-gossip: the overlay must let the caller's params win.
        let reg = ScenarioRegistry::standard();
        let p = Params::new()
            .with("nodes", "300")
            .with("arrival", "burst:9:250")
            .with("rounds", "4")
            .with("warmup_rounds", "2")
            .with("update_lifetime", "4")
            .with("updates_per_round", "4")
            .with("copies_seeded", "6");
        let req = RunRequest::new(0.0, 1, "none", "fraction", &p);
        let via_1m = reg.run("bar-gossip-1m", &req).unwrap();
        let via_base = reg.run("bar-gossip", &req).unwrap();
        assert_eq!(via_1m, via_base);
    }

    #[test]
    fn registry_matches_direct_scenario_path() {
        // The CLI path (registry) and the library path (Scenario API) must
        // produce identical numbers for identical inputs.
        let reg = ScenarioRegistry::standard();
        let p = Params::new()
            .with("nodes", "50")
            .with("rounds", "10")
            .with("warmup_rounds", "5")
            .with("updates_per_round", "4")
            .with("copies_seeded", "5");
        let req = RunRequest::new(0.3, 7, "trade", "fraction", &p);
        let via_registry = reg.run("bar-gossip", &req).unwrap();

        let cfg = BarGossipConfig::builder()
            .nodes(50)
            .rounds(10)
            .warmup_rounds(5)
            .updates_per_round(4)
            .copies_seeded(5)
            .build()
            .unwrap();
        let plan = AttackPlan::trade_lotus_eater(0.3, AttackPlan::PAPER_SATIATE_FRACTION);
        let direct = lotus_core::scenario::run::<BarGossipSim>(cfg, plan, 7).summarize();
        assert_eq!(via_registry, direct);
    }
}
