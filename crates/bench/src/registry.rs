//! The scenario registry: every substrate, every attack, one driving API.
//!
//! A [`ScenarioSpec`] describes one registered scenario — its attacks,
//! its parameter table and its report metrics — plus a `build` factory
//! that constructs the substrate through the unified
//! [`Scenario`](lotus_core::scenario::Scenario) API as an unstarted
//! [`DynScenario`]. Each parameter is declared once, as a [`ParamSpec`]
//! in a group the tables share: its [`Kind`] is checked before the
//! builder runs, decides whether `--sweep` may drive it, and its doc is
//! the `--list` line. [`ScenarioRegistry::run`] drives the factory to
//! completion and returns the common-vocabulary [`ScenarioReport`]; the
//! `--bench` timing mode steps the same factory under a timer. The
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

/// String-typed scenario parameters (CLI `--param key=value` pairs). The
/// values stay raw until [`ScenarioRegistry::build`] checks each against
/// its [`ParamSpec`].
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
    /// or any other numeric parameter of the spec. The swept x replaces
    /// any `--param` of the same name.
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
}

/// The values a parameter takes. Counts, probabilities and reals are
/// numeric, and exactly the numeric parameters may be swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A whole number in `u32` range, at least the given minimum.
    Count(u32),
    /// A probability in `[0, 1]`.
    Unit,
    /// A finite non-negative real.
    Real,
    /// A boolean: `1`/`true`/`yes`/`on` or `0`/`false`/`no`/`off`.
    Flag,
    /// One of the listed words.
    Keyword(&'static [&'static str]),
    /// A spec in a grammar only the builder parses.
    Grammar,
}

/// A count with no lower bound beyond zero.
const COUNT: Kind = Kind::Count(0);
/// A count of at least one.
const POSITIVE: Kind = Kind::Count(1);

impl Kind {
    /// Whether `--sweep` may drive a parameter of this kind.
    pub fn is_numeric(self) -> bool {
        matches!(self, Kind::Count(_) | Kind::Unit | Kind::Real)
    }

    /// Check a raw `--param` value.
    fn check<'a>(self, key: &str, raw: &'a str) -> Result<Value<'a>, String> {
        match self {
            Kind::Flag => match raw {
                "1" | "true" | "yes" | "on" => Ok(Value::Flag(true)),
                "0" | "false" | "no" | "off" => Ok(Value::Flag(false)),
                _ => Err(format!("parameter {key}={raw} is not a boolean")),
            },
            Kind::Keyword(words) if words.contains(&raw) => Ok(Value::Text(raw)),
            Kind::Keyword(words) => Err(format!(
                "parameter {key}={raw} is not one of {}",
                words.join(" | ")
            )),
            Kind::Grammar => Ok(Value::Text(raw)),
            numeric => match raw.parse::<f64>() {
                Ok(v) => numeric.check_num(key, v),
                Err(_) => Err(format!("parameter {key}={raw} is not a number")),
            },
        }
    }

    /// Check a numeric value: a parsed `--param` or the swept x.
    fn check_num(self, key: &str, v: f64) -> Result<Value<'static>, String> {
        match self {
            Kind::Count(min) => {
                if v.fract() == 0.0 && (f64::from(min)..=f64::from(u32::MAX)).contains(&v) {
                    // Whole and in range, so the conversion is exact.
                    Ok(Value::Count(v as u32))
                } else if min == 0 {
                    Err(format!("parameter {key}={v} is not a whole number"))
                } else {
                    Err(format!(
                        "parameter {key}={v} is not a whole number of at least {min}"
                    ))
                }
            }
            Kind::Unit if (0.0..=1.0).contains(&v) => Ok(Value::Num(v)),
            Kind::Unit => Err(format!("parameter {key}={v} outside [0, 1]")),
            Kind::Real if v >= 0.0 && v.is_finite() => Ok(Value::Num(v)),
            Kind::Real => Err(format!("parameter {key}={v} is not a non-negative number")),
            _ => unreachable!("parameter {key} is checked as a number"),
        }
    }
}

/// One parameter of a scenario: its name, its [`Kind`] and its `--list`
/// line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSpec {
    /// The `--param` key (and `--sweep` knob, when numeric).
    pub name: &'static str,
    /// The values it takes.
    pub kind: Kind,
    /// What it does (one line).
    pub doc: &'static str,
}

const fn param(name: &'static str, kind: Kind, doc: &'static str) -> ParamSpec {
    ParamSpec { name, kind, doc }
}

/// A checked parameter value.
#[derive(Debug, Clone, Copy)]
enum Value<'a> {
    Count(u32),
    Num(f64),
    Flag(bool),
    Text(&'a str),
}

/// A run request whose parameters passed their kinds' checks: the
/// builders' view of it. The swept x is stored as the value of its knob.
#[derive(Debug, Clone)]
pub struct Args<'a> {
    seed: u64,
    attack: &'a str,
    values: Vec<(&'a str, Value<'a>)>,
}

impl<'a> Args<'a> {
    fn value(&self, key: &str) -> Option<Value<'a>> {
        self.values.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// Whether `key` was supplied or swept.
    fn has(&self, key: &str) -> bool {
        self.value(key).is_some()
    }

    /// Add `value` for `key` unless it was supplied or swept.
    fn or_default(&mut self, key: &'a str, value: Value<'a>) {
        if !self.has(key) {
            self.values.push((key, value));
        }
    }

    // The typed reads. The table fixes each parameter's kind, so a read
    // of the wrong type is a registry bug.
    fn count(&self, key: &str) -> Option<u32> {
        self.value(key).map(|v| match v {
            Value::Count(c) => c,
            _ => unreachable!("parameter {key} is not a count"),
        })
    }

    fn size(&self, key: &str) -> Option<usize> {
        self.count(key).map(wide)
    }

    fn num(&self, key: &str) -> Option<f64> {
        self.value(key).map(|v| match v {
            Value::Num(x) => x,
            _ => unreachable!("parameter {key} is not a real"),
        })
    }

    fn flag(&self, key: &str) -> Option<bool> {
        self.value(key).map(|v| match v {
            Value::Flag(b) => b,
            _ => unreachable!("parameter {key} is not a flag"),
        })
    }

    fn text(&self, key: &str) -> Option<&'a str> {
        self.value(key).map(|v| match v {
            Value::Text(s) => s,
            _ => unreachable!("parameter {key} is not a word or a spec"),
        })
    }
}

/// A count as a `usize`.
fn wide(count: u32) -> usize {
    usize::try_from(count).expect("usize holds every u32")
}

/// A registered scenario: documentation plus the driving function.
pub struct ScenarioSpec {
    /// Registry name (`--scenario` value).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// `(name, doc)` for every supported attack.
    pub attacks: &'static [(&'static str, &'static str)],
    /// The parameter table, as the shared groups it is assembled from.
    pub params: &'static [&'static [ParamSpec]],
    /// Metric names the summary exposes (beyond the canonical four).
    pub metrics: &'static [&'static str],
    /// Default y-axis metric.
    pub default_metric: &'static str,
    /// Build one `(x, seed)` evaluation as an *unstarted* scenario. The
    /// sweep path ([`ScenarioRegistry::run`]) drives it to completion;
    /// the `--bench` timing mode steps the very same factory under a
    /// timer — one grammar, no hand-wired loops.
    pub build: fn(&Args<'_>) -> Result<Box<dyn DynScenario>, String>,
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

    /// Every parameter, in table order.
    pub fn param_specs(&self) -> impl Iterator<Item = &'static ParamSpec> {
        self.params.iter().copied().flatten()
    }

    /// The parameter called `name`.
    pub fn param(&self, name: &str) -> Option<&'static ParamSpec> {
        self.param_specs().find(|p| p.name == name)
    }

    /// Whether `name` is a registered parameter.
    pub fn has_param(&self, name: &str) -> bool {
        self.param(name).is_some()
    }

    /// The knobs `--sweep` may drive: the numeric parameters, in table
    /// order (`fraction` among them).
    pub fn sweeps(&self) -> impl Iterator<Item = &'static str> {
        self.param_specs()
            .filter(|p| p.kind.is_numeric())
            .map(|p| p.name)
    }

    /// Whether `knob` may be swept.
    pub fn has_sweep(&self, knob: &str) -> bool {
        self.param(knob).is_some_and(|p| p.kind.is_numeric())
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
        let (spec, args) = self.check(scenario, req)?;
        let mut built = (spec.build)(&args)?;
        let mut report = built.finish_dyn();
        let learning = matches!(
            parse_adaptive(&args),
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
        let (spec, args) = self.check(scenario, req)?;
        (spec.build)(&args)
    }

    /// Resolve the scenario and attack, and check every supplied
    /// parameter and the swept x against the kinds of the spec's table.
    fn check<'a>(
        &self,
        scenario: &str,
        req: &RunRequest<'a>,
    ) -> Result<(&ScenarioSpec, Args<'a>), String> {
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
        let knob = spec
            .param(req.sweep)
            .filter(|p| p.kind.is_numeric())
            .ok_or_else(|| {
                let sweeps: Vec<&str> = spec.sweeps().collect();
                format!(
                    "scenario {scenario:?} cannot sweep {:?}; sweepable: {}",
                    req.sweep,
                    sweeps.join(", ")
                )
            })?;
        // The swept x comes first, so it wins over a `--param` of its knob.
        let mut values = Vec::with_capacity(req.params.0.len() + 1);
        values.push((knob.name, knob.kind.check_num(knob.name, req.x)?));
        for (key, raw) in &req.params.0 {
            let p = spec.param(key).ok_or_else(|| {
                let known: Vec<&str> = spec.param_specs().map(|p| p.name).collect();
                format!(
                    "scenario {scenario:?} has no parameter {key:?}; known: {}",
                    known.join(", ")
                )
            })?;
            values.push((p.name, p.kind.check(key, raw)?));
        }
        Ok((
            spec,
            Args {
                seed: req.seed,
                attack: req.attack,
                values,
            },
        ))
    }
}

// ---------------------------------------------------------------------
// Shared parameter groups
// ---------------------------------------------------------------------

/// The gossip core every gossip scenario takes.
#[rustfmt::skip]
const GOSSIP_CORE: &[ParamSpec] = &[
    param("nodes", COUNT, "number of nodes (Table 1: 250)"),
    param("updates_per_round", COUNT, "broadcaster batch size (Table 1: 10)"),
    param("update_lifetime", COUNT, "rounds before an update expires (Table 1: 10)"),
    param("copies_seeded", COUNT, "seed copies per update (Table 1: 12)"),
    param("rounds", COUNT, "measured rounds"),
    param("warmup_rounds", COUNT, "warm-up rounds excluded from measurement"),
    param("fraction", Kind::Unit, "attacker fraction when x sweeps another knob"),
    param("satiate_fraction", Kind::Unit,
        "fraction of the system targeted for satiation (paper: 0.70)"),
    param("cutoff", COUNT,
        "silence cut-off defense: distinct accusers needed to cut a silent node (0 = off)"),
];

/// The optimistic push phase (the digest round has none).
#[rustfmt::skip]
const PUSH: &[ParamSpec] = &[param("push_size", COUNT, "optimistic push size (Table 1: 2)")];

/// The BAR Gossip defenses, rotation and run threads.
#[rustfmt::skip]
const BAR_GOSSIP_EXTRAS: &[ParamSpec] = &[
    param("rotation_period", COUNT, "rotate the satiated set every N rounds (0 = static)"),
    param("unbalanced", Kind::Flag, "obedient unbalanced exchanges (Figure 3 defense)"),
    param("rate_limit", COUNT,
        "per-interaction cap on useful updates (per direction on requested updates in the \
         digest round; 0 or >=32 = uncapped)"),
    param("report_obedient", Kind::Unit,
        "fraction of honest nodes reporting excess service (enables report-and-evict)"),
    param("report_quorum", COUNT, "distinct reports needed to evict (default 3)"),
    param("report_excess_slack", COUNT,
        "updates above the cap tolerated before reporting (default 1)"),
    param("run_threads", COUNT,
        "intra-run plan-phase worker threads (0 = auto: LOTUS_RUN_THREADS, else machine \
         parallelism; figures identical for any value; --run-threads)"),
];

/// The digest exchange, its audit defense and the poison attack.
#[rustfmt::skip]
const DIGEST: &[ParamSpec] = &[
    param("digest_bits", POSITIVE,
        "bloom digest width in bits (default 1024; wire cost bits/8 each way)"),
    param("digest_hashes", POSITIVE, "bloom probe count per id (default 4)"),
    param("digest_exact", Kind::Flag,
        "advertise exact per-round region hashes instead of a bloom filter \
         (zero false positives; delivery is identical by construction)"),
    param("audit", Kind::Unit,
        "digest-audit defense: sampling rate per advertised-but-undelivered \
         id, feeding the silence cut-off (0 = off; needs cutoff > 0 to bite)"),
    param("poison_rate", Kind::Unit,
        "poison attack: probability a held, requested update is withheld \
         (default 1.0; small values hide inside the bloom false-positive rate)"),
];

/// Attack timing, population churn and arrivals, and faults: every
/// scheduled substrate takes these.
#[rustfmt::skip]
const TIMING_POPULATION_FAULTS: &[ParamSpec] = &[
    param("faults", Kind::Grammar,
        "fault plan: loss:<p> | dup:<p> | delay:<p> | crash:<p>:<recover> | \
         partition:<start>:<len>:<frac>, combined with '/' (default: none; --faults)"),
    param("fault_loss", Kind::Unit,
        "override (or sweep) the message-loss rate of the fault plan"),
    param("schedule", Kind::Grammar,
        "attack timing: always | at:<r> | window:<a>:<b> | periodic:<p>:<a> | \
         delivery-above:<x> | delivery-below:<x> | targeted-above:<x> | targeted-below:<x> | \
         presence-above:<x> | presence-below:<x> | falsecut-above:<x> | falsecut-below:<x> \
         (default always; --schedule)"),
    param("adaptive", Kind::Grammar,
        "bandit attacker re-planning each phase from observed damage: \
         <policy>,<phase-len>,<epsilon>[,<metric>] with policy epsilon-greedy | ucb | \
         fixed-<dormant|cooperate|defect|rotate> (replaces the schedule; a learning policy \
         adds the metrics adaptive_phases, adaptive_<active|dormant|cooperate|defect|rotate>_share \
         and adaptive_final_arm; --adaptive)"),
    param("adaptive_epsilon", Kind::Real,
        "override (or sweep) the adaptive exploration parameter (epsilon / UCB weight)"),
    param("adaptive_phase", POSITIVE,
        "override (or sweep) the adaptive phase length in rounds"),
    param("churn_leave", Kind::Unit,
        "per-round probability a node goes offline (0 = closed population; --churn)"),
    param("churn_rejoin", Kind::Unit,
        "per-round probability an offline node returns (default 0.25)"),
    param("churn_profile", Kind::Grammar,
        "heterogeneous churn cohorts: none | uniform:<leave>[:<rejoin>] | \
         <w>:<leave>:<rejoin>[/...] (up to 4 weighted classes; replaces \
         churn_leave/churn_rejoin; --churn-profile)"),
    param("arrival", Kind::Grammar,
        "flash-crowd arrivals: none | burst:<round>:<size>[:<period>] | \
         ramp:<start>:<size>[:<rate>] (held-back nodes enter with empty state; --arrival)"),
    param("arrival_size", COUNT,
        "override (or sweep) the flash-crowd size of the configured arrival process"),
];

/// Parse the `faults` / `fault_loss` parameters into a fault plan. The
/// sweepable `fault_loss` override lets X19 drive the loss rate through
/// x while the rest of the plan (crashes, partitions) stays fixed.
fn parse_faults(args: &Args<'_>) -> Result<FaultPlan, String> {
    let plan = match args.text("faults") {
        Some(spec) => FaultPlan::parse(spec)?,
        None => FaultPlan::none(),
    };
    Ok(match args.num("fault_loss") {
        Some(loss) => plan.with_loss(loss),
        None => plan,
    })
}

/// Parse the `adaptive` / `adaptive_phase` / `adaptive_epsilon`
/// parameters into a bandit spec. The numeric overrides are sweepable
/// (`--sweep adaptive_epsilon` drives x through them) and imply the
/// default epsilon-greedy policy when `adaptive` itself is absent.
fn parse_adaptive(args: &Args<'_>) -> Result<Option<AdaptiveSpec>, String> {
    let base = match args.text("adaptive") {
        Some(spec) => Some(AdaptiveSpec::parse(spec)?),
        None => None,
    };
    let phase = args.count("adaptive_phase");
    let epsilon = args.num("adaptive_epsilon");
    let mut spec = match (base, phase, epsilon) {
        (None, None, None) => return Ok(None),
        (Some(s), _, _) => s,
        (None, _, _) => AdaptiveSpec::epsilon_greedy(
            AdaptiveSpec::DEFAULT_PHASE_LEN,
            AdaptiveSpec::DEFAULT_EPSILON,
        ),
    };
    if let Some(p) = phase {
        spec.phase_len = u64::from(p);
    }
    if let Some(e) = epsilon {
        if matches!(spec.policy, PolicyKind::EpsilonGreedy) && e > 1.0 {
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
fn parse_timing(args: &Args<'_>) -> Result<AttackSchedule, String> {
    let schedule = match args.text("schedule") {
        Some(spec) => AttackSchedule::parse(spec)?,
        None => AttackSchedule::always(),
    };
    match parse_adaptive(args)? {
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

/// Attach the arm-trace convergence metrics to an adaptive run's report.
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

/// Resolve the full population axis: the heterogeneous `churn_profile`
/// (which supersedes the uniform `churn_leave`/`churn_rejoin` pair — the
/// two spellings are mutually exclusive) plus the `arrival` flash-crowd
/// process with its sweepable `arrival_size` override.
fn parse_population(args: &Args<'_>) -> Result<(ChurnProfile, ArrivalProcess), String> {
    let profile = match args.text("churn_profile") {
        Some(spec) => {
            if args.has("churn_leave") || args.has("churn_rejoin") {
                return Err(
                    "churn_profile replaces the uniform axis: drop churn_leave/churn_rejoin \
                     (use uniform:<leave>:<rejoin> inside the profile instead)"
                        .to_string(),
                );
            }
            ChurnProfile::parse(spec)?
        }
        None => ChurnProfile::uniform(ChurnSpec::new(
            args.num("churn_leave").unwrap_or(0.0),
            args.num("churn_rejoin").unwrap_or(0.25),
        )),
    };
    let mut arrival = match args.text("arrival") {
        Some(spec) => ArrivalProcess::parse(spec)?,
        None => ArrivalProcess::None,
    };
    if let Some(size) = args.count("arrival_size") {
        if !arrival.is_some() {
            return Err(
                "arrival_size needs an arrival process: pass arrival=burst:... or ramp:..."
                    .to_string(),
            );
        }
        arrival = arrival.with_size(size);
    }
    Ok((profile, arrival))
}

// ---------------------------------------------------------------------
// bar-gossip
// ---------------------------------------------------------------------

/// The attacks of every BAR Gossip scenario but the digest one's poison.
const GOSSIP_ATTACKS: &[(&str, &str)] = &[
    ("none", "no attack (baseline)"),
    ("crash", "attacker nodes go silent"),
    ("ideal", "ideal lotus-eater: out-of-band instant forwarding"),
    ("trade", "trade lotus-eater: in-protocol give-everything"),
    (
        "masquerade",
        "plausibly-deniable defection: silence rate tracks the ambient fault rate",
    ),
];

/// The metrics of every BAR Gossip scenario; the digest one adds its own.
const BAR_GOSSIP_METRICS: &[&str] = &[
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
];

/// The small gossip configuration of `--bench`.
const GOSSIP_BENCH: &[(&str, &str)] = &[
    ("nodes", "60"),
    ("rounds", "12"),
    ("warmup_rounds", "6"),
    ("updates_per_round", "4"),
    ("copies_seeded", "6"),
];

fn bar_gossip_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "bar-gossip",
        about: "BAR Gossip streaming (the paper's §2 evaluation substrate)",
        attacks: GOSSIP_ATTACKS,
        params: &[
            GOSSIP_CORE,
            PUSH,
            BAR_GOSSIP_EXTRAS,
            TIMING_POPULATION_FAULTS,
        ],
        metrics: BAR_GOSSIP_METRICS,
        default_metric: "isolated_delivery",
        build: build_bar_gossip,
        bench_params: GOSSIP_BENCH,
    }
}

fn bar_gossip_config(args: &Args<'_>) -> Result<BarGossipConfig, String> {
    let mut b = BarGossipConfig::builder();
    if let Some(v) = args.count("nodes") {
        b = b.nodes(v);
    }
    if let Some(v) = args.count("updates_per_round") {
        b = b.updates_per_round(v);
    }
    if let Some(v) = args.count("update_lifetime") {
        b = b.update_lifetime(v);
    }
    if let Some(v) = args.count("copies_seeded") {
        b = b.copies_seeded(v);
    }
    if let Some(v) = args.count("push_size") {
        b = b.push_size(v);
    }
    if let Some(v) = args.count("rounds") {
        b = b.rounds(v);
    }
    if let Some(v) = args.count("warmup_rounds") {
        b = b.warmup_rounds(v);
    }
    if args.flag("unbalanced").unwrap_or(false) {
        b = b.unbalanced_exchanges(true);
    }
    if let Some(v) = args.count("rate_limit") {
        // The X9 plotting convention: the unbounded point sits at 32.
        b = b.rate_limit(if v == 0 || v >= 32 { None } else { Some(v) });
    }
    if let Some(ob) = args.num("report_obedient") {
        b = b.report_defense(ReportConfig {
            obedient_fraction: ob,
            quorum: args.count("report_quorum").unwrap_or(3),
            excess_slack: args.count("report_excess_slack").unwrap_or(1),
        });
    }
    if let Some(q) = args.count("cutoff") {
        b = b.cutoff_quorum(if q == 0 { None } else { Some(q) });
    }
    if let Some(v) = args.size("run_threads") {
        b = b.run_threads(v);
    }
    let (churn, arrival) = parse_population(args)?;
    b = b.churn(churn).arrival(arrival).faults(parse_faults(args)?);
    b.build()
        .map_err(|e| format!("invalid bar-gossip config: {e}"))
}

fn bar_gossip_plan(args: &Args<'_>) -> Result<AttackPlan, String> {
    let fraction = args.num("fraction").unwrap_or(0.0);
    let satiate = args
        .num("satiate_fraction")
        .unwrap_or(AttackPlan::PAPER_SATIATE_FRACTION);
    let mut plan = match args.attack {
        "none" => AttackPlan::none(),
        "crash" => AttackPlan::crash(fraction),
        "ideal" => AttackPlan::ideal_lotus_eater(fraction, satiate),
        "trade" => AttackPlan::trade_lotus_eater(fraction, satiate),
        "masquerade" => AttackPlan::masquerade(fraction),
        // Only reachable through the digest spec (attack names are
        // validated against each spec's list before build).
        "poison" => AttackPlan::poison(fraction, args.num("poison_rate").unwrap_or(1.0)),
        other => return Err(format!("unknown bar-gossip attack {other:?}")),
    };
    let timing = parse_timing(args)?;
    let rotation = args.count("rotation_period").unwrap_or(0);
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

fn build_bar_gossip(args: &Args<'_>) -> Result<Box<dyn DynScenario>, String> {
    let cfg = bar_gossip_config(args)?;
    let plan = bar_gossip_plan(args)?;
    Ok(boxed::<BarGossipSim>(cfg, plan, args.seed))
}

/// The digest-exchange configuration of bar-gossip: the two-leg
/// advertise-then-diff round over [`lotus_core::digest`] replaces the
/// classic full-window exchange phases, hosting the
/// advertise-then-withhold (`poison`) attack and the digest-audit
/// defense alongside every classic attack.
fn bar_gossip_digest_spec() -> ScenarioSpec {
    const ATTACKS: &[(&str, &str)] = &[
        GOSSIP_ATTACKS[0],
        GOSSIP_ATTACKS[1],
        GOSSIP_ATTACKS[2],
        GOSSIP_ATTACKS[3],
        GOSSIP_ATTACKS[4],
        (
            "poison",
            "advertise-then-withhold: truthful digest, then withhold requested \
             updates at poison_rate (deniable against bloom false positives)",
        ),
    ];
    const METRICS: &[&str] = &[
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
    ];
    ScenarioSpec {
        name: "bar-gossip-digest",
        about: "bar-gossip over a two-leg digest exchange (advertise, diff, transfer)",
        attacks: ATTACKS,
        params: &[
            GOSSIP_CORE,
            BAR_GOSSIP_EXTRAS,
            DIGEST,
            TIMING_POPULATION_FAULTS,
        ],
        metrics: METRICS,
        default_metric: "isolated_delivery",
        build: build_bar_gossip_digest,
        bench_params: GOSSIP_BENCH,
    }
}

fn build_bar_gossip_digest(args: &Args<'_>) -> Result<Box<dyn DynScenario>, String> {
    let mut cfg = bar_gossip_config(args)?;
    cfg.digest = Some(DigestExchangeConfig {
        bits: args.count("digest_bits").unwrap_or(1024),
        hashes: args.count("digest_hashes").unwrap_or(4),
        exact: args.flag("digest_exact").unwrap_or(false),
        audit: args.num("audit").unwrap_or(0.0),
    });
    // The builder validated the base config; revalidate for the digest
    // block set after the fact.
    cfg.validate()
        .map_err(|e| format!("invalid bar-gossip-digest config: {e}"))?;
    let plan = bar_gossip_plan(args)?;
    Ok(boxed::<BarGossipSim>(cfg, plan, args.seed))
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
        build: build_bar_gossip_1m,
        bench_params: &[],
        ..base
    }
}

fn build_bar_gossip_1m(args: &Args<'_>) -> Result<Box<dyn DynScenario>, String> {
    let mut scaled = args.clone();
    scaled.or_default("nodes", Value::Count(1_000_000));
    // A run executes warmup + measured + lifetime drain rounds (2+4+4 =
    // 10 here); the 990k held-back nodes burst in at the final round, so
    // every benched run pays exactly one full-crowd round — the engine's
    // O(active) steady state for nine steps, then a million-node engage
    // and exchange round. Move the burst earlier (e.g.
    // --param arrival=burst:5:990000) to land the crowd inside the
    // measured metric window instead; each earlier round is another
    // full-crowd round of wall-clock.
    scaled.or_default("arrival", Value::Text("burst:9:990000"));
    scaled.or_default("rounds", Value::Count(4));
    scaled.or_default("warmup_rounds", Value::Count(2));
    scaled.or_default("update_lifetime", Value::Count(4));
    scaled.or_default("updates_per_round", Value::Count(4));
    scaled.or_default("copies_seeded", Value::Count(6));
    build_bar_gossip(&scaled)
}

// ---------------------------------------------------------------------
// scrip
// ---------------------------------------------------------------------

fn scrip_spec() -> ScenarioSpec {
    #[rustfmt::skip]
    const PARAMS: &[ParamSpec] = &[
        param("agents", COUNT, "number of agents"),
        param("money_per_agent", COUNT, "initial scrip per agent (the money supply)"),
        param("threshold", COUNT, "stop-providing balance threshold k"),
        param("availability", Kind::Unit, "probability an agent can serve in a round"),
        param("altruists", COUNT, "number of always-free providers"),
        param("adaptive_thresholds", Kind::Flag,
            "agents adapt their thresholds (altruist-crash dynamics)"),
        param("rounds", COUNT, "measured rounds"),
        param("warmup", COUNT, "warm-up rounds"),
        param("fraction", Kind::Unit, "targeted fraction when x sweeps another knob"),
        param("endowment", Kind::Unit,
            "attacker's share of the money supply (default 1.0 = all of it)"),
    ];
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
        params: &[PARAMS, TIMING_POPULATION_FAULTS],
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

fn build_scrip(args: &Args<'_>) -> Result<Box<dyn DynScenario>, String> {
    let mut b = ScripConfig::builder();
    if let Some(v) = args.count("agents") {
        b = b.agents(v);
    }
    if let Some(v) = args.count("money_per_agent") {
        b = b.money_per_agent(v);
    }
    if let Some(v) = args.count("threshold") {
        b = b.threshold(v);
    }
    if let Some(v) = args.num("availability") {
        b = b.availability(v);
    }
    if let Some(v) = args.count("altruists") {
        b = b.altruists(v);
    }
    if let Some(v) = args.flag("adaptive_thresholds") {
        b = b.adaptive(v);
    }
    if let Some(v) = args.count("rounds") {
        b = b.rounds(u64::from(v));
    }
    if let Some(v) = args.count("warmup") {
        b = b.warmup(u64::from(v));
    }
    let (churn, arrival) = parse_population(args)?;
    b = b
        .schedule(parse_timing(args)?)
        .churn(churn)
        .arrival(arrival)
        .faults(parse_faults(args)?);
    let cfg = b
        .build()
        .map_err(|e| format!("invalid scrip config: {e}"))?;
    let endowment = args.num("endowment").unwrap_or(1.0);
    let attack = match args.attack {
        "none" => ScripAttack::None,
        "lotus-eater" => ScripAttack::lotus_eater(args.num("fraction").unwrap_or(0.0), endowment),
        "retainer" => ScripAttack::retainer(endowment),
        other => return Err(format!("unknown scrip attack {other:?}")),
    };
    Ok(boxed::<ScripSim>(cfg, attack, args.seed))
}

// ---------------------------------------------------------------------
// bittorrent
// ---------------------------------------------------------------------

fn bittorrent_spec() -> ScenarioSpec {
    #[rustfmt::skip]
    const PARAMS: &[ParamSpec] = &[
        param("leechers", COUNT, "number of leechers"),
        param("origin_seeds", COUNT, "number of origin seeds"),
        param("pieces", COUNT, "pieces in the file"),
        param("unchoke_slots", COUNT, "tit-for-tat unchoke slots per peer"),
        param("piece_policy", Kind::Keyword(&["rarest", "random"]),
            "piece selection: rarest | random"),
        param("seed_after_completion", COUNT, "rounds a finished leecher lingers as a seed"),
        param("max_rounds", COUNT, "simulation horizon"),
        param("fraction", Kind::Unit, "targeted leecher fraction when x sweeps another knob"),
        param("attacker_peers", COUNT, "number of attacker peers (0 = no attack)"),
        param("attacker_slots", COUNT, "upload slots per attacker peer"),
        param("target_policy", Kind::Keyword(&["random", "rare"]),
            "target choice: random | rare (rare-piece holders)"),
    ];
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
        params: &[PARAMS, TIMING_POPULATION_FAULTS],
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

fn build_bittorrent(args: &Args<'_>) -> Result<Box<dyn DynScenario>, String> {
    let mut b = SwarmConfig::builder();
    if let Some(v) = args.count("leechers") {
        b = b.leechers(v);
    }
    if let Some(v) = args.count("origin_seeds") {
        b = b.seeds(v);
    }
    if let Some(v) = args.count("pieces") {
        b = b.pieces(v);
    }
    if let Some(v) = args.count("unchoke_slots") {
        b = b.unchoke_slots(v);
    }
    if let Some(v) = args.count("seed_after_completion") {
        b = b.seed_after_completion(v);
    }
    if let Some(v) = args.count("max_rounds") {
        b = b.max_rounds(u64::from(v));
    }
    if args.text("piece_policy") == Some("random") {
        b = b.piece_policy(PiecePolicy::Random);
    }
    let (churn, arrival) = parse_population(args)?;
    b = b.churn(churn).arrival(arrival).faults(parse_faults(args)?);
    let cfg = b
        .build()
        .map_err(|e| format!("invalid bittorrent config: {e}"))?;
    let attack = match args.attack {
        "none" => SwarmAttack::none(),
        "satiate" => {
            let peers = args.count("attacker_peers").unwrap_or(4);
            let slots = args.count("attacker_slots").unwrap_or(8);
            let fraction = args.num("fraction").unwrap_or(0.33);
            let policy = if args.text("target_policy") == Some("rare") {
                TargetPolicy::RarePieceHolders
            } else {
                TargetPolicy::Random
            };
            if peers == 0 || fraction <= 0.0 {
                SwarmAttack::none()
            } else {
                SwarmAttack::satiate(peers, slots, fraction, policy)
            }
        }
        other => return Err(format!("unknown bittorrent attack {other:?}")),
    };
    let attack = attack.with_schedule(parse_timing(args)?);
    Ok(boxed::<SwarmSim>(cfg, attack, args.seed))
}

// ---------------------------------------------------------------------
// token
// ---------------------------------------------------------------------

fn token_spec() -> ScenarioSpec {
    #[rustfmt::skip]
    const PARAMS: &[ParamSpec] = &[
        param("nodes", COUNT, "number of nodes (complete/er/geometric graphs)"),
        param("tokens", COUNT, "size of the token universe"),
        param("altruism", Kind::Unit, "probability a satiated node still responds"),
        param("contacts_per_round", COUNT, "gossip contacts per node per round"),
        param("rounds", COUNT, "simulation horizon (default 150)"),
        param("graph", Kind::Keyword(&["complete", "grid", "er", "geometric"]),
            "topology: complete | grid | er | geometric"),
        param("rows", COUNT, "grid rows"),
        param("cols", COUNT, "grid columns"),
        param("er_p", Kind::Unit, "Erdős–Rényi edge probability"),
        param("radius", Kind::Real, "random-geometric connection radius"),
        param("allocation", Kind::Keyword(&["uniform", "rare", "rare-spread"]),
            "initial allocation: uniform | rare | rare-spread"),
        param("copies", COUNT, "copies per token (uniform) / per non-rare token (rare)"),
        param("rare_holders", POSITIVE,
            "initial holders of token 0 (rare-spread allocation; at most the node count)"),
        param("redundancy", COUNT, "coding defense: satiation needs (tokens - redundancy) tokens"),
        param("fraction", Kind::Unit, "satiated fraction when x sweeps another knob"),
        param("token", COUNT, "which token rare-holders chases (default 0)"),
        param("budget", COUNT, "satiations per round the attacker can afford (0 = unlimited)"),
        param("period", POSITIVE, "rotation period in rounds (rotating attack)"),
        param("cut_col", COUNT, "which grid column to cut (default cols/2)"),
    ];
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
        params: &[PARAMS, TIMING_POPULATION_FAULTS],
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

/// The grid shape `(rows, cols)` of the grid topology and the cut-column
/// attack.
fn token_grid(args: &Args<'_>) -> (u32, u32) {
    (
        args.count("rows").unwrap_or(8),
        args.count("cols").unwrap_or(12),
    )
}

/// Draw the configured topology, re-drawing random graphs (up to 50
/// attempts) until connected, as every token experiment requires.
fn token_graph(args: &Args<'_>) -> Result<Graph, String> {
    let nodes = args.count("nodes").unwrap_or(60);
    match args.text("graph") {
        None | Some("complete") => Ok(Graph::complete(nodes)),
        Some("grid") => {
            let (rows, cols) = token_grid(args);
            Ok(Graph::grid(rows, cols, false))
        }
        Some(kind) => {
            let rng = DetRng::seed_from(args.seed).fork("topology");
            for attempt in 0..50 {
                let mut draw = rng.fork_idx("try", attempt);
                let g = if kind == "er" {
                    Graph::erdos_renyi(nodes, args.num("er_p").unwrap_or(0.08), &mut draw)
                } else {
                    Graph::random_geometric(nodes, args.num("radius").unwrap_or(0.17), &mut draw)
                };
                if g.is_connected() {
                    return Ok(g);
                }
            }
            Err(format!("no connected {kind} draw within 50 attempts"))
        }
    }
}

fn token_allocation(args: &Args<'_>, n: u32, tokens: u32) -> Result<Option<Allocation>, String> {
    let copies = args.count("copies");
    match args.text("allocation") {
        None | Some("uniform") => Ok(copies.map(|c| Allocation::UniformCopies { copies: wide(c) })),
        Some("rare") => Ok(Some(Allocation::RareToken {
            holder: NodeId(0),
            copies: wide(copies.unwrap_or(4)),
        })),
        Some(_) => {
            // rare-spread: token 0 starts at the first `rare_holders`
            // nodes; every other token gets `copies` deterministically
            // scattered holders (the X3 rare-token-denial layout).
            let holders = args.count("rare_holders").unwrap_or(1);
            if holders > n {
                return Err(format!(
                    "parameter rare_holders={holders} out of range for a {n}-node graph"
                ));
            }
            let mut lists: Vec<Vec<NodeId>> = vec![(0..holders).map(NodeId).collect()];
            for t in 1..tokens {
                lists.push(
                    (0..copies.unwrap_or(4))
                        .map(|i| NodeId((t * 5 + i) % n))
                        .collect(),
                );
            }
            Ok(Some(Allocation::Explicit(lists)))
        }
    }
}

fn token_attack(args: &Args<'_>, graph: &Graph, tokens: u32) -> Result<TokenAttack, String> {
    let attack = match args.attack {
        "none" => TokenAttack::none(),
        "random-fraction" => TokenAttack::random_fraction(args.num("fraction").unwrap_or(0.5)),
        "rare-holders" => {
            let token = args.count("token").unwrap_or(0);
            if token >= tokens {
                return Err(format!(
                    "parameter token={token} out of range for tokens={tokens}"
                ));
            }
            TokenAttack::rare_holders(wide(token))
        }
        "rotating" => TokenAttack::rotating(
            args.num("fraction").unwrap_or(0.3),
            u64::from(args.count("period").unwrap_or(10)),
        ),
        "cut-column" => {
            let (rows, cols) = token_grid(args);
            let col = args.count("cut_col").unwrap_or(cols / 2);
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
    Ok(match args.size("budget") {
        Some(budget) if budget > 0 => attack.budgeted(budget),
        _ => attack,
    })
}

fn build_token(args: &Args<'_>) -> Result<Box<dyn DynScenario>, String> {
    let graph = token_graph(args)?;
    let n = graph.len();
    let tokens = args.count("tokens").unwrap_or(12);
    let mut b = TokenSystemConfig::builder(graph).tokens(wide(tokens));
    if let Some(v) = args.num("altruism") {
        b = b.altruism(v);
    }
    if let Some(v) = args.size("contacts_per_round") {
        b = b.contacts_per_round(v);
    }
    let redundancy = args.count("redundancy").unwrap_or(0);
    if redundancy > 0 {
        b = b.sat(SatFunction::AnyK(wide(
            tokens.saturating_sub(redundancy).max(1),
        )));
    }
    if let Some(alloc) = token_allocation(args, n, tokens)? {
        b = b.allocation(alloc);
    }
    let cfg = b
        .build()
        .map_err(|e| format!("invalid token config: {e}"))?;
    // Planned on the validated graph: the cut planner assumes node 0.
    let attack = token_attack(args, &cfg.graph, tokens)?;
    let rounds = u64::from(args.count("rounds").unwrap_or(150));
    let (churn, arrival) = parse_population(args)?;
    let scenario_cfg = TokenScenarioConfig::new(cfg, rounds)
        .with_schedule(parse_timing(args)?)
        .with_churn(churn)
        .with_arrival(arrival)
        .with_faults(parse_faults(args)?);
    Ok(boxed::<TokenSystem>(scenario_cfg, attack, args.seed))
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
        params: &[GOSSIP_CORE, PUSH, TIMING_POPULATION_FAULTS],
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
        bench_params: GOSSIP_BENCH,
    }
}

fn build_scrip_gossip(args: &Args<'_>) -> Result<Box<dyn DynScenario>, String> {
    let base = bar_gossip_config(args)?;
    let cfg = ScripGossipConfig::new(base);
    let plan = bar_gossip_plan(args)?;
    Ok(boxed::<ScripGossipSim>(cfg, plan, args.seed))
}

// ---------------------------------------------------------------------
// reputation
// ---------------------------------------------------------------------

fn reputation_spec() -> ScenarioSpec {
    #[rustfmt::skip]
    const PARAMS: &[ParamSpec] = &[
        param("agents", COUNT, "number of agents"),
        param("threshold", Kind::Real, "stop-volunteering reputation threshold"),
        param("decay", Kind::Unit, "multiplicative per-round reputation decay"),
        param("availability", Kind::Unit, "probability an agent can serve in a round"),
        param("rounds", COUNT, "measured rounds"),
        param("warmup", COUNT, "warm-up rounds"),
        param("fraction", Kind::Unit, "targeted fraction when x sweeps another knob"),
    ];
    ScenarioSpec {
        name: "reputation",
        about: "Minted reputation as the satiation currency (no supply wall, only a bill)",
        attacks: &[
            ("none", "no attack (baseline)"),
            ("inflate", "fake praise tops targets up to their thresholds"),
        ],
        params: &[PARAMS],
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

fn build_reputation(args: &Args<'_>) -> Result<Box<dyn DynScenario>, String> {
    let mut cfg = ReputationConfig::default();
    cfg.agents = args.count("agents").unwrap_or(cfg.agents);
    cfg.threshold = args.num("threshold").unwrap_or(cfg.threshold);
    cfg.decay = args.num("decay").unwrap_or(cfg.decay);
    cfg.availability = args.num("availability").unwrap_or(cfg.availability);
    cfg.rounds = args.count("rounds").map_or(cfg.rounds, u64::from);
    cfg.warmup = args.count("warmup").map_or(cfg.warmup, u64::from);
    cfg.validate()
        .map_err(|e| format!("invalid reputation config: {e}"))?;
    let attack = match args.attack {
        "none" => ReputationAttack::None,
        "inflate" => ReputationAttack::Inflate {
            target_fraction: args.num("fraction").unwrap_or(0.0),
        },
        other => return Err(format!("unknown reputation attack {other:?}")),
    };
    Ok(boxed::<ReputationSim>(cfg, attack, args.seed))
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
            assert!(
                spec.has_sweep("fraction"),
                "{}: x defaults to fraction",
                spec.name
            );
            let names: Vec<&str> = spec.param_specs().map(|p| p.name).collect();
            for (i, name) in names.iter().enumerate() {
                assert!(
                    !names[..i].contains(name),
                    "{}: {name} is declared twice",
                    spec.name
                );
            }
            for (key, _) in spec.bench_params {
                assert!(spec.has_param(key), "{}: bench param {key}", spec.name);
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
        // Every scenario checks each value against its parameter's kind,
        // whether or not the attack reads it: an out-of-range probability
        // or a non-whole count must fail with the parameter's name, never
        // run as a clamped, truncated or saturated value.
        const UNIT: &str = "outside [0, 1]";
        const WHOLE: &str = "is not a whole number";
        const REAL: &str = "is not a non-negative number";
        let picked: &[(&str, &str, &str, &str)] = &[
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
        for spec in reg.specs() {
            let attack = spec.attacks.last().expect("an attack").0;
            // Out-of-kind values for every numeric parameter of the table.
            let mut cases: Vec<(&str, &str, &str, &str)> = picked.to_vec();
            for p in spec.param_specs() {
                let (bad, expected): (&[&str], &str) = match p.kind {
                    Kind::Count(0) => (&["0.5", "-1", "1e12"], WHOLE),
                    Kind::Count(_) => (&["0", "0.5", "-1", "1e12"], WHOLE),
                    Kind::Unit => (&["1.5", "-0.5", "NaN"], UNIT),
                    Kind::Real => (&["-1", "NaN", "inf"], REAL),
                    Kind::Flag => (&["maybe"], "is not a boolean"),
                    Kind::Keyword(_) => (&["bogus"], "is not one of"),
                    Kind::Grammar => continue,
                };
                cases.extend(bad.iter().map(|v| (attack, p.name, *v, expected)));
            }
            for (attack, key, value, expected) in cases {
                if !spec.has_param(key) || !spec.has_attack(attack) {
                    continue;
                }
                let p = Params::new().with(key, value);
                // x drives an unrelated knob (at an in-kind value) so
                // `fraction` is read from the params.
                let knob = spec
                    .param_specs()
                    .find(|k| k.kind.is_numeric() && k.name != key && k.name != "fraction")
                    .expect("a second numeric knob");
                let x = if let Kind::Count(_) = knob.kind {
                    1.0
                } else {
                    0.2
                };
                let req = RunRequest::new(x, 1, attack, knob.name, &p);
                let err = reg
                    .build(spec.name, &req)
                    .err()
                    .unwrap_or_else(|| panic!("{}: {key}={value} must be rejected", spec.name));
                assert!(
                    err.contains(&format!("parameter {key}=")) && err.contains(expected),
                    "{}: {key}={value} gave {err:?}",
                    spec.name
                );
            }
            // The swept x is checked the same way, the fraction included.
            let p = Params::new();
            for x in [1.5, -0.5, f64::NAN] {
                let req = RunRequest::new(x, 1, attack, "fraction", &p);
                let err = reg.build(spec.name, &req).err().expect("x outside [0, 1]");
                assert!(
                    err.contains("parameter fraction=") && err.contains(UNIT),
                    "{err:?}"
                );
            }
        }
    }

    #[test]
    fn sweeping_a_knob_equals_setting_it() {
        // Sweepability is derived from the kinds, so every numeric
        // parameter must be read through the swept value: `--sweep p` at
        // x = v and `--param p=v` give the same report or the same error.
        let reg = ScenarioRegistry::standard();
        for spec in reg.specs().iter().filter(|s| s.name != "bar-gossip-1m") {
            let attack = spec.attacks[1].0;
            let bench = spec
                .bench_params
                .iter()
                .fold(Params::new(), |p, &(k, v)| p.with(k, v));
            // x is the fraction by default, so it is left out here.
            for p in spec.sweeps().filter(|&p| p != "fraction") {
                // One more than the small config's value, where it sets one.
                let small = bench.get(p).and_then(|v| v.parse::<f64>().ok());
                let v = match spec.param(p).expect("listed").kind {
                    Kind::Count(_) => small.map_or(3.0, |v| v + 1.0),
                    Kind::Unit => 0.25,
                    _ => 0.5,
                };
                let run = |params: &Params, sweep: &str, x: f64| {
                    let req = RunRequest::new(x, 1, attack, sweep, params);
                    format!("{:?}", reg.run(spec.name, &req))
                };
                let swept = run(&bench.clone().with("fraction", "0.3"), p, v);
                let set = run(&bench.clone().with(p, v.to_string()), "fraction", 0.3);
                assert_eq!(swept, set, "{}: --sweep {p} vs --param {p}={v}", spec.name);
            }
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
