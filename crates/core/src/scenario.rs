//! The unified `Scenario` API: one polymorphic driving surface for every
//! substrate.
//!
//! The paper's central claim (Observation 3.1) is substrate-generic: *any*
//! satiation-compatible system is vulnerable to a lotus-eater attack. The
//! interesting science is therefore comparative — run the same attack
//! family against BAR Gossip, a scrip economy, a BitTorrent swarm and the
//! abstract token model, and compare how each responds. This module makes
//! that comparison a first-class operation instead of four parallel
//! copies of the same harness:
//!
//! * [`Scenario`] — the typed driving interface every substrate
//!   implements: `build(cfg, attack, seed)`, `step()`, `report()`. A
//!   scenario is deterministic in its seed: the same
//!   `(config, attack, seed)` triple always produces a bit-identical
//!   report.
//! * [`ScenarioReport`] — the common metric vocabulary
//!   (`overall_delivery`, `targeted_service`, `usable`, plus named custom
//!   metrics) that sweeps, crossover extraction and plotting understand
//!   without knowing the substrate.
//! * [`Summarize`] — the bridge from a substrate's typed report to the
//!   shared vocabulary.
//! * [`DynScenario`] — the type-erased layer: `Box<dyn DynScenario>`
//!   drives any scenario and yields [`ScenarioReport`]s, so registries
//!   and CLIs can dispatch by name.
//!
//! # Example: driving two different substrates through one interface
//!
//! ```
//! use lotus_core::scenario::{run, DynScenario, Scenario, StepOutcome};
//! use lotus_core::attack::TokenAttack;
//! use lotus_core::token::{TokenScenarioConfig, TokenSystem, TokenSystemConfig};
//! use netsim::graph::Graph;
//!
//! let cfg = TokenScenarioConfig::new(
//!     TokenSystemConfig::builder(Graph::complete(20)).tokens(6).build()?,
//!     50,
//! );
//!
//! // Typed driving: full access to the substrate report.
//! let report = run::<TokenSystem>(cfg.clone(), TokenAttack::none(), 7);
//! assert_eq!(report.rounds, 50);
//!
//! // Type-erased driving: only the common vocabulary, any substrate.
//! let mut erased = lotus_core::scenario::boxed::<TokenSystem>(cfg, TokenAttack::none(), 7);
//! let summary = erased.finish_dyn();
//! assert_eq!(summary.scenario, "token");
//! assert!(summary.overall_delivery > 0.9);
//! # Ok::<(), lotus_core::token::ConfigError>(())
//! ```

use crate::faults::{CutStats, FaultCounters};
use netsim::round::RoundSim;
use netsim::Round;

/// What a single [`Scenario::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A round was executed and the scenario can continue.
    Continue,
    /// The scenario has reached its configured horizon (or a terminal
    /// state); further `step` calls are no-ops returning `Done`.
    Done,
}

impl StepOutcome {
    /// Whether the scenario has finished.
    pub fn is_done(self) -> bool {
        matches!(self, StepOutcome::Done)
    }
}

/// A runnable experiment: a substrate plus an attack plus a horizon,
/// deterministic in a single `u64` seed.
///
/// Implementations promise:
///
/// * **Determinism** — `build(cfg, attack, seed)` followed by stepping to
///   completion yields a bit-identical [`Scenario::Report`] for identical
///   inputs, on every platform.
/// * **Idempotent completion** — once `step` returns
///   [`StepOutcome::Done`], further calls keep returning `Done` without
///   changing the report.
///
/// This trait is the only way to run a substrate to completion: [`run`]
/// builds and finishes one, and fixed-horizon substrates implement `step`
/// with [`step_rounds`] over their `RoundSim::round` primitive.
pub trait Scenario: Sized {
    /// Substrate configuration (topology, horizon, protocol parameters).
    type Config: Clone;
    /// Attack specification (who the adversary is and what it does).
    type Attack: Clone;
    /// The substrate's full-fidelity typed report.
    type Report: Clone + Summarize;

    /// Stable scenario name used by registries, reports and CLIs.
    const NAME: &'static str;

    /// Construct the scenario in its initial state.
    ///
    /// # Panics
    ///
    /// Implementations may panic on invalid configurations (all substrate
    /// configs are validated by their builders first).
    fn build(cfg: Self::Config, attack: Self::Attack, seed: u64) -> Self;

    /// Execute one round; report whether the scenario can continue.
    fn step(&mut self) -> StepOutcome;

    /// Snapshot the typed report for the rounds executed so far.
    fn report(&self) -> Self::Report;

    /// The adaptive attacker's per-phase arm trace, when this run is
    /// driven by an [`AdaptivePolicy`](crate::adaptive::AdaptivePolicy)
    /// (substrates expose their schedule stepper's trace). `None` for
    /// every open-loop schedule — the default.
    fn arm_trace(&self) -> Option<&[crate::adaptive::TraceEntry]> {
        None
    }

    /// Step to completion and return the final typed report.
    fn finish(&mut self) -> Self::Report {
        while let StepOutcome::Continue = self.step() {}
        self.report()
    }
}

/// Build and run a scenario to completion: the one-line driving form.
///
/// ```
/// use lotus_core::attack::TokenAttack;
/// use lotus_core::token::{TokenScenarioConfig, TokenSystem, TokenSystemConfig};
/// use netsim::graph::Graph;
///
/// let cfg = TokenScenarioConfig::new(
///     TokenSystemConfig::builder(Graph::complete(16)).tokens(4).build()?,
///     30,
/// );
/// let report = lotus_core::scenario::run::<TokenSystem>(cfg, TokenAttack::none(), 1);
/// assert_eq!(report.rounds, 30);
/// # Ok::<(), lotus_core::token::ConfigError>(())
/// ```
pub fn run<S: Scenario>(cfg: S::Config, attack: S::Attack, seed: u64) -> S::Report {
    S::build(cfg, attack, seed).finish()
}

/// [`Scenario::step`] for a round-based substrate with a fixed horizon:
/// run the next round unless `total` rounds have run, and report
/// [`StepOutcome::Done`] once they have.
pub fn step_rounds<S: RoundSim>(sim: &mut S, total: Round) -> StepOutcome {
    let t = sim.rounds_run();
    if t >= total {
        return StepOutcome::Done;
    }
    sim.round(t);
    if sim.rounds_run() >= total {
        StepOutcome::Done
    } else {
        StepOutcome::Continue
    }
}

/// Build a scenario behind the type-erased [`DynScenario`] interface.
pub fn boxed<S: Scenario + 'static>(
    cfg: S::Config,
    attack: S::Attack,
    seed: u64,
) -> Box<dyn DynScenario> {
    Box::new(S::build(cfg, attack, seed))
}

/// Conversion from a substrate's typed report into the shared metric
/// vocabulary.
pub trait Summarize {
    /// Project the report onto the common [`ScenarioReport`] vocabulary.
    ///
    /// The projection must be pure: calling it twice on the same report
    /// yields identical summaries.
    fn summarize(&self) -> ScenarioReport;
}

/// The substrate-independent report: what every scenario can say about a
/// finished (or in-progress) run.
///
/// The three canonical metrics are chosen so the paper's comparative
/// questions are expressible against any substrate:
///
/// * `overall_delivery` — service delivered to the honest population the
///   attack tries to harm, on a `[0, 1]` scale (delivery fraction,
///   service rate, completion fraction, coverage — whatever "the system
///   works" means for the substrate);
/// * `targeted_service` — service enjoyed by the nodes the attacker
///   showers with gifts (the satiated set);
/// * `usable` — whether the honest population clears the substrate's
///   usability bar (BAR Gossip's 93 % rule, a functioning market, a
///   completed swarm).
///
/// Everything else a substrate knows travels as named custom metrics,
/// kept sorted by key so reports are bit-identical across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Name of the producing scenario (equal to [`Scenario::NAME`]).
    pub scenario: String,
    /// Rounds executed.
    pub rounds: Round,
    /// Service delivered to the honest population (`[0, 1]`).
    pub overall_delivery: f64,
    /// Service enjoyed by the attacker's targets (`[0, 1]`).
    pub targeted_service: f64,
    /// Whether the honest population clears the usability bar.
    pub usable: bool,
    /// Custom metrics, sorted by key.
    metrics: Vec<(String, f64)>,
}

impl ScenarioReport {
    /// Create a report with the canonical metrics and no custom ones.
    pub fn new(
        scenario: impl Into<String>,
        rounds: Round,
        overall_delivery: f64,
        targeted_service: f64,
        usable: bool,
    ) -> Self {
        ScenarioReport {
            scenario: scenario.into(),
            rounds,
            overall_delivery,
            targeted_service,
            usable,
            metrics: Vec::new(),
        }
    }

    /// Attach a custom metric (builder style). Inserts in sorted key
    /// order; re-using a key replaces the previous value.
    pub fn with_metric(mut self, key: impl Into<String>, value: f64) -> Self {
        self.set_metric(key, value);
        self
    }

    /// Attach or replace a custom metric.
    pub fn set_metric(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        match self.metrics.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => self.metrics[i].1 = value,
            Err(i) => self.metrics.insert(i, (key, value)),
        }
    }

    /// Attach the fault counters as `faults_*` metrics; absent without
    /// an active plan, so fault-free reports stay byte-identical.
    pub fn with_fault_counters(self, counters: Option<FaultCounters>) -> Self {
        let Some(f) = counters else {
            return self;
        };
        self.with_metric("faults_dropped", f.dropped as f64)
            .with_metric("faults_duplicated", f.duplicated as f64)
            .with_metric("faults_delayed", f.delayed as f64)
            .with_metric("faults_crashes", f.crashes as f64)
            .with_metric("faults_partition_blocked", f.partition_blocked as f64)
    }

    /// Attach the silence cut-off's precision/recall metrics; absent
    /// without the defense, so defense-free reports stay byte-identical.
    pub fn with_cut_stats(self, cuts: Option<CutStats>) -> Self {
        let Some(c) = cuts else {
            return self;
        };
        self.with_metric("false_cut_rate", c.false_cut_rate())
            .with_metric("attacker_cut_rate", c.attacker_cut_rate())
            .with_metric("cut_precision", c.precision())
            .with_metric("cut_recall", c.attacker_cut_rate())
    }

    /// Look up a metric by name.
    ///
    /// The canonical metrics are addressable alongside the custom ones:
    /// `"overall_delivery"`, `"targeted_service"`, `"usable"` (as
    /// `0.0`/`1.0`) and `"rounds"`.
    pub fn metric(&self, key: &str) -> Option<f64> {
        match key {
            "overall_delivery" => Some(self.overall_delivery),
            "targeted_service" => Some(self.targeted_service),
            "usable" => Some(if self.usable { 1.0 } else { 0.0 }),
            "rounds" => Some(self.rounds as f64),
            _ => self
                .metrics
                .binary_search_by(|(k, _)| k.as_str().cmp(key))
                .ok()
                .map(|i| self.metrics[i].1),
        }
    }

    /// All metric names this report answers to, canonical ones first,
    /// custom ones in sorted order.
    pub fn metric_keys(&self) -> Vec<&str> {
        let mut keys = vec!["overall_delivery", "targeted_service", "usable", "rounds"];
        keys.extend(self.metrics.iter().map(|(k, _)| k.as_str()));
        keys
    }

    /// The custom metrics in sorted key order.
    pub fn custom_metrics(&self) -> impl Iterator<Item = (&str, f64)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Serialize as a single JSON object (no external dependencies; keys
    /// in deterministic order).
    ///
    /// ```
    /// use lotus_core::scenario::ScenarioReport;
    /// let r = ScenarioReport::new("token", 5, 1.0, 1.0, true).with_metric("gini", 0.25);
    /// assert_eq!(
    ///     r.to_json(),
    ///     "{\"scenario\":\"token\",\"rounds\":5,\"overall_delivery\":1,\
    ///      \"targeted_service\":1,\"usable\":true,\"gini\":0.25}"
    /// );
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"scenario\":{}", json_string(&self.scenario)));
        out.push_str(&format!(",\"rounds\":{}", self.rounds));
        out.push_str(&format!(
            ",\"overall_delivery\":{}",
            json_number(self.overall_delivery)
        ));
        out.push_str(&format!(
            ",\"targeted_service\":{}",
            json_number(self.targeted_service)
        ));
        out.push_str(&format!(",\"usable\":{}", self.usable));
        for (k, v) in &self.metrics {
            out.push_str(&format!(",{}:{}", json_string(k), json_number(*v)));
        }
        out.push('}');
        out
    }
}

/// Minimal JSON string escaping (metric keys and scenario names are plain
/// ASCII identifiers, but be safe). Shared with the `lotus-bench` runner
/// so every JSON surface escapes identically.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON-safe float formatting: finite values print shortest-roundtrip,
/// non-finite values become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The type-erased driving interface: what a registry or CLI needs to run
/// *some* scenario without naming its types.
///
/// Blanket-implemented for every [`Scenario`], so
/// `Box<dyn DynScenario>` is always available via [`boxed`].
pub trait DynScenario {
    /// The scenario's stable name ([`Scenario::NAME`]).
    fn name(&self) -> &'static str;

    /// Execute one round; see [`Scenario::step`].
    fn step_dyn(&mut self) -> StepOutcome;

    /// Snapshot the common-vocabulary report for the rounds so far.
    fn report_dyn(&self) -> ScenarioReport;

    /// The adaptive arm trace, if the scenario ran one (see
    /// [`Scenario::arm_trace`]).
    fn arm_trace_dyn(&self) -> Option<&[crate::adaptive::TraceEntry]> {
        None
    }

    /// Step to completion and return the final summary.
    fn finish_dyn(&mut self) -> ScenarioReport {
        while let StepOutcome::Continue = self.step_dyn() {}
        self.report_dyn()
    }
}

impl<S: Scenario> DynScenario for S {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn step_dyn(&mut self) -> StepOutcome {
        Scenario::step(self)
    }

    fn report_dyn(&self) -> ScenarioReport {
        self.report().summarize()
    }

    fn arm_trace_dyn(&self) -> Option<&[crate::adaptive::TraceEntry]> {
        self.arm_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy scenario counting to a horizon.
    #[derive(Debug, Clone)]
    struct Counter {
        horizon: u64,
        at: u64,
        seed: u64,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct CounterReport {
        at: u64,
        seed: u64,
    }

    impl Summarize for CounterReport {
        fn summarize(&self) -> ScenarioReport {
            ScenarioReport::new("counter", self.at, 1.0, 1.0, true)
                .with_metric("seed", self.seed as f64)
        }
    }

    impl Scenario for Counter {
        type Config = u64;
        type Attack = ();
        type Report = CounterReport;
        const NAME: &'static str = "counter";

        fn build(cfg: u64, _attack: (), seed: u64) -> Self {
            Counter {
                horizon: cfg,
                at: 0,
                seed,
            }
        }

        fn step(&mut self) -> StepOutcome {
            if self.at >= self.horizon {
                return StepOutcome::Done;
            }
            self.at += 1;
            if self.at >= self.horizon {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        }

        fn report(&self) -> CounterReport {
            CounterReport {
                at: self.at,
                seed: self.seed,
            }
        }
    }

    #[test]
    fn typed_and_erased_paths_agree() {
        let typed = run::<Counter>(5, (), 9);
        let mut erased = boxed::<Counter>(5, (), 9);
        let summary = erased.finish_dyn();
        assert_eq!(typed.summarize(), summary);
        assert_eq!(summary.rounds, 5);
        assert_eq!(summary.metric("seed"), Some(9.0));
    }

    #[test]
    fn step_after_done_is_idempotent() {
        let mut c = Counter::build(2, (), 0);
        assert_eq!(c.step(), StepOutcome::Continue);
        assert_eq!(c.step(), StepOutcome::Done);
        assert_eq!(c.step(), StepOutcome::Done);
        assert!(c.step().is_done());
        assert_eq!(c.report().at, 2, "done steps must not advance the run");
    }

    #[test]
    fn metric_lookup_covers_canonical_and_custom() {
        let r = ScenarioReport::new("x", 7, 0.5, 0.9, false)
            .with_metric("b", 2.0)
            .with_metric("a", 1.0)
            .with_metric("b", 3.0);
        assert_eq!(r.metric("overall_delivery"), Some(0.5));
        assert_eq!(r.metric("targeted_service"), Some(0.9));
        assert_eq!(r.metric("usable"), Some(0.0));
        assert_eq!(r.metric("rounds"), Some(7.0));
        assert_eq!(r.metric("a"), Some(1.0));
        assert_eq!(r.metric("b"), Some(3.0), "re-set replaces");
        assert_eq!(r.metric("missing"), None);
        assert_eq!(
            r.metric_keys(),
            vec![
                "overall_delivery",
                "targeted_service",
                "usable",
                "rounds",
                "a",
                "b"
            ]
        );
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let r = ScenarioReport::new("a\"b", 1, 1.0, 0.0, true).with_metric("m", f64::NAN);
        let j = r.to_json();
        assert!(j.contains("\"a\\\"b\""));
        assert!(j.contains("\"m\":null"));
        assert_eq!(j, r.to_json());
    }
}
