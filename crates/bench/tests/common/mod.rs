//! The golden fixture harness shared by the schedule, churn and faults
//! suites: one pinned-report row type and the one way to run a row.

use lotus_bench::registry::{Params, RunRequest, ScenarioRegistry};
use lotus_core::scenario::ScenarioReport;

/// One pinned run: a registry `(scenario, attack, seed)` case with its
/// parameters, and the `ScenarioReport::to_json` string it must produce.
pub struct Golden {
    pub scenario: &'static str,
    pub attack: &'static str,
    pub seed: u64,
    pub params: &'static [(&'static str, &'static str)],
    pub json: &'static str,
}

/// Run `g` at attacker fraction 0.3, with `extra` parameters set on top
/// of its own.
///
/// # Panics
///
/// Panics when the registry rejects the case.
pub fn run_case(g: &Golden, extra: &[(&str, &str)]) -> ScenarioReport {
    let reg = ScenarioRegistry::standard();
    let mut p = Params::new();
    for (k, v) in g.params.iter().chain(extra) {
        p.set(*k, *v);
    }
    let req = RunRequest::new(0.3, g.seed, g.attack, "fraction", &p);
    reg.run(g.scenario, &req)
        .unwrap_or_else(|e| panic!("{} {} seed {}: {e}", g.scenario, g.attack, g.seed))
}
