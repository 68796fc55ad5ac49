//! The unified experiment runner behind the `lotus-bench` binary.
//!
//! One CLI drives any registered scenario:
//!
//! ```text
//! lotus-bench --scenario bar-gossip --attack trade --format json
//! lotus-bench --scenario bar-gossip --attack crash,ideal,trade \
//!             --fraction-grid 0:1 --seeds 5
//! lotus-bench --scenario token --sweep altruism --fraction-grid 0:0.5 \
//!             --curve "random-fraction,fraction=0.5" --curve none
//! lotus-bench --preset fig1 --quick
//! lotus-bench --list
//! ```
//!
//! Every evaluation goes through
//! [`ScenarioRegistry::run`](crate::registry::ScenarioRegistry::run) —
//! i.e. through the unified `Scenario` API — and is replicated across
//! seeds by the `lotus-core` sweep harness, so the CLI, the
//! [`presets`](crate::presets) and ad-hoc library sweeps all produce
//! identical numbers for identical inputs.

use crate::registry::{Params, RunRequest, ScenarioRegistry};
use crate::timing::{bench_scenario, BenchRecord, TimingStats};
use crate::Fidelity;
use lotus_core::report::{CrossoverRecord, UsabilityThreshold};
use lotus_core::sweep::{grid, sweep_stats_salvaged, SweepConfig};
use netsim::metrics::Series;
use netsim::plot::{render, PlotConfig};
use netsim::table::Table;

/// One curve of the requested figure: an attack (plus overrides) against
/// a scenario.
#[derive(Debug, Clone, Default)]
pub struct CurveSpec {
    /// Display label (defaults to the attack name).
    pub label: Option<String>,
    /// Scenario override (defaults to the global `--scenario`); lets one
    /// figure compare substrates, e.g. vanilla vs scrip-mediated gossip.
    pub scenario: Option<String>,
    /// Attack name.
    pub attack: String,
    /// Metric override (defaults to the global/default metric).
    pub metric: Option<String>,
    /// Paper-reported break point for the crossover table (`None` =
    /// listed with no paper value; absent key = not listed).
    pub paper: Option<Option<f64>>,
    /// Curve-local parameter overrides.
    pub params: Params,
}

impl CurveSpec {
    /// Parse a `--curve` value: `attack[,key=value]*`, with the reserved
    /// keys `label=`, `scenario=`, `metric=` and `paper=` (`paper=-` lists
    /// the curve in the crossover table without a paper value).
    ///
    /// # Errors
    ///
    /// Returns a message on an empty spec or malformed `key=value` pair.
    pub fn parse(spec: &str) -> Result<CurveSpec, String> {
        let mut parts = spec.split(',').map(str::trim);
        let attack = parts
            .next()
            .filter(|a| !a.is_empty())
            .ok_or_else(|| format!("empty curve spec {spec:?}"))?;
        let mut curve = CurveSpec {
            attack: attack.to_string(),
            ..CurveSpec::default()
        };
        for part in parts {
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("curve option {part:?} is not key=value"))?;
            match key {
                "label" => curve.label = Some(value.to_string()),
                "scenario" => curve.scenario = Some(value.to_string()),
                "metric" => curve.metric = Some(value.to_string()),
                "paper" => {
                    curve.paper =
                        Some(if value == "-" {
                            None
                        } else {
                            Some(value.parse::<f64>().map_err(|_| {
                                format!("paper break point {value:?} is not a number")
                            })?)
                        })
                }
                _ => curve.params.set(key, value),
            }
        }
        Ok(curve)
    }
}

/// Output format of [`run_args`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// CSV block + ASCII chart + optional crossover table.
    Table,
    /// A single JSON object.
    Json,
}

/// Parsed CLI options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Default scenario for curves without a `scenario=` override.
    pub scenario: Option<String>,
    /// The curves to evaluate.
    pub curves: Vec<CurveSpec>,
    /// Global metric override.
    pub metric: Option<String>,
    /// `--fraction-grid lo:hi[:points]`.
    pub grid: Option<(f64, f64, Option<usize>)>,
    /// `--x-values v1,v2,...` (wins over the grid).
    pub x_values: Option<Vec<f64>>,
    /// The knob x drives (default `"fraction"`).
    pub sweep: String,
    /// Seeds to replicate over (default from fidelity).
    pub seeds: Option<usize>,
    /// Global parameters.
    pub params: Params,
    /// Output format.
    pub format: Format,
    /// Usability threshold for crossover extraction.
    pub threshold: f64,
    /// Quick (CI) fidelity.
    pub quick: bool,
    /// Timing-bench mode: time scenario hot loops instead of sweeping.
    pub bench: bool,
    /// Scale-curve mode: step-ns versus total N and versus active
    /// fraction, proving the sharded engine's `O(active)` claim.
    pub bench_scale: bool,
    /// Timed iterations per benched scenario (default from fidelity).
    pub bench_iters: Option<u32>,
    /// Untimed warmup runs per benched scenario (default from fidelity).
    pub bench_warmup: Option<u32>,
    /// Include a representative adaptive arm trace per curve in the
    /// output (x = middle grid point, first seed).
    pub arm_trace: bool,
    /// Run this entry of [`PRESETS`](crate::presets::PRESETS), with the
    /// other arguments appended to its own.
    pub preset: Option<String>,
    /// List scenarios instead of running.
    pub list: bool,
    /// Print usage instead of running.
    pub help: bool,
    /// Figure title.
    pub title: Option<String>,
    /// X-axis label override.
    pub x_label: Option<String>,
    /// Y-axis label override.
    pub y_label: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scenario: None,
            curves: Vec::new(),
            metric: None,
            grid: None,
            x_values: None,
            sweep: "fraction".to_string(),
            seeds: None,
            params: Params::new(),
            format: Format::Table,
            threshold: UsabilityThreshold::BAR_GOSSIP.0,
            quick: false,
            bench: false,
            bench_scale: false,
            bench_iters: None,
            bench_warmup: None,
            arm_trace: false,
            preset: None,
            list: false,
            help: false,
            title: None,
            x_label: None,
            y_label: None,
        }
    }
}

/// Parse CLI arguments (without the program name).
///
/// # Errors
///
/// Returns a usage message on unknown flags or malformed values.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| -> Result<&str, String> {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match arg {
            "--scenario" => opts.scenario = Some(take("--scenario")?.to_string()),
            "--attack" => {
                for name in take("--attack")?.split(',') {
                    let name = name.trim();
                    if !name.is_empty() {
                        opts.curves.push(CurveSpec {
                            attack: name.to_string(),
                            ..CurveSpec::default()
                        });
                    }
                }
            }
            "--curve" => opts.curves.push(CurveSpec::parse(take("--curve")?)?),
            "--metric" => opts.metric = Some(take("--metric")?.to_string()),
            "--fraction-grid" => {
                let v = take("--fraction-grid")?;
                let parts: Vec<&str> = v.split(':').collect();
                let parse = |s: &str| {
                    s.parse::<f64>()
                        .map_err(|_| format!("bad grid bound {s:?} in {v:?}"))
                };
                let (lo, hi, points) = match parts.as_slice() {
                    [lo, hi] => (parse(lo)?, parse(hi)?, None),
                    [lo, hi, n] => (
                        parse(lo)?,
                        parse(hi)?,
                        Some(
                            n.parse::<usize>()
                                .map_err(|_| format!("bad grid point count {n:?}"))?,
                        ),
                    ),
                    _ => return Err(format!("--fraction-grid wants lo:hi[:points], got {v:?}")),
                };
                if lo > hi {
                    return Err(format!("--fraction-grid bounds out of order in {v:?}"));
                }
                if points == Some(0) {
                    return Err(format!("--fraction-grid needs at least one point in {v:?}"));
                }
                opts.grid = Some((lo, hi, points));
            }
            "--x-values" => {
                let v = take("--x-values")?;
                let xs: Result<Vec<f64>, String> = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("bad x value {s:?}"))
                    })
                    .collect();
                opts.x_values = Some(xs?);
            }
            "--sweep" => opts.sweep = take("--sweep")?.to_string(),
            "--seeds" => {
                opts.seeds = Some(
                    take("--seeds")?
                        .parse::<usize>()
                        .map_err(|_| "bad --seeds value".to_string())?,
                )
            }
            "--param" => {
                let v = take("--param")?;
                let (k, val) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--param wants key=value, got {v:?}"))?;
                opts.params.set(k, val);
            }
            "--arm-trace" => opts.arm_trace = true,
            "--format" => {
                opts.format = match take("--format")? {
                    "table" => Format::Table,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format {other:?} (table | json)")),
                }
            }
            "--threshold" => {
                opts.threshold = take("--threshold")?
                    .parse::<f64>()
                    .map_err(|_| "bad --threshold value".to_string())?
            }
            "--title" => opts.title = Some(take("--title")?.to_string()),
            "--x-label" => opts.x_label = Some(take("--x-label")?.to_string()),
            "--y-label" => opts.y_label = Some(take("--y-label")?.to_string()),
            "--bench" => opts.bench = true,
            "--bench-scale" => opts.bench_scale = true,
            "--bench-iters" => {
                opts.bench_iters = Some(
                    take("--bench-iters")?
                        .parse::<u32>()
                        .map_err(|_| "bad --bench-iters value".to_string())?,
                )
            }
            "--bench-warmup" => {
                opts.bench_warmup = Some(
                    take("--bench-warmup")?
                        .parse::<u32>()
                        .map_err(|_| "bad --bench-warmup value".to_string())?,
                )
            }
            "--quick" => opts.quick = true,
            "--preset" => opts.preset = Some(take("--preset")?.to_string()),
            "--list" => opts.list = true,
            "--help" | "-h" => opts.help = true,
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// CLI usage text.
pub const USAGE: &str = "\
usage: lotus-bench --scenario NAME [--attack A[,B,...]] [options]
       lotus-bench --preset ID [options]
       lotus-bench --bench [--scenario NAME] [options]
       lotus-bench --bench-scale [options]
       lotus-bench --list

options:
  --scenario NAME       scenario to run (see --list)
  --preset ID           run a paper artifact: table1, fig1..fig3 or x1..x20
                        (see --list); the options given with it follow the
                        preset's own, so they override its values
  --attack A[,B,...]    one curve per attack name
  --curve SPEC          curve with overrides: attack[,key=value]*
                        (reserved keys: label=, scenario=, metric=, paper=)
  --metric KEY          y-axis metric (default: scenario's default)
  --fraction-grid L:H[:N]  x grid over [L, H] (default 0:1, N from fidelity)
  --x-values a,b,c      explicit x values instead of a grid
  --sweep KNOB          what x drives: fraction (default) or any numeric
                        parameter (see sweeps: in --list)
  --seeds N             replication seeds 1..=N (default 5, 2 with --quick)
  --param K=V           scenario parameter (repeatable, applies to all curves);
                        --list gives each one's kind or grammar (schedule,
                        faults, adaptive, churn_profile, arrival, ...).
                        Inside --curve, write the adaptive grammar's commas
                        as colons: adaptive=ucb:20:1.4
  --arm-trace           append each curve's adaptive arm trace (phase, arm,
                        mean observed damage) at x = the middle grid point,
                        first seed — shows the schedule the bandit converged to
  --format table|json   output format (default table)
  --threshold T         usability threshold for crossovers (default 0.93)
  --title/--x-label/--y-label STR   labels
  --quick               CI fidelity (fewer seeds and grid points)
  --bench               time scenario hot loops instead of sweeping:
                        min/median/p90/mean ns per step and per full run,
                        for every registered scenario (or just --scenario);
                        save the JSON as BENCH_<date>.json to track the
                        perf trajectory across PRs
  --bench-scale         emit the sharded engine's O(active) scale curves:
                        step-ns for bar-gossip versus total N at ~10k active
                        (10k, 100k, 1M nodes; the surplus held back by a
                        flash-crowd burst that never fires) and versus active
                        fraction at 1M total (1 %, 2 %, 4 %), plus the
                        headline step-ns ratio of 1M total / 1 % active
                        against 10k total / 100 % active
  --bench-iters N       timed runs per benched scenario (default 12, 3 with --quick;
                        3 under --bench-scale)
  --bench-warmup N      untimed warmup runs (default 3, 1 with --quick;
                        1 under --bench-scale)
  --list                list scenarios with their attacks, sweepable knobs,
                        metrics and documented parameters, then the presets";

/// One curve's representative adaptive arm trace (`--arm-trace`).
#[derive(Debug, Clone)]
pub struct ArmTraceRecord {
    /// Curve label the trace belongs to.
    pub label: String,
    /// The x value the representative run used (the middle grid point).
    pub x: f64,
    /// The seed the representative run used (the first sweep seed).
    pub seed: u64,
    /// The per-phase arm trace.
    pub trace: Vec<lotus_core::adaptive::TraceEntry>,
}

/// The evaluated figure: everything a caller needs to print or test.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Scenario of the first curve (figures may mix scenarios).
    pub scenario: String,
    /// The evaluated series, one per curve.
    pub series: Vec<Series>,
    /// Metric per curve (parallel to `series`).
    pub metrics: Vec<String>,
    /// Crossover records for curves that asked for them.
    pub crossovers: Vec<CrossoverRecord>,
    /// The x values used.
    pub xs: Vec<f64>,
    /// Seeds used.
    pub seeds: usize,
    /// The sweep knob.
    pub sweep: String,
    /// Representative adaptive arm traces (`--arm-trace`; only curves
    /// that actually ran a bandit appear).
    pub arm_traces: Vec<ArmTraceRecord>,
}

/// Evaluate the requested figure against `registry`.
///
/// # Errors
///
/// Unknown scenario names surface before the sweep; unknown
/// attacks/metrics/parameters and invalid configurations (including ones
/// only some x values trigger) surface as a clean error after the sweep
/// pass that hit them, and so does a job that panics: never as a made-up
/// point.
pub fn evaluate(registry: &ScenarioRegistry, opts: &Options) -> Result<Figure, String> {
    if opts.curves.is_empty() {
        return Err(format!(
            "no curves requested; pass --attack or --curve\n{USAGE}"
        ));
    }
    let fidelity = if opts.quick {
        Fidelity::Quick
    } else {
        Fidelity::Full
    };
    let seeds = opts.seeds.unwrap_or_else(|| fidelity.seeds());
    if seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    let xs: Vec<f64> = match (&opts.x_values, opts.grid) {
        (Some(values), _) => values.clone(),
        (None, Some((lo, hi, points))) => {
            let points = points.unwrap_or_else(|| fidelity.grid(lo, hi).len());
            if points == 1 {
                vec![lo]
            } else {
                grid(lo, hi, points)
            }
        }
        (None, None) => fidelity.grid(0.0, 1.0),
    };
    if xs.is_empty() {
        return Err("empty x grid".to_string());
    }

    let sweep_cfg = SweepConfig::with_seeds(seeds);
    let mut figure = Figure {
        scenario: String::new(),
        series: Vec::new(),
        metrics: Vec::new(),
        crossovers: Vec::new(),
        xs: xs.clone(),
        seeds,
        sweep: opts.sweep.clone(),
        arm_traces: Vec::new(),
    };

    for curve in &opts.curves {
        let scenario = curve
            .scenario
            .as_deref()
            .or(opts.scenario.as_deref())
            .ok_or("no scenario given (pass --scenario or scenario= in the curve)")?;
        let spec = registry
            .get(scenario)
            .ok_or_else(|| format!("unknown scenario {scenario:?} (see --list)"))?;
        let metric = curve
            .metric
            .as_deref()
            .or(opts.metric.as_deref())
            .unwrap_or(spec.default_metric)
            .to_string();
        let params = opts.params.merged_with(&curve.params);
        if figure.scenario.is_empty() {
            figure.scenario = scenario.to_string();
        }
        let label = curve.label.clone().unwrap_or_else(|| {
            if curve.scenario.is_some() {
                format!("{scenario}: {}", curve.attack)
            } else {
                curve.attack.clone()
            }
        });
        let series = sweep_curve(label, &xs, &sweep_cfg, |x, seed| {
            let req = RunRequest::new(x, seed, &curve.attack, &opts.sweep, &params);
            registry.run(scenario, &req).and_then(|report| {
                report.metric(&metric).ok_or_else(|| {
                    format!(
                        "no metric {metric:?}; available: {}",
                        report.metric_keys().join(", ")
                    )
                })
            })
        })
        .map_err(|e| format!("scenario {scenario:?} failed {e}"))?;
        if let Some(paper) = curve.paper {
            figure.crossovers.push(CrossoverRecord::from_curve(
                &series,
                UsabilityThreshold(opts.threshold),
                paper,
            ));
        }
        // Only curves that actually run a bandit can trace arms — skip
        // the representative run for the rest instead of building and
        // discarding a full simulation.
        let curve_is_adaptive = ["adaptive", "adaptive_epsilon", "adaptive_phase"]
            .iter()
            .any(|k| params.get(k).is_some() || opts.sweep == *k);
        if opts.arm_trace && curve_is_adaptive {
            // One representative run per curve: the middle grid point
            // (full fraction grids end at the degenerate all-attacker
            // point where no honest metric is measurable) under the
            // first seed — the same build path the sweep used,
            // re-stepped to capture the trace.
            let (&x, &seed) = (
                &xs[xs.len() / 2],
                sweep_cfg.seeds.first().expect("non-empty seed list"),
            );
            let req = RunRequest::new(x, seed, &curve.attack, &opts.sweep, &params);
            let mut built = registry.build(scenario, &req)?;
            let _ = built.finish_dyn();
            if let Some(trace) = built.arm_trace_dyn() {
                figure.arm_traces.push(ArmTraceRecord {
                    label: series.label.clone(),
                    x,
                    seed,
                    trace: trace.to_vec(),
                });
            }
        }
        figure.series.push(series);
        figure.metrics.push(metric);
    }
    Ok(figure)
}

/// Sweep one curve: the mean of `measure` over the seeds at each x.
///
/// Errors can be x-dependent (a swept knob may invalidate the config at
/// some grid points only), and a job may panic. Either fails the curve:
/// the error names the x and seed of a job that returned an error, else
/// of the first job, in job order, that panicked on its retry too.
fn sweep_curve<F>(
    label: String,
    xs: &[f64],
    cfg: &SweepConfig,
    measure: F,
) -> Result<Series, String>
where
    F: Fn(f64, u64) -> Result<f64, String> + Sync,
{
    // Jobs run x-major, seeds inner (the sweep's job order). Keeping the
    // error of the first failed job in that order, not the first to reach
    // the lock, makes the message independent of worker scheduling.
    let job_of = |x: f64, seed: u64| {
        let xi = xs.iter().position(|&v| v == x).unwrap_or(xs.len());
        let si = cfg.seeds.iter().position(|&s| s == seed).unwrap_or(0);
        xi * cfg.seeds.len() + si
    };
    let error = std::sync::Mutex::new(None::<(usize, String)>);
    let (stats, failures) = sweep_stats_salvaged(xs, cfg, &|x, seed| {
        measure(x, seed).unwrap_or_else(|e| {
            let job = job_of(x, seed);
            let mut slot = error.lock().expect("sweep error lock");
            if slot.as_ref().is_none_or(|(first, _)| job < *first) {
                *slot = Some((job, format!("at x={x} seed={seed}: {e}")));
            }
            f64::NAN
        })
    });
    if let Some((_, e)) = error.into_inner().expect("sweep error lock") {
        return Err(e);
    }
    if let Some(f) = failures.first() {
        return Err(format!(
            "at x={} seed={}: panicked: {}",
            f.x, f.seed, f.message
        ));
    }
    let mut series = Series::new(label);
    for (&x, stat) in xs.iter().zip(&stats) {
        series.push(x, stat.mean());
    }
    Ok(series)
}

/// The evaluated timing bench: one record per `(scenario, attack)` pair.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Untimed warmup runs per scenario.
    pub warmup: u32,
    /// Timed iterations per scenario.
    pub iters: u32,
    /// Replication seeds the iterations cycled through.
    pub seeds: usize,
    /// Timing records, in bench order.
    pub records: Vec<BenchRecord>,
}

/// Time the requested scenarios' hot loops against `registry`.
///
/// With explicit `--curve`s (or `--attack`s) each curve is benched; with
/// only `--scenario` that scenario is benched under the `none` attack;
/// with neither, every registered scenario is benched under `none`.
/// Parameters resolve as the spec's `bench_params` overlaid by global
/// `--param`s overlaid by curve-local params, and every build goes
/// through the registry's scenario factories — the same grammar and code
/// path the sweep mode uses.
///
/// # Errors
///
/// Unknown names, malformed parameters and invalid configurations
/// surface as messages, exactly as in [`evaluate`].
pub fn evaluate_bench(registry: &ScenarioRegistry, opts: &Options) -> Result<Bench, String> {
    let fidelity = if opts.quick {
        Fidelity::Quick
    } else {
        Fidelity::Full
    };
    let iters = opts.bench_iters.unwrap_or_else(|| fidelity.bench_iters());
    let warmup = opts.bench_warmup.unwrap_or_else(|| fidelity.bench_warmup());
    if iters == 0 {
        return Err("--bench-iters must be at least 1".to_string());
    }
    // Reuse the sweep harness's replication plumbing for the seed list;
    // timed iterations cycle through it.
    let seeds = SweepConfig::with_seeds(opts.seeds.unwrap_or(1)).seeds;
    if seeds.is_empty() {
        return Err("--seeds must be at least 1".to_string());
    }
    let x = opts
        .x_values
        .as_ref()
        .and_then(|v| v.first().copied())
        .unwrap_or(0.0);

    let mut jobs: Vec<(String, CurveSpec)> = Vec::new();
    if opts.curves.is_empty() {
        let none = || CurveSpec {
            attack: "none".to_string(),
            ..CurveSpec::default()
        };
        match &opts.scenario {
            Some(s) => jobs.push((s.clone(), none())),
            None => {
                for spec in registry.specs() {
                    jobs.push((spec.name.to_string(), none()));
                }
            }
        }
    } else {
        for curve in &opts.curves {
            let scenario = curve
                .scenario
                .clone()
                .or_else(|| opts.scenario.clone())
                .ok_or("no scenario given (pass --scenario or scenario= in the curve)")?;
            jobs.push((scenario, curve.clone()));
        }
    }

    let mut records = Vec::with_capacity(jobs.len());
    for (scenario, curve) in jobs {
        let spec = registry
            .get(&scenario)
            .ok_or_else(|| format!("unknown scenario {scenario:?} (see --list)"))?;
        let mut params = Params::new();
        for (k, v) in spec.bench_params {
            params.set(*k, *v);
        }
        let params = params.merged_with(&opts.params).merged_with(&curve.params);
        let (run_ns, step_ns, steps_per_run) = bench_scenario(
            |i| {
                let seed = seeds[i as usize % seeds.len()];
                let req = RunRequest::new(x, seed, &curve.attack, &opts.sweep, &params);
                registry.build(&scenario, &req)
            },
            warmup,
            iters,
        )?;
        records.push(BenchRecord {
            scenario,
            attack: curve.attack.clone(),
            steps_per_run,
            run_ns,
            step_ns,
        });
    }
    Ok(Bench {
        warmup,
        iters,
        seeds: seeds.len(),
        records,
    })
}

/// Render `bench` in the requested format.
pub fn render_bench(bench: &Bench, opts: &Options) -> String {
    match opts.format {
        Format::Json => render_bench_json(bench),
        Format::Table => render_bench_table(bench),
    }
}

fn render_bench_json(bench: &Bench) -> String {
    use std::fmt::Write;
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::from("{\"bench\":true");
    let _ = write!(out, ",\"unix_time\":{unix_time}");
    let _ = write!(out, ",\"warmup\":{}", bench.warmup);
    let _ = write!(out, ",\"iters\":{}", bench.iters);
    let _ = write!(out, ",\"seeds\":{}", bench.seeds);
    out.push_str(",\"scenarios\":[");
    for (i, rec) in bench.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&rec.to_json());
    }
    out.push_str("]}");
    out
}

fn render_bench_table(bench: &Bench) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# lotus-bench timing ({} warmup + {} timed iterations, {} seed{})",
        bench.warmup,
        bench.iters,
        bench.seeds,
        if bench.seeds == 1 { "" } else { "s" }
    );
    let _ = writeln!(out);
    let mut t = Table::new(vec![
        "scenario",
        "attack",
        "steps/run",
        "warm med (ns)",
        "warm p90 (ns)",
        "burst med (ns)",
        "run min (ns)",
        "run med (ns)",
        "run p90 (ns)",
    ]);
    for rec in &bench.records {
        t.row(vec![
            rec.scenario.clone(),
            rec.attack.clone(),
            rec.steps_per_run.to_string(),
            rec.step_ns.warm.median_ns.to_string(),
            rec.step_ns.warm.p90_ns.to_string(),
            rec.step_ns
                .burst
                .map_or_else(|| "-".to_string(), |b| b.median_ns.to_string()),
            rec.run_ns.min_ns.to_string(),
            rec.run_ns.median_ns.to_string(),
            rec.run_ns.p90_ns.to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    out
}

/// One timed point of the `O(active)` scale curve: a bar-gossip
/// configuration with `nodes` total and `active` present nodes (the
/// surplus held back by a flash-crowd burst scheduled far beyond the
/// run's horizon, so membership never changes mid-measurement).
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Total nodes in the universe (`--param nodes`).
    pub nodes: u64,
    /// Present (active) nodes during the measured steps.
    pub active: u64,
    /// Steps a single run executes.
    pub steps_per_run: u64,
    /// Full-run wall-clock statistics.
    pub run_ns: TimingStats,
    /// Per-step wall-clock statistics.
    pub step_ns: TimingStats,
}

impl ScalePoint {
    fn active_pct(&self) -> f64 {
        100.0 * self.active as f64 / self.nodes as f64
    }
}

/// One timed point of the worker-count curve: the busiest grid point
/// re-run with an explicit `run_threads` cap.
#[derive(Debug, Clone)]
pub struct WorkerPoint {
    /// The `run_threads` cap the point ran with.
    pub threads: u32,
    /// Steps each timed run executed.
    pub steps_per_run: u64,
    /// Whole-run wall time stats.
    pub run_ns: TimingStats,
    /// Per-step wall time stats.
    pub step_ns: TimingStats,
}

/// The evaluated `--bench-scale` curves.
#[derive(Debug, Clone)]
pub struct BenchScale {
    /// Untimed warmup runs per point.
    pub warmup: u32,
    /// Timed iterations per point.
    pub iters: u32,
    /// Replication seeds the iterations cycled through.
    pub seeds: usize,
    /// Timed points: total-N curve at ~10k active, then the
    /// active-fraction curve at 1M total.
    pub points: Vec<ScalePoint>,
    /// Headline ratio: median step-ns at 1M total / 1 % active over
    /// median step-ns at 10k total / 100 % active. The `O(active)` claim
    /// is that this stays near 1 (acceptance: within ~2x) even though
    /// the universe grew 100-fold.
    pub ratio_1m_1pct_vs_10k_full: f64,
    /// Step-ns versus plan-phase worker count at the busiest grid point
    /// (1M total, 4 % active — enough active nodes to clear the plan
    /// pool's engagement floor). Reports are byte-identical across the
    /// curve; only wall-clock moves.
    pub worker_points: Vec<WorkerPoint>,
}

/// The `(nodes, active)` grid `--bench-scale` times: a total-N curve at
/// a fixed ~10k-node active set, then an active-fraction curve at 1M
/// total. The first point (10k total, 100 % active) is the reference of
/// the headline ratio; the third (1M total, 1 % active = the same 10k
/// active nodes) is its numerator.
pub const BENCH_SCALE_GRID: &[(u64, u64)] = &[
    (10_000, 10_000),
    (100_000, 10_000),
    (1_000_000, 10_000),
    (1_000_000, 20_000),
    (1_000_000, 40_000),
];

/// The `run_threads` caps the worker-count curve times, at the busiest
/// [`BENCH_SCALE_GRID`] point (1M total, 40k active).
pub const BENCH_SCALE_WORKER_CURVE: &[u32] = &[1, 2, 4, 8];

/// Time the `O(active)` scale curves against `registry`.
///
/// Each grid point builds bar-gossip through the ordinary registry
/// factory with `nodes` total nodes and the surplus held back by
/// `arrival=burst:1000000:<surplus>` — a flash crowd whose round never
/// arrives, leaving exactly `active` nodes present. Global `--param`s
/// overlay the per-point round counts, but the grid's `nodes`/`arrival`
/// axes always win (they *are* the curve).
///
/// # Errors
///
/// Propagates factory and validation errors as messages.
pub fn evaluate_bench_scale(
    registry: &ScenarioRegistry,
    opts: &Options,
) -> Result<BenchScale, String> {
    let iters = opts.bench_iters.unwrap_or(3);
    let warmup = opts.bench_warmup.unwrap_or(1);
    if iters == 0 {
        return Err("--bench-iters must be at least 1".to_string());
    }
    let seeds = SweepConfig::with_seeds(opts.seeds.unwrap_or(1)).seeds;
    if seeds.is_empty() {
        return Err("--seeds must be at least 1".to_string());
    }
    let mut points = Vec::with_capacity(BENCH_SCALE_GRID.len());
    for &(nodes, active) in BENCH_SCALE_GRID {
        let mut params = Params::new()
            .with("rounds", "8")
            .with("warmup_rounds", "2")
            .with("updates_per_round", "4")
            .with("copies_seeded", "6")
            .merged_with(&opts.params);
        params.set("nodes", nodes.to_string());
        params.set(
            "arrival",
            if active < nodes {
                format!("burst:1000000:{}", nodes - active)
            } else {
                "none".to_string()
            },
        );
        let (run_ns, step_ns, steps_per_run) = bench_scenario(
            |i| {
                let seed = seeds[i as usize % seeds.len()];
                let req = RunRequest::new(0.0, seed, "none", "fraction", &params);
                registry.build("bar-gossip", &req)
            },
            warmup,
            iters,
        )?;
        points.push(ScalePoint {
            nodes,
            active,
            steps_per_run,
            run_ns,
            step_ns: step_ns.all,
        });
    }
    let step_med = |nodes: u64, active: u64| {
        points
            .iter()
            .find(|p| p.nodes == nodes && p.active == active)
            .map(|p| p.step_ns.median_ns as f64)
            .unwrap_or(f64::NAN)
    };
    let reference = step_med(10_000, 10_000);
    let ratio = if reference > 0.0 {
        step_med(1_000_000, 10_000) / reference
    } else {
        f64::NAN
    };
    // Worker-count curve: the busiest grid point again, once per
    // `run_threads` cap. Same seeds, same rounds — the reports are
    // byte-identical across the curve (CI pins that elsewhere); only
    // the plan phase's wall-clock moves.
    let (curve_nodes, curve_active) = *BENCH_SCALE_GRID
        .last()
        .expect("the scale grid is non-empty");
    let mut worker_points = Vec::with_capacity(BENCH_SCALE_WORKER_CURVE.len());
    for &threads in BENCH_SCALE_WORKER_CURVE {
        let mut params = Params::new()
            .with("rounds", "8")
            .with("warmup_rounds", "2")
            .with("updates_per_round", "4")
            .with("copies_seeded", "6")
            .merged_with(&opts.params);
        params.set("nodes", curve_nodes.to_string());
        params.set(
            "arrival",
            format!("burst:1000000:{}", curve_nodes - curve_active),
        );
        params.set("run_threads", threads.to_string());
        let (run_ns, step_ns, steps_per_run) = bench_scenario(
            |i| {
                let seed = seeds[i as usize % seeds.len()];
                let req = RunRequest::new(0.0, seed, "none", "fraction", &params);
                registry.build("bar-gossip", &req)
            },
            warmup,
            iters,
        )?;
        worker_points.push(WorkerPoint {
            threads,
            steps_per_run,
            run_ns,
            step_ns: step_ns.all,
        });
    }
    Ok(BenchScale {
        warmup,
        iters,
        seeds: seeds.len(),
        points,
        ratio_1m_1pct_vs_10k_full: ratio,
        worker_points,
    })
}

/// Render `scale` in the requested format.
pub fn render_bench_scale(scale: &BenchScale, opts: &Options) -> String {
    match opts.format {
        Format::Json => render_bench_scale_json(scale),
        Format::Table => render_bench_scale_table(scale),
    }
}

fn render_bench_scale_json(scale: &BenchScale) -> String {
    use std::fmt::Write;
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::from("{\"bench_scale\":true");
    let _ = write!(out, ",\"unix_time\":{unix_time}");
    let _ = write!(out, ",\"warmup\":{}", scale.warmup);
    let _ = write!(out, ",\"iters\":{}", scale.iters);
    let _ = write!(out, ",\"seeds\":{}", scale.seeds);
    out.push_str(",\"points\":[");
    for (i, p) in scale.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"nodes\":{},\"active\":{},\"steps_per_run\":{},\"run_ns\":{},\"step_ns\":{}}}",
            p.nodes,
            p.active,
            p.steps_per_run,
            p.run_ns.to_json(),
            p.step_ns.to_json()
        );
    }
    let _ = write!(
        out,
        "],\"ratio_1m_1pct_vs_10k_full\":{:.4}",
        scale.ratio_1m_1pct_vs_10k_full
    );
    out.push_str(",\"worker_curve\":[");
    for (i, p) in scale.worker_points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"run_threads\":{},\"steps_per_run\":{},\"run_ns\":{},\"step_ns\":{}}}",
            p.threads,
            p.steps_per_run,
            p.run_ns.to_json(),
            p.step_ns.to_json()
        );
    }
    out.push_str("]}");
    out
}

fn render_bench_scale_table(scale: &BenchScale) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# lotus-bench O(active) scale curves ({} warmup + {} timed iterations, {} seed{})",
        scale.warmup,
        scale.iters,
        scale.seeds,
        if scale.seeds == 1 { "" } else { "s" }
    );
    let _ = writeln!(out);
    let mut t = Table::new(vec![
        "nodes",
        "active",
        "active %",
        "steps/run",
        "step med (ns)",
        "step p90 (ns)",
        "run min (ns)",
    ]);
    for p in &scale.points {
        t.row(vec![
            p.nodes.to_string(),
            p.active.to_string(),
            format!("{:.1}", p.active_pct()),
            p.steps_per_run.to_string(),
            p.step_ns.median_ns.to_string(),
            p.step_ns.p90_ns.to_string(),
            p.run_ns.min_ns.to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "step-ns ratio, 1M total / 1% active vs 10k total / 100% active: {:.2}",
        scale.ratio_1m_1pct_vs_10k_full
    );
    if !scale.worker_points.is_empty() {
        let (nodes, active) = *BENCH_SCALE_GRID.last().expect("non-empty grid");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "# plan-phase worker curve at {nodes} total / {active} active \
             (figures byte-identical across the curve)"
        );
        let _ = writeln!(out);
        let mut t = Table::new(vec![
            "run_threads",
            "steps/run",
            "step med (ns)",
            "step p90 (ns)",
            "run min (ns)",
        ]);
        for p in &scale.worker_points {
            t.row(vec![
                p.threads.to_string(),
                p.steps_per_run.to_string(),
                p.step_ns.median_ns.to_string(),
                p.step_ns.p90_ns.to_string(),
                p.run_ns.min_ns.to_string(),
            ]);
        }
        let _ = writeln!(out, "{}", t.render());
    }
    out
}

/// Render `figure` in the requested format.
pub fn render_figure(figure: &Figure, opts: &Options) -> String {
    match opts.format {
        Format::Json => render_json(figure, opts),
        Format::Table => render_table(figure, opts),
    }
}

fn render_table(figure: &Figure, opts: &Options) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let title = opts
        .title
        .clone()
        .unwrap_or_else(|| format!("{} — {}", figure.scenario, figure.metrics[0]));
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(out);
    let mut csv = Table::new(vec!["series", "x", "y"]);
    for s in &figure.series {
        for &(x, y) in &s.points {
            csv.row(vec![s.label.clone(), format!("{x:.4}"), format!("{y:.4}")]);
        }
    }
    let _ = writeln!(out, "{}", csv.to_csv());
    let in_unit = figure
        .series
        .iter()
        .flat_map(|s| s.points.iter())
        .all(|&(_, y)| (0.0..=1.0).contains(&y));
    let cfg = PlotConfig {
        width: 64,
        height: if in_unit { 20 } else { 18 },
        x_label: opts.x_label.clone().unwrap_or_else(|| {
            if figure.sweep == "fraction" {
                "Fraction of nodes controlled by attacker".to_string()
            } else {
                figure.sweep.clone()
            }
        }),
        y_label: opts
            .y_label
            .clone()
            .unwrap_or_else(|| figure.metrics[0].clone()),
        y_range: if in_unit { Some((0.0, 1.0)) } else { None },
    };
    let _ = writeln!(out, "{}", render(&figure.series, &cfg));
    if !figure.crossovers.is_empty() {
        let mut t = Table::new(vec!["curve", "paper break point", "measured break point"]);
        for rec in &figure.crossovers {
            t.row(vec![
                rec.label.clone(),
                rec.paper.map_or("-".into(), |p| format!("{p:.2}")),
                rec.measured.map_or("-".into(), |m| format!("{m:.3}")),
            ]);
        }
        let _ = writeln!(
            out,
            "Usability line: {} > {}",
            figure.metrics[0], opts.threshold
        );
        let _ = writeln!(out, "{}", t.render());
    }
    for rec in &figure.arm_traces {
        let _ = writeln!(
            out,
            "Arm trace — {} (x={}, seed {}):",
            rec.label, rec.x, rec.seed
        );
        let arms: Vec<String> = rec
            .trace
            .iter()
            .map(|e| format!("{}({:.2})", e.arm.name(), e.mean_damage))
            .collect();
        let _ = writeln!(out, "  {}", arms.join(" "));
    }
    out
}

fn render_json(figure: &Figure, opts: &Options) -> String {
    use lotus_core::scenario::{json_number as num, json_string};
    use std::fmt::Write;
    let mut out = String::from("{");
    let _ = write!(out, "\"scenario\":{}", json_string(&figure.scenario));
    let _ = write!(out, ",\"sweep\":{}", json_string(&figure.sweep));
    let _ = write!(out, ",\"seeds\":{}", figure.seeds);
    let _ = write!(out, ",\"threshold\":{}", num(opts.threshold));
    let _ = write!(out, ",\"series\":[");
    for (i, (s, metric)) in figure.series.iter().zip(&figure.metrics).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"label\":{},\"metric\":{},\"points\":[",
            json_string(&s.label),
            json_string(metric)
        );
        for (j, &(x, y)) in s.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", num(x), num(y));
        }
        out.push_str("]}");
    }
    out.push(']');
    if !figure.crossovers.is_empty() {
        let _ = write!(out, ",\"crossovers\":[");
        for (i, rec) in figure.crossovers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let paper = rec.paper.map_or("null".to_string(), num);
            let measured = rec.measured.map_or("null".to_string(), num);
            let _ = write!(
                out,
                "{{\"label\":{},\"paper\":{paper},\"measured\":{measured}}}",
                json_string(&rec.label)
            );
        }
        out.push(']');
    }
    if !figure.arm_traces.is_empty() {
        let _ = write!(out, ",\"arm_traces\":[");
        for (i, rec) in figure.arm_traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"label\":{},\"x\":{},\"seed\":{},\"trace\":{}}}",
                json_string(&rec.label),
                num(rec.x),
                rec.seed,
                lotus_core::adaptive::trace_to_json(&rec.trace)
            );
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// Render the `--list` catalogue: every scenario with its attacks and
/// its parameters (one documented line each), the knobs `--sweep` may
/// drive and its metrics.
pub fn render_list(registry: &ScenarioRegistry) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "registered scenarios:");
    for spec in registry.specs() {
        let _ = writeln!(out);
        let _ = writeln!(out, "  {} — {}", spec.name, spec.about);
        let _ = writeln!(out, "    attacks:");
        for (name, doc) in spec.attacks {
            let _ = writeln!(out, "      {name} — {doc}");
        }
        let sweeps: Vec<&str> = spec.sweeps().collect();
        let _ = writeln!(out, "    sweeps:  {}", sweeps.join(", "));
        let _ = writeln!(
            out,
            "    metrics: {} (default {})",
            spec.metrics.join(", "),
            spec.default_metric
        );
        let _ = writeln!(out, "    params:");
        for p in spec.param_specs() {
            let _ = writeln!(out, "      {} — {}", p.name, p.doc);
        }
    }
    out.push_str(&crate::presets::render_list());
    out
}

/// Parse + evaluate + render: the whole CLI as a function (testable).
///
/// # Errors
///
/// Propagates parse, validation and configuration errors as messages.
pub fn run_args(args: &[String]) -> Result<String, String> {
    let opts = parse_args(args)?;
    if opts.help {
        return Ok(format!("{USAGE}\n"));
    }
    let registry = ScenarioRegistry::standard();
    if opts.list {
        return Ok(render_list(&registry));
    }
    if let Some(id) = &opts.preset {
        return crate::presets::run(&registry, id, args, &opts);
    }
    run_opts(&registry, &opts)
}

/// Run parsed options: the scale curves, the timing bench or a figure.
///
/// # Errors
///
/// Propagates validation and configuration errors as messages.
pub fn run_opts(registry: &ScenarioRegistry, opts: &Options) -> Result<String, String> {
    if opts.bench_scale {
        let scale = evaluate_bench_scale(registry, opts)?;
        return Ok(render_bench_scale(&scale, opts));
    }
    if opts.bench {
        let bench = evaluate_bench(registry, opts)?;
        return Ok(render_bench(&bench, opts));
    }
    let figure = evaluate(registry, opts)?;
    Ok(render_figure(&figure, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn curve_spec_parses_overrides() {
        let c = CurveSpec::parse("trade,push_size=4,label=Push 4,paper=0.33").unwrap();
        assert_eq!(c.attack, "trade");
        assert_eq!(c.label.as_deref(), Some("Push 4"));
        assert_eq!(c.paper, Some(Some(0.33)));
        assert_eq!(c.params.get("push_size"), Some("4"));
        let c = CurveSpec::parse("crash,paper=-").unwrap();
        assert_eq!(c.paper, Some(None));
        assert!(CurveSpec::parse("").is_err());
        assert!(CurveSpec::parse("trade,oops").is_err());
    }

    #[test]
    fn unknown_flags_and_names_error() {
        assert!(run_args(&args(&["--bogus"])).is_err());
        assert!(run_args(&args(&[
            "--scenario",
            "nope",
            "--attack",
            "none",
            "--quick"
        ]))
        .is_err());
        assert!(run_args(&args(&[
            "--scenario",
            "token",
            "--attack",
            "none",
            "--metric",
            "no_such_metric",
            "--quick"
        ]))
        .is_err());
    }

    #[test]
    fn a_failed_job_fails_its_curve_with_its_x_and_seed() {
        let cfg = SweepConfig {
            seeds: vec![1, 2],
            threads: 2,
        };
        let xs = [0.0, 0.5, 1.0];
        let series = sweep_curve("line".into(), &xs, &cfg, |x, _| Ok(1.0 - x)).unwrap();
        assert_eq!(series.points, vec![(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]);
        // A job that panics on its retry too is no longer left out of the
        // mean: the curve fails and names it.
        let err = sweep_curve("line".into(), &xs, &cfg, |x, seed| {
            if x == 0.5 && seed == 2 {
                panic!("poisoned point");
            }
            Ok(x)
        })
        .unwrap_err();
        assert_eq!(err, "at x=0.5 seed=2: panicked: poisoned point");
        let err = sweep_curve("line".into(), &xs, &cfg, |x, seed| {
            if x == 1.0 && seed == 1 {
                return Err("bad config".to_string());
            }
            Ok(x)
        })
        .unwrap_err();
        assert_eq!(err, "at x=1 seed=1: bad config");
        // Two failed jobs: the curve names the first in job order even
        // when the later one fails first. Job 0 holds its failure until
        // job 2 starts; with job 0's worker blocked, the other worker ran
        // job 1 to its end before taking job 2, so job 1 has failed first.
        let gate = std::sync::Barrier::new(2);
        let err = sweep_curve("line".into(), &xs, &cfg, |x, seed| {
            match (x, seed) {
                (0.0, 1) => {
                    gate.wait();
                    return Err("held".to_string());
                }
                (0.0, 2) => return Err("fast".to_string()),
                (0.5, 1) => {
                    gate.wait();
                }
                _ => {}
            }
            Ok(x)
        })
        .unwrap_err();
        assert_eq!(err, "at x=0 seed=1: held");
    }

    #[test]
    fn list_names_every_scenario() {
        let out = run_args(&args(&["--list"])).unwrap();
        for name in [
            "bar-gossip",
            "scrip",
            "bittorrent",
            "token",
            "scrip-gossip",
            "reputation",
        ] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn token_sweep_renders_table_and_json() {
        let base = [
            "--scenario",
            "token",
            "--attack",
            "none,random-fraction",
            "--x-values",
            "0,0.5",
            "--seeds",
            "1",
            "--param",
            "nodes=16",
            "--param",
            "rounds=30",
        ];
        let table = run_args(&args(&base)).unwrap();
        assert!(table.contains("series,x,y"), "CSV block:\n{table}");
        assert!(table.contains("random-fraction"));
        let mut json_args = base.to_vec();
        json_args.extend(["--format", "json"]);
        let json = run_args(&args(&json_args)).unwrap();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"scenario\":\"token\""));
        assert!(json.contains("\"points\":[[0,"));
    }

    #[test]
    fn faults_param_validates_and_sweeps_fault_loss() {
        let err = run_args(&args(&[
            "--scenario",
            "bar-gossip",
            "--attack",
            "masquerade",
            "--quick",
            "--param",
            "faults=bogus",
        ]))
        .unwrap_err();
        assert!(err.contains("fault plan \"bogus\""), "{err}");
        let out = run_args(&args(&[
            "--scenario",
            "bar-gossip",
            "--attack",
            "masquerade",
            "--sweep",
            "fault_loss",
            "--x-values",
            "0.05,0.3",
            "--seeds",
            "1",
            "--metric",
            "attacker_cut_rate",
            "--param",
            "cutoff=3",
            "--param",
            "fraction=0.2",
            "--param",
            "nodes=40",
            "--param",
            "rounds=8",
            "--param",
            "warmup_rounds=4",
            "--param",
            "updates_per_round=4",
            "--param",
            "copies_seeded=5",
        ]))
        .unwrap();
        assert!(out.contains("masquerade"), "{out}");
    }

    #[test]
    fn bench_scale_flag_parses_and_grid_is_sane() {
        let opts = parse_args(&args(&["--bench-scale", "--bench-iters", "1"])).unwrap();
        assert!(opts.bench_scale);
        assert_eq!(opts.bench_iters, Some(1));
        assert_eq!(
            BENCH_SCALE_GRID[0],
            (10_000, 10_000),
            "first point is the headline ratio's reference"
        );
        assert!(
            BENCH_SCALE_GRID.contains(&(1_000_000, 10_000)),
            "the 1M / 1% headline point must be on the grid"
        );
        for &(nodes, active) in BENCH_SCALE_GRID {
            assert!((1..=nodes).contains(&active), "{nodes}/{active}");
        }
    }

    #[test]
    fn bench_scale_render_shapes() {
        let stats = TimingStats::from_samples(&mut [1, 2, 3]).unwrap();
        let scale = BenchScale {
            warmup: 1,
            iters: 3,
            seeds: 1,
            points: vec![ScalePoint {
                nodes: 10_000,
                active: 10_000,
                steps_per_run: 10,
                run_ns: stats,
                step_ns: stats,
            }],
            ratio_1m_1pct_vs_10k_full: 0.59,
            worker_points: vec![WorkerPoint {
                threads: 1,
                steps_per_run: 10,
                run_ns: stats,
                step_ns: stats,
            }],
        };
        let table = render_bench_scale(&scale, &Options::default());
        assert!(table.contains("O(active) scale curves"), "{table}");
        assert!(table.contains("0.59"), "{table}");
        assert!(table.contains("plan-phase worker curve"), "{table}");
        let json = render_bench_scale(
            &scale,
            &Options {
                format: Format::Json,
                ..Options::default()
            },
        );
        assert!(json.contains("\"bench_scale\":true"), "{json}");
        assert!(
            json.contains("\"ratio_1m_1pct_vs_10k_full\":0.5900"),
            "{json}"
        );
        assert!(
            json.contains("\"points\":[{\"nodes\":10000,\"active\":10000"),
            "{json}"
        );
        assert!(
            json.contains("\"worker_curve\":[{\"run_threads\":1"),
            "{json}"
        );
    }

    #[test]
    fn crossover_table_appears_with_paper_values() {
        let out = run_args(&args(&[
            "--scenario",
            "bar-gossip",
            "--curve",
            "trade,paper=0.22",
            "--x-values",
            "0,0.6",
            "--seeds",
            "1",
            "--param",
            "nodes=40",
            "--param",
            "rounds=8",
            "--param",
            "warmup_rounds=4",
            "--param",
            "updates_per_round=4",
            "--param",
            "copies_seeded=5",
        ]))
        .unwrap();
        assert!(out.contains("paper break point"), "{out}");
        assert!(out.contains("0.22"));
    }
}
