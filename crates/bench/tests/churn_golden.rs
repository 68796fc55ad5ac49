//! Golden equivalence + determinism tests for the heterogeneous-churn
//! and flash-crowd layer.
//!
//! The fixtures below were generated from the registry at the PR 4
//! commit — i.e. with the PR 3 *uniform* `ChurnSpec` implementation —
//! one `ScenarioReport::to_json` string per churned `(scenario, attack,
//! seed)` case across all five scheduled substrates. The heterogeneity
//! refactor must keep reproducing them bit-identically through both
//! spellings of uniform churn:
//!
//! * the legacy `churn_leave`/`churn_rejoin` parameter pair, and
//! * the degenerate one-class `churn_profile=uniform:<leave>:<rejoin>`,
//!
//! because a one-class profile is required to draw exactly the stream
//! the uniform implementation drew. Zero-rate profiles must be
//! indistinguishable from no churn at the report level (the no-op/
//! no-draw guard), and flash-crowd figures must be bit-identical for
//! any sweep worker count. Multi-shard flash-crowd runs whose crowd
//! lands inside the measured window are pinned to exact reports.

use lotus_bench::registry::{Params, RunRequest, ScenarioRegistry};
use lotus_core::sweep::{sweep_fraction, SweepConfig};

struct Golden {
    scenario: &'static str,
    attack: &'static str,
    seed: u64,
    /// Substrate parameters *without* the churn axis.
    params: &'static [(&'static str, &'static str)],
    /// The uniform churn rates the fixture was generated under.
    leave: &'static str,
    rejoin: &'static str,
    json: &'static str,
}

const GOLDENS: &[Golden] = &[
    Golden {
        scenario: "bar-gossip",
        attack: "trade",
        seed: 1,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
        ],
        leave: "0.05",
        rejoin: "0.4",
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.9007142857142857,"targeted_service":0.955,"usable":false,"attacker_coverage":0.825,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.8283333333333334,"junk_fraction":0.03276897870016385,"mean_attacker_upload":120.4,"mean_honest_upload":53.02857142857143,"min_node_delivery":0.125,"nodes_ever_unusable":0.37142857142857144,"satiated_delivery":0.955,"unusable_node_rounds":0.15428571428571428}"#,
    },
    Golden {
        scenario: "bar-gossip",
        attack: "ideal",
        seed: 7,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
        ],
        leave: "0.1",
        rejoin: "0.25",
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.8335714285714285,"targeted_service":0.9875,"usable":false,"attacker_coverage":0.85,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.6283333333333333,"junk_fraction":0.024132091447925486,"mean_attacker_upload":97.06666666666666,"mean_honest_upload":25.885714285714286,"min_node_delivery":0.25,"nodes_ever_unusable":0.5714285714285714,"satiated_delivery":0.9875,"unusable_node_rounds":0.2914285714285714}"#,
    },
    Golden {
        scenario: "scrip",
        attack: "lotus-eater",
        seed: 1,
        params: &[("agents", "40"), ("rounds", "600"), ("warmup", "100")],
        leave: "0.02",
        rejoin: "0.3",
        json: r#"{"scenario":"scrip","rounds":700,"overall_delivery":0.32212389380530976,"targeted_service":0.9727777777777777,"usable":false,"attacker_money":33,"fail_broke_rate":0.6778761061946903,"fail_no_volunteer_rate":0,"free_rate":0,"gini":0.7058510638297872,"mean_satiated_fraction":0.2918333333333356,"mean_threshold":4,"paid_rate":0.32212389380530976,"service_rate":0.32212389380530976,"special_service_rate":1,"target_satiation":0.9727777777777777,"total_money":80}"#,
    },
    Golden {
        scenario: "bittorrent",
        attack: "satiate",
        seed: 1,
        params: &[("leechers", "15"), ("pieces", "16")],
        leave: "0.05",
        rejoin: "0.5",
        json: r#"{"scenario":"bittorrent","rounds":13,"overall_delivery":1,"targeted_service":1,"usable":true,"attacker_upload":80,"duplicates":118,"honest_upload":278,"mean_completion":5.533333333333333,"mean_completion_nontargeted":6.8,"mean_completion_targeted":3,"p95_completion_nontargeted":10.649999999999997}"#,
    },
    Golden {
        scenario: "token",
        attack: "random-fraction",
        seed: 7,
        params: &[("nodes", "24"), ("rounds", "50")],
        leave: "0.08",
        rejoin: "0.25",
        json: r#"{"scenario":"token","rounds":50,"overall_delivery":0.9901960784313725,"targeted_service":1,"usable":true,"all_satiated_at":-1,"attacked_nodes":7,"final_satiated_fraction":0.9166666666666666,"mean_coverage":0.9930555555555555,"min_coverage":0.9166666666666666,"token0_reach":1,"untouched_mean_coverage":0.9901960784313725,"untouched_satisfied":0.8823529411764706}"#,
    },
    Golden {
        scenario: "scrip-gossip",
        attack: "trade",
        seed: 1,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
        ],
        leave: "0.05",
        rejoin: "0.4",
        json: r#"{"scenario":"scrip-gossip","rounds":25,"overall_delivery":0.9871428571428571,"targeted_service":1,"usable":true,"broke_rate":0.14127659574468085,"isolated_delivery":0.97,"refusal_rate":0,"satiated_delivery":1,"total_money":2000}"#,
    },
];

fn run_case(g: &Golden, extra: &[(&str, String)]) -> lotus_core::scenario::ScenarioReport {
    let reg = ScenarioRegistry::standard();
    let mut p = Params::new();
    for (k, v) in g.params {
        p.set(*k, *v);
    }
    for (k, v) in extra {
        p.set(*k, v.clone());
    }
    let req = RunRequest::new(0.3, g.seed, g.attack, "fraction", &p);
    reg.run(g.scenario, &req)
        .unwrap_or_else(|e| panic!("{} {} seed {}: {e}", g.scenario, g.attack, g.seed))
}

#[test]
fn uniform_churn_parameters_reproduce_pr3_fixtures_bit_identically() {
    for g in GOLDENS {
        let report = run_case(
            g,
            &[
                ("churn_leave", g.leave.to_string()),
                ("churn_rejoin", g.rejoin.to_string()),
            ],
        );
        assert_eq!(
            report.to_json(),
            g.json,
            "{} / {} / seed {}: churn_leave/churn_rejoin drifted from the PR 3 \
             uniform-churn golden output",
            g.scenario,
            g.attack,
            g.seed
        );
    }
}

#[test]
fn degenerate_one_class_profile_reproduces_pr3_fixtures_bit_identically() {
    // The acceptance bar for the heterogeneity layer: uniform churn
    // spelled as a one-class ChurnProfile draws exactly the PR 3 stream
    // on all five substrates.
    for g in GOLDENS {
        let profile = format!("uniform:{}:{}", g.leave, g.rejoin);
        let report = run_case(g, &[("churn_profile", profile.clone())]);
        assert_eq!(
            report.to_json(),
            g.json,
            "{} / {} / seed {}: churn_profile={profile} is not byte-identical to \
             the PR 3 uniform-churn fixture",
            g.scenario,
            g.attack,
            g.seed
        );
    }
}

#[test]
fn zero_rate_profile_is_invisible_at_the_report_level() {
    // The no-op/no-draw guard, observed end to end: configuring churn at
    // an explicit zero leave rate (uniform or multi-class) must leave
    // every substrate's report byte-identical to the churn-free run,
    // because the population layer draws nothing from its fork.
    for g in GOLDENS {
        let baseline = run_case(g, &[]);
        for profile in ["uniform:0:0.7", "0.6:0:0.9/0.4:0:0.1"] {
            let zero = run_case(g, &[("churn_profile", profile.to_string())]);
            assert_eq!(
                baseline, zero,
                "{} / {}: zero-rate profile {profile} perturbed the run",
                g.scenario, g.attack
            );
        }
    }
}

#[test]
fn heterogeneous_profiles_and_arrivals_replay_bit_identically() {
    let variants: &[&[(&str, &str)]] = &[
        &[("churn_profile", "0.9:0.002:0.5/0.1:0.2:0.3")],
        &[("arrival", "burst:6:10")],
        &[("arrival", "burst:4:8:6")],
        &[("arrival", "ramp:3:9:2")],
        &[
            ("churn_profile", "0.8:0.01:0.5/0.2:0.3:0.3"),
            ("arrival", "burst:6:10"),
        ],
        &[
            ("schedule", "presence-above:0.95"),
            ("arrival", "burst:6:10"),
        ],
    ];
    for g in GOLDENS {
        for extra in variants {
            let owned: Vec<(&str, String)> =
                extra.iter().map(|&(k, v)| (k, v.to_string())).collect();
            let a = run_case(g, &owned);
            let b = run_case(g, &owned);
            assert_eq!(
                a, b,
                "{} / {} with {:?} must replay bit-identically",
                g.scenario, g.attack, extra
            );
        }
    }
}

#[test]
fn flash_crowd_figures_are_bit_identical_across_sweep_threads() {
    // The CI determinism matrix pins this via LOTUS_SWEEP_THREADS; here
    // the worker count is pinned explicitly so the invariant holds in
    // any environment: a flash-crowd + heterogeneous-churn sweep folded
    // by 1 worker and by 8 workers yields byte-identical figures.
    let measure = |x: f64, seed: u64| {
        let reg = ScenarioRegistry::standard();
        let p = Params::new()
            .with("copies_seeded", "5")
            .with("nodes", "50")
            .with("rounds", "10")
            .with("updates_per_round", "4")
            .with("warmup_rounds", "5")
            .with("churn_profile", "0.9:0.01:0.5/0.1:0.2:0.3")
            .with("arrival", "burst:6:12");
        let req = RunRequest::new(x, seed, "trade", "fraction", &p);
        reg.run("bar-gossip", &req).unwrap().overall_delivery
    };
    let xs = [0.0, 0.15, 0.3];
    let run = |threads: usize| {
        let cfg = SweepConfig {
            seeds: vec![1, 2, 3, 4, 5, 6],
            threads: 1,
        }
        .threads(threads);
        let series = sweep_fraction("flash-crowd", &xs, &cfg, measure);
        format!("{:?}", series.points)
    };
    let one = run(1);
    let eight = run(8);
    assert_eq!(
        one, eight,
        "flash-crowd sweep must fold bit-identically for any worker count"
    );
}

#[test]
fn presence_triggered_schedule_fires_when_the_crowd_lands() {
    // presence-above with a crowd outside fires the round the burst
    // lands; with an unreachable bar it never fires, which must equal
    // the never-triggering at: schedule byte for byte.
    let g = &GOLDENS[0];
    let crowd = [("arrival", "burst:6:10".to_string())];
    let baseline = run_case(g, &crowd);
    let mut with_trigger = crowd.to_vec();
    with_trigger.push(("schedule", "presence-above:0.99".to_string()));
    let triggered = run_case(g, &with_trigger);
    assert_ne!(
        baseline, triggered,
        "waiting for the crowd must differ from attacking from round 0"
    );
    let mut unreachable = crowd.to_vec();
    unreachable.push(("schedule", "presence-above:1.5".to_string()));
    let never_fires = run_case(g, &unreachable);
    let mut never = crowd.to_vec();
    never.push(("schedule", "at:1000000".to_string()));
    let never_strikes = run_case(g, &never);
    assert_eq!(
        never_fires, never_strikes,
        "an unreachable presence bar must equal a never-arriving trigger round"
    );
}

/// A flash-crowd run pinned to its exact report: a multi-shard
/// population (above the 1024-index single-shard cutoff) whose crowd
/// lands inside the measured window, so the arrivals' deliveries and
/// unusable rounds are part of the pinned figures.
struct CrowdGolden {
    scenario: &'static str,
    attack: &'static str,
    /// Substrate parameters on top of [`CROWD_BASE`].
    params: &'static [(&'static str, &'static str)],
    json: &'static str,
}

/// 3000 nodes, 500 present from round 0 and 2500 landing at round 6:
/// warm-up is rounds 0..4 and the measured releases are rounds 4..12,
/// so the crowd joins two rounds into the measured window and one
/// round after the first expiry (lifetime 5).
const CROWD_BASE: &[(&str, &str)] = &[
    ("nodes", "3000"),
    ("arrival", "burst:6:2500"),
    ("rounds", "8"),
    ("warmup_rounds", "4"),
    ("update_lifetime", "5"),
    ("updates_per_round", "4"),
    ("copies_seeded", "200"),
];

const CROWD_GOLDENS: &[CrowdGolden] = &[
    CrowdGolden {
        scenario: "bar-gossip",
        attack: "trade",
        params: &[],
        json: r#"{"scenario":"bar-gossip","rounds":17,"overall_delivery":0.8766203703703703,"targeted_service":0.9273611111111111,"usable":false,"attacker_coverage":1,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.7751388888888889,"junk_fraction":0.0660998423015628,"mean_attacker_upload":81.48333333333333,"mean_honest_upload":35.33481481481481,"min_node_delivery":0.03125,"nodes_ever_unusable":0.6666666666666666,"satiated_delivery":0.9273611111111111,"unusable_node_rounds":0.22449074074074074}"#,
    },
    CrowdGolden {
        scenario: "bar-gossip",
        attack: "ideal",
        params: &[],
        json: r#"{"scenario":"bar-gossip","rounds":17,"overall_delivery":0.7577546296296296,"targeted_service":1,"usable":false,"attacker_coverage":1,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.27326388888888886,"junk_fraction":0.008224255762770763,"mean_attacker_upload":341.74333333333334,"mean_honest_upload":3.5948148148148147,"min_node_delivery":0,"nodes_ever_unusable":0.3333333333333333,"satiated_delivery":1,"unusable_node_rounds":0.3165277777777778}"#,
    },
    CrowdGolden {
        scenario: "bar-gossip",
        attack: "trade",
        params: &[("faults", "crash:0.02:0.2")],
        json: r#"{"scenario":"bar-gossip","rounds":17,"overall_delivery":0.7475925925925926,"targeted_service":0.78671875,"usable":false,"attacker_coverage":1,"evicted_fraction":0,"evictions":0,"faults_crashes":968,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":0,"isolated_delivery":0.6693402777777778,"junk_fraction":0.06691121973186727,"mean_attacker_upload":72.37,"mean_honest_upload":31.436296296296295,"min_node_delivery":0,"nodes_ever_unusable":0.8025925925925926,"satiated_delivery":0.78671875,"unusable_node_rounds":0.36333333333333334}"#,
    },
    CrowdGolden {
        scenario: "scrip-gossip",
        attack: "trade",
        params: &[],
        json: r#"{"scenario":"scrip-gossip","rounds":17,"overall_delivery":0.9874652777777778,"targeted_service":0.9918576388888889,"usable":true,"broke_rate":0.07709459726113896,"isolated_delivery":0.9786805555555556,"refusal_rate":0.009728087138403252,"satiated_delivery":0.9918576388888889,"total_money":60000}"#,
    },
];

#[test]
fn flash_crowd_reports_match_pinned_fixtures() {
    // Trade exercises gifts and attacker syncs on late-joining windows,
    // ideal unions the attacker pool into them, crash faults clear them,
    // and scrip-gossip trades over them.
    let reg = ScenarioRegistry::standard();
    for g in CROWD_GOLDENS {
        let mut p = Params::new();
        for (k, v) in CROWD_BASE.iter().chain(g.params) {
            p.set(*k, *v);
        }
        let req = RunRequest::new(0.1, 1, g.attack, "fraction", &p);
        let report = reg
            .run(g.scenario, &req)
            .unwrap_or_else(|e| panic!("{} {}: {e}", g.scenario, g.attack));
        assert_eq!(
            report.to_json(),
            g.json,
            "{} / {} {:?}: flash-crowd report drifted from its fixture",
            g.scenario,
            g.attack,
            g.params
        );
    }
}
