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

mod common;

use common::{run_case, Golden};
use lotus_bench::registry::{Params, RunRequest, ScenarioRegistry};
use lotus_core::sweep::{sweep_fraction, SweepConfig};

/// One fixture per scheduled substrate; each row's parameters leave out
/// the churn axis, whose rates are the row's [`UNIFORM_CHURN`] entry.
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
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.8335714285714285,"targeted_service":0.9875,"usable":false,"attacker_coverage":0.85,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.6283333333333333,"junk_fraction":0.024132091447925486,"mean_attacker_upload":97.06666666666666,"mean_honest_upload":25.885714285714286,"min_node_delivery":0.25,"nodes_ever_unusable":0.5714285714285714,"satiated_delivery":0.9875,"unusable_node_rounds":0.2914285714285714}"#,
    },
    Golden {
        scenario: "scrip",
        attack: "lotus-eater",
        seed: 1,
        params: &[("agents", "40"), ("rounds", "600"), ("warmup", "100")],
        json: r#"{"scenario":"scrip","rounds":700,"overall_delivery":0.32212389380530976,"targeted_service":0.9727777777777777,"usable":false,"attacker_money":33,"fail_broke_rate":0.6778761061946903,"fail_no_volunteer_rate":0,"free_rate":0,"gini":0.7058510638297872,"mean_satiated_fraction":0.2918333333333356,"mean_threshold":4,"paid_rate":0.32212389380530976,"service_rate":0.32212389380530976,"special_service_rate":1,"target_satiation":0.9727777777777777,"total_money":80}"#,
    },
    Golden {
        scenario: "bittorrent",
        attack: "satiate",
        seed: 1,
        params: &[("leechers", "15"), ("pieces", "16")],
        json: r#"{"scenario":"bittorrent","rounds":13,"overall_delivery":1,"targeted_service":1,"usable":true,"attacker_upload":80,"duplicates":118,"honest_upload":278,"mean_completion":5.533333333333333,"mean_completion_nontargeted":6.8,"mean_completion_targeted":3,"p95_completion_nontargeted":10.649999999999997}"#,
    },
    Golden {
        scenario: "token",
        attack: "random-fraction",
        seed: 7,
        params: &[("nodes", "24"), ("rounds", "50")],
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
        json: r#"{"scenario":"scrip-gossip","rounds":25,"overall_delivery":0.9871428571428571,"targeted_service":1,"usable":true,"broke_rate":0.14127659574468085,"isolated_delivery":0.97,"refusal_rate":0,"satiated_delivery":1,"total_money":2000}"#,
    },
];

/// The uniform churn rates `(leave, rejoin)` each [`GOLDENS`] fixture was
/// generated under, in row order.
const UNIFORM_CHURN: &[(&str, &str)] = &[
    ("0.05", "0.4"),
    ("0.1", "0.25"),
    ("0.02", "0.3"),
    ("0.05", "0.5"),
    ("0.08", "0.25"),
    ("0.05", "0.4"),
];

#[test]
fn uniform_churn_parameters_reproduce_pr3_fixtures_bit_identically() {
    assert_eq!(GOLDENS.len(), UNIFORM_CHURN.len());
    for (g, &(leave, rejoin)) in GOLDENS.iter().zip(UNIFORM_CHURN) {
        let report = run_case(g, &[("churn_leave", leave), ("churn_rejoin", rejoin)]);
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
    assert_eq!(GOLDENS.len(), UNIFORM_CHURN.len());
    for (g, &(leave, rejoin)) in GOLDENS.iter().zip(UNIFORM_CHURN) {
        let profile = format!("uniform:{leave}:{rejoin}");
        let report = run_case(g, &[("churn_profile", &profile)]);
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
            let zero = run_case(g, &[("churn_profile", profile)]);
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
            let a = run_case(g, extra);
            let b = run_case(g, extra);
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
    let crowd = ("arrival", "burst:6:10");
    let baseline = run_case(g, &[crowd]);
    let triggered = run_case(g, &[crowd, ("schedule", "presence-above:0.99")]);
    assert_ne!(
        baseline, triggered,
        "waiting for the crowd must differ from attacking from round 0"
    );
    let never_fires = run_case(g, &[crowd, ("schedule", "presence-above:1.5")]);
    let never_strikes = run_case(g, &[crowd, ("schedule", "at:1000000")]);
    assert_eq!(
        never_fires, never_strikes,
        "an unreachable presence bar must equal a never-arriving trigger round"
    );
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

/// Flash-crowd runs pinned to their exact reports, at attacker fraction
/// 0.1: a multi-shard population (above the 1024-index single-shard
/// cutoff) whose crowd lands inside the measured window, so the
/// arrivals' deliveries and unusable rounds are part of the pinned
/// figures. Each row's parameters go on top of [`CROWD_BASE`].
const CROWD_GOLDENS: &[Golden] = &[
    Golden {
        scenario: "bar-gossip",
        attack: "trade",
        seed: 1,
        params: &[],
        json: r#"{"scenario":"bar-gossip","rounds":17,"overall_delivery":0.8766203703703703,"targeted_service":0.9273611111111111,"usable":false,"attacker_coverage":1,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.7751388888888889,"junk_fraction":0.0660998423015628,"mean_attacker_upload":81.48333333333333,"mean_honest_upload":35.33481481481481,"min_node_delivery":0.03125,"nodes_ever_unusable":0.6666666666666666,"satiated_delivery":0.9273611111111111,"unusable_node_rounds":0.22449074074074074}"#,
    },
    Golden {
        scenario: "bar-gossip",
        attack: "ideal",
        seed: 1,
        params: &[],
        json: r#"{"scenario":"bar-gossip","rounds":17,"overall_delivery":0.7577546296296296,"targeted_service":1,"usable":false,"attacker_coverage":1,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.27326388888888886,"junk_fraction":0.008224255762770763,"mean_attacker_upload":341.74333333333334,"mean_honest_upload":3.5948148148148147,"min_node_delivery":0,"nodes_ever_unusable":0.3333333333333333,"satiated_delivery":1,"unusable_node_rounds":0.3165277777777778}"#,
    },
    Golden {
        scenario: "bar-gossip",
        attack: "trade",
        seed: 1,
        params: &[("faults", "crash:0.02:0.2")],
        json: r#"{"scenario":"bar-gossip","rounds":17,"overall_delivery":0.7475925925925926,"targeted_service":0.78671875,"usable":false,"attacker_coverage":1,"evicted_fraction":0,"evictions":0,"faults_crashes":968,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":0,"isolated_delivery":0.6693402777777778,"junk_fraction":0.06691121973186727,"mean_attacker_upload":72.37,"mean_honest_upload":31.436296296296295,"min_node_delivery":0,"nodes_ever_unusable":0.8025925925925926,"satiated_delivery":0.78671875,"unusable_node_rounds":0.36333333333333334}"#,
    },
    Golden {
        scenario: "bar-gossip",
        attack: "trade",
        seed: 1,
        params: &[("cutoff", "2"), ("faults", "loss:0.1")],
        json: r#"{"scenario":"bar-gossip","rounds":17,"overall_delivery":0.7800578703703703,"targeted_service":0.8319791666666667,"usable":false,"attacker_coverage":1,"attacker_cut_rate":0,"cut_precision":0,"cut_recall":0,"evicted_fraction":0,"evictions":0,"false_cut_rate":0.292962962962963,"faults_crashes":0,"faults_delayed":0,"faults_dropped":5283,"faults_duplicated":0,"faults_partition_blocked":0,"isolated_delivery":0.6762152777777778,"junk_fraction":0.06196262281272033,"mean_attacker_upload":82.99,"mean_honest_upload":31.22740740740741,"min_node_delivery":0,"nodes_ever_unusable":0.8477777777777777,"satiated_delivery":0.8319791666666667,"unusable_node_rounds":0.3748148148148148}"#,
    },
    Golden {
        scenario: "bar-gossip",
        attack: "trade",
        seed: 1,
        params: &[("report_obedient", "0.5")],
        json: r#"{"scenario":"bar-gossip","rounds":17,"overall_delivery":0.8564930555555555,"targeted_service":0.8914236111111111,"usable":false,"attacker_coverage":1,"evicted_fraction":0.7566666666666667,"evictions":227,"isolated_delivery":0.7866319444444444,"junk_fraction":0.07193462401795735,"mean_attacker_upload":50.18666666666667,"mean_honest_upload":36.6637037037037,"min_node_delivery":0.09375,"nodes_ever_unusable":0.7522222222222222,"satiated_delivery":0.8914236111111111,"unusable_node_rounds":0.26087962962962963}"#,
    },
    Golden {
        scenario: "scrip-gossip",
        attack: "trade",
        seed: 1,
        params: &[],
        json: r#"{"scenario":"scrip-gossip","rounds":17,"overall_delivery":0.9874652777777778,"targeted_service":0.9918576388888889,"usable":true,"broke_rate":0.07709459726113896,"isolated_delivery":0.9786805555555556,"refusal_rate":0.009728087138403252,"satiated_delivery":0.9918576388888889,"total_money":60000}"#,
    },
    Golden {
        scenario: "scrip-gossip",
        attack: "ideal",
        seed: 1,
        params: &[],
        json: r#"{"scenario":"scrip-gossip","rounds":17,"overall_delivery":0.8512847222222222,"targeted_service":1,"usable":false,"broke_rate":0.8082676639508481,"isolated_delivery":0.5538541666666666,"refusal_rate":0.019099772939762255,"satiated_delivery":1,"total_money":60000}"#,
    },
    Golden {
        scenario: "scrip-gossip",
        attack: "ideal",
        seed: 1,
        params: &[("schedule", "periodic:6:3")],
        json: r#"{"scenario":"scrip-gossip","rounds":17,"overall_delivery":0.8782638888888888,"targeted_service":1,"usable":false,"broke_rate":0.3726344886242824,"isolated_delivery":0.6347916666666666,"refusal_rate":0.020128995676518536,"satiated_delivery":1,"total_money":60000}"#,
    },
    Golden {
        scenario: "scrip-gossip",
        attack: "crash",
        seed: 1,
        params: &[],
        json: r#"{"scenario":"scrip-gossip","rounds":17,"overall_delivery":0.9700694444444444,"targeted_service":0,"usable":true,"broke_rate":0.024945842731759607,"isolated_delivery":0.9700694444444444,"refusal_rate":0.0031042722826451078,"satiated_delivery":0,"total_money":60000}"#,
    },
];

#[test]
fn flash_crowd_reports_match_pinned_fixtures() {
    // Trade exercises gifts and attacker syncs on late-joining windows,
    // ideal unions the attacker pool into them, crash faults clear them,
    // and scrip-gossip trades over them. The cutoff and report_obedient
    // rows remove nodes mid-phase (silence cuts, report evictions), so
    // the multi-shard apply loops take their strict liveness rechecks. Scrip-gossip's ideal pool
    // reaches targets before their wave lands (and, under the periodic
    // schedule, carries cooperate-phase holdings); its crash attackers
    // waste every slot they are scheduled into.
    let reg = ScenarioRegistry::standard();
    for g in CROWD_GOLDENS {
        let mut p = Params::new();
        for (k, v) in CROWD_BASE.iter().chain(g.params) {
            p.set(*k, *v);
        }
        let req = RunRequest::new(0.1, g.seed, g.attack, "fraction", &p);
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

/// A three-cohort profile whose cohorts take every branch of the churn
/// draw: one never leaves (leave rate 0, no draw), one always leaves
/// (leave rate 1, no draw) and one always returns (rejoin rate 1, no
/// draw), next to cohorts that do draw.
const EDGE_RATE_PROFILE: &str = "0.4:0:0.5/0.3:1:0.4/0.3:0.2:1";

/// One pinned report per scheduled substrate under [`EDGE_RATE_PROFILE`],
/// in [`GOLDENS`] order.
const EDGE_RATE_JSON: &[&str] = &[
    r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.8057142857142857,"targeted_service":0.895,"usable":false,"attacker_coverage":0.725,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.6866666666666666,"junk_fraction":0.031627576403695803,"mean_attacker_upload":76.93333333333334,"mean_honest_upload":47.42857142857143,"min_node_delivery":0.075,"nodes_ever_unusable":0.42857142857142855,"satiated_delivery":0.895,"unusable_node_rounds":0.2742857142857143}"#,
    r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.8185714285714286,"targeted_service":0.95375,"usable":false,"attacker_coverage":0.775,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.6383333333333333,"junk_fraction":0.03334740396791895,"mean_attacker_upload":98.6,"mean_honest_upload":25.428571428571427,"min_node_delivery":0,"nodes_ever_unusable":0.6285714285714286,"satiated_delivery":0.95375,"unusable_node_rounds":0.2914285714285714}"#,
    r#"{"scenario":"scrip","rounds":700,"overall_delivery":0.3146853146853147,"targeted_service":0.97125,"usable":false,"attacker_money":33,"fail_broke_rate":0.6853146853146853,"fail_no_volunteer_rate":0,"free_rate":0,"gini":0.7058510638297872,"mean_satiated_fraction":0.2913750000000021,"mean_threshold":4,"paid_rate":0.3146853146853147,"service_rate":0.3146853146853147,"special_service_rate":1,"target_satiation":0.97125,"total_money":80}"#,
    r#"{"scenario":"bittorrent","rounds":57,"overall_delivery":1,"targeted_service":1,"usable":true,"attacker_upload":84,"duplicates":109,"honest_upload":265,"mean_completion":12.333333333333334,"mean_completion_nontargeted":14.8,"mean_completion_targeted":7.4,"p95_completion_nontargeted":48.79999999999998}"#,
    r#"{"scenario":"token","rounds":50,"overall_delivery":0.980392156862745,"targeted_service":1,"usable":true,"all_satiated_at":-1,"attacked_nodes":7,"final_satiated_fraction":0.9166666666666666,"mean_coverage":0.9861111111111112,"min_coverage":0.8333333333333334,"token0_reach":1,"untouched_mean_coverage":0.980392156862745,"untouched_satisfied":0.8823529411764706}"#,
    r#"{"scenario":"scrip-gossip","rounds":25,"overall_delivery":0.9242857142857143,"targeted_service":0.97125,"usable":false,"broke_rate":0.14138438880706922,"isolated_delivery":0.8616666666666667,"refusal_rate":0.045655375552282766,"satiated_delivery":0.97125,"total_money":2000}"#,
];

#[test]
fn multi_class_profile_with_rate_0_and_rate_1_cohorts_is_pinned() {
    // Replay alone cannot catch a change to which nodes draw, or in what
    // order: a changed draw sequence replays just as deterministically.
    assert_eq!(GOLDENS.len(), EDGE_RATE_JSON.len());
    for (g, expected) in GOLDENS.iter().zip(EDGE_RATE_JSON) {
        let report = run_case(g, &[("churn_profile", EDGE_RATE_PROFILE)]);
        assert_eq!(
            report.to_json(),
            *expected,
            "{} / {} / seed {}: churn_profile={EDGE_RATE_PROFILE} drifted from its fixture",
            g.scenario,
            g.attack,
            g.seed
        );
    }
}
