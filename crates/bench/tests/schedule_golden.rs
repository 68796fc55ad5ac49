//! Golden equivalence + determinism tests for the attack-schedule and
//! churn layer.
//!
//! The fixtures below were generated from the registry *before* the
//! schedule/population refactor (one `ScenarioReport::to_json` string per
//! `(scenario, attack, seed)` case). Default schedules (`always`, no
//! churn) must keep reproducing them bit-identically: the timing layer is
//! required to be invisible until asked for.

mod common;

use common::{run_case, Golden};

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
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.9821428571428571,"targeted_service":1,"usable":true,"attacker_coverage":0.75,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.9583333333333334,"junk_fraction":0.03956378392087243,"mean_attacker_upload":116.06666666666666,"mean_honest_upload":62.91428571428571,"min_node_delivery":0.6,"nodes_ever_unusable":0.14285714285714285,"satiated_delivery":1,"unusable_node_rounds":0.04}"#,
    },
    Golden {
        scenario: "bar-gossip",
        attack: "trade",
        seed: 7,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
        ],
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.9828571428571429,"targeted_service":1,"usable":true,"attacker_coverage":0.825,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.96,"junk_fraction":0.040492957746478875,"mean_attacker_upload":115.6,"mean_honest_upload":64.05714285714286,"min_node_delivery":0.8,"nodes_ever_unusable":0.17142857142857143,"satiated_delivery":1,"unusable_node_rounds":0.03142857142857143}"#,
    },
    Golden {
        scenario: "bar-gossip",
        attack: "ideal",
        seed: 1,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
        ],
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.9514285714285714,"targeted_service":1,"usable":false,"attacker_coverage":0.75,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.8866666666666667,"junk_fraction":0.03965702036441586,"mean_attacker_upload":97.13333333333334,"mean_honest_upload":38.34285714285714,"min_node_delivery":0.675,"nodes_ever_unusable":0.2857142857142857,"satiated_delivery":1,"unusable_node_rounds":0.09428571428571429}"#,
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
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.9485714285714286,"targeted_service":1,"usable":false,"attacker_coverage":0.825,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.88,"junk_fraction":0.04184397163120567,"mean_attacker_upload":99.33333333333333,"mean_honest_upload":38,"min_node_delivery":0.525,"nodes_ever_unusable":0.3142857142857143,"satiated_delivery":1,"unusable_node_rounds":0.10571428571428572}"#,
    },
    Golden {
        scenario: "bar-gossip",
        attack: "crash",
        seed: 1,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rotation_period", "6"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
        ],
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.9957142857142857,"targeted_service":0,"usable":true,"attacker_coverage":0,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.9957142857142857,"junk_fraction":0.06460296096904442,"mean_attacker_upload":0,"mean_honest_upload":84.91428571428571,"min_node_delivery":0.9,"nodes_ever_unusable":0.05714285714285714,"satiated_delivery":0,"unusable_node_rounds":0.011428571428571429}"#,
    },
    Golden {
        scenario: "bar-gossip",
        attack: "crash",
        seed: 7,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rotation_period", "6"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
        ],
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.995,"targeted_service":0,"usable":true,"attacker_coverage":0,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.995,"junk_fraction":0.07064471879286695,"mean_attacker_upload":0,"mean_honest_upload":83.31428571428572,"min_node_delivery":0.825,"nodes_ever_unusable":0.02857142857142857,"satiated_delivery":0,"unusable_node_rounds":0.008571428571428572}"#,
    },
    Golden {
        scenario: "scrip",
        attack: "lotus-eater",
        seed: 1,
        params: &[("agents", "40"), ("rounds", "600"), ("warmup", "100")],
        json: r#"{"scenario":"scrip","rounds":700,"overall_delivery":0.315,"targeted_service":0.97375,"usable":false,"attacker_money":33,"fail_broke_rate":0.685,"fail_no_volunteer_rate":0,"free_rate":0,"gini":0.7058510638297872,"mean_satiated_fraction":0.2921250000000023,"mean_threshold":4,"paid_rate":0.315,"service_rate":0.315,"special_service_rate":1,"target_satiation":0.97375,"total_money":80}"#,
    },
    Golden {
        scenario: "scrip",
        attack: "lotus-eater",
        seed: 7,
        params: &[("agents", "40"), ("rounds", "600"), ("warmup", "100")],
        json: r#"{"scenario":"scrip","rounds":700,"overall_delivery":0.27,"targeted_service":0.9775,"usable":false,"attacker_money":32,"fail_broke_rate":0.73,"fail_no_volunteer_rate":0,"free_rate":0,"gini":0.7,"mean_satiated_fraction":0.2932500000000021,"mean_threshold":4,"paid_rate":0.27,"service_rate":0.27,"special_service_rate":1,"target_satiation":0.9775,"total_money":80}"#,
    },
    Golden {
        scenario: "bittorrent",
        attack: "satiate",
        seed: 1,
        params: &[("leechers", "15"), ("pieces", "16")],
        json: r#"{"scenario":"bittorrent","rounds":10,"overall_delivery":1,"targeted_service":1,"usable":true,"attacker_upload":84,"duplicates":130,"honest_upload":286,"mean_completion":5,"mean_completion_nontargeted":5.9,"mean_completion_targeted":3.2,"p95_completion_nontargeted":8.549999999999999}"#,
    },
    Golden {
        scenario: "bittorrent",
        attack: "satiate",
        seed: 7,
        params: &[("leechers", "15"), ("pieces", "16")],
        json: r#"{"scenario":"bittorrent","rounds":12,"overall_delivery":1,"targeted_service":1,"usable":true,"attacker_upload":92,"duplicates":136,"honest_upload":284,"mean_completion":5.4,"mean_completion_nontargeted":6.3,"mean_completion_targeted":3.6,"p95_completion_nontargeted":9.649999999999997}"#,
    },
    Golden {
        scenario: "token",
        attack: "rotating",
        seed: 1,
        params: &[("nodes", "24"), ("period", "7"), ("rounds", "50")],
        json: r#"{"scenario":"token","rounds":50,"overall_delivery":0,"targeted_service":1,"usable":false,"all_satiated_at":22,"attacked_nodes":24,"final_satiated_fraction":1,"mean_coverage":1,"min_coverage":1,"token0_reach":1,"untouched_mean_coverage":0,"untouched_satisfied":0}"#,
    },
    Golden {
        scenario: "token",
        attack: "rotating",
        seed: 7,
        params: &[("nodes", "24"), ("period", "7"), ("rounds", "50")],
        json: r#"{"scenario":"token","rounds":50,"overall_delivery":0,"targeted_service":1,"usable":false,"all_satiated_at":15,"attacked_nodes":24,"final_satiated_fraction":1,"mean_coverage":1,"min_coverage":1,"token0_reach":1,"untouched_mean_coverage":0,"untouched_satisfied":0}"#,
    },
    Golden {
        scenario: "token",
        attack: "random-fraction",
        seed: 1,
        params: &[("nodes", "24"), ("rounds", "50")],
        json: r#"{"scenario":"token","rounds":50,"overall_delivery":0.9166666666666664,"targeted_service":1,"usable":false,"all_satiated_at":-1,"attacked_nodes":7,"final_satiated_fraction":0.2916666666666667,"mean_coverage":0.9409722222222223,"min_coverage":0.9166666666666666,"token0_reach":1,"untouched_mean_coverage":0.9166666666666664,"untouched_satisfied":0}"#,
    },
    Golden {
        scenario: "token",
        attack: "random-fraction",
        seed: 7,
        params: &[("nodes", "24"), ("rounds", "50")],
        json: r#"{"scenario":"token","rounds":50,"overall_delivery":0.9705882352941176,"targeted_service":1,"usable":true,"all_satiated_at":-1,"attacked_nodes":7,"final_satiated_fraction":0.75,"mean_coverage":0.9791666666666666,"min_coverage":0.9166666666666666,"token0_reach":1,"untouched_mean_coverage":0.9705882352941176,"untouched_satisfied":0.6470588235294118}"#,
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
        json: r#"{"scenario":"scrip-gossip","rounds":25,"overall_delivery":1,"targeted_service":1,"usable":true,"broke_rate":0.14666666666666667,"isolated_delivery":1,"refusal_rate":0,"satiated_delivery":1,"total_money":2000}"#,
    },
    Golden {
        scenario: "scrip-gossip",
        attack: "trade",
        seed: 7,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
        ],
        json: r#"{"scenario":"scrip-gossip","rounds":25,"overall_delivery":1,"targeted_service":1,"usable":true,"broke_rate":0.13671875,"isolated_delivery":1,"refusal_rate":0,"satiated_delivery":1,"total_money":2000}"#,
    },
    Golden {
        scenario: "reputation",
        attack: "inflate",
        seed: 1,
        params: &[("agents", "40"), ("rounds", "600"), ("warmup", "100")],
        json: r#"{"scenario":"reputation","rounds":700,"overall_delivery":0.625,"targeted_service":1,"usable":true,"attacker_cost_per_round":2.400000000000317,"denied_rate":0,"no_volunteer_rate":0.375,"service_rate":0.625,"target_satiation":1}"#,
    },
    Golden {
        scenario: "reputation",
        attack: "inflate",
        seed: 7,
        params: &[("agents", "40"), ("rounds", "600"), ("warmup", "100")],
        json: r#"{"scenario":"reputation","rounds":700,"overall_delivery":0.6253333333333333,"targeted_service":1,"usable":true,"attacker_cost_per_round":2.400000000000317,"denied_rate":0,"no_volunteer_rate":0.37466666666666665,"service_rate":0.6253333333333333,"target_satiation":1}"#,
    },
];

#[test]
fn default_schedule_reproduces_pre_refactor_reports_bit_identically() {
    for g in GOLDENS {
        let report = run_case(g, &[]);
        assert_eq!(
            report.to_json(),
            g.json,
            "{} / {} / seed {} drifted from the pre-refactor golden output",
            g.scenario,
            g.attack,
            g.seed
        );
    }
}

#[test]
fn explicit_always_schedule_matches_the_default() {
    for g in GOLDENS {
        if g.scenario == "reputation" {
            continue; // reputation does not take the schedule/churn axes
        }
        let explicit = run_case(g, &[("schedule", "always")]);
        assert_eq!(
            explicit.to_json(),
            g.json,
            "{} / {}: schedule=always must be the identity",
            g.scenario,
            g.attack
        );
    }
}

/// Every scheduled/churned variant must be deterministic: building the
/// same `(scenario, attack, schedule, churn, seed)` twice yields
/// bit-identical reports.
#[test]
fn scheduled_and_churned_runs_replay_bit_identically() {
    let variants: &[&[(&str, &str)]] = &[
        &[("schedule", "periodic:6:3")],
        &[("schedule", "at:8")],
        &[("schedule", "window:4:12")],
        &[("schedule", "delivery-above:0.5")],
        &[("churn_leave", "0.05")],
        &[("churn_profile", "uniform:0.05:0.5")],
        &[("schedule", "periodic:6:3"), ("churn_leave", "0.03")],
    ];
    for g in GOLDENS.iter().filter(|g| g.seed == 1) {
        if g.scenario == "reputation" {
            continue; // reputation does not take the schedule/churn axes
        }
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

/// A dormant-then-strike schedule must change the outcome relative to the
/// always-on attack (the timing axis is real, not cosmetic), and churn
/// must change membership-visible metrics.
#[test]
fn schedule_and_churn_axes_have_observable_effect() {
    let g = GOLDENS
        .iter()
        .find(|g| g.scenario == "bar-gossip" && g.attack == "trade" && g.seed == 1)
        .unwrap();
    let always = run_case(g, &[]);
    let late = run_case(g, &[("schedule", "at:1000000")]);
    assert!(
        late.overall_delivery > always.overall_delivery,
        "an attack that never triggers ({}) must beat the always-on one ({})",
        late.overall_delivery,
        always.overall_delivery
    );
    let churned = run_case(g, &[("churn_profile", "uniform:0.2:0.1")]);
    assert!(
        churned.overall_delivery < always.overall_delivery,
        "heavy churn ({}) must hurt delivery vs the closed population ({})",
        churned.overall_delivery,
        always.overall_delivery
    );
}

/// A below-threshold trigger must wait for *real* degradation: the empty
/// counters before the first measured expiry are absent data, not zero
/// delivery, so on a healthy system `delivery-below` never fires and the
/// run is identical to one whose trigger round never arrives.
#[test]
fn delivery_below_trigger_does_not_latch_on_unmeasured_counters() {
    let g = GOLDENS
        .iter()
        .find(|g| g.scenario == "bar-gossip" && g.attack == "trade" && g.seed == 1)
        .unwrap();
    let below = run_case(g, &[("schedule", "delivery-below:0.5")]);
    let never = run_case(g, &[("schedule", "at:1000000")]);
    assert_eq!(
        below, never,
        "healthy delivery never drops to 0.5, so the attack must never fire"
    );
    let always = run_case(g, &[]);
    assert_ne!(
        below, always,
        "the below-trigger run must differ from the always-on attack"
    );
}

/// A metric-threshold trigger latches deterministically: the attack stays
/// off while delivery is below the bar and on after it crosses.
#[test]
fn metric_threshold_trigger_fires_and_is_deterministic() {
    let g = GOLDENS
        .iter()
        .find(|g| g.scenario == "bar-gossip" && g.attack == "ideal" && g.seed == 1)
        .unwrap();
    let triggered = run_case(g, &[("schedule", "delivery-above:0.9")]);
    let never = run_case(g, &[("schedule", "delivery-above:2.0")]);
    let always = run_case(g, &[]);
    // The unreachable threshold keeps the system clean; the reachable one
    // lets the attack bite once the stream is healthy.
    assert!(never.overall_delivery >= triggered.overall_delivery);
    assert!(triggered.overall_delivery >= always.overall_delivery - 1e-9);
    let replay = run_case(g, &[("schedule", "delivery-above:0.9")]);
    assert_eq!(triggered, replay);
}
