//! Golden invisibility + determinism tests for the fault-injection
//! layer.
//!
//! The fixtures below are the *pre-faults* goldens (the same pinned
//! report strings the churn suite has carried since PR 4, generated
//! before `FaultPlan` existed). The fault layer's acceptance bar is that
//! an inactive plan — however it is spelled — is invisible at the byte
//! level: every substrate must keep reproducing these strings exactly
//! with an explicit zero-rate plan configured, because `FaultState`
//! forks its streams without advancing the parent and draws nothing
//! under an inactive plan.
//!
//! The X19 fixtures then pin the *active* path: masquerade attack under
//! loss with the silence cut-off armed, one report string per gossip
//! substrate, plus worker-count independence for faulted sweeps. The
//! report-and-evict fixtures pin the other quorum defense: the trade
//! attacker reported for excess service, with its evictions and the
//! three upload metrics, at Table 1 and above the single-shard cutoff.

mod common;

use common::{run_case, Golden};
use lotus_bench::registry::{Params, RunRequest, ScenarioRegistry};
use lotus_core::sweep::{sweep_fraction, SweepConfig};

/// The PR 4 churned-run fixtures, verbatim from the churn golden suite:
/// one report per scheduled substrate, generated before the fault layer
/// existed.
const PRE_FAULTS_GOLDENS: &[Golden] = &[
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
            ("churn_leave", "0.05"),
            ("churn_rejoin", "0.4"),
        ],
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.9007142857142857,"targeted_service":0.955,"usable":false,"attacker_coverage":0.825,"evicted_fraction":0,"evictions":0,"isolated_delivery":0.8283333333333334,"junk_fraction":0.03276897870016385,"mean_attacker_upload":120.4,"mean_honest_upload":53.02857142857143,"min_node_delivery":0.125,"nodes_ever_unusable":0.37142857142857144,"satiated_delivery":0.955,"unusable_node_rounds":0.15428571428571428}"#,
    },
    Golden {
        scenario: "scrip",
        attack: "lotus-eater",
        seed: 1,
        params: &[
            ("agents", "40"),
            ("rounds", "600"),
            ("warmup", "100"),
            ("churn_leave", "0.02"),
            ("churn_rejoin", "0.3"),
        ],
        json: r#"{"scenario":"scrip","rounds":700,"overall_delivery":0.32212389380530976,"targeted_service":0.9727777777777777,"usable":false,"attacker_money":33,"fail_broke_rate":0.6778761061946903,"fail_no_volunteer_rate":0,"free_rate":0,"gini":0.7058510638297872,"mean_satiated_fraction":0.2918333333333356,"mean_threshold":4,"paid_rate":0.32212389380530976,"service_rate":0.32212389380530976,"special_service_rate":1,"target_satiation":0.9727777777777777,"total_money":80}"#,
    },
    Golden {
        scenario: "bittorrent",
        attack: "satiate",
        seed: 1,
        params: &[
            ("leechers", "15"),
            ("pieces", "16"),
            ("churn_leave", "0.05"),
            ("churn_rejoin", "0.5"),
        ],
        json: r#"{"scenario":"bittorrent","rounds":13,"overall_delivery":1,"targeted_service":1,"usable":true,"attacker_upload":80,"duplicates":118,"honest_upload":278,"mean_completion":5.533333333333333,"mean_completion_nontargeted":6.8,"mean_completion_targeted":3,"p95_completion_nontargeted":10.649999999999997}"#,
    },
    Golden {
        scenario: "token",
        attack: "random-fraction",
        seed: 7,
        params: &[
            ("nodes", "24"),
            ("rounds", "50"),
            ("churn_leave", "0.08"),
            ("churn_rejoin", "0.25"),
        ],
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
            ("churn_leave", "0.05"),
            ("churn_rejoin", "0.4"),
        ],
        json: r#"{"scenario":"scrip-gossip","rounds":25,"overall_delivery":0.9871428571428571,"targeted_service":1,"usable":true,"broke_rate":0.14127659574468085,"isolated_delivery":0.97,"refusal_rate":0,"satiated_delivery":1,"total_money":2000}"#,
    },
];

#[test]
fn inactive_fault_plans_reproduce_the_pre_faults_goldens_bit_identically() {
    // Every spelling of "no faults" the grammar allows: absent, the
    // literal none, explicit zero message rates, a zero-rate crash pair,
    // a zero-fraction partition, and a fault_loss=0 override.
    let spellings: &[&[(&str, &str)]] = &[
        &[],
        &[("faults", "none")],
        &[("faults", "loss:0/dup:0/delay:0")],
        &[("faults", "crash:0:0.5")],
        &[("faults", "partition:5:10:0")],
        &[("fault_loss", "0")],
    ];
    for g in PRE_FAULTS_GOLDENS {
        for extra in spellings {
            let report = run_case(g, extra);
            assert_eq!(
                report.to_json(),
                g.json,
                "{} / {} / seed {} with {extra:?}: an inactive fault plan must be \
                 byte-invisible against the pre-faults golden",
                g.scenario,
                g.attack,
                g.seed
            );
        }
    }
}

/// Small bar-gossip-family parameters shared by the X19 fixtures.
const X19_PARAMS: &[(&str, &str)] = &[
    ("copies_seeded", "5"),
    ("nodes", "50"),
    ("rounds", "10"),
    ("updates_per_round", "4"),
    ("warmup_rounds", "5"),
    ("cutoff", "3"),
    ("faults", "loss:0.15"),
];

#[test]
fn x19_masquerade_reports_are_pinned() {
    // The active path's golden: masquerade attacker at 25 % under 15 %
    // loss with the silence cut-off armed, pinned per gossip substrate.
    // Any drift in the fault streams, the masquerade draws, the cutoff
    // bookkeeping or the conditional report fields breaks this.
    let fixtures: &[(&str, &str)] = &[
        ("bar-gossip", X19_BAR_GOSSIP_JSON),
        ("scrip-gossip", X19_SCRIP_GOSSIP_JSON),
    ];
    let reg = ScenarioRegistry::standard();
    for (scenario, expected) in fixtures {
        let mut p = Params::new();
        for (k, v) in X19_PARAMS {
            p.set(*k, *v);
        }
        let req = RunRequest::new(0.25, 1, "masquerade", "fraction", &p);
        let report = reg
            .run(scenario, &req)
            .unwrap_or_else(|e| panic!("{scenario} masquerade: {e}"));
        assert_eq!(
            &report.to_json(),
            expected,
            "{scenario}: X19 masquerade report drifted"
        );
    }
}

const X19_BAR_GOSSIP_JSON: &str = r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.7912162162162162,"targeted_service":0,"usable":false,"attacker_coverage":0,"attacker_cut_rate":1,"cut_precision":0.38235294117647056,"cut_recall":1,"evicted_fraction":0,"evictions":0,"false_cut_rate":0.5675675675675675,"faults_crashes":0,"faults_delayed":0,"faults_dropped":242,"faults_duplicated":0,"faults_partition_blocked":0,"isolated_delivery":0.7912162162162162,"junk_fraction":0.058649093904448106,"mean_attacker_upload":35.30769230769231,"mean_honest_upload":69.62162162162163,"min_node_delivery":0.075,"nodes_ever_unusable":0.5675675675675675,"satiated_delivery":0,"unusable_node_rounds":0.2756756756756757}"#;
const X19_SCRIP_GOSSIP_JSON: &str = r#"{"scenario":"scrip-gossip","rounds":25,"overall_delivery":0.7682432432432432,"targeted_service":0,"usable":false,"attacker_cut_rate":0.8461538461538461,"broke_rate":0,"cut_precision":0.36666666666666664,"cut_recall":0.8461538461538461,"false_cut_rate":0.5135135135135135,"faults_crashes":0,"faults_delayed":0,"faults_dropped":130,"faults_duplicated":0,"faults_partition_blocked":0,"isolated_delivery":0.7682432432432432,"refusal_rate":0,"satiated_delivery":0,"total_money":2000}"#;

#[test]
fn faulted_sweeps_are_bit_identical_across_worker_counts() {
    // The CI determinism matrix pins this via LOTUS_SWEEP_THREADS; here
    // the worker count is pinned explicitly: an X19-shaped fault_loss
    // sweep folded by 1 worker and by 8 workers yields byte-identical
    // figures.
    let measure = |x: f64, seed: u64| {
        let reg = ScenarioRegistry::standard();
        let mut p = Params::new();
        for (k, v) in X19_PARAMS {
            p.set(*k, *v);
        }
        p.set("fraction", "0.2");
        let req = RunRequest::new(x, seed, "masquerade", "fault_loss", &p);
        reg.run("bar-gossip", &req)
            .unwrap()
            .metric("false_cut_rate")
            .expect("cutoff defense reports cut stats")
    };
    let xs = [0.0, 0.1, 0.3];
    let run = |threads: usize| {
        let cfg = SweepConfig {
            seeds: vec![1, 2, 3, 4, 5, 6],
            threads: 1,
        }
        .threads(threads);
        let series = sweep_fraction("x19", &xs, &cfg, measure);
        format!("{:?}", series.points)
    };
    assert_eq!(
        run(1),
        run(8),
        "faulted sweep must fold bit-identically for any worker count"
    );
}

/// The crash/recover and partition fixtures: every scheduled substrate
/// at a node count above one 64-node word and not a multiple of 64, so
/// the crash and cell draws cross word boundaries and end on a partial
/// word.
const CRASH_PARTITION_GOLDENS: &[Golden] = &[
    Golden {
        scenario: "bar-gossip",
        attack: "trade",
        seed: 3,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "100"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
            ("faults", "crash:0.05:0.3/partition:3:10:0.4"),
        ],
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.6503571428571429,"targeted_service":0.79375,"usable":false,"attacker_coverage":0.875,"evicted_fraction":0,"evictions":0,"faults_crashes":108,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":663,"isolated_delivery":0.45916666666666667,"junk_fraction":0.0274250202647933,"mean_attacker_upload":146.73333333333332,"mean_honest_upload":42.857142857142854,"min_node_delivery":0,"nodes_ever_unusable":0.8285714285714286,"satiated_delivery":0.79375,"unusable_node_rounds":0.4442857142857143}"#,
    },
    Golden {
        scenario: "scrip",
        attack: "lotus-eater",
        seed: 3,
        params: &[
            ("agents", "130"),
            ("rounds", "600"),
            ("warmup", "100"),
            ("faults", "crash:0.02:0.3/partition:150:300:0.35"),
        ],
        json: r#"{"scenario":"scrip","rounds":700,"overall_delivery":0.3023255813953488,"targeted_service":0.9923504273504273,"usable":false,"attacker_money":105,"fail_broke_rate":0.6976744186046512,"fail_faulted_rate":0,"fail_no_volunteer_rate":0,"faults_crashes":1745,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":15941,"free_rate":0,"gini":0.7018858560794045,"mean_satiated_fraction":0.29770512820512995,"mean_threshold":4,"paid_rate":0.3023255813953488,"service_rate":0.3023255813953488,"special_service_rate":1,"target_satiation":0.9923504273504273,"total_money":260}"#,
    },
    Golden {
        scenario: "bittorrent",
        attack: "satiate",
        seed: 3,
        params: &[
            ("leechers", "70"),
            ("pieces", "16"),
            ("faults", "crash:0.05:0.3/partition:2:6:0.4"),
        ],
        json: r#"{"scenario":"bittorrent","rounds":64,"overall_delivery":1,"targeted_service":1,"usable":true,"attacker_upload":319,"duplicates":645,"faults_crashes":204,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":541,"honest_upload":1594,"mean_completion":11.357142857142858,"mean_completion_nontargeted":12.122448979591837,"mean_completion_targeted":9.571428571428571,"p95_completion_nontargeted":25.599999999999937}"#,
    },
    Golden {
        scenario: "token",
        attack: "random-fraction",
        seed: 3,
        params: &[
            ("nodes", "70"),
            ("rounds", "50"),
            ("faults", "crash:0.05:0.3/partition:5:20:0.4"),
        ],
        json: r#"{"scenario":"token","rounds":50,"overall_delivery":0.7738095238095237,"targeted_service":1,"usable":false,"all_satiated_at":-1,"attacked_nodes":21,"faults_crashes":136,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":206,"final_satiated_fraction":0.5142857142857142,"mean_coverage":0.8416666666666665,"min_coverage":0,"token0_reach":0.8714285714285714,"untouched_mean_coverage":0.7738095238095237,"untouched_satisfied":0.30612244897959184}"#,
    },
    Golden {
        scenario: "scrip-gossip",
        attack: "trade",
        seed: 3,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "100"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
            ("faults", "crash:0.05:0.3/partition:3:10:0.4"),
        ],
        json: r#"{"scenario":"scrip-gossip","rounds":25,"overall_delivery":0.7864285714285715,"targeted_service":0.790625,"usable":false,"broke_rate":0.1763054463784391,"faults_crashes":102,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":671,"isolated_delivery":0.7808333333333334,"refusal_rate":0.04997192588433464,"satiated_delivery":0.790625,"total_money":4000}"#,
    },
];

#[test]
fn crash_and_partition_reports_are_pinned() {
    // The loss fixtures above pin the message-fate stream; these pin the
    // crash/recover and partition-cell streams, which only replay tests
    // covered before.
    for g in CRASH_PARTITION_GOLDENS {
        let report = run_case(g, &[]);
        assert_eq!(
            report.to_json(),
            g.json,
            "{} / {} / seed {}: crash/partition report drifted from its fixture",
            g.scenario,
            g.attack,
            g.seed
        );
    }
}

/// The trade attack under report-and-evict (half the honest nodes
/// report excess service): Table 1, and 1500 nodes (multi-shard).
const REPORT_EVICT_GOLDENS: &[Golden] = &[
    Golden {
        scenario: "bar-gossip",
        attack: "trade",
        seed: 1,
        params: &[("report_obedient", "0.5")],
        json: r#"{"scenario":"bar-gossip","rounds":60,"overall_delivery":0.9733285714285714,"targeted_service":0.981825,"usable":true,"attacker_coverage":0.11,"evicted_fraction":1,"evictions":75,"isolated_delivery":0.962,"junk_fraction":0.017408309823031546,"mean_attacker_upload":69.36,"mean_honest_upload":504.9942857142857,"min_node_delivery":0.7725,"nodes_ever_unusable":0.4,"satiated_delivery":0.981825,"unusable_node_rounds":0.06671428571428571}"#,
    },
    Golden {
        scenario: "bar-gossip",
        attack: "trade",
        seed: 1,
        params: &[("nodes", "1500"), ("report_obedient", "0.5")],
        json: r#"{"scenario":"bar-gossip","rounds":60,"overall_delivery":0.8361404761904762,"targeted_service":0.876225,"usable":false,"attacker_coverage":0.4225,"evicted_fraction":0.9755555555555555,"evictions":439,"isolated_delivery":0.7826944444444445,"junk_fraction":0.006183120163098052,"mean_attacker_upload":86.33111111111111,"mean_honest_upload":432.4819047619048,"min_node_delivery":0.2375,"nodes_ever_unusable":0.9695238095238096,"satiated_delivery":0.876225,"unusable_node_rounds":0.35964285714285715}"#,
    },
];

#[test]
fn report_and_evict_reports_are_pinned() {
    // Any drift in the report flow, the eviction quorum or the upload
    // meter breaks these; each fixture must actually evict.
    for g in REPORT_EVICT_GOLDENS {
        let report = run_case(g, &[]);
        assert_eq!(
            report.to_json(),
            g.json,
            "{} / {} / {:?}: report-and-evict report drifted from its fixture",
            g.scenario,
            g.attack,
            g.params
        );
        assert!(report.metric("evictions").unwrap() > 0.0, "{:?}", g.params);
    }
}
