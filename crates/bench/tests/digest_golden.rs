//! Golden + equivalence tests for the two-leg digest exchange.
//!
//! The keystone is **delivery equivalence**: a truthful bloom digest and
//! the exact region-hash digest must produce *byte-identical* runs once
//! the wire accounting is stripped — a bloom false negative is
//! impossible (pinned by `digest_props`), a false positive only wastes a
//! request, and the poison stream draws only on held ids, so the
//! advertisement format can never change who gets what. The X20
//! fixtures then pin the active attack/defense path, and a sweep-fold
//! check pins worker-count independence.

use bar_gossip::{AttackPlan, BarGossipConfig, BarGossipSim, DigestExchangeConfig};
use lotus_bench::registry::{Params, RunRequest, ScenarioRegistry};
use lotus_core::scenario::run;
use lotus_core::sweep::{sweep_fraction, SweepConfig};

/// A small digest-run config; `faults` and churn exercise the paths that
/// could plausibly diverge between advertisement modes.
fn base_cfg(exact: bool) -> BarGossipConfig {
    let mut cfg = BarGossipConfig::builder()
        .nodes(50)
        .updates_per_round(4)
        .update_lifetime(8)
        .copies_seeded(5)
        .rounds(10)
        .warmup_rounds(5)
        .churn(lotus_core::population::ChurnSpec::new(0.05, 0.4))
        .faults(lotus_core::faults::FaultPlan::parse("loss:0.1").unwrap())
        .build()
        .unwrap();
    cfg.digest = Some(DigestExchangeConfig {
        exact,
        ..DigestExchangeConfig::default()
    });
    cfg
}

#[test]
fn bloom_and_exact_digests_run_bit_identically_modulo_wire_stats() {
    // The keystone: per seed, per attack, the full report (delivery,
    // coverage, uploads, cut stats, fault counters — everything) is
    // equal once the digest wire stats are stripped. Audit stays off and
    // no rate limit is set (both are receiver-visible knobs that react
    // to the false-positive count, which *does* differ by mode).
    let attacks: &[fn() -> AttackPlan] = &[
        || AttackPlan::none(),
        || AttackPlan::poison(0.3, 1.0),
        || AttackPlan::poison(0.25, 0.15),
        || AttackPlan::trade_lotus_eater(0.3, 0.7),
    ];
    for (i, mk) in attacks.iter().enumerate() {
        for seed in 1..=4u64 {
            let mut bloom = run::<BarGossipSim>(base_cfg(false), mk(), seed);
            let mut exact = run::<BarGossipSim>(base_cfg(true), mk(), seed);
            assert_eq!(
                exact.digest.expect("digest runs carry stats").fp_requests,
                0,
                "exact diffs cannot produce false positives"
            );
            assert_eq!(
                bloom.digest.unwrap().withheld,
                exact.digest.unwrap().withheld,
                "attack {i} seed {seed}: poison draws must be advertisement-agnostic"
            );
            bloom.digest = None;
            exact.digest = None;
            assert_eq!(
                bloom, exact,
                "attack {i} seed {seed}: delivery must not depend on the digest format"
            );
        }
    }
}

/// Small digest-scenario parameters shared by the X20 fixtures.
const X20_PARAMS: &[(&str, &str)] = &[
    ("copies_seeded", "5"),
    ("nodes", "50"),
    ("rounds", "10"),
    ("updates_per_round", "4"),
    ("warmup_rounds", "5"),
];

#[test]
fn x20_digest_reports_are_pinned() {
    // The active path's goldens: the clean digest round, the full-rate
    // poisoner, the poisoner under the digest-audit defense (also at
    // 1500 nodes, where the cut-off's accusers span shards), and the
    // same under a 128-bit filter and a request cap, where false
    // positives, withholding, truncated want lists and cuts all occur
    // in one run. Any drift in the digest phase's plan stream, the
    // want-list order, the bloom decisions, the poison/audit draws or
    // the wire accounting breaks these. The trade and crash fixtures
    // pin the digest round's attacker arms (gifts, syncs, wasted slots)
    // next to partition-blocked pairs.
    type Fixture = (
        &'static str,
        &'static [(&'static str, &'static str)],
        &'static str,
    );
    let fixtures: &[Fixture] = &[
        ("none", &[], X20_CLEAN_JSON),
        ("poison", &[], X20_POISON_JSON),
        (
            "poison",
            &[("audit", "0.1"), ("cutoff", "3")],
            X20_AUDITED_JSON,
        ),
        (
            "poison",
            &[
                ("nodes", "1500"),
                ("copies_seeded", "60"),
                ("audit", "0.1"),
                ("cutoff", "3"),
            ],
            X20_AUDITED_1500_JSON,
        ),
        (
            "poison",
            &[
                ("digest_bits", "128"),
                ("audit", "0.1"),
                ("cutoff", "3"),
                ("rate_limit", "4"),
            ],
            X20_FP_HEAVY_JSON,
        ),
        (
            "trade",
            &[("faults", "partition:4:12:0.5")],
            X20_TRADE_SPLIT_JSON,
        ),
        (
            "crash",
            &[("faults", "partition:4:12:0.5")],
            X20_CRASH_SPLIT_JSON,
        ),
    ];
    let reg = ScenarioRegistry::standard();
    for (attack, extra, expected) in fixtures {
        let mut p = Params::new();
        for (k, v) in X20_PARAMS.iter().chain(extra.iter()) {
            p.set(*k, *v);
        }
        let req = RunRequest::new(0.25, 1, attack, "fraction", &p);
        let report = reg
            .run("bar-gossip-digest", &req)
            .unwrap_or_else(|e| panic!("bar-gossip-digest {attack}: {e}"));
        assert_eq!(
            &report.to_json(),
            expected,
            "bar-gossip-digest {attack} {extra:?}: X20 report drifted"
        );
        if *expected == X20_FP_HEAVY_JSON {
            // The only golden on the bloom false-positive branch: a
            // re-pin must not lose the path it exists to cover.
            for key in ["digest_fp_rate", "digest_withheld", "false_cut_rate"] {
                assert!(
                    report.metric(key).unwrap() > 0.0,
                    "fp-heavy fixture lost {key}"
                );
            }
        }
    }
}

const X20_CLEAN_JSON: &str = r#"{"scenario":"bar-gossip-digest","rounds":25,"overall_delivery":1,"targeted_service":0,"usable":true,"attacker_coverage":0,"digest_bytes_on_wire":4753480,"digest_bytes_updates":4432896,"digest_fp_rate":0,"digest_requests":4329,"digest_withheld":0,"evicted_fraction":0,"evictions":0,"isolated_delivery":1,"junk_fraction":0,"mean_attacker_upload":0,"mean_honest_upload":86.58,"min_node_delivery":1,"nodes_ever_unusable":0,"satiated_delivery":0,"unusable_node_rounds":0}"#;
const X20_POISON_JSON: &str = r#"{"scenario":"bar-gossip-digest","rounds":25,"overall_delivery":1,"targeted_service":0,"usable":true,"attacker_coverage":0,"digest_bytes_on_wire":4676056,"digest_bytes_updates":4343808,"digest_fp_rate":0,"digest_requests":5787,"digest_withheld":1545,"evicted_fraction":0,"evictions":0,"isolated_delivery":1,"junk_fraction":0,"mean_attacker_upload":0,"mean_honest_upload":114.64864864864865,"min_node_delivery":1,"nodes_ever_unusable":0,"satiated_delivery":0,"unusable_node_rounds":0}"#;
const X20_AUDITED_JSON: &str = r#"{"scenario":"bar-gossip-digest","rounds":25,"overall_delivery":1,"targeted_service":0,"usable":true,"attacker_coverage":0,"attacker_cut_rate":1,"cut_precision":1,"cut_recall":1,"digest_bytes_on_wire":3857544,"digest_bytes_updates":3613696,"digest_fp_rate":0,"digest_requests":4081,"digest_withheld":552,"evicted_fraction":0,"evictions":0,"false_cut_rate":0,"isolated_delivery":1,"junk_fraction":0,"mean_attacker_upload":0,"mean_honest_upload":95.37837837837837,"min_node_delivery":1,"nodes_ever_unusable":0,"satiated_delivery":0,"unusable_node_rounds":0}"#;
const X20_TRADE_SPLIT_JSON: &str = r#"{"scenario":"bar-gossip-digest","rounds":25,"overall_delivery":0.9844594594594595,"targeted_service":0.9818181818181818,"usable":true,"attacker_coverage":0.875,"digest_bytes_on_wire":3073856,"digest_bytes_updates":2924544,"digest_fp_rate":0,"digest_requests":2856,"digest_withheld":0,"evicted_fraction":0,"evictions":0,"faults_crashes":0,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":288,"isolated_delivery":0.9883333333333333,"junk_fraction":0,"mean_attacker_upload":61.61538461538461,"mean_honest_upload":77.1891891891892,"min_node_delivery":0.9,"nodes_ever_unusable":0.5405405405405406,"satiated_delivery":0.9818181818181818,"unusable_node_rounds":0.05945945945945946}"#;
const X20_CRASH_SPLIT_JSON: &str = r#"{"scenario":"bar-gossip-digest","rounds":25,"overall_delivery":0.9851351351351352,"targeted_service":0,"usable":true,"attacker_coverage":0,"digest_bytes_on_wire":3310680,"digest_bytes_updates":3156992,"digest_fp_rate":0,"digest_requests":3083,"digest_withheld":0,"evicted_fraction":0,"evictions":0,"faults_crashes":0,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":288,"isolated_delivery":0.9851351351351352,"junk_fraction":0,"mean_attacker_upload":0,"mean_honest_upload":83.32432432432432,"min_node_delivery":0.925,"nodes_ever_unusable":0.5405405405405406,"satiated_delivery":0,"unusable_node_rounds":0.05675675675675676}"#;
const X20_AUDITED_1500_JSON: &str = r#"{"scenario":"bar-gossip-digest","rounds":25,"overall_delivery":1,"targeted_service":0,"usable":true,"attacker_coverage":0,"attacker_cut_rate":0.976,"cut_precision":1,"cut_recall":0.976,"digest_bytes_on_wire":123920512,"digest_bytes_updates":116289536,"digest_fp_rate":0,"digest_requests":129744,"digest_withheld":16180,"evicted_fraction":0,"evictions":0,"false_cut_rate":0,"isolated_delivery":1,"junk_fraction":0,"mean_attacker_upload":0,"mean_honest_upload":100.94577777777778,"min_node_delivery":1,"nodes_ever_unusable":0,"satiated_delivery":0,"unusable_node_rounds":0}"#;
const X20_FP_HEAVY_JSON: &str = r#"{"scenario":"bar-gossip-digest","rounds":25,"overall_delivery":0.9547297297297297,"targeted_service":0,"usable":true,"attacker_coverage":0,"attacker_cut_rate":1,"cut_precision":0.6842105263157895,"cut_recall":1,"digest_bytes_on_wire":3242552,"digest_bytes_updates":3185664,"digest_fp_rate":0.12074455057555719,"digest_requests":4083,"digest_withheld":479,"evicted_fraction":0,"evictions":0,"false_cut_rate":0.16216216216216217,"isolated_delivery":0.9547297297297297,"junk_fraction":0,"mean_attacker_upload":0,"mean_honest_upload":84.08108108108108,"min_node_delivery":0.175,"nodes_ever_unusable":0.13513513513513514,"satiated_delivery":0,"unusable_node_rounds":0.062162162162162166}"#;

#[test]
fn digest_sweeps_are_bit_identical_across_worker_counts() {
    // Fold an X20-shaped poison_rate sweep with 1 worker and with 8:
    // byte-identical figures, as for every other scenario (the CI
    // determinism matrix additionally pins LOTUS_RUN_THREADS for the
    // intra-run pool).
    let measure = |x: f64, seed: u64| {
        let reg = ScenarioRegistry::standard();
        let mut p = Params::new();
        for (k, v) in X20_PARAMS {
            p.set(*k, *v);
        }
        p.set("fraction", "0.3");
        let req = RunRequest::new(x, seed, "poison", "poison_rate", &p);
        let report = reg.run("bar-gossip-digest", &req).unwrap();
        let delivery = report.metric("isolated_delivery").unwrap();
        let withheld = report.metric("digest_withheld").unwrap();
        delivery + withheld
    };
    let xs = [0.0, 0.15, 1.0];
    let run = |threads: usize| {
        let cfg = SweepConfig {
            seeds: vec![1, 2, 3, 4, 5, 6],
            threads: 1,
        }
        .threads(threads);
        let series = sweep_fraction("x20", &xs, &cfg, measure);
        format!("{:?}", series.points)
    };
    assert_eq!(
        run(1),
        run(8),
        "digest sweep must fold bit-identically for any worker count"
    );
}
