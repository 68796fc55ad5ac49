//! Exact-report fixtures for the scrip volunteer scan.
//!
//! The registry cannot configure special providers, so the bench golden
//! suites never run a scrip economy with every kind of volunteer at
//! once. These runs do: altruists (the free pool), threshold agents (the
//! paid pool), special providers (the special-request filter) and a
//! partition epoch (blocked volunteers), with crashes and churn moving
//! the active set. Each report is pinned as its summary JSON.

use lotus_core::faults::FaultPlan;
use lotus_core::population::ChurnProfile;
use lotus_core::scenario::Summarize;
use scrip_economy::{ScripAttack, ScripConfig, ScripSim};

/// 150 agents (two full 64-agent words and a partial one), 3 of them
/// altruists and 6 special providers. Availability is low enough that
/// no altruist answers about a third of the requests, so the paid pool
/// sees real traffic.
fn economy() -> ScripConfig {
    ScripConfig::builder()
        .agents(150)
        .altruists(3)
        .special_service(6, 0.1)
        .money_per_agent(2)
        .threshold(4)
        .availability(0.3)
        .churn(ChurnProfile::parse("0.7:0.01:0.2/0.3:0.1:0.5").unwrap())
        .faults(FaultPlan::parse("loss:0.05/crash:0.01:0.2/partition:300:900:0.3").unwrap())
        .rounds(1_500)
        .warmup(200)
        .build()
        .unwrap()
}

fn run(attack: ScripAttack, seed: u64) -> String {
    lotus_core::scenario::run::<ScripSim>(economy(), attack, seed)
        .summarize()
        .to_json()
}

#[test]
fn unattacked_economy_with_every_volunteer_kind_is_pinned() {
    // No attacker bids, so every ordinary paid request goes through the
    // paid pool.
    assert_eq!(run(ScripAttack::None, 5), UNATTACKED_JSON);
}

#[test]
fn lotus_eater_economy_with_every_volunteer_kind_is_pinned() {
    assert_eq!(run(ScripAttack::lotus_eater(0.3, 0.5), 6), LOTUS_EATER_JSON);
}

const UNATTACKED_JSON: &str = r#"{"scenario":"scrip","rounds":1700,"overall_delivery":0.8069908814589666,"targeted_service":0,"usable":true,"attacker_money":0,"fail_broke_rate":0.09878419452887538,"fail_faulted_rate":0.02811550151975684,"fail_no_volunteer_rate":0.06610942249240122,"faults_crashes":2358,"faults_delayed":0,"faults_dropped":46,"faults_duplicated":0,"faults_partition_blocked":42926,"free_rate":0.42249240121580545,"gini":0.4070294784580499,"mean_satiated_fraction":0.189573696145127,"mean_threshold":4,"paid_rate":0.3844984802431611,"service_rate":0.8069908814589666,"special_service_rate":0.13953488372093023,"target_satiation":0,"total_money":300}"#;
const LOTUS_EATER_JSON: &str = r#"{"scenario":"scrip","rounds":1700,"overall_delivery":0.6097560975609756,"targeted_service":0.996562962962963,"usable":true,"attacker_money":108,"fail_broke_rate":0.34146341463414637,"fail_faulted_rate":0.019054878048780487,"fail_no_volunteer_rate":0.02972560975609756,"faults_crashes":2407,"faults_delayed":0,"faults_dropped":30,"faults_duplicated":0,"faults_partition_blocked":44400,"free_rate":0.3948170731707317,"gini":0.6733985260770975,"mean_satiated_fraction":0.3148888888888829,"mean_threshold":4,"paid_rate":0.2149390243902439,"service_rate":0.6097560975609756,"special_service_rate":0.1310344827586207,"target_satiation":0.996562962962963,"total_money":300}"#;
