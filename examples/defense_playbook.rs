//! The four defense principles of §4, each exercised against a live
//! attack:
//!
//! 1. resilience to non-random failures — spread the initial allocation;
//! 2. making satiation hard — network-coding satiation (any k of n);
//! 3. leveraging obedience — report-and-evict excessive service;
//! 4. encouraging altruism — bigger optimistic pushes.
//!
//! Run with: `cargo run --release --example defense_playbook`

use lotus_eater::bar_gossip::ReportConfig;
use lotus_eater::lotus_core::defense::{Mechanism, Principle};
use lotus_eater::lotus_core::token::{Allocation, SatFunction, TokenSystemConfig};
use lotus_eater::prelude::*;

fn token_reach(copies: usize, sat: SatFunction) -> f64 {
    let n = 50u32;
    let cfg = TokenSystemConfig::builder(Graph::complete(n))
        .tokens(8)
        .sat(sat)
        .allocation(Allocation::RareToken {
            holder: NodeId(0),
            copies: copies.max(2),
        })
        .build()
        .expect("valid config");
    let attack = TokenAttack::rare_holders(0).budgeted(2);
    run::<TokenSystem>(TokenScenarioConfig::new(cfg, 80), attack, 7).untouched_mean_coverage()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("The §4 defense playbook\n");

    // 1. Non-random failure resilience: the rare token's initial spread.
    println!("[1] {}", Principle::NonRandomFailureResilience);
    let single = {
        let cfg = TokenSystemConfig::builder(Graph::complete(50))
            .tokens(8)
            .allocation(Allocation::RareToken {
                holder: NodeId(0),
                copies: 3,
            })
            .build()?;
        let attack = TokenAttack::rare_holders(0).budgeted(2);
        run::<TokenSystem>(TokenScenarioConfig::new(cfg, 80), attack, 7).untouched_mean_coverage()
    };
    println!("    rare token at ONE node, budget-2 attacker: coverage {single:.3}");
    println!("    -> spread every resource before an attacker can find it\n");

    // 2. Making satiation hard: coding changes the satiation function.
    println!(
        "[2] {} — {}",
        Principle::MakeSatiationHard,
        Mechanism::Coding { need: 6 }.label()
    );
    let collect_all = token_reach(2, SatFunction::CollectAll);
    let coded = token_reach(2, SatFunction::AnyK(6));
    println!("    collect-all coverage under rare-token attack: {collect_all:.3}");
    println!("    any-6-of-8 coverage under the same attack:    {coded:.3}\n");

    // 3. Leveraging obedience: report-and-evict.
    println!(
        "[3] {} — {}",
        Principle::LeverageObedience,
        Mechanism::ReportAndEvict {
            obedient_fraction: 0.5,
            quorum: 3
        }
        .label()
    );
    let base = BarGossipConfig::builder()
        .nodes(100)
        .updates_per_round(6)
        .copies_seeded(8)
        .rounds(25)
        .build()?;
    let attack = AttackPlan::trade_lotus_eater(0.30, 0.70);
    let undefended = run::<BarGossipSim>(base.clone(), attack, 3);
    let defended_cfg = BarGossipConfig::builder()
        .nodes(100)
        .updates_per_round(6)
        .copies_seeded(8)
        .rounds(25)
        .report_defense(ReportConfig {
            obedient_fraction: 0.5,
            quorum: 3,
            excess_slack: 1,
        })
        .build()?;
    let defended = run::<BarGossipSim>(defended_cfg, attack, 3);
    println!(
        "    trade attack at 30%: isolated delivery {:.3} -> {:.3} ({} of {} attackers evicted)\n",
        undefended.isolated_delivery(),
        defended.isolated_delivery(),
        defended.evictions,
        defended.counts.attacker
    );

    // 4. Encouraging altruism: bigger pushes (Figure 2's defense).
    println!(
        "[4] {} — {}",
        Principle::EncourageAltruism,
        Mechanism::PushSize(10).label()
    );
    let ideal = AttackPlan::ideal_lotus_eater(0.10, 0.70);
    let small_push = run::<BarGossipSim>(base.clone(), ideal, 5);
    let big_push_cfg = BarGossipConfig::builder()
        .nodes(100)
        .updates_per_round(6)
        .copies_seeded(8)
        .rounds(25)
        .push_size(10)
        .build()?;
    let big_push = run::<BarGossipSim>(big_push_cfg, ideal, 5);
    println!(
        "    ideal attack at 10%: isolated delivery {:.3} (push 2) -> {:.3} (push 10)",
        small_push.isolated_delivery(),
        big_push.isolated_delivery()
    );
    println!("    willingness to give away more — at the risk of junk — feeds the isolated.");
    Ok(())
}
