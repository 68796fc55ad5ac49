//! Property tests for the swarm simulator, on the dependency-free
//! [`proptest_lite`](lotus_core::proptest_lite) harness.
//!
//! Every property runs 16 cases; the seed of each case's swarm comes
//! from its derived stream ([`Draw::rng`]), and the attack, the piece
//! policy and every size are shrinkable draws.

use lotus_core::proptest_lite::{check, Draw};
use lotus_core::satiation::Satiable;
use lotus_core::scenario::run;
use netsim::round::RoundSim;
use netsim::NodeId;
use torrent_sim::{PiecePolicy, SwarmAttack, SwarmConfig, SwarmSim, TargetPolicy};

const CASES: u64 = 16;

/// No attack, or a satiation attack targeting random peers or rare-piece
/// holders, equally likely.
fn arb_attack(d: &mut Draw) -> SwarmAttack {
    let policy = match d.int("attack", 0, 2) {
        0 => return SwarmAttack::none(),
        1 => TargetPolicy::Random,
        _ => TargetPolicy::RarePieceHolders,
    };
    let peers = d.int("attacker_peers", 1, 4) as u32;
    let slots = d.int("slots", 1, 7) as u32;
    SwarmAttack::satiate(peers, slots, d.ratio("target_fraction"), policy)
}

fn swarm(leechers: u32, pieces: u32, max_rounds: u64) -> SwarmConfig {
    SwarmConfig::builder()
        .leechers(leechers)
        .pieces(pieces)
        .max_rounds(max_rounds)
        .build()
        .expect("valid config")
}

#[test]
fn pieces_only_accumulate() {
    check("swarm::pieces_only_accumulate", CASES, |d| {
        let seed = d.rng("seed").next_u64();
        let cfg = swarm(
            d.int("leechers", 4, 19) as u32,
            d.int("pieces", 4, 39) as u32,
            200,
        );
        let mut sim = SwarmSim::new(cfg, arb_attack(d), seed);
        let n = sim.node_count();
        let mut prev = vec![false; n as usize];
        for t in 0..40 {
            sim.round(t);
            for i in 0..n {
                let complete = sim.is_complete(NodeId(i));
                if prev[i as usize] && !complete {
                    return Err(format!("node {i} lost completion in round {t}"));
                }
                prev[i as usize] = complete;
            }
        }
        Ok(())
    });
}

#[test]
fn swarm_always_completes_with_a_permanent_seed() {
    check("swarm::completes_with_permanent_seed", CASES, |d| {
        let seed = d.rng("seed").next_u64();
        let (leechers, pieces) = (
            d.int("leechers", 4, 15) as u32,
            d.int("pieces", 4, 23) as u32,
        );
        let policy = if d.int("policy", 0, 1) == 0 {
            PiecePolicy::RarestFirst
        } else {
            PiecePolicy::Random
        };
        let cfg = SwarmConfig::builder()
            .leechers(leechers)
            .pieces(pieces)
            .piece_policy(policy)
            .max_rounds(1_500)
            .build()
            .expect("valid config");
        let report = run::<SwarmSim>(cfg, SwarmAttack::none(), seed);
        if !report.all_complete || report.completion_rounds.iter().any(Option::is_none) {
            return Err(format!("stuck after {} rounds", report.rounds));
        }
        Ok(())
    });
}

#[test]
fn upload_accounting_is_consistent() {
    check("swarm::upload_accounting_consistent", CASES, |d| {
        let seed = d.rng("seed").next_u64();
        let mut sim = SwarmSim::new(swarm(10, 16, 400), arb_attack(d), seed);
        for t in 0..60 {
            sim.round(t);
        }
        let report = sim.report();
        let per_node: u64 = (0..sim.node_count())
            .map(|i| sim.service_provided(NodeId(i)))
            .sum();
        if report.attacker_upload + report.honest_upload != per_node {
            return Err(format!(
                "uploads {} + {} != per-node total {per_node}",
                report.attacker_upload, report.honest_upload
            ));
        }
        // Useful receipts cannot exceed uploads.
        if report.duplicates > per_node {
            return Err(format!(
                "{} duplicates of {per_node} uploads",
                report.duplicates
            ));
        }
        Ok(())
    });
}

#[test]
fn satiation_equals_completion() {
    check("swarm::satiation_equals_completion", CASES, |d| {
        let mut sim = SwarmSim::new(
            swarm(8, 12, 400),
            SwarmAttack::none(),
            d.rng("seed").next_u64(),
        );
        for t in 0..30 {
            sim.round(t);
        }
        match (0..sim.node_count())
            .find(|&i| sim.is_satiated(NodeId(i)) != sim.is_complete(NodeId(i)))
        {
            Some(i) => Err(format!("node {i}: satiation and completion disagree")),
            None => Ok(()),
        }
    });
}
