//! Property tests for the plan/apply exchange redesign, on the
//! dependency-free [`proptest_lite`](lotus_core::proptest_lite) harness.
//!
//! The exchange layer's contract after the batched-plan redesign has two
//! halves, and each gets a property here:
//!
//! * **Stream equivalence.** The plan phase (hoisted [`PairPlanner`]
//!   hashing + one [`ExchangePlan::shuffle`]) must consume *exactly* the
//!   rng draws of the per-edge walk it replaced — a shuffled initiator
//!   list with `partner_of` recomputed per edge — so every golden figure
//!   stays byte-identical. Pinned over ~200 generated universes of
//!   arbitrary size, round, protocol, and active subset.
//! * **Block equivalence.** The simulators plan their shuffled
//!   initiator list 64 pairs at a time; the concatenated blocks must be
//!   exactly the shuffled [`ExchangePlan`] batch over the same
//!   initiators and order stream, which ties the batch API (what the
//!   perfbench replays time) to what the apply loops run.
//! * **Worker-count invariance.** A full BAR Gossip run must produce an
//!   identical report for *any* `run_threads` value — the pool only
//!   splits the read-only plan walk, never the apply — under churn,
//!   faults (loss/crash/partition), flash crowds, and every attack. The
//!   multi-shard cases push past the plan pool's engagement floor so the
//!   parallel split itself is exercised, not just the knob.

use bar_gossip::{AttackPlan, BarGossipConfig, BarGossipReport, BarGossipSim, ReportConfig};
use lotus_core::bitset::BitSet;
use lotus_core::faults::FaultPlan;
use lotus_core::population::{ArrivalProcess, ChurnSpec};
use lotus_core::proptest_lite::{check, Draw};
use lotus_core::scenario::run;
use netsim::partner::{PartnerSchedule, Protocol};
use netsim::plan::{ExchangePlan, PlannedPair, READY, VIABLE};
use netsim::NodeId;

#[test]
fn plan_phase_consumes_the_per_edge_walk_stream() {
    check("plan == shuffled per-edge walk", 200, |d| {
        let n = d.int("n", 2, 3_000) as u32;
        let seed = d.int("seed", 0, i64::MAX) as u64;
        let round = d.int("round", 0, 1_000) as u64;
        let proto = match d.int("proto", 0, 2) {
            0 => Protocol::BalancedExchange,
            1 => Protocol::OptimisticPush,
            _ => Protocol::Other(7),
        };
        let density = d.ratio("density");

        // The pre-redesign walk: an active initiator list, shuffled,
        // then one per-edge partner_of call per initiator.
        let mut mask_rng = d.rng("mask");
        let active: Vec<NodeId> = NodeId::all(n)
            .filter(|_| mask_rng.chance(density.max(0.05)))
            .collect();
        let sched = PartnerSchedule::new(seed, n);
        let mut legacy = active.clone();
        let mut legacy_rng = d.rng("order");
        legacy_rng.shuffle(&mut legacy);

        // The redesigned phase: batched fill + one plan shuffle.
        let planner = sched.planner(round, proto);
        let mut plan = ExchangePlan::new();
        plan.reset(active.len());
        planner.fill(active.iter().copied(), |_, _| READY, plan.entries_mut());
        let mut plan_rng = d.rng("order");
        plan.shuffle(&mut plan_rng);

        if plan.len() != legacy.len() {
            return Err(format!("{} planned vs {} walked", plan.len(), legacy.len()));
        }
        for (e, &v) in plan.entries().iter().zip(&legacy) {
            if e.initiator != v {
                return Err(format!(
                    "shuffle diverged: planned {:?} where the walk has {v:?}",
                    e.initiator
                ));
            }
            let want = sched.partner_of(v, round, proto);
            if e.partner != want {
                return Err(format!(
                    "partner diverged for {v:?}: planned {:?}, per-edge {want:?}",
                    e.partner
                ));
            }
        }
        // Both paths must leave the shared rng at the same point, or the
        // next consumer would fork differently.
        if legacy_rng.next_u64() != plan_rng.next_u64() {
            return Err("rng streams diverged after the shuffle".to_string());
        }
        Ok(())
    });
}

#[test]
fn blocks_of_the_shuffled_initiator_list_are_the_shuffled_plan() {
    check("64-pair blocks == shuffled ExchangePlan", 40, |d| {
        let seed = d.int("seed", 0, i64::MAX) as u64;
        let round = d.int("round", 0, 1_000) as u64;
        let proto = match d.int("proto", 0, 2) {
            0 => Protocol::BalancedExchange,
            1 => Protocol::OptimisticPush,
            _ => Protocol::Other(7),
        };
        let near_thousand = d.int("near_thousand", 960, 1_040) as usize;
        for len in [0, 1, 63, 64, 65, 128, 129, near_thousand] {
            // A random active set of exactly `len` nodes.
            let n = (len + d.int("spare", 0, 2_000) as usize).max(2);
            let active = BitSet::sample(n, len, &mut d.rng("active"));
            let initiators: Vec<u32> = active.iter().map(|i| i as u32).collect();
            let planner = PartnerSchedule::new(seed, n as u32).planner(round, proto);
            // Any pure function of the pair stands in for the viability
            // snapshot.
            let flags = |v: NodeId, p: NodeId| match (v.0 ^ p.0) % 3 {
                0 => 0,
                1 => VIABLE,
                _ => READY,
            };

            let mut plan = ExchangePlan::new();
            plan.reset(len);
            planner.fill(
                initiators.iter().map(|&i| NodeId(i)),
                flags,
                plan.entries_mut(),
            );
            plan.shuffle(&mut d.rng("order"));

            let mut order = initiators;
            d.rng("order").shuffle(&mut order);
            let mut blocks = Vec::with_capacity(len);
            let mut block = [PlannedPair::default(); 64];
            for chunk in order.chunks(64) {
                let out = &mut block[..chunk.len()];
                planner.fill(chunk.iter().map(|&i| NodeId(i)), flags, out);
                blocks.extend_from_slice(out);
            }
            if blocks != plan.entries() {
                let at = blocks
                    .iter()
                    .zip(plan.entries())
                    .position(|(b, e)| b != e)
                    .unwrap_or(blocks.len().min(plan.len()));
                return Err(format!(
                    "len {len}: blocks diverge from the plan at entry {at} \
                     ({} block entries, {} planned)",
                    blocks.len(),
                    plan.len()
                ));
            }
        }
        Ok(())
    });
}

/// One drawn adversarial universe — attack, defenses, churn, faults,
/// and a flash crowd — drawn *once* per case so every `run_threads`
/// setting replays the identical configuration.
struct Universe {
    seed: u64,
    attack: AttackPlan,
    churn: ChurnSpec,
    arrival: ArrivalProcess,
    faults: FaultPlan,
    unbalanced: bool,
    report: Option<ReportConfig>,
    cutoff: Option<u32>,
    nodes: u32,
    rounds: u32,
}

fn draw_universe(d: &mut Draw, nodes: u32, rounds: u32) -> Universe {
    let seed = d.int("seed", 0, i64::MAX) as u64;
    let attack = match d.int("attack", 0, 3) {
        0 => AttackPlan::none(),
        1 => AttackPlan::crash(d.ratio("crash_frac") * 0.5),
        2 => AttackPlan::ideal_lotus_eater(
            d.ratio("attack_frac") * 0.5,
            0.3 + d.ratio("satiation") * 0.6,
        ),
        _ => AttackPlan::trade_lotus_eater(
            d.ratio("attack_frac") * 0.5,
            0.3 + d.ratio("satiation") * 0.6,
        ),
    };
    Universe {
        seed,
        attack,
        churn: ChurnSpec::new(d.ratio("leave") * 0.2, d.ratio("rejoin") * 0.5),
        arrival: ArrivalProcess::Burst {
            round: 1 + d.int("burst_round", 0, 3) as u64,
            size: nodes / 4,
            period: Some(2),
        },
        faults: FaultPlan {
            loss: d.ratio("loss") * 0.3,
            duplicate: 0.0,
            delay: d.ratio("delay") * 0.2,
            crash: d.ratio("fault_crash") * 0.05,
            recover: 0.5,
            partition_start: 2,
            partition_len: d.int("partition_len", 0, 3) as u64,
            partition_frac: 0.3,
        },
        unbalanced: d.int("unbalanced", 0, 1) == 1,
        report: (d.int("with_report", 0, 1) == 1).then(|| ReportConfig {
            obedient_fraction: d.ratio("obedient"),
            quorum: 2,
            excess_slack: 1,
        }),
        cutoff: (d.int("with_cutoff", 0, 1) == 1).then_some(2),
        nodes,
        rounds,
    }
}

impl Universe {
    fn run_at(&self, threads: usize) -> Result<BarGossipReport, String> {
        let mut b = BarGossipConfig::builder()
            .nodes(self.nodes)
            .updates_per_round(3)
            .update_lifetime(4)
            .copies_seeded(5)
            .rounds(self.rounds)
            .warmup_rounds(2)
            .run_threads(threads)
            .churn(self.churn)
            .arrival(self.arrival)
            .faults(self.faults)
            .unbalanced_exchanges(self.unbalanced)
            .cutoff_quorum(self.cutoff);
        if let Some(report) = self.report {
            b = b.report_defense(report);
        }
        let cfg = b.build().map_err(|e| format!("config rejected: {e:?}"))?;
        Ok(run::<BarGossipSim>(cfg, self.attack, self.seed))
    }
}

/// The worker pool must be invisible in every figure: identical reports
/// at 1, 2, and 8 plan threads.
fn assert_thread_invariance(d: &mut Draw, nodes: u32, rounds: u32) -> Result<(), String> {
    let universe = draw_universe(d, nodes, rounds);
    let base = universe.run_at(1)?;
    for threads in [2usize, 8] {
        let other = universe.run_at(threads)?;
        if other != base {
            return Err(format!(
                "report diverged at run_threads={threads}: {other:?} vs {base:?}"
            ));
        }
    }
    Ok(())
}

#[test]
fn reports_identical_across_run_threads_single_shard() {
    check("run_threads invariance (dense path)", 40, |d| {
        let nodes = d.int("nodes", 30, 200) as u32;
        assert_thread_invariance(d, nodes, 6)
    });
}

#[test]
fn reports_identical_across_run_threads_multi_shard() {
    // Past 1024 nodes the plan walks live shards; past the pool's
    // engagement floor (16384 active) it genuinely splits across
    // workers. Fewer cases — these universes are big.
    check("run_threads invariance (sharded path)", 6, |d| {
        let nodes = 2_000 + 4_000 * d.int("nodes_k", 0, 5) as u32;
        assert_thread_invariance(d, nodes, 3)
    });
}

#[test]
fn reports_identical_across_run_threads_at_pool_scale() {
    // One deliberately-large universe well past the engagement floor:
    // the parallel split itself (chunk planning, disjoint subslice
    // fills, shard-order concatenation) must be byte-invisible.
    check("run_threads invariance (pool engaged)", 2, |d| {
        assert_thread_invariance(d, 24_000, 3)
    });
}
