//! Property tests for the sharded struct-of-arrays population engine
//! ([`lotus_core::soa::ShardMap`]), on the dependency-free
//! [`proptest_lite`](lotus_core::proptest_lite) harness.
//!
//! Each property runs across ~200 generated universes (arbitrary sizes,
//! shard widths, membership masks, churn and crash processes) and pins
//! the invariants the `O(active)` round loops rely on:
//!
//! * a sharded walk visits exactly the set bits, in strictly ascending
//!   index order — the drop-in-replacement contract that keeps every
//!   downstream rng draw sequence (and therefore every golden fixture)
//!   byte-identical to the dense `(0..n).filter(alive)` loops;
//! * the activity mask loaded each round agrees bit-for-bit with
//!   membership ∧ not-crashed, and the cached per-shard popcounts agree
//!   with a dense recount, under any churn profile and crash plan;
//! * a round loop driven by the sharded walk consumes an identical rng
//!   stream to the dense loop it replaced (byte-identical runs);
//! * incremental `activate`/`deactivate` bookkeeping matches a full
//!   `commit` recount, and `active_ranges` covers exactly the active
//!   shards.
//!
//! The end-to-end half of the equivalence claim — the bar-gossip and
//! scrip simulators producing byte-identical reports and golden
//! fixtures after the struct-of-arrays refactor — is pinned by the
//! golden suites in `crates/bench/tests` (`schedule_golden`,
//! `churn_golden`, `faults_golden`), which were generated by the dense
//! engine and still pass unchanged.

use lotus_core::bitset::BitSet;
use lotus_core::faults::{FaultPlan, FaultState};
use lotus_core::population::{ChurnProfile, ChurnSpec, Population};
use lotus_core::proptest_lite::{check, Draw};
use lotus_core::soa::ShardMap;
use netsim::rng::DetRng;

/// Draw a shard width: a nonzero multiple of 64 up to a few shards'
/// worth, so universes cover the single-shard fast path and genuinely
/// multi-shard layouts alike.
fn draw_shard_size(d: &mut Draw) -> usize {
    64 * d.int("shard_words", 1, 8) as usize
}

/// Draw a membership mask over `n` indices with roughly `density`
/// expected occupancy, from the property's own derived stream.
fn draw_mask(d: &mut Draw, n: usize, density: f64) -> BitSet {
    let mut rng = d.rng("mask");
    let mut mask = BitSet::new(n);
    for i in 0..n {
        if rng.chance(density) {
            mask.insert(i);
        }
    }
    mask
}

#[test]
fn sharded_walk_visits_exactly_the_set_bits_in_order() {
    check("sharded walk == set bits, ascending", 200, |d| {
        let n = d.int("n", 0, 5000) as usize;
        let shard_size = draw_shard_size(d);
        let density = d.ratio("density");
        let mask = draw_mask(d, n, density);
        let mut shards = ShardMap::with_shard_size(n, shard_size);
        shards.load(&mask);
        let dense: Vec<usize> = mask.iter().collect();
        let mut walked = Vec::new();
        shards.for_each_active(|i| walked.push(i));
        if walked != dense {
            return Err(format!(
                "walk diverged from the mask: {} walked vs {} set",
                walked.len(),
                dense.len()
            ));
        }
        if !walked.windows(2).all(|w| w[0] < w[1]) {
            return Err("walk order is not strictly ascending".to_string());
        }
        let mut collected = Vec::new();
        shards.collect_active_into(&mut collected);
        if !collected
            .iter()
            .map(|&i| i as usize)
            .eq(dense.iter().copied())
        {
            return Err("collect_active_into diverged from the mask".to_string());
        }
        if shards.active_count() != dense.len() {
            return Err(format!(
                "cached total {} != {} set bits",
                shards.active_count(),
                dense.len()
            ));
        }
        Ok(())
    });
}

#[test]
fn activity_mask_agrees_with_membership_and_crash_bits() {
    check("mask == present ∧ ¬crashed", 200, |d| {
        let n = d.int("n", 2, 400) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let shard_size = draw_shard_size(d);
        let leave = 0.5 * d.ratio("leave");
        let rejoin = d.ratio("rejoin");
        let crash = 0.3 * d.ratio("crash");
        let recover = d.ratio("recover");
        let rng = DetRng::seed_from(seed);
        let mut pop = Population::new(
            n,
            ChurnProfile::uniform(ChurnSpec::new(leave, rejoin)),
            rng.fork("population"),
        );
        let plan = FaultPlan::parse(&format!("crash:{crash}:{recover}"))
            .map_err(|e| format!("crash plan: {e}"))?;
        let mut faults = FaultState::new(n, plan, &rng);
        let mut shards = ShardMap::with_shard_size(n, shard_size);
        let mut scratch = BitSet::new(n);
        for t in 0..60u64 {
            pop.begin_round(t);
            faults.begin_round(t);
            // The per-round snapshot rebuild the simulators perform.
            scratch.copy_from(pop.present());
            scratch.subtract(faults.down_mask());
            shards.load(&scratch);
            for i in 0..n {
                let expect = pop.is_present(i) && !faults.is_down(i);
                if shards.contains(i) != expect {
                    return Err(format!(
                        "round {t}: node {i} activity {} but present={} down={}",
                        shards.contains(i),
                        pop.is_present(i),
                        faults.is_down(i)
                    ));
                }
            }
            // Cached per-shard popcounts agree with a dense recount.
            for s in 0..shards.shard_count() {
                let dense = shards
                    .shard_range(s)
                    .filter(|&i| shards.contains(i))
                    .count();
                if shards.shard_active_count(s) as usize != dense {
                    return Err(format!(
                        "round {t}: shard {s} cached {} != {} recounted",
                        shards.shard_active_count(s),
                        dense
                    ));
                }
                if shards.is_shard_active(s) != (dense > 0) {
                    return Err(format!("round {t}: shard {s} activity flag wrong"));
                }
            }
        }
        Ok(())
    });
}

#[test]
fn sharded_round_loop_is_byte_identical_to_dense() {
    // A miniature round loop in both shapes: the dense engine's
    // `(0..n).filter(alive)` scan and the sharded walk, each feeding the
    // visited indices into the same rng-consuming body. The streams —
    // and therefore anything a simulator derives from them — must match
    // exactly, round for round.
    check("sharded run == dense run", 200, |d| {
        let n = d.int("n", 2, 600) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let shard_size = draw_shard_size(d);
        let leave = 0.6 * d.ratio("leave");
        let rejoin = d.ratio("rejoin");
        let run = |sharded: bool| -> (Vec<u64>, u64) {
            let rng = DetRng::seed_from(seed);
            let mut pop = Population::new(
                n,
                ChurnProfile::uniform(ChurnSpec::new(leave, rejoin)),
                rng.fork("population"),
            );
            let mut body = rng.fork("body");
            let mut shards = ShardMap::with_shard_size(n, shard_size);
            let mut acc = vec![0u64; n];
            let mut visits = 0u64;
            for t in 0..40u64 {
                pop.begin_round(t);
                let mut touch = |i: usize| {
                    acc[i] = acc[i].wrapping_add(body.next_u64() ^ t);
                    visits += 1;
                };
                if sharded {
                    shards.load(pop.present());
                    shards.for_each_active(&mut touch);
                } else {
                    for i in 0..n {
                        if pop.is_present(i) {
                            touch(i);
                        }
                    }
                }
            }
            (acc, visits)
        };
        let dense = run(false);
        let sharded = run(true);
        if dense != sharded {
            return Err(format!(
                "runs diverged: dense {} visits vs sharded {}",
                dense.1, sharded.1
            ));
        }
        Ok(())
    });
}

#[test]
fn incremental_updates_and_ranges_match_commit() {
    check(
        "incremental == commit; ranges cover active shards",
        200,
        |d| {
            let n = d.int("n", 1, 3000) as usize;
            let shard_size = draw_shard_size(d);
            let density = d.ratio("density");
            let flips = d.int("flips", 0, 200) as usize;
            let mask = draw_mask(d, n, density);
            let mut shards = ShardMap::with_shard_size(n, shard_size);
            shards.load(&mask);
            // Random single-index churn through the incremental API...
            let mut rng = d.rng("flips");
            for _ in 0..flips {
                let i = rng.range(n as u64) as usize;
                if rng.chance(0.5) {
                    shards.activate(i);
                } else {
                    shards.deactivate(i);
                }
            }
            // ...must leave counts identical to a from-scratch recount.
            let mut recount = shards.clone();
            recount.commit();
            for s in 0..shards.shard_count() {
                if shards.shard_active_count(s) != recount.shard_active_count(s) {
                    return Err(format!(
                        "shard {s}: incremental {} != committed {}",
                        shards.shard_active_count(s),
                        recount.shard_active_count(s)
                    ));
                }
            }
            if shards.active_count() != recount.active_count() {
                return Err("incremental total diverged from commit".to_string());
            }
            // active_ranges covers exactly the active shards, ascending and
            // disjoint.
            let ranges: Vec<core::ops::Range<usize>> = shards.active_ranges().collect();
            for w in ranges.windows(2) {
                if w[0].end > w[1].start {
                    return Err("ranges overlap or are out of order".to_string());
                }
            }
            let mut active_in_ranges = 0usize;
            for r in &ranges {
                if r.end > n {
                    return Err(format!("range {r:?} exceeds the universe {n}"));
                }
                active_in_ranges += r.clone().filter(|&i| shards.contains(i)).count();
            }
            if active_in_ranges != shards.active_count() {
                return Err(format!(
                    "ranges cover {} active indices, map has {}",
                    active_in_ranges,
                    shards.active_count()
                ));
            }
            Ok(())
        },
    );
}
