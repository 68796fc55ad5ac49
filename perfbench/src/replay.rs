//! Replays of each layer's public primitives on inputs shaped like the
//! workload. Every batch of calls is one span; a metric is the median
//! batch time divided by the calls (or items) in the batch.

use std::hint::black_box;

use bar_gossip::exchange::{
    balanced_exchange_into, optimistic_push_into, BalancedOutcome, PushOutcome,
};
use bar_gossip::update::{UpdateId, WindowSet};
use lotus_core::bitset::BitSet;
use lotus_core::digest::{region_hash, BloomDigest};
use lotus_core::faults::{FaultPlan, FaultState};
use lotus_core::pool::WorkerPool;
use lotus_core::population::{ArrivalProcess, ChurnProfile, Population};
use lotus_core::schedule::{AttackSchedule, ScheduleState};
use lotus_core::soa::ShardMap;
use netsim::partner::{PartnerSchedule, Protocol};
use netsim::plan::{ExchangePlan, PlannedPair, READY};
use netsim::rng::DetRng;
use netsim::NodeId;

use crate::metrics::{median, Metric};
use crate::trace::{Span, Trace};
use crate::workloads::{Workload, WEATHER_CHURN, WEATHER_FAULTS, WEATHER_SCHEDULE};

/// Timed batches per primitive (one untimed batch warms up first).
const BATCHES: usize = 15;
/// Table 1: updates per round and update lifetime.
const TABLE1_PER_ROUND: u32 = 10;
const TABLE1_LIFETIME: u32 = 10;
const TABLE1_NODES: usize = 250;
/// The 1M config: universe, nodes present before the burst, burst round.
const MILLION: usize = 1_000_000;
const SPARSE_ACTIVE: usize = 10_000;
const BURST_ROUND: u64 = 9;

struct Replayer<'a> {
    trace: &'a mut Trace,
    root: usize,
    out: Vec<Metric>,
}

impl Replayer<'_> {
    /// Time `BATCHES` calls of `batch`, each doing `items` units of work,
    /// and return the median ns per unit.
    fn time(&mut self, name: &'static str, items: usize, mut batch: impl FnMut()) -> f64 {
        batch();
        let mut per_item = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start_ns = self.trace.now();
            batch();
            let end_ns = self.trace.now();
            self.trace.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(self.root),
                job: None,
            });
            per_item.push((end_ns - start_ns) as f64 / items as f64);
        }
        median(&per_item)
    }

    fn record(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.out.push(Metric::new(name, unit, value));
    }

    fn ns(&mut self, name: &'static str, items: usize, batch: impl FnMut()) {
        let v = self.time(name, items, batch);
        self.record(name, "ns", v);
    }
}

/// Run every replay and return its per-layer metrics.
pub fn run_replays(wl: &Workload, seed: u64, trace: &mut Trace) -> Vec<Metric> {
    let start_ns = trace.now();
    let root = trace.push(Span {
        name: "replay",
        start_ns,
        end_ns: start_ns,
        parent: None,
        job: None,
    });
    let mut r = Replayer {
        trace,
        root,
        out: Vec::new(),
    };
    let mut rng = DetRng::seed_from(seed).fork("replay");
    windows(&mut r, &mut rng);
    plan(&mut r, wl.nodes, seed);
    shards(&mut r);
    bitset(&mut r, wl.nodes, &mut rng);
    digest(&mut r, &mut rng);
    rngs(&mut r, seed);
    population(&mut r, wl, seed);
    faults(&mut r, wl.nodes, seed);
    schedule(&mut r);
    pool(&mut r, seed);
    let end_ns = r.trace.now();
    r.trace.spans[root].end_ns = end_ns;
    r.out
}

/// Table-1 windows at `now`, each holding a random ~60% of the live ids.
fn table1_windows(rng: &mut DetRng, now: u64) -> Vec<WindowSet> {
    (0..TABLE1_NODES)
        .map(|_| {
            let mut w = WindowSet::new(TABLE1_PER_ROUND, TABLE1_LIFETIME);
            for round in 0..=now {
                w.advance(round);
            }
            for round in w.start()..=now {
                for slot in 0..TABLE1_PER_ROUND {
                    if rng.chance(0.6) {
                        w.insert(UpdateId { round, slot });
                    }
                }
            }
            w
        })
        .collect()
}

/// `exchange.*` and `window.*`: the dense exchange round's primitives.
fn windows(r: &mut Replayer<'_>, rng: &mut DetRng) {
    let now = 2 * u64::from(TABLE1_LIFETIME);
    let ws = table1_windows(rng, now);
    let n = ws.len();
    let partner = |i: usize| (i * 7 + 3) % n;
    let mut bal = BalancedOutcome::default();
    r.ns("exchange.balanced_ns", n, || {
        for (i, w) in ws.iter().enumerate() {
            balanced_exchange_into(w, &ws[partner(i)], now, false, None, &mut bal);
            black_box(&bal);
        }
    });
    let mut push = PushOutcome::default();
    r.ns("exchange.push_ns", n, || {
        for (i, w) in ws.iter().enumerate() {
            optimistic_push_into(w, &ws[partner(i)], now, 2, 2, 1, None, &mut push);
            black_box(&push);
        }
    });
    let mut wanted = Vec::new();
    r.ns("window.wanted_ns", n, || {
        for (i, w) in ws.iter().enumerate() {
            w.wanted_from_into(&ws[partner(i)], now, usize::MAX, 0, u32::MAX, &mut wanted);
            black_box(&wanted);
        }
    });
    let mut acc = ws[0].clone();
    r.ns("window.union_ns", n, || {
        acc.clear();
        for w in &ws {
            acc.union_with(w);
        }
        black_box(&acc);
    });
    let mut w = WindowSet::new(TABLE1_PER_ROUND, TABLE1_LIFETIME);
    let mut round = 0u64;
    let steps = 1000;
    r.ns("window.advance_ns", steps, || {
        for _ in 0..steps {
            black_box(w.advance(round));
            round += 1;
        }
    });
}

/// `plan.*`: one round's pair plan over `n` initiators.
fn plan(r: &mut Replayer<'_>, n: usize, seed: u64) {
    let sched = PartnerSchedule::new(seed, n as u32);
    let mut batch = ExchangePlan::new();
    batch.reset(n);
    let mut round = 0u64;
    r.ns("plan.fill_ns_per_pair", n, || {
        round += 1;
        let planner = sched.planner(round, Protocol::BalancedExchange);
        planner.fill(NodeId::all(n as u32), |_, _| READY, batch.entries_mut());
        black_box(batch.entries());
    });
    let mut order = DetRng::seed_from(seed).fork("order");
    r.ns("plan.shuffle_ns_per_pair", n, || {
        batch.shuffle(&mut order);
        black_box(batch.entries());
    });
}

/// The 1M shard map with the indices the registered config keeps
/// present before its burst (the top `SPARSE_ACTIVE`).
fn sparse_million() -> ShardMap {
    let mut mask = BitSet::new(MILLION);
    for i in MILLION - SPARSE_ACTIVE..MILLION {
        mask.insert(i);
    }
    let mut shards = ShardMap::new(MILLION);
    shards.load(&mask);
    shards
}

fn dense_million() -> ShardMap {
    let mut shards = ShardMap::new(MILLION);
    shards.load(&BitSet::full(MILLION));
    shards
}

/// `shard.*`: `ShardMap` walks before and after the burst, and commits.
fn shards(r: &mut Replayer<'_>) {
    for (name, map) in [
        ("shard.walk_ns_per_active.sparse", sparse_million()),
        ("shard.walk_ns_per_active.dense", dense_million()),
    ] {
        r.ns(name, map.active_count(), || {
            let mut sum = 0usize;
            map.for_each_active(|i| sum = sum.wrapping_add(i));
            black_box(sum);
        });
    }
    let mut map = dense_million();
    let us = r.time("shard.commit_us", 1, || {
        map.commit();
        black_box(map.active_count());
    }) * 1e-3;
    r.record("shard.commit_us", "us", us);
}

/// `bitset.*` over an `n`-node universe.
fn bitset(r: &mut Replayer<'_>, n: usize, rng: &mut DetRng) {
    let half = |rng: &mut DetRng| BitSet::from_iter_with(n, (0..n).filter(|_| rng.chance(0.5)));
    let (a, b) = (half(rng), half(rng));
    let mut acc = a.clone();
    let words = a.words().len();
    let reps = (1 << 16) / words + 1;
    r.ns("bitset.union_ns_per_word", reps * words, || {
        for _ in 0..reps {
            acc.union_with(&b);
        }
        black_box(&acc);
    });
    let bits = a.len();
    let reps = (1 << 16) / bits.max(1) + 1;
    r.ns("bitset.iter_ns_per_bit", reps * bits, || {
        for _ in 0..reps {
            black_box(a.iter().fold(0usize, usize::wrapping_add));
        }
    });
}

/// `digest.*`: one bloom advertisement of a full Table-1 window.
fn digest(r: &mut Replayer<'_>, rng: &mut DetRng) {
    let keys: Vec<u64> = (0..u64::from(TABLE1_LIFETIME))
        .flat_map(|round| (0..u64::from(TABLE1_PER_ROUND)).map(move |slot| (round << 6) | slot))
        .collect();
    let mut bloom = BloomDigest::new(1024, 4);
    let reps = 100;
    r.ns("digest.rebuild_ns", reps, || {
        for _ in 0..reps {
            bloom.clear();
            for &k in &keys {
                bloom.insert(k);
            }
        }
        black_box(&bloom);
    });
    // Half the probes hit inserted ids, half miss.
    let probes: Vec<u64> = (0..4096)
        .map(|i| {
            if i % 2 == 0 {
                keys[i / 2 % keys.len()]
            } else {
                rng.next_u64()
            }
        })
        .collect();
    r.ns("digest.contains_ns", probes.len(), || {
        black_box(probes.iter().filter(|&&k| bloom.contains(k)).count());
    });
    let masks: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
    r.ns("digest.region_hash_ns", masks.len(), || {
        let mut h = 0u64;
        for (region, &m) in masks.iter().enumerate() {
            h ^= region_hash(region as u64, m);
        }
        black_box(h);
    });
}

/// `rng.*`: the deterministic stream and its labelled forks.
fn rngs(r: &mut Replayer<'_>, seed: u64) {
    let mut stream = DetRng::seed_from(seed);
    let calls = 1 << 14;
    r.ns("rng.next_u64_ns", calls, || {
        let mut x = 0u64;
        for _ in 0..calls {
            x ^= stream.next_u64();
        }
        black_box(x);
    });
    let parent = DetRng::seed_from(seed);
    let calls = 1 << 12;
    let mut idx = 0u64;
    r.ns("rng.fork_ns", calls, || {
        for _ in 0..calls {
            black_box(parent.fork_idx("replay", idx));
            idx += 1;
        }
    });
}

/// `population.begin_round_ns`: the 1M config's burst rounds on the
/// flash crowd, the weather churn profile elsewhere.
fn population(r: &mut Replayer<'_>, wl: &Workload, seed: u64) {
    let rng = DetRng::seed_from(seed).fork("population");
    if wl.nodes >= MILLION {
        let mut fresh = Population::new(MILLION, ChurnProfile::none(), rng);
        fresh.set_arrival(ArrivalProcess::Burst {
            round: BURST_ROUND,
            size: (MILLION - SPARSE_ACTIVE) as u32,
            period: None,
        });
        let rounds = BURST_ROUND as usize + 1;
        let mut pop = fresh.clone();
        r.ns("population.begin_round_ns", rounds, || {
            pop.clone_from(&fresh);
            for t in 0..=BURST_ROUND {
                pop.begin_round(t);
            }
            black_box(pop.present_count());
        });
    } else {
        let profile = ChurnProfile::parse(WEATHER_CHURN).expect("weather churn profile parses");
        let mut pop = Population::new(wl.nodes, profile, rng);
        let mut t = 0u64;
        let rounds = 200;
        r.ns("population.begin_round_ns", rounds, || {
            for _ in 0..rounds {
                pop.begin_round(t);
                t += 1;
            }
            black_box(pop.present_count());
        });
    }
}

/// `faults.*` under the weather plan.
fn faults(r: &mut Replayer<'_>, n: usize, seed: u64) {
    let n = n.min(TABLE1_NODES);
    let plan = FaultPlan::parse(WEATHER_FAULTS).expect("weather fault plan parses");
    let mut state = FaultState::new(n, plan, &DetRng::seed_from(seed));
    let mut t = 0u64;
    let rounds = 200;
    r.ns("faults.begin_round_ns", rounds, || {
        for _ in 0..rounds {
            state.begin_round(t);
            t += 1;
        }
        black_box(state.down_count());
    });
    let calls = 1 << 14;
    r.ns("faults.fate_ns", calls, || {
        for i in 0..calls {
            black_box(state.fate(0, i % n));
        }
    });
}

/// `schedule.is_active_ns` under the weather schedule.
fn schedule(r: &mut Replayer<'_>) {
    let spec = AttackSchedule::parse(WEATHER_SCHEDULE).expect("weather schedule parses");
    let mut state = ScheduleState::new(spec);
    let mut t = 0u64;
    let calls = 1 << 14;
    r.ns("schedule.is_active_ns", calls, || {
        let mut active = 0usize;
        for _ in 0..calls {
            active += usize::from(state.is_active(t, None));
            t += 1;
        }
        black_box(active);
    });
}

/// `pool.*`: the plan phase of a 1M-active round, split at the shard
/// boundary nearest the middle, on one and on two threads.
fn pool(r: &mut Replayer<'_>, seed: u64) {
    let map = dense_million();
    let total = map.active_count();
    let shards = map.shard_count();
    let mid = (0..shards)
        .find(|&s| map.active_count_in(0..s + 1) >= total / 2)
        .map_or(shards, |s| s + 1);
    let bounds = [(0, mid), (mid, shards)];
    let sizes = [
        map.active_count_in(0..mid),
        map.active_count_in(mid..shards),
    ];
    let sched = PartnerSchedule::new(seed, MILLION as u32);
    let mut batch = ExchangePlan::new();
    batch.reset(total);
    for (name, threads) in [("pool.partitioned_us.t1", 1), ("pool.partitioned_us.t2", 2)] {
        let workers = WorkerPool::new(threads);
        let mut round = 0u64;
        let us = r.time(name, 1, || {
            round += 1;
            let planner = sched.planner(round, Protocol::BalancedExchange);
            workers.run_partitioned(batch.entries_mut(), &sizes, |chunk, out| {
                let (lo, hi) = bounds[chunk];
                let mut k = 0usize;
                map.for_each_active_in(lo..hi, |i| {
                    let v = NodeId(i as u32);
                    out[k] = PlannedPair {
                        initiator: v,
                        partner: planner.partner_of(v),
                        flags: READY,
                    };
                    k += 1;
                });
            });
            black_box(batch.entries());
        }) * 1e-3;
        r.record(name, "us", us);
    }
}
