//! Property tests for the fault-injection layer, on the dependency-free
//! [`proptest_lite`](lotus_core::proptest_lite) harness.
//!
//! Each property runs across ~200 generated fault plans (loss/duplicate/
//! delay rates, crash/recover pairs, partition epochs) and seeds, and
//! pins the invariants the substrate wiring relies on:
//!
//! * zero-rate plans — however they are spelled — draw nothing: every
//!   fate delivers, every link is up, the counters stay zero and the
//!   three forked rng streams never advance (the report-invisibility
//!   guarantee behind the byte-identical goldens);
//! * crash bookkeeping is consistent every round: `just_crashed` is a
//!   subset of the down set, exempt nodes never go down, and the crash
//!   counter counts exactly the down-transitions;
//! * the partition blocks exactly the cross-cell pairs while its epoch
//!   is open, and nothing before or after — the two cells cover the
//!   universe disjointly;
//! * the whole fault history replays bit-identically per (plan, seed);
//! * an inert [`RoundEnvelope`] — the timing layer every substrate
//!   drives — draws nothing either: its fault and churn streams stay
//!   equal to fresh forks of the substrate's root rng;
//! * the word-wise crash/recover step and partition-cell draw of
//!   [`FaultState::begin_round`] take exactly the steps of the scalar
//!   node-by-node loops, kept below as a reference model: the same down,
//!   crashed and cell sets, crash count and stream positions every
//!   round, at universes on both sides of the 64-node word.

use lotus_core::envelope::{RoundEnvelope, Shield, Timing};
use lotus_core::faults::{Fate, FaultPlan, FaultState};
use lotus_core::proptest_lite::{check, Draw};
use netsim::rng::DetRng;

/// Draw an active fault plan with arbitrary component mix.
fn draw_plan(d: &mut Draw) -> FaultPlan {
    let mut plan = FaultPlan::none();
    if d.int("with_messages", 0, 1) == 1 {
        plan.loss = d.ratio("loss") * 0.5;
        plan.duplicate = d.ratio("dup") * 0.3;
        plan.delay = d.ratio("delay") * 0.3;
    }
    if d.int("with_crash", 0, 1) == 1 {
        plan.crash = 0.01 + d.ratio("crash") * 0.2;
        plan.recover = 0.05 + d.ratio("recover") * 0.5;
    }
    if d.int("with_partition", 0, 1) == 1 {
        plan.partition_start = d.int("p_start", 0, 15) as u64;
        plan.partition_len = d.int("p_len", 1, 20) as u64;
        plan.partition_frac = d.ratio("p_frac");
    }
    plan
}

/// Run a fixed driving script against a fresh state: every round, every
/// ordered pair gets a link check and every passing pair a fate draw.
/// Returns the full observable history.
fn drive(n: usize, rounds: u64, plan: FaultPlan, seed: u64) -> (Vec<bool>, Vec<Fate>, Vec<usize>) {
    let parent = DetRng::seed_from(seed);
    let mut st = FaultState::new(n, plan, &parent);
    let mut links = Vec::new();
    let mut fates = Vec::new();
    let mut downs = Vec::new();
    for t in 0..rounds {
        st.begin_round(t);
        downs.push(st.down_count());
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let ok = st.link_ok(a, b);
                links.push(ok);
                if ok {
                    fates.push(st.fate(a, b));
                }
            }
        }
    }
    (links, fates, downs)
}

#[test]
fn zero_rate_plans_draw_nothing_and_change_nothing() {
    check("zero-rate plans are invisible", 200, |d| {
        // Spell the inert plan every way the grammar allows: a bare
        // none(), explicit zero rates, or a zero-fraction partition.
        let plan = match d.int("spelling", 0, 2) {
            0 => FaultPlan::none(),
            1 => FaultPlan::parse("loss:0/dup:0/delay:0").expect("zero rates parse"),
            _ => {
                let mut p = FaultPlan::none();
                p.partition_start = d.int("p_start", 0, 10) as u64;
                p.partition_len = d.int("p_len", 1, 10) as u64;
                // frac 0 means has_partition() is false: the epoch never
                // opens and the partition stream is never consulted.
                p.partition_frac = 0.0;
                p
            }
        };
        let n = d.int("n", 2, 40) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let parent = DetRng::seed_from(seed);
        let mut st = FaultState::new(n, plan, &parent);
        let fresh_msg = parent.fork("faults");
        let fresh_crash = parent.fork("crash");
        let fresh_partition = parent.fork("partition");
        for t in 0..30 {
            st.begin_round(t);
            for a in 0..n {
                if st.is_down(a) {
                    return Err(format!("node {a} down with no crashes configured"));
                }
                let b = (a + 1) % n;
                if !st.link_ok(a, b) {
                    return Err(format!("link ({a},{b}) blocked with no partition at t={t}"));
                }
                if st.fate(a, b) != Fate::Deliver {
                    return Err(format!("non-deliver fate with no message faults at t={t}"));
                }
            }
        }
        let c = st.counters();
        if (
            c.dropped,
            c.duplicated,
            c.delayed,
            c.crashes,
            c.partition_blocked,
        ) != (0, 0, 0, 0, 0)
        {
            return Err(format!("counters moved on an inert plan: {c:?}"));
        }
        if st.msg_rng_snapshot() != &fresh_msg {
            return Err("msg stream advanced on an inert plan".into());
        }
        if st.crash_rng_snapshot() != &fresh_crash {
            return Err("crash stream advanced on an inert plan".into());
        }
        if st.partition_rng_snapshot() != &fresh_partition {
            return Err("partition stream advanced on an inert plan".into());
        }
        Ok(())
    });
}

#[test]
fn crash_bookkeeping_is_consistent_every_round() {
    check("crash bookkeeping", 200, |d| {
        let n = d.int("n", 2, 40) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let mut plan = FaultPlan::none();
        plan.crash = 0.02 + d.ratio("crash") * 0.3;
        plan.recover = d.ratio("recover") * 0.6;
        let parent = DetRng::seed_from(seed);
        let mut st = FaultState::new(n, plan, &parent);
        let exempt = d.int("exempt", 0, (n / 3) as i64) as usize;
        for i in 0..exempt {
            st.exempt(i);
        }
        let mut transitions = 0u64;
        let mut was_down = vec![false; n];
        for t in 0..60 {
            st.begin_round(t);
            for (i, prev) in was_down.iter_mut().enumerate() {
                if st.just_crashed().contains(i) {
                    if !st.is_down(i) {
                        return Err(format!("t={t}: just_crashed node {i} is not down"));
                    }
                    if *prev {
                        return Err(format!("t={t}: already-down node {i} crashed again"));
                    }
                    transitions += 1;
                }
                if i < exempt && st.is_down(i) {
                    return Err(format!("t={t}: exempt node {i} went down"));
                }
                *prev = st.is_down(i);
            }
            let down = was_down.iter().filter(|&&x| x).count();
            if st.down_count() != down {
                return Err(format!(
                    "t={t}: down_count {} != scanned {down}",
                    st.down_count()
                ));
            }
        }
        if st.counters().crashes != transitions {
            return Err(format!(
                "crash counter {} != observed transitions {transitions}",
                st.counters().crashes
            ));
        }
        Ok(())
    });
}

#[test]
fn partition_blocks_exactly_cross_cell_pairs_inside_the_epoch() {
    check("partition epoch", 200, |d| {
        let n = d.int("n", 2, 30) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let mut plan = FaultPlan::none();
        plan.partition_start = d.int("p_start", 0, 10) as u64;
        plan.partition_len = d.int("p_len", 1, 15) as u64;
        plan.partition_frac = d.ratio("p_frac");
        let parent = DetRng::seed_from(seed);
        let mut st = FaultState::new(n, plan, &parent);
        let until = plan.partition_start + plan.partition_len + 5;
        for t in 0..until {
            st.begin_round(t);
            let open = t >= plan.partition_start && t < plan.partition_start + plan.partition_len;
            if st.is_partitioned() != open {
                return Err(format!(
                    "t={t}: is_partitioned {} but epoch open = {open}",
                    st.is_partitioned()
                ));
            }
            // The minority cell and its complement cover the universe
            // disjointly by construction; link_ok must block exactly the
            // pairs that straddle them while the epoch is open.
            let cell: Vec<bool> = (0..n).map(|i| st.cell().contains(i)).collect();
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let expect = !open || cell[a] == cell[b];
                    if st.link_ok(a, b) != expect {
                        return Err(format!(
                            "t={t}: pair ({a},{b}) link {} expected {expect}",
                            !expect
                        ));
                    }
                }
            }
        }
        Ok(())
    });
}

#[test]
fn fault_history_replays_bit_identically_per_plan_and_seed() {
    check("replay determinism", 200, |d| {
        let plan = draw_plan(d);
        let n = d.int("n", 2, 20) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let rounds = d.int("rounds", 1, 40) as u64;
        let first = drive(n, rounds, plan, seed);
        let second = drive(n, rounds, plan, seed);
        if first != second {
            return Err("same plan + seed diverged on replay".into());
        }
        Ok(())
    });
}

#[test]
fn inert_envelope_draws_nothing_and_its_streams_equal_fresh_forks() {
    check("inert envelope is stream-invisible", 200, |d| {
        let faults = match d.int("spelling", 0, 2) {
            0 => FaultPlan::none(),
            1 => FaultPlan::parse("loss:0/dup:0/delay:0/crash:0:0.5").expect("zero rates parse"),
            _ => FaultPlan::parse("partition:3:5:0").expect("zero-fraction partition parses"),
        };
        let n = d.int("n", 1, 40) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let indexed = d.int("indexed", 0, 1) == 1;
        let parent = DetRng::seed_from(seed);
        let timing = Timing {
            faults,
            ..Timing::default()
        };
        let mut env = RoundEnvelope::new(n, timing, &parent, indexed, |_| Shield::None);
        for t in 0..30 {
            let attack_on = env.begin_round(t, &[], |key, _| {
                panic!("an always-on schedule asked for {key:?}")
            });
            if !attack_on {
                return Err(format!("always-on schedule off at t={t}"));
            }
            if (0..n).any(|i| !env.is_up(i)) {
                return Err(format!("a node went missing at t={t} on an inert layer"));
            }
            if indexed && env.shards().active_count() != n {
                return Err(format!("activity index lost nodes at t={t}"));
            }
        }
        if env.fault_counters().is_some() {
            return Err("an inert plan reported fault counters".into());
        }
        let f = env.faults();
        if f.msg_rng_snapshot() != &parent.fork("faults")
            || f.crash_rng_snapshot() != &parent.fork("crash")
            || f.partition_rng_snapshot() != &parent.fork("partition")
        {
            return Err("a fault stream advanced on an inert envelope".into());
        }
        if env.population().rng_snapshot() != &parent.fork("population") {
            return Err("the churn stream advanced on an inert envelope".into());
        }
        Ok(())
    });
}

/// Universes around the 64-node word: one node, one word short, exactly
/// one word, one node over, and several words with a partial tail.
const UNIVERSES: [usize; 6] = [1, 63, 64, 65, 200, 1100];

/// A rate that is often exactly 0 or 1, the values `chance` decides
/// without a draw.
fn edge_rate(d: &mut Draw, name: &'static str) -> f64 {
    match d.int(name, 0, 3) {
        0 => 0.0,
        1 => 1.0,
        _ => d.ratio(name),
    }
}

/// The scalar crash/recover and partition stepper the word-wise one
/// replaced, node by node in ascending order.
struct ScalarFaults {
    plan: FaultPlan,
    crash_rng: DetRng,
    partition_rng: DetRng,
    down: Vec<bool>,
    crashed_now: Vec<bool>,
    exempt: Vec<bool>,
    cell: Vec<bool>,
    partitioned: bool,
    crashes: u64,
}

impl ScalarFaults {
    fn begin_round(&mut self, t: u64) {
        if !self.plan.is_active() {
            return;
        }
        self.crashed_now.fill(false);
        if self.plan.has_partition() {
            if t == self.plan.partition_start {
                for i in 0..self.cell.len() {
                    self.cell[i] = self.partition_rng.chance(self.plan.partition_frac);
                }
                self.partitioned = true;
            } else if self.partitioned && t >= self.plan.partition_start + self.plan.partition_len {
                self.partitioned = false;
            }
        }
        if self.plan.has_crashes() {
            for i in 0..self.down.len() {
                if self.down[i] {
                    if self.crash_rng.chance(self.plan.recover) {
                        self.down[i] = false;
                    }
                } else if !self.exempt[i] && self.crash_rng.chance(self.plan.crash) {
                    self.down[i] = true;
                    self.crashed_now[i] = true;
                    self.crashes += 1;
                }
            }
        }
    }
}

#[test]
fn word_wise_begin_round_matches_the_scalar_model() {
    check("word-wise faults == scalar faults", 120, |d| {
        let n = UNIVERSES[d.int("universe", 0, UNIVERSES.len() as i64 - 1) as usize];
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let mut plan = FaultPlan::none();
        plan.crash = edge_rate(d, "crash");
        plan.recover = edge_rate(d, "recover");
        if d.int("with_partition", 0, 1) == 1 {
            plan.partition_start = d.int("p_start", 0, 20) as u64;
            plan.partition_len = d.int("p_len", 1, 20) as u64;
            plan.partition_frac = edge_rate(d, "p_frac");
        }
        let exempt_odds = 0.3 * d.ratio("exempt");
        let mut marks = d.rng("marks");
        let exempt: Vec<bool> = (0..n).map(|_| marks.chance(exempt_odds)).collect();
        let parent = DetRng::seed_from(seed);
        let mut st = FaultState::new(n, plan, &parent);
        for (i, &e) in exempt.iter().enumerate() {
            if e {
                st.exempt(i);
            }
        }
        let mut model = ScalarFaults {
            plan,
            crash_rng: parent.fork("crash"),
            partition_rng: parent.fork("partition"),
            down: vec![false; n],
            crashed_now: vec![false; n],
            exempt,
            cell: vec![false; n],
            partitioned: false,
            crashes: 0,
        };
        for t in 0..60u64 {
            st.begin_round(t);
            model.begin_round(t);
            for i in 0..n {
                let word = (
                    st.is_down(i),
                    st.just_crashed().contains(i),
                    st.cell().contains(i),
                );
                let scalar = (model.down[i], model.crashed_now[i], model.cell[i]);
                if word != scalar {
                    return Err(format!(
                        "n={n} round {t}: node {i} (down, crashed, cell) {word:?} but the \
                         scalar model says {scalar:?}"
                    ));
                }
            }
            let down = model.down.iter().filter(|&&x| x).count();
            if st.down_count() != down || st.counters().crashes != model.crashes {
                return Err(format!("n={n} round {t}: down or crash counts differ"));
            }
            if st.is_partitioned() != model.partitioned {
                return Err(format!("n={n} round {t}: partition epoch differs"));
            }
            if *st.crash_rng_snapshot() != model.crash_rng
                || *st.partition_rng_snapshot() != model.partition_rng
            {
                return Err(format!(
                    "n={n} round {t}: a stream position differs from the scalar loop"
                ));
            }
        }
        Ok(())
    });
}
