//! Property tests for the population layer, on the dependency-free
//! [`proptest_lite`](lotus_core::proptest_lite) harness.
//!
//! Each property runs across ~200 generated churn profiles (1–4 weighted
//! cohorts with arbitrary leave/rejoin rates), population sizes, arrival
//! processes and substrate seeds, and pins the membership invariants the
//! simulators rely on:
//!
//! * protected roles never leave, under any profile or arrival process;
//! * the universe partitions exactly into present / churned-out /
//!   still-pending nodes, every round (alive-count conservation);
//! * departure and return never change identity: the membership history
//!   replays bit-identically per seed, and a returning node is the same
//!   index with the same protected/exempt marks;
//! * the degenerate one-class profile draws exactly the uniform
//!   [`ChurnSpec`] stream (the PR 3 compatibility guarantee);
//! * zero-rate profiles — however they are spelled — never touch the
//!   churn rng fork (the no-op/no-draw guard regression);
//! * the [`RoundEnvelope`] keeps its role shields under churn, crashes
//!   and flash crowds, and its activity index is exactly
//!   present ∧ ¬down minus the substrate's exclusions every round;
//! * the word-wise [`Population::begin_round`] takes exactly the steps
//!   of the scalar node-by-node loop, kept below as a reference model:
//!   the same membership and the same churn stream position every round,
//!   at universes on both sides of the 64-node word.

use lotus_core::bitset::BitSet;
use lotus_core::envelope::{RoundEnvelope, Shield, Timing};
use lotus_core::faults::FaultPlan;
use lotus_core::population::{
    ArrivalProcess, ChurnClass, ChurnProfile, ChurnSpec, Population, MAX_CHURN_CLASSES,
};
use lotus_core::proptest_lite::{check, Draw};
use netsim::rng::DetRng;

/// Fixed names for per-cohort draws (proptest_lite wants `&'static str`).
const WEIGHT: [&str; MAX_CHURN_CLASSES] = ["w0", "w1", "w2", "w3"];
const LEAVE: [&str; MAX_CHURN_CLASSES] = ["leave0", "leave1", "leave2", "leave3"];
const REJOIN: [&str; MAX_CHURN_CLASSES] = ["rejoin0", "rejoin1", "rejoin2", "rejoin3"];

/// Draw a 1–4 cohort profile with arbitrary weights and rates. With
/// `zero_rate`, every cohort's leave rate is forced to zero (the
/// explicitly-configured-but-inert shape the no-draw guard must cover).
fn draw_profile(d: &mut Draw, zero_rate: bool) -> ChurnProfile {
    let classes = d.int("classes", 1, MAX_CHURN_CLASSES as i64) as usize;
    let mut out = Vec::new();
    for c in 0..classes {
        let weight = 0.05 + d.ratio(WEIGHT[c]);
        let leave = if zero_rate { 0.0 } else { d.ratio(LEAVE[c]) };
        out.push(ChurnClass {
            weight,
            spec: ChurnSpec::new(leave, d.ratio(REJOIN[c])),
        });
    }
    ChurnProfile::new(&out).expect("drawn profiles are valid")
}

/// Draw an arrival process sized for a population of `n`.
fn draw_arrival(d: &mut Draw, n: usize) -> ArrivalProcess {
    match d.int("arrival_kind", 0, 2) {
        0 => ArrivalProcess::None,
        1 => ArrivalProcess::Burst {
            round: d.int("wave_round", 0, 40) as u64,
            size: d.int("wave_size", 0, n as i64) as u32,
            period: match d.int("wave_period", 0, 10) {
                0 => None,
                p => Some(p as u64),
            },
        },
        _ => ArrivalProcess::Ramp {
            start: d.int("ramp_start", 0, 40) as u64,
            size: d.int("ramp_size", 0, n as i64) as u32,
            rate: d.int("ramp_rate", 1, 6) as u32,
        },
    }
}

#[test]
fn membership_invariants_hold_under_any_profile() {
    check("membership invariants", 200, |d| {
        let n = d.int("n", 2, 60) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let profile = draw_profile(d, false);
        let arrival = draw_arrival(d, n);
        let protected = d.int("protected", 0, (n / 4) as i64) as usize;
        let mut pop = Population::new(
            n,
            profile,
            netsim::rng::DetRng::seed_from(seed).fork("population"),
        );
        for i in 0..protected {
            pop.protect(i);
        }
        pop.set_arrival(arrival);
        // The holdback keeps at least one node in the system (churn may
        // empty it later — that is the open population being open).
        if pop.present_count() == 0 {
            return Err("set_arrival held back the whole population".to_string());
        }
        let mut ever_arrived: Vec<bool> = (0..n).map(|i| pop.ever_arrived(i)).collect();
        for t in 0..150u64 {
            pop.begin_round(t);
            // Protected roles never leave (and were never held back).
            for i in 0..protected {
                if !pop.is_present(i) {
                    return Err(format!("protected node {i} absent at round {t}"));
                }
            }
            // Alive-count conservation: present/churned-out/pending
            // partition the universe exactly.
            let present = pop.present_count();
            let pending = pop.pending_count();
            let absent = (0..n)
                .filter(|&i| !pop.is_present(i) && pop.ever_arrived(i))
                .count();
            if present + pending + absent != n {
                return Err(format!(
                    "round {t}: {present} present + {pending} pending + {absent} \
                     churned-out != {n}"
                ));
            }
            // Pending nodes are a subset of the absent set.
            for (i, arrived) in ever_arrived.iter_mut().enumerate() {
                if !pop.ever_arrived(i) && pop.is_present(i) {
                    return Err(format!("round {t}: node {i} present before arriving"));
                }
                // Arrival is one-way: pending never comes back.
                if *arrived && !pop.ever_arrived(i) {
                    return Err(format!("round {t}: node {i} un-arrived"));
                }
                *arrived = pop.ever_arrived(i);
            }
            let frac = pop.present_fraction();
            if !(0.0..=1.0).contains(&frac) {
                return Err(format!("round {t}: present_fraction {frac} out of range"));
            }
        }
        Ok(())
    });
}

#[test]
fn membership_history_replays_bit_identically() {
    check("replay determinism", 200, |d| {
        let n = d.int("n", 2, 48) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let profile = draw_profile(d, false);
        let arrival = draw_arrival(d, n);
        let trace = |rounds: u64| {
            let mut pop = Population::new(
                n,
                profile,
                netsim::rng::DetRng::seed_from(seed).fork("population"),
            );
            pop.set_arrival(arrival);
            let mut out = Vec::new();
            for t in 0..rounds {
                pop.begin_round(t);
                out.push(pop.present().iter().collect::<Vec<_>>());
            }
            out
        };
        if trace(120) == trace(120) {
            Ok(())
        } else {
            Err("same (profile, arrival, seed) diverged across replays".to_string())
        }
    });
}

#[test]
fn degenerate_one_class_profile_draws_the_uniform_stream() {
    check("one-class == uniform", 200, |d| {
        let n = d.int("n", 2, 48) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let spec = ChurnSpec::new(d.ratio("leave"), d.ratio("rejoin"));
        let history = |profile: ChurnProfile| {
            let mut pop = Population::new(
                n,
                profile,
                netsim::rng::DetRng::seed_from(seed).fork("population"),
            );
            let mut out = Vec::new();
            for t in 0..100 {
                pop.begin_round(t);
                out.push(pop.present().iter().collect::<Vec<_>>());
            }
            (out, pop.rng_snapshot().clone())
        };
        let uniform = history(ChurnProfile::uniform(spec));
        let converted = history(ChurnProfile::from(spec));
        let single = history(ChurnProfile::new(&[ChurnClass { weight: 1.0, spec }]).unwrap());
        if uniform == converted && uniform == single {
            Ok(())
        } else {
            Err(format!(
                "one-class profile diverged from the uniform stream for {spec:?}"
            ))
        }
    });
}

#[test]
fn zero_rate_profiles_never_draw() {
    // The no-op/no-draw guard regression: a profile whose every cohort
    // has a zero leave rate — no matter how many cohorts or how it was
    // spelled — must leave the rng fork untouched, so configuring it
    // cannot perturb anything forked downstream of the membership
    // stream.
    check("zero-rate draws nothing", 200, |d| {
        let n = d.int("n", 1, 48) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let profile = draw_profile(d, true);
        if profile.is_active() {
            return Err(format!("{profile:?} should be inactive"));
        }
        let mut pop = Population::new(
            n,
            profile,
            netsim::rng::DetRng::seed_from(seed).fork("population"),
        );
        let before = pop.rng_snapshot().clone();
        for t in 0..100 {
            pop.begin_round(t);
        }
        if !pop.all_present() {
            return Err("zero-rate churn lost a node".to_string());
        }
        if *pop.rng_snapshot() != before {
            return Err(format!(
                "zero-rate profile {profile:?} advanced the churn stream"
            ));
        }
        Ok(())
    });
}

#[test]
fn arrivals_draw_no_randomness_under_any_process() {
    check("arrivals are randomness-free", 200, |d| {
        let n = d.int("n", 2, 48) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let arrival = draw_arrival(d, n);
        let mut pop = Population::new(
            n,
            ChurnProfile::none(),
            netsim::rng::DetRng::seed_from(seed).fork("population"),
        );
        pop.set_arrival(arrival);
        let before = pop.rng_snapshot().clone();
        for t in 0..150 {
            pop.begin_round(t);
        }
        if *pop.rng_snapshot() != before {
            return Err(format!("arrival {arrival:?} drew randomness"));
        }
        // One-shot bursts and ramps must eventually flush the pool
        // (periodic bursts keep it as a re-admission reservoir).
        match arrival {
            ArrivalProcess::Burst { period: None, .. } | ArrivalProcess::Ramp { .. } => {
                if pop.pending_count() != 0 {
                    return Err(format!(
                        "{arrival:?} left {} nodes stranded outside",
                        pop.pending_count()
                    ));
                }
                if !pop.all_present() {
                    return Err("churn-free arrival run must end all-present".to_string());
                }
            }
            _ => {}
        }
        Ok(())
    });
}

#[test]
fn rejoin_restores_identity() {
    // A node that departs and returns is the same identity: its
    // protected / arrival-exempt marks are unchanged and the membership
    // universe never grows or shrinks.
    check("rejoin restores identity", 200, |d| {
        let n = d.int("n", 4, 48) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        // High rates so departures and returns actually happen.
        let profile = ChurnProfile::uniform(ChurnSpec::new(
            0.2 + 0.6 * d.ratio("leave"),
            0.2 + 0.6 * d.ratio("rejoin"),
        ));
        let mut pop = Population::new(
            n,
            profile,
            netsim::rng::DetRng::seed_from(seed).fork("population"),
        );
        pop.protect(0);
        let mut returned = 0u32;
        let mut was_absent = vec![false; n];
        for t in 0..200 {
            pop.begin_round(t);
            let count = (0..n).filter(|&i| pop.is_present(i)).count();
            if count != pop.present_count() {
                return Err(format!(
                    "round {t}: present() disagrees with present_count()"
                ));
            }
            for (i, absent) in was_absent.iter_mut().enumerate() {
                if pop.is_present(i) {
                    if *absent {
                        returned += 1;
                        if !pop.ever_arrived(i) {
                            return Err(format!("round {t}: returner {i} lost arrival mark"));
                        }
                    }
                    *absent = false;
                } else {
                    if i == 0 {
                        return Err(format!("round {t}: protected node left"));
                    }
                    *absent = true;
                }
            }
        }
        if returned == 0 {
            return Err("rates in [0.2, 0.8]: someone must have come back".to_string());
        }
        Ok(())
    });
}

#[test]
fn envelope_shields_hold_and_its_index_tracks_membership() {
    check("envelope shields and activity index", 200, |d| {
        let n = d.int("n", 4, 60) as usize;
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let full = d.int("full", 0, (n / 4) as i64) as usize;
        let crowd = d.int("crowd", 0, (n / 4) as i64) as usize;
        let mut faults = FaultPlan::none();
        faults.crash = 0.02 + 0.2 * d.ratio("crash");
        faults.recover = 0.1 + 0.5 * d.ratio("recover");
        let timing = Timing {
            churn: draw_profile(d, false),
            arrival: draw_arrival(d, n),
            faults,
            ..Timing::default()
        };
        // Full shields first, then crowd-exempt nodes, then the rest.
        let shield = |i: usize| {
            if i < full {
                Shield::Full
            } else if i < full + crowd {
                Shield::Crowd
            } else {
                Shield::None
            }
        };
        let excluded = BitSet::from_iter_with(n, (0..n).filter(|i| i % 5 == 4));
        let rng = netsim::rng::DetRng::seed_from(seed);
        let mut env = RoundEnvelope::new(n, timing, &rng, true, shield);
        for i in full..full + crowd {
            if !env.population().ever_arrived(i) {
                return Err(format!("crowd-exempt node {i} was held back"));
            }
        }
        for t in 0..80u64 {
            env.begin_round(t, &[&excluded], |_, _| None);
            for i in 0..n {
                if i < full && !env.is_up(i) {
                    return Err(format!("round {t}: fully shielded node {i} is not up"));
                }
                let expect = env.is_up(i) && !excluded.contains(i);
                if env.shards().contains(i) != expect {
                    return Err(format!(
                        "round {t}: node {i} index {} but up ∧ ¬excluded = {expect}",
                        env.shards().contains(i)
                    ));
                }
            }
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

/// The scalar population stepper the word-wise one replaced, node by
/// node in ascending order.
struct ScalarPopulation {
    profile: ChurnProfile,
    arrival: ArrivalProcess,
    present: Vec<bool>,
    pending: Vec<bool>,
    protected: Vec<bool>,
    exempt: Vec<bool>,
    cohort: Vec<usize>,
    rng: DetRng,
}

impl ScalarPopulation {
    /// The model of `pop` right after its setup calls, reading the
    /// membership the (unchanged) setup produced.
    fn of(pop: &Population, rng: DetRng, protected: Vec<bool>, exempt: Vec<bool>) -> Self {
        let n = protected.len();
        let classes = pop.profile().classes();
        let total: f64 = classes.iter().map(|c| c.weight).sum();
        let mut crng = rng.fork("classes");
        let cohort = (0..n)
            .map(|_| {
                if classes.len() == 1 {
                    return 0;
                }
                let x = crng.f64() * total;
                let mut acc = 0.0;
                for (i, c) in classes.iter().enumerate() {
                    acc += c.weight;
                    if x < acc {
                        return i;
                    }
                }
                classes.len() - 1
            })
            .collect();
        ScalarPopulation {
            profile: *pop.profile(),
            arrival: *pop.arrival(),
            present: (0..n).map(|i| pop.is_present(i)).collect(),
            pending: (0..n).map(|i| !pop.ever_arrived(i)).collect(),
            protected,
            exempt,
            cohort,
            rng,
        }
    }

    fn admit(&mut self, k: usize, fresh_only: bool) {
        let mut left = k;
        for i in 0..self.present.len() {
            if left > 0 && self.pending[i] {
                self.pending[i] = false;
                self.present[i] = true;
                left -= 1;
            }
        }
        if fresh_only {
            return;
        }
        for i in 0..self.present.len() {
            if left > 0 && !self.present[i] && !self.exempt[i] {
                self.present[i] = true;
                left -= 1;
            }
        }
    }

    fn begin_round(&mut self, t: u64) {
        match self.arrival {
            ArrivalProcess::None => {}
            ArrivalProcess::Burst {
                round,
                size,
                period,
            } => {
                let due = match period {
                    None => t == round,
                    Some(p) => t >= round && (t - round).is_multiple_of(p),
                };
                if due {
                    self.admit(size as usize, period.is_none());
                }
            }
            ArrivalProcess::Ramp { start, rate, .. } => {
                if t >= start && self.pending.contains(&true) {
                    self.admit(rate as usize, true);
                }
            }
        }
        if !self.profile.is_active() {
            return;
        }
        for i in 0..self.present.len() {
            if self.pending[i] {
                continue;
            }
            let spec = self.profile.classes()[self.cohort[i]].spec;
            if self.present[i] {
                if !self.protected[i] && self.rng.chance(spec.leave) {
                    self.present[i] = false;
                }
            } else if self.rng.chance(spec.rejoin) {
                self.present[i] = true;
            }
        }
    }
}

#[test]
fn word_wise_begin_round_matches_the_scalar_model() {
    check("word-wise churn == scalar churn", 120, |d| {
        let n = UNIVERSES[d.int("universe", 0, UNIVERSES.len() as i64 - 1) as usize];
        let seed = d.int("seed", 1, 1 << 20) as u64;
        let classes = d.int("classes", 1, MAX_CHURN_CLASSES as i64) as usize;
        let cohorts: Vec<ChurnClass> = (0..classes)
            .map(|c| ChurnClass {
                weight: 0.05 + d.ratio(WEIGHT[c]),
                spec: ChurnSpec::new(edge_rate(d, LEAVE[c]), edge_rate(d, REJOIN[c])),
            })
            .collect();
        let profile = ChurnProfile::new(&cohorts).expect("drawn profiles are valid");
        let arrival = draw_arrival(d, n);
        // Random protected and arrival-exempt sets, at drawn densities.
        let (protect_odds, exempt_odds) = (0.3 * d.ratio("protect"), 0.3 * d.ratio("exempt"));
        let mut marks = d.rng("marks");
        let protected: Vec<bool> = (0..n).map(|_| marks.chance(protect_odds)).collect();
        let exempt: Vec<bool> = (0..n).map(|_| marks.chance(exempt_odds)).collect();
        let rng = DetRng::seed_from(seed).fork("population");
        let mut pop = Population::new(n, profile, rng.clone());
        for i in 0..n {
            if protected[i] {
                pop.protect(i);
            }
            if exempt[i] {
                pop.exempt_arrival(i);
            }
        }
        pop.set_arrival(arrival);
        let mut model = ScalarPopulation::of(&pop, rng, protected, exempt);
        for t in 0..60u64 {
            pop.begin_round(t);
            model.begin_round(t);
            for i in 0..n {
                if pop.is_present(i) != model.present[i] {
                    return Err(format!(
                        "n={n} round {t}: node {i} present {} but the scalar model says {}",
                        pop.is_present(i),
                        model.present[i]
                    ));
                }
                if pop.ever_arrived(i) == model.pending[i] {
                    return Err(format!("n={n} round {t}: node {i} pending mark differs"));
                }
            }
            let count = model.present.iter().filter(|&&p| p).count();
            if pop.present_count() != count || pop.present().len() != count {
                return Err(format!(
                    "n={n} round {t}: present_count {} != scalar {count}",
                    pop.present_count()
                ));
            }
            if *pop.rng_snapshot() != model.rng {
                return Err(format!(
                    "n={n} round {t}: churn stream position differs from the scalar loop"
                ));
            }
        }
        Ok(())
    });
}
