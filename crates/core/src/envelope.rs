//! The round skeleton's timing layer, shared by every scheduled
//! substrate.
//!
//! Under each protocol runs the same timing layer: churn membership
//! ([`Population`]), fault injection ([`FaultState`]) and the attack
//! schedule ([`ScheduleState`]). A [`RoundEnvelope`] owns all three. It
//! builds them from the substrate's root rng with the workspace's fork
//! labels (`"population"`, the fault layer's three streams, `"adaptive"`)
//! — forking never advances the parent, so the envelope is
//! stream-invisible to the substrate's own draws — and steps them in one
//! fixed order per round ([`RoundEnvelope::begin_round`]):
//!
//! 1. arrivals and churn ([`Population::begin_round`]);
//! 2. partitions, crashes and recoveries ([`FaultState::begin_round`]);
//! 3. the activity index, for substrates that keep one: present ∧ ¬down,
//!    minus the substrate's own exclusions (evicted, cut);
//! 4. the metric observation the schedule asks for — presence is
//!    answered here, every other metric by the substrate;
//! 5. the attack decision ([`ScheduleState::is_active`]).
//!
//! The substrate then cold-resets whatever a crash loses, reading
//! [`FaultState::just_crashed`]. What stays in each substrate is only
//! what differs between them: which roles the timing layer spares
//! ([`Shield`]), what a crash resets, its extra exclusions and its metric
//! observations.
//!
//! Under the default always-on, churn-free, fault-free timing a round
//! draws no randomness and allocates nothing.

use crate::bitset::BitSet;
use crate::faults::{FaultCounters, FaultPlan, FaultState};
use crate::population::{ArrivalProcess, ChurnProfile, Population};
use crate::schedule::{AttackSchedule, MetricKey, ScheduleState};
use crate::soa::ShardMap;
use netsim::rng::DetRng;
use netsim::Round;

/// The timing-layer dimensions of a substrate's configuration. The
/// default is inert: no churn, no arrivals, no faults, attack always on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Arrival/departure churn.
    pub churn: ChurnProfile,
    /// Flash-crowd arrivals.
    pub arrival: ArrivalProcess,
    /// Injected faults.
    pub faults: FaultPlan,
    /// When the attack is on.
    pub schedule: AttackSchedule,
}

/// How a node's role is spared by the timing layer, fixed at build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shield {
    /// Churns, crashes and may be held back for a flash crowd.
    None,
    /// Present from round 0 — a flash crowd is an honest-node
    /// phenomenon — but churns and crashes like anyone (gossip
    /// attackers).
    Crowd,
    /// Never crashes, so faults cannot destroy the content outright
    /// (the token model's rare-token holder).
    Crash,
    /// Never leaves, never crashes, never held back (BitTorrent seeds
    /// and attacker peers).
    Full,
}

/// One substrate's timing layer: membership, faults and the attack
/// schedule, stepped in the fixed order of the module docs.
///
/// ```
/// use lotus_core::envelope::{RoundEnvelope, Shield, Timing};
/// use lotus_core::faults::FaultPlan;
/// use netsim::rng::DetRng;
///
/// let timing = Timing {
///     faults: FaultPlan::parse("crash:0.2:0.5").unwrap(),
///     ..Timing::default()
/// };
/// let rng = DetRng::seed_from(7);
/// // Node 0 is an origin seed the timing layer must never take away.
/// let shield = |i| if i == 0 { Shield::Full } else { Shield::None };
/// let mut env = RoundEnvelope::new(50, timing, &rng, true, shield);
/// for t in 0..20 {
///     let attack_on = env.begin_round(t, &[], |_, _| None);
///     assert!(attack_on, "the default schedule is always on");
///     assert!(env.is_up(0));
///     assert_eq!(env.shards().active_count(), 50 - env.faults().down_count());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RoundEnvelope {
    population: Population,
    faults: FaultState,
    schedule: ScheduleState,
    /// Whether the schedule has the attack on this round.
    attack_active: bool,
    /// The sharded activity index, rebuilt at the top of every round;
    /// `None` for substrates that do not walk one.
    shards: Option<ShardMap>,
}

impl RoundEnvelope {
    /// The timing layer for `n` nodes, forked from the substrate's root
    /// `rng`. `shield` gives each node's role; `indexed` keeps a
    /// [`ShardMap`] activity index (see [`RoundEnvelope::shards`]).
    pub fn new(
        n: usize,
        timing: Timing,
        rng: &DetRng,
        indexed: bool,
        shield: impl Fn(usize) -> Shield,
    ) -> Self {
        let mut population = Population::new(n, timing.churn, rng.fork("population"));
        let mut faults = FaultState::new(n, timing.faults, rng);
        for i in 0..n {
            match shield(i) {
                Shield::None => {}
                Shield::Crowd => population.exempt_arrival(i),
                Shield::Crash => faults.exempt(i),
                Shield::Full => {
                    population.protect(i);
                    faults.exempt(i);
                }
            }
        }
        // After the shields, so shielded roles are never held back.
        population.set_arrival(timing.arrival);
        RoundEnvelope {
            population,
            faults,
            schedule: ScheduleState::seeded(timing.schedule, rng.fork("adaptive")),
            attack_active: false,
            shards: indexed.then(|| ShardMap::new(n)),
        }
    }

    /// Step the timing layer into round `t`, in the order of the module
    /// docs, and return whether the attack is on. `excluded` lists the
    /// substrate's extra activity exclusions (ignored without an
    /// activity index). `observe` answers the schedule's metric — never
    /// [`MetricKey::PresentFraction`], which the envelope answers — and
    /// receives this round's crash set, whose state the substrate has
    /// not reset yet.
    // lint: hot-loop
    pub fn begin_round(
        &mut self,
        t: Round,
        excluded: &[&BitSet],
        observe: impl FnOnce(MetricKey, &BitSet) -> Option<f64>,
    ) -> bool {
        self.population.begin_round(t);
        self.faults.begin_round(t);
        if let Some(shards) = &mut self.shards {
            let (present, down) = (self.population.present(), self.faults.down_mask());
            shards.rebuild(|mask| {
                mask.copy_from(present);
                mask.subtract(down);
                for set in excluded {
                    mask.subtract(set);
                }
            });
        }
        let observed = match self.schedule.needs_observation() {
            None => None,
            Some(MetricKey::PresentFraction) => Some(self.population.present_fraction()),
            Some(key) => observe(key, self.faults.just_crashed()),
        };
        self.attack_active = self.schedule.is_active(t, observed);
        self.attack_active
    }

    /// Whether the schedule has the attack on this round.
    #[inline]
    pub fn attack_active(&self) -> bool {
        self.attack_active
    }

    /// Whether `node` is in the system and not crashed.
    #[inline]
    pub fn is_up(&self, node: usize) -> bool {
        self.population.is_present(node) && !self.faults.is_down(node)
    }

    /// Membership under churn and arrivals.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The fault layer.
    #[inline]
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// The fault layer, for message fates and blocked-link counts.
    #[inline]
    pub fn faults_mut(&mut self) -> &mut FaultState {
        &mut self.faults
    }

    /// The attack schedule stepper (rotation phases, the adaptive arm
    /// trace).
    pub fn schedule(&self) -> &ScheduleState {
        &self.schedule
    }

    /// This round's activity index: present ∧ ¬down minus the
    /// exclusions passed to [`RoundEnvelope::begin_round`].
    ///
    /// # Panics
    ///
    /// Panics if the envelope was built without an index.
    #[inline]
    pub fn shards(&self) -> &ShardMap {
        self.shards
            .as_ref()
            .expect("envelope built without an activity index")
    }

    /// The fault counters for a report; `None` under an inactive plan,
    /// so fault-free reports stay byte-identical to pre-fault ones.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.faults.is_active().then(|| self.faults.counters())
    }
}
