//! Population dynamics: *who is even present*, as a first-class,
//! cross-substrate dimension.
//!
//! Real deployments are never the closed populations the paper's figures
//! assume — peers arrive, crash and come back, and they do so at wildly
//! different rates: measurement studies of deployed swarms consistently
//! find a *stable core* with long sessions next to a *transient fringe*
//! that flickers, punctuated by synchronized join bursts when new content
//! drops (the flash crowd). All three regimes interact with the
//! lotus-eater attack: departures shrink the honest service pool the
//! isolated nodes depend on, arrivals dilute the attacker's satiated set,
//! and a flash crowd can mask — or amplify — a defection depending on
//! when it lands. This module gives every substrate the same
//! deterministic machinery:
//!
//! * [`ChurnSpec`] — per-round leave/rejoin probabilities for one cohort,
//!   `Copy`, the PR 3 uniform-churn primitive;
//! * [`ChurnProfile`] — *heterogeneous* churn: up to [`MAX_CHURN_CLASSES`]
//!   weighted cohorts (e.g. a stable core at `0.002/round` next to a
//!   transient fringe at `0.2/round`), parseable from the
//!   `lotus-bench --churn-profile` grammar. Nodes are assigned to cohorts
//!   deterministically from a labelled fork of the population rng stream;
//! * [`ArrivalProcess`] — flash crowds: deterministic burst waves and a
//!   ramp mode that hold part of the population *outside* the system
//!   until their arrival round, entering with whatever state they were
//!   constructed with — they have never participated;
//! * [`Population`] — the per-run membership tracker: a
//!   [`BitSet`](crate::bitset::BitSet) of present nodes advanced once per
//!   round by [`Population::begin_round`], driven by a dedicated
//!   [`DetRng`] fork so enabling churn never perturbs any other
//!   randomness stream.
//!
//! Nodes keep their state while absent (windows go stale, balances and
//! piece maps persist) and resume participating on return — a crash,
//! not an identity change. Roles a substrate cannot lose (origin seeds,
//! attacker peers) are marked [`Population::protect`]ed and never leave.
//!
//! # Hot-loop allocation invariants
//!
//! [`Population::begin_round`] never allocates: it flips bits in the
//! membership set in place, and arrival waves admit nodes in index order
//! without drawing randomness. With an inactive profile (every cohort at
//! zero leave rate — [`ChurnProfile::none`], but also any explicitly
//! configured zero-rate profile) and no arrival process it returns
//! immediately *without drawing randomness*, so configuring churn at
//! rate zero can never perturb the membership stream or any fork derived
//! downstream of it, and churn-free runs are bit-identical to pre-churn
//! behaviour per seed (the golden tests in
//! `crates/bench/tests/schedule_golden.rs` and
//! `crates/bench/tests/churn_golden.rs` are the guardrail). A
//! single-cohort profile draws exactly the stream the PR 3 uniform
//! [`ChurnSpec`] drew, so the degenerate profile reproduces every
//! uniform-churn fixture byte-for-byte.
//!
//! # Draw order
//!
//! An active round takes its churn draws in ascending node order, at
//! most one per node: a present unprotected node draws to leave, an
//! absent arrived node draws to rejoin, each at its cohort's rate. A
//! rate of exactly 0 or 1 decides without a draw, as
//! [`DetRng::chance`] does. [`Population::begin_round`] steps 64 nodes
//! per word through [`DetRng::chance_bits`] and keeps this order exactly;
//! `crates/core/tests/population_props.rs` checks it every round against
//! the node-by-node loop it replaced.

use crate::bitset::BitSet;
use netsim::rng::{DetRng, Odds};
use netsim::Round;

/// Deterministic arrival/departure rates for one cohort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Per-round probability a present (unprotected) node departs.
    pub leave: f64,
    /// Per-round probability an absent node rejoins.
    pub rejoin: f64,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec::none()
    }
}

impl ChurnSpec {
    /// No churn: everyone present for the whole run (the default).
    pub fn none() -> Self {
        ChurnSpec {
            leave: 0.0,
            rejoin: 0.0,
        }
    }

    /// Churn with the given per-round leave/rejoin probabilities
    /// (clamped to `[0, 1]`).
    pub fn new(leave: f64, rejoin: f64) -> Self {
        ChurnSpec {
            leave: leave.clamp(0.0, 1.0),
            rejoin: rejoin.clamp(0.0, 1.0),
        }
    }

    /// Whether any churn can happen at all.
    pub fn is_active(&self) -> bool {
        self.leave > 0.0
    }

    /// Parse the `lotus-bench --churn` grammar: `none`, `<leave>` (rejoin
    /// defaults to `0.25`) or `<leave>:<rejoin>`.
    ///
    /// # Errors
    ///
    /// Returns a message on non-numeric or out-of-range fields.
    pub fn parse(spec: &str) -> Result<ChurnSpec, String> {
        if spec == "none" {
            return Ok(ChurnSpec::none());
        }
        let mut parts = spec.split(':');
        let mut prob = |what: &str| -> Result<Option<f64>, String> {
            match parts.next() {
                None => Ok(None),
                Some(v) => {
                    let p = v
                        .parse::<f64>()
                        .map_err(|_| format!("churn {spec:?}: {what} is not a number"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("churn {spec:?}: {what} {p} outside [0, 1]"));
                    }
                    Ok(Some(p))
                }
            }
        };
        let leave = prob("leave probability")?
            .ok_or_else(|| format!("churn {spec:?}: missing leave probability"))?;
        let rejoin = prob("rejoin probability")?.unwrap_or(0.25);
        if parts.next().is_some() {
            return Err(format!("churn {spec:?}: trailing fields"));
        }
        Ok(ChurnSpec::new(leave, rejoin))
    }
}

/// One weighted cohort of a [`ChurnProfile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnClass {
    /// Relative share of the population in this cohort (normalised
    /// against the sum of all class weights at assignment time).
    pub weight: f64,
    /// The cohort's leave/rejoin rates.
    pub spec: ChurnSpec,
}

/// Maximum cohorts a [`ChurnProfile`] may mix. Four is enough for every
/// session-length taxonomy in the measurement literature (core /
/// regulars / fringe / one-shot visitors) and keeps the profile `Copy`,
/// so substrate configs stay cheap to clone and sweep.
pub const MAX_CHURN_CLASSES: usize = 4;

// `Population::begin_round` spells a cohort index as two bit planes.
const _: () = assert!(MAX_CHURN_CLASSES <= 4);

/// Heterogeneous churn: up to [`MAX_CHURN_CLASSES`] weighted cohorts,
/// each with its own [`ChurnSpec`]. The degenerate one-class profile is
/// exactly PR 3's uniform churn (and reproduces its fixtures
/// byte-for-byte); a `stable/transient` two-class mix is the realistic
/// default shape.
///
/// ```
/// use lotus_core::population::{ChurnProfile, ChurnSpec};
///
/// let uniform = ChurnProfile::uniform(ChurnSpec::new(0.05, 0.5));
/// assert!(uniform.is_active());
/// let mixed = ChurnProfile::parse("0.9:0.002:0.5/0.1:0.2:0.3").unwrap();
/// assert_eq!(mixed.classes().len(), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ChurnProfile {
    classes: [ChurnClass; MAX_CHURN_CLASSES],
    len: u8,
}

/// Compares only the live cohorts: the padding slots of the fixed
/// array differ between construction paths (`uniform` repeats the
/// spec, `new` zero-pads) and must not make logically identical
/// profiles unequal.
impl PartialEq for ChurnProfile {
    fn eq(&self, other: &Self) -> bool {
        self.classes() == other.classes()
    }
}

impl Default for ChurnProfile {
    fn default() -> Self {
        ChurnProfile::none()
    }
}

impl From<ChurnSpec> for ChurnProfile {
    /// A uniform spec is the one-class profile.
    fn from(spec: ChurnSpec) -> Self {
        ChurnProfile::uniform(spec)
    }
}

impl ChurnProfile {
    /// The closed population: one cohort that never churns.
    pub fn none() -> Self {
        ChurnProfile::uniform(ChurnSpec::none())
    }

    /// The degenerate one-class profile: every node churns at `spec`.
    /// Draws exactly the stream PR 3's uniform churn drew.
    pub fn uniform(spec: ChurnSpec) -> Self {
        ChurnProfile {
            classes: [ChurnClass { weight: 1.0, spec }; MAX_CHURN_CLASSES],
            len: 1,
        }
    }

    /// A profile from explicit cohorts.
    ///
    /// # Errors
    ///
    /// Returns a message when `classes` is empty, has more than
    /// [`MAX_CHURN_CLASSES`] entries, or has a non-positive or non-finite
    /// weight.
    pub fn new(classes: &[ChurnClass]) -> Result<Self, String> {
        if classes.is_empty() {
            return Err("churn profile needs at least one class".to_string());
        }
        if classes.len() > MAX_CHURN_CLASSES {
            return Err(format!(
                "churn profile has {} classes; at most {MAX_CHURN_CLASSES} supported",
                classes.len()
            ));
        }
        for c in classes {
            if !(c.weight > 0.0 && c.weight.is_finite()) {
                return Err(format!("churn class weight {} must be positive", c.weight));
            }
        }
        let mut out = [ChurnClass {
            weight: 0.0,
            spec: ChurnSpec::none(),
        }; MAX_CHURN_CLASSES];
        out[..classes.len()].copy_from_slice(classes);
        Ok(ChurnProfile {
            classes: out,
            len: classes.len() as u8,
        })
    }

    /// The cohorts in force.
    pub fn classes(&self) -> &[ChurnClass] {
        &self.classes[..self.len as usize]
    }

    /// Whether any cohort can lose nodes at all. A profile whose every
    /// cohort has a zero leave rate is *inactive* no matter how it was
    /// spelled: [`Population::begin_round`] draws nothing under it, so an
    /// explicitly configured zero-rate profile cannot perturb the
    /// membership stream or anything forked downstream of it.
    pub fn is_active(&self) -> bool {
        self.classes().iter().any(|c| c.spec.is_active())
    }

    /// Parse the `lotus-bench --churn-profile` grammar:
    ///
    /// ```text
    /// none                          closed population
    /// uniform:<leave>[:<rejoin>]    one class (PR 3 uniform churn)
    /// <w>:<leave>:<rejoin>[/...]    up to 4 weighted classes, e.g. a
    ///                               stable core + transient fringe:
    ///                               0.9:0.002:0.5/0.1:0.2:0.3
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn parse(spec: &str) -> Result<ChurnProfile, String> {
        if spec == "none" {
            return Ok(ChurnProfile::none());
        }
        if let Some(rest) = spec.strip_prefix("uniform:") {
            return Ok(ChurnProfile::uniform(ChurnSpec::parse(rest)?));
        }
        let mut classes = Vec::new();
        for (i, part) in spec.split('/').enumerate() {
            let fields: Vec<&str> = part.split(':').collect();
            let [w, leave, rejoin] = fields.as_slice() else {
                return Err(format!(
                    "churn profile {spec:?}: class {i} must be <weight>:<leave>:<rejoin>, got {part:?}"
                ));
            };
            let num = |what: &str, v: &str, max: f64| -> Result<f64, String> {
                let x = v.parse::<f64>().map_err(|_| {
                    format!("churn profile {spec:?}: class {i} {what} is not a number")
                })?;
                if !(0.0..=max).contains(&x) || !x.is_finite() {
                    return Err(format!(
                        "churn profile {spec:?}: class {i} {what} {x} outside [0, {max}]"
                    ));
                }
                Ok(x)
            };
            classes.push(ChurnClass {
                weight: num("weight", w, f64::INFINITY)?,
                spec: ChurnSpec::new(num("leave", leave, 1.0)?, num("rejoin", rejoin, 1.0)?),
            });
        }
        ChurnProfile::new(&classes).map_err(|e| format!("churn profile {spec:?}: {e}"))
    }
}

/// A deterministic flash-crowd arrival process: part of the population is
/// held *outside* the system at construction and admitted later, in
/// waves or a ramp. Admission is index-ordered and draws no randomness,
/// so replays are trivially bit-identical and the process composes with
/// any [`ChurnProfile`] without perturbing its stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Everyone is present from round 0 (the closed default).
    #[default]
    None,
    /// A burst wave: `size` nodes join at `round`. With `period`, further
    /// waves of up to `size` currently-absent nodes (fresh arrivals
    /// first, then churned-out returners) land every `period` rounds —
    /// the synchronized mass-rejoin that makes flash crowds interesting
    /// under churn.
    Burst {
        /// First wave round.
        round: Round,
        /// Nodes per wave (also the held-back pool size).
        size: u32,
        /// Rounds between waves (`None` = one-shot).
        period: Option<Round>,
    },
    /// A ramp: a crowd of `size` nodes joins at `rate` per round starting
    /// at `start` (fresh arrivals only).
    Ramp {
        /// First arrival round.
        start: Round,
        /// Total crowd size (the held-back pool).
        size: u32,
        /// Arrivals per round.
        rate: u32,
    },
}

impl ArrivalProcess {
    /// Whether any arrivals are configured.
    pub fn is_some(&self) -> bool {
        !matches!(self, ArrivalProcess::None)
    }

    /// The number of nodes the process wants held back at construction.
    pub fn pool(&self) -> usize {
        match *self {
            ArrivalProcess::None => 0,
            ArrivalProcess::Burst { size, .. } | ArrivalProcess::Ramp { size, .. } => size as usize,
        }
    }

    /// Replace the crowd/wave size (the `arrival_size` sweep axis).
    pub fn with_size(mut self, new_size: u32) -> Self {
        match &mut self {
            ArrivalProcess::None => {}
            ArrivalProcess::Burst { size, .. } | ArrivalProcess::Ramp { size, .. } => {
                *size = new_size;
            }
        }
        self
    }

    /// Parse the `lotus-bench --arrival` grammar:
    ///
    /// ```text
    /// none                          no arrivals (default)
    /// burst:<round>,<size>[,<period>]   a wave of <size> at <round>,
    ///                               repeating every <period> rounds
    /// ramp:<start>,<size>[,<rate>]  <size> nodes at <rate>/round
    ///                               (default 1) from <start>
    /// ```
    ///
    /// Colons are accepted in place of commas (`burst:30:12:10`) so the
    /// spec can ride inside a comma-separated `--curve`, mirroring the
    /// adaptive grammar's colon form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn parse(spec: &str) -> Result<ArrivalProcess, String> {
        if spec == "none" {
            return Ok(ArrivalProcess::None);
        }
        let (head, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("arrival {spec:?}: want burst:... | ramp:... | none"))?;
        let fields: Vec<&str> = rest.split([',', ':']).collect();
        let num = |what: &str, v: &str| -> Result<u64, String> {
            v.trim()
                .parse::<u64>()
                .map_err(|_| format!("arrival {spec:?}: {what} is not a non-negative integer"))
        };
        let count = |what: &str, v: &str| -> Result<u32, String> {
            u32::try_from(num(what, v)?)
                .map_err(|_| format!("arrival {spec:?}: {what} exceeds {}", u32::MAX))
        };
        match (head, fields.as_slice()) {
            ("burst", [round, size]) => Ok(ArrivalProcess::Burst {
                round: num("round", round)?,
                size: count("size", size)?,
                period: None,
            }),
            ("burst", [round, size, period]) => {
                let period = num("period", period)?;
                if period == 0 {
                    return Err(format!("arrival {spec:?}: period must be positive"));
                }
                Ok(ArrivalProcess::Burst {
                    round: num("round", round)?,
                    size: count("size", size)?,
                    period: Some(period),
                })
            }
            ("ramp", [start, size]) => Ok(ArrivalProcess::Ramp {
                start: num("start", start)?,
                size: count("size", size)?,
                rate: 1,
            }),
            ("ramp", [start, size, rate]) => {
                let rate = count("rate", rate)?;
                if rate == 0 {
                    return Err(format!("arrival {spec:?}: rate must be positive"));
                }
                Ok(ArrivalProcess::Ramp {
                    start: num("start", start)?,
                    size: count("size", size)?,
                    rate,
                })
            }
            ("burst", _) => Err(format!(
                "arrival {spec:?}: burst wants <round>,<size>[,<period>]"
            )),
            ("ramp", _) => Err(format!(
                "arrival {spec:?}: ramp wants <start>,<size>[,<rate>]"
            )),
            (other, _) => Err(format!(
                "unknown arrival {other:?} (burst:<round>,<size>[,<period>] | \
                 ramp:<start>,<size>[,<rate>] | none)"
            )),
        }
    }
}

/// Per-run membership under a [`ChurnProfile`] and an [`ArrivalProcess`],
/// deterministic in the rng the simulator forks for it.
///
/// ```
/// use lotus_core::population::{ArrivalProcess, ChurnSpec, Population};
/// use netsim::rng::DetRng;
///
/// let mut pop = Population::new(10, ChurnSpec::new(0.5, 0.5), DetRng::seed_from(7));
/// pop.protect(0); // e.g. an origin seed that must never leave
/// pop.set_arrival(ArrivalProcess::Burst { round: 5, size: 3, period: None });
/// assert_eq!(pop.present_count(), 7); // the crowd starts outside
/// for t in 0..20 {
///     pop.begin_round(t);
///     assert!(pop.is_present(0));
/// }
/// assert!(pop.ever_arrived(1), "the crowd landed at round 5");
/// ```
#[derive(Debug, Clone)]
pub struct Population {
    profile: ChurnProfile,
    arrival: ArrivalProcess,
    present: BitSet,
    protected: BitSet,
    /// Flash-crowd nodes that have not arrived yet: absent, ignored by
    /// churn (they cannot "rejoin" a system they never joined), admitted
    /// by the arrival process in index order.
    pending: BitSet,
    /// Nodes [`Population::exempt_arrival`] excluded from the flash-crowd
    /// pool: they churn normally (unlike protected roles) but are present
    /// from round 0 — substrates use this to keep attacker nodes out of
    /// the held-back crowd without touching their churn stream.
    arrival_exempt: BitSet,
    /// One member mask per cohort, for multi-class profiles (empty for
    /// single-class profiles: everyone is cohort 0 and no assignment
    /// randomness is drawn).
    cohorts: Vec<BitSet>,
    /// Per-cohort leave odds, then per-cohort rejoin odds:
    /// `odds[absent * MAX_CHURN_CLASSES + cohort]`.
    odds: [Odds; 2 * MAX_CHURN_CLASSES],
    /// Cached `present.len()`, maintained incrementally at every
    /// membership mutation so `present_fraction` observations (the
    /// `presence-*` schedule triggers) and the flash-crowd withdrawal
    /// loop are `O(1)` instead of an `O(n/64)` popcount scan — at a
    /// million nodes the scan inside `set_arrival`'s per-withdrawal
    /// check was quadratic.
    n_present: usize,
    rng: DetRng,
}

impl Population {
    /// A population of `n` nodes, all initially present, churning under
    /// `profile` (a plain [`ChurnSpec`] converts to the uniform
    /// one-class profile). Pass a dedicated rng fork (conventionally
    /// `rng.fork("population")`) so churn draws never perturb the
    /// simulation's other streams.
    ///
    /// Multi-class profiles assign each node a cohort deterministically
    /// from the `"classes"` fork of that stream; forking never advances
    /// the parent, so the membership draw sequence is independent of the
    /// class count — and a one-class profile skips assignment entirely.
    pub fn new(n: usize, profile: impl Into<ChurnProfile>, rng: DetRng) -> Self {
        let profile = profile.into();
        let classes = profile.classes();
        let mut cohorts = Vec::new();
        if classes.len() > 1 {
            cohorts = vec![BitSet::new(n); classes.len()];
            let total: f64 = classes.iter().map(|c| c.weight).sum();
            let mut crng = rng.fork("classes");
            for node in 0..n {
                let x = crng.f64() * total;
                let mut acc = 0.0;
                let mut idx = classes.len() - 1; // fp slack: the last class absorbs
                for (i, c) in classes.iter().enumerate() {
                    acc += c.weight;
                    if x < acc {
                        idx = i;
                        break;
                    }
                }
                cohorts[idx].insert(node);
            }
        }
        let mut odds = [Odds::of(0.0); 2 * MAX_CHURN_CLASSES];
        for (c, class) in classes.iter().enumerate() {
            odds[c] = Odds::of(class.spec.leave);
            odds[MAX_CHURN_CLASSES + c] = Odds::of(class.spec.rejoin);
        }
        Population {
            profile,
            arrival: ArrivalProcess::None,
            present: BitSet::full(n),
            protected: BitSet::new(n),
            pending: BitSet::new(n),
            arrival_exempt: BitSet::new(n),
            cohorts,
            odds,
            n_present: n,
            rng,
        }
    }

    /// A population that never churns (for legacy construction paths).
    pub fn closed(n: usize) -> Self {
        Population::new(n, ChurnProfile::none(), DetRng::seed_from(0))
    }

    /// Mark `node` as never departing (origin seeds, attacker peers,
    /// broadcasters). Also readmits it if currently absent or pending.
    pub fn protect(&mut self, node: usize) {
        self.protected.insert(node);
        self.pending.remove(node);
        if self.present.insert(node) {
            self.n_present += 1;
        }
    }

    /// Exclude `node` from ever being held back by
    /// [`Population::set_arrival`]: it still churns like any other node
    /// (unlike a [`Population::protect`]ed role, whose departure draws
    /// are skipped entirely), but it is present from round 0. Substrates
    /// mark their attacker nodes this way so a flash crowd is always an
    /// honest-node phenomenon. Draws no randomness; call before
    /// [`Population::set_arrival`].
    pub fn exempt_arrival(&mut self, node: usize) {
        self.arrival_exempt.insert(node);
    }

    /// Install a flash-crowd arrival process: the process's pool of nodes
    /// is withdrawn *now* (lowest-indexed unprotected, unexempted nodes,
    /// capped so at least one node stays present) and admitted by
    /// [`Population::begin_round`] when their round comes. Call after any
    /// [`Population::protect`] / [`Population::exempt_arrival`] calls so
    /// those roles are never held back. Draws no randomness.
    pub fn set_arrival(&mut self, arrival: ArrivalProcess) {
        self.arrival = arrival;
        let n = self.present.universe();
        let mut want = arrival.pool().min(n.saturating_sub(1));
        for i in 0..n {
            if want == 0 {
                break;
            }
            if self.protected.contains(i)
                || self.arrival_exempt.contains(i)
                || !self.present.contains(i)
            {
                continue;
            }
            if self.n_present <= 1 {
                break; // keep at least one node in the system
            }
            if self.present.remove(i) {
                self.n_present -= 1;
            }
            self.pending.insert(i);
            want -= 1;
        }
    }

    /// The churn profile in force.
    pub fn profile(&self) -> &ChurnProfile {
        &self.profile
    }

    /// The arrival process in force.
    pub fn arrival(&self) -> &ArrivalProcess {
        &self.arrival
    }

    /// The uniform churn rates in force, for single-class profiles (the
    /// common case); the first cohort's rates otherwise.
    pub fn spec(&self) -> &ChurnSpec {
        &self.profile.classes[0].spec
    }

    /// Whether membership can change at all: churn with a positive leave
    /// rate, or an arrival process. Sims use this to keep per-node
    /// presence probes out of closed-population hot paths.
    pub fn has_dynamics(&self) -> bool {
        self.profile.is_active() || self.arrival.is_some()
    }

    /// Whether `node` is currently in the system.
    #[inline]
    pub fn is_present(&self, node: usize) -> bool {
        self.present.contains(node)
    }

    /// Whether `node` has ever been in the system (false only for
    /// flash-crowd members still waiting to arrive).
    #[inline]
    pub fn ever_arrived(&self, node: usize) -> bool {
        !self.pending.contains(node)
    }

    /// The membership set.
    pub fn present(&self) -> &BitSet {
        &self.present
    }

    /// The churn rng stream, for test instrumentation: the no-draw
    /// guarantees in the module docs (inactive profiles and pure
    /// arrivals never touch the stream) are asserted by comparing
    /// snapshots before and after stepping.
    pub fn rng_snapshot(&self) -> &DetRng {
        &self.rng
    }

    /// Nodes currently present. `O(1)`: served from the incrementally
    /// maintained count, not a popcount scan.
    pub fn present_count(&self) -> usize {
        debug_assert_eq!(self.n_present, self.present.len(), "count cache drift");
        self.n_present
    }

    /// Flash-crowd nodes still waiting to arrive.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The fraction of the universe currently present — the
    /// `present_fraction` observation `presence-above`/`presence-below`
    /// schedule triggers key on. Allocation-free and `O(1)`.
    pub fn present_fraction(&self) -> f64 {
        let n = self.present.universe();
        if n == 0 {
            1.0
        } else {
            self.present_count() as f64 / n as f64
        }
    }

    /// Whether every node is present (always true without dynamics).
    /// `O(1)` via the cached count.
    pub fn all_present(&self) -> bool {
        self.present_count() == self.present.universe()
    }

    /// Admit up to `k` absent nodes in ascending index order: fresh
    /// (pending) arrivals first, then — unless `fresh_only` —
    /// churned-out returners. Arrival-exempt nodes never ride a wave
    /// back in: their returns stay governed by their own rejoin draws,
    /// so an attacker's comeback is never synchronized to the crowd.
    /// No randomness, no allocation.
    fn admit(&mut self, k: usize, fresh_only: bool) {
        let n = self.present.universe();
        let mut left = k;
        for i in 0..n {
            if left == 0 {
                return;
            }
            if self.pending.contains(i) {
                self.pending.remove(i);
                if self.present.insert(i) {
                    self.n_present += 1;
                }
                left -= 1;
            }
        }
        if fresh_only {
            return;
        }
        for i in 0..n {
            if left == 0 {
                return;
            }
            if !self.present.contains(i) && !self.arrival_exempt.contains(i) {
                if self.present.insert(i) {
                    self.n_present += 1;
                }
                left -= 1;
            }
        }
    }

    /// Advance membership into round `t`: the arrival process admits any
    /// wave due this round (index-ordered, no randomness), then present
    /// unprotected nodes leave with their cohort's `leave` probability
    /// and absent arrived nodes return with their cohort's `rejoin`
    /// probability. Nodes still waiting for their flash crowd draw
    /// nothing — they cannot rejoin a system they never joined.
    ///
    /// A no-op (no rng draws, no allocation) when the profile is
    /// inactive — including explicitly configured zero-rate profiles —
    /// and no arrivals are configured.
    // lint: hot-loop
    pub fn begin_round(&mut self, t: Round) {
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
                    // One-shot bursts admit fresh arrivals only (the
                    // pool never exceeds `size`); periodic waves also
                    // pull churned-out nodes back in.
                    self.admit(size as usize, period.is_none());
                }
            }
            ArrivalProcess::Ramp { start, rate, .. } => {
                if t >= start && !self.pending.is_empty() {
                    self.admit(rate as usize, true);
                }
            }
        }
        if !self.profile.is_active() {
            return;
        }
        // 64 nodes per step. In each word a node takes at most one draw:
        // a present unprotected node draws to leave, an absent arrived
        // node draws to rejoin, at its cohort's rate — and only when that
        // rate is strictly between 0 and 1 (`Odds::draw`); the other
        // rates decide without a draw (`Odds::sure`). `chance_bits` then
        // draws in ascending node order, exactly as the scalar loop did.
        for w in 0..self.present.words().len() {
            let present = self.present.words()[w];
            let leaving = present & !self.protected.words()[w];
            let joining = !present & !self.pending.words()[w] & self.present.word_span(w);
            let (mut draw, mut sure, mut lo, mut hi) = (0, 0, 0, 0);
            for c in 0..self.profile.classes().len() {
                let members = match self.cohorts.get(c) {
                    Some(set) => set.words()[w],
                    None => u64::MAX,
                };
                let (leave, rejoin) = (self.odds[c], self.odds[MAX_CHURN_CLASSES + c]);
                draw |= members & ((leaving & leave.draw) | (joining & rejoin.draw));
                sure |= members & ((leaving & leave.sure) | (joining & rejoin.sure));
                // The cohort index as two bit planes, for the threshold
                // lookup below.
                lo |= members & (c as u64 & 1).wrapping_neg();
                hi |= members & (c as u64 >> 1).wrapping_neg();
            }
            let odds = &self.odds;
            let hits = sure
                | self.rng.chance_bits(draw, |b| {
                    let cohort = ((lo >> b) & 1) | (((hi >> b) & 1) << 1);
                    let absent = ((!present >> b) & 1) as usize;
                    odds[absent * MAX_CHURN_CLASSES + cohort as usize].thr
                });
            self.present.set_word(w, present ^ hits);
            self.n_present += (hits & joining).count_ones() as usize;
            self.n_present -= (hits & leaving).count_ones() as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_churn_is_a_noop() {
        let mut pop = Population::new(8, ChurnSpec::none(), DetRng::seed_from(1));
        let rng_before = pop.rng.clone();
        for t in 0..100 {
            pop.begin_round(t);
        }
        assert!(pop.all_present());
        assert_eq!(pop.present_count(), 8);
        assert_eq!(pop.rng, rng_before, "no churn draws no randomness");
    }

    #[test]
    fn zero_rate_profile_draws_nothing() {
        // The regression the no-draw guard covers: churn configured at an
        // explicit zero leave rate — uniform or multi-class — must not
        // touch the rng fork, so adding it cannot perturb anything
        // derived downstream of the membership stream.
        let specs = [
            ChurnProfile::uniform(ChurnSpec::new(0.0, 0.5)),
            ChurnProfile::parse("0.7:0:0.9/0.3:0:0.1").unwrap(),
        ];
        for profile in specs {
            assert!(!profile.is_active(), "{profile:?} is zero-rate");
            let mut pop = Population::new(12, profile, DetRng::seed_from(3));
            let rng_before = pop.rng.clone();
            for t in 0..200 {
                pop.begin_round(t);
            }
            assert!(pop.all_present());
            assert_eq!(
                pop.rng, rng_before,
                "zero-rate churn must not draw randomness"
            );
        }
    }

    #[test]
    fn one_class_profile_draws_the_uniform_stream() {
        // The degenerate profile must be byte-compatible with PR 3's
        // uniform ChurnSpec: same membership history, same rng positions.
        let spec = ChurnSpec::new(0.1, 0.3);
        let history = |profile: ChurnProfile| {
            let mut pop = Population::new(30, profile, DetRng::seed_from(9));
            let mut trace = Vec::new();
            for t in 0..200 {
                pop.begin_round(t);
                trace.push(pop.present().iter().collect::<Vec<_>>());
            }
            (trace, pop.rng)
        };
        assert_eq!(
            history(ChurnProfile::uniform(spec)),
            history(ChurnProfile::from(spec))
        );
        assert_eq!(
            history(ChurnProfile::uniform(spec)),
            history(ChurnProfile::parse("uniform:0.1:0.3").unwrap())
        );
    }

    #[test]
    fn churn_is_deterministic_and_replayable() {
        let run = || {
            let mut pop = Population::new(30, ChurnSpec::new(0.1, 0.3), DetRng::seed_from(9));
            let mut trace = Vec::new();
            for t in 0..200 {
                pop.begin_round(t);
                trace.push(pop.present().iter().collect::<Vec<_>>());
            }
            trace
        };
        assert_eq!(run(), run(), "same seed, same membership history");
    }

    #[test]
    fn nodes_leave_and_return() {
        let mut pop = Population::new(20, ChurnSpec::new(0.2, 0.5), DetRng::seed_from(3));
        let mut ever_absent = 0usize;
        let mut ever_returned = 0usize;
        let mut absent = [false; 20];
        for t in 0..300 {
            pop.begin_round(t);
            for (i, was_absent) in absent.iter_mut().enumerate() {
                if !pop.is_present(i) {
                    if !*was_absent {
                        ever_absent += 1;
                    }
                    *was_absent = true;
                } else if *was_absent {
                    ever_returned += 1;
                    *was_absent = false;
                }
            }
        }
        assert!(ever_absent > 0, "nodes depart under churn");
        assert!(ever_returned > 0, "nodes come back under churn");
    }

    #[test]
    fn protected_nodes_never_leave() {
        let mut pop = Population::new(10, ChurnSpec::new(0.9, 0.1), DetRng::seed_from(5));
        pop.protect(4);
        for t in 0..200 {
            pop.begin_round(t);
            assert!(pop.is_present(4));
        }
    }

    #[test]
    fn heterogeneous_classes_churn_at_their_own_rates() {
        // A stable core (never leaves) next to a maximally transient
        // fringe: only fringe members should ever be absent.
        let profile = ChurnProfile::parse("0.5:0:0/0.5:0.5:0.5").unwrap();
        let mut pop = Population::new(40, profile, DetRng::seed_from(11));
        assert_eq!(pop.profile().classes()[0].spec.leave, 0.0);
        let stable: Vec<usize> = pop.cohorts[0].iter().collect();
        assert!(
            !stable.is_empty() && stable.len() < 40,
            "both cohorts populated (got {} stable)",
            stable.len()
        );
        let mut fringe_ever_absent = false;
        for t in 0..300 {
            pop.begin_round(t);
            for &i in &stable {
                assert!(pop.is_present(i), "stable node {i} left at round {t}");
            }
            fringe_ever_absent |= !pop.all_present();
        }
        assert!(fringe_ever_absent, "the transient fringe churns");
    }

    #[test]
    fn class_assignment_is_deterministic_and_weighted() {
        let profile = ChurnProfile::parse("0.8:0.01:0.5/0.2:0.3:0.3").unwrap();
        let assign = || {
            let pop = Population::new(400, profile, DetRng::seed_from(21));
            pop.cohorts.clone()
        };
        let a = assign();
        assert_eq!(a, assign(), "same seed, same cohorts");
        assert_eq!(a[0].len() + a[1].len(), 400, "every node in one cohort");
        assert_eq!(a[0].intersection_count(&a[1]), 0);
        let fringe = a[1].len();
        assert!(
            (40..160).contains(&fringe),
            "~20% of 400 nodes in the fringe, got {fringe}"
        );
    }

    #[test]
    fn burst_admits_the_crowd_at_its_round() {
        let mut pop = Population::new(20, ChurnSpec::none(), DetRng::seed_from(1));
        pop.set_arrival(ArrivalProcess::Burst {
            round: 6,
            size: 8,
            period: None,
        });
        assert_eq!(pop.present_count(), 12);
        assert_eq!(pop.pending_count(), 8);
        for t in 0..6 {
            pop.begin_round(t);
            assert_eq!(pop.present_count(), 12, "crowd still outside at {t}");
            assert!(!pop.ever_arrived(0));
        }
        pop.begin_round(6);
        assert!(pop.all_present(), "the whole crowd lands at round 6");
        assert_eq!(pop.pending_count(), 0);
        assert!(pop.ever_arrived(0));
    }

    #[test]
    fn periodic_burst_readmits_churned_out_nodes() {
        // Heavy churn with no rejoin: nodes bleed out; every wave round
        // the burst pulls up to `size` of them back in.
        let mut pop = Population::new(30, ChurnSpec::new(0.4, 0.0), DetRng::seed_from(2));
        pop.set_arrival(ArrivalProcess::Burst {
            round: 5,
            size: 10,
            period: Some(5),
        });
        let mut regained = false;
        let mut last = pop.present_count();
        for t in 0..60 {
            pop.begin_round(t);
            let now = pop.present_count();
            if t >= 5 && t % 5 == 0 && now > last {
                regained = true;
            }
            last = now;
        }
        assert!(regained, "waves re-admit churned-out nodes");
    }

    #[test]
    fn ramp_admits_at_rate() {
        let mut pop = Population::new(20, ChurnSpec::none(), DetRng::seed_from(3));
        pop.set_arrival(ArrivalProcess::Ramp {
            start: 4,
            size: 9,
            rate: 3,
        });
        assert_eq!(pop.present_count(), 11);
        let counts: Vec<usize> = (0..10)
            .map(|t| {
                pop.begin_round(t);
                pop.present_count()
            })
            .collect();
        assert_eq!(counts, vec![11, 11, 11, 11, 14, 17, 20, 20, 20, 20]);
    }

    #[test]
    fn protect_wins_over_holdback() {
        let mut pop = Population::new(6, ChurnSpec::none(), DetRng::seed_from(4));
        pop.protect(0);
        pop.protect(1);
        pop.set_arrival(ArrivalProcess::Burst {
            round: 3,
            size: 6,
            period: None,
        });
        // Protected nodes stay (and satisfy the keep-one-present floor);
        // every unprotected node joins the held-back pool.
        assert!(pop.is_present(0) && pop.is_present(1));
        assert_eq!(pop.present_count(), 2);
        pop.begin_round(0);
        pop.begin_round(1);
        pop.begin_round(2);
        assert_eq!(pop.present_count(), 2);
        pop.begin_round(3);
        assert!(pop.all_present());
    }

    #[test]
    fn arrivals_draw_no_randomness() {
        let mut pop = Population::new(16, ChurnSpec::none(), DetRng::seed_from(5));
        pop.set_arrival(ArrivalProcess::Burst {
            round: 2,
            size: 5,
            period: Some(3),
        });
        let rng_before = pop.rng.clone();
        for t in 0..50 {
            pop.begin_round(t);
        }
        assert_eq!(pop.rng, rng_before, "pure arrivals are randomness-free");
        assert!(pop.all_present());
    }

    #[test]
    fn pending_nodes_do_not_rejoin_through_churn() {
        // Churn rejoin must not leak flash-crowd members in early: until
        // their burst lands they are invisible to the churn loop.
        let mut pop = Population::new(20, ChurnSpec::new(0.05, 1.0), DetRng::seed_from(6));
        pop.set_arrival(ArrivalProcess::Burst {
            round: 30,
            size: 10,
            period: None,
        });
        for t in 0..30 {
            pop.begin_round(t);
            assert_eq!(pop.pending_count(), 10, "crowd intact at round {t}");
        }
        pop.begin_round(30);
        assert_eq!(pop.pending_count(), 0);
    }

    #[test]
    fn present_fraction_tracks_membership() {
        let mut pop = Population::new(10, ChurnSpec::none(), DetRng::seed_from(7));
        assert_eq!(pop.present_fraction(), 1.0);
        pop.set_arrival(ArrivalProcess::Burst {
            round: 1,
            size: 5,
            period: None,
        });
        assert_eq!(pop.present_fraction(), 0.5);
        pop.begin_round(0);
        pop.begin_round(1);
        assert_eq!(pop.present_fraction(), 1.0);
    }

    #[test]
    fn spec_parse_grammar() {
        assert_eq!(ChurnSpec::parse("none").unwrap(), ChurnSpec::none());
        assert_eq!(
            ChurnSpec::parse("0.02").unwrap(),
            ChurnSpec::new(0.02, 0.25)
        );
        assert_eq!(
            ChurnSpec::parse("0.02:0.5").unwrap(),
            ChurnSpec::new(0.02, 0.5)
        );
        for bad in ["", "x", "1.5", "0.1:y", "0.1:0.2:0.3", "0.1:-0.2"] {
            assert!(ChurnSpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn profile_parse_grammar() {
        assert_eq!(ChurnProfile::parse("none").unwrap(), ChurnProfile::none());
        assert_eq!(
            ChurnProfile::parse("uniform:0.05").unwrap(),
            ChurnProfile::uniform(ChurnSpec::new(0.05, 0.25))
        );
        assert_eq!(
            ChurnProfile::parse("uniform:0.05:0.5").unwrap(),
            ChurnProfile::uniform(ChurnSpec::new(0.05, 0.5))
        );
        let two = ChurnProfile::parse("0.9:0.002:0.5/0.1:0.2:0.3").unwrap();
        assert_eq!(two.classes().len(), 2);
        assert_eq!(two.classes()[0].weight, 0.9);
        assert_eq!(two.classes()[1].spec, ChurnSpec::new(0.2, 0.3));
        assert!(two.is_active());
        for bad in [
            "",
            "x",
            "uniform:2",
            "0.5:0.1",
            "0.5:0.1:0.2:0.3",
            "-1:0.1:0.2",
            "0:0.1:0.2",
            "0.5:1.5:0.2",
            "a:0.1:0.2",
            "1:0:0/1:0:0/1:0:0/1:0:0/1:0:0",
        ] {
            assert!(ChurnProfile::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn arrival_parse_grammar() {
        assert_eq!(ArrivalProcess::parse("none").unwrap(), ArrivalProcess::None);
        assert_eq!(
            ArrivalProcess::parse("burst:30,12").unwrap(),
            ArrivalProcess::Burst {
                round: 30,
                size: 12,
                period: None
            }
        );
        assert_eq!(
            ArrivalProcess::parse("burst:30,12,10").unwrap(),
            ArrivalProcess::Burst {
                round: 30,
                size: 12,
                period: Some(10)
            }
        );
        assert_eq!(
            ArrivalProcess::parse("ramp:5,20").unwrap(),
            ArrivalProcess::Ramp {
                start: 5,
                size: 20,
                rate: 1
            }
        );
        assert_eq!(
            ArrivalProcess::parse("ramp:5,20,4").unwrap(),
            ArrivalProcess::Ramp {
                start: 5,
                size: 20,
                rate: 4
            }
        );
        for bad in [
            "",
            "burst",
            "burst:",
            "burst:5",
            "burst:5,x",
            "burst:5,3,0",
            "burst:5,3,2,1",
            "ramp:5",
            "ramp:5,3,0",
            "flood:5,3",
        ] {
            assert!(ArrivalProcess::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn profiles_compare_equal_across_construction_paths() {
        // uniform() repeats the spec through the padding slots while
        // new()/parse() zero-pad; equality must ignore the padding.
        let spec = ChurnSpec::new(0.1, 0.3);
        assert_eq!(
            ChurnProfile::uniform(spec),
            ChurnProfile::new(&[ChurnClass { weight: 1.0, spec }]).unwrap()
        );
        assert_eq!(
            ChurnProfile::uniform(spec),
            ChurnProfile::parse("1:0.1:0.3").unwrap()
        );
        assert_ne!(
            ChurnProfile::uniform(spec),
            ChurnProfile::parse("0.5:0.1:0.3/0.5:0.1:0.3").unwrap(),
            "different cohort counts stay unequal"
        );
    }

    #[test]
    fn arrival_parse_rejects_oversized_counts() {
        // Sizes and rates are u32; values beyond that must error, not
        // silently wrap to a tiny (or zero-size) crowd.
        let too_big = (u64::from(u32::MAX) + 1).to_string();
        for bad in [
            format!("burst:5,{too_big}"),
            format!("ramp:5,{too_big}"),
            format!("ramp:5,3,{too_big}"),
        ] {
            let err = ArrivalProcess::parse(&bad).unwrap_err();
            assert!(err.contains("exceeds"), "{bad}: {err}");
        }
        assert_eq!(
            ArrivalProcess::parse(&format!("burst:{too_big},3"))
                .unwrap()
                .pool(),
            3,
            "rounds are u64 and may exceed u32"
        );
    }

    #[test]
    fn periodic_waves_never_readmit_exempt_nodes() {
        // An arrival-exempt (attacker) node that churns out must come
        // back only through its own rejoin draws — never synchronized
        // to a burst wave. With rejoin = 0 it stays out forever.
        let mut pop = Population::new(10, ChurnSpec::new(1.0, 0.0), DetRng::seed_from(9));
        pop.exempt_arrival(0);
        pop.set_arrival(ArrivalProcess::Burst {
            round: 2,
            size: 10,
            period: Some(2),
        });
        for t in 0..30 {
            pop.begin_round(t);
            if t >= 1 {
                assert!(
                    !pop.is_present(0),
                    "wave at round {t} re-admitted the exempt node"
                );
            }
        }
    }

    #[test]
    fn arrival_parse_accepts_colon_separators() {
        // The --curve channel splits on commas, so the colon form must
        // parse identically (as the adaptive grammar's does).
        assert_eq!(
            ArrivalProcess::parse("burst:30:12:10").unwrap(),
            ArrivalProcess::parse("burst:30,12,10").unwrap()
        );
        assert_eq!(
            ArrivalProcess::parse("ramp:5:20:4").unwrap(),
            ArrivalProcess::parse("ramp:5,20,4").unwrap()
        );
    }

    #[test]
    fn exempt_nodes_are_never_held_back_but_still_churn() {
        let mut pop = Population::new(10, ChurnSpec::new(0.9, 0.0), DetRng::seed_from(8));
        pop.exempt_arrival(0);
        pop.exempt_arrival(1);
        pop.set_arrival(ArrivalProcess::Burst {
            round: 50,
            size: 10,
            period: None,
        });
        // The exempt pair stays in; everyone else (bar the keep-one floor,
        // already satisfied) is held back.
        assert!(pop.is_present(0) && pop.is_present(1));
        assert_eq!(pop.present_count(), 2);
        // Unlike protected roles, exempt nodes draw departure randomness
        // and can leave: at leave=0.9 with no rejoin, both are gone fast.
        for t in 0..20 {
            pop.begin_round(t);
        }
        assert!(
            !pop.is_present(0) && !pop.is_present(1),
            "exempt != protected"
        );
    }

    #[test]
    fn arrival_with_size_override() {
        let p = ArrivalProcess::parse("burst:30,12,10")
            .unwrap()
            .with_size(3);
        assert_eq!(p.pool(), 3);
        assert_eq!(ArrivalProcess::None.with_size(9), ArrivalProcess::None);
    }

    #[test]
    fn clamping_and_activity() {
        let c = ChurnSpec::new(2.0, -1.0);
        assert_eq!(c.leave, 1.0);
        assert_eq!(c.rejoin, 0.0);
        assert!(c.is_active());
        assert!(!ChurnSpec::none().is_active());
        assert!(!ChurnSpec::default().is_active());
        assert!(!ChurnProfile::default().is_active());
        assert!(ArrivalProcess::default() == ArrivalProcess::None);
    }
}
