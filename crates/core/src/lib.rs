//! `lotus-core` — the lotus-eater attack model.
//!
//! This crate holds the paper's primary intellectual contribution in
//! executable form:
//!
//! * [`token`] — the §3 abstract token-collecting system
//!   `(G, T, sat, f, c, a)`: graph, token set, satiation function, initial
//!   allocation, contact budget and altruism probability;
//! * [`satiation`] — the [`Satiable`](satiation::Satiable) interface every
//!   protocol simulator implements, and an executable
//!   [Observation 3.1](satiation::observation_3_1): *in a
//!   satiation-compatible system, an attacker that can provide tokens
//!   sufficiently rapidly prevents a node from ever providing service*;
//! * [`attack`] — the attacker strategies §3 analyses (graph cuts, rare
//!   tokens, mass satiation, rotation, budgets);
//! * [`schedule`] — attack *timing*: the cross-substrate
//!   [`AttackSchedule`](schedule::AttackSchedule) (dormant → cooperate →
//!   defect phases, oscillation, metric-threshold triggers, rotation)
//!   every simulator steps deterministically;
//! * [`adaptive`] — *closed-loop* attack timing: the
//!   [`AdaptivePolicy`](adaptive::AdaptivePolicy) bandit that treats
//!   {dormant, cooperate, defect, rotate} as arms and re-plans each
//!   phase from the damage it observes;
//! * [`population`] — population dynamics: heterogeneous churn
//!   ([`ChurnProfile`](population::ChurnProfile)) and flash-crowd
//!   arrivals ([`ArrivalProcess`](population::ArrivalProcess)) driving a
//!   deterministic membership tracker
//!   ([`Population`](population::Population)) every simulator runs under;
//! * [`envelope`] — the round skeleton's timing layer: one
//!   [`RoundEnvelope`](envelope::RoundEnvelope) owns population, faults
//!   and schedule for every scheduled substrate and steps them in one
//!   fixed order per round;
//! * [`faults`] — fault injection: lossy links, state-losing crashes and
//!   epoch partitions ([`FaultPlan`](faults::FaultPlan) /
//!   [`FaultState`](faults::FaultState)), the realistic-network
//!   dimension that lets defection hide inside the background fault
//!   rate;
//! * [`digest`] — the digest-exchange substrate primitives: a
//!   fixed-size bloom filter over update ids
//!   ([`BloomDigest`](digest::BloomDigest)) and an exact per-region
//!   summary hash ([`region_hash`](digest::region_hash)), the two
//!   summaries a digest-first gossip round trades before transferring
//!   only the diff — the surface the advertise-then-withhold attack
//!   poisons;
//! * [`soa`] — the sharded struct-of-arrays activity index
//!   ([`ShardMap`](soa::ShardMap)): fixed-size shards over the node
//!   index space with cached activity popcounts, so round loops cost
//!   `O(active)` instead of `O(population)` at million-node scale;
//! * [`proptest_lite`] — the dependency-free property-test harness
//!   (seeded case generation + shrink-by-halving) the population
//!   invariant suites run on;
//! * [`alloc_guard`] — the counting test allocator behind the
//!   zero-allocations-per-steady-state-step regression suite (the
//!   dynamic twin of `lotus-lint`'s static hot-loop rule);
//! * [`defense`] — the four §4 defense principles and their mechanisms,
//!   and the silence cut-off both gossip substrates share;
//! * [`scenario`] — the unified experiment API: the
//!   [`Scenario`](scenario::Scenario) trait every substrate implements,
//!   the common [`ScenarioReport`](scenario::ScenarioReport) metric
//!   vocabulary and the type-erased
//!   [`DynScenario`](scenario::DynScenario) layer that registries and
//!   CLIs drive;
//! * [`sweep`] — the multi-seed parameter-sweep harness behind every
//!   figure;
//! * [`report`] — usability thresholds (the 93 % rule) and
//!   paper-vs-measured crossover records;
//! * [`bitset`] — the dense set representation all simulators share.
//!
//! Protocol-specific machinery lives in sibling crates (`bar-gossip`,
//! `scrip-economy`, `torrent-sim`), all built on [`netsim`].
//!
//! # Example: a cut attack on a grid
//!
//! ```
//! use lotus_core::attack::{SatiateCut, TokenAttack};
//! use lotus_core::scenario::run;
//! use lotus_core::token::{TokenScenarioConfig, TokenSystem, TokenSystemConfig};
//! use netsim::graph::Graph;
//!
//! let cfg = TokenSystemConfig::builder(Graph::grid(4, 8, false))
//!     .tokens(6)
//!     .build()?;
//! let attack = TokenAttack::cut(SatiateCut::grid_column(4, 8, 4));
//! let report = run::<TokenSystem>(TokenScenarioConfig::new(cfg, 100), attack, 42);
//! // Satiating one grid column (4 of 32 nodes) can starve a whole side.
//! assert!(report.mean_coverage() <= 1.0);
//! # Ok::<(), lotus_core::token::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod alloc_guard;
pub mod attack;
pub mod bitset;
pub mod defense;
pub mod digest;
pub mod envelope;
pub mod faults;
pub mod pool;
pub mod population;
pub mod proptest_lite;
pub mod report;
pub mod satiation;
pub mod scenario;
pub mod schedule;
pub mod soa;
pub mod sweep;
pub mod token;
