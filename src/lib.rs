//! `lotus-eater` — a reproduction of *The Lotus-Eater Attack*
//! (Ian A. Kash, Eric J. Friedman, Joseph Y. Halpern; PODC 2008,
//! arXiv:0806.1711).
//!
//! Many cooperative distributed systems are **satiable**: their nodes stop
//! providing service once their own demands are met, usually as a side
//! effect of tit-for-tat incentive design. The lotus-eater attack exploits
//! this without harming anyone directly — the attacker *gives* service to a
//! targeted subset of nodes until they are satiated; the satiated nodes then
//! stop serving everyone else, and the remaining ("isolated") nodes starve.
//!
//! This workspace is a full, executable reproduction of the paper:
//!
//! * [`bar_gossip`] — the paper's evaluation substrate: a round-based BAR
//!   Gossip simulator with the crash, *ideal* lotus-eater and *trade*
//!   lotus-eater attacks (Figures 1–3, Table 1);
//! * [`lotus_core`] — the paper's §3 abstract token-collecting model
//!   `(G, T, sat, f, c, a)`, attack strategies (cuts, rare tokens, mass
//!   satiation), defense descriptors (§4) and the sweep/crossover harness;
//! * [`scrip_economy`] — the scrip-system substrate for the "making
//!   satiation hard" defense (finite money supply) and the altruist-crash
//!   phenomenon;
//! * [`torrent_sim`] — a simplified BitTorrent swarm showing why the same
//!   attack does much less damage there (and how rarest-first blunts
//!   rare-piece monopolisation);
//! * [`netsim`] — the deterministic simulation substrate under all of the
//!   above.
//!
//! # Quick start
//!
//! ```
//! use lotus_eater::prelude::*;
//!
//! // Table 1 parameters, scaled down so the doctest is fast.
//! let cfg = BarGossipConfig::builder()
//!     .nodes(60)
//!     .updates_per_round(4)
//!     .update_lifetime(8)
//!     .copies_seeded(6)
//!     .rounds(40)
//!     .build()
//!     .expect("valid config");
//!
//! // No attack: isolated nodes receive (nearly) everything.
//! let clean = run::<BarGossipSim>(cfg.clone(), AttackPlan::none(), 1);
//! assert!(clean.overall_delivery() > 0.95);
//!
//! // A trade lotus-eater attacker controlling 30% of the system.
//! let attack = AttackPlan::trade_lotus_eater(0.30, 0.70);
//! let attacked = run::<BarGossipSim>(cfg, attack, 1);
//! assert!(attacked.isolated_delivery() < clean.overall_delivery());
//! ```
//!
//! # The unified `Scenario` API
//!
//! The paper's point is substrate-generic (Observation 3.1): *any*
//! satiation-compatible system is vulnerable. Every substrate therefore
//! implements one polymorphic driving interface,
//! [`lotus_core::scenario::Scenario`], and projects its typed report onto
//! a common metric vocabulary ([`lotus_core::scenario::ScenarioReport`]),
//! so the same sweep, crossover and plotting machinery runs against all
//! of them — typed or type-erased:
//!
//! ```
//! use lotus_eater::prelude::*;
//!
//! let cfg = BarGossipConfig::builder()
//!     .nodes(60)
//!     .updates_per_round(4)
//!     .copies_seeded(6)
//!     .rounds(20)
//!     .build()
//!     .expect("valid config");
//! let attack = AttackPlan::trade_lotus_eater(0.30, 0.70);
//!
//! // Type-erased: registries and CLIs drive `Box<dyn DynScenario>`.
//! let mut run = lotus_core::scenario::boxed::<BarGossipSim>(cfg, attack, 1);
//! let summary: ScenarioReport = run.finish_dyn();
//! assert_eq!(summary.scenario, "bar-gossip");
//! assert!(summary.metric("isolated_delivery").is_some());
//! ```
//!
//! The figure-regeneration harness lives in the `lotus-bench` crate: a
//! `ScenarioRegistry` maps scenario and attack names to the API above,
//! and the single `lotus-bench` CLI sweeps any of them, with every paper
//! artifact a `--preset` (`fig1`, `x20`, ...); see `EXPERIMENTS.md` for
//! the CLI grammar and the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bar_gossip;
pub use lotus_core;
pub use netsim;
pub use scrip_economy;
pub use torrent_sim;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use bar_gossip::{
        AttackKind, AttackPlan, BarGossipConfig, BarGossipReport, BarGossipSim, DefenseSuite,
        ScripGossipConfig, ScripGossipSim,
    };
    pub use lotus_core::attack::{
        Attacker, SatiateCut, SatiateRandomFraction, SatiateRareHolders, TokenAttack,
    };
    pub use lotus_core::bitset::BitSet;
    pub use lotus_core::satiation::{observation_3_1, Satiable};
    pub use lotus_core::scenario::{
        run, DynScenario, Scenario, ScenarioReport, StepOutcome, Summarize,
    };
    pub use lotus_core::sweep::{sweep_fraction, SweepConfig};
    pub use lotus_core::token::{SatFunction, TokenScenarioConfig, TokenSystem, TokenSystemConfig};
    pub use netsim::graph::Graph;
    pub use netsim::metrics::Series;
    pub use netsim::rng::DetRng;
    pub use netsim::NodeId;
    pub use scrip_economy::reputation::{ReputationAttack, ReputationConfig, ReputationSim};
    pub use scrip_economy::{ScripConfig, ScripSim};
    pub use torrent_sim::{SwarmConfig, SwarmSim};
}
