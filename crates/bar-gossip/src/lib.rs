//! `bar-gossip` — a round-based BAR Gossip simulator with lotus-eater
//! attacks and defenses.
//!
//! This crate reimplements the gossip layer of BAR Gossip (Li, Clement,
//! Wong, Napper, Roy, Alvisi, Dahlin; OSDI 2006) as evaluated in §2 of
//! *The Lotus-Eater Attack*:
//!
//! * a broadcaster releases a batch of updates each round and seeds each
//!   to a few random nodes ([`config::BarGossipConfig`] defaults to the
//!   paper's Table 1 parameters);
//! * nodes spread updates through **balanced exchanges** (strict
//!   one-for-one) and **optimistic pushes** (recent updates for old
//!   updates or junk) with pseudorandomly assigned partners
//!   ([`exchange`]);
//! * updates expire after a lifetime; delivery-before-expiry is the
//!   usability metric (a node needs > 93 % for the stream to be usable).
//!
//! The three attacks of the paper's Figure 1 are provided by
//! [`AttackPlan`]: the **crash** baseline, the **ideal lotus-eater**
//! (out-of-band instant forwarding) and the **trade lotus-eater**
//! (in-protocol give-everything). The §2/§4 defenses are in
//! [`DefenseSuite`]: larger pushes (Figure 2), unbalanced exchanges
//! (Figure 3), per-exchange rate limits and report-and-evict.
//!
//! A digest-based substrate ([`DigestExchangeConfig`], the
//! `bar-gossip-digest` scenario) swaps the full-window round for a
//! two-leg advertise-then-diff exchange over
//! [`lotus_core::digest`] bloom filters (or exact region hashes). It
//! hosts the **advertise-then-withhold** attack
//! ([`AttackKind::Poison`]): a covert attacker advertises truthfully
//! and then withholds requested updates at a tunable rate, hiding
//! behind the digest's own false positives — plus the digest-audit
//! defense that samples advertised-but-undelivered ids.
//!
//! # Example
//!
//! ```
//! use bar_gossip::{AttackPlan, BarGossipConfig, BarGossipSim};
//! use lotus_core::scenario::run;
//!
//! let cfg = BarGossipConfig::builder()
//!     .nodes(80)
//!     .updates_per_round(4)
//!     .copies_seeded(6)
//!     .rounds(20)
//!     .build()?;
//!
//! // The paper's headline attack: satiate 70% of the system.
//! let attack = AttackPlan::trade_lotus_eater(0.25, 0.70);
//! let report = run::<BarGossipSim>(cfg, attack, 42);
//!
//! // Satiated nodes receive near-perfect service; isolated nodes suffer.
//! assert!(report.satiated_delivery() >= report.isolated_delivery());
//! # Ok::<(), bar_gossip::config::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod config;
mod engine;
pub mod exchange;
pub mod scrip_gossip;
pub mod sim;
pub mod update;

pub use attack::{AttackKind, AttackPlan};
pub use config::{BarGossipConfig, DefenseSuite, DigestExchangeConfig, ReportConfig};
pub use scrip_gossip::{ScripGossipConfig, ScripGossipReport, ScripGossipSim};
pub use sim::{BarGossipReport, BarGossipSim, ClassCounts, ClassDelivery, DigestStats, NodeClass};
