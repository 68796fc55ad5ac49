//! `torrent-sim` — a simplified BitTorrent swarm simulator for the
//! lotus-eater analysis.
//!
//! The lotus-eater paper (§1) predicts the attack does much less damage to
//! BitTorrent than to BAR Gossip: the attacker satiates leechers by
//! uploading generously, but "since most leechers are downloading more
//! than they upload, this is often actually a net benefit to the torrent",
//! and manufacturing a last-pieces problem by satiating rare-piece holders
//! is defused by the rarest-first policy (§4). This crate makes both
//! claims measurable.
//!
//! The simulator keeps the mechanisms that matter: tit-for-tat choking
//! with a rotating optimistic unchoke, the random-first → rarest-first →
//! endgame piece ladder, origin seeds and post-completion seeding
//! (BitTorrent's built-in altruism), and attacker peers that upload only
//! to their chosen targets.
//!
//! # Example
//!
//! ```
//! use lotus_core::scenario::run;
//! use torrent_sim::{SwarmAttack, SwarmConfig, SwarmSim, TargetPolicy};
//!
//! let cfg = SwarmConfig::builder().leechers(20).pieces(32).build()?;
//! let attack = SwarmAttack::satiate(3, 8, 0.3, TargetPolicy::Random);
//! let report = run::<SwarmSim>(cfg, attack, 42);
//! // Satiated targets finish early and leave — but the swarm survives.
//! assert!(report.all_complete);
//! # Ok::<(), torrent_sim::config::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod config;
pub mod sim;

pub use attack::{SwarmAttack, TargetPolicy};
pub use config::{PiecePolicy, SwarmConfig};
pub use sim::{PeerRole, SwarmReport, SwarmSim};
