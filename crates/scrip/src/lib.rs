//! `scrip-economy` — a scrip-system simulator with lotus-eater attacks.
//!
//! Scrip systems pay providers in a system-issued currency that consumers
//! later spend, making reciprocity *indirect*. The lotus-eater paper (§1,
//! §4) identifies them both as a target — an agent playing a threshold
//! strategy stops providing service once its balance reaches its
//! threshold, so an attacker satiates it with money or cheap service —
//! and as a defense: the **fixed money supply** means satiating a few
//! agents is cheap but satiating a large fraction may require more scrip
//! than exists.
//!
//! The model follows Kash–Friedman–Halpern (EC 2007), including the
//! altruist-crash phenomenon the paper cites: with adaptive thresholds,
//! abundant free service erodes the value of money until the paid market
//! collapses.
//!
//! # Example: the money supply caps satiation
//!
//! ```
//! use lotus_core::scenario::run;
//! use scrip_economy::{ScripAttack, ScripConfig, ScripSim};
//!
//! let cfg = ScripConfig::builder()
//!     .agents(50)
//!     .money_per_agent(1)   // scarce money
//!     .threshold(6)         // high thresholds
//!     .rounds(3_000)
//!     .warmup(300)
//!     .build()?;
//! // Even an attacker holding the entire supply cannot keep 80% of the
//! // agents satiated: that would need 6 scrip each with only 1 per agent
//! // in existence.
//! let report = run::<ScripSim>(cfg, ScripAttack::lotus_eater(0.8, 1.0), 1);
//! assert!(report.target_satiation.unwrap() < 0.5);
//! # Ok::<(), scrip_economy::config::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod config;
pub mod reputation;
pub mod sim;

pub use attack::ScripAttack;
pub use config::ScripConfig;
pub use reputation::{ReputationAttack, ReputationConfig, ReputationReport, ReputationSim};
pub use sim::{gini, AgentRole, ScripReport, ScripSim};
