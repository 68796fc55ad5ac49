//! The satiation framework and an executable Observation 3.1.
//!
//! The paper's central definition: a protocol is *satiation-compatible* if
//! nodes in a satiated state do not provide service. Its central (informal)
//! theorem — Observation 3.1 — says that in such a system, an attacker that
//! can provide tokens *sufficiently rapidly* prevents a node from ever
//! providing service. Here both become code: [`Satiable`] is the interface
//! the token system and the BAR Gossip, scrip, reputation and BitTorrent
//! simulators implement, and [`observation_3_1`] verifies the claim
//! mechanically against any [`Feedable`] one of them, stepping it through
//! its own [`RoundSim`] rounds.

use netsim::round::RoundSim;
use netsim::{NodeId, Round};

/// A system whose nodes can be observed for satiation and service.
///
/// Implemented by the token system, the BAR Gossip simulator, the scrip
/// and reputation economies and the BitTorrent swarm — the lotus-eater
/// attack applies to anything with this shape.
pub trait Satiable {
    /// Number of nodes in the system.
    fn node_count(&self) -> u32;

    /// Whether `node` currently has all of its desires met.
    fn is_satiated(&self, node: NodeId) -> bool;

    /// Cumulative units of service `node` has provided to other nodes.
    fn service_provided(&self, node: NodeId) -> u64;

    /// Fraction of nodes currently satiated. Provided for convenience.
    fn satiated_fraction(&self) -> f64 {
        let n = self.node_count();
        if n == 0 {
            return 0.0;
        }
        let sat = NodeId::all(n).filter(|&v| self.is_satiated(v)).count();
        sat as f64 / f64::from(n)
    }
}

/// A [`Satiable`] round simulator that an attacker can feed — the minimal
/// interface needed to state Observation 3.1 operationally. Rounds
/// advance through the simulator's own [`RoundSim`] primitive.
pub trait Feedable: Satiable + RoundSim {
    /// Give `node` everything it could want, instantly ("sufficiently
    /// rapidly" taken to its limit, as the paper's proof sketch does).
    fn feed_fully(&mut self, node: NodeId);
}

impl Feedable for crate::token::TokenSystem {
    fn feed_fully(&mut self, node: NodeId) {
        self.satiate(node);
    }
}

/// Outcome of running the Observation 3.1 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation31Report {
    /// Rounds the experiment ran.
    pub rounds: Round,
    /// Whether the target was satiated at the start of every round.
    pub always_satiated: bool,
    /// Service the target provided *during* the experiment.
    pub service_during: u64,
    /// The observation holds: satiation was maintained and no service was
    /// provided.
    pub holds: bool,
}

/// Execute Observation 3.1: feed `target` fully at the start of every
/// round for `rounds` rounds and check that it never provides service.
///
/// For a satiation-compatible system this must return `holds == true`; a
/// system with altruism (`a > 0` in the token model, seeds in BitTorrent,
/// obedient unbalanced exchangers in BAR Gossip) is *not*
/// satiation-compatible and may legitimately fail the check — that failure
/// is exactly the defense the paper advocates.
///
/// ```
/// use lotus_core::satiation::observation_3_1;
/// use lotus_core::token::{TokenSystem, TokenSystemConfig};
/// use netsim::graph::Graph;
/// use netsim::NodeId;
///
/// let cfg = TokenSystemConfig::builder(Graph::complete(10)).tokens(6).build()?;
/// let mut sys = TokenSystem::new(cfg, 1);
/// let report = observation_3_1(&mut sys, NodeId(4), 30);
/// assert!(report.holds, "satiation-compatible => attack silences the node");
/// # Ok::<(), lotus_core::token::ConfigError>(())
/// ```
pub fn observation_3_1<S: Feedable>(
    sys: &mut S,
    target: NodeId,
    rounds: Round,
) -> Observation31Report {
    let service_before = sys.service_provided(target);
    let mut always_satiated = true;
    for _ in 0..rounds {
        sys.feed_fully(target);
        if !sys.is_satiated(target) {
            always_satiated = false;
        }
        sys.round(sys.rounds_run());
    }
    let service_during = sys.service_provided(target) - service_before;
    Observation31Report {
        rounds,
        always_satiated,
        service_during,
        holds: always_satiated && service_during == 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{Allocation, TokenSystem, TokenSystemConfig};
    use netsim::graph::Graph;

    fn system(altruism: f64, seed: u64) -> TokenSystem {
        let cfg = TokenSystemConfig::builder(Graph::complete(12))
            .tokens(8)
            .allocation(Allocation::UniformCopies { copies: 2 })
            .altruism(altruism)
            .build()
            .unwrap();
        TokenSystem::new(cfg, seed)
    }

    #[test]
    fn observation_holds_for_satiation_compatible_system() {
        let mut sys = system(0.0, 3);
        let report = observation_3_1(&mut sys, NodeId(5), 40);
        assert!(report.always_satiated);
        assert_eq!(report.service_during, 0);
        assert!(report.holds);
    }

    #[test]
    fn observation_fails_with_full_altruism() {
        // With a = 1 the satiated node responds to every request: the
        // system is not satiation-compatible and the node serves.
        let mut sys = system(1.0, 3);
        let report = observation_3_1(&mut sys, NodeId(5), 40);
        assert!(report.always_satiated, "feeding keeps it satiated");
        assert!(report.service_during > 0, "altruistic node still serves");
        assert!(!report.holds);
    }

    #[test]
    fn satiated_fraction_default_impl() {
        let mut sys = system(0.0, 1);
        assert!(sys.satiated_fraction() < 0.2);
        for v in NodeId::all(12) {
            sys.feed_fully(v);
        }
        assert!((sys.satiated_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn report_is_copy_and_debuggable() {
        let r = Observation31Report {
            rounds: 1,
            always_satiated: true,
            service_during: 0,
            holds: true,
        };
        let r2 = r;
        assert_eq!(r, r2);
        assert!(!format!("{r:?}").is_empty());
    }
}
