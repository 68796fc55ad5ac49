//! `netsim` — a deterministic discrete-round network-simulation substrate.
//!
//! This crate provides the infrastructure shared by every protocol simulator
//! in the lotus-eater reproduction ([`bar-gossip`], [`scrip-economy`],
//! [`torrent-sim`] and the abstract token model in [`lotus-core`]):
//!
//! * [`rng`] — a hand-rolled, seedable, *forkable* PCG-32 generator so that
//!   every experiment is reproducible from a single `u64` seed, on every
//!   platform, with no external dependencies;
//! * [`graph`] — compact undirected graphs (CSR) with the standard topology
//!   builders (complete, grid, Erdős–Rényi, Watts–Strogatz, Barabási–Albert);
//! * [`partner`] — BAR-Gossip-style verifiable pseudorandom partner
//!   selection: nodes cannot influence who they interact with;
//! * [`metrics`], [`table`], [`plot`] — running statistics, histograms,
//!   aligned text tables, CSV output and ASCII line plots for the
//!   figure-regeneration harness;
//! * [`round`] — a minimal round-driven engine trait;
//! * [`bandwidth`] — upload accounting by message class: payload per
//!   node, every class per sender group;
//! * [`trace`] — a bounded structured event log for debugging and tests.
//!
//! # Example
//!
//! ```
//! use netsim::rng::DetRng;
//! use netsim::graph::Graph;
//!
//! let mut rng = DetRng::seed_from(42);
//! let g = Graph::erdos_renyi(100, 0.08, &mut rng.fork("topology"));
//! assert!(g.is_connected());
//! ```
//!
//! [`bar-gossip`]: https://example.invalid/lotus-eater
//! [`scrip-economy`]: https://example.invalid/lotus-eater
//! [`torrent-sim`]: https://example.invalid/lotus-eater
//! [`lotus-core`]: https://example.invalid/lotus-eater

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod graph;
pub mod metrics;
pub mod partner;
pub mod plan;
pub mod plot;
pub mod rng;
pub mod round;
pub mod table;
pub mod trace;

/// Identifier of a simulated node.
///
/// A thin newtype over `u32` used by every simulator in the workspace so
/// that node indices cannot be confused with counts, rounds or token ids.
///
/// ```
/// use netsim::NodeId;
/// let a = NodeId(3);
/// assert_eq!(a.index(), 3);
/// assert_eq!(format!("{a}"), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position in dense per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterate over the first `n` node ids: `n0, n1, …`.
    ///
    /// ```
    /// use netsim::NodeId;
    /// let all: Vec<_> = NodeId::all(3).collect();
    /// assert_eq!(all, vec![NodeId(0), NodeId(1), NodeId(2)]);
    /// ```
    pub fn all(n: u32) -> impl Iterator<Item = NodeId> {
        (0..n).map(NodeId)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

/// A simulation round (discrete time step), starting at `0`.
pub type Round = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from(17u32);
        assert_eq!(u32::from(id), 17);
        assert_eq!(id.index(), 17);
    }

    #[test]
    fn node_id_display_debug_nonempty() {
        assert_eq!(format!("{}", NodeId(0)), "n0");
        assert!(!format!("{:?}", NodeId(0)).is_empty());
    }

    #[test]
    fn node_id_ordering_matches_index() {
        assert!(NodeId(1) < NodeId(2));
        let mut v = vec![NodeId(2), NodeId(0), NodeId(1)];
        v.sort();
        assert_eq!(v, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn node_id_all_is_dense() {
        assert_eq!(NodeId::all(0).count(), 0);
        assert_eq!(NodeId::all(5).count(), 5);
    }
}
