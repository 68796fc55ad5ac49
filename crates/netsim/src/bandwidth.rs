//! Per-node bandwidth accounting.
//!
//! The paper notes that the trade lotus-eater attack "does require enough
//! bandwidth at each attacking node to satiate multiple nodes every round
//! while the crash attack requires essentially no bandwidth". To make that
//! comparison measurable, simulators meter every transfer by message class.

use crate::NodeId;

/// Classification of metered traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Useful protocol payload (updates, pieces, tokens).
    Payload,
    /// Junk uploaded to satisfy balance requirements (BAR Gossip optimistic
    /// pushes pay in junk when no useful update is owed).
    Junk,
    /// Control traffic (offers, requests, reports).
    Control,
}

impl MsgClass {
    const ALL: [MsgClass; 3] = [MsgClass::Payload, MsgClass::Junk, MsgClass::Control];

    fn idx(self) -> usize {
        match self {
            MsgClass::Payload => 0,
            MsgClass::Junk => 1,
            MsgClass::Control => 2,
        }
    }
}

/// Upload meter over `n` nodes: every transfer is charged to its
/// sender, by message class.
///
/// ```
/// use netsim::bandwidth::{BandwidthMeter, MsgClass};
/// use netsim::NodeId;
///
/// let mut m = BandwidthMeter::new(2);
/// m.transfer(NodeId(0), NodeId(1), MsgClass::Payload, 3);
/// assert_eq!(m.uploaded(NodeId(0)), 3);
/// assert_eq!(m.uploaded(NodeId(1)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandwidthMeter {
    up: Vec<[u64; 3]>,
}

impl BandwidthMeter {
    /// A meter for `n` nodes, all counters zero.
    pub fn new(n: u32) -> Self {
        BandwidthMeter {
            up: vec![[0; 3]; n as usize],
        }
    }

    /// Record `units` of traffic from `src` to `dst` (charged to `src`).
    pub fn transfer(&mut self, src: NodeId, _dst: NodeId, class: MsgClass, units: u64) {
        self.up[src.index()][class.idx()] += units;
    }

    /// Total units uploaded by `node` across all classes.
    pub fn uploaded(&self, node: NodeId) -> u64 {
        self.up[node.index()].iter().sum()
    }

    /// Units uploaded by `node` in one class.
    pub fn uploaded_class(&self, node: NodeId, class: MsgClass) -> u64 {
        self.up[node.index()][class.idx()]
    }

    /// System-wide uploads in one class.
    pub fn total_class(&self, class: MsgClass) -> u64 {
        self.up.iter().map(|row| row[class.idx()]).sum()
    }

    /// System-wide uploads across all classes.
    pub fn total(&self) -> u64 {
        MsgClass::ALL.iter().map(|&c| self.total_class(c)).sum()
    }

    /// Mean uploads per node over an arbitrary node subset.
    pub fn mean_uploaded<I: IntoIterator<Item = NodeId>>(&self, nodes: I) -> f64 {
        let mut total = 0u64;
        let mut count = 0u64;
        for n in nodes {
            total += self.uploaded(n);
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// Fraction of system-wide traffic that is junk (0 when idle).
    pub fn junk_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.total_class(MsgClass::Junk) as f64 / total as f64
        }
    }

    /// Reset all counters (e.g. at the end of a warm-up phase).
    pub fn reset(&mut self) {
        self.up.fill([0; 3]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_accumulate_by_direction() {
        let mut m = BandwidthMeter::new(3);
        m.transfer(NodeId(0), NodeId(1), MsgClass::Payload, 5);
        m.transfer(NodeId(0), NodeId(2), MsgClass::Junk, 2);
        m.transfer(NodeId(1), NodeId(0), MsgClass::Payload, 1);

        assert_eq!(m.uploaded(NodeId(0)), 7);
        assert_eq!(m.uploaded_class(NodeId(0), MsgClass::Junk), 2);
        assert_eq!(m.uploaded(NodeId(2)), 0);
    }

    #[test]
    fn uploads_sum_to_the_system_total() {
        let mut m = BandwidthMeter::new(4);
        m.transfer(NodeId(0), NodeId(1), MsgClass::Payload, 5);
        m.transfer(NodeId(2), NodeId(3), MsgClass::Control, 4);
        let up: u64 = (0..4).map(|i| m.uploaded(NodeId(i))).sum();
        assert_eq!(up, 9);
        assert_eq!(m.total(), 9);
    }

    #[test]
    fn junk_fraction_and_reset() {
        let mut m = BandwidthMeter::new(2);
        assert_eq!(m.junk_fraction(), 0.0);
        m.transfer(NodeId(0), NodeId(1), MsgClass::Payload, 3);
        m.transfer(NodeId(1), NodeId(0), MsgClass::Junk, 1);
        assert!((m.junk_fraction() - 0.25).abs() < 1e-12);
        m.reset();
        assert_eq!(m.total(), 0);
    }

    #[test]
    fn mean_uploaded_subset() {
        let mut m = BandwidthMeter::new(3);
        m.transfer(NodeId(0), NodeId(1), MsgClass::Payload, 10);
        m.transfer(NodeId(2), NodeId(1), MsgClass::Payload, 2);
        let mean = m.mean_uploaded([NodeId(0), NodeId(2)]);
        assert!((mean - 6.0).abs() < 1e-12);
        assert_eq!(m.mean_uploaded([]), 0.0);
    }
}
