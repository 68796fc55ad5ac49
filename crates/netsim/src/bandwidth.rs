//! Upload accounting by message class.
//!
//! The paper notes that the trade lotus-eater attack "does require enough
//! bandwidth at each attacking node to satiate multiple nodes every round
//! while the crash attack requires essentially no bandwidth". To make that
//! comparison measurable, simulators meter every transfer by message class
//! and charge it to the sender.
//!
//! The meter keeps only what a run reads: one payload counter per node
//! (the service a node has provided) and, per message class, the total
//! uploaded by each of [`GROUPS`] fixed sender groups (a simulator's
//! honest/attacker split). Group means and the junk fraction divide
//! those integer totals, so they equal the sums a full per-node,
//! per-class table would give.

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
    fn idx(self) -> usize {
        match self {
            MsgClass::Payload => 0,
            MsgClass::Junk => 1,
            MsgClass::Control => 2,
        }
    }
}

/// Number of sender groups a [`BandwidthMeter`] totals separately.
pub const GROUPS: usize = 2;

/// Upload meter over `n` nodes in [`GROUPS`] fixed groups: every
/// transfer is charged to its sender, by message class.
///
/// ```
/// use netsim::bandwidth::{BandwidthMeter, MsgClass};
/// use netsim::NodeId;
///
/// let mut m = BandwidthMeter::new(2);
/// m.transfer(NodeId(0), 1, MsgClass::Payload, 3);
/// m.transfer(NodeId(1), 0, MsgClass::Junk, 1);
/// assert_eq!(m.payload_uploaded(NodeId(0)), 3);
/// assert_eq!(m.payload_uploaded(NodeId(1)), 0);
/// assert_eq!(m.group_uploaded(1), 3);
/// assert_eq!(m.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandwidthMeter {
    /// Payload units uploaded per node.
    payload: Vec<u64>,
    /// Units uploaded per (sender group, class).
    groups: [[u64; 3]; GROUPS],
}

impl BandwidthMeter {
    /// A meter for `n` nodes, all counters zero.
    pub fn new(n: u32) -> Self {
        BandwidthMeter {
            payload: vec![0; n as usize],
            groups: [[0; 3]; GROUPS],
        }
    }

    /// Record `units` of `class` traffic uploaded by `src`, a member of
    /// `group` (`< GROUPS`). A node must always be charged to the same
    /// group.
    #[inline]
    pub fn transfer(&mut self, src: NodeId, group: usize, class: MsgClass, units: u64) {
        self.groups[group][class.idx()] += units;
        if class == MsgClass::Payload {
            self.payload[src.index()] += units;
        }
    }

    /// Payload units uploaded by `node`.
    pub fn payload_uploaded(&self, node: NodeId) -> u64 {
        self.payload[node.index()]
    }

    /// Units uploaded by `group`'s members across all classes.
    pub fn group_uploaded(&self, group: usize) -> u64 {
        self.groups[group].iter().sum()
    }

    /// Mean units uploaded per member of `group`, which has `members`
    /// nodes (0 for an empty group).
    pub fn group_mean(&self, group: usize, members: usize) -> f64 {
        if members == 0 {
            0.0
        } else {
            self.group_uploaded(group) as f64 / members as f64
        }
    }

    /// System-wide uploads in one class.
    pub fn total_class(&self, class: MsgClass) -> u64 {
        self.groups.iter().map(|g| g[class.idx()]).sum()
    }

    /// System-wide uploads across all classes.
    pub fn total(&self) -> u64 {
        (0..GROUPS).map(|g| self.group_uploaded(g)).sum()
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
        self.payload.fill(0);
        self.groups = [[0; 3]; GROUPS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_accumulate_by_direction() {
        let mut m = BandwidthMeter::new(3);
        m.transfer(NodeId(0), 0, MsgClass::Payload, 5);
        m.transfer(NodeId(0), 0, MsgClass::Junk, 2);
        m.transfer(NodeId(1), 1, MsgClass::Payload, 1);

        assert_eq!(m.payload_uploaded(NodeId(0)), 5, "junk is not payload");
        assert_eq!(m.payload_uploaded(NodeId(1)), 1);
        assert_eq!(m.payload_uploaded(NodeId(2)), 0);
        assert_eq!(m.group_uploaded(0), 7);
        assert_eq!(m.group_uploaded(1), 1);
    }

    #[test]
    fn uploads_sum_to_the_system_total() {
        let mut m = BandwidthMeter::new(4);
        m.transfer(NodeId(0), 0, MsgClass::Payload, 5);
        m.transfer(NodeId(2), 1, MsgClass::Control, 4);
        assert_eq!(m.group_uploaded(0) + m.group_uploaded(1), 9);
        assert_eq!(m.total(), 9);
        assert_eq!(m.total_class(MsgClass::Control), 4);
    }

    #[test]
    fn junk_fraction_and_reset() {
        let mut m = BandwidthMeter::new(2);
        assert_eq!(m.junk_fraction(), 0.0);
        m.transfer(NodeId(0), 0, MsgClass::Payload, 3);
        m.transfer(NodeId(1), 1, MsgClass::Junk, 1);
        assert!((m.junk_fraction() - 0.25).abs() < 1e-12);
        m.reset();
        assert_eq!(m.total(), 0);
        assert_eq!(m.payload_uploaded(NodeId(0)), 0);
    }

    #[test]
    fn mean_uploaded_subset() {
        let mut m = BandwidthMeter::new(3);
        m.transfer(NodeId(0), 1, MsgClass::Payload, 10);
        m.transfer(NodeId(2), 1, MsgClass::Junk, 2);
        assert!((m.group_mean(1, 2) - 6.0).abs() < 1e-12);
        assert_eq!(m.group_mean(0, 0), 0.0);
    }
}
