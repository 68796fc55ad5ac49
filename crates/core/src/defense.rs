//! Defense principles from §4 of the paper, as typed descriptors.
//!
//! The paper examines four design principles for tolerating lotus-eater
//! attacks. Each principle maps to concrete mechanisms implemented by the
//! protocol simulators in this workspace; this module gives the principles
//! and mechanisms a shared vocabulary so experiments can be labelled,
//! composed and reported uniformly (the `defense_playbook` example walks
//! through all four).
//!
//! It also holds the one defense mechanism two substrates share:
//! [`SilenceCutoff`], the quorum-of-accusers cut behind both gossip
//! substrates' `cutoff=<q>` knob, and the distinct-accuser table
//! ([`QuorumSlots`]) it shares with BAR Gossip's report-and-evict.

use crate::bitset::BitSet;
use crate::faults::CutStats;

/// The four defense principles of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Principle {
    /// Choose `G` and `f` so no cheap cut or rare holder exists — the
    /// traditional, best-studied principle.
    NonRandomFailureResilience,
    /// Make satiation hard: scrip/reputation indirection, rarest-first,
    /// network coding.
    MakeSatiationHard,
    /// Leverage obedient nodes: report-and-evict excessive service,
    /// slightly unbalanced exchanges.
    LeverageObedience,
    /// Encourage altruism: bigger optimistic pushes, optimistic unchokes,
    /// seeding, responding while satiated.
    EncourageAltruism,
}

impl Principle {
    /// Short human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Principle::NonRandomFailureResilience => "resilience to non-random failures",
            Principle::MakeSatiationHard => "making satiation hard",
            Principle::LeverageObedience => "leveraging obedience",
            Principle::EncourageAltruism => "encouraging altruism",
        }
    }

    /// All four principles in paper order.
    pub fn all() -> [Principle; 4] {
        [
            Principle::NonRandomFailureResilience,
            Principle::MakeSatiationHard,
            Principle::LeverageObedience,
            Principle::EncourageAltruism,
        ]
    }
}

impl std::fmt::Display for Principle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete defense mechanism, each implementing one principle.
///
/// The numeric payloads are the knobs the experiments sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mechanism {
    /// Respond to requests while satiated with this probability (token
    /// model `a`; BitTorrent seeding is its protocol-level cousin).
    Altruism(f64),
    /// Raise the optimistic push size (BAR Gossip; Figure 2).
    PushSize(u32),
    /// Obedient nodes give one extra update in balanced exchanges
    /// (BAR Gossip; Figure 3).
    UnbalancedExchange,
    /// Cap the number of useful updates any single peer may hand a node
    /// per round; prevents "sufficiently rapid" satiation (§5 open
    /// problem).
    RateLimit(u32),
    /// Obedient nodes report peers that provide excessive service; a
    /// quorum of distinct reports evicts the peer.
    ReportAndEvict {
        /// Fraction of honest nodes that are obedient reporters.
        obedient_fraction: f64,
        /// Distinct reports needed to evict.
        quorum: u32,
    },
    /// Satiation requires any `k` of the `n` coded tokens (Avalanche-style
    /// network coding).
    Coding {
        /// Tokens needed to reconstruct.
        need: usize,
    },
    /// Indirect reciprocity through a fixed money supply (scrip): satiating
    /// many nodes needs more money than exists.
    ScripIndirection {
        /// Average money per agent.
        money_per_agent: f64,
    },
}

impl Mechanism {
    /// The §4 principle this mechanism implements.
    pub fn principle(self) -> Principle {
        match self {
            Mechanism::Altruism(_) | Mechanism::PushSize(_) => Principle::EncourageAltruism,
            Mechanism::UnbalancedExchange | Mechanism::ReportAndEvict { .. } => {
                Principle::LeverageObedience
            }
            Mechanism::RateLimit(_) => Principle::LeverageObedience,
            Mechanism::Coding { .. } | Mechanism::ScripIndirection { .. } => {
                Principle::MakeSatiationHard
            }
        }
    }

    /// Short label for tables and figure legends.
    pub fn label(self) -> String {
        match self {
            Mechanism::Altruism(a) => format!("altruism a={a}"),
            Mechanism::PushSize(s) => format!("push size {s}"),
            Mechanism::UnbalancedExchange => "unbalanced exchanges".to_string(),
            Mechanism::RateLimit(cap) => format!("rate limit {cap}/exchange"),
            Mechanism::ReportAndEvict {
                obedient_fraction,
                quorum,
            } => format!("report-and-evict (obedient {obedient_fraction}, quorum {quorum})"),
            Mechanism::Coding { need } => format!("coding (need {need})"),
            Mechanism::ScripIndirection { money_per_agent } => {
                format!("scrip (m={money_per_agent})")
            }
        }
    }
}

/// Distinct accusers per node, kept until they reach a quorum: one flat
/// table of `min(quorum - 1, n)` slots per node, each holding an accuser
/// id plus one (0 marks an empty slot). The accuser that completes a
/// quorum is never stored, and nothing is recorded against a node once
/// its quorum is reached (the caller's cut or evicted set says so), so
/// the table answers exactly as a full per-node set would. A record
/// scans at most `quorum - 1` slots.
///
/// ```
/// use lotus_core::defense::QuorumSlots;
///
/// let mut reporters = QuorumSlots::new(10, 3);
/// assert!(!reporters.record(7, 1));
/// assert!(!reporters.record(7, 1), "a repeat accuser adds nothing");
/// assert!(!reporters.record(7, 2));
/// assert!(reporters.record(7, 4), "the third distinct accuser makes the quorum");
/// ```
#[derive(Debug, Clone)]
pub struct QuorumSlots {
    /// Distinct accusers that make a quorum.
    quorum: u32,
    /// Slots per node: `min(quorum - 1, n)`.
    width: usize,
    /// `width` slots per node, filled from the front.
    slots: Vec<u32>,
}

impl QuorumSlots {
    /// An empty table over `n` nodes for quorums of `quorum` distinct
    /// accusers.
    pub fn new(n: usize, quorum: u32) -> Self {
        let width = (quorum.saturating_sub(1) as usize).min(n);
        QuorumSlots {
            quorum,
            width,
            slots: vec![0; n * width],
        }
    }

    /// Record `accuser` against `node`, whose quorum has not been
    /// reached yet. Returns whether `node` now has a quorum of distinct
    /// accusers; after that, record nothing more against it.
    pub fn record(&mut self, node: usize, accuser: usize) -> bool {
        let id = accuser as u32 + 1;
        let row = &mut self.slots[node * self.width..(node + 1) * self.width];
        for slot in row {
            if *slot == id {
                return false;
            }
            if *slot == 0 {
                *slot = id;
                return false;
            }
        }
        // Every slot holds another accuser: this one is distinct too.
        self.width + 1 >= self.quorum as usize
    }
}

/// The silence cut-off defense: an honest observer that expected a
/// delivery inside an established exchange and got nothing files one
/// strike against the silent partner, and `quorum` distinct accusers
/// cut the partner from the protocol. Attacker observers never file — a
/// masquerading defector wants less scrutiny, not more. Under ambient
/// faults an honest node's losses read exactly like a masquerader's
/// withholding, which is the question [`CutStats`] answers.
#[derive(Debug, Clone)]
pub struct SilenceCutoff {
    /// Distinct accusers per node, up to the quorum that cuts; `None`
    /// when the defense is off.
    accusers: Option<QuorumSlots>,
    /// Nodes cut so far.
    cut: BitSet,
    /// Cuts against ground truth; the class totals are fixed at build.
    stats: CutStats,
}

impl SilenceCutoff {
    /// A cut-off over `n` nodes, `attackers` of them adversarial,
    /// cutting at `quorum` distinct accusers (`None`: defense off).
    pub fn new(n: usize, quorum: Option<u32>, attackers: u32) -> Self {
        SilenceCutoff {
            accusers: quorum.map(|q| QuorumSlots::new(n, q)),
            cut: BitSet::new(n),
            stats: CutStats {
                honest: n as u32 - attackers,
                attackers,
                ..CutStats::default()
            },
        }
    }

    /// Whether the defense is configured (and can cut nodes mid-round).
    pub fn is_on(&self) -> bool {
        self.accusers.is_some()
    }

    /// Whether `node` has been cut.
    #[inline]
    pub fn is_cut(&self, node: usize) -> bool {
        self.cut.contains(node)
    }

    /// The cut set, for activity masks.
    pub fn cut_set(&self) -> &BitSet {
        &self.cut
    }

    /// `observer` expected a delivery from `partner` and got silence:
    /// file one strike. Returns whether this strike cut `partner`. Does
    /// nothing when the defense is off or the observer is an attacker.
    pub fn accuse(
        &mut self,
        observer: usize,
        partner: usize,
        is_attacker: impl Fn(usize) -> bool,
    ) -> bool {
        let Some(accusers) = &mut self.accusers else {
            return false;
        };
        if is_attacker(observer) || self.cut.contains(partner) {
            return false;
        }
        if accusers.record(partner, observer) {
            self.cut.insert(partner);
            if is_attacker(partner) {
                self.stats.cut_attacker += 1;
            } else {
                self.stats.cut_honest += 1;
            }
            return true;
        }
        false
    }

    /// Cut outcomes for a report; `None` when the defense is off, so
    /// defense-free reports are unchanged by the machinery existing.
    pub fn stats(&self) -> Option<CutStats> {
        self.accusers.as_ref().map(|_| self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutoff_needs_a_quorum_of_distinct_accusers() {
        let mut c = SilenceCutoff::new(10, Some(2), 0);
        let honest = |_| false;
        assert!(!c.accuse(0, 5, honest));
        assert!(!c.accuse(0, 5, honest), "a repeat accuser adds nothing");
        assert!(!c.is_cut(5));
        assert!(c.accuse(1, 5, honest), "the second distinct accuser cuts");
        assert!(c.is_cut(5) && c.cut_set().contains(5));
    }

    #[test]
    fn attacker_observers_never_file() {
        let mut c = SilenceCutoff::new(10, Some(1), 3);
        let attacker = |i| i < 3;
        for observer in 0..3 {
            assert!(!c.accuse(observer, 7, attacker));
        }
        assert!(!c.is_cut(7));
        assert!(
            c.accuse(4, 1, attacker),
            "an honest observer cuts an attacker"
        );
        let stats = c.stats().expect("defense is on");
        assert_eq!((stats.cut_honest, stats.cut_attacker), (0, 1));
        assert_eq!((stats.honest, stats.attackers), (7, 3));
    }

    #[test]
    fn a_node_is_cut_and_counted_once() {
        let mut c = SilenceCutoff::new(10, Some(1), 0);
        assert!(c.accuse(0, 5, |_| false));
        assert!(!c.accuse(1, 5, |_| false), "already cut");
        assert!(!c.accuse(2, 5, |_| false));
        let stats = c.stats().expect("defense is on");
        assert_eq!((stats.cut_honest, stats.cut_attacker), (1, 0));
    }

    #[test]
    fn cutoff_off_allocates_no_accusers_and_never_cuts() {
        let mut c = SilenceCutoff::new(1000, None, 10);
        assert!(c.accusers.is_none(), "no accuser slots when off");
        assert!(!c.is_on());
        assert!(!c.accuse(0, 5, |_| false));
        assert!(!c.is_cut(5));
        assert_eq!(c.stats(), None);
    }

    #[test]
    fn quorum_slots_count_distinct_accusers_up_to_the_quorum() {
        // Quorum 0 and 1: the first accuser completes it; no slots.
        for q in [0, 1] {
            let mut t = QuorumSlots::new(4, q);
            assert!(t.slots.is_empty());
            assert!(t.record(2, 3));
        }
        let mut t = QuorumSlots::new(5, 3);
        assert_eq!(t.slots.len(), 10, "quorum - 1 slots per node");
        assert!(!t.record(0, 4));
        assert!(!t.record(1, 4), "rows are independent");
        assert!(!t.record(0, 0), "id 0 is a real accuser");
        assert!(!t.record(0, 4));
        assert!(!t.record(0, 0));
        assert!(t.record(0, 2));
        // A quorum above the population can never be reached.
        let mut t = QuorumSlots::new(2, 5);
        assert!(!t.record(0, 0) && !t.record(0, 1));
        assert!(!t.record(0, 1) && !t.record(0, 0));
    }

    #[test]
    fn four_principles_in_order() {
        let all = Principle::all();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0], Principle::NonRandomFailureResilience);
        assert_eq!(all[3], Principle::EncourageAltruism);
    }

    #[test]
    fn display_matches_name() {
        for p in Principle::all() {
            assert_eq!(format!("{p}"), p.name());
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn mechanisms_map_to_principles() {
        assert_eq!(
            Mechanism::Altruism(0.1).principle(),
            Principle::EncourageAltruism
        );
        assert_eq!(
            Mechanism::PushSize(10).principle(),
            Principle::EncourageAltruism
        );
        assert_eq!(
            Mechanism::UnbalancedExchange.principle(),
            Principle::LeverageObedience
        );
        assert_eq!(
            Mechanism::RateLimit(2).principle(),
            Principle::LeverageObedience
        );
        assert_eq!(
            Mechanism::Coding { need: 8 }.principle(),
            Principle::MakeSatiationHard
        );
        assert_eq!(
            Mechanism::ScripIndirection {
                money_per_agent: 2.0
            }
            .principle(),
            Principle::MakeSatiationHard
        );
    }

    #[test]
    fn labels_are_informative() {
        assert!(Mechanism::PushSize(10).label().contains("10"));
        assert!(Mechanism::RateLimit(3).label().contains('3'));
        assert!(Mechanism::ReportAndEvict {
            obedient_fraction: 0.5,
            quorum: 3
        }
        .label()
        .contains("quorum 3"));
    }
}
