//! Simulation parameters (Table 1) and the defense suite.
//!
//! The defaults reproduce Table 1 of the paper exactly:
//!
//! | Parameter            | Value |
//! |----------------------|-------|
//! | Number of Nodes      | 250   |
//! | Updates per Round    | 10    |
//! | Update Lifetime (rds)| 10    |
//! | Copies Seeded        | 12    |
//! | Opt. Push Size (upd) | 2     |
//!
//! plus the evaluation's usability rule (a node finds the stream usable if
//! it receives more than 93 % of updates) and the defense knobs §2 and §4
//! explore (push size, unbalanced exchanges, rate limiting,
//! report-and-evict).

use crate::update::MAX_UPDATES_PER_ROUND;
use lotus_core::digest::BloomIndex;
use lotus_core::faults::FaultPlan;
use lotus_core::population::{ArrivalProcess, ChurnProfile};

/// Report-and-evict defense settings (§4 "leveraging obedience").
///
/// Obedient nodes report peers that hand them excessive service; a quorum
/// of distinct reporters gets the peer evicted, using signed exchange
/// records as evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportConfig {
    /// Fraction of honest nodes that are obedient (follow the reporting
    /// protocol even though reporting is against their interest).
    pub obedient_fraction: f64,
    /// Distinct reporters required to evict a node.
    pub quorum: u32,
    /// How many updates a peer may give beyond what it receives before the
    /// interaction counts as excessive service (1 tolerates the unbalanced
    /// exchange defense).
    pub excess_slack: u32,
}

impl Default for ReportConfig {
    fn default() -> Self {
        ReportConfig {
            obedient_fraction: 0.5,
            quorum: 3,
            excess_slack: 1,
        }
    }
}

/// The defenses in force during a run. [`DefenseSuite::default`] disables
/// all of them (the paper's baseline configuration).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DefenseSuite {
    /// Obedient nodes give one extra update in balanced exchanges when
    /// they receive at least one (Figure 3).
    pub unbalanced_exchanges: bool,
    /// Protocol-enforced cap on useful updates any node may hand a single
    /// peer per interaction (§5 open problem; experiment X9).
    pub rate_limit: Option<u32>,
    /// Report-and-evict excessive service (experiment X8).
    pub report: Option<ReportConfig>,
    /// Silence cut-off: when a present scheduled partner delivers
    /// nothing while the initiator wanted something, the initiator files
    /// a silence strike; this many *distinct* accusers get the partner
    /// cut from the protocol (`None`/0 = off). On a perfect network
    /// silence is always defection and this defense is surgical; under
    /// ambient faults it must trade false positives against letting
    /// masquerading defectors hide — the X19 robustness axis.
    pub cutoff_quorum: Option<u32>,
}

/// Digest-first exchange: peers swap summaries of what they hold, then
/// transfer only the diff (the `bar-gossip-digest` scenario).
///
/// `None` on [`BarGossipConfig::digest`] keeps the classic full-window
/// balanced-exchange + optimistic-push round; `Some` replaces both
/// phases with the two-leg digest round. Bandwidth then scales with the
/// diff — and withholding becomes undetectable until the transfer leg,
/// which is the surface the advertise-then-withhold
/// ([`AttackKind::Poison`](crate::attack::AttackKind::Poison)) attack
/// exploits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigestExchangeConfig {
    /// Bloom filter width in bits (`digest_bits`; also the digest's
    /// on-wire size, `bits/8` bytes per advertisement).
    pub bits: u32,
    /// Bloom probes per update id (`digest_hashes`).
    pub hashes: u32,
    /// Use the exact per-region summary-hash variant instead of the
    /// bloom filter (`digest_exact`): zero false positives, so an
    /// advertised-but-undelivered id is *proof* of withholding and the
    /// digest audit has perfect precision — at the cost of shipping a
    /// region hash per live round plus raw masks for divergent regions.
    pub exact: bool,
    /// Digest-audit defense: the probability the receiver checks each
    /// advertised-but-undelivered id it observes and files a silence
    /// strike on the sender (through the
    /// [`DefenseSuite::cutoff_quorum`] machinery; `0.0` = audit off).
    /// With a bloom digest, false positives make honest senders audit
    /// targets too — the deniability floor the poisoner hides under.
    pub audit: f64,
}

impl Default for DigestExchangeConfig {
    fn default() -> Self {
        DigestExchangeConfig {
            bits: 1024,
            hashes: 4,
            exact: false,
            audit: 0.0,
        }
    }
}

/// Full configuration of a BAR Gossip run.
///
/// Construct via [`BarGossipConfig::builder`]; [`Default`] gives Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct BarGossipConfig {
    /// Total nodes in the system (Table 1: 250).
    pub nodes: u32,
    /// Updates released by the broadcaster each round (Table 1: 10).
    pub updates_per_round: u32,
    /// Rounds an update stays useful after release (Table 1: 10).
    pub update_lifetime: u32,
    /// Nodes each fresh update is seeded to (Table 1: 12).
    pub copies_seeded: u32,
    /// Maximum updates transferred to the responder of an optimistic push
    /// (Table 1: 2; Figure 2 raises it to 10, Figure 3 tries 4).
    pub push_size: u32,
    /// Release rounds measured for delivery (after warm-up).
    pub rounds: u32,
    /// Warm-up release rounds excluded from measurement.
    pub warmup_rounds: u32,
    /// Usability threshold on delivered fraction (paper: 0.93).
    pub usability_threshold: f64,
    /// Minimum age (rounds) for an update to count as "old" — i.e.
    /// expiring soon, requestable through an optimistic push.
    pub old_age: u32,
    /// Maximum age for an update to count as "recently released" — i.e.
    /// offerable in an optimistic push.
    pub recent_age: u32,
    /// Defenses in force.
    pub defenses: DefenseSuite,
    /// Whether trade-attack nodes also accept updates offered back to them
    /// during exchanges (harvesting reciprocation to grow their holdings).
    /// Off by default — the paper's trade attacker forwards what it was
    /// seeded (plus in-protocol attacker-attacker sync); turning this on
    /// strengthens the attack markedly: at Table 1 settings (`fig1`,
    /// 21-point grid, seeds 1–5) the trade curve's break point falls
    /// from 0.137 to 0.095.
    pub attacker_receives: bool,
    /// Maximum incoming interactions an honest node serves per protocol
    /// per round (`None` = unbounded). BAR Gossip bounds per-round
    /// exchanges to limit the damage Byzantine nodes can do; the paper's
    /// §4 discusses this as the trade-opportunity parameter `c`.
    pub responder_cap: Option<u32>,
    /// Population churn: per-round node departure/return rates, possibly
    /// heterogeneous across cohorts (none by default — the paper's
    /// closed population; a uniform
    /// [`ChurnSpec`](lotus_core::population::ChurnSpec) converts to the
    /// degenerate one-class profile). Absent nodes neither initiate nor
    /// respond and receive no seeds, but keep their windows and rejoin
    /// where they left off.
    pub churn: ChurnProfile,
    /// Flash-crowd arrival process: held-back nodes enter with empty
    /// windows at their wave's round, having never gossiped (default:
    /// none). Attacker nodes are never held back — a flash crowd is an
    /// honest-node phenomenon.
    pub arrival: ArrivalProcess,
    /// Fault injection: message loss/duplication/delay, state-losing
    /// crashes and an epoch partition (default:
    /// [`FaultPlan::none`] — the paper's perfect network). Crashed
    /// nodes re-enter cold, with empty windows — unlike churned-out
    /// nodes, which keep their state while absent.
    pub faults: FaultPlan,
    /// Digest-first exchange (default `None`: the classic full-window
    /// round). See [`DigestExchangeConfig`].
    pub digest: Option<DigestExchangeConfig>,
    /// Worker threads for the intra-round exchange-plan phase (`0` =
    /// auto: the `LOTUS_RUN_THREADS` env var if set, else the machine's
    /// available parallelism). Only the fill of the initiator list is
    /// partitioned; shards fold back in ascending order and apply runs
    /// sequentially, so every figure is byte-identical for any value.
    pub run_threads: usize,
}

impl Default for BarGossipConfig {
    fn default() -> Self {
        BarGossipConfig {
            nodes: 250,
            updates_per_round: 10,
            update_lifetime: 10,
            copies_seeded: 12,
            push_size: 2,
            rounds: 40,
            warmup_rounds: 10,
            usability_threshold: 0.93,
            old_age: 2,
            recent_age: 1,
            defenses: DefenseSuite::default(),
            attacker_receives: false,
            responder_cap: Some(2),
            churn: ChurnProfile::none(),
            arrival: ArrivalProcess::None,
            faults: FaultPlan::none(),
            digest: None,
            run_threads: 0,
        }
    }
}

/// Errors from [`BarGossipConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Fewer than three nodes (broadcast gossip needs a population).
    TooFewNodes(u32),
    /// `updates_per_round` outside `1..=64`.
    BadBatch(u32),
    /// `update_lifetime` was zero.
    ZeroLifetime,
    /// `copies_seeded` was zero or exceeded the node count.
    BadSeeding(u32),
    /// `push_size` was zero (the protocol requires pushes to carry data).
    ZeroPushSize,
    /// No measurement rounds.
    ZeroRounds,
    /// Usability threshold outside `(0, 1)`.
    BadThreshold(f64),
    /// `old_age`/`recent_age` incompatible with the lifetime.
    BadAgeBands(String),
    /// Report defense fractions out of range.
    BadReportConfig(String),
    /// Digest exchange parameters out of range.
    BadDigest(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooFewNodes(n) => write!(f, "need at least 3 nodes, got {n}"),
            ConfigError::BadBatch(b) => {
                write!(
                    f,
                    "updates per round must be 1..={MAX_UPDATES_PER_ROUND}, got {b}"
                )
            }
            ConfigError::ZeroLifetime => write!(f, "update lifetime must be positive"),
            ConfigError::BadSeeding(c) => write!(f, "copies seeded {c} out of range"),
            ConfigError::ZeroPushSize => write!(f, "push size must be positive"),
            ConfigError::ZeroRounds => write!(f, "need at least one measured round"),
            ConfigError::BadThreshold(t) => write!(f, "usability threshold {t} outside (0, 1)"),
            ConfigError::BadAgeBands(why) => write!(f, "bad age bands: {why}"),
            ConfigError::BadReportConfig(why) => write!(f, "bad report config: {why}"),
            ConfigError::BadDigest(why) => write!(f, "bad digest config: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl BarGossipConfig {
    /// Start building from the Table 1 defaults.
    pub fn builder() -> BarGossipConfigBuilder {
        BarGossipConfigBuilder {
            cfg: BarGossipConfig::default(),
        }
    }

    /// Check internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes < 3 {
            return Err(ConfigError::TooFewNodes(self.nodes));
        }
        if self.updates_per_round == 0 || self.updates_per_round > MAX_UPDATES_PER_ROUND {
            return Err(ConfigError::BadBatch(self.updates_per_round));
        }
        if self.update_lifetime == 0 {
            return Err(ConfigError::ZeroLifetime);
        }
        if self.copies_seeded == 0 || self.copies_seeded > self.nodes {
            return Err(ConfigError::BadSeeding(self.copies_seeded));
        }
        if self.push_size == 0 {
            return Err(ConfigError::ZeroPushSize);
        }
        if self.rounds == 0 {
            return Err(ConfigError::ZeroRounds);
        }
        if !(self.usability_threshold > 0.0 && self.usability_threshold < 1.0) {
            return Err(ConfigError::BadThreshold(self.usability_threshold));
        }
        if self.old_age >= self.update_lifetime {
            return Err(ConfigError::BadAgeBands(format!(
                "old_age {} must be < lifetime {}",
                self.old_age, self.update_lifetime
            )));
        }
        if self.recent_age >= self.old_age {
            return Err(ConfigError::BadAgeBands(format!(
                "recent_age {} must be < old_age {}",
                self.recent_age, self.old_age
            )));
        }
        if let Some(report) = &self.defenses.report {
            if !(0.0..=1.0).contains(&report.obedient_fraction) {
                return Err(ConfigError::BadReportConfig(format!(
                    "obedient fraction {}",
                    report.obedient_fraction
                )));
            }
            if report.quorum == 0 {
                return Err(ConfigError::BadReportConfig(
                    "quorum must be positive".into(),
                ));
            }
        }
        if let Some(0) = self.defenses.rate_limit {
            return Err(ConfigError::BadReportConfig(
                "rate limit of 0 would forbid all service".into(),
            ));
        }
        if let Some(0) = self.responder_cap {
            return Err(ConfigError::BadReportConfig(
                "responder cap of 0 would forbid all exchanges".into(),
            ));
        }
        if let Some(0) = self.defenses.cutoff_quorum {
            return Err(ConfigError::BadReportConfig(
                "cutoff quorum of 0 would cut every node immediately".into(),
            ));
        }
        if let Some(digest) = &self.digest {
            if digest.bits < 64 || digest.bits > (1 << 24) {
                return Err(ConfigError::BadDigest(format!(
                    "digest bits {} outside 64..=2^24",
                    digest.bits
                )));
            }
            if digest.hashes == 0 || digest.hashes > 16 {
                return Err(ConfigError::BadDigest(format!(
                    "digest hashes {} outside 1..=16",
                    digest.hashes
                )));
            }
            if !(0.0..=1.0).contains(&digest.audit) {
                return Err(ConfigError::BadDigest(format!(
                    "audit rate {} outside [0, 1]",
                    digest.audit
                )));
            }
            // The bloom probe index numbers every (live id, probe) pair of
            // a full window with a `u32`.
            let pairs = u64::from(self.updates_per_round)
                * u64::from(self.update_lifetime)
                * u64::from(digest.hashes);
            if pairs > BloomIndex::MAX_PAIRS as u64 {
                return Err(ConfigError::BadDigest(format!(
                    "{} updates per round × lifetime {} × {} hashes = {pairs} bloom \
                     probe pairs overflow 32-bit pair ids",
                    self.updates_per_round, self.update_lifetime, digest.hashes
                )));
            }
        }
        Ok(())
    }

    /// Total simulated rounds: warm-up + measured + drain (one lifetime so
    /// every measured update expires and gets counted).
    pub fn total_rounds(&self) -> u64 {
        u64::from(self.warmup_rounds) + u64::from(self.rounds) + u64::from(self.update_lifetime)
    }

    /// Whether release round `r` falls in the measurement window.
    pub fn is_measured_round(&self, r: u64) -> bool {
        r >= u64::from(self.warmup_rounds)
            && r < u64::from(self.warmup_rounds) + u64::from(self.rounds)
    }
}

/// Builder for [`BarGossipConfig`] (starts from Table 1 defaults).
#[derive(Debug, Clone)]
pub struct BarGossipConfigBuilder {
    cfg: BarGossipConfig,
}

impl BarGossipConfigBuilder {
    /// Set the node count.
    pub fn nodes(mut self, n: u32) -> Self {
        self.cfg.nodes = n;
        self
    }

    /// Set updates released per round.
    pub fn updates_per_round(mut self, u: u32) -> Self {
        self.cfg.updates_per_round = u;
        self
    }

    /// Set the update lifetime in rounds; re-derives the default age bands
    /// (`old_age = min(2, lifetime - 1)`, `recent_age = min(1, old_age - 1)`).
    pub fn update_lifetime(mut self, l: u32) -> Self {
        self.cfg.update_lifetime = l;
        self.cfg.old_age = 2.min(l.saturating_sub(1)).max(1);
        self.cfg.recent_age = 1.min(self.cfg.old_age.saturating_sub(1));
        self
    }

    /// Set broadcaster seeding copies.
    pub fn copies_seeded(mut self, c: u32) -> Self {
        self.cfg.copies_seeded = c;
        self
    }

    /// Set the optimistic push size.
    pub fn push_size(mut self, p: u32) -> Self {
        self.cfg.push_size = p;
        self
    }

    /// Set the number of measured release rounds.
    pub fn rounds(mut self, r: u32) -> Self {
        self.cfg.rounds = r;
        self
    }

    /// Set the warm-up rounds excluded from measurement.
    pub fn warmup_rounds(mut self, w: u32) -> Self {
        self.cfg.warmup_rounds = w;
        self
    }

    /// Set the usability threshold.
    pub fn usability_threshold(mut self, t: f64) -> Self {
        self.cfg.usability_threshold = t;
        self
    }

    /// Set the defense suite.
    pub fn defenses(mut self, d: DefenseSuite) -> Self {
        self.cfg.defenses = d;
        self
    }

    /// Enable/disable unbalanced exchanges (Figure 3 defense).
    pub fn unbalanced_exchanges(mut self, on: bool) -> Self {
        self.cfg.defenses.unbalanced_exchanges = on;
        self
    }

    /// Set the per-interaction rate limit defense.
    pub fn rate_limit(mut self, cap: Option<u32>) -> Self {
        self.cfg.defenses.rate_limit = cap;
        self
    }

    /// Enable report-and-evict with the given settings.
    pub fn report_defense(mut self, report: ReportConfig) -> Self {
        self.cfg.defenses.report = Some(report);
        self
    }

    /// Enable the silence cut-off defense with the given accuser quorum
    /// (`None` = off).
    pub fn cutoff_quorum(mut self, quorum: Option<u32>) -> Self {
        self.cfg.defenses.cutoff_quorum = quorum;
        self
    }

    /// Whether trade attackers accept updates back (see
    /// [`BarGossipConfig::attacker_receives`]).
    pub fn attacker_receives(mut self, yes: bool) -> Self {
        self.cfg.attacker_receives = yes;
        self
    }

    /// Maximum incoming interactions an honest node serves per protocol
    /// per round (`None` = unbounded).
    pub fn responder_cap(mut self, cap: Option<u32>) -> Self {
        self.cfg.responder_cap = cap;
        self
    }

    /// Population churn profile (default: none; a uniform spec converts
    /// to the one-class profile).
    pub fn churn(mut self, churn: impl Into<ChurnProfile>) -> Self {
        self.cfg.churn = churn.into();
        self
    }

    /// Flash-crowd arrival process (default: none).
    pub fn arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.cfg.arrival = arrival;
        self
    }

    /// Fault-injection plan (default: [`FaultPlan::none`]).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Run the two-leg digest exchange instead of the full-window round
    /// (`None`, the default, restores the classic protocol).
    pub fn digest(mut self, digest: Option<DigestExchangeConfig>) -> Self {
        self.cfg.digest = digest;
        self
    }

    /// Worker threads for the plan phase (`0` = auto; see
    /// [`BarGossipConfig::run_threads`]). Figures never depend on this.
    pub fn run_threads(mut self, threads: usize) -> Self {
        self.cfg.run_threads = threads;
        self
    }

    /// Validate and build.
    ///
    /// # Errors
    ///
    /// Propagates [`BarGossipConfig::validate`] failures.
    pub fn build(self) -> Result<BarGossipConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_table_1() {
        let cfg = BarGossipConfig::default();
        assert_eq!(cfg.nodes, 250);
        assert_eq!(cfg.updates_per_round, 10);
        assert_eq!(cfg.update_lifetime, 10);
        assert_eq!(cfg.copies_seeded, 12);
        assert_eq!(cfg.push_size, 2);
        assert_eq!(cfg.usability_threshold, 0.93);
        assert_eq!(cfg.run_threads, 0, "auto worker count by default");
        assert!(cfg.digest.is_none(), "full-window exchange by default");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn digest_config_validates() {
        let ok = BarGossipConfig::builder()
            .digest(Some(DigestExchangeConfig::default()))
            .build();
        assert!(ok.is_ok());
        for bad in [
            DigestExchangeConfig {
                bits: 32,
                ..Default::default()
            },
            DigestExchangeConfig {
                bits: 1 << 25,
                ..Default::default()
            },
            DigestExchangeConfig {
                hashes: 0,
                ..Default::default()
            },
            DigestExchangeConfig {
                hashes: 17,
                ..Default::default()
            },
            DigestExchangeConfig {
                audit: 1.5,
                ..Default::default()
            },
        ] {
            let err = BarGossipConfig::builder().digest(Some(bad)).build();
            assert!(
                matches!(err, Err(ConfigError::BadDigest(_))),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn builder_round_trips() {
        let cfg = BarGossipConfig::builder()
            .nodes(100)
            .updates_per_round(5)
            .update_lifetime(8)
            .copies_seeded(6)
            .push_size(4)
            .rounds(20)
            .warmup_rounds(5)
            .usability_threshold(0.9)
            .build()
            .unwrap();
        assert_eq!(cfg.nodes, 100);
        assert_eq!(cfg.old_age, 2, "derived from lifetime");
        assert_eq!(cfg.recent_age, 1);
        assert_eq!(cfg.total_rounds(), 5 + 20 + 8);
    }

    #[test]
    fn validation_failures() {
        assert!(matches!(
            BarGossipConfig::builder().nodes(2).build(),
            Err(ConfigError::TooFewNodes(2))
        ));
        assert!(matches!(
            BarGossipConfig::builder().updates_per_round(0).build(),
            Err(ConfigError::BadBatch(0))
        ));
        assert!(matches!(
            BarGossipConfig::builder().updates_per_round(65).build(),
            Err(ConfigError::BadBatch(65))
        ));
        assert!(matches!(
            BarGossipConfig::builder().copies_seeded(0).build(),
            Err(ConfigError::BadSeeding(0))
        ));
        assert!(matches!(
            BarGossipConfig::builder()
                .nodes(10)
                .copies_seeded(11)
                .build(),
            Err(ConfigError::BadSeeding(11))
        ));
        assert!(matches!(
            BarGossipConfig::builder().push_size(0).build(),
            Err(ConfigError::ZeroPushSize)
        ));
        assert!(matches!(
            BarGossipConfig::builder().rounds(0).build(),
            Err(ConfigError::ZeroRounds)
        ));
        assert!(matches!(
            BarGossipConfig::builder().usability_threshold(1.0).build(),
            Err(ConfigError::BadThreshold(_))
        ));
        assert!(matches!(
            BarGossipConfig::builder().rate_limit(Some(0)).build(),
            Err(ConfigError::BadReportConfig(_))
        ));
    }

    #[test]
    fn report_config_validated() {
        let bad = ReportConfig {
            obedient_fraction: 1.5,
            ..ReportConfig::default()
        };
        assert!(matches!(
            BarGossipConfig::builder().report_defense(bad).build(),
            Err(ConfigError::BadReportConfig(_))
        ));
        let zero_quorum = ReportConfig {
            quorum: 0,
            ..ReportConfig::default()
        };
        assert!(matches!(
            BarGossipConfig::builder()
                .report_defense(zero_quorum)
                .build(),
            Err(ConfigError::BadReportConfig(_))
        ));
        let good = ReportConfig::default();
        assert!(BarGossipConfig::builder()
            .report_defense(good)
            .build()
            .is_ok());
    }

    #[test]
    fn age_bands_validated() {
        // lifetime 10 default: old_age must be < lifetime.
        let cfg = BarGossipConfig {
            old_age: 10,
            ..BarGossipConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(ConfigError::BadAgeBands(_))));
        let cfg = BarGossipConfig {
            old_age: 5,
            recent_age: 5,
            ..BarGossipConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(ConfigError::BadAgeBands(_))));
    }

    #[test]
    fn measured_round_window() {
        let cfg = BarGossipConfig::builder()
            .rounds(4)
            .warmup_rounds(2)
            .build()
            .unwrap();
        assert!(!cfg.is_measured_round(1));
        assert!(cfg.is_measured_round(2));
        assert!(cfg.is_measured_round(5));
        assert!(!cfg.is_measured_round(6));
    }

    #[test]
    fn error_display_nonempty() {
        let errors = [
            ConfigError::TooFewNodes(1),
            ConfigError::BadBatch(0),
            ConfigError::ZeroLifetime,
            ConfigError::BadSeeding(0),
            ConfigError::ZeroPushSize,
            ConfigError::ZeroRounds,
            ConfigError::BadThreshold(2.0),
            ConfigError::BadAgeBands("x".into()),
            ConfigError::BadReportConfig("y".into()),
        ];
        for e in errors {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn defense_suite_default_is_off() {
        let d = DefenseSuite::default();
        assert!(!d.unbalanced_exchanges);
        assert!(d.rate_limit.is_none());
        assert!(d.report.is_none());
        assert!(d.cutoff_quorum.is_none());
    }

    #[test]
    fn faults_default_off_and_cutoff_validated() {
        let cfg = BarGossipConfig::default();
        assert!(!cfg.faults.is_active());
        assert!(matches!(
            BarGossipConfig::builder().cutoff_quorum(Some(0)).build(),
            Err(ConfigError::BadReportConfig(_))
        ));
        let cfg = BarGossipConfig::builder()
            .cutoff_quorum(Some(3))
            .faults(FaultPlan::parse("loss:0.1").unwrap())
            .build()
            .unwrap();
        assert_eq!(cfg.defenses.cutoff_quorum, Some(3));
        assert_eq!(cfg.faults.loss, 0.1);
    }
}
