//! The swarm round simulator: choking, piece selection, transfers.
//!
//! Each round:
//!
//! 1. the attacker re-evaluates its target set (top uploaders, rare-piece
//!    holders, or a fixed random set);
//! 2. every active leecher *rechokes*: it unchokes the `slots - 1`
//!    interested peers that recently uploaded the most to it
//!    (tit-for-tat) plus one rotating optimistic unchoke; seeds rotate
//!    random interested peers; attacker peers unchoke only their targets;
//! 3. every unchoked, interested downloader picks one piece from its
//!    uploader (random-first → rarest-first → endgame ladder, or uniform
//!    random in the ablation) and all transfers apply simultaneously —
//!    duplicate receipts are possible and counted (endgame waste);
//! 4. leechers holding every piece complete; they seed for a configured
//!    linger time and then depart.
//!
//! Rarity is computed over active honest peers: attacker peers serve only
//! their targets, so their copies are not really available to the swarm.
//!
//! # Hot-loop invariants
//!
//! The per-round phases are **allocation-free in steady state**: candidate
//! lists, tit-for-tat rankings, rarity counts, piece-selection sets and
//! the transfer list all live in [`Scratch`] buffers owned by the sim
//! struct, cleared and refilled in place (the unchoke lists keep their
//! per-peer `Vec` capacities across rounds). The timing layer
//! (`lotus_core::schedule`, `lotus_core::population`) adds no
//! allocations: schedule stepping is pure arithmetic plus a latch bit,
//! churn flips bits in a persistent membership set, and threshold-trigger
//! observations come from completion flags, not reports. Scratch contents
//! are meaningless between phases, and refactors here must keep reports
//! bit-identical per seed (the determinism and schedule-golden tests are
//! the guardrail).

use crate::attack::{SwarmAttack, TargetPolicy};
use crate::config::{PiecePolicy, SwarmConfig};
use lotus_core::bitset::BitSet;
use lotus_core::envelope::{RoundEnvelope, Shield, Timing};
use lotus_core::faults::{Fate, FaultCounters};
use lotus_core::satiation::Satiable;
use lotus_core::schedule::MetricKey;
use netsim::rng::DetRng;
use netsim::round::RoundSim;
use netsim::{NodeId, Round};

/// Role of a peer in the swarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerRole {
    /// Downloads the file; uploads tit-for-tat.
    Leecher,
    /// Origin seed: holds everything, never leaves.
    Seed,
    /// Attacker peer: holds everything, uploads only to targets.
    Attacker,
}

#[derive(Debug, Clone)]
struct Peer {
    have: BitSet,
    role: PeerRole,
    completed_at: Option<Round>,
    departed: bool,
    uploads: u64,
    targeted: bool,
    ever_targeted: bool,
    optimistic: Option<u32>,
}

/// Final report of a swarm run.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmReport {
    /// Rounds executed.
    pub rounds: Round,
    /// Whether every leecher finished within the horizon.
    pub all_complete: bool,
    /// Completion round per leecher (`None` = unfinished at the horizon).
    pub completion_rounds: Vec<Option<Round>>,
    /// Which leechers the attacker targeted (ever).
    pub targeted: Vec<bool>,
    /// Total pieces uploaded by attacker peers.
    pub attacker_upload: u64,
    /// Total pieces uploaded by honest peers (leechers + seeds).
    pub honest_upload: u64,
    /// Duplicate piece receipts (wasted transfers).
    pub duplicates: u64,
    /// Fault-injection counters, present only when the plan was active
    /// (so fault-free reports stay byte-identical to pre-fault ones).
    pub fault_counters: Option<FaultCounters>,
}

impl SwarmReport {
    fn completion_stats(&self, select_targeted: Option<bool>, horizon: Round) -> Vec<f64> {
        self.completion_rounds
            .iter()
            .zip(&self.targeted)
            .filter(|(_, &t)| select_targeted.is_none_or(|want| t == want))
            .map(|(c, _)| c.unwrap_or(horizon) as f64)
            .collect()
    }

    /// Mean completion round of non-targeted leechers (unfinished count as
    /// the horizon). Returns `None` if there are no such leechers.
    pub fn mean_completion_nontargeted(&self) -> Option<f64> {
        let v = self.completion_stats(Some(false), self.rounds);
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }

    /// Mean completion round of targeted leechers.
    pub fn mean_completion_targeted(&self) -> Option<f64> {
        let v = self.completion_stats(Some(true), self.rounds);
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }

    /// 95th-percentile completion round of non-targeted leechers (the
    /// last-pieces-problem indicator).
    pub fn p95_completion_nontargeted(&self) -> Option<f64> {
        let v = self.completion_stats(Some(false), self.rounds);
        netsim::metrics::quantile_exact(&v, 0.95)
    }

    /// Mean completion round over all leechers.
    pub fn mean_completion(&self) -> f64 {
        let v = self.completion_stats(None, self.rounds);
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }
}

/// Reusable buffers for the allocation-free round loop (see module
/// docs); contents are meaningless between phases.
#[derive(Debug, Clone)]
struct Scratch {
    /// Per-peer unchoke lists; inner `Vec`s keep their capacity.
    unchoked: Vec<Vec<usize>>,
    /// Interested, active candidates of the current peer.
    candidates: Vec<usize>,
    /// Sort/shuffle buffer for choke/unchoke ranking.
    ranked: Vec<usize>,
    /// Candidates outside the regular unchoke slots.
    rest: Vec<usize>,
    /// Active, unfinished leechers (retarget phase).
    leechers: Vec<usize>,
    /// The attacker's chosen targets this round.
    chosen: Vec<usize>,
    /// Piece indices ordered by rarity (rare-piece targeting).
    order: Vec<usize>,
    /// Holder counts per piece.
    rarity: Vec<u32>,
    /// `(uploader, downloader, piece)` transfers of the round.
    transfers: Vec<(usize, usize, usize)>,
    /// Pieces the uploader has that the downloader lacks.
    needs: BitSet,
    needed: Vec<usize>,
    rarest: Vec<usize>,
}

impl Scratch {
    fn new(pieces: usize) -> Self {
        Scratch {
            unchoked: Vec::new(),
            candidates: Vec::new(),
            ranked: Vec::new(),
            rest: Vec::new(),
            leechers: Vec::new(),
            chosen: Vec::new(),
            order: Vec::new(),
            rarity: Vec::new(),
            transfers: Vec::new(),
            needs: BitSet::new(pieces),
            needed: Vec::new(),
            rarest: Vec::new(),
        }
    }
}

/// The swarm simulator.
///
/// ```
/// use lotus_core::scenario::run;
/// use torrent_sim::{SwarmAttack, SwarmConfig, SwarmSim};
///
/// let cfg = SwarmConfig::builder()
///     .leechers(20)
///     .pieces(32)
///     .build()?;
/// let report = run::<SwarmSim>(cfg, SwarmAttack::none(), 7);
/// assert!(report.all_complete, "healthy swarm finishes");
/// # Ok::<(), torrent_sim::config::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SwarmSim {
    cfg: SwarmConfig,
    attack: SwarmAttack,
    peers: Vec<Peer>,
    /// credit[i][j]: EMA of pieces peer j uploaded to peer i.
    credit: Vec<Vec<f64>>,
    rng: DetRng,
    round: Round,
    duplicates: u64,
    fixed_targets: Vec<usize>,
    /// Leecher churn, faults (lost/duplicated transfers, leecher
    /// crashes, the partition) and attack timing — while the schedule
    /// has the attack off, attacker peers seed like ordinary seeds (the
    /// cooperate phase). Seeds and attacker peers never leave or crash.
    env: RoundEnvelope,
    scratch: Scratch,
}

impl SwarmSim {
    /// Build a simulator, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation (use the builder, which validates).
    pub fn new(cfg: SwarmConfig, attack: SwarmAttack, seed: u64) -> Self {
        cfg.validate().expect("invalid SwarmConfig");
        let rng = DetRng::seed_from(seed).fork("swarm");
        let n = (cfg.leechers + cfg.seeds + attack.attacker_peers) as usize;
        let peers: Vec<Peer> = (0..n)
            .map(|i| {
                let role = if i < cfg.leechers as usize {
                    PeerRole::Leecher
                } else if i < (cfg.leechers + cfg.seeds) as usize {
                    PeerRole::Seed
                } else {
                    PeerRole::Attacker
                };
                Peer {
                    have: if role == PeerRole::Leecher {
                        BitSet::new(cfg.pieces as usize)
                    } else {
                        BitSet::full(cfg.pieces as usize)
                    },
                    role,
                    completed_at: None,
                    departed: false,
                    uploads: 0,
                    targeted: false,
                    ever_targeted: false,
                    optimistic: None,
                }
            })
            .collect();
        let fixed_targets = if attack.is_active() && attack.target_policy == TargetPolicy::Random {
            let count = attack.target_count(cfg.leechers) as usize;
            rng.fork("targets")
                .sample_indices(cfg.leechers as usize, count)
        } else {
            Vec::new()
        };
        // Non-leechers never leave and never crash: the origin seed's
        // copy must survive, and the attacker's infrastructure is assumed
        // reliable. Flash-crowd leechers are withdrawn now (index-ordered,
        // no randomness) and join with no pieces at their wave's round.
        let timing = Timing {
            churn: cfg.churn,
            arrival: cfg.arrival,
            faults: cfg.faults,
            schedule: attack.schedule,
        };
        let env = RoundEnvelope::new(n, timing, &rng, false, |i| {
            if peers[i].role == PeerRole::Leecher {
                Shield::None
            } else {
                Shield::Full
            }
        });
        SwarmSim {
            credit: vec![vec![0.0; n]; n],
            scratch: Scratch::new(cfg.pieces as usize),
            env,
            cfg,
            attack,
            peers,
            rng,
            round: 0,
            duplicates: 0,
            fixed_targets,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SwarmConfig {
        &self.cfg
    }

    /// Whether `peer` has the whole file.
    pub fn is_complete(&self, peer: NodeId) -> bool {
        self.peers[peer.index()].have.is_full()
    }

    /// Whether `peer` has left the swarm.
    pub fn is_departed(&self, peer: NodeId) -> bool {
        self.peers[peer.index()].departed
    }

    /// Whether every leecher has completed.
    pub fn all_leechers_complete(&self) -> bool {
        self.peers
            .iter()
            .filter(|p| p.role == PeerRole::Leecher)
            .all(|p| p.completed_at.is_some())
    }

    fn active(&self, i: usize) -> bool {
        !self.peers[i].departed && self.env.is_up(i)
    }

    /// Canonical-metric observation for metric-threshold schedules,
    /// computed from the leechers' completion flags (no allocation).
    /// Unlike the gossip substrates' expiry-measured delivery, the
    /// completion fraction is genuine data from round 0 (nobody has
    /// finished yet), so this always observes.
    fn completion_observation(leechers: &[Peer], key: MetricKey) -> Option<f64> {
        let mut done = [0u32; 2];
        let mut count = [0u32; 2];
        for peer in leechers {
            let ti = usize::from(peer.ever_targeted);
            count[ti] += 1;
            if peer.completed_at.is_some() {
                done[ti] += 1;
            }
        }
        let frac = |d: u32, c: u32| {
            if c == 0 {
                0.0
            } else {
                f64::from(d) / f64::from(c)
            }
        };
        let overall = if count[0] > 0 {
            frac(done[0], count[0])
        } else {
            frac(done[1], count[1])
        };
        Some(match key {
            MetricKey::OverallDelivery => overall,
            MetricKey::TargetedService => {
                if count[1] == 0 {
                    overall
                } else {
                    frac(done[1], count[1])
                }
            }
            // Presence is the envelope's to answer, and the swarm has no
            // silence cut-off defense to report.
            MetricKey::PresentFraction | MetricKey::FalseCutRate => return None,
        })
    }

    /// `j` wants something `i` has: `i` holds a piece `j` lacks.
    fn interested(&self, j: usize, i: usize) -> bool {
        self.peers[i].have.difference_count(&self.peers[j].have) > 0
    }

    /// Holder counts per piece over active honest peers, into a reusable
    /// buffer.
    fn rarity_into(&self, counts: &mut Vec<u32>) {
        counts.clear();
        counts.resize(self.cfg.pieces as usize, 0);
        for (i, peer) in self.peers.iter().enumerate() {
            if !self.active(i) || peer.role == PeerRole::Attacker {
                continue;
            }
            for piece in peer.have.iter() {
                counts[piece] += 1;
            }
        }
    }

    /// Phase 1: the attacker picks its targets for this round (none
    /// while the schedule has the attack off).
    fn retarget(&mut self) {
        if !self.attack.is_active() {
            return;
        }
        for peer in self.peers.iter_mut() {
            peer.targeted = false;
        }
        if !self.env.attack_active() {
            return;
        }
        let count = self.attack.target_count(self.cfg.leechers) as usize;
        let mut leechers = std::mem::take(&mut self.scratch.leechers);
        leechers.clear();
        leechers.extend(
            (0..self.cfg.leechers as usize)
                .filter(|&i| self.active(i) && self.peers[i].completed_at.is_none()),
        );
        let mut chosen = std::mem::take(&mut self.scratch.chosen);
        chosen.clear();
        match self.attack.target_policy {
            TargetPolicy::Random => {
                chosen.extend(
                    self.fixed_targets
                        .iter()
                        .copied()
                        .filter(|&i| self.active(i)),
                );
            }
            TargetPolicy::TopUploaders => {
                let by_upload = &mut self.scratch.ranked;
                by_upload.clear();
                by_upload.extend_from_slice(&leechers);
                let peers = &self.peers;
                by_upload.sort_by_key(|&i| std::cmp::Reverse(peers[i].uploads));
                chosen.extend(by_upload.iter().copied().take(count));
            }
            TargetPolicy::RarePieceHolders => {
                // Pieces ascending by holder count; target current holders.
                let mut counts = std::mem::take(&mut self.scratch.rarity);
                self.rarity_into(&mut counts);
                let order = &mut self.scratch.order;
                order.clear();
                order.extend(0..counts.len());
                order.sort_by_key(|&p| counts[p]);
                'outer: for &p in order.iter() {
                    for &i in &leechers {
                        if self.peers[i].have.contains(p) && !chosen.contains(&i) {
                            chosen.push(i);
                            if chosen.len() == count {
                                break 'outer;
                            }
                        }
                    }
                }
                self.scratch.rarity = counts;
            }
        }
        for &i in &chosen {
            self.peers[i].targeted = true;
            self.peers[i].ever_targeted = true;
        }
        self.scratch.leechers = leechers;
        self.scratch.chosen = chosen;
    }

    /// Phase 2: compute unchoke lists for every active peer, into the
    /// reusable per-peer buffers.
    fn rechoke(&mut self, t: Round, unchoked: &mut Vec<Vec<usize>>) {
        let n = self.peers.len();
        if unchoked.len() != n {
            unchoked.resize_with(n, Vec::new);
        }
        let mut rng = self.rng.fork_idx("rechoke", t);
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        let mut ranked = std::mem::take(&mut self.scratch.ranked);
        let mut rest = std::mem::take(&mut self.scratch.rest);
        #[allow(clippy::needless_range_loop)] // i indexes peers and unchoked alike
        for i in 0..n {
            unchoked[i].clear();
            if !self.active(i) {
                continue;
            }
            candidates.clear();
            candidates
                .extend((0..n).filter(|&j| j != i && self.active(j) && self.interested(j, i)));
            if candidates.is_empty() {
                continue;
            }
            // A cooperating (schedule-off) attacker seeds like an
            // ordinary seed instead of serving only its targets.
            let role = if self.peers[i].role == PeerRole::Attacker && !self.env.attack_active() {
                PeerRole::Seed
            } else {
                self.peers[i].role
            };
            match role {
                PeerRole::Attacker => {
                    // Upload only to targets, as many slots as configured.
                    ranked.clear();
                    ranked.extend(
                        candidates
                            .iter()
                            .copied()
                            .filter(|&j| self.peers[j].targeted),
                    );
                    rng.shuffle(&mut ranked);
                    ranked.truncate(self.attack.attacker_slots as usize);
                    unchoked[i].extend_from_slice(&ranked);
                }
                PeerRole::Seed => {
                    // Seeds (and lingering completed leechers) rotate
                    // random interested peers.
                    ranked.clear();
                    ranked.extend_from_slice(&candidates);
                    rng.shuffle(&mut ranked);
                    ranked.truncate(self.cfg.unchoke_slots as usize);
                    unchoked[i].extend_from_slice(&ranked);
                }
                PeerRole::Leecher => {
                    if self.peers[i].completed_at.is_some() {
                        // Completed leecher seeds while it lingers.
                        ranked.clear();
                        ranked.extend_from_slice(&candidates);
                        rng.shuffle(&mut ranked);
                        ranked.truncate(self.cfg.unchoke_slots as usize);
                        unchoked[i].extend_from_slice(&ranked);
                        continue;
                    }
                    // Tit-for-tat: top (slots-1) by recent upload credit,
                    // ranked in a reusable buffer instead of a clone.
                    let regular_slots = (self.cfg.unchoke_slots as usize).saturating_sub(1);
                    ranked.clear();
                    ranked.extend_from_slice(&candidates);
                    let credit = &self.credit[i];
                    // Stable, deterministic tie-break by index.
                    ranked.sort_by(|&a, &b| {
                        credit[b]
                            .partial_cmp(&credit[a])
                            .expect("credit values are never NaN")
                            .then(a.cmp(&b))
                    });
                    ranked.truncate(regular_slots);
                    let regular: &[usize] = &ranked;
                    // Optimistic unchoke: rotate periodically among the rest.
                    rest.clear();
                    rest.extend(candidates.iter().copied().filter(|j| !regular.contains(j)));
                    let rotate = t.is_multiple_of(u64::from(self.cfg.optimistic_period));
                    let current = self.peers[i].optimistic;
                    let keep = current.and_then(|c| {
                        let c = c as usize;
                        if !rotate && rest.contains(&c) {
                            Some(c)
                        } else {
                            None
                        }
                    });
                    let optimistic = keep.or_else(|| rng.choose(&rest).copied());
                    self.peers[i].optimistic = optimistic.map(|o| o as u32);
                    unchoked[i].extend_from_slice(regular);
                    if let Some(o) = optimistic {
                        unchoked[i].push(o);
                    }
                }
            }
        }
        self.scratch.candidates = candidates;
        self.scratch.ranked = ranked;
        self.scratch.rest = rest;
    }

    /// The downloader `j` selects a piece to fetch from `i`, using the
    /// caller's scratch buffers.
    #[allow(clippy::too_many_arguments)] // the scratch buffers are one logical group
    fn select_piece(
        &self,
        j: usize,
        i: usize,
        rarity: &[u32],
        rng: &mut DetRng,
        needs: &mut BitSet,
        needed: &mut Vec<usize>,
        rarest: &mut Vec<usize>,
    ) -> Option<usize> {
        needs.copy_from(&self.peers[i].have);
        needs.subtract(&self.peers[j].have);
        needed.clear();
        needed.extend(needs.iter());
        if needed.is_empty() {
            return None;
        }
        let missing = self.cfg.pieces as usize - self.peers[j].have.len();
        let random_pick = match self.cfg.piece_policy {
            PiecePolicy::Random => true,
            PiecePolicy::RarestFirst => {
                self.peers[j].have.len() < self.cfg.random_first as usize
                    || missing <= self.cfg.endgame_threshold as usize
            }
        };
        if random_pick {
            return rng.choose(needed).copied();
        }
        let min_count = needed.iter().map(|&p| rarity[p]).min().expect("non-empty");
        rarest.clear();
        rarest.extend(needed.iter().copied().filter(|&p| rarity[p] == min_count));
        rng.choose(rarest).copied()
    }

    /// Phase 3: all transfers for the round, applied simultaneously.
    fn transfer_phase(&mut self, t: Round, unchoked: &[Vec<usize>]) {
        let mut rarity = std::mem::take(&mut self.scratch.rarity);
        self.rarity_into(&mut rarity);
        let mut rng = self.rng.fork_idx("transfers", t);
        let mut transfers = std::mem::take(&mut self.scratch.transfers);
        transfers.clear();
        let mut needs = std::mem::replace(&mut self.scratch.needs, BitSet::new(0));
        let mut needed = std::mem::take(&mut self.scratch.needed);
        let mut rarest = std::mem::take(&mut self.scratch.rarest);
        for (i, downloaders) in unchoked.iter().enumerate() {
            for &j in downloaders {
                // The partition blocks cross-cell transfers outright;
                // on a live link each transfer then draws its fate. A
                // dropped piece costs the uploader its slot for nothing;
                // a duplicated one arrives twice (counted as endgame-style
                // waste — receivers are idempotent).
                if !self.env.faults_mut().link_ok(i, j) {
                    continue;
                }
                if let Some(p) = self.select_piece(
                    j,
                    i,
                    &rarity,
                    &mut rng,
                    &mut needs,
                    &mut needed,
                    &mut rarest,
                ) {
                    match self.env.faults_mut().fate(i, j) {
                        Fate::Drop => {}
                        Fate::Duplicate => {
                            self.duplicates += 1;
                            transfers.push((i, j, p));
                        }
                        Fate::Deliver => transfers.push((i, j, p)),
                    }
                }
            }
        }
        // Decay reciprocity credit before crediting this round.
        for row in self.credit.iter_mut() {
            for c in row.iter_mut() {
                *c *= 0.5;
            }
        }
        for &(i, j, p) in &transfers {
            self.peers[i].uploads += 1;
            if self.peers[j].have.insert(p) {
                self.credit[j][i] += 1.0;
            } else {
                self.duplicates += 1;
            }
        }
        self.scratch.rarity = rarity;
        self.scratch.transfers = transfers;
        self.scratch.needs = needs;
        self.scratch.needed = needed;
        self.scratch.rarest = rarest;
    }

    /// Phase 4: completions and departures.
    fn lifecycle_phase(&mut self, t: Round) {
        for peer in self.peers.iter_mut() {
            if peer.role != PeerRole::Leecher || peer.departed {
                continue;
            }
            if peer.completed_at.is_none() && peer.have.is_full() {
                peer.completed_at = Some(t);
            }
            if let Some(done) = peer.completed_at {
                if t >= done + u64::from(self.cfg.seed_after_completion) {
                    peer.departed = true;
                }
            }
        }
    }

    /// Snapshot the report so far.
    pub fn report(&self) -> SwarmReport {
        let leechers = self.cfg.leechers as usize;
        SwarmReport {
            rounds: self.round,
            all_complete: self.all_leechers_complete(),
            completion_rounds: self.peers[..leechers]
                .iter()
                .map(|p| p.completed_at)
                .collect(),
            targeted: self.peers[..leechers]
                .iter()
                .map(|p| p.ever_targeted)
                .collect(),
            attacker_upload: self
                .peers
                .iter()
                .filter(|p| p.role == PeerRole::Attacker)
                .map(|p| p.uploads)
                .sum(),
            honest_upload: self
                .peers
                .iter()
                .filter(|p| p.role != PeerRole::Attacker)
                .map(|p| p.uploads)
                .sum(),
            duplicates: self.duplicates,
            fault_counters: self.env.fault_counters(),
        }
    }
}

impl RoundSim for SwarmSim {
    // lint: hot-loop
    fn round(&mut self, t: Round) {
        debug_assert_eq!(t, self.round, "rounds must be sequential");
        let leechers = &self.peers[..self.cfg.leechers as usize];
        self.env
            .begin_round(t, &[], |key, _| Self::completion_observation(leechers, key));
        if !self.env.faults().just_crashed().is_empty() {
            // State-losing crash: unlike a churned-out leecher, which
            // resumes where it left off, a crashed leecher loses its
            // pieces, its reciprocity memory and its optimistic pick and
            // re-downloads from scratch. A past completion stays on
            // record (the download did finish); only non-leechers are
            // exempt, so the file itself survives on the origin seed.
            for i in 0..self.peers.len() {
                if self.env.faults().just_crashed().contains(i) {
                    self.peers[i].have.clear();
                    self.peers[i].optimistic = None;
                    for c in self.credit[i].iter_mut() {
                        *c = 0.0;
                    }
                }
            }
        }
        // Early lifecycle pass: peers satiated between rounds (e.g. fed by
        // the Observation 3.1 harness) complete — and depart, if they do
        // not linger — before they could serve anyone.
        self.lifecycle_phase(t);
        self.retarget();
        let mut unchoked = std::mem::take(&mut self.scratch.unchoked);
        self.rechoke(t, &mut unchoked);
        self.transfer_phase(t, &unchoked);
        self.scratch.unchoked = unchoked;
        self.lifecycle_phase(t);
        self.round = t + 1;
    }

    fn rounds_run(&self) -> Round {
        self.round
    }
}

impl lotus_core::scenario::Scenario for SwarmSim {
    type Config = SwarmConfig;
    type Attack = SwarmAttack;
    type Report = SwarmReport;
    const NAME: &'static str = "bittorrent";

    fn build(cfg: SwarmConfig, attack: SwarmAttack, seed: u64) -> Self {
        SwarmSim::new(cfg, attack, seed)
    }

    fn step(&mut self) -> lotus_core::scenario::StepOutcome {
        let done = |s: &Self| s.round >= s.cfg.max_rounds || s.all_leechers_complete();
        if done(self) {
            return lotus_core::scenario::StepOutcome::Done;
        }
        let t = self.round;
        RoundSim::round(self, t);
        if done(self) {
            lotus_core::scenario::StepOutcome::Done
        } else {
            lotus_core::scenario::StepOutcome::Continue
        }
    }

    fn report(&self) -> SwarmReport {
        SwarmSim::report(self)
    }

    fn arm_trace(&self) -> Option<&[lotus_core::adaptive::TraceEntry]> {
        self.env.schedule().arm_trace()
    }
}

impl lotus_core::scenario::Summarize for SwarmReport {
    /// Common vocabulary for the swarm:
    ///
    /// * `overall_delivery` — fraction of non-targeted leechers that
    ///   completed within the horizon (the population a lotus-eater
    ///   tries to starve);
    /// * `targeted_service` — completion fraction of targeted leechers;
    /// * `usable` — every leecher finished.
    fn summarize(&self) -> lotus_core::scenario::ScenarioReport {
        let completed = |want: Option<bool>| -> Option<f64> {
            let v: Vec<bool> = self
                .completion_rounds
                .iter()
                .zip(&self.targeted)
                .filter(|(_, &t)| want.is_none_or(|w| t == w))
                .map(|(c, _)| c.is_some())
                .collect();
            if v.is_empty() {
                None
            } else {
                Some(v.iter().filter(|&&c| c).count() as f64 / v.len() as f64)
            }
        };
        let overall = completed(Some(false))
            .or_else(|| completed(None))
            .unwrap_or(1.0);
        let targeted = completed(Some(true)).unwrap_or(overall);
        // The completion metrics are always present so sweeps that cross
        // the no-attack point (no targeted leechers) stay total: absent
        // populations fall back exactly as the legacy experiments did —
        // non-targeted to the overall mean, targeted to the non-targeted
        // value, p95 to the horizon.
        let nontargeted = self
            .mean_completion_nontargeted()
            .unwrap_or_else(|| self.mean_completion());
        lotus_core::scenario::ScenarioReport::new(
            "bittorrent",
            self.rounds,
            overall,
            targeted,
            self.all_complete,
        )
        .with_metric("mean_completion", self.mean_completion())
        .with_metric("mean_completion_nontargeted", nontargeted)
        .with_metric(
            "mean_completion_targeted",
            self.mean_completion_targeted().unwrap_or(nontargeted),
        )
        .with_metric(
            "p95_completion_nontargeted",
            self.p95_completion_nontargeted()
                .unwrap_or(self.rounds as f64),
        )
        .with_metric("attacker_upload", self.attacker_upload as f64)
        .with_metric("honest_upload", self.honest_upload as f64)
        .with_metric("duplicates", self.duplicates as f64)
        .with_fault_counters(self.fault_counters)
    }
}

impl lotus_core::satiation::Feedable for SwarmSim {
    /// Give the peer the complete file instantly.
    fn feed_fully(&mut self, node: NodeId) {
        let pieces = self.cfg.pieces as usize;
        self.peers[node.index()].have = BitSet::full(pieces);
    }
}

impl Satiable for SwarmSim {
    fn node_count(&self) -> u32 {
        self.peers.len() as u32
    }

    /// A peer is satiated once it holds the complete file.
    fn is_satiated(&self, node: NodeId) -> bool {
        self.peers[node.index()].have.is_full()
    }

    fn service_provided(&self, node: NodeId) -> u64 {
        self.peers[node.index()].uploads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_core::scenario::run;

    fn quick_cfg() -> SwarmConfig {
        SwarmConfig::builder()
            .leechers(25)
            .seeds(1)
            .pieces(32)
            .max_rounds(800)
            .build()
            .unwrap()
    }

    #[test]
    fn healthy_swarm_completes() {
        let report = run::<SwarmSim>(quick_cfg(), SwarmAttack::none(), 1);
        assert!(
            report.all_complete,
            "swarm stuck after {} rounds",
            report.rounds
        );
        assert!(report.completion_rounds.iter().all(|c| c.is_some()));
        assert_eq!(report.attacker_upload, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run::<SwarmSim>(quick_cfg(), SwarmAttack::none(), 3);
        let b = run::<SwarmSim>(quick_cfg(), SwarmAttack::none(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn targets_complete_earlier() {
        let attack = SwarmAttack::satiate(3, 8, 0.3, TargetPolicy::Random);
        let report = run::<SwarmSim>(quick_cfg(), attack, 5);
        assert!(report.all_complete);
        let t = report.mean_completion_targeted().expect("targets exist");
        let nt = report
            .mean_completion_nontargeted()
            .expect("non-targets exist");
        assert!(
            t < nt,
            "satiated targets finish earlier: targeted {t} vs non-targeted {nt}"
        );
        assert!(report.attacker_upload > 0, "generosity costs bandwidth");
    }

    #[test]
    fn attack_does_modest_damage_to_nontargets() {
        // The paper's §1 claim: satiating BitTorrent leechers is "often
        // actually a net benefit to the torrent". Non-targeted completion
        // should not collapse the way BAR Gossip isolated delivery does.
        let clean = run::<SwarmSim>(quick_cfg(), SwarmAttack::none(), 7);
        let attack = SwarmAttack::satiate(5, 8, 0.4, TargetPolicy::TopUploaders);
        let attacked = run::<SwarmSim>(quick_cfg(), attack, 7);
        assert!(attacked.all_complete, "swarm still finishes under attack");
        let clean_mean = clean.mean_completion();
        // TopUploaders rotates across the population as targets finish, so
        // judge the swarm as a whole (non-targeted leechers may not exist).
        let attacked_mean = attacked
            .mean_completion_nontargeted()
            .unwrap_or_else(|| attacked.mean_completion());
        assert!(
            attacked_mean < clean_mean * 2.0,
            "damage stays modest: attacked {attacked_mean} vs clean {clean_mean}"
        );
    }

    #[test]
    fn rarest_first_beats_random_selection() {
        // Rarest-first equalises piece availability; random selection
        // leaves a heavier completion tail.
        let mut rare_cfg = quick_cfg();
        rare_cfg.piece_policy = PiecePolicy::RarestFirst;
        let mut rand_cfg = quick_cfg();
        rand_cfg.piece_policy = PiecePolicy::Random;
        let mut rare_sum = 0.0;
        let mut rand_sum = 0.0;
        for seed in 1..=3 {
            rare_sum +=
                run::<SwarmSim>(rare_cfg.clone(), SwarmAttack::none(), seed).mean_completion();
            rand_sum +=
                run::<SwarmSim>(rand_cfg.clone(), SwarmAttack::none(), seed).mean_completion();
        }
        assert!(
            rare_sum <= rand_sum * 1.1,
            "rarest-first should not be slower: {rare_sum} vs {rand_sum}"
        );
    }

    #[test]
    fn seeding_after_completion_helps() {
        let mut linger = quick_cfg();
        linger.seed_after_completion = 50;
        let with_seeding = run::<SwarmSim>(linger, SwarmAttack::none(), 9);
        let without = run::<SwarmSim>(quick_cfg(), SwarmAttack::none(), 9);
        assert!(
            with_seeding.mean_completion() <= without.mean_completion(),
            "lingering seeds speed the tail: {} vs {}",
            with_seeding.mean_completion(),
            without.mean_completion()
        );
    }

    #[test]
    fn satiable_interface() {
        let mut sim = SwarmSim::new(quick_cfg(), SwarmAttack::none(), 1);
        // The origin seed is satiated from the start and still serves:
        // BitTorrent's seeding is exactly the altruism defense.
        let seed_id = NodeId(25);
        assert!(sim.is_satiated(seed_id));
        for t in 0..30 {
            sim.round(t);
        }
        assert!(
            sim.service_provided(seed_id) > 0,
            "seed serves while satiated"
        );
    }

    #[test]
    fn rare_piece_targeting_picks_holders() {
        let mut sim = SwarmSim::new(
            quick_cfg(),
            SwarmAttack::satiate(2, 4, 0.2, TargetPolicy::RarePieceHolders),
            11,
        );
        for t in 0..10 {
            sim.round(t);
        }
        let targeted: Vec<usize> = (0..25).filter(|&i| sim.peers[i].targeted).collect();
        assert!(!targeted.is_empty(), "targets exist once pieces spread");
    }

    #[test]
    fn zero_rate_fault_plan_is_report_invisible() {
        use lotus_core::faults::FaultPlan;
        let mut zeroed = quick_cfg();
        zeroed.faults = FaultPlan::parse("loss:0/dup:0/crash:0:0.5/partition:10:5:0").unwrap();
        let a = run::<SwarmSim>(quick_cfg(), SwarmAttack::none(), 31);
        let b = run::<SwarmSim>(zeroed, SwarmAttack::none(), 31);
        assert_eq!(a, b, "zero-rate plans must be byte-invisible");
        assert!(b.fault_counters.is_none());
    }

    #[test]
    fn loss_slows_the_swarm() {
        use lotus_core::faults::FaultPlan;
        let clean = run::<SwarmSim>(quick_cfg(), SwarmAttack::none(), 32);
        let mut cfg = quick_cfg();
        cfg.faults = FaultPlan::parse("loss:0.3").unwrap();
        let lossy = run::<SwarmSim>(cfg, SwarmAttack::none(), 32);
        let fc = lossy.fault_counters.expect("plan was active");
        assert!(fc.dropped > 0, "losses happened");
        assert!(
            lossy.mean_completion() > clean.mean_completion() * 1.2,
            "30% loss slows completion: {} vs {}",
            lossy.mean_completion(),
            clean.mean_completion()
        );
    }

    #[test]
    fn crashed_leechers_lose_pieces_but_seeds_survive() {
        use lotus_core::faults::FaultPlan;
        let mut cfg = quick_cfg();
        cfg.max_rounds = 2_000;
        cfg.faults = FaultPlan::parse("crash:0.01:0.3").unwrap();
        let mut sim = SwarmSim::new(cfg, SwarmAttack::none(), 33);
        let mut saw_wipe = false;
        for t in 0..400 {
            sim.round(t);
            for i in 0..25 {
                if sim.env.faults().just_crashed().contains(i) && sim.peers[i].have.is_empty() {
                    saw_wipe = true;
                }
            }
            // The origin seed is crash-exempt: the file always survives.
            assert!(sim.peers[25].have.is_full());
            assert!(!sim.env.faults().is_down(25));
        }
        assert!(saw_wipe, "some leecher crashed with pieces wiped");
    }

    #[test]
    fn duplicate_faults_surface_in_the_waste_counter() {
        use lotus_core::faults::FaultPlan;
        let clean = run::<SwarmSim>(quick_cfg(), SwarmAttack::none(), 34);
        let mut cfg = quick_cfg();
        cfg.faults = FaultPlan::parse("dup:0.3").unwrap();
        let dupy = run::<SwarmSim>(cfg, SwarmAttack::none(), 34);
        assert!(
            dupy.duplicates > clean.duplicates,
            "duplicated transfers count as waste: {} vs {}",
            dupy.duplicates,
            clean.duplicates
        );
        assert!(dupy.fault_counters.expect("active").duplicated > 0);
    }

    #[test]
    fn interested_semantics() {
        let sim = SwarmSim::new(quick_cfg(), SwarmAttack::none(), 1);
        // Leecher 0 (empty) is interested in the seed, not vice versa.
        assert!(sim.interested(0, 25));
        assert!(!sim.interested(25, 0));
    }
}
