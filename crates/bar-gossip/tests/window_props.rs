//! Property tests for the packed windows ([`WindowSlab`] rows and
//! [`WindowSet`]s) against an independent per-round reference model, on
//! the dependency-free [`proptest_lite`](lotus_core::proptest_lite)
//! harness.
//!
//! Slab rows and `WindowSet`s share one packed implementation, so
//! comparing them with each other would prove nothing about it. Both are
//! checked instead against [`Model`]: the plain layout of one `u64`
//! slot mask per live round, written out here in a few lines.
//!
//! Each case draws a window shape (lifetime 1–16; 1–64 updates per
//! round, with the full 64-slot batch and 10-slot batches — whose rounds
//! straddle word boundaries — drawn often), a handful of rows with
//! their join rounds, and a random sequence of `insert`, `union_with`,
//! `sync`, `clear` and `advance`. A row that joins late is a fresh zero
//! row — never shifted while outside, exactly as the simulators leave a
//! disengaged node's row — and its `WindowSet` and model are advanced
//! while empty to the same round. After every round all three must agree
//! on every expired mask, every `mask`, `masks()`, `iter()`, `len`, and
//! every read a simulator makes: `missing_from`, `wanted_from_into`
//! (random limits and age bands) and `missing_in_age_band`.
//!
//!
//! The same rounds check the exchange layer's row kernels on slab rows:
//! the per-round band masks ([`WindowSlab::band_into`]) against the
//! model's live ids of each age band, and the balanced-exchange, push and
//! push-initiation kernels, fed those bands, against the model's
//! transfers. The view-based entries (`balanced_exchange_into`,
//! `optimistic_push_into`) are checked on the `WindowSet`s.
//!
//! A second property pins the mask kernel every exchange moves updates
//! with — `wanted_from_into` and `WindowSlab::union_words` — against a
//! scalar model that keeps each window as a sorted id list.

use bar_gossip::exchange::{
    balanced_exchange_into, balanced_rows, optimistic_push_into, push_rows, wants_push_row,
    BalancedOutcome, PushOutcome,
};
use bar_gossip::update::{UpdateId, WindowSet, WindowSlab, WindowView};
use lotus_core::proptest_lite::{check, Draw};
use netsim::Round;

/// The reference window: one slot mask per live round, oldest first.
#[derive(Clone, Debug)]
struct Model {
    masks: Vec<u64>,
    start: Round,
    lifetime: usize,
}

impl Model {
    fn new(lifetime: u32) -> Self {
        Model {
            masks: Vec::new(),
            start: 0,
            lifetime: lifetime as usize,
        }
    }

    /// Open the next round; the expired round and its mask, if any.
    fn advance(&mut self) -> Option<(Round, u64)> {
        self.masks.push(0);
        if self.masks.len() <= self.lifetime {
            return None;
        }
        self.start += 1;
        Some((self.start - 1, self.masks.remove(0)))
    }

    fn mask(&self, round: Round) -> Option<u64> {
        let i = round.checked_sub(self.start)?;
        self.masks.get(i as usize).copied()
    }

    fn contains(&self, id: UpdateId) -> bool {
        self.mask(id.round).is_some_and(|m| m >> id.slot & 1 == 1)
    }

    fn insert(&mut self, id: UpdateId) -> bool {
        let Some(held) = self.mask(id.round) else {
            return false;
        };
        self.masks[(id.round - self.start) as usize] = held | 1 << id.slot;
        held >> id.slot & 1 == 0
    }

    fn union_with(&mut self, other: &Model) {
        for (mine, theirs) in self.masks.iter_mut().zip(&other.masks) {
            *mine |= theirs;
        }
    }

    /// Held ids, oldest round first, slots ascending.
    fn ids(&self) -> Vec<UpdateId> {
        let rounds = (self.start..).zip(&self.masks);
        rounds
            .flat_map(|(round, &m)| {
                (0..64)
                    .filter(move |s| m >> s & 1 == 1)
                    .map(move |slot| UpdateId { round, slot })
            })
            .collect()
    }

    /// Every live id (held or not) of a `per_round` batch with age in
    /// `min_age..=max_age`, in order: what a band mask names.
    fn band(&self, per_round: u32, now: Round, min_age: u32, max_age: u32) -> Vec<UpdateId> {
        (self.start..self.start + self.masks.len() as Round)
            .filter(|&round| (min_age..=max_age).contains(&((now - round) as u32)))
            .flat_map(|round| (0..per_round).map(move |slot| UpdateId { round, slot }))
            .collect()
    }

    /// A balanced exchange between `self` (the initiator) and `other`:
    /// each side's needs over the whole window set the one-for-one
    /// share (one extra for the needier side when `unbalanced`), and each
    /// side receives the oldest of what it lacks within the age band, up
    /// to that share and the cap.
    fn balanced(
        &self,
        other: &Model,
        now: Round,
        (min_age, max_age): (u32, u32),
        unbalanced: bool,
        cap: Option<u32>,
    ) -> [Vec<UpdateId>; 2] {
        let (m, n) = (
            self.wanted(other, now, 0, u32::MAX).len(),
            other.wanted(self, now, 0, u32::MAX).len(),
        );
        let k = m.min(n);
        let extra = |need: usize, partner: usize| {
            if unbalanced && k >= 1 && need > partner {
                k + 1
            } else {
                k
            }
        };
        let cap = cap.map_or(usize::MAX, |c| c as usize);
        let mut to_i = self.wanted(other, now, min_age, max_age);
        let mut to_r = other.wanted(self, now, min_age, max_age);
        to_i.truncate(extra(m, n).min(cap));
        to_r.truncate(extra(n, m).min(cap));
        [to_i, to_r]
    }

    /// An optimistic push from `self` to `other`: the responder takes the
    /// oldest recents it lacks (up to `take`), and pays for each with an
    /// old update the initiator lacks while it has them, junk after that.
    /// Returns the offer taken, the useful payment and the junk.
    fn push(
        &self,
        other: &Model,
        now: Round,
        (recent_age, old_age): (u32, u32),
        take: usize,
        cap: usize,
    ) -> (Vec<UpdateId>, Vec<UpdateId>, usize) {
        let mut offer = other.wanted(self, now, 0, recent_age);
        offer.truncate(take);
        if offer.is_empty() {
            return (offer, Vec::new(), 0);
        }
        let mut pay = self.wanted(other, now, old_age, u32::MAX);
        pay.truncate(offer.len().min(cap));
        let junk = offer.len() - pay.len();
        (offer, pay, junk)
    }

    /// `other`'s ids that `self` lacks with age (`now − round`) in
    /// `min_age..=max_age`, in order.
    fn wanted(&self, other: &Model, now: Round, min_age: u32, max_age: u32) -> Vec<UpdateId> {
        let in_band = |id: &UpdateId| (min_age..=max_age).contains(&((now - id.round) as u32));
        let lacks = |id: &UpdateId| !self.contains(*id);
        other
            .ids()
            .into_iter()
            .filter(in_band)
            .filter(lacks)
            .collect()
    }
}

/// An age-band bound: small ages most of the time, sometimes unbounded.
fn draw_age(d: &mut Draw, name: &'static str, lifetime: u32) -> u32 {
    if d.int("unbounded", 0, 3) == 0 {
        u32::MAX
    } else {
        d.int(name, 0, i64::from(lifetime) + 1) as u32
    }
}

/// A release round around the live window (expired and not-yet-open
/// rounds included) and a slot biased toward the top of the batch.
fn draw_id(d: &mut Draw, start: Round, now: Round, per_round: u32) -> UpdateId {
    let round = d.int("round", start.saturating_sub(1) as i64, now as i64 + 1) as Round;
    let slot = if d.int("top_slot", 0, 3) == 0 {
        per_round - 1
    } else {
        d.int("slot", 0, i64::from(per_round) - 1) as u32
    };
    UpdateId { round, slot }
}

/// One draw of the binary-read arguments, shared by every pair checked
/// in a round so slab rows and sets see the same queries.
struct Query {
    limit: usize,
    min_age: u32,
    max_age: u32,
}

/// Check `view` (a slab row or a set) against its model, then its binary
/// reads against `other` and its model.
fn check_view(
    what: &str,
    (view, model): (WindowView<'_>, &Model),
    (other, other_model): (WindowView<'_>, &Model),
    now: Round,
    q: &Query,
) -> Result<(), String> {
    let fail = |read: &str| {
        Err(format!(
            "{what} at round {now}: {read} differs from the model"
        ))
    };
    if view.start() != model.start {
        return fail("start");
    }
    for r in model.start.saturating_sub(1)..=now + 1 {
        if view.mask(r) != model.mask(r) {
            return fail(&format!("mask({r})"));
        }
    }
    if !view.masks().eq(model.masks.iter().copied()) {
        return fail("masks()");
    }
    let ids = model.ids();
    if !view.iter().eq(ids.iter().copied()) {
        return fail("iter()");
    }
    if view.len() != ids.len() || view.is_empty() != ids.is_empty() {
        return fail("len/is_empty");
    }
    if view.missing_from(other) != model.wanted(other_model, now, 0, u32::MAX).len() {
        return fail("missing_from");
    }
    let mut want = model.wanted(other_model, now, q.min_age, q.max_age);
    if view.missing_in_age_band(other, now, q.min_age, q.max_age) != want.len() {
        return fail(&format!(
            "missing_in_age_band({}..={})",
            q.min_age, q.max_age
        ));
    }
    want.truncate(q.limit);
    let mut mask = vec![u64::MAX; 3];
    let n = view.wanted_from_into(other, now, q.limit, q.min_age, q.max_age, &mut mask);
    let got = mask_ids(view, &mask);
    if n != got.len() || mask.len() != view.words().len() || got != want {
        return Err(format!(
            "{what} at round {now}: wanted_from_into(limit {}, ages {}..={}) \
             gave {got:?}, model {want:?}",
            q.limit, q.min_age, q.max_age
        ));
    }
    Ok(())
}

/// The ids a mask in `view`'s layout names, in packed order.
fn mask_ids(view: WindowView<'_>, mask: &[u64]) -> Vec<UpdateId> {
    (0..mask.len() * 64)
        .filter(|&pos| mask[pos / 64] >> (pos % 64) & 1 == 1)
        .map(|pos| view.id_at(pos))
        .collect()
}

/// Check the exchange layer on slab rows `i` and `j` (and their sets)
/// against the models: the slab's band masks, then the balanced, push
/// and push-initiation kernels fed those bands.
#[allow(clippy::too_many_arguments)]
fn check_kernels(
    d: &mut Draw,
    slab: &WindowSlab,
    (set_i, model_i): &(WindowSet, Model),
    (set_j, model_j): &(WindowSet, Model),
    full: &(WindowSet, Model),
    (i, j): (usize, usize),
    now: Round,
    lifetime: u32,
) -> Result<(), String> {
    let per_round = full.0.per_round();
    let (row_i, row_j) = (slab.row(i), slab.row(j));
    let ages = (
        draw_age(d, "band_min", lifetime),
        draw_age(d, "band_max", lifetime),
    );
    let (recent_age, old_age) = (
        draw_age(d, "recent_age", lifetime),
        draw_age(d, "old_age", lifetime),
    );
    let mut bands = [Vec::new(), Vec::new(), Vec::new()];
    for (band, (lo, hi)) in bands
        .iter_mut()
        .zip([ages, (0, recent_age), (old_age, u32::MAX)])
    {
        slab.band_into(lo, hi, band);
        let want = full.1.band(per_round, now, lo, hi);
        if band.len() != row_i.words().len() || mask_ids(row_i, band) != want {
            return Err(format!(
                "round {now}: band_into({lo}, {hi}) = {band:x?}, model {want:?}"
            ));
        }
    }
    let [band, recent, old] = &bands;
    let unbalanced = d.int("unbalanced", 0, 1) == 1;
    let cap = (d.int("capped", 0, 1) == 1).then(|| d.int("cap", 0, 4) as u32);
    let (words_i, words_j) = (row_i.words(), row_j.words());
    let mut bal = BalancedOutcome::default();
    balanced_rows(
        words_i,
        words_j,
        band.iter().copied(),
        unbalanced,
        cap,
        &mut bal,
    );
    let want = model_i.balanced(model_j, now, ages, unbalanced, cap);
    let got = [
        mask_ids(row_i, &bal.to_initiator.mask),
        mask_ids(row_j, &bal.to_responder.mask),
    ];
    if got != want || [bal.to_initiator.len, bal.to_responder.len] != [want[0].len(), want[1].len()]
    {
        return Err(format!(
            "round {now}: balanced_rows({i}, {j}, ages {ages:?}, unbalanced {unbalanced}, \
             cap {cap:?}) moved {got:?}, model {want:?}"
        ));
    }
    balanced_exchange_into(set_i, set_j, now, unbalanced, cap, &mut bal);
    let want = model_i.balanced(model_j, now, (0, u32::MAX), unbalanced, cap);
    let got = [
        mask_ids(set_i.view(), &bal.to_initiator.mask),
        mask_ids(set_j.view(), &bal.to_responder.mask),
    ];
    if got != want {
        return Err(format!(
            "round {now}: balanced_exchange_into({i}, {j}) moved {got:?}, model {want:?}"
        ));
    }
    let push_size = d.int("push_size", 0, 6) as u32;
    let take = (push_size as usize).min(cap.map_or(usize::MAX, |c| c as usize));
    let want = model_i.push(
        model_j,
        now,
        (recent_age, old_age),
        take,
        cap.map_or(usize::MAX, |c| c as usize),
    );
    let mut push = PushOutcome::default();
    push_rows(
        words_i,
        words_j,
        recent.iter().copied(),
        old.iter().copied(),
        push_size,
        cap,
        &mut push,
    );
    let mut views = PushOutcome::default();
    optimistic_push_into(
        set_i, set_j, now, push_size, old_age, recent_age, cap, &mut views,
    );
    for (what, out, (vi, vj)) in [
        ("push_rows", &push, (row_i, row_j)),
        ("optimistic_push_into", &views, (set_i.view(), set_j.view())),
    ] {
        let got = (
            mask_ids(vj, &out.to_responder.mask),
            mask_ids(vi, &out.useful_to_initiator.mask),
            out.junk_to_initiator as usize,
        );
        let lens = (out.to_responder.len, out.useful_to_initiator.len);
        if got != want || lens != (want.0.len(), want.1.len()) {
            return Err(format!(
                "round {now}: {what}({i}, {j}, push {push_size}, recent {recent_age}, \
                 old {old_age}, cap {cap:?}) gave {got:?}, model {want:?}"
            ));
        }
    }
    let wants = wants_push_row(words_i, full.0.view().words(), old.iter().copied());
    if wants == model_i.wanted(&full.1, now, old_age, u32::MAX).is_empty() {
        return Err(format!(
            "round {now}: wants_push_row({i}, old {old_age}) = {wants}"
        ));
    }
    Ok(())
}

/// Per row: its `WindowSet` and model, once joined.
type Row = Option<(WindowSet, Model)>;

/// Compare row `i` of the slab and its set with the model, reading
/// against row `j` and the reference window `full`.
#[allow(clippy::too_many_arguments)]
fn compare(
    d: &mut Draw,
    slab: &WindowSlab,
    rows: &[Row],
    full: &(WindowSet, Model),
    i: usize,
    j: usize,
    now: Round,
    lifetime: u32,
) -> Result<(), String> {
    let ((set_i, model_i), (set_j, model_j)) =
        (rows[i].as_ref().unwrap(), rows[j].as_ref().unwrap());
    let q = Query {
        limit: d.int("limit", 0, i64::from(lifetime) * 4) as usize,
        min_age: draw_age(d, "min_age", lifetime),
        max_age: draw_age(d, "max_age", lifetime),
    };
    let (row_i, row_j, full_view) = (slab.row(i), slab.row(j), full.0.view());
    check_view(
        &format!("slab row {i} vs row {j}"),
        (row_i, model_i),
        (row_j, model_j),
        now,
        &q,
    )?;
    check_view(
        &format!("slab row {i} vs full"),
        (row_i, model_i),
        (full_view, &full.1),
        now,
        &q,
    )?;
    let set_view = set_i.view();
    check_view(
        &format!("set {i} vs set {j}"),
        (set_view, model_i),
        (set_j.view(), model_j),
        now,
        &q,
    )?;
    check_view(
        &format!("set {i} vs full"),
        (set_view, model_i),
        (full_view, &full.1),
        now,
        &q,
    )?;
    let (row_i, row_j) = (rows[i].as_ref().unwrap(), rows[j].as_ref().unwrap());
    check_kernels(d, slab, row_i, row_j, full, (i, j), now, lifetime)
}

#[test]
fn slab_rows_and_sets_match_the_per_round_model() {
    check("window::packed_matches_model", 300, |d| {
        let lifetime = d.int("lifetime", 1, 16) as u32;
        let per_round = match d.int("shape", 0, 4) {
            0 => 64,
            1 => 10,
            _ => d.int("per_round", 1, 64) as u32,
        };
        let n = d.int("rows", 2, 6) as usize;
        let horizon = d.int("horizon", 1, 3 * i64::from(lifetime) + 4) as Round;
        // Row 0 is present from the start; the rest join at a random
        // round, possibly after the first expiry, possibly never.
        let joins: Vec<Round> = (0..n)
            .map(|i| {
                if i == 0 {
                    0
                } else {
                    d.int("join", 0, horizon as i64 + 1) as Round
                }
            })
            .collect();
        let mut slab = WindowSlab::new(n, per_round, lifetime);
        let mut rows: Vec<Row> = vec![None; n];
        let mut full = (WindowSet::new(per_round, lifetime), Model::new(lifetime));
        for t in 0..horizon {
            for (i, &join) in joins.iter().enumerate() {
                if join == t {
                    let (mut set, mut model) =
                        (WindowSet::new(per_round, lifetime), Model::new(lifetime));
                    for r in 0..t {
                        set.advance(r);
                        model.advance();
                    }
                    rows[i] = Some((set, model));
                }
            }
            let popped = full.1.advance();
            if full.0.advance(t) != popped {
                return Err(format!("full set advance({t}) differs from the model"));
            }
            let expired = slab.advance(t);
            if expired != popped.map(|(r, _)| r) {
                return Err(format!("slab advance({t}) = {expired:?}, model {popped:?}"));
            }
            for (i, row) in rows.iter_mut().enumerate() {
                let Some((set, model)) = row else {
                    continue;
                };
                let want = model.advance();
                let shifted = expired.map(|r| (r, slab.shift(i)));
                if shifted != want || set.advance(t) != want {
                    return Err(format!(
                        "row {i} at round {t}: slab expired {shifted:?}, model {want:?}"
                    ));
                }
            }
            for slot in 0..per_round {
                if d.int("released", 0, 1) == 1 {
                    let id = UpdateId { round: t, slot };
                    full.0.insert(id);
                    full.1.insert(id);
                }
            }
            let joined: Vec<usize> = (0..n).filter(|&i| rows[i].is_some()).collect();
            let pick = |d: &mut Draw| joined[d.int("row", 0, joined.len() as i64 - 1) as usize];
            for _ in 0..d.int("ops", 0, 8) {
                let i = pick(d);
                match d.int("op", 0, 3) {
                    0 => {
                        let id = draw_id(d, slab.row(i).start(), t, per_round);
                        let (set, model) = rows[i].as_mut().unwrap();
                        let want = model.insert(id);
                        if slab.insert(i, id) != want || set.insert(id) != want {
                            return Err(format!("insert({i}, {id}) differs at round {t}"));
                        }
                    }
                    1 => {
                        slab.union_with(i, &full.0);
                        let (set, model) = rows[i].as_mut().unwrap();
                        set.union_with(&full.0);
                        model.union_with(&full.1);
                    }
                    2 => {
                        let j = pick(d);
                        if i == j {
                            continue;
                        }
                        let (a, b) = (rows[i].clone().unwrap(), rows[j].clone().unwrap());
                        let expected = (
                            a.1.wanted(&b.1, t, 0, u32::MAX).len(),
                            b.1.wanted(&a.1, t, 0, u32::MAX).len(),
                        );
                        let gained = slab.sync(i, j);
                        if gained != expected {
                            return Err(format!(
                                "sync({i}, {j}) at round {t} gained {gained:?}, model {expected:?}"
                            ));
                        }
                        let (set, model) = rows[i].as_mut().unwrap();
                        set.union_with(&b.0);
                        model.union_with(&b.1);
                        let (set, model) = rows[j].as_mut().unwrap();
                        set.union_with(&a.0);
                        model.union_with(&a.1);
                    }
                    _ => {
                        slab.clear(i);
                        let (set, model) = rows[i].as_mut().unwrap();
                        set.clear();
                        model.masks.fill(0);
                    }
                }
            }
            for (i, row) in rows.iter().enumerate() {
                if row.is_none() && !slab.row(i).is_empty() {
                    return Err(format!("row {i} not yet joined holds updates at round {t}"));
                }
            }
            for &i in &joined {
                let j = pick(d);
                compare(d, &slab, &rows, &full, i, j, t, lifetime)?;
            }
        }
        Ok(())
    });
}

/// The mask kernel — [`WindowView::wanted_from_into`] and
/// [`WindowSlab::union_words`] — against a scalar reference that keeps
/// each window as a sorted id list: the want is the sender's ids the
/// receiver lacks, filtered to the age band and cut to the first `limit`,
/// and delivering it inserts those ids one at a time.
#[test]
fn mask_kernel_matches_the_scalar_id_list_model() {
    check("window::mask_kernel_matches_id_lists", 400, |d| {
        let per_round = [1, 7, 10, 63, 64][d.int("per_round", 0, 4) as usize];
        let lifetime = d.int("lifetime", 1, 12) as u32;
        let now = d.int("now", 0, 3 * i64::from(lifetime)) as Round;
        // Rows 0 and 1 are the receiver and the sender; row 2 takes the
        // scalar delivery.
        let mut slab = WindowSlab::new(3, per_round, lifetime);
        for t in 0..=now {
            slab.advance(t);
        }
        let start = slab.row(0).start();
        let mut lists: [Vec<UpdateId>; 2] = [Vec::new(), Vec::new()];
        for (row, list) in lists.iter_mut().enumerate() {
            let density = d.ratio("density");
            let mut rng = d.rng(["receiver", "sender"][row]);
            for round in start..=now {
                for slot in 0..per_round {
                    if rng.chance(density) {
                        let id = UpdateId { round, slot };
                        slab.insert(row, id);
                        list.push(id);
                    }
                }
            }
        }
        let [receiver, sender] = &lists;
        let (min_age, max_age) = match d.int("band", 0, 3) {
            0 => (0, u32::MAX),
            // An empty band: inverted, or entirely older than the window.
            1 => {
                let max_age = d.int("max_age", 0, i64::from(lifetime)) as u32;
                (max_age + 1, max_age)
            }
            2 => (lifetime + d.int("past", 0, 2) as u32, u32::MAX),
            _ => (
                d.int("min_age", 0, i64::from(lifetime)) as u32,
                d.int("max_age", 0, i64::from(lifetime)) as u32,
            ),
        };
        let in_band = |id: &&UpdateId| {
            let age = (now - id.round) as u32;
            (min_age..=max_age).contains(&age)
        };
        let lacking: Vec<UpdateId> = sender
            .iter()
            .filter(in_band)
            .filter(|id| !receiver.contains(id))
            .copied()
            .collect();
        let limit = match d.int("limit", 0, 3) {
            0 => 0,
            1 => 1,
            2 => lacking.len() + 1 + d.int("over", 0, 64) as usize,
            _ => d.int("some", 0, lacking.len() as i64) as usize,
        };
        let expected = &lacking[..limit.min(lacking.len())];
        let mut mask = vec![u64::MAX; 5];
        let n = slab
            .row(0)
            .wanted_from_into(slab.row(1), now, limit, min_age, max_age, &mut mask);
        let got = mask_ids(slab.row(0), &mask);
        if n != expected.len() || got != expected {
            return Err(format!(
                "per_round {per_round} lifetime {lifetime} now {now} ages {min_age}..={max_age} \
                 limit {limit}: mask names {got:?} (count {n}), id lists give {expected:?}"
            ));
        }
        let words = slab.row(0).words().len();
        if mask.len() != words {
            return Err(format!(
                "mask of {} words for a {words}-word row",
                mask.len()
            ));
        }
        for &id in receiver.iter().chain(expected) {
            slab.insert(2, id);
        }
        slab.union_words(0, &mask);
        if slab.row(0).words() != slab.row(2).words() {
            return Err(format!(
                "union_words left {:?}, inserting the ids one at a time gives {:?}",
                slab.row(0).words(),
                slab.row(2).words()
            ));
        }
        Ok(())
    });
}
