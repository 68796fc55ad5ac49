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
    let mut got = vec![UpdateId { round: 0, slot: 0 }; 3];
    view.wanted_from_into(other, now, q.limit, q.min_age, q.max_age, &mut got);
    if got != want {
        return Err(format!(
            "{what} at round {now}: wanted_from_into(limit {}, ages {}..={}) \
             gave {got:?}, model {want:?}",
            q.limit, q.min_age, q.max_age
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
    )
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
