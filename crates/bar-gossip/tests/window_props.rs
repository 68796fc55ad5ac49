//! Property tests for the window slab ([`WindowSlab`]) against
//! independent per-row [`WindowSet`]s, on the dependency-free
//! [`proptest_lite`](lotus_core::proptest_lite) harness.
//!
//! Each case draws a window shape (lifetime 1–16, 1–64 updates per
//! round, the full 64-slot batch included), a handful of rows with their
//! join rounds, and a random sequence of `insert`, `union_with`, `sync`,
//! `clear` and `advance`. Every row runs in lockstep with its own
//! `WindowSet`; a row that joins late is a fresh zero row — never
//! shifted while outside, exactly as the simulators leave a disengaged
//! node's row — and is compared against a `WindowSet` advanced while
//! empty to the same round. After every round the two models must agree
//! on every mask, every expired mask, and every read a simulator makes:
//! `missing_from`, `wanted_from_into` (random limits and age bands) and
//! `missing_in_age_band`.

use bar_gossip::update::{UpdateId, WindowSet, WindowSlab};
use lotus_core::proptest_lite::{check, Draw};
use netsim::Round;

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

/// Compare row `i` of the slab with its model window, then the binary
/// reads between rows `i`, `j` and the reference window `full`.
#[allow(clippy::too_many_arguments)]
fn compare(
    d: &mut Draw,
    slab: &WindowSlab,
    sets: &[Option<WindowSet>],
    full: &WindowSet,
    i: usize,
    j: usize,
    now: Round,
    lifetime: u32,
) -> Result<(), String> {
    let (a, b) = (sets[i].as_ref().unwrap(), sets[j].as_ref().unwrap());
    let (ra, rb) = (slab.row(i), slab.row(j));
    if ra != a.view() {
        return Err(format!(
            "row {i} at round {now}: slab {ra:?} vs set {:?}",
            a.view()
        ));
    }
    for r in a.start().saturating_sub(1)..=now + 1 {
        if ra.mask(r) != a.mask(r) {
            return Err(format!("row {i} mask({r}) differs at round {now}"));
        }
    }
    if ra.len() != a.len() || ra.is_empty() != a.is_empty() {
        return Err(format!("row {i} len/is_empty differ at round {now}"));
    }
    if ra.missing_from(rb) != a.missing_from(b) || ra.missing_from(full) != a.missing_from(full) {
        return Err(format!("missing_from({i}, {j}) differs at round {now}"));
    }
    let limit = d.int("limit", 0, i64::from(lifetime) * 4) as usize;
    let min_age = draw_age(d, "min_age", lifetime);
    let max_age = draw_age(d, "max_age", lifetime);
    let (mut got, mut want) = (vec![UpdateId { round: 0, slot: 0 }; 3], Vec::new());
    ra.wanted_from_into(rb, now, limit, min_age, max_age, &mut got);
    a.wanted_from_into(b, now, limit, min_age, max_age, &mut want);
    if got != want {
        return Err(format!(
            "wanted_from_into({i}, {j}, limit {limit}, ages {min_age}..={max_age}) \
             at round {now}: slab {got:?} vs sets {want:?}"
        ));
    }
    ra.wanted_from_into(full, now, limit, min_age, max_age, &mut got);
    a.wanted_from_into(full, now, limit, min_age, max_age, &mut want);
    if got != want {
        return Err(format!(
            "wanted_from_into({i}, full) differs at round {now}"
        ));
    }
    if ra.missing_in_age_band(rb, now, min_age, max_age)
        != a.missing_in_age_band(b, now, min_age, max_age)
    {
        return Err(format!(
            "missing_in_age_band({i}, {j}, ages {min_age}..={max_age}) differs at round {now}"
        ));
    }
    Ok(())
}

#[test]
fn slab_rows_match_independent_window_sets() {
    check("window::slab_matches_sets", 300, |d| {
        let lifetime = d.int("lifetime", 1, 16) as u32;
        let per_round = if d.int("full_batch", 0, 3) == 0 {
            64
        } else {
            d.int("per_round", 1, 64) as u32
        };
        let rows = d.int("rows", 2, 6) as usize;
        let horizon = d.int("horizon", 1, 3 * i64::from(lifetime) + 4) as Round;
        // Row 0 is present from the start; the rest join at a random
        // round, possibly after the first expiry, possibly never.
        let joins: Vec<Round> = (0..rows)
            .map(|i| {
                if i == 0 {
                    0
                } else {
                    d.int("join", 0, horizon as i64 + 1) as Round
                }
            })
            .collect();
        let mut slab = WindowSlab::new(rows, per_round, lifetime);
        let mut sets: Vec<Option<WindowSet>> = vec![None; rows];
        let mut full = WindowSet::new(per_round, lifetime);
        for t in 0..horizon {
            for (i, &join) in joins.iter().enumerate() {
                if join == t {
                    let mut w = WindowSet::new(per_round, lifetime);
                    for r in 0..t {
                        w.advance(r);
                    }
                    sets[i] = Some(w);
                }
            }
            let full_popped = full.advance(t);
            let expired = slab.advance(t);
            if expired != full_popped.map(|(r, _)| r) {
                return Err(format!(
                    "slab advance({t}) = {expired:?}, set {full_popped:?}"
                ));
            }
            for (i, set) in sets.iter_mut().enumerate() {
                let Some(set) = set else {
                    continue;
                };
                let popped = set.advance(t);
                let shifted = expired.map(|r| (r, slab.shift(i)));
                if shifted != popped {
                    return Err(format!(
                        "row {i} at round {t}: slab expired {shifted:?}, set {popped:?}"
                    ));
                }
            }
            for slot in 0..per_round {
                if d.int("released", 0, 1) == 1 {
                    full.insert(UpdateId { round: t, slot });
                }
            }
            let joined: Vec<usize> = (0..rows).filter(|&i| sets[i].is_some()).collect();
            let pick = |d: &mut Draw| joined[d.int("row", 0, joined.len() as i64 - 1) as usize];
            for _ in 0..d.int("ops", 0, 8) {
                let i = pick(d);
                match d.int("op", 0, 3) {
                    0 => {
                        let id = draw_id(d, slab.row(i).start(), t, per_round);
                        let set = sets[i].as_mut().unwrap();
                        if slab.insert(i, id) != set.insert(id) {
                            return Err(format!("insert({i}, {id}) differs at round {t}"));
                        }
                    }
                    1 => {
                        slab.union_with(i, &full);
                        sets[i].as_mut().unwrap().union_with(&full);
                    }
                    2 => {
                        let j = pick(d);
                        if i == j {
                            continue;
                        }
                        let (a, b) = (sets[i].clone().unwrap(), sets[j].clone().unwrap());
                        let expected = (a.missing_from(&b), b.missing_from(&a));
                        let gained = slab.sync(i, j);
                        if gained != expected {
                            return Err(format!(
                                "sync({i}, {j}) at round {t} gained {gained:?}, sets {expected:?}"
                            ));
                        }
                        sets[i].as_mut().unwrap().union_with(&b);
                        sets[j].as_mut().unwrap().union_with(&a);
                    }
                    _ => {
                        slab.clear(i);
                        sets[i].as_mut().unwrap().clear();
                    }
                }
            }
            for (i, set) in sets.iter().enumerate() {
                if set.is_none() && !slab.row(i).is_empty() {
                    return Err(format!("row {i} not yet joined holds updates at round {t}"));
                }
            }
            for &i in &joined {
                let j = pick(d);
                compare(d, &slab, &sets, &full, i, j, t, lifetime)?;
            }
        }
        Ok(())
    });
}
