//! Property tests for the digest-exchange primitives
//! ([`lotus_core::digest`]), on the dependency-free
//! [`proptest_lite`](lotus_core::proptest_lite) harness.
//!
//! Across ~200 generated (bits, hashes, load) configurations each, the
//! suite pins the two guarantees the digest gossip substrate builds on:
//!
//! * **no false negatives** — every inserted id probes positive, at any
//!   width/probe-count/load, so a truthful digest can never cause an
//!   honest peer to skip an update it actually needs (the keystone
//!   delivery-equivalence golden in `lotus-bench` rides on this);
//! * **bounded false positives** — the measured false-positive rate on
//!   fresh keys stays within a small multiple of the fill-ratio
//!   estimate [`BloomDigest::expected_fp_rate`], which is what makes
//!   `digest_fp_rate` a meaningful deniability floor for the
//!   advertise-then-withhold attacker;
//! * the exact [`region_hash`] variant separates distinct masks and
//!   regions (zero false positives by construction);
//! * **index = filter** — every [`BloomIndex`] answer equals the answer
//!   of a [`BloomDigest`] freshly built from the same sender masks, so
//!   the digest round's per-round index changes no decision;
//! * **want mask = filter** — [`BloomIndex::wanted_into`]'s request mask
//!   holds exactly the lowest `limit` ids the receiver lacks that such a
//!   filter answers present, probed one id at a time in packed order.

use lotus_core::digest::{pack_id, region_hash, BloomDigest, BloomIndex};
use lotus_core::proptest_lite::{check, Draw};

/// Pack per-round slot masks (oldest first) into one window row: slot
/// `s` of the `o`-th round at bit `o·per_round + s`.
fn pack_row(masks: &[u64], per_round: u32) -> Vec<u64> {
    let per_round = per_round as usize;
    let mut row = vec![0u64; (masks.len() * per_round).div_ceil(64)];
    for (o, &mask) in masks.iter().enumerate() {
        for slot in (0..per_round).filter(|&s| mask & 1 << s != 0) {
            let pos = o * per_round + slot;
            row[pos / 64] |= 1 << (pos % 64);
        }
    }
    row
}

/// Draw a digest configuration plus a key load.
fn draw_config(d: &mut Draw) -> (u32, u32, u64, usize) {
    let bits = d.int("bits", 64, 4096) as u32;
    let hashes = d.int("hashes", 1, 8) as u32;
    let base = d.rng("key-base").next_u64() >> 1;
    let load = d.int("load", 1, 300) as usize;
    (bits, hashes, base, load)
}

#[test]
fn inserted_keys_never_false_negative() {
    check("digest::no_false_negatives", 200, |d| {
        let (bits, hashes, base, load) = draw_config(d);
        let mut digest = BloomDigest::new(bits, hashes);
        for i in 0..load as u64 {
            digest.insert(base + i);
        }
        for i in 0..load as u64 {
            if !digest.contains(base + i) {
                return Err(format!(
                    "key {i} of {load} lost in a {bits}-bit/{hashes}-hash digest"
                ));
            }
        }
        Ok(())
    });
}

#[test]
fn false_positive_rate_stays_within_the_fill_estimate() {
    check("digest::fp_rate_bounded", 200, |d| {
        let (bits, hashes, base, load) = draw_config(d);
        let mut digest = BloomDigest::new(bits, hashes);
        for i in 0..load as u64 {
            digest.insert(base + i);
        }
        // Probe keys disjoint from the inserted range by construction.
        let probes = 2000u64;
        let fresh = base + 1_000_000;
        let hits = (0..probes).filter(|j| digest.contains(fresh + j)).count();
        let measured = hits as f64 / probes as f64;
        let expected = digest.expected_fp_rate();
        // Generous envelope: fill^hashes is the per-probe hit chance,
        // so 2000 probes concentrate well inside 2.5x + 2% slack; an
        // overloaded filter (fill -> 1) passes trivially.
        if measured > 2.5 * expected + 0.02 {
            return Err(format!(
                "measured fp {measured} vs expected {expected} \
                 (bits={bits} hashes={hashes} load={load})"
            ));
        }
        Ok(())
    });
}

#[test]
fn digest_is_a_pure_function_of_its_key_set() {
    check("digest::order_free_and_resettable", 200, |d| {
        let (bits, hashes, base, load) = draw_config(d);
        let mut forward = BloomDigest::new(bits, hashes);
        let mut reverse = BloomDigest::new(bits, hashes);
        for i in 0..load as u64 {
            forward.insert(base + i);
        }
        for i in (0..load as u64).rev() {
            reverse.insert(base + i);
        }
        if forward != reverse {
            return Err("insertion order changed the digest".into());
        }
        // clear + reinsert lands on the same digest as fresh.
        reverse.clear();
        for i in 0..load as u64 {
            reverse.insert(base + i);
        }
        if forward != reverse {
            return Err("clear + reinsert diverged from a fresh digest".into());
        }
        Ok(())
    });
}

#[test]
fn region_hash_is_exact_on_generated_masks() {
    check("digest::region_hash_exact", 200, |d| {
        let region = d.int("region", 0, 1 << 20) as u64;
        let mask = d.rng("mask").next_u64();
        let flip = d.int("flip", 0, 63) as u64;
        if region_hash(region, mask) != region_hash(region, mask) {
            return Err("region hash is not deterministic".into());
        }
        if region_hash(region, mask) == region_hash(region, mask ^ (1 << flip)) {
            return Err(format!("mask flip at bit {flip} not separated"));
        }
        if region_hash(region, mask) == region_hash(region + 1, mask) {
            return Err("adjacent regions collide".into());
        }
        Ok(())
    });
}

#[test]
fn bloom_index_answers_like_a_freshly_built_filter() {
    check("digest::index_matches_filter", 300, |d| {
        let bits = d.int("bits", 64, 4096) as u32;
        let hashes = d.int("hashes", 1, 16) as u32;
        // Over-draw and clamp so full 64-slot batches (slot 63 live)
        // come up in about a fifth of the cases.
        let per_round = d.int("per_round", 1, 80).min(64) as u32;
        let lifetime = d.int("lifetime", 1, 20) as u32;
        let density = d.ratio("density");
        let mut rng = d.rng("windows");
        let mut index = BloomIndex::new(bits, hashes, per_round, lifetime);
        let mut first = rng.range(1 << 30);
        // Slide the window a few times (short early windows included)
        // and advertise several senders per rebuild.
        for _ in 0..3 {
            first += rng.range(3);
            let last = first + rng.range(u64::from(lifetime));
            index.rebuild(first, last);
            for sender in 0..4 {
                let masks: Vec<u64> = (first..=last)
                    .map(|_| {
                        (0..per_round)
                            .filter(|_| rng.chance(density))
                            .fold(0u64, |m, slot| m | 1 << slot)
                    })
                    .collect();
                let mut filter = BloomDigest::new(bits, hashes);
                for (r, &mask) in (first..=last).zip(&masks) {
                    for slot in (0..per_round).filter(|&s| mask & 1 << s != 0) {
                        filter.insert(pack_id(r, slot));
                    }
                }
                let row = pack_row(&masks, per_round);
                for r in first..=last {
                    for slot in 0..per_round {
                        let want = filter.contains(pack_id(r, slot));
                        let id = (r - first) as u32 * per_round + slot;
                        if index.contains_id(&row, id) != index.contains(&row, r, slot) {
                            return Err(format!("contains_id({id}) disagrees with contains"));
                        }
                        if index.contains(&row, r, slot) != want {
                            return Err(format!(
                                "sender {sender}: id ({r}, {slot}) index says {}, filter {want} \
                                 (window {first}..={last})",
                                !want
                            ));
                        }
                    }
                }
            }
        }
        if index.size_bytes() != BloomDigest::new(bits, hashes).size_bytes() {
            return Err("index and filter disagree on the wire size".into());
        }
        Ok(())
    });
}

/// Random per-round slot masks for `rounds` rounds at `density`.
fn draw_masks(
    rng: &mut netsim::rng::DetRng,
    rounds: u64,
    per_round: u32,
    density: f64,
) -> Vec<u64> {
    (0..rounds)
        .map(|_| {
            (0..per_round)
                .filter(|_| rng.chance(density))
                .fold(0u64, |m, slot| m | 1 << slot)
        })
        .collect()
}

#[test]
fn bloom_want_mask_matches_a_filter_of_the_senders_ids() {
    check("digest::want_mask_matches_filter", 300, |d| {
        let bits = d.int("bits", 64, 2048) as u32;
        let hashes = d.int("hashes", 1, 16) as u32;
        let per_round = match d.int("shape", 0, 3) {
            0 => 64,
            1 => 10,
            _ => d.int("per_round", 1, 64) as u32,
        };
        let lifetime = d.int("lifetime", 1, 12) as u32;
        let (sender_density, receiver_density) = (d.ratio("sender"), d.ratio("receiver"));
        let mut rng = d.rng("windows");
        let first = rng.range(1 << 20);
        let last = first + rng.range(u64::from(lifetime));
        let rounds = last - first + 1;
        let mut index = BloomIndex::new(bits, hashes, per_round, lifetime);
        index.rebuild(first, last);
        let sent = draw_masks(&mut rng, rounds, per_round, sender_density);
        let held = draw_masks(&mut rng, rounds, per_round, receiver_density);
        let mut filter = BloomDigest::new(bits, hashes);
        for (r, &mask) in (first..=last).zip(&sent) {
            for slot in (0..per_round).filter(|&s| mask & 1 << s != 0) {
                filter.insert(pack_id(r, slot));
            }
        }
        // The scalar reference: walk the live ids in packed order and
        // request each one the receiver lacks that the filter reports.
        let requested: Vec<u32> = (first..=last)
            .zip(&held)
            .flat_map(|(r, &mask)| (0..per_round).map(move |slot| (r, slot, mask)))
            .filter(|&(r, slot, mask)| mask & 1 << slot == 0 && filter.contains(pack_id(r, slot)))
            .map(|(r, slot, _)| (r - first) as u32 * per_round + slot)
            .collect();
        let limit = match d.int("limit", 0, 3) {
            0 => 0,
            1 => 1,
            2 => requested.len() + d.int("over", 0, 5) as usize,
            _ => d.int("some", 0, requested.len() as i64) as usize,
        };
        let (sender, receiver) = (pack_row(&sent, per_round), pack_row(&held, per_round));
        let mut got = vec![u64::MAX; 3];
        let n = index.wanted_into(&sender, &receiver, limit, &mut got);
        let ids: Vec<u32> = (0..got.len() as u32 * 64)
            .filter(|&id| got[(id / 64) as usize] >> (id % 64) & 1 == 1)
            .collect();
        let expected = &requested[..limit.min(requested.len())];
        if got.len() != sender.len() || n != ids.len() || ids != expected {
            return Err(format!(
                "limit {limit}: mask of {} words, count {n}, ids {ids:?}; filter requests {expected:?}",
                got.len()
            ));
        }
        Ok(())
    });
}
