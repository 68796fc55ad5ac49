//! Property-based tests for the simulation substrate.
//!
//! The word-wise Bernoulli trials ([`DetRng::chance_bits`], [`Odds`])
//! are checked on every build: cases come from a seeded [`DetRng`], and
//! every case is compared against a scalar [`DetRng::chance`] loop.
//!
//! The substrate's generated-input properties (rng ranges, forks,
//! shuffles and samples, metrics, graphs and the partner schedule) live
//! in `lotus-core`'s `tests/netsim_props.rs`, on its `proptest_lite`
//! harness, which this crate cannot depend on.

use netsim::rng::{DetRng, Odds};

/// 2⁻⁵³: one step of `DetRng::f64`.
const STEP: f64 = 1.0 / (1u64 << 53) as f64;

/// The rates the word-wise trials must treat exactly like `chance`: the
/// no-draw edges, the smallest positive rates, grid points `k·2⁻⁵³` one
/// ulp either side, and the largest rate below 1.
fn edge_rates(cases: &mut DetRng) -> Vec<f64> {
    let mut rates = vec![
        0.0,
        -0.5,
        2f64.powi(-60),
        f64::MIN_POSITIVE,
        STEP,
        0.5,
        1.0 - STEP,
        1.0,
        1.5,
    ];
    for _ in 0..8 {
        let on_grid = (cases.range((1 << 53) - 1) + 1) as f64 * STEP;
        let below = f64::from_bits(on_grid.to_bits() - 1);
        let above = f64::from_bits(on_grid.to_bits() + 1);
        rates.extend([below, on_grid, above]);
    }
    rates
}

/// Empty, full, single-bit and sparse masks.
fn masks(cases: &mut DetRng) -> Vec<u64> {
    let mut out = vec![0, u64::MAX, 1, 1 << 63];
    for _ in 0..6 {
        out.push(1 << cases.range(64));
        out.push(cases.next_u64() & cases.next_u64() & cases.next_u64());
        out.push(cases.next_u64());
    }
    out
}

/// The scalar reference: one `chance` per set bit of `mask`, ascending,
/// each at the rate `rate(b)` of its bit.
fn scalar_hits(rng: &mut DetRng, mask: u64, rate: impl Fn(u32) -> f64) -> u64 {
    (0..64)
        .filter(|&b| (mask >> b) & 1 == 1)
        .filter(|&b| rng.chance(rate(b)))
        .fold(0, |hits, b| hits | 1 << b)
}

#[test]
fn odds_threshold_is_exactly_chance_at_the_boundary() {
    // The doc-comment proof, checked where it is tight: the draws whose
    // top 53 bits land on, or one step either side of, `p·2⁵³`.
    let mut cases = DetRng::seed_from(53);
    for p in edge_rates(&mut cases) {
        let odds = Odds::of(p);
        if odds.draw == 0 {
            continue;
        }
        let at = (p / STEP).floor() as u64;
        for u in [at.saturating_sub(1), at, at + 1, odds.thr - 1, odds.thr] {
            let u = u.min((1 << 53) - 1);
            let float = u as f64 * STEP < p;
            assert_eq!(
                float,
                u < odds.thr,
                "p = {p:e}, u = {u}, thr = {}",
                odds.thr
            );
        }
    }
}

#[test]
fn chance_bits_matches_a_scalar_chance_loop() {
    let mut cases = DetRng::seed_from(64);
    for p in edge_rates(&mut cases) {
        let odds = Odds::of(p);
        for mask in masks(&mut cases) {
            let seed = cases.next_u64();
            let (mut word, mut scalar) = (DetRng::seed_from(seed), DetRng::seed_from(seed));
            let hits = odds.trial(&mut word, mask);
            let expect = scalar_hits(&mut scalar, mask, |_| p);
            assert_eq!(hits, expect, "p = {p:e}, mask = {mask:#x}: hits differ");
            assert_eq!(word, scalar, "p = {p:e}, mask = {mask:#x}: streams differ");
        }
    }
}

#[test]
fn a_draw_landing_on_the_threshold_misses_as_in_chance() {
    // Random draws almost never land exactly on `p·2⁵³`; steer the rate
    // onto the stream's own next draw instead, and one ulp either side.
    let mut cases = DetRng::seed_from(66);
    for _ in 0..200 {
        let seed = cases.next_u64();
        let u = DetRng::seed_from(seed).next_u64() >> 11;
        let landing = u as f64 * STEP;
        if landing == 0.0 {
            continue;
        }
        for p in [
            f64::from_bits(landing.to_bits() - 1),
            landing,
            f64::from_bits(landing.to_bits() + 1),
        ] {
            let (mut word, mut scalar) = (DetRng::seed_from(seed), DetRng::seed_from(seed));
            let mask = 1 | cases.next_u64();
            let hits = Odds::of(p).trial(&mut word, mask);
            assert_eq!(hits & 1, u64::from(p > landing), "p = {p:e}, draw {u}");
            assert_eq!(hits, scalar_hits(&mut scalar, mask, |_| p), "p = {p:e}");
            assert_eq!(word, scalar, "p = {p:e}: streams differ");
        }
    }
}

#[test]
fn chance_bits_with_per_bit_thresholds_matches_a_scalar_chance_loop() {
    // Two rates interleaved by a selector word — the shape of the crash
    // (up nodes) / recover (down nodes) and leave / rejoin trials.
    let mut cases = DetRng::seed_from(65);
    let rates = edge_rates(&mut cases);
    for _ in 0..400 {
        let (p0, p1) = (
            rates[cases.index(rates.len())],
            rates[cases.index(rates.len())],
        );
        let (o0, o1) = (Odds::of(p0), Odds::of(p1));
        let mask = masks(&mut cases)[cases.index(22)];
        let sel = cases.next_u64();
        let seed = cases.next_u64();
        let (mut word, mut scalar) = (DetRng::seed_from(seed), DetRng::seed_from(seed));
        let draw = (mask & !sel & o0.draw) | (mask & sel & o1.draw);
        let sure = (mask & !sel & o0.sure) | (mask & sel & o1.sure);
        let hits =
            sure | word.chance_bits(draw, |b| if (sel >> b) & 1 == 1 { o1.thr } else { o0.thr });
        let expect = scalar_hits(
            &mut scalar,
            mask,
            |b| {
                if (sel >> b) & 1 == 1 {
                    p1
                } else {
                    p0
                }
            },
        );
        assert_eq!(
            hits, expect,
            "rates {p0:e}/{p1:e}, mask {mask:#x}, sel {sel:#x}"
        );
        assert_eq!(word, scalar, "rates {p0:e}/{p1:e}: streams differ");
    }
}
