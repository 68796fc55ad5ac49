//! Property-based tests for the simulation substrate.
//!
//! The word-wise Bernoulli trials ([`DetRng::chance_bits`], [`Odds`])
//! are checked on every build: cases come from a seeded [`DetRng`], and
//! every case is compared against a scalar [`DetRng::chance`] loop.
//!
//! The `proptests` module requires the external `proptest` crate: enable
//! the `proptest-tests` feature *and* add the `proptest` dev-dependency
//! once the workspace has access to a registry (the default build must
//! stay dependency-free).

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

#[cfg(feature = "proptest-tests")]
mod proptests {
    use netsim::graph::Graph;
    use netsim::metrics::{quantile_exact, Running, Series};
    use netsim::partner::{PartnerSchedule, Protocol};
    use netsim::rng::DetRng;
    use netsim::sign::Authority;
    use netsim::NodeId;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn rng_range_is_always_in_bounds(seed in any::<u64>(), n in 1u64..10_000) {
            let mut rng = DetRng::seed_from(seed);
            for _ in 0..50 {
                prop_assert!(rng.range(n) < n);
            }
        }

        #[test]
        fn rng_forks_are_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
            let parent = DetRng::seed_from(seed);
            let mut a = parent.fork(&label);
            let mut b = parent.fork(&label);
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }

        #[test]
        fn shuffle_preserves_multiset(seed in any::<u64>(),
                                      mut v in proptest::collection::vec(0u32..100, 0..50)) {
            let mut rng = DetRng::seed_from(seed);
            let mut expected = v.clone();
            rng.shuffle(&mut v);
            expected.sort_unstable();
            v.sort_unstable();
            prop_assert_eq!(v, expected);
        }

        #[test]
        fn sample_indices_always_distinct(seed in any::<u64>(), n in 1usize..200, frac in 0.0f64..1.0) {
            let k = ((n as f64) * frac) as usize;
            let mut rng = DetRng::seed_from(seed);
            let s = rng.sample_indices(n, k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            prop_assert_eq!(set.len(), s.len());
            prop_assert!(s.iter().all(|&i| i < n));
        }

        #[test]
        fn running_merge_is_order_independent(a in proptest::collection::vec(-1e6f64..1e6, 1..40),
                                              b in proptest::collection::vec(-1e6f64..1e6, 1..40)) {
            let mut ra = Running::new();
            a.iter().for_each(|&x| ra.push(x));
            let mut rb = Running::new();
            b.iter().for_each(|&x| rb.push(x));
            let mut ab = ra;
            ab.merge(&rb);
            let mut ba = rb;
            ba.merge({
                let mut r = Running::new();
                a.iter().for_each(|&x| r.push(x));
                &r.clone()
            });
            prop_assert!((ab.mean() - ba.mean()).abs() < 1e-6);
            prop_assert!((ab.variance() - ba.variance()).abs() < 1e-3);
            prop_assert_eq!(ab.len(), ba.len());
        }

        #[test]
        fn quantiles_are_monotone(data in proptest::collection::vec(-1e3f64..1e3, 1..60),
                                  q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let a = quantile_exact(&data, lo).unwrap();
            let b = quantile_exact(&data, hi).unwrap();
            prop_assert!(a <= b + 1e-9);
        }

        #[test]
        fn series_crossover_is_on_curve_range(ys in proptest::collection::vec(0.0f64..1.0, 2..30),
                                              threshold in 0.0f64..1.0) {
            let mut s = Series::new("p");
            for (i, &y) in ys.iter().enumerate() {
                s.push(i as f64, y);
            }
            if let Some(x) = s.crossover_below(threshold) {
                prop_assert!(x >= 0.0 && x <= (ys.len() - 1) as f64);
            }
        }

        #[test]
        fn erdos_renyi_graphs_are_simple(seed in any::<u64>(), n in 2u32..60, p in 0.0f64..1.0) {
            let mut rng = DetRng::seed_from(seed);
            let g = Graph::erdos_renyi(n, p, &mut rng);
            for v in g.nodes() {
                let nb = g.neighbors(v);
                prop_assert!(!nb.contains(&v.0), "no self loop");
                for w in nb.windows(2) {
                    prop_assert!(w[0] < w[1], "sorted, no duplicates");
                }
                // Symmetry.
                for &u in nb {
                    prop_assert!(g.contains_edge(NodeId(u), v));
                }
            }
        }

        #[test]
        fn grid_graphs_are_connected(rows in 1u32..8, cols in 1u32..8) {
            prop_assume!(rows * cols >= 1);
            let g = Graph::grid(rows, cols, false);
            prop_assert!(g.is_connected());
            prop_assert_eq!(g.len(), rows * cols);
        }

        #[test]
        fn partner_schedule_never_self(seed in any::<u64>(), n in 2u32..100, round in 0u64..50) {
            let s = PartnerSchedule::new(seed, n);
            for v in NodeId::all(n) {
                prop_assert_ne!(s.partner_of(v, round, Protocol::BalancedExchange), v);
            }
        }

        #[test]
        fn signatures_never_cross_verify(seed in any::<u64>(), payload in any::<u64>()) {
            let auth = Authority::new(seed, 4);
            let signed = auth.sign(NodeId(0), payload);
            // Re-attributing to any other node must fail.
            for other in 1..4u32 {
                let mut forged = signed;
                forged.signer = NodeId(other);
                prop_assert!(auth.verify(&forged).is_err());
            }
        }
    }
}
