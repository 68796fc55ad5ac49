//! Property tests for the simulation substrate (`netsim`): rng ranges,
//! forks, shuffles and samples, the running and quantile metrics, the
//! graph builders and the partner schedule, on the
//! dependency-free [`proptest_lite`](lotus_core::proptest_lite) harness.
//! They live here because `netsim` cannot take a dev-dependency on the
//! crate built on top of it; its own `tests/properties.rs` keeps the
//! word-wise Bernoulli trial checks.
//!
//! Every property runs 256 cases. Seeds and payloads come from each
//! case's derived stream ([`Draw::rng`]); sizes, lengths and values are
//! shrinkable draws.

use lotus_core::proptest_lite::{check, Draw};
use netsim::graph::Graph;
use netsim::metrics::{quantile_exact, Running, Series};
use netsim::partner::{PartnerSchedule, Protocol};
use netsim::NodeId;

const CASES: u64 = 256;

/// A draw uniform in `[lo, hi)`.
fn real(d: &mut Draw, name: &'static str, lo: f64, hi: f64) -> f64 {
    lo + d.ratio(name) * (hi - lo)
}

/// `len ∈ [min_len, max_len]` draws from `[lo, hi)`.
fn reals(
    d: &mut Draw,
    name: &'static str,
    (min_len, max_len): (i64, i64),
    (lo, hi): (f64, f64),
) -> Vec<f64> {
    let len = d.int("len", min_len, max_len);
    (0..len).map(|_| real(d, name, lo, hi)).collect()
}

#[test]
fn rng_range_is_always_in_bounds() {
    check("netsim::rng_range_in_bounds", CASES, |d| {
        let n = d.int("n", 1, 9_999) as u64;
        let mut rng = d.rng("seed");
        for _ in 0..50 {
            let r = rng.range(n);
            if r >= n {
                return Err(format!("range({n}) drew {r}"));
            }
        }
        Ok(())
    });
}

#[test]
fn rng_forks_are_reproducible() {
    check("netsim::rng_forks_reproducible", CASES, |d| {
        let len = d.int("label_len", 1, 12);
        let label: String = (0..len)
            .map(|_| char::from(b'a' + d.int("label_char", 0, 25) as u8))
            .collect();
        let parent = d.rng("seed");
        let (mut a, mut b) = (parent.fork(&label), parent.fork(&label));
        if a.next_u64() != b.next_u64() {
            return Err(format!("fork({label:?}) is not reproducible"));
        }
        Ok(())
    });
}

#[test]
fn shuffle_preserves_multiset() {
    check("netsim::shuffle_preserves_multiset", CASES, |d| {
        let len = d.int("len", 0, 49);
        let mut v: Vec<u32> = (0..len).map(|_| d.int("v", 0, 99) as u32).collect();
        let mut expected = v.clone();
        d.rng("seed").shuffle(&mut v);
        expected.sort_unstable();
        v.sort_unstable();
        if v != expected {
            return Err(format!(
                "shuffle changed the multiset: {v:?} vs {expected:?}"
            ));
        }
        Ok(())
    });
}

#[test]
fn sample_indices_always_distinct() {
    check("netsim::sample_indices_distinct", CASES, |d| {
        let n = d.int("n", 1, 199) as usize;
        let k = ((n as f64) * d.ratio("frac")) as usize;
        let mut s = d.rng("seed").sample_indices(n, k);
        if s.iter().any(|&i| i >= n) {
            return Err(format!("sample_indices({n}, {k}) left the range: {s:?}"));
        }
        let drawn = s.len();
        s.sort_unstable();
        s.dedup();
        if s.len() != drawn {
            return Err(format!("sample_indices({n}, {k}) repeated an index"));
        }
        Ok(())
    });
}

#[test]
fn running_merge_is_order_independent() {
    check("netsim::running_merge_order_free", CASES, |d| {
        let a = reals(d, "a", (1, 39), (-1e6, 1e6));
        let b = reals(d, "b", (1, 39), (-1e6, 1e6));
        let running = |xs: &[f64]| {
            let mut r = Running::new();
            xs.iter().for_each(|&x| r.push(x));
            r
        };
        let mut ab = running(&a);
        ab.merge(&running(&b));
        let mut ba = running(&b);
        ba.merge(&running(&a));
        if (ab.mean() - ba.mean()).abs() >= 1e-6
            || (ab.variance() - ba.variance()).abs() >= 1e-3
            || ab.len() != ba.len()
        {
            return Err(format!(
                "a+b = ({}, {}, {}), b+a = ({}, {}, {})",
                ab.mean(),
                ab.variance(),
                ab.len(),
                ba.mean(),
                ba.variance(),
                ba.len()
            ));
        }
        Ok(())
    });
}

#[test]
fn quantiles_are_monotone() {
    check("netsim::quantiles_monotone", CASES, |d| {
        let data = reals(d, "x", (1, 59), (-1e3, 1e3));
        let (q1, q2) = (d.ratio("q1"), d.ratio("q2"));
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let a = quantile_exact(&data, lo).expect("non-empty data");
        let b = quantile_exact(&data, hi).expect("non-empty data");
        if a > b + 1e-9 {
            return Err(format!("q({lo}) = {a} > q({hi}) = {b}"));
        }
        Ok(())
    });
}

#[test]
fn series_crossover_is_on_curve_range() {
    check("netsim::series_crossover_in_range", CASES, |d| {
        let ys = reals(d, "y", (2, 29), (0.0, 1.0));
        let threshold = d.ratio("threshold");
        let mut s = Series::new("p");
        for (i, &y) in ys.iter().enumerate() {
            s.push(i as f64, y);
        }
        match s.crossover_below(threshold) {
            Some(x) if !(0.0..=(ys.len() - 1) as f64).contains(&x) => {
                Err(format!("crossover {x} off the curve's x range"))
            }
            _ => Ok(()),
        }
    });
}

#[test]
fn erdos_renyi_graphs_are_simple() {
    check("netsim::erdos_renyi_simple", CASES, |d| {
        let n = d.int("n", 2, 59) as u32;
        let p = d.ratio("p");
        let g = Graph::erdos_renyi(n, p, &mut d.rng("seed"));
        for v in g.nodes() {
            let nb = g.neighbors(v);
            if nb.contains(&v.0) {
                return Err(format!("self loop at {}", v.0));
            }
            if nb.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("neighbors of {} unsorted or repeated", v.0));
            }
            if let Some(&u) = nb.iter().find(|&&u| !g.contains_edge(NodeId(u), v)) {
                return Err(format!("edge {}-{u} is one-way", v.0));
            }
        }
        Ok(())
    });
}

#[test]
fn grid_graphs_are_connected() {
    check("netsim::grid_connected", CASES, |d| {
        let (rows, cols) = (d.int("rows", 1, 7) as u32, d.int("cols", 1, 7) as u32);
        let g = Graph::grid(rows, cols, false);
        if !g.is_connected() || g.len() != rows * cols {
            return Err(format!(
                "{rows}x{cols} grid: connected {}, {} nodes",
                g.is_connected(),
                g.len()
            ));
        }
        Ok(())
    });
}

#[test]
fn partner_schedule_never_self() {
    check("netsim::partner_never_self", CASES, |d| {
        let n = d.int("n", 2, 99) as u32;
        let round = d.int("round", 0, 49) as u64;
        let s = PartnerSchedule::new(d.rng("seed").next_u64(), n);
        match NodeId::all(n).find(|&v| s.partner_of(v, round, Protocol::BalancedExchange) == v) {
            Some(v) => Err(format!("node {} partnered itself in round {round}", v.0)),
            None => Ok(()),
        }
    });
}
