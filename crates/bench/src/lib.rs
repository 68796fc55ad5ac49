//! `lotus-bench` — the figure/table regeneration harness.
//!
//! The heart of the crate is the unified runner: [`registry`] maps every
//! substrate to a named [`ScenarioSpec`](registry::ScenarioSpec) driven
//! through the `lotus_core::scenario` API, and [`runner`] is the single
//! CLI (`lotus-bench --scenario ... --attack ...`) that sweeps any of
//! them. The paper artifacts are data over that CLI: [`presets`] holds
//! one entry per artifact — `table1`, `fig1`–`fig3` reproduce the paper's
//! quantitative evaluation and `x1`–`x20` turn its §1/§3/§4 analytical
//! claims into measured experiments — each an argument list plus its
//! prose, run as `lotus-bench --preset fig1`.
//!
//! Every preset accepts `--quick` (fewer seeds and sweep points) so CI can
//! smoke-test it, plus every other runner flag (`--seeds`, `--format
//! json`, extra `--param`s), and prints the blocks the harness promises:
//! a CSV of the series, an ASCII rendering of the figure, and — where
//! paper values exist — a paper-vs-measured crossover table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod presets;
pub mod registry;
pub mod runner;
pub mod timing;

/// Sweep fidelity, selected by the `--quick` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Full sweep: paper-quality resolution (default).
    Full,
    /// Smoke-test sweep for CI.
    Quick,
}

impl Fidelity {
    /// Seeds to average over.
    pub fn seeds(self) -> usize {
        match self {
            Fidelity::Full => 5,
            Fidelity::Quick => 2,
        }
    }

    /// Points on the attacker-fraction axis over `[lo, hi]`.
    pub fn grid(self, lo: f64, hi: f64) -> Vec<f64> {
        let points = match self {
            Fidelity::Full => 21,
            Fidelity::Quick => 7,
        };
        lotus_core::sweep::grid(lo, hi, points)
    }

    /// Timed iterations per scenario in `--bench` mode.
    pub fn bench_iters(self) -> u32 {
        match self {
            Fidelity::Full => 12,
            Fidelity::Quick => 3,
        }
    }

    /// Untimed warmup runs per scenario in `--bench` mode.
    pub fn bench_warmup(self) -> u32 {
        match self {
            Fidelity::Full => 3,
            Fidelity::Quick => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_parameters() {
        assert_eq!(Fidelity::Full.seeds(), 5);
        assert_eq!(Fidelity::Quick.seeds(), 2);
        assert_eq!(Fidelity::Quick.grid(0.0, 1.0).len(), 7);
        assert_eq!(Fidelity::Full.grid(0.0, 1.0).len(), 21);
    }
}
