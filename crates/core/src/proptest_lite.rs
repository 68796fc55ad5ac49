//! A dependency-free mini property-test harness.
//!
//! The workspace builds with zero external dependencies by design, so
//! its property suites cannot use the `proptest` crate. This module
//! supplies the two things they need — a *seeded case generator* and a
//! *shrinker* — in ~200 lines over the workspace's own [`DetRng`]. Every
//! property suite of the workspace runs on it, inside `cargo test`:
//!
//! * [`check`] runs a property over `cases` deterministically generated
//!   inputs. The property draws its inputs through [`Draw`]
//!   ([`Draw::int`] / [`Draw::ratio`]) and returns `Err(reason)` on
//!   violation.
//! * On failure the harness *shrinks by halving*: each recorded scalar is
//!   repeatedly halved toward its lower bound (integers toward `lo`,
//!   ratios toward `0.0`) while the property keeps failing, one position
//!   at a time, until no single shrink reproduces the failure (integers
//!   additionally try their predecessor, so the minimum is exact). The
//!   panic message names the minimal counterexample's draws, so the
//!   failing case can be pasted into a focused regression test.
//!
//! Determinism: case `k` of property `name` always draws the same values
//! (the stream is keyed on both), so failures replay across machines and
//! thread counts with no seed bookkeeping.
//!
//! ```
//! use lotus_core::proptest_lite::check;
//!
//! check("halving keeps order", 50, |d| {
//!     let n = d.int("n", 0, 1_000);
//!     if n / 2 <= n {
//!         Ok(())
//!     } else {
//!         Err(format!("{n}/2 > {n}"))
//!     }
//! });
//! ```

use netsim::rng::{mix_label, DetRng};

/// One recorded draw: the value plus the lower bound shrinking may not
/// cross.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scalar {
    /// An integer drawn from `[lo, hi]`; shrinks by halving toward `lo`.
    Int {
        /// Drawn (or overridden) value.
        value: i64,
        /// Inclusive lower bound.
        lo: i64,
    },
    /// A ratio drawn from `[0, 1]`; shrinks by halving toward `0.0`.
    Ratio {
        /// Drawn (or overridden) value.
        value: f64,
    },
}

impl Scalar {
    /// Shrink candidates, most aggressive first: the bound itself, the
    /// halfway point, and (for integers) the predecessor — so halving
    /// converges fast and the final linear steps land *exactly* on the
    /// smallest failing value.
    fn shrunk(self) -> Vec<Scalar> {
        let mut out = Vec::new();
        match self {
            Scalar::Int { value, lo } => {
                for v in [lo, lo + (value - lo) / 2, value - 1] {
                    if v < value
                        && !out
                            .iter()
                            .any(|s| matches!(s, Scalar::Int { value, .. } if *value == v))
                    {
                        out.push(Scalar::Int { value: v, lo });
                    }
                }
            }
            Scalar::Ratio { value } => {
                if value > 0.0 {
                    out.push(Scalar::Ratio { value: 0.0 });
                    if value >= 1e-6 {
                        out.push(Scalar::Ratio { value: value / 2.0 });
                    }
                }
            }
        }
        out
    }

    fn describe(self) -> String {
        match self {
            Scalar::Int { value, .. } => value.to_string(),
            Scalar::Ratio { value } => format!("{value}"),
        }
    }
}

/// The input source a property draws from. Every draw is recorded (for
/// shrinking) and named (for the failure report).
pub struct Draw {
    rng: DetRng,
    /// Values forced by the shrinker, by draw position. Draws beyond the
    /// overridden prefix fall back to the rng stream, which is consumed
    /// identically either way so later draws stay aligned.
    overrides: Vec<Scalar>,
    drawn: Vec<(&'static str, Scalar)>,
}

impl Draw {
    fn new(property: &str, case: u64, overrides: Vec<Scalar>) -> Self {
        Draw {
            rng: DetRng::seed_from(mix_label(property)).fork_idx("case", case),
            overrides,
            drawn: Vec::new(),
        }
    }

    /// An integer in `[lo, hi]` (inclusive). Shrinks toward `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int(&mut self, name: &'static str, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "draw {name}: empty range [{lo}, {hi}]");
        // Always consume the stream so overridden replays keep later
        // draws aligned with the original run.
        let span = (hi - lo) as u64 + 1;
        let fresh = lo + self.rng.range(span) as i64;
        let value = match self.overrides.get(self.drawn.len()) {
            Some(&Scalar::Int { value, .. }) => value.clamp(lo, hi),
            _ => fresh,
        };
        self.drawn.push((name, Scalar::Int { value, lo }));
        value
    }

    /// A ratio in `[0, 1]`. Shrinks toward `0.0`.
    pub fn ratio(&mut self, name: &'static str) -> f64 {
        let fresh = self.rng.f64();
        let value = match self.overrides.get(self.drawn.len()) {
            Some(&Scalar::Ratio { value }) => value.clamp(0.0, 1.0),
            _ => fresh,
        };
        self.drawn.push((name, Scalar::Ratio { value }));
        value
    }

    /// A deterministic rng fork for the property's own use (seeding the
    /// system under test). Not recorded: it is derived state, not a
    /// shrinkable parameter.
    pub fn rng(&self, label: &str) -> DetRng {
        self.rng.fork(label)
    }
}

fn describe(drawn: &[(&'static str, Scalar)]) -> String {
    let parts: Vec<String> = drawn
        .iter()
        .map(|(name, s)| format!("{name}={}", s.describe()))
        .collect();
    parts.join(", ")
}

/// Run `prop` against `cases` generated inputs; shrink and panic on the
/// first failure.
///
/// The property draws inputs through the provided [`Draw`] and returns
/// `Err(reason)` to signal a violation. Failures are shrunk by halving
/// (see the module docs) before panicking, and the panic message carries
/// the minimal case's named draws.
///
/// # Panics
///
/// Panics — with the shrunk counterexample — when the property fails.
pub fn check<F>(property: &str, cases: u64, mut prop: F)
where
    F: FnMut(&mut Draw) -> Result<(), String>,
{
    for case in 0..cases {
        let mut d = Draw::new(property, case, Vec::new());
        if let Err(reason) = prop(&mut d) {
            let original = describe(&d.drawn);
            let (drawn, reason) = shrink(property, case, d.drawn, reason, &mut prop);
            panic!(
                "property {property:?} failed on case {case}/{cases}\n  \
                 reason:   {reason}\n  \
                 minimal:  {}\n  \
                 original: {original}",
                describe(&drawn),
            );
        }
    }
}

/// Shrink a failing draw vector by halving one position at a time,
/// restarting the scan after every accepted shrink, until no single
/// halving still fails (or a generous step budget runs out).
fn shrink<F>(
    property: &str,
    case: u64,
    mut drawn: Vec<(&'static str, Scalar)>,
    mut reason: String,
    prop: &mut F,
) -> (Vec<(&'static str, Scalar)>, String)
where
    F: FnMut(&mut Draw) -> Result<(), String>,
{
    let mut budget = 2_000u32;
    'scan: while budget > 0 {
        for pos in 0..drawn.len() {
            for candidate in drawn[pos].1.shrunk() {
                if budget == 0 {
                    break 'scan;
                }
                budget -= 1;
                let mut overrides: Vec<Scalar> = drawn.iter().map(|&(_, s)| s).collect();
                overrides[pos] = candidate;
                let mut d = Draw::new(property, case, overrides);
                if let Err(new_reason) = prop(&mut d) {
                    // Still failing with the smaller value: keep it. The
                    // replay's own record wins (the draw structure may
                    // have changed shape under the new value).
                    drawn = d.drawn;
                    reason = new_reason;
                    continue 'scan;
                }
            }
        }
        break; // full scan with no accepted shrink: minimal
    }
    (drawn, reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_draws_in_range() {
        check("ranges respected", 300, |d| {
            let n = d.int("n", 3, 17);
            let r = d.ratio("r");
            if (3..=17).contains(&n) && (0.0..=1.0).contains(&r) {
                Ok(())
            } else {
                Err(format!("out of range: n={n} r={r}"))
            }
        });
    }

    #[test]
    fn cases_are_deterministic() {
        let collect = || {
            let mut seen = Vec::new();
            check("determinism probe", 20, |d| {
                seen.push((d.int("a", 0, 1_000), d.ratio("b")));
                Ok(())
            });
            seen
        };
        assert_eq!(collect(), collect(), "same property name, same cases");
    }

    #[test]
    fn failure_shrinks_to_the_boundary() {
        // Fails whenever n >= 10: the minimal failing value halves down
        // to exactly 10.
        let caught = std::panic::catch_unwind(|| {
            check("shrinks to bound", 200, |d| {
                let n = d.int("n", 0, 1_000);
                if n >= 10 {
                    Err(format!("n={n} crossed 10"))
                } else {
                    Ok(())
                }
            });
        });
        let msg = match caught {
            Ok(()) => panic!("property should have failed"),
            Err(e) => *e.downcast::<String>().expect("string panic"),
        };
        assert!(
            msg.contains("minimal:  n=10"),
            "halving should stop exactly at the boundary, got:\n{msg}"
        );
    }

    #[test]
    fn ratio_failures_shrink_toward_zero() {
        let caught = std::panic::catch_unwind(|| {
            check("ratio shrink", 50, |d| {
                let r = d.ratio("r");
                if r > 0.25 {
                    Err(format!("r={r} > 0.25"))
                } else {
                    Ok(())
                }
            });
        });
        let msg = match caught {
            Ok(()) => panic!("property should have failed"),
            Err(e) => *e.downcast::<String>().expect("string panic"),
        };
        // Halving from the failing draw lands in (0.25, 0.5].
        let min: f64 = msg
            .split("minimal:  r=")
            .nth(1)
            .and_then(|s| s.split('\n').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("minimal ratio in message");
        assert!(
            min > 0.25 && min <= 0.5,
            "one more halving would pass: {min}"
        );
    }

    #[test]
    fn derived_rng_is_stable_per_case() {
        check("derived rng", 5, |d| {
            let mut a = d.rng("sim");
            let mut b = d.rng("sim");
            if a.next_u64() == b.next_u64() {
                Ok(())
            } else {
                Err("same label, same stream".to_string())
            }
        });
    }
}
