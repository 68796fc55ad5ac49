//! The §3 abstract model `(G, T, sat, f, c, a)` hands-on: Observation 3.1,
//! a grid-cut attack, and the healing power of a little altruism.
//!
//! Run with: `cargo run --release --example token_playground`

use lotus_eater::lotus_core::token::{Allocation, TokenSystemConfig};
use lotus_eater::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Observation 3.1, executed: feed a node tokens "sufficiently rapidly"
    // and it never provides service again.
    let cfg = TokenSystemConfig::builder(Graph::complete(30))
        .tokens(12)
        .build()?;
    let mut sys = TokenSystem::new(cfg, 1);
    let report = observation_3_1(&mut sys, NodeId(5), 50);
    println!("Observation 3.1 on a satiation-compatible system:");
    println!(
        "  target stayed satiated every round: {} / service provided during: {}",
        report.always_satiated, report.service_during
    );
    println!("  => the observation holds: {}\n", report.holds);

    // The same experiment with altruism a = 0.3: not satiation-compatible,
    // the observation must fail.
    let cfg = TokenSystemConfig::builder(Graph::complete(30))
        .tokens(12)
        .altruism(0.3)
        .build()?;
    let mut sys = TokenSystem::new(cfg, 1);
    let report = observation_3_1(&mut sys, NodeId(5), 50);
    println!("Same experiment with altruism a = 0.3:");
    println!(
        "  satiated throughout: {}, yet service provided: {} => holds: {}\n",
        report.always_satiated, report.service_during, report.holds
    );

    // A cut attack on a grid: satiate one column, starve the far side.
    let (rows, cols) = (6u32, 10u32);
    let grid = Graph::grid(rows, cols, false);
    let cfg = TokenSystemConfig::builder(grid)
        .tokens(10)
        .allocation(Allocation::Explicit({
            // Token 0 lives only in the left half.
            let mut lists = vec![vec![NodeId(0), NodeId(cols + 1)]];
            for t in 1..10u32 {
                lists.push(vec![NodeId(t), NodeId(rows * cols - 1 - t)]);
            }
            lists
        }))
        .build()?;
    let cut = TokenAttack::cut(SatiateCut::grid_column(rows, cols, cols / 2));
    let mut sys = TokenSystem::build(TokenScenarioConfig::new(cfg, 150), cut, 3);
    let attacked = Scenario::finish(&mut sys);
    println!(
        "Grid {rows}x{cols}, column {} satiated ({} nodes): untouched coverage {:.3}",
        cols / 2,
        rows,
        attacked.untouched_mean_coverage()
    );
    let right_denied = (0..rows)
        .flat_map(|r| (cols / 2 + 1..cols).map(move |c| NodeId(r * cols + c)))
        .filter(|&v| !sys.holdings(v).contains(0))
        .count();
    println!(
        "  right-of-cut nodes denied the left-only token: {right_denied} of {}\n",
        (rows * (cols - cols / 2 - 1))
    );

    // Altruism sweep: even tiny a restores eventual completion.
    println!("Altruism a vs rounds to global satiation (ring of 40, no attack):");
    for a in [0.0, 0.05, 0.2, 0.5] {
        let cfg = TokenSystemConfig::builder(Graph::cycle(40))
            .tokens(6)
            .altruism(a)
            .build()?;
        let cfg = TokenScenarioConfig::new(cfg, 2_000);
        let report = run::<TokenSystem>(cfg, TokenAttack::none(), 9);
        match report.all_satiated_at {
            Some(t) => println!("  a = {a:>4}: all satiated by round {t}"),
            None => println!(
                "  a = {a:>4}: stuck after {} rounds (coverage {:.3}) — satiation trap",
                report.rounds,
                report.mean_coverage()
            ),
        }
    }
    Ok(())
}
