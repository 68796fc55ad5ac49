//! The scrip-system story (§1 and §4 of the paper): money is satiation,
//! so the attacker satiates agents with scrip — but the fixed money
//! supply caps how many agents he can ever satiate, and satiating the
//! *right* agents (rare-resource owners) denies a service to everyone.
//!
//! Run with: `cargo run --release --example scrip_economy`

use lotus_eater::prelude::*;
use lotus_eater::scrip_economy::ScripAttack;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A healthy threshold economy.
    let cfg = ScripConfig::builder()
        .agents(100)
        .money_per_agent(3)
        .threshold(5)
        .rounds(20_000)
        .warmup(2_000)
        .build()?;
    let healthy = run::<ScripSim>(cfg.clone(), ScripAttack::None, 1);
    println!("healthy economy: service rate {:.3}", healthy.service_rate);

    // 2. Satiate 10% of agents: cheap and effective for the attacker.
    let small = run::<ScripSim>(cfg.clone(), ScripAttack::lotus_eater(0.10, 0.5), 1);
    println!(
        "satiate 10%:     targets satiated {:.1}% of the time",
        small.target_satiation.unwrap_or(0.0) * 100.0
    );

    // 3. Try to satiate 70%: the money supply says no.
    let large = run::<ScripSim>(cfg.clone(), ScripAttack::lotus_eater(0.70, 1.0), 1);
    println!(
        "satiate 70%:     targets satiated {:.1}% of the time — locking 70 x 5 scrip",
        large.target_satiation.unwrap_or(0.0) * 100.0
    );
    println!(
        "                 needs 350 units; the whole system only has {}.",
        cfg.total_supply()
    );

    // 4. The retainer attack: satiate the three owners of a rare service.
    let rare_cfg = ScripConfig::builder()
        .agents(100)
        .money_per_agent(3)
        .threshold(5)
        .special_service(3, 0.03)
        .rounds(30_000)
        .warmup(3_000)
        .build()?;
    let clean = run::<ScripSim>(rare_cfg.clone(), ScripAttack::None, 2);
    let retained = run::<ScripSim>(rare_cfg, ScripAttack::retainer(0.3), 2);
    println!();
    println!("retainer attack on the 3 providers of a rare service:");
    println!(
        "  special-service rate: {:.3} (clean) -> {:.3} (attacked)",
        clean.special_service_rate, retained.special_service_rate
    );
    println!("  \"companies sign an exclusive contract or put particular lawyers on");
    println!("   retainer to deny others access to them\" (§1).");
    Ok(())
}
