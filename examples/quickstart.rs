//! Quickstart: run one price feed under three replication strategies and
//! compare the Gas bills.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use grub::core::policy::PolicyKind;
use grub::core::system::{GrubSystem, SystemConfig};
use grub::workload::ratio::RatioWorkload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A feed whose record is read four times per update, on average — the
    // regime where neither static placement is obviously right.
    let trace = RatioWorkload::new("ETH-USD", 4.0).generate(64);
    println!(
        "workload: {} writes, {} reads (ratio 4)\n",
        trace.write_count(),
        trace.read_count()
    );

    println!("{:<34}{:>16}{:>16}", "policy", "feed gas total", "gas/op");
    for policy in [
        PolicyKind::Bl1,
        PolicyKind::Bl2,
        PolicyKind::Memoryless { k: 2 },
        PolicyKind::Memorizing {
            k_prime: 2.0,
            d: 4.0,
        },
    ] {
        let report = GrubSystem::run(&mut trace.source(), &SystemConfig::new(policy))?;
        println!(
            "{:<34}{:>16}{:>16.1}",
            report.policy,
            report.feed_gas_total(),
            report.feed_gas_per_op()
        );
    }
    println!("\nGRuB's adaptive policies should land at or below the better baseline.");
    Ok(())
}
