//! Demonstrate the ADS security layer: a hostile storage provider tries to
//! forge, omit, hide and replay records — and every attack is rejected by
//! the storage-manager contract's proof verification.
//!
//! ```sh
//! cargo run --example adversarial_sp
//! ```

use grub::core::policy::PolicyKind;
use grub::core::provider::AdversaryMode;
use grub::core::system::{GrubSystem, SystemConfig};
use grub::workload::{Op, Trace, ValueSpec};

/// Delivers the contract rejected so far, over every booked epoch.
fn failed_delivers(system: &GrubSystem) -> usize {
    let reports = system.driver().reports();
    reports.iter().map(|e| e.failed_delivers).sum()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for (mode, label) in [
        (AdversaryMode::ForgeValue, "forge record values"),
        (AdversaryMode::OmitRecord, "omit a requested record"),
        (
            AdversaryMode::HideLeaf,
            "hide a leaf behind an opaque digest",
        ),
        (AdversaryMode::ReplayStale, "replay a stale snapshot"),
    ] {
        let config = SystemConfig::new(PolicyKind::Bl1);
        let mut system = GrubSystem::new(&config)?;
        // Feed one record and let the first epoch settle honestly.
        let mut warmup = Trace::new();
        warmup.ops.push(Op::Write {
            key: "price".into(),
            value: ValueSpec::new(32, 7),
        });
        for _ in 0..31 {
            warmup.ops.push(Op::Read {
                key: "price".into(),
            });
        }
        system.drive(&mut warmup.source())?;
        let honest_failures = failed_delivers(&system);

        // Turn the SP hostile; update the record so ReplayStale has
        // something stale to serve; then read again.
        system.driver_mut().set_adversary(mode)?;
        let mut attack = Trace::new();
        attack.ops.push(Op::Write {
            key: "price".into(),
            value: ValueSpec::new(32, 8),
        });
        for _ in 0..31 {
            attack.ops.push(Op::Read {
                key: "price".into(),
            });
        }
        system.drive(&mut attack.source())?;
        let total_failures = failed_delivers(&system);

        println!(
            "{label:<42} honest deliveries rejected: {honest_failures}, \
             attack deliveries rejected: {}",
            total_failures - honest_failures
        );
        assert_eq!(honest_failures, 0);
        assert!(total_failures > 0, "attack must be caught");
    }
    println!("\nall four attack classes were rejected by on-chain proof verification");
    Ok(())
}
