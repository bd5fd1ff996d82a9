//! Demonstrate the ADS security layer: a hostile storage provider tries to
//! forge, omit, hide and replay records — and every attack is rejected by
//! the storage-manager contract's proof verification. A last scene runs the
//! batched engine, where a feed's round of reads is answered by one deliver
//! whose queries share one proof, and forges a value inside it.
//!
//! ```sh
//! cargo run --example adversarial_sp
//! ```

use grub::core::policy::PolicyKind;
use grub::core::provider::AdversaryMode;
use grub::core::system::{GrubSystem, SystemConfig};
use grub::engine::{EngineConfig, FeedEngine, FeedSpec};
use grub::workload::ratio::RatioWorkload;
use grub::workload::{Op, Trace, ValueSpec};

/// Delivers the contract rejected so far, over every booked epoch.
fn failed_delivers(system: &GrubSystem) -> usize {
    let reports = system.driver().reports();
    reports.iter().map(|e| e.failed_delivers).sum()
}

/// One shard, two feeds, read batching on: "quotes" writes and reads three
/// keys every epoch, so each round's delivers for it share one proof;
/// "weather" rides the same `batchDeliver`. Returns the run's outcome with
/// the quotes SP in `mode`.
fn batched_round(mode: AdversaryMode) -> Result<String, Box<dyn std::error::Error>> {
    let keys = ["quote-a", "quote-b", "quote-c"];
    let mut quotes = Trace::new();
    for (i, key) in keys.iter().enumerate() {
        quotes.ops.push(Op::Write {
            key: (*key).into(),
            value: ValueSpec::new(32, i as u64),
        });
    }
    for read in 0..29 {
        quotes.ops.push(Op::Read {
            key: keys[read % keys.len()].into(),
        });
    }
    let specs = vec![
        FeedSpec::from_source(
            "quotes",
            SystemConfig::new(PolicyKind::Bl1),
            Box::new(quotes.into_source()),
        ),
        FeedSpec::from_source(
            "weather",
            SystemConfig::new(PolicyKind::Bl1),
            Box::new(RatioWorkload::new("weather-key", 8.0).source(3)),
        ),
    ];
    let mut engine = FeedEngine::new(&EngineConfig::new(1), specs)?;
    if let Some(driver) = engine.driver_mut("quotes") {
        driver.set_adversary(mode)?;
    }
    Ok(match engine.run() {
        Ok(report) => format!(
            "served, {} deliveries rejected, {} deliver sections",
            report.failed_delivers(),
            report
                .metrics
                .iter()
                .map(|m| m.deliver_sections)
                .sum::<usize>()
        ),
        Err(err) => format!("rejected: {err}"),
    })
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

    // The batched engine: three keys' reads answered by one shared-proof
    // deliver per round, beside another feed's in one `batchDeliver`.
    let honest = batched_round(AdversaryMode::Honest)?;
    println!("\nbatched engine, honest SP:        {honest}");
    assert!(honest.starts_with("served, 0 deliveries rejected"));
    let forged = batched_round(AdversaryMode::ForgeValue)?;
    println!("batched engine, forged value:     {forged}");
    assert!(
        forged.contains("delivered value does not match proof"),
        "a forged value inside a coalesced deliver must be rejected"
    );
    Ok(())
}
