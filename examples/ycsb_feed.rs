//! Serve a mixed YCSB workload (the paper's §5.2 macro-benchmark shape)
//! through GRuB and print the per-epoch Gas series.
//!
//! ```sh
//! cargo run --example ycsb_feed
//! ```

use grub::core::policy::PolicyKind;
use grub::core::system::{GrubSystem, SystemConfig};
use grub::workload::ycsb::{mixed_trace, preload, YcsbKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small-scale rendition of the paper's "Workload A, B" mix: two
    // phases of update-heavy A and two of read-mostly B.
    let records = 1u64 << 10;
    let record_len = 256usize;
    let dataset: Vec<(String, Vec<u8>)> = preload(records, record_len, 99)
        .into_iter()
        .map(|(k, v)| (k, v.materialize()))
        .collect();
    let trace = mixed_trace(
        records,
        record_len,
        99,
        &[
            (YcsbKind::A, 512),
            (YcsbKind::B, 512),
            (YcsbKind::A, 512),
            (YcsbKind::B, 512),
        ],
    );

    let config = SystemConfig::new(PolicyKind::Memoryless { k: 2 }).preload(dataset);
    let report = GrubSystem::run(&mut trace.source(), &config)?;

    println!("phase boundaries every 16 epochs (P1=A, P2=B, P3=A, P4=B)\n");
    println!("{:<8}{:>16}", "epoch", "feed gas/op");
    for (i, value) in report.feed_series().iter().enumerate() {
        if i % 4 == 0 {
            println!("{:<8}{:>16.1}", i, value);
        }
    }
    println!(
        "\ntotal: {} ops, {:.1} feed gas/op, {} replications, {} evictions",
        report.total_ops(),
        report.feed_gas_per_op(),
        report.transitions().0,
        report.transitions().1,
    );
    Ok(())
}
