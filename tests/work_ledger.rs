//! The work ledger: SHA-256 compressions counted over two engine runs,
//! pinned as constants.
//!
//! `grub_crypto::compressions()` counts 64-byte blocks, not time, so it
//! depends only on the bytes hashed: the same run counts the same on every
//! machine and under either compression kernel. A change that hashes more
//! or less — one more inner hash per flush, a proof that grew a level, a
//! block digest over more bytes — moves these numbers even when no digest,
//! root or Gas figure does. Like the goldens, a PR that moves one must say
//! why.
//!
//! Two runs, picked for where their hashing happens: the sorted YCSB-A
//! feed is Merkle-heavy (DO flush, SP sync, proofs, the on-chain
//! verifier), the eight-feed fleet under reorgs is block-digest-heavy
//! (many small blocks, forks mined and rolled back).

use grub::chain::ChainConfig;
use grub::core::policy::PolicyKind;
use grub::core::system::SystemConfig;
use grub::crypto::compressions;
use grub::engine::specs::{demo_policies, zipfian_ratio_specs, DEMO_RATIOS};
use grub::engine::{EngineConfig, FeedEngine, FeedSpec};
use grub::workload::ycsb::{preload, YcsbKind, YcsbRunner};

/// Compressions one engine run spends.
#[derive(Debug, PartialEq, Eq)]
struct Ledger {
    /// Building the engine: deploying every feed (preload trees included).
    deploy: u64,
    /// The sum of the per-round `EpochMetrics::sha256_compressions`.
    rounds: u64,
    /// The whole run, from before `FeedEngine::new` to the report.
    total: u64,
}

fn ledger(config: &EngineConfig, specs: Vec<FeedSpec>) -> Ledger {
    let start = compressions();
    let engine = FeedEngine::new(config, specs).expect("engine builds");
    let deployed = compressions();
    let (report, _chain) = engine.run_with_chain().expect("engine runs");
    assert_eq!(report.failed_delivers(), 0);
    Ledger {
        deploy: deployed - start,
        rounds: report.metrics.iter().map(|m| m.sha256_compressions).sum(),
        total: compressions() - start,
    }
}

/// YCSB-A epochs under Memoryless K=2 over 4,096 sorted 64-byte records,
/// preloaded NR — the `golden_digests` bulk-loaded run.
fn ycsb_a_sorted() -> Ledger {
    const RECORDS: u64 = 4096;
    const RECORD_LEN: usize = 64;
    const SEED: u64 = 11;
    let dataset: Vec<(String, Vec<u8>)> = preload(RECORDS, RECORD_LEN, SEED)
        .into_iter()
        .map(|(key, value)| (key, value.materialize()))
        .collect();
    let source = YcsbRunner::new(RECORDS, RECORD_LEN, SEED).into_source(vec![(YcsbKind::A, 1536)]);
    let spec = FeedSpec::from_source(
        "ycsb",
        SystemConfig::new(PolicyKind::Memoryless { k: 2 })
            .epoch_ops(32)
            .preload(dataset),
        Box::new(source),
    );
    ledger(&EngineConfig::new(1), vec![spec])
}

/// Eight one-key feeds on two shards, full batching, reorgs and depth-3
/// confirmation — the `golden_digests` reorg fleet.
fn reorg_fleet() -> Ledger {
    let mut config = EngineConfig::new(2);
    config.chain = ChainConfig::default().reorg(7, 5, 2).confirm_depth(3);
    let mut specs = zipfian_ratio_specs(8, 1600, DEMO_RATIOS, &demo_policies());
    for spec in specs.iter_mut().skip(1).step_by(4) {
        spec.config = spec.config.clone().live_reads();
    }
    ledger(&config, specs)
}

#[test]
fn ycsb_a_sorted_run_compressions() {
    let first = ycsb_a_sorted();
    assert_eq!(
        first,
        ycsb_a_sorted(),
        "two identical runs counted differently"
    );
    assert_eq!(
        first,
        Ledger {
            deploy: 40_967,
            rounds: 60_057,
            total: 101_025,
        }
    );
}

#[test]
fn reorg_fleet_compressions() {
    let first = reorg_fleet();
    assert_eq!(
        first,
        reorg_fleet(),
        "two identical runs counted differently"
    );
    assert_eq!(
        first,
        Ledger {
            deploy: 89,
            rounds: 10_700,
            total: 10_790,
        }
    );
}
