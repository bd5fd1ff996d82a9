//! Cross-crate integration tests: the full GRuB stack driven by real
//! workloads, including the paper's headline behaviours.

use grub::core::policy::PolicyKind;
use grub::core::provider::AdversaryMode;
use grub::core::system::{GrubSystem, SystemConfig};
use grub::merkle::ReplState;
use grub::workload::oracle::OracleTrace;
use grub::workload::ratio::RatioWorkload;
use grub::workload::ycsb::{self, YcsbKind};
use grub::workload::{Op, Trace, ValueSpec};

fn run(trace: &Trace, policy: PolicyKind) -> grub::core::metrics::RunReport {
    GrubSystem::run(&mut trace.source(), &SystemConfig::new(policy)).expect("run")
}

fn run_live(trace: &Trace, policy: PolicyKind) -> grub::core::metrics::RunReport {
    GrubSystem::run(&mut trace.source(), &SystemConfig::new(policy).live_reads()).expect("run")
}

/// The headline claim: on the oracle-style trace GRuB beats both static
/// baselines (paper Table 3 reports +64% for BL1 and +11% for BL2 over
/// GRuB).
#[test]
fn grub_beats_both_baselines_on_oracle_trace() {
    // §4.1 tempo: each peek() arrives in its own block (live replay).
    let trace = OracleTrace::new().writes(300).generate();
    let grub = run_live(&trace, PolicyKind::Memoryless { k: 1 });
    let bl1 = run_live(&trace, PolicyKind::Bl1);
    let bl2 = run_live(&trace, PolicyKind::Bl2);
    assert!(
        grub.feed_gas_total() < bl1.feed_gas_total(),
        "GRuB {} must beat BL1 {}",
        grub.feed_gas_total(),
        bl1.feed_gas_total()
    );
    assert!(
        grub.feed_gas_total() < bl2.feed_gas_total(),
        "GRuB {} must beat BL2 {}",
        grub.feed_gas_total(),
        bl2.feed_gas_total()
    );
}

/// Figure 7's crossover: BL1 wins write-heavy, BL2 wins read-heavy, and the
/// crossover ratio sits in the paper's low-single-digit region.
#[test]
fn baseline_crossover_is_low_single_digits() {
    let at = |ratio: f64| {
        let trace = RatioWorkload::new("k", ratio).generate(64);
        let bl1 = run(&trace, PolicyKind::Bl1).feed_gas_per_op();
        let bl2 = run(&trace, PolicyKind::Bl2).feed_gas_per_op();
        (bl1, bl2)
    };
    let (bl1_low, bl2_low) = at(0.5);
    assert!(bl1_low < bl2_low, "write-heavy: BL1 must win");
    let (bl1_high, bl2_high) = at(16.0);
    assert!(bl2_high < bl1_high, "read-heavy: BL2 must win");
}

/// GRuB's convergence (Figure 6 behaviour): when the workload flips from
/// write-heavy to read-heavy, the replica state follows.
#[test]
fn grub_adapts_to_phase_change() {
    let mut trace = RatioWorkload::new("k", 0.125).generate(32);
    trace.extend(RatioWorkload::new("k", 32.0).generate(16));
    let config = SystemConfig::new(PolicyKind::Memoryless { k: 2 });
    let mut system = GrubSystem::new(&config).expect("system");
    system.drive(&mut trace.source()).expect("drive");
    assert_eq!(
        system.driver().owner().state_of("k"),
        ReplState::Replicated,
        "after the read-heavy phase the record must be replicated"
    );
    let report = system.into_report();
    // The last epochs (read-heavy, replicated) must be far cheaper per op
    // than the early read epochs that paid deliver costs.
    let series = report.feed_series();
    let early_reads = series[series.len() / 2];
    let late = *series.last().expect("non-empty");
    assert!(
        late < early_reads,
        "converged epochs ({late}) must be cheaper than transition epochs ({early_reads})"
    );
}

/// Every adversarial SP behaviour is rejected by on-chain verification and
/// the honest path stays clean.
/// Delivers the contract rejected so far, over every booked epoch.
fn failed_delivers(system: &GrubSystem) -> usize {
    let reports = system.driver().reports();
    reports.iter().map(|e| e.failed_delivers).sum()
}

#[test]
fn adversarial_sp_modes_are_all_rejected() {
    for mode in [
        AdversaryMode::ForgeValue,
        AdversaryMode::OmitRecord,
        AdversaryMode::HideLeaf,
        AdversaryMode::ReplayStale,
    ] {
        let config = SystemConfig::new(PolicyKind::Bl1);
        let mut system = GrubSystem::new(&config).expect("system");
        let mut warmup = Trace::new();
        warmup.ops.push(Op::Write {
            key: "k".into(),
            value: ValueSpec::new(64, 1),
        });
        for _ in 0..31 {
            warmup.ops.push(Op::Read { key: "k".into() });
        }
        system.drive(&mut warmup.source()).expect("honest warmup");
        assert_eq!(
            failed_delivers(&system),
            0,
            "{mode:?}: honest phase must not fail"
        );
        system
            .driver_mut()
            .set_adversary(mode)
            .expect("adversary mode set");
        let mut attack = Trace::new();
        attack.ops.push(Op::Write {
            key: "k".into(),
            value: ValueSpec::new(64, 2),
        });
        for _ in 0..31 {
            attack.ops.push(Op::Read { key: "k".into() });
        }
        system
            .drive(&mut attack.source())
            .expect("attack phase runs");
        let failed = failed_delivers(&system);
        assert!(failed > 0, "{mode:?} must be rejected by the contract");
    }
}

/// The DO's monitor reconstructs exactly the reads the consumers issued
/// (trace federation, §3.2).
#[test]
fn monitor_federation_is_lossless() {
    let trace = OracleTrace::new().writes(50).generate();
    let config = SystemConfig::new(PolicyKind::Memoryless { k: 2 });
    let mut system = GrubSystem::new(&config).expect("system");
    system.drive(&mut trace.source()).expect("drive");
    let observed = system.federated_read_keys();
    assert_eq!(observed.len(), trace.read_count());
}

/// A YCSB A/B mix runs end to end with scans and inserts, and GRuB lands at
/// or below the worse baseline.
#[test]
fn ycsb_mix_with_scans_runs_clean() {
    let records = 1u64 << 8;
    let record_len = 64usize;
    let preload: Vec<(String, Vec<u8>)> = ycsb::preload(records, record_len, 3)
        .into_iter()
        .map(|(k, v)| (k, v.materialize()))
        .collect();
    let trace = ycsb::mixed_trace(
        records,
        record_len,
        3,
        &[(YcsbKind::A, 256), (YcsbKind::E, 128), (YcsbKind::B, 256)],
    );
    let mut worst = 0u64;
    let mut grub_total = u64::MAX;
    for policy in [
        PolicyKind::Bl1,
        PolicyKind::Bl2,
        PolicyKind::Memoryless { k: 2 },
    ] {
        let config = SystemConfig::new(policy.clone()).preload(preload.clone());
        let report = GrubSystem::run(&mut trace.source(), &config).expect("run");
        assert_eq!(report.failed_delivers(), 0, "{policy:?}");
        if matches!(policy, PolicyKind::Memoryless { .. }) {
            grub_total = report.feed_gas_total();
        } else {
            worst = worst.max(report.feed_gas_total());
        }
    }
    assert!(
        grub_total < worst,
        "GRuB ({grub_total}) must beat the worse static baseline ({worst})"
    );
}

/// SP and DO mirror trees stay root-synchronized across a churny run with
/// replications and evictions.
#[test]
fn sp_and_do_roots_stay_in_lockstep() {
    let mut trace = RatioWorkload::new("a", 8.0).generate(16);
    trace.extend(RatioWorkload::new("b", 0.25).generate(16));
    trace.extend(RatioWorkload::new("a", 0.0).generate(16));
    let config = SystemConfig::new(PolicyKind::Memoryless { k: 2 });
    let mut system = GrubSystem::new(&config).expect("system");
    system.drive(&mut trace.source()).expect("drive");
    let driver = system.driver();
    assert_eq!(driver.owner().root(), driver.provider().root());
}

/// Reads of keys that were never written deliver verified absence instead
/// of wedging the pipeline.
#[test]
fn reading_absent_keys_is_safe() {
    let config = SystemConfig::new(PolicyKind::Memoryless { k: 2 });
    let mut system = GrubSystem::new(&config).expect("system");
    let mut trace = Trace::new();
    trace.ops.push(Op::Write {
        key: "exists".into(),
        value: ValueSpec::new(32, 1),
    });
    for _ in 0..8 {
        trace.ops.push(Op::Read {
            key: "ghost".into(),
        });
    }
    system.drive(&mut trace.source()).expect("drive");
    let report = system.into_report();
    assert_eq!(report.failed_delivers(), 0);
}

/// One mined `update()` chunk: its digest and each item's size as the
/// chunking rule counts it (a pair `key + value + 16`, a `toNR` key
/// `key + 8`), in payload order, plus its `toR` count.
struct UpdateChunk {
    digest: grub::crypto::Hash32,
    sizes: Vec<usize>,
    to_r: u64,
}

fn decode_update_chunk(input: &[u8]) -> UpdateChunk {
    let mut dec = grub::chain::codec::Decoder::new(input);
    let digest = dec.hash().unwrap();
    let mut sizes = Vec::new();
    let mut counts = Vec::new();
    for pairs in [true, true, false] {
        let n = dec.u64().unwrap();
        counts.push(n);
        for _ in 0..n {
            let key = dec.bytes().unwrap().len();
            sizes.push(if pairs {
                key + dec.bytes().unwrap().len() + 16
            } else {
                key + 8
            });
        }
    }
    assert!(dec.is_empty(), "trailing bytes in an update chunk");
    UpdateChunk {
        digest,
        sizes,
        to_r: counts[1],
    }
}

/// Asserts that one update's chunks are cut by the one budget rule: each
/// holds what fits under `MAX_TX_PAYLOAD_BYTES` (or one oversized item),
/// and each cut falls where the next item would have passed the budget.
fn assert_cut_by_the_budget_rule(update: &[UpdateChunk]) {
    use grub::core::contract::MAX_TX_PAYLOAD_BYTES;
    for chunk in update {
        let counted: usize = chunk.sizes.iter().sum();
        assert!(counted <= MAX_TX_PAYLOAD_BYTES || chunk.sizes.len() == 1);
    }
    for pair in update.windows(2) {
        let counted: usize = pair[0].sizes.iter().sum();
        assert!(
            counted + pair[1].sizes[0] > MAX_TX_PAYLOAD_BYTES,
            "cut too early"
        );
    }
}

/// Large-record epochs and a large replicated preload split their update
/// transactions under one budget rule instead of violating the Ctx payload
/// bound, and every chunk carries its update's digest.
#[test]
fn oversized_epochs_chunk_update_transactions() {
    let trace = RatioWorkload::new("big", 0.0).value_len(4096).generate(64);
    // 32 replicated 1,000-byte records: a seed of more than 24 KB, whose
    // cuts fall where the epoch rule puts them (23 + 9 records), not after
    // 20,000 bytes (20 + 12).
    let preload: Vec<(String, Vec<u8>)> = (0..32u8)
        .map(|i| (format!("pre{i:02}"), vec![i; 1000]))
        .collect();
    let config = SystemConfig::new(PolicyKind::Bl2).preload(preload);
    let mut system = GrubSystem::new(&config).expect("system");
    system.drive(&mut trace.source()).expect("drive");
    let manager = system.driver().manager();
    let chunks: Vec<UpdateChunk> = system
        .chain()
        .calls_since(0, manager)
        .into_iter()
        .filter(|call| call.func == "update")
        .map(|call| decode_update_chunk(&call.input))
        .collect();
    // Every chunk of an update carries its digest, and the digest moves
    // with every update (each epoch writes a fresh value).
    let updates: Vec<&[UpdateChunk]> = chunks.chunk_by(|a, b| a.digest == b.digest).collect();
    assert_eq!(updates.len(), 3, "the seed and two epochs");
    let seed = updates[0];
    assert!(
        seed.len() >= 2,
        "a > 24 KB preload seeds in {} chunk(s)",
        seed.len()
    );
    assert_eq!(seed.iter().map(|c| c.to_r).sum::<u64>(), 32);
    assert!(
        updates[1..].iter().any(|update| update.len() >= 2),
        "no epoch split into chunks"
    );
    for update in &updates {
        assert_cut_by_the_budget_rule(update);
    }
    assert_eq!(
        chunks.last().unwrap().digest,
        system.driver().owner().root()
    );
    let report = system.into_report();
    assert_eq!(report.total_ops(), 64);
    assert!(report.feed_gas_total() > 0);
}

/// The block cache is invisible to results: a cold run (capacity 0) and a
/// warm run (large capacity) of the same workload mine byte-identical
/// chains, and the warm run actually exercises the cache.
#[test]
fn cold_and_warm_block_cache_mine_identical_chains() {
    use grub::store::Options;
    use grub::workload::ratio::MultiKeyRatio;
    let mix = MultiKeyRatio::new(vec![
        ("hot".into(), 8.0),
        ("cold".into(), 0.125),
        ("warm".into(), 1.0),
    ])
    .seed(23);
    let trace = mix.generate(40);
    let run_with = |capacity: usize| {
        // Tiny memtable + eager compaction so SSTable block reads — the
        // paths the cache sits on — actually occur.
        let config = SystemConfig::new(PolicyKind::Memoryless { k: 2 }).store_options(Options {
            memtable_bytes: 512,
            l0_compaction_trigger: 2,
            block_cache_capacity: capacity,
            ..Options::default()
        });
        let mut system = GrubSystem::new(&config).expect("system");
        system.drive(&mut trace.source()).expect("drive");
        (
            system.chain().chain_digest(),
            system.driver().provider().read_stats(),
        )
    };
    let (cold_digest, cold_stats) = run_with(0);
    let (warm_digest, warm_stats) = run_with(4096);
    assert_eq!(cold_digest, warm_digest, "cache capacity moved the chain");
    assert!(
        cold_stats.block_reads > 0,
        "workload must exercise the SSTable read path"
    );
    assert_eq!(cold_stats.cache_hits, 0, "capacity 0 must never hit");
    assert!(warm_stats.cache_hits > 0, "warm run must hit the cache");
    assert!(
        warm_stats.block_reads < cold_stats.block_reads,
        "warm run must read fewer blocks ({} vs {})",
        warm_stats.block_reads,
        cold_stats.block_reads
    );
}

/// A read builder may send a read to a different `gGet` key than the one
/// the trace read. A deliver of that key installs a replica only when the
/// DO hinted it this epoch, so every replica on chain is one a flush
/// formalizes or evicts, and no later write leaves a stale one behind.
#[test]
fn remapped_reads_never_install_a_replica_the_do_did_not_hint() {
    use grub::chain::codec::Encoder;
    use grub::chain::{Address, Transaction};
    use grub::core::contract::EVICTED_MARKER;
    use grub::gas::Layer;

    let config = SystemConfig::new(PolicyKind::Memoryless { k: 1 })
        .live_reads()
        .epoch_ops(1);
    let mut system = GrubSystem::new(&config).expect("system");
    let consumer = Address::derive("grub-null-consumer");
    // Every read, whatever its key, becomes `batchRead(["k"])`.
    system
        .driver_mut()
        .set_read_tx_builder(Box::new(move |keys| {
            keys.iter()
                .map(|_| {
                    let mut enc = Encoder::new();
                    enc.u64(1).bytes(b"k");
                    let input = enc.finish();
                    let user = Address::derive("end-user");
                    Transaction::new(user, consumer, "batchRead", input, Layer::User)
                })
                .collect()
        }));
    let write = |seed| Op::Write {
        key: "k".into(),
        value: ValueSpec::new(16, seed),
    };
    let read = |key: &str| Op::Read { key: key.into() };
    let mut trace = Trace::new();
    trace.ops = vec![
        write(1),
        read("k"),
        write(2),
        read("other"),
        write(3),
        read("other2"),
    ];
    system.drive(&mut trace.source()).expect("drive");

    let records = system.driver().owner().live_records();
    let (_, state, latest) = records
        .iter()
        .find(|(key, ..)| key == "k")
        .expect("the DO holds k");
    assert_eq!(*latest, ValueSpec::new(16, 3).materialize());
    assert_eq!(*state, ReplState::NotReplicated);
    let manager = system.driver().manager();
    let replica = system
        .chain()
        .storage(manager)
        .and_then(|s| s.peek(b"kv:k"))
        .filter(|v| v.as_slice() != EVICTED_MARKER);
    assert_eq!(
        replica, None,
        "k is NR, yet the chain holds a replica of it"
    );
    assert_eq!(failed_delivers(&system), 0);
}
