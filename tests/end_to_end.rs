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

/// Large-record epochs split their update transactions instead of
/// violating the Ctx payload bound.
#[test]
fn oversized_epochs_chunk_update_transactions() {
    let trace = RatioWorkload::new("big", 0.0).value_len(4096).generate(64);
    let report = run(&trace, PolicyKind::Bl2);
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
