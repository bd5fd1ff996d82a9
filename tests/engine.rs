//! Correctness net for the multi-tenant feed engine (`grub-engine`).
//!
//! The engine's headline invariants, checked end to end:
//!
//! 1. **Unbatched equivalence** — an N-feed engine run with batching off
//!    submits exactly the transactions N standalone single-feed
//!    [`GrubSystem`] runs would, so every tenant's feed-layer Gas equals
//!    its standalone run and the aggregate equals the sum of singles.
//! 2. **Batching saves** — with batching on, same-block updates of a
//!    shard's feeds share one transaction envelope, so total feed-layer Gas
//!    is *strictly* lower than the unbatched sum-of-singles baseline while
//!    every read, replica, and digest stays byte-identical.
//! 3. **Read batching saves more** — coalescing a shard's SP deliveries
//!    into one `batchDeliver` transaction strictly undercuts write-only
//!    batching whenever any round delivers for ≥ 2 feeds of a shard.
//! 4. **Determinism** — two engine runs with the same specs render
//!    byte-identical reports.
//! 5. **Malformed batches rejected** — truncated or forged `batchDeliver`
//!    payloads revert with a typed decode error; nothing panics.
//! 6. **Round-boundary scrubbing** — a record damaged at rest is found
//!    after every round, and a repairing scrubber fixes it once.

use std::rc::Rc;

use grub::chain::codec::encode_sections;
use grub::chain::{Address, Blockchain, Transaction};
use grub::core::policy::PolicyKind;
use grub::core::scrub::Scrubber;
use grub::core::system::{GrubSystem, SystemConfig};
use grub::engine::specs::{demo_policies, zipfian_ratio_specs, DEMO_RATIOS};
use grub::engine::{EngineConfig, FeedEngine, FeedSpec, ShardRouter};
use grub::gas::Layer;
use grub::workload::ratio::RatioWorkload;
use grub::workload::ycsb;

/// Three deliberately different feeds: write-heavy adaptive, read-heavy
/// static-replicated with a preload, and a mixed memorizing feed.
fn mixed_specs() -> Vec<FeedSpec> {
    let preload: Vec<(String, Vec<u8>)> = ycsb::preload(16, 32, 5)
        .into_iter()
        .map(|(k, v)| (k, v.materialize()))
        .collect();
    vec![
        FeedSpec::from_source(
            "writer",
            SystemConfig::new(PolicyKind::Memoryless { k: 2 }),
            Box::new(RatioWorkload::new("sensor", 0.125).source(8)),
        ),
        FeedSpec::from_source(
            "reader",
            SystemConfig::new(PolicyKind::Bl2).preload(preload),
            Box::new(RatioWorkload::new(ycsb::ycsb_key(3), 16.0).source(4)),
        ),
        FeedSpec::from_source(
            "mixed",
            SystemConfig::new(PolicyKind::Memorizing {
                k_prime: 2.3,
                d: 2.0,
            }),
            Box::new(RatioWorkload::new("price", 2.0).source(16)),
        ),
    ]
}

/// Invariant 1: with batching disabled, each tenant's feed-layer Gas is
/// exactly its standalone single-feed run, and the engine total is the sum.
#[test]
fn unbatched_engine_equals_sum_of_singles() {
    let specs = mixed_specs();
    let singles: Vec<u64> = specs
        .iter()
        .map(|s| {
            GrubSystem::run(&mut s.source.clone(), &s.config)
                .expect("single-feed run")
                .feed_gas_total()
        })
        .collect();
    let report = FeedEngine::run_specs(&EngineConfig::new(2).unbatched(), specs).expect("engine");
    assert_eq!(report.tenants.len(), singles.len());
    for (tenant, single) in report.tenants.iter().zip(&singles) {
        assert_eq!(
            tenant.feed_gas_total(),
            *single,
            "{}: engine feed gas must equal the standalone run",
            tenant.tenant
        );
        assert_eq!(tenant.batched_update_gas, 0);
    }
    assert_eq!(report.feed_gas_total(), singles.iter().sum::<u64>());
    assert_eq!(report.failed_delivers(), 0);
}

/// Invariant 2 on the same specs: batching strictly undercuts the
/// sum-of-singles baseline, without changing what was served.
#[test]
fn batched_engine_strictly_undercuts_sum_of_singles() {
    let specs = mixed_specs();
    // One shard forces all three feeds' same-round updates into one batch.
    let unbatched =
        FeedEngine::run_specs(&EngineConfig::new(1).unbatched(), specs.clone()).expect("baseline");
    let batched = FeedEngine::run_specs(&EngineConfig::new(1), specs).expect("batched");
    assert!(
        batched.feed_gas_total() < unbatched.feed_gas_total(),
        "batched {} must be strictly below unbatched {}",
        batched.feed_gas_total(),
        unbatched.feed_gas_total()
    );
    // Same work was done: identical op counts, no rejected deliveries, and
    // the shard batches are fully accounted to tenants.
    assert_eq!(batched.total_ops(), unbatched.total_ops());
    assert_eq!(batched.failed_delivers(), 0);
    assert_eq!(
        batched
            .tenants
            .iter()
            .map(|t| t.batched_update_gas)
            .sum::<u64>(),
        batched.shard_update_gas.iter().sum::<u64>()
    );
    assert!(batched.shard_update_txs.iter().sum::<usize>() > 0);
}

/// Invariant 3: coalescing the shard's deliver transactions saves envelope
/// Gas on top of write-only batching, without changing what was served.
/// BL1 feeds never replicate, so every epoch's reads are answered by
/// proof-carrying delivers — the per-feed transactions read batching
/// exists to amortize.
#[test]
fn batched_reads_strictly_undercut_write_only_batching() {
    let build_specs = || -> Vec<FeedSpec> {
        (0..4)
            .map(|i| {
                FeedSpec::from_source(
                    format!("reader-{i}"),
                    SystemConfig::new(PolicyKind::Bl1),
                    Box::new(RatioWorkload::new(format!("reader-{i}-key"), 8.0).source(6)),
                )
            })
            .collect()
    };
    let write_only =
        FeedEngine::run_specs(&EngineConfig::new(1).without_read_batching(), build_specs())
            .expect("write-only batching run");
    let full = FeedEngine::run_specs(&EngineConfig::new(1), build_specs()).expect("full run");
    assert!(
        full.feed_gas_total() < write_only.feed_gas_total(),
        "read batching {} must be strictly below write-only batching {}",
        full.feed_gas_total(),
        write_only.feed_gas_total()
    );
    // Same work was served: identical ops, nothing rejected, and the
    // deliver batches are fully accounted to tenants.
    assert_eq!(full.total_ops(), write_only.total_ops());
    assert_eq!(full.failed_delivers(), 0);
    assert!(full.shard_deliver_txs.iter().sum::<usize>() > 0);
    assert_eq!(
        full.tenants
            .iter()
            .map(|t| t.batched_deliver_gas)
            .sum::<u64>(),
        full.shard_deliver_gas.iter().sum::<u64>()
    );
    // Write-only batching sends no deliver batches at all.
    assert_eq!(write_only.shard_deliver_txs.iter().sum::<usize>(), 0);
    assert!(write_only
        .tenants
        .iter()
        .all(|t| t.batched_deliver_gas == 0));
}

/// Sparse rounds must not pay for batching they can't use: with a single
/// feed, every round's "batch" would hold one section, and a one-section
/// batch costs the section framing and router forwarding *on top of* the
/// same envelope. The engine falls back to the feed's own direct
/// transactions, so all three modes meter identical gas.
#[test]
fn lone_section_rounds_cost_no_more_than_unbatched() {
    let build_specs = || -> Vec<FeedSpec> {
        vec![FeedSpec::from_source(
            "solo",
            SystemConfig::new(PolicyKind::Bl1),
            Box::new(RatioWorkload::new("solo-key", 8.0).source(6)),
        )]
    };
    let unbatched = FeedEngine::run_specs(&EngineConfig::new(1).unbatched(), build_specs())
        .expect("unbatched run");
    let write_only =
        FeedEngine::run_specs(&EngineConfig::new(1).without_read_batching(), build_specs())
            .expect("write-only run");
    let full = FeedEngine::run_specs(&EngineConfig::new(1), build_specs()).expect("full run");
    assert_eq!(
        full.feed_gas_total(),
        write_only.feed_gas_total(),
        "a lone deliver must ride a direct transaction, not a one-section batch"
    );
    assert_eq!(
        full.feed_gas_total(),
        unbatched.feed_gas_total(),
        "with nothing to coalesce, batching modes must meter identical gas"
    );
    assert_eq!(full.failed_delivers(), 0);
}

/// Invariant 5: malformed `batchDeliver` payloads — truncated framing,
/// forged section counts — revert with a typed decode error instead of
/// panicking the chain.
#[test]
fn malformed_batch_deliver_payloads_rejected_without_panic() {
    let mut chain = Blockchain::new();
    let operator = Address::derive("shard-op");
    let router = Address::derive("shard-router");
    chain.deploy(router, Rc::new(ShardRouter::new(operator)), Layer::Feed);
    let honest = encode_sections(&[(Address::derive("mgr"), vec![7u8; 40])]);
    let truncated = honest[..honest.len() / 2].to_vec();
    let forged_count = {
        let mut enc = grub::chain::codec::Encoder::new();
        enc.u64(u64::MAX);
        enc.finish()
    };
    for payload in [truncated, forged_count, b"garbage".to_vec()] {
        chain.submit(Transaction::new(
            operator,
            router,
            "batchDeliver",
            payload,
            Layer::Feed,
        ));
        let block = chain.produce_block();
        assert!(!block.receipts[0].success, "malformed batch must revert");
        let err = block.receipts[0].error.as_deref().unwrap_or_default();
        assert!(
            err.contains("decode"),
            "rejection must be a typed decode error, got: {err}"
        );
    }
}

/// The ingestion-layer acceptance contract: an engine run whose feeds pull
/// from lazy generator sources mines the byte-identical chain
/// (`chain_digest`) of a run whose feeds replay pre-materialized traces of
/// the same generators, batched and unbatched.
#[test]
fn source_driven_engine_runs_match_trace_driven_byte_for_byte() {
    use grub::workload::ratio::MultiKeyRatio;
    use grub::workload::source::OpSource;

    let generators = || -> Vec<(String, grub::core::system::SystemConfig, Box<dyn OpSource>)> {
        vec![
            (
                "streamer".into(),
                SystemConfig::new(PolicyKind::Memoryless { k: 2 }),
                Box::new(
                    MultiKeyRatio::new(vec![("s-hot".into(), 8.0), ("s-cold".into(), 0.25)])
                        .seed(3)
                        .source(10),
                ),
            ),
            (
                "relay".into(),
                SystemConfig::new(PolicyKind::SelfTuning { window: 16 }),
                Box::new(
                    grub::workload::btcrelay::BtcRelayTrace::new()
                        .blocks(48)
                        .seed(5)
                        .source(),
                ),
            ),
            (
                "ticker".into(),
                SystemConfig::new(PolicyKind::Bl1),
                Box::new(RatioWorkload::new("tick", 4.0).seed(7).source(12)),
            ),
        ]
    };
    let source_specs = || -> Vec<FeedSpec> {
        generators()
            .into_iter()
            .map(|(tenant, config, source)| FeedSpec::from_source(tenant, config, source))
            .collect()
    };
    let trace_specs = || -> Vec<FeedSpec> {
        generators()
            .into_iter()
            .map(|(tenant, config, mut source)| {
                let trace = grub::workload::Trace::from_source(&mut source);
                FeedSpec::from_source(tenant, config, Box::new(trace.into_source()))
            })
            .collect()
    };
    for (label, config) in [
        ("full batching", EngineConfig::new(2)),
        ("unbatched", EngineConfig::new(2).unbatched()),
    ] {
        let (trace_report, trace_chain) = FeedEngine::new(&config, trace_specs())
            .expect("trace engine builds")
            .run_with_chain()
            .expect("trace engine runs");
        let (source_report, source_chain) = FeedEngine::new(&config, source_specs())
            .expect("source engine builds")
            .run_with_chain()
            .expect("source engine runs");
        assert_eq!(
            trace_chain.chain_digest(),
            source_chain.chain_digest(),
            "{label}: source-driven chain diverged from trace-driven"
        );
        assert_eq!(
            trace_report.render_table(),
            source_report.render_table(),
            "{label}: accounting diverged"
        );
    }
}

/// The ISSUE acceptance run: ≥ 8 feeds with mixed Zipfian/uniform tenant
/// skew and mixed policies complete deterministically, and batching
/// demonstrably reduces total feed-layer Gas versus the unbatched
/// sum-of-singles baseline.
#[test]
fn eight_feed_mixed_skew_run_is_deterministic_and_batching_saves() {
    // Zipfian activity skew over 8 tenants: tenant-00 is the hot feed, the
    // tail idles — the cross-subsidization regime. Shared builder so test,
    // example, and bench measure the same workload shape.
    let build_specs = || zipfian_ratio_specs(8, 640, DEMO_RATIOS, &demo_policies());

    let unbatched = FeedEngine::run_specs(&EngineConfig::new(2).unbatched(), build_specs())
        .expect("unbatched run");
    let batched = FeedEngine::run_specs(&EngineConfig::new(2), build_specs()).expect("batched run");
    let batched_again =
        FeedEngine::run_specs(&EngineConfig::new(2), build_specs()).expect("batched rerun");

    // Deterministic: byte-identical rendered reports across reruns.
    assert_eq!(
        batched.render_table(),
        batched_again.render_table(),
        "same specs must render byte-identical reports"
    );

    // All 8 tenants completed their full traces, honestly.
    assert_eq!(batched.tenants.len(), 8);
    assert_eq!(batched.failed_delivers(), 0);
    assert_eq!(batched.total_ops(), unbatched.total_ops());
    // The zipfian skew is visible in the per-tenant accounting.
    assert!(
        batched.tenants[0].total_ops() > batched.tenants[7].total_ops(),
        "hot tenant must carry more traffic than the tail"
    );

    // And the headline: batching reduces total feed-layer gas.
    assert!(
        batched.feed_gas_total() < unbatched.feed_gas_total(),
        "batched {} must undercut unbatched {}",
        batched.feed_gas_total(),
        unbatched.feed_gas_total()
    );
}

/// The engine's round-boundary scrub, end to end: a preloaded record the
/// trace never reads is damaged in the SP's store before the first round.
/// A repairing scrubber finds and fixes it after round 0 and finds nothing
/// after; a detecting one finds it again after every round.
#[test]
fn round_boundary_scrub_finds_and_repairs_a_damaged_record() {
    let run = |scrub: Scrubber| {
        let config = SystemConfig::new(PolicyKind::Memoryless { k: 2 })
            .epoch_ops(4)
            .preload(vec![
                ("cold".into(), b"untouched".to_vec()),
                ("hot".into(), b"seed".to_vec()),
            ]);
        let specs = vec![FeedSpec::from_source(
            "scrubbed",
            config,
            Box::new(RatioWorkload::new("hot", 1.0).source(6)),
        )];
        let engine_config = EngineConfig::new(1).with_scrub(Some(scrub));
        let mut engine = FeedEngine::new(&engine_config, specs).unwrap();
        let driver = engine.driver_mut("scrubbed").unwrap();
        let state = driver.owner().state_of("cold");
        driver
            .provider_mut()
            .tamper_value(state, "cold", b"GARBAGE".to_vec())
            .unwrap();
        let report = engine.run().unwrap();
        assert!(report.metrics.len() >= 2, "the trace must span rounds");
        assert_eq!(report.failed_delivers(), 0);
        report.metrics
    };
    let repaired = run(Scrubber::repairing());
    let first = &repaired[0];
    assert!(first.scrub_findings >= 1, "round 0 must find the damage");
    assert_eq!(first.scrub_repaired, first.scrub_findings);
    for m in &repaired[1..] {
        assert_eq!(
            (m.scrub_findings, m.scrub_repaired),
            (0, 0),
            "round {}",
            m.round
        );
    }
    let detected = run(Scrubber::default());
    for m in &detected {
        let seen = (m.scrub_findings, m.scrub_repaired);
        assert_eq!(seen, (detected[0].scrub_findings, 0), "round {}", m.round);
    }
    assert!(detected[0].scrub_findings >= 1);
}
