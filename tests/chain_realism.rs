//! The chain-realism subsystem end to end: reorgs, a volatile gas-price
//! process, and mempool congestion driven through the multi-tenant engine
//! and the single-feed harness.
//!
//! * **Reorg transparency** — an engine run on a reorg-capable chain (forks
//!   mined, rolled back, canonically re-committed) converges to the exact
//!   chain digest, height, and Gas report of the straight-line run, in all
//!   three batching modes.
//! * **Congestion exactness** — a bounded mempool delays and splits shard
//!   batches across blocks in submission order without disturbing a single
//!   unit of Gas attribution or the order of a single call: the congested
//!   run renders a byte-identical report table.
//! * **Fee determinism** — the seeded gas-price process reprices runs
//!   deterministically and surfaces its tape in the per-round metrics.
//! * **Fee-aware deferral** — a fee-aware policy wrapper holds replica
//!   installs out of expensive windows and strictly undercuts its
//!   fee-blind inner policy on a spiked schedule.

use grub::chain::{Address, Blockchain, ChainConfig};
use grub::core::policy::PolicyKind;
use grub::core::system::{GrubSystem, SystemConfig};
use grub::engine::specs::{demo_policies, zipfian_ratio_specs, DEMO_RATIOS};
use grub::engine::{Batching, EngineConfig, FeedEngine, FeedSpec};
use grub::gas::{FeeProcess, FeeRegime, BASE_PRICE_PERMILLE};
use grub::workload::{Op, Trace, ValueSpec};

fn fleet() -> Vec<FeedSpec> {
    zipfian_ratio_specs(6, 240, DEMO_RATIOS, &demo_policies())
}

fn engine_config(batching: Batching) -> EngineConfig {
    let mut config = EngineConfig::new(2);
    config.batching = batching;
    config
}

/// The acceptance bar for the reorg axis: in ALL three batching modes, a
/// run that suffers seeded forks (mined, rolled back, re-committed) is
/// byte-identical — chain digest, height, and the rendered Gas report — to
/// the run that never forked.
#[test]
fn reorg_replay_is_digest_identical_in_every_engine_mode() {
    for batching in [Batching::Off, Batching::Updates, Batching::Full] {
        let label = format!("batching={batching:?}");
        let plain = engine_config(batching);
        let (plain_report, plain_chain) = FeedEngine::new(&plain, fleet())
            .unwrap()
            .run_with_chain()
            .unwrap_or_else(|e| panic!("{label}: straight-line run failed: {e}"));

        let mut forked = engine_config(batching);
        forked.chain = ChainConfig::default().reorg(7, 4, 2);
        let (forked_report, forked_chain) = FeedEngine::new(&forked, fleet())
            .unwrap()
            .run_with_chain()
            .unwrap_or_else(|e| panic!("{label}: reorg run failed: {e}"));

        assert!(
            !forked_chain.reorg_events().is_empty(),
            "{label}: the reorg process never forked — the axis tested nothing"
        );
        assert!(
            forked_chain
                .reorg_events()
                .iter()
                .all(|e| e.depth >= 1 && e.depth <= 2),
            "{label}: fork depths must respect max_depth"
        );
        assert_eq!(
            forked_chain.chain_digest(),
            plain_chain.chain_digest(),
            "{label}: reorg-and-replay must converge to the straight-line digest"
        );
        assert_eq!(
            forked_chain.height(),
            plain_chain.height(),
            "{label}: canonical height must match the straight-line run"
        );
        assert_eq!(
            forked_report.render_table(),
            plain_report.render_table(),
            "{label}: the Gas report must be untouched by reorgs"
        );
    }
}

/// A bounded mempool (one transaction per block) forces a spilled shard
/// batch — which normally rides one block as several transactions — to
/// queue and split across blocks in submission order. Completion, per-tenant
/// Gas attribution and the sequence of executed calls must be *exactly* the
/// uncongested run's — only the block packing (and hence the chain digest
/// and height) may change.
#[test]
fn congested_mempool_splits_blocks_with_exact_attribution() {
    // The spill fleet: 14 write-heavy BL2 feeds with 4 KiB values on ONE
    // shard overflow the batch payload bound every round, so each round
    // plans several update transactions — the co-blocked traffic a block
    // cap actually bites on.
    let spill_fleet = || -> Vec<FeedSpec> {
        (0..14)
            .map(|i| {
                let mut config = SystemConfig::new(PolicyKind::Bl2);
                config.epoch_ops = 4;
                FeedSpec::from_source(
                    format!("bulk-{i:02}"),
                    config,
                    Box::new(
                        grub::workload::ratio::RatioWorkload::new(format!("bulk-{i:02}-key"), 0.0)
                            .value_len(4096)
                            .source(8),
                    ),
                )
            })
            .collect()
    };
    let mut plain = engine_config(Batching::Full);
    plain.shards = 1;
    let (plain_report, plain_chain) = FeedEngine::new(&plain, spill_fleet())
        .unwrap()
        .run_with_chain()
        .unwrap();
    assert!(
        plain_report.shard_update_txs[0] > plain_report.rounds,
        "the fleet must actually spill for the cap to have anything to split"
    );

    let mut congested = engine_config(Batching::Full);
    congested.shards = 1;
    congested.chain = ChainConfig::default().mempool(1);
    let (congested_report, congested_chain) = FeedEngine::new(&congested, spill_fleet())
        .unwrap()
        .run_with_chain()
        .unwrap();

    assert!(
        congested_chain.height() > plain_chain.height(),
        "a one-transaction block cap must force more, smaller blocks \
         ({} congested vs {} plain)",
        congested_chain.height(),
        plain_chain.height()
    );
    // A cap repacks blocks but never reorders them: concatenated over every
    // block, the executed calls are the uncongested run's, call for call.
    let calls = |chain: &Blockchain| -> Vec<(Address, String, Vec<u8>)> {
        chain
            .blocks()
            .iter()
            .flat_map(|block| &block.call_records)
            .map(|c| (c.to, c.func.clone(), c.input.clone()))
            .collect()
    };
    let plain_calls = calls(&plain_chain);
    assert!(!plain_calls.is_empty(), "the chain must record its calls");
    assert!(
        calls(&congested_chain) == plain_calls,
        "congestion must not reorder, add or drop a call"
    );
    assert_eq!(
        congested_report.render_table(),
        plain_report.render_table(),
        "congestion may repack blocks but must not move a unit of Gas"
    );
    // The partition invariant under splitting: tenant batch shares still
    // sum exactly to the shard totals.
    let tenant_updates: u64 = congested_report
        .tenants
        .iter()
        .map(|t| t.batched_update_gas)
        .sum();
    let tenant_delivers: u64 = congested_report
        .tenants
        .iter()
        .map(|t| t.batched_deliver_gas)
        .sum();
    assert_eq!(
        tenant_updates,
        congested_report.shard_update_gas.iter().sum::<u64>(),
        "update shares must partition shard totals under congestion"
    );
    assert_eq!(
        tenant_delivers,
        congested_report.shard_deliver_gas.iter().sum::<u64>(),
        "deliver shares must partition shard totals under congestion"
    );
}

/// The seeded fee process reprices an engine run deterministically: two
/// identical runs agree byte for byte, a never-below-base schedule strictly
/// raises total Gas, and the per-round metrics expose the fee tape.
#[test]
fn fee_schedule_reprices_runs_deterministically() {
    let fee = FeeProcess {
        regime: FeeRegime::Step {
            period: 5,
            low: 1000,
            high: 2000,
        },
        seed: 3,
    };
    let flat = engine_config(Batching::Full);
    let (flat_report, _) = FeedEngine::new(&flat, fleet())
        .unwrap()
        .run_with_chain()
        .unwrap();

    let priced_run = || {
        let mut config = engine_config(Batching::Full);
        config.chain = ChainConfig::default().fee(fee);
        FeedEngine::new(&config, fleet())
            .unwrap()
            .run_with_chain()
            .unwrap()
    };
    let (first_report, first_chain) = priced_run();
    let (second_report, second_chain) = priced_run();

    assert_eq!(
        first_chain.chain_digest(),
        second_chain.chain_digest(),
        "the fee process must be a pure function of (seed, height)"
    );
    assert_eq!(first_report.render_table(), second_report.render_table());
    assert!(
        first_report.feed_gas_total() > flat_report.feed_gas_total(),
        "a schedule that never dips below base price must cost strictly more \
         ({} priced vs {} flat)",
        first_report.feed_gas_total(),
        flat_report.feed_gas_total()
    );
    // The metrics tape saw both plateaus of the step schedule.
    let low = first_report
        .metrics
        .iter()
        .map(|m| m.fee_low_permille)
        .min()
        .unwrap();
    let high = first_report
        .metrics
        .iter()
        .map(|m| m.fee_high_permille)
        .max()
        .unwrap();
    assert_eq!(low, 1000, "metrics must record the cheap plateau");
    assert_eq!(high, 2000, "metrics must record the expensive plateau");
    assert!(
        flat_report
            .metrics
            .iter()
            .all(|m| m.fee_low_permille == BASE_PRICE_PERMILLE
                && m.fee_high_permille == BASE_PRICE_PERMILLE),
        "a flat run's fee tape is pinned to base price"
    );
}

/// A five-epoch single-feed trace shaped so deferral pays: the install
/// decision matures while Gas is expensive, the workload then goes quiet,
/// and the reads resume after the price falls. The hot record is 8 words
/// so the install itself (`Cinsert = 20000·X`) is what the price multiplies.
fn deferral_trace(epoch_ops: usize) -> Trace {
    let write = |key: &str, len: usize, seed: u64| Op::Write {
        key: key.into(),
        value: ValueSpec::new(len, seed),
    };
    let read = |key: &str| Op::Read { key: key.into() };
    let mut ops = Vec::new();
    // E0 warm-up: establish the feed, no reads of the hot key.
    ops.push(write("hot", 256, 1));
    for i in 0..epoch_ops - 1 {
        ops.push(write("cold", 32, 10 + i as u64));
    }
    // E1: two reads drive the install decision — while expensive. The
    // fee-blind policy installs here at 4× price; the fee-aware one defers.
    for _ in 0..2 {
        ops.push(read("hot"));
    }
    for i in 0..epoch_ops - 2 {
        ops.push(write("cold", 32, 20 + i as u64));
    }
    // E2: quiet for the hot key; the price falls during this epoch.
    for i in 0..epoch_ops {
        ops.push(write("cold", 32, 30 + i as u64));
    }
    // E3: the deferred install resolves on the first hot sighting at the
    // cheap price (two delivered reads, then the install actuates).
    for _ in 0..2 {
        ops.push(read("hot"));
    }
    for i in 0..epoch_ops - 2 {
        ops.push(write("cold", 32, 40 + i as u64));
    }
    // E4: the read traffic the replica exists to serve — both runs are
    // replicated by now and pay identical replica-read costs.
    for _ in 0..epoch_ops {
        ops.push(read("hot"));
    }
    Trace { ops }
}

/// Satellite: under a seeded spike schedule a fee-aware wrapper defers the
/// replica install out of the expensive window and spends strictly less
/// total feed Gas than its fee-blind inner policy — deterministically.
#[test]
fn fee_aware_policy_defers_installs_into_cheap_windows() {
    // High plateau first (seed chosen so phase 0 is expensive): heights
    // 0..5 cost 4×, heights 5..10 cost base — sized so the whole E2–E4
    // tail of the trace lands in the cheap window.
    let regime = FeeRegime::Step {
        period: 5,
        low: 1000,
        high: 4000,
    };
    let seed = (0..64)
        .find(|&s| {
            let p = FeeProcess { regime, seed: s };
            p.price_permille(0) == 4000 && p.price_permille(6) == 1000
        })
        .expect("some seed phases the step high-first");
    let fee = FeeProcess { regime, seed };

    let run = |policy: PolicyKind| {
        let mut config = SystemConfig::new(policy);
        config.epoch_ops = 8;
        config.chain = ChainConfig::default().fee(fee);
        GrubSystem::run(&mut deferral_trace(8).into_source(), &config).expect("run succeeds")
    };

    let blind = run(PolicyKind::Memoryless { k: 2 });
    let aware = run(PolicyKind::FeeAware {
        threshold_permille: 1500,
        inner: Box::new(PolicyKind::Memoryless { k: 2 }),
    });
    let rerun = run(PolicyKind::FeeAware {
        threshold_permille: 1500,
        inner: Box::new(PolicyKind::Memoryless { k: 2 }),
    });

    assert_eq!(
        aware.feed_gas_total(),
        rerun.feed_gas_total(),
        "fee-aware deferral must be deterministic across reruns"
    );
    assert!(
        aware.feed_gas_total() < blind.feed_gas_total(),
        "deferring the install into the cheap window must cost strictly less \
         ({} fee-aware vs {} fee-blind)",
        aware.feed_gas_total(),
        blind.feed_gas_total()
    );
}
