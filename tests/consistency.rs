//! Validation of the paper's consistency theorems (§3.4, Appendix E)
//! against the multi-node network model — and, since confirmation
//! semantics became first-class chain axes, against the executable
//! engine/system stack itself:
//!
//! * **No lost, no duplicated writes** — a depth-confirmed, latency-enabled,
//!   reorged engine run converges to the canonical-branch digest with every
//!   reorg-abandoned transaction resubmitted exactly once, across all
//!   three batching modes.
//! * **Monotone confirmed height** — the confirmation frontier the engine
//!   reports per round never regresses, and the run ends fully confirmed.
//! * **Freshness** — a confirmed read never observes state older than the
//!   last depth-confirmed write: epoch boundaries await the frontier before
//!   the DO observes anything, so an honest SP's delivers are never
//!   rejected even under the full reorg + latency + congestion stack.
//! * **One epoch lifecycle** — `close_epoch` mines byte for byte what the
//!   staged calls a scheduler makes mine, so the DO acknowledges and reads
//!   the fee tape at the same point in every mode.

use grub::chain::network::NetworkSim;
use grub::chain::{Blockchain, ChainConfig, Transaction, TxId};
use grub::core::consistency::FreshnessModel;
use grub::core::policy::PolicyKind;
use grub::core::system::{DriverIdentity, EpochDriver, GrubSystem, SystemConfig};
use grub::engine::specs::{demo_policies, zipfian_ratio_specs, DEMO_RATIOS};
use grub::engine::{Batching, EngineConfig, FeedEngine, FeedSpec};
use grub::gas::{FeeProcess, Layer};
use grub::workload::ratio::{MultiKeyRatio, RatioWorkload};
use grub::workload::PeekableSource;

fn config() -> ChainConfig {
    ChainConfig {
        block_period_ms: 1_000,
        finality_depth: 6,
        propagation_ms: 300,
        ..ChainConfig::default()
    }
}

/// Theorem 3.2 / E.2 — epoch-bounded freshness: a gPut submitted at `t` is
/// final on **every** node by `t + E + Pt + F·B`, where `E` accounts for the
/// DO's batching delay before the transaction even enters the network.
#[test]
fn gput_visible_everywhere_within_freshness_bound() {
    let epoch_ms = 2_000u64;
    let model = FreshnessModel::new(epoch_ms, config());
    for seed in 0..25 {
        let mut net = NetworkSim::new(6, config(), seed);
        let produced_at = 500u64; // the DO produced the update
        let submitted_at = produced_at + epoch_ms; // worst-case batching wait
        net.submit(0, submitted_at, "gPut");
        let bound = produced_at + model.freshness_bound_ms();
        net.run_until(bound + 60_000);
        for node in 0..6 {
            assert!(
                net.finalized_view(node, bound)
                    .contains(&"gPut".to_string()),
                "seed {seed}, node {node}: gPut not final at the freshness bound"
            );
        }
    }
}

/// Theorem 3.1 / E.1 — concurrent gPut/gGet order non-deterministically,
/// but identically across every node once final.
#[test]
fn concurrent_gput_gget_order_agrees_across_nodes() {
    let mut seen_orders = std::collections::HashSet::new();
    for seed in 0..40 {
        let mut net = NetworkSim::new(5, config(), seed);
        net.submit(1, 100, "gPut(k,v)");
        net.submit(3, 100, "deliver(k)"); // the gGet's async completion
        let horizon = net.finality_bound_ms(100) + 30_000;
        net.run_until(horizon);
        let reference = net.finalized_view(0, horizon);
        assert_eq!(reference.len(), 2, "seed {seed}: both txs must finalize");
        for node in 1..5 {
            assert_eq!(
                net.finalized_view(node, horizon),
                reference,
                "seed {seed}: node {node} saw a different final order"
            );
        }
        seen_orders.insert(reference);
    }
    assert_eq!(
        seen_orders.len(),
        2,
        "across seeds both serializations must occur (non-determinism)"
    );
}

/// Before finality, views may differ between nodes; after the bound they
/// cannot.
#[test]
fn prefinality_views_may_disagree_but_finalized_views_never_do() {
    let mut any_prefinal_disagreement = false;
    for seed in 0..30 {
        let mut net = NetworkSim::new(4, config(), seed);
        for i in 0..10 {
            net.submit(i % 4, 100 + i as u64 * 50, format!("tx{i}"));
        }
        net.run_until(120_000);
        // Probe inside the propagation window of block 1 (produced at
        // 1000 ms, reaching each node up to Pt = 300 ms later).
        let probe = 1_050;
        let views: Vec<_> = (0..4).map(|n| net.node_view(n, probe)).collect();
        if views.iter().any(|v| *v != views[0]) {
            any_prefinal_disagreement = true;
        }
        // Finalized views at a late time must be identical.
        let late = 110_000;
        let finals: Vec<_> = (0..4).map(|n| net.finalized_view(n, late)).collect();
        for f in &finals {
            assert_eq!(*f, finals[0], "seed {seed}: finalized views diverged");
        }
        assert_eq!(finals[0].len(), 10, "seed {seed}: all txs must finalize");
    }
    assert!(
        any_prefinal_disagreement,
        "propagation delays should produce at least one pre-final disagreement"
    );
}

// ---------------------------------------------------------------------------
// The executable consistency net: the §3.4/App. E guarantees asserted
// against the real engine/system stack under depth-N confirmation,
// seeded inclusion latency, and reorg-driven resubmission.
// ---------------------------------------------------------------------------

fn fleet() -> Vec<FeedSpec> {
    zipfian_ratio_specs(6, 240, DEMO_RATIOS, &demo_policies())
}

fn engine_config(batching: Batching) -> EngineConfig {
    let mut config = EngineConfig::new(2);
    config.batching = batching;
    config
}

/// The confirmation stack every engine-level net runs under: writes
/// acknowledged three blocks deep, inclusion gated by the seeded latency
/// process.
fn confirmed_chain() -> ChainConfig {
    ChainConfig::default().confirm_depth(3).latency(5, 1)
}

/// No lost writes, no duplicated writes (Theorem E.1's atomicity half):
/// a depth-confirmed, latency-enabled run that suffers seeded reorgs
/// converges to the straight-line digest with every abandoned transaction
/// resubmitted exactly once — in all three batching modes.
#[test]
fn reorged_depth_confirmed_runs_lose_and_duplicate_no_writes() {
    for batching in [Batching::Off, Batching::Updates, Batching::Full] {
        let label = format!("batching={batching:?}");
        let plain = {
            let mut config = engine_config(batching);
            config.chain = confirmed_chain();
            config
        };
        let (plain_report, plain_chain) = FeedEngine::new(&plain, fleet())
            .unwrap()
            .run_with_chain()
            .unwrap_or_else(|e| panic!("{label}: straight-line run failed: {e}"));

        let forked = {
            let mut config = engine_config(batching);
            config.chain = confirmed_chain().reorg(7, 4, 2);
            config
        };
        let (forked_report, forked_chain) = FeedEngine::new(&forked, fleet())
            .unwrap()
            .run_with_chain()
            .unwrap_or_else(|e| panic!("{label}: reorg run failed: {e}"));

        let events = forked_chain.reorg_events();
        assert!(
            !events.is_empty(),
            "{label}: the reorg process never forked — the net tested nothing"
        );
        assert!(
            events.iter().any(|e| !e.abandoned.is_empty()),
            "{label}: no fork ever abandoned a transaction — the net tested nothing"
        );
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(
                ev.resubmitted, ev.abandoned,
                "{label}: reorg {i} resubmitted a different set than it abandoned"
            );
        }

        // No duplicated writes: every transaction id appears in exactly
        // one canonical block's receipts.
        let mut receipt_ids: Vec<TxId> = forked_chain
            .blocks()
            .iter()
            .flat_map(|b| b.receipts.iter().map(|r| r.tx_id))
            .collect();
        let total = receipt_ids.len();
        receipt_ids.sort();
        receipt_ids.dedup();
        assert_eq!(
            receipt_ids.len(),
            total,
            "{label}: a resubmitted transaction executed twice on the canonical branch"
        );
        // No lost writes: every abandoned transaction landed canonically.
        for ev in events {
            for id in &ev.abandoned {
                assert!(
                    receipt_ids.binary_search(id).is_ok(),
                    "{label}: abandoned {id:?} never re-executed on the canonical branch"
                );
            }
        }

        assert_eq!(
            forked_chain.chain_digest(),
            plain_chain.chain_digest(),
            "{label}: reorg + resubmission must converge to the straight-line digest"
        );
        assert_eq!(
            forked_chain.height(),
            plain_chain.height(),
            "{label}: canonical height must match the straight-line run"
        );
        assert_eq!(
            forked_report.render_table(),
            plain_report.render_table(),
            "{label}: the Gas report must be untouched by reorgs under confirmation"
        );
        assert_eq!(
            forked_report.failed_delivers(),
            0,
            "{label}: an honest SP must never be rejected under the confirmation stack"
        );
    }
}

/// The confirmation frontier the engine reports per round is monotone
/// non-decreasing — even across reorgs, whose rollback is clamped at the
/// frontier — and every run ends fully confirmed (zero lag), in all three
/// batching modes.
#[test]
fn confirmed_height_is_monotone_and_runs_end_fully_confirmed() {
    for batching in [Batching::Off, Batching::Updates, Batching::Full] {
        let label = format!("batching={batching:?}");
        let mut config = engine_config(batching);
        config.chain = confirmed_chain().reorg(7, 4, 2);
        let (report, chain) = FeedEngine::new(&config, fleet())
            .unwrap()
            .run_with_chain()
            .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));

        assert!(!report.metrics.is_empty(), "{label}: no rounds recorded");
        for pair in report.metrics.windows(2) {
            assert!(
                pair[1].confirmed_height >= pair[0].confirmed_height,
                "{label}: confirmed height regressed between rounds {} and {} \
                 ({} -> {})",
                pair[0].round,
                pair[1].round,
                pair[0].confirmed_height,
                pair[1].confirmed_height
            );
        }
        let last = report.metrics.last().unwrap();
        assert_eq!(
            last.confirmed_height,
            chain.confirmed_height(),
            "{label}: the final round's frontier must be the chain's frontier"
        );
        assert_eq!(
            chain.confirmed_height(),
            chain.height().saturating_sub(3),
            "{label}: the frontier must trail the tip by exactly confirm_depth"
        );
        assert_eq!(
            chain.confirmation_lag(),
            0,
            "{label}: every acknowledged write must be depth-confirmed at run end"
        );
    }
}

/// Freshness under the full stack (Theorem 3.2 against the real pipeline):
/// with depth-3 confirmation, seeded inclusion latency, reorgs, and a
/// congested mempool all active, a confirmed read never observes state
/// older than the last depth-confirmed write — witnessed by the on-chain
/// deliver check, which rejects any SP delivery whose digest disagrees with
/// contract state. Zero rejections across every demo policy, in both the
/// coalesced and the live (one read per block) tempo.
#[test]
fn confirmed_reads_stay_fresh_under_the_full_stack() {
    let stack = ChainConfig::default()
        .confirm_depth(3)
        .latency(5, 2)
        .reorg(7, 3, 2)
        .mempool(2);
    let trace = RatioWorkload::new("feed", 1.0).generate(24);
    for policy in demo_policies() {
        for live in [false, true] {
            let label = format!("{policy:?}/live={live}");
            let mut config = SystemConfig::new(policy.clone());
            if live {
                config = config.live_reads();
            }
            config.chain = stack;
            let report = GrubSystem::run(&mut trace.source(), &config)
                .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
            assert_eq!(
                report.total_ops(),
                trace.ops.len(),
                "{label}: every trace operation must be accounted for"
            );
            assert_eq!(
                report.failed_delivers(),
                0,
                "{label}: a stale delivery would have been rejected on-chain"
            );

            // Digest transparency of the whole stack: the reorged run lands
            // on the straight-line chain, fully confirmed.
            let run = |chain: ChainConfig| {
                let mut config = SystemConfig::new(policy.clone());
                if live {
                    config = config.live_reads();
                }
                config.chain = chain;
                let mut system =
                    GrubSystem::new(&config).unwrap_or_else(|e| panic!("{label}: {e}"));
                system.drive(&mut trace.source()).unwrap();
                system
            };
            let forked = run(stack);
            let straight = run({
                let mut plain = stack;
                plain.reorg = None;
                plain
            });
            assert_eq!(
                forked.chain().chain_digest(),
                straight.chain().chain_digest(),
                "{label}: the confirmation stack must stay digest-transparent"
            );
            assert_eq!(
                forked.chain().confirmation_lag(),
                0,
                "{label}: every acknowledged write must be depth-confirmed at run end"
            );
        }
    }
}

/// One epoch lifecycle: `GrubSystem::drive`, which closes every epoch with
/// `close_epoch`, mines exactly the chain that a driver taken by hand
/// through the staged calls mines — the sequence the benchmark harness
/// makes: `stage_mut().ingest`, `stage_update`, `submit_update`,
/// `stage_reads`, the feed's own `deliver` transactions mined,
/// `finish_staged_epoch`, and one `await_confirmations` when the stream
/// ends. Compared on the chain digest and the chain meter's feed + app Gas,
/// not on the epoch reports: hand-mined deliver Gas is by design not
/// booked. Run under a flat fee, a spiking fee schedule, and the spike plus
/// depth-3 confirmation and inclusion latency, for a fee-blind and a
/// fee-aware policy — where the DO reads the fee tape relative to the
/// deliver block is what a second lifecycle would get wrong — at batched
/// and at live read tempo, where `stage_reads` mines the per-read blocks
/// and their delivers itself.
#[test]
fn close_epoch_is_the_staged_lifecycle() {
    let chains = [
        ("flat", ChainConfig::default()),
        ("spike", ChainConfig::default().fee(FeeProcess::spike(11))),
        (
            "depth3+latency+spike",
            ChainConfig::default()
                .confirm_depth(3)
                .latency(5, 2)
                .fee(FeeProcess::spike(11)),
        ),
    ];
    let memoryless = PolicyKind::Memoryless { k: 2 };
    let policies = [
        memoryless.clone(),
        PolicyKind::FeeAware {
            threshold_permille: 1500,
            inner: Box::new(memoryless),
        },
    ];
    let trace = MultiKeyRatio::new(vec![
        ("w".into(), 0.25),
        ("b".into(), 1.0),
        ("r".into(), 6.0),
    ])
    .seed(3)
    .generate(24);
    let mut diverged = Vec::new();
    for (chain_name, chain_config) in chains {
        for (policy, live) in policies.iter().flat_map(|p| [(p, false), (p, true)]) {
            let label = format!("{chain_name}/{policy:?}/live={live}");
            let mut config = SystemConfig::new(policy.clone()).epoch_ops(8);
            config.chain = chain_config;
            if live {
                config = config.live_reads();
            }

            let mut system = GrubSystem::new(&config).unwrap();
            system
                .drive(&mut trace.source())
                .unwrap_or_else(|e| panic!("{label}: drive failed: {e}"));

            let mut chain = Blockchain::with_config(chain_config);
            let mut driver =
                EpochDriver::deploy(&mut chain, &config, &DriverIdentity::default()).unwrap();
            chain.meter_reset();
            let mut source = PeekableSource::new(Box::new(trace.clone().into_source()));
            while !source.is_exhausted() {
                driver.stage_mut().ingest(&mut source);
                let update = driver.stage_update().unwrap();
                driver.submit_update(&mut chain, &update);
                let reads = driver.stage_reads(&mut chain).unwrap();
                for input in &reads.delivers {
                    chain.submit(Transaction::new(
                        driver.provider_address(),
                        driver.manager(),
                        "deliver",
                        input.clone(),
                        Layer::Feed,
                    ));
                }
                while chain.mempool_len() > 0 {
                    let block = chain.try_produce_block().unwrap();
                    assert!(
                        block.receipts.iter().all(|r| r.success),
                        "{label}: an honest SP's deliver was rejected"
                    );
                }
                driver.finish_staged_epoch(&update, &reads);
            }
            chain.await_confirmations().unwrap();

            let meter = |chain: &Blockchain| {
                let gas = chain.gas_snapshot();
                (gas.feed, gas.app)
            };
            if system.chain().chain_digest() != chain.chain_digest()
                || meter(system.chain()) != meter(&chain)
            {
                diverged.push(format!(
                    "{label}: close_epoch mined {:?} Gas, the staged calls {:?}",
                    meter(system.chain()),
                    meter(&chain)
                ));
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "close_epoch and the staged calls mined different chains:\n{}",
        diverged.join("\n")
    );
}

/// The freshness bound is monotone in each parameter, matching the formula
/// `E + Pt + F·B`.
#[test]
fn freshness_bound_monotonicity() {
    let base = FreshnessModel::new(1_000, config());
    let more_epoch = FreshnessModel::new(5_000, config());
    assert!(more_epoch.freshness_bound_ms() > base.freshness_bound_ms());
    let mut deeper = config();
    deeper.finality_depth += 1;
    assert!(FreshnessModel::new(1_000, deeper).freshness_bound_ms() > base.freshness_bound_ms());
    assert_eq!(
        base.freshness_bound_ms(),
        1_000 + 300 + 6 * 1_000,
        "formula check"
    );
}
