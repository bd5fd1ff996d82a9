//! The paper's consistency guarantees (§3.4, Appendix E), asserted for
//! GRuB's own operations on the executable chain and on the engine/system
//! stack that runs on it.
//!
//! The two theorems, for the DO's `gPut` (the storage manager's `update`)
//! and the SP's `deliver` (a `gGet`'s asynchronous completion), across
//! latency seeds × confirmation depth `F` ∈ {0, 3} × seeded reorgs off/on,
//! with no mempool cap (`B` the block period, `L` the latency's
//! `max_delay_blocks`, `Pt = (1 + L)·B`, `E` the DO's epoch). The chain is
//! one node, and the view every node converges on is its canonical branch
//! up to the confirmation frontier; the `grub-chain` crate's `network` unit
//! tests check the same theorems for plain transactions.
//!
//! * **Theorem 3.2 (freshness)** — an update the DO produces at time `t`
//!   and holds for its epoch is confirmed, and its digest is the one on
//!   chain, by `t + E + Pt + F·B`.
//! * **Theorem 3.1 (one final order)** — a `gPut` and a `deliver` sent in
//!   the same block mine in an order the seed decides (both orders occur);
//!   the `deliver`'s proof of the old digest passes exactly when it mines
//!   first, and a reorged run settles on the straight-line run's order,
//!   outcomes and `chain_digest`.
//!
//! The executable net, on the engine and system stack:
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

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use grub::chain::codec::Encoder;
use grub::chain::{Address, Blockchain, ChainConfig, Receipt, Transaction, TxId};
use grub::core::contract::{
    encode_deliver, encode_update, NullConsumer, OnChainTrace, StorageManager,
};
use grub::core::policy::PolicyKind;
use grub::core::system::{DriverIdentity, EpochDriver, GrubSystem, SystemConfig};
use grub::crypto::Hash32;
use grub::engine::specs::{demo_policies, zipfian_ratio_specs, DEMO_RATIOS};
use grub::engine::{Batching, EngineConfig, FeedEngine, FeedSpec};
use grub::gas::{FeeProcess, Layer};
use grub::merkle::{record_value_hash, MerkleKv, ProofKey, ReplState};
use grub::workload::ratio::{MultiKeyRatio, RatioWorkload};
use grub::workload::PeekableSource;

/// `L`: the most blocks the theorem chains' seeded latency holds a
/// transaction back.
const MAX_DELAY: u64 = 2;

/// `E`, in blocks: how long the DO holds an update before its epoch's
/// `gPut` leaves it.
const EPOCH_BLOCKS: u64 = 2;

/// Every chain the theorem tests run, as `(label, seed, config)`: latency
/// seed × `F` ∈ {0, 3} × reorgs off, then on, with no mempool cap.
fn theorem_chains() -> impl Iterator<Item = (String, u64, ChainConfig)> {
    (0..12u64).flat_map(|seed| {
        [0, 3].into_iter().flat_map(move |depth| {
            [false, true].into_iter().map(move |reorg| {
                let mut config = ChainConfig::default()
                    .latency(seed, MAX_DELAY)
                    .confirm_depth(depth);
                if reorg {
                    config = config.reorg(7, 3, 2);
                }
                (format!("seed={seed} F={depth} reorg={reorg}"), seed, config)
            })
        })
    })
}

/// One feed on one chain: the storage manager, a DU that reads through it,
/// and the DO's Merkle tree, whose digest every `gPut` publishes. The key
/// is kept off chain (not replicated), so every read goes to the SP.
struct Feed {
    chain: Blockchain,
    manager: Address,
    consumer: Address,
    tree: MerkleKv,
}

impl Feed {
    /// Deploys the contracts and mines a few empty blocks, so a reorg has
    /// canonical history to roll back.
    fn deploy(config: ChainConfig) -> Feed {
        let mut chain = Blockchain::with_config(config);
        let manager = Address::derive("storage-manager");
        let consumer = Address::derive("du");
        chain.deploy(
            manager,
            Rc::new(StorageManager::new(
                Address::derive("DO"),
                OnChainTrace::None,
            )),
            Layer::Feed,
        );
        chain.deploy(
            consumer,
            Rc::new(NullConsumer::new(manager)),
            Layer::Application,
        );
        for _ in 0..4 {
            chain.produce_block();
        }
        Feed {
            chain,
            manager,
            consumer,
            tree: MerkleKv::new(),
        }
    }

    /// Sends the DO's `gPut` of `key = value`: the record goes into the
    /// tree, and the `update` carries the tree's new digest.
    fn gput(&mut self, key: &[u8], value: &[u8]) -> (TxId, Hash32) {
        self.tree.insert(
            ProofKey::new(ReplState::NotReplicated, key),
            record_value_hash(value),
        );
        let digest = self.tree.root();
        let input = encode_update(&digest, &[], &[], &[]);
        let id = self.chain.submit(Transaction::new(
            Address::derive("DO"),
            self.manager,
            "update",
            input,
            Layer::Feed,
        ));
        (id, digest)
    }

    /// Sends a DU read of `key`; with no replica, `gGet` asks the SP.
    fn gget(&mut self, key: &[u8]) -> TxId {
        let mut input = Encoder::new();
        input.u64(1).bytes(key);
        self.chain.submit(Transaction::new(
            Address::derive("user"),
            self.consumer,
            "batchRead",
            input.finish(),
            Layer::User,
        ))
    }

    /// Sends the SP's `deliver` of `key = value`, proven against the tree
    /// as it stands now.
    fn deliver(&mut self, key: &[u8], value: &[u8]) -> TxId {
        let bound = ProofKey::new(ReplState::NotReplicated, key);
        let proof = self.tree.prove_range(&bound, &bound);
        let input = encode_deliver(
            key,
            key,
            false,
            &[(key.to_vec(), value.to_vec())],
            &proof,
            &[(self.consumer, "onData".to_owned())],
        );
        self.chain.submit(Transaction::new(
            Address::derive("SP"),
            self.manager,
            "deliver",
            input,
            Layer::Feed,
        ))
    }

    /// The digest the storage manager holds at the tip.
    fn root_on_chain(&self) -> Vec<u8> {
        self.chain
            .static_call(Address::derive("user"), self.manager, "root", &[])
            .unwrap()
    }
}

/// `id`'s receipts on the canonical branch.
fn receipts(chain: &Blockchain, id: TxId) -> Vec<&Receipt> {
    chain
        .blocks()
        .iter()
        .flat_map(|b| &b.receipts)
        .filter(|r| r.tx_id == id)
        .collect()
}

/// `id`'s receipt, once its block is at or below the confirmation frontier.
fn confirmed_receipt(chain: &Blockchain, id: TxId) -> Option<&Receipt> {
    receipts(chain, id)
        .into_iter()
        .find(|r| r.block_number <= chain.confirmed_height())
}

/// Theorem 3.2 / E.2 — epoch-bounded freshness: an update the DO produces
/// at `t` and holds for its epoch `E` is confirmed by a block stamped no
/// later than `t + E + Pt + F·B`, mined once and successfully, and its
/// digest is then the one the storage manager serves.
#[test]
fn gput_visible_everywhere_within_freshness_bound() {
    for (label, _, config) in theorem_chains() {
        let mut feed = Feed::deploy(config);
        let period = config.block_period_ms;
        let bound_ms = (EPOCH_BLOCKS + 1 + MAX_DELAY + config.confirm_depth) * period;
        for version in 0..4u64 {
            let produced_ms = feed.chain.now_ms();
            for _ in 0..EPOCH_BLOCKS {
                feed.chain.produce_block();
            }
            let (id, digest) = feed.gput(b"eth", version.to_string().as_bytes());
            let confirmed_ms = loop {
                assert!(
                    feed.chain.height() < 256,
                    "{label}: gPut {version} never confirmed"
                );
                let tip_ms = feed.chain.produce_block().time_ms;
                if confirmed_receipt(&feed.chain, id).is_some() {
                    break tip_ms;
                }
            };
            let mined = receipts(&feed.chain, id);
            assert_eq!(
                mined.len(),
                1,
                "{label}: gPut {version} mined {} times",
                mined.len()
            );
            assert!(
                mined[0].success,
                "{label}: gPut {version} failed: {:?}",
                mined[0].error
            );
            assert!(
                confirmed_ms <= produced_ms + bound_ms,
                "{label}: gPut {version} produced at {produced_ms} ms confirmed at \
                 {confirmed_ms} ms, past t + E + Pt + F·B = {} ms",
                produced_ms + bound_ms
            );
            assert_eq!(
                feed.root_on_chain(),
                digest.as_bytes().to_vec(),
                "{label}: the confirmed gPut {version}'s digest is not the one on chain"
            );
        }
    }
}

/// Theorem 3.1 / E.1 — a concurrent `gPut` and `gGet` serialize in one
/// order, the same on every node once final: the SP's `deliver` (proven
/// against the old digest) and the DO's `gPut` of a new value, sent in the
/// same block, mine in an order the seed decides, both orders occur, the
/// `deliver` passes exactly when it mines first, and a reorged chain
/// settles on the straight-line chain's order, outcomes and digest.
#[test]
fn concurrent_gput_gget_order_agrees_across_nodes() {
    let mut straight = BTreeMap::new();
    let mut orders = BTreeSet::new();
    let mut pairs_rolled_back = 0;
    for (label, seed, config) in theorem_chains() {
        let mut feed = Feed::deploy(config);
        // Version 1 is on chain, and a DU's read of it is waiting on the SP.
        let preamble = [feed.gput(b"eth", b"150").0, feed.gget(b"eth")];
        while preamble
            .iter()
            .any(|&id| confirmed_receipt(&feed.chain, id).is_none())
        {
            assert!(
                feed.chain.height() < 64,
                "{label}: the preamble never confirmed"
            );
            feed.chain.produce_block();
        }
        let requests = feed.chain.events_since(0, feed.manager, "Request");
        assert_eq!(
            requests.len(),
            1,
            "{label}: the gGet raised {} requests",
            requests.len()
        );

        let deliver = feed.deliver(b"eth", b"150");
        let (gput, _) = feed.gput(b"eth", b"151");
        for _ in 0..(1 + MAX_DELAY + config.confirm_depth + 3) {
            feed.chain.produce_block();
        }
        let settled: Vec<(TxId, bool)> = feed
            .chain
            .blocks()
            .iter()
            .flat_map(|b| &b.receipts)
            .filter(|r| r.tx_id == deliver || r.tx_id == gput)
            .map(|r| (r.tx_id, r.success))
            .collect();
        assert_eq!(settled.len(), 2, "{label}: settled {settled:?}");
        for id in [deliver, gput] {
            assert!(
                confirmed_receipt(&feed.chain, id).is_some(),
                "{label}: {id:?} is not confirmed"
            );
        }
        let deliver_first = settled[0].0 == deliver;
        let outcome = |id: TxId| settled.iter().find(|s| s.0 == id).map(|s| s.1);
        assert_eq!(
            outcome(deliver),
            Some(deliver_first),
            "{label}: the deliver of the old digest must pass exactly when it mines first"
        );
        assert_eq!(outcome(gput), Some(true), "{label}: the gPut failed");

        let run = (settled, feed.chain.chain_digest());
        if config.reorg.is_none() {
            orders.insert(deliver_first);
            straight.insert((seed, config.confirm_depth), run);
            continue;
        }
        let rolled_back = |id: &TxId| {
            feed.chain
                .reorg_events()
                .iter()
                .any(|event| event.abandoned.contains(id))
        };
        if [deliver, gput].iter().all(rolled_back) {
            pairs_rolled_back += 1;
        }
        let want = &straight[&(seed, config.confirm_depth)];
        assert_eq!(
            run.0, want.0,
            "{label}: a reorg changed the settled order or outcomes"
        );
        assert_eq!(run.1, want.1, "{label}: a reorg changed the chain digest");
    }
    assert_eq!(
        orders.len(),
        2,
        "both orders of a same-block gPut/deliver pair must occur across seeds"
    );
    assert!(
        pairs_rolled_back > 0,
        "no reorg rolled back both transactions of a pair — the net tested nothing"
    );
}

/// Before confirmation, views may disagree: a node that saw a fork block
/// held a chain whose digest differs from the canonical one at that
/// height. Confirmed views never do: with `F` = 3 and forks that try to
/// roll back up to 5 blocks, no reorg rolls back a confirmed block, each
/// step's confirmed view extends the last, and it equals the confirmed
/// view of a node that never saw a fork.
#[test]
fn prefinality_views_may_disagree_but_finalized_views_never_do() {
    type View = Vec<(u64, u64, Vec<(TxId, bool)>)>;
    fn confirmed_view(chain: &Blockchain) -> View {
        chain
            .blocks()
            .iter()
            .filter(|b| b.number <= chain.confirmed_height())
            .map(|b| {
                let receipts = b.receipts.iter().map(|r| (r.tx_id, r.success));
                (b.number, b.time_ms, receipts.collect())
            })
            .collect()
    }
    let mut forks = 0;
    for seed in 0..12u64 {
        let label = format!("seed={seed}");
        let config = ChainConfig::default()
            .latency(seed, MAX_DELAY)
            .confirm_depth(3)
            .reorg(seed, 3, 5);
        let mut forked = Feed::deploy(config);
        let mut straight = Feed::deploy(ChainConfig {
            reorg: None,
            ..config
        });
        let mut last_view = confirmed_view(&forked.chain);
        for version in 0..12u64 {
            let value = version.to_string();
            forked.gput(b"eth", value.as_bytes());
            straight.gput(b"eth", value.as_bytes());
            let confirmed_before = forked.chain.confirmed_height();
            let seen = forked.chain.reorg_events().len();
            forked.chain.produce_block();
            straight.chain.produce_block();
            for event in &forked.chain.reorg_events()[seen..] {
                forks += 1;
                assert!(
                    event.height - 1 - event.depth as u64 >= confirmed_before,
                    "{label}: the fork at {} rolled back {} blocks past the frontier {confirmed_before}",
                    event.height,
                    event.depth
                );
                assert_ne!(
                    event.fork_digest,
                    forked.chain.chain_digest(),
                    "{label}: the fork at {} is the canonical block",
                    event.height
                );
            }
            let view = confirmed_view(&forked.chain);
            assert!(
                view.starts_with(&last_view),
                "{label}: the confirmed view changed at height {}",
                forked.chain.height()
            );
            assert_eq!(
                view,
                confirmed_view(&straight.chain),
                "{label}: confirmed views differ between a forked and a straight node"
            );
            last_view = view;
        }
    }
    assert!(forks > 0, "no fork happened — the test compared nothing");
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
