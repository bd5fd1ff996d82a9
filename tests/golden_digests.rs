//! Golden digests: four small deterministic engine runs whose chain
//! digest, total feed Gas and final Merkle roots are pinned as constants,
//! and one smoke fleet whose batching ladder — Gas, rounds, sections and
//! transactions, five ways — is pinned the same way.
//!
//! Every other equivalence net in the workspace compares two paths through
//! the *same* build (batch ≡ sequential, reorged ≡ straight-line, streamed
//! ≡ materialised), so a change to a shared shape decision — which side a
//! leaf is grafted on, when a scapegoat rebuild fires, the order
//! transitions reach the `update()` payload — passes them all while
//! silently changing every root that goes on chain. These constants pin the
//! bytes across commits: a PR that moves one must say why.
//!
//! The three runs whose feeds deliver two or more keys in a round last
//! moved when a feed's same-round delivers started sharing one Merkle
//! proof (`coalesce_delivers`): the chain digest and the feed Gas moved,
//! the roots and rehash counts did not. The one-key fleet did not move.

use grub::chain::ChainConfig;
use grub::core::policy::PolicyKind;
use grub::core::system::SystemConfig;
use grub::engine::specs::{demo_policies, zipfian_ratio_specs, DEMO_RATIOS};
use grub::engine::{EngineConfig, FeedEngine, FeedSpec};
use grub::gas::FeeProcess;
use grub::workload::ratio::MultiKeyRatio;
use grub::workload::ycsb::{preload, YcsbKind, YcsbRunner};

/// What one run pins.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    chain_digest: String,
    feed_gas_total: u64,
    /// Final DO mirror root per tenant, in spec order (each asserted equal
    /// to the tenant's SP root before it is recorded).
    roots: Vec<String>,
    /// The largest per-round `merkle_nodes_rehashed` — a count, pinned so a
    /// change in *how much* of the tree a rebuild touches shows even when
    /// the resulting root does not move.
    max_round_rehashed: u64,
}

fn run(config: &EngineConfig, specs: Vec<FeedSpec>) -> Golden {
    let tenants: Vec<String> = specs.iter().map(|s| s.tenant.clone()).collect();
    let mut engine = FeedEngine::new(config, specs).expect("engine builds");
    engine.run_rounds().expect("engine runs");
    let roots = tenants
        .iter()
        .map(|tenant| {
            let driver = engine.driver(tenant).expect("tenant exists");
            assert_eq!(
                driver.owner().root(),
                driver.provider().root(),
                "{tenant}: DO mirror and SP tree diverged"
            );
            driver.owner().root().to_hex()
        })
        .collect();
    // Every stream is exhausted, so this only collects the report.
    let (report, chain) = engine.run_with_chain().expect("report");
    assert_eq!(report.failed_delivers(), 0);
    Golden {
        chain_digest: chain.chain_digest().to_hex(),
        feed_gas_total: report.feed_gas_total(),
        roots,
        max_round_rehashed: report
            .metrics
            .iter()
            .map(|m| m.merkle_nodes_rehashed)
            .max()
            .unwrap_or(0),
    }
}

fn golden(chain_digest: &str, feed_gas_total: u64, roots: &[&str], rehashed: u64) -> Golden {
    Golden {
        chain_digest: chain_digest.to_owned(),
        feed_gas_total,
        roots: roots.iter().map(|r| (*r).to_owned()).collect(),
        max_round_rehashed: rehashed,
    }
}

const RECORDS: u64 = 4096;
const RECORD_LEN: usize = 64;
const SEED: u64 = 11;

/// 4,096 YCSB records in key order — a sorted preload.
fn ycsb_dataset() -> Vec<(String, Vec<u8>)> {
    let dataset: Vec<(String, Vec<u8>)> = preload(RECORDS, RECORD_LEN, SEED)
        .into_iter()
        .map(|(key, value)| (key, value.materialize()))
        .collect();
    assert!(dataset.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
    dataset
}

/// YCSB-A epochs under Memoryless K=2 over `dataset`, preloaded NR.
fn ycsb_run(dataset: Vec<(String, Vec<u8>)>) -> Golden {
    let source = YcsbRunner::new(RECORDS, RECORD_LEN, SEED).into_source(vec![(YcsbKind::A, 1536)]);
    let spec = FeedSpec::from_source(
        "ycsb",
        SystemConfig::new(PolicyKind::Memoryless { k: 2 })
            .epoch_ops(32)
            .preload(dataset),
        Box::new(source),
    );
    run(&EngineConfig::new(1), vec![spec])
}

/// A sorted preload is bulk-loaded: DO mirror and SP tree start as the
/// balanced 4,096-leaf tree, so the first NR→R transition — the tree's only
/// R leaf, grafted at the far right — rehashes one path, and no round comes
/// near the whole tree. The preload root is the digest in the first
/// `update()`, so these are the on-chain bytes of the bulk-load rule.
#[test]
fn ycsb_sorted_preload_is_bulk_loaded() {
    let got = ycsb_run(ycsb_dataset());
    assert!(
        got.max_round_rehashed < RECORDS / 4,
        "a round rebuilt a large part of the tree: {got:?}"
    );
    assert_eq!(
        got,
        golden(
            "e8f13ac8ada0bd0b3139287f0bb8752ad896808333bfe83a6188e7d0bfe6c932",
            35_003_796,
            &["f3df4e557fa5fcdfaa69b7c822e436778ff3216385d0c0fff558a47e8092b699"],
            590,
        )
    );
}

/// The same dataset handed over with its last two records swapped. That is
/// not a sorted load, so both trees grow one insert at a time, as a feed
/// that follows the tip grows them. Appends rebuild the root whenever the
/// tree reaches 2^k + 1 leaves and the preload stops one leaf short: the
/// first NR→R transition grafts the tree's only R leaf at the far right as
/// leaf 4,097, which tips the scapegoat test at the root and rebuilds the
/// whole tree — in the DO mirror and in the SP — mid-batch. Later epochs mix
/// in-place updates, tombstones, revivals and grafts on both sides of the
/// tree. Swapping the last two records does not change the tree the appends
/// grow (4,095 then 4,094 joins the same two leaves as 4,094 then 4,095).
/// Until the shared-proof delivers, these constants were the ones the sorted
/// preload mined before it was bulk loaded; the rebuild leaves the balanced
/// tree, which is why both scenarios end on the same root and, with every
/// later proof taken from that same tree, on the same feed Gas.
#[test]
fn ycsb_preloaded_feed_with_root_level_rebuild() {
    let mut dataset = ycsb_dataset();
    let n = dataset.len();
    dataset.swap(n - 2, n - 1);
    let got = ycsb_run(dataset);
    assert!(
        got.max_round_rehashed > 2 * RECORDS,
        "no round rebuilt the whole tree in both DO and SP: {got:?}"
    );
    assert_eq!(
        got,
        golden(
            "07b5ae52ca376ce50e1c0590d2b5eb9aea077d16d89ab89307b1954666e6dbd2",
            35_003_796,
            &["f3df4e557fa5fcdfaa69b7c822e436778ff3216385d0c0fff558a47e8092b699"],
            8226,
        )
    );
}

/// Two feeds, three keys each, different policies: the small-keyspace
/// stream where chain execution and section encoding do the work.
#[test]
fn two_feed_three_key_stream() {
    let source = |lane: u64| {
        MultiKeyRatio::new(vec![
            ("stream-hot".into(), 4.0),
            ("stream-cold".into(), 0.125),
            ("stream-warm".into(), 1.0),
        ])
        .seed(1_000_003 + lane)
        .source(24)
    };
    let specs = vec![
        FeedSpec::from_source(
            "stream-a",
            SystemConfig::new(PolicyKind::Memoryless { k: 2 }).epoch_ops(32),
            Box::new(source(1)),
        ),
        FeedSpec::from_source(
            "stream-b",
            SystemConfig::new(PolicyKind::SelfTuning { window: 16 }).epoch_ops(32),
            Box::new(source(2)),
        ),
    ];
    let got = run(&EngineConfig::new(2), specs);
    assert_eq!(
        got,
        golden(
            "97b198372d5c89784b87a61352c6bbde02524e636bdee042dcad98f8f683df97",
            2_680_822,
            &[
                "122d2f127841bc00f0169283dad9319f4a4841b9e23e28955c3745374435e66d",
                "569e4f1319144acffc4f46fe175170f57eb0eb400fff2b425a3c935ef0177e2d",
            ],
            28,
        )
    );
}

/// Eight zipfian-skewed one-key feeds on two shards with full batching,
/// under reorgs and depth-3 confirmation, so abandoned blocks and
/// resubmission reach the digest. The two read-leaning Memorizing feeds run
/// at live tempo: their reads are observed after the epoch's flush, the
/// deliver installs the replica ahead of the tree (a hinted replica), and
/// the next flush formalizes or evicts it.
#[test]
fn eight_feed_fleet_under_reorgs() {
    let mut config = EngineConfig::new(2);
    config.chain = ChainConfig::default().reorg(7, 5, 2).confirm_depth(3);
    let mut specs = zipfian_ratio_specs(8, 1600, DEMO_RATIOS, &demo_policies());
    for spec in specs.iter_mut().skip(1).step_by(4) {
        spec.config = spec.config.clone().live_reads();
    }
    let got = run(&config, specs);
    assert_eq!(
        got,
        golden(
            "44ca3d843737dfa25a993cf878e1545abd0ee2c8382913e1bc59060f78abc95e",
            5_383_318,
            &[
                "4dc593d4fee357ccfe4b41166b43486aec07408897b7216183b0ccd89e60be98",
                "9596594c3f7b1389d3e909d576be967378a77e856917111b4157ac426d61f9d6",
                "6476bdb8e89a0318914534963d2392935bb2f7d59d5ecedfbc40066324278479",
                "e72262c44ce24e8ae360fd43615e7856fcfff9c569eaace082ff06de147633aa",
                "f4ae434ac0b1df550e825e2fe1dce1f51a23b142c27a752e9bd614c8e8a258ca",
                "f8da318df318d9104d509155059b139b045f26df09b47ca804feccaf5f8b97da",
                "dc55b233f0192238d97ecb1767dc4f55be65f4e0d362c579cf5d7153e2dc6894",
                "24c08e5fd7001f60a45f257dcba5b823fba6843614a72a1c10c6ca0ab33d44c5",
            ],
            16,
        )
    );
}

/// What the batching ladder pins: the smoke fleet's ops and rounds, its
/// feed Gas five ways, and the full-batch run's sections and transactions.
#[derive(Debug, PartialEq, Eq)]
struct Ladder {
    total_ops: usize,
    rounds: usize,
    unbatched_gas: u64,
    write_only_gas: u64,
    full_batch_gas: u64,
    fee_spike_gas: u64,
    confirm_depth_gas: u64,
    update_sections: usize,
    deliver_sections: usize,
    update_txs: usize,
    deliver_txs: usize,
}

/// The multifeed example's 8-feed mixed-skew fleet at smoke scale on two
/// shards, run unbatched, with update batching only, fully batched, fully
/// batched under the seeded spiking gas price, and fully batched under
/// depth-3 confirmation with inclusion latency. Block heights, and so every
/// priced charge, are pure functions of the specs and the seeds.
#[test]
fn multifeed_batching_ladder() {
    let run = |config: EngineConfig| {
        let specs = zipfian_ratio_specs(8, 512, DEMO_RATIOS, &demo_policies());
        FeedEngine::run_specs(&config, specs).expect("fleet runs")
    };
    let with_chain = |chain: ChainConfig| {
        let mut config = EngineConfig::new(2);
        config.chain = chain;
        run(config)
    };
    let unbatched = run(EngineConfig::new(2).unbatched());
    let write_only = run(EngineConfig::new(2).without_read_batching());
    let full = run(EngineConfig::new(2));
    let fee_spike = with_chain(ChainConfig::default().fee(FeeProcess::spike(11)));
    let confirm = with_chain(ChainConfig::default().confirm_depth(3).latency(5, 1));
    let got = Ladder {
        total_ops: full.total_ops(),
        rounds: full.rounds,
        unbatched_gas: unbatched.feed_gas_total(),
        write_only_gas: write_only.feed_gas_total(),
        full_batch_gas: full.feed_gas_total(),
        fee_spike_gas: fee_spike.feed_gas_total(),
        confirm_depth_gas: confirm.feed_gas_total(),
        update_sections: full.metrics.iter().map(|m| m.update_sections).sum(),
        deliver_sections: full.metrics.iter().map(|m| m.deliver_sections).sum(),
        update_txs: full.shard_update_txs.iter().sum(),
        deliver_txs: full.shard_deliver_txs.iter().sum(),
    };
    assert_eq!(
        got.confirm_depth_gas, got.full_batch_gas,
        "confirmation depth and inclusion latency must never move a unit of Gas"
    );
    assert!(
        got.full_batch_gas < got.write_only_gas && got.write_only_gas < got.unbatched_gas,
        "the gas-savings ladder must be strictly monotone: {got:?}"
    );
    assert_eq!(
        got,
        Ladder {
            total_ops: 501,
            rounds: 6,
            unbatched_gas: 1_576_220,
            write_only_gas: 1_404_628,
            full_batch_gas: 1_287_332,
            fee_spike_gas: 2_093_059,
            confirm_depth_gas: 1_287_332,
            update_sections: 18,
            deliver_sections: 14,
            update_txs: 9,
            deliver_txs: 8,
        }
    );
}
