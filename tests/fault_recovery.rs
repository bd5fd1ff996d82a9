//! Crash-point fault injection through the engine's stage-and-commit
//! pipeline, with the full recovery contract:
//!
//! * every named [`FaultPoint`] kills the 8-feed mixed-skew fleet mid-run;
//! * a fresh process re-executing from genesis — checkpointed against the
//!   surviving chain ([`FeedEngine::expect_digest_at`]) — converges to a
//!   chain digest and per-feed store state *byte-identical* to an
//!   uninterrupted run;
//! * the dying process's persistent SP stores reopen cleanly (WAL torn-tail
//!   and SSTable tmp-file hardening) and the Merkle scrubber repairs them
//!   to the clean run's exact state digest.
//!
//! Plus the bulk-loaded preload: what a deploy leaves in the store, and what
//! a deploy killed on its k-th table leaves for the next one.

use std::path::{Path, PathBuf};

use grub::chain::{Blockchain, ChainConfig};
use grub::core::policy::PolicyKind;
use grub::core::provider::{SpSync, StorageProvider};
use grub::core::scrub::Scrubber;
use grub::core::system::{DriverIdentity, EpochDriver, SystemConfig};
use grub::crypto::Hash32;
use grub::engine::specs::{demo_policies, zipfian_ratio_specs, DEMO_RATIOS};
use grub::engine::{EngineConfig, FeedEngine, FeedSpec};
use grub::fault::{FaultPlan, FaultPoint};
use grub::merkle::ReplState;
use grub::store::Options;
use grub::workload::{Op, Trace};

/// Tiny memtable so SSTable flushes — and the mid-flush crash point —
/// actually occur on a 320-op fleet.
fn small_store() -> Options {
    Options {
        memtable_bytes: 512,
        l0_compaction_trigger: 2,
        ..Options::default()
    }
}

/// The 8-feed mixed-skew fleet of the multifeed example, scaled down and
/// pointed at persistent per-tenant store directories under `root`.
fn fleet(root: &Path) -> Vec<FeedSpec> {
    let mut specs = zipfian_ratio_specs(8, 320, DEMO_RATIOS, &demo_policies());
    for spec in &mut specs {
        spec.config = spec
            .config
            .clone()
            .store_at(root.join(&spec.tenant))
            .store_options(small_store());
    }
    specs
}

fn engine_config() -> EngineConfig {
    let mut config = EngineConfig::new(2);
    // A reorg-capable chain (seeded forks every 5th block, depth ≤ 2) so
    // the mid-reorg-rollback and mid-resubmission crash points actually
    // trip, with depth-2 confirmation and inclusion latency layered on so
    // recovery is proven digest-identical through the full confirmation
    // stack, not just around it.
    config.chain = ChainConfig::default()
        .reorg(7, 5, 2)
        .confirm_depth(2)
        .latency(5, 1);
    config
}

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "grub-faultrec-{tag}-{}-{}",
        std::process::id(),
        rand::random::<u64>()
    ))
}

/// (tenant, store state digest) per feed of a finished engine.
fn store_digests(engine: &FeedEngine, tenants: &[String]) -> Vec<(String, Hash32)> {
    tenants
        .iter()
        .map(|tenant| {
            let driver = engine.driver(tenant).expect("tenant exists");
            (
                tenant.clone(),
                driver.provider().state_digest().expect("digest"),
            )
        })
        .collect()
}

#[test]
fn every_crash_point_recovers_to_byte_identical_state() {
    let tenants: Vec<String> = fleet(&temp_root("probe"))
        .iter()
        .map(|s| s.tenant.clone())
        .collect();
    // The uninterrupted reference run.
    let clean_root = temp_root("clean");
    let mut clean = FeedEngine::new(&engine_config(), fleet(&clean_root)).unwrap();
    clean.run_rounds().unwrap();
    let clean_digest = clean.chain().chain_digest();
    let clean_stores = store_digests(&clean, &tenants);

    for point in FaultPoint::ALL {
        let crash_root = temp_root("crash");
        let recover_root = temp_root("recover");

        // 1. The crash: arm the point after deployment (provisioning is
        //    not under test) and the run must die mid-pipeline.
        let mut crashed = FeedEngine::new(&engine_config(), fleet(&crash_root)).unwrap();
        grub::fault::arm(FaultPlan::at(point));
        let died = crashed.run_rounds();
        assert!(
            died.is_err(),
            "{point:?}: armed crash point did not kill the run"
        );
        assert!(
            !grub::fault::is_armed(),
            "{point:?}: run died but the point never tripped"
        );
        let surviving_height = crashed.chain().height();
        let surviving_digest = crashed.chain().chain_digest();
        drop(crashed); // process death — persistent stores stay on disk

        // 2. Recovery: a fresh process re-executes from genesis. The
        //    surviving chain is the oracle: when re-execution reaches its
        //    height the digests must agree (the checkpoint panics
        //    otherwise), and the completed run must be byte-identical to
        //    the uninterrupted one.
        let mut recovered = FeedEngine::new(&engine_config(), fleet(&recover_root)).unwrap();
        if surviving_height > recovered.chain().height() {
            recovered.expect_digest_at(surviving_height, surviving_digest);
        } else {
            // The crash predated the first post-deployment block; the
            // deployments themselves must already agree.
            assert_eq!(
                recovered.chain().chain_digest(),
                surviving_digest,
                "{point:?}: deployment diverged from the surviving chain"
            );
        }
        recovered.run_rounds().unwrap();
        assert_eq!(
            recovered.chain().chain_digest(),
            clean_digest,
            "{point:?}: recovered chain is not byte-identical to the clean run"
        );
        let recovered_stores = store_digests(&recovered, &tenants);
        assert_eq!(
            recovered_stores, clean_stores,
            "{point:?}: recovered SP stores diverge from the clean run"
        );

        // 3. The survivor stores: whatever the dying process left on
        //    disk must reopen (WAL torn-tail + SSTable tmp hardening),
        //    and one repairing scrub pass against the recovered DO
        //    brings each store to the clean run's exact content.
        for (tenant, clean_sd) in &clean_stores {
            let driver = recovered.driver(tenant).expect("tenant exists");
            let mut survivor = StorageProvider::open_at(
                driver.provider().address(),
                crash_root.join(tenant),
                small_store(),
            )
            .unwrap_or_else(|e| panic!("{point:?}/{tenant}: survivor store did not reopen: {e}"));
            Scrubber::repairing()
                .scrub(
                    recovered.chain(),
                    driver.manager(),
                    driver.owner(),
                    &mut survivor,
                )
                .unwrap();
            assert_eq!(
                survivor.state_digest().unwrap(),
                *clean_sd,
                "{point:?}/{tenant}: scrub-repaired survivor diverges"
            );
        }
        std::fs::remove_dir_all(&crash_root).ok();
        std::fs::remove_dir_all(&recover_root).ok();
    }
    drop(clean);
    std::fs::remove_dir_all(&clean_root).ok();
}

/// `n` key-ordered records of `len` bytes — a sorted preload.
fn sorted_dataset(n: u32, len: usize) -> Vec<(String, Vec<u8>)> {
    (0..n)
        .map(|i| (format!("user{i:012}"), vec![i as u8; len]))
        .collect()
}

fn deploy(config: &SystemConfig) -> grub::core::Result<EpochDriver> {
    deploy_on(&mut Blockchain::with_config(ChainConfig::default()), config)
}

fn deploy_on(chain: &mut Blockchain, config: &SystemConfig) -> grub::core::Result<EpochDriver> {
    EpochDriver::deploy(chain, config, &DriverIdentity::tenant("bulk"))
}

#[test]
fn sorted_preload_deploys_as_pure_l1_with_the_put_loaded_contents() {
    let dataset = sorted_dataset(4096, 256);
    let config = SystemConfig::new(PolicyKind::Memoryless { k: 2 }).preload(dataset.clone());
    let driver = deploy(&config).unwrap();
    let (l0, l1, flushes, compactions) = driver.provider().store_stats();
    assert_eq!((l0, flushes, compactions), (0, 0, 0), "no WAL-path traffic");
    assert_eq!(l1, 1, "1 MiB of records: one table");
    assert_eq!(driver.owner().root(), driver.provider().root());

    // The same records pushed through the per-record sync path.
    let mut by_put = StorageProvider::new(driver.provider().address()).unwrap();
    by_put
        .apply_sync_batch(
            dataset
                .iter()
                .map(|(key, value)| SpSync::Write {
                    key: key.clone(),
                    value: value.clone(),
                    state: ReplState::NotReplicated,
                })
                .collect(),
        )
        .unwrap();
    assert!(by_put.store_stats().2 > 0, "the put path flushes");
    assert_eq!(
        driver.provider().state_digest().unwrap(),
        by_put.state_digest().unwrap()
    );
    // One rule, two callers: the tree does not care which path fed it.
    assert_eq!(driver.provider().root(), by_put.root());
}

#[test]
fn deploy_killed_mid_preload_reloads_to_the_uncrashed_store() {
    // 5 MiB: three L1 tables at the 2 MiB cut.
    let dataset = sorted_dataset(10_000, 512);
    let config = |dir: &Path| {
        SystemConfig::new(PolicyKind::Memoryless { k: 2 })
            .preload(dataset.clone())
            .store_at(dir)
    };
    let clean_dir = temp_root("bulk-clean");
    let clean = deploy(&config(&clean_dir)).unwrap();
    assert_eq!(clean.provider().store_stats(), (0, 3, 0, 0));
    let clean_digest = clean.provider().state_digest().unwrap();

    for survive in 0..3u32 {
        let dir = temp_root("bulk-crash");
        grub::fault::arm(FaultPlan::nth(FaultPoint::MidSstableFlush, survive));
        let died = deploy(&config(&dir));
        assert!(died.is_err(), "table {survive}: the deploy survived");
        assert!(!grub::fault::is_armed(), "table {survive}: never tripped");
        drop(died); // process death — the persistent store stays on disk

        // What the dying deploy left: complete tables only, and a
        // sequence that covers them.
        let survivor = grub::store::Db::open(&dir, Options::default()).unwrap();
        assert_eq!(survivor.stats(), (0, survive as usize, 0, 0));
        assert_eq!(
            survivor.sequence(),
            survivor.scan(None, None).unwrap().len() as u64
        );
        drop(survivor);

        // Deploying again over the survivor loads the dataset again —
        // record by record wherever the store already has history.
        let mut chain = Blockchain::with_config(ChainConfig::default());
        let mut again = deploy_on(&mut chain, &config(&dir)).unwrap();
        assert_eq!(
            again.provider().state_digest().unwrap(),
            clean_digest,
            "table {survive}: reloaded store diverges from the uncrashed load"
        );
        assert_eq!(
            again.provider().live_records().unwrap().len(),
            dataset.len()
        );
        // The SP's tree grew record by record on top of the survivors; it
        // must still be the tree the fresh DO bulk-built, or the digest on
        // chain matches none of the SP's proofs.
        assert_eq!(
            again.owner().root(),
            again.provider().root(),
            "table {survive}: SP tree diverges from the DO mirror"
        );
        assert_eq!(again.provider().root(), clean.provider().root());
        // And the feed serves: reads from both ends and the middle of the
        // dataset — inside and past the surviving prefix — all verify.
        let reads = Trace {
            ops: [0, 1, 3_000, 5_000, 9_998, 9_999, 5_000]
                .into_iter()
                .map(|i| Op::Read {
                    key: dataset[i].0.clone(),
                })
                .collect(),
        };
        again.drive(&mut chain, &mut reads.into_source()).unwrap();
        assert_eq!(again.owner().root(), again.provider().root());
        let report = again.into_report();
        assert_eq!(report.failed_delivers(), 0, "table {survive}");
        assert_eq!(report.total_ops(), 7, "table {survive}");
        std::fs::remove_dir_all(&dir).ok();
    }
    drop(clean);
    std::fs::remove_dir_all(&clean_dir).ok();
}
