//! Crash-point fault injection through the engine's stage → merge → commit
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

use std::path::{Path, PathBuf};

use grub::chain::ChainConfig;
use grub::core::provider::StorageProvider;
use grub::core::scrub::Scrubber;
use grub::crypto::Hash32;
use grub::engine::specs::{demo_policies, zipfian_ratio_specs, DEMO_RATIOS};
use grub::engine::{EngineConfig, FeedEngine, FeedSpec};
use grub::fault::{FaultPlan, FaultPoint};
use grub::store::Options;

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
