//! Property tests for the durability and authentication substrates:
//!
//! * `grub-merkle` — insert/update/prove/verify round-trips over arbitrary
//!   key-value sequences: every live record's membership proof verifies
//!   against the current root, updates change what the proof commits to,
//!   and proofs never verify against the wrong root, key, or value;
//! * `grub-store` — WAL/SSTable recovery: an arbitrary stream of puts,
//!   deletes, flushes and compactions, cut off at an arbitrary point (some
//!   data only in the WAL, some in SSTables), reads back like the model on
//!   the live handle and reappears intact when the database is reopened
//!   from disk; `Db::ingest_sorted` equals the `put` loop on any
//!   input and any store, and a crash on its k-th table leaves a clean
//!   prefix that a second load completes.

use std::collections::BTreeMap;

use proptest::prelude::*;

use grub::crypto::sha256;
use grub::merkle::{record_value_hash, MerkleKv, ProofKey, ReplState, VerifyError};
use grub::store::{Db, Options};

fn pkey(replicated: bool, key: &str) -> ProofKey {
    ProofKey::new(
        if replicated {
            ReplState::Replicated
        } else {
            ReplState::NotReplicated
        },
        key.as_bytes().to_vec(),
    )
}

/// (replicated-half, key-id, value-seed) — a compact op encoding that
/// revisits keys often, so sequences exercise update-in-place heavily.
fn kv_op() -> impl Strategy<Value = (bool, u8, u64)> {
    (any::<bool>(), 0u8..16, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Insert/update/prove/verify round-trip: after an arbitrary sequence
    /// of inserts and updates, every key proves its *latest* value against
    /// the current root, and nothing else verifies.
    #[test]
    fn merkle_proof_round_trips(ops in prop::collection::vec(kv_op(), 1..80)) {
        let mut tree = MerkleKv::new();
        let mut model: BTreeMap<ProofKey, [u8; 8]> = BTreeMap::new();
        for (replicated, key_id, seed) in &ops {
            let pk = pkey(*replicated, &format!("key{key_id:02}"));
            let value = seed.to_le_bytes();
            tree.insert(pk.clone(), record_value_hash(&value));
            model.insert(pk, value);
        }
        let root = tree.root();
        for (pk, value) in &model {
            let vh = record_value_hash(value);
            // The point form the SP serves: the one-key range [pk, pk].
            let proof = tree.prove_range(pk, pk);
            let proven = proof.verify(&root, pk, pk);
            prop_assert_eq!(
                &proven,
                &Ok(vec![(pk.clone(), vh)]),
                "latest value must verify after updates"
            );
            // A superseded or forged value is not what the proof commits to.
            let forged = record_value_hash(&seed_forgery(value));
            prop_assert_ne!(proven, Ok(vec![(pk.clone(), forged)]));
            // Nor does the right value verify under the wrong root.
            let wrong_root = sha256(root.as_bytes());
            prop_assert_eq!(
                proof.verify(&wrong_root, pk, pk),
                Err(VerifyError::RootMismatch)
            );
        }
    }

    /// An updated record's proof stops verifying the moment the tree moves
    /// on — stale (proof, value) pairs are rejected against the new root.
    #[test]
    fn merkle_update_invalidates_stale_proofs(
        key_id in 0u8..16,
        old_seed in any::<u64>(),
        new_seed in any::<u64>(),
        background in prop::collection::vec(kv_op(), 0..40),
    ) {
        let pk = pkey(false, &format!("key{key_id:02}"));
        let mut tree = MerkleKv::new();
        for (replicated, id, seed) in &background {
            tree.insert(
                pkey(*replicated, &format!("key{id:02}")),
                record_value_hash(&seed.to_le_bytes()),
            );
        }
        let old_value = old_seed.to_le_bytes();
        tree.insert(pk.clone(), record_value_hash(&old_value));
        let old_root = tree.root();
        let old_proof = tree.prove_range(&pk, &pk);
        let old_record = vec![(pk.clone(), record_value_hash(&old_value))];
        prop_assert_eq!(old_proof.verify(&old_root, &pk, &pk), Ok(old_record));

        // Update the record (append-only value streams never repeat seeds).
        let new_value = new_seed.to_le_bytes();
        tree.insert(pk.clone(), record_value_hash(&new_value));
        let new_root = tree.root();
        let new_record = vec![(pk.clone(), record_value_hash(&new_value))];
        prop_assert_eq!(
            tree.prove_range(&pk, &pk).verify(&new_root, &pk, &pk),
            Ok(new_record)
        );
        if old_seed != new_seed {
            prop_assert_ne!(old_root, new_root, "update must move the root");
            prop_assert_eq!(
                old_proof.verify(&new_root, &pk, &pk),
                Err(VerifyError::RootMismatch),
                "replayed stale proof must fail against the new root"
            );
        }
    }

    /// WAL/SSTable recovery: whatever mix of flushed, compacted and
    /// unflushed state the process dies with, the live handle and the
    /// directory reopened after it reproduce the model exactly — point
    /// reads, scans, and the write sequence number.
    #[test]
    fn store_recovers_from_wal_and_sstables(
        ops in prop::collection::vec((0u8..5, 0u8..20, any::<u16>()), 1..120),
        lo in 0u8..20,
        width in 0u8..21,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "grub-recovery-{}-{}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let opts = Options {
            memtable_bytes: 256, // tiny: force frequent organic flushes too
            l0_compaction_trigger: 2,
            ..Options::default()
        };
        let mut db = Db::open(&dir, opts).expect("open");
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (kind, key_id, v) in &ops {
            let key = format!("k{key_id:02}").into_bytes();
            match kind {
                0 | 1 => {
                    let value = v.to_le_bytes().to_vec();
                    db.put(key.clone(), value.clone()).expect("put");
                    model.insert(key, value);
                }
                2 => {
                    db.delete(&key).expect("delete");
                    model.remove(&key);
                }
                3 => db.flush().expect("flush"),
                _ => db.compact().expect("compact"),
            }
        }
        // The live handle: every key id, deleted or never written included.
        for key_id in 0u8..20 {
            let key = format!("k{key_id:02}").into_bytes();
            prop_assert_eq!(
                db.get(&key).expect("get"),
                model.get(&key).cloned(),
                "live read of {:?}",
                String::from_utf8_lossy(&key)
            );
        }
        let (start, end) = (
            format!("k{lo:02}").into_bytes(),
            format!("k{:02}", lo + width).into_bytes(),
        );
        let bounded = db.scan(Some(&start), Some(&end)).expect("scan");
        let expect: Vec<_> = model
            .range(start..end)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(bounded, expect, "live bounded scan must match the model");
        let sequence = db.sequence();
        drop(db); // "crash": unflushed tail lives only in the WAL

        let reopened = Db::open(&dir, opts).expect("recover");
        prop_assert_eq!(
            reopened.sequence(),
            sequence,
            "recovery must restore the write sequence"
        );
        for (key, value) in &model {
            prop_assert_eq!(
                reopened.get(key).expect("get"),
                Some(value.clone()),
                "key {:?} lost in recovery",
                String::from_utf8_lossy(key)
            );
        }
        let scanned = reopened.scan(None, None).expect("scan");
        let expect: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(scanned, expect, "recovered scan must match the model");
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Recovery is idempotent: reopening twice (a crash during/after a clean
    /// recovery) yields the same contents again.
    #[test]
    fn store_recovery_is_idempotent(
        ops in prop::collection::vec((0u8..20, any::<u16>()), 1..60),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "grub-reopen-{}-{}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let opts = Options {
            memtable_bytes: 256,
            l0_compaction_trigger: 2,
            ..Options::default()
        };
        let mut db = Db::open(&dir, opts).expect("open");
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (key_id, v) in &ops {
            let key = format!("k{key_id:02}").into_bytes();
            let value = v.to_le_bytes().to_vec();
            db.put(key.clone(), value.clone()).expect("put");
            model.insert(key, value);
        }
        drop(db);
        for _ in 0..2 {
            let db = Db::open(&dir, opts).expect("reopen");
            let scanned = db.scan(None, None).expect("scan");
            let expect: Vec<_> = model.clone().into_iter().collect();
            prop_assert_eq!(scanned, expect);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A bulk load killed on its k-th table leaves exactly the complete
    /// tables before it — no `.tmp`, no WAL bytes, no sidecar, a sequence
    /// that covers what survived — and loading the dataset again (the `put`
    /// path now, unless nothing survived) ends on the uncrashed contents.
    #[test]
    fn crashed_ingest_leaves_a_prefix_a_second_load_completes(
        records in 4_500u32..9_000,
        value_len in 480usize..900,
        survive in 0u32..2,
    ) {
        use grub::fault::{arm, FaultPlan, FaultPoint};
        // ≥ 2.1 MiB, so at least two tables at the 2 MiB cut.
        let dataset: Vec<(Vec<u8>, Vec<u8>)> = (0..records)
            .map(|i| (format!("user{i:012}").into_bytes(), vec![i as u8; value_len]))
            .collect();
        let borrowed = || dataset.iter().map(|(k, v)| (k.clone(), v.as_slice()));
        let dir = std::env::temp_dir().join(format!(
            "grub-ingest-crash-{}-{}",
            std::process::id(),
            rand::random::<u64>()
        ));
        {
            let mut db = Db::open(&dir, Options::default()).expect("open");
            arm(FaultPlan::nth(FaultPoint::MidSstableFlush, survive));
            prop_assert!(db.ingest_sorted(borrowed()).is_err(), "crash point did not trip");
        }
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        let mut db = Db::open(&dir, Options::default()).expect("reopen");
        prop_assert!(!names.iter().any(|n| n == "SEQ"), "{:?}", names);
        prop_assert!(
            !std::fs::read_dir(&dir).expect("dir").any(|e| {
                e.expect("entry").file_name().to_string_lossy().ends_with(".tmp")
            }),
            "open must sweep the partial table"
        );
        prop_assert_eq!(std::fs::metadata(dir.join("wal.log")).expect("wal").len(), 0);
        prop_assert_eq!(db.stats(), (0, survive as usize, 0, 0));
        let survived = db.scan(None, None).expect("scan");
        prop_assert_eq!(&survived[..], &dataset[..survived.len()]);
        prop_assert_eq!(db.sequence(), survived.len() as u64);
        db.ingest_sorted(borrowed()).expect("second load");
        prop_assert!(db.sequence() >= u64::from(records));
        prop_assert_eq!(db.scan(None, None).expect("scan"), dataset);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `ingest_sorted` is the `put` loop, whatever it is handed — sorted,
    /// shuffled, with repeats — and whatever the store already holds; never
    /// a panic, and the same again after a reopen.
    #[test]
    fn ingest_sorted_equals_the_put_loop(
        history in prop::collection::vec((0u8..3, 0u8..40, any::<u16>()), 0..20),
        records in prop::collection::vec((0u8..40, any::<u16>()), 0..80),
        sorted in any::<bool>(),
    ) {
        let opts = Options {
            memtable_bytes: 256,
            l0_compaction_trigger: 2,
            ..Options::default()
        };
        let mut records: Vec<(Vec<u8>, Vec<u8>)> = records
            .iter()
            .map(|(k, v)| (format!("k{k:02}").into_bytes(), v.to_le_bytes().to_vec()))
            .collect();
        if sorted {
            records.sort();
            records.dedup_by(|a, b| a.0 == b.0);
        }
        let dir = |tag: &str| std::env::temp_dir().join(format!(
            "grub-ingest-{tag}-{}-{}", std::process::id(), rand::random::<u64>()
        ));
        let (ingest_dir, put_dir) = (dir("bulk"), dir("put"));
        let mut ingested = Db::open(&ingest_dir, opts).expect("open");
        let mut by_put = Db::open(&put_dir, opts).expect("open");
        for db in [&mut ingested, &mut by_put] {
            for (kind, key_id, v) in &history {
                let key = format!("k{key_id:02}").into_bytes();
                match kind {
                    0 => db.put(key, v.to_le_bytes().to_vec()).expect("put"),
                    1 => db.delete(&key).expect("delete"),
                    _ => db.flush().expect("flush"),
                }
            }
        }
        ingested
            .ingest_sorted(records.iter().map(|(k, v)| (k.clone(), v.as_slice())))
            .expect("ingest");
        for (key, value) in &records {
            by_put.put(key.clone(), value.clone()).expect("put");
        }
        let expect = by_put.scan(None, None).expect("scan");
        prop_assert_eq!(ingested.scan(None, None).expect("scan"), expect.clone());
        prop_assert_eq!(ingested.sequence(), by_put.sequence());
        if sorted && history.iter().all(|(kind, _, _)| *kind == 2) {
            prop_assert_eq!(ingested.stats().2, 0, "a fresh store, sorted input: no flush");
        }
        drop(ingested);
        let reopened = Db::open(&ingest_dir, opts).expect("reopen");
        prop_assert_eq!(reopened.scan(None, None).expect("scan"), expect);
        prop_assert_eq!(reopened.sequence(), by_put.sequence());
        for dir in [ingest_dir, put_dir] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A deterministic different-value forgery.
fn seed_forgery(value: &[u8; 8]) -> [u8; 8] {
    let mut forged = *value;
    forged[0] ^= 0xFF;
    forged
}

/// A small mixed-skew fleet on persistent stores, for the engine-level
/// crash × recovery property below.
fn crash_fleet(root: &std::path::Path, total_ops: usize) -> Vec<grub::engine::FeedSpec> {
    use grub::engine::specs::{demo_policies, zipfian_ratio_specs, DEMO_RATIOS};
    let mut specs = zipfian_ratio_specs(4, total_ops, DEMO_RATIOS, &demo_policies());
    for spec in &mut specs {
        spec.config = spec
            .config
            .clone()
            .store_at(root.join(&spec.tenant))
            .store_options(grub::store::Options {
                // Tiny memtable: even the read-leaning tenants of a short
                // fleet flush SSTables, so the mid-flush point can trip.
                memtable_bytes: 128,
                l0_compaction_trigger: 2,
                ..grub::store::Options::default()
            });
    }
    specs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Engine-level crash × recovery: for an arbitrary crash point,
    /// batching rung, and fleet size, a run killed at the point and
    /// re-executed by a fresh engine — checkpointed against the surviving
    /// chain — finishes with the same chain digest as an uninterrupted run
    /// of the same specs. Every rung runs the same round loop, so the
    /// engine's points trip in each; only `Batching::Off` has no write
    /// block, and there the draw falls back to the point between groups.
    #[test]
    fn crashed_engine_recovers_to_the_clean_chain_digest(
        point_idx in 0usize..5,
        batching in prop::sample::select(vec![
            grub::engine::Batching::Off,
            grub::engine::Batching::Updates,
            grub::engine::Batching::Full,
        ]),
        total_ops in 96usize..192,
    ) {
        use grub::engine::{Batching, EngineConfig, FeedEngine};
        use grub::fault::{FaultPlan, FaultPoint};

        let point = match FaultPoint::ALL[point_idx] {
            FaultPoint::PostWriteBlock if batching == Batching::Off => FaultPoint::MidShardCommit,
            point => point,
        };
        let config = {
            let mut c = EngineConfig::new(2);
            c.batching = batching;
            c
        };
        let root = |tag: &str| std::env::temp_dir().join(format!(
            "grub-engcrash-{tag}-{}-{}", std::process::id(), rand::random::<u64>()
        ));
        let (clean_root, crash_root, recover_root) = (root("clean"), root("crash"), root("rec"));

        let mut clean = FeedEngine::new(&config, crash_fleet(&clean_root, total_ops)).unwrap();
        clean.run_rounds().unwrap();
        let clean_digest = clean.chain().chain_digest();
        drop(clean);

        let mut crashed = FeedEngine::new(&config, crash_fleet(&crash_root, total_ops)).unwrap();
        grub::fault::arm(FaultPlan::at(point));
        let died = crashed.run_rounds();
        prop_assert!(died.is_err(), "{point:?}/{batching:?}: armed crash point did not kill the run");
        prop_assert!(!grub::fault::is_armed(), "{point:?}: run died but the point never tripped");
        let surviving_height = crashed.chain().height();
        let surviving_digest = crashed.chain().chain_digest();
        drop(crashed);

        let mut recovered = FeedEngine::new(&config, crash_fleet(&recover_root, total_ops)).unwrap();
        if surviving_height > recovered.chain().height() {
            recovered.expect_digest_at(surviving_height, surviving_digest);
        } else {
            prop_assert_eq!(recovered.chain().chain_digest(), surviving_digest);
        }
        recovered.run_rounds().unwrap();
        prop_assert_eq!(
            recovered.chain().chain_digest(),
            clean_digest,
            "{:?}: recovered chain diverges from the clean run", point
        );
        drop(recovered);
        for dir in [clean_root, crash_root, recover_root] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Confirmation-grid convergence: for an arbitrary reorg seed,
    /// confirmation depth, inclusion-latency process, and fleet size, the
    /// reorged run converges to the exact digest and height
    /// of the never-forked run under the same confirmation axes — and every
    /// reorg resubmits exactly the set of transactions it abandoned.
    #[test]
    fn confirmed_reorged_grids_converge_to_the_canonical_digest(
        reorg_seed in 1u64..64,
        confirm_depth in 0u64..4,
        latency_on in any::<bool>(),
        latency_seed in 1u64..32,
        latency_delay in 1u64..3,
        feeds in 3usize..7,
    ) {
        use grub::chain::ChainConfig;
        use grub::engine::specs::{demo_policies, zipfian_ratio_specs, DEMO_RATIOS};
        use grub::engine::{EngineConfig, FeedEngine};

        let fleet = || zipfian_ratio_specs(feeds, 144, DEMO_RATIOS, &demo_policies());
        let config = |chain: ChainConfig| {
            let mut c = EngineConfig::new(2);
            c.chain = chain;
            c
        };
        let latency = latency_on.then_some((latency_seed, latency_delay));
        let base = {
            let mut chain = ChainConfig::default().confirm_depth(confirm_depth);
            if let Some((seed, max_delay)) = latency {
                chain = chain.latency(seed, max_delay);
            }
            chain
        };

        let (_, straight) = FeedEngine::new(&config(base), fleet())
            .unwrap()
            .run_with_chain()
            .unwrap();
        let (_, forked) = FeedEngine::new(&config(base.reorg(reorg_seed, 4, 2)), fleet())
            .unwrap()
            .run_with_chain()
            .unwrap();

        for (i, ev) in forked.reorg_events().iter().enumerate() {
            prop_assert_eq!(
                &ev.resubmitted,
                &ev.abandoned,
                "reorg {} resubmitted a different set than it abandoned", i
            );
        }
        prop_assert_eq!(
            forked.chain_digest(),
            straight.chain_digest(),
            "grid (seed {}, depth {}, latency {:?}, {} feeds) diverged",
            reorg_seed, confirm_depth, latency, feeds
        );
        prop_assert_eq!(forked.height(), straight.height());
        prop_assert_eq!(forked.confirmation_lag(), 0);
    }
}
