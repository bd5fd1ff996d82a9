//! Shadow probes: the workload's own operation stream replayed through
//! standalone layer objects — `OpSource`, the policy, `DataOwner`,
//! `StorageProvider`, `MerkleKv`, `Db`, `sha256` — timing each public call.
//!
//! The traced pipeline can only time the calls `EpochDriver` exposes; what
//! happens *inside* `stage_update` (DO flush, SP sync, Merkle rehash, LSM
//! writes) is invisible from outside. The probes rebuild those inner calls
//! one layer at a time from the same inputs, in the order the system makes
//! them: per epoch, pull 32 ops, run the policy, stage them on the DO,
//! `flush_epoch`, hand the flush's sync list to a Merkle tree, a `Db` and a
//! `StorageProvider`, then answer the epoch's not-replicated reads with a
//! store `get`, a range proof and its verification. Counts are exact and
//! repeat; times are the sandbox's.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use grub_chain::Address;
use grub_core::owner::DataOwner;
use grub_core::provider::{SpSync, StorageProvider};
use grub_crypto::{sha256, Hash32};
use grub_gas::GasSchedule;
use grub_merkle::{record_value_hash, MerkleKv, ProofKey, ReplState, TreeOp};
use grub_store::Db;
use grub_workload::Op;

use crate::workloads::{store_options, Plan};

/// A call count and the time spent in those calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timer {
    pub calls: u64,
    pub ns: u64,
}

impl Timer {
    /// Times one call.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.time_many(1, f)
    }

    /// Times a block that makes `calls` calls, so the clock reads are
    /// amortised over calls too short to time singly.
    fn time_many<T>(&mut self, calls: u64, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.ns += started.elapsed().as_nanos() as u64;
        self.calls += calls;
        out
    }

    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }

    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1000.0
    }
}

#[derive(Debug, Default)]
pub struct ProbeReport {
    pub next_op: Timer,
    pub decide: Timer,
    pub flush_epoch: Timer,
    pub apply_sync: Timer,
    pub merkle_apply_batch: Timer,
    pub merkle_prove: Timer,
    pub merkle_verify: Timer,
    pub merkle_depth: usize,
    pub store_put: Timer,
    pub store_get: Timer,
    pub store_flushes: u64,
    pub store_compactions: u64,
    pub store_block_reads: u64,
    pub store_disk_bytes: u64,
    pub store_user_bytes: u64,
    pub sha256_64b: Timer,
    pub ops: usize,
}

fn storage_key(state: ReplState, key: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + key.len());
    out.push(state.as_byte());
    out.extend_from_slice(key.as_bytes());
    out
}

/// The shadow `Db` and what it should hold, so space amplification can be
/// computed against live user bytes.
struct ShadowDb {
    db: Db,
    dir: PathBuf,
    live: HashMap<Vec<u8>, usize>,
}

impl ShadowDb {
    fn open(index: usize) -> Result<Self, String> {
        let dir =
            std::env::temp_dir().join(format!("grub-bench-shadow-{}-{index}", std::process::id()));
        let db = Db::open(&dir, store_options()).map_err(|e| e.to_string())?;
        Ok(ShadowDb {
            db,
            dir,
            live: HashMap::new(),
        })
    }

    /// Mirrors `StorageProvider::apply_sync_batch`'s store traffic; only the
    /// `put`s are timed.
    fn apply(&mut self, ops: &[SpSync], put: &mut Timer) -> Result<(), String> {
        for op in ops {
            let (skey, value) = match op {
                SpSync::Write { key, value, state } => (storage_key(*state, key), value.clone()),
                SpSync::Relocate { key, from, to } => {
                    let old = storage_key(*from, key);
                    let value = self
                        .db
                        .get(&old)
                        .map_err(|e| e.to_string())?
                        .unwrap_or_default();
                    self.db.delete(&old).map_err(|e| e.to_string())?;
                    self.live.remove(&old);
                    (storage_key(*to, key), value)
                }
            };
            self.live.insert(skey.clone(), skey.len() + value.len());
            put.time(|| self.db.put(skey, value))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn disk_bytes(&self) -> u64 {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ShadowDb {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// The Merkle mutations `StorageProvider::apply_sync_batch` derives from a
/// sync list. `vhashes` tracks each key's latest value hash, which a
/// relocation re-inserts under the new state (the SP reads it back from its
/// store instead).
fn tree_ops(ops: &[SpSync], vhashes: &mut HashMap<String, Hash32>) -> Vec<TreeOp> {
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            SpSync::Write { key, value, state } => {
                let vhash = record_value_hash(value);
                vhashes.insert(key.clone(), vhash);
                out.push(TreeOp::Insert(
                    ProofKey::new(*state, key.as_bytes().to_vec()),
                    vhash,
                ));
            }
            SpSync::Relocate { key, from, to } => {
                out.push(TreeOp::Invalidate(ProofKey::new(
                    *from,
                    key.as_bytes().to_vec(),
                )));
                let vhash = vhashes
                    .get(key)
                    .copied()
                    .unwrap_or_else(|| record_value_hash(&[]));
                out.push(TreeOp::Insert(
                    ProofKey::new(*to, key.as_bytes().to_vec()),
                    vhash,
                ));
            }
        }
    }
    out
}

/// Runs every probe over every feed of `plan`.
pub fn run(plan: &Plan) -> Result<ProbeReport, String> {
    let mut report = ProbeReport::default();
    let schedule = GasSchedule::default();
    for (index, spec) in plan.specs.iter().enumerate() {
        let mut source = spec.source.clone_box();
        let mut policy = spec.config.policy.build(&schedule);
        let mut owner = DataOwner::new(
            Address::derive("bench-shadow-owner"),
            spec.config.policy.build(&schedule),
        );
        let mut provider = StorageProvider::new_with_options(
            Address::derive("bench-shadow-provider"),
            store_options(),
        )
        .map_err(|e| e.to_string())?;
        let mut tree = MerkleKv::new();
        let mut shadow = ShadowDb::open(index)?;
        let mut vhashes: HashMap<String, Hash32> = HashMap::new();

        // Preload, untimed: the probes measure the steady state.
        if !spec.config.preload.is_empty() {
            let sync = owner.preload(&spec.config.preload, ReplState::NotReplicated);
            for (key, _) in &spec.config.preload {
                policy.seed_state(key, ReplState::NotReplicated);
            }
            shadow.apply(&sync, &mut Timer::default())?;
            tree.apply_batch(tree_ops(&sync, &mut vhashes));
            provider.apply_sync_batch(sync).map_err(|e| e.to_string())?;
        }
        let (_, _, flushes_before, compactions_before) = shadow.db.stats();

        let epoch_ops = spec.config.epoch_ops;
        loop {
            let epoch: Vec<Op> = report.next_op.time_many(epoch_ops as u64, || {
                (0..epoch_ops).map_while(|_| source.next_op()).collect()
            });
            if epoch.is_empty() {
                break;
            }
            // `next_op` was charged for a full epoch; correct a short last one.
            report.next_op.calls -= (epoch_ops - epoch.len()) as u64;
            report.ops += epoch.len();

            report.decide.time_many(epoch.len() as u64, || {
                for op in &epoch {
                    black_box(match op {
                        Op::Write { key, .. } => policy.on_write(key),
                        Op::Read { key } | Op::Scan { start_key: key, .. } => policy.on_read(key),
                    });
                }
            });

            let mut read_keys: BTreeSet<&str> = BTreeSet::new();
            for op in &epoch {
                match op {
                    Op::Write { key, value } => owner.observe_write(key, value.materialize()),
                    Op::Read { key } | Op::Scan { start_key: key, .. } => {
                        owner.observe_read(key);
                        read_keys.insert(key);
                    }
                }
            }
            // The driver's decision hints: a read that flips a key to R
            // installs the replica at deliver time, ahead of the flush.
            for key in &read_keys {
                if owner.desired_state(key) == ReplState::Replicated
                    && owner.state_of(key) == ReplState::NotReplicated
                {
                    owner.note_hinted_replica(key);
                }
            }

            let flush = report.flush_epoch.time(|| owner.flush_epoch());

            let ops = tree_ops(&flush.sp_sync, &mut vhashes);
            report.merkle_apply_batch.time(|| tree.apply_batch(ops));
            shadow.apply(&flush.sp_sync, &mut report.store_put)?;
            report
                .apply_sync
                .time(|| provider.apply_sync_batch(flush.sp_sync))
                .map_err(|e| e.to_string())?;

            // The read path the watchdog walks for every distinct key that
            // is still not replicated after the flush.
            let root = tree.root();
            for key in read_keys {
                if owner.state_of(key) != ReplState::NotReplicated {
                    continue;
                }
                let skey = storage_key(ReplState::NotReplicated, key);
                let found = report
                    .store_get
                    .time(|| shadow.db.get(&skey))
                    .map_err(|e| e.to_string())?;
                if found.is_none() {
                    continue; // a read of a key never written: nothing to prove
                }
                let pkey = ProofKey::new(ReplState::NotReplicated, key.as_bytes().to_vec());
                let proof = report.merkle_prove.time(|| tree.prove_range(&pkey, &pkey));
                let verified = report
                    .merkle_verify
                    .time(|| proof.verify(&root, &pkey, &pkey))
                    .map_err(|e| format!("shadow proof for {key} rejected: {e:?}"))?;
                if verified.len() != 1 {
                    return Err(format!(
                        "shadow proof for {key} proved {} records",
                        verified.len()
                    ));
                }
            }
        }

        if tree.root() != provider.root() || tree.root() != owner.root() {
            return Err(format!("shadow roots of {} diverged", spec.tenant));
        }
        report.merkle_depth = report.merkle_depth.max(tree.depth());
        let (_, _, flushes, compactions) = shadow.db.stats();
        report.store_flushes += flushes - flushes_before;
        report.store_compactions += compactions - compactions_before;
        report.store_block_reads += shadow.db.read_stats().block_reads;
        report.store_disk_bytes += shadow.disk_bytes();
        report.store_user_bytes += shadow.live.values().map(|&n| n as u64).sum::<u64>();
    }

    // SHA-256 of one 64-byte block pair — the Merkle inner-node hash size.
    let mut block = [0x5au8; 64];
    const HASHES: u64 = 200_000;
    report.sha256_64b.time_many(HASHES, || {
        for i in 0..HASHES {
            block[0] = i as u8;
            black_box(sha256(black_box(&block)));
        }
    });
    Ok(report)
}
