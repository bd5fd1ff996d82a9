//! The storage provider (SP): off-chain storage, the ADS, and the watchdog
//! (paper §3.3, B.2.2).
//!
//! The SP persists every record in a [`grub_store::Db`] (the LevelDB role),
//! maintains the Merkle tree over the state-prefixed layout, and runs a
//! watchdog that polls the chain's event log for `Request` / `RequestRange`
//! events and answers them with proof-carrying `deliver` transactions.
//!
//! The SP is the protocol's adversary: [`AdversaryMode`] lets tests make it
//! forge values, omit records, hide leaves behind opaque digests, or replay
//! stale state — all of which the storage-manager contract must reject.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use grub_chain::{Address, Blockchain};
use grub_merkle::{record_value_hash, MerkleKv, ProofKey, ProofNode, ReplState, TreeOp};
use grub_store::{Db, Options};

use crate::contract::{decode_request, decode_request_range, encode_deliver};
use crate::{GrubError, Result};

/// One off-chain synchronization step pushed from the DO (part of `gPuts`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpSync {
    /// Store `value` under `key` with the given replication state.
    Write {
        /// Data key.
        key: String,
        /// Record value.
        value: Vec<u8>,
        /// State prefix under which the record is filed.
        state: ReplState,
    },
    /// Move a key between state groups (R↔NR transition).
    Relocate {
        /// Data key.
        key: String,
        /// Old state.
        from: ReplState,
        /// New state.
        to: ReplState,
    },
}

/// Misbehaviours for security testing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdversaryMode {
    /// Follow the protocol.
    #[default]
    Honest,
    /// Tamper with delivered values (integrity attack).
    ForgeValue,
    /// Drop the last record from deliveries while keeping the honest proof
    /// (naive omission).
    OmitRecord,
    /// Collapse one in-range leaf to an opaque digest (crafted omission).
    HideLeaf,
    /// Serve proofs and values from a stale snapshot (replay/fork attack).
    ReplayStale,
}

static SP_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A frozen (tree, records) view served by a replaying adversary.
type StaleSnapshot = (MerkleKv, BTreeMap<Vec<u8>, Vec<u8>>);

/// The storage provider node.
pub struct StorageProvider {
    address: Address,
    db: Db,
    tree: MerkleKv,
    dir: PathBuf,
    /// Whether the store directory outlives this SP instance (crash-recovery
    /// mode). Ephemeral SPs — the default — clean up on drop.
    persistent: bool,
    watch_cursor: u64,
    mode: AdversaryMode,
    /// Snapshot for [`AdversaryMode::ReplayStale`].
    stale: Option<StaleSnapshot>,
    /// Cumulative Merkle nodes rehashed by the batched sync path — the
    /// observability counter behind `EpochMetrics::merkle_nodes_rehashed`.
    nodes_rehashed: u64,
}

impl StorageProvider {
    /// Creates an SP with a fresh on-disk store under the system temp dir.
    ///
    /// # Errors
    ///
    /// Propagates store-open failures.
    pub fn new(address: Address) -> Result<Self> {
        Self::new_with_options(address, Options::default())
    }

    /// Like [`StorageProvider::new`] with explicit store tuning knobs —
    /// crash-recovery tests shrink the memtable so SSTable flushes happen
    /// on small workloads.
    ///
    /// # Errors
    ///
    /// Propagates store-open failures.
    pub fn new_with_options(address: Address, options: Options) -> Result<Self> {
        let dir = std::env::temp_dir().join(format!(
            "grub-sp-{}-{}",
            std::process::id(),
            SP_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let db = Db::open(&dir, options)?;
        Ok(StorageProvider {
            address,
            db,
            tree: MerkleKv::new(),
            dir,
            persistent: false,
            watch_cursor: 0,
            mode: AdversaryMode::Honest,
            stale: None,
            nodes_rehashed: 0,
        })
    }

    /// Opens an SP over a *persistent* store directory, surviving drops and
    /// reopenable across simulated process deaths.
    ///
    /// The Merkle tree is an in-memory structure, so on reopen it is rebuilt
    /// from a full store scan — the recovery path a real SP daemon would run
    /// at boot. A crash between a store write and the corresponding chain
    /// commit can leave the rebuilt tree *ahead* of the on-chain root; the
    /// scrubber reconciles exactly that divergence.
    ///
    /// # Errors
    ///
    /// Propagates store-open failures (including corrupt-table reports).
    pub fn open_at(address: Address, dir: impl Into<PathBuf>, options: Options) -> Result<Self> {
        let dir = dir.into();
        let db = Db::open(&dir, options)?;
        let mut tree = MerkleKv::new();
        // The scan is sorted and the tree empty, so this is the bulk load:
        // the balanced tree over whatever the store holds, every node
        // hashed once.
        let mut records = Vec::new();
        for (skey, value) in db.scan(None, None)? {
            let Some((state, key)) = parse_storage_key(&skey) else {
                continue;
            };
            records.push((
                ProofKey::new(state, key.into_bytes()),
                record_value_hash(&value),
            ));
        }
        tree.insert_batch(records);
        Ok(StorageProvider {
            address,
            db,
            tree,
            dir,
            persistent: true,
            watch_cursor: 0,
            mode: AdversaryMode::Honest,
            stale: None,
            nodes_rehashed: 0,
        })
    }

    /// The store directory backing this SP.
    pub fn store_dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// The SP's account address (sender of `deliver` transactions).
    pub fn address(&self) -> Address {
        self.address
    }

    /// Switches the adversary mode (takes a stale snapshot when entering
    /// [`AdversaryMode::ReplayStale`]).
    ///
    /// # Errors
    ///
    /// Propagates a failed store scan for the snapshot; the mode is then
    /// left as it was.
    pub fn set_mode(&mut self, mode: AdversaryMode) -> Result<()> {
        if mode == AdversaryMode::ReplayStale && self.stale.is_none() {
            let values = self.db.scan(None, None)?.into_iter().collect();
            self.stale = Some((self.tree.clone(), values));
        }
        self.mode = mode;
        Ok(())
    }

    /// The SP's current root digest (must match the DO's mirror).
    pub fn root(&self) -> grub_crypto::Hash32 {
        self.tree.root()
    }

    fn storage_key(state: ReplState, key: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + key.len());
        out.push(state.as_byte());
        out.extend_from_slice(key.as_bytes());
        out
    }

    /// Loads the initial dataset under `state`: the store by
    /// [`Db::ingest_sorted`], the tree by one [`MerkleKv::apply_batch`] over
    /// value hashes the SP computes from its own copy. Equivalent to
    /// [`StorageProvider::apply_sync_batch`] of one `Write` per record; a
    /// sorted dataset on a fresh SP skips the WAL, the memtable and every
    /// per-record tree descent.
    ///
    /// An SP reopened over a store that already holds records (a deploy
    /// killed mid-preload left a prefix of the dataset) applies the batch
    /// per record onto the recovered tree and then rebuilds it: the balanced
    /// shape depends only on the live set, so the SP lands on the root a
    /// fresh DO bulk-builds over the same sorted dataset, whatever survived.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn bulk_load(&mut self, records: &[(String, Vec<u8>)], state: ReplState) -> Result<()> {
        let recovered = !self.tree.is_empty();
        self.db.ingest_sorted(
            records
                .iter()
                .map(|(key, value)| (Self::storage_key(state, key), value.as_slice())),
        )?;
        let tree_ops = records
            .iter()
            .map(|(key, value)| {
                TreeOp::Insert(
                    ProofKey::new(state, key.as_bytes().to_vec()),
                    record_value_hash(value),
                )
            })
            .collect();
        self.nodes_rehashed += self.tree.apply_batch(tree_ops) as u64;
        if recovered {
            self.tree.rebuild();
        }
        Ok(())
    }

    /// Applies the DO's `gPuts` synchronization, in order: store writes
    /// take the round's values by move (no per-record clone), and the
    /// whole round's tree mutations are applied as one deferred-hash
    /// [`MerkleKv::apply_batch`] — the root is byte-identical to the per-op
    /// insert/invalidate sequence, but shared root-to-leaf paths are hashed
    /// once per round.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures, and returns
    /// [`GrubError::MissingRecord`] for a `Relocate` of a record the store
    /// does not hold under its `from` state. The round stops at that op with
    /// the store writes before it applied and none of its tree mutations:
    /// the SP is out of step with the DO and must be recovered, not driven on.
    pub fn apply_sync_batch(&mut self, ops: Vec<SpSync>) -> Result<()> {
        let mut tree_ops = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                SpSync::Write { key, value, state } => {
                    let vhash = record_value_hash(&value);
                    self.db.put(Self::storage_key(state, &key), value)?;
                    tree_ops.push(TreeOp::Insert(
                        ProofKey::new(state, key.into_bytes()),
                        vhash,
                    ));
                }
                SpSync::Relocate { key, from, to } => {
                    let old = Self::storage_key(from, &key);
                    let Some(value) = self.db.get(&old)? else {
                        return Err(GrubError::MissingRecord { key, state: from });
                    };
                    self.db.delete(&old)?;
                    let vhash = record_value_hash(&value);
                    self.db.put(Self::storage_key(to, &key), value)?;
                    tree_ops.push(TreeOp::Invalidate(ProofKey::new(
                        from,
                        key.as_bytes().to_vec(),
                    )));
                    tree_ops.push(TreeOp::Insert(ProofKey::new(to, key.into_bytes()), vhash));
                }
            }
        }
        self.nodes_rehashed += self.tree.apply_batch(tree_ops) as u64;
        Ok(())
    }

    /// Cumulative Merkle nodes rehashed by the batched sync path.
    pub fn nodes_rehashed(&self) -> u64 {
        self.nodes_rehashed
    }

    /// The store's cumulative read-path counters (block cache, bloom and
    /// key-span skips).
    pub fn read_stats(&self) -> grub_store::ReadStats {
        self.db.read_stats()
    }

    /// The store's `(L0 tables, L1 tables, flushes, compactions)` since
    /// open ([`Db::stats`]).
    pub fn store_stats(&self) -> (usize, usize, u64, u64) {
        self.db.stats()
    }

    /// Scans the chain's event log for requests since the last poll and
    /// builds the `deliver()` inputs answering them: point requests in key
    /// order, then range requests in event order.
    ///
    /// Point requests for the same key within the window are coalesced into
    /// one delivery carrying all their callbacks. A point delivery sets the
    /// `replicate` flag (the paper's deliver-time replica installation)
    /// exactly when `replicate(key)` says the DO hinted that replica this
    /// epoch ([`DataOwner::note_hinted_replica`](crate::owner::DataOwner::note_hinted_replica)),
    /// so every replica a deliver installs is one the DO's next flush
    /// formalizes or evicts.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn watchdog(
        &mut self,
        chain: &Blockchain,
        manager: Address,
        replicate: impl Fn(&[u8]) -> bool,
    ) -> Result<Vec<Vec<u8>>> {
        let mut point: BTreeMap<Vec<u8>, Vec<(Address, String)>> = BTreeMap::new();
        let mut ranges: Vec<(Vec<u8>, Vec<u8>, Address, String)> = Vec::new();
        for event in chain.events_since(self.watch_cursor, manager, "Request") {
            if let Ok(req) = decode_request(&event.data) {
                point
                    .entry(req.key)
                    .or_default()
                    .push((req.cb_addr, req.cb_func));
            }
        }
        for event in chain.events_since(self.watch_cursor, manager, "RequestRange") {
            if let Ok(req) = decode_request_range(&event.data) {
                ranges.push((req.start, req.end, req.cb_addr, req.cb_func));
            }
        }
        self.watch_cursor = chain.height();

        let mut delivers = Vec::new();
        for (key, callbacks) in point {
            let install = replicate(&key);
            delivers.push(self.build_deliver(key.clone(), key, install, callbacks)?);
        }
        for (start, end, cb_addr, cb_func) in ranges {
            delivers.push(self.build_deliver(start, end, false, vec![(cb_addr, cb_func)])?);
        }
        Ok(delivers)
    }

    fn build_deliver(
        &mut self,
        start: Vec<u8>,
        end: Vec<u8>,
        replicate: bool,
        callbacks: Vec<(Address, String)>,
    ) -> Result<Vec<u8>> {
        let lo = ProofKey::new(ReplState::NotReplicated, start.clone());
        let hi = ProofKey::new(ReplState::NotReplicated, end.clone());
        let (mut records, mut proof) = match (&self.mode, &self.stale) {
            (AdversaryMode::ReplayStale, Some((tree, values))) => {
                let proof = tree.prove_range(&lo, &hi);
                let records = Self::records_from_map(values, &start, &end);
                (records, proof)
            }
            _ => {
                let proof = self.tree.prove_range(&lo, &hi);
                let records = self.records_from_db(&start, &end)?;
                (records, proof)
            }
        };
        match self.mode {
            AdversaryMode::ForgeValue => {
                if let Some((_, v)) = records.first_mut() {
                    if v.is_empty() {
                        v.push(0xFF);
                    } else {
                        v[0] ^= 0xFF;
                    }
                }
            }
            AdversaryMode::OmitRecord => {
                records.pop();
            }
            AdversaryMode::HideLeaf => {
                if let Some((key, _)) = records.last() {
                    let target = ProofKey::new(ReplState::NotReplicated, key.clone());
                    if let Some(tree) = proof.tree.take() {
                        proof.tree = Some(hide_leaf(tree, &target));
                    }
                    records.pop();
                }
            }
            AdversaryMode::Honest | AdversaryMode::ReplayStale => {}
        }
        Ok(encode_deliver(
            &start, &end, replicate, &records, &proof, &callbacks,
        ))
    }

    fn records_from_db(&self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        // NR-prefixed storage keys over [start, end] inclusive.
        let mut lo = vec![ReplState::NotReplicated.as_byte()];
        lo.extend_from_slice(start);
        if start == end {
            // Point request (the watchdog's hot path): a keyed get instead
            // of a range scan — the scan materializes every table's entries,
            // which is O(store) per deliver and quadratic over a streamed
            // run's lifetime.
            return Ok(self
                .db
                .get(&lo)?
                .map(|v| (start.to_vec(), v))
                .into_iter()
                .collect());
        }
        let mut hi = vec![ReplState::NotReplicated.as_byte()];
        hi.extend_from_slice(end);
        hi.push(0); // inclusive upper bound under an exclusive-scan API
        Ok(self
            .db
            .scan(Some(&lo), Some(&hi))?
            .into_iter()
            .map(|(k, v)| (k[1..].to_vec(), v))
            .collect())
    }

    fn records_from_map(
        values: &BTreeMap<Vec<u8>, Vec<u8>>,
        start: &[u8],
        end: &[u8],
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut lo = vec![ReplState::NotReplicated.as_byte()];
        lo.extend_from_slice(start);
        let mut hi = vec![ReplState::NotReplicated.as_byte()];
        hi.extend_from_slice(end);
        hi.push(0);
        values
            .range(lo..hi)
            .map(|(k, v)| (k[1..].to_vec(), v.clone()))
            .collect()
    }

    /// Raw store access for tests.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures and corrupt blocks.
    pub fn value_of(&self, state: ReplState, key: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.db.get(&Self::storage_key(state, key))?)
    }

    /// Every live record in the store, decoded to `(state, key, value)` and
    /// ordered by storage key — the scrubber's view of the SP's contents.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn live_records(&self) -> Result<Vec<(ReplState, String, Vec<u8>)>> {
        Ok(self
            .db
            .scan(None, None)?
            .into_iter()
            .filter_map(|(skey, value)| {
                parse_storage_key(&skey).map(|(state, key)| (state, key, value))
            })
            .collect())
    }

    /// Logical content digest of the store: SHA-256 over the ordered live
    /// `(storage key, value)` scan. Two stores with the same digest hold
    /// byte-identical record sets regardless of their physical layout
    /// (memtable vs. L0 vs. L1) — the store-equivalence oracle of the
    /// crash-recovery tests.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn state_digest(&self) -> Result<grub_crypto::Hash32> {
        let mut h = grub_crypto::Sha256::new();
        for (skey, value) in self.db.scan(None, None)? {
            h.update(&(skey.len() as u64).to_le_bytes());
            h.update(&skey);
            h.update(&(value.len() as u64).to_le_bytes());
            h.update(&value);
        }
        Ok(h.finalize())
    }

    /// Corrupts the stored value of `key` *without* touching the Merkle
    /// tree — simulating silent at-rest damage (bit rot, a buggy operator
    /// script) for scrubber tests. Honest code never calls this.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn tamper_value(&mut self, state: ReplState, key: &str, value: Vec<u8>) -> Result<()> {
        self.db.put(Self::storage_key(state, key), value)?;
        Ok(())
    }

    /// Deletes `key` from the store *without* touching the Merkle tree —
    /// the lost-record flavor of at-rest damage, for scrubber tests.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn tamper_remove(&mut self, state: ReplState, key: &str) -> Result<()> {
        self.db.delete(&Self::storage_key(state, key))?;
        Ok(())
    }

    /// Repairs one record to the authoritative `(state, value)`: removes any
    /// copy filed under a different state, rewrites the store, and re-inserts
    /// the tree leaf. The scrubber's fix-up primitive.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn repair_record(&mut self, key: &str, value: &[u8], state: ReplState) -> Result<()> {
        let other = match state {
            ReplState::Replicated => ReplState::NotReplicated,
            ReplState::NotReplicated => ReplState::Replicated,
        };
        if self.db.get(&Self::storage_key(other, key))?.is_some() {
            self.db.delete(&Self::storage_key(other, key))?;
        }
        self.tree
            .invalidate(&ProofKey::new(other, key.as_bytes().to_vec()));
        self.db.put(Self::storage_key(state, key), value.to_vec())?;
        self.tree.insert(
            ProofKey::new(state, key.as_bytes().to_vec()),
            record_value_hash(value),
        );
        Ok(())
    }

    /// Removes a record the authoritative state says must not exist (an
    /// orphan) from both the store and the tree. The scrubber's other
    /// fix-up primitive.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn remove_record(&mut self, state: ReplState, key: &str) -> Result<()> {
        self.db.delete(&Self::storage_key(state, key))?;
        self.tree
            .invalidate(&ProofKey::new(state, key.as_bytes().to_vec()));
        Ok(())
    }
}

/// Splits a raw storage key back into `(state, data key)`; `None` for keys
/// that are not state-prefixed UTF-8 (there are none in normal operation).
fn parse_storage_key(skey: &[u8]) -> Option<(ReplState, String)> {
    let (&state, rest) = skey.split_first()?;
    let state = ReplState::from_byte(state)?;
    let key = std::str::from_utf8(rest).ok()?.to_owned();
    Some((state, key))
}

fn hide_leaf(node: ProofNode, target: &ProofKey) -> ProofNode {
    match node {
        ProofNode::Leaf { pkey, vhash, valid } if pkey == *target => {
            ProofNode::Opaque(grub_merkle::leaf_hash(&pkey, &vhash, valid))
        }
        ProofNode::Inner { left, right } => ProofNode::Inner {
            left: Box::new(hide_leaf(*left, target)),
            right: Box::new(hide_leaf(*right, target)),
        },
        other => other,
    }
}

impl Drop for StorageProvider {
    fn drop(&mut self) {
        if !self.persistent {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }
}

impl std::fmt::Debug for StorageProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageProvider")
            .field("address", &self.address)
            .field("records", &self.tree.len())
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> StorageProvider {
        StorageProvider::new(Address::derive("SP")).unwrap()
    }

    fn write(key: &str, value: &[u8], state: ReplState) -> SpSync {
        SpSync::Write {
            key: key.to_owned(),
            value: value.to_vec(),
            state,
        }
    }

    #[test]
    fn sync_updates_tree_and_store() {
        let mut sp = sp();
        sp.apply_sync_batch(vec![write("a", b"1", ReplState::NotReplicated)])
            .unwrap();
        assert_eq!(
            sp.value_of(ReplState::NotReplicated, "a").unwrap(),
            Some(b"1".to_vec())
        );
        assert!(sp
            .tree
            .get(&ProofKey::new(ReplState::NotReplicated, b"a".to_vec()))
            .is_some());
    }

    #[test]
    fn relocate_moves_between_groups() {
        let mut sp = sp();
        sp.apply_sync_batch(vec![
            write("a", b"1", ReplState::NotReplicated),
            SpSync::Relocate {
                key: "a".into(),
                from: ReplState::NotReplicated,
                to: ReplState::Replicated,
            },
        ])
        .unwrap();
        assert_eq!(sp.value_of(ReplState::NotReplicated, "a").unwrap(), None);
        assert_eq!(
            sp.value_of(ReplState::Replicated, "a").unwrap(),
            Some(b"1".to_vec())
        );
    }

    #[test]
    fn relocating_a_record_the_store_lacks_is_a_typed_error() {
        let mut sp = sp();
        sp.apply_sync_batch(vec![write("a", b"1", ReplState::NotReplicated)])
            .unwrap();
        let root = sp.root();
        // "a" is filed under NR; a relocation out of R names nothing.
        let err = sp
            .apply_sync_batch(vec![SpSync::Relocate {
                key: "a".into(),
                from: ReplState::Replicated,
                to: ReplState::NotReplicated,
            }])
            .unwrap_err();
        assert!(
            matches!(
                &err,
                GrubError::MissingRecord { key, state: ReplState::Replicated } if key == "a"
            ),
            "{err}"
        );
        assert_eq!(sp.root(), root, "no tree mutation applied");
        assert_eq!(
            sp.value_of(ReplState::NotReplicated, "a").unwrap(),
            Some(b"1".to_vec()),
            "no empty value invented under the target state either"
        );
    }

    #[test]
    fn a_failed_snapshot_scan_leaves_the_mode_unchanged() {
        let mut sp = sp();
        sp.apply_sync_batch(vec![write("a", b"1", ReplState::NotReplicated)])
            .unwrap();
        sp.db.flush().unwrap();
        // Damage the one table so the snapshot's full scan cannot read it.
        for entry in std::fs::read_dir(&sp.dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|ext| ext == "sst") {
                std::fs::write(&path, b"not a table").unwrap();
            }
        }
        assert!(sp.set_mode(AdversaryMode::ReplayStale).is_err());
        assert_eq!(sp.mode, AdversaryMode::Honest);
        assert!(sp.stale.is_none());
        // A mode that takes no snapshot still switches.
        sp.set_mode(AdversaryMode::ForgeValue).unwrap();
        assert_eq!(sp.mode, AdversaryMode::ForgeValue);
    }

    #[test]
    fn value_of_reports_a_corrupt_block_as_an_error() {
        let options = Options {
            memtable_bytes: 64,
            block_cache_capacity: 0,
            ..Options::default()
        };
        let mut sp = StorageProvider::new_with_options(Address::derive("SP"), options).unwrap();
        sp.apply_sync_batch(vec![write("a", b"1", ReplState::NotReplicated)])
            .unwrap();
        sp.db.flush().unwrap();
        let table = std::fs::read_dir(sp.store_dir())
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .find(|path| path.extension().is_some_and(|ext| ext == "sst"))
            .unwrap();
        // Byte 8 is the first byte of data block 0, past its length and CRC.
        let mut bytes = std::fs::read(&table).unwrap();
        bytes[8] ^= 0xFF;
        std::fs::write(&table, bytes).unwrap();
        assert!(
            sp.value_of(ReplState::NotReplicated, "a").is_err(),
            "a corrupt block must not read as an absent record"
        );
    }

    #[test]
    fn sp_root_matches_do_mirror_after_same_ops() {
        use crate::owner::DataOwner;
        use crate::policy::Memoryless;
        let mut sp = sp();
        let mut owner = DataOwner::new(Address::derive("DO"), Box::new(Memoryless::new(2)));
        owner.observe_write("k1", b"v1".to_vec());
        owner.observe_write("k2", b"v2".to_vec());
        let flush = owner.flush_epoch();
        sp.apply_sync_batch(flush.sp_sync).unwrap();
        assert_eq!(sp.root(), owner.root());
        // Now drive a transition.
        owner.observe_read("k1");
        owner.observe_read("k1");
        let flush = owner.flush_epoch();
        sp.apply_sync_batch(flush.sp_sync).unwrap();
        assert_eq!(sp.root(), owner.root());
    }

    #[test]
    fn range_records_are_exact() {
        let mut sp = sp();
        sp.apply_sync_batch(vec![
            write("a", b"1", ReplState::NotReplicated),
            write("b", b"2", ReplState::NotReplicated),
            write("c", b"3", ReplState::Replicated),
            write("d", b"4", ReplState::NotReplicated),
        ])
        .unwrap();
        let records = sp.records_from_db(b"a", b"c").unwrap();
        // Only NR records in [a, c]: "c" is replicated and excluded.
        assert_eq!(
            records,
            vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"2".to_vec())
            ]
        );
    }
}
