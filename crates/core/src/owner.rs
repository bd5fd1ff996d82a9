//! The data owner (DO): control plane and write path (paper §3.2, B.2.1).
//!
//! The DO is the trusted producer of all feed data. It:
//!
//! * batches writes within an epoch into one `update` transaction
//!   (the `gPuts` call of Listing 1);
//! * runs the replication policy over the federated operation stream — its
//!   own writes plus the reads it observes in the chain's contract-call
//!   history (see [`DataOwner::federate_reads`]);
//! * actuates decisions by staging R↔NR transitions into the next epoch's
//!   `update` transaction;
//! * maintains a *hash mirror* of the SP's Merkle tree so it can produce
//!   the new root digest without trusting the SP. (The paper's DO keeps only
//!   the root and re-derives updates from SP-supplied proofs; mirroring the
//!   hash tree — not the data — is an equivalent-trust engineering choice
//!   documented in ARCHITECTURE.md, "Where the simulator departs from the
//!   paper": in both designs the digest the DO signs is derived exclusively
//!   from its own verified view.)
//!
//! Per-key state is one record (`KeyEntry`: committed state, desired state,
//! latest value), so an observation, a state query and each step of the flush
//! cost one lookup. The ordered worklists beside it (`pending`, `hinted`)
//! hold keys, not state: their iteration order reaches the chain.

use std::collections::{BTreeSet, HashMap};

use grub_chain::{Address, Blockchain};
use grub_merkle::{record_value_hash, MerkleKv, ProofKey, ReplState, TreeOp};

use crate::contract::encode_update_chunks;
use crate::policy::ReplicationPolicy;
use crate::provider::SpSync;
use crate::with_entry;

/// One epoch's `update()` transaction(s), encoded, plus the off-chain sync
/// the SP must apply (the `gPuts` RPC).
#[derive(Debug, Default)]
pub struct EpochFlush {
    /// New root digest after all of this epoch's mutations.
    pub digest: grub_crypto::Hash32,
    /// The epoch's `update(digest, rUpdates, toR, toNR)` payloads, each
    /// carrying `digest`, cut by the one budget rule of
    /// [`encode_update`](crate::contract::encode_update): a pair counts
    /// `key + value + 16` bytes, a `toNR` key `key + 8`, and a chunk closes
    /// before its count would pass
    /// [`MAX_TX_PAYLOAD_BYTES`](crate::contract::MAX_TX_PAYLOAD_BYTES).
    /// Empty when nothing changed and no `update` is due.
    pub chunks: Vec<Vec<u8>>,
    /// Off-chain operations for the SP, in the exact order the DO applied
    /// them to its mirror.
    pub sp_sync: Vec<SpSync>,
    /// Number of NR→R transitions (for reports).
    pub replications: usize,
    /// Number of R→NR transitions (for reports).
    pub evictions: usize,
}

/// One key's record in the DO.
#[derive(Debug, Default)]
struct KeyEntry {
    /// Committed on-chain replication state.
    committed: ReplState,
    /// Desired state, per the policy's latest observation.
    desired: ReplState,
    /// Latest value (the DO produces every value); `None` for a key seen
    /// only through reads of a record that does not exist.
    value: Option<Vec<u8>>,
}

/// The data owner.
pub struct DataOwner {
    address: Address,
    policy: Box<dyn ReplicationPolicy>,
    mirror: MerkleKv,
    /// Everything the DO knows about each key it has seen.
    entries: HashMap<String, KeyEntry>,
    /// Keys whose desired state may differ from their committed one: a key
    /// is in the set iff `desired != committed`, or it was when last
    /// observed and the next flush will check. Maintained wherever either
    /// side changes, so closing an epoch costs the keys it touched, not the
    /// keys the feed stores. A BTree set because the flush emits transitions
    /// in key order — that order reaches the chain.
    pending: BTreeSet<String>,
    /// Writes staged for the current epoch, in order.
    staged: Vec<(String, Vec<u8>)>,
    /// Keys whose replicas were installed mid-epoch by `deliver` with the
    /// `replicate` flag; the next flush formalizes (NR→R in the tree) or
    /// evicts them. A BTree set so the flush walks them in key order —
    /// eviction order reaches the chain and must be deterministic.
    hinted: BTreeSet<String>,
    /// Last block already folded into the read monitor.
    monitor_cursor: u64,
    /// Total Merkle nodes rehashed by mirror batches (observability).
    nodes_rehashed: u64,
}

impl DataOwner {
    /// Creates a DO with the given account and policy.
    pub fn new(address: Address, policy: Box<dyn ReplicationPolicy>) -> Self {
        DataOwner {
            address,
            policy,
            mirror: MerkleKv::new(),
            entries: HashMap::new(),
            pending: BTreeSet::new(),
            staged: Vec::new(),
            hinted: BTreeSet::new(),
            monitor_cursor: 0,
            nodes_rehashed: 0,
        }
    }

    /// The DO's account address (the only `update()` sender the contract
    /// accepts).
    pub fn address(&self) -> Address {
        self.address
    }

    /// The policy's display name.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// Forwards the chain's current gas-price multiplier (permille) to the
    /// policy, so fee-aware deciders can defer work into cheap windows.
    pub fn observe_fee_price(&mut self, price_permille: u64) {
        self.policy.observe_fee_price(price_permille);
    }

    /// Loads the initial dataset (no policy decisions, no staging), before
    /// metering starts, and returns the `update()` inputs that seed the
    /// chain with it: the root digest alone, or — for a replicated preload —
    /// the records too as `toR`, in chunks cut by the same rule as an
    /// epoch's ([`EpochFlush::chunks`]).
    ///
    /// The DO takes the records: each key and value moves into its entry,
    /// so the dataset is not copied. The mirror hashes them first, as one
    /// [`MerkleKv::apply_batch`] (a sorted dataset on a fresh DO is bulk
    /// loaded), and its leaves take the one key copy each record costs. An
    /// NR preload costs the policy nothing
    /// ([`ReplicationPolicy::seed_state`]).
    pub fn bulk_load(&mut self, records: Vec<(String, Vec<u8>)>, state: ReplState) -> Vec<Vec<u8>> {
        let tree_ops = records
            .iter()
            .map(|(key, value)| {
                let pkey = ProofKey::new(state, key.as_bytes().to_vec());
                TreeOp::Insert(pkey, record_value_hash(value))
            })
            .collect();
        self.nodes_rehashed += self.mirror.apply_batch(tree_ops) as u64;
        // Even an empty or NR preload pins its digest on chain.
        let replicas = records
            .iter()
            .filter(|_| state == ReplState::Replicated)
            .map(|(key, value)| (key.as_bytes(), value.as_slice()));
        let seed = encode_update_chunks(
            &self.mirror.root(),
            std::iter::empty(),
            replicas,
            std::iter::empty(),
        );
        self.entries.reserve(records.len());
        for (key, value) in records {
            // Committed and desired now agree, whatever was observed before.
            self.pending.remove(&key);
            self.policy.seed_state(&key, state);
            let entry = self.entries.entry(key).or_default();
            (entry.committed, entry.desired) = (state, state);
            entry.value = Some(value);
        }
        seed
    }

    /// [`DataOwner::bulk_load`] of a copy of `records`, plus the `gPuts`
    /// sync list that carries the same records to an SP by
    /// [`StorageProvider::apply_sync_batch`] — two more copies of the
    /// dataset, for callers that keep theirs. (`EpochDriver::deploy` hands
    /// the SP the records and the DO takes them; the frozen
    /// `benchmark trace` probe calls this.)
    ///
    /// [`StorageProvider::apply_sync_batch`]: crate::provider::StorageProvider::apply_sync_batch
    pub fn preload(&mut self, records: &[(String, Vec<u8>)], state: ReplState) -> Vec<SpSync> {
        self.bulk_load(records.to_vec(), state);
        records
            .iter()
            .map(|(key, value)| SpSync::Write {
                key: key.clone(),
                value: value.clone(),
                state,
            })
            .collect()
    }

    /// Heap bytes the DO owns: the entry table with every key and value,
    /// the worklists (`pending` and `hinted` counted as key slots plus key
    /// buffers; their B-tree node headers are not) and the staged writes,
    /// and the hash mirror. The policy reports its own
    /// ([`ReplicationPolicy::heap_bytes`]). One entry of the memory ledger
    /// (ARCHITECTURE.md).
    pub fn heap_bytes(&self) -> usize {
        let set_bytes = |set: &BTreeSet<String>| {
            set.iter()
                .map(|key| std::mem::size_of::<String>() + key.capacity())
                .sum::<usize>()
        };
        let staged = self.staged.capacity() * std::mem::size_of::<(String, Vec<u8>)>()
            + self
                .staged
                .iter()
                .map(|(key, value)| key.capacity() + value.capacity())
                .sum::<usize>();
        crate::map_heap_bytes(&self.entries, |entry| {
            entry.value.as_ref().map_or(0, Vec::capacity)
        }) + set_bytes(&self.pending)
            + set_bytes(&self.hinted)
            + staged
            + self.mirror.heap_bytes()
    }

    /// Heap bytes the policy's state owns
    /// ([`ReplicationPolicy::heap_bytes`]).
    pub fn policy_heap_bytes(&self) -> usize {
        self.policy.heap_bytes()
    }

    /// Observes a local write: feeds the policy and stages the value for the
    /// next epoch flush.
    pub fn observe_write(&mut self, key: &str, value: Vec<u8>) {
        let want = self.policy.on_write(key);
        self.set_desired(key, want);
        self.staged.push((key.to_owned(), value));
    }

    /// Observes a read (from the trace the monitor federates): feeds the
    /// policy and returns the resulting desired state.
    pub fn observe_read(&mut self, key: &str) -> ReplState {
        let want = self.policy.on_read(key);
        self.set_desired(key, want);
        want
    }

    /// Records the policy's latest decision for `key` and queues the key for
    /// the next flush if it now differs from the committed state. Only the
    /// first sight of a key (and its first queueing) allocates.
    fn set_desired(&mut self, key: &str, want: ReplState) {
        let committed = with_entry(&mut self.entries, key, |entry| {
            entry.desired = want;
            entry.committed
        });
        if want != committed && !self.pending.contains(key) {
            self.pending.insert(key.to_owned());
        }
    }

    /// The policy's current desired state for `key`.
    pub fn desired_state(&self, key: &str) -> ReplState {
        self.entries.get(key).map(|e| e.desired).unwrap_or_default()
    }

    /// Notes that a `deliver` installed a replica for `key` ahead of the
    /// tree transition (the Listing 2 `replicate` flag). The next
    /// [`DataOwner::flush_epoch`] formalizes or evicts it.
    pub fn note_hinted_replica(&mut self, key: &str) {
        self.hinted.insert(key.to_owned());
    }

    /// Reconstructs the read keys from the chain's contract-call history
    /// since the last scan — the §3.2 monitor. The returned keys let tests
    /// validate that the trace-order observations match what the chain
    /// records; the decision state machine itself consumes
    /// [`DataOwner::observe_read`].
    pub fn federate_reads(&mut self, chain: &Blockchain, manager: Address) -> Vec<String> {
        let calls = chain.calls_since(self.monitor_cursor, manager);
        self.monitor_cursor = chain.height();
        let mut keys = Vec::new();
        for call in calls {
            // gGet's key and gScan's start key are both the first
            // byte-string field of the call input.
            if call.func == "gGet" || call.func == "gScan" {
                let mut dec = grub_chain::codec::Decoder::new(&call.input);
                if let Ok(key) = dec.bytes() {
                    keys.push(String::from_utf8_lossy(key).into_owned());
                }
            }
        }
        keys
    }

    /// The committed replication state of `key` (NR when unknown).
    pub fn state_of(&self, key: &str) -> ReplState {
        self.entries
            .get(key)
            .map(|e| e.committed)
            .unwrap_or_default()
    }

    /// Current root digest of the DO's mirror.
    pub fn root(&self) -> grub_crypto::Hash32 {
        self.mirror.root()
    }

    /// Total Merkle nodes rehashed by the mirror's batched updates so far.
    pub fn nodes_rehashed(&self) -> u64 {
        self.nodes_rehashed
    }

    /// The authoritative record set, sorted by key: every key the DO has
    /// produced, with its committed replication state and latest value.
    /// This is the ground truth the scrubber audits the SP against.
    pub fn live_records(&self) -> Vec<(String, ReplState, Vec<u8>)> {
        #[expect(clippy::disallowed_methods, reason = "sorted by key below")]
        let mut out: Vec<(String, ReplState, Vec<u8>)> = self
            .entries
            .iter()
            .filter_map(|(key, e)| Some((key.clone(), e.committed, e.value.clone()?)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Closes the epoch: applies staged writes and decided transitions to
    /// the mirror, and produces the encoded `update()` chunks plus the SP
    /// sync.
    ///
    /// Mutation order (writes in arrival order, then transitions in key
    /// order) is deterministic so the SP's tree converges to the same root.
    pub fn flush_epoch(&mut self) -> EpochFlush {
        let staged = std::mem::take(&mut self.staged);
        let writes = staged.len();
        let hinted = std::mem::take(&mut self.hinted);
        let mut sync = Vec::with_capacity(writes);
        // Mirror mutations are collected across steps 1–2 and applied as one
        // batch just before the digest read: the root is only needed at the
        // end, so shared root-to-leaf paths are hashed once per epoch.
        let mut tree_ops: Vec<TreeOp> = Vec::with_capacity(writes);
        // 1. Apply writes under each key's *current* state. Every occurrence
        //    is kept: the paper's update() loops over the batched keys[] /
        //    values[] arrays and pays one storage write per element
        //    (Listing 2), which is what makes BL2 expensive under
        //    write-heavy workloads. The occurrences live on as the `Write`
        //    prefix of `sync`; the value itself is copied once, into the
        //    key's entry (which `observe_write` created).
        let mut hinted_written: BTreeSet<&str> = BTreeSet::new();
        for (key, value) in staged {
            let Some(entry) = self.entries.get_mut(&key) else {
                continue;
            };
            let state = entry.committed;
            let pkey = ProofKey::new(state, key.as_bytes().to_vec());
            tree_ops.push(TreeOp::Insert(pkey, record_value_hash(&value)));
            match &mut entry.value {
                Some(slot) => slot.clone_from(&value),
                None => entry.value = Some(value.clone()),
            }
            if let Some(hint) = hinted.get(&key) {
                hinted_written.insert(hint);
            }
            sync.push(SpSync::Write { key, value, state });
        }
        // 2. Apply transitions (desired ≠ committed), in key order: the
        //    pending set holds every key that can need one.
        for key in std::mem::take(&mut self.pending) {
            // `set_desired` queues a key only after creating its entry.
            let Some(entry) = self.entries.get_mut(&key) else {
                continue;
            };
            let (from, to) = (entry.committed, entry.desired);
            if from == to {
                // The decision flipped away and back before the flush.
                continue;
            }
            let Some(value) = &entry.value else {
                // A key the policy saw only through reads of a record that
                // does not exist; nothing to relocate yet, but the decision
                // stands, so the next flush must look again.
                self.pending.insert(key);
                continue;
            };
            tree_ops.push(TreeOp::Invalidate(ProofKey::new(
                from,
                key.as_bytes().to_vec(),
            )));
            tree_ops.push(TreeOp::Insert(
                ProofKey::new(to, key.as_bytes().to_vec()),
                record_value_hash(value),
            ));
            entry.committed = to;
            sync.push(SpSync::Relocate { key, from, to });
        }
        self.nodes_rehashed += self.mirror.apply_batch(tree_ops) as u64;

        // 3. The update's sections, borrowed from `sync` and the entries.
        let mut r_updates: Vec<(&[u8], &[u8])> = Vec::new();
        let mut to_r: Vec<(&[u8], &[u8])> = Vec::new();
        let mut to_nr: Vec<&[u8]> = Vec::new();
        let mut replications = 0;
        for op in &sync {
            match op {
                // A write to a record that stays replicated — one array
                // element per occurrence, as in Listing 2. A key
                // transitions at most once per flush, so "replicated when
                // written and replicated now" means it stayed.
                SpSync::Write {
                    key,
                    value,
                    state: ReplState::Replicated,
                } if self.state_of(key) == ReplState::Replicated => {
                    r_updates.push((key.as_bytes(), value));
                }
                SpSync::Write { .. } => {}
                SpSync::Relocate {
                    key,
                    to: ReplState::Replicated,
                    ..
                } => {
                    replications += 1;
                    // A replica installed mid-epoch by `deliver(replicate)`
                    // already holds the current value unless a later write
                    // superseded it — don't pay the payload and the storage
                    // write a second time (deliver-time replication leaves
                    // the epoch update carrying only the digest-side
                    // transition).
                    if hinted.contains(key) && !hinted_written.contains(key.as_str()) {
                        continue;
                    }
                    if let Some(value) = self.entries.get(key).and_then(|e| e.value.as_deref()) {
                        to_r.push((key.as_bytes(), value));
                    }
                }
                SpSync::Relocate { key, .. } => to_nr.push(key.as_bytes()),
            }
        }
        // Reconcile mid-epoch deliver-installed replicas: keys that settled
        // back to NR must have the hinted replica evicted (no tree change —
        // the tree never left NR); keys now formally R were covered by the
        // transitions above. Those evictions are in key order, so whether
        // one already evicted a key is a binary search.
        let transitioned = to_nr.len();
        for key in &hinted {
            if self.state_of(key) == ReplState::NotReplicated
                && to_nr[..transitioned]
                    .binary_search(&key.as_bytes())
                    .is_err()
            {
                to_nr.push(key.as_bytes());
            }
        }
        let digest = self.mirror.root();
        let chunks = if sync.is_empty() && to_nr.is_empty() {
            Vec::new()
        } else {
            encode_update_chunks(
                &digest,
                r_updates.iter().copied(),
                to_r.iter().copied(),
                to_nr.iter().copied(),
            )
        };
        EpochFlush {
            digest,
            chunks,
            evictions: to_nr.len(),
            sp_sync: sync,
            replications,
        }
    }
}

impl std::fmt::Debug for DataOwner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataOwner")
            .field("address", &self.address)
            .field("policy", &self.policy.name())
            .field("keys", &self.entries.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::update_oracle::{decode_update_chunks, Sections};
    use crate::policy::{Bl2, Memoryless};

    /// The flush's `update()` sections, decoded from its chunks.
    fn sections(flush: &EpochFlush) -> Sections {
        decode_update_chunks(&flush.chunks).1
    }

    fn owner_with_k(k: u64) -> DataOwner {
        DataOwner::new(Address::derive("DO"), Box::new(Memoryless::new(k)))
    }

    #[test]
    fn write_only_epoch_sends_digest_only() {
        let mut o = owner_with_k(2);
        o.observe_write("a", b"1".to_vec());
        o.observe_write("b", b"2".to_vec());
        let flush = o.flush_epoch();
        assert_eq!(flush.chunks.len(), 1, "an update is due");
        assert_eq!(
            sections(&flush),
            Sections::default(),
            "no values ride along for NR keys"
        );
        assert_eq!(flush.replications, 0);
        assert_eq!(flush.evictions, 0);
        assert_eq!(flush.sp_sync.len(), 2);
    }

    #[test]
    fn k_reads_trigger_replication_at_flush() {
        let mut o = owner_with_k(2);
        o.observe_write("a", b"1".to_vec());
        o.flush_epoch();
        o.observe_read("a");
        o.observe_read("a");
        let flush = o.flush_epoch();
        assert_eq!(flush.replications, 1);
        assert_eq!(o.state_of("a"), ReplState::Replicated);
    }

    #[test]
    fn write_after_replication_evicts() {
        let mut o = owner_with_k(1);
        o.observe_write("a", b"1".to_vec());
        o.flush_epoch();
        o.observe_read("a");
        o.flush_epoch();
        assert_eq!(o.state_of("a"), ReplState::Replicated);
        o.observe_write("a", b"2".to_vec());
        let flush = o.flush_epoch();
        assert_eq!(flush.evictions, 1);
        assert_eq!(o.state_of("a"), ReplState::NotReplicated);
    }

    #[test]
    fn replicated_write_carries_value() {
        let mut o = DataOwner::new(Address::derive("DO"), Box::new(Bl2));
        o.observe_write("a", b"1".to_vec());
        let f1 = o.flush_epoch();
        assert_eq!(f1.replications, 1, "BL2 replicates immediately");
        o.observe_write("a", b"2".to_vec());
        let f2 = o.flush_epoch();
        // Second write is an r_update (stays R) carrying the value.
        assert_eq!(sections(&f2).0, vec![(b"a".to_vec(), b"2".to_vec())]);
        assert_eq!(f2.replications, 0);
    }

    #[test]
    fn empty_epoch_flushes_nothing() {
        let mut o = owner_with_k(2);
        let flush = o.flush_epoch();
        assert!(flush.chunks.is_empty());
        assert!(flush.sp_sync.is_empty());
    }

    #[test]
    fn mirror_root_changes_with_each_write() {
        let mut o = owner_with_k(2);
        o.observe_write("a", b"1".to_vec());
        o.flush_epoch();
        let r1 = o.root();
        o.observe_write("a", b"2".to_vec());
        o.flush_epoch();
        assert_ne!(o.root(), r1);
    }

    #[test]
    fn read_of_a_valueless_key_stays_pending_until_it_is_written() {
        let mut o = owner_with_k(1);
        o.observe_read("ghost");
        for _ in 0..3 {
            // Nothing to relocate, nothing emitted — but the decision stands.
            assert!(o.flush_epoch().chunks.is_empty());
            assert!(o.pending.contains("ghost"));
        }
        // Memoryless resets on a write, so the key settles NR and leaves.
        o.observe_write("ghost", b"1".to_vec());
        let flush = o.flush_epoch();
        assert_eq!((flush.replications, flush.evictions), (0, 0));
        assert!(o.pending.is_empty());
    }

    #[test]
    fn decision_flipping_back_before_the_flush_emits_no_transition() {
        let mut o = owner_with_k(1);
        o.observe_write("a", b"1".to_vec());
        o.flush_epoch();
        o.observe_read("a"); // wants R
        o.observe_write("a", b"2".to_vec()); // back to NR
        let flush = o.flush_epoch();
        let (_, to_r, to_nr) = sections(&flush);
        assert!(to_r.is_empty() && to_nr.is_empty());
        assert_eq!(flush.sp_sync.len(), 1, "the write only, no Relocate");
        assert!(o.pending.is_empty());
    }

    #[test]
    fn preload_clears_a_pending_key() {
        let mut o = owner_with_k(1);
        o.observe_read("x");
        assert!(o.pending.contains("x"));
        // A (streamed or repeated) preload overwrites both sides of the
        // comparison; the key must not linger in the set.
        let records = vec![("x".to_owned(), b"1".to_vec())];
        o.preload(&records, ReplState::Replicated);
        assert!(o.pending.is_empty());
        assert_eq!(o.desired_state("x"), ReplState::Replicated);
        assert!(o.flush_epoch().chunks.is_empty());
        // The next observation that disagrees queues it again.
        o.observe_write("x", b"2".to_vec());
        assert_eq!(o.flush_epoch().evictions, 1);
    }

    #[test]
    fn preload_sets_state_without_policy() {
        let mut o = owner_with_k(2);
        let records = vec![("x".to_owned(), b"1".to_vec())];
        let sync = o.preload(&records, ReplState::Replicated);
        assert_eq!(sync.len(), 1);
        assert_eq!(o.state_of("x"), ReplState::Replicated);
        // No staged writes: next flush is clean.
        assert!(o.flush_epoch().chunks.is_empty());
    }
}
