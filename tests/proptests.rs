//! Property-based tests over the core data structures and protocol
//! invariants.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use grub::chain::Address;
use grub::core::contract::{coalesce_delivers, encode_deliver, DeliverPayload};
use grub::crypto::sha256;
use grub::merkle::{
    record_value_hash, MerkleKv, ProofKey, ReplState, TreeOp as MerkleTreeOp, VerifyError,
};
use grub::store::{Db, Options};
use grub::workload::stats;
use grub::workload::{Op, Trace, ValueSpec};

fn pkey(state: bool, key: &str) -> ProofKey {
    ProofKey::new(
        if state {
            ReplState::Replicated
        } else {
            ReplState::NotReplicated
        },
        key.as_bytes().to_vec(),
    )
}

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(bool, String, u64),
    Invalidate(bool, String),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    let key = prop::sample::select((0..24u8).map(|i| format!("key{i:02}")).collect::<Vec<_>>());
    prop_oneof![
        (any::<bool>(), key.clone(), any::<u64>()).prop_map(|(s, k, v)| TreeOp::Insert(s, k, v)),
        (any::<bool>(), key).prop_map(|(s, k)| TreeOp::Invalidate(s, k)),
    ]
}

/// Like [`tree_op`], but biased 2:1 toward invalidations (the invalidate
/// arm is listed twice; the union samples arms uniformly) so batches hit
/// tombstone-heavy rounds often.
fn tree_op_tombstone_heavy() -> impl Strategy<Value = TreeOp> {
    let key = prop::sample::select((0..24u8).map(|i| format!("key{i:02}")).collect::<Vec<_>>());
    prop_oneof![
        (any::<bool>(), key.clone(), any::<u64>()).prop_map(|(s, k, v)| TreeOp::Insert(s, k, v)),
        (any::<bool>(), key.clone()).prop_map(|(s, k)| TreeOp::Invalidate(s, k)),
        (any::<bool>(), key).prop_map(|(s, k)| TreeOp::Invalidate(s, k)),
    ]
}

/// The one batch `apply_batch` does not apply op by op: inserts only, keys
/// strictly ascending (and then only when the tree is empty).
fn is_sorted_load(batch: &[MerkleTreeOp]) -> bool {
    let key = |op: &MerkleTreeOp| match op {
        MerkleTreeOp::Insert(pk, _) => Some(pk.clone()),
        MerkleTreeOp::Invalidate(_) => None,
    };
    !batch.is_empty()
        && batch.iter().all(|op| key(op).is_some())
        && batch.windows(2).all(|w| key(&w[0]) < key(&w[1]))
}

/// Applies `batch` through the eager per-op calls.
fn apply_sequentially(tree: &mut MerkleKv, batch: &[MerkleTreeOp]) {
    for op in batch {
        match op {
            MerkleTreeOp::Insert(pk, vh) => tree.insert(pk.clone(), *vh),
            MerkleTreeOp::Invalidate(pk) => {
                tree.invalidate(pk);
            }
        }
    }
}

/// A sorted load: distinct records in `ProofKey` order, as inserts.
fn sorted_load(records: &[(bool, u8, u64)]) -> Vec<MerkleTreeOp> {
    let mut recs: Vec<_> = records
        .iter()
        .map(|(s, k, v)| {
            (
                pkey(*s, &format!("key{k:03}")),
                record_value_hash(&v.to_le_bytes()),
            )
        })
        .collect();
    recs.sort_by(|a, b| a.0.cmp(&b.0));
    recs.dedup_by(|a, b| a.0 == b.0);
    recs.into_iter()
        .map(|(pk, vh)| MerkleTreeOp::Insert(pk, vh))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Merkle tree agrees with a plain ordered-map model under random
    /// insert/update/invalidate sequences, and two replicas applying the
    /// same sequence always share a root (the SP/DO lock-step invariant).
    #[test]
    fn merkle_tree_matches_model(ops in prop::collection::vec(tree_op(), 1..120)) {
        let mut tree = MerkleKv::new();
        let mut twin = MerkleKv::new();
        let mut model: BTreeMap<ProofKey, grub::crypto::Hash32> = BTreeMap::new();
        for op in &ops {
            match op {
                TreeOp::Insert(state, key, v) => {
                    let pk = pkey(*state, key);
                    let vh = record_value_hash(&v.to_le_bytes());
                    tree.insert(pk.clone(), vh);
                    twin.insert(pk.clone(), vh);
                    model.insert(pk, vh);
                }
                TreeOp::Invalidate(state, key) => {
                    let pk = pkey(*state, key);
                    tree.invalidate(&pk);
                    twin.invalidate(&pk);
                    model.remove(&pk);
                }
            }
        }
        prop_assert_eq!(tree.root(), twin.root(), "replicas diverged");
        prop_assert_eq!(tree.len(), model.len());
        for (pk, vh) in &model {
            prop_assert_eq!(tree.get(pk), Some(*vh));
        }
        // Live iteration matches the model's order exactly.
        let live = tree.iter_live();
        let expect: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(live, expect);
    }

    /// Batched tree updates are root-equivalent to the sequential path at
    /// every chunk boundary, for arbitrary chunkings of random
    /// write/delete/relocate mixes — including tombstone-heavy rounds — and
    /// canonical rebuilds of both trees agree too. (A first chunk that
    /// happens to be a sorted load is the bulk load: the sequential path
    /// plus a rebuild.)
    #[test]
    fn apply_batch_equals_sequential(
        ops in prop::collection::vec(tree_op_tombstone_heavy(), 1..160),
        chunk in 1usize..32,
    ) {
        let mut seq = MerkleKv::new();
        let mut batched = MerkleKv::new();
        for chunk_ops in ops.chunks(chunk) {
            let batch: Vec<MerkleTreeOp> = chunk_ops
                .iter()
                .map(|op| match op {
                    TreeOp::Insert(state, key, v) => MerkleTreeOp::Insert(
                        pkey(*state, key),
                        record_value_hash(&v.to_le_bytes()),
                    ),
                    TreeOp::Invalidate(state, key) => MerkleTreeOp::Invalidate(pkey(*state, key)),
                })
                .collect();
            let bulk = seq.len() + seq.tombstone_count() == 0 && is_sorted_load(&batch);
            apply_sequentially(&mut seq, &batch);
            if bulk {
                seq.rebuild();
            }
            batched.apply_batch(batch);
            prop_assert_eq!(seq.root(), batched.root(), "chunk boundary roots diverged");
        }
        prop_assert_eq!(seq.len(), batched.len());
        // Rebuilding canonicalizes shape identically given identical
        // content, so the rebuilt roots must agree as well.
        seq.rebuild();
        batched.rebuild();
        prop_assert_eq!(seq.root(), batched.root(), "rebuilt roots diverged");
    }

    /// Building a tree with one `insert_batch` call equals one-by-one
    /// inserts (duplicate keys included: last write wins in both paths) —
    /// followed by a rebuild when the records happen to arrive sorted.
    #[test]
    fn insert_batch_equals_sequential_build(
        records in prop::collection::vec((any::<bool>(), 0u8..24, any::<u64>()), 1..120),
    ) {
        let mut seq = MerkleKv::new();
        let mut batched = MerkleKv::new();
        let recs: Vec<_> = records
            .iter()
            .map(|(s, k, v)| {
                (
                    pkey(*s, &format!("key{k:02}")),
                    record_value_hash(&v.to_le_bytes()),
                )
            })
            .collect();
        for (pk, vh) in &recs {
            seq.insert(pk.clone(), *vh);
        }
        if recs.windows(2).all(|w| w[0].0 < w[1].0) {
            seq.rebuild();
        }
        batched.insert_batch(recs);
        prop_assert_eq!(seq.root(), batched.root(), "batch build diverged");
        prop_assert_eq!(seq.len(), batched.len());
    }

    /// The bulk-load rule: a sorted load applied to an empty tree is built
    /// as the balanced tree over its records — `2n − 1` hashes, the root
    /// `rebuild()` gives the same set grown in any other order.
    #[test]
    fn sorted_load_into_an_empty_tree_is_the_rebuild_shape(
        records in prop::collection::vec((any::<bool>(), 0u8..200, any::<u64>()), 1..160),
    ) {
        let load = sorted_load(&records);
        let n = load.len();
        let mut grown = MerkleKv::new();
        let reversed: Vec<_> = load.iter().rev().cloned().collect();
        apply_sequentially(&mut grown, &reversed);
        grown.rebuild();
        let mut bulk = MerkleKv::new();
        prop_assert_eq!(bulk.apply_batch(load), 2 * n - 1);
        prop_assert_eq!(bulk.root(), grown.root());
        prop_assert_eq!(bulk.depth(), grown.depth());
        prop_assert_eq!(bulk.depth(), n.next_power_of_two().trailing_zeros() as usize + 1);
        prop_assert_eq!((bulk.len(), bulk.tombstone_count()), (n, 0));
    }

    /// ...and only that: spoil a sorted load in any one way — two keys out
    /// of order, a repeated key, a tombstone request, a tree that already
    /// holds a leaf or a tombstone — and the batch is byte-identical to the
    /// sequential `insert`/`invalidate` loop, shape included.
    #[test]
    fn spoiled_sorted_loads_equal_the_sequential_loop(
        records in prop::collection::vec((any::<bool>(), 0u8..200, any::<u64>()), 4..160),
        spoiler in 0u8..5,
        at in any::<usize>(),
    ) {
        let mut batch = sorted_load(&records);
        let at = at % batch.len();
        let mut seq = MerkleKv::new();
        let mut batched = MerkleKv::new();
        let stray = pkey(true, "stray");
        match spoiler {
            0 if batch.len() >= 2 => {
                let at = at.min(batch.len() - 2);
                batch.swap(at, at + 1);
            }
            1 => batch.insert(at, batch[at].clone()),
            2 => batch.insert(at, MerkleTreeOp::Invalidate(stray)),
            3 => {
                seq.insert(stray.clone(), record_value_hash(b"stray"));
                batched.insert(stray, record_value_hash(b"stray"));
            }
            _ => {
                for tree in [&mut seq, &mut batched] {
                    tree.insert(stray.clone(), record_value_hash(b"stray"));
                    tree.invalidate(&stray);
                }
            }
        }
        apply_sequentially(&mut seq, &batch);
        batched.apply_batch(batch);
        prop_assert_eq!(batched.root(), seq.root());
        prop_assert_eq!(batched.depth(), seq.depth());
        prop_assert_eq!(
            (batched.len(), batched.tombstone_count()),
            (seq.len(), seq.tombstone_count())
        );
    }

    /// Point proofs — the one-key range `[k, k]` the SP serves for point
    /// reads — return exactly the live record for every live key, nothing
    /// for a tombstoned one, and never verify against a mutated root.
    #[test]
    fn point_proofs_sound_and_complete(ops in prop::collection::vec(tree_op(), 1..80)) {
        let mut tree = MerkleKv::new();
        let mut dead = Vec::new();
        for op in &ops {
            match op {
                TreeOp::Insert(state, key, v) => {
                    tree.insert(pkey(*state, key), record_value_hash(&v.to_le_bytes()));
                }
                TreeOp::Invalidate(state, key) => {
                    tree.invalidate(&pkey(*state, key));
                    dead.push(pkey(*state, key));
                }
            }
        }
        let root = tree.root();
        let wrong_root = sha256(root.as_bytes());
        for (pk, vh) in tree.iter_live() {
            let proof = tree.prove_range(&pk, &pk);
            prop_assert_eq!(proof.verify(&root, &pk, &pk), Ok(vec![(pk.clone(), vh)]));
            prop_assert_eq!(
                proof.verify(&wrong_root, &pk, &pk),
                Err(VerifyError::RootMismatch)
            );
        }
        for pk in dead.iter().filter(|pk| tree.get(pk).is_none()) {
            prop_assert_eq!(tree.prove_range(pk, pk).verify(&root, pk, pk), Ok(Vec::new()));
        }
    }

    /// Range proofs return exactly the model's records for arbitrary query
    /// ranges (completeness + soundness of the pruned-tree construction).
    #[test]
    fn range_proofs_match_model(
        ops in prop::collection::vec(tree_op(), 1..100),
        lo in 0u8..24,
        width in 0u8..24,
    ) {
        let mut tree = MerkleKv::new();
        let mut model: BTreeMap<ProofKey, grub::crypto::Hash32> = BTreeMap::new();
        for op in &ops {
            match op {
                TreeOp::Insert(state, key, v) => {
                    let pk = pkey(*state, key);
                    let vh = record_value_hash(&v.to_le_bytes());
                    tree.insert(pk.clone(), vh);
                    model.insert(pk, vh);
                }
                TreeOp::Invalidate(state, key) => {
                    let pk = pkey(*state, key);
                    tree.invalidate(&pk);
                    model.remove(&pk);
                }
            }
        }
        let lo_key = pkey(false, &format!("key{lo:02}"));
        let hi_key = pkey(false, &format!("key{:02}", lo.saturating_add(width)));
        let proof = tree.prove_range(&lo_key, &hi_key);
        let got = proof.verify(&tree.root(), &lo_key, &hi_key).expect("verifies");
        let expect: Vec<_> = model
            .range(lo_key..=hi_key)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// A round of point reads against a random tree, delivered per request
    /// and coalesced: the shared-proof payloads carry the same queries and
    /// verify to exactly the concatenation of the per-request results.
    #[test]
    fn coalesced_delivers_verify_to_the_per_request_results(
        ops in prop::collection::vec(tree_op(), 1..80),
        reads in prop::collection::vec(0u8..24, 1..16),
    ) {
        let mut tree = MerkleKv::new();
        let mut live: BTreeMap<ProofKey, u64> = BTreeMap::new();
        for op in &ops {
            match op {
                TreeOp::Insert(state, key, v) => {
                    tree.insert(pkey(*state, key), record_value_hash(&v.to_le_bytes()));
                    live.insert(pkey(*state, key), *v);
                }
                TreeOp::Invalidate(state, key) => {
                    tree.invalidate(&pkey(*state, key));
                    live.remove(&pkey(*state, key));
                }
            }
        }
        let root = tree.root();
        // The watchdog's per-request payloads: one per distinct key, in key
        // order, each with the SP's records and its own point proof.
        let consumer = Address::derive("consumer");
        let keys: BTreeSet<String> = reads.iter().map(|i| format!("key{i:02}")).collect();
        let singles: Vec<Vec<u8>> = keys
            .iter()
            .map(|key| {
                let pk = pkey(false, key);
                let records: Vec<(Vec<u8>, Vec<u8>)> = live
                    .get(&pk)
                    .map(|v| (key.clone().into_bytes(), v.to_le_bytes().to_vec()))
                    .into_iter()
                    .collect();
                let proof = tree.prove_range(&pk, &pk);
                let callbacks = [(consumer, "onData".to_owned())];
                encode_deliver(key.as_bytes(), key.as_bytes(), false, &records, &proof, &callbacks)
            })
            .collect();
        let coalesced = coalesce_delivers(singles.clone());
        prop_assert_eq!(coalesced.len(), 1, "a small round fits one payload");
        prop_assert!(keys.len() == 1 || coalesced[0].len() < singles.iter().map(Vec::len).sum());

        let verify = |payloads: &[Vec<u8>]| {
            let mut queries = Vec::new();
            let mut results = Vec::new();
            for payload in payloads {
                let decoded = DeliverPayload::decode(payload).expect("decodes");
                let bounds: Vec<(ProofKey, ProofKey)> = decoded
                    .queries
                    .iter()
                    .map(|q| {
                        (
                            ProofKey::new(ReplState::NotReplicated, q.start.clone()),
                            ProofKey::new(ReplState::NotReplicated, q.end.clone()),
                        )
                    })
                    .collect();
                let bounds: Vec<(&ProofKey, &ProofKey)> = bounds.iter().map(|(lo, hi)| (lo, hi)).collect();
                results.extend(decoded.proof.verify_queries(&root, &bounds).expect("verifies"));
                queries.extend(decoded.queries);
            }
            (queries, results)
        };
        let (per_request_queries, per_request) = verify(&singles);
        let (shared_queries, shared) = verify(&coalesced);
        prop_assert_eq!(shared_queries, per_request_queries);
        prop_assert_eq!(shared, per_request);
    }

    /// The LSM store agrees with an ordered-map model across puts, deletes,
    /// flushes, compactions and scans.
    #[test]
    fn store_matches_model(
        ops in prop::collection::vec(
            (0u8..3, 0u8..20, any::<u16>()),
            1..150
        )
    ) {
        let dir = std::env::temp_dir().join(format!(
            "grub-prop-{}-{}", std::process::id(),
            rand::random::<u64>()
        ));
        let mut db = Db::open(&dir, Options {
            memtable_bytes: 512,
            l0_compaction_trigger: 2,
            ..Options::default()
        }).expect("open");
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (kind, key_id, v) in &ops {
            let key = format!("k{key_id:02}").into_bytes();
            match kind {
                0 => {
                    let value = v.to_le_bytes().to_vec();
                    db.put(key.clone(), value.clone()).expect("put");
                    model.insert(key, value);
                }
                1 => {
                    db.delete(&key).expect("delete");
                    model.remove(&key);
                }
                _ => {
                    db.flush().expect("flush");
                }
            }
        }
        for (key, value) in &model {
            prop_assert_eq!(db.get(key).expect("get"), Some(value.clone()));
        }
        let scanned = db.scan(None, None).expect("scan");
        let expect: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(scanned, expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// reads-after-write statistics: the series sums to the trace's read
    /// count (minus leading reads) and has one entry per write.
    #[test]
    fn stats_series_invariants(flags in prop::collection::vec(any::<bool>(), 1..200)) {
        let trace: Trace = flags
            .iter()
            .map(|w| {
                if *w {
                    Op::Write { key: "k".into(), value: ValueSpec::new(8, 0) }
                } else {
                    Op::Read { key: "k".into() }
                }
            })
            .collect();
        let series = stats::reads_after_write_series(&trace);
        prop_assert_eq!(series.len(), trace.write_count());
        let leading_reads = trace.ops.iter().take_while(|o| !o.is_write()).count();
        prop_assert_eq!(
            series.iter().sum::<usize>(),
            trace.read_count() - leading_reads
        );
    }
}

/// The memoryless policy is 2-competitive in its decision count on the
/// worst-case sequence (Theorem A.1, decision-level check): over n cycles of
/// (write + K reads), it replicates exactly n times — each paid replication
/// wasted, bounding cost at (1 + K·Cread/Cupd)× optimal.
#[test]
fn memoryless_worst_case_replication_count() {
    use grub::core::policy::{Memoryless, ReplicationPolicy};
    let k = 3u64;
    let cycles = 50usize;
    let mut policy = Memoryless::new(k);
    let mut replications = 0;
    let mut last = ReplState::NotReplicated;
    for _ in 0..cycles {
        let s = policy.on_write("k");
        if s == ReplState::Replicated && last != ReplState::Replicated {
            replications += 1;
        }
        last = s;
        for _ in 0..k {
            let s = policy.on_read("k");
            if s == ReplState::Replicated && last != ReplState::Replicated {
                replications += 1;
            }
            last = s;
        }
    }
    assert_eq!(replications, cycles, "one wasted replication per cycle");
}

// ---------------------------------------------------------------------
// DataOwner::flush_epoch against a full-scan oracle.
// ---------------------------------------------------------------------

mod owner_differential {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use grub::chain::codec::Decoder;
    use grub::chain::Address;
    use grub::core::owner::DataOwner;
    use grub::core::policy::{
        Bl1, Bl2, FeeAware, Memorizing, Memoryless, ReplicationPolicy, SelfTuningK,
    };
    use grub::core::provider::{SpSync, StorageProvider};
    use grub::crypto::Hash32;
    use grub::gas::GasSchedule;
    use grub::merkle::ReplState;

    const NR: ReplState = ReplState::NotReplicated;
    const R: ReplState = ReplState::Replicated;

    #[derive(Debug, Clone)]
    pub enum DoOp {
        Preload(String, bool, u8),
        Write(String, u8),
        Read(String),
        Hint(String),
        Flush,
    }

    fn alphabet() -> Vec<String> {
        (0..12u8).map(|i| format!("key{i:02}")).collect()
    }

    fn do_op() -> impl Strategy<Value = DoOp> {
        let key = prop::sample::select(alphabet());
        // Reads and writes dominate; flushes come often enough that a
        // script closes a dozen epochs; preloads and hints are the rare
        // events they are in the system.
        prop_oneof![
            (key.clone(), any::<u8>()).prop_map(|(k, v)| DoOp::Write(k, v)),
            (key.clone(), any::<u8>()).prop_map(|(k, v)| DoOp::Write(k, v)),
            key.clone().prop_map(DoOp::Read),
            key.clone().prop_map(DoOp::Read),
            key.clone().prop_map(DoOp::Read),
            key.clone().prop_map(DoOp::Hint),
            (key, any::<bool>(), any::<u8>()).prop_map(|(k, s, v)| DoOp::Preload(k, s, v)),
            Just(DoOp::Flush),
            Just(DoOp::Flush),
        ]
    }

    const POLICIES: u8 = 7;

    fn policy(which: u8) -> Box<dyn ReplicationPolicy> {
        match which % POLICIES {
            0 => Box::new(Memoryless::new(1)),
            1 => Box::new(Memoryless::new(2)),
            2 => Box::new(Bl1),
            3 => Box::new(Bl2),
            4 => Box::new(Memorizing::new(2.0, 1.0)),
            5 => Box::new(SelfTuningK::new(4, &GasSchedule::default())),
            // No price is ever observed, so the wrapper grants everything:
            // what is exercised is its own per-key record beside the DO's.
            _ => Box::new(FeeAware::new(Box::new(Memoryless::new(2)), 1_500)),
        }
    }

    /// What `flush_epoch` must emit, derived the way it used to be: scan
    /// every known key for `desired != committed`, in key order. Reads the
    /// DO only through its public accessors, before the flush runs.
    struct Expected {
        sp_sync: Vec<SpSync>,
        r_updates: Vec<(Vec<u8>, Vec<u8>)>,
        to_r: Vec<(Vec<u8>, Vec<u8>)>,
        to_nr: Vec<Vec<u8>>,
        replications: usize,
    }

    fn oracle(
        owner: &DataOwner,
        staged: &[(String, Vec<u8>)],
        hinted: &BTreeSet<String>,
    ) -> Expected {
        let mut values: BTreeMap<String, Vec<u8>> = owner
            .live_records()
            .into_iter()
            .map(|(key, _, value)| (key, value))
            .collect();
        let mut sp_sync = Vec::new();
        for (key, value) in staged {
            values.insert(key.clone(), value.clone());
            sp_sync.push(SpSync::Write {
                key: key.clone(),
                value: value.clone(),
                state: owner.state_of(key),
            });
        }
        let written = |key: &String| staged.iter().any(|(k, _)| k == key);
        let (mut to_r, mut to_nr, mut formalized) = (Vec::new(), Vec::new(), 0);
        let mut after: BTreeMap<String, ReplState> = BTreeMap::new();
        for key in alphabet() {
            let (from, to) = (owner.state_of(&key), owner.desired_state(&key));
            after.insert(key.clone(), from);
            let Some(value) = values.get(&key).filter(|_| from != to) else {
                continue;
            };
            after.insert(key.clone(), to);
            if to == NR {
                to_nr.push(key.clone().into_bytes());
            } else if hinted.contains(&key) && !written(&key) {
                formalized += 1;
            } else {
                to_r.push((key.clone().into_bytes(), value.clone()));
            }
            sp_sync.push(SpSync::Relocate { key, from, to });
        }
        let r_updates = staged
            .iter()
            .filter(|(key, _)| after[key] == R)
            .filter(|(key, _)| !to_r.iter().any(|(k, _)| k == key.as_bytes()))
            .map(|(key, value)| (key.clone().into_bytes(), value.clone()))
            .collect();
        for key in hinted {
            if after[key] == NR && !to_nr.iter().any(|k| k == key.as_bytes()) {
                to_nr.push(key.clone().into_bytes());
            }
        }
        Expected {
            sp_sync,
            r_updates,
            replications: to_r.len() + formalized,
            to_r,
            to_nr,
        }
    }

    type Records = Vec<(Vec<u8>, Vec<u8>)>;

    /// Decodes a flush's `update()` chunks into each chunk's digest and the
    /// `rUpdates`, `toR` and `toNR` sections, joined in chunk order.
    fn decode_update_chunks(chunks: &[Vec<u8>]) -> (Vec<Hash32>, Records, Records, Vec<Vec<u8>>) {
        let mut digests = Vec::new();
        let (mut r_updates, mut to_r, mut to_nr) = (Records::new(), Records::new(), Vec::new());
        for chunk in chunks {
            let mut dec = Decoder::new(chunk);
            digests.push(dec.hash().unwrap());
            for records in [&mut r_updates, &mut to_r] {
                for _ in 0..dec.u64().unwrap() {
                    let key = dec.bytes().unwrap().to_vec();
                    records.push((key, dec.bytes().unwrap().to_vec()));
                }
            }
            for _ in 0..dec.u64().unwrap() {
                to_nr.push(dec.bytes().unwrap().to_vec());
            }
            assert!(dec.is_empty(), "trailing bytes in an update chunk");
        }
        (digests, r_updates, to_r, to_nr)
    }

    /// Drives one DO through `script`, checking every flush against the
    /// oracle and the mirror root against an SP fed the same sync ops.
    pub fn run_script(which_policy: u8, script: &[DoOp]) {
        let mut owner = DataOwner::new(Address::derive("DO"), policy(which_policy));
        let mut sp = StorageProvider::new(Address::derive("SP")).expect("store");
        let mut staged: Vec<(String, Vec<u8>)> = Vec::new();
        let mut hinted: BTreeSet<String> = BTreeSet::new();
        // A script always ends by closing its last epoch.
        for op in script.iter().chain(std::iter::once(&DoOp::Flush)) {
            match op {
                DoOp::Preload(key, replicated, v) => {
                    let state = if *replicated { R } else { NR };
                    let sync = owner.preload(&[(key.clone(), vec![*v; 3])], state);
                    sp.apply_sync_batch(sync).expect("sp preload");
                    assert_eq!(owner.state_of(key), state);
                    assert_eq!(owner.desired_state(key), state);
                }
                DoOp::Write(key, v) => {
                    owner.observe_write(key, vec![*v; 2]);
                    staged.push((key.clone(), vec![*v; 2]));
                }
                DoOp::Read(key) => {
                    let want = owner.observe_read(key);
                    assert_eq!(owner.desired_state(key), want);
                }
                DoOp::Hint(key) => {
                    owner.note_hinted_replica(key);
                    hinted.insert(key.clone());
                }
                DoOp::Flush => {
                    let want = oracle(&owner, &staged, &hinted);
                    let got = owner.flush_epoch();
                    assert_eq!(got.sp_sync, want.sp_sync, "sp_sync (order included)");
                    let (digests, r_updates, to_r, to_nr) = decode_update_chunks(&got.chunks);
                    assert_eq!(to_r, want.to_r, "to_r");
                    assert_eq!(to_nr, want.to_nr, "to_nr");
                    assert_eq!(r_updates, want.r_updates, "r_updates");
                    assert_eq!(got.replications, want.replications);
                    assert_eq!(got.evictions, want.to_nr.len());
                    assert_eq!(
                        !got.chunks.is_empty(),
                        !want.sp_sync.is_empty() || !want.to_nr.is_empty(),
                        "an update is due"
                    );
                    assert!(digests.iter().all(|d| *d == owner.root()), "chunk digest");
                    assert_eq!(got.digest, owner.root());
                    sp.apply_sync_batch(got.sp_sync).expect("sp sync");
                    assert_eq!(sp.root(), owner.root(), "SP root != DO mirror root");
                    // Every transition the scan would find was taken, except
                    // for keys that have no value to relocate.
                    let valued: BTreeSet<String> =
                        owner.live_records().into_iter().map(|r| r.0).collect();
                    for key in alphabet() {
                        assert!(
                            owner.state_of(&key) == owner.desired_state(&key)
                                || !valued.contains(&key),
                            "{key} left untransitioned"
                        );
                    }
                    staged.clear();
                    hinted.clear();
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of everything that moves a key's committed
        /// or desired state, under the policies whose decisions a 12-key
        /// script can flip often.
        #[test]
        fn flush_epoch_matches_the_full_scan_oracle(
            which_policy in 0..POLICIES,
            script in prop::collection::vec(do_op(), 1..160),
        ) {
            run_script(which_policy, &script);
        }
    }

    /// The three interleavings the pending set could plausibly get wrong,
    /// spelled out so they run on every policy whatever the generator draws.
    #[test]
    fn directed_scripts_match_the_oracle() {
        use DoOp::*;
        let k = |i: usize| alphabet()[i].clone();
        let scripts: Vec<Vec<DoOp>> = vec![
            // A read-only key with no value stays pending across epochs,
            // then gets its value (and its transition) later.
            vec![
                Read(k(3)),
                Read(k(3)),
                Flush,
                Flush,
                Read(k(3)),
                Flush,
                Preload(k(3), false, 7),
                Read(k(3)),
                Read(k(3)),
                Flush,
            ],
            // Desired flips away and back before the flush: no transition.
            vec![
                Write(k(1), 1),
                Flush,
                Read(k(1)),
                Read(k(1)),
                Write(k(1), 2),
                Flush,
                Read(k(1)),
                Read(k(1)),
                Flush,
                Write(k(1), 3),
                Read(k(1)),
                Read(k(1)),
                Flush,
            ],
            // A hinted key written in the same epoch pays for its value; a
            // hinted key left alone does not; a hinted key that settles NR
            // is evicted once.
            vec![
                Write(k(5), 1),
                Write(k(6), 1),
                Write(k(7), 1),
                Flush,
                Read(k(5)),
                Read(k(5)),
                Hint(k(5)),
                Write(k(5), 2),
                Read(k(5)),
                Read(k(5)),
                Read(k(6)),
                Read(k(6)),
                Hint(k(6)),
                Read(k(7)),
                Read(k(7)),
                Hint(k(7)),
                Write(k(7), 2),
                Flush,
                Write(k(6), 3),
                Hint(k(6)),
                Flush,
            ],
        ];
        for which_policy in 0..POLICIES {
            for script in &scripts {
                run_script(which_policy, script);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The one-record-per-key policies against their multi-map predecessors.
// ---------------------------------------------------------------------

mod policy_differential {
    use std::collections::{HashMap, VecDeque};

    use proptest::prelude::*;

    use grub::core::policy::{AdaptiveK, Memorizing, Memoryless, ReplicationPolicy, SelfTuningK};
    use grub::gas::GasSchedule;
    use grub::merkle::ReplState;

    const NR: ReplState = ReplState::NotReplicated;
    const R: ReplState = ReplState::Replicated;

    /// The policies as they were before each kept one record per key: every
    /// fact in its own `String`-keyed map, decision rules word for word.
    /// Test-only oracles — the live policies must decide exactly like them.
    mod oracle {
        use super::*;

        pub struct OldMemoryless {
            pub k: u64,
            counters: HashMap<String, u64>,
            pub states: HashMap<String, ReplState>,
        }

        impl OldMemoryless {
            pub fn new(k: u64) -> Self {
                OldMemoryless {
                    k,
                    counters: HashMap::new(),
                    states: HashMap::new(),
                }
            }
        }

        impl ReplicationPolicy for OldMemoryless {
            fn seed_state(&mut self, key: &str, state: ReplState) {
                self.states.insert(key.to_owned(), state);
            }

            fn on_write(&mut self, key: &str) -> ReplState {
                self.counters.insert(key.to_owned(), 0);
                self.states.insert(key.to_owned(), NR);
                NR
            }

            fn on_read(&mut self, key: &str) -> ReplState {
                let state = self.states.entry(key.to_owned()).or_insert(NR);
                if *state == R {
                    return R;
                }
                let counter = self.counters.entry(key.to_owned()).or_insert(0);
                if *counter < self.k {
                    *counter += 1;
                }
                if *counter >= self.k {
                    *state = R;
                    self.counters.remove(key);
                    R
                } else {
                    NR
                }
            }

            fn name(&self) -> String {
                format!("GRuB-memoryless (K={})", self.k)
            }
        }

        pub struct OldMemorizing {
            k_prime: f64,
            d: f64,
            reads: HashMap<String, f64>,
            writes: HashMap<String, f64>,
            states: HashMap<String, ReplState>,
        }

        impl OldMemorizing {
            pub fn new(k_prime: f64, d: f64) -> Self {
                OldMemorizing {
                    k_prime,
                    d,
                    reads: HashMap::new(),
                    writes: HashMap::new(),
                    states: HashMap::new(),
                }
            }

            fn check(&mut self, key: &str) -> ReplState {
                let r = *self.reads.get(key).unwrap_or(&0.0);
                let w = *self.writes.get(key).unwrap_or(&0.0);
                let state = self.states.entry(key.to_owned()).or_insert(NR);
                if w * self.k_prime + self.d <= r {
                    *state = R;
                    self.writes.insert(key.to_owned(), 0.0);
                    self.reads.insert(key.to_owned(), self.d);
                } else if w * self.k_prime - self.d >= r {
                    *state = NR;
                    self.reads.insert(key.to_owned(), 0.0);
                    self.writes.insert(key.to_owned(), self.d / self.k_prime);
                }
                *state
            }
        }

        impl ReplicationPolicy for OldMemorizing {
            fn seed_state(&mut self, key: &str, state: ReplState) {
                self.states.insert(key.to_owned(), state);
                if state == R {
                    self.reads.insert(key.to_owned(), self.d);
                }
            }

            fn on_write(&mut self, key: &str) -> ReplState {
                *self.writes.entry(key.to_owned()).or_insert(0.0) += 1.0;
                self.check(key)
            }

            fn on_read(&mut self, key: &str) -> ReplState {
                *self.reads.entry(key.to_owned()).or_insert(0.0) += 1.0;
                self.check(key)
            }

            fn name(&self) -> String {
                format!("GRuB-memorizing (K'={}, D={})", self.k_prime, self.d)
            }
        }

        pub struct OldAdaptiveK {
            dual: bool,
            window: usize,
            threshold: f64,
            history: HashMap<String, Vec<u64>>,
            since_write: HashMap<String, u64>,
            states: HashMap<String, ReplState>,
        }

        impl OldAdaptiveK {
            pub fn with_threshold(dual: bool, window: usize, threshold: f64) -> Self {
                OldAdaptiveK {
                    dual,
                    window: window.max(1),
                    threshold,
                    history: HashMap::new(),
                    since_write: HashMap::new(),
                    states: HashMap::new(),
                }
            }
        }

        impl ReplicationPolicy for OldAdaptiveK {
            fn on_write(&mut self, key: &str) -> ReplState {
                let burst = self.since_write.insert(key.to_owned(), 0).unwrap_or(0);
                let bursts = self.history.entry(key.to_owned()).or_default();
                bursts.push(burst);
                if bursts.len() > self.window {
                    bursts.remove(0);
                }
                let predicted = bursts.iter().sum::<u64>() as f64 / bursts.len() as f64;
                let repeat_says_replicate = predicted >= self.threshold;
                let state = if repeat_says_replicate != self.dual {
                    R
                } else {
                    NR
                };
                self.states.insert(key.to_owned(), state);
                state
            }

            fn on_read(&mut self, key: &str) -> ReplState {
                *self.since_write.entry(key.to_owned()).or_insert(0) += 1;
                *self.states.get(key).unwrap_or(&NR)
            }

            fn name(&self) -> String {
                format!(
                    "GRuB-memorizing (Adaptive {}, w={})",
                    if self.dual { "K2" } else { "K1" },
                    self.window
                )
            }
        }

        pub struct OldSelfTuningK {
            inner: OldMemoryless,
            window: usize,
            retune_every: u64,
            bursts: VecDeque<u64>,
            since_write: HashMap<String, u64>,
            writes_seen: u64,
            deliver_cost: f64,
            replica_cost: f64,
            onchain_read_cost: f64,
            candidates: Vec<u64>,
        }

        impl OldSelfTuningK {
            pub fn new(window: usize, schedule: &GasSchedule) -> Self {
                OldSelfTuningK {
                    inner: OldMemoryless::new(schedule.two_competitive_k().round().max(1.0) as u64),
                    window: window.max(4),
                    retune_every: 8,
                    bursts: VecDeque::new(),
                    since_write: HashMap::new(),
                    writes_seen: 0,
                    deliver_cost: schedule.tx_cost_words(12) as f64,
                    replica_cost: (schedule.storage_insert(1) + schedule.storage_update(1)) as f64,
                    onchain_read_cost: schedule.storage_read(1) as f64,
                    candidates: vec![1, 2, 4, 8, 16, 32],
                }
            }

            fn counterfactual_cost(&self, k: u64) -> f64 {
                self.bursts
                    .iter()
                    .map(|&n| {
                        let mut cost = n.min(k) as f64 * self.deliver_cost;
                        if n >= k {
                            cost += self.replica_cost + (n - k) as f64 * self.onchain_read_cost;
                        }
                        cost
                    })
                    .sum()
            }

            fn retune(&mut self) {
                let best = self
                    .candidates
                    .iter()
                    .copied()
                    .min_by(|a, b| {
                        self.counterfactual_cost(*a)
                            .total_cmp(&self.counterfactual_cost(*b))
                    })
                    .unwrap_or(2);
                if best != self.inner.k {
                    // A fresh threshold: current decisions carried over,
                    // every counter dropped.
                    let mut next = OldMemoryless::new(best);
                    next.states = std::mem::take(&mut self.inner.states);
                    self.inner = next;
                }
            }
        }

        impl ReplicationPolicy for OldSelfTuningK {
            fn seed_state(&mut self, key: &str, state: ReplState) {
                self.inner.seed_state(key, state);
            }

            fn on_write(&mut self, key: &str) -> ReplState {
                let burst = self.since_write.insert(key.to_owned(), 0).unwrap_or(0);
                self.bursts.push_back(burst);
                while self.bursts.len() > self.window {
                    self.bursts.pop_front();
                }
                self.writes_seen += 1;
                if self.writes_seen.is_multiple_of(self.retune_every) && !self.bursts.is_empty() {
                    self.retune();
                }
                self.inner.on_write(key)
            }

            fn on_read(&mut self, key: &str) -> ReplState {
                *self.since_write.entry(key.to_owned()).or_insert(0) += 1;
                self.inner.on_read(key)
            }

            fn name(&self) -> String {
                format!("GRuB-self-tuning (K={}, w={})", self.inner.k, self.window)
            }
        }
    }

    type Pair = (Box<dyn ReplicationPolicy>, Box<dyn ReplicationPolicy>);

    /// The live policy and its oracle, built from the same parameters.
    fn pair(which: u8, param: u8) -> Pair {
        let schedule = GasSchedule::default();
        let threshold = schedule.two_competitive_k();
        match which % 4 {
            0 => {
                let k = 1 + u64::from(param % 4);
                (
                    Box::new(Memoryless::new(k)),
                    Box::new(oracle::OldMemoryless::new(k)),
                )
            }
            1 => {
                let (k_prime, d) = (1.0 + f64::from(param % 3), f64::from(param % 4));
                (
                    Box::new(Memorizing::new(k_prime, d)),
                    Box::new(oracle::OldMemorizing::new(k_prime, d)),
                )
            }
            2 => {
                let (dual, window) = (param % 2 == 1, 1 + usize::from(param % 5));
                (
                    Box::new(AdaptiveK::with_threshold(dual, window, threshold)),
                    Box::new(oracle::OldAdaptiveK::with_threshold(
                        dual, window, threshold,
                    )),
                )
            }
            _ => {
                let window = 4 + usize::from(param % 13);
                (
                    Box::new(SelfTuningK::new(window, &schedule)),
                    Box::new(oracle::OldSelfTuningK::new(window, &schedule)),
                )
            }
        }
    }

    #[derive(Debug, Clone)]
    enum PolicyOp {
        Seed(String, bool),
        Read(String),
        Write(String),
    }

    fn alphabet() -> Vec<String> {
        (0..12u8).map(|i| format!("key{i:02}")).collect()
    }

    /// A stretch of traffic with its own read share (`reads` in 0..=9 out of
    /// 10), so one script moves between write-heavy and read-heavy phases —
    /// that is what makes the self-tuner change its mind.
    fn phase() -> impl Strategy<Value = Vec<PolicyOp>> {
        let key = prop::sample::select(alphabet());
        (
            0..10u8,
            prop::collection::vec((key, 0..10u8, any::<bool>()), 8..96),
        )
            .prop_map(|(reads, draws)| {
                draws
                    .into_iter()
                    .map(|(key, draw, flag)| match draw {
                        // Seeds are the rare event they are in the system.
                        0 if flag => PolicyOp::Seed(key, reads % 2 == 0),
                        draw if draw < reads => PolicyOp::Read(key),
                        _ => PolicyOp::Write(key),
                    })
                    .collect()
            })
    }

    /// Feeds `script` to both policies; returns how many times the live
    /// policy's name (which prints the live K) changed along the way.
    fn run_script(which: u8, param: u8, script: &[PolicyOp]) -> usize {
        let (mut live, mut old) = pair(which, param);
        let mut renames = 0;
        let mut name = live.name();
        for (i, op) in script.iter().enumerate() {
            match op {
                PolicyOp::Seed(key, replicated) => {
                    let state = if *replicated { R } else { NR };
                    live.seed_state(key, state);
                    old.seed_state(key, state);
                }
                PolicyOp::Read(key) => {
                    assert_eq!(live.on_read(key), old.on_read(key), "op {i}: {op:?}");
                }
                PolicyOp::Write(key) => {
                    assert_eq!(live.on_write(key), old.on_write(key), "op {i}: {op:?}");
                }
            }
            assert_eq!(live.name(), old.name(), "after op {i}: {op:?}");
            if live.name() != name {
                name = live.name();
                renames += 1;
            }
        }
        renames
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Equal decision sequences and equal names on random multi-phase
        /// scripts over a 12-key alphabet.
        #[test]
        fn policies_decide_like_their_multi_map_oracles(
            which in 0..4u8,
            param in any::<u8>(),
            phases in prop::collection::vec(phase(), 1..8),
        ) {
            run_script(which, param, &phases.concat());
        }
    }

    /// A script built to swing the self-tuner between K = 2 (1-read
    /// bursts), 4 (2-read bursts) and 1 (long bursts, write-only), so the
    /// in-place retune (keep every decision, restart every counter) is
    /// compared with the build-a-fresh-`Memoryless` original across several
    /// changes of K. A bystander key, read every fourth cycle and written
    /// every twelfth, sits mid-count when retunes land.
    #[test]
    fn self_tuner_retunes_in_place_like_the_rebuilt_original() {
        let keys = alphabet();
        let (bystander, keys) = keys.split_last().expect("twelve keys");
        let mut script = Vec::new();
        for round in 0..2 {
            let phases = [
                (1usize, 50usize),
                (2, 50),
                (1, 50),
                (24, 48),
                (0, 32),
                (2, 50),
            ];
            for (burst, cycles) in phases {
                for cycle in 0..cycles {
                    let key = &keys[(cycle + round) % keys.len()];
                    script.push(PolicyOp::Write(key.clone()));
                    script.extend(std::iter::repeat_n(PolicyOp::Read(key.clone()), burst));
                    match cycle % 12 {
                        11 => script.push(PolicyOp::Write(bystander.clone())),
                        c if c % 4 == 0 => script.push(PolicyOp::Read(bystander.clone())),
                        _ => {}
                    }
                }
            }
            script.push(PolicyOp::Seed(keys[round].clone(), true));
        }
        for window in [0u8, 4, 12] {
            let renames = run_script(3, window, &script);
            assert!(renames >= 6, "K changed only {renames} times");
        }
    }
}
