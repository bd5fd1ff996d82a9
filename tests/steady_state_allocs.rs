//! The steady-state op path does not allocate, and the Merkle arena, the
//! data owner and the policies cost what they say they cost.
//!
//! A key's per-policy record and the DO's per-key entry are created the
//! first time the key is seen; every later observation finds them with one
//! lookup and copies nothing. A loaded `MerkleKv` is two vectors plus the
//! keys it was handed, and `MerkleKv::heap_bytes` reports exactly that. A
//! preload moves into the DO record by record, and `DataOwner::heap_bytes`
//! and `ReplicationPolicy::heap_bytes` report what is held.
//! This binary carries its own counting `#[global_allocator]` (the only
//! `unsafe` in the tree, and the reason the test lives here rather than in a
//! library crate) and asserts the counts and live bytes. Counting is per
//! thread, so the harness's own threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grub::chain::Address;
use grub::core::owner::DataOwner;
use grub::core::policy::{Memoryless, PolicyKind};
use grub::gas::GasSchedule;
use grub::merkle::{record_value_hash, MerkleKv, ProofKey, ReplState, TreeOp};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested minus bytes released on this thread (signed: a
    /// thread may free what another allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count_one(grown: i64) {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    count_bytes(grown);
}

fn count_bytes(delta: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

/// Bytes allocated and still live on this thread.
fn live_bytes() -> i64 {
    LIVE.get()
}

const KEYS: usize = 4_096;
const OPS: usize = 20_000;
const WINDOW: usize = 4;

fn keys() -> Vec<String> {
    (0..KEYS).map(|i| format!("user{i:08}")).collect()
}

#[test]
fn stateful_policies_decide_without_allocating() {
    let schedule = GasSchedule::default();
    let kinds = [
        PolicyKind::Memoryless { k: 2 },
        PolicyKind::Memorizing {
            k_prime: 2.0,
            d: 1.0,
        },
        PolicyKind::Adaptive {
            dual: true,
            window: WINDOW,
        },
        PolicyKind::SelfTuning { window: 16 },
        PolicyKind::FeeAware {
            threshold_permille: 1_500,
            inner: Box::new(PolicyKind::Memoryless { k: 2 }),
        },
    ];
    let keys = keys();
    for kind in kinds {
        let mut policy = kind.build(&schedule);
        // Warm-up: every key seen, and every per-key structure at its steady
        // size (`AdaptiveK` keeps `window` bursts and holds `window + 1`
        // while trimming).
        for round in 0..=WINDOW {
            for key in &keys {
                policy.on_write(key);
                for _ in 0..round % 3 {
                    policy.on_read(key);
                }
            }
        }
        let reads = allocs_during(|| {
            for key in keys.iter().cycle().take(OPS) {
                policy.on_read(key);
            }
        });
        assert_eq!(reads, 0, "{kind:?}: allocations in {OPS} on_read calls");
        let writes = allocs_during(|| {
            for key in keys.iter().cycle().take(OPS) {
                policy.on_write(key);
            }
        });
        assert_eq!(writes, 0, "{kind:?}: allocations in {OPS} on_write calls");
    }
}

#[test]
fn data_owner_allocates_only_what_it_keeps() {
    let keys = keys();
    let mut owner = DataOwner::new(Address::derive("DO"), Box::new(Memoryless::new(2)));
    // Settle every key as a replica: write, flush, read K times, flush.
    for key in &keys {
        owner.observe_write(key, vec![7; 32]);
    }
    owner.flush_epoch();
    for key in &keys {
        owner.observe_read(key);
        owner.observe_read(key);
    }
    assert_eq!(owner.flush_epoch().replications, KEYS);

    // Replica hits: the policy says R, the entry says R, nothing to queue.
    let reads = allocs_during(|| {
        for key in keys.iter().cycle().take(OPS) {
            assert_eq!(owner.observe_read(key), ReplState::Replicated);
        }
    });
    assert_eq!(reads, 0, "allocations in {OPS} settled observe_read calls");

    // The first write of a replicated key flips its decision: the DO keeps
    // the staged key and one `pending` entry (a key copy, plus a B-tree node
    // every few keys). Values are built outside the measured region — the
    // caller hands them over. `GROWTH` covers the staging vector doubling.
    const GROWTH: u64 = 16;
    let mut values: Vec<Vec<u8>> = (0..2 * KEYS).map(|_| vec![9; 32]).collect();
    let first = allocs_during(|| {
        for (key, value) in keys.iter().zip(values.drain(..KEYS)) {
            owner.observe_write(key, value);
        }
    });
    let n = KEYS as u64;
    assert!(
        (2 * n..=2 * n + n / 4 + GROWTH).contains(&first),
        "first writes: {first} allocations for {n} keys"
    );
    // A second write in the same epoch changes no decision: the staged key
    // is all there is to keep.
    let second = allocs_during(|| {
        for (key, value) in keys.iter().zip(values.drain(..)) {
            owner.observe_write(key, value);
        }
    });
    assert!(
        (n..=n + GROWTH).contains(&second),
        "repeat writes: {second} allocations for {n} keys"
    );
    assert_eq!(owner.flush_epoch().evictions, KEYS);
}

/// The YCSB benchmark's tree: 2^16 sorted NR keys of 16 bytes.
const TREE: u32 = 1 << 16;

fn sorted_load() -> Vec<TreeOp> {
    (0..TREE)
        .map(|i| {
            TreeOp::Insert(
                ProofKey::new(ReplState::NotReplicated, format!("user{i:012}")),
                record_value_hash(&i.to_le_bytes()),
            )
        })
        .collect()
}

#[test]
fn a_sorted_load_allocates_the_arena_and_nothing_else() {
    let start = live_bytes();
    let ops = sorted_load();
    let mut tree = MerkleKv::new();
    // Each op's key moves into its leaf: what is allocated is the leaf and
    // inner-node vectors, each once, at exact capacity.
    let load = allocs_during(|| {
        tree.apply_batch(ops);
    });
    assert!(load <= 8, "{load} allocations for a 2^16 sorted load");
    // What the tree holds is what it says it holds: the two vectors plus
    // the keys (the op vector is gone).
    let held = (live_bytes() - start) as f64;
    let reported = tree.heap_bytes() as f64;
    assert!(
        (reported - held).abs() <= 0.05 * held,
        "heap_bytes {reported} vs {held} live bytes"
    );
    // The arena's price for 2^16 leaves: 104 B a leaf, 56 B an inner
    // node, 16 B a key — 11.0 MiB.
    assert!(
        held < 12.0 * (1 << 20) as f64,
        "{held} bytes for 2^16 leaves"
    );
}

#[test]
fn a_not_replicated_load_moves_the_dataset_into_the_data_owner() {
    let start = live_bytes();
    // The YCSB benchmark's dataset: 2^16 owned records of 256 B.
    let records: Vec<(String, Vec<u8>)> = (0..TREE)
        .map(|i| (format!("user{i:012}"), vec![i as u8; 256]))
        .collect();
    let n = u64::from(TREE);
    let mut owner = DataOwner::new(Address::derive("DO"), Box::new(Memoryless::new(2)));
    // Each key and value moves into its entry. What the load allocates is
    // one leaf key per record, the op vector, the arena's two vectors, the
    // digest-only seed chunk and the entry table, sized once.
    let load = allocs_during(|| {
        let seed = owner.bulk_load(records, ReplState::NotReplicated);
        assert_eq!(seed.len(), 1, "an NR load seeds the digest alone");
    });
    assert!(load <= n + 8, "{load} allocations to load {n} records");
    // Seeding a key NR is a no-op: the policy holds nothing.
    assert_eq!(owner.policy_heap_bytes(), 0);
    // What the DO holds is what it says it holds: the records (the caller's
    // vector is gone), the entry table and the mirror.
    let held = (live_bytes() - start) as f64;
    let reported = owner.heap_bytes() as f64;
    assert!(
        (reported - held).abs() <= 0.05 * held,
        "heap_bytes {reported} vs {held} live bytes"
    );
}

#[test]
fn policy_heap_bytes_matches_the_live_bytes() {
    let schedule = GasSchedule::default();
    let keys = keys();
    for kind in [
        PolicyKind::Memoryless { k: 2 },
        PolicyKind::Memorizing {
            k_prime: 2.0,
            d: 1.0,
        },
        PolicyKind::Adaptive {
            dual: true,
            window: WINDOW,
        },
        PolicyKind::SelfTuning { window: 16 },
        PolicyKind::FeeAware {
            threshold_permille: 1_500,
            inner: Box::new(PolicyKind::Memoryless { k: 2 }),
        },
    ] {
        let start = live_bytes();
        let mut policy = kind.build(&schedule);
        // An NR seed stores nothing; the first operations create the state.
        for key in &keys {
            policy.seed_state(key, ReplState::NotReplicated);
        }
        assert_eq!(policy.heap_bytes(), 0, "{kind:?} after NR seeds");
        for key in &keys {
            policy.on_write(key);
            policy.on_read(key);
            policy.on_write(key);
        }
        let held = (live_bytes() - start) as f64;
        let reported = policy.heap_bytes() as f64;
        assert!(
            (reported - held).abs() <= 0.05 * held,
            "{kind:?}: heap_bytes {reported} vs {held} live bytes"
        );
    }
}

#[test]
fn grafts_allocate_only_amortised_vector_growth() {
    let mut tree = MerkleKv::new();
    tree.apply_batch(sorted_load());
    // 1,000 fresh keys, one between every 65th pair of loaded ones: each a
    // graft (a leaf and an inner node pushed) and nothing else. Keys are
    // the caller's, built outside the measured region.
    let grafts: Vec<ProofKey> = (0..1_000u32)
        .map(|i| ProofKey::new(ReplState::NotReplicated, format!("user{:012}x", i * 65)))
        .collect();
    let value = record_value_hash(b"graft");
    let allocs = allocs_during(|| {
        for key in grafts {
            tree.insert(key, value);
        }
    });
    // The bulk load left both vectors full: the first graft grows each
    // once, and the doubled capacity absorbs the other 999.
    assert!(allocs <= 4, "{allocs} allocations for 1,000 grafts");
    assert_eq!(tree.len(), TREE as usize + 1_000);
}
