//! Criterion micro-benchmarks for the substrates: hashing, the Merkle ADS,
//! the LSM store, the chain's block sealing, the decision policies, and an
//! end-to-end epoch.

use std::rc::Rc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use grub_chain::contract::{CallContext, Contract, VmError};
use grub_chain::{Address, Blockchain, ChainConfig, Transaction};
use grub_core::owner::DataOwner;
use grub_core::policy::PolicyKind;
use grub_core::policy::{Memoryless, ReplicationPolicy};
use grub_core::system::{DriverIdentity, EpochDriver, GrubSystem, SystemConfig};
use grub_core::wire::range_proof_len;
use grub_crypto::{compress_soft, sha256};
use grub_gas::Layer;
use grub_merkle::{record_value_hash, MerkleKv, ProofKey, RangeProof, ReplState, TreeOp};
use grub_store::crc::crc32;
use grub_store::{Db, Options};
use grub_workload::ratio::RatioWorkload;

fn bench_crypto(c: &mut Criterion) {
    let data_1k = vec![0xabu8; 1024];
    c.bench_function("sha256/1KiB", |b| {
        b.iter(|| sha256(std::hint::black_box(&data_1k)))
    });
    // One Merkle inner hash: a domain byte and two 32-byte children, two
    // compressions through whichever kernel the CPU picks.
    let inner = [0x5au8; 65];
    c.bench_function("sha256/65B", |b| {
        b.iter(|| sha256(std::hint::black_box(&inner)))
    });
    // One block through the portable kernel, the fallback a CPU without
    // the SHA extensions runs for every block.
    let block = [0xabu8; 64];
    let mut state = [0u32; 8];
    c.bench_function("sha256/compress-soft", |b| {
        b.iter(|| compress_soft(&mut state, std::hint::black_box(&block)))
    });
}

/// The `i`-th of 16 keys an epoch-shaped bench touches in `round`: spread
/// over the 65,536-key space, different every round.
fn epoch_key(round: u32, i: u32) -> u32 {
    round.wrapping_mul(7919).wrapping_add(i * 4099) % 65_536
}

fn bench_merkle(c: &mut Criterion) {
    let records: Vec<(ProofKey, _)> = (0..65_536u32)
        .map(|i| {
            (
                ProofKey::new(ReplState::NotReplicated, format!("k{i:08}").into_bytes()),
                record_value_hash(&i.to_le_bytes()),
            )
        })
        .collect();
    // How a dataset gets into a tree: one sorted batch into an empty tree,
    // built balanced with every node hashed once.
    c.bench_function("merkle/bulk-load-64k", |b| {
        b.iter_batched(
            || records.clone(),
            |records| {
                let mut tree = MerkleKv::new();
                tree.insert_batch(records);
                tree
            },
            BatchSize::LargeInput,
        )
    });
    let mut tree = MerkleKv::new();
    tree.insert_batch(records);
    let target = ProofKey::new(ReplState::NotReplicated, b"k00032000".to_vec());
    // The point form the SP serves: the one-key range [target, target].
    c.bench_function("merkle/prove-64k", |b| {
        b.iter(|| tree.prove_range(std::hint::black_box(&target), &target))
    });
    let proof = tree.prove_range(&target, &target);
    let root = tree.root();
    let vhash = record_value_hash(&32000u32.to_le_bytes());
    c.bench_function("merkle/verify-64k", |b| {
        b.iter(|| proof.verify(std::hint::black_box(&root), &target, &target))
    });
    // A feed's round of delivers: 14 keys (the `ycsb_b_64k` mean per
    // round) spread over the tree, their point proofs merged into one
    // shared proof and verified in one pass, against 14 separate proofs.
    let round: Vec<ProofKey> = (0..14u32)
        .map(|i| {
            ProofKey::new(
                ReplState::NotReplicated,
                format!("k{:08}", epoch_key(1, i)).into_bytes(),
            )
        })
        .collect();
    let points: Vec<RangeProof> = round.iter().map(|k| tree.prove_range(k, k)).collect();
    let union = |points: Vec<RangeProof>| {
        let mut points = points.into_iter();
        let mut shared = points.next().expect("14 proofs");
        for point in points {
            shared.union_with(point).expect("one tree");
        }
        shared
    };
    c.bench_function("merkle/union-14@64k", |b| {
        b.iter_batched(|| points.clone(), union, BatchSize::SmallInput)
    });
    let shared = union(points.clone());
    let queries: Vec<(&ProofKey, &ProofKey)> = round.iter().map(|k| (k, k)).collect();
    c.bench_function("merkle/verify-shared-14@64k", |b| {
        b.iter(|| shared.verify_queries(std::hint::black_box(&root), &queries))
    });
    println!(
        "merkle/shared-14@64k: {} B, {} hashes (14 point proofs: {} B, {} hashes)",
        range_proof_len(&shared),
        shared.hash_count(),
        points.iter().map(range_proof_len).sum::<usize>(),
        points.iter().map(RangeProof::hash_count).sum::<usize>(),
    );
    c.bench_function("merkle/insert-64k", |b| {
        b.iter_batched(
            || tree.clone(),
            |mut t| {
                t.insert(
                    ProofKey::new(ReplState::NotReplicated, b"k00032000x".to_vec()),
                    vhash,
                )
            },
            BatchSize::LargeInput,
        )
    });
    // The epoch shape, as opposed to the cold single insert above: one
    // deferred-hash batch of 16 in-place updates spread over a warm tree.
    let mut round = 0u32;
    c.bench_function("merkle/apply_batch-16upd@64k", |b| {
        b.iter_batched(
            || {
                round = round.wrapping_add(1);
                (0..16u32)
                    .map(|i| {
                        TreeOp::Insert(
                            ProofKey::new(
                                ReplState::NotReplicated,
                                format!("k{:08}", epoch_key(round, i)).into_bytes(),
                            ),
                            record_value_hash(&round.to_le_bytes()),
                        )
                    })
                    .collect::<Vec<_>>()
            },
            |ops| tree.apply_batch(ops),
            BatchSize::SmallInput,
        )
    });
    // The arena's shape paths under the DO's own traffic: 16 NR→R
    // relocations a round (tombstone, then graft into the growing R group),
    // so rounds push leaves and inner nodes, set off scapegoat rebuilds into
    // reused slots, and grow the vectors past the bulk load's exact fit.
    let mut churn = tree.clone();
    let mut round = 0u32;
    c.bench_function("merkle/relocate-churn@64k", |b| {
        b.iter_batched(
            || {
                round = round.wrapping_add(1);
                (0..16u32)
                    .flat_map(|i| {
                        let key = format!("k{:08}", epoch_key(round, i)).into_bytes();
                        [
                            TreeOp::Invalidate(ProofKey::new(
                                ReplState::NotReplicated,
                                key.clone(),
                            )),
                            TreeOp::Insert(
                                ProofKey::new(ReplState::Replicated, key),
                                record_value_hash(&round.to_le_bytes()),
                            ),
                        ]
                    })
                    .collect::<Vec<_>>()
            },
            |ops| churn.apply_batch(ops),
            BatchSize::SmallInput,
        )
    });
    // The tombstone compaction: one invalidation past the trigger
    // (tombstones > live / 2) rebuilds the arena in place — 43,690 live
    // leaves re-sorted and rehashed, every inner node rejoined.
    let mut doomed = tree.clone();
    let mut victims: Vec<ProofKey> = (0..21_846u32)
        .map(|i| ProofKey::new(ReplState::NotReplicated, format!("k{:08}", i * 3)))
        .collect();
    let last = victims.pop().expect("21,846 victims");
    doomed.apply_batch(victims.into_iter().map(TreeOp::Invalidate).collect());
    assert_eq!(doomed.tombstone_count(), 21_845, "one short of the trigger");
    c.bench_function("merkle/compact-64k", |b| {
        b.iter_batched_ref(
            || doomed.clone(),
            |tree| tree.apply_batch(vec![TreeOp::Invalidate(last.clone())]),
            BatchSize::LargeInput,
        )
    });
}

/// 65,536 key-ordered records of `len` bytes: the benchmark's dataset shape.
fn dataset_64k(len: usize) -> Vec<(String, Vec<u8>)> {
    (0..65_536u32)
        .map(|i| (format!("k{i:08}"), vec![0xabu8; len]))
        .collect()
}

/// Closing an epoch on a large, quiet feed: 16 writes against 65,536
/// preloaded records. What it costs must follow the 16, not the 65,536.
fn bench_owner(c: &mut Criterion) {
    let records = dataset_64k(64);
    let mut owner = DataOwner::new(Address::derive("DO"), Box::new(Memoryless::new(2)));
    owner.preload(&records, ReplState::NotReplicated);
    let mut round = 0u32;
    c.bench_function("owner/flush_epoch-16w@64k-preloaded", |b| {
        b.iter(|| {
            round = round.wrapping_add(1);
            for i in 0..16u32 {
                let key = &records[epoch_key(round, i) as usize].0;
                owner.observe_write(key, round.to_le_bytes().to_vec());
            }
            owner.flush_epoch()
        })
    });
}

/// Stores its input under the input's first byte.
struct Slots;

impl Contract for Slots {
    fn call(&self, ctx: &mut CallContext<'_>, _: &str, input: &[u8]) -> Result<Vec<u8>, VmError> {
        ctx.sstore(&input[..1], input);
        Ok(Vec::new())
    }
}

/// A chain holding the fleet's on-chain shape: 64 deployed contracts with
/// four 32-byte slots each, block bodies pruned as the benchmark prunes them.
fn chain_64c(config: ChainConfig) -> (Blockchain, Vec<Address>) {
    let mut chain = Blockchain::with_config(ChainConfig {
        retain_blocks: Some(256),
        ..config
    });
    let contracts: Vec<Address> = (0..64)
        .map(|i| Address::derive(&format!("slots-{i}")))
        .collect();
    for &contract in &contracts {
        chain.deploy(contract, Rc::new(Slots), Layer::Feed);
        for slot in 0..4u8 {
            chain.submit(slot_write(contract, slot));
        }
    }
    chain.produce_block();
    (chain, contracts)
}

fn slot_write(contract: Address, slot: u8) -> Transaction {
    Transaction::new(
        Address::derive("bench"),
        contract,
        "set",
        vec![slot; 32],
        Layer::Feed,
    )
}

/// What reorg mode charges per sealed block. An empty block (the filler
/// `await_confirmations` mines) must cost about what it costs with reorgs
/// off, and a whole fork cycle must follow the few slots it rewrites — not
/// the 64 contracts' state.
fn bench_chain(c: &mut Criterion) {
    // A fork period no run reaches: the undo window is kept, no fork fires.
    let (mut quiet, _) = chain_64c(ChainConfig::default().reorg(7, u64::MAX, 2));
    c.bench_function("chain/seal-empty-block@reorg-64c", |b| {
        b.iter(|| quiet.produce_block().number)
    });
    let (mut plain, _) = chain_64c(ChainConfig::default());
    c.bench_function("chain/seal-empty-block@no-reorg", |b| {
        b.iter(|| plain.produce_block().number)
    });
    // Period 1: every block forks — an abandoned fork block, a rollback of
    // up to two canonical blocks, their re-commit, and the canonical seal.
    let (mut forking, contracts) = chain_64c(ChainConfig::default().reorg(7, 1, 2));
    let mut round = 0usize;
    c.bench_function("chain/reorg-cycle-depth2@64c", |b| {
        b.iter(|| {
            round += 1;
            forking.submit(slot_write(contracts[round % 64], (round % 4) as u8));
            forking.produce_block().number
        })
    });
}

fn bench_store(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("grub-bench-db-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut db = Db::open(&dir, Options::default()).expect("open");
    for i in 0..10_000u32 {
        db.put(format!("key{i:08}").into_bytes(), vec![0u8; 128])
            .expect("put");
    }
    db.flush().expect("flush");
    c.bench_function("store/get-10k", |b| {
        b.iter(|| db.get(std::hint::black_box(b"key00005000")).expect("get"))
    });
    c.bench_function("store/scan-100", |b| {
        b.iter(|| {
            db.scan(Some(b"key00005000"), Some(b"key00005100"))
                .expect("scan")
        })
    });
    drop(db);
    // `store/get-10k` hits the block cache on every iteration after the
    // first; the same store with the cache off times the miss: the block
    // read, its CRC and the in-place lookup.
    let uncached = Options {
        block_cache_capacity: 0,
        ..Options::default()
    };
    let db = Db::open(&dir, uncached).expect("reopen");
    c.bench_function("store/get-10k-miss", |b| {
        b.iter(|| db.get(std::hint::black_box(b"key00005000")).expect("get"))
    });
    drop(db);
    // The checksum over one default-sized data block.
    let block = vec![0xabu8; 4096];
    c.bench_function("store/crc32-4KiB", |b| {
        b.iter(|| crc32(std::hint::black_box(&block)))
    });
    // Loading 65,536 x 256 B sorted records into a fresh store: laid down
    // as L1 tables, against the WAL → memtable → flush → compaction they
    // cost one `put` at a time.
    let records = dataset_64k(256);
    let fresh = || {
        std::fs::remove_dir_all(&dir).ok();
        Db::open(&dir, Options::default()).expect("open")
    };
    c.bench_function("store/ingest-sorted-64k", |b| {
        b.iter_batched(
            fresh,
            |mut db| {
                db.ingest_sorted(
                    records
                        .iter()
                        .map(|(k, v)| (k.as_bytes().to_vec(), v.as_slice())),
                )
                .expect("ingest");
                db
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("store/put-64k", |b| {
        b.iter_batched(
            fresh,
            |mut db| {
                for (key, value) in &records {
                    db.put(key.as_bytes().to_vec(), value.clone()).expect("put");
                }
                db
            },
            BatchSize::LargeInput,
        )
    });
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_policy(c: &mut Criterion) {
    c.bench_function("policy/memoryless-1k-ops", |b| {
        b.iter_batched(
            || Memoryless::new(2),
            |mut p| {
                for i in 0..1000u32 {
                    let key = format!("k{}", i % 64);
                    if i % 3 == 0 {
                        p.on_write(&key);
                    } else {
                        p.on_read(&key);
                    }
                }
            },
            BatchSize::SmallInput,
        )
    });
    // The same mix at the benchmark's key count: every key already known
    // (the steady state), keys prebuilt, 1k ops striding the whole map.
    let keys: Vec<String> = (0..65_536u32).map(|i| format!("user{i:08}")).collect();
    let mut warm = Memoryless::new(2);
    for key in &keys {
        warm.on_write(key);
    }
    let mut at = 0usize;
    c.bench_function("policy/memoryless-1k-ops@64k-keys", |b| {
        b.iter(|| {
            for i in 0..1000u32 {
                at = (at + 7919) % keys.len();
                if i % 3 == 0 {
                    warm.on_write(&keys[at]);
                } else {
                    warm.on_read(&keys[at]);
                }
            }
        })
    });
}

fn bench_system(c: &mut Criterion) {
    // Set-up of the benchmark's YCSB feeds: contracts, DO, SP and a sorted
    // 65,536 x 256 B preload, end to end, as the engine deploys them — the
    // DO takes the dataset, so each sample's copy is built untimed.
    let preloaded = SystemConfig::new(PolicyKind::Memoryless { k: 2 }).preload(dataset_64k(256));
    c.bench_function("deploy/preload-64k", |b| {
        b.iter_batched(
            || preloaded.clone(),
            |config| {
                let mut chain = Blockchain::with_config(ChainConfig::default());
                EpochDriver::deploy_owned(&mut chain, config, &DriverIdentity::tenant("bench"))
                    .expect("deploy")
            },
            BatchSize::LargeInput,
        )
    });
    let workload = RatioWorkload::new("k", 4.0);
    c.bench_function("system/ratio4-160ops", |b| {
        b.iter(|| {
            GrubSystem::run(
                &mut std::hint::black_box(&workload).source(32),
                &SystemConfig::new(PolicyKind::Memoryless { k: 2 }),
            )
            .expect("run")
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_crypto, bench_merkle, bench_owner, bench_chain, bench_store, bench_policy, bench_system
}
criterion_main!(benches);
