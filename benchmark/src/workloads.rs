//! The five benchmark workloads.
//!
//! Each workload is a fixed amount of work — a fleet shape, a dataset and
//! an operation budget — built from a seed. A *repetition* builds the plan,
//! deploys it (`setup_s`) and runs it to completion once; the harness
//! repeats that for as long as `--seconds` allows and reports medians. The
//! seed reaches only the workload generators (value bytes everywhere, key
//! choice and read/write draws in YCSB); the program under test receives
//! nothing but the generated operations.

use grub_chain::ChainConfig;
use grub_core::policy::PolicyKind;
use grub_core::system::SystemConfig;
use grub_engine::specs::{demo_policies, DEMO_RATIOS};
use grub_engine::{EngineConfig, FeedSpec};
use grub_workload::multiplex::Multiplex;
use grub_workload::ratio::{MultiKeyRatio, RatioWorkload};
use grub_workload::ycsb::{preload, YcsbKind, YcsbRunner};
use grub_workload::OpSource;

/// Operations per epoch, everywhere (the paper's setting).
pub const EPOCH_OPS: usize = 32;

/// The paper's YCSB dataset: 2^16 records of 256 bytes (~17 MiB of user
/// data against a 4 MiB block cache and a 1 MiB memtable).
pub const YCSB_RECORDS: u64 = 1 << 16;
pub const YCSB_RECORD_LEN: usize = 256;

/// SP store knobs, pinned so neither `Options::default`'s environment read
/// nor a future default change can alter what is measured: memtable 1 MiB,
/// 4 KiB blocks, 10 bloom bits per key, 1024-block (4 MiB) block cache.
pub fn store_options() -> grub_store::Options {
    grub_store::Options {
        memtable_bytes: 1 << 20,
        l0_compaction_trigger: 4,
        block_bytes: 4096,
        bits_per_key: 10,
        sync_writes: false,
        block_cache_capacity: 1024,
    }
}

/// One workload: its name, the one-line reason it exists (mirrored in
/// `BENCHMARK.json`), its operation budget per repetition and its builder.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Operation budget of one repetition at full scale (`--quick` divides
    /// it by 20). Sized so a repetition runs about 1 s on the reference
    /// sandbox (YCSB 5–6 s, set-up included): short, so that a 20 s
    /// invocation takes its medians over many repetitions. Dataset sizes and
    /// fleet shapes never scale.
    pub ops: usize,
    build: fn(seed: u64, ops: usize) -> Plan,
}

/// A built workload, ready for `FeedEngine::new`.
pub struct Plan {
    pub config: EngineConfig,
    pub specs: Vec<FeedSpec>,
}

impl Workload {
    pub fn plan(&self, seed: u64, scale_div: usize) -> Plan {
        (self.build)(seed, (self.ops / scale_div.max(1)).max(EPOCH_OPS))
    }
}

impl Plan {
    /// How many operations the plan's sources will emit, counted by
    /// draining a clone of each (the sources themselves stay untouched).
    pub fn ops_generated(&self) -> usize {
        self.specs
            .iter()
            .map(|spec| {
                let mut fork = spec.source.clone_box();
                let mut n = 0;
                while fork.next_op().is_some() {
                    n += 1;
                }
                n
            })
            .sum()
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "stream_hot3",
        why: "2 feeds x 3 hot keys: chain execution, section encoding, round overhead, policy and WAL appends do the work; DO key-scan, Merkle-depth, cache and compaction changes must show no change here",
        ops: 240_000,
        build: stream_hot3,
    },
    Workload {
        name: "ycsb_a_64k",
        why: "YCSB-A 50/50 on 65,536 x 256 B preloaded records, larger than the 4 MiB cache: DO flush_epoch, SP sync, LSM put/flush/compaction and Merkle rehash dominate",
        ops: 8_000,
        build: ycsb_a_64k,
    },
    Workload {
        name: "ycsb_b_64k",
        why: "YCSB-B 95/5 on the same dataset: SP get (bloom, cache, block decode), proofs, on-chain verification and read-driven replication; a write-path gain that costs reads shows here",
        ops: 8_000,
        build: ycsb_b_64k,
    },
    Workload {
        name: "fleet_64x8",
        why: "64 one-key zipfian-skewed feeds on 8 shards with full batching: scheduler, ShardRouter batchUpdate/batchDeliver sections and per-round bookkeeping dominate",
        ops: 320_000,
        build: fleet_64x8,
    },
    Workload {
        name: "fleet_64x8_realism",
        why: "the same fleet with reorgs, depth-3 confirmation, inclusion latency and a bounded mempool: the chain's non-legacy mining path (snapshots, rollback, resubmission)",
        ops: 128_000,
        build: fleet_64x8_realism,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn feed_config(policy: PolicyKind) -> SystemConfig {
    SystemConfig::new(policy)
        .epoch_ops(EPOCH_OPS)
        .store_options(store_options())
}

fn engine_config(shards: usize, chain: ChainConfig) -> EngineConfig {
    let mut config = EngineConfig::new(shards);
    config.chain = chain;
    // Old block bodies age out so memory does not grow with run length; the
    // per-epoch monitors keep their cursors well inside the window.
    config.chain.retain_blocks = Some(256);
    config
}

/// The `stream` experiment's headline fleet: two feeds, each a three-key
/// ratio mix (read-heavy, write-heavy, balanced), one under Memoryless K=2
/// and one under SelfTuning(16).
fn stream_hot3(seed: u64, ops: usize) -> Plan {
    let source = |lane: u64| -> Box<dyn OpSource> {
        let mix = MultiKeyRatio::new(vec![
            ("stream-hot".into(), 4.0),
            ("stream-cold".into(), 0.125),
            ("stream-warm".into(), 1.0),
        ])
        .seed(seed.wrapping_mul(1_000_003).wrapping_add(lane));
        // One rotation of the three lanes is (1+4) + (8+1) + (1+1) = 16 ops.
        Box::new(mix.source(ops / 2 / 16))
    };
    Plan {
        config: engine_config(2, ChainConfig::default()),
        specs: vec![
            FeedSpec::from_source(
                "stream-a",
                feed_config(PolicyKind::Memoryless { k: 2 }),
                source(1),
            ),
            FeedSpec::from_source(
                "stream-b",
                feed_config(PolicyKind::SelfTuning { window: 16 }),
                source(2),
            ),
        ],
    }
}

fn ycsb(kind: YcsbKind, seed: u64, txs: usize) -> Plan {
    let dataset: Vec<(String, Vec<u8>)> = preload(YCSB_RECORDS, YCSB_RECORD_LEN, seed)
        .into_iter()
        .map(|(key, value)| (key, value.materialize()))
        .collect();
    let source =
        YcsbRunner::new(YCSB_RECORDS, YCSB_RECORD_LEN, seed).into_source(vec![(kind, txs)]);
    Plan {
        config: engine_config(1, ChainConfig::default()),
        specs: vec![FeedSpec::from_source(
            "ycsb",
            // Memoryless is not BL2, so the preload lands not-replicated.
            feed_config(PolicyKind::Memoryless { k: 2 }).preload(dataset),
            Box::new(source),
        )],
    }
}

fn ycsb_a_64k(seed: u64, txs: usize) -> Plan {
    ycsb(YcsbKind::A, seed, txs)
}

fn ycsb_b_64k(seed: u64, txs: usize) -> Plan {
    ycsb(YcsbKind::B, seed, txs)
}

/// `grub_engine::specs::zipfian_ratio_specs(64, ops, DEMO_RATIOS,
/// demo_policies())` with two differences: the value seed comes from
/// `--seed` (the library builder hard-codes it per tenant) and the store
/// options are pinned.
fn fleet(seed: u64, ops: usize, chain: ChainConfig) -> Plan {
    let policies = demo_policies();
    let specs = Multiplex::new(64, ops)
        .zipfian(0.99)
        .sources(|tenant, budget| {
            let workload = RatioWorkload::new(
                format!("feed-{tenant}"),
                DEMO_RATIOS[tenant % DEMO_RATIOS.len()],
            )
            .seed(seed.wrapping_mul(1_000_003).wrapping_add(tenant as u64 + 1));
            let (writes, reads) = workload.cycle_shape();
            Box::new(workload.source((budget / (writes + reads)).max(1))) as Box<dyn OpSource>
        })
        .into_iter()
        .enumerate()
        .map(|(i, (tenant, source))| {
            FeedSpec::from_source(
                tenant,
                feed_config(policies[i % policies.len()].clone()),
                source,
            )
        })
        .collect();
    Plan {
        config: engine_config(8, chain),
        specs,
    }
}

fn fleet_64x8(seed: u64, ops: usize) -> Plan {
    fleet(seed, ops, ChainConfig::default())
}

fn fleet_64x8_realism(seed: u64, ops: usize) -> Plan {
    let chain = ChainConfig::default()
        .reorg(7, 5, 2)
        .confirm_depth(3)
        .latency(1, 2)
        .mempool(3);
    fleet(seed, ops, chain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seed_reaches_the_generators() {
        for w in WORKLOADS {
            let drain = |seed: u64| -> Vec<grub_workload::Op> {
                let plan = w.plan(seed, 400);
                let mut ops = Vec::new();
                for spec in &plan.specs {
                    let mut fork = spec.source.clone_box();
                    while let Some(op) = fork.next_op() {
                        ops.push(op);
                    }
                }
                ops
            };
            assert_eq!(drain(7), drain(7), "{}: seed 7 twice", w.name);
            assert_ne!(drain(7), drain(8), "{}: seeds 7 and 8", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_shapes_are_fixed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|other| other.name != w.name));
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
        }
        assert_eq!(find("fleet_64x8").unwrap().plan(1, 20).specs.len(), 64);
        assert_eq!(find("stream_hot3").unwrap().plan(1, 20).specs.len(), 2);
        let ycsb = find("ycsb_b_64k").unwrap().plan(1, 20);
        assert_eq!(ycsb.specs[0].config.preload.len() as u64, YCSB_RECORDS);
        assert_eq!(ycsb.ops_generated(), 8_000 / 20);
        assert!(find("nope").is_none());
    }
}
