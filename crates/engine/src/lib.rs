//! `grub-engine` — a sharded multi-tenant feed engine with cross-feed
//! epoch batching.
//!
//! The paper (and `grub-core`'s [`GrubSystem`](grub_core::system::GrubSystem))
//! meters *one* data feed at a time: one key-space, one policy, one trace.
//! Production data-feed operators serve many tenants — price feeds, block
//! relays, IoT streams — over one chain and one Gas budget, and the
//! interesting system behavior (fixed-cost amortization, cross-subsidization
//! between skewed and uniform tenants) only appears when those feeds share
//! infrastructure. This crate runs N independent feeds over a single shared
//! [`Blockchain`](grub_chain::Blockchain).
//!
//! # Architecture
//!
//! ```text
//!               FeedEngine (deterministic shard scheduler, one executor)
//!
//!   round r: runnable feeds → commit groups (a shard, or one feed when
//!   unbatched), in group order; each group stages and commits before the
//!   next begins:
//!
//!     group 0: STAGE  [feed a ingest→flush→encode] [feed b …]  (off-chain)
//!              COMMIT updates → read phase                     (on-chain)
//!     group 1: STAGE  [feed c ingest→flush→encode] [feed d …]
//!              COMMIT updates → read phase
//!     …                   │
//!                         ▼
//!                          ┌── shard 0 ──┐       ┌── shard 1 ───┐
//!                          │ ShardRouter │       │ ShardRouter  │
//!                          │ batchUpdate │       │ batchUpdate  │
//!                          │ batchDeliver│       │ batchDeliver │
//!                          └─┬─────────┬─┘       └─┬──────────┬─┘
//!                        manager A  manager B   manager C … manager N
//!                           one shared Gas-metered Blockchain
//! ```
//!
//! * **Tenancy** — every feed is a full, independent GRuB deployment: its
//!   own [`EpochDriver`](grub_core::system::EpochDriver) (data owner with
//!   private policy state, storage provider with private store and Merkle
//!   tree) and its own namespaced storage-manager + consumer contracts.
//!   Feeds cannot observe each other's keys, decisions, or replicas.
//! * **Scheduling** — the engine runs feeds in *rounds*: round `r` lets
//!   every feed with trace left ingest one epoch's worth of operations and
//!   close that epoch, in declaration order. Every [`Batching`] rung runs
//!   the same round loop: the runnable feeds form commit groups — one per
//!   shard, or one per feed with batching [`Off`](Batching::Off) — and
//!   each group in turn stages
//!   off-chain, commits its updates, then runs its read phase: the paper's
//!   epoch order (§3.3), the DO's `update` before the reads and delivers.
//!   A shard group's updates are one batch mined as the write block; an
//!   unbatched feed's own update transactions ride its read block, so with
//!   batching off a round is the sum-of-singles reference the savings are
//!   measured against.
//! * **Determinism contract** — a run is a deterministic function of its
//!   specs: staging never touches the chain, and the groups run in a fixed
//!   order (ascending shards, or declaration order for single-feed
//!   groups) — so reruns mine byte-for-byte identical chains
//!   (equal [`Blockchain::chain_digest`](grub_chain::Blockchain::chain_digest)).
//!   No wall clock or map iteration order ever reaches the schedule.
//! * **Sharding** — each tenant is assigned to one of a fixed set of shards
//!   by FNV-1a hash of its name ([`tenant_shard`]). A shard owns an
//!   on-chain [`ShardRouter`] contract and a shard-operator account.
//! * **Cross-feed epoch batching** — within a round, all DO `update()`
//!   payloads of a shard's feeds land in the same block. Instead of paying
//!   one transaction envelope (`Ctx` base = 21000 Gas) per feed, the engine
//!   coalesces them into one `batchUpdate` transaction per shard
//!   (§5.1's batching observation applied across feeds, not just within
//!   one): the router forwards each section to the right storage manager as
//!   an internal call, which pays no envelope. Batching `n` same-block
//!   updates saves `(n-1)·21000` minus a few words of section framing.
//! * **Shard-level read batching** — the same amortization on the read
//!   path: instead of one SP `deliver` transaction per feed per epoch, each
//!   feed stages its watchdog's deliver payloads
//!   ([`EpochDriver::stage_reads`](grub_core::system::EpochDriver::stage_reads))
//!   and the engine coalesces a shard's round into one `batchDeliver`
//!   transaction. Within a feed, the round's per-key payloads are first
//!   merged into one payload whose queries share one Merkle proof
//!   ([`coalesce_delivers`](grub_core::contract::coalesce_delivers)), so
//!   the tree levels the keys share are sent and hashed once; replica
//!   installation and callback dispatch run per query inside the internal
//!   call. [`Batching::Updates`]
//!   ([`EngineConfig::without_read_batching`]) turns it off to isolate the
//!   write-only savings; live-tempo feeds fall back to their own
//!   per-request deliver transactions automatically.
//!
//! # Invariants
//!
//! 1. **Unbatched equivalence** — with batching [`Off`](Batching::Off) each
//!    feed commits as its own group, with the calls `close_epoch` makes, so
//!    the engine submits exactly the transactions N single-feed
//!    `GrubSystem` runs would: total
//!    feed-layer Gas equals the sum of the N standalone runs (checked in
//!    `tests/engine.rs`).
//! 2. **Batching only removes envelopes and shared proof levels** — the
//!    batched paths change *who carries* the update and deliver payloads:
//!    replica storage writes, digests, delivered records and callbacks are
//!    byte-identical, and a feed's same-round deliveries share one proof
//!    whose nodes are each a node of some per-key proof, so batched total
//!    Gas is strictly lower whenever any shard coalesces ≥ 2 updates (or
//!    deliveries) into one block.
//! 3. **Exact attribution** — per-tenant reports are measured by Gas-meter
//!    snapshots around each feed's own epoch work; a shard's batched update
//!    and deliver Gas is split over its sections proportionally to payload
//!    bytes (the residue of integer division goes to the last section) and
//!    the shares sum exactly to the metered shard totals — spilled batches
//!    included — so the aggregate report loses nothing to rounding.
//! 4. **Determinism** — two runs with identical specs produce byte-identical
//!    [`EngineReport::render_table`] output *and* equal chain digests.
//!
//! # Example
//!
//! ```
//! use grub_core::policy::PolicyKind;
//! use grub_core::system::SystemConfig;
//! use grub_engine::{EngineConfig, FeedEngine, FeedSpec};
//! use grub_workload::ratio::RatioWorkload;
//!
//! let specs = vec![
//!     FeedSpec::from_source(
//!         "prices",
//!         SystemConfig::new(PolicyKind::Memoryless { k: 2 }),
//!         Box::new(RatioWorkload::new("ETH-USD", 8.0).source(8)),
//!     ),
//!     FeedSpec::from_source(
//!         "telemetry",
//!         SystemConfig::new(PolicyKind::Memoryless { k: 2 }),
//!         Box::new(RatioWorkload::new("sensor", 0.5).source(8)),
//!     ),
//! ];
//! let report = FeedEngine::new(&EngineConfig::new(2), specs)
//!     .expect("engine builds")
//!     .run()
//!     .expect("engine runs");
//! assert_eq!(report.tenants.len(), 2);
//! assert!(report.feed_gas_total() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod report;
mod router;
pub mod specs;

pub use engine::{scrub_from_env, tenant_shard, Batching, EngineConfig, FeedEngine, FeedSpec};
pub use grub_fault::KnobError;
pub use report::{EngineReport, EpochMetrics, TenantReport};
pub use router::ShardRouter;
