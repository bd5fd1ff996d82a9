//! GRuB — cost-effective blockchain data feeds via workload-adaptive data
//! replication (Middleware 2020) — umbrella crate.
//!
//! This crate re-exports the whole workspace under one name, so examples
//! and downstream users can write `use grub::core::system::GrubSystem`.
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`core`] | `grub-core` | the GRuB system: policies, contracts, DO/SP, harness |
//! | [`engine`] | `grub-engine` | sharded multi-tenant feed engine, cross-feed batching |
//! | [`chain`] | `grub-chain` | Ethereum-like Gas-metered chain simulator |
//! | [`store`] | `grub-store` | LevelDB-style LSM storage engine (the SP's store) |
//! | [`merkle`] | `grub-merkle` | the authenticated data structure (Merkle ADS) |
//! | [`workload`] | `grub-workload` | ratio/oracle/BtcRelay/YCSB workloads |
//! | [`apps`] | `grub-apps` | SCoin stablecoin + Bitcoin-pegged token case studies |
//! | [`gas`] | `grub-gas` | the paper's Table 2 Gas schedule and metering |
//! | [`fault`] | `grub-fault` | named crash-point injection for recovery tests |
//! | [`crypto`] | `grub-crypto` | SHA-256 and hex, from scratch |
//!
//! # Quickstart
//!
//! ```
//! use grub::core::policy::PolicyKind;
//! use grub::core::system::{GrubSystem, SystemConfig};
//! use grub::workload::ratio::RatioWorkload;
//!
//! // A read-heavy price feed served with the 2-competitive memoryless policy.
//! let mut ops = RatioWorkload::new("ETH-USD", 8.0).source(32);
//! let report = GrubSystem::run(
//!     &mut ops,
//!     &SystemConfig::new(PolicyKind::Memoryless { k: 2 }),
//! ).expect("simulation runs");
//! println!("feed gas/op: {:.0}", report.feed_gas_per_op());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use grub_apps as apps;
pub use grub_chain as chain;
pub use grub_core as core;
pub use grub_crypto as crypto;
pub use grub_engine as engine;
pub use grub_fault as fault;
pub use grub_gas as gas;
pub use grub_merkle as merkle;
pub use grub_store as store;
pub use grub_workload as workload;
