//! GRuB: workload-adaptive data replication for cost-effective blockchain
//! data feeds — the paper's primary contribution.
//!
//! GRuB is a key-value store on *hybrid* storage: records live on an
//! untrusted off-chain storage provider (SP) authenticated by a Merkle ADS,
//! and are selectively replicated into smart-contract storage. An online
//! algorithm watches the workload and decides, per record, whether a replica
//! on chain saves Gas:
//!
//! * under read-heavy workloads a replica avoids expensive `deliver`
//!   transactions (`Ctx = 21000 + 2176·X`);
//! * under write-heavy workloads *not* replicating avoids expensive storage
//!   writes (`Cupdate = 5000·X`, `Cinsert = 20000·X`).
//!
//! # Architecture (paper Figure 4)
//!
//! * [`policy`] — the control plane's decision makers: the memoryless
//!   algorithm (Alg. 1, 2-competitive with `K = Cupdate/Cread_off`), the
//!   memorizing algorithm (Alg. 2, `(4D+2)/K'`-competitive), the adaptive-K
//!   heuristics of Appendix C.3, the static baselines BL1/BL2 and the
//!   offline-optimal reference — each stateful policy one map of one small
//!   record per key;
//! * [`contract`] — the on-chain storage-manager smart contract
//!   (`update` / `gGet` / `request` / `deliver`, Listing 2);
//! * [`owner`] — the data owner (DO): epoch batching of `gPuts`, the
//!   workload monitor federating local writes with the chain's
//!   contract-call history, and the decision actuator — one record per key
//!   (committed state, desired state, latest value);
//! * [`provider`] — the storage provider (SP): a [`grub_store::Db`] plus the
//!   Merkle ADS, the watchdog that answers `request` events with
//!   proof-carrying `deliver` transactions, and adversarial modes (forge /
//!   omit / replay) for security testing;
//! * [`system`] — the harness wiring DO + SP + chain + consumer contracts
//!   and driving operation streams epoch by epoch, with per-epoch Gas
//!   reporting at feed and application layers. Its
//!   [`system::EpochDriver`] building block borrows the chain instead of
//!   owning it, so external schedulers (the multi-tenant `grub-engine`)
//!   can interleave many feeds on one blockchain.
//!
//! # Examples
//!
//! ```
//! use grub_core::system::{GrubSystem, SystemConfig};
//! use grub_core::policy::PolicyKind;
//! use grub_workload::ratio::RatioWorkload;
//!
//! // A read-heavy feed: GRuB should converge to keeping a replica.
//! let mut ops = RatioWorkload::new("price", 16.0).source(20);
//! let config = SystemConfig::new(PolicyKind::Memoryless { k: 2 });
//! let report = GrubSystem::run(&mut ops, &config).expect("run succeeds");
//! assert!(report.total_ops() > 0);
//! assert!(report.feed_gas_total() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod metrics;
pub mod owner;
pub mod policy;
pub mod provider;
pub mod scrub;
pub mod system;
pub mod wire;

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

pub use grub_merkle::ReplState;

/// Errors surfaced by the GRuB runtime.
#[derive(Debug)]
pub enum GrubError {
    /// The off-chain store failed.
    Store(grub_store::StoreError),
    /// A transaction reverted unexpectedly.
    Chain(String),
    /// An SP sync moves a record the SP's store does not hold. Carrying on
    /// with an invented value would take the SP root silently away from
    /// the DO's and surface only later, as failed deliver verifications.
    MissingRecord {
        /// Data key.
        key: String,
        /// The state the record was to be moved out of.
        state: ReplState,
    },
}

impl fmt::Display for GrubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrubError::Store(e) => write!(f, "store error: {e}"),
            GrubError::Chain(what) => write!(f, "chain error: {what}"),
            GrubError::MissingRecord { key, state } => {
                write!(f, "SP store holds no record {key:?} under {state:?}")
            }
        }
    }
}

impl Error for GrubError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GrubError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<grub_store::StoreError> for GrubError {
    fn from(e: grub_store::StoreError) -> Self {
        GrubError::Store(e)
    }
}

impl From<grub_chain::BlockError> for GrubError {
    fn from(e: grub_chain::BlockError) -> Self {
        match e {
            // An injected chain crash wears the same error the store and
            // engine crash points use, so recovery harnesses see one shape.
            grub_chain::BlockError::Injected(point) => {
                GrubError::Store(grub_store::StoreError::Injected(point))
            }
            other => GrubError::Chain(other.to_string()),
        }
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, GrubError>;

/// Runs `step` on `key`'s record, creating it on first sight — the only
/// time the key is copied, so a steady-state observation allocates nothing.
/// The DO and every stateful policy keep their per-key state this way.
fn with_entry<V: Default, T>(
    map: &mut HashMap<String, V>,
    key: &str,
    step: impl FnOnce(&mut V) -> T,
) -> T {
    match map.get_mut(key) {
        Some(entry) => step(entry),
        None => {
            let mut entry = V::default();
            let out = step(&mut entry);
            map.insert(key.to_owned(), entry);
            out
        }
    }
}

/// [`with_entry`] for [`ReplicationPolicy::seed_state`]: seeding an unseen
/// key with NR stores nothing, because NR is the state the key's record
/// starts in when an operation first creates it.
///
/// [`ReplicationPolicy::seed_state`]: policy::ReplicationPolicy::seed_state
fn seed_entry<V: Default>(
    map: &mut HashMap<String, V>,
    key: &str,
    state: ReplState,
    seed: impl FnOnce(&mut V),
) {
    if state == ReplState::NotReplicated && !map.contains_key(key) {
        return;
    }
    with_entry(map, key, seed);
}

/// Heap bytes a `String`-keyed map owns: its table at capacity (one
/// `(key, value)` slot and one control byte per bucket, as `std`'s
/// SwissTable lays them out), every key's buffer, and what `value_heap`
/// says each value owns. An entry of the memory ledger (ARCHITECTURE.md).
fn map_heap_bytes<V>(map: &HashMap<String, V>, value_heap: impl Fn(&V) -> usize) -> usize {
    let capacity = map.capacity();
    // The table keeps at most 7/8 of its buckets full (all but one below 8).
    let buckets = match capacity {
        0 => 0,
        1..=7 => (capacity + 1).next_power_of_two(),
        _ => (capacity * 8 / 7).next_power_of_two(),
    };
    let table = if buckets == 0 {
        0
    } else {
        buckets * std::mem::size_of::<(String, V)>() + buckets + 16
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "a sum of sizes, the same in any order"
    )]
    let owned: usize = map.iter().map(|(k, v)| k.capacity() + value_heap(v)).sum();
    table + owned
}
