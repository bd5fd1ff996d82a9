//! The contract trait and the per-call execution context.
//!
//! Contracts are immutable code ([`Contract::call`] takes `&self`); all
//! mutable state lives in Gas-metered storage reached through
//! [`CallContext`], mirroring the EVM's code/storage split. This lets nested
//! internal calls (e.g. GRuB's `gGet` → DU callback) re-enter contracts
//! without aliasing issues.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use grub_crypto::{sha256, Hash32};
use grub_gas::{words_for_bytes, CostKind, GasMeter, Layer};

use crate::chain::Event;
use crate::storage::{ContractStorage, JournalEntry};
use crate::types::Address;

/// Maximum internal-call depth, to catch accidental callback loops.
pub const MAX_CALL_DEPTH: u32 = 64;

/// Errors raised by contract execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The contract reverted with a reason string.
    Revert(String),
    /// No contract is deployed at the target address.
    UnknownContract(Address),
    /// The contract has no function with this name.
    UnknownFunction(String),
    /// The payload could not be decoded.
    Decode(String),
    /// Internal call depth exceeded [`MAX_CALL_DEPTH`].
    CallDepthExceeded,
    /// The caller is not authorized for this function.
    Unauthorized,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Revert(reason) => write!(f, "execution reverted: {reason}"),
            VmError::UnknownContract(addr) => write!(f, "no contract at {addr}"),
            VmError::UnknownFunction(name) => write!(f, "unknown function {name}"),
            VmError::Decode(what) => write!(f, "payload decode failed: {what}"),
            VmError::CallDepthExceeded => write!(f, "internal call depth exceeded"),
            VmError::Unauthorized => write!(f, "caller not authorized"),
        }
    }
}

impl Error for VmError {}

/// A deployed smart contract.
///
/// Implementations must keep all persistent state in [`CallContext`] storage
/// so that Gas accounting captures it. See the crate-level example.
pub trait Contract {
    /// Executes `func` with `input`, returning the encoded output.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] to revert the enclosing transaction; all storage
    /// writes made below the failing frame are rolled back.
    fn call(&self, ctx: &mut CallContext<'_>, func: &str, input: &[u8])
        -> Result<Vec<u8>, VmError>;
}

/// Registry entry: code plus the Gas-attribution layer for the contract.
#[derive(Clone)]
pub(crate) struct Deployed {
    pub code: Rc<dyn Contract>,
    pub layer: Layer,
}

/// A record of one (internal or top-level) contract invocation, observable
/// by off-chain full nodes that re-execute transactions — this is the
/// "contract-call history" the paper's DO monitor federates (§3.2).
/// Recording it is free: it is derived data, not consensus state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallRecord {
    /// Invoked contract.
    pub to: Address,
    /// Function name.
    pub func: String,
    /// Encoded input.
    pub input: Vec<u8>,
    /// Block in which the invocation executed.
    pub block_number: u64,
}

/// Chain state mutated during transaction execution.
pub(crate) struct ExecState {
    pub storages: HashMap<Address, ContractStorage>,
    pub meter: GasMeter,
    pub pending_events: Vec<Event>,
    pub journal: Vec<JournalEntry>,
    pub call_records: Vec<CallRecord>,
}

/// Execution context handed to a contract for the duration of one call frame.
///
/// Provides Gas-metered storage access, event emission, hashing, and internal
/// calls. Each metered helper charges the layer that the *currently
/// executing* contract was deployed with, so feed-layer and application-layer
/// Gas separate exactly as in the paper's Table 3.
pub struct CallContext<'a> {
    pub(crate) state: &'a mut ExecState,
    pub(crate) registry: &'a HashMap<Address, Deployed>,
    /// The immediate caller (account or contract).
    pub caller: Address,
    /// The contract being executed.
    pub this: Address,
    /// The externally-owned account that signed the transaction.
    pub origin: Address,
    /// Current block number.
    pub block_number: u64,
    /// Simulated wall-clock time (milliseconds).
    pub now_ms: u64,
    pub(crate) layer: Layer,
    pub(crate) depth: u32,
}

impl<'a> CallContext<'a> {
    fn storage_mut(&mut self) -> &mut ContractStorage {
        self.state.storages.entry(self.this).or_default()
    }

    /// Reads a storage slot, charging `Cread` per word (minimum one word).
    pub fn sload(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let value = self
            .state
            .storages
            .get(&self.this)
            .and_then(|s| s.get(key))
            .cloned();
        let words = value
            .as_ref()
            .map(|v| words_for_bytes(v.len()).max(1))
            .unwrap_or(1);
        let cost = self.state.meter.schedule().storage_read(words);
        self.state
            .meter
            .charge(self.layer, CostKind::StorageRead, cost);
        value
    }

    /// Writes a storage slot, charging `Cinsert` for fresh slots and
    /// `Cupdate` for overwrites, per word of the new value.
    pub fn sstore(&mut self, key: &[u8], value: &[u8]) {
        let this = self.this;
        let words = words_for_bytes(value.len()).max(1);
        let existed = self
            .state
            .storages
            .get(&this)
            .map(|s| s.get(key).is_some())
            .unwrap_or(false);
        let cost = if existed {
            self.state.meter.schedule().storage_update(words)
        } else {
            self.state.meter.schedule().storage_insert(words)
        };
        let kind = if existed {
            CostKind::StorageUpdate
        } else {
            CostKind::StorageInsert
        };
        self.state.meter.charge(self.layer, kind, cost);
        let prior = self.storage_mut().set(key.to_vec(), value.to_vec());
        self.state.journal.push(JournalEntry {
            contract: this,
            key: key.to_vec(),
            prior,
        });
    }

    /// Deletes a storage slot (replica eviction). Metered as a one-word
    /// update — Table 2 has no delete row and the paper models no refunds.
    pub fn sdelete(&mut self, key: &[u8]) {
        let this = self.this;
        let cost = self.state.meter.schedule().storage_update(1);
        self.state
            .meter
            .charge(self.layer, CostKind::StorageUpdate, cost);
        let prior = self.storage_mut().remove(key);
        self.state.journal.push(JournalEntry {
            contract: this,
            key: key.to_vec(),
            prior,
        });
    }

    /// Convenience: reads a slot holding a `u64`.
    pub fn sload_u64(&mut self, key: &[u8]) -> Option<u64> {
        self.sload(key).map(|v| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&v[..8.min(v.len())]);
            u64::from_le_bytes(b)
        })
    }

    /// Convenience: writes a slot holding a `u64`.
    pub fn sstore_u64(&mut self, key: &[u8], value: u64) {
        self.sstore(key, &value.to_le_bytes());
    }

    /// Hashes data on-chain, charging `Chash(X) = 30 + 6·X`.
    pub fn hash(&mut self, data: &[u8]) -> Hash32 {
        let cost = self
            .state
            .meter
            .schedule()
            .hash_cost(words_for_bytes(data.len()));
        self.state.meter.charge(self.layer, CostKind::Hash, cost);
        sha256(data)
    }

    /// Emits an event into the block's log, charging the LOG schedule.
    pub fn emit(&mut self, name: &str, data: Vec<u8>) {
        let cost = self.state.meter.schedule().log_cost(1, data.len());
        self.state.meter.charge(self.layer, CostKind::Log, cost);
        self.state.pending_events.push(Event {
            contract: self.this,
            name: name.to_owned(),
            data,
            block_number: self.block_number,
            time_ms: self.now_ms,
        });
    }

    /// Makes an internal call to another contract (or this one).
    ///
    /// The callee's storage charges are attributed to the *callee's* layer,
    /// which is how DU callback logic lands in the application column while
    /// `deliver` verification lands in the feed column.
    ///
    /// # Errors
    ///
    /// Propagates the callee's [`VmError`]; the caller may catch it (as the
    /// EVM's `CALL` returns success flags) or bubble it up to revert.
    pub fn call(&mut self, to: Address, func: &str, input: &[u8]) -> Result<Vec<u8>, VmError> {
        if self.depth + 1 > MAX_CALL_DEPTH {
            return Err(VmError::CallDepthExceeded);
        }
        let deployed = self
            .registry
            .get(&to)
            .cloned()
            .ok_or(VmError::UnknownContract(to))?;
        self.state.call_records.push(CallRecord {
            to,
            func: func.to_owned(),
            input: input.to_vec(),
            block_number: self.block_number,
        });
        let mut sub = CallContext {
            state: self.state,
            registry: self.registry,
            caller: self.this,
            this: to,
            origin: self.origin,
            block_number: self.block_number,
            now_ms: self.now_ms,
            layer: deployed.layer,
            depth: self.depth + 1,
        };
        deployed.code.call(&mut sub, func, input)
    }

    /// The Gas-attribution layer of the currently executing contract.
    pub fn layer(&self) -> Layer {
        self.layer
    }

    /// The Gas schedule in force, for contracts that meter bespoke work
    /// (e.g. proof verification loops).
    pub fn meter_schedule(&self) -> &grub_gas::GasSchedule {
        self.state.meter.schedule()
    }

    /// Charges `amount` Gas of `kind` against the current contract's layer.
    pub fn charge(&mut self, kind: CostKind, amount: u64) {
        self.state.meter.charge(self.layer, kind, amount);
    }
}
