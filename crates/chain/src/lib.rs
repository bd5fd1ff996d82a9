//! An Ethereum-like blockchain simulator with exact Gas metering.
//!
//! The GRuB paper evaluates every design purely by the Gas it burns under the
//! schedule of its Table 2 (transactions, storage insert/update/read, hash).
//! Gas is a deterministic function of the operations a contract performs, so
//! replaying the same contract logic against the same schedule reproduces the
//! paper's cost behaviour without a real network (see ARCHITECTURE.md,
//! "Where the simulator departs from the paper").
//!
//! The simulator provides:
//!
//! * [`Blockchain`] — mempool, block production, seeded reorgs, an event
//!   log, and a registry of [`Contract`]s;
//! * Gas-metered contract storage ([`contract::CallContext::sstore`] and
//!   friends) charging exactly `Cinsert`/`Cupdate`/`Cread` per 32-byte word;
//! * transactions charged `Ctx(X) = 21000 + 2176·X` on their payload with the
//!   envelope attributed to a [`grub_gas::Layer`];
//! * internal calls with callbacks, revert journaling, and event emission
//!   (EVM `LOG`-style) that off-chain watchdogs can poll.
//!
//! Its timing parameters are the block period `B`
//! ([`ChainConfig::block_period_ms`]), the inclusion latency
//! `Pt = (1 + L)·B` for `L` = [`LatencyConfig::max_delay_blocks`], and the
//! confirmation depth `F` ([`ChainConfig::confirm_depth`]). Its `network`
//! tests and `tests/consistency.rs` assert the paper's consistency theorems
//! (§3.4, App. E): with no mempool cap, a transaction sent at `t` confirms
//! by `t + Pt + F·B`, and two sent together settle in one seed-decided order.
//!
//! # Examples
//!
//! ```
//! use grub_chain::{Blockchain, Transaction, Address};
//! use grub_chain::contract::{CallContext, Contract, VmError};
//! use grub_gas::Layer;
//! use std::rc::Rc;
//!
//! struct Counter;
//! impl Contract for Counter {
//!     fn call(&self, ctx: &mut CallContext<'_>, func: &str, _input: &[u8])
//!         -> Result<Vec<u8>, VmError> {
//!         match func {
//!             "bump" => {
//!                 let n = ctx.sload_u64(b"n").unwrap_or(0);
//!                 ctx.sstore_u64(b"n", n + 1);
//!                 Ok(Vec::new())
//!             }
//!             _ => Err(VmError::UnknownFunction(func.to_owned())),
//!         }
//!     }
//! }
//!
//! let mut chain = Blockchain::new();
//! let addr = Address::derive("counter");
//! chain.deploy(addr, Rc::new(Counter), Layer::Application);
//! let alice = Address::derive("alice");
//! chain.submit(Transaction::new(alice, addr, "bump", Vec::new(), Layer::User));
//! let block = chain.produce_block();
//! assert!(block.receipts[0].success);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod codec;
pub mod contract;
mod network;
pub mod storage;
mod types;

pub use chain::{
    Block, BlockError, Blockchain, ChainConfig, Event, LatencyConfig, MempoolConfig, Receipt,
    ReorgConfig, ReorgError, ReorgEvent, Transaction,
};
pub use contract::{CallContext, Contract, VmError};
pub use types::{Address, TxId};
