//! A LevelDB-style log-structured merge (LSM) key-value storage engine.
//!
//! The GRuB paper runs its storage provider (SP) on Google LevelDB. Off-chain
//! costs are explicitly excluded from the paper's cost model (§2.2), but the
//! SP still needs a real, durable, ordered KV store to serve Puts/Gets/Scans
//! and back the Merkle ADS — so this crate rebuilds the essential LevelDB
//! architecture from scratch:
//!
//! * a write-ahead log ([`wal`]) with CRC-32-framed records and
//!   truncate-on-corruption recovery;
//! * an in-memory [`memtable`] holding each key's latest write;
//! * immutable sorted-table files ([`sstable`]), one entry per key, with
//!   4 KiB data blocks, a block index and a bloom filter;
//! * size-triggered flushes and leveled compaction (L0 overlapping files,
//!   L1 merged and non-overlapping) in [`Db`];
//! * latest-value point reads and ordered range scans — the paper's SP
//!   serves nothing older, so the store keeps one version per key.
//!
//! # Examples
//!
//! ```
//! use grub_store::{Db, Options};
//!
//! # fn main() -> Result<(), grub_store::StoreError> {
//! let dir = std::env::temp_dir().join(format!("grub-doc-{}", std::process::id()));
//! let mut db = Db::open(&dir, Options::default())?;
//! db.put(b"eth-usd".to_vec(), b"150".to_vec())?;
//! assert_eq!(db.get(b"eth-usd")?, Some(b"150".to_vec()));
//! db.delete(b"eth-usd")?;
//! assert_eq!(db.get(b"eth-usd")?, None);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bloom;
mod cache;
pub mod crc;
mod db;
pub mod memtable;
pub mod sstable;
pub mod wal;

pub use db::{Db, Options, ReadStats};

use std::error::Error;
use std::fmt;
use std::io;

/// Errors returned by the storage engine.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A file was malformed (bad magic, bad CRC, truncated structure).
    Corrupt(String),
    /// An armed [`grub_fault`] crash point tripped here — the simulated
    /// process death of a recovery test, never seen in normal operation.
    Injected(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(what) => write!(f, "corrupt store: {what}"),
            StoreError::Injected(point) => write!(f, "injected crash at {point}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) | StoreError::Injected(_) => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, StoreError>;
