//! Workload substrate for the GRuB experiments.
//!
//! The paper drives GRuB with four families of workloads, all rebuilt here:
//!
//! * [`ratio`] — repeating sequences of `X1` writes followed by `X2` reads at
//!   a fixed read-to-write ratio (the microbenchmarks of §2.3 / §5.1);
//! * [`oracle`] — a synthesizer for the `ethPriceOracle` 5-day call trace,
//!   matching the published reads-after-write distribution (Table 1) and
//!   burstiness (Figure 2); the real BigQuery trace is not redistributable,
//!   so this is the documented substitution (ARCHITECTURE.md, "Where the
//!   simulator departs from the paper");
//! * [`btcrelay`] — a synthesizer for the BtcRelay block-feed workload
//!   (Table 6 distribution, 6-block reads per mint/burn, ~4 h read delay,
//!   Appendix D);
//! * [`ycsb`] — a from-scratch YCSB core (workloads A–F with the standard
//!   zipfian / scrambled-zipfian / latest / uniform key choosers) used for
//!   the macro-benchmarks of §5.2.
//!
//! [`stats`] computes the summary tables the paper prints (Table 1, Table 6)
//! from any trace; [`multiplex`] splits a global op budget over N tenants
//! (uniform or Zipfian activity skew) for multi-feed engine runs.
//!
//! Ingestion is pull-based: every generator streams its operations through
//! the [`source::OpSource`] trait (seeded, deterministic, cloneable — see
//! the [`source`] module docs for the contract), and the materialized
//! [`Trace`] is a thin [`Trace::from_source`] / [`Trace::into_source`]
//! adapter kept for offline algorithms and hand-built inputs. [`tempo`] reshapes a stream's read-arrival timing (bursty
//! vs uniform) without changing its content.
//!
//! # Examples
//!
//! ```
//! use grub_workload::ratio::RatioWorkload;
//!
//! // One write followed by four reads, repeated 10 times.
//! let trace = RatioWorkload::new("price", 4.0).generate(10);
//! assert_eq!(trace.read_count() + trace.write_count(), trace.ops.len());
//! assert_eq!(trace.read_count(), 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btcrelay;
pub mod multiplex;
pub mod oracle;
pub mod ratio;
pub mod source;
pub mod stats;
pub mod tempo;
pub mod ycsb;

pub use source::{OpSource, PeekableSource, TraceSource};

use serde::{Deserialize, Serialize};

/// A deterministic recipe for a value: materialized on demand so large
/// traces stay small in memory.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValueSpec {
    /// Value length in bytes.
    pub len: usize,
    /// Seed that determines the bytes.
    pub seed: u64,
}

impl ValueSpec {
    /// A value of `len` bytes derived from `seed`.
    pub fn new(len: usize, seed: u64) -> Self {
        ValueSpec { len, seed }
    }

    /// Produces the concrete bytes (xorshift stream, deterministic).
    pub fn materialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        // splitmix64-style premix so nearby seeds give unrelated streams.
        let mut x = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x = (x ^ (x >> 31)) | 1;
        while out.len() < self.len {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let bytes = x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes();
            let take = bytes.len().min(self.len - out.len());
            out.extend_from_slice(&bytes[..take]);
        }
        out
    }
}

/// One operation against the data feed.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// A data-producer update (`gPuts` element).
    Write {
        /// Data key.
        key: String,
        /// Value recipe.
        value: ValueSpec,
    },
    /// A data-consumer point query (`gGet`).
    Read {
        /// Data key.
        key: String,
    },
    /// A data-consumer range query of `len` consecutive keys (YCSB `SCAN`).
    Scan {
        /// First key.
        start_key: String,
        /// Number of keys scanned.
        len: usize,
    },
}

impl Op {
    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write { .. })
    }

    /// The primary key the operation touches.
    pub fn key(&self) -> &str {
        match self {
            Op::Write { key, .. } | Op::Read { key } => key,
            Op::Scan { start_key, .. } => start_key,
        }
    }
}

/// An ordered sequence of operations.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// The operations, in arrival order.
    pub ops: Vec<Op>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of write operations.
    pub fn write_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_write()).count()
    }

    /// Number of read and scan operations.
    pub fn read_count(&self) -> usize {
        self.ops.len() - self.write_count()
    }

    /// Concatenates another trace after this one (workload mixing).
    pub fn extend(&mut self, other: Trace) {
        self.ops.extend(other.ops);
    }
}

impl FromIterator<Op> for Trace {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        Trace {
            ops: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_spec_is_deterministic() {
        let a = ValueSpec::new(100, 42).materialize();
        let b = ValueSpec::new(100, 42).materialize();
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        let c = ValueSpec::new(100, 43).materialize();
        assert_ne!(a, c);
    }

    #[test]
    fn value_spec_zero_len() {
        assert!(ValueSpec::new(0, 1).materialize().is_empty());
    }

    #[test]
    fn trace_counts() {
        let trace: Trace = vec![
            Op::Write {
                key: "a".into(),
                value: ValueSpec::new(8, 1),
            },
            Op::Read { key: "a".into() },
            Op::Scan {
                start_key: "a".into(),
                len: 10,
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(trace.write_count(), 1);
        assert_eq!(trace.read_count(), 2);
    }
}
