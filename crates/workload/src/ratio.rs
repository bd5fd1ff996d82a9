//! Repeating read/write-ratio workloads (paper §2.3 and §5.1).
//!
//! Each workload is "a repeated sequence of X1 writes followed by X2 reads"
//! under a single key. Ratios below one mean several writes per read (the
//! paper sweeps 0, 0.125, 0.5, 1, 4, 16, 64, 256).
//!
//! Both generators here are *sources first*: [`RatioWorkload::source`] and
//! [`MultiKeyRatio::source`] stream their operations lazily under the
//! [`OpSource`] contract, and the `generate()` vector APIs are thin
//! [`Trace::from_source`] adapters over them — so streamed and materialized
//! runs are byte-identical by construction.

use crate::source::OpSource;
use crate::{Op, Trace, ValueSpec};

/// Generator for fixed-ratio single-key workloads.
#[derive(Clone, Debug)]
pub struct RatioWorkload {
    key: String,
    ratio: f64,
    value_len: usize,
    seed: u64,
}

impl RatioWorkload {
    /// A ratio workload on `key` with `ratio` reads per write and one-word
    /// (32-byte) values.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is negative or not finite.
    pub fn new(key: impl Into<String>, ratio: f64) -> Self {
        assert!(ratio.is_finite() && ratio >= 0.0, "ratio must be ≥ 0");
        RatioWorkload {
            key: key.into(),
            ratio,
            value_len: 32,
            seed: 1,
        }
    }

    /// Sets the record size in bytes (paper Figure 8b sweeps 32–512).
    pub fn value_len(mut self, len: usize) -> Self {
        self.value_len = len;
        self
    }

    /// Sets the value seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The `(writes, reads)` shape of one repetition: ratio ≥ 1 is one write
    /// followed by `ratio` reads; ratio < 1 is `1/ratio` writes then one
    /// read; ratio 0 is write-only.
    pub fn cycle_shape(&self) -> (usize, usize) {
        if self.ratio == 0.0 {
            (1, 0)
        } else if self.ratio >= 1.0 {
            (1, self.ratio.round() as usize)
        } else {
            ((1.0 / self.ratio).round() as usize, 1)
        }
    }

    /// Generates `cycles` repetitions (materialized view of
    /// [`RatioWorkload::source`]).
    pub fn generate(&self, cycles: usize) -> Trace {
        Trace::from_source(&mut self.source(cycles))
    }

    /// Streams `cycles` repetitions lazily: O(1) state regardless of trace
    /// length.
    pub fn source(&self, cycles: usize) -> RatioSource {
        RatioSource {
            workload: self.clone(),
            cycles,
            cycle: 0,
            pos: 0,
            version: 0,
        }
    }
}

/// The streaming form of [`RatioWorkload`]: one `(cycle, position)` cursor
/// and a write-version counter — constant memory for any trace length.
#[derive(Clone, Debug)]
pub struct RatioSource {
    workload: RatioWorkload,
    cycles: usize,
    cycle: usize,
    pos: usize,
    version: u64,
}

impl OpSource for RatioSource {
    fn next_op(&mut self) -> Option<Op> {
        let (writes, reads) = self.workload.cycle_shape();
        if self.cycle >= self.cycles {
            return None;
        }
        let op = if self.pos < writes {
            self.version += 1;
            Op::Write {
                key: self.workload.key.clone(),
                value: ValueSpec::new(
                    self.workload.value_len,
                    self.workload.seed.wrapping_add(self.version),
                ),
            }
        } else {
            Op::Read {
                key: self.workload.key.clone(),
            }
        };
        self.pos += 1;
        if self.pos == writes + reads {
            self.pos = 0;
            self.cycle += 1;
        }
        Some(op)
    }

    fn clone_box(&self) -> Box<dyn OpSource> {
        Box::new(self.clone())
    }
}

/// A multi-key ratio mix: each key in a set runs its *own* read/write
/// ratio, and the merged stream interleaves them one operation per key per
/// turn (keys whose cycles complete drop out of the rotation once they
/// finish their budget).
///
/// This is the first workload dimension native to the ingestion layer: the
/// per-key cycle cursors are the entire state, so a mix over thousands of
/// keys streams at O(keys) memory where the vector API would materialize
/// the full cross-product.
#[derive(Clone, Debug)]
pub struct MultiKeyRatio {
    entries: Vec<(String, f64)>,
    value_len: usize,
    seed: u64,
}

impl MultiKeyRatio {
    /// A mix over `(key, ratio)` pairs with 32-byte values.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or any ratio is negative/non-finite.
    pub fn new(entries: Vec<(String, f64)>) -> Self {
        assert!(!entries.is_empty(), "need at least one key");
        for (key, ratio) in &entries {
            assert!(
                ratio.is_finite() && *ratio >= 0.0,
                "ratio for {key} must be ≥ 0"
            );
        }
        MultiKeyRatio {
            entries,
            value_len: 32,
            seed: 1,
        }
    }

    /// Sets the record size in bytes.
    pub fn value_len(mut self, len: usize) -> Self {
        self.value_len = len;
        self
    }

    /// Sets the value seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Streams `cycles` full cycles *per key*, interleaved round-robin one
    /// op per live key.
    pub fn source(&self, cycles: usize) -> MultiKeyRatioSource {
        let lanes = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, (key, ratio))| {
                RatioWorkload::new(key.clone(), *ratio)
                    .value_len(self.value_len)
                    // Distinct per-key value streams: offset the seed by the
                    // lane index so same-length values never collide.
                    .seed(self.seed.wrapping_add((i as u64) << 32))
                    .source(cycles)
            })
            .collect();
        MultiKeyRatioSource { lanes, turn: 0 }
    }

    /// Materialized view of [`MultiKeyRatio::source`].
    pub fn generate(&self, cycles: usize) -> Trace {
        Trace::from_source(&mut self.source(cycles))
    }
}

/// The streaming form of [`MultiKeyRatio`]: one [`RatioSource`] lane per
/// key plus a rotation cursor.
#[derive(Clone, Debug)]
pub struct MultiKeyRatioSource {
    lanes: Vec<RatioSource>,
    turn: usize,
}

impl OpSource for MultiKeyRatioSource {
    fn next_op(&mut self) -> Option<Op> {
        // One full rotation is enough: a lane either yields or is exhausted.
        for _ in 0..self.lanes.len() {
            let lane = self.turn % self.lanes.len();
            self.turn = (self.turn + 1) % self.lanes.len();
            if let Some(op) = self.lanes[lane].next_op() {
                return Some(op);
            }
        }
        None
    }

    fn clone_box(&self) -> Box<dyn OpSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_four_is_one_write_four_reads() {
        let t = RatioWorkload::new("k", 4.0).generate(3);
        assert_eq!(t.write_count(), 3);
        assert_eq!(t.read_count(), 12);
        assert!(t.ops[0].is_write());
        assert!(!t.ops[1].is_write());
    }

    #[test]
    fn fractional_ratio_is_many_writes_per_read() {
        let t = RatioWorkload::new("k", 0.125).generate(2);
        assert_eq!(t.write_count(), 16, "8 writes per read");
        assert_eq!(t.read_count(), 2);
    }

    #[test]
    fn zero_ratio_is_write_only() {
        let t = RatioWorkload::new("k", 0.0).generate(5);
        assert_eq!(t.write_count(), 5);
        assert_eq!(t.read_count(), 0);
    }

    #[test]
    fn record_size_is_respected() {
        let t = RatioWorkload::new("k", 1.0).value_len(512).generate(1);
        match &t.ops[0] {
            Op::Write { value, .. } => assert_eq!(value.len, 512),
            _ => panic!("first op must be a write"),
        }
    }

    #[test]
    fn successive_writes_have_distinct_values() {
        let t = RatioWorkload::new("k", 0.5).generate(1);
        let values: Vec<_> = t
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Write { value, .. } => Some(value.materialize()),
                _ => None,
            })
            .collect();
        assert_eq!(values.len(), 2);
        assert_ne!(values[0], values[1]);
    }

    #[test]
    #[should_panic(expected = "ratio must be ≥ 0")]
    fn negative_ratio_rejected() {
        RatioWorkload::new("k", -1.0);
    }

    #[test]
    fn source_streams_exactly_what_generate_materializes() {
        for ratio in [0.0, 0.125, 1.0, 4.0] {
            let w = RatioWorkload::new("k", ratio).seed(9);
            let mut source = w.source(7);
            let mut replay = source.clone_box();
            let streamed = Trace::from_source(&mut source);
            assert_eq!(streamed, w.generate(7));
            let (writes, reads) = w.cycle_shape();
            assert_eq!(streamed.ops.len(), 7 * (writes + reads));
            assert_eq!(Trace::from_source(&mut replay), streamed, "replay");
        }
    }

    #[test]
    fn multi_key_mix_interleaves_per_key_ratios() {
        let mix = MultiKeyRatio::new(vec![
            ("hot".into(), 4.0),
            ("cold".into(), 0.0),
            ("warm".into(), 1.0),
        ]);
        let trace = mix.generate(4);
        // Per key: hot = 4×(1w+4r) = 20 ops, cold = 4×1w, warm = 4×2.
        assert_eq!(trace.ops.len(), 20 + 4 + 8);
        assert_eq!(trace.write_count(), 4 + 4 + 4);
        // The stream interleaves: the first three ops touch three keys.
        let first: Vec<&str> = trace.ops[..3].iter().map(|o| o.key()).collect();
        assert_eq!(first, vec!["hot", "cold", "warm"]);
        // Streamed == materialized, and a clone taken first replays it.
        let mut source = mix.source(4);
        let mut replay = source.clone_box();
        assert_eq!(Trace::from_source(&mut source), trace);
        assert_eq!(Trace::from_source(&mut replay), trace);
    }

    #[test]
    fn multi_key_mix_value_streams_are_distinct_per_key() {
        let mix = MultiKeyRatio::new(vec![("a".into(), 0.0), ("b".into(), 0.0)]);
        let trace = mix.generate(1);
        let values: Vec<Vec<u8>> = trace
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Write { value, .. } => Some(value.materialize()),
                _ => None,
            })
            .collect();
        assert_eq!(values.len(), 2);
        assert_ne!(values[0], values[1], "per-lane seeds must differ");
    }

    #[test]
    #[should_panic(expected = "need at least one key")]
    fn empty_mix_rejected() {
        MultiKeyRatio::new(Vec::new());
    }
}
