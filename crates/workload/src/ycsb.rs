//! A from-scratch YCSB core (Cooper et al., SoCC'10) — the macro-benchmark
//! substrate of the paper's §5.2.
//!
//! Implements the six standard core workloads with the standard key
//! choosers:
//!
//! | Workload | Mix                         | Distribution       |
//! |----------|-----------------------------|--------------------|
//! | A        | 50% read / 50% update       | zipfian            |
//! | B        | 95% read / 5% update        | zipfian            |
//! | C        | 100% read                   | zipfian            |
//! | D        | 95% read / 5% insert        | latest             |
//! | E        | 95% scan / 5% insert        | zipfian + uniform  |
//! | F        | 50% read / 50% read-modify-write | zipfian       |
//!
//! The zipfian generator follows the Gray et al. algorithm used by YCSB's
//! `ZipfianGenerator` (θ = 0.99), with the scrambled variant hashing samples
//! across the keyspace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::source::OpSource;
use crate::{Op, Trace, ValueSpec};

/// The YCSB zipfian constant θ.
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

/// Zipfian generator over `[0, n)` (Gray et al. / YCSB algorithm).
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Builds a generator for `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "zipfian needs at least one item");
        let theta = ZIPFIAN_CONSTANT;
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Samples a rank in `[0, n)`; rank 0 is the hottest item.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
    }
}

fn fnv_hash(v: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The six core workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum YcsbKind {
    /// Update-heavy: 50/50 read/update.
    A,
    /// Read-mostly: 95/5 read/update.
    B,
    /// Read-only.
    C,
    /// Read-latest: 95/5 read/insert.
    D,
    /// Short ranges: 95/5 scan/insert.
    E,
    /// Read-modify-write: 50/50 read/RMW.
    F,
}

/// YCSB key for record index `i`.
pub fn ycsb_key(i: u64) -> String {
    format!("user{i:012}")
}

/// The records to preload before running a workload (the paper preloads
/// 2^16 records).
pub fn preload(record_count: u64, record_len: usize, seed: u64) -> Vec<(String, ValueSpec)> {
    (0..record_count)
        .map(|i| (ycsb_key(i), ValueSpec::new(record_len, seed ^ fnv_hash(i))))
        .collect()
}

/// Generator state shared across phases so inserts keep growing the
/// keyspace (as YCSB's transaction-insert sequence does).
#[derive(Clone, Debug)]
pub struct YcsbRunner {
    record_count: u64,
    record_len: usize,
    max_scan_len: usize,
    rng: StdRng,
    zipf: Zipfian,
    version: u64,
    seed: u64,
}

impl YcsbRunner {
    /// Creates a runner over an initially `record_count`-record keyspace.
    pub fn new(record_count: u64, record_len: usize, seed: u64) -> Self {
        YcsbRunner {
            record_count,
            record_len,
            max_scan_len: 100,
            rng: StdRng::seed_from_u64(seed),
            zipf: Zipfian::new(record_count),
            version: 0,
            seed,
        }
    }

    /// Caps scan lengths (YCSB default 100).
    pub fn max_scan_len(mut self, len: usize) -> Self {
        self.max_scan_len = len.max(1);
        self
    }

    /// Current keyspace size (grows with inserts).
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    fn scrambled_zipfian_key(&mut self) -> u64 {
        let rank = self.zipf.sample(&mut self.rng);
        fnv_hash(rank) % self.record_count
    }

    fn latest_key(&mut self) -> u64 {
        let rank = self.zipf.sample(&mut self.rng);
        self.record_count - 1 - (rank % self.record_count)
    }

    fn fresh_value(&mut self) -> ValueSpec {
        self.version += 1;
        ValueSpec::new(self.record_len, self.seed ^ (self.version << 20))
    }

    fn insert_op(&mut self) -> Op {
        let key = ycsb_key(self.record_count);
        self.record_count += 1;
        // Keep the zipfian sized to the keyspace like YCSB's expansion.
        self.zipf = Zipfian::new(self.record_count);
        Op::Write {
            key,
            value: self.fresh_value(),
        }
    }

    /// One YCSB transaction of workload `kind`: usually one operation, two
    /// for F's read-modify-write (read then write of the same key). The
    /// single step every surface shares — `generate()` materializes it in a
    /// loop, [`YcsbSource`] streams it — so vector and stream cannot drift.
    pub fn step(&mut self, kind: YcsbKind) -> (Op, Option<Op>) {
        let p: f64 = self.rng.gen();
        let op = match kind {
            YcsbKind::A => {
                if p < 0.5 {
                    self.read_op()
                } else {
                    self.update_op()
                }
            }
            YcsbKind::B => {
                if p < 0.95 {
                    self.read_op()
                } else {
                    self.update_op()
                }
            }
            YcsbKind::C => self.read_op(),
            YcsbKind::D => {
                if p < 0.95 {
                    let key = ycsb_key(self.latest_key());
                    Op::Read { key }
                } else {
                    self.insert_op()
                }
            }
            YcsbKind::E => {
                if p < 0.95 {
                    let start = self.scrambled_zipfian_key();
                    let len = self.rng.gen_range(1..=self.max_scan_len);
                    Op::Scan {
                        start_key: ycsb_key(start),
                        len,
                    }
                } else {
                    self.insert_op()
                }
            }
            YcsbKind::F => {
                if p < 0.5 {
                    self.read_op()
                } else {
                    // Read-modify-write touches the same key twice.
                    let key = ycsb_key(self.scrambled_zipfian_key());
                    let write = Op::Write {
                        key: key.clone(),
                        value: self.fresh_value(),
                    };
                    return (Op::Read { key }, Some(write));
                }
            }
        };
        (op, None)
    }

    /// Generates `ops` transactions of workload `kind`, advancing shared
    /// state. (F's read-modify-write emits two operations per transaction,
    /// as YCSB's core does, so the trace may be longer than `ops`.)
    pub fn generate(&mut self, kind: YcsbKind, ops: usize) -> Trace {
        let mut out = Vec::with_capacity(ops);
        for _ in 0..ops {
            let (first, second) = self.step(kind);
            out.push(first);
            out.extend(second);
        }
        Trace { ops: out }
    }

    /// Consumes the runner into a phased streaming source: each
    /// `(kind, transactions)` phase runs in order against the shared
    /// keyspace state, one pulled operation at a time.
    pub fn into_source(self, phases: Vec<(YcsbKind, usize)>) -> YcsbSource {
        YcsbSource {
            runner: self,
            phases,
            phase: 0,
            done_in_phase: 0,
            pending: None,
        }
    }

    fn read_op(&mut self) -> Op {
        Op::Read {
            key: ycsb_key(self.scrambled_zipfian_key()),
        }
    }

    fn update_op(&mut self) -> Op {
        Op::Write {
            key: ycsb_key(self.scrambled_zipfian_key()),
            value: self.fresh_value(),
        }
    }
}

/// The streaming form of [`YcsbRunner`]: phased like
/// [`mixed_trace`], with F's second (write) operation buffered one pull —
/// resident state is the runner plus at most one pending op, independent of
/// phase lengths.
#[derive(Clone, Debug)]
pub struct YcsbSource {
    runner: YcsbRunner,
    phases: Vec<(YcsbKind, usize)>,
    phase: usize,
    done_in_phase: usize,
    /// F's read-modify-write second half, awaiting the next pull.
    pending: Option<Op>,
}

impl OpSource for YcsbSource {
    fn next_op(&mut self) -> Option<Op> {
        if let Some(op) = self.pending.take() {
            return Some(op);
        }
        while let Some(&(kind, ops)) = self.phases.get(self.phase) {
            if self.done_in_phase < ops {
                self.done_in_phase += 1;
                let (first, second) = self.runner.step(kind);
                self.pending = second;
                return Some(first);
            }
            self.phase += 1;
            self.done_in_phase = 0;
        }
        None
    }

    fn clone_box(&self) -> Box<dyn OpSource> {
        Box::new(self.clone())
    }
}

/// Convenience: a phased mix like the paper's "Workload A, B" experiments —
/// each `(kind, ops)` phase runs in order against shared state
/// (materialized view of [`YcsbRunner::into_source`]).
pub fn mixed_trace(
    record_count: u64,
    record_len: usize,
    seed: u64,
    phases: &[(YcsbKind, usize)],
) -> Trace {
    let runner = YcsbRunner::new(record_count, record_len, seed);
    Trace::from_source(&mut runner.into_source(phases.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_skewed_toward_rank_zero() {
        let z = Zipfian::new(1000);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[500]);
        // Rank 0 should take roughly 1/zeta(1000, .99) ≈ 13% of samples.
        let share = counts[0] as f64 / 100_000.0;
        assert!(share > 0.08 && share < 0.20, "rank-0 share {share}");
    }

    #[test]
    fn zipfian_samples_stay_in_range() {
        let z = Zipfian::new(50);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 50);
        }
    }

    #[test]
    fn workload_a_mix_is_half_reads() {
        let mut r = YcsbRunner::new(1 << 10, 64, 1);
        let t = r.generate(YcsbKind::A, 10_000);
        let reads = t.read_count() as f64 / t.ops.len() as f64;
        assert!((reads - 0.5).abs() < 0.03, "read fraction {reads}");
    }

    #[test]
    fn workload_b_mix_is_mostly_reads() {
        let mut r = YcsbRunner::new(1 << 10, 64, 2);
        let t = r.generate(YcsbKind::B, 10_000);
        let reads = t.read_count() as f64 / t.ops.len() as f64;
        assert!((reads - 0.95).abs() < 0.01, "read fraction {reads}");
    }

    #[test]
    fn workload_e_scans_dominate() {
        let mut r = YcsbRunner::new(1 << 10, 64, 3);
        let t = r.generate(YcsbKind::E, 5_000);
        let scans = t
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Scan { .. }))
            .count() as f64
            / t.ops.len() as f64;
        assert!((scans - 0.95).abs() < 0.02, "scan fraction {scans}");
        // Scan lengths within bounds.
        for op in &t.ops {
            if let Op::Scan { len, .. } = op {
                assert!(*len >= 1 && *len <= 100);
            }
        }
    }

    #[test]
    fn workload_f_rmw_pairs_read_then_write_same_key() {
        let mut r = YcsbRunner::new(1 << 10, 64, 4);
        let t = r.generate(YcsbKind::F, 2_000);
        // Every write must be immediately preceded by a read of the same key.
        for (i, op) in t.ops.iter().enumerate() {
            if let Op::Write { key, .. } = op {
                match &t.ops[i - 1] {
                    Op::Read { key: prev } => assert_eq!(prev, key),
                    other => panic!("write preceded by {other:?}"),
                }
            }
        }
    }

    #[test]
    fn inserts_grow_the_keyspace() {
        let mut r = YcsbRunner::new(100, 64, 5);
        let before = r.record_count();
        let t = r.generate(YcsbKind::D, 2_000);
        assert!(r.record_count() > before);
        let inserts = t.write_count();
        assert!((inserts as f64 / 2000.0 - 0.05).abs() < 0.02);
    }

    #[test]
    fn latest_distribution_prefers_recent_keys() {
        let mut r = YcsbRunner::new(10_000, 64, 6);
        let t = r.generate(YcsbKind::D, 5_000);
        let recent_reads = t
            .ops
            .iter()
            .filter(|o| !o.is_write())
            .filter(|o| {
                let idx: u64 = o.key()[4..].parse().unwrap();
                idx >= 9_000
            })
            .count();
        let total_reads = t.read_count();
        assert!(
            recent_reads as f64 / total_reads as f64 > 0.5,
            "latest chooser must focus on the newest 10% of keys"
        );
    }

    #[test]
    fn mixed_trace_runs_phases_in_order() {
        let t = mixed_trace(1 << 8, 64, 7, &[(YcsbKind::A, 100), (YcsbKind::C, 100)]);
        assert_eq!(t.ops.len(), 200 + t.ops.len() - 200); // no panic, sized
                                                          // Phase 2 is read-only: the last 100 ops contain no writes.
        assert!(t.ops[t.ops.len() - 100..].iter().all(|o| !o.is_write()));
    }

    #[test]
    fn preload_covers_keyspace() {
        let records = preload(256, 32, 9);
        assert_eq!(records.len(), 256);
        assert_eq!(records[0].0, ycsb_key(0));
        assert_eq!(records[255].0, ycsb_key(255));
        assert!(records.iter().all(|(_, v)| v.len == 32));
    }

    #[test]
    fn determinism_across_runs() {
        let a = mixed_trace(512, 32, 11, &[(YcsbKind::A, 500)]);
        let b = mixed_trace(512, 32, 11, &[(YcsbKind::A, 500)]);
        assert_eq!(a, b);
    }

    #[test]
    fn source_matches_phased_generate_for_every_kind() {
        for kind in [
            YcsbKind::A,
            YcsbKind::B,
            YcsbKind::C,
            YcsbKind::D,
            YcsbKind::E,
            YcsbKind::F,
        ] {
            let mut runner = YcsbRunner::new(256, 32, 23);
            let expected = runner.generate(kind, 300);
            let mut source = YcsbRunner::new(256, 32, 23).into_source(vec![(kind, 300)]);
            let mut replay = source.clone_box();
            assert_eq!(Trace::from_source(&mut source), expected, "{kind:?}");
            assert_eq!(Trace::from_source(&mut replay), expected, "{kind:?} replay");
        }
    }

    #[test]
    fn source_spans_phases_with_shared_state() {
        let phases = [(YcsbKind::F, 120), (YcsbKind::D, 120)];
        let expected = mixed_trace(128, 32, 31, &phases);
        let mut source = YcsbRunner::new(128, 32, 31).into_source(phases.to_vec());
        let streamed = Trace::from_source(&mut source);
        assert_eq!(streamed, expected);
        // One op per transaction, two for each of F's read-modify-writes.
        assert!((240..=360).contains(&streamed.ops.len()));
    }
}
