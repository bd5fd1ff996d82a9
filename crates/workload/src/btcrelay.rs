//! Synthesizer for the BtcRelay side-chain feed workload (paper §4.2,
//! Appendix D).
//!
//! The paper joins the Bitcoin block-production sequence with the mint/burn
//! call traces of four Bitcoin-pegged ERC-20 tokens, yielding a block-read
//! workload with the distribution of Table 6 (93.7% of blocks are never
//! read) and two structural properties the synthesizer reproduces:
//!
//! * each mint/burn reads **six consecutive blocks** (SPV confirmation
//!   depth), so reads arrive in 6-block bursts;
//! * most reads occur about four hours (~24 blocks) after the block is
//!   written (Figure 16b).
//!
//! Keys are append-only (`blk%08d`) — unlike the oracle trace, writes never
//! overwrite existing records.

use std::collections::VecDeque;

use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::source::OpSource;
use crate::{Op, Trace, ValueSpec};

/// Paper Table 6: `(reads-after-write, weight out of 10 000)`.
pub const TABLE6_DISTRIBUTION: &[(usize, u32)] = &[
    (0, 9370),
    (1, 530),
    (2, 77),
    (3, 15),
    (4, 5),
    (5, 4),
    (6, 2),
    (7, 1),
];

/// Number of consecutive blocks one mint/burn verification reads.
pub const SPV_CONFIRMATIONS: usize = 6;

/// Builder for synthetic BtcRelay traces.
#[derive(Clone, Debug)]
pub struct BtcRelayTrace {
    blocks: usize,
    header_len: usize,
    read_delay_blocks: usize,
    read_intensity: Vec<(std::ops::Range<usize>, f64)>,
    seed: u64,
}

impl Default for BtcRelayTrace {
    fn default() -> Self {
        BtcRelayTrace {
            blocks: 2_000,
            header_len: 80, // Bitcoin block header size
            read_delay_blocks: 24,
            read_intensity: Vec::new(),
            seed: 0xB7C0_11E7,
        }
    }
}

impl BtcRelayTrace {
    /// Default trace of 2 000 Bitcoin blocks.
    pub fn new() -> Self {
        BtcRelayTrace::default()
    }

    /// Number of Bitcoin blocks (writes).
    pub fn blocks(mut self, blocks: usize) -> Self {
        self.blocks = blocks;
        self
    }

    /// Header record size in bytes (80 for real Bitcoin headers).
    pub fn header_len(mut self, len: usize) -> Self {
        self.header_len = len;
        self
    }

    /// Blocks of delay before reads arrive (Figure 16b's 4-hour mode ≈ 24
    /// blocks at 10 min/block).
    pub fn read_delay_blocks(mut self, blocks: usize) -> Self {
        self.read_delay_blocks = blocks;
        self
    }

    /// Multiplies the read-burst probability within a block-index range —
    /// used by the Figure 6 experiment whose trace turns read-intensive
    /// after epoch 25.
    pub fn boost_reads(mut self, range: std::ops::Range<usize>, multiplier: f64) -> Self {
        self.read_intensity.push((range, multiplier));
        self
    }

    /// Deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Key for block height `h`.
    pub fn block_key(h: usize) -> String {
        format!("blk{h:08}")
    }

    /// Samples the trace (materialized view of [`BtcRelayTrace::source`]).
    pub fn generate(&self) -> Trace {
        Trace::from_source(&mut self.source())
    }

    /// Streams the trace lazily. The pending-burst schedule is a ring
    /// buffer of `read_delay_blocks + 1` slots — bursts are due exactly
    /// `read_delay_blocks` after their sampled block — so resident state is
    /// O(delay), independent of `blocks`.
    pub fn source(&self) -> BtcRelaySource {
        let weights: Vec<u32> = TABLE6_DISTRIBUTION.iter().map(|&(_, w)| w).collect();
        BtcRelaySource {
            params: self.clone(),
            rng: StdRng::seed_from_u64(self.seed),
            // grub-lint: allow(panic) — TABLE6_DISTRIBUTION is a static table with positive weights
            index: WeightedIndex::new(&weights).expect("static weights are valid"),
            pending: VecDeque::from(vec![0; self.read_delay_blocks + 1]),
            height: 0,
            reads_left: 0,
            run_len: 0,
            oldest: 0,
        }
    }
}

/// The streaming form of [`BtcRelayTrace`]: per block, one header write,
/// then the read bursts due at that height — with the burst schedule kept
/// in an O(delay) ring buffer instead of an O(blocks) vector.
#[derive(Clone, Debug)]
pub struct BtcRelaySource {
    params: BtcRelayTrace,
    rng: StdRng,
    index: WeightedIndex,
    /// `pending[d]` = bursts due `d` blocks from the current height; slot 0
    /// is popped as each block's write is emitted.
    pending: VecDeque<usize>,
    /// Blocks whose writes have been emitted.
    height: usize,
    /// Reads still to emit for the just-written block's due bursts.
    reads_left: usize,
    /// Heights per burst at the current block (≤ [`SPV_CONFIRMATIONS`],
    /// shorter near genesis).
    run_len: usize,
    /// First height of the current block's burst run.
    oldest: usize,
}

impl OpSource for BtcRelaySource {
    fn next_op(&mut self) -> Option<Op> {
        if self.reads_left > 0 {
            // Bursts at one height all read the same oldest..=newest run,
            // so a single countdown cycling through the run suffices.
            let total_before = self.reads_left;
            self.reads_left -= 1;
            let pos_in_run = (total_before - 1) % self.run_len;
            // Reads emit oldest-first within each burst.
            let offset = self.run_len - 1 - pos_in_run;
            return Some(Op::Read {
                key: BtcRelayTrace::block_key(self.oldest + offset),
            });
        }
        if self.height >= self.params.blocks {
            return None;
        }
        let h = self.height;
        self.height += 1;
        let op = Op::Write {
            key: BtcRelayTrace::block_key(h),
            value: ValueSpec::new(self.params.header_len, self.params.seed ^ h as u64),
        };
        // Sample how many bursts will target this block, scaled by any
        // intensity boost covering it.
        let mut bursts = TABLE6_DISTRIBUTION[self.index.sample(&mut self.rng)].0 as f64;
        for (range, mult) in &self.params.read_intensity {
            if range.contains(&h) {
                bursts *= mult;
            }
        }
        let bursts = bursts.floor() as usize
            + usize::from(self.rng.gen_bool((bursts.fract()).clamp(0.0, 1.0)));
        // Schedule at the delay offset, then pop the bursts due *now* —
        // with delay 0 that slot is the one just incremented, matching the
        // materialized schedule's same-block emission.
        *self
            .pending
            .get_mut(self.params.read_delay_blocks)
            // grub-lint: allow(panic) — the ring is built with delay+1 slots and every pop is paired with a push
            .expect("ring holds delay+1 slots") += bursts;
        // grub-lint: allow(panic) — the ring is built with delay+1 slots and every pop is paired with a push
        let due = self.pending.pop_front().expect("ring is never empty");
        self.pending.push_back(0);
        let newest = h;
        self.oldest = newest.saturating_sub(SPV_CONFIRMATIONS - 1);
        self.run_len = newest - self.oldest + 1;
        self.reads_left = due * self.run_len;
        Some(op)
    }

    fn clone_box(&self) -> Box<dyn OpSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(
            BtcRelayTrace::new().generate(),
            BtcRelayTrace::new().generate()
        );
    }

    #[test]
    fn source_matches_generate_and_replays() {
        let builder = BtcRelayTrace::new()
            .blocks(800)
            .read_delay_blocks(24)
            .boost_reads(300..600, 4.0)
            .seed(21);
        let mut source = builder.source();
        let mut replay = source.clone_box();
        let streamed = Trace::from_source(&mut source);
        assert_eq!(streamed, builder.generate());
        assert_eq!(Trace::from_source(&mut replay), streamed, "replay");
        // The ring buffer stays O(delay) no matter the block count.
        assert_eq!(builder.source().pending.len(), 25);
    }

    #[test]
    fn zero_delay_reads_land_in_their_own_block() {
        let builder = BtcRelayTrace::new()
            .blocks(400)
            .read_delay_blocks(0)
            .seed(3);
        assert_eq!(
            Trace::from_source(&mut builder.source()),
            builder.generate()
        );
    }

    #[test]
    fn writes_are_append_only() {
        let t = BtcRelayTrace::new().blocks(500).generate();
        let mut seen = std::collections::HashSet::new();
        for op in &t.ops {
            if let Op::Write { key, .. } = op {
                assert!(seen.insert(key.clone()), "block {key} written twice");
            }
        }
        assert_eq!(t.write_count(), 500);
    }

    #[test]
    fn reads_come_in_spv_bursts() {
        let t = BtcRelayTrace::new().blocks(2000).generate();
        // Consecutive reads form runs that are multiples of 6 blocks.
        let mut run = 0usize;
        let mut runs = Vec::new();
        for op in &t.ops {
            if op.is_write() {
                if run > 0 {
                    runs.push(run);
                }
                run = 0;
            } else {
                run += 1;
            }
        }
        assert!(!runs.is_empty(), "trace must contain reads");
        assert!(
            runs.iter().all(|r| r % SPV_CONFIRMATIONS == 0),
            "every read run is a whole number of 6-block bursts: {runs:?}"
        );
    }

    #[test]
    fn mostly_unread_blocks_as_in_table6() {
        let t = BtcRelayTrace::new().blocks(5000).generate();
        let mut read_keys = std::collections::HashSet::new();
        for op in &t.ops {
            if !op.is_write() {
                read_keys.insert(op.key().to_owned());
            }
        }
        let read_fraction = read_keys.len() as f64 / 5000.0;
        // Table 6: ~6.3% of blocks receive a direct burst, but each burst
        // covers 6 blocks, so the touched fraction is higher; it must still
        // leave the large majority untouched.
        assert!(
            read_fraction < 0.5,
            "touched fraction {read_fraction} should stay well below half"
        );
    }

    #[test]
    fn boost_creates_read_intensive_phase() {
        let quiet = BtcRelayTrace::new().blocks(1000).generate();
        let boosted = BtcRelayTrace::new()
            .blocks(1000)
            .boost_reads(500..1000, 10.0)
            .generate();
        assert!(boosted.read_count() > quiet.read_count() * 3);
    }

    #[test]
    fn header_len_flows_into_values() {
        let t = BtcRelayTrace::new().blocks(10).header_len(80).generate();
        match &t.ops[0] {
            Op::Write { value, .. } => assert_eq!(value.len, 80),
            _ => panic!("first op is a write"),
        }
    }
}
