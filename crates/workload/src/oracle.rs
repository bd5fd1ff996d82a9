//! Synthesizer for the `ethPriceOracle` 5-day call trace (paper §2.1, §4.1).
//!
//! The paper collected `poke()` (price update) / `peek()` (price read) calls
//! from the MakerDAO medianizer between 2018-04-25 and 2018-04-30 and
//! published the marginal distribution of reads following each write
//! (Table 1) and the burst pattern (Figure 2). The raw trace is not
//! redistributable, so this module samples a trace from exactly that
//! distribution — which is what GRuB's decision algorithms react to — with a
//! deterministic seed.
//!
//! Values are Ether-style prices from a geometric random walk, encoded into
//! fixed-width records.

use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::source::OpSource;
use crate::{Op, Trace, ValueSpec};

/// Paper Table 1: `(reads-after-write, per-mille weight)`.
///
/// Percentages are converted to integer weights out of 10 000 (the table's
/// two-decimal precision).
pub const TABLE1_DISTRIBUTION: &[(usize, u32)] = &[
    (0, 7040),
    (1, 1600),
    (2, 646),
    (3, 291),
    (4, 152),
    (5, 76),
    (6, 63),
    (7, 25),
    (8, 13),
    (9, 25),
    (10, 13),
    (12, 13),
    (13, 25),
    (17, 13),
    (20, 13),
];

/// Builder for synthetic oracle traces.
#[derive(Clone, Debug)]
pub struct OracleTrace {
    writes: usize,
    assets: usize,
    record_len: usize,
    seed: u64,
}

impl Default for OracleTrace {
    fn default() -> Self {
        OracleTrace {
            writes: 790, // ≈ the 5-day trace length in Figure 2
            assets: 1,
            record_len: 32,
            seed: 0xE7B1_05C1,
        }
    }
}

impl OracleTrace {
    /// Default 5-day-equivalent trace (≈790 pokes, single asset).
    pub fn new() -> Self {
        OracleTrace::default()
    }

    /// Number of `poke()` updates to generate.
    pub fn writes(mut self, writes: usize) -> Self {
        self.writes = writes;
        self
    }

    /// Number of assets updated per poke (the §4.1 experiment batches price
    /// updates of 10 assets per `gPuts`). Reads always target asset 0 (the
    /// Ether price backing the stablecoin).
    pub fn assets(mut self, assets: usize) -> Self {
        assert!(assets >= 1, "need at least one asset");
        self.assets = assets;
        self
    }

    /// Record size in bytes.
    pub fn record_len(mut self, len: usize) -> Self {
        self.record_len = len;
        self
    }

    /// Deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Key for asset `i` (asset 0 is `ETH-USD`).
    pub fn asset_key(i: usize) -> String {
        if i == 0 {
            "ETH-USD".to_owned()
        } else {
            format!("ASSET-{i:04}")
        }
    }

    /// Samples the trace (materialized view of [`OracleTrace::source`]).
    pub fn generate(&self) -> Trace {
        Trace::from_source(&mut self.source())
    }

    /// Streams the trace lazily: resident state is the RNG, the Table 1
    /// sampler, and three counters — independent of `writes`.
    pub fn source(&self) -> OracleSource {
        let weights: Vec<u32> = TABLE1_DISTRIBUTION.iter().map(|&(_, w)| w).collect();
        OracleSource {
            params: self.clone(),
            rng: StdRng::seed_from_u64(self.seed),
            // grub-lint: allow(panic) — TABLE1_DISTRIBUTION is a static table with positive weights
            index: WeightedIndex::new(&weights).expect("static weights are valid"),
            poke: 0,
            asset_pos: self.assets,
            reads_left: 0,
        }
    }

    /// A simulated Ether price series (geometric random walk), used by the
    /// stablecoin example to display human-readable prices.
    pub fn price_series(&self) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x50C1);
        let mut price = 150.0f64; // USD per ETH, spring 2018 flavour
        (0..self.writes)
            .map(|_| {
                let step: f64 = rng.gen_range(-0.01..0.01);
                price *= 1.0 + step;
                price
            })
            .collect()
    }
}

/// The streaming form of [`OracleTrace`]: a state machine over
/// (poke, asset position, reads remaining) that reproduces `generate()`'s
/// exact RNG call order — one Table 1 sample per poke, drawn after the
/// poke's writes are emitted.
#[derive(Clone, Debug)]
pub struct OracleSource {
    params: OracleTrace,
    rng: StdRng,
    index: WeightedIndex,
    /// Pokes started so far (the write version counter, 1-based once a
    /// poke's writes begin).
    poke: u64,
    /// Assets already emitted for the current poke.
    asset_pos: usize,
    /// Reads remaining after the current poke.
    reads_left: usize,
}

impl OpSource for OracleSource {
    fn next_op(&mut self) -> Option<Op> {
        if self.asset_pos < self.params.assets {
            let asset = self.asset_pos;
            self.asset_pos += 1;
            if self.asset_pos == self.params.assets {
                self.reads_left = TABLE1_DISTRIBUTION[self.index.sample(&mut self.rng)].0;
            }
            return Some(Op::Write {
                key: OracleTrace::asset_key(asset),
                value: ValueSpec::new(
                    self.params.record_len,
                    self.params.seed ^ (self.poke << 8) ^ asset as u64,
                ),
            });
        }
        if self.reads_left > 0 {
            self.reads_left -= 1;
            return Some(Op::Read {
                key: OracleTrace::asset_key(0),
            });
        }
        if self.poke as usize >= self.params.writes {
            return None;
        }
        self.poke += 1;
        self.asset_pos = 0;
        self.next_op()
    }

    fn clone_box(&self) -> Box<dyn OpSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::reads_after_write_distribution;

    #[test]
    fn trace_is_deterministic() {
        let a = OracleTrace::new().generate();
        let b = OracleTrace::new().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn source_matches_generate_and_replays() {
        let builder = OracleTrace::new().writes(200).assets(3).seed(77);
        let mut source = builder.source();
        let mut replay = source.clone_box();
        let streamed = Trace::from_source(&mut source);
        assert_eq!(streamed, builder.generate());
        assert_eq!(streamed.write_count(), 200 * 3);
        assert_eq!(Trace::from_source(&mut replay), streamed, "replay");
    }

    #[test]
    fn write_count_matches_request() {
        let t = OracleTrace::new().writes(100).generate();
        assert_eq!(t.write_count(), 100);
    }

    #[test]
    fn multi_asset_pokes_batch_all_assets() {
        let t = OracleTrace::new().writes(10).assets(10).generate();
        assert_eq!(t.write_count(), 100, "10 pokes × 10 assets");
        // All reads target the Ether price.
        assert!(t
            .ops
            .iter()
            .filter(|o| !o.is_write())
            .all(|o| o.key() == "ETH-USD"));
    }

    #[test]
    fn distribution_matches_table1_shape() {
        // With a large sample, the zero-read fraction must be close to the
        // published 70.4% and the mean reads-per-write close to the
        // distribution's mean (≈0.70).
        let t = OracleTrace::new().writes(20_000).generate();
        let dist = reads_after_write_distribution(&t);
        let writes: usize = dist.values().sum();
        let zero = *dist.get(&0).unwrap_or(&0) as f64 / writes as f64;
        assert!((zero - 0.704).abs() < 0.02, "zero-read fraction {zero}");
        let mean: f64 = dist
            .iter()
            .map(|(&reads, &count)| reads as f64 * count as f64)
            .sum::<f64>()
            / writes as f64;
        let expected_mean: f64 = TABLE1_DISTRIBUTION
            .iter()
            .map(|&(r, w)| r as f64 * w as f64)
            .sum::<f64>()
            / 10_000.0;
        assert!(
            (mean - expected_mean).abs() < 0.05,
            "mean {mean} vs expected {expected_mean}"
        );
    }

    #[test]
    fn burstiness_reaches_table1_tail() {
        let t = OracleTrace::new().writes(20_000).generate();
        let dist = reads_after_write_distribution(&t);
        assert!(
            dist.keys().any(|&r| r >= 17),
            "tail bursts (17–20 reads) must appear"
        );
    }

    #[test]
    fn price_series_is_positive_and_wiggles() {
        let prices = OracleTrace::new().writes(50).price_series();
        assert_eq!(prices.len(), 50);
        assert!(prices.iter().all(|p| *p > 0.0));
        assert!(prices.windows(2).any(|w| w[0] != w[1]));
    }
}
