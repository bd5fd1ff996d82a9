//! Ethereum's Gas cost model as used by the GRuB paper (Table 2), plus a
//! metering facility with per-layer attribution.
//!
//! The paper evaluates every design by the Gas it burns, using this schedule
//! (X = number of 32-byte words):
//!
//! | Operation              | Gas cost                          |
//! |------------------------|-----------------------------------|
//! | Transaction            | `21000 + 2176·X` (X < 1000)       |
//! | Storage write (insert) | `20000·X`                         |
//! | Storage write (update) | `5000·X`                          |
//! | Storage read           | `200·X`                           |
//! | Hash computation       | `30 + 6·X`                        |
//!
//! Table 2 omits event logging; `request` events are metered with the Yellow
//! Paper's LOG schedule (`375 + 375·topics + 8·bytes`), which is small
//! relative to the dominant costs above (see ARCHITECTURE.md, "Where the
//! simulator departs from the paper").
//!
//! # Examples
//!
//! ```
//! use grub_gas::{GasSchedule, Layer, GasMeter};
//!
//! let s = GasSchedule::default();
//! assert_eq!(s.tx_cost_words(1), 21000 + 2176);
//!
//! let mut meter = GasMeter::new();
//! meter.charge_tx(Layer::Feed, 32); // a 32-byte payload = 1 word
//! assert_eq!(meter.total(), 23176);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An amount of Gas.
///
/// A newtype over `u64` so Gas quantities cannot be confused with word or
/// byte counts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Gas(pub u64);

impl Gas {
    /// Zero gas.
    pub const ZERO: Gas = Gas(0);

    /// The raw amount.
    pub fn amount(self) -> u64 {
        self.0
    }

    /// Gas per operation as a float, for reporting series.
    pub fn per_op(self, ops: usize) -> f64 {
        if ops == 0 {
            0.0
        } else {
            self.0 as f64 / ops as f64
        }
    }
}

/// Adds two Gas amounts: loud on overflow in debug builds, saturating in
/// release. Wrapping would silently *under-charge* (a wrapped counter reads
/// lower than the true total); saturation keeps any release-mode error
/// one-sided and conservative. Meter accounting throughout the
/// workspace goes through this helper.
pub fn checked_add_gas(a: u64, b: u64) -> u64 {
    let sum = a.checked_add(b);
    debug_assert!(sum.is_some(), "gas amount overflow: {a} + {b}");
    sum.unwrap_or(u64::MAX)
}

/// Subtracts two Gas amounts: loud on underflow in debug builds, clamping
/// to zero in release. An underflow here means snapshots were differenced
/// across a meter reset (or in the wrong order) — a harness bug that must
/// not masquerade as a huge wrapped charge.
pub fn checked_sub_gas(a: u64, b: u64) -> u64 {
    let diff = a.checked_sub(b);
    debug_assert!(diff.is_some(), "gas amount underflow: {a} - {b}");
    diff.unwrap_or(0)
}

impl Add for Gas {
    type Output = Gas;
    fn add(self, rhs: Gas) -> Gas {
        Gas(checked_add_gas(self.0, rhs.0))
    }
}

impl AddAssign for Gas {
    fn add_assign(&mut self, rhs: Gas) {
        self.0 = checked_add_gas(self.0, rhs.0);
    }
}

impl Sub for Gas {
    type Output = Gas;
    fn sub(self, rhs: Gas) -> Gas {
        Gas(checked_sub_gas(self.0, rhs.0))
    }
}

impl std::iter::Sum for Gas {
    fn sum<I: Iterator<Item = Gas>>(iter: I) -> Gas {
        iter.fold(Gas::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Gas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} gas", self.0)
    }
}

/// Number of 32-byte words needed to hold `bytes` bytes (rounded up).
///
/// # Examples
///
/// ```
/// assert_eq!(grub_gas::words_for_bytes(0), 0);
/// assert_eq!(grub_gas::words_for_bytes(1), 1);
/// assert_eq!(grub_gas::words_for_bytes(32), 1);
/// assert_eq!(grub_gas::words_for_bytes(33), 2);
/// ```
pub fn words_for_bytes(bytes: usize) -> u64 {
    bytes.div_ceil(32) as u64
}

/// The Gas cost schedule (paper Table 2 + Yellow-Paper LOG costs).
///
/// All experiments use [`GasSchedule::default`]; the fields are public so
/// ablations can explore alternative fee markets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GasSchedule {
    /// Base cost of any transaction (`21000`).
    pub tx_base: u64,
    /// Per-word cost of transaction payload (`2176`, i.e. 68 gas/byte).
    pub tx_per_word: u64,
    /// Per-word cost of inserting a fresh storage slot (`20000`).
    pub storage_insert_per_word: u64,
    /// Per-word cost of overwriting an existing storage slot (`5000`).
    pub storage_update_per_word: u64,
    /// Per-word cost of reading storage (`200`).
    pub storage_read_per_word: u64,
    /// Base cost of a hash computation (`30`).
    pub hash_base: u64,
    /// Per-word cost of hashing (`6`).
    pub hash_per_word: u64,
    /// Base cost of emitting a log/event (`375`).
    pub log_base: u64,
    /// Per-topic cost of a log (`375`).
    pub log_per_topic: u64,
    /// Per-byte cost of log payload (`8`).
    pub log_per_byte: u64,
}

impl Default for GasSchedule {
    fn default() -> Self {
        GasSchedule {
            tx_base: 21_000,
            tx_per_word: 2_176,
            storage_insert_per_word: 20_000,
            storage_update_per_word: 5_000,
            storage_read_per_word: 200,
            hash_base: 30,
            hash_per_word: 6,
            log_base: 375,
            log_per_topic: 375,
            log_per_byte: 8,
        }
    }
}

impl GasSchedule {
    /// `Ctx(X) = 21000 + 2176·X` — cost of a transaction with `words`
    /// payload words.
    ///
    /// Table 2 states the formula for `X < 1000`; per-byte calldata pricing
    /// on real chains stays linear beyond that, so larger payloads (e.g. a
    /// 100-record scan delivery) extrapolate linearly here.
    pub fn tx_cost_words(&self, words: u64) -> u64 {
        self.tx_base + self.tx_per_word * words
    }

    /// Transaction cost for a payload of `bytes` bytes.
    pub fn tx_cost_bytes(&self, bytes: usize) -> u64 {
        self.tx_cost_words(words_for_bytes(bytes))
    }

    /// `Cinsert(X) = 20000·X`.
    pub fn storage_insert(&self, words: u64) -> u64 {
        self.storage_insert_per_word * words
    }

    /// `Cupdate(X) = 5000·X`.
    pub fn storage_update(&self, words: u64) -> u64 {
        self.storage_update_per_word * words
    }

    /// `Cread(X) = 200·X`.
    pub fn storage_read(&self, words: u64) -> u64 {
        self.storage_read_per_word * words
    }

    /// `Chash(X) = 30 + 6·X`.
    pub fn hash_cost(&self, words: u64) -> u64 {
        self.hash_base + self.hash_per_word * words
    }

    /// Yellow-Paper LOG cost: `375 + 375·topics + 8·bytes`.
    pub fn log_cost(&self, topics: u64, bytes: usize) -> u64 {
        self.log_base + self.log_per_topic * topics + self.log_per_byte * bytes as u64
    }

    /// The unit Gas to move one byte from off-chain onto the chain by
    /// transaction payload — the paper's `C_read_off` (≈ 68 gas/byte).
    pub fn read_off_per_byte(&self) -> f64 {
        self.tx_per_word as f64 / 32.0
    }

    /// The unit Gas to update one byte of on-chain storage — the paper's
    /// `C_update` per byte (≈ 156 gas/byte).
    pub fn update_per_byte(&self) -> f64 {
        self.storage_update_per_word as f64 / 32.0
    }

    /// The paper's Equation 1: `K = C_update / C_read_off`, the threshold
    /// that makes the memoryless algorithm 2-competitive.
    ///
    /// With the default schedule this is `5000 / 2176 ≈ 2.3`, which the paper
    /// rounds to `K = 2` in the BtcRelay experiment.
    pub fn two_competitive_k(&self) -> f64 {
        self.update_per_byte() / self.read_off_per_byte()
    }
}

/// Which layer of the stack a Gas charge belongs to.
///
/// The paper reports "Gas at the data-feed layer" separately from "Gas of the
/// end application" (Table 3); the meter keeps both. End users' transaction
/// envelopes (the 21000+payload cost of a query transaction submitted by a
/// DU's customer) are paid by neither the feed nor the application operator,
/// so they land in [`Layer::User`] and are excluded from the paper's metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// GRuB itself: the storage-manager contract, `update`/`deliver`
    /// transactions, proofs, events.
    Feed,
    /// The data-consumer application (e.g. SCoinIssuer callback logic, ERC-20
    /// bookkeeping).
    Application,
    /// End-user transaction envelopes, tracked but excluded from the paper's
    /// feed/application Gas metrics.
    User,
}

/// Fine-grained cost source, for breakdown reporting and ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostKind {
    /// Transaction base + payload cost.
    Transaction,
    /// Fresh storage-slot insertion.
    StorageInsert,
    /// Storage-slot overwrite.
    StorageUpdate,
    /// Storage read.
    StorageRead,
    /// Hash computation (proof verification).
    Hash,
    /// Event/log emission.
    Log,
}

/// The neutral gas-price multiplier: schedule costs pass through unscaled.
pub const BASE_PRICE_PERMILLE: u64 = 1000;

/// A fixed 64-bit mixer (SplitMix64 finalizer) used to derive deterministic
/// pseudo-random streams from a `(seed, index)` pair without any RNG state.
/// The fee process and the chain's reorg process both draw from it, so a
/// replayed run reproduces every "random" draw exactly.
pub fn seeded_mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shape of the seeded per-block gas-price process.
///
/// All regimes are *pure functions of block height*: re-mining a block at the
/// same height (e.g. when replaying the canonical branch after a reorg)
/// reproduces the same price, so fee volatility never breaks determinism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeeRegime {
    /// A square wave alternating between `low` and `high` every `period`
    /// blocks (seeded phase).
    Step {
        /// Blocks per half-cycle.
        period: u64,
        /// Price (permille of the base schedule) in the cheap half.
        low: u64,
        /// Price (permille) in the expensive half.
        high: u64,
    },
    /// A mostly-flat `base` price with short spikes to `peak`: every `period`
    /// blocks, `width` consecutive blocks price at `peak` (seeded phase).
    Spike {
        /// Blocks between spike onsets.
        period: u64,
        /// Spike duration in blocks.
        width: u64,
        /// Off-spike price (permille).
        base: u64,
        /// In-spike price (permille).
        peak: u64,
    },
    /// Bounded seeded noise that reverts to `base`: each block's price is
    /// `base` plus the average of a small window of seeded per-height draws
    /// in `[-max_dev, +max_dev]`, so excursions decay back to the mean.
    MeanReverting {
        /// The long-run mean price (permille).
        base: u64,
        /// Maximum deviation (permille) of a single draw from the mean.
        max_dev: u64,
    },
}

/// A seeded, deterministic gas-price schedule: the chain evaluates it at
/// every block height and scales all schedule costs by the resulting
/// multiplier (in permille of the flat Table-2 prices).
///
/// # Examples
///
/// ```
/// use grub_gas::FeeProcess;
///
/// let fee = FeeProcess::spike(7);
/// // Pure function of height: the same block always prices the same.
/// assert_eq!(fee.price_permille(42), fee.price_permille(42));
/// assert!(fee.price_permille(42) >= 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeeProcess {
    /// The regime shaping the price path.
    pub regime: FeeRegime,
    /// Seed fixing the regime's phase/noise; same seed → same price path.
    pub seed: u64,
}

impl FeeProcess {
    /// A step regime with moderate amplitude (0.7× / 1.6× the base price).
    pub fn step(seed: u64) -> Self {
        FeeProcess {
            regime: FeeRegime::Step {
                period: 8,
                low: 700,
                high: 1600,
            },
            seed,
        }
    }

    /// A spike regime: flat 0.9× with short 5× spikes.
    pub fn spike(seed: u64) -> Self {
        FeeProcess {
            regime: FeeRegime::Spike {
                period: 16,
                width: 3,
                base: 900,
                peak: 5000,
            },
            seed,
        }
    }

    /// A mean-reverting regime around the base price (±0.4×).
    pub fn mean_reverting(seed: u64) -> Self {
        FeeProcess {
            regime: FeeRegime::MeanReverting {
                base: 1000,
                max_dev: 400,
            },
            seed,
        }
    }

    /// Parses an env-knob spec: `step`, `spike`, or `revert` (aliases
    /// `mean-revert`, `mean-reverting`), each optionally suffixed with
    /// `:<seed>` (default seed 7). `flat`, `0`, and the empty string parse
    /// to `None` ("no fee process"); unknown regimes are an error naming
    /// the offending spec.
    pub fn parse(spec: &str) -> Result<Option<Self>, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "0" || spec.eq_ignore_ascii_case("flat") {
            return Ok(None);
        }
        let (regime, seed) = match spec.split_once(':') {
            Some((r, s)) => {
                let seed = s
                    .parse::<u64>()
                    .map_err(|_| format!("bad fee-schedule seed in {spec:?}"))?;
                (r, seed)
            }
            None => (spec, 7),
        };
        match regime.to_ascii_lowercase().as_str() {
            "step" => Ok(Some(Self::step(seed))),
            "spike" => Ok(Some(Self::spike(seed))),
            "revert" | "mean-revert" | "mean-reverting" => Ok(Some(Self::mean_reverting(seed))),
            other => Err(format!("unknown fee-schedule regime {other:?}")),
        }
    }

    /// The gas-price multiplier (permille of the base schedule) at `height`.
    /// Pure in `(self, height)`; always at least 1.
    pub fn price_permille(&self, height: u64) -> u64 {
        let price = match self.regime {
            FeeRegime::Step { period, low, high } => {
                let period = period.max(1);
                let phase = seeded_mix(self.seed, 0) % 2;
                if (height / period + phase).is_multiple_of(2) {
                    low
                } else {
                    high
                }
            }
            FeeRegime::Spike {
                period,
                width,
                base,
                peak,
            } => {
                let period = period.max(1);
                let offset = seeded_mix(self.seed, 1) % period;
                if height.wrapping_add(offset) % period < width.min(period) {
                    peak
                } else {
                    base
                }
            }
            FeeRegime::MeanReverting { base, max_dev } => {
                let span = 2 * max_dev + 1;
                const WINDOW: u64 = 4;
                let mut acc: i64 = 0;
                for lag in 0..WINDOW {
                    let draw = seeded_mix(self.seed, height.wrapping_sub(lag)) % span;
                    acc += draw as i64 - max_dev as i64;
                }
                let dev = acc / WINDOW as i64;
                (base as i64 + dev).max(1) as u64
            }
        };
        price.max(1)
    }
}

/// Accumulates Gas charges with layer and kind attribution.
///
/// Every charge is scaled by the meter's current gas price (permille of the
/// flat schedule, default [`BASE_PRICE_PERMILLE`] = no-op), which the chain
/// sets per block from its [`FeeProcess`].
///
/// # Examples
///
/// ```
/// use grub_gas::{GasMeter, Layer, CostKind, Gas};
///
/// let mut m = GasMeter::new();
/// m.charge(Layer::Feed, CostKind::StorageRead, 200);
/// m.charge(Layer::Application, CostKind::StorageUpdate, 5000);
/// assert_eq!(m.layer_total(Layer::Feed), Gas(200));
/// assert_eq!(m.total(), 5200);
/// ```
#[derive(Clone, Debug)]
pub struct GasMeter {
    schedule: GasSchedule,
    by_layer: [u64; 3],
    by_kind: [[u64; 6]; 3],
    price_permille: u64,
}

impl Default for GasMeter {
    fn default() -> Self {
        Self::new()
    }
}

fn layer_index(layer: Layer) -> usize {
    match layer {
        Layer::Feed => 0,
        Layer::Application => 1,
        Layer::User => 2,
    }
}

impl GasMeter {
    /// Creates a meter with the default schedule.
    pub fn new() -> Self {
        Self::with_schedule(GasSchedule::default())
    }

    /// Creates a meter with a custom schedule.
    pub fn with_schedule(schedule: GasSchedule) -> Self {
        GasMeter {
            schedule,
            by_layer: [0; 3],
            by_kind: [[0; 6]; 3],
            price_permille: BASE_PRICE_PERMILLE,
        }
    }

    /// The schedule this meter charges against.
    pub fn schedule(&self) -> &GasSchedule {
        &self.schedule
    }

    /// Sets the gas-price multiplier (permille of the flat schedule) applied
    /// to subsequent charges. Clamped to at least 1 — a zero price would
    /// make every operation free and break the savings-ladder invariants.
    pub fn set_price_permille(&mut self, permille: u64) {
        self.price_permille = permille.max(1);
    }

    /// The gas-price multiplier currently applied to charges.
    pub fn price_permille(&self) -> u64 {
        self.price_permille
    }

    /// Scales a flat-schedule amount by the current price.
    fn scale(&self, amount: u64) -> u64 {
        if self.price_permille == BASE_PRICE_PERMILLE {
            amount
        } else {
            (u128::from(amount) * u128::from(self.price_permille) / 1000) as u64
        }
    }

    fn kind_index(kind: CostKind) -> usize {
        match kind {
            CostKind::Transaction => 0,
            CostKind::StorageInsert => 1,
            CostKind::StorageUpdate => 2,
            CostKind::StorageRead => 3,
            CostKind::Hash => 4,
            CostKind::Log => 5,
        }
    }

    /// Records `amount` Gas (a flat-schedule cost, scaled by the current
    /// price) against a layer and kind.
    pub fn charge(&mut self, layer: Layer, kind: CostKind, amount: u64) {
        let amount = self.scale(amount);
        let li = layer_index(layer);
        let ki = Self::kind_index(kind);
        self.by_layer[li] = checked_add_gas(self.by_layer[li], amount);
        self.by_kind[li][ki] = checked_add_gas(self.by_kind[li][ki], amount);
    }

    /// Charges a transaction carrying `payload_bytes` of calldata; returns
    /// the price-scaled cost actually booked.
    pub fn charge_tx(&mut self, layer: Layer, payload_bytes: usize) -> u64 {
        let cost = self.scale(self.schedule.tx_cost_bytes(payload_bytes));
        let li = layer_index(layer);
        let ki = Self::kind_index(CostKind::Transaction);
        self.by_layer[li] = checked_add_gas(self.by_layer[li], cost);
        self.by_kind[li][ki] = checked_add_gas(self.by_kind[li][ki], cost);
        cost
    }

    /// Total Gas across all layers (including user envelopes).
    pub fn total(&self) -> u64 {
        self.by_layer
            .iter()
            .fold(0, |acc, &layer| checked_add_gas(acc, layer))
    }

    /// Gas charged to one layer.
    pub fn layer_total(&self, layer: Layer) -> Gas {
        Gas(self.by_layer[layer_index(layer)])
    }

    /// Gas charged to one (layer, kind) pair.
    pub fn kind_total(&self, layer: Layer, kind: CostKind) -> Gas {
        Gas(self.by_kind[layer_index(layer)][Self::kind_index(kind)])
    }

    /// Snapshot of the current totals, for differencing across an epoch.
    pub fn snapshot(&self) -> GasSnapshot {
        GasSnapshot {
            feed: self.by_layer[0],
            app: self.by_layer[1],
            user: self.by_layer[2],
        }
    }

    /// Resets all counters to zero, keeping the schedule.
    pub fn reset(&mut self) {
        self.by_layer = [0; 3];
        self.by_kind = [[0; 6]; 3];
    }
}

/// A point-in-time snapshot of meter totals; subtract two to get a delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GasSnapshot {
    /// Feed-layer total at snapshot time.
    pub feed: u64,
    /// Application-layer total at snapshot time.
    pub app: u64,
    /// User-envelope total at snapshot time.
    pub user: u64,
}

impl GasSnapshot {
    /// Gas burned between `earlier` and `self`, per layer `(feed, app)`.
    pub fn since(&self, earlier: GasSnapshot) -> (Gas, Gas) {
        (
            Gas(checked_sub_gas(self.feed, earlier.feed)),
            Gas(checked_sub_gas(self.app, earlier.app)),
        )
    }

    /// Total across the feed and application layers (the reported metric).
    pub fn total(&self) -> u64 {
        checked_add_gas(self.feed, self.app)
    }
}

/// Converts Gas to USD given a gas price in gwei and an ETH price in USD.
///
/// The paper quotes "$231 million USD per GiB" for on-chain storage at the
/// Nov. 2019 Ether price; see the unit test reproducing that magnitude.
pub fn gas_to_usd(gas: u64, gas_price_gwei: f64, eth_usd: f64) -> f64 {
    gas as f64 * gas_price_gwei * 1e-9 * eth_usd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_constants() {
        let s = GasSchedule::default();
        assert_eq!(s.tx_cost_words(0), 21_000);
        assert_eq!(s.tx_cost_words(10), 21_000 + 21_760);
        assert_eq!(s.storage_insert(3), 60_000);
        assert_eq!(s.storage_update(3), 15_000);
        assert_eq!(s.storage_read(5), 1_000);
        assert_eq!(s.hash_cost(2), 42);
    }

    #[test]
    fn tx_cost_extends_linearly_beyond_table2_domain() {
        let s = GasSchedule::default();
        assert_eq!(s.tx_cost_words(2000), 21_000 + 2_176 * 2000);
    }

    #[test]
    fn equation1_k_is_about_two() {
        let k = GasSchedule::default().two_competitive_k();
        assert!(k > 2.0 && k < 2.5, "K = {k}");
    }

    #[test]
    fn words_rounding() {
        assert_eq!(words_for_bytes(0), 0);
        assert_eq!(words_for_bytes(31), 1);
        assert_eq!(words_for_bytes(32), 1);
        assert_eq!(words_for_bytes(64), 2);
        assert_eq!(words_for_bytes(65), 3);
    }

    #[test]
    fn meter_attribution() {
        let mut m = GasMeter::new();
        m.charge(Layer::Feed, CostKind::Hash, 36);
        m.charge(Layer::Feed, CostKind::Hash, 4);
        m.charge(Layer::Application, CostKind::StorageInsert, 20_000);
        assert_eq!(m.kind_total(Layer::Feed, CostKind::Hash), Gas(40));
        assert_eq!(m.kind_total(Layer::Application, CostKind::Hash), Gas(0));
        assert_eq!(m.layer_total(Layer::Feed), Gas(40));
        assert_eq!(m.layer_total(Layer::Application), Gas(20_000));
        assert_eq!(m.total(), 20_040);
    }

    #[test]
    fn snapshot_delta() {
        let mut m = GasMeter::new();
        m.charge(Layer::Feed, CostKind::Log, 375);
        let s1 = m.snapshot();
        m.charge(Layer::Feed, CostKind::Log, 1000);
        m.charge(Layer::Application, CostKind::StorageRead, 200);
        let s2 = m.snapshot();
        let (feed, app) = s2.since(s1);
        assert_eq!(feed, Gas(1000));
        assert_eq!(app, Gas(200));
    }

    #[test]
    fn meter_reset() {
        let mut m = GasMeter::new();
        m.charge_tx(Layer::Feed, 64);
        assert!(m.total() > 0);
        m.reset();
        assert_eq!(m.total(), 0);
    }

    /// The paper's §2.2 comparison: storing 1 GiB on-chain is wildly more
    /// expensive than cloud storage (which is free-tier). Note: the paper
    /// quotes "$231 million"; Table 2's own schedule at the stated 2 gwei /
    /// Nov-2019 Ether price yields ≈ $242k — still 5 orders of magnitude
    /// above the $0 cloud cost, so the argument stands. We assert the value
    /// computed from the schedule the paper actually publishes.
    #[test]
    fn gigabyte_storage_cost_magnitude() {
        let s = GasSchedule::default();
        let words = words_for_bytes(1 << 30);
        let gas = s.storage_insert(words);
        let usd = gas_to_usd(gas, 2.0, 180.0);
        assert!(usd > 200e3, "1 GiB costs ${usd:.0}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "gas amount overflow")]
    fn gas_add_overflow_is_loud_in_debug() {
        let _ = Gas(u64::MAX) + Gas(1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "gas amount underflow")]
    fn snapshot_differencing_across_reset_is_loud_in_debug() {
        let mut m = GasMeter::new();
        m.charge(Layer::Feed, CostKind::Log, 375);
        let stale = m.snapshot();
        m.reset();
        let _ = m.snapshot().since(stale);
    }

    #[test]
    fn checked_helpers_pass_through_in_range() {
        assert_eq!(checked_add_gas(3, 4), 7);
        assert_eq!(checked_sub_gas(9, 4), 5);
    }

    #[test]
    fn default_price_is_neutral() {
        let mut m = GasMeter::new();
        assert_eq!(m.price_permille(), BASE_PRICE_PERMILLE);
        m.charge_tx(Layer::Feed, 32);
        assert_eq!(m.total(), 23_176, "flat price reproduces Table 2 exactly");
    }

    #[test]
    fn price_scales_charges_and_clamps_zero() {
        let mut m = GasMeter::new();
        m.set_price_permille(2000);
        m.charge(Layer::Feed, CostKind::StorageRead, 200);
        assert_eq!(m.layer_total(Layer::Feed), Gas(400));
        let cost = m.charge_tx(Layer::Feed, 0);
        assert_eq!(cost, 42_000, "charge_tx returns the scaled cost");
        m.set_price_permille(0);
        assert_eq!(m.price_permille(), 1, "zero price clamps to 1 permille");
        m.set_price_permille(500);
        m.charge(Layer::Application, CostKind::StorageUpdate, 5000);
        assert_eq!(m.layer_total(Layer::Application), Gas(2500));
    }

    #[test]
    fn fee_regimes_are_pure_bounded_and_seed_sensitive() {
        for fee in [
            FeeProcess::step(7),
            FeeProcess::spike(7),
            FeeProcess::mean_reverting(7),
        ] {
            for h in 0..200 {
                let p = fee.price_permille(h);
                assert_eq!(p, fee.price_permille(h), "pure in height");
                assert!((1..=10_000).contains(&p), "bounded: {p}");
            }
        }
        let a: Vec<u64> = (0..64)
            .map(|h| FeeProcess::spike(1).price_permille(h))
            .collect();
        let b: Vec<u64> = (0..64)
            .map(|h| FeeProcess::spike(2).price_permille(h))
            .collect();
        assert_ne!(a, b, "different seeds shift the spike phase");
    }

    #[test]
    fn spike_regime_actually_spikes() {
        let fee = FeeProcess::spike(7);
        let prices: Vec<u64> = (0..64).map(|h| fee.price_permille(h)).collect();
        assert!(prices.contains(&5000), "peak blocks exist");
        assert!(prices.contains(&900), "base blocks exist");
    }

    #[test]
    fn mean_reverting_stays_near_base() {
        let fee = FeeProcess::mean_reverting(3);
        for h in 0..500 {
            let p = fee.price_permille(h);
            assert!((600..=1400).contains(&p), "|p - base| <= max_dev: {p}");
        }
    }

    #[test]
    fn fee_spec_parsing() {
        assert_eq!(FeeProcess::parse(""), Ok(None));
        assert_eq!(FeeProcess::parse("flat"), Ok(None));
        assert_eq!(FeeProcess::parse("0"), Ok(None));
        assert_eq!(FeeProcess::parse("spike"), Ok(Some(FeeProcess::spike(7))));
        assert_eq!(FeeProcess::parse("step:11"), Ok(Some(FeeProcess::step(11))));
        assert_eq!(
            FeeProcess::parse("mean-revert:2"),
            Ok(Some(FeeProcess::mean_reverting(2)))
        );
        assert!(FeeProcess::parse("banana").is_err());
        assert!(FeeProcess::parse("spike:xyz").is_err());
    }

    #[test]
    fn gas_arithmetic() {
        let g = Gas(10) + Gas(5);
        assert_eq!(g, Gas(15));
        assert_eq!(g - Gas(5), Gas(10));
        let sum: Gas = [Gas(1), Gas(2), Gas(3)].into_iter().sum();
        assert_eq!(sum, Gas(6));
        assert_eq!(Gas(100).per_op(4), 25.0);
        assert_eq!(Gas(100).per_op(0), 0.0);
    }
}
