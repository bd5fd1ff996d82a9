//! Online replication decision-making (paper §3.1, Appendix A and C.3).
//!
//! A policy observes the per-key read/write stream and outputs the *desired*
//! replication state after each operation. The data owner's actuator
//! compares desired against actual state and stages R↔NR transitions for the
//! next epoch's `update` transaction.
//!
//! Implemented policies:
//!
//! | Policy | Paper | Guarantee |
//! |--------|-------|-----------|
//! | [`Bl1`] (never replicate) | §2.3 | — |
//! | [`Bl2`] (always replicate) | §2.3 | — |
//! | [`Memoryless`] | Algorithm 1 | `1 + K·Cread_off/Cupdate`-competitive; 2-competitive at `K = Cupdate/Cread_off` (Eq. 1) |
//! | [`Memorizing`] | Algorithm 2 | `(4D+2)/K'`-competitive |
//! | [`AdaptiveK`] (K1/K2) | Appendix C.3 | heuristic |
//! | [`OfflineOptimal`] | Appendix A | cost-optimal reference (needs the future) |

use std::collections::{BTreeMap, HashMap, VecDeque};

use grub_gas::GasSchedule;
use grub_merkle::ReplState;
use grub_workload::{Op, OpSource, Trace};

use crate::{map_heap_bytes, seed_entry, with_entry};

/// A replication decision maker.
///
/// Implementations are deterministic state machines over the operation
/// stream; [`ReplicationPolicy::on_write`] / [`ReplicationPolicy::on_read`]
/// return the state the record *should* have after the operation.
pub trait ReplicationPolicy {
    /// Observes a write of `key`, returning the desired state.
    fn on_write(&mut self, key: &str) -> ReplState;

    /// Observes a read of `key`, returning the desired state.
    fn on_read(&mut self, key: &str) -> ReplState;

    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// Seeds the policy's view of a preloaded record's initial state
    /// (warm-start deployments preload records already replicated; the
    /// policy must not treat the first read as a fresh NR record).
    /// Seeding an unseen key with NR — the state every key starts in — is a
    /// no-op: the policy stores nothing for it until an operation arrives,
    /// so a not-replicated preload costs the policy no memory.
    fn seed_state(&mut self, _key: &str, _state: ReplState) {}

    /// Heap bytes the policy's state owns (its per-key records and any
    /// window it keeps) — one entry of the memory ledger (ARCHITECTURE.md).
    /// Policies that do not report it (the stateless baselines, the offline
    /// reference) return 0.
    fn heap_bytes(&self) -> usize {
        0
    }

    /// Observes the chain's current gas-price multiplier (permille of the
    /// flat schedule, [`grub_gas::BASE_PRICE_PERMILLE`] = flat). The driver
    /// feeds this from the last mined block whenever a fee process is
    /// configured; fee-oblivious policies (the default) ignore it.
    fn observe_fee_price(&mut self, _price_permille: u64) {}
}

/// BL1: static non-replication — data only on the SP (§2.3).
#[derive(Debug, Default, Clone)]
pub struct Bl1;

impl ReplicationPolicy for Bl1 {
    fn on_write(&mut self, _key: &str) -> ReplState {
        ReplState::NotReplicated
    }
    fn on_read(&mut self, _key: &str) -> ReplState {
        ReplState::NotReplicated
    }
    fn name(&self) -> String {
        "BL1 (no replica)".into()
    }
}

/// BL2: static full replication — every record also on chain (§2.3).
#[derive(Debug, Default, Clone)]
pub struct Bl2;

impl ReplicationPolicy for Bl2 {
    fn on_write(&mut self, _key: &str) -> ReplState {
        ReplState::Replicated
    }
    fn on_read(&mut self, _key: &str) -> ReplState {
        ReplState::Replicated
    }
    fn name(&self) -> String {
        "BL2 (always replicate)".into()
    }
}

/// Algorithm 1: the memoryless online algorithm.
///
/// Keeps one counter per NR record counting consecutive reads since the last
/// write; at `K` reads the record flips to R. Every write resets the record
/// to NR. With `K = Cupdate/Cread_off` (Equation 1) the worst-case Gas is
/// within 2× of the offline optimum (Theorem A.1).
#[derive(Debug, Clone)]
pub struct Memoryless {
    k: u64,
    /// Bumped by [`Memoryless::set_k`]: a counter stamped with an older era
    /// reads as zero.
    era: u64,
    keys: HashMap<String, MemorylessKey>,
}

#[derive(Debug, Clone, Copy, Default)]
struct MemorylessKey {
    state: ReplState,
    /// Consecutive reads since the last write, as of `era`.
    counter: u64,
    era: u64,
}

impl Memoryless {
    /// Creates the algorithm with threshold `K`.
    pub fn new(k: u64) -> Self {
        Memoryless {
            k,
            era: 0,
            keys: HashMap::new(),
        }
    }

    /// The 2-competitive `K` from the Gas schedule (Equation 1), rounded.
    pub fn two_competitive(schedule: &GasSchedule) -> Self {
        Self::new(schedule.two_competitive_k().round().max(1.0) as u64)
    }

    /// The configured threshold.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Retunes the threshold in place: every decision stands, every counter
    /// restarts (memoryless semantics).
    pub(crate) fn set_k(&mut self, k: u64) {
        self.k = k;
        self.era += 1;
    }
}

impl ReplicationPolicy for Memoryless {
    fn seed_state(&mut self, key: &str, state: ReplState) {
        seed_entry(&mut self.keys, key, state, |entry| entry.state = state);
    }

    fn heap_bytes(&self) -> usize {
        map_heap_bytes(&self.keys, |_| 0)
    }

    fn on_write(&mut self, key: &str) -> ReplState {
        with_entry(&mut self.keys, key, |entry| {
            (entry.state, entry.counter) = (ReplState::NotReplicated, 0);
        });
        ReplState::NotReplicated
    }

    fn on_read(&mut self, key: &str) -> ReplState {
        with_entry(&mut self.keys, key, |entry| {
            if entry.state == ReplState::Replicated {
                return ReplState::Replicated;
            }
            if entry.era != self.era {
                (entry.counter, entry.era) = (0, self.era);
            }
            if entry.counter < self.k {
                entry.counter += 1;
            }
            if entry.counter >= self.k {
                (entry.state, entry.counter) = (ReplState::Replicated, 0);
            }
            entry.state
        })
    }

    fn name(&self) -> String {
        format!("GRuB-memoryless (K={})", self.k)
    }
}

/// Algorithm 2: the memorizing online algorithm.
///
/// Keeps cumulative read and write counters per record, exploiting temporal
/// locality. A record flips to R when `wCount·K' + D ≤ rCount` and back to
/// NR when `wCount·K' − D ≥ rCount`; each flip partially resets the counters
/// (per the paper's prose — its pseudocode has a typo, using an undefined
/// `Y`; we follow the prose and the analysis in Appendix A). The algorithm
/// is `(4D+2)/K'`-competitive (Theorem A.2).
#[derive(Debug, Clone)]
pub struct Memorizing {
    k_prime: f64,
    d: f64,
    keys: HashMap<String, MemorizingKey>,
}

#[derive(Debug, Clone, Copy, Default)]
struct MemorizingKey {
    state: ReplState,
    reads: f64,
    writes: f64,
}

impl MemorizingKey {
    fn check(&mut self, k_prime: f64, d: f64) -> ReplState {
        if self.writes * k_prime + d <= self.reads {
            // Reset per the paper: wCount ← 0, rCount ← D.
            (self.state, self.writes, self.reads) = (ReplState::Replicated, 0.0, d);
        } else if self.writes * k_prime - d >= self.reads {
            // Reset per the paper: rCount ← 0, wCount ← D/K'.
            (self.state, self.reads, self.writes) = (ReplState::NotReplicated, 0.0, d / k_prime);
        }
        self.state
    }
}

impl Memorizing {
    /// Creates the algorithm with parameters `K'` and `D`.
    ///
    /// # Panics
    ///
    /// Panics unless `k_prime > 0` and `d >= 0`.
    pub fn new(k_prime: f64, d: f64) -> Self {
        assert!(k_prime > 0.0, "K' must be positive");
        assert!(d >= 0.0, "D must be non-negative");
        Memorizing {
            k_prime,
            d,
            keys: HashMap::new(),
        }
    }
}

impl ReplicationPolicy for Memorizing {
    fn seed_state(&mut self, key: &str, state: ReplState) {
        seed_entry(&mut self.keys, key, state, |entry| {
            entry.state = state;
            if state == ReplState::Replicated {
                // Start at the replication boundary so the next writes can
                // deprecate it (the paper's counter reset after a flip to R).
                entry.reads = self.d;
            }
        });
    }

    fn heap_bytes(&self) -> usize {
        map_heap_bytes(&self.keys, |_| 0)
    }

    fn on_write(&mut self, key: &str) -> ReplState {
        with_entry(&mut self.keys, key, |entry| {
            entry.writes += 1.0;
            entry.check(self.k_prime, self.d)
        })
    }

    fn on_read(&mut self, key: &str) -> ReplState {
        with_entry(&mut self.keys, key, |entry| {
            entry.reads += 1.0;
            entry.check(self.k_prime, self.d)
        })
    }

    fn name(&self) -> String {
        format!("GRuB-memorizing (K'={}, D={})", self.k_prime, self.d)
    }
}

/// The adaptive-K heuristics of Appendix C.3.
///
/// On each write the policy predicts the coming read burst as the average
/// reads-per-write over the last `window` writes of the same key, and
/// compares the prediction against the Equation-1 threshold:
///
/// * **K1** ("the future repeats the past"): replicate iff
///   `predicted ≥ threshold`;
/// * **K2** (the dual: "the future does not repeat the past"): replicate iff
///   `predicted < threshold`.
///
/// The paper finds K1 slightly *worse* (+0.8% Gas) and K2 better (−12.8%)
/// on the oracle trace — see Table 5 and the `fig15_table5` experiment.
#[derive(Debug, Clone)]
pub struct AdaptiveK {
    dual: bool,
    window: usize,
    threshold: f64,
    keys: HashMap<String, AdaptiveKey>,
}

#[derive(Debug, Clone, Default)]
struct AdaptiveKey {
    state: ReplState,
    /// Reads since the last write (the open burst).
    since_write: u64,
    /// The last `window` closed bursts, oldest first.
    history: VecDeque<u64>,
}

impl AdaptiveK {
    /// The K1 policy (replicate when the predicted burst clears the
    /// threshold).
    pub fn k1(window: usize, schedule: &GasSchedule) -> Self {
        Self::with_threshold(false, window, schedule.two_competitive_k())
    }

    /// The K2 policy (the dual of K1).
    pub fn k2(window: usize, schedule: &GasSchedule) -> Self {
        Self::with_threshold(true, window, schedule.two_competitive_k())
    }

    /// Explicit-threshold constructor for ablations.
    pub fn with_threshold(dual: bool, window: usize, threshold: f64) -> Self {
        AdaptiveK {
            dual,
            window: window.max(1),
            threshold,
            keys: HashMap::new(),
        }
    }
}

impl ReplicationPolicy for AdaptiveK {
    fn on_write(&mut self, key: &str) -> ReplState {
        with_entry(&mut self.keys, key, |entry| {
            // Close out the burst that followed the previous write.
            let burst = std::mem::take(&mut entry.since_write);
            entry.history.push_back(burst);
            if entry.history.len() > self.window {
                entry.history.pop_front();
            }
            let predicted = entry.history.iter().sum::<u64>() as f64 / entry.history.len() as f64;
            let repeat_says_replicate = predicted >= self.threshold;
            entry.state = if repeat_says_replicate != self.dual {
                ReplState::Replicated
            } else {
                ReplState::NotReplicated
            };
            entry.state
        })
    }

    fn on_read(&mut self, key: &str) -> ReplState {
        with_entry(&mut self.keys, key, |entry| {
            entry.since_write += 1;
            entry.state
        })
    }

    fn heap_bytes(&self) -> usize {
        map_heap_bytes(&self.keys, |entry| {
            entry.history.capacity() * std::mem::size_of::<u64>()
        })
    }

    fn name(&self) -> String {
        format!(
            "GRuB-memorizing (Adaptive {}, w={})",
            if self.dual { "K2" } else { "K1" },
            self.window
        )
    }
}

/// The offline-optimal reference of Appendix A: sees the whole trace in
/// advance and, at each write, replicates exactly when the number of reads
/// before the next write of that key is at least the Equation-1 threshold.
#[derive(Debug, Clone)]
pub struct OfflineOptimal {
    keys: OfflineKeys,
}

/// Per key: the queue of decisions still to come, one per write in trace
/// order, and the decision in force. A BTree map keeps the offline
/// precomputation order-deterministic (this is a reference policy, never a
/// hot path).
type OfflineKeys = BTreeMap<String, (VecDeque<ReplState>, ReplState)>;

impl OfflineOptimal {
    /// Precomputes decisions for `trace` with threshold `k` (use
    /// `schedule.two_competitive_k()` for the Gas-optimal setting), with an
    /// unbounded lookahead — every read up to the key's next write counts.
    pub fn from_trace(trace: &Trace, k: f64) -> Self {
        Self::from_trace_windowed(trace, k, usize::MAX)
    }

    /// Like [`OfflineOptimal::from_trace`] with the lookahead bounded to a
    /// sliding `window` of trace operations (clamped to ≥ 1): a write's
    /// decision counts only the reads arriving within the next `window`
    /// ops. A window at least as long as the trace reproduces the
    /// unbounded construction exactly (asserted per scenario in
    /// `tests/scenario_matrix.rs`).
    pub fn from_trace_windowed(trace: &Trace, k: f64, window: usize) -> Self {
        let mut source = trace.clone().into_source();
        Self::from_source(&mut source, k, window)
    }

    /// The streaming construction: pulls the trace through an [`OpSource`]
    /// one op at a time, so the precomputation's live state is bounded by
    /// the lookahead `window` (open write horizons), never the trace length
    /// — the whole-trace materialization the old construction required is
    /// gone.
    pub fn from_source(source: &mut dyn OpSource, k: f64, window: usize) -> Self {
        let window = window.max(1);
        // reads-following count per (key, write occurrence), closed out when
        // the next write of the same key arrives, the lookahead window ends,
        // or the trace does.
        let mut upcoming = OfflineKeys::new();
        let mut open: BTreeMap<String, (usize, u64)> = BTreeMap::new();
        let mut horizon: VecDeque<(usize, String)> = VecDeque::new();
        let mut i = 0usize;
        while let Some(op) = source.next_op() {
            while let Some((opened_at, _)) = horizon.front() {
                if i - opened_at < window {
                    break;
                }
                let Some((opened_at, key)) = horizon.pop_front() else {
                    break;
                };
                // A newer write of the same key reuses the slot; only close
                // it if this horizon entry is still the live occurrence.
                if open.get(&key).is_some_and(|(at, _)| *at == opened_at) {
                    if let Some((_, reads)) = open.remove(&key) {
                        push_decision(&mut upcoming, &key, reads, k);
                    }
                }
            }
            match op {
                Op::Write { key, .. } => {
                    if let Some((_, reads)) = open.insert(key.clone(), (i, 0)) {
                        push_decision(&mut upcoming, &key, reads, k);
                    }
                    horizon.push_back((i, key));
                }
                Op::Read { key } => {
                    if let Some((_, c)) = open.get_mut(&key) {
                        *c += 1;
                    }
                }
                Op::Scan { start_key, .. } => {
                    if let Some((_, c)) = open.get_mut(&start_key) {
                        *c += 1;
                    }
                }
            }
            i += 1;
        }
        for (key, (_, reads)) in open {
            push_decision(&mut upcoming, &key, reads, k);
        }
        OfflineOptimal { keys: upcoming }
    }
}

fn push_decision(map: &mut OfflineKeys, key: &str, reads: u64, k: f64) {
    let state = if (reads as f64) >= k {
        ReplState::Replicated
    } else {
        ReplState::NotReplicated
    };
    map.entry(key.to_owned()).or_default().0.push_back(state);
}

impl ReplicationPolicy for OfflineOptimal {
    fn on_write(&mut self, key: &str) -> ReplState {
        let Some((upcoming, state)) = self.keys.get_mut(key) else {
            return ReplState::NotReplicated;
        };
        *state = upcoming.pop_front().unwrap_or_default();
        *state
    }

    fn on_read(&mut self, key: &str) -> ReplState {
        self.keys.get(key).map(|e| e.1).unwrap_or_default()
    }

    fn name(&self) -> String {
        "Optimal offline".into()
    }
}

/// A self-tuning variant of the memoryless algorithm — the extension the
/// paper leaves as future work ("using machine learning techniques to
/// automatically and adaptively find an optimal K", Appendix C.3).
///
/// The tuner keeps a sliding window of observed read bursts and, every
/// `retune_every` writes, replays the window *counterfactually* under each
/// candidate `K`, charging the Gas cost model for the decisions that `K`
/// would have made:
///
/// * a burst of `n` reads under threshold `K` pays `min(n, K)` deliveries;
/// * if `n ≥ K` it also pays one replica installation plus cheap on-chain
///   reads for the remaining `n − K` accesses, and one eviction at the next
///   write.
///
/// The candidate with the lowest counterfactual cost becomes the live `K`.
#[derive(Debug, Clone)]
pub struct SelfTuningK {
    inner: Memoryless,
    window: usize,
    retune_every: u64,
    bursts: VecDeque<u64>,
    /// Reads since each key's last write (its open burst).
    since_write: HashMap<String, u64>,
    writes_seen: u64,
    deliver_cost: f64,
    replica_cost: f64,
    onchain_read_cost: f64,
    candidates: Vec<u64>,
}

impl SelfTuningK {
    /// Creates the tuner with a burst window of `window` and the cost model
    /// from `schedule`.
    pub fn new(window: usize, schedule: &GasSchedule) -> Self {
        // A delivery moves the record + a short proof on chain; a replica
        // pays a fresh insert now and an update-priced eviction later.
        let deliver_cost = schedule.tx_cost_words(12) as f64;
        let replica_cost = (schedule.storage_insert(1) + schedule.storage_update(1)) as f64;
        let onchain_read_cost = schedule.storage_read(1) as f64;
        SelfTuningK {
            inner: Memoryless::two_competitive(schedule),
            window: window.max(4),
            retune_every: 8,
            bursts: VecDeque::new(),
            since_write: HashMap::new(),
            writes_seen: 0,
            deliver_cost,
            replica_cost,
            onchain_read_cost,
            candidates: vec![1, 2, 4, 8, 16, 32],
        }
    }

    /// The currently selected threshold.
    pub fn current_k(&self) -> u64 {
        self.inner.k()
    }

    fn counterfactual_cost(&self, k: u64) -> f64 {
        self.bursts
            .iter()
            .map(|&n| {
                let delivered = n.min(k) as f64;
                let mut cost = delivered * self.deliver_cost;
                if n >= k {
                    cost += self.replica_cost + (n - k) as f64 * self.onchain_read_cost;
                }
                cost
            })
            .sum()
    }

    fn retune(&mut self) {
        let best = self
            .candidates
            .iter()
            .copied()
            .min_by(|a, b| {
                self.counterfactual_cost(*a)
                    .total_cmp(&self.counterfactual_cost(*b))
            })
            .unwrap_or(2);
        if best != self.inner.k() {
            self.inner.set_k(best);
        }
    }
}

impl ReplicationPolicy for SelfTuningK {
    fn seed_state(&mut self, key: &str, state: ReplState) {
        self.inner.seed_state(key, state);
    }

    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
            + map_heap_bytes(&self.since_write, |_| 0)
            + self.bursts.capacity() * std::mem::size_of::<u64>()
    }

    fn on_write(&mut self, key: &str) -> ReplState {
        let burst = with_entry(&mut self.since_write, key, std::mem::take);
        self.bursts.push_back(burst);
        while self.bursts.len() > self.window {
            self.bursts.pop_front();
        }
        self.writes_seen += 1;
        if self.writes_seen.is_multiple_of(self.retune_every) && !self.bursts.is_empty() {
            self.retune();
        }
        self.inner.on_write(key)
    }

    fn on_read(&mut self, key: &str) -> ReplState {
        with_entry(&mut self.since_write, key, |burst| *burst += 1);
        self.inner.on_read(key)
    }

    fn name(&self) -> String {
        format!("GRuB-self-tuning (K={}, w={})", self.inner.k(), self.window)
    }
}

/// A fee-aware deferral wrapper: delegates every decision to an inner
/// policy, but while the observed gas price (see
/// [`ReplicationPolicy::observe_fee_price`]) is above `threshold_permille`
/// it suppresses *fresh* NR→R replications — installing a replica costs
/// `Cinsert`-scale gas that is strictly cheaper in the next low-fee window.
///
/// Only installs are deferred: records already replicated keep following the
/// inner policy (evicting and re-installing around a spike would cost more,
/// not less), and data writes are never delayed (freshness is part of the
/// feed's contract). The wrapper tracks the state it last *granted* per key,
/// which — because the actuator realizes every granted transition at the
/// epoch boundary — mirrors the record's actual on-chain state.
pub struct FeeAware {
    inner: Box<dyn ReplicationPolicy>,
    threshold_permille: u64,
    price_permille: u64,
    granted: HashMap<String, ReplState>,
}

impl FeeAware {
    /// Wraps `inner`, deferring replications while the price exceeds
    /// `threshold_permille`.
    pub fn new(inner: Box<dyn ReplicationPolicy>, threshold_permille: u64) -> Self {
        FeeAware {
            inner,
            threshold_permille,
            price_permille: grub_gas::BASE_PRICE_PERMILLE,
            granted: HashMap::new(),
        }
    }

    fn decide(&mut self, key: &str, want: ReplState) -> ReplState {
        let deferring = self.price_permille > self.threshold_permille;
        with_entry(&mut self.granted, key, |have| {
            let install = want == ReplState::Replicated && *have == ReplState::NotReplicated;
            if !(install && deferring) {
                *have = want;
            }
            *have
        })
    }
}

impl ReplicationPolicy for FeeAware {
    fn on_write(&mut self, key: &str) -> ReplState {
        let want = self.inner.on_write(key);
        self.decide(key, want)
    }

    fn on_read(&mut self, key: &str) -> ReplState {
        let want = self.inner.on_read(key);
        self.decide(key, want)
    }

    fn name(&self) -> String {
        format!(
            "fee-aware[>{}‰]({})",
            self.threshold_permille,
            self.inner.name()
        )
    }

    fn seed_state(&mut self, key: &str, state: ReplState) {
        seed_entry(&mut self.granted, key, state, |have| *have = state);
        self.inner.seed_state(key, state);
    }

    fn heap_bytes(&self) -> usize {
        map_heap_bytes(&self.granted, |_| 0) + self.inner.heap_bytes()
    }

    fn observe_fee_price(&mut self, price_permille: u64) {
        self.price_permille = price_permille;
        self.inner.observe_fee_price(price_permille);
    }
}

/// Declarative policy selection for experiment configs.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// Never replicate.
    Bl1,
    /// Always replicate.
    Bl2,
    /// Algorithm 1 with threshold `k`.
    Memoryless {
        /// Consecutive-read threshold.
        k: u64,
    },
    /// Algorithm 2 with parameters `k_prime` and `d`.
    Memorizing {
        /// The K' cost ratio.
        k_prime: f64,
        /// The D sensitivity window.
        d: f64,
    },
    /// Appendix C.3 heuristic, `dual = false` for K1, `true` for K2.
    Adaptive {
        /// Whether to invert the prediction (K2).
        dual: bool,
        /// Number of past writes averaged.
        window: usize,
    },
    /// The future-work extension: counterfactual self-tuning of `K` over a
    /// sliding burst window.
    SelfTuning {
        /// Burst-window length.
        window: usize,
    },
    /// [`FeeAware`] deferral around any inner policy: replications are
    /// postponed while the gas price exceeds the threshold.
    FeeAware {
        /// Prices above this (permille of the flat schedule) defer NR→R.
        threshold_permille: u64,
        /// The wrapped decision maker.
        inner: Box<PolicyKind>,
    },
}

impl PolicyKind {
    /// Instantiates the policy against a Gas schedule.
    pub fn build(&self, schedule: &GasSchedule) -> Box<dyn ReplicationPolicy> {
        match *self {
            PolicyKind::Bl1 => Box::new(Bl1),
            PolicyKind::Bl2 => Box::new(Bl2),
            PolicyKind::Memoryless { k } => Box::new(Memoryless::new(k)),
            PolicyKind::Memorizing { k_prime, d } => Box::new(Memorizing::new(k_prime, d)),
            PolicyKind::Adaptive { dual, window } => Box::new(AdaptiveK::with_threshold(
                dual,
                window,
                schedule.two_competitive_k(),
            )),
            PolicyKind::SelfTuning { window } => Box::new(SelfTuningK::new(window, schedule)),
            PolicyKind::FeeAware {
                threshold_permille,
                ref inner,
            } => Box::new(FeeAware::new(inner.build(schedule), threshold_permille)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grub_workload::ValueSpec;

    const NR: ReplState = ReplState::NotReplicated;
    const R: ReplState = ReplState::Replicated;

    #[test]
    fn bl1_never_replicates() {
        let mut p = Bl1;
        assert_eq!(p.on_write("k"), NR);
        for _ in 0..100 {
            assert_eq!(p.on_read("k"), NR);
        }
    }

    #[test]
    fn bl2_always_replicates() {
        let mut p = Bl2;
        assert_eq!(p.on_write("k"), R);
        assert_eq!(p.on_read("other"), R);
    }

    #[test]
    fn memoryless_flips_after_k_consecutive_reads() {
        let mut p = Memoryless::new(3);
        p.on_write("k");
        assert_eq!(p.on_read("k"), NR);
        assert_eq!(p.on_read("k"), NR);
        assert_eq!(p.on_read("k"), R, "third read reaches K=3");
        assert_eq!(p.on_read("k"), R, "stays replicated");
    }

    #[test]
    fn memoryless_write_resets_to_nr() {
        let mut p = Memoryless::new(2);
        p.on_write("k");
        p.on_read("k");
        p.on_read("k");
        assert_eq!(p.on_read("k"), R);
        assert_eq!(p.on_write("k"), NR, "write evicts");
        assert_eq!(p.on_read("k"), NR, "counter restarted");
        assert_eq!(p.on_read("k"), R);
    }

    #[test]
    fn memoryless_counters_are_per_key() {
        let mut p = Memoryless::new(2);
        p.on_write("a");
        p.on_write("b");
        p.on_read("a");
        assert_eq!(p.on_read("a"), R);
        assert_eq!(p.on_read("b"), NR, "b has its own counter");
    }

    #[test]
    fn an_nr_seed_stores_nothing_for_an_unseen_key_but_resets_a_seen_one() {
        let mut p = Memoryless::new(2);
        p.seed_state("fresh", NR);
        assert_eq!(p.heap_bytes(), 0, "NR is where a fresh key starts");
        p.on_read("k");
        assert_eq!(p.on_read("k"), R);
        // A seen key keeps its record, and the seed overrides its state.
        p.seed_state("k", NR);
        assert_eq!(p.on_read("k"), NR, "counter restarted below K");
        // An R seed is stored, unseen key or not.
        p.seed_state("warm", R);
        assert_eq!(p.on_read("warm"), R);
    }

    #[test]
    fn equation1_k_defaults_to_two() {
        let p = Memoryless::two_competitive(&GasSchedule::default());
        assert_eq!(p.k(), 2);
    }

    #[test]
    fn memorizing_replicates_under_sustained_reads() {
        let mut p = Memorizing::new(2.0, 4.0);
        p.on_write("k"); // w=1: 1·2 − 4 ≥ 0? −2 ≥ 0 no; stays NR
        let mut state = NR;
        for _ in 0..6 {
            state = p.on_read("k");
        }
        // r=6, w=1 ⇒ 1·2 + 4 ≤ 6 ⇒ flip to R.
        assert_eq!(state, R);
    }

    #[test]
    fn memorizing_deprecates_under_sustained_writes() {
        let mut p = Memorizing::new(2.0, 2.0);
        for _ in 0..4 {
            p.on_read("k");
        }
        assert_eq!(p.on_read("k"), R, "5 reads, 0 writes: replicate");
        // Now hammer writes: r stays, w grows until w·2 − 2 ≥ r.
        let mut state = R;
        for _ in 0..10 {
            state = p.on_write("k");
        }
        assert_eq!(state, NR);
    }

    #[test]
    fn memorizing_remembers_across_writes_unlike_memoryless() {
        // Alternating r r w r r w …: memoryless with K=3 never replicates;
        // memorizing accumulates reads and eventually does.
        let mut ml = Memoryless::new(3);
        let mut mz = Memorizing::new(3.0, 1.0);
        let mut ml_final = NR;
        let mut mz_final = NR;
        for _ in 0..30 {
            ml.on_read("k");
            ml.on_read("k");
            ml_final = ml.on_write("k");
            mz.on_read("k");
            mz.on_read("k");
            mz_final = mz.on_write("k");
        }
        assert_eq!(ml_final, NR);
        // Memorizing sees r:w ratio 2 per cycle < K'=3 ⇒ also NR... so use a
        // read-richer cycle for the locality claim.
        let mut mz2 = Memorizing::new(3.0, 1.0);
        let mut state = NR;
        for _ in 0..30 {
            for _ in 0..4 {
                state = mz2.on_read("k");
            }
            mz2.on_write("k");
        }
        assert_eq!(state, R, "ratio 4 > K'=3 accumulates to R");
        let _ = mz_final;
    }

    #[test]
    #[should_panic(expected = "K' must be positive")]
    fn memorizing_rejects_bad_params() {
        Memorizing::new(0.0, 1.0);
    }

    #[test]
    fn adaptive_k1_follows_history() {
        let schedule = GasSchedule::default();
        let mut p = AdaptiveK::k1(3, &schedule);
        // Three writes each followed by 5 reads ⇒ prediction 5 ≥ 2.3 ⇒ R.
        for _ in 0..3 {
            p.on_write("k");
            for _ in 0..5 {
                p.on_read("k");
            }
        }
        assert_eq!(p.on_write("k"), R);
    }

    #[test]
    fn adaptive_k2_is_dual_of_k1() {
        let schedule = GasSchedule::default();
        let mut k1 = AdaptiveK::k1(3, &schedule);
        let mut k2 = AdaptiveK::k2(3, &schedule);
        for _ in 0..3 {
            k1.on_write("k");
            k2.on_write("k");
            for _ in 0..5 {
                k1.on_read("k");
                k2.on_read("k");
            }
        }
        assert_eq!(k1.on_write("k"), R);
        assert_eq!(k2.on_write("k"), NR);
    }

    #[test]
    fn offline_optimal_replicates_exactly_long_bursts() {
        let w = |key: &str| Op::Write {
            key: key.into(),
            value: ValueSpec::new(8, 0),
        };
        let r = |key: &str| Op::Read { key: key.into() };
        // write, 1 read, write, 5 reads.
        let trace: Trace = vec![
            w("k"),
            r("k"),
            w("k"),
            r("k"),
            r("k"),
            r("k"),
            r("k"),
            r("k"),
        ]
        .into_iter()
        .collect();
        let mut p = OfflineOptimal::from_trace(&trace, 2.3);
        assert_eq!(p.on_write("k"), NR, "only 1 read follows: not worth it");
        assert_eq!(p.on_read("k"), NR);
        assert_eq!(p.on_write("k"), R, "5 reads follow: replicate at write");
    }

    #[test]
    fn offline_optimal_handles_unseen_keys() {
        let trace = Trace::new();
        let mut p = OfflineOptimal::from_trace(&trace, 2.0);
        assert_eq!(p.on_write("ghost"), NR);
        assert_eq!(p.on_read("ghost"), NR);
    }

    #[test]
    fn policy_kind_builds_all_variants() {
        let s = GasSchedule::default();
        for kind in [
            PolicyKind::Bl1,
            PolicyKind::Bl2,
            PolicyKind::Memoryless { k: 2 },
            PolicyKind::Memorizing {
                k_prime: 2.0,
                d: 1.0,
            },
            PolicyKind::Adaptive {
                dual: false,
                window: 3,
            },
            PolicyKind::Adaptive {
                dual: true,
                window: 3,
            },
        ] {
            let mut p = kind.build(&s);
            let _ = p.on_write("k");
            let _ = p.on_read("k");
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn self_tuner_raises_k_for_single_read_bursts() {
        // Bursts of exactly one read: K=1 pays a wasted replica every cycle
        // (the deliver happens anyway, then the write evicts), so any K ≥ 2
        // is strictly cheaper and the tuner must move off K=1.
        let schedule = GasSchedule::default();
        let mut p = SelfTuningK::new(16, &schedule);
        for _ in 0..64 {
            p.on_write("k");
            p.on_read("k");
        }
        assert!(p.current_k() >= 2, "K=1 wastes a replica per 1-read burst");
    }

    #[test]
    fn self_tuner_lowers_k_under_long_bursts() {
        let schedule = GasSchedule::default();
        let mut p = SelfTuningK::new(16, &schedule);
        for _ in 0..64 {
            p.on_write("k");
            for _ in 0..24 {
                p.on_read("k");
            }
        }
        assert_eq!(
            p.current_k(),
            1,
            "long bursts: replicate on the first read (K=1) is optimal"
        );
    }

    #[test]
    fn self_tuner_never_replicates_write_only_streams() {
        // With zero-read bursts every candidate K costs the same (nothing),
        // and whatever K is selected must keep the record off chain.
        let schedule = GasSchedule::default();
        let mut p = SelfTuningK::new(16, &schedule);
        for _ in 0..64 {
            assert_eq!(p.on_write("k"), NR);
        }
    }

    /// Theorem A.1's worst case: every write followed by exactly K reads
    /// means the memoryless algorithm replicates right when it stops paying
    /// off. The decision sequence must be: flip to R on the K-th read, back
    /// to NR on the write — every cycle.
    #[test]
    fn memoryless_worst_case_oscillates() {
        let k = 4u64;
        let mut p = Memoryless::new(k);
        for cycle in 0..10 {
            assert_eq!(p.on_write("k"), NR, "cycle {cycle}");
            for i in 1..k {
                assert_eq!(p.on_read("k"), NR, "cycle {cycle} read {i}");
            }
            assert_eq!(p.on_read("k"), R, "cycle {cycle} K-th read");
        }
    }
}
