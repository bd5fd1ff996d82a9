//! The single-chain simulator: mempool, blocks, receipts, events, finality,
//! and the chain-realism axes (seeded reorgs, a volatile gas-price process,
//! bounded-capacity mempool contention).

use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use grub_fault::{knob, FaultPoint, KnobError};
use grub_gas::{seeded_mix, FeeProcess, GasMeter, GasSnapshot, Layer};

use crate::contract::{CallContext, CallRecord, Contract, Deployed, ExecState, VmError};
use crate::storage::{self, ContractStorage, JournalEntry};
use crate::types::{Address, TxId};

/// Parameters of the seeded fork process (see [`ChainConfig::reorg`]).
///
/// Every `period` blocks the chain mines a short-lived fork block (with a
/// seeded timestamp skew), rolls back `1 + mix(seed, height) % max_depth`
/// canonical blocks — clamped to what the undo window and retained bodies
/// allow — and re-commits the canonical branch from the recorded per-block
/// transaction lists. The re-committed branch is byte-identical to a
/// straight-line run, so [`Blockchain::chain_digest`] is reorg-transparent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReorgConfig {
    /// Seed fixing fork depths and fork-block timestamp skew.
    pub seed: u64,
    /// A fork fires at every height divisible by this (min 1).
    pub period: u64,
    /// Upper bound on how many canonical blocks one fork rolls back (min 1).
    pub max_depth: usize,
}

/// Mempool contention parameters (see [`ChainConfig::mempool`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MempoolConfig {
    /// Maximum transactions mined per block (min 1). Overflow stays queued
    /// for later blocks, ordered by descending [`Transaction::priority`]
    /// (stable: equal priorities keep submission order).
    pub max_txs_per_block: usize,
}

/// Inclusion-latency parameters (see [`ChainConfig::latency`]).
///
/// Models submission→inclusion delay: each submitted transaction waits a
/// seeded number of blocks (`mix(seed, tx_id) % (max_delay_blocks + 1)`)
/// before it becomes eligible to mine, plus one extra block per full
/// [`MempoolConfig::max_txs_per_block`] of queue ahead of it when the
/// mempool is bounded — so congestion pressure lengthens the wait
/// deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Seed fixing each transaction's inclusion delay.
    pub seed: u64,
    /// Upper bound on the seeded per-transaction delay, in blocks (min 1).
    pub max_delay_blocks: u64,
}

/// Chain timing parameters (paper §3.4): block period `B`, finality depth
/// `F`, and transaction propagation delay `Pt` — plus the simulator's
/// block-retention window for streamed-scale runs and the optional
/// chain-realism axes (reorgs, fee volatility, mempool congestion).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainConfig {
    /// Average block production period, milliseconds (Ethereum: 10–19 s).
    pub block_period_ms: u64,
    /// Blocks needed before a transaction is considered final (Ethereum: 250).
    pub finality_depth: u64,
    /// Worst-case transaction propagation delay to all nodes, milliseconds.
    pub propagation_ms: u64,
    /// How many mined block bodies to keep resident: `None` (the default)
    /// keeps the whole chain, `Some(n)` drops the oldest bodies past `n` —
    /// what lets a million-op streamed run execute at bounded memory.
    /// Chain state (storage, Gas meter, height) and the running
    /// [`Blockchain::chain_digest`] are unaffected; only the replayable
    /// block *bodies* (receipts, events, call records) age out, so
    /// off-chain monitors polling [`Blockchain::events_since`] /
    /// [`Blockchain::calls_since`] must keep their cursors within the
    /// window (every per-epoch watchdog does — cursors advance each
    /// epoch, and an epoch spans a handful of blocks).
    pub retain_blocks: Option<usize>,
    /// Seeded fork process; `None` (the default) never forks.
    pub reorg: Option<ReorgConfig>,
    /// Seeded per-block gas-price process; `None` (the default) charges the
    /// flat Table-2 schedule.
    pub fee: Option<FeeProcess>,
    /// Bounded per-block transaction capacity; `None` (the default) mines
    /// every queued transaction in one block.
    pub mempool: Option<MempoolConfig>,
    /// Operational confirmation depth: a mined transaction is acknowledged
    /// (policy-visible, DO/SP-observable) only once its block is this many
    /// blocks deep. `0` (the default) acknowledges at the tip, which is the
    /// pre-confirmation-semantics behavior. Distinct from
    /// [`ChainConfig::finality_depth`], the paper's worst-case safety
    /// parameter `F` (Ethereum: 250): `confirm_depth` is the depth the
    /// *harness* waits for before treating a write as settled, and it also
    /// clamps how deep the seeded fork process may roll back — a reorg never
    /// crosses the confirmation frontier.
    pub confirm_depth: u64,
    /// Seeded submission→inclusion latency; `None` (the default) mines every
    /// queued transaction in the very next block.
    pub latency: Option<LatencyConfig>,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            block_period_ms: 13_000,
            finality_depth: 250,
            propagation_ms: 500,
            retain_blocks: None,
            reorg: None,
            fee: None,
            mempool: None,
            confirm_depth: 0,
            latency: None,
        }
    }
}

impl ChainConfig {
    /// Enables the seeded fork process: a fork at every height divisible by
    /// `period`, rolling back up to `max_depth` canonical blocks.
    pub fn reorg(mut self, seed: u64, period: u64, max_depth: usize) -> Self {
        self.reorg = Some(ReorgConfig {
            seed,
            period: period.max(1),
            max_depth: max_depth.max(1),
        });
        self
    }

    /// Enables a seeded per-block gas-price process.
    pub fn fee(mut self, process: FeeProcess) -> Self {
        self.fee = Some(process);
        self
    }

    /// Bounds per-block transaction capacity to `max_txs_per_block`.
    pub fn mempool(mut self, max_txs_per_block: usize) -> Self {
        self.mempool = Some(MempoolConfig {
            max_txs_per_block: max_txs_per_block.max(1),
        });
        self
    }

    /// Sets the operational confirmation depth (0 = acknowledge at the tip).
    pub fn confirm_depth(mut self, depth: u64) -> Self {
        self.confirm_depth = depth;
        self
    }

    /// Enables seeded submission→inclusion latency of up to
    /// `max_delay_blocks` blocks per transaction.
    pub fn latency(mut self, seed: u64, max_delay_blocks: u64) -> Self {
        self.latency = Some(LatencyConfig {
            seed,
            max_delay_blocks: max_delay_blocks.max(1),
        });
        self
    }

    /// Applies the chain-realism environment knobs on top of this config:
    ///
    /// * `GRUB_REORG=seed:period:depth` (or `1` for defaults `7:5:2`)
    /// * `GRUB_FEE_SCHEDULE=step|spike|revert[:seed]` (see
    ///   [`FeeProcess::parse`])
    /// * `GRUB_MEMPOOL=<max txs per block>`
    /// * `GRUB_CONFIRM_DEPTH=<blocks>` (confirmation depth; `0` = at-tip)
    /// * `GRUB_INCLUSION_LATENCY=<max delay blocks>[:seed]` (seed default 0)
    ///
    /// Unset, empty, or `0` leaves the corresponding axis off.
    ///
    /// # Errors
    ///
    /// A [`KnobError`] naming the knob, its value and the accepted form — a
    /// typo must not silently run a different scenario.
    pub fn with_env_realism(mut self) -> Result<Self, KnobError> {
        if let Some(raw) = knob("GRUB_REORG") {
            let (seed, period, depth) = parse_reorg(&raw)?;
            self = self.reorg(seed, period, depth);
        }
        if let Some(raw) = knob("GRUB_FEE_SCHEDULE") {
            if let Some(fee) = parse_fee_schedule(&raw)? {
                self = self.fee(fee);
            }
        }
        if let Some(raw) = knob("GRUB_MEMPOOL") {
            self = self.mempool(parse_count("GRUB_MEMPOOL", &raw)?);
        }
        if let Some(raw) = knob("GRUB_CONFIRM_DEPTH") {
            self = self.confirm_depth(parse_count("GRUB_CONFIRM_DEPTH", &raw)?);
        }
        if let Some(raw) = knob("GRUB_INCLUSION_LATENCY") {
            let (max_delay, seed) = parse_latency(&raw)?;
            self = self.latency(seed, max_delay);
        }
        Ok(self)
    }
}

/// `GRUB_REORG`: `seed:period:depth`, or `1` for the defaults `7:5:2`.
fn parse_reorg(raw: &str) -> Result<(u64, u64, usize), KnobError> {
    if raw == "1" {
        return Ok((7, 5, 2));
    }
    let bad = || KnobError::new("GRUB_REORG", raw, "seed:period:depth, or 1 for 7:5:2");
    let mut fields = raw.split(':').map(|p| p.parse::<u64>().map_err(|_| bad()));
    match (fields.next(), fields.next(), fields.next(), fields.next()) {
        (Some(seed), Some(period), Some(depth), None) => Ok((seed?, period?, depth? as usize)),
        _ => Err(bad()),
    }
}

/// `GRUB_FEE_SCHEDULE`: [`FeeProcess::parse`]'s grammar (`flat` is off).
fn parse_fee_schedule(raw: &str) -> Result<Option<FeeProcess>, KnobError> {
    let want = "step, spike or revert, optionally :<seed> (or flat)";
    FeeProcess::parse(raw).map_err(|_| KnobError::new("GRUB_FEE_SCHEDULE", raw, want))
}

/// `GRUB_MEMPOOL` / `GRUB_CONFIRM_DEPTH`: one non-negative count.
fn parse_count<T: std::str::FromStr>(name: &'static str, raw: &str) -> Result<T, KnobError> {
    raw.parse()
        .map_err(|_| KnobError::new(name, raw, "a non-negative whole number"))
}

/// `GRUB_INCLUSION_LATENCY`: `<max delay blocks>[:<seed>]`, as `(max, seed)`
/// with the seed defaulting to 0.
fn parse_latency(raw: &str) -> Result<(u64, u64), KnobError> {
    let bad = || KnobError::new("GRUB_INCLUSION_LATENCY", raw, "<max delay blocks>[:<seed>]");
    let (max_delay, seed) = raw.split_once(':').unwrap_or((raw, "0"));
    Ok((
        max_delay.parse().map_err(|_| bad())?,
        seed.parse().map_err(|_| bad())?,
    ))
}

/// One observed fork: recorded when the seeded reorg process fires, for
/// reporting and tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReorgEvent {
    /// Height the abandoned fork block was mined at.
    pub height: u64,
    /// How many canonical blocks were rolled back and re-committed.
    pub depth: usize,
    /// Digest the chain would have had if the fork branch had won —
    /// always different from the canonical digest at the same height.
    pub fork_digest: grub_crypto::Hash32,
    /// Transactions the rollback abandoned (every transaction of every
    /// rolled-back canonical block, oldest block first).
    pub abandoned: Vec<TxId>,
    /// Abandoned transactions that re-entered the mempool and re-mined on
    /// the canonical branch. Equals `abandoned` on every completed reorg —
    /// the no-lost-writes contract; a strict prefix only when an injected
    /// crash point killed the reorg between rollback and resubmission.
    pub resubmitted: Vec<TxId>,
}

/// A rollback was requested past what the chain can undo.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReorgError {
    /// The rollback depth exceeds the retained block bodies — history
    /// beyond [`ChainConfig::retain_blocks`] has been pruned and cannot be
    /// re-committed.
    PastRetainedWindow {
        /// Blocks the caller asked to roll back.
        requested: usize,
        /// Block bodies still retained.
        retained: usize,
    },
    /// The rollback target is below the undo window — deeper than
    /// [`ReorgConfig::max_depth`] keeps, or the chain is not in reorg mode
    /// (undo records are only kept when [`ChainConfig::reorg`] is set).
    PastSnapshotHorizon {
        /// Blocks the caller asked to roll back.
        requested: usize,
        /// Deepest rollback currently possible.
        available: usize,
    },
    /// The rollback target is below the confirmation frontier — blocks at or
    /// under [`Blockchain::confirmed_height`] have been acknowledged to the
    /// DO/SP layers under [`ChainConfig::confirm_depth`] and can no longer
    /// be undone.
    PastConfirmationFrontier {
        /// Blocks the caller asked to roll back.
        requested: usize,
        /// The confirmation frontier the rollback may not cross.
        frontier: u64,
    },
}

impl std::fmt::Display for ReorgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReorgError::PastRetainedWindow {
                requested,
                retained,
            } => write!(
                f,
                "cannot roll back {requested} blocks: only {retained} block \
                 bodies are retained (retain_blocks pruned the rest)"
            ),
            ReorgError::PastSnapshotHorizon {
                requested,
                available,
            } => write!(
                f,
                "cannot roll back {requested} blocks: no state snapshot at \
                 the target height (deepest possible rollback is {available})"
            ),
            ReorgError::PastConfirmationFrontier {
                requested,
                frontier,
            } => write!(
                f,
                "cannot roll back {requested} blocks: the target is below \
                 the confirmation frontier (height {frontier}) — confirmed \
                 blocks have been acknowledged and cannot be undone"
            ),
        }
    }
}

impl std::error::Error for ReorgError {}

/// Block production failed — either an injected crash point tripped or a
/// reorg could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockError {
    /// A [`grub_fault`] crash point tripped mid-production; the chain is
    /// left in a consistent canonical state.
    Injected(&'static str),
    /// The fork process asked for an impossible rollback.
    Reorg(ReorgError),
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Injected(point) => write!(f, "injected fault at {point}"),
            BlockError::Reorg(err) => write!(f, "reorg failed: {err}"),
        }
    }
}

impl std::error::Error for BlockError {}

impl From<ReorgError> for BlockError {
    fn from(err: ReorgError) -> Self {
        BlockError::Reorg(err)
    }
}

/// A transaction submitted to the chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Sender account.
    pub from: Address,
    /// Target contract.
    pub to: Address,
    /// Function name to invoke.
    pub func: String,
    /// Encoded payload (see [`crate::codec`]).
    pub input: Vec<u8>,
    /// Which layer pays the `Ctx` envelope cost.
    pub envelope_layer: Layer,
    /// Mempool priority under [`ChainConfig::mempool`] congestion: higher
    /// values mine first; ties keep submission order. Ignored (all
    /// transactions mine together) when the mempool is unbounded.
    pub priority: u8,
}

impl Transaction {
    /// Builds a transaction (default priority 0).
    pub fn new(
        from: Address,
        to: Address,
        func: impl Into<String>,
        input: Vec<u8>,
        envelope_layer: Layer,
    ) -> Self {
        Transaction {
            from,
            to,
            func: func.into(),
            input,
            envelope_layer,
            priority: 0,
        }
    }

    /// Sets the mempool priority (see [`Transaction::priority`]).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// The result of executing one transaction.
#[derive(Clone, Debug)]
pub struct Receipt {
    /// Identifier assigned at submission.
    pub tx_id: TxId,
    /// Block that mined the transaction.
    pub block_number: u64,
    /// Whether execution succeeded (failed txs are rolled back).
    pub success: bool,
    /// Encoded output on success.
    pub output: Vec<u8>,
    /// Error message on failure.
    pub error: Option<String>,
    /// Total Gas consumed (envelope + execution).
    pub gas_used: u64,
}

/// An EVM-log-style event emitted by a contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Emitting contract.
    pub contract: Address,
    /// Event name (stands in for the topic hash).
    pub name: String,
    /// Encoded payload.
    pub data: Vec<u8>,
    /// Block in which the event was recorded.
    pub block_number: u64,
    /// Simulated time of the containing block.
    pub time_ms: u64,
}

/// A mined block.
#[derive(Clone, Debug)]
pub struct Block {
    /// Height of this block.
    pub number: u64,
    /// Simulated production time.
    pub time_ms: u64,
    /// Receipts for the included transactions, in execution order.
    pub receipts: Vec<Receipt>,
    /// Events emitted by the included transactions.
    pub events: Vec<Event>,
    /// Contract invocations (top-level and internal) of successful
    /// transactions — the re-executable call history off-chain monitors read.
    pub call_records: Vec<CallRecord>,
}

/// The Ethereum-like chain simulator.
///
/// Deterministic and single-threaded: transactions execute in submission
/// order when [`Blockchain::produce_block`] is called. Gas is tracked by an
/// embedded [`GasMeter`] with feed/application/user attribution.
pub struct Blockchain {
    config: ChainConfig,
    registry: HashMap<Address, Deployed>,
    storages: HashMap<Address, ContractStorage>,
    meter: GasMeter,
    /// Queued transactions, each tagged with the first height it may mine at:
    /// above the next block only while a seeded inclusion delay
    /// ([`ChainConfig::latency`]) holds it back, and 0 once it has been
    /// selected, so it never re-waits its delay.
    mempool: Vec<(u64, (TxId, Transaction))>,
    /// Retained block bodies — the full chain by default, a sliding window
    /// under [`ChainConfig::retain_blocks`].
    blocks: Vec<Block>,
    /// Blocks mined over the chain's lifetime (the absolute height —
    /// `blocks.len()` only until pruning starts).
    mined: u64,
    /// Running fold of every sealed block (see
    /// [`Blockchain::chain_digest`]), so the digest survives pruning and
    /// stays O(1) to read.
    digest_acc: grub_crypto::Hash32,
    /// Recovery oracle (see [`Blockchain::expect_digest_at`]): when the
    /// chain reaches this height, its digest must equal this value.
    checkpoint: Option<(u64, grub_crypto::Hash32)>,
    next_tx_id: u64,
    now_ms: u64,
    /// The undo window: one record per recently sealed canonical block,
    /// ascending by consecutive height, only kept in reorg mode (at most
    /// `max_depth` records). Its length is how deep a rollback can go.
    undo: VecDeque<BlockUndo>,
    /// Every fork the seeded reorg process has executed.
    reorg_events: Vec<ReorgEvent>,
    /// Under [`ChainConfig::confirm_depth`]: the heights of mined blocks
    /// that included something and are not yet confirmed, ascending. A
    /// height leaves once the confirmation frontier passes it; a rollback
    /// discards heights above its target (they re-enter as the canonical
    /// branch re-commits).
    pending_confirm: Vec<u64>,
}

/// Everything needed to undo one executed block, so it costs what the block
/// wrote rather than what the chain holds. The contract registry is
/// deliberately absent: deployments happen outside blocks and are never
/// rolled back (contract code is stateless; all mutable state lives in
/// `storages`).
struct BlockUndo {
    /// Height of the block this record undoes.
    height: u64,
    /// Clock, running digest and Gas meter as they were before the block.
    now_ms: u64,
    digest_acc: grub_crypto::Hash32,
    meter: GasMeter,
    /// Pre-images of every slot the block's successful transactions wrote,
    /// in execution order (a reverted transaction undid its own).
    writes: Vec<JournalEntry>,
    /// The block's transaction list, the replay source for re-committing it
    /// (left empty for a fork block, whose transactions `run_reorg` holds).
    txs: Vec<(TxId, Transaction)>,
}

impl Default for Blockchain {
    fn default() -> Self {
        Self::new()
    }
}

impl Blockchain {
    /// Creates a chain with default parameters.
    pub fn new() -> Self {
        Self::with_config(ChainConfig::default())
    }

    /// Creates a chain with explicit timing parameters.
    pub fn with_config(config: ChainConfig) -> Self {
        Blockchain {
            config,
            registry: HashMap::new(),
            storages: HashMap::new(),
            meter: GasMeter::new(),
            mempool: Vec::new(),
            blocks: Vec::new(),
            mined: 0,
            digest_acc: grub_crypto::Sha256::new().finalize(),
            checkpoint: None,
            next_tx_id: 0,
            now_ms: 0,
            undo: VecDeque::new(),
            reorg_events: Vec::new(),
            pending_confirm: Vec::new(),
        }
    }

    /// The chain's timing parameters.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Deploys contract code at an address with a Gas-attribution layer.
    ///
    /// # Panics
    ///
    /// Panics if a contract is already deployed at `address` — redeploying
    /// over live state is almost certainly a harness bug.
    pub fn deploy(&mut self, address: Address, code: Rc<dyn Contract>, layer: Layer) {
        let prior = self.registry.insert(address, Deployed { code, layer });
        assert!(prior.is_none(), "contract already deployed at {address}");
    }

    /// Queues a transaction; it executes at the next block — or, under
    /// [`ChainConfig::latency`], at the block its seeded inclusion delay
    /// (lengthened by mempool-congestion pressure) first allows.
    pub fn submit(&mut self, tx: Transaction) -> TxId {
        let id = TxId(self.next_tx_id);
        self.next_tx_id += 1;
        let mut eligible_at = 0;
        if let Some(lat) = self.config.latency {
            let mut delay = seeded_mix(lat.seed, id.0) % (lat.max_delay_blocks.max(1) + 1);
            if let Some(mp) = self.config.mempool {
                // Congestion pressure: one extra block of wait per full
                // block-capacity of queue already ahead of this transaction.
                delay += (self.mempool.len() / mp.max_txs_per_block.max(1)) as u64;
            }
            if delay > 0 {
                eligible_at = self.mined + 1 + delay;
            }
        }
        self.mempool.push((eligible_at, (id, tx)));
        id
    }

    /// Number of queued transactions.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Advances time by the block period and mines queued transactions into
    /// a new block, returning it.
    ///
    /// The sealed block is folded into the chain's running digest before it
    /// is retained, and — under [`ChainConfig::retain_blocks`] — the oldest
    /// bodies past the window are dropped. Under [`ChainConfig::mempool`]
    /// congestion only the highest-priority transactions up to the per-block
    /// capacity mine; the rest stay queued. Under [`ChainConfig::reorg`],
    /// heights divisible by the fork period first mine an abandoned fork
    /// block, roll the chain back, and re-commit the canonical branch.
    ///
    /// # Panics
    ///
    /// Panics when production fails (an armed [`grub_fault`] crash point or
    /// an impossible rollback). Fault-aware callers use
    /// [`Blockchain::try_produce_block`] instead.
    pub fn produce_block(&mut self) -> &Block {
        match self.try_produce_block() {
            Ok(block) => block,
            // grub-lint: allow(panic) — documented "# Panics"; fault-aware callers use try_produce_block
            Err(err) => panic!("produce_block: {err}"),
        }
    }

    /// Fallible block production: like [`Blockchain::produce_block`] but an
    /// armed [`grub_fault`] crash point or a failed rollback surfaces as a
    /// typed [`BlockError`] instead of a panic. On error, the chain is left
    /// in a consistent canonical state (for the mid-reorg crash point:
    /// rolled back to the fork's target height, mempool cleared).
    pub fn try_produce_block(&mut self) -> Result<&Block, BlockError> {
        match self.config.reorg {
            Some(reorg)
                if (self.mined + 1).is_multiple_of(reorg.period)
                    && self.rollback_capacity() > 0 =>
            {
                self.run_reorg(reorg)?;
            }
            _ => self.seal_canonical_block(),
        }
        // grub-lint: allow(panic) — both arms end by sealing a canonical block
        Ok(self.blocks.last().expect("a block was just sealed"))
    }

    /// Selects the transactions the next block will mine: everything whose
    /// inclusion delay has elapsed (everything, when latency is off), then —
    /// under mempool congestion — the top `max_txs_per_block` by priority
    /// (stable, so equal priorities keep submission order). Capacity
    /// overflow re-queues ahead of still-delayed transactions; a
    /// transaction selected once never re-waits its delay.
    fn take_block_pending(&mut self) -> Vec<(TxId, Transaction)> {
        let next = self.mined + 1;
        let mut candidates = Vec::with_capacity(self.mempool.len());
        let mut delayed = Vec::new();
        for (eligible_at, pending) in std::mem::take(&mut self.mempool) {
            if eligible_at <= next {
                candidates.push(pending);
            } else {
                delayed.push((eligible_at, pending));
            }
        }
        self.mempool = delayed;
        if let Some(mp) = self.config.mempool {
            let cap = mp.max_txs_per_block.max(1);
            candidates.sort_by_key(|(_, tx)| Reverse(tx.priority));
            if candidates.len() > cap {
                let overflow = candidates.split_off(cap).into_iter().map(|p| (0, p));
                self.mempool.splice(0..0, overflow);
            }
        }
        candidates
    }

    /// An undo record for the next block, capturing what executing it will
    /// overwrite; its `writes` fill in as the block executes.
    fn begin_undo(&self) -> BlockUndo {
        BlockUndo {
            height: self.mined + 1,
            now_ms: self.now_ms,
            digest_acc: self.digest_acc,
            meter: self.meter.clone(),
            writes: Vec::new(),
            txs: Vec::new(),
        }
    }

    /// Undoes the newest executed block — storages, height, clock, running
    /// digest and Gas meter return to what they were before it — and hands
    /// back its transaction list.
    fn undo_block(&mut self, undo: BlockUndo) -> Vec<(TxId, Transaction)> {
        debug_assert_eq!(undo.height, self.mined, "blocks undo newest-first");
        storage::revert(&mut self.storages, undo.writes);
        self.mined = undo.height - 1;
        self.now_ms = undo.now_ms;
        self.digest_acc = undo.digest_acc;
        self.meter = undo.meter;
        undo.txs
    }

    /// Advances time (plus `jitter_ms`, used for fork-branch timestamp skew)
    /// and executes `pending`, returning the block; the successful
    /// transactions' write pre-images go to `writes` when the caller keeps
    /// an undo record. State mutations (height, clock, storages, meter)
    /// happen here; what makes a block *canonical* — digest fold, checkpoint
    /// check, retention, the undo window — is the caller's job.
    fn execute_block<'t>(
        &mut self,
        pending: impl ExactSizeIterator<Item = &'t (TxId, Transaction)>,
        jitter_ms: u64,
        mut writes: Option<&mut Vec<JournalEntry>>,
    ) -> Block {
        self.now_ms += self.config.block_period_ms + jitter_ms;
        self.mined += 1;
        let number = self.mined;
        if let Some(fee) = self.config.fee {
            self.meter.set_price_permille(fee.price_permille(number));
        }
        let mut receipts = Vec::with_capacity(pending.len());
        let mut events = Vec::new();
        let mut call_records = Vec::new();
        for (tx_id, tx) in pending {
            let receipt = self.execute(
                *tx_id,
                tx,
                number,
                &mut events,
                &mut call_records,
                writes.as_deref_mut(),
            );
            receipts.push(receipt);
        }
        Block {
            number,
            time_ms: self.now_ms,
            receipts,
            events,
            call_records,
        }
    }

    /// Seals the next canonical block: select pending, execute, fold the
    /// digest, check the recovery checkpoint, retain, push the undo record,
    /// and advance the confirmation ledger.
    fn seal_canonical_block(&mut self) {
        let pending = self.take_block_pending();
        let mut undo = self.config.reorg.map(|_| self.begin_undo());
        let block = self.execute_block(pending.iter(), 0, undo.as_mut().map(|u| &mut u.writes));
        let mined_something = !block.receipts.is_empty();
        self.digest_acc = fold_block_digest(&self.digest_acc, &block);
        if let Some((height, expected)) = self.checkpoint {
            if self.mined == height {
                self.checkpoint = None;
                assert_eq!(
                    self.chain_digest(),
                    expected,
                    "recovery re-execution diverged from the surviving chain \
                     at checkpoint height {height}: the replayed transaction \
                     stream is not byte-identical to the pre-crash run"
                );
            }
        }
        self.blocks.push(block);
        if let Some(retain) = self.config.retain_blocks {
            let retain = retain.max(1);
            if self.blocks.len() > retain {
                self.blocks.drain(..self.blocks.len() - retain);
            }
        }
        if let (Some(reorg), Some(mut undo)) = (self.config.reorg, undo) {
            undo.txs = pending;
            if self.undo.len() >= reorg.max_depth.max(1) {
                self.undo.pop_front();
            }
            self.undo.push_back(undo);
        }
        if self.config.confirm_depth > 0 {
            // Only blocks that mined something enter the ledger: empty
            // blocks have nothing to acknowledge, and skipping them is what
            // lets `await_confirmations` terminate by mining empty blocks.
            if mined_something {
                self.pending_confirm.push(self.mined);
            }
            let frontier = self.confirmed_height();
            let confirmed = self.pending_confirm.partition_point(|h| *h <= frontier);
            self.pending_confirm.drain(..confirmed);
        }
    }

    /// Deepest rollback currently possible: bounded by the undo window,
    /// the retained block bodies, and — under
    /// [`ChainConfig::confirm_depth`] — the confirmation frontier
    /// (acknowledged blocks can never be undone).
    fn rollback_capacity(&self) -> usize {
        let cap = self.undo.len().min(self.blocks.len());
        if self.config.confirm_depth > 0 {
            cap.min((self.mined - self.confirmed_height()) as usize)
        } else {
            cap
        }
    }

    /// Rolls back the last `depth` canonical blocks, restoring chain state
    /// (height, clock, storages, Gas meter, running digest) to just after
    /// the block at `height - depth` sealed, and returns the rolled-back
    /// blocks' transaction lists (oldest first) so the caller can re-commit
    /// them. The mempool is left untouched. Requires reorg mode
    /// ([`ChainConfig::reorg`]), which is what keeps the undo window: the
    /// rollback pops its `depth` newest records and re-applies their write
    /// pre-images, so it costs the writes it undoes.
    ///
    /// # Errors
    ///
    /// [`ReorgError::PastRetainedWindow`] when `depth` exceeds the block
    /// bodies still retained under [`ChainConfig::retain_blocks`];
    /// [`ReorgError::PastConfirmationFrontier`] when the target height is
    /// below [`Blockchain::confirmed_height`];
    /// [`ReorgError::PastSnapshotHorizon`] when the target height is below
    /// the undo window (deeper than the fork process keeps, or reorg mode
    /// is off).
    pub fn rollback(&mut self, depth: usize) -> Result<Vec<Vec<(TxId, Transaction)>>, ReorgError> {
        if depth == 0 {
            return Ok(Vec::new());
        }
        if depth > self.blocks.len() {
            return Err(ReorgError::PastRetainedWindow {
                requested: depth,
                retained: self.blocks.len(),
            });
        }
        let target = self.mined - depth as u64;
        let frontier = self.confirmed_height();
        if self.config.confirm_depth > 0 && target < frontier {
            return Err(ReorgError::PastConfirmationFrontier {
                requested: depth,
                frontier,
            });
        }
        if depth > self.undo.len() {
            return Err(ReorgError::PastSnapshotHorizon {
                requested: depth,
                available: self.rollback_capacity(),
            });
        }
        let mut replay: Vec<Vec<(TxId, Transaction)>> = self
            .undo
            .split_off(self.undo.len() - depth)
            .into_iter()
            .rev()
            .map(|undo| self.undo_block(undo))
            .collect();
        replay.reverse();
        // Unconfirmed heights above the target are abandoned with their
        // blocks; they re-enter as the canonical branch re-commits.
        // Confirmed blocks are never above the target — the frontier guard
        // above is what makes them settled.
        self.pending_confirm.retain(|h| *h <= target);
        self.blocks.truncate(self.blocks.len() - depth);
        Ok(replay)
    }

    /// The seeded fork: mine an abandoned fork block at the next height,
    /// roll back, re-commit the canonical branch, then seal the next height
    /// canonically with the original pending transactions. Net effect on the
    /// canonical chain: byte-identical to never having forked.
    fn run_reorg(&mut self, cfg: ReorgConfig) -> Result<(), BlockError> {
        let next = self.mined + 1;
        let want = 1 + (seeded_mix(cfg.seed, next) % cfg.max_depth.max(1) as u64) as usize;
        let depth = want.min(self.rollback_capacity());
        let pending = std::mem::take(&mut self.mempool);
        // The fork branch: a divergent miner greedily seals `next` with a
        // skewed timestamp. Never folded into the canonical digest.
        let jitter =
            1 + seeded_mix(cfg.seed ^ 0x666f_726b, next) % self.config.block_period_ms.max(1);
        let mut fork_undo = self.begin_undo();
        let fork_txs = pending.iter().map(|(_, pending)| pending);
        let fork = self.execute_block(fork_txs, jitter, Some(&mut fork_undo.writes));
        let fork_digest = fold_block_digest(&self.digest_acc, &fork);
        // The canonical branch wins: undo the fork block, then `depth`
        // canonical ancestors.
        self.undo_block(fork_undo);
        let replay = self.rollback(depth)?;
        let abandoned: Vec<TxId> = replay
            .iter()
            .flat_map(|txs| txs.iter().map(|(id, _)| *id))
            .collect();
        self.reorg_events.push(ReorgEvent {
            height: next,
            depth,
            fork_digest,
            abandoned,
            resubmitted: Vec::new(),
        });
        if grub_fault::should_trip(FaultPoint::MidReorgRollback) {
            // The process dies between rollback and re-commit: the chain is
            // consistent at the fork's target height, the pending
            // transactions are lost with the process.
            self.mempool.clear();
            return Err(BlockError::Injected(FaultPoint::MidReorgRollback.name()));
        }
        // Re-commit the canonical branch block by block (identical pending
        // sets at identical heights ⇒ identical digests), then seal `next`.
        for txs in replay {
            debug_assert!(self.mempool.is_empty(), "re-commit must not mix blocks");
            let resubmitted: Vec<TxId> = txs.iter().map(|(id, _)| *id).collect();
            self.mempool = txs.into_iter().map(|p| (0, p)).collect();
            self.seal_canonical_block();
            if let Some(event) = self.reorg_events.last_mut() {
                event.resubmitted.extend(resubmitted);
            }
        }
        if grub_fault::should_trip(FaultPoint::MidResubmission) {
            // The process dies after the canonical branch fully re-committed
            // but before the fork's pending transactions re-enter the
            // mempool: the chain is consistent at the original tip, the
            // pending transactions are lost with the process.
            return Err(BlockError::Injected(FaultPoint::MidResubmission.name()));
        }
        self.mempool = pending;
        self.seal_canonical_block();
        Ok(())
    }

    /// Every fork the seeded reorg process has executed so far.
    pub fn reorg_events(&self) -> &[ReorgEvent] {
        &self.reorg_events
    }

    /// The gas-price multiplier (permille of the flat schedule) the fee
    /// process dictates at `height` — [`grub_gas::BASE_PRICE_PERMILLE`]
    /// when no fee process is configured.
    pub fn fee_price_permille(&self, height: u64) -> u64 {
        match self.config.fee {
            Some(fee) => fee.price_permille(height),
            None => grub_gas::BASE_PRICE_PERMILLE,
        }
    }

    fn execute(
        &mut self,
        tx_id: TxId,
        tx: &Transaction,
        block_number: u64,
        events_out: &mut Vec<Event>,
        calls_out: &mut Vec<CallRecord>,
        writes_out: Option<&mut Vec<JournalEntry>>,
    ) -> Receipt {
        let before = self.meter.snapshot();
        self.meter.charge_tx(tx.envelope_layer, tx.input.len());
        let deployed = match self.registry.get(&tx.to) {
            Some(d) => d.clone(),
            None => {
                return Receipt {
                    tx_id,
                    block_number,
                    success: false,
                    output: Vec::new(),
                    error: Some(VmError::UnknownContract(tx.to).to_string()),
                    gas_used: gas_since(&self.meter, before),
                }
            }
        };
        let mut state = ExecState {
            storages: std::mem::take(&mut self.storages),
            meter: std::mem::take(&mut self.meter),
            pending_events: Vec::new(),
            journal: Vec::new(),
            call_records: vec![CallRecord {
                to: tx.to,
                func: tx.func.clone(),
                input: tx.input.clone(),
                block_number,
            }],
        };
        let result = {
            let mut ctx = CallContext {
                state: &mut state,
                registry: &self.registry,
                caller: tx.from,
                this: tx.to,
                origin: tx.from,
                block_number,
                now_ms: self.now_ms,
                layer: deployed.layer,
                depth: 0,
            };
            deployed.code.call(&mut ctx, &tx.func, &tx.input)
        };
        let receipt = match result {
            Ok(output) => {
                events_out.append(&mut state.pending_events);
                calls_out.append(&mut state.call_records);
                if let Some(writes) = writes_out {
                    writes.append(&mut state.journal);
                }
                Receipt {
                    tx_id,
                    block_number,
                    success: true,
                    output,
                    error: None,
                    gas_used: 0, // patched below once the meter is restored
                }
            }
            Err(err) => {
                // Roll back every storage write this transaction made.
                storage::revert(&mut state.storages, std::mem::take(&mut state.journal));
                state.pending_events.clear();
                Receipt {
                    tx_id,
                    block_number,
                    success: false,
                    output: Vec::new(),
                    error: Some(err.to_string()),
                    gas_used: 0,
                }
            }
        };
        self.storages = state.storages;
        self.meter = state.meter;
        let mut receipt = receipt;
        receipt.gas_used = gas_since(&self.meter, before);
        receipt
    }

    /// Executes a read-only call against current state without charging Gas
    /// or mutating anything — the equivalent of `eth_call`.
    ///
    /// # Errors
    ///
    /// Propagates the contract's [`VmError`].
    pub fn static_call(
        &self,
        from: Address,
        to: Address,
        func: &str,
        input: &[u8],
    ) -> Result<Vec<u8>, VmError> {
        let deployed = self
            .registry
            .get(&to)
            .cloned()
            .ok_or(VmError::UnknownContract(to))?;
        let mut state = ExecState {
            storages: self.storages.clone(),
            meter: GasMeter::with_schedule(*self.meter.schedule()),
            pending_events: Vec::new(),
            journal: Vec::new(),
            call_records: Vec::new(),
        };
        let mut ctx = CallContext {
            state: &mut state,
            registry: &self.registry,
            caller: from,
            this: to,
            origin: from,
            block_number: self.mined,
            now_ms: self.now_ms,
            layer: deployed.layer,
            depth: 0,
        };
        deployed.code.call(&mut ctx, func, input)
    }

    /// The retained block bodies — all mined blocks unless
    /// [`ChainConfig::retain_blocks`] trimmed the oldest.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Current block height (absolute: pruning never rewinds it).
    pub fn height(&self) -> u64 {
        self.mined
    }

    /// Simulated current time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// The confirmation frontier: height up to which mined blocks are
    /// acknowledged under [`ChainConfig::confirm_depth`] (`height - depth`,
    /// saturating — the tip itself at depth 0). Monotone non-decreasing
    /// across [`Blockchain::produce_block`] calls: a reorg never rolls the
    /// net height back, and the rollback clamp keeps forks above the
    /// frontier.
    pub fn confirmed_height(&self) -> u64 {
        self.height().saturating_sub(self.config.confirm_depth)
    }

    /// How many more blocks must be mined before every transaction mined so
    /// far is confirmed — zero when the pending-confirmation ledger is
    /// empty (always, at depth 0).
    pub fn confirmation_lag(&self) -> u64 {
        match self.pending_confirm.last() {
            Some(h) => (h + self.config.confirm_depth).saturating_sub(self.mined),
            None => 0,
        }
    }

    /// Mines (possibly empty) blocks until every mined transaction is
    /// confirmed — what an epoch boundary calls before acknowledging writes
    /// to the DO/SP layers. A no-op at depth 0. Terminates because empty
    /// blocks never enter the pending ledger, so each block mined strictly
    /// shrinks the lag.
    ///
    /// # Errors
    ///
    /// Propagates [`BlockError`] from block production (an armed crash
    /// point, or an impossible rollback).
    pub fn await_confirmations(&mut self) -> Result<(), BlockError> {
        while self.confirmation_lag() > 0 {
            self.try_produce_block()?;
        }
        Ok(())
    }

    /// The retained blocks `(from_block, ..]` the `_since` queries read,
    /// found by binary search (`blocks` ascends by number), so a poll costs
    /// the blocks it returns, not the whole retained chain.
    ///
    /// Guards the queries' documented precondition under
    /// [`ChainConfig::retain_blocks`]: every block in `(from_block, ..]`
    /// must still be retained, or the query would silently omit pruned
    /// history. Debug-only, like the workspace's Gas-arithmetic guards —
    /// the production schedulers advance their cursors every epoch, far
    /// inside any sane window.
    fn blocks_since(&self, from_block: u64) -> &[Block] {
        debug_assert!(
            from_block >= self.mined
                || self
                    .blocks
                    .first()
                    .is_none_or(|b| b.number <= from_block + 1),
            "query cursor {from_block} predates the oldest retained block \
             {:?} (height {}): retain_blocks pruned history this poll still \
             needs — widen the window or poll more often",
            self.blocks.first().map(|b| b.number),
            self.mined,
        );
        let start = self.blocks.partition_point(|b| b.number <= from_block);
        &self.blocks[start..]
    }

    /// Events matching `contract` and `name` in blocks `(from_block, ..]`.
    ///
    /// This is what off-chain watchdogs (the SP daemon, the DO monitor) poll,
    /// standing in for Ethereum's `eth_getLogs`.
    pub fn events_since(&self, from_block: u64, contract: Address, name: &str) -> Vec<&Event> {
        self.blocks_since(from_block)
            .iter()
            .flat_map(|b| b.events.iter())
            .filter(|e| e.contract == contract && e.name == name)
            .collect()
    }

    /// Contract invocations of contract `to` in blocks `(from_block, ..]` —
    /// the monitor's view of the call history (paper §3.2).
    pub fn calls_since(&self, from_block: u64, to: Address) -> Vec<&CallRecord> {
        self.blocks_since(from_block)
            .iter()
            .flat_map(|b| b.call_records.iter())
            .filter(|c| c.to == to)
            .collect()
    }

    /// The Gas meter (read-only).
    pub fn meter(&self) -> &GasMeter {
        &self.meter
    }

    /// Zeroes the Gas meter — harnesses call this after provisioning so the
    /// reported numbers cover steady-state operation only.
    ///
    /// In reorg mode this also empties the undo window, re-baselining it
    /// at the current height: a fork must never roll the chain back across
    /// a meter reset, or the restored meter would resurrect pre-reset totals
    /// and corrupt the digest.
    pub fn meter_reset(&mut self) {
        self.meter.reset();
        self.undo.clear();
    }

    /// Snapshot of Gas totals, for epoch-by-epoch reporting.
    pub fn gas_snapshot(&self) -> GasSnapshot {
        self.meter.snapshot()
    }

    /// Unmetered storage inspection, for tests and assertions.
    pub fn storage(&self, contract: Address) -> Option<&ContractStorage> {
        self.storages.get(&contract)
    }

    /// Arms a one-shot recovery oracle: when this chain next reaches
    /// `height`, its [`Blockchain::chain_digest`] must equal `expected`.
    ///
    /// Crash-recovery tests take `(height, digest)` from the chain that
    /// survived an injected crash and arm it on the fresh re-execution
    /// chain, so a divergence is caught *at the crash point* rather than as
    /// an opaque end-of-run digest mismatch.
    ///
    /// # Panics
    ///
    /// [`Blockchain::produce_block`] panics when the checkpoint height is
    /// reached with a different digest. Arming at or below the current
    /// height panics immediately — the oracle could never fire.
    pub fn expect_digest_at(&mut self, height: u64, expected: grub_crypto::Hash32) {
        assert!(
            height > self.mined,
            "checkpoint height {height} is not ahead of current height {}",
            self.mined
        );
        self.checkpoint = Some((height, expected));
    }

    /// Canonical digest of the whole mined chain: every block's number and
    /// time, every receipt (id, success, error, output, Gas), every event,
    /// and every call record, folded block by block into a running SHA-256
    /// chain as blocks are sealed, finalized here with the block count and
    /// the meter's per-layer totals.
    ///
    /// Two runs whose `chain_digest` agree executed byte-for-byte identical
    /// transactions with identical results — the equivalence every
    /// determinism, reorg-replay, and recovery assertion in `tests/` is
    /// stated in.
    /// Because the fold is incremental, the digest is O(1) to read at any
    /// height and survives [`ChainConfig::retain_blocks`] pruning: it
    /// always covers *every* block ever mined, retained or not.
    pub fn chain_digest(&self) -> grub_crypto::Hash32 {
        let mut h = grub_crypto::Sha256::new();
        h.update(self.digest_acc.as_bytes());
        h.update(&self.mined.to_le_bytes());
        let snap = self.meter.snapshot();
        h.update(&snap.feed.to_le_bytes());
        h.update(&snap.app.to_le_bytes());
        h.update(&snap.user.to_le_bytes());
        h.finalize()
    }
}

/// One step of the incremental chain digest: `acc' = SHA-256(acc ‖
/// canonical(block))`, the same per-block encoding the monolithic digest
/// used (number, time, receipts, events, call records, all
/// length-prefixed).
fn fold_block_digest(acc: &grub_crypto::Hash32, block: &Block) -> grub_crypto::Hash32 {
    let mut h = grub_crypto::Sha256::new();
    let u64le = |h: &mut grub_crypto::Sha256, v: u64| h.update(&v.to_le_bytes());
    let bytes = |h: &mut grub_crypto::Sha256, b: &[u8]| {
        h.update(&(b.len() as u64).to_le_bytes());
        h.update(b);
    };
    h.update(acc.as_bytes());
    u64le(&mut h, block.number);
    u64le(&mut h, block.time_ms);
    u64le(&mut h, block.receipts.len() as u64);
    for r in &block.receipts {
        u64le(&mut h, r.tx_id.0);
        h.update(&[u8::from(r.success)]);
        bytes(&mut h, r.error.as_deref().unwrap_or("").as_bytes());
        bytes(&mut h, &r.output);
        u64le(&mut h, r.gas_used);
    }
    u64le(&mut h, block.events.len() as u64);
    for e in &block.events {
        bytes(&mut h, e.contract.as_bytes());
        bytes(&mut h, e.name.as_bytes());
        bytes(&mut h, &e.data);
    }
    u64le(&mut h, block.call_records.len() as u64);
    for c in &block.call_records {
        bytes(&mut h, c.to.as_bytes());
        bytes(&mut h, c.func.as_bytes());
        bytes(&mut h, &c.input);
    }
    h.finalize()
}

fn gas_since(meter: &GasMeter, before: GasSnapshot) -> u64 {
    let now = meter.snapshot();
    let total = |s: &GasSnapshot| {
        grub_gas::checked_add_gas(grub_gas::checked_add_gas(s.feed, s.app), s.user)
    };
    grub_gas::checked_sub_gas(total(&now), total(&before))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decoder, Encoder};
    use grub_gas::CostKind;

    /// A contract exercising storage, events, calls and reverts.
    struct Widget;

    impl Contract for Widget {
        fn call(
            &self,
            ctx: &mut CallContext<'_>,
            func: &str,
            input: &[u8],
        ) -> Result<Vec<u8>, VmError> {
            match func {
                "set" => {
                    let mut dec = Decoder::new(input);
                    let v = dec.u64()?;
                    ctx.sstore_u64(b"value", v)?;
                    ctx.emit("ValueSet", input.to_vec());
                    Ok(Vec::new())
                }
                "get" => {
                    let v = ctx.sload_u64(b"value")?.unwrap_or(0);
                    let mut enc = Encoder::new();
                    enc.u64(v);
                    Ok(enc.finish())
                }
                "fail_after_write" => {
                    ctx.sstore_u64(b"value", 999)?;
                    Err(VmError::Revert("deliberate".into()))
                }
                "call_self_get" => {
                    let this = ctx.this;
                    ctx.call(this, "get", &[])
                }
                _ => Err(VmError::UnknownFunction(func.to_owned())),
            }
        }
    }

    fn setup() -> (Blockchain, Address, Address) {
        let mut chain = Blockchain::new();
        let widget = Address::derive("widget");
        chain.deploy(widget, Rc::new(Widget), Layer::Application);
        (chain, widget, Address::derive("user"))
    }

    #[test]
    fn set_then_get_round_trips() {
        let (mut chain, widget, user) = setup();
        let mut enc = Encoder::new();
        enc.u64(42);
        chain.submit(Transaction::new(
            user,
            widget,
            "set",
            enc.finish(),
            Layer::User,
        ));
        chain.produce_block();
        let out = chain.static_call(user, widget, "get", &[]).unwrap();
        assert_eq!(Decoder::new(&out).u64().unwrap(), 42);
    }

    #[test]
    fn failed_tx_rolls_back_storage() {
        let (mut chain, widget, user) = setup();
        let mut enc = Encoder::new();
        enc.u64(1);
        chain.submit(Transaction::new(
            user,
            widget,
            "set",
            enc.finish(),
            Layer::User,
        ));
        chain.produce_block();
        chain.submit(Transaction::new(
            user,
            widget,
            "fail_after_write",
            Vec::new(),
            Layer::User,
        ));
        let block = chain.produce_block();
        assert!(!block.receipts[0].success);
        assert!(block.receipts[0]
            .error
            .as_deref()
            .unwrap()
            .contains("deliberate"));
        let out = chain.static_call(user, widget, "get", &[]).unwrap();
        assert_eq!(
            Decoder::new(&out).u64().unwrap(),
            1,
            "write must be rolled back"
        );
    }

    #[test]
    fn failed_tx_emits_no_events() {
        let (mut chain, widget, user) = setup();
        chain.submit(Transaction::new(
            user,
            widget,
            "fail_after_write",
            Vec::new(),
            Layer::User,
        ));
        let block = chain.produce_block();
        assert!(block.events.is_empty());
    }

    #[test]
    fn gas_charges_match_schedule() {
        let (mut chain, widget, user) = setup();
        let mut enc = Encoder::new();
        enc.u64(7);
        let payload = enc.finish();
        let payload_len = payload.len();
        chain.submit(Transaction::new(user, widget, "set", payload, Layer::User));
        let schedule = *chain.meter().schedule();
        let block = chain.produce_block();
        // Envelope + one fresh 1-word insert + LOG(1 topic, 8 bytes payload).
        let expected = schedule.tx_cost_bytes(payload_len)
            + schedule.storage_insert(1)
            + schedule.log_cost(1, 8);
        assert_eq!(block.receipts[0].gas_used, expected);
        // Envelope went to User, storage to Application.
        assert_eq!(
            chain
                .meter()
                .kind_total(Layer::User, CostKind::Transaction)
                .amount(),
            schedule.tx_cost_bytes(payload_len)
        );
        assert_eq!(
            chain
                .meter()
                .kind_total(Layer::Application, CostKind::StorageInsert)
                .amount(),
            schedule.storage_insert(1)
        );
    }

    #[test]
    fn update_cheaper_than_insert() {
        let (mut chain, widget, user) = setup();
        let mk = |v: u64| {
            let mut enc = Encoder::new();
            enc.u64(v);
            enc.finish()
        };
        chain.submit(Transaction::new(user, widget, "set", mk(1), Layer::User));
        let g1 = chain.produce_block().receipts[0].gas_used;
        chain.submit(Transaction::new(user, widget, "set", mk(2), Layer::User));
        let g2 = chain.produce_block().receipts[0].gas_used;
        let schedule = *chain.meter().schedule();
        assert_eq!(
            g1 - g2,
            schedule.storage_insert(1) - schedule.storage_update(1)
        );
    }

    #[test]
    fn events_are_queryable_by_name_and_block() {
        let (mut chain, widget, user) = setup();
        let mut enc = Encoder::new();
        enc.u64(5);
        chain.submit(Transaction::new(
            user,
            widget,
            "set",
            enc.finish(),
            Layer::User,
        ));
        chain.produce_block();
        let events = chain.events_since(0, widget, "ValueSet");
        assert_eq!(events.len(), 1);
        assert!(chain.events_since(1, widget, "ValueSet").is_empty());
        assert!(chain.events_since(0, widget, "Other").is_empty());
    }

    #[test]
    fn internal_call_works() {
        let (mut chain, widget, user) = setup();
        let mut enc = Encoder::new();
        enc.u64(9);
        chain.submit(Transaction::new(
            user,
            widget,
            "set",
            enc.finish(),
            Layer::User,
        ));
        chain.produce_block();
        chain.submit(Transaction::new(
            user,
            widget,
            "call_self_get",
            Vec::new(),
            Layer::User,
        ));
        let block = chain.produce_block();
        assert!(block.receipts[0].success);
        assert_eq!(Decoder::new(&block.receipts[0].output).u64().unwrap(), 9);
    }

    #[test]
    fn unknown_contract_fails_cleanly() {
        let (mut chain, _widget, user) = setup();
        chain.submit(Transaction::new(
            user,
            Address::derive("nowhere"),
            "set",
            Vec::new(),
            Layer::User,
        ));
        let block = chain.produce_block();
        assert!(!block.receipts[0].success);
    }

    #[test]
    fn block_time_advances_by_period() {
        let (mut chain, _, _) = setup();
        let period = chain.config().block_period_ms;
        chain.produce_block();
        chain.produce_block();
        assert_eq!(chain.now_ms(), 2 * period);
        assert_eq!(chain.height(), 2);
    }

    #[test]
    #[should_panic(expected = "already deployed")]
    fn double_deploy_panics() {
        let (mut chain, widget, _) = setup();
        chain.deploy(widget, Rc::new(Widget), Layer::Application);
    }

    #[test]
    fn static_call_charges_no_gas() {
        let (chain, widget, user) = setup();
        let before = chain.meter().total();
        let _ = chain.static_call(user, widget, "get", &[]);
        assert_eq!(chain.meter().total(), before);
    }

    #[test]
    fn chain_digest_tracks_execution_not_time_of_call() {
        let run = || {
            let (mut chain, widget, user) = setup();
            let mut enc = Encoder::new();
            enc.u64(11);
            chain.submit(Transaction::new(
                user,
                widget,
                "set",
                enc.finish(),
                Layer::User,
            ));
            chain.produce_block();
            chain
        };
        let a = run();
        let b = run();
        assert_eq!(a.chain_digest(), b.chain_digest(), "same run, same digest");
        // Any divergence — even an extra empty block — changes the digest.
        let mut c = run();
        c.produce_block();
        assert_ne!(a.chain_digest(), c.chain_digest());
        // Reading the digest is pure.
        assert_eq!(a.chain_digest(), a.chain_digest());
    }

    /// Queues a `set(value)` transaction.
    fn submit_set(chain: &mut Blockchain, widget: Address, user: Address, value: u64) -> TxId {
        let mut enc = Encoder::new();
        enc.u64(value);
        chain.submit(Transaction::new(
            user,
            widget,
            "set",
            enc.finish(),
            Layer::User,
        ))
    }

    #[test]
    fn reorg_replay_reproduces_straight_line_digest() {
        let reorg_cfg = ChainConfig::default().reorg(7, 3, 2);
        let mut forked = Blockchain::with_config(reorg_cfg);
        let mut straight = Blockchain::new();
        let widget = Address::derive("widget");
        let user = Address::derive("user");
        for chain in [&mut forked, &mut straight] {
            chain.deploy(widget, Rc::new(Widget), Layer::Application);
        }
        for round in 0..12 {
            for chain in [&mut forked, &mut straight] {
                submit_set(chain, widget, user, round);
                chain.produce_block();
            }
        }
        assert!(
            !forked.reorg_events().is_empty(),
            "the fork process must have fired"
        );
        for ev in forked.reorg_events() {
            assert!(
                ev.depth >= 1 && ev.depth <= 2,
                "depth bounded: {}",
                ev.depth
            );
            assert_ne!(
                ev.fork_digest,
                forked.chain_digest(),
                "the abandoned branch is never the canonical digest"
            );
            assert_eq!(
                ev.resubmitted, ev.abandoned,
                "a completed reorg resubmits exactly the abandoned set"
            );
            assert!(
                !ev.abandoned.is_empty(),
                "every rolled-back block here carried a transaction"
            );
        }
        assert_eq!(forked.height(), straight.height());
        assert_eq!(
            forked.chain_digest(),
            straight.chain_digest(),
            "reorg-and-replay must be byte-identical to the straight-line run"
        );
    }

    #[test]
    fn explicit_rollback_returns_replayable_blocks() {
        // Fork period far beyond the test so only the explicit rollback runs.
        let mut chain = Blockchain::with_config(ChainConfig::default().reorg(1, 1_000_000, 4));
        let widget = Address::derive("widget");
        let user = Address::derive("user");
        chain.deploy(widget, Rc::new(Widget), Layer::Application);
        for v in 0..6 {
            submit_set(&mut chain, widget, user, v);
            chain.produce_block();
        }
        let tip_digest = chain.chain_digest();
        let tip_height = chain.height();
        let replay = chain.rollback(2).expect("rollback within the window");
        assert_eq!(
            replay.len(),
            2,
            "one transaction list per rolled-back block"
        );
        assert_eq!(chain.height(), tip_height - 2);
        assert_ne!(chain.chain_digest(), tip_digest);
        for txs in replay {
            chain.mempool = txs.into_iter().map(|p| (0, p)).collect();
            chain.produce_block();
        }
        assert_eq!(chain.height(), tip_height);
        assert_eq!(
            chain.chain_digest(),
            tip_digest,
            "re-committing the returned blocks restores the canonical chain"
        );
    }

    #[test]
    fn rollback_past_retained_window_is_a_typed_error() {
        let mut config = ChainConfig::default().reorg(1, 1_000_000, 8);
        config.retain_blocks = Some(2);
        let mut chain = Blockchain::with_config(config);
        let widget = Address::derive("widget");
        let user = Address::derive("user");
        chain.deploy(widget, Rc::new(Widget), Layer::Application);
        for v in 0..6 {
            submit_set(&mut chain, widget, user, v);
            chain.produce_block();
        }
        assert_eq!(
            chain.rollback(5),
            Err(ReorgError::PastRetainedWindow {
                requested: 5,
                retained: 2,
            }),
            "pruned history cannot be re-committed"
        );
        // The auto fork process clamps to the same capacity instead of erroring.
        assert!(chain.rollback_capacity() <= 2);
    }

    #[test]
    fn rollback_without_reorg_mode_lacks_snapshots() {
        let (mut chain, widget, user) = setup();
        for v in 0..3 {
            submit_set(&mut chain, widget, user, v);
            chain.produce_block();
        }
        assert!(chain.undo.is_empty(), "no undo record outside reorg mode");
        assert_eq!(
            chain.rollback(1),
            Err(ReorgError::PastSnapshotHorizon {
                requested: 1,
                available: 0,
            }),
            "undo records are only kept in reorg mode"
        );
        assert_eq!(chain.height(), 3, "a refused rollback changes nothing");
    }

    #[test]
    fn rollback_deeper_than_snapshot_window_is_a_typed_error() {
        let mut chain = Blockchain::with_config(ChainConfig::default().reorg(1, 1_000_000, 2));
        let widget = Address::derive("widget");
        let user = Address::derive("user");
        chain.deploy(widget, Rc::new(Widget), Layer::Application);
        for v in 0..8 {
            submit_set(&mut chain, widget, user, v);
            chain.produce_block();
        }
        let err = chain.rollback(5).unwrap_err();
        assert!(
            matches!(
                err,
                ReorgError::PastSnapshotHorizon {
                    requested: 5,
                    available: 2
                }
            ),
            "the undo window is max_depth deep: {err:?}"
        );
    }

    #[test]
    fn meter_reset_rebaselines_rollback_snapshots() {
        let mut chain = Blockchain::with_config(ChainConfig::default().reorg(1, 1_000_000, 4));
        let widget = Address::derive("widget");
        let user = Address::derive("user");
        chain.deploy(widget, Rc::new(Widget), Layer::Application);
        for v in 0..3 {
            submit_set(&mut chain, widget, user, v);
            chain.produce_block();
        }
        assert_eq!(chain.rollback_capacity(), 3);
        chain.meter_reset();
        assert_eq!(
            chain.rollback(1),
            Err(ReorgError::PastSnapshotHorizon {
                requested: 1,
                available: 0,
            }),
            "a fork must never cross a meter reset"
        );
        // The window refills from the reset height: blocks mined after it
        // roll back to post-reset totals, never to resurrected ones.
        let reset_digest = chain.chain_digest();
        for v in 3..5 {
            submit_set(&mut chain, widget, user, v);
            chain.produce_block();
        }
        assert_eq!(
            chain.rollback(3),
            Err(ReorgError::PastSnapshotHorizon {
                requested: 3,
                available: 2,
            })
        );
        chain.rollback(2).expect("back to the reset height");
        assert_eq!(chain.meter().total(), 0);
        assert_eq!(chain.chain_digest(), reset_digest);
    }

    #[test]
    fn congested_mempool_splits_blocks_by_priority() {
        let mut capped = Blockchain::with_config(ChainConfig::default().mempool(2));
        let widget = Address::derive("widget");
        let user = Address::derive("user");
        capped.deploy(widget, Rc::new(Widget), Layer::Application);
        let mut enc = Encoder::new();
        enc.u64(1);
        let payload = enc.finish();
        let mut ids = Vec::new();
        for priority in [0u8, 1, 2, 0, 2] {
            let tx = Transaction::new(user, widget, "set", payload.clone(), Layer::User)
                .with_priority(priority);
            ids.push(capped.submit(tx));
        }
        let first: Vec<TxId> = capped
            .produce_block()
            .receipts
            .iter()
            .map(|r| r.tx_id)
            .collect();
        assert_eq!(
            first,
            vec![ids[2], ids[4]],
            "highest priority mines first; ties keep submission order"
        );
        let second: Vec<TxId> = capped
            .produce_block()
            .receipts
            .iter()
            .map(|r| r.tx_id)
            .collect();
        assert_eq!(second, vec![ids[1], ids[0]]);
        let third: Vec<TxId> = capped
            .produce_block()
            .receipts
            .iter()
            .map(|r| r.tx_id)
            .collect();
        assert_eq!(third, vec![ids[3]], "overflow drains in later blocks");
        assert_eq!(capped.mempool_len(), 0);
    }

    #[test]
    fn fee_process_scales_receipt_gas_per_block() {
        let fee = grub_gas::FeeProcess::step(5);
        let mut chain = Blockchain::with_config(ChainConfig::default().fee(fee));
        let widget = Address::derive("widget");
        let user = Address::derive("user");
        chain.deploy(widget, Rc::new(Widget), Layer::Application);
        let mut flat = Blockchain::new();
        flat.deploy(widget, Rc::new(Widget), Layer::Application);
        let mut saw_cheap = false;
        let mut saw_dear = false;
        for v in 0..20 {
            submit_set(&mut chain, widget, user, v);
            submit_set(&mut flat, widget, user, v);
            let price = chain.fee_price_permille(chain.height() + 1);
            let priced = chain.produce_block().receipts[0].gas_used;
            let base = flat.produce_block().receipts[0].gas_used;
            // Charges scale individually (each truncating), so bound the
            // block total instead of demanding one exact product.
            assert!(
                priced <= base * price / 1000 && priced + 8 > base * price / 1000,
                "receipt gas ≈ flat cost × price: {priced} vs {base} × {price}‰"
            );
            assert_eq!(chain.meter().price_permille(), price);
            saw_cheap |= price < 1000;
            saw_dear |= price > 1000;
        }
        assert!(saw_cheap && saw_dear, "the step regime visits both halves");
    }

    #[test]
    fn env_realism_knobs_parse() {
        // The grammars are pure functions of the knob's text; the builders
        // they feed are what `with_env_realism` applies.
        assert_eq!(parse_reorg("3:9:4"), Ok((3, 9, 4)));
        assert_eq!(parse_reorg("1"), Ok((7, 5, 2)), "the documented default");
        assert_eq!(
            parse_fee_schedule("step:2"),
            Ok(Some(grub_gas::FeeProcess::step(2)))
        );
        assert_eq!(parse_fee_schedule("flat"), Ok(None));
        assert_eq!(parse_count::<usize>("GRUB_MEMPOOL", "6"), Ok(6));
        assert_eq!(parse_count::<u64>("GRUB_CONFIRM_DEPTH", "3"), Ok(3));
        assert_eq!(parse_latency("2:11"), Ok((2, 11)));
        assert_eq!(parse_latency("1"), Ok((1, 0)), "seed defaults to 0");
        let (seed, period, depth) = parse_reorg("3:9:4").unwrap();
        let (max_delay, latency_seed) = parse_latency("2:11").unwrap();
        let cfg = ChainConfig::default()
            .reorg(seed, period, depth)
            .latency(latency_seed, max_delay);
        assert_eq!(
            cfg.reorg,
            Some(ReorgConfig {
                seed: 3,
                period: 9,
                max_depth: 4,
            })
        );
        assert_eq!(
            cfg.latency,
            Some(LatencyConfig {
                seed: 11,
                max_delay_blocks: 2,
            })
        );
    }

    #[test]
    fn malformed_realism_knobs_are_typed_errors() {
        let named = |err: KnobError| (err.name, err.raw);
        for raw in ["1:2", "a:b:c", "1:2:3:4", "1:2:-3"] {
            let err = parse_reorg(raw).unwrap_err();
            assert!(err.to_string().contains("seed:period:depth"), "{err}");
            assert_eq!(named(err), ("GRUB_REORG", raw.to_owned()));
        }
        for raw in ["bogus", "spike:x"] {
            let err = parse_fee_schedule(raw).unwrap_err();
            assert_eq!(named(err), ("GRUB_FEE_SCHEDULE", raw.to_owned()));
        }
        let err = parse_count::<usize>("GRUB_MEMPOOL", "abc").unwrap_err();
        assert_eq!(named(err), ("GRUB_MEMPOOL", "abc".to_owned()));
        let err = parse_count::<u64>("GRUB_CONFIRM_DEPTH", "-1").unwrap_err();
        assert_eq!(named(err), ("GRUB_CONFIRM_DEPTH", "-1".to_owned()));
        for raw in ["2:x", "x", "2:3:4"] {
            let err = parse_latency(raw).unwrap_err();
            assert_eq!(named(err), ("GRUB_INCLUSION_LATENCY", raw.to_owned()));
        }
    }

    #[test]
    fn inclusion_latency_gates_mining_deterministically() {
        let run = || {
            let mut chain = Blockchain::with_config(ChainConfig::default().latency(5, 2));
            let widget = Address::derive("widget");
            let user = Address::derive("user");
            chain.deploy(widget, Rc::new(Widget), Layer::Application);
            let mut ids = Vec::new();
            for v in 0..6 {
                ids.push(submit_set(&mut chain, widget, user, v));
            }
            let mut mined_at = Vec::new();
            while chain.mempool_len() > 0 {
                let block = chain.produce_block();
                for r in &block.receipts {
                    mined_at.push((r.tx_id, r.block_number));
                }
            }
            (ids, mined_at, chain.chain_digest())
        };
        let (ids, mined_at, digest) = run();
        assert_eq!(mined_at.len(), ids.len(), "every submission mines");
        assert!(
            mined_at.iter().any(|(_, b)| *b > 1),
            "some transactions straddle into later blocks"
        );
        let (_, mined_again, digest_again) = run();
        assert_eq!(mined_at, mined_again, "the delay schedule is seeded");
        assert_eq!(digest, digest_again);
        // Latency off mines everything in the very next block.
        let (mut flat, widget, user) = setup();
        for v in 0..6 {
            submit_set(&mut flat, widget, user, v);
        }
        assert_eq!(flat.produce_block().receipts.len(), 6);
    }

    #[test]
    fn latency_and_congestion_compose_with_reorgs_digest_transparently() {
        let base = ChainConfig::default().latency(5, 2).mempool(2);
        let mut forked = Blockchain::with_config(base.reorg(7, 3, 2));
        let mut straight = Blockchain::with_config(base);
        let widget = Address::derive("widget");
        let user = Address::derive("user");
        for chain in [&mut forked, &mut straight] {
            chain.deploy(widget, Rc::new(Widget), Layer::Application);
        }
        for round in 0..14 {
            for chain in [&mut forked, &mut straight] {
                submit_set(chain, widget, user, round);
                chain.produce_block();
            }
        }
        // Drain the delayed tails identically.
        for chain in [&mut forked, &mut straight] {
            while chain.mempool_len() > 0 {
                chain.produce_block();
            }
        }
        assert!(!forked.reorg_events().is_empty(), "forks fired");
        for ev in forked.reorg_events() {
            assert_eq!(ev.resubmitted, ev.abandoned, "no lost or extra writes");
        }
        assert_eq!(forked.height(), straight.height());
        assert_eq!(
            forked.chain_digest(),
            straight.chain_digest(),
            "reorg + latency + congestion must still replay byte-identically"
        );
    }

    #[test]
    fn every_transaction_confirms_once_at_or_below_the_frontier() {
        let mut chain =
            Blockchain::with_config(ChainConfig::default().confirm_depth(3).latency(5, 1));
        let widget = Address::derive("widget");
        let user = Address::derive("user");
        chain.deploy(widget, Rc::new(Widget), Layer::Application);
        let mut submitted = Vec::new();
        for v in 0..10 {
            submitted.push(submit_set(&mut chain, widget, user, v));
            chain.produce_block();
        }
        assert!(
            chain.confirmation_lag() > 0,
            "the tip blocks are not yet three deep"
        );
        chain.await_confirmations().expect("no faults armed");
        assert_eq!(chain.confirmation_lag(), 0);
        assert_eq!(
            chain.confirmed_height(),
            chain.height() - 3,
            "the frontier trails the tip by the configured depth"
        );
        for id in submitted {
            let mined: Vec<u64> = chain
                .blocks()
                .iter()
                .flat_map(|b| &b.receipts)
                .filter(|r| r.tx_id == id)
                .map(|r| r.block_number)
                .collect();
            assert_eq!(mined.len(), 1, "{id:?} mined once");
            assert!(
                mined[0] <= chain.confirmed_height(),
                "{id:?} mined at {} above the frontier",
                mined[0]
            );
        }
    }

    #[test]
    fn confirm_depth_clamps_reorg_depth_and_keeps_frontier_monotone() {
        // max_depth 6 would roll back far deeper than the confirmation
        // depth allows; the clamp must keep every fork above the frontier.
        let mut chain =
            Blockchain::with_config(ChainConfig::default().reorg(9, 4, 6).confirm_depth(2));
        let widget = Address::derive("widget");
        let user = Address::derive("user");
        chain.deploy(widget, Rc::new(Widget), Layer::Application);
        let mut last_frontier = 0;
        for v in 0..20 {
            submit_set(&mut chain, widget, user, v);
            chain.produce_block();
            assert!(
                chain.confirmed_height() >= last_frontier,
                "the confirmation frontier never regresses"
            );
            last_frontier = chain.confirmed_height();
        }
        assert!(!chain.reorg_events().is_empty(), "forks fired");
        for ev in chain.reorg_events() {
            assert!(
                ev.depth <= 2,
                "rollback depth {} crossed the confirmation frontier",
                ev.depth
            );
        }
    }

    #[test]
    fn rollback_past_confirmation_frontier_is_a_typed_error() {
        let mut chain = Blockchain::with_config(
            ChainConfig::default()
                .reorg(1, 1_000_000, 8)
                .confirm_depth(2),
        );
        let widget = Address::derive("widget");
        let user = Address::derive("user");
        chain.deploy(widget, Rc::new(Widget), Layer::Application);
        for v in 0..8 {
            submit_set(&mut chain, widget, user, v);
            chain.produce_block();
        }
        assert_eq!(
            chain.rollback(5),
            Err(ReorgError::PastConfirmationFrontier {
                requested: 5,
                frontier: 6,
            }),
            "acknowledged blocks can never be undone"
        );
        // Rolling back exactly to the frontier is still legal.
        let replay = chain
            .rollback(2)
            .expect("the unconfirmed window rolls back");
        assert_eq!(replay.len(), 2);
    }

    #[test]
    fn pruned_chain_keeps_absolute_height_and_full_digest() {
        let run = |retain: Option<usize>| {
            let mut chain = Blockchain::with_config(ChainConfig {
                retain_blocks: retain,
                ..ChainConfig::default()
            });
            let widget = Address::derive("widget");
            chain.deploy(widget, Rc::new(Widget), Layer::Application);
            let user = Address::derive("user");
            for v in 0..20u64 {
                let mut enc = Encoder::new();
                enc.u64(v);
                chain.submit(Transaction::new(
                    user,
                    widget,
                    "set",
                    enc.finish(),
                    Layer::User,
                ));
                chain.produce_block();
            }
            chain
        };
        let full = run(None);
        let pruned = run(Some(4));
        // Only the oldest bodies aged out; the ledger itself is unchanged.
        assert_eq!(full.blocks().len(), 20);
        assert_eq!(pruned.blocks().len(), 4);
        assert_eq!(pruned.height(), 20, "pruning never rewinds the height");
        assert_eq!(pruned.blocks()[0].number, 17);
        assert_eq!(
            full.chain_digest(),
            pruned.chain_digest(),
            "the running digest covers every mined block, retained or not"
        );
        // Retained-window queries still work by absolute block number.
        assert_eq!(
            pruned
                .events_since(16, Address::derive("widget"), "ValueSet")
                .len(),
            4
        );
        // State (and static calls against it) is untouched by pruning.
        let out = pruned.static_call(
            Address::derive("user"),
            Address::derive("widget"),
            "get",
            &[],
        );
        assert_eq!(Decoder::new(&out.unwrap()).u64().unwrap(), 19);
    }

    #[test]
    fn since_queries_seek_the_blocks_a_full_filter_finds() {
        // The queries before the seek, kept as the oracle: filter every
        // retained block. Compared by identity, so a wrong block is seen
        // even when it holds an equal record.
        fn filtered<'c, T: 'c>(
            chain: &'c Blockchain,
            from: u64,
            items: impl Fn(&'c Block) -> &'c [T],
            keep: impl Fn(&T) -> bool,
        ) -> Vec<*const T> {
            let blocks = chain.blocks().iter().filter(|b| b.number > from);
            blocks
                .flat_map(items)
                .filter(|x| keep(x))
                .map(|x| x as *const T)
                .collect()
        }
        let widgets = [Address::derive("widget"), Address::derive("widget-2")];
        let user = Address::derive("user");
        let check = |chain: &Blockchain| {
            let oldest = chain
                .blocks()
                .first()
                .map_or(chain.height(), |b| b.number - 1);
            for from in oldest..=chain.height() + 1 {
                for w in widgets {
                    let events = chain.events_since(from, w, "ValueSet");
                    let events: Vec<*const Event> = events.into_iter().map(|e| e as _).collect();
                    let want = filtered(chain, from, |b| &b.events, |e| e.contract == w);
                    assert_eq!(events, want, "events after {from}");
                    let calls = chain.calls_since(from, w);
                    let calls: Vec<*const CallRecord> = calls.into_iter().map(|c| c as _).collect();
                    let want = filtered(chain, from, |b| &b.call_records, |c| c.to == w);
                    assert_eq!(calls, want, "calls after {from}");
                }
            }
        };
        for retain in [None, Some(5)] {
            let mut config = ChainConfig::default().reorg(1, 1_000_000, 4);
            config.retain_blocks = retain;
            let mut chain = Blockchain::with_config(config);
            for w in widgets {
                chain.deploy(w, Rc::new(Widget), Layer::Application);
            }
            check(&chain);
            for v in 0..16u64 {
                // Every fourth block is empty; some carry two calls.
                if v % 4 != 3 {
                    submit_set(&mut chain, widgets[(v % 2) as usize], user, v);
                }
                if v % 3 == 0 {
                    submit_set(&mut chain, widgets[1], user, v);
                }
                chain.produce_block();
                check(&chain);
                if v == 9 {
                    chain.rollback(3).expect("inside the window");
                    check(&chain);
                }
            }
        }
    }

    #[test]
    fn digest_checkpoint_passes_on_identical_replay() {
        let (mut chain, widget, user) = setup();
        let mut enc = Encoder::new();
        enc.u64(3);
        let payload = enc.finish();
        chain.submit(Transaction::new(
            user,
            widget,
            "set",
            payload.clone(),
            Layer::User,
        ));
        chain.produce_block();
        let oracle = (chain.height(), chain.chain_digest());
        // A fresh chain replaying the same stream sails through the oracle.
        let (mut replay, widget, user) = setup();
        replay.expect_digest_at(oracle.0, oracle.1);
        replay.submit(Transaction::new(user, widget, "set", payload, Layer::User));
        replay.produce_block();
        assert_eq!(replay.chain_digest(), oracle.1);
    }

    #[test]
    #[should_panic(expected = "diverged from the surviving chain")]
    fn digest_checkpoint_panics_on_divergent_replay() {
        let (mut chain, widget, user) = setup();
        let mut enc = Encoder::new();
        enc.u64(3);
        chain.submit(Transaction::new(
            user,
            widget,
            "set",
            enc.finish(),
            Layer::User,
        ));
        chain.produce_block();
        let oracle = (chain.height(), chain.chain_digest());
        let (mut replay, widget, user) = setup();
        replay.expect_digest_at(oracle.0, oracle.1);
        let mut enc = Encoder::new();
        enc.u64(4); // different payload → different digest at the checkpoint
        replay.submit(Transaction::new(
            user,
            widget,
            "set",
            enc.finish(),
            Layer::User,
        ));
        replay.produce_block();
    }
}

/// The per-block undo journal checked against the design it replaced: a
/// clone of the whole chain state per sealed block, kept here as the oracle.
#[cfg(test)]
mod undo_tests {
    use std::collections::BTreeMap;

    use grub_fault::{FaultPlan, FaultPoint};
    use proptest::prelude::*;

    use super::*;

    /// The oracle: everything a rollback must restore, cloned wholesale.
    struct StateSnapshot {
        mined: u64,
        now_ms: u64,
        digest_acc: grub_crypto::Hash32,
        chain_digest: grub_crypto::Hash32,
        storages: HashMap<Address, ContractStorage>,
        meter: GasMeter,
    }

    fn current_snapshot(chain: &Blockchain) -> StateSnapshot {
        StateSnapshot {
            mined: chain.mined,
            now_ms: chain.now_ms,
            digest_acc: chain.digest_acc,
            chain_digest: chain.chain_digest(),
            storages: chain.storages.clone(),
            meter: chain.meter.clone(),
        }
    }

    /// Asserts `chain` is exactly where `want` was taken. Storages compare
    /// modulo empty maps: undoing a contract's first write leaves its
    /// `or_default()` map behind (so does a reverted transaction), which no
    /// contract can observe — but a map the oracle has must never go missing.
    fn assert_state_eq(chain: &Blockchain, want: &StateSnapshot) {
        assert_eq!(chain.height(), want.mined, "height");
        assert_eq!(chain.now_ms(), want.now_ms, "clock");
        assert_eq!(chain.digest_acc, want.digest_acc, "running digest");
        assert_eq!(
            format!("{:?}", chain.meter),
            format!("{:?}", want.meter),
            "meter totals, per-kind totals and price"
        );
        assert_eq!(chain.chain_digest(), want.chain_digest, "chain digest");
        let occupied = |storages: &HashMap<Address, ContractStorage>| {
            storages
                .iter()
                .filter(|(_, storage)| !storage.is_empty())
                .map(|(addr, storage)| (*addr, BTreeMap::from_iter(storage.slots().clone())))
                .collect::<BTreeMap<_, _>>()
        };
        assert_eq!(occupied(&chain.storages), occupied(&want.storages), "slots");
        for addr in want.storages.keys() {
            assert!(chain.storages.contains_key(addr), "lost the map of {addr}");
        }
    }

    /// Pads `0..PADS` are deployed; `pad(PADS)` is the address nothing lives at.
    const PADS: u8 = 3;

    fn pad(i: u8) -> Address {
        Address::derive(&format!("pad{i}"))
    }

    /// A contract whose every function takes `[key, value, peer]` and writes
    /// slot `key`, here and/or in the peer pad.
    struct Pad;

    impl Contract for Pad {
        fn call(
            &self,
            ctx: &mut CallContext<'_>,
            func: &str,
            input: &[u8],
        ) -> Result<Vec<u8>, VmError> {
            let (key, peer) = (&input[..1], pad(input[2]));
            let value = vec![input[1]; 1 + usize::from(input[1] % 40)];
            match func {
                "put" => {
                    ctx.sstore(key, &value)?;
                    ctx.emit("Put", input.to_vec());
                }
                "del" => ctx.sdelete(key)?,
                "put_fail" => {
                    ctx.sstore(key, &value)?;
                    return Err(VmError::Revert("deliberate".into()));
                }
                // A nested frame's writes join the transaction's journal.
                "relay" => {
                    ctx.sstore(key, &value)?;
                    ctx.call(peer, "put", input)?;
                }
                // The simulator keeps the writes of a callee whose error the
                // caller swallows, so the journal must keep them too.
                "relay_caught" => {
                    let _ = ctx.call(peer, "put_fail", input);
                    ctx.sdelete(key)?;
                }
                // The callee's error bubbles: both frames' writes revert.
                "relay_fail" => {
                    ctx.sstore(key, &value)?;
                    ctx.call(peer, "put_fail", input)?;
                }
                _ => return Err(VmError::UnknownFunction(func.to_owned())),
            }
            Ok(Vec::new())
        }
    }

    /// How many journal entries a successful `func` leaves (0 if it reverts).
    fn writes_of(func: &str, to: u8, peer: u8) -> usize {
        match func {
            _ if to >= PADS => 0,
            "put" | "del" => 1,
            "relay" if peer < PADS => 2,
            "relay_caught" if peer < PADS => 2,
            "relay_caught" => 1,
            _ => 0,
        }
    }

    /// A reorg-mode chain whose seeded fork process never fires, so only
    /// explicit rollbacks run.
    fn quiet_chain(max_depth: usize, fee: bool) -> Blockchain {
        let mut config = ChainConfig::default().reorg(1, u64::MAX, max_depth);
        if fee {
            config = config.fee(FeeProcess::mean_reverting(3));
        }
        deploy_pads(Blockchain::with_config(config))
    }

    fn deploy_pads(mut chain: Blockchain) -> Blockchain {
        for i in 0..PADS {
            chain.deploy(pad(i), Rc::new(Pad), Layer::Application);
        }
        chain
    }

    fn submit(chain: &mut Blockchain, func: &str, to: u8, key: u8, value: u8, peer: u8) {
        chain.submit(Transaction::new(
            Address::derive("user"),
            pad(to),
            func,
            vec![key, value, peer],
            Layer::User,
        ));
    }

    fn put(chain: &mut Blockchain, to: u8, key: u8, value: u8) {
        submit(chain, "put", to, key, value, 0);
    }

    /// Mines a block and returns the oracle's clone of the state after it.
    fn seal(chain: &mut Blockchain) -> StateSnapshot {
        chain.produce_block();
        current_snapshot(chain)
    }

    fn window_writes(chain: &Blockchain) -> Vec<usize> {
        chain.undo.iter().map(|u| u.writes.len()).collect()
    }

    #[test]
    fn rollback_skips_the_writes_of_a_reverted_transaction() {
        let mut chain = quiet_chain(4, false);
        put(&mut chain, 0, 1, 10);
        let at_1 = seal(&mut chain);
        put(&mut chain, 0, 2, 20);
        submit(&mut chain, "put_fail", 0, 1, 99, 0);
        submit(&mut chain, "relay_fail", 1, 1, 98, 0);
        put(&mut chain, 0, 3, 30);
        let block = chain.produce_block();
        assert_eq!(
            block.receipts.iter().map(|r| r.success).collect::<Vec<_>>(),
            [true, false, false, true]
        );
        let record = chain.undo.back().expect("reorg mode keeps a record");
        let keys: Vec<&[u8]> = record.writes.iter().map(|w| w.key.as_slice()).collect();
        assert_eq!(
            keys,
            [[2u8].as_slice(), [3u8].as_slice()],
            "a reverted transaction undid its own writes; they are not the block's"
        );
        chain.rollback(1).expect("inside the window");
        assert_state_eq(&chain, &at_1);
        assert_eq!(
            chain.storage(pad(0)).unwrap().peek(&[1]),
            Some(&vec![10; 11])
        );
    }

    #[test]
    fn oldest_pre_image_wins_within_a_block_and_across_blocks() {
        let mut chain = quiet_chain(4, false);
        put(&mut chain, 0, 1, 1);
        let at_1 = seal(&mut chain);
        put(&mut chain, 0, 1, 2);
        put(&mut chain, 0, 1, 3);
        let at_2 = seal(&mut chain);
        put(&mut chain, 0, 1, 4);
        let at_3 = seal(&mut chain);
        assert_eq!(window_writes(&chain), [1, 2, 1]);
        // One block: the slot returns to the second of block 2's two writes.
        let replay = chain.rollback(1).expect("inside the window");
        assert_state_eq(&chain, &at_2);
        assert_eq!(chain.storage(pad(0)).unwrap().peek(&[1]), Some(&vec![3; 4]));
        let txs = replay.into_iter().next().expect("one block");
        chain.mempool = txs.into_iter().map(|p| (0, p)).collect();
        chain.produce_block();
        assert_state_eq(&chain, &at_3);
        // Two blocks at once: three writes to one slot, the oldest pre-image
        // is the one left standing.
        chain.rollback(2).expect("inside the window");
        assert_state_eq(&chain, &at_1);
        assert_eq!(chain.storage(pad(0)).unwrap().peek(&[1]), Some(&vec![1; 2]));
    }

    #[test]
    fn rollback_recreates_a_deleted_slot() {
        let mut chain = quiet_chain(4, false);
        put(&mut chain, 0, 1, 7);
        let at_1 = seal(&mut chain);
        submit(&mut chain, "del", 0, 1, 0, 0);
        // Deleting a slot that never existed journals a `None` pre-image.
        submit(&mut chain, "del", 0, 2, 0, 0);
        chain.produce_block();
        assert!(chain.storage(pad(0)).unwrap().is_empty());
        chain.rollback(1).expect("inside the window");
        assert_state_eq(&chain, &at_1);
        assert_eq!(chain.storage(pad(0)).unwrap().peek(&[1]), Some(&vec![7; 8]));
        assert_eq!(chain.storage(pad(0)).unwrap().peek(&[2]), None);
    }

    #[test]
    fn undone_first_write_leaves_an_empty_map_as_a_revert_does() {
        let mut chain = quiet_chain(2, false);
        let genesis = current_snapshot(&chain);
        assert!(genesis.storages.is_empty());
        put(&mut chain, 0, 1, 1);
        chain.produce_block();
        chain.rollback(1).expect("inside the window");
        assert_state_eq(&chain, &genesis);
        assert!(
            chain.storage(pad(0)).is_some_and(ContractStorage::is_empty),
            "the map `sstore` created stays, empty"
        );
        // The same residue a reverted transaction has always left.
        submit(&mut chain, "put_fail", 1, 1, 1, 0);
        assert!(!chain.produce_block().receipts[0].success);
        assert!(chain.storage(pad(1)).is_some_and(ContractStorage::is_empty));
        assert!(chain.storage(pad(2)).is_none());
    }

    #[test]
    fn rollback_reaches_the_whole_window_and_not_one_block_past_it() {
        let mut chain = quiet_chain(3, false);
        let mut oracle = vec![current_snapshot(&chain)];
        for v in 0..8 {
            put(&mut chain, v % PADS, v, v);
            oracle.push(seal(&mut chain));
        }
        assert_eq!(
            chain.rollback(4),
            Err(ReorgError::PastSnapshotHorizon {
                requested: 4,
                available: 3,
            })
        );
        assert_state_eq(&chain, &oracle[8]);
        assert_eq!(chain.rollback(3).expect("exactly the window").len(), 3);
        assert_state_eq(&chain, &oracle[5]);
        assert_eq!(
            chain.rollback(1),
            Err(ReorgError::PastSnapshotHorizon {
                requested: 1,
                available: 0,
            }),
            "the window does not refill by rolling back"
        );
    }

    #[test]
    fn undo_window_holds_max_depth_blocks_and_exactly_their_writes() {
        let mut chain = quiet_chain(2, false);
        let mut block_writes = Vec::new();
        for round in 0..12u8 {
            // Rounds 0, 3, 6, … mine an empty block.
            for i in 0..round % 3 {
                submit(&mut chain, "relay", i % PADS, round, i, (i + 1) % PADS);
                submit(&mut chain, "put_fail", 0, round, i, 0);
            }
            chain.produce_block();
            block_writes.push(2 * usize::from(round % 3));
            let kept = block_writes.len().min(2);
            assert_eq!(chain.undo.len(), kept, "never more than max_depth records");
            assert_eq!(
                window_writes(&chain),
                block_writes[block_writes.len() - kept..],
                "one entry per write of the blocks in the window, none for older blocks"
            );
            let newest = chain.undo.back().expect("just sealed");
            assert_eq!(newest.height, chain.height());
            if round % 3 == 0 {
                assert_eq!(
                    (newest.writes.capacity(), newest.txs.capacity()),
                    (0, 0),
                    "an empty block's record owns no heap memory"
                );
            }
        }
    }

    #[test]
    fn mid_reorg_rollback_crash_leaves_state_at_the_target() {
        let mut chain = deploy_pads(Blockchain::with_config(
            ChainConfig::default().reorg(7, 4, 2),
        ));
        let mut oracle = vec![current_snapshot(&chain)];
        for v in 0..3 {
            submit(&mut chain, "relay", v, v, v + 1, (v + 1) % PADS);
            oracle.push(seal(&mut chain));
        }
        // Height 4 forks. The fork block executes these, then the process dies
        // between the rollback and the re-commit.
        put(&mut chain, 0, 0, 50);
        submit(&mut chain, "del", 1, 0, 0, 0);
        grub_fault::arm(FaultPlan::at(FaultPoint::MidReorgRollback));
        let err = chain.try_produce_block().map(|b| b.number).unwrap_err();
        assert!(!grub_fault::is_armed(), "the crash point tripped");
        assert_eq!(err, BlockError::Injected("mid-reorg-rollback"));
        let event = chain.reorg_events().last().expect("the fork fired");
        assert_eq!(event.height, 4);
        assert!(event.resubmitted.is_empty());
        let target = 3 - event.depth;
        assert_state_eq(&chain, &oracle[target]);
        assert_eq!(chain.blocks().len(), target);
        assert_eq!(chain.rollback_capacity(), 2 - event.depth);
        assert_eq!(chain.mempool_len(), 0, "pending died with the process");
    }

    #[test]
    fn seeded_forks_leave_the_state_of_a_straight_line_run() {
        let mut forked = deploy_pads(Blockchain::with_config(
            ChainConfig::default().reorg(7, 3, 2),
        ));
        let mut straight = deploy_pads(Blockchain::new());
        let funcs = ["put", "relay", "del", "put_fail", "relay_caught"];
        for round in 0..40u8 {
            for chain in [&mut forked, &mut straight] {
                for i in 0..round % 4 {
                    let func = funcs[usize::from(round + i) % funcs.len()];
                    submit(
                        chain,
                        func,
                        i % PADS,
                        round % 5,
                        round,
                        (i + 1) % (PADS + 1),
                    );
                }
                chain.produce_block();
            }
            assert_state_eq(&forked, &current_snapshot(&straight));
        }
        assert!(forked.reorg_events().len() >= 10, "forks fired");
    }

    #[derive(Debug, Clone)]
    enum Step {
        Tx {
            func: &'static str,
            to: u8,
            key: u8,
            value: u8,
            peer: u8,
        },
        Block,
        Rollback {
            depth: usize,
            recommit: bool,
        },
        MeterReset,
    }

    fn step() -> impl Strategy<Value = Step> {
        let func = prop::sample::select(vec![
            "put",
            "put",
            "del",
            "put_fail",
            "relay",
            "relay_caught",
            "relay_fail",
        ]);
        // `to` and `peer` reach one past the deployed pads: unknown contracts.
        let tx = || {
            (func.clone(), 0..=PADS, 0..4u8, any::<u8>(), 0..=PADS).prop_map(
                |(func, to, key, value, peer)| Step::Tx {
                    func,
                    to,
                    key,
                    value,
                    peer,
                },
            )
        };
        prop_oneof![
            tx(),
            tx(),
            tx(),
            tx(),
            Just(Step::Block),
            Just(Step::Block),
            Just(Step::Block),
            (0..6usize, any::<bool>())
                .prop_map(|(depth, recommit)| Step::Rollback { depth, recommit }),
            (0..40u8).prop_map(|n| if n == 0 {
                Step::MeterReset
            } else {
                Step::Block
            }),
        ]
    }

    /// Drives one chain through `script` beside the clone-per-block oracle.
    fn run_script(max_depth: usize, fee: bool, script: &[Step]) {
        let mut chain = quiet_chain(max_depth, fee);
        // Indexed by height: the oracle's clone and the block's journaled writes.
        let mut oracle = vec![current_snapshot(&chain)];
        let mut block_writes = vec![0usize];
        let mut queued_writes = 0;
        for step in script {
            match *step {
                Step::Tx {
                    func,
                    to,
                    key,
                    value,
                    peer,
                } => {
                    submit(&mut chain, func, to, key, value, peer);
                    queued_writes += writes_of(func, to, peer);
                }
                Step::Block => {
                    oracle.push(seal(&mut chain));
                    block_writes.push(std::mem::take(&mut queued_writes));
                }
                Step::MeterReset => {
                    chain.meter_reset();
                    assert_eq!(chain.rollback_capacity(), 0, "no fork crosses a reset");
                    let tip = oracle.len() - 1;
                    oracle[tip] = current_snapshot(&chain);
                }
                Step::Rollback { depth, .. } if depth > chain.rollback_capacity() => {
                    let height = chain.blocks().len();
                    let want = if depth > height {
                        ReorgError::PastRetainedWindow {
                            requested: depth,
                            retained: height,
                        }
                    } else {
                        ReorgError::PastSnapshotHorizon {
                            requested: depth,
                            available: chain.rollback_capacity(),
                        }
                    };
                    assert_eq!(chain.rollback(depth), Err(want));
                    assert_state_eq(&chain, &oracle[height]);
                }
                Step::Rollback { depth, recommit } => {
                    let tip = chain.blocks().len();
                    let target = tip - depth;
                    let replay = chain.rollback(depth).expect("inside the window");
                    assert_eq!(replay.len(), depth);
                    assert_state_eq(&chain, &oracle[target]);
                    if recommit {
                        let queued = std::mem::take(&mut chain.mempool);
                        for txs in replay {
                            chain.mempool = txs.into_iter().map(|p| (0, p)).collect();
                            chain.produce_block();
                            assert_state_eq(&chain, &oracle[chain.blocks().len()]);
                        }
                        assert_eq!(chain.chain_digest(), oracle[tip].chain_digest);
                        chain.mempool = queued;
                    } else {
                        // The rolled-back branch loses: new blocks take its heights.
                        oracle.truncate(target + 1);
                        block_writes.truncate(target + 1);
                    }
                }
            }
            assert!(chain.undo.len() <= max_depth);
            let tip = chain.blocks().len();
            assert_eq!(
                window_writes(&chain),
                block_writes[tip + 1 - chain.undo.len()..=tip],
                "the window holds the newest blocks' writes and nothing else"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random transactions (plain, deleting, reverting, nested, nested with
        /// a swallowed failure, aimed at nothing) × random block boundaries ×
        /// rollbacks of every depth up to past the window, re-committed or
        /// abandoned × meter resets, with and without a per-block gas price.
        #[test]
        fn rollback_matches_the_clone_per_block_oracle(
            max_depth in 1..5usize,
            fee in any::<bool>(),
            script in prop::collection::vec(step(), 1..120),
        ) {
            run_script(max_depth, fee, &script);
        }
    }
}
