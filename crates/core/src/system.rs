//! The system harness: wires chain + DO + SP + consumer contracts and
//! drives workloads epoch by epoch (paper Figure 4a, §5 methodology),
//! pulling operations from an [`OpSource`] (the ingestion layer's one
//! contract; see `grub_workload::source`) so only the open epoch's staged
//! operations are ever resident. A materialized `Trace` enters through
//! `Trace::source()` / `Trace::into_source()`.
//!
//! Epoch mechanics follow the paper's experiments: trace operations are
//! processed in order; reads are submitted as consumer transactions (batched
//! per the §5.1 note "each transaction encoding 32 operations"); writes are
//! batched by the DO into one `update` transaction per epoch; the SP's
//! watchdog answers replica misses with proof-carrying `deliver`
//! transactions in the following block. Gas is read off the chain's meter
//! per epoch and attributed to feed and application layers.
//!
//! Two types carry it:
//!
//! * [`EpochDriver`] — one feed's full deployment (the DO, the SP, the open
//!   epoch's buffered operations, the storage-manager and consumer
//!   contracts) *without* a chain of its own: every chain-facing method
//!   borrows a [`Blockchain`], so any number of drivers can share one chain,
//!   and a method without a `chain` parameter cannot touch it. An epoch
//!   closes through one sequence of public calls (the "Epoch lifecycle" on
//!   [`EpochDriver`]): [`EpochDriver::close_epoch`] makes all of them with
//!   the feed's own transactions, and external schedulers (the multi-tenant
//!   `grub-engine`) make them one by one so the staged `update()` and
//!   `deliver()` payloads can ride shard-level batch transactions;
//! * [`GrubSystem`] — the classic single-feed harness: owns one chain and
//!   one driver (reached through [`GrubSystem::driver`]) and exposes the
//!   one-call [`GrubSystem::run`] entry points.

use std::rc::Rc;

use grub_chain::codec::Encoder;
use grub_chain::{Address, Blockchain, ChainConfig, Receipt, Transaction};
use grub_gas::{GasSnapshot, Layer};
use grub_merkle::ReplState;
use grub_workload::{Op, OpSource};

use crate::contract::{NullConsumer, OnChainTrace, StorageManager};
use crate::metrics::{EpochReport, RunReport};
use crate::owner::DataOwner;
use crate::policy::{PolicyKind, ReplicationPolicy};
use crate::provider::{AdversaryMode, StorageProvider};
use crate::{GrubError, Result};

/// Reads batched per consumer transaction (§5.1: "each transaction
/// encoding 32 operations"). A live-tempo read is submitted alone, so only
/// batched reads are chunked by it.
const READS_PER_TX: usize = 32;

/// Configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Replication policy under test.
    pub policy: PolicyKind,
    /// Trace operations per epoch (the paper's experiments use 32, or 4 for
    /// the BtcRelay study).
    pub epoch_ops: usize,
    /// Records preloaded before metering starts.
    pub preload: Vec<(String, Vec<u8>)>,
    /// Where monitoring counters live (BL3 baselines store them on-chain).
    pub on_chain_trace: OnChainTrace,
    /// Preloads the dataset replicated under any policy (BL2 always does):
    /// a warm-started adaptive policy begins with the replicas in place —
    /// the slot capex lands in the unmetered provisioning phase and
    /// steady-state re-replication costs `Cupdate` via slot reuse.
    pub warm_start: bool,
    /// Whether an epoch's reads are batched into shared blocks (the §5.1
    /// methodology, 32 ops per transaction) or arrive one per block as a
    /// live trace replay does (§4's oracle and BtcRelay experiments). When
    /// reads share a block, same-key requests coalesce into one `deliver`.
    pub coalesce_reads: bool,
    /// Where the SP's LSM store lives. `None` (the default) uses a fresh
    /// temp directory that is deleted when the provider drops; `Some(dir)`
    /// opens a *persistent* store at `dir` that survives drops and simulated
    /// process deaths — the crash-recovery tests point each feed here.
    pub store_dir: Option<std::path::PathBuf>,
    /// SP store tuning knobs (`None` = [`grub_store::Options::default`]).
    /// Crash tests shrink `memtable_bytes` so SSTable flushes — and the
    /// mid-flush crash point — actually occur on small workloads.
    pub store_options: Option<grub_store::Options>,
    /// Chain timing parameters.
    pub chain: ChainConfig,
}

impl SystemConfig {
    /// A config with the paper's defaults for the given policy.
    pub fn new(policy: PolicyKind) -> Self {
        SystemConfig {
            policy,
            epoch_ops: 32,
            preload: Vec::new(),
            on_chain_trace: OnChainTrace::None,
            warm_start: false,
            coalesce_reads: true,
            store_dir: None,
            store_options: None,
            chain: ChainConfig::default(),
        }
    }

    /// Warm-starts the deployment with the preload already replicated.
    pub fn warm_start(mut self) -> Self {
        self.warm_start = true;
        self
    }

    /// Replays reads one per block instead of batching them (the §4 case
    /// studies' tempo).
    pub fn live_reads(mut self) -> Self {
        self.coalesce_reads = false;
        self
    }

    /// Sets the epoch size in operations.
    pub fn epoch_ops(mut self, ops: usize) -> Self {
        self.epoch_ops = ops.max(1);
        self
    }

    /// Sets the preload dataset.
    pub fn preload(mut self, records: Vec<(String, Vec<u8>)>) -> Self {
        self.preload = records;
        self
    }

    /// Points the SP's store at a persistent directory (surviving drops and
    /// simulated crashes) instead of an ephemeral temp dir.
    pub fn store_at(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Overrides the SP store's tuning knobs.
    pub fn store_options(mut self, options: grub_store::Options) -> Self {
        self.store_options = Some(options);
        self
    }

    /// Enables a BL3 on-chain-trace baseline.
    pub fn on_chain_trace(mut self, mode: OnChainTrace) -> Self {
        self.on_chain_trace = mode;
        self
    }
}

/// Builds the consumer transactions for an epoch's pending read keys —
/// harnesses override this to route reads through application contracts
/// (e.g. SCoinIssuer's `issue`/`redeem`, §4.1).
pub type ReadTxBuilder = Box<dyn Fn(&[String]) -> Vec<Transaction>>;

/// On-chain identity of one feed deployment: how its contract and account
/// addresses are derived, and who besides the DO may call `update()`.
#[derive(Clone, Debug, Default)]
pub struct DriverIdentity {
    /// Distinguishes this feed's addresses from other feeds sharing the
    /// chain. The empty namespace yields the classic singleton layout
    /// (`grub-storage-manager` etc.); a multi-tenant engine passes the
    /// tenant name.
    pub namespace: String,
    /// An additional account/contract authorized to call `update()` on this
    /// feed's storage manager — the shard router that batches many feeds'
    /// epoch updates into one transaction.
    pub update_delegate: Option<Address>,
}

impl DriverIdentity {
    /// Identity for a namespaced tenant feed.
    pub fn tenant(namespace: impl Into<String>) -> Self {
        DriverIdentity {
            namespace: namespace.into(),
            update_delegate: None,
        }
    }

    /// Adds a delegated `update()` caller (the shard router).
    pub fn with_update_delegate(mut self, delegate: Address) -> Self {
        self.update_delegate = Some(delegate);
        self
    }

    fn derive(&self, base: &str) -> Address {
        if self.namespace.is_empty() {
            Address::derive(base)
        } else {
            Address::derive(&format!("{base}/{}", self.namespace))
        }
    }
}

/// One epoch's staged `update()` transaction payloads, produced by
/// [`EpochDriver::stage_update`] and consumed either by
/// [`EpochDriver::submit_update`] (the single-feed path) or by an external
/// batcher that routes the chunks through a shard-level transaction.
#[derive(Clone, Debug, Default)]
pub struct StagedUpdate {
    /// Encoded `update()` inputs, moved from [`EpochFlush::chunks`]: each
    /// carries the epoch's digest, and the DO cut them by one rule — a pair
    /// counts `key + value + 16` bytes, a `toNR` key `key + 8`, and a chunk
    /// closes before its count would pass [`MAX_TX_PAYLOAD_BYTES`], keeping
    /// each under the `Ctx` 1000-word bound. Empty when the epoch had
    /// nothing to flush.
    ///
    /// [`EpochFlush::chunks`]: crate::owner::EpochFlush::chunks
    /// [`MAX_TX_PAYLOAD_BYTES`]: crate::contract::MAX_TX_PAYLOAD_BYTES
    pub chunks: Vec<Vec<u8>>,
    /// Trace operations closed out by this epoch.
    pub ops: usize,
    /// NR→R transitions actuated at this flush.
    pub replications: usize,
    /// R→NR transitions actuated at this flush.
    pub evictions: usize,
}

/// Cumulative hot-path counters for one feed's off-chain work: the SP
/// store's read fast path plus the Merkle work both tree holders performed.
/// Observability only — none of these numbers may reach a digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StagePerf {
    /// SP store block-cache hits.
    pub cache_hits: u64,
    /// SP store block-cache misses.
    pub cache_misses: u64,
    /// SP store table probes answered by a bloom true negative.
    pub bloom_skips: u64,
    /// Merkle nodes rehashed by batched updates (SP tree + DO mirror).
    pub merkle_nodes_rehashed: u64,
}

/// One epoch's staged read phase, produced by [`EpochDriver::stage_reads`]
/// and consumed by [`EpochDriver::finish_staged_epoch`]: the watchdog's
/// deliver payloads, unmined so a scheduler can coalesce many feeds'
/// delivers into one shard `batchDeliver`, plus the feed's own
/// snapshot-differenced Gas.
#[derive(Clone, Debug, Default)]
pub struct StagedReads {
    /// Encoded `deliver()` inputs for this feed's storage manager, one per
    /// watchdog delivery (same-key point requests are already coalesced).
    /// Empty when every read hit an on-chain replica or the epoch had no
    /// reads.
    pub delivers: Vec<Vec<u8>>,
    /// Feed-layer Gas of the feed's own read work (and of its own deliver
    /// transactions, when the driver mined them).
    feed_gas: u64,
    /// Application-layer Gas of the same work.
    app_gas: u64,
    /// The driver's own deliver transactions the contract rejected; 0 when
    /// a scheduler mines them (a rejected shard batch aborts the run).
    failed_delivers: usize,
}

impl StagedReads {
    /// The feed's own read work since `before`, metered off the chain.
    fn metered(
        chain: &Blockchain,
        before: GasSnapshot,
        delivers: Vec<Vec<u8>>,
        failed_delivers: usize,
    ) -> Self {
        let (feed, app) = chain.gas_snapshot().since(before);
        StagedReads {
            delivers,
            feed_gas: feed.amount(),
            app_gas: app.amount(),
            failed_delivers,
        }
    }
}

/// One feed's deployment — DO (policy state + hash mirror), SP (store +
/// Merkle tree), the open epoch's staged operations, contract addresses —
/// driving epochs against a *borrowed* chain, so many drivers can share
/// one. A method without a `chain` parameter cannot touch the chain.
/// Per-epoch Gas is snapshot-differenced around the feed's own work, exact
/// as long as a scheduler finishes one driver's epoch work before the next.
///
/// # Epoch lifecycle
///
/// One sequence, the paper's Figure 4a (the DO's `update`, the consumers'
/// reads, the SP's proof-carrying `deliver`s in the following block):
///
/// 1. [`EpochDriver::ingest`] stages operations until the epoch is full;
/// 2. [`EpochDriver::stage_update`] flushes the DO, syncs the SP and
///    encodes the `update()` chunks, off-chain;
/// 3. the chunks are submitted — [`EpochDriver::submit_update`], or a
///    scheduler's shard `batchUpdate`;
/// 4. [`EpochDriver::stage_reads`] mines the read block, reaches the
///    acknowledgment boundary (depth-N confirmation, then the DO reads the
///    fee tape) and returns the watchdog's `deliver()` payloads;
/// 5. the delivers are mined — as the feed's own transactions, or in a
///    shard `batchDeliver`;
/// 6. [`EpochDriver::finish_staged_epoch`] books the [`EpochReport`].
///
/// [`EpochDriver::close_epoch`] is steps 2–6 with the feed's own
/// transactions; [`EpochDriver::run_read_phase`] is steps 4–6. Only the
/// driver knows the read tempo: at live tempo ([`SystemConfig::live_reads`])
/// step 4 alternates reads and their delivers block by block, reaches the
/// acknowledgment boundary after the last deliver, and leaves step 5
/// nothing to mine.
pub struct EpochDriver {
    owner: DataOwner,
    provider: StorageProvider,
    epoch_ops: usize,
    coalesce_reads: bool,
    pending_reads: Vec<String>,
    pending_scans: Vec<(String, String)>,
    ops_in_epoch: usize,
    manager: Address,
    consumer: Address,
    reports: Vec<EpochReport>,
    completed_ops: usize,
    read_tx_builder: Option<ReadTxBuilder>,
}

impl EpochDriver {
    /// Deploys one feed (contracts, DO, SP) onto `chain` and preloads its
    /// dataset. The Gas meter is *not* reset — the caller decides when
    /// provisioning ends (a multi-feed engine resets once after all feeds
    /// deploy). The caller keeps `config`, so the DO loads a clone of its
    /// preload; [`EpochDriver::deploy_owned`] avoids that copy.
    ///
    /// # Errors
    ///
    /// Propagates store failures and failed preload transactions.
    pub fn deploy(
        chain: &mut Blockchain,
        config: &SystemConfig,
        identity: &DriverIdentity,
    ) -> Result<Self> {
        Self::deploy_owned(chain, config.clone(), identity)
    }

    /// [`EpochDriver::deploy`] taking the config, and with it the preload,
    /// by value: the DO keeps the records it is handed.
    ///
    /// # Errors
    ///
    /// Propagates store failures and failed preload transactions.
    pub fn deploy_owned(
        chain: &mut Blockchain,
        config: SystemConfig,
        identity: &DriverIdentity,
    ) -> Result<Self> {
        let policy = config.policy.build(&grub_gas::GasSchedule::default());
        Self::deploy_with_policy(chain, config, policy, identity)
    }

    /// Like [`EpochDriver::deploy_owned`] with an explicit policy object
    /// (offline optimal).
    ///
    /// # Errors
    ///
    /// Propagates store failures and failed preload transactions.
    pub fn deploy_with_policy(
        chain: &mut Blockchain,
        config: SystemConfig,
        policy: Box<dyn ReplicationPolicy>,
        identity: &DriverIdentity,
    ) -> Result<Self> {
        let do_addr = identity.derive("grub-data-owner");
        let sp_addr = identity.derive("grub-storage-provider");
        let manager = identity.derive("grub-storage-manager");
        let consumer = identity.derive("grub-null-consumer");
        let manager_code = match identity.update_delegate {
            Some(delegate) => {
                StorageManager::with_delegate(do_addr, delegate, config.on_chain_trace)
            }
            None => StorageManager::new(do_addr, config.on_chain_trace),
        };
        chain.deploy(manager, Rc::new(manager_code), Layer::Feed);
        chain.deploy(
            consumer,
            Rc::new(NullConsumer::new(manager)),
            Layer::Application,
        );
        let mut owner = DataOwner::new(do_addr, policy);
        let store_options = config.store_options.unwrap_or_default();
        let mut provider = match &config.store_dir {
            Some(dir) => StorageProvider::open_at(sp_addr, dir.clone(), store_options)?,
            None => StorageProvider::new_with_options(sp_addr, store_options)?,
        };

        // Preload: BL2-style policies want the dataset replicated up front;
        // warm-started adaptive deployments may too.
        let preload_state = if config.warm_start || matches!(config.policy, PolicyKind::Bl2) {
            ReplState::Replicated
        } else {
            ReplState::NotReplicated
        };
        // One copy of the dataset: the SP reads it into its store and tree,
        // then the DO takes it — no sync list in between — and returns the
        // `update()` inputs that seed the chain (the root digest, plus the
        // replicas when preloading replicated).
        provider.bulk_load(&config.preload, preload_state)?;
        for input in owner.bulk_load(config.preload, preload_state) {
            submit_checked(chain, do_addr, manager, "update", input)?;
        }
        Ok(EpochDriver {
            owner,
            provider,
            // Clamped even though the builder clamps too: the field is pub,
            // and a zero here would make external epoch-granular schedulers
            // spin on empty epochs without ever consuming the trace.
            epoch_ops: config.epoch_ops.max(1),
            coalesce_reads: config.coalesce_reads,
            pending_reads: Vec::new(),
            pending_scans: Vec::new(),
            ops_in_epoch: 0,
            manager,
            consumer,
            reports: Vec::new(),
            completed_ops: 0,
            read_tx_builder: None,
        })
    }

    /// Returns the driver itself. Exists only because the frozen benchmark
    /// harness (`benchmark/src/pipeline.rs`) calls `stage_mut().ingest`;
    /// delete it once the harness calls [`EpochDriver::ingest`] directly
    /// (benchmark v2 in ROADMAP.md).
    pub fn stage_mut(&mut self) -> &mut Self {
        self
    }

    /// Replaces the default `batchRead` driver: the builder receives each
    /// epoch's pending read keys and returns the consumer transactions to
    /// submit (the §4.1 experiment maps reads onto SCoinIssuer calls).
    pub fn set_read_tx_builder(&mut self, builder: ReadTxBuilder) {
        self.read_tx_builder = Some(builder);
    }

    /// Cumulative hot-path counters for this feed (see [`StagePerf`]).
    pub fn perf(&self) -> StagePerf {
        let reads = self.provider.read_stats();
        StagePerf {
            cache_hits: reads.cache_hits,
            cache_misses: reads.cache_misses,
            bloom_skips: reads.bloom_skips,
            merkle_nodes_rehashed: self.provider.nodes_rehashed() + self.owner.nodes_rehashed(),
        }
    }

    /// Pulls operations from `source` until the epoch is full or the
    /// stream ends — the one ingestion loop every scheduler shares. The
    /// source advances exactly as far as the epoch consumed: a scheduler
    /// that parks this feed next round simply doesn't pull, and the stream
    /// position is the only cursor.
    pub fn ingest(&mut self, source: &mut dyn OpSource) {
        while self.ops_in_epoch < self.epoch_ops {
            let Some(op) = source.next_op() else { break };
            self.push_op(op);
        }
    }

    /// Closes the epoch's write path off-chain: flushes the DO, syncs the
    /// SP, and returns the encoded `update()` payload chunks for the caller
    /// to submit (directly, or batched through a shard router).
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    pub fn stage_update(&mut self) -> Result<StagedUpdate> {
        let ops = std::mem::replace(&mut self.ops_in_epoch, 0);
        // The DO's epoch update (gPuts write path), already encoded; the
        // sync ops move to the SP.
        let flush = self.owner.flush_epoch();
        self.provider.apply_sync_batch(flush.sp_sync)?;
        Ok(StagedUpdate {
            chunks: flush.chunks,
            ops,
            replications: flush.replications,
            evictions: flush.evictions,
        })
    }

    /// Submits the staged update chunks as this feed's own transactions
    /// (one per chunk, unbatched). They are mined by the next block seal —
    /// in coalesced-read mode that is the epoch's shared block.
    pub fn submit_update(&self, chain: &mut Blockchain, staged: &StagedUpdate) {
        let from = self.owner.address();
        for input in &staged.chunks {
            let tx = Transaction::new(from, self.manager, "update", input.clone(), Layer::Feed);
            chain.submit(tx);
        }
    }

    /// Steps 4–6 of the epoch lifecycle with this feed's own deliver
    /// transactions (block by block at live tempo). The booked Gas includes
    /// any update transactions still in the mempool.
    ///
    /// # Errors
    ///
    /// Propagates store failures and protocol-violating transaction
    /// failures.
    pub fn run_read_phase(&mut self, chain: &mut Blockchain, staged: &StagedUpdate) -> Result<()> {
        let before = chain.gas_snapshot();
        let reads = self.stage_reads(chain)?;
        let failed = self.mine_delivers(chain, reads.delivers)?;
        let reads = StagedReads::metered(chain, before, Vec::new(), reads.failed_delivers + failed);
        self.finish_staged_epoch(staged, &reads);
        Ok(())
    }

    /// Runs the epoch's read phase up to the deliver step: notes hinted
    /// replicas, mines the consumer read block, reaches the acknowledgment
    /// boundary, and returns the watchdog's `deliver()` payloads
    /// *unsubmitted* with the feed's own snapshot-differenced Gas. The
    /// caller mines the delivers, then books the epoch with
    /// [`EpochDriver::finish_staged_epoch`]. At live tempo
    /// ([`SystemConfig::live_reads`]) each read's delivers must land in the
    /// block after its own, so the driver mines them here and returns none.
    ///
    /// # Errors
    ///
    /// Propagates store failures and protocol-violating transaction
    /// failures.
    pub fn stage_reads(&mut self, chain: &mut Blockchain) -> Result<StagedReads> {
        let before = chain.gas_snapshot();
        let reads = std::mem::take(&mut self.pending_reads);
        let scans = std::mem::take(&mut self.pending_scans);
        if !self.coalesce_reads {
            let failed = self.run_live_reads(chain, reads, scans)?;
            return Ok(StagedReads::metered(chain, before, Vec::new(), failed));
        }
        // Consumer read transactions share one block (§5.1 methodology).
        for key in &reads {
            self.hint_replica(key);
        }
        for tx in self.build_read_txs(&reads) {
            chain.submit(tx);
        }
        for (start, end) in scans {
            self.submit_scan(chain, &start, &end);
        }
        self.seal_block(chain)?;
        self.acknowledge(chain)?;
        let delivers = self.watchdog(chain)?;
        Ok(StagedReads::metered(chain, before, delivers, 0))
    }

    /// Books the epoch staged by [`EpochDriver::stage_update`] and
    /// [`EpochDriver::stage_reads`] — the one place an [`EpochReport`] is
    /// built. It carries the feed's own Gas; shared shard
    /// `batchUpdate`/`batchDeliver` transactions are attributed by the
    /// scheduler.
    pub fn finish_staged_epoch(&mut self, update: &StagedUpdate, reads: &StagedReads) {
        self.completed_ops += update.ops;
        self.reports.push(EpochReport {
            epoch: self.reports.len(),
            ops: update.ops,
            feed_gas: reads.feed_gas,
            app_gas: reads.app_gas,
            replications: update.replications,
            evictions: update.evictions,
            failed_delivers: reads.failed_delivers,
        });
    }

    /// Closes the current epoch end to end with this feed's own
    /// transactions: [`EpochDriver::stage_update`],
    /// [`EpochDriver::submit_update`], then [`EpochDriver::run_read_phase`].
    ///
    /// # Errors
    ///
    /// Propagates store failures and protocol-violating transaction
    /// failures.
    pub fn close_epoch(&mut self, chain: &mut Blockchain) -> Result<()> {
        let staged = self.stage_update()?;
        self.submit_update(chain, &staged);
        self.run_read_phase(chain, &staged)
    }

    /// Drives an operation stream to exhaustion, closing epochs as they
    /// fill and the trailing partial epoch at the end. Only the open
    /// epoch's staged operations are ever resident. The stream's end is an
    /// acknowledgment boundary, as the engine's round boundary is: the run
    /// returns with its last deliver block confirmed.
    ///
    /// # Errors
    ///
    /// Propagates store failures and protocol-violating transaction
    /// failures.
    pub fn drive(&mut self, chain: &mut Blockchain, source: &mut dyn OpSource) -> Result<()> {
        loop {
            self.ingest(source);
            if self.ops_in_epoch == 0 {
                break;
            }
            self.close_epoch(chain)?;
        }
        chain.await_confirmations().map_err(GrubError::from)
    }

    /// Stages one operation into the current epoch without chain
    /// interaction.
    fn push_op(&mut self, op: Op) {
        match op {
            Op::Write { key, value } => {
                self.owner.observe_write(&key, value.materialize());
            }
            Op::Read { key } => {
                // In batched mode the whole epoch's reads share a block, so
                // the monitor legitimately sees them all before the SP
                // delivers; in live mode each read is observed at its own
                // block (see EpochDriver::run_live_reads).
                if self.coalesce_reads {
                    self.owner.observe_read(&key);
                }
                self.pending_reads.push(key);
            }
            Op::Scan { start_key, len } => {
                if self.coalesce_reads {
                    self.owner.observe_read(&start_key);
                }
                let end_key = scan_end_key(&start_key, len);
                self.pending_scans.push((start_key, end_key));
            }
        }
        self.ops_in_epoch += 1;
    }

    /// Records a hinted replica when the DO wants `key` replicated and it
    /// is not yet: its next delivery installs the replica.
    fn hint_replica(&mut self, key: &str) {
        if self.owner.desired_state(key) == ReplState::Replicated
            && self.owner.state_of(key) == ReplState::NotReplicated
        {
            self.owner.note_hinted_replica(key);
        }
    }

    /// The SP's watchdog, answering requests since its last poll; a point
    /// delivery installs its replica exactly when the DO hinted the key this
    /// epoch.
    fn watchdog(&mut self, chain: &Blockchain) -> Result<Vec<Vec<u8>>> {
        let owner = &self.owner;
        self.provider
            .watchdog(chain, self.manager, |key| owner.is_hinted(key))
    }

    /// The live-tempo read phase: the update lands in its own block, then
    /// every read and scan gets its own block followed by its delivers.
    /// Returns how many of those delivers the contract rejected.
    fn run_live_reads(
        &mut self,
        chain: &mut Blockchain,
        reads: Vec<String>,
        scans: Vec<(String, String)>,
    ) -> Result<usize> {
        let mut failed = 0;
        self.seal_block(chain)?;
        for key in reads {
            // The monitor observes this read when its block lands, and a
            // (possibly flipped) decision's replica is hinted before the SP
            // delivers.
            self.owner.observe_read(&key);
            self.hint_replica(&key);
            for tx in self.build_read_txs(std::slice::from_ref(&key)) {
                chain.submit(tx);
            }
            self.seal_block(chain)?;
            let delivers = self.watchdog(chain)?;
            failed += self.mine_delivers(chain, delivers)?;
        }
        for (start, end) in scans {
            self.owner.observe_read(&start);
            self.submit_scan(chain, &start, &end);
            self.seal_block(chain)?;
            let delivers = self.watchdog(chain)?;
            failed += self.mine_delivers(chain, delivers)?;
        }
        self.acknowledge(chain)?;
        Ok(failed)
    }

    /// The epoch's acknowledgment boundary. Depth-N acknowledgment first:
    /// every block the epoch mined must be `confirm_depth` blocks deep, so
    /// what the DO observes is confirmed, not tip, state (a no-op at depth
    /// 0, where the tip is the confirmation frontier). Then the DO reads
    /// the fee tape: the confirmation frontier's price steers the next
    /// fee-aware decisions.
    fn acknowledge(&mut self, chain: &mut Blockchain) -> Result<()> {
        chain.await_confirmations().map_err(GrubError::from)?;
        self.owner
            .observe_fee_price(chain.fee_price_permille(chain.confirmed_height()));
        Ok(())
    }

    /// Submits `delivers` as this feed's own `deliver()` transactions and
    /// mines them, returning how many the contract rejected.
    fn mine_delivers(&self, chain: &mut Blockchain, delivers: Vec<Vec<u8>>) -> Result<usize> {
        let from = self.provider.address();
        for input in delivers {
            let tx = Transaction::new(from, self.manager, "deliver", input, Layer::Feed);
            chain.submit(tx);
        }
        let mut rejected = 0;
        mine_until_drained(chain, |receipt| {
            rejected += usize::from(!receipt.success);
            Ok(())
        })?;
        Ok(rejected)
    }

    fn build_read_txs(&self, reads: &[String]) -> Vec<Transaction> {
        if reads.is_empty() {
            return Vec::new();
        }
        if let Some(builder) = &self.read_tx_builder {
            return builder(reads);
        }
        reads
            .chunks(READS_PER_TX)
            .map(|chunk| {
                let mut enc = Encoder::new();
                enc.u64(chunk.len() as u64);
                for key in chunk {
                    enc.bytes(key.as_bytes());
                }
                Transaction::new(
                    Address::derive("end-user"),
                    self.consumer,
                    "batchRead",
                    enc.finish(),
                    Layer::User,
                )
            })
            .collect()
    }

    fn submit_scan(&self, chain: &mut Blockchain, start: &str, end: &str) {
        let mut enc = Encoder::new();
        enc.bytes(start.as_bytes()).bytes(end.as_bytes());
        chain.submit(Transaction::new(
            Address::derive("end-user"),
            self.consumer,
            "scan",
            enc.finish(),
            Layer::User,
        ));
    }

    /// Mines pending transactions — across as many blocks as mempool
    /// congestion requires — erroring on any protocol failure.
    fn seal_block(&self, chain: &mut Blockchain) -> Result<()> {
        mine_until_drained(chain, |receipt| {
            if receipt.success {
                return Ok(());
            }
            Err(GrubError::Chain(format!(
                "epoch transaction failed: {}",
                receipt.error.as_deref().unwrap_or("unknown")
            )))
        })
    }

    /// Puts the SP into an adversarial mode (security experiments).
    ///
    /// # Errors
    ///
    /// Propagates a failed store scan when [`AdversaryMode::ReplayStale`]
    /// takes its snapshot.
    pub fn set_adversary(&mut self, mode: AdversaryMode) -> Result<()> {
        self.provider.set_mode(mode)
    }

    /// The storage-manager contract address.
    pub fn manager(&self) -> Address {
        self.manager
    }

    /// The data owner's account address (the authorized `update()` sender —
    /// external batchers use it to submit a lone update directly when
    /// routing through a one-section batch would only add framing cost).
    pub fn data_owner(&self) -> Address {
        self.owner.address()
    }

    /// The storage provider's account address (the `deliver()` sender).
    pub fn provider_address(&self) -> Address {
        self.provider.address()
    }

    /// The data owner, for assertions.
    pub fn owner(&self) -> &DataOwner {
        &self.owner
    }

    /// Mutable DO access (used by application harnesses that interleave
    /// their own monitoring).
    pub fn owner_mut(&mut self) -> &mut DataOwner {
        &mut self.owner
    }

    /// The storage provider, for assertions.
    pub fn provider(&self) -> &StorageProvider {
        &self.provider
    }

    /// Mutable SP access — the scrubber's repair path and the fault tests'
    /// tamper hooks.
    pub fn provider_mut(&mut self) -> &mut StorageProvider {
        &mut self.provider
    }

    /// Runs one scrub pass of this feed's SP against its DO and on-chain
    /// root (see [`crate::scrub::Scrubber`]).
    ///
    /// # Errors
    ///
    /// Store I/O failures, or a failed `root()` view call.
    pub fn scrub(
        &mut self,
        chain: &Blockchain,
        scrubber: crate::scrub::Scrubber,
    ) -> Result<crate::scrub::ScrubReport> {
        scrubber.scrub(chain, self.manager, &self.owner, &mut self.provider)
    }

    /// Epoch reports accumulated so far.
    pub fn reports(&self) -> &[EpochReport] {
        &self.reports
    }

    /// Trace operations completed across all booked epochs — a running
    /// counter, so per-round schedulers don't re-sum the whole report
    /// history (which grows with run length).
    pub fn completed_ops(&self) -> usize {
        self.completed_ops
    }

    /// Finishes the driver and returns its run report.
    pub fn into_report(self) -> RunReport {
        RunReport {
            policy: self.owner.policy_name(),
            epochs: self.reports,
        }
    }
}

impl std::fmt::Debug for EpochDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochDriver")
            .field("policy", &self.owner.policy_name())
            .field("manager", &self.manager)
            .field("epochs", &self.reports.len())
            .finish_non_exhaustive()
    }
}

/// The assembled single-feed GRuB deployment: one chain, one
/// [`EpochDriver`].
pub struct GrubSystem {
    chain: Blockchain,
    driver: EpochDriver,
}

impl GrubSystem {
    /// Builds the full deployment (contracts, DO, SP), preloads the dataset,
    /// and resets the Gas meter so setup costs are excluded — the paper
    /// meters steady-state operation, not provisioning.
    ///
    /// # Errors
    ///
    /// Propagates store failures and failed preload transactions.
    pub fn new(config: &SystemConfig) -> Result<Self> {
        let policy = config.policy.build(&grub_gas::GasSchedule::default());
        Self::with_policy(config, policy)
    }

    /// Like [`GrubSystem::new`] but with an explicit policy object — used
    /// for the offline-optimal reference, which must be precomputed from the
    /// trace.
    ///
    /// # Errors
    ///
    /// Propagates store failures and failed preload transactions.
    pub fn with_policy(config: &SystemConfig, policy: Box<dyn ReplicationPolicy>) -> Result<Self> {
        let mut chain = Blockchain::with_config(config.chain);
        let driver = EpochDriver::deploy_with_policy(
            &mut chain,
            config.clone(),
            policy,
            &DriverIdentity::default(),
        )?;
        chain.meter_reset();
        Ok(GrubSystem { chain, driver })
    }

    /// Deploys an application contract into the running system (after the
    /// meter reset, so its provisioning is not metered either).
    ///
    /// # Panics
    ///
    /// Panics if the address is already taken.
    pub fn deploy_contract(
        &mut self,
        address: Address,
        code: Rc<dyn grub_chain::Contract>,
        layer: Layer,
    ) {
        self.chain.deploy(address, code, layer);
    }

    /// One-call convenience: build the system and pull `source` to
    /// exhaustion.
    ///
    /// # Errors
    ///
    /// Propagates store failures and protocol-violating transaction
    /// failures.
    pub fn run(source: &mut dyn OpSource, config: &SystemConfig) -> Result<RunReport> {
        let mut system = GrubSystem::new(config)?;
        system.drive(source)?;
        Ok(system.into_report())
    }

    /// Like [`GrubSystem::run`] with an explicit policy (offline optimal).
    ///
    /// # Errors
    ///
    /// Propagates store failures and protocol-violating transaction
    /// failures.
    pub fn run_with_policy(
        source: &mut dyn OpSource,
        config: &SystemConfig,
        policy: Box<dyn ReplicationPolicy>,
    ) -> Result<RunReport> {
        let mut system = GrubSystem::with_policy(config, policy)?;
        system.drive(source)?;
        Ok(system.into_report())
    }

    /// Drives an operation stream to exhaustion, closing the trailing
    /// partial epoch ([`EpochDriver::drive`] against the owned chain).
    ///
    /// # Errors
    ///
    /// Propagates store failures and protocol-violating transaction
    /// failures.
    pub fn drive(&mut self, source: &mut dyn OpSource) -> Result<()> {
        self.driver.drive(&mut self.chain, source)
    }

    /// The §3.2 monitor: read keys reconstructed from the chain's
    /// contract-call history since the last call.
    pub fn federated_read_keys(&mut self) -> Vec<String> {
        let manager = self.driver.manager();
        self.driver.owner_mut().federate_reads(&self.chain, manager)
    }

    /// The chain, for assertions.
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// The feed's driver: contract addresses, DO, SP and epoch reports.
    pub fn driver(&self) -> &EpochDriver {
        &self.driver
    }

    /// Mutable driver access (read-tx builder, adversary mode, DO hooks).
    pub fn driver_mut(&mut self) -> &mut EpochDriver {
        &mut self.driver
    }

    /// Finishes the run and returns the report.
    pub fn into_report(self) -> RunReport {
        self.driver.into_report()
    }
}

impl std::fmt::Debug for GrubSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrubSystem")
            .field("policy", &self.driver.owner().policy_name())
            .field("epochs", &self.driver.reports().len())
            .finish_non_exhaustive()
    }
}

fn submit_checked(
    chain: &mut Blockchain,
    from: Address,
    to: Address,
    func: &str,
    input: Vec<u8>,
) -> Result<()> {
    let id = chain.submit(Transaction::new(from, to, func, input, Layer::Feed));
    let mut outcome = None;
    // Under mempool congestion the transaction may miss the first block;
    // drain until its receipt lands.
    mine_until_drained(chain, |r| {
        if r.tx_id == id {
            outcome = Some((r.success, r.error.clone()));
        }
        Ok(())
    })?;
    match outcome {
        Some((true, _)) => Ok(()),
        Some((false, error)) => Err(GrubError::Chain(format!(
            "setup transaction failed: {}",
            error.as_deref().unwrap_or("unknown")
        ))),
        None => Err(GrubError::Chain("no receipt".into())),
    }
}

/// Mines blocks until the mempool drains — one block uncongested, as many
/// as a bounded mempool or inclusion latency requires — handing every
/// receipt to `on_receipt`. Every block the epoch lifecycle and the
/// engine's shard batches seal is mined through here.
///
/// # Errors
///
/// Stops mining at the first error `on_receipt` returns, and propagates a
/// failed block production (a failed reorg, or an injected crash inside
/// one).
pub fn mine_until_drained(
    chain: &mut Blockchain,
    mut on_receipt: impl FnMut(&Receipt) -> Result<()>,
) -> Result<()> {
    while chain.mempool_len() > 0 {
        let block = chain.try_produce_block().map_err(GrubError::from)?;
        block.receipts.iter().try_for_each(&mut on_receipt)?;
    }
    Ok(())
}

/// Computes the inclusive end key of a scan of `len` records.
///
/// YCSB-style keys with a numeric suffix (`user000000000042`) are advanced
/// arithmetically; other key schemes fall back to a prefix-covering bound.
pub fn scan_end_key(start: &str, len: usize) -> String {
    let digits_at = start
        .char_indices()
        .rev()
        .take_while(|(_, c)| c.is_ascii_digit())
        .map(|(i, _)| i)
        .last();
    if let Some(idx) = digits_at {
        let (prefix, digits) = start.split_at(idx);
        if let Ok(n) = digits.parse::<u64>() {
            // Checked, not saturating: if the advanced suffix overflows u64
            // or needs more digits than the start key has, the formatted end
            // would sort *before* the start lexicographically (e.g. advancing
            // "user999" by 5 gives "user1003" < "user999"), silently
            // shrinking the scan — fall back to the prefix bound instead.
            let advanced = n.checked_add((len as u64).saturating_sub(1));
            if let Some(end) = advanced {
                let formatted = format!("{end:0width$}", width = digits.len());
                if formatted.len() == digits.len() {
                    return format!("{prefix}{formatted}");
                }
            }
        }
    }
    // Fallback: cover everything sharing the start key as a prefix.
    format!("{start}\u{10FFFF}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use grub_workload::ratio::RatioWorkload;
    use grub_workload::{Trace, ValueSpec};

    fn config(policy: PolicyKind) -> SystemConfig {
        SystemConfig::new(policy)
    }

    #[test]
    fn scan_end_key_numeric_and_fallback() {
        assert_eq!(scan_end_key("user000000000010", 5), "user000000000014");
        assert_eq!(scan_end_key("user000000000010", 1), "user000000000010");
        assert!(scan_end_key("opaque-key", 5).starts_with("opaque-key"));
    }

    #[test]
    fn scan_end_key_never_sorts_before_start() {
        // A digit suffix that would grow in width (999 + 5 = 1004) must not
        // produce an end key that sorts before the start; the prefix bound
        // takes over.
        let end = scan_end_key("user999", 5);
        assert!(end.as_str() >= "user999", "end {end:?} sorts before start");
        assert!(end.starts_with("user999"));
        // Likewise for a suffix at the top of the u64 range (checked, not
        // saturating, addition).
        let start = format!("k{}", u64::MAX);
        let end = scan_end_key(&start, 2);
        assert!(end >= start, "end {end:?} sorts before start");
        assert!(end.starts_with(&start));
        // Maximum-width suffixes that stay in range still advance exactly.
        assert_eq!(scan_end_key("user995", 5), "user999");
    }

    #[test]
    fn write_only_trace_runs_cheaply_on_bl1() {
        let trace = RatioWorkload::new("k", 0.0).generate(64);
        let bl1 = GrubSystem::run(&mut trace.source(), &config(PolicyKind::Bl1)).unwrap();
        let bl2 = GrubSystem::run(&mut trace.source(), &config(PolicyKind::Bl2)).unwrap();
        assert!(
            bl1.feed_gas_per_op() * 3.0 < bl2.feed_gas_per_op(),
            "BL1 {} vs BL2 {}",
            bl1.feed_gas_per_op(),
            bl2.feed_gas_per_op()
        );
    }

    #[test]
    fn read_heavy_trace_favors_bl2() {
        let trace = RatioWorkload::new("k", 64.0).generate(8);
        let bl1 = GrubSystem::run(&mut trace.source(), &config(PolicyKind::Bl1)).unwrap();
        let bl2 = GrubSystem::run(&mut trace.source(), &config(PolicyKind::Bl2)).unwrap();
        assert!(
            bl2.feed_gas_per_op() * 2.0 < bl1.feed_gas_per_op(),
            "BL2 {} vs BL1 {}",
            bl2.feed_gas_per_op(),
            bl1.feed_gas_per_op()
        );
    }

    #[test]
    fn grub_tracks_the_better_baseline_on_both_extremes() {
        let cfg = config(PolicyKind::Memoryless { k: 2 });
        let write_only = RatioWorkload::new("k", 0.0).generate(64);
        let read_heavy = RatioWorkload::new("k", 64.0).generate(8);
        for (trace, better) in [(write_only, PolicyKind::Bl1), (read_heavy, PolicyKind::Bl2)] {
            let grub = GrubSystem::run(&mut trace.source(), &cfg).unwrap();
            let best = GrubSystem::run(&mut trace.source(), &config(better.clone())).unwrap();
            let worse = GrubSystem::run(
                &mut trace.source(),
                &config(if better == PolicyKind::Bl1 {
                    PolicyKind::Bl2
                } else {
                    PolicyKind::Bl1
                }),
            )
            .unwrap();
            assert!(
                grub.feed_gas_per_op() < worse.feed_gas_per_op(),
                "GRuB {} must beat the worse baseline {} ({:?})",
                grub.feed_gas_per_op(),
                worse.feed_gas_per_op(),
                better
            );
            // Within 2.5x of the better baseline (converges after warmup).
            assert!(
                grub.feed_gas_per_op() < best.feed_gas_per_op() * 2.5,
                "GRuB {} vs best {}",
                grub.feed_gas_per_op(),
                best.feed_gas_per_op()
            );
        }
    }

    #[test]
    fn replica_state_converges_on_chain() {
        // Read-heavy single key: after warmup the record must be replicated
        // and requests must stop.
        let trace = RatioWorkload::new("hot", 32.0).generate(6);
        let cfg = config(PolicyKind::Memoryless { k: 2 });
        let mut system = GrubSystem::new(&cfg).unwrap();
        system.drive(&mut trace.source()).unwrap();
        assert_eq!(
            system.driver().owner().state_of("hot"),
            ReplState::Replicated
        );
        // The last epochs serve reads from the replica: no Request events.
        let height = system.chain().height();
        let recent_requests = system.chain().events_since(
            height.saturating_sub(2),
            system.driver().manager(),
            "Request",
        );
        assert!(recent_requests.is_empty());
    }

    #[test]
    fn federated_reads_match_trace() {
        // The monitor's chain-derived read sequence must agree with the
        // trace the consumers actually issued (§3.2 federation).
        let trace = RatioWorkload::new("k", 4.0).generate(4);
        let cfg = config(PolicyKind::Memoryless { k: 2 });
        let mut system = GrubSystem::new(&cfg).unwrap();
        system.drive(&mut trace.source()).unwrap();
        let chain_reads = system.federated_read_keys();
        assert_eq!(chain_reads.len(), trace.read_count());
        assert!(chain_reads.iter().all(|k| k == "k"));
    }

    #[test]
    fn adversarial_sp_is_rejected_and_leaves_metrics_flagged() {
        let cfg = config(PolicyKind::Bl1);
        let mut system = GrubSystem::new(&cfg).unwrap();
        // Seed one record and finish the epoch so it lands.
        let mut warm = Trace::new();
        warm.ops.push(Op::Write {
            key: "k".into(),
            value: ValueSpec::new(32, 1),
        });
        warm.ops
            .extend(std::iter::repeat_n(Op::Read { key: "k".into() }, 31));
        system.drive(&mut warm.into_source()).unwrap();
        let failed_delivers = |system: &GrubSystem| -> usize {
            let reports = system.driver().reports();
            reports.iter().map(|e| e.failed_delivers).sum()
        };
        assert_eq!(failed_delivers(&system), 0);
        // Now turn the SP hostile and read again.
        system
            .driver_mut()
            .set_adversary(AdversaryMode::ForgeValue)
            .unwrap();
        let mut reads = Trace::new();
        reads
            .ops
            .extend(std::iter::repeat_n(Op::Read { key: "k".into() }, 32));
        system.drive(&mut reads.into_source()).unwrap();
        let failed = failed_delivers(&system);
        assert!(failed > 0, "forged deliver must be rejected");
    }

    #[test]
    fn scans_flow_end_to_end() {
        let preload = grub_workload::ycsb::preload(64, 32, 7)
            .into_iter()
            .map(|(k, v)| (k, v.materialize()))
            .collect();
        let cfg = config(PolicyKind::Memoryless { k: 2 }).preload(preload);
        let mut system = GrubSystem::new(&cfg).unwrap();
        let mut trace = Trace::new();
        trace.ops.push(Op::Scan {
            start_key: grub_workload::ycsb::ycsb_key(10),
            len: 5,
        });
        system.drive(&mut trace.source()).unwrap();
        let report = system.into_report();
        assert_eq!(report.failed_delivers(), 0);
        assert!(report.feed_gas_total() > 0);
    }

    #[test]
    fn namespaced_drivers_coexist_on_one_chain() {
        // Two independent feeds on one chain must not collide and must
        // produce the same per-feed gas as two single-feed systems.
        let trace = RatioWorkload::new("k", 4.0).generate(8);
        let cfg = config(PolicyKind::Memoryless { k: 2 });
        let mut chain = Blockchain::with_config(cfg.chain);
        let mut a = EpochDriver::deploy(&mut chain, &cfg, &DriverIdentity::tenant("a")).unwrap();
        let mut b = EpochDriver::deploy(&mut chain, &cfg, &DriverIdentity::tenant("b")).unwrap();
        chain.meter_reset();
        a.drive(&mut chain, &mut trace.source()).unwrap();
        b.drive(&mut chain, &mut trace.source()).unwrap();
        let single = GrubSystem::run(&mut trace.source(), &cfg).unwrap();
        for driver in [a, b] {
            let report = driver.into_report();
            assert_eq!(report.feed_gas_total(), single.feed_gas_total());
            assert_eq!(report.failed_delivers(), 0);
        }
    }
}
