//! The multi-tenant engine: deployment, scheduling, sharded batching.

use grub_chain::codec::{encode_sections, SECTION_OVERHEAD_BYTES};
use grub_chain::{Address, Blockchain, ChainConfig, Transaction, TxId};
use grub_core::contract::{coalesce_delivers, MAX_TX_PAYLOAD_BYTES};
use grub_core::scrub::Scrubber;
use grub_core::system::{
    mine_until_drained, DriverIdentity, EpochDriver, StagedReads, StagedUpdate, SystemConfig,
};
use grub_core::{GrubError, Result};
use grub_fault::{FaultPoint, KnobError};
use grub_gas::{checked_add_gas, checked_sub_gas, Layer};
use grub_store::StoreError;
use grub_workload::{OpSource, PeekableSource, Trace};

use crate::report::{EngineReport, EpochMetrics, TenantReport};
use crate::router::ShardRouter;

/// Parses a `GRUB_SCRUB` value into the engine's round-boundary scrubber
/// ([`EngineConfig::scrub`]): empty, `0` or `off` → `None`; `1` or `detect`
/// → a detecting [`Scrubber`]; `repair` → [`Scrubber::repairing`]. Anything
/// else is an error, so a typo cannot silently select a different mode.
fn parse_scrub(raw: &str) -> std::result::Result<Option<Scrubber>, KnobError> {
    match raw {
        "" | "0" | "off" => Ok(None),
        "1" | "detect" => Ok(Some(Scrubber::default())),
        "repair" => Ok(Some(Scrubber::repairing())),
        _ => Err(KnobError::new(
            "GRUB_SCRUB",
            raw,
            "unset, \"\", 0, off, 1, detect or repair",
        )),
    }
}

/// Reads the `GRUB_SCRUB` environment knob: unset → `None` (no scrubbing),
/// otherwise the scrubber its value names.
///
/// # Errors
///
/// A [`KnobError`] for any value outside the accepted set.
pub fn scrub_from_env() -> std::result::Result<Option<Scrubber>, KnobError> {
    grub_fault::knob("GRUB_SCRUB").map_or(Ok(None), |raw| parse_scrub(&raw))
}

/// Kills the run at an armed [`grub_fault`] crash point: the typed error
/// unwinds out of the scheduler mid-pipeline, leaving the chain and every
/// feed's persistent store exactly as a dying process would. Recovery tests
/// then restart from that state.
fn fault_check(point: FaultPoint) -> Result<()> {
    if grub_fault::should_trip(point) {
        return Err(GrubError::Store(StoreError::Injected(point.name())));
    }
    Ok(())
}

/// How much of a round the engine batches across feeds — the three rungs
/// of the savings ladder. Every rung runs the same round loop; the rung
/// only decides how feeds group and how a group commits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Batching {
    /// Each feed is its own group and commits with its own transactions:
    /// N independent single-feed runs on one chain, the baseline the
    /// batching savings are measured against.
    Off,
    /// A shard's feeds form one group whose `update()` payloads ride one
    /// `batchUpdate` transaction; delivers stay per feed.
    Updates,
    /// As `Updates`, and the group's SP deliveries ride one `batchDeliver`
    /// transaction too. Live-tempo feeds keep their own deliver
    /// transactions. Batch shares are attributed as feed-layer Gas, so a
    /// run whose deliver-time consumer callbacks burn application-layer Gas
    /// is refused with a typed error rather than misattributed.
    #[default]
    Full,
}

/// Engine-wide configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of shards feeds are hashed across (≥ 1).
    pub shards: usize,
    /// The batching rung ([`Batching`]); [`Batching::Full`] by default.
    pub batching: Batching,
    /// The background Merkle scrubber run over every feed at each round
    /// boundary ([`grub_core::scrub::Scrubber`]); `None` (the default)
    /// scrubs nothing. Findings land in that round's [`EpochMetrics`].
    pub scrub: Option<Scrubber>,
    /// Chain timing parameters shared by all feeds.
    pub chain: ChainConfig,
}

impl EngineConfig {
    /// A fully batching engine (writes and reads) with `shards` shards and
    /// default chain timing.
    pub fn new(shards: usize) -> Self {
        EngineConfig {
            shards: shards.max(1),
            batching: Batching::Full,
            scrub: None,
            chain: ChainConfig::default(),
        }
    }

    /// Sets background scrubbing at round boundaries (`None` turns it off).
    pub fn with_scrub(mut self, scrub: Option<Scrubber>) -> Self {
        self.scrub = scrub;
        self
    }

    /// Disables cross-feed batching entirely ([`Batching::Off`], the
    /// sum-of-singles baseline).
    pub fn unbatched(mut self) -> Self {
        self.batching = Batching::Off;
        self
    }

    /// Keeps update batching but leaves every feed's delivers unbatched
    /// ([`Batching::Updates`]) — used to isolate what read batching saves
    /// on top.
    pub fn without_read_batching(mut self) -> Self {
        self.batching = Batching::Updates;
        self
    }
}

/// One tenant's feed: a name, a full single-feed configuration, and the
/// workload *stream* the engine will pull through it.
#[derive(Clone, Debug)]
pub struct FeedSpec {
    /// Unique tenant name; determines the shard and the on-chain address
    /// namespace.
    pub tenant: String,
    /// The feed's own policy/epoch/preload configuration. (`chain` timing
    /// inside it is ignored — the engine's chain is shared.)
    pub config: SystemConfig,
    /// The tenant's workload, pulled one epoch per scheduler round. A
    /// materialized [`Trace`] rides along as `trace.into_source()`;
    /// generator sources stream at O(1) trace-side memory.
    pub source: Box<dyn OpSource>,
}

impl FeedSpec {
    /// Builds a feed spec from an operation source.
    pub fn from_source(
        tenant: impl Into<String>,
        config: SystemConfig,
        source: Box<dyn OpSource>,
    ) -> Self {
        FeedSpec {
            tenant: tenant.into(),
            config,
            source,
        }
    }

    /// Materializes the spec's stream from its current position (cloning
    /// the source, which stays untouched) — for tests and reports that
    /// need op counts up front.
    pub fn materialized(&self) -> Trace {
        let mut fork = self.source.clone_box();
        Trace::from_source(&mut fork)
    }
}

/// Deterministic tenant→shard assignment: FNV-1a over the tenant name.
pub fn tenant_shard(tenant: &str, shards: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tenant.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % shards.max(1) as u64) as usize
}

struct Shard {
    operator: Address,
    router: Address,
    /// Metered Gas of the shard's engine-submitted transactions, indexed by
    /// [`BatchKind`].
    gas: [u64; 2],
    /// How many of those transactions the shard sent, indexed likewise.
    txs: [usize; 2],
}

struct FeedSlot {
    tenant: String,
    shard: usize,
    driver: EpochDriver,
    /// The tenant's op stream with a one-op lookahead, so the scheduler's
    /// exhaustion test never consumes an operation.
    source: PeekableSource,
    /// The feed's cumulative shares of shard batch transactions, indexed by
    /// [`BatchKind`].
    batched: [u64; 2],
}

impl FeedSlot {
    fn exhausted(&self) -> bool {
        self.source.is_exhausted()
    }
}

/// Which router entry point a shard batch goes through, and which slot of
/// every per-kind ledger (`[update, deliver]`) its metered Gas books into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BatchKind {
    Update,
    Deliver,
}

impl BatchKind {
    fn func(self) -> &'static str {
        match self {
            BatchKind::Update => "batchUpdate",
            BatchKind::Deliver => "batchDeliver",
        }
    }

    /// The feed's own call a lone section rides instead: sender and entry
    /// point on its storage manager.
    fn direct_call(self, driver: &EpochDriver) -> (Address, &'static str) {
        match self {
            BatchKind::Update => (driver.data_owner(), "update"),
            BatchKind::Deliver => (driver.provider_address(), "deliver"),
        }
    }
}

/// What the current round booked where it happened — reset at the top of
/// every round, copied into its [`EpochMetrics`].
#[derive(Clone, Copy, Debug, Default)]
struct RoundTally {
    /// Trace operations staged into the round's epochs.
    staged_ops: usize,
    /// Shard-batch Gas, indexed by [`BatchKind`].
    gas: [u64; 2],
    /// Shard-batch sections, indexed likewise.
    sections: [usize; 2],
}

/// One runnable feed's round-local state as it moves through the pipeline:
/// its staged update payloads.
struct RoundFeed {
    idx: usize,
    update: StagedUpdate,
}

/// The sharded multi-tenant feed engine.
///
/// See the crate docs for the architecture and invariants. Build with
/// [`FeedEngine::new`], then [`FeedEngine::run`] to completion.
pub struct FeedEngine {
    chain: Blockchain,
    shards: Vec<Shard>,
    feeds: Vec<FeedSlot>,
    batching: Batching,
    scrub: Option<Scrubber>,
    rounds: usize,
    metrics: Vec<EpochMetrics>,
    round: RoundTally,
}

impl FeedEngine {
    /// Deploys every shard router and every feed onto a fresh chain, then
    /// resets the Gas meter so provisioning (contract setup, preloads) is
    /// excluded from all reports — the same steady-state metering the
    /// single-feed harness uses.
    ///
    /// # Errors
    ///
    /// Rejects empty or duplicate tenant names; propagates store failures
    /// and failed preload transactions.
    pub fn new(config: &EngineConfig, specs: Vec<FeedSpec>) -> Result<Self> {
        let mut chain = Blockchain::with_config(config.chain);
        let shards: Vec<Shard> = (0..config.shards.max(1))
            .map(|i| {
                let operator = Address::derive(&format!("grub-shard-operator/{i}"));
                let router = Address::derive(&format!("grub-shard-router/{i}"));
                chain.deploy(
                    router,
                    std::rc::Rc::new(ShardRouter::new(operator)),
                    Layer::Feed,
                );
                Shard {
                    operator,
                    router,
                    gas: [0; 2],
                    txs: [0; 2],
                }
            })
            .collect();
        let mut feeds = Vec::with_capacity(specs.len());
        let mut seen = std::collections::BTreeSet::new();
        for spec in specs {
            if spec.tenant.is_empty() {
                return Err(GrubError::Chain("tenant name must be non-empty".into()));
            }
            if !seen.insert(spec.tenant.clone()) {
                return Err(GrubError::Chain(format!(
                    "duplicate tenant name: {}",
                    spec.tenant
                )));
            }
            let shard = tenant_shard(&spec.tenant, shards.len());
            let mut identity = DriverIdentity::tenant(format!("tenant/{}", spec.tenant));
            if config.batching != Batching::Off {
                identity = identity.with_update_delegate(shards[shard].router);
            }
            // The engine owns its specs, so each feed's preload moves into
            // its DO instead of being copied.
            let driver = EpochDriver::deploy_owned(&mut chain, spec.config, &identity)?;
            feeds.push(FeedSlot {
                tenant: spec.tenant,
                shard,
                driver,
                source: PeekableSource::new(spec.source),
                batched: [0; 2],
            });
        }
        chain.meter_reset();
        Ok(FeedEngine {
            chain,
            shards,
            feeds,
            batching: config.batching,
            scrub: config.scrub,
            rounds: 0,
            metrics: Vec::new(),
            round: RoundTally::default(),
        })
    }

    /// Convenience: build and run in one call.
    ///
    /// # Errors
    ///
    /// Propagates [`FeedEngine::new`] and [`FeedEngine::run`] failures.
    pub fn run_specs(config: &EngineConfig, specs: Vec<FeedSpec>) -> Result<EngineReport> {
        FeedEngine::new(config, specs)?.run()
    }

    /// Drives every feed's trace to completion, one epoch per live feed per
    /// round, and returns the per-tenant + aggregate report.
    ///
    /// # Errors
    ///
    /// Propagates store failures and protocol-violating transaction
    /// failures.
    pub fn run(self) -> Result<EngineReport> {
        self.run_with_chain().map(|(report, _)| report)
    }

    /// Like [`FeedEngine::run`], additionally handing back the final chain
    /// so callers can compare runs byte for byte
    /// ([`Blockchain::chain_digest`]) — the determinism contract is
    /// asserted this way.
    ///
    /// # Errors
    ///
    /// Propagates store failures and protocol-violating transaction
    /// failures.
    pub fn run_with_chain(self) -> Result<(EngineReport, Blockchain)> {
        let (report, chain) = self.run_surviving();
        Ok((report?, chain))
    }

    /// Like [`FeedEngine::run_with_chain`], but hands the chain back even
    /// when the run dies mid-pipeline — the surviving chain of a crash
    /// (e.g. an armed [`grub_fault`] point) is exactly what a recovery
    /// harness needs to restart from.
    pub fn run_surviving(mut self) -> (Result<EngineReport>, Blockchain) {
        let result = self.run_rounds();
        let chain = std::mem::take(&mut self.chain);
        (result.map(|()| self.into_report()), chain)
    }

    /// Drives scheduler rounds until every feed's stream is exhausted,
    /// without consuming the engine — callers that need to inspect drivers
    /// after the run (recovery harnesses, scrub audits) use this and keep
    /// the engine.
    ///
    /// # Errors
    ///
    /// Propagates store failures, protocol-violating transaction failures,
    /// and injected crash points.
    pub fn run_rounds(&mut self) -> Result<()> {
        while self.feeds.iter().any(|f| !f.exhausted()) {
            self.run_metered_round()?;
            self.rounds += 1;
        }
        Ok(())
    }

    /// One scheduler round wrapped in metrics collection: Gas-meter and
    /// counter snapshots around [`FeedEngine::run_round`], a scrub pass at
    /// the epoch boundary, and one [`EpochMetrics`] entry appended.
    fn run_metered_round(&mut self) -> Result<()> {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock timing feeds EpochMetrics reporting only, never the digest"
        )]
        let started = std::time::Instant::now();
        let compressions_before = grub_crypto::compressions();
        let gas_before = self.chain.gas_snapshot();
        let perf_before = self.perf_totals();
        self.round = RoundTally::default();
        let height_before = self.chain.height();
        self.run_round()?;
        // Round boundary = acknowledgment boundary: every block this round
        // mined (including shard batchUpdate/batchDeliver blocks sealed
        // after the per-feed epochs closed) must be `confirm_depth` deep
        // before the round's results count. A no-op at depth 0.
        self.chain.await_confirmations().map_err(GrubError::from)?;
        let (scrub_findings, scrub_repaired) = self.run_scrub_pass()?;
        let gas_after = self.chain.gas_snapshot();
        let perf_after = self.perf_totals();
        let (feed_delta, app_delta) = gas_after.since(gas_before);
        // Fee tape over the heights this round mined: the per-round min/max
        // gas-price multiplier, base price when flat or no block sealed.
        let prices =
            (height_before + 1..=self.chain.height()).map(|h| self.chain.fee_price_permille(h));
        let base = grub_gas::BASE_PRICE_PERMILLE;
        let RoundTally {
            staged_ops,
            gas: [update_gas, deliver_gas],
            sections: [update_sections, deliver_sections],
        } = self.round;
        self.metrics.push(EpochMetrics {
            round: self.rounds,
            staged_ops,
            feed_gas: feed_delta.amount(),
            app_gas: app_delta.amount(),
            update_gas,
            deliver_gas,
            update_sections,
            deliver_sections,
            scrub_findings,
            scrub_repaired,
            fee_low_permille: prices.clone().min().unwrap_or(base),
            fee_high_permille: prices.max().unwrap_or(base),
            confirmed_height: self.chain.confirmed_height(),
            wall_clock_micros: started.elapsed().as_micros().try_into().unwrap_or(u64::MAX),
            cache_hits: perf_after.cache_hits - perf_before.cache_hits,
            cache_misses: perf_after.cache_misses - perf_before.cache_misses,
            bloom_skips: perf_after.bloom_skips - perf_before.bloom_skips,
            merkle_nodes_rehashed: perf_after.merkle_nodes_rehashed
                - perf_before.merkle_nodes_rehashed,
            sha256_compressions: grub_crypto::compressions() - compressions_before,
        });
        Ok(())
    }

    /// Hot-path counters summed across every feed (cumulative since open).
    fn perf_totals(&self) -> grub_core::system::StagePerf {
        let mut total = grub_core::system::StagePerf::default();
        for feed in &self.feeds {
            let perf = feed.driver.perf();
            total.cache_hits += perf.cache_hits;
            total.cache_misses += perf.cache_misses;
            total.bloom_skips += perf.bloom_skips;
            total.merkle_nodes_rehashed += perf.merkle_nodes_rehashed;
        }
        total
    }

    /// One scrub pass over every feed at a round boundary (no-op without a
    /// scrubber). Returns (findings, repaired) totals.
    fn run_scrub_pass(&mut self) -> Result<(usize, usize)> {
        let Some(scrubber) = self.scrub else {
            return Ok((0, 0));
        };
        let mut findings = 0;
        let mut repaired = 0;
        let chain = &self.chain;
        for feed in &mut self.feeds {
            let report = feed.driver.scrub(chain, scrubber)?;
            findings += report.findings.len();
            repaired += report.repaired();
        }
        Ok((findings, repaired))
    }

    /// One scheduler round, the same loop in every [`Batching`] rung.
    ///
    /// Every feed with trace remaining runs one epoch, in declaration order.
    /// The runnable feeds form commit groups: one per feed with batching
    /// off, one per shard (ascending) otherwise. Each group stages and
    /// commits before the next begins, in the paper's epoch order (§3.3):
    /// its feeds ingest and stage off-chain, then its updates land (the
    /// feed's own pending transactions, or one shard batch mined as the
    /// write block), then its read phase runs. Staging never touches the
    /// chain, so where it sits relative to other groups' blocks cannot move
    /// a digest.
    fn run_round(&mut self) -> Result<()> {
        let runnable = (0..self.feeds.len()).filter(|&idx| !self.feeds[idx].exhausted());
        let groups: Vec<(usize, Vec<usize>)> = if self.batching == Batching::Off {
            runnable
                .map(|idx| (self.feeds[idx].shard, vec![idx]))
                .collect()
        } else {
            let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
            for idx in runnable {
                by_shard[self.feeds[idx].shard].push(idx);
            }
            by_shard
                .into_iter()
                .enumerate()
                .filter(|(_, idxs)| !idxs.is_empty())
                .collect()
        };
        for (pos, (shard, idxs)) in groups.into_iter().enumerate() {
            if pos > 0 {
                // Between two groups of the same round: the previous group's
                // blocks are mined, this group is not staged.
                fault_check(FaultPoint::MidShardCommit)?;
            }
            let mut round_feeds = Vec::with_capacity(idxs.len());
            for idx in idxs {
                let feed = &mut self.feeds[idx];
                feed.driver.ingest(&mut feed.source);
                let update = feed.driver.stage_update()?;
                self.round.staged_ops += update.ops;
                round_feeds.push(RoundFeed { idx, update });
            }
            fault_check(FaultPoint::PostStage)?;
            if self.batching == Batching::Off {
                // The feed's own update transactions stay pending and ride
                // its read block, as in a standalone `close_epoch`.
                for rf in &round_feeds {
                    self.feeds[rf.idx]
                        .driver
                        .submit_update(&mut self.chain, &rf.update);
                }
            } else {
                let mut sections: Vec<(usize, Vec<u8>)> = Vec::new();
                for rf in &mut round_feeds {
                    for chunk in std::mem::take(&mut rf.update.chunks) {
                        sections.push((rf.idx, chunk));
                    }
                }
                self.submit_shard_batch(shard, BatchKind::Update, sections)?;
                // The shard's write block is mined; its read phase has not
                // begun.
                fault_check(FaultPoint::PostWriteBlock)?;
            }
            self.run_shard_read_phase(shard, round_feeds)?;
        }
        Ok(())
    }

    /// Runs one commit group's read phase: each feed seals its own consumer
    /// read block (keeping snapshot-differenced Gas attribution exact).
    /// Under [`Batching::Full`] its per-request deliver payloads are merged
    /// into shared-proof payloads ([`coalesce_delivers`]: one section per
    /// feed, unless the calldata bound splits it), then the group's
    /// sections ride one `batchDeliver` transaction; finally the epochs are
    /// booked. A live-tempo feed's driver mines its own delivers and stages
    /// none; every feed in the lower rungs runs the per-feed read phase with
    /// its own deliver transactions, and the empty batch is a no-op.
    fn run_shard_read_phase(&mut self, shard_idx: usize, staged: Vec<RoundFeed>) -> Result<()> {
        let mut sections: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut booked: Vec<(RoundFeed, StagedReads)> = Vec::new();
        for rf in staged {
            let feed = &mut self.feeds[rf.idx];
            if self.batching == Batching::Full {
                let mut reads = feed.driver.stage_reads(&mut self.chain)?;
                for payload in coalesce_delivers(std::mem::take(&mut reads.delivers)) {
                    sections.push((rf.idx, payload));
                }
                booked.push((rf, reads));
            } else {
                feed.driver.run_read_phase(&mut self.chain, &rf.update)?;
            }
        }
        self.submit_shard_batch(shard_idx, BatchKind::Deliver, sections)?;
        for (rf, reads) in booked {
            self.feeds[rf.idx]
                .driver
                .finish_staged_epoch(&rf.update, &reads);
        }
        Ok(())
    }

    /// Coalesces one shard's same-round sections into as few router
    /// transactions as the `Ctx` payload bound allows (overflow spills into
    /// follow-up transactions in the same block), mines that block, and
    /// books each receipt once: into the shard's and the round's `kind`
    /// ledgers, and split over its sections proportionally to payload bytes
    /// into the feeds'. The residue of the integer division goes to the last
    /// section, so the per-feed shares always sum exactly to the metered
    /// shard total.
    ///
    /// A planned transaction that would carry exactly one section is sent
    /// as the feed's own direct call instead (the DO's `update()` / the
    /// SP's `deliver()`): a batch of one pays the same envelope plus the
    /// section framing and router forwarding on top, so routing it would
    /// make sparse rounds *more* expensive than not batching at all.
    fn submit_shard_batch(
        &mut self,
        shard_idx: usize,
        kind: BatchKind,
        sections: Vec<(usize, Vec<u8>)>,
    ) -> Result<()> {
        if sections.is_empty() {
            return Ok(());
        }
        let k = kind as usize;
        self.round.sections[k] += sections.len();
        // Chunk the sections into planned transactions, preserving order.
        let mut planned: Vec<Vec<(usize, Vec<u8>)>> = Vec::new();
        let mut batch: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut bytes = 0usize;
        for (feed_idx, payload) in sections {
            let section_bytes = payload.len() + SECTION_OVERHEAD_BYTES;
            if bytes + section_bytes > MAX_TX_PAYLOAD_BYTES && !batch.is_empty() {
                planned.push(std::mem::take(&mut batch));
                bytes = 0;
            }
            bytes += section_bytes;
            batch.push((feed_idx, payload));
        }
        planned.push(batch);
        // Each submitted transaction with its sections' (feed, payload bytes).
        let mut submitted: Vec<(TxId, Vec<(usize, usize)>)> = Vec::with_capacity(planned.len());
        for mut batch in planned {
            let parts: Vec<(usize, usize)> = batch.iter().map(|(f, p)| (*f, p.len())).collect();
            let id = if batch.len() == 1 {
                // Lone section: the feed's own transaction is strictly
                // cheaper than a one-section batch.
                let (feed_idx, payload) = batch.swap_remove(0);
                let driver = &self.feeds[feed_idx].driver;
                let (from, func) = kind.direct_call(driver);
                self.chain.submit(Transaction::new(
                    from,
                    driver.manager(),
                    func,
                    payload,
                    Layer::Feed,
                ))
            } else {
                self.submit_router_tx(shard_idx, kind, batch)
            };
            submitted.push((id, parts));
        }
        // Mine until the mempool drains — one block in the uncongested case,
        // several when a bounded mempool splits or delays the batch.
        // Receipts are matched back by transaction id: inclusion latency
        // and reorg resubmission can mine them out of submission order.
        let before = self.chain.gas_snapshot();
        let mut by_id: std::collections::HashMap<u64, (bool, Option<String>, u64)> =
            std::collections::HashMap::with_capacity(submitted.len());
        mine_until_drained(&mut self.chain, |r| {
            by_id.insert(r.tx_id.0, (r.success, r.error.clone(), r.gas_used));
            Ok(())
        })?;
        // Guard the receipt↔transaction pairing: a stray mempool entry
        // would silently misattribute Gas shares, so refuse it.
        if by_id.len() != submitted.len() {
            return Err(GrubError::Chain(format!(
                "shard {shard_idx} {} blocks mined {} receipts for {} transactions",
                kind.func(),
                by_id.len(),
                submitted.len()
            )));
        }
        // The shares booked below are documented — and consumed by every
        // report — as *feed-layer* Gas, but a receipt's `gas_used` spans all
        // meter layers. A consumer whose deliver-time callback did metered
        // application-layer work would silently launder that Gas into the
        // feed column, so refuse the run instead of misattributing it.
        let after = self.chain.gas_snapshot();
        let (_, app_delta) = after.since(before);
        let user_delta = checked_sub_gas(after.user, before.user);
        if app_delta.amount() > 0 || user_delta > 0 {
            return Err(GrubError::Chain(format!(
                "shard {shard_idx} {} burned non-feed-layer gas ({} app, {user_delta} user); \
                 batched attribution would book it as feed-layer — disable read batching \
                 for feeds whose consumer callbacks do metered work",
                kind.func(),
                app_delta.amount()
            )));
        }
        for (id, parts) in submitted {
            let (success, error, gas_used) = by_id.remove(&id.0).ok_or_else(|| {
                GrubError::Chain(format!(
                    "shard {shard_idx} {} transaction {} mined no receipt",
                    kind.func(),
                    id.0
                ))
            })?;
            if !success {
                return Err(GrubError::Chain(format!(
                    "shard {shard_idx} {} failed: {}",
                    kind.func(),
                    error.as_deref().unwrap_or("unknown")
                )));
            }
            let shard = &mut self.shards[shard_idx];
            shard.gas[k] = checked_add_gas(shard.gas[k], gas_used);
            shard.txs[k] += 1;
            self.round.gas[k] = checked_add_gas(self.round.gas[k], gas_used);
            let total_bytes: u64 = parts.iter().map(|(_, b)| *b as u64).sum();
            let mut assigned = 0u64;
            let last = parts.len() - 1;
            for (i, (feed_idx, bytes)) in parts.into_iter().enumerate() {
                let share = if i == last {
                    checked_sub_gas(gas_used, assigned)
                } else {
                    ((u128::from(gas_used) * bytes as u128) / u128::from(total_bytes.max(1))) as u64
                };
                assigned = checked_add_gas(assigned, share);
                let batched = &mut self.feeds[feed_idx].batched[k];
                *batched = checked_add_gas(*batched, share);
            }
        }
        Ok(())
    }

    fn submit_router_tx(
        &mut self,
        shard_idx: usize,
        kind: BatchKind,
        batch: Vec<(usize, Vec<u8>)>,
    ) -> TxId {
        let sections: Vec<(Address, Vec<u8>)> = batch
            .into_iter()
            .map(|(feed_idx, payload)| (self.feeds[feed_idx].driver.manager(), payload))
            .collect();
        let shard = &self.shards[shard_idx];
        self.chain.submit(Transaction::new(
            shard.operator,
            shard.router,
            kind.func(),
            encode_sections(&sections),
            Layer::Feed,
        ))
    }

    /// The shared chain, for assertions.
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// Arms the shared chain's recovery checkpoint
    /// ([`Blockchain::expect_digest_at`]): when this engine's re-execution
    /// reaches `height`, its chain digest must equal `digest` or the run
    /// panics — the oracle a recovery run uses to prove it rebuilt the
    /// surviving chain byte for byte before continuing past it.
    pub fn expect_digest_at(&mut self, height: u64, digest: grub_crypto::Hash32) {
        self.chain.expect_digest_at(height, digest);
    }

    /// One tenant's driver, for recovery and scrub harnesses that compare a
    /// feed's DO/SP state across runs.
    pub fn driver(&self, tenant: &str) -> Option<&EpochDriver> {
        self.feeds
            .iter()
            .find(|f| f.tenant == tenant)
            .map(|f| &f.driver)
    }

    /// Mutable access to one tenant's driver, between rounds — security
    /// tests turn a feed's storage provider hostile with
    /// [`EpochDriver::set_adversary`].
    pub fn driver_mut(&mut self, tenant: &str) -> Option<&mut EpochDriver> {
        self.feeds
            .iter_mut()
            .find(|f| f.tenant == tenant)
            .map(|f| &mut f.driver)
    }

    fn into_report(self) -> EngineReport {
        let batching = self.batching;
        let rounds = self.rounds;
        let tenants: Vec<TenantReport> = self
            .feeds
            .into_iter()
            .map(|feed| {
                let [batched_update_gas, batched_deliver_gas] = feed.batched;
                TenantReport {
                    tenant: feed.tenant,
                    shard: feed.shard,
                    batched_update_gas,
                    batched_deliver_gas,
                    run: feed.driver.into_report(),
                }
            })
            .collect();
        let (update, deliver) = (BatchKind::Update as usize, BatchKind::Deliver as usize);
        EngineReport {
            tenants,
            shard_update_gas: self.shards.iter().map(|s| s.gas[update]).collect(),
            shard_update_txs: self.shards.iter().map(|s| s.txs[update]).collect(),
            shard_deliver_gas: self.shards.iter().map(|s| s.gas[deliver]).collect(),
            shard_deliver_txs: self.shards.iter().map(|s| s.txs[deliver]).collect(),
            rounds,
            batching,
            metrics: self.metrics,
        }
    }
}

impl std::fmt::Debug for FeedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedEngine")
            .field("feeds", &self.feeds.len())
            .field("shards", &self.shards.len())
            .field("batching", &self.batching)
            .field("rounds", &self.rounds)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grub_core::policy::PolicyKind;
    use grub_workload::ratio::RatioWorkload;

    fn spec(tenant: &str, ratio: f64, cycles: usize) -> FeedSpec {
        FeedSpec::from_source(
            tenant,
            SystemConfig::new(PolicyKind::Memoryless { k: 2 }),
            Box::new(RatioWorkload::new(format!("{tenant}-key"), ratio).source(cycles)),
        )
    }

    #[test]
    fn scrub_knob_accepts_three_classes_and_rejects_typos() {
        let repair = |raw| parse_scrub(raw).map(|s| s.map(|s| s.repair));
        for raw in ["", "0", "off"] {
            assert_eq!(repair(raw), Ok(None), "{raw:?}");
        }
        for raw in ["1", "detect"] {
            assert_eq!(repair(raw), Ok(Some(false)), "{raw:?}");
        }
        assert_eq!(repair("repair"), Ok(Some(true)));
        let err = parse_scrub("repiar").unwrap_err();
        assert_eq!((err.name, err.raw.as_str()), ("GRUB_SCRUB", "repiar"));
        let shown = err.to_string();
        assert!(shown.contains("GRUB_SCRUB") && shown.contains("repiar"));
        assert!(shown.contains("detect") && shown.contains("repair"));
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        for shards in [1, 2, 7] {
            for tenant in ["alice", "bob", "carol", ""] {
                let s = tenant_shard(tenant, shards);
                assert!(s < shards);
                assert_eq!(s, tenant_shard(tenant, shards));
            }
        }
    }

    #[test]
    fn zero_epoch_ops_cannot_hang_the_scheduler() {
        // epoch_ops is a pub field, so a caller can bypass the clamping
        // builder; the driver clamps again so a round always makes progress.
        let mut cfg = SystemConfig::new(PolicyKind::Memoryless { k: 2 });
        cfg.epoch_ops = 0;
        let trace = RatioWorkload::new("k", 1.0).generate(4);
        let ops = trace.ops.len();
        let specs = vec![FeedSpec::from_source(
            "zero",
            cfg,
            Box::new(trace.into_source()),
        )];
        let report = FeedEngine::run_specs(&EngineConfig::new(1), specs).unwrap();
        assert_eq!(report.tenants[0].total_ops(), ops);
    }

    #[test]
    fn duplicate_tenants_rejected() {
        let specs = vec![spec("same", 1.0, 2), spec("same", 2.0, 2)];
        assert!(FeedEngine::new(&EngineConfig::new(2), specs).is_err());
    }

    #[test]
    fn empty_tenant_rejected() {
        let specs = vec![spec("", 1.0, 2)];
        assert!(FeedEngine::new(&EngineConfig::new(2), specs).is_err());
    }

    #[test]
    fn engine_runs_mixed_feeds_to_completion() {
        let specs = vec![spec("a", 4.0, 6), spec("b", 0.0, 6), spec("c", 16.0, 3)];
        let report = FeedEngine::run_specs(&EngineConfig::new(2), specs.clone()).unwrap();
        assert_eq!(report.tenants.len(), 3);
        for (tenant, s) in report.tenants.iter().zip(&specs) {
            assert_eq!(tenant.run.total_ops(), s.materialized().ops.len());
            assert_eq!(tenant.run.failed_delivers(), 0);
        }
        assert!(report.rounds > 0);
        assert!(report.feed_gas_total() > 0);
    }

    #[test]
    fn batch_gas_attribution_is_exact() {
        let specs = vec![spec("a", 0.5, 8), spec("b", 0.5, 8), spec("c", 0.5, 8)];
        let report = FeedEngine::run_specs(&EngineConfig::new(1), specs).unwrap();
        let attributed: u64 = report.tenants.iter().map(|t| t.batched_update_gas).sum();
        let metered: u64 = report.shard_update_gas.iter().sum();
        assert_eq!(attributed, metered, "no update gas lost to rounding");
        assert!(metered > 0, "write-heavy feeds must batch updates");
        let per_round: u64 = report.metrics.iter().map(|m| m.update_gas).sum();
        assert_eq!(per_round, metered, "the round tally books each receipt");
        let attributed: u64 = report.tenants.iter().map(|t| t.batched_deliver_gas).sum();
        let metered: u64 = report.shard_deliver_gas.iter().sum();
        assert_eq!(attributed, metered, "no deliver gas lost to rounding");
        let per_round: u64 = report.metrics.iter().map(|m| m.deliver_gas).sum();
        assert_eq!(per_round, metered, "the round tally books each receipt");
    }

    #[test]
    fn read_batching_coalesces_delivers_and_attributes_exactly() {
        // Read-leaning feeds so every round produces deliveries.
        let specs = vec![spec("a", 4.0, 8), spec("b", 4.0, 8), spec("c", 4.0, 8)];
        let report = FeedEngine::run_specs(&EngineConfig::new(1), specs.clone()).unwrap();
        assert!(
            report.shard_deliver_txs.iter().sum::<usize>() > 0,
            "read-heavy feeds must batch delivers"
        );
        assert!(report.shard_deliver_gas.iter().sum::<u64>() > 0);
        assert_eq!(report.failed_delivers(), 0);
        // Against write-only batching: same work, strictly less total gas.
        let write_only =
            FeedEngine::run_specs(&EngineConfig::new(1).without_read_batching(), specs).unwrap();
        assert_eq!(report.total_ops(), write_only.total_ops());
        assert!(
            report.feed_gas_total() < write_only.feed_gas_total(),
            "read batching {} must undercut write-only batching {}",
            report.feed_gas_total(),
            write_only.feed_gas_total()
        );
    }

    #[test]
    fn unbatched_engine_reports_no_shard_gas() {
        let specs = vec![spec("a", 1.0, 4), spec("b", 1.0, 4)];
        let report = FeedEngine::run_specs(&EngineConfig::new(2).unbatched(), specs).unwrap();
        assert_eq!(report.shard_update_gas.iter().sum::<u64>(), 0);
        assert_eq!(report.shard_deliver_gas.iter().sum::<u64>(), 0);
        assert!(report.tenants.iter().all(|t| t.batched_update_gas == 0));
        assert!(report.tenants.iter().all(|t| t.batched_deliver_gas == 0));
    }

    #[test]
    fn spilled_shard_batches_keep_order_and_exact_attribution() {
        // 14 write-heavy BL2 feeds on ONE shard: BL2 replicates every
        // record, so each feed's epoch update carries its full 4 KiB value
        // on-chain. One round's sections (~58 KiB + framing) overflow the
        // 24 000-byte batch payload bound and must spill into follow-up
        // transactions in the same block, round after round.
        let mk_specs = || -> Vec<FeedSpec> {
            (0..14)
                .map(|i| {
                    FeedSpec::from_source(
                        format!("bulk-{i:02}"),
                        SystemConfig::new(PolicyKind::Bl2).epoch_ops(4),
                        Box::new(
                            RatioWorkload::new(format!("bulk-{i:02}-key"), 0.0)
                                .value_len(4096)
                                .source(8),
                        ),
                    )
                })
                .collect()
        };
        let report = FeedEngine::run_specs(&EngineConfig::new(1), mk_specs()).unwrap();
        let rounds = report.rounds;
        let update_txs = report.shard_update_txs[0];
        assert!(
            update_txs > rounds,
            "{update_txs} update txs over {rounds} rounds — the batch never spilled"
        );
        // Attribution survives the split exactly.
        let attributed: u64 = report.tenants.iter().map(|t| t.batched_update_gas).sum();
        assert_eq!(attributed, report.shard_update_gas[0]);
        // Ordering survives: every feed completed every op, nothing was
        // rejected, and per-feed accounting matches the unbatched baseline's
        // work (same ops, same epochs).
        let unbatched =
            FeedEngine::run_specs(&EngineConfig::new(1).unbatched(), mk_specs()).unwrap();
        assert_eq!(report.total_ops(), unbatched.total_ops());
        assert_eq!(report.failed_delivers(), 0);
        for (b, u) in report.tenants.iter().zip(&unbatched.tenants) {
            assert_eq!(b.run.total_ops(), u.run.total_ops(), "{}", b.tenant);
            assert_eq!(
                b.run.epochs.len(),
                u.run.epochs.len(),
                "{}: epoch structure must survive the spill",
                b.tenant
            );
        }
        // And the whole point: even spilled, batching beats unbatched.
        assert!(report.feed_gas_total() < unbatched.feed_gas_total());
    }
}
