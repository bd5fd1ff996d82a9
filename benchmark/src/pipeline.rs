//! The harness-owned round loop of the traced run.
//!
//! `FeedEngine` offers no hook between its stages, so the per-layer numbers
//! come from a loop the benchmark owns, built only from the public calls the
//! engine's own unbatched round makes: `EpochDriver::deploy`,
//! `stage_mut().ingest`, `stage_update`, `submit_update` + `stage_reads`,
//! the SP's `deliver` transactions mined with `try_produce_block`, and
//! `finish_staged_epoch`. One span is recorded per call under a per-round
//! parent. The same loop runs span-less to measure what tracing costs, and
//! its Gas is the unbatched baseline the engine's batching is compared to.

use std::time::Instant;

use grub_chain::{Blockchain, Transaction};
use grub_core::system::{DriverIdentity, EpochDriver};
use grub_gas::Layer;
use grub_store::ReadStats;
use grub_workload::PeekableSource;

use crate::spans::{Recorder, SpanId, NO_FEED};
use crate::workloads::Plan;

/// The five stage spans of one feed-epoch, in call order.
pub const STAGES: [&str; 5] = [
    "ingest",
    "stage_update",
    "read_block",
    "deliver_block",
    "book",
];

pub struct PipelineRun {
    pub run_s: f64,
    pub feeds: Vec<String>,
    pub ops: usize,
    pub rounds: usize,
    pub blocks: u64,
    pub txs: u64,
    pub failed_delivers: u64,
    /// Whether every feed's DO mirror root equals its SP tree root at the end.
    pub roots_match: bool,
    /// SP read-path counters over the run (set-up excluded), summed across
    /// feeds.
    pub reads: ReadStats,
    /// Merkle nodes rehashed over the run (SP trees plus DO mirrors).
    pub nodes_rehashed: u64,
    pub chain: Blockchain,
}

struct Feed {
    driver: EpochDriver,
    source: PeekableSource,
}

/// Times `f` as a span when recording, or just runs it.
fn stage<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    parent: Option<SpanId>,
    round: usize,
    feed: usize,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(rec) => {
            let id = rec.begin(name, parent, round, feed);
            let out = f();
            rec.end(id);
            out
        }
        None => f(),
    }
}

fn read_totals(feeds: &[Feed]) -> (ReadStats, u64) {
    let mut reads = ReadStats::default();
    let mut nodes = 0;
    for feed in feeds {
        let r = feed.driver.provider().read_stats();
        reads.cache_hits += r.cache_hits;
        reads.cache_misses += r.cache_misses;
        reads.bloom_skips += r.bloom_skips;
        reads.span_skips += r.span_skips;
        reads.block_reads += r.block_reads;
        nodes += feed.driver.perf().merkle_nodes_rehashed;
    }
    (reads, nodes)
}

/// Deploys `plan` unbatched on a fresh chain and drives every feed to the
/// end of its stream, one epoch per feed per round.
pub fn run(plan: Plan, mut rec: Option<&mut Recorder>) -> Result<PipelineRun, String> {
    let mut chain = Blockchain::with_config(plan.config.chain);
    let mut feeds = Vec::with_capacity(plan.specs.len());
    let mut names = Vec::with_capacity(plan.specs.len());
    for spec in plan.specs {
        let identity = DriverIdentity::tenant(format!("tenant/{}", spec.tenant));
        let driver =
            EpochDriver::deploy(&mut chain, &spec.config, &identity).map_err(|e| e.to_string())?;
        names.push(spec.tenant);
        feeds.push(Feed {
            driver,
            source: PeekableSource::new(spec.source),
        });
    }
    // Provisioning (contract set-up, preload) is excluded from Gas, exactly
    // as `FeedEngine::new` excludes it.
    chain.meter_reset();

    let (reads_before, nodes_before) = read_totals(&feeds);
    let height_before = chain.height();
    let mut txs = 0u64;
    let mut failed_delivers = 0u64;
    let mut rounds = 0usize;
    let started = Instant::now();
    while feeds.iter().any(|f| !f.source.is_exhausted()) {
        let round = rounds;
        let parent = rec.as_mut().map(|r| r.begin("round", None, round, NO_FEED));
        for (idx, feed) in feeds.iter_mut().enumerate() {
            if feed.source.is_exhausted() {
                continue;
            }
            let epoch_start = chain.height();
            let Feed { driver, source } = feed;
            stage(&mut rec, STAGES[0], parent, round, idx, || {
                driver.stage_mut().ingest(source)
            });
            let update = stage(&mut rec, STAGES[1], parent, round, idx, || {
                driver.stage_update()
            })
            .map_err(|e| e.to_string())?;
            let reads = stage(&mut rec, STAGES[2], parent, round, idx, || {
                driver.submit_update(&mut chain, &update);
                driver.stage_reads(&mut chain)
            })
            .map_err(|e| e.to_string())?;
            let rejected = stage(&mut rec, STAGES[3], parent, round, idx, || {
                let (from, to) = (driver.provider_address(), driver.manager());
                for input in &reads.delivers {
                    chain.submit(Transaction::new(
                        from,
                        to,
                        "deliver",
                        input.clone(),
                        Layer::Feed,
                    ));
                }
                let mut rejected = 0u64;
                while chain.mempool_len() > 0 {
                    let block = chain.try_produce_block().map_err(|e| e.to_string())?;
                    rejected += block.receipts.iter().filter(|r| !r.success).count() as u64;
                }
                Ok::<u64, String>(rejected)
            })?;
            failed_delivers += rejected;
            stage(&mut rec, STAGES[4], parent, round, idx, || {
                driver.finish_staged_epoch(&update, &reads)
            });
            // Transactions this epoch mined, read off the retained block
            // bodies (an epoch spans a handful of blocks, far inside the
            // retention window).
            txs += chain
                .blocks()
                .iter()
                .rev()
                .take_while(|b| b.number > epoch_start)
                .map(|b| b.receipts.len() as u64)
                .sum::<u64>();
        }
        // The round boundary is the acknowledgment boundary, as in the
        // engine: a no-op at confirmation depth 0.
        stage(&mut rec, STAGES[4], parent, round, NO_FEED, || {
            chain.await_confirmations()
        })
        .map_err(|e| e.to_string())?;
        if let (Some(rec), Some(parent)) = (rec.as_mut(), parent) {
            rec.end(parent);
        }
        rounds += 1;
    }
    let run_s = started.elapsed().as_secs_f64();

    let (reads_after, nodes_after) = read_totals(&feeds);
    Ok(PipelineRun {
        run_s,
        feeds: names,
        ops: feeds.iter().map(|f| f.driver.completed_ops()).sum(),
        rounds,
        blocks: chain.height() - height_before,
        txs,
        failed_delivers,
        roots_match: feeds
            .iter()
            .all(|f| f.driver.owner().root() == f.driver.provider().root()),
        reads: ReadStats {
            cache_hits: reads_after.cache_hits - reads_before.cache_hits,
            cache_misses: reads_after.cache_misses - reads_before.cache_misses,
            bloom_skips: reads_after.bloom_skips - reads_before.bloom_skips,
            span_skips: reads_after.span_skips - reads_before.span_skips,
            block_reads: reads_after.block_reads - reads_before.block_reads,
        },
        nodes_rehashed: nodes_after - nodes_before,
        chain,
    })
}
