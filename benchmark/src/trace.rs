//! The traced run of one workload: every per-layer metric, outside in.
//!
//! Four measurements of the same plan, each on a fresh deployment:
//!
//! 1. an untraced `FeedEngine` run — Gas by cost kind and by contract call,
//!    engine counts, and the wall time the pipeline is compared against;
//! 2. the harness pipeline without spans — its wall time is the base of
//!    `trace.overhead_share`, its Gas the unbatched baseline;
//! 3. the harness pipeline with spans — where a round's wall time goes;
//! 4. the shadow probes — per-call costs of the layers under `stage_update`.

use grub_chain::ChainConfig;
use grub_gas::{CostKind, Layer};

use crate::json::Json;
use crate::measure::{deploy_and_run, EngineRun};
use crate::metrics::PER_LAYER;
use crate::pipeline::{self, STAGES};
use crate::probes;
use crate::spans::{totals_by_name, Recorder};
use crate::stats;
use crate::workloads::Workload;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether any chain-realism axis is on (the non-legacy mining path).
fn has_realism(chain: &ChainConfig) -> bool {
    chain.reorg.is_some()
        || chain.latency.is_some()
        || chain.mempool.is_some()
        || chain.fee.is_some()
        || chain.confirm_depth > 0
}

fn ops_per_sec(run: &EngineRun) -> f64 {
    ratio(run.report.total_ops() as f64, run.run_s)
}

/// The child side of a traced run; the JSON it returns is the child's
/// whole standard output.
pub fn traced(
    workload: &Workload,
    seed: u64,
    scale_div: usize,
    out_dir: &std::path::Path,
) -> Result<Json, String> {
    let mut problems: Vec<String> = Vec::new();
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // 1. The engine, untraced.
    let engine = deploy_and_run(|| workload.plan(seed, scale_div))?;
    let ops = engine.report.total_ops() as f64;
    let report = &engine.report;
    let meter = engine.chain.meter();
    let kinds = [
        ("gas.feed.transaction_per_op", CostKind::Transaction),
        ("gas.feed.storage_insert_per_op", CostKind::StorageInsert),
        ("gas.feed.storage_update_per_op", CostKind::StorageUpdate),
        ("gas.feed.storage_read_per_op", CostKind::StorageRead),
        ("gas.feed.hash_per_op", CostKind::Hash),
        ("gas.feed.log_per_op", CostKind::Log),
    ];
    let mut kind_sum = 0u64;
    for (name, kind) in kinds {
        let gas = meter.kind_total(Layer::Feed, kind).amount();
        kind_sum += gas;
        m.push((name, ratio(gas as f64, ops)));
    }
    if kind_sum != report.feed_gas_total() {
        problems.push(format!(
            "feed Gas kinds sum to {kind_sum}, the report says {}",
            report.feed_gas_total()
        ));
    }
    let own_epoch: u64 = report.tenants.iter().map(|t| t.run.feed_gas_total()).sum();
    let batch_update: u64 = report.shard_update_gas.iter().sum();
    let batch_deliver: u64 = report.shard_deliver_gas.iter().sum();
    m.push(("gas.feed.own_epoch_per_op", ratio(own_epoch as f64, ops)));
    m.push((
        "gas.feed.batch_update_per_op",
        ratio(batch_update as f64, ops),
    ));
    m.push((
        "gas.feed.batch_deliver_per_op",
        ratio(batch_deliver as f64, ops),
    ));
    m.push(("gas.app_per_op", ratio(report.app_gas_total() as f64, ops)));
    let update_txs: usize = report.shard_update_txs.iter().sum();
    let deliver_txs: usize = report.shard_deliver_txs.iter().sum();
    let sections: usize = report
        .metrics
        .iter()
        .map(|r| r.update_sections + r.deliver_sections)
        .sum();
    m.push(("engine.rounds", report.rounds as f64));
    m.push(("engine.update_txs", update_txs as f64));
    m.push(("engine.deliver_txs", deliver_txs as f64));
    m.push((
        "engine.sections_per_tx",
        ratio(sections as f64, (update_txs + deliver_txs) as f64),
    ));
    let rounds: Vec<f64> = report
        .metrics
        .iter()
        .map(|r| r.wall_clock_micros as f64)
        .collect();
    m.push((
        "engine.round_us_p99",
        stats::percentile(&stats::sorted(&rounds), 99.0),
    ));
    if engine.report.failed_delivers() > 0 || engine.report.total_ops() != engine.ops_generated {
        problems.push("the engine run failed or dropped operations".into());
    }

    // The same fleet with the realism axes off, when they are on: what the
    // non-legacy mining path costs in throughput.
    let plan = workload.plan(seed, scale_div);
    let slowdown = if has_realism(&plan.config.chain) {
        let mut legacy = plan;
        legacy.config.chain = ChainConfig {
            retain_blocks: legacy.config.chain.retain_blocks,
            ..ChainConfig::default()
        };
        ratio(
            ops_per_sec(&deploy_and_run(|| legacy)?),
            ops_per_sec(&engine),
        )
    } else {
        1.0
    };
    m.push(("chain.realism_slowdown", slowdown));

    // 2 + 3. The harness pipeline, span-less then traced.
    let bare = pipeline::run(workload.plan(seed, scale_div), None)?;
    let mut recorder = Recorder::new();
    let traced = pipeline::run(workload.plan(seed, scale_div), Some(&mut recorder))?;
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    recorder
        .write_jsonl(
            &out_dir.join(format!("{}.trace.jsonl", workload.name)),
            &traced.feeds,
        )
        .map_err(|e| e.to_string())?;

    let totals = totals_by_name(recorder.spans());
    let round_ns = totals.get("round").map_or(0, |t| t.total_ns) as f64;
    let stage_ns = |name: &str| totals.get(name).copied().unwrap_or_default();
    for (stage, metric) in STAGES.iter().zip([
        "core.stage.ingest_share",
        "core.stage.stage_update_share",
        "core.stage.read_block_share",
        "core.stage.deliver_block_share",
        "core.stage.book_share",
    ]) {
        m.push((metric, ratio(stage_ns(stage).total_ns as f64, round_ns)));
    }
    let round_self = totals.get("round").map_or(0, |t| t.self_ns) as f64;
    let covered = ratio(round_ns - round_self, round_ns);
    m.push(("core.stage.covered_share", covered));
    if covered < 0.95 {
        problems.push(format!("spans cover only {covered:.3} of round wall time"));
    }
    let mean_us = |name: &str| {
        let t = stage_ns(name);
        ratio(t.total_ns as f64 / 1000.0, t.calls as f64)
    };
    m.push(("chain.read_block_us", mean_us("read_block")));
    m.push(("chain.deliver_block_us", mean_us("deliver_block")));
    m.push((
        "chain.blocks_per_round",
        ratio(traced.blocks as f64, traced.rounds as f64),
    ));
    m.push((
        "chain.txs_per_op",
        ratio(traced.txs as f64, traced.ops as f64),
    ));
    m.push((
        "trace.overhead_share",
        ratio(traced.run_s - bare.run_s, bare.run_s),
    ));
    m.push(("engine.wall_vs_pipeline", ratio(engine.run_s, bare.run_s)));
    let pipeline_gas = bare.chain.meter().layer_total(Layer::Feed).amount();
    m.push((
        "engine.batch_gas_saving_share",
        1.0 - ratio(report.feed_gas_total() as f64, pipeline_gas as f64),
    ));
    let looked_up = traced.reads.cache_hits + traced.reads.cache_misses;
    m.push((
        "store.cache_hit_rate",
        ratio(traced.reads.cache_hits as f64, looked_up as f64),
    ));
    m.push((
        "store.bloom_skip_rate",
        ratio(
            traced.reads.bloom_skips as f64,
            (traced.reads.bloom_skips + looked_up) as f64,
        ),
    ));
    m.push((
        "merkle.nodes_rehashed_per_op",
        ratio(traced.nodes_rehashed as f64, traced.ops as f64),
    ));
    for (label, run) in [("span-less", &bare), ("traced", &traced)] {
        if !run.roots_match {
            problems.push(format!(
                "{label} pipeline: a DO root differs from its SP root"
            ));
        }
        if run.failed_delivers > 0 {
            problems.push(format!(
                "{label} pipeline: {} deliver receipts failed",
                run.failed_delivers
            ));
        }
        if run.ops != engine.ops_generated {
            problems.push(format!(
                "{label} pipeline completed {} of {} operations",
                run.ops, engine.ops_generated
            ));
        }
    }
    if bare.chain.chain_digest() != traced.chain.chain_digest() {
        problems.push("tracing changed the pipeline's chain digest".into());
    }

    // 4. The shadow probes.
    let probe = probes::run(&workload.plan(seed, scale_div))?;
    if probe.ops != engine.ops_generated {
        problems.push("the probes replayed a different operation count".into());
    }
    let traced_ns = traced.run_s * 1e9;
    m.push(("workload.next_op_ns", probe.next_op.mean_ns()));
    m.push(("core.policy.decide_ns", probe.decide.mean_ns()));
    m.push(("core.owner.flush_epoch_us", probe.flush_epoch.mean_us()));
    m.push((
        "core.owner.flush_share",
        ratio(probe.flush_epoch.ns as f64, traced_ns),
    ));
    m.push(("core.provider.apply_sync_us", probe.apply_sync.mean_us()));
    m.push((
        "core.provider.sync_share",
        ratio(probe.apply_sync.ns as f64, traced_ns),
    ));
    m.push(("store.put_us", probe.store_put.mean_us()));
    m.push(("store.flushes", probe.store_flushes as f64));
    m.push(("store.compactions", probe.store_compactions as f64));
    m.push((
        "store.disk_bytes_per_user_byte",
        ratio(probe.store_disk_bytes as f64, probe.store_user_bytes as f64),
    ));
    m.push(("store.get_us", probe.store_get.mean_us()));
    m.push((
        "store.block_reads_per_get",
        ratio(probe.store_block_reads as f64, probe.store_get.calls as f64),
    ));
    m.push(("merkle.prove_us", probe.merkle_prove.mean_us()));
    m.push(("merkle.verify_us", probe.merkle_verify.mean_us()));
    m.push(("merkle.apply_batch_us", probe.merkle_apply_batch.mean_us()));
    m.push(("merkle.depth", probe.merkle_depth as f64));
    m.push(("crypto.sha256_64b_ns", probe.sha256_64b.mean_ns()));

    // Emit in the declared order, and insist that nothing is missing.
    let mut metrics = Json::obj();
    for def in PER_LAYER {
        match m.iter().find(|(name, _)| *name == def.name) {
            Some((_, value)) if value.is_finite() => metrics = metrics.set(def.name, *value),
            Some(_) => problems.push(format!("{} is not a finite number", def.name)),
            None => problems.push(format!("{} was not measured", def.name)),
        }
    }
    let failed = engine.report.failed_delivers() as u64
        + traced.failed_delivers
        + (engine.ops_generated - traced.ops.min(engine.ops_generated)) as u64;
    Ok(Json::obj()
        .set("metrics", metrics)
        .set("attempted", engine.ops_generated)
        .set("failed", failed)
        .set("spans", recorder.spans().len())
        .set(
            "problems",
            Json::Arr(problems.into_iter().map(Json::Str).collect()),
        ))
}
