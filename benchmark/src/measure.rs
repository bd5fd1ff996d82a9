//! One untraced repetition: build the plan, deploy it, run it to
//! completion through the public `FeedEngine` entry point, and report what a
//! user of the system would see. Runs inside a fresh child process so that
//! `VmHWM` is this repetition's own peak and no state survives between
//! repetitions.

use std::time::Instant;

use grub_chain::Blockchain;
use grub_engine::{EngineReport, FeedEngine};

use crate::json::Json;
use crate::workloads::{Plan, Workload};

/// What one engine run produced, before it is flattened into a report.
pub struct EngineRun {
    pub setup_s: f64,
    pub run_s: f64,
    pub ops_generated: usize,
    pub report: EngineReport,
    pub chain: Blockchain,
}

/// Builds a plan, deploys it and runs it to completion on the engine.
///
/// `setup_s` is everything the benchmark does before the first round:
/// building the plan from the seed (YCSB materialises its preload here),
/// counting the operations its sources will emit (the reference the
/// completeness check compares against) and `FeedEngine::new` (contract
/// deployment, store creation, preload). Input generation is included on
/// purpose: on the workloads without a dataset `FeedEngine::new` alone is a
/// few milliseconds of file creation whose duration swings fivefold with the
/// file system's mood, far too unsteady to bound.
pub fn deploy_and_run(build: impl FnOnce() -> Plan) -> Result<EngineRun, String> {
    let started = Instant::now();
    let plan = build();
    let ops_generated = plan.ops_generated();
    let engine = FeedEngine::new(&plan.config, plan.specs).map_err(|e| e.to_string())?;
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let (report, chain) = engine.run_with_chain().map_err(|e| e.to_string())?;
    let run_s = started.elapsed().as_secs_f64();
    Ok(EngineRun {
        setup_s,
        run_s,
        ops_generated,
        report,
        chain,
    })
}

/// The child side of an untraced repetition; the JSON it returns is the
/// child's whole standard output.
pub fn repetition(workload: &Workload, seed: u64, scale_div: usize) -> Result<Json, String> {
    let run = deploy_and_run(|| workload.plan(seed, scale_div))?;
    let round_us: Vec<f64> = run
        .report
        .metrics
        .iter()
        .map(|m| m.wall_clock_micros as f64)
        .collect();
    Ok(Json::obj()
        .set("setup_s", run.setup_s)
        .set("run_s", run.run_s)
        .set("ops_generated", run.ops_generated)
        .set("ops_completed", run.report.total_ops())
        .set("failed_delivers", run.report.failed_delivers())
        .set("feed_gas_total", run.report.feed_gas_total())
        .set("feed_gas_per_op", run.report.feed_gas_per_op())
        .set("chain_digest", run.chain.chain_digest().to_hex())
        .set("peak_rss_kib", peak_rss_kib()?)
        .set("round_us", round_us))
}

/// This process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}
