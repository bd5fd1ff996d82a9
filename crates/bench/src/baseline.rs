//! The persisted Gas baseline: a smoke-scaled multi-tenant run whose
//! headline numbers are checked in as `BENCH_multifeed.json` and re-measured
//! on every CI run.
//!
//! Every number in it is deterministic — total ops, scheduler rounds, the
//! gas-savings ladder (unbatched → write-only batching → full batching),
//! and the batch-section/transaction counts are pure functions of the
//! specs; a fresh run must reproduce them *exactly*, or the engine's cost
//! model silently moved. Throughput is not measured here: performance
//! claims come from the repo's benchmark (`BENCHMARK.json`, `benchmark/`).
//!
//! Re-baseline after an intentional change with:
//!
//! ```sh
//! GRUB_WRITE_BASELINE=1 cargo run --release -p grub-bench --bin baseline
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use grub_chain::ChainConfig;
use grub_engine::specs::{demo_policies, zipfian_ratio_specs, DEMO_RATIOS};
use grub_engine::{EngineConfig, FeedEngine, FeedSpec};
use grub_gas::FeeProcess;

/// Fleet shape: the multifeed example's 8-feed mixed-skew fleet at smoke
/// scale, sharded two ways.
const TENANTS: usize = 8;
const SHARDS: usize = 2;
const TOTAL_OPS: usize = 512;

/// Baseline keys that must reproduce exactly (deterministic functions of
/// the specs).
pub const DETERMINISTIC_KEYS: &[&str] = &[
    "total_ops",
    "rounds",
    "unbatched_gas",
    "write_only_gas",
    "full_batch_gas",
    "fee_spike_gas",
    "confirm_depth_gas",
    "update_sections",
    "deliver_sections",
    "update_txs",
    "deliver_txs",
];

fn fleet() -> Vec<FeedSpec> {
    zipfian_ratio_specs(TENANTS, TOTAL_OPS, DEMO_RATIOS, &demo_policies())
}

/// Runs the smoke fleet through the three batching modes and returns the
/// baseline metrics, keyed as in `BENCH_multifeed.json`.
pub fn measure() -> BTreeMap<String, f64> {
    let unbatched = FeedEngine::run_specs(&EngineConfig::new(SHARDS).unbatched(), fleet())
        .expect("unbatched run");
    let write_only =
        FeedEngine::run_specs(&EngineConfig::new(SHARDS).without_read_batching(), fleet())
            .expect("write-only run");
    let full = FeedEngine::run_specs(&EngineConfig::new(SHARDS), fleet()).expect("full-batch run");
    // The chain-realism row: the same fleet under the seeded spiking
    // gas-price process. Block heights, and therefore every priced charge,
    // are pure functions of the specs and the seed — the total is exact.
    let mut fee_config = EngineConfig::new(SHARDS);
    fee_config.chain = ChainConfig::default().fee(FeeProcess::spike(11));
    let fee_run = FeedEngine::run_specs(&fee_config, fleet()).expect("fee-schedule run");
    // The confirmation-semantics row: the same fleet acknowledged only
    // three blocks deep, with the seeded inclusion-latency process gating
    // mining. Confirmation delays acknowledgment, never repricing, so the
    // total is exact — and must equal the plain full-batch total.
    let mut confirm_config = EngineConfig::new(SHARDS);
    confirm_config.chain = ChainConfig::default().confirm_depth(3).latency(5, 1);
    let confirm_run = FeedEngine::run_specs(&confirm_config, fleet()).expect("confirmation run");
    assert_eq!(
        confirm_run.feed_gas_total(),
        full.feed_gas_total(),
        "confirmation depth and inclusion latency must never move a unit of Gas"
    );
    assert!(
        full.feed_gas_total() < write_only.feed_gas_total()
            && write_only.feed_gas_total() < unbatched.feed_gas_total(),
        "the gas-savings ladder must be strictly monotone"
    );

    let mut out = BTreeMap::new();
    out.insert("total_ops".into(), full.total_ops() as f64);
    out.insert("rounds".into(), full.rounds as f64);
    out.insert("unbatched_gas".into(), unbatched.feed_gas_total() as f64);
    out.insert("write_only_gas".into(), write_only.feed_gas_total() as f64);
    out.insert("full_batch_gas".into(), full.feed_gas_total() as f64);
    out.insert("fee_spike_gas".into(), fee_run.feed_gas_total() as f64);
    out.insert(
        "confirm_depth_gas".into(),
        confirm_run.feed_gas_total() as f64,
    );
    out.insert(
        "update_sections".into(),
        full.metrics
            .iter()
            .map(|m| m.update_sections)
            .sum::<usize>() as f64,
    );
    out.insert(
        "deliver_sections".into(),
        full.metrics
            .iter()
            .map(|m| m.deliver_sections)
            .sum::<usize>() as f64,
    );
    out.insert(
        "update_txs".into(),
        full.shard_update_txs.iter().sum::<usize>() as f64,
    );
    out.insert(
        "deliver_txs".into(),
        full.shard_deliver_txs.iter().sum::<usize>() as f64,
    );
    out
}

/// Renders the metrics as the checked-in JSON artifact (sorted keys, one
/// per line — diff-friendly; integers render without a fraction).
pub fn render_json(metrics: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    let last = metrics.len().saturating_sub(1);
    for (i, (key, value)) in metrics.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        if value.fract() == 0.0 && value.abs() < 9e15 {
            let _ = writeln!(out, "  \"{key}\": {}{comma}", *value as i64);
        } else {
            let _ = writeln!(out, "  \"{key}\": {value:.3}{comma}");
        }
    }
    out.push_str("}\n");
    out
}

/// Parses the flat one-level JSON the renderer writes (the workspace is
/// offline and its vendored `serde` is a no-op stub, so the artifact format
/// is deliberately trivial). Unknown lines are ignored.
pub fn parse_json(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let value = value.trim().trim_end_matches(',');
        if let Ok(v) = value.parse::<f64>() {
            out.insert(key.to_owned(), v);
        }
    }
    out
}

/// Diffs a fresh measurement against the checked-in baseline on this
/// machine: every deterministic key must match exactly. Returns the list
/// of regressions (empty = pass).
pub fn compare(baseline: &BTreeMap<String, f64>, fresh: &BTreeMap<String, f64>) -> Vec<String> {
    let mut failures = Vec::new();
    for key in DETERMINISTIC_KEYS {
        match (baseline.get(*key), fresh.get(*key)) {
            (Some(b), Some(f)) if b == f => {}
            (Some(b), Some(f)) => failures.push(format!(
                "{key}: baseline {b} vs fresh {f} (deterministic metric must match exactly; \
                 re-baseline with GRUB_WRITE_BASELINE=1 if the change is intentional)"
            )),
            (None, _) => failures.push(format!("{key}: missing from baseline file")),
            (_, None) => failures.push(format!("{key}: missing from fresh run")),
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let mut metrics = BTreeMap::new();
        metrics.insert("total_ops".to_owned(), 512.0);
        metrics.insert("ops_per_sec".to_owned(), 1234.567);
        let parsed = parse_json(&render_json(&metrics));
        assert_eq!(parsed.get("total_ops"), Some(&512.0));
        assert_eq!(parsed.get("ops_per_sec"), Some(&1234.567));
    }

    #[test]
    fn compare_flags_deterministic_drift() {
        let mut base = BTreeMap::new();
        for key in DETERMINISTIC_KEYS {
            base.insert((*key).to_owned(), 100.0);
        }
        assert!(compare(&base, &base).is_empty(), "identical runs pass");
        let mut drifted = base.clone();
        drifted.insert("full_batch_gas".to_owned(), 101.0);
        assert_eq!(compare(&base, &drifted).len(), 1);
        let mut missing = base.clone();
        missing.remove("rounds");
        assert_eq!(compare(&base, &missing).len(), 1);
    }
}
