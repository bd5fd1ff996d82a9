//! The benchmark's metric tables. `BENCHMARK.json` at the repository root
//! declares the same names, units and directions (a unit test keeps the two
//! in step); the regression bounds live only there.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("ops_per_sec", "1/s", "higher"),
    def("round_us_p50", "us", "lower"),
    def("feed_gas_per_op", "gas/op", "lower"),
    def("peak_rss_mib", "MiB", "lower"),
];

/// Printed and saved by `run`, but not part of the contract. The tail of
/// the round durations amplifies machine noise and, on the YCSB workloads,
/// lands on or off a compaction spike depending on the seed: its
/// seed-to-seed spread (20-35% here) is wider than the largest bound the
/// contract allows, so it cannot gate anything.
pub const INFORMATIONAL: &[MetricDef] = &[def("round_us_p99", "us", "lower")];

/// Single-layer numbers from the traced run, outside in. Shares are of the
/// traced pipeline's round wall time; `gas.*` and `engine.*` come from an
/// untraced `FeedEngine` run of the same plan; `*_us`/`*_ns` under `core.owner`,
/// `core.provider`, `store`, `merkle`, `crypto`, `workload` and `core.policy`
/// are shadow-probe means.
pub const PER_LAYER: &[MetricDef] = &[
    def("workload.next_op_ns", "ns", "lower"),
    def("core.policy.decide_ns", "ns", "lower"),
    def("core.stage.ingest_share", "share", "lower"),
    def("core.stage.stage_update_share", "share", "lower"),
    def("core.stage.read_block_share", "share", "lower"),
    def("core.stage.deliver_block_share", "share", "lower"),
    def("core.stage.book_share", "share", "lower"),
    def("core.stage.covered_share", "share", "higher"),
    def("core.owner.flush_epoch_us", "us", "lower"),
    def("core.owner.flush_share", "share", "lower"),
    def("core.provider.apply_sync_us", "us", "lower"),
    def("core.provider.sync_share", "share", "lower"),
    def("store.put_us", "us", "lower"),
    def("store.flushes", "count", "lower"),
    def("store.compactions", "count", "lower"),
    def("store.disk_bytes_per_user_byte", "ratio", "lower"),
    def("store.get_us", "us", "lower"),
    def("store.cache_hit_rate", "share", "higher"),
    def("store.bloom_skip_rate", "share", "higher"),
    def("store.block_reads_per_get", "ratio", "lower"),
    def("merkle.prove_us", "us", "lower"),
    def("merkle.verify_us", "us", "lower"),
    def("merkle.apply_batch_us", "us", "lower"),
    def("merkle.nodes_rehashed_per_op", "count", "lower"),
    def("merkle.depth", "count", "lower"),
    def("crypto.sha256_64b_ns", "ns", "lower"),
    def("chain.read_block_us", "us", "lower"),
    def("chain.deliver_block_us", "us", "lower"),
    def("chain.blocks_per_round", "count", "lower"),
    def("chain.txs_per_op", "ratio", "lower"),
    def("chain.realism_slowdown", "ratio", "lower"),
    def("gas.feed.transaction_per_op", "gas/op", "lower"),
    def("gas.feed.storage_insert_per_op", "gas/op", "lower"),
    def("gas.feed.storage_update_per_op", "gas/op", "lower"),
    def("gas.feed.storage_read_per_op", "gas/op", "lower"),
    def("gas.feed.hash_per_op", "gas/op", "lower"),
    def("gas.feed.log_per_op", "gas/op", "lower"),
    def("gas.feed.own_epoch_per_op", "gas/op", "lower"),
    def("gas.feed.batch_update_per_op", "gas/op", "lower"),
    def("gas.feed.batch_deliver_per_op", "gas/op", "lower"),
    def("gas.app_per_op", "gas/op", "lower"),
    def("engine.rounds", "count", "lower"),
    def("engine.update_txs", "count", "lower"),
    def("engine.deliver_txs", "count", "lower"),
    def("engine.sections_per_tx", "ratio", "higher"),
    def("engine.batch_gas_saving_share", "share", "higher"),
    def("engine.wall_vs_pipeline", "ratio", "lower"),
    def("engine.round_us_p99", "us", "lower"),
    def("trace.overhead_share", "share", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` is the contract the acceptance driver reads; the
    /// tables above are what the program emits. They must agree.
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let check = |key: &str, table: &[MetricDef]| {
            let listed = doc.get(key).and_then(Json::as_array).expect(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(def.better));
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let listed = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(WORKLOADS) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "{}", d.name);
            assert!(ok_unit(d.unit), "{}: {}", d.name, d.unit);
            assert!(d.better == "lower" || d.better == "higher");
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
