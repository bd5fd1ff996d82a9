//! Per-tenant and aggregate reporting for multi-tenant runs.

use std::fmt::Write as _;

use grub_core::metrics::RunReport;
use grub_gas::{checked_add_gas, Gas};

use crate::Batching;

/// One tenant's share of a multi-tenant run.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Shard the tenant was hashed to.
    pub shard: usize,
    /// The tenant's own epoch-by-epoch report (read path, delivers, and —
    /// when batching is off — its update transactions).
    pub run: RunReport,
    /// The tenant's byte-proportional share of its shard's batched update
    /// transactions (zero with [`Batching::Off`]).
    pub batched_update_gas: u64,
    /// The tenant's byte-proportional share of its shard's batched deliver
    /// transactions (zero below [`Batching::Full`]).
    pub batched_deliver_gas: u64,
    /// Scheduler rounds in which the tenant's quota parked its next epoch
    /// (zero without a [`TenantBudget`](crate::TenantBudget)).
    pub parked_rounds: usize,
    /// Longest run of *consecutive* parked rounds — by the quota class's
    /// starvation bound, always strictly below
    /// [`QuotaTier::starvation_bound`](crate::QuotaTier::starvation_bound).
    pub max_parked_streak: usize,
}

impl TenantReport {
    /// Total feed-layer Gas the tenant is accountable for: its own epochs
    /// plus its shares of the shard batches.
    pub fn feed_gas_total(&self) -> u64 {
        checked_add_gas(
            checked_add_gas(self.run.feed_gas_total(), self.batched_update_gas),
            self.batched_deliver_gas,
        )
    }

    /// Trace operations the tenant ran.
    pub fn total_ops(&self) -> usize {
        self.run.total_ops()
    }

    /// Feed-layer Gas per operation, batch share included.
    pub fn feed_gas_per_op(&self) -> f64 {
        Gas(self.feed_gas_total()).per_op(self.total_ops())
    }
}

/// Structured per-round (scheduler-epoch) metrics emitted by the engine.
///
/// One entry per scheduler round, in order. Every field except
/// `wall_clock_micros` is a deterministic function of the engine's specs;
/// wall-clock is measured and therefore excluded from
/// [`EngineReport::render_table`] (the determinism artifact) — it feeds
/// `benchmark run`'s `round_us_p50` instead.
#[derive(Clone, Debug, Default)]
pub struct EpochMetrics {
    /// Scheduler round index (0-based).
    pub round: usize,
    /// Trace operations ingested and completed this round, across feeds.
    pub staged_ops: usize,
    /// Feed-layer Gas metered this round (updates, delivers, batches).
    pub feed_gas: u64,
    /// Application-layer Gas metered this round (consumer callbacks).
    pub app_gas: u64,
    /// Engine-submitted update Gas this round, summed over shards.
    pub update_gas: u64,
    /// Engine-submitted deliver Gas this round, summed over shards.
    pub deliver_gas: u64,
    /// Update sections carried by this round's shard batches.
    pub update_sections: usize,
    /// Deliver sections carried by this round's shard batches.
    pub deliver_sections: usize,
    /// Feeds the quota scheduler parked this round.
    pub parked: usize,
    /// Longest consecutive-park streak across feeds, as of this round.
    pub max_parked_streak: usize,
    /// Scrub findings reported at this round's epoch boundary (zero with
    /// scrubbing off).
    pub scrub_findings: usize,
    /// Scrub findings repaired at this round's epoch boundary.
    pub scrub_repaired: usize,
    /// Lowest gas-price multiplier (permille of the schedule's base cost)
    /// among blocks mined this round; [`grub_gas::BASE_PRICE_PERMILLE`]
    /// when no fee process is configured or no block was mined.
    pub fee_low_permille: u64,
    /// Highest gas-price multiplier (permille) among blocks mined this
    /// round; base price when no fee process is configured.
    pub fee_high_permille: u64,
    /// The chain's confirmation frontier ([`ChainConfig::confirm_depth`]
    /// behind the tip) as of the end of this round — monotone
    /// non-decreasing across rounds, the per-round witness the consistency
    /// net asserts.
    ///
    /// [`ChainConfig::confirm_depth`]: grub_chain::ChainConfig::confirm_depth
    pub confirmed_height: u64,
    /// Wall-clock duration of the round, in microseconds. Measured, not
    /// deterministic — never rendered into the determinism table.
    pub wall_clock_micros: u64,
    /// SP store block-cache hits this round, summed across feeds.
    /// Hot-path observability (wall-clock-exempt table rules apply): cache
    /// behaviour depends on capacity knobs, so like `wall_clock_micros`
    /// these counters never enter the determinism table.
    pub cache_hits: u64,
    /// SP store block-cache misses this round, summed across feeds.
    pub cache_misses: u64,
    /// SP store table probes answered by a bloom true negative this round.
    pub bloom_skips: u64,
    /// Merkle nodes rehashed by batched tree updates this round (SP trees
    /// plus DO mirrors).
    pub merkle_nodes_rehashed: u64,
    /// SHA-256 compressions run this round (Merkle hashing, proofs, the
    /// on-chain verifier, block digests), from
    /// [`grub_crypto::compressions`]. Deterministic, but like
    /// `wall_clock_micros` kept out of the determinism table: it is a
    /// work counter, not an on-chain quantity.
    pub sha256_compressions: u64,
}

/// The aggregate result of one engine run.
///
/// Tenant order is the feed declaration order; all contained quantities are
/// deterministic functions of the engine's specs (the per-round
/// [`EpochMetrics::wall_clock_micros`] excepted), so two identical runs
/// render byte-identical tables.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Per-tenant reports, in declaration order.
    pub tenants: Vec<TenantReport>,
    /// Metered Gas of each shard's engine-submitted update transactions
    /// (batches, plus the direct fallback a lone section rides). Tenant
    /// `batched_update_gas` shares sum exactly to these totals.
    pub shard_update_gas: Vec<u64>,
    /// Number of engine-submitted update transactions each shard sent.
    pub shard_update_txs: Vec<usize>,
    /// Metered Gas of each shard's engine-submitted deliver transactions
    /// (batches, plus the direct fallback a lone section rides). Tenant
    /// `batched_deliver_gas` shares sum exactly to these totals.
    pub shard_deliver_gas: Vec<u64>,
    /// Number of engine-submitted deliver transactions each shard sent.
    pub shard_deliver_txs: Vec<usize>,
    /// Scheduler rounds until every trace completed.
    pub rounds: usize,
    /// The batching rung the run used.
    pub batching: Batching,
    /// Per-round metrics trajectory, one entry per scheduler round.
    pub metrics: Vec<EpochMetrics>,
}

impl EngineReport {
    /// Total feed-layer Gas across all tenants (shard batches included,
    /// exactly once — the per-tenant shares partition them).
    pub fn feed_gas_total(&self) -> u64 {
        self.tenants
            .iter()
            .fold(0, |acc, t| checked_add_gas(acc, t.feed_gas_total()))
    }

    /// Total application-layer Gas across all tenants.
    pub fn app_gas_total(&self) -> u64 {
        self.tenants
            .iter()
            .fold(0, |acc, t| checked_add_gas(acc, t.run.app_gas_total()))
    }

    /// Total trace operations across all tenants.
    pub fn total_ops(&self) -> usize {
        self.tenants.iter().map(TenantReport::total_ops).sum()
    }

    /// Aggregate feed-layer Gas per operation.
    pub fn feed_gas_per_op(&self) -> f64 {
        Gas(self.feed_gas_total()).per_op(self.total_ops())
    }

    /// Rejected deliver transactions across all tenants (zero under honest
    /// SPs).
    pub fn failed_delivers(&self) -> usize {
        self.tenants.iter().map(|t| t.run.failed_delivers()).sum()
    }

    /// Renders the run as a fixed-width table — the artifact the multifeed
    /// example and the determinism test compare byte for byte.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14}{:>6}  {:<30}{:>8}{:>14}{:>12}{:>10}{:>10}{:>8}",
            "tenant",
            "shard",
            "policy",
            "ops",
            "feed gas",
            "gas/op",
            "upd gas",
            "dlv gas",
            "parked"
        );
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "{:<14}{:>6}  {:<30}{:>8}{:>14}{:>12.1}{:>10}{:>10}{:>8}",
                t.tenant,
                t.shard,
                t.run.policy,
                t.total_ops(),
                t.feed_gas_total(),
                t.feed_gas_per_op(),
                t.batched_update_gas,
                t.batched_deliver_gas,
                t.parked_rounds,
            );
        }
        let mode = match self.batching {
            Batching::Full => "batched (upd+dlv)",
            Batching::Updates => "batched (upd)",
            Batching::Off => "unbatched",
        };
        let _ = writeln!(
            out,
            "{:<14}{:>6}  {:<30}{:>8}{:>14}{:>12.1}{:>10}{:>10}{:>8}",
            "TOTAL",
            "-",
            mode,
            self.total_ops(),
            self.feed_gas_total(),
            self.feed_gas_per_op(),
            self.shard_update_gas.iter().sum::<u64>(),
            self.shard_deliver_gas.iter().sum::<u64>(),
            self.tenants.iter().map(|t| t.parked_rounds).sum::<usize>(),
        );
        let _ = writeln!(
            out,
            "rounds: {}; shard update txs: {:?}; shard update gas: {:?}",
            self.rounds, self.shard_update_txs, self.shard_update_gas
        );
        let _ = writeln!(
            out,
            "shard deliver txs: {:?}; shard deliver gas: {:?}",
            self.shard_deliver_txs, self.shard_deliver_gas
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grub_core::metrics::EpochReport;

    fn tenant(name: &str, feed: u64, batch: u64, ops: usize) -> TenantReport {
        TenantReport {
            tenant: name.into(),
            shard: 0,
            run: RunReport {
                policy: "test".into(),
                epochs: vec![EpochReport {
                    epoch: 0,
                    ops,
                    feed_gas: feed,
                    app_gas: 7,
                    replications: 0,
                    evictions: 0,
                    failed_delivers: 0,
                }],
            },
            batched_update_gas: batch,
            batched_deliver_gas: 5,
            parked_rounds: 0,
            max_parked_streak: 0,
        }
    }

    #[test]
    fn aggregates_include_batch_shares_once() {
        let report = EngineReport {
            tenants: vec![tenant("a", 100, 40, 2), tenant("b", 50, 60, 2)],
            shard_update_gas: vec![100],
            shard_update_txs: vec![1],
            shard_deliver_gas: vec![10],
            shard_deliver_txs: vec![1],
            rounds: 1,
            batching: Batching::Full,
            metrics: vec![EpochMetrics {
                round: 0,
                staged_ops: 4,
                feed_gas: 260,
                update_gas: 100,
                deliver_gas: 10,
                ..EpochMetrics::default()
            }],
        };
        assert_eq!(report.feed_gas_total(), 100 + 40 + 5 + 50 + 60 + 5);
        assert_eq!(report.app_gas_total(), 14);
        assert_eq!(report.total_ops(), 4);
        assert_eq!(report.feed_gas_per_op(), 65.0);
        let table = report.render_table();
        assert!(table.contains("tenant"));
        assert!(table.contains("TOTAL"));
        assert_eq!(table, report.render_table(), "rendering is deterministic");
    }
}
