//! Protocol-consistency model (paper §3.4, Appendix E).
//!
//! GRuB inherits the blockchain's propagation/finality behaviour and adds
//! its own epoch batching delay `E` on the write path. The two theorems:
//!
//! * **Theorem 3.1 / E.1** — a `gPut` and a `gGet` issued within the
//!   concurrency window order non-deterministically, but identically across
//!   all nodes once finalized (validated against
//!   [`grub_chain::network::NetworkSim`] in the integration tests);
//! * **Theorem 3.2 / E.2** — a `gGet` issued at least
//!   `E + Pt + F·B` after a `gPut` observes it (epoch-bounded freshness).
//!
//! This module computes those bounds from concrete parameters so harnesses
//! and applications can reason about staleness (e.g. the stablecoin's
//! "price is at most N minutes old" guarantee).

use grub_chain::ChainConfig;

/// Freshness/ordering bounds for a GRuB deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreshnessModel {
    /// Epoch length `E` in milliseconds (DO batching delay).
    pub epoch_ms: u64,
    /// Chain timing parameters (`B`, `F`, `Pt`).
    pub chain: ChainConfig,
}

impl FreshnessModel {
    /// Builds the model.
    pub fn new(epoch_ms: u64, chain: ChainConfig) -> Self {
        FreshnessModel { epoch_ms, chain }
    }

    /// The worst-case delay after which a `gPut` is visible to every
    /// `gGet`: `E + Pt + F·B` (Theorem 3.2).
    pub fn freshness_bound_ms(&self) -> u64 {
        self.epoch_ms
            + self.chain.propagation_ms
            + self.chain.finality_depth * self.chain.block_period_ms
    }

    /// Whether a read at `read_ms` is guaranteed to observe a write at
    /// `write_ms`.
    pub fn read_observes_write(&self, write_ms: u64, read_ms: u64) -> bool {
        read_ms >= write_ms + self.freshness_bound_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FreshnessModel {
        FreshnessModel::new(
            60_000, // 1-minute epoch, the paper's example
            ChainConfig {
                block_period_ms: 13_000,
                finality_depth: 250,
                propagation_ms: 500,
                ..ChainConfig::default()
            },
        )
    }

    #[test]
    fn bound_is_e_plus_pt_plus_fb() {
        let m = model();
        assert_eq!(m.freshness_bound_ms(), 60_000 + 500 + 250 * 13_000);
    }

    #[test]
    fn observe_predicate_matches_bound() {
        let m = model();
        let bound = m.freshness_bound_ms();
        assert!(!m.read_observes_write(1_000, 1_000 + bound - 1));
        assert!(m.read_observes_write(1_000, 1_000 + bound));
    }

    #[test]
    fn ethereum_default_is_dominated_by_finality() {
        let m = FreshnessModel::new(60_000, ChainConfig::default());
        let finality = 250 * 13_000;
        assert!(m.freshness_bound_ms() > finality);
        assert!(m.freshness_bound_ms() < finality + 2 * 60_000);
    }
}
