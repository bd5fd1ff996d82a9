//! Per-epoch Gas reporting, in the shape the paper's figures use.

use serde::{Deserialize, Serialize};

/// Gas accounting for one epoch of trace operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Trace operations processed in the epoch.
    pub ops: usize,
    /// Feed-layer Gas burned in the epoch.
    pub feed_gas: u64,
    /// Application-layer Gas burned in the epoch.
    pub app_gas: u64,
    /// NR→R transitions actuated.
    pub replications: usize,
    /// R→NR transitions actuated.
    pub evictions: usize,
    /// Deliver transactions rejected by the contract (adversarial SP).
    pub failed_delivers: usize,
}

impl EpochReport {
    /// Feed-layer Gas per operation, the paper's principal Y axis.
    pub fn feed_gas_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.feed_gas as f64 / self.ops as f64
        }
    }
}

/// The result of driving one trace through one configuration.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Display name of the policy that ran.
    pub policy: String,
    /// Per-epoch accounting.
    pub epochs: Vec<EpochReport>,
}

impl RunReport {
    /// Total trace operations.
    pub fn total_ops(&self) -> usize {
        self.epochs.iter().map(|e| e.ops).sum()
    }

    /// Total feed-layer Gas.
    pub fn feed_gas_total(&self) -> u64 {
        self.epochs.iter().map(|e| e.feed_gas).sum()
    }

    /// Total application-layer Gas.
    pub fn app_gas_total(&self) -> u64 {
        self.epochs.iter().map(|e| e.app_gas).sum()
    }

    /// Average feed-layer Gas per operation across the whole run.
    pub fn feed_gas_per_op(&self) -> f64 {
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            self.feed_gas_total() as f64 / ops as f64
        }
    }

    /// The per-epoch feed Gas/op series (the paper's time-series plots).
    pub fn feed_series(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.feed_gas_per_op()).collect()
    }

    /// Count of rejected deliver transactions across the run.
    pub fn failed_delivers(&self) -> usize {
        self.epochs.iter().map(|e| e.failed_delivers).sum()
    }

    /// Total replications and evictions actuated.
    pub fn transitions(&self) -> (usize, usize) {
        (
            self.epochs.iter().map(|e| e.replications).sum(),
            self.epochs.iter().map(|e| e.evictions).sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(ops: usize, feed: u64, app: u64) -> EpochReport {
        EpochReport {
            epoch: 0,
            ops,
            feed_gas: feed,
            app_gas: app,
            replications: 0,
            evictions: 0,
            failed_delivers: 0,
        }
    }

    #[test]
    fn per_op_math() {
        let e = epoch(4, 1000, 200);
        assert_eq!(e.feed_gas_per_op(), 250.0);
        assert_eq!(epoch(0, 10, 0).feed_gas_per_op(), 0.0);
    }

    #[test]
    fn run_aggregates() {
        let run = RunReport {
            policy: "test".into(),
            epochs: vec![epoch(10, 1000, 0), epoch(10, 3000, 500)],
        };
        assert_eq!(run.total_ops(), 20);
        assert_eq!(run.feed_gas_total(), 4000);
        assert_eq!(run.app_gas_total(), 500);
        assert_eq!(run.feed_gas_per_op(), 200.0);
        assert_eq!(run.feed_series(), vec![100.0, 300.0]);
    }
}
