//! A multi-node propagation and finality model.
//!
//! The Gas experiments run on the single-node [`crate::Blockchain`]; this
//! module models what that simulator abstracts away — transaction
//! propagation (`Pt`), block production (`B`) and finality (`F`) across many
//! nodes — so the paper's consistency theorems (§3.4, Appendix E) can be
//! validated:
//!
//! * **Theorem 3.1 / E.1** — the ordering of concurrent operations is
//!   non-deterministic (miner-decided) but identical across all nodes once
//!   the involved transactions are final.
//! * **Theorem 3.2 / E.2** — a transaction submitted at `t` is visible and
//!   final on *every* node by `t + Pt + F·B`; GRuB adds its epoch `E` on the
//!   write path, giving the paper's freshness bound `E + Pt + F·B`.
//!
//! The model is deliberately small: one logical miner (standing in for the
//! consensus protocol's serialization decision), per-message random delays
//! bounded by `Pt`, and a deterministic seed so tests are reproducible.

use crate::chain::ChainConfig;

/// A transaction in flight through the network model, identified by label.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PendingTx {
    label: String,
    submit_time_ms: u64,
    arrival_at_miner_ms: u64,
}

/// A mined block in the network model.
#[derive(Clone, Debug)]
pub struct ModelBlock {
    /// Height (1-based).
    pub number: u64,
    /// Production time at the miner.
    pub produced_ms: u64,
    /// Labels of the included transactions, in consensus order.
    pub txs: Vec<String>,
}

/// Multi-node network simulation with bounded propagation delays.
///
/// # Examples
///
/// ```
/// use grub_chain::network::NetworkSim;
/// use grub_chain::ChainConfig;
///
/// let config = ChainConfig { block_period_ms: 1000, finality_depth: 3, propagation_ms: 400,
///     ..ChainConfig::default() };
/// let mut net = NetworkSim::new(4, config, 7);
/// net.submit(0, 100, "putA");
/// net.run_until(10_000);
/// let bound = 100 + config.propagation_ms + config.finality_depth * config.block_period_ms;
/// for node in 0..4 {
///     assert!(net.finalized_view(node, bound).contains(&"putA".to_string()));
/// }
/// ```
pub struct NetworkSim {
    nodes: usize,
    config: ChainConfig,
    rng_state: u64,
    pending: Vec<PendingTx>,
    blocks: Vec<ModelBlock>,
    /// `block_arrival[node][block_index]` = time the block reached the node.
    block_arrival: Vec<Vec<u64>>,
    now_ms: u64,
}

impl NetworkSim {
    /// Creates a network of `nodes` nodes with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize, config: ChainConfig, seed: u64) -> Self {
        assert!(nodes > 0, "need at least one node");
        NetworkSim {
            nodes,
            config,
            rng_state: seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1),
            pending: Vec::new(),
            blocks: Vec::new(),
            block_arrival: vec![Vec::new(); nodes],
            now_ms: 0,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — deterministic, no external dependency.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn delay(&mut self) -> u64 {
        if self.config.propagation_ms == 0 {
            0
        } else {
            self.next_rand() % (self.config.propagation_ms + 1)
        }
    }

    /// Submits a transaction from `node` at `time_ms` (absolute sim time).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `time_ms` is in the simulated
    /// past.
    pub fn submit(&mut self, node: usize, time_ms: u64, label: impl Into<String>) {
        assert!(node < self.nodes, "node {node} out of range");
        assert!(
            time_ms >= self.now_ms,
            "cannot submit in the past ({time_ms} < {})",
            self.now_ms
        );
        let delay = self.delay();
        self.pending.push(PendingTx {
            label: label.into(),
            submit_time_ms: time_ms,
            arrival_at_miner_ms: time_ms + delay,
        });
    }

    /// Advances the simulation, producing blocks every `B`, until `t_ms`.
    pub fn run_until(&mut self, t_ms: u64) {
        let period = self.config.block_period_ms;
        while self.now_ms + period <= t_ms {
            self.now_ms += period;
            let produced = self.now_ms;
            // The miner serializes every transaction that reached it; ties in
            // arrival are broken by submission recency *and* a random shuffle
            // of same-time arrivals, modelling consensus non-determinism.
            let mut ready: Vec<PendingTx> = Vec::new();
            let mut rest = Vec::new();
            for tx in self.pending.drain(..) {
                if tx.arrival_at_miner_ms <= produced {
                    ready.push(tx);
                } else {
                    rest.push(tx);
                }
            }
            self.pending = rest;
            ready.sort_by_key(|tx| tx.arrival_at_miner_ms);
            // Shuffle runs of equal arrival times.
            let mut i = 0;
            while i < ready.len() {
                let mut j = i + 1;
                while j < ready.len()
                    && ready[j].arrival_at_miner_ms == ready[i].arrival_at_miner_ms
                {
                    j += 1;
                }
                for k in (i + 1..j).rev() {
                    let swap_with = i + (self.next_rand() as usize) % (k - i + 1);
                    ready.swap(k, swap_with);
                }
                i = j;
            }
            let block = ModelBlock {
                number: self.blocks.len() as u64 + 1,
                produced_ms: produced,
                txs: ready.into_iter().map(|tx| tx.label).collect(),
            };
            for node in 0..self.nodes {
                let d = self.delay();
                self.block_arrival[node].push(produced + d);
            }
            self.blocks.push(block);
        }
        self.now_ms = self.now_ms.max(t_ms);
    }

    /// All blocks mined so far (consensus order).
    pub fn blocks(&self) -> &[ModelBlock] {
        &self.blocks
    }

    /// Transactions visible to `node` at `t_ms` (blocks received by then),
    /// in consensus order.
    pub fn node_view(&self, node: usize, t_ms: u64) -> Vec<String> {
        self.view_impl(node, t_ms, false)
    }

    /// Transactions *finalized* for `node` at `t_ms`: the block is received
    /// and at least `F` blocks (including it) have been produced by `t_ms`.
    pub fn finalized_view(&self, node: usize, t_ms: u64) -> Vec<String> {
        self.view_impl(node, t_ms, true)
    }

    fn view_impl(&self, node: usize, t_ms: u64, finalized_only: bool) -> Vec<String> {
        assert!(node < self.nodes, "node {node} out of range");
        let produced_by_t = self.blocks.iter().filter(|b| b.produced_ms <= t_ms).count() as u64;
        let mut out = Vec::new();
        for (idx, block) in self.blocks.iter().enumerate() {
            if self.block_arrival[node][idx] > t_ms {
                continue;
            }
            if finalized_only {
                // F blocks counted inclusive of the one containing the tx.
                let depth = produced_by_t.saturating_sub(block.number) + 1;
                if depth < self.config.finality_depth {
                    continue;
                }
            }
            out.extend(block.txs.iter().cloned());
        }
        out
    }

    /// The paper's worst-case visibility bound for a transaction submitted at
    /// `submit_ms`: `submit + Pt + F·B`.
    pub fn finality_bound_ms(&self, submit_ms: u64) -> u64 {
        submit_ms
            + self.config.propagation_ms
            + self.config.finality_depth * self.config.block_period_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ChainConfig {
        ChainConfig {
            block_period_ms: 1_000,
            finality_depth: 5,
            propagation_ms: 400,
            ..ChainConfig::default()
        }
    }

    #[test]
    fn tx_final_everywhere_within_paper_bound() {
        // Theorem 3.2/E.2 visibility component: submitted at t, final on all
        // nodes by t + Pt + F·B.
        for seed in 0..20 {
            let mut net = NetworkSim::new(5, config(), seed);
            let submit = 777;
            net.submit(2, submit, "tx");
            let bound = net.finality_bound_ms(submit);
            net.run_until(bound + 10_000);
            for node in 0..5 {
                assert!(
                    net.finalized_view(node, bound).contains(&"tx".to_string()),
                    "seed {seed} node {node}: tx not final by bound {bound}"
                );
            }
        }
    }

    #[test]
    fn concurrent_ordering_identical_across_nodes_after_finality() {
        // Theorem 3.1/E.1: order may vary by seed, but within one execution
        // every node sees the same order once both txs are final.
        let mut orders = std::collections::HashSet::new();
        for seed in 0..30 {
            let mut net = NetworkSim::new(4, config(), seed);
            net.submit(0, 100, "a");
            net.submit(3, 100, "b"); // concurrent with "a"
            let bound = net.finality_bound_ms(100);
            net.run_until(bound + 10_000);
            let reference = net.finalized_view(0, bound + 5_000);
            assert_eq!(reference.len(), 2);
            for node in 1..4 {
                assert_eq!(
                    net.finalized_view(node, bound + 5_000),
                    reference,
                    "seed {seed}: node {node} disagrees"
                );
            }
            orders.insert(reference);
        }
        // Non-determinism: across seeds both orders must occur.
        assert_eq!(orders.len(), 2, "expected both a<b and b<a orderings");
    }

    #[test]
    fn unfinalized_blocks_are_not_in_finalized_view() {
        let mut net = NetworkSim::new(2, config(), 1);
        net.submit(0, 0, "x");
        // Run long enough to mine the tx but not to finalize it (F=5 blocks).
        net.run_until(2_500);
        assert!(net.node_view(0, 2_500).contains(&"x".to_string()));
        assert!(net.finalized_view(0, 2_500).is_empty());
    }

    #[test]
    fn views_respect_block_arrival_delays() {
        let mut net = NetworkSim::new(3, config(), 9);
        net.submit(0, 0, "x");
        net.run_until(1_000);
        // At exactly production time, a node whose delay > 0 may not see it;
        // after Pt it must.
        let late = 1_000 + config().propagation_ms;
        for node in 0..3 {
            assert!(net.node_view(node, late).contains(&"x".to_string()));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        let net = NetworkSim::new(2, config(), 0);
        net.node_view(5, 0);
    }
}
