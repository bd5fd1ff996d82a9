//! The paper's consistency theorems (§3.4, Appendix E) at the transaction
//! level, on the one chain that stands for the whole network.
//!
//! The theorems speak of many nodes. This simulator runs one, and the
//! view every honest node converges on is its canonical branch up to
//! `Blockchain::confirmed_height`: "final on every node" reads "mined on
//! the canonical branch at or below the confirmation frontier", and "the
//! same order on every node" reads "the same order on a replica that
//! suffered reorgs as on one that did not". The tests run over latency
//! seeds × confirmation depth `F` ∈ {0, 3} × seeded reorgs off/on, with no
//! mempool cap (`B` the block period, `L` the latency's `max_delay_blocks`,
//! `Pt = (1 + L)·B`). `tests/consistency.rs` checks the same theorems for
//! GRuB's own `gPut` and `deliver`.

#![cfg(test)]

mod tests {
    use std::collections::{BTreeMap, BTreeSet};
    use std::rc::Rc;

    use grub_gas::Layer;

    use crate::contract::{CallContext, Contract, VmError};
    use crate::{Address, Blockchain, ChainConfig, Transaction, TxId};

    /// `L`: the most blocks the theorem chains' seeded latency holds a
    /// transaction back.
    const MAX_DELAY: u64 = 2;

    /// A contract whose every call succeeds and does nothing.
    struct Noop;

    impl Contract for Noop {
        fn call(
            &self,
            _ctx: &mut CallContext<'_>,
            _func: &str,
            _input: &[u8],
        ) -> Result<Vec<u8>, VmError> {
            Ok(Vec::new())
        }
    }

    /// Every chain the theorem tests run, as `(label, seed, config)`:
    /// latency seed × `F` ∈ {0, 3} × reorgs off, then on.
    fn theorem_chains() -> impl Iterator<Item = (String, u64, ChainConfig)> {
        (0..12u64).flat_map(|seed| {
            [0, 3].into_iter().flat_map(move |depth| {
                [false, true].into_iter().map(move |reorg| {
                    let mut config = ChainConfig::default()
                        .latency(seed, MAX_DELAY)
                        .confirm_depth(depth);
                    if reorg {
                        config = config.reorg(7, 3, 2);
                    }
                    (format!("seed={seed} F={depth} reorg={reorg}"), seed, config)
                })
            })
        })
    }

    /// A chain with a no-op contract deployed and a few empty blocks mined,
    /// so a reorg has canonical history to roll back.
    fn warmed_chain(config: ChainConfig) -> (Blockchain, Address) {
        let mut chain = Blockchain::with_config(config);
        let noop = Address::derive("noop");
        chain.deploy(noop, Rc::new(Noop), Layer::Application);
        for _ in 0..4 {
            chain.produce_block();
        }
        (chain, noop)
    }

    fn submit_noop(chain: &mut Blockchain, noop: Address) -> TxId {
        let user = Address::derive("user");
        chain.submit(Transaction::new(
            user,
            noop,
            "ping",
            Vec::new(),
            Layer::User,
        ))
    }

    /// The canonical heights `id` mined at, one per receipt.
    fn canonical_heights(chain: &Blockchain, id: TxId) -> Vec<u64> {
        chain
            .blocks()
            .iter()
            .flat_map(|b| b.receipts.iter().map(move |r| (b.number, r.tx_id)))
            .filter(|(_, tx)| *tx == id)
            .map(|(height, _)| height)
            .collect()
    }

    /// Theorem 3.2 / E.2 — a transaction submitted at height `h` (time `t`)
    /// mines once, by height `h + 1 + L`, and the block that confirms it is
    /// stamped no later than `t + Pt + F·B`.
    #[test]
    fn tx_final_everywhere_within_paper_bound() {
        for (label, _, config) in theorem_chains() {
            let (mut chain, noop) = warmed_chain(config);
            // (id, height and time at submission, time of the confirming block)
            let mut txs: Vec<(TxId, u64, u64, Option<u64>)> = Vec::new();
            while txs.len() < 8 || txs.iter().any(|tx| tx.3.is_none()) {
                assert!(
                    chain.height() < 64,
                    "{label}: a transaction never confirmed"
                );
                if txs.len() < 8 {
                    let id = submit_noop(&mut chain, noop);
                    txs.push((id, chain.height(), chain.now_ms(), None));
                }
                let tip_ms = chain.produce_block().time_ms;
                for tx in txs.iter_mut().filter(|tx| tx.3.is_none()) {
                    let mined = canonical_heights(&chain, tx.0);
                    if mined
                        .first()
                        .is_some_and(|&h| h <= chain.confirmed_height())
                    {
                        tx.3 = Some(tip_ms);
                    }
                }
            }
            let period = config.block_period_ms;
            for (id, height, time, confirmed_ms) in txs {
                let mined = canonical_heights(&chain, id);
                assert_eq!(mined.len(), 1, "{label}: {id:?} mined at {mined:?}");
                assert!(
                    mined[0] <= height + 1 + MAX_DELAY,
                    "{label}: {id:?} submitted at height {height} mined at {}",
                    mined[0]
                );
                let bound = time + (1 + MAX_DELAY) * period + config.confirm_depth * period;
                assert!(
                    confirmed_ms.is_some_and(|ms| ms <= bound),
                    "{label}: {id:?} submitted at {time} ms confirmed at {confirmed_ms:?} ms, \
                     past t + Pt + F·B = {bound} ms"
                );
            }
        }
    }

    /// A mined transaction stays out of the confirmed view until `F` more
    /// blocks bury it.
    #[test]
    fn unfinalized_blocks_are_not_in_finalized_view() {
        let (mut chain, noop) = warmed_chain(ChainConfig::default().confirm_depth(5));
        let id = submit_noop(&mut chain, noop);
        chain.produce_block();
        let mined = canonical_heights(&chain, id);
        assert_eq!(mined, vec![chain.height()]);
        for _ in 0..5 {
            assert!(
                mined[0] > chain.confirmed_height(),
                "height {} confirmed at tip {}",
                mined[0],
                chain.height()
            );
            chain.produce_block();
        }
        assert_eq!(chain.confirmed_height(), mined[0]);
    }

    /// Theorem 3.1 / E.1 — two transactions submitted in the same block
    /// mine in an order their seeded inclusion delays decide, both orders
    /// occur across seeds, and a reorged chain settles on exactly the order
    /// and `chain_digest` of the same seed's straight-line chain.
    #[test]
    fn concurrent_ordering_identical_across_nodes_after_finality() {
        let mut straight = BTreeMap::new();
        let mut orders = BTreeSet::new();
        let mut pairs_rolled_back = 0;
        for (label, seed, config) in theorem_chains() {
            let (mut chain, noop) = warmed_chain(config);
            let pair = [submit_noop(&mut chain, noop), submit_noop(&mut chain, noop)];
            for _ in 0..(1 + MAX_DELAY + config.confirm_depth + 3) {
                chain.produce_block();
            }
            let settled: Vec<TxId> = chain
                .blocks()
                .iter()
                .flat_map(|b| b.receipts.iter().map(|r| r.tx_id))
                .filter(|id| pair.contains(id))
                .collect();
            assert_eq!(settled.len(), 2, "{label}: settled {settled:?}");
            for id in pair {
                let mined = canonical_heights(&chain, id);
                assert!(
                    mined[0] <= chain.confirmed_height(),
                    "{label}: {id:?} at height {} is not confirmed",
                    mined[0]
                );
            }
            let run = (settled, chain.chain_digest());
            if config.reorg.is_none() {
                orders.insert(run.0.iter().map(|id| id.0 - pair[0].0).collect::<Vec<_>>());
                straight.insert((seed, config.confirm_depth), run);
                continue;
            }
            let rolled_back = |id: &TxId| {
                chain
                    .reorg_events()
                    .iter()
                    .any(|event| event.abandoned.contains(id))
            };
            if pair.iter().all(rolled_back) {
                pairs_rolled_back += 1;
            }
            let want = &straight[&(seed, config.confirm_depth)];
            assert_eq!(run.0, want.0, "{label}: a reorg changed the settled order");
            assert_eq!(run.1, want.1, "{label}: a reorg changed the chain digest");
        }
        assert_eq!(
            orders.len(),
            2,
            "both orders of a same-block pair must occur across seeds: {orders:?}"
        );
        assert!(
            pairs_rolled_back > 0,
            "no reorg rolled back both transactions of a pair — the net tested nothing"
        );
    }
}
