//! The on-chain shard router: one transaction, many feeds' `update()`s.

use grub_chain::codec::{decode_sections, Encoder};
use grub_chain::Address;
use grub_chain::{CallContext, Contract, VmError};

/// A shard's batching contract.
///
/// Both entry points take the [`encode_sections`] framing — a list of
/// `(storage manager address, payload)` pairs — and forward each payload to
/// its manager as an internal call. Internal calls pay no transaction
/// envelope, so the shard's feeds share a single `Ctx` base cost; every
/// storage write, digest update, and proof verification is still executed
/// (and metered) by the target manager exactly as an unbatched call would.
///
/// * `batchUpdate(sections)` forwards each section to its manager's
///   `update()` — the write path (DO epoch updates).
/// * `batchDeliver(sections)` forwards each section to its manager's
///   `deliver()` — the read path (SP proof-carrying deliveries), coalescing
///   what would otherwise be one `deliver` transaction per feed per epoch.
///
/// Only the shard operator account configured at deploy time may call
/// either; each target manager additionally enforces its own authorization
/// on `update()` (the router must be registered as that manager's update
/// delegate), so a compromised router cannot write feeds outside its shard.
/// `deliver()` needs no caller check — it only accepts payloads that verify
/// against the manager's own root digest.
///
/// Malformed section framing (truncated payloads, forged section counts) is
/// rejected by [`decode_sections`] with a typed [`VmError::Decode`], which
/// reverts the batch atomically; nothing panics.
///
/// [`encode_sections`]: grub_chain::codec::encode_sections
/// [`decode_sections`]: grub_chain::codec::decode_sections
#[derive(Debug)]
pub struct ShardRouter {
    operator: Address,
}

impl ShardRouter {
    /// A router accepting batches only from `operator`.
    pub fn new(operator: Address) -> Self {
        ShardRouter { operator }
    }

    /// Decodes and forwards one batch, invoking `func` on every section's
    /// manager.
    fn forward_batch(
        &self,
        ctx: &mut CallContext<'_>,
        func: &str,
        input: &[u8],
    ) -> Result<Vec<u8>, VmError> {
        if ctx.caller != self.operator {
            return Err(VmError::Unauthorized);
        }
        let sections = decode_sections(input)?;
        if sections.is_empty() {
            return Err(VmError::Revert(format!("empty {func} batch")));
        }
        for (manager, payload) in &sections {
            ctx.call(*manager, func, payload)?;
        }
        let mut out = Encoder::new();
        out.u64(sections.len() as u64);
        Ok(out.finish())
    }
}

impl Contract for ShardRouter {
    fn call(
        &self,
        ctx: &mut CallContext<'_>,
        func: &str,
        input: &[u8],
    ) -> Result<Vec<u8>, VmError> {
        match func {
            "batchUpdate" => self.forward_batch(ctx, "update", input),
            "batchDeliver" => self.forward_batch(ctx, "deliver", input),
            _ => Err(VmError::UnknownFunction(func.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grub_chain::codec::{encode_sections, Decoder};
    use grub_chain::{Blockchain, Transaction};
    use grub_core::contract::OnChainTrace;
    use grub_core::contract::{encode_update, StorageManager};
    use grub_gas::Layer;
    use grub_merkle::MerkleKv;
    use std::rc::Rc;

    #[test]
    fn router_forwards_sections_and_rejects_strangers() {
        let mut chain = Blockchain::new();
        let operator = Address::derive("shard-op");
        let router = Address::derive("shard-router");
        let do_a = Address::derive("do-a");
        let mgr_a = Address::derive("mgr-a");
        chain.deploy(router, Rc::new(ShardRouter::new(operator)), Layer::Feed);
        chain.deploy(
            mgr_a,
            Rc::new(StorageManager::with_delegate(
                do_a,
                router,
                OnChainTrace::None,
            )),
            Layer::Feed,
        );
        let digest = MerkleKv::new().root();
        let payload = encode_update(&digest, &[], &[], &[]);
        let batch = encode_sections(&[(mgr_a, payload.clone())]);

        // A stranger's batch reverts.
        chain.submit(Transaction::new(
            Address::derive("mallory"),
            router,
            "batchUpdate",
            batch.clone(),
            Layer::Feed,
        ));
        assert!(!chain.produce_block().receipts[0].success);

        // The operator's batch lands and reports the section count.
        chain.submit(Transaction::new(
            operator,
            router,
            "batchUpdate",
            batch,
            Layer::Feed,
        ));
        let block = chain.produce_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        let mut dec = Decoder::new(&block.receipts[0].output);
        assert_eq!(dec.u64().expect("batchUpdate returns the section count"), 1);

        // A batch naming a manager that does not trust the router reverts
        // atomically (manager-side authorization).
        let mgr_b = Address::derive("mgr-b");
        chain.deploy(
            mgr_b,
            Rc::new(StorageManager::new(
                Address::derive("do-b"),
                OnChainTrace::None,
            )),
            Layer::Feed,
        );
        let batch = encode_sections(&[(mgr_b, encode_update(&digest, &[], &[], &[]))]);
        chain.submit(Transaction::new(
            operator,
            router,
            "batchUpdate",
            batch,
            Layer::Feed,
        ));
        assert!(!chain.produce_block().receipts[0].success);
    }

    #[test]
    fn empty_batch_reverts() {
        let mut chain = Blockchain::new();
        let operator = Address::derive("shard-op");
        let router = Address::derive("shard-router");
        chain.deploy(router, Rc::new(ShardRouter::new(operator)), Layer::Feed);
        for func in ["batchUpdate", "batchDeliver"] {
            chain.submit(Transaction::new(
                operator,
                router,
                func,
                encode_sections(&[]),
                Layer::Feed,
            ));
            assert!(!chain.produce_block().receipts[0].success);
        }
    }

    /// A stand-in manager whose `deliver` just counts invocations, so the
    /// forwarding test does not need the full proof machinery.
    struct DeliverSink;

    impl Contract for DeliverSink {
        fn call(
            &self,
            ctx: &mut CallContext<'_>,
            func: &str,
            _input: &[u8],
        ) -> Result<Vec<u8>, VmError> {
            match func {
                "deliver" => {
                    let n = ctx.sload_u64(b"delivered").unwrap_or(0);
                    ctx.sstore_u64(b"delivered", n + 1);
                    Ok(Vec::new())
                }
                "count" => {
                    let n = ctx.sload_u64(b"delivered").unwrap_or(0);
                    let mut out = Encoder::new();
                    out.u64(n);
                    Ok(out.finish())
                }
                _ => Err(VmError::UnknownFunction(func.to_owned())),
            }
        }
    }

    #[test]
    fn router_forwards_deliver_sections_to_each_manager() {
        let mut chain = Blockchain::new();
        let operator = Address::derive("shard-op");
        let router = Address::derive("shard-router");
        let sink_a = Address::derive("sink-a");
        let sink_b = Address::derive("sink-b");
        chain.deploy(router, Rc::new(ShardRouter::new(operator)), Layer::Feed);
        chain.deploy(sink_a, Rc::new(DeliverSink), Layer::Feed);
        chain.deploy(sink_b, Rc::new(DeliverSink), Layer::Feed);
        let batch = encode_sections(&[
            (sink_a, b"payload-1".to_vec()),
            (sink_b, b"payload-2".to_vec()),
            (sink_a, b"payload-3".to_vec()),
        ]);

        // A stranger's deliver batch reverts.
        chain.submit(Transaction::new(
            Address::derive("mallory"),
            router,
            "batchDeliver",
            batch.clone(),
            Layer::Feed,
        ));
        assert!(!chain.produce_block().receipts[0].success);

        // The operator's batch fans out one internal deliver per section.
        chain.submit(Transaction::new(
            operator,
            router,
            "batchDeliver",
            batch,
            Layer::Feed,
        ));
        let block = chain.produce_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        let count = |sink| {
            let out = chain
                .static_call(operator, sink, "count", &[])
                .expect("count view");
            Decoder::new(&out).u64().expect("count output")
        };
        assert_eq!(count(sink_a), 2);
        assert_eq!(count(sink_b), 1);
    }

    #[test]
    fn malformed_batch_payloads_revert_without_panic() {
        let mut chain = Blockchain::new();
        let operator = Address::derive("shard-op");
        let router = Address::derive("shard-router");
        chain.deploy(router, Rc::new(ShardRouter::new(operator)), Layer::Feed);
        let honest = encode_sections(&[(Address::derive("m"), b"payload".to_vec())]);
        let truncated = honest[..honest.len() - 3].to_vec();
        let forged_count = {
            let mut enc = Encoder::new();
            enc.u64(u64::MAX);
            enc.finish()
        };
        let oversized_claim = {
            // In-bound count, but the sections cannot possibly fit.
            let mut enc = Encoder::new();
            enc.u64(1000).bytes(b"junk");
            enc.finish()
        };
        for func in ["batchUpdate", "batchDeliver"] {
            for payload in [
                truncated.clone(),
                forged_count.clone(),
                oversized_claim.clone(),
            ] {
                chain.submit(Transaction::new(
                    operator,
                    router,
                    func,
                    payload,
                    Layer::Feed,
                ));
                let block = chain.produce_block();
                assert!(!block.receipts[0].success, "{func} must reject");
                let err = block.receipts[0].error.as_deref().unwrap_or_default();
                assert!(
                    err.contains("decode") || err.contains("truncated") || err.contains("bound"),
                    "{func} error must be a typed decode error, got: {err}"
                );
            }
        }
    }
}
