//! A Bitcoin-pegged ERC-20 token over a BtcRelay-style side-chain feed
//! (paper §4.2).
//!
//! The data owner relays Bitcoin block headers into a GRuB feed under keys
//! `blk%08d`. The [`PeggedToken`] contract mints tokens when a Bitcoin
//! deposit transaction is proven:
//!
//! 1. `mint(beneficiary, amount, height, txid, spvProof)` records a pending
//!    request and asks the feed for header `height`;
//! 2. each `onHeader` callback verifies the arriving header — the SPV
//!    Merkle proof for the deposit block, hash-chain linkage for the
//!    confirmations — and requests the next header;
//! 3. after [`CONFIRMATIONS`] linked headers the tokens are minted.
//!
//! `burn` runs the same verification for a Bitcoin redeem transaction before
//! destroying tokens. When headers are replicated on chain the whole
//! confirmation walk completes synchronously inside the `mint` transaction;
//! when they are not, each step costs one `request`/`deliver` round trip —
//! exactly the Gas trade-off GRuB's adaptive replication navigates in the
//! paper's Figure 6.

use grub_chain::codec::{Decoder, Encoder};
use grub_chain::{Address, CallContext, Contract, VmError};
use grub_crypto::Hash32;

use crate::bitcoin::{BlockHeader, SpvProof};
use crate::erc20;

/// Confirmation depth, as in BtcRelay-based tokens.
pub const CONFIRMATIONS: u64 = 6;

/// Feed key for a Bitcoin block height.
pub fn block_key(height: u64) -> Vec<u8> {
    format!("blk{height:08}").into_bytes()
}

/// Parses a feed key back into a height.
pub fn parse_block_key(key: &[u8]) -> Option<u64> {
    let s = std::str::from_utf8(key).ok()?;
    s.strip_prefix("blk")?.parse().ok()
}

/// Encodes an [`SpvProof`] for calldata.
pub fn encode_spv(enc: &mut Encoder, proof: &SpvProof) {
    enc.u64(proof.siblings.len() as u64);
    for (sibling, left) in proof.siblings.iter().zip(&proof.lefts) {
        enc.hash(sibling);
        enc.boolean(*left);
    }
}

/// Decodes an [`SpvProof`] from calldata.
///
/// # Errors
///
/// [`VmError::Decode`] on truncated input.
pub fn decode_spv(dec: &mut Decoder<'_>) -> Result<SpvProof, VmError> {
    let n = dec.u64()? as usize;
    if n > 10_000 {
        return Err(VmError::Decode("absurd SPV proof".into()));
    }
    let mut siblings = Vec::with_capacity(n);
    let mut lefts = Vec::with_capacity(n);
    for _ in 0..n {
        siblings.push(dec.hash()?);
        lefts.push(dec.boolean()?);
    }
    Ok(SpvProof { siblings, lefts })
}

/// The Bitcoin-pegged token's minting contract.
#[derive(Debug)]
pub struct PeggedToken {
    manager: Address,
    token: Address,
}

impl PeggedToken {
    /// Binds to the storage manager (the header feed) and the ERC-20 token.
    pub fn new(manager: Address, token: Address) -> Self {
        PeggedToken { manager, token }
    }

    fn pending_slot(txid: &Hash32) -> Vec<u8> {
        let mut out = b"pend:".to_vec();
        out.extend_from_slice(txid.as_bytes());
        out
    }

    fn request_header(
        ctx: &mut CallContext<'_>,
        manager: Address,
        height: u64,
    ) -> Result<(), VmError> {
        let payload = grub_core::contract::encode_gget(&block_key(height), ctx.this, "onHeader");
        ctx.call(manager, "gGet", &payload)?;
        Ok(())
    }

    fn start(
        &self,
        ctx: &mut CallContext<'_>,
        input: &[u8],
        is_burn: bool,
    ) -> Result<Vec<u8>, VmError> {
        let mut dec = Decoder::new(input);
        let account = dec.address()?;
        let amount = dec.u64()?;
        let height = dec.u64()?;
        let txid = dec.hash()?;
        let proof = decode_spv(&mut dec)?;
        if amount == 0 {
            return Err(VmError::Revert("zero amount".into()));
        }
        // Persist the pending verification walk.
        let mut enc = Encoder::new();
        enc.address(&account)
            .u64(amount)
            .u64(height)
            .u64(0) // confirmations so far
            .hash(&Hash32::ZERO) // expected block hash (unknown yet)
            .boolean(is_burn);
        encode_spv(&mut enc, &proof);
        ctx.sstore(&Self::pending_slot(&txid), &enc.finish());
        // Track the txid under the height so onHeader can find it.
        let mut ids = ctx.sload(b"pending-ids").unwrap_or_default();
        ids.extend_from_slice(txid.as_bytes());
        ctx.sstore(b"pending-ids", &ids);
        Self::request_header(ctx, self.manager, height)?;
        Ok(Vec::new())
    }

    /// Processes one delivered header for one pending request. Returns
    /// whether the request completed (minted/burned or failed permanently).
    fn advance(
        &self,
        ctx: &mut CallContext<'_>,
        txid: Hash32,
        header_height: u64,
        header: &BlockHeader,
    ) -> Result<bool, VmError> {
        let slot = Self::pending_slot(&txid);
        let Some(entry) = ctx.sload(&slot) else {
            return Ok(false);
        };
        let mut dec = Decoder::new(&entry);
        let account = dec.address()?;
        let amount = dec.u64()?;
        let deposit_height = dec.u64()?;
        let confirmed = dec.u64()?;
        let expected = dec.hash()?;
        let is_burn = dec.boolean()?;
        let proof = decode_spv(&mut dec)?;
        // Only the next height in the walk advances this request.
        if header_height != deposit_height + confirmed {
            return Ok(false);
        }
        if confirmed == 0 {
            // The deposit block itself: check SPV inclusion.
            if !proof.verify(&txid, header) {
                ctx.sdelete(&slot);
                return Err(VmError::Revert("SPV proof rejected".into()));
            }
        } else if header.prev_hash != expected {
            // A confirmation block must extend the previous one.
            ctx.sdelete(&slot);
            return Err(VmError::Revert("confirmation chain broken".into()));
        }
        let confirmed = confirmed + 1;
        if confirmed >= CONFIRMATIONS {
            ctx.sdelete(&slot);
            let action = if is_burn { "burn" } else { "mint" };
            ctx.call(
                self.token,
                action,
                &erc20::encode_addr_amount(account, amount),
            )?;
            return Ok(true);
        }
        // Persist progress and ask for the next header.
        let mut enc = Encoder::new();
        enc.address(&account)
            .u64(amount)
            .u64(deposit_height)
            .u64(confirmed)
            .hash(&header.block_hash())
            .boolean(is_burn);
        encode_spv(&mut enc, &proof);
        ctx.sstore(&slot, &enc.finish());
        Self::request_header(ctx, self.manager, deposit_height + confirmed)?;
        Ok(false)
    }
}

impl Contract for PeggedToken {
    fn call(
        &self,
        ctx: &mut CallContext<'_>,
        func: &str,
        input: &[u8],
    ) -> Result<Vec<u8>, VmError> {
        match func {
            "mint" => self.start(ctx, input, false),
            "burn" => self.start(ctx, input, true),
            // onHeader(context, n, (key, value)...)
            "onHeader" => {
                let mut dec = Decoder::new(input);
                let _context = dec.bytes()?;
                let n = dec.u64()?;
                if n == 0 {
                    return Ok(Vec::new()); // header not fed yet
                }
                let key = dec.bytes()?.to_vec();
                let value = dec.bytes()?.to_vec();
                let Some(height) = parse_block_key(&key) else {
                    return Ok(Vec::new());
                };
                let Some(header) = BlockHeader::from_bytes(&value) else {
                    return Err(VmError::Revert("malformed header in feed".into()));
                };
                // Walk every pending request; completed ones are removed
                // from the id list.
                let ids = ctx.sload(b"pending-ids").unwrap_or_default();
                let mut keep = Vec::new();
                for chunk in ids.chunks(32) {
                    let mut txid = [0u8; 32];
                    txid.copy_from_slice(chunk);
                    let txid = Hash32::new(txid);
                    let done = self.advance(ctx, txid, height, &header)?;
                    if !done && ctx.sload(&Self::pending_slot(&txid)).is_some() {
                        keep.extend_from_slice(txid.as_bytes());
                    }
                }
                ctx.sstore(b"pending-ids", &keep);
                Ok(Vec::new())
            }
            _ => Err(VmError::UnknownFunction(func.to_owned())),
        }
    }
}

/// Encodes a `mint`/`burn` input.
pub fn encode_mint(
    account: Address,
    amount: u64,
    height: u64,
    txid: &Hash32,
    proof: &SpvProof,
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.address(&account).u64(amount).u64(height).hash(txid);
    encode_spv(&mut enc, proof);
    enc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitcoin::BitcoinSim;
    use crate::erc20::Erc20;
    use grub_chain::{Blockchain, Transaction};
    use grub_core::contract::{encode_update, OnChainTrace, StorageManager};
    use grub_gas::Layer;
    use grub_merkle::{record_value_hash, MerkleKv, ProofKey, ReplState};
    use std::rc::Rc;

    struct Fx {
        chain: Blockchain,
        btc: BitcoinSim,
        relay: Address,
        token: Address,
        user: Address,
    }

    /// Boots the stack and feeds `blocks` Bitcoin headers, replicated so the
    /// confirmation walk runs synchronously.
    fn setup(blocks: usize) -> Fx {
        let mut chain = Blockchain::new();
        let do_addr = Address::derive("DO");
        let mgr = Address::derive("mgr");
        let relay = Address::derive("pegged");
        let token = Address::derive("wbtc");
        chain.deploy(
            mgr,
            Rc::new(StorageManager::new(do_addr, OnChainTrace::None)),
            Layer::Feed,
        );
        chain.deploy(
            relay,
            Rc::new(PeggedToken::new(mgr, token)),
            Layer::Application,
        );
        chain.deploy(token, Rc::new(Erc20::new(relay)), Layer::Application);
        let mut btc = BitcoinSim::new(42);
        let mut tree = MerkleKv::new();
        let mut to_r = Vec::new();
        for h in 0..blocks {
            btc.mine_block(3);
            let bytes = btc.header(h).unwrap().to_bytes().to_vec();
            tree.insert(
                ProofKey::new(ReplState::Replicated, block_key(h as u64)),
                record_value_hash(&bytes),
            );
            to_r.push((block_key(h as u64), bytes));
        }
        let input = encode_update(&tree.root(), &[], &to_r, &[]);
        chain.submit(Transaction::new(do_addr, mgr, "update", input, Layer::Feed));
        assert!(chain.produce_block().receipts[0].success);
        Fx {
            chain,
            btc,
            relay,
            token,
            user: Address::derive("user"),
        }
    }

    fn balance(fx: &Fx, addr: Address) -> u64 {
        let mut enc = Encoder::new();
        enc.address(&addr);
        let out = fx
            .chain
            .static_call(addr, fx.token, "balanceOf", &enc.finish())
            .unwrap();
        Decoder::new(&out).u64().unwrap()
    }

    #[test]
    fn deposit_with_six_confirmations_mints() {
        let mut fx = setup(10);
        let (txid, proof) = fx.btc.spv_proof(2, 1).unwrap();
        let user = fx.user;
        fx.chain.submit(Transaction::new(
            user,
            fx.relay,
            "mint",
            encode_mint(user, 500, 2, &txid, &proof),
            Layer::User,
        ));
        let block = fx.chain.produce_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        assert_eq!(balance(&fx, user), 500, "walk completes synchronously");
    }

    #[test]
    fn bad_spv_proof_rejects_mint() {
        let mut fx = setup(10);
        let (_, proof) = fx.btc.spv_proof(2, 1).unwrap();
        let forged_txid = grub_crypto::sha256(b"not a real deposit");
        let user = fx.user;
        fx.chain.submit(Transaction::new(
            user,
            fx.relay,
            "mint",
            encode_mint(user, 500, 2, &forged_txid, &proof),
            Layer::User,
        ));
        let block = fx.chain.produce_block();
        assert!(!block.receipts[0].success);
        assert_eq!(balance(&fx, user), 0);
    }

    #[test]
    fn insufficient_confirmations_stay_pending() {
        // Only 4 blocks exist after the deposit block: the walk stalls at
        // the missing header and no tokens are minted.
        let mut fx = setup(5);
        let (txid, proof) = fx.btc.spv_proof(0, 0).unwrap();
        let user = fx.user;
        fx.chain.submit(Transaction::new(
            user,
            fx.relay,
            "mint",
            encode_mint(user, 100, 0, &txid, &proof),
            Layer::User,
        ));
        let block = fx.chain.produce_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        assert_eq!(balance(&fx, user), 0, "needs 6 confirmations, has 5");
        // A Request event for the missing header was emitted.
        let mgr = Address::derive("mgr");
        assert!(!fx.chain.events_since(0, mgr, "Request").is_empty());
    }

    #[test]
    fn burn_destroys_previously_minted_tokens() {
        let mut fx = setup(12);
        let user = fx.user;
        let (txid, proof) = fx.btc.spv_proof(1, 0).unwrap();
        fx.chain.submit(Transaction::new(
            user,
            fx.relay,
            "mint",
            encode_mint(user, 300, 1, &txid, &proof),
            Layer::User,
        ));
        fx.chain.produce_block();
        assert_eq!(balance(&fx, user), 300);
        // Redeem proven by a different Bitcoin transaction.
        let (redeem_txid, redeem_proof) = fx.btc.spv_proof(3, 2).unwrap();
        fx.chain.submit(Transaction::new(
            user,
            fx.relay,
            "burn",
            encode_mint(user, 300, 3, &redeem_txid, &redeem_proof),
            Layer::User,
        ));
        let block = fx.chain.produce_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        assert_eq!(balance(&fx, user), 0);
    }

    #[test]
    fn block_key_round_trip() {
        assert_eq!(parse_block_key(&block_key(1234)), Some(1234));
        assert_eq!(parse_block_key(b"nope"), None);
    }
}
