//! SCoin: a minimalist MakerDAO-style stablecoin on a GRuB price feed
//! (paper §4.1).
//!
//! `SCoinIssuer` controls the supply of an [`crate::erc20::Erc20`] token so
//! that each SCoin is pegged to one USD worth of Ether:
//!
//! * `issue(buyer, eth_milli)` — the buyer locks Ether (modelled as an
//!   amount argument; the simulator has no native value transfers) and
//!   receives `eth · price` SCoins;
//! * `redeem(seller, scoins)` — burns SCoins and releases the equivalent
//!   Ether at the current price;
//! * both operations need the **current** Ether price, which the issuer
//!   reads from the GRuB feed with `gGet(ETH-USD, onPrice)`. On a replica
//!   hit the callback runs synchronously; on a miss it runs when the SP's
//!   `deliver` lands — so pending operations are queued in contract storage,
//!   exactly the kind of application state the paper's Table 3 accounts to
//!   the application layer.
//!
//! Over-collateralization: issuance locks 150% of the nominal Ether value,
//! following the MakerDAO-style working example the paper cites \[37\].

use grub_chain::codec::{Decoder, Encoder};
use grub_chain::{Address, CallContext, Contract, VmError};

use crate::erc20;

/// Collateral ratio in percent (150% as in the paper's working example).
pub const COLLATERAL_PCT: u64 = 150;

/// The feed key carrying the Ether price.
pub const ETH_PRICE_KEY: &[u8] = b"ETH-USD";

/// The SCoin issuer contract.
#[derive(Debug)]
pub struct SCoinIssuer {
    manager: Address,
    token: Address,
}

impl SCoinIssuer {
    /// Binds the issuer to a storage manager (the feed) and a token.
    pub fn new(manager: Address, token: Address) -> Self {
        SCoinIssuer { manager, token }
    }

    fn queue_push(ctx: &mut CallContext<'_>, kind: u8, account: Address, amount: u64) {
        let tail = ctx.sload_u64(b"q:tail").unwrap_or(0);
        let mut enc = Encoder::new();
        enc.boolean(kind == 1).address(&account).u64(amount);
        ctx.sstore(&slot(b"q:", tail), &enc.finish());
        ctx.sstore_u64(b"q:tail", tail + 1);
    }

    fn request_price(ctx: &mut CallContext<'_>, manager: Address) -> Result<(), VmError> {
        let payload = grub_core::contract::encode_gget(ETH_PRICE_KEY, ctx.this, "onPrice");
        ctx.call(manager, "gGet", &payload)?;
        Ok(())
    }

    /// Parses the price (milli-USD per ETH) from the feed record: the first
    /// eight bytes, little-endian, clamped to at least 1.
    pub fn parse_price(record: &[u8]) -> u64 {
        let mut bytes = [0u8; 8];
        let n = record.len().min(8);
        bytes[..n].copy_from_slice(&record[..n]);
        (u64::from_le_bytes(bytes) % 1_000_000).max(1)
    }
}

fn slot(prefix: &[u8], index: u64) -> Vec<u8> {
    let mut out = prefix.to_vec();
    out.extend_from_slice(&index.to_le_bytes());
    out
}

impl Contract for SCoinIssuer {
    fn call(
        &self,
        ctx: &mut CallContext<'_>,
        func: &str,
        input: &[u8],
    ) -> Result<Vec<u8>, VmError> {
        let mut dec = Decoder::new(input);
        match func {
            // issue(buyer, eth_milli): queue and ask the feed for the price.
            "issue" => {
                let buyer = dec.address()?;
                let eth_milli = dec.u64()?;
                if eth_milli == 0 {
                    return Err(VmError::Revert("zero issuance".into()));
                }
                Self::queue_push(ctx, 0, buyer, eth_milli);
                Self::request_price(ctx, self.manager)?;
                Ok(Vec::new())
            }
            // redeem(seller, scoins): queue and ask the feed for the price.
            "redeem" => {
                let seller = dec.address()?;
                let scoins = dec.u64()?;
                if scoins == 0 {
                    return Err(VmError::Revert("zero redemption".into()));
                }
                Self::queue_push(ctx, 1, seller, scoins);
                Self::request_price(ctx, self.manager)?;
                Ok(Vec::new())
            }
            // onPrice(context, n, (key, value)...): the gGet/deliver callback.
            "onPrice" => {
                let _context = dec.bytes()?;
                let n = dec.u64()?;
                if n == 0 {
                    // Price missing: leave the queue pending for the next
                    // delivery.
                    return Ok(Vec::new());
                }
                let _key = dec.bytes()?;
                let value = dec.bytes()?;
                let price_milli = Self::parse_price(value);
                // Drain the pending queue at this price.
                let head = ctx.sload_u64(b"q:head").unwrap_or(0);
                let tail = ctx.sload_u64(b"q:tail").unwrap_or(0);
                for i in head..tail {
                    let entry = ctx
                        .sload(&slot(b"q:", i))
                        .ok_or_else(|| VmError::Revert("queue hole".into()))?;
                    let mut edec = Decoder::new(&entry);
                    let is_redeem = edec.boolean()?;
                    let account = edec.address()?;
                    let amount = edec.u64()?;
                    if is_redeem {
                        // Burn SCoins, release Ether: eth = scoins / price.
                        // A redemption exceeding the seller's balance is
                        // dropped rather than reverting the whole delivery —
                        // a revert would poison every other queued operation.
                        let mut q = Encoder::new();
                        q.address(&account);
                        let out = ctx.call(self.token, "balanceOf", &q.finish())?;
                        if Decoder::new(&out).u64()? < amount {
                            continue;
                        }
                        let eth_milli = amount * 1_000 / price_milli;
                        ctx.call(
                            self.token,
                            "burn",
                            &erc20::encode_addr_amount(account, amount),
                        )?;
                        let locked = ctx.sload_u64(b"locked").unwrap_or(0);
                        ctx.sstore_u64(b"locked", locked.saturating_sub(eth_milli));
                    } else {
                        // Mint: scoins = eth · price, with 150% of the
                        // nominal value locked as collateral.
                        let scoins = amount * price_milli / 1_000 * 100 / COLLATERAL_PCT;
                        if scoins == 0 {
                            continue;
                        }
                        ctx.call(
                            self.token,
                            "mint",
                            &erc20::encode_addr_amount(account, scoins),
                        )?;
                        let locked = ctx.sload_u64(b"locked").unwrap_or(0);
                        ctx.sstore_u64(b"locked", locked + amount);
                    }
                }
                ctx.sstore_u64(b"q:head", tail);
                Ok(Vec::new())
            }
            "lockedEth" => {
                let locked = ctx.sload_u64(b"locked").unwrap_or(0);
                let mut enc = Encoder::new();
                enc.u64(locked);
                Ok(enc.finish())
            }
            _ => Err(VmError::UnknownFunction(func.to_owned())),
        }
    }
}

/// Encodes the `issue`/`redeem` input.
pub fn encode_issue(account: Address, amount: u64) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.address(&account).u64(amount);
    enc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erc20::Erc20;
    use grub_chain::{Blockchain, Transaction};
    use grub_core::contract::{encode_update, OnChainTrace, StorageManager};
    use grub_gas::Layer;
    use grub_merkle::{record_value_hash, MerkleKv, ProofKey, ReplState};
    use std::rc::Rc;

    struct Fx {
        chain: Blockchain,
        issuer: Address,
        token: Address,
        do_addr: Address,
        buyer: Address,
    }

    /// Deploys the full stack with a replicated ETH price so `gGet` hits
    /// synchronously.
    fn setup(price_milli: u64) -> Fx {
        let mut chain = Blockchain::new();
        let do_addr = Address::derive("DO");
        let mgr = Address::derive("mgr");
        let issuer = Address::derive("issuer");
        let token = Address::derive("scoin");
        chain.deploy(
            mgr,
            Rc::new(StorageManager::new(do_addr, OnChainTrace::None)),
            Layer::Feed,
        );
        chain.deploy(
            issuer,
            Rc::new(SCoinIssuer::new(mgr, token)),
            Layer::Application,
        );
        chain.deploy(token, Rc::new(Erc20::new(issuer)), Layer::Application);
        // Feed the price, replicated.
        let mut tree = MerkleKv::new();
        let mut value = vec![0u8; 32];
        value[..8].copy_from_slice(&price_milli.to_le_bytes());
        tree.insert(
            ProofKey::new(ReplState::Replicated, ETH_PRICE_KEY.to_vec()),
            record_value_hash(&value),
        );
        let input = encode_update(&tree.root(), &[], &[(ETH_PRICE_KEY.to_vec(), value)], &[]);
        chain.submit(Transaction::new(do_addr, mgr, "update", input, Layer::Feed));
        assert!(chain.produce_block().receipts[0].success);
        Fx {
            chain,
            issuer,
            token,
            do_addr,
            buyer: Address::derive("buyer"),
        }
    }

    fn token_balance(fx: &Fx, addr: Address) -> u64 {
        let mut enc = Encoder::new();
        enc.address(&addr);
        let out = fx
            .chain
            .static_call(addr, fx.token, "balanceOf", &enc.finish())
            .unwrap();
        Decoder::new(&out).u64().unwrap()
    }

    #[test]
    fn issue_mints_at_the_fed_price() {
        // Price: 150 USD = 150_000 milli.
        let mut fx = setup(150_000);
        let buyer = fx.buyer;
        // Lock 2 ETH (2000 milli-ETH).
        fx.chain.submit(Transaction::new(
            buyer,
            fx.issuer,
            "issue",
            encode_issue(buyer, 2_000),
            Layer::User,
        ));
        let block = fx.chain.produce_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        // 2 ETH × $150 = $300 → at 150% collateral: 200 SCoin, i.e.
        // 200_000 milli-SCoin (all amounts are in milli units).
        assert_eq!(token_balance(&fx, buyer), 200_000);
    }

    #[test]
    fn redeem_burns_and_releases_collateral() {
        let mut fx = setup(150_000);
        let buyer = fx.buyer;
        fx.chain.submit(Transaction::new(
            buyer,
            fx.issuer,
            "issue",
            encode_issue(buyer, 3_000),
            Layer::User,
        ));
        fx.chain.produce_block();
        let minted = token_balance(&fx, buyer);
        assert!(minted > 0);
        fx.chain.submit(Transaction::new(
            buyer,
            fx.issuer,
            "redeem",
            encode_issue(buyer, minted),
            Layer::User,
        ));
        let block = fx.chain.produce_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        assert_eq!(token_balance(&fx, buyer), 0);
    }

    #[test]
    fn zero_issue_reverts() {
        let mut fx = setup(150_000);
        let buyer = fx.buyer;
        fx.chain.submit(Transaction::new(
            buyer,
            fx.issuer,
            "issue",
            encode_issue(buyer, 0),
            Layer::User,
        ));
        assert!(!fx.chain.produce_block().receipts[0].success);
    }

    #[test]
    fn price_update_changes_mint_ratio() {
        let mut fx = setup(150_000);
        let buyer = fx.buyer;
        // DO halves the price.
        let mut tree = MerkleKv::new();
        let mut value = vec![0u8; 32];
        value[..8].copy_from_slice(&75_000u64.to_le_bytes());
        tree.insert(
            ProofKey::new(ReplState::Replicated, ETH_PRICE_KEY.to_vec()),
            record_value_hash(&value),
        );
        // Rebuild matching tree state: the original record updated in place.
        let input = encode_update(&tree.root(), &[(ETH_PRICE_KEY.to_vec(), value)], &[], &[]);
        fx.chain.submit(Transaction::new(
            fx.do_addr,
            Address::derive("mgr"),
            "update",
            input,
            Layer::Feed,
        ));
        assert!(fx.chain.produce_block().receipts[0].success);
        fx.chain.submit(Transaction::new(
            buyer,
            fx.issuer,
            "issue",
            encode_issue(buyer, 2_000),
            Layer::User,
        ));
        fx.chain.produce_block();
        // 2 ETH × $75 = $150 → at 150%: 100 SCoin = 100_000 milli-SCoin.
        assert_eq!(token_balance(&fx, buyer), 100_000);
    }

    #[test]
    fn parse_price_is_total() {
        assert_eq!(SCoinIssuer::parse_price(&[]), 1);
        assert!(SCoinIssuer::parse_price(&[0xFF; 32]) >= 1);
        let mut v = vec![0u8; 32];
        v[..8].copy_from_slice(&42u64.to_le_bytes());
        assert_eq!(SCoinIssuer::parse_price(&v), 42);
    }
}
