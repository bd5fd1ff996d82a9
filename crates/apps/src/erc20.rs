//! A minimal ERC-20 token contract for the case-study applications.
//!
//! Implements the standard balance/allowance bookkeeping in Gas-metered
//! contract storage: `transfer`, `approve`, `transferFrom`, plus
//! `mint`/`burn` restricted to a configured minter (the issuer contract).

use grub_chain::codec::{Decoder, Encoder};
use grub_chain::{Address, CallContext, Contract, VmError};

/// The ERC-20 token contract.
#[derive(Debug)]
pub struct Erc20 {
    minter: Address,
}

impl Erc20 {
    /// Creates a token whose supply is controlled by `minter`.
    pub fn new(minter: Address) -> Self {
        Erc20 { minter }
    }

    fn balance_slot(addr: &Address) -> Vec<u8> {
        let mut out = b"bal:".to_vec();
        out.extend_from_slice(addr.as_bytes());
        out
    }

    fn allowance_slot(owner: &Address, spender: &Address) -> Vec<u8> {
        let mut out = b"alw:".to_vec();
        out.extend_from_slice(owner.as_bytes());
        out.extend_from_slice(spender.as_bytes());
        out
    }

    fn balance(ctx: &mut CallContext<'_>, addr: &Address) -> u64 {
        ctx.sload_u64(&Self::balance_slot(addr)).unwrap_or(0)
    }

    fn set_balance(ctx: &mut CallContext<'_>, addr: &Address, amount: u64) {
        ctx.sstore_u64(&Self::balance_slot(addr), amount);
    }

    fn move_tokens(
        ctx: &mut CallContext<'_>,
        from: &Address,
        to: &Address,
        amount: u64,
    ) -> Result<(), VmError> {
        let from_balance = Self::balance(ctx, from);
        if from_balance < amount {
            return Err(VmError::Revert(format!(
                "insufficient balance: {from_balance} < {amount}"
            )));
        }
        let to_balance = Self::balance(ctx, to);
        Self::set_balance(ctx, from, from_balance - amount);
        Self::set_balance(ctx, to, to_balance + amount);
        Ok(())
    }
}

impl Contract for Erc20 {
    fn call(
        &self,
        ctx: &mut CallContext<'_>,
        func: &str,
        input: &[u8],
    ) -> Result<Vec<u8>, VmError> {
        let mut dec = Decoder::new(input);
        match func {
            "mint" => {
                if ctx.caller != self.minter {
                    return Err(VmError::Unauthorized);
                }
                let to = dec.address()?;
                let amount = dec.u64()?;
                let balance = Self::balance(ctx, &to);
                Self::set_balance(ctx, &to, balance + amount);
                let supply = ctx.sload_u64(b"supply").unwrap_or(0);
                ctx.sstore_u64(b"supply", supply + amount);
                Ok(Vec::new())
            }
            "burn" => {
                if ctx.caller != self.minter {
                    return Err(VmError::Unauthorized);
                }
                let from = dec.address()?;
                let amount = dec.u64()?;
                let balance = Self::balance(ctx, &from);
                if balance < amount {
                    return Err(VmError::Revert("burn exceeds balance".into()));
                }
                Self::set_balance(ctx, &from, balance - amount);
                let supply = ctx.sload_u64(b"supply").unwrap_or(0);
                ctx.sstore_u64(b"supply", supply - amount);
                Ok(Vec::new())
            }
            "transfer" => {
                let to = dec.address()?;
                let amount = dec.u64()?;
                let from = ctx.caller;
                Self::move_tokens(ctx, &from, &to, amount)?;
                Ok(Vec::new())
            }
            "approve" => {
                let spender = dec.address()?;
                let amount = dec.u64()?;
                let owner = ctx.caller;
                ctx.sstore_u64(&Self::allowance_slot(&owner, &spender), amount);
                Ok(Vec::new())
            }
            "transferFrom" => {
                let owner = dec.address()?;
                let to = dec.address()?;
                let amount = dec.u64()?;
                let spender = ctx.caller;
                let slot = Self::allowance_slot(&owner, &spender);
                let allowance = ctx.sload_u64(&slot).unwrap_or(0);
                if allowance < amount {
                    return Err(VmError::Revert("allowance exceeded".into()));
                }
                ctx.sstore_u64(&slot, allowance - amount);
                Self::move_tokens(ctx, &owner, &to, amount)?;
                Ok(Vec::new())
            }
            "balanceOf" => {
                let addr = dec.address()?;
                let balance = Self::balance(ctx, &addr);
                let mut enc = Encoder::new();
                enc.u64(balance);
                Ok(enc.finish())
            }
            "totalSupply" => {
                let supply = ctx.sload_u64(b"supply").unwrap_or(0);
                let mut enc = Encoder::new();
                enc.u64(supply);
                Ok(enc.finish())
            }
            _ => Err(VmError::UnknownFunction(func.to_owned())),
        }
    }
}

/// Encodes `(address, amount)` — the input shape shared by `mint`, `burn`
/// and `transfer`.
pub fn encode_addr_amount(addr: Address, amount: u64) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.address(&addr).u64(amount);
    enc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grub_chain::{Blockchain, Transaction};
    use grub_gas::Layer;
    use std::rc::Rc;

    struct Fx {
        chain: Blockchain,
        token: Address,
        minter: Address,
        alice: Address,
        bob: Address,
    }

    fn setup() -> Fx {
        let mut chain = Blockchain::new();
        let minter = Address::derive("minter");
        let token = Address::derive("token");
        chain.deploy(token, Rc::new(Erc20::new(minter)), Layer::Application);
        Fx {
            chain,
            token,
            minter,
            alice: Address::derive("alice"),
            bob: Address::derive("bob"),
        }
    }

    fn call(fx: &mut Fx, from: Address, func: &str, input: Vec<u8>) -> bool {
        fx.chain
            .submit(Transaction::new(from, fx.token, func, input, Layer::User));
        fx.chain.produce_block().receipts[0].success
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
    fn mint_transfer_burn_lifecycle() {
        let mut fx = setup();
        let (minter, alice, bob) = (fx.minter, fx.alice, fx.bob);
        assert!(call(
            &mut fx,
            minter,
            "mint",
            encode_addr_amount(alice, 100)
        ));
        assert_eq!(balance(&fx, alice), 100);
        assert!(call(
            &mut fx,
            alice,
            "transfer",
            encode_addr_amount(bob, 40)
        ));
        assert_eq!(balance(&fx, alice), 60);
        assert_eq!(balance(&fx, bob), 40);
        assert!(call(&mut fx, minter, "burn", encode_addr_amount(bob, 40)));
        assert_eq!(balance(&fx, bob), 0);
    }

    #[test]
    fn only_minter_can_mint() {
        let mut fx = setup();
        let (alice, _) = (fx.alice, fx.bob);
        assert!(!call(
            &mut fx,
            alice,
            "mint",
            encode_addr_amount(alice, 100)
        ));
        assert_eq!(balance(&fx, alice), 0);
    }

    #[test]
    fn overdraft_reverts_atomically() {
        let mut fx = setup();
        let (minter, alice, bob) = (fx.minter, fx.alice, fx.bob);
        call(&mut fx, minter, "mint", encode_addr_amount(alice, 10));
        assert!(!call(
            &mut fx,
            alice,
            "transfer",
            encode_addr_amount(bob, 11)
        ));
        assert_eq!(balance(&fx, alice), 10);
        assert_eq!(balance(&fx, bob), 0);
    }

    #[test]
    fn transfer_from_respects_allowance() {
        let mut fx = setup();
        let (minter, alice, bob) = (fx.minter, fx.alice, fx.bob);
        call(&mut fx, minter, "mint", encode_addr_amount(alice, 100));
        // Alice approves Bob for 30.
        assert!(call(&mut fx, alice, "approve", encode_addr_amount(bob, 30)));
        let mut enc = Encoder::new();
        enc.address(&alice).address(&bob).u64(20);
        assert!(call(&mut fx, bob, "transferFrom", enc.finish()));
        assert_eq!(balance(&fx, bob), 20);
        // Second pull exceeding the remaining allowance fails.
        let mut enc = Encoder::new();
        enc.address(&alice).address(&bob).u64(20);
        assert!(!call(&mut fx, bob, "transferFrom", enc.finish()));
    }

    #[test]
    fn supply_tracks_mints_and_burns() {
        let mut fx = setup();
        let (minter, alice) = (fx.minter, fx.alice);
        call(&mut fx, minter, "mint", encode_addr_amount(alice, 70));
        call(&mut fx, minter, "burn", encode_addr_amount(alice, 20));
        let out = fx
            .chain
            .static_call(alice, fx.token, "totalSupply", &[])
            .unwrap();
        assert_eq!(Decoder::new(&out).u64().unwrap(), 50);
    }
}
