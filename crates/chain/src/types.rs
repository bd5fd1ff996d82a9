//! Core identifier types for the chain simulator.

use std::fmt;

use grub_crypto::{derive_address, hex};

/// A 20-byte account or contract address (Ethereum-style).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address([u8; 20]);

impl Address {
    /// The zero address, used as the "no account" sentinel.
    pub const ZERO: Address = Address([0u8; 20]);

    /// Wraps raw bytes as an address.
    pub const fn new(bytes: [u8; 20]) -> Self {
        Address(bytes)
    }

    /// Derives a deterministic test address from a label, the way devnets
    /// mint named accounts.
    ///
    /// # Examples
    ///
    /// ```
    /// use grub_chain::Address;
    /// assert_eq!(Address::derive("DO"), Address::derive("DO"));
    /// assert_ne!(Address::derive("DO"), Address::derive("SP"));
    /// ```
    pub fn derive(label: &str) -> Self {
        let digest = derive_address(label);
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest.as_bytes()[..20]);
        Address(out)
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address(0x{}..)", &hex::encode(&self.0)[..8])
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", hex::encode(&self.0))
    }
}

/// A transaction identifier: (block number, index within block) once mined,
/// or a mempool sequence number before that.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxId(pub u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_display_is_hex() {
        let a = Address::derive("x");
        let shown = a.to_string();
        assert!(shown.starts_with("0x"));
        assert_eq!(shown.len(), 42);
    }

    #[test]
    fn zero_address_is_default() {
        assert_eq!(Address::default(), Address::ZERO);
    }
}
