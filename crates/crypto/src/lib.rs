//! From-scratch cryptographic primitives for the GRuB reproduction.
//!
//! The paper's prototype relies on standard hash-based authentication
//! (Merkle trees over SHA-256 style digests) plus digital signatures by the
//! data owner on the root digest. This crate provides:
//!
//! * [`sha256`] — a FIPS 180-4 SHA-256 implementation, validated against the
//!   official test vectors (see the unit tests).
//! * [`Hash32`] — the 32-byte digest newtype shared by every crate.
//! * [`hex`] — dependency-free hex encoding/decoding.
//!
//! # Examples
//!
//! ```
//! use grub_crypto::{sha256, Hash32};
//!
//! let digest: Hash32 = sha256(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hex;
mod sha2;

use std::fmt;

use serde::{Deserialize, Serialize};

pub use sha2::Sha256;

/// A 32-byte digest, the unit of authentication throughout the workspace.
///
/// `Hash32` is deliberately a thin newtype (`C-NEWTYPE`): it keeps digests
/// from being confused with other 32-byte quantities such as storage words.
///
/// # Examples
///
/// ```
/// use grub_crypto::Hash32;
///
/// let zero = Hash32::ZERO;
/// assert_eq!(zero.as_bytes(), &[0u8; 32]);
/// let parsed: Hash32 = Hash32::from_hex(&zero.to_hex()).unwrap();
/// assert_eq!(parsed, zero);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Hash32([u8; 32]);

impl Hash32 {
    /// The all-zero digest, used as a sentinel for "no data".
    pub const ZERO: Hash32 = Hash32([0u8; 32]);

    /// Wraps raw bytes as a digest.
    pub const fn new(bytes: [u8; 32]) -> Self {
        Hash32(bytes)
    }

    /// Borrows the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consumes the digest, returning the raw bytes.
    pub fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Returns `true` if this is the all-zero sentinel digest.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }

    /// Lowercase hex rendering of the digest (64 characters).
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }

    /// Parses a 64-character hex string into a digest.
    ///
    /// # Errors
    ///
    /// Returns [`hex::ParseHexError`] when the input is not exactly 64 hex
    /// characters.
    pub fn from_hex(s: &str) -> Result<Self, hex::ParseHexError> {
        let bytes = hex::decode(s)?;
        if bytes.len() != 32 {
            return Err(hex::ParseHexError::BadLength {
                expected: 64,
                actual: s.len(),
            });
        }
        let mut out = [0u8; 32];
        out.copy_from_slice(&bytes);
        Ok(Hash32(out))
    }
}

impl fmt::Debug for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash32({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; 32]> for Hash32 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash32(bytes)
    }
}

impl AsRef<[u8]> for Hash32 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// # Examples
///
/// ```
/// let d = grub_crypto::sha256(b"");
/// assert_eq!(
///     d.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Hash32 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Derives a deterministic 20-byte style account address (zero-padded into 32
/// bytes) from a label, mimicking how test accounts are minted on devnets.
pub fn derive_address(label: &str) -> Hash32 {
    let mut h = Sha256::new();
    h.update(b"grub-address:");
    h.update(label.as_bytes());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST FIPS 180-4 / standard SHA-256 test vectors.
    #[test]
    fn sha256_empty() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_block_message() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(17) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hash32_hex_round_trip() {
        let d = sha256(b"round trip");
        let parsed = Hash32::from_hex(&d.to_hex()).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn hash32_from_hex_rejects_bad_length() {
        assert!(Hash32::from_hex("abcd").is_err());
    }

    #[test]
    fn hash32_zero_sentinel() {
        assert!(Hash32::ZERO.is_zero());
        assert!(!sha256(b"x").is_zero());
    }

    #[test]
    fn derive_address_is_deterministic_and_distinct() {
        assert_eq!(derive_address("alice"), derive_address("alice"));
        assert_ne!(derive_address("alice"), derive_address("bob"));
    }
}
