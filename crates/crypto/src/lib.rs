//! From-scratch cryptographic primitives for the GRuB reproduction.
//!
//! The paper's prototype relies on standard hash-based authentication
//! (Merkle trees over SHA-256 style digests) plus digital signatures by the
//! data owner on the root digest. This crate provides:
//!
//! * [`sha256`] — a FIPS 180-4 SHA-256 implementation, validated against the
//!   official test vectors (see the unit tests). Each 64-byte block runs on
//!   the x86 SHA extensions when the CPU has them and on the portable
//!   [`compress_soft`] otherwise; the digest is the same either way.
//! * [`compressions`] — a per-thread count of SHA-256 compressions, the
//!   workspace's hashing work counter.
//! * [`Hash32`] — the 32-byte digest newtype shared by every crate.
//! * [`hex`] — dependency-free hex encoding.
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
//!
//! # `unsafe`
//!
//! The crate denies `unsafe` code and allows it at exactly one site: the
//! call into the SHA-NI kernel in `sha2.rs`, made only after run-time
//! detection has confirmed the CPU features the kernel is compiled for. The
//! kernel itself is a safe `#[target_feature]` function that builds its
//! vectors from words and reads them back lane by lane — no pointer loads
//! or stores — so calling it on a CPU that has those features is all its
//! `SAFETY` comment has to establish.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod hex;
mod sha2;

use std::fmt;

use serde::{Deserialize, Serialize};

pub use sha2::{compress_soft, compressions, Sha256};

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
/// assert_eq!(zero.to_hex(), "0".repeat(64));
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

    /// Lowercase hex rendering of the digest (64 characters).
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
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
    fn hash32_zero_sentinel() {
        assert_eq!(Hash32::ZERO.as_bytes(), &[0u8; 32]);
        assert_eq!(Hash32::ZERO, Hash32::default());
        assert_ne!(sha256(b"x"), Hash32::ZERO);
    }

    #[test]
    fn derive_address_is_deterministic_and_distinct() {
        assert_eq!(derive_address("alice"), derive_address("alice"));
        assert_ne!(derive_address("alice"), derive_address("bob"));
    }
}
