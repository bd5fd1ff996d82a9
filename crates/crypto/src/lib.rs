//! From-scratch cryptographic primitives for the GRuB reproduction.
//!
//! The paper's prototype relies on standard hash-based authentication
//! (Merkle trees over SHA-256 style digests) plus digital signatures by the
//! data owner on the root digest. This crate provides:
//!
//! * [`sha256`] — a FIPS 180-4 SHA-256 implementation, validated against the
//!   official test vectors (see the unit tests).
//! * [`hmac_sha256`] — HMAC (RFC 2104) over SHA-256, used as the data owner's
//!   digest authenticator in the simulator (see ARCHITECTURE.md, "Where the
//!   simulator departs from the paper", for the substitution rationale).
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

/// Computes SHA-256 over the concatenation of two byte strings.
///
/// This is the Merkle-tree inner-node combiner used by `grub-merkle`:
/// `parent = H(left || right)`.
pub fn sha256_pair(left: &Hash32, right: &Hash32) -> Hash32 {
    let mut h = Sha256::new();
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

/// HMAC-SHA256 per RFC 2104.
///
/// Used as the data owner's authenticator on the signed root digest in the
/// simulation (substituting for ECDSA; see ARCHITECTURE.md, "Where the
/// simulator departs from the paper"). Verified against RFC 4231 test
/// vectors in the unit tests.
///
/// # Examples
///
/// ```
/// let tag = grub_crypto::hmac_sha256(b"key", b"message");
/// assert_eq!(tag, grub_crypto::hmac_sha256(b"key", b"message"));
/// assert_ne!(tag, grub_crypto::hmac_sha256(b"other", b"message"));
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Hash32 {
    const BLOCK: usize = 64;
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..32].copy_from_slice(sha256(key).as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(inner_digest.as_bytes());
    outer.finalize()
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

    // RFC 4231 test case 1.
    #[test]
    fn hmac_rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn hmac_rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
    #[test]
    fn hmac_rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn hmac_rfc4231_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
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

    #[test]
    fn sha256_pair_is_order_sensitive() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        assert_ne!(sha256_pair(&a, &b), sha256_pair(&b, &a));
    }
}
