//! A minimal deterministic codec for contract call payloads.
//!
//! The paper's prototype uses Solidity ABI encoding; this simulator uses a
//! simpler length-prefixed binary format with identical information content,
//! so transaction payload sizes (which drive `Ctx(X)`) stay comparable.
//!
//! # Examples
//!
//! ```
//! use grub_chain::codec::{Encoder, Decoder};
//!
//! let mut enc = Encoder::new();
//! enc.u64(7).bytes(b"price").u64(42);
//! let buf = enc.finish();
//!
//! let mut dec = Decoder::new(&buf);
//! assert_eq!(dec.u64().unwrap(), 7);
//! assert_eq!(dec.bytes().unwrap(), b"price");
//! assert_eq!(dec.u64().unwrap(), 42);
//! assert!(dec.is_empty());
//! ```

use grub_crypto::Hash32;

use crate::contract::VmError;
use crate::types::Address;

/// Incrementally builds a call payload.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Appends a `u64` (8 bytes, little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `bool` (1 byte).
    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.buf.push(v as u8);
        self
    }

    /// Appends a length-prefixed byte string (4-byte LE length).
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a 32-byte digest (raw).
    pub fn hash(&mut self, v: &Hash32) -> &mut Self {
        self.buf.extend_from_slice(v.as_bytes());
        self
    }

    /// Appends a 20-byte address (raw).
    pub fn address(&mut self, v: &Address) -> &mut Self {
        self.buf.extend_from_slice(v.as_bytes());
        self
    }

    /// Appends a UTF-8 string (length-prefixed).
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Current payload length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads values back out of a payload, in the order they were encoded.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], VmError> {
        if self.pos + n > self.buf.len() {
            return Err(VmError::Decode(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Decode`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, VmError> {
        let b = self.take(8)?;
        // grub-lint: allow(panic) — take(8) returned exactly 8 bytes
        Ok(u64::from_le_bytes(b.try_into().expect("slice len 8")))
    }

    /// Reads a `u64` element count for items of at least `min_item_bytes`
    /// encoded bytes each, refusing a count the remaining bytes could not
    /// hold — so a forged count fails here, before anything is allocated
    /// or iterated for it.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Decode`] if fewer than 8 bytes remain, or if
    /// `count × min_item_bytes` exceeds the bytes left after the count.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, VmError> {
        let declared = self.u64()?;
        let fits = usize::try_from(declared)
            .ok()
            .filter(|n| n.saturating_mul(min_item_bytes.max(1)) <= self.remaining());
        fits.ok_or_else(|| {
            VmError::Decode(format!(
                "count {declared} of {min_item_bytes}-byte items exceeds the {} bytes left",
                self.remaining()
            ))
        })
    }

    /// Reads a `bool`.
    pub fn boolean(&mut self) -> Result<bool, VmError> {
        Ok(self.take(1)?[0] != 0)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], VmError> {
        // grub-lint: allow(panic) — take(4) returned exactly 4 bytes
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("slice len 4")) as usize;
        self.take(len)
    }

    /// Reads a 32-byte digest.
    pub fn hash(&mut self) -> Result<Hash32, VmError> {
        let b = self.take(32)?;
        let mut out = [0u8; 32];
        out.copy_from_slice(b);
        Ok(Hash32::new(out))
    }

    /// Reads a 20-byte address.
    pub fn address(&mut self) -> Result<Address, VmError> {
        let b = self.take(20)?;
        let mut out = [0u8; 20];
        out.copy_from_slice(b);
        Ok(Address::new(out))
    }

    /// Reads a UTF-8 string.
    pub fn string(&mut self) -> Result<String, VmError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|e| VmError::Decode(e.to_string()))
    }

    /// Whether the payload is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Framing bytes [`encode_sections`] adds per section: a 20-byte target
/// address plus a 4-byte payload length prefix. Batch planners size
/// sections with it, and [`decode_sections`] bounds a declared count by it.
pub const SECTION_OVERHEAD_BYTES: usize = 24;

/// Encodes a batch of per-target call sections — the multi-feed `update`
/// framing used by shard routers: each section names the contract that
/// should receive `payload` as an internal call. Framing overhead is one
/// `u64` count plus an address and a length prefix per section, so batching
/// `n` payloads into one transaction trades `n - 1` transaction base costs
/// for a few words of calldata.
pub fn encode_sections(sections: &[(Address, Vec<u8>)]) -> Vec<u8> {
    debug_assert!(
        sections.len() <= MAX_BATCH_SECTIONS,
        "batch of {} sections exceeds MAX_BATCH_SECTIONS = {MAX_BATCH_SECTIONS}",
        sections.len()
    );
    let mut enc = Encoder::new();
    enc.u64(sections.len() as u64);
    for (target, payload) in sections {
        enc.address(target).bytes(payload);
    }
    enc.finish()
}

/// Upper bound on the section count of one batch payload. Byte-bounded
/// batching keeps real batches around forty sections; the bound exists so a
/// forged count in a hostile payload is rejected with a typed error up
/// front instead of driving allocation and iteration until the truncation
/// check fires.
pub const MAX_BATCH_SECTIONS: usize = 4096;

/// Decodes a batch encoded by [`encode_sections`].
///
/// # Errors
///
/// Returns [`VmError::Decode`] if the payload is malformed or truncated, or
/// if the declared section count exceeds [`MAX_BATCH_SECTIONS`] or could not
/// possibly fit in the remaining bytes.
pub fn decode_sections(input: &[u8]) -> Result<Vec<(Address, Vec<u8>)>, VmError> {
    let mut dec = Decoder::new(input);
    let n = dec.count(SECTION_OVERHEAD_BYTES)?;
    if n > MAX_BATCH_SECTIONS {
        return Err(VmError::Decode(format!(
            "section count {n} exceeds the {MAX_BATCH_SECTIONS}-section bound"
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let target = dec.address()?;
        let payload = dec.bytes()?.to_vec();
        out.push((target, payload));
    }
    if !dec.is_empty() {
        return Err(VmError::Decode(format!(
            "{} trailing bytes after {} sections",
            dec.remaining(),
            n
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let addr = Address::derive("codec");
        let digest = grub_crypto::sha256(b"d");
        let mut enc = Encoder::new();
        enc.u64(u64::MAX)
            .boolean(true)
            .bytes(b"")
            .bytes(&[1, 2, 3])
            .hash(&digest)
            .address(&addr)
            .string("héllo");
        let buf = enc.finish();

        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.u64().unwrap(), u64::MAX);
        assert!(dec.boolean().unwrap());
        assert_eq!(dec.bytes().unwrap(), b"");
        assert_eq!(dec.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(dec.hash().unwrap(), digest);
        assert_eq!(dec.address().unwrap(), addr);
        assert_eq!(dec.string().unwrap(), "héllo");
        assert!(dec.is_empty());
    }

    #[test]
    fn section_overhead_matches_the_encoder_framing() {
        let to = Address::derive("codec");
        let first = (to, vec![7u8; 5]);
        let one = encode_sections(std::slice::from_ref(&first));
        for len in [0, 1, 300] {
            let two = encode_sections(&[first.clone(), (to, vec![9u8; len])]);
            assert_eq!(two.len() - one.len(), len + SECTION_OVERHEAD_BYTES);
        }
    }

    #[test]
    fn truncated_payload_errors() {
        let mut enc = Encoder::new();
        enc.u64(1);
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf[..4]);
        assert!(matches!(dec.u64(), Err(VmError::Decode(_))));
    }

    #[test]
    fn sections_round_trip() {
        let sections = vec![
            (Address::derive("m1"), b"payload-one".to_vec()),
            (Address::derive("m2"), Vec::new()),
            (Address::derive("m3"), vec![0u8; 300]),
        ];
        let buf = encode_sections(&sections);
        assert_eq!(decode_sections(&buf).unwrap(), sections);
        assert!(decode_sections(&encode_sections(&[])).unwrap().is_empty());
    }

    #[test]
    fn sections_reject_trailing_garbage() {
        let mut buf = encode_sections(&[(Address::derive("m"), b"p".to_vec())]);
        buf.push(0xAB);
        assert!(matches!(decode_sections(&buf), Err(VmError::Decode(_))));
    }

    #[test]
    fn sections_reject_forged_counts() {
        // A count above the hard bound is rejected before any allocation.
        let mut enc = Encoder::new();
        enc.u64(u64::MAX);
        assert!(matches!(
            decode_sections(&enc.finish()),
            Err(VmError::Decode(_))
        ));
        // An in-bound count that cannot fit the remaining bytes is rejected
        // up front with a typed error.
        let mut enc = Encoder::new();
        enc.u64(100); // claims 100 sections, provides none
        assert!(matches!(
            decode_sections(&enc.finish()),
            Err(VmError::Decode(_))
        ));
    }

    #[test]
    fn sections_reject_truncated_tail() {
        let buf = encode_sections(&[
            (Address::derive("m1"), b"abc".to_vec()),
            (Address::derive("m2"), b"defgh".to_vec()),
        ]);
        // Every proper prefix must fail with a typed decode error, never
        // panic.
        for cut in 0..buf.len() {
            assert!(
                matches!(decode_sections(&buf[..cut]), Err(VmError::Decode(_))),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut enc = Encoder::new();
        enc.u64(2).bytes(b"ab").bytes(b"cd");
        let buf = enc.finish();
        assert_eq!(Decoder::new(&buf).count(4), Ok(2));
        assert!(matches!(
            Decoder::new(&buf).count(8),
            Err(VmError::Decode(_))
        ));
        for forged in [u64::MAX, 1 << 40] {
            let mut enc = Encoder::new();
            enc.u64(forged);
            assert!(matches!(
                Decoder::new(&enc.finish()).count(1),
                Err(VmError::Decode(_))
            ));
        }
    }

    #[test]
    fn bad_length_prefix_errors() {
        // Length prefix claims 100 bytes but only 1 follows.
        let mut buf = 100u32.to_le_bytes().to_vec();
        buf.push(7);
        let mut dec = Decoder::new(&buf);
        assert!(dec.bytes().is_err());
    }
}
