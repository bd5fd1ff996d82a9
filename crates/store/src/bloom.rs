//! A bloom filter for SSTable key lookups, as in LevelDB's filter blocks.
//!
//! Uses the standard double-hashing scheme (Kirsch–Mitzenmacher) over two
//! FNV-1a variants, with ~10 bits per key for a ≈1% false-positive rate.

/// A serializable bloom filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u8>,
    k: u8,
}

fn fnv1a(data: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Bloom {
    /// Builds a filter over `keys` with `bits_per_key` bits per key
    /// (LevelDB's default policy is 10).
    pub fn from_keys<K: AsRef<[u8]>>(keys: &[K], bits_per_key: usize) -> Self {
        let n_bits = (keys.len().max(1) * bits_per_key).max(64);
        let n_bytes = n_bits.div_ceil(8);
        // Optimal k ≈ bits_per_key · ln 2, clamped like LevelDB.
        let k = ((bits_per_key as f64 * 0.69) as u8).clamp(1, 30);
        let mut bits = vec![0u8; n_bytes];
        for key in keys {
            set_key(&mut bits, key.as_ref(), k);
        }
        Bloom { bits, k }
    }

    /// Whether `key` may be in the set (false positives possible, false
    /// negatives impossible).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let n_bits = (self.bits.len() * 8) as u64;
        let h1 = fnv1a(key, 0);
        let h2 = fnv1a(key, 0x9E37_79B9_7F4A_7C15);
        for i in 0..self.k as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % n_bits;
            if self.bits[(bit / 8) as usize] & (1 << (bit % 8)) == 0 {
                return false;
            }
        }
        true
    }

    /// Serializes as `[k, bits…]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.bits.len());
        out.push(self.k);
        out.extend_from_slice(&self.bits);
        out
    }

    /// Parses the [`Bloom::encode`] format.
    pub fn decode(data: &[u8]) -> Option<Self> {
        let (&k, bits) = data.split_first()?;
        if k == 0 || k > 30 {
            return None;
        }
        Some(Bloom {
            bits: bits.to_vec(),
            k,
        })
    }
}

fn set_key(bits: &mut [u8], key: &[u8], k: u8) {
    let n_bits = (bits.len() * 8) as u64;
    let h1 = fnv1a(key, 0);
    let h2 = fnv1a(key, 0x9E37_79B9_7F4A_7C15);
    for i in 0..k as u64 {
        let bit = h1.wrapping_add(i.wrapping_mul(h2)) % n_bits;
        bits[(bit / 8) as usize] |= 1 << (bit % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let keys: Vec<Vec<u8>> = (0..1000u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let bloom = Bloom::from_keys(&keys, 10);
        for k in &keys {
            assert!(bloom.may_contain(k));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let keys: Vec<Vec<u8>> = (0..2000u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let bloom = Bloom::from_keys(&keys, 10);
        let mut fp = 0;
        let probes = 10_000u32;
        for i in 0..probes {
            let probe = (1_000_000 + i).to_le_bytes();
            if bloom.may_contain(&probe) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    #[test]
    fn encode_decode_round_trip() {
        let keys = [b"alpha".as_slice(), b"beta", b"gamma"];
        let bloom = Bloom::from_keys(&keys, 10);
        let decoded = Bloom::decode(&bloom.encode()).unwrap();
        assert_eq!(decoded, bloom);
        assert!(decoded.may_contain(b"alpha"));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Bloom::decode(&[]).is_none());
        assert!(Bloom::decode(&[0, 1, 2]).is_none(), "k = 0 invalid");
        assert!(Bloom::decode(&[99, 1, 2]).is_none(), "k too large");
    }

    #[test]
    fn empty_key_set_is_valid() {
        let bloom = Bloom::from_keys::<&[u8]>(&[], 10);
        // May return anything for probes, but must not panic.
        let _ = bloom.may_contain(b"x");
    }
}
