//! CRC-32 (IEEE 802.3 polynomial), slicing-by-16, implemented from scratch.
//!
//! Used to frame write-ahead-log records and to checksum SSTable blocks, the
//! same role the CRC plays in LevelDB's log format.
//!
//! The kernel folds 16 input bytes per step through 16 lookup tables
//! (16 KiB, built at compile time): table `k` maps a byte to the CRC
//! contribution of that byte followed by `k` zero bytes, so the 16 lookups
//! of one step are independent and the loop is bound by loads, not by the
//! byte-to-byte dependency chain of the one-table loop. A tail shorter than
//! 16 bytes is finished one byte at a time with table 0, which is that
//! one-table loop. Any split of the input gives the same CRC.

use std::cell::Cell;

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per step of the main loop.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC state
/// after byte `b` is followed by `k` zero bytes.
static TABLES: [[u32; 256]; SLICES] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut t = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

thread_local! {
    static CHECKSUMMED: Cell<u64> = const { Cell::new(0) };
}

/// Bytes [`crc32`] has checksummed on this thread so far.
///
/// A work counter: it depends only on the bytes the store frames and
/// verifies — WAL appends and replays, written and read SSTable blocks —
/// never on how fast the checksum runs, so two runs of the same input count
/// the same. Take the difference of two readings to count a span of work.
///
/// # Examples
///
/// ```
/// let before = grub_store::crc::checksummed_bytes();
/// grub_store::crc::crc32(b"123456789");
/// assert_eq!(grub_store::crc::checksummed_bytes() - before, 9);
/// ```
#[inline]
pub fn checksummed_bytes() -> u64 {
    CHECKSUMMED.get()
}

/// Computes the CRC-32 of `data`.
///
/// # Examples
///
/// ```
/// // The classic check value for "123456789".
/// assert_eq!(grub_store::crc::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    CHECKSUMMED.set(CHECKSUMMED.get().wrapping_add(data.len() as u64));
    !update(0xFFFF_FFFF, data)
}

/// Folds `data` into the raw (pre-inversion) CRC state `crc`.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let (chunks, tail) = data.as_chunks::<SLICES>();
    for c in chunks {
        let head = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table, byte-at-a-time loop the kernel replaced: the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        for data in [&b""[..], b"123456789", b"The quick brown fox"] {
            assert_eq!(crc32_bytewise(data), crc32(data));
        }
    }

    #[test]
    fn table_zero_is_the_classic_table() {
        // Spot values of the reflected IEEE table every CRC-32 shares.
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][128], 0xEDB8_8320);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
    }

    #[test]
    fn sliced_kernel_matches_bytewise_oracle() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1024 + 3).map(|_| noise(&mut state) as u8).collect();
        // Every length 0..=1024 at three start alignments.
        for offset in [0usize, 1, 3] {
            for len in 0..=1024 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "len {len} at offset {offset}"
                );
            }
        }
        // Random splits fold to the one-shot CRC.
        for _ in 0..256 {
            let len = (noise(&mut state) % 1025) as usize;
            let data = &buf[..len];
            let mut crc = 0xFFFF_FFFF;
            let mut rest = data;
            while !rest.is_empty() {
                let cut = (noise(&mut state) as usize % rest.len()) + 1;
                crc = update(crc, &rest[..cut]);
                rest = &rest[cut..];
            }
            assert_eq!(!crc, crc32_bytewise(data), "split of {len} bytes");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"hello world".to_vec();
        let clean = crc32(&data);
        data[3] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn counter_counts_every_checksummed_byte() {
        let before = checksummed_bytes();
        crc32(&[0u8; 4096]);
        crc32(b"abc");
        assert_eq!(checksummed_bytes() - before, 4099);
    }
}
