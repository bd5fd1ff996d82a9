//! SHA-256 per FIPS 180-4, implemented from scratch.
//!
//! Supports incremental hashing through [`Sha256::update`] so large values
//! (e.g. SSTable blocks) can be hashed without buffering.
//!
//! Every 64-byte block goes through one compression function, which picks
//! its kernel per call: the x86 SHA extensions when the CPU has them
//! (`sha`, `sse4.1` and `ssse3`, detected at run time), the portable
//! [`compress_soft`] otherwise and on every other target. Both compute the
//! same FIPS 180-4 function, so the choice changes only the time a block
//! takes, never a digest. Both count into [`compressions`].

use std::cell::Cell;

use crate::Hash32;

/// SHA-256 round constants (first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

thread_local! {
    static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
}

/// SHA-256 compressions (64-byte blocks) run on this thread so far.
///
/// A work counter: it depends only on the bytes hashed, never on which
/// kernel ran them, so two runs of the same input count the same. Take the
/// difference of two readings to count a span of work.
///
/// # Examples
///
/// ```
/// let before = grub_crypto::compressions();
/// grub_crypto::sha256(&[0u8; 56]); // 56 bytes + padding = two blocks
/// assert_eq!(grub_crypto::compressions() - before, 2);
/// ```
#[inline]
pub fn compressions() -> u64 {
    COMPRESSIONS.get()
}

fn count_compression() {
    COMPRESSIONS.set(COMPRESSIONS.get().wrapping_add(1));
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use grub_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), grub_crypto::sha256(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress);
    }

    /// Finishes the computation and returns the digest, consuming the hasher.
    pub fn finalize(self) -> Hash32 {
        self.finish(compress)
    }

    /// [`Sha256::update`] with the compression kernel as a parameter, so
    /// tests can drive the portable kernel on a host that has the SHA
    /// extensions.
    fn absorb(&mut self, data: &[u8], kernel: impl Fn(&mut [u32; 8], &[u8; 64])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            kernel(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let (blocks, tail) = input.as_chunks::<64>();
        for block in blocks {
            kernel(&mut self.state, block);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// [`Sha256::finalize`] with the compression kernel as a parameter.
    /// Pads in place: 0x80, zeros, then the 64-bit big-endian message
    /// length in bits, spilling into a second block when fewer than nine
    /// bytes of the buffer are free.
    fn finish(mut self, kernel: impl Fn(&mut [u32; 8], &[u8; 64])) -> Hash32 {
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            kernel(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        kernel(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Hash32::new(out)
    }
}

/// Compresses one block into `state` with the fastest kernel this CPU has.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse4.1")
        && std::arch::is_x86_feature_detected!("ssse3")
    {
        // SAFETY: `compress_sha_ni` needs `sha`, `sse2`, `ssse3` and
        // `sse4.1`, and has no other precondition (it takes references and
        // touches no pointer). The checks above confirm `sha`, `sse4.1` and
        // `ssse3` on this CPU; `sse2` is part of the x86-64 baseline.
        #[expect(
            unsafe_code,
            reason = "the CPU feature checks above are the kernel's only precondition"
        )]
        unsafe {
            x86::compress_sha_ni(state, block);
        }
        return;
    }
    compress_soft(state, block);
}

/// The portable FIPS 180-4 compression function: compresses one 64-byte
/// `block` into the eight-word `state`.
///
/// It is the kernel on CPUs without the SHA extensions and on targets other
/// than x86-64, and the reference the SHA-NI kernel is tested against.
/// [`Sha256`] picks its kernel itself; this is public so a benchmark can
/// time the fallback on a host that would never run it.
///
/// # Examples
///
/// ```
/// // The one block of `sha256(b"")`: the 0x80 pad byte, then zeros.
/// let mut block = [0u8; 64];
/// block[0] = 0x80;
/// let mut state = [
///     0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
///     0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
/// ];
/// grub_crypto::compress_soft(&mut state, &block);
/// assert_eq!(state[0], 0xe3b0c442);
/// ```
pub fn compress_soft(state: &mut [u32; 8], block: &[u8; 64]) {
    count_compression();
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::{count_compression, K};

    /// The SHA-NI compression kernel: Intel's 16 × 4-round schedule,
    /// unrolled.
    ///
    /// The state lives in two registers, `abef` and `cdgh` (lanes high to
    /// low, the layout `sha256rnds2` wants). Vectors are built from words
    /// and read back lane by lane, so the kernel does no pointer access and
    /// is a safe function: its only requirement is the CPU features.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
        count_compression();
        let word = |i: usize| {
            let b = 4 * i;
            u32::from_be_bytes([block[b], block[b + 1], block[b + 2], block[b + 3]]) as i32
        };
        // Message words 4i..4i+4, word 4i in lane 0.
        let quad = |i: usize| {
            _mm_set_epi32(
                word(4 * i + 3),
                word(4 * i + 2),
                word(4 * i + 1),
                word(4 * i),
            )
        };
        let [a, b, c, d, e, f, g, h] = state.map(|s| s as i32);
        let abef_in = _mm_set_epi32(a, b, e, f);
        let cdgh_in = _mm_set_epi32(c, d, g, h);
        let (mut abef, mut cdgh) = (abef_in, cdgh_in);
        // Rounds 4j..4j+4 on message quad `w`.
        macro_rules! rounds4 {
            ($j:expr, $w:expr) => {{
                let k = _mm_set_epi32(
                    K[4 * $j + 3] as i32,
                    K[4 * $j + 2] as i32,
                    K[4 * $j + 1] as i32,
                    K[4 * $j] as i32,
                );
                let wk = _mm_add_epi32($w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }};
        }
        // Quad j from quads j-4 ($w, overwritten), j-3, j-2 and j-1, then
        // its four rounds.
        macro_rules! schedule4 {
            ($j:expr, $w:ident, $w3:ident, $w2:ident, $w1:ident) => {{
                let t = _mm_sha256msg1_epu32($w, $w3);
                let t = _mm_add_epi32(t, _mm_alignr_epi8::<4>($w1, $w2));
                $w = _mm_sha256msg2_epu32(t, $w1);
                rounds4!($j, $w);
            }};
        }
        let [mut w0, mut w1, mut w2, mut w3] = [quad(0), quad(1), quad(2), quad(3)];
        rounds4!(0, w0);
        rounds4!(1, w1);
        rounds4!(2, w2);
        rounds4!(3, w3);
        schedule4!(4, w0, w1, w2, w3);
        schedule4!(5, w1, w2, w3, w0);
        schedule4!(6, w2, w3, w0, w1);
        schedule4!(7, w3, w0, w1, w2);
        schedule4!(8, w0, w1, w2, w3);
        schedule4!(9, w1, w2, w3, w0);
        schedule4!(10, w2, w3, w0, w1);
        schedule4!(11, w3, w0, w1, w2);
        schedule4!(12, w0, w1, w2, w3);
        schedule4!(13, w1, w2, w3, w0);
        schedule4!(14, w2, w3, w0, w1);
        schedule4!(15, w3, w0, w1, w2);
        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|s| s as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hashes `data` through `kernel` in `update`-sized pieces of the
    /// given lengths, then the rest in one piece. `compress` is the kernel
    /// `update` and `finalize` dispatch through.
    fn hash_split(data: &[u8], splits: &[usize], kernel: fn(&mut [u32; 8], &[u8; 64])) -> Hash32 {
        let mut h = Sha256::new();
        let mut rest = data;
        for &n in splits {
            let (head, tail) = rest.split_at(n.min(rest.len()));
            h.absorb(head, kernel);
            rest = tail;
        }
        h.absorb(rest, kernel);
        h.finish(kernel)
    }

    /// Compressions `f` runs on this thread, and what it returns.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = compressions();
        let out = f();
        (out, compressions() - before)
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths straddling the 55/56/64 padding boundaries must all hash
        // consistently between incremental and one-shot modes.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 127, 128, 129] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), crate::sha256(&data), "length {len}");
        }
    }

    /// The NIST FIPS 180-4 vectors through the portable kernel explicitly
    /// and through the dispatched one (the SHA-NI kernel on a CPU that has
    /// the extensions), with the compressions each should count.
    #[test]
    fn nist_vectors_through_both_kernels() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str, u64); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                1,
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                1,
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                2,
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                15_626,
            ),
        ];
        for (data, hex, blocks) in vectors {
            let (soft, soft_count) = counted(|| hash_split(data, &[], compress_soft));
            let (fast, fast_count) = counted(|| crate::sha256(data));
            assert_eq!(soft.to_hex(), hex, "portable kernel, {} bytes", data.len());
            assert_eq!(
                fast.to_hex(),
                hex,
                "dispatched kernel, {} bytes",
                data.len()
            );
            assert_eq!(
                (soft_count, fast_count),
                (blocks, blocks),
                "{} bytes",
                data.len()
            );
        }
    }

    /// Every length from 0 to 1,024, each cut at random `update` split
    /// points (different cuts for the two kernels): the dispatched digest
    /// equals the portable one, and both count the same compressions —
    /// `len / 64 + 1`, plus one when the length leaves fewer than nine
    /// bytes for the padding.
    #[test]
    fn dispatched_kernel_matches_portable_kernel() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % (bound as u64 + 1)) as usize
        };
        let data: Vec<u8> = (0..1024).map(|_| next(255) as u8).collect();
        for len in 0..=1024 {
            let msg = &data[..len];
            let soft_splits: Vec<usize> = (0..next(4)).map(|_| next(len.min(200))).collect();
            let fast_splits: Vec<usize> = (0..next(4)).map(|_| next(len.min(200))).collect();
            let (soft, soft_count) = counted(|| hash_split(msg, &soft_splits, compress_soft));
            let (fast, fast_count) = counted(|| hash_split(msg, &fast_splits, compress));
            assert_eq!(
                fast, soft,
                "length {len}, splits {fast_splits:?} / {soft_splits:?}"
            );
            let blocks = (len / 64 + 1 + usize::from(len % 64 >= 56)) as u64;
            assert_eq!((soft_count, fast_count), (blocks, blocks), "length {len}");
        }
    }
}
