//! CRC32C (Castagnoli) — the one checksum kernel of the workspace.
//!
//! Checksums describe *data*, not simulated time; the kernel lives here
//! only because `simkit` is the crate every byte-moving layer already
//! depends on. `rkv` seals chunks with it (`rkv::checksum` re-exports this
//! module) and `lustre` uses it for the OSS commit check.
//!
//! Two implementations produce identical digests:
//!
//! * the CPU's CRC32C instruction (x86-64 SSE4.2 `crc32`, AArch64 `crc32cx`),
//!   chosen by runtime feature detection. The instruction has a 3-cycle
//!   latency but issues every cycle, so the kernel runs three independent
//!   streams over adjacent `BLOCK`-byte blocks and recombines them with a
//!   table-driven "advance over `BLOCK` zero bytes" operator;
//! * table-driven slice-by-8, the portable fallback and the oracle the
//!   tests hold the hardware path to.

/// The Castagnoli generator polynomial, reflected.
const POLY: u32 = 0x82f6_3b78;

/// `v · x mod P` on reflected polynomials (bit 31 is x^0): the register
/// advanced over one zero bit.
const fn times_x(v: u32) -> u32 {
    if v & 1 != 0 {
        (v >> 1) ^ POLY
    } else {
        v >> 1
    }
}

/// 8 × 256 lookup tables for slice-by-8.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = times_x(crc);
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// Fold `data` into the raw register `crc`, slice-by-8.
fn update_portable(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// Bytes each of the hardware kernel's three streams covers per round. One
/// round digests `3 * BLOCK` bytes; a shorter tail runs as a single stream.
#[cfg(any(test, target_arch = "x86_64", target_arch = "aarch64"))]
const BLOCK: usize = 1024;

/// The hardware kernel: three interleaved instruction streams.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
mod hw {
    use super::{times_x, BLOCK};

    /// `SHIFT[k][b]`: the raw register `b << 8k` advanced over `BLOCK` zero
    /// bytes, i.e. multiplied by x^(8·BLOCK) mod P.
    static SHIFT: [[u32; 256]; 4] = build_shift();

    /// `a · b mod P` on reflected polynomials.
    const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
        let mut product = 0;
        let mut bit = 1u32 << 31;
        while bit != 0 {
            if a & bit != 0 {
                product ^= b;
            }
            b = times_x(b);
            bit >>= 1;
        }
        product
    }

    const fn build_shift() -> [[u32; 256]; 4] {
        // x^(8·BLOCK) mod P by repeated squaring of x^8
        let mut x_n = 1u32 << 23;
        let mut n = 1;
        while n < BLOCK {
            x_n = mul_mod_p(x_n, x_n);
            n *= 2;
        }
        assert!(n == BLOCK, "BLOCK must be a power of two");
        let mut t = [[0u32; 256]; 4];
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                t[k][b] = mul_mod_p(x_n, (b as u32) << (8 * k));
                b += 1;
            }
            k += 1;
        }
        t
    }

    /// Advance the raw register over `BLOCK` zero bytes.
    fn shift(crc: u32) -> u32 {
        SHIFT[0][(crc & 0xff) as usize]
            ^ SHIFT[1][((crc >> 8) & 0xff) as usize]
            ^ SHIFT[2][((crc >> 16) & 0xff) as usize]
            ^ SHIFT[3][(crc >> 24) as usize]
    }

    /// Whether this CPU has the instruction [`update`] is compiled for.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("sse4.2")
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn word(crc: u32, w: u64) -> u32 {
        std::arch::x86_64::_mm_crc32_u64(crc as u64, w) as u32
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn byte(crc: u32, b: u8) -> u32 {
        std::arch::x86_64::_mm_crc32_u8(crc, b)
    }

    /// Whether this CPU has the instruction [`update`] is compiled for.
    #[cfg(target_arch = "aarch64")]
    pub(super) fn available() -> bool {
        std::arch::is_aarch64_feature_detected!("crc")
    }

    #[cfg(target_arch = "aarch64")]
    #[inline]
    #[target_feature(enable = "crc")]
    fn word(crc: u32, w: u64) -> u32 {
        std::arch::aarch64::__crc32cd(crc, w)
    }

    #[cfg(target_arch = "aarch64")]
    #[inline]
    #[target_feature(enable = "crc")]
    fn byte(crc: u32, b: u8) -> u32 {
        std::arch::aarch64::__crc32cb(crc, b)
    }

    fn le(w: &[u8]) -> u64 {
        u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"))
    }

    /// Fold `data` into the raw register `crc` with the CRC32C instruction.
    ///
    /// Safe to call only where [`available`] returned true.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    pub(super) fn update(mut crc: u32, mut data: &[u8]) -> u32 {
        while data.len() >= 3 * BLOCK {
            let (a, rest) = data.split_at(BLOCK);
            let (b, rest) = rest.split_at(BLOCK);
            let (c, rest) = rest.split_at(BLOCK);
            // the register is linear in its input: the digest of a‖b‖c is
            // the digest of a advanced over |b| zeros, xor b's from a zero
            // register, advanced over |c| zeros, xor c's
            let (mut ca, mut cb, mut cc) = (crc, 0, 0);
            for ((wa, wb), wc) in a
                .chunks_exact(8)
                .zip(b.chunks_exact(8))
                .zip(c.chunks_exact(8))
            {
                ca = word(ca, le(wa));
                cb = word(cb, le(wb));
                cc = word(cc, le(wc));
            }
            crc = shift(shift(ca) ^ cb) ^ cc;
            data = rest;
        }
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            crc = word(crc, le(w));
        }
        for &b in words.remainder() {
            crc = byte(crc, b);
        }
        crc
    }
}

/// Fold `data` into the raw register `crc` on the fastest path this CPU has.
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if hw::available() {
        // SAFETY: `hw::update` requires the CPU feature it is compiled for
        // (SSE4.2 / AArch64 CRC); `hw::available()` just detected it on the
        // running CPU.
        return unsafe { hw::update(crc, data) };
    }
    update_portable(crc, data)
}

/// Incremental CRC32C state for digesting discontiguous input.
#[derive(Debug, Clone, Copy)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c::new()
    }
}

impl Crc32c {
    /// Fresh digest state.
    pub fn new() -> Crc32c {
        Crc32c { state: !0 }
    }

    /// Fold `data` into the digest.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finish and return the digest.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// CRC32C of a single buffer.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finalize()
}

/// CRC32C of the logical concatenation `a || b` without concatenating.
pub fn crc32c_pair(a: &[u8], b: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(a);
    c.update(b);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One bit at a time, straight from the polynomial.
    fn update_bitwise(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = times_x(crc);
            }
        }
        crc
    }

    type Kernel = fn(u32, &[u8]) -> u32;

    /// The hardware kernel, or `None` (with a message) where the CPU or
    /// target has no CRC32C instruction.
    fn hardware() -> Option<Kernel> {
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        if hw::available() {
            // SAFETY: `hw::available()` just detected the feature
            // `hw::update` is compiled for.
            return Some(|crc, data| unsafe { hw::update(crc, data) });
        }
        eprintln!("SKIPPED hardware CRC32C checks: no CRC instruction on this CPU/target");
        None
    }

    /// Every kernel this host can run, by name.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> =
            vec![("bitwise", update_bitwise), ("slice-by-8", update_portable)];
        all.extend(hardware().map(|hw| ("hardware", hw)));
        all
    }

    fn digest(kernel: Kernel, data: &[u8]) -> u32 {
        !kernel(!0, data)
    }

    fn patterned(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn rfc3720_vectors_on_every_kernel() {
        // RFC 3720 appendix B.4 test vectors.
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0),
            (&[0u8; 32], 0x8a91_36aa),
            (&[0xffu8; 32], 0x62a8_ab43),
            (&ascending, 0x46dd_794e),
            (&descending, 0x113f_db5c),
            (b"123456789", 0xe306_9283),
        ];
        for (name, kernel) in kernels() {
            for (input, want) in vectors {
                assert_eq!(digest(kernel, input), want, "{name} on {input:?}");
            }
        }
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
    }

    #[test]
    fn interleave_block_edges_agree() {
        let data = patterned(6 * BLOCK + 9);
        let edges = [
            0,
            1,
            7,
            8,
            BLOCK,
            3 * BLOCK - 1,
            3 * BLOCK,
            3 * BLOCK + 1,
            6 * BLOCK,
            6 * BLOCK + 9,
        ];
        for len in edges {
            let want = update_bitwise(!0, &data[..len]);
            for (name, kernel) in kernels() {
                assert_eq!(kernel(!0, &data[..len]), want, "{name} at len {len}");
            }
        }
    }

    #[test]
    fn pair_equals_concatenation() {
        let a = b"chunk-key:f1:0";
        let b = patterned(10_000);
        let mut whole = a.to_vec();
        whole.extend_from_slice(&b);
        assert_eq!(crc32c_pair(a, &b), crc32c(&whole));
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut data = patterned(4096);
        let clean = crc32c(&data);
        for at in [0usize, 1, 7, 8, 9, 3071, 3072, 4095] {
            data[at] ^= 0x10;
            assert_ne!(crc32c(&data), clean, "flip at {at} undetected");
            data[at] ^= 0x10;
        }
        assert_eq!(crc32c(&data), clean);
    }

    proptest! {
        #[test]
        fn kernels_agree_on_random_input(
            seed in any::<u64>(),
            len in 0usize..=64 << 10,
            misalign in 0usize..=15,
            cut_a in 0usize..=64 << 10,
            cut_b in 0usize..=64 << 10,
        ) {
            let mut x = seed | 1;
            let backing: Vec<u8> = (0..len + misalign)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let data = &backing[misalign..];
            let want = update_bitwise(!0, data);
            for (name, kernel) in kernels() {
                prop_assert_eq!(kernel(!0, data), want, "{} one-shot", name);
            }
            // the public incremental API, split at two random points
            let mut cuts = [cut_a % (len + 1), cut_b % (len + 1)];
            cuts.sort_unstable();
            let mut inc = Crc32c::new();
            inc.update(&data[..cuts[0]]);
            inc.update(&data[cuts[0]..cuts[1]]);
            inc.update(&data[cuts[1]..]);
            prop_assert_eq!(inc.finalize(), !want);
        }
    }
}
