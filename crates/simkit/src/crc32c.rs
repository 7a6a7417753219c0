//! CRC32C (Castagnoli) — the one checksum kernel of the workspace.
//!
//! Checksums describe *data*, not simulated time; the kernel lives here
//! only because `simkit` is the crate every byte-moving layer already
//! depends on. `rkv` seals chunks with it (`rkv::checksum` re-exports this
//! module) and `lustre` uses it for the OSS commit check.
//!
//! Two implementations produce identical digests; `update` takes the first
//! when the running CPU has it (runtime feature detection, cached by `std`
//! for the process):
//!
//! * the CPU's CRC32C instruction (x86-64 SSE4.2 `crc32`, AArch64 `crc32cx`).
//!   The instruction has a 3-cycle latency but issues every cycle, so the
//!   kernel runs three independent streams over adjacent `BLOCK`-byte
//!   blocks and recombines them with a table-driven "advance over `BLOCK`
//!   zero bytes" operator;
//! * table-driven slice-by-8, the portable fallback and, beside a bitwise
//!   reference, the oracle the tests hold the hardware path to.
//!
//! A chunk crosses every hop of the burst buffer as a view of the writer's
//! own immutable buffer, and each hop checks its digest. [`crc32c_bytes`]
//! and [`crc32c_pair_bytes`] derive the digest of a `Bytes` view of at
//! least 4 KiB from registers over prefixes of the allocation it views,
//! kept in that allocation, reading only the view's unaligned head and
//! tail once the registers cover it: every check still computes the
//! digest of the bytes it holds and compares it, and only the repeated
//! traversal goes; the key-prefixed chunk digest is derived the same way
//! from the register the key leaves. [`combine`] joins two digests without
//! reading either input. [`traversed`] counts the bytes the kernels
//! actually read on this thread — host-side instrumentation, not
//! simulation telemetry.

use std::cell::Cell;
use std::ops::Range;

use bytes::{Bytes, DigestState};

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

/// `X_POW2[k]` = x^(2^k) mod P, reflected, by repeated squaring of x.
const X_POW2: [u32; 64] = {
    let mut t = [0u32; 64];
    t[0] = 1 << 30;
    let mut k = 1;
    while k < 64 {
        t[k] = mul_mod_p(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// `v · x^n mod P`: the register `v` advanced over `n` zero bits, one
/// multiply per set bit of `n`.
const fn times_x_pow(mut v: u32, n: u64) -> u32 {
    let mut k = 0;
    while k < 64 {
        if n >> k & 1 != 0 {
            v = mul_mod_p(v, X_POW2[k]);
        }
        k += 1;
    }
    v
}

/// `x^n mod P`, reflected: the register 1 (bit 31) advanced over `n` zero
/// bits.
const fn x_pow(n: u64) -> u32 {
    times_x_pow(1 << 31, n)
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
    use super::{mul_mod_p, x_pow, BLOCK};

    /// `SHIFT[k][b]`: the raw register `b << 8k` advanced over `BLOCK` zero
    /// bytes, i.e. multiplied by x^(8·BLOCK) mod P.
    static SHIFT: [[u32; 256]; 4] = build_shift();

    const fn build_shift() -> [[u32; 256]; 4] {
        let x_n = x_pow(8 * BLOCK as u64);
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
    TRAVERSED.with(|t| t.set(t.get() + data.len() as u64));
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

/// CRC32C of `a || b` from the digests of `a` and `b` and the length of
/// `b`, without reading either: `crc_a` advanced over `len_b` zero bytes,
/// xor `crc_b` (one multiply mod P per set bit of `8 · len_b`).
pub fn combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    times_x_pow(crc_a, 8 * len_b as u64) ^ crc_b
}

/// Views shorter than this are digested directly: their traversal costs
/// less than the lock and the state a derivation takes.
const DERIVE_MIN: usize = 4 << 10;

/// Spacing of an allocation's prefix registers: `prefix[k]` is the raw
/// register, from zero, after the allocation's first `k · STEP` bytes.
const STEP: usize = 512;

/// Step counts [`STEP_POW`] covers: a view of up to 4 MiB (the workloads'
/// whole pattern) is shifted with one multiply.
const STEP_POWS: usize = 8 << 10;

/// `STEP_POW[m]` = x^(8·STEP·m) mod P, reflected.
static STEP_POW: [u32; STEP_POWS] = {
    let step = x_pow(8 * STEP as u64);
    let mut t = [0u32; STEP_POWS];
    t[0] = 1 << 31;
    let mut m = 1;
    while m < STEP_POWS {
        t[m] = mul_mod_p(t[m - 1], step);
        m += 1;
    }
    t
};

/// The raw register `v` advanced over `m · STEP` zero bytes.
fn shift_steps(v: u32, m: usize) -> u32 {
    match STEP_POW.get(m) {
        Some(&x_m) => mul_mod_p(v, x_m),
        None => times_x_pow(v, 8 * (m * STEP) as u64),
    }
}

thread_local! {
    static TRAVERSED: Cell<u64> = const { Cell::new(0) };
}

/// Bytes the kernels have read on this thread since it started, a derived
/// digest's head and tail included: host-side, not simulation telemetry.
pub fn traversed() -> u64 {
    TRAVERSED.with(Cell::get)
}

/// CRC32C of an immutable view, reading only what no prefix covers: the
/// digest is derived from the prefix registers of the allocation the view
/// shares (see `Bytes::digest` in the `bytes` shim, and `derive`).
///
/// The registers live exactly as long as the bytes, which cannot change
/// while a view exists, so a derived digest is the one a traversal would
/// give. A damaged copy — every fault injector builds one — is a new
/// allocation with no registers and is traversed.
pub fn crc32c_bytes(data: &Bytes) -> u32 {
    crc32c_pair_bytes(&[], data)
}

/// The digest of `all[view]` continued from the raw register `init` (`!0`
/// for a plain CRC32C, the register a key leaves for a keyed one), taken
/// from the prefix registers `state.prefix` (see [`STEP`]), which are
/// extended first when `state.budget` pays for it.
///
/// With `a = ⌈s / STEP⌉` and `b = ⌊e / STEP⌋` for `view = s..e`, the head
/// `s..a·STEP` is traversed from `init` into `r`, and the register is linear
/// in its input, so `(r ⊕ prefix[a]) · x^(8·(b−a)·STEP) ⊕ prefix[b]` is the
/// register after `b · STEP` — one shift, a single multiply mod P for a
/// view of up to 4 MiB ([`STEP_POW`]) — from which the tail `b·STEP..e` is
/// traversed.
///
/// Each call adds twice the view's length to the budget and pays from it
/// what it reads: the registers still missing up to `b`, the head and the
/// tail, or, when those do not fit, the view alone, which always does. The
/// budget never goes below zero, so no sequence of views, repeats
/// included, reads more than twice their total length, and once the
/// registers cover the allocation a view reads under `2 · STEP`.
fn derive(init: u32, all: &[u8], view: Range<usize>, state: &mut DigestState) -> u32 {
    state.budget += 2 * view.len();
    let (a, b) = (view.start.div_ceil(STEP), view.end / STEP);
    let prefix = &mut state.prefix;
    let missing = b.saturating_sub(prefix.len().max(1) - 1) * STEP;
    let cost = missing + (a * STEP - view.start) + (view.end - b * STEP);
    if a >= b || cost > state.budget {
        state.budget -= view.len();
        return !update(init, &all[view]);
    }
    state.budget -= cost;
    if prefix.is_empty() {
        prefix.push(0);
    }
    prefix.reserve((b + 1).saturating_sub(prefix.len()));
    while prefix.len() <= b {
        let k = prefix.len() - 1;
        prefix.push(update(prefix[k], &all[k * STEP..(k + 1) * STEP]));
    }
    let head = update(init, &all[view.start..a * STEP]);
    let mid = shift_steps(head ^ prefix[a], b - a) ^ prefix[b];
    !update(mid, &all[b * STEP..view.end])
}

/// [`crc32c_pair`] of a key and an immutable view, derived as
/// [`crc32c_bytes`] is from the register the key leaves.
pub fn crc32c_pair_bytes(key: &[u8], data: &Bytes) -> u32 {
    if data.len() < DERIVE_MIN {
        return crc32c_pair(key, data);
    }
    let init = update(!0, key);
    data.digest(|all, view, state| derive(init, all, view, state))
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

    /// Every kernel this host can run, by name: the hardware one only
    /// where the CPU and target have a CRC32C instruction.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> =
            vec![("bitwise", update_bitwise), ("slice-by-8", update_portable)];
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        if hw::available() {
            // SAFETY: `hw::available()` just detected the feature
            // `hw::update` is compiled for.
            all.push(("hardware", |crc, data| unsafe { hw::update(crc, data) }));
        }
        all
    }

    /// [`kernels`], printed under `test` with the one it had to skip.
    fn kernels_for(test: &str) -> Vec<(&'static str, Kernel)> {
        let all = kernels();
        let names: Vec<_> = all.iter().map(|(name, _)| *name).collect();
        eprintln!("{test}: checked kernels {names:?}");
        if !names.contains(&"hardware") {
            eprintln!("{test}: SKIPPED hardware: no CRC32C instruction on this CPU/target");
        }
        all
    }

    fn digest(kernel: Kernel, data: &[u8]) -> u32 {
        !kernel(!0, data)
    }

    fn patterned(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    fn xorshift(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
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
        for (name, kernel) in kernels_for("rfc3720_vectors_on_every_kernel") {
            for (input, want) in vectors {
                assert_eq!(digest(kernel, input), want, "{name} on {input:?}");
            }
        }
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
    }

    #[test]
    fn interleave_block_edges_agree() {
        let data = patterned(6 * BLOCK + 9);
        // the 3-stream kernel's word and block edges
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
        let kernels = kernels_for("interleave_block_edges_agree");
        for len in edges {
            let want = update_bitwise(!0, &data[..len]);
            for &(name, kernel) in &kernels {
                assert_eq!(kernel(!0, &data[..len]), want, "{name} at len {len}");
            }
        }
    }

    #[test]
    fn pair_equals_concatenation() {
        // a short key, then payloads and splits of odd and whole-word
        // lengths
        let key = b"chunk-key:f1:0";
        let payload = patterned(10_000);
        for len in [0, 255, 256, 257, 300, 10_000] {
            let mut whole = key.to_vec();
            whole.extend_from_slice(&payload[..len]);
            let want = !update_bitwise(!0, &whole);
            assert_eq!(crc32c_pair(key, &payload[..len]), want, "key + {len}");
            for cut in [1, 200, 255, 256, 257, 511, 512] {
                if let Some((a, b)) = whole.split_at_checked(cut) {
                    assert_eq!(crc32c_pair(a, b), want, "key + {len} split at {cut}");
                }
            }
            let mut inc = Crc32c::new();
            for piece in whole.chunks(255) {
                inc.update(piece);
            }
            assert_eq!(inc.finalize(), want, "key + {len} in 255-byte pieces");
        }
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut data = patterned(512 << 10);
        let len = data.len();
        let clean = crc32c(&data);
        let kernels = kernels_for("single_bit_flip_changes_digest");
        // the 3-stream kernel's words, blocks and rounds
        let offsets = [
            0,
            1,
            3,
            4,
            7,
            8,
            9,
            1023,
            1024,
            2047,
            2048,
            3071,
            3072,
            len - 17,
            len - 1,
        ];
        for at in offsets {
            data[at] ^= 0x10;
            for &(name, kernel) in kernels.iter().filter(|(name, _)| *name != "bitwise") {
                assert_ne!(
                    digest(kernel, &data),
                    clean,
                    "{name}: flip at {at} undetected"
                );
            }
            data[at] ^= 0x10;
        }
        assert_eq!(crc32c(&data), clean);
    }

    #[test]
    fn combine_equals_concatenation() {
        let a = xorshift(1, 300);
        let b = xorshift(2, (1 << 20) + 3);
        for len_b in [0, 1, 255, 256, 512 << 10, (1 << 20) + 3] {
            let (a, b) = (&a[..], &b[..len_b]);
            let whole = crc32c_pair(a, b);
            assert_eq!(combine(crc32c(a), crc32c(b), len_b), whole, "len_b {len_b}");
            assert_eq!(combine(0, crc32c(b), len_b), crc32c_pair(b"", b));
        }
    }

    #[test]
    fn a_step_shift_equals_the_general_one() {
        let v = 0x1234_5678;
        for m in [
            0,
            1,
            2,
            127,
            128,
            STEP_POWS - 1,
            STEP_POWS,
            STEP_POWS + 1,
            3 * STEP_POWS + 5,
        ] {
            let want = times_x_pow(v, 8 * (m * STEP) as u64);
            assert_eq!(shift_steps(v, m), want, "{m} steps");
        }
    }

    #[test]
    fn a_memo_hit_traverses_nothing_and_a_new_allocation_is_read() {
        let data = Bytes::from(xorshift(3, 64 << 10));
        let want = crc32c(&data);
        let before = traversed();
        assert_eq!(crc32c_bytes(&data), want);
        assert_eq!(
            traversed() - before,
            data.len() as u64,
            "the first digest reads"
        );
        // an aligned view the registers cover derives with no head or tail
        let want_pair = crc32c_pair(b"k", &data);
        let before = traversed();
        assert_eq!(crc32c_bytes(&data.clone()), want);
        assert_eq!(crc32c_pair_bytes(b"k", &data), want_pair);
        assert_eq!(traversed() - before, 1, "a repeat reads only the key");
        // equal bytes in another allocation are read again
        let twin = Bytes::copy_from_slice(&data);
        let before = traversed();
        assert_eq!(crc32c_bytes(&twin), want);
        assert_eq!(traversed() - before, data.len() as u64);
        // a different view of this one reads at most its unaligned head
        // and tail: here the head `1..STEP`, its end being aligned
        let tail = data.slice(1..);
        let want_tail = crc32c(&tail);
        let before = traversed();
        assert_eq!(crc32c_bytes(&tail), want_tail);
        assert_eq!(traversed() - before, STEP as u64 - 1);
        // below the threshold nothing is derived
        let small = data.slice(..DERIVE_MIN - 1);
        let before = traversed();
        crc32c_bytes(&small);
        crc32c_bytes(&small);
        assert_eq!(traversed() - before, 2 * small.len() as u64);
    }

    /// A view below 4 KiB never reaches its allocation's state: were its
    /// digest derived, the repeats would read only its unaligned tail. Only
    /// a digest makes the state (the `bytes` shim's
    /// `digest_state_is_made_by_a_digest_alone`), so a 128 B value's
    /// allocation never has one.
    #[test]
    fn a_view_below_4_kib_creates_no_table() {
        for len in [128, DERIVE_MIN - 1] {
            let value = Bytes::from(xorshift(len as u64, len));
            let (want, want_pair) = (crc32c(&value), crc32c_pair(b"k", &value));
            let before = traversed();
            assert_eq!(crc32c_bytes(&value), want);
            assert_eq!(crc32c_pair_bytes(b"k", &value), want_pair);
            assert_eq!(crc32c_bytes(&value), want);
            assert_eq!(traversed() - before, 3 * len as u64 + 1, "len {len}");
        }
    }

    /// The registers belong to the allocation, never to its address: a
    /// buffer freed and allocated again at the same address with other
    /// bytes must be digested afresh.
    #[test]
    fn a_reused_address_is_digested_afresh() {
        let len = 64 << 10;
        let mut reused = 0;
        let mut last = None;
        for seed in 0..32 {
            let data = Bytes::from(xorshift(seed, len));
            reused += usize::from(last == Some(data.as_ptr() as usize));
            last = Some(data.as_ptr() as usize);
            assert_eq!(crc32c_bytes(&data), crc32c(&data), "seed {seed}");
            assert_eq!(crc32c_pair_bytes(b"key", &data), crc32c_pair(b"key", &data));
        }
        // the premise: the allocator did hand the same address back
        assert!(reused > 0, "no address was reused");
    }

    /// Bytes the kernels read while digesting `views` in order.
    fn read_by(views: &[Bytes]) -> u64 {
        let mut read = 0;
        for v in views {
            let want = crc32c(v);
            let before = traversed();
            assert_eq!(crc32c_bytes(v), want);
            read += traversed() - before;
        }
        read
    }

    #[test]
    fn prefix_registers_bound_what_views_read() {
        let data = Bytes::from(xorshift(11, 1 << 20));
        // (i) once a view has covered the allocation, any other reads only
        // its unaligned head and tail
        read_by(std::slice::from_ref(&data));
        for (s, e) in [(1, 4097), (100, 300 << 10), (STEP + 1, (1 << 20) - 1)] {
            let read = read_by(&[data.slice(s..e)]);
            assert!(read < 2 * STEP as u64, "{s}..{e} read {read}");
        }
        // (ii) back to front over a fresh allocation, the order that pays
        // for the registers latest: at most twice the plain traversal
        let data = Bytes::from(xorshift(12, (1 << 20) + 123));
        let len = 64 << 10;
        let views: Vec<Bytes> = (1..=16)
            .map(|i| data.slice(data.len() - i * len - 7..data.len() - (i - 1) * len - 7))
            .collect();
        let asked = views.iter().map(|v| v.len() as u64).sum::<u64>();
        let read = read_by(&views);
        assert!(read <= 2 * asked, "read {read} for {asked} asked");
    }

    /// A chunk-shaped view, its start off the `STEP` grid as
    /// `PayloadPool`'s chunks are, pays for the registers on its first
    /// digest; every repeat at a later hop reads its unaligned head and
    /// tail alone.
    #[test]
    fn a_repeated_unaligned_chunk_view_reads_under_two_steps() {
        let data = Bytes::from(xorshift(13, 4 << 20));
        let chunk = [data.slice(8191..8191 + (512 << 10))];
        assert!(read_by(&chunk) <= 2 * chunk[0].len() as u64);
        for repeat in 1..=5 {
            let read = read_by(&chunk);
            assert!(read < 2 * STEP as u64, "repeat {repeat} read {read}");
        }
    }

    proptest! {
        #[test]
        fn derived_digests_equal_the_plain_ones(
            seed in any::<u64>(),
            len in DERIVE_MIN..=40 << 10,
            picks in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 1..=16),
        ) {
            // views of at least 4 KiB in random order over an allocation
            // whose length need not be a multiple of `STEP`, a third of them
            // repeats of an earlier one, each digested alone and behind a
            // key; the budget crosses the extension's cost at a random point
            let data = Bytes::from(xorshift(seed, len));
            let key = xorshift(seed ^ 1, 9);
            let (mut views, mut asked, mut read) = (Vec::new(), 0, 0);
            for (u, v, again) in picks {
                let view = match views.len() {
                    n if n > 0 && again % 3 == 0 => Bytes::clone(&views[again as usize % n]),
                    _ => {
                        let s = u as usize % (len - DERIVE_MIN + 1);
                        data.slice(s..s + DERIVE_MIN + v as usize % (len - s - DERIVE_MIN + 1))
                    }
                };
                let (want, want_pair) = (crc32c(&view), crc32c_pair(&key, &view));
                let before = traversed();
                prop_assert_eq!(crc32c_bytes(&view), want);
                prop_assert_eq!(crc32c_pair_bytes(&key, &view), want_pair);
                read += traversed() - before;
                asked += (key.len() + 2 * view.len()) as u64;
                prop_assert!(read <= 2 * asked, "read {} for {} asked", read, asked);
                views.push(view);
            }
        }

        #[test]
        fn memo_digests_equal_the_plain_ones(
            seed in any::<u64>(),
            len in 0usize..=12 << 10,
            cuts in proptest::collection::vec(0usize..=12 << 10, 4),
            key_len in 0usize..=24,
        ) {
            // lengths straddle the derivation's 4 KiB
            let whole = Bytes::from(xorshift(seed, len));
            let key = xorshift(seed ^ 1, key_len);
            let mut c: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
            c.sort_unstable();
            let view = whole.slice(c[0]..c[3]);
            let inner = view.slice(c[1] - c[0]..c[2] - c[0]);
            let (head, tail) = (whole.slice(..c[1]), whole.slice(c[1]..));
            let mut views = vec![whole.clone(), view, inner, head.clone(), tail.clone()];
            views.extend(head.try_unsplit(&tail));
            // twice over: the second round re-derives from the registers
            for v in views.iter().chain(&views) {
                prop_assert_eq!(crc32c_bytes(v), crc32c(v));
                prop_assert_eq!(crc32c_pair_bytes(&key, v), crc32c_pair(&key, v));
            }
        }

        #[test]
        fn kernels_agree_on_random_input(
            seed in any::<u64>(),
            len in 0usize..=64 << 10,
            misalign in 0usize..=63,
            cut_a in 0usize..=64 << 10,
            cut_b in 0usize..=64 << 10,
        ) {
            let backing = xorshift(seed, len + misalign);
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
