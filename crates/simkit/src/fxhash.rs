//! A fast, deterministic hasher for maps whose keys no adversary picks.
//!
//! The multiply-rotate of rustc's Fx hash: fold each word into the state
//! with a rotate, an xor and a multiply (a byte string 8 bytes at a time,
//! then 4, then 1). It is not DoS-resistant, which a simulation's own keys
//! (KV keys, connection and tenant ids, memory-region handles) do not need,
//! and it is several times cheaper per lookup than std's SipHash. Unlike
//! `RandomState` it has no per-process seed, and bytes are read
//! little-endian, so a key hashes the same in every process on every host,
//! and a map's iteration order follows from its insertions alone.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FxHasher`]; build it with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hash state. See the module docs.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().unwrap()));
        }
        let mut rest = words.remainder();
        if rest.len() >= 4 {
            self.add(u32::from_le_bytes(rest[..4].try_into().unwrap()) as u64);
            rest = &rest[4..];
        }
        for &b in rest {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    /// Pinned outputs, computed from the definition apart from this code:
    /// a map's hashes, and so its iteration order, may not depend on the
    /// process, the host or the build. A slice hashes its length first.
    #[test]
    fn fx_hash_values_are_pinned() {
        assert_eq!(FxHasher::default().finish(), 0);
        let boxed: Box<[u8]> = b"chunk:f1:42/017".as_slice().into();
        let pinned: [(u64, u64); 8] = [
            (fx(&0u32), 0),
            (fx(&1u32), SEED),
            (fx(&7usize), 0x3a69_4c02_11ee_4a13),
            (fx(&(3u32, 9u64)), 0xed66_f1c8_c58c_f8c3),
            (fx(&(3u8, u64::MAX)), 0x86b3_007e_0162_b295),
            // 4 + 1 + 1 bytes; 4 + 3; 8 + 4 + 3
            (fx(b"t0-k17".as_slice()), 0x756a_535a_1a6c_c974),
            (fx(&b"f1:42/0".to_vec()), 0xc53d_4be8_110c_6e34),
            (fx(&boxed), 0x64bb_d42f_54b4_a717),
        ];
        for (i, (got, want)) in pinned.into_iter().enumerate() {
            assert_eq!(got, want, "input {i}: {got:#x}");
        }
    }
}
