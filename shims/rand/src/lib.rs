//! Offline shim for `rand` 0.8: the `Rng`/`RngCore`/`SeedableRng` trait
//! surface this workspace uses, with `rngs::SmallRng` implemented as
//! xoshiro256++ seeded through SplitMix64. The stream differs from upstream
//! `rand`, which is fine here: the simulator only requires that the stream be
//! a deterministic function of the seed, not that it match any particular
//! generator.

/// Low-level generator interface.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Values samplable by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one value from the generator.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}
impl Standard for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}
impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}
impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw a value inside the range. Panics on an empty range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize);

/// High-level sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draw a value of type `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draw a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Named generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Small fast generator: xoshiro256++.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64(&mut state);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        /// Little-endian words of the stream, in order: whole 8-byte stores,
        /// then the first bytes of one more word for a ragged tail.
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            let mut words = dest.chunks_exact_mut(8);
            for word in &mut words {
                word.copy_from_slice(&self.next_u64().to_le_bytes());
            }
            let tail = words.into_remainder();
            if !tail.is_empty() {
                let raw = self.next_u64().to_le_bytes();
                tail.copy_from_slice(&raw[..tail.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_in_unit_interval_and_not_constant() {
        let mut r = SmallRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..1000).map(|_| r.gen::<f64>()).collect();
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let x: u64 = r.gen_range(10..20);
            assert!((10..20).contains(&x));
            let y: usize = r.gen_range(0..=3);
            assert!(y <= 3);
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    /// The fill as it was first written, one variable-length copy per word:
    /// the oracle the word-wise fill must reproduce.
    fn fill_bytes_chunkwise(rng: &mut SmallRng, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let raw = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&raw[..chunk.len()]);
        }
    }

    #[test]
    fn fill_bytes_is_bit_identical_to_the_chunkwise_loop() {
        let lens = (0..=17).chain([1_000, (4 << 20) + 3]);
        for (seed, len) in lens.enumerate() {
            let (mut a, mut b) = (
                SmallRng::seed_from_u64(seed as u64),
                SmallRng::seed_from_u64(seed as u64),
            );
            // poisoned buffers: every byte must be written
            let (mut got, mut want) = (vec![0xa5u8; len], vec![0x5au8; len]);
            a.fill_bytes(&mut got);
            fill_bytes_chunkwise(&mut b, &mut want);
            assert!(got == want, "len {len}: bytes differ");
            // same words drawn: the streams continue in step
            assert_eq!(a.next_u64(), b.next_u64(), "len {len}: state differs");
        }
    }
}
