//! Seeded deterministic randomness and the distributions the workload
//! generators need (uniform, exponential, Zipf, truncated normal).
//!
//! `rand_distr` is not in the approved dependency set, so the handful of
//! distributions used by the workloads are implemented here with standard
//! inverse-CDF / rejection methods.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Cheap-to-clone handle to a seeded PRNG. All clones share the stream, so
/// the whole simulation consumes one deterministic sequence.
#[derive(Clone)]
pub struct SimRng {
    inner: Rc<RefCell<SmallRng>>,
}

impl SimRng {
    /// Construct from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: Rc::new(RefCell::new(SmallRng::seed_from_u64(seed))),
        }
    }

    /// Derive an independent child stream (stable function of this stream's
    /// state order) — used to give each workload its own stream.
    pub fn fork(&self) -> SimRng {
        let seed = self.inner.borrow_mut().next_u64();
        SimRng::seed_from(seed)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&self) -> f64 {
        self.inner.borrow_mut().gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.inner.borrow_mut().gen_range(lo..hi)
    }

    /// Uniform index in `[0, n)`.
    pub fn index(&self, n: usize) -> usize {
        assert!(n > 0, "index over empty set");
        self.inner.borrow_mut().gen_range(0..n)
    }

    /// Bernoulli with probability `p`.
    pub fn chance(&self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential with the given mean (inverse-CDF method).
    pub fn exp(&self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u: f64 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Normal via Box–Muller, truncated to `>= 0` for use as a duration or
    /// size.
    pub fn normal_pos(&self, mean: f64, std_dev: f64) -> f64 {
        let u1: f64 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (mean + std_dev * z).max(0.0)
    }

    /// Fill `buf` with pseudorandom bytes (workload payload generation).
    pub fn fill_bytes(&self, buf: &mut [u8]) {
        self.inner.borrow_mut().fill_bytes(buf);
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&self, slice: &mut [T]) {
        let mut rng = self.inner.borrow_mut();
        for i in (1..slice.len()).rev() {
            let j = rng.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

/// Memoized table store: `(n, s.to_bits())` → shared CDF and guide.
type ZipfTableCache = std::collections::HashMap<(usize, u64), Rc<ZipfTable>>;

thread_local! {
    /// Memoized Zipf tables keyed by `(n, s.to_bits())`. The harmonic
    /// prefix sum is O(n) with a `powf` per term — prohibitive when traffic
    /// generators build 10^6-key distributions per cell — but it is a pure
    /// function of `(n, s)`, so every construction after the first is a
    /// cache hit that just bumps an `Rc`.
    static ZIPF_TABLE_CACHE: RefCell<ZipfTableCache> = RefCell::new(ZipfTableCache::new());
}

/// The normalized CDF of one `(n, s)` and its guide table.
struct ZipfTable {
    cdf: Vec<f64>,
    /// `n` as a float: the guide's bucket count.
    scale: f64,
    /// Chen & Asau's cutpoints over `n` equal buckets of `[0, 1)`:
    /// `guide[j]` is the number of CDF values whose bucket is below `j`,
    /// so no `u` in bucket `j` ranks lower. One slot more than buckets, as
    /// `u · n` may round up to `n`.
    guide: Vec<u32>,
}

impl ZipfTable {
    fn new(n: usize, s: f64) -> ZipfTable {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfTable::from_cdf(cdf)
    }

    /// The table over a non-empty, non-decreasing `cdf`.
    fn from_cdf(cdf: Vec<f64>) -> ZipfTable {
        let n = cdf.len();
        assert!(u32::try_from(n).is_ok(), "zipf ranks must fit a u32");
        let mut table = ZipfTable {
            cdf,
            scale: n as f64,
            guide: Vec::new(),
        };
        let mut i = 0;
        table.guide = (0..=n)
            .map(|j| {
                while i < n && table.bucket(table.cdf[i]) < j {
                    i += 1;
                }
                i.min(n - 1) as u32
            })
            .collect();
        table
    }

    /// The guide bucket of `u`: the one map both the build and the
    /// sampler use, so a rounding of `u · n` moves the edge for both.
    fn bucket(&self, u: f64) -> usize {
        (u * self.scale) as usize
    }

    /// The first rank whose CDF value is at least `u` (the last rank when
    /// none is). On a strictly increasing CDF that is the rank
    /// `binary_search_by` returns; among equal values it is the one that
    /// has mass.
    fn rank(&self, u: f64) -> usize {
        let cdf = &self.cdf;
        // every CDF value of a lower bucket is below `u`: the walk only
        // crosses the values of `u`'s own bucket, about one for n buckets
        // (a `u` past the last slot, above 1, is past every value)
        let start = self.guide.get(self.bucket(u)).copied();
        let mut i = start.map_or(cdf.len() - 1, |g| g as usize);
        while cdf[i] < u && i + 1 < cdf.len() {
            i += 1;
        }
        i
    }
}

/// Zipf-distributed ranks in `[0, n)` with skew `s`, by inversion of a
/// precomputed CDF through a guide table: a draw is one multiply, one load
/// and about one compare. Matches the access skew of key-popularity
/// workloads (e.g. the hot-block behaviour a burst buffer exploits).
/// Tables are memoized per `(n, s)` so repeated construction is O(1) after
/// the first.
pub struct Zipf {
    table: Rc<ZipfTable>,
}

impl Zipf {
    /// Build the distribution for `n` items with exponent `s` (s = 0 is
    /// uniform; s ≈ 0.99 is the classic YCSB skew).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over empty set");
        let table = ZIPF_TABLE_CACHE.with(|cache| {
            if let Some(table) = cache.borrow().get(&(n, s.to_bits())) {
                return Rc::clone(table);
            }
            let table = Rc::new(ZipfTable::new(n, s));
            cache
                .borrow_mut()
                .insert((n, s.to_bits()), Rc::clone(&table));
            table
        });
        Zipf { table }
    }

    /// Analytic probability mass of `rank` (rank 0 is the most popular):
    /// `(1/(rank+1)^s) / H(n, s)`, read off the normalized CDF.
    pub fn prob(&self, rank: usize) -> f64 {
        let cdf = &self.table.cdf;
        assert!(rank < cdf.len(), "rank out of range");
        if rank == 0 {
            cdf[0]
        } else {
            cdf[rank] - cdf[rank - 1]
        }
    }

    /// Draw a rank in `[0, n)`; rank 0 is the most popular item.
    pub fn sample(&self, rng: &SimRng) -> usize {
        self.table.rank(rng.f64())
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.table.cdf.len()
    }

    /// Whether the distribution is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.table.cdf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let a = SimRng::seed_from(42);
        let b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.range(0, 1_000_000), b.range(0, 1_000_000));
        }
    }

    #[test]
    fn clones_share_one_stream() {
        let a = SimRng::seed_from(7);
        let b = a.clone();
        let x = a.range(0, u64::MAX);
        let fresh = SimRng::seed_from(7);
        assert_eq!(x, fresh.range(0, u64::MAX));
        // b continues the same stream, not a restart
        assert_eq!(b.range(0, u64::MAX), fresh.range(0, u64::MAX));
    }

    #[test]
    fn fork_streams_differ() {
        let a = SimRng::seed_from(1);
        let c1 = a.fork();
        let c2 = a.fork();
        let xs: Vec<u64> = (0..10).map(|_| c1.range(0, u64::MAX)).collect();
        let ys: Vec<u64> = (0..10).map(|_| c2.range(0, u64::MAX)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn exp_mean_is_close() {
        let rng = SimRng::seed_from(99);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let emp = sum / n as f64;
        assert!((emp - mean).abs() < 0.2, "empirical mean {emp}");
    }

    #[test]
    fn normal_pos_is_nonnegative_and_centered() {
        let rng = SimRng::seed_from(3);
        let n = 20_000;
        let vals: Vec<f64> = (0..n).map(|_| rng.normal_pos(10.0, 2.0)).collect();
        assert!(vals.iter().all(|v| *v >= 0.0));
        let mean = vals.iter().sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn zipf_rank0_most_popular() {
        let rng = SimRng::seed_from(17);
        let z = Zipf::new(100, 0.99);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // rank 0 of a 0.99-skew zipf over 100 items gets ~19% of mass
        let p0 = counts[0] as f64 / 50_000.0;
        assert!((p0 - 0.19).abs() < 0.03, "p0 = {p0}");
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let rng = SimRng::seed_from(5);
        let z = Zipf::new(10, 0.0);
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&rng)] += 1;
        }
        for c in counts {
            let p = c as f64 / 50_000.0;
            assert!((p - 0.1).abs() < 0.02, "p = {p}");
        }
    }

    #[test]
    fn zipf_cdf_is_memoized_and_prob_sums_to_one() {
        let a = Zipf::new(4096, 0.99);
        let b = Zipf::new(4096, 0.99);
        // same (n, s) shares one table
        assert!(Rc::ptr_eq(&a.table, &b.table));
        let c = Zipf::new(4096, 1.2);
        assert!(!Rc::ptr_eq(&a.table, &c.table));
        let total: f64 = (0..a.len()).map(|r| a.prob(r)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
        assert!(a.prob(0) > a.prob(1));
    }

    /// The sampler as it was first written: a binary search of the CDF.
    fn rank_by_binary_search(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite")) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    /// Every `u` in `[0, 1)` that can sit on an edge of `table`: zero, the
    /// last float below one, and each bucket edge and each CDF value with
    /// their neighbouring floats.
    fn edge_points(table: &ZipfTable) -> Vec<f64> {
        let n = table.cdf.len();
        let edges = (0..n).map(|j| j as f64 / n as f64);
        let points = table.cdf.iter().copied().chain(edges);
        let near = points.flat_map(|u| [u.next_down(), u, u.next_up()]);
        near.chain([0.0, 1.0f64.next_down()])
            .filter(|u| (0.0..1.0).contains(u))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The guide table returns the binary search's rank for every `u`
        /// on an edge and for random ones.
        #[test]
        fn zipf_sample_is_bit_identical_to_binary_search(
            n in 1usize..5000,
            skew in 0usize..5,
            random in proptest::collection::vec(proptest::prelude::any::<f64>(), 256),
        ) {
            let s = [0.0, 0.5, 0.99, 1.2, 3.0][skew];
            let z = Zipf::new(n, s);
            let table = &z.table;
            proptest::prop_assert_eq!(table.guide.len(), n + 1, "n {} s {}: no guide", n, s);
            let points = edge_points(table);
            proptest::prop_assert!(points.len() >= 2 * n, "n {} s {}: {} points", n, s, points.len());
            for u in points.into_iter().chain(random) {
                let want = rank_by_binary_search(&table.cdf, u);
                proptest::prop_assert_eq!(table.rank(u), want, "n {} s {} u {:e}", n, s, u);
            }
        }
    }

    /// A CDF value one float below the edge `j / n` whose product with `n`
    /// rounds up to `j`: the sampler puts `u` equal to it in bucket `j`, so
    /// the guide must count it in bucket `j` too, not by its real value.
    #[test]
    fn zipf_guide_edges_use_the_samplers_bucket_map() {
        let (n, j) = (10, 9);
        let edge = (j as f64 / n as f64).next_down();
        assert_eq!((edge * n as f64) as usize, j, "the premise: rounds up");
        let mut cdf: Vec<f64> = (0..n).map(|k| (k as f64 + 0.5) / n as f64).collect();
        cdf[j - 1] = edge;
        cdf[n - 1] = 1.0;
        let table = ZipfTable::from_cdf(cdf);
        assert_eq!(table.guide.len(), n + 1);
        for u in edge_points(&table) {
            assert_eq!(
                table.rank(u),
                rank_by_binary_search(&table.cdf, u),
                "u {u:e}"
            );
        }
    }

    /// On a CDF with equal neighbours the walk returns the first rank
    /// whose value is at least `u`: of equal values, the one with mass.
    #[test]
    fn zipf_with_a_flat_cdf_walks_to_the_first_rank_at_least_u() {
        // terms of 1/k^40 past the first few vanish below the sum's ulp
        let z = Zipf::new(64, 40.0);
        let cdf = &z.table.cdf;
        assert!(cdf.windows(2).any(|w| w[0] == w[1]), "the premise: flat");
        let first_at_least = |u: f64| cdf.partition_point(|&v| v < u).min(cdf.len() - 1);
        let rng = SimRng::seed_from(4);
        let random = (0..1000).map(|_| rng.f64());
        for u in edge_points(&z.table)
            .into_iter()
            .chain(random)
            .chain([1.0, 2.0])
        {
            assert_eq!(z.table.rank(u), first_at_least(u), "u {u:e}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let rng = SimRng::seed_from(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }
}
