//! Hashing: FNV-1a for buckets/shards and a ketama-style consistent-hash
//! ring for client-side server selection.
//!
//! Consistent hashing is what lets the burst buffer add/remove KV servers
//! with minimal key movement — the `repro AB4` ablation quantifies the
//! remap fraction against round-robin.

/// 64-bit FNV-1a.
#[inline]
pub fn fnv1a(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Splitmix-style finaliser. FNV-1a alone barely moves the high bits
/// between keys that differ only in their last bytes (`f1:7` vs `f1:8`),
/// so raw hashes of consecutive keys cluster on one arc of the ring.
/// Ring points and lookup keys both go through this, as in ketama, where
/// points and keys share one hash.
#[inline]
fn finalize(mut h: u64) -> u64 {
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// 64-bit FNV-1a seeded with a round index, for ring points.
#[inline]
fn fnv1a_point(data: &[u8], round: u32) -> u64 {
    finalize(fnv1a(data) ^ round as u64)
}

/// Ketama-style consistent-hash ring over abstract members.
#[derive(Debug, Clone)]
pub struct HashRing<T: Clone> {
    /// (point, member index) sorted by point.
    points: Vec<(u64, usize)>,
    members: Vec<T>,
    vnodes: u32,
}

impl<T: Clone> HashRing<T> {
    /// Build a ring with `vnodes` virtual points per member. Member
    /// identity on the ring comes from `label`, so rebuilding with the
    /// same labels yields the same placement.
    pub fn new(members: Vec<T>, labels: &[String], vnodes: u32) -> Self {
        assert_eq!(members.len(), labels.len(), "one label per member");
        assert!(vnodes > 0, "need at least one virtual node");
        let mut points = Vec::with_capacity(members.len() * vnodes as usize);
        for (idx, label) in labels.iter().enumerate() {
            for round in 0..vnodes {
                points.push((fnv1a_point(label.as_bytes(), round), idx));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            members,
            vnodes,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Virtual points per member.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Index of the first ring point at or clockwise of `key`'s hash
    /// (wrapping past the last point). Panics on an empty ring.
    fn first_point(&self, key: &[u8]) -> usize {
        assert!(!self.members.is_empty(), "route on empty ring");
        let h = finalize(fnv1a(key));
        match self.points.binary_search_by_key(&h, |(p, _)| *p) {
            Ok(i) => i,
            Err(i) => i % self.points.len(),
        }
    }

    /// Member owning `key`. Panics on an empty ring. A one-member ring
    /// owns every key without hashing it.
    pub fn route(&self, key: &[u8]) -> &T {
        if let [only] = self.members.as_slice() {
            return only;
        }
        &self.members[self.points[self.first_point(key)].1]
    }

    /// The first `n` distinct members walking clockwise from `key`'s point
    /// (used for replica placement).
    pub fn route_n(&self, key: &[u8], n: usize) -> Vec<&T> {
        let start = self.first_point(key);
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for k in 0..self.points.len() {
            let (_, m) = self.points[(start + k) % self.points.len()];
            if !seen.contains(&m) {
                seen.push(m);
                out.push(&self.members[m]);
                if out.len() == n.min(self.members.len()) {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn ring_of(n: usize) -> HashRing<usize> {
        let members: Vec<usize> = (0..n).collect();
        let labels: Vec<String> = (0..n).map(|i| format!("server-{i}")).collect();
        HashRing::new(members, &labels, 160)
    }

    #[test]
    fn fnv_known_values() {
        // reference vectors for 64-bit FNV-1a
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    /// Ring points are placement: a point that moves remaps every key on
    /// its arc, so these outputs are pinned.
    #[test]
    fn ring_points_match_golden_values() {
        assert_eq!(fnv1a_point(b"kv-server-19", 0), 0x8586_fcf4_4ba4_67c6);
        assert_eq!(fnv1a_point(b"kv-server-19", 159), 0xf17c_a18d_339d_e93a);
        assert_eq!(fnv1a_point(b"kv-server-26", 7), 0x5ec9_39ae_1354_6ab8);
    }

    /// The deployment's ring — KV servers on fabric nodes 19.., labelled
    /// as `Membership` labels them — loaded with the burst buffer's real
    /// chunk keys `f{file}:{seq}`, 16 files of 128 chunks.
    fn deployment_load(n: usize) -> (f64, usize) {
        let labels: Vec<String> = (19..19 + n).map(|i| format!("kv-server-{i}")).collect();
        let ring = HashRing::new((0..n).collect(), &labels, crate::client::VNODES);
        let mut load = vec![0usize; n];
        let mut longest_run = 0;
        for file in 1..=16 {
            let (mut prev, mut run) = (usize::MAX, 0);
            for seq in 0..128 {
                let owner = *ring.route(format!("f{file}:{seq}").as_bytes());
                load[owner] += 1;
                run = if owner == prev { run + 1 } else { 1 };
                prev = owner;
                longest_run = longest_run.max(run);
            }
        }
        let mean = (16 * 128) as f64 / n as f64;
        let max_over_mean = *load.iter().max().unwrap() as f64 / mean;
        (max_over_mean, longest_run)
    }

    /// Consecutive chunks of one file spread over the servers, so a
    /// reader's window fans out instead of queueing on one server. The
    /// bounds sit above the arc shares of 160 points per server (1.10 at
    /// n = 4, 1.14 at n = 8) plus binomial noise over 2 048 keys. Raw
    /// FNV-1a lookups gave one server 100 consecutive seqs of a file.
    #[test]
    fn chunk_keys_spread_over_the_deployment_ring() {
        for (n, bound) in [(4, 1.10), (8, 1.25)] {
            let (skew, run) = deployment_load(n);
            assert!(skew <= bound, "n = {n}: max/mean load {skew:.3} > {bound}");
            assert!(run <= 8, "n = {n}: {run} consecutive seqs on one server");
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let r1 = ring_of(8);
        let r2 = ring_of(8);
        for i in 0..1000u32 {
            let k = format!("key-{i}");
            assert_eq!(r1.route(k.as_bytes()), r2.route(k.as_bytes()));
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = ring_of(8);
        let mut counts: HashMap<usize, usize> = HashMap::new();
        let n = 80_000;
        for i in 0..n {
            let k = format!("block_{i}_chunk_{}", i % 7);
            *counts.entry(*ring.route(k.as_bytes())).or_default() += 1;
        }
        let ideal = n / 8;
        for (m, c) in &counts {
            let dev = (*c as f64 - ideal as f64).abs() / ideal as f64;
            assert!(dev < 0.25, "member {m} holds {c} keys ({dev:.2} off ideal)");
        }
        assert_eq!(counts.len(), 8);
    }

    #[test]
    fn adding_a_member_remaps_about_one_nth() {
        let before = ring_of(8);
        let after = ring_of(9);
        let n = 40_000;
        let mut moved = 0;
        for i in 0..n {
            let k = format!("key-{i}");
            if before.route(k.as_bytes()) != after.route(k.as_bytes()) {
                moved += 1;
            }
        }
        let frac = moved as f64 / n as f64;
        // ideal is 1/9 ≈ 0.11; consistent hashing should stay well under 0.2
        assert!(frac < 0.2, "remap fraction {frac}");
        assert!(frac > 0.03, "suspiciously little movement: {frac}");
    }

    #[test]
    fn route_n_distinct_members() {
        let ring = ring_of(5);
        let replicas = ring.route_n(b"some-key", 3);
        assert_eq!(replicas.len(), 3);
        let mut sorted: Vec<usize> = replicas.iter().map(|r| **r).collect();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
        // first replica must agree with route()
        assert_eq!(replicas[0], ring.route(b"some-key"));
    }

    #[test]
    fn route_n_caps_at_member_count() {
        let ring = ring_of(2);
        assert_eq!(ring.route_n(b"k", 5).len(), 2);
    }

    #[test]
    fn single_member_takes_everything() {
        let ring = ring_of(1);
        for i in 0..100u32 {
            assert_eq!(*ring.route(format!("{i}").as_bytes()), 0);
        }
    }

    proptest::proptest! {
        /// `route` skips the hash on a one-member ring; the walk agrees.
        #[test]
        fn a_single_member_route_agrees_with_the_walk(
            key in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let ring = HashRing::new(vec![7u32], &["solo".to_string()], 160);
            proptest::prop_assert_eq!(ring.route(&key), ring.route_n(&key, 1)[0]);
        }
    }
}
