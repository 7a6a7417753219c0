//! Zero-copy synthetic payloads.
//!
//! Workload generators hand out slices of one shared pseudorandom pattern
//! buffer. Every layer that parks a payload keeps the [`Bytes`] handle it
//! was given — `storesim` objects and `rdmasim` registered regions (one
//! `simkit::SegmentMap`), and the KV slab, which production deployments
//! run non-materialised (`SlabConfig::materialize = false`) — so a
//! multi-gigabyte logical dataset costs megabytes of host memory while
//! remaining real, checkable byte content.

use bytes::Bytes;
use simkit::SimRng;

/// A shared pattern buffer that deals out arbitrary-length payloads.
#[derive(Clone)]
pub struct PayloadPool {
    pattern: Bytes,
}

impl PayloadPool {
    /// Build a pool with a pattern buffer of `pattern_len` pseudorandom
    /// bytes (seeded — identical across runs).
    pub fn new(seed: u64, pattern_len: usize) -> PayloadPool {
        let rng = SimRng::seed_from(seed);
        let mut buf = vec![0u8; pattern_len];
        rng.fill_bytes(&mut buf);
        PayloadPool {
            pattern: Bytes::from(buf),
        }
    }

    /// Default pool: 4 MiB of pattern.
    pub fn standard() -> PayloadPool {
        PayloadPool::new(0x9e3779b97f4a7c15, 4 << 20)
    }

    /// A payload of exactly `len` bytes, starting at a position derived
    /// from `cursor` so consecutive payloads differ. Zero-copy when `len`
    /// fits inside the pattern at the chosen offset; payloads larger than
    /// the pattern are stitched from pattern-sized slices by the caller via
    /// [`PayloadPool::stream`].
    pub fn slice(&self, cursor: u64, len: usize) -> Bytes {
        let plen = self.pattern.len();
        assert!(
            len <= plen,
            "slice() limited to the pattern length; use stream()"
        );
        let start = (cursor as usize * 8191) % (plen - len + 1);
        self.pattern.slice(start..start + len)
    }

    /// Deal `total` bytes as a sequence of zero-copy pieces of at most
    /// `piece` bytes (callers append them one by one).
    pub fn stream(&self, mut cursor: u64, total: u64, piece: usize) -> Vec<Bytes> {
        assert!(piece > 0 && piece <= self.pattern.len());
        let mut out = Vec::with_capacity((total as usize).div_ceil(piece));
        let mut remaining = total;
        while remaining > 0 {
            let take = (piece as u64).min(remaining) as usize;
            out.push(self.slice(cursor, take));
            cursor += 1;
            remaining -= take as u64;
        }
        out
    }

    /// Pattern length.
    pub fn pattern_len(&self) -> usize {
        self.pattern.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let a = PayloadPool::new(7, 1 << 20);
        let b = PayloadPool::new(7, 1 << 20);
        assert_eq!(a.slice(3, 1000), b.slice(3, 1000));
        let c = PayloadPool::new(8, 1 << 20);
        assert_ne!(a.slice(3, 1000), c.slice(3, 1000));
    }

    #[test]
    fn consecutive_payloads_differ() {
        let p = PayloadPool::standard();
        assert_ne!(p.slice(0, 4096), p.slice(1, 4096));
    }

    #[test]
    fn stream_covers_total_exactly() {
        let p = PayloadPool::standard();
        let pieces = p.stream(0, 10 * 1_000_000 + 37, 1 << 20);
        let total: usize = pieces.iter().map(|b| b.len()).sum();
        assert_eq!(total, 10_000_037);
        assert!(pieces.iter().rev().skip(1).all(|b| b.len() == 1 << 20));
    }

    #[test]
    fn slices_share_backing_storage() {
        let p = PayloadPool::standard();
        let s = p.slice(0, 1 << 20);
        // zero-copy: the slice points into the pool's pattern allocation
        assert_eq!(s.len(), 1 << 20);
        // (Bytes::slice guarantees shared ownership; this is a smoke check
        // that no accidental to_vec() crept in — equality with the source)
        let again = p.slice(0, 1 << 20);
        assert_eq!(s, again);
    }
}
