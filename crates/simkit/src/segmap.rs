//! A sparse byte range kept as [`Bytes`] handles instead of bytes.
//!
//! [`SegmentMap`] has the contents of a zero-initialised flat buffer of
//! unbounded length, but a write stores the caller's handle (zero-copy)
//! keyed by offset, trimming whatever it overlaps, and a read hands back
//! the stored handles themselves: [`SegmentMap::read_gather`] is a
//! [`Gather`] of views of the segments in range (plus zero buffers for
//! gaps), and [`SegmentMap::read`] joins it only when the range spans
//! more than one segment.
//! Both places the simulator parks payloads use it — an object on a
//! simulated disk (`storesim`) and a registered memory region (`rdmasim`)
//! — so host memory follows the number of live handles, not the logical
//! bytes written: workloads deal slices of one shared pattern buffer.
//!
//! A stored segment pins the allocation behind its handle until it is
//! overwritten in full or the map is dropped.

use std::collections::BTreeMap;
use std::ops::Bound::Excluded;

use bytes::Bytes;

use crate::Gather;

/// offset → bytes over a zero-filled address range; segments never
/// overlap and none is empty.
#[derive(Default)]
pub struct SegmentMap {
    segments: BTreeMap<u64, Bytes>,
}

impl SegmentMap {
    /// An all-zero range.
    pub fn new() -> SegmentMap {
        SegmentMap::default()
    }

    /// Write `data` at `offset`, trimming every segment it overlaps.
    /// Returns by how much the stored (non-gap) bytes grew: `data.len()`
    /// less what it overwrote.
    ///
    /// A segment that already starts at `offset` is replaced in place, so
    /// rewriting the same range over and over — every GET of a pooled
    /// registered buffer lands at its offset 0 — neither allocates nor
    /// moves a tree node.
    pub fn insert(&mut self, offset: u64, data: Bytes) -> u64 {
        if data.is_empty() {
            return 0;
        }
        let added = data.len() as u64;
        let end = offset + added;
        let mut freed = 0;
        match self.segments.insert(offset, data) {
            Some(old) => freed += self.displace(offset, old, end),
            // a segment starting below `offset` may reach into the range:
            // it keeps its left part (and, past `end`, its right part)
            None => {
                if let Some((&k, seg)) = self.segments.range_mut(..offset).next_back() {
                    let seg_end = k + seg.len() as u64;
                    if seg_end > offset {
                        let left = seg.slice(..(offset - k) as usize);
                        let old = std::mem::replace(seg, left);
                        freed += self.displace(k, old, end) - (offset - k);
                    }
                }
            }
        }
        while let Some((&k, _)) = self
            .segments
            .range((Excluded(offset), Excluded(end)))
            .next()
        {
            let old = self.segments.remove(&k).expect("key just seen");
            freed += self.displace(k, old, end);
        }
        added - freed
    }

    /// `seg` started at `k < end` and has lost its place to a write ending
    /// at `end`: keep what sticks out past `end`, and return how many of
    /// its bytes (counted from `k`) did not survive.
    fn displace(&mut self, k: u64, seg: Bytes, end: u64) -> u64 {
        let seg_end = k + seg.len() as u64;
        if seg_end > end {
            self.segments.insert(end, seg.slice((end - k) as usize..));
            end - k
        } else {
            seg.len() as u64
        }
    }

    /// The bytes of `[offset, offset + len)` as views of the stored
    /// segments, in order, with a fresh zero buffer for each gap: nothing
    /// stored is copied, and one segment covering the range comes back as
    /// one view of it.
    pub fn read_gather(&self, offset: u64, len: u64) -> Gather {
        let end = offset + len;
        // the segment starting at or below `offset` may reach into range
        let below = self.segments.range(..=offset).next_back();
        if let Some((&k, seg)) = below {
            if end <= k + seg.len() as u64 {
                // the common case, answered without building a list: every
                // GET of a pooled registered buffer reads one segment
                return seg.slice((offset - k) as usize..(end - k) as usize).into();
            }
        }
        let mut out = Gather::default();
        let mut pos = offset;
        let first = below.map_or(offset, |(&k, _)| k);
        for (&k, seg) in self.segments.range(first..end) {
            let seg_end = k + seg.len() as u64;
            if seg_end <= pos {
                continue;
            }
            if k > pos {
                out.push(Bytes::from(vec![0u8; (k - pos) as usize]));
                pos = k;
            }
            let to = seg_end.min(end);
            out.push(seg.slice((pos - k) as usize..(to - k) as usize));
            pos = to;
        }
        if pos < end {
            out.push(Bytes::from(vec![0u8; (end - pos) as usize]));
        }
        out
    }

    /// The bytes of `[offset, offset + len)`, gaps reading as zeros:
    /// [`SegmentMap::read_gather`] joined — a zero-copy view when one
    /// stored segment covers the range.
    pub fn read(&self, offset: u64, len: u64) -> Bytes {
        self.read_gather(offset, len).concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `insert` returns is what `storesim`'s capacity accounting
    /// settles its reservation against: the change in covered bytes.
    #[test]
    fn insert_reports_the_change_in_stored_bytes() {
        let mut map = SegmentMap::new();
        let mut covered = [false; 64];
        // fresh, gap, straddle two + a gap, inside one, exact, shorter at
        // the same offset, longer at the same offset, swallow everything
        let writes: [(u64, usize); 9] = [
            (0, 10),
            (20, 10),
            (5, 20),
            (8, 4),
            (8, 4),
            (20, 3),
            (20, 30),
            (40, 0),
            (0, 64),
        ];
        for (i, &(offset, len)) in writes.iter().enumerate() {
            let before = covered.iter().filter(|c| **c).count() as u64;
            covered[offset as usize..offset as usize + len].fill(true);
            let after = covered.iter().filter(|c| **c).count() as u64;
            let grew = map.insert(offset, Bytes::from(vec![i as u8 + 1; len]));
            assert_eq!(grew, after - before, "write {i} at {offset}+{len}");
        }
        assert_eq!(map.segments.len(), 1);
    }

    #[test]
    fn same_offset_overwrite_is_in_place_and_keeps_the_stale_tail() {
        let mut map = SegmentMap::new();
        map.insert(0, Bytes::from(vec![1u8; 16]));
        map.insert(0, Bytes::from(vec![2u8; 4]));
        map.insert(0, Bytes::from(vec![3u8; 4]));
        assert_eq!(map.segments.len(), 2);
        let got = map.read(0, 16);
        assert_eq!(&got[..4], &[3u8; 4]);
        assert_eq!(&got[4..], &[1u8; 12]);
    }

    #[test]
    fn covered_reads_are_views_and_gaps_read_as_zeros() {
        let mut map = SegmentMap::new();
        let src = Bytes::from(vec![7u8; 32]);
        map.insert(8, src.clone());
        let view = map.read(12, 8);
        assert_eq!(view.as_ptr(), src.as_ptr().wrapping_add(4));
        let wide = map.read(4, 40);
        assert_eq!(&wide[..4], &[0u8; 4]);
        assert_eq!(&wide[4..36], &[7u8; 32]);
        assert_eq!(&wide[36..], &[0u8; 4]);
        assert!(map.read(100, 0).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `read_gather` against a flat zero-initialised buffer: random
        /// writes (overlapping, abutting, leaving gaps), then random reads
        /// whose elements must be views of what was written — only gaps
        /// may come back as fresh buffers.
        #[test]
        fn read_gather_matches_a_flat_buffer(
            writes in proptest::collection::vec((0u64..200, 0usize..64), 1..12),
            reads in proptest::collection::vec((0u64..260, 0u64..120), 1..8),
        ) {
            const SPAN: usize = 400;
            let mut flat = vec![0u8; SPAN];
            let mut map = SegmentMap::new();
            let mut sources = Vec::new();
            for (i, &(offset, len)) in writes.iter().enumerate() {
                let data = Bytes::from(
                    (0..len).map(|j| (i * 37 + j) as u8 | 1).collect::<Vec<u8>>(),
                );
                flat[offset as usize..offset as usize + len].copy_from_slice(&data);
                map.insert(offset, data.clone());
                sources.push(data);
            }
            for &(offset, len) in &reads {
                let want = &flat[offset as usize..(offset + len) as usize];
                let got = map.read_gather(offset, len);
                proptest::prop_assert_eq!(got.len() as u64, len);
                for e in got.iter() {
                    let from_a_write = sources.iter().any(|s| {
                        let p = e.as_ptr() as usize;
                        p >= s.as_ptr() as usize && p + e.len() <= s.as_ptr() as usize + s.len()
                    });
                    // the pattern bytes are odd, so a zero byte marks a gap
                    proptest::prop_assert!(from_a_write || e.iter().all(|&b| b == 0));
                }
                proptest::prop_assert_eq!(&got.concat()[..], want);
                proptest::prop_assert_eq!(&map.read(offset, len)[..], want);
            }
        }
    }
}
