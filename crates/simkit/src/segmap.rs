//! A sparse byte range kept as [`Bytes`] handles instead of bytes.
//!
//! [`SegmentMap`] has the contents of a zero-initialised flat buffer of
//! unbounded length, but a write stores the caller's handle (zero-copy)
//! keyed by offset, trimming whatever it overlaps, and a read hands back
//! a view of the stored handle whenever one segment covers the range.
//! Both places the simulator parks payloads use it — an object on a
//! simulated disk (`storesim`) and a registered memory region (`rdmasim`)
//! — so host memory follows the number of live handles, not the logical
//! bytes written: workloads deal slices of one shared pattern buffer.
//!
//! A stored segment pins the allocation behind its handle until it is
//! overwritten in full or the map is dropped.

use std::collections::BTreeMap;
use std::ops::Bound::Excluded;

use bytes::{Bytes, BytesMut};

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

    /// The bytes of `[offset, offset + len)`, gaps reading as zeros: a
    /// zero-copy view when one stored segment covers the range, else
    /// assembled into a fresh buffer in one pass.
    pub fn read(&self, offset: u64, len: u64) -> Bytes {
        let end = offset + len;
        let below = self.segments.range(..=offset).next_back();
        if let Some((&k, seg)) = below {
            if end <= k + seg.len() as u64 {
                return seg.slice((offset - k) as usize..(end - k) as usize);
            }
        }
        let mut out = BytesMut::with_capacity(len as usize);
        let first = below.map_or(offset, |(&k, _)| k);
        for (&k, seg) in self.segments.range(first..end) {
            let seg_end = k + seg.len() as u64;
            if seg_end <= offset {
                continue;
            }
            let from = k.max(offset);
            // the gap up to this segment, then the part of it in range
            out.resize((from - offset) as usize, 0);
            out.extend_from_slice(&seg[(from - k) as usize..(seg_end.min(end) - k) as usize]);
        }
        out.resize(len as usize, 0);
        out.freeze()
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
}
