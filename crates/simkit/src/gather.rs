//! A byte sequence kept as the handles it was assembled from: a gather
//! list, the way `ibv_post_send` takes one work request with several
//! scatter/gather elements. The simulator's payloads are [`Bytes`]
//! handles into a few shared allocations; every layer that moves them —
//! a SEND on a queue pair, an OST read, a stripe-spanning Lustre read, a
//! burst-buffer read window, a map task's split — passes the handles it
//! already holds instead of joining them into a fresh buffer.
//!
//! The rule the read path keeps: a read returns views; bytes are joined
//! once, by [`Gather::concat`], at an API that must return one buffer,
//! after its last await — and not even then when the pieces are adjacent
//! views of one allocation, as the chunks a writer cut from one append
//! are: those rejoin into the writer's own view, nothing copied. A piece
//! in another allocation (a fault-injected copy, a foreign buffer) is
//! never taken for its neighbour, however equal its bytes.

use std::collections::VecDeque;
use std::ops::{Bound, RangeBounds};

use bytes::{Buf, Bytes};

/// Bytes held as one buffer or as buffers back to back.
///
/// A `Gather` is also a [`Buf`] over its bytes in order, so a decoder can
/// read it without joining the pieces. `copy_to_bytes` and
/// [`Gather::slice`] hand back a zero-copy view whenever the range lies
/// inside one element — a value sent as its own element comes out as the
/// sender's very handle — and `copy_to_bytes`, like [`Gather::concat`],
/// also when the elements it spans are adjacent views of one allocation.
#[derive(Debug, Clone)]
pub struct Gather(Repr);

#[derive(Debug, Clone)]
enum Repr {
    /// The common case, kept as the one handle with nothing allocated.
    One(Bytes),
    /// Boxed so a `Gather` is no larger than a `Bytes`: every in-flight
    /// SEND's future holds one.
    Many(Box<Elems>),
}

#[derive(Debug, Clone)]
struct Elems {
    /// Non-empty elements in order.
    elems: VecDeque<Bytes>,
    /// Their summed length.
    len: usize,
}

impl Default for Gather {
    fn default() -> Gather {
        Gather(Repr::One(Bytes::new()))
    }
}

impl From<Bytes> for Gather {
    fn from(b: Bytes) -> Gather {
        Gather(Repr::One(b))
    }
}

impl From<Vec<Bytes>> for Gather {
    /// A gather list. Empty elements carry no bytes and are dropped; the
    /// list's buffer is moved into the gather, not copied.
    fn from(mut elems: Vec<Bytes>) -> Gather {
        elems.retain(|b| !b.is_empty());
        let len = elems.iter().map(Bytes::len).sum();
        Gather(Repr::Many(Box::new(Elems {
            elems: elems.into(),
            len,
        })))
    }
}

impl Gather {
    /// Total bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::One(b) => b.len(),
            Repr::Many(g) => g.len,
        }
    }

    /// Whether the gather carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `b` as the last element (zero-copy; an empty `b` is dropped).
    pub fn push(&mut self, b: Bytes) {
        if b.is_empty() {
            return;
        }
        match &mut self.0 {
            Repr::One(first) if first.is_empty() => *first = b,
            Repr::One(first) => {
                let len = first.len() + b.len();
                let elems = VecDeque::from([first.clone(), b]);
                self.0 = Repr::Many(Box::new(Elems { elems, len }));
            }
            Repr::Many(g) => {
                g.len += b.len();
                g.elems.push_back(b);
            }
        }
    }

    /// The non-empty elements, in order.
    pub fn iter(&self) -> impl Iterator<Item = &Bytes> {
        let (one, many) = match &self.0 {
            Repr::One(b) => (Some(b), None),
            Repr::Many(g) => (None, Some(g.elems.iter())),
        };
        one.into_iter()
            .chain(many.into_iter().flatten())
            .filter(|b| !b.is_empty())
    }

    /// The bytes of `range` as views of the elements that hold them, with
    /// nothing copied; one element's own view when one element covers the
    /// range.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Gather {
        let len = self.len();
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => len,
        };
        assert!(
            start <= end && end <= len,
            "slice {start}..{end} out of a {len}-byte gather"
        );
        let mut out = Gather::default();
        let mut at = 0;
        for e in self.iter() {
            let e_end = at + e.len();
            if e_end > start && at < end {
                out.push(e.slice(start.max(at) - at..end.min(e_end) - at));
            }
            if e_end >= end {
                break;
            }
            at = e_end;
        }
        out
    }

    /// The bytes as one contiguous buffer: the handle itself for a single
    /// element, one view when the elements are adjacent views of one
    /// allocation, a copy joining them otherwise.
    pub fn concat(self) -> Bytes {
        match self.0 {
            Repr::One(b) => b,
            Repr::Many(g) => join(g.elems.iter().cloned(), g.len),
        }
    }

    /// XOR `mask` into the byte at `offset`, copying only the element that
    /// holds it: every other element stays the sender's handle, and the
    /// sender's copy of the flipped one is untouched. (Fault injection:
    /// transit corruption of a SEND.)
    pub fn flip(&mut self, offset: usize, mask: u8) {
        let flip_in = |b: &mut Bytes, at: usize| {
            let mut v = b.to_vec();
            v[at] ^= mask;
            *b = Bytes::from(v);
        };
        match &mut self.0 {
            Repr::One(b) => flip_in(b, offset),
            Repr::Many(g) => {
                let mut at = offset;
                for e in g.elems.iter_mut() {
                    if at < e.len() {
                        return flip_in(e, at);
                    }
                    at -= e.len();
                }
                panic!("flip offset {offset} past the gather's end");
            }
        }
    }
}

impl Extend<Bytes> for Gather {
    /// Append each element in order ([`Gather::push`]).
    fn extend<I: IntoIterator<Item = Bytes>>(&mut self, elems: I) {
        elems.into_iter().for_each(|b| self.push(b));
    }
}

impl IntoIterator for Gather {
    type Item = Bytes;
    type IntoIter = std::iter::Chain<
        std::option::IntoIter<Bytes>,
        std::collections::vec_deque::IntoIter<Bytes>,
    >;

    /// The non-empty elements, in order, as the handles themselves.
    fn into_iter(self) -> Self::IntoIter {
        match self.0 {
            Repr::One(b) => Some(b)
                .filter(|b| !b.is_empty())
                .into_iter()
                .chain(VecDeque::new()),
            Repr::Many(g) => None.into_iter().chain(g.elems),
        }
    }
}

impl Buf for Gather {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        match &self.0 {
            Repr::One(b) => b,
            Repr::Many(g) => g.elems.front().map_or(&[], |b| b),
        }
    }

    fn advance(&mut self, mut cnt: usize) {
        match &mut self.0 {
            Repr::One(b) => b.advance(cnt),
            Repr::Many(g) => {
                assert!(cnt <= g.len, "advance past end");
                g.len -= cnt;
                while cnt > 0 {
                    let front = g.elems.front_mut().expect("len counts the elements");
                    if cnt < front.len() {
                        front.advance(cnt);
                        return;
                    }
                    cnt -= front.len();
                    g.elems.pop_front();
                }
            }
        }
    }

    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        match &mut self.0 {
            Repr::One(b) => b.copy_to_bytes(n),
            Repr::Many(g) => match g.elems.front_mut() {
                Some(front) if n <= front.len() => {
                    let out = front.split_to(n);
                    if front.is_empty() {
                        g.elems.pop_front();
                    }
                    g.len -= n;
                    out
                }
                // the range crosses a seam: join its pieces
                _ => {
                    assert!(n <= g.len, "copy past end");
                    let mut left = n;
                    let pieces = g.elems.iter().map_while(move |e| {
                        let take = e.len().min(left);
                        left -= take;
                        (take > 0).then(|| e.slice(..take))
                    });
                    let out = join(pieces, n);
                    self.advance(n);
                    out
                }
            },
        }
    }
}

/// The one place a gather's bytes are joined: `pieces` (`len` bytes in
/// all, in order) as one buffer. When each piece begins where the one
/// before it ends, in the same allocation, that is the allocation's own
/// view and nothing is copied; otherwise the pieces are copied once.
fn join(pieces: impl Iterator<Item = Bytes> + Clone, len: usize) -> Bytes {
    let mut rest = pieces.clone();
    let Some(first) = rest.next() else {
        return Bytes::new();
    };
    if let Some(view) = rest.try_fold(first, |joined, next| joined.try_unsplit(&next)) {
        return view;
    }
    let mut v = Vec::with_capacity(len);
    pieces.for_each(|p| v.extend_from_slice(&p));
    Bytes::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gather(parts: &[&'static [u8]]) -> Gather {
        Gather::from(
            parts
                .iter()
                .map(|p| Bytes::from_static(p))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn a_gather_list_reads_as_its_concatenation() {
        let mut f = gather(&[
            b"\x01\x02",
            b"",
            b"\x03\x04\x05\x06\x07",
            b"\x08\x09\x0a\x0b",
        ]);
        assert_eq!(f.len(), 11);
        assert_eq!(f.clone().concat(), [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        // a u32 across the first seam, then a u64 across the second
        assert_eq!(f.get_u32_le(), u32::from_le_bytes([1, 2, 3, 4]));
        assert_eq!(f.get_u8(), 5);
        assert_eq!(f.copy_to_bytes(5), [6u8, 7, 8, 9, 10]);
        assert_eq!(f.remaining(), 1);
        assert_eq!(f.get_u8(), 11);
        assert!(f.is_empty());
    }

    #[test]
    fn a_whole_element_comes_back_as_the_senders_handle() {
        let value = Bytes::from(vec![7u8; 4096]);
        let mut f = Gather::from(vec![Bytes::from_static(b"hdr"), value.clone()]);
        f.advance(3);
        let got = f.copy_to_bytes(4096);
        assert_eq!(got.as_ptr(), value.as_ptr());
        assert_eq!(f.remaining(), 0);
    }

    #[test]
    fn one_buffer_stays_that_buffer() {
        let b = Bytes::from(vec![1u8; 64]);
        let f = Gather::from(b.clone());
        assert_eq!(f.len(), 64);
        assert_eq!(f.concat().as_ptr(), b.as_ptr());
        // so does a list of one, however it was built
        let mut g = Gather::default();
        g.push(Bytes::new());
        g.push(b.clone());
        assert_eq!(g.clone().concat().as_ptr(), b.as_ptr());
        let listed = Gather::from(vec![Bytes::new(), b.clone()]);
        assert_eq!(listed.concat().as_ptr(), b.as_ptr());
    }

    #[test]
    fn flip_copies_only_the_element_it_hits() {
        let (a, b) = (Bytes::from(vec![0u8; 4]), Bytes::from(vec![0u8; 4]));
        let mut f = Gather::from(vec![a.clone(), b.clone()]);
        f.flip(6, 0x10);
        assert_eq!(f.clone().concat(), [0u8, 0, 0, 0, 0, 0, 0x10, 0]);
        assert_eq!(b, [0u8; 4], "the sender's handle is untouched");
        assert_eq!(
            f.copy_to_bytes(4).as_ptr(),
            a.as_ptr(),
            "other elements stay shared"
        );
    }

    #[test]
    fn adjacent_views_rejoin_into_the_writers_buffer() {
        let buf = Bytes::from((0u8..12).collect::<Vec<_>>());
        let run = || Gather::from(vec![buf.slice(..4), buf.slice(4..9), buf.slice(9..)]);
        assert_eq!(run().concat().as_ptr(), buf.as_ptr());
        let mut g = run();
        g.advance(2);
        let got = g.copy_to_bytes(8);
        assert_eq!(
            (got.as_ptr(), &got[..]),
            (buf.as_ptr().wrapping_add(2), &buf[2..10])
        );
        assert_eq!(g.concat().as_ptr(), buf.as_ptr().wrapping_add(10));
    }

    #[test]
    fn a_flipped_element_inside_an_adjacent_run_comes_back_flipped() {
        let buf = Bytes::from(vec![0u8; 12]);
        let mut g = Gather::from(vec![buf.slice(..4), buf.slice(4..8), buf.slice(8..)]);
        g.flip(5, 0x20);
        let mut want = [0u8; 12];
        want[5] = 0x20;
        let joined = g.clone().concat();
        assert_eq!(joined, want);
        assert_ne!(
            joined.as_ptr(),
            buf.as_ptr(),
            "never the undamaged original"
        );
        g.advance(1);
        assert_eq!(g.copy_to_bytes(10), want[1..11]);
        assert_eq!(buf, [0u8; 12], "the writer's buffer is untouched");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// One buffer cut at random points, some pieces swapped for the
        /// same range of a twin allocation (equal bytes, equal offsets:
        /// only the allocation differs), a flipped copy, a fresh copy, or
        /// a view of the same buffer from elsewhere. Joined — by `concat`,
        /// and by `copy_to_bytes` over any range — the gather reads as the
        /// flat join, and comes back as a view exactly when every piece it
        /// covers is a view of one allocation beginning where the one
        /// before it ends.
        #[test]
        fn joins_equal_the_flat_join_and_are_views_exactly_when_adjacent(
            cuts in proptest::collection::vec(1usize..64, 0..8),
            kinds in proptest::collection::vec(0u8..6, 9),
            reads in proptest::collection::vec((0usize..=64, 0usize..=64), 1..6),
        ) {
            const SPAN: usize = 64;
            let buf = Bytes::from((0..SPAN).map(|i| (i * 7 + 1) as u8).collect::<Vec<_>>());
            let twin = Bytes::from(buf.to_vec());
            let mut bounds = cuts.clone();
            bounds.extend([0, SPAN]);
            bounds.sort_unstable();
            bounds.dedup();
            // per piece: its logical start and, for a view of `buf` or
            // `twin`, which one and the address it starts at
            let mut pieces = Vec::new();
            let mut layout: Vec<(usize, Option<(u8, usize)>)> = Vec::new();
            let mut flat = Vec::new();
            let mut flips = Vec::new();
            let view = |from: &Bytes, id: u8, lo: usize, len: usize| {
                let v = from.slice(lo..lo + len);
                let at = v.as_ptr() as usize;
                (v, Some((id, at)))
            };
            for (w, k) in bounds.windows(2).zip(&kinds) {
                let (lo, len) = (w[0], w[1] - w[0]);
                let (piece, origin) = match k {
                    2 => view(&twin, 1, lo, len),
                    3 => {
                        flips.push(lo + len / 2);
                        (buf.slice(lo..lo + len), None)
                    }
                    4 if len < SPAN => view(&buf, 0, (lo + 1) % (SPAN - len + 1), len),
                    5 => (Bytes::copy_from_slice(&buf[lo..lo + len]), None),
                    _ => view(&buf, 0, lo, len),
                };
                layout.push((lo, origin));
                flat.extend_from_slice(&piece);
                pieces.push(piece);
            }
            let mut g = Gather::from(pieces);
            for &at in &flips {
                g.flip(at, 0x5a);
                flat[at] ^= 0x5a;
            }
            // where a join of `[a, a + n)` must point: into `buf` or `twin`
            // exactly when every covered piece is an adjacent view of it
            let want_ptr = |a: usize, n: usize| -> Option<usize> {
                let covered: Vec<usize> = (0..layout.len())
                    .filter(|&i| {
                        let end = layout.get(i + 1).map_or(SPAN, |l| l.0);
                        layout[i].0 < a + n && end > a
                    })
                    .collect();
                let first = *covered.first()?;
                for pair in covered.windows(2) {
                    let (prev, next) = (layout[pair[0]], layout[pair[1]]);
                    let (prev_id, prev_at) = prev.1?;
                    let len = next.0 - prev.0;
                    if next.1? != (prev_id, prev_at + len) {
                        return None;
                    }
                }
                Some(layout[first].1?.1 + a - layout[first].0)
            };
            let inside = |b: &Bytes| {
                let p = b.as_ptr() as usize;
                [&buf, &twin]
                    .iter()
                    .any(|o| p >= o.as_ptr() as usize && p + b.len() <= o.as_ptr() as usize + SPAN)
                    .then_some(p)
            };
            let whole = g.clone().concat();
            proptest::prop_assert_eq!(&whole[..], &flat[..]);
            proptest::prop_assert_eq!(inside(&whole), want_ptr(0, SPAN));
            for &(a, n) in &reads {
                let a = a.min(SPAN);
                let n = n.min(SPAN - a);
                let mut cur = g.clone();
                cur.advance(a);
                let got = cur.copy_to_bytes(n);
                proptest::prop_assert_eq!(&got[..], &flat[a..a + n]);
                if n > 0 {
                    proptest::prop_assert_eq!(inside(&got), want_ptr(a, n));
                }
                proptest::prop_assert_eq!(cur.remaining(), SPAN - a - n);
                proptest::prop_assert_eq!(&cur.concat()[..], &flat[a + n..]);
            }
        }
    }

    #[test]
    fn slice_edges() {
        let (a, b, c) = (
            Bytes::from((0u8..4).collect::<Vec<_>>()),
            Bytes::from((4u8..10).collect::<Vec<_>>()),
            Bytes::from((10u8..12).collect::<Vec<_>>()),
        );
        let g = Gather::from(vec![a.clone(), b.clone(), c.clone()]);
        let whole: Vec<u8> = (0u8..12).collect();
        // empty, anywhere
        for at in [0, 3, 4, 12] {
            let s = g.slice(at..at);
            assert!(s.is_empty() && s.iter().count() == 0, "empty at {at}");
        }
        // inside one element: that element's own view
        let inside = g.slice(5..9);
        assert_eq!(inside.iter().count(), 1);
        assert_eq!(inside.clone().concat().as_ptr(), b.as_ptr().wrapping_add(1));
        assert_eq!(inside.concat(), whole[5..9]);
        // exactly one element
        assert_eq!(g.slice(4..10).concat().as_ptr(), b.as_ptr());
        // straddling two and three elements: views, nothing copied
        let two = g.slice(2..6);
        let ptrs: Vec<_> = two.iter().map(|e| e.as_ptr()).collect();
        assert_eq!(ptrs, [a.as_ptr().wrapping_add(2), b.as_ptr()]);
        assert_eq!(two.concat(), whole[2..6]);
        let three = g.slice(1..=10);
        assert_eq!(three.iter().map(Bytes::len).collect::<Vec<_>>(), [3, 6, 1]);
        assert_eq!(three.concat(), whole[1..11]);
        // the whole list, every way of saying it
        for s in [g.slice(..), g.slice(0..12), g.slice(0..)] {
            assert_eq!(s.iter().count(), 3);
            assert_eq!(s.len(), 12);
            assert_eq!(s.concat(), whole[..]);
        }
        // a slice of a slice, and of a one-buffer gather
        assert_eq!(g.slice(1..11).slice(2..5).concat(), whole[3..6]);
        let one = Gather::from(a.clone());
        assert_eq!(
            one.slice(1..3).concat().as_ptr(),
            a.as_ptr().wrapping_add(1)
        );
    }

    #[test]
    #[should_panic(expected = "out of a 4-byte gather")]
    fn slice_past_the_end_panics() {
        gather(&[b"ab", b"cd"]).slice(3..5);
    }

    #[test]
    fn elements_iterate_in_order_by_reference_and_by_value() {
        let g = gather(&[b"ab", b"", b"cde"]);
        let by_ref: Vec<&[u8]> = g.iter().map(|e| &e[..]).collect();
        assert_eq!(by_ref, [&b"ab"[..], &b"cde"[..]]);
        let by_val: Vec<Bytes> = g.into_iter().collect();
        assert_eq!(by_val, [&b"ab"[..], &b"cde"[..]]);
        assert_eq!(Gather::default().into_iter().count(), 0);
        assert_eq!(
            Gather::from(Bytes::from_static(b"x")).into_iter().count(),
            1
        );
    }
}
