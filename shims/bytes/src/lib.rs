//! Offline shim for the `bytes` crate: the API subset this workspace uses,
//! implemented over an `Arc`'d `Vec<u8>`. Cheap clones, zero-copy `slice`/`split_to`
//! and an O(1), pointer-preserving `From<Vec<u8>>`/`BytesMut::freeze` are
//! preserved (the `Vec` is moved behind the `Arc`, spare capacity and all —
//! builders that care size their buffer exactly); the rest favours
//! simplicity over micro-optimisation.
//!
//! Build containers for this repo have no crates.io access, so the real
//! `bytes` cannot be fetched; this path crate stands in for it (see
//! `shims/README.md`).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, Range, RangeBounds};
use std::sync::{Arc, Mutex, PoisonError};

/// Cheaply cloneable, immutable, contiguous byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Allocation>,
    start: usize,
    end: usize,
}

/// One allocation every view of it shares, and the state its views'
/// digests are derived from (see [`Bytes::digest`]).
struct Allocation {
    v: Vec<u8>,
    /// Boxed on the first digest: an allocation nothing digests pays two
    /// words for it.
    digest: Mutex<Option<Box<DigestState>>>,
}

/// State the digest function keeps in an allocation between the views
/// it computes. The shim never reads it: it starts empty with the
/// allocation, goes to `compute` on every call, and drops with the
/// allocation. Not in upstream `bytes` (see [`Bytes::digest`]).
#[derive(Debug, Default)]
pub struct DigestState {
    /// Registers over prefixes of the allocation, as `compute` defines
    /// them.
    pub prefix: Vec<u32>,
    /// Bytes `compute` may still read, as it counts them.
    pub budget: usize,
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::from(Vec::new())
    }
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Buffer borrowing a static slice (copied here; the shim has one repr).
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// Copy `src` into a new buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
    }

    /// Zero-copy sub-range view sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice out of range");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Split off and return the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Self {
        let front = self.slice(..at);
        self.start += at;
        front
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// The view of `self` followed by `next`, without copying, when
    /// `next` begins exactly where `self` ends in the same allocation;
    /// `None` otherwise, and for an empty view.
    ///
    /// Not in upstream `bytes` (which has `BytesMut::unsplit` only), so
    /// it has one call site, `simkit::Gather`'s join; with the real
    /// crate that call becomes the copy it replaces. Identity is the
    /// allocation, never the address: two allocations that happen to
    /// sit next to each other in memory do not rejoin.
    pub fn try_unsplit(&self, next: &Bytes) -> Option<Bytes> {
        let joins = !self.is_empty()
            && !next.is_empty()
            && Arc::ptr_eq(&self.data, &next.data)
            && self.end == next.start;
        joins.then(|| Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: next.end,
        })
    }

    /// The digest `compute` gives this view's bytes. `compute` gets the
    /// whole allocation's bytes, the view's range in them and the
    /// allocation's [`DigestState`], so it may derive the digest from what
    /// it kept of earlier views instead of reading the view. The state
    /// lives and dies with the allocation, and its bytes cannot change
    /// while any view exists (nothing hands out `&mut` to a shared
    /// allocation, and taking the `Vec` back out consumes the last view),
    /// so what `compute` kept always describes the bytes the view holds.
    /// Every call must pass the same function.
    ///
    /// Not in upstream `bytes`; its one caller is
    /// `simkit::crc32c::crc32c_bytes`, which without it traverses.
    pub fn digest(
        &self,
        compute: impl FnOnce(&[u8], Range<usize>, &mut DigestState) -> u32,
    ) -> u32 {
        // the state is `compute`'s to leave consistent at every step, so
        // one left by a `compute` that panicked stays usable
        let mut state = self
            .data
            .digest
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let state = state.get_or_insert_with(Box::default);
        compute(&self.data.v, self.start..self.end, state)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data.v[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Every other constructor funnels into this one, so every allocation
    /// starts here with no digest state.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(Allocation {
                v,
                digest: Mutex::new(None),
            }),
            start: 0,
            end,
        }
    }
}

impl From<Bytes> for Vec<u8> {
    /// Take the bytes back out: the original `Vec` (capacity and all) when
    /// `b` is the only handle on it, a copy otherwise.
    fn from(b: Bytes) -> Vec<u8> {
        match Arc::try_unwrap(b.data) {
            Ok(Allocation { mut v, .. }) => {
                v.truncate(b.end);
                v.drain(..b.start);
                v
            }
            Err(shared) => shared.v[b.start..b.end].to_vec(),
        }
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes::from(v.into_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from(s.as_bytes().to_vec())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from(s.to_vec())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({:?})", self.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state)
    }
}

impl Eq for Bytes {}
impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}
impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

macro_rules! eq_via_slice {
    ($($other:ty),*) => {$(
        impl PartialEq<$other> for Bytes {
            fn eq(&self, other: &$other) -> bool {
                self.as_ref() == AsRef::<[u8]>::as_ref(other)
            }
        }
        impl PartialEq<Bytes> for $other {
            fn eq(&self, other: &Bytes) -> bool {
                AsRef::<[u8]>::as_ref(self) == other.as_ref()
            }
        }
    )*};
}
eq_via_slice!([u8], Vec<u8>, str);

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_ref() == other
    }
}

impl<'a> PartialEq<&'a [u8]> for Bytes {
    fn eq(&self, other: &&'a [u8]) -> bool {
        self.as_ref() == *other
    }
}
impl<'a> PartialEq<&'a str> for Bytes {
    fn eq(&self, other: &&'a str) -> bool {
        self.as_ref() == other.as_bytes()
    }
}

/// Growable byte buffer; freezes into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    v: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            v: Vec::with_capacity(cap),
        }
    }

    /// `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        BytesMut { v: vec![0; len] }
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.v)
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.v.extend_from_slice(src);
    }

    /// Split off and return the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Self {
        let rest = self.v.split_off(at);
        BytesMut {
            v: std::mem::replace(&mut self.v, rest),
        }
    }

    /// Reserve additional capacity.
    pub fn reserve(&mut self, additional: usize) {
        self.v.reserve(additional);
    }

    /// Resize, filling with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.v.resize(new_len, value);
    }

    /// Shorten to `len` (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.v.truncate(len);
    }

    /// Remove all bytes.
    pub fn clear(&mut self) {
        self.v.clear();
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.v
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.v
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.v
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({:?})", self.v)
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> Self {
        BytesMut { v }
    }
}

/// Read cursor over a byte source (subset of `bytes::Buf`). A source may
/// be non-contiguous: `chunk` is only the bytes up to the next seam, and
/// every read below spans seams as `bytes::Buf`'s do.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes up to the next seam (all of them when contiguous).
    fn chunk(&self) -> &[u8];
    /// Consume `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Fill `dst` from the front of the source. Panics when fewer than
    /// `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        // the common case: the bytes lie before the next seam
        if let Some(src) = self.chunk().get(..dst.len()) {
            dst.copy_from_slice(src);
            self.advance(dst.len());
            return;
        }
        assert!(self.remaining() >= dst.len(), "copy past end");
        let mut off = 0;
        while off < dst.len() {
            let n = self.chunk().len().min(dst.len() - off);
            dst[off..off + n].copy_from_slice(&self.chunk()[..n]);
            self.advance(n);
            off += n;
        }
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        self.copy_to_slice(&mut raw);
        u32::from_le_bytes(raw)
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        self.copy_to_slice(&mut raw);
        u64::from_le_bytes(raw)
    }

    /// Read `len` bytes out as a `Bytes`.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let mut out = vec![0u8; len];
        self.copy_to_slice(&mut out);
        Bytes::from(out)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        self.split_to(len)
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        &self.v
    }
    fn advance(&mut self, cnt: usize) {
        self.v.drain(..cnt);
    }
}

/// Write cursor over a byte sink (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, n: u32) {
        self.put_slice(&n.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, n: u64) {
        self.put_slice(&n.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.v.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_split_share_allocation() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let mid = b.slice(1..4);
        assert_eq!(mid, [2, 3, 4]);
        let mut rest = b.clone();
        let front = rest.split_to(2);
        assert_eq!(front, [1, 2]);
        assert_eq!(rest, [3, 4, 5]);
    }

    #[test]
    fn from_vec_and_freeze_do_not_copy() {
        let v = vec![7u8; 4096];
        let p = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), p);

        let mut m = BytesMut::with_capacity(4096);
        m.extend_from_slice(&[9u8; 1000]);
        let p = m.as_ptr();
        let frozen = m.freeze();
        assert_eq!(frozen.as_ptr(), p);
        // the sole handle gives the very same Vec back, slack included
        let back = Vec::from(frozen);
        assert_eq!(
            (back.as_ptr(), back.len(), back.capacity()),
            (p, 1000, 4096)
        );
    }

    #[test]
    fn views_share_the_allocation() {
        let mut b = Bytes::from(vec![0u8; 64]);
        let base = b.as_ptr();
        assert_eq!(b.slice(8..24).as_ptr(), base.wrapping_add(8));
        assert_eq!(b.clone().as_ptr(), base);
        assert_eq!(b.split_to(16).as_ptr(), base);
        assert_eq!(b.as_ptr(), base.wrapping_add(16));
        assert_eq!(b.copy_to_bytes(8).as_ptr(), base.wrapping_add(16));
        assert_eq!(b.as_ptr(), base.wrapping_add(24));
        // a shared handle converts by copy and leaves the others intact
        let other = b.clone();
        assert_eq!(Vec::from(other), vec![0u8; 40]);
        assert_eq!(b.len(), 40);
    }

    #[test]
    fn adjacent_views_of_one_allocation_rejoin() {
        let b = Bytes::from((0u8..32).collect::<Vec<_>>());
        let (head, tail) = (b.slice(4..12), b.slice(12..20));
        let joined = head.try_unsplit(&tail).expect("adjacent");
        assert_eq!(joined.as_ptr(), head.as_ptr());
        assert_eq!(joined, b[4..20]);
        // the pieces are untouched, and the join keeps joining
        assert_eq!((head.len(), tail.len()), (8, 8));
        let longer = joined.try_unsplit(&b.slice(20..)).expect("adjacent");
        assert_eq!((longer.as_ptr(), longer.len()), (head.as_ptr(), 28));
        // split_to leaves the two halves adjacent
        let mut rest = b.clone();
        let front = rest.split_to(5);
        assert_eq!(front.try_unsplit(&rest).unwrap().as_ptr(), b.as_ptr());
    }

    #[test]
    fn only_adjacent_non_empty_views_of_one_allocation_rejoin() {
        let b = Bytes::from((0u8..32).collect::<Vec<_>>());
        let (head, tail) = (b.slice(4..12), b.slice(12..20));
        assert_eq!(head.try_unsplit(&b.slice(13..20)), None, "a gap");
        assert_eq!(head.try_unsplit(&b.slice(11..20)), None, "an overlap");
        assert_eq!(tail.try_unsplit(&head), None, "reversed");
        assert_eq!(head.try_unsplit(&b.slice(12..12)), None, "empty next");
        assert_eq!(b.slice(4..4).try_unsplit(&head), None, "empty self");
        assert_eq!(Bytes::new().try_unsplit(&Bytes::new()), None);
        // the same range of another allocation holding equal bytes
        let twin = Bytes::from(b.to_vec()).slice(12..20);
        assert_eq!(twin, tail);
        assert_eq!(head.try_unsplit(&twin), None, "another allocation");
        // nor do two separate allocations, wherever they lie
        let (left, right) = (Bytes::from(vec![1u8; 8]), Bytes::from(vec![2u8; 8]));
        assert_eq!(left.try_unsplit(&right), None);
    }

    /// A stand-in digest.
    fn hash(d: &[u8]) -> u32 {
        d.iter()
            .fold(d.len() as u32, |h, &x| h.rotate_left(5) ^ u32::from(x))
    }

    /// `(budget, prefix)` of the allocation's digest state; `None` while
    /// it has none.
    fn state(b: &Bytes) -> Option<(usize, Vec<u32>)> {
        let st = b.data.digest.lock().unwrap();
        st.as_ref().map(|st| (st.budget, st.prefix.clone()))
    }

    #[test]
    fn digest_of_equal_bytes_in_another_allocation_is_computed() {
        let f = |all: &[u8], view: Range<usize>, _: &mut DigestState| hash(&all[view]);
        let b = Bytes::from(vec![5u8; 8 << 10]);
        let want = b.digest(f);
        let mut m = BytesMut::new();
        m.extend_from_slice(&b);
        for twin in [
            Bytes::copy_from_slice(&b),
            Bytes::from(b.to_vec()),
            m.freeze(),
        ] {
            assert_eq!(state(&twin), None);
            assert_eq!(twin.digest(f), want);
        }
    }

    #[test]
    fn digest_of_a_vec_taken_back_out_and_frozen_again_is_computed_afresh() {
        // `compute` keeps the bytes' first word, as a register would
        let first = |all: &[u8], view: Range<usize>, st: &mut DigestState| {
            st.prefix
                .push(u32::from_le_bytes(all[..4].try_into().unwrap()));
            hash(&all[view])
        };
        let only = Bytes::from(vec![1u8; 8 << 10]);
        let (old, p) = (only.digest(first), only.as_ptr());
        let mut v = Vec::from(only);
        v[0] ^= 0x40;
        // the very same buffer, with other bytes: fresh state
        let again = Bytes::from(v);
        assert_eq!(again.as_ptr(), p);
        assert_eq!(state(&again), None);
        assert_eq!(again.digest(first), hash(&again));
        assert_ne!(again.digest(first), old);
        assert_eq!(state(&again), Some((0, vec![0x0101_0141; 2])));
    }

    #[test]
    fn digest_state_is_made_by_a_digest_alone() {
        // views of any size, every constructor and every view-making
        // method leave it unmade: the 128 B value and the frame that no
        // one digests pay two words for it
        assert!(
            std::mem::size_of::<Allocation>()
                <= std::mem::size_of::<Vec<u8>>() + 2 * std::mem::size_of::<usize>()
        );
        let mut b = Bytes::from(vec![3u8; 16 << 10]);
        let mut m = BytesMut::new();
        m.extend_from_slice(&b);
        let made = [
            Bytes::new(),
            Bytes::from_static(b"abc"),
            Bytes::copy_from_slice(&b),
            m.freeze(),
            b.slice(..128),
            b.split_to(4 << 10),
            b.copy_to_bytes(1),
            b.slice(..8).try_unsplit(&b.slice(8..)).unwrap(),
        ];
        for v in made.iter().chain([&b]) {
            assert_eq!(state(v), None);
        }
        b.slice(..4 << 10).digest(|_, _, _| 7);
        assert_eq!(state(&b), Some((0, vec![])));
    }

    #[test]
    fn digest_state_belongs_to_the_allocation() {
        // on each call `compute` gets the whole allocation, the view's
        // range in it, and the state earlier calls on it left there
        let record = |all: &[u8], view: Range<usize>, st: &mut DigestState| {
            st.budget += view.len();
            st.prefix.push(view.start as u32);
            hash(&all[view])
        };
        let b = Bytes::from((0..16 << 10).map(|i| i as u8).collect::<Vec<_>>());
        let (head, tail) = (b.slice(..4 << 10), b.slice(12 << 10..));
        assert_eq!(tail.digest(record), hash(&tail));
        assert_eq!(head.digest(record), hash(&head));
        assert_eq!(state(&b), Some((8 << 10, vec![12 << 10, 0])));
        // equal bytes in another allocation start with none
        let twin = Bytes::copy_from_slice(&b);
        assert_eq!(state(&twin), None);
        assert_eq!(twin.slice(1..).digest(record), hash(&b[1..]));
        assert_eq!(state(&twin), Some(((16 << 10) - 1, vec![1])));
    }

    #[test]
    fn buf_roundtrip() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u32_le(0xdead_beef);
        m.put_u64_le(42);
        m.put_slice(b"xyz");
        let mut b = m.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32_le(), 0xdead_beef);
        assert_eq!(b.get_u64_le(), 42);
        assert_eq!(b.copy_to_bytes(3), b"xyz"[..]);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn bytes_mut_split_to_keeps_tail() {
        let mut m = BytesMut::from(vec![1, 2, 3, 4]);
        let head = m.split_to(1);
        assert_eq!(&head[..], &[1]);
        assert_eq!(&m[..], &[2, 3, 4]);
    }
}
