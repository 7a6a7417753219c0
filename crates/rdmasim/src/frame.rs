//! The payload of one SEND as a gather list, the way `ibv_post_send`
//! takes one work request with several scatter/gather elements: the NIC
//! streams the elements back to back and the peer receives one message of
//! their summed length. A reply that carries stored values can then put
//! the value handles themselves on the wire beside a few header bytes,
//! instead of copying every value into a fresh contiguous frame.

use std::collections::VecDeque;

use bytes::{Buf, Bytes};

/// One SEND's payload: a single buffer, or buffers sent back to back.
///
/// A `Frame` is also a [`Buf`] over its bytes in wire order, so a decoder
/// can read it without joining the pieces. `copy_to_bytes` hands back a
/// zero-copy view whenever the range lies inside one element — a value
/// sent as its own element comes out as the sender's very handle.
#[derive(Debug, Clone)]
pub struct Frame(Repr);

#[derive(Debug, Clone)]
enum Repr {
    /// The common case, kept as the one handle with nothing allocated.
    One(Bytes),
    /// Boxed so a `Frame` is no larger than a `Bytes`: every in-flight
    /// SEND's future holds one.
    Gather(Box<Gathered>),
}

#[derive(Debug, Clone)]
struct Gathered {
    /// Non-empty elements in wire order.
    elems: VecDeque<Bytes>,
    /// Their summed length.
    len: usize,
}

impl From<Bytes> for Frame {
    fn from(b: Bytes) -> Frame {
        Frame(Repr::One(b))
    }
}

impl From<Vec<Bytes>> for Frame {
    /// A gather list. Empty elements carry no bytes and are dropped; the
    /// list's buffer is moved into the frame, not copied.
    fn from(mut elems: Vec<Bytes>) -> Frame {
        elems.retain(|b| !b.is_empty());
        let len = elems.iter().map(Bytes::len).sum();
        Frame(Repr::Gather(Box::new(Gathered {
            elems: elems.into(),
            len,
        })))
    }
}

impl Frame {
    /// Total bytes on the wire.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::One(b) => b.len(),
            Repr::Gather(g) => g.len,
        }
    }

    /// Whether the frame carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes as one contiguous buffer: the handle itself for a single
    /// buffer, a copy joining the elements of a gather list.
    pub fn concat(self) -> Bytes {
        match self.0 {
            Repr::One(b) => b,
            Repr::Gather(g) => {
                let mut v = Vec::with_capacity(g.len);
                for e in &g.elems {
                    v.extend_from_slice(e);
                }
                Bytes::from(v)
            }
        }
    }

    /// XOR `mask` into the byte at `offset`, copying only the element that
    /// holds it: every other element stays the sender's handle, and the
    /// sender's copy of the flipped one is untouched.
    pub(crate) fn flip(&mut self, offset: usize, mask: u8) {
        let flip_in = |b: &mut Bytes, at: usize| {
            let mut v = b.to_vec();
            v[at] ^= mask;
            *b = Bytes::from(v);
        };
        match &mut self.0 {
            Repr::One(b) => flip_in(b, offset),
            Repr::Gather(g) => {
                let mut at = offset;
                for e in g.elems.iter_mut() {
                    if at < e.len() {
                        return flip_in(e, at);
                    }
                    at -= e.len();
                }
                panic!("flip offset {offset} past the frame's end");
            }
        }
    }
}

impl Buf for Frame {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        match &self.0 {
            Repr::One(b) => b,
            Repr::Gather(g) => g.elems.front().map_or(&[], |b| b),
        }
    }

    fn advance(&mut self, mut cnt: usize) {
        match &mut self.0 {
            Repr::One(b) => b.advance(cnt),
            Repr::Gather(g) => {
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
            Repr::Gather(g) => match g.elems.front_mut() {
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
                    let mut v = vec![0u8; n];
                    self.copy_to_slice(&mut v);
                    Bytes::from(v)
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gather(parts: &[&'static [u8]]) -> Frame {
        Frame::from(
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
        let mut f = Frame::from(vec![Bytes::from_static(b"hdr"), value.clone()]);
        f.advance(3);
        let got = f.copy_to_bytes(4096);
        assert_eq!(got.as_ptr(), value.as_ptr());
        assert_eq!(f.remaining(), 0);
    }

    #[test]
    fn one_buffer_stays_that_buffer() {
        let b = Bytes::from(vec![1u8; 64]);
        let f = Frame::from(b.clone());
        assert_eq!(f.len(), 64);
        assert_eq!(f.concat().as_ptr(), b.as_ptr());
    }

    #[test]
    fn flip_copies_only_the_element_it_hits() {
        let (a, b) = (Bytes::from(vec![0u8; 4]), Bytes::from(vec![0u8; 4]));
        let mut f = Frame::from(vec![a.clone(), b.clone()]);
        f.flip(6, 0x10);
        assert_eq!(f.clone().concat(), [0u8, 0, 0, 0, 0, 0, 0x10, 0]);
        assert_eq!(b, [0u8; 4], "the sender's handle is untouched");
        assert_eq!(
            f.copy_to_bytes(4).as_ptr(),
            a.as_ptr(),
            "other elements stay shared"
        );
    }
}
