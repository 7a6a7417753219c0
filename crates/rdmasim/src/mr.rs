//! Registered memory regions.
//!
//! An [`Mr`] owns a pinned buffer on one node. The owner touches it with
//! zero-cost local reads/writes; remote peers access it one-sided through a
//! [`RemoteBuf`] descriptor (node + rkey + length), the simulated analogue
//! of exchanging `(addr, rkey)` in a real verbs application.
//!
//! On the host a region allocates nothing: it is a length and a
//! [`SegmentMap`] of the [`Bytes`] handles written into it, read back
//! byte for byte as the zero-initialised flat buffer it models (stale
//! bytes stay visible until overwritten; nothing clears a region). A
//! payload that crosses a hop whole therefore crosses as the handle it
//! arrived as — the hardware moves it without a CPU copy, and so does the
//! model. The region pins the allocation behind every handle it still
//! exposes.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use netsim::NodeId;
use simkit::SegmentMap;

use crate::stack::{RdmaError, RdmaStack};

/// Remote-access key for a registered region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RKey(pub u32);

pub(crate) struct MrInner {
    pub(crate) node: NodeId,
    pub(crate) rkey: RKey,
    len: u64,
    contents: RefCell<SegmentMap>,
}

impl MrInner {
    pub(crate) fn new(node: NodeId, rkey: RKey, len: u64) -> MrInner {
        MrInner {
            node,
            rkey,
            len,
            contents: RefCell::new(SegmentMap::new()),
        }
    }

    fn check_bounds(&self, offset: u64, len: u64) -> Result<(), RdmaError> {
        let end = offset + len;
        if end > self.len {
            return Err(RdmaError::OutOfBounds { end, len: self.len });
        }
        Ok(())
    }

    /// Land `data` at `offset`: the region keeps the handle, not a copy.
    pub(crate) fn put(&self, offset: u64, data: Bytes) -> Result<(), RdmaError> {
        self.check_bounds(offset, data.len() as u64)?;
        self.contents.borrow_mut().insert(offset, data);
        Ok(())
    }

    /// The region's bytes at `[offset, offset + len)`: a view of the
    /// handle that was put there when one covers the range, assembled
    /// (zeros where nothing was written) otherwise.
    pub(crate) fn view(&self, offset: u64, len: u64) -> Result<Bytes, RdmaError> {
        self.check_bounds(offset, len)?;
        Ok(self.contents.borrow().read(offset, len))
    }
}

/// Descriptor advertising a region to peers — safe to copy into protocol
/// messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteBuf {
    /// Node owning the region.
    pub node: NodeId,
    /// Remote access key.
    pub rkey: RKey,
    /// Region length in bytes.
    pub len: u64,
}

/// An owned registered memory region. Deregisters on drop.
pub struct Mr {
    pub(crate) stack: Rc<RdmaStack>,
    pub(crate) inner: Rc<MrInner>,
}

impl Mr {
    /// Node the region lives on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// Remote access key.
    pub fn rkey(&self) -> RKey {
        self.inner.rkey
    }

    /// Region length in bytes.
    pub fn len(&self) -> u64 {
        self.inner.len
    }

    /// Whether the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Descriptor to hand to peers.
    pub fn remote(&self) -> RemoteBuf {
        RemoteBuf {
            node: self.inner.node,
            rkey: self.inner.rkey,
            len: self.len(),
        }
    }

    /// Local CPU write into the registered buffer (no simulated time — the
    /// owner writes its own memory). Copies `data` once; a caller that
    /// already holds a [`Bytes`] uses [`Mr::put_local`].
    pub fn write_local(&self, offset: u64, data: &[u8]) -> Result<(), RdmaError> {
        self.inner.put(offset, Bytes::copy_from_slice(data))
    }

    /// [`Mr::write_local`] of a payload the caller holds as a handle: the
    /// region exposes those bytes without copying them.
    pub fn put_local(&self, offset: u64, data: Bytes) -> Result<(), RdmaError> {
        self.inner.put(offset, data)
    }

    /// Local CPU read from the registered buffer.
    pub fn read_local(&self, offset: u64, len: u64) -> Result<Bytes, RdmaError> {
        self.inner.view(offset, len)
    }
}

impl Drop for Mr {
    fn drop(&mut self) {
        self.stack.deregister(self.inner.node, self.inner.rkey);
    }
}
