//! A timed object store on top of a [`Disk`]: named byte objects with
//! write-at/read-at semantics. DataNode block storage and Lustre OST
//! objects are both instances of this.
//!
//! Storage is a [`SegmentMap`] (shared with `rdmasim`'s registered
//! regions): each write stores the caller's [`Bytes`] handle (zero-copy)
//! keyed by offset, with overlapping segments trimmed. This matters
//! because the benchmark harness pushes tens of logical gigabytes through
//! the filesystems — workload generators hand out slices of one shared
//! pattern buffer, so resident memory stays proportional to the number of
//! segments, not the logical bytes stored. A read hands back those
//! handles as a [`Gather`] (`read_at_opts`); `read_at` joins them only
//! when the range spans more than one segment.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use simkit::{Gather, SegmentMap};

use crate::disk::{Disk, StoreError};

/// Object identifier (allocated by the owning service).
pub type ObjectId = u64;

#[derive(Default)]
struct Object {
    /// The bytes, as the handles they were written with.
    segments: SegmentMap,
    /// Logical length (max written end; gaps read as zeros).
    len: u64,
    /// Sum of segment lengths (what capacity accounting charges).
    stored: u64,
}

impl Object {
    /// Write `data` at `offset`. Returns by how much the stored bytes
    /// grew (an overwrite grows by less than it writes).
    fn insert(&mut self, offset: u64, data: Bytes) -> u64 {
        if !data.is_empty() {
            self.len = self.len.max(offset + data.len() as u64);
        }
        let grew = self.segments.insert(offset, data);
        self.stored += grew;
        grew
    }
}

/// Byte objects stored on one device, with every operation charged to the
/// device's timing model and capacity budget.
pub struct ObjectStore {
    disk: Rc<Disk>,
    objects: RefCell<HashMap<ObjectId, Object>>,
}

impl ObjectStore {
    /// Create an empty store on `disk`.
    pub fn new(disk: Rc<Disk>) -> Rc<ObjectStore> {
        Rc::new(ObjectStore {
            disk,
            objects: RefCell::new(HashMap::new()),
        })
    }

    /// The backing device.
    pub fn disk(&self) -> &Rc<Disk> {
        &self.disk
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.borrow().len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` exists.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.objects.borrow().contains_key(&id)
    }

    /// Current logical length of object `id` in bytes.
    pub fn object_len(&self, id: ObjectId) -> Result<u64, StoreError> {
        self.objects
            .borrow()
            .get(&id)
            .map(|o| o.len)
            .ok_or(StoreError::NotFound)
    }

    /// Append `data` to object `id`, creating it if absent.
    pub async fn append(&self, id: ObjectId, data: Bytes) -> Result<(), StoreError> {
        let off = self.objects.borrow().get(&id).map(|o| o.len).unwrap_or(0);
        self.write_at(id, off, data).await
    }

    /// Write `data` at `offset` within object `id` (creating it if absent),
    /// charging one write extent including positioning latency.
    pub async fn write_at(&self, id: ObjectId, offset: u64, data: Bytes) -> Result<(), StoreError> {
        self.write_at_opts(id, offset, data, true).await
    }

    /// Like [`ObjectStore::write_at`], but `charge_access = false` skips the
    /// positioning latency — for packets of an already-streaming sequential
    /// write (a DataNode receiving a block pipeline).
    pub async fn write_at_opts(
        &self,
        id: ObjectId,
        offset: u64,
        data: Bytes,
        charge_access: bool,
    ) -> Result<(), StoreError> {
        // worst-case reservation (all-new bytes); settled after the insert
        self.disk.reserve(data.len() as u64)?;
        let timed = if charge_access {
            self.disk.write_extent(data.len() as u64).await
        } else {
            self.disk.write_stream(data.len() as u64).await
        };
        match timed {
            Ok(()) => {
                let len = data.len() as u64;
                let grew = {
                    let mut objects = self.objects.borrow_mut();
                    objects.entry(id).or_default().insert(offset, data)
                };
                // settle: we reserved `len` but the net growth is `grew`
                if grew < len {
                    self.disk.release(len - grew);
                }
                Ok(())
            }
            Err(e) => {
                self.disk.release(data.len() as u64);
                Err(e)
            }
        }
    }

    /// Read `len` bytes at `offset` from object `id`, charging one read
    /// extent. Reads past the logical end are an error.
    pub async fn read_at(&self, id: ObjectId, offset: u64, len: u64) -> Result<Bytes, StoreError> {
        self.read_at_opts(id, offset, len, true)
            .await
            .map(Gather::concat)
    }

    /// Like [`ObjectStore::read_at`] with optional positioning latency,
    /// returning the stored handles as they lie: views of the written
    /// segments in order, zero buffers for gaps.
    pub async fn read_at_opts(
        &self,
        id: ObjectId,
        offset: u64,
        len: u64,
        charge_access: bool,
    ) -> Result<Gather, StoreError> {
        {
            let objects = self.objects.borrow();
            let obj = objects.get(&id).ok_or(StoreError::NotFound)?;
            if offset + len > obj.len {
                return Err(StoreError::OutOfRange);
            }
        }
        if charge_access {
            self.disk.read_extent(len).await?;
        } else {
            self.disk.read_stream(len).await?;
        }
        let objects = self.objects.borrow();
        let obj = objects.get(&id).ok_or(StoreError::NotFound)?;
        if offset + len > obj.len {
            return Err(StoreError::OutOfRange);
        }
        Ok(obj.segments.read_gather(offset, len))
    }

    /// Read the whole object.
    pub async fn read_all(&self, id: ObjectId) -> Result<Bytes, StoreError> {
        let len = self.object_len(id)?;
        if len == 0 {
            return Ok(Bytes::new());
        }
        self.read_at(id, 0, len).await
    }

    /// Delete object `id`, returning its stored bytes to the device.
    /// Deletion is a metadata operation and is not charged device time.
    pub fn delete(&self, id: ObjectId) -> Result<u64, StoreError> {
        let obj = self
            .objects
            .borrow_mut()
            .remove(&id)
            .ok_or(StoreError::NotFound)?;
        self.disk.release(obj.stored);
        Ok(obj.stored)
    }

    /// All object ids (unspecified order).
    pub fn ids(&self) -> Vec<ObjectId> {
        self.objects.borrow().keys().copied().collect()
    }

    /// Total stored segment bytes.
    pub fn stored_bytes(&self) -> u64 {
        self.objects.borrow().values().map(|o| o.stored).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskKind, DiskParams};
    use simkit::Sim;

    fn store(kind: DiskKind, cap: u64) -> (Sim, Rc<ObjectStore>) {
        let sim = Sim::new();
        let disk = Disk::new(sim.clone(), DiskParams::of(kind, cap));
        (sim, ObjectStore::new(disk))
    }

    #[test]
    fn append_read_roundtrip() {
        let (sim, st) = store(DiskKind::Ssd, 1 << 30);
        let st2 = Rc::clone(&st);
        let got = sim.block_on(async move {
            st2.append(1, Bytes::from_static(b"hello ")).await.unwrap();
            st2.append(1, Bytes::from_static(b"world")).await.unwrap();
            st2.read_all(1).await.unwrap()
        });
        assert_eq!(&got[..], b"hello world");
        assert_eq!(st.stored_bytes(), 11);
        assert_eq!(st.disk().used(), 11);
    }

    #[test]
    fn write_at_sparse_zero_fills_gaps_on_read() {
        let (sim, st) = store(DiskKind::RamDisk, 1 << 30);
        let st2 = Rc::clone(&st);
        let got = sim.block_on(async move {
            st2.write_at(9, 4, Bytes::from_static(b"abcd"))
                .await
                .unwrap();
            st2.read_all(9).await.unwrap()
        });
        assert_eq!(&got[..], b"\0\0\0\0abcd");
        // only 4 real bytes stored despite logical length 8
        assert_eq!(st.stored_bytes(), 4);
        assert_eq!(st.object_len(9).unwrap(), 8);
    }

    #[test]
    fn overwrite_in_place_keeps_capacity_flat() {
        let (sim, st) = store(DiskKind::RamDisk, 1 << 30);
        let st2 = Rc::clone(&st);
        sim.block_on(async move {
            st2.write_at(1, 0, Bytes::from_static(b"xxxxxxxx"))
                .await
                .unwrap();
            let used_before = st2.disk().used();
            st2.write_at(1, 2, Bytes::from_static(b"YY")).await.unwrap();
            assert_eq!(st2.disk().used(), used_before);
            let got = st2.read_all(1).await.unwrap();
            assert_eq!(&got[..], b"xxYYxxxx");
        });
    }

    #[test]
    fn overlapping_writes_trim_correctly() {
        let (sim, st) = store(DiskKind::RamDisk, 1 << 30);
        let st2 = Rc::clone(&st);
        sim.block_on(async move {
            // segment A covers [0,10), B covers [5,15), C inside A'
            st2.write_at(1, 0, Bytes::from_static(b"AAAAAAAAAA"))
                .await
                .unwrap();
            st2.write_at(1, 5, Bytes::from_static(b"BBBBBBBBBB"))
                .await
                .unwrap();
            st2.write_at(1, 2, Bytes::from_static(b"CC")).await.unwrap();
            let got = st2.read_all(1).await.unwrap();
            assert_eq!(&got[..], b"AACCABBBBBBBBBB");
            assert_eq!(st2.stored_bytes(), 15);
        });
    }

    #[test]
    fn write_fully_covering_existing_segments() {
        let (sim, st) = store(DiskKind::RamDisk, 1 << 30);
        let st2 = Rc::clone(&st);
        sim.block_on(async move {
            st2.write_at(1, 2, Bytes::from_static(b"ab")).await.unwrap();
            st2.write_at(1, 6, Bytes::from_static(b"cd")).await.unwrap();
            st2.write_at(1, 0, Bytes::from_static(b"ZZZZZZZZZZ"))
                .await
                .unwrap();
            let got = st2.read_all(1).await.unwrap();
            assert_eq!(&got[..], b"ZZZZZZZZZZ");
            assert_eq!(st2.stored_bytes(), 10);
        });
    }

    #[test]
    fn zero_copy_segments_share_backing_memory() {
        let (sim, st) = store(DiskKind::RamDisk, 1 << 30);
        let pattern = Bytes::from(vec![7u8; 1 << 20]);
        let st2 = Rc::clone(&st);
        let p = pattern.clone();
        sim.block_on(async move {
            // store 64 logical MiB as slices of the same 1 MiB buffer
            for i in 0..64u64 {
                st2.write_at(1, i << 20, p.clone()).await.unwrap();
            }
        });
        assert_eq!(st.object_len(1).unwrap(), 64 << 20);
        assert_eq!(st.stored_bytes(), 64 << 20);
        // the backing allocation is the single pattern buffer: dropping the
        // store would free ~1 MiB, not 64. (Can't measure allocator use in a
        // unit test; shared ownership is what Bytes::clone guarantees.)
        drop(pattern);
    }

    #[test]
    fn read_out_of_range() {
        let (sim, st) = store(DiskKind::Ssd, 1 << 30);
        let st2 = Rc::clone(&st);
        let r = sim.block_on(async move {
            st2.append(1, Bytes::from_static(b"abc")).await.unwrap();
            st2.read_at(1, 2, 5).await
        });
        assert_eq!(r.unwrap_err(), StoreError::OutOfRange);
    }

    #[test]
    fn missing_object_not_found() {
        let (sim, st) = store(DiskKind::Ssd, 1 << 30);
        let st2 = Rc::clone(&st);
        let r = sim.block_on(async move { st2.read_all(42).await });
        assert_eq!(r.unwrap_err(), StoreError::NotFound);
        assert_eq!(st.delete(42).unwrap_err(), StoreError::NotFound);
    }

    #[test]
    fn delete_returns_capacity() {
        let (sim, st) = store(DiskKind::Ssd, 100);
        let st2 = Rc::clone(&st);
        sim.block_on(async move {
            st2.append(1, Bytes::from(vec![0u8; 80])).await.unwrap();
            let err = st2.append(2, Bytes::from(vec![0u8; 30])).await.unwrap_err();
            assert!(matches!(err, StoreError::DiskFull { .. }));
            assert_eq!(st2.delete(1).unwrap(), 80);
            st2.append(2, Bytes::from(vec![0u8; 30])).await.unwrap();
        });
    }

    #[test]
    fn failed_write_releases_reservation() {
        let (sim, st) = store(DiskKind::Ssd, 1 << 20);
        st.disk().set_online(false);
        let st2 = Rc::clone(&st);
        let r = sim.block_on(async move { st2.append(1, Bytes::from(vec![0u8; 100])).await });
        assert_eq!(r.unwrap_err(), StoreError::Offline);
        assert_eq!(st.disk().used(), 0);
        assert!(!st.contains(1));
    }

    #[test]
    fn timing_charged_for_io() {
        let (sim, st) = store(DiskKind::Hdd, 1 << 40);
        let st2 = Rc::clone(&st);
        sim.block_on(async move {
            st2.append(1, Bytes::from(vec![0u8; 115_000_000]))
                .await
                .unwrap();
        });
        // 1 s stream + 8 ms seek
        assert!((sim.now().as_secs_f64() - 1.008).abs() < 1e-6);
    }

    #[test]
    fn streaming_writes_skip_access_latency() {
        let (sim, st) = store(DiskKind::Hdd, 1 << 40);
        let st2 = Rc::clone(&st);
        sim.block_on(async move {
            // 10 packets of 1.15 MB, only payload time charged
            for i in 0..10u64 {
                st2.write_at_opts(1, i * 1_150_000, Bytes::from(vec![0u8; 1_150_000]), false)
                    .await
                    .unwrap();
            }
        });
        assert!((sim.now().as_secs_f64() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn reads_reassemble_across_segment_boundaries() {
        let (sim, st) = store(DiskKind::RamDisk, 1 << 30);
        let st2 = Rc::clone(&st);
        sim.block_on(async move {
            st2.write_at(1, 0, Bytes::from_static(b"0123"))
                .await
                .unwrap();
            st2.write_at(1, 4, Bytes::from_static(b"4567"))
                .await
                .unwrap();
            st2.write_at(1, 8, Bytes::from_static(b"89ab"))
                .await
                .unwrap();
            let got = st2.read_at(1, 2, 8).await.unwrap();
            assert_eq!(&got[..], b"23456789");
        });
    }
}
