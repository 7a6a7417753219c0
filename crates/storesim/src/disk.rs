//! Timed block-device models.
//!
//! A [`Disk`] is a single-channel FIFO device with distinct read/write
//! stream rates, a per-operation access latency (seek for HDD, flash
//! translation for SSD), and a capacity budget. Operations are charged at
//! *extent* granularity — callers issue one timed op per block/chunk, not
//! per packet, mirroring how a local filesystem turns a streaming write
//! into sequential device I/O.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use simkit::resource::FifoServer;
use simkit::{dur, Sim};

/// Device technology presets (DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskKind {
    /// 7.2k SATA spindle: 115/125 MB/s write/read, 8 ms access.
    Hdd,
    /// SATA SSD: 400/450 MB/s, 60 µs access.
    Ssd,
    /// RAM-backed tmpfs: 2.5 GB/s symmetric, 1 µs access.
    RamDisk,
}

/// Performance/capacity parameters for one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskParams {
    /// Streaming write rate, bytes/second.
    pub write_rate: f64,
    /// Streaming read rate, bytes/second.
    pub read_rate: f64,
    /// Per-operation positioning latency.
    pub access_latency: Duration,
    /// Usable capacity in bytes.
    pub capacity: u64,
}

impl DiskParams {
    /// Preset for `kind` with the given capacity.
    pub fn of(kind: DiskKind, capacity: u64) -> Self {
        match kind {
            DiskKind::Hdd => DiskParams {
                write_rate: 115e6,
                read_rate: 125e6,
                access_latency: dur::ms(8),
                capacity,
            },
            DiskKind::Ssd => DiskParams {
                write_rate: 400e6,
                read_rate: 450e6,
                access_latency: dur::us(60),
                capacity,
            },
            DiskKind::RamDisk => DiskParams {
                write_rate: 2.5e9,
                read_rate: 2.5e9,
                access_latency: dur::us(1),
                capacity,
            },
        }
    }
}

/// Storage-layer failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// Allocation would exceed device capacity.
    DiskFull {
        /// Bytes requested by the failed allocation.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// Object/block does not exist.
    NotFound,
    /// Read past the end of an object.
    OutOfRange,
    /// The device (or its host) is offline.
    Offline,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DiskFull {
                requested,
                available,
            } => write!(
                f,
                "disk full: requested {requested} B, {available} B available"
            ),
            StoreError::NotFound => f.write_str("object not found"),
            StoreError::OutOfRange => f.write_str("read out of range"),
            StoreError::Offline => f.write_str("device offline"),
        }
    }
}
impl std::error::Error for StoreError {}

/// A timed block device with capacity accounting.
pub struct Disk {
    params: DiskParams,
    channel: FifoServer,
    used: Cell<u64>,
    reads: Cell<u64>,
    writes: Cell<u64>,
    read_bytes: Cell<u64>,
    written_bytes: Cell<u64>,
    online: Cell<bool>,
}

impl Disk {
    /// Create a device owned by `sim`.
    pub fn new(sim: Sim, params: DiskParams) -> Rc<Disk> {
        Rc::new(Disk {
            params,
            channel: FifoServer::new(sim, Duration::ZERO),
            used: Cell::new(0),
            reads: Cell::new(0),
            writes: Cell::new(0),
            read_bytes: Cell::new(0),
            written_bytes: Cell::new(0),
            online: Cell::new(true),
        })
    }

    /// Preset constructor.
    pub fn of_kind(sim: Sim, kind: DiskKind, capacity: u64) -> Rc<Disk> {
        Disk::new(sim, DiskParams::of(kind, capacity))
    }

    /// Device parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used.get()
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.params.capacity - self.used.get()
    }

    /// Mark the device online/offline (host crash). Offline devices reject
    /// all timed operations; contents are preserved (cold restart keeps
    /// durable data, mirroring a machine reboot).
    pub fn set_online(&self, online: bool) {
        self.online.set(online);
    }

    /// Whether the device accepts operations.
    pub fn is_online(&self) -> bool {
        self.online.get()
    }

    fn check_online(&self) -> Result<(), StoreError> {
        if self.online.get() {
            Ok(())
        } else {
            Err(StoreError::Offline)
        }
    }

    /// Reserve `bytes` of capacity (fails with [`StoreError::DiskFull`]).
    pub fn reserve(&self, bytes: u64) -> Result<(), StoreError> {
        let avail = self.available();
        if bytes > avail {
            return Err(StoreError::DiskFull {
                requested: bytes,
                available: avail,
            });
        }
        self.used.set(self.used.get() + bytes);
        Ok(())
    }

    /// Return `bytes` of capacity to the free pool.
    pub fn release(&self, bytes: u64) {
        let used = self.used.get();
        debug_assert!(bytes <= used, "releasing more than allocated");
        self.used.set(used.saturating_sub(bytes));
    }

    /// Charge the timed cost of writing `bytes` as one sequential extent.
    /// Capacity must already be reserved by the caller.
    pub async fn write_extent(&self, bytes: u64) -> Result<(), StoreError> {
        self.check_online()?;
        let t = self.params.access_latency + dur::transfer(bytes, self.params.write_rate);
        self.channel.serve_for(t).await;
        self.check_online()?; // may have died mid-op
        self.writes.set(self.writes.get() + 1);
        self.written_bytes.set(self.written_bytes.get() + bytes);
        Ok(())
    }

    /// Charge the timed cost of writing `bytes` mid-stream: payload time
    /// only, no positioning latency (the stream already paid it).
    pub async fn write_stream(&self, bytes: u64) -> Result<(), StoreError> {
        self.check_online()?;
        let t = dur::transfer(bytes, self.params.write_rate);
        self.channel.serve_for(t).await;
        self.check_online()?;
        self.writes.set(self.writes.get() + 1);
        self.written_bytes.set(self.written_bytes.get() + bytes);
        Ok(())
    }

    /// Charge the timed cost of reading `bytes` mid-stream (no positioning
    /// latency).
    pub async fn read_stream(&self, bytes: u64) -> Result<(), StoreError> {
        self.check_online()?;
        let t = dur::transfer(bytes, self.params.read_rate);
        self.channel.serve_for(t).await;
        self.check_online()?;
        self.reads.set(self.reads.get() + 1);
        self.read_bytes.set(self.read_bytes.get() + bytes);
        Ok(())
    }

    /// Charge the timed cost of reading `bytes` as one sequential extent.
    pub async fn read_extent(&self, bytes: u64) -> Result<(), StoreError> {
        self.check_online()?;
        let t = self.params.access_latency + dur::transfer(bytes, self.params.read_rate);
        self.channel.serve_for(t).await;
        self.check_online()?;
        self.reads.set(self.reads.get() + 1);
        self.read_bytes.set(self.read_bytes.get() + bytes);
        Ok(())
    }

    /// (reads, writes, read_bytes, written_bytes) counters.
    pub fn io_counters(&self) -> (u64, u64, u64, u64) {
        (
            self.reads.get(),
            self.writes.get(),
            self.read_bytes.get(),
            self.written_bytes.get(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_disk(kind: DiskKind, cap: u64) -> (Sim, Rc<Disk>) {
        let sim = Sim::new();
        let d = Disk::of_kind(sim.clone(), kind, cap);
        (sim, d)
    }

    #[test]
    fn hdd_write_time_matches_rate() {
        let (sim, d) = sim_disk(DiskKind::Hdd, 1 << 40);
        let s = sim.clone();
        let d2 = Rc::clone(&d);
        let t = sim.block_on(async move {
            d2.write_extent(115_000_000).await.unwrap(); // 1 s + 8 ms seek
            s.now()
        });
        assert!((t.as_secs_f64() - 1.008).abs() < 1e-6);
    }

    #[test]
    fn ramdisk_much_faster_than_hdd() {
        let bytes = 100 << 20;
        let (sim_h, dh) = sim_disk(DiskKind::Hdd, 1 << 40);
        sim_h.block_on(async move { dh.write_extent(bytes).await.unwrap() });
        let th = sim_h.now();
        let (sim_r, dr) = sim_disk(DiskKind::RamDisk, 1 << 40);
        sim_r.block_on(async move { dr.write_extent(bytes).await.unwrap() });
        let tr = sim_r.now();
        assert!(th.as_nanos() / tr.as_nanos() > 15);
    }

    #[test]
    fn capacity_accounting() {
        let (_sim, d) = sim_disk(DiskKind::Ssd, 1000);
        assert_eq!(d.available(), 1000);
        d.reserve(600).unwrap();
        assert_eq!(d.used(), 600);
        let err = d.reserve(500).unwrap_err();
        assert_eq!(
            err,
            StoreError::DiskFull {
                requested: 500,
                available: 400
            }
        );
        d.release(600);
        assert_eq!(d.used(), 0);
        d.reserve(1000).unwrap();
    }

    #[test]
    fn concurrent_ops_serialize_on_one_channel() {
        let (sim, d) = sim_disk(DiskKind::Hdd, 1 << 40);
        for _ in 0..3 {
            let d = Rc::clone(&d);
            sim.spawn(async move { d.write_extent(115_000_000).await.unwrap() });
        }
        let end = sim.run();
        // 3 × (1s + 8ms) serialized
        assert!((end.as_secs_f64() - 3.024).abs() < 1e-6);
        let (_, w, _, wb) = d.io_counters();
        assert_eq!(w, 3);
        assert_eq!(wb, 345_000_000);
    }

    #[test]
    fn offline_device_rejects_ops() {
        let (sim, d) = sim_disk(DiskKind::Ssd, 1 << 30);
        d.set_online(false);
        let d2 = Rc::clone(&d);
        let r = sim.block_on(async move { d2.read_extent(100).await });
        assert_eq!(r, Err(StoreError::Offline));
        d.set_online(true);
        let d3 = Rc::clone(&d);
        assert!(sim
            .block_on(async move { d3.read_extent(100).await })
            .is_ok());
    }

    #[test]
    fn read_and_write_rates_differ() {
        let (sim, d) = sim_disk(DiskKind::Hdd, 1 << 40);
        let s = sim.clone();
        let d2 = Rc::clone(&d);
        let (tw, tr) = sim.block_on(async move {
            let t0 = s.now();
            d2.write_extent(125_000_000).await.unwrap();
            let t1 = s.now();
            d2.read_extent(125_000_000).await.unwrap();
            let t2 = s.now();
            (t1 - t0, t2 - t1)
        });
        assert!(tr < tw, "read {tr:?} should beat write {tw:?}");
    }
}
