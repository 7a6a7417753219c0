//! Host memory follows live handles, not logical bytes: the E3/E4 cell
//! (BB-Async, 16 tasks × 64 MiB = 1 GiB of `PayloadPool` slices) written,
//! drained to Lustre, read back and compared, under a counting allocator.
//!
//! The dataset is slices of one 4 MiB pattern buffer; the KV slab, the
//! registered regions of the RDMA hops and the OST objects all keep the
//! handles they are given, so the peak live heap is metadata plus what is
//! genuinely copied while in flight. Measured over the built testbed's
//! own heap: 9.7 MiB for write + drain, 18.5 MiB for the whole run (each
//! 1 MiB read request is assembled from two chunks; the multi-GET replies
//! carry the stored value handles as gather elements). While those replies
//! were encoded into contiguous 4 MiB SEND frames, 16 readers at a time,
//! the whole run measured 77.5 MiB; while `Mr` was a zero-filled flat
//! buffer and every RDMA hop a memcpy, 2 053.1 MiB and 2 129.6 MiB: two
//! copies of the dataset, one held by the KV store and one by the OSTs.
//! The write limit is ≈ 2× its figure, the whole-run limit 1.25×.
//!
//! One `#[test]` in a binary of its own, so nothing else allocates while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use rdma_bb::bb_core::{FileState, Scheme};
use rdma_bb::prelude::*;
use rdma_bb::workloads::testdfsio::{self, DfsioConfig};

/// `System`, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MIB: usize = 1 << 20;

#[test]
fn a_gib_through_the_burst_buffer_costs_tens_of_mib_of_heap() {
    let tb = Testbed::build(
        SystemKind::Bb(Scheme::AsyncLustre),
        TestbedConfig::default(),
    );
    let pool = PayloadPool::standard();
    let cfg = DfsioConfig {
        files: 16,
        file_size: 64 << 20,
        ..DfsioConfig::default()
    };
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let peak_written = tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        testdfsio::write(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .unwrap();
        let client = tb.bb.as_ref().unwrap().client(tb.nodes[0]);
        for i in 0..cfg.files {
            let state = client.wait_flushed(&cfg.path(i)).await.unwrap();
            assert_eq!(state, FileState::Flushed);
        }
        let peak_written = PEAK.load(Relaxed);
        // `verify`: every byte read back is compared with the generator's
        testdfsio::read(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg, true)
            .await
            .unwrap();
        tb.shutdown();
        peak_written
    });
    let write_mib = (peak_written - base) as f64 / MIB as f64;
    let total_mib = (PEAK.load(Relaxed) - base) as f64 / MIB as f64;
    println!("peak live heap over the testbed's own: write + drain {write_mib:.1} MiB, whole run {total_mib:.1} MiB");
    assert!(
        write_mib < 20.0,
        "write + drain peaked at {write_mib:.1} MiB"
    );
    assert!(total_mib < 23.0, "whole run peaked at {total_mib:.1} MiB");
}
