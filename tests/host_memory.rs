//! Host memory follows live handles, not logical bytes, under a counting
//! allocator, in two cells: the E3/E4 cell (BB-Async, 16 tasks × 64 MiB =
//! 1 GiB of `PayloadPool` slices) written, drained to Lustre, read back
//! and compared; and the E7 cell (BB-Async TeraGen + Sort of 512 MiB: 16
//! map tasks each reading a 32 MiB split back from the buffer, the
//! synthetic shuffle, 16 reducers writing the output back).
//!
//! The dataset is slices of one 4 MiB pattern buffer; the KV slab, the
//! registered regions of the RDMA hops and the OST objects all keep the
//! handles they are given, and every read returns views of them, joined
//! only where an API must return one buffer, after its last await — so
//! the peak live heap is metadata plus what is genuinely copied while in
//! flight. Measured over each built testbed's own heap: 9.3 MiB for the
//! dfsio write + drain and 9.3 MiB for its whole run, 7.8 MiB for the
//! sort. While each reader assembled its 1 MiB read requests in a buffer
//! held across the chunk fetches, the whole run measured 18.5 MiB, and
//! while every map task copied its split into one buffer the sort
//! measured 519.8 MiB (its input, once over); while the multi-GET replies
//! were encoded into contiguous 4 MiB SEND frames, the whole run measured
//! 77.5 MiB; while `Mr` was a zero-filled flat buffer and every RDMA hop
//! a memcpy, 2 053.1 MiB and 2 129.6 MiB: two copies of the dataset, one
//! held by the KV store and one by the OSTs. The write limit is ≈ 2× its
//! figure, the whole-run limit 1.25× (12 MiB), the sort limit ≈ 2×.
//!
//! The same counter also sums every byte allocated during the verified
//! read (E4): 17.6 MiB for the 1 GiB, because each 1 MiB `read_at` over
//! two 512 KiB chunks hands back the writer's own view — the chunks are
//! adjacent views of one append and `Gather::concat` rejoins them. While
//! it copied them into a fresh buffer the read allocated 1 041.6 MiB, one
//! short-lived 1 MiB join per request, invisible to the peak-heap limits.
//! Its limit is ≈ 2× (36 MiB).
//!
//! One `#[test]` in a binary of its own, so nothing else allocates while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use rdma_bb::bb_core::{FileState, Scheme};
use rdma_bb::prelude::*;
use rdma_bb::workloads::sortbench::{self, SortConfig};
use rdma_bb::workloads::testdfsio::{self, DfsioConfig};

/// `System`, counting live bytes, their high-water mark and every byte
/// ever allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
    TOTAL.fetch_add(by, Relaxed);
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

/// Peak live heap over what was live when `run` started, in MiB.
fn peak_over<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = run();
    ((PEAK.load(Relaxed) - base) as f64 / MIB as f64, out)
}

#[test]
fn a_gib_through_the_burst_buffer_costs_tens_of_mib_of_heap() {
    // E3 + E4: TestDFSIO write, drain, verified read
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
    let (total_mib, (peak_written, read_allocated)) = peak_over(|| {
        tb.block_on(|tb| async move {
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
            let before_read = TOTAL.load(Relaxed);
            // `verify`: every byte read back is compared with the generator's
            testdfsio::read(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg, true)
                .await
                .unwrap();
            let read_allocated = TOTAL.load(Relaxed) - before_read;
            tb.shutdown();
            (peak_written, read_allocated)
        })
    });
    let write_mib = (peak_written - base) as f64 / MIB as f64;
    let read_mib = read_allocated as f64 / MIB as f64;

    // E7: TeraGen + Sort, the synthetic shuffle over 16 map splits of
    // 32 MiB read back from the buffer
    let tb = Testbed::build(
        SystemKind::Bb(Scheme::AsyncLustre),
        TestbedConfig::default(),
    );
    let pool = PayloadPool::standard();
    let sort = SortConfig {
        data_size: 512 << 20,
        input_files: 16,
        reducers: 16,
        ..SortConfig::default()
    };
    let (sort_mib, report) = peak_over(|| {
        tb.block_on(|tb| async move {
            let fs_for = tb.fs_for();
            let r = sortbench::generate_and_sort(&tb.engine, &tb.nodes, &fs_for, &pool, &sort)
                .await
                .unwrap();
            tb.shutdown();
            r
        })
    });
    assert_eq!((report.maps, report.bytes), (16, 512 << 20));

    println!(
        "peak live heap over the testbed's own: dfsio write + drain {write_mib:.1} MiB, \
         whole run {total_mib:.1} MiB; sort 512 MiB {sort_mib:.1} MiB; \
         allocated by the dfsio read {read_mib:.1} MiB"
    );
    assert!(
        write_mib < 20.0,
        "write + drain peaked at {write_mib:.1} MiB"
    );
    assert!(total_mib < 12.0, "whole run peaked at {total_mib:.1} MiB");
    assert!(
        read_mib < 36.0,
        "the verified read allocated {read_mib:.1} MiB"
    );
    assert!(sort_mib < 16.0, "sort peaked at {sort_mib:.1} MiB");
}
