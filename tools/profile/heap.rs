//! A counting global allocator for one process, with no dependencies: it
//! forwards to the system allocator and keeps the live heap, its peak, and
//! the blocks and bytes per power-of-two size class, live and at the peak.
//!
//! Use it on a throwaway copy of a binary (the yardstick, an example),
//! never in committed code:
//!
//! ```text
//! cp tools/profile/heap.rs <copy>/benchmark/src/heap.rs
//! // main.rs, at the top:
//! //     mod heap;
//! //     #[global_allocator]
//! //     static HEAP: heap::Counting = heap::Counting;
//! // main.rs, `run_untraced`, beside the line that reads the cold RSS:
//! //     heap::report("cold");
//! cargo build --release --offline --manifest-path <copy>/benchmark/Cargo.toml
//! ```
//!
//! `report` writes to stderr the peak and live heap since the process
//! started and the bytes ever allocated, then one line per size class that
//! held blocks at the peak or holds them now. A class is the block size
//! rounded up to a power of two, so `≤ 2048 B` holds 1 025–2 048 B blocks.
//! The per-class table at the peak is copied whenever the peak has grown
//! by `STEP` since the last copy, so it is the peak's to within `STEP`.
//! Counting costs a few relaxed atomic adds per allocation; read host CPU
//! from an uninstrumented build. The copies assume one allocating thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Size classes: ≤ 1 B, ≤ 2 B, … ≤ 2^47 B.
const CLASSES: usize = 48;
/// Peak growth between two copies of the per-class table.
const STEP: usize = 64 << 10;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static CLASS_BLOCKS: [AtomicUsize; CLASSES] = [const { AtomicUsize::new(0) }; CLASSES];
static CLASS_BYTES: [AtomicUsize; CLASSES] = [const { AtomicUsize::new(0) }; CLASSES];
/// The live heap when the per-class table was last copied below.
static COPIED_AT: AtomicUsize = AtomicUsize::new(0);
static PEAK_BLOCKS: [AtomicUsize; CLASSES] = [const { AtomicUsize::new(0) }; CLASSES];
static PEAK_BYTES: [AtomicUsize; CLASSES] = [const { AtomicUsize::new(0) }; CLASSES];

/// The allocator: install it with `#[global_allocator]`.
pub struct Counting;

fn class(size: usize) -> usize {
    (size.max(1).next_power_of_two().trailing_zeros() as usize).min(CLASSES - 1)
}

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    ALLOCATED.fetch_add(size, Relaxed);
    CLASS_BLOCKS[class(size)].fetch_add(1, Relaxed);
    CLASS_BYTES[class(size)].fetch_add(size, Relaxed);
    if live >= COPIED_AT.load(Relaxed) + STEP {
        COPIED_AT.store(live, Relaxed);
        for c in 0..CLASSES {
            PEAK_BLOCKS[c].store(CLASS_BLOCKS[c].load(Relaxed), Relaxed);
            PEAK_BYTES[c].store(CLASS_BYTES[c].load(Relaxed), Relaxed);
        }
    }
}

fn shrank(size: usize) {
    LIVE.fetch_sub(size, Relaxed);
    CLASS_BLOCKS[class(size)].fetch_sub(1, Relaxed);
    CLASS_BYTES[class(size)].fetch_sub(size, Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's arguments;
// the counters are only bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as the caller's contract for `alloc`
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as the caller's contract for `alloc_zeroed`
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as the caller's contract for `dealloc`
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as the caller's contract for `realloc`
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Print the heap's peak and live bytes, and the blocks and bytes per size
/// class at the peak and now, to stderr under `label`.
pub fn report(label: &str) {
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    eprintln!(
        "heap {label}: peak {:.2} MiB, live {:.2} MiB, {:.1} MiB allocated in all",
        mib(PEAK.load(Relaxed)),
        mib(LIVE.load(Relaxed)),
        mib(ALLOCATED.load(Relaxed)),
    );
    eprintln!(
        "  {:>12}  {:>8} {:>10}  {:>8} {:>10}",
        "class", "at peak", "KiB", "live", "KiB"
    );
    for c in 0..CLASSES {
        let peak = (PEAK_BLOCKS[c].load(Relaxed), PEAK_BYTES[c].load(Relaxed));
        let live = (CLASS_BLOCKS[c].load(Relaxed), CLASS_BYTES[c].load(Relaxed));
        if peak.0 > 0 || live.0 > 0 {
            eprintln!(
                "  ≤ {:>10}  {:>8} {:>10.1}  {:>8} {:>10.1}",
                1usize << c,
                peak.0,
                peak.1 as f64 / 1024.0,
                live.0,
                live.1 as f64 / 1024.0
            );
        }
    }
}
