//! Memcached-style slab allocator.
//!
//! Memory is carved into fixed-size *pages* (default 1 MiB), each assigned
//! to a *slab class* with a fixed chunk size; chunk sizes grow geometrically
//! from `chunk_min` up to `item_max`. An item occupies one chunk of the
//! smallest class that fits it.
//!
//! Pages are assigned to a class on first use and stay with it (classic
//! memcached behaviour — the cause of "slab calcification": when the
//! value-size distribution shifts, memory stays stranded in the classes
//! the old sizes claimed).

use std::fmt;

/// Allocator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlabConfig {
    /// Total memory budget in bytes (like memcached `-m`).
    pub mem_limit: u64,
    /// Page size; also the largest storable item (+metadata).
    pub page_size: usize,
    /// Smallest chunk size.
    pub chunk_min: usize,
    /// Geometric growth factor between classes (memcached `-f`).
    pub growth: f64,
    /// Whether pages allocate backing host memory. `true` gives the real
    /// memcpy data path (unit tests, the benchmark's slab probe);
    /// `false` keeps exact allocation/eviction semantics while item
    /// payloads live elsewhere as zero-copy handles (the simulation store),
    /// so multi-GiB simulated buffers do not consume multi-GiB of host RAM.
    pub materialize: bool,
}

impl Default for SlabConfig {
    fn default() -> Self {
        SlabConfig {
            mem_limit: 64 << 20,
            page_size: 1 << 20,
            chunk_min: 96,
            growth: 1.25,
            materialize: true,
        }
    }
}

impl SlabConfig {
    /// Physical bytes one item of `item_size` consumes: the share of a page
    /// its slab class grants it. Larger than `item_size` by the class's
    /// internal fragmentation (e.g. a 512 KiB+ item occupies a whole 1 MiB
    /// page with the default growth factor). Capacity planners — like the
    /// burst-buffer flush watermark — must budget with this, not the
    /// logical size. `None` if the item exceeds `page_size`.
    pub fn item_footprint(&self, item_size: usize) -> Option<u64> {
        if item_size > self.page_size {
            return None;
        }
        let mut size = self.chunk_min;
        while size < self.page_size {
            if size >= item_size {
                let per_page = self.page_size / size;
                return Some((self.page_size / per_page) as u64);
            }
            let next = ((size as f64 * self.growth) as usize).max(size + 8);
            size = (next + 7) & !7;
        }
        Some(self.page_size as u64)
    }
}

/// Reference to one allocated chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkRef {
    /// Slab class index.
    pub class: u8,
    /// Chunk index within the class.
    pub idx: u32,
}

/// Allocation failure: no free chunk and no memory left for a new page.
/// The caller (the store) reacts by evicting from the class's LRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabFull {
    /// The class that could not grow.
    pub class: u8,
}

impl fmt::Display for SlabFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slab class {} is full and memory limit reached",
            self.class
        )
    }
}
impl std::error::Error for SlabFull {}

struct SlabClass {
    chunk_size: usize,
    chunks_per_page: usize,
    /// Claimed pages; empty boxes when the slab does not materialize.
    pages: Vec<Box<[u8]>>,
    free: Vec<u32>,
    allocated: usize,
}

impl SlabClass {
    fn total_chunks(&self) -> usize {
        self.pages.len() * self.chunks_per_page
    }
}

/// The allocator. Stores item payloads in page memory; not itself
/// thread-aware (wrap in a lock for concurrent use — see `ShardedKv`).
pub struct SlabAllocator {
    config: SlabConfig,
    classes: Vec<SlabClass>,
    pages_used: usize,
}

impl SlabAllocator {
    /// Build class sizes and an empty allocator.
    pub fn new(config: SlabConfig) -> Self {
        assert!(config.growth > 1.0, "growth factor must exceed 1");
        assert!(config.chunk_min >= 8, "chunk_min too small");
        assert!(
            config.page_size as u64 <= config.mem_limit,
            "memory limit smaller than one page"
        );
        let mut classes = Vec::new();
        let mut size = config.chunk_min;
        while size < config.page_size {
            classes.push(SlabClass {
                chunk_size: size,
                chunks_per_page: config.page_size / size,
                pages: Vec::new(),
                free: Vec::new(),
                allocated: 0,
            });
            let next = ((size as f64 * config.growth) as usize).max(size + 8);
            // align to 8 like memcached
            size = (next + 7) & !7;
        }
        // final class: one chunk per page (the item_max class)
        classes.push(SlabClass {
            chunk_size: config.page_size,
            chunks_per_page: 1,
            pages: Vec::new(),
            free: Vec::new(),
            allocated: 0,
        });
        assert!(classes.len() <= u8::MAX as usize, "too many slab classes");
        SlabAllocator {
            config,
            classes,
            pages_used: 0,
        }
    }

    /// Allocator configuration.
    pub fn config(&self) -> &SlabConfig {
        &self.config
    }

    /// Largest item this allocator can store.
    pub fn item_max(&self) -> usize {
        self.config.page_size
    }

    /// Number of slab classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The class whose chunks fit `size` bytes, or `None` if over item_max.
    pub fn class_for(&self, size: usize) -> Option<u8> {
        if size > self.item_max() {
            return None;
        }
        let idx = self.classes.partition_point(|c| c.chunk_size < size);
        Some(idx as u8)
    }

    /// Chunk size of `class`.
    pub fn chunk_size(&self, class: u8) -> usize {
        self.classes[class as usize].chunk_size
    }

    /// Bytes of memory currently claimed by pages.
    pub fn memory_used(&self) -> u64 {
        (self.pages_used * self.config.page_size) as u64
    }

    /// Chunks currently allocated in `class`.
    pub fn allocated_in(&self, class: u8) -> usize {
        self.classes[class as usize].allocated
    }

    /// Allocate a chunk able to hold `size` bytes. On [`SlabFull`] the
    /// caller should evict an item of the same class and retry.
    ///
    /// Panics if `size` exceeds [`SlabAllocator::item_max`] — the protocol
    /// layer enforces the item limit before getting here.
    pub fn alloc(&mut self, size: usize) -> Result<ChunkRef, SlabFull> {
        let class = self
            .class_for(size)
            .unwrap_or_else(|| panic!("item of {size} B exceeds item_max"));
        let c = &mut self.classes[class as usize];
        if let Some(idx) = c.free.pop() {
            c.allocated += 1;
            return Ok(ChunkRef { class, idx });
        }
        // grow: claim a fresh page if the budget allows
        let budget_pages = (self.config.mem_limit / self.config.page_size as u64) as usize;
        if self.pages_used < budget_pages {
            let base = c.total_chunks() as u32;
            let page = if self.config.materialize {
                vec![0u8; self.config.page_size].into_boxed_slice()
            } else {
                Box::default()
            };
            c.pages.push(page);
            self.pages_used += 1;
            // hand out chunk 0 of the new page; queue the rest
            for i in (1..c.chunks_per_page as u32).rev() {
                c.free.push(base + i);
            }
            c.allocated += 1;
            return Ok(ChunkRef { class, idx: base });
        }
        Err(SlabFull { class })
    }

    /// Return a chunk to its class free list.
    pub fn free(&mut self, chunk: ChunkRef) {
        let c = &mut self.classes[chunk.class as usize];
        debug_assert!((chunk.idx as usize) < c.total_chunks(), "foreign chunk");
        debug_assert!(!c.free.contains(&chunk.idx), "double free");
        c.free.push(chunk.idx);
        c.allocated -= 1;
    }

    /// Write `data` into `chunk` (at offset 0). Panics if it doesn't fit,
    /// or if the allocator was built with `materialize: false`.
    pub fn write(&mut self, chunk: ChunkRef, data: &[u8]) {
        assert!(self.config.materialize, "write on a non-materialized slab");
        let c = &mut self.classes[chunk.class as usize];
        assert!(data.len() <= c.chunk_size, "payload exceeds chunk");
        let page = chunk.idx as usize / c.chunks_per_page;
        let off = (chunk.idx as usize % c.chunks_per_page) * c.chunk_size;
        c.pages[page][off..off + data.len()].copy_from_slice(data);
    }

    /// Read `len` bytes from `chunk`. Panics if the allocator was built
    /// with `materialize: false`.
    pub fn read(&self, chunk: ChunkRef, len: usize) -> &[u8] {
        assert!(self.config.materialize, "read on a non-materialized slab");
        let c = &self.classes[chunk.class as usize];
        assert!(len <= c.chunk_size, "read exceeds chunk");
        let page = chunk.idx as usize / c.chunks_per_page;
        let off = (chunk.idx as usize % c.chunks_per_page) * c.chunk_size;
        &c.pages[page][off..off + len]
    }

    /// Per-class (chunk_size, allocated, total) table, for stats output.
    pub fn class_table(&self) -> Vec<(usize, usize, usize)> {
        self.classes
            .iter()
            .map(|c| (c.chunk_size, c.allocated, c.total_chunks()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SlabAllocator {
        SlabAllocator::new(SlabConfig {
            mem_limit: 4 << 20,
            page_size: 1 << 20,
            chunk_min: 96,
            growth: 1.25,
            materialize: true,
        })
    }

    #[test]
    fn class_sizes_grow_geometrically_and_cover_range() {
        let a = small();
        let table = a.class_table();
        assert!(table.len() > 10);
        assert_eq!(table[0].0, 96);
        assert_eq!(table.last().unwrap().0, 1 << 20);
        for w in table.windows(2) {
            assert!(w[1].0 > w[0].0, "class sizes must increase");
        }
    }

    #[test]
    fn class_for_picks_smallest_fit() {
        let a = small();
        let c = a.class_for(100).unwrap();
        assert!(a.chunk_size(c) >= 100);
        if c > 0 {
            assert!(a.chunk_size(c - 1) < 100);
        }
        assert_eq!(a.class_for(1 << 20).map(|c| a.chunk_size(c)), Some(1 << 20));
        assert_eq!(a.class_for((1 << 20) + 1), None);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut a = small();
        let c1 = a.alloc(500).unwrap();
        let c2 = a.alloc(500).unwrap();
        a.write(c1, b"first-item");
        a.write(c2, b"second-item");
        assert_eq!(a.read(c1, 10), b"first-item");
        assert_eq!(a.read(c2, 11), b"second-item");
    }

    #[test]
    fn alloc_reuses_freed_chunks() {
        let mut a = small();
        let c = a.alloc(200).unwrap();
        let before = a.memory_used();
        a.free(c);
        let c2 = a.alloc(200).unwrap();
        assert_eq!(c.class, c2.class);
        assert_eq!(a.memory_used(), before, "no new page needed");
    }

    #[test]
    fn memory_limit_enforced_via_slab_full() {
        // 2 pages of budget, all going to the 1 MiB class
        let mut a = SlabAllocator::new(SlabConfig {
            mem_limit: 2 << 20,
            page_size: 1 << 20,
            chunk_min: 96,
            growth: 1.25,
            materialize: true,
        });
        let big = (1 << 20) - 100;
        let _c1 = a.alloc(big).unwrap();
        let _c2 = a.alloc(big).unwrap();
        let err = a.alloc(big).unwrap_err();
        assert_eq!(err.class, a.class_for(big).unwrap());
        // freeing lets the class recover
        a.free(_c1);
        assert!(a.alloc(big).is_ok());
    }

    #[test]
    fn classes_do_not_share_pages() {
        let mut a = SlabAllocator::new(SlabConfig {
            mem_limit: 2 << 20,
            page_size: 1 << 20,
            chunk_min: 96,
            growth: 1.25,
            materialize: true,
        });
        // exhaust budget in the small class
        let mut chunks = Vec::new();
        while let Ok(c) = a.alloc(96) {
            chunks.push(c);
        }
        // now a big alloc must fail: pages are calcified in the small class
        assert!(a.alloc(1 << 19).is_err());
    }

    #[test]
    fn allocated_counter_tracks() {
        let mut a = small();
        let class = a.class_for(128).unwrap();
        assert_eq!(a.allocated_in(class), 0);
        let c1 = a.alloc(128).unwrap();
        let c2 = a.alloc(128).unwrap();
        assert_eq!(a.allocated_in(class), 2);
        a.free(c1);
        assert_eq!(a.allocated_in(class), 1);
        a.free(c2);
        assert_eq!(a.allocated_in(class), 0);
    }

    #[test]
    fn distinct_chunks_have_distinct_storage() {
        let mut a = small();
        let chunks: Vec<ChunkRef> = (0..50).map(|_| a.alloc(96).unwrap()).collect();
        for (i, &c) in chunks.iter().enumerate() {
            a.write(c, format!("item-{i:04}").as_bytes());
        }
        for (i, &c) in chunks.iter().enumerate() {
            assert_eq!(a.read(c, 9), format!("item-{i:04}").as_bytes());
        }
    }

    #[test]
    fn footprint_matches_allocator_classes() {
        let cfg = SlabConfig {
            mem_limit: 4 << 20,
            page_size: 1 << 20,
            chunk_min: 96,
            growth: 1.25,
            materialize: true,
        };
        let a = SlabAllocator::new(cfg);
        for item in [1usize, 96, 100, 1000, 10_000, 100_000, 512 << 10, 1 << 20] {
            let class = a.class_for(item).unwrap();
            let chunk = a.chunk_size(class);
            let per_page = cfg.page_size / chunk;
            let expect = (cfg.page_size / per_page) as u64;
            assert_eq!(cfg.item_footprint(item), Some(expect), "item {item}");
        }
        assert_eq!(cfg.item_footprint((1 << 20) + 1), None);
        // the half-megabyte pathology: a 512 KiB item owns a full page
        assert_eq!(cfg.item_footprint(512 << 10), Some(1 << 20));
    }

    #[test]
    #[should_panic(expected = "exceeds item_max")]
    fn oversized_alloc_panics() {
        let mut a = small();
        let _ = a.alloc(2 << 20);
    }
}
