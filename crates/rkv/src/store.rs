//! The single-shard key-value store: slab-accounted items, per-class LRU
//! eviction, lazy expiry, and CAS tokens — the memcached storage engine.
//!
//! Capacity, class selection, and eviction behave exactly as in memcached:
//! every item claims a chunk of the smallest slab class that fits
//! `2 + key + value` bytes, and memory pressure evicts the class's LRU
//! tail. Payload bytes, however, are held as zero-copy [`Bytes`] handles
//! rather than being copied into page memory, so simulating a multi-GiB
//! buffer does not consume multi-GiB of host RAM (the materialized memcpy
//! path of the allocator itself is exercised directly by its unit tests
//! and the benchmark's slab probe).

use std::collections::HashMap;
use std::fmt;

use bytes::Bytes;
use simkit::fxhash::FxHashMap;

use crate::slab::{ChunkRef, SlabAllocator, SlabConfig, SlabFull};

/// Store-level failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// key + value exceed the item size limit (clients must chunk).
    TooLarge,
    /// Nothing evictable: every chunk of the class is pinned or the class
    /// cannot grow. (With LRU enabled this only happens when a single item
    /// is larger than all existing items of its class combined budget.)
    OutOfMemory,
    /// Key absent (`pin`, `unpin`).
    NotFound,
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KvError::TooLarge => "item exceeds size limit",
            KvError::OutOfMemory => "out of memory (nothing evictable)",
            KvError::NotFound => "key not found",
        };
        f.write_str(s)
    }
}
impl std::error::Error for KvError {}

/// A fetched value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    /// Payload bytes.
    pub data: Bytes,
    /// Opaque client flags (memcached semantics).
    pub flags: u32,
    /// CAS token for optimistic concurrency.
    pub cas: u64,
}

/// Store counters (cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStats {
    /// GET requests.
    pub gets: u64,
    /// GET requests that found a live item.
    pub hits: u64,
    /// Successful stores.
    pub sets: u64,
    /// Items evicted by LRU pressure.
    pub evictions: u64,
    /// Items reaped after expiry.
    pub expired: u64,
    /// Live items.
    pub items: u64,
    /// Live payload bytes (keys + values).
    pub bytes: u64,
    /// Live items pinned against LRU eviction.
    pub pinned_items: u64,
    /// Payload bytes (keys + values) of pinned items.
    pub pinned_bytes: u64,
}

impl KvStats {
    /// Hit ratio over all GETs (1.0 when no GETs yet).
    pub fn hit_ratio(&self) -> f64 {
        if self.gets == 0 {
            1.0
        } else {
            self.hits as f64 / self.gets as f64
        }
    }
}

#[derive(Clone)]
struct Meta {
    chunk: ChunkRef,
    key_len: u16,
    value: Bytes,
    flags: u32,
    cas: u64,
    /// Absolute expiry in ns; 0 = never.
    expire_at: u64,
    /// Pinned items are skipped by LRU eviction (burst-buffer chunks stay
    /// pinned until their flush is acknowledged). Explicit `delete` and
    /// expiry still remove them.
    pinned: bool,
    /// Owning tenant (0 = untenanted). Set by [`KvStore::set_as`];
    /// ownership survives overwrites issued without a tenant context.
    tenant: u32,
}

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct LruNode {
    prev: u32,
    next: u32,
}

struct ClassLru {
    head: u32,
    tail: u32,
    nodes: Vec<LruNode>,
}

impl ClassLru {
    fn new() -> Self {
        ClassLru {
            head: NONE,
            tail: NONE,
            nodes: Vec::new(),
        }
    }

    fn ensure(&mut self, idx: u32) {
        if self.nodes.len() <= idx as usize {
            self.nodes.resize(
                idx as usize + 1,
                LruNode {
                    prev: NONE,
                    next: NONE,
                },
            );
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.ensure(idx);
        self.nodes[idx as usize] = LruNode {
            prev: NONE,
            next: self.head,
        };
        if self.head != NONE {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NONE {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: u32) {
        let node = self.nodes[idx as usize];
        if node.prev != NONE {
            self.nodes[node.prev as usize].next = node.next;
        } else {
            self.head = node.next;
        }
        if node.next != NONE {
            self.nodes[node.next as usize].prev = node.prev;
        } else {
            self.tail = node.prev;
        }
    }

    fn touch(&mut self, idx: u32) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }
}

/// Single-shard store; [`crate::sharded::ShardedKv`] stripes several
/// behind one key-routed facade.
pub struct KvStore {
    slab: SlabAllocator,
    map: FxHashMap<Box<[u8]>, Meta>,
    /// chunk → key, so the LRU tail can be unlinked during eviction.
    chunk_keys: FxHashMap<ChunkRef, Box<[u8]>>,
    lru: Vec<ClassLru>,
    next_cas: u64,
    stats: KvStats,
    /// Tenant issuing the current store op (0 = untenanted); set
    /// transiently by [`KvStore::set_as`] so eviction knows the requester.
    ctx_tenant: u32,
    /// Per-tenant eviction floor in bytes: cross-tenant eviction may not
    /// push a tenant's resident bytes below this. 0 = disabled (seed
    /// behaviour, no cross-tenant protection).
    tenant_floor: u64,
    /// Resident payload bytes (key + value) per tenant (tenant 0 untracked).
    tenant_bytes: HashMap<u32, u64>,
    /// Cross-tenant eviction attempts denied by the floor.
    floor_denied: u64,
}

impl KvStore {
    /// Create a store with the given slab configuration. The allocator is
    /// always run non-materialized here (see the module docs).
    pub fn new(config: SlabConfig) -> Self {
        let slab = SlabAllocator::new(SlabConfig {
            materialize: false,
            ..config
        });
        let lru = (0..slab.class_count()).map(|_| ClassLru::new()).collect();
        KvStore {
            slab,
            map: FxHashMap::default(),
            chunk_keys: FxHashMap::default(),
            lru,
            next_cas: 1,
            stats: KvStats::default(),
            ctx_tenant: 0,
            tenant_floor: 0,
            tenant_bytes: HashMap::new(),
            floor_denied: 0,
        }
    }

    /// Largest storable item (key + value bytes).
    pub fn item_max(&self) -> usize {
        self.slab.item_max()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Live item count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes of slab memory claimed from the budget.
    pub fn memory_used(&self) -> u64 {
        self.slab.memory_used()
    }

    /// Configured memory budget (slab `mem_limit`).
    pub fn mem_limit(&self) -> u64 {
        self.slab.config().mem_limit
    }

    fn is_expired(meta: &Meta, now: u64) -> bool {
        meta.expire_at != 0 && meta.expire_at <= now
    }

    fn remove_entry(&mut self, key: &[u8]) -> Option<Meta> {
        let meta = self.map.remove(key)?;
        self.lru[meta.chunk.class as usize].unlink(meta.chunk.idx);
        self.chunk_keys.remove(&meta.chunk);
        self.slab.free(meta.chunk);
        self.stats.items -= 1;
        self.stats.bytes -= meta.key_len as u64 + meta.value.len() as u64;
        if meta.pinned {
            self.stats.pinned_items -= 1;
            self.stats.pinned_bytes -= meta.key_len as u64 + meta.value.len() as u64;
        }
        if meta.tenant != 0 {
            let size = meta.key_len as u64 + meta.value.len() as u64;
            let left = self
                .tenant_bytes
                .get_mut(&meta.tenant)
                .expect("tenant item was accounted");
            *left -= size;
            if *left == 0 {
                self.tenant_bytes.remove(&meta.tenant);
            }
        }
        Some(meta)
    }

    /// Whether evicting this item on behalf of `ctx_tenant` would push its
    /// owner's resident bytes below the configured floor. Self-eviction
    /// (owner == requester) and untenanted items are never floor-protected.
    fn floor_protected(&self, meta: &Meta) -> bool {
        self.tenant_floor > 0
            && meta.tenant != 0
            && meta.tenant != self.ctx_tenant
            && self
                .tenant_bytes
                .get(&meta.tenant)
                .copied()
                .unwrap_or(0)
                .saturating_sub(meta.key_len as u64 + meta.value.len() as u64)
                < self.tenant_floor
    }

    /// Evict the coldest *unpinned* item of `class`, walking from the LRU
    /// tail. Returns false if every resident item of the class is pinned
    /// (or the class is empty) — the caller then reports
    /// [`KvError::OutOfMemory`] instead of dropping protected data.
    fn evict_one(&mut self, class: u8) -> bool {
        let mut idx = self.lru[class as usize].tail;
        while idx != NONE {
            let chunk = ChunkRef { class, idx };
            let key = self.chunk_keys.get(&chunk).expect("LRU node has an owner");
            let meta = self.map.get(key.as_ref()).expect("chunk owner is live");
            if meta.pinned {
                idx = self.lru[class as usize].nodes[idx as usize].prev;
                continue;
            }
            if self.floor_protected(meta) {
                self.floor_denied += 1;
                idx = self.lru[class as usize].nodes[idx as usize].prev;
                continue;
            }
            let key = key.to_vec();
            self.remove_entry(&key);
            self.stats.evictions += 1;
            return true;
        }
        false
    }

    fn alloc_with_eviction(&mut self, total: usize) -> Result<ChunkRef, KvError> {
        loop {
            match self.slab.alloc(total) {
                Ok(c) => return Ok(c),
                Err(SlabFull { class }) => {
                    if !self.evict_one(class) {
                        return Err(KvError::OutOfMemory);
                    }
                }
            }
        }
    }

    fn insert(
        &mut self,
        key: &[u8],
        value: &Bytes,
        flags: u32,
        expire_at: u64,
    ) -> Result<u64, KvError> {
        let total = 2 + key.len() + value.len();
        if total > self.item_max() || key.len() > u16::MAX as usize {
            return Err(KvError::TooLarge);
        }
        // drop any previous version first so its chunk is reusable; an
        // overwrite inherits the old version's pin (a repair write to a
        // still-unflushed chunk must not quietly unprotect it) and — when
        // issued without a tenant context — its owner (an untenanted
        // rewrite must not silently strip a tenant's floor protection)
        let prev = self.remove_entry(key);
        let pinned = prev.as_ref().is_some_and(|m| m.pinned);
        let tenant = if self.ctx_tenant != 0 {
            self.ctx_tenant
        } else {
            prev.as_ref().map_or(0, |m| m.tenant)
        };
        let chunk = self.alloc_with_eviction(total)?;
        self.chunk_keys
            .insert(chunk, key.to_vec().into_boxed_slice());
        let cas = self.next_cas;
        self.next_cas += 1;
        self.map.insert(
            key.to_vec().into_boxed_slice(),
            Meta {
                chunk,
                key_len: key.len() as u16,
                value: value.clone(),
                flags,
                cas,
                expire_at,
                pinned,
                tenant,
            },
        );
        self.lru[chunk.class as usize].push_front(chunk.idx);
        self.stats.sets += 1;
        self.stats.items += 1;
        self.stats.bytes += key.len() as u64 + value.len() as u64;
        if pinned {
            self.stats.pinned_items += 1;
            self.stats.pinned_bytes += key.len() as u64 + value.len() as u64;
        }
        if tenant != 0 {
            *self.tenant_bytes.entry(tenant).or_insert(0) += key.len() as u64 + value.len() as u64;
        }
        Ok(cas)
    }

    /// Unconditional store. Returns the new CAS token. A store reads no
    /// clock (`expire_at` is absolute and checked on read), so `_now`
    /// only keeps the call shape of the reads.
    pub fn set(
        &mut self,
        key: &[u8],
        value: Bytes,
        flags: u32,
        expire_at: u64,
        _now: u64,
    ) -> Result<u64, KvError> {
        self.insert(key, &value, flags, expire_at)
    }

    /// [`KvStore::set`] on behalf of `tenant`: the item is tagged as the
    /// tenant's (counted in [`KvStore::tenant_bytes`]) and any eviction
    /// this store triggers respects *other* tenants' floors. `tenant` 0 is
    /// identical to plain `set`.
    pub fn set_as(
        &mut self,
        tenant: u32,
        key: &[u8],
        value: Bytes,
        flags: u32,
        expire_at: u64,
        _now: u64,
    ) -> Result<u64, KvError> {
        self.ctx_tenant = tenant;
        let r = self.insert(key, &value, flags, expire_at);
        self.ctx_tenant = 0;
        r
    }

    /// Set the per-tenant eviction floor in bytes (0 disables — seed
    /// behaviour). Cross-tenant eviction may not push any tenant's
    /// resident bytes below this.
    pub fn set_tenant_floor(&mut self, bytes: u64) {
        self.tenant_floor = bytes;
    }

    /// The configured per-tenant eviction floor (0 = disabled).
    pub fn tenant_floor(&self) -> u64 {
        self.tenant_floor
    }

    /// Resident payload bytes owned by `tenant` (0 for untracked tenant 0).
    pub fn tenant_bytes(&self, tenant: u32) -> u64 {
        self.tenant_bytes.get(&tenant).copied().unwrap_or(0)
    }

    /// Cross-tenant evictions denied by the floor (cumulative).
    pub fn floor_denied(&self) -> u64 {
        self.floor_denied
    }

    fn peek_live(&mut self, key: &[u8], now: u64) -> Option<Meta> {
        let meta = self.map.get(key)?.clone();
        if Self::is_expired(&meta, now) {
            self.remove_entry(key);
            self.stats.expired += 1;
            return None;
        }
        Some(meta)
    }

    /// Fetch a live value, promoting it in its class LRU.
    pub fn get(&mut self, key: &[u8], now: u64) -> Option<Value> {
        self.stats.gets += 1;
        let meta = self.peek_live(key, now)?;
        self.lru[meta.chunk.class as usize].touch(meta.chunk.idx);
        self.stats.hits += 1;
        Some(Value {
            data: meta.value.clone(),
            flags: meta.flags,
            cas: meta.cas,
        })
    }

    /// Whether a live item exists (no LRU promotion, no hit accounting).
    pub fn contains(&mut self, key: &[u8], now: u64) -> bool {
        self.peek_live(key, now).is_some()
    }

    /// Fetch a live value without LRU promotion or get/hit accounting,
    /// also returning its absolute expiry (0 = never). Used by the
    /// server's hot-replica publish path, which must not perturb the
    /// store's LRU or hit-rate telemetry.
    pub fn peek(&mut self, key: &[u8], now: u64) -> Option<(Value, u64)> {
        let meta = self.peek_live(key, now)?;
        Some((
            Value {
                data: meta.value.clone(),
                flags: meta.flags,
                cas: meta.cas,
            },
            meta.expire_at,
        ))
    }

    /// Remove an item. Returns true if it existed.
    pub fn delete(&mut self, key: &[u8]) -> bool {
        self.remove_entry(key).is_some()
    }

    /// Pin a live item against LRU eviction. Idempotent; the pin survives
    /// overwrites (see `insert`) and is released by [`KvStore::unpin`],
    /// explicit delete, or expiry.
    pub fn pin(&mut self, key: &[u8], now: u64) -> Result<(), KvError> {
        if self.peek_live(key, now).is_none() {
            return Err(KvError::NotFound);
        }
        let meta = self.map.get_mut(key).expect("checked live above");
        if !meta.pinned {
            meta.pinned = true;
            self.stats.pinned_items += 1;
            self.stats.pinned_bytes += meta.key_len as u64 + meta.value.len() as u64;
        }
        Ok(())
    }

    /// Release an item's eviction pin. Idempotent on unpinned items.
    pub fn unpin(&mut self, key: &[u8]) -> Result<(), KvError> {
        let meta = self.map.get_mut(key).ok_or(KvError::NotFound)?;
        if meta.pinned {
            meta.pinned = false;
            self.stats.pinned_items -= 1;
            self.stats.pinned_bytes -= meta.key_len as u64 + meta.value.len() as u64;
        }
        Ok(())
    }

    /// Fault-injection backdoor: walk live values in sorted-key order and
    /// let `select(value_len)` pick `(offset, xor_mask)` byte damage for
    /// each. Silent by design — no stats, CAS, or LRU movement change, so
    /// the corruption is only observable through checksum verification.
    /// Returns the number of values damaged.
    pub fn corrupt_resident(
        &mut self,
        mut select: impl FnMut(usize) -> Option<(usize, u8)>,
    ) -> u64 {
        let mut keys = self.keys();
        keys.sort();
        let mut corrupted = 0;
        for key in keys {
            let Some(meta) = self.map.get_mut(key.as_slice()) else {
                continue;
            };
            if meta.value.is_empty() {
                continue;
            }
            if let Some((offset, mask)) = select(meta.value.len()) {
                debug_assert!(offset < meta.value.len());
                let mut v = meta.value.to_vec();
                let at = offset.min(v.len() - 1);
                v[at] ^= mask;
                meta.value = Bytes::from(v);
                corrupted += 1;
            }
        }
        corrupted
    }

    /// All live keys (diagnostic; unspecified order).
    pub fn keys(&self) -> Vec<Vec<u8>> {
        self.map.keys().map(|k| k.to_vec()).collect()
    }

    /// Drop every item (models a process crash losing volatile memory).
    /// Goes through [`KvStore::delete`], in sorted key order as
    /// [`KvStore::corrupt_resident`] walks, so slab and item/byte
    /// accounting stay consistent and what the slab's free lists hold
    /// afterwards does not depend on hash order; hit/miss counters are
    /// preserved.
    pub fn clear(&mut self) {
        let mut keys = self.keys();
        keys.sort();
        for key in keys {
            self.delete(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_mb(mb: u64) -> KvStore {
        KvStore::new(SlabConfig {
            mem_limit: mb << 20,
            ..SlabConfig::default()
        })
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = store_mb(4);
        let cas = s
            .set(b"k1", Bytes::from_static(b"value-1"), 7, 0, 0)
            .unwrap();
        let v = s.get(b"k1", 0).unwrap();
        assert_eq!(&v.data[..], b"value-1");
        assert_eq!(v.flags, 7);
        assert_eq!(v.cas, cas);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn get_miss() {
        let mut s = store_mb(4);
        assert!(s.get(b"nope", 0).is_none());
        let st = s.stats();
        assert_eq!(st.gets, 1);
        assert_eq!(st.hits, 0);
        assert_eq!(st.hit_ratio(), 0.0);
    }

    #[test]
    fn overwrite_replaces_value_and_bumps_cas() {
        let mut s = store_mb(4);
        let c1 = s.set(b"k", Bytes::from_static(b"old"), 0, 0, 0).unwrap();
        let c2 = s
            .set(b"k", Bytes::from_static(b"new-value"), 0, 0, 0)
            .unwrap();
        assert!(c2 > c1);
        assert_eq!(&s.get(b"k", 0).unwrap().data[..], b"new-value");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn delete_removes() {
        let mut s = store_mb(4);
        s.set(b"k", Bytes::from_static(b"v"), 0, 0, 0).unwrap();
        assert!(s.delete(b"k"));
        assert!(!s.delete(b"k"));
        assert!(s.get(b"k", 0).is_none());
        assert_eq!(s.stats().items, 0);
        assert_eq!(s.stats().bytes, 0);
    }

    #[test]
    fn expiry_is_lazy_and_counted() {
        let mut s = store_mb(4);
        s.set(b"k", Bytes::from_static(b"v"), 0, 1_000, 0).unwrap();
        assert!(s.get(b"k", 999).is_some());
        assert!(s.get(b"k", 1_000).is_none());
        assert_eq!(s.stats().expired, 1);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn lru_evicts_coldest_of_the_class() {
        // tight budget: 1 MiB of pages, ~64KiB values → one page in that class
        let mut s = KvStore::new(SlabConfig {
            mem_limit: 1 << 20,
            page_size: 1 << 20,
            chunk_min: 96,
            growth: 1.25,
            materialize: true,
        });
        let val = vec![0xabu8; 60 << 10];
        // fill the class
        let mut stored = Vec::new();
        for i in 0..100 {
            let key = format!("key-{i:03}");
            match s.set(key.as_bytes(), Bytes::from(val.clone()), 0, 0, 0) {
                Ok(_) => stored.push(key),
                Err(e) => panic!("unexpected error {e}"),
            }
            if s.stats().evictions > 0 {
                break;
            }
        }
        assert!(s.stats().evictions > 0, "never hit eviction");
        // the very first key must be the evicted one (coldest)
        let mut miss_gets = s.stats().gets;
        assert!(s.get(b"key-000", 0).is_none());
        miss_gets += 1;
        assert_eq!(s.stats().gets, miss_gets);
        // the newest key is present
        let last = stored.last().unwrap().clone();
        assert!(s.get(last.as_bytes(), 0).is_some());
    }

    #[test]
    fn get_promotes_item_out_of_eviction_order() {
        let mut s = KvStore::new(SlabConfig {
            mem_limit: 1 << 20,
            page_size: 1 << 20,
            chunk_min: 96,
            growth: 1.25,
            materialize: true,
        });
        let val = vec![1u8; 60 << 10];
        // derive the exact per-page chunk capacity of the class this item
        // lands in, so the fill stops exactly at capacity
        let mut probe = SlabAllocator::new(SlabConfig {
            mem_limit: 1 << 20,
            page_size: 1 << 20,
            chunk_min: 96,
            growth: 1.25,
            materialize: true,
        });
        let item_total = 2 + 3 + val.len();
        let class = probe.class_for(item_total).unwrap();
        let capacity = (1 << 20) / probe.chunk_size(class);
        let _ = probe.alloc(item_total).unwrap();
        for i in 0..capacity {
            s.set(
                format!("k{i:02}").as_bytes(),
                Bytes::from(val.clone()),
                0,
                0,
                0,
            )
            .unwrap();
        }
        assert_eq!(s.stats().evictions, 0, "fill overshot capacity");
        // promote k00, then insert more to force evictions
        assert!(s.get(b"k00", 0).is_some());
        for i in capacity..capacity + 3 {
            s.set(
                format!("k{i:02}").as_bytes(),
                Bytes::from(val.clone()),
                0,
                0,
                0,
            )
            .unwrap();
        }
        assert!(s.stats().evictions >= 3);
        // k00 survived thanks to promotion; k01 (the new tail) did not
        assert!(s.get(b"k00", 0).is_some(), "promoted item was evicted");
        assert!(s.get(b"k01", 0).is_none(), "cold item survived eviction");
    }

    #[test]
    fn too_large_rejected() {
        let mut s = store_mb(4);
        let huge = vec![0u8; (1 << 20) + 1];
        assert_eq!(
            s.set(b"k", Bytes::from(huge), 0, 0, 0).unwrap_err(),
            KvError::TooLarge
        );
    }

    #[test]
    fn bytes_accounting_tracks_live_payload() {
        let mut s = store_mb(4);
        s.set(b"abc", Bytes::from_static(b"0123456789"), 0, 0, 0)
            .unwrap();
        assert_eq!(s.stats().bytes, 13);
        s.set(b"abc", Bytes::from_static(b"01"), 0, 0, 0).unwrap();
        assert_eq!(s.stats().bytes, 5);
        s.delete(b"abc");
        assert_eq!(s.stats().bytes, 0);
    }

    #[test]
    fn pinned_items_skip_eviction_and_account() {
        let mut s = KvStore::new(SlabConfig {
            mem_limit: 1 << 20,
            page_size: 1 << 20,
            chunk_min: 96,
            growth: 1.25,
            materialize: true,
        });
        let val = vec![0x5au8; 60 << 10];
        s.set(b"pinned", Bytes::from(val.clone()), 0, 0, 0).unwrap();
        s.pin(b"pinned", 0).unwrap();
        s.pin(b"pinned", 0).unwrap(); // idempotent
        assert_eq!(s.stats().pinned_items, 1);
        assert_eq!(s.stats().pinned_bytes, 6 + (60 << 10) as u64);
        assert_eq!(s.pin(b"missing", 0).unwrap_err(), KvError::NotFound);
        // flood the class: the pinned item is the coldest, yet survives
        for i in 0..60 {
            let _ = s.set(
                format!("filler-{i:02}").as_bytes(),
                Bytes::from(val.clone()),
                0,
                0,
                0,
            );
        }
        assert!(s.stats().evictions > 0, "pressure never evicted");
        assert!(s.get(b"pinned", 0).is_some(), "pinned item was evicted");
        // overwrite keeps the pin, unpin makes it evictable again
        s.set(b"pinned", Bytes::from(val.clone()), 9, 0, 0).unwrap();
        assert_eq!(s.stats().pinned_items, 1);
        s.unpin(b"pinned").unwrap();
        assert_eq!(s.stats().pinned_items, 0);
        assert_eq!(s.stats().pinned_bytes, 0);
        for i in 60..120 {
            let _ = s.set(
                format!("filler-{i:02}").as_bytes(),
                Bytes::from(val.clone()),
                0,
                0,
                0,
            );
        }
        assert!(s.get(b"pinned", 0).is_none(), "unpinned item never evicted");
        // deleting a pinned item keeps accounting consistent
        s.set(b"p2", Bytes::from(val.clone()), 0, 0, 0).unwrap();
        s.pin(b"p2", 0).unwrap();
        assert!(s.delete(b"p2"));
        assert_eq!(s.stats().pinned_items, 0);
        assert_eq!(s.stats().pinned_bytes, 0);
    }

    #[test]
    fn all_pinned_class_reports_out_of_memory() {
        let mut s = KvStore::new(SlabConfig {
            mem_limit: 1 << 20,
            page_size: 1 << 20,
            chunk_min: 96,
            growth: 1.25,
            materialize: true,
        });
        let val = vec![7u8; 60 << 10];
        let mut i = 0;
        loop {
            let key = format!("k{i:02}");
            match s.set(key.as_bytes(), Bytes::from(val.clone()), 0, 0, 0) {
                Ok(_) => s.pin(key.as_bytes(), 0).unwrap(),
                Err(KvError::OutOfMemory) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
            i += 1;
            assert!(i < 100, "never ran out of memory");
        }
        assert_eq!(s.stats().evictions, 0, "a pinned item was evicted");
        // every pinned value is still intact
        for j in 0..i {
            assert!(s.get(format!("k{j:02}").as_bytes(), 0).is_some());
        }
    }

    #[test]
    fn corrupt_resident_flips_selected_bytes_silently() {
        let mut s = store_mb(4);
        for i in 0..8 {
            s.set(
                format!("key-{i}").as_bytes(),
                Bytes::from(vec![i as u8; 64]),
                0,
                0,
                0,
            )
            .unwrap();
        }
        let before = s.stats();
        // corrupt every other value (sorted-key order), flipping byte 3
        let mut n = 0;
        let hit = s.corrupt_resident(|_len| {
            n += 1;
            (n % 2 == 1).then_some((3, 0x40))
        });
        assert_eq!(hit, 4);
        let after = s.stats();
        assert_eq!(before.sets, after.sets);
        assert_eq!(before.bytes, after.bytes);
        let corrupted = (0..8)
            .filter(|i| {
                let v = s.get(format!("key-{i}").as_bytes(), 0).unwrap();
                v.data[3] != i.to_owned() as u8
            })
            .count();
        assert_eq!(corrupted, 4);
    }

    #[test]
    fn many_items_roundtrip_under_pressure() {
        let mut s = store_mb(8);
        let n = 2000;
        for i in 0..n {
            let key = format!("key-{i}");
            let val = format!("value-{i}").repeat(1 + i % 17);
            s.set(
                key.as_bytes(),
                Bytes::from(val.clone().into_bytes()),
                i as u32,
                0,
                0,
            )
            .unwrap();
        }
        let mut live = 0;
        for i in 0..n {
            let key = format!("key-{i}");
            if let Some(v) = s.get(key.as_bytes(), 0) {
                assert_eq!(
                    &v.data[..],
                    format!("value-{i}").repeat(1 + i % 17).as_bytes()
                );
                assert_eq!(v.flags, i as u32);
                live += 1;
            }
        }
        assert_eq!(live as u64, s.stats().items);
        assert!(live > 0);
    }

    #[test]
    fn tenant_bytes_tracks_ownership_across_overwrite_and_delete() {
        let mut s = store_mb(4);
        s.set_as(7, b"k1", Bytes::from_static(b"0123456789"), 0, 0, 0)
            .unwrap();
        assert_eq!(s.tenant_bytes(7), 12);
        // untenanted rewrite preserves ownership
        s.set(b"k1", Bytes::from_static(b"0123456789xy"), 0, 0, 0)
            .unwrap();
        assert_eq!(s.tenant_bytes(7), 14);
        // a different tenant's overwrite transfers ownership
        s.set_as(8, b"k1", Bytes::from_static(b"ab"), 0, 0, 0)
            .unwrap();
        assert_eq!(s.tenant_bytes(7), 0);
        assert_eq!(s.tenant_bytes(8), 4);
        s.delete(b"k1");
        assert_eq!(s.tenant_bytes(8), 0);
        // untenanted items are untracked
        s.set(b"k2", Bytes::from_static(b"v"), 0, 0, 0).unwrap();
        assert_eq!(s.tenant_bytes(0), 0);
    }

    #[test]
    fn floor_blocks_cross_tenant_eviction_but_not_self_eviction() {
        let mut s = KvStore::new(SlabConfig {
            mem_limit: 1 << 20,
            page_size: 1 << 20,
            chunk_min: 96,
            growth: 1.25,
            materialize: true,
        });
        let val = vec![0x5au8; 60 << 10];
        let size = (6 + val.len()) as u64;
        s.set_as(2, b"victim", Bytes::from(val.clone()), 0, 0, 0)
            .unwrap();
        s.set_tenant_floor(size); // tenant 2 may never drop below one item
        for i in 0..40 {
            let _ = s.set_as(
                3,
                format!("flood-{i:02}").as_bytes(),
                Bytes::from(val.clone()),
                0,
                0,
                0,
            );
        }
        assert!(s.stats().evictions > 0, "flood never hit pressure");
        assert!(
            s.get(b"victim", 0).is_some(),
            "floor-protected item was evicted by another tenant"
        );
        assert!(s.floor_denied() > 0);
        // the same tenant may still evict its own coldest item
        let denied = s.floor_denied();
        s.set_as(2, b"victim2", Bytes::from(val.clone()), 0, 0, 0)
            .unwrap();
        s.set_as(2, b"victim3", Bytes::from(val.clone()), 0, 0, 0)
            .unwrap();
        assert_eq!(s.floor_denied(), denied, "self-eviction tripped the floor");
    }

    /// Fill a store's whole budget with near-page-sized items at t=0.
    fn calcify(s: &mut KvStore, pages: usize) {
        for i in 0..pages {
            s.set(
                format!("big{i}").as_bytes(),
                Bytes::from(vec![0u8; (1 << 20) - 100]),
                0,
                0,
                0,
            )
            .unwrap();
        }
    }

    #[test]
    fn without_reclaim_a_shifted_workload_strands_memory() {
        // pages calcified in the big class are never reassigned, so
        // small sets fail outright
        let mut s = store_mb(4);
        calcify(&mut s, 4);
        assert_eq!(
            s.set(b"small", Bytes::from(vec![1u8; 1000]), 0, 0, 10_000)
                .unwrap_err(),
            KvError::OutOfMemory
        );
    }
}
