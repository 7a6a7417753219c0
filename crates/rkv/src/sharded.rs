//! Striped facade over [`KvStore`] — the shape of memcached's threaded
//! engine: keys hash to one of `N` stripes, each with its own slab budget
//! and LRU. The simulation is single-threaded (`Sim: !Send`), so a stripe
//! is a `RefCell`, borrowed for the length of one store call.

use std::cell::RefCell;

use bytes::Bytes;

use crate::hash::fnv1a;
use crate::slab::SlabConfig;
use crate::store::{KvError, KvStats, KvStore, Value};

/// `N`-way striped store. Keys map to shards by FNV-1a.
pub struct ShardedKv {
    shards: Vec<RefCell<KvStore>>,
}

impl ShardedKv {
    /// Create `shards` stripes, splitting `config.mem_limit` between them.
    /// The division remainder is spread one byte per shard so the
    /// aggregate budget is preserved exactly.
    ///
    /// Every shard needs at least one slab page to hold an item, but the
    /// aggregate must never exceed the configured `-m` budget: when the
    /// budget cannot give each requested shard a whole page the shard
    /// count is clamped down, and a budget below a single page runs one
    /// shard with the page size shrunk to the budget.
    pub fn new(shards: usize, config: SlabConfig) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(config.mem_limit > 0, "memory budget must be positive");
        let (shards, config) = if config.mem_limit < config.page_size as u64 {
            let shrunk = SlabConfig {
                page_size: config.mem_limit as usize,
                ..config
            };
            (1, shrunk)
        } else {
            let max_shards = (config.mem_limit / config.page_size as u64) as usize;
            (shards.min(max_shards), config)
        };
        let base = config.mem_limit / shards as u64;
        let remainder = config.mem_limit % shards as u64;
        ShardedKv {
            shards: (0..shards)
                .map(|i| {
                    let extra = u64::from((i as u64) < remainder);
                    let per_shard = SlabConfig {
                        mem_limit: base + extra,
                        ..config
                    };
                    RefCell::new(KvStore::new(per_shard))
                })
                .collect(),
        }
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The stripe that owns `key` — the single routing function shared by
    /// the striped facade and the per-core server engine, so "every
    /// key is served by exactly one shard" holds by construction.
    #[inline]
    pub fn shard_index(&self, key: &[u8]) -> usize {
        (fnv1a(key) as usize) % self.shards.len()
    }

    #[inline]
    fn shard(&self, key: &[u8]) -> &RefCell<KvStore> {
        &self.shards[self.shard_index(key)]
    }

    /// See [`KvStore::set`].
    pub fn set(
        &self,
        key: &[u8],
        value: Bytes,
        flags: u32,
        expire_at: u64,
        now: u64,
    ) -> Result<u64, KvError> {
        self.shard(key)
            .borrow_mut()
            .set(key, value, flags, expire_at, now)
    }

    /// See [`KvStore::set_as`]: a set on behalf of `tenant`, counted in
    /// the owning shard's per-tenant accounting.
    pub fn set_as(
        &self,
        tenant: u32,
        key: &[u8],
        value: Bytes,
        flags: u32,
        expire_at: u64,
        now: u64,
    ) -> Result<u64, KvError> {
        self.shard(key)
            .borrow_mut()
            .set_as(tenant, key, value, flags, expire_at, now)
    }

    /// Apply a per-tenant eviction floor to every shard, as a fraction of
    /// each shard's memory budget (see [`KvStore::set_tenant_floor`]).
    /// 0.0 disables (seed behaviour).
    pub fn set_tenant_floor_frac(&self, frac: f64) {
        for s in &self.shards {
            let mut store = s.borrow_mut();
            let floor = (store.mem_limit() as f64 * frac) as u64;
            store.set_tenant_floor(floor);
        }
    }

    /// Resident payload bytes owned by `tenant`, summed over shards.
    pub fn tenant_bytes(&self, tenant: u32) -> u64 {
        self.shards
            .iter()
            .map(|s| s.borrow().tenant_bytes(tenant))
            .sum()
    }

    /// Cross-tenant evictions denied by the floor, summed over shards.
    pub fn floor_denied(&self) -> u64 {
        self.shards.iter().map(|s| s.borrow().floor_denied()).sum()
    }

    /// See [`KvStore::get`].
    pub fn get(&self, key: &[u8], now: u64) -> Option<Value> {
        self.shard(key).borrow_mut().get(key, now)
    }

    /// See [`KvStore::delete`].
    pub fn delete(&self, key: &[u8]) -> bool {
        self.shard(key).borrow_mut().delete(key)
    }

    /// See [`KvStore::contains`].
    pub fn contains(&self, key: &[u8], now: u64) -> bool {
        self.shard(key).borrow_mut().contains(key, now)
    }

    /// See [`KvStore::peek`].
    pub fn peek(&self, key: &[u8], now: u64) -> Option<(Value, u64)> {
        self.shard(key).borrow_mut().peek(key, now)
    }

    /// See [`KvStore::pin`].
    pub fn pin(&self, key: &[u8], now: u64) -> Result<(), KvError> {
        self.shard(key).borrow_mut().pin(key, now)
    }

    /// See [`KvStore::unpin`].
    pub fn unpin(&self, key: &[u8]) -> Result<(), KvError> {
        self.shard(key).borrow_mut().unpin(key)
    }

    /// See [`KvStore::corrupt_resident`]. Shards are visited in index
    /// order (each walking its keys sorted), so a deterministic `select`
    /// closure sees values in a deterministic sequence.
    pub fn corrupt_resident(&self, mut select: impl FnMut(usize) -> Option<(usize, u8)>) -> u64 {
        let mut corrupted = 0;
        for s in &self.shards {
            corrupted += s.borrow_mut().corrupt_resident(&mut select);
        }
        corrupted
    }

    /// See [`KvStore::clear`].
    pub fn clear(&self) {
        for s in &self.shards {
            s.borrow_mut().clear();
        }
    }

    /// Aggregate counters across shards.
    pub fn stats(&self) -> KvStats {
        let mut out = KvStats::default();
        for s in &self.shards {
            let st = s.borrow().stats();
            out.gets += st.gets;
            out.hits += st.hits;
            out.sets += st.sets;
            out.evictions += st.evictions;
            out.expired += st.expired;
            out.items += st.items;
            out.bytes += st.bytes;
            out.pinned_items += st.pinned_items;
            out.pinned_bytes += st.pinned_bytes;
        }
        out
    }

    /// Counters of a single stripe (per-shard telemetry and balance
    /// reporting).
    pub fn shard_stats(&self, shard: usize) -> KvStats {
        self.shards[shard].borrow().stats()
    }

    /// Total live items.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.borrow().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slab memory claimed.
    pub fn memory_used(&self) -> u64 {
        self.shards.iter().map(|s| s.borrow().memory_used()).sum()
    }

    /// Largest storable item.
    pub fn item_max(&self) -> usize {
        self.shards[0].borrow().item_max()
    }

    /// Aggregate configured memory budget across shards.
    pub fn mem_limit(&self) -> u64 {
        self.shards.iter().map(|s| s.borrow().mem_limit()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(shards: usize) -> ShardedKv {
        ShardedKv::new(
            shards,
            SlabConfig {
                mem_limit: 16 << 20,
                ..SlabConfig::default()
            },
        )
    }

    #[test]
    fn basic_ops_route_consistently() {
        let s = kv(4);
        for i in 0..500 {
            let k = format!("key-{i}");
            s.set(
                k.as_bytes(),
                Bytes::from(format!("v{i}").into_bytes()),
                0,
                0,
                0,
            )
            .unwrap();
        }
        for i in 0..500 {
            let k = format!("key-{i}");
            assert_eq!(
                &s.get(k.as_bytes(), 0).unwrap().data[..],
                format!("v{i}").as_bytes()
            );
        }
        assert_eq!(s.len(), 500);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let s = kv(8);
        for i in 0..100 {
            s.set(
                format!("k{i}").as_bytes(),
                Bytes::from_static(b"v"),
                0,
                0,
                0,
            )
            .unwrap();
        }
        for i in 0..100 {
            s.get(format!("k{i}").as_bytes(), 0);
        }
        s.get(b"missing", 0);
        let st = s.stats();
        assert_eq!(st.sets, 100);
        assert_eq!(st.gets, 101);
        assert_eq!(st.hits, 100);
        assert_eq!(st.items, 100);
    }

    #[test]
    fn splitting_preserves_aggregate_capacity() {
        // a budget that does not divide evenly across shards must not
        // lose the remainder (7 shards over 16 MiB + 5 leaves 5 bytes)
        for shards in [1usize, 3, 7, 8] {
            let budget = (16u64 << 20) + 5;
            let s = ShardedKv::new(
                shards,
                SlabConfig {
                    mem_limit: budget,
                    ..SlabConfig::default()
                },
            );
            assert_eq!(
                s.mem_limit(),
                budget,
                "{shards} shards must keep the full {budget}-byte budget"
            );
        }
        // a budget below one page runs a single shard with shrunken pages
        // instead of inflating to 4 whole pages (the old behaviour)
        let s = ShardedKv::new(
            4,
            SlabConfig {
                mem_limit: 10 << 10,
                ..SlabConfig::default()
            },
        );
        assert_eq!(s.shard_count(), 1);
        assert_eq!(s.mem_limit(), 10 << 10);
        s.set(b"k", Bytes::from_static(b"v"), 0, 0, 0).unwrap();
        assert_eq!(&s.get(b"k", 0).unwrap().data[..], b"v");
    }

    #[test]
    fn aggregate_budget_never_exceeds_configured_limit() {
        // regression: the per-shard one-page floor used to inflate the
        // aggregate budget whenever mem_limit / shards < page_size
        let page = SlabConfig::default().page_size as u64;
        for shards in [1usize, 2, 4, 8, 16] {
            for budget in [
                1 << 10,
                page - 1,
                page,
                page + 1,
                2 * page + 17,
                5 * page,
                (16 << 20) + 3,
            ] {
                let s = ShardedKv::new(
                    shards,
                    SlabConfig {
                        mem_limit: budget,
                        ..SlabConfig::default()
                    },
                );
                assert!(
                    s.mem_limit() <= budget,
                    "{shards} shards over {budget} B must not exceed the budget \
                     (got {})",
                    s.mem_limit()
                );
                assert_eq!(
                    s.mem_limit(),
                    budget,
                    "clamping must still hand out the whole budget"
                );
            }
        }
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let s = kv(8);
        for i in 0..200 {
            let k = format!("key-{i}");
            let idx = s.shard_index(k.as_bytes());
            assert!(idx < s.shard_count());
            assert_eq!(idx, s.shard_index(k.as_bytes()));
        }
    }

    #[test]
    fn single_shard_works() {
        let s = kv(1);
        s.set(b"a", Bytes::from_static(b"1"), 0, 0, 0).unwrap();
        assert!(s.delete(b"a"));
        assert!(s.is_empty());
    }
}
