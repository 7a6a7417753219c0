//! # rkv — RDMA-Memcached
//!
//! A reimplementation of the paper's key-value substrate: a
//! memcached-semantics store (slab allocation, per-class LRU, lazy expiry,
//! CAS tokens) served over a hybrid RDMA transport and addressed by clients
//! through ketama consistent hashing.
//!
//! Layering:
//! * [`slab`] / [`store`] — the storage engine (real data structures,
//!   striped by [`sharded`]);
//! * [`hash`] — FNV-1a and the consistent-hash ring;
//! * [`proto`] — the binary wire protocol;
//! * [`server`] — a per-node KV server process on the simulated fabric;
//! * [`client`] — connection-caching client with the hybrid protocol:
//!   small payloads inline in SEND, large payloads moved one-sided
//!   (server RDMA-READs SET payloads from client memory, RDMA-WRITEs GET
//!   payloads into client memory), mirroring OSU RDMA-Memcached.

#![warn(missing_docs)]

pub mod checksum;
pub mod client;
pub mod hash;
pub mod hotness;
pub mod membership;
pub mod proto;
pub mod server;
pub mod sharded;
pub mod slab;
pub mod store;

pub use checksum::{crc32c, crc32c_pair, crc32c_pair_bytes};
pub use client::{KvClient, KvClientConfig, OpKind, OpRecord};
pub use hash::{fnv1a, HashRing};
pub use membership::Membership;
pub use server::{KvServer, KvServerConfig};
pub use sharded::ShardedKv;
pub use slab::{SlabConfig, SlabFull};
pub use store::{KvError, KvStats, KvStore, Value};
