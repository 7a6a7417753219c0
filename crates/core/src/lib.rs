//! # bb-core — the RDMA key-value-store burst buffer
//!
//! The paper's contribution: Big-Data (HDFS-style) I/O on an HPC cluster is
//! routed through a burst buffer built from RDMA-Memcached servers, with
//! Lustre as the persistent backing store. Three integration schemes trade
//! I/O performance, data locality, and fault tolerance (DESIGN.md §3):
//!
//! * [`Scheme::AsyncLustre`] — writes land in the buffer over RDMA and are
//!   acknowledged immediately; a persistence manager flushes to Lustre in
//!   the background. Fastest writes, zero local storage, small fault
//!   window (unflushed data lives only in buffer memory).
//! * [`Scheme::SyncLustre`] — write-through: a chunk is acknowledged only
//!   after both the buffer PUT and the Lustre write complete. No fault
//!   window; writes pay max(buffer, Lustre).
//! * [`Scheme::HybridLocality`] — one extra replica goes to node-local
//!   storage (a RAM-disk-backed single-replica HDFS overlay) so map tasks
//!   keep data locality; buffer + async Lustre flush as in AsyncLustre.
//!
//! Reads always prefer the buffer (RDMA GET from server DRAM), then the
//! node-local replica (scheme C), then Lustre.
//!
//! [`fs::AnyFs`] wraps plain HDFS, plain Lustre, and the burst buffer
//! behind one interface so the MapReduce engine and the benchmark
//! workloads drive all five systems identically.

#![warn(missing_docs)]

mod chunks;
pub mod client;
mod flusher;
pub mod fs;
pub mod integrity;
pub mod manager;
mod movers;
pub mod placement;

use std::rc::Rc;

use netsim::{Fabric, NodeId};
use rdmasim::RdmaStack;
use rkv::server::KvServerConfig;
use rkv::slab::SlabConfig;
use rkv::KvServer;

use lustre::LustreCluster;

use hdfs::{HdfsCluster, HdfsConfig};
use storesim::DiskKind;

pub use client::{BbClient, BbError, BbReader, BbWriter, ReadStats};
pub use manager::{BbManager, FileState};
pub use placement::PlacementPolicy;

/// Which of the paper's three HDFS⇄Lustre integration schemes is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Buffer write + asynchronous Lustre flush (I/O-oriented).
    AsyncLustre,
    /// Buffer write + synchronous Lustre write-through (fault-tolerance-
    /// oriented).
    SyncLustre,
    /// Buffer write + node-local replica + asynchronous Lustre flush
    /// (data-locality-oriented).
    HybridLocality,
}

impl Scheme {
    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::AsyncLustre => "BB-Async",
            Scheme::SyncLustre => "BB-Sync",
            Scheme::HybridLocality => "BB-Hybrid",
        }
    }

    /// All three schemes, for sweeps.
    pub fn all() -> [Scheme; 3] {
        [
            Scheme::AsyncLustre,
            Scheme::SyncLustre,
            Scheme::HybridLocality,
        ]
    }
}

/// When a buffered write is acknowledged to the client, relative to the
/// configured replication factor `r` ([`BbConfig::kv_replication`]).
///
/// The remaining replicas complete asynchronously under a bounded
/// ack-ahead window ([`BbConfig::bb_ack_ahead`]); the loss window each
/// mode leaves open under a crash is an asserted contract in the fault
/// matrix (`bench/tests/faults.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AckMode {
    /// Ack after one replica (the primary) is durable in the buffer.
    /// Loss window under a primary crash: up to the ack-ahead window.
    LocalOnly,
    /// Ack after two replicas are durable (one when `r = 1`). Survives
    /// any single crash with zero acked loss when `r >= 2`.
    LocalPlusOne,
    /// Ack only after all `r` replicas are durable — the seed behaviour
    /// and the default. Zero acked loss up to `r - 1` crashes.
    FullR,
}

impl AckMode {
    /// Replicas that must be durable before the ack, given `r` configured.
    pub fn quorum(&self, r: usize) -> usize {
        let r = r.max(1);
        match self {
            AckMode::LocalOnly => 1,
            AckMode::LocalPlusOne => r.min(2),
            AckMode::FullR => r,
        }
    }

    /// Short label used in experiment tables and knob docs.
    pub fn label(&self) -> &'static str {
        match self {
            AckMode::LocalOnly => "local_only",
            AckMode::LocalPlusOne => "local_plus_one",
            AckMode::FullR => "full_r",
        }
    }

    /// All three modes, for sweeps.
    pub fn all() -> [AckMode; 3] {
        [AckMode::LocalOnly, AckMode::LocalPlusOne, AckMode::FullR]
    }
}

/// Chunks a writer pushes concurrently.
pub(crate) const WRITE_WINDOW: usize = 4;
/// RAM-disk capacity per node for the locality replica (scheme C).
const LOCAL_RAMDISK: u64 = 8 << 30;
/// The KV client's retry budget and first backoff (doubles per retry),
/// shared by everything here that retries on a transport error: each
/// manager RPC, each async replica tail and (plus three) each flusher
/// read-back.
pub(crate) use rkv::client::{BACKOFF_BASE as KV_BACKOFF, MAX_RETRIES as KV_RETRIES};

/// Delay before retry number `attempt` (from 0): `scale` first backoffs,
/// doubling per retry, capped at `cap`.
pub(crate) fn kv_backoff(
    scale: u32,
    attempt: u32,
    cap: std::time::Duration,
) -> std::time::Duration {
    KV_BACKOFF.saturating_mul(scale << attempt.min(20)).min(cap)
}

/// Burst-buffer deployment configuration.
#[derive(Debug, Clone, Copy)]
pub struct BbConfig {
    /// Active integration scheme.
    pub scheme: Scheme,
    /// Chunk size for the block→KV key schema (default 512 KiB, inside
    /// memcached's 1 MiB item limit).
    pub chunk_size: u64,
    /// Number of dedicated KV (burst buffer) server nodes.
    pub kv_servers: usize,
    /// Memory budget per KV server.
    pub kv_mem_per_server: u64,
    /// Concurrent file flush streams in the persistence manager.
    pub flusher_threads: usize,
    /// Chunks a reader fetches concurrently (pipelined tiered read path),
    /// and how far past each request it prefetches (readahead; the bytes
    /// returned are identical either way). `1` reproduces the serial
    /// chunk-at-a-time behaviour exactly.
    pub read_window: usize,
    /// Client-side serialization rate on the write path (bytes/s): the
    /// Hadoop-client → KV-client boundary (framing, copies into registered
    /// buffers). Calibrated so per-task write throughput lands in the
    /// regime the paper reports (DESIGN.md §5).
    pub client_write_rate: f64,
    /// Client-side rate on the read path (bytes/s): one-sided RDMA lands
    /// payloads directly in client buffers, so reads are much cheaper than
    /// writes per byte.
    pub client_read_rate: f64,
    /// Transport the KV layer runs on (native verbs by default; the
    /// `repro AB1` ablation swaps in IPoIB/Ethernet to isolate the RDMA
    /// contribution).
    pub transport: netsim::TransportProfile,
    /// Use the hybrid one-sided protocol (RDMA READ/WRITE for payloads).
    /// `false` forces every payload inline through SEND/RECV (ablation).
    pub one_sided: bool,
    /// KV replicas per chunk (`r`): chunks are written to the first `r`
    /// distinct servers on the ring and reads fail over between them.
    /// `1` reproduces the paper's single-copy buffer.
    pub kv_replication: usize,
    /// Background rebalancer tick period (virtual time). Each tick reacts
    /// to membership-epoch bumps by queueing resident chunks whose ring
    /// owners changed, then migrates up to 64 of them (copy to the new
    /// owners, verify CRC by read-back, delete from the old).
    /// `Duration::ZERO` disables the rebalancer: a membership change then
    /// relies on the lookup order alone ([`rkv::KvClient::read_order`] —
    /// past the replica set, the rest of the roster), which reads, the
    /// flusher's read-back and the scrubber all walk, so unmigrated
    /// chunks are still read, flushed and kept.
    pub rebalance_interval: std::time::Duration,
    /// Overload high watermark, the buffer's one overload response: when
    /// unflushed buffered bytes exceed this fraction of usable KV memory,
    /// write acks route writers write-through to Lustre (per scheme, no
    /// errors) instead of queueing more bytes behind the flusher. Pins
    /// keep the unflushed chunks resident meanwhile.
    pub bb_high_watermark: f64,
    /// Overload low watermark: pressure clears (writers resume buffering)
    /// once unflushed bytes drain below this fraction — hysteresis so the
    /// write path does not flap around a single threshold.
    pub bb_low_watermark: f64,
    /// Enable per-operation request tracing ([`simkit::optrace`]): every
    /// KV op and burst-buffer read group / write chunk records a
    /// virtual-time stamp vector, published as exact-percentile latency
    /// decompositions (`rkv.lat.*`, `bb.lat.*`). `false` (default) keeps
    /// tracing fully disabled — outputs are byte-identical either way.
    pub trace_ops: bool,
    /// Default durability ack mode for buffered writes ([`AckMode`]).
    /// [`AckMode::FullR`] (default) reproduces the seed exactly: the ack
    /// waits for all `r` replicas. Relaxed modes ack at the mode's quorum
    /// and complete the remaining replicas asynchronously.
    pub bb_ack_mode: AckMode,
    /// Bound on chunks per writer whose async replica tails are still
    /// outstanding under a relaxed ack mode. When the window is full the
    /// next write waits for a tail to finish before acking
    /// (backpressure), so the acked-but-not-fully-replicated loss window
    /// is never wider than this many chunks. Must be > 0.
    pub bb_ack_ahead: usize,
    /// Traffic-aware admission: once a file writes this many bytes
    /// inside one classifier window, the manager labels it
    /// long-sequential and routes its remaining chunks write-through to
    /// Lustre, keeping BB capacity for bursts. `0` (default) disables
    /// classification entirely (always-admit, seed behaviour).
    pub bb_admit_stream_bytes: u64,
    /// Classifier window: an idle gap longer than this between writes of
    /// the same file resets its accumulated byte count, so spaced bursts
    /// never classify as streams no matter their total volume.
    pub bb_admit_window: std::time::Duration,
    /// Replica-target policy for buffered chunks ([`PlacementPolicy`]).
    /// [`PlacementPolicy::Hash`] (default) is the seed consistent-hash
    /// ring bit-for-bit; [`PlacementPolicy::Locality`] places new chunks
    /// on the topologically nearest ring servers to the writer.
    pub bb_place_policy: PlacementPolicy,
    /// Background placement-optimizer tick period (virtual time). Each
    /// tick re-costs resident chunks against their observed readers
    /// (topology cost model, [`netsim::Fabric::topo_latency`]) and
    /// migrates improvements toward the readers — copy, CRC read-back,
    /// override install, then delete-from-old, reusing the rebalancer's
    /// verified-move machinery. `Duration::ZERO` (default) disables the
    /// optimizer.
    pub bb_place_interval: std::time::Duration,
    /// Payload bytes the placement optimizer may copy per tick (its
    /// migration-bandwidth budget; at least one queued move always
    /// proceeds). `0` removes the bound.
    pub bb_migrate_budget: u64,
}

impl BbConfig {
    /// Whether any part of the placement engine is on: a non-hash policy
    /// or a running optimizer. Gates the access tracker and the lazy
    /// `bb.place.*` counters so defaults stay byte-identical.
    pub fn placement_enabled(&self) -> bool {
        self.bb_place_policy != PlacementPolicy::Hash
            || self.bb_place_interval > std::time::Duration::ZERO
    }
}

impl Default for BbConfig {
    fn default() -> Self {
        BbConfig {
            scheme: Scheme::AsyncLustre,
            chunk_size: 512 << 10,
            kv_servers: 4,
            kv_mem_per_server: 512 << 20,
            flusher_threads: 4,
            read_window: 8,
            client_write_rate: 55e6,
            client_read_rate: 1.0e9,
            transport: netsim::TransportProfile::verbs_qdr(),
            one_sided: true,
            kv_replication: 1,
            rebalance_interval: std::time::Duration::from_millis(200),
            bb_high_watermark: 0.75,
            bb_low_watermark: 0.5,
            trace_ops: false,
            bb_ack_mode: AckMode::FullR,
            bb_ack_ahead: 8,
            bb_admit_stream_bytes: 0,
            bb_admit_window: std::time::Duration::from_millis(50),
            bb_place_policy: PlacementPolicy::Hash,
            bb_place_interval: std::time::Duration::ZERO,
            bb_migrate_budget: 8 << 20,
        }
    }
}

/// A deployed burst buffer: KV servers + persistence manager wired between
/// compute nodes and a Lustre filesystem (plus a single-replica RAM-disk
/// HDFS overlay for scheme C).
pub struct BbDeployment {
    /// Deployment configuration.
    pub config: BbConfig,
    /// The verbs stack shared by clients and servers.
    pub stack: Rc<RdmaStack>,
    /// The seed KV servers (dedicated nodes). Frozen at deploy time;
    /// elastic joins/drains act on [`BbDeployment::membership`], which
    /// starts as exactly this set.
    pub kv_servers: Vec<Rc<KvServer>>,
    /// Epoch-versioned membership view shared by every client and the
    /// manager — the single source of truth for ring routing.
    membership: Rc<rkv::Membership>,
    /// Standby servers created by [`BbDeployment::standby_kv_server`]:
    /// alive on the fabric but not yet admitted to the ring, keyed by
    /// fabric node index so fault plans can name them.
    standby: std::cell::RefCell<std::collections::HashMap<u32, Rc<KvServer>>>,
    /// The persistent backing filesystem.
    pub lustre: Rc<LustreCluster>,
    /// Locality overlay (scheme C only).
    pub hdfs_local: Option<Rc<HdfsCluster>>,
    /// The namespace + persistence manager.
    pub manager: Rc<BbManager>,
    /// Read-path tier/batch counters, aggregated across every client of
    /// this deployment — live state in the simulation's metrics registry
    /// (`bb.read.*`), [`ReadStats`] is its frozen view.
    read: client::ReadCounters,
    /// Checksum-verification and repair counters (`bb.integrity.*`),
    /// shared by every reader, the flusher, and the scrubber.
    integrity: integrity::IntegrityCounters,
    /// Durability-ack counters (`bb.ack.*`), registered lazily on the
    /// first relaxed-mode write so the metric names stay out of default
    /// snapshots (byte-identity at defaults).
    ack: std::cell::RefCell<Option<Rc<client::AckCounters>>>,
}

/// The configuration every KV server of a deployment runs with, members
/// and standbys alike.
fn kv_server_config(config: &BbConfig) -> KvServerConfig {
    KvServerConfig {
        slab: SlabConfig {
            mem_limit: config.kv_mem_per_server,
            ..SlabConfig::default()
        },
        // chunks arrive with their CRC32C in `flags`; the server rejects
        // transfers whose payload no longer matches (BadDigest → client
        // re-sends)
        verify_set_crc: true,
        ..KvServerConfig::default()
    }
}

impl BbDeployment {
    /// Deploy a burst buffer on `fabric`, backed by `lustre`. KV servers
    /// and the manager get fresh fabric nodes; `compute_nodes` are the
    /// nodes that will run clients (they host the scheme-C local overlay).
    pub fn deploy(
        fabric: &Rc<Fabric>,
        lustre: Rc<LustreCluster>,
        compute_nodes: &[NodeId],
        config: BbConfig,
    ) -> Rc<BbDeployment> {
        assert!(config.kv_servers > 0, "need at least one KV server");
        assert!(config.chunk_size > 0);
        assert!(
            config.bb_low_watermark <= config.bb_high_watermark,
            "pressure hysteresis needs low <= high"
        );
        assert!(config.bb_ack_ahead > 0, "ack-ahead window must be > 0");
        if config.trace_ops {
            fabric.sim().optrace().enable();
        }
        let stack = RdmaStack::with_profile(Rc::clone(fabric), config.transport);
        let kv_servers: Vec<Rc<KvServer>> = (0..config.kv_servers)
            .map(|_| {
                let node = fabric.add_node();
                KvServer::new(Rc::clone(&stack), node, kv_server_config(&config))
            })
            .collect();
        let hdfs_local = match config.scheme {
            Scheme::HybridLocality => {
                assert!(
                    !compute_nodes.is_empty(),
                    "HybridLocality needs compute nodes for the local overlay"
                );
                Some(HdfsCluster::deploy(
                    fabric,
                    compute_nodes,
                    HdfsConfig {
                        replication: 1,
                        dn_disk: DiskKind::RamDisk,
                        dn_capacity: LOCAL_RAMDISK,
                        ..HdfsConfig::default()
                    },
                ))
            }
            _ => None,
        };
        let membership = rkv::Membership::new(kv_servers.clone());
        let manager_node = fabric.add_node();
        let manager = BbManager::spawn(
            Rc::clone(&stack),
            manager_node,
            Rc::clone(&membership),
            Rc::clone(&lustre),
            config,
        );
        let read = client::ReadCounters::register(fabric.sim().metrics());
        let integrity = integrity::IntegrityCounters::register(fabric.sim().metrics());
        let dep = Rc::new(BbDeployment {
            config,
            stack,
            kv_servers,
            membership,
            standby: std::cell::RefCell::new(std::collections::HashMap::new()),
            lustre,
            hdfs_local,
            manager,
            read,
            integrity,
            ack: std::cell::RefCell::new(None),
        });
        // scripted elasticity: AddServer promotes a pre-created standby
        // onto the ring, DrainServer takes a member off it; Weak capture
        // so the injector (sim-lifetime) never keeps the deployment alive
        let weak = Rc::downgrade(&dep);
        fabric.sim().faults().on_membership(move |ev| {
            let Some(dep) = weak.upgrade() else { return };
            match ev.change {
                simkit::MembershipChange::Join => {
                    dep.admit_kv_server(NodeId(ev.node));
                }
                simkit::MembershipChange::Drain => {
                    dep.drain_kv_server(NodeId(ev.node));
                }
            }
        });
        dep
    }

    /// The shared membership view clients and the manager route through.
    pub fn membership(&self) -> &Rc<rkv::Membership> {
        &self.membership
    }

    /// Create a standby KV server on a fresh fabric node: alive and
    /// serving its port, but not yet on the ring. Returns the server; a
    /// later [`BbDeployment::admit_kv_server`] (or a scripted
    /// [`simkit::FaultEvent::AddServer`] naming its node) puts it on the
    /// ring. Pre-creating standbys is what lets fault plans name join
    /// targets at plan-build time.
    pub fn standby_kv_server(&self) -> Rc<KvServer> {
        let fabric = self.stack.fabric();
        let node = fabric.add_node();
        let server = KvServer::new(Rc::clone(&self.stack), node, kv_server_config(&self.config));
        self.standby.borrow_mut().insert(node.0, Rc::clone(&server));
        server
    }

    /// Admit the server on `node` to the ring: a standby created by
    /// [`BbDeployment::standby_kv_server`], or a previously drained member
    /// rejoining. Bumps the membership epoch; the manager's background
    /// rebalancer migrates remapped chunks. `false` if `node` hosts no
    /// known server.
    pub fn admit_kv_server(&self, node: NodeId) -> bool {
        let standby = self.standby.borrow_mut().remove(&node.0);
        if let Some(server) = standby {
            self.membership.add_server(server);
            return true;
        }
        if let Some(idx) = self.membership.index_of(node) {
            let server = self.membership.server(idx);
            self.membership.add_server(server);
            return true;
        }
        false
    }

    /// Take the server on `node` off the ring. It keeps running and keeps
    /// its data until the rebalancer migrates the chunks away. `false` if
    /// the node is not an active member (or is the last one).
    pub fn drain_kv_server(&self, node: NodeId) -> bool {
        self.membership.drain_server(node)
    }

    /// Make a client on a compute node.
    pub fn client(self: &Rc<Self>, node: NodeId) -> Rc<BbClient> {
        BbClient::new(Rc::clone(self), node)
    }

    /// Bytes currently held in the buffer layer (live KV items), over the
    /// full roster — drained servers still hold bytes until migration
    /// finishes, joined standbys start accumulating immediately.
    pub fn buffered_bytes(&self) -> u64 {
        (0..self.membership.roster_len())
            .map(|i| self.membership.server(i).store().stats().bytes)
            .sum()
    }

    /// Node-local storage in use (scheme C overlay; 0 for A/B) — the E9
    /// metric.
    pub fn local_storage_used(&self) -> u64 {
        self.hdfs_local
            .as_ref()
            .map(|h| h.local_storage_used())
            .unwrap_or(0)
    }

    /// Snapshot of the read-path counters accumulated since deployment
    /// (or the last [`BbDeployment::reset_read_stats`]).
    pub fn read_stats(&self) -> ReadStats {
        self.read.snapshot()
    }

    /// Zero the read-path counters (per-phase accounting in experiments).
    pub fn reset_read_stats(&self) {
        self.read.reset();
    }

    pub(crate) fn read_counters(&self) -> &client::ReadCounters {
        &self.read
    }

    pub(crate) fn integrity_counters(&self) -> &integrity::IntegrityCounters {
        &self.integrity
    }

    /// Locality write-time placement: choose and install a routing
    /// override for a brand-new chunk key so its replicas land on the
    /// ring servers topologically nearest the writer. A no-op unless
    /// [`BbConfig::bb_place_policy`] is [`PlacementPolicy::Locality`], or
    /// when the nearest servers are the hash owners anyway.
    pub(crate) fn install_locality_override(&self, from: NodeId, key: &[u8]) {
        if self.config.bb_place_policy != PlacementPolicy::Locality {
            return;
        }
        let r = self.config.kv_replication.max(1);
        if let Some(targets) =
            placement::locality_targets(self.stack.fabric(), &self.membership, from, key, r)
        {
            self.membership.set_override(key, targets);
        }
    }

    /// The `bb.ack.*` counters, registered on first use so the names are
    /// absent from snapshots of runs that never take a relaxed ack path.
    pub(crate) fn ack_counters(&self) -> Rc<client::AckCounters> {
        let mut slot = self.ack.borrow_mut();
        if slot.is_none() {
            *slot = Some(Rc::new(client::AckCounters::register(
                self.stack.fabric().sim().metrics(),
            )));
        }
        Rc::clone(slot.as_ref().unwrap())
    }

    /// Stop background loops (scheme-C overlay heartbeats, the integrity
    /// scrubber, the rebalancer, the placement optimizer) so simulations
    /// can quiesce.
    pub fn shutdown(&self) {
        if let Some(h) = &self.hdfs_local {
            h.shutdown();
        }
        self.manager.stop_background();
    }
}

#[cfg(test)]
mod read_path_tests;
#[cfg(test)]
mod tests;
