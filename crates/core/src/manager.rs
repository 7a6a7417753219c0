//! The burst-buffer manager: namespace owner and persistence manager.
//!
//! One manager process tracks every file written through the buffer and —
//! for the asynchronous schemes — runs per-file flusher tasks that drain
//! buffered chunks to Lustre with bounded parallelism and a watermark that
//! back-pressures writers before unflushed data could face LRU pressure.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use bytes::Bytes;
use netsim::{NodeId, ReplyHandle, RpcError, Switchboard};
use rdmasim::RdmaStack;
use rkv::client::ClientError;
use rkv::{HashRing, KvClient, Membership};
use simkit::dur;
use simkit::sync::mpsc;
use simkit::sync::semaphore::Semaphore;

use lustre::{LustreCluster, LustreError};

use crate::integrity::{self, IntegrityCounters};
use crate::placement::{self, AccessTracker, PlaceState};
use crate::{BbConfig, Scheme};

/// KV key for chunk `seq` of file `file_id`.
pub fn chunk_key(file_id: u64, seq: u64) -> Vec<u8> {
    format!("f{file_id}:{seq}").into_bytes()
}

/// Lustre backing path for a buffered file.
pub fn lustre_path(path: &str) -> String {
    format!("/bb{path}")
}

/// Burst-buffer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BbError {
    /// Path does not exist.
    NotFound(String),
    /// Path already exists.
    Exists(String),
    /// File is still being written (delete/read race).
    Busy(String),
    /// KV layer failure.
    Kv(ClientError),
    /// Lustre layer failure.
    Lustre(LustreError),
    /// HDFS overlay failure (scheme C).
    Hdfs(hdfs::HdfsError),
    /// RPC failure talking to the manager.
    Rpc(RpcError),
    /// A chunk is in neither the buffer nor Lustre (buffer node lost
    /// before flush — the AsyncLustre fault window).
    DataUnavailable {
        /// File path.
        path: String,
        /// Missing chunk.
        seq: u64,
    },
}

impl fmt::Display for BbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BbError::NotFound(p) => write!(f, "no such file: {p}"),
            BbError::Exists(p) => write!(f, "file exists: {p}"),
            BbError::Busy(p) => write!(f, "file busy: {p}"),
            BbError::Kv(e) => write!(f, "buffer layer: {e}"),
            BbError::Lustre(e) => write!(f, "backing store: {e}"),
            BbError::Hdfs(e) => write!(f, "local overlay: {e}"),
            BbError::Rpc(e) => write!(f, "manager rpc: {e}"),
            BbError::DataUnavailable { path, seq } => {
                write!(f, "chunk {seq} of {path} lost (unflushed buffer data)")
            }
        }
    }
}
impl std::error::Error for BbError {}

impl From<ClientError> for BbError {
    fn from(e: ClientError) -> Self {
        BbError::Kv(e)
    }
}
impl From<LustreError> for BbError {
    fn from(e: LustreError) -> Self {
        BbError::Lustre(e)
    }
}
impl From<hdfs::HdfsError> for BbError {
    fn from(e: hdfs::HdfsError) -> Self {
        BbError::Hdfs(e)
    }
}
impl From<RpcError> for BbError {
    fn from(e: RpcError) -> Self {
        BbError::Rpc(e)
    }
}

/// Durability state of a buffered file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileState {
    /// Open for writing.
    Writing,
    /// Closed; flush to Lustre in progress.
    Closed,
    /// Every byte is safe in Lustre.
    Flushed,
    /// At least one unflushed chunk was lost from the buffer.
    Lost,
}

/// File metadata returned by `Open`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BbFileMeta {
    /// Stable file id (used in chunk keys).
    pub file_id: u64,
    /// File size (valid once closed).
    pub size: u64,
    /// Durability state.
    pub state: FileState,
    /// Chunk size the file was written with.
    pub chunk_size: u64,
    /// Lustre backing path.
    pub lustre_path: String,
    /// Per-chunk CRC32C manifest (`crc32c(chunk_key || data)`, indexed by
    /// seq). Populated at close; readers verify Lustre-tier reads against
    /// it. Empty while the file is still being written.
    pub chunk_crcs: Vec<u32>,
}

/// Write acknowledgement carried by `ChunkReady`/`ChunkDirect` replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// The buffer is above its overload high watermark: the writer should
    /// degrade to write-through (`ChunkDirect`) until an ack clears the
    /// flag again (below the low watermark — hysteresis).
    pub pressure: bool,
    /// The traffic classifier labelled this file a long-sequential
    /// stream: the writer should route its remaining chunks write-through
    /// to Lustre, keeping BB capacity for bursts. Always `false` when
    /// admission control is off ([`BbConfig::bb_admit_stream_bytes`] = 0).
    pub write_through: bool,
}

/// Manager RPCs.
pub enum MgrMsg {
    /// Register a new file; returns its id.
    Create {
        /// File path.
        path: String,
        /// Reply channel.
        reply: ReplyHandle<Result<u64, BbError>>,
    },
    /// A chunk landed in the buffer. The ack doubles as a flow-control
    /// credit: it is withheld while unflushed bytes exceed the watermark.
    ChunkReady {
        /// File id.
        file_id: u64,
        /// Chunk sequence number.
        seq: u64,
        /// Chunk length.
        len: u64,
        /// CRC32C of `chunk_key || data` as sealed by the writer.
        crc: u32,
        /// Reply channel (credit).
        reply: ReplyHandle<Result<WriteAck, BbError>>,
    },
    /// Degraded path: the buffer rejected the chunk (or the writer is
    /// under pressure), so the raw data comes to the manager, which
    /// persists it to Lustre directly.
    ChunkDirect {
        /// File id.
        file_id: u64,
        /// Chunk sequence number.
        seq: u64,
        /// Chunk payload.
        data: Bytes,
        /// CRC32C of `chunk_key || data` as sealed by the writer.
        crc: u32,
        /// Reply channel.
        reply: ReplyHandle<Result<WriteAck, BbError>>,
    },
    /// Seal a file. For async schemes the ack does not wait for the flush.
    Close {
        /// File id.
        file_id: u64,
        /// Final size.
        size: u64,
        /// Per-chunk CRC manifest, indexed by seq.
        crcs: Vec<u32>,
        /// Reply channel.
        reply: ReplyHandle<Result<(), BbError>>,
    },
    /// Block until the file is fully flushed (or lost).
    WaitFlushed {
        /// File path.
        path: String,
        /// Resolves with the final state.
        reply: ReplyHandle<Result<FileState, BbError>>,
    },
    /// Fetch metadata.
    Open {
        /// File path.
        path: String,
        /// Reply channel.
        reply: ReplyHandle<Result<BbFileMeta, BbError>>,
    },
    /// Drop a file from the namespace; the caller reaps chunk/Lustre data.
    Delete {
        /// File path.
        path: String,
        /// Reply carries the dropped file's metadata.
        reply: ReplyHandle<Result<BbFileMeta, BbError>>,
    },
    /// List paths under a prefix.
    List {
        /// Path prefix.
        prefix: String,
        /// Reply channel.
        reply: ReplyHandle<Vec<String>>,
    },
}

enum FlushItem {
    Chunk {
        seq: u64,
        len: u64,
        crc: u32,
    },
    Direct {
        seq: u64,
        data: Bytes,
        /// Classified long-sequential: contiguous runs may coalesce into
        /// stripe-sized extents. Pressure-degraded chunks stay `false`
        /// and flush one extent per chunk (the seed path, bit-for-bit).
        streaming: bool,
    },
    Close {
        size: u64,
    },
}

/// Concatenate coalesced chunk payloads into one extent (zero-copy for a
/// run of one).
fn concat_extent(parts: &mut Vec<Bytes>) -> Bytes {
    if parts.len() == 1 {
        return parts.pop().expect("len checked");
    }
    let total = parts.iter().map(|b| b.len()).sum();
    let mut buf = bytes::BytesMut::with_capacity(total);
    for p in parts.drain(..) {
        buf.extend_from_slice(&p);
    }
    buf.freeze()
}

struct FileEntry {
    path: String,
    file_id: u64,
    size: u64,
    state: FileState,
    flush_tx: Option<mpsc::Sender<FlushItem>>,
    crcs: Vec<u32>,
    /// Bytes written inside the current classifier window (admission
    /// control; untouched when the classifier is off).
    admit_bytes: u64,
    /// Virtual-time nanos of the file's last write (window-gap detection).
    admit_last: u64,
    /// Classified long-sequential: acks steer the writer to Lustre
    /// write-through. Sticky for the file's lifetime.
    streaming: bool,
}

/// Mailbox service name for the manager.
pub const MGR_SERVICE: &str = "bb-mgr";

/// Cumulative manager/flusher counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MgrStats {
    /// Chunks flushed buffer→Lustre.
    pub chunks_flushed: u64,
    /// Bytes flushed buffer→Lustre.
    pub bytes_flushed: u64,
    /// Chunks persisted via the degraded direct path.
    pub chunks_direct: u64,
    /// Chunks that were lost (missing from the buffer at flush time).
    pub chunks_lost: u64,
    /// Times a writer was stalled by the flush watermark.
    pub watermark_stalls: u64,
}

/// The manager/flusher counters as registered metrics (`bb.mgr.*`);
/// [`MgrStats`] is the frozen view assembled by [`MgrCounters::snapshot`].
pub(crate) struct MgrCounters {
    chunks_flushed: simkit::telemetry::Counter,
    bytes_flushed: simkit::telemetry::Counter,
    chunks_direct: simkit::telemetry::Counter,
    chunks_lost: simkit::telemetry::Counter,
    watermark_stalls: simkit::telemetry::Counter,
}

impl MgrCounters {
    fn register(m: &simkit::telemetry::Registry) -> MgrCounters {
        MgrCounters {
            chunks_flushed: m.counter("bb.mgr.chunks_flushed"),
            bytes_flushed: m.counter("bb.mgr.bytes_flushed"),
            chunks_direct: m.counter("bb.mgr.chunks_direct"),
            chunks_lost: m.counter("bb.mgr.chunks_lost"),
            watermark_stalls: m.counter("bb.mgr.watermark_stalls"),
        }
    }

    fn snapshot(&self) -> MgrStats {
        MgrStats {
            chunks_flushed: self.chunks_flushed.get(),
            bytes_flushed: self.bytes_flushed.get(),
            chunks_direct: self.chunks_direct.get(),
            chunks_lost: self.chunks_lost.get(),
            watermark_stalls: self.watermark_stalls.get(),
        }
    }
}

/// Background-scrubber counters (`bb.scrub.*`).
struct ScrubCounters {
    scanned: simkit::telemetry::Counter,
    repaired: simkit::telemetry::Counter,
    unrepairable: simkit::telemetry::Counter,
}

impl ScrubCounters {
    fn register(m: &simkit::telemetry::Registry) -> ScrubCounters {
        ScrubCounters {
            scanned: m.counter("bb.scrub.scanned"),
            repaired: m.counter("bb.scrub.repaired"),
            unrepairable: m.counter("bb.scrub.unrepairable"),
        }
    }
}

/// Background-rebalancer counters (`bb.rebalance.*`).
struct RebalanceCounters {
    /// Chunks migrated to their new ring owners (copy verified, old
    /// copies deleted).
    moved: simkit::telemetry::Counter,
    /// Payload bytes copied by migrations.
    bytes: simkit::telemetry::Counter,
    /// Migrated copies that failed the CRC read-back (old copies kept).
    verify_fail: simkit::telemetry::Counter,
    /// Membership epochs the rebalancer has processed.
    epochs: simkit::telemetry::Counter,
}

impl RebalanceCounters {
    fn register(m: &simkit::telemetry::Registry) -> RebalanceCounters {
        RebalanceCounters {
            moved: m.counter("bb.rebalance.moved"),
            bytes: m.counter("bb.rebalance.bytes"),
            verify_fail: m.counter("bb.rebalance.verify_fail"),
            epochs: m.counter("bb.rebalance.epochs"),
        }
    }
}

/// Traffic-aware admission counters (`bb.admit.*`) — registered only
/// when the classifier is on ([`BbConfig::bb_admit_stream_bytes`] > 0),
/// so the names stay out of default snapshots.
struct AdmitCounters {
    /// Files labelled long-sequential by the windowed classifier.
    stream_detected: simkit::telemetry::Counter,
    /// Chunks a classified stream sent write-through (admission routing,
    /// distinct from pressure-induced write-through).
    writethrough_chunks: simkit::telemetry::Counter,
    /// Times an idle gap longer than the window reset a file's byte count
    /// (a spaced burst staying a burst).
    window_resets: simkit::telemetry::Counter,
}

impl AdmitCounters {
    fn register(m: &simkit::telemetry::Registry) -> AdmitCounters {
        AdmitCounters {
            stream_detected: m.counter("bb.admit.stream_detected"),
            writethrough_chunks: m.counter("bb.admit.writethrough_chunks"),
            window_resets: m.counter("bb.admit.window_resets"),
        }
    }
}

/// Overload (write-pressure) counters (`bb.pressure.*`).
struct PressureCounters {
    enter: simkit::telemetry::Counter,
    exit: simkit::telemetry::Counter,
    writethrough: simkit::telemetry::Counter,
}

impl PressureCounters {
    fn register(m: &simkit::telemetry::Registry) -> PressureCounters {
        PressureCounters {
            enter: m.counter("bb.pressure.enter"),
            exit: m.counter("bb.pressure.exit"),
            writethrough: m.counter("bb.pressure.writethrough"),
        }
    }
}

type FlushWaiters = RefCell<HashMap<u64, Vec<ReplyHandle<Result<FileState, BbError>>>>>;

/// How one verified chunk move ([`BbManager::migrate_to`]) ended.
enum MigrateOutcome {
    /// The chunk vanished (deleted/forgotten) since being queued.
    Gone,
    /// No authoritative copy reachable right now; old layout untouched.
    NoSource,
    /// Another migration already holds the chunk's `migrating` guard
    /// (rebalancer vs placement optimizer); nothing was touched.
    Busy,
    /// A copy or its CRC read-back failed; old copies kept.
    Failed,
    /// The desired set holds verified copies and stale copies are gone.
    /// `wrote` is false when every target already had the data.
    Done {
        /// Whether any fresh copy was written.
        wrote: bool,
        /// Chunk payload size.
        bytes: u64,
    },
}

/// A chunk's membership in the `migrating` set for the length of one
/// move: released on drop, so no exit from [`BbManager::migrate_to`] can
/// leak the chunk (a leaked entry hides it from the scrubber for good
/// and keeps `rebalance_backlog()` above zero).
struct MigratingGuard<'a> {
    set: &'a RefCell<BTreeSet<(u64, u64)>>,
    chunk: (u64, u64),
}

impl<'a> MigratingGuard<'a> {
    /// Enter `chunk` into `set`; `None` when another move already holds it.
    fn acquire(set: &'a RefCell<BTreeSet<(u64, u64)>>, chunk: (u64, u64)) -> Option<Self> {
        // built only on success: a refused guard must not exist, or its
        // drop would release the holder's entry
        let entered = set.borrow_mut().insert(chunk);
        entered.then(|| MigratingGuard { set, chunk })
    }
}

impl Drop for MigratingGuard<'_> {
    fn drop(&mut self) {
        self.set.borrow_mut().remove(&self.chunk);
    }
}

/// The manager process.
pub struct BbManager {
    node: NodeId,
    config: BbConfig,
    net: Rc<Switchboard<MgrMsg>>,
    kv: Rc<KvClient>,
    lustre_client: lustre::LustreClient,
    files: RefCell<HashMap<String, Rc<RefCell<FileEntry>>>>,
    by_id: RefCell<HashMap<u64, Rc<RefCell<FileEntry>>>>,
    next_id: Cell<u64>,
    unflushed: Cell<u64>,
    watermark: u64,
    /// Overload thresholds in unflushed bytes (hysteresis: pressure sets
    /// above `high`, clears below `low`).
    high: u64,
    low: u64,
    pressure: Cell<bool>,
    credit_waiters: RefCell<VecDeque<ReplyHandle<Result<WriteAck, BbError>>>>,
    flush_waiters: FlushWaiters,
    flush_gate: Semaphore,
    /// Buffered-chunk flushes queued or in flight. Streaming write-through
    /// flush tasks yield the gate while this is non-zero: draining the
    /// buffer releases writer credits, so buffered chunks take priority
    /// over the open-loop write-through stream.
    chunk_pending: Cell<u64>,
    /// Single-permit lane for classified streaming extents. Coalesced
    /// extents are large; one in flight keeps the OST busy back-to-back
    /// while leaving every [`BbManager::flush_gate`] slot free for
    /// credit-releasing chunk flushes. Pressure-degraded direct chunks
    /// (the seed path) do not use this lane.
    stream_lane: Semaphore,
    stats: MgrCounters,
    /// Traffic classifier counters; `None` when admission control is off
    /// (the classifier is then a no-op and its metric names never exist).
    admit: Option<AdmitCounters>,
    /// Chunk keys expected resident in the buffer, with their sealed CRCs:
    /// `(file_id, seq) → crc`. The scrubber's and rebalancer's work list.
    resident: RefCell<BTreeMap<(u64, u64), u32>>,
    scrub_cursor: Cell<(u64, u64)>,
    scrub_stop: Cell<bool>,
    scrub: ScrubCounters,
    pressure_stats: PressureCounters,
    integrity: IntegrityCounters,
    /// The shared membership view (same object the clients route through).
    view: Rc<Membership>,
    /// Ring as of the last epoch the rebalancer processed. Diffing it
    /// against the live ring finds exactly the keys whose owners changed —
    /// the ≈ k/n consistent-hashing remap set, not the whole key space.
    last_ring: RefCell<HashRing<usize>>,
    /// Epoch `last_ring` corresponds to.
    last_epoch: Cell<u64>,
    /// Chunks queued for migration (pinned ones queued ahead).
    rebalance_pending: RefCell<VecDeque<(u64, u64)>>,
    /// Chunks mid-migration; the scrubber skips these (a half-established
    /// replica set must not be "repaired" concurrently).
    migrating: RefCell<BTreeSet<(u64, u64)>>,
    /// Chunks currently pinned (unflushed): these migrate first, and their
    /// pin is re-established on the new owners before old copies go away.
    pinned: RefCell<BTreeSet<(u64, u64)>>,
    rebalance_stop: Cell<bool>,
    rebal: RebalanceCounters,
    /// Placement engine (reader telemetry, optimizer queue, `bb.place.*`
    /// counters); `None` when placement is off, so no tracker exists and
    /// no metric name is ever registered (defaults byte-identity).
    place: Option<PlaceState>,
}

impl BbManager {
    /// Spawn the manager on `node`, routing through the shared membership
    /// `view` (the same object every client of the deployment uses).
    pub fn spawn(
        stack: Rc<RdmaStack>,
        node: NodeId,
        view: Rc<Membership>,
        lustre: Rc<LustreCluster>,
        config: BbConfig,
    ) -> Rc<BbManager> {
        let fabric = Rc::clone(stack.fabric());
        // manager control traffic rides the verbs fabric too
        let net = Switchboard::new(Rc::clone(&fabric), *stack.profile());
        let kv = KvClient::with_view(
            Rc::clone(&stack),
            node,
            Rc::clone(&view),
            crate::client::kv_client_config(&config),
        );
        // budget against the *physical* slab footprint of a chunk item
        // (key + length header + payload), not its logical size — a chunk
        // just over a class boundary can occupy a whole page
        let slab = rkv::slab::SlabConfig::default();
        let item = config.chunk_size as usize + 32;
        let footprint = slab
            .item_footprint(item)
            .expect("chunk_size exceeds the KV item limit") as f64;
        let density = (config.chunk_size as f64 / footprint).min(1.0);
        let usable = (config.kv_mem_per_server * config.kv_servers as u64) as f64 * density;
        let watermark = (usable * config.flush_watermark) as u64;
        let high = (usable * config.bb_high_watermark) as u64;
        let low = (usable * config.bb_low_watermark) as u64;
        let mgr = Rc::new(BbManager {
            node,
            config,
            net: Rc::clone(&net),
            kv,
            lustre_client: lustre.client(node),
            files: RefCell::new(HashMap::new()),
            by_id: RefCell::new(HashMap::new()),
            next_id: Cell::new(1),
            unflushed: Cell::new(0),
            watermark,
            high,
            low,
            pressure: Cell::new(false),
            credit_waiters: RefCell::new(VecDeque::new()),
            flush_waiters: RefCell::new(HashMap::new()),
            flush_gate: Semaphore::new(config.flusher_threads.max(1)),
            chunk_pending: Cell::new(0),
            stream_lane: Semaphore::new(1),
            stats: MgrCounters::register(fabric.sim().metrics()),
            admit: (config.bb_admit_stream_bytes > 0)
                .then(|| AdmitCounters::register(fabric.sim().metrics())),
            resident: RefCell::new(BTreeMap::new()),
            scrub_cursor: Cell::new((0, 0)),
            scrub_stop: Cell::new(false),
            scrub: ScrubCounters::register(fabric.sim().metrics()),
            pressure_stats: PressureCounters::register(fabric.sim().metrics()),
            integrity: IntegrityCounters::register(fabric.sim().metrics()),
            last_ring: RefCell::new(view.ring_snapshot()),
            last_epoch: Cell::new(view.epoch()),
            view,
            rebalance_pending: RefCell::new(VecDeque::new()),
            migrating: RefCell::new(BTreeSet::new()),
            pinned: RefCell::new(BTreeSet::new()),
            rebalance_stop: Cell::new(false),
            rebal: RebalanceCounters::register(fabric.sim().metrics()),
            place: config
                .placement_enabled()
                .then(|| PlaceState::new(fabric.sim().metrics())),
        });
        let mut rx = net.register(node, MGR_SERVICE);
        let sim = net.fabric().sim().clone();
        let this = Rc::clone(&mgr);
        sim.clone().spawn(async move {
            while let Ok(env) = rx.recv().await {
                sim.sleep(dur::us(2)).await;
                this.handle(env.msg);
            }
        });
        if config.scrub_interval > std::time::Duration::ZERO {
            let sim = net.fabric().sim().clone();
            let this = Rc::clone(&mgr);
            sim.clone().spawn(async move {
                loop {
                    sim.sleep(this.config.scrub_interval).await;
                    if this.scrub_stop.get() {
                        break;
                    }
                    this.scrub_tick().await;
                }
            });
        }
        if config.rebalance_interval > std::time::Duration::ZERO {
            let sim = net.fabric().sim().clone();
            let this = Rc::clone(&mgr);
            sim.clone().spawn(async move {
                loop {
                    sim.sleep(this.config.rebalance_interval).await;
                    if this.rebalance_stop.get() {
                        break;
                    }
                    this.rebalance_tick().await;
                }
            });
        }
        if mgr.place.is_some() && config.bb_place_interval > std::time::Duration::ZERO {
            let sim = net.fabric().sim().clone();
            let this = Rc::clone(&mgr);
            sim.clone().spawn(async move {
                loop {
                    sim.sleep(this.config.bb_place_interval).await;
                    let place = this.place.as_ref().expect("loop gated on Some");
                    if place.stop.get() {
                        break;
                    }
                    this.place_tick().await;
                }
            });
        }
        mgr
    }

    /// Stop the background scrubber after its current tick (lets
    /// simulations quiesce; called from [`crate::BbDeployment::shutdown`]).
    pub fn stop_scrub(&self) {
        self.scrub_stop.set(true);
    }

    /// Stop the background rebalancer after its current tick (lets
    /// simulations quiesce; called from [`crate::BbDeployment::shutdown`]).
    pub fn stop_rebalance(&self) {
        self.rebalance_stop.set(true);
    }

    /// Stop the background placement optimizer after its current tick
    /// (lets simulations quiesce; called from
    /// [`crate::BbDeployment::shutdown`]). A no-op when placement is off.
    pub fn stop_place(&self) {
        if let Some(place) = &self.place {
            place.stop.set(true);
        }
    }

    /// Placement moves still queued behind the migration budget. Zero
    /// means the optimizer has converged on the telemetry it has seen.
    pub fn place_backlog(&self) -> usize {
        self.place
            .as_ref()
            .map(|p| p.pending.borrow().len())
            .unwrap_or(0)
    }

    /// The shared reader-telemetry tracker; `None` when placement is off.
    pub(crate) fn access_tracker(&self) -> Option<&Rc<AccessTracker>> {
        self.place.as_ref().map(|p| &p.tracker)
    }

    /// Chunks still queued (or being scanned in) for migration. Zero —
    /// once [`BbManager::rebalance_epoch`] has caught up with the view —
    /// means the ring has converged.
    pub fn rebalance_backlog(&self) -> usize {
        self.rebalance_pending.borrow().len() + self.migrating.borrow().len()
    }

    /// The membership epoch the rebalancer has fully processed.
    pub fn rebalance_epoch(&self) -> u64 {
        self.last_epoch.get()
    }

    /// Fabric node of the manager.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The manager's control switchboard (clients call through this).
    pub fn net(&self) -> &Rc<Switchboard<MgrMsg>> {
        &self.net
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MgrStats {
        self.stats.snapshot()
    }

    /// Unflushed buffered bytes (flow-control pressure).
    pub fn unflushed_bytes(&self) -> u64 {
        self.unflushed.get()
    }

    fn sim(&self) -> &simkit::Sim {
        self.net.fabric().sim()
    }

    fn handle(self: &Rc<Self>, msg: MgrMsg) {
        match msg {
            MgrMsg::Create { path, reply } => {
                let r = self.create(&path);
                reply.send(r, 64);
            }
            MgrMsg::ChunkReady {
                file_id,
                seq,
                len,
                crc,
                reply,
            } => {
                let entry = self.by_id.borrow().get(&file_id).cloned();
                let Some(entry) = entry else {
                    reply.send(Err(BbError::NotFound(format!("file_id {file_id}"))), 16);
                    return;
                };
                self.resident.borrow_mut().insert((file_id, seq), crc);
                // the writer pinned the chunk before announcing it; track
                // the pin so a migration carries it to the new owners
                self.pinned.borrow_mut().insert((file_id, seq));
                self.unflushed.set(self.unflushed.get() + len);
                if let Some(tx) = &entry.borrow().flush_tx {
                    if tx.try_send(FlushItem::Chunk { seq, len, crc }).is_ok() {
                        self.chunk_pending.set(self.chunk_pending.get() + 1);
                    }
                }
                if !self.pressure.get() && self.unflushed.get() > self.high {
                    self.pressure.set(true);
                    self.pressure_stats.enter.inc();
                    self.sim()
                        .flight_record("bb.manager", "pressure_enter", || {
                            format!("unflushed={} high={}", self.unflushed.get(), self.high)
                        });
                }
                let streaming = self.classify_write(&entry, len);
                if self.pressure.get() {
                    // overloaded: ack immediately with the pressure flag so
                    // the writer degrades to write-through instead of
                    // queueing more bytes behind the flusher
                    reply.send(
                        Ok(WriteAck {
                            pressure: true,
                            write_through: streaming,
                        }),
                        16,
                    );
                } else if streaming {
                    // classified long-sequential: ack immediately and steer
                    // the writer to Lustre write-through. This chunk is
                    // already buffered and flushes normally; only the
                    // file's remaining chunks bypass the buffer.
                    reply.send(
                        Ok(WriteAck {
                            pressure: false,
                            write_through: true,
                        }),
                        16,
                    );
                } else if self.unflushed.get() <= self.watermark {
                    reply.send(
                        Ok(WriteAck {
                            pressure: false,
                            write_through: false,
                        }),
                        16,
                    );
                } else {
                    self.stats.watermark_stalls.inc();
                    self.credit_waiters.borrow_mut().push_back(reply);
                }
            }
            MgrMsg::ChunkDirect {
                file_id,
                seq,
                data,
                crc,
                reply,
            } => {
                let entry = self.by_id.borrow().get(&file_id).cloned();
                let Some(entry) = entry else {
                    reply.send(Err(BbError::NotFound(format!("file_id {file_id}"))), 16);
                    return;
                };
                // the direct path bypasses the KV tier's digest check, so
                // verify here before the bytes can reach Lustre
                if integrity::chunk_crc(&chunk_key(file_id, seq), &data) != crc {
                    self.integrity.checksum_fail.inc();
                    reply.send(Err(BbError::Kv(ClientError::TransferFailed)), 16);
                    return;
                }
                if self.pressure.get() {
                    self.pressure_stats.writethrough.inc();
                }
                let streaming = self.classify_write(&entry, data.len() as u64);
                if streaming {
                    if let Some(admit) = &self.admit {
                        admit.writethrough_chunks.inc();
                    }
                }
                let tx = entry.borrow().flush_tx.clone();
                match tx {
                    Some(tx) => {
                        let _ = tx.try_send(FlushItem::Direct {
                            seq,
                            data,
                            streaming,
                        });
                        reply.send(
                            Ok(WriteAck {
                                pressure: self.pressure.get(),
                                write_through: streaming,
                            }),
                            16,
                        );
                    }
                    None => {
                        reply.send(Err(BbError::Busy("no flusher for this scheme".into())), 16);
                    }
                }
            }
            MgrMsg::Close {
                file_id,
                size,
                crcs,
                reply,
            } => {
                let entry = self.by_id.borrow().get(&file_id).cloned();
                let Some(entry) = entry else {
                    reply.send(Err(BbError::NotFound(format!("file_id {file_id}"))), 16);
                    return;
                };
                {
                    let mut e = entry.borrow_mut();
                    e.size = size;
                    e.crcs = crcs;
                    match e.flush_tx.take() {
                        Some(tx) => {
                            e.state = FileState::Closed;
                            let _ = tx.try_send(FlushItem::Close { size });
                            // dropping tx closes the flusher's queue
                        }
                        None => {
                            // sync scheme: the client already persisted.
                            // Its chunks never pass through ChunkReady, so
                            // enrol them for scrubbing here.
                            e.state = FileState::Flushed;
                            let mut resident = self.resident.borrow_mut();
                            for (seq, crc) in e.crcs.iter().enumerate() {
                                resident.insert((file_id, seq as u64), *crc);
                            }
                        }
                    }
                }
                let e = entry.borrow();
                if e.state == FileState::Flushed {
                    self.notify_flushed(e.file_id, FileState::Flushed);
                }
                reply.send(Ok(()), 16);
            }
            MgrMsg::WaitFlushed { path, reply } => {
                let entry = self.files.borrow().get(&path).cloned();
                match entry {
                    None => reply.send(Err(BbError::NotFound(path)), 16),
                    Some(e) => {
                        let st = e.borrow().state;
                        match st {
                            FileState::Flushed | FileState::Lost => {
                                reply.send(Ok(st), 16);
                            }
                            _ => {
                                let id = e.borrow().file_id;
                                self.flush_waiters
                                    .borrow_mut()
                                    .entry(id)
                                    .or_default()
                                    .push(reply);
                            }
                        }
                    }
                }
            }
            MgrMsg::Open { path, reply } => {
                let r = match self.files.borrow().get(&path) {
                    None => Err(BbError::NotFound(path)),
                    Some(e) => {
                        let e = e.borrow();
                        Ok(BbFileMeta {
                            file_id: e.file_id,
                            size: e.size,
                            state: e.state,
                            chunk_size: self.config.chunk_size,
                            lustre_path: lustre_path(&e.path),
                            chunk_crcs: e.crcs.clone(),
                        })
                    }
                };
                let bytes = 128 + r.as_ref().map_or(0, |m| 4 * m.chunk_crcs.len() as u64);
                reply.send(r, bytes);
            }
            MgrMsg::Delete { path, reply } => {
                let busy = self
                    .files
                    .borrow()
                    .get(&path)
                    .map(|e| e.borrow().state == FileState::Writing)
                    .unwrap_or(false);
                if busy {
                    reply.send(Err(BbError::Busy(path)), 16);
                    return;
                }
                let removed = self.files.borrow_mut().remove(&path);
                let r = match removed {
                    None => Err(BbError::NotFound(path)),
                    Some(e) => {
                        let e = e.borrow();
                        self.by_id.borrow_mut().remove(&e.file_id);
                        let fid = e.file_id;
                        if self.view.overrides_len() > 0 {
                            // sweep the file's full chunk range, not just
                            // the resident map: a chunk evicted from the
                            // buffer must not leave its override behind
                            // to accumulate across file churn
                            let n = (e.crcs.len() as u64)
                                .max(e.size.div_ceil(self.config.chunk_size.max(1)));
                            for s in 0..n {
                                self.view.clear_override(&chunk_key(fid, s));
                            }
                        }
                        if let Some(place) = &self.place {
                            place.tracker.forget_file(fid);
                            place
                                .pending
                                .borrow_mut()
                                .retain(|((f, _), _, _)| *f != fid);
                            place.queued.borrow_mut().retain(|(f, _)| *f != fid);
                        }
                        self.resident.borrow_mut().retain(|(f, _), _| *f != fid);
                        self.pinned.borrow_mut().retain(|(f, _)| *f != fid);
                        self.rebalance_pending
                            .borrow_mut()
                            .retain(|(f, _)| *f != fid);
                        Ok(BbFileMeta {
                            file_id: e.file_id,
                            size: e.size,
                            state: e.state,
                            chunk_size: self.config.chunk_size,
                            lustre_path: lustre_path(&e.path),
                            chunk_crcs: e.crcs.clone(),
                        })
                    }
                };
                let bytes = 128 + r.as_ref().map_or(0, |m| 4 * m.chunk_crcs.len() as u64);
                reply.send(r, bytes);
            }
            MgrMsg::List { prefix, reply } => {
                let mut v: Vec<String> = self
                    .files
                    .borrow()
                    .keys()
                    .filter(|p| p.starts_with(&prefix))
                    .cloned()
                    .collect();
                v.sort();
                let bytes = v.iter().map(|p| p.len() as u64 + 8).sum::<u64>().max(64);
                reply.send(v, bytes);
            }
        }
    }

    fn create(self: &Rc<Self>, path: &str) -> Result<u64, BbError> {
        if self.files.borrow().contains_key(path) {
            return Err(BbError::Exists(path.to_owned()));
        }
        let file_id = self.next_id.get();
        self.next_id.set(file_id + 1);
        let needs_flusher = matches!(
            self.config.scheme,
            Scheme::AsyncLustre | Scheme::HybridLocality
        );
        let flush_tx = if needs_flusher {
            let (tx, rx) = mpsc::unbounded();
            let this = Rc::clone(self);
            let lpath = lustre_path(path);
            let fpath = path.to_owned();
            self.net
                .fabric()
                .sim()
                .clone()
                .spawn(async move { this.run_flusher(file_id, fpath, lpath, rx).await });
            Some(tx)
        } else {
            None
        };
        let entry = Rc::new(RefCell::new(FileEntry {
            path: path.to_owned(),
            file_id,
            size: 0,
            state: FileState::Writing,
            flush_tx,
            crcs: Vec::new(),
            admit_bytes: 0,
            admit_last: 0,
            streaming: false,
        }));
        self.files
            .borrow_mut()
            .insert(path.to_owned(), Rc::clone(&entry));
        self.by_id.borrow_mut().insert(file_id, entry);
        Ok(file_id)
    }

    /// Windowed traffic classifier: accumulate a file's bytes written
    /// within one admission window; crossing
    /// [`BbConfig::bb_admit_stream_bytes`] inside a window labels it
    /// long-sequential (sticky). An idle gap longer than
    /// [`BbConfig::bb_admit_window`] resets the count, so spaced bursts
    /// never classify no matter their total volume. Returns the file's
    /// streaming label; a no-op (always `false`) when admission is off.
    fn classify_write(&self, entry: &Rc<RefCell<FileEntry>>, len: u64) -> bool {
        let Some(admit) = &self.admit else {
            return false;
        };
        let threshold = self.config.bb_admit_stream_bytes;
        let window = self.config.bb_admit_window.as_nanos() as u64;
        let now = self.sim().now().as_nanos();
        let mut e = entry.borrow_mut();
        if e.streaming {
            return true;
        }
        if e.admit_last != 0 && now.saturating_sub(e.admit_last) > window {
            e.admit_bytes = 0;
            admit.window_resets.inc();
        }
        e.admit_last = now;
        e.admit_bytes += len;
        if e.admit_bytes >= threshold {
            e.streaming = true;
            admit.stream_detected.inc();
            let (fid, bytes) = (e.file_id, e.admit_bytes);
            self.sim().flight_record("bb.admit", "stream_detected", || {
                format!("file_id={fid} window_bytes={bytes}")
            });
        }
        e.streaming
    }

    fn release_credit(&self, len: u64) {
        self.unflushed.set(self.unflushed.get().saturating_sub(len));
        if self.pressure.get() && self.unflushed.get() <= self.low {
            self.pressure.set(false);
            self.pressure_stats.exit.inc();
            self.sim().flight_record("bb.manager", "pressure_exit", || {
                format!("unflushed={} low={}", self.unflushed.get(), self.low)
            });
        }
        let mut waiters = self.credit_waiters.borrow_mut();
        while self.unflushed.get() <= self.watermark {
            match waiters.pop_front() {
                // streaming files never park here (their acks are sent
                // immediately), so the drained credit carries no routing
                Some(reply) => reply.send(
                    Ok(WriteAck {
                        pressure: self.pressure.get(),
                        write_through: false,
                    }),
                    16,
                ),
                None => break,
            }
        }
    }

    fn notify_flushed(&self, file_id: u64, state: FileState) {
        if let Some(waiters) = self.flush_waiters.borrow_mut().remove(&file_id) {
            for w in waiters {
                w.send(Ok(state), 16);
            }
        }
    }

    /// Per-file persistence task: drain chunk notifications, pull payloads
    /// from the buffer, and lay them out in the Lustre backing file.
    async fn run_flusher(
        self: Rc<Self>,
        file_id: u64,
        path: String,
        lpath: String,
        mut rx: mpsc::Receiver<FlushItem>,
    ) {
        let sim = self.net.fabric().sim().clone();
        let lfile = match self.lustre_client.create(&lpath).await {
            Ok(f) => Rc::new(f),
            Err(_) => {
                // backing store unavailable: everything becomes Lost
                self.mark_lost(file_id);
                return;
            }
        };
        let chunk_size = self.config.chunk_size;
        let mut lost = false;
        let mut inflight: Vec<simkit::JoinHandle<bool>> = Vec::new();
        let mut final_size = None;
        // write-behind aggregation for classified streams: contiguous
        // write-through chunks coalesce into stripe-sized extents, so a
        // long-sequential stream pays one OST positioning charge per
        // stripe instead of per chunk. Unclassified (pressure-degraded)
        // chunks never enter the aggregate.
        let coalesce = self
            .lustre_client
            .cluster()
            .config
            .stripe_size
            .max(chunk_size);
        let mut agg: Vec<Bytes> = Vec::new();
        let mut agg_first = 0u64;
        let mut agg_next = 0u64;
        let mut agg_bytes = 0u64;
        while let Ok(item) = rx.recv().await {
            // anything that breaks the contiguous streaming run flushes
            // the aggregate first, preserving per-file write order
            let extends_run = matches!(
                &item,
                FlushItem::Direct {
                    seq,
                    streaming: true,
                    ..
                } if agg.is_empty() || *seq == agg_next
            );
            if !extends_run && !agg.is_empty() {
                let n = agg.len() as u64;
                let data = concat_extent(&mut agg);
                inflight.push(self.spawn_direct_flush(&lfile, file_id, agg_first, n, data, true));
                agg_bytes = 0;
            }
            match item {
                FlushItem::Chunk { seq, len, crc } => {
                    let this = Rc::clone(&self);
                    let lfile = Rc::clone(&lfile);
                    inflight.push(sim.spawn(async move {
                        let _gate = this.flush_gate.acquire().await;
                        let _sp =
                            this.net
                                .fabric()
                                .sim()
                                .span("bb.flush_chunk", "bb", this.node.0, seq);
                        let key = chunk_key(file_id, seq);
                        // A transport error is not proof of loss: the
                        // replica set may be mid-crash/restart. Retry with
                        // bounded backoff and only count the chunk lost on
                        // a definitive miss (`Ok(None)`: every replica
                        // answered, none had a *verifiable* copy) or retry
                        // exhaustion. The read-back is checksum-verified so
                        // a corrupt buffer copy can never reach Lustre.
                        let sim = this.net.fabric().sim().clone();
                        let mut got =
                            integrity::get_verified(&this.kv, &this.integrity, &key).await;
                        let mut attempt = 0u32;
                        while got.is_err() && attempt < this.config.kv_retries + 3 {
                            let delay = this
                                .config
                                .kv_backoff
                                .saturating_mul(8 << attempt.min(20))
                                .min(std::time::Duration::from_millis(10));
                            attempt += 1;
                            sim.sleep(delay).await;
                            got = integrity::get_verified(&this.kv, &this.integrity, &key).await;
                        }
                        let ok = match got {
                            // `flags` must also match the manifest CRC the
                            // writer declared for this seq
                            Ok(Some(v)) if v.flags == crc => {
                                // verify-then-count: the write ack carries
                                // the OSS's commit checksum, so a corrupted
                                // commit comes back as CommitMismatch and
                                // the chunk never counts as flushed
                                let r = match lfile.write_at(seq * chunk_size, v.data).await {
                                    Ok(()) => true,
                                    Err(LustreError::CommitMismatch { .. }) => {
                                        this.integrity.checksum_fail.inc();
                                        this.sim().flight_record(
                                            "bb.manager",
                                            "flush_writeback_corrupt",
                                            || format!("file_id={file_id} seq={seq}"),
                                        );
                                        false
                                    }
                                    Err(_) => false,
                                };
                                if r {
                                    this.stats.chunks_flushed.inc();
                                    this.stats.bytes_flushed.add(len);
                                } else {
                                    this.stats.chunks_lost.inc();
                                }
                                r
                            }
                            _ => {
                                this.stats.chunks_lost.inc();
                                false
                            }
                        };
                        // flushed (or given up): lift the eviction pin
                        this.kv.unpin(&key).await;
                        this.pinned.borrow_mut().remove(&(file_id, seq));
                        this.release_credit(len);
                        this.chunk_pending.set(this.chunk_pending.get() - 1);
                        ok
                    }));
                }
                FlushItem::Direct {
                    seq,
                    data,
                    streaming,
                } => {
                    if streaming {
                        if agg.is_empty() {
                            agg_first = seq;
                        }
                        agg_next = seq + 1;
                        agg_bytes += data.len() as u64;
                        agg.push(data);
                        if agg_bytes >= coalesce {
                            let n = agg.len() as u64;
                            let data = concat_extent(&mut agg);
                            inflight.push(
                                self.spawn_direct_flush(&lfile, file_id, agg_first, n, data, true),
                            );
                            agg_bytes = 0;
                        }
                    } else {
                        inflight
                            .push(self.spawn_direct_flush(&lfile, file_id, seq, 1, data, false));
                    }
                }
                FlushItem::Close { size } => {
                    final_size = Some(size);
                    break;
                }
            }
        }
        // the channel can close without a `Close` (file torn down while
        // writing): never strand a partial aggregate
        if !agg.is_empty() {
            let n = agg.len() as u64;
            let data = concat_extent(&mut agg);
            inflight.push(self.spawn_direct_flush(&lfile, file_id, agg_first, n, data, true));
        }
        for h in inflight {
            if !h.await {
                lost = true;
            }
        }
        if let Some(size) = final_size {
            // pad the logical size: write_pos may be short of `size` only
            // when the final chunk was lost, which is covered by `lost`
            let _ = size;
        }
        let close_ok = lfile.close().await.is_ok();
        let state = if lost || !close_ok {
            FileState::Lost
        } else {
            FileState::Flushed
        };
        if state == FileState::Lost {
            self.sim().flight_record("bb.manager", "flush_lost", || {
                format!("file_id={file_id} close_ok={close_ok}")
            });
        }
        if let Some(entry) = self.by_id.borrow().get(&file_id) {
            entry.borrow_mut().state = state;
        }
        self.notify_flushed(file_id, state);
        let _ = path;
    }

    /// Persist one write-through extent (`chunks` coalesced direct chunks
    /// starting at `first_seq`). Verify-then-count: the extent only counts
    /// as persisted once the write ack's commit checksum matches the bytes
    /// sent — a torn or corrupted commit must surface as loss, never as
    /// success. Streaming extents ride the single-permit
    /// [`BbManager::stream_lane`] and yield while buffered-chunk flushes
    /// are queued — those release writer credits, so the open-loop
    /// write-through stream must never crowd them out of the gate or the
    /// device queue. A non-streaming (pressure-degraded) chunk takes the
    /// gate directly, exactly like the seed path.
    fn spawn_direct_flush(
        self: &Rc<Self>,
        lfile: &Rc<lustre::LustreFile>,
        file_id: u64,
        first_seq: u64,
        chunks: u64,
        data: Bytes,
        streaming: bool,
    ) -> simkit::JoinHandle<bool> {
        let this = Rc::clone(self);
        let lfile = Rc::clone(lfile);
        let chunk_size = self.config.chunk_size;
        let sim = self.net.fabric().sim().clone();
        sim.clone().spawn(async move {
            let _lane = if streaming {
                let lane = this.stream_lane.acquire().await;
                while this.chunk_pending.get() > 0 {
                    sim.sleep(dur::ms(1)).await;
                }
                Some(lane)
            } else {
                None
            };
            let _gate = this.flush_gate.acquire().await;
            let mut ok = false;
            for _ in 0..2 {
                match lfile.write_at(first_seq * chunk_size, data.clone()).await {
                    Ok(()) => {
                        ok = true;
                        break;
                    }
                    Err(LustreError::CommitMismatch { .. }) => {
                        this.integrity.checksum_fail.inc();
                    }
                    Err(_) => {}
                }
            }
            if ok {
                this.stats.chunks_direct.add(chunks);
            } else {
                this.stats.chunks_lost.add(chunks);
                this.sim()
                    .flight_record("bb.manager", "direct_writeback_corrupt", || {
                        format!("file_id={file_id} first_seq={first_seq} chunks={chunks}")
                    });
            }
            ok
        })
    }

    fn mark_lost(&self, file_id: u64) {
        self.sim()
            .flight_record("bb.manager", "file_lost", || format!("file_id={file_id}"));
        if let Some(entry) = self.by_id.borrow().get(&file_id) {
            entry.borrow_mut().state = FileState::Lost;
        }
        self.notify_flushed(file_id, FileState::Lost);
    }

    /// One scrubber round: verify up to `scrub_batch` resident chunks,
    /// resuming from the cursor (round-robin over the key space so every
    /// chunk is eventually visited regardless of churn).
    async fn scrub_tick(self: &Rc<Self>) {
        let batch: Vec<((u64, u64), u32)> = {
            let resident = self.resident.borrow();
            if resident.is_empty() {
                return;
            }
            let cursor = self.scrub_cursor.get();
            let mut out: Vec<_> = resident
                .range(cursor..)
                .take(self.config.scrub_batch.max(1))
                .map(|(k, v)| (*k, *v))
                .collect();
            let missing = self.config.scrub_batch.max(1) - out.len();
            if missing > 0 {
                out.extend(
                    resident
                        .range(..cursor)
                        .take(missing)
                        .map(|(k, v)| (*k, *v)),
                );
            }
            out
        };
        if let Some(((fid, seq), _)) = batch.last() {
            self.scrub_cursor.set((*fid, seq + 1));
        }
        for ((file_id, seq), crc) in batch {
            self.scrub_one(file_id, seq, crc).await;
        }
    }

    /// Verify one chunk across its replica set and repair divergent
    /// copies. A missing copy is legal (LRU eviction); a copy that fails
    /// its digest is rewritten from the first good replica, or from Lustre
    /// when the file is already flushed. Corruption with no good copy
    /// anywhere counts `bb.scrub.unrepairable` (the read path will surface
    /// it loudly, never silently).
    async fn scrub_one(&self, file_id: u64, seq: u64, crc: u32) {
        if self.migrating.borrow().contains(&(file_id, seq)) {
            // mid-migration: the replica set is being re-established by
            // the rebalancer; scrubbing it now would double-repair
            return;
        }
        let key = chunk_key(file_id, seq);
        let Ok(replicas) = self.kv.replicas(&key) else {
            return;
        };
        self.scrub.scanned.inc();
        let mut good: Option<Bytes> = None;
        let mut bad: Vec<usize> = Vec::new();
        let mut present = 0usize;
        let mut errors = 0usize;
        for &idx in &replicas {
            match self.kv.get_from(idx, &key).await {
                Ok(Some(v)) => {
                    present += 1;
                    if integrity::chunk_crc(&key, &v.data) == crc {
                        if good.is_none() {
                            good = Some(v.data);
                        }
                    } else {
                        self.integrity.checksum_fail.inc();
                        bad.push(idx);
                    }
                }
                Ok(None) => {}         // evicted: legal, not an integrity event
                Err(_) => errors += 1, // replica unreachable: revisit next round
            }
        }
        if present == 0 {
            if errors == 0 {
                // Every live replica definitively answered empty. Under
                // elastic membership that is not yet proof the chunk left
                // the buffer: a not-yet-migrated copy may still sit on an
                // old owner, and forgetting the key here would hide it
                // from the rebalancer. Check the rest of the roster first.
                if self.view.epoch() > 0 {
                    for idx in 0..self.view.roster_len() {
                        if replicas.contains(&idx) {
                            continue;
                        }
                        if matches!(self.kv.get_from(idx, &key).await, Ok(Some(_))) {
                            return; // awaiting migration; rebalancer owns it
                        }
                    }
                }
                self.resident.borrow_mut().remove(&(file_id, seq));
            }
            return;
        }
        if bad.is_empty() {
            return;
        }
        let good = match good {
            Some(g) => Some(g),
            None => self.lustre_chunk(file_id, seq, crc).await,
        };
        match good {
            Some(data) => {
                for idx in bad {
                    if self
                        .kv
                        .set_to(idx, &key, data.clone(), crc, 0)
                        .await
                        .is_ok()
                    {
                        self.scrub.repaired.inc();
                    }
                }
            }
            None => {
                // No authoritative copy right now. While the file is still
                // flushing, the flusher's own verified read-back decides
                // the chunk's fate — retry next round rather than jumping
                // to a verdict. Once the file is terminal the damage is
                // permanent: count it once and stop scanning the chunk.
                let terminal = self.by_id.borrow().get(&file_id).is_none_or(|e| {
                    matches!(e.borrow().state, FileState::Flushed | FileState::Lost)
                });
                if terminal {
                    self.scrub.unrepairable.add(bad.len() as u64);
                    self.resident.borrow_mut().remove(&(file_id, seq));
                    // permanent data damage: freeze the flight-recorder
                    // rings so the events leading here survive for triage
                    let sim = self.sim();
                    sim.flight_record("bb.scrub", "unrepairable", || {
                        format!("file_id={file_id} seq={seq} bad_replicas={}", bad.len())
                    });
                    sim.flight().trigger(
                        sim.now().as_nanos(),
                        &format!("unrepairable scrub: file_id={file_id} seq={seq}"),
                    );
                }
            }
        }
    }

    /// One rebalancer round. When the membership epoch moved since the
    /// last processed ring, diff every resident chunk's replica set
    /// between that ring and the live one and queue the movers — pinned
    /// (unflushed, buffer-only) chunks first, since they have no Lustre
    /// fallback if their old owner drains away. Then migrate up to
    /// `rebalance_batch` queued chunks.
    async fn rebalance_tick(self: &Rc<Self>) {
        let epoch = self.view.epoch();
        let last = self.last_epoch.get();
        if epoch != last {
            let new_ring = self.view.ring_snapshot();
            let r = self.config.kv_replication.max(1);
            let mut movers_pinned: Vec<(u64, u64)> = Vec::new();
            let mut movers: Vec<(u64, u64)> = Vec::new();
            {
                let resident = self.resident.borrow();
                let old_ring = self.last_ring.borrow();
                let pinned = self.pinned.borrow();
                for &(fid, seq) in resident.keys() {
                    let key = chunk_key(fid, seq);
                    let old: Vec<usize> = old_ring.route_n(&key, r).into_iter().copied().collect();
                    let new: Vec<usize> = new_ring.route_n(&key, r).into_iter().copied().collect();
                    if old != new {
                        if pinned.contains(&(fid, seq)) {
                            movers_pinned.push((fid, seq));
                        } else {
                            movers.push((fid, seq));
                        }
                    }
                }
            }
            {
                let mut pending = self.rebalance_pending.borrow_mut();
                let carried: Vec<(u64, u64)> = pending.drain(..).collect();
                let mut seen: BTreeSet<(u64, u64)> = BTreeSet::new();
                for k in movers_pinned.into_iter().chain(movers).chain(carried) {
                    if seen.insert(k) {
                        pending.push_back(k);
                    }
                }
            }
            self.rebal.epochs.add(epoch - last);
            *self.last_ring.borrow_mut() = new_ring;
            self.last_epoch.set(epoch);
        }
        for _ in 0..self.config.rebalance_batch.max(1) {
            let next = self.rebalance_pending.borrow_mut().pop_front();
            let Some((fid, seq)) = next else { break };
            self.migrate_one(fid, seq).await;
        }
    }

    /// Migrate one chunk onto its live-ring owners (which follow any
    /// placement override). A failed move re-queues on the rebalance
    /// queue; a completed copy counts `bb.rebalance.{moved,bytes}`.
    async fn migrate_one(self: &Rc<Self>, file_id: u64, seq: u64) {
        let key = chunk_key(file_id, seq);
        let Ok(desired) = self.kv.replicas(&key) else {
            return;
        };
        match self.migrate_to(file_id, seq, &desired, false).await {
            MigrateOutcome::Failed | MigrateOutcome::Busy => {
                // keep the old copies; retry from a clean slate next tick
                self.rebalance_pending
                    .borrow_mut()
                    .push_back((file_id, seq));
            }
            MigrateOutcome::Done { wrote: true, bytes } => {
                self.rebal.moved.inc();
                self.rebal.bytes.add(bytes);
            }
            _ => {}
        }
    }

    /// Establish `desired` as a chunk's replica set: copy to each missing
    /// target, verify every fresh copy by CRC read-back, carry the pin
    /// for unflushed chunks, and only then delete copies from roster
    /// members outside the set. Old copies outlive new ones until
    /// verification succeeds, so a verify failure at any point leaves at
    /// least one good copy reachable (the read path widens to the full
    /// roster once epoch > 0). With `install_override`, the routing
    /// override onto `desired` is installed after verification but
    /// before the old copies are deleted, so a concurrent reader never
    /// routes at hash owners whose copies are already gone. The chunk
    /// sits in the `migrating` guard for the whole move, keeping the
    /// scrubber off the half-established set; a move that finds the
    /// guard already held (the rebalancer and placement optimizer run
    /// as separate tasks) backs off with `Busy` rather than racing the
    /// holder's copy/delete phases. Shared by the epoch rebalancer and
    /// the placement optimizer.
    async fn migrate_to(
        self: &Rc<Self>,
        file_id: u64,
        seq: u64,
        desired: &[usize],
        install_override: bool,
    ) -> MigrateOutcome {
        let Some(&crc) = self.resident.borrow().get(&(file_id, seq)) else {
            return MigrateOutcome::Gone; // deleted or forgotten since being queued
        };
        if desired.is_empty() {
            return MigrateOutcome::Gone;
        }
        let key = chunk_key(file_id, seq);
        let Some(_moving) = MigratingGuard::acquire(&self.migrating, (file_id, seq)) else {
            return MigrateOutcome::Busy;
        };
        // Which desired owners already hold a good copy?
        let mut have: Vec<usize> = Vec::new();
        let mut source: Option<Bytes> = None;
        for &idx in desired {
            if let Ok(Some(v)) = self.kv.get_from(idx, &key).await {
                if integrity::chunk_crc(&key, &v.data) == crc {
                    have.push(idx);
                    if source.is_none() {
                        source = Some(v.data);
                    }
                }
            }
        }
        if source.is_none() {
            // Fetch from an old owner. Index-addressed ops stay valid for
            // roster members that left the ring, so a drained server's
            // copy is still reachable here.
            for idx in 0..self.view.roster_len() {
                if desired.contains(&idx) {
                    continue;
                }
                if let Ok(Some(v)) = self.kv.get_from(idx, &key).await {
                    if integrity::chunk_crc(&key, &v.data) == crc {
                        source = Some(v.data);
                        break;
                    }
                }
            }
        }
        if source.is_none() {
            source = self.lustre_chunk(file_id, seq, crc).await;
        }
        let Some(data) = source else {
            // No authoritative copy reachable right now: leave the old
            // layout alone and let the scrubber/flusher sort it out.
            return MigrateOutcome::NoSource;
        };
        let mut wrote = false;
        let mut verified = true;
        for &idx in desired {
            if have.contains(&idx) {
                continue;
            }
            if self
                .kv
                .set_to(idx, &key, data.clone(), crc, 0)
                .await
                .is_err()
            {
                verified = false;
                continue;
            }
            wrote = true;
            // read back what the server actually stored before trusting it
            match self.kv.get_from(idx, &key).await {
                Ok(Some(v)) if integrity::chunk_crc(&key, &v.data) == crc => {}
                _ => {
                    self.rebal.verify_fail.inc();
                    verified = false;
                }
            }
        }
        if !verified {
            return MigrateOutcome::Failed;
        }
        if self.pinned.borrow().contains(&(file_id, seq)) {
            // unflushed chunk: the new owners must hold it pinned before
            // the old pinned copies are released
            for &idx in desired {
                let _ = self.kv.pin_to(idx, &key).await;
            }
        }
        if install_override {
            // switch routing onto the verified copies before the old
            // ones disappear — same order the rebalancer gets from the
            // ring having already moved
            self.view.set_override(&key, desired.to_vec());
        }
        for idx in 0..self.view.roster_len() {
            if desired.contains(&idx) {
                continue;
            }
            let _ = self.kv.delete_from(idx, &key).await;
        }
        let bytes = data.len() as u64;
        MigrateOutcome::Done { wrote, bytes }
    }

    /// One placement-optimizer round, in three phases. First, routing
    /// hygiene: overrides pointing at a server that left the active set
    /// go back to hash placement (the override is already dormant, so
    /// this changes bookkeeping, not routing) and the chunk is queued to
    /// re-converge on its hash owners. Second, decisions: every resident
    /// chunk with reader telemetry is re-costed against the topology
    /// model, and a strictly cheaper replica set is queued as a move.
    /// Third, execution: queued moves run through the rebalancer's
    /// verified-copy machinery under the per-tick migration byte budget.
    /// The routing override is installed inside the move, after the new
    /// copies are CRC-verified but before the old ones are deleted, so
    /// readers never route at data that has not arrived yet — nor at
    /// old owners whose copies are already gone. Epoch coordination:
    /// while the rebalancer still owes the view a catch-up
    /// (`epoch != last_epoch`), decisions pause; moves keep draining.
    async fn place_tick(self: &Rc<Self>) {
        let Some(place) = &self.place else { return };
        let r = self.config.kv_replication.max(1);
        let fabric = Rc::clone(self.net.fabric());

        // phase 1: drop overrides whose targets left the active set
        let stale: Vec<(u64, u64)> = {
            let resident = self.resident.borrow();
            resident
                .keys()
                .filter(|&&(fid, seq)| {
                    self.view
                        .override_of(&chunk_key(fid, seq))
                        .is_some_and(|t| t.iter().any(|&idx| !self.view.is_active(idx)))
                })
                .copied()
                .collect()
        };
        for (fid, seq) in stale {
            let key = chunk_key(fid, seq);
            self.view.clear_override(&key);
            if place.queued.borrow_mut().insert((fid, seq)) {
                // converge back onto the hash owners; no new override
                let Ok(owners) = self.kv.replicas(&key) else {
                    place.queued.borrow_mut().remove(&(fid, seq));
                    continue;
                };
                place
                    .pending
                    .borrow_mut()
                    .push_back(((fid, seq), owners, false));
            }
        }

        // phase 2: telemetry-driven decisions (paused mid-epoch-change)
        if self.view.epoch() == self.last_epoch.get() {
            for (fid, seq) in place.tracker.tracked() {
                if !self.resident.borrow().contains_key(&(fid, seq))
                    || place.queued.borrow().contains(&(fid, seq))
                    || self.migrating.borrow().contains(&(fid, seq))
                {
                    continue;
                }
                let key = chunk_key(fid, seq);
                let readers = place.tracker.readers_of(fid, seq);
                if readers.is_empty() {
                    continue;
                }
                let Ok(current) = self.kv.replicas(&key) else {
                    continue;
                };
                let order = placement::ring_order(&self.view, &key);
                if order.is_empty() {
                    continue;
                }
                let candidate = placement::rank_by_cost(&order, r, |idx| {
                    placement::read_cost(&fabric, &readers, &[self.view.server(idx).node()])
                });
                let nodes_of = |set: &[usize]| -> Vec<NodeId> {
                    set.iter()
                        .map(|&idx| self.view.server(idx).node())
                        .collect()
                };
                let cost_before = placement::read_cost(&fabric, &readers, &nodes_of(&current));
                let cost_after = placement::read_cost(&fabric, &readers, &nodes_of(&candidate));
                if cost_after < cost_before {
                    place.counters.decisions.inc();
                    place.counters.cost_before.add(cost_before);
                    place.counters.cost_after.add(cost_after);
                    self.sim().flight_record("bb.place", "decision", || {
                        format!(
                            "file_id={fid} seq={seq} cost {cost_before}->{cost_after} \
                             targets={candidate:?}"
                        )
                    });
                    place.queued.borrow_mut().insert((fid, seq));
                    place
                        .pending
                        .borrow_mut()
                        .push_back(((fid, seq), candidate, true));
                }
            }
        }

        // phase 3: execute queued moves under the migration byte budget.
        // Each queued move is popped at most once per tick (re-queues go
        // to the back and wait for the next tick), so one failing chunk
        // can neither spin the drain nor truncate the rest of the budget.
        let budget = if self.config.bb_migrate_budget == 0 {
            u64::MAX
        } else {
            self.config.bb_migrate_budget
        };
        let mut spent = 0u64;
        let mut pops = place.pending.borrow().len();
        while spent < budget && pops > 0 {
            pops -= 1;
            let next = place.pending.borrow_mut().pop_front();
            let Some(((fid, seq), targets, install)) = next else {
                break;
            };
            if !targets.iter().all(|&idx| self.view.is_active(idx)) {
                // a target left the cluster while the move sat queued:
                // the decision is stale. Drop it and clear the queued
                // mark so phase 2 can re-decide from live telemetry.
                place.queued.borrow_mut().remove(&(fid, seq));
                continue;
            }
            match self.migrate_to(fid, seq, &targets, install).await {
                MigrateOutcome::Failed | MigrateOutcome::Busy => {
                    // keep old copies (and the queued mark); retry next tick
                    place
                        .pending
                        .borrow_mut()
                        .push_back(((fid, seq), targets, install));
                }
                MigrateOutcome::Done { wrote, bytes } => {
                    if wrote {
                        place.counters.migrations.inc();
                        place.counters.bytes.add(bytes);
                        spent += bytes;
                    }
                    place.queued.borrow_mut().remove(&(fid, seq));
                }
                MigrateOutcome::Gone | MigrateOutcome::NoSource => {
                    place.queued.borrow_mut().remove(&(fid, seq));
                }
            }
        }
    }

    /// Fetch a chunk's bytes from the Lustre backing file for repair,
    /// verifying against the manifest CRC. Only flushed files qualify (an
    /// unflushed chunk has no authoritative copy outside the buffer).
    async fn lustre_chunk(&self, file_id: u64, seq: u64, crc: u32) -> Option<Bytes> {
        let entry = self.by_id.borrow().get(&file_id).cloned()?;
        let (state, size, lpath) = {
            let e = entry.borrow();
            (e.state, e.size, lustre_path(&e.path))
        };
        if state != FileState::Flushed {
            return None;
        }
        let chunk_size = self.config.chunk_size;
        let len = chunk_size.min(size.checked_sub(seq * chunk_size)?);
        let f = self.lustre_client.open(&lpath).await.ok()?;
        let data = f.read_at(seq * chunk_size, len).await.ok()?;
        let _ = f.close().await;
        (integrity::chunk_crc(&chunk_key(file_id, seq), &data) == crc).then_some(data)
    }
}

#[cfg(test)]
mod guard_tests {
    use super::*;

    #[test]
    fn migrating_guard_excludes_a_second_mover_and_releases_on_every_exit() {
        let set = RefCell::new(BTreeSet::new());
        let early_return = |fail: bool| -> Option<()> {
            let _g = MigratingGuard::acquire(&set, (7, 3))?;
            assert!(MigratingGuard::acquire(&set, (7, 3)).is_none());
            assert!(MigratingGuard::acquire(&set, (7, 4)).is_some());
            if fail {
                return None;
            }
            Some(())
        };
        assert_eq!(early_return(true), None);
        assert!(set.borrow().is_empty(), "early return leaked the chunk");
        assert_eq!(early_return(false), Some(()));
        assert!(set.borrow().is_empty());
    }
}
