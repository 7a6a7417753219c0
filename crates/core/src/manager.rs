//! The burst-buffer manager: namespace owner and persistence manager.
//!
//! One manager process tracks every file written through the buffer and —
//! for the asynchronous schemes — runs per-file flusher tasks that drain
//! buffered chunks to Lustre with bounded parallelism. Past a high
//! watermark of unflushed bytes its acks route writers write-through to
//! Lustre until the flusher drains below a low one.
//! Its reconciler, which keeps every buffered chunk at its desired
//! placement, lives in `crate::movers`; what it and the flusher know
//! about each chunk lives in `crate::chunks`.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
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
use simkit::JoinHandle;

use lustre::{LustreCluster, LustreError};

use crate::chunks::ChunkTable;
use crate::flusher::FlushItem;
use crate::integrity::{self, IntegrityCounters};
use crate::movers::MoverCounters;
use crate::placement::PlaceCounters;
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
    /// File is still being written, or already being deleted.
    Busy(String),
    /// KV layer failure.
    Kv(ClientError),
    /// Lustre layer failure.
    Lustre(LustreError),
    /// HDFS overlay failure (scheme C).
    Hdfs(hdfs::HdfsError),
    /// RPC failure talking to the manager.
    Rpc(RpcError),
    /// A chunk is not in the buffer and not (yet) durable on Lustre: its
    /// file has not reached `Flushed`, or the Lustre copy fails the chunk
    /// manifest. Only a file the manager marked `Lost` has lost data.
    DataUnavailable {
        /// File path.
        path: String,
        /// Missing chunk.
        seq: u64,
    },
    /// A read of `len` bytes at `offset` does not lie inside the file.
    /// (No path: a `BbError` rides in every chunk result and read future,
    /// so this variant is kept no larger than the others.)
    OutOfRange {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// File size.
        size: u64,
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
                write!(
                    f,
                    "chunk {seq} of {path} is not in the buffer and not (yet) durable on Lustre"
                )
            }
            BbError::OutOfRange { offset, len, size } => write!(
                f,
                "read of {len} bytes at {offset} past the end of a {size}-byte file"
            ),
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
    /// Route this file's remaining chunks past the buffer, write-through
    /// to Lustre (`ChunkDirect`), until an ack clears the bit. Set while
    /// the buffer is above its overload high watermark (it clears below
    /// the low watermark — hysteresis), and for good once the traffic
    /// classifier labels the file a long-sequential stream
    /// ([`BbConfig::bb_admit_stream_bytes`] > 0).
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
    /// A chunk landed in the buffer; the manager queues its flush and
    /// acks at once.
    ChunkReady {
        /// File id.
        file_id: u64,
        /// Chunk sequence number.
        seq: u64,
        /// Chunk length.
        len: u64,
        /// CRC32C of `chunk_key || data` as sealed by the writer.
        crc: u32,
        /// Reply channel.
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
    /// Delete a closed file: once its flusher has finished, drop its
    /// chunk records, delete every buffered copy and unlink the Lustre
    /// backing file; the path leaves the namespace last. A file still
    /// being written, or already being deleted, is `Busy`.
    Delete {
        /// File path.
        path: String,
        /// Resolves once the file is gone.
        reply: ReplyHandle<Result<(), BbError>>,
    },
    /// List paths under a prefix.
    List {
        /// Path prefix.
        prefix: String,
        /// Reply channel.
        reply: ReplyHandle<Vec<String>>,
    },
}

struct FileEntry {
    path: String,
    file_id: u64,
    size: u64,
    state: FileState,
    flush_tx: Option<mpsc::Sender<FlushItem>>,
    /// The flusher task (async schemes); a delete awaits it before the reap.
    flusher: Option<JoinHandle<()>>,
    /// A delete is reaping the file.
    reaping: bool,
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

/// Traffic classifier window: an idle gap longer than this between writes
/// of the same file resets its accumulated byte count, so spaced bursts
/// never classify as streams no matter their total volume.
const ADMIT_WINDOW: std::time::Duration = dur::ms(250);

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
}

/// The manager/flusher counters as registered metrics (`bb.mgr.*`);
/// [`MgrStats`] is the frozen view assembled by [`MgrCounters::snapshot`].
pub(crate) struct MgrCounters {
    pub(crate) chunks_flushed: simkit::telemetry::Counter,
    pub(crate) bytes_flushed: simkit::telemetry::Counter,
    pub(crate) chunks_direct: simkit::telemetry::Counter,
    pub(crate) chunks_lost: simkit::telemetry::Counter,
}

impl MgrCounters {
    fn register(m: &simkit::telemetry::Registry) -> MgrCounters {
        MgrCounters {
            chunks_flushed: m.counter("bb.mgr.chunks_flushed"),
            bytes_flushed: m.counter("bb.mgr.bytes_flushed"),
            chunks_direct: m.counter("bb.mgr.chunks_direct"),
            chunks_lost: m.counter("bb.mgr.chunks_lost"),
        }
    }

    fn snapshot(&self) -> MgrStats {
        MgrStats {
            chunks_flushed: self.chunks_flushed.get(),
            bytes_flushed: self.bytes_flushed.get(),
            chunks_direct: self.chunks_direct.get(),
            chunks_lost: self.chunks_lost.get(),
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

/// The manager process.
pub struct BbManager {
    node: NodeId,
    pub(crate) config: BbConfig,
    net: Rc<Switchboard<MgrMsg>>,
    pub(crate) kv: Rc<KvClient>,
    pub(crate) lustre_client: lustre::LustreClient,
    files: RefCell<HashMap<String, Rc<RefCell<FileEntry>>>>,
    by_id: RefCell<HashMap<u64, Rc<RefCell<FileEntry>>>>,
    next_id: Cell<u64>,
    unflushed: Cell<u64>,
    /// Overload thresholds in unflushed bytes (hysteresis: pressure sets
    /// above `high`, clears below `low`).
    high: u64,
    low: u64,
    pressure: Cell<bool>,
    flush_waiters: FlushWaiters,
    pub(crate) flush_gate: Semaphore,
    /// Buffered-chunk flushes queued or in flight. Streaming write-through
    /// flush tasks yield the gate while this is non-zero: draining the
    /// buffer brings `unflushed` back under `low`, so buffered chunks take
    /// priority over the open-loop write-through stream.
    pub(crate) chunk_pending: Cell<u64>,
    /// Single-permit lane for classified streaming extents. Coalesced
    /// extents are large; one in flight keeps the OST busy back-to-back
    /// while leaving every [`BbManager::flush_gate`] slot free for
    /// buffered-chunk flushes. Pressure-degraded direct chunks
    /// (the seed path) do not use this lane.
    pub(crate) stream_lane: Semaphore,
    pub(crate) stats: MgrCounters,
    /// Traffic classifier counters; `None` when admission control is off
    /// (the classifier is then a no-op and its metric names never exist).
    admit: Option<AdmitCounters>,
    /// Every chunk the buffer is expected to hold, and the reconciler's
    /// queue.
    pub(crate) chunks: ChunkTable,
    pub(crate) movers: MoverCounters,
    pressure_stats: PressureCounters,
    pub(crate) integrity: IntegrityCounters,
    /// The shared membership view (same object the clients route through).
    pub(crate) view: Rc<Membership>,
    /// Ring as of the last epoch the epoch trigger processed. Diffing it
    /// against the live ring finds exactly the keys whose owners changed —
    /// the ≈ k/n consistent-hashing remap set, not the whole key space.
    pub(crate) last_ring: RefCell<HashRing<usize>>,
    /// Epoch `last_ring` corresponds to.
    pub(crate) last_epoch: Cell<u64>,
    /// `bb.place.*` counters; `None` when placement is off, so no reader
    /// telemetry is kept and no metric name is ever registered (defaults
    /// byte-identity).
    pub(crate) place: Option<PlaceCounters>,
    /// Set by [`BbManager::stop_background`]; the reconciler exits after
    /// its current round.
    pub(crate) stopped: Cell<bool>,
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
            high,
            low,
            pressure: Cell::new(false),
            flush_waiters: RefCell::new(HashMap::new()),
            flush_gate: Semaphore::new(config.flusher_threads.max(1)),
            chunk_pending: Cell::new(0),
            stream_lane: Semaphore::new(1),
            stats: MgrCounters::register(fabric.sim().metrics()),
            admit: (config.bb_admit_stream_bytes > 0)
                .then(|| AdmitCounters::register(fabric.sim().metrics())),
            chunks: ChunkTable::new(Rc::clone(&view)),
            movers: MoverCounters::register(fabric.sim().metrics()),
            pressure_stats: PressureCounters::register(fabric.sim().metrics()),
            integrity: IntegrityCounters::register(fabric.sim().metrics()),
            last_ring: RefCell::new(view.ring_snapshot()),
            last_epoch: Cell::new(view.epoch()),
            view,
            place: config
                .placement_enabled()
                .then(|| PlaceCounters::register(fabric.sim().metrics())),
            stopped: Cell::new(false),
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
        mgr.start_reconciler();
        mgr
    }

    /// Placement moves still queued behind the byte budget. Zero means
    /// the reconciler's placement trigger has converged on the telemetry
    /// it has seen.
    pub fn place_backlog(&self) -> usize {
        self.chunks.place_backlog()
    }

    /// One chunk fetch of `(file_id, seq)` issued from `node`: reader
    /// telemetry for the reconciler's placement trigger (dropped when
    /// placement is off).
    pub(crate) fn record_read(&self, file_id: u64, seq: u64, node: NodeId) {
        if self.place.is_some() {
            self.chunks.record_read((file_id, seq), node.0);
        }
    }

    /// Chunks still queued for their new ring owners, plus copy changes
    /// in flight. Zero — once [`BbManager::rebalance_epoch`] has caught
    /// up with the view — means the ring has converged.
    pub fn rebalance_backlog(&self) -> usize {
        self.chunks.rebalance_backlog()
    }

    /// The membership epoch the reconciler's epoch trigger has processed.
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

    /// Unflushed buffered bytes (what the overload watermarks measure).
    pub fn unflushed_bytes(&self) -> u64 {
        self.unflushed.get()
    }

    pub(crate) fn sim(&self) -> &simkit::Sim {
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
                // the writer pinned the chunk before announcing it; track
                // the pin so a migration carries it to the new owners
                self.chunks.admit((file_id, seq), crc, true);
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
                // This chunk is already buffered and flushes normally;
                // the bit steers only the file's remaining chunks past the
                // buffer — while overloaded, or for good once the file is
                // classified long-sequential.
                let streaming = self.classify_write(&entry, len);
                let ack = WriteAck {
                    write_through: self.pressure.get() || streaming,
                };
                reply.send(Ok(ack), 16);
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
                                write_through: self.pressure.get() || streaming,
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
                        // dropping the sender closes the flusher's queue:
                        // it drains what is queued, then finishes the file
                        Some(_) => e.state = FileState::Closed,
                        None => {
                            // sync scheme: the client already persisted.
                            // Its chunks never pass through ChunkReady, so
                            // enrol them for scrubbing here.
                            e.state = FileState::Flushed;
                            for (seq, crc) in e.crcs.iter().enumerate() {
                                self.chunks.admit((file_id, seq as u64), *crc, false);
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
                    Some(e) => Ok(self.meta_of(&e.borrow())),
                };
                let bytes = 128 + r.as_ref().map_or(0, |m| 4 * m.chunk_crcs.len() as u64);
                reply.send(r, bytes);
            }
            MgrMsg::Delete { path, reply } => {
                let entry = self.files.borrow().get(&path).cloned();
                let Some(entry) = entry else {
                    reply.send(Err(BbError::NotFound(path)), 16);
                    return;
                };
                if entry.borrow().state == FileState::Writing || entry.borrow().reaping {
                    reply.send(Err(BbError::Busy(path)), 16);
                    return;
                }
                entry.borrow_mut().reaping = true;
                let this = Rc::clone(self);
                self.sim().spawn(async move {
                    let r = this.reap(entry).await;
                    reply.send(r, 16);
                });
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

    fn meta_of(&self, e: &FileEntry) -> BbFileMeta {
        BbFileMeta {
            file_id: e.file_id,
            size: e.size,
            state: e.state,
            chunk_size: self.config.chunk_size,
            lustre_path: lustre_path(&e.path),
            chunk_crcs: e.crcs.clone(),
        }
    }

    /// Delete a closed file everywhere the manager put it. Waits out its
    /// flusher first, so no flush races the delete and the path (still in
    /// the namespace) cannot be created again meanwhile. Each chunk's
    /// holders are taken while its override still stands, then its
    /// records go and its copies are deleted, one chunk after another.
    /// An unlink that fails leaves the path in place for a retry.
    async fn reap(&self, entry: Rc<RefCell<FileEntry>>) -> Result<(), BbError> {
        let flusher = entry.borrow_mut().flusher.take();
        if let Some(flusher) = flusher {
            flusher.await;
        }
        let (file_id, path, chunks) = {
            let e = entry.borrow();
            let n = (e.crcs.len() as u64).max(e.size.div_ceil(self.config.chunk_size.max(1)));
            (e.file_id, e.path.clone(), n)
        };
        let r = self.config.kv_replication;
        let copies: Vec<_> = (0..chunks)
            .map(|seq| chunk_key(file_id, seq))
            .map(|key| (integrity::holders(&self.view, &key, r), key))
            .collect();
        self.chunks.forget_file(file_id, chunks);
        for (holders, key) in copies {
            let _ = self.kv.delete_on(&holders, &key).await;
        }
        match self.lustre_client.unlink(&lustre_path(&path)).await {
            Ok(()) | Err(LustreError::Mds(lustre::MdsError::NotFound(_))) => {}
            Err(e) => {
                entry.borrow_mut().reaping = false;
                return Err(e.into());
            }
        }
        self.files.borrow_mut().remove(&path);
        self.by_id.borrow_mut().remove(&file_id);
        Ok(())
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
        let (flush_tx, flusher) = if needs_flusher {
            let (tx, rx) = mpsc::unbounded();
            let this = Rc::clone(self);
            let lpath = lustre_path(path);
            let flusher = self
                .sim()
                .spawn(async move { this.run_flusher(file_id, lpath, rx).await });
            (Some(tx), Some(flusher))
        } else {
            (None, None)
        };
        let entry = Rc::new(RefCell::new(FileEntry {
            path: path.to_owned(),
            file_id,
            size: 0,
            state: FileState::Writing,
            flush_tx,
            flusher,
            reaping: false,
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
    /// long-sequential (sticky). An idle gap longer than [`ADMIT_WINDOW`]
    /// resets the count, so spaced bursts never classify no matter their
    /// total volume. Returns the file's streaming label; a no-op (always
    /// `false`) when admission is off.
    fn classify_write(&self, entry: &Rc<RefCell<FileEntry>>, len: u64) -> bool {
        let Some(admit) = &self.admit else {
            return false;
        };
        let threshold = self.config.bb_admit_stream_bytes;
        let window = ADMIT_WINDOW.as_nanos() as u64;
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

    /// A buffered chunk left the buffer's books (flushed or given up):
    /// subtract its bytes, and clear pressure once under `low`.
    pub(crate) fn chunk_drained(&self, len: u64) {
        self.unflushed.set(self.unflushed.get().saturating_sub(len));
        if self.pressure.get() && self.unflushed.get() <= self.low {
            self.pressure.set(false);
            self.pressure_stats.exit.inc();
            self.sim().flight_record("bb.manager", "pressure_exit", || {
                format!("unflushed={} low={}", self.unflushed.get(), self.low)
            });
        }
    }

    fn notify_flushed(&self, file_id: u64, state: FileState) {
        if let Some(waiters) = self.flush_waiters.borrow_mut().remove(&file_id) {
            for w in waiters {
                w.send(Ok(state), 16);
            }
        }
    }

    /// A file reached its final durability state: record it and wake
    /// everyone blocked in `WaitFlushed`.
    pub(crate) fn finish_file(&self, file_id: u64, state: FileState) {
        if let Some(entry) = self.by_id.borrow().get(&file_id) {
            entry.borrow_mut().state = state;
        }
        self.notify_flushed(file_id, state);
    }

    /// State, size and Lustre path of a live file — what the reconciler needs
    /// from the namespace.
    pub(crate) fn file_info(&self, file_id: u64) -> Option<(FileState, u64, String)> {
        let files = self.by_id.borrow();
        let e = files.get(&file_id)?.borrow();
        Some((e.state, e.size, lustre_path(&e.path)))
    }
}
