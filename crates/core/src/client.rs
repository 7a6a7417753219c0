//! The burst-buffer client: chunked writes through the KV layer with
//! scheme-specific persistence, and buffer-first reads with Lustre (and
//! scheme-C local-replica) fallback.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Duration;

use bytes::{Buf, Bytes, BytesMut};
use netsim::NodeId;
use rkv::{KvClient, KvClientConfig};
use simkit::sync::semaphore::Semaphore;
use simkit::{Gather, JoinHandle};

use hdfs::{HdfsClient, HdfsReader, HdfsWriter};
use lustre::{LustreClient, LustreError, LustreFile};

use crate::integrity;
pub use crate::manager::BbError;
use crate::manager::{chunk_key, lustre_path, BbFileMeta, FileState, MgrMsg, MGR_SERVICE};
use crate::{kv_backoff, BbConfig, BbDeployment, Scheme, KV_RETRIES, WRITE_WINDOW};

/// KV client settings derived from the burst-buffer configuration.
pub(crate) fn kv_client_config(cfg: &BbConfig) -> KvClientConfig {
    KvClientConfig {
        one_sided: cfg.one_sided,
        ..KvClientConfig::default()
    }
}

/// Counters for the tiered read path, aggregated per deployment. Every
/// chunk a reader returns is attributed to exactly one tier, so
/// `tier_local + tier_buffer + tier_lustre` equals the total chunks
/// fetched (see [`ReadStats::chunks_fetched`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Chunks served from the scheme-C node-local replica (tier 0).
    pub tier_local: u64,
    /// Chunks served from the KV buffer (tier 1).
    pub tier_buffer: u64,
    /// Chunks served from Lustre (tier 2).
    pub tier_lustre: u64,
    /// Per-server batched-GET round trips issued by the pipelined path.
    pub multi_gets: u64,
    /// Keys carried by those round trips (`multi_get_keys / multi_gets`
    /// is the mean batch size).
    pub multi_get_keys: u64,
    /// Times a consumer had to wait on a chunk still in flight.
    pub readahead_stalls: u64,
}

impl ReadStats {
    /// Total chunks fetched through any tier.
    pub fn chunks_fetched(&self) -> u64 {
        self.tier_local + self.tier_buffer + self.tier_lustre
    }

    /// Mean keys per batched-GET round trip (0 when none were issued).
    pub fn avg_batch(&self) -> f64 {
        if self.multi_gets == 0 {
            0.0
        } else {
            self.multi_get_keys as f64 / self.multi_gets as f64
        }
    }
}

/// The read-path counters as registered metrics (`bb.read.*`). [`ReadStats`]
/// is now just the frozen view assembled by [`ReadCounters::snapshot`] — the
/// live state lives in the simulation's registry, where `--metrics-json`
/// snapshots see it alongside every other layer.
pub(crate) struct ReadCounters {
    pub(crate) tier_local: simkit::telemetry::Counter,
    pub(crate) tier_buffer: simkit::telemetry::Counter,
    pub(crate) tier_lustre: simkit::telemetry::Counter,
    pub(crate) multi_gets: simkit::telemetry::Counter,
    pub(crate) multi_get_keys: simkit::telemetry::Counter,
    pub(crate) readahead_stalls: simkit::telemetry::Counter,
}

impl ReadCounters {
    pub(crate) fn register(m: &simkit::telemetry::Registry) -> ReadCounters {
        ReadCounters {
            tier_local: m.counter("bb.read.tier_local"),
            tier_buffer: m.counter("bb.read.tier_buffer"),
            tier_lustre: m.counter("bb.read.tier_lustre"),
            multi_gets: m.counter("bb.read.multi_gets"),
            multi_get_keys: m.counter("bb.read.multi_get_keys"),
            readahead_stalls: m.counter("bb.read.readahead_stalls"),
        }
    }

    pub(crate) fn snapshot(&self) -> ReadStats {
        ReadStats {
            tier_local: self.tier_local.get(),
            tier_buffer: self.tier_buffer.get(),
            tier_lustre: self.tier_lustre.get(),
            multi_gets: self.multi_gets.get(),
            multi_get_keys: self.multi_get_keys.get(),
            readahead_stalls: self.readahead_stalls.get(),
        }
    }

    pub(crate) fn reset(&self) {
        self.tier_local.reset();
        self.tier_buffer.reset();
        self.tier_lustre.reset();
        self.multi_gets.reset();
        self.multi_get_keys.reset();
        self.readahead_stalls.reset();
    }
}

/// Durability-ack counters (`bb.ack.*`), registered lazily by
/// [`BbDeployment::ack_counters`] on the first relaxed-mode write so the
/// names stay out of default snapshots.
pub(crate) struct AckCounters {
    /// Chunks acked at a relaxed quorum (fewer than `r` replicas).
    pub(crate) quorum_acks: simkit::telemetry::Counter,
    /// Replica tails completed asynchronously after the ack.
    pub(crate) async_replicas: simkit::telemetry::Counter,
    /// Times an ack mode could not be honoured (replica down at quorum
    /// time, or an async tail exhausted its retries).
    pub(crate) downgrade: simkit::telemetry::Counter,
    /// Times a writer had to wait for the ack-ahead window to drain
    /// before its ack (backpressure).
    pub(crate) ahead_waits: simkit::telemetry::Counter,
}

impl AckCounters {
    pub(crate) fn register(m: &simkit::telemetry::Registry) -> AckCounters {
        AckCounters {
            quorum_acks: m.counter("bb.ack.quorum_acks"),
            async_replicas: m.counter("bb.ack.async_replicas"),
            downgrade: m.counter("bb.ack.downgrade"),
            ahead_waits: m.counter("bb.ack.ahead_waits"),
        }
    }
}

/// A burst-buffer client bound to one compute node.
pub struct BbClient {
    dep: Rc<BbDeployment>,
    node: NodeId,
    kv: Rc<KvClient>,
    lustre: LustreClient,
    hdfs: Option<HdfsClient>,
}

impl BbClient {
    /// Create a client on `node`. The KV client routes through the
    /// deployment's shared membership view, so it follows live
    /// joins/drains without being rebuilt.
    pub fn new(dep: Rc<BbDeployment>, node: NodeId) -> Rc<BbClient> {
        let kv = KvClient::with_view(
            Rc::clone(&dep.stack),
            node,
            Rc::clone(dep.membership()),
            kv_client_config(&dep.config),
        );
        let lustre = dep.lustre.client(node);
        let hdfs = dep.hdfs_local.as_ref().map(|h| h.client(node));
        Rc::new(BbClient {
            dep,
            node,
            kv,
            lustre,
            hdfs,
        })
    }

    /// The client's compute node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The deployment this client talks to.
    pub fn deployment(&self) -> &Rc<BbDeployment> {
        &self.dep
    }

    /// Direct handle to the KV layer (diagnostics).
    pub fn kv(&self) -> &Rc<KvClient> {
        &self.kv
    }

    /// RPC to the persistence manager with bounded retry. Only
    /// [`netsim::RpcError::Net`] is retried: a transport failure means the
    /// request never reached the manager, so resending cannot double-apply
    /// it. `NoReply`/`ServiceUnavailable` may follow a *processed* request
    /// (e.g. a `ChunkReady` already enqueued) and surface immediately.
    /// When a traced op rides along, the RPC stamps its wire/serve/reply
    /// points into that op's timeline.
    async fn mgr_call<R: 'static>(
        &self,
        bytes: u64,
        op: Option<simkit::OpId>,
        make: impl Fn(netsim::ReplyHandle<R>) -> MgrMsg,
    ) -> Result<R, BbError> {
        let sim = self.dep.stack.sim();
        let mut attempt = 0u32;
        loop {
            let r = self
                .dep
                .manager
                .net()
                .call_traced(
                    self.node,
                    self.dep.manager.node(),
                    MGR_SERVICE,
                    bytes,
                    op,
                    &make,
                )
                .await;
            match r {
                Ok(v) => return Ok(v),
                Err(netsim::RpcError::Net(_)) if attempt < KV_RETRIES => {
                    sim.flight_record("bb.client", "mgr_retry", || {
                        format!("node={} attempt={attempt}", self.node.0)
                    });
                    let delay = kv_backoff(1, attempt, Duration::from_millis(5));
                    attempt += 1;
                    sim.sleep(delay).await;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Create a file for writing through the buffer.
    pub async fn create(self: &Rc<Self>, path: &str) -> Result<BbWriter, BbError> {
        let p = path.to_owned();
        let file_id = self
            .mgr_call(128 + path.len() as u64, None, |reply| MgrMsg::Create {
                path: p.clone(),
                reply,
            })
            .await??;
        let lustre_file = match self.dep.config.scheme {
            Scheme::SyncLustre => Some(Rc::new(self.lustre.create(&lustre_path(path)).await?)),
            _ => None,
        };
        let hdfs_writer = match &self.hdfs {
            Some(h) => Some(h.create_with_replication(path, 1).await?),
            None => None,
        };
        let config = &self.dep.config;
        let ack_quorum = config.bb_ack_mode.quorum(config.kv_replication);
        Ok(BbWriter {
            client: Rc::clone(self),
            path: path.to_owned(),
            file_id,
            lustre_file,
            hdfs_writer,
            staged: RefCell::new(BytesMut::new()),
            seq: Cell::new(0),
            size: Cell::new(0),
            window: Rc::new(Semaphore::new(WRITE_WINDOW)),
            pending: RefCell::new(Vec::new()),
            closed: Cell::new(false),
            crcs: RefCell::new(Vec::new()),
            degraded: Rc::new(Cell::new(false)),
            ack_quorum,
            ack_ahead: Rc::new(Semaphore::new(self.dep.config.bb_ack_ahead.max(1))),
        })
    }

    /// Open a file for reading.
    pub async fn open(self: &Rc<Self>, path: &str) -> Result<BbReader, BbError> {
        let meta = self.fetch_meta(path).await?;
        let hdfs_reader = match &self.hdfs {
            Some(h) => h.open(path).await.ok(),
            None => None,
        };
        Ok(BbReader {
            core: Rc::new(ReadCore {
                client: Rc::clone(self),
                path: path.to_owned(),
                meta: RefCell::new(meta),
                hdfs_reader,
                lustre_file: RefCell::new(None),
                ready: RefCell::new(BTreeMap::new()),
                inflight: RefCell::new(BTreeMap::new()),
                fetch_gate: Semaphore::new(self.dep.config.read_window.max(1)),
            }),
        })
    }

    async fn fetch_meta(&self, path: &str) -> Result<BbFileMeta, BbError> {
        let p = path.to_owned();
        self.mgr_call(128 + path.len() as u64, None, |reply| MgrMsg::Open {
            path: p.clone(),
            reply,
        })
        .await?
    }

    /// Whether `path` exists.
    pub async fn exists(&self, path: &str) -> Result<bool, BbError> {
        match self.fetch_meta(path).await {
            Ok(_) => Ok(true),
            Err(BbError::NotFound(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Delete a closed file everywhere: the manager waits out its flush,
    /// then reaps its buffered chunks, Lustre backing file and namespace
    /// entry; the scheme-C local replica goes here.
    pub async fn delete(&self, path: &str) -> Result<(), BbError> {
        let p = path.to_owned();
        self.mgr_call(128 + path.len() as u64, None, |reply| MgrMsg::Delete {
            path: p.clone(),
            reply,
        })
        .await??;
        if let Some(h) = &self.hdfs {
            match h.delete(path).await {
                Ok(()) | Err(hdfs::HdfsError::Nn(hdfs::NnError::NotFound(_))) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// List paths under `prefix`.
    pub async fn list(&self, prefix: &str) -> Result<Vec<String>, BbError> {
        let p = prefix.to_owned();
        self.mgr_call(128 + prefix.len() as u64, None, |reply| MgrMsg::List {
            prefix: p.clone(),
            reply,
        })
        .await
    }

    /// Block until `path` is durable in Lustre (or reported lost).
    pub async fn wait_flushed(&self, path: &str) -> Result<FileState, BbError> {
        let p = path.to_owned();
        self.mgr_call(128 + path.len() as u64, None, |reply| MgrMsg::WaitFlushed {
            path: p.clone(),
            reply,
        })
        .await?
    }
}

type ChunkResult = Result<(), BbError>;

/// Streaming writer through the burst buffer.
pub struct BbWriter {
    client: Rc<BbClient>,
    path: String,
    file_id: u64,
    lustre_file: Option<Rc<LustreFile>>,
    hdfs_writer: Option<HdfsWriter>,
    staged: RefCell<BytesMut>,
    seq: Cell<u64>,
    size: Cell<u64>,
    window: Rc<Semaphore>,
    pending: RefCell<Vec<JoinHandle<ChunkResult>>>,
    closed: Cell<bool>,
    /// Per-chunk CRC32C manifest, indexed by seq (sent with `Close`).
    crcs: RefCell<Vec<u32>>,
    /// Set when a manager ack carried the pressure flag: the writer
    /// bypasses the buffer and writes through (`ChunkDirect`) until an
    /// ack clears it (hysteresis lives in the manager). Shared with the
    /// in-flight chunk tasks.
    degraded: Rc<Cell<bool>>,
    /// Replicas that must be durable before a chunk acks (the effective
    /// [`AckMode`]'s quorum against `kv_replication`).
    ack_quorum: usize,
    /// Ack-ahead window: each chunk acked with replica tails still
    /// outstanding holds one permit until its tails finish, so the
    /// acked-but-under-replicated window is bounded.
    ack_ahead: Rc<Semaphore>,
}

impl BbWriter {
    /// The file path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Bytes accepted so far.
    pub fn len(&self) -> u64 {
        self.size.get()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append data — one buffer, or a gather of views (a reduce output);
    /// completed chunks are pushed to the buffer (and, per scheme, to
    /// Lustre/the local replica) with bounded concurrency. A chunk that
    /// lies inside one element is that element's view, not a copy.
    pub async fn append(&self, data: impl Into<Gather>) -> Result<(), BbError> {
        let mut data = data.into();
        assert!(!self.closed.get(), "append after close");
        self.size.set(self.size.get() + data.len() as u64);
        // scheme C: the local replica takes the stream as-is (the HDFS
        // writer stages internally and pipelines per block)
        if let Some(w) = &self.hdfs_writer {
            w.append(data.clone().concat()).await?;
        }
        let chunk_size = self.client.dep.config.chunk_size as usize;
        loop {
            let staged_len = self.staged.borrow().len();
            if staged_len + data.len() < chunk_size {
                let mut st = self.staged.borrow_mut();
                data.iter().for_each(|e| st.extend_from_slice(e));
                return Ok(());
            }
            let take = chunk_size - staged_len;
            let chunk = if staged_len == 0 {
                // fast path: a whole chunk straight from the input
                data.copy_to_bytes(take)
            } else {
                let mut st = self.staged.borrow_mut();
                st.resize(chunk_size, 0);
                data.copy_to_slice(&mut st[staged_len..]);
                std::mem::take(&mut *st).freeze()
            };
            self.submit_chunk(chunk).await;
        }
    }

    /// Launch one chunk's writes under the window limit.
    async fn submit_chunk(&self, chunk: Bytes) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        // seal the chunk: its digest rides in the KV value's flags word,
        // in the manager's manifest, and (at close) in the file metadata
        let key = chunk_key(self.file_id, seq);
        let crc = integrity::chunk_crc(&key, &chunk);
        self.crcs.borrow_mut().push(crc);
        // locality placement: pick this brand-new key's replica targets
        // before any write routes it (no-op under the hash policy)
        self.client
            .dep
            .install_locality_override(self.client.node, &key);
        // client-side serialization cost (serial per writer)
        let sim = self.client.dep.stack.sim().clone();
        sim.sleep(simkit::dur::transfer(
            chunk.len() as u64,
            self.client.dep.config.client_write_rate,
        ))
        .await;
        let permit = self.window.acquire().await;
        let client = Rc::clone(&self.client);
        let file_id = self.file_id;
        let lustre_file = self.lustre_file.clone();
        let chunk_size = self.client.dep.config.chunk_size;
        let degraded = Rc::clone(&self.degraded);
        let ack_quorum = self.ack_quorum;
        let ack_ahead = Rc::clone(&self.ack_ahead);
        let sim = self.client.dep.stack.sim().clone();
        let handle = sim.clone().spawn(async move {
            let _permit = permit;
            let op = sim.op_begin("bb", "write_chunk", 0);
            let res: ChunkResult = async {
                match client.dep.config.scheme {
                    Scheme::SyncLustre => {
                        // write-through: buffer PUT and Lustre write in
                        // parallel; the ack needs both (buffer loss is
                        // tolerable, Lustre loss is not)
                        let lf = lustre_file.expect("sync scheme has a lustre handle");
                        let kv = Rc::clone(&client.kv);
                        let kv_chunk = chunk.clone();
                        let r = client.dep.config.kv_replication;
                        // buffer errors are non-fatal here
                        let kv_task = sim.spawn(async move {
                            for idx in integrity::replicas(kv.view(), &key, r) {
                                let _ = kv.set_to(idx, &key, kv_chunk.clone(), crc, 0).await;
                            }
                        });
                        lf.write_at(seq * chunk_size, chunk).await?;
                        sim.op_stamp(op, "lustre_write");
                        kv_task.await;
                        sim.op_stamp(op, "kv_join");
                        Ok(())
                    }
                    Scheme::AsyncLustre | Scheme::HybridLocality => {
                        let len = chunk.len() as u64;
                        // under pressure: skip the buffer entirely
                        let buffered = !degraded.get()
                            && put_quorum(
                                &client, &sim, op, seq, &key, &chunk, crc, ack_quorum, &ack_ahead,
                            )
                            .await;
                        let ack = if buffered {
                            // notify the persistence manager; the ack says
                            // where the file's next chunk goes
                            client
                                .mgr_call(48, op, |reply| MgrMsg::ChunkReady {
                                    file_id,
                                    seq,
                                    len,
                                    crc,
                                    reply,
                                })
                                .await??
                        } else {
                            // degraded path: buffer unavailable or overloaded,
                            // persist through the manager directly
                            client
                                .mgr_call(len + 64, op, |reply| MgrMsg::ChunkDirect {
                                    file_id,
                                    seq,
                                    data: chunk.clone(),
                                    crc,
                                    reply,
                                })
                                .await??
                        };
                        sim.op_stamp(op, "ack");
                        // stay (or go) write-through when the buffer is
                        // under pressure or the manager classified this
                        // file as a long-sequential stream
                        degraded.set(ack.write_through);
                        Ok(())
                    }
                }
            }
            .await;
            match &res {
                Ok(()) => {
                    if let Some(done) = sim.op_finish(op) {
                        if let Some((stage, _)) = done.dominant_stage() {
                            sim.optrace()
                                .note_critical(format!("bb.critpath.write_chunk.{stage}"));
                        }
                    }
                }
                Err(_) => sim.optrace().abort(op),
            }
            res
        });
        self.pending.borrow_mut().push(handle);
    }

    /// Flush the partial tail chunk, wait for all chunk writes, persist
    /// per scheme, and seal the file at the manager.
    pub async fn close(&self) -> Result<(), BbError> {
        assert!(!self.closed.get(), "double close");
        let tail = std::mem::take(&mut *self.staged.borrow_mut());
        if !tail.is_empty() {
            self.submit_chunk(tail.freeze()).await;
        }
        let handles: Vec<_> = self.pending.borrow_mut().drain(..).collect();
        let mut first_err = None;
        for h in handles {
            if let Err(e) = h.await {
                first_err.get_or_insert(e);
            }
        }
        // Mark closed and release the per-file handles even when a chunk
        // write failed: a caller that retries after an error must not trip
        // the `double close`/`append after close` asserts, and the HDFS/
        // Lustre handles must not leak open.
        self.closed.set(true);
        if let Some(w) = &self.hdfs_writer {
            if let Err(e) = w.close().await {
                first_err.get_or_insert(e.into());
            }
        }
        if let Some(lf) = &self.lustre_file {
            if let Err(e) = lf.close().await {
                first_err.get_or_insert(e.into());
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let file_id = self.file_id;
        let size = self.size.get();
        let crcs = self.crcs.borrow().clone();
        self.client
            .mgr_call(48 + 4 * crcs.len() as u64, None, |reply| MgrMsg::Close {
                file_id,
                size,
                crcs: crcs.clone(),
                reply,
            })
            .await??;
        Ok(())
    }
}

/// Buffer PUT at `quorum` of the key's replicas. The sync copies are the
/// first `quorum` live replicas in ring order: store every one, then pin
/// every one, so LRU pressure can never silently evict the unflushed
/// chunk (the flusher unpins once it is safe in Lustre). Returns whether
/// the chunk is buffered; `false` — a sync copy failed, or was evicted
/// or refused between set and pin — routes it write-through via the
/// manager, strictly more durable than any ack mode asks for.
///
/// A live replica set shorter than the quorum acks with the copies it has
/// and records `bb.ack.downgrade` — loudly, never silently wait. Replicas
/// past the quorum are tails, completed asynchronously under the bounded
/// ack-ahead window. Tails are written unpinned, best-effort: pinning them
/// would race the flusher's post-persist unpin and leak pinned memory, and
/// the mode's durability contract only covers the quorum copies anyway.
#[allow(clippy::too_many_arguments)]
async fn put_quorum(
    client: &Rc<BbClient>,
    sim: &simkit::Sim,
    op: Option<simkit::OpId>,
    seq: u64,
    key: &[u8],
    chunk: &Bytes,
    crc: u32,
    quorum: usize,
    ack_ahead: &Rc<Semaphore>,
) -> bool {
    // the `bb.ack.*` counters exist only where the mode relaxes the quorum
    let r = client.dep.config.kv_replication;
    let relaxed = (quorum < r.max(1)).then(|| client.dep.ack_counters());
    let mut sync = integrity::replicas(client.kv.view(), key, r);
    let tail = sync.split_off(quorum.min(sync.len()));
    // `&=` evaluates every right-hand side: each copy gets its RPC even
    // after one fails
    let mut stored = !sync.is_empty();
    for &idx in &sync {
        stored &= client
            .kv
            .set_to(idx, key, chunk.clone(), crc, 0)
            .await
            .is_ok();
    }
    sim.op_stamp(op, "kv_put");
    if !stored {
        return false;
    }
    let mut pinned = true;
    for &idx in &sync {
        pinned &= matches!(client.kv.pin_to(idx, key).await, Ok(true));
    }
    if !pinned {
        let holders = integrity::holders(client.kv.view(), key, r);
        client.kv.unpin_on(&holders, key).await;
        sim.op_stamp(op, "pin");
        return false;
    }
    if sync.len() < quorum {
        client.dep.ack_counters().downgrade.inc();
        sim.flight_record("bb.ack", "downgrade", || {
            format!(
                "key={} quorum={quorum} synced={}",
                String::from_utf8_lossy(key),
                sync.len()
            )
        });
    }
    let Some(ack) = relaxed else {
        sim.op_stamp(op, "pin");
        return true;
    };
    if !tail.is_empty() {
        let permit = match ack_ahead.try_acquire() {
            Some(p) => p,
            None => {
                // window full: backpressure the writer until a tail drains.
                // Meanwhile the chunk is synced but unacked, held by its
                // quorum copies alone; the span (lane: the chunk's seq) is
                // how long
                ack.ahead_waits.inc();
                let _sp = sim.span("bb.ack_wait", "bb", client.node.0, seq);
                ack_ahead.acquire().await
            }
        };
        let kv = Rc::clone(&client.kv);
        let key = key.to_vec();
        let data = chunk.clone();
        let counters = Rc::clone(&ack);
        let sim2 = sim.clone();
        sim.spawn(async move {
            let _permit = permit;
            for idx in tail {
                let mut done = false;
                for attempt in 0..=KV_RETRIES {
                    if attempt > 0 {
                        // back off between attempts, never after the last
                        let delay = kv_backoff(1, attempt - 1, Duration::from_millis(5));
                        sim2.sleep(delay).await;
                    }
                    if kv.set_to(idx, &key, data.clone(), crc, 0).await.is_ok() {
                        done = true;
                        break;
                    }
                }
                if done {
                    counters.async_replicas.inc();
                } else {
                    counters.downgrade.inc();
                    sim2.flight_record("bb.ack", "downgrade", || {
                        format!(
                            "key={} async replica {idx} unreachable",
                            String::from_utf8_lossy(&key)
                        )
                    });
                }
            }
        });
    }
    ack.quorum_acks.inc();
    sim.op_stamp(op, "pin");
    true
}

/// Reader with buffer-first chunk fetches. With `read_window > 1` the
/// tiered path is pipelined: up to `read_window` chunks are in flight at
/// once, buffer GETs are batched per KV server, and contiguous
/// buffer-miss runs collapse into single Lustre reads. `read_window = 1`
/// reproduces the serial chunk-at-a-time path exactly.
pub struct BbReader {
    core: Rc<ReadCore>,
}

impl BbReader {
    /// The file path.
    pub fn path(&self) -> &str {
        &self.core.path
    }

    /// File size.
    pub fn size(&self) -> u64 {
        self.core.meta.borrow().size
    }

    /// Durability state at last metadata refresh.
    pub fn state(&self) -> FileState {
        self.core.meta.borrow().state
    }

    /// Read `len` bytes at `offset` into one buffer: [`BbReader::read_gather`]
    /// joined after its last await, so no assembly buffer is held while
    /// chunks are in flight.
    pub async fn read_at(&self, offset: u64, len: u64) -> Result<Bytes, BbError> {
        self.read_gather(offset, len).await.map(Gather::concat)
    }

    /// Read `len` bytes at `offset` as views of the chunks that hold them
    /// (buffer values, Lustre stripe replies, local-replica reads), in
    /// order, with nothing copied.
    pub async fn read_gather(&self, offset: u64, len: u64) -> Result<Gather, BbError> {
        self.core.read_gather(offset, len).await
    }

    /// Read the whole file.
    pub async fn read_all(&self) -> Result<Bytes, BbError> {
        self.read_at(0, self.size()).await
    }

    /// Block size of the scheme-C local overlay, if present.
    pub fn local_block_size(&self) -> Option<u64> {
        self.core.hdfs_reader.as_ref().map(|r| r.info().block_size)
    }

    /// Replica locations per chunk-region, for locality-aware scheduling
    /// (scheme C exposes the local overlay's placement; A/B have no
    /// node-local data).
    pub fn locations(&self) -> Vec<Vec<NodeId>> {
        match &self.core.hdfs_reader {
            Some(r) => r.info().blocks.iter().map(|b| b.replicas.clone()).collect(),
            None => Vec::new(),
        }
    }
}

/// A group fetch publishes into `ready`; consumers waiting on a chunk
/// take the group's join handle out of its shared slot.
type InflightSlot = Rc<RefCell<Option<JoinHandle<()>>>>;

/// Shared state behind a [`BbReader`]: per-file metadata plus the
/// pipelined-fetch bookkeeping (chunks ready to consume, chunks in
/// flight, and the window semaphore bounding concurrent fetches).
struct ReadCore {
    client: Rc<BbClient>,
    path: String,
    meta: RefCell<BbFileMeta>,
    hdfs_reader: Option<HdfsReader>,
    lustre_file: RefCell<Option<Rc<LustreFile>>>,
    /// Fetched chunks awaiting consumption, by seq.
    ready: RefCell<BTreeMap<u64, Result<Bytes, BbError>>>,
    /// Seqs currently being fetched; all seqs of one group share a slot.
    inflight: RefCell<BTreeMap<u64, InflightSlot>>,
    /// `read_window` permits; a group of N chunks holds N for the wire
    /// phase of its fetch.
    fetch_gate: Semaphore,
}

impl ReadCore {
    fn config(&self) -> &BbConfig {
        &self.client.dep.config
    }

    /// `(file_id, chunk_size, size)` of the file as last refreshed.
    fn geometry(&self) -> (u64, u64, u64) {
        let m = self.meta.borrow();
        (m.file_id, m.chunk_size, m.size)
    }

    /// Whether this node holds a scheme-C local replica covering `offset`.
    fn has_local_replica(&self, offset: u64) -> bool {
        match &self.hdfs_reader {
            None => false,
            Some(r) => {
                let bs = r.info().block_size;
                let bi = (offset / bs) as usize;
                r.info()
                    .blocks
                    .get(bi)
                    .map(|b| b.replicas.contains(&self.client.node))
                    .unwrap_or(false)
            }
        }
    }

    async fn lustre_handle(&self) -> Result<Rc<LustreFile>, BbError> {
        let cached = self.lustre_file.borrow().as_ref().map(Rc::clone);
        if let Some(f) = cached {
            return Ok(f);
        }
        let lpath = self.meta.borrow().lustre_path.clone();
        let f = Rc::new(self.client.lustre.open(&lpath).await?);
        *self.lustre_file.borrow_mut() = Some(Rc::clone(&f));
        Ok(f)
    }

    /// The CRC chunk `seq` was sealed with, once the file has a manifest
    /// (files still being written when opened have none yet).
    fn sealed_crc(&self, seq: u64) -> Option<u32> {
        self.meta.borrow().chunk_crcs.get(seq as usize).copied()
    }

    /// Tier 1 for one chunk: the checksum-verified buffer GET — a corrupt
    /// copy fails over to the next server of the read order (and is
    /// repaired in place), never reaches the caller. `last`: a server
    /// that just failed this key's batched leg, asked last.
    async fn buffer_get(&self, file_id: u64, seq: u64, last: Option<usize>) -> Option<Bytes> {
        let key = chunk_key(file_id, seq);
        let dep = &self.client.dep;
        let (kv, counters, sealed) = (
            &self.client.kv,
            dep.integrity_counters(),
            self.sealed_crc(seq),
        );
        let got =
            integrity::get_verified(kv, counters, &key, sealed, dep.config.kv_replication, last);
        got.await.ok().map(|v| v.data)
    }

    /// Verify a Lustre-tier chunk against the file's CRC manifest. Files
    /// with no manifest entry pass unverified — same behaviour as the seed.
    fn verify_lustre(&self, file_id: u64, seq: u64, data: &Bytes) -> Result<(), BbError> {
        if let Some(crc) = self.sealed_crc(seq) {
            if integrity::chunk_crc(&chunk_key(file_id, seq), data) != crc {
                self.client.dep.integrity_counters().checksum_fail.inc();
                return Err(BbError::DataUnavailable {
                    path: self.path.clone(),
                    seq,
                });
            }
        }
        Ok(())
    }

    /// Tier 2 for the buffer misses `seqs` (ascending): Lustre, only sound
    /// once the file is flushed. Contiguous runs coalesce into single
    /// stripe-spanning reads, fetched concurrently (a serial miss is a run
    /// of one); every chunk is verified against the manifest and counted
    /// `tier_lustre`.
    async fn lustre_tier(&self, seqs: &[u64]) -> Vec<(u64, Result<Bytes, BbError>)> {
        let mut state = self.meta.borrow().state;
        if state != FileState::Flushed {
            // refresh: the flusher may have finished since open
            if let Ok(m) = self.client.fetch_meta(&self.path).await {
                state = m.state;
                *self.meta.borrow_mut() = m;
            }
        }
        if state != FileState::Flushed {
            let unavailable = |&seq| {
                let path = self.path.clone();
                (seq, Err(BbError::DataUnavailable { path, seq }))
            };
            return seqs.iter().map(unavailable).collect();
        }
        let lf = match self.lustre_handle().await {
            Ok(lf) => lf,
            Err(e) => return seqs.iter().map(|&s| (s, Err(e.clone()))).collect(),
        };
        let (file_id, chunk_size, size) = self.geometry();
        let clen = |seq: u64| chunk_size.min(size - seq * chunk_size);
        let sim = self.client.dep.stack.sim();
        type LustreRun = (u64, u64, JoinHandle<Result<Gather, LustreError>>);
        let mut runs: Vec<LustreRun> = Vec::new();
        for (s0, s1) in coalesce_runs(seqs) {
            let lf = Rc::clone(&lf);
            let off = s0 * chunk_size;
            let run_len = (s1 * chunk_size + clen(s1)) - off;
            let h = sim.spawn(async move { lf.read_gather(off, run_len).await });
            runs.push((s0, s1, h));
        }
        let mut out = Vec::with_capacity(seqs.len());
        for (s0, s1, h) in runs {
            match h.await {
                Ok(data) => {
                    for s in s0..=s1 {
                        // a view of one stripe reply whenever the stripe
                        // size is a multiple of the chunk size
                        let rel = ((s - s0) * chunk_size) as usize;
                        let b = data.slice(rel..rel + clen(s) as usize).concat();
                        if let Err(e) = self.verify_lustre(file_id, s, &b) {
                            out.push((s, Err(e)));
                            continue;
                        }
                        self.client.dep.read_counters().tier_lustre.inc();
                        out.push((s, Ok(b)));
                    }
                }
                Err(e) => {
                    let e: BbError = e.into();
                    out.extend((s0..=s1).map(|s| (s, Err(e.clone()))));
                }
            }
        }
        out
    }

    /// Fetch one whole chunk via the serial tiered read path (the
    /// `read_window = 1` behaviour, and the fallback for chunks the
    /// pipelined planner did not cover).
    async fn fetch_chunk(&self, seq: u64) -> Result<Bytes, BbError> {
        let (file_id, chunk_size, size) = self.geometry();
        let chunk_len = chunk_size.min(size - seq * chunk_size);
        let sim = self.client.dep.stack.sim().clone();
        let _sp = sim.span("bb.fetch_chunk", "bb", self.client.node.0, seq);
        let mgr = &self.client.dep.manager;
        mgr.record_read(file_id, seq, self.client.node);
        let read_cpu = simkit::dur::transfer(chunk_len, self.config().client_read_rate);
        // tier 0 (scheme C): node-local replica
        if self.has_local_replica(seq * chunk_size) {
            if let Some(r) = &self.hdfs_reader {
                if let Ok(b) = r.read_at(seq * chunk_size, chunk_len).await {
                    sim.sleep(read_cpu).await;
                    self.client.dep.read_counters().tier_local.inc();
                    return Ok(b);
                }
            }
        }
        // tier 1: the buffer (RDMA GET from server DRAM)
        if let Some(data) = self.buffer_get(file_id, seq, None).await {
            sim.sleep(read_cpu).await;
            self.client.dep.read_counters().tier_buffer.inc();
            return Ok(data);
        }
        // tier 2: Lustre, as a miss run of one
        let mut run = self.lustre_tier(&[seq]).await;
        run.pop().expect("one result per seq").1
    }

    /// The bytes of `[offset, offset + len)` as views of the chunks that
    /// hold them, in order. One loop serves both paths: the serial
    /// (`read_window = 1`, seed behaviour bit-for-bit) fetches each chunk
    /// itself; the pipelined one first plans group fetches over the range
    /// (plus readahead), then takes each chunk as its group publishes it,
    /// overlapping one group's client-side CPU with the next group's wire
    /// time.
    async fn read_gather(self: &Rc<Self>, offset: u64, len: u64) -> Result<Gather, BbError> {
        let (chunk_size, size) = {
            let m = self.meta.borrow();
            (m.chunk_size, m.size)
        };
        if offset.checked_add(len).is_none_or(|end| end > size) {
            return Err(BbError::OutOfRange { offset, len, size });
        }
        let mut out = Gather::default();
        if len == 0 {
            return Ok(out);
        }
        let window = self.config().read_window;
        let pipelined = window > 1;
        if pipelined {
            let first = offset / chunk_size;
            let last = (offset + len - 1) / chunk_size;
            let max_seq = (size - 1) / chunk_size;
            // readahead: prefetch up to a window of chunks past the request
            let horizon = (last + window as u64).min(max_seq);
            // bound the ready map under random access: keep only the
            // planned range once it outgrows a few windows of chunks
            {
                let mut ready = self.ready.borrow_mut();
                if ready.len() > 4 * window {
                    ready.retain(|s, _| *s >= first && *s <= horizon);
                }
            }
            self.spawn_missing(first, horizon);
        }
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let seq = pos / chunk_size;
            let within = pos % chunk_size;
            let chunk = if pipelined {
                self.take_chunk(seq).await?
            } else {
                self.fetch_chunk(seq).await?
            };
            let take = ((chunk.len() as u64) - within).min(end - pos);
            out.push(chunk.slice(within as usize..(within + take) as usize));
            pos += take;
            if pipelined && within + take < chunk.len() as u64 {
                // the request ends mid-chunk: keep the rest for the next
                // (sequential) read instead of refetching
                self.ready.borrow_mut().insert(seq, Ok(chunk));
            }
        }
        Ok(out)
    }

    /// Launch group fetches for every seq in `[first, horizon]` that is
    /// neither ready nor in flight. Groups are at most `read_window`
    /// chunks and acquire their permits atomically (all-or-nothing), so
    /// two groups can never deadlock holding partial windows.
    fn spawn_missing(self: &Rc<Self>, first: u64, horizon: u64) {
        let window = self.config().read_window;
        let missing: Vec<u64> = {
            let ready = self.ready.borrow();
            let inflight = self.inflight.borrow();
            (first..=horizon)
                .filter(|s| !ready.contains_key(s) && !inflight.contains_key(s))
                .collect()
        };
        let sim = self.client.dep.stack.sim().clone();
        for group in missing.chunks(window) {
            let seqs = group.to_vec();
            let slot: InflightSlot = Rc::new(RefCell::new(None));
            {
                let mut inflight = self.inflight.borrow_mut();
                for &s in &seqs {
                    inflight.insert(s, Rc::clone(&slot));
                }
            }
            let handle = sim.spawn(Rc::clone(self).run_group(seqs));
            // single-threaded executor: the task cannot have run yet, so
            // the slot is filled before any consumer can look at it
            *slot.borrow_mut() = Some(handle);
        }
    }

    /// One group fetch: hold `len` window permits for the wire phase,
    /// release them, then charge the client-side CPU while the next
    /// group's wire phase proceeds, and finally publish the chunks.
    async fn run_group(self: Rc<Self>, seqs: Vec<u64>) {
        let sim = self.client.dep.stack.sim().clone();
        let _sp = sim.span("bb.run_group", "bb", self.client.node.0, seqs[0]);
        let op = sim.op_begin("bb", "read_group", 0);
        let permit = self.fetch_gate.acquire_many(seqs.len()).await;
        sim.op_stamp(op, "permit_wait");
        let (results, cpu) = self.fetch_group(&seqs, op).await;
        drop(permit);
        if cpu > Duration::ZERO {
            sim.sleep(cpu).await;
        }
        sim.op_stamp(op, "cpu");
        if let Some(done) = sim.op_finish(op) {
            if let Some((stage, _)) = done.dominant_stage() {
                sim.optrace()
                    .note_critical(format!("bb.critpath.read_group.{stage}"));
            }
        }
        let mut ready = self.ready.borrow_mut();
        let mut inflight = self.inflight.borrow_mut();
        for (s, r) in results {
            ready.insert(s, r);
            inflight.remove(&s);
        }
    }

    /// Fetch a group of chunks through the tiers: node-local replicas in
    /// parallel, one batched GET round trip per KV server for the rest,
    /// and contiguous buffer-miss runs coalesced into single Lustre
    /// reads. Returns per-seq results plus the client CPU to charge for
    /// the buffer hits (their payloads land together when the batched
    /// GETs join, so the per-chunk costs overlap — the max is charged).
    async fn fetch_group(
        self: &Rc<Self>,
        seqs: &[u64],
        op: Option<simkit::OpId>,
    ) -> (Vec<(u64, Result<Bytes, BbError>)>, Duration) {
        let (file_id, chunk_size, size) = self.geometry();
        let rate = self.config().client_read_rate;
        let sim = self.client.dep.stack.sim().clone();
        let mgr = &self.client.dep.manager;
        for &s in seqs {
            mgr.record_read(file_id, s, self.client.node);
        }
        let clen = |seq: u64| chunk_size.min(size - seq * chunk_size);
        let mut out: BTreeMap<u64, Result<Bytes, BbError>> = BTreeMap::new();
        let mut cpu = Duration::ZERO;

        // tier 0: node-local replica reads, concurrent, each charging its
        // own client CPU inside the task
        let mut local: Vec<(u64, JoinHandle<Option<Bytes>>)> = Vec::new();
        let mut rest: Vec<u64> = Vec::new();
        for &s in seqs {
            if self.has_local_replica(s * chunk_size) {
                let core = Rc::clone(self);
                let len = clen(s);
                local.push((
                    s,
                    sim.spawn(async move {
                        let r = core.hdfs_reader.as_ref()?;
                        let b = r.read_at(s * chunk_size, len).await.ok()?;
                        let cpu = simkit::dur::transfer(len, rate);
                        core.client.dep.stack.sim().sleep(cpu).await;
                        Some(b)
                    }),
                ));
            } else {
                rest.push(s);
            }
        }

        // tier 1: batched buffer GETs (one round trip per owning server)
        let mut misses: Vec<u64> = Vec::new();
        if !rest.is_empty() {
            let keys: Vec<Vec<u8>> = rest.iter().map(|&s| chunk_key(file_id, s)).collect();
            let servers: BTreeSet<usize> = keys
                .iter()
                .filter_map(|k| self.client.kv.route(k).ok())
                .collect();
            let rc = self.client.dep.read_counters();
            rc.multi_gets.add(servers.len() as u64);
            rc.multi_get_keys.add(keys.len() as u64);
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let vals = self.client.kv.multi_get(&refs).await;
            // A key the batch did not resolve (a miss, or its leg failed)
            // may still sit on another replica or, after a membership
            // change, on an old owner: while there is more than one server
            // to ask it takes the verified per-key walk — past the server
            // whose leg failed, which it asks last. Otherwise the batch
            // asked its only holder, and it goes to the Lustre tier.
            let view = self.client.kv.view();
            let walk = self.config().kv_replication.min(view.active_len()) > 1 || view.epoch() > 0;
            let mut verify: Vec<(u64, Option<usize>)> = Vec::new();
            let mut corrupt: Vec<(u64, Option<usize>)> = Vec::new();
            for ((&s, key), v) in rest.iter().zip(&keys).zip(vals) {
                match v {
                    Ok(Some(val)) if integrity::is_good(key, &val, self.sealed_crc(s)) => {
                        cpu = cpu.max(simkit::dur::transfer(clen(s), rate));
                        self.client.dep.read_counters().tier_buffer.inc();
                        out.insert(s, Ok(val.data));
                    }
                    Ok(Some(_)) => {
                        self.client.dep.integrity_counters().checksum_fail.inc();
                        corrupt.push((s, None));
                    }
                    Err(_) if walk => verify.push((s, self.client.kv.route(key).ok())),
                    Ok(None) if walk => verify.push((s, None)),
                    _ => misses.push(s),
                }
            }
            // a corrupt batched hit retries through the verified per-key
            // path too (replica failover + in-place repair), after the
            // unresolved keys, before degrading to the Lustre tier
            verify.extend(corrupt);
            for (s, last) in verify {
                match self.buffer_get(file_id, s, last).await {
                    Some(data) => {
                        cpu = cpu.max(simkit::dur::transfer(clen(s), rate));
                        self.client.dep.read_counters().tier_buffer.inc();
                        out.insert(s, Ok(data));
                    }
                    None => misses.push(s),
                }
            }
            misses.sort_unstable();
            sim.op_stamp(op, "kv_fetch");
        }

        // join the tier-0 reads; a failed local read falls back to the
        // serial tiered path for that chunk
        let had_local = !local.is_empty();
        for (s, h) in local {
            match h.await {
                Some(b) => {
                    self.client.dep.read_counters().tier_local.inc();
                    out.insert(s, Ok(b));
                }
                None => {
                    let r = self.fetch_chunk(s).await;
                    out.insert(s, r);
                }
            }
        }
        if had_local {
            sim.op_stamp(op, "local_join");
        }

        // tier 2: Lustre
        if !misses.is_empty() {
            out.extend(self.lustre_tier(&misses).await);
            sim.op_stamp(op, "lustre_fetch");
        }
        (out.into_iter().collect(), cpu)
    }

    /// Hand the consumer chunk `seq`: from `ready` if fetched, by waiting
    /// on its group if in flight, or via the serial path if the planner
    /// never covered it (random access outside the planned range).
    async fn take_chunk(self: &Rc<Self>, seq: u64) -> Result<Bytes, BbError> {
        let hit = self.ready.borrow_mut().remove(&seq);
        if let Some(res) = hit {
            return match res {
                Ok(b) => Ok(b),
                // a group-fetch error may be stale (e.g. the flusher
                // finished since): retry once through the serial path,
                // which surfaces the authoritative error
                Err(_) => self.fetch_chunk(seq).await,
            };
        }
        let slot = self.inflight.borrow().get(&seq).map(Rc::clone);
        if let Some(slot) = slot {
            self.client.dep.read_counters().readahead_stalls.inc();
            let handle = slot.borrow_mut().take();
            if let Some(h) = handle {
                h.await;
            }
            // else: another consumer is already driving this group; with
            // a single sequential consumer this cannot happen, fall
            // through to the direct fetch
            let res = self.ready.borrow_mut().remove(&seq);
            if let Some(Ok(b)) = res {
                return Ok(b);
            }
        }
        self.fetch_chunk(seq).await
    }
}

/// Collapse an ascending seq list into inclusive `(start, end)` runs.
fn coalesce_runs(seqs: &[u64]) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &s in seqs {
        match runs.last_mut() {
            Some((_, e)) if *e + 1 == s => *e = s,
            _ => runs.push((s, s)),
        }
    }
    runs
}

#[cfg(test)]
mod tests;
