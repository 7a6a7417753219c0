//! The KV client: ketama routing across servers, cached connections, a
//! pool of pre-registered buffers, and the hybrid payload protocol.
//!
//! * values ≤ `inline_max` travel inline in the SEND frame;
//! * larger SET payloads are staged in a pooled registered buffer and the
//!   server RDMA-READs them (one round trip, zero-copy);
//! * GETs hand the server a pooled buffer to RDMA-WRITE large values into.
//!
//! ## Resilience
//!
//! With [`KvClientConfig::replication`] > 1, every SET is written to the
//! first `r` distinct servers clockwise from the key's ring position
//! ([`HashRing::route_n`]) and succeeds only if *all* replicas stored it —
//! a failed replicated SET tells the caller durability is not met, so the
//! burst buffer can fall back to its direct-to-Lustre path. GETs read the
//! primary and fail over to the remaining replicas; a miss is only
//! definitive once every reachable replica has missed (a crashed-and-
//! restarted primary comes back empty, so its miss proves nothing).
//!
//! Every exchange — a `multi_get` fan-out leg included — is one attempt
//! bounded by [`OP_TIMEOUT`]; every verb but the leg retries it up to
//! [`MAX_RETRIES`] times with exponential backoff.
//! Backoff jitter is drawn from a [`SimRng`] seeded by the client's node id
//! — never from wall clock — so runs are reproducible. Retries and
//! failovers are counted in the `kv.retry.*` / `kv.failover.*` metric
//! families (shared across all clients on one simulation).
//!
//! ## Elastic membership
//!
//! Routing consults a shared [`Membership`] view on every operation, so
//! servers can join or drain mid-run. The replication cap follows the
//! *live* active count (not the construction-time roster), an epoch bump
//! observed mid-operation triggers one transparent re-resolve + retry
//! against the new ring (`kv.epoch.retries`), and once the view has ever
//! changed (epoch > 0) a definitive miss falls back to scanning the full
//! roster — chunks written under an old ring and not yet migrated are
//! still found on their previous owners (`kv.epoch.fallback_reads`).
//! Deployments that never change membership stay at epoch 0 and behave
//! exactly as before.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use simkit::optrace::FinishedOp;
use simkit::sync::semaphore::Semaphore;
use simkit::telemetry::Counter;
use simkit::SimRng;

use netsim::NodeId;
use rdmasim::{Mr, Qp, RdmaError, RdmaStack};

use crate::membership::Membership;
use crate::proto::{Carrier, ProtoError, Request, Response};
use crate::server::KvServer;
use crate::store::{KvError, Value};

/// Client-side failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientError {
    /// Store-level error surfaced by the server.
    Kv(KvError),
    /// Transport failure (connection, one-sided op).
    Rdma(RdmaError),
    /// Malformed response frame.
    Proto(ProtoError),
    /// The client was built with no servers.
    NoServers,
    /// The server reported a failed one-sided transfer.
    TransferFailed,
    /// The operation exceeded [`OP_TIMEOUT`].
    Timeout,
    /// The server rejected the op under per-tenant admission control.
    /// Never retried at the transport layer — the offered load is the
    /// problem, not the exchange.
    Throttled,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Kv(e) => write!(f, "kv error: {e}"),
            ClientError::Rdma(e) => write!(f, "rdma error: {e}"),
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::NoServers => f.write_str("no kv servers configured"),
            ClientError::TransferFailed => f.write_str("server-side transfer failed"),
            ClientError::Timeout => f.write_str("kv operation timed out"),
            ClientError::Throttled => f.write_str("rejected by tenant admission control"),
        }
    }
}
impl std::error::Error for ClientError {}

impl From<RdmaError> for ClientError {
    fn from(e: RdmaError) -> Self {
        ClientError::Rdma(e)
    }
}
impl From<KvError> for ClientError {
    fn from(e: KvError) -> Self {
        ClientError::Kv(e)
    }
}
impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Virtual nodes per server on the hash ring.
pub const VNODES: u32 = 160;
/// Per-attempt deadline; a timed-out exchange poisons the connection it
/// was sent on (the abandoned response could desync the queue pair).
pub const OP_TIMEOUT: Duration = Duration::from_secs(1);
/// Retries per replica after the first attempt (transport errors and
/// timeouts only — store-level errors are never retried).
pub const MAX_RETRIES: u32 = 3;
/// First backoff delay; doubles per retry.
pub const BACKOFF_BASE: Duration = Duration::from_micros(100);
/// Backoff ceiling.
pub const BACKOFF_MAX: Duration = Duration::from_millis(5);

/// Client tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct KvClientConfig {
    /// Largest payload carried inline in a SEND frame.
    pub inline_max: usize,
    /// Registered buffers in the pool (0 disables one-sided transfers).
    pub pool_bufs: usize,
    /// Size of each pooled buffer; also the largest one-sided payload.
    pub buf_size: u64,
    /// Replicas per key (`r`): SETs go to the first `r` distinct servers
    /// clockwise on the ring, GETs fail over across them. `1` = no
    /// replication (capped at the server count).
    pub replication: usize,
    /// Tenant tag carried on every traced op (0 = untagged). Only
    /// consumed by the request tracer — per-tenant latency series appear
    /// under `rkv.lat.{class}.tenant{T}.e2e` when tracing is enabled.
    pub tenant: u32,
}

impl Default for KvClientConfig {
    fn default() -> Self {
        KvClientConfig {
            inline_max: 8 << 10,
            pool_bufs: 4,
            buf_size: 1 << 20,
            replication: 1,
            tenant: 0,
        }
    }
}

struct BufPool {
    stack: Rc<RdmaStack>,
    node: NodeId,
    buf_size: u64,
    free: RefCell<Vec<Mr>>,
    created: Cell<usize>,
    gate: Semaphore,
}

struct PooledBuf {
    mr: Option<Mr>,
    pool: Rc<BufPool>,
}

impl std::ops::Deref for PooledBuf {
    type Target = Mr;
    fn deref(&self) -> &Mr {
        self.mr.as_ref().expect("buffer taken")
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(mr) = self.mr.take() {
            self.pool.free.borrow_mut().push(mr);
        }
        self.pool.gate.release_extra(1);
    }
}

impl BufPool {
    async fn acquire(self: &Rc<Self>) -> PooledBuf {
        let permit = self.gate.acquire().await;
        permit.forget(); // returned via PooledBuf::drop
        let mr = {
            let existing = self.free.borrow_mut().pop();
            match existing {
                Some(mr) => mr,
                None => {
                    self.created.set(self.created.get() + 1);
                    self.stack.register(self.node, self.buf_size).await
                }
            }
        };
        PooledBuf {
            mr: Some(mr),
            pool: Rc::clone(self),
        }
    }
}

/// A connected KV client bound to one fabric node.
pub struct KvClient {
    node: NodeId,
    stack: Rc<RdmaStack>,
    config: KvClientConfig,
    view: Rc<Membership>,
    conns: RefCell<HashMap<usize, Rc<Conn>>>,
    pool: Rc<BufPool>,
    jitter: SimRng,
    res: ResCounters,
    observer: RefCell<Option<ObserverFn>>,
}

/// A test-only per-operation history observer ([`KvClient::set_observer`]).
pub type ObserverFn = Rc<dyn Fn(OpRecord)>;

/// One logical, client-visible KV operation, as delivered to the
/// test-only history observer ([`KvClient::set_observer`]): a single
/// record per `set`/`get`/`delete` call, emitted after replication,
/// retries, and failover have resolved. Value identity is carried as an
/// FNV-1a hash so recorders never hold payload bytes.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// The key the operation addressed.
    pub key: Bytes,
    /// What the operation did (and the value identity it saw or wrote).
    pub kind: OpKind,
    /// Virtual time the operation was issued.
    pub start: simkit::Time,
    /// Virtual time the operation returned to the caller.
    pub end: simkit::Time,
    /// Whether the call returned `Ok`. A failed operation may or may not
    /// have taken effect on some replicas — checkers must treat its
    /// write as indeterminate (allowed but not required to be visible).
    pub ok: bool,
}

/// What an observed operation did. Hashes are FNV-1a over value bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A replicated store of a value with this hash.
    Set {
        /// FNV-1a hash of the stored bytes.
        hash: u64,
    },
    /// A failover read; `None` means a definitive miss.
    Get {
        /// FNV-1a hash of the returned bytes, if any.
        hash: Option<u64>,
    },
    /// A replicated delete.
    Delete {
        /// Whether any replica held the key.
        found: bool,
    },
}

/// `kv.retry.*` / `kv.failover.*` / `kv.epoch.*` counters (get-or-create:
/// every client on one simulation bumps the same instances).
struct ResCounters {
    retry_attempts: Counter,
    retry_timeouts: Counter,
    retry_exhausted: Counter,
    failover_reads: Counter,
    failover_exhausted: Counter,
    epoch_retries: Counter,
    epoch_fallback: Counter,
}

struct Conn {
    qp: Qp,
    lock: Semaphore,
    /// Set when an op timed out mid-exchange on this queue pair: the
    /// abandoned response frame may still arrive, so the next frame read
    /// could belong to the wrong request. Waiters re-check after acquiring
    /// the serialization lock and reconnect instead of using it.
    poisoned: Cell<bool>,
}

impl KvClient {
    /// Build a client on `node` addressing a fixed set of `servers`. The
    /// client owns a private [`Membership`] view, so behaviour matches the
    /// pre-elastic client exactly; deployments that grow or shrink the
    /// ring at runtime share one view via [`KvClient::with_view`].
    pub fn new(
        stack: Rc<RdmaStack>,
        node: NodeId,
        servers: Vec<Rc<KvServer>>,
        config: KvClientConfig,
    ) -> Rc<KvClient> {
        let view = Membership::new(servers);
        Self::with_view(stack, node, view, config)
    }

    /// Build a client routing through a shared membership `view`. Every
    /// client (and the burst-buffer manager) holding the same view sees
    /// joins and drains at the same virtual instant.
    pub fn with_view(
        stack: Rc<RdmaStack>,
        node: NodeId,
        view: Rc<Membership>,
        config: KvClientConfig,
    ) -> Rc<KvClient> {
        let m = stack.sim().metrics();
        let res = ResCounters {
            retry_attempts: m.counter("kv.retry.attempts"),
            retry_timeouts: m.counter("kv.retry.timeouts"),
            retry_exhausted: m.counter("kv.retry.exhausted"),
            failover_reads: m.counter("kv.failover.reads"),
            failover_exhausted: m.counter("kv.failover.exhausted"),
            epoch_retries: m.counter("kv.epoch.retries"),
            epoch_fallback: m.counter("kv.epoch.fallback_reads"),
        };
        Rc::new(KvClient {
            node,
            stack: Rc::clone(&stack),
            config,
            view,
            conns: RefCell::new(HashMap::new()),
            pool: Rc::new(BufPool {
                stack,
                node,
                buf_size: config.buf_size,
                free: RefCell::new(Vec::new()),
                created: Cell::new(0),
                gate: Semaphore::new(config.pool_bufs.max(1)),
            }),
            // backoff jitter: seeded by node id, never wall clock, so a
            // run is reproducible from (program, seeds) alone
            jitter: SimRng::seed_from(0x6b76_7274 ^ u64::from(node.0)),
            res,
            observer: RefCell::new(None),
        })
    }

    /// Install a test-only observer that receives one [`OpRecord`] per
    /// logical `set`/`get`/`delete` call on this client. Consistency
    /// checkers use this to build a per-key history; when no observer is
    /// installed the hot paths pay nothing beyond a `borrow`.
    pub fn set_observer(&self, obs: Rc<dyn Fn(OpRecord)>) {
        *self.observer.borrow_mut() = Some(obs);
    }

    fn observe(&self, key: &[u8], kind: OpKind, start: simkit::Time, ok: bool) {
        let obs = self.observer.borrow().clone();
        if let Some(obs) = obs {
            obs(OpRecord {
                key: Bytes::copy_from_slice(key),
                kind,
                start,
                end: self.stack.sim().now(),
                ok,
            });
        }
    }

    /// The client's fabric node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The shared membership view this client routes through.
    pub fn view(&self) -> &Rc<Membership> {
        &self.view
    }

    /// Which server (roster index) owns `key` on the live ring.
    pub fn route(&self, key: &[u8]) -> Result<usize, ClientError> {
        self.view.route(key).ok_or(ClientError::NoServers)
    }

    /// The key's replica set: first `replication` distinct active servers
    /// clockwise on the live ring (the cap tracks the *current* active
    /// count, so `r` grows when servers join); element 0 is the primary
    /// ([`KvClient::route`]).
    pub fn replicas(&self, key: &[u8]) -> Result<Vec<usize>, ClientError> {
        let reps = self.view.route_n(key, self.config.replication.max(1));
        if reps.is_empty() {
            return Err(ClientError::NoServers);
        }
        Ok(reps)
    }

    async fn conn(&self, server_idx: usize) -> Result<Rc<Conn>, ClientError> {
        if let Some(c) = self.conns.borrow().get(&server_idx) {
            if c.qp.is_connected() {
                return Ok(Rc::clone(c));
            }
        }
        // (re)connect
        let server = self.view.server(server_idx);
        let qp = server.accept(self.node).await?;
        // tenanted clients tag the fresh connection before any op rides
        // it (one hello per connect; tenant 0 clients skip it entirely),
        // so per-connection tenancy survives reconnects
        if self.config.tenant != 0 {
            let hello = Request::SetTenant {
                tenant: self.config.tenant,
            };
            qp.send_tagged(hello.encode(), None).await?;
            let (frame, _) = qp.recv_tagged().await?;
            match Response::decode_sg(frame)? {
                Response::Ok => {}
                other => return Err(Self::unexpected(other)),
            }
        }
        let conn = Rc::new(Conn {
            qp,
            lock: Semaphore::new(1),
            poisoned: Cell::new(false),
        });
        self.conns.borrow_mut().insert(server_idx, Rc::clone(&conn));
        Ok(conn)
    }

    /// The traced-op class of a request.
    fn op_class(req: &Request) -> &'static str {
        match req {
            Request::Get { .. } => "get",
            Request::Set { .. } => "set",
            Request::MultiGet { .. } => "multi_get",
            _ => "other",
        }
    }

    /// One deadline-bounded attempt at a request/response exchange with
    /// `server_idx` — the only code that puts a request on the wire. Each
    /// attempt is its own traced op (a retry is a new op; one that errors
    /// or times out is aborted so half-stamped records never pollute the
    /// latency series): `client_queue` is stamped once the connection is
    /// acquired, the request rides the queue pair tagged so the server
    /// stamps its stages onto the same op, and `net_back` marks the
    /// response frame landing. Returns the finished op beside the response
    /// so a `multi_get` join can attribute its slowest leg.
    async fn attempt(
        &self,
        server_idx: usize,
        req: &Request,
    ) -> Result<(Response, Option<FinishedOp>), ClientError> {
        let sim = self.stack.sim().clone();
        let op = sim.op_begin("rkv", Self::op_class(req), self.config.tenant);
        sim.optrace().annotate_server(op, server_idx as u32);
        // the connection the request went out on, once it did
        let sent_on = Cell::new(None);
        let exchange = async {
            let conn = self.conn(server_idx).await?;
            let _serial = conn.lock.acquire().await;
            if conn.poisoned.get() {
                // an earlier op timed out mid-exchange on this qp; a stale
                // response may be in flight, so the channel can't be trusted
                self.drop_conn(server_idx, &conn);
                return Err(ClientError::Rdma(RdmaError::Disconnected));
            }
            sim.op_stamp(op, "client_queue");
            sent_on.set(Some(Rc::clone(&conn)));
            let r = async {
                conn.qp.send_tagged(req.encode(), op).await?;
                conn.qp.recv_tagged().await
            }
            .await;
            match r {
                Ok((frame, _)) => {
                    sim.op_stamp(op, "net_back");
                    Ok(Response::decode_sg(frame)?)
                }
                Err(e) => {
                    // connection is broken: drop it so the next op reconnects
                    self.drop_conn(server_idx, &conn);
                    Err(e.into())
                }
            }
        };
        match simkit::future::timeout(&sim, OP_TIMEOUT, exchange).await {
            Some(Ok(resp)) => Ok((resp, sim.op_finish(op))),
            Some(Err(e)) => {
                sim.optrace().abort(op);
                Err(e)
            }
            None => {
                sim.optrace().abort(op);
                self.res.retry_timeouts.inc();
                // the deadline also covers connecting and queueing: only a
                // request that was sent leaves a response to go stale, and
                // only on the connection that carried it
                if let Some(conn) = sent_on.take() {
                    sim.flight_record("rkv.client", "poison", || {
                        format!("node={} server={server_idx} op timeout", self.node.0)
                    });
                    conn.poisoned.set(true);
                    self.drop_conn(server_idx, &conn);
                }
                Err(ClientError::Timeout)
            }
        }
    }

    /// Remove `conn` from the cache if it is still the cached entry for
    /// `server_idx` (a reconnect may already have replaced it).
    fn drop_conn(&self, server_idx: usize, conn: &Rc<Conn>) {
        let mut conns = self.conns.borrow_mut();
        if conns.get(&server_idx).is_some_and(|c| Rc::ptr_eq(c, conn)) {
            conns.remove(&server_idx);
        }
    }

    /// Whether `e` is worth retrying: transport-level failures, timeouts
    /// and malformed frames (a transfer-corrupted response decodes to
    /// garbage; a fresh exchange of an idempotent op is safe), never
    /// store-level outcomes.
    fn retryable(e: &ClientError) -> bool {
        matches!(
            e,
            ClientError::Rdma(_)
                | ClientError::Timeout
                | ClientError::TransferFailed
                | ClientError::Proto(_)
        )
    }

    /// The exchange every verb goes through: [`KvClient::attempt`] under
    /// two bounded repairs. A retryable error is re-attempted up to
    /// [`MAX_RETRIES`] times, the delay doubling from [`BACKOFF_BASE`] to
    /// [`BACKOFF_MAX`] and jittered from the client's seeded RNG. A SET
    /// the server rejects with [`Response::BadDigest`] — the payload was
    /// damaged in flight and the client still holds the good copy — is
    /// re-sent up to `MAX_RETRIES` times, each re-send with a fresh
    /// transport-retry budget.
    async fn exchange(&self, server_idx: usize, req: &Request) -> Result<Response, ClientError> {
        let sim = self.stack.sim();
        let mut attempt = 0u32;
        let mut resends = 0u32;
        loop {
            match self.attempt(server_idx, req).await {
                Ok((Response::BadDigest, _)) if resends < MAX_RETRIES => {
                    resends += 1;
                    attempt = 0;
                    self.res.retry_attempts.inc();
                }
                Ok((resp, _)) => return Ok(resp),
                Err(e) if !Self::retryable(&e) => return Err(e),
                Err(e) if attempt >= MAX_RETRIES => {
                    self.res.retry_exhausted.inc();
                    sim.flight_record("rkv.client", "retry_exhausted", || {
                        format!("node={} server={server_idx} err={e:?}", self.node.0)
                    });
                    return Err(e);
                }
                Err(e) => {
                    sim.flight_record("rkv.client", "retry", || {
                        format!(
                            "node={} server={server_idx} attempt={attempt} err={e:?}",
                            self.node.0
                        )
                    });
                    let delay = BACKOFF_BASE
                        .saturating_mul(1u32 << attempt.min(20))
                        .min(BACKOFF_MAX);
                    // jitter in [0.5, 1.0) of the nominal delay
                    let jittered = delay.mul_f64(0.5 + 0.5 * self.jitter.f64());
                    attempt += 1;
                    self.res.retry_attempts.inc();
                    sim.sleep(jittered).await;
                }
            }
        }
    }

    fn use_one_sided(&self, len: usize) -> bool {
        self.config.pool_bufs > 0
            && len > self.config.inline_max
            && (len as u64) <= self.config.buf_size
    }

    /// Stage a SET once: a payload over `inline_max` goes into a pooled
    /// registered buffer for the server to RDMA-READ, anything else rides
    /// inline. The request is the same for every server it is sent to (and
    /// every epoch-retry round): writes go out one at a time, and a server
    /// only READs during its own exchange. The buffer must be held until
    /// the last exchange carrying the request has returned.
    async fn stage_set(
        &self,
        key: &[u8],
        value: &Bytes,
        flags: u32,
        expire_at: u64,
    ) -> Result<(Request, Option<PooledBuf>), ClientError> {
        let buf = if self.use_one_sided(value.len()) {
            let buf = self.pool.acquire().await;
            buf.put_local(0, value.clone())?;
            Some(buf)
        } else {
            None
        };
        let req = Request::Set {
            key: Bytes::copy_from_slice(key),
            flags,
            expire_at,
            value: match &buf {
                Some(b) => Carrier::Remote {
                    src: b.remote().into(),
                    len: value.len() as u32,
                },
                None => Carrier::Inline(value.clone()),
            },
        };
        Ok((req, buf))
    }

    /// Store `value` under `key` on every replica. Returns the primary's
    /// CAS token. Succeeds only if *all* `replication` replicas stored the
    /// value — a partial write surfaces the first failure so the caller
    /// knows the durability target was not met (surviving copies are still
    /// readable via failover). A membership-epoch bump observed while the
    /// write was in flight triggers one transparent re-resolve against the
    /// new ring (a drained replica erroring mid-set is not a real failure
    /// if its successor stores the value).
    pub async fn set(
        &self,
        key: &[u8],
        value: Bytes,
        flags: u32,
        expire_at: u64,
    ) -> Result<u64, ClientError> {
        let t0 = self.stack.sim().now();
        let obs_hash = self
            .observer
            .borrow()
            .is_some()
            .then(|| crate::hash::fnv1a(&value));
        let (req, buf) = self.stage_set(key, &value, flags, expire_at).await?;
        let mut epoch = self.view.epoch();
        let mut epoch_retried = false;
        let cas_out = loop {
            let replicas = self.replicas(key)?;
            let mut cas_out = None;
            let mut first_err = None;
            for idx in replicas {
                match self.exchange(idx, &req).await {
                    Ok(Response::Stored { cas }) => {
                        cas_out.get_or_insert(cas);
                    }
                    Ok(other) => {
                        first_err.get_or_insert(Self::unexpected(other));
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            match first_err {
                None => break cas_out,
                Some(e) => {
                    let live = self.view.epoch();
                    if live != epoch && !epoch_retried {
                        epoch = live;
                        epoch_retried = true;
                        self.res.epoch_retries.inc();
                        continue;
                    }
                    drop(buf);
                    if let Some(h) = obs_hash {
                        self.observe(key, OpKind::Set { hash: h }, t0, false);
                    }
                    return Err(e);
                }
            }
        };
        drop(buf);
        if let Some(h) = obs_hash {
            self.observe(key, OpKind::Set { hash: h }, t0, true);
        }
        Ok(cas_out.expect("no error implies at least one Stored"))
    }

    /// Fetch from one specific server (no failover). Used internally for
    /// failover reads and externally by integrity checkers that need to
    /// inspect each replica's copy independently.
    pub async fn get_from(
        &self,
        server_idx: usize,
        key: &[u8],
    ) -> Result<Option<Value>, ClientError> {
        // with a pool, hand the server a registered buffer to RDMA-WRITE a
        // large value into; without one every value comes back inline
        let buf = match self.config.pool_bufs {
            0 => None,
            _ => Some(self.pool.acquire().await),
        };
        let req = Request::Get {
            key: Bytes::copy_from_slice(key),
            dst: buf.as_ref().map(|b| b.remote().into()),
        };
        match (self.exchange(server_idx, &req).await?, &buf) {
            (Response::ValueWritten { len, flags, cas }, Some(buf)) => Ok(Some(Value {
                data: buf.read_local(0, len as u64)?,
                flags,
                cas,
            })),
            (Response::Value { data, flags, cas }, _) => Ok(Some(Value { data, flags, cas })),
            (Response::NotFound, _) => Ok(None),
            (other, _) => Err(Self::unexpected(other)),
        }
    }

    /// Where a read looks for `key`, in order, and how many leading
    /// entries are its replica set: the replicas in ring order, then —
    /// once membership has ever changed (epoch > 0) — the rest of the
    /// roster in roster order. A chunk written under an old ring and not
    /// yet migrated still lives on its previous owner (possibly a drained
    /// server), and the rebalancer deletes old copies only after the new
    /// owners verify, so a walk of this order cannot lose it. Every read
    /// lookup — [`KvClient::get`] here, the burst buffer's verified GET and
    /// its scrubber above — walks exactly this list.
    pub fn read_order(&self, key: &[u8]) -> Result<(Vec<usize>, usize), ClientError> {
        let mut order = self.replicas(key)?;
        let replicas = order.len();
        if self.view.epoch() > 0 {
            for idx in 0..self.view.roster_len() {
                if !order.contains(&idx) {
                    order.push(idx);
                }
            }
        }
        Ok((order, replicas))
    }

    /// Read-any with failover: walk [`KvClient::read_order`], return the
    /// first value found. A miss is only definitive once a *replica* has
    /// answered it: a server outside the replica set may never have owned
    /// the key, so its miss proves nothing (and a crashed-and-restarted
    /// replica reports misses for keys it used to hold, so all of them are
    /// consulted). `Err` if no replica answered and nobody had the value.
    async fn get_failover(&self, key: &[u8]) -> Result<Option<Value>, ClientError> {
        let (order, replicas) = self.read_order(key)?;
        let mut first_err = None;
        let mut missed = false;
        for (i, &idx) in order.iter().enumerate() {
            match self.get_from(idx, key).await {
                Ok(Some(v)) => {
                    if i >= replicas {
                        self.res.epoch_fallback.inc();
                    } else if i > 0 {
                        self.res.failover_reads.inc();
                        self.stack
                            .sim()
                            .flight_record("rkv.client", "failover_read", || {
                                format!("node={} replica={i} server={idx}", self.node.0)
                            });
                    }
                    return Ok(Some(v));
                }
                Ok(None) => missed |= i < replicas,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if missed {
            return Ok(None);
        }
        self.res.failover_exhausted.inc();
        Err(first_err.expect("no miss and no value implies an error"))
    }

    /// Fetch `key`. `Ok(None)` on miss (from every reachable replica).
    pub async fn get(&self, key: &[u8]) -> Result<Option<Value>, ClientError> {
        let t0 = self.stack.sim().now();
        let result = match self.get_failover(key).await {
            Ok(r) => r,
            Err(e) => {
                self.observe(key, OpKind::Get { hash: None }, t0, false);
                return Err(e);
            }
        };
        if self.observer.borrow().is_some() {
            let hash = result.as_ref().map(|v| crate::hash::fnv1a(&v.data));
            self.observe(key, OpKind::Get { hash }, t0, true);
        }
        Ok(result)
    }

    /// Store `value` on one specific server, bypassing ring routing — the
    /// scrub/repair path uses this to overwrite a single divergent replica
    /// in place, and relaxed-ack quorum writes use it to address replicas
    /// individually. Observed as a logical set (per-server outcome) so
    /// history checkers can explain later reads of the value. Returns the
    /// server's CAS token.
    pub async fn set_to(
        &self,
        server_idx: usize,
        key: &[u8],
        value: Bytes,
        flags: u32,
        expire_at: u64,
    ) -> Result<u64, ClientError> {
        let t0 = self.stack.sim().now();
        let obs_hash = self
            .observer
            .borrow()
            .is_some()
            .then(|| crate::hash::fnv1a(&value));
        let (req, buf) = self.stage_set(key, &value, flags, expire_at).await?;
        let resp = self.exchange(server_idx, &req).await;
        drop(buf);
        let out = match resp {
            Ok(Response::Stored { cas }) => Ok(cas),
            Ok(other) => Err(Self::unexpected(other)),
            Err(e) => Err(e),
        };
        if let Some(h) = obs_hash {
            self.observe(key, OpKind::Set { hash: h }, t0, out.is_ok());
        }
        out
    }

    /// Send a key-only verb (`delete`, `pin`, `unpin`) to one server:
    /// `Ok(true)` iff the server held the key and applied it.
    async fn keyed(&self, server_idx: usize, req: &Request) -> Result<bool, ClientError> {
        match self.exchange(server_idx, req).await? {
            Response::Ok => Ok(true),
            Response::NotFound => Ok(false),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Every server that may hold a copy of `key`: its replica set, or —
    /// once membership has ever changed (epoch > 0) — the whole roster,
    /// since a not-yet-migrated copy still sits on an old owner.
    fn holders(&self, key: &[u8]) -> Result<Vec<usize>, ClientError> {
        if self.view.epoch() > 0 {
            Ok((0..self.view.roster_len()).collect())
        } else {
            self.replicas(key)
        }
    }

    /// Remove `key` from one specific server, bypassing ring routing —
    /// the rebalancer's delete-from-old step after a verified migration.
    /// `Ok(true)` if the server held the key.
    pub async fn delete_from(&self, server_idx: usize, key: &[u8]) -> Result<bool, ClientError> {
        let key = Bytes::copy_from_slice(key);
        self.keyed(server_idx, &Request::Delete { key }).await
    }

    /// Pin `key` on one specific server, bypassing ring routing — used to
    /// carry a pin across a migration before the old owner's copy goes
    /// away. `Ok(true)` iff the server holds (and pinned) the key.
    pub async fn pin_to(&self, server_idx: usize, key: &[u8]) -> Result<bool, ClientError> {
        let key = Bytes::copy_from_slice(key);
        self.keyed(server_idx, &Request::Pin { key }).await
    }

    /// Pin `key` against LRU eviction on every replica. `Ok(true)` iff
    /// every replica holds and pinned the key; `Ok(false)` if any replica
    /// no longer has it (the caller's durability expectation is not met).
    /// Every replica is tried even after one fails; the first error wins.
    pub async fn pin(&self, key: &[u8]) -> Result<bool, ClientError> {
        let req = Request::Pin {
            key: Bytes::copy_from_slice(key),
        };
        let mut all = true;
        let mut first_err = None;
        for idx in self.replicas(key)? {
            match self.keyed(idx, &req).await {
                Ok(held) => all &= held,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(all), Err)
    }

    /// Best-effort unpin of `key` on every server that may hold it
    /// ([`KvClient::holders`]). Errors and misses are swallowed: the only
    /// purpose is to let the LRU reclaim the item, and an unreachable
    /// replica will reap it by eviction anyway.
    pub async fn unpin(&self, key: &[u8]) {
        let req = Request::Unpin {
            key: Bytes::copy_from_slice(key),
        };
        for idx in self.holders(key).unwrap_or_default() {
            let _ = self.keyed(idx, &req).await;
        }
    }

    /// Remove `key` from every server that may hold it
    /// ([`KvClient::holders`] — a copy surviving on an old owner would be
    /// resurrected by the epoch-fallback read path); `Ok(true)` if any
    /// held it. An unreachable replica may keep a stale copy (reaped by
    /// expiry or eviction); the delete still succeeds if any answered.
    pub async fn delete(&self, key: &[u8]) -> Result<bool, ClientError> {
        let t0 = self.stack.sim().now();
        let req = Request::Delete {
            key: Bytes::copy_from_slice(key),
        };
        let mut existed = false;
        let mut first_err = None;
        let mut answered = false;
        for idx in self.holders(key)? {
            match self.keyed(idx, &req).await {
                Ok(held) => {
                    answered = true;
                    existed |= held;
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        self.observe(key, OpKind::Delete { found: existed }, t0, answered);
        match first_err {
            Some(e) if !answered => Err(e),
            _ => Ok(existed),
        }
    }

    /// Fetch many keys with one batched round trip per owning server, all
    /// servers queried concurrently. Results come back in the order of
    /// `keys` (`None` = miss).
    pub async fn multi_get(
        self: &Rc<Self>,
        keys: &[&[u8]],
    ) -> Result<Vec<Option<Value>>, ClientError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // group by ring owner, preserving original positions
        let mut by_server: HashMap<usize, Vec<(usize, Bytes)>> = HashMap::new();
        for (pos, k) in keys.iter().enumerate() {
            let idx = self.route(k)?;
            by_server
                .entry(idx)
                .or_default()
                .push((pos, Bytes::copy_from_slice(k)));
        }
        let mut out: Vec<Option<Value>> = vec![None; keys.len()];
        let mut server_ids: Vec<usize> = by_server.keys().copied().collect();
        server_ids.sort_unstable();
        let sim = self.stack.sim().clone();
        let mut tasks = Vec::with_capacity(server_ids.len());
        for idx in server_ids {
            let batch = by_server.remove(&idx).expect("grouped above");
            let client = Rc::clone(self);
            tasks.push(sim.spawn(async move {
                let req = Request::MultiGet {
                    keys: batch.iter().map(|(_, k)| k.clone()).collect(),
                };
                // each fan-out leg is one attempt — its own traced op, so
                // the join can attribute the dominant (slowest) leg — and
                // is not retried: an unresolved key falls back below
                match client.attempt(idx, &req).await? {
                    (Response::MultiValues { values }, finished) => {
                        if values.len() != batch.len() {
                            return Err(ClientError::Proto(ProtoError("multiget arity")));
                        }
                        let pairs: Vec<(usize, Option<Value>)> = batch
                            .into_iter()
                            .zip(values)
                            .map(|((pos, _), v)| {
                                (pos, v.map(|(data, flags, cas)| Value { data, flags, cas }))
                            })
                            .collect();
                        Ok((idx, pairs, finished))
                    }
                    (other, _) => Err(Self::unexpected(other)),
                }
            }));
        }
        // join in sorted-server order so the surfaced error is deterministic
        let mut first_err = None;
        let mut legs: Vec<(usize, FinishedOp)> = Vec::new();
        for task in tasks {
            match task.await {
                Ok((idx, pairs, finished)) => {
                    for (pos, v) in pairs {
                        out[pos] = v;
                    }
                    if let Some(f) = finished {
                        legs.push((idx, f));
                    }
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        // client-side critical path: which server's leg bounded the join
        // (strict > over sorted-server order → ties go to the lower idx),
        // and which of its stages dominated
        if let Some((idx, f)) =
            legs.iter()
                .fold(None::<&(usize, FinishedOp)>, |best, leg| match best {
                    Some(b) if b.1.e2e_ns >= leg.1.e2e_ns => best,
                    _ => Some(leg),
                })
        {
            let tracer = self.stack.sim().optrace();
            tracer.note_critical(format!("rkv.critpath.multi_get.server{idx}"));
            if let Some((stage, _)) = f.dominant_stage() {
                tracer.note_critical(format!("rkv.critpath.multi_get.stage.{stage}"));
            }
        }
        let r = self
            .config
            .replication
            .max(1)
            .min(self.view.active_len().max(1));
        if (r > 1 || self.view.epoch() > 0)
            && (first_err.is_some() || out.iter().any(Option::is_none))
        {
            // batches only consulted primaries; a failed batch — or a miss
            // against a possibly-restarted-empty primary — may still be
            // served by a replica (or, after a membership change, by an
            // old owner), so unresolved keys fall back to per-key
            // failover reads
            first_err = None;
            for (pos, k) in keys.iter().enumerate() {
                if out[pos].is_none() {
                    match self.get_failover(k).await {
                        Ok(v) => out[pos] = v,
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                }
            }
        }
        first_err.map_or(Ok(out), Err)
    }

    fn unexpected(resp: Response) -> ClientError {
        match resp {
            Response::NotFound => KvError::NotFound.into(),
            Response::TooLarge => KvError::TooLarge.into(),
            Response::OutOfMemory => KvError::OutOfMemory.into(),
            Response::TransferFailed => ClientError::TransferFailed,
            Response::BadDigest => ClientError::TransferFailed,
            Response::Throttled => ClientError::Throttled,
            _ => ClientError::Proto(ProtoError("unexpected response variant")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::KvServerConfig;
    use netsim::{Fabric, NetConfig};
    use simkit::{dur, FaultEvent, FaultPlan, Sim};

    struct Cluster {
        sim: Sim,
        stack: Rc<RdmaStack>,
        servers: Vec<Rc<KvServer>>,
    }

    fn cluster(n_servers: usize, n_clients: usize) -> Cluster {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), n_servers + n_clients, NetConfig::default());
        let stack = RdmaStack::new(fabric);
        let servers: Vec<_> = (0..n_servers)
            .map(|i| {
                KvServer::new(
                    Rc::clone(&stack),
                    NodeId(i as u32),
                    KvServerConfig::default(),
                )
            })
            .collect();
        Cluster {
            sim,
            stack,
            servers,
        }
    }

    fn client(c: &Cluster, node: u32) -> Rc<KvClient> {
        KvClient::new(
            Rc::clone(&c.stack),
            NodeId(node),
            c.servers.clone(),
            KvClientConfig::default(),
        )
    }

    #[test]
    fn set_get_small_value_inline() {
        let c = cluster(2, 1);
        let cl = client(&c, 2);
        c.sim.block_on(async move {
            cl.set(b"k1", Bytes::from_static(b"small"), 9, 0)
                .await
                .unwrap();
            let v = cl.get(b"k1").await.unwrap().unwrap();
            assert_eq!(&v.data[..], b"small");
            assert_eq!(v.flags, 9);
        });
    }

    #[test]
    fn set_get_large_value_one_sided() {
        let c = cluster(2, 1);
        let cl = client(&c, 2);
        let payload: Vec<u8> = (0..512 << 10).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        c.sim.block_on(async move {
            cl.set(b"big", Bytes::from(payload), 0, 0).await.unwrap();
            let v = cl.get(b"big").await.unwrap().unwrap();
            assert_eq!(v.data.len(), expect.len());
            assert_eq!(&v.data[..], &expect[..]);
        });
    }

    #[test]
    fn get_miss_returns_none() {
        let c = cluster(1, 1);
        let cl = client(&c, 1);
        c.sim.block_on(async move {
            assert!(cl.get(b"missing").await.unwrap().is_none());
        });
        let cl2 = client(&c, 1);
        drop(cl2);
    }

    #[test]
    fn keys_spread_across_servers() {
        let c = cluster(4, 1);
        let cl = client(&c, 4);
        let sim = c.sim.clone();
        sim.block_on({
            let cl = Rc::clone(&cl);
            async move {
                for i in 0..200 {
                    let k = format!("blk_{i}_0");
                    cl.set(k.as_bytes(), Bytes::from(vec![1u8; 64]), 0, 0)
                        .await
                        .unwrap();
                }
            }
        });
        let counts: Vec<u64> = c.servers.iter().map(|s| s.store().stats().items).collect();
        assert_eq!(counts.iter().sum::<u64>(), 200);
        for (i, cnt) in counts.iter().enumerate() {
            assert!(*cnt > 10, "server {i} got only {cnt} of 200 keys");
        }
    }

    #[test]
    fn delete_through_the_wire() {
        let c = cluster(2, 1);
        let cl = client(&c, 2);
        c.sim.block_on(async move {
            cl.set(b"k", Bytes::from_static(b"v1"), 0, 0).await.unwrap();
            assert!(cl.delete(b"k").await.unwrap());
            assert!(!cl.delete(b"k").await.unwrap());
        });
    }

    #[test]
    fn rdma_get_faster_than_ipoib_get() {
        // same protocol, two transports: verbs vs ipoib
        fn run(profile: netsim::TransportProfile) -> f64 {
            let sim = Sim::new();
            let fabric = Fabric::new(sim.clone(), 2, NetConfig::default());
            let stack = RdmaStack::with_profile(fabric, profile);
            let server = KvServer::new(Rc::clone(&stack), NodeId(0), KvServerConfig::default());
            let cl = KvClient::new(
                Rc::clone(&stack),
                NodeId(1),
                vec![server],
                KvClientConfig::default(),
            );
            let s = sim.clone();
            sim.block_on(async move {
                cl.set(b"k", Bytes::from(vec![7u8; 4096]), 0, 0)
                    .await
                    .unwrap();
                let t0 = s.now();
                for _ in 0..50 {
                    cl.get(b"k").await.unwrap().unwrap();
                }
                (s.now() - t0).as_secs_f64() / 50.0
            })
        }
        let verbs = run(netsim::TransportProfile::verbs_qdr());
        let ipoib = run(netsim::TransportProfile::ipoib_qdr());
        assert!(
            ipoib / verbs > 3.0,
            "expected big RDMA advantage: verbs {verbs:.2e}s vs ipoib {ipoib:.2e}s"
        );
    }

    /// Pins the host cost of one warm 128 B get round trip on the engine
    /// server (4 cores, CQ batch 16): the task polls it takes, every task
    /// counted. A change that adds polls on this path fails here and must
    /// re-pin with its reason.
    #[test]
    fn engine_get_round_trip_costs_pinned_polls() {
        let sim = Sim::new();
        let stack = RdmaStack::new(Fabric::new(sim.clone(), 2, NetConfig::default()));
        let engine = KvServerConfig {
            cores: 4,
            cq_batch: 16,
            ..KvServerConfig::default()
        };
        let server = KvServer::new(Rc::clone(&stack), NodeId(0), engine);
        let cl = KvClient::new(stack, NodeId(1), vec![server], KvClientConfig::default());
        let s = sim.clone();
        let polls = sim.block_on(async move {
            cl.set(b"k", Bytes::from(vec![5u8; 128]), 0, 0)
                .await
                .unwrap();
            cl.get(b"k").await.unwrap().unwrap();
            let before = s.events_processed();
            cl.get(b"k").await.unwrap().unwrap();
            s.events_processed() - before
        });
        assert_eq!(polls, 12);
    }

    #[test]
    fn server_death_surfaces_error_and_reconnect_after_recovery() {
        let c = cluster(1, 1);
        let cl = client(&c, 1);
        let fabric = Rc::clone(c.stack.fabric());
        let sim = c.sim.clone();
        sim.block_on({
            let cl = Rc::clone(&cl);
            async move {
                cl.set(b"k", Bytes::from_static(b"v"), 0, 0).await.unwrap();
                fabric.set_up(NodeId(0), false);
                assert!(cl.get(b"k").await.is_err());
                fabric.set_up(NodeId(0), true);
                // reconnects transparently; data survived (same process)
                let v = cl.get(b"k").await.unwrap().unwrap();
                assert_eq!(&v.data[..], b"v");
            }
        });
    }

    #[test]
    fn stats_flow_back() {
        let c = cluster(2, 1);
        let cl = client(&c, 2);
        let cl2 = Rc::clone(&cl);
        c.sim.block_on(async move {
            cl2.set(b"x", Bytes::from_static(b"1"), 0, 0).await.unwrap();
            cl2.get(b"x").await.unwrap();
        });
        let total = |f: fn(&crate::KvStats) -> u64| -> u64 {
            c.servers.iter().map(|s| f(&s.store().stats())).sum()
        };
        assert_eq!(total(|s| s.sets), 1);
        assert_eq!(total(|s| s.gets), 1);
        assert_eq!(total(|s| s.hits), 1);
    }

    #[test]
    fn multi_get_spans_servers_and_preserves_order() {
        let c = cluster(4, 1);
        let cl = client(&c, 4);
        let s = c.sim.clone();
        c.sim.block_on(async move {
            for i in 0..40 {
                let k = format!("mk{i}");
                cl.set(k.as_bytes(), Bytes::from(vec![i as u8; 100]), i, 0)
                    .await
                    .unwrap();
            }
            let keys: Vec<String> = (0..50).map(|i| format!("mk{i}")).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
            let t0 = s.now();
            let got = cl.multi_get(&refs).await.unwrap();
            let batched = (s.now() - t0).as_secs_f64();
            assert_eq!(got.len(), 50);
            for (i, v) in got.iter().enumerate() {
                if i < 40 {
                    let v = v.as_ref().expect("stored key missing");
                    assert_eq!(v.data[0], i as u8);
                    assert_eq!(v.flags, i as u32);
                } else {
                    assert!(v.is_none(), "key {i} should miss");
                }
            }
            // batching beats 50 sequential gets (4 round trips, not 50)
            let t1 = s.now();
            for k in &refs {
                cl.get(k).await.unwrap();
            }
            let sequential = (s.now() - t1).as_secs_f64();
            assert!(
                batched < sequential / 3.0,
                "multi_get ({batched:.2e}s) should be far cheaper than {sequential:.2e}s"
            );
        });
    }

    fn client_with(c: &Cluster, node: u32, config: KvClientConfig) -> Rc<KvClient> {
        KvClient::new(Rc::clone(&c.stack), NodeId(node), c.servers.clone(), config)
    }

    #[test]
    fn replicas_are_distinct_and_lead_with_primary() {
        let c = cluster(4, 1);
        let cl = client_with(
            &c,
            4,
            KvClientConfig {
                replication: 3,
                ..KvClientConfig::default()
            },
        );
        for i in 0..100 {
            let k = format!("key-{i}");
            let reps = cl.replicas(k.as_bytes()).unwrap();
            assert_eq!(reps.len(), 3);
            assert_eq!(reps[0], cl.route(k.as_bytes()).unwrap());
            let mut uniq = reps.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replicas must land on distinct servers");
        }
    }

    #[test]
    fn replicated_set_lands_on_all_replicas() {
        let c = cluster(3, 1);
        let cl = client_with(
            &c,
            3,
            KvClientConfig {
                replication: 2,
                ..KvClientConfig::default()
            },
        );
        let cl2 = Rc::clone(&cl);
        c.sim.block_on(async move {
            for i in 0..30 {
                let k = format!("rk{i}");
                cl2.set(k.as_bytes(), Bytes::from(vec![i as u8; 64]), 0, 0)
                    .await
                    .unwrap();
            }
        });
        let total: u64 = c.servers.iter().map(|s| s.store().stats().items).sum();
        assert_eq!(total, 60, "every key must be stored twice");
    }

    #[test]
    fn reads_survive_single_server_crash_with_r2() {
        let c = cluster(3, 1);
        let cl = client_with(
            &c,
            3,
            KvClientConfig {
                replication: 2,
                ..KvClientConfig::default()
            },
        );
        let fabric = Rc::clone(c.stack.fabric());
        let servers = c.servers.clone();
        let sim = c.sim.clone();
        sim.block_on(async move {
            for i in 0..40 {
                let k = format!("fk{i}");
                cl.set(k.as_bytes(), Bytes::from(vec![i as u8; 128]), 0, 0)
                    .await
                    .unwrap();
            }
            // crash server 0 (primary for most of these keys): port down
            // AND volatile contents lost
            fabric.set_up(NodeId(0), false);
            servers[0].store().clear();
            for i in 0..40 {
                let k = format!("fk{i}");
                let v = cl
                    .get(k.as_bytes())
                    .await
                    .unwrap()
                    .expect("r=2 must serve every read through a single crash");
                assert_eq!(v.data[0], i as u8);
            }
            // bring it back empty (restart): reads must STILL find every
            // value via the surviving replica rather than trust the
            // restarted server's miss
            fabric.set_up(NodeId(0), true);
            for i in 0..40 {
                let k = format!("fk{i}");
                assert!(cl.get(k.as_bytes()).await.unwrap().is_some());
            }
        });
        let snap = c.sim.metrics().snapshot();
        assert!(
            snap.counter("kv.failover.reads") > 0,
            "some reads must have failed over; snapshot: {}",
            snap.to_json()
        );
    }

    #[test]
    fn retry_exhaustion_is_counted_and_deterministic() {
        let run = || {
            let c = cluster(1, 1);
            let cl = client(&c, 1);
            let fabric = Rc::clone(c.stack.fabric());
            let sim = c.sim.clone();
            let end = c.sim.block_on(async move {
                fabric.set_up(NodeId(0), false);
                let err = cl.get(b"k").await.unwrap_err();
                assert!(matches!(err, ClientError::Rdma(_)));
                sim.now()
            });
            let snap = c.sim.metrics().snapshot();
            (
                end,
                snap.counter("kv.retry.attempts"),
                snap.counter("kv.retry.exhausted"),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "retry timing/counters must be reproducible");
        assert_eq!(a.1, u64::from(MAX_RETRIES), "every backoff retry is spent");
        assert_eq!(a.2, 1);
        assert!(
            a.0 > simkit::Time::ZERO,
            "backoff must consume virtual time"
        );
    }

    /// Hold every `src → dst` transfer that starts inside
    /// `[from_ms, until_ms)` for an extra 3 s (the delay is sampled when a
    /// transfer starts, so one already under way keeps it).
    fn delay_edge(c: &Cluster, src: Option<u32>, dst: Option<u32>, from_ms: u64, until_ms: u64) {
        let extra = dur::secs(3);
        c.sim.install_faults(
            FaultPlan::new(1)
                .at(dur::ms(from_ms), FaultEvent::Delay { src, dst, extra })
                .at(dur::ms(until_ms), FaultEvent::ClearEdges),
        );
    }

    #[test]
    fn timeout_while_reconnecting_spares_another_tasks_connection() {
        let c = cluster(1, 1);
        let cl = client(&c, 1);
        delay_edge(&c, Some(1), Some(0), 10, 110);
        let sim = c.sim.clone();
        let server = Rc::clone(&c.servers[0]);
        c.sim.block_on(async move {
            cl.set(b"k", Bytes::from_static(b"v"), 0, 0).await.unwrap();
            // the first connection breaks under the client
            cl.conns.borrow()[&0].qp.disconnect();
            sim.sleep(dur::ms(20)).await;
            // X reconnects under the delay: its first CM message alone
            // outlasts the deadline, so it times out with nothing sent
            let x = sim.spawn({
                let cl = Rc::clone(&cl);
                async move { cl.get(b"k").await }
            });
            sim.sleep(dur::ms(200)).await;
            // the edge is clear again: Y connects and completes an op
            assert!(cl.get(b"k").await.unwrap().is_some());
            let ys = Rc::clone(&cl.conns.borrow()[&0]);
            assert_eq!(server.connections(), 2);
            // X's deadline passes and its retry is served on Y's connection
            assert!(x.await.unwrap().is_some());
            let snap = sim.metrics().snapshot();
            assert_eq!(snap.counter("kv.retry.timeouts"), 1);
            let cached = Rc::clone(&cl.conns.borrow()[&0]);
            assert!(Rc::ptr_eq(&cached, &ys), "Y's connection was evicted");
            assert!(!cached.poisoned.get(), "nothing was sent on it by X");
            cl.get(b"k").await.unwrap();
            assert_eq!(server.connections(), 2, "no third connect");
        });
    }

    #[test]
    fn multi_get_leg_behind_a_timed_out_op_reconnects_instead_of_reading_its_frame() {
        let c = cluster(1, 1);
        let cl = client(&c, 1);
        // only the response to the `get` below is held back
        delay_edge(&c, Some(0), Some(1), 10, 30);
        let sim = c.sim.clone();
        let server = Rc::clone(&c.servers[0]);
        c.sim.block_on(async move {
            cl.set(b"x", Bytes::from_static(b"X"), 0, 0).await.unwrap();
            cl.set(b"y", Bytes::from_static(b"Y"), 0, 0).await.unwrap();
            sim.sleep(dur::ms(20)).await;
            // times out mid-exchange; its answer lands 3 s late
            let slow = sim.spawn({
                let cl = Rc::clone(&cl);
                async move { cl.get(b"absent").await }
            });
            sim.sleep(dur::ms(20)).await;
            // two legs queue on the same connection behind it
            let legs: Vec<_> = [b"x", b"y"]
                .into_iter()
                .map(|k| {
                    let cl = Rc::clone(&cl);
                    sim.spawn(async move { cl.multi_get(&[k.as_slice()]).await })
                })
                .collect();
            for leg in legs {
                // at the parent the first leg read the get's late frame
                // and the second was handed the first leg's value
                assert_eq!(
                    leg.await.unwrap_err(),
                    ClientError::Rdma(RdmaError::Disconnected)
                );
            }
            assert_eq!(slow.await.unwrap(), None);
            let got = cl.multi_get(&[b"y".as_slice()]).await.unwrap();
            assert_eq!(&got[0].as_ref().unwrap().data[..], b"Y");
            assert_eq!(server.connections(), 2, "one reconnect, shared");
        });
    }

    #[test]
    fn multi_get_leg_is_bounded_by_the_op_deadline() {
        let c = cluster(2, 1);
        let r1 = client(&c, 2);
        let r2 = client_with(
            &c,
            2,
            KvClientConfig {
                replication: 2,
                ..KvClientConfig::default()
            },
        );
        let primary = c.servers[r1.route(b"k").unwrap()].node().0;
        delay_edge(&c, None, Some(primary), 10, 60_000);
        let sim = c.sim.clone();
        c.sim.block_on(async move {
            r2.set(b"k", Bytes::from_static(b"v"), 0, 0).await.unwrap();
            sim.sleep(dur::ms(20)).await;
            // at the parent the leg sat out the delayed transfers and
            // answered after 3 s
            let t0 = sim.now();
            let err = r1.multi_get(&[b"k".as_slice()]).await.unwrap_err();
            assert_eq!(err, ClientError::Timeout);
            assert_eq!(sim.now() - t0, OP_TIMEOUT);
            // with a second replica the timed-out batch falls back to
            // per-key failover reads
            let got = r2.multi_get(&[b"k".as_slice()]).await.unwrap();
            assert_eq!(&got[0].as_ref().unwrap().data[..], b"v");
            let snap = sim.metrics().snapshot();
            assert_eq!(snap.counter("kv.failover.reads"), 1);
        });
    }

    #[test]
    fn digest_verification_rejects_mismatch_accepts_good() {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), 2, NetConfig::default());
        let stack = RdmaStack::new(fabric);
        let server = KvServer::new(
            Rc::clone(&stack),
            NodeId(0),
            KvServerConfig {
                verify_set_crc: true,
                ..KvServerConfig::default()
            },
        );
        let cl = KvClient::new(
            Rc::clone(&stack),
            NodeId(1),
            vec![server],
            KvClientConfig::default(),
        );
        sim.block_on(async move {
            let data = Bytes::from(vec![1u8; 100]);
            let good = crate::checksum::crc32c_pair(b"k", &data);
            cl.set(b"k", data.clone(), good, 0).await.unwrap();
            assert_eq!(&cl.get(b"k").await.unwrap().unwrap().data[..], &data[..]);
            // a digest that doesn't match the payload is rejected, and the
            // bounded re-send loop eventually surfaces TransferFailed
            let err = cl.set(b"k2", data, good ^ 1, 0).await.unwrap_err();
            assert_eq!(err, ClientError::TransferFailed);
            assert!(cl.get(b"k2").await.unwrap().is_none());
        });
    }

    /// A multi-GET reply carries each hit as its own gather element, so a
    /// reader decodes the server's stored handle itself, not a copy.
    #[test]
    fn multi_get_values_are_the_servers_stored_handles() {
        let c = cluster(2, 1);
        let cl = client(&c, 2);
        let (sim, servers) = (c.sim.clone(), c.servers.clone());
        c.sim.block_on(async move {
            let keys: Vec<Vec<u8>> = (0..8).map(|i| format!("f1:{i}").into_bytes()).collect();
            for (i, key) in keys.iter().enumerate() {
                let value = Bytes::from(vec![i as u8; 512 << 10]);
                cl.set(key, value, 0, 0).await.unwrap();
            }
            let mut asked: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            asked.insert(3, b"f1:absent");
            let got = cl.multi_get(&asked).await.unwrap();
            assert!(got[3].is_none());
            let now = sim.now().as_nanos();
            for (key, v) in asked.iter().zip(&got).filter(|(k, _)| **k != b"f1:absent") {
                let server = &servers[cl.route(key).unwrap()];
                let (stored, _) = server.store().peek(key, now).unwrap();
                let data = &v.as_ref().unwrap().data;
                assert_eq!(data.as_ptr(), stored.data.as_ptr(), "{key:?} was copied");
                assert_eq!(data.len(), stored.data.len());
            }
        });
    }

    /// Registered regions carry handles, so the writer's `Bytes`, both
    /// replicas' stored values and the staging buffer are one allocation,
    /// and a multi-GET reply carries the stored handle back out. A byte
    /// flipped in transit — on one replica's RDMA READ, or on a batched
    /// read's reply — must damage that receiver's copy and nothing else
    /// (the flip is copy-then-flip, never in place).
    #[test]
    fn transit_corruption_on_one_replicas_read_touches_no_other_holder() {
        for verify_set_crc in [false, true] {
            let sim = Sim::new();
            let fabric = Fabric::new(sim.clone(), 3, NetConfig::default());
            let stack = RdmaStack::new(fabric);
            let servers: Vec<_> = (0..2)
                .map(|i| {
                    KvServer::new(
                        Rc::clone(&stack),
                        NodeId(i),
                        KvServerConfig {
                            verify_set_crc,
                            ..KvServerConfig::default()
                        },
                    )
                })
                .collect();
            let cl = KvClient::new(
                Rc::clone(&stack),
                NodeId(2),
                servers.clone(),
                KvClientConfig {
                    replication: 2,
                    ..KvClientConfig::default()
                },
            );
            let key = b"f1:0";
            let original: Vec<u8> = (0..512usize << 10).map(|i| (i * 31 + 7) as u8).collect();
            let hit = cl.replicas(key).unwrap()[0];
            let s = sim.clone();
            sim.block_on(async move {
                // connections first: the set below is frames and READs only
                for server in 0..2 {
                    assert!(cl.get_from(server, key).await.unwrap().is_none());
                }
                // arm the edge once the first replica has posted its READ
                // (the request frame is through), disarm once it has fired
                // (before the client sends anything else that way)
                let reads = s.metrics().counter("rdma.read_posts");
                let flipped = s.metrics().counter("rdma.corrupted");
                let watcher = s.spawn({
                    let s = s.clone();
                    let (reads, flipped) = (reads.clone(), flipped.clone());
                    async move {
                        while reads.get() == 0 {
                            s.sleep(dur::ns(100)).await;
                        }
                        s.install_faults(FaultPlan::new(7).at(
                            dur::ns(0),
                            FaultEvent::CorruptTransfer {
                                src: Some(2),
                                dst: Some(hit as u32),
                                p: 1.0,
                            },
                        ));
                        while flipped.get() == 0 {
                            s.sleep(dur::ns(100)).await;
                        }
                        s.install_faults(FaultPlan::new(7));
                    }
                });
                let value = Bytes::from(original.clone());
                // digested through the memo, as the burst buffer seals: the
                // clean replica's SET verify is a hit, the flipped copy a
                // new allocation that must still be read and refused
                let digest = crate::checksum::crc32c_pair_bytes(key, &value);
                let before = simkit::crc32c::traversed();
                assert_eq!(crate::checksum::crc32c_pair_bytes(key, &value), digest);
                assert_eq!(simkit::crc32c::traversed() - before, key.len() as u64);
                cl.set(key, value.clone(), digest, 0).await.unwrap();
                watcher.await;
                assert_eq!(flipped.get(), 1);
                assert_eq!(value, original, "the writer's handle");
                let on_hit = cl.get_from(hit, key).await.unwrap().unwrap().data;
                let on_other = cl.get_from(1 - hit, key).await.unwrap().unwrap().data;
                assert_eq!(on_other, original, "the replica off the faulty edge");
                let damaged = on_hit.iter().zip(&original).filter(|(a, b)| a != b).count();
                if verify_set_crc {
                    // refused with BadDigest, re-sent clean from the same buffer
                    assert_eq!(s.metrics().snapshot().counter("kv.retry.attempts"), 1);
                    assert_eq!(damaged, 0);
                } else {
                    assert_eq!(damaged, 1, "the hit server stores what it pulled");
                }
                // the batched path: the leg's reply carries the hit server's
                // stored handle as its own element, and the flip on the way
                // back must copy it, not write through it
                let (stored, _) = servers[hit].store().peek(key, s.now().as_nanos()).unwrap();
                let kept = stored.data.to_vec();
                s.install_faults(FaultPlan::new(7).at(
                    dur::ns(0),
                    FaultEvent::CorruptTransfer {
                        src: Some(hit as u32),
                        dst: Some(2),
                        p: 1.0,
                    },
                ));
                s.sleep(dur::ns(1)).await;
                let got = cl.multi_get(&[key.as_slice()]).await.unwrap();
                s.install_faults(FaultPlan::new(7));
                assert_eq!(flipped.get(), 2);
                let read = &got[0].as_ref().unwrap().data;
                let diff = read.iter().zip(&kept).filter(|(a, b)| a != b).count();
                assert_eq!(diff, 1, "one byte, for this reader only");
                assert_eq!(stored.data, kept, "the server's stored handle");
                let again = cl.get_from(hit, key).await.unwrap().unwrap().data;
                assert_eq!(again, kept, "the next reader");
                assert_eq!(value, original, "the writer's handle");
            });
        }
    }

    #[test]
    fn pin_protocol_round_trips() {
        let c = cluster(2, 1);
        let cl = client(&c, 2);
        c.sim.block_on(async move {
            cl.set(b"pk", Bytes::from_static(b"v"), 0, 0).await.unwrap();
            assert!(cl.pin(b"pk").await.unwrap(), "live key must pin");
            assert!(!cl.pin(b"absent").await.unwrap(), "missing key can't pin");
            cl.unpin(b"pk").await;
            cl.unpin(b"absent").await; // best-effort, no panic
        });
    }

    #[test]
    fn replication_cap_follows_live_membership() {
        // r=2 asked for with only one active server: the live view caps at
        // 1, and the cap grows (not stays frozen) when a server joins
        let c = cluster(2, 1);
        let view = crate::Membership::new(vec![Rc::clone(&c.servers[0])]);
        let cl = KvClient::with_view(
            Rc::clone(&c.stack),
            NodeId(2),
            Rc::clone(&view),
            KvClientConfig {
                replication: 2,
                ..KvClientConfig::default()
            },
        );
        assert_eq!(cl.replicas(b"k").unwrap().len(), 1);
        view.add_server(Rc::clone(&c.servers[1]));
        assert_eq!(cl.replicas(b"k").unwrap().len(), 2);
        let cl2 = Rc::clone(&cl);
        c.sim.block_on(async move {
            cl2.set(b"k", Bytes::from_static(b"v"), 0, 0).await.unwrap();
        });
        let total: u64 = c.servers.iter().map(|s| s.store().stats().items).sum();
        assert_eq!(total, 2, "post-join set must land on both servers");
    }

    #[test]
    fn reads_after_join_fall_back_to_old_owners() {
        let c = cluster(3, 1);
        let view = crate::Membership::new(c.servers[..2].to_vec());
        let cl = KvClient::with_view(
            Rc::clone(&c.stack),
            NodeId(3),
            Rc::clone(&view),
            KvClientConfig::default(),
        );
        let sim = c.sim.clone();
        sim.block_on(async move {
            for i in 0..30 {
                let k = format!("jk{i}");
                cl.set(k.as_bytes(), Bytes::from(vec![i as u8; 64]), 0, 0)
                    .await
                    .unwrap();
            }
            view.add_server(Rc::clone(&c.servers[2]));
            assert_eq!(view.epoch(), 1);
            // un-migrated keys now route to the joiner (empty), but the
            // definitive-miss fallback widens to the old owners
            for i in 0..30 {
                let k = format!("jk{i}");
                let v = cl
                    .get(k.as_bytes())
                    .await
                    .unwrap()
                    .expect("old-ring copies must stay readable after a join");
                assert_eq!(v.data[0], i as u8);
            }
            let snap = c.sim.metrics().snapshot();
            assert!(
                snap.counter("kv.epoch.fallback_reads") > 0,
                "some keys must have remapped to the joiner"
            );
        });
    }

    #[test]
    fn drained_server_gets_no_new_writes_but_old_data_stays_readable() {
        let c = cluster(3, 1);
        let view = crate::Membership::new(c.servers.clone());
        let cl = KvClient::with_view(
            Rc::clone(&c.stack),
            NodeId(3),
            Rc::clone(&view),
            KvClientConfig::default(),
        );
        let servers = c.servers.clone();
        c.sim.block_on(async move {
            for i in 0..30 {
                let k = format!("dk{i}");
                cl.set(k.as_bytes(), Bytes::from(vec![i as u8; 64]), 0, 0)
                    .await
                    .unwrap();
            }
            let drained = servers[1].node();
            assert!(view.drain_server(drained));
            let before = servers[1].store().stats().items;
            for i in 30..60 {
                let k = format!("dk{i}");
                assert_ne!(cl.route(k.as_bytes()).unwrap(), 1, "drained owns nothing");
                cl.set(k.as_bytes(), Bytes::from(vec![i as u8; 64]), 0, 0)
                    .await
                    .unwrap();
            }
            assert_eq!(
                servers[1].store().stats().items,
                before,
                "no new writes may land on a drained server"
            );
            for i in 0..60 {
                let k = format!("dk{i}");
                assert!(cl.get(k.as_bytes()).await.unwrap().is_some());
            }
        });
    }

    #[test]
    fn concurrent_ops_from_many_clients() {
        let c = cluster(4, 8);
        let sim = c.sim.clone();
        let mut handles = Vec::new();
        for cn in 0..8u32 {
            let cl = client(&c, 4 + cn);
            handles.push(sim.spawn(async move {
                for i in 0..25 {
                    let k = format!("c{cn}-k{i}");
                    cl.set(k.as_bytes(), Bytes::from(vec![cn as u8; 1000]), 0, 0)
                        .await
                        .unwrap();
                }
                for i in 0..25 {
                    let k = format!("c{cn}-k{i}");
                    let v = cl.get(k.as_bytes()).await.unwrap().unwrap();
                    assert_eq!(v.data.len(), 1000);
                    assert_eq!(v.data[0], cn as u8);
                }
            }));
        }
        sim.run();
        for h in handles {
            assert!(h.is_finished());
        }
        let total: u64 = c.servers.iter().map(|s| s.store().stats().items).sum();
        assert_eq!(total, 200);
    }
}
