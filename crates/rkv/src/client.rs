//! The KV client: ketama routing across servers, cached connections, a
//! pool of pre-registered buffers, and the hybrid payload protocol.
//!
//! * values ≤ [`INLINE_MAX`] travel inline in the SEND frame;
//! * larger SET payloads are staged in a pooled registered buffer and the
//!   server RDMA-READs them (one round trip, zero-copy);
//! * GETs hand the server a pooled buffer to RDMA-WRITE large values into.
//!
//! ## One server per verb
//!
//! As in RDMA-Memcached, a client addresses one server per key: `set` and
//! `get` go to the key's owner on the live ring ([`KvClient::route`]),
//! `multi_get` sends one batch per owner and answers each key on its own,
//! and the `*_to` / `*_from` / `*_on` verbs name their servers. Which
//! servers hold a key's replicas, and in what order a read walks them, is
//! the caller's decision (the burst buffer's `integrity` module).
//!
//! Every exchange — a `multi_get` fan-out leg included — is one attempt
//! bounded by [`OP_TIMEOUT`]; every verb but the leg retries it up to
//! [`MAX_RETRIES`] times with exponential backoff.
//! Backoff jitter is drawn from a [`SimRng`] seeded by the client's node id
//! — never from wall clock — so runs are reproducible. Retries are counted
//! in the `kv.retry.*` metric family (shared across all clients on one
//! simulation).
//!
//! Routing consults a shared [`Membership`] view on every operation, so
//! servers can join or drain mid-run and the next verb routes on the new
//! ring.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use simkit::fxhash::FxHashMap;
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
/// Retries per exchange after the first attempt (transport errors and
/// timeouts only — store-level errors are never retried).
pub const MAX_RETRIES: u32 = 3;
/// First backoff delay; doubles per retry.
pub const BACKOFF_BASE: Duration = Duration::from_micros(100);
/// Backoff ceiling.
pub const BACKOFF_MAX: Duration = Duration::from_millis(5);
/// Largest payload carried inline in a SEND frame when the client moves
/// payloads one-sided.
pub const INLINE_MAX: usize = 8 << 10;
/// Registered buffers in the pool.
const POOL_BUFS: usize = 4;
/// Size of each pooled buffer; also the largest one-sided payload.
const BUF_SIZE: u64 = 1 << 20;

/// Client tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct KvClientConfig {
    /// Move payloads over [`INLINE_MAX`] one-sided: a SET stages its value
    /// in a pooled registered buffer for the server to RDMA-READ, a GET
    /// hands the server one to RDMA-WRITE into. `false` is the SEND-only
    /// protocol: every value travels inline.
    pub one_sided: bool,
    /// Tenant tag carried on every traced op (0 = untagged). Only
    /// consumed by the request tracer — per-tenant latency series appear
    /// under `rkv.lat.{class}.tenant{T}.e2e` when tracing is enabled.
    pub tenant: u32,
}

impl Default for KvClientConfig {
    fn default() -> Self {
        KvClientConfig {
            one_sided: true,
            tenant: 0,
        }
    }
}

struct BufPool {
    stack: Rc<RdmaStack>,
    node: NodeId,
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
                    self.stack.register(self.node, BUF_SIZE).await
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
    conns: RefCell<FxHashMap<usize, Rc<Conn>>>,
    pool: Rc<BufPool>,
    jitter: SimRng,
    res: ResCounters,
    observer: RefCell<Option<ObserverFn>>,
}

/// A test-only per-operation history observer ([`KvClient::set_observer`]).
pub type ObserverFn = Rc<dyn Fn(OpRecord)>;

/// One logical, client-visible KV operation, as delivered to the
/// test-only history observer ([`KvClient::set_observer`]): a single
/// record per `set`/`set_to`/`get`/`delete_on` call, emitted after
/// retries have resolved. Value identity is carried as an
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
    /// have taken effect on some server — checkers must treat its
    /// write as indeterminate (allowed but not required to be visible).
    pub ok: bool,
}

/// What an observed operation did. Hashes are FNV-1a over value bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A store of a value with this hash.
    Set {
        /// FNV-1a hash of the stored bytes.
        hash: u64,
    },
    /// A read; `None` means a miss.
    Get {
        /// FNV-1a hash of the returned bytes, if any.
        hash: Option<u64>,
    },
    /// A delete from a set of servers.
    Delete {
        /// Whether any of them held the key.
        found: bool,
    },
}

/// `kv.retry.*` counters (get-or-create: every client on one simulation
/// bumps the same instances).
struct ResCounters {
    retry_attempts: Counter,
    retry_timeouts: Counter,
    retry_exhausted: Counter,
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
        };
        Rc::new(KvClient {
            node,
            stack: Rc::clone(&stack),
            config,
            view,
            conns: RefCell::new(FxHashMap::default()),
            pool: Rc::new(BufPool {
                stack,
                node,
                free: RefCell::new(Vec::new()),
                created: Cell::new(0),
                gate: Semaphore::new(POOL_BUFS),
            }),
            // backoff jitter: seeded by node id, never wall clock, so a
            // run is reproducible from (program, seeds) alone
            jitter: SimRng::seed_from(0x6b76_7274 ^ u64::from(node.0)),
            res,
            observer: RefCell::new(None),
        })
    }

    /// Install a test-only observer that receives one [`OpRecord`] per
    /// logical `set`/`set_to`/`get`/`delete_on` call on this client. Consistency
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

    async fn conn(&self, server_idx: usize) -> Result<Rc<Conn>, ClientError> {
        if let Some(c) = self.conns.borrow().get(&server_idx) {
            if c.qp.is_connected() {
                return Ok(Rc::clone(c));
            }
        }
        // boxed: every op's future would otherwise carry the rare
        // reconnect's state
        Box::pin(self.connect(server_idx)).await
    }

    /// Open a connection to `server_idx` and cache it.
    async fn connect(&self, server_idx: usize) -> Result<Rc<Conn>, ClientError> {
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
        self.config.one_sided && len > INLINE_MAX && (len as u64) <= BUF_SIZE
    }

    /// Stage a SET once: a payload over [`INLINE_MAX`] goes into a pooled
    /// registered buffer for the server to RDMA-READ, anything else rides
    /// inline. The buffer must be held until the exchange carrying the
    /// request has returned.
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

    /// Store `value` under `key` on its ring owner ([`KvClient::set_to`]
    /// at [`KvClient::route`]). Returns the server's CAS token.
    pub async fn set(
        &self,
        key: &[u8],
        value: Bytes,
        flags: u32,
        expire_at: u64,
    ) -> Result<u64, ClientError> {
        self.set_to(self.route(key)?, key, value, flags, expire_at)
            .await
    }

    /// Fetch `key` from one specific server, unobserved: the burst
    /// buffer's replica walk reads each copy through this.
    pub async fn get_from(
        &self,
        server_idx: usize,
        key: &[u8],
    ) -> Result<Option<Value>, ClientError> {
        // one-sided, hand the server a registered buffer to RDMA-WRITE a
        // large value into; SEND-only, every value comes back inline
        let buf = if self.config.one_sided {
            Some(self.pool.acquire().await)
        } else {
            None
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

    /// Fetch `key` from its ring owner. `Ok(None)` on a miss.
    pub async fn get(&self, key: &[u8]) -> Result<Option<Value>, ClientError> {
        let t0 = self.stack.sim().now();
        let result = match self.route(key) {
            Ok(idx) => self.get_from(idx, key).await,
            Err(e) => Err(e),
        };
        if self.observer.borrow().is_some() {
            let hash = match &result {
                Ok(v) => v.as_ref().map(|v| crate::hash::fnv1a(&v.data)),
                Err(_) => None,
            };
            self.observe(key, OpKind::Get { hash }, t0, result.is_ok());
        }
        result
    }

    /// Store `value` on one specific server, bypassing ring routing — every
    /// replica write of the burst buffer (quorum writes, repairs,
    /// migrations) addresses its servers this way. Observed as a logical
    /// set (per-server outcome) so history checkers can explain later
    /// reads of the value. Returns the server's CAS token.
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

    /// Remove `key` from one specific server, bypassing ring routing —
    /// the reconciler's delete of the copies left outside a chunk's new
    /// set once it has committed.
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

    /// Unpin `key` on each of `servers`, so the LRU may reclaim the item.
    /// A server without the key counts as done. Returns the servers that
    /// did not answer: they still hold the item pinned, which eviction
    /// never reclaims, so the caller owes them the unpin.
    pub async fn unpin_on(&self, servers: &[usize], key: &[u8]) -> Vec<usize> {
        let req = Request::Unpin {
            key: Bytes::copy_from_slice(key),
        };
        let mut missed = Vec::new();
        for &idx in servers {
            if self.keyed(idx, &req).await.is_err() {
                missed.push(idx);
            }
        }
        missed
    }

    /// Remove `key` from each of `servers`, observed as one logical
    /// delete; `Ok(true)` if any held it. An unreachable server keeps its
    /// copy (an unpinned one is reclaimed by expiry or eviction, a pinned
    /// one is not); the delete still succeeds if any answered.
    pub async fn delete_on(&self, servers: &[usize], key: &[u8]) -> Result<bool, ClientError> {
        let t0 = self.stack.sim().now();
        let req = Request::Delete {
            key: Bytes::copy_from_slice(key),
        };
        let mut existed = false;
        let mut first_err = None;
        let mut answered = false;
        for &idx in servers {
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
    /// servers queried concurrently. Answers come back one per key, in the
    /// order of `keys` (`Ok(None)` = miss); a leg that fails fails only
    /// the keys it carried.
    pub async fn multi_get(
        self: &Rc<Self>,
        keys: &[&[u8]],
    ) -> Vec<Result<Option<Value>, ClientError>> {
        let mut out = vec![Ok(None); keys.len()];
        // group by ring owner, preserving original positions
        let mut by_server: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pos, k) in keys.iter().enumerate() {
            match self.route(k) {
                Ok(idx) => by_server.entry(idx).or_default().push(pos),
                Err(e) => out[pos] = Err(e),
            }
        }
        let sim = self.stack.sim().clone();
        let legs: Vec<_> = by_server
            .into_iter()
            .map(|(idx, batch)| {
                let req = Request::MultiGet {
                    keys: batch
                        .iter()
                        .map(|&pos| Bytes::copy_from_slice(keys[pos]))
                        .collect(),
                };
                // each fan-out leg is one attempt — its own traced op, so
                // the join can attribute the dominant (slowest) leg — and
                // is not retried: what an unresolved key costs is the
                // caller's decision
                let client = Rc::clone(self);
                let task = sim.spawn(async move { client.attempt(idx, &req).await });
                (idx, batch, task)
            })
            .collect();
        // join in sorted-server order
        let mut finished: Vec<(usize, FinishedOp)> = Vec::new();
        for (idx, batch, task) in legs {
            let values = match task.await {
                Ok((Response::MultiValues { values }, op)) if values.len() == batch.len() => {
                    finished.extend(op.map(|f| (idx, f)));
                    Ok(values)
                }
                Ok((Response::MultiValues { .. }, _)) => {
                    Err(ClientError::Proto(ProtoError("multiget arity")))
                }
                Ok((other, _)) => Err(Self::unexpected(other)),
                Err(e) => Err(e),
            };
            match values {
                Ok(values) => {
                    for (pos, v) in batch.into_iter().zip(values) {
                        out[pos] = Ok(v.map(|(data, flags, cas)| Value { data, flags, cas }));
                    }
                }
                Err(e) => batch.into_iter().for_each(|pos| out[pos] = Err(e)),
            }
        }
        // client-side critical path: which server's leg bounded the join
        // (strict > over sorted-server order → ties go to the lower idx),
        // and which of its stages dominated
        if let Some((idx, f)) = finished
            .iter()
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
        out
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
    fn send_only_client_moves_large_values_inline() {
        let c = cluster(2, 1);
        let config = KvClientConfig {
            one_sided: false,
            ..KvClientConfig::default()
        };
        let cl = KvClient::new(Rc::clone(&c.stack), NodeId(2), c.servers.clone(), config);
        let payload: Vec<u8> = (0..512 << 10).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        c.sim.block_on(async move {
            cl.set(b"big", Bytes::from(payload), 0, 0).await.unwrap();
            let v = cl.get(b"big").await.unwrap().unwrap();
            assert_eq!(&v.data[..], &expect[..]);
            // a GET that names no landing buffer is answered in the SEND
            let req = Request::Get {
                key: Bytes::from_static(b"big"),
                dst: None,
            };
            match cl.exchange(cl.route(b"big").unwrap(), &req).await.unwrap() {
                Response::Value { data, .. } => assert_eq!(&data[..], &expect[..]),
                other => panic!("expected an inline value, got {other:?}"),
            }
        });
        let m = c.sim.metrics().snapshot();
        assert!(m.counter("rdma.send_posts") > 0);
        let one_sided = (m.counter("rdma.read_posts"), m.counter("rdma.write_posts"));
        assert_eq!(one_sided, (0, 0), "(SET READs, GET WRITEs) moved one-sided");
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
            let owner = [cl.route(b"k").unwrap()];
            assert!(cl.delete_on(&owner, b"k").await.unwrap());
            assert!(!cl.delete_on(&owner, b"k").await.unwrap());
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

    /// Pins the host memory of one in-flight op: every queued task that
    /// awaits a get or a set holds this future whole (`dfsio_write` keeps
    /// over a thousand alive). `race`/`timeout` hold their futures inline
    /// once and the reconnect path is boxed; an async combinator that
    /// stores its raced future twice put `get` at 2 552 B.
    #[test]
    fn op_futures_stay_small() {
        let c = cluster(1, 1);
        let cl = client(&c, 1);
        let get = std::mem::size_of_val(&cl.get(b"k"));
        let set = std::mem::size_of_val(&cl.set(b"k", Bytes::new(), 0, 0));
        println!("KvClient::get future {get} B, set future {set} B");
        assert!(get <= 1_536, "get future {get} B");
        assert!(set <= 1_536, "set future {set} B");
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
            let got = cl.multi_get(&refs).await;
            let batched = (s.now() - t0).as_secs_f64();
            assert_eq!(got.len(), 50);
            for (i, v) in got.iter().enumerate() {
                let v = v.as_ref().unwrap();
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
                // had a leg trusted the connection, the first would have
                // read the get's late frame and the second been handed
                // the first leg's value
                assert_eq!(
                    leg.await.pop().unwrap().unwrap_err(),
                    ClientError::Rdma(RdmaError::Disconnected)
                );
            }
            assert_eq!(slow.await.unwrap(), None);
            let got = cl.multi_get(&[b"y".as_slice()]).await.pop().unwrap();
            assert_eq!(&got.unwrap().unwrap().data[..], b"Y");
            assert_eq!(server.connections(), 2, "one reconnect, shared");
        });
    }

    #[test]
    fn multi_get_leg_is_bounded_by_the_op_deadline() {
        let c = cluster(2, 1);
        let cl = client(&c, 2);
        let primary = c.servers[cl.route(b"k").unwrap()].node().0;
        delay_edge(&c, None, Some(primary), 10, 60_000);
        let sim = c.sim.clone();
        c.sim.block_on(async move {
            cl.set(b"k", Bytes::from_static(b"v"), 0, 0).await.unwrap();
            sim.sleep(dur::ms(20)).await;
            // a leg that sat out the delayed transfers would answer
            // after 3 s
            let t0 = sim.now();
            let got = cl.multi_get(&[b"k".as_slice()]).await.pop().unwrap();
            assert_eq!(got.unwrap_err(), ClientError::Timeout);
            assert_eq!(sim.now() - t0, OP_TIMEOUT);
        });
    }

    /// A leg that fails fails only the keys it carried: with one server
    /// down, every key the other servers own still comes back.
    #[test]
    fn multi_get_fails_only_the_keys_of_a_failed_leg() {
        let c = cluster(3, 1);
        let cl = client(&c, 3);
        let fabric = Rc::clone(c.stack.fabric());
        c.sim.block_on(async move {
            let keys: Vec<String> = (0..30).map(|i| format!("lk{i}")).collect();
            for k in &keys {
                cl.set(k.as_bytes(), Bytes::from(k.clone()), 0, 0)
                    .await
                    .unwrap();
            }
            fabric.set_up(NodeId(0), false);
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
            let got = cl.multi_get(&refs).await;
            let mut down = 0;
            for (k, v) in refs.iter().zip(&got) {
                if cl.route(k).unwrap() == 0 {
                    down += 1;
                    assert!(matches!(v, Err(ClientError::Rdma(_))), "{v:?}");
                } else {
                    assert_eq!(&v.as_ref().unwrap().as_ref().unwrap().data[..], *k);
                }
            }
            assert!(
                0 < down && down < keys.len(),
                "{down} keys on the dead server"
            );
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
            let got = cl.multi_get(&asked).await;
            assert!(got[3].as_ref().unwrap().is_none());
            let now = sim.now().as_nanos();
            for (key, v) in asked.iter().zip(&got).filter(|(k, _)| **k != b"f1:absent") {
                let server = &servers[cl.route(key).unwrap()];
                let (stored, _) = server.store().peek(key, now).unwrap();
                let data = &v.as_ref().unwrap().as_ref().unwrap().data;
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
                KvClientConfig::default(),
            );
            let key = b"f1:0";
            let original: Vec<u8> = (0..512usize << 10).map(|i| (i * 31 + 7) as u8).collect();
            let hit = cl.route(key).unwrap();
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
                // both replicas, the faulty edge's first
                for server in [hit, 1 - hit] {
                    cl.set_to(server, key, value.clone(), digest, 0)
                        .await
                        .unwrap();
                }
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
                let got = cl.multi_get(&[key.as_slice()]).await.pop().unwrap();
                s.install_faults(FaultPlan::new(7));
                assert_eq!(flipped.get(), 2);
                let read = &got.unwrap().unwrap().data;
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
        let (owner, other) = (cl.route(b"pk").unwrap(), 1 - cl.route(b"pk").unwrap());
        let store = Rc::clone(c.servers[owner].store());
        let fabric = Rc::clone(c.stack.fabric());
        c.sim.block_on(async move {
            cl.set(b"pk", Bytes::from_static(b"v"), 0, 0).await.unwrap();
            assert!(cl.pin_to(owner, b"pk").await.unwrap(), "live key must pin");
            assert!(!cl.pin_to(other, b"pk").await.unwrap(), "no copy there");
            assert!(!cl.pin_to(owner, b"absent").await.unwrap(), "missing key");
            assert_eq!(store.stats().pinned_items, 1);
            // a server without the key answers, so nothing is owed
            assert!(cl.unpin_on(&[other, owner], b"pk").await.is_empty());
            assert!(cl.unpin_on(&[owner], b"absent").await.is_empty());
            assert_eq!(store.stats().pinned_items, 0);
            // a server that cannot be asked is owed the unpin
            assert!(cl.pin_to(owner, b"pk").await.unwrap());
            fabric.set_up(NodeId(other as u32), false);
            assert_eq!(cl.unpin_on(&[other, owner], b"pk").await, vec![other]);
            assert_eq!(store.stats().pinned_items, 0);
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
