//! The KV server process: accepts queue-pair connections and serves the
//! binary protocol against a sharded store, using one-sided RDMA for large
//! payloads (READ for SET, WRITE for GET).
//!
//! Two execution models share the wire protocol, one connection pump
//! (`serve_connection`), one front door (decode, tenant handshake,
//! admission) and one `execute` (charge `proc_time`, run the verb, record
//! service time); they differ only in *where* `execute` runs:
//!
//! * **Single-context** (default, `cores = 1` and `cq_batch = 1`): each
//!   connection's requests are processed inline in its own task —
//!   `recv → charge proc_time → store op → send` — exactly the seed
//!   behaviour.
//! * **Shard-per-core engine** (`cores > 1` or `cq_batch > 1`,
//!   Dragonfly/Garnet style): arriving frames from every connection land
//!   in one server-wide completion ring ([`rdmasim::Cq`]); a poller
//!   drains up to `cq_batch` completions per wakeup (io_uring idiom) and
//!   routes each request to the core that owns its key
//!   (`ShardedKv::shard_index` — the same hash the store stripes by, so
//!   every key is served by exactly one shard). Each modeled core charges
//!   its own `proc_time` serially, so per-server throughput scales
//!   near-linearly with `cores`. A `multi_get` is split into per-shard
//!   parts that pipeline within the batch window and are joined before
//!   replying. Responses are posted per connection in request order
//!   (memcached semantics).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use simkit::dur;
use simkit::fxhash::FxHashMap;
use simkit::sync::mpsc;
use simkit::telemetry::{Counter, Gauge, HistogramMetric, MetricValue};
use simkit::{OpId, Sim};

use netsim::NodeId;
use rdmasim::{Cq, Qp, QpConfig, RdmaError, RdmaStack};
use simkit::Gather;

use crate::hotness::FreqSketch;
use crate::proto::{Carrier, ProtoError, Request, Response, WireBuf};
use crate::sharded::ShardedKv;
use crate::slab::SlabConfig;
use crate::store::KvError;

/// Stripes in the store under the single-context model (the per-core
/// engine always runs one stripe per core).
const SHARDS: usize = 4;

/// Token-bucket depth per tenant when admission control is on
/// ([`KvServerConfig::tenant_rate`] > 0): the burst allowance, in ops.
const TENANT_BURST: f64 = 12.0;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct KvServerConfig {
    /// Modeled cores. 1 (default) keeps the single-context model; ≥ 2
    /// activates the shard-per-core engine.
    pub cores: usize,
    /// Max completions drained per poll of the server's completion ring.
    /// 1 (default) keeps the single-context model; ≥ 2 activates the
    /// engine even at `cores = 1` (batched draining, serialized core).
    pub cq_batch: usize,
    /// Slab/memory configuration (`mem_limit` is the `-m` budget).
    pub slab: SlabConfig,
    /// CPU time charged per request (parse + hash + store op).
    pub proc_time: Duration,
    /// Verify that store-family payloads match the CRC32C digest the
    /// client declared in `flags` (`crc32c(key || data)`), rejecting
    /// mismatches with [`Response::BadDigest`]. The burst buffer enables
    /// this so a transfer-corrupted chunk can never be stored as "good";
    /// off by default because generic KV users put arbitrary flags there.
    pub verify_set_crc: bool,
    /// Hot-key replica fan-out (engine model only): keys the per-shard
    /// frequency sketch flags hot get a server-side cached copy, and
    /// their reads are spread round-robin across `hot_replicas` extra
    /// cores beyond the home core. Any write to a hot key invalidates
    /// the copy at dispatch (the serial poller is the linearization
    /// point), so replica reads are never stale. 0 (default) disables
    /// detection and fan-out entirely.
    pub hot_replicas: usize,
    /// Ops per hot-key sketch window; counters halve at every roll and
    /// cooled-off hot entries are pruned.
    pub hot_window: usize,
    /// Windowed sketch estimate at which a key is promoted to hot.
    pub hot_min_count: u32,
    /// Per-tenant resident-byte floor as a fraction of each shard's
    /// memory budget: eviction pressure from *other* tenants cannot push
    /// a tenant's resident bytes below its floor. 0.0 (default) disables
    /// tenant budgeting.
    pub tenant_floor_frac: f64,
    /// Token-bucket admission: token refill per tenant in ops/sec.
    /// Requests arriving with an empty bucket are answered
    /// [`Response::Throttled`] without touching a core. 0.0 (default)
    /// disables admission control; tenant 0 (untenanted) is always
    /// exempt.
    pub tenant_rate: f64,
}

impl Default for KvServerConfig {
    fn default() -> Self {
        KvServerConfig {
            cores: 1,
            cq_batch: 1,
            slab: SlabConfig::default(),
            proc_time: dur::ns(1_500),
            verify_set_crc: false,
            hot_replicas: 0,
            hot_window: 4096,
            hot_min_count: 64,
            tenant_floor_frac: 0.0,
            tenant_rate: 0.0,
        }
    }
}

impl KvServerConfig {
    /// Whether this configuration runs the shard-per-core engine rather
    /// than the single-context model.
    pub fn engine_enabled(&self) -> bool {
        self.cores > 1 || self.cq_batch > 1
    }
}

/// One reply queued to a connection's replier: `(seq, frame, traced op)`.
type ReplyItem = (u64, Gather, Option<OpId>);

/// The right to answer one engine-model request: its place in the
/// connection's reply order, its traced op, and the way to the replier.
struct Ticket {
    seq: u64,
    op: Option<OpId>,
    reply: mpsc::Sender<ReplyItem>,
}

impl Ticket {
    /// Queue `resp` to the connection's replier. A closed channel means
    /// the peer is gone and the answer has nowhere to go.
    fn answer(&self, resp: Response) {
        let _ = self.reply.try_send((self.seq, resp.encode_sg(), self.op));
    }
}

/// One completion-ring entry: a received frame plus everything needed to
/// route and answer it.
struct Submission {
    frame: Bytes,
    qp: Rc<Qp>,
    ticket: Ticket,
    /// The connection's declared tenant (0 = untenanted). Shared with the
    /// pump so a `set_tenant` handshake applies to every later frame.
    tenant: Rc<Cell<u32>>,
}

/// A stored value as the wire carries it: `(data, flags, cas)`.
type WireValue = (Bytes, u32, u64);

/// Join state for a `multi_get` split across shards.
struct MultiAgg {
    values: Vec<Option<WireValue>>,
    remaining: usize,
    /// Answers the client's whole `multi_get` (and carries its traced op).
    ticket: Ticket,
    /// `(shard, dequeue ns, done ns)` per completed leg — the leg with
    /// the latest finish is the server-side critical path.
    legs: Vec<(usize, u64, u64)>,
}

/// Work routed to one core.
enum CoreOp {
    Single {
        req: Request,
        qp: Rc<Qp>,
        ticket: Ticket,
        /// Tenant the request runs as (0 = untenanted).
        tenant: u32,
        /// A read of a hot key served from the server-side cached copy on
        /// a fan-out core: full `proc_time` is charged, the value was
        /// captured at dispatch (the linearization point — the serial
        /// poller invalidates the copy before queueing any write). The
        /// request (always a get) is carried whole for the one-sided
        /// `dst` landing buffer.
        copy: Option<WireValue>,
        /// When the request is a get of a tracked hot key whose cached
        /// copy is absent, `(key, seq ticket)`: after the store read the
        /// core publishes the value into the hot entry iff the ticket
        /// still matches (no write dispatched since).
        publish: Option<(Bytes, u64)>,
    },
    MultiPart {
        /// (position in the client's key list, key) — all owned by this
        /// core's shard.
        keys: Vec<(usize, Bytes)>,
        agg: Rc<RefCell<MultiAgg>>,
    },
}

/// Per-core dispatch handle.
struct CoreHandle {
    tx: mpsc::Sender<CoreOp>,
    qdepth: Gauge,
}

/// Shard-per-core engine state.
struct Engine {
    cq: Rc<Cq<Submission>>,
    cores: Vec<CoreHandle>,
}

/// One tracked hot key.
struct HotEntry {
    /// Core that owns the key's shard (authoritative copy).
    home: usize,
    /// Version ticket drawn from [`HotState::seqgen`]: bumped by every
    /// write-family dispatch to the key. A publish carrying a stale
    /// ticket is refused, so the cached copy can never go backwards.
    seq: u64,
    /// Round-robin cursor over the fan-out core set.
    rr: u32,
    /// Cached copy, absent until published and after every invalidation.
    value: Option<WireValue>,
}

/// Hot-key detection and replica fan-out state (engine model only;
/// present iff `hot_replicas > 0`). All mutation happens in the serial
/// poller's dispatch, which makes dispatch order the linearization
/// order: a write invalidates the cached copy *before* it is queued, so
/// any read dispatched after the write either misses the cache (routed
/// to the home core behind the write) or sees the post-write republish.
struct HotState {
    /// One sketch per shard, recording keyed reads.
    sketches: RefCell<Vec<FreqSketch>>,
    entries: RefCell<FxHashMap<Vec<u8>, HotEntry>>,
    /// Monotone ticket source shared by all entries; never reused, so a
    /// pruned-and-redetected key cannot accept a publish from before its
    /// retirement (no ABA).
    seqgen: Cell<u64>,
    /// Cores a hot key's reads spread across (home + replicas, capped at
    /// the core count).
    fanout: usize,
    min_count: u32,
    detected: Counter,
    replica_hits: Counter,
    invalidations: Counter,
    publishes: Counter,
    tracked: Gauge,
}

impl HotState {
    fn next_seq(&self) -> u64 {
        let s = self.seqgen.get() + 1;
        self.seqgen.set(s);
        s
    }
}

/// Per-tenant token-bucket admission state (present iff
/// `tenant_rate > 0`). Buckets refill lazily at check time from the
/// elapsed virtual time, so idle tenants cost nothing.
struct TenantGov {
    rate: f64,
    /// tenant → (tokens, last refill ns).
    buckets: RefCell<FxHashMap<u32, (f64, u64)>>,
    admitted: Counter,
    throttled: Counter,
    /// Lazily registered `rkv.tenant.server{N}.t{T}.throttled` counters.
    per_tenant: RefCell<FxHashMap<u32, Counter>>,
}

/// Per-server service-time histograms (`rkv.server{node}.*_ns`), plus
/// per-shard service time (`rkv.server{node}.shard{S}.svc_ns`) so
/// core-scaling results can report tail behaviour per shard.
struct ServiceHists {
    get_ns: HistogramMetric,
    set_ns: HistogramMetric,
    multi_get_ns: HistogramMetric,
    other_ns: HistogramMetric,
    shard_svc: Vec<HistogramMetric>,
}

/// One KV server instance bound to a fabric node.
pub struct KvServer {
    node: NodeId,
    stack: Rc<RdmaStack>,
    store: Rc<ShardedKv>,
    config: KvServerConfig,
    connections: Cell<u64>,
    requests: Cell<u64>,
    proto_errors: Cell<u64>,
    hists: ServiceHists,
    engine: Option<Engine>,
    hot: Option<HotState>,
    gov: Option<TenantGov>,
}

impl KvServer {
    /// Create a server on `node` (no listener thread needed — connections
    /// are established through [`KvServer::accept`]). Registers
    /// `rkv.server{node}.*` metrics: service-time histograms plus sampled
    /// store stats (hits/gets/sets/evictions/items/bytes).
    pub fn new(stack: Rc<RdmaStack>, node: NodeId, config: KvServerConfig) -> Rc<KvServer> {
        assert!(config.cores >= 1, "cores must be at least 1");
        let engine_on = config.engine_enabled();
        // the engine runs one store stripe per modeled core so a shard is
        // only ever touched from its owning core; the single-context model
        // keeps the configured stripe count
        let stripes = if engine_on { config.cores } else { SHARDS };
        let store = Rc::new(ShardedKv::new(stripes, config.slab));
        let m = stack.sim().metrics();
        let prefix = format!("rkv.server{}", node.0);
        // shard-per-core visibility: shard count, per-shard op totals and
        // live queue depth — all present in every snapshot regardless of
        // execution model so the required metric families never depend on
        // configuration
        m.gauge("rkv.shard.contexts")
            .add(store.shard_count() as i64);
        for shard in 0..store.shard_count() {
            let weak = Rc::downgrade(&store);
            m.sampled(format!("{prefix}.shard{shard}.ops"), move || {
                let s = weak
                    .upgrade()
                    .map(|s| s.shard_stats(shard))
                    .unwrap_or_default();
                MetricValue::Counter(s.gets + s.sets)
            });
        }
        let hists = ServiceHists {
            get_ns: m.histogram(format!("{prefix}.get_ns")),
            set_ns: m.histogram(format!("{prefix}.set_ns")),
            multi_get_ns: m.histogram(format!("{prefix}.multi_get_ns")),
            other_ns: m.histogram(format!("{prefix}.other_ns")),
            shard_svc: (0..store.shard_count())
                .map(|shard| m.histogram(format!("{prefix}.shard{shard}.svc_ns")))
                .collect(),
        };
        // store stats as sampled metrics: the store keeps them anyway, so
        // snapshots read them instead of double counting (weak capture —
        // the registry must not keep the store alive)
        for (suffix, pick) in [
            ("gets", 0usize),
            ("hits", 1),
            ("sets", 2),
            ("evictions", 3),
            ("items", 4),
            ("bytes", 5),
            ("pinned_items", 6),
            ("pinned_bytes", 7),
        ] {
            let weak = Rc::downgrade(&store);
            m.sampled(format!("{prefix}.{suffix}"), move || {
                let s = weak.upgrade().map(|s| s.stats()).unwrap_or_default();
                MetricValue::Counter(match pick {
                    0 => s.gets,
                    1 => s.hits,
                    2 => s.sets,
                    3 => s.evictions,
                    4 => s.items,
                    5 => s.bytes,
                    6 => s.pinned_items,
                    _ => s.pinned_bytes,
                })
            });
        }
        // fault-plan crash on this node wipes the in-memory store (a
        // restarted memcached comes back empty); link events leave state
        // intact. Weak capture: the injector must not keep the store alive.
        let crashes = m.counter(format!("{prefix}.crashes"));
        let weak_store = Rc::downgrade(&store);
        let node_idx = node.0;
        stack.sim().faults().on_node_event(move |ev| {
            if ev.node == node_idx && ev.kind == simkit::faultplan::NodeEventKind::Crash {
                if let Some(store) = weak_store.upgrade() {
                    store.clear();
                    crashes.inc();
                }
            }
        });
        // `CorruptValue` sweep: flip one byte in each resident value the
        // seeded RNG selects with probability `p`, silently — detection is
        // the checksum layer's job. Weak capture, as above.
        let corrupted = m.counter(format!("{prefix}.corrupted"));
        let weak_store = Rc::downgrade(&store);
        stack.sim().faults().on_corrupt_sweep(move |node, p, rng| {
            if node != node_idx {
                return;
            }
            if let Some(store) = weak_store.upgrade() {
                let n = store.corrupt_resident(|len| {
                    rng.chance(p).then(|| (rng.index(len), 1u8 << rng.index(8)))
                });
                corrupted.add(n);
            }
        });
        // engine plumbing: one completion ring for the whole server, one
        // work queue per core; receivers are handed to the core tasks
        // spawned below
        // tenant budgeting and admission, both fully gated so default
        // configurations register no rkv.tenant.* metrics and snapshots
        // stay byte-identical to the seed
        if config.tenant_floor_frac > 0.0 {
            store.set_tenant_floor_frac(config.tenant_floor_frac);
            let weak = Rc::downgrade(&store);
            m.sampled(
                format!("rkv.tenant.server{}.floor_denied", node.0),
                move || MetricValue::Counter(weak.upgrade().map(|s| s.floor_denied()).unwrap_or(0)),
            );
        }
        let gov = (config.tenant_rate > 0.0).then(|| TenantGov {
            rate: config.tenant_rate,
            buckets: RefCell::new(FxHashMap::default()),
            admitted: m.counter(format!("rkv.tenant.server{}.admitted", node.0)),
            throttled: m.counter(format!("rkv.tenant.server{}.throttled", node.0)),
            per_tenant: RefCell::new(FxHashMap::default()),
        });
        // hot-key fan-out needs per-core routing, so it only exists under
        // the engine; gated the same way (no rkv.hot.* metrics by default)
        let hot = (engine_on && config.hot_replicas > 0).then(|| HotState {
            sketches: RefCell::new(
                (0..store.shard_count())
                    .map(|_| FreqSketch::new(config.hot_window))
                    .collect(),
            ),
            entries: RefCell::new(FxHashMap::default()),
            seqgen: Cell::new(0),
            fanout: (config.hot_replicas + 1).min(store.shard_count()),
            min_count: config.hot_min_count.max(1),
            detected: m.counter(format!("rkv.hot.server{}.detected", node.0)),
            replica_hits: m.counter(format!("rkv.hot.server{}.replica_hits", node.0)),
            invalidations: m.counter(format!("rkv.hot.server{}.invalidations", node.0)),
            publishes: m.counter(format!("rkv.hot.server{}.publishes", node.0)),
            tracked: m.gauge(format!("rkv.hot.server{}.tracked", node.0)),
        });
        let mut core_rxs = Vec::new();
        let engine = engine_on.then(|| {
            let cores = (0..store.shard_count())
                .map(|shard| {
                    let (tx, rx) = mpsc::unbounded();
                    core_rxs.push(rx);
                    CoreHandle {
                        tx,
                        qdepth: m.gauge(format!("{prefix}.shard{shard}.qdepth")),
                    }
                })
                .collect();
            Engine {
                cq: Cq::new(stack.sim()),
                cores,
            }
        });
        let server = Rc::new(KvServer {
            node,
            stack,
            store,
            config,
            connections: Cell::new(0),
            requests: Cell::new(0),
            proto_errors: Cell::new(0),
            hists,
            engine,
            hot,
            gov,
        });
        if server.engine.is_some() {
            let sim = server.stack.sim().clone();
            sim.spawn({
                let this = Rc::clone(&server);
                async move { this.run_poller().await }
            });
            for (core, rx) in core_rxs.into_iter().enumerate() {
                sim.spawn({
                    let this = Rc::clone(&server);
                    async move { this.run_core(core, rx).await }
                });
            }
        }
        server
    }

    /// Fabric node this server runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Direct handle to the storage engine (used by tests and stats).
    pub fn store(&self) -> &Rc<ShardedKv> {
        &self.store
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.get()
    }

    /// Requests served so far.
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Malformed frames rejected so far.
    pub fn proto_errors(&self) -> u64 {
        self.proto_errors.get()
    }

    /// Establish a connection from `client_node` with the default
    /// [`QpConfig`]; the server side of the queue pair is handled by a
    /// spawned task, the client side is returned.
    pub async fn accept(self: &Rc<Self>, client_node: NodeId) -> Result<Qp, RdmaError> {
        let (client_qp, server_qp) = self
            .stack
            .connect(client_node, self.node, QpConfig::default())
            .await?;
        self.connections.set(self.connections.get() + 1);
        let this = Rc::clone(self);
        self.stack
            .sim()
            .spawn(async move { this.serve_connection(server_qp).await });
        Ok(client_qp)
    }

    /// The connection pump, one task per accepted queue pair. Under the
    /// single-context model each frame is answered inline, in arrival
    /// order. Under the engine every frame is posted to the server's
    /// completion ring tagged with a per-connection sequence number, and a
    /// companion replier task sends responses back in that order
    /// (memcached answers a connection's requests in order even when the
    /// work fans out across cores).
    async fn serve_connection(self: Rc<Self>, qp: Qp) {
        let sim = self.stack.sim();
        let qp = Rc::new(qp);
        let ring = self.engine.as_ref().map(|engine| {
            let (reply_tx, reply_rx) = mpsc::unbounded();
            sim.spawn(Self::run_replier(sim.clone(), Rc::clone(&qp), reply_rx));
            (engine, reply_tx)
        });
        let tenant = Rc::new(Cell::new(0u32));
        let mut seq = 0u64;
        loop {
            // requests are single-buffer SENDs: concat hands the buffer over
            let (frame, op) = match qp.recv_tagged().await {
                Ok((frame, op)) => (frame.concat(), op),
                Err(_) => break, // peer gone; dropping reply_tx stops the replier
            };
            sim.op_stamp(op, "net_in");
            match &ring {
                None => {
                    let resp = match self.front_door(frame, &tenant) {
                        Ok(req) => self.execute(None, &qp, req, tenant.get(), op, None).await,
                        Err(early) => {
                            // a handshake or a throttle is a served request
                            // of zero service time; a malformed frame never
                            // was a request
                            if !matches!(early, Response::TransferFailed) {
                                sim.op_stamp(op, "service");
                            }
                            early
                        }
                    };
                    if qp.send_tagged(resp.encode_sg(), None).await.is_err() {
                        break;
                    }
                }
                Some((engine, reply)) => {
                    engine.cq.post(Submission {
                        frame,
                        qp: Rc::clone(&qp),
                        ticket: Ticket {
                            seq,
                            op,
                            reply: reply.clone(),
                        },
                        tenant: Rc::clone(&tenant),
                    });
                    seq += 1;
                }
            }
        }
    }

    /// Reorder buffer: cores complete out of order, the wire stays in
    /// per-connection request order. Only a reply that overtook an earlier
    /// one is held; the one due next leaves at once (a `KvClient` waits for
    /// each reply before its next request, so its replies are always due).
    async fn run_replier(sim: Sim, qp: Rc<Qp>, mut rx: mpsc::Receiver<ReplyItem>) {
        let mut next = 0u64;
        let mut held: BTreeMap<u64, (Gather, Option<OpId>)> = BTreeMap::new();
        while let Ok((seq, frame, op)) = rx.recv().await {
            if seq != next {
                held.insert(seq, (frame, op));
                continue;
            }
            let mut due = Some((frame, op));
            while let Some((frame, op)) = due {
                sim.op_stamp(op, "reply_reorder");
                if qp.send_tagged(frame, None).await.is_err() {
                    return;
                }
                next += 1;
                due = held.remove(&next);
            }
        }
    }

    /// The front door both models share: decode one received frame, count
    /// it, and settle what needs no execution. `Err` is the answer to send
    /// as-is — `Ok` for the connection-scoped tenant handshake (tags every
    /// later request on the connection; no `proc_time`), `Throttled` when
    /// admission refuses the tenant, `TransferFailed` for a malformed
    /// frame.
    fn front_door(&self, frame: Bytes, tenant: &Cell<u32>) -> Result<Request, Response> {
        let req = match Request::decode(frame) {
            Ok(req) => req,
            Err(ProtoError(_)) => {
                self.proto_errors.set(self.proto_errors.get() + 1);
                return Err(Response::TransferFailed);
            }
        };
        self.requests.set(self.requests.get() + 1);
        match req {
            Request::SetTenant { tenant: t } => {
                tenant.set(t);
                Err(Response::Ok)
            }
            _ if !self.admit(tenant.get()) => Err(Response::Throttled),
            req => Ok(req),
        }
    }

    /// Drain the completion ring in batches of up to `cq_batch` and route
    /// each request to the core owning its key. Routing is cheap
    /// bookkeeping (no proc_time) — the modeled CPU cost is charged on the
    /// owning core. Tenant handshake and admission both resolve here at
    /// the ring, before any core is involved: a throttled request costs
    /// routing bookkeeping only.
    async fn run_poller(self: Rc<Self>) {
        let engine = self.engine.as_ref().expect("engine poller");
        let mut batch = Vec::new();
        loop {
            engine.cq.drain(self.config.cq_batch, &mut batch).await;
            if batch.is_empty() {
                break; // ring closed
            }
            for sub in batch.drain(..) {
                self.stack.sim().op_stamp(sub.ticket.op, "cq_wait");
                match self.front_door(sub.frame, &sub.tenant) {
                    Ok(req) => self.dispatch(req, sub.qp, sub.ticket, sub.tenant.get()),
                    Err(early) => sub.ticket.answer(early),
                }
            }
        }
    }

    /// Hand one decoded request to its owning core. Key-bearing verbs go
    /// to `shard_index(key)`; a `multi_get` is split into per-shard parts
    /// joined by an aggregation cell.
    fn dispatch(&self, req: Request, qp: Rc<Qp>, ticket: Ticket, tenant: u32) {
        let engine = self.engine.as_ref().expect("engine dispatch");
        if let Request::MultiGet { keys } = req {
            if keys.is_empty() {
                ticket.answer(Response::MultiValues { values: Vec::new() });
                return;
            }
            let mut parts: Vec<Vec<(usize, Bytes)>> = vec![Vec::new(); engine.cores.len()];
            for (pos, key) in keys.into_iter().enumerate() {
                parts[self.store.shard_index(&key)].push((pos, key));
            }
            let total = keys_total(&parts);
            let agg = Rc::new(RefCell::new(MultiAgg {
                values: vec![None; total],
                remaining: parts.iter().filter(|p| !p.is_empty()).count(),
                ticket,
                legs: Vec::new(),
            }));
            for (shard, part) in parts.into_iter().enumerate() {
                if part.is_empty() {
                    continue;
                }
                engine.cores[shard].qdepth.add(1);
                let _ = engine.cores[shard].tx.try_send(CoreOp::MultiPart {
                    keys: part,
                    agg: Rc::clone(&agg),
                });
            }
            return;
        }
        let shard = match request_key(&req) {
            Some(key) => self.store.shard_index(key),
            None => 0,
        };
        // hot-key tracking: reads feed the shard's sketch and may be
        // served from (or scheduled to publish into) the cached copy;
        // writes invalidate it and retire the current publish ticket.
        // All of this happens here, in the serial poller, which makes
        // dispatch order the linearization order for the cached copy.
        let mut target = shard;
        let mut copy: Option<WireValue> = None;
        let mut publish: Option<(Bytes, u64)> = None;
        if let Some(hot) = &self.hot {
            match &req {
                Request::Get { key, .. } => {
                    let (est, rolled) = hot.sketches.borrow_mut()[shard].record(key);
                    let mut entries = hot.entries.borrow_mut();
                    if rolled {
                        // window roll: retire entries homed here that
                        // have cooled below half the promotion threshold
                        let sketches = hot.sketches.borrow();
                        let before = entries.len();
                        entries.retain(|k, e| {
                            e.home != shard || sketches[shard].estimate(k) >= hot.min_count / 2
                        });
                        hot.tracked.add(entries.len() as i64 - before as i64);
                    }
                    if let Some(e) = entries.get_mut(key.as_ref() as &[u8]) {
                        copy = e.value.clone();
                        if copy.is_some() {
                            // replica hit: rotate over the fan-out set
                            target = (e.home + e.rr as usize % hot.fanout) % engine.cores.len();
                            e.rr = e.rr.wrapping_add(1);
                            hot.replica_hits.inc();
                        } else {
                            publish = Some((key.clone(), e.seq));
                        }
                    } else if est >= hot.min_count {
                        let seq = hot.next_seq();
                        entries.insert(
                            key.to_vec(),
                            HotEntry {
                                home: shard,
                                seq,
                                rr: 0,
                                value: None,
                            },
                        );
                        hot.detected.inc();
                        hot.tracked.add(1);
                        publish = Some((key.clone(), seq));
                    }
                }
                _ => {
                    // write-family (and any other keyed verb): clear the
                    // cached copy and bump the ticket so in-flight
                    // publishes of the pre-write value are refused. The
                    // write itself carries the new ticket: when it
                    // completes on the home core it republishes the fresh
                    // value, so the cache is cold only while the write is
                    // queued (a lazy get-driven republish would leave the
                    // home core eating the full hot-key read rate for as
                    // long as its own backlog delays the carrier get).
                    if let Some(key) = request_key(&req) {
                        if let Some(e) = hot.entries.borrow_mut().get_mut(key) {
                            e.seq = hot.next_seq();
                            if e.value.take().is_some() {
                                hot.invalidations.inc();
                            }
                            publish = Some((Bytes::copy_from_slice(key), e.seq));
                        }
                    }
                }
            }
        }
        engine.cores[target].qdepth.add(1);
        let _ = engine.cores[target].tx.try_send(CoreOp::Single {
            req,
            qp,
            ticket,
            tenant,
            copy,
            publish,
        });
    }

    /// One modeled core: executes its queue serially, charging
    /// `proc_time` per unit of work. Spans carry the core index as the
    /// trace tid so per-core occupancy is visible in the timeline.
    async fn run_core(self: Rc<Self>, core: usize, mut rx: mpsc::Receiver<CoreOp>) {
        let engine = self.engine.as_ref().expect("engine core");
        let sim = self.stack.sim().clone();
        while let Ok(work) = rx.recv().await {
            engine.cores[core].qdepth.add(-1);
            match work {
                CoreOp::Single {
                    req,
                    qp,
                    ticket,
                    tenant,
                    copy,
                    publish,
                } => {
                    sim.op_stamp(ticket.op, "shard_queue");
                    let resp = self
                        .execute(Some(core), &qp, req, tenant, ticket.op, copy)
                        .await;
                    if let Some((key, version)) = publish {
                        self.publish_hot(&key, version);
                    }
                    ticket.answer(resp);
                }
                CoreOp::MultiPart { keys, agg } => {
                    let _sp = sim.span("kv.multi_get", "rkv", self.node.0, core as u64 + 1);
                    let t0 = sim.now();
                    sim.sleep(self.config.proc_time).await;
                    let now = self.now();
                    let mut a = agg.borrow_mut();
                    for (pos, key) in keys {
                        a.values[pos] = self.store.get(&key, now).map(|v| (v.data, v.flags, v.cas));
                    }
                    let svc = sim.now().as_nanos().saturating_sub(t0.as_nanos());
                    self.hists.multi_get_ns.record_ns(svc);
                    self.hists.shard_svc[core].record_ns(svc);
                    let op = a.ticket.op;
                    if op.is_some() {
                        a.legs.push((core, t0.as_nanos(), now));
                    }
                    a.remaining -= 1;
                    if a.remaining == 0 {
                        // server-side critical path: the leg that finished
                        // last bounded the join (ties → lower shard). Its
                        // dequeue/done times become the op's shard_queue
                        // and service stamps, so the decomposition shows
                        // the dominant leg's timeline, not an average.
                        if op.is_some() {
                            let tracer = sim.optrace();
                            if let Some(&(shard, start, end)) =
                                a.legs.iter().max_by_key(|&&(s, _, e)| (e, usize::MAX - s))
                            {
                                tracer.stamp(op, "shard_queue", start);
                                tracer.annotate_shard(op, shard as u32);
                                tracer.stamp(op, "service", end);
                                tracer.note_critical(format!(
                                    "rkv.critpath.multi_get.server{}.shard{shard}",
                                    self.node.0
                                ));
                            }
                        }
                        let values = std::mem::take(&mut a.values);
                        a.ticket.answer(Response::MultiValues { values });
                    }
                }
            }
        }
    }

    /// Serve one admitted request, the same way in both models: charge
    /// `proc_time`, run the verb against the store (a get that carries a
    /// hot `copy` is answered from it instead), record the service time
    /// and stamp `service`. `core` is the engine core this runs on —
    /// `None` inline in the connection's own task, where the service time
    /// is attributed to the stripe owning the request's key (a whole
    /// `multi_get` has none).
    async fn execute(
        &self,
        core: Option<usize>,
        qp: &Qp,
        req: Request,
        tenant: u32,
        op: Option<OpId>,
        copy: Option<WireValue>,
    ) -> Response {
        let sim = self.stack.sim();
        let (span_name, hist) = match &req {
            Request::Get { .. } => ("kv.get", &self.hists.get_ns),
            Request::Set { .. } => ("kv.set", &self.hists.set_ns),
            Request::MultiGet { .. } => ("kv.multi_get", &self.hists.multi_get_ns),
            _ => ("kv.other", &self.hists.other_ns),
        };
        let shard = core.or_else(|| request_key(&req).map(|key| self.store.shard_index(key)));
        let tid = core.map_or(0, |c| c as u64 + 1);
        let _sp = sim.span(span_name, "rkv", self.node.0, tid);
        let t0 = sim.now();
        sim.sleep(self.config.proc_time).await;
        let resp = match (copy, req) {
            (Some(value), Request::Get { dst, .. }) => Self::value_reply(qp, dst, value).await,
            (_, req) => self.handle(qp, req, tenant).await,
        };
        let svc = sim.now().as_nanos().saturating_sub(t0.as_nanos());
        hist.record_ns(svc);
        if let Some(shard) = shard {
            self.hists.shard_svc[shard].record_ns(svc);
            sim.optrace().annotate_shard(op, shard as u32);
        }
        sim.op_stamp(op, "service");
        resp
    }

    fn now(&self) -> u64 {
        self.stack.sim().now().as_nanos()
    }

    /// Token-bucket admission for `tenant`. Always true when admission is
    /// off or the connection is untenanted (tenant 0).
    fn admit(&self, tenant: u32) -> bool {
        let Some(gov) = &self.gov else { return true };
        if tenant == 0 {
            return true;
        }
        let now = self.now();
        let mut buckets = gov.buckets.borrow_mut();
        let b = buckets.entry(tenant).or_insert((TENANT_BURST, now));
        let dt = now.saturating_sub(b.1) as f64 / 1e9;
        b.0 = (b.0 + dt * gov.rate).min(TENANT_BURST);
        b.1 = now;
        if b.0 >= 1.0 {
            b.0 -= 1.0;
            gov.admitted.inc();
            true
        } else {
            gov.throttled.inc();
            gov.per_tenant
                .borrow_mut()
                .entry(tenant)
                .or_insert_with(|| {
                    self.stack.sim().metrics().counter(format!(
                        "rkv.tenant.server{}.t{tenant}.throttled",
                        self.node.0
                    ))
                })
                .inc();
            false
        }
    }

    /// Install the store's current value for `key` into its hot entry,
    /// iff `ticket` still matches the entry's version (no write was
    /// dispatched since the read that carried the ticket) and nothing is
    /// cached yet. Expiring items are never published — the cached copy
    /// has no expiry check of its own.
    fn publish_hot(&self, key: &[u8], ticket: u64) {
        let Some(hot) = &self.hot else { return };
        let mut entries = hot.entries.borrow_mut();
        let Some(e) = entries.get_mut(key) else {
            return;
        };
        if e.seq != ticket || e.value.is_some() {
            return;
        }
        if let Some((v, expire_at)) = self.store.peek(key, self.now()) {
            if expire_at == 0 {
                e.value = Some((v.data, v.flags, v.cas));
                hot.publishes.inc();
            }
        }
    }

    /// Resolve a carrier to payload bytes, RDMA-READing remote payloads.
    async fn fetch_payload(&self, qp: &Qp, value: Carrier) -> Result<Bytes, RdmaError> {
        match value {
            Carrier::Inline(b) => Ok(b),
            Carrier::Remote { src, len } => qp.read(&src.into(), 0, len as u64).await,
        }
    }

    /// Under [`KvServerConfig::verify_set_crc`], check that the payload
    /// matches the digest the client declared in `flags`.
    fn digest_ok(&self, key: &[u8], flags: u32, data: &Bytes) -> bool {
        !self.config.verify_set_crc || crate::checksum::crc32c_pair_bytes(key, data) == flags
    }

    fn map_store_result(r: Result<u64, KvError>) -> Response {
        match r {
            Ok(cas) => Response::Stored { cas },
            Err(KvError::TooLarge) => Response::TooLarge,
            Err(KvError::OutOfMemory) => Response::OutOfMemory,
            Err(KvError::NotFound) => Response::NotFound,
        }
    }

    /// Answer a get with `value`: landed one-sided in the client's
    /// registered buffer when it offered one the payload fits, inline
    /// otherwise.
    async fn value_reply(qp: &Qp, dst: Option<WireBuf>, value: WireValue) -> Response {
        let (data, flags, cas) = value;
        match dst {
            Some(dst) if data.len() as u64 <= dst.len => {
                match qp.write(&dst.into(), 0, data.clone()).await {
                    Ok(()) => Response::ValueWritten {
                        len: data.len() as u32,
                        flags,
                        cas,
                    },
                    Err(_) => Response::TransferFailed,
                }
            }
            _ => Response::Value { data, flags, cas },
        }
    }

    async fn handle(&self, qp: &Qp, req: Request, tenant: u32) -> Response {
        let now = self.now();
        match req {
            Request::Get { key, dst } => match self.store.get(&key, now) {
                None => Response::NotFound,
                Some(v) => Self::value_reply(qp, dst, (v.data, v.flags, v.cas)).await,
            },
            Request::Set {
                key,
                flags,
                expire_at,
                value,
            } => match self.fetch_payload(qp, value).await {
                Ok(data) if !self.digest_ok(&key, flags, &data) => Response::BadDigest,
                Ok(data) => Self::map_store_result(
                    self.store.set_as(tenant, &key, data, flags, expire_at, now),
                ),
                Err(_) => Response::TransferFailed,
            },
            Request::Delete { key } => {
                if self.store.delete(&key) {
                    Response::Ok
                } else {
                    Response::NotFound
                }
            }
            Request::MultiGet { keys } => {
                let values = keys
                    .iter()
                    .map(|k| self.store.get(k, now).map(|v| (v.data, v.flags, v.cas)))
                    .collect();
                Response::MultiValues { values }
            }
            Request::Pin { key } => match self.store.pin(&key, now) {
                Ok(()) => Response::Ok,
                Err(_) => Response::NotFound,
            },
            Request::Unpin { key } => match self.store.unpin(&key) {
                Ok(()) => Response::Ok,
                Err(_) => Response::NotFound,
            },
            // normally intercepted at the connection pump / completion
            // ring; answering Ok keeps the verb harmless if it ever
            // reaches a core
            Request::SetTenant { .. } => Response::Ok,
        }
    }
}

/// Total key count across the per-shard parts of a split `multi_get`.
fn keys_total(parts: &[Vec<(usize, Bytes)>]) -> usize {
    parts.iter().map(Vec::len).sum()
}

/// The routing key of a request, if it carries one. `multi_get` is
/// handled separately (split per shard) and `set_tenant` is answered
/// before routing, so neither reaches a core through this.
fn request_key(req: &Request) -> Option<&[u8]> {
    match req {
        Request::Get { key, .. }
        | Request::Set { key, .. }
        | Request::Delete { key }
        | Request::Pin { key }
        | Request::Unpin { key } => Some(key),
        Request::MultiGet { .. } | Request::SetTenant { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Fabric, NetConfig};

    /// One connection pipelines three gets of keys on one core and then a
    /// get on another core, which completes first: the replier holds it,
    /// and the wire answers in request order.
    #[test]
    fn pipelined_replies_leave_in_request_order() {
        let sim = Sim::new();
        let stack = RdmaStack::new(Fabric::new(sim.clone(), 2, NetConfig::default()));
        let config = KvServerConfig {
            cores: 4,
            cq_batch: 16,
            proc_time: dur::us(20),
            ..KvServerConfig::default()
        };
        let server = KvServer::new(stack, NodeId(0), config);
        let key = |i: usize| Bytes::from(format!("k{i}"));
        let shard = |i: usize| server.store.shard_index(&key(i));
        let slow: Vec<usize> = (0..).filter(|&i| shard(i) == 0).take(3).collect();
        let fast = (0..).find(|&i| shard(i) == 1).unwrap();
        let order: Vec<usize> = slow.iter().copied().chain([fast]).collect();
        let replies = sim.block_on(async move {
            let qp = server.accept(NodeId(1)).await.unwrap();
            for &i in &order {
                let set = Request::Set {
                    key: key(i),
                    flags: 0,
                    expire_at: 0,
                    value: Carrier::Inline(key(i)),
                };
                qp.send_tagged(set.encode(), None).await.unwrap();
                qp.recv_tagged().await.unwrap();
            }
            for &i in &order {
                let get = Request::Get {
                    key: key(i),
                    dst: None,
                };
                qp.send_tagged(get.encode(), None).await.unwrap();
            }
            let mut replies = Vec::new();
            for _ in &order {
                let (frame, _) = qp.recv_tagged().await.unwrap();
                match Response::decode_sg(frame).unwrap() {
                    Response::Value { data, .. } => replies.push(data),
                    other => panic!("unexpected {other:?}"),
                }
            }
            replies
        });
        let want: Vec<Bytes> = slow.iter().chain([&fast]).map(|&i| key(i)).collect();
        assert_eq!(replies, want);
    }
}
