//! AB11: open-loop million-client traffic — hot-key replica fan-out and
//! per-tenant isolation.
//!
//! Two questions, one workload engine ([`workloads::traffic`]):
//!
//! 1. **Skew sweep** — a single tenant's aggregate Poisson stream at a
//!    fixed offered load, Zipf key popularity swept over
//!    s ∈ {0.0, 0.9, 0.99, 1.2}. Without fan-out, everything past
//!    s ≈ 0.99 drives the hot key's home core past saturation and the
//!    get p99 blows up; with hot-key replica fan-out
//!    (`hot_replicas = cores - 1`) the hot reads spread across all
//!    cores and the tail stays flat.
//! 2. **Tenant isolation** — a steady tenant (B) sharing the server with
//!    a bursting MMPP tenant (A). Without admission control A's bursts
//!    saturate the cores and B's p99 balloons; with per-tenant
//!    token-bucket admission A is clipped at its budget and B's p99
//!    stays within a whisker of its B-alone baseline.
//!
//! The open-loop driver dispatches pre-generated arrival events onto a
//! pool of simulated connections per tenant: the logical-client count
//! (10^5–10^6) only appears as the aggregate rate, which is exactly what
//! an open-loop tail experiment needs. Everything is a pure function of
//! the spec and the seed.

use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use netsim::{Fabric, NetConfig, NodeId};
use rdmasim::RdmaStack;
use rkv::client::ClientError;
use rkv::server::KvServerConfig;
use rkv::{KvClient, KvClientConfig, KvServer};
use simkit::{dur, Sim, SimRng};
use workloads::traffic::{
    ArrivalProcess, OpClass, OpEvent, TenantSpec, TrafficEngine, TrafficSpec,
};

use crate::experiments::ExpReport;
use crate::table::Table;
use crate::telemetry::{capture_cell, CellTelemetry};

/// Per-tenant outcome counts of one open-loop cell.
#[derive(Debug, Default, Clone, Copy)]
pub struct TenantOutcome {
    /// Ops the driver issued.
    pub issued: u64,
    /// Ops rejected by tenant admission control.
    pub throttled: u64,
    /// Ops that failed for any other reason.
    pub errors: u64,
}

/// Everything one open-loop cell reports.
pub struct CellResult {
    /// Overall get latency percentiles (p50, p99, p999), nanoseconds.
    pub get: (u64, u64, u64),
    /// Per-tenant get p99 (`rkv.lat.get.tenant{T}.e2e`), nanoseconds.
    pub tenant_get_p99: BTreeMap<u32, u64>,
    /// Per-tenant issue/throttle/error counts.
    pub outcomes: BTreeMap<u32, TenantOutcome>,
    /// `rkv.hot.server0.replica_hits` (0 when fan-out is off).
    pub replica_hits: u64,
    /// `rkv.hot.server0.detected` (0 when fan-out is off).
    pub hot_detected: u64,
    /// The cell's snapshot, when requested.
    pub telemetry: Option<CellTelemetry>,
}

/// Run one open-loop cell: generate the merged arrival stream for
/// `spec`, then replay it against a single server under `server_config`
/// from a pool of `pool` connections per tenant (events assigned
/// round-robin, each worker sleeping until its event's virtual arrival
/// time). The keyspace of every tenant is prepopulated off the clock by
/// an untenanted client, so gets never miss and admission never gates
/// the fill.
pub fn open_loop_cell(
    server_config: KvServerConfig,
    spec: &TrafficSpec,
    pool: usize,
    seed: u64,
    capture: bool,
) -> CellResult {
    let events = TrafficEngine::new(spec, &SimRng::seed_from(seed)).collect_all();
    // per-tenant event lists, round-robin over that tenant's pool
    let tenants: Vec<TenantSpec> = spec.tenants.clone();
    let mut per_worker: BTreeMap<(u32, usize), Vec<OpEvent>> = BTreeMap::new();
    let mut rr: BTreeMap<u32, usize> = BTreeMap::new();
    for ev in events {
        let w = rr.entry(ev.tenant).or_insert(0);
        per_worker.entry((ev.tenant, *w)).or_default().push(ev);
        *w = (*w + 1) % pool;
    }
    let hot_on = server_config.hot_replicas > 0 && server_config.engine_enabled();
    let nodes = tenants.len() * pool + 2;
    let sim = Sim::new();
    sim.optrace().enable();
    let fabric = Fabric::new(sim.clone(), nodes, NetConfig::default());
    let stack = RdmaStack::new(fabric);
    let servers = vec![KvServer::new(Rc::clone(&stack), NodeId(0), server_config)];
    let s = sim.clone();
    let outcomes = sim.block_on(async move {
        // prepopulate every tenant's keyspace, untenanted (tenant 0 is
        // exempt from admission and owns no floor-protected bytes)
        let fill = KvClient::new(
            Rc::clone(&stack),
            NodeId((nodes - 1) as u32),
            servers.clone(),
            KvClientConfig::default(),
        );
        for t in &tenants {
            let payload = Bytes::from(vec![0x5a; t.value_size.max(1)]);
            for rank in 0..t.keys {
                let key = format!("t{}-k{rank}", t.tenant);
                fill.set(key.as_bytes(), payload.clone(), 0, 0)
                    .await
                    .expect("prepopulate set");
            }
        }
        // the fill consumed virtual time; arrivals are relative to the
        // instant the measured run starts, so re-base them on the
        // post-fill clock (otherwise every event would be "in the past"
        // and the open-loop schedule would collapse into a closed loop)
        let t_start = s.now().as_nanos();
        let mut handles = Vec::new();
        for (ti, t) in tenants.iter().enumerate() {
            let payload = Bytes::from(vec![0x5a; t.value_size.max(1)]);
            for w in 0..pool {
                let Some(evs) = per_worker.remove(&(t.tenant, w)) else {
                    continue;
                };
                let cl = KvClient::new(
                    Rc::clone(&stack),
                    NodeId((1 + ti * pool + w) as u32),
                    servers.clone(),
                    KvClientConfig {
                        tenant: t.tenant,
                        ..KvClientConfig::default()
                    },
                );
                let payload = payload.clone();
                let s2 = s.clone();
                let tenant = t.tenant;
                handles.push(s.spawn(async move {
                    let mut out = TenantOutcome::default();
                    for ev in evs {
                        let at = t_start + ev.at_ns;
                        let now = s2.now().as_nanos();
                        if at > now {
                            s2.sleep(dur::ns(at - now)).await;
                        }
                        out.issued += 1;
                        let key = ev.key();
                        let r = match ev.class {
                            OpClass::Get => cl.get(key.as_bytes()).await.map(|_| ()),
                            OpClass::Set => cl
                                .set(key.as_bytes(), payload.clone(), 0, 0)
                                .await
                                .map(|_| ()),
                        };
                        match r {
                            Ok(()) => {}
                            Err(ClientError::Throttled) => out.throttled += 1,
                            Err(_) => out.errors += 1,
                        }
                    }
                    (tenant, out)
                }));
            }
        }
        let mut outcomes: BTreeMap<u32, TenantOutcome> = BTreeMap::new();
        for h in handles {
            let (tenant, o) = h.await;
            let agg = outcomes.entry(tenant).or_default();
            agg.issued += o.issued;
            agg.throttled += o.throttled;
            agg.errors += o.errors;
        }
        outcomes
    });
    let tracer = sim.optrace();
    let p = |name: &str, q: f64| tracer.series_percentile(name, q);
    let get = (
        p("rkv.lat.get.e2e", 50.0),
        p("rkv.lat.get.e2e", 99.0),
        p("rkv.lat.get.e2e", 99.9),
    );
    let tenant_get_p99 = spec
        .tenants
        .iter()
        .filter(|t| t.tenant != 0)
        .map(|t| {
            (
                t.tenant,
                p(&format!("rkv.lat.get.tenant{}.e2e", t.tenant), 99.0),
            )
        })
        .collect();
    // only read (get-or-create) the gated families when they exist, so a
    // defaults-off cell's registry stays untouched
    let (replica_hits, hot_detected) = if hot_on {
        let m = sim.metrics();
        (
            m.counter("rkv.hot.server0.replica_hits").get(),
            m.counter("rkv.hot.server0.detected").get(),
        )
    } else {
        (0, 0)
    };
    let telemetry = capture.then(|| {
        tracer.publish(sim.metrics());
        capture_cell(&sim)
    });
    sim.reset();
    CellResult {
        get,
        tenant_get_p99,
        outcomes,
        replica_hits,
        hot_detected,
        telemetry,
    }
}

/// The engine server config both AB11 parts use: `proc_time` is raised
/// to 20 µs so core saturation (the regime under study) happens at event
/// counts a CI run can afford — the *shape* is what the experiment
/// claims, and it is invariant to the absolute service time.
fn ab11_server(cores: usize, hot_replicas: usize) -> KvServerConfig {
    KvServerConfig {
        cores,
        cq_batch: 16,
        proc_time: dur::us(20),
        hot_replicas,
        hot_window: 4096,
        hot_min_count: 32,
        ..KvServerConfig::default()
    }
}

/// One single-tenant Poisson spec for the skew sweep.
fn skew_spec(rate: f64, skew: f64, horizon_ns: u64) -> TrafficSpec {
    TrafficSpec {
        tenants: vec![TenantSpec {
            tenant: 1,
            arrivals: ArrivalProcess::Poisson { rate },
            logical_clients: 500_000,
            keys: 2048,
            skew,
            get_ratio: 0.99,
            value_size: 128,
        }],
        horizon_ns,
    }
}

/// The steady tenant (B) of the isolation cells.
fn steady_tenant(horizon_ns: u64) -> TrafficSpec {
    TrafficSpec {
        tenants: vec![TenantSpec {
            tenant: 2,
            arrivals: ArrivalProcess::Poisson { rate: 6_000.0 },
            logical_clients: 100_000,
            keys: 256,
            skew: 0.0,
            get_ratio: 0.9,
            value_size: 128,
        }],
        horizon_ns,
    }
}

/// B plus the bursting MMPP tenant (A).
fn burst_mix(horizon_ns: u64) -> TrafficSpec {
    let mut spec = steady_tenant(horizon_ns);
    spec.tenants.push(TenantSpec {
        tenant: 1,
        arrivals: ArrivalProcess::Mmpp {
            burst_rate: 300_000.0,
            idle_rate: 2_000.0,
            mean_burst_s: 0.010,
            mean_idle_s: 0.030,
        },
        logical_clients: 900_000,
        keys: 256,
        skew: 0.0,
        get_ratio: 0.9,
        value_size: 128,
    });
    spec
}

/// AB11: open-loop traffic — skew sweep with hot-key fan-out on/off,
/// then tenant isolation under a bursting neighbour. The report carries
/// a text timeline of every cell (`repro AB11 --timeline`).
pub fn ab11_traffic(quick: bool, _trace: bool) -> ExpReport {
    let mut timeline = String::new();
    let mut line = |s: String| {
        timeline.push_str(&s);
        timeline.push('\n');
    };
    let cores = 4;
    let rate = 165_000.0;
    let horizon: u64 = if quick { 50_000_000 } else { 250_000_000 };
    let pool = if quick { 64 } else { 128 };
    let us = |ns: u64| ns as f64 / 1e3;
    let mut t = Table::new(
        "AB11: open-loop traffic — 1 engine server (4 cores, cq_batch=16, 20 us proc), \
         165 Kops/s offered, 99% gets, 2048 keys",
        &[
            "cell",
            "get p50 us",
            "get p99 us",
            "get p999 us",
            "replica hits",
            "hot keys",
        ],
    );
    // part 1: skew sweep, fan-out off vs on
    let mut p99 = BTreeMap::new();
    for &fanout in &[false, true] {
        for &skew in &[0.0f64, 0.9, 0.99, 1.2] {
            let cell = open_loop_cell(
                ab11_server(cores, if fanout { cores - 1 } else { 0 }),
                &skew_spec(rate, skew, horizon),
                pool,
                11,
                false,
            );
            let label = format!("s={skew:.2} fan-out {}", if fanout { "on" } else { "off" });
            t.row(vec![
                label.clone(),
                format!("{:.1}", us(cell.get.0)),
                format!("{:.1}", us(cell.get.1)),
                format!("{:.1}", us(cell.get.2)),
                format!("{}", cell.replica_hits),
                format!("{}", cell.hot_detected),
            ]);
            line(format!(
                "skew {label}: p50={} ns p99={} ns p999={} ns replica_hits={} detected={}",
                cell.get.0, cell.get.1, cell.get.2, cell.replica_hits, cell.hot_detected
            ));
            p99.insert((fanout, skew.to_bits()), cell.get.1);
        }
    }
    let hot_bits = 0.99f64.to_bits();
    let cut = p99[&(false, hot_bits)] as f64 / (p99[&(true, hot_bits)] as f64).max(1.0);
    // part 2: tenant isolation. The representative (captured) cell is the
    // budgets-on mix with fan-out armed, so the snapshot carries both the
    // rkv.hot.* and rkv.tenant.* families CI gates on.
    let iso_horizon: u64 = if quick { 60_000_000 } else { 300_000_000 };
    let budgets = |on: bool| KvServerConfig {
        tenant_rate: if on { 8_000.0 } else { 0.0 },
        tenant_floor_frac: if on { 0.2 } else { 0.0 },
        ..ab11_server(cores, cores - 1)
    };
    let alone = open_loop_cell(budgets(true), &steady_tenant(iso_horizon), pool, 13, false);
    let unmanaged = open_loop_cell(budgets(false), &burst_mix(iso_horizon), pool, 13, false);
    let managed = open_loop_cell(budgets(true), &burst_mix(iso_horizon), pool, 13, true);
    let b_alone = alone.tenant_get_p99[&2];
    let b_unmanaged = unmanaged.tenant_get_p99[&2];
    let b_managed = managed.tenant_get_p99[&2];
    for (label, cell) in [
        ("B alone (baseline)", &alone),
        ("A+B, no budgets", &unmanaged),
        ("A+B, budgets on", &managed),
    ] {
        let b99 = cell.tenant_get_p99[&2];
        t.row(vec![
            label.into(),
            "-".into(),
            format!("B: {:.1}", us(b99)),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        for (tenant, o) in &cell.outcomes {
            line(format!(
                "iso {label}: tenant {tenant} issued={} throttled={} errors={}",
                o.issued, o.throttled, o.errors
            ));
        }
        line(format!("iso {label}: B get p99 = {b99} ns"));
    }
    let degrade_managed = b_managed as f64 / b_alone.max(1) as f64;
    let degrade_unmanaged = b_unmanaged as f64 / b_alone.max(1) as f64;
    let a_throttled = managed.outcomes[&1].throttled;
    t.note(format!(
        "fan-out cuts the s=0.99 get p99 {:.1} -> {:.1} us ({cut:.1}x, target >=2x); \
         B's p99 under A's bursts: {:.2}x baseline unmanaged vs {:.2}x with budgets \
         (target <=1.2x); admission clipped {a_throttled} of A's ops",
        us(p99[&(false, hot_bits)]),
        us(p99[&(true, hot_bits)]),
        degrade_unmanaged,
        degrade_managed,
    ));
    let shape_holds = cut >= 2.0
        && degrade_managed <= 1.2
        && degrade_unmanaged > degrade_managed
        && a_throttled > 0
        && managed.outcomes[&2].throttled == 0;
    ExpReport::new("AB11", t, shape_holds, managed.telemetry).with_timeline(timeline)
}
