//! AB10: tail-latency decomposition — where does the p99 live? One
//! engine server under closed-loop load, with the per-operation request
//! tracer on, at 1 core vs 4 cores. The decomposition shows the
//! single-core tail is queueing (completion-ring wait + shard-queue
//! wait), not service time — which is exactly why the shard-per-core
//! engine moves the p99, and the paper's RDMA stack moves the p50.

use std::rc::Rc;

use bytes::Bytes;
use netsim::{Fabric, NetConfig, NodeId};
use rdmasim::RdmaStack;
use rkv::server::KvServerConfig;
use rkv::{KvClient, KvClientConfig, KvServer};
use simkit::Sim;

use crate::experiments::ExpReport;
use crate::table::Table;
use crate::telemetry::{capture_cell, CellTelemetry};

/// The traced get-phase percentiles of one cell, in nanoseconds, plus
/// the telescoping-identity audit of its finished ops.
pub struct TracedCell {
    /// End-to-end get latency percentiles (p50, p99, p999).
    pub e2e: (u64, u64, u64),
    /// p99 of the queueing stages: completion-ring wait + shard queue.
    pub queue_p99: u64,
    /// p99 of the shard service stage.
    pub service_p99: u64,
    /// Get-class reconciliation: (ops, stage-sum ns, e2e-sum ns).
    pub recon_get: (u64, u64, u64),
    /// Whether every traced class reconciled stage sums == e2e exactly.
    pub exact: bool,
    /// The cell's metrics snapshot (traced series published into it).
    pub telemetry: Option<CellTelemetry>,
}

/// One traced engine cell: a single server with `cores` shards and
/// `cq_batch = 16`, `clients` closed-loop clients doing a set phase then
/// a get phase of `ops_per_client` 512 B operations, with the op tracer
/// recording every attempt's stage stamps in virtual time.
pub fn traced_cell(
    cores: usize,
    clients: usize,
    ops_per_client: usize,
    capture: bool,
) -> TracedCell {
    let sim = Sim::new();
    sim.optrace().enable();
    let fabric = Fabric::new(sim.clone(), clients + 1, NetConfig::default());
    let stack = RdmaStack::new(fabric);
    let servers = vec![KvServer::new(
        Rc::clone(&stack),
        NodeId(0),
        KvServerConfig {
            cores,
            cq_batch: 16,
            ..KvServerConfig::default()
        },
    )];
    let s = sim.clone();
    sim.block_on(async move {
        let payload = Bytes::from(vec![0x51u8; 512]);
        let kv_clients: Vec<Rc<KvClient>> = (0..clients)
            .map(|c| {
                KvClient::new(
                    Rc::clone(&stack),
                    NodeId((c + 1) as u32),
                    servers.clone(),
                    KvClientConfig::default(),
                )
            })
            .collect();
        let mut handles = Vec::new();
        for (c, cl) in kv_clients.into_iter().enumerate() {
            let payload = payload.clone();
            handles.push(s.spawn(async move {
                for i in 0..ops_per_client {
                    let key = format!("c{c}-k{i}");
                    cl.set(key.as_bytes(), payload.clone(), 0, 0).await.unwrap();
                }
                for i in 0..ops_per_client {
                    let key = format!("c{c}-k{i}");
                    cl.get(key.as_bytes()).await.unwrap().unwrap();
                }
            }));
        }
        for h in handles {
            h.await;
        }
    });
    let tracer = sim.optrace();
    let p = |name: &str, q: f64| tracer.series_percentile(name, q);
    let e2e = (
        p("rkv.lat.get.e2e", 50.0),
        p("rkv.lat.get.e2e", 99.0),
        p("rkv.lat.get.e2e", 99.9),
    );
    let queue_p99 = p("rkv.lat.get.cq_wait", 99.0) + p("rkv.lat.get.shard_queue", 99.0);
    let service_p99 = p("rkv.lat.get.service", 99.0);
    let mut exact = true;
    let mut recon_get = (0, 0, 0);
    for class in ["get", "set"] {
        let r = tracer
            .reconcile("rkv", class)
            .expect("traced cell finished ops of both classes");
        exact &= r.exact();
        if class == "get" {
            recon_get = (r.ops, r.stage_sum_ns, r.e2e_sum_ns);
        }
    }
    let telemetry = capture.then(|| {
        // mirror the traced series into the registry so the snapshot
        // (and the `repro --check` SLO gate on it) carries `rkv.lat.*`
        tracer.publish(sim.metrics());
        capture_cell(&sim)
    });
    sim.reset();
    TracedCell {
        e2e,
        queue_p99,
        service_p99,
        recon_get,
        exact,
        telemetry,
    }
}

/// AB10: latency decomposition at 1 vs 4 cores. Shape: at 1 core the
/// queueing stages dominate the service stage at the p99, and 4 cores
/// pull the end-to-end p99 below the 1-core p99 — the tail is queueing,
/// not service time. Every cell must also pass the telescoping audit
/// (per-op stage sums equal end-to-end latency to the nanosecond).
pub fn ab10_latency_decomposition(quick: bool, _trace: bool) -> ExpReport {
    let clients = if quick { 16 } else { 32 };
    let ops = if quick { 120 } else { 400 };
    let mut t = Table::new(
        "AB10: tail-latency decomposition — 1 server, 512 B gets, cq_batch=16, op tracer on",
        &[
            "server",
            "get p50 us",
            "get p99 us",
            "get p999 us",
            "queue p99 us",
            "service p99 us",
            "tail driver",
        ],
    );
    let mut cells = Vec::new();
    for &cores in &[1usize, 4] {
        let cell = traced_cell(cores, clients, ops, cores == 4);
        let us = |ns: u64| ns as f64 / 1e3;
        t.row(vec![
            format!("{cores} core{}", if cores == 1 { "" } else { "s" }),
            format!("{:.1}", us(cell.e2e.0)),
            format!("{:.1}", us(cell.e2e.1)),
            format!("{:.1}", us(cell.e2e.2)),
            format!("{:.1}", us(cell.queue_p99)),
            format!("{:.1}", us(cell.service_p99)),
            if cell.queue_p99 > cell.service_p99 {
                "queueing".into()
            } else {
                "service".into()
            },
        ]);
        cells.push(cell);
    }
    let one = &cells[0];
    let four = &cells[1];
    let exact = one.exact && four.exact;
    t.note(format!(
        "1-core tail is queueing ({:.1} us queue p99 vs {:.1} us service p99); 4 cores cut \
         the get p99 {:.1} -> {:.1} us; telescoping audit: {} gets, stage sums {} ns == e2e \
         {} ns ({})",
        one.queue_p99 as f64 / 1e3,
        one.service_p99 as f64 / 1e3,
        one.e2e.1 as f64 / 1e3,
        four.e2e.1 as f64 / 1e3,
        one.recon_get.0,
        one.recon_get.1,
        one.recon_get.2,
        if exact { "exact" } else { "MISMATCH" },
    ));
    let shape_holds = one.queue_p99 > one.service_p99 && four.e2e.1 < one.e2e.1 && exact;
    ExpReport::new("AB10", t, shape_holds, cells.pop().unwrap().telemetry)
}
