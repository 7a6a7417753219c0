//! AB9: shard-per-core server scaling — single-server throughput vs
//! modeled cores (batched CQ draining, one store stripe per core).

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

/// One throughput cell: a single server under `config`, `clients`
/// closed-loop clients doing a set phase then a get phase of
/// `ops_per_client` 512 B operations each. Connections are warmed before
/// the clock starts so setup cost never weighs on the scaling ratio.
pub fn engine_cell(
    config: KvServerConfig,
    clients: usize,
    ops_per_client: usize,
    capture: bool,
    trace: bool,
) -> (f64, f64, Option<CellTelemetry>) {
    let sim = Sim::new();
    if trace {
        sim.tracer().enable();
    }
    let fabric = Fabric::new(sim.clone(), clients + 1, NetConfig::default());
    let stack = RdmaStack::new(fabric);
    let servers = vec![KvServer::new(Rc::clone(&stack), NodeId(0), config)];
    let s = sim.clone();
    let out = sim.block_on(async move {
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
        // warm every connection off the clock
        let warms: Vec<_> = kv_clients
            .iter()
            .enumerate()
            .map(|(c, cl)| {
                let cl = Rc::clone(cl);
                let payload = payload.clone();
                s.spawn(async move {
                    let key = format!("warm{c}");
                    cl.set(key.as_bytes(), payload, 0, 0).await.unwrap();
                })
            })
            .collect();
        for w in warms {
            w.await;
        }
        let t0 = s.now();
        let mut handles = Vec::new();
        for (c, cl) in kv_clients.into_iter().enumerate() {
            let payload = payload.clone();
            let s2 = s.clone();
            handles.push(s.spawn(async move {
                for i in 0..ops_per_client {
                    let key = format!("c{c}-k{i}");
                    cl.set(key.as_bytes(), payload.clone(), 0, 0).await.unwrap();
                }
                let set_done = s2.now();
                for i in 0..ops_per_client {
                    let key = format!("c{c}-k{i}");
                    cl.get(key.as_bytes()).await.unwrap().unwrap();
                }
                (set_done, s2.now())
            }));
        }
        let mut set_end = t0;
        let mut get_end = t0;
        for h in handles {
            let (se, ge) = h.await;
            set_end = set_end.max(se);
            get_end = get_end.max(ge);
        }
        let total_ops = (clients * ops_per_client) as f64;
        let set_secs = (set_end - t0).as_secs_f64();
        let get_secs = (get_end - set_end).as_secs_f64();
        (
            total_ops / get_secs.max(1e-12) / 1e3,
            total_ops / set_secs.max(1e-12) / 1e3,
        )
    });
    let cell = capture.then(|| capture_cell(&sim));
    sim.reset();
    (out.0, out.1, cell)
}

/// AB9: single-server throughput vs modeled cores, 512 B values,
/// closed-loop clients, `cq_batch = 16`.
pub fn ab9_core_scaling(quick: bool, trace: bool) -> ExpReport {
    let cores_sweep: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let clients = if quick { 16 } else { 32 };
    let ops = if quick { 120 } else { 400 };
    let mut t = Table::new(
        "AB9: shard-per-core server scaling (K ops/s) — 1 server, 512 B values, cq_batch=16",
        &["server", "get Kops/s", "set Kops/s", "get vs 1 core"],
    );
    // reference: the seed's single-context per-connection model
    let (legacy_get, legacy_set, _) =
        engine_cell(KvServerConfig::default(), clients, ops, false, false);
    t.row(vec![
        "single-context".into(),
        format!("{legacy_get:.1}"),
        format!("{legacy_set:.1}"),
        "-".into(),
    ]);
    let mut one_core_get = 0.0;
    let mut four_core_get = 0.0;
    let mut telemetry = None;
    for &cores in cores_sweep {
        let rep = cores == 4;
        let (get_kops, set_kops, cell) = engine_cell(
            KvServerConfig {
                cores,
                cq_batch: 16,
                ..KvServerConfig::default()
            },
            clients,
            ops,
            rep,
            rep && trace,
        );
        if let Some(c) = cell {
            telemetry = Some(c);
        }
        if cores == 1 {
            one_core_get = get_kops;
        }
        if cores == 4 {
            four_core_get = get_kops;
        }
        t.row(vec![
            format!("{cores} cores"),
            format!("{get_kops:.1}"),
            format!("{set_kops:.1}"),
            format!("{:.2}x", get_kops / one_core_get.max(1e-12)),
        ]);
    }
    let scaling = four_core_get / one_core_get.max(1e-12);
    t.note(format!(
        "{scaling:.2}x get scaling 1→4 cores (target ≥3.2x)"
    ));
    ExpReport::new("AB9", t, scaling >= 3.2, telemetry)
}
