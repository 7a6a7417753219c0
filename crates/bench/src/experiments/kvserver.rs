//! AB9: shard-per-core server scaling — single-server throughput vs
//! modeled cores (batched CQ draining, one store stripe per core), plus
//! the slab-calcification scenario the `reclaim_idle` knob exists for.

use std::rc::Rc;

use bytes::Bytes;
use netsim::{Fabric, NetConfig, NodeId};
use rdmasim::RdmaStack;
use rkv::server::KvServerConfig;
use rkv::slab::SlabConfig;
use rkv::store::KvStore;
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

/// The calcification scenario: fill the budget with 1 MiB-class items at
/// t = 0, then shift the workload to small items past the idle window.
/// Returns (strandable pages, pages reclaimed, small sets that stuck).
pub fn calcification(reclaim_idle_ns: u64) -> (u64, u64, u64) {
    let mut store = KvStore::new(SlabConfig {
        mem_limit: 8 << 20,
        ..SlabConfig::default()
    });
    store.set_reclaim_idle(reclaim_idle_ns);
    for i in 0..8 {
        let key = format!("big{i}");
        let _ = store.set(
            key.as_bytes(),
            Bytes::from(vec![0xbb; (1 << 20) - 100]),
            0,
            0,
            0,
        );
    }
    // every claimed page now belongs to the big class — all strandable
    let strandable: u64 = (0..store.slab().class_count())
        .map(|c| store.slab().pages_in(c as u8) as u64)
        .sum();
    // workload shift, two idle windows later
    let now = 2 * reclaim_idle_ns.max(1_000_000);
    let mut stored = 0u64;
    for i in 0..2048 {
        let key = format!("small{i}");
        if store
            .set(key.as_bytes(), Bytes::from(vec![1u8; 3 << 10]), 0, 0, now)
            .is_ok()
        {
            stored += 1;
        }
    }
    (strandable, store.stats().reclaimed_pages, stored)
}

/// AB9: single-server throughput vs modeled cores, 512 B values,
/// closed-loop clients, `cq_batch = 16` — plus the reclamation scenario.
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
    let (strandable, reclaimed, small_stored) = calcification(1_000_000);
    let (_, no_reclaim_pages, no_reclaim_stored) = calcification(0);
    let reclaim_frac = reclaimed as f64 / strandable.max(1) as f64;
    t.note(format!(
        "{scaling:.2}x get scaling 1→4 cores (target ≥3.2x); calcification: \
         {reclaimed}/{strandable} stranded pages reclaimed ({:.0}%), \
         {small_stored} small sets stuck vs {no_reclaim_stored} without reclaim \
         ({no_reclaim_pages} pages moved)",
        reclaim_frac * 100.0
    ));
    ExpReport::new("AB9", t, scaling >= 3.2 && reclaim_frac >= 0.9, telemetry)
}
