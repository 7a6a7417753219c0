//! E1/E2: key-value store microbenchmarks — the RDMA-vs-IPoIB-vs-Ethernet
//! latency figure and the client-scaling throughput figure.

use std::rc::Rc;

use bytes::Bytes;
use netsim::{Fabric, NetConfig, NodeId, TransportProfile};
use rdmasim::RdmaStack;
use rkv::server::KvServerConfig;
use rkv::{KvClient, KvClientConfig, KvServer};
use simkit::Sim;

use crate::experiments::ExpReport;
use crate::table::Table;
use crate::telemetry::{capture_cell, CellTelemetry};

fn transports() -> [TransportProfile; 3] {
    [
        TransportProfile::verbs_qdr(),
        TransportProfile::ipoib_qdr(),
        TransportProfile::ten_gige(),
    ]
}

/// Measure one (transport, value size) cell: mean set and get latency.
/// The representative cell (verbs, 4 KiB) passes `capture` to keep its
/// telemetry; `trace` additionally records spans.
fn latency_cell(
    profile: TransportProfile,
    value_size: usize,
    reps: usize,
    capture: bool,
    trace: bool,
) -> (f64, f64, Option<CellTelemetry>) {
    let sim = Sim::new();
    if trace {
        sim.tracer().enable();
    }
    let fabric = Fabric::new(sim.clone(), 2, NetConfig::default());
    let stack = RdmaStack::with_profile(fabric, profile);
    let server = KvServer::new(Rc::clone(&stack), NodeId(0), KvServerConfig::default());
    let client = KvClient::new(
        Rc::clone(&stack),
        NodeId(1),
        vec![server],
        KvClientConfig::default(),
    );
    let s = sim.clone();
    let out = sim.block_on(async move {
        let payload = Bytes::from(vec![0x5au8; value_size]);
        // warm the connection and the key
        client.set(b"warm", payload.clone(), 0, 0).await.unwrap();
        let t0 = s.now();
        for i in 0..reps {
            let key = format!("k{}", i % 8);
            client
                .set(key.as_bytes(), payload.clone(), 0, 0)
                .await
                .unwrap();
        }
        let set_lat = (s.now() - t0).as_secs_f64() / reps as f64;
        let t1 = s.now();
        for i in 0..reps {
            let key = format!("k{}", i % 8);
            client.get(key.as_bytes()).await.unwrap().unwrap();
        }
        let get_lat = (s.now() - t1).as_secs_f64() / reps as f64;
        (set_lat, get_lat)
    });
    let cell = capture.then(|| capture_cell(&sim));
    sim.reset();
    (out.0, out.1, cell)
}

/// E1: set/get latency vs value size across transports.
pub fn e1_kv_latency(_quick: bool, trace: bool) -> ExpReport {
    // the largest value stays under memcached's 1 MiB item limit
    // (key + header + value must fit the top slab class)
    let sizes = [
        64usize,
        1 << 10,
        4 << 10,
        16 << 10,
        64 << 10,
        256 << 10,
        (1 << 20) - 128,
    ];
    let mut t = Table::new(
        "E1: KV store latency (µs) vs value size — hybrid protocol per transport",
        &[
            "size",
            "verbs set",
            "verbs get",
            "ipoib set",
            "ipoib get",
            "10gige set",
            "10gige get",
        ],
    );
    let mut verbs_small_get = 0.0;
    let mut ipoib_small_get = 0.0;
    let mut telemetry = None;
    for &size in &sizes {
        let mut cells = vec![human_size(size)];
        for (ti, profile) in transports().iter().enumerate() {
            let rep = size == 4 << 10 && ti == 0;
            let (set_s, get_s, cell) = latency_cell(*profile, size, 30, rep, rep && trace);
            if let Some(c) = cell {
                telemetry = Some(c);
            }
            if size == 4 << 10 {
                if ti == 0 {
                    verbs_small_get = get_s;
                }
                if ti == 1 {
                    ipoib_small_get = get_s;
                }
            }
            cells.push(format!("{:.1}", set_s * 1e6));
            cells.push(format!("{:.1}", get_s * 1e6));
        }
        t.row(cells);
    }
    let speedup = ipoib_small_get / verbs_small_get.max(1e-12);
    t.note(format!(
        "verbs beats IPoIB by {speedup:.1}x on 4 KiB gets (paper: RDMA-Memcached ≫ IPoIB-memcached)"
    ));
    let shape_holds = speedup > 2.0;
    ExpReport::new("E1", t, shape_holds, telemetry)
}

/// E2: aggregate throughput vs concurrent clients.
pub fn e2_kv_throughput(quick: bool, trace: bool) -> ExpReport {
    let client_counts: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    let mut t = Table::new(
        "E2: KV store throughput (K ops/s) vs concurrent clients — 4 KiB values",
        &["clients", "get Kops/s", "set Kops/s"],
    );
    let mut first_get = 0.0;
    let mut last_get = 0.0;
    let mut telemetry = None;
    for &n in client_counts {
        let rep = n == *client_counts.last().unwrap();
        let (get_kops, set_kops, cell) =
            throughput_cell(n, 4 << 10, if quick { 150 } else { 400 }, rep, rep && trace);
        if let Some(c) = cell {
            telemetry = Some(c);
        }
        if first_get == 0.0 {
            first_get = get_kops;
        }
        last_get = get_kops;
        t.row(vec![
            n.to_string(),
            format!("{get_kops:.1}"),
            format!("{set_kops:.1}"),
        ]);
    }
    let scaling = last_get / first_get.max(1e-12);
    t.note(format!(
        "{}x get-throughput scaling from {} to {} clients",
        scaling as u64,
        client_counts[0],
        client_counts[client_counts.len() - 1]
    ));
    ExpReport::new(
        "E2",
        t,
        scaling > client_counts.len() as f64 / 2.0,
        telemetry,
    )
}

fn throughput_cell(
    clients: usize,
    value_size: usize,
    ops_per_client: usize,
    capture: bool,
    trace: bool,
) -> (f64, f64, Option<CellTelemetry>) {
    let sim = Sim::new();
    if trace {
        sim.tracer().enable();
    }
    let fabric = Fabric::new(sim.clone(), clients + 2, NetConfig::default());
    let stack = RdmaStack::new(fabric);
    // two servers so multi-client runs are not a single-NIC measurement
    let servers = vec![
        KvServer::new(Rc::clone(&stack), NodeId(0), KvServerConfig::default()),
        KvServer::new(Rc::clone(&stack), NodeId(1), KvServerConfig::default()),
    ];
    let s = sim.clone();
    let out = sim.block_on(async move {
        let payload = Bytes::from(vec![1u8; value_size]);
        let mut handles = Vec::new();
        let t0 = s.now();
        for c in 0..clients {
            let client = KvClient::new(
                Rc::clone(&stack),
                NodeId((c + 2) as u32),
                servers.clone(),
                KvClientConfig::default(),
            );
            let payload = payload.clone();
            let s2 = s.clone();
            handles.push(s.spawn(async move {
                for i in 0..ops_per_client {
                    let key = format!("c{c}-k{i}");
                    client
                        .set(key.as_bytes(), payload.clone(), 0, 0)
                        .await
                        .unwrap();
                }
                let set_done = s2.now();
                for i in 0..ops_per_client {
                    let key = format!("c{c}-k{i}");
                    client.get(key.as_bytes()).await.unwrap().unwrap();
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

fn human_size(n: usize) -> String {
    if n >= 1 << 20 {
        format!("{}MiB", n >> 20)
    } else if n >= 1 << 10 {
        format!("{}KiB", n >> 10)
    } else {
        format!("{n}B")
    }
}
