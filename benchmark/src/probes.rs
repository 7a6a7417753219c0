//! Layer probes: for every crate, an isolated micro-run of its public
//! functions. A host probe reports ns per call as the median of
//! [`BATCHES`] batches (thread CPU clock); a sim probe reports the exact
//! virtual cost of the call on an otherwise idle model. They carry the
//! intent of `crates/bench/benches/*.rs` without depending on that crate.
//!
//! A probe says what one call of a layer costs in isolation; the workload
//! counts say how many such calls a workload makes. Together they predict
//! which end-to-end metric a layer change can move (README, interaction
//! table).

use std::hint::black_box;
use std::rc::Rc;

use bb_core::fs::AnyFs;
use bytes::Bytes;
use hdfs::{HdfsCluster, HdfsConfig};
use lustre::LustreCluster;
use netsim::{Fabric, NetConfig, NodeId, TransportProfile};
use rdmasim::{QpConfig, RdmaStack};
use rkv::proto::{Carrier, Request};
use rkv::server::KvServerConfig;
use rkv::slab::{SlabAllocator, SlabConfig};
use rkv::store::KvStore;
use rkv::{crc32c, HashRing, KvClient, KvClientConfig, KvServer};
use simkit::sync::{mpsc, semaphore::Semaphore};
use simkit::{dur, Sim, SimRng, Zipf};
use storesim::{Disk, DiskKind, ObjectStore};
use workloads::traffic::{ArrivalProcess, TenantSpec, TrafficEngine, TrafficSpec};
use workloads::{PayloadPool, TestbedConfig};

use crate::host::thread_cpu_ns;
use crate::metrics::Values;
use crate::workloads::drive;

/// Batches per host probe; the median is reported.
const BATCHES: usize = 7;

/// Median over [`BATCHES`] runs of `batch`, which returns
/// `(host ns, calls)`; the result is ns per call.
fn per_call(mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    let mut v: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ns, calls) = batch();
            ns as f64 / calls as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[BATCHES / 2]
}

/// Host probe of a plain function: `iters` calls per batch.
fn loop_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    per_call(|| {
        let t0 = thread_cpu_ns();
        for i in 0..iters {
            f(i);
        }
        (thread_cpu_ns() - t0, iters)
    })
}

/// Probe of a simulated scenario: `build` makes a fresh simulation and
/// returns `(sim, future)`; the future performs `calls` calls inside a
/// [`Timed`] section and returns it. Returns `(host ns per call, virtual
/// ns per call)`.
fn sim_probe<F>(calls: u64, mut build: impl FnMut() -> (Sim, F)) -> (f64, f64)
where
    F: std::future::Future<Output = Timed> + 'static,
{
    let mut virt = 0u64;
    let host = per_call(|| {
        let (sim, fut) = build();
        let timed = drive(&sim, fut);
        sim.reset();
        virt = timed.virt_ns;
        (timed.host_ns, calls)
    });
    (host, virt as f64 / calls as f64)
}

/// The timed section of a simulated probe, on both clocks.
struct Timed {
    host_ns: u64,
    virt_ns: u64,
}

/// Opens a [`Timed`] section.
struct TimedStart {
    sim: Sim,
    host0: u64,
    virt0: u64,
}

impl TimedStart {
    fn now(sim: &Sim) -> TimedStart {
        TimedStart {
            sim: sim.clone(),
            host0: thread_cpu_ns(),
            virt0: sim.now().as_nanos(),
        }
    }

    fn stop(self) -> Timed {
        Timed {
            host_ns: thread_cpu_ns() - self.host0,
            virt_ns: self.sim.now().as_nanos() - self.virt0,
        }
    }
}

fn simkit(out: &mut Values) {
    out.set(
        "simkit.probe.timer_ns",
        per_call(|| {
            let sim = Sim::new();
            let s = sim.clone();
            sim.spawn(async move {
                for i in 0..20_000u64 {
                    s.sleep(dur::ns(i % 1013)).await;
                }
            });
            let t0 = thread_cpu_ns();
            sim.run();
            (thread_cpu_ns() - t0, 20_000)
        }),
    );
    out.set(
        "simkit.probe.spawn_ns",
        per_call(|| {
            let sim = Sim::new();
            let t0 = thread_cpu_ns();
            for i in 0..5_000u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    s.sleep(dur::us(i % 97)).await;
                });
            }
            sim.run();
            (thread_cpu_ns() - t0, 5_000)
        }),
    );
    out.set(
        "simkit.probe.chan_ns",
        per_call(|| {
            let sim = Sim::new();
            let (tx_a, mut rx_a) = mpsc::unbounded::<u64>();
            let (tx_b, mut rx_b) = mpsc::unbounded::<u64>();
            sim.spawn(async move {
                for i in 0..5_000u64 {
                    tx_a.try_send(i).expect("open");
                    rx_b.recv().await.expect("open");
                }
            });
            sim.spawn(async move {
                while let Ok(v) = rx_a.recv().await {
                    if tx_b.try_send(v).is_err() {
                        break;
                    }
                }
            });
            let t0 = thread_cpu_ns();
            sim.run();
            // one round trip = two messages
            (thread_cpu_ns() - t0, 10_000)
        }),
    );
    out.set(
        "simkit.probe.sem_ns",
        per_call(|| {
            let sim = Sim::new();
            let sem = Semaphore::new(2);
            for _ in 0..8 {
                let (s, sem) = (sim.clone(), sem.clone());
                sim.spawn(async move {
                    for _ in 0..500 {
                        let permit = sem.acquire().await;
                        s.sleep(dur::ns(100)).await;
                        drop(permit);
                    }
                });
            }
            let t0 = thread_cpu_ns();
            sim.run();
            (thread_cpu_ns() - t0, 4_000)
        }),
    );
}

fn netsim(out: &mut Values) {
    let transfer = |bytes: u64| {
        sim_probe(2_000, move || {
            let sim = Sim::new();
            let fabric = Fabric::new(sim.clone(), 2, NetConfig::default());
            let s = sim.clone();
            (sim, async move {
                let profile = TransportProfile::verbs_qdr();
                let t = TimedStart::now(&s);
                for _ in 0..2_000 {
                    fabric
                        .transfer(NodeId(0), NodeId(1), bytes, &profile)
                        .await
                        .expect("transfer");
                }
                t.stop()
            })
        })
    };
    out.set("netsim.probe.transfer_4k_ns", transfer(4 << 10).0);
    let (host, virt) = transfer(512 << 10);
    out.set("netsim.probe.transfer_512k_ns", host);
    out.set("netsim.probe.transfer_512k_sim_us", virt / 1e3);
}

fn rdmasim(out: &mut Values) {
    let (host, _) = sim_probe(2_000, || {
        let sim = Sim::new();
        let stack = RdmaStack::new(Fabric::new(sim.clone(), 2, NetConfig::default()));
        let s = sim.clone();
        (sim, async move {
            let (a, b) = stack
                .connect(NodeId(0), NodeId(1), QpConfig::default())
                .await
                .expect("connect");
            let msg = Bytes::from(vec![7u8; 64]);
            let t = TimedStart::now(&s);
            for _ in 0..2_000 {
                a.send(msg.clone()).await.expect("send");
                black_box(b.recv().await.expect("recv"));
            }
            t.stop()
        })
    });
    out.set("rdmasim.probe.send_recv_ns", host);
    let (host, virt) = sim_probe(64, || {
        let sim = Sim::new();
        let stack = RdmaStack::new(Fabric::new(sim.clone(), 2, NetConfig::default()));
        let s = sim.clone();
        (sim, async move {
            let (a, _b) = stack
                .connect(NodeId(0), NodeId(1), QpConfig::default())
                .await
                .expect("connect");
            let mr = stack.register(NodeId(1), 512 << 10).await;
            mr.write_local(0, &vec![9u8; 512 << 10]).expect("fill");
            let remote = mr.remote();
            let t = TimedStart::now(&s);
            for _ in 0..64 {
                black_box(a.read(&remote, 0, 512 << 10).await.expect("read"));
            }
            t.stop()
        })
    });
    out.set("rdmasim.probe.read_512k_ns", host);
    out.set("rdmasim.probe.read_512k_sim_us", virt / 1e3);
}

fn storesim(out: &mut Values, pool: &PayloadPool) {
    let run = |read: bool| {
        let pool = pool.clone();
        sim_probe(64, move || {
            let sim = Sim::new();
            let store = ObjectStore::new(Disk::of_kind(sim.clone(), DiskKind::Hdd, 1 << 40));
            let (s, pool) = (sim.clone(), pool.clone());
            (sim, async move {
                let mut t = TimedStart::now(&s);
                for i in 0..64u64 {
                    store
                        .append(1, pool.slice(i, 1 << 20))
                        .await
                        .expect("append");
                }
                if read {
                    t = TimedStart::now(&s);
                    for i in 0..64u64 {
                        black_box(store.read_at(1, i << 20, 1 << 20).await.expect("read"));
                    }
                }
                t.stop()
            })
        })
    };
    let (write_host, write_virt) = run(false);
    out.set("storesim.probe.obj_write_1m_ns", write_host);
    out.set("storesim.probe.obj_read_1m_ns", run(true).0);
    out.set("storesim.probe.hdd_write_1m_sim_us", write_virt / 1e3);
}

/// One KV server + one client; `calls` timed ops of `size` bytes after a
/// warm-up set. Returns `(host ns, virtual ns)` per op.
fn kv_client(config: KvServerConfig, size: usize, get: bool, calls: u64) -> (f64, f64) {
    sim_probe(calls, move || {
        let sim = Sim::new();
        let stack = RdmaStack::new(Fabric::new(sim.clone(), 2, NetConfig::default()));
        let servers = vec![KvServer::new(Rc::clone(&stack), NodeId(0), config)];
        let s = sim.clone();
        (sim, async move {
            let cl = KvClient::new(stack, NodeId(1), servers, KvClientConfig::default());
            let value = Bytes::from(vec![0x5au8; size]);
            cl.set(b"probe", value.clone(), 0, 0)
                .await
                .expect("warm set");
            let t = TimedStart::now(&s);
            for _ in 0..calls {
                if get {
                    black_box(cl.get(b"probe").await.expect("get"));
                } else {
                    cl.set(b"probe", value.clone(), 0, 0).await.expect("set");
                }
            }
            t.stop()
        })
    })
}

fn rkv(out: &mut Values) {
    let buf = vec![0xa5u8; 1 << 20];
    let ns_per_mib = loop_ns(16, |_| {
        black_box(crc32c(black_box(&buf)));
    });
    out.set("rkv.probe.crc32c_gbps", (1u64 << 20) as f64 / ns_per_mib);

    let slab_cfg = SlabConfig {
        mem_limit: 64 << 20,
        ..SlabConfig::default()
    };
    let mut slab = SlabAllocator::new(slab_cfg);
    let payload = vec![0xa5u8; 4096];
    out.set(
        "rkv.probe.slab_alloc_free_4k_ns",
        loop_ns(20_000, |_| {
            let chunk = slab.alloc(4096).expect("capacity");
            slab.write(chunk, &payload);
            black_box(slab.read(chunk, 4096)[0]);
            slab.free(chunk);
        }),
    );

    let v4k = Bytes::from(vec![1u8; 4096]);
    let mut store = KvStore::new(slab_cfg);
    out.set(
        "rkv.probe.store_set_4k_ns",
        loop_ns(20_000, |i| {
            let key = [(i % 251) as u8, (i / 251 % 251) as u8, 7, 9];
            store.set(&key, v4k.clone(), 0, 0, 0).expect("set");
        }),
    );
    let keys: Vec<String> = (0..1000).map(|i| format!("key-{i}")).collect();
    for k in &keys {
        store.set(k.as_bytes(), v4k.clone(), 0, 0, 0).expect("set");
    }
    out.set(
        "rkv.probe.store_get_4k_ns",
        loop_ns(20_000, |i| {
            black_box(
                store
                    .get(keys[i as usize % 1000].as_bytes(), 0)
                    .expect("hit"),
            );
        }),
    );
    // store far smaller than the working set: every set evicts
    let mut small = KvStore::new(SlabConfig {
        mem_limit: 2 << 20,
        ..SlabConfig::default()
    });
    let v16k = Bytes::from(vec![2u8; 16 << 10]);
    let mut n = 0u64;
    out.set(
        "rkv.probe.store_set_evict_16k_ns",
        loop_ns(5_000, |_| {
            n += 1;
            small
                .set(&n.to_le_bytes(), v16k.clone(), 0, 0, 0)
                .expect("set");
        }),
    );

    let set_inline = Request::Set {
        key: Bytes::from_static(b"blk_123456_42"),
        flags: 7,
        expire_at: 0,
        value: Carrier::Inline(v4k.clone()),
    };
    out.set(
        "rkv.probe.proto_encode_4k_ns",
        loop_ns(20_000, |_| {
            black_box(set_inline.encode());
        }),
    );
    let frame = set_inline.encode();
    out.set(
        "rkv.probe.proto_decode_4k_ns",
        loop_ns(20_000, |_| {
            black_box(Request::decode(frame.clone()).expect("decode"));
        }),
    );

    let labels: Vec<String> = (0..16).map(|i| format!("kv-server-{i}")).collect();
    let ring = HashRing::new((0..16usize).collect(), &labels, 160);
    let ring_keys: Vec<String> = (0..977).map(|i| format!("f{i}:{}", i % 61)).collect();
    out.set(
        "rkv.probe.ring_route_ns",
        loop_ns(50_000, |i| {
            black_box(*ring.route(ring_keys[i as usize % 977].as_bytes()));
        }),
    );

    let single = KvServerConfig::default();
    let engine = KvServerConfig {
        cores: 4,
        cq_batch: 16,
        ..KvServerConfig::default()
    };
    out.set(
        "rkv.probe.client_get_128_ns",
        kv_client(single, 128, true, 2_000).0,
    );
    out.set(
        "rkv.probe.client_get_128_engine_ns",
        kv_client(engine, 128, true, 2_000).0,
    );
    out.set(
        "rkv.probe.client_set_512k_ns",
        kv_client(single, 512 << 10, false, 48).0,
    );
    let (host, virt) = kv_client(single, 512 << 10, true, 48);
    out.set("rkv.probe.client_get_512k_ns", host);
    out.set("rkv.probe.get_512k_sim_us", virt / 1e3);
    out.set(
        "rkv.probe.get_4k_sim_us",
        kv_client(single, 4096, true, 200).1 / 1e3,
    );
    out.set(
        "rkv.probe.set_4k_sim_us",
        kv_client(single, 4096, false, 200).1 / 1e3,
    );
}

/// 64 sequential 1 MiB appends then 64 sequential 1 MiB reads through a
/// DFS client on a fresh 4-node fabric; sets the layer's four probes.
fn dfs_stream(
    out: &mut Values,
    layer: &str,
    pool: &PayloadPool,
    deploy: impl Fn(&Rc<Fabric>) -> AnyFs + Copy + 'static,
) {
    let run = |read: bool| {
        let pool = pool.clone();
        sim_probe(64, move || {
            let sim = Sim::new();
            let client = deploy(&Fabric::new(sim.clone(), 4, NetConfig::default()));
            let (s, pool) = (sim.clone(), pool.clone());
            (sim, async move {
                let w = client.create("/probe").await.expect("create");
                let mut t = TimedStart::now(&s);
                for i in 0..64u64 {
                    w.append(pool.slice(i, 1 << 20)).await.expect("append");
                }
                w.close().await.expect("close");
                if read {
                    let r = client.open("/probe").await.expect("open");
                    t = TimedStart::now(&s);
                    for i in 0..64u64 {
                        black_box(r.read_at(i << 20, 1 << 20).await.expect("read"));
                    }
                }
                t.stop()
            })
        })
    };
    let (write_host, write_virt) = run(false);
    let (read_host, read_virt) = run(true);
    let mbps = |virt_ns_per_mib: f64| (1u64 << 20) as f64 / 1e6 / (virt_ns_per_mib / 1e9);
    out.set(&format!("{layer}.probe.write_1m_ns"), write_host);
    out.set(&format!("{layer}.probe.read_1m_ns"), read_host);
    out.set(&format!("{layer}.probe.write_sim_mbps"), mbps(write_virt));
    out.set(&format!("{layer}.probe.read_sim_mbps"), mbps(read_virt));
}

fn lustre(out: &mut Values, pool: &PayloadPool) {
    dfs_stream(out, "lustre", pool, |fabric| {
        let config = TestbedConfig::default().lustre;
        AnyFs::Lustre(LustreCluster::deploy(fabric, config).client(NodeId(0)))
    });
}

fn hdfs(out: &mut Values, pool: &PayloadPool) {
    dfs_stream(out, "hdfs", pool, |fabric| {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        AnyFs::Hdfs(HdfsCluster::deploy(fabric, &nodes, HdfsConfig::default()).client(NodeId(0)))
    });
}

fn workloads(out: &mut Values, pool: &PayloadPool) {
    let spec = TrafficSpec {
        tenants: vec![TenantSpec {
            tenant: 1,
            arrivals: ArrivalProcess::Poisson { rate: 140e3 },
            logical_clients: 500_000,
            keys: 2048,
            skew: 0.99,
            get_ratio: 0.99,
            value_size: 128,
        }],
        horizon_ns: 100_000_000,
    };
    out.set(
        "workloads.probe.traffic_gen_ns",
        per_call(|| {
            let mut engine = TrafficEngine::new(&spec, &SimRng::seed_from(11));
            let t0 = thread_cpu_ns();
            let n = engine.collect_all().len() as u64;
            (thread_cpu_ns() - t0, n)
        }),
    );
    let (zipf, rng) = (Zipf::new(2048, 0.99), SimRng::seed_from(11));
    out.set(
        "workloads.probe.zipf_sample_ns",
        loop_ns(50_000, |_| {
            black_box(zipf.sample(&rng));
        }),
    );
    out.set(
        "workloads.probe.payload_ns_per_mib",
        loop_ns(200, |i| {
            black_box(pool.stream(i, 64 << 20, 1 << 20));
        }) / 64.0,
    );
}

/// Run every probe.
pub fn run() -> Values {
    let mut out = Values::default();
    let pool = PayloadPool::standard();
    simkit(&mut out);
    netsim(&mut out);
    rdmasim(&mut out);
    storesim(&mut out, &pool);
    rkv(&mut out);
    lustre(&mut out, &pool);
    hdfs(&mut out, &pool);
    workloads(&mut out, &pool);
    out
}
