//! AB11 acceptance suite: statistical properties of the open-loop
//! traffic engine (Poisson/MMPP/Zipf against their analytic values, and
//! same-seed byte determinism), the per-tenant eviction-floor invariant,
//! hot-replica read consistency under write invalidation, and the
//! defaults-off registry regression (a server with every AB11 feature at
//! its default must produce a byte-identical snapshot to the pre-PR
//! engine path).

use std::rc::Rc;

use bytes::Bytes;
use netsim::{Fabric, NetConfig, NodeId};
use rdmasim::RdmaStack;
use rkv::server::KvServerConfig;
use rkv::{KvClient, KvClientConfig, KvServer, ShardedKv, SlabConfig};
use simkit::{dur, Sim, SimRng, Zipf};
use workloads::traffic::{ArrivalProcess, TenantSpec, TrafficEngine, TrafficSpec};

use bench::consistency::{Checker, History};
use bench::experiments::kvserver::engine_cell;
use bench::telemetry::has_metric_prefix;

fn one_tenant(arrivals: ArrivalProcess, skew: f64, horizon_ns: u64) -> TrafficSpec {
    TrafficSpec {
        tenants: vec![TenantSpec {
            tenant: 1,
            arrivals,
            logical_clients: 100_000,
            keys: 1024,
            skew,
            get_ratio: 0.9,
            value_size: 64,
        }],
        horizon_ns,
    }
}

/// Poisson arrivals: over a 2 s horizon at 50 Kops/s the sample mean
/// inter-arrival sits within a tight CI of 1/λ (the standard error of
/// the mean at n ≈ 100k is ~0.3 % of the mean; 3 % absorbs seeds).
#[test]
fn poisson_interarrival_mean_matches_rate() {
    let rate = 50_000.0;
    let spec = one_tenant(ArrivalProcess::Poisson { rate }, 0.0, 2_000_000_000);
    let events = TrafficEngine::new(&spec, &SimRng::seed_from(7)).collect_all();
    assert!(events.len() > 90_000, "got {} events", events.len());
    let mut prev = 0u64;
    let mut sum = 0u64;
    for ev in &events {
        assert!(ev.at_ns >= prev, "arrivals must be time-ordered");
        assert!(ev.at_ns < spec.horizon_ns, "arrivals must respect horizon");
        sum += ev.at_ns - prev;
        prev = ev.at_ns;
    }
    let mean = sum as f64 / events.len() as f64;
    let expect = 1e9 / rate;
    let rel = (mean - expect).abs() / expect;
    assert!(
        rel < 0.03,
        "Poisson mean inter-arrival {mean:.1} ns vs analytic {expect:.1} ns (rel {rel:.4})"
    );
}

/// MMPP arrivals: the observed event count over many burst/idle cycles
/// matches the analytic time-weighted mean rate, and sits strictly
/// between the idle and burst rates.
#[test]
fn mmpp_duty_cycle_matches_analytic_mean_rate() {
    let arrivals = ArrivalProcess::Mmpp {
        burst_rate: 100_000.0,
        idle_rate: 10_000.0,
        mean_burst_s: 0.010,
        mean_idle_s: 0.030,
    };
    let horizon_s = 4.0;
    let spec = one_tenant(arrivals, 0.0, (horizon_s * 1e9) as u64);
    let events = TrafficEngine::new(&spec, &SimRng::seed_from(21)).collect_all();
    let observed = events.len() as f64 / horizon_s;
    let expect = arrivals.mean_rate();
    let rel = (observed - expect).abs() / expect;
    // ~100 phase switches in 4 s; the phase-duration randomness dominates
    // the CI, so the tolerance is looser than the Poisson test's
    assert!(
        rel < 0.10,
        "MMPP observed rate {observed:.0}/s vs analytic mean {expect:.0}/s (rel {rel:.4})"
    );
    assert!(observed > 10_000.0 && observed < 100_000.0);
}

/// Zipf key popularity: the empirical rank-0 mass matches the analytic
/// `Zipf::prob(0)` at YCSB skew.
#[test]
fn zipf_rank0_mass_matches_analytic() {
    let spec = one_tenant(
        ArrivalProcess::Poisson { rate: 100_000.0 },
        0.99,
        2_000_000_000,
    );
    let events = TrafficEngine::new(&spec, &SimRng::seed_from(3)).collect_all();
    let n = events.len() as f64;
    let rank0 = events.iter().filter(|e| e.rank == 0).count() as f64;
    let expect = Zipf::new(1024, 0.99).prob(0);
    let rel = (rank0 / n - expect).abs() / expect;
    assert!(
        rel < 0.05,
        "rank-0 mass {:.4} vs analytic {expect:.4} (rel {rel:.4})",
        rank0 / n
    );
}

/// Same spec + same seed → byte-identical event streams; a different
/// seed must not reproduce the stream.
#[test]
fn same_seed_traffic_is_byte_identical() {
    let spec = TrafficSpec {
        tenants: vec![
            TenantSpec {
                tenant: 1,
                arrivals: ArrivalProcess::Poisson { rate: 30_000.0 },
                logical_clients: 1000,
                keys: 512,
                skew: 0.99,
                get_ratio: 0.95,
                value_size: 128,
            },
            TenantSpec {
                tenant: 2,
                arrivals: ArrivalProcess::Mmpp {
                    burst_rate: 80_000.0,
                    idle_rate: 1_000.0,
                    mean_burst_s: 0.005,
                    mean_idle_s: 0.015,
                },
                logical_clients: 1000,
                keys: 64,
                skew: 0.0,
                get_ratio: 0.5,
                value_size: 32,
            },
        ],
        horizon_ns: 200_000_000,
    };
    let a = TrafficEngine::new(&spec, &SimRng::seed_from(42)).collect_all();
    let b = TrafficEngine::new(&spec, &SimRng::seed_from(42)).collect_all();
    assert_eq!(a, b, "same-seed streams must be identical");
    assert!(!a.is_empty());
    let c = TrafficEngine::new(&spec, &SimRng::seed_from(43)).collect_all();
    assert_ne!(a, c, "different seeds must diverge");
}

/// The tenant-floor invariant: once tenant B's resident bytes exceed the
/// configured floor, another tenant's traffic can evict B down to the
/// floor but never below it — across randomized victim-tenant workloads.
/// With the floor disabled the same pressure starves B (the contrast that
/// proves the mechanism, not the workload, preserved B).
#[test]
fn tenant_floor_survives_hostile_tenant_traffic() {
    let run = |frac: f64, seed: u64| -> (u64, u64, u64) {
        let cfg = SlabConfig {
            mem_limit: 256 << 10,
            page_size: 4096,
            ..SlabConfig::default()
        };
        let store = ShardedKv::new(1, cfg);
        store.set_tenant_floor_frac(frac);
        let rng = SimRng::seed_from(seed);
        // B fills far past the floor (self-eviction keeps it near the cap)
        for i in 0..4096u32 {
            let key = format!("b{i}");
            let val = Bytes::from(vec![0xb0; 64 + rng.index(64)]);
            let _ = store.set_as(2, key.as_bytes(), val, 0, 0, i as u64);
        }
        let b_filled = store.tenant_bytes(2);
        // A hammers several multiples of the whole budget
        for i in 0..8192u32 {
            let key = format!("a{}", rng.index(2048));
            let val = Bytes::from(vec![0xaa; 32 + rng.index(96)]);
            let _ = store.set_as(1, key.as_bytes(), val, 0, 0, 10_000 + i as u64);
            let floor = (256_f64 * 1024.0 * frac) as u64;
            assert!(
                frac == 0.0 || store.tenant_bytes(2) >= floor.min(b_filled),
                "seed {seed}: B at {} bytes dropped below floor {floor}",
                store.tenant_bytes(2)
            );
        }
        (b_filled, store.tenant_bytes(2), store.floor_denied())
    };
    for seed in [1u64, 2, 3, 4, 5] {
        let floor = (256_f64 * 1024.0 * 0.25) as u64;
        let (filled, survived, denied) = run(0.25, seed);
        assert!(filled > floor, "fill must exceed the floor to test it");
        assert!(survived >= floor, "B ended at {survived}, floor {floor}");
        assert!(denied > 0, "the floor must actually have denied evictions");
        let (_, starved, no_denied) = run(0.0, seed);
        assert!(
            starved < floor,
            "without a floor A's pressure must push B below it (got {starved})"
        );
        assert_eq!(no_denied, 0, "frac 0.0 must disable the floor entirely");
    }
}

/// Hot-replica consistency: a writer bumps a counter value in one hot key
/// while readers hammer it hard enough to promote it and serve from
/// replicas. Dispatch order is the linearization order, so every
/// client's view must be monotone (a stale replica read after a Set
/// invalidation would show a counter going backwards) and the sequential
/// checker must accept the history. The scenario must actually exercise
/// the replica path to prove anything.
#[test]
fn hot_replica_reads_are_never_stale_across_invalidation() {
    let sim = Sim::new();
    let readers = 3usize;
    let fabric = Fabric::new(sim.clone(), readers + 2, NetConfig::default());
    let stack = RdmaStack::new(fabric);
    let server = KvServer::new(
        Rc::clone(&stack),
        NodeId(0),
        KvServerConfig {
            cores: 4,
            cq_batch: 8,
            proc_time: dur::us(5),
            hot_replicas: 3,
            hot_window: 256,
            hot_min_count: 16,
            ..KvServerConfig::default()
        },
    );
    let history = History::new();
    let servers = vec![server];
    let violations = sim.block_on({
        let sim = sim.clone();
        let history = Rc::clone(&history);
        async move {
            let writer = KvClient::new(
                Rc::clone(&stack),
                NodeId(1),
                servers.clone(),
                KvClientConfig::default(),
            );
            history.attach(&writer);
            writer
                .set(b"hot", Bytes::from(0u64.to_le_bytes().to_vec()), 0, 0)
                .await
                .expect("seed value");
            let mut handles = Vec::new();
            for r in 0..readers {
                let cl = KvClient::new(
                    Rc::clone(&stack),
                    NodeId((2 + r) as u32),
                    servers.clone(),
                    KvClientConfig::default(),
                );
                history.attach(&cl);
                let sim2 = sim.clone();
                handles.push(sim.spawn(async move {
                    let mut last = 0u64;
                    let mut backwards = 0u64;
                    for _ in 0..500 {
                        let v = cl
                            .get(b"hot")
                            .await
                            .expect("get")
                            .expect("hot key always present");
                        let mut buf = [0u8; 8];
                        buf.copy_from_slice(&v.data[..8]);
                        let n = u64::from_le_bytes(buf);
                        if n < last {
                            backwards += 1;
                        }
                        last = last.max(n);
                        sim2.sleep(dur::us(2)).await;
                    }
                    backwards
                }));
            }
            // writer: bump the counter, then immediately read it back —
            // read-your-writes must hold through the replica cache
            let mut violations = 0u64;
            for i in 1..=200u64 {
                writer
                    .set(b"hot", Bytes::from(i.to_le_bytes().to_vec()), 0, 0)
                    .await
                    .expect("set");
                let v = writer
                    .get(b"hot")
                    .await
                    .expect("get")
                    .expect("hot key always present");
                let mut buf = [0u8; 8];
                buf.copy_from_slice(&v.data[..8]);
                if u64::from_le_bytes(buf) < i {
                    violations += 1;
                }
                sim.sleep(dur::us(10)).await;
            }
            for h in handles {
                violations += h.await;
            }
            violations
        }
    });
    assert_eq!(violations, 0, "stale hot-replica reads observed");
    let m = sim.metrics();
    assert!(
        m.counter("rkv.hot.server0.replica_hits").get() > 0,
        "scenario never exercised the replica path"
    );
    assert!(
        m.counter("rkv.hot.server0.invalidations").get() > 0,
        "scenario never invalidated a cached hot value"
    );
    let verdict = history.check(Checker { forbid_miss: true });
    assert!(verdict.ok(), "sequential checker rejected: {verdict:?}");
}

/// Defaults-off regression: with `hot_replicas`, `tenant_rate` and
/// `tenant_floor_frac` all at their defaults, the engine snapshot is
/// byte-identical to one from a config that spells the defaults out, and
/// carries none of the gated `rkv.hot.*` / `rkv.tenant.*` families — the
/// pre-PR registry is untouched.
#[test]
fn defaults_off_registry_is_byte_identical_to_pre_feature_path() {
    let base = KvServerConfig {
        cores: 4,
        cq_batch: 16,
        ..KvServerConfig::default()
    };
    let explicit = KvServerConfig {
        hot_replicas: 0,
        hot_window: 4096,
        hot_min_count: 64,
        tenant_floor_frac: 0.0,
        tenant_rate: 0.0,
        ..base
    };
    let cell = |cfg| {
        let (_, _, telem) = engine_cell(cfg, 16, 120, true, false);
        telem.expect("capture requested").snapshot.to_json()
    };
    let a = cell(base);
    let b = cell(explicit);
    assert_eq!(a, b, "spelled-out defaults must not perturb the snapshot");
    for prefix in ["rkv.hot.", "rkv.tenant."] {
        assert!(
            !has_metric_prefix(&a, prefix),
            "defaults-off snapshot must not register {prefix:?}"
        );
    }
    // and the features ON do register their families, deterministically
    let on = KvServerConfig {
        hot_replicas: 3,
        tenant_rate: 50_000.0,
        tenant_floor_frac: 0.1,
        ..base
    };
    let c = cell(on);
    let d = cell(on);
    assert_eq!(c, d, "feature-on engine must stay deterministic");
    for prefix in ["rkv.hot.", "rkv.tenant."] {
        assert!(
            has_metric_prefix(&c, prefix),
            "feature-on snapshot must carry {prefix:?}"
        );
    }
}
