//! Criterion bench of the shard-per-core KV server: host-time cost of
//! simulating a closed-loop set+get workload against one server at
//! 1/2/4/8 modeled cores (and the single-context reference). This
//! measures the harness — what the engine's poller/core/replier tasks
//! cost per simulated op — not the simulated throughput (that is AB9).
//! Run by hand (`cargo bench -p bench --bench kvserver`); the gated
//! number is `host_cpu_s` on `kv_openloop` in `benchmark/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bench::experiments::kvserver::engine_cell;
use rkv::server::KvServerConfig;

const CLIENTS: usize = 8;
const OPS_PER_CLIENT: usize = 50;

fn bench_kvserver(c: &mut Criterion) {
    let mut g = c.benchmark_group("kvserver");
    // each cell runs a set phase and a get phase
    g.throughput(Throughput::Elements((CLIENTS * OPS_PER_CLIENT * 2) as u64));
    for &cores in &[1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("engine", cores), &cores, |b, &cores| {
            b.iter(|| {
                std::hint::black_box(engine_cell(
                    KvServerConfig {
                        cores,
                        cq_batch: 16,
                        ..KvServerConfig::default()
                    },
                    CLIENTS,
                    OPS_PER_CLIENT,
                    false,
                    false,
                ))
            });
        });
    }
    g.bench_function("single_context", |b| {
        b.iter(|| {
            std::hint::black_box(engine_cell(
                KvServerConfig::default(),
                CLIENTS,
                OPS_PER_CLIENT,
                false,
                false,
            ))
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_kvserver
}
criterion_main!(benches);
