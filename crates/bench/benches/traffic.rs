//! Criterion bench of the open-loop traffic engine: the memoized
//! `Zipf::new` (a repeat construction over a million-key CDF must be a
//! cache lookup, not an O(n) rebuild — the guard for the AB11 hot-path
//! fix), Zipf sampling, and end-to-end arrival-event generation.
//! Run by hand (`cargo bench -p bench --bench traffic`); the gated
//! numbers are `workloads.probe.*` in `benchmark/`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use simkit::{SimRng, Zipf};
use workloads::traffic::{ArrivalProcess, TenantSpec, TrafficEngine, TrafficSpec};

const ZIPF_KEYS: usize = 1_000_000;

fn spec(horizon_ns: u64) -> TrafficSpec {
    TrafficSpec {
        tenants: vec![
            TenantSpec {
                tenant: 1,
                arrivals: ArrivalProcess::Poisson { rate: 200_000.0 },
                logical_clients: 500_000,
                keys: 4096,
                skew: 0.99,
                get_ratio: 0.95,
                value_size: 128,
            },
            TenantSpec {
                tenant: 2,
                arrivals: ArrivalProcess::Mmpp {
                    burst_rate: 300_000.0,
                    idle_rate: 2_000.0,
                    mean_burst_s: 0.010,
                    mean_idle_s: 0.030,
                },
                logical_clients: 500_000,
                keys: 4096,
                skew: 0.9,
                get_ratio: 0.9,
                value_size: 128,
            },
        ],
        horizon_ns,
    }
}

fn bench_traffic(c: &mut Criterion) {
    // warm the CDF cache once so the bench measures the memoized path —
    // the whole point of the guard: a regression to per-call O(n)
    // precompute shows up as a ~10^5x blowup here
    std::hint::black_box(Zipf::new(ZIPF_KEYS, 0.99));
    let mut g = c.benchmark_group("traffic");
    g.bench_function("zipf_new_memoized", |b| {
        b.iter(|| std::hint::black_box(Zipf::new(ZIPF_KEYS, 0.99)))
    });
    let zipf = Zipf::new(ZIPF_KEYS, 0.99);
    let rng = SimRng::seed_from(9);
    g.bench_function("zipf_sample", |b| {
        b.iter(|| std::hint::black_box(zipf.sample(&rng)))
    });
    let horizon: u64 = 100_000_000; // ~23k events across both tenants
    let events = TrafficEngine::new(&spec(horizon), &SimRng::seed_from(9))
        .collect_all()
        .len();
    g.throughput(Throughput::Elements(events as u64));
    g.bench_function("generate_events", |b| {
        b.iter(|| {
            std::hint::black_box(
                TrafficEngine::new(&spec(horizon), &SimRng::seed_from(9)).collect_all(),
            )
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_traffic
}
criterion_main!(benches);
