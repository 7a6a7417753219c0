//! Offline shim for `criterion`: the macro/struct surface the workspace's
//! benches use, over a simple wall-clock loop. No statistics beyond the
//! mean; good enough to rank configurations and spot regressions by eye.
//!
//! Set `CRITERION_JSON=<path>` to also dump `[{id, mean_ns, iters, ...}]`.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Per-benchmark measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark id (`group/name/param`).
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Iterations measured.
    pub iters: u64,
    /// Declared throughput denominator, if any.
    pub throughput: Option<Throughput>,
}

/// Work per iteration, for MB/s / Melem/s style reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Benchmark id: a name plus an optional parameter.
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            full: format!("{}/{}", name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            full: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { full: s }
    }
}

/// Harness entry point: collects results, prints them, optionally dumps JSON.
pub struct Criterion {
    sample_size: u64,
    measurement_time: Duration,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_millis(500),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Iterations to target per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1) as u64;
        self
    }

    /// Wall-clock budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Accepted for API compatibility; the shim does not warm up separately.
    pub fn warm_up_time(self, _d: Duration) -> Self {
        self
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        if let Ok(path) = std::env::var("CRITERION_JSON") {
            let rows: Vec<String> = self
                .results
                .iter()
                .map(|r| {
                    let (tp_kind, tp_val) = match r.throughput {
                        Some(Throughput::Bytes(b)) => ("bytes", b),
                        Some(Throughput::Elements(e)) => ("elements", e),
                        None => ("none", 0),
                    };
                    format!(
                        "  {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"iters\": {}, \"throughput_kind\": \"{}\", \"throughput_per_iter\": {}}}",
                        r.id, r.mean_ns, r.iters, tp_kind, tp_val
                    )
                })
                .collect();
            let doc = format!("[\n{}\n]\n", rows.join(",\n"));
            if let Err(e) = std::fs::write(&path, doc) {
                eprintln!("criterion shim: cannot write {path}: {e}");
            }
        }
    }
}

/// A group of related benchmarks sharing a throughput setting.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the per-iteration work for subsequent benches in this group.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Run a benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id.into().full);
        self.run(id, |b| f(b));
    }

    /// Run a benchmark parameterised by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = format!("{}/{}", self.name, id.full);
        self.run(id, |b| f(b, input));
    }

    /// Finish the group (no-op; results are flushed by `Criterion`).
    pub fn finish(self) {}

    fn run(&mut self, id: String, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            sample_size: self.criterion.sample_size,
            budget: self.criterion.measurement_time,
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut bencher);
        let iters = bencher.iters.max(1);
        let mean_ns = bencher.elapsed.as_nanos() as f64 / iters as f64;
        let rate = match self.throughput {
            Some(Throughput::Bytes(b)) => {
                format!("  {:>10.1} MB/s", b as f64 / mean_ns * 1e9 / 1e6)
            }
            Some(Throughput::Elements(e)) => {
                format!("  {:>10.2} Melem/s", e as f64 / mean_ns * 1e9 / 1e6)
            }
            None => String::new(),
        };
        println!("bench {id:<48} {mean_ns:>14.1} ns/iter{rate}");
        self.criterion.results.push(BenchResult {
            id,
            mean_ns,
            iters,
            throughput: self.throughput,
        });
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`].
pub struct Bencher {
    sample_size: u64,
    budget: Duration,
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    /// Time `f` repeatedly until the sample count or time budget is reached.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            std::hint::black_box(f());
            iters += 1;
            if iters >= self.sample_size || start.elapsed() >= self.budget {
                break;
            }
        }
        self.elapsed = start.elapsed();
        self.iters = iters;
    }
}

/// Declare a set of benchmark functions, mirroring criterion's macro forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generate `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}
