//! The six workloads. Each is one function `rep(&Opts) -> RepOut`: build a
//! fresh deployment (setup), run the measured phase, read the observers.
//!
//! Seed 0 is the reference layout of EXPERIMENTS.md (E3/E4/E7/AB11 cells);
//! any other seed perturbs task start offsets, the file→node mapping, the
//! arrival stream and the fault-plan times — never the data sizes or the
//! program's config.

pub mod dfsio;
pub mod elastic;
pub mod kv_openloop;
pub mod sort;

use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use simkit::{dur, Sim, SimRng};

use crate::host::PhaseCost;
use crate::metrics::Values;
use crate::spans::{SpanId, Spans};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TestDFSIO write, 16 × 64 MiB (E3's 1 GiB BB-Async cell).
    DfsioWrite,
    /// The same dataset read back buffer-hot (E4's cell).
    DfsioRead,
    /// Dataset 4× the buffer: eviction, write-through, Lustre read tier.
    DfsioReadSpill,
    /// TeraGen + Sort, 512 MiB (E7's cell).
    Sort,
    /// Open-loop Poisson × Zipf gets/sets against one engine server (AB11).
    KvOpenloop,
    /// Writers beside readers beside membership churn (AB8's deployment).
    ElasticMixed,
}

impl Workload {
    /// All six, in suite order.
    pub const ALL: [Workload; 6] = [
        Workload::DfsioWrite,
        Workload::DfsioRead,
        Workload::DfsioReadSpill,
        Workload::Sort,
        Workload::KvOpenloop,
        Workload::ElasticMixed,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DfsioWrite => "dfsio_write",
            Workload::DfsioRead => "dfsio_read",
            Workload::DfsioReadSpill => "dfsio_read_spill",
            Workload::Sort => "sort",
            Workload::KvOpenloop => "kv_openloop",
            Workload::ElasticMixed => "elastic_mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Run one rep.
    pub fn rep(self, opts: &Opts) -> RepOut {
        match self {
            Workload::DfsioWrite => dfsio::rep(dfsio::Mode::Write, opts),
            Workload::DfsioRead => dfsio::rep(dfsio::Mode::Read, opts),
            Workload::DfsioReadSpill => dfsio::rep(dfsio::Mode::ReadSpill, opts),
            Workload::Sort => sort::rep(opts),
            Workload::KvOpenloop => kv_openloop::rep(opts),
            Workload::ElasticMixed => elastic::rep(opts),
        }
    }
}

/// How one rep is run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed (0 = reference layout).
    pub seed: u64,
    /// Size divisor: 1 for timed runs, 8 for `--check`.
    pub shrink: u64,
    /// Byte-verify every read instead of the fixed 1-in-16 sample.
    pub verify_all: bool,
    /// Traced pass: program tracers on, benchmark spans recorded.
    pub trace: bool,
    /// Also do the work that follows the measured phase and whose
    /// virtual-clock outcome repeats exactly, so that a run needs it on one
    /// rep only. On `dfsio_write` and `sort`, whose measured phase (the one
    /// `sim_s` and `host_cpu_s` cover) ends before the data is durable:
    /// drain the flusher for `sim_flush_lag_s` and read the layer counts
    /// over phase + drain (the other reps report the phase's own values
    /// only). On `elastic_mixed`: the read-back of every file.
    pub epilogue: bool,
}

impl Opts {
    /// A full-size, untraced rep with its epilogue and the fixed 1-in-16
    /// verification sample.
    pub fn timed(seed: u64) -> Opts {
        Opts {
            seed,
            shrink: 1,
            verify_all: false,
            trace: false,
            epilogue: true,
        }
    }
}

/// What one rep produced.
pub struct RepOut {
    /// Process CPU seconds (user + sys, precise clock) spent from the
    /// start of the rep to the start of the measured phase.
    pub setup_cpu_s: f64,
    /// Host cost of the measured phase.
    pub cost: PhaseCost,
    /// Host user-CPU seconds of the whole rep (setup, phase, epilogue):
    /// the cost of the events the layer counts cover.
    pub rep_user_s: f64,
    /// `sim_*` end-to-end values, `fail_frac`, `sim_bytes_per_user_byte`
    /// and every layer count/span/stage value.
    pub values: Values,
    /// Calls the benchmark made into the program.
    pub attempted: u64,
    /// Calls that returned an error, were throttled, or failed
    /// verification.
    pub failed: u64,
    /// Output checks (sizes, byte verification, invariants) all held.
    pub correct: bool,
    /// In a traced rep: every `optrace` family the workload cannot run
    /// without recorded ops and reconciled exactly, and so did every other
    /// family that recorded any (`layers::observe`). Folded into `correct`.
    pub reconciled: bool,
    /// Bytes that crossed CRC/copy-heavy paths (`harness.crc_share`).
    pub payload_bytes: u64,
    /// The benchmark's spans (empty unless traced).
    pub spans: Rc<Spans>,
    /// Extra human-readable lines (e.g. the open-loop rate grid).
    pub notes: Vec<String>,
}

/// Run `fut` on `sim` and return its output without draining the
/// simulation to quiescence afterwards (background flushers would keep
/// `Sim::block_on` busy long past the measured phase). Stepping the
/// horizon processes the same events in the same order as `run()`.
pub fn drive<F>(sim: &Sim, fut: F) -> F::Output
where
    F: Future + 'static,
    F::Output: 'static,
{
    let handle = sim.spawn(fut);
    let mut horizon = sim.now();
    loop {
        horizon += dur::ms(1);
        sim.run_until(horizon);
        if let Some(out) = handle.try_take() {
            return out;
        }
        assert!(
            horizon.as_nanos() < 3_600_000_000_000,
            "workload did not finish within an hour of virtual time"
        );
    }
}

/// Await one call into the program, timing it on the virtual clock and,
/// in the traced pass, recording a span around it. Returns the call's
/// output and its latency in virtual ns.
pub async fn spanned<T>(
    sim: &Sim,
    spans: &Spans,
    name: &'static str,
    parent: SpanId,
    op: u64,
    call: impl Future<Output = T>,
) -> (T, u64) {
    let t0 = sim.now();
    let sp = spans.begin(sim, name, parent, op);
    let out = call.await;
    spans.end(sim, sp);
    (out, (sim.now() - t0).as_nanos() as u64)
}

/// Seed-derived perturbation of a task layout: a permutation of the
/// compute nodes and a start offset per task. Seed 0 is the identity with
/// zero offsets (the reference layout; no extra sleep is even issued).
pub struct Layout {
    /// `node_order[i]` = index of the node task slot `i` maps to.
    pub node_order: Vec<usize>,
    /// Start offset of task `i`.
    pub offsets: Vec<Duration>,
}

impl Layout {
    /// Layout for `tasks` tasks over `nodes` nodes under `seed`.
    pub fn new(seed: u64, nodes: usize, tasks: usize) -> Layout {
        let mut node_order: Vec<usize> = (0..nodes).collect();
        let mut offsets = vec![Duration::ZERO; tasks];
        if seed != 0 {
            let rng = SimRng::seed_from(seed ^ 0x6c61_796f_7574);
            rng.shuffle(&mut node_order);
            for o in offsets.iter_mut() {
                *o = dur::ns(rng.range(1, 200_000));
            }
        }
        Layout {
            node_order,
            offsets,
        }
    }

    /// Apply the node permutation to a node list.
    pub fn permute<T: Copy>(&self, nodes: &[T]) -> Vec<T> {
        self.node_order.iter().map(|&i| nodes[i]).collect()
    }
}

/// Exact nearest-rank percentile (`q` in 0..=100) of `samples`; sorts in
/// place. 0 when empty.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

/// Mean of `samples` in microseconds (nanosecond inputs).
pub fn mean_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1e3
}
