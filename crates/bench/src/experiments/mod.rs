//! Experiment implementations (DESIGN.md §4). Every function is
//! deterministic: same binary, same table.
//!
//! `quick = true` shrinks sweeps for CI-speed runs; `quick = false` runs
//! the full published sweep (minutes of host time).

pub mod ablations;
pub mod admission;
pub mod dfsio;
pub mod faults;
pub mod integrity;
pub mod jobs;
pub mod kvserver;
pub mod micro;
pub mod placement;
pub mod rebalance;
pub mod tracing;
pub mod traffic;

use crate::consistency::Verdict;
use crate::table::Table;
use crate::telemetry::CellTelemetry;

/// The results-table row for a KV history judged with misses forbidden.
pub(crate) fn consistency_row(v: &Verdict) -> Vec<String> {
    let verdict = if v.ok() {
        "KV history sequentially explainable (misses forbidden)".into()
    } else {
        format!("{} violations", v.violations.len())
    };
    vec!["consistency".into(), verdict]
}

/// Nearest-rank percentile `q` (0–100) of an ascending sample; 0 when
/// empty.
pub(crate) fn pctl(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64) * q / 100.0).ceil() as usize;
    sorted[idx.saturating_sub(1).min(sorted.len() - 1)]
}

/// An experiment's rendered output plus its paper-shape verdict and the
/// telemetry of its representative cell.
pub struct ExpReport {
    /// Experiment id (`E1`..`E12`, `AB1`..`AB13`).
    pub id: &'static str,
    /// The result table.
    pub table: Table,
    /// Whether the paper-reported shape held in this run.
    pub shape_holds: bool,
    /// Metrics snapshot of the representative cell (`None` only for
    /// experiments with no simulation, e.g. AB4's pure hashing study).
    pub metrics: Option<simkit::telemetry::Snapshot>,
    /// Chrome trace-event JSON of the representative cell, when it ran
    /// with tracing requested.
    pub trace: Option<String>,
    /// Text timeline of what the run applied and observed (fault,
    /// membership, traffic, admission or placement events), for the
    /// experiments that keep one.
    pub timeline: Option<String>,
}

impl ExpReport {
    /// A report over `table`, carrying the representative cell's
    /// snapshot (and trace, when the cell ran traced).
    pub fn new(
        id: &'static str,
        table: Table,
        shape_holds: bool,
        cell: Option<CellTelemetry>,
    ) -> ExpReport {
        let (metrics, trace) = cell.map_or((None, None), |c| (Some(c.snapshot), c.trace));
        ExpReport {
            id,
            table,
            shape_holds,
            metrics,
            trace,
            timeline: None,
        }
    }

    /// Attach the run's timeline artifact.
    pub fn with_timeline(mut self, timeline: String) -> ExpReport {
        self.timeline = Some(timeline);
        self
    }
}

/// One row of [`REGISTRY`]: how to run an experiment, what `repro`
/// prints around its table, and what `--check` demands of its snapshot.
pub struct Experiment {
    /// Experiment id, as in EXPERIMENTS.md and `snapshots/metrics_<id>.json`.
    pub id: &'static str,
    /// One-line title (`repro all` progress lines).
    pub title: &'static str,
    /// Run it: `quick` shrinks the sweep, `trace` runs the representative
    /// cell with the span tracer on.
    pub run: fn(quick: bool, trace: bool) -> ExpReport,
    /// The representative cell is a bare KV deployment: no burst-buffer
    /// or Lustre metric families are owed.
    pub kv_only: bool,
    /// Metric-name prefixes the snapshot must carry beyond the standard
    /// families — evidence the run exercised the path it is about.
    pub require: &'static [&'static str],
    /// Latency budget file (`rdma-bb.slo.v1`), relative to the repo root.
    /// Its budgets are measured on, and gate, the `--quick` cell only.
    pub slo: Option<&'static str>,
    /// Chunks the `--quick` representative cell's read tiers must sum to.
    pub quick_chunks: Option<u64>,
    /// Print the buffer hit-ratio line between the table and the shape.
    pub hit_ratio_note: bool,
    /// Print per-shard service times after the shape.
    pub shard_footer: bool,
}

/// A registry row with no extra checks or console lines.
const fn exp(
    id: &'static str,
    title: &'static str,
    run: fn(bool, bool) -> ExpReport,
) -> Experiment {
    Experiment {
        id,
        title,
        run,
        kv_only: false,
        require: &[],
        slo: None,
        quick_chunks: None,
        hit_ratio_note: false,
        shard_footer: false,
    }
}

impl Experiment {
    /// Look an id up in [`REGISTRY`].
    pub fn find(id: &str) -> Option<&'static Experiment> {
        REGISTRY.iter().find(|e| e.id == id)
    }
}

/// Every experiment, in EXPERIMENTS.md order. The `repro` binary, the
/// regenerated EXPERIMENTS.md and CI's smoke loop are all driven by this
/// table; adding an experiment is adding a row.
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        kv_only: true,
        ..exp("E1", "KV latency microbenchmark", micro::e1_kv_latency)
    },
    Experiment {
        kv_only: true,
        shard_footer: true,
        ..exp("E2", "KV throughput scaling", micro::e2_kv_throughput)
    },
    exp("E3", "TestDFSIO write", dfsio::e3_write),
    Experiment {
        // quick E4's largest cell reads a 2 GiB dataset spread over 16
        // tasks: 16 * ceil((2 GiB / 16) / 512 KiB) = 4096 chunks, each
        // served by exactly one tier
        quick_chunks: Some(4096),
        hit_ratio_note: true,
        ..exp("E4", "TestDFSIO read", dfsio::e4_read)
    },
    exp("E5", "cluster-size scaling", dfsio::e5_cluster_scaling),
    exp("E6", "RandomWriter", jobs::e6_randomwriter),
    exp("E7", "Sort", jobs::e7_sort),
    Experiment {
        hit_ratio_note: true,
        ..exp("E8", "scheme comparison", jobs::e8_schemes)
    },
    exp("E9", "local storage requirement", faults::e9_local_storage),
    exp("E10", "I/O-intensive workloads", jobs::e10_io_intensive),
    exp("E11", "buffer-layer scaling", dfsio::e11_kv_scaling),
    Experiment {
        // the representative crash/restart cell must have exercised the
        // client retry path
        require: &["kv.retry."],
        ..exp("E12", "fault tolerance", faults::e12_fault_tolerance)
    },
    exp("AB1", "transport ablation", ablations::ab1_transport),
    exp("AB2", "chunk-size ablation", ablations::ab2_chunk_size),
    exp(
        "AB3",
        "flusher-parallelism ablation",
        ablations::ab3_flushers,
    ),
    exp("AB4", "placement ablation", ablations::ab4_placement),
    exp("AB5", "read-window ablation", ablations::ab5_read_window),
    exp(
        "AB6",
        "readahead-overlap trace",
        ablations::ab6_readahead_trace,
    ),
    exp("AB7", "integrity scrub-repair", integrity::ab7_integrity),
    exp(
        "AB8",
        "elastic membership scale-out/in",
        rebalance::ab8_elastic,
    ),
    Experiment {
        kv_only: true,
        require: &["rdma.cq."],
        shard_footer: true,
        ..exp(
            "AB9",
            "shard-per-core server scaling",
            kvserver::ab9_core_scaling,
        )
    },
    Experiment {
        kv_only: true,
        require: &["rkv.lat."],
        slo: Some("slo/ab10.json"),
        ..exp(
            "AB10",
            "tail-latency decomposition",
            tracing::ab10_latency_decomposition,
        )
    },
    Experiment {
        kv_only: true,
        // the representative cell runs with fan-out and tenant budgets armed
        require: &["rkv.hot.", "rkv.tenant."],
        ..exp(
            "AB11",
            "open-loop traffic (hot-key fan-out, tenant isolation)",
            traffic::ab11_traffic,
        )
    },
    Experiment {
        // the representative cell runs admission on with local_only acks
        require: &["bb.admit.", "bb.ack."],
        slo: Some("slo/ab12.json"),
        ..exp(
            "AB12",
            "traffic-aware burst-buffer admission",
            admission::ab12_admission,
        )
    },
    Experiment {
        require: &["bb.place."],
        slo: Some("slo/ab13.json"),
        ..exp(
            "AB13",
            "topology-aware placement with live migration",
            placement::ab13_placement,
        )
    },
];
