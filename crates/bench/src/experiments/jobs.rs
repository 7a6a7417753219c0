//! E6/E7/E8/E10: the MapReduce-level experiments — RandomWriter, Sort,
//! the scheme comparison, and the I/O-intensive mixed workloads.

use bb_core::Scheme;
use workloads::randomwriter::{self, RandomWriterConfig};
use workloads::sortbench::{self, SortConfig};
use workloads::swim::{self, SwimConfig};
use workloads::testdfsio::DfsioConfig;
use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};

use crate::experiments::ExpReport;
use crate::table::{mbps, ratio, secs, Table};
use crate::telemetry::{capture_cell, CellTelemetry};

fn run_randomwriter(
    kind: SystemKind,
    bytes_per_node: u64,
    capture: bool,
    trace: bool,
) -> (f64, Option<CellTelemetry>) {
    let tb = Testbed::build(kind, TestbedConfig::default());
    if trace {
        tb.sim.tracer().enable();
    }
    let pool = PayloadPool::standard();
    let cfg = RandomWriterConfig {
        bytes_per_node,
        ..RandomWriterConfig::default()
    };
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let r = randomwriter::run(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .expect("randomwriter");
        let cell = capture.then(|| capture_cell(&tb.sim));
        tb.shutdown();
        (r.elapsed.as_secs_f64(), cell)
    })
}

/// E6: RandomWriter execution time vs data size.
pub fn e6_randomwriter(quick: bool, trace: bool) -> ExpReport {
    let sizes: &[u64] = if quick {
        &[64 << 20, 128 << 20]
    } else {
        &[64 << 20, 128 << 20, 256 << 20]
    };
    let cells: Vec<(u64, SystemKind)> = sizes
        .iter()
        .flat_map(|&sz| SystemKind::all_five().into_iter().map(move |k| (sz, k)))
        .collect();
    let largest = *sizes.last().unwrap();
    let raw: Vec<(u64, SystemKind, f64, Option<CellTelemetry>)> = cells
        .into_iter()
        .map(|(sz, kind)| {
            let rep = sz == largest && kind == SystemKind::Bb(Scheme::AsyncLustre);
            let (dt, cell) = run_randomwriter(kind, sz, rep, rep && trace);
            (sz, kind, dt, cell)
        })
        .collect();
    let mut telemetry = None;
    let results: Vec<(u64, SystemKind, f64)> = raw
        .into_iter()
        .map(|(sz, k, dt, cell)| {
            if let Some(c) = cell {
                telemetry = Some(c);
            }
            (sz, k, dt)
        })
        .collect();
    let mut t = Table::new(
        "E6: RandomWriter execution time (s) vs bytes per node (16 nodes)",
        &[
            "per node",
            "HDFS",
            "Lustre",
            "BB-Async",
            "BB-Sync",
            "BB-Hybrid",
        ],
    );
    let mut shape = true;
    for &sz in sizes {
        let get = |k: SystemKind| {
            results
                .iter()
                .find(|(s, kk, _)| *s == sz && *kk == k)
                .map(|(_, _, v)| *v)
                .unwrap_or(0.0)
        };
        let (h, l, a) = (
            get(SystemKind::Hdfs),
            get(SystemKind::Lustre),
            get(SystemKind::Bb(Scheme::AsyncLustre)),
        );
        shape &= a < h && a < l;
        t.row(vec![
            format!("{} MiB", sz >> 20),
            secs(h),
            secs(l),
            secs(a),
            secs(get(SystemKind::Bb(Scheme::SyncLustre))),
            secs(get(SystemKind::Bb(Scheme::HybridLocality))),
        ]);
    }
    t.note("paper: the buffered design ingests bulk writes fastest");
    ExpReport::new("E6", t, shape, telemetry)
}

fn run_sort(kind: SystemKind, data_size: u64) -> (f64, usize, usize) {
    let (out, _) = run_sort_telemetry(kind, data_size, false, false);
    out
}

fn run_sort_telemetry(
    kind: SystemKind,
    data_size: u64,
    capture: bool,
    trace: bool,
) -> ((f64, usize, usize), Option<CellTelemetry>) {
    let tb = Testbed::build(kind, TestbedConfig::default());
    if trace {
        tb.sim.tracer().enable();
    }
    let pool = PayloadPool::standard();
    let cfg = SortConfig {
        data_size,
        input_files: 16,
        reducers: 16,
        ..SortConfig::default()
    };
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let r = sortbench::generate_and_sort(&tb.engine, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .expect("sort");
        let cell = capture.then(|| capture_cell(&tb.sim));
        tb.shutdown();
        ((r.sort_time.as_secs_f64(), r.local_maps, r.maps), cell)
    })
}

/// E7: Sort execution time vs data size.
pub fn e7_sort(quick: bool, trace: bool) -> ExpReport {
    let sizes: &[u64] = if quick {
        &[512 << 20, 1 << 30]
    } else {
        &[512 << 20, 1 << 30, 2 << 30]
    };
    let cells: Vec<(u64, SystemKind)> = sizes
        .iter()
        .flat_map(|&sz| {
            [
                SystemKind::Hdfs,
                SystemKind::Lustre,
                SystemKind::Bb(Scheme::AsyncLustre),
                SystemKind::Bb(Scheme::HybridLocality),
            ]
            .into_iter()
            .map(move |k| (sz, k))
        })
        .collect();
    let largest = *sizes.last().unwrap();
    let raw: Vec<(u64, SystemKind, f64, Option<CellTelemetry>)> = cells
        .into_iter()
        .map(|(sz, kind)| {
            let rep = sz == largest && kind == SystemKind::Bb(Scheme::AsyncLustre);
            let ((dt, _, _), cell) = run_sort_telemetry(kind, sz, rep, rep && trace);
            (sz, kind, dt, cell)
        })
        .collect();
    let mut telemetry = None;
    let results: Vec<(u64, SystemKind, f64)> = raw
        .into_iter()
        .map(|(sz, k, dt, cell)| {
            if let Some(c) = cell {
                telemetry = Some(c);
            }
            (sz, k, dt)
        })
        .collect();
    let mut t = Table::new(
        "E7: Sort execution time (s) vs data size (16 nodes, 16 reducers)",
        &[
            "size",
            "HDFS",
            "Lustre",
            "BB-Async",
            "BB-Hybrid",
            "vs HDFS",
            "vs Lustre",
        ],
    );
    let mut best_vs_hdfs: f64 = 0.0;
    let mut best_vs_lustre: f64 = 0.0;
    for &sz in sizes {
        let get = |k: SystemKind| {
            results
                .iter()
                .find(|(s, kk, _)| *s == sz && *kk == k)
                .map(|(_, _, v)| *v)
                .unwrap_or(0.0)
        };
        let (h, l, a, hy) = (
            get(SystemKind::Hdfs),
            get(SystemKind::Lustre),
            get(SystemKind::Bb(Scheme::AsyncLustre)),
            get(SystemKind::Bb(Scheme::HybridLocality)),
        );
        let best = a.min(hy);
        best_vs_hdfs = best_vs_hdfs.max(1.0 - best / h);
        best_vs_lustre = best_vs_lustre.max(1.0 - best / l);
        t.row(vec![
            format!("{} MiB", sz >> 20),
            secs(h),
            secs(l),
            secs(a),
            secs(hy),
            format!("-{:.0}%", (1.0 - best / h) * 100.0),
            format!("-{:.0}%", (1.0 - best / l) * 100.0),
        ]);
    }
    t.note(format!(
        "paper: up to -28% vs Lustre, -19% vs HDFS; measured best -{:.0}% / -{:.0}%",
        best_vs_lustre * 100.0,
        best_vs_hdfs * 100.0
    ));
    ExpReport::new(
        "E7",
        t,
        best_vs_hdfs > 0.05 && best_vs_lustre > 0.05,
        telemetry,
    )
}

/// E8: the three schemes side by side on write, read, and sort.
pub fn e8_schemes(quick: bool, trace: bool) -> ExpReport {
    let total: u64 = if quick { 1 << 30 } else { 2 << 30 };
    let dfsio = DfsioConfig {
        files: 16,
        file_size: total / 16,
        ..DfsioConfig::default()
    };
    let schemes = Scheme::all();
    type SchemeCell = (
        Scheme,
        f64,
        f64,
        Option<bb_core::ReadStats>,
        Option<CellTelemetry>,
    );
    let raw: Vec<SchemeCell> = schemes
        .into_iter()
        .map(|s| {
            let rep = s == Scheme::AsyncLustre;
            let (w, r, stats, cell) = crate::experiments::dfsio::dfsio_cell_telemetry(
                SystemKind::Bb(s),
                TestbedConfig::default(),
                dfsio.clone(),
                rep && trace,
            );
            (s, w, r, stats, rep.then_some(cell))
        })
        .collect();
    let mut telemetry = None;
    let io: Vec<(Scheme, f64, f64, Option<bb_core::ReadStats>)> = raw
        .into_iter()
        .map(|(s, w, r, stats, cell)| {
            if let Some(c) = cell {
                telemetry = Some(c);
            }
            (s, w, r, stats)
        })
        .collect();
    let sorts: Vec<(Scheme, f64)> = schemes
        .into_iter()
        .map(|s| (s, run_sort(SystemKind::Bb(s), total / 2).0))
        .collect();
    let mut t = Table::new(
        "E8: scheme comparison — write/read MB/s and sort time",
        &[
            "scheme",
            "write MB/s",
            "read MB/s",
            "sort s",
            "local data",
            "fault window",
        ],
    );
    for (i, s) in schemes.iter().enumerate() {
        let (_, w, r, ref stats) = io[i];
        let (_, st) = sorts[i];
        let (local, window) = match s {
            Scheme::AsyncLustre => ("none", "until flush"),
            Scheme::SyncLustre => ("none", "none"),
            Scheme::HybridLocality => ("1 replica", "until flush"),
        };
        t.row(vec![
            s.label().into(),
            mbps(w),
            mbps(r),
            secs(st),
            local.into(),
            window.into(),
        ]);
        if let Some(stats) = stats {
            t.note(format!(
                "{}: read tiers local/buffer/lustre = {}/{}/{} (sum {}), {} multi-GETs avg batch {:.1}",
                s.label(),
                stats.tier_local,
                stats.tier_buffer,
                stats.tier_lustre,
                stats.chunks_fetched(),
                stats.multi_gets,
                stats.avg_batch(),
            ));
        }
    }
    let aw = io[0].1;
    let sw = io[1].1;
    t.note(format!(
        "async write is {} of sync write — the price of closing the fault window",
        ratio(aw / sw)
    ));
    if let Some(cell) = &telemetry {
        t.note(buffer_hit_ratio_note(&cell.snapshot));
    }
    ExpReport::new("E8", t, aw > sw, telemetry)
}

/// Satellite footer: buffer-tier hit ratio across every KV server,
/// sourced from the registry snapshot (`rkv.server{N}.gets` / `.hits`).
pub fn buffer_hit_ratio_note(snapshot: &simkit::telemetry::Snapshot) -> String {
    let gets = snapshot.sum_matching("rkv.server", ".gets");
    let hits = snapshot.sum_matching("rkv.server", ".hits");
    let evictions = snapshot.sum_matching("rkv.server", ".evictions");
    format!(
        "buffer tier (registry): {hits}/{gets} GET hits = {:.1}% hit ratio, {evictions} evictions",
        hits as f64 / (gets as f64).max(1.0) * 100.0
    )
}

/// E10: I/O-intensive workloads — WordCount, Grep, and a SWIM trace.
pub fn e10_io_intensive(quick: bool, trace: bool) -> ExpReport {
    let systems = [
        SystemKind::Hdfs,
        SystemKind::Lustre,
        SystemKind::Bb(Scheme::AsyncLustre),
    ];
    let raw: Vec<(SystemKind, f64, f64, f64, Option<CellTelemetry>)> = systems
        .into_iter()
        .map(|kind| {
            let rep = matches!(kind, SystemKind::Bb(_));
            let (wc, grep) = run_text_jobs(kind, if quick { 256 << 20 } else { 512 << 20 });
            let (swim, cell) = run_swim(kind, if quick { 8 } else { 16 }, rep, rep && trace);
            (kind, wc, grep, swim, cell)
        })
        .collect();
    let mut telemetry = None;
    let rows: Vec<(SystemKind, f64, f64, f64)> = raw
        .into_iter()
        .map(|(k, wc, grep, swim, cell)| {
            if let Some(c) = cell {
                telemetry = Some(c);
            }
            (k, wc, grep, swim)
        })
        .collect();
    let mut t = Table::new(
        "E10: I/O-intensive workloads — execution time (s)",
        &["system", "WordCount", "Grep", "SWIM makespan"],
    );
    for (kind, wc, grep, swim) in &rows {
        t.row(vec![
            kind.label().into(),
            secs(*wc),
            secs(*grep),
            secs(*swim),
        ]);
    }
    let bb = rows
        .iter()
        .find(|r| matches!(r.0, SystemKind::Bb(_)))
        .unwrap();
    let hdfs = rows.iter().find(|r| r.0 == SystemKind::Hdfs).unwrap();
    let shape = bb.3 < hdfs.3 && bb.1 <= hdfs.1 * 1.05;
    t.note("paper: the buffered design significantly benefits I/O-intensive workloads vs both baselines");
    ExpReport::new("E10", t, shape, telemetry)
}

fn run_text_jobs(kind: SystemKind, text_size: u64) -> (f64, f64) {
    use mapred::logic::{GrepLogic, WordCountLogic};
    use mapred::JobSpec;
    use std::rc::Rc;

    let tb = Testbed::build(kind, TestbedConfig::default());
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        swim::stage_text(&fs_for(tb.nodes[0]), "/e10/text", text_size)
            .await
            .expect("stage");
        let t0 = tb.sim.now();
        tb.engine
            .run(
                &fs_for,
                JobSpec {
                    name: "wordcount".into(),
                    inputs: vec!["/e10/text".into()],
                    output_dir: "/e10/wc".into(),
                    reducers: 8,
                    logic: Rc::new(WordCountLogic),
                },
            )
            .await
            .expect("wordcount");
        let wc = (tb.sim.now() - t0).as_secs_f64();
        let t1 = tb.sim.now();
        tb.engine
            .run(
                &fs_for,
                JobSpec {
                    name: "grep".into(),
                    inputs: vec!["/e10/text".into()],
                    output_dir: "/e10/grep".into(),
                    reducers: 1,
                    logic: Rc::new(GrepLogic {
                        needle: "lazy".into(),
                    }),
                },
            )
            .await
            .expect("grep");
        let grep = (tb.sim.now() - t1).as_secs_f64();
        tb.shutdown();
        (wc, grep)
    })
}

fn run_swim(
    kind: SystemKind,
    jobs: usize,
    capture: bool,
    trace: bool,
) -> (f64, Option<CellTelemetry>) {
    let tb = Testbed::build(kind, TestbedConfig::default());
    if trace {
        tb.sim.tracer().enable();
    }
    let pool = PayloadPool::standard();
    let cfg = SwimConfig {
        jobs,
        min_input: 32 << 20,
        max_input: 256 << 20,
        ..SwimConfig::default()
    };
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let r = swim::run(&tb.engine, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .expect("swim");
        let cell = capture.then(|| capture_cell(&tb.sim));
        tb.shutdown();
        (r.makespan.as_secs_f64(), cell)
    })
}
