//! E3/E4/E5/E11: the TestDFSIO family — write throughput vs data size,
//! read throughput, cluster-size scaling, and buffer-layer scaling.

use workloads::testdfsio::{self, DfsioConfig};
use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};

use crate::experiments::ExpReport;
use crate::table::{mbps, ratio, Table};
use crate::telemetry::{capture_cell, CellTelemetry};

/// One DFSIO cell: (write MB/s, read MB/s) for a system at a total size.
pub fn dfsio_cell(kind: SystemKind, config: TestbedConfig, cfg: DfsioConfig) -> (f64, f64) {
    let (w, r, _) = dfsio_cell_stats(kind, config, cfg);
    (w, r)
}

/// Like [`dfsio_cell`], also returning the burst buffer's read-path tier
/// counters for the read phase (`None` for non-BB systems).
pub fn dfsio_cell_stats(
    kind: SystemKind,
    config: TestbedConfig,
    cfg: DfsioConfig,
) -> (f64, f64, Option<bb_core::ReadStats>) {
    let (w, r, stats, _) = dfsio_cell_telemetry(kind, config, cfg, false);
    (w, r, stats)
}

/// The full-fat cell runner: numbers, read-path tier counters, and the
/// cell simulation's telemetry (metrics snapshot + Chrome trace when
/// `trace`). Every DFSIO-family experiment captures its representative
/// cell through this.
pub fn dfsio_cell_telemetry(
    kind: SystemKind,
    config: TestbedConfig,
    cfg: DfsioConfig,
    trace: bool,
) -> (f64, f64, Option<bb_core::ReadStats>, CellTelemetry) {
    let tb = Testbed::build(kind, config);
    if trace {
        tb.sim.tracer().enable();
    }
    let pool = PayloadPool::standard();
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let w = testdfsio::write(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .expect("write phase");
        // count only the read phase's chunk fetches
        if let Some(bb) = &tb.bb {
            bb.reset_read_stats();
        }
        let r = testdfsio::read(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg, false)
            .await
            .expect("read phase");
        let stats = tb.bb.as_ref().map(|bb| bb.read_stats());
        let cell = capture_cell(&tb.sim);
        tb.shutdown();
        (
            w.aggregate.mb_per_sec(),
            r.aggregate.mb_per_sec(),
            stats,
            cell,
        )
    })
}

fn size_sweep(quick: bool) -> Vec<u64> {
    if quick {
        vec![1 << 30, 2 << 30]
    } else {
        vec![1 << 30, 2 << 30, 4 << 30]
    }
}

fn dfsio_for_total(total: u64) -> DfsioConfig {
    DfsioConfig {
        files: 16,
        file_size: total / 16,
        ..DfsioConfig::default()
    }
}

/// Full write+read sweep over the five systems (shared by E3 and E4).
/// The representative cell — BB-Async at the largest size — also yields
/// its telemetry (traced when `trace`).
#[allow(clippy::type_complexity)]
fn sweep(
    quick: bool,
    trace: bool,
) -> (
    Vec<(u64, SystemKind, f64, f64, Option<bb_core::ReadStats>)>,
    Option<CellTelemetry>,
) {
    let sizes = size_sweep(quick);
    let largest = *sizes.last().unwrap();
    let cells: Vec<(u64, SystemKind)> = sizes
        .iter()
        .flat_map(|&sz| SystemKind::all_five().into_iter().map(move |k| (sz, k)))
        .collect();
    let mut rows = Vec::new();
    let mut telemetry = None;
    for (sz, kind, w, r, stats, cell) in cells
        .into_iter()
        .map(|(sz, kind)| {
            let rep = sz == largest && kind == SystemKind::Bb(bb_core::Scheme::AsyncLustre);
            let (w, r, stats, cell) = dfsio_cell_telemetry(
                kind,
                TestbedConfig::default(),
                dfsio_for_total(sz),
                rep && trace,
            );
            (sz, kind, w, r, stats, rep.then_some(cell))
        })
        .collect::<Vec<_>>()
    {
        rows.push((sz, kind, w, r, stats));
        if let Some(c) = cell {
            telemetry = Some(c);
        }
    }
    (rows, telemetry)
}

fn gb(sz: u64) -> String {
    format!("{} GiB", sz >> 30)
}

/// E3: TestDFSIO write throughput vs data size, five systems.
pub fn e3_write(quick: bool, trace: bool) -> ExpReport {
    let (results, telemetry) = sweep(quick, trace);
    let mut t = Table::new(
        "E3: TestDFSIO WRITE aggregate MB/s vs total data size (16 files, 16 nodes)",
        &[
            "size",
            "HDFS",
            "Lustre",
            "BB-Async",
            "BB-Sync",
            "BB-Hybrid",
            "BB/HDFS",
            "BB/Lustre",
        ],
    );
    let mut worst_vs_hdfs = f64::MAX;
    let mut worst_vs_lustre = f64::MAX;
    for &sz in &size_sweep(quick) {
        let get = |k: SystemKind| {
            results
                .iter()
                .find(|(s, kk, _, _, _)| *s == sz && *kk == k)
                .map(|(_, _, w, _, _)| *w)
                .unwrap_or(0.0)
        };
        let (h, l, a, s, hy) = (
            get(SystemKind::Hdfs),
            get(SystemKind::Lustre),
            get(SystemKind::Bb(bb_core::Scheme::AsyncLustre)),
            get(SystemKind::Bb(bb_core::Scheme::SyncLustre)),
            get(SystemKind::Bb(bb_core::Scheme::HybridLocality)),
        );
        worst_vs_hdfs = worst_vs_hdfs.min(a / h);
        worst_vs_lustre = worst_vs_lustre.min(a / l);
        t.row(vec![
            gb(sz),
            mbps(h),
            mbps(l),
            mbps(a),
            mbps(s),
            mbps(hy),
            ratio(a / h),
            ratio(a / l),
        ]);
    }
    t.note(format!(
        "paper: up to 2.6x over HDFS, 1.5x over Lustre; measured worst-case {} / {}",
        ratio(worst_vs_hdfs),
        ratio(worst_vs_lustre)
    ));
    ExpReport::new(
        "E3",
        t,
        worst_vs_hdfs > 2.0 && worst_vs_lustre > 1.3,
        telemetry,
    )
}

/// E4: TestDFSIO read throughput vs data size, five systems.
pub fn e4_read(quick: bool, trace: bool) -> ExpReport {
    let (results, telemetry) = sweep(quick, trace);
    let mut t = Table::new(
        "E4: TestDFSIO READ aggregate MB/s vs total data size (buffer-hot reads)",
        &["size", "HDFS", "Lustre", "BB-Async", "BB/HDFS", "BB/Lustre"],
    );
    let mut best_gain: f64 = 0.0;
    let mut tiers_account = true;
    for &sz in &size_sweep(quick) {
        let get = |k: SystemKind| {
            results
                .iter()
                .find(|(s, kk, _, _, _)| *s == sz && *kk == k)
                .map(|(_, _, _, r, _)| *r)
                .unwrap_or(0.0)
        };
        let (h, l, a) = (
            get(SystemKind::Hdfs),
            get(SystemKind::Lustre),
            get(SystemKind::Bb(bb_core::Scheme::AsyncLustre)),
        );
        best_gain = best_gain.max((a / h).max(a / l));
        t.row(vec![
            gb(sz),
            mbps(h),
            mbps(l),
            mbps(a),
            ratio(a / h),
            ratio(a / l),
        ]);
        // tier accounting: every chunk of the dataset is served by
        // exactly one tier during the read phase
        if let Some(stats) = results
            .iter()
            .find(|(s, kk, _, _, _)| {
                *s == sz && *kk == SystemKind::Bb(bb_core::Scheme::AsyncLustre)
            })
            .and_then(|(_, _, _, _, st)| st.clone())
        {
            let chunk = TestbedConfig::default().bb.chunk_size;
            let expect = 16 * (sz / 16).div_ceil(chunk);
            tiers_account &= stats.chunks_fetched() == expect;
            t.note(format!(
                "{}: BB-Async tiers local/buffer/lustre = {}/{}/{} (sum {}, dataset {} chunks), \
                 {} multi-GETs avg batch {:.1}, {} readahead stalls",
                gb(sz),
                stats.tier_local,
                stats.tier_buffer,
                stats.tier_lustre,
                stats.chunks_fetched(),
                expect,
                stats.multi_gets,
                stats.avg_batch(),
                stats.readahead_stalls,
            ));
        }
    }
    t.note(format!(
        "paper: read gain up to 8x; measured best gain {}",
        ratio(best_gain)
    ));
    ExpReport::new("E4", t, best_gain > 4.0 && tiers_account, telemetry)
}

/// E5: write/read throughput vs cluster size.
pub fn e5_cluster_scaling(quick: bool, trace: bool) -> ExpReport {
    let sizes: &[usize] = if quick { &[8, 16] } else { &[8, 16, 32] };
    let largest = *sizes.last().unwrap();
    let systems = [
        SystemKind::Hdfs,
        SystemKind::Lustre,
        SystemKind::Bb(bb_core::Scheme::AsyncLustre),
    ];
    let cells: Vec<(usize, SystemKind)> = sizes
        .iter()
        .flat_map(|&n| systems.into_iter().map(move |k| (n, k)))
        .collect();
    let raw: Vec<(usize, SystemKind, f64, f64, Option<CellTelemetry>)> = cells
        .into_iter()
        .map(|(nodes, kind)| {
            let cfg = TestbedConfig {
                compute_nodes: nodes,
                ..TestbedConfig::default()
            };
            // fixed per-node data: 128 MiB each
            let dfsio = DfsioConfig {
                files: nodes,
                file_size: 128 << 20,
                ..DfsioConfig::default()
            };
            let rep = nodes == largest && kind == SystemKind::Bb(bb_core::Scheme::AsyncLustre);
            let (w, r, _, cell) = dfsio_cell_telemetry(kind, cfg, dfsio, rep && trace);
            (nodes, kind, w, r, rep.then_some(cell))
        })
        .collect();
    let mut telemetry = None;
    let results: Vec<(usize, SystemKind, f64, f64)> = raw
        .into_iter()
        .map(|(n, k, w, r, cell)| {
            if let Some(c) = cell {
                telemetry = Some(c);
            }
            (n, k, w, r)
        })
        .collect();
    let mut t = Table::new(
        "E5: TestDFSIO aggregate MB/s vs cluster size (128 MiB per node)",
        &[
            "nodes", "HDFS w", "Lustre w", "BB w", "HDFS r", "Lustre r", "BB r",
        ],
    );
    let mut bb_wins_at_largest = false;
    for &n in sizes {
        let get = |k: SystemKind| {
            results
                .iter()
                .find(|(s, kk, _, _)| *s == n && *kk == k)
                .map(|(_, _, w, r)| (*w, *r))
                .unwrap_or((0.0, 0.0))
        };
        let (hw, hr) = get(SystemKind::Hdfs);
        let (lw, lr) = get(SystemKind::Lustre);
        let (bw, br) = get(SystemKind::Bb(bb_core::Scheme::AsyncLustre));
        if n == *sizes.last().unwrap() {
            bb_wins_at_largest = bw > hw && bw > lw && br > hr && br > lr;
        }
        t.row(vec![
            n.to_string(),
            mbps(hw),
            mbps(lw),
            mbps(bw),
            mbps(hr),
            mbps(lr),
            mbps(br),
        ]);
    }
    t.note("HDFS scales with spindles; Lustre is fixed infrastructure; the buffer's advantage widens with cluster size");
    ExpReport::new("E5", t, bb_wins_at_largest, telemetry)
}

/// E11: write throughput vs number of KV (burst-buffer) servers.
pub fn e11_kv_scaling(quick: bool, trace: bool) -> ExpReport {
    let counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let largest = *counts.last().unwrap();
    let raw: Vec<(usize, f64, Option<CellTelemetry>)> = counts
        .iter()
        .map(|&servers| {
            let mut cfg = TestbedConfig::default();
            cfg.bb.kv_servers = servers;
            // lift the client-side cap so the buffer layer is the bottleneck
            cfg.bb.client_write_rate = 3.0e9;
            // even one server must hold the whole burst: a 512 KiB chunk
            // occupies a full 1 MiB slab page, so budget ≥ 2× the dataset
            cfg.bb.kv_mem_per_server = 6 << 30;
            let dfsio = DfsioConfig {
                files: 16,
                file_size: 64 << 20,
                ..DfsioConfig::default()
            };
            let rep = servers == largest;
            let (w, _, _, cell) = dfsio_cell_telemetry(
                SystemKind::Bb(bb_core::Scheme::AsyncLustre),
                cfg,
                dfsio,
                rep && trace,
            );
            (servers, w, rep.then_some(cell))
        })
        .collect();
    let mut telemetry = None;
    let results: Vec<(usize, f64)> = raw
        .into_iter()
        .map(|(n, w, cell)| {
            if let Some(c) = cell {
                telemetry = Some(c);
            }
            (n, w)
        })
        .collect();
    let mut t = Table::new(
        "E11: BB-Async WRITE aggregate MB/s vs KV servers (client cap lifted)",
        &["kv servers", "write MB/s", "scaling"],
    );
    let base = results[0].1;
    for (n, w) in &results {
        t.row(vec![n.to_string(), mbps(*w), ratio(w / base)]);
    }
    let last = results.last().unwrap();
    let shape_holds = last.1 / base > (last.0 as f64) * 0.4;
    t.note("throughput scales with buffer servers until the fabric/flush path binds");
    ExpReport::new("E11", t, shape_holds, telemetry)
}
