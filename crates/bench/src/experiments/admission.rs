//! AB12: traffic-aware burst-buffer admission under a mixed
//! burst+stream workload.
//!
//! Two long sequential streams and two spurt-writing burst files share a
//! deliberately small buffer (aggregate KV memory a fraction of the
//! stream volume) over a narrow Lustre. Always-admit (the seed policy)
//! lets the streams monopolise the buffer: unflushed bytes slam into the
//! flush watermark and the overload watermarks, so the burst writers —
//! the tenants a burst buffer exists for — stall behind stream drainage
//! and their append p99 balloons. With the windowed classifier on
//! ([`bb_core::BbConfig::bb_admit_stream_bytes`]), each stream is
//! labelled long-sequential after its first few buffered megabytes and
//! routed write-through to Lustre, while the spurt files (idle gaps
//! longer than [`bb_core::BbConfig::bb_admit_window`] reset their byte
//! count) keep the buffer to themselves.
//!
//! Claimed shape: admission-on beats always-admit on **both** burst
//! append p99 and total runtime (write + drain of every file). Both
//! cells run `r = 2` with [`bb_core::AckMode::LocalOnly`] acks, so the
//! representative (admission-on) snapshot carries the `bb.ack.*` and
//! `bb.admit.*` families CI gates on.

use std::rc::Rc;

use bb_core::{AckMode, FileState, Scheme};
use simkit::dur;
use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};

use crate::experiments::{pctl, ExpReport};
use crate::table::Table;
use crate::telemetry::{capture_cell, CellTelemetry};

/// Everything one admission cell reports.
pub struct AdmissionCell {
    /// Virtual end time (ns): every file written, closed, and flushed.
    pub end_ns: u64,
    /// Burst append latency percentiles (p50, p99), nanoseconds.
    pub burst_p50: u64,
    pub burst_p99: u64,
    /// `bb.admit.stream_detected` (0 with the classifier off).
    pub stream_detected: u64,
    /// `bb.admit.writethrough_chunks` (0 with the classifier off).
    pub writethrough_chunks: u64,
    /// `bb.admit.window_resets` (0 with the classifier off).
    pub window_resets: u64,
    /// `bb.ack.quorum_acks` — relaxed-mode acks issued at quorum.
    pub quorum_acks: u64,
    /// `bb.mgr.watermark_stalls` — writer stalls at the flush watermark.
    pub watermark_stalls: u64,
    /// Files that ended [`FileState::Flushed`] (must be all 4).
    pub flushed_files: usize,
    /// Metrics snapshot JSON (determinism probes).
    pub metrics_json: String,
    /// The cell's full telemetry, when requested.
    pub telemetry: Option<CellTelemetry>,
}

/// Run one admission cell. `admit` arms the classifier; everything else
/// is held identical so the two cells differ only in policy.
pub fn run_admission_cell(quick: bool, admit: bool, capture: bool) -> AdmissionCell {
    let chunk: u64 = 512 << 10;
    let stream_bytes: u64 = if quick { 24 << 20 } else { 48 << 20 };
    let spurts: u64 = 4;
    let spurt_bytes: u64 = 4 << 20;
    // spurt cadence: gaps long enough that the classifier window resets
    // between spurts (a burst file totals 16 MiB — over the stream
    // threshold — but never accumulates 8 MiB inside one window)
    let spurt_every = dur::ms(700);
    let first_spurt = dur::ms(400);

    let mut cfg = TestbedConfig {
        compute_nodes: 4,
        ..TestbedConfig::default()
    };
    // small buffer: aggregate KV memory is a fraction of the stream
    // volume, so always-admit saturates it mid-run. The watermarks are
    // pulled down with it (physical footprint stays clear of per-server
    // OOM at r=2) and the hysteresis band is wide, so the unmanaged cell
    // flaps between credit stalls and overload write-through
    cfg.bb.kv_mem_per_server = 32 << 20;
    cfg.bb.flush_watermark = 0.3;
    cfg.bb.bb_high_watermark = 0.4;
    cfg.bb.bb_low_watermark = 0.1;
    cfg.bb.kv_replication = 2;
    cfg.bb.bb_ack_mode = AckMode::LocalOnly;
    cfg.bb.bb_ack_ahead = 8;
    cfg.bb.bb_admit_stream_bytes = if admit { 6 << 20 } else { 0 };
    cfg.bb.bb_admit_window = dur::ms(250);
    // narrow Lustre: the drain is the shared bottleneck under study. Wide
    // stripes + a real positioning cost make I/O granularity matter: the
    // buffered drain pays one access per 512 KiB chunk, while classified
    // streams coalesce write-through extents up to the stripe size
    cfg.lustre.oss_count = 1;
    cfg.lustre.osts_per_oss = 1;
    cfg.lustre.stripe_count = 1;
    cfg.lustre.stripe_size = 4 << 20;
    cfg.lustre.ost_rate = 24e6;
    cfg.lustre.ost_access = dur::ms(2);
    let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), cfg);
    let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
    let sim = tb.sim.clone();
    let pool = PayloadPool::standard();
    let nodes = tb.nodes.clone();

    let s = sim.clone();
    let driver = sim.spawn(async move {
        let mut handles = Vec::new();
        // two long sequential streams, one per compute node
        for i in 0..2u64 {
            let client = bb.client(nodes[i as usize]);
            let pieces = pool.stream(20 + i, stream_bytes, 1 << 20);
            handles.push(s.spawn(async move {
                let w = client
                    .create(&format!("/ab12/stream{i}"))
                    .await
                    .expect("create stream");
                for piece in pieces {
                    w.append(piece).await.expect("append stream");
                }
                w.close().await.expect("close stream");
                Vec::new()
            }));
        }
        // two burst files written in spurts, staggered across the run so
        // they land inside the always-admit saturation window
        for b in 0..2u64 {
            let client = bb.client(nodes[2 + b as usize]);
            let s2 = s.clone();
            let spurt_pieces: Vec<Vec<bytes::Bytes>> = (0..spurts)
                .map(|sp| pool.stream(40 + b * 8 + sp, spurt_bytes, chunk as usize))
                .collect();
            handles.push(s.spawn(async move {
                let mut lats = Vec::new();
                let w = client
                    .create(&format!("/ab12/burst{b}"))
                    .await
                    .expect("create burst");
                for (sp, pieces) in spurt_pieces.into_iter().enumerate() {
                    let at = first_spurt + spurt_every * sp as u32 + dur::ms(350) * b as u32;
                    let now = s2.now() - simkit::Time::ZERO;
                    if at > now {
                        s2.sleep(at - now).await;
                    }
                    for piece in pieces {
                        let t0 = s2.now();
                        w.append(piece).await.expect("append burst");
                        lats.push((s2.now() - t0).as_nanos() as u64);
                    }
                }
                w.close().await.expect("close burst");
                lats
            }));
        }
        let mut lats = Vec::new();
        for h in handles {
            lats.extend(h.await);
        }
        // total runtime includes the drain: every file durable on Lustre
        let client = bb.client(nodes[0]);
        let mut flushed = 0;
        for path in [
            "/ab12/stream0",
            "/ab12/stream1",
            "/ab12/burst0",
            "/ab12/burst1",
        ] {
            if matches!(client.wait_flushed(path).await, Ok(FileState::Flushed)) {
                flushed += 1;
            }
        }
        (s.now().as_nanos(), lats, flushed)
    });
    // step in 1 s slices so a wedged cell surfaces as a bounded failure
    // instead of hanging the harness behind background ticks
    let deadline = sim.now() + dur::secs(120);
    while !driver.is_finished() && sim.now() < deadline {
        let step = (sim.now() + dur::secs(1)).min(deadline);
        crate::experiments::integrity::step_to(&sim, step);
    }
    let (end_ns, mut lats, flushed_files) =
        driver
            .try_take()
            .unwrap_or((sim.now().as_nanos(), Vec::new(), 0));
    lats.sort_unstable();
    // harness-side measurement (bench namespace, not `bb.*`: the product
    // must not appear to register admission metrics in the off cell)
    let h = sim.metrics().histogram("ab12.burst_append_ns");
    for &ns in &lats {
        h.record_ns(ns);
    }
    let cell = capture_cell(&tb.sim);
    let metrics_json = cell.snapshot.to_json();
    let counter = |name: &str| cell.snapshot.counter(name);
    // the gated families read 0 through the snapshot when unregistered,
    // so the off cell never touches them
    AdmissionCell {
        end_ns,
        burst_p50: pctl(&lats, 50.0),
        burst_p99: pctl(&lats, 99.0),
        stream_detected: counter("bb.admit.stream_detected"),
        writethrough_chunks: counter("bb.admit.writethrough_chunks"),
        window_resets: counter("bb.admit.window_resets"),
        quorum_acks: counter("bb.ack.quorum_acks"),
        watermark_stalls: counter("bb.mgr.watermark_stalls"),
        flushed_files,
        metrics_json,
        telemetry: capture.then_some(cell),
    }
}

/// AB12: mixed burst+stream workload over a small buffer, always-admit
/// vs classifier-on. The report carries a text timeline of both cells
/// (`repro AB12 --timeline`).
pub fn ab12_admission(quick: bool, _trace: bool) -> ExpReport {
    let mut timeline = String::new();
    let mut line = |s: String| {
        timeline.push_str(&s);
        timeline.push('\n');
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut t = Table::new(
        "AB12: traffic-aware admission — 2 streams + 2 spurt files over a 24 MiB \
         buffer (r=2, local_only acks) and a 24 MB/s Lustre",
        &[
            "cell",
            "burst p50 ms",
            "burst p99 ms",
            "runtime s",
            "streams detected",
            "writethrough chunks",
            "stalls",
        ],
    );
    let mut cells = Vec::new();
    for &admit in &[false, true] {
        let cell = run_admission_cell(quick, admit, admit);
        let label = if admit {
            "admission on"
        } else {
            "always admit"
        };
        t.row(vec![
            label.into(),
            format!("{:.1}", ms(cell.burst_p50)),
            format!("{:.1}", ms(cell.burst_p99)),
            format!("{:.2}", cell.end_ns as f64 / 1e9),
            format!("{}", cell.stream_detected),
            format!("{}", cell.writethrough_chunks),
            format!("{}", cell.watermark_stalls),
        ]);
        line(format!(
            "{label}: burst p50={} ns p99={} ns end={} ns flushed={}/4 \
             stream_detected={} writethrough={} window_resets={} quorum_acks={} stalls={}",
            cell.burst_p50,
            cell.burst_p99,
            cell.end_ns,
            cell.flushed_files,
            cell.stream_detected,
            cell.writethrough_chunks,
            cell.window_resets,
            cell.quorum_acks,
            cell.watermark_stalls,
        ));
        cells.push(cell);
    }
    let (off, on) = (&cells[0], &cells[1]);
    t.note(format!(
        "admission cuts burst p99 {:.1} -> {:.1} ms and runtime {:.2} -> {:.2} s; \
         both streams classified ({} write-through chunks), spurts kept buffered \
         ({} window resets)",
        ms(off.burst_p99),
        ms(on.burst_p99),
        off.end_ns as f64 / 1e9,
        on.end_ns as f64 / 1e9,
        on.stream_detected,
        on.window_resets,
    ));
    let shape_holds = on.burst_p99 < off.burst_p99
        && on.end_ns < off.end_ns
        && on.stream_detected >= 2
        && on.writethrough_chunks > 0
        && on.window_resets > 0
        && on.quorum_acks > 0
        && off.stream_detected == 0
        && off.flushed_files == 4
        && on.flushed_files == 4;
    let telemetry = cells.pop().and_then(|c| c.telemetry);
    ExpReport::new("AB12", t, shape_holds, telemetry).with_timeline(timeline)
}
