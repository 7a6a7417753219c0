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
use simkit::{dur, FaultPlan};
use workloads::{PayloadPool, SystemKind, TestbedConfig};

use crate::experiments::{pctl, ExpReport};
use crate::scenario::{self, write_file, Outcome, Scenario};
use crate::table::Table;

/// What an admission cell's driver measured.
pub struct AdmissionRun {
    /// Virtual end time (ns): every file written, closed, and flushed.
    pub end_ns: u64,
    /// Burst append latencies, ascending, nanoseconds.
    pub burst_lats: Vec<u64>,
    /// Files that ended [`FileState::Flushed`] (must be all 4).
    pub flushed_files: usize,
}

impl AdmissionRun {
    /// Burst append latency percentile `q`, nanoseconds.
    pub fn burst(&self, q: f64) -> u64 {
        pctl(&self.burst_lats, q)
    }
}

/// Run one admission cell. `admit` arms the classifier; everything else
/// is held identical so the two cells differ only in policy.
pub fn admission_cell(quick: bool, admit: bool) -> Outcome<AdmissionRun> {
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
    let sc = Scenario {
        kind: SystemKind::Bb(Scheme::AsyncLustre),
        cfg,
        seed: 0xAB12,
        // 1 s slices: a wedged cell surfaces as a bounded failure instead
        // of hanging the harness behind background ticks
        slice: dur::secs(1),
        deadline: dur::secs(120),
        // the small buffer evicts: a miss is legal
        forbid_miss: false,
        trace: false,
        stem: format!("ab12-admit-{}-seedab12", if admit { "on" } else { "off" }),
    };
    scenario::run(
        &sc,
        |tb| {
            let bb = tb.bb.as_ref().expect("bb testbed");
            // one writer per compute node; the checker watches the first
            let writers: Vec<_> = tb.nodes.iter().map(|&n| bb.client(n)).collect();
            (
                FaultPlan::new(sc.seed),
                Rc::clone(&writers[0]),
                (tb.sim.clone(), writers),
            )
        },
        |(s, writers)| async move {
            let pool = PayloadPool::standard();
            let mut handles = Vec::new();
            // two long sequential streams, one per compute node
            for i in 0..2u64 {
                let (client, pool) = (Rc::clone(&writers[i as usize]), pool.clone());
                handles.push(s.spawn(async move {
                    let path = format!("/ab12/stream{i}");
                    write_file(&client, &pool, &path, 20 + i, stream_bytes).await?;
                    Ok::<_, String>(Vec::new())
                }));
            }
            // two burst files written in spurts, staggered across the run so
            // they land inside the always-admit saturation window
            for b in 0..2u64 {
                let client = Rc::clone(&writers[2 + b as usize]);
                let s2 = s.clone();
                let spurt_pieces: Vec<Vec<bytes::Bytes>> = (0..spurts)
                    .map(|sp| pool.stream(40 + b * 8 + sp, spurt_bytes, chunk as usize))
                    .collect();
                handles.push(s.spawn(async move {
                    let mut lats = Vec::new();
                    let w = client.create(&format!("/ab12/burst{b}")).await;
                    let w = w.map_err(|e| format!("create burst{b}: {e}"))?;
                    for (sp, pieces) in spurt_pieces.into_iter().enumerate() {
                        let at = first_spurt + spurt_every * sp as u32 + dur::ms(350) * b as u32;
                        let now = s2.now() - simkit::Time::ZERO;
                        if at > now {
                            s2.sleep(at - now).await;
                        }
                        for piece in pieces {
                            let t0 = s2.now();
                            w.append(piece)
                                .await
                                .map_err(|e| format!("append burst{b}: {e}"))?;
                            lats.push((s2.now() - t0).as_nanos() as u64);
                        }
                    }
                    w.close()
                        .await
                        .map_err(|e| format!("close burst{b}: {e}"))?;
                    Ok(lats)
                }));
            }
            let mut lats = Vec::new();
            for h in handles {
                lats.extend(h.await?);
            }
            // total runtime includes the drain: every file durable on Lustre
            let client = &writers[0];
            let mut flushed_files = 0;
            for path in [
                "/ab12/stream0",
                "/ab12/stream1",
                "/ab12/burst0",
                "/ab12/burst1",
            ] {
                if matches!(client.wait_flushed(path).await, Ok(FileState::Flushed)) {
                    flushed_files += 1;
                }
            }
            let end_ns = s.now().as_nanos();
            lats.sort_unstable();
            // harness-side measurement (bench namespace, not `bb.*`: the
            // product must not appear to register admission metrics in the
            // off cell)
            let h = s.metrics().histogram("ab12.burst_append_ns");
            for &ns in &lats {
                h.record_ns(ns);
            }
            Ok(AdmissionRun {
                end_ns,
                burst_lats: lats,
                flushed_files,
            })
        },
    )
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
        let o = admission_cell(quick, admit);
        let label = if admit {
            "admission on"
        } else {
            "always admit"
        };
        let Some(run) = &o.result else {
            let ending = format!("{:?}", o.ending);
            t.row(vec![
                label.into(),
                ending.clone(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            line(format!("{label}: {ending}"));
            cells.push(o);
            continue;
        };
        let (p50, p99) = (run.burst(50.0), run.burst(99.0));
        let (detected, writethrough, stalls) = (
            o.counter("bb.admit.stream_detected"),
            o.counter("bb.admit.writethrough_chunks"),
            o.counter("bb.mgr.watermark_stalls"),
        );
        t.row(vec![
            label.into(),
            format!("{:.1}", ms(p50)),
            format!("{:.1}", ms(p99)),
            format!("{:.2}", run.end_ns as f64 / 1e9),
            format!("{detected}"),
            format!("{writethrough}"),
            format!("{stalls}"),
        ]);
        line(format!(
            "{label}: burst p50={p50} ns p99={p99} ns end={} ns flushed={}/4 \
             stream_detected={detected} writethrough={writethrough} window_resets={} \
             quorum_acks={} stalls={stalls}",
            run.end_ns,
            run.flushed_files,
            o.counter("bb.admit.window_resets"),
            o.counter("bb.ack.quorum_acks"),
        ));
        cells.push(o);
    }
    let (off, on) = (&cells[0], &cells[1]);
    let shape_holds = match (&off.result, &on.result) {
        (Some(roff), Some(ron)) => {
            t.note(format!(
                "admission cuts burst p99 {:.1} -> {:.1} ms and runtime {:.2} -> {:.2} s; \
                 both streams classified ({} write-through chunks), spurts kept buffered \
                 ({} window resets)",
                ms(roff.burst(99.0)),
                ms(ron.burst(99.0)),
                roff.end_ns as f64 / 1e9,
                ron.end_ns as f64 / 1e9,
                on.counter("bb.admit.stream_detected"),
                on.counter("bb.admit.window_resets"),
            ));
            ron.burst(99.0) < roff.burst(99.0)
                && ron.end_ns < roff.end_ns
                && on.counter("bb.admit.stream_detected") >= 2
                && on.counter("bb.admit.writethrough_chunks") > 0
                && on.counter("bb.admit.window_resets") > 0
                && on.counter("bb.ack.quorum_acks") > 0
                && off.counter("bb.admit.stream_detected") == 0
                && roff.flushed_files == 4
                && ron.flushed_files == 4
        }
        _ => false,
    };
    let telemetry = cells.pop().map(|o| o.cell);
    ExpReport::new("AB12", t, shape_holds, telemetry).with_timeline(timeline)
}
