//! AB7: end-to-end integrity — write a dataset, corrupt resident copies
//! at rest, let the background scrubber detect and repair them, then
//! read everything back verified.
//!
//! The cell demonstrates the whole integrity loop of DESIGN.md §7: CRC32C
//! digests sealed at the writer, silent at-rest damage injected by a
//! seeded [`FaultPlan`] sweep, checksum-verified scrub passes repairing
//! bad copies in place (replica first, Lustre once flushed), and a
//! byte-verified read-back served from the repaired buffer.

use std::rc::Rc;
use std::time::Duration;

use bb_core::{FileState, Scheme};
use simkit::{dur, FaultEvent, FaultPlan, Sim, Time};
use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};

use crate::experiments::ExpReport;
use crate::table::Table;
use crate::telemetry::capture_cell;

/// Advance the simulation to exactly `horizon`. `run_until` alone stops
/// early when the next timer lies beyond the horizon without moving the
/// clock; planting a sleeper at the horizon makes the step land there,
/// so polling loops always make progress through idle stretches.
pub fn step_to(sim: &Sim, horizon: Time) {
    let s = sim.clone();
    sim.spawn(async move { s.sleep_until(horizon).await });
    sim.run_until(horizon);
}

/// AB7: corrupt at rest, scrub-repair, verified read-back. The report
/// carries the applied fault timeline (`repro AB7 --timeline`).
pub fn ab7_integrity(quick: bool, trace: bool) -> ExpReport {
    let chunk_size: u64 = 512 << 10;
    let data: u64 = if quick { 16 << 20 } else { 64 << 20 };
    let chunks_total = data / chunk_size;

    let mut cfg = TestbedConfig {
        compute_nodes: 4,
        ..TestbedConfig::default()
    };
    // r=2 so the scrubber can repair from a surviving replica; chunks
    // whose two copies are both damaged exercise the Lustre repair source
    cfg.bb.kv_replication = 2;
    let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), cfg);
    if trace {
        tb.sim.tracer().enable();
    }
    let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
    let client = bb.client(tb.nodes[0]);
    let sim = tb.sim.clone();
    let t0 = sim.now();

    // one silent corruption sweep over every server, well after the write
    // and flush have settled (p per resident value, seeded draws)
    let inject_at = dur::secs(10);
    let inject_abs = t0 + inject_at;
    let mut plan = FaultPlan::new(0xAB7);
    for s in &bb.kv_servers {
        plan = plan.at(
            inject_at,
            FaultEvent::CorruptValue {
                node: s.node().0,
                p: 0.35,
            },
        );
    }
    tb.sim.install_faults(plan);

    // --- phase 1: write + flush ---
    let pool = PayloadPool::standard();
    let pieces = pool.stream(7, data, 1 << 20);
    let wpieces = pieces.clone();
    let wclient = Rc::clone(&client);
    let writer = sim.spawn(async move {
        let w = wclient.create("/ab7/f").await.expect("create");
        for piece in wpieces {
            w.append(piece).await.expect("append");
        }
        w.close().await.expect("close");
        wclient.wait_flushed("/ab7/f").await.expect("wait_flushed")
    });
    while !writer.is_finished() && sim.now() < inject_abs {
        step_to(&sim, (sim.now() + dur::ms(250)).min(inject_abs));
    }
    let flushed = writer.try_take();

    // --- phase 2: deliver the corruption sweep ---
    step_to(&sim, inject_abs + dur::ms(1));
    let damaged: u64 = bb
        .kv_servers
        .iter()
        .map(|s| {
            sim.metrics()
                .snapshot()
                .counter(&format!("rkv.server{}.corrupted", s.node().0))
        })
        .sum();

    // --- phase 3: scrub until every damaged copy is resolved ---
    let scrub_deadline = sim.now() + dur::secs(60);
    let mut scrub_done: Option<Duration> = None;
    while sim.now() < scrub_deadline {
        step_to(&sim, sim.now() + dur::ms(250));
        let snap = sim.metrics().snapshot();
        let resolved = snap.counter("bb.scrub.repaired") + snap.counter("bb.scrub.unrepairable");
        if resolved >= damaged {
            scrub_done = Some(sim.now() - inject_abs);
            break;
        }
    }

    // --- phase 4: verified read-back (background loops stopped so the
    // read phase runs to quiescence) ---
    let expected = Rc::new(pieces.concat());
    bb.reset_read_stats();
    tb.shutdown();
    let rclient = Rc::clone(&client);
    let rexpected = Rc::clone(&expected);
    let reads_ok: u64 = sim.block_on(async move {
        let rd = rclient.open("/ab7/f").await.expect("open");
        let mut ok = 0;
        for seq in 0..chunks_total {
            let off = seq * chunk_size;
            let len = chunk_size.min(data - off);
            if let Ok(b) = rd.read_at(off, len).await {
                if b[..] == rexpected[off as usize..(off + len) as usize] {
                    ok += 1;
                }
            }
        }
        ok
    });

    let cell = capture_cell(&tb.sim);
    let timeline = tb.sim.faults().timeline_text();
    let snap = &cell.snapshot;
    let repaired = snap.counter("bb.scrub.repaired");
    let unrepairable = snap.counter("bb.scrub.unrepairable");
    let detected = snap.counter("bb.integrity.checksum_fail");
    let scanned = snap.counter("bb.scrub.scanned");
    let tiers = bb.read_stats();

    let mut t = Table::new(
        "AB7: integrity — corrupt at rest, scrub-repair, verified read-back",
        &["stage", "result"],
    );
    t.row(vec![
        "dataset".into(),
        format!(
            "{} MiB, {chunks_total} chunks x r=2, state {:?}",
            data >> 20,
            flushed
        ),
    ]);
    t.row(vec![
        "injected".into(),
        format!("{damaged} copies silently damaged (p=0.35 sweep, seed 0xAB7)"),
    ]);
    t.row(vec![
        "detected".into(),
        format!("{detected} checksum failures over {scanned} scrub scans"),
    ]);
    t.row(vec![
        "repaired".into(),
        format!("{repaired} copies rewritten in place; {unrepairable} unrepairable"),
    ]);
    t.row(vec![
        "scrub latency".into(),
        match scrub_done {
            Some(d) => format!("{:.2}s from injection to last repair", d.as_secs_f64()),
            None => "DID NOT CONVERGE within 60s".into(),
        },
    ]);
    t.row(vec![
        "read-back".into(),
        format!(
            "{reads_ok}/{chunks_total} chunks byte-correct ({} from buffer, {} from Lustre)",
            tiers.tier_buffer, tiers.tier_lustre
        ),
    ]);
    t.note("the scrubber repairs from a surviving replica first, falling back to the flushed Lustre copy");
    t.note("no silent wrong bytes: every read is digest-verified before it is returned");

    let shape = flushed == Some(FileState::Flushed)
        && damaged > 0
        && detected > 0
        && repaired == damaged
        && unrepairable == 0
        && scrub_done.is_some()
        && reads_ok == chunks_total;
    ExpReport::new("AB7", t, shape, Some(cell)).with_timeline(timeline)
}
