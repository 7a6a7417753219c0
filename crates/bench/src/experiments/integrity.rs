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

use bb_core::{FileState, ReadStats, Scheme};
use simkit::{dur, FaultEvent, FaultPlan, Time};
use workloads::{PayloadPool, SystemKind, TestbedConfig};

use crate::experiments::ExpReport;
use crate::scenario::{self, Scenario};
use crate::table::Table;

/// What AB7's driver observed, phase by phase.
struct IntegrityRun {
    /// The file's state once the write and flush settled.
    flushed: Option<FileState>,
    /// Copies the corruption sweep damaged.
    damaged: u64,
    /// Injection to the last repair (`None`: not within 60 s).
    scrub_done: Option<Duration>,
    /// Chunks that read back byte-identical.
    reads_ok: u64,
    /// Read tiers of the verified read-back.
    tiers: ReadStats,
}

/// AB7: corrupt at rest, scrub-repair, verified read-back. The report
/// carries the applied fault timeline (`repro AB7 --timeline`).
pub fn ab7_integrity(quick: bool, trace: bool) -> ExpReport {
    let chunk_size: u64 = 512 << 10;
    let data: u64 = if quick { 16 << 20 } else { 64 << 20 };
    let chunks_total = data / chunk_size;
    // one silent corruption sweep over every server, well after the write
    // and flush have settled (p per resident value, seeded draws)
    let inject_at = dur::secs(10);

    let mut cfg = TestbedConfig {
        compute_nodes: 4,
        ..TestbedConfig::default()
    };
    // r=2 so the scrubber can repair from a surviving replica; chunks
    // whose two copies are both damaged exercise the Lustre repair source
    cfg.bb.kv_replication = 2;
    let sc = Scenario {
        kind: SystemKind::Bb(Scheme::AsyncLustre),
        cfg,
        seed: 0xAB7,
        slice: dur::ms(250),
        deadline: dur::secs(120),
        forbid_miss: false,
        trace,
        stem: "ab7-seedab7".into(),
    };
    let o = scenario::run(
        &sc,
        |tb| {
            let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
            let mut plan = FaultPlan::new(sc.seed);
            for s in &bb.kv_servers {
                plan = plan.at(
                    inject_at,
                    FaultEvent::CorruptValue {
                        node: s.node().0,
                        p: 0.35,
                    },
                );
            }
            let client = bb.client(tb.nodes[0]);
            (plan, Rc::clone(&client), (tb.sim.clone(), bb, client))
        },
        |(sim, bb, client)| async move {
            let inject_abs = Time::ZERO + inject_at;
            // --- phase 1: write + flush ---
            let pool = PayloadPool::standard();
            scenario::write_file(&client, &pool, "/ab7/f", 7, data).await?;
            let flushed = client.wait_flushed("/ab7/f").await.ok();

            // --- phase 2: deliver the corruption sweep ---
            sim.sleep_until(inject_abs + dur::ms(1)).await;
            let damaged = sim
                .metrics()
                .snapshot()
                .sum_matching("rkv.server", ".corrupted");

            // --- phase 3: scrub until every damaged copy is resolved ---
            let scrub_deadline = sim.now() + dur::secs(60);
            let mut scrub_done = None;
            while sim.now() < scrub_deadline {
                sim.sleep(dur::ms(250)).await;
                let snap = sim.metrics().snapshot();
                let resolved =
                    snap.counter("bb.scrub.repaired") + snap.counter("bb.scrub.unrepairable");
                if resolved >= damaged {
                    scrub_done = Some(sim.now() - inject_abs);
                    break;
                }
            }

            // --- phase 4: verified read-back, background loops stopped ---
            bb.reset_read_stats();
            bb.shutdown();
            let expected = pool.stream(7, data, 1 << 20).concat();
            let reads_ok = scenario::chunks_read_ok(&client, "/ab7/f", &expected, chunk_size).await;
            Ok(IntegrityRun {
                flushed,
                damaged,
                scrub_done,
                reads_ok,
                tiers: bb.read_stats(),
            })
        },
    );
    let snap = &o.cell.snapshot;
    let repaired = snap.counter("bb.scrub.repaired");
    let unrepairable = snap.counter("bb.scrub.unrepairable");
    let detected = snap.counter("bb.integrity.checksum_fail");
    let scanned = snap.counter("bb.scrub.scanned");

    let mut t = Table::new(
        "AB7: integrity — corrupt at rest, scrub-repair, verified read-back",
        &["stage", "result"],
    );
    let Some(run) = &o.result else {
        t.row(vec!["run".into(), format!("{:?}", o.ending)]);
        return ExpReport::new("AB7", t, false, Some(o.cell)).with_timeline(o.timeline);
    };
    t.row(vec![
        "dataset".into(),
        format!(
            "{} MiB, {chunks_total} chunks x r=2, state {:?}",
            data >> 20,
            run.flushed
        ),
    ]);
    t.row(vec![
        "injected".into(),
        format!(
            "{} copies silently damaged (p=0.35 sweep, seed 0xAB7)",
            run.damaged
        ),
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
        match run.scrub_done {
            Some(d) => format!("{:.2}s from injection to last repair", d.as_secs_f64()),
            None => "DID NOT CONVERGE within 60s".into(),
        },
    ]);
    t.row(vec![
        "read-back".into(),
        format!(
            "{}/{chunks_total} chunks byte-correct ({} from buffer, {} from Lustre)",
            run.reads_ok, run.tiers.tier_buffer, run.tiers.tier_lustre
        ),
    ]);
    t.note("the scrubber repairs from a surviving replica first, falling back to the flushed Lustre copy");
    t.note("no silent wrong bytes: every read is digest-verified before it is returned");

    let shape = run.flushed == Some(FileState::Flushed)
        && run.damaged > 0
        && detected > 0
        && repaired == run.damaged
        && unrepairable == 0
        && run.scrub_done.is_some()
        && run.reads_ok == chunks_total;
    ExpReport::new("AB7", t, shape, Some(o.cell)).with_timeline(o.timeline)
}
