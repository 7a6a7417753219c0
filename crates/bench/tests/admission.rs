//! AB12 acceptance suite: traffic-aware burst-buffer admission.
//!
//! * **paper shape** — with the classifier on, the mixed burst+stream
//!   workload must beat always-admit on BOTH burst append p99 AND total
//!   runtime (the tentpole claim: long sequential streams gain nothing
//!   from the buffer and should not evict burst data).
//! * **determinism** — the same seed replays to the same virtual end
//!   time, the same percentiles, and a byte-identical metrics snapshot.
//! * **defaults-off** — the always-admit cell (classifier off) must not
//!   even register `bb.admit.*` metrics: off means byte-identical to
//!   the seed telemetry stream, not merely zero-valued counters.

use bench::experiments::admission::{ab12_admission, admission_cell};

#[test]
fn ab12_admission_beats_always_admit_on_p99_and_runtime() {
    let rep = ab12_admission(true, false);
    assert!(
        rep.shape_holds,
        "AB12 quick shape diverged:\n{}",
        rep.table.to_text()
    );
}

#[test]
fn admission_cell_is_deterministic_across_replays() {
    let (a, b) = (admission_cell(true, true), admission_cell(true, true));
    a.assert_clean("admission on");
    assert_eq!(
        a.replay_diff(&b),
        Ok(()),
        "same-seed cells must end at the same instant with byte-identical snapshots"
    );
    let (ra, rb) = (a.result.unwrap(), b.result.unwrap());
    assert_eq!(ra.end_ns, rb.end_ns, "virtual end time must replay exactly");
    assert_eq!(ra.burst_lats, rb.burst_lats);
}

#[test]
fn always_admit_cell_registers_no_classifier_metrics() {
    let off = admission_cell(true, false);
    let run = off.assert_clean("always admit");
    assert!(
        !off.cell
            .snapshot
            .names()
            .any(|n| n.starts_with("bb.admit.")),
        "classifier-off cell leaked bb.admit.* into the registry"
    );
    // all four files still flush — always-admit is slower, not lossy
    assert_eq!(run.flushed_files, 4);
}
