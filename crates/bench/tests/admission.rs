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

use bench::experiments::admission::{ab12_admission, run_admission_cell};

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
    let a = run_admission_cell(true, true, false);
    let b = run_admission_cell(true, true, false);
    assert_eq!(a.end_ns, b.end_ns, "virtual end time must replay exactly");
    assert_eq!(a.burst_p50, b.burst_p50);
    assert_eq!(a.burst_p99, b.burst_p99);
    assert_eq!(a.stream_detected, b.stream_detected);
    assert_eq!(a.writethrough_chunks, b.writethrough_chunks);
    assert_eq!(a.window_resets, b.window_resets);
    assert_eq!(a.quorum_acks, b.quorum_acks);
    assert_eq!(
        a.metrics_json, b.metrics_json,
        "same-seed cells must produce byte-identical metric snapshots"
    );
}

#[test]
fn always_admit_cell_registers_no_classifier_metrics() {
    let off = run_admission_cell(true, false, false);
    assert_eq!(off.stream_detected, 0);
    assert_eq!(off.writethrough_chunks, 0);
    assert_eq!(off.window_resets, 0);
    assert!(
        !off.metrics_json.contains("bb.admit."),
        "classifier-off cell leaked bb.admit.* into the registry"
    );
    // all four files still flush — always-admit is slower, not lossy
    assert_eq!(off.flushed_files, 4);
}
