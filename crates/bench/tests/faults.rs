//! The fault matrix (DESIGN.md §6): every {scheme} × {injected fault}
//! combination must converge under a virtual-time deadline, lose data
//! only where the scheme's contract allows it, and behave exactly the
//! same on every same-seed run.
//!
//! Every cell is judged by the scenario runner's oracle
//! (`Outcome::assert_clean`), then by its own asserts:
//! * **no hang** — the workload driver finishes before the deadline;
//! * **async loss is bounded and accounted** — a failed read with no
//!   chunk accounted lost fails the driver (loss is never silent);
//! * **sync = zero loss, r ≥ 2 closes the window** — acked loss fits the
//!   ack mode's contract for the crashes the cell injected;
//! * **link faults lose nothing** — flaps and 1 % transfer loss are
//!   absorbed by retry/backoff.

use bb_core::{AckMode, Scheme};
use bench::experiments::faults::{FaultCase, FaultRun, FaultScenario};
use bench::scenario::{Ending, Outcome};
use proptest::prelude::*;

fn run(scheme: Scheme, scenario: FaultScenario, replication: usize) -> Outcome<FaultRun> {
    FaultCase::quick(scheme, scenario, replication).run(false)
}

/// Transfer-corruption cells pin a seed whose 1 % draws hit at least one
/// transfer under every scheme (the sync write-through path moves far
/// fewer KV payloads than the buffered schemes, so the default seed's
/// sparse draws can miss it entirely). Deterministic — same seed, same
/// damage, forever.
fn run_seeded(
    scheme: Scheme,
    scenario: FaultScenario,
    replication: usize,
    seed: u64,
) -> Outcome<FaultRun> {
    FaultCase {
        seed,
        ..FaultCase::quick(scheme, scenario, replication)
    }
    .run(false)
}

// --- {A, B, C} × crash-one-server -----------------------------------

#[test]
fn matrix_async_crash_one() {
    let o = run(Scheme::AsyncLustre, FaultScenario::CrashOne, 1);
    let r = o.assert_clean("async/crash-one");
    assert_eq!(o.per_server("crashes"), 1, "exactly one server crash event");
    // the crash mid-write with a deep flush queue must exhibit the
    // paper's async fault window — and account for it
    let lost = o.counter("bb.mgr.chunks_lost");
    assert!(lost > 0, "fault window never opened");
    assert!(lost < r.chunks, "lost more than the window");
}

#[test]
fn matrix_sync_crash_one() {
    let o = run(Scheme::SyncLustre, FaultScenario::CrashOne, 1);
    let r = o.assert_clean("sync/crash-one");
    assert!(r.data_intact(), "sync reads must all be served");
}

#[test]
fn matrix_hybrid_crash_one() {
    let o = run(Scheme::HybridLocality, FaultScenario::CrashOne, 1);
    let r = o.assert_clean("hybrid/crash-one");
    // the node-local replica covers every read even when buffer chunks died
    assert!(r.data_intact(), "local replica must cover all reads");
}

// --- {A, B, C} × crash-then-restart ---------------------------------

#[test]
fn matrix_async_crash_restart() {
    let o = run(Scheme::AsyncLustre, FaultScenario::CrashRestart, 1);
    let r = o.assert_clean("async/crash-restart");
    assert_eq!(o.per_server("crashes"), 1);
    // the restarted server is empty: its unflushed chunks are the loss
    // window, and recovery completes in bounded virtual time
    let rec = r.recovery.expect("converged run reports recovery time");
    assert!(
        rec.as_secs_f64() < 60.0,
        "recovery took {rec:?} — not bounded"
    );
}

#[test]
fn matrix_sync_crash_restart() {
    let o = run(Scheme::SyncLustre, FaultScenario::CrashRestart, 1);
    let r = o.assert_clean("sync/crash-restart");
    assert!(r.data_intact());
}

#[test]
fn matrix_hybrid_crash_restart() {
    let o = run(Scheme::HybridLocality, FaultScenario::CrashRestart, 1);
    let r = o.assert_clean("hybrid/crash-restart");
    assert!(r.data_intact());
}

// --- {A, B, C} × link flap ------------------------------------------

#[test]
fn matrix_async_link_flap() {
    let o = run(Scheme::AsyncLustre, FaultScenario::LinkFlap, 1);
    let r = o.assert_clean("async/link-flap");
    // a flap loses no state: buffer contents survive, so every read is
    // served even if some flush attempts had to wait out a down window
    assert!(r.data_intact(), "link flap must not lose data");
    assert!(
        o.counter("kv.retry.attempts") > 0,
        "flap must exercise the retry path"
    );
}

#[test]
fn matrix_sync_link_flap() {
    let o = run(Scheme::SyncLustre, FaultScenario::LinkFlap, 1);
    let r = o.assert_clean("sync/link-flap");
    assert!(r.data_intact());
}

#[test]
fn matrix_hybrid_link_flap() {
    let o = run(Scheme::HybridLocality, FaultScenario::LinkFlap, 1);
    let r = o.assert_clean("hybrid/link-flap");
    assert!(r.data_intact());
}

// --- {A, B, C} × 1% transfer loss -----------------------------------

#[test]
fn matrix_async_rpc_loss() {
    let o = run(Scheme::AsyncLustre, FaultScenario::RpcLoss, 1);
    let r = o.assert_clean("async/rpc-loss");
    assert!(r.data_intact());
}

#[test]
fn matrix_sync_rpc_loss() {
    let o = run(Scheme::SyncLustre, FaultScenario::RpcLoss, 1);
    let r = o.assert_clean("sync/rpc-loss");
    assert!(r.data_intact());
}

#[test]
fn matrix_hybrid_rpc_loss() {
    let o = run(Scheme::HybridLocality, FaultScenario::RpcLoss, 1);
    let r = o.assert_clean("hybrid/rpc-loss");
    assert!(r.data_intact());
}

// --- {A, B, C} × 1% at-rest value corruption ------------------------
//
// The end-to-end integrity contract: a completed read NEVER returns
// wrong bytes. Corruption is either repaired (replica/Lustre), routed
// around, or surfaces as accounted loss — the oracle enforces the
// never-silent half, the per-cell asserts the detection half.

#[test]
fn matrix_async_corrupt_values() {
    let o = run(Scheme::AsyncLustre, FaultScenario::CorruptValues, 1);
    o.assert_clean("async/corrupt-values");
    assert!(o.per_server("corrupted") > 0, "no sweep damaged a value");
    assert!(
        o.counter("bb.integrity.checksum_fail") > 0,
        "corruption was never detected"
    );
}

#[test]
fn matrix_sync_corrupt_values() {
    let o = run(Scheme::SyncLustre, FaultScenario::CorruptValues, 1);
    let r = o.assert_clean("sync/corrupt-values");
    assert!(o.per_server("corrupted") > 0, "no sweep damaged a value");
    assert!(
        o.counter("bb.integrity.checksum_fail") > 0,
        "corruption was never detected"
    );
    // every byte is in Lustre before close: reads verify and fall back
    assert!(r.data_intact(), "sync must serve correct bytes regardless");
}

#[test]
fn matrix_hybrid_corrupt_values() {
    let o = run(Scheme::HybridLocality, FaultScenario::CorruptValues, 1);
    let r = o.assert_clean("hybrid/corrupt-values");
    assert!(o.per_server("corrupted") > 0, "no sweep damaged a value");
    assert!(
        o.counter("bb.integrity.checksum_fail") > 0,
        "corruption was never detected"
    );
    assert!(r.data_intact(), "local replica must cover corrupted chunks");
}

#[test]
fn corrupt_values_with_replication_repair_to_zero() {
    let o = run(Scheme::AsyncLustre, FaultScenario::CorruptValues, 2);
    let r = o.assert_clean("async-r2/corrupt-values");
    assert!(o.per_server("corrupted") > 0, "no sweep damaged a value");
    assert!(
        o.counter("bb.integrity.checksum_fail") > 0,
        "corruption was never detected"
    );
    assert_eq!(
        o.counter("bb.mgr.chunks_lost"),
        0,
        "a good replica always survives p=1%"
    );
    assert!(r.data_intact());
    assert!(
        o.counter("bb.scrub.repaired") > 0,
        "scrubber never repaired a bad copy"
    );
    assert_eq!(
        o.counter("bb.scrub.unrepairable"),
        0,
        "r=2 must leave nothing unrepairable"
    );
}

// --- {A, B, C} × 1% in-flight transfer corruption -------------------

#[test]
fn matrix_async_corrupt_transfers() {
    let o = run_seeded(Scheme::AsyncLustre, FaultScenario::CorruptTransfers, 1, 0x3);
    let r = o.assert_clean("async/corrupt-transfers");
    assert!(o.counter("rdma.corrupted") > 0, "no transfer was corrupted");
    assert!(r.data_intact(), "every read must be byte-correct");
}

#[test]
fn matrix_sync_corrupt_transfers() {
    let o = run_seeded(Scheme::SyncLustre, FaultScenario::CorruptTransfers, 1, 0x3);
    let r = o.assert_clean("sync/corrupt-transfers");
    assert!(o.counter("rdma.corrupted") > 0, "no transfer was corrupted");
    assert!(r.data_intact());
}

#[test]
fn matrix_hybrid_corrupt_transfers() {
    let o = run_seeded(
        Scheme::HybridLocality,
        FaultScenario::CorruptTransfers,
        1,
        0x3,
    );
    let r = o.assert_clean("hybrid/corrupt-transfers");
    assert!(o.counter("rdma.corrupted") > 0, "no transfer was corrupted");
    assert!(r.data_intact());
}

// --- replication closes the async window ----------------------------

#[test]
fn replication_survives_crash_without_loss() {
    let o = run(Scheme::AsyncLustre, FaultScenario::CrashOne, 2);
    let r = o.assert_clean("async-r2/crash-one");
    assert!(r.data_intact());
    assert!(
        o.counter("kv.failover.reads") > 0,
        "reads must have failed over"
    );
}

#[test]
fn replication_survives_crash_restart_without_loss() {
    let o = run(Scheme::AsyncLustre, FaultScenario::CrashRestart, 2);
    let r = o.assert_clean("async-r2/crash-restart");
    assert!(r.data_intact());
}

// --- durability ack modes: the loss-window contracts ------------------
//
// `CrashAsyncReplica` stretches the async-replication window (the
// writer's transfers to every non-victim server are delay-held) and then
// crashes the server holding the only quorum copy. Each ack mode's
// contract bounds what that crash may cost (the oracle's loss budget):
// * `full_r` — every ack waited for all replicas: zero acked loss;
// * `local_plus_one` — every ack has a second copy: one crash is free;
// * `local_only` — acked chunks may live on the victim alone, but never
//   more of them than the ack-ahead window admits.

fn run_acked(
    scenario: FaultScenario,
    replication: usize,
    ack_mode: AckMode,
    ack_ahead: usize,
) -> Outcome<FaultRun> {
    FaultCase {
        ack_mode,
        ack_ahead,
        ..FaultCase::quick(Scheme::AsyncLustre, scenario, replication)
    }
    .run(false)
}

#[test]
fn ack_full_r_has_zero_acked_loss_across_replica_crash() {
    let o = run_acked(FaultScenario::CrashAsyncReplica, 2, AckMode::FullR, 8);
    let r = o.assert_clean("ack-full-r/crash-async-replica");
    assert!(r.data_intact(), "every read must be served");
    // the seed path never registers the relaxed-ack counters
    assert_eq!(
        o.counter("bb.ack.quorum_acks"),
        0,
        "full_r must ride the seed ack path"
    );
}

#[test]
fn ack_local_plus_one_survives_one_crash() {
    let o = run_acked(
        FaultScenario::CrashAsyncReplica,
        3,
        AckMode::LocalPlusOne,
        8,
    );
    let r = o.assert_clean("ack-local-plus-one/crash-async-replica");
    assert!(
        o.counter("bb.ack.quorum_acks") > 0,
        "relaxed quorum path never exercised"
    );
    assert!(r.data_intact(), "every read must be served");
}

#[test]
fn ack_local_only_loss_is_bounded_by_ack_ahead_window() {
    let ahead = 4;
    let o = run_acked(
        FaultScenario::CrashAsyncReplica,
        2,
        AckMode::LocalOnly,
        ahead,
    );
    o.assert_clean("ack-local-only/crash-async-replica");
    assert!(
        o.counter("bb.ack.quorum_acks") > 0,
        "relaxed quorum path never exercised"
    );
    let lost = o.counter("bb.mgr.chunks_lost");
    assert!(
        lost > 0,
        "the single-copy ack window never opened — the cell proves nothing"
    );
    assert!(
        lost <= ahead as u64,
        "{lost} chunks lost but the ack-ahead window admits only {ahead} \
         acked-under-replicated chunks at once"
    );
}

#[test]
fn ack_downgrade_is_loud_when_a_replica_target_is_down() {
    // plain crash-one under local_only: post-crash async tails aimed at
    // the dead victim exhaust their retries — that must surface as the
    // `bb.ack.downgrade` counter (and flight event), never silently
    let o = run_acked(FaultScenario::CrashOne, 2, AckMode::LocalOnly, 8);
    o.assert_clean("ack-local-only/crash-one");
    assert!(
        o.counter("bb.ack.quorum_acks") > 0,
        "relaxed quorum path never exercised"
    );
    assert!(
        o.counter("bb.ack.downgrade") > 0,
        "tails to the crashed server must be accounted as downgrades"
    );
}

// --- determinism: same seed + plan ⇒ byte-identical run --------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Two runs of the same seeded fault plan produce byte-identical
    /// metrics snapshots, identical applied-fault timelines, and the
    /// same virtual end instant — all jitter comes from the plan's
    /// seeded RNG, never the wall clock.
    #[test]
    fn same_seed_runs_are_byte_identical(seed in any::<u64>()) {
        let case = FaultCase {
            seed,
            ..FaultCase::quick(Scheme::AsyncLustre, FaultScenario::RpcLoss, 1)
        };
        let (a, b) = (case.run(false), case.run(false));
        prop_assert_eq!(&a.ending, &Ending::Finished);
        prop_assert_eq!(a.replay_diff(&b), Ok(()));
    }

    /// `CorruptValue` expansion is a pure function of the plan seed: the
    /// same seed damages the same values the same way, so two runs are
    /// byte-identical end to end (metrics, timeline, virtual end time).
    #[test]
    fn corrupt_value_expansion_is_deterministic(seed in any::<u64>()) {
        let case = FaultCase {
            seed,
            ..FaultCase::quick(Scheme::AsyncLustre, FaultScenario::CorruptValues, 2)
        };
        let (a, b) = (case.run(false), case.run(false));
        prop_assert_eq!(&a.ending, &Ending::Finished);
        prop_assert_eq!(a.replay_diff(&b), Ok(()));
    }

    /// A deliberately impossible convergence deadline forces the
    /// fault-matrix failure path: the crash flight recorder must freeze
    /// a dump naming the reason, and two same-seed forced failures must
    /// produce byte-identical dumps (the triage artifact is as
    /// deterministic as the run it describes).
    #[test]
    fn forced_failure_dumps_flight_recorder_deterministically(seed in any::<u64>()) {
        let case = FaultCase {
            seed,
            deadline_secs: 1,
            ..FaultCase::quick(Scheme::AsyncLustre, FaultScenario::CrashOne, 1)
        };
        let (a, b) = (case.run(false), case.run(false));
        prop_assert_eq!(&a.ending, &Ending::Hung, "1 s deadline cannot cover flush + read-back");
        prop_assert!(
            !a.flight_dumps.is_empty(),
            "forced failure produced no flight-recorder dump"
        );
        prop_assert!(a.flight_dumps[0].contains("\"schema\": \"rdma-bb.flight.v1\""));
        prop_assert!(a.flight_dumps[0].contains("hung past the deadline"));
        prop_assert!(
            a.flight_dumps[0].contains("faultplan"),
            "dump must carry the applied-fault ring"
        );
        prop_assert_eq!(a.replay_diff(&b), Ok(()));
    }

    /// The relaxed-ack loss window replays identically: which chunks were
    /// acked under-replicated, which tails were still delay-held at the
    /// crash, and therefore exactly which chunks are lost are functions
    /// of (seed, plan) only.
    #[test]
    fn relaxed_ack_loss_window_is_deterministic(seed in any::<u64>()) {
        let case = FaultCase {
            seed,
            ack_mode: AckMode::LocalOnly,
            ack_ahead: 4,
            ..FaultCase::quick(Scheme::AsyncLustre, FaultScenario::CrashAsyncReplica, 2)
        };
        let (a, b) = (case.run(false), case.run(false));
        prop_assert_eq!(&a.ending, &Ending::Finished);
        prop_assert_eq!(a.replay_diff(&b), Ok(()));
    }

    /// The full crash/restart lifecycle replays identically: recovery
    /// timeline and loss accounting are functions of (seed, plan) only.
    #[test]
    fn crash_recovery_timeline_is_deterministic(seed in any::<u64>()) {
        let case = FaultCase {
            seed,
            ..FaultCase::quick(Scheme::AsyncLustre, FaultScenario::CrashRestart, 1)
        };
        let (a, b) = (case.run(false), case.run(false));
        prop_assert_eq!(&a.ending, &Ending::Finished);
        prop_assert_eq!(a.replay_diff(&b), Ok(()));
        let (ra, rb) = (a.result.unwrap(), b.result.unwrap());
        prop_assert_eq!((ra.reads_ok, ra.recovery), (rb.reads_ok, rb.recovery));
    }
}
