//! Migration invariants for elastic KV membership (DESIGN.md §8):
//! random add/drain schedules interleaved with a sustained write stream
//! must never lose an acknowledged chunk, must keep ownership movement
//! near the consistent-hashing ideal, and must replay byte-identically
//! from the same seed.
//!
//! Invariants per schedule, on top of the scenario runner's oracle
//! (`Outcome::assert_clean`: zero acked loss, zero checksum and migration
//! verify failures, the KV history explainable with misses forbidden,
//! the rebalance backlog drained):
//! * **no loss** — every acknowledged file reads back byte-identical
//!   after every epoch transition and at end of run (the driver fails
//!   otherwise);
//! * **bounded remap** — each transition moves a key fraction within
//!   1.5× of the ideal k/n;
//! * **determinism** — the same seed and schedule reproduce the exact
//!   metrics snapshot, applied timeline, and virtual end instant.

use std::time::Duration;

use bench::experiments::rebalance::{ChangeOp, RebalanceCase, ScheduledChange};
use bench::scenario::Ending;
use lustre::LustreConfig;
use proptest::prelude::*;

/// A random membership schedule: 1–4 changes at distinct offsets inside
/// the write window. `Drain` picks an arbitrary pool slot — draining an
/// inactive node (or the last active one) is a legal no-op, so no
/// legality filtering is needed.
fn schedules() -> impl Strategy<Value = Vec<ScheduledChange>> {
    proptest::collection::vec((300u64..2000, any::<bool>(), 0usize..8), 1..4).prop_map(|raw| {
        let mut changes: Vec<ScheduledChange> = raw
            .into_iter()
            .map(|(ms, is_add, sel)| ScheduledChange {
                at: Duration::from_millis(ms),
                op: if is_add {
                    ChangeOp::Add
                } else {
                    ChangeOp::Drain(sel)
                },
            })
            .collect();
        changes.sort_by_key(|c| c.at);
        changes
    })
}

fn case(seed: u64, replication: usize, changes: Vec<ScheduledChange>) -> RebalanceCase {
    RebalanceCase {
        seed,
        initial_servers: 3,
        standbys: 3,
        replication,
        file_bytes: 1 << 20,
        changes,
        ..RebalanceCase::ab8(true)
    }
}

// --- pinned cell: the AB8 schedule at test scale ---------------------

/// The deterministic AB8-style scale-out/scale-in schedule holds every
/// migration invariant, including the remap bound per transition.
#[test]
fn ab8_schedule_holds_invariants() {
    let o = RebalanceCase::ab8(true).run(false);
    let run = o.assert_clean("ab8");
    assert_eq!(run.epochs, 6, "all six scripted changes must apply");
    assert!(
        run.migration_done.is_some(),
        "rebalance backlog never drained"
    );
    assert!(
        o.counter("bb.rebalance.moved") > 0,
        "churn moved ownership but nothing migrated"
    );
    for r in &run.remaps {
        assert!(
            r.moved_frac > 0.0 && r.moved_frac <= 1.5 * r.ideal,
            "epoch {} ({}→{} servers): remap {:.3} outside 1.5x of ideal {:.3}",
            r.epoch,
            r.from_active,
            r.to_active,
            r.moved_frac,
            r.ideal
        );
    }
}

/// The same schedule where it used to lose data: a single replica, every
/// change 37 ms off the rebalancer's 100 ms tick grid, and one 16 MB/s OST,
/// so each join remaps a deep queue of pinned, unflushed chunks whose only
/// copy stays on the old owner until the next tick. The flusher has to
/// find them there (before the one lookup order: 10 chunks lost, 82/85
/// files).
#[test]
fn ab8_single_replica_off_grid_over_one_slow_ost_loses_nothing() {
    let mut case = RebalanceCase::ab8(true);
    case.replication = 1;
    for ch in &mut case.changes {
        ch.at += Duration::from_millis(37);
    }
    case.lustre = LustreConfig {
        stripe_count: 1,
        oss_count: 1,
        osts_per_oss: 1,
        ost_rate: 16e6,
        ..case.lustre
    };
    let o = case.run(false);
    let run = o.assert_clean("ab8 r=1 off-grid narrow");
    assert_eq!(run.epochs, 6, "all six scripted changes must apply");
}

// --- random schedules ------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Any random add/drain schedule interleaved with writes preserves
    /// every acknowledged byte (per-epoch and final read-back), stays
    /// within 1.5× of the consistent-hashing remap ideal on every
    /// applied transition, and drains its migration backlog.
    #[test]
    fn random_schedules_never_lose_acked_data(
        seed in any::<u64>(),
        replication in 1usize..=2,
        changes in schedules(),
    ) {
        let o = case(seed, replication, changes.clone()).run(false);
        let run = o.assert_clean("random-schedule");
        prop_assert!(
            run.remap_within(1.5),
            "remap outside 1.5x of ideal: {:?} (schedule {:?})",
            run.remaps,
            changes
        );
        prop_assert!(
            run.migration_done.is_some(),
            "rebalance backlog never drained (schedule {:?})",
            changes
        );
        // every applied epoch must be visible in the membership timeline
        prop_assert_eq!(run.remaps.len() as u64, run.epochs);
    }

    /// The same (seed, schedule) pair replays byte-identically: metrics
    /// snapshot, applied timeline, and virtual end instant all match —
    /// the cell has no wall-clock dependence.
    #[test]
    fn same_seed_rebalance_runs_are_byte_identical(
        seed in any::<u64>(),
        replication in 1usize..=2,
        changes in schedules(),
    ) {
        let c = case(seed, replication, changes);
        let (a, b) = (c.run(false), c.run(false));
        prop_assert_eq!(&a.ending, &Ending::Finished);
        prop_assert_eq!(a.replay_diff(&b), Ok(()));
        prop_assert_eq!(a.result.unwrap().epochs, b.result.unwrap().epochs);
    }
}
