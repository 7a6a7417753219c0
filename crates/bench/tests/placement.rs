//! Migration-consistency suite for the topology-aware placement engine
//! (DESIGN.md §11): random topologies and access patterns must never
//! lose an acknowledged byte, must keep the KV history sequentially
//! explainable, must drive the layout cost monotonically down round over
//! round, and must replay byte-identically from the same seed — while
//! crash/flap/drain faults during active placement moves leave the
//! migrating-set guard intact.
//!
//! Invariants per cell, on top of the scenario runner's oracle
//! (`Outcome::assert_clean`: the driver finished, zero acked loss, zero
//! checksum, migration-verify and unrepairable-scrub failures, the KV
//! history explainable, the placement queue drained):
//! * **no loss** — every acknowledged file reads back byte-identical at
//!   end of run (the driver fails otherwise);
//! * **cost monotone** — the layout cost under the cell's fixed access
//!   weights never increases across settled optimizer rounds;
//! * **determinism** — the same case reproduces the exact metrics
//!   snapshot and virtual end instant;
//! * **defaults off** — with the hash policy and a zero optimizer
//!   interval, no `bb.place.*` metric name is even registered and no
//!   routing override is installed.

use bench::experiments::placement::{PlaceFault, PlacementCase, PlacementPropCase, ROUNDS};
use bench::scenario::{Ending, Outcome};
use proptest::prelude::*;

/// Routing overrides installed at the end instant.
fn overrides<T>(o: &Outcome<T>) -> usize {
    let bb = o.testbed.bb.as_ref().expect("bb testbed");
    bb.membership().overrides_len()
}

/// Random topology tier sizes and boundary latencies: flat single-rack
/// fabrics through two-geo WAN stretches.
fn topologies() -> impl Strategy<Value = ((usize, usize, usize), (u64, u64, u64))> {
    (
        (1usize..=3, 1usize..=3, 1usize..=2),
        (0u64..10, 10u64..50, 500u64..3000),
    )
}

/// Random fixed access pattern: 1-4 `(reader, file, reads)` triples.
fn patterns() -> impl Strategy<Value = Vec<(usize, usize, u32)>> {
    proptest::collection::vec((0usize..3, 0usize..2, 1u32..3), 1..4)
}

fn prop_case(
    seed: u64,
    topo: (usize, usize, usize),
    tier_us: (u64, u64, u64),
    files: Vec<u64>,
    reads: Vec<(usize, usize, u32)>,
    fault: PlaceFault,
) -> PlacementPropCase {
    PlacementPropCase {
        seed,
        topo,
        tier_us,
        files,
        reads,
        policy_on: true,
        fault,
        flush_before_reads: true,
        lustre_ost_rate: None,
        static_membership: false,
        read_window: None,
    }
}

/// The pinned fault-matrix topology: two geos 2 ms apart, so a
/// mid-migration fault hits moves that genuinely cross the WAN.
fn fault_case(seed: u64, fault: PlaceFault) -> PlacementPropCase {
    prop_case(
        seed,
        (2, 2, 2),
        (5, 20, 2000),
        vec![1 << 20, 512 << 10],
        vec![(0, 0, 2), (1, 1, 1), (0, 1, 1)],
        fault,
    )
}

// --- pinned cells ----------------------------------------------------

/// The AB13 geo-convergence cell holds end to end at test scale.
#[test]
fn ab13_cell_converges_to_local_floor() {
    let o = PlacementCase::ab13(true).run(false);
    let run = o.assert_clean("ab13");
    assert!(
        run.converged_within(1.3),
        "settled remote latencies {:?} not within 1.3x of the floor {:?}",
        run.settled,
        run.floor
    );
    assert!(o.counter("bb.place.migrations") > 0 && o.counter("bb.place.decisions") > 0);
    assert!(o.counter("bb.place.cost_after") < o.counter("bb.place.cost_before"));
    assert!(run.files_ok, "acknowledged files failed read-back");
}

/// Crash of the migration destination mid-move: the migrating-set guard
/// and verified-copy protocol must keep every acknowledged byte.
#[test]
fn migration_survives_destination_crash() {
    let o = fault_case(0xC0, PlaceFault::Crash).run();
    o.assert_clean("crash");
}

/// Link flaps on the migration destination: failed moves re-queue and
/// eventually complete; nothing is lost meanwhile.
#[test]
fn migration_survives_destination_flap() {
    let o = fault_case(0xF1, PlaceFault::Flap).run();
    o.assert_clean("flap");
}

/// Draining the migration destination mid-move: stale overrides pointing
/// at the drained server are cleaned up and chunks return to their hash
/// owners without loss.
#[test]
fn migration_survives_destination_drain() {
    let o = fault_case(0xD0, PlaceFault::Drain).run();
    o.assert_clean("drain");
    assert_eq!(
        overrides(&o),
        0,
        "drain left routing overrides behind: {}",
        overrides(&o)
    );
}

/// Placement moves over pinned, buffer-only chunks at epoch 0: a
/// crawling Lustre tier keeps the files unflushed through every read
/// round (no backing-store fallback), and static membership keeps the
/// epoch at 0 so a miss cannot widen to the full roster — the only
/// reachable copies are exactly where routing points. The routing
/// override must switch onto the verified new copies *before* the old
/// ones are deleted, or a concurrent read routes at hash owners
/// holding nothing and acked data goes unreadable mid-move
/// (regression: the override used to install only after `migrate_to`
/// had already deleted the old copies).
#[test]
fn migration_of_unflushed_chunks_keeps_reads_available() {
    let mut case = fault_case(0xB1F, PlaceFault::None);
    case.flush_before_reads = false;
    // ~47 virtual seconds to drain 4.5 MiB: unflushed well past the rounds
    case.lustre_ost_rate = Some(100e3);
    case.static_membership = true;
    // one node per rack/zone, five zones per geo: with sequential node
    // ids (compute 0-1, lustre 2-3, servers 4-5, manager 6, standby 7,
    // readers 8-9) server 4 shares the writer's geo while server 5,
    // the manager, and every reader share the other — the write-local
    // layout is strictly worse for every reader, so the optimizer must
    // move all chunks cross-geo onto server 5
    case.topo = (1, 1, 5);
    // many chunks: every 512 KiB chunk is its own budget-throttled
    // move, so the hammer reads overlap many copy/delete windows
    case.files = vec![4 << 20, 512 << 10];
    // the seed-exact serial read path surfaces a routing miss directly
    // (the pipelined path's group retry would paper over a one-shot
    // miss after the override lands)
    case.read_window = Some(1);
    let o = case.run();
    let run = o.assert_clean("unflushed");
    assert_eq!(
        run.read_errs, 0,
        "read of a pinned buffer-only chunk failed during a placement move"
    );
    assert!(
        o.counter("bb.place.migrations") > 0,
        "cell never exercised a placement move"
    );
}

/// Defaults-off contract: the hash policy with a zero optimizer interval
/// registers no `bb.place.*` metric, installs no override, and replays
/// byte-identically — the seed behaviour is untouched.
#[test]
fn defaults_off_is_seed_identical_and_unregistered() {
    let mut case = fault_case(0x0FF, PlaceFault::None);
    case.policy_on = false;
    let (a, b) = (case.run(), case.run());
    a.assert_clean("defaults-off");
    assert!(
        !a.cell.snapshot.names().any(|n| n.starts_with("bb.place.")),
        "defaults-off run registered a bb.place.* metric"
    );
    assert_eq!(overrides(&a), 0, "defaults-off run installed overrides");
    assert_eq!(a.counter("bb.place.migrations"), 0);
    assert_eq!(a.replay_diff(&b), Ok(()), "defaults-off replay diverged");
}

// --- random topologies and patterns ----------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Any random topology and access pattern: migration loses nothing,
    /// the history stays explainable, and the layout cost under the
    /// cell's fixed weights never increases across settled rounds.
    #[test]
    fn random_cells_never_lose_data_and_cost_is_monotone(
        seed in any::<u64>(),
        (topo, tier_us) in topologies(),
        f0 in (512u64 << 10)..(2 << 20),
        f1 in (512u64 << 10)..(1 << 20),
        reads in patterns(),
    ) {
        let case = prop_case(seed, topo, tier_us, vec![f0, f1], reads, PlaceFault::None);
        let o = case.run();
        let run = o.assert_clean("random-cell");
        prop_assert_eq!(run.read_errs, 0, "fault-free reads errored");
        prop_assert_eq!(run.round_costs.len(), ROUNDS);
        prop_assert!(
            run.cost_monotone(),
            "layout cost increased across rounds: {:?} (topo {:?}, tiers {:?})",
            run.round_costs,
            topo,
            tier_us
        );
    }

    /// The same case replays byte-identically: metrics snapshot, cost
    /// trajectory, and virtual end instant all match.
    #[test]
    fn same_seed_placement_runs_are_byte_identical(
        seed in any::<u64>(),
        (topo, tier_us) in topologies(),
        reads in patterns(),
    ) {
        let case = prop_case(seed, topo, tier_us, vec![1 << 20], reads, PlaceFault::None);
        let (a, b) = (case.run(), case.run());
        prop_assert_eq!(&a.ending, &Ending::Finished);
        prop_assert_eq!(a.replay_diff(&b), Ok(()));
        prop_assert_eq!(a.result.unwrap().round_costs, b.result.unwrap().round_costs);
    }
}
