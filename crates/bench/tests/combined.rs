//! The combined cell (DESIGN.md §6): every background control loop at
//! once, under a crash, as one scenario instance.
//!
//! BB-Async at r = 2 with `full_r` acks on 4 servers, plus a standby that
//! joins mid-write (the rebalancer ticks every 100 ms); locality placement
//! with the optimizer at 50 ms and a 512 KiB migration budget; the
//! admission classifier at AB12's thresholds; the scrubber; and a crash
//! and empty restart of one initial server while placement moves and
//! flushes are in flight. A stream writer, a spurt writer, and a reader
//! on a third node — racked with the standby, so the optimizer has a
//! cheaper layout to move toward — that reads every closed file back.
//! One crash at r = 2 under `full_r` is inside the ack contract, so the
//! oracle demands zero acked loss.

use std::rc::Rc;

use bb_core::{AckMode, BbClient, FileState, PlacementPolicy, Scheme};
use bench::scenario::{self, read_back_ok, write_file, Outcome, Scenario};
use simkit::sync::mpsc;
use simkit::{dur, FaultEvent, FaultPlan, Time};
use workloads::{PayloadPool, SystemKind, TestbedConfig};

/// The stream file: path, payload seed, bytes. The classifier writes it
/// through to Lustre after its first 6 MiB.
const STREAM: (&str, u64, u64) = ("/combined/stream", 60, 16 << 20);
/// Spurt files, one every 250 ms: each lands inside one classifier window
/// and under the stream threshold, so it stays buffered.
const SPURTS: u32 = 4;
const SPURT_BYTES: u64 = 2 << 20;

/// Spurt file `k`: path and payload seed.
fn spurt(k: u32) -> (String, u64) {
    (format!("/combined/spurt{k}"), 70 + u64::from(k))
}

/// Whether `path` reads back byte-identical through `reader`, as a
/// driver result.
async fn check(
    reader: &Rc<BbClient>,
    pool: &PayloadPool,
    path: &str,
    seed: u64,
    bytes: u64,
) -> Result<(), String> {
    match read_back_ok(reader, pool, path, seed, bytes).await {
        true => Ok(()),
        false => Err(format!("{path} did not read back byte-identical")),
    }
}

/// The cell. `early_stream_read` also reads the stream file back as soon
/// as it closes, while its buffered head still drains.
fn combined(seed: u64, early_stream_read: bool) -> Outcome<()> {
    let mut cfg = TestbedConfig {
        compute_nodes: 2,
        ..TestbedConfig::default()
    };
    cfg.net.nodes_per_rack = 2;
    cfg.net.rack_latency = dur::us(20);
    cfg.lustre.oss_count = 1;
    cfg.lustre.osts_per_oss = 1;
    cfg.lustre.ost_rate = 24e6;
    cfg.bb.kv_servers = 4;
    cfg.bb.kv_replication = 2;
    cfg.bb.bb_ack_mode = AckMode::FullR;
    cfg.bb.rebalance_interval = dur::ms(100);
    cfg.bb.bb_place_policy = PlacementPolicy::Locality;
    cfg.bb.bb_place_interval = dur::ms(50);
    cfg.bb.bb_migrate_budget = 512 << 10;
    cfg.bb.bb_admit_stream_bytes = 6 << 20;
    let sc = Scenario {
        kind: SystemKind::Bb(Scheme::AsyncLustre),
        cfg,
        seed,
        slice: dur::ms(250),
        deadline: dur::secs(60),
        // a crash legally empties a server
        forbid_miss: false,
        trace: false,
        stem: format!(
            "combined{}-seed{seed:x}",
            if early_stream_read { "-early" } else { "" }
        ),
    };
    scenario::run(
        &sc,
        |tb| {
            let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
            let victim = bb.kv_servers[0].node().0;
            // pad to a rack boundary: the standby and the reader share a rack
            if tb.fabric.len() % 2 == 1 {
                tb.fabric.add_node();
            }
            let standby = bb.standby_kv_server().node().0;
            let reader = bb.client(tb.fabric.add_node());
            let plan = FaultPlan::new(seed)
                .at(dur::ms(200), FaultEvent::AddServer { node: standby })
                .at(dur::ms(450), FaultEvent::Crash { node: victim })
                .at(dur::ms(750), FaultEvent::Restart { node: victim });
            let writers = (bb.client(tb.nodes[0]), bb.client(tb.nodes[1]));
            let state = (tb.sim.clone(), Rc::clone(&reader), writers);
            (plan, reader, state)
        },
        |(sim, reader, (streamer, spurter))| async move {
            let pool = PayloadPool::standard();
            let stream = sim.spawn({
                let pool = pool.clone();
                async move {
                    let (path, seed, bytes) = STREAM;
                    write_file(&streamer, &pool, path, seed, bytes).await
                }
            });
            let (closed, mut spurts_closed) = mpsc::unbounded();
            let spurts = sim.spawn({
                let (sim, pool) = (sim.clone(), pool.clone());
                async move {
                    for k in 0..SPURTS {
                        sim.sleep_until(Time::ZERO + dur::ms(250) * k).await;
                        let (path, seed) = spurt(k);
                        write_file(&spurter, &pool, &path, seed, SPURT_BYTES).await?;
                        let _ = closed.try_send(k);
                    }
                    Ok::<_, String>(())
                }
            });
            // each spurt file read back twice as soon as it closes: reader
            // telemetry the optimizer acts on while the crash lands
            while let Ok(k) = spurts_closed.recv().await {
                let (path, seed) = spurt(k);
                for _ in 0..2 {
                    check(&reader, &pool, &path, seed, SPURT_BYTES).await?;
                }
            }
            spurts.await?;
            stream.await?;
            let (path, seed, bytes) = STREAM;
            if early_stream_read {
                check(&reader, &pool, path, seed, bytes).await?;
            }
            // every file again once durable
            let files = (0..SPURTS).map(|k| (spurt(k), SPURT_BYTES));
            for ((path, seed), bytes) in files.chain([((path.to_string(), seed), bytes)]) {
                let state = reader.wait_flushed(&path).await;
                if state != Ok(FileState::Flushed) {
                    return Err(format!("{path} ended {state:?}"));
                }
                check(&reader, &pool, &path, seed, bytes).await?;
            }
            Ok(())
        },
    )
}

/// Every loop at once keeps the contract of one crash at r = 2 under
/// `full_r` — zero acked loss, clean integrity counters, drained
/// backlogs — and the whole cell replays byte-identically.
#[test]
fn every_loop_at_once_under_a_crash_loses_no_acked_data() {
    let o = combined(0xC0B, false);
    o.assert_clean("combined");
    assert_eq!(o.per_server("crashes"), 1, "one initial server crashed");
    assert!(
        o.counter("bb.rebalance.epochs") > 0,
        "the join never applied"
    );
    assert!(
        o.counter("bb.place.migrations") > 0,
        "the optimizer never moved a chunk"
    );
    assert!(
        o.counter("bb.admit.stream_detected") > 0,
        "the classifier never saw the stream"
    );
    assert!(o.counter("bb.scrub.scanned") > 0, "the scrubber never ran");
    assert_eq!(o.replay_diff(&combined(0xC0B, false)), Ok(()));
}

/// The same cell reading the stream file back as soon as it closes. The
/// classifier wrote its tail through to Lustre while its buffered head
/// still drains, and the read path serves a file's Lustre tier only once
/// the whole file is `Flushed`: the durable tail is refused as "not in
/// the buffer and not (yet) durable on Lustre" although it is durable.
#[test]
#[ignore = "ROADMAP item 1(a): the Lustre tier is gated per file, not per chunk, so a \
            closed stream's written-through tail is unreadable until its head drains; \
            dump: target/flight-recorder/combined-early-seedc0b-0.json"]
fn reading_a_stream_while_its_head_drains_is_served() {
    combined(0xC0B, true).assert_clean("combined, early stream read");
}
