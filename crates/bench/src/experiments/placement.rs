//! AB13: topology-aware placement — telemetry-driven live migration on a
//! geo-stretched cluster.
//!
//! A two-geo fabric (rack 5 µs / zone 20 µs / geo 2 ms boundary
//! latencies) hosts the whole seed deployment — writer, Lustre, the
//! initial KV server, the manager — in geo 0, plus one admitted standby
//! server and a hot reader in geo 1. With the `locality` placement
//! policy, a file written in geo 0 lands next to its writer; the geo-1
//! reader then hammers it while the background placement optimizer
//! watches the per-chunk reader telemetry and migrates the chunks across
//! the geo boundary under the migration-bandwidth budget. The cell
//! measures the remote reader's p99 read latency per round and checks it
//! converges to within 1.3x of the local-replica floor (a second file
//! written from geo 1, so its replicas start reader-local) — with zero
//! acknowledged-data loss and zero checksum failures.
//!
//! [`run_placement_scenario`] is the reusable cell runner; the placement
//! property suite (`crates/bench/tests/placement.rs`) sweeps the same
//! machinery across random topologies and access patterns.

use std::rc::Rc;

use bb_core::manager::chunk_key;
use bb_core::{FileState, PlacementPolicy, Scheme};
use netsim::NetConfig;
use simkit::{dur, Time};
use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};

use crate::consistency::{Checker, History};
use crate::experiments::integrity::step_to;
use crate::experiments::{pctl, persist_flight_dumps, read_back_ok, ExpReport};
use crate::table::Table;
use crate::telemetry::{capture_cell, CellTelemetry};

/// One placement cell: the geo-stretched rig and its read schedule.
#[derive(Debug, Clone, Copy)]
pub struct PlacementCase {
    /// Stamped into the timeline artifact.
    pub seed: u64,
    /// Bytes per file (hot file and floor file alike).
    pub file_bytes: u64,
    /// Remote read rounds before the settle check.
    pub rounds: usize,
    /// Whole-file reads per round.
    pub reads_per_round: usize,
}

impl PlacementCase {
    /// The AB13 cell.
    pub fn ab13(quick: bool) -> PlacementCase {
        PlacementCase {
            seed: 0xAB13,
            file_bytes: if quick { 2 << 20 } else { 8 << 20 },
            rounds: if quick { 4 } else { 6 },
            reads_per_round: 4,
        }
    }
}

/// What one placement cell observed.
#[derive(Debug, Clone)]
pub struct PlacementOutcome {
    /// Writes, reads, settle, and final verification all finished in time.
    pub converged: bool,
    /// p99 of local-replica reads (geo-1 reader, geo-1 replicas) — the
    /// floor remote reads should converge toward.
    pub floor_p99_ns: u64,
    /// Remote-read p99 per round, migration running in the background.
    pub round_p99_ns: Vec<u64>,
    /// Remote-read p99 after the optimizer settled.
    pub final_p99_ns: u64,
    /// Primary owner of each hot chunk right after the write.
    pub routes_before: Vec<Option<usize>>,
    /// Primary owner of each hot chunk after settling.
    pub routes_after: Vec<Option<usize>>,
    /// `bb.place.decisions`.
    pub decisions: u64,
    /// `bb.place.migrations`.
    pub migrations: u64,
    /// `bb.place.bytes`.
    pub moved_bytes: u64,
    /// `bb.place.cost_before` (reader-weighted ns, summed over decisions).
    pub cost_before: u64,
    /// `bb.place.cost_after`.
    pub cost_after: u64,
    /// `bb.integrity.checksum_fail` at end of run.
    pub checksum_fails: u64,
    /// `bb.rebalance.verify_fail` (shared by placement moves).
    pub verify_fails: u64,
    /// Chunks the flusher declared lost.
    pub chunks_lost: u64,
    /// Placement moves still queued at end of run.
    pub place_backlog: usize,
    /// Both files read back byte-identical at end of run.
    pub files_ok: bool,
    /// Per-key KV history sequentially explainable, misses forbidden.
    pub consistency_ok: bool,
    /// Checker violations when `consistency_ok` is false.
    pub consistency_violations: Vec<String>,
    /// Full metrics snapshot JSON (same-seed determinism artifact).
    pub metrics_json: String,
    /// Round-by-round convergence timeline (the `--timeline` artifact).
    pub timeline: String,
    /// Virtual end-of-run instant.
    pub end: Time,
}

impl PlacementOutcome {
    /// Final remote p99 within `factor` of the local-replica floor.
    pub fn converged_within(&self, factor: f64) -> bool {
        self.floor_p99_ns > 0 && self.final_p99_ns as f64 <= factor * self.floor_p99_ns as f64
    }
}

/// The geo-stretched AB13 rig: geo size 8 (2 nodes/rack x 2 racks/zone x
/// 2 zones/geo), everything deployed up front in geo 0, one standby KV
/// server and the reader in geo 1.
fn ab13_testbed() -> Testbed {
    let mut cfg = TestbedConfig {
        compute_nodes: 2,
        ..TestbedConfig::default()
    };
    cfg.net = NetConfig {
        nodes_per_rack: 2,
        racks_per_zone: 2,
        zones_per_geo: 2,
        rack_latency: dur::us(5),
        zone_latency: dur::us(20),
        geo_latency: dur::ms(2),
        ..NetConfig::default()
    };
    cfg.lustre.oss_count = 1;
    cfg.lustre.osts_per_oss = 1;
    cfg.bb.kv_servers = 1;
    cfg.bb.kv_replication = 1;
    cfg.bb.kv_mem_per_server = 1 << 30;
    cfg.bb.bb_place_policy = PlacementPolicy::Locality;
    cfg.bb.bb_place_interval = dur::ms(50);
    Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), cfg)
}

/// Run one placement cell: geo-0 write, geo-1 floor file, rounds of
/// remote reads while the optimizer migrates, settle, verify.
pub fn run_placement_scenario(case: &PlacementCase) -> PlacementOutcome {
    run_placement_telemetry(case, false).0
}

/// [`run_placement_scenario`] plus the cell telemetry capture (Chrome
/// trace when `trace` is set).
pub fn run_placement_telemetry(
    case: &PlacementCase,
    trace: bool,
) -> (PlacementOutcome, CellTelemetry) {
    let tb = ab13_testbed();
    if trace {
        tb.sim.tracer().enable();
    }
    let sim = tb.sim.clone();
    let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
    // geo membership must match the rig's story: compute nodes, Lustre,
    // the seed server, and the manager all inside geo 0 (nodes 0..8);
    // the standby opens geo 1, the reader joins it
    assert!(bb.manager.node().0 < 8, "infra must fit in geo 0");
    while tb.fabric.len() < 8 {
        tb.fabric.add_node();
    }
    let standby = bb.standby_kv_server();
    assert_eq!(standby.node().0, 8, "standby must open geo 1");
    let reader_node = tb.fabric.add_node();
    assert_eq!(reader_node.0, 9, "reader must sit in geo 1");

    let chunks = case.file_bytes.div_ceil(512 << 10);
    let payloads = PayloadPool::standard();
    let rclient = bb.client(reader_node);
    let wclient = bb.client(tb.nodes[0]);
    let history = History::new();
    history.attach(rclient.kv());

    let mut timeline = String::new();
    timeline.push_str(&format!(
        "AB13 placement timeline (seed {:#x}): {} MiB/file, {} chunks, geo boundary 2 ms\n",
        case.seed,
        case.file_bytes >> 20,
        chunks
    ));

    let routes_of = {
        let bb = Rc::clone(&bb);
        move |fid: u64| -> Vec<Option<usize>> {
            (0..chunks)
                .map(|seq| bb.membership().route(&chunk_key(fid, seq)))
                .collect()
        }
    };

    let driver = {
        let spawner = sim.clone();
        let sim = sim.clone();
        let bb = Rc::clone(&bb);
        let rclient = Rc::clone(&rclient);
        let wclient = Rc::clone(&wclient);
        let pool = payloads.clone();
        let case = *case;
        spawner.spawn(async move {
            assert!(bb.admit_kv_server(standby.node()));
            // hot file from geo 0: locality placement pins it writer-side
            let w = wclient.create("/ab13/hot").await.ok()?;
            for piece in pool.stream(7, case.file_bytes, 1 << 20) {
                w.append(piece).await.ok()?;
            }
            w.close().await.ok()?;
            if wclient.wait_flushed("/ab13/hot").await != Ok(FileState::Flushed) {
                return None;
            }
            // floor file from geo 1: locality placement starts it
            // reader-local, giving the convergence target
            let w = rclient.create("/ab13/floor").await.ok()?;
            for piece in pool.stream(8, case.file_bytes, 1 << 20) {
                w.append(piece).await.ok()?;
            }
            w.close().await.ok()?;
            if rclient.wait_flushed("/ab13/floor").await != Ok(FileState::Flushed) {
                return None;
            }
            let timed_read = |path: &'static str| {
                let sim = sim.clone();
                let rclient = Rc::clone(&rclient);
                async move {
                    let t0 = sim.now();
                    let rd = rclient.open(path).await.ok()?;
                    let bytes = rd.read_all().await.ok()?;
                    (bytes.len() as u64 == case.file_bytes)
                        .then(|| (sim.now() - t0).as_nanos() as u64)
                }
            };
            // the local-replica floor
            let mut floor: Vec<u64> = Vec::new();
            for _ in 0..case.reads_per_round {
                floor.push(timed_read("/ab13/floor").await?);
            }
            floor.sort_unstable();
            // remote read rounds; the optimizer migrates in the background
            let mut rounds: Vec<Vec<u64>> = Vec::new();
            for _ in 0..case.rounds {
                let mut lats = Vec::new();
                for _ in 0..case.reads_per_round {
                    lats.push(timed_read("/ab13/hot").await?);
                }
                lats.sort_unstable();
                rounds.push(lats);
                sim.sleep(dur::ms(100)).await;
            }
            // settle: every queued placement move executed
            let deadline = sim.now() + dur::secs(20);
            while bb.manager.place_backlog() > 0 && sim.now() < deadline {
                sim.sleep(dur::ms(100)).await;
            }
            sim.sleep(dur::secs(1)).await;
            // post-migration measurement round
            let mut fin = Vec::new();
            for _ in 0..case.reads_per_round {
                fin.push(timed_read("/ab13/hot").await?);
            }
            fin.sort_unstable();
            // byte-verify both acknowledged files end to end
            let mut ok = true;
            for (path, seed) in [("/ab13/hot", 7u64), ("/ab13/floor", 8u64)] {
                ok &= read_back_ok(&rclient, &pool, path, seed, case.file_bytes).await;
            }
            Some((floor, rounds, fin, ok))
        })
    };

    // capture the hot file's starting layout as soon as the write lands
    let mut routes_before: Option<Vec<Option<usize>>> = None;
    let deadline = sim.now() + dur::secs(120);
    while !driver.is_finished() && sim.now() < deadline {
        step_to(&sim, sim.now() + dur::ms(50));
        if routes_before.is_none() {
            let r = routes_of(1);
            if r.iter().all(|o| o.is_some()) {
                routes_before = Some(r);
            }
        }
    }
    let converged = driver.is_finished();
    let (floor, rounds, fin, files_ok) =
        driver
            .try_take()
            .flatten()
            .unwrap_or((Vec::new(), Vec::new(), Vec::new(), false));
    let routes_before = routes_before.unwrap_or_default();
    let routes_after = routes_of(1);

    // harness-side latency histograms (bench namespace, not `bb.*`): the
    // SLO file gates the post-migration remote reads and the floor
    let h = sim.metrics().histogram("ab13.remote_read_ns");
    for &ns in &fin {
        h.record_ns(ns);
    }
    let h = sim.metrics().histogram("ab13.floor_read_ns");
    for &ns in &floor {
        h.record_ns(ns);
    }

    let floor_p99 = pctl(&floor, 99.0);
    let round_p99: Vec<u64> = rounds.iter().map(|r| pctl(r, 99.0)).collect();
    let final_p99 = pctl(&fin, 99.0);
    timeline.push_str(&format!(
        "floor: p99 {:>9} ns (geo-1 reader -> geo-1 replica)\n",
        floor_p99
    ));
    for (i, p) in round_p99.iter().enumerate() {
        timeline.push_str(&format!("round {i}: remote p99 {:>9} ns\n", p));
    }

    let cell = capture_cell(&tb.sim);
    let snap = &cell.snapshot;
    let verdict = history.check(Checker { forbid_miss: true });
    timeline.push_str(&format!(
        "settled: remote p99 {:>9} ns, routes {:?} -> {:?}, {} decisions, {} migrations, {} bytes\n",
        final_p99,
        routes_before,
        routes_after,
        snap.counter("bb.place.decisions"),
        snap.counter("bb.place.migrations"),
        snap.counter("bb.place.bytes"),
    ));
    let outcome = PlacementOutcome {
        converged,
        floor_p99_ns: floor_p99,
        round_p99_ns: round_p99,
        final_p99_ns: final_p99,
        routes_before,
        routes_after,
        decisions: snap.counter("bb.place.decisions"),
        migrations: snap.counter("bb.place.migrations"),
        moved_bytes: snap.counter("bb.place.bytes"),
        cost_before: snap.counter("bb.place.cost_before"),
        cost_after: snap.counter("bb.place.cost_after"),
        checksum_fails: snap.counter("bb.integrity.checksum_fail"),
        verify_fails: snap.counter("bb.rebalance.verify_fail"),
        chunks_lost: bb.manager.stats().chunks_lost,
        place_backlog: bb.manager.place_backlog(),
        files_ok,
        consistency_ok: verdict.ok(),
        consistency_violations: verdict.violations,
        metrics_json: snap.to_json(),
        timeline,
        end: sim.now(),
    };
    tb.shutdown();
    (outcome, cell)
}

// --- property-suite runner: random topologies, patterns, faults ------

/// A fault injected while placement moves are in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceFault {
    /// No fault: the cost-monotonicity cells.
    None,
    /// Crash the migration-destination server mid-run, restart it later.
    Crash,
    /// Flap the destination server's link (3 cycles, 50 ms down each).
    Flap,
    /// Drain the destination server off the ring mid-run.
    Drain,
}

impl PlaceFault {
    /// Artifact label.
    pub fn label(&self) -> &'static str {
        match self {
            PlaceFault::None => "none",
            PlaceFault::Crash => "crash",
            PlaceFault::Flap => "flap",
            PlaceFault::Drain => "drain",
        }
    }
}

/// One property cell: a random topology, a fixed per-round access
/// pattern, and an optional fault over the migration window.
#[derive(Debug, Clone)]
pub struct PlacementPropCase {
    /// Stamped into artifacts; drives nothing probabilistic itself.
    pub seed: u64,
    /// Topology tier sizes (`nodes_per_rack` x `racks_per_zone` x
    /// `zones_per_geo`).
    pub topo: (usize, usize, usize),
    /// Boundary latencies in microseconds (rack, zone, geo).
    pub tier_us: (u64, u64, u64),
    /// Bytes per file, one entry per file written (file ids 1..=len).
    pub files: Vec<u64>,
    /// Fixed per-round access pattern: `(reader, file, whole-file
    /// reads)`, indices taken modulo the pool sizes.
    pub reads: Vec<(usize, usize, u32)>,
    /// Reader nodes added beyond the deployment (>= 1).
    pub readers: usize,
    /// Identical access rounds; the optimizer settles after each.
    pub rounds: usize,
    /// Placement on (locality + optimizer) or the hash default.
    pub policy_on: bool,
    /// Fault over the migration window.
    pub fault: PlaceFault,
    /// Virtual-time budget; overruns freeze the flight recorder.
    pub deadline_secs: u64,
    /// Wait for every file to reach `Flushed` before the read rounds
    /// (the durable regime: a mid-migration miss can fall back to
    /// Lustre). `false` starts reading while chunks are still pinned
    /// and buffer-only — reads then have no fallback, so a placement
    /// move that breaks routing for even a moment is a read error.
    pub flush_before_reads: bool,
    /// Override the backing OST streaming rate (bytes/s); `None` keeps
    /// the testbed default. A crawling rate keeps files unflushed (and
    /// their chunks pinned) deep into the read rounds.
    pub lustre_ost_rate: Option<f64>,
    /// Start with two KV servers and never admit the standby, keeping
    /// the membership epoch at 0 for the whole run. At epoch 0 a miss
    /// cannot widen to the full roster, so the read path sees exactly
    /// what the routing tables say — the regime where a placement move
    /// that breaks routing mid-flight is immediately visible.
    pub static_membership: bool,
    /// Override [`bb_core::BbConfig::read_window`]; `None` keeps the
    /// testbed default. `Some(1)` forces the serial chunk-at-a-time
    /// read path, which surfaces a routing miss directly instead of
    /// absorbing it in the pipelined path's one-shot group retry.
    pub read_window: Option<usize>,
}

/// What one property cell observed.
#[derive(Debug, Clone)]
pub struct PlacementPropOutcome {
    /// Writes, rounds, settling, and verification all finished in time.
    pub converged: bool,
    /// Files written and acknowledged.
    pub files_total: u64,
    /// Files byte-identical on final read-back.
    pub files_ok: u64,
    /// Layout cost under the cell's fixed access weights, sampled after
    /// the optimizer settled following each round.
    pub round_costs: Vec<u64>,
    /// Whole-file reads that errored during the rounds.
    pub read_errs: u64,
    /// Chunks the flusher declared lost.
    pub chunks_lost: u64,
    /// `bb.integrity.checksum_fail` at end of run.
    pub checksum_fails: u64,
    /// `bb.rebalance.verify_fail` (shared by placement moves).
    pub verify_fails: u64,
    /// `bb.scrub.unrepairable` at end of run.
    pub unrepairable: u64,
    /// `bb.place.migrations` at end of run.
    pub migrations: u64,
    /// Placement moves still queued at end of run (0 required).
    pub place_backlog: usize,
    /// Any `bb.place.*` name present in the snapshot.
    pub place_names_registered: bool,
    /// Routing overrides installed at end of run.
    pub overrides: usize,
    /// Per-key KV history sequentially explainable.
    pub consistency_ok: bool,
    /// Checker violations when `consistency_ok` is false.
    pub consistency_violations: Vec<String>,
    /// Full metrics snapshot JSON (same-seed determinism artifact).
    pub metrics_json: String,
    /// Frozen flight-recorder dumps (non-convergence artifacts).
    pub flight_dumps: Vec<String>,
    /// Virtual end-of-run instant.
    pub end: Time,
}

impl PlacementPropOutcome {
    /// Cost samples never increase round over round.
    pub fn cost_monotone(&self) -> bool {
        self.round_costs.windows(2).all(|w| w[1] <= w[0])
    }
}

/// Run one property cell: write the files from node 0, run the fixed
/// access rounds (optimizer settling after each), inject the scheduled
/// fault, then byte-verify every acknowledged file.
pub fn run_placement_property(case: &PlacementPropCase) -> PlacementPropOutcome {
    let (npr, rpz, zpg) = case.topo;
    let (rack_us, zone_us, geo_us) = case.tier_us;
    let mut cfg = TestbedConfig {
        compute_nodes: 2,
        ..TestbedConfig::default()
    };
    cfg.net = NetConfig {
        nodes_per_rack: npr.max(1),
        racks_per_zone: rpz.max(1),
        zones_per_geo: zpg.max(1),
        rack_latency: dur::us(rack_us),
        zone_latency: dur::us(zone_us),
        geo_latency: dur::us(geo_us),
        ..NetConfig::default()
    };
    cfg.lustre.oss_count = 1;
    cfg.lustre.osts_per_oss = 1;
    if let Some(rate) = case.lustre_ost_rate {
        cfg.lustre.ost_rate = rate;
    }
    cfg.bb.kv_servers = if case.static_membership { 2 } else { 1 };
    if let Some(w) = case.read_window {
        cfg.bb.read_window = w;
    }
    cfg.bb.kv_replication = 1;
    cfg.bb.kv_mem_per_server = 1 << 30;
    if case.policy_on {
        cfg.bb.bb_place_policy = PlacementPolicy::Locality;
        cfg.bb.bb_place_interval = dur::ms(50);
        // small budget: multi-chunk moves span ticks, exercising re-queue
        cfg.bb.bb_migrate_budget = 512 << 10;
    }
    let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), cfg);
    let sim = tb.sim.clone();
    sim.flight().enable(simkit::flight::DEFAULT_RING_LEN);
    let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
    let standby = bb.standby_kv_server();
    let readers: Vec<netsim::NodeId> = (0..case.readers.max(1))
        .map(|_| tb.fabric.add_node())
        .collect();
    let wclient = bb.client(tb.nodes[0]);
    let rclient0 = bb.client(readers[0]);
    let history = History::new();
    history.attach(rclient0.kv());

    // fault window: the schedule targets the standby — the likely
    // migration destination — while round reads keep moves in flight
    let target = standby.node().0;
    let mut plan = simkit::FaultPlan::new(case.seed);
    match case.fault {
        PlaceFault::None => {}
        PlaceFault::Crash => {
            plan = plan
                .at(dur::ms(400), simkit::FaultEvent::Crash { node: target })
                .at(dur::ms(800), simkit::FaultEvent::Restart { node: target });
        }
        PlaceFault::Flap => {
            plan = plan.at(
                dur::ms(400),
                simkit::FaultEvent::LinkFlap {
                    node: target,
                    count: 3,
                    down: dur::ms(50),
                    period: dur::ms(150),
                },
            );
        }
        PlaceFault::Drain => {
            plan = plan.at(
                dur::ms(400),
                simkit::FaultEvent::DrainServer { node: target },
            );
        }
    }
    sim.install_faults(plan);

    // fixed access weights: (reader node, file id) -> whole-file reads
    // per round; the same pattern repeats each round, so cumulative
    // telemetry stays proportional to these weights and layout cost is
    // comparable across rounds
    let files_n = case.files.len().max(1);
    let mut weights: std::collections::BTreeMap<(u32, u64), u64> =
        std::collections::BTreeMap::new();
    for &(r, f, times) in &case.reads {
        let node = readers[r % readers.len()].0;
        let fid = (f % files_n) as u64 + 1;
        *weights.entry((node, fid)).or_insert(0) += times as u64;
    }

    let layout_cost = {
        let bb = Rc::clone(&bb);
        let fabric = Rc::clone(&tb.fabric);
        let files = case.files.clone();
        let weights = weights.clone();
        move || -> u64 {
            let view = bb.membership();
            let mut total = 0u64;
            for (fi, &bytes) in files.iter().enumerate() {
                let fid = fi as u64 + 1;
                for seq in 0..bytes.div_ceil(512 << 10) {
                    let Some(idx) = view.route(&chunk_key(fid, seq)) else {
                        continue;
                    };
                    let node = view.server(idx).node();
                    for ((rn, f), &w) in &weights {
                        if *f == fid {
                            let ns =
                                fabric.topo_latency(netsim::NodeId(*rn), node).as_nanos() as u64;
                            total = total.saturating_add(w.saturating_mul(ns));
                        }
                    }
                }
            }
            total
        }
    };

    let driver = {
        let spawner = sim.clone();
        let sim = sim.clone();
        let bb = Rc::clone(&bb);
        let wclient = Rc::clone(&wclient);
        let pool = PayloadPool::standard();
        let case = case.clone();
        let readers = readers.clone();
        let layout_cost = layout_cost.clone();
        spawner.spawn(async move {
            if !case.static_membership {
                assert!(bb.admit_kv_server(standby.node()));
            }
            // write every file before the read rounds. In the durable
            // regime we also wait for the flush: acked data is then
            // Lustre-backed, so a mid-migration crash can delay reads
            // but must never lose bytes. With `flush_before_reads`
            // off the rounds start while chunks are still pinned and
            // buffer-only — the only copies are the ones migration is
            // shuffling around.
            for (fi, &bytes) in case.files.iter().enumerate() {
                let path = format!("/prop/f{fi}");
                let w = wclient.create(&path).await.ok()?;
                for piece in pool.stream(fi as u64 + 40, bytes, 1 << 20) {
                    w.append(piece).await.ok()?;
                }
                w.close().await.ok()?;
                if case.flush_before_reads
                    && wclient.wait_flushed(&path).await != Ok(FileState::Flushed)
                {
                    return None;
                }
            }
            let rclients: Vec<Rc<bb_core::BbClient>> =
                readers.iter().map(|&n| bb.client(n)).collect();
            // hold the first reads until t ~ 300 ms: the first optimizer
            // decisions and the budget-throttled moves then span the
            // 400 ms fault window, so the scheduled fault hits moves
            // that are genuinely in flight
            sim.sleep(dur::ms(300)).await;
            // undurable cells also hammer file 0 with back-to-back
            // whole-file reads for the entire rounds-plus-settling
            // span, so reads overlap every phase of in-flight moves
            // (copy, verify, override install, old-copy delete) — the
            // round reads alone leave the settle windows unobserved
            let hammer_stop = Rc::new(std::cell::Cell::new(false));
            let hammer = (!case.flush_before_reads).then(|| {
                let stop = Rc::clone(&hammer_stop);
                let rc = Rc::clone(&rclients[0]);
                sim.spawn(async move {
                    let mut errs = 0u64;
                    while !stop.get() {
                        match rc.open("/prop/f0").await {
                            Ok(rd) => {
                                if rd.read_all().await.is_err() {
                                    errs += 1;
                                }
                            }
                            Err(_) => errs += 1,
                        }
                    }
                    errs
                })
            });
            let mut read_errs = 0u64;
            let mut costs: Vec<u64> = Vec::new();
            for _ in 0..case.rounds {
                for &(r, f, times) in &case.reads {
                    let rc = &rclients[r % rclients.len()];
                    let path = format!("/prop/f{}", f % case.files.len().max(1));
                    for _ in 0..times {
                        match rc.open(&path).await {
                            Ok(rd) => {
                                if rd.read_all().await.is_err() {
                                    read_errs += 1;
                                }
                            }
                            Err(_) => read_errs += 1,
                        }
                    }
                }
                // settle: give the optimizer ticks until its queue drains
                let deadline = sim.now() + dur::secs(30);
                sim.sleep(dur::ms(200)).await;
                while bb.manager.place_backlog() > 0 && sim.now() < deadline {
                    sim.sleep(dur::ms(100)).await;
                }
                sim.sleep(dur::ms(200)).await;
                costs.push(layout_cost());
            }
            hammer_stop.set(true);
            if let Some(h) = hammer {
                read_errs += h.await;
            }
            // final verification: every acknowledged file byte-identical
            // (retried: a crash cell may still be re-replicating)
            let mut files_ok = 0u64;
            for (fi, &bytes) in case.files.iter().enumerate() {
                let path = format!("/prop/f{fi}");
                for attempt in 0..3 {
                    if read_back_ok(&rclients[0], &pool, &path, fi as u64 + 40, bytes).await {
                        files_ok += 1;
                        break;
                    }
                    if attempt < 2 {
                        sim.sleep(dur::ms(300)).await;
                    }
                }
            }
            // the verification reads are telemetry too: give the
            // optimizer a chance to act on them, then drain the queue so
            // the cell ends with no move in flight
            let deadline = sim.now() + dur::secs(30);
            loop {
                sim.sleep(dur::ms(200)).await;
                while bb.manager.place_backlog() > 0 && sim.now() < deadline {
                    sim.sleep(dur::ms(100)).await;
                }
                sim.sleep(dur::ms(200)).await;
                if bb.manager.place_backlog() == 0 || sim.now() >= deadline {
                    break;
                }
            }
            Some((read_errs, costs, files_ok))
        })
    };

    let deadline = sim.now() + dur::secs(case.deadline_secs);
    while !driver.is_finished() && sim.now() < deadline {
        step_to(&sim, sim.now() + dur::ms(250));
    }
    let converged = driver.is_finished();
    if !converged {
        sim.flight().trigger(
            sim.now().as_nanos(),
            "placement cell hung past the deadline",
        );
    }
    let (read_errs, round_costs, files_ok) =
        driver.try_take().flatten().unwrap_or((0, Vec::new(), 0));

    let snap = sim.metrics().snapshot();
    let verdict = history.check(Checker {
        forbid_miss: matches!(case.fault, PlaceFault::None | PlaceFault::Drain),
    });
    if !verdict.ok() {
        sim.flight().trigger(
            sim.now().as_nanos(),
            &format!("consistency violation: {:?}", verdict.violations),
        );
    }
    let flight_dumps: Vec<String> = sim
        .flight()
        .dumps()
        .into_iter()
        .map(|(_, json)| json)
        .collect();
    let outcome = PlacementPropOutcome {
        converged,
        files_total: case.files.len() as u64,
        files_ok,
        round_costs,
        read_errs,
        chunks_lost: bb.manager.stats().chunks_lost,
        checksum_fails: snap.counter("bb.integrity.checksum_fail"),
        verify_fails: snap.counter("bb.rebalance.verify_fail"),
        unrepairable: snap.counter("bb.scrub.unrepairable"),
        migrations: snap.counter("bb.place.migrations"),
        place_backlog: bb.manager.place_backlog(),
        place_names_registered: snap.names().any(|n| n.starts_with("bb.place.")),
        overrides: bb.membership().overrides_len(),
        consistency_ok: verdict.ok(),
        consistency_violations: verdict.violations,
        metrics_json: snap.to_json(),
        flight_dumps,
        end: sim.now(),
    };
    let stem = format!("placement-{}-seed{:x}", case.fault.label(), case.seed);
    persist_flight_dumps(&outcome.flight_dumps, &stem);
    tb.shutdown();
    outcome
}

/// AB13: telemetry-driven live migration on a geo-stretched cluster.
/// The report carries the round-by-round convergence timeline
/// (`repro AB13 --timeline`).
pub fn ab13_placement(quick: bool, trace: bool) -> ExpReport {
    let case = PlacementCase::ab13(quick);
    let (o, cell) = run_placement_telemetry(&case, trace);

    let mut t = Table::new(
        "AB13: topology-aware placement — remote reads converge to the local floor",
        &["stage", "result"],
    );
    t.row(vec![
        "rig".into(),
        format!(
            "2 geos (2 ms apart), {} MiB hot file written in geo 0, reader in geo 1",
            case.file_bytes >> 20
        ),
    ]);
    t.row(vec![
        "floor".into(),
        format!("local-replica read p99 {} us", o.floor_p99_ns / 1_000),
    ]);
    t.row(vec![
        "remote before".into(),
        format!(
            "round-0 p99 {} us ({:.1}x floor)",
            o.round_p99_ns.first().copied().unwrap_or(0) / 1_000,
            o.round_p99_ns.first().copied().unwrap_or(0) as f64 / o.floor_p99_ns.max(1) as f64
        ),
    ]);
    t.row(vec![
        "remote after".into(),
        format!(
            "settled p99 {} us ({:.2}x floor)",
            o.final_p99_ns / 1_000,
            o.final_p99_ns as f64 / o.floor_p99_ns.max(1) as f64
        ),
    ]);
    t.row(vec![
        "migration".into(),
        format!(
            "{} decisions, {} chunks / {:.1} MiB moved, cost {} -> {} (reader-weighted ns)",
            o.decisions,
            o.migrations,
            o.moved_bytes as f64 / (1 << 20) as f64,
            o.cost_before,
            o.cost_after
        ),
    ]);
    t.row(vec![
        "layout".into(),
        format!("primaries {:?} -> {:?}", o.routes_before, o.routes_after),
    ]);
    t.row(vec![
        "integrity".into(),
        format!(
            "{} checksum fails, {} verify fails, {} chunks lost, files byte-correct: {}",
            o.checksum_fails, o.verify_fails, o.chunks_lost, o.files_ok
        ),
    ]);
    t.row(vec![
        "consistency".into(),
        if o.consistency_ok {
            "KV history sequentially explainable (misses forbidden)".into()
        } else {
            format!("{} violations", o.consistency_violations.len())
        },
    ]);
    t.note("hot chunks start writer-side (locality policy), then migrate toward the geo-1 reader");
    t.note("convergence gate: settled remote p99 <= 1.3x the local-replica floor, zero loss");

    let first_round = o.round_p99_ns.first().copied().unwrap_or(0);
    let shape = o.converged
        && o.converged_within(1.3)
        && first_round > 2 * o.floor_p99_ns
        && o.decisions > 0
        && o.migrations > 0
        && o.moved_bytes >= case.file_bytes
        && o.cost_after < o.cost_before
        && o.place_backlog == 0
        && o.checksum_fails == 0
        && o.verify_fails == 0
        && o.chunks_lost == 0
        && o.files_ok
        && o.consistency_ok;
    ExpReport::new("AB13", t, shape, Some(cell)).with_timeline(o.timeline)
}
