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
//! [`PlacementCase`] and [`PlacementPropCase`] run through the scenario
//! runner; the placement property suite (`crates/bench/tests/placement.rs`)
//! sweeps the same machinery across random topologies and access patterns.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bb_core::manager::chunk_key;
use bb_core::{BbClient, BbDeployment, FileState, PlacementPolicy, Scheme};
use netsim::{NetConfig, NodeId};
use simkit::{dur, FaultEvent, FaultPlan, Sim};
use workloads::{PayloadPool, SystemKind, TestbedConfig};

use crate::experiments::{consistency_row, pctl, ExpReport};
use crate::scenario::{self, read_back_ok, Outcome, Scenario};
use crate::table::Table;

/// Whole-file reads per AB13 round (the floor and the settled round too).
const READS_PER_ROUND: usize = 4;

/// One placement cell: the geo-stretched rig and its read schedule.
#[derive(Debug, Clone, Copy)]
pub struct PlacementCase {
    /// Stamped into the timeline artifact.
    pub seed: u64,
    /// Bytes per file (hot file and floor file alike).
    pub file_bytes: u64,
    /// Remote read rounds before the settle check.
    pub rounds: usize,
}

/// What the AB13 driver measured.
#[derive(Debug, Clone)]
pub struct PlacementRun {
    /// Local-replica read latencies (geo-1 reader, geo-1 replicas),
    /// ascending — the floor remote reads should converge toward.
    pub floor: Vec<u64>,
    /// Remote-read latencies per round, migration running in the
    /// background, each ascending.
    pub rounds: Vec<Vec<u64>>,
    /// Remote-read latencies after the optimizer settled, ascending.
    pub settled: Vec<u64>,
    /// Primary owner of each hot chunk right after the write.
    pub routes_before: Vec<Option<usize>>,
    /// Both files read back byte-identical at end of run.
    pub files_ok: bool,
}

impl PlacementRun {
    /// Settled remote p99 within `factor` of the local-replica floor p99.
    pub fn converged_within(&self, factor: f64) -> bool {
        let floor = pctl(&self.floor, 99.0);
        floor > 0 && pctl(&self.settled, 99.0) as f64 <= factor * floor as f64
    }
}

/// Primary owner of each of `file_id`'s first `chunks` chunks.
fn routes(bb: &BbDeployment, file_id: u64, chunks: u64) -> Vec<Option<usize>> {
    (0..chunks)
        .map(|seq| bb.membership().route(&chunk_key(file_id, seq)))
        .collect()
}

impl PlacementCase {
    /// The AB13 cell.
    pub fn ab13(quick: bool) -> PlacementCase {
        PlacementCase {
            seed: 0xAB13,
            file_bytes: if quick { 2 << 20 } else { 8 << 20 },
            rounds: if quick { 4 } else { 6 },
        }
    }

    /// Chunks per file.
    pub fn chunks(&self) -> u64 {
        self.file_bytes.div_ceil(512 << 10)
    }

    /// Geo-0 write, geo-1 floor file, rounds of remote reads while the
    /// optimizer migrates, settle, verify — on the geo-stretched rig:
    /// geo size 8 (2 nodes/rack x 2 racks/zone x 2 zones/geo), everything
    /// deployed up front in geo 0, one standby KV server and the reader
    /// in geo 1.
    pub fn run(&self, trace: bool) -> Outcome<PlacementRun> {
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
        };
        cfg.lustre.oss_count = 1;
        cfg.lustre.osts_per_oss = 1;
        cfg.bb.kv_servers = 1;
        cfg.bb.kv_replication = 1;
        cfg.bb.kv_mem_per_server = 1 << 30;
        cfg.bb.bb_place_policy = PlacementPolicy::Locality;
        let sc = Scenario {
            kind: SystemKind::Bb(Scheme::AsyncLustre),
            cfg,
            seed: self.seed,
            slice: dur::ms(50),
            deadline: dur::secs(120),
            forbid_miss: true,
            trace,
            stem: format!("ab13-seed{:x}", self.seed),
        };
        let case = *self;
        scenario::run(
            &sc,
            |tb| {
                let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
                // geo membership must match the rig's story: compute nodes,
                // Lustre, the seed server, and the manager all inside geo 0
                // (nodes 0..8); the standby opens geo 1, the reader joins it
                assert!(bb.manager.node().0 < 8, "infra must fit in geo 0");
                while tb.fabric.len() < 8 {
                    tb.fabric.add_node();
                }
                let standby = bb.standby_kv_server().node();
                assert_eq!(standby.0, 8, "standby must open geo 1");
                let reader = tb.fabric.add_node();
                assert_eq!(reader.0, 9, "reader must sit in geo 1");
                let rclient = bb.client(reader);
                let wclient = bb.client(tb.nodes[0]);
                let state = (tb.sim.clone(), bb, standby, Rc::clone(&rclient), wclient);
                (FaultPlan::new(sc.seed), rclient, state)
            },
            |(sim, bb, standby, rclient, wclient)| async move {
                let bytes = case.file_bytes;
                // the hot file's starting layout, sampled on the 50 ms grid
                // as soon as every chunk routes
                let routes_before = sim.spawn({
                    let (sim, bb) = (sim.clone(), Rc::clone(&bb));
                    async move {
                        loop {
                            sim.sleep(dur::ms(50)).await;
                            let r = routes(&bb, 1, case.chunks());
                            if r.iter().all(|o| o.is_some()) {
                                return r;
                            }
                        }
                    }
                });
                assert!(bb.admit_kv_server(standby));
                let pool = PayloadPool::standard();
                // hot file from geo 0: locality placement pins it
                // writer-side; floor file from geo 1: locality placement
                // starts it reader-local, giving the convergence target
                for (client, path, seed) in
                    [(&wclient, "/ab13/hot", 7), (&rclient, "/ab13/floor", 8)]
                {
                    scenario::write_file(client, &pool, path, seed, bytes).await?;
                    let state = client.wait_flushed(path).await;
                    if state != Ok(FileState::Flushed) {
                        return Err(format!("{path} ended {state:?}"));
                    }
                }
                let timed_reads = |path: &'static str| {
                    let (sim, rclient) = (sim.clone(), Rc::clone(&rclient));
                    async move {
                        let mut lats = Vec::new();
                        for _ in 0..READS_PER_ROUND {
                            let t0 = sim.now();
                            let rd = rclient
                                .open(path)
                                .await
                                .map_err(|e| format!("open {path}: {e}"))?;
                            let got = rd
                                .read_all()
                                .await
                                .map_err(|e| format!("read {path}: {e}"))?;
                            if got.len() as u64 != bytes {
                                return Err(format!("{path} read {} of {bytes} bytes", got.len()));
                            }
                            lats.push((sim.now() - t0).as_nanos() as u64);
                        }
                        lats.sort_unstable();
                        Ok(lats)
                    }
                };
                // the local-replica floor
                let floor = timed_reads("/ab13/floor").await?;
                // remote read rounds; the optimizer migrates in the background
                let mut rounds = Vec::new();
                for _ in 0..case.rounds {
                    rounds.push(timed_reads("/ab13/hot").await?);
                    sim.sleep(dur::ms(100)).await;
                }
                // settle: every queued placement move executed
                let deadline = sim.now() + dur::secs(20);
                while bb.manager.place_backlog() > 0 && sim.now() < deadline {
                    sim.sleep(dur::ms(100)).await;
                }
                sim.sleep(dur::secs(1)).await;
                // post-migration measurement round
                let settled = timed_reads("/ab13/hot").await?;
                // byte-verify both acknowledged files end to end
                let mut files_ok = true;
                for (path, seed) in [("/ab13/hot", 7u64), ("/ab13/floor", 8u64)] {
                    files_ok &= read_back_ok(&rclient, &pool, path, seed, bytes).await;
                }
                // harness-side latency histograms (bench namespace, not
                // `bb.*`): the SLO file gates the post-migration remote
                // reads and the floor
                for (name, lats) in [
                    ("ab13.remote_read_ns", &settled),
                    ("ab13.floor_read_ns", &floor),
                ] {
                    let h = sim.metrics().histogram(name);
                    for &ns in lats {
                        h.record_ns(ns);
                    }
                }
                Ok(PlacementRun {
                    floor,
                    rounds,
                    settled,
                    routes_before: routes_before.try_take().unwrap_or_default(),
                    files_ok,
                })
            },
        )
    }
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

/// Reader nodes a property cell adds beyond the deployment.
const READERS: usize = 2;
/// Identical access rounds per property cell; the optimizer settles
/// after each.
pub const ROUNDS: usize = 3;

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
    /// Placement on (locality + optimizer) or the hash default.
    pub policy_on: bool,
    /// Fault over the migration window.
    pub fault: PlaceFault,
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

/// What a property cell's driver observed. Every acknowledged file read
/// back byte-identical at the end (the driver fails otherwise).
#[derive(Debug, Clone)]
pub struct PlacementPropRun {
    /// Layout cost under the cell's fixed access weights, sampled after
    /// the optimizer settled following each round.
    pub round_costs: Vec<u64>,
    /// Whole-file reads that errored during the rounds.
    pub read_errs: u64,
}

impl PlacementPropRun {
    /// Cost samples never increase round over round.
    pub fn cost_monotone(&self) -> bool {
        self.round_costs.windows(2).all(|w| w[1] <= w[0])
    }
}

/// Fixed access weights: (reader node, file id) -> whole-file reads per
/// round.
type Weights = BTreeMap<(u32, u64), u64>;

/// Reader-weighted layout cost of `files` as routed now, nanoseconds.
fn layout_cost(
    bb: &BbDeployment,
    fabric: &netsim::Fabric,
    files: &[u64],
    weights: &Weights,
) -> u64 {
    let view = bb.membership();
    let mut total = 0u64;
    for (fi, &bytes) in files.iter().enumerate() {
        let fid = fi as u64 + 1;
        for seq in 0..bytes.div_ceil(512 << 10) {
            let Some(idx) = view.route(&chunk_key(fid, seq)) else {
                continue;
            };
            let node = view.server(idx).node();
            for ((rn, f), &w) in weights {
                if *f == fid {
                    let ns = fabric.topo_latency(NodeId(*rn), node).as_nanos() as u64;
                    total = total.saturating_add(w.saturating_mul(ns));
                }
            }
        }
    }
    total
}

/// Reads `path` whole once; whether it failed.
async fn read_fails(client: &Rc<BbClient>, path: &str) -> bool {
    match client.open(path).await {
        Ok(rd) => rd.read_all().await.is_err(),
        Err(_) => true,
    }
}

/// What the property driver works with.
struct PropRig {
    sim: Sim,
    bb: Rc<BbDeployment>,
    fabric: Rc<netsim::Fabric>,
    standby: NodeId,
    wclient: Rc<BbClient>,
    rclients: Vec<Rc<BbClient>>,
}

impl PlacementPropCase {
    /// Write the files from node 0, run the fixed access rounds (the
    /// optimizer settling after each) through the scheduled fault, then
    /// byte-verify every acknowledged file.
    pub fn run(&self) -> Outcome<PlacementPropRun> {
        let (npr, rpz, zpg) = self.topo;
        let (rack_us, zone_us, geo_us) = self.tier_us;
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
        };
        cfg.lustre.oss_count = 1;
        cfg.lustre.osts_per_oss = 1;
        if let Some(rate) = self.lustre_ost_rate {
            cfg.lustre.ost_rate = rate;
        }
        cfg.bb.kv_servers = if self.static_membership { 2 } else { 1 };
        if let Some(w) = self.read_window {
            cfg.bb.read_window = w;
        }
        cfg.bb.kv_replication = 1;
        cfg.bb.kv_mem_per_server = 1 << 30;
        if self.policy_on {
            cfg.bb.bb_place_policy = PlacementPolicy::Locality;
            // small budget: multi-chunk moves span ticks, exercising re-queue
            cfg.bb.bb_migrate_budget = 512 << 10;
        }
        let sc = Scenario {
            kind: SystemKind::Bb(Scheme::AsyncLustre),
            cfg,
            seed: self.seed,
            slice: dur::ms(250),
            deadline: dur::secs(120),
            forbid_miss: matches!(self.fault, PlaceFault::None | PlaceFault::Drain),
            trace: false,
            stem: format!("placement-{}-seed{:x}", self.fault.label(), self.seed),
        };
        scenario::run(
            &sc,
            |tb| {
                let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
                let standby = bb.standby_kv_server().node();
                let readers: Vec<NodeId> = (0..READERS).map(|_| tb.fabric.add_node()).collect();
                let wclient = bb.client(tb.nodes[0]);
                let rclients: Vec<Rc<BbClient>> = readers.iter().map(|&n| bb.client(n)).collect();
                let watched = Rc::clone(&rclients[0]);
                let rig = PropRig {
                    sim: tb.sim.clone(),
                    bb,
                    fabric: Rc::clone(&tb.fabric),
                    standby,
                    wclient,
                    rclients,
                };
                (self.plan(standby.0), watched, (rig, self.clone()))
            },
            |(rig, case)| case.drive(rig),
        )
    }

    /// The fault window: the schedule targets the standby — the likely
    /// migration destination — while round reads keep moves in flight.
    fn plan(&self, target: u32) -> FaultPlan {
        let plan = FaultPlan::new(self.seed);
        match self.fault {
            PlaceFault::None => plan,
            PlaceFault::Crash => plan
                .at(dur::ms(400), FaultEvent::Crash { node: target })
                .at(dur::ms(800), FaultEvent::Restart { node: target }),
            PlaceFault::Flap => plan.at(
                dur::ms(400),
                FaultEvent::LinkFlap {
                    node: target,
                    count: 3,
                    down: dur::ms(50),
                    period: dur::ms(150),
                },
            ),
            PlaceFault::Drain => plan.at(dur::ms(400), FaultEvent::DrainServer { node: target }),
        }
    }

    async fn drive(self, rig: PropRig) -> Result<PlacementPropRun, String> {
        let PropRig {
            sim,
            bb,
            fabric,
            standby,
            wclient,
            rclients,
        } = rig;
        // the same pattern repeats each round, so cumulative telemetry
        // stays proportional to these weights and layout cost is
        // comparable across rounds
        let files_n = self.files.len().max(1);
        let mut weights = Weights::new();
        for &(r, f, times) in &self.reads {
            let node = rclients[r % rclients.len()].node().0;
            let fid = (f % files_n) as u64 + 1;
            *weights.entry((node, fid)).or_insert(0) += times as u64;
        }
        let pool = PayloadPool::standard();
        if !self.static_membership {
            assert!(bb.admit_kv_server(standby));
        }
        // write every file before the read rounds. In the durable regime
        // we also wait for the flush: acked data is then Lustre-backed, so
        // a mid-migration crash can delay reads but must never lose bytes.
        // With `flush_before_reads` off the rounds start while chunks are
        // still pinned and buffer-only — the only copies are the ones
        // migration is shuffling around.
        for (fi, &bytes) in self.files.iter().enumerate() {
            let path = format!("/prop/f{fi}");
            scenario::write_file(&wclient, &pool, &path, fi as u64 + 40, bytes).await?;
            if self.flush_before_reads {
                let state = wclient.wait_flushed(&path).await;
                if state != Ok(FileState::Flushed) {
                    return Err(format!("{path} ended {state:?}"));
                }
            }
        }
        // hold the first reads until t ~ 300 ms: the first optimizer
        // decisions and the budget-throttled moves then span the 400 ms
        // fault window, so the scheduled fault hits moves that are
        // genuinely in flight
        sim.sleep(dur::ms(300)).await;
        // undurable cells also hammer file 0 with back-to-back whole-file
        // reads for the entire rounds-plus-settling span, so reads overlap
        // every phase of in-flight moves (copy, verify, override install,
        // old-copy delete) — the round reads alone leave the settle
        // windows unobserved
        let hammer_stop = Rc::new(Cell::new(false));
        let hammer = (!self.flush_before_reads).then(|| {
            let (stop, rc) = (Rc::clone(&hammer_stop), Rc::clone(&rclients[0]));
            sim.spawn(async move {
                let mut errs = 0u64;
                while !stop.get() {
                    errs += u64::from(read_fails(&rc, "/prop/f0").await);
                }
                errs
            })
        });
        let mut read_errs = 0u64;
        let mut round_costs = Vec::new();
        for _ in 0..ROUNDS {
            for &(r, f, times) in &self.reads {
                let rc = &rclients[r % rclients.len()];
                let path = format!("/prop/f{}", f % files_n);
                for _ in 0..times {
                    read_errs += u64::from(read_fails(rc, &path).await);
                }
            }
            // settle: give the optimizer ticks until its queue drains
            let deadline = sim.now() + dur::secs(30);
            sim.sleep(dur::ms(200)).await;
            while bb.manager.place_backlog() > 0 && sim.now() < deadline {
                sim.sleep(dur::ms(100)).await;
            }
            sim.sleep(dur::ms(200)).await;
            round_costs.push(layout_cost(&bb, &fabric, &self.files, &weights));
        }
        hammer_stop.set(true);
        if let Some(h) = hammer {
            read_errs += h.await;
        }
        // final verification: every acknowledged file byte-identical
        // (retried: a crash cell may still be re-replicating)
        let mut files_bad = 0;
        for (fi, &bytes) in self.files.iter().enumerate() {
            let path = format!("/prop/f{fi}");
            let mut ok = false;
            for attempt in 0..3 {
                ok = read_back_ok(&rclients[0], &pool, &path, fi as u64 + 40, bytes).await;
                if ok {
                    break;
                }
                if attempt < 2 {
                    sim.sleep(dur::ms(300)).await;
                }
            }
            files_bad += usize::from(!ok);
        }
        // the verification reads are telemetry too: give the optimizer a
        // chance to act on them, then drain the queue so the cell ends
        // with no move in flight
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
        if files_bad > 0 {
            return Err(format!(
                "{files_bad} of {} acknowledged files failed the final read-back",
                self.files.len()
            ));
        }
        Ok(PlacementPropRun {
            round_costs,
            read_errs,
        })
    }
}

/// AB13: telemetry-driven live migration on a geo-stretched cluster.
/// The report carries the round-by-round convergence timeline
/// (`repro AB13 --timeline`).
pub fn ab13_placement(quick: bool, trace: bool) -> ExpReport {
    let case = PlacementCase::ab13(quick);
    let o = case.run(trace);
    let (decisions, migrations, moved_bytes) = (
        o.counter("bb.place.decisions"),
        o.counter("bb.place.migrations"),
        o.counter("bb.place.bytes"),
    );
    let (cost_before, cost_after) = (
        o.counter("bb.place.cost_before"),
        o.counter("bb.place.cost_after"),
    );
    let routes_after = routes(o.testbed.bb.as_ref().expect("bb testbed"), 1, case.chunks());

    let mut t = Table::new(
        "AB13: topology-aware placement — remote reads converge to the local floor",
        &["stage", "result"],
    );
    let Some(run) = &o.result else {
        t.row(vec!["run".into(), format!("{:?}", o.ending)]);
        return ExpReport::new("AB13", t, false, Some(o.cell)).with_timeline(o.timeline);
    };
    let floor_p99 = pctl(&run.floor, 99.0);
    let round_p99: Vec<u64> = run.rounds.iter().map(|r| pctl(r, 99.0)).collect();
    let final_p99 = pctl(&run.settled, 99.0);
    let first_round = round_p99.first().copied().unwrap_or(0);
    // the round-by-round convergence timeline (the `--timeline` artifact)
    let mut timeline = format!(
        "AB13 placement timeline (seed {:#x}): {} MiB/file, {} chunks, geo boundary 2 ms\n",
        case.seed,
        case.file_bytes >> 20,
        case.chunks()
    );
    timeline.push_str(&format!(
        "floor: p99 {:>9} ns (geo-1 reader -> geo-1 replica)\n",
        floor_p99
    ));
    for (i, p) in round_p99.iter().enumerate() {
        timeline.push_str(&format!("round {i}: remote p99 {:>9} ns\n", p));
    }
    timeline.push_str(&format!(
        "settled: remote p99 {:>9} ns, routes {:?} -> {:?}, {decisions} decisions, \
         {migrations} migrations, {moved_bytes} bytes\n",
        final_p99, run.routes_before, routes_after,
    ));

    t.row(vec![
        "rig".into(),
        format!(
            "2 geos (2 ms apart), {} MiB hot file written in geo 0, reader in geo 1",
            case.file_bytes >> 20
        ),
    ]);
    t.row(vec![
        "floor".into(),
        format!("local-replica read p99 {} us", floor_p99 / 1_000),
    ]);
    t.row(vec![
        "remote before".into(),
        format!(
            "round-0 p99 {} us ({:.1}x floor)",
            first_round / 1_000,
            first_round as f64 / floor_p99.max(1) as f64
        ),
    ]);
    t.row(vec![
        "remote after".into(),
        format!(
            "settled p99 {} us ({:.2}x floor)",
            final_p99 / 1_000,
            final_p99 as f64 / floor_p99.max(1) as f64
        ),
    ]);
    t.row(vec![
        "migration".into(),
        format!(
            "{decisions} decisions, {migrations} chunks / {:.1} MiB moved, cost {cost_before} -> {cost_after} (reader-weighted ns)",
            moved_bytes as f64 / (1 << 20) as f64,
        ),
    ]);
    t.row(vec![
        "layout".into(),
        format!("primaries {:?} -> {:?}", run.routes_before, routes_after),
    ]);
    t.row(vec![
        "integrity".into(),
        format!(
            "{} checksum fails, {} verify fails, {} chunks lost, files byte-correct: {}",
            o.counter("bb.integrity.checksum_fail"),
            o.counter("bb.rebalance.verify_fail"),
            o.counter("bb.mgr.chunks_lost"),
            run.files_ok
        ),
    ]);
    t.row(consistency_row(&o.consistency));
    t.note("hot chunks start writer-side (locality policy), then migrate toward the geo-1 reader");
    t.note("convergence gate: settled remote p99 <= 1.3x the local-replica floor, zero loss");

    let shape = o.violations().is_empty()
        && run.converged_within(1.3)
        && first_round > 2 * floor_p99
        && decisions > 0
        && migrations > 0
        && moved_bytes >= case.file_bytes
        && cost_after < cost_before
        && run.files_ok;
    ExpReport::new("AB13", t, shape, Some(o.cell)).with_timeline(timeline)
}
