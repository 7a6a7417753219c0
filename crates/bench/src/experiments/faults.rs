//! E9/E12: the local-storage table and the fault-tolerance experiment.
//!
//! E12 drives a scripted [`FaultPlan`] against live burst-buffer
//! deployments: KV servers crash (losing their volatile contents),
//! restart empty, flap their links, or drop a fraction of transfers.
//! Each cell is a [`FaultCase`] run through the scenario runner — the
//! fault-matrix integration suite (`crates/bench/tests/faults.rs`)
//! sweeps it across {scheme} × {scenario} × {replication} and judges
//! every cell by the runner's oracle plus per-combination asserts.

use std::cmp::Reverse;
use std::rc::Rc;
use std::time::Duration;

use bb_core::manager::chunk_key;
use bb_core::{AckMode, FileState, Scheme};
use simkit::{dur, FaultEvent, FaultPlan, Time};
use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};

use crate::experiments::ExpReport;
use crate::scenario::{self, Ending, Outcome, Scenario};
use crate::table::Table;
use crate::telemetry::capture_cell;

/// E9: node-local storage consumed per system for the same dataset.
pub fn e9_local_storage(_quick: bool, trace: bool) -> ExpReport {
    let data: u64 = 512 << 20;
    let mut t = Table::new(
        "E9: node-local storage consumed for a 512 MiB dataset",
        &["system", "local bytes", "multiple of data"],
    );
    let mut shape = true;
    let mut telemetry = None;
    for kind in SystemKind::all_five() {
        let rep = kind == SystemKind::Bb(Scheme::HybridLocality);
        let tb = Testbed::build(kind, TestbedConfig::default());
        if rep && trace {
            tb.sim.tracer().enable();
        }
        let pool = PayloadPool::standard();
        let (used, cell) = tb.block_on(|tb| async move {
            let fs_for = tb.fs_for();
            let w = fs_for(tb.nodes[0])
                .create("/e9/data")
                .await
                .expect("create");
            for piece in pool.stream(0, data, 1 << 20) {
                w.append(piece).await.expect("append");
            }
            w.close().await.expect("close");
            tb.drain_flush(&["/e9/data".into()]).await;
            let used = tb.local_storage_used();
            let cell = rep.then(|| capture_cell(&tb.sim));
            tb.shutdown();
            (used, cell)
        });
        if let Some(c) = cell {
            telemetry = Some(c);
        }
        let mult = used as f64 / data as f64;
        let expect = match kind {
            SystemKind::Hdfs => 3.0,
            SystemKind::Lustre => 0.0,
            SystemKind::Bb(Scheme::HybridLocality) => 1.0,
            SystemKind::Bb(_) => 0.0,
        };
        shape &= (mult - expect).abs() < 0.05;
        t.row(vec![
            kind.label().into(),
            format!("{} MiB", used >> 20),
            format!("{mult:.2}x"),
        ]);
    }
    t.note("paper: the buffered schemes eliminate (or reduce to one replica) the local storage HDFS demands");
    ExpReport::new("E9", t, shape, telemetry)
}

/// The four injected-fault shapes of the E12 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultScenario {
    /// Crash the most-loaded KV server mid-write; it never comes back.
    CrashOne,
    /// Crash the most-loaded KV server mid-write, restart it (empty)
    /// shortly after.
    CrashRestart,
    /// Flap the most-loaded KV server's link: 3 × (20 ms down / 50 ms
    /// cycle) starting mid-write. No state is lost.
    LinkFlap,
    /// Drop 1 % of every transfer to or from any KV server for the whole
    /// run (seeded draws — deterministic per plan seed).
    RpcLoss,
    /// Repeated at-rest corruption sweeps over every KV server: starting
    /// mid-write, each resident value has a 1 % chance per sweep of one
    /// silently flipped bit (seeded draws).
    CorruptValues,
    /// Corrupt 1 % of every transfer to or from any KV server in flight
    /// for the whole run (seeded draws).
    CorruptTransfers,
    /// The loss-window probe for relaxed ack modes: from t=0 the writer's
    /// transfers into every KV server but the most-loaded one are delayed
    /// (holding async replica tails in flight), then the server holding
    /// the first quorum copy of a chunk parked at the ack-ahead window
    /// crashes mid-wait. Chunks acked below full replication whose tails
    /// were still delay-held are recoverable only per the ack mode's
    /// contract.
    CrashAsyncReplica,
}

impl FaultScenario {
    /// All scenarios, matrix order.
    pub fn all() -> [FaultScenario; 7] {
        [
            FaultScenario::CrashOne,
            FaultScenario::CrashRestart,
            FaultScenario::LinkFlap,
            FaultScenario::RpcLoss,
            FaultScenario::CorruptValues,
            FaultScenario::CorruptTransfers,
            FaultScenario::CrashAsyncReplica,
        ]
    }

    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultScenario::CrashOne => "crash one server",
            FaultScenario::CrashRestart => "crash + restart",
            FaultScenario::LinkFlap => "link flap",
            FaultScenario::RpcLoss => "1% rpc loss",
            FaultScenario::CorruptValues => "1% value corruption",
            FaultScenario::CorruptTransfers => "1% transfer corruption",
            FaultScenario::CrashAsyncReplica => "crash during async replication",
        }
    }
}

/// One cell of the fault matrix.
#[derive(Debug, Clone, Copy)]
pub struct FaultCase {
    /// Burst-buffer scheme under test.
    pub scheme: Scheme,
    /// Injected fault shape.
    pub scenario: FaultScenario,
    /// KV replicas per chunk (`r`).
    pub replication: usize,
    /// Write-ack durability mode ([`bb_core::BbConfig::bb_ack_mode`]).
    /// The default is [`AckMode::FullR`].
    pub ack_mode: AckMode,
    /// Ack-ahead window for relaxed modes
    /// ([`bb_core::BbConfig::bb_ack_ahead`]).
    pub ack_ahead: usize,
    /// Fault-plan RNG seed (drives probabilistic drops).
    pub seed: u64,
    /// Shrink the dataset for CI-speed runs.
    pub quick: bool,
    /// Virtual-time convergence deadline in seconds. The default (120 s)
    /// out-waits every legitimate recovery; a deliberately tiny value
    /// forces a [`Ending::Hung`] verdict, which is how tests exercise the
    /// crash flight-recorder dump path.
    pub deadline_secs: u64,
}

/// Bytes per chunk of the fault dataset.
const CHUNK: u64 = 512 << 10;
/// The dataset's one file.
const PATH: &str = "/e12/f";

/// What a fault-matrix driver observed once the dataset was written.
#[derive(Debug, Clone, Copy)]
pub struct FaultRun {
    /// Final durability state.
    pub state: FileState,
    /// Chunks in the dataset.
    pub chunks: u64,
    /// Chunks that read back byte-identical.
    pub reads_ok: u64,
    /// Virtual time from the last scripted fault until the driver
    /// finished (`None` without a scripted fault).
    pub recovery: Option<Duration>,
}

impl FaultRun {
    /// Every byte of the dataset was read back intact.
    pub fn data_intact(&self) -> bool {
        self.reads_ok == self.chunks
    }
}

impl FaultCase {
    /// A matrix cell with the default seed, deadline, and quick sizing.
    pub fn quick(scheme: Scheme, scenario: FaultScenario, replication: usize) -> FaultCase {
        FaultCase {
            scheme,
            scenario,
            replication,
            ack_mode: AckMode::FullR,
            ack_ahead: 8,
            seed: 0xE12,
            quick: true,
            deadline_secs: 120,
        }
    }

    /// Write a dataset through the buffer while the scripted fault plan
    /// fires, wait for the flusher's verdict, then read every chunk back
    /// and verify it byte-for-byte. A read that fails while no chunk is
    /// accounted lost fails the driver: loss is never silent.
    pub fn run(&self, trace: bool) -> Outcome<FaultRun> {
        let case = *self;
        let data: u64 = if case.quick { 16 << 20 } else { 48 << 20 };
        let chunks = data / CHUNK;
        let mut cfg = TestbedConfig {
            compute_nodes: 4,
            ..TestbedConfig::default()
        };
        cfg.bb.kv_replication = case.replication;
        cfg.bb.bb_ack_mode = case.ack_mode;
        cfg.bb.bb_ack_ahead = case.ack_ahead;
        // slow, narrow Lustre: the flush drains over seconds, keeping the
        // async fault window open across the injected faults
        cfg.lustre.oss_count = 1;
        cfg.lustre.osts_per_oss = 1;
        cfg.lustre.stripe_count = 1;
        cfg.lustre.ost_rate = 8e6;
        let sc = Scenario {
            kind: SystemKind::Bb(case.scheme),
            cfg,
            seed: case.seed,
            // 1 s slices: the run stops soon after the driver finishes
            // instead of idling the background scrubber to the deadline
            slice: dur::secs(1),
            deadline: dur::secs(case.deadline_secs),
            // crashes and eviction legally lose buffer copies; durability
            // is judged by the read-back, not the KV tier
            forbid_miss: false,
            trace,
            stem: format!(
                "{}-{}-r{}-seed{:x}",
                case.scheme.label().replace(' ', "_"),
                case.scenario.label().replace(' ', "_"),
                case.replication,
                case.seed
            ),
        };
        let parked = match case.scenario {
            FaultScenario::CrashAsyncReplica => case.parked_chunk(&sc, data),
            _ => None,
        };
        scenario::run(
            &sc,
            |tb| {
                let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
                let client = bb.client(tb.nodes[0]);
                let (plan, last_fault) = case.plan(tb, &client, chunks, parked);
                (
                    plan,
                    Rc::clone(&client),
                    (tb.sim.clone(), bb, client, last_fault),
                )
            },
            |(sim, bb, client, last_fault)| async move {
                let pool = PayloadPool::standard();
                scenario::write_file(&client, &pool, PATH, 9, data).await?;
                let state = client.wait_flushed(PATH).await.unwrap_or(FileState::Lost);
                let expected = pool.stream(9, data, 1 << 20).concat();
                let reads_ok = scenario::chunks_read_ok(&client, PATH, &expected, CHUNK).await;
                if reads_ok < chunks && bb.manager.stats().chunks_lost == 0 {
                    return Err(format!(
                        "{} of {chunks} reads failed but no chunk was accounted lost",
                        chunks - reads_ok
                    ));
                }
                Ok(FaultRun {
                    state,
                    chunks,
                    reads_ok,
                    recovery: last_fault.and_then(|at| (sim.now() - Time::ZERO).checked_sub(at)),
                })
            },
        )
    }

    /// The cell's fault plan against the live deployment, and the offset
    /// of its last scripted fault (recovery is measured from there).
    /// `parked` is where a `CrashAsyncReplica` cell crashes
    /// ([`FaultCase::parked_chunk`]).
    fn plan(
        &self,
        tb: &Testbed,
        client: &bb_core::BbClient,
        chunks: u64,
        parked: Option<(u32, Duration)>,
    ) -> (FaultPlan, Option<Duration>) {
        let bb = tb.bb.as_ref().expect("bb testbed");
        // the write takes data / client_write_rate ≈ 0.3 s (quick) / 0.9 s;
        // faults land mid-write so the flush queue is live when they hit
        let fault_at = if self.quick {
            dur::ms(150)
        } else {
            dur::ms(450)
        };
        // Victim: the server owning the most chunk keys, so the crash
        // destroys as much buffered data as any one server holds.
        let victim = most_loaded(tb, client, chunks);
        let servers: Vec<u32> = bb.kv_servers.iter().map(|s| s.node().0).collect();
        // one standing edge rule each way between every KV server and the
        // rest of the fabric, from t = 0
        let both_ways = |mut plan: FaultPlan, rule: fn(Option<u32>, Option<u32>) -> FaultEvent| {
            for &s in &servers {
                plan = plan
                    .at(Duration::ZERO, rule(Some(s), None))
                    .at(Duration::ZERO, rule(None, Some(s)));
            }
            plan
        };
        let plan = FaultPlan::new(self.seed);
        match self.scenario {
            FaultScenario::CrashOne => (
                plan.at(fault_at, FaultEvent::Crash { node: victim }),
                Some(fault_at),
            ),
            FaultScenario::CrashRestart => {
                let restart_at = fault_at + dur::ms(200);
                (
                    plan.at(fault_at, FaultEvent::Crash { node: victim })
                        .at(restart_at, FaultEvent::Restart { node: victim }),
                    Some(restart_at),
                )
            }
            FaultScenario::LinkFlap => (
                plan.at(
                    fault_at,
                    FaultEvent::LinkFlap {
                        node: victim,
                        count: 3,
                        down: dur::ms(20),
                        period: dur::ms(50),
                    },
                ),
                Some(fault_at + dur::ms(50) * 3),
            ),
            FaultScenario::RpcLoss => (
                both_ways(plan, |src, dst| FaultEvent::Loss { src, dst, p: 0.01 }),
                None,
            ),
            FaultScenario::CorruptValues => {
                // 20 sweeps, 50 ms apart, per server: enough seeded 1% draws
                // over the resident set that some values reliably flip, while
                // the flush queue and the read phase are both still live
                let mut plan = plan;
                let mut at = fault_at;
                for _ in 0..20 {
                    for &node in &servers {
                        plan = plan.at(at, FaultEvent::CorruptValue { node, p: 0.01 });
                    }
                    at += dur::ms(50);
                }
                (plan, Some(at))
            }
            FaultScenario::CorruptTransfers => (
                both_ways(plan, |src, dst| FaultEvent::CorruptTransfer {
                    src,
                    dst,
                    p: 0.01,
                }),
                None,
            ),
            FaultScenario::CrashAsyncReplica => {
                // The crash hits a chunk the writer holds synced but not yet
                // acked: the server holding the first quorum copy of a chunk
                // parked at the ack-ahead window, midway through the wait.
                // When nothing parks (full-r acks never do) the most-loaded
                // server crashes mid-write instead.
                let plan = writer_delays(tb, plan, victim);
                let (victim, crash_at) = parked.unwrap_or((victim, dur::secs(5)));
                (
                    plan.at(crash_at, FaultEvent::Crash { node: victim }),
                    Some(crash_at),
                )
            }
        }
    }

    /// Where a relaxed-ack `CrashAsyncReplica` cell's writer opens the loss
    /// window: a traced dry run of the same scenario under the writer
    /// delays alone finds the chunk that sat longest synced but unacked at
    /// the ack-ahead window (its `bb.ack_wait` span). Returns the node
    /// holding its first quorum copy and the offset midway through the
    /// wait; the real run is the same run up to that instant. `None` when
    /// no chunk waited — and without a dry run when acks wait for every
    /// replica, since then none can.
    fn parked_chunk(&self, sc: &Scenario, data: u64) -> Option<(u32, Duration)> {
        if self.ack_mode.quorum(self.replication) >= self.replication {
            return None;
        }
        let dry = scenario::run(
            &Scenario {
                trace: true,
                stem: format!("{}-dry", sc.stem),
                ..sc.clone()
            },
            |tb| {
                let bb = tb.bb.as_ref().expect("bb testbed");
                let client = bb.client(tb.nodes[0]);
                let spared = most_loaded(tb, &client, data / CHUNK);
                let delays = writer_delays(tb, FaultPlan::new(self.seed), spared);
                (delays, Rc::clone(&client), (client, tb.sim.now()))
            },
            |(client, t0)| async move {
                scenario::write_file(&client, &PayloadPool::standard(), PATH, 9, data).await?;
                Ok((client, t0))
            },
        );
        let (client, t0) = dry.result?;
        // the longest wait; ties go to the earliest
        let mut waits = Vec::new();
        dry.testbed.sim.tracer().for_each_event(|e| {
            if e.name == "bb.ack_wait" {
                waits.push((e.dur_ns, Reverse(e.ts_ns), e.tid));
            }
        });
        let (len, Reverse(ts), seq) = waits.into_iter().max()?;
        let holder = client.kv().route(&chunk_key(1, seq)).ok()?;
        let at = Duration::from_nanos(ts + len / 2) - (t0 - Time::ZERO);
        let bb = dry.testbed.bb.as_ref().expect("bb testbed");
        Some((bb.kv_servers[holder].node().0, at))
    }
}

/// The KV server owning the most of the dataset's `chunks` chunk keys
/// (the first file created gets file_id 1).
fn most_loaded(tb: &Testbed, client: &bb_core::BbClient, chunks: u64) -> u32 {
    let bb = tb.bb.as_ref().expect("bb testbed");
    let mut owned = vec![0u64; bb.kv_servers.len()];
    for seq in 0..chunks {
        if let Ok(idx) = client.kv().route(&chunk_key(1, seq)) {
            owned[idx] += 1;
        }
    }
    let idx = (0..owned.len()).max_by_key(|&i| owned[i]).unwrap_or(0);
    bb.kv_servers[idx].node().0
}

/// `plan` plus `CrashAsyncReplica`'s standing delays: the writer's
/// transfers into every KV server but `spared` are held, so async replica
/// tails stay in flight for hundreds of ms and fill the ack-ahead window.
/// Only the writer's edges are delayed — the flusher reads from the
/// manager node at full speed, so it probes the replicas inside the window
/// where a tail has not landed yet. The delay stays well under
/// `kv_op_timeout` so tails complete slowly rather than failing outright.
fn writer_delays(tb: &Testbed, mut plan: FaultPlan, spared: u32) -> FaultPlan {
    let bb = tb.bb.as_ref().expect("bb testbed");
    for s in bb.kv_servers.iter().map(|s| s.node().0) {
        if s != spared {
            plan = plan.at(
                Duration::ZERO,
                FaultEvent::Delay {
                    src: Some(tb.nodes[0].0),
                    dst: Some(s),
                    extra: dur::ms(200),
                },
            );
        }
    }
    plan
}

/// E12: scripted fault plans against every scheme — availability,
/// recovery time, and the size of the data-loss window. The report
/// carries the representative cell's recovery-trace timeline
/// (`repro E12 --timeline`).
pub fn e12_fault_tolerance(quick: bool, trace: bool) -> ExpReport {
    let mut t = Table::new(
        "E12: fault injection — availability and recovery",
        &["scenario", "outcome", "detail"],
    );
    let mut shape = true;

    // --- scenario 1: HDFS DataNode death → re-replication ---
    {
        let tb = Testbed::build(SystemKind::Hdfs, TestbedConfig::default());
        let pool = PayloadPool::standard();
        let (recovered, repl_cmds, dt) = tb.block_on(|tb| async move {
            let fs_for = tb.fs_for();
            let w = fs_for(tb.nodes[0]).create("/e12/h").await.unwrap();
            for piece in pool.stream(1, 256 << 20, 1 << 20) {
                w.append(piece).await.unwrap();
            }
            w.close().await.unwrap();
            let hdfs = tb.hdfs.as_ref().unwrap();
            // kill the node holding the writer-local replicas
            hdfs.dn_on(tb.nodes[0]).unwrap().kill();
            let t0 = tb.sim.now();
            // wait for detection + re-replication
            tb.sim.sleep(dur::secs(60)).await;
            let stats = hdfs.nn.stats();
            let r = fs_for(tb.nodes[1]).open("/e12/h").await.unwrap();
            let ok = r.read_all().await.map(|b| b.len() as u64) == Ok(256 << 20);
            let recovered = stats.under_replicated == 0;
            tb.shutdown();
            (
                ok && recovered,
                stats.replications_issued,
                (tb.sim.now() - t0).as_secs_f64(),
            )
        });
        shape &= recovered;
        t.row(vec![
            "HDFS: kill 1 of 16 DataNodes".into(),
            if recovered {
                "recovered".into()
            } else {
                "DEGRADED".into()
            },
            format!("{repl_cmds} re-replications within {dt:.0}s window"),
        ]);
    }

    // --- the burst-buffer cells; crash + restart is the representative
    // one (the full fault lifecycle) ---
    let mut timeline = String::new();
    let mut telemetry = None;
    for (scheme, scenario, r) in [
        (Scheme::AsyncLustre, FaultScenario::CrashOne, 1),
        (Scheme::SyncLustre, FaultScenario::CrashOne, 1),
        (Scheme::HybridLocality, FaultScenario::CrashOne, 1),
        (Scheme::AsyncLustre, FaultScenario::CrashOne, 2),
        (Scheme::AsyncLustre, FaultScenario::CrashRestart, 1),
        (Scheme::AsyncLustre, FaultScenario::LinkFlap, 1),
        (Scheme::AsyncLustre, FaultScenario::RpcLoss, 1),
    ] {
        let representative = scenario == FaultScenario::CrashRestart;
        let o = FaultCase {
            quick,
            ..FaultCase::quick(scheme, scenario, r)
        }
        .run(representative && trace);
        let lost = o.counter("bb.mgr.chunks_lost");
        let retries = o.counter("kv.retry.attempts");
        let (outcome, ok, detail) = match (&o.ending, &o.result) {
            (_, Some(f)) => {
                let (n, read) = (f.chunks, f.reads_ok);
                let (held, detail) = match (scheme, scenario) {
                    // async single-copy: losing the buffer node may lose
                    // exactly the unflushed window, never silently (the
                    // driver fails a read no lost chunk accounts for)
                    (Scheme::AsyncLustre, FaultScenario::CrashOne) if r == 1 => (
                        o.per_server("crashes") == 1,
                        format!("{lost} of {n} chunks lost; {read}/{n} reads ok; {retries} retries"),
                    ),
                    // write-through: zero loss, every read served; the
                    // locality scheme's node-local replica covers every read
                    (_, FaultScenario::CrashOne) if r == 1 => (
                        (scheme == Scheme::HybridLocality || lost == 0) && f.data_intact(),
                        format!("{lost} of {n} chunks lost; {read}/{n} reads ok; {retries} retries"),
                    ),
                    // replication closes the window
                    (_, FaultScenario::CrashOne) => {
                        let failovers = o.counter("bb.integrity.failovers");
                        (
                            lost == 0 && f.data_intact() && failovers > 0,
                            format!("0 lost; {read}/{n} reads ok via {failovers} failovers"),
                        )
                    }
                    (_, FaultScenario::CrashRestart) => {
                        let rec = f.recovery.map_or(f64::NAN, |d| d.as_secs_f64());
                        (
                            o.per_server("crashes") == 1,
                            format!(
                                "{lost} lost; recovered {rec:.1}s after restart (restarted server is empty)"
                            ),
                        )
                    }
                    // retries absorb a flap: nothing is lost from the buffer
                    (_, FaultScenario::LinkFlap) => (
                        f.data_intact(),
                        format!(
                            "{read}/{n} reads ok; {retries} retries, {} direct writes rode out the flap",
                            o.counter("bb.mgr.chunks_direct")
                        ),
                    ),
                    // bounded backoff hides 1% transfer loss completely
                    _ => (
                        lost == 0 && f.data_intact(),
                        format!(
                            "{} transfers dropped, {retries} retries, zero loss",
                            o.counter("netsim.fabric.dropped")
                        ),
                    ),
                };
                (format!("{:?}", f.state), held, detail)
            }
            (Ending::Failed(why), None) => ("FAILED".into(), false, why.clone()),
            (_, None) => ("HUNG".into(), false, "hung past the deadline".into()),
        };
        shape &= ok;
        t.row(vec![
            format!("{}: {} (r={r})", scheme.label(), scenario.label()),
            outcome,
            detail,
        ]);
        if representative {
            timeline = o.timeline;
            telemetry = Some(o.cell);
        }
    }

    t.note("paper: the sync scheme trades write speed for a closed fault window; async risks only not-yet-flushed data");
    t.note("replication r=2 closes the async window too, at the cost of double buffer traffic");
    ExpReport::new("E12", t, shape, telemetry).with_timeline(timeline)
}
