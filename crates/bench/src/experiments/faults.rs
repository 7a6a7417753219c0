//! E9/E12: the local-storage table and the fault-tolerance experiment.
//!
//! E12 drives a scripted [`FaultPlan`] against live burst-buffer
//! deployments: KV servers crash (losing their volatile contents),
//! restart empty, flap their links, or drop a fraction of transfers.
//! [`run_fault_scenario`] is the reusable cell runner — the fault-matrix
//! integration suite (`crates/bench/tests/faults.rs`) sweeps it across
//! {scheme} × {scenario} × {replication} with per-combination invariants.

use std::rc::Rc;
use std::time::Duration;

use bb_core::manager::chunk_key;
use bb_core::{AckMode, FileState, Scheme};
use simkit::{dur, FaultEvent, FaultPlan};
use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};

use crate::experiments::{persist_flight_dumps, ExpReport};
use crate::table::Table;
use crate::telemetry::{capture_cell, CellTelemetry};

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
    /// The loss-window probe for relaxed ack modes: from t=0 every
    /// transfer *into* a non-victim KV server is delayed (holding async
    /// replica tails in flight), then the most-loaded server crashes
    /// mid-write. Chunks acked below full replication whose tails were
    /// still delay-held are recoverable only per the ack mode's contract.
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
    /// The default, [`AckMode::FullR`], is the seed behaviour.
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
    /// forces a non-convergence verdict, which is how tests exercise the
    /// crash flight-recorder dump path.
    pub deadline_secs: u64,
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
}

/// What one fault-matrix cell observed.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// The workload driver finished before the virtual-time deadline
    /// (the no-hang invariant).
    pub converged: bool,
    /// Final durability state (`None` when the driver did not converge).
    pub state: Option<FileState>,
    /// Chunks in the dataset.
    pub chunks_total: u64,
    /// Chunks the flusher declared lost (the data-loss window).
    pub chunks_lost: u64,
    /// Chunks persisted via the degraded direct path.
    pub chunks_direct: u64,
    /// Per-chunk read-back verifications attempted.
    pub reads_total: u64,
    /// Reads that returned the exact expected bytes.
    pub reads_ok: u64,
    /// `kv.retry.attempts` at end of run.
    pub retry_attempts: u64,
    /// `kv.failover.reads` at end of run.
    pub failover_reads: u64,
    /// Transfers dropped by the injected loss rules.
    pub dropped_transfers: u64,
    /// Transfers corrupted in flight by the injected corruption rules.
    pub corrupted_transfers: u64,
    /// Resident values damaged by at-rest corruption sweeps.
    pub corrupted_values: u64,
    /// Checksum verification failures observed (`bb.integrity.checksum_fail`).
    pub checksum_fails: u64,
    /// Bad copies the background scrubber rewrote (`bb.scrub.repaired`).
    pub scrub_repaired: u64,
    /// Bad copies with no good source left (`bb.scrub.unrepairable`).
    pub scrub_unrepairable: u64,
    /// Writes acked at a relaxed quorum (`bb.ack.quorum_acks`; 0 under
    /// the default [`AckMode::FullR`], whose counters never register).
    pub ack_quorum_acks: u64,
    /// Acks that could not honor their mode — a replica target down or
    /// an async tail exhausted its retries (`bb.ack.downgrade`).
    pub ack_downgrades: u64,
    /// Server crash events delivered.
    pub crashes: u64,
    /// Virtual time from the last scripted fault until the workload
    /// converged (recovery time; `None` without a scripted fault or
    /// convergence).
    pub recovery: Option<Duration>,
    /// Virtual end-of-run instant.
    pub end: simkit::Time,
    /// The applied fault timeline (`FaultInjector::timeline_text`) — the
    /// recovery-trace artifact.
    pub timeline: String,
    /// Full metrics snapshot JSON at end of run (byte-identical across
    /// same-seed runs — the determinism contract).
    pub metrics_json: String,
    /// The recorded per-key KV history is explainable by a sequential
    /// order ([`crate::consistency`]); misses are excused (crashes and
    /// eviction legally lose buffer copies — durability is judged by the
    /// read-back, not the KV tier).
    pub consistency_ok: bool,
    /// Checker violation descriptions when `consistency_ok` is false.
    pub consistency_violations: Vec<String>,
    /// Frozen flight-recorder dumps (`rdma-bb.flight.v1` JSON), one per
    /// trigger: non-convergence, a write failure, a consistency
    /// violation, or an unrepairable scrub verdict during the run. Empty
    /// on a clean cell. Byte-identical across same-seed runs.
    pub flight_dumps: Vec<String>,
}

impl FaultOutcome {
    /// Reads that failed or returned wrong bytes.
    pub fn reads_failed(&self) -> u64 {
        self.reads_total - self.reads_ok
    }

    /// Every byte of the dataset was read back intact.
    pub fn data_intact(&self) -> bool {
        self.converged && self.reads_ok == self.reads_total
    }
}

struct ScenarioEnd {
    state: FileState,
    reads_ok: u64,
    write_err: bool,
    end: simkit::Time,
}

/// Run one fault-matrix cell: write a dataset through the buffer while
/// the scripted fault plan fires, wait for the flusher's verdict, then
/// read every chunk back and verify it byte-for-byte.
pub fn run_fault_scenario(case: FaultCase) -> FaultOutcome {
    run_fault_scenario_telemetry(case, false).0
}

/// [`run_fault_scenario`] plus the representative-cell telemetry capture
/// (Chrome trace when `trace` is set).
pub fn run_fault_scenario_telemetry(
    case: FaultCase,
    trace: bool,
) -> (FaultOutcome, Option<CellTelemetry>) {
    let chunk_size: u64 = 512 << 10;
    let data: u64 = if case.quick { 16 << 20 } else { 48 << 20 };
    let chunks_total = data / chunk_size;
    // the write takes data / client_write_rate ≈ 0.3 s (quick) / 0.9 s;
    // faults land mid-write so the flush queue is live when they hit
    let fault_at = if case.quick {
        dur::ms(150)
    } else {
        dur::ms(450)
    };
    let restart_at = fault_at + dur::ms(200);

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
    let tb = Testbed::build(SystemKind::Bb(case.scheme), cfg);
    if trace {
        tb.sim.tracer().enable();
    }
    // fault cells always fly the recorder: retries, poisonings,
    // failovers, pressure transitions, and every applied fault land in
    // bounded rings, frozen to a dump if the cell ends badly
    tb.sim.flight().enable(simkit::flight::DEFAULT_RING_LEN);
    let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
    let client = bb.client(tb.nodes[0]);
    // record every logical KV op the client issues; checked at end of run
    let history = crate::consistency::History::new();
    history.attach(client.kv());

    // Victim: the server owning the most chunk keys (ketama placement is
    // uneven; crashing an unloaded server would exercise nothing). The
    // first file created gets file_id 1.
    let mut owned = vec![0u64; bb.kv_servers.len()];
    for seq in 0..chunks_total {
        if let Ok(idx) = client.kv().route(&chunk_key(1, seq)) {
            owned[idx] += 1;
        }
    }
    let victim_idx = (0..owned.len()).max_by_key(|&i| owned[i]).unwrap_or(0);
    let victim = bb.kv_servers[victim_idx].node();

    let mut plan = FaultPlan::new(case.seed);
    let mut last_fault = Some(fault_at);
    match case.scenario {
        FaultScenario::CrashOne => {
            plan = plan.at(fault_at, FaultEvent::Crash { node: victim.0 });
        }
        FaultScenario::CrashRestart => {
            plan = plan
                .at(fault_at, FaultEvent::Crash { node: victim.0 })
                .at(restart_at, FaultEvent::Restart { node: victim.0 });
            last_fault = Some(restart_at);
        }
        FaultScenario::LinkFlap => {
            plan = plan.at(
                fault_at,
                FaultEvent::LinkFlap {
                    node: victim.0,
                    count: 3,
                    down: dur::ms(20),
                    period: dur::ms(50),
                },
            );
            last_fault = Some(fault_at + dur::ms(50) * 3);
        }
        FaultScenario::RpcLoss => {
            for s in &bb.kv_servers {
                plan = plan
                    .at(
                        Duration::ZERO,
                        FaultEvent::Loss {
                            src: Some(s.node().0),
                            dst: None,
                            p: 0.01,
                        },
                    )
                    .at(
                        Duration::ZERO,
                        FaultEvent::Loss {
                            src: None,
                            dst: Some(s.node().0),
                            p: 0.01,
                        },
                    );
            }
            last_fault = None;
        }
        FaultScenario::CorruptValues => {
            // 20 sweeps, 50 ms apart, per server: enough seeded 1% draws
            // over the resident set that some values reliably flip, while
            // the flush queue and the read phase are both still live
            let mut at = fault_at;
            for _ in 0..20 {
                for s in &bb.kv_servers {
                    plan = plan.at(
                        at,
                        FaultEvent::CorruptValue {
                            node: s.node().0,
                            p: 0.01,
                        },
                    );
                }
                at += dur::ms(50);
                last_fault = Some(at);
            }
        }
        FaultScenario::CorruptTransfers => {
            for s in &bb.kv_servers {
                plan = plan
                    .at(
                        Duration::ZERO,
                        FaultEvent::CorruptTransfer {
                            src: Some(s.node().0),
                            dst: None,
                            p: 0.01,
                        },
                    )
                    .at(
                        Duration::ZERO,
                        FaultEvent::CorruptTransfer {
                            src: None,
                            dst: Some(s.node().0),
                            p: 0.01,
                        },
                    );
            }
            last_fault = None;
        }
        FaultScenario::CrashAsyncReplica => {
            // hold the writer's transfers into the non-victim servers so
            // async replica tails are still in flight when the victim
            // (holding the only durable copy of quorum-acked chunks)
            // crashes. Only the writer's edges are delayed — the flusher
            // reads from the manager node at full speed, so it probes the
            // replicas inside the window where the tail has not landed
            // yet. The delay stays well under `kv_op_timeout` so tails
            // complete slowly rather than failing outright. The crash
            // lands later than the other scenarios': the victim-primary
            // chunks (the only ones acked fast, single-copy) must be
            // mid-flight when it fires.
            for s in &bb.kv_servers {
                if s.node() == victim {
                    continue;
                }
                plan = plan.at(
                    Duration::ZERO,
                    FaultEvent::Delay {
                        src: Some(tb.nodes[0].0),
                        dst: Some(s.node().0),
                        extra: dur::ms(200),
                    },
                );
            }
            let crash_at = dur::secs(5);
            plan = plan.at(crash_at, FaultEvent::Crash { node: victim.0 });
            last_fault = Some(crash_at);
        }
    }
    tb.sim.install_faults(plan);

    let pool = PayloadPool::standard();
    let expected = Rc::new(pool.stream(9, data, 1 << 20).concat());
    let sim = tb.sim.clone();
    let driver_client = Rc::clone(&client);
    let driver_expected = Rc::clone(&expected);
    let driver_sim = sim.clone();
    let driver = sim.spawn(async move {
        let sim = driver_sim;
        let fail = |end| ScenarioEnd {
            state: FileState::Lost,
            reads_ok: 0,
            write_err: true,
            end,
        };
        let Ok(w) = driver_client.create("/e12/f").await else {
            return fail(sim.now());
        };
        for piece in pool.stream(9, data, 1 << 20) {
            if w.append(piece).await.is_err() {
                return fail(sim.now());
            }
        }
        if w.close().await.is_err() {
            return fail(sim.now());
        }
        let state = driver_client
            .wait_flushed("/e12/f")
            .await
            .unwrap_or(FileState::Lost);
        let mut reads_ok = 0;
        if let Ok(rd) = driver_client.open("/e12/f").await {
            for seq in 0..chunks_total {
                let off = seq * chunk_size;
                let len = chunk_size.min(data - off);
                if let Ok(b) = rd.read_at(off, len).await {
                    if b[..] == driver_expected[off as usize..(off + len) as usize] {
                        reads_ok += 1;
                    }
                }
            }
        }
        ScenarioEnd {
            state,
            reads_ok,
            write_err: false,
            end: sim.now(),
        }
    });
    // step the clock in 1 s slices so the run stops as soon as the driver
    // finishes instead of idling the background scrubber out to the full
    // deadline (run-to-quiescence would never return with it ticking)
    let deadline = tb.sim.now() + dur::secs(case.deadline_secs);
    while !driver.is_finished() && tb.sim.now() < deadline {
        let step = (tb.sim.now() + dur::secs(1)).min(deadline);
        crate::experiments::integrity::step_to(&tb.sim, step);
    }
    let converged = driver.is_finished();
    let finish = driver.try_take();

    let cell = capture_cell(&tb.sim);
    let metrics_json = cell.snapshot.to_json();
    let crashes: u64 = bb
        .kv_servers
        .iter()
        .map(|s| {
            cell.snapshot
                .counter(&format!("rkv.server{}.crashes", s.node().0))
        })
        .sum();
    let corrupted_values: u64 = bb
        .kv_servers
        .iter()
        .map(|s| {
            cell.snapshot
                .counter(&format!("rkv.server{}.corrupted", s.node().0))
        })
        .sum();
    let mgr = bb.manager.stats();
    let timeline = tb.sim.faults().timeline_text();
    let end = finish.as_ref().map(|f| f.end).unwrap_or(deadline);
    let recovery = match (&finish, last_fault) {
        (Some(f), Some(at)) if !f.write_err => (f.end - simkit::Time::ZERO).checked_sub(at),
        _ => None,
    };
    let verdict = history.check(crate::consistency::Checker { forbid_miss: false });
    // freeze the recorder on any bad ending (the unrepairable-scrub path
    // triggers from inside the manager on its own), then collect every
    // dump produced during the run
    let now_ns = tb.sim.now().as_nanos();
    if !converged {
        tb.sim
            .flight()
            .trigger(now_ns, "fault cell hung past the deadline");
    }
    if finish.as_ref().is_some_and(|f| f.write_err) {
        tb.sim.flight().trigger(now_ns, "fault cell write failed");
    }
    if !verdict.ok() {
        tb.sim.flight().trigger(
            now_ns,
            &format!("consistency violation: {:?}", verdict.violations),
        );
    }
    let flight_dumps: Vec<String> = tb
        .sim
        .flight()
        .dumps()
        .into_iter()
        .map(|(_, json)| json)
        .collect();
    let outcome = FaultOutcome {
        converged: converged && finish.as_ref().is_some_and(|f| !f.write_err),
        state: finish.as_ref().map(|f| f.state),
        chunks_total,
        chunks_lost: mgr.chunks_lost,
        chunks_direct: mgr.chunks_direct,
        reads_total: chunks_total,
        reads_ok: finish.as_ref().map(|f| f.reads_ok).unwrap_or(0),
        retry_attempts: cell.snapshot.counter("kv.retry.attempts"),
        failover_reads: cell.snapshot.counter("kv.failover.reads"),
        dropped_transfers: cell.snapshot.counter("netsim.fabric.dropped"),
        corrupted_transfers: cell.snapshot.counter("rdma.corrupted"),
        corrupted_values,
        checksum_fails: cell.snapshot.counter("bb.integrity.checksum_fail"),
        scrub_repaired: cell.snapshot.counter("bb.scrub.repaired"),
        scrub_unrepairable: cell.snapshot.counter("bb.scrub.unrepairable"),
        ack_quorum_acks: cell.snapshot.counter("bb.ack.quorum_acks"),
        ack_downgrades: cell.snapshot.counter("bb.ack.downgrade"),
        crashes,
        recovery,
        end,
        timeline,
        metrics_json,
        consistency_ok: verdict.ok(),
        consistency_violations: verdict.violations,
        flight_dumps,
    };
    let stem = format!(
        "{}-{}-r{}-seed{:x}",
        case.scheme.label().replace(' ', "_"),
        case.scenario.label().replace(' ', "_"),
        case.replication,
        case.seed
    );
    persist_flight_dumps(&outcome.flight_dumps, &stem);
    tb.shutdown();
    (outcome, Some(cell))
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

    let case = |scheme, scenario, replication| FaultCase {
        quick,
        ..FaultCase::quick(scheme, scenario, replication)
    };
    let row_label = |scheme: Scheme, scenario: FaultScenario, r: usize| {
        format!("{}: {} (r={r})", scheme.label(), scenario.label())
    };
    let state_label = |o: &FaultOutcome| match o.state {
        _ if !o.converged => "HUNG".to_string(),
        Some(s) => format!("{s:?}"),
        None => "write failed".to_string(),
    };

    // --- crash one server, r=1, all three schemes ---
    for scheme in Scheme::all() {
        let o = run_fault_scenario(case(scheme, FaultScenario::CrashOne, 1));
        let ok = match scheme {
            // async single-copy: losing the buffer node may lose exactly
            // the unflushed window, never silently (failed reads are
            // accounted by chunks_lost > 0)
            Scheme::AsyncLustre => {
                o.converged && (o.reads_failed() == 0 || o.chunks_lost > 0) && o.crashes == 1
            }
            // write-through: zero loss, every read served
            Scheme::SyncLustre => o.converged && o.chunks_lost == 0 && o.data_intact(),
            // locality scheme: node-local replica covers every read
            Scheme::HybridLocality => o.converged && o.data_intact(),
        };
        shape &= ok;
        t.row(vec![
            row_label(scheme, FaultScenario::CrashOne, 1),
            state_label(&o),
            format!(
                "{} of {} chunks lost; {}/{} reads ok; {} retries",
                o.chunks_lost, o.chunks_total, o.reads_ok, o.reads_total, o.retry_attempts
            ),
        ]);
    }

    // --- crash one server with r=2: replication closes the window ---
    {
        let o = run_fault_scenario(case(Scheme::AsyncLustre, FaultScenario::CrashOne, 2));
        let ok = o.converged && o.chunks_lost == 0 && o.data_intact() && o.failover_reads > 0;
        shape &= ok;
        t.row(vec![
            row_label(Scheme::AsyncLustre, FaultScenario::CrashOne, 2),
            state_label(&o),
            format!(
                "0 lost; {}/{} reads ok via {} failovers",
                o.reads_ok, o.reads_total, o.failover_reads
            ),
        ]);
    }

    // --- crash + restart (the representative cell: full fault lifecycle) ---
    let timeline;
    let telemetry;
    {
        let (o, cell) = run_fault_scenario_telemetry(
            case(Scheme::AsyncLustre, FaultScenario::CrashRestart, 1),
            trace,
        );
        timeline = o.timeline.clone();
        telemetry = cell;
        let ok = o.converged && (o.reads_failed() == 0 || o.chunks_lost > 0) && o.crashes == 1;
        shape &= ok;
        let rec = o.recovery.map(|d| d.as_secs_f64()).unwrap_or(f64::NAN);
        t.row(vec![
            row_label(Scheme::AsyncLustre, FaultScenario::CrashRestart, 1),
            state_label(&o),
            format!(
                "{} lost; recovered {rec:.1}s after restart (restarted server is empty)",
                o.chunks_lost
            ),
        ]);
    }

    // --- link flap: retries absorb it, nothing is lost from the buffer ---
    {
        let o = run_fault_scenario(case(Scheme::AsyncLustre, FaultScenario::LinkFlap, 1));
        let ok = o.converged && o.data_intact();
        shape &= ok;
        t.row(vec![
            row_label(Scheme::AsyncLustre, FaultScenario::LinkFlap, 1),
            state_label(&o),
            format!(
                "{}/{} reads ok; {} retries, {} direct writes rode out the flap",
                o.reads_ok, o.reads_total, o.retry_attempts, o.chunks_direct
            ),
        ]);
    }

    // --- 1% transfer loss: bounded backoff hides it completely ---
    {
        let o = run_fault_scenario(case(Scheme::AsyncLustre, FaultScenario::RpcLoss, 1));
        let ok = o.converged && o.chunks_lost == 0 && o.data_intact();
        shape &= ok;
        t.row(vec![
            row_label(Scheme::AsyncLustre, FaultScenario::RpcLoss, 1),
            state_label(&o),
            format!(
                "{} transfers dropped, {} retries, zero loss",
                o.dropped_transfers, o.retry_attempts
            ),
        ]);
    }

    t.note("paper: the sync scheme trades write speed for a closed fault window; async risks only not-yet-flushed data");
    t.note("replication r=2 closes the async window too, at the cost of double buffer traffic");
    ExpReport::new("E12", t, shape, telemetry).with_timeline(timeline)
}
