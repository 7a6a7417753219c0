//! One runner for every burst-buffer scenario (DESIGN.md §6).
//!
//! A [`Scenario`] is a deployment plus how to pace and judge a run of
//! it. An instance — a fault-matrix cell, AB7, AB8, AB12, AB13, a
//! placement property cell, the combined cell — adds only what differs:
//! its parameters, the [`FaultPlan`] it derives from the live deployment
//! (victims and standbys exist only after the build) and its async
//! driver. [`run`] owns everything around them, once: the testbed, the
//! span tracer and flight recorder, the watched client's KV history, the
//! fault plan, the deadline loop, the telemetry capture and consistency
//! verdict, the flight dumps of a bad ending, and shutdown.
//! [`Outcome::violations`] is the one invariant oracle every instance is
//! judged by.

use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use bb_core::{BbClient, Scheme};
use simkit::flight::DEFAULT_RING_LEN;
use simkit::{FaultPlan, Sim, Time};
use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};

use crate::consistency::{Checker, History, Verdict};
use crate::telemetry::{capture_cell, repo_root, snapshot_drift, CellTelemetry};

/// A deployment and how to run it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// System under test.
    pub kind: SystemKind,
    /// Its deployment.
    pub cfg: TestbedConfig,
    /// Fault-plan RNG seed (drives probabilistic faults).
    pub seed: u64,
    /// How far the deadline loop advances virtual time between looks at
    /// the driver. The run ends on the first slice boundary at or after
    /// the driver returns, so background loops tick up to that instant.
    pub slice: Duration,
    /// Virtual-time budget: a driver still running at it has
    /// [`Ending::Hung`].
    pub deadline: Duration,
    /// Judge the watched client's KV history with misses forbidden —
    /// only where no crash or eviction may legally drop a buffer copy.
    pub forbid_miss: bool,
    /// Run with the span tracer on (the Chrome trace of a representative
    /// cell).
    pub trace: bool,
    /// File-name stem of the persisted flight dumps, naming the instance
    /// and its seed.
    pub stem: String,
}

/// How a driver's run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ending {
    /// The driver returned `Ok` before the deadline.
    Finished,
    /// The driver returned `Err(reason)`: a write failed or read-back
    /// found wrong bytes — never confused with a hang.
    Failed(String),
    /// The driver was still running at the deadline.
    Hung,
}

/// Everything one run observed.
pub struct Outcome<T> {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// How the driver ended.
    pub ending: Ending,
    /// The driver's result: `Some` exactly when it [`Ending::Finished`].
    pub result: Option<T>,
    /// The instant the driver returned (the deadline when it hung).
    pub end: Time,
    /// Metrics snapshot (byte-identical across same-seed runs) and trace.
    pub cell: CellTelemetry,
    /// The watched client's KV history, checked.
    pub consistency: Verdict,
    /// The applied fault timeline (`FaultInjector::timeline_text`).
    pub timeline: String,
    /// Frozen flight-recorder dumps (`rdma-bb.flight.v1`), one per
    /// trigger: a bad ending, a consistency violation, or an
    /// unrepairable scrub during the run. Empty on a clean run.
    pub flight_dumps: Vec<String>,
    /// The deployment as it stood at the end instant, background loops
    /// stopped — for reads the snapshot does not carry.
    pub testbed: Testbed,
}

/// Advance the simulation to exactly `horizon`. `run_until` alone stops
/// early when the next timer lies beyond the horizon without moving the
/// clock; planting a sleeper at the horizon makes the step land there,
/// so the deadline loop always makes progress through idle stretches.
fn step_to(sim: &Sim, horizon: Time) {
    let s = sim.clone();
    sim.spawn(async move { s.sleep_until(horizon).await });
    sim.run_until(horizon);
}

/// Run `sc`. `setup` sees the built deployment and returns the fault
/// plan to install, the client whose KV history the consistency checker
/// judges, and the state `drive` turns into the driver. The driver is
/// spawned after the plan is installed; virtual time advances in
/// `sc.slice` steps until it returns or `sc.deadline` passes.
pub fn run<S, T, F>(
    sc: &Scenario,
    setup: impl FnOnce(&Testbed) -> (FaultPlan, Rc<BbClient>, S),
    drive: impl FnOnce(S) -> F,
) -> Outcome<T>
where
    F: Future<Output = Result<T, String>> + 'static,
    T: 'static,
{
    let tb = Testbed::build(sc.kind, sc.cfg);
    let sim = tb.sim.clone();
    if sc.trace {
        sim.tracer().enable();
    }
    // every scenario flies the recorder: retries, poisonings, failovers,
    // pressure transitions and every applied fault land in bounded rings,
    // frozen to a dump if the run ends badly
    sim.flight().enable(DEFAULT_RING_LEN);
    let (plan, watched, state) = setup(&tb);
    let history = History::new();
    history.attach(watched.kv());
    sim.install_faults(plan);
    let driver = {
        let driven = drive(state);
        let clock = sim.clone();
        sim.spawn(async move { (driven.await, clock.now()) })
    };
    let deadline = sim.now() + sc.deadline;
    while !driver.is_finished() && sim.now() < deadline {
        step_to(&sim, (sim.now() + sc.slice).min(deadline));
    }
    let (ending, result, end) = match driver.try_take() {
        Some((Ok(r), end)) => (Ending::Finished, Some(r), end),
        Some((Err(why), end)) => (Ending::Failed(why), None, end),
        None => (Ending::Hung, None, sim.now()),
    };
    let cell = capture_cell(&sim);
    let consistency = history.check(Checker {
        forbid_miss: sc.forbid_miss,
    });
    // freeze the recorder on a bad ending (an unrepairable scrub triggers
    // from inside the manager on its own), then keep every dump
    let now_ns = sim.now().as_nanos();
    match &ending {
        Ending::Finished => {}
        Ending::Failed(why) => {
            sim.flight().trigger(now_ns, &format!("{}: {why}", sc.stem));
        }
        Ending::Hung => {
            sim.flight()
                .trigger(now_ns, &format!("{}: hung past the deadline", sc.stem));
        }
    }
    if !consistency.ok() {
        sim.flight().trigger(
            now_ns,
            &format!("consistency violation: {:?}", consistency.violations),
        );
    }
    let flight_dumps: Vec<String> = sim.flight().dumps().into_iter().map(|(_, j)| j).collect();
    persist_flight_dumps(&flight_dumps, &sc.stem);
    let timeline = sim.faults().timeline_text();
    tb.shutdown();
    Outcome {
        scenario: sc.clone(),
        ending,
        result,
        end,
        cell,
        consistency,
        timeline,
        flight_dumps,
        testbed: tb,
    }
}

/// Persist a run's flight-recorder dumps as `<stem>-<i>.json` under the
/// workspace-root `target/flight-recorder/` (anchored via the manifest
/// dir — test binaries run with CWD = crate root) so a failing CI run
/// can upload them as artifacts.
fn persist_flight_dumps(dumps: &[String], stem: &str) {
    if dumps.is_empty() {
        return;
    }
    let dir = repo_root().join("target/flight-recorder");
    if std::fs::create_dir_all(&dir).is_ok() {
        for (i, dump) in dumps.iter().enumerate() {
            let _ = std::fs::write(dir.join(format!("{stem}-{i}.json")), dump);
        }
    }
}

/// Driver step: create `path` and write the `bytes`-long payload stream
/// dealt from `seed` in 1 MiB appends; `Err` names the call that failed.
pub async fn write_file(
    client: &Rc<BbClient>,
    pool: &PayloadPool,
    path: &str,
    seed: u64,
    bytes: u64,
) -> Result<(), String> {
    let w = client
        .create(path)
        .await
        .map_err(|e| format!("create {path}: {e}"))?;
    for piece in pool.stream(seed, bytes, 1 << 20) {
        w.append(piece)
            .await
            .map_err(|e| format!("append {path}: {e}"))?;
    }
    w.close().await.map_err(|e| format!("close {path}: {e}"))
}

/// Driver step: whether `path` opens and reads back byte-identical to
/// what [`write_file`] wrote from `seed`.
pub async fn read_back_ok(
    client: &Rc<BbClient>,
    pool: &PayloadPool,
    path: &str,
    seed: u64,
    len: u64,
) -> bool {
    let expected = pool.stream(seed, len, 1 << 20).concat();
    match client.open(path).await {
        Ok(rd) => matches!(rd.read_all().await, Ok(b) if b[..] == expected[..]),
        Err(_) => false,
    }
}

/// Driver step: read `path` back one `chunk` at a time and count the
/// chunks that match `expected` byte for byte (0 when it will not open).
pub async fn chunks_read_ok(client: &Rc<BbClient>, path: &str, expected: &[u8], chunk: u64) -> u64 {
    let Ok(rd) = client.open(path).await else {
        return 0;
    };
    let len = expected.len() as u64;
    let mut ok = 0;
    for off in (0..len).step_by(chunk as usize) {
        let n = chunk.min(len - off);
        if let Ok(b) = rd.read_at(off, n).await {
            ok += u64::from(b[..] == expected[off as usize..(off + n) as usize]);
        }
    }
    ok
}

impl<T> Outcome<T> {
    /// Counter `name` of the end-of-run snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.cell.snapshot.counter(name)
    }

    /// `name` summed over every KV server (`rkv.server{N}.{name}`).
    pub fn per_server(&self, name: &str) -> u64 {
        self.cell
            .snapshot
            .sum_matching("rkv.server", &format!(".{name}"))
    }

    /// The invariant oracle: every way this run broke its contract. The
    /// ending must be [`Ending::Finished`]; the KV history must be
    /// explainable; checksum, migration-verify and unrepairable-scrub
    /// failures must be 0 unless the run injected corruption; acked
    /// chunks lost must fit the ack mode's contract for the copies the
    /// run destroyed; and the rebalance and placement backlogs must be
    /// drained at the end instant.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        match &self.ending {
            Ending::Finished => {}
            Ending::Failed(why) => out.push(format!("driver failed: {why}")),
            Ending::Hung => out.push(format!(
                "hung past the {}s deadline",
                self.scenario.deadline.as_secs_f64()
            )),
        }
        out.extend(
            self.consistency
                .violations
                .iter()
                .map(|v| format!("consistency: {v}")),
        );
        if self.per_server("corrupted") + self.counter("rdma.corrupted") == 0 {
            for name in [
                "bb.integrity.checksum_fail",
                "bb.rebalance.verify_fail",
                "bb.scrub.unrepairable",
            ] {
                let n = self.counter(name);
                if n > 0 {
                    out.push(format!("{name} = {n} with no corruption injected"));
                }
            }
        }
        let lost = self.counter("bb.mgr.chunks_lost");
        if let Some(allowed) = self.loss_budget() {
            if lost > allowed {
                let bb = &self.scenario.cfg.bb;
                out.push(format!(
                    "{lost} acked chunks lost; {} acks at r = {} after {} crashes allow {allowed}",
                    bb.bb_ack_mode.label(),
                    bb.kv_replication,
                    self.per_server("crashes"),
                ));
            }
        }
        if let Some(bb) = &self.testbed.bb {
            for (lp, backlog) in [
                ("rebalance", bb.manager.rebalance_backlog()),
                ("placement", bb.manager.place_backlog()),
            ] {
                if backlog > 0 {
                    out.push(format!("{lp} backlog {backlog} at the end instant"));
                }
            }
        }
        out
    }

    /// Acked chunks the ack-mode contract lets this run lose (`None`:
    /// unbounded). Write-through loses nothing. At-rest corruption can
    /// damage every copy of a chunk before it is flushed, so it bounds
    /// nothing. Otherwise each crash destroys one copy: none may be lost
    /// while fewer copies died than the ack waited for, at most the
    /// ack-ahead window per crash while replicas beyond the quorum were
    /// still in flight, and the whole unflushed window once every acked
    /// copy may be gone.
    fn loss_budget(&self) -> Option<u64> {
        let bb = &self.scenario.cfg.bb;
        let crashes = self.per_server("crashes");
        let quorum = bb.bb_ack_mode.quorum(bb.kv_replication) as u64;
        if self.scenario.kind == SystemKind::Bb(Scheme::SyncLustre) {
            Some(0)
        } else if self.per_server("corrupted") > 0 {
            None
        } else if crashes < quorum {
            Some(0)
        } else if bb.kv_replication as u64 > quorum {
            Some(bb.bb_ack_ahead as u64 * crashes)
        } else {
            None
        }
    }

    /// `Err` naming how `rerun` — this scenario run again — differs from
    /// this run: same seed must mean the same ending and end instant and
    /// a byte-identical snapshot, fault timeline and flight dumps.
    pub fn replay_diff(&self, rerun: &Outcome<T>) -> Result<(), String> {
        let diverged = |what: &str| Err(format!("{} replay diverged: {what}", self.scenario.stem));
        if self.ending != rerun.ending || self.end != rerun.end {
            return diverged(&format!(
                "{:?} at {:?} vs {:?} at {:?}",
                self.ending, self.end, rerun.ending, rerun.end
            ));
        }
        snapshot_drift(
            &rerun.cell.snapshot.to_json(),
            &self.cell.snapshot.to_json(),
        )
        .or_else(|drift| diverged(&drift))?;
        if self.timeline != rerun.timeline {
            return diverged("fault timeline");
        }
        if self.flight_dumps != rerun.flight_dumps {
            return diverged("flight dumps");
        }
        Ok(())
    }

    /// The driver's result, after asserting the oracle: panics naming
    /// `label` and every violation.
    pub fn assert_clean(&self, label: &str) -> &T {
        let v = self.violations();
        assert!(
            v.is_empty(),
            "{label}: {v:#?} ({} flight dumps frozen)",
            self.flight_dumps.len()
        );
        self.result.as_ref().expect("a clean run finished")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A driver that fails is neither a hang nor a pass: its reason
    /// becomes the ending, the oracle names it, and the recorder freezes
    /// a dump carrying it.
    #[test]
    fn failing_driver_ends_failed_with_a_dump() {
        let sc = Scenario {
            kind: SystemKind::Bb(Scheme::AsyncLustre),
            cfg: TestbedConfig {
                compute_nodes: 1,
                ..TestbedConfig::default()
            },
            seed: 0xFA11,
            slice: simkit::dur::ms(100),
            deadline: simkit::dur::secs(5),
            forbid_miss: true,
            trace: false,
            stem: "runner-failing-driver-seedfa11".into(),
        };
        let o = run(
            &sc,
            |tb| {
                let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
                let client = bb.client(tb.nodes[0]);
                (FaultPlan::new(sc.seed), client, tb.sim.clone())
            },
            |sim| async move {
                sim.sleep(simkit::dur::ms(250)).await;
                Err::<(), _>("read-back found wrong bytes".to_string())
            },
        );
        let why = "read-back found wrong bytes".to_string();
        assert_eq!(o.ending, Ending::Failed(why.clone()));
        assert!(o.result.is_none());
        assert_eq!(o.end, Time::ZERO + simkit::dur::ms(250));
        assert_eq!(o.violations(), vec![format!("driver failed: {why}")]);
        assert_eq!(o.flight_dumps.len(), 1);
        assert!(o.flight_dumps[0].contains("\"schema\": \"rdma-bb.flight.v1\""));
        assert!(o.flight_dumps[0].contains(&format!("{}: {why}", sc.stem)));
    }
}
