//! AB8: elastic membership — scale the KV tier out and in under load.
//!
//! A sustained E3-style write stream runs against a burst buffer whose
//! KV tier grows from 4 to 8 servers mid-load and then drains back to 6.
//! Each scripted [`FaultEvent::AddServer`]/[`FaultEvent::DrainServer`]
//! bumps the shared membership epoch; the cell measures, per epoch, the
//! fraction of keys whose primary owner moved (which must track the
//! consistent-hashing ideal ≈ k/n), the time for the background
//! rebalancer to migrate every remapped resident chunk, and the depth of
//! the throughput dip the churn causes — all with zero acknowledged-data
//! loss and zero checksum failures on post-epoch read-back.
//!
//! [`run_rebalance_scenario`] is the reusable cell runner; the
//! migration-invariant proptest suite (`crates/bench/tests/rebalance.rs`)
//! sweeps it across random add/drain schedules.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use bb_core::{FileState, Scheme};
use lustre::LustreConfig;
use simkit::{dur, FaultEvent, FaultPlan, Sim, Time};
use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};

use crate::consistency::{Checker, History};
use crate::experiments::integrity::step_to;
use crate::experiments::{read_back_ok, ExpReport};
use crate::table::Table;
use crate::telemetry::{capture_cell, CellTelemetry};

/// A scripted membership change.
#[derive(Debug, Clone, Copy)]
pub enum ChangeOp {
    /// Promote the next unused standby server onto the ring.
    Add,
    /// Drain the `sel`-th node of the combined (initial + standby) pool
    /// (modulo its size). Draining an inactive node, or the last active
    /// one, is a legal no-op — random schedules need no legality filter.
    Drain(usize),
}

/// One scheduled change at a virtual-time offset from run start.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledChange {
    /// Offset from run start.
    pub at: Duration,
    /// What to do.
    pub op: ChangeOp,
}

/// One rebalance cell: topology, schedule, and workload.
#[derive(Debug, Clone)]
pub struct RebalanceCase {
    /// Fault-plan seed (drives nothing probabilistic here, but keeps the
    /// timeline artifact seed-stamped like every other cell).
    pub seed: u64,
    /// Servers on the ring at deploy time.
    pub initial_servers: usize,
    /// Standby servers pre-created off-ring (candidates for `Add`).
    pub standbys: usize,
    /// Replicas per chunk.
    pub replication: usize,
    /// Bytes per written file.
    pub file_bytes: u64,
    /// The Lustre tier behind the flusher. Its width against the write
    /// stream sets how deep the flush queue is when a change lands.
    pub lustre: LustreConfig,
    /// The membership schedule.
    pub changes: Vec<ScheduledChange>,
    /// After each applied change, wait for the rebalancer to drain and
    /// byte-verify every file closed so far (the per-epoch read-back
    /// invariant). Slower; the AB8 cell and the proptests enable it.
    pub verify_each_epoch: bool,
}

impl RebalanceCase {
    /// The AB8 schedule: 4 servers, add 4 under load, then drain 2.
    pub fn ab8(quick: bool) -> RebalanceCase {
        RebalanceCase {
            seed: 0xAB8,
            initial_servers: 4,
            standbys: 4,
            replication: 2,
            file_bytes: if quick { 2 << 20 } else { 8 << 20 },
            // 4 OSTs x 32 MB/s, over twice the one writer's ~55 MB/s: the
            // flush queue is shallow when a change lands, so few remapped
            // chunks are still unflushed. A cell that wants migrations to
            // race a deep queue of live pins narrows this (one 16 MB/s
            // OST in `tests/rebalance.rs`).
            lustre: LustreConfig {
                oss_count: 2,
                osts_per_oss: 2,
                ost_rate: 32e6,
                ..TestbedConfig::default().lustre
            },
            changes: vec![
                ScheduledChange {
                    at: dur::ms(500),
                    op: ChangeOp::Add,
                },
                ScheduledChange {
                    at: dur::ms(600),
                    op: ChangeOp::Add,
                },
                ScheduledChange {
                    at: dur::ms(700),
                    op: ChangeOp::Add,
                },
                ScheduledChange {
                    at: dur::ms(800),
                    op: ChangeOp::Add,
                },
                ScheduledChange {
                    at: dur::ms(2000),
                    op: ChangeOp::Drain(0),
                },
                ScheduledChange {
                    at: dur::ms(2200),
                    op: ChangeOp::Drain(1),
                },
            ],
            verify_each_epoch: true,
        }
    }
}

/// The ownership shift one epoch transition caused.
#[derive(Debug, Clone, Copy)]
pub struct RemapSample {
    /// Epoch after the transition.
    pub epoch: u64,
    /// Active servers before.
    pub from_active: usize,
    /// Active servers after.
    pub to_active: usize,
    /// Fraction of sampled keys whose primary owner moved.
    pub moved_frac: f64,
    /// Consistent-hashing ideal: |Δservers| / max(before, after).
    pub ideal: f64,
}

/// What one rebalance cell observed.
#[derive(Debug, Clone)]
pub struct RebalanceOutcome {
    /// Writer, flush wait, and final read-back all finished in time.
    pub converged: bool,
    /// Final membership epoch (= applied changes).
    pub epochs: u64,
    /// Per-transition ownership shift.
    pub remaps: Vec<RemapSample>,
    /// `bb.rebalance.moved` — chunks migrated.
    pub moved: u64,
    /// `bb.rebalance.bytes` — payload bytes migrated.
    pub moved_bytes: u64,
    /// `bb.rebalance.verify_fail` — migrated copies failing read-back.
    pub verify_fails: u64,
    /// `bb.integrity.checksum_fail` at end of run.
    pub checksum_fails: u64,
    /// Chunks the flusher declared lost.
    pub chunks_lost: u64,
    /// Virtual time from the last applied change until the rebalance
    /// backlog drained at the final epoch.
    pub migration_done: Option<Duration>,
    /// Files written and acknowledged.
    pub files_total: u64,
    /// Files that flushed and read back byte-identical at end of run.
    pub files_ok: u64,
    /// Files failing the per-epoch read-back sweeps (0 required).
    pub epoch_readback_bad: u64,
    /// Acked bytes per ~250 ms slice during the write phase.
    pub windows: Vec<u64>,
    /// Index of the slice containing the first membership change.
    pub first_change_window: usize,
    /// Per-key KV history explainable by a sequential order, with misses
    /// forbidden (no crash loses memory in this cell, so an acknowledged
    /// chunk must never vanish from the tier).
    pub consistency_ok: bool,
    /// Checker violations when `consistency_ok` is false.
    pub consistency_violations: Vec<String>,
    /// Full metrics snapshot JSON (same-seed determinism artifact).
    pub metrics_json: String,
    /// Applied membership/fault timeline.
    pub timeline: String,
    /// Virtual end-of-run instant.
    pub end: Time,
}

impl RebalanceOutcome {
    /// Every transition's remap fraction within `factor` of its ideal.
    pub fn remap_within(&self, factor: f64) -> bool {
        self.remaps
            .iter()
            .all(|r| r.moved_frac > 0.0 && r.moved_frac <= factor * r.ideal)
    }

    /// Depth of the write-throughput dip: `1 - worst churn window /
    /// median pre-churn window` (0 = no dip; `None` without enough
    /// samples on either side).
    pub fn throughput_dip(&self) -> Option<f64> {
        let (before, after) = self.windows.split_at(self.first_change_window);
        if before.is_empty() || after.is_empty() {
            return None;
        }
        let mut sorted = before.to_vec();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        if median == 0 {
            return None;
        }
        let worst = *after.iter().min().unwrap();
        Some(1.0 - worst as f64 / median as f64)
    }
}

/// Run one elastic-membership cell: sustained writes while the scripted
/// schedule joins and drains servers, then verified read-back of every
/// acknowledged file.
pub fn run_rebalance_scenario(case: &RebalanceCase) -> RebalanceOutcome {
    run_rebalance_telemetry(case, false).0
}

/// [`run_rebalance_scenario`] plus the cell telemetry capture (Chrome
/// trace when `trace` is set).
pub fn run_rebalance_telemetry(
    case: &RebalanceCase,
    trace: bool,
) -> (RebalanceOutcome, CellTelemetry) {
    let mut cfg = TestbedConfig {
        compute_nodes: 4,
        ..TestbedConfig::default()
    };
    cfg.bb.kv_servers = case.initial_servers;
    cfg.bb.kv_replication = case.replication;
    cfg.bb.rebalance_interval = dur::ms(100);
    // ample KV memory: no eviction, so a definitive miss is always loss
    cfg.bb.kv_mem_per_server = 1 << 30;
    cfg.lustre = case.lustre;
    let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), cfg);
    if trace {
        tb.sim.tracer().enable();
    }
    let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
    let client = bb.client(tb.nodes[0]);
    let history = History::new();
    history.attach(client.kv());
    let sim = tb.sim.clone();
    let t0 = sim.now();

    // standby pool first: the fault plan needs concrete node ids
    let standbys: Vec<_> = (0..case.standbys).map(|_| bb.standby_kv_server()).collect();
    let pool_nodes: Vec<u32> = bb
        .kv_servers
        .iter()
        .map(|s| s.node().0)
        .chain(standbys.iter().map(|s| s.node().0))
        .collect();

    let mut plan = FaultPlan::new(case.seed);
    let mut next_add = 0usize;
    let mut change_times: Vec<Duration> = Vec::new();
    for ch in &case.changes {
        match ch.op {
            ChangeOp::Add => {
                if next_add < standbys.len() {
                    plan = plan.at(
                        ch.at,
                        FaultEvent::AddServer {
                            node: standbys[next_add].node().0,
                        },
                    );
                    next_add += 1;
                    change_times.push(ch.at);
                }
            }
            ChangeOp::Drain(sel) => {
                plan = plan.at(
                    ch.at,
                    FaultEvent::DrainServer {
                        node: pool_nodes[sel % pool_nodes.len()],
                    },
                );
                change_times.push(ch.at);
            }
        }
    }
    change_times.sort_unstable();
    change_times.dedup();
    tb.sim.install_faults(plan);

    // --- sustained writer: files back-to-back until told to stop ---
    let payloads = PayloadPool::standard();
    let stop = Rc::new(Cell::new(false));
    let acked = Rc::new(Cell::new(0u64));
    let files: Rc<RefCell<Vec<(String, u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    let writer = {
        let client = Rc::clone(&client);
        let stop = Rc::clone(&stop);
        let acked = Rc::clone(&acked);
        let files = Rc::clone(&files);
        let pool = payloads.clone();
        let file_bytes = case.file_bytes;
        sim.spawn(async move {
            let mut i = 0u64;
            while !stop.get() {
                let path = format!("/ab8/f{i}");
                let seed = 100 + i;
                let Ok(w) = client.create(&path).await else {
                    break;
                };
                let mut werr = false;
                for piece in pool.stream(seed, file_bytes, 1 << 20) {
                    let n = piece.len() as u64;
                    if w.append(piece).await.is_err() {
                        werr = true;
                        break;
                    }
                    acked.set(acked.get() + n);
                }
                if werr || w.close().await.is_err() {
                    break;
                }
                files.borrow_mut().push((path, seed, file_bytes));
                i += 1;
            }
        })
    };

    let slice = dur::ms(250);
    let mut windows: Vec<u64> = Vec::new();
    let mut sampler = WindowSampler {
        acked: Rc::clone(&acked),
        last: 0,
    };
    let mut first_change_window: Option<usize> = None;
    let mut epoch_readback_bad = 0u64;

    // Remap samples are recorded from a membership hook — it fires at the
    // exact virtual instant each change applies (after the deployment's
    // own hook updated the view), so the before/after rings are exact no
    // matter how coarsely the driving loop steps. Measured over a fixed
    // synthetic key sample: ketama movement is key-set independent, and a
    // fixed sample keeps cells comparable.
    let remaps_cell: Rc<RefCell<Vec<RemapSample>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let sample: Vec<Vec<u8>> = (0..2048).map(|i| format!("s{i:04}").into_bytes()).collect();
        let prev = RefCell::new((
            bb.membership().ring_snapshot(),
            bb.membership().active_len(),
        ));
        let view = Rc::downgrade(bb.membership());
        let remaps = Rc::clone(&remaps_cell);
        sim.faults().on_membership(move |_ev| {
            let Some(view) = view.upgrade() else { return };
            let (new_ring, new_active) = (view.ring_snapshot(), view.active_len());
            let (old_ring, old_active) = prev.replace((new_ring.clone(), new_active));
            if old_active == new_active {
                return; // refused drain / redundant add: no epoch bump
            }
            let moved = sample
                .iter()
                .filter(|k| old_ring.route(k) != new_ring.route(k))
                .count();
            remaps.borrow_mut().push(RemapSample {
                epoch: view.epoch(),
                from_active: old_active,
                to_active: new_active,
                moved_frac: moved as f64 / sample.len() as f64,
                ideal: old_active.abs_diff(new_active) as f64 / old_active.max(new_active) as f64,
            });
        });
    }

    // drive virtual time through the schedule; after each change (and any
    // others that fired while a verify sweep was running), settle the
    // rebalancer and byte-verify every file closed so far
    let mut swept_epoch = 0u64;
    for &ct in &change_times {
        let change_abs = t0 + ct + dur::ms(1);
        if first_change_window.is_none() && sim.now() < change_abs {
            first_change_window = Some(windows.len().max(1));
        }
        while sim.now() < change_abs {
            step_to(&sim, (sim.now() + slice).min(change_abs));
            sampler.sample(&mut windows);
        }
        let epoch = bb.membership().epoch();
        if case.verify_each_epoch && epoch > swept_epoch {
            swept_epoch = epoch;
            // clone out of the RefCell *before* stepping the sim: the
            // writer task pushes into `files` while we verify
            let closed: Vec<(String, u64, u64)> = files.borrow().clone();
            epoch_readback_bad += settle_and_verify(
                &sim,
                &bb,
                &client,
                &payloads,
                &closed,
                &mut sampler,
                &mut windows,
            );
        }
    }

    // let the load run on briefly past the last change, then stop writing
    let stop_at = change_times
        .last()
        .map(|&d| t0 + d + dur::secs(1))
        .unwrap_or(t0 + dur::secs(1));
    while sim.now() < stop_at {
        step_to(&sim, (sim.now() + slice).min(stop_at));
        sampler.sample(&mut windows);
    }
    stop.set(true);

    // migration completion: backlog drained at the final epoch
    let last_change_abs = change_times.last().map(|&d| t0 + d).unwrap_or(t0);
    let mig_deadline = sim.now() + dur::secs(60);
    let mut migration_done = None;
    loop {
        if bb.manager.rebalance_backlog() == 0
            && bb.manager.rebalance_epoch() == bb.membership().epoch()
        {
            migration_done = Some(sim.now() - last_change_abs);
            break;
        }
        if sim.now() >= mig_deadline {
            break;
        }
        step_to(&sim, sim.now() + dur::ms(100));
    }

    // writer drains its current file, then flush + final verified read-back
    let wdeadline = sim.now() + dur::secs(30);
    while !writer.is_finished() && sim.now() < wdeadline {
        step_to(&sim, sim.now() + slice);
    }
    let all_files: Vec<(String, u64, u64)> = files.borrow().clone();
    let files_total = all_files.len() as u64;
    let fin = {
        let client = Rc::clone(&client);
        let pool = payloads.clone();
        sim.spawn(async move {
            let mut ok = 0u64;
            for (path, seed, len) in all_files {
                if client.wait_flushed(&path).await != Ok(FileState::Flushed) {
                    continue;
                }
                if read_back_ok(&client, &pool, &path, seed, len).await {
                    ok += 1;
                }
            }
            ok
        })
    };
    let fdeadline = sim.now() + dur::secs(120);
    while !fin.is_finished() && sim.now() < fdeadline {
        step_to(&sim, sim.now() + slice);
    }
    let converged = writer.is_finished() && fin.is_finished();
    let files_ok = fin.try_take().unwrap_or(0);

    let cell = capture_cell(&tb.sim);
    let snap = &cell.snapshot;
    let verdict = history.check(Checker { forbid_miss: true });
    let outcome = RebalanceOutcome {
        converged,
        epochs: bb.membership().epoch(),
        remaps: remaps_cell.borrow().clone(),
        moved: snap.counter("bb.rebalance.moved"),
        moved_bytes: snap.counter("bb.rebalance.bytes"),
        verify_fails: snap.counter("bb.rebalance.verify_fail"),
        checksum_fails: snap.counter("bb.integrity.checksum_fail"),
        chunks_lost: bb.manager.stats().chunks_lost,
        migration_done,
        files_total,
        files_ok,
        epoch_readback_bad,
        first_change_window: first_change_window.unwrap_or_else(|| windows.len().max(1)),
        windows,
        consistency_ok: verdict.ok(),
        consistency_violations: verdict.violations,
        metrics_json: snap.to_json(),
        timeline: tb.sim.faults().timeline_text(),
        end: sim.now(),
    };
    tb.shutdown();
    (outcome, cell)
}

/// Tracks acked-byte deltas between sampling points.
struct WindowSampler {
    acked: Rc<Cell<u64>>,
    last: u64,
}

impl WindowSampler {
    fn sample(&mut self, windows: &mut Vec<u64>) {
        let a = self.acked.get();
        windows.push(a - self.last);
        self.last = a;
    }
}

/// Wait for the rebalancer to drain at the current epoch, then byte-
/// verify every file closed so far. Returns the mismatch count.
#[allow(clippy::too_many_arguments)]
fn settle_and_verify(
    sim: &Sim,
    bb: &Rc<bb_core::BbDeployment>,
    client: &Rc<bb_core::BbClient>,
    pool: &PayloadPool,
    files: &[(String, u64, u64)],
    sampler: &mut WindowSampler,
    windows: &mut Vec<u64>,
) -> u64 {
    let settle_deadline = sim.now() + dur::secs(20);
    while (bb.manager.rebalance_backlog() > 0
        || bb.manager.rebalance_epoch() != bb.membership().epoch())
        && sim.now() < settle_deadline
    {
        step_to(sim, sim.now() + dur::ms(100));
        sampler.sample(windows);
    }
    let snapshot: Vec<(String, u64, u64)> = files.to_vec();
    let vclient = Rc::clone(client);
    let vpool = pool.clone();
    let task = sim.spawn(async move {
        let mut bad = 0u64;
        for (path, seed, len) in snapshot {
            if !read_back_ok(&vclient, &vpool, &path, seed, len).await {
                bad += 1;
            }
        }
        bad
    });
    let vdeadline = sim.now() + dur::secs(60);
    while !task.is_finished() && sim.now() < vdeadline {
        step_to(sim, sim.now() + dur::ms(250));
        sampler.sample(windows);
    }
    task.try_take().unwrap_or(1)
}

/// AB8: scale the KV tier out and in under write load. The report
/// carries the applied membership timeline (`repro AB8 --timeline`).
pub fn ab8_elastic(quick: bool, trace: bool) -> ExpReport {
    let case = RebalanceCase::ab8(quick);
    let (o, cell) = run_rebalance_telemetry(&case, trace);

    let mut t = Table::new(
        "AB8: elastic membership — scale-out and scale-in under write load",
        &["stage", "result"],
    );
    t.row(vec![
        "load".into(),
        format!(
            "{} files x {} MiB acked (r={}), {} epochs applied",
            o.files_total,
            case.file_bytes >> 20,
            case.replication,
            o.epochs
        ),
    ]);
    for r in &o.remaps {
        t.row(vec![
            format!(
                "epoch {} ({}→{} servers)",
                r.epoch, r.from_active, r.to_active
            ),
            format!(
                "remap {:.3} vs ideal {:.3} ({:.2}x)",
                r.moved_frac,
                r.ideal,
                r.moved_frac / r.ideal
            ),
        ]);
    }
    t.row(vec![
        "migration".into(),
        format!(
            "{} chunks / {:.1} MiB moved, {} verify failures{}",
            o.moved,
            o.moved_bytes as f64 / (1 << 20) as f64,
            o.verify_fails,
            match o.migration_done {
                Some(d) => format!(", drained {:.2}s after last change", d.as_secs_f64()),
                None => ", DID NOT DRAIN within 60s".into(),
            }
        ),
    ]);
    t.row(vec![
        "throughput dip".into(),
        match o.throughput_dip() {
            Some(d) => format!("{:.0}% below pre-churn median at worst", d * 100.0),
            None => "n/a".into(),
        },
    ]);
    t.row(vec![
        "read-back".into(),
        format!(
            "{}/{} files byte-correct at end; {} per-epoch sweep failures; {} checksum fails",
            o.files_ok, o.files_total, o.epoch_readback_bad, o.checksum_fails
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
    t.note(
        "remap fraction per transition must track the consistent-hashing ideal k/n (within 1.5x)",
    );
    t.note("pinned unflushed chunks migrate first; old copies are deleted only after CRC-verified read-back");

    let shape = o.converged
        && o.epochs == 6
        && o.remap_within(1.5)
        && o.migration_done.is_some()
        && o.files_total > 0
        && o.files_ok == o.files_total
        && o.epoch_readback_bad == 0
        && o.verify_fails == 0
        && o.checksum_fails == 0
        && o.chunks_lost == 0
        && o.consistency_ok;
    ExpReport::new("AB8", t, shape, Some(cell)).with_timeline(o.timeline)
}
