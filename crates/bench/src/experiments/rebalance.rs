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
//! A [`RebalanceCase`] runs through the scenario runner; the
//! migration-invariant proptest suite (`crates/bench/tests/rebalance.rs`)
//! sweeps it across random add/drain schedules.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use bb_core::{BbClient, BbDeployment, FileState, Scheme};
use lustre::LustreConfig;
use simkit::{dur, FaultEvent, FaultPlan, Sim};
use workloads::{PayloadPool, SystemKind, TestbedConfig};

use crate::experiments::{consistency_row, ExpReport};
use crate::scenario::{self, read_back_ok, Outcome, Scenario};
use crate::table::Table;

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
    /// The membership schedule. After each applied change the cell
    /// waits for the rebalancer to drain and byte-verifies every file
    /// closed so far (the per-epoch read-back invariant).
    pub changes: Vec<ScheduledChange>,
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

/// What an elastic-membership driver observed.
#[derive(Debug, Clone)]
pub struct RebalanceRun {
    /// Final membership epoch (= applied changes).
    pub epochs: u64,
    /// Per-transition ownership shift.
    pub remaps: Vec<RemapSample>,
    /// Virtual time from the last applied change until the rebalance
    /// backlog drained at the final epoch.
    pub migration_done: Option<Duration>,
    /// Files written and acknowledged; every one flushed and read back
    /// byte-identical at end of run, and every per-epoch sweep was clean
    /// (the driver fails otherwise).
    pub files_total: u64,
    /// Acked bytes per ~250 ms slice during the write phase.
    pub windows: Vec<u64>,
    /// Index of the slice containing the first membership change.
    pub first_change_window: usize,
}

impl RebalanceRun {
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

/// A closed file: path, payload seed, length.
type Closed = (String, u64, u64);

impl RebalanceCase {
    /// Sustained writes while the scripted schedule joins and drains
    /// servers, a verified read-back of every closed file after each
    /// epoch, then of every acknowledged file at the end. The driver
    /// paces itself on 100 ms (settle) and 250 ms (load) steps; the
    /// runner looks every millisecond, so the run ends on the instant the
    /// final read-back's step does.
    pub fn run(&self, trace: bool) -> Outcome<RebalanceRun> {
        let mut cfg = TestbedConfig {
            compute_nodes: 4,
            ..TestbedConfig::default()
        };
        cfg.bb.kv_servers = self.initial_servers;
        cfg.bb.kv_replication = self.replication;
        cfg.bb.rebalance_interval = dur::ms(100);
        // ample KV memory: no eviction, so a definitive miss is always loss
        cfg.bb.kv_mem_per_server = 1 << 30;
        cfg.lustre = self.lustre;
        let sc = Scenario {
            kind: SystemKind::Bb(Scheme::AsyncLustre),
            cfg,
            seed: self.seed,
            slice: dur::ms(1),
            // well past every phase's own bound
            deadline: dur::secs(900),
            // no crash loses memory: an acknowledged chunk must never
            // vanish from the tier
            forbid_miss: true,
            trace,
            stem: format!("rebalance-r{}-seed{:x}", self.replication, self.seed),
        };
        let file_bytes = self.file_bytes;
        scenario::run(
            &sc,
            |tb| {
                let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
                let client = bb.client(tb.nodes[0]);
                let (plan, change_times) = self.plan(&bb);
                let remaps = record_remaps(&tb.sim, &bb);
                let rig = Rig {
                    sim: tb.sim.clone(),
                    bb,
                    client: Rc::clone(&client),
                    remaps,
                };
                (plan, client, (rig, change_times))
            },
            |(rig, change_times)| drive(rig, file_bytes, change_times),
        )
    }

    /// The schedule as a fault plan over concrete nodes (standbys are
    /// created first so `Add` can name them), and the distinct offsets at
    /// which it changes membership.
    fn plan(&self, bb: &BbDeployment) -> (FaultPlan, Vec<Duration>) {
        let standbys: Vec<u32> = (0..self.standbys)
            .map(|_| bb.standby_kv_server().node().0)
            .collect();
        let pool: Vec<u32> = bb
            .kv_servers
            .iter()
            .map(|s| s.node().0)
            .chain(standbys.iter().copied())
            .collect();
        let mut plan = FaultPlan::new(self.seed);
        let mut change_times = Vec::new();
        let mut next_add = standbys.iter();
        for ch in &self.changes {
            let event = match ch.op {
                ChangeOp::Add => match next_add.next() {
                    Some(&node) => FaultEvent::AddServer { node },
                    None => continue,
                },
                ChangeOp::Drain(sel) => FaultEvent::DrainServer {
                    node: pool[sel % pool.len()],
                },
            };
            plan = plan.at(ch.at, event);
            change_times.push(ch.at);
        }
        change_times.sort_unstable();
        change_times.dedup();
        (plan, change_times)
    }
}

/// What the elastic-membership driver works with.
struct Rig {
    sim: Sim,
    bb: Rc<BbDeployment>,
    client: Rc<BbClient>,
    remaps: Rc<RefCell<Vec<RemapSample>>>,
}

/// The elastic-membership driver: the writer, the schedule's settle
/// and verify sweeps, the migration wait, and the final read-back.
async fn drive(
    rig: Rig,
    file_bytes: u64,
    change_times: Vec<Duration>,
) -> Result<RebalanceRun, String> {
    let Rig {
        sim,
        bb,
        client,
        remaps,
    } = rig;
    let t0 = sim.now();
    let payloads = PayloadPool::standard();
    let slice = dur::ms(250);
    // --- sustained writer: files back-to-back until told to stop ---
    let stop = Rc::new(Cell::new(false));
    let files: Rc<RefCell<Vec<Closed>>> = Rc::default();
    let mut sampler = WindowSampler::default();
    let writer = sim.spawn({
        let (client, stop, acked) = (
            Rc::clone(&client),
            Rc::clone(&stop),
            Rc::clone(&sampler.acked),
        );
        let (files, pool) = (Rc::clone(&files), payloads.clone());
        async move {
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
        }
    });

    // through the schedule; after each change (and any others that
    // fired while a verify sweep was running), settle the
    // rebalancer and byte-verify every file closed so far
    let mut first_change_window: Option<usize> = None;
    let mut epoch_readback_bad = 0u64;
    let mut swept_epoch = 0u64;
    for &ct in &change_times {
        let change_abs = t0 + ct + dur::ms(1);
        if first_change_window.is_none() && sim.now() < change_abs {
            first_change_window = Some(sampler.windows.len().max(1));
        }
        while sim.now() < change_abs {
            sim.sleep_until((sim.now() + slice).min(change_abs)).await;
            sampler.sample();
        }
        let epoch = bb.membership().epoch();
        if epoch > swept_epoch {
            swept_epoch = epoch;
            // clone out of the RefCell: the writer pushes into `files`
            // while we verify
            let closed = files.borrow().clone();
            let settle_deadline = sim.now() + dur::secs(20);
            while !settled(&bb) && sim.now() < settle_deadline {
                sim.sleep(dur::ms(100)).await;
                sampler.sample();
            }
            let sweep = verify(
                &sim,
                &client,
                &payloads,
                closed,
                false,
                dur::secs(60),
                Some(&mut sampler),
            );
            epoch_readback_bad += sweep.await.unwrap_or(1);
        }
    }

    // let the load run on briefly past the last change, then stop
    let last_change_abs = t0 + change_times.last().copied().unwrap_or_default();
    let stop_at = last_change_abs + dur::secs(1);
    while sim.now() < stop_at {
        sim.sleep_until((sim.now() + slice).min(stop_at)).await;
        sampler.sample();
    }
    stop.set(true);

    // migration completion: backlog drained at the final epoch
    let mig_deadline = sim.now() + dur::secs(60);
    let migration_done = loop {
        if settled(&bb) {
            break Some(sim.now() - last_change_abs);
        }
        if sim.now() >= mig_deadline {
            break None;
        }
        sim.sleep(dur::ms(100)).await;
    };

    // writer drains its current file, then flush + final verified
    // read-back
    let wdeadline = sim.now() + dur::secs(30);
    while !writer.is_finished() && sim.now() < wdeadline {
        sim.sleep(slice).await;
    }
    let all_files = files.borrow().clone();
    let files_total = all_files.len() as u64;
    let fin = verify(
        &sim,
        &client,
        &payloads,
        all_files,
        true,
        dur::secs(120),
        None,
    )
    .await;
    if !writer.is_finished() {
        return Err("the writer never stopped".into());
    }
    let Some(files_bad) = fin else {
        return Err("the final read-back never finished".into());
    };
    if files_total == 0 {
        return Err("the writer acknowledged no files".into());
    }
    if files_bad > 0 || epoch_readback_bad > 0 {
        return Err(format!(
            "{files_bad} of {files_total} files failed the final read-back; \
             {epoch_readback_bad} failed per-epoch sweeps"
        ));
    }
    let remaps = remaps.borrow().clone();
    Ok(RebalanceRun {
        epochs: bb.membership().epoch(),
        remaps,
        migration_done,
        files_total,
        first_change_window: first_change_window.unwrap_or_else(|| sampler.windows.len().max(1)),
        windows: sampler.windows,
    })
}

/// The rebalancer has processed the current epoch and moved everything
/// it remapped.
fn settled(bb: &BbDeployment) -> bool {
    bb.manager.rebalance_backlog() == 0 && bb.manager.rebalance_epoch() == bb.membership().epoch()
}

/// Record every epoch transition's ownership shift from a membership
/// hook. It fires at the exact virtual instant each change applies
/// (after the deployment's own hook updated the view), so the
/// before/after rings are exact however the driver steps. Measured over
/// a fixed synthetic key sample: ketama movement is key-set independent,
/// and a fixed sample keeps cells comparable.
fn record_remaps(sim: &Sim, bb: &Rc<BbDeployment>) -> Rc<RefCell<Vec<RemapSample>>> {
    let remaps: Rc<RefCell<Vec<RemapSample>>> = Rc::default();
    let sample: Vec<Vec<u8>> = (0..2048).map(|i| format!("s{i:04}").into_bytes()).collect();
    let prev = RefCell::new((
        bb.membership().ring_snapshot(),
        bb.membership().active_len(),
    ));
    let view = Rc::downgrade(bb.membership());
    let out = Rc::clone(&remaps);
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
        out.borrow_mut().push(RemapSample {
            epoch: view.epoch(),
            from_active: old_active,
            to_active: new_active,
            moved_frac: moved as f64 / sample.len() as f64,
            ideal: old_active.abs_diff(new_active) as f64 / old_active.max(new_active) as f64,
        });
    });
    remaps
}

/// Acked-byte deltas between sampling points.
#[derive(Default)]
struct WindowSampler {
    acked: Rc<Cell<u64>>,
    last: u64,
    windows: Vec<u64>,
}

impl WindowSampler {
    fn sample(&mut self) {
        let a = self.acked.get();
        self.windows.push(a - self.last);
        self.last = a;
    }
}

/// Byte-verify `files` (each once it is `Flushed`, with `flushed_first`)
/// in a task of its own while the driver steps 250 ms at a time,
/// sampling the write windows when given a sampler. The number of files
/// that failed; `None` when the sweep outlasts `deadline`.
async fn verify(
    sim: &Sim,
    client: &Rc<BbClient>,
    pool: &PayloadPool,
    files: Vec<Closed>,
    flushed_first: bool,
    deadline: Duration,
    mut sampler: Option<&mut WindowSampler>,
) -> Option<u64> {
    let task = sim.spawn({
        let (client, pool) = (Rc::clone(client), pool.clone());
        async move {
            let mut bad = 0u64;
            for (path, seed, len) in files {
                let durable =
                    !flushed_first || client.wait_flushed(&path).await == Ok(FileState::Flushed);
                if !(durable && read_back_ok(&client, &pool, &path, seed, len).await) {
                    bad += 1;
                }
            }
            bad
        }
    });
    let deadline = sim.now() + deadline;
    while !task.is_finished() && sim.now() < deadline {
        sim.sleep(dur::ms(250)).await;
        if let Some(s) = sampler.as_mut() {
            s.sample();
        }
    }
    task.try_take()
}

/// AB8: scale the KV tier out and in under write load. The report
/// carries the applied membership timeline (`repro AB8 --timeline`).
pub fn ab8_elastic(quick: bool, trace: bool) -> ExpReport {
    let case = RebalanceCase::ab8(quick);
    let o = case.run(trace);
    let (moved, verify_fails, checksum_fails) = (
        o.counter("bb.rebalance.moved"),
        o.counter("bb.rebalance.verify_fail"),
        o.counter("bb.integrity.checksum_fail"),
    );

    let mut t = Table::new(
        "AB8: elastic membership — scale-out and scale-in under write load",
        &["stage", "result"],
    );
    let Some(run) = &o.result else {
        t.row(vec!["run".into(), format!("{:?}", o.ending)]);
        return ExpReport::new("AB8", t, false, Some(o.cell)).with_timeline(o.timeline);
    };
    t.row(vec![
        "load".into(),
        format!(
            "{} files x {} MiB acked (r={}), {} epochs applied",
            run.files_total,
            case.file_bytes >> 20,
            case.replication,
            run.epochs
        ),
    ]);
    for r in &run.remaps {
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
            "{moved} chunks / {:.1} MiB moved, {verify_fails} verify failures{}",
            o.counter("bb.rebalance.bytes") as f64 / (1 << 20) as f64,
            match run.migration_done {
                Some(d) => format!(", drained {:.2}s after last change", d.as_secs_f64()),
                None => ", DID NOT DRAIN within 60s".into(),
            }
        ),
    ]);
    t.row(vec![
        "throughput dip".into(),
        match run.throughput_dip() {
            Some(d) => format!("{:.0}% below pre-churn median at worst", d * 100.0),
            None => "n/a".into(),
        },
    ]);
    t.row(vec![
        "read-back".into(),
        format!(
            "{n}/{n} files byte-correct at end; 0 per-epoch sweep failures; {checksum_fails} checksum fails",
            n = run.files_total
        ),
    ]);
    t.row(consistency_row(&o.consistency));
    t.note(
        "remap fraction per transition must track the consistent-hashing ideal k/n (within 1.5x)",
    );
    t.note("pinned unflushed chunks migrate first; old copies are deleted only after CRC-verified read-back");

    let shape = o.violations().is_empty()
        && run.epochs == 6
        && run.remap_within(1.5)
        && run.migration_done.is_some();
    ExpReport::new("AB8", t, shape, Some(o.cell)).with_timeline(o.timeline)
}
