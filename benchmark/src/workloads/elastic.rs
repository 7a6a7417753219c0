//! `elastic_mixed`: reads beside writes beside the background movers.
//! AB8's deployment (4 KV servers + 2 standbys, replication 2, a Lustre
//! narrower than the write stream, `rebalance_interval` 100 ms): four
//! writers stream 8 MiB files back to back for 2.5 s of virtual time while
//! four readers loop over the files closed so far; a seeded `FaultPlan`
//! joins the standbys at 0.5 s and 0.7 s and drains a server at 1.5 s. The
//! measured phase ends when the rebalancer's backlog is empty and every
//! file is durable; then every file is read back and compared byte for
//! byte. This is the only workload on which flusher, scrubber and
//! rebalancer (`bb-core::manager`) all have work at once.
//!
//! Closed loop on both sides: a writer issues its next call when the
//! previous returns; a reader additionally pauses 40 ms between files.
//! Without the pause the readers re-read the buffer at ~1 GB/s each: 18 024
//! reads and 26 s of host CPU per rep, 82 s per three-rep run against the
//! driver's 25 s; with it 1 728 reads (≥ 1 024 behind the p99) and 6 s per
//! rep, the writers and movers untouched. Primary call: 1 MiB `read_at`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use bb_core::{BbClient, FileState, Scheme};
use simkit::{dur, FaultEvent, FaultPlan, MembershipChange, Sim, SimRng, Time};
use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};

use super::{drive, percentile, spanned, Layout, Opts, RepOut};
use crate::host::{self, PhaseClock};
use crate::layers;
use crate::metrics::Values;
use crate::spans::{SpanId, Spans};

const WRITERS: usize = 4;
const READERS: usize = 4;
const IO: u64 = 1 << 20;
const THINK: Duration = Duration::from_millis(40);
const VERIFY_EVERY: u64 = 16;

#[derive(Default)]
struct Log {
    read_lat: Vec<u64>,
    append_lat: Vec<u64>,
    calls: u64,
    failed: u64,
    bytes_written: u64,
    bytes_read: u64,
    /// `(path, payload cursor)` of every closed file, in close order.
    closed: Vec<(String, u64)>,
    last_close: Time,
}

struct Ctx {
    sim: Sim,
    pool: PayloadPool,
    spans: Rc<Spans>,
    log: RefCell<Log>,
    stop: Cell<bool>,
    /// Bytes per file, written and read in `IO`-sized requests.
    file_size: u64,
    verify_all: bool,
}

/// Why a file is being read.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReadKind {
    /// A reader's pass during the measured phase: latencies recorded, one
    /// piece in 16 compared with the generator (all with `verify_all`).
    Timed,
    /// The read-back after the phase: every piece compared, not timed.
    Verify,
}

impl Ctx {
    /// One call into the program: timed, spanned, counted.
    async fn call<T, E>(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        fut: impl std::future::Future<Output = Result<T, E>>,
    ) -> (Result<T, E>, u64) {
        let (r, lat) = spanned(&self.sim, &self.spans, name, parent, op, fut).await;
        let mut log = self.log.borrow_mut();
        log.calls += 1;
        if r.is_err() {
            log.failed += 1;
        }
        (r, lat)
    }

    async fn writer(&self, client: Rc<BbClient>, w: usize, root: SpanId) {
        let task = self.spans.begin(&self.sim, "task.writer", root, w as u64);
        let mut i = 0u64;
        while !self.stop.get() {
            let path = format!("/elastic/w{w}/f{i}");
            let cursor = (w as u64) * 1_000_003 + i * 8;
            let op = (w as u64) << 32 | i;
            let (file, _) = self.call("bb.create", task, op, client.create(&path)).await;
            let Ok(file) = file else { break };
            let mut ok = true;
            for k in 0..self.file_size / IO {
                let piece = self.pool.slice(cursor + k, IO as usize);
                let (r, lat) = self.call("bb.append", task, op, file.append(piece)).await;
                if r.is_err() {
                    ok = false;
                    break;
                }
                let mut log = self.log.borrow_mut();
                log.append_lat.push(lat);
                log.bytes_written += IO;
            }
            if !ok
                || self
                    .call("bb.close", task, op, file.close())
                    .await
                    .0
                    .is_err()
            {
                break;
            }
            let mut log = self.log.borrow_mut();
            log.closed.push((path, cursor));
            log.last_close = self.sim.now();
            i += 1;
        }
        self.spans.end(&self.sim, task);
    }

    /// Read one whole file in 1 MiB calls and compare it with the
    /// generator. Returns whether every checked piece matched.
    async fn read_file(
        &self,
        client: &Rc<BbClient>,
        (path, cursor): &(String, u64),
        kind: ReadKind,
        parent: SpanId,
        op: u64,
    ) -> bool {
        let (r, _) = self.call("bb.open", parent, op, client.open(path)).await;
        let Ok(r) = r else { return false };
        let mut good = r.size() == self.file_size;
        let check_all = kind == ReadKind::Verify || self.verify_all;
        for k in 0..self.file_size / IO {
            let piece = cursor + k;
            let (data, lat) = self
                .call("bb.read_at", parent, op, r.read_at(k * IO, IO))
                .await;
            let Ok(data) = data else { return false };
            if data.len() as u64 != IO
                || ((check_all || piece.is_multiple_of(VERIFY_EVERY))
                    && data != self.pool.slice(piece, IO as usize))
            {
                good = false;
            }
            let mut log = self.log.borrow_mut();
            log.bytes_read += IO;
            if kind == ReadKind::Timed {
                log.read_lat.push(lat);
            }
        }
        good
    }

    async fn reader(&self, client: Rc<BbClient>, r: usize, root: SpanId) {
        let task = self.spans.begin(&self.sim, "task.reader", root, r as u64);
        let mut next = r;
        while !self.stop.get() {
            let pick = {
                let log = self.log.borrow();
                (!log.closed.is_empty()).then(|| log.closed[next % log.closed.len()].clone())
            };
            match pick {
                None => self.sim.sleep(dur::ms(1)).await,
                Some(file) => {
                    let op = (1u64 << 48) | (r as u64) << 32 | next as u64;
                    if !self
                        .read_file(&client, &file, ReadKind::Timed, task, op)
                        .await
                    {
                        self.log.borrow_mut().failed += 1;
                    }
                    next += READERS;
                    self.sim.sleep(THINK).await;
                }
            }
        }
        self.spans.end(&self.sim, task);
    }
}

/// What setup builds before any simulated time passes.
struct Rig {
    tb: Testbed,
    layout: Layout,
    spans: Rc<Spans>,
    pool: PayloadPool,
    plan: FaultPlan,
    /// When the last membership change was applied.
    last_change: Rc<Cell<Time>>,
}

fn rig(opts: &Opts) -> Rig {
    let mut cfg = TestbedConfig {
        compute_nodes: WRITERS + READERS,
        ..TestbedConfig::default()
    };
    cfg.bb.kv_servers = 4;
    cfg.bb.kv_replication = 2;
    cfg.bb.rebalance_interval = dur::ms(100);
    // ample KV memory: no eviction, so a definitive miss would be loss
    cfg.bb.kv_mem_per_server = 1 << 30;
    // Lustre narrower than the write stream: the flush queue stays deep
    // through the churn window, so migrations race live pins and flushes
    cfg.lustre.oss_count = 2;
    cfg.lustre.osts_per_oss = 2;
    cfg.lustre.ost_rate = 32e6;
    cfg.bb.trace_ops = opts.trace;
    let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), cfg);
    if opts.trace {
        tb.sim.tracer().enable();
    }
    let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
    let standbys: Vec<u32> = (0..2).map(|_| bb.standby_kv_server().node().0).collect();
    let layout = Layout::new(opts.seed, tb.nodes.len(), WRITERS + READERS);
    let spans = Rc::new(Spans::new(opts.trace));
    let pool = PayloadPool::standard();

    // the fault plan: two joins and a drain; seeds other than 0 move each
    // event by up to ±20 ms
    let rng = SimRng::seed_from(opts.seed ^ 0x6661_756c_7473);
    let shrink = opts.shrink as u32;
    let at = |ms: u64| {
        let jitter = if opts.seed == 0 {
            20_000
        } else {
            rng.range(0, 40_001)
        };
        (dur::ms(ms) + dur::us(jitter) - dur::ms(20)) / shrink
    };
    let plan = FaultPlan::new(opts.seed)
        .at(at(500), FaultEvent::AddServer { node: standbys[0] })
        .at(at(700), FaultEvent::AddServer { node: standbys[1] })
        .at(
            at(1500),
            FaultEvent::DrainServer {
                node: bb.kv_servers[0].node().0,
            },
        );

    // span every applied membership change; remember when the last fired
    // (weak handles: the injector lives inside the simulation it would
    // otherwise keep alive)
    let last_change = Rc::new(Cell::new(Time::ZERO));
    {
        let (weak_spans, weak_fabric, last) = (
            Rc::downgrade(&spans),
            Rc::downgrade(&tb.fabric),
            Rc::clone(&last_change),
        );
        tb.sim.faults().on_membership(move |ev| {
            let Some(fabric) = weak_fabric.upgrade() else {
                return;
            };
            let sim = fabric.sim();
            last.set(sim.now());
            if let Some(spans) = weak_spans.upgrade() {
                let name = match ev.change {
                    MembershipChange::Join => "faultplan.join",
                    MembershipChange::Drain => "faultplan.drain",
                };
                let sp = spans.begin(sim, name, SpanId::NONE, ev.node as u64);
                spans.end(sim, sp);
            }
        });
    }
    Rig {
        tb,
        layout,
        spans,
        pool,
        plan,
        last_change,
    }
}

/// One rep.
pub fn rep(opts: &Opts) -> RepOut {
    let opts = *opts;
    let (setup0, rep_clock) = (host::process_cpu_ns(), PhaseClock::start());
    let Rig {
        tb,
        layout,
        spans,
        pool,
        plan,
        last_change,
    } = rig(&opts);
    let sim = tb.sim.clone();
    let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
    let nodes = layout.permute(&tb.nodes);
    let shrink = opts.shrink as u32;
    let changes = plan.len() as u64;
    let duration = dur::ms(2500) / shrink;
    let file_size = (8 << 20) / opts.shrink;
    let setup_cpu_s = (host::process_cpu_ns() - setup0) as f64 / 1e9;

    let clock = PhaseClock::start();
    sim.install_faults(plan);
    let s = sim.clone();
    let run_spans = Rc::clone(&spans);
    let out = drive(&sim, async move {
        let ctx = Rc::new(Ctx {
            sim: s.clone(),
            pool,
            spans: run_spans,
            log: RefCell::default(),
            stop: Cell::new(false),
            file_size,
            verify_all: opts.verify_all,
        });
        let t0 = s.now();
        let root = ctx.spans.begin(&s, "phase.mixed", SpanId::NONE, u64::MAX);
        let mut tasks = Vec::new();
        for (t, &node) in nodes.iter().enumerate() {
            let (ctx, client, offset) = (Rc::clone(&ctx), bb.client(node), layout.offsets[t]);
            tasks.push(s.spawn(async move {
                if !offset.is_zero() {
                    ctx.sim.sleep(offset).await;
                }
                if t < WRITERS {
                    ctx.writer(client, t, root).await;
                } else {
                    ctx.reader(client, t - WRITERS, root).await;
                }
            }));
        }
        s.sleep_until(t0 + duration).await;
        ctx.stop.set(true);
        for t in tasks {
            t.await;
        }
        // the rebalancer has caught up with the final epoch and moved
        // everything it queued
        let mut drained_at = None;
        let give_up = s.now() + dur::secs(120);
        while s.now() < give_up {
            if bb.manager.rebalance_backlog() == 0
                && bb.manager.rebalance_epoch() == bb.membership().epoch()
            {
                drained_at = Some(s.now());
                break;
            }
            s.sleep(dur::ms(10)).await;
        }
        // every file durable
        let client0 = bb.client(nodes[0]);
        let files = ctx.log.borrow().closed.clone();
        let last_close = ctx.log.borrow().last_close;
        let mut undurable = 0u64;
        for (i, (path, _)) in files.iter().enumerate() {
            let (r, _) = ctx
                .call(
                    "bb.wait_flushed",
                    root,
                    i as u64,
                    client0.wait_flushed(path),
                )
                .await;
            if r != Ok(FileState::Flushed) {
                undurable += 1;
            }
        }
        let end = s.now();
        ctx.spans.end(&s, root);
        let cost = clock.stop();

        let mut values = Values::default();
        let mut notes = Vec::new();
        let reconciled = layers::observe(
            &s,
            opts.trace,
            &["bb.lat.write_chunk", "bb.lat.read_group"],
            &mut values,
            &mut notes,
        );
        // bytes the phase's own writers and readers moved (the read-back
        // below is not part of what the counts cover)
        let user = {
            let log = ctx.log.borrow();
            log.bytes_written + log.bytes_read
        };

        // after the measured phase: byte-verify every file (its outcome
        // repeats exactly, so like an epilogue it runs on one rep of a run)
        let mut bad_files = 0u64;
        let verify: &[(String, u64)] = if opts.epilogue { &files } else { &[] };
        for (i, file) in verify.iter().enumerate() {
            if !ctx
                .read_file(&client0, file, ReadKind::Verify, SpanId::NONE, i as u64)
                .await
            {
                bad_files += 1;
            }
        }

        let mut log = std::mem::take(&mut *ctx.log.borrow_mut());
        values.set("sim_s", (end - t0).as_secs_f64());
        values.set(
            "sim_op_p50_us",
            percentile(&mut log.read_lat, 50.0) as f64 / 1e3,
        );
        values.set(
            "sim_op_p99_us",
            percentile(&mut log.read_lat, 99.0) as f64 / 1e3,
        );
        values.set("sim_flush_lag_s", (end - last_close).as_secs_f64());
        values.set(
            "bb-core.append_sim_p99_us",
            percentile(&mut log.append_lat, 99.0) as f64 / 1e3,
        );
        if let Some(at) = drained_at {
            values.set(
                "bb-core.rebalance_drain_sim_s",
                (at.max(last_change.get()) - last_change.get()).as_secs_f64(),
            );
        }
        values.set(
            "workloads.sim_mb_per_s",
            log.bytes_written as f64 / 1e6 / duration.as_secs_f64(),
        );
        values.set(
            "sim_bytes_per_user_byte",
            layers::bytes_moved(&values) / user.max(1) as f64,
        );
        let failed = log.failed + undurable + bad_files;
        values.set("fail_frac", failed as f64 / log.calls.max(1) as f64);
        let epoch = bb.membership().epoch();
        notes.push(format!(
            "{} files written, {} timed 1 MiB read_at calls (primary), epoch {}, {} chunks rebalanced, \
             {} files byte-verified after the phase: {} bad",
            files.len(),
            log.read_lat.len(),
            epoch,
            values.get("bb-core.rebalance_moved").unwrap_or(0.0),
            verify.len(),
            bad_files
        ));
        let correct = reconciled
            && bad_files == 0
            && undurable == 0
            && drained_at.is_some()
            && epoch == changes
            && layers::intact(&values)
            && values.get("bb-core.rebalance_verify_fail") == Some(0.0);
        bb.shutdown();
        RepOut {
            setup_cpu_s,
            cost,
            rep_user_s: rep_clock.stop().user_s,
            values,
            attempted: log.calls,
            failed,
            correct,
            reconciled,
            payload_bytes: user,
            spans: Rc::clone(&ctx.spans),
            notes,
        }
    });
    drop(tb);
    out
}
