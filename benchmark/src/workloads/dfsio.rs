//! The three TestDFSIO workloads: `dfsio_write` (E3's 1 GiB BB-Async
//! cell), `dfsio_read` (E4's: the same dataset read back buffer-hot) and
//! `dfsio_read_spill` (a dataset four times the KV buffer, read after it
//! is durable, so eviction, write-through and the Lustre tier serve it).
//!
//! The task loops mirror `workloads::testdfsio` call for call — seed 0
//! reproduces its throughput to the digit — but go through `BbClient`
//! directly so each call can be timed and, in the traced pass, spanned.
//! Closed loop: 16 tasks, each issues its next call when the previous
//! one returns.

use std::cell::RefCell;
use std::rc::Rc;

use bb_core::{BbClient, BbDeployment, FileState, Scheme};
use simkit::future::join_all;
use simkit::Sim;
use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};

use super::{drive, mean_us, percentile, spanned, Layout, Opts, RepOut};
use crate::host::{self, PhaseClock};
use crate::layers;
use crate::metrics::Values;
use crate::spans::{SpanId, Spans};

/// Which of the three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Measure the write phase; the flush drain is its epilogue.
    Write,
    /// Write in setup, measure the immediate read-back.
    Read,
    /// Small buffer; write and drain in setup, measure the read.
    ReadSpill,
}

const FILES: usize = 16;
const IO: u64 = 1 << 20;
/// One read in `VERIFY_EVERY` is compared byte for byte with the
/// generator in timed runs (`--check` compares all of them).
const VERIFY_EVERY: u64 = 16;

/// The dataset a task writes: same cursor scheme as `testdfsio`.
fn cursor(file: usize) -> u64 {
    file as u64 * 1_000_003
}

fn path(file: usize) -> String {
    format!("/benchmarks/TestDFSIO/io_data/test_io_{file}")
}

/// Latencies (virtual ns) and outcome counts of one phase.
#[derive(Default)]
struct PhaseLog {
    primary: Vec<u64>,
    create: Vec<u64>,
    close: Vec<u64>,
    open: Vec<u64>,
    calls: u64,
    failed: u64,
    bytes: u64,
}

struct Ctx {
    sim: Sim,
    pool: PayloadPool,
    spans: Rc<Spans>,
    log: Rc<RefCell<PhaseLog>>,
    /// Bytes per file, written and read back in `IO`-sized requests.
    file_size: u64,
    verify_all: bool,
}

impl Ctx {
    /// One call into the program: timed, spanned, counted.
    async fn call<T, E>(
        &self,
        name: &'static str,
        parent: SpanId,
        file: usize,
        fut: impl std::future::Future<Output = Result<T, E>>,
    ) -> (Result<T, E>, u64) {
        let (r, lat) = spanned(&self.sim, &self.spans, name, parent, file as u64, fut).await;
        let mut log = self.log.borrow_mut();
        log.calls += 1;
        if r.is_err() {
            log.failed += 1;
        }
        (r, lat)
    }

    async fn write_task(&self, client: Rc<BbClient>, file: usize, root: SpanId) {
        let task = self.spans.begin(&self.sim, "task.write", root, file as u64);
        let (w, lat) = self
            .call("bb.create", task, file, client.create(&path(file)))
            .await;
        if let Ok(w) = w {
            self.log.borrow_mut().create.push(lat);
            let mut ok = true;
            for k in 0..self.file_size / IO {
                let piece = self.pool.slice(cursor(file) + k, IO as usize);
                let (r, lat) = self.call("bb.append", task, file, w.append(piece)).await;
                if r.is_err() {
                    ok = false;
                    break;
                }
                let mut log = self.log.borrow_mut();
                log.primary.push(lat);
                log.bytes += IO;
            }
            if ok {
                let (r, lat) = self.call("bb.close", task, file, w.close()).await;
                if r.is_ok() {
                    self.log.borrow_mut().close.push(lat);
                }
            }
        }
        self.spans.end(&self.sim, task);
    }

    async fn read_task(&self, client: Rc<BbClient>, file: usize, root: SpanId) {
        let task = self.spans.begin(&self.sim, "task.read", root, file as u64);
        let (r, lat) = self
            .call("bb.open", task, file, client.open(&path(file)))
            .await;
        if let Ok(r) = r {
            {
                let mut log = self.log.borrow_mut();
                log.open.push(lat);
                if r.size() != self.file_size {
                    log.failed += 1;
                }
            }
            for piece in 0..self.file_size / IO {
                let (data, lat) = self
                    .call("bb.read_at", task, file, r.read_at(piece * IO, IO))
                    .await;
                let Ok(data) = data else { break };
                let sampled = (file as u64 + piece).is_multiple_of(VERIFY_EVERY);
                let good = data.len() as u64 == IO
                    && (!(sampled || self.verify_all)
                        || data == self.pool.slice(cursor(file) + piece, IO as usize));
                let mut log = self.log.borrow_mut();
                if !good {
                    log.failed += 1;
                }
                log.primary.push(lat);
                log.bytes += IO;
            }
        }
        self.spans.end(&self.sim, task);
    }
}

/// Run one phase: 16 tasks, started together (plus the layout's offsets),
/// joined; returns the makespan in virtual ns.
async fn phase(
    ctx: &Rc<Ctx>,
    bb: &Rc<BbDeployment>,
    nodes: &[netsim::NodeId],
    layout: &Layout,
    write: bool,
) -> u64 {
    let sim = ctx.sim.clone();
    let t0 = sim.now();
    let root = ctx.spans.begin(
        &sim,
        if write { "phase.write" } else { "phase.read" },
        SpanId::NONE,
        u64::MAX,
    );
    let mut tasks = Vec::with_capacity(FILES);
    for file in 0..FILES {
        let client = bb.client(nodes[file % nodes.len()]);
        let ctx = Rc::clone(ctx);
        let offset = layout.offsets[file];
        tasks.push(async move {
            if !offset.is_zero() {
                ctx.sim.sleep(offset).await;
            }
            if write {
                ctx.write_task(client, file, root).await;
            } else {
                ctx.read_task(client, file, root).await;
            }
        });
    }
    join_all(&sim, tasks).await;
    ctx.spans.end(&sim, root);
    (sim.now() - t0).as_nanos() as u64
}

/// Block until every file is durable on Lustre; returns the calls that
/// did not end in `Flushed`.
async fn drain(ctx: &Ctx, client: &Rc<BbClient>) -> u64 {
    let mut bad = 0;
    for file in 0..FILES {
        let (r, _) = ctx
            .call(
                "bb.wait_flushed",
                SpanId::NONE,
                file,
                client.wait_flushed(&path(file)),
            )
            .await;
        if r != Ok(FileState::Flushed) {
            bad += 1;
        }
    }
    bad
}

/// What setup builds before any simulated time passes.
struct Rig {
    tb: Testbed,
    layout: Layout,
    pool: PayloadPool,
    file_size: u64,
}

fn rig(mode: Mode, opts: &Opts) -> Rig {
    let mut cfg = TestbedConfig::default();
    cfg.bb.trace_ops = opts.trace;
    let file_size = match mode {
        Mode::Write | Mode::Read => (64 << 20) / opts.shrink,
        Mode::ReadSpill => {
            // buffer = 25 % of the dataset at every size
            cfg.bb.kv_mem_per_server = (32 << 20) / opts.shrink;
            (32 << 20) / opts.shrink
        }
    };
    let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), cfg);
    if opts.trace {
        tb.sim.tracer().enable();
    }
    let layout = Layout::new(opts.seed, tb.nodes.len(), FILES);
    Rig {
        tb,
        layout,
        pool: PayloadPool::standard(),
        file_size,
    }
}

/// One rep of `mode`.
pub fn rep(mode: Mode, opts: &Opts) -> RepOut {
    let opts = *opts;
    let (setup0, rep_clock) = (host::process_cpu_ns(), PhaseClock::start());
    let Rig {
        tb,
        layout,
        pool,
        file_size,
    } = rig(mode, &opts);
    let sim = tb.sim.clone();
    let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
    let nodes = layout.permute(&tb.nodes);
    let spans = Rc::new(Spans::new(opts.trace));
    let ctx_sim = sim.clone();
    let total = FILES as u64 * file_size;
    let chunks = FILES as u64 * file_size.div_ceil(bb.config.chunk_size);
    let new_ctx = move |spans: &Rc<Spans>| {
        Rc::new(Ctx {
            sim: ctx_sim.clone(),
            pool: pool.clone(),
            spans: Rc::clone(spans),
            log: Rc::default(),
            file_size,
            verify_all: opts.verify_all,
        })
    };

    let s = sim.clone();
    let run_spans = Rc::clone(&spans);
    let out = drive(&sim, async move {
        let client0 = bb.client(nodes[0]);
        // --- setup: everything before the measured phase ---
        let mut setup_failed = 0u64;
        if mode != Mode::Write {
            // the feeding write is not spanned: the trace is of the
            // measured phase
            let wctx = new_ctx(&Rc::new(Spans::new(false)));
            phase(&wctx, &bb, &nodes, &layout, true).await;
            if mode == Mode::ReadSpill {
                setup_failed += drain(&wctx, &client0).await;
            }
            setup_failed += wctx.log.borrow().failed;
        }
        let setup_cpu_s = (host::process_cpu_ns() - setup0) as f64 / 1e9;

        // --- measured phase: the 16 tasks, start to last join ---
        let ctx = new_ctx(&run_spans);
        bb.reset_read_stats();
        let clock = PhaseClock::start();
        let makespan_ns = phase(&ctx, &bb, &nodes, &layout, mode == Mode::Write).await;
        let cost = clock.stop();

        let mut values = Values::default();
        let mut notes = Vec::new();
        // --- epilogue (write): last close ack → every file durable, the
        // async scheme's exposure window ---
        let full = opts.epilogue || mode != Mode::Write;
        let mut drain_bad = 0;
        if full && mode == Mode::Write {
            let (last_close, drain_clock) = (s.now(), PhaseClock::start());
            drain_bad = drain(&ctx, &client0).await;
            values.set("sim_flush_lag_s", (s.now() - last_close).as_secs_f64());
            notes.push(format!(
                "flush drain after the measured phase: {:.3} s host user CPU (not in host_cpu_s)",
                drain_clock.stop().user_s
            ));
        }
        let mut log = std::mem::take(&mut *ctx.log.borrow_mut());
        let secs = makespan_ns as f64 / 1e9;
        values.set("sim_s", secs);
        values.set(
            "sim_op_p50_us",
            percentile(&mut log.primary, 50.0) as f64 / 1e3,
        );
        let p99_us = percentile(&mut log.primary, 99.0) as f64 / 1e3;
        values.set("sim_op_p99_us", p99_us);
        values.set("workloads.sim_mb_per_s", total as f64 / 1e6 / secs);
        let calls = log.primary.len().max(1) as f64;
        if mode == Mode::Write {
            values.set("bb-core.append_host_us", cost.user_s * 1e6 / calls);
            values.set("bb-core.create_sim_us", mean_us(&log.create));
            values.set("bb-core.close_sim_us", mean_us(&log.close));
            values.set("bb-core.append_sim_p99_us", p99_us);
        } else {
            values.set("bb-core.read_host_us", cost.user_s * 1e6 / calls);
            values.set("bb-core.open_sim_us", mean_us(&log.open));
        }
        let failed = log.failed + setup_failed + drain_bad;
        let mut correct = log.bytes == total;
        let mut reconciled = true;

        // the layer counts cover the whole life of the data, flush included
        if full {
            let must_trace: &[&str] = match mode {
                Mode::Write => &["bb.lat.write_chunk"],
                Mode::Read | Mode::ReadSpill => &["bb.lat.write_chunk", "bb.lat.read_group"],
            };
            reconciled = layers::observe(&s, opts.trace, must_trace, &mut values, &mut notes);
            correct &= reconciled;
            // a read workload's rep also wrote the dataset it reads
            let user = log.bytes + if mode == Mode::Write { 0 } else { total };
            values.set(
                "sim_bytes_per_user_byte",
                layers::bytes_moved(&values) / user as f64,
            );
            // every chunk served by exactly one tier, nothing lost
            let tiers = [
                "bb-core.tier_buffer",
                "bb-core.tier_lustre",
                "bb-core.tier_local",
            ]
            .map(|n| values.get(n).unwrap_or(0.0));
            correct &= layers::intact(&values)
                && (mode == Mode::Write || tiers.iter().sum::<f64>() == chunks as f64);
            notes.push(format!(
                "{} primary calls ({}), {} chunks, tiers buffer/lustre/local = {:?}",
                log.primary.len(),
                if mode == Mode::Write {
                    "1 MiB append"
                } else {
                    "1 MiB read_at"
                },
                chunks,
                tiers,
            ));
        }
        values.set("fail_frac", failed as f64 / log.calls.max(1) as f64);
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
            payload_bytes: log.bytes,
            spans: run_spans,
            notes,
        }
    });
    drop(tb);
    out
}
