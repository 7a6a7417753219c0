//! `kv_openloop`: the AB11 headline cell as an **open loop**. One engine
//! server (4 cores, `cq_batch` 16, `proc_time` 20 µs, `hot_replicas` 3),
//! 2048 keys, Zipf s = 0.99, 99 % gets / 1 % sets of 128 B, Poisson
//! arrivals at the fixed grid 80/120/140/160/175/190 kops/s from a pool of
//! 128 connections. Only `simkit`, `netsim`, `rdmasim` and `rkv` run.
//!
//! Open loop means the schedule does not wait for the system: a
//! dispatcher walks the pre-generated arrival stream and hands each op,
//! at its due instant, to an idle connection; when none is idle the op
//! queues and the first connection to finish takes it. Every latency is
//! timed **from the op's due instant**, so a stall is charged to the ops
//! it delayed, and the generator's own lateness (issue − due) is reported.
//! A rate passes when get p99 ≤ 400 µs and ≥ 99.9 % of its ops completed
//! by horizon + 10 ms; `sim_max_rate_kops` is the highest rate of the
//! grid reached without a failure below it. Each rate runs on a fresh
//! simulation; per-op and per-layer numbers describe the 140 kops/s cell.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use netsim::{Fabric, NetConfig, NodeId};
use rdmasim::RdmaStack;
use rkv::server::KvServerConfig;
use rkv::{KvClient, KvClientConfig, KvServer};
use simkit::sync::mpsc;
use simkit::{dur, Sim, SimRng, Time};
use workloads::traffic::{
    ArrivalProcess, OpClass, OpEvent, TenantSpec, TrafficEngine, TrafficSpec,
};

use super::{drive, percentile, spanned, Opts, RepOut};
use crate::host::{self, PhaseClock, PhaseCost};
use crate::layers;
use crate::metrics::Values;
use crate::spans::{SpanId, Spans};

/// Offered rates, ops per virtual second.
const GRID: [f64; 6] = [80e3, 120e3, 140e3, 160e3, 175e3, 190e3];
/// The cell whose latencies and layer metrics are reported.
const REPORT: usize = 2;
/// Virtual seconds of arrivals per rate in a timed run. (The issue asks
/// for 1 s; the driver's time cap leaves room for 0.25 s with three reps,
/// which still puts 34 700 gets behind the reported percentiles.)
const HORIZON_NS: u64 = 250_000_000;
const GRACE_NS: u64 = 10_000_000;
const LIMIT_P99_NS: u64 = 400_000;
const MIN_DONE: f64 = 0.999;
const POOL: usize = 128;
const KEYS: usize = 2048;
const VALUE: usize = 128;
const TENANT: u32 = 1;
/// AB11's seed; benchmark seed 0 reproduces its arrival stream.
const BASE_SEED: u64 = 11;

fn server_config() -> KvServerConfig {
    KvServerConfig {
        cores: 4,
        cq_batch: 16,
        proc_time: dur::us(20),
        hot_replicas: 3,
        hot_window: 4096,
        hot_min_count: 32,
        ..KvServerConfig::default()
    }
}

fn spec(rate: f64, horizon_ns: u64) -> TrafficSpec {
    TrafficSpec {
        tenants: vec![TenantSpec {
            tenant: TENANT,
            arrivals: ArrivalProcess::Poisson { rate },
            logical_clients: 500_000,
            keys: KEYS,
            skew: 0.99,
            get_ratio: 0.99,
            value_size: VALUE,
        }],
        horizon_ns,
    }
}

#[derive(Default)]
struct CellLog {
    /// Get latency from due instant, ns.
    get_lat: Vec<u64>,
    /// Issue − due of every op, ns.
    late: Vec<u64>,
    done: u64,
    failed: u64,
    /// When the latest op so far completed, virtual ns.
    last_done: u64,
}

struct Shared {
    sim: Sim,
    t_start: u64,
    payload: Bytes,
    idle: RefCell<VecDeque<usize>>,
    backlog: RefCell<VecDeque<(u64, OpEvent)>>,
    log: RefCell<CellLog>,
    spans: Rc<Spans>,
    root: SpanId,
}

impl Shared {
    async fn exec(&self, cl: &KvClient, seq: u64, ev: OpEvent) {
        let due = self.t_start + ev.at_ns;
        let issue = self.sim.now().as_nanos();
        let key = ev.key();
        let ok = match ev.class {
            OpClass::Get => {
                let get = cl.get(key.as_bytes());
                let (r, _) = spanned(&self.sim, &self.spans, "rkv.get", self.root, seq, get).await;
                // every key is prefilled and never evicted: a miss is a
                // failure; one value in 16 is compared byte for byte
                match r {
                    Ok(Some(v)) => {
                        v.data.len() == VALUE && (!seq.is_multiple_of(16) || v.data == self.payload)
                    }
                    Ok(None) | Err(_) => false,
                }
            }
            OpClass::Set => {
                let set = cl.set(key.as_bytes(), self.payload.clone(), 0, 0);
                let (r, _) = spanned(&self.sim, &self.spans, "rkv.set", self.root, seq, set).await;
                r.is_ok()
            }
        };
        let end = self.sim.now().as_nanos();
        let mut log = self.log.borrow_mut();
        log.done += 1;
        log.last_done = end;
        log.late.push(issue - due);
        if !ok {
            log.failed += 1;
        } else if ev.class == OpClass::Get {
            log.get_lat.push(end - due);
        }
    }
}

/// What one rate of the grid produced.
struct Cell {
    rate: f64,
    due: u64,
    done_by_deadline: u64,
    failed: u64,
    get_p50: u64,
    get_p99: u64,
    get_p999: u64,
    gets: usize,
    late_p99: u64,
    late_frac: f64,
    /// First op due → last op complete, virtual ns. Up to the knee this is
    /// the schedule's own length plus one latency; past it, the time the
    /// server needs to work off the backlog shows.
    span_ns: u64,
    setup_cpu_ns: u64,
    cost: PhaseCost,
    /// Host user CPU of the whole cell, prefill included.
    cell_user_s: f64,
    values: Values,
    /// Every traced `optrace` family telescoped exactly (with its notes).
    reconciled: bool,
    notes: Vec<String>,
}

impl Cell {
    fn passes(&self) -> bool {
        self.get_p99 <= LIMIT_P99_NS && self.done_by_deadline as f64 >= MIN_DONE * self.due as f64
    }
}

fn cell(rate: f64, horizon_ns: u64, opts: &Opts, spans: &Rc<Spans>) -> Cell {
    let opts = *opts;
    let (setup0, cell_clock) = (host::process_cpu_ns(), PhaseClock::start());
    let seed = BASE_SEED.wrapping_add(opts.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let events =
        TrafficEngine::new(&spec(rate, horizon_ns), &SimRng::seed_from(seed)).collect_all();
    let due = events.len() as u64;
    let first_due_ns = events.first().map_or(0, |e| e.at_ns);
    let sim = Sim::new();
    if opts.trace {
        sim.tracer().enable();
        sim.optrace().enable();
    }
    let fabric = Fabric::new(sim.clone(), POOL + 2, NetConfig::default());
    let stack = RdmaStack::new(fabric);
    let servers = vec![KvServer::new(Rc::clone(&stack), NodeId(0), server_config())];
    let s = sim.clone();
    let spans = Rc::clone(spans);
    let trace = opts.trace;
    let out = drive(&sim, async move {
        let payload = Bytes::from(vec![0x5a; VALUE]);
        // --- setup: prefill the keyspace off the measured clock ---
        let fill = KvClient::new(
            Rc::clone(&stack),
            NodeId((POOL + 1) as u32),
            servers.clone(),
            KvClientConfig::default(),
        );
        for rank in 0..KEYS {
            let key = format!("t{TENANT}-k{rank}");
            fill.set(key.as_bytes(), payload.clone(), 0, 0)
                .await
                .expect("prefill set");
        }
        let setup_cpu_ns = host::process_cpu_ns() - setup0;

        // --- measured: replay the arrival stream ---
        let clock = PhaseClock::start();
        let root = spans.begin(&s, "cell", SpanId::NONE, u64::MAX);
        let shared = Rc::new(Shared {
            sim: s.clone(),
            t_start: s.now().as_nanos(),
            payload,
            idle: RefCell::new((0..POOL).collect()),
            backlog: RefCell::default(),
            log: RefCell::default(),
            spans: Rc::clone(&spans),
            root,
        });
        let mut senders = Vec::with_capacity(POOL);
        let mut workers = Vec::with_capacity(POOL);
        for w in 0..POOL {
            let cl = KvClient::new(
                Rc::clone(&stack),
                NodeId((1 + w) as u32),
                servers.clone(),
                KvClientConfig {
                    tenant: TENANT,
                    ..KvClientConfig::default()
                },
            );
            let (tx, mut rx) = mpsc::unbounded::<(u64, OpEvent)>();
            senders.push(tx);
            let sh = Rc::clone(&shared);
            workers.push(s.spawn(async move {
                while let Ok((mut seq, mut ev)) = rx.recv().await {
                    loop {
                        sh.exec(&cl, seq, ev).await;
                        let next = sh.backlog.borrow_mut().pop_front();
                        match next {
                            Some(n) => (seq, ev) = n,
                            None => break,
                        }
                    }
                    sh.idle.borrow_mut().push_back(w);
                }
            }));
        }
        for (seq, ev) in events.into_iter().enumerate() {
            let at = Time::from_nanos(shared.t_start + ev.at_ns);
            if at > s.now() {
                s.sleep_until(at).await;
            }
            let idle = shared.idle.borrow_mut().pop_front();
            match idle {
                Some(w) => {
                    let sent = senders[w].try_send((seq as u64, ev));
                    assert!(sent.is_ok(), "worker channel closed early");
                }
                None => shared.backlog.borrow_mut().push_back((seq as u64, ev)),
            }
        }
        s.sleep_until(Time::from_nanos(shared.t_start + horizon_ns + GRACE_NS))
            .await;
        let done_by_deadline = shared.log.borrow().done;
        drop(senders);
        for w in workers {
            w.await;
        }
        spans.end(&s, root);
        let cost = clock.stop();

        let (mut values, mut notes) = (Values::default(), Vec::new());
        let reconciled = layers::observe(&s, trace, &["rkv.lat.get"], &mut values, &mut notes);
        let mut log = std::mem::take(&mut *shared.log.borrow_mut());
        assert_eq!(log.done, due, "every due op completes before the cell ends");
        let late_ops = log.late.iter().filter(|&&l| l > 0).count();
        Cell {
            rate,
            due,
            done_by_deadline,
            failed: log.failed,
            get_p50: percentile(&mut log.get_lat, 50.0),
            get_p99: percentile(&mut log.get_lat, 99.0),
            get_p999: percentile(&mut log.get_lat, 99.9),
            gets: log.get_lat.len(),
            late_p99: percentile(&mut log.late, 99.0),
            late_frac: late_ops as f64 / due.max(1) as f64,
            span_ns: log.last_done - (shared.t_start + first_due_ns),
            setup_cpu_ns,
            cost,
            cell_user_s: 0.0,
            values,
            reconciled,
            notes,
        }
    });
    sim.reset();
    Cell {
        cell_user_s: cell_clock.stop().user_s,
        ..out
    }
}

/// One rep: the whole grid.
pub fn rep(opts: &Opts) -> RepOut {
    let horizon_ns = HORIZON_NS / opts.shrink;
    let spans = Rc::new(Spans::new(opts.trace));
    let off = Rc::new(Spans::new(false));
    let cells: Vec<Cell> = GRID
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            // only the reported cell is spanned (bounded trace file)
            cell(
                rate,
                horizon_ns,
                opts,
                if i == REPORT { &spans } else { &off },
            )
        })
        .collect();

    let report = &cells[REPORT];
    let mut values = report.values.clone();
    let mut cost = PhaseCost::default();
    let mut notes = vec![format!(
        "open loop, {POOL} connections, {} ms of arrivals per rate; limit: get p99 <= {} us from due \
         time and >= {:.1} % done by horizon + {} ms",
        horizon_ns / 1_000_000,
        LIMIT_P99_NS / 1000,
        MIN_DONE * 100.0,
        GRACE_NS / 1_000_000
    )];
    let mut max_rate = 0.0;
    let mut ramp_ok = true;
    for c in &cells {
        cost.user_s += c.cost.user_s;
        cost.sys_s += c.cost.sys_s;
        cost.wall_s += c.cost.wall_s;
        ramp_ok &= c.passes();
        if ramp_ok {
            max_rate = c.rate / 1e3;
        }
        notes.push(format!(
            "{:>5.0} kops/s: {} ops, {:.3} % done by deadline, get p50/p99/p999 = {:.1}/{:.1}/{:.1} us \
             ({} gets), generator late p99 {:.1} us, late {:.2} %{} -> {}",
            c.rate / 1e3,
            c.due,
            100.0 * c.done_by_deadline as f64 / c.due.max(1) as f64,
            c.get_p50 as f64 / 1e3,
            c.get_p99 as f64 / 1e3,
            c.get_p999 as f64 / 1e3,
            c.gets,
            c.late_p99 as f64 / 1e3,
            c.late_frac * 100.0,
            if c.late_frac > 0.01 { " (FLAGGED: generator late on >1 % of ops)" } else { "" },
            if c.passes() { "pass" } else { "fail" },
        ));
    }
    let attempted: u64 = cells.iter().map(|c| c.due).sum();
    let failed: u64 = cells.iter().map(|c| c.failed).sum();
    values.set(
        "sim_s",
        cells.iter().map(|c| c.span_ns).sum::<u64>() as f64 / 1e9,
    );
    values.set("sim_op_p50_us", report.get_p50 as f64 / 1e3);
    values.set("sim_op_p99_us", report.get_p99 as f64 / 1e3);
    values.set("sim_op_p999_us", report.get_p999 as f64 / 1e3);
    values.set("sim_max_rate_kops", max_rate);
    values.set("fail_frac", failed as f64 / attempted.max(1) as f64);
    let user_bytes = report.due * VALUE as u64;
    values.set(
        "sim_bytes_per_user_byte",
        values.get("netsim.bytes").unwrap_or(0.0) / user_bytes.max(1) as f64,
    );
    values.set("workloads.gen_late_p99_us", report.late_p99 as f64 / 1e3);
    values.set("workloads.gen_late_frac", report.late_frac);
    values.set(
        "workloads.sim_mb_per_s",
        user_bytes as f64 / 1e6 / (report.span_ns as f64 / 1e9),
    );
    // the reported cell's layer notes, and those of any cell that failed
    // to reconcile
    let noted = cells
        .iter()
        .enumerate()
        .filter(|(i, c)| *i == REPORT || !c.reconciled);
    notes.extend(noted.flat_map(|(_, c)| c.notes.iter().cloned()));
    let reconciled = cells.iter().all(|c| c.reconciled);
    let correct = failed == 0 && reconciled && max_rate > 0.0;
    let setup_cpu_s = cells.iter().map(|c| c.setup_cpu_ns).sum::<u64>() as f64 / 1e9;
    let report_user_s = report.cell_user_s;
    RepOut {
        setup_cpu_s,
        cost,
        // the layer counts describe the reported cell, so does this
        rep_user_s: report_user_s,
        values,
        attempted,
        failed,
        correct,
        reconciled,
        payload_bytes: attempted * VALUE as u64,
        spans,
        notes,
    }
}
