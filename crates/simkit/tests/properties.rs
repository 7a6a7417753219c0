//! Property tests of the simulation core: the scheduling contract against
//! a naive reference scheduler, time monotonicity under arbitrary task
//! graphs, FIFO resource conservation and equivalence with the
//! semaphore-queued server it replaced, histogram percentile ordering, and
//! channel delivery completeness.

use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use simkit::future::{race, timeout, Either};
use simkit::resource::FifoServer;
use simkit::stats::Histogram;
use simkit::sync::semaphore::Semaphore;
use simkit::sync::{mpsc, oneshot};
use simkit::{dur, Sim};

type Fut<T> = Pin<Box<dyn Future<Output = T>>>;

/// What a random program needs from the scheduler under it.
trait Rt: Clone + 'static {
    fn now_ns(&self) -> u64;
    fn sleep_ns(&self, ns: u64) -> Fut<()>;
    fn yield_once(&self) -> Fut<()>;
    /// Spawn; the returned future resolves when the task has finished.
    fn spawn_join(&self, fut: Fut<()>) -> Fut<()>;
    /// Whether `fut` finished within `ns`.
    fn within(&self, ns: u64, fut: Fut<()>) -> Fut<bool>;
    fn run_to_quiescence(&self);
    fn polls(&self) -> u64;
    fn teardown(&self);
}

impl Rt for Sim {
    fn now_ns(&self) -> u64 {
        self.now().as_nanos()
    }
    fn sleep_ns(&self, ns: u64) -> Fut<()> {
        Box::pin(self.sleep(dur::ns(ns)))
    }
    fn yield_once(&self) -> Fut<()> {
        Box::pin(self.yield_now())
    }
    fn spawn_join(&self, fut: Fut<()>) -> Fut<()> {
        Box::pin(self.spawn(fut))
    }
    fn within(&self, ns: u64, fut: Fut<()>) -> Fut<bool> {
        let sim = self.clone();
        Box::pin(async move { timeout(&sim, dur::ns(ns), fut).await.is_some() })
    }
    fn run_to_quiescence(&self) {
        self.run();
    }
    fn polls(&self) -> u64 {
        self.events_processed()
    }
    fn teardown(&self) {
        self.reset();
    }
}

/// The reference scheduler: the contract in its most naive form. Ready
/// queue = FIFO of task ids, one entry per wake, stale ids skipped
/// uncounted; timers = an unsorted list scanned for the least
/// `(deadline, registration seq)`; one fresh `Arc` waker per poll.
#[derive(Clone, Default)]
struct Naive(Rc<NaiveState>);

#[derive(Default)]
struct NaiveState {
    now: Cell<u64>,
    seq: Cell<u64>,
    polls: Cell<u64>,
    ready: Arc<Mutex<VecDeque<usize>>>,
    tasks: RefCell<Vec<Option<Fut<()>>>>,
    timers: RefCell<Vec<(u64, u64, Rc<NaiveTimer>)>>,
}

#[derive(Default)]
struct NaiveTimer {
    fired: Cell<bool>,
    cancelled: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

struct NaiveWaker(usize, Arc<Mutex<VecDeque<usize>>>);

impl Wake for NaiveWaker {
    fn wake(self: Arc<Self>) {
        self.1.lock().unwrap().push_back(self.0);
    }
}

struct NaiveSleep(Rc<NaiveTimer>);

impl Future for NaiveSleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0.fired.get() {
            return Poll::Ready(());
        }
        *self.0.waker.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl Drop for NaiveSleep {
    fn drop(&mut self) {
        self.0.cancelled.set(true);
    }
}

impl Rt for Naive {
    fn now_ns(&self) -> u64 {
        self.0.now.get()
    }
    fn sleep_ns(&self, ns: u64) -> Fut<()> {
        let timer = Rc::new(NaiveTimer::default());
        timer.fired.set(ns == 0);
        if ns > 0 {
            let seq = self.0.seq.replace(self.0.seq.get() + 1);
            let entry = (self.now_ns() + ns, seq, Rc::clone(&timer));
            self.0.timers.borrow_mut().push(entry);
        }
        Box::pin(NaiveSleep(timer))
    }
    fn yield_once(&self) -> Fut<()> {
        let mut yielded = false;
        Box::pin(poll_fn(move |cx| {
            if std::mem::replace(&mut yielded, true) {
                return Poll::Ready(());
            }
            cx.waker().wake_by_ref();
            Poll::Pending
        }))
    }
    fn spawn_join(&self, fut: Fut<()>) -> Fut<()> {
        let (done, joined) = oneshot::channel();
        let mut tasks = self.0.tasks.borrow_mut();
        self.0.ready.lock().unwrap().push_back(tasks.len());
        tasks.push(Some(Box::pin(async move {
            fut.await;
            let _ = done.send(());
        })));
        Box::pin(async move { joined.await.expect("task finished") })
    }
    fn within(&self, ns: u64, fut: Fut<()>) -> Fut<bool> {
        let rt = self.clone();
        Box::pin(async move { matches!(race(fut, rt.sleep_ns(ns)).await, Either::Left(())) })
    }
    fn run_to_quiescence(&self) {
        let st = &self.0;
        loop {
            loop {
                let Some(id) = st.ready.lock().unwrap().pop_front() else {
                    break;
                };
                let Some(mut task) = st.tasks.borrow_mut()[id].take() else {
                    continue; // finished on an earlier wake
                };
                st.polls.set(st.polls.get() + 1);
                let waker = Waker::from(Arc::new(NaiveWaker(id, Arc::clone(&st.ready))));
                if task
                    .as_mut()
                    .poll(&mut Context::from_waker(&waker))
                    .is_pending()
                {
                    st.tasks.borrow_mut()[id] = Some(task);
                }
            }
            let mut timers = st.timers.borrow_mut();
            timers.retain(|(_, _, t)| !t.cancelled.get());
            let Some(first) = (0..timers.len()).min_by_key(|&i| (timers[i].0, timers[i].1)) else {
                return;
            };
            let (deadline, _, timer) = timers.remove(first);
            drop(timers);
            st.now.set(deadline);
            timer.fired.set(true);
            let waker = timer.waker.borrow_mut().take();
            if let Some(w) = waker {
                w.wake();
            }
        }
    }
    fn polls(&self) -> u64 {
        self.0.polls.get()
    }
    fn teardown(&self) {
        let tasks = std::mem::take(&mut *self.0.tasks.borrow_mut());
        drop(tasks);
        self.0.timers.borrow_mut().clear();
    }
}

/// One step of a random task. Durations are multiples of 50 ns drawn from
/// four values, so deadlines collide all the time.
#[derive(Clone, Debug)]
enum Op {
    Sleep(u64),
    Yield,
    /// Spawn script `.0` (nested: only scripts after one's own) and await
    /// its handle or drop it.
    Spawn(usize, bool),
    /// Message the consumer.
    Send,
    /// Message the consumer and release it a permit in the same poll: it
    /// is woken twice before it runs.
    Kick,
    /// Hold one of the pool's two permits across a sleep.
    Permit(u64),
    /// `timeout(limit, sleep(inner))`: fires, is cancelled, or ties.
    Timeout(u64, u64),
}

fn op() -> impl Strategy<Value = Op> {
    let ns = || (0u64..4).prop_map(|k| k * 50);
    prop_oneof![
        ns().prop_map(Op::Sleep),
        Just(Op::Yield),
        (0usize..8, any::<bool>()).prop_map(|(s, join)| Op::Spawn(s, join)),
        Just(Op::Send),
        Just(Op::Kick),
        ns().prop_map(Op::Permit),
        (ns(), ns()).prop_map(|(limit, inner)| Op::Timeout(limit, inner)),
    ]
}

/// Everything a script task shares; dropped with the last of them, which
/// closes the consumer's channel.
struct Env {
    scripts: Vec<Vec<Op>>,
    tx: mpsc::Sender<()>,
    kicks: Semaphore,
    pool: Semaphore,
    next_id: Cell<usize>,
    trace: Rc<RefCell<Vec<(usize, u64)>>>,
}

/// Spawn `fut` as the next numbered task, logging `(task, now)` per poll.
fn spawn_traced<R: Rt>(rt: &R, env: &Env, mut fut: Fut<()>) -> Fut<()> {
    let id = env.next_id.replace(env.next_id.get() + 1);
    let (trace, clock) = (Rc::clone(&env.trace), rt.clone());
    rt.spawn_join(Box::pin(poll_fn(move |cx| {
        trace.borrow_mut().push((id, clock.now_ns()));
        fut.as_mut().poll(cx)
    })))
}

fn script<R: Rt>(rt: R, env: Rc<Env>, idx: usize) -> Fut<()> {
    Box::pin(async move {
        for op in env.scripts[idx].clone() {
            match op {
                Op::Sleep(ns) => rt.sleep_ns(ns).await,
                Op::Yield => rt.yield_once().await,
                Op::Spawn(child, join) if child > idx && child < env.scripts.len() => {
                    let handle =
                        spawn_traced(&rt, &env, script(rt.clone(), Rc::clone(&env), child));
                    if join {
                        handle.await;
                    }
                }
                Op::Spawn(..) => {}
                Op::Send => env.tx.try_send(()).expect("unbounded"),
                Op::Kick => {
                    env.tx.try_send(()).expect("unbounded");
                    env.kicks.release_extra(1);
                }
                Op::Permit(hold) => {
                    let permit = env.pool.acquire().await;
                    rt.sleep_ns(hold).await;
                    drop(permit);
                }
                Op::Timeout(limit, inner) => {
                    rt.within(limit, rt.sleep_ns(inner)).await;
                }
            }
        }
    })
}

/// Run the program on `rt`: a consumer parked on a channel *and* a
/// semaphore, plus the first `roots` scripts. Returns the poll trace and
/// the scheduler's own poll count.
fn execute<R: Rt>(rt: R, scripts: &[Vec<Op>], roots: usize) -> (Vec<(usize, u64)>, u64) {
    let (tx, mut rx) = mpsc::unbounded();
    let env = Rc::new(Env {
        scripts: scripts.to_vec(),
        tx,
        kicks: Semaphore::new(0),
        pool: Semaphore::new(2),
        next_id: Cell::new(0),
        trace: Rc::default(),
    });
    let kicks = env.kicks.clone();
    let consumer = Box::pin(async move {
        loop {
            match race(rx.recv(), kicks.acquire()).await {
                Either::Left(Ok(())) => {}
                Either::Left(Err(_)) => break,
                Either::Right(permit) => permit.forget(),
            }
        }
    });
    drop(spawn_traced(&rt, &env, consumer));
    for idx in 0..roots.min(scripts.len()) {
        drop(spawn_traced(
            &rt,
            &env,
            script(rt.clone(), Rc::clone(&env), idx),
        ));
    }
    let trace = Rc::clone(&env.trace);
    drop(env);
    rt.run_to_quiescence();
    let polls = rt.polls();
    rt.teardown();
    let trace = trace.borrow().clone();
    (trace, polls)
}

/// `(ops, busy, queued)` of a FIFO server.
type Totals = (u64, Duration, Duration);

/// What the FIFO equivalence property needs from a server under test.
trait Serve: 'static {
    fn serve(self: Rc<Self>, d: Duration) -> Fut<()>;
    fn totals(&self) -> Totals;
}

impl Serve for FifoServer {
    fn serve(self: Rc<Self>, d: Duration) -> Fut<()> {
        Box::pin(self.serve_for(d))
    }
    fn totals(&self) -> Totals {
        let st = self.stats();
        (st.ops, st.busy, st.queued)
    }
}

/// The body `FifoServer::serve_for` had before it booked time: hold a
/// one-permit FIFO gate for the service time.
struct QueuedFifo {
    sim: Sim,
    gate: Semaphore,
    overhead: Duration,
    totals: Cell<Totals>,
}

impl Serve for QueuedFifo {
    fn serve(self: Rc<Self>, d: Duration) -> Fut<()> {
        Box::pin(async move {
            let enq = self.sim.now();
            let _permit = self.gate.acquire().await;
            let waited = self.sim.now() - enq;
            let service = self.overhead + d;
            self.sim.sleep(service).await;
            let (ops, busy, queued) = self.totals.get();
            self.totals.set((ops + 1, busy + service, queued + waited));
        })
    }
    fn totals(&self) -> Totals {
        self.totals.get()
    }
}

/// Serve each job `(slot, jitter, service)` — called at `slot` µs plus
/// `jitter` ns, for `service` ns — on `srv`; returns every op's end
/// instant in ns and the server's totals.
fn run_fifo<S: Serve>(sim: &Sim, srv: Rc<S>, jobs: &[(u64, u64, u64)]) -> (Vec<u64>, Totals) {
    let ends = Rc::new(RefCell::new(vec![0; jobs.len()]));
    for (i, &(slot, jitter, service)) in jobs.iter().enumerate() {
        let (s, srv, ends) = (sim.clone(), Rc::clone(&srv), Rc::clone(&ends));
        sim.spawn(async move {
            s.sleep(dur::ns(slot * 1_000 + jitter)).await;
            srv.serve(dur::ns(service)).await;
            ends.borrow_mut()[i] = s.now().as_nanos();
        });
    }
    sim.run();
    sim.reset();
    let ends = ends.borrow().clone();
    (ends, srv.totals())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The scheduling contract: `Sim` polls the same tasks at the same
    /// virtual instants in the same order as the naive reference, and
    /// counts the same number of polls.
    #[test]
    fn sim_matches_the_naive_reference_scheduler(
        scripts in proptest::collection::vec(proptest::collection::vec(op(), 0..10), 1..8),
        roots in 1usize..4,
    ) {
        let (trace, polls) = execute(Sim::new(), &scripts, roots);
        let (ref_trace, ref_polls) = execute(Naive::default(), &scripts, roots);
        prop_assert_eq!(polls, trace.len() as u64);
        prop_assert_eq!(polls, ref_polls);
        prop_assert_eq!(trace, ref_trace);
    }

    /// Whatever tasks and sleeps are spawned, observed time never goes
    /// backwards and the final clock equals the maximum deadline.
    #[test]
    fn virtual_time_is_monotone(delays in proptest::collection::vec(0u64..10_000, 1..80)) {
        let sim = Sim::new();
        let observed = Rc::new(RefCell::new(Vec::new()));
        for &d in &delays {
            let s = sim.clone();
            let obs = Rc::clone(&observed);
            sim.spawn(async move {
                s.sleep(dur::us(d)).await;
                obs.borrow_mut().push(s.now());
            });
        }
        let end = sim.run();
        let obs = observed.borrow();
        prop_assert_eq!(obs.len(), delays.len());
        for w in obs.windows(2) {
            prop_assert!(w[0] <= w[1], "time went backwards");
        }
        let max = delays.iter().copied().max().unwrap();
        prop_assert_eq!(end, simkit::Time::from_micros(max));
        sim.reset();
    }

    /// A FIFO server is work-conserving: total busy time equals the sum of
    /// service demands, and the makespan equals that sum (single channel).
    #[test]
    fn fifo_server_conserves_work(jobs in proptest::collection::vec(1u64..5_000, 1..60)) {
        let sim = Sim::new();
        let srv = Rc::new(FifoServer::new(sim.clone(), Duration::ZERO));
        for &j in &jobs {
            let srv = Rc::clone(&srv);
            sim.spawn(async move { srv.serve_for(dur::us(j)).await });
        }
        let end = sim.run();
        let total: u64 = jobs.iter().sum();
        prop_assert_eq!(end, simkit::Time::from_micros(total));
        let st = srv.stats();
        prop_assert_eq!(st.ops, jobs.len() as u64);
        prop_assert_eq!(st.busy, Duration::from_micros(total));
        sim.reset();
    }

    /// The booked `FifoServer` ends every op at the instant the
    /// semaphore-queued server it replaced did, and accounts the same
    /// busy and queueing time. Calls land on a coarse grid plus ns jitter,
    /// so they both collide and interleave with ends.
    #[test]
    fn booked_fifo_matches_the_queued_reference(
        jobs in proptest::collection::vec((0u64..20, 0u64..3, 0u64..4_000), 1..60),
        overhead in 0u64..300,
    ) {
        let (a, b) = (Sim::new(), Sim::new());
        let booked = run_fifo(&a, Rc::new(FifoServer::new(a.clone(), dur::ns(overhead))), &jobs);
        let queued = QueuedFifo {
            sim: b.clone(),
            gate: Semaphore::new(1),
            overhead: dur::ns(overhead),
            totals: Cell::default(),
        };
        prop_assert_eq!(booked, run_fifo(&b, Rc::new(queued), &jobs));
    }

    /// Every message sent is received exactly once, in send order per
    /// producer.
    #[test]
    fn mpsc_delivers_everything_once(
        counts in proptest::collection::vec(1usize..40, 1..6)
    ) {
        let sim = Sim::new();
        let (tx, mut rx) = mpsc::unbounded::<(usize, usize)>();
        for (p, &n) in counts.iter().enumerate() {
            let tx = tx.clone();
            let s = sim.clone();
            sim.spawn(async move {
                for i in 0..n {
                    s.sleep(dur::ns((p as u64 + 1) * 7 + i as u64 * 13)).await;
                    tx.try_send((p, i)).unwrap();
                }
            });
        }
        drop(tx);
        let got = Rc::new(RefCell::new(Vec::new()));
        let got2 = Rc::clone(&got);
        sim.spawn(async move {
            while let Ok(m) = rx.recv().await {
                got2.borrow_mut().push(m);
            }
        });
        sim.run();
        let got = got.borrow();
        let total: usize = counts.iter().sum();
        prop_assert_eq!(got.len(), total);
        // per-producer order preserved
        for (p, &n) in counts.iter().enumerate() {
            let seq: Vec<usize> = got.iter().filter(|(pp, _)| *pp == p).map(|(_, i)| *i).collect();
            prop_assert_eq!(seq, (0..n).collect::<Vec<_>>());
        }
        sim.reset();
    }

    /// Histogram percentiles are monotone in q and bracketed by min/max.
    #[test]
    fn histogram_percentiles_monotone(samples in proptest::collection::vec(1u64..10_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record_ns(s);
        }
        let qs = [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0];
        let mut prev = Duration::ZERO;
        for q in qs {
            let v = h.percentile(q);
            prop_assert!(v >= prev, "p{q} < previous percentile");
            prop_assert!(v >= h.min() && v <= h.max());
            prev = v;
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    /// Zipf samples stay in range and rank frequencies are non-increasing
    /// in aggregate (first rank at least as popular as the last).
    #[test]
    fn zipf_in_range(n in 2usize..50, s in 0.1f64..2.0) {
        let rng = simkit::SimRng::seed_from(42);
        let z = simkit::Zipf::new(n, s);
        let mut counts = vec![0usize; n];
        for _ in 0..2000 {
            let r = z.sample(&rng);
            prop_assert!(r < n);
            counts[r] += 1;
        }
        prop_assert!(counts[0] >= counts[n - 1]);
    }
}
