//! The deterministic virtual-time async executor.
//!
//! [`Sim`] owns a single-threaded task set and a virtual clock. Tasks are
//! ordinary Rust futures; they suspend on simulated time ([`Sim::sleep`]),
//! on channels ([`crate::sync`]), or on queueing resources
//! ([`crate::resource`]). When no task is runnable the executor advances the
//! clock to the earliest pending timer, which is the discrete-event step.
//!
//! Determinism: execution is single-threaded, ready tasks run in FIFO wake
//! order (a task woken twice is polled twice), and simultaneous timers fire
//! in registration order, so a run is a pure function of the program and
//! the RNG seed.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::faultplan::{FaultInjector, FaultPlan};
use crate::telemetry::{Registry, Span, SpanInner, Telemetry, Tracer};
use crate::time::Time;

mod waker;
use waker::{ReadyQueue, Task};

/// Owner of every unfinished task (`Vec` + free list): a task parked with
/// no waker left anywhere stays alive here until it finishes or the
/// simulation is reset.
#[derive(Default)]
struct TaskSlab {
    slots: Vec<Option<Rc<Task>>>,
    free: Vec<usize>,
}

impl TaskSlab {
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn insert(&mut self, make: impl FnOnce(usize) -> Rc<Task>) -> Rc<Task> {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let task = make(slot);
        self.slots[slot] = Some(Rc::clone(&task));
        task
    }

    fn remove(&mut self, slot: usize) {
        self.slots[slot] = None;
        self.free.push(slot);
    }
}

/// One pooled timer. `seq` is the registration that owns the slot, so a
/// heap entry or a [`Sleep`] carrying another `seq` is stale.
struct TimerSlot {
    seq: u64,
    fired: bool,
    waker: Option<Waker>,
}

/// `seq` of a slot on the free list; no registration ever carries it.
const VACANT: u64 = u64::MAX;
/// Dead heap entries tolerated before a rebuild, however few are live.
const COMPACT_FLOOR: usize = 256;

/// Pending timers: a min-heap of `(deadline, registration seq, slot)` over
/// a pool of slots, so a `sleep` allocates nothing once the pool is warm.
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<Reverse<(Time, u64, u32)>>,
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    /// Entries in `heap` whose `Sleep` was dropped before they fired.
    dead: usize,
}

impl Timers {
    fn register(&mut self, deadline: Time, seq: u64) -> u32 {
        let fresh = TimerSlot {
            seq,
            fired: false,
            waker: None,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = fresh;
                slot
            }
            None => {
                self.slots.push(fresh);
                u32::try_from(self.slots.len() - 1).expect("over 2^32 concurrent timers")
            }
        };
        self.heap.push(Reverse((deadline, seq, slot)));
        slot
    }

    /// The slot, if registration `seq` still owns it.
    fn slot(&mut self, slot: u32, seq: u64) -> Option<&mut TimerSlot> {
        self.slots.get_mut(slot as usize).filter(|s| s.seq == seq)
    }

    /// Pop the earliest live timer due by `horizon` and mark it fired.
    fn pop_due(&mut self, horizon: Time) -> Option<(Time, Option<Waker>)> {
        loop {
            let &Reverse((deadline, seq, slot)) = self.heap.peek()?;
            if deadline > horizon {
                return None;
            }
            self.heap.pop();
            match self.slot(slot, seq) {
                Some(s) => {
                    s.fired = true;
                    return Some((deadline, s.waker.take()));
                }
                None => self.dead -= 1, // its Sleep was dropped
            }
        }
    }

    /// Return a dropped [`Sleep`]'s slot to the pool. An unfired one leaves
    /// a dead entry in the heap; once those outnumber the live entries the
    /// heap is rebuilt from the live ones. Entries are totally ordered by
    /// the unique `(deadline, seq)`, so which of them are present never
    /// changes the order in which the live ones pop.
    fn release(&mut self, slot: u32, seq: u64) {
        let Some(s) = self.slot(slot, seq) else {
            return; // torn down by `reset`
        };
        let fired = s.fired;
        s.seq = VACANT;
        s.waker = None;
        self.free.push(slot);
        if fired {
            return;
        }
        self.dead += 1;
        if self.dead > (self.heap.len() - self.dead).max(COMPACT_FLOOR) {
            let slots = &self.slots;
            self.heap
                .retain(|&Reverse((_, seq, slot))| slots[slot as usize].seq == seq);
            self.dead = 0;
        }
    }
}

struct Inner {
    now: Cell<Time>,
    seq: Cell<u64>,
    ready: Rc<ReadyQueue>,
    tasks: RefCell<TaskSlab>,
    timers: RefCell<Timers>,
    events: Cell<u64>,
    telemetry: Telemetry,
    faults: FaultInjector,
}

impl Inner {
    /// Drop every task's future, then every timer and queued handle. Wakers
    /// that survive elsewhere are left pointing at dead tasks.
    fn teardown(&self) {
        // in passes: dropping a future can spawn-on-drop in principle
        loop {
            let tasks = std::mem::take(&mut *self.tasks.borrow_mut());
            if tasks.live() == 0 {
                break;
            }
            for task in tasks.slots.into_iter().flatten() {
                let future = task.future.borrow_mut().take();
                drop(future);
            }
        }
        // taken out first: nothing is borrowed while the parked wakers drop
        let timers = std::mem::take(&mut *self.timers.borrow_mut());
        drop(timers);
        let ready = std::mem::take(&mut *self.ready.borrow_mut());
        drop(ready);
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // queued handles and parked wakers hold task headers, and headers
        // hold the queue: without this the futures would outlive the Sim
        self.teardown();
    }
}

/// Handle to a simulation. Cheap to clone; all clones refer to the same
/// clock and task set. Not `Send` — a simulation lives on one thread (a
/// parameter sweep is a sequence of *whole simulations*, one per cell).
/// The task wakers rely on this (see
/// `executor/waker.rs`), so it is pinned:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<simkit::Sim>();
/// ```
#[derive(Clone)]
pub struct Sim {
    inner: Rc<Inner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        Sim {
            inner: Rc::new(Inner {
                now: Cell::new(Time::ZERO),
                seq: Cell::new(0),
                ready: Rc::default(),
                tasks: RefCell::default(),
                timers: RefCell::default(),
                events: Cell::new(0),
                telemetry: Telemetry::default(),
                faults: FaultInjector::default(),
            }),
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.inner.now.get()
    }

    /// Total task polls performed so far (a progress/diagnostic metric).
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.inner.events.get()
    }

    /// Number of tasks that have been spawned and have not yet completed.
    #[inline]
    pub fn live_tasks(&self) -> usize {
        self.inner.tasks.borrow().live()
    }

    /// The simulation's metrics registry. Components register named
    /// counters/gauges/histograms at spawn and bump the returned handles;
    /// [`Registry::snapshot`](crate::telemetry::Registry::snapshot) freezes
    /// them for reporting.
    #[inline]
    pub fn metrics(&self) -> &Registry {
        &self.inner.telemetry.registry
    }

    /// The simulation's span tracer (disabled by default; see
    /// [`telemetry`](crate::telemetry)).
    #[inline]
    pub fn tracer(&self) -> &Tracer {
        &self.inner.telemetry.tracer
    }

    /// The simulation's fault injector. Components register node-event
    /// hooks and poll per-transfer fault decisions; without an installed
    /// [`FaultPlan`] everything reads as healthy.
    #[inline]
    pub fn faults(&self) -> &FaultInjector {
        &self.inner.faults
    }

    /// The per-operation request tracer (disabled by default; see
    /// [`optrace`](crate::optrace)).
    #[inline]
    pub fn optrace(&self) -> &crate::optrace::OpTracer {
        &self.inner.telemetry.optrace
    }

    /// The crash flight recorder (disabled by default; see
    /// [`flight`](crate::flight)).
    #[inline]
    pub fn flight(&self) -> &crate::flight::FlightRecorder {
        &self.inner.telemetry.flight
    }

    /// Open a traced-op context at the current virtual time. `None` when
    /// the op tracer is disabled (one boolean read).
    #[inline]
    pub fn op_begin(
        &self,
        family: &'static str,
        class: &'static str,
        tenant: u32,
    ) -> Option<crate::optrace::OpId> {
        self.inner
            .telemetry
            .optrace
            .begin(self.now().as_nanos(), family, class, tenant)
    }

    /// Stamp a stage on a traced op at the current virtual time (no-op on
    /// `None`).
    #[inline]
    pub fn op_stamp(&self, op: Option<crate::optrace::OpId>, stage: &'static str) {
        if op.is_some() {
            self.inner
                .telemetry
                .optrace
                .stamp(op, stage, self.now().as_nanos());
        }
    }

    /// Finish a traced op, folding its stage durations into the latency
    /// decomposition series (no-op on `None`).
    #[inline]
    pub fn op_finish(
        &self,
        op: Option<crate::optrace::OpId>,
    ) -> Option<crate::optrace::FinishedOp> {
        self.inner.telemetry.optrace.finish(op)
    }

    /// Record a flight-recorder event at the current virtual time (one
    /// branch and no allocation while the recorder is disabled).
    #[inline]
    pub fn flight_record(
        &self,
        component: &str,
        code: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        self.inner
            .telemetry
            .flight
            .record(self.now().as_nanos(), component, code, detail);
    }

    /// Install a [`FaultPlan`]: reseed the injector from the plan, expand
    /// flaps, and spawn the driver task that applies each event at its
    /// scheduled offset from *now*. Installing a new plan clears the
    /// previous plan's edge rules and timeline (a driver already in flight
    /// keeps running — install at most one plan per simulation).
    pub fn install_faults(&self, plan: FaultPlan) {
        self.inner.faults.arm(plan.seed());
        let events = plan.expand();
        if events.is_empty() {
            return;
        }
        let sim = self.clone();
        let base = self.now();
        self.spawn(async move {
            for (offset, ev) in events {
                sim.sleep_until(base + offset).await;
                sim.flight_record("faultplan", "apply", || format!("{ev:?}"));
                sim.inner.faults.apply(sim.now(), ev);
            }
        });
    }

    /// Open a virtual-time span: records one Chrome-trace event from now
    /// until the returned guard drops. When the tracer is disabled this
    /// costs one boolean read and returns a no-op guard.
    #[inline]
    pub fn span(&self, name: &'static str, cat: &'static str, pid: u32, tid: u64) -> Span {
        if !self.inner.telemetry.tracer.is_enabled() {
            return Span::disabled();
        }
        Span {
            inner: Some(SpanInner {
                sim: self.clone(),
                name,
                cat,
                pid,
                tid,
                start: self.now(),
            }),
        }
    }

    fn next_seq(&self) -> u64 {
        let s = self.inner.seq.get();
        self.inner.seq.set(s + 1);
        s
    }

    /// Spawn a task. The returned [`JoinHandle`] resolves to the task's
    /// output; dropping the handle detaches the task.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            done: false,
            waker: None,
        }));
        let task_state = Rc::clone(&state);
        let wrapped = async move {
            let out = fut.await;
            let mut st = task_state.borrow_mut();
            st.result = Some(out);
            st.done = true;
            if let Some(w) = st.waker.take() {
                w.wake();
            }
        };
        let ready = &self.inner.ready;
        let task = self
            .inner
            .tasks
            .borrow_mut()
            .insert(|slot| Task::new(Box::pin(wrapped), slot, ready));
        ready.borrow_mut().push_back(task);
        JoinHandle { state }
    }

    /// Suspend the calling task until `d` of virtual time has elapsed.
    pub fn sleep(&self, d: Duration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Suspend the calling task until the absolute instant `deadline`.
    pub fn sleep_until(&self, deadline: Time) -> Sleep {
        let timer = (deadline > self.now()).then(|| {
            let seq = self.next_seq();
            let slot = self.inner.timers.borrow_mut().register(deadline, seq);
            (self.clone(), slot, seq)
        });
        Sleep { timer }
    }

    /// Poll one runnable task; returns false if none are runnable.
    fn step_task(&self) -> bool {
        let Some(task) = self.inner.ready.borrow_mut().pop_front() else {
            return false;
        };
        // A task is queued once per wake, so a handle can be stale: the
        // task finished on an earlier handle, or (nested `run`) is being
        // polled further up the stack. Stale handles are skipped uncounted.
        let Ok(mut slot) = task.future.try_borrow_mut() else {
            return true;
        };
        let Some(future) = slot.as_mut() else {
            return true;
        };
        self.inner.events.set(self.inner.events.get() + 1);
        let poll = Task::with_waker(&task, |w| future.as_mut().poll(&mut Context::from_waker(w)));
        if poll.is_ready() {
            let finished = slot.take();
            drop(slot);
            self.inner.tasks.borrow_mut().remove(task.slot);
            drop(finished);
        }
        true
    }

    /// Pop the earliest timer and advance the clock to it. Returns false if
    /// no timers are pending.
    fn step_time(&self, horizon: Time) -> bool {
        let Some((deadline, waker)) = self.inner.timers.borrow_mut().pop_due(horizon) else {
            return false;
        };
        debug_assert!(deadline >= self.inner.now.get(), "time went backwards");
        self.inner.now.set(deadline);
        if let Some(w) = waker {
            w.wake();
        }
        true
    }

    /// Run until no task is runnable and no timer is pending (quiescence).
    /// Returns the final virtual time.
    pub fn run(&self) -> Time {
        self.run_until(Time::MAX)
    }

    /// Run until quiescence or until the clock would pass `horizon`,
    /// whichever comes first. Timers beyond the horizon are left pending.
    pub fn run_until(&self, horizon: Time) -> Time {
        loop {
            while self.step_task() {}
            if !self.step_time(horizon) {
                break;
            }
        }
        self.now()
    }

    /// Spawn `fut`, run the simulation to quiescence, and return its output.
    ///
    /// Panics if the simulation quiesces before `fut` completes (a deadlock
    /// in the simulated system).
    pub fn block_on<F>(&self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let handle = self.spawn(fut);
        self.run();
        handle
            .try_take()
            .expect("simulation quiesced before block_on future completed (deadlock)")
    }

    /// `(heap entries, live timers)` of the timer pool.
    #[cfg(test)]
    fn timer_load(&self) -> (usize, usize) {
        let t = self.inner.timers.borrow();
        (t.heap.len(), t.heap.len() - t.dead)
    }

    /// Cooperatively yield: reschedule the current task behind all currently
    /// runnable tasks without advancing time.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Tear the simulation down: drop every pending task and timer.
    ///
    /// Long-lived server loops capture `Sim` clones inside futures that the
    /// executor owns — an intentional reference cycle while the
    /// simulation runs, but a leak once it is abandoned. Call this when a
    /// finished simulation goes out of scope (the workload `Testbed` does it
    /// on drop). Wakers and [`Sleep`]s that outlive the reset are inert.
    ///
    /// Panics if called from inside a running task: the caller's own future
    /// cannot be dropped while it is being polled.
    pub fn reset(&self) {
        let tasks = self.inner.tasks.borrow();
        let running = |t: &Rc<Task>| t.future.try_borrow_mut().is_err();
        assert!(
            !tasks.slots.iter().flatten().any(running),
            "Sim::reset() called from inside a running task"
        );
        drop(tasks);
        self.inner.teardown();
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
pub struct Sleep {
    /// `(sim, slot, registration seq)` of the pooled timer; `None` when the
    /// deadline had already passed.
    timer: Option<(Sim, u32, u64)>,
}

impl Future for Sleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let Some((sim, slot, seq)) = &self.timer else {
            return Poll::Ready(());
        };
        match sim.inner.timers.borrow_mut().slot(*slot, *seq) {
            Some(s) if s.fired => Poll::Ready(()),
            Some(s) => {
                match &mut s.waker {
                    Some(w) => w.clone_from(cx.waker()),
                    None => s.waker = Some(cx.waker().clone()),
                }
                Poll::Pending
            }
            None => Poll::Pending, // torn down by `reset`: never fires
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some((sim, slot, seq)) = &self.timer {
            sim.inner.timers.borrow_mut().release(*slot, *seq);
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    /// Stays set once the task has completed, whoever took `result`.
    done: bool,
    waker: Option<Waker>,
}

/// Awaitable handle to a spawned task's output.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Take the result if the task has completed.
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }

    /// Whether the task has completed (result may already be taken).
    pub fn is_finished(&self) -> bool {
        self.state.borrow().done
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        match st.result.take() {
            Some(v) => Poll::Ready(v),
            None => {
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::dur;
    use proptest::prelude::Strategy;
    use proptest::prop_oneof;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), Time::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.block_on(async move {
            s.sleep(dur::ms(250)).await;
            s.now()
        });
        assert_eq!(out, Time::from_millis(250));
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(Duration::ZERO).await;
            assert_eq!(s.now(), Time::ZERO);
        });
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, delay_ms) in [(0u32, 30u64), (1, 10), (2, 20)] {
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(dur::ms(delay_ms)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
        assert_eq!(sim.now(), Time::from_millis(30));
    }

    #[test]
    fn simultaneous_timers_fire_in_registration_order() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10u32 {
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(dur::ms(5)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_spawn_from_task() {
        let sim = Sim::new();
        let s = sim.clone();
        let result = sim.block_on(async move {
            let inner = s.clone();
            let h = s.spawn(async move {
                inner.sleep(dur::us(10)).await;
                42
            });
            h.await
        });
        assert_eq!(result, 42);
    }

    #[test]
    fn join_handle_resolves_to_output() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(dur::secs(1)).await;
            "done".to_owned()
        });
        sim.run();
        assert!(h.is_finished());
        assert_eq!(h.try_take().as_deref(), Some("done"));
    }

    #[test]
    fn detached_task_still_runs() {
        let sim = Sim::new();
        let flag = Rc::new(Cell::new(false));
        let f = Rc::clone(&flag);
        let s = sim.clone();
        drop(sim.spawn(async move {
            s.sleep(dur::ms(1)).await;
            f.set(true);
        }));
        sim.run();
        assert!(flag.get());
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let sim = Sim::new();
        let fired = Rc::new(Cell::new(false));
        let f = Rc::clone(&fired);
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(dur::secs(10)).await;
            f.set(true);
        });
        sim.run_until(Time::from_secs(5));
        assert!(!fired.get());
        assert!(sim.now() <= Time::from_secs(5));
        // resuming runs the rest
        sim.run();
        assert!(fired.get());
        assert_eq!(sim.now(), Time::from_secs(10));
    }

    #[test]
    fn yield_now_reschedules_fairly() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2u32 {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for step in 0..3u32 {
                    log.borrow_mut().push((i, step));
                    s.yield_now().await;
                }
            });
        }
        sim.run();
        // perfect interleave: tasks alternate at each yield
        assert_eq!(
            *log.borrow(),
            vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        );
    }

    #[test]
    fn dropped_sleep_cancels_timer() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            let long = s.sleep(dur::secs(100));
            drop(long);
            s.sleep(dur::ms(1)).await;
        });
        let end = sim.run();
        // the cancelled 100s timer must not drag the clock forward
        assert_eq!(end, Time::from_millis(1));
    }

    #[test]
    fn live_task_accounting() {
        let sim = Sim::new();
        assert_eq!(sim.live_tasks(), 0);
        let s = sim.clone();
        sim.spawn(async move { s.sleep(dur::ms(1)).await });
        assert_eq!(sim.live_tasks(), 1);
        sim.run();
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn block_on_deadlock_panics() {
        let sim = Sim::new();
        sim.block_on(std::future::pending::<()>());
    }

    #[test]
    fn heavy_timer_load_is_ordered() {
        let sim = Sim::new();
        let last = Rc::new(Cell::new(0u64));
        // registration order intentionally scrambled
        for i in (0..1000u64).rev() {
            let s = sim.clone();
            let last = Rc::clone(&last);
            sim.spawn(async move {
                s.sleep(dur::us(i)).await;
                let prev = last.get();
                assert!(s.now().as_nanos() >= prev);
                last.set(s.now().as_nanos());
            });
        }
        sim.run();
        assert_eq!(sim.now(), Time::from_micros(999));
    }

    #[test]
    fn is_finished_stays_true_once_the_result_is_taken() {
        let sim = Sim::new();
        let h = sim.spawn(async { 7u32 });
        assert!(!h.is_finished());
        sim.run();
        assert!(h.is_finished());
        assert_eq!(h.try_take(), Some(7));
        assert!(h.is_finished(), "completion is not undone by taking");
        assert_eq!(h.try_take(), None);
    }

    #[test]
    #[should_panic(expected = "Sim::reset() called from inside a running task")]
    fn reset_from_inside_a_task_panics() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move { s.reset() });
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        // the refused reset tore nothing down, and the task still holds a
        // `Sim`: break that cycle before re-raising (the miri job counts leaks)
        assert_eq!(sim.live_tasks(), 1);
        sim.reset();
        std::panic::resume_unwind(outcome.expect_err("reset inside a task returned"));
    }

    /// A future that parks its waker in `parked` and stays pending, holding
    /// `alive` so the test can see when it is dropped.
    fn park(parked: &Rc<RefCell<Option<Waker>>>, alive: &Rc<()>) -> impl Future<Output = ()> {
        let (parked, alive) = (Rc::clone(parked), Rc::clone(alive));
        std::future::poll_fn(move |cx| {
            let _held = &alive;
            *parked.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        })
    }

    #[test]
    fn waker_held_across_reset_is_inert() {
        let sim = Sim::new();
        let (parked, alive) = (Rc::new(RefCell::new(None)), Rc::new(()));
        sim.spawn(park(&parked, &alive));
        sim.run();
        assert_eq!((sim.events_processed(), sim.live_tasks()), (1, 1));
        sim.reset();
        assert_eq!(Rc::strong_count(&alive), 1, "reset drops the future");
        assert_eq!(sim.live_tasks(), 0);
        let waker = parked.borrow_mut().take().expect("parked");
        waker.wake_by_ref();
        let owned = waker.clone();
        owned.wake(); // by value: the vtable's other wake entry
        assert!(sim.inner.ready.borrow().is_empty(), "nothing is queued");
        sim.run();
        assert_eq!(sim.events_processed(), 1, "a dead task is never polled");
    }

    #[test]
    fn waker_of_a_finished_task_is_inert() {
        let sim = Sim::new();
        let (parked, alive) = (Rc::new(RefCell::new(None)), Rc::new(()));
        let mut parking = Box::pin(park(&parked, &alive));
        // parks on the first poll, finishes on the second
        let mut polls = 0;
        sim.spawn(std::future::poll_fn(move |cx| {
            polls += 1;
            if polls == 1 {
                parking.as_mut().poll(cx)
            } else {
                Poll::Ready(())
            }
        }));
        sim.run();
        let waker = parked.borrow_mut().take().expect("parked");
        // woken twice while alive: polled on the first handle, the second
        // handle is stale by then and skipped without counting
        waker.wake_by_ref();
        waker.wake_by_ref();
        sim.run();
        assert_eq!((sim.events_processed(), sim.live_tasks()), (2, 0));
        assert_eq!(Rc::strong_count(&alive), 1, "finishing drops the future");
        waker.wake();
        assert!(sim.inner.ready.borrow().is_empty(), "nothing is queued");
        sim.run();
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn sleep_held_across_reset_never_fires() {
        let sim = Sim::new();
        let stale = sim.sleep(dur::ms(1));
        sim.reset();
        let fired = Rc::new(Cell::new(false));
        let f = Rc::clone(&fired);
        let s = sim.clone();
        sim.spawn(async move {
            // takes over the stale sleep's pool slot under a new registration
            let _fresh = s.sleep(dur::ms(5));
            stale.await;
            f.set(true);
        });
        sim.run();
        // the new registration fired; the stale sleep did not take it for its own
        assert_eq!(sim.now(), Time::from_millis(5));
        assert!(!fired.get());
        sim.reset();
    }

    #[test]
    fn dropping_the_last_sim_drops_queued_tasks() {
        let alive = Rc::new(());
        let sim = Sim::new();
        let held = Rc::clone(&alive);
        sim.spawn(async move { drop(held) });
        drop(sim); // never run: the task's handle is still in the ready queue
        assert_eq!(Rc::strong_count(&alive), 1);
    }

    #[test]
    fn cancelled_timers_are_compacted_without_reordering() {
        let sim = Sim::new();
        let rng = crate::rng::SimRng::seed_from(7);
        // 10 k registrations over 500 distinct deadlines: heavy collisions
        let mut sleeps: Vec<Option<(u64, Sleep)>> = (0..10_000)
            .map(|_| {
                let us = rng.range(1, 501);
                Some((us, sim.sleep(dur::us(us))))
            })
            .collect();
        let bounded = |sim: &Sim| {
            let (heap, live) = sim.timer_load();
            assert!(heap <= 2 * live + 256, "heap {heap} for {live} live timers");
        };
        // drop a random 70 %, in random order
        let mut order: Vec<usize> = (0..sleeps.len()).collect();
        rng.shuffle(&mut order);
        for &i in &order[..7_000] {
            sleeps[i] = None;
            bounded(&sim);
        }
        assert_eq!(sim.timer_load().1, 3_000);
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut expect = Vec::new();
        for (reg, slot) in sleeps.into_iter().enumerate() {
            let Some((us, sleep)) = slot else { continue };
            expect.push((us, reg));
            let (fired, s) = (Rc::clone(&fired), sim.clone());
            sim.spawn(async move {
                sleep.await;
                assert_eq!(s.now(), Time::from_micros(us));
                fired.borrow_mut().push((us, reg));
                bounded(&s);
            });
        }
        sim.run();
        expect.sort_unstable();
        assert_eq!(*fired.borrow(), expect);
        assert_eq!(sim.timer_load(), (0, 0));
    }

    /// One step of the timer-queue property.
    #[derive(Clone, Debug)]
    enum TimerOp {
        /// A timer `1 + .0` ns from now: any order against the queued.
        Short(u64),
        /// A timer past every long one so far, ≥ 1 ms out: deadlines
        /// registered in order and nearly all cancelled, as each KV
        /// attempt's.
        Long(u64),
        /// `.1` timers `1 + .0` ns from now.
        Burst(u64, usize),
        /// Drop the `.0 % n`-th of the `n` unreleased timers.
        Cancel(usize),
        /// Drop all unreleased timers but every `.0`-th: enough dead
        /// entries at once to rebuild the heap.
        Thin(usize),
        /// Pop every entry due within `.0` ns from now.
        Advance(u64),
    }

    fn timer_op() -> impl Strategy<Value = TimerOp> {
        // coarse grids, so deadlines collide
        let ns = || (0u64..8).prop_map(|k| k * 100);
        prop_oneof![
            ns().prop_map(TimerOp::Short),
            ns().prop_map(TimerOp::Long),
            (ns(), 0usize..300).prop_map(|(d, n)| TimerOp::Burst(d, n)),
            (0usize..64).prop_map(TimerOp::Cancel),
            (0usize..64).prop_map(TimerOp::Cancel),
            (2usize..8).prop_map(TimerOp::Thin),
            (0u64..16).prop_map(|k| TimerOp::Advance(k * 100)),
        ]
    }

    /// A registration's `(deadline, seq)`, the reference's key.
    type Key = (Time, u64);

    /// Pop everything due by `horizon` from both, one entry at a time;
    /// returns the last deadline popped.
    fn advance(t: &mut Timers, reference: &mut BTreeMap<Key, u32>, horizon: Time) -> Time {
        let mut now = Time::ZERO;
        loop {
            let expect = reference.first_key_value().map(|(&k, &slot)| (k, slot));
            let expect = expect.filter(|&((deadline, _), _)| deadline <= horizon);
            let ((deadline, _), slot) = match (expect, t.pop_due(horizon)) {
                (None, None) => return now,
                (Some(e), Some((at, _))) => {
                    assert_eq!(at, e.0 .0);
                    e
                }
                (e, g) => panic!("reference {e:?}, timers {:?}", g.map(|(at, _)| at)),
            };
            reference.pop_first();
            assert!(deadline >= now, "time went backwards");
            now = deadline;
            assert!(t.slots[slot as usize].fired, "another timer fired");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(miri) { 8 } else { 256 }
        ))]

        /// The heap, its dead entries and its compaction pop exactly the
        /// order of a sorted set of `(deadline, seq)`, and the heap stays
        /// within 2 × live + `COMPACT_FLOOR` entries.
        #[test]
        fn timers_pop_in_reference_order(
            ops in proptest::collection::vec(timer_op(), 1..200),
        ) {
            let mut t = Timers::default();
            // the live registrations' keys, to their slots
            let mut reference = BTreeMap::new();
            // `(slot, key)` per registration, `None` once released
            let mut handles: Vec<Option<(u32, Key)>> = Vec::new();
            let (mut now, mut last_long) = (Time::ZERO, Time::ZERO);
            for op in ops {
                let open = |handles: &[Option<(u32, Key)>]| -> Vec<usize> {
                    (0..handles.len()).filter(|&h| handles[h].is_some()).collect()
                };
                let mut drop_timer = |h: usize, handles: &mut [Option<(u32, Key)>]| {
                    let (slot, key) = handles[h].take().unwrap();
                    t.release(slot, key.1);
                    reference.remove(&key); // absent once it fired
                };
                let (deadline, n) = match op {
                    TimerOp::Short(d) => (now + dur::ns(1 + d), 1),
                    TimerOp::Long(d) => {
                        last_long = last_long.max(now + dur::ms(1)) + dur::ns(d);
                        (last_long, 1)
                    }
                    TimerOp::Burst(d, n) => (now + dur::ns(1 + d), n),
                    TimerOp::Cancel(i) => {
                        let open = open(&handles);
                        if let Some(&h) = open.get(i % open.len().max(1)) {
                            drop_timer(h, &mut handles);
                        }
                        (now, 0)
                    }
                    TimerOp::Thin(k) => {
                        for (i, h) in open(&handles).into_iter().enumerate() {
                            if i % k != 0 {
                                drop_timer(h, &mut handles);
                            }
                        }
                        (now, 0)
                    }
                    TimerOp::Advance(d) => {
                        now = now.max(advance(&mut t, &mut reference, now + dur::ns(d)));
                        (now, 0)
                    }
                };
                for _ in 0..n {
                    let seq = handles.len() as u64;
                    let slot = t.register(deadline, seq);
                    reference.insert((deadline, seq), slot);
                    handles.push(Some((slot, (deadline, seq))));
                }
                proptest::prop_assert_eq!(t.heap.len() - t.dead, reference.len());
                proptest::prop_assert!(t.heap.len() <= 2 * reference.len() + COMPACT_FLOOR);
            }
            advance(&mut t, &mut reference, Time::MAX);
            proptest::prop_assert!(reference.is_empty());
            proptest::prop_assert!(t.heap.is_empty());
            proptest::prop_assert_eq!(t.dead, 0);
        }
    }
}
