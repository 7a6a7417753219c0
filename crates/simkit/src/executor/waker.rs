//! The task header and the [`Waker`] built over it — the only `unsafe`
//! code of the executor.
//!
//! A task is one `Rc<Task>`; its waker is that same `Rc` behind a
//! hand-written [`RawWaker`] vtable, so `Waker::clone` is a non-atomic
//! count increment, `wake` appends the handle to the ready queue, and a
//! poll borrows the handle it popped instead of allocating a waker.
//!
//! # Safety argument
//!
//! `Waker` is `Send + Sync` by its type; `Rc` is neither. The vtable below
//! is sound only while every clone, wake and drop of a task's waker happens
//! on the thread that owns the simulation, and that is what the executor's
//! shape provides: [`Sim`](super::Sim) holds an `Rc` and is `!Send`, spawned
//! futures need not be `Send` and are polled on that thread only, and a
//! `Waker` is handed to nothing but those polls. The primitives that park
//! wakers (`Sleep`, `JoinHandle`, [`crate::sync`], [`crate::resource`]) keep
//! them in `Rc<RefCell<..>>` state that cannot leave the thread either. A
//! task that ships its waker to another thread on purpose breaks this
//! contract; debug builds assert the owner thread in `clone` and `wake`.
//!
//! Every `RawWaker` carrying [`VTABLE`] holds the `Rc::as_ptr` pointer of a
//! live `Rc<Task>` and owns exactly one strong count of it — except the one
//! [`Task::with_waker`] lends to a poll, which owns none and is never
//! dropped (`ManuallyDrop`) while the `&Rc<Task>` it was made from is
//! borrowed.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{RawWaker, RawWakerVTable, Waker};

pub(super) type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// FIFO of runnable task handles. A task woken twice is queued twice.
pub(super) type ReadyQueue = RefCell<VecDeque<Rc<Task>>>;

/// One spawned task: its future plus what its waker needs.
pub(super) struct Task {
    /// The task's future: mutably borrowed while it is polled, `None` once
    /// it has finished or the simulation was reset.
    pub(super) future: RefCell<Option<LocalFuture>>,
    /// Index of the owning entry in the executor's task slab.
    pub(super) slot: usize,
    ready: Rc<ReadyQueue>,
    #[cfg(debug_assertions)]
    owner: std::thread::ThreadId,
}

impl Task {
    pub(super) fn new(future: LocalFuture, slot: usize, ready: &Rc<ReadyQueue>) -> Rc<Task> {
        Rc::new(Task {
            future: RefCell::new(Some(future)),
            slot,
            ready: Rc::clone(ready),
            #[cfg(debug_assertions)]
            owner: std::thread::current().id(),
        })
    }

    /// Append a handle to the ready queue. A task whose future is gone
    /// (finished, or torn down by `reset`) is dead: waking it does nothing,
    /// so a waker parked in a channel cannot revive or retain anything.
    pub(super) fn enqueue(this: &Rc<Task>) {
        this.assert_owner_thread();
        // a future that is mutably borrowed is mid-poll, hence alive
        let dead = matches!(this.future.try_borrow(), Ok(f) if f.is_none());
        if !dead {
            this.ready.borrow_mut().push_back(Rc::clone(this));
        }
    }

    /// Run `f` with a waker for this task that borrows `this` instead of
    /// owning a count: building and dropping it touch no reference count.
    pub(super) fn with_waker<R>(this: &Rc<Task>, f: impl FnOnce(&Waker) -> R) -> R {
        // SAFETY: the pointer is `Rc::as_ptr` of a live `Rc<Task>`, as VTABLE's
        // functions require. This waker owns no strong count, so it must
        // never be dropped (`ManuallyDrop`) and must not outlive `this`: `f`
        // receives it by a reference it cannot keep, and clones made from it
        // take a count of their own.
        let waker = ManuallyDrop::new(unsafe { Waker::from_raw(raw_waker(Rc::as_ptr(this))) });
        f(&waker)
    }

    #[inline]
    fn assert_owner_thread(&self) {
        #[cfg(debug_assertions)]
        assert_eq!(
            std::thread::current().id(),
            self.owner,
            "simkit waker used off the thread that owns its Sim"
        );
    }
}

fn raw_waker(task: *const Task) -> RawWaker {
    RawWaker::new(task.cast(), &VTABLE)
}

static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, wake, wake_by_ref, drop_waker);

/// # Safety
/// `ptr` is the `Rc::as_ptr` of a live `Rc<Task>` on the current thread.
unsafe fn clone(ptr: *const ()) -> RawWaker {
    let task: *const Task = ptr.cast();
    // SAFETY: per the contract `task` points into a live `Rc<Task>` owned by
    // this thread, so reading it and bumping its non-atomic count are sound;
    // the new count belongs to the returned waker.
    unsafe {
        (*task).assert_owner_thread();
        Rc::increment_strong_count(task);
    }
    raw_waker(task)
}

/// # Safety
/// As [`clone`], and the waker being consumed owns one strong count.
unsafe fn wake(ptr: *const ()) {
    // SAFETY: takes over the consumed waker's strong count; dropping `task`
    // at the end of the call releases it.
    let task = unsafe { Rc::from_raw(ptr.cast::<Task>()) };
    Task::enqueue(&task);
}

/// # Safety
/// As [`clone`].
unsafe fn wake_by_ref(ptr: *const ()) {
    // SAFETY: the waker keeps its strong count, so the `Rc` rebuilt here is
    // a borrow and must not be dropped.
    let task = ManuallyDrop::new(unsafe { Rc::from_raw(ptr.cast::<Task>()) });
    Task::enqueue(&task);
}

/// # Safety
/// As [`wake`].
unsafe fn drop_waker(ptr: *const ()) {
    // SAFETY: releases the strong count the dropped waker owned.
    drop(unsafe { Rc::from_raw(ptr.cast::<Task>()) });
}
