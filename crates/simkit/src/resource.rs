//! Queueing resources: the building block for device and link models.
//!
//! [`FifoServer`] is a single-server FIFO queue with a per-operation
//! overhead — it models a disk spindle, an OST, a NIC TX or RX engine.
//! Operations are served in call order, so an operation's start and end
//! are known the moment it is called: the server *books* the time
//! ([`FifoServer::reserve`]) instead of queueing a task for it, and the
//! caller sleeps to the booked end. Contention emerges naturally:
//! concurrent callers book back to back and time accumulates.

use std::cell::Cell;
use std::time::Duration;

use crate::executor::{Sim, Sleep};
use crate::time::Time;

/// Utilization and queueing statistics for a [`FifoServer`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    /// Operations booked.
    pub ops: u64,
    /// Total busy time (service, excluding queueing).
    pub busy: Duration,
    /// Total time operations waited behind earlier ones before service.
    pub queued: Duration,
}

impl ServerStats {
    /// Busy fraction over `elapsed` (0..=1).
    pub fn utilization(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            (self.busy.as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
        }
    }
}

/// Single-server FIFO resource, served in call order.
///
/// A booking stands once made: a caller that stops waiting (its future
/// dropped, e.g. by a timeout) still occupies the server until the end it
/// booked, and later callers start after it.
pub struct FifoServer {
    sim: Sim,
    per_op_overhead: Duration,
    /// When the last booked operation ends.
    free_at: Cell<Time>,
    ops: Cell<u64>,
    busy_ns: Cell<u64>,
    queued_ns: Cell<u64>,
}

impl FifoServer {
    /// A server that charges `per_op_overhead` on top of each operation's
    /// own service time.
    pub fn new(sim: Sim, per_op_overhead: Duration) -> Self {
        FifoServer {
            sim,
            per_op_overhead,
            free_at: Cell::new(Time::ZERO),
            ops: Cell::new(0),
            busy_ns: Cell::new(0),
            queued_ns: Cell::new(0),
        }
    }

    /// Book an operation of service time `d` (plus the per-op overhead)
    /// behind every operation booked before it, and return the instant it
    /// ends: it starts at `max(now, end of the previous booking)`.
    pub fn reserve(&self, d: Duration) -> Time {
        let now = self.sim.now();
        let start = self.free_at.get().max(now);
        let service = self.per_op_overhead + d;
        let end = start + service;
        self.free_at.set(end);
        self.ops.set(self.ops.get() + 1);
        self.busy_ns
            .set(self.busy_ns.get() + service.as_nanos() as u64);
        self.queued_ns
            .set(self.queued_ns.get() + (start - now).as_nanos() as u64);
        end
    }

    /// Book an operation of service time `d` now ([`reserve`](Self::reserve))
    /// and sleep until it ends.
    pub fn serve_for(&self, d: Duration) -> Sleep {
        self.sim.sleep_until(self.reserve(d))
    }

    /// Snapshot of accumulated statistics.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            ops: self.ops.get(),
            busy: Duration::from_nanos(self.busy_ns.get()),
            queued: Duration::from_nanos(self.queued_ns.get()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::dur;
    use std::rc::Rc;

    #[test]
    fn serial_requests_accumulate() {
        let sim = Sim::new();
        let srv = Rc::new(FifoServer::new(sim.clone(), Duration::ZERO));
        let s = sim.clone();
        let srv2 = Rc::clone(&srv);
        let t = sim.block_on(async move {
            srv2.serve_for(dur::secs(1)).await;
            srv2.serve_for(dur::ms(500)).await;
            s.now()
        });
        assert_eq!(t, Time::from_millis(1_500));
        let st = srv.stats();
        assert_eq!(st.ops, 2);
        assert_eq!(st.queued, Duration::ZERO);
    }

    #[test]
    fn concurrent_requests_queue_fifo() {
        let sim = Sim::new();
        let srv = Rc::new(FifoServer::new(sim.clone(), Duration::ZERO));
        let done = Rc::new(std::cell::RefCell::new(Vec::new()));
        for i in 0..3u64 {
            let srv = Rc::clone(&srv);
            let s = sim.clone();
            let done = Rc::clone(&done);
            sim.spawn(async move {
                srv.serve_for(dur::secs(1)).await;
                done.borrow_mut().push((i, s.now()));
            });
        }
        sim.run();
        let d = done.borrow();
        assert_eq!(d.len(), 3);
        for &(i, t) in d.iter() {
            assert_eq!(t, Time::from_secs(i + 1), "op {i} finished at {t}");
        }
        // 2 of 3 ops queued behind the first: total queueing 1s + 2s
        let st = srv.stats();
        assert_eq!(st.queued, dur::secs(3));
        assert!((st.utilization(dur::secs(3)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_op_overhead_charged() {
        let sim = Sim::new();
        let srv = FifoServer::new(sim.clone(), dur::ms(8)); // seek-like
        let s = sim.clone();
        let t = sim.block_on(async move {
            srv.serve_for(Duration::ZERO).await;
            srv.serve_for(Duration::ZERO).await;
            s.now()
        });
        assert_eq!(t, Time::from_millis(16));
    }

    #[test]
    fn serve_for_explicit_duration() {
        let sim = Sim::new();
        let srv = FifoServer::new(sim.clone(), Duration::ZERO);
        let s = sim.clone();
        let t = sim.block_on(async move {
            srv.serve_for(dur::ms(123)).await;
            s.now()
        });
        assert_eq!(t, Time::from_millis(123));
    }

    #[test]
    fn reserve_books_without_waiting() {
        let sim = Sim::new();
        let srv = FifoServer::new(sim.clone(), Duration::ZERO);
        assert_eq!(srv.reserve(dur::ms(3)), Time::from_millis(3));
        assert_eq!(srv.reserve(dur::ms(2)), Time::from_millis(5));
        // an idle gap is not carried: after the booked end, ops start at
        // their own call instant
        let s = sim.clone();
        let end = sim.block_on(async move {
            s.sleep(dur::ms(10)).await;
            srv.reserve(dur::ms(1))
        });
        assert_eq!(end, Time::from_millis(11));
    }
}
