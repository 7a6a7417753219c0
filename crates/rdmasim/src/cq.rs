//! Batched completion-queue draining (io_uring idiom).
//!
//! A [`Cq`] is a submit/complete ring shared by a QP group: producers
//! [`Cq::post`] completion entries as they arrive, and a single consumer
//! [`Cq::drain`]s up to `max` entries per poll. Draining in batches
//! amortizes the per-completion wakeup/poll cost the same way io_uring's
//! `io_uring_peek_batch_cqe` does; the achieved batch sizes are recorded
//! in the `rdma.cq.batch_size` histogram so a metrics snapshot alone shows
//! how much batching a workload actually got.

use std::cell::RefCell;
use std::rc::Rc;

use simkit::sync::mpsc;
use simkit::telemetry::{Counter, HistogramMetric};
use simkit::Sim;

/// A completion ring: unbounded submit side, batched drain side.
///
/// Generic over the completion payload `T` so the server layer can carry
/// whatever per-completion context it needs (connection id, sequence
/// number, received frame).
pub struct Cq<T> {
    tx: mpsc::Sender<T>,
    rx: RefCell<mpsc::Receiver<T>>,
    batch_hist: HistogramMetric,
    polls: Counter,
    completions: Counter,
}

impl<T> Cq<T> {
    /// Create a ring on `sim`, registering the `rdma.cq.*` metrics
    /// (shared names — multiple rings on one sim aggregate).
    pub fn new(sim: &Sim) -> Rc<Cq<T>> {
        let (tx, rx) = mpsc::unbounded();
        let m = sim.metrics();
        Rc::new(Cq {
            tx,
            rx: RefCell::new(rx),
            batch_hist: m.histogram("rdma.cq.batch_size"),
            polls: m.counter("rdma.cq.polls"),
            completions: m.counter("rdma.cq.completions"),
        })
    }

    /// Post one completion entry. Never blocks (the ring is unbounded;
    /// flow control belongs to the QP `recv_depth`, not the CQ).
    pub fn post(&self, entry: T) {
        // the receiver lives as long as the ring itself, so this cannot fail
        let _ = self.tx.try_send(entry);
    }

    /// Wait until at least one completion is pending, then take up to
    /// `max` of them in arrival order into `batch`, cleared first, so a
    /// poller reuses one allocation for every batch. Records the achieved
    /// batch size. Leaves `batch` empty only if the ring is closed.
    ///
    /// Single consumer by construction (one poller per ring, and the sim
    /// is single-threaded), so holding the receiver borrow across the
    /// await cannot be contended; a second concurrent drainer would be a
    /// bug and panics deterministically.
    #[allow(clippy::await_holding_refcell_ref)]
    pub async fn drain(&self, max: usize, batch: &mut Vec<T>) {
        batch.clear();
        let mut rx = self.rx.borrow_mut();
        let Ok(first) = rx.recv().await else {
            return;
        };
        let max = max.max(1);
        batch.push(first);
        while batch.len() < max {
            match rx.try_recv() {
                Some(entry) => batch.push(entry),
                None => break,
            }
        }
        self.polls.inc();
        self.completions.add(batch.len() as u64);
        self.batch_hist.record_ns(batch.len() as u64);
    }

    /// Entries currently queued (diagnostic).
    pub fn len(&self) -> usize {
        self.tx.len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_batches_up_to_max() {
        let sim = Sim::new();
        let cq: Rc<Cq<u32>> = Cq::new(&sim);
        for i in 0..10 {
            cq.post(i);
        }
        let batches = sim.block_on({
            let cq = Rc::clone(&cq);
            async move {
                // one vec for every batch, cleared by each drain
                let mut batch = vec![99];
                cq.drain(4, &mut batch).await;
                let first = batch.clone();
                cq.drain(4, &mut batch).await;
                (first, batch)
            }
        });
        assert_eq!(batches, (vec![0, 1, 2, 3], vec![4, 5, 6, 7]));
        assert_eq!(cq.len(), 2);
        let snap = sim.metrics().snapshot();
        assert_eq!(snap.counter("rdma.cq.polls"), 2);
        assert_eq!(snap.counter("rdma.cq.completions"), 8);
    }

    #[test]
    fn drain_waits_for_first_entry() {
        let sim = Sim::new();
        let cq: Rc<Cq<u32>> = Cq::new(&sim);
        let got = {
            let cq2 = Rc::clone(&cq);
            sim.spawn(async move {
                let mut batch = Vec::new();
                cq2.drain(8, &mut batch).await;
                batch
            })
        };
        sim.spawn({
            let sim2 = sim.clone();
            let cq = Rc::clone(&cq);
            async move {
                sim2.sleep(simkit::dur::us(5)).await;
                cq.post(42);
            }
        });
        let batch = sim.block_on(got);
        assert_eq!(batch, vec![42]);
    }
}
