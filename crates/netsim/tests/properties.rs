//! Property test of the fabric's booked NIC legs: every transfer ends at
//! the instant the spawn-based transfer it replaced ended.

use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use netsim::{Fabric, NetConfig, NodeId, TransportProfile};
use simkit::sync::semaphore::Semaphore;
use simkit::{dur, Sim};

const NODES: u32 = 4;

/// One transfer: `(src, dst offset, ipoib?, bytes, start slot, jitter ns)`.
type Job = (u32, u32, bool, u64, u64, u64);

fn profile(ipoib: bool) -> TransportProfile {
    if ipoib {
        TransportProfile::ipoib_qdr()
    } else {
        TransportProfile::verbs_qdr()
    }
}

/// A NIC queue as it was before it booked time: a one-permit FIFO gate
/// held for the service time.
struct QueuedNic {
    sim: Sim,
    gate: Semaphore,
}

impl QueuedNic {
    async fn serve_for(&self, d: Duration) {
        let _permit = self.gate.acquire().await;
        self.sim.sleep(d).await;
    }
}

/// `Fabric::transfer` as it was before it booked NIC time: a spawned RX
/// task waits out the latency and queues on the receiver while the caller
/// queues on the sender; the transfer ends when both legs have.
async fn spawned_transfer(
    sim: Sim,
    tx: Rc<QueuedNic>,
    rx: Rc<QueuedNic>,
    bytes: u64,
    p: TransportProfile,
) {
    let ser = dur::transfer(bytes, p.bandwidth.min(NetConfig::default().nic_bandwidth));
    let rx_task = {
        let sim = sim.clone();
        sim.clone().spawn(async move {
            sim.sleep(p.latency).await;
            rx.serve_for(ser).await;
        })
    };
    tx.serve_for(p.per_msg_overhead + ser).await;
    rx_task.await;
}

/// Start every job at its slot (2 µs grid) plus jitter, run to quiescence,
/// and return each transfer's end instant in ns.
fn ends(jobs: &[Job], spawned: bool) -> Vec<u64> {
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), NODES as usize, NetConfig::default());
    let nic = || {
        Rc::new(QueuedNic {
            sim: sim.clone(),
            gate: Semaphore::new(1),
        })
    };
    let tx: Vec<_> = (0..NODES).map(|_| nic()).collect();
    let rx: Vec<_> = (0..NODES).map(|_| nic()).collect();
    let out = Rc::new(RefCell::new(vec![0; jobs.len()]));
    for (i, &(src, off, ipoib, bytes, slot, jitter)) in jobs.iter().enumerate() {
        let dst = (src + 1 + off) % NODES;
        let (s, f, out) = (sim.clone(), Rc::clone(&fabric), Rc::clone(&out));
        let (tx, rx) = (Rc::clone(&tx[src as usize]), Rc::clone(&rx[dst as usize]));
        sim.spawn(async move {
            s.sleep(dur::ns(slot * 2_000 + jitter)).await;
            if spawned {
                spawned_transfer(s.clone(), tx, rx, bytes, profile(ipoib)).await;
            } else {
                f.transfer(NodeId(src), NodeId(dst), bytes, &profile(ipoib))
                    .await
                    .unwrap();
            }
            out.borrow_mut()[i] = s.now().as_nanos();
        });
    }
    sim.run();
    sim.reset();
    let ends = out.borrow().clone();
    ends
}

fn job() -> impl Strategy<Value = Job> {
    let bytes = prop_oneof![0u64..=4_096, 0u64..=1 << 20];
    (
        0..NODES,
        0..NODES - 1,
        any::<bool>(),
        bytes,
        0u64..40,
        0u64..3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Booking TX at the call and RX at arrival ends every transfer when
    /// the spawned RX leg did: same TX and RX queues, same order.
    #[test]
    fn booked_transfer_matches_the_spawned_reference(
        jobs in proptest::collection::vec(job(), 1..40),
    ) {
        prop_assert_eq!(ends(&jobs, false), ends(&jobs, true));
    }
}
