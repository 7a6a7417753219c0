//! Reliable-connected queue pairs: two-sided SEND/RECV with receive-queue
//! backpressure, and one-sided RDMA READ/WRITE against [`RemoteBuf`]s.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use simkit::sync::mpsc;
use simkit::OpId;

use netsim::NodeId;

use crate::frame::Frame;
use crate::mr::RemoteBuf;
use crate::stack::{RdmaError, RdmaStack};

/// Queue-pair parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpConfig {
    /// Receive-queue depth: SENDs beyond this block (RNR backpressure).
    pub recv_depth: usize,
}

impl Default for QpConfig {
    fn default() -> Self {
        QpConfig { recv_depth: 128 }
    }
}

pub(crate) struct QpShared {
    id: u64,
    connected: Cell<bool>,
}

impl QpShared {
    pub(crate) fn new(id: u64) -> Self {
        QpShared {
            id,
            connected: Cell::new(true),
        }
    }
}

/// Payload carried per SEND: the wire bytes plus an out-of-band traced-op
/// tag. The tag is simulator metadata — it occupies no wire bytes and
/// never influences transfer cost, so tagged and untagged runs are
/// byte- and timing-identical.
pub(crate) type SendPayload = (Frame, Option<OpId>);

/// One endpoint of a reliable-connected queue pair.
pub struct Qp {
    stack: Rc<RdmaStack>,
    shared: Rc<QpShared>,
    local: NodeId,
    remote: NodeId,
    tx: mpsc::Sender<SendPayload>,
    rx: RefCell<mpsc::Receiver<SendPayload>>,
}

impl Qp {
    pub(crate) fn new(
        stack: Rc<RdmaStack>,
        shared: Rc<QpShared>,
        local: NodeId,
        remote: NodeId,
        tx: mpsc::Sender<SendPayload>,
        rx: RefCell<mpsc::Receiver<SendPayload>>,
    ) -> Qp {
        Qp {
            stack,
            shared,
            local,
            remote,
            tx,
            rx,
        }
    }

    /// Node this endpoint lives on.
    pub fn local(&self) -> NodeId {
        self.local
    }

    /// Peer node.
    pub fn remote(&self) -> NodeId {
        self.remote
    }

    /// Whether the connection is still established.
    pub fn is_connected(&self) -> bool {
        self.shared.connected.get() && self.tx.is_open()
    }

    /// Tear the connection down; the peer's pending/subsequent operations
    /// fail with [`RdmaError::Disconnected`].
    pub fn disconnect(&self) {
        self.shared.connected.set(false);
    }

    fn check_connected(&self) -> Result<(), RdmaError> {
        if self.is_connected() {
            Ok(())
        } else {
            Err(RdmaError::Disconnected)
        }
    }

    /// Apply any active in-transit corruption rule for the `src → dst`
    /// payload: one draw over its whole length, and one byte flipped when
    /// the injector fires (only the element holding it is copied); the
    /// payload is untouched (and uncopied) otherwise.
    fn corrupted(&self, src: NodeId, dst: NodeId, mut data: Frame) -> Frame {
        let sim = self.stack.sim();
        if let Some((offset, mask)) = sim
            .faults()
            .corrupt_transfer(src.0, dst.0, data.len() as u64)
        {
            sim.metrics().counter("rdma.corrupted").inc();
            data.flip(offset as usize, mask);
        }
        data
    }

    /// Two-sided SEND: transfers `data` and consumes one of the peer's
    /// receive slots. Blocks while the peer's receive queue is full.
    pub async fn send(&self, data: Bytes) -> Result<(), RdmaError> {
        self.send_tagged(data, None).await
    }

    /// [`Qp::send`] of a gather list (or one buffer) carrying a traced-op
    /// tag alongside the payload. The fabric charges the summed length.
    /// The tag rides out-of-band (no wire bytes, no timing impact) and
    /// comes back out of the peer's [`Qp::recv_tagged`].
    ///
    /// One async body serves every payload shape: converting at the call,
    /// rather than wrapping this in a second async fn, keeps each in-flight
    /// send one future deep.
    pub async fn send_tagged(
        &self,
        data: impl Into<Frame>,
        op: Option<OpId>,
    ) -> Result<(), RdmaError> {
        let data = data.into();
        self.check_connected()?;
        let _sp = self
            .stack
            .sim()
            .span("qp.send", "rdma", self.local.0, self.shared.id);
        self.stack.counters.send_posts.inc();
        self.stack.counters.send_bytes.add(data.len() as u64);
        self.stack
            .fabric()
            .transfer(
                self.local,
                self.remote,
                data.len() as u64,
                self.stack.profile(),
            )
            .await?;
        let data = self.corrupted(self.local, self.remote, data);
        self.tx
            .send((data, op))
            .await
            .map_err(|_| RdmaError::Disconnected)
    }

    /// Pop the next incoming SEND payload as one contiguous buffer,
    /// waiting if none is queued (a gather list is joined by copy).
    pub async fn recv(&self) -> Result<Bytes, RdmaError> {
        self.recv_tagged().await.map(|(data, _)| data.concat())
    }

    /// [`Qp::recv`] as the sender posted it — a gather list stays one —
    /// with the sender's traced-op tag (`None` for untagged sends).
    // single-threaded sim: the mailbox is only ever polled by this QP's
    // owner, so holding the borrow across the await cannot contend
    #[allow(clippy::await_holding_refcell_ref)]
    pub async fn recv_tagged(&self) -> Result<(Frame, Option<OpId>), RdmaError> {
        let mut rx = self.rx.borrow_mut();
        let fut = rx.recv();
        let out = fut.await.map_err(|_| RdmaError::Disconnected);
        if out.is_ok() {
            self.stack.counters.recv_completions.inc();
        }
        out
    }

    /// One-sided RDMA WRITE of `data` into `dst` at `offset`: wire time plus
    /// a DMA copy, no remote CPU involvement. (The DMA is the model's: on
    /// the host the region keeps the `data` handle.)
    pub async fn write(&self, dst: &RemoteBuf, offset: u64, data: Bytes) -> Result<(), RdmaError> {
        self.check_connected()?;
        let end = offset + data.len() as u64;
        if end > dst.len {
            return Err(RdmaError::OutOfBounds { end, len: dst.len });
        }
        let _sp = self
            .stack
            .sim()
            .span("qp.write", "rdma", self.local.0, self.shared.id);
        self.stack.counters.write_posts.inc();
        self.stack.counters.write_bytes.add(data.len() as u64);
        self.stack
            .fabric()
            .transfer(
                self.local,
                dst.node,
                data.len() as u64,
                self.stack.profile(),
            )
            .await?;
        let data = self.corrupted(self.local, dst.node, data.into());
        self.stack
            .lookup(dst.node, dst.rkey)?
            .put(offset, data.concat())
    }

    /// One-sided RDMA READ of `len` bytes from `src` at `offset`.
    pub async fn read(&self, src: &RemoteBuf, offset: u64, len: u64) -> Result<Bytes, RdmaError> {
        self.check_connected()?;
        let end = offset + len;
        if end > src.len {
            return Err(RdmaError::OutOfBounds { end, len: src.len });
        }
        let _sp = self
            .stack
            .sim()
            .span("qp.read", "rdma", self.local.0, self.shared.id);
        self.stack.counters.read_posts.inc();
        self.stack.counters.read_bytes.add(len);
        // read request: a doorbell-sized message to the remote NIC
        self.stack
            .fabric()
            .transfer(self.local, src.node, 16, self.stack.profile())
            .await?;
        // response: the payload streaming back
        self.stack
            .fabric()
            .transfer(src.node, self.local, len, self.stack.profile())
            .await?;
        let data = self.stack.lookup(src.node, src.rkey)?.view(offset, len)?;
        Ok(self.corrupted(src.node, self.local, data.into()).concat())
    }
}

impl Drop for Qp {
    fn drop(&mut self) {
        self.shared.connected.set(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Fabric, NetConfig, NetError};
    use simkit::{dur, Sim};

    fn setup(n: usize) -> (Sim, Rc<Fabric>, Rc<RdmaStack>) {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), n, NetConfig::default());
        let stack = RdmaStack::new(Rc::clone(&fabric));
        (sim, fabric, stack)
    }

    #[test]
    fn send_recv_roundtrip() {
        let (sim, _f, stack) = setup(2);
        let st = Rc::clone(&stack);
        let got = sim.block_on(async move {
            let (qa, qb) = st
                .connect(NodeId(0), NodeId(1), QpConfig::default())
                .await
                .unwrap();
            let s = st.sim().clone();
            let h = s.spawn(async move { qb.recv().await.unwrap() });
            qa.send(Bytes::from_static(b"ping")).await.unwrap();
            h.await
        });
        assert_eq!(&got[..], b"ping");
    }

    #[test]
    fn rdma_write_lands_in_remote_region() {
        let (sim, _f, stack) = setup(2);
        let st = Rc::clone(&stack);
        sim.block_on(async move {
            let mr = st.register(NodeId(1), 4096).await;
            let (qa, _qb) = st
                .connect(NodeId(0), NodeId(1), QpConfig::default())
                .await
                .unwrap();
            qa.write(&mr.remote(), 100, Bytes::from_static(b"payload"))
                .await
                .unwrap();
            let back = mr.read_local(100, 7).unwrap();
            assert_eq!(&back[..], b"payload");
        });
    }

    #[test]
    fn rdma_read_pulls_remote_bytes() {
        let (sim, _f, stack) = setup(2);
        let st = Rc::clone(&stack);
        sim.block_on(async move {
            let mr = st.register(NodeId(1), 1024).await;
            mr.write_local(0, b"remote-data").unwrap();
            let (qa, _qb) = st
                .connect(NodeId(0), NodeId(1), QpConfig::default())
                .await
                .unwrap();
            let got = qa.read(&mr.remote(), 0, 11).await.unwrap();
            assert_eq!(&got[..], b"remote-data");
        });
    }

    #[test]
    fn out_of_bounds_write_rejected_without_corruption() {
        let (sim, _f, stack) = setup(2);
        let st = Rc::clone(&stack);
        sim.block_on(async move {
            let mr = st.register(NodeId(1), 8).await;
            let (qa, _qb) = st
                .connect(NodeId(0), NodeId(1), QpConfig::default())
                .await
                .unwrap();
            let err = qa
                .write(&mr.remote(), 4, Bytes::from_static(b"toolong"))
                .await
                .unwrap_err();
            assert_eq!(err, RdmaError::OutOfBounds { end: 11, len: 8 });
            assert_eq!(&mr.read_local(0, 8).unwrap()[..], &[0u8; 8]);
        });
    }

    #[test]
    fn deregistered_region_is_invalid() {
        let (sim, _f, stack) = setup(2);
        let st = Rc::clone(&stack);
        sim.block_on(async move {
            let mr = st.register(NodeId(1), 64).await;
            let remote = mr.remote();
            drop(mr); // deregisters
            assert_eq!(st.registered_regions(), 0);
            let (qa, _qb) = st
                .connect(NodeId(0), NodeId(1), QpConfig::default())
                .await
                .unwrap();
            let err = qa.read(&remote, 0, 8).await.unwrap_err();
            assert_eq!(err, RdmaError::InvalidRKey(remote.rkey));
        });
    }

    #[test]
    fn send_blocks_on_full_recv_queue() {
        let (sim, _f, stack) = setup(2);
        let st = Rc::clone(&stack);
        let s = sim.clone();
        sim.block_on(async move {
            let (qa, qb) = st
                .connect(NodeId(0), NodeId(1), QpConfig { recv_depth: 2 })
                .await
                .unwrap();
            let t0 = st.sim().now();
            // two fit in the queue
            qa.send(Bytes::from_static(b"a")).await.unwrap();
            qa.send(Bytes::from_static(b"b")).await.unwrap();
            let after_two = st.sim().now() - t0;
            // third blocks until the receiver drains one at +10ms
            let drain = {
                let s = s.clone();
                s.clone().spawn(async move {
                    s.sleep(dur::ms(10)).await;
                    qb.recv().await.unwrap();
                    qb
                })
            };
            qa.send(Bytes::from_static(b"c")).await.unwrap();
            let after_three = st.sim().now() - t0;
            assert!(after_two < dur::ms(1));
            assert!(after_three >= dur::ms(10));
            drop(drain);
        });
    }

    #[test]
    fn disconnect_fails_peer_operations() {
        let (sim, _f, stack) = setup(2);
        let st = Rc::clone(&stack);
        sim.block_on(async move {
            let (qa, qb) = st
                .connect(NodeId(0), NodeId(1), QpConfig::default())
                .await
                .unwrap();
            qa.disconnect();
            let err = qb.send(Bytes::from_static(b"x")).await.unwrap_err();
            assert_eq!(err, RdmaError::Disconnected);
        });
    }

    #[test]
    fn dead_node_fails_connect() {
        let (sim, fabric, stack) = setup(2);
        fabric.set_up(NodeId(1), false);
        let st = Rc::clone(&stack);
        let err = sim.block_on(async move {
            match st.connect(NodeId(0), NodeId(1), QpConfig::default()).await {
                Err(e) => e,
                Ok(_) => panic!("connect to a down node succeeded"),
            }
        });
        assert_eq!(err, RdmaError::Net(NetError::DstDown(NodeId(1))));
    }

    #[test]
    fn small_send_latency_is_microseconds() {
        let (sim, _f, stack) = setup(2);
        let st = Rc::clone(&stack);
        let s = sim.clone();
        let elapsed = sim.block_on(async move {
            let (qa, qb) = st
                .connect(NodeId(0), NodeId(1), QpConfig::default())
                .await
                .unwrap();
            let t0 = s.now();
            qa.send(Bytes::from_static(b"tiny")).await.unwrap();
            qb.recv().await.unwrap();
            s.now() - t0
        });
        assert!(elapsed < dur::us(4), "verbs small send took {elapsed:?}");
    }

    #[test]
    fn read_of_large_payload_dominated_by_bandwidth() {
        let (sim, _f, stack) = setup(2);
        let st = Rc::clone(&stack);
        let s = sim.clone();
        let elapsed = sim.block_on(async move {
            let mr = st.register(NodeId(1), 8 << 20).await;
            let (qa, _qb) = st
                .connect(NodeId(0), NodeId(1), QpConfig::default())
                .await
                .unwrap();
            let t0 = s.now();
            qa.read(&mr.remote(), 0, 8 << 20).await.unwrap();
            s.now() - t0
        });
        // 8 MiB at 3.4 GB/s ≈ 2.5 ms
        let secs = elapsed.as_secs_f64();
        assert!(secs > 0.002 && secs < 0.004, "elapsed {secs}");
    }

    #[test]
    fn local_mr_bounds_checked() {
        let (sim, _f, stack) = setup(1);
        let st = Rc::clone(&stack);
        sim.block_on(async move {
            let mr = st.register(NodeId(0), 16).await;
            assert!(mr.write_local(10, b"1234567").is_err());
            assert!(mr.read_local(10, 7).is_err());
            assert!(mr.write_local(10, b"123456").is_ok());
            assert_eq!(mr.len(), 16);
        });
    }
}
