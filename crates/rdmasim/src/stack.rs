//! The per-fabric RDMA stack: memory-region registry, queue-pair
//! connection setup, and the shared timing rules for every operation.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use simkit::fxhash::FxHashMap;
use simkit::sync::mpsc;
use simkit::telemetry::Counter;
use simkit::{dur, Sim};

use netsim::{Fabric, NetError, NodeId, TransportProfile};

use crate::mr::{Mr, MrInner, RKey};
use crate::qp::{Qp, QpConfig, QpShared};

/// RDMA-layer failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaError {
    /// Underlying fabric failure (endpoint down / unknown).
    Net(NetError),
    /// The rkey does not name a registered region on that node.
    InvalidRKey(RKey),
    /// Access outside the registered region's bounds.
    OutOfBounds {
        /// Requested end offset.
        end: u64,
        /// Region length.
        len: u64,
    },
    /// The queue pair's peer tore the connection down.
    Disconnected,
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::Net(e) => write!(f, "rdma transport error: {e}"),
            RdmaError::InvalidRKey(k) => write!(f, "invalid rkey {k:?}"),
            RdmaError::OutOfBounds { end, len } => {
                write!(
                    f,
                    "rdma access out of bounds: end {end} > region length {len}"
                )
            }
            RdmaError::Disconnected => f.write_str("queue pair disconnected"),
        }
    }
}
impl std::error::Error for RdmaError {}

impl From<NetError> for RdmaError {
    fn from(e: NetError) -> Self {
        RdmaError::Net(e)
    }
}

/// Registration cost model: base CPU cost plus per-page pinning cost.
/// (~5 µs + ~80 ns per 4 KiB page — the reason real RDMA codes pool and
/// reuse registered buffers.)
pub(crate) fn registration_time(bytes: u64) -> std::time::Duration {
    let pages = bytes.div_ceil(4096);
    dur::us(5) + dur::ns(80 * pages)
}

/// Verbs-level counters registered under `rdma.*` on the simulation's
/// metrics registry. One set per stack (all stacks on a sim share names,
/// so the counters aggregate).
pub(crate) struct RdmaCounters {
    pub(crate) mr_registrations: Counter,
    pub(crate) qp_connects: Counter,
    pub(crate) send_posts: Counter,
    pub(crate) send_bytes: Counter,
    pub(crate) recv_completions: Counter,
    pub(crate) write_posts: Counter,
    pub(crate) write_bytes: Counter,
    pub(crate) read_posts: Counter,
    pub(crate) read_bytes: Counter,
}

impl RdmaCounters {
    fn register(sim: &Sim) -> RdmaCounters {
        let m = sim.metrics();
        RdmaCounters {
            mr_registrations: m.counter("rdma.mr_registrations"),
            qp_connects: m.counter("rdma.qp_connects"),
            send_posts: m.counter("rdma.send_posts"),
            send_bytes: m.counter("rdma.send_bytes"),
            recv_completions: m.counter("rdma.recv_completions"),
            write_posts: m.counter("rdma.write_posts"),
            write_bytes: m.counter("rdma.write_bytes"),
            read_posts: m.counter("rdma.read_posts"),
            read_bytes: m.counter("rdma.read_bytes"),
        }
    }
}

/// One fabric-wide RDMA stack. All queue pairs and memory regions hang off
/// an instance of this.
pub struct RdmaStack {
    fabric: Rc<Fabric>,
    profile: TransportProfile,
    regions: RefCell<FxHashMap<(NodeId, RKey), Rc<MrInner>>>,
    next_rkey: RefCell<u32>,
    next_qp: RefCell<u64>,
    pub(crate) counters: RdmaCounters,
}

impl RdmaStack {
    /// Create a stack running native verbs timing over `fabric`.
    pub fn new(fabric: Rc<Fabric>) -> Rc<RdmaStack> {
        Self::with_profile(fabric, TransportProfile::verbs_qdr())
    }

    /// Create a stack with an explicit transport profile — used by the
    /// transport ablation to run the *same* protocol over IPoIB/Ethernet
    /// timing.
    pub fn with_profile(fabric: Rc<Fabric>, profile: TransportProfile) -> Rc<RdmaStack> {
        let counters = RdmaCounters::register(fabric.sim());
        Rc::new(RdmaStack {
            fabric,
            profile,
            regions: RefCell::new(FxHashMap::default()),
            next_rkey: RefCell::new(1),
            next_qp: RefCell::new(1),
            counters,
        })
    }

    /// The fabric this stack runs on.
    pub fn fabric(&self) -> &Rc<Fabric> {
        &self.fabric
    }

    /// The simulation clock.
    pub fn sim(&self) -> &Sim {
        self.fabric.sim()
    }

    /// The transport profile in force.
    pub fn profile(&self) -> &TransportProfile {
        &self.profile
    }

    /// Register `bytes` of memory on `node`, charging registration time.
    /// The returned [`Mr`] exposes the rkey for one-sided access. The
    /// pinning cost is virtual only: the host allocates nothing for it.
    pub async fn register(self: &Rc<Self>, node: NodeId, bytes: u64) -> Mr {
        self.counters.mr_registrations.inc();
        self.sim().sleep(registration_time(bytes)).await;
        let rkey = {
            let mut k = self.next_rkey.borrow_mut();
            let v = RKey(*k);
            *k += 1;
            v
        };
        let inner = Rc::new(MrInner::new(node, rkey, bytes));
        self.regions
            .borrow_mut()
            .insert((node, rkey), Rc::clone(&inner));
        Mr {
            stack: Rc::clone(self),
            inner,
        }
    }

    /// Drop the registration for `(node, rkey)`; subsequent remote access
    /// fails with [`RdmaError::InvalidRKey`].
    pub fn deregister(&self, node: NodeId, rkey: RKey) {
        self.regions.borrow_mut().remove(&(node, rkey));
    }

    pub(crate) fn lookup(&self, node: NodeId, rkey: RKey) -> Result<Rc<MrInner>, RdmaError> {
        self.regions
            .borrow()
            .get(&(node, rkey))
            .cloned()
            .ok_or(RdmaError::InvalidRKey(rkey))
    }

    /// Establish a reliable-connected queue pair between `a` and `b`,
    /// charging connection-setup time. Returns the two endpoints.
    pub async fn connect(
        self: &Rc<Self>,
        a: NodeId,
        b: NodeId,
        config: QpConfig,
    ) -> Result<(Qp, Qp), RdmaError> {
        if !self.fabric.is_up(a) {
            return Err(NetError::SrcDown(a).into());
        }
        if !self.fabric.is_up(b) {
            return Err(NetError::DstDown(b).into());
        }
        // CM exchange: three small messages round the fabric
        self.fabric.transfer(a, b, 256, &self.profile).await?;
        self.fabric.transfer(b, a, 256, &self.profile).await?;
        self.fabric.transfer(a, b, 64, &self.profile).await?;
        self.counters.qp_connects.inc();
        let id = {
            let mut q = self.next_qp.borrow_mut();
            let v = *q;
            *q += 1;
            v
        };
        let (tx_ab, rx_ab) = mpsc::bounded(config.recv_depth);
        let (tx_ba, rx_ba) = mpsc::bounded(config.recv_depth);
        let shared = Rc::new(QpShared::new(id));
        let qa = Qp::new(
            Rc::clone(self),
            Rc::clone(&shared),
            a,
            b,
            tx_ab,
            RefCell::new(rx_ba),
        );
        let qb = Qp::new(Rc::clone(self), shared, b, a, tx_ba, RefCell::new(rx_ab));
        Ok((qa, qb))
    }

    /// Number of live registrations (diagnostic).
    pub fn registered_regions(&self) -> usize {
        self.regions.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_cost_scales_with_pages() {
        let small = registration_time(4096);
        let big = registration_time(64 << 20);
        assert!(big > small);
        // 64 MiB = 16384 pages → 5 µs + ~1.3 ms
        assert!(big > dur::ms(1) && big < dur::ms(2));
    }
}
