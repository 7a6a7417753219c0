//! The fabric: a set of nodes with full-duplex NICs connected by a
//! non-blocking core (the common shape of an HPC InfiniBand install).
//!
//! A transfer charges: per-message software overhead and serialization on
//! the sender's TX queue, propagation latency, and serialization on the
//! receiver's RX queue — with TX and RX windows overlapping (cut-through),
//! so an uncontended transfer takes `overhead + latency + bytes/bw` while
//! incast still queues on the receiver.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use simkit::resource::FifoServer;
use simkit::telemetry::{Counter, MetricValue};
use simkit::{dur, Sim};

use crate::params::{NetConfig, TransportProfile};

/// Physical per-NIC full-duplex rate in bytes/second; every transport's
/// traffic on a node shares this (each direction independently). QDR 4×:
/// 32 Gb/s signalling ≈ 3.6 GB/s payload ceiling per NIC.
pub const NIC_BANDWIDTH: f64 = 3.6e9;

/// Logical node identifier within one fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Rack identifier (derived from node id and `nodes_per_rack`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RackId(pub u32);

/// Zone identifier (a pod of `racks_per_zone` racks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZoneId(pub u32);

/// Geo-site identifier (`zones_per_geo` zones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeoId(pub u32);

/// The smallest topology domain enclosing a pair of nodes. Ordered
/// `Local < Rack < Zone < Geo < Remote`, so placement policies can rank
/// candidates with plain comparisons — a smaller tier is a nearer peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TopoTier {
    /// Same node (loopback).
    Local,
    /// Same rack, different node.
    Rack,
    /// Same zone, different rack.
    Zone,
    /// Same geo site, different zone.
    Geo,
    /// Different geo sites (WAN).
    Remote,
}

/// Errors surfaced by the network layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The source node is marked down.
    SrcDown(NodeId),
    /// The destination node is marked down.
    DstDown(NodeId),
    /// The node id does not exist in this fabric.
    UnknownNode(NodeId),
    /// The transfer was dropped by an injected fault (lossy edge). The
    /// time for the attempt was still charged, so retrying is safe and
    /// costs what a real retransmit would.
    Dropped,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::SrcDown(n) => write!(f, "source node {n} is down"),
            NetError::DstDown(n) => write!(f, "destination node {n} is down"),
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::Dropped => write!(f, "transfer dropped by injected fault"),
        }
    }
}
impl std::error::Error for NetError {}

struct NodeState {
    up: bool,
    tx: FifoServer,
    rx: FifoServer,
    tx_bytes: Counter,
    rx_bytes: Counter,
}

/// Per-fabric transfer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Completed transfers.
    pub transfers: u64,
    /// Payload bytes moved (excluding loopback).
    pub bytes: u64,
    /// Loopback (same-node) bytes.
    pub loopback_bytes: u64,
    /// Transfers rejected because an endpoint was down.
    pub failed: u64,
    /// Transfers dropped by an injected loss fault.
    pub dropped: u64,
}

/// A simulated cluster interconnect. Construct via [`Fabric::new`], then
/// address nodes by the [`NodeId`]s handed out at construction.
pub struct Fabric {
    sim: Sim,
    config: NetConfig,
    nodes: RefCell<Vec<NodeState>>,
    stats: RefCell<FabricStats>,
}

impl Fabric {
    /// Build a fabric of `n` nodes. Node ids are `0..n`.
    pub fn new(sim: Sim, n: usize, config: NetConfig) -> Rc<Fabric> {
        let fabric = Rc::new(Fabric {
            sim: sim.clone(),
            config,
            nodes: RefCell::new(Vec::new()),
            stats: RefCell::new(FabricStats::default()),
        });
        for _ in 0..n {
            fabric.add_node();
        }
        // fabric-level totals piggyback on FabricStats via sampled metrics
        // (weak capture: the registry lives inside the Sim this fabric holds)
        let weak = Rc::downgrade(&fabric);
        for (name, pick) in [
            ("netsim.fabric.transfers", 0usize),
            ("netsim.fabric.bytes", 1),
            ("netsim.fabric.loopback_bytes", 2),
            ("netsim.fabric.failed", 3),
            ("netsim.fabric.dropped", 4),
        ] {
            let w = weak.clone();
            sim.metrics().sampled(name, move || {
                let v = w.upgrade().map(|f| f.stats()).unwrap_or_default();
                MetricValue::Counter(match pick {
                    0 => v.transfers,
                    1 => v.bytes,
                    2 => v.loopback_bytes,
                    3 => v.failed,
                    _ => v.dropped,
                })
            });
        }
        // fault-plan node events map onto port state: a crash or link loss
        // takes the node's ports down, restart/link-up brings them back
        // (weak capture — the injector outlives any one fabric)
        let w = weak.clone();
        sim.faults().on_node_event(move |ev| {
            let Some(fabric) = w.upgrade() else { return };
            let idx = ev.node as usize;
            if idx >= fabric.len() {
                return; // plan targets a node this fabric never had
            }
            use simkit::faultplan::NodeEventKind as K;
            let up = matches!(ev.kind, K::Restart | K::LinkUp);
            fabric.set_up(NodeId(ev.node), up);
        });
        fabric
    }

    /// The simulation driving this fabric.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Fabric configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Add a node (e.g. grow the cluster mid-experiment); returns its id.
    pub fn add_node(&self) -> NodeId {
        let mut nodes = self.nodes.borrow_mut();
        let id = NodeId(nodes.len() as u32);
        nodes.push(NodeState {
            up: true,
            tx: FifoServer::new(self.sim.clone(), std::time::Duration::ZERO),
            rx: FifoServer::new(self.sim.clone(), std::time::Duration::ZERO),
            tx_bytes: self
                .sim
                .metrics()
                .counter(format!("netsim.link{}.tx_bytes", id.0)),
            rx_bytes: self
                .sim
                .metrics()
                .counter(format!("netsim.link{}.rx_bytes", id.0)),
        });
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the fabric has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rack containing `node`.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        RackId(node.0 / self.config.nodes_per_rack as u32)
    }

    /// Zone containing `node` (`racks_per_zone` consecutive racks).
    pub fn zone_of(&self, node: NodeId) -> ZoneId {
        ZoneId(self.rack_of(node).0 / self.config.racks_per_zone as u32)
    }

    /// Geo site containing `node` (`zones_per_geo` consecutive zones).
    pub fn geo_of(&self, node: NodeId) -> GeoId {
        GeoId(self.zone_of(node).0 / self.config.zones_per_geo as u32)
    }

    /// The smallest topology domain enclosing both nodes.
    pub fn tier_between(&self, a: NodeId, b: NodeId) -> TopoTier {
        if a == b {
            TopoTier::Local
        } else if self.rack_of(a) == self.rack_of(b) {
            TopoTier::Rack
        } else if self.zone_of(a) == self.zone_of(b) {
            TopoTier::Zone
        } else if self.geo_of(a) == self.geo_of(b) {
            TopoTier::Geo
        } else {
            TopoTier::Remote
        }
    }

    /// Extra one-way latency the topology charges between two nodes: each
    /// boundary crossed adds its tier's hop cost (cross-rack adds
    /// `rack_latency`, cross-zone additionally `zone_latency`, cross-geo
    /// additionally `geo_latency`). Zero on the default flat fabric. This
    /// is the queryable cost model placement policies rank candidates by.
    pub fn topo_latency(&self, a: NodeId, b: NodeId) -> std::time::Duration {
        let mut extra = std::time::Duration::ZERO;
        if a == b || self.rack_of(a) == self.rack_of(b) {
            return extra;
        }
        extra += self.config.rack_latency;
        if self.zone_of(a) != self.zone_of(b) {
            extra += self.config.zone_latency;
            if self.geo_of(a) != self.geo_of(b) {
                extra += self.config.geo_latency;
            }
        }
        extra
    }

    /// Mark a node up/down. Transfers touching a down node fail.
    pub fn set_up(&self, node: NodeId, up: bool) {
        let mut nodes = self.nodes.borrow_mut();
        let idx = node.0 as usize;
        assert!(idx < nodes.len(), "unknown node {node}");
        nodes[idx].up = up;
    }

    /// Whether `node` is up.
    pub fn is_up(&self, node: NodeId) -> bool {
        let nodes = self.nodes.borrow();
        nodes.get(node.0 as usize).map(|n| n.up).unwrap_or(false)
    }

    fn check_endpoints(&self, src: NodeId, dst: NodeId) -> Result<(), NetError> {
        let nodes = self.nodes.borrow();
        let s = nodes
            .get(src.0 as usize)
            .ok_or(NetError::UnknownNode(src))?;
        let d = nodes
            .get(dst.0 as usize)
            .ok_or(NetError::UnknownNode(dst))?;
        if !s.up {
            return Err(NetError::SrcDown(src));
        }
        if !d.up {
            return Err(NetError::DstDown(dst));
        }
        Ok(())
    }

    /// Move `bytes` from `src` to `dst` using `profile`, waiting out the
    /// modeled transfer time (including any queueing on either NIC).
    pub async fn transfer(
        self: &Rc<Self>,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        profile: &TransportProfile,
    ) -> Result<(), NetError> {
        if src == dst {
            // loopback: kernel memcpy, no NIC involvement
            let p = TransportProfile::loopback();
            if !self.is_up(src) {
                self.stats.borrow_mut().failed += 1;
                return Err(NetError::SrcDown(src));
            }
            self.sim.sleep(p.uncontended_time(bytes)).await;
            let mut st = self.stats.borrow_mut();
            st.transfers += 1;
            st.loopback_bytes += bytes;
            return Ok(());
        }
        if let Err(e) = self.check_endpoints(src, dst) {
            self.stats.borrow_mut().failed += 1;
            return Err(e);
        }
        let fault = self.sim.faults().transfer_fault(src.0, dst.0);
        // effective serialization rate: the slower of the transport's
        // payload bandwidth and the physical NIC, derated by any injected
        // slowdown on either endpoint
        let rate = profile.bandwidth.min(NIC_BANDWIDTH) * fault.bandwidth_factor;
        let ser = dur::transfer(bytes, rate);
        let overhead = profile.per_msg_overhead;
        let latency = profile.latency + fault.extra_delay + self.topo_latency(src, dst);
        if fault.drop {
            // lossy edge: the attempt still takes wire time before the
            // sender learns nothing arrived (NACK-style, never a silent
            // hang), but no payload moves and no NIC occupancy is charged
            self.sim.sleep(overhead + latency).await;
            self.stats.borrow_mut().dropped += 1;
            return Err(NetError::Dropped);
        }
        // TX and RX occupancy overlap (cut-through). Both NICs serve in
        // call order, so each leg is booked rather than queued for: TX at
        // the call, RX when the first bit arrives. A caller dropped
        // mid-transfer leaves what it booked in place (the bytes are on
        // the wire); one dropped before arrival books no RX.
        let tx_end = self.nodes.borrow()[src.0 as usize]
            .tx
            .reserve(overhead + ser);
        self.sim.sleep(latency).await;
        let rx_end = self.nodes.borrow()[dst.0 as usize].rx.reserve(ser);
        self.sim.sleep_until(tx_end.max(rx_end)).await;
        // endpoint may have died mid-transfer
        if !self.is_up(dst) {
            self.stats.borrow_mut().failed += 1;
            return Err(NetError::DstDown(dst));
        }
        if !self.is_up(src) {
            self.stats.borrow_mut().failed += 1;
            return Err(NetError::SrcDown(src));
        }
        let mut st = self.stats.borrow_mut();
        st.transfers += 1;
        st.bytes += bytes;
        drop(st);
        let nodes = self.nodes.borrow();
        nodes[src.0 as usize].tx_bytes.add(bytes);
        nodes[dst.0 as usize].rx_bytes.add(bytes);
        Ok(())
    }

    /// Snapshot of transfer statistics.
    pub fn stats(&self) -> FabricStats {
        *self.stats.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Time;

    fn setup(n: usize) -> (Sim, Rc<Fabric>) {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), n, NetConfig::default());
        (sim, fabric)
    }

    #[test]
    fn uncontended_transfer_time_matches_model() {
        let (sim, fabric) = setup(2);
        let p = TransportProfile::verbs_qdr();
        let s = sim.clone();
        let f = Rc::clone(&fabric);
        let t = sim.block_on(async move {
            f.transfer(NodeId(0), NodeId(1), 1 << 20, &p).await.unwrap();
            s.now()
        });
        let expect = p.uncontended_time(1 << 20);
        let got = t - Time::ZERO;
        let diff = (got.as_secs_f64() - expect.as_secs_f64()).abs();
        assert!(diff < 1e-6, "got {got:?}, expected {expect:?}");
    }

    /// Pins a transfer's host cost: three polls of the caller (call,
    /// arrival, end), alone or queued behind others on one TX. A change
    /// that adds a task or a hand-off per transfer fails here and must
    /// re-pin with its reason.
    #[test]
    fn a_transfer_costs_three_polls() {
        let (sim, fabric) = setup(2);
        let p = TransportProfile::verbs_qdr();
        let f = Rc::clone(&fabric);
        let before = sim.events_processed();
        sim.block_on(async move { f.transfer(NodeId(0), NodeId(1), 4096, &p).await.unwrap() });
        assert_eq!(sim.events_processed() - before, 3);

        const N: u64 = 8;
        let (before, start) = (sim.events_processed(), sim.now());
        for _ in 0..N {
            let f = Rc::clone(&fabric);
            sim.spawn(async move { f.transfer(NodeId(0), NodeId(1), 4096, &p).await.unwrap() });
        }
        let end = sim.run();
        assert_eq!(sim.events_processed() - before, 3 * N);
        let one_tx = p.per_msg_overhead + dur::transfer(4096, p.bandwidth);
        assert_eq!(
            end,
            start + one_tx * N as u32,
            "the N transfers queued on TX"
        );
    }

    /// A caller dropped mid-TX (a timeout shorter than the serialization)
    /// keeps the NIC time it booked: the next transfer on the same TX
    /// starts at the first one's booked end, not at the drop instant.
    #[test]
    fn a_dropped_transfer_keeps_its_booked_tx_time() {
        let (sim, fabric) = setup(3);
        let p = TransportProfile::verbs_qdr();
        let bytes = 1 << 20;
        let one_tx = p.per_msg_overhead + dur::transfer(bytes, p.bandwidth);
        let (s, f) = (sim.clone(), Rc::clone(&fabric));
        let end = sim.block_on(async move {
            let first = f.transfer(NodeId(0), NodeId(1), bytes, &p);
            let dropped = simkit::future::timeout(&s, dur::us(10), first).await;
            assert!(dropped.is_none(), "the timeout fires mid-TX");
            f.transfer(NodeId(0), NodeId(2), bytes, &p).await.unwrap();
            s.now()
        });
        assert_eq!(end, Time::ZERO + one_tx + one_tx);
    }

    #[test]
    fn two_senders_share_receiver_rx() {
        let (sim, fabric) = setup(3);
        let p = TransportProfile::verbs_qdr();
        let bytes = 100 << 20; // ~29 ms serialization each
        for src in [0u32, 1] {
            let f = Rc::clone(&fabric);
            sim.spawn(async move {
                f.transfer(NodeId(src), NodeId(2), bytes, &p).await.unwrap();
            });
        }
        let end = sim.run();
        let one = dur::transfer(bytes, p.bandwidth).as_secs_f64();
        // incast: receiver RX serializes the two flows → ~2× one transfer
        let got = end.as_secs_f64();
        assert!(got > 1.9 * one && got < 2.2 * one, "got {got}, one {one}");
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let (sim, fabric) = setup(4);
        let p = TransportProfile::verbs_qdr();
        let bytes = 100 << 20;
        for (s, d) in [(0u32, 1u32), (2, 3)] {
            let f = Rc::clone(&fabric);
            sim.spawn(async move {
                f.transfer(NodeId(s), NodeId(d), bytes, &p).await.unwrap();
            });
        }
        let end = sim.run();
        let one = p.uncontended_time(bytes).as_secs_f64();
        assert!((end.as_secs_f64() - one).abs() / one < 0.05);
    }

    #[test]
    fn down_node_rejects_transfers() {
        let (sim, fabric) = setup(2);
        fabric.set_up(NodeId(1), false);
        let p = TransportProfile::verbs_qdr();
        let f = Rc::clone(&fabric);
        let r = sim.block_on(async move { f.transfer(NodeId(0), NodeId(1), 100, &p).await });
        assert_eq!(r, Err(NetError::DstDown(NodeId(1))));
        assert_eq!(fabric.stats().failed, 1);
        assert_eq!(fabric.stats().transfers, 0);
    }

    #[test]
    fn node_recovers_after_set_up() {
        let (sim, fabric) = setup(2);
        fabric.set_up(NodeId(0), false);
        assert!(!fabric.is_up(NodeId(0)));
        fabric.set_up(NodeId(0), true);
        let p = TransportProfile::verbs_qdr();
        let f = Rc::clone(&fabric);
        let r = sim.block_on(async move { f.transfer(NodeId(0), NodeId(1), 100, &p).await });
        assert!(r.is_ok());
    }

    #[test]
    fn loopback_is_cheap_and_skips_nic() {
        let (sim, fabric) = setup(1);
        let p = TransportProfile::verbs_qdr();
        let f = Rc::clone(&fabric);
        sim.block_on(async move {
            f.transfer(NodeId(0), NodeId(0), 1 << 20, &p).await.unwrap();
        });
        let st = fabric.stats();
        assert_eq!(st.loopback_bytes, 1 << 20);
        assert_eq!(st.bytes, 0);
    }

    #[test]
    fn rack_assignment() {
        let sim = Sim::new();
        let fabric = Fabric::new(
            sim,
            40,
            NetConfig {
                nodes_per_rack: 16,
                ..NetConfig::default()
            },
        );
        assert_eq!(fabric.rack_of(NodeId(0)), RackId(0));
        assert_eq!(fabric.rack_of(NodeId(15)), RackId(0));
        assert_eq!(fabric.rack_of(NodeId(16)), RackId(1));
        assert_eq!(fabric.rack_of(NodeId(39)), RackId(2));
    }

    #[test]
    fn zone_and_geo_assignment() {
        let sim = Sim::new();
        // 2 nodes/rack, 2 racks/zone, 2 zones/geo → 4 nodes/zone, 8/geo
        let fabric = Fabric::new(
            sim,
            17,
            NetConfig {
                nodes_per_rack: 2,
                racks_per_zone: 2,
                zones_per_geo: 2,
                ..NetConfig::default()
            },
        );
        assert_eq!(fabric.zone_of(NodeId(0)), ZoneId(0));
        assert_eq!(fabric.zone_of(NodeId(3)), ZoneId(0));
        assert_eq!(fabric.zone_of(NodeId(4)), ZoneId(1));
        assert_eq!(fabric.geo_of(NodeId(7)), GeoId(0));
        assert_eq!(fabric.geo_of(NodeId(8)), GeoId(1));
        assert_eq!(fabric.geo_of(NodeId(16)), GeoId(2));
        // boundary tiers: neighbours across each domain edge
        assert_eq!(fabric.tier_between(NodeId(0), NodeId(0)), TopoTier::Local);
        assert_eq!(fabric.tier_between(NodeId(0), NodeId(1)), TopoTier::Rack);
        assert_eq!(fabric.tier_between(NodeId(1), NodeId(2)), TopoTier::Zone);
        assert_eq!(fabric.tier_between(NodeId(3), NodeId(4)), TopoTier::Geo);
        assert_eq!(fabric.tier_between(NodeId(7), NodeId(8)), TopoTier::Remote);
        // tiers rank: nearer peers compare smaller
        assert!(TopoTier::Local < TopoTier::Rack);
        assert!(TopoTier::Rack < TopoTier::Zone);
        assert!(TopoTier::Zone < TopoTier::Geo);
        assert!(TopoTier::Geo < TopoTier::Remote);
    }

    #[test]
    fn topo_latency_accumulates_per_boundary() {
        let sim = Sim::new();
        let fabric = Fabric::new(
            sim,
            16,
            NetConfig {
                nodes_per_rack: 2,
                racks_per_zone: 2,
                zones_per_geo: 2,
                rack_latency: dur::us(5),
                zone_latency: dur::us(50),
                geo_latency: dur::ms(10),
            },
        );
        let us = |n: u64| std::time::Duration::from_micros(n);
        assert_eq!(fabric.topo_latency(NodeId(0), NodeId(0)), us(0));
        assert_eq!(fabric.topo_latency(NodeId(0), NodeId(1)), us(0));
        assert_eq!(fabric.topo_latency(NodeId(0), NodeId(2)), us(5));
        assert_eq!(fabric.topo_latency(NodeId(0), NodeId(4)), us(55));
        assert_eq!(fabric.topo_latency(NodeId(0), NodeId(8)), us(10_055));
        // symmetric
        assert_eq!(
            fabric.topo_latency(NodeId(8), NodeId(0)),
            fabric.topo_latency(NodeId(0), NodeId(8))
        );
    }

    #[test]
    fn geo_stretch_charges_transfer_latency() {
        let sim = Sim::new();
        let fabric = Fabric::new(
            sim.clone(),
            4,
            NetConfig {
                nodes_per_rack: 1,
                racks_per_zone: 1,
                zones_per_geo: 2,
                geo_latency: dur::ms(2),
                ..NetConfig::default()
            },
        );
        let p = TransportProfile::verbs_qdr();
        let f = Rc::clone(&fabric);
        let s = sim.clone();
        let (near, far) = sim.block_on(async move {
            let t0 = s.now();
            f.transfer(NodeId(0), NodeId(1), 1 << 20, &p).await.unwrap();
            let near = s.now() - t0;
            let t1 = s.now();
            f.transfer(NodeId(0), NodeId(2), 1 << 20, &p).await.unwrap();
            (near, s.now() - t1)
        });
        let stretch = far.as_secs_f64() - near.as_secs_f64();
        // cross-geo pays exactly the configured extra one-way latency
        assert!((stretch - 0.002).abs() < 1e-6, "near {near:?}, far {far:?}");
    }

    #[test]
    fn flat_default_topology_charges_nothing() {
        // regression: the default NetConfig must keep the fabric flat —
        // cross-rack transfers pay exactly the transport model, as every
        // seeded experiment snapshot assumes
        let sim = Sim::new();
        let fabric = Fabric::new(
            sim.clone(),
            40,
            NetConfig {
                nodes_per_rack: 16,
                ..NetConfig::default()
            },
        );
        assert_ne!(fabric.rack_of(NodeId(0)), fabric.rack_of(NodeId(39)));
        assert_eq!(
            fabric.topo_latency(NodeId(0), NodeId(39)),
            std::time::Duration::ZERO
        );
        let p = TransportProfile::verbs_qdr();
        let f = Rc::clone(&fabric);
        let s = sim.clone();
        let t = sim.block_on(async move {
            f.transfer(NodeId(0), NodeId(39), 1 << 20, &p)
                .await
                .unwrap();
            s.now()
        });
        let expect = p.uncontended_time(1 << 20);
        let got = t - Time::ZERO;
        assert!((got.as_secs_f64() - expect.as_secs_f64()).abs() < 1e-6);
    }

    #[test]
    fn ipoib_slower_than_verbs_on_same_fabric() {
        let (sim, fabric) = setup(2);
        let bytes = 8 << 20;
        let f1 = Rc::clone(&fabric);
        let t_verbs = {
            let s = sim.clone();
            sim.block_on(async move {
                let t0 = s.now();
                f1.transfer(NodeId(0), NodeId(1), bytes, &TransportProfile::verbs_qdr())
                    .await
                    .unwrap();
                s.now() - t0
            })
        };
        let f2 = Rc::clone(&fabric);
        let t_ipoib = {
            let s = sim.clone();
            sim.block_on(async move {
                let t0 = s.now();
                f2.transfer(NodeId(0), NodeId(1), bytes, &TransportProfile::ipoib_qdr())
                    .await
                    .unwrap();
                s.now() - t0
            })
        };
        assert!(t_ipoib.as_secs_f64() / t_verbs.as_secs_f64() > 2.0);
    }

    #[test]
    fn faultplan_crash_takes_ports_down_and_restart_restores() {
        use simkit::faultplan::{FaultEvent, FaultPlan};
        let (sim, fabric) = setup(2);
        sim.install_faults(
            FaultPlan::new(5)
                .at(dur::ms(1), FaultEvent::Crash { node: 1 })
                .at(dur::ms(3), FaultEvent::Restart { node: 1 }),
        );
        let p = TransportProfile::verbs_qdr();
        let f = Rc::clone(&fabric);
        let s = sim.clone();
        let (mid, late) = sim.block_on(async move {
            s.sleep(dur::ms(2)).await;
            let mid = f.transfer(NodeId(0), NodeId(1), 64, &p).await;
            s.sleep(dur::ms(2)).await;
            let late = f.transfer(NodeId(0), NodeId(1), 64, &p).await;
            (mid, late)
        });
        assert_eq!(mid, Err(NetError::DstDown(NodeId(1))));
        assert!(late.is_ok());
    }

    #[test]
    fn lossy_edge_drops_deterministically_and_charges_time() {
        use simkit::faultplan::{FaultEvent, FaultPlan};
        let run = |seed: u64| {
            let (sim, fabric) = setup(2);
            sim.install_faults(FaultPlan::new(seed).at(
                std::time::Duration::ZERO,
                FaultEvent::Loss {
                    src: None,
                    dst: Some(1),
                    p: 0.5,
                },
            ));
            let f = Rc::clone(&fabric);
            let outcomes = sim.block_on(async move {
                let p = TransportProfile::verbs_qdr();
                let mut v = Vec::new();
                for _ in 0..32 {
                    v.push(f.transfer(NodeId(0), NodeId(1), 64, &p).await.is_ok());
                }
                v
            });
            (outcomes, fabric.stats().dropped, sim.now())
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "same seed must reproduce drop pattern and clock");
        assert!(a.1 > 0, "p=0.5 over 32 transfers should drop some");
        assert!(a.0.iter().any(|ok| *ok), "and let some through");
    }

    #[test]
    fn degrade_slows_transfers() {
        use simkit::faultplan::{FaultEvent, FaultPlan};
        let time_with = |factor: f64| {
            let (sim, fabric) = setup(2);
            sim.install_faults(FaultPlan::new(0).at(
                std::time::Duration::ZERO,
                FaultEvent::Degrade { node: 1, factor },
            ));
            let f = Rc::clone(&fabric);
            let s = sim.clone();
            sim.block_on(async move {
                let p = TransportProfile::verbs_qdr();
                f.transfer(NodeId(0), NodeId(1), 8 << 20, &p).await.unwrap();
                s.now().as_secs_f64()
            })
        };
        let slow = time_with(0.25);
        let fast = time_with(1.0);
        assert!(slow / fast > 3.0, "slow {slow}, fast {fast}");
    }

    #[test]
    fn unknown_node_is_an_error() {
        let (sim, fabric) = setup(1);
        let p = TransportProfile::verbs_qdr();
        let f = Rc::clone(&fabric);
        let r = sim.block_on(async move { f.transfer(NodeId(0), NodeId(9), 1, &p).await });
        assert_eq!(r, Err(NetError::UnknownNode(NodeId(9))));
    }
}
