//! # hdfs — an HDFS simulator
//!
//! The distributed-filesystem baseline the paper compares against (and the
//! framework its burst buffer plugs into): a NameNode owning the namespace
//! and block map ([`nn`]), DataNodes co-located with compute nodes writing
//! replicated blocks to local disks through a pipeline ([`dn`]), and a
//! client with locality-aware reads and pipeline-recovering writes
//! ([`client`]).
//!
//! Fidelity notes:
//! * blocks are written through an `r`-stage pipeline with a bounded packet
//!   window, so write cost ≈ `r ×` disk traffic plus one network stream per
//!   stage — the behaviour that makes triple-replicated HDFS writes slow;
//! * reads prefer node-local, then rack-local replicas;
//! * DataNodes heartbeat; the NameNode declares silent nodes dead and
//!   re-replicates their blocks (exercised by the fault-tolerance
//!   experiment E12);
//! * Hadoop RPC and data transfer default to the IPoIB profile, which is
//!   how stock HDFS runs on an InfiniBand cluster.

#![warn(missing_docs)]

pub mod client;
pub mod dn;
pub mod nn;

use std::rc::Rc;

use netsim::{Fabric, NodeId, Switchboard, TransportProfile};
use storesim::DiskKind;

pub use client::{HdfsClient, HdfsError, HdfsReader, HdfsWriter};
pub use dn::{DataNode, DnMsg};
pub use nn::{BlockId, FileInfo, NameNode, NnError, NnMsg};

/// Cluster-wide HDFS configuration.
#[derive(Debug, Clone, Copy)]
pub struct HdfsConfig {
    /// Block size (default 128 MiB).
    pub block_size: u64,
    /// Replication factor (default 3).
    pub replication: usize,
    /// Data-transfer packet size (64 KiB in Hadoop; 1 MiB here to keep the
    /// event count tractable — throughput is rate-bound either way).
    pub packet_size: u64,
    /// DataNode local-disk technology.
    pub dn_disk: DiskKind,
    /// DataNode local-disk capacity.
    pub dn_capacity: u64,
    /// Transport for RPC and data transfer (IPoIB on HPC clusters).
    pub transport: TransportProfile,
}

impl Default for HdfsConfig {
    fn default() -> Self {
        HdfsConfig {
            block_size: 128 << 20,
            replication: 3,
            packet_size: 1 << 20,
            dn_disk: DiskKind::Hdd,
            dn_capacity: 2 << 40,
            transport: TransportProfile::ipoib_qdr(),
        }
    }
}

/// A deployed HDFS instance: one NameNode plus DataNodes co-located with
/// the given compute nodes.
pub struct HdfsCluster {
    /// Cluster configuration.
    pub config: HdfsConfig,
    /// The NameNode.
    pub nn: Rc<NameNode>,
    /// DataNodes in deployment order.
    pub dns: Vec<Rc<DataNode>>,
    /// NameNode RPC switchboard.
    pub nn_net: Rc<Switchboard<NnMsg>>,
    /// DataNode data-transfer switchboard.
    pub dn_net: Rc<Switchboard<DnMsg>>,
}

impl HdfsCluster {
    /// Deploy on `fabric`: the NameNode gets a fresh node; a DataNode is
    /// started on every node in `datanodes`.
    pub fn deploy(
        fabric: &Rc<Fabric>,
        datanodes: &[NodeId],
        config: HdfsConfig,
    ) -> Rc<HdfsCluster> {
        assert!(!datanodes.is_empty(), "need at least one DataNode");
        assert!(config.replication >= 1);
        assert!(config.packet_size > 0 && config.block_size >= config.packet_size);
        let nn_node = fabric.add_node();
        let nn_net = Switchboard::new(Rc::clone(fabric), config.transport);
        let dn_net = Switchboard::new(Rc::clone(fabric), config.transport);
        let nn = NameNode::spawn(Rc::clone(&nn_net), nn_node, config);
        let dns: Vec<Rc<DataNode>> = datanodes
            .iter()
            .map(|&node| {
                DataNode::spawn(
                    Rc::clone(&dn_net),
                    Rc::clone(&nn_net),
                    node,
                    nn_node,
                    config,
                )
            })
            .collect();
        Rc::new(HdfsCluster {
            config,
            nn,
            dns,
            nn_net,
            dn_net,
        })
    }

    /// Make a client on `node`.
    pub fn client(self: &Rc<Self>, node: NodeId) -> HdfsClient {
        HdfsClient::new(Rc::clone(self), node)
    }

    /// Stop every background loop (heartbeats) so the simulation can
    /// quiesce. In-flight operations still complete.
    pub fn shutdown(&self) {
        for dn in &self.dns {
            dn.stop_heartbeat();
        }
    }

    /// Total bytes on DataNode local disks — the "local storage
    /// requirement" metric of experiment E9.
    pub fn local_storage_used(&self) -> u64 {
        self.dns.iter().map(|d| d.store().disk().used()).sum()
    }

    /// The DataNode running on `node`, if any.
    pub fn dn_on(&self, node: NodeId) -> Option<&Rc<DataNode>> {
        self.dns.iter().find(|d| d.node() == node)
    }
}

#[cfg(test)]
mod tests;
