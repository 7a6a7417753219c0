//! One-call deployment of a complete system under test: fabric, compute
//! nodes, the storage backend, and a MapReduce engine — the common rig
//! behind every experiment binary, example, and integration test.

use std::rc::Rc;

use netsim::{Fabric, NetConfig, NodeId};
use simkit::Sim;

use bb_core::fs::AnyFs;
use bb_core::{BbConfig, BbDeployment, Scheme};
use hdfs::{HdfsCluster, HdfsConfig};
use lustre::{LustreCluster, LustreConfig};
use mapred::{MrConfig, MrEngine};

/// Which storage system a testbed deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Plain HDFS on node-local disks.
    Hdfs,
    /// Plain Lustre.
    Lustre,
    /// The burst buffer in a given scheme.
    Bb(Scheme),
}

impl SystemKind {
    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::Hdfs => "HDFS",
            SystemKind::Lustre => "Lustre",
            SystemKind::Bb(s) => s.label(),
        }
    }

    /// The five systems the paper compares, in table order.
    pub fn all_five() -> [SystemKind; 5] {
        [
            SystemKind::Hdfs,
            SystemKind::Lustre,
            SystemKind::Bb(Scheme::AsyncLustre),
            SystemKind::Bb(Scheme::SyncLustre),
            SystemKind::Bb(Scheme::HybridLocality),
        ]
    }
}

/// Testbed knobs shared by all systems.
#[derive(Debug, Clone, Copy)]
pub struct TestbedConfig {
    /// Compute nodes (DFS clients; HDFS DataNodes live here too).
    pub compute_nodes: usize,
    /// Lustre deployment.
    pub lustre: LustreConfig,
    /// HDFS deployment (when `SystemKind::Hdfs`).
    pub hdfs: HdfsConfig,
    /// Burst-buffer deployment (when `SystemKind::Bb`); `scheme` is
    /// overridden by the `SystemKind`.
    pub bb: BbConfig,
    /// MapReduce engine settings.
    pub mr: MrConfig,
    /// Fabric settings.
    pub net: NetConfig,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            compute_nodes: 16,
            // a mid-size shared Lustre: 2 OSS × 1 OST at 300 MB/s ≈ 600 MB/s
            // aggregate — ~1.7× the effective write bandwidth of 16
            // triple-replicating HDFS spindles, the balance the paper's
            // testbed exhibits at its default scale
            lustre: LustreConfig {
                oss_count: 2,
                osts_per_oss: 1,
                ost_rate: 300e6,
                ..LustreConfig::default()
            },
            hdfs: HdfsConfig::default(),
            // buffer sized to absorb the benchmark burst (the paper's BB
            // nodes hold the full TestDFSIO dataset in aggregate DRAM)
            bb: BbConfig {
                kv_servers: 4,
                kv_mem_per_server: 4 << 30,
                ..BbConfig::default()
            },
            mr: MrConfig::default(),
            net: NetConfig::default(),
        }
    }
}

/// A deployed system under test.
pub struct Testbed {
    /// The simulation.
    pub sim: Sim,
    /// The interconnect.
    pub fabric: Rc<Fabric>,
    /// Compute nodes.
    pub nodes: Vec<NodeId>,
    /// Which system this testbed runs.
    pub kind: SystemKind,
    /// Lustre (always present: it is the BB backing store and a baseline).
    pub lustre: Rc<LustreCluster>,
    /// HDFS (only for `SystemKind::Hdfs`).
    pub hdfs: Option<Rc<HdfsCluster>>,
    /// Burst buffer (only for `SystemKind::Bb`).
    pub bb: Option<Rc<BbDeployment>>,
    /// The MapReduce engine bound to the compute nodes.
    pub engine: Rc<MrEngine>,
}

impl Testbed {
    /// Deploy `kind` per `config`.
    pub fn build(kind: SystemKind, config: TestbedConfig) -> Testbed {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), config.compute_nodes, config.net);
        let nodes: Vec<NodeId> = (0..config.compute_nodes as u32).map(NodeId).collect();
        let lustre = LustreCluster::deploy(&fabric, config.lustre);
        let hdfs = match kind {
            SystemKind::Hdfs => Some(HdfsCluster::deploy(&fabric, &nodes, config.hdfs)),
            _ => None,
        };
        let bb = match kind {
            SystemKind::Bb(scheme) => Some(BbDeployment::deploy(
                &fabric,
                Rc::clone(&lustre),
                &nodes,
                BbConfig {
                    scheme,
                    ..config.bb
                },
            )),
            _ => None,
        };
        let engine = MrEngine::new(Rc::clone(&fabric), nodes.clone(), config.mr);
        Testbed {
            sim,
            fabric,
            nodes,
            kind,
            lustre,
            hdfs,
            bb,
            engine,
        }
    }

    /// A DFS client factory for the deployed system.
    pub fn fs_for(&self) -> impl Fn(NodeId) -> AnyFs + '_ {
        move |node| match self.kind {
            SystemKind::Hdfs => AnyFs::Hdfs(self.hdfs.as_ref().expect("hdfs testbed").client(node)),
            SystemKind::Lustre => AnyFs::Lustre(self.lustre.client(node)),
            SystemKind::Bb(_) => AnyFs::Bb(self.bb.as_ref().expect("bb testbed").client(node)),
        }
    }

    /// Node-local storage consumed by the system (the E9 metric).
    pub fn local_storage_used(&self) -> u64 {
        match self.kind {
            SystemKind::Hdfs => self
                .hdfs
                .as_ref()
                .map(|h| h.local_storage_used())
                .unwrap_or(0),
            SystemKind::Lustre => 0,
            SystemKind::Bb(_) => self
                .bb
                .as_ref()
                .map(|b| b.local_storage_used())
                .unwrap_or(0),
        }
    }

    /// For burst-buffer systems: block until every named file is durable.
    pub async fn drain_flush(&self, paths: &[String]) {
        if let Some(bb) = &self.bb {
            let client = bb.client(self.nodes[0]);
            for p in paths {
                let _ = client.wait_flushed(p).await;
            }
        }
    }

    /// Run the future `f` builds from this testbed to completion on its
    /// simulation, then tear the simulation down. The future gets a shared
    /// handle, so the testbed itself is dropped here, outside any task —
    /// [`Sim::reset`] (which [`Drop`] calls) refuses to run inside one.
    pub fn block_on<Fut>(self, f: impl FnOnce(Rc<Testbed>) -> Fut) -> Fut::Output
    where
        Fut: std::future::Future + 'static,
        Fut::Output: 'static,
    {
        let tb = Rc::new(self);
        tb.sim.block_on(f(Rc::clone(&tb)))
    }

    /// Stop background loops so the simulation can quiesce.
    pub fn shutdown(&self) {
        if let Some(h) = &self.hdfs {
            h.shutdown();
        }
        if let Some(b) = &self.bb {
            b.shutdown();
        }
    }
}

impl Drop for Testbed {
    fn drop(&mut self) {
        // break the executor↔task reference cycles so an abandoned
        // simulation releases its memory (server loops never complete on
        // their own — their mailboxes outlive the run by design). Not while
        // unwinding: a testbed dropped by a panicking task would turn the
        // panic into an abort, and the memory no longer matters.
        if !std::thread::panicking() {
            self.sim.reset();
        }
    }
}
