//! # rdma-bb — RDMA key-value-store burst buffer for Big-Data I/O on HPC
//!
//! Umbrella crate for the workspace reproducing *"Accelerating I/O
//! Performance of Big Data Analytics on HPC Clusters through RDMA-Based
//! Key-Value Store"* (ICPP 2015). Re-exports every layer so examples,
//! integration tests, and downstream users need a single dependency.
//!
//! ## Layers (bottom-up)
//!
//! * [`simkit`] — deterministic virtual-time simulation core;
//! * [`netsim`] — cluster fabric with RDMA-verbs / IPoIB / Ethernet
//!   transport profiles;
//! * [`rdmasim`] — verbs-shaped API (QPs, MRs, one-sided READ/WRITE);
//! * [`storesim`] — timed storage devices and object stores;
//! * [`rkv`] — RDMA-Memcached: slab/LRU store, hybrid RDMA protocol,
//!   ketama client;
//! * [`lustre`] — MDS + OSS/OST parallel filesystem;
//! * [`hdfs`] — NameNode/DataNode DFS with pipelined replication;
//! * [`bb_core`] — **the paper's contribution**: the burst buffer and its
//!   three HDFS⇄Lustre integration schemes;
//! * [`mapred`] — a mini MapReduce engine over the unified FS layer;
//! * [`workloads`] — TestDFSIO, RandomWriter, Sort, SWIM, and the
//!   testbed builder.
//!
//! ## Quickstart
//!
//! ```
//! use rdma_bb::prelude::*;
//!
//! let tb = Testbed::build(
//!     SystemKind::Bb(Scheme::AsyncLustre),
//!     TestbedConfig { compute_nodes: 4, ..TestbedConfig::default() },
//! );
//! tb.block_on(|tb| async move {
//!     let fs = tb.fs_for()(tb.nodes[0]);
//!     let w = fs.create("/demo").await.unwrap();
//!     w.append(bytes::Bytes::from_static(b"hello burst buffer")).await.unwrap();
//!     w.close().await.unwrap();
//!     let r = fs.open("/demo").await.unwrap();
//!     assert_eq!(&r.read_all().await.unwrap()[..], b"hello burst buffer");
//!     tb.shutdown();
//! });
//! ```

pub use bb_core;
pub use hdfs;
pub use lustre;
pub use mapred;
pub use netsim;
pub use rdmasim;
pub use rkv;
pub use simkit;
pub use storesim;
pub use workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use bb_core::fs::{AnyFs, AnyReader, AnyWriter, FsError};
    pub use bb_core::{BbConfig, BbDeployment, Scheme};
    pub use bytes::Bytes;
    pub use hdfs::{HdfsCluster, HdfsConfig};
    pub use lustre::{LustreCluster, LustreConfig};
    pub use mapred::{JobSpec, MrConfig, MrEngine};
    pub use netsim::{Fabric, NetConfig, NodeId, TransportProfile};
    pub use simkit::{dur, Sim, Time};
    pub use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};
}
