//! RandomWriter — Hadoop's bulk-ingest benchmark (experiment E6): a
//! map-only job where every node generates random records and writes them
//! straight to the DFS. Generation CPU is charged; payload bytes are
//! zero-copy pattern slices.

use std::time::Duration;

use bb_core::fs::{AnyFs, FsError};
use netsim::NodeId;
use simkit::future::join_all;
use simkit::{dur, Sim};

use crate::payload::PayloadPool;

/// Generator CPU throughput (random record synthesis).
const GEN_RATE: f64 = 300e6;

/// Append granularity.
pub(crate) const IO_SIZE: usize = 1 << 20;

/// RandomWriter parameters.
#[derive(Debug, Clone)]
pub struct RandomWriterConfig {
    /// Bytes generated per node (`mapreduce.randomwriter.bytespermap`).
    pub bytes_per_node: u64,
    /// Output directory.
    pub dir: String,
}

impl Default for RandomWriterConfig {
    fn default() -> Self {
        RandomWriterConfig {
            bytes_per_node: 1 << 30,
            dir: "/benchmarks/RandomWriter".into(),
        }
    }
}

/// Outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWriterResult {
    /// Makespan.
    pub elapsed: Duration,
    /// Bytes written.
    pub bytes: u64,
}

/// Run RandomWriter across `nodes`.
pub async fn run(
    sim: &Sim,
    nodes: &[NodeId],
    fs_for: &dyn Fn(NodeId) -> AnyFs,
    pool: &PayloadPool,
    cfg: &RandomWriterConfig,
) -> Result<RandomWriterResult, FsError> {
    let t0 = sim.now();
    let mut tasks = Vec::new();
    for (i, &node) in nodes.iter().enumerate() {
        let fs = fs_for(node);
        let pool = pool.clone();
        let path = format!("{}/part-{i:05}", cfg.dir);
        let total = cfg.bytes_per_node;
        let sim = sim.clone();
        tasks.push(async move {
            let w = fs.create(&path).await?;
            for piece in pool.stream(i as u64 * 7_919, total, IO_SIZE) {
                // random record generation costs CPU before each write
                sim.sleep(dur::transfer(piece.len() as u64, GEN_RATE)).await;
                w.append(piece).await?;
            }
            w.close().await?;
            Ok::<(), FsError>(())
        });
    }
    for r in join_all(sim, tasks).await {
        r?;
    }
    Ok(RandomWriterResult {
        elapsed: sim.now() - t0,
        bytes: cfg.bytes_per_node * nodes.len() as u64,
    })
}
