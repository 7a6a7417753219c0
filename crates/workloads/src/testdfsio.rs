//! TestDFSIO — the canonical HDFS I/O throughput benchmark (the paper's
//! E3/E4/E5/E11 workload): N concurrent tasks each write (or read) one
//! file of a given size; the tool reports aggregate and per-task MB/s.

use std::time::Duration;

use bb_core::fs::{AnyFs, FsError};
use netsim::NodeId;
use simkit::future::join_all;
use simkit::stats::Throughput;
use simkit::Sim;

use crate::payload::PayloadPool;

/// I/O request size per append/read call.
const IO_SIZE: u64 = 1 << 20;

/// Benchmark parameters (`-nrFiles`, `-fileSize` in the real tool).
#[derive(Debug, Clone)]
pub struct DfsioConfig {
    /// Number of files (one task per file, round-robin across nodes).
    pub files: usize,
    /// Size of each file.
    pub file_size: u64,
    /// Directory for benchmark files.
    pub dir: String,
}

impl Default for DfsioConfig {
    fn default() -> Self {
        DfsioConfig {
            files: 16,
            file_size: 1 << 30,
            dir: "/benchmarks/TestDFSIO".into(),
        }
    }
}

impl DfsioConfig {
    /// Path of file `i`.
    pub fn path(&self, i: usize) -> String {
        format!("{}/io_data/test_io_{i}", self.dir)
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.files as u64 * self.file_size
    }
}

/// Benchmark outcome, in the shape TestDFSIO prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DfsioResult {
    /// Wall-clock makespan of the whole run.
    pub elapsed: Duration,
    /// Aggregate throughput: total bytes / makespan.
    pub aggregate: Throughput,
    /// "Throughput mb/sec" as TestDFSIO defines it: total bytes / sum of
    /// per-task I/O times.
    pub throughput_mbps: f64,
    /// "Average IO rate mb/sec": mean of per-task rates.
    pub avg_io_rate_mbps: f64,
    /// Bytes moved.
    pub bytes: u64,
}

async fn run_tasks<F, Fut>(
    sim: &Sim,
    files: usize,
    nodes: &[NodeId],
    make: F,
) -> Result<(Vec<Duration>, Duration), FsError>
where
    F: Fn(usize, NodeId) -> Fut,
    Fut: std::future::Future<Output = Result<Duration, FsError>> + 'static,
{
    let t0 = sim.now();
    let mut tasks = Vec::with_capacity(files);
    for i in 0..files {
        let node = nodes[i % nodes.len()];
        tasks.push(make(i, node));
    }
    let mut times = Vec::with_capacity(files);
    for r in join_all(sim, tasks).await {
        times.push(r?);
    }
    Ok((times, sim.now() - t0))
}

fn summarize(times: &[Duration], elapsed: Duration, total: u64, per_file: u64) -> DfsioResult {
    let sum_secs: f64 = times.iter().map(|t| t.as_secs_f64()).sum();
    let rates: Vec<f64> = times
        .iter()
        .map(|t| per_file as f64 / 1e6 / t.as_secs_f64().max(1e-12))
        .collect();
    DfsioResult {
        elapsed,
        aggregate: Throughput {
            bytes: total,
            elapsed,
        },
        throughput_mbps: total as f64 / 1e6 / sum_secs.max(1e-12),
        avg_io_rate_mbps: rates.iter().sum::<f64>() / rates.len().max(1) as f64,
        bytes: total,
    }
}

/// The write phase: every task streams one file through the DFS.
pub async fn write(
    sim: &Sim,
    nodes: &[NodeId],
    fs_for: &dyn Fn(NodeId) -> AnyFs,
    pool: &PayloadPool,
    cfg: &DfsioConfig,
) -> Result<DfsioResult, FsError> {
    let (times, elapsed) = run_tasks(sim, cfg.files, nodes, |i, node| {
        let fs = fs_for(node);
        let path = cfg.path(i);
        let pool = pool.clone();
        let file_size = cfg.file_size;
        let sim = sim.clone();
        async move {
            let t0 = sim.now();
            let w = fs.create(&path).await?;
            for piece in pool.stream(i as u64 * 1_000_003, file_size, IO_SIZE as usize) {
                w.append(piece).await?;
            }
            w.close().await?;
            Ok(sim.now() - t0)
        }
    })
    .await?;
    Ok(summarize(&times, elapsed, cfg.total_bytes(), cfg.file_size))
}

/// The read phase: every task streams one file back. `verify` additionally
/// checks content against the generator (costly on the host; benchmarks
/// pass `false`, correctness tests pass `true`).
pub async fn read(
    sim: &Sim,
    nodes: &[NodeId],
    fs_for: &dyn Fn(NodeId) -> AnyFs,
    pool: &PayloadPool,
    cfg: &DfsioConfig,
    verify: bool,
) -> Result<DfsioResult, FsError> {
    let (times, elapsed) = run_tasks(sim, cfg.files, nodes, |i, node| {
        let fs = fs_for(node);
        let path = cfg.path(i);
        let pool = pool.clone();
        let file_size = cfg.file_size;
        let sim = sim.clone();
        async move {
            let t0 = sim.now();
            let r = fs.open(&path).await?;
            assert_eq!(r.size(), file_size, "file size mismatch at {path}");
            let mut off = 0u64;
            let expected = if verify {
                pool.stream(i as u64 * 1_000_003, file_size, IO_SIZE as usize)
            } else {
                Vec::new()
            };
            let mut piece_idx = 0;
            while off < file_size {
                let len = IO_SIZE.min(file_size - off);
                let data = r.read_at(off, len).await?;
                assert_eq!(data.len() as u64, len);
                if verify {
                    assert_eq!(
                        data, expected[piece_idx],
                        "content mismatch at {path} offset {off}"
                    );
                }
                off += len;
                piece_idx += 1;
            }
            Ok(sim.now() - t0)
        }
    })
    .await?;
    Ok(summarize(&times, elapsed, cfg.total_bytes(), cfg.file_size))
}

/// Remove benchmark files (between phases of a sweep).
pub async fn clean(
    nodes: &[NodeId],
    fs_for: &dyn Fn(NodeId) -> AnyFs,
    cfg: &DfsioConfig,
) -> Result<(), FsError> {
    let fs = fs_for(nodes[0]);
    for i in 0..cfg.files {
        fs.delete(&cfg.path(i)).await?;
    }
    Ok(())
}
