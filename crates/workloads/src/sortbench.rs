//! TeraGen + Sort (experiment E7/E8): generate a keyed dataset on the DFS,
//! then sort it with the MapReduce engine — the workload whose end-to-end
//! time the paper reports improving by up to 28% over Lustre and 19% over
//! HDFS.

use std::rc::Rc;
use std::time::Duration;

use bb_core::fs::{AnyFs, FsError};
use mapred::logic::{RecordSortLogic, SyntheticShuffleLogic};
use mapred::{JobSpec, MrEngine};
use netsim::NodeId;
use simkit::future::join_all;
use simkit::{dur, Sim};

use crate::payload::PayloadPool;

/// TeraGen generation CPU rate.
const GEN_RATE: f64 = 350e6;

/// Sort benchmark parameters.
#[derive(Debug, Clone)]
pub struct SortConfig {
    /// Total dataset size.
    pub data_size: u64,
    /// Input files (generated round-robin across nodes).
    pub input_files: usize,
    /// Reduce tasks.
    pub reducers: usize,
    /// Input directory.
    pub input_dir: String,
    /// Output directory.
    pub output_dir: String,
    /// Use the real record-sorting logic (small runs / correctness) rather
    /// than the synthetic shuffle-shaped logic (large benchmarks).
    pub real_sort: bool,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            data_size: 4 << 30,
            input_files: 16,
            reducers: 16,
            input_dir: "/benchmarks/sort/in".into(),
            output_dir: "/benchmarks/sort/out".into(),
            real_sort: false,
        }
    }
}

/// Sort benchmark outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SortResult {
    /// TeraGen phase time.
    pub gen_time: Duration,
    /// Sort job time (the number the paper reports).
    pub sort_time: Duration,
    /// Map-phase share of the sort job.
    pub map_phase: Duration,
    /// Map tasks that ran node-local.
    pub local_maps: usize,
    /// Total map tasks.
    pub maps: usize,
    /// Dataset size.
    pub bytes: u64,
}

/// Generate the input dataset (TeraGen).
pub async fn teragen(
    sim: &Sim,
    nodes: &[NodeId],
    fs_for: &dyn Fn(NodeId) -> AnyFs,
    pool: &PayloadPool,
    cfg: &SortConfig,
) -> Result<Duration, FsError> {
    let t0 = sim.now();
    let per_file = cfg.data_size / cfg.input_files as u64;
    let mut tasks = Vec::new();
    for i in 0..cfg.input_files {
        let node = nodes[i % nodes.len()];
        let fs = fs_for(node);
        let pool = pool.clone();
        let path = format!("{}/part-{i:05}", cfg.input_dir);
        let sim = sim.clone();
        tasks.push(async move {
            let w = fs.create(&path).await?;
            for piece in pool.stream(i as u64 * 104_729, per_file, 1 << 20) {
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
    Ok(sim.now() - t0)
}

/// Run the sort job over previously generated input.
pub async fn sort(
    engine: &Rc<MrEngine>,
    fs_for: &dyn Fn(NodeId) -> AnyFs,
    cfg: &SortConfig,
) -> Result<SortResult, FsError> {
    let inputs: Vec<String> = (0..cfg.input_files)
        .map(|i| format!("{}/part-{i:05}", cfg.input_dir))
        .collect();
    let logic: Rc<dyn mapred::JobLogic> = if cfg.real_sort {
        Rc::new(RecordSortLogic)
    } else {
        Rc::new(SyntheticShuffleLogic::sort())
    };
    let report = engine
        .run(
            fs_for,
            JobSpec {
                name: "sort".into(),
                inputs,
                output_dir: cfg.output_dir.clone(),
                reducers: cfg.reducers,
                logic,
            },
        )
        .await?;
    Ok(SortResult {
        gen_time: Duration::ZERO,
        sort_time: report.elapsed,
        map_phase: report.map_phase,
        local_maps: report.local_maps,
        maps: report.maps,
        bytes: report.bytes_read,
    })
}

/// TeraGen then Sort, returning both phase times.
pub async fn generate_and_sort(
    engine: &Rc<MrEngine>,
    nodes: &[NodeId],
    fs_for: &dyn Fn(NodeId) -> AnyFs,
    pool: &PayloadPool,
    cfg: &SortConfig,
) -> Result<SortResult, FsError> {
    let sim = engine.sim_handle();
    let gen_time = teragen(&sim, nodes, fs_for, pool, cfg).await?;
    let mut result = sort(engine, fs_for, cfg).await?;
    result.gen_time = gen_time;
    Ok(result)
}

/// Helper: write a real TeraSort-style record dataset (for `real_sort`
/// correctness runs) — 100-byte records with pseudorandom 10-byte keys.
pub async fn teragen_real(
    fs: &AnyFs,
    path: &str,
    n_records: usize,
    seed: u64,
) -> Result<(), FsError> {
    use bytes::{BufMut, BytesMut};
    let mut buf = BytesMut::with_capacity(n_records * 100);
    let mut x = seed | 1;
    for _ in 0..n_records {
        let mut rec = [0u8; 100];
        for b in rec.iter_mut().take(10) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (x >> 33) as u8;
        }
        buf.put_slice(&rec);
    }
    let w = fs.create(path).await?;
    w.append(buf.freeze()).await?;
    w.close().await?;
    Ok(())
}
