//! A SWIM-style mixed workload (experiment E10): a stream of MapReduce
//! jobs with heavy-tailed input sizes and Poisson arrivals, as produced by
//! the Facebook-trace-derived SWIM generator the paper's "I/O-intensive
//! workloads" section uses.

use std::rc::Rc;
use std::time::Duration;

use bb_core::fs::{AnyFs, FsError};
use mapred::logic::SyntheticShuffleLogic;
use mapred::{JobSpec, MrEngine};
use netsim::NodeId;
use simkit::future::join_all;
use simkit::{dur, SimRng};

use crate::payload::PayloadPool;
use crate::sortbench;

/// Mean interarrival time (exponential).
const MEAN_INTERARRIVAL: Duration = Duration::from_secs(4);

/// Fraction of shuffle-heavy (sort-shaped) jobs; the rest aggregate.
const SHUFFLE_HEAVY_FRACTION: f64 = 0.3;

/// Reducers per job.
const REDUCERS: usize = 8;

/// Trace parameters.
#[derive(Debug, Clone)]
pub struct SwimConfig {
    /// Number of jobs in the trace.
    pub jobs: usize,
    /// Smallest job input.
    pub min_input: u64,
    /// Heavy-tail scale: job input = `min_input × exp(sample)` capped here.
    pub max_input: u64,
    /// Workspace directory.
    pub dir: String,
    /// Trace seed.
    pub seed: u64,
}

impl Default for SwimConfig {
    fn default() -> Self {
        SwimConfig {
            jobs: 20,
            min_input: 64 << 20,
            max_input: 2 << 30,
            dir: "/benchmarks/swim".into(),
            seed: 0x5157_494d,
        }
    }
}

/// Trace outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SwimResult {
    /// Time from first arrival to last completion.
    pub makespan: Duration,
    /// Mean job latency (arrival → completion).
    pub mean_job_time: Duration,
    /// 95th-percentile job latency.
    pub p95_job_time: Duration,
    /// Per-job (input bytes, latency).
    pub jobs: Vec<(u64, Duration)>,
}

/// Generate inputs and replay the trace.
pub async fn run(
    engine: &Rc<MrEngine>,
    nodes: &[NodeId],
    fs_for: &dyn Fn(NodeId) -> AnyFs,
    pool: &PayloadPool,
    cfg: &SwimConfig,
) -> Result<SwimResult, FsError> {
    let sim = engine.sim_handle();
    let rng = SimRng::seed_from(cfg.seed);
    // plan the trace deterministically
    struct Planned {
        input: String,
        output: String,
        size: u64,
        arrival: Duration,
        shuffle_heavy: bool,
    }
    let mut plan = Vec::with_capacity(cfg.jobs);
    let mut arrival = Duration::ZERO;
    for j in 0..cfg.jobs {
        arrival += dur::secs_f64(rng.exp(MEAN_INTERARRIVAL.as_secs_f64()));
        let size = ((cfg.min_input as f64) * rng.exp(1.0).exp()).min(cfg.max_input as f64) as u64;
        plan.push(Planned {
            input: format!("{}/in/job{j}", cfg.dir),
            output: format!("{}/out/job{j}", cfg.dir),
            size: size.max(cfg.min_input),
            arrival,
            shuffle_heavy: rng.chance(SHUFFLE_HEAVY_FRACTION),
        });
    }
    // stage all inputs first (not timed as part of the trace)
    let mut gens = Vec::new();
    for (j, p) in plan.iter().enumerate() {
        let node = nodes[j % nodes.len()];
        let fs = fs_for(node);
        let pool = pool.clone();
        let path = p.input.clone();
        let size = p.size;
        gens.push(async move {
            let w = fs.create(&path).await?;
            for piece in pool.stream(path.len() as u64, size, 1 << 20) {
                w.append(piece).await?;
            }
            w.close().await?;
            Ok::<(), FsError>(())
        });
    }
    for r in join_all(&sim, gens).await {
        r?;
    }
    // replay arrivals
    let t0 = sim.now();
    let mut running = Vec::new();
    for p in plan {
        let engine = Rc::clone(engine);
        let input = p.input.clone();
        let output = p.output.clone();
        let size = p.size;
        let shuffle_heavy = p.shuffle_heavy;
        let sim2 = sim.clone();
        let arrival = p.arrival;
        // fs_for is borrowed; materialize per-node clients up front
        let fses: Vec<AnyFs> = nodes.iter().map(|&n| fs_for(n)).collect();
        let nodes_v = nodes.to_vec();
        running.push(sim.spawn(async move {
            sim2.sleep(arrival).await;
            let started = sim2.now();
            let fs_local = move |n: NodeId| {
                let idx = nodes_v.iter().position(|x| *x == n).expect("engine node");
                fses[idx].clone()
            };
            let logic: Rc<dyn mapred::JobLogic> = if shuffle_heavy {
                Rc::new(SyntheticShuffleLogic::sort())
            } else {
                Rc::new(SyntheticShuffleLogic::aggregation(0.1))
            };
            engine
                .run(
                    &fs_local,
                    JobSpec {
                        name: output.clone(),
                        inputs: vec![input],
                        output_dir: output,
                        reducers: REDUCERS,
                        logic,
                    },
                )
                .await?;
            Ok::<(u64, Duration), FsError>((size, sim2.now() - started))
        }));
    }
    let mut jobs = Vec::new();
    for r in join_all(&sim, running).await {
        jobs.push(r?);
    }
    let makespan = sim.now() - t0;
    let mut lat: Vec<Duration> = jobs.iter().map(|(_, d)| *d).collect();
    lat.sort_unstable();
    let mean = lat.iter().sum::<Duration>() / lat.len().max(1) as u32;
    let p95 = lat[((lat.len() as f64 * 0.95) as usize).min(lat.len() - 1)];
    Ok(SwimResult {
        makespan,
        mean_job_time: mean,
        p95_job_time: p95,
        jobs,
    })
}

/// Convenience: PUMA-style single-job drivers (WordCount / Grep) over a
/// staged text dataset — the other half of E10.
pub async fn stage_text(fs: &AnyFs, path: &str, approx_size: u64) -> Result<(), FsError> {
    use bytes::Bytes;
    // realistic-ish text: repeated vocabulary with line structure
    let line = "the quick brown fox jumps over the lazy dog while reading logs\n";
    let mut block = String::with_capacity(1 << 20);
    while block.len() < (1 << 20) - line.len() {
        block.push_str(line);
    }
    let block = Bytes::from(block);
    let w = fs.create(path).await?;
    let mut written = 0u64;
    while written < approx_size {
        w.append(block.clone()).await?;
        written += block.len() as u64;
    }
    w.close().await?;
    Ok(())
}

/// Re-export of the sort benchmark for E10 composition.
pub use sortbench::SortConfig;
