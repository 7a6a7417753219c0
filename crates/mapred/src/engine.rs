//! The job engine: split planning, locality-first task scheduling, the
//! map/shuffle/reduce data path, and per-job reporting.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use netsim::{Fabric, NodeId, TransportProfile};
use simkit::future::join_all;
use simkit::resource::FifoServer;
use simkit::sync::semaphore::Semaphore;
use simkit::{dur, Gather, Sim};

use bb_core::fs::{AnyFs, FsError};

use crate::logic::JobLogic;

/// Concurrent map tasks per node.
const MAP_SLOTS: usize = 2;

/// Concurrent reduce tasks per node.
const REDUCE_SLOTS: usize = 2;

/// Node-local spill device rate for map outputs (bytes/s).
const SPILL_RATE: f64 = 400e6;

/// Transport profile for shuffle traffic.
const SHUFFLE: TransportProfile = TransportProfile::ipoib_qdr();

/// Concurrent shuffle fetches per reduce task.
const SHUFFLE_PARALLEL: usize = 4;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct MrConfig {
    /// Split size when the input exposes no block geometry (Lustre).
    pub split_size: u64,
}

impl Default for MrConfig {
    fn default() -> Self {
        MrConfig {
            split_size: 128 << 20,
        }
    }
}

/// One job to run.
pub struct JobSpec {
    /// Job name (reports/diagnostics).
    pub name: String,
    /// Input file paths.
    pub inputs: Vec<String>,
    /// Output directory; reducers write `part-NNNNN` files under it.
    pub output_dir: String,
    /// Number of reduce tasks (0 = map-only job, map outputs discarded).
    pub reducers: usize,
    /// The data transformation.
    pub logic: Rc<dyn JobLogic>,
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobReport {
    /// Total wall-clock (virtual) time.
    pub elapsed: Duration,
    /// End of the map phase relative to job start.
    pub map_phase: Duration,
    /// Map tasks run.
    pub maps: usize,
    /// Map tasks that read a node-local replica.
    pub local_maps: usize,
    /// Reduce tasks run.
    pub reduces: usize,
    /// Input bytes read through the DFS.
    pub bytes_read: u64,
    /// Bytes moved in the shuffle.
    pub bytes_shuffled: u64,
    /// Output bytes written through the DFS.
    pub bytes_written: u64,
}

struct Split {
    path: String,
    offset: u64,
    len: u64,
    preferred: Vec<NodeId>,
}

struct MapOutput {
    node: NodeId,
    /// Per-partition pieces, as views of the split's chunks where the
    /// logic only slices.
    pieces: HashMap<u32, Gather>,
}

/// The engine: bind it to a fabric and a set of compute nodes, then run
/// jobs against any filesystem backend.
pub struct MrEngine {
    fabric: Rc<Fabric>,
    nodes: Vec<NodeId>,
    config: MrConfig,
    spill: HashMap<NodeId, FifoServer>,
}

impl MrEngine {
    /// Create an engine over `nodes`.
    pub fn new(fabric: Rc<Fabric>, nodes: Vec<NodeId>, config: MrConfig) -> Rc<MrEngine> {
        assert!(!nodes.is_empty(), "engine needs compute nodes");
        let sim = fabric.sim().clone();
        let spill = nodes
            .iter()
            .map(|&n| (n, FifoServer::new(sim.clone(), dur::us(20))))
            .collect();
        Rc::new(MrEngine {
            fabric,
            nodes,
            config,
            spill,
        })
    }

    /// The engine's compute nodes.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The simulation clock this engine runs on.
    pub fn sim_handle(&self) -> Sim {
        self.fabric.sim().clone()
    }

    fn sim(&self) -> Sim {
        self.fabric.sim().clone()
    }

    /// Plan splits from the inputs' sizes and block geometry.
    async fn plan(&self, fs: &AnyFs, inputs: &[String]) -> Result<Vec<Split>, FsError> {
        let mut splits = Vec::new();
        for path in inputs {
            let reader = fs.open(path).await?;
            let size = reader.size();
            if size == 0 {
                continue;
            }
            let region = reader.location_region().unwrap_or(self.config.split_size);
            let locations = reader.locations();
            let mut off = 0;
            while off < size {
                let len = region.min(size - off);
                let li = (off / region) as usize;
                let preferred = locations.get(li).cloned().unwrap_or_default();
                splits.push(Split {
                    path: path.clone(),
                    offset: off,
                    len,
                    preferred,
                });
                off += len;
            }
        }
        Ok(splits)
    }

    /// Run `job` with one DFS client per node, produced by `fs_for`.
    pub async fn run(
        self: &Rc<Self>,
        fs_for: &dyn Fn(NodeId) -> AnyFs,
        job: JobSpec,
    ) -> Result<JobReport, FsError> {
        let sim = self.sim();
        let t0 = sim.now();
        let planner_fs = fs_for(self.nodes[0]);
        let splits = Rc::new(RefCell::new(
            self.plan(&planner_fs, &job.inputs)
                .await?
                .into_iter()
                .map(Some)
                .collect::<Vec<Option<Split>>>(),
        ));
        let total_maps = splits.borrow().len();
        let partitions = job.reducers.max(1) as u32;
        let logic: Rc<dyn JobLogic> = Rc::clone(&job.logic);
        let outputs: Rc<RefCell<Vec<Option<MapOutput>>>> =
            Rc::new(RefCell::new((0..total_maps).map(|_| None).collect()));
        let local_maps = Rc::new(RefCell::new(0usize));
        let bytes_read = Rc::new(RefCell::new(0u64));

        // ---- map phase: locality-first workers ----
        let mut workers = Vec::new();
        for &node in &self.nodes {
            for _ in 0..MAP_SLOTS {
                let splits = Rc::clone(&splits);
                let outputs = Rc::clone(&outputs);
                let logic = Rc::clone(&logic);
                let local_maps = Rc::clone(&local_maps);
                let bytes_read = Rc::clone(&bytes_read);
                let fs = fs_for(node);
                let this = Rc::clone(self);
                workers.push(sim.spawn(async move {
                    loop {
                        // pick a split: node-local first, else the next one
                        let picked = {
                            let mut pool = splits.borrow_mut();
                            let idx = pool
                                .iter()
                                .position(|s| {
                                    s.as_ref()
                                        .map(|s| s.preferred.contains(&node))
                                        .unwrap_or(false)
                                })
                                .or_else(|| pool.iter().position(|s| s.is_some()));
                            idx.map(|i| (i, pool[i].take().expect("picked live slot")))
                        };
                        let Some((map_id, split)) = picked else { break };
                        if split.preferred.contains(&node) {
                            *local_maps.borrow_mut() += 1;
                        }
                        let out = this
                            .run_map(&fs, node, map_id, &split, partitions, &*logic)
                            .await?;
                        *bytes_read.borrow_mut() += split.len;
                        outputs.borrow_mut()[map_id] = Some(out);
                    }
                    Ok::<(), FsError>(())
                }));
            }
        }
        for r in join_all(&sim, workers).await {
            r?;
        }
        let map_phase = sim.now() - t0;

        // ---- shuffle + reduce phase ----
        let bytes_shuffled = Rc::new(RefCell::new(0u64));
        let bytes_written = Rc::new(RefCell::new(0u64));
        if job.reducers > 0 {
            let mut reducers = Vec::new();
            let slots: HashMap<NodeId, Rc<Semaphore>> = self
                .nodes
                .iter()
                .map(|&n| (n, Rc::new(Semaphore::new(REDUCE_SLOTS))))
                .collect();
            for r in 0..job.reducers {
                let node = self.nodes[r % self.nodes.len()];
                let outputs = Rc::clone(&outputs);
                let logic = Rc::clone(&logic);
                let fs = fs_for(node);
                let this = Rc::clone(self);
                let out_path = format!("{}/part-{r:05}", job.output_dir);
                let bytes_shuffled = Rc::clone(&bytes_shuffled);
                let bytes_written = Rc::clone(&bytes_written);
                let slot = Rc::clone(&slots[&node]);
                reducers.push(sim.spawn(async move {
                    let _slot = slot.acquire().await;
                    this.run_reduce(
                        &fs,
                        node,
                        r as u32,
                        &outputs,
                        &*logic,
                        &out_path,
                        &bytes_shuffled,
                        &bytes_written,
                    )
                    .await
                }));
            }
            for r in join_all(&sim, reducers).await {
                r?;
            }
        }

        let local = *local_maps.borrow();
        let read = *bytes_read.borrow();
        let shuffled = *bytes_shuffled.borrow();
        let written = *bytes_written.borrow();
        Ok(JobReport {
            elapsed: sim.now() - t0,
            map_phase,
            maps: total_maps,
            local_maps: local,
            reduces: job.reducers,
            bytes_read: read,
            bytes_shuffled: shuffled,
            bytes_written: written,
        })
    }

    async fn run_map(
        &self,
        fs: &AnyFs,
        node: NodeId,
        map_id: usize,
        split: &Split,
        partitions: u32,
        logic: &dyn JobLogic,
    ) -> Result<MapOutput, FsError> {
        let sim = self.sim();
        let reader = fs.open(&split.path).await?;
        let data = reader.read_gather(split.offset, split.len).await?;
        // map CPU
        sim.sleep(dur::transfer(data.len() as u64, logic.map_cpu_rate()))
            .await;
        let pieces_vec = logic.map(map_id, data, partitions);
        // spill map output to the node-local spill device
        let out_bytes: u64 = pieces_vec.iter().map(|(_, g)| g.len() as u64).sum();
        if out_bytes > 0 {
            self.spill[&node]
                .serve_for(dur::transfer(out_bytes, SPILL_RATE))
                .await;
        }
        Ok(MapOutput {
            node,
            pieces: pieces_vec.into_iter().collect(),
        })
    }

    #[allow(clippy::too_many_arguments)]
    async fn run_reduce(
        &self,
        fs: &AnyFs,
        node: NodeId,
        partition: u32,
        outputs: &Rc<RefCell<Vec<Option<MapOutput>>>>,
        logic: &dyn JobLogic,
        out_path: &str,
        bytes_shuffled: &Rc<RefCell<u64>>,
        bytes_written: &Rc<RefCell<u64>>,
    ) -> Result<(), FsError> {
        let sim = self.sim();
        // gather this partition's pieces (map order), fetching remotely
        // held ones over the fabric with bounded parallelism
        let fetch_plan: Vec<(usize, NodeId, Gather)> = {
            let outs = outputs.borrow();
            outs.iter()
                .enumerate()
                .filter_map(|(i, o)| {
                    let o = o.as_ref().expect("map phase completed");
                    o.pieces.get(&partition).map(|b| (i, o.node, b.clone()))
                })
                .collect()
        };
        let window = Rc::new(Semaphore::new(SHUFFLE_PARALLEL));
        let mut fetches = Vec::new();
        for (i, src, piece) in fetch_plan {
            let fabric = Rc::clone(&self.fabric);
            let window = Rc::clone(&window);
            fetches.push(async move {
                let _w = window.acquire().await;
                fabric
                    .transfer(src, node, piece.len() as u64, &SHUFFLE)
                    .await
                    .map_err(|_| FsError::Bb(bb_core::BbError::NotFound("shuffle".into())))?;
                Ok::<(usize, Gather), FsError>((i, piece))
            });
        }
        let mut gathered: Vec<(usize, Gather)> = Vec::new();
        for r in join_all(&sim, fetches).await {
            gathered.push(r?);
        }
        gathered.sort_by_key(|(i, _)| *i);
        let pieces: Vec<Gather> = gathered.into_iter().map(|(_, g)| g).collect();
        let total: u64 = pieces.iter().map(|g| g.len() as u64).sum();
        *bytes_shuffled.borrow_mut() += total;
        // reduce CPU
        sim.sleep(dur::transfer(total, logic.reduce_cpu_rate()))
            .await;
        let outs = logic.reduce(partition, pieces);
        // write output through the DFS
        let writer = fs.create(out_path).await?;
        for chunk in outs {
            *bytes_written.borrow_mut() += chunk.len() as u64;
            writer.append(chunk).await?;
        }
        writer.close().await?;
        Ok(())
    }
}
