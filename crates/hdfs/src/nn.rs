//! The NameNode: namespace, block map, rack-aware replica placement,
//! liveness tracking, and re-replication of under-replicated blocks.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use netsim::{NodeId, RackId, ReplyHandle, Switchboard};
use simkit::{dur, SimRng, Time};

use crate::HdfsConfig;

/// Globally unique block identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk_{}", self.0)
    }
}

/// NameNode-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Path does not exist.
    NotFound(String),
    /// Path already exists.
    Exists(String),
    /// The file is not open for writing.
    NotUnderConstruction(String),
    /// Not enough live DataNodes to place replicas.
    NoDataNodes,
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::NotFound(p) => write!(f, "no such file: {p}"),
            NnError::Exists(p) => write!(f, "file exists: {p}"),
            NnError::NotUnderConstruction(p) => write!(f, "file not open for write: {p}"),
            NnError::NoDataNodes => f.write_str("no live DataNodes"),
        }
    }
}
impl std::error::Error for NnError {}

/// One block's locations as reported to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockLocation {
    /// Block id.
    pub id: BlockId,
    /// Committed length.
    pub len: u64,
    /// Nodes holding confirmed replicas.
    pub replicas: Vec<NodeId>,
}

/// Metadata returned by `Open`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileInfo {
    /// Blocks in file order.
    pub blocks: Vec<BlockLocation>,
    /// Total file size.
    pub size: u64,
    /// Block size the file was written with.
    pub block_size: u64,
}

/// Commands the NameNode piggybacks on heartbeat replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnCommand {
    /// Copy `block` to `target` (the receiving DataNode holds a replica).
    Replicate {
        /// Block to copy.
        block: BlockId,
        /// Destination DataNode.
        target: NodeId,
    },
    /// Drop the local replica of `block`.
    Invalidate {
        /// Block to drop.
        block: BlockId,
    },
}

/// NameNode RPCs.
pub enum NnMsg {
    /// DataNode registration at startup.
    Register {
        /// The DataNode's node id.
        dn: NodeId,
        /// Reply channel.
        reply: ReplyHandle<()>,
    },
    /// Periodic liveness beacon; replies with pending commands.
    Heartbeat {
        /// The DataNode's node id.
        dn: NodeId,
        /// Reply channel.
        reply: ReplyHandle<Vec<NnCommand>>,
    },
    /// Create a file (under construction).
    Create {
        /// Absolute path.
        path: String,
        /// Replication factor override (0 = cluster default).
        replication: usize,
        /// Reply channel.
        reply: ReplyHandle<Result<(), NnError>>,
    },
    /// Allocate the next block and its pipeline.
    AddBlock {
        /// File being written.
        path: String,
        /// Writer's node (for local placement).
        writer: NodeId,
        /// Nodes to avoid (failed pipeline members).
        exclude: Vec<NodeId>,
        /// A failed block to drop from the file, if any.
        abandon: Option<BlockId>,
        /// Reply channel.
        reply: ReplyHandle<Result<(BlockId, Vec<NodeId>), NnError>>,
    },
    /// A DataNode confirms it stored a finalized block replica.
    BlockReceived {
        /// Reporting DataNode.
        dn: NodeId,
        /// The block.
        block: BlockId,
        /// Finalized length.
        len: u64,
    },
    /// Seal a file.
    Complete {
        /// File path.
        path: String,
        /// Final size.
        size: u64,
        /// Reply channel.
        reply: ReplyHandle<Result<(), NnError>>,
    },
    /// Fetch file metadata + block locations.
    Open {
        /// File path.
        path: String,
        /// Reply channel.
        reply: ReplyHandle<Result<FileInfo, NnError>>,
    },
    /// Remove a file (replicas invalidated lazily via heartbeats).
    Delete {
        /// File path.
        path: String,
        /// Reply channel.
        reply: ReplyHandle<Result<(), NnError>>,
    },
    /// List paths under a prefix.
    List {
        /// Path prefix.
        prefix: String,
        /// Reply channel.
        reply: ReplyHandle<Vec<String>>,
    },
}

struct FileEntry {
    blocks: Vec<BlockId>,
    replication: usize,
    size: u64,
    complete: bool,
}

struct BlockEntry {
    len: u64,
    replicas: Vec<NodeId>,
    /// Target replication (from the owning file).
    want: usize,
}

struct DnState {
    last_seen: Time,
    alive: bool,
}

/// NameNode counters for diagnostics and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NnStats {
    /// Files in the namespace.
    pub files: u64,
    /// Blocks tracked.
    pub blocks: u64,
    /// Blocks below their target replication.
    pub under_replicated: u64,
    /// DataNodes currently declared dead.
    pub dead_dns: u64,
    /// Re-replication commands issued.
    pub replications_issued: u64,
}

/// Mailbox service name.
pub const NN_SERVICE: &str = "hdfs-nn";

/// NameNode service time per RPC.
const SERVICE_TIME: Duration = dur::us(50);

/// Declare a DataNode dead after this much heartbeat silence.
const DEAD_AFTER: Duration = dur::secs(10);

/// The NameNode process.
pub struct NameNode {
    node: NodeId,
    net: Rc<Switchboard<NnMsg>>,
    config: HdfsConfig,
    files: RefCell<HashMap<String, FileEntry>>,
    blocks: RefCell<HashMap<BlockId, BlockEntry>>,
    dns: RefCell<HashMap<NodeId, DnState>>,
    under_replicated: RefCell<BTreeSet<BlockId>>,
    invalidations: RefCell<HashMap<NodeId, Vec<BlockId>>>,
    next_block: RefCell<u64>,
    rng: SimRng,
    replications_issued: RefCell<u64>,
}

impl NameNode {
    /// Spawn the NameNode process on `node`.
    pub fn spawn(net: Rc<Switchboard<NnMsg>>, node: NodeId, config: HdfsConfig) -> Rc<NameNode> {
        let nn = Rc::new(NameNode {
            node,
            net: Rc::clone(&net),
            config,
            files: RefCell::new(HashMap::new()),
            blocks: RefCell::new(HashMap::new()),
            dns: RefCell::new(HashMap::new()),
            under_replicated: RefCell::new(BTreeSet::new()),
            invalidations: RefCell::new(HashMap::new()),
            next_block: RefCell::new(1),
            rng: SimRng::seed_from(0x4e4e ^ node.0 as u64),
            replications_issued: RefCell::new(0),
        });
        let mut rx = net.register(node, NN_SERVICE);
        let sim = net.fabric().sim().clone();
        let ops = sim.metrics().counter("hdfs.nn.ops");
        // namespace gauges piggyback on NnStats via sampled metrics
        for (name, pick) in [
            ("hdfs.nn.files", 0usize),
            ("hdfs.nn.blocks", 1),
            ("hdfs.nn.under_replicated", 2),
            ("hdfs.nn.replications_issued", 3),
        ] {
            let weak = Rc::downgrade(&nn);
            sim.metrics().sampled(name, move || {
                let s = weak.upgrade().map(|n| n.stats()).unwrap_or_default();
                simkit::telemetry::MetricValue::Counter(match pick {
                    0 => s.files,
                    1 => s.blocks,
                    2 => s.under_replicated,
                    _ => s.replications_issued,
                })
            });
        }
        let this = Rc::clone(&nn);
        sim.clone().spawn(async move {
            while let Ok(env) = rx.recv().await {
                let _sp = sim.span("nn.op", "hdfs", this.node.0, 0);
                ops.inc();
                sim.sleep(SERVICE_TIME).await;
                this.handle(env.msg);
            }
        });
        nn
    }

    /// Fabric node of the NameNode.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Snapshot of counters.
    pub fn stats(&self) -> NnStats {
        NnStats {
            files: self.files.borrow().len() as u64,
            blocks: self.blocks.borrow().len() as u64,
            under_replicated: self.under_replicated.borrow().len() as u64,
            dead_dns: self.dns.borrow().values().filter(|d| !d.alive).count() as u64,
            replications_issued: *self.replications_issued.borrow(),
        }
    }

    fn now(&self) -> Time {
        self.net.fabric().sim().now()
    }

    fn rack(&self, node: NodeId) -> RackId {
        self.net.fabric().rack_of(node)
    }

    fn live_dns(&self) -> Vec<NodeId> {
        let dns = self.dns.borrow();
        let mut v: Vec<NodeId> = dns
            .iter()
            .filter(|(_, s)| s.alive)
            .map(|(n, _)| *n)
            .collect();
        v.sort();
        v
    }

    /// Rack-aware placement: writer-local first, then a different rack,
    /// then the second target's rack, then random.
    fn place(
        &self,
        writer: NodeId,
        count: usize,
        exclude: &[NodeId],
    ) -> Result<Vec<NodeId>, NnError> {
        let live = self.live_dns();
        let mut pool: Vec<NodeId> = live.into_iter().filter(|n| !exclude.contains(n)).collect();
        if pool.is_empty() {
            return Err(NnError::NoDataNodes);
        }
        let mut targets = Vec::with_capacity(count);
        // 1st: writer-local when the writer hosts a live DataNode
        if let Some(pos) = pool.iter().position(|n| *n == writer) {
            targets.push(pool.swap_remove(pos));
        } else if !pool.is_empty() {
            let i = self.rng.index(pool.len());
            targets.push(pool.swap_remove(i));
        }
        // 2nd: a different rack than the first, when possible
        if targets.len() < count && !pool.is_empty() {
            let first_rack = self.rack(targets[0]);
            let candidates: Vec<usize> = pool
                .iter()
                .enumerate()
                .filter(|(_, n)| self.rack(**n) != first_rack)
                .map(|(i, _)| i)
                .collect();
            let pick = if candidates.is_empty() {
                self.rng.index(pool.len())
            } else {
                candidates[self.rng.index(candidates.len())]
            };
            targets.push(pool.swap_remove(pick));
        }
        // 3rd: same rack as the second, when possible
        if targets.len() < count && !pool.is_empty() {
            let second_rack = self.rack(targets[1]);
            let candidates: Vec<usize> = pool
                .iter()
                .enumerate()
                .filter(|(_, n)| self.rack(**n) == second_rack)
                .map(|(i, _)| i)
                .collect();
            let pick = if candidates.is_empty() {
                self.rng.index(pool.len())
            } else {
                candidates[self.rng.index(candidates.len())]
            };
            targets.push(pool.swap_remove(pick));
        }
        // rest: random
        while targets.len() < count && !pool.is_empty() {
            let i = self.rng.index(pool.len());
            targets.push(pool.swap_remove(i));
        }
        if targets.is_empty() {
            Err(NnError::NoDataNodes)
        } else {
            Ok(targets)
        }
    }

    /// Mark silent DataNodes dead and queue their blocks for re-replication.
    fn check_liveness(&self) {
        let now = self.now();
        let mut newly_dead = Vec::new();
        {
            let mut dns = self.dns.borrow_mut();
            for (node, st) in dns.iter_mut() {
                if st.alive && now.since(st.last_seen) > DEAD_AFTER {
                    st.alive = false;
                    newly_dead.push(*node);
                }
            }
        }
        if newly_dead.is_empty() {
            return;
        }
        let mut blocks = self.blocks.borrow_mut();
        let mut under = self.under_replicated.borrow_mut();
        for (id, entry) in blocks.iter_mut() {
            let before = entry.replicas.len();
            entry.replicas.retain(|n| !newly_dead.contains(n));
            if entry.replicas.len() < before && !entry.replicas.is_empty() {
                under.insert(*id);
            }
        }
    }

    /// Build commands for a heartbeating DataNode: invalidations plus up to
    /// a few re-replication orders for blocks it holds.
    fn commands_for(&self, dn: NodeId) -> Vec<NnCommand> {
        let mut out = Vec::new();
        if let Some(inv) = self.invalidations.borrow_mut().remove(&dn) {
            out.extend(inv.into_iter().map(|block| NnCommand::Invalidate { block }));
        }
        const MAX_REPLICATIONS_PER_BEAT: usize = 4;
        let mut issued = Vec::new();
        {
            let under = self.under_replicated.borrow();
            let blocks = self.blocks.borrow();
            for &block in under.iter() {
                if issued.len() >= MAX_REPLICATIONS_PER_BEAT {
                    break;
                }
                let Some(entry) = blocks.get(&block) else {
                    continue;
                };
                if !entry.replicas.contains(&dn) {
                    continue;
                }
                if entry.replicas.len() >= entry.want {
                    continue;
                }
                if let Ok(targets) = self.place(dn, 1, &entry.replicas) {
                    issued.push((block, targets[0]));
                }
            }
        }
        for (block, target) in issued {
            *self.replications_issued.borrow_mut() += 1;
            out.push(NnCommand::Replicate { block, target });
        }
        out
    }

    fn handle(&self, msg: NnMsg) {
        match msg {
            NnMsg::Register { dn, reply } => {
                self.dns.borrow_mut().insert(
                    dn,
                    DnState {
                        last_seen: self.now(),
                        alive: true,
                    },
                );
                reply.send((), 64);
            }
            NnMsg::Heartbeat { dn, reply } => {
                {
                    let mut dns = self.dns.borrow_mut();
                    if let Some(st) = dns.get_mut(&dn) {
                        st.last_seen = self.now();
                        // a heartbeat from a dead node revives it (restart)
                        st.alive = true;
                    }
                }
                self.check_liveness();
                let cmds = self.commands_for(dn);
                let bytes = 64 + cmds.len() as u64 * 24;
                reply.send(cmds, bytes);
            }
            NnMsg::Create {
                path,
                replication,
                reply,
            } => {
                let mut files = self.files.borrow_mut();
                let r = match files.entry(path) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        Err(NnError::Exists(e.key().clone()))
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let repl = if replication == 0 {
                            self.config.replication
                        } else {
                            replication
                        };
                        e.insert(FileEntry {
                            blocks: Vec::new(),
                            replication: repl,
                            size: 0,
                            complete: false,
                        });
                        Ok(())
                    }
                };
                reply.send(r, 64);
            }
            NnMsg::AddBlock {
                path,
                writer,
                exclude,
                abandon,
                reply,
            } => {
                let r = self.add_block(&path, writer, &exclude, abandon);
                reply.send(r, 256);
            }
            NnMsg::BlockReceived { dn, block, len } => {
                let mut blocks = self.blocks.borrow_mut();
                if let Some(entry) = blocks.get_mut(&block) {
                    entry.len = len;
                    if !entry.replicas.contains(&dn) {
                        entry.replicas.push(dn);
                    }
                    if entry.replicas.len() >= entry.want {
                        self.under_replicated.borrow_mut().remove(&block);
                    }
                }
            }
            NnMsg::Complete { path, size, reply } => {
                let mut files = self.files.borrow_mut();
                let r = match files.get_mut(&path) {
                    None => Err(NnError::NotFound(path)),
                    Some(f) if f.complete => Err(NnError::NotUnderConstruction(path)),
                    Some(f) => {
                        f.complete = true;
                        f.size = size;
                        Ok(())
                    }
                };
                reply.send(r, 64);
            }
            NnMsg::Open { path, reply } => {
                let files = self.files.borrow();
                let blocks = self.blocks.borrow();
                let r = match files.get(&path) {
                    None => Err(NnError::NotFound(path)),
                    Some(f) => Ok(FileInfo {
                        blocks: f
                            .blocks
                            .iter()
                            .map(|id| {
                                let e = blocks.get(id).expect("file block missing from map");
                                BlockLocation {
                                    id: *id,
                                    len: e.len,
                                    replicas: e.replicas.clone(),
                                }
                            })
                            .collect(),
                        size: f.size,
                        block_size: self.config.block_size,
                    }),
                };
                let bytes = 128 + r.as_ref().map(|i| i.blocks.len() as u64 * 48).unwrap_or(0);
                reply.send(r, bytes);
            }
            NnMsg::Delete { path, reply } => {
                let removed = self.files.borrow_mut().remove(&path);
                let r = match removed {
                    None => Err(NnError::NotFound(path)),
                    Some(f) => {
                        let mut blocks = self.blocks.borrow_mut();
                        let mut inv = self.invalidations.borrow_mut();
                        for id in f.blocks {
                            if let Some(e) = blocks.remove(&id) {
                                for dn in e.replicas {
                                    inv.entry(dn).or_default().push(id);
                                }
                            }
                            self.under_replicated.borrow_mut().remove(&id);
                        }
                        Ok(())
                    }
                };
                reply.send(r, 64);
            }
            NnMsg::List { prefix, reply } => {
                let mut v: Vec<String> = self
                    .files
                    .borrow()
                    .keys()
                    .filter(|p| p.starts_with(&prefix))
                    .cloned()
                    .collect();
                v.sort();
                let bytes = v.iter().map(|p| p.len() as u64 + 8).sum::<u64>().max(64);
                reply.send(v, bytes);
            }
        }
    }

    fn add_block(
        &self,
        path: &str,
        writer: NodeId,
        exclude: &[NodeId],
        abandon: Option<BlockId>,
    ) -> Result<(BlockId, Vec<NodeId>), NnError> {
        let mut files = self.files.borrow_mut();
        let f = files
            .get_mut(path)
            .ok_or_else(|| NnError::NotFound(path.to_owned()))?;
        if f.complete {
            return Err(NnError::NotUnderConstruction(path.to_owned()));
        }
        if let Some(bad) = abandon {
            f.blocks.retain(|b| *b != bad);
            self.blocks.borrow_mut().remove(&bad);
        }
        let targets = self.place(writer, f.replication, exclude)?;
        let id = {
            let mut nb = self.next_block.borrow_mut();
            let v = BlockId(*nb);
            *nb += 1;
            v
        };
        f.blocks.push(id);
        self.blocks.borrow_mut().insert(
            id,
            BlockEntry {
                len: 0,
                replicas: Vec::new(),
                want: f.replication,
            },
        );
        Ok((id, targets))
    }
}
