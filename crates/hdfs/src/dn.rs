//! DataNodes: local block storage, the replication pipeline, block serving,
//! heartbeats, and NameNode-commanded re-replication/invalidation.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use netsim::{NodeId, ReplyHandle, RpcError, Switchboard};
use simkit::dur;
use storesim::{Disk, DiskParams, ObjectStore, StoreError};

use crate::nn::{BlockId, NnCommand, NnMsg, NN_SERVICE};
use crate::HdfsConfig;

/// DataNode-level failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnError {
    /// Local storage failure.
    Store(StoreError),
    /// Downstream pipeline failure.
    Pipeline,
    /// Block length mismatch at commit.
    Incomplete,
}

impl fmt::Display for DnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnError::Store(e) => write!(f, "datanode storage: {e}"),
            DnError::Pipeline => f.write_str("downstream pipeline failed"),
            DnError::Incomplete => f.write_str("block incomplete at commit"),
        }
    }
}
impl std::error::Error for DnError {}

impl From<StoreError> for DnError {
    fn from(e: StoreError) -> Self {
        DnError::Store(e)
    }
}
impl From<RpcError> for DnError {
    fn from(_: RpcError) -> Self {
        DnError::Pipeline
    }
}

/// DataNode data-transfer messages.
pub enum DnMsg {
    /// One packet of a block write; forwarded down `downstream`.
    WritePacket {
        /// Block being written.
        block: BlockId,
        /// Packet offset within the block.
        offset: u64,
        /// Packet payload.
        data: Bytes,
        /// Remaining pipeline after this node.
        downstream: Vec<NodeId>,
        /// Acked when local write + downstream ack complete.
        reply: ReplyHandle<Result<(), DnError>>,
    },
    /// Finalize a block along the pipeline.
    CommitBlock {
        /// Block to finalize.
        block: BlockId,
        /// Expected length.
        len: u64,
        /// Remaining pipeline after this node.
        downstream: Vec<NodeId>,
        /// Acked when the whole remaining pipeline committed.
        reply: ReplyHandle<Result<(), DnError>>,
    },
    /// Serve part of a block.
    ReadBlock {
        /// Block to read.
        block: BlockId,
        /// Offset within the block.
        offset: u64,
        /// Bytes to read.
        len: u64,
        /// Reply carries the data.
        reply: ReplyHandle<Result<Bytes, DnError>>,
    },
}

/// Mailbox service name for DataNode traffic.
pub const DN_SERVICE: &str = "hdfs-dn";

/// Heartbeat interval.
const HEARTBEAT: Duration = dur::secs(3);

/// A DataNode process co-located with a compute node.
pub struct DataNode {
    node: NodeId,
    nn_node: NodeId,
    store: Rc<ObjectStore>,
    dn_net: Rc<Switchboard<DnMsg>>,
    nn_net: Rc<Switchboard<NnMsg>>,
    config: HdfsConfig,
    hb_running: Rc<Cell<bool>>,
    blocks_received: Cell<u64>,
    replications_done: Cell<u64>,
    read_bytes: simkit::telemetry::Counter,
    write_bytes: simkit::telemetry::Counter,
}

impl DataNode {
    /// Start a DataNode on `node`: registers with the NameNode, begins
    /// heartbeating, and serves data traffic.
    pub fn spawn(
        dn_net: Rc<Switchboard<DnMsg>>,
        nn_net: Rc<Switchboard<NnMsg>>,
        node: NodeId,
        nn_node: NodeId,
        config: HdfsConfig,
    ) -> Rc<DataNode> {
        let sim = dn_net.fabric().sim().clone();
        let disk = Disk::new(
            sim.clone(),
            DiskParams::of(config.dn_disk, config.dn_capacity),
        );
        let dn = Rc::new(DataNode {
            node,
            nn_node,
            store: ObjectStore::new(disk),
            dn_net: Rc::clone(&dn_net),
            nn_net,
            config,
            hb_running: Rc::new(Cell::new(true)),
            blocks_received: Cell::new(0),
            replications_done: Cell::new(0),
            read_bytes: sim
                .metrics()
                .counter(format!("hdfs.dn{}.read_bytes", node.0)),
            write_bytes: sim
                .metrics()
                .counter(format!("hdfs.dn{}.write_bytes", node.0)),
        });
        // data-traffic loop: handle each message concurrently (the disk
        // device serializes at the channel)
        let mut rx = dn_net.register(node, DN_SERVICE);
        let this = Rc::clone(&dn);
        sim.clone().spawn(async move {
            while let Ok(env) = rx.recv().await {
                let this = Rc::clone(&this);
                this.dn_net.fabric().sim().clone().spawn(async move {
                    this.handle(env.msg).await;
                });
            }
        });
        // registration + heartbeat loop
        let this = Rc::clone(&dn);
        sim.clone().spawn(async move {
            let _ = this
                .nn_net
                .call(this.node, this.nn_node, NN_SERVICE, 64, |reply| {
                    NnMsg::Register {
                        dn: this.node,
                        reply,
                    }
                })
                .await;
            this.heartbeat_loop().await;
        });
        dn
    }

    /// Fabric node this DataNode runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Local block store.
    pub fn store(&self) -> &Rc<ObjectStore> {
        &self.store
    }

    /// Finalized replicas received (writes + re-replications).
    pub fn blocks_received(&self) -> u64 {
        self.blocks_received.get()
    }

    /// Re-replication commands executed.
    pub fn replications_done(&self) -> u64 {
        self.replications_done.get()
    }

    /// Stop the heartbeat loop (cluster shutdown, or node crash).
    pub fn stop_heartbeat(&self) {
        self.hb_running.set(false);
    }

    /// Crash the node: heartbeats stop, the fabric endpoint goes down, and
    /// the local disk rejects I/O. Data remains for a later restart.
    pub fn kill(&self) {
        self.stop_heartbeat();
        self.dn_net.fabric().set_up(self.node, false);
        self.store.disk().set_online(false);
    }

    /// Restart after [`DataNode::kill`]: the fabric endpoint and disk come
    /// back and heartbeats resume (the NameNode revives it on first beat).
    pub fn restart(self: &Rc<Self>) {
        self.dn_net.fabric().set_up(self.node, true);
        self.store.disk().set_online(true);
        if !self.hb_running.get() {
            self.hb_running.set(true);
            let this = Rc::clone(self);
            self.dn_net
                .fabric()
                .sim()
                .clone()
                .spawn(async move { this.heartbeat_loop().await });
        }
    }

    async fn heartbeat_loop(self: &Rc<Self>) {
        let sim = self.dn_net.fabric().sim().clone();
        while self.hb_running.get() {
            sim.sleep(HEARTBEAT).await;
            if !self.hb_running.get() {
                break;
            }
            let r = self
                .nn_net
                .call(self.node, self.nn_node, NN_SERVICE, 64, |reply| {
                    NnMsg::Heartbeat {
                        dn: self.node,
                        reply,
                    }
                })
                .await;
            if let Ok(commands) = r {
                for cmd in commands {
                    self.execute(cmd).await;
                }
            }
        }
    }

    async fn execute(self: &Rc<Self>, cmd: NnCommand) {
        match cmd {
            NnCommand::Invalidate { block } => {
                let _ = self.store.delete(block.0);
            }
            NnCommand::Replicate { block, target } => {
                let this = Rc::clone(self);
                let sim = self.dn_net.fabric().sim().clone();
                sim.spawn(async move {
                    if this.replicate(block, target).await.is_ok() {
                        this.replications_done.set(this.replications_done.get() + 1);
                    }
                });
            }
        }
    }

    /// Stream a local block to `target` (re-replication data path).
    async fn replicate(&self, block: BlockId, target: NodeId) -> Result<(), DnError> {
        let len = self.store.object_len(block.0)?;
        let mut off = 0u64;
        while off < len {
            let chunk = (self.config.packet_size).min(len - off);
            let data = self
                .store
                .read_at_opts(block.0, off, chunk, off == 0)
                .await?
                .concat();
            let wire = data.len() as u64 + 64;
            self.dn_net
                .call(self.node, target, DN_SERVICE, wire, |reply| {
                    DnMsg::WritePacket {
                        block,
                        offset: off,
                        data,
                        downstream: Vec::new(),
                        reply,
                    }
                })
                .await??;
            off += chunk;
        }
        self.dn_net
            .call(self.node, target, DN_SERVICE, 64, |reply| {
                DnMsg::CommitBlock {
                    block,
                    len,
                    downstream: Vec::new(),
                    reply,
                }
            })
            .await??;
        Ok(())
    }

    async fn handle(self: &Rc<Self>, msg: DnMsg) {
        match msg {
            DnMsg::WritePacket {
                block,
                offset,
                data,
                downstream,
                reply,
            } => {
                self.write_bytes.add(data.len() as u64);
                let r = self.write_packet(block, offset, data, downstream).await;
                reply.send(r, 16);
            }
            DnMsg::CommitBlock {
                block,
                len,
                downstream,
                reply,
            } => {
                let r = self.commit_block(block, len, downstream).await;
                reply.send(r, 16);
            }
            DnMsg::ReadBlock {
                block,
                offset,
                len,
                reply,
            } => {
                self.read_bytes.add(len);
                let r = self
                    .store
                    .read_at_opts(block.0, offset, len, offset == 0)
                    .await
                    .map(simkit::Gather::concat)
                    .map_err(DnError::from);
                let wire = match &r {
                    Ok(b) => b.len() as u64 + 64,
                    Err(_) => 64,
                };
                reply.send(r, wire);
            }
        }
    }

    async fn write_packet(
        self: &Rc<Self>,
        block: BlockId,
        offset: u64,
        data: Bytes,
        downstream: Vec<NodeId>,
    ) -> Result<(), DnError> {
        let sim = self.dn_net.fabric().sim().clone();
        // forward downstream concurrently with the local disk write
        let forward = if downstream.is_empty() {
            None
        } else {
            let next = downstream[0];
            let rest: Vec<NodeId> = downstream[1..].to_vec();
            let net = Rc::clone(&self.dn_net);
            let src = self.node;
            let fwd_data = data.clone();
            let wire = data.len() as u64 + 64;
            Some(sim.spawn(async move {
                net.call(src, next, DN_SERVICE, wire, |reply| DnMsg::WritePacket {
                    block,
                    offset,
                    data: fwd_data,
                    downstream: rest,
                    reply,
                })
                .await?
            }))
        };
        let local = self
            .store
            .write_at_opts(block.0, offset, data, offset == 0)
            .await
            .map_err(DnError::from);
        let down = match forward {
            None => Ok(()),
            Some(h) => h.await,
        };
        local?;
        down
    }

    async fn commit_block(
        self: &Rc<Self>,
        block: BlockId,
        len: u64,
        downstream: Vec<NodeId>,
    ) -> Result<(), DnError> {
        let have = self.store.object_len(block.0)?;
        if have != len {
            return Err(DnError::Incomplete);
        }
        if !downstream.is_empty() {
            let next = downstream[0];
            let rest: Vec<NodeId> = downstream[1..].to_vec();
            self.dn_net
                .call(self.node, next, DN_SERVICE, 64, |reply| {
                    DnMsg::CommitBlock {
                        block,
                        len,
                        downstream: rest,
                        reply,
                    }
                })
                .await??;
        }
        self.blocks_received.set(self.blocks_received.get() + 1);
        // incremental block report (fire-and-forget, like a real IBR)
        self.nn_net.post(
            self.node,
            self.nn_node,
            NN_SERVICE,
            48,
            NnMsg::BlockReceived {
                dn: self.node,
                block,
                len,
            },
        );
        Ok(())
    }
}
