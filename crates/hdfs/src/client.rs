//! The DFS client: block-at-a-time pipelined writes with recovery, and
//! locality-aware reads.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use netsim::{NodeId, RpcError};
use simkit::future::join_all;
use simkit::sync::semaphore::Semaphore;

use crate::dn::{DnError, DnMsg, DN_SERVICE};
use crate::nn::{BlockId, FileInfo, NnError, NnMsg, NN_SERVICE};
use crate::HdfsCluster;

/// Packets a writer keeps in flight per pipeline stage.
const WRITE_WINDOW: usize = 8;

/// Client-side per-byte CPU rate (checksumming + copies in the Java
/// DFSClient). Rarely the bottleneck — local disks are slower.
const CLIENT_CPU_RATE: f64 = 400e6;

/// Client-visible failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HdfsError {
    /// NameNode error.
    Nn(NnError),
    /// DataNode error.
    Dn(DnError),
    /// RPC failure.
    Rpc(RpcError),
    /// A block write failed on every pipeline attempt.
    WriteFailed(String),
    /// Every replica of a needed block was unreachable.
    AllReplicasFailed(BlockId),
}

impl fmt::Display for HdfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdfsError::Nn(e) => write!(f, "hdfs namenode: {e}"),
            HdfsError::Dn(e) => write!(f, "hdfs datanode: {e}"),
            HdfsError::Rpc(e) => write!(f, "hdfs rpc: {e}"),
            HdfsError::WriteFailed(p) => write!(f, "block write failed after retries: {p}"),
            HdfsError::AllReplicasFailed(b) => write!(f, "all replicas unreachable for {b}"),
        }
    }
}
impl std::error::Error for HdfsError {}

impl From<NnError> for HdfsError {
    fn from(e: NnError) -> Self {
        HdfsError::Nn(e)
    }
}
impl From<DnError> for HdfsError {
    fn from(e: DnError) -> Self {
        HdfsError::Dn(e)
    }
}
impl From<RpcError> for HdfsError {
    fn from(e: RpcError) -> Self {
        HdfsError::Rpc(e)
    }
}

/// A DFS client bound to one compute node.
#[derive(Clone)]
pub struct HdfsClient {
    cluster: Rc<HdfsCluster>,
    node: NodeId,
}

impl HdfsClient {
    /// Make a client on `node`.
    pub fn new(cluster: Rc<HdfsCluster>, node: NodeId) -> HdfsClient {
        HdfsClient { cluster, node }
    }

    /// The client's compute node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The cluster handle.
    pub fn cluster(&self) -> &Rc<HdfsCluster> {
        &self.cluster
    }

    async fn nn_call<R: 'static>(
        &self,
        bytes: u64,
        make: impl FnOnce(netsim::ReplyHandle<R>) -> NnMsg,
    ) -> Result<R, HdfsError> {
        Ok(self
            .cluster
            .nn_net
            .call(self.node, self.cluster.nn.node(), NN_SERVICE, bytes, make)
            .await?)
    }

    /// Create a file with the cluster's default replication.
    pub async fn create(&self, path: &str) -> Result<HdfsWriter, HdfsError> {
        self.create_with_replication(path, 0).await
    }

    /// Create a file with an explicit replication factor (0 = default).
    pub async fn create_with_replication(
        &self,
        path: &str,
        replication: usize,
    ) -> Result<HdfsWriter, HdfsError> {
        let p = path.to_owned();
        self.nn_call(128 + path.len() as u64, |reply| NnMsg::Create {
            path: p,
            replication,
            reply,
        })
        .await??;
        Ok(HdfsWriter::new(self.clone(), path.to_owned()))
    }

    /// Open a file for reading.
    pub async fn open(&self, path: &str) -> Result<HdfsReader, HdfsError> {
        let p = path.to_owned();
        let info = self
            .nn_call(128 + path.len() as u64, |reply| NnMsg::Open {
                path: p,
                reply,
            })
            .await??;
        Ok(HdfsReader {
            client: self.clone(),
            path: path.to_owned(),
            info,
        })
    }

    /// Whether `path` exists.
    pub async fn exists(&self, path: &str) -> Result<bool, HdfsError> {
        match self.open(path).await {
            Ok(_) => Ok(true),
            Err(HdfsError::Nn(NnError::NotFound(_))) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Delete a file (replicas reaped via heartbeat invalidation).
    pub async fn delete(&self, path: &str) -> Result<(), HdfsError> {
        let p = path.to_owned();
        self.nn_call(128 + path.len() as u64, |reply| NnMsg::Delete {
            path: p,
            reply,
        })
        .await??;
        Ok(())
    }

    /// List paths under `prefix`.
    pub async fn list(&self, prefix: &str) -> Result<Vec<String>, HdfsError> {
        let p = prefix.to_owned();
        self.nn_call(128 + prefix.len() as u64, |reply| NnMsg::List {
            prefix: p,
            reply,
        })
        .await
    }
}

/// Streaming writer: buffers a block's packets (zero-copy slices), then
/// pushes the block through its pipeline; recovers by re-placing the block
/// when a pipeline node fails.
pub struct HdfsWriter {
    client: HdfsClient,
    path: String,
    staged: RefCell<Vec<Bytes>>,
    staged_len: RefCell<u64>,
    total_len: RefCell<u64>,
    blocks_flushed: RefCell<u64>,
    closed: RefCell<bool>,
}

impl HdfsWriter {
    fn new(client: HdfsClient, path: String) -> HdfsWriter {
        HdfsWriter {
            client,
            path,
            staged: RefCell::new(Vec::new()),
            staged_len: RefCell::new(0),
            total_len: RefCell::new(0),
            blocks_flushed: RefCell::new(0),
            closed: RefCell::new(false),
        }
    }

    /// The file path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Bytes accepted so far.
    pub fn len(&self) -> u64 {
        *self.total_len.borrow()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `data`; flushes a block whenever one fills.
    pub async fn append(&self, mut data: Bytes) -> Result<(), HdfsError> {
        assert!(!*self.closed.borrow(), "append after close");
        // client-side checksum/copy cost (serial per writer)
        let sim = self.client.cluster.dn_net.fabric().sim().clone();
        sim.sleep(simkit::dur::transfer(data.len() as u64, CLIENT_CPU_RATE))
            .await;
        let block_size = self.client.cluster.config.block_size;
        *self.total_len.borrow_mut() += data.len() as u64;
        loop {
            let staged = *self.staged_len.borrow();
            let room = block_size - staged;
            if (data.len() as u64) < room {
                if !data.is_empty() {
                    self.staged.borrow_mut().push(data);
                    *self.staged_len.borrow_mut() += {
                        let v = self.staged.borrow();
                        v.last().map(|b| b.len() as u64).unwrap_or(0)
                    };
                }
                return Ok(());
            }
            let head = data.split_to(room as usize);
            self.staged.borrow_mut().push(head);
            *self.staged_len.borrow_mut() = block_size;
            self.flush_block().await?;
        }
    }

    /// Flush the staged (possibly partial) block through a pipeline.
    async fn flush_block(&self) -> Result<(), HdfsError> {
        let len = *self.staged_len.borrow();
        if len == 0 {
            return Ok(());
        }
        let packets = self.packetize();
        let mut exclude: Vec<NodeId> = Vec::new();
        let mut abandon: Option<BlockId> = None;
        const ATTEMPTS: usize = 3;
        for _ in 0..ATTEMPTS {
            let path = self.path.clone();
            let ex = exclude.clone();
            let ab = abandon.take();
            let writer = self.client.node;
            let (block, pipeline) = self
                .client
                .nn_call(256, |reply| NnMsg::AddBlock {
                    path,
                    writer,
                    exclude: ex,
                    abandon: ab,
                    reply,
                })
                .await??;
            match self.stream_block(block, &pipeline, &packets, len).await {
                Ok(()) => {
                    self.staged.borrow_mut().clear();
                    *self.staged_len.borrow_mut() = 0;
                    *self.blocks_flushed.borrow_mut() += 1;
                    return Ok(());
                }
                Err(_) => {
                    // blame the whole pipeline beyond us; the NameNode
                    // re-places from live nodes
                    for n in &pipeline {
                        if !exclude.contains(n) {
                            exclude.push(*n);
                        }
                    }
                    abandon = Some(block);
                }
            }
        }
        Err(HdfsError::WriteFailed(self.path.clone()))
    }

    /// Slice the staged data into packet-sized chunks (zero-copy).
    fn packetize(&self) -> Vec<Bytes> {
        let packet = self.client.cluster.config.packet_size as usize;
        let mut out = Vec::new();
        let mut cur = BytesMut::new();
        for b in self.staged.borrow().iter() {
            let mut b = b.clone();
            while !b.is_empty() {
                if cur.is_empty() && b.len() >= packet {
                    out.push(b.split_to(packet));
                } else {
                    let take = (packet - cur.len()).min(b.len());
                    cur.extend_from_slice(&b.split_to(take));
                    if cur.len() == packet {
                        out.push(std::mem::take(&mut cur).freeze());
                    }
                }
            }
        }
        if !cur.is_empty() {
            out.push(cur.freeze());
        }
        out
    }

    async fn stream_block(
        &self,
        block: BlockId,
        pipeline: &[NodeId],
        packets: &[Bytes],
        len: u64,
    ) -> Result<(), HdfsError> {
        let first = pipeline[0];
        let rest: Vec<NodeId> = pipeline[1..].to_vec();
        let window = Rc::new(Semaphore::new(WRITE_WINDOW));
        let sim = self.client.cluster.dn_net.fabric().sim().clone();
        let mut futs = Vec::new();
        let mut offset = 0u64;
        for p in packets {
            let data = p.clone();
            let net = Rc::clone(&self.client.cluster.dn_net);
            let window = Rc::clone(&window);
            let src = self.client.node;
            let rest = rest.clone();
            let off = offset;
            offset += data.len() as u64;
            futs.push(async move {
                let _slot = window.acquire().await;
                let wire = data.len() as u64 + 64;
                let r: Result<(), DnError> = net
                    .call(src, first, DN_SERVICE, wire, |reply| DnMsg::WritePacket {
                        block,
                        offset: off,
                        data,
                        downstream: rest,
                        reply,
                    })
                    .await
                    .map_err(HdfsError::from)?;
                r.map_err(HdfsError::from)
            });
        }
        for r in join_all(&sim, futs).await {
            r?;
        }
        // finalize along the pipeline
        let r: Result<(), DnError> = self
            .client
            .cluster
            .dn_net
            .call(self.client.node, first, DN_SERVICE, 64, |reply| {
                DnMsg::CommitBlock {
                    block,
                    len,
                    downstream: rest,
                    reply,
                }
            })
            .await
            .map_err(HdfsError::from)?;
        r.map_err(HdfsError::from)
    }

    /// Flush the tail block and seal the file at the NameNode.
    pub async fn close(&self) -> Result<(), HdfsError> {
        assert!(!*self.closed.borrow(), "double close");
        self.flush_block().await?;
        *self.closed.borrow_mut() = true;
        let path = self.path.clone();
        let size = *self.total_len.borrow();
        self.client
            .nn_call(64, |reply| NnMsg::Complete { path, size, reply })
            .await??;
        Ok(())
    }
}

/// Reader with locality-aware replica selection.
pub struct HdfsReader {
    client: HdfsClient,
    path: String,
    info: FileInfo,
}

impl HdfsReader {
    /// The file path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// File size.
    pub fn size(&self) -> u64 {
        self.info.size
    }

    /// Block metadata (for locality-aware scheduling).
    pub fn info(&self) -> &FileInfo {
        &self.info
    }

    /// Order replicas: local node, then local rack, then the rest.
    fn rank_replicas(&self, replicas: &[NodeId]) -> Vec<NodeId> {
        let fabric = self.client.cluster.dn_net.fabric();
        let me = self.client.node;
        let my_rack = fabric.rack_of(me);
        let mut ranked: Vec<NodeId> = replicas.to_vec();
        ranked.sort_by_key(|n| {
            if *n == me {
                0u8
            } else if fabric.rack_of(*n) == my_rack {
                1
            } else {
                2
            }
        });
        ranked
    }

    /// Read `len` bytes at `offset`, fetching each covered block portion
    /// from its best reachable replica.
    pub async fn read_at(&self, offset: u64, len: u64) -> Result<Bytes, HdfsError> {
        let out_of_range = HdfsError::Dn(DnError::Store(storesim::StoreError::OutOfRange));
        // what the blocks hold, not `info.size`: a file still being
        // written reports size 0 but serves the blocks it has
        let stored: u64 = self.info.blocks.iter().map(|b| b.len).sum();
        let end = match offset.checked_add(len) {
            Some(end) if end <= stored => end,
            _ => return Err(out_of_range),
        };
        let block_size = self.info.block_size;
        let mut out = BytesMut::with_capacity(len as usize);
        let mut pos = offset;
        while pos < end {
            let bi = (pos / block_size) as usize;
            let Some(loc) = self.info.blocks.get(bi) else {
                return Err(out_of_range);
            };
            let within = pos % block_size;
            let chunk = (block_size - within).min(end - pos).min(loc.len - within);
            let mut got = None;
            for replica in self.rank_replicas(&loc.replicas) {
                let r: Result<Result<Bytes, DnError>, RpcError> = self
                    .client
                    .cluster
                    .dn_net
                    .call(self.client.node, replica, DN_SERVICE, 64, |reply| {
                        DnMsg::ReadBlock {
                            block: loc.id,
                            offset: within,
                            len: chunk,
                            reply,
                        }
                    })
                    .await;
                if let Ok(Ok(data)) = r {
                    got = Some(data);
                    break;
                }
            }
            match got {
                Some(data) => {
                    // client-side checksum verification on read
                    let sim = self.client.cluster.dn_net.fabric().sim().clone();
                    sim.sleep(simkit::dur::transfer(data.len() as u64, CLIENT_CPU_RATE))
                        .await;
                    out.extend_from_slice(&data)
                }
                None => return Err(HdfsError::AllReplicasFailed(loc.id)),
            }
            pos += chunk;
        }
        Ok(out.freeze())
    }

    /// Read the entire file.
    pub async fn read_all(&self) -> Result<Bytes, HdfsError> {
        if self.info.size == 0 {
            return Ok(Bytes::new());
        }
        self.read_at(0, self.info.size).await
    }
}
