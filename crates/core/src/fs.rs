//! One interface over the five systems under test: plain HDFS, plain
//! Lustre, and the burst buffer in each of its three schemes. The
//! MapReduce engine and every benchmark workload drive an [`AnyFs`], so a
//! system comparison is exactly the same code against different backends.

use std::fmt;
use std::rc::Rc;

use bytes::Bytes;
use netsim::NodeId;
use simkit::Gather;

use hdfs::{HdfsClient, HdfsError, HdfsReader, HdfsWriter};
use lustre::{LustreClient, LustreError, LustreFile};

use crate::client::{BbClient, BbError, BbReader, BbWriter};

/// Unified filesystem error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// HDFS failure.
    Hdfs(HdfsError),
    /// Lustre failure.
    Lustre(LustreError),
    /// Burst-buffer failure.
    Bb(BbError),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::Hdfs(e) => write!(f, "{e}"),
            FsError::Lustre(e) => write!(f, "{e}"),
            FsError::Bb(e) => write!(f, "{e}"),
        }
    }
}
impl std::error::Error for FsError {}

impl From<HdfsError> for FsError {
    fn from(e: HdfsError) -> Self {
        FsError::Hdfs(e)
    }
}
impl From<LustreError> for FsError {
    fn from(e: LustreError) -> Self {
        FsError::Lustre(e)
    }
}
impl From<BbError> for FsError {
    fn from(e: BbError) -> Self {
        FsError::Bb(e)
    }
}

/// A filesystem client on one compute node.
#[derive(Clone)]
pub enum AnyFs {
    /// Plain HDFS (triple-replicated local disks).
    Hdfs(HdfsClient),
    /// Plain Lustre (direct parallel-filesystem I/O).
    Lustre(LustreClient),
    /// The burst buffer (scheme per its deployment).
    Bb(Rc<BbClient>),
}

impl AnyFs {
    /// System label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            AnyFs::Hdfs(_) => "HDFS",
            AnyFs::Lustre(_) => "Lustre",
            AnyFs::Bb(c) => c.deployment().config.scheme.label(),
        }
    }

    /// The compute node this client runs on.
    pub fn node(&self) -> NodeId {
        match self {
            AnyFs::Hdfs(c) => c.node(),
            AnyFs::Lustre(c) => c.node(),
            AnyFs::Bb(c) => c.node(),
        }
    }

    /// Create a file for writing.
    pub async fn create(&self, path: &str) -> Result<AnyWriter, FsError> {
        Ok(match self {
            AnyFs::Hdfs(c) => AnyWriter::Hdfs(c.create(path).await?),
            AnyFs::Lustre(c) => AnyWriter::Lustre(c.create(path).await?),
            AnyFs::Bb(c) => AnyWriter::Bb(Box::new(c.create(path).await?)),
        })
    }

    /// Open a file for reading.
    pub async fn open(&self, path: &str) -> Result<AnyReader, FsError> {
        Ok(match self {
            AnyFs::Hdfs(c) => AnyReader::Hdfs(c.open(path).await?),
            AnyFs::Lustre(c) => AnyReader::Lustre(c.open(path).await?),
            AnyFs::Bb(c) => AnyReader::Bb(Box::new(c.open(path).await?)),
        })
    }

    /// Delete a file.
    pub async fn delete(&self, path: &str) -> Result<(), FsError> {
        match self {
            AnyFs::Hdfs(c) => c.delete(path).await?,
            AnyFs::Lustre(c) => c.unlink(path).await?,
            AnyFs::Bb(c) => c.delete(path).await?,
        }
        Ok(())
    }

    /// List paths under a prefix.
    pub async fn list(&self, prefix: &str) -> Result<Vec<String>, FsError> {
        Ok(match self {
            AnyFs::Hdfs(c) => c.list(prefix).await?,
            AnyFs::Lustre(c) => c.list(prefix).await?,
            AnyFs::Bb(c) => c.list(prefix).await?,
        })
    }

    /// Whether `path` exists.
    pub async fn exists(&self, path: &str) -> Result<bool, FsError> {
        Ok(match self {
            AnyFs::Hdfs(c) => c.exists(path).await?,
            AnyFs::Lustre(c) => c.exists(path).await?,
            AnyFs::Bb(c) => c.exists(path).await?,
        })
    }
}

/// A unified streaming writer.
pub enum AnyWriter {
    /// HDFS writer.
    Hdfs(HdfsWriter),
    /// Lustre file handle (sequential appends).
    Lustre(LustreFile),
    /// Burst-buffer writer.
    Bb(Box<BbWriter>),
}

impl AnyWriter {
    /// Append data to the stream: one buffer, or a gather of views that
    /// the burst buffer keeps as they are and HDFS and Lustre join.
    pub async fn append(&self, data: impl Into<Gather>) -> Result<(), FsError> {
        let data = data.into();
        match self {
            AnyWriter::Hdfs(w) => w.append(data.concat()).await?,
            AnyWriter::Lustre(w) => w.append(data.concat()).await?,
            AnyWriter::Bb(w) => w.append(data).await?,
        }
        Ok(())
    }

    /// Finish the file.
    pub async fn close(&self) -> Result<(), FsError> {
        match self {
            AnyWriter::Hdfs(w) => w.close().await?,
            AnyWriter::Lustre(w) => w.close().await?,
            AnyWriter::Bb(w) => w.close().await?,
        }
        Ok(())
    }

    /// Bytes written so far.
    pub fn len(&self) -> u64 {
        match self {
            AnyWriter::Hdfs(w) => w.len(),
            AnyWriter::Lustre(w) => w.size(),
            AnyWriter::Bb(w) => w.len(),
        }
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A unified reader.
pub enum AnyReader {
    /// HDFS reader.
    Hdfs(HdfsReader),
    /// Lustre file handle.
    Lustre(LustreFile),
    /// Burst-buffer reader.
    Bb(Box<BbReader>),
}

impl AnyReader {
    /// File size.
    pub fn size(&self) -> u64 {
        match self {
            AnyReader::Hdfs(r) => r.size(),
            AnyReader::Lustre(r) => r.size(),
            AnyReader::Bb(r) => r.size(),
        }
    }

    /// Read `len` bytes at `offset` into one buffer.
    pub async fn read_at(&self, offset: u64, len: u64) -> Result<Bytes, FsError> {
        self.read_gather(offset, len).await.map(Gather::concat)
    }

    /// Read `len` bytes at `offset` as the handles the backend holds,
    /// unjoined: the burst buffer's chunk views, Lustre's stripe replies;
    /// HDFS assembles its blocks into one buffer, a one-element gather.
    pub async fn read_gather(&self, offset: u64, len: u64) -> Result<Gather, FsError> {
        Ok(match self {
            AnyReader::Hdfs(r) => r.read_at(offset, len).await?.into(),
            AnyReader::Lustre(r) => r.read_gather(offset, len).await?,
            AnyReader::Bb(r) => r.read_gather(offset, len).await?,
        })
    }

    /// Read the whole file.
    pub async fn read_all(&self) -> Result<Bytes, FsError> {
        Ok(match self {
            AnyReader::Hdfs(r) => r.read_all().await?,
            AnyReader::Lustre(r) => r.read_all().await?,
            AnyReader::Bb(r) => r.read_all().await?,
        })
    }

    /// Replica locations per block/region for locality-aware task
    /// scheduling. Empty for systems with no node-local placement.
    pub fn locations(&self) -> Vec<Vec<NodeId>> {
        match self {
            AnyReader::Hdfs(r) => r.info().blocks.iter().map(|b| b.replicas.clone()).collect(),
            AnyReader::Lustre(_) => Vec::new(),
            AnyReader::Bb(r) => r.locations(),
        }
    }

    /// Size of one location region (block size), if meaningful.
    pub fn location_region(&self) -> Option<u64> {
        match self {
            AnyReader::Hdfs(r) => Some(r.info().block_size),
            AnyReader::Lustre(_) => None,
            AnyReader::Bb(r) => r.local_block_size(),
        }
    }
}
