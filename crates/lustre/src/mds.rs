//! The metadata server: namespace, file layouts, and sizes.
//!
//! One simulated process serves all metadata RPCs serially with a fixed
//! service time — matching the single-MDS bottleneck of classic Lustre.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use netsim::{NodeId, ReplyHandle, Switchboard};
use simkit::dur;

use crate::LustreConfig;

/// Metadata-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdsError {
    /// Path does not exist.
    NotFound(String),
    /// Path already exists (create).
    Exists(String),
}

impl fmt::Display for MdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdsError::NotFound(p) => write!(f, "no such file: {p}"),
            MdsError::Exists(p) => write!(f, "file exists: {p}"),
        }
    }
}
impl std::error::Error for MdsError {}

/// Where a file's data lives: which OSTs, in stripe order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileLayout {
    /// Unique file id; doubles as the object id on every stripe OST.
    pub file_id: u64,
    /// OST indices in stripe order.
    pub osts: Vec<usize>,
    /// Stripe size in bytes.
    pub stripe_size: u64,
    /// Known file size (updated on close).
    pub size: u64,
}

impl FileLayout {
    /// Map a byte offset to (stripe-OST slot, object offset).
    pub fn locate(&self, offset: u64) -> (usize, u64) {
        let stripe_index = offset / self.stripe_size;
        let slot = (stripe_index as usize) % self.osts.len();
        let round = stripe_index / self.osts.len() as u64;
        let within = offset % self.stripe_size;
        (slot, round * self.stripe_size + within)
    }
}

/// Metadata RPCs.
pub enum MdsMsg {
    /// Create a file; returns its layout.
    Create {
        /// Absolute path.
        path: String,
        /// Reply channel.
        reply: ReplyHandle<Result<FileLayout, MdsError>>,
    },
    /// Fetch layout + size.
    Open {
        /// Absolute path.
        path: String,
        /// Reply channel.
        reply: ReplyHandle<Result<FileLayout, MdsError>>,
    },
    /// Record the final size at close.
    SetSize {
        /// Absolute path.
        path: String,
        /// New size.
        size: u64,
        /// Reply channel.
        reply: ReplyHandle<Result<(), MdsError>>,
    },
    /// Remove a file; returns its layout so the client can reap objects.
    Unlink {
        /// Absolute path.
        path: String,
        /// Reply channel.
        reply: ReplyHandle<Result<FileLayout, MdsError>>,
    },
    /// List paths under a prefix.
    List {
        /// Path prefix.
        prefix: String,
        /// Reply channel.
        reply: ReplyHandle<Vec<String>>,
    },
}

/// The metadata server process.
pub struct Mds {
    node: NodeId,
    files: RefCell<HashMap<String, FileLayout>>,
    next_file_id: RefCell<u64>,
    next_ost: RefCell<usize>,
    total_osts: usize,
    config: LustreConfig,
}

/// Mailbox service name for the MDS.
pub const MDS_SERVICE: &str = "lustre-mds";

/// MDS service time per metadata operation.
const SERVICE_TIME: Duration = dur::us(100);

impl Mds {
    /// Spawn the MDS process on `node`.
    pub fn spawn(
        net: Rc<Switchboard<MdsMsg>>,
        node: NodeId,
        total_osts: usize,
        config: LustreConfig,
    ) -> Rc<Mds> {
        let mds = Rc::new(Mds {
            node,
            files: RefCell::new(HashMap::new()),
            next_file_id: RefCell::new(1),
            next_ost: RefCell::new(0),
            total_osts,
            config,
        });
        let mut rx = net.register(node, MDS_SERVICE);
        let sim = net.fabric().sim().clone();
        let ops = sim.metrics().counter("lustre.mds.ops");
        let this = Rc::clone(&mds);
        sim.clone().spawn(async move {
            while let Ok(env) = rx.recv().await {
                let _sp = sim.span("mds.op", "lustre", this.node.0, 0);
                ops.inc();
                sim.sleep(SERVICE_TIME).await;
                this.handle(env.msg);
            }
        });
        mds
    }

    /// Fabric node of the MDS.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn handle(&self, msg: MdsMsg) {
        match msg {
            MdsMsg::Create { path, reply } => {
                let r = self.create(&path);
                reply.send(r, 256);
            }
            MdsMsg::Open { path, reply } => {
                let r = self
                    .files
                    .borrow()
                    .get(&path)
                    .cloned()
                    .ok_or(MdsError::NotFound(path));
                reply.send(r, 256);
            }
            MdsMsg::SetSize { path, size, reply } => {
                let mut files = self.files.borrow_mut();
                let r = match files.get_mut(&path) {
                    Some(l) => {
                        l.size = size;
                        Ok(())
                    }
                    None => Err(MdsError::NotFound(path)),
                };
                reply.send(r, 64);
            }
            MdsMsg::Unlink { path, reply } => {
                let r = self
                    .files
                    .borrow_mut()
                    .remove(&path)
                    .ok_or(MdsError::NotFound(path));
                reply.send(r, 256);
            }
            MdsMsg::List { prefix, reply } => {
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

    fn create(&self, path: &str) -> Result<FileLayout, MdsError> {
        let mut files = self.files.borrow_mut();
        if files.contains_key(path) {
            return Err(MdsError::Exists(path.to_owned()));
        }
        let file_id = {
            let mut id = self.next_file_id.borrow_mut();
            let v = *id;
            *id += 1;
            v
        };
        // round-robin OST allocation, the default Lustre allocator
        let count = self.config.stripe_count.min(self.total_osts);
        let start = {
            let mut n = self.next_ost.borrow_mut();
            let v = *n;
            *n = (*n + count) % self.total_osts;
            v
        };
        let osts: Vec<usize> = (0..count).map(|k| (start + k) % self.total_osts).collect();
        let layout = FileLayout {
            file_id,
            osts,
            stripe_size: self.config.stripe_size,
            size: 0,
        };
        files.insert(path.to_owned(), layout.clone());
        Ok(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_locate_round_robins_stripes() {
        let l = FileLayout {
            file_id: 1,
            osts: vec![10, 11, 12],
            stripe_size: 1 << 20,
            size: 0,
        };
        // offset 0 → slot 0, object offset 0
        assert_eq!(l.locate(0), (0, 0));
        // second stripe → slot 1
        assert_eq!(l.locate(1 << 20), (1, 0));
        assert_eq!(l.locate(2 << 20), (2, 0));
        // fourth stripe wraps to slot 0, second object extent
        assert_eq!(l.locate(3 << 20), (0, 1 << 20));
        // mid-stripe offsets preserve the within-stripe remainder
        assert_eq!(l.locate((3 << 20) + 123), (0, (1 << 20) + 123));
    }

    #[test]
    fn locate_single_stripe() {
        let l = FileLayout {
            file_id: 1,
            osts: vec![5],
            stripe_size: 4096,
            size: 0,
        };
        assert_eq!(l.locate(10_000), (0, 10_000));
    }
}
