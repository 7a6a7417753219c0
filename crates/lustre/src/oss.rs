//! Object storage servers: each OSS fronts several OSTs (RAID-backed
//! object stores). Requests are handled concurrently — per-OST queueing
//! happens at the device, which is what actually bounds throughput.

use std::rc::Rc;

use bytes::Bytes;
use netsim::{NodeId, ReplyHandle, Switchboard};
use simkit::telemetry::{Counter, Gauge};
use simkit::Gather;
use storesim::{Disk, DiskParams, ObjectStore, StoreError};

use crate::LustreConfig;

/// Capacity per OST.
const OST_CAPACITY: u64 = 4 << 40;

/// Checksum an OSS computes over the bytes it actually commits and returns
/// in the write ack (CRC32C, the workspace's one checksum kernel). Clients
/// compare it against the checksum of the bytes they sent: a mismatch means
/// the committed extent differs from the submitted one (corruption between
/// wire and media), detected at 1× device cost — no read-back required.
/// Both sides digest through [`simkit::crc32c::crc32c_bytes`], so the OSS
/// does not re-read the view the client just digested; a corrupted commit
/// is a new allocation and is read.
pub fn commit_crc(data: &Bytes) -> u32 {
    simkit::crc32c::crc32c_bytes(data)
}

/// OSS data-path RPCs. `ost_slot` addresses an OST local to the receiving
/// OSS.
pub enum OssMsg {
    /// Write `data` into object `obj` at `offset`. The ack carries the
    /// [`commit_crc`] of the committed bytes.
    Write {
        /// OST slot on this OSS.
        ost_slot: usize,
        /// Object id (the file id).
        obj: u64,
        /// Byte offset within the object.
        offset: u64,
        /// Payload.
        data: Bytes,
        /// Reply channel.
        reply: ReplyHandle<Result<u32, StoreError>>,
    },
    /// Read `len` bytes from object `obj` at `offset`.
    Read {
        /// OST slot on this OSS.
        ost_slot: usize,
        /// Object id (the file id).
        obj: u64,
        /// Byte offset within the object.
        offset: u64,
        /// Bytes to read.
        len: u64,
        /// Reply channel: the OST's stored handles, as it holds them.
        reply: ReplyHandle<Result<Gather, StoreError>>,
    },
    /// Delete object `obj` on every local OST (unlink reaping).
    Delete {
        /// Object id (the file id).
        obj: u64,
        /// Reply channel.
        reply: ReplyHandle<u64>,
    },
}

/// Mailbox service name for OSS data traffic.
pub const OSS_SERVICE: &str = "lustre-oss";

/// Per-OSS registered metrics (`lustre.oss{index}.*`).
struct OssMetrics {
    read_ops: Counter,
    read_bytes: Counter,
    write_ops: Counter,
    write_bytes: Counter,
    queue_depth: Gauge,
    queue_peak: Gauge,
}

/// One object storage server process with its OSTs.
pub struct Oss {
    node: NodeId,
    index: usize,
    osts: Vec<Rc<ObjectStore>>,
    metrics: OssMetrics,
    /// Simulation handle, for polling scripted at-commit corruption
    /// ([`simkit::FaultEvent::CorruptCommit`]) on the write path.
    sim: simkit::Sim,
}

impl Oss {
    /// Spawn OSS `index` on `node` with `config.osts_per_oss` OSTs.
    pub fn spawn(
        net: Rc<Switchboard<OssMsg>>,
        node: NodeId,
        index: usize,
        config: LustreConfig,
    ) -> Rc<Oss> {
        let sim = net.fabric().sim().clone();
        let osts = (0..config.osts_per_oss)
            .map(|_| {
                let disk = Disk::new(
                    sim.clone(),
                    DiskParams {
                        write_rate: config.ost_rate,
                        read_rate: config.ost_rate * 1.1,
                        access_latency: config.ost_access,
                        capacity: OST_CAPACITY,
                    },
                );
                ObjectStore::new(disk)
            })
            .collect();
        let m = sim.metrics();
        let prefix = format!("lustre.oss{index}");
        let metrics = OssMetrics {
            read_ops: m.counter(format!("{prefix}.read_ops")),
            read_bytes: m.counter(format!("{prefix}.read_bytes")),
            write_ops: m.counter(format!("{prefix}.write_ops")),
            write_bytes: m.counter(format!("{prefix}.write_bytes")),
            queue_depth: m.gauge(format!("{prefix}.queue_depth")),
            queue_peak: m.gauge(format!("{prefix}.queue_peak")),
        };
        let oss = Rc::new(Oss {
            node,
            index,
            osts,
            metrics,
            sim: sim.clone(),
        });
        let mut rx = net.register(node, OSS_SERVICE);
        let this = Rc::clone(&oss);
        sim.clone().spawn(async move {
            while let Ok(env) = rx.recv().await {
                // concurrent handling: the OST device serializes
                let this = Rc::clone(&this);
                sim.spawn(async move {
                    let d = this.metrics.queue_depth.get() + 1;
                    this.metrics.queue_depth.set(d);
                    if d > this.metrics.queue_peak.get() {
                        this.metrics.queue_peak.set(d);
                    }
                    this.handle(env.msg).await;
                    this.metrics.queue_depth.add(-1);
                });
            }
        });
        oss
    }

    /// Fabric node of this OSS.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// OSS index within the cluster.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Direct access to a local OST (tests/diagnostics).
    pub fn ost(&self, slot: usize) -> &Rc<ObjectStore> {
        &self.osts[slot]
    }

    /// Total payload bytes on this OSS's OSTs.
    pub fn stored_bytes(&self) -> u64 {
        self.osts.iter().map(|o| o.stored_bytes()).sum()
    }

    async fn handle(&self, msg: OssMsg) {
        match msg {
            OssMsg::Write {
                ost_slot,
                obj,
                offset,
                data,
                reply,
            } => {
                self.metrics.write_ops.inc();
                self.metrics.write_bytes.add(data.len() as u64);
                // poll scripted at-commit corruption; flip the byte before
                // persisting so readers observe the damaged on-disk state
                let data = match self
                    .sim
                    .faults()
                    .corrupt_commit(self.node.0, data.len() as u64)
                {
                    Some((off, mask)) => {
                        let mut v = data.to_vec();
                        v[off as usize] ^= mask;
                        Bytes::from(v)
                    }
                    None => data,
                };
                // the ack checksum covers the post-corruption bytes — what
                // the media actually holds, not what the client sent
                let crc = commit_crc(&data);
                let r = self.osts[ost_slot].write_at(obj, offset, data).await;
                reply.send(r.map(|()| crc), 64);
            }
            OssMsg::Read {
                ost_slot,
                obj,
                offset,
                len,
                reply,
            } => {
                self.metrics.read_ops.inc();
                self.metrics.read_bytes.add(len);
                let r = self.osts[ost_slot]
                    .read_at_opts(obj, offset, len, true)
                    .await;
                let wire = match &r {
                    Ok(b) => b.len() as u64 + 64,
                    Err(_) => 64,
                };
                reply.send(r, wire);
            }
            OssMsg::Delete { obj, reply } => {
                let mut freed = 0;
                for ost in &self.osts {
                    if let Ok(n) = ost.delete(obj) {
                        freed += n;
                    }
                }
                reply.send(freed, 64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::commit_crc;
    use bytes::Bytes;

    #[test]
    fn commit_crc_catches_a_single_bit_flip_anywhere_in_a_stripe() {
        let mut stripe: Vec<u8> = (0..1usize << 20).map(|i| (i % 241) as u8).collect();
        // each damaged stripe is its own allocation, as the OSS's injector
        // builds one, so the clean stripe's memoized digest never answers
        let clean = commit_crc(&Bytes::from(stripe.clone()));
        // every bit of the first and last bytes and of bytes a prime stride
        // apart, so every lane and block position of the kernel is hit
        let bytes = (0..stripe.len())
            .step_by(16_411)
            .chain([1, 7, 8, stripe.len() - 1]);
        for at in bytes {
            for bit in 0..8 {
                stripe[at] ^= 1 << bit;
                let flipped = Bytes::copy_from_slice(&stripe);
                assert_ne!(commit_crc(&flipped), clean, "flip of bit {bit} at {at}");
                stripe[at] ^= 1 << bit;
            }
        }
        assert_eq!(commit_crc(&Bytes::from(stripe)), clean);
    }
}
