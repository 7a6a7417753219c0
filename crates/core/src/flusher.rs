//! The persistence half of the manager: one flusher task per file
//! drains buffered chunks to the Lustre backing file, and write-through
//! chunks go straight there.

use std::rc::Rc;

use bytes::Bytes;
use lustre::LustreError;
use simkit::sync::mpsc;
use simkit::{dur, Gather};

use crate::integrity;
use crate::manager::{chunk_key, BbManager, FileState};
use crate::{gated, kv_backoff, KV_RETRIES};

/// What the manager's RPC handlers queue for a file's flusher task.
pub(crate) enum FlushItem {
    Chunk {
        seq: u64,
        len: u64,
        crc: u32,
    },
    Direct {
        seq: u64,
        data: Bytes,
        /// Classified long-sequential: contiguous runs may coalesce into
        /// stripe-sized extents. Pressure-degraded chunks stay `false`
        /// and flush one extent per chunk (the seed path, bit-for-bit).
        streaming: bool,
    },
}

impl BbManager {
    /// Per-file persistence task: drain chunk notifications, pull payloads
    /// from the buffer, and lay them out in the Lustre backing file, until
    /// the manager drops the queue's sender.
    pub(crate) async fn run_flusher(
        self: Rc<Self>,
        file_id: u64,
        lpath: String,
        mut rx: mpsc::Receiver<FlushItem>,
    ) {
        let sim = self.sim().clone();
        let lfile = match self.lustre_client.create(&lpath).await {
            Ok(f) => Rc::new(f),
            Err(_) => {
                // backing store unavailable: everything becomes Lost
                self.mark_lost(file_id);
                return;
            }
        };
        let chunk_size = self.config.chunk_size;
        let mut lost = false;
        let mut inflight: Vec<simkit::JoinHandle<bool>> = Vec::new();
        // write-behind aggregation for classified streams: contiguous
        // write-through chunks coalesce into stripe-sized extents, so a
        // long-sequential stream pays one OST positioning charge per
        // stripe instead of per chunk. Unclassified (pressure-degraded)
        // chunks never enter the aggregate.
        let coalesce = self
            .lustre_client
            .cluster()
            .config
            .stripe_size
            .max(chunk_size);
        // the run's chunks, joined into one extent when it is written
        // (zero-copy for a run of one)
        let mut agg = Gather::default();
        let mut agg_first = 0u64;
        let mut agg_next = 0u64;
        while let Ok(item) = rx.recv().await {
            // anything that breaks the contiguous streaming run flushes
            // the aggregate first, preserving per-file write order
            let extends_run = matches!(
                &item,
                FlushItem::Direct {
                    seq,
                    streaming: true,
                    ..
                } if agg.is_empty() || *seq == agg_next
            );
            if !extends_run && !agg.is_empty() {
                let data = std::mem::take(&mut agg).concat();
                let n = agg_next - agg_first;
                inflight.push(self.spawn_direct_flush(&lfile, file_id, agg_first, n, data, true));
            }
            match item {
                FlushItem::Chunk { seq, len, crc } => {
                    let this = Rc::clone(&self);
                    let lfile = Rc::clone(&lfile);
                    let gate = self.flush_gate.clone();
                    inflight.push(sim.spawn(gated(gate, move || async move {
                        let _sp = this.sim().span("bb.flush_chunk", "bb", this.node().0, seq);
                        let key = chunk_key(file_id, seq);
                        // An unreachable replica set is not proof of loss:
                        // it may be mid-crash/restart. Retry with bounded
                        // backoff and only count the chunk lost on a
                        // definitive miss (a replica answered, nobody has a
                        // *verifiable* copy) or retry exhaustion. The
                        // read-back is verified against the CRC the writer
                        // declared for this seq, so a corrupt buffer copy
                        // can never reach Lustre.
                        let sim = this.sim().clone();
                        let (kv, counters) = (&this.kv, &this.integrity);
                        let r = this.config.kv_replication;
                        let lookup =
                            || integrity::get_verified(kv, counters, &key, Some(crc), r, None);
                        let mut got = lookup().await;
                        let mut attempt = 0u32;
                        while matches!(&got, Err(c) if !c.definitive) && attempt < KV_RETRIES + 3 {
                            let delay =
                                kv_backoff(8, attempt, std::time::Duration::from_millis(10));
                            attempt += 1;
                            sim.sleep(delay).await;
                            got = lookup().await;
                        }
                        let ok = match got {
                            Ok(v) => {
                                // verify-then-count: the write ack carries
                                // the OSS's commit checksum, so a corrupted
                                // commit comes back as CommitMismatch and
                                // the chunk never counts as flushed
                                let r = match lfile.write_at(seq * chunk_size, v.data).await {
                                    Ok(()) => true,
                                    Err(LustreError::CommitMismatch { .. }) => {
                                        this.integrity.checksum_fail.inc();
                                        this.sim().flight_record(
                                            "bb.manager",
                                            "flush_writeback_corrupt",
                                            || format!("file_id={file_id} seq={seq}"),
                                        );
                                        false
                                    }
                                    Err(_) => false,
                                };
                                if r {
                                    this.stats.chunks_flushed.inc();
                                    this.stats.bytes_flushed.add(len);
                                } else {
                                    this.stats.chunks_lost.inc();
                                }
                                r
                            }
                            Err(census) => {
                                // say what the lookup saw, so the loss is
                                // diagnosable from a flight dump
                                sim.flight_record("bb.manager", "flush_miss", || {
                                    let epoch = this.view.epoch();
                                    format!("file_id={file_id} seq={seq} {census} epoch={epoch}")
                                });
                                this.stats.chunks_lost.inc();
                                false
                            }
                        };
                        // flushed (or given up): lift the eviction pin; a
                        // holder that does not answer is owed it
                        let holders = integrity::holders(&this.view, &key, r);
                        let missed = this.kv.unpin_on(&holders, &key).await;
                        this.chunks.unpin((file_id, seq), missed);
                        this.chunk_drained(len);
                        this.chunk_pending.set(this.chunk_pending.get() - 1);
                        ok
                    })));
                }
                FlushItem::Direct {
                    seq,
                    data,
                    streaming,
                } => {
                    if streaming {
                        if agg.is_empty() {
                            agg_first = seq;
                        }
                        agg_next = seq + 1;
                        agg.push(data);
                        if agg.len() as u64 >= coalesce {
                            let data = std::mem::take(&mut agg).concat();
                            let n = agg_next - agg_first;
                            inflight.push(
                                self.spawn_direct_flush(&lfile, file_id, agg_first, n, data, true),
                            );
                        }
                    } else {
                        inflight
                            .push(self.spawn_direct_flush(&lfile, file_id, seq, 1, data, false));
                    }
                }
            }
        }
        // the queue closes when the manager drops its sender (the file
        // closed, or was torn down while writing): never strand a partial
        // aggregate
        if !agg.is_empty() {
            let data = agg.concat();
            let n = agg_next - agg_first;
            inflight.push(self.spawn_direct_flush(&lfile, file_id, agg_first, n, data, true));
        }
        for h in inflight {
            if !h.await {
                lost = true;
            }
        }
        let close_ok = lfile.close().await.is_ok();
        let state = if lost || !close_ok {
            FileState::Lost
        } else {
            FileState::Flushed
        };
        if state == FileState::Lost {
            self.sim().flight_record("bb.manager", "flush_lost", || {
                format!("file_id={file_id} close_ok={close_ok}")
            });
        }
        self.finish_file(file_id, state);
    }

    /// Persist one write-through extent (`chunks` coalesced direct chunks
    /// starting at `first_seq`). Verify-then-count: the extent only counts
    /// as persisted once the write ack's commit checksum matches the bytes
    /// sent — a torn or corrupted commit must surface as loss, never as
    /// success. Streaming extents ride the single-permit
    /// [`BbManager::stream_lane`] and yield while buffered-chunk flushes
    /// are queued — those bring `unflushed` back under the low watermark,
    /// so the open-loop write-through stream must never crowd them out of
    /// the gate or the device queue. A non-streaming (pressure-degraded)
    /// chunk takes the gate directly, exactly like the seed path.
    fn spawn_direct_flush(
        self: &Rc<Self>,
        lfile: &Rc<lustre::LustreFile>,
        file_id: u64,
        first_seq: u64,
        chunks: u64,
        data: Bytes,
        streaming: bool,
    ) -> simkit::JoinHandle<bool> {
        let this = Rc::clone(self);
        let lfile = Rc::clone(lfile);
        let chunk_size = self.config.chunk_size;
        let sim = self.sim().clone();
        sim.clone().spawn(async move {
            let _lane = if streaming {
                let lane = this.stream_lane.acquire().await;
                while this.chunk_pending.get() > 0 {
                    sim.sleep(dur::ms(1)).await;
                }
                Some(lane)
            } else {
                None
            };
            gated(this.flush_gate.clone(), move || async move {
                let mut ok = false;
                for _ in 0..2 {
                    match lfile.write_at(first_seq * chunk_size, data.clone()).await {
                        Ok(()) => {
                            ok = true;
                            break;
                        }
                        Err(LustreError::CommitMismatch { .. }) => {
                            this.integrity.checksum_fail.inc();
                        }
                        Err(_) => {}
                    }
                }
                if ok {
                    this.stats.chunks_direct.add(chunks);
                } else {
                    this.stats.chunks_lost.add(chunks);
                    this.sim()
                        .flight_record("bb.manager", "direct_writeback_corrupt", || {
                            format!("file_id={file_id} first_seq={first_seq} chunks={chunks}")
                        });
                }
                ok
            })
            .await
        })
    }

    fn mark_lost(&self, file_id: u64) {
        self.sim()
            .flight_record("bb.manager", "file_lost", || format!("file_id={file_id}"));
        self.finish_file(file_id, FileState::Lost);
    }
}
