//! The manager's background loops — integrity scrubber, epoch
//! rebalancer, placement optimizer — and the one verified-move routine
//! they share. Each of them changes a chunk's buffer copies only while
//! holding its [`crate::chunks::ChunkLease`]; the commit order is stated
//! once, in [`crate::chunks`].

use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use netsim::NodeId;

use crate::chunks::{ChunkId, ChunkLease, Work};
use crate::integrity::{self, Census};
use crate::manager::{chunk_key, BbManager, FileState};
use crate::placement;

/// Scrubber tick period (virtual time).
const SCRUB_INTERVAL: Duration = Duration::from_secs(1);
/// Chunks verified (and repaired in place) per scrubber tick.
const SCRUB_BATCH: usize = 32;
/// Chunk migrations per rebalancer tick.
const REBALANCE_BATCH: usize = 64;

/// Background-scrubber counters (`bb.scrub.*`).
pub(crate) struct ScrubCounters {
    scanned: simkit::telemetry::Counter,
    repaired: simkit::telemetry::Counter,
    unrepairable: simkit::telemetry::Counter,
}

impl ScrubCounters {
    pub(crate) fn register(m: &simkit::telemetry::Registry) -> ScrubCounters {
        ScrubCounters {
            scanned: m.counter("bb.scrub.scanned"),
            repaired: m.counter("bb.scrub.repaired"),
            unrepairable: m.counter("bb.scrub.unrepairable"),
        }
    }
}

/// Background-rebalancer counters (`bb.rebalance.*`).
pub(crate) struct RebalanceCounters {
    /// Chunks migrated to their new ring owners (copy verified, old
    /// copies deleted).
    moved: simkit::telemetry::Counter,
    /// Payload bytes copied by migrations.
    bytes: simkit::telemetry::Counter,
    /// Migrated copies that failed the CRC read-back (old copies kept).
    verify_fail: simkit::telemetry::Counter,
    /// Membership epochs the rebalancer has processed.
    epochs: simkit::telemetry::Counter,
}

impl RebalanceCounters {
    pub(crate) fn register(m: &simkit::telemetry::Registry) -> RebalanceCounters {
        RebalanceCounters {
            moved: m.counter("bb.rebalance.moved"),
            bytes: m.counter("bb.rebalance.bytes"),
            verify_fail: m.counter("bb.rebalance.verify_fail"),
            epochs: m.counter("bb.rebalance.epochs"),
        }
    }
}

/// How one verified chunk move ([`BbManager::migrate_to`]) ended, as
/// far as its callers care.
enum Moved {
    /// Worth another try next tick, old copies kept: another holder has
    /// the chunk's lease (the rebalancer, optimizer and scrubber run as
    /// separate tasks), or a copy or its CRC read-back failed.
    Retry,
    /// Nothing (left) to do: the chunk vanished — deleted or forgotten,
    /// before the move or under it —, no authoritative copy is reachable
    /// right now (old layout untouched), or every target already held
    /// the data and only stale copies were removed.
    Settled,
    /// The desired set now holds verified copies, this many payload
    /// bytes were copied to get there, and stale copies are gone.
    Copied(u64),
}

impl BbManager {
    /// Start the background loops (called once, from `spawn`).
    pub(crate) fn start_movers(self: &Rc<Self>) {
        self.background(SCRUB_INTERVAL, Self::scrub_tick);
        self.background(self.config.rebalance_interval, Self::rebalance_tick);
        self.background(self.config.bb_place_interval, Self::place_tick);
    }

    /// Run `tick` every `interval` of virtual time until
    /// [`BbManager::stop_background`]; a zero interval disables the loop.
    fn background<F, Fut>(self: &Rc<Self>, interval: Duration, tick: F)
    where
        F: Fn(Rc<BbManager>) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        if interval.is_zero() {
            return;
        }
        let sim = self.sim().clone();
        let this = Rc::clone(self);
        sim.clone().spawn(async move {
            loop {
                sim.sleep(interval).await;
                if this.stopped.get() {
                    break;
                }
                tick(Rc::clone(&this)).await;
            }
        });
    }

    /// Stop every background loop after its current tick (lets
    /// simulations quiesce; called from [`crate::BbDeployment::shutdown`]).
    pub fn stop_background(&self) {
        self.stopped.set(true);
    }

    /// [`integrity::census`] as the background loops take it: against the
    /// chunk's sealed CRC and without the re-read — to a mover a copy that
    /// fails once is not a source this round, and the next round asks again.
    async fn census(
        &self,
        key: &[u8],
        crc: u32,
        servers: impl IntoIterator<Item = usize>,
        first_good: bool,
    ) -> Census {
        integrity::census(&self.kv, key, Some(crc), servers, first_good, false).await
    }

    /// Roster members outside `set`. Index-addressed ops stay valid for
    /// servers that left the ring, so a drained server's copy is still
    /// reachable this way.
    fn roster_except<'a>(&self, set: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
        (0..self.view.roster_len()).filter(move |idx| !set.contains(idx))
    }

    /// End a leased change through [`ChunkLease::commit`]. `false` when
    /// the chunk's record vanished under the lease (its file was
    /// deleted): the copies on `fresh` were written for nothing and are
    /// removed again.
    async fn commit(
        &self,
        lease: &ChunkLease<'_>,
        key: &[u8],
        fresh: &[usize],
        route: Option<&[usize]>,
    ) -> bool {
        if lease.commit(route) {
            return true;
        }
        for &idx in fresh {
            let _ = self.kv.delete_from(idx, key).await;
        }
        false
    }

    /// One scrubber round over the next [`SCRUB_BATCH`] chunks.
    async fn scrub_tick(self: Rc<Self>) {
        for (id, crc) in self.chunks.scrub_batch(SCRUB_BATCH) {
            self.scrub_one(id, crc).await;
        }
    }

    /// Verify one chunk across its replica set and repair divergent
    /// copies. A missing copy is legal (LRU eviction); a copy that fails
    /// its digest is rewritten from the first good replica, or from Lustre
    /// when the file is already flushed. Corruption with no good copy
    /// anywhere counts `bb.scrub.unrepairable` (the read path will surface
    /// it loudly, never silently). The scan itself takes no lease — only
    /// a repair does.
    async fn scrub_one(&self, id: ChunkId, crc: u32) {
        if self.chunks.is_leased(id) {
            // a mover is re-establishing the replica set; scrubbing it now
            // would double-repair
            return;
        }
        let (file_id, seq) = id;
        let key = chunk_key(file_id, seq);
        let (order, replicas) = integrity::read_order(&self.view, &key, self.config.kv_replication);
        let (replicas, rest) = order.split_at(replicas);
        self.scrub.scanned.inc();
        let found = self
            .census(&key, crc, replicas.iter().copied(), false)
            .await;
        self.integrity.checksum_fail.add(found.digest_fails);
        if found.absent() {
            // an unreachable replica means no verdict: revisit next round
            if found.errors == 0 {
                // Every live replica definitively answered empty. Under
                // elastic membership that is not yet proof the chunk left
                // the buffer: a not-yet-migrated copy may still sit on an
                // old owner, and forgetting the key here would hide it
                // from the rebalancer. Walk the rest of the read order
                // (empty until membership first changes) before believing it.
                let rest = rest.iter().copied();
                if !self.census(&key, crc, rest, true).await.absent() {
                    return; // awaiting migration; rebalancer owns it
                }
                self.chunks.forget(id);
            }
            return;
        }
        if found.bad.is_empty() {
            return;
        }
        let Some(lease) = self.chunks.lease(id, Work::Repairing) else {
            return; // a mover got there first, or the file is gone
        };
        let good = match found.value {
            Some(v) => Some(v.data),
            None => self.lustre_chunk(id, crc).await,
        };
        match good {
            Some(data) => {
                let mut fresh = Vec::new();
                for idx in found.bad {
                    if self
                        .kv
                        .set_to(idx, &key, data.clone(), crc, 0)
                        .await
                        .is_ok()
                    {
                        self.scrub.repaired.inc();
                        fresh.push(idx);
                    }
                }
                self.commit(&lease, &key, &fresh, None).await;
            }
            None => {
                // No authoritative copy right now. While the file is still
                // flushing, the flusher's own verified read-back decides
                // the chunk's fate — retry next round rather than jumping
                // to a verdict. Once the file is terminal the damage is
                // permanent: count it once and stop scanning the chunk.
                let terminal = self
                    .file_info(file_id)
                    .is_none_or(|(st, ..)| matches!(st, FileState::Flushed | FileState::Lost));
                if terminal {
                    self.scrub.unrepairable.add(found.bad.len() as u64);
                    drop(lease);
                    self.chunks.forget(id);
                    // permanent data damage: freeze the flight-recorder
                    // rings so the events leading here survive for triage
                    let sim = self.sim();
                    sim.flight_record("bb.scrub", "unrepairable", || {
                        format!(
                            "file_id={file_id} seq={seq} bad_replicas={}",
                            found.bad.len()
                        )
                    });
                    sim.flight().trigger(
                        sim.now().as_nanos(),
                        &format!("unrepairable scrub: file_id={file_id} seq={seq}"),
                    );
                }
            }
        }
    }

    /// One rebalancer round. When the membership epoch moved since the
    /// last processed ring, queue every chunk whose replica set differs
    /// between that ring and the live one — pinned (unflushed,
    /// buffer-only) chunks first, since they have no Lustre fallback if
    /// their old owner drains away. Then migrate up to
    /// [`REBALANCE_BATCH`] queued chunks.
    async fn rebalance_tick(self: Rc<Self>) {
        let epoch = self.view.epoch();
        let last = self.last_epoch.get();
        if epoch != last {
            let new_ring = self.view.ring_snapshot();
            let r = self.config.kv_replication.max(1);
            self.chunks
                .queue_remapped(&self.last_ring.borrow(), &new_ring, r);
            self.rebal.epochs.add(epoch - last);
            *self.last_ring.borrow_mut() = new_ring;
            self.last_epoch.set(epoch);
        }
        for _ in 0..REBALANCE_BATCH {
            let Some(id) = self.chunks.next_rebalance() else {
                break;
            };
            self.migrate_one(id).await;
        }
    }

    /// Migrate one chunk onto its live-ring owners (which follow any
    /// placement override). A failed move re-queues on the rebalance
    /// queue; a completed copy counts `bb.rebalance.{moved,bytes}`.
    async fn migrate_one(&self, id: ChunkId) {
        let key = chunk_key(id.0, id.1);
        let desired = integrity::replicas(&self.view, &key, self.config.kv_replication);
        match self.migrate_to(id, &desired, false).await {
            // keep the old copies; retry from a clean slate next tick
            Moved::Retry => self.chunks.requeue_rebalance(id),
            Moved::Copied(bytes) => {
                self.rebal.moved.inc();
                self.rebal.bytes.add(bytes);
            }
            Moved::Settled => {}
        }
    }

    /// Establish `desired` as a chunk's replica set, under its lease and
    /// in the commit order of [`crate::chunks`]: copy to each missing
    /// target, verify every fresh copy by CRC read-back, carry the pin
    /// for unflushed chunks, commit (with `install_override`, switching
    /// the chunk's routing onto `desired`), and only then delete copies
    /// from roster members outside the set. Old copies outlive new ones
    /// until verification succeeds, so a verify failure at any point
    /// leaves at least one good copy reachable (the read path widens to
    /// the full roster once epoch > 0). Shared by the epoch rebalancer
    /// and the placement optimizer.
    async fn migrate_to(&self, id: ChunkId, desired: &[usize], install_override: bool) -> Moved {
        if desired.is_empty() || !self.chunks.contains(id) {
            return Moved::Settled; // deleted or forgotten since being queued
        }
        let Some(lease) = self.chunks.lease(id, Work::Moving) else {
            return Moved::Retry;
        };
        let (key, crc) = (chunk_key(id.0, id.1), lease.crc);
        // Which desired owners already hold a good copy? Failing those,
        // an old owner; failing that, Lustre.
        let found = self.census(&key, crc, desired.iter().copied(), false).await;
        let mut data = found.value.map(|v| v.data);
        if data.is_none() {
            let others = self.roster_except(desired);
            let found = self.census(&key, crc, others, true).await;
            data = found.value.map(|v| v.data);
        }
        if data.is_none() {
            data = self.lustre_chunk(id, crc).await;
        }
        let Some(data) = data else {
            // No authoritative copy reachable right now: leave the old
            // layout alone and let the scrubber/flusher sort it out.
            return Moved::Settled;
        };
        let mut fresh = Vec::new();
        let mut verified = true;
        for &idx in desired {
            if found.good.contains(&idx) {
                continue;
            }
            if self
                .kv
                .set_to(idx, &key, data.clone(), crc, 0)
                .await
                .is_err()
            {
                verified = false;
                continue;
            }
            fresh.push(idx);
            // read back what the server actually stored before trusting it
            if self.census(&key, crc, [idx], true).await.good.is_empty() {
                self.rebal.verify_fail.inc();
                verified = false;
            }
        }
        if !verified {
            return Moved::Retry;
        }
        if lease.pinned() {
            // unflushed chunk: the new owners must hold it pinned before
            // the old pinned copies are released
            for &idx in desired {
                let _ = self.kv.pin_to(idx, &key).await;
            }
        }
        let route = install_override.then_some(desired);
        if !self.commit(&lease, &key, &fresh, route).await {
            return Moved::Settled;
        }
        for idx in self.roster_except(desired) {
            let _ = self.kv.delete_from(idx, &key).await;
        }
        if fresh.is_empty() {
            Moved::Settled
        } else {
            Moved::Copied(data.len() as u64)
        }
    }

    /// One placement-optimizer round, in three phases. First, routing
    /// hygiene: overrides pointing at a server that left the active set
    /// go back to hash placement and the chunk is queued to re-converge
    /// on its hash owners. Second, decisions: every chunk with reader
    /// telemetry and no move in flight is re-costed against the topology
    /// model, and a strictly cheaper replica set is queued as a move.
    /// Third, execution: queued moves run through
    /// [`BbManager::migrate_to`] under the per-tick migration byte
    /// budget. Epoch coordination: while the rebalancer still owes the
    /// view a catch-up (`epoch != last_epoch`), decisions pause; moves
    /// keep draining.
    async fn place_tick(self: Rc<Self>) {
        let Some(counters) = &self.place else { return };
        let r = self.config.kv_replication.max(1);
        let fabric = Rc::clone(self.net().fabric());

        self.chunks.demote_stale_routes(r);

        if self.view.epoch() == self.last_epoch.get() {
            for ((fid, seq), readers) in self.chunks.undecided_read() {
                let key = chunk_key(fid, seq);
                let current = integrity::replicas(&self.view, &key, r);
                let order = placement::ring_order(&self.view, &key);
                if order.is_empty() {
                    continue;
                }
                let candidate = placement::rank_by_cost(&order, r, |idx| {
                    placement::read_cost(&fabric, &readers, &[self.view.server(idx).node()])
                });
                let nodes_of = |set: &[usize]| -> Vec<NodeId> {
                    set.iter()
                        .map(|&idx| self.view.server(idx).node())
                        .collect()
                };
                let cost_before = placement::read_cost(&fabric, &readers, &nodes_of(&current));
                let cost_after = placement::read_cost(&fabric, &readers, &nodes_of(&candidate));
                if cost_after < cost_before {
                    counters.decisions.inc();
                    counters.cost_before.add(cost_before);
                    counters.cost_after.add(cost_after);
                    self.sim().flight_record("bb.place", "decision", || {
                        format!(
                            "file_id={fid} seq={seq} cost {cost_before}->{cost_after} \
                             targets={candidate:?}"
                        )
                    });
                    self.chunks.queue_place((fid, seq), candidate);
                }
            }
        }

        // Each queued move is popped at most once per tick (re-queues go
        // to the back and wait for the next tick), so one failing chunk
        // can neither spin the drain nor truncate the rest of the budget.
        let budget = if self.config.bb_migrate_budget == 0 {
            u64::MAX
        } else {
            self.config.bb_migrate_budget
        };
        let mut spent = 0u64;
        let mut pops = self.chunks.place_backlog();
        while spent < budget && pops > 0 {
            pops -= 1;
            let Some((id, targets, install)) = self.chunks.next_place() else {
                break;
            };
            if !targets.iter().all(|&idx| self.view.is_active(idx)) {
                // a target left the cluster while the move sat queued:
                // the decision is stale. Drop it so the next round can
                // re-decide from live telemetry.
                self.chunks.settle_place(id);
                continue;
            }
            match self.migrate_to(id, &targets, install).await {
                // keep old copies (and the decision); retry next tick
                Moved::Retry => self.chunks.requeue_place((id, targets, install)),
                Moved::Copied(bytes) => {
                    counters.migrations.inc();
                    counters.bytes.add(bytes);
                    spent += bytes;
                    self.chunks.settle_place(id);
                }
                Moved::Settled => self.chunks.settle_place(id),
            }
        }
    }

    /// Fetch a chunk's bytes from the Lustre backing file for repair,
    /// verifying against the manifest CRC. Only flushed files qualify (an
    /// unflushed chunk has no authoritative copy outside the buffer).
    async fn lustre_chunk(&self, (file_id, seq): ChunkId, crc: u32) -> Option<Bytes> {
        let (state, size, lpath) = self.file_info(file_id)?;
        if state != FileState::Flushed {
            return None;
        }
        let chunk_size = self.config.chunk_size;
        let len = chunk_size.min(size.checked_sub(seq * chunk_size)?);
        let f = self.lustre_client.open(&lpath).await.ok()?;
        let data = f.read_at(seq * chunk_size, len).await.ok()?;
        let _ = f.close().await;
        (integrity::chunk_crc(&chunk_key(file_id, seq), &data) == crc).then_some(data)
    }
}
