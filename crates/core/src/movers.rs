//! The reconciler: one loop keeps every buffered chunk at its desired
//! placement — the replica set (or override), the pin, the flushed
//! state. Three triggers queue chunks on the chunk table
//! ([`crate::chunks::Why`]); each queued chunk becomes one [`Action`],
//! run under the chunk's [`crate::chunks::ChunkLease`] in the commit
//! order stated once in [`crate::chunks`], within one byte budget per
//! round.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use netsim::NodeId;

use crate::chunks::{ChunkId, Why};
use crate::integrity::{self, Census};
use crate::manager::{chunk_key, BbManager, FileState};
use crate::placement;

/// Period of the scrub trigger (virtual time).
const SCRUB_INTERVAL: Duration = Duration::from_secs(1);
/// Chunks the scrub trigger queues per period.
const SCRUB_BATCH: usize = 32;
/// Period of the placement trigger, on whenever the policy is
/// [`crate::PlacementPolicy::Locality`].
const PLACE_INTERVAL: Duration = Duration::from_millis(50);

/// `bb.scrub.*` (what the scrub trigger finds and mends; `repaired`
/// counts copies rewritten by [`Action::Repair`] and [`Action::Copy`])
/// and `bb.rebalance.*` (moves onto new ring owners, and every fresh
/// copy whose CRC read-back failed).
pub(crate) struct MoverCounters {
    scanned: simkit::telemetry::Counter,
    repaired: simkit::telemetry::Counter,
    unrepairable: simkit::telemetry::Counter,
    moved: simkit::telemetry::Counter,
    bytes: simkit::telemetry::Counter,
    verify_fail: simkit::telemetry::Counter,
    epochs: simkit::telemetry::Counter,
}

impl MoverCounters {
    pub(crate) fn register(m: &simkit::telemetry::Registry) -> MoverCounters {
        MoverCounters {
            scanned: m.counter("bb.scrub.scanned"),
            repaired: m.counter("bb.scrub.repaired"),
            unrepairable: m.counter("bb.scrub.unrepairable"),
            moved: m.counter("bb.rebalance.moved"),
            bytes: m.counter("bb.rebalance.bytes"),
            verify_fail: m.counter("bb.rebalance.verify_fail"),
            epochs: m.counter("bb.rebalance.epochs"),
        }
    }
}

/// What one chunk's diff against its desired placement calls for: each
/// action but `Forget` is an input to [`BbManager::converge`].
enum Action {
    /// The scrub census found a bad copy: converge onto the same replica
    /// set, rewriting each member without a good copy in place.
    Repair(Vec<usize>, Census),
    /// The scrub census found an unflushed chunk short of its replica
    /// set: converge onto the set with each member that did not answer
    /// swapped for the next live ring server; the ring servers after
    /// those (the second field) stand in for a member whose copy fails.
    Copy(Vec<usize>, Vec<usize>, Census),
    /// Converge onto new ring owners, or a placement decision's targets.
    Move(Vec<usize>),
    /// No copy anywhere: the chunk left the buffer.
    Forget,
}

impl BbManager {
    /// Start the reconciler (called once, from `spawn`). It wakes when a
    /// trigger is due — one period after the round it last fired in
    /// ended; a zero period never fires —, runs the due triggers in
    /// order, then drains the queue.
    pub(crate) fn start_reconciler(self: &Rc<Self>) {
        let place = self
            .place
            .as_ref()
            .map_or(Duration::ZERO, |_| PLACE_INTERVAL);
        let periods = [self.config.rebalance_interval, place, SCRUB_INTERVAL];
        let sim = self.sim().clone();
        let this = Rc::clone(self);
        sim.clone().spawn(async move {
            let mut due = periods.map(|p| (!p.is_zero()).then(|| sim.now() + p));
            while let Some(&next) = due.iter().flatten().min() {
                sim.sleep_until(next).await;
                if this.stopped.get() {
                    break;
                }
                let fired = due.map(|d| d.is_some_and(|t| t <= sim.now()));
                if fired[0] {
                    this.catch_up_epoch();
                }
                if fired[1] {
                    this.decide_placement();
                }
                if fired[2] {
                    this.chunks.queue_scrub(SCRUB_BATCH);
                }
                this.drain().await;
                for ((d, p), f) in due.iter_mut().zip(periods).zip(fired) {
                    if f {
                        *d = Some(sim.now() + p);
                    }
                }
            }
        });
    }

    /// Stop the reconciler after its current round (lets simulations
    /// quiesce; called from [`crate::BbDeployment::shutdown`]).
    pub fn stop_background(&self) {
        self.stopped.set(true);
    }

    /// The epoch trigger: when the membership epoch moved since the last
    /// processed ring, demote the overrides it left stale and queue every
    /// chunk whose replica set differs between that ring and the live one.
    fn catch_up_epoch(&self) {
        let (epoch, last) = (self.view.epoch(), self.last_epoch.get());
        if epoch == last {
            return;
        }
        let ring = self.view.ring_snapshot();
        let r = self.config.kv_replication.max(1);
        self.chunks.demote_stale_routes();
        self.chunks
            .queue_remapped(&self.last_ring.borrow(), &ring, r);
        self.movers.epochs.add(epoch - last);
        *self.last_ring.borrow_mut() = ring;
        self.last_epoch.set(epoch);
    }

    /// The placement trigger. First, routing hygiene: overrides pointing
    /// at a server that left the active set go back to hash placement and
    /// the chunk is queued, as remapped, to re-converge on its hash owners
    /// (the epoch trigger does the same, whichever fires first). Then every
    /// chunk with reader telemetry and no placement move queued is
    /// re-costed against the topology model, and a strictly cheaper
    /// replica set is queued as a move. Decisions pause while the epoch
    /// trigger still owes the view a catch-up.
    fn decide_placement(&self) {
        let Some(counters) = &self.place else { return };
        let r = self.config.kv_replication.max(1);
        self.chunks.demote_stale_routes();
        if self.view.epoch() != self.last_epoch.get() {
            return;
        }
        let fabric = self.net().fabric();
        let nodes_of = |set: &[usize]| -> Vec<NodeId> {
            set.iter()
                .map(|&idx| self.view.server(idx).node())
                .collect()
        };
        for ((fid, seq), readers) in self.chunks.undecided_read() {
            let key = chunk_key(fid, seq);
            let order = placement::ring_order(&self.view, &key);
            if order.is_empty() {
                continue;
            }
            let candidate = placement::rank_by_cost(&order, r, |idx| {
                placement::read_cost(fabric, &readers, &nodes_of(&[idx]))
            });
            let current = integrity::replicas(&self.view, &key, r);
            let cost_before = placement::read_cost(fabric, &readers, &nodes_of(&current));
            let cost_after = placement::read_cost(fabric, &readers, &nodes_of(&candidate));
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
                self.chunks.push((fid, seq), Why::Place(candidate));
            }
        }
    }

    /// One round of work: each entry queued when the round starts is
    /// taken at most once (a re-queue waits for the next round, so one
    /// failing chunk can neither spin the drain nor starve the rest), and
    /// the round stops once it has copied `bb_migrate_budget` bytes — at
    /// least one entry always proceeds.
    async fn drain(&self) {
        let budget = match self.config.bb_migrate_budget {
            0 => u64::MAX,
            b => b,
        };
        let mut spent = 0u64;
        for _ in 0..self.chunks.queued() {
            if spent >= budget {
                break;
            }
            let Some((id, why)) = self.chunks.pop() else {
                break;
            };
            match self.reconcile(id, &why).await {
                Some(bytes) => spent += bytes,
                None => self.chunks.push(id, why),
            }
        }
    }

    /// Diff one queued chunk against its desired placement and run the
    /// action that closes the difference. Returns the payload bytes
    /// copied, or `None` when the chunk should be taken again next round
    /// (a failed move; a failed scrub action waits for the cursor).
    async fn reconcile(&self, id: ChunkId, why: &Why) -> Option<u64> {
        let key = chunk_key(id.0, id.1);
        let action = match why {
            Why::Remapped => {
                let desired = integrity::replicas(&self.view, &key, self.config.kv_replication);
                Action::Move(desired)
            }
            // a target left the cluster while the move sat queued: the
            // decision is stale, and the next round re-decides
            Why::Place(targets) if !targets.iter().all(|&i| self.view.is_active(i)) => {
                return Some(0)
            }
            Why::Place(targets) => Action::Move(targets.clone()),
            Why::Scrub => match self.scrub_census(id, &key).await {
                Some(action) => action,
                None => return Some(0),
            },
        };
        let (set, spares, found) = match action {
            Action::Repair(set, found) => (set, Vec::new(), Some(found)),
            Action::Copy(set, spares, found) => (set, spares, Some(found)),
            Action::Move(set) => (set, Vec::new(), None),
            Action::Forget => {
                self.chunks.forget(id);
                return Some(0);
            }
        };
        let Some((copies, len)) = self.converge(id, set, spares, found).await else {
            return (*why == Why::Scrub).then_some(0);
        };
        let bytes = if copies > 0 { len } else { 0 };
        match (why, &self.place) {
            (Why::Scrub, _) => self.movers.repaired.add(copies),
            _ if bytes == 0 => {}
            (Why::Place(_), Some(counters)) => {
                counters.migrations.inc();
                counters.bytes.add(bytes);
            }
            _ => {
                self.movers.moved.inc();
                self.movers.bytes.add(bytes);
            }
        }
        Some(bytes)
    }

    /// [`integrity::census`] as the reconciler takes it: against the
    /// chunk's sealed CRC and without the re-read — to the reconciler a
    /// copy that fails once is not a source this round, and the next
    /// round asks again.
    async fn census(
        &self,
        key: &[u8],
        crc: u32,
        servers: impl IntoIterator<Item = usize>,
        first_good: bool,
    ) -> Census {
        integrity::census(&self.kv, key, Some(crc), servers, first_good, false).await
    }

    /// The scrub trigger's diff. First, holders the flusher's unpin did
    /// not reach get it again, and only they. Then the chunk's replica
    /// set is censused (no lease taken). A copy that fails its digest is
    /// rewritten, once every member answered. A missing copy of a flushed chunk is legal — LRU
    /// eviction, Lustre holds it — but an unflushed chunk's only copies
    /// are in the buffer, so one short of its set is restored: once any
    /// membership change is reconciled, since until then a member's miss
    /// is a copy its move has yet to bring. `None` when nothing differs,
    /// or nothing can be done yet.
    async fn scrub_census(&self, id: ChunkId, key: &[u8]) -> Option<Action> {
        let (crc, pinned) = self.chunks.record(id)?;
        let owed = self.chunks.owed_unpins(id);
        if !owed.is_empty() {
            let missed = self.kv.unpin_on(&owed, key).await;
            self.chunks.unpin(id, missed);
        }
        let (order, n) = integrity::read_order(&self.view, key, self.config.kv_replication);
        let (set, rest) = order.split_at(n);
        self.movers.scanned.inc();
        let found = self.census(key, crc, set.iter().copied(), false).await;
        self.integrity.checksum_fail.add(found.digest_fails);
        if found.absent() {
            // An unreachable replica means no verdict: revisit next round.
            // Every live replica answering empty is not yet proof either
            // under elastic membership: a not-yet-moved copy may still sit
            // on an old owner, and forgetting the key would hide it from
            // its move. Walk the rest of the read order (empty until
            // membership first changes) before believing it.
            let rest = rest.iter().copied();
            let gone = found.errors == 0 && self.census(key, crc, rest, true).await.absent();
            return gone.then_some(Action::Forget);
        }
        let short = pinned && found.value.is_some() && found.good.len() < set.len();
        let settled =
            || self.view.epoch() == self.last_epoch.get() && self.chunks.rebalance_backlog() == 0;
        if short && settled() {
            let answered = |idx| {
                [&found.good, &found.bad, &found.misses]
                    .iter()
                    .any(|s| s.contains(idx))
            };
            let order = placement::ring_order(&self.view, key);
            let mut spares = order.into_iter().filter(|idx| !set.contains(idx));
            let swapped = set.iter().map(|idx| match answered(idx) {
                true => Some(*idx),
                false => spares.next(),
            });
            if let Some(swapped) = swapped.collect() {
                return Some(Action::Copy(swapped, spares.collect(), found));
            }
        }
        let repair = !found.bad.is_empty() && found.errors == 0;
        repair.then(|| Action::Repair(set.to_vec(), found))
    }

    /// The one routine that changes a chunk's copies: bring chunk `id`
    /// onto `set` under its lease, in the order stated in
    /// [`crate::chunks`]. `found` is the census of `set`, taken here when
    /// `None`. A member whose copy or read-back fails
    /// (`bb.rebalance.verify_fail`) gives its place to the next of
    /// `spares`. The commit routes the chunk through an override when
    /// `set` is not its hash owners, and back to them when it is. With no
    /// source and the file terminal, the census's bad copies count
    /// `bb.scrub.unrepairable` once and the chunk is forgotten; while the
    /// file is still flushing, the flusher's own verified read-back
    /// decides its fate.
    ///
    /// Returns the copies written and the chunk's length (no copies: the
    /// chunk vanished, no source is reachable right now, or every member
    /// already held it), or `None` — old copies and route kept — when a
    /// copy failed with no spare left.
    async fn converge(
        &self,
        id: ChunkId,
        mut set: Vec<usize>,
        spares: Vec<usize>,
        found: Option<Census>,
    ) -> Option<(u64, u64)> {
        let lease = match self.chunks.lease(id) {
            Some(lease) if !set.is_empty() => lease,
            _ => return Some((0, 0)), // deleted or forgotten since being queued
        };
        let (key, crc) = (chunk_key(id.0, id.1), lease.crc);
        let holders = integrity::holders(&self.view, &key, self.config.kv_replication);
        let mut found = match found {
            Some(found) => found,
            None => self.census(&key, crc, set.iter().copied(), false).await,
        };
        let mut data = found.value.take().map(|v| v.data);
        if data.is_none() {
            let others = holders.iter().copied().filter(|idx| !set.contains(idx));
            data = self
                .census(&key, crc, others, true)
                .await
                .value
                .map(|v| v.data);
        }
        if data.is_none() {
            data = self.lustre_chunk(id, crc).await;
        }
        let Some(data) = data else {
            let (file_id, seq) = id;
            let terminal = self
                .file_info(file_id)
                .is_none_or(|(st, ..)| matches!(st, FileState::Flushed | FileState::Lost));
            if terminal {
                let bad = found.bad.len();
                self.movers.unrepairable.add(bad as u64);
                drop(lease);
                self.chunks.forget(id);
                // permanent data damage: freeze the flight-recorder rings
                // so the events leading here survive for triage
                let sim = self.sim();
                sim.flight_record("bb.scrub", "unrepairable", || {
                    format!("file_id={file_id} seq={seq} bad_replicas={bad}")
                });
                sim.flight().trigger(
                    sim.now().as_nanos(),
                    &format!("unrepairable scrub: file_id={file_id} seq={seq}"),
                );
            }
            return Some((0, 0));
        };
        let mut spares = spares.into_iter();
        let (mut fresh, mut failed) = (Vec::new(), false);
        for slot in set.iter_mut().filter(|idx| !found.good.contains(idx)) {
            loop {
                let stored = self.kv.set_to(*slot, &key, data.clone(), crc, 0).await;
                let verified =
                    stored.is_ok() && !self.census(&key, crc, [*slot], true).await.good.is_empty();
                if verified {
                    fresh.push(*slot);
                    break;
                }
                if stored.is_ok() {
                    self.movers.verify_fail.inc();
                }
                let Some(spare) = spares.next() else {
                    failed = true;
                    break;
                };
                *slot = spare;
            }
        }
        if failed {
            return None;
        }
        if lease.pinned() {
            // unflushed chunk: every member must hold it pinned before
            // the old pinned copies are released
            for &idx in &set {
                let _ = self.kv.pin_to(idx, &key).await;
            }
        }
        let route = (set != self.view.hash_owners(&key, set.len())).then_some(&set[..]);
        if !lease.commit(route) {
            // the file was deleted under the lease
            for &idx in &fresh {
                let _ = self.kv.delete_from(idx, &key).await;
            }
            return Some((0, 0));
        }
        for &idx in holders.iter().filter(|idx| !set.contains(idx)) {
            let _ = self.kv.delete_from(idx, &key).await;
        }
        Some((fresh.len() as u64, data.len() as u64))
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
