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

use crate::chunks::{ChunkId, ChunkLease, Why};
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

/// What one chunk's diff against its desired placement calls for.
enum Action {
    /// Rewrite the bad copies the census found, in place.
    Repair(Census),
    /// The verified move onto a replica set ([`BbManager::migrate_to`]),
    /// installing a routing override when `true`.
    Move(Vec<usize>, bool),
    /// An unflushed chunk short of its replica set: rewrite the copy of
    /// each member that answered without a good one, and stand the next
    /// live ring server in for each member that did not answer.
    Copy(Vec<usize>, Census),
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
        self.chunks.demote_stale_routes(r);
        self.chunks
            .queue_remapped(&self.last_ring.borrow(), &ring, r);
        self.movers.epochs.add(epoch - last);
        *self.last_ring.borrow_mut() = ring;
        self.last_epoch.set(epoch);
    }

    /// The placement trigger. First, routing hygiene: overrides pointing
    /// at a server that left the active set go back to hash placement and
    /// the chunk is queued to re-converge on its hash owners (the epoch
    /// trigger does the same, whichever fires first). Then every
    /// chunk with reader telemetry and no placement move queued is
    /// re-costed against the topology model, and a strictly cheaper
    /// replica set is queued as a move. Decisions pause while the epoch
    /// trigger still owes the view a catch-up.
    fn decide_placement(&self) {
        let Some(counters) = &self.place else { return };
        let r = self.config.kv_replication.max(1);
        self.chunks.demote_stale_routes(r);
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
                self.chunks.push((fid, seq), Why::Place(candidate, true));
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
    /// copied, or `None` when the chunk should be taken again next round.
    async fn reconcile(&self, id: ChunkId, why: &Why) -> Option<u64> {
        let key = chunk_key(id.0, id.1);
        let action = match why {
            Why::Remapped => {
                let desired = integrity::replicas(&self.view, &key, self.config.kv_replication);
                Action::Move(desired, false)
            }
            // a target left the cluster while the move sat queued: the
            // decision is stale, and the next round re-decides
            Why::Place(targets, _) if !targets.iter().all(|&i| self.view.is_active(i)) => {
                return Some(0)
            }
            Why::Place(targets, install) => Action::Move(targets.clone(), *install),
            Why::Scrub => match self.scrub_census(id, &key).await {
                Some(action) => action,
                None => return Some(0),
            },
        };
        let copied = match action {
            Action::Move(desired, install) => {
                let bytes = self.migrate_to(id, &desired, install).await?;
                match (why, &self.place) {
                    _ if bytes == 0 => {}
                    (Why::Place(..), Some(counters)) => {
                        counters.migrations.inc();
                        counters.bytes.add(bytes);
                    }
                    _ => {
                        self.movers.moved.inc();
                        self.movers.bytes.add(bytes);
                    }
                }
                bytes
            }
            Action::Repair(found) => self.mend(id, &key, found.bad.clone(), found).await,
            Action::Copy(set, found) => self.mend(id, &key, set, found).await,
            Action::Forget => {
                self.chunks.forget(id);
                0
            }
        };
        Some(copied)
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

    /// The scrub trigger's diff: census the chunk's replica set (no lease
    /// taken). A copy that fails its digest is rewritten. A missing copy
    /// of a flushed chunk is legal — LRU eviction, Lustre holds it — but
    /// an unflushed chunk's only copies are in the buffer, so one short
    /// of its set is restored: once any membership change is reconciled,
    /// since until then a member's miss is a copy its move has yet to
    /// bring. `None` when nothing differs, or nothing can be done yet.
    async fn scrub_census(&self, id: ChunkId, key: &[u8]) -> Option<Action> {
        let (crc, pinned) = self.chunks.record(id)?;
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
            return Some(Action::Copy(set.to_vec(), found));
        }
        (!found.bad.is_empty()).then_some(Action::Repair(found))
    }

    /// Run [`Action::Repair`] (`set`: the bad copies) or [`Action::Copy`]
    /// (`set`: the replica set) from the first good copy, or from Lustre
    /// once the file is flushed. Every member of `set` without a good copy
    /// that answered is rewritten in place; one that did not answer is
    /// replaced by the next live ring server outside the set that takes a
    /// read-back-verified copy, the chunk then routes to the new set
    /// through an override, and the replaced member's copy is deleted if
    /// it can be reached. With no source and the file terminal, the bad
    /// copies count `bb.scrub.unrepairable` once. Returns the bytes written.
    async fn mend(&self, id: ChunkId, key: &[u8], set: Vec<usize>, found: Census) -> u64 {
        let Some(lease) = self.chunks.lease(id) else {
            return 0; // the file is gone
        };
        let crc = lease.crc;
        let data = match found.value {
            Some(v) => Some(v.data),
            None => self.lustre_chunk(id, crc).await,
        };
        let Some(data) = data else {
            // No authoritative copy right now. While the file is still
            // flushing, the flusher's own verified read-back decides the
            // chunk's fate — retry next round rather than jumping to a
            // verdict. Once the file is terminal the damage is permanent:
            // count it once and stop scanning the chunk.
            let (file_id, seq) = id;
            let terminal = self
                .file_info(file_id)
                .is_none_or(|(st, ..)| matches!(st, FileState::Flushed | FileState::Lost));
            if terminal {
                self.movers.unrepairable.add(found.bad.len() as u64);
                drop(lease);
                self.chunks.forget(id);
                // permanent data damage: freeze the flight-recorder rings
                // so the events leading here survive for triage
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
            return 0;
        };
        let order = placement::ring_order(&self.view, key);
        let mut spares = order.into_iter().filter(|idx| !set.contains(idx));
        let mut placed = set.clone();
        let mut fresh = Vec::new();
        for slot in placed.iter_mut() {
            if found.good.contains(slot) {
                continue;
            }
            if found.bad.contains(slot) || found.misses.contains(slot) {
                if self
                    .kv
                    .set_to(*slot, key, data.clone(), crc, 0)
                    .await
                    .is_ok()
                {
                    self.movers.repaired.inc();
                    fresh.push(*slot);
                }
                continue;
            }
            for idx in spares.by_ref() {
                if self.copy_verified(idx, key, &data, crc).await {
                    self.movers.repaired.inc();
                    fresh.push(idx);
                    *slot = idx;
                    break;
                }
            }
        }
        if lease.pinned() {
            // a bad copy's overwrite keeps its pin; a new copy needs one
            for &idx in fresh.iter().filter(|idx| !found.bad.contains(idx)) {
                let _ = self.kv.pin_to(idx, key).await;
            }
        }
        let route = (placed != set).then_some(&placed[..]);
        if self.commit(&lease, key, &fresh, route).await {
            for (&old, _) in set.iter().zip(&placed).filter(|(old, new)| old != new) {
                let _ = self.kv.delete_from(old, key).await;
            }
        }
        data.len() as u64 * fresh.len() as u64
    }

    /// Write a chunk's `data` to `idx` and read back what the server
    /// stored; `false` when either fails (counted
    /// `bb.rebalance.verify_fail` when the read-back does).
    async fn copy_verified(&self, idx: usize, key: &[u8], data: &Bytes, crc: u32) -> bool {
        if self
            .kv
            .set_to(idx, key, data.clone(), crc, 0)
            .await
            .is_err()
        {
            return false;
        }
        let ok = !self.census(key, crc, [idx], true).await.good.is_empty();
        if !ok {
            self.movers.verify_fail.inc();
        }
        ok
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

    /// Establish `desired` as a chunk's replica set, under its lease and
    /// in the commit order of [`crate::chunks`]: copy to each missing
    /// target, verify every fresh copy by CRC read-back, carry the pin
    /// for unflushed chunks, commit (with `install_override`, switching
    /// the chunk's routing onto `desired`), and only then delete copies
    /// from roster members outside the set. Old copies outlive new ones
    /// until verification succeeds, so a verify failure at any point
    /// leaves at least one good copy reachable (the read path widens to
    /// the full roster once epoch > 0). Returns the payload bytes copied
    /// (`0`: the chunk vanished, no authoritative copy is reachable right
    /// now and the old layout stays, or every target already held it), or
    /// `None` — old copies kept — when a copy or its read-back failed.
    async fn migrate_to(
        &self,
        id: ChunkId,
        desired: &[usize],
        install_override: bool,
    ) -> Option<u64> {
        if desired.is_empty() || !self.chunks.contains(id) {
            return Some(0); // deleted or forgotten since being queued
        }
        let lease = self.chunks.lease(id)?;
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
            return Some(0);
        };
        let mut fresh = Vec::new();
        let mut verified = true;
        for &idx in desired.iter().filter(|idx| !found.good.contains(idx)) {
            match self.copy_verified(idx, &key, &data, crc).await {
                true => fresh.push(idx),
                false => verified = false,
            }
        }
        if !verified {
            return None;
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
            return Some(0);
        }
        for idx in self.roster_except(desired) {
            let _ = self.kv.delete_from(idx, &key).await;
        }
        Some(if fresh.is_empty() {
            0
        } else {
            data.len() as u64
        })
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
