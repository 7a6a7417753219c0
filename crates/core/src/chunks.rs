//! The chunk-lifecycle table: the one record of which chunks the buffer
//! holds and what is being done to each of them.
//!
//! ```text
//!             admit(pinned)            unpin (flushed)
//!   writer ─────────────────▶ pinned ─────────────────▶ resident
//!                               │ ▲                       │ ▲
//!                   lease(work) ▼ │ commit / drop         ▼ │
//!                            Moving | Repairing   (one holder per chunk)
//!
//!   forget (evicted, unrepairable) / forget_file (deleted)
//!        ─▶ record, routing override, queue entries and reader counts
//!           all go together
//! ```
//!
//! Whoever changes a chunk's copies — the rebalancer, the placement
//! optimizer, a scrub repair — holds its [`ChunkLease`] and ends with
//! [`ChunkLease::commit`]. The order of a move is fixed: copy → CRC
//! read-back → pin-carry → re-check the record (`commit`) → route switch →
//! delete-old. A record that vanished under the lease (file deleted
//! mid-move) makes `commit` return `false`: no override is installed and
//! the holder removes the copies it just wrote.
//!
//! The table is also the only code that sets or clears a
//! [`Membership`] routing override for a chunk it knows, so an override
//! cannot outlive its record.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use rkv::{HashRing, Membership};

use crate::manager::chunk_key;

/// `(file_id, seq)`. Ordered, so scrub, rebalance and optimizer scans
/// walk the table file by file, chunk by chunk.
pub(crate) type ChunkId = (u64, u64);

/// One queued placement move: a chunk, the replica set to establish, and
/// whether committing it installs a routing override (`false` for moves
/// back to the chunk's plain hash owners).
pub(crate) type PlaceMove = (ChunkId, Vec<usize>, bool);

/// What a lease holder is doing to the chunk's copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Work {
    /// Re-establishing the replica set elsewhere (rebalancer, optimizer).
    Moving,
    /// Rewriting bad copies in place (scrubber).
    Repairing,
}

#[derive(Default)]
struct Chunk {
    /// CRC32C sealed by the writer.
    crc: u32,
    /// Unflushed: the buffer copies are pinned against eviction, and a
    /// move carries the pin to the new owners before the old copies go.
    pinned: bool,
    /// A [`ChunkLease`] is out.
    leased: bool,
    /// A placement move for this chunk is queued or running (one
    /// decision per chunk in flight).
    decided: bool,
    /// Chunk fetches per reader node, fed by the read path.
    readers: BTreeMap<u32, u64>,
}

/// See the module docs.
pub(crate) struct ChunkTable {
    view: Rc<Membership>,
    chunks: RefCell<BTreeMap<ChunkId, Chunk>>,
    scrub_cursor: Cell<ChunkId>,
    /// Chunks whose ring owners changed, awaiting the rebalancer.
    rebalance: RefCell<VecDeque<ChunkId>>,
    /// Optimizer moves awaiting migration bandwidth.
    place: RefCell<VecDeque<PlaceMove>>,
    /// [`Work::Moving`] leases out.
    moving: Cell<usize>,
}

impl ChunkTable {
    pub(crate) fn new(view: Rc<Membership>) -> ChunkTable {
        ChunkTable {
            view,
            chunks: RefCell::new(BTreeMap::new()),
            scrub_cursor: Cell::new((0, 0)),
            rebalance: RefCell::new(VecDeque::new()),
            place: RefCell::new(VecDeque::new()),
            moving: Cell::new(0),
        }
    }

    /// A chunk landed in the buffer. From here on the record owns the
    /// key's routing override, including one the writer's locality
    /// policy installed before the first byte was routed.
    pub(crate) fn admit(&self, id: ChunkId, crc: u32, pinned: bool) {
        let mut chunks = self.chunks.borrow_mut();
        let c = chunks.entry(id).or_default();
        c.crc = crc;
        c.pinned |= pinned;
    }

    /// The chunk is safe in Lustre (or given up on): moves stop carrying
    /// its pin. `false` when the record is gone.
    pub(crate) fn unpin(&self, id: ChunkId) -> bool {
        let mut chunks = self.chunks.borrow_mut();
        chunks.get_mut(&id).map(|c| c.pinned = false).is_some()
    }

    pub(crate) fn contains(&self, id: ChunkId) -> bool {
        self.chunks.borrow().contains_key(&id)
    }

    pub(crate) fn is_leased(&self, id: ChunkId) -> bool {
        self.chunks.borrow().get(&id).is_some_and(|c| c.leased)
    }

    /// Take the chunk for `work`. `None` when there is no record or
    /// another holder has it.
    pub(crate) fn lease(&self, id: ChunkId, work: Work) -> Option<ChunkLease<'_>> {
        let mut chunks = self.chunks.borrow_mut();
        let c = chunks.get_mut(&id)?;
        if c.leased {
            return None;
        }
        c.leased = true;
        if work == Work::Moving {
            self.moving.set(self.moving.get() + 1);
        }
        Some(ChunkLease {
            table: self,
            id,
            work,
            crc: c.crc,
        })
    }

    /// The chunk left the buffer for good (evicted everywhere, or damaged
    /// beyond repair): drop its record, override and queued moves.
    /// Refused (`false`) while a lease is out — its holder is
    /// re-establishing copies that forgetting would orphan.
    pub(crate) fn forget(&self, id: ChunkId) -> bool {
        let mut chunks = self.chunks.borrow_mut();
        if chunks.get(&id).is_none_or(|c| c.leased) {
            return false;
        }
        chunks.remove(&id);
        self.view.clear_override(&chunk_key(id.0, id.1));
        self.rebalance.borrow_mut().retain(|q| *q != id);
        self.place.borrow_mut().retain(|(q, _, _)| *q != id);
        true
    }

    /// The file was deleted: drop every record of it, leased or not,
    /// with its overrides, queued moves and reader counts. Returns
    /// `seq → servers` for each chunk whose buffer copies sit on an
    /// override's servers instead of its hash owners — a key-routed
    /// delete no longer finds those once the override is gone. The sweep
    /// covers the file's whole seq range `0..chunks`, not just its
    /// records: a chunk that was written through, or evicted and since
    /// forgotten, may still carry its write-time override.
    pub(crate) fn forget_file(&self, file_id: u64, chunks: u64) -> BTreeMap<u64, Vec<usize>> {
        self.chunks
            .borrow_mut()
            .retain(|(fid, _), _| *fid != file_id);
        self.rebalance
            .borrow_mut()
            .retain(|(fid, _)| *fid != file_id);
        self.place
            .borrow_mut()
            .retain(|((fid, _), _, _)| *fid != file_id);
        let mut placed = BTreeMap::new();
        if self.view.overrides_len() > 0 {
            for seq in 0..chunks {
                let key = chunk_key(file_id, seq);
                if let Some(servers) = self.view.override_of(&key) {
                    self.view.clear_override(&key);
                    placed.insert(seq, servers);
                }
            }
        }
        placed
    }

    /// One chunk fetch of `id` issued from `node` (optimizer telemetry).
    pub(crate) fn record_read(&self, id: ChunkId, node: u32) {
        if let Some(c) = self.chunks.borrow_mut().get_mut(&id) {
            *c.readers.entry(node).or_insert(0) += 1;
        }
    }

    /// The next `n` chunks for the scrubber with their sealed CRCs,
    /// round-robin from where the last batch ended so every chunk is
    /// eventually visited regardless of churn.
    pub(crate) fn scrub_batch(&self, n: usize) -> Vec<(ChunkId, u32)> {
        let chunks = self.chunks.borrow();
        let cursor = self.scrub_cursor.get();
        let batch: Vec<(ChunkId, u32)> = chunks
            .range(cursor..)
            .chain(chunks.range(..cursor))
            .take(n)
            .map(|(id, c)| (*id, c.crc))
            .collect();
        if let Some(((fid, seq), _)) = batch.last() {
            self.scrub_cursor.set((*fid, seq + 1));
        }
        batch
    }

    /// Queue every chunk whose `r` ring owners differ between `old` and
    /// `new` for the rebalancer — pinned (buffer-only) chunks first, then
    /// the rest, then whatever was still queued from earlier epochs.
    pub(crate) fn queue_remapped(&self, old: &HashRing<usize>, new: &HashRing<usize>, r: usize) {
        let chunks = self.chunks.borrow();
        let remapped = |id: &ChunkId| {
            let key = chunk_key(id.0, id.1);
            old.route_n(&key, r) != new.route_n(&key, r)
        };
        let mut movers: Vec<ChunkId> = chunks.keys().copied().filter(remapped).collect();
        movers.sort_by_key(|id| !chunks[id].pinned); // stable: table order within each half
        let mut pending = self.rebalance.borrow_mut();
        movers.extend(pending.drain(..));
        let mut seen = BTreeSet::new();
        pending.extend(movers.into_iter().filter(|id| seen.insert(*id)));
    }

    pub(crate) fn next_rebalance(&self) -> Option<ChunkId> {
        self.rebalance.borrow_mut().pop_front()
    }

    /// Put a chunk whose move did not finish back on the rebalance queue
    /// (dropped when its record is gone).
    pub(crate) fn requeue_rebalance(&self, id: ChunkId) {
        if self.contains(id) {
            self.rebalance.borrow_mut().push_back(id);
        }
    }

    /// Chunks queued for the rebalancer or mid-move. Zero — once the
    /// rebalancer's epoch has caught up with the view — means the ring
    /// has converged.
    pub(crate) fn rebalance_backlog(&self) -> usize {
        self.rebalance.borrow().len() + self.moving.get()
    }

    /// Routing hygiene after a drain: an override naming a server that
    /// left the active set is already dormant, so clearing it changes
    /// bookkeeping, not routing; the chunk is queued to re-converge on
    /// its `r` hash owners without a new override.
    pub(crate) fn demote_stale_routes(&self, r: usize) {
        for (&id, c) in self.chunks.borrow_mut().iter_mut() {
            let key = chunk_key(id.0, id.1);
            let stale = self
                .view
                .override_of(&key)
                .is_some_and(|t| t.iter().any(|&idx| !self.view.is_active(idx)));
            if !stale {
                continue;
            }
            self.view.clear_override(&key);
            let owners = self.view.route_n(&key, r);
            if !c.decided && !owners.is_empty() {
                c.decided = true;
                self.place.borrow_mut().push_back((id, owners, false));
            }
        }
    }

    /// Chunks with reader telemetry and no move queued or running, with
    /// their `(node, fetches)` counts — what the optimizer re-costs.
    pub(crate) fn undecided_read(&self) -> Vec<(ChunkId, Vec<(u32, u64)>)> {
        self.chunks
            .borrow()
            .iter()
            .filter(|(_, c)| !c.readers.is_empty() && !c.decided && !c.leased)
            .map(|(id, c)| (*id, c.readers.iter().map(|(&n, &k)| (n, k)).collect()))
            .collect()
    }

    /// Queue the optimizer's decision to move `id` onto `targets`.
    pub(crate) fn queue_place(&self, id: ChunkId, targets: Vec<usize>) {
        if let Some(c) = self.chunks.borrow_mut().get_mut(&id) {
            c.decided = true;
            self.place.borrow_mut().push_back((id, targets, true));
        }
    }

    pub(crate) fn next_place(&self) -> Option<PlaceMove> {
        self.place.borrow_mut().pop_front()
    }

    /// Put a move that did not finish back on the placement queue, still
    /// decided (dropped when its record is gone).
    pub(crate) fn requeue_place(&self, mv: PlaceMove) {
        if self.contains(mv.0) {
            self.place.borrow_mut().push_back(mv);
        }
    }

    /// The chunk's placement move ended (done, stale or pointless): the
    /// optimizer may decide about it again.
    pub(crate) fn settle_place(&self, id: ChunkId) {
        if let Some(c) = self.chunks.borrow_mut().get_mut(&id) {
            c.decided = false;
        }
    }

    /// Placement moves still queued behind the migration budget.
    pub(crate) fn place_backlog(&self) -> usize {
        self.place.borrow().len()
    }
}

/// Exclusive right to change one chunk's buffer copies, released on drop
/// so no exit path can leave the chunk stuck (hidden from the scrubber,
/// counted in the rebalance backlog) for good.
pub(crate) struct ChunkLease<'a> {
    table: &'a ChunkTable,
    id: ChunkId,
    work: Work,
    /// The CRC every copy must match.
    pub(crate) crc: u32,
}

impl ChunkLease<'_> {
    /// Whether the chunk is still unflushed right now (the flusher may
    /// unpin it while the lease is out).
    pub(crate) fn pinned(&self) -> bool {
        let chunks = self.table.chunks.borrow();
        chunks.get(&self.id).is_some_and(|c| c.pinned)
    }

    /// The new copies are verified (and pinned, if the chunk is): make
    /// them the chunk's copies. Re-checks that the record still exists
    /// and, with `route`, switches the chunk's routing onto those
    /// servers — before the holder deletes the old copies, so a reader
    /// never routes at owners whose copies are already gone. `false`
    /// when the record vanished: nothing was switched, and the holder
    /// must remove what it wrote.
    pub(crate) fn commit(&self, route: Option<&[usize]>) -> bool {
        let alive = self.table.contains(self.id);
        if let (true, Some(servers)) = (alive, route) {
            let key = chunk_key(self.id.0, self.id.1);
            self.table.view.set_override(&key, servers.to_vec());
        }
        alive
    }
}

impl Drop for ChunkLease<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.table.chunks.borrow_mut().get_mut(&self.id) {
            c.leased = false;
        }
        if self.work == Work::Moving {
            self.table.moving.set(self.table.moving.get() - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Fabric, NetConfig, NodeId};
    use proptest::prelude::*;
    use rdmasim::RdmaStack;
    use rkv::server::KvServerConfig;
    use rkv::KvServer;
    use simkit::Sim;

    const SERVERS: usize = 4;
    const R: usize = 2;

    /// A view over idle servers: the table only needs routing, so no
    /// simulation ever runs.
    fn view() -> Rc<Membership> {
        let fabric = Fabric::new(Sim::new(), SERVERS, NetConfig::default());
        let stack = RdmaStack::new(fabric);
        let servers = (0..SERVERS as u32)
            .map(|i| KvServer::new(Rc::clone(&stack), NodeId(i), KvServerConfig::default()))
            .collect();
        Membership::new(servers)
    }

    /// What the table must agree with: which chunks exist and which of
    /// them are pinned. Files, like the manager's ids, never come back
    /// once forgotten.
    #[derive(Default)]
    struct Model {
        chunks: BTreeMap<ChunkId, bool>,
        forgotten: BTreeSet<ChunkId>,
        dead_files: BTreeSet<u64>,
    }

    /// No override or queue entry without a record behind it.
    fn check_nothing_outlives_its_record(t: &ChunkTable, m: &Model) {
        let routed = m
            .chunks
            .keys()
            .filter(|id| t.view.override_of(&chunk_key(id.0, id.1)).is_some())
            .count();
        assert_eq!(routed, t.view.overrides_len(), "override without a record");
        for id in t.rebalance.borrow().iter() {
            assert!(m.chunks.contains_key(id), "rebalance entry outlived {id:?}");
        }
        for (id, _, _) in t.place.borrow().iter() {
            assert!(m.chunks.contains_key(id), "placement move outlived {id:?}");
        }
        assert_eq!(t.chunks.borrow().len(), m.chunks.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of everything the manager does to the
        /// table, against a plain map: one lease per chunk at most and
        /// released on every exit, commit succeeds exactly while the
        /// record lives, nothing outlives its record, and the backlog
        /// drains to zero.
        #[test]
        fn table_agrees_with_a_reference_map(
            ops in proptest::collection::vec((0u8..10, 1u64..4, 0u64..4, 0u8..8), 1..160)
        ) {
            let view = view();
            let table = ChunkTable::new(Rc::clone(&view));
            let mut model = Model::default();
            let mut leases: Vec<ChunkLease<'_>> = Vec::new();
            let mut last_ring = view.ring_snapshot();
            for (op, fid, seq, arg) in ops {
                let id = (fid, seq);
                let held = |leases: &[ChunkLease<'_>]| leases.iter().any(|l| l.id == id);
                match op {
                    0 | 1 => {
                        if !model.dead_files.contains(&fid) && !model.forgotten.contains(&id) {
                            table.admit(id, seq as u32, arg & 1 == 1);
                            *model.chunks.entry(id).or_default() |= arg & 1 == 1;
                        }
                    }
                    2 => {
                        prop_assert_eq!(table.unpin(id), model.chunks.contains_key(&id));
                        model.chunks.entry(id).and_modify(|p| *p = false);
                    }
                    3 => {
                        let work = if arg & 1 == 0 { Work::Moving } else { Work::Repairing };
                        let free = model.chunks.contains_key(&id) && !held(&leases);
                        let lease = table.lease(id, work);
                        prop_assert_eq!(lease.is_some(), free, "second lease on {:?}", id);
                        leases.extend(lease);
                    }
                    4 if !leases.is_empty() => {
                        // commit (odd: with a route switch), then release
                        let lease = leases.swap_remove(arg as usize % leases.len());
                        let route = [arg as usize % SERVERS];
                        let alive = lease.commit((arg & 1 == 1).then_some(&route[..]));
                        prop_assert_eq!(alive, model.chunks.contains_key(&lease.id));
                        prop_assert_eq!(lease.pinned(), model.chunks.get(&lease.id) == Some(&true));
                    }
                    5 if !leases.is_empty() => {
                        // abort: an early return drops the lease uncommitted
                        leases.swap_remove(arg as usize % leases.len());
                    }
                    6 => {
                        let placed = table.forget_file(fid, 4);
                        for s in placed.keys() {
                            prop_assert!(model.chunks.contains_key(&(fid, *s)));
                        }
                        model.chunks.retain(|(f, _), _| *f != fid);
                        model.dead_files.insert(fid);
                    }
                    7 => {
                        let ok = model.chunks.contains_key(&id) && !held(&leases);
                        prop_assert_eq!(table.forget(id), ok);
                        if ok {
                            model.chunks.remove(&id);
                            model.forgotten.insert(id);
                        }
                    }
                    8 => {
                        // epoch bump: drain or re-admit a server, then what
                        // the rebalancer and optimizer do about it
                        let idx = 1 + arg as usize % (SERVERS - 1);
                        if view.is_active(idx) {
                            view.drain_server(view.server(idx).node());
                        } else {
                            view.add_server(view.server(idx));
                        }
                        let ring = view.ring_snapshot();
                        table.queue_remapped(&last_ring, &ring, R);
                        last_ring = ring;
                        table.demote_stale_routes(R);
                    }
                    _ => {
                        // the movers' queue traffic
                        table.record_read(id, arg as u32);
                        for (id, _) in table.undecided_read() {
                            table.queue_place(id, vec![arg as usize % SERVERS]);
                        }
                        if let Some(id) = table.next_rebalance() {
                            prop_assert!(model.chunks.contains_key(&id));
                            table.requeue_rebalance(id);
                        }
                        if let Some(mv) = table.next_place() {
                            prop_assert!(model.chunks.contains_key(&mv.0));
                            if arg & 1 == 0 {
                                table.requeue_place(mv);
                            } else {
                                table.settle_place(mv.0);
                            }
                        }
                    }
                }
                check_nothing_outlives_its_record(&table, &model);
                let moving = leases.iter().filter(|l| l.work == Work::Moving).count();
                prop_assert_eq!(
                    table.rebalance_backlog(),
                    table.rebalance.borrow().len() + moving
                );
            }
            leases.clear();
            while table.next_rebalance().is_some() {}
            prop_assert_eq!(table.rebalance_backlog(), 0, "a lease leaked");
            for id in model.chunks.keys() {
                prop_assert!(!table.is_leased(*id));
            }
            while table.next_place().is_some() {}
            prop_assert_eq!(table.place_backlog(), 0);
        }
    }
}
