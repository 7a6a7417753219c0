//! The chunk-lifecycle table: the one record of which chunks the buffer
//! holds, and the reconciler's one work queue.
//!
//! ```text
//!             admit(pinned)            unpin (flushed)
//!   writer ─────────────────▶ pinned ─────────────────▶ resident ⟲ the scrub re-sends
//!                               │ ▲                       │ ▲        an owed unpin
//!                         lease ▼ │ commit / drop         ▼ │
//!                          the reconciler (one holder per chunk)
//!
//!   forget (evicted, unrepairable) / forget_file (the manager's file
//!   reap, once the file's flusher has ended)
//!        ─▶ record, owed unpins, routing override, queue entries and
//!           reader counts all go together
//! ```
//!
//! Three triggers queue a chunk for the reconciler (`crate::movers`),
//! each entry tagged with its [`Why`]: the scrub cursor, a membership
//! epoch that moved its ring owners, and a placement decision.
//!
//! One routine changes a chunk's copies, the reconciler's `converge`
//! (Repair, Copy and Move are its inputs); it holds the chunk's
//! [`ChunkLease`] and ends with [`ChunkLease::commit`]. Its order is
//! fixed, and stated here once: source (a good copy on the desired set,
//! then on [`crate::integrity::holders`] outside it, then the flushed
//! Lustre copy) → copy → CRC read-back → pin-carry → re-check the record
//! (`commit`) → route switch → delete the old holders' copies outside
//! the set. A failed copy or read-back stops before `commit`, with the
//! old copies and route in place. A record that vanished under the lease
//! (file deleted mid-move) makes `commit` return `false`: the route is
//! not switched and the holder removes the copies it just wrote.
//!
//! The table is also the only code that sets or clears a
//! [`Membership`] routing override for a chunk it knows, so an override
//! cannot outlive its record.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use rkv::{HashRing, Membership};

use crate::manager::chunk_key;

/// `(file_id, seq)`. Ordered, so the scrub cursor and the epoch and
/// placement scans walk the table file by file, chunk by chunk.
pub(crate) type ChunkId = (u64, u64);

/// Why a chunk is on the reconciler's queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Why {
    /// The scrub cursor reached it: census its replica set.
    Scrub,
    /// A membership epoch moved its ring owners, or its override went
    /// stale: converge on its replica set.
    Remapped,
    /// A placement decision: move it onto these servers.
    Place(Vec<usize>),
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
    /// Chunk fetches per reader node, fed by the read path.
    readers: BTreeMap<u32, u64>,
}

/// See the module docs.
pub(crate) struct ChunkTable {
    view: Rc<Membership>,
    chunks: RefCell<BTreeMap<ChunkId, Chunk>>,
    /// Per flushed chunk, the holders that did not answer its unpin: they
    /// still pin their copies, and the scrub trigger owes them the unpin.
    /// Kept beside the records, not in them, as it is almost always empty.
    owed: RefCell<BTreeMap<ChunkId, Vec<usize>>>,
    scrub_cursor: Cell<ChunkId>,
    /// The reconciler's work, in arrival order.
    queue: RefCell<VecDeque<(ChunkId, Why)>>,
    /// [`ChunkLease`]s out.
    leases: Cell<usize>,
}

impl ChunkTable {
    pub(crate) fn new(view: Rc<Membership>) -> ChunkTable {
        ChunkTable {
            view,
            chunks: RefCell::new(BTreeMap::new()),
            owed: RefCell::new(BTreeMap::new()),
            scrub_cursor: Cell::new((0, 0)),
            queue: RefCell::new(VecDeque::new()),
            leases: Cell::new(0),
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
        if c.pinned {
            self.owed.borrow_mut().remove(&id);
        }
    }

    /// The chunk is safe in Lustre (or given up on): moves stop carrying
    /// its pin, and the holders its unpin `missed` are owed it until the
    /// scrub trigger's re-send settles here. `false` without a record.
    pub(crate) fn unpin(&self, id: ChunkId, missed: Vec<usize>) -> bool {
        let mut chunks = self.chunks.borrow_mut();
        let Some(c) = chunks.get_mut(&id) else {
            return false;
        };
        c.pinned = false;
        let mut owed = self.owed.borrow_mut();
        if missed.is_empty() {
            owed.remove(&id);
        } else {
            owed.insert(id, missed);
        }
        true
    }

    /// The holders still owed the chunk's unpin.
    pub(crate) fn owed_unpins(&self, id: ChunkId) -> Vec<usize> {
        self.owed.borrow().get(&id).cloned().unwrap_or_default()
    }

    pub(crate) fn contains(&self, id: ChunkId) -> bool {
        self.chunks.borrow().contains_key(&id)
    }

    /// The chunk's sealed CRC and whether it is still unflushed.
    pub(crate) fn record(&self, id: ChunkId) -> Option<(u32, bool)> {
        self.chunks.borrow().get(&id).map(|c| (c.crc, c.pinned))
    }

    /// Take the chunk to change its copies. `None` when there is no
    /// record or another holder has it.
    pub(crate) fn lease(&self, id: ChunkId) -> Option<ChunkLease<'_>> {
        let mut chunks = self.chunks.borrow_mut();
        let c = chunks.get_mut(&id)?;
        if c.leased {
            return None;
        }
        c.leased = true;
        self.leases.set(self.leases.get() + 1);
        Some(ChunkLease {
            table: self,
            id,
            crc: c.crc,
        })
    }

    /// The chunk left the buffer for good (evicted everywhere, or damaged
    /// beyond repair): drop its record, override and queue entries.
    /// Refused (`false`) while a lease is out — its holder is
    /// re-establishing copies that forgetting would orphan.
    pub(crate) fn forget(&self, id: ChunkId) -> bool {
        let mut chunks = self.chunks.borrow_mut();
        if chunks.get(&id).is_none_or(|c| c.leased) {
            return false;
        }
        chunks.remove(&id);
        self.owed.borrow_mut().remove(&id);
        self.view.clear_override(&chunk_key(id.0, id.1));
        self.queue.borrow_mut().retain(|(q, _)| *q != id);
        true
    }

    /// The file is being reaped: drop every record of it, leased or not,
    /// with its owed unpins, overrides, queue entries and reader counts.
    /// The sweep covers the file's whole seq range `0..chunks`: a chunk
    /// written through, or evicted and forgotten, may still carry its
    /// write-time override.
    pub(crate) fn forget_file(&self, file_id: u64, chunks: u64) {
        self.chunks
            .borrow_mut()
            .retain(|(fid, _), _| *fid != file_id);
        self.owed.borrow_mut().retain(|(fid, _), _| *fid != file_id);
        self.queue
            .borrow_mut()
            .retain(|((fid, _), _)| *fid != file_id);
        if self.view.overrides_len() > 0 {
            for seq in 0..chunks {
                self.view.clear_override(&chunk_key(file_id, seq));
            }
        }
    }

    /// One chunk fetch of `id` issued from `node` (placement telemetry).
    pub(crate) fn record_read(&self, id: ChunkId, node: u32) {
        if let Some(c) = self.chunks.borrow_mut().get_mut(&id) {
            *c.readers.entry(node).or_insert(0) += 1;
        }
    }

    /// The scrub trigger: queue the next `n` chunks, round-robin from
    /// where the last batch ended so every chunk is eventually visited
    /// regardless of churn.
    pub(crate) fn queue_scrub(&self, n: usize) {
        let chunks = self.chunks.borrow();
        let cursor = self.scrub_cursor.get();
        let batch = chunks.range(cursor..).chain(chunks.range(..cursor)).take(n);
        let batch: Vec<ChunkId> = batch.map(|(id, _)| *id).collect();
        if let Some(&(fid, seq)) = batch.last() {
            self.scrub_cursor.set((fid, seq + 1));
        }
        let mut queue = self.queue.borrow_mut();
        queue.extend(batch.into_iter().map(|id| (id, Why::Scrub)));
    }

    /// The epoch trigger: queue every chunk whose `r` ring owners differ
    /// between `old` and `new` — pinned (buffer-only) chunks first, then
    /// the rest, then whatever was still queued from earlier epochs.
    pub(crate) fn queue_remapped(&self, old: &HashRing<usize>, new: &HashRing<usize>, r: usize) {
        let chunks = self.chunks.borrow();
        let remapped = |id: &ChunkId| {
            let key = chunk_key(id.0, id.1);
            old.route_n(&key, r) != new.route_n(&key, r)
        };
        let mut ids: Vec<ChunkId> = chunks.keys().copied().filter(remapped).collect();
        ids.sort_by_key(|id| !chunks[id].pinned); // stable: table order within each half
        let mut queue = self.queue.borrow_mut();
        let (earlier, other) = queue.drain(..).partition(|(_, why)| *why == Why::Remapped);
        *queue = other;
        ids.extend(earlier.into_iter().map(|(id, _): (ChunkId, Why)| id));
        let mut seen = BTreeSet::new();
        let ids = ids.into_iter().filter(|id| seen.insert(*id));
        queue.extend(ids.map(|id| (id, Why::Remapped)));
    }

    /// Whether a placement move of `id` is queued (one decision per
    /// chunk in flight).
    fn placing(&self, id: ChunkId) -> bool {
        let queue = self.queue.borrow();
        queue
            .iter()
            .any(|(q, why)| *q == id && matches!(why, Why::Place(..)))
    }

    /// Routing hygiene after a drain: an override naming a server that
    /// left the active set is already dormant, so clearing it changes
    /// bookkeeping, not routing; the chunk is queued, as remapped, to
    /// re-converge on its hash owners.
    pub(crate) fn demote_stale_routes(&self) {
        for &id in self.chunks.borrow().keys() {
            let key = chunk_key(id.0, id.1);
            let stale = self
                .view
                .override_of(&key)
                .is_some_and(|t| t.iter().any(|&idx| !self.view.is_active(idx)));
            if !stale {
                continue;
            }
            self.view.clear_override(&key);
            if !self.placing(id) {
                self.queue.borrow_mut().push_back((id, Why::Remapped));
            }
        }
    }

    /// Chunks with reader telemetry and no placement move queued, with
    /// their `(node, fetches)` counts — what the placement trigger
    /// re-costs.
    pub(crate) fn undecided_read(&self) -> Vec<(ChunkId, Vec<(u32, u64)>)> {
        self.chunks
            .borrow()
            .iter()
            .filter(|(id, c)| !c.readers.is_empty() && !self.placing(**id))
            .map(|(id, c)| (*id, c.readers.iter().map(|(&n, &k)| (n, k)).collect()))
            .collect()
    }

    pub(crate) fn pop(&self) -> Option<(ChunkId, Why)> {
        self.queue.borrow_mut().pop_front()
    }

    /// Queue work for a chunk: a placement decision, or work that did
    /// not finish (dropped when the chunk's record is gone).
    pub(crate) fn push(&self, id: ChunkId, why: Why) {
        if self.contains(id) {
            self.queue.borrow_mut().push_back((id, why));
        }
    }

    /// Entries on the queue.
    pub(crate) fn queued(&self) -> usize {
        self.queue.borrow().len()
    }

    /// Chunks queued for their new ring owners, plus changes in flight.
    /// Zero — once the epoch trigger has caught up with the view — means
    /// the ring has converged.
    pub(crate) fn rebalance_backlog(&self) -> usize {
        let queue = self.queue.borrow();
        let remapped = queue.iter().filter(|(_, why)| *why == Why::Remapped);
        remapped.count() + self.leases.get()
    }

    /// Placement moves still queued behind the byte budget.
    pub(crate) fn place_backlog(&self) -> usize {
        let queue = self.queue.borrow();
        queue
            .iter()
            .filter(|(_, why)| matches!(why, Why::Place(..)))
            .count()
    }
}

/// Exclusive right to change one chunk's buffer copies, released on drop
/// so no exit path can leave the chunk stuck (counted in the rebalance
/// backlog, refused by `forget`) for good.
pub(crate) struct ChunkLease<'a> {
    table: &'a ChunkTable,
    id: ChunkId,
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
    /// and switches the chunk's routing onto `route`'s servers through
    /// an override, or, with `None`, back to its hash owners — before the
    /// holder deletes the old copies, so a reader never routes at owners
    /// whose copies are already gone. `false` when the record vanished:
    /// nothing was switched, and the holder must remove what it wrote.
    pub(crate) fn commit(&self, route: Option<&[usize]>) -> bool {
        let alive = self.table.contains(self.id);
        if alive {
            let key = chunk_key(self.id.0, self.id.1);
            match route {
                Some(servers) => self.table.view.set_override(&key, servers.to_vec()),
                None => self.table.view.clear_override(&key),
            }
        }
        alive
    }
}

impl Drop for ChunkLease<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.table.chunks.borrow_mut().get_mut(&self.id) {
            c.leased = false;
        }
        self.table.leases.set(self.table.leases.get() - 1);
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

    /// What the table must agree with: which chunks exist, which of them
    /// are pinned, and which holders each flushed one still owes an unpin
    /// to. Files, like the manager's ids, never come back once forgotten.
    #[derive(Default)]
    struct Model {
        chunks: BTreeMap<ChunkId, bool>,
        owed: BTreeMap<ChunkId, Vec<usize>>,
        forgotten: BTreeSet<ChunkId>,
        dead_files: BTreeSet<u64>,
    }

    impl Model {
        /// An unpin of `id` that missed `missed` (the flusher's, or the
        /// scrub trigger's settle).
        fn unpin(&mut self, id: ChunkId, missed: Vec<usize>) {
            if let Some(pinned) = self.chunks.get_mut(&id) {
                *pinned = false;
                self.owed.insert(id, missed);
                self.owed.retain(|_, o| !o.is_empty());
            }
        }
    }

    /// The servers among `0..SERVERS` whose bit is set in `bits`.
    fn servers_in(bits: u8) -> Vec<usize> {
        (0..SERVERS).filter(|i| bits >> i & 1 == 1).collect()
    }

    /// No override, queue entry or owed unpin without a record behind
    /// it, and no unpin owed on a pinned record.
    fn check_nothing_outlives_its_record(t: &ChunkTable, m: &Model) {
        let routed = m
            .chunks
            .keys()
            .filter(|id| t.view.override_of(&chunk_key(id.0, id.1)).is_some())
            .count();
        assert_eq!(routed, t.view.overrides_len(), "override without a record");
        for (id, why) in t.queue.borrow().iter() {
            assert!(m.chunks.contains_key(id), "{why:?} entry outlived {id:?}");
        }
        assert_eq!(t.chunks.borrow().len(), m.chunks.len());
        assert_eq!(*t.owed.borrow(), m.owed);
        for id in t.owed.borrow().keys() {
            let pinned = t.chunks.borrow().get(id).map(|c| c.pinned);
            assert_eq!(pinned, Some(false), "unpin owed on {id:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of everything the manager does to the
        /// table — each trigger's push, the reconciler's pop and requeue,
        /// leases, unpins that miss holders and their settling,
        /// `forget`, `forget_file` — against a plain map: one lease per
        /// chunk at most and released on every exit, commit succeeds
        /// exactly while the record lives, nothing outlives its record,
        /// and the backlog drains to zero.
        #[test]
        fn table_agrees_with_a_reference_map(
            ops in proptest::collection::vec((0u8..11, 1u64..4, 0u64..4, 0u8..8), 1..160)
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
                            if arg & 1 == 1 {
                                model.owed.remove(&id);
                            }
                        }
                    }
                    2 => {
                        // the flusher's unpin, missing the servers in `arg`
                        let missed = servers_in(arg);
                        let alive = table.unpin(id, missed.clone());
                        prop_assert_eq!(alive, model.chunks.contains_key(&id));
                        model.unpin(id, missed);
                    }
                    3 => {
                        let free = model.chunks.contains_key(&id) && !held(&leases);
                        let lease = table.lease(id);
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
                        table.forget_file(fid, 4);
                        model.chunks.retain(|(f, _), _| *f != fid);
                        model.owed.retain(|(f, _), _| *f != fid);
                        model.dead_files.insert(fid);
                    }
                    7 => {
                        let ok = model.chunks.contains_key(&id) && !held(&leases);
                        prop_assert_eq!(table.forget(id), ok);
                        if ok {
                            model.chunks.remove(&id);
                            model.owed.remove(&id);
                            model.forgotten.insert(id);
                        }
                    }
                    8 => {
                        // epoch bump: drain or re-admit a server, then what
                        // the epoch and placement triggers do about it
                        let idx = 1 + arg as usize % (SERVERS - 1);
                        if view.is_active(idx) {
                            view.drain_server(view.server(idx).node());
                        } else {
                            view.add_server(view.server(idx));
                        }
                        let ring = view.ring_snapshot();
                        table.queue_remapped(&last_ring, &ring, R);
                        last_ring = ring;
                        table.demote_stale_routes();
                    }
                    9 => {
                        // the scrub trigger's settle: re-send to the owed
                        // holders; those in `arg` still do not answer
                        let owed = table.owed_unpins(id);
                        prop_assert_eq!(&owed, model.owed.get(&id).unwrap_or(&Vec::new()));
                        if !owed.is_empty() {
                            let missed: Vec<usize> =
                                owed.into_iter().filter(|i| servers_in(arg).contains(i)).collect();
                            table.unpin(id, missed.clone());
                            model.unpin(id, missed);
                        }
                    }
                    _ => {
                        // the scrub and placement triggers, then one
                        // reconciler step: done, or back on the queue
                        table.record_read(id, arg as u32);
                        table.queue_scrub(1 + arg as usize % 3);
                        for (id, _) in table.undecided_read() {
                            table.push(id, Why::Place(vec![arg as usize % SERVERS]));
                            prop_assert!(table.placing(id));
                        }
                        if let Some((id, why)) = table.pop() {
                            prop_assert!(model.chunks.contains_key(&id));
                            if arg & 1 == 0 {
                                table.push(id, why);
                            }
                        }
                    }
                }
                check_nothing_outlives_its_record(&table, &model);
                let remapped = table.queue.borrow().iter().filter(|e| e.1 == Why::Remapped).count();
                prop_assert_eq!(table.rebalance_backlog(), remapped + leases.len());
                prop_assert!(table.place_backlog() <= table.queued());
            }
            leases.clear();
            while table.pop().is_some() {}
            prop_assert_eq!(table.rebalance_backlog(), 0, "a lease leaked");
            prop_assert_eq!(table.place_backlog(), 0);
            for c in table.chunks.borrow().values() {
                prop_assert!(!c.leased);
            }
        }
    }
}
