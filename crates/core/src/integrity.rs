//! Replica sets and end-to-end chunk integrity: which servers hold a
//! chunk, CRC32C verification on every buffer read, replica failover and
//! in-place repair.
//!
//! The KV client addresses one server per verb; this module is the one
//! place that decides a chunk's replica set ([`replicas`]), the order a
//! lookup walks ([`read_order`]) and every server that may still hold a
//! copy ([`holders`]). Writes, reads, the flusher, the reconciler and the
//! manager's file reap all take their servers from here.
//!
//! Every chunk sealed by a [`crate::BbWriter`] carries
//! `crc32c(key || data)` in the KV value's `flags` word and in the file's
//! chunk-CRC manifest ([`crate::manager::BbFileMeta::chunk_crcs`]). This
//! module is the read-side enforcement, and the one place that decides
//! what a good copy is (`is_good`) and how servers are walked to find
//! one (`census`): `get_verified` never returns bytes that fail their
//! digest — a corrupt copy counts `bb.integrity.checksum_fail`, the rest
//! of the key's read order is consulted (a good copy off the primary
//! counts `bb.integrity.failovers`), and a good copy found anywhere
//! overwrites the bad one in place (`bb.integrity.repairs`). Only when
//! *no* copy verifies does the chunk fall through to the next tier
//! (Lustre), where the manifest guards the read again — so a completed
//! read is byte-correct or loudly absent, never silently wrong.

use bytes::Bytes;
use rkv::store::Value;
use rkv::{KvClient, Membership};

/// The replica set of `key` at replication `r`: the first `r` distinct
/// active servers clockwise on the live ring (the cap tracks the
/// *current* active count, so the set grows when servers join), or its
/// placement override. Element 0 is the primary, the server
/// [`KvClient::route`] addresses.
pub fn replicas(view: &Membership, key: &[u8], r: usize) -> Vec<usize> {
    view.route_n(key, r.max(1))
}

/// Where a lookup of `key` looks, in order, and how many leading entries
/// are its [`replicas`]: the replica set in ring order, then — once
/// membership has ever changed (epoch > 0) — the rest of the roster in
/// roster order. A chunk written under an old ring and not yet moved
/// still lives on its previous owner (possibly a drained server), and the
/// reconciler deletes old copies only after the new owners verify, so a
/// walk of this order cannot lose it. Every lookup walks this list:
/// `get_verified` (readers and the flusher; a server whose batched leg
/// just failed goes last) and the reconciler's scrub census (the replica
/// set, then the rest once every replica answered empty).
pub fn read_order(view: &Membership, key: &[u8], r: usize) -> (Vec<usize>, usize) {
    let mut order = replicas(view, key, r);
    let set = order.len();
    if view.epoch() > 0 {
        for idx in 0..view.roster_len() {
            if !order.contains(&idx) {
                order.push(idx);
            }
        }
    }
    (order, set)
}

/// Every server that may hold a copy of `key`: its [`replicas`] and,
/// under an override, its hash owners too — a member the reconciler
/// replaced while it was unreachable keeps its copy, and its pin, when
/// it comes back —, or — once membership has ever changed (epoch > 0) —
/// the whole roster, since a not-yet-moved copy still sits on an old
/// owner (and a surviving one would be found again by [`read_order`]).
/// The one answer to where a chunk's copies may sit: unpins, the manager's
/// file reap (before it clears the chunk's override) and the reconciler's
/// source search and old-copy delete go here.
pub fn holders(view: &Membership, key: &[u8], r: usize) -> Vec<usize> {
    if view.epoch() > 0 {
        return (0..view.roster_len()).collect();
    }
    let mut servers = replicas(view, key, r);
    for idx in view.hash_owners(key, r.max(1)) {
        if !servers.contains(&idx) {
            servers.push(idx);
        }
    }
    servers
}

/// CRC32C digest of a chunk as stored: covers the key so a value landing
/// under the wrong key also fails verification.
pub fn chunk_crc(key: &[u8], data: &Bytes) -> u32 {
    rkv::crc32c_pair_bytes(key, data)
}

/// The digest rule, stated once: a buffer copy of `key` is good iff
/// [`chunk_crc`] of its bytes equals `sealed` — the CRC the writer
/// declared for the chunk — or, while the caller has no manifest for the
/// file yet, the copy's own `flags` word.
pub(crate) fn is_good(key: &[u8], copy: &Value, sealed: Option<u32>) -> bool {
    chunk_crc(key, &copy.data) == sealed.unwrap_or(copy.flags)
}

/// `bb.integrity.*` counters (get-or-create: the deployment and the
/// manager share one set per simulation).
pub(crate) struct IntegrityCounters {
    /// Reads that failed checksum verification (per copy inspected).
    pub(crate) checksum_fail: simkit::telemetry::Counter,
    /// Corrupt replicas overwritten in place from a verified copy.
    pub(crate) repairs: simkit::telemetry::Counter,
    /// Verified reads served by a server other than the key's primary.
    pub(crate) failovers: simkit::telemetry::Counter,
}

impl IntegrityCounters {
    pub(crate) fn register(m: &simkit::telemetry::Registry) -> IntegrityCounters {
        IntegrityCounters {
            checksum_fail: m.counter("bb.integrity.checksum_fail"),
            repairs: m.counter("bb.integrity.repairs"),
            failovers: m.counter("bb.integrity.failovers"),
        }
    }
}

/// What one walk over an ordered server list found of a chunk. A
/// missing copy is not an integrity event: a flushed chunk's copy may be
/// evicted (LRU; Lustre holds it), and an unflushed chunk short of its
/// replica set is the reconciler's to restore (`crate::movers`).
#[derive(Default)]
pub(crate) struct Census {
    /// Servers holding a copy that matches the digest.
    pub(crate) good: Vec<usize>,
    /// Servers holding a copy that does not.
    pub(crate) bad: Vec<usize>,
    /// Servers that answered "no copy".
    pub(crate) misses: Vec<usize>,
    /// Servers that could not be asked.
    pub(crate) errors: usize,
    /// Reads whose digest failed (a re-read copy can count twice).
    pub(crate) digest_fails: u64,
    /// The first good copy.
    pub(crate) value: Option<Value>,
    /// Set by [`get_verified`]: a server of the key's replica set
    /// answered (with a miss or a bad copy), so "no good copy" is a
    /// verdict. Otherwise it is an outage — a server outside the replica
    /// set may never have owned the chunk, so its miss proves nothing.
    pub(crate) definitive: bool,
}

impl Census {
    /// No server answered with a copy, good or bad.
    pub(crate) fn absent(&self) -> bool {
        self.good.is_empty() && self.bad.is_empty()
    }
}

impl std::fmt::Display for Census {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // every server asked lands in exactly one of the four
        let (good, bad, misses, errors) = (
            self.good.len(),
            self.bad.len(),
            self.misses.len(),
            self.errors,
        );
        let asked = good + bad + misses + errors;
        write!(
            f,
            "asked={asked} good={good} bad={bad} misses={misses} errors={errors}"
        )
    }
}

/// The one replica walk: ask `servers`, in order, for their copy of `key`
/// and sort the answers by [`is_good`]. With `first_good` the walk ends at
/// the first good copy (a search for a source); without, every server is
/// asked (a census of a replica set). With `reread` a failing copy is read
/// once more before it is called bad: transit corruption yields a clean
/// copy on the next exchange, at-rest corruption does not. This is the
/// only code in bb-core that reads a single server's copy.
pub(crate) async fn census(
    kv: &KvClient,
    key: &[u8],
    sealed: Option<u32>,
    servers: impl IntoIterator<Item = usize>,
    first_good: bool,
    reread: bool,
) -> Census {
    let mut c = Census::default();
    for idx in servers {
        let mut rereads = u32::from(reread);
        loop {
            match kv.get_from(idx, key).await {
                Ok(Some(v)) if is_good(key, &v, sealed) => {
                    c.good.push(idx);
                    c.value.get_or_insert(v);
                }
                Ok(Some(_)) => {
                    c.digest_fails += 1;
                    if rereads > 0 {
                        rereads -= 1;
                        continue;
                    }
                    c.bad.push(idx);
                }
                Ok(None) => c.misses.push(idx),
                Err(_) => c.errors += 1,
            }
            break;
        }
        if first_good && c.value.is_some() {
            break;
        }
    }
    c
}

/// Checksum-verified buffer GET: [`census`] over the key's [`read_order`]
/// at replication `r` up to the first good copy — counted
/// `bb.integrity.failovers` when it is not the primary's —, which then
/// repairs in place every bad copy seen on the way (the store carries an existing pin across the
/// overwrite, so repairing an unflushed chunk does not expose it to
/// eviction). `last` is asked after the rest of the order, not skipped:
/// a server whose batched leg just failed should not spend its retry
/// budget before a replica answers, yet a transient failure still
/// resolves. `Err` means no server holds a *verifiable* copy — the
/// caller's next tier (Lustre, or a loud `DataUnavailable`) takes over, or,
/// while the census is not [`Census::definitive`], a retry; corrupt bytes
/// are never returned.
pub(crate) async fn get_verified(
    kv: &KvClient,
    counters: &IntegrityCounters,
    key: &[u8],
    sealed: Option<u32>,
    r: usize,
    last: Option<usize>,
) -> Result<Value, Census> {
    let (order, replicas) = read_order(kv.view(), key, r);
    let walk = order.iter().copied().filter(|&idx| Some(idx) != last);
    let walk = walk.chain(last.filter(|idx| order.contains(idx)));
    let mut c = census(kv, key, sealed, walk, true, true).await;
    counters.checksum_fail.add(c.digest_fails);
    let Some(good) = c.value.take() else {
        c.definitive = order[..replicas]
            .iter()
            .any(|idx| c.misses.contains(idx) || c.bad.contains(idx));
        return Err(c);
    };
    if c.good.first() != order.first() {
        counters.failovers.inc();
    }
    let flags = sealed.unwrap_or(good.flags);
    for &idx in &c.bad {
        if kv
            .set_to(idx, key, good.data.clone(), flags, 0)
            .await
            .is_ok()
        {
            counters.repairs.inc();
        }
    }
    Ok(good)
}
