//! End-to-end chunk integrity: CRC32C verification on every buffer read,
//! with replica failover and in-place repair.
//!
//! Every chunk sealed by a [`crate::BbWriter`] carries
//! `crc32c(key || data)` in the KV value's `flags` word and in the file's
//! chunk-CRC manifest ([`crate::manager::BbFileMeta::chunk_crcs`]). This
//! module is the read-side enforcement, and the one place that decides
//! what a good copy is (`is_good`) and how servers are walked to find
//! one (`census`): `get_verified` never returns bytes that fail their
//! digest — a corrupt copy counts `bb.integrity.checksum_fail`, the rest
//! of the key's read order is consulted, and a good copy found anywhere
//! overwrites the bad one in place (`bb.integrity.repairs`). Only when
//! *no* copy verifies does the chunk fall through to the next tier
//! (Lustre), where the manifest guards the read again — so a completed
//! read is byte-correct or loudly absent, never silently wrong.

use bytes::Bytes;
use rkv::store::Value;
use rkv::KvClient;

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
}

impl IntegrityCounters {
    pub(crate) fn register(m: &simkit::telemetry::Registry) -> IntegrityCounters {
        IntegrityCounters {
            checksum_fail: m.counter("bb.integrity.checksum_fail"),
            repairs: m.counter("bb.integrity.repairs"),
        }
    }
}

/// What one walk over an ordered server list found of a chunk. A
/// missing copy is legal (LRU eviction), not an integrity event.
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

/// Checksum-verified buffer GET: [`census`] over [`KvClient::read_order`]
/// up to the first good copy, which then repairs in place every bad copy
/// seen on the way (the store carries an existing pin across the
/// overwrite, so repairing an unflushed chunk does not expose it to
/// eviction). `Err` means no server holds a *verifiable* copy — the
/// caller's next tier (Lustre, or a loud `DataUnavailable`) takes over, or,
/// while the census is not [`Census::definitive`], a retry; corrupt bytes
/// are never returned.
pub(crate) async fn get_verified(
    kv: &KvClient,
    counters: &IntegrityCounters,
    key: &[u8],
    sealed: Option<u32>,
) -> Result<Value, Census> {
    let Ok((order, replicas)) = kv.read_order(key) else {
        return Err(Census::default());
    };
    let mut c = census(kv, key, sealed, order.iter().copied(), true, true).await;
    counters.checksum_fail.add(c.digest_fails);
    let Some(good) = c.value.take() else {
        c.definitive = order[..replicas]
            .iter()
            .any(|idx| c.misses.contains(idx) || c.bad.contains(idx));
        return Err(c);
    };
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
