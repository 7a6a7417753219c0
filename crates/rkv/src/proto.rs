//! Binary wire protocol between KV clients and servers.
//!
//! Requests and responses are length-delimited binary frames carried in
//! SEND/RECV messages. Payloads travel either *inline* in the frame (small
//! values) or *one-sided*: the frame carries a [`WireBuf`] descriptor and
//! the peer moves the payload with RDMA READ/WRITE — the hybrid scheme of
//! OSU RDMA-Memcached that keeps large transfers zero-copy and round-trip
//! free.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use netsim::NodeId;
use rdmasim::{RKey, RemoteBuf};

use crate::store::KvStats;

/// Malformed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtoError(pub &'static str);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}
impl std::error::Error for ProtoError {}

/// A registered-buffer descriptor in wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireBuf {
    /// Owning node.
    pub node: u32,
    /// Remote key.
    pub rkey: u32,
    /// Buffer length.
    pub len: u64,
}

impl From<RemoteBuf> for WireBuf {
    fn from(r: RemoteBuf) -> Self {
        WireBuf {
            node: r.node.0,
            rkey: r.rkey.0,
            len: r.len,
        }
    }
}

impl From<WireBuf> for RemoteBuf {
    fn from(w: WireBuf) -> Self {
        RemoteBuf {
            node: NodeId(w.node),
            rkey: RKey(w.rkey),
            len: w.len,
        }
    }
}

/// How a SET payload reaches the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Carrier {
    /// Payload bytes travel inside this frame.
    Inline(Bytes),
    /// Payload sits in the client's registered buffer; the server RDMA-READs
    /// `len` bytes from it.
    Remote {
        /// Client-side registered buffer.
        src: WireBuf,
        /// Payload length within the buffer.
        len: u32,
    },
}

impl Carrier {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Carrier::Inline(b) => b.len(),
            Carrier::Remote { len, .. } => *len as usize,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Client → server operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Fetch a value. `dst`, when present, is a client buffer the server
    /// may RDMA-WRITE large values into.
    Get {
        /// Item key.
        key: Bytes,
        /// Optional one-sided landing buffer.
        dst: Option<WireBuf>,
    },
    /// Unconditional store.
    Set {
        /// Item key.
        key: Bytes,
        /// Opaque flags.
        flags: u32,
        /// Absolute expiry (ns; 0 = never).
        expire_at: u64,
        /// Payload carrier.
        value: Carrier,
    },
    /// Store if absent.
    Add {
        /// Item key.
        key: Bytes,
        /// Opaque flags.
        flags: u32,
        /// Absolute expiry (ns; 0 = never).
        expire_at: u64,
        /// Payload carrier.
        value: Carrier,
    },
    /// Store if present.
    Replace {
        /// Item key.
        key: Bytes,
        /// Opaque flags.
        flags: u32,
        /// Absolute expiry (ns; 0 = never).
        expire_at: u64,
        /// Payload carrier.
        value: Carrier,
    },
    /// Compare-and-swap.
    Cas {
        /// Item key.
        key: Bytes,
        /// Opaque flags.
        flags: u32,
        /// Absolute expiry (ns; 0 = never).
        expire_at: u64,
        /// Expected CAS token.
        cas: u64,
        /// Payload carrier.
        value: Carrier,
    },
    /// Remove a key.
    Delete {
        /// Item key.
        key: Bytes,
    },
    /// Update expiry.
    Touch {
        /// Item key.
        key: Bytes,
        /// New absolute expiry.
        expire_at: u64,
    },
    /// Fetch server counters.
    Stats,
    /// Add to a numeric value.
    Incr {
        /// Item key.
        key: Bytes,
        /// Amount to add.
        delta: u64,
    },
    /// Subtract from a numeric value (floored at zero).
    Decr {
        /// Item key.
        key: Bytes,
        /// Amount to subtract.
        delta: u64,
    },
    /// Concatenate after the live value.
    Append {
        /// Item key.
        key: Bytes,
        /// Bytes to append.
        data: Bytes,
    },
    /// Concatenate before the live value.
    Prepend {
        /// Item key.
        key: Bytes,
        /// Bytes to prepend.
        data: Bytes,
    },
    /// Fetch several keys in one round trip (single-server batch; the
    /// client groups keys by ring owner).
    MultiGet {
        /// Keys, in reply order.
        keys: Vec<Bytes>,
    },
    /// Exempt a key from LRU eviction (burst-buffer unflushed chunks).
    Pin {
        /// Item key.
        key: Bytes,
    },
    /// Lift a [`Request::Pin`], making the key evictable again.
    Unpin {
        /// Item key.
        key: Bytes,
    },
    /// Tag this connection with a tenant id: all subsequent ops on the
    /// connection are accounted to (and admission-controlled as) this
    /// tenant. Sent once after connect by tenanted clients; tenant 0
    /// clients never send it.
    SetTenant {
        /// Tenant id (0 clears the tag).
        tenant: u32,
    },
}

/// Server → client results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// GET hit with the value inline.
    Value {
        /// Payload bytes.
        data: Bytes,
        /// Stored flags.
        flags: u32,
        /// CAS token.
        cas: u64,
    },
    /// GET hit; the server RDMA-WROTE `len` bytes into the client's `dst`.
    ValueWritten {
        /// Bytes written into the client buffer.
        len: u32,
        /// Stored flags.
        flags: u32,
        /// CAS token.
        cas: u64,
    },
    /// Store succeeded.
    Stored {
        /// New CAS token.
        cas: u64,
    },
    /// Delete/touch succeeded.
    Ok,
    /// Key absent.
    NotFound,
    /// `add` on an existing key.
    Exists,
    /// CAS token mismatch.
    CasMismatch,
    /// Item over the size limit.
    TooLarge,
    /// Store out of memory.
    OutOfMemory,
    /// Server-side RDMA failure while moving a one-sided payload.
    TransferFailed,
    /// Counters snapshot.
    Stats(KvStats),
    /// New numeric value after incr/decr.
    Counter {
        /// The value after the operation.
        value: u64,
    },
    /// incr/decr on a non-numeric value.
    NonNumeric,
    /// Batched GET results, in request-key order (`None` = miss).
    MultiValues {
        /// Per-key results.
        values: Vec<Option<(Bytes, u32, u64)>>,
    },
    /// Store rejected: the payload digest did not match the declared
    /// checksum (`flags`). The value was NOT stored; the client should
    /// re-send from its good copy.
    BadDigest,
    /// Op rejected by per-tenant token-bucket admission: the connection's
    /// tenant is over its configured rate. Not retryable at the transport
    /// layer — the caller decides whether to back off.
    Throttled,
}

const TAG_GET: u8 = 1;
const TAG_SET: u8 = 2;
const TAG_ADD: u8 = 3;
const TAG_REPLACE: u8 = 4;
const TAG_CAS: u8 = 5;
const TAG_DELETE: u8 = 6;
const TAG_TOUCH: u8 = 7;
const TAG_STATS: u8 = 8;
const TAG_INCR: u8 = 9;
const TAG_DECR: u8 = 10;
const TAG_APPEND: u8 = 11;
const TAG_PREPEND: u8 = 12;
const TAG_MULTI_GET: u8 = 13;
const TAG_PIN: u8 = 14;
const TAG_UNPIN: u8 = 15;
const TAG_SET_TENANT: u8 = 16;

const RTAG_VALUE: u8 = 1;
const RTAG_VALUE_WRITTEN: u8 = 2;
const RTAG_STORED: u8 = 3;
const RTAG_OK: u8 = 4;
const RTAG_NOT_FOUND: u8 = 5;
const RTAG_EXISTS: u8 = 6;
const RTAG_CAS_MISMATCH: u8 = 7;
const RTAG_TOO_LARGE: u8 = 8;
const RTAG_OOM: u8 = 9;
const RTAG_TRANSFER_FAILED: u8 = 10;
const RTAG_STATS: u8 = 11;
const RTAG_COUNTER: u8 = 12;
const RTAG_NON_NUMERIC: u8 = 13;
const RTAG_MULTI_VALUES: u8 = 14;
const RTAG_BAD_DIGEST: u8 = 15;
const RTAG_THROTTLED: u8 = 16;

const CARRIER_INLINE: u8 = 0;
const CARRIER_REMOTE: u8 = 1;

/// A [`BufMut`] that only counts: running an encoder over it yields the
/// frame's exact length, so the real pass can allocate once with no slack
/// (a frozen frame pins its whole allocation for as long as any decoded
/// value sliced out of it lives).
struct FrameLen(usize);

impl BufMut for FrameLen {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// A message with a wire encoding.
trait Frame {
    fn write_to<B: BufMut>(&self, buf: &mut B);
}

/// Encode `frame` into a buffer of exactly its encoded length.
fn encode_exact(frame: &impl Frame) -> Bytes {
    let mut len = FrameLen(0);
    frame.write_to(&mut len);
    let mut buf = BytesMut::with_capacity(len.0);
    frame.write_to(&mut buf);
    buf.freeze()
}

fn put_bytes<B: BufMut>(buf: &mut B, b: &[u8]) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

fn get_bytes(buf: &mut Bytes) -> Result<Bytes, ProtoError> {
    if buf.remaining() < 4 {
        return Err(ProtoError("truncated length"));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(ProtoError("truncated bytes"));
    }
    Ok(buf.copy_to_bytes(len))
}

fn put_wirebuf<B: BufMut>(buf: &mut B, w: &WireBuf) {
    buf.put_u32_le(w.node);
    buf.put_u32_le(w.rkey);
    buf.put_u64_le(w.len);
}

fn get_wirebuf(buf: &mut Bytes) -> Result<WireBuf, ProtoError> {
    if buf.remaining() < 16 {
        return Err(ProtoError("truncated wirebuf"));
    }
    Ok(WireBuf {
        node: buf.get_u32_le(),
        rkey: buf.get_u32_le(),
        len: buf.get_u64_le(),
    })
}

fn put_carrier<B: BufMut>(buf: &mut B, c: &Carrier) {
    match c {
        Carrier::Inline(b) => {
            buf.put_u8(CARRIER_INLINE);
            put_bytes(buf, b);
        }
        Carrier::Remote { src, len } => {
            buf.put_u8(CARRIER_REMOTE);
            put_wirebuf(buf, src);
            buf.put_u32_le(*len);
        }
    }
}

fn get_carrier(buf: &mut Bytes) -> Result<Carrier, ProtoError> {
    if buf.remaining() < 1 {
        return Err(ProtoError("truncated carrier tag"));
    }
    match buf.get_u8() {
        CARRIER_INLINE => Ok(Carrier::Inline(get_bytes(buf)?)),
        CARRIER_REMOTE => {
            let src = get_wirebuf(buf)?;
            if buf.remaining() < 4 {
                return Err(ProtoError("truncated carrier len"));
            }
            Ok(Carrier::Remote {
                src,
                len: buf.get_u32_le(),
            })
        }
        _ => Err(ProtoError("bad carrier tag")),
    }
}

fn put_store_fields<B: BufMut>(
    buf: &mut B,
    key: &Bytes,
    flags: u32,
    expire_at: u64,
    value: &Carrier,
) {
    put_bytes(buf, key);
    buf.put_u32_le(flags);
    buf.put_u64_le(expire_at);
    put_carrier(buf, value);
}

type StoreFields = (Bytes, u32, u64, Carrier);

fn get_store_fields(buf: &mut Bytes) -> Result<StoreFields, ProtoError> {
    let key = get_bytes(buf)?;
    if buf.remaining() < 12 {
        return Err(ProtoError("truncated store fields"));
    }
    let flags = buf.get_u32_le();
    let expire_at = buf.get_u64_le();
    let value = get_carrier(buf)?;
    Ok((key, flags, expire_at, value))
}

impl Frame for Request {
    fn write_to<B: BufMut>(&self, buf: &mut B) {
        match self {
            Request::Get { key, dst } => {
                buf.put_u8(TAG_GET);
                put_bytes(buf, key);
                match dst {
                    None => buf.put_u8(0),
                    Some(w) => {
                        buf.put_u8(1);
                        put_wirebuf(buf, w);
                    }
                }
            }
            Request::Set {
                key,
                flags,
                expire_at,
                value,
            } => {
                buf.put_u8(TAG_SET);
                put_store_fields(buf, key, *flags, *expire_at, value);
            }
            Request::Add {
                key,
                flags,
                expire_at,
                value,
            } => {
                buf.put_u8(TAG_ADD);
                put_store_fields(buf, key, *flags, *expire_at, value);
            }
            Request::Replace {
                key,
                flags,
                expire_at,
                value,
            } => {
                buf.put_u8(TAG_REPLACE);
                put_store_fields(buf, key, *flags, *expire_at, value);
            }
            Request::Cas {
                key,
                flags,
                expire_at,
                cas,
                value,
            } => {
                buf.put_u8(TAG_CAS);
                put_bytes(buf, key);
                buf.put_u32_le(*flags);
                buf.put_u64_le(*expire_at);
                buf.put_u64_le(*cas);
                put_carrier(buf, value);
            }
            Request::Delete { key } => {
                buf.put_u8(TAG_DELETE);
                put_bytes(buf, key);
            }
            Request::Touch { key, expire_at } => {
                buf.put_u8(TAG_TOUCH);
                put_bytes(buf, key);
                buf.put_u64_le(*expire_at);
            }
            Request::Stats => buf.put_u8(TAG_STATS),
            Request::Incr { key, delta } => {
                buf.put_u8(TAG_INCR);
                put_bytes(buf, key);
                buf.put_u64_le(*delta);
            }
            Request::Decr { key, delta } => {
                buf.put_u8(TAG_DECR);
                put_bytes(buf, key);
                buf.put_u64_le(*delta);
            }
            Request::Append { key, data } => {
                buf.put_u8(TAG_APPEND);
                put_bytes(buf, key);
                put_bytes(buf, data);
            }
            Request::Prepend { key, data } => {
                buf.put_u8(TAG_PREPEND);
                put_bytes(buf, key);
                put_bytes(buf, data);
            }
            Request::MultiGet { keys } => {
                buf.put_u8(TAG_MULTI_GET);
                buf.put_u32_le(keys.len() as u32);
                for k in keys {
                    put_bytes(buf, k);
                }
            }
            Request::Pin { key } => {
                buf.put_u8(TAG_PIN);
                put_bytes(buf, key);
            }
            Request::Unpin { key } => {
                buf.put_u8(TAG_UNPIN);
                put_bytes(buf, key);
            }
            Request::SetTenant { tenant } => {
                buf.put_u8(TAG_SET_TENANT);
                buf.put_u32_le(*tenant);
            }
        }
    }
}

impl Request {
    /// Encode to a wire frame (allocated at exactly its length).
    pub fn encode(&self) -> Bytes {
        encode_exact(self)
    }

    /// Decode a wire frame.
    pub fn decode(mut frame: Bytes) -> Result<Request, ProtoError> {
        if frame.remaining() < 1 {
            return Err(ProtoError("empty request"));
        }
        let tag = frame.get_u8();
        Ok(match tag {
            TAG_GET => {
                let key = get_bytes(&mut frame)?;
                if frame.remaining() < 1 {
                    return Err(ProtoError("truncated get dst"));
                }
                let dst = match frame.get_u8() {
                    0 => None,
                    1 => Some(get_wirebuf(&mut frame)?),
                    _ => return Err(ProtoError("bad dst marker")),
                };
                Request::Get { key, dst }
            }
            TAG_SET => {
                let (key, flags, expire_at, value) = get_store_fields(&mut frame)?;
                Request::Set {
                    key,
                    flags,
                    expire_at,
                    value,
                }
            }
            TAG_ADD => {
                let (key, flags, expire_at, value) = get_store_fields(&mut frame)?;
                Request::Add {
                    key,
                    flags,
                    expire_at,
                    value,
                }
            }
            TAG_REPLACE => {
                let (key, flags, expire_at, value) = get_store_fields(&mut frame)?;
                Request::Replace {
                    key,
                    flags,
                    expire_at,
                    value,
                }
            }
            TAG_CAS => {
                let key = get_bytes(&mut frame)?;
                if frame.remaining() < 20 {
                    return Err(ProtoError("truncated cas fields"));
                }
                let flags = frame.get_u32_le();
                let expire_at = frame.get_u64_le();
                let cas = frame.get_u64_le();
                let value = get_carrier(&mut frame)?;
                Request::Cas {
                    key,
                    flags,
                    expire_at,
                    cas,
                    value,
                }
            }
            TAG_DELETE => Request::Delete {
                key: get_bytes(&mut frame)?,
            },
            TAG_TOUCH => {
                let key = get_bytes(&mut frame)?;
                if frame.remaining() < 8 {
                    return Err(ProtoError("truncated touch expiry"));
                }
                Request::Touch {
                    key,
                    expire_at: frame.get_u64_le(),
                }
            }
            TAG_STATS => Request::Stats,
            TAG_INCR | TAG_DECR => {
                let key = get_bytes(&mut frame)?;
                if frame.remaining() < 8 {
                    return Err(ProtoError("truncated delta"));
                }
                let delta = frame.get_u64_le();
                if tag == TAG_INCR {
                    Request::Incr { key, delta }
                } else {
                    Request::Decr { key, delta }
                }
            }
            TAG_APPEND | TAG_PREPEND => {
                let key = get_bytes(&mut frame)?;
                let data = get_bytes(&mut frame)?;
                if tag == TAG_APPEND {
                    Request::Append { key, data }
                } else {
                    Request::Prepend { key, data }
                }
            }
            TAG_MULTI_GET => {
                if frame.remaining() < 4 {
                    return Err(ProtoError("truncated multiget count"));
                }
                let n = frame.get_u32_le() as usize;
                if n > 65_536 {
                    return Err(ProtoError("multiget too large"));
                }
                let mut keys = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    keys.push(get_bytes(&mut frame)?);
                }
                Request::MultiGet { keys }
            }
            TAG_PIN => Request::Pin {
                key: get_bytes(&mut frame)?,
            },
            TAG_UNPIN => Request::Unpin {
                key: get_bytes(&mut frame)?,
            },
            TAG_SET_TENANT => {
                if frame.remaining() < 4 {
                    return Err(ProtoError("truncated tenant"));
                }
                Request::SetTenant {
                    tenant: frame.get_u32_le(),
                }
            }
            _ => return Err(ProtoError("bad request tag")),
        })
    }
}

impl Frame for Response {
    fn write_to<B: BufMut>(&self, buf: &mut B) {
        match self {
            Response::Value { data, flags, cas } => {
                buf.put_u8(RTAG_VALUE);
                put_bytes(buf, data);
                buf.put_u32_le(*flags);
                buf.put_u64_le(*cas);
            }
            Response::ValueWritten { len, flags, cas } => {
                buf.put_u8(RTAG_VALUE_WRITTEN);
                buf.put_u32_le(*len);
                buf.put_u32_le(*flags);
                buf.put_u64_le(*cas);
            }
            Response::Stored { cas } => {
                buf.put_u8(RTAG_STORED);
                buf.put_u64_le(*cas);
            }
            Response::Ok => buf.put_u8(RTAG_OK),
            Response::NotFound => buf.put_u8(RTAG_NOT_FOUND),
            Response::Exists => buf.put_u8(RTAG_EXISTS),
            Response::CasMismatch => buf.put_u8(RTAG_CAS_MISMATCH),
            Response::TooLarge => buf.put_u8(RTAG_TOO_LARGE),
            Response::OutOfMemory => buf.put_u8(RTAG_OOM),
            Response::TransferFailed => buf.put_u8(RTAG_TRANSFER_FAILED),
            Response::Stats(s) => {
                buf.put_u8(RTAG_STATS);
                for v in [
                    s.gets,
                    s.hits,
                    s.sets,
                    s.evictions,
                    s.expired,
                    s.items,
                    s.bytes,
                    s.pinned_items,
                    s.pinned_bytes,
                    s.reclaimed_pages,
                    s.reclaim_evictions,
                ] {
                    buf.put_u64_le(v);
                }
            }
            Response::Counter { value } => {
                buf.put_u8(RTAG_COUNTER);
                buf.put_u64_le(*value);
            }
            Response::NonNumeric => buf.put_u8(RTAG_NON_NUMERIC),
            Response::BadDigest => buf.put_u8(RTAG_BAD_DIGEST),
            Response::Throttled => buf.put_u8(RTAG_THROTTLED),
            Response::MultiValues { values } => {
                buf.put_u8(RTAG_MULTI_VALUES);
                buf.put_u32_le(values.len() as u32);
                for v in values {
                    match v {
                        None => buf.put_u8(0),
                        Some((data, flags, cas)) => {
                            buf.put_u8(1);
                            put_bytes(buf, data);
                            buf.put_u32_le(*flags);
                            buf.put_u64_le(*cas);
                        }
                    }
                }
            }
        }
    }
}

impl Response {
    /// Encode to a wire frame (allocated at exactly its length).
    pub fn encode(&self) -> Bytes {
        encode_exact(self)
    }

    /// Decode a wire frame.
    pub fn decode(mut frame: Bytes) -> Result<Response, ProtoError> {
        if frame.remaining() < 1 {
            return Err(ProtoError("empty response"));
        }
        let tag = frame.get_u8();
        Ok(match tag {
            RTAG_VALUE => {
                let data = get_bytes(&mut frame)?;
                if frame.remaining() < 12 {
                    return Err(ProtoError("truncated value meta"));
                }
                Response::Value {
                    data,
                    flags: frame.get_u32_le(),
                    cas: frame.get_u64_le(),
                }
            }
            RTAG_VALUE_WRITTEN => {
                if frame.remaining() < 16 {
                    return Err(ProtoError("truncated value-written"));
                }
                Response::ValueWritten {
                    len: frame.get_u32_le(),
                    flags: frame.get_u32_le(),
                    cas: frame.get_u64_le(),
                }
            }
            RTAG_STORED => {
                if frame.remaining() < 8 {
                    return Err(ProtoError("truncated stored"));
                }
                Response::Stored {
                    cas: frame.get_u64_le(),
                }
            }
            RTAG_OK => Response::Ok,
            RTAG_NOT_FOUND => Response::NotFound,
            RTAG_EXISTS => Response::Exists,
            RTAG_CAS_MISMATCH => Response::CasMismatch,
            RTAG_TOO_LARGE => Response::TooLarge,
            RTAG_OOM => Response::OutOfMemory,
            RTAG_TRANSFER_FAILED => Response::TransferFailed,
            RTAG_STATS => {
                if frame.remaining() < 88 {
                    return Err(ProtoError("truncated stats"));
                }
                Response::Stats(KvStats {
                    gets: frame.get_u64_le(),
                    hits: frame.get_u64_le(),
                    sets: frame.get_u64_le(),
                    evictions: frame.get_u64_le(),
                    expired: frame.get_u64_le(),
                    items: frame.get_u64_le(),
                    bytes: frame.get_u64_le(),
                    pinned_items: frame.get_u64_le(),
                    pinned_bytes: frame.get_u64_le(),
                    reclaimed_pages: frame.get_u64_le(),
                    reclaim_evictions: frame.get_u64_le(),
                })
            }
            RTAG_COUNTER => {
                if frame.remaining() < 8 {
                    return Err(ProtoError("truncated counter"));
                }
                Response::Counter {
                    value: frame.get_u64_le(),
                }
            }
            RTAG_NON_NUMERIC => Response::NonNumeric,
            RTAG_MULTI_VALUES => {
                if frame.remaining() < 4 {
                    return Err(ProtoError("truncated multivalues count"));
                }
                let n = frame.get_u32_le() as usize;
                if n > 65_536 {
                    return Err(ProtoError("multivalues too large"));
                }
                let mut values = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    if frame.remaining() < 1 {
                        return Err(ProtoError("truncated multivalues entry"));
                    }
                    match frame.get_u8() {
                        0 => values.push(None),
                        1 => {
                            let data = get_bytes(&mut frame)?;
                            if frame.remaining() < 12 {
                                return Err(ProtoError("truncated multivalues meta"));
                            }
                            let flags = frame.get_u32_le();
                            let cas = frame.get_u64_le();
                            values.push(Some((data, flags, cas)));
                        }
                        _ => return Err(ProtoError("bad multivalues marker")),
                    }
                }
                Response::MultiValues { values }
            }
            RTAG_BAD_DIGEST => Response::BadDigest,
            RTAG_THROTTLED => Response::Throttled,
            _ => return Err(ProtoError("bad response tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        let enc = r.encode();
        let dec = Request::decode(enc).unwrap();
        assert_eq!(r, dec);
    }

    fn roundtrip_resp(r: Response) {
        let enc = r.encode();
        let dec = Response::decode(enc).unwrap();
        assert_eq!(r, dec);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Get {
            key: Bytes::from_static(b"blk_42_0"),
            dst: None,
        });
        roundtrip_req(Request::Get {
            key: Bytes::from_static(b"k"),
            dst: Some(WireBuf {
                node: 3,
                rkey: 9,
                len: 1 << 20,
            }),
        });
        roundtrip_req(Request::Set {
            key: Bytes::from_static(b"key"),
            flags: 0xdead,
            expire_at: 12345,
            value: Carrier::Inline(Bytes::from_static(b"inline payload")),
        });
        roundtrip_req(Request::Set {
            key: Bytes::from_static(b"key"),
            flags: 1,
            expire_at: 0,
            value: Carrier::Remote {
                src: WireBuf {
                    node: 1,
                    rkey: 2,
                    len: 4096,
                },
                len: 777,
            },
        });
        roundtrip_req(Request::Add {
            key: Bytes::from_static(b"a"),
            flags: 0,
            expire_at: 9,
            value: Carrier::Inline(Bytes::new()),
        });
        roundtrip_req(Request::Replace {
            key: Bytes::from_static(b"r"),
            flags: 2,
            expire_at: 0,
            value: Carrier::Inline(Bytes::from_static(b"x")),
        });
        roundtrip_req(Request::Cas {
            key: Bytes::from_static(b"c"),
            flags: 3,
            expire_at: 1,
            cas: 88,
            value: Carrier::Inline(Bytes::from_static(b"y")),
        });
        roundtrip_req(Request::Delete {
            key: Bytes::from_static(b"d"),
        });
        roundtrip_req(Request::Touch {
            key: Bytes::from_static(b"t"),
            expire_at: 101,
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Incr {
            key: Bytes::from_static(b"n"),
            delta: 41,
        });
        roundtrip_req(Request::Decr {
            key: Bytes::from_static(b"n"),
            delta: 1,
        });
        roundtrip_req(Request::Append {
            key: Bytes::from_static(b"a"),
            data: Bytes::from_static(b"tail"),
        });
        roundtrip_req(Request::Prepend {
            key: Bytes::from_static(b"a"),
            data: Bytes::from_static(b"head"),
        });
        roundtrip_req(Request::MultiGet {
            keys: vec![
                Bytes::from_static(b"k1"),
                Bytes::from_static(b"k2"),
                Bytes::from_static(b"k3"),
            ],
        });
        roundtrip_req(Request::Pin {
            key: Bytes::from_static(b"f1:0"),
        });
        roundtrip_req(Request::Unpin {
            key: Bytes::from_static(b"f1:0"),
        });
        roundtrip_req(Request::SetTenant { tenant: 42 });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Value {
            data: Bytes::from_static(b"v"),
            flags: 5,
            cas: 6,
        });
        roundtrip_resp(Response::ValueWritten {
            len: 512 << 10,
            flags: 0,
            cas: 1,
        });
        roundtrip_resp(Response::Stored { cas: 77 });
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::NotFound);
        roundtrip_resp(Response::Exists);
        roundtrip_resp(Response::CasMismatch);
        roundtrip_resp(Response::TooLarge);
        roundtrip_resp(Response::OutOfMemory);
        roundtrip_resp(Response::TransferFailed);
        roundtrip_resp(Response::Counter { value: 42 });
        roundtrip_resp(Response::NonNumeric);
        roundtrip_resp(Response::MultiValues {
            values: vec![None, Some((Bytes::from_static(b"v"), 7, 9)), None],
        });
        roundtrip_resp(Response::BadDigest);
        roundtrip_resp(Response::Throttled);
        roundtrip_resp(Response::Stats(KvStats {
            gets: 1,
            hits: 2,
            sets: 3,
            evictions: 4,
            expired: 5,
            items: 6,
            bytes: 7,
            pinned_items: 8,
            pinned_bytes: 9,
            reclaimed_pages: 10,
            reclaim_evictions: 11,
        }));
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        assert!(Request::decode(Bytes::new()).is_err());
        assert!(Request::decode(Bytes::from_static(&[200])).is_err());
        assert!(Request::decode(Bytes::from_static(&[TAG_GET, 10, 0, 0, 0, 1])).is_err());
        assert!(Response::decode(Bytes::new()).is_err());
        assert!(Response::decode(Bytes::from_static(&[RTAG_STORED, 1, 2])).is_err());
        assert!(Response::decode(Bytes::from_static(&[99])).is_err());
    }

    #[test]
    fn wirebuf_converts_both_ways() {
        let r = RemoteBuf {
            node: NodeId(7),
            rkey: RKey(13),
            len: 4096,
        };
        let w: WireBuf = r.into();
        let back: RemoteBuf = w.into();
        assert_eq!(back, r);
    }

    #[test]
    fn frames_are_allocated_at_exactly_their_length() {
        // the sole handle on a frame gives its Vec back, so capacity shows
        let slack = |frame: Bytes| {
            let v = Vec::from(frame);
            v.capacity() - v.len()
        };
        for n in [1usize, 2, 8] {
            let value = Bytes::from(vec![0x5au8; 512 << 10]);
            let reply = Response::MultiValues {
                values: vec![Some((value.clone(), 7, 9)); n],
            };
            assert!(reply.encode().len() > n * (512 << 10));
            assert_eq!(slack(reply.encode()), 0, "MultiValues x{n}");
            let set = Request::Set {
                key: Bytes::from_static(b"f1:0"),
                flags: 1,
                expire_at: 0,
                value: Carrier::Inline(Bytes::from(vec![0x5au8; n * (512 << 10)])),
            };
            assert_eq!(slack(set.encode()), 0, "inline Set {n}x512 KiB");
        }
        let hit = Response::Value {
            data: Bytes::from(vec![1u8; 512 << 10]),
            flags: 0,
            cas: 1,
        };
        assert_eq!(slack(hit.encode()), 0);
        assert_eq!(slack(Request::Stats.encode()), 0);
    }

    #[test]
    fn inline_set_frame_size_tracks_payload() {
        let small = Request::Set {
            key: Bytes::from_static(b"key"),
            flags: 0,
            expire_at: 0,
            value: Carrier::Inline(Bytes::from(vec![0u8; 100])),
        };
        let large = Request::Set {
            key: Bytes::from_static(b"key"),
            flags: 0,
            expire_at: 0,
            value: Carrier::Inline(Bytes::from(vec![0u8; 10_000])),
        };
        assert!(large.encode().len() - small.encode().len() == 9_900);
        // remote carrier keeps the frame tiny regardless of payload
        let remote = Request::Set {
            key: Bytes::from_static(b"key"),
            flags: 0,
            expire_at: 0,
            value: Carrier::Remote {
                src: WireBuf {
                    node: 0,
                    rkey: 1,
                    len: 1 << 20,
                },
                len: 1 << 20,
            },
        };
        assert!(remote.encode().len() < 64);
    }
}
