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
use rdmasim::{Frame, RKey, RemoteBuf};

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
    /// Remove a key.
    Delete {
        /// Item key.
        key: Bytes,
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
    /// Delete/pin/unpin/set-tenant succeeded.
    Ok,
    /// Key absent.
    NotFound,
    /// Item over the size limit.
    TooLarge,
    /// Store out of memory.
    OutOfMemory,
    /// Server-side RDMA failure while moving a one-sided payload.
    TransferFailed,
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

// Tag bytes are the wire contract. The gaps (requests 3–5, 7–12; responses
// 6, 7, 11–13) are retired memcached verbs: never reuse them, they decode
// to `ProtoError` like any other unknown byte.
const TAG_GET: u8 = 1;
const TAG_SET: u8 = 2;
const TAG_DELETE: u8 = 6;
const TAG_MULTI_GET: u8 = 13;
const TAG_PIN: u8 = 14;
const TAG_UNPIN: u8 = 15;
const TAG_SET_TENANT: u8 = 16;

const RTAG_VALUE: u8 = 1;
const RTAG_VALUE_WRITTEN: u8 = 2;
const RTAG_STORED: u8 = 3;
const RTAG_OK: u8 = 4;
const RTAG_NOT_FOUND: u8 = 5;
const RTAG_TOO_LARGE: u8 = 8;
const RTAG_OOM: u8 = 9;
const RTAG_TRANSFER_FAILED: u8 = 10;
const RTAG_MULTI_VALUES: u8 = 14;
const RTAG_BAD_DIGEST: u8 = 15;
const RTAG_THROTTLED: u8 = 16;

const CARRIER_INLINE: u8 = 0;
const CARRIER_REMOTE: u8 = 1;

/// A [`BufMut`] that only counts: running an encoder over it yields the
/// frame's exact length, so the real pass can allocate once with no slack
/// (a frozen frame pins its whole allocation for as long as any decoded
/// value sliced out of it lives). `values` is the part of `total` that
/// stored values make up — what a gather list sends as handles.
#[derive(Default)]
struct FrameLen {
    total: usize,
    values: usize,
}

impl BufMut for FrameLen {
    fn put_slice(&mut self, src: &[u8]) {
        self.total += src.len();
    }
}

/// Where an encoder writes. Header fields go through [`BufMut`]; a stored
/// value goes through [`Sink::put_value`], which copies it into a
/// contiguous frame by default.
trait Sink: BufMut {
    /// Append a value's bytes (its length prefix is already written).
    fn put_value(&mut self, value: &Bytes) {
        self.put_slice(value);
    }
}

impl Sink for BytesMut {}

impl Sink for FrameLen {
    fn put_value(&mut self, value: &Bytes) {
        self.total += value.len();
        self.values += value.len();
    }
}

/// The gather-list sink: header bytes in one buffer, each value kept as
/// its handle with the header offset it follows.
struct GatherSink {
    head: BytesMut,
    values: Vec<(usize, Bytes)>,
}

impl BufMut for GatherSink {
    fn put_slice(&mut self, src: &[u8]) {
        self.head.put_slice(src);
    }
}

impl Sink for GatherSink {
    fn put_value(&mut self, value: &Bytes) {
        self.values.push((self.head.len(), value.clone()));
    }
}

/// A message with a wire encoding.
trait Wire {
    fn write_to<S: Sink>(&self, buf: &mut S);
}

/// Encode `msg` into one buffer of exactly its encoded length.
fn encode_exact(msg: &impl Wire) -> Bytes {
    let mut len = FrameLen::default();
    msg.write_to(&mut len);
    let mut buf = BytesMut::with_capacity(len.total);
    msg.write_to(&mut buf);
    buf.freeze()
}

/// Encode `msg` as a gather list: its header bytes in one buffer of
/// exactly their length, cut where each stored value's handle goes. The
/// elements, joined, are [`encode_exact`]'s bytes.
fn encode_gather(msg: &impl Wire) -> Frame {
    let mut len = FrameLen::default();
    msg.write_to(&mut len);
    let mut sink = GatherSink {
        head: BytesMut::with_capacity(len.total - len.values),
        values: Vec::new(),
    };
    msg.write_to(&mut sink);
    let head = sink.head.freeze();
    if sink.values.is_empty() {
        return Frame::from(head);
    }
    let mut elems = Vec::with_capacity(2 * sink.values.len() + 1);
    let mut from = 0;
    for (at, value) in sink.values {
        elems.push(head.slice(from..at));
        elems.push(value);
        from = at;
    }
    elems.push(head.slice(from..));
    Frame::from(elems)
}

fn put_bytes<B: BufMut>(buf: &mut B, b: &[u8]) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

/// A stored value: its length prefix, then the value through the sink.
fn put_value<S: Sink>(buf: &mut S, value: &Bytes) {
    buf.put_u32_le(value.len() as u32);
    buf.put_value(value);
}

fn get_bytes<B: Buf>(buf: &mut B) -> Result<Bytes, ProtoError> {
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

fn get_wirebuf<B: Buf>(buf: &mut B) -> Result<WireBuf, ProtoError> {
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

fn get_carrier<B: Buf>(buf: &mut B) -> Result<Carrier, ProtoError> {
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

impl Wire for Request {
    fn write_to<S: Sink>(&self, buf: &mut S) {
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
                put_bytes(buf, key);
                buf.put_u32_le(*flags);
                buf.put_u64_le(*expire_at);
                put_carrier(buf, value);
            }
            Request::Delete { key } => {
                buf.put_u8(TAG_DELETE);
                put_bytes(buf, key);
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
                let key = get_bytes(&mut frame)?;
                if frame.remaining() < 12 {
                    return Err(ProtoError("truncated store fields"));
                }
                Request::Set {
                    key,
                    flags: frame.get_u32_le(),
                    expire_at: frame.get_u64_le(),
                    value: get_carrier(&mut frame)?,
                }
            }
            TAG_DELETE => Request::Delete {
                key: get_bytes(&mut frame)?,
            },
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

impl Wire for Response {
    fn write_to<S: Sink>(&self, buf: &mut S) {
        match self {
            Response::Value { data, flags, cas } => {
                buf.put_u8(RTAG_VALUE);
                put_value(buf, data);
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
            Response::TooLarge => buf.put_u8(RTAG_TOO_LARGE),
            Response::OutOfMemory => buf.put_u8(RTAG_OOM),
            Response::TransferFailed => buf.put_u8(RTAG_TRANSFER_FAILED),
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
                            put_value(buf, data);
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
    /// Encode to one contiguous wire frame (allocated at exactly its
    /// length; stored values are copied in). The server and client speak
    /// [`Response::encode_sg`]/[`Response::decode_sg`]; this pair is the
    /// golden reference those are tested against.
    pub fn encode(&self) -> Bytes {
        encode_exact(self)
    }

    /// Encode for a gather SEND: the same wire bytes as
    /// [`Response::encode`], with every stored value carried as its own
    /// handle between exact-size header pieces instead of copied.
    pub fn encode_sg(&self) -> Frame {
        encode_gather(self)
    }

    /// Decode a wire frame.
    pub fn decode(mut frame: Bytes) -> Result<Response, ProtoError> {
        Self::read_from(&mut frame)
    }

    /// Decode a received gather list as [`Response::decode`] decodes its
    /// concatenation. A value that arrived as its own element comes back
    /// as that very handle.
    pub fn decode_sg(mut frame: Frame) -> Result<Response, ProtoError> {
        Self::read_from(&mut frame)
    }

    fn read_from<B: Buf>(frame: &mut B) -> Result<Response, ProtoError> {
        if frame.remaining() < 1 {
            return Err(ProtoError("empty response"));
        }
        let tag = frame.get_u8();
        Ok(match tag {
            RTAG_VALUE => {
                let data = get_bytes(frame)?;
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
            RTAG_TOO_LARGE => Response::TooLarge,
            RTAG_OOM => Response::OutOfMemory,
            RTAG_TRANSFER_FAILED => Response::TransferFailed,
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
                            let data = get_bytes(frame)?;
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

    fn unhex(s: &str) -> Bytes {
        let bytes: Vec<u8> = (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        Bytes::from(bytes)
    }

    /// The wire contract, one frame per request: the encoder must produce
    /// exactly these bytes (frame length is fabric transfer time, so every
    /// simulated timing hangs on it) and the decoder must read them back.
    #[test]
    fn request_frames_match_golden_bytes() {
        let golden = [
            (
                Request::Get {
                    key: Bytes::from_static(b"blk_42_0"),
                    dst: None,
                },
                "0108000000626c6b5f34325f3000",
            ),
            (
                Request::Get {
                    key: Bytes::from_static(b"k"),
                    dst: Some(WireBuf {
                        node: 3,
                        rkey: 9,
                        len: 1 << 20,
                    }),
                },
                "01010000006b0103000000090000000000100000000000",
            ),
            (
                Request::Set {
                    key: Bytes::from_static(b"key"),
                    flags: 0xdead,
                    expire_at: 12345,
                    value: Carrier::Inline(Bytes::from_static(b"inline payload")),
                },
                "02030000006b6579adde00003930000000000000000e000000696e6c696e65207061796c6f6164",
            ),
            (
                Request::Set {
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
                },
                "02030000006b657901000000000000000000000001010000000200000000100000000000000903\
                 0000",
            ),
            (
                Request::Delete {
                    key: Bytes::from_static(b"d"),
                },
                "060100000064",
            ),
            (
                Request::MultiGet {
                    keys: vec![
                        Bytes::from_static(b"k1"),
                        Bytes::from_static(b"k2"),
                        Bytes::from_static(b"k3"),
                    ],
                },
                "0d03000000020000006b31020000006b32020000006b33",
            ),
            (
                Request::Pin {
                    key: Bytes::from_static(b"f1:0"),
                },
                "0e0400000066313a30",
            ),
            (
                Request::Unpin {
                    key: Bytes::from_static(b"f1:0"),
                },
                "0f0400000066313a30",
            ),
            (Request::SetTenant { tenant: 42 }, "102a000000"),
        ];
        for (req, hex) in golden {
            assert_eq!(req.encode(), unhex(hex), "{req:?}");
            assert_eq!(Request::decode(unhex(hex)), Ok(req));
        }
    }

    #[test]
    fn response_frames_match_golden_bytes() {
        let golden = [
            (
                Response::Value {
                    data: Bytes::from_static(b"v"),
                    flags: 5,
                    cas: 6,
                },
                "010100000076050000000600000000000000",
            ),
            (
                Response::ValueWritten {
                    len: 512 << 10,
                    flags: 0,
                    cas: 1,
                },
                "0200000800000000000100000000000000",
            ),
            (Response::Stored { cas: 77 }, "034d00000000000000"),
            (Response::Ok, "04"),
            (Response::NotFound, "05"),
            (Response::TooLarge, "08"),
            (Response::OutOfMemory, "09"),
            (Response::TransferFailed, "0a"),
            (
                Response::MultiValues {
                    values: vec![None, Some((Bytes::from_static(b"v"), 7, 9)), None],
                },
                "0e030000000001010000007607000000090000000000000000",
            ),
            (Response::BadDigest, "0f"),
            (Response::Throttled, "10"),
        ];
        for (resp, hex) in golden {
            assert_eq!(resp.encode(), unhex(hex), "{resp:?}");
            assert_eq!(Response::decode(unhex(hex)), Ok(resp));
        }
    }

    /// A frame led by a retired verb's tag is garbage, whatever follows it
    /// (here: the tail of a frame the surviving layouts parse).
    #[test]
    fn retired_tags_are_rejected_not_panicking() {
        let with_tag = |tag: u8, frame: &str| {
            let mut frame = unhex(frame).to_vec();
            frame[0] = tag;
            Bytes::from(frame)
        };
        for tag in [3u8, 4, 5, 7, 8, 9, 10, 11, 12] {
            for body in ["06", "060100000064"] {
                assert!(Request::decode(with_tag(tag, body)).is_err(), "tag {tag}");
            }
        }
        for tag in [6u8, 7, 11, 12, 13] {
            for body in ["03", "034d00000000000000"] {
                assert!(Response::decode(with_tag(tag, body)).is_err(), "tag {tag}");
            }
        }
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
        assert_eq!(slack(Response::Ok.encode()), 0);
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
