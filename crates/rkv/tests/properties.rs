//! Property-based tests of the storage engine and protocol: the store is
//! checked against a reference model under arbitrary operation sequences,
//! the slab against allocation invariants, and the codec against
//! roundtripping.

use bytes::{Buf, Bytes};
use proptest::prelude::*;
use simkit::Gather;
use std::collections::HashMap;

use rkv::proto::{Carrier, Request, Response, WireBuf};
use rkv::slab::{SlabAllocator, SlabConfig};
use rkv::store::{KvStats, KvStore};

#[derive(Debug, Clone)]
enum Op {
    Set { key: u8, len: usize },
    Get { key: u8 },
    Delete { key: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 1usize..4096).prop_map(|(key, len)| Op::Set { key, len }),
        any::<u8>().prop_map(|key| Op::Get { key }),
        any::<u8>().prop_map(|key| Op::Delete { key }),
    ]
}

fn value_for(key: u8, len: usize, version: u64) -> Bytes {
    let mut v = vec![key; len];
    // stamp the version so stale reads are detectable
    let stamp = version.to_le_bytes();
    let n = stamp.len().min(len);
    v[..n].copy_from_slice(&stamp[..n]);
    Bytes::from(v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store agrees with a HashMap model on every live-key read, and
    /// its byte/item accounting matches the model exactly when no eviction
    /// has occurred (the store is sized so eviction cannot happen here).
    #[test]
    fn store_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut store = KvStore::new(SlabConfig {
            mem_limit: 64 << 20, // far larger than the max working set
            ..SlabConfig::default()
        });
        let mut model: HashMap<u8, Bytes> = HashMap::new();
        let mut version = 0u64;
        for op in &ops {
            match *op {
                Op::Set { key, len } => {
                    version += 1;
                    let v = value_for(key, len, version);
                    store.set(&[key], v.clone(), 0, 0, 0).unwrap();
                    model.insert(key, v);
                }
                Op::Get { key } => {
                    let got = store.get(&[key], 0);
                    match model.get(&key) {
                        Some(v) => {
                            let got = got.expect("model says live");
                            prop_assert_eq!(&got.data, v);
                        }
                        None => prop_assert!(got.is_none()),
                    }
                }
                Op::Delete { key } => {
                    let existed = store.delete(&[key]);
                    prop_assert_eq!(existed, model.remove(&key).is_some());
                }
            }
        }
        let st: KvStats = store.stats();
        prop_assert_eq!(st.evictions, 0, "store was sized to avoid eviction");
        prop_assert_eq!(st.items as usize, model.len());
        let model_bytes: u64 = model.values().map(|v| 1 + v.len() as u64).sum();
        prop_assert_eq!(st.bytes, model_bytes);
    }

    /// Under heavy memory pressure the store never corrupts: every hit
    /// returns the exact last-written value, and live items+bytes stay
    /// within the configured budget.
    #[test]
    fn store_under_pressure_never_corrupts(
        ops in proptest::collection::vec((any::<u8>(), 1usize..32_768), 1..150)
    ) {
        let mut store = KvStore::new(SlabConfig {
            mem_limit: 1 << 20,
            ..SlabConfig::default()
        });
        let mut last: HashMap<u8, Bytes> = HashMap::new();
        let mut version = 0;
        for (key, len) in ops {
            version += 1;
            let v = value_for(key, len, version);
            match store.set(&[key], v.clone(), 0, 0, 0) {
                Ok(_) => {
                    last.insert(key, v);
                }
                Err(rkv::KvError::OutOfMemory) => {
                    // slab calcification can strand capacity in other
                    // classes (faithful memcached behaviour); the failed
                    // set also dropped any previous version of the key
                    last.remove(&key);
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
            // a hit must be the latest value, never a stale or foreign one
            if let Some(got) = store.get(&[key], 0) {
                prop_assert_eq!(&got.data, &last[&key]);
            }
        }
        prop_assert!(store.memory_used() <= 1 << 20);
    }

    /// Slab allocation: no chunk is handed out twice, frees return
    /// capacity, and accounting matches the live set.
    #[test]
    fn slab_never_double_allocates(
        sizes in proptest::collection::vec(8usize..100_000, 1..300),
        free_mask in proptest::collection::vec(any::<bool>(), 1..300),
    ) {
        let mut slab = SlabAllocator::new(SlabConfig {
            mem_limit: 32 << 20,
            ..SlabConfig::default()
        });
        let mut live = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            if let Ok(chunk) = slab.alloc(size) {
                prop_assert!(
                    !live.contains(&chunk),
                    "chunk handed out twice: {chunk:?}"
                );
                live.push(chunk);
            }
            if *free_mask.get(i).unwrap_or(&false) {
                if let Some(c) = live.pop() {
                    slab.free(c);
                }
            }
        }
        let allocated: usize = (0..slab.class_count())
            .map(|c| slab.allocated_in(c as u8))
            .sum();
        prop_assert_eq!(allocated, live.len());
    }

    /// Wire protocol: arbitrary requests of every verb (both `Get` and
    /// both `Set` carriers) roundtrip exactly.
    #[test]
    fn proto_request_roundtrip(
        key in proptest::collection::vec(any::<u8>(), 0..64),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..12),
        flags in any::<u32>(),
        expire in any::<u64>(),
        variant in 0u8..9,
        node in any::<u32>(),
        rkey in any::<u32>(),
    ) {
        let key = Bytes::from(key);
        let src = WireBuf { node, rkey, len: 1 << 20 };
        let req = match variant {
            0 => Request::Get { key, dst: None },
            1 => Request::Get { key, dst: Some(src) },
            2 => Request::Set {
                key,
                flags,
                expire_at: expire,
                value: Carrier::Inline(Bytes::from(payload)),
            },
            3 => Request::Set {
                key,
                flags,
                expire_at: expire,
                value: Carrier::Remote { src, len: payload.len() as u32 },
            },
            4 => Request::Delete { key },
            5 => Request::MultiGet { keys: keys.into_iter().map(Bytes::from).collect() },
            6 => Request::Pin { key },
            7 => Request::Unpin { key },
            _ => Request::SetTenant { tenant: flags },
        };
        let decoded = Request::decode(req.encode()).unwrap();
        prop_assert_eq!(decoded, req);
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn proto_decode_garbage_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(Bytes::from(bytes.clone()));
        let _ = Response::decode(Bytes::from(bytes));
        // reaching here without panic is the property
    }

    /// Gather replies: for every response — a `MultiValues` mixing misses
    /// with values up to 600 KiB — `encode_sg`'s elements are header
    /// pieces around the value handles themselves, joined they are
    /// `encode()`'s golden bytes, and the gather list decodes as those
    /// bytes do: whole, split into elements anywhere, cut short anywhere,
    /// or with any header byte overwritten (the same `Response` or the
    /// same `ProtoError`).
    #[test]
    fn proto_gather_replies_are_the_contiguous_frames(
        // MultiValues, the reply with the most seams, takes 10..16
        variant in 0u8..16,
        slots in proptest::collection::vec(
            (any::<bool>(), 0usize..=600 << 10, any::<u32>(), any::<u64>()),
            0..5,
        ),
        edits in proptest::collection::vec((any::<u64>(), any::<u8>()), 6),
        cuts in proptest::collection::vec(any::<u64>(), 6),
    ) {
        let values: Vec<Bytes> = slots
            .iter()
            .enumerate()
            .map(|(i, s)| (0..s.1).map(|j| (j * 31 + i) as u8).collect())
            .collect();
        let (flags, cas) = slots.first().map_or((7, 9), |s| (s.2, s.3));
        let resp = match variant {
            0 => Response::Value {
                data: values.first().cloned().unwrap_or_default(),
                flags,
                cas,
            },
            1 => Response::ValueWritten { len: flags, flags, cas },
            2 => Response::Stored { cas },
            3 => Response::Ok,
            4 => Response::NotFound,
            5 => Response::TooLarge,
            6 => Response::OutOfMemory,
            7 => Response::TransferFailed,
            8 => Response::BadDigest,
            9 => Response::Throttled,
            _ => Response::MultiValues {
                values: slots
                    .iter()
                    .zip(&values)
                    .map(|(s, v)| s.0.then(|| (v.clone(), s.2, s.3)))
                    .collect(),
            },
        };
        let frame = resp.encode();
        let sg = resp.encode_sg();
        prop_assert_eq!(sg.clone().concat(), frame.clone());
        prop_assert_eq!(Response::decode_sg(sg.clone()), Ok(resp.clone()));
        // walk the elements: where each starts, and which bytes are header
        let (mut seams, mut header, mut walk) = (Vec::new(), Vec::new(), sg);
        let mut at = 0;
        while walk.remaining() > 0 {
            let elem = walk.copy_to_bytes(walk.chunk().len());
            let is_value = values
                .iter()
                .any(|v| !v.is_empty() && v.as_ptr() == elem.as_ptr() && v.len() == elem.len());
            if !is_value {
                header.extend(at..at + elem.len());
            }
            seams.push(at);
            at += elem.len();
        }
        // a hit's bytes never travel as header
        let carried: usize = values.iter().map(Bytes::len).sum();
        prop_assert!(header.len() + carried >= frame.len());
        // `bytes` as a gather list cut at `seams` (those inside it)
        let split = |bytes: &Bytes, seams: &[usize]| {
            let mut ends: Vec<usize> = seams.iter().copied().filter(|&s| s < bytes.len()).collect();
            ends.push(bytes.len());
            let mut from = 0;
            let elems: Vec<Bytes> = ends
                .into_iter()
                .map(|end| {
                    let e = bytes.slice(from..end);
                    from = end;
                    e
                })
                .collect();
            Gather::from(elems)
        };
        let regather = |bytes: &Bytes| split(bytes, &seams[1..]);
        // any other cut of the same bytes decodes the same too: values and
        // fields then straddle seams
        let mut anywhere: Vec<usize> = cuts.iter().map(|&c| c as usize % frame.len()).collect();
        anywhere.sort_unstable();
        prop_assert_eq!(Response::decode_sg(split(&frame, &anywhere)), Ok(resp.clone()));
        for (i, &cut) in cuts.iter().enumerate() {
            // half anywhere, half inside a header piece
            let t = if i % 2 == 0 {
                cut as usize % frame.len()
            } else {
                header[cut as usize % header.len()]
            };
            let short = frame.slice(..t);
            prop_assert_eq!(Response::decode_sg(regather(&short)), Response::decode(short));
        }
        for &(pos, byte) in &edits {
            let mut bad = frame.to_vec();
            bad[header[pos as usize % header.len()]] = byte;
            let bad = Bytes::from(bad);
            prop_assert_eq!(Response::decode_sg(regather(&bad)), Response::decode(bad));
        }
    }

    /// End-to-end checksum binding: a CRC32C computed over (key, bytes) at
    /// store time survives the store, the wire codec, and an evict/reload
    /// cycle — every hit's `flags` still matches a fresh CRC of its bytes,
    /// so corruption anywhere in that path is detectable.
    #[test]
    fn checksums_survive_store_codec_and_evict_reload(
        entries in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 1..16),
                proptest::collection::vec(any::<u8>(), 1..8192),
            ),
            1..80,
        ),
    ) {
        // a small store so LRU churn actually evicts
        let mut store = KvStore::new(SlabConfig {
            mem_limit: 4 << 20,
            ..SlabConfig::default()
        });
        let mut source: HashMap<Vec<u8>, Bytes> = HashMap::new();
        for (k, v) in &entries {
            let v = Bytes::from(v.clone());
            let crc = rkv::crc32c_pair(k, &v);
            // codec leg: the (key, crc, bytes) binding roundtrips the wire
            let req = Request::Set {
                key: Bytes::copy_from_slice(k),
                flags: crc,
                expire_at: 0,
                value: Carrier::Inline(v.clone()),
            };
            let decoded = Request::decode(req.encode()).unwrap();
            let (key, flags, bytes) = match decoded {
                Request::Set { key, flags, value: Carrier::Inline(bytes), .. } => (key, flags, bytes),
                other => panic!("Set decoded to a different variant: {other:?}"),
            };
            prop_assert_eq!(flags, rkv::crc32c_pair(&key, &bytes));
            match store.set(k, v.clone(), crc, 0, 0) {
                Ok(_) => { source.insert(k.clone(), v); }
                Err(rkv::KvError::OutOfMemory) => { source.remove(k); }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
            if let Some(got) = store.get(k, 0) {
                prop_assert_eq!(
                    got.flags,
                    rkv::crc32c_pair(k, &got.data),
                    "stored crc no longer matches stored bytes"
                );
            }
        }
        // evict/reload leg: refill evicted keys from the durable source
        // (as the read-through path does) and re-verify every binding
        for (k, v) in &source {
            if store.get(k, 0).is_none() {
                let _ = store.set(k, v.clone(), rkv::crc32c_pair(k, v), 0, 0);
            }
            if let Some(got) = store.get(k, 0) {
                prop_assert_eq!(got.flags, rkv::crc32c_pair(k, &got.data));
                prop_assert_eq!(&got.data, v);
            }
        }
    }

    /// Pinned items are immune to LRU pressure: however hard an eviction
    /// storm churns the slab, every pinned key keeps its exact bytes until
    /// explicitly unpinned or deleted.
    #[test]
    fn pinned_items_are_never_evicted(
        churn in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..16),
            16..120,
        ),
    ) {
        let mut store = KvStore::new(SlabConfig {
            mem_limit: 1 << 20, // a single slab page: ~31 32-KiB chunks
            ..SlabConfig::default()
        });
        // pin a handful of fixed-size values, then flood same-class churn
        let pinned: Vec<(Vec<u8>, Bytes)> = (0..4u8)
            .map(|i| (vec![0xB0u8.wrapping_add(i), i], Bytes::from(vec![i; 32 << 10])))
            .collect();
        for (k, v) in &pinned {
            store.set(k, v.clone(), 0, 0, 0).unwrap();
            store.pin(k, 0).unwrap();
        }
        for k in &churn {
            // same value class as the pinned items so they compete directly
            let _ = store.set(k, Bytes::from(vec![0xEE; 32 << 10]), 0, 0, 0);
        }
        prop_assert!(store.stats().evictions > 0 || churn.len() < 48,
            "churn never pressured the slab");
        for (k, v) in &pinned {
            let got = store.get(k, 0);
            let got = got.expect("pinned item was evicted");
            prop_assert_eq!(&got.data, v);
        }
        prop_assert_eq!(store.stats().pinned_items, 4);
    }

    /// Pin accounting balances: across arbitrary interleavings of
    /// write+pin ("dirty chunk enters the buffer") and unpin ("flush
    /// acknowledged"), unpinning everything that was pinned drives the
    /// pinned counters to exactly zero and the items become evictable.
    #[test]
    fn pin_accounting_returns_to_zero_after_flush(
        script in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..120),
    ) {
        let mut store = KvStore::new(SlabConfig {
            mem_limit: 64 << 20, // roomy: this test is about accounting
            ..SlabConfig::default()
        });
        let mut dirty: std::collections::BTreeSet<u8> = Default::default();
        for &(key, flush) in &script {
            if flush {
                // flusher acks some outstanding chunk (if any)
                if let Some(&k) = dirty.iter().next() {
                    store.unpin(&[k]).unwrap();
                    dirty.remove(&k);
                }
            } else {
                // writer seals a chunk: store (overwrite keeps pins — the
                // store carries the pin across reinsert) then pin
                store.set(&[key], Bytes::from(vec![key; 128]), 0, 0, 0).unwrap();
                store.pin(&[key], 0).unwrap();
                dirty.insert(key);
            }
        }
        // drain the remaining flush queue
        for k in std::mem::take(&mut dirty) {
            store.unpin(&[k]).unwrap();
        }
        let st = store.stats();
        prop_assert_eq!(st.pinned_items, 0, "pins leaked after all flushes acked");
        prop_assert_eq!(st.pinned_bytes, 0);
        // double-unpin of a live key must be a no-op, not an underflow
        if let Some(&(k, _)) = script.first() {
            if store.contains(&[k], 0) {
                store.unpin(&[k]).unwrap();
                prop_assert_eq!(store.stats().pinned_items, 0);
            }
        }
    }

    /// Shard ownership: `shard_index` is the single routing function —
    /// every key maps to exactly one in-range shard, a write lands on
    /// precisely that shard, and per-shard stats sum to the whole-store
    /// totals (items, bytes, gets, sets).
    #[test]
    fn shard_ownership_is_exclusive_and_total(
        shards in 1usize..8,
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..24), 1..60),
    ) {
        let store = rkv::ShardedKv::new(shards, SlabConfig {
            mem_limit: 64 << 20,
            ..SlabConfig::default()
        });
        let mut uniq = keys;
        uniq.sort();
        uniq.dedup();
        for k in &uniq {
            let owner = store.shard_index(k);
            prop_assert!(owner < store.shard_count());
            prop_assert_eq!(owner, store.shard_index(k), "routing must be stable");
            let before: Vec<u64> = (0..store.shard_count())
                .map(|s| store.shard_stats(s).items)
                .collect();
            store.set(k, Bytes::copy_from_slice(k), 0, 0, 0).unwrap();
            for (s, &was) in before.iter().enumerate() {
                let expect = was + u64::from(s == owner);
                prop_assert_eq!(store.shard_stats(s).items, expect,
                    "exactly the owning shard gains the item");
            }
            // the read is served by the same shard (a hit counted there)
            let gets_before = store.shard_stats(owner).gets;
            prop_assert!(store.get(k, 0).is_some());
            prop_assert_eq!(store.shard_stats(owner).gets, gets_before + 1);
        }
        let total = store.stats();
        let sum = |f: fn(&KvStats) -> u64| -> u64 {
            (0..store.shard_count()).map(|s| f(&store.shard_stats(s))).sum()
        };
        prop_assert_eq!(sum(|s| s.items), total.items);
        prop_assert_eq!(sum(|s| s.bytes), total.bytes);
        prop_assert_eq!(sum(|s| s.gets), total.gets);
        prop_assert_eq!(sum(|s| s.sets), total.sets);
        prop_assert_eq!(total.items as usize, uniq.len());
    }

    /// The shard-per-core engine is observably equivalent to the
    /// single-context model: an identical client script over every keyed
    /// verb gets identical answers at every (cores, cq_batch), including
    /// split `multi_get`s, a tenanted connection's `set_tenant` hello and
    /// a malformed frame — everything the shared front door settles.
    #[test]
    fn engine_answers_match_single_context(
        cores in 1usize..5,
        cq_batch in 1usize..9,
        script in proptest::collection::vec((any::<u8>(), 1usize..512, 0u8..6), 1..40),
    ) {
        use std::rc::Rc;
        #[derive(Debug, PartialEq)]
        enum Answer {
            Value(Option<Bytes>),
            Found(bool),
            Malformed { answer: Response, proto_errors: u64 },
        }
        let run = |cfg: rkv::KvServerConfig| -> Vec<Answer> {
            let sim = simkit::Sim::new();
            let fabric = netsim::Fabric::new(sim.clone(), 2, netsim::NetConfig::default());
            let stack = rdmasim::RdmaStack::new(fabric);
            let servers = vec![rkv::KvServer::new(
                Rc::clone(&stack),
                netsim::NodeId(0),
                cfg,
            )];
            let client = |tenant| rkv::KvClient::new(
                Rc::clone(&stack),
                netsim::NodeId(1),
                servers.clone(),
                rkv::KvClientConfig { tenant, ..rkv::KvClientConfig::default() },
            );
            let (cl, tenanted) = (client(0), client(7));
            let server = Rc::clone(&servers[0]);
            let script = script.clone();
            let out = sim.block_on(async move {
                let mut out = Vec::new();
                for (key, len, verb) in script {
                    // a narrow key space so deletes and pins hit live keys
                    let key = [key % 32];
                    match verb {
                        0 | 1 => out.push(Answer::Value(
                            cl.get(&key).await.unwrap().map(|v| v.data),
                        )),
                        2 => out.push(Answer::Found(cl.delete_on(&[0], &key).await.unwrap())),
                        3 => out.push(Answer::Found(cl.pin_to(0, &key).await.unwrap())),
                        4 => assert!(cl.unpin_on(&[0], &key).await.is_empty()),
                        _ => {
                            let value = Bytes::from(vec![key[0]; len]);
                            cl.set(&key, value, 0, 0).await.unwrap();
                        }
                    }
                }
                // a wide multi_get exercises the per-shard split/join path
                let keys: Vec<Vec<u8>> = (0..32u8).map(|k| vec![k]).collect();
                let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                for v in cl.multi_get(&refs).await {
                    out.push(Answer::Value(v.unwrap().map(|v| v.data)));
                }
                // admission is off, so the tenant tag changes no answer —
                // but its connection opens with the `set_tenant` hello
                out.push(Answer::Value(tenanted.get(&[0]).await.unwrap().map(|v| v.data)));
                // a frame no verb decodes from, on a raw queue pair
                let qp = server.accept(netsim::NodeId(1)).await.unwrap();
                qp.send(Bytes::from_static(&[0xff; 9])).await.unwrap();
                out.push(Answer::Malformed {
                    answer: Response::decode(qp.recv().await.unwrap()).unwrap(),
                    proto_errors: server.proto_errors(),
                });
                out
            });
            sim.reset();
            out
        };
        let base = run(rkv::KvServerConfig::default());
        let engine = run(rkv::KvServerConfig {
            cores,
            cq_batch,
            ..rkv::KvServerConfig::default()
        });
        prop_assert_eq!(
            base.last(),
            Some(&Answer::Malformed { answer: Response::TransferFailed, proto_errors: 1 })
        );
        prop_assert_eq!(base, engine);
    }

    /// Ketama: routing is a pure function of the label set — rebuilding
    /// the ring gives identical placement, and every key routes somewhere
    /// valid.
    #[test]
    fn hashring_routing_is_stable(
        n in 1usize..12,
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..40), 1..100),
    ) {
        let build = || {
            let members: Vec<usize> = (0..n).collect();
            let labels: Vec<String> = (0..n).map(|i| format!("srv{i}")).collect();
            rkv::HashRing::new(members, &labels, 100)
        };
        let a = build();
        let b = build();
        for k in &keys {
            let ra = *a.route(k);
            prop_assert_eq!(ra, *b.route(k));
            prop_assert!(ra < n);
            let replicas = a.route_n(k, 3.min(n));
            let mut seen: Vec<usize> = replicas.iter().map(|r| **r).collect();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), 3.min(n), "route_n returned duplicates");
        }
    }
}
