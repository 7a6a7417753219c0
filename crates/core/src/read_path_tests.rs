//! Property tests for the pipelined tiered read path: the bytes returned
//! must be identical to the serial `read_window = 1` path across random
//! geometries, schemes, and tier mixes (warm buffer, cold Lustre, mixed
//! hit/miss), and the virtual-time behaviour must be deterministic —
//! replaying a scenario gives bit-identical read latencies. A read's
//! gather of chunk views must hold exactly the bytes `read_at` returns.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use netsim::{Fabric, NetConfig, NodeId};
use proptest::prelude::*;
use simkit::Sim;

use lustre::{LustreCluster, LustreConfig};

use crate::manager::chunk_key;
use crate::{BbConfig, BbDeployment, ReadStats, Scheme};

fn pattern(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i * 131 % 251) as u8).collect::<Vec<u8>>())
}

/// One read-path scenario, replayed identically under different windows.
#[derive(Debug, Clone)]
struct Scenario {
    scheme_idx: usize,
    chunk_size: u64,
    total: u64,
    /// Flush and drop every buffered chunk before reading (cold path).
    cold: bool,
    /// `> 0`: flush, then drop every Nth chunk (mixed hit/miss).
    evict_stride: u64,
    /// Raw (offset, len) seeds, reduced modulo the file size at runtime.
    reads: Vec<(u64, u64)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        0usize..3,
        prop_oneof![Just(64u64 << 10), Just(128 << 10), Just(256 << 10)],
        (64u64 << 10)..(2 << 20),
        any::<bool>(),
        0u64..4,
        proptest::collection::vec((any::<u64>(), any::<u64>()), 1..4),
    )
        .prop_map(
            |(scheme_idx, chunk_size, total, cold, evict_stride, reads)| Scenario {
                scheme_idx,
                chunk_size,
                total,
                cold,
                evict_stride,
                reads,
            },
        )
}

/// How each of a scenario's reads is issued.
#[derive(Clone, Copy, PartialEq)]
enum ReadApi {
    /// `read_at` alone.
    ReadAt,
    /// `read_gather`, then `read_at` of the same range on the same reader;
    /// the read's result is the gather joined, once checked equal to
    /// `read_at`'s.
    GatherThenReadAt,
}

/// Build a fresh deployment, write the file, apply the scenario's
/// eviction mix, then replay its reads. Returns the bytes of each read,
/// the virtual-time latency of each read, and the deployment's counters.
fn run_scenario(sc: &Scenario, read_window: usize) -> (Vec<Bytes>, Vec<Duration>, ReadStats) {
    run_scenario_with(sc, read_window, ReadApi::ReadAt)
}

fn run_scenario_with(
    sc: &Scenario,
    read_window: usize,
    api: ReadApi,
) -> (Vec<Bytes>, Vec<Duration>, ReadStats) {
    let scheme = Scheme::all()[sc.scheme_idx % 3];
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), 2, NetConfig::default());
    let lustre = LustreCluster::deploy(&fabric, LustreConfig::default());
    let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
    let cfg = BbConfig {
        scheme,
        chunk_size: sc.chunk_size,
        read_window,
        ..BbConfig::default()
    };
    let dep = BbDeployment::deploy(&fabric, lustre, &nodes, cfg);
    let client = dep.client(NodeId(0));
    let sc = sc.clone();
    let dep2 = Rc::clone(&dep);
    let (results, lats) = sim.block_on(async move {
        let data = pattern(sc.total as usize);
        let w = client.create("/prop").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        if sc.cold || sc.evict_stride > 0 {
            client.wait_flushed("/prop").await.unwrap();
            let chunks = sc.total.div_ceil(sc.chunk_size);
            for seq in 0..chunks {
                if sc.cold || seq % sc.evict_stride.max(1) == 0 {
                    // first created file always gets id 1
                    let _ = crate::tests::evict(&client, &chunk_key(1, seq)).await;
                }
            }
        }
        let rd = client.open("/prop").await.unwrap();
        let sim = dep2.stack.sim().clone();
        let mut results = Vec::new();
        let mut lats = Vec::new();
        for &(a, b) in &sc.reads {
            let off = a % sc.total;
            let len = 1 + b % (sc.total - off);
            let t0 = sim.now();
            let got = match api {
                ReadApi::ReadAt => rd.read_at(off, len).await.unwrap(),
                ReadApi::GatherThenReadAt => {
                    let g = rd.read_gather(off, len).await.unwrap();
                    assert_eq!(g.len() as u64, len);
                    let joined = g.concat();
                    assert_eq!(joined, rd.read_at(off, len).await.unwrap());
                    joined
                }
            };
            results.push(got);
            lats.push(sim.now() - t0);
        }
        dep2.shutdown();
        (results, lats)
    });
    let stats = dep.read_stats();
    (results, lats, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pipelined reads (window 8) return byte-identical data to the
    /// serial window-1 path and to the ground-truth pattern, across
    /// random offsets, lengths, chunk sizes, schemes, and warm/cold/
    /// mixed buffer states.
    #[test]
    fn pipelined_reads_are_byte_identical(sc in scenario_strategy()) {
        let expect = pattern(sc.total as usize);
        let (pipelined, _, pstats) = run_scenario(&sc, 8);
        let (serial, _, sstats) = run_scenario(&sc, 1);
        for (i, &(a, b)) in sc.reads.iter().enumerate() {
            let off = (a % sc.total) as usize;
            let len = (1 + b % (sc.total - off as u64)) as usize;
            prop_assert_eq!(
                &pipelined[i][..],
                &expect[off..off + len],
                "pipelined read {} diverges from ground truth",
                i
            );
            prop_assert_eq!(
                &pipelined[i][..],
                &serial[i][..],
                "pipelined read {} diverges from the serial path",
                i
            );
        }
        // every returned chunk is attributed to exactly one tier
        prop_assert!(pstats.chunks_fetched() > 0);
        prop_assert!(sstats.chunks_fetched() > 0);
        // the serial path never issues batched GETs
        prop_assert_eq!(sstats.multi_gets, 0);
    }

    /// Replaying a scenario in a fresh simulation reproduces the exact
    /// virtual-time latency of every read and identical counters.
    #[test]
    fn read_latencies_are_deterministic(sc in scenario_strategy()) {
        for window in [1usize, 8] {
            let (bytes_a, lats_a, stats_a) = run_scenario(&sc, window);
            let (bytes_b, lats_b, stats_b) = run_scenario(&sc, window);
            prop_assert_eq!(&lats_a, &lats_b, "window {} latencies diverge", window);
            prop_assert_eq!(&stats_a, &stats_b, "window {} counters diverge", window);
            for (x, y) in bytes_a.iter().zip(&bytes_b) {
                prop_assert_eq!(&x[..], &y[..]);
            }
        }
    }
}

/// `sc` with its random reads plus three shaped ones — inside one chunk,
/// across a chunk boundary, the whole file — as `(a, b)` seeds that
/// `run_scenario` reduces to exactly those ranges.
fn with_shaped_reads(sc: &Scenario) -> Scenario {
    let (c, total) = (sc.chunk_size, sc.total);
    let range = |off: u64, len: u64| {
        let off = off.min(total - 1);
        (off, len.clamp(1, total - off) - 1)
    };
    let mut sc = sc.clone();
    sc.reads.extend([
        range(c / 4, c / 2),
        range(c - c / 3, 2 * c / 3),
        range(0, total),
    ]);
    sc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `read_gather(off, len).concat()` is `read_at(off, len)` is the
    /// generator's bytes, at windows 1 and 8, over each scenario as drawn
    /// and over the same file flushed and evicted (the Lustre tier), with
    /// sub-chunk, chunk-straddling and whole-file ranges.
    #[test]
    fn read_gather_joins_to_read_at(sc in scenario_strategy()) {
        let sc = with_shaped_reads(&sc);
        let cold = Scenario { cold: true, ..sc.clone() };
        let expect = pattern(sc.total as usize);
        for case in [&sc, &cold] {
            for window in [1usize, 8] {
                let (got, _, stats) = run_scenario_with(case, window, ReadApi::GatherThenReadAt);
                for (i, &(a, b)) in case.reads.iter().enumerate() {
                    let off = (a % case.total) as usize;
                    let len = (1 + b % (case.total - off as u64)) as usize;
                    prop_assert_eq!(&got[i][..], &expect[off..off + len], "window {} read {}", window, i);
                }
                if case.cold {
                    // scheme C's node-local replica sits above Lustre
                    let below_the_buffer = match Scheme::all()[case.scheme_idx % 3] {
                        Scheme::HybridLocality => stats.tier_local,
                        _ => stats.tier_lustre,
                    };
                    prop_assert!(below_the_buffer > 0, "the evicted file reads from below the buffer");
                }
            }
        }
    }
}

/// A warm multi-chunk sequential read completes strictly faster under
/// the pipelined window than chunk-at-a-time.
#[test]
fn pipelined_warm_read_beats_serial() {
    let sc = Scenario {
        scheme_idx: 0,
        chunk_size: 512 << 10,
        total: 8 << 20, // 16 chunks
        cold: false,
        evict_stride: 0,
        reads: vec![(0, u64::MAX)], // whole file
    };
    let (_, lats8, stats8) = run_scenario(&sc, 8);
    let (_, lats1, stats1) = run_scenario(&sc, 1);
    assert!(
        lats8[0] < lats1[0],
        "window 8 ({:?}) should beat window 1 ({:?})",
        lats8[0],
        lats1[0]
    );
    // the pipelined run batched its buffer GETs
    assert!(stats8.multi_gets > 0);
    assert!(stats8.avg_batch() > 1.0);
    assert_eq!(stats8.tier_buffer, 16);
    assert_eq!(stats1.tier_buffer, 16);
}

/// Cold reads coalesce contiguous buffer-miss runs: the Lustre tier
/// serves every chunk and the pipelined path still beats serial.
#[test]
fn pipelined_cold_read_coalesces_lustre_runs() {
    let sc = Scenario {
        scheme_idx: 0,
        chunk_size: 512 << 10,
        total: 8 << 20,
        cold: true,
        evict_stride: 0,
        reads: vec![(0, u64::MAX)],
    };
    let (_, lats8, stats8) = run_scenario(&sc, 8);
    let (_, lats1, stats1) = run_scenario(&sc, 1);
    assert_eq!(stats8.tier_lustre, 16);
    assert_eq!(stats1.tier_lustre, 16);
    assert!(
        lats8[0] <= lats1[0],
        "coalesced cold read ({:?}) should not lose to serial ({:?})",
        lats8[0],
        lats1[0]
    );
}
