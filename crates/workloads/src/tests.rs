//! Workload correctness tests plus "shape" tests: do the five systems
//! order the way the paper reports, at reduced scale?

use bb_core::Scheme;
use simkit::Time;

use crate::payload::PayloadPool;
use crate::randomwriter::{self, RandomWriterConfig};
use crate::sortbench::{self, SortConfig};
use crate::swim::{self, SwimConfig};
use crate::testbed::{SystemKind, Testbed, TestbedConfig};
use crate::testdfsio::{self, DfsioConfig};

/// Shape tests run at the calibrated default scale (16 nodes): the
/// HDFS/Lustre/BB balance is scale-dependent (Lustre is fixed
/// infrastructure, HDFS grows with the cluster), and the paper's ratios
/// hold at its default cluster size.
fn small_config() -> TestbedConfig {
    TestbedConfig::default()
}

fn dfsio_small() -> DfsioConfig {
    DfsioConfig {
        files: 16,
        file_size: 64 << 20,
        ..DfsioConfig::default()
    }
}

/// Write-then-read with full content verification on every system.
#[test]
fn dfsio_roundtrip_verifies_on_all_five_systems() {
    for kind in SystemKind::all_five() {
        let tb = Testbed::build(kind, small_config());
        let pool = PayloadPool::standard();
        let cfg = DfsioConfig {
            files: 4,
            file_size: 8 << 20,
            ..DfsioConfig::default()
        };
        tb.block_on(|tb| async move {
            let fs_for = tb.fs_for();
            let w = testdfsio::write(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg)
                .await
                .unwrap();
            assert_eq!(w.bytes, 32 << 20);
            let r = testdfsio::read(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg, true)
                .await
                .unwrap();
            assert_eq!(r.bytes, 32 << 20);
            testdfsio::clean(&tb.nodes, &fs_for, &cfg).await.unwrap();
            let left = fs_for(tb.nodes[0]).list(&cfg.dir).await.unwrap();
            assert!(left.is_empty(), "{kind:?} kept {left:?}");
            tb.shutdown();
        });
    }
}

fn run_dfsio(kind: SystemKind, cfg: &DfsioConfig) -> (f64, f64) {
    let tb = Testbed::build(kind, small_config());
    let pool = PayloadPool::standard();
    let cfg = cfg.clone();
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let w = testdfsio::write(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .unwrap();
        let r = testdfsio::read(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg, false)
            .await
            .unwrap();
        tb.shutdown();
        (w.aggregate.mb_per_sec(), r.aggregate.mb_per_sec())
    })
}

/// The paper's headline write ordering (E3): BB-Async > Lustre > HDFS,
/// with BB ≥ ~2× HDFS and ≥ ~1.3× Lustre at this reduced scale.
#[test]
fn e3_shape_write_ordering() {
    let cfg = dfsio_small();
    let (hdfs_w, _) = run_dfsio(SystemKind::Hdfs, &cfg);
    let (lustre_w, _) = run_dfsio(SystemKind::Lustre, &cfg);
    let (bb_w, _) = run_dfsio(SystemKind::Bb(Scheme::AsyncLustre), &cfg);
    println!("E3 write MB/s: HDFS {hdfs_w:.0}, Lustre {lustre_w:.0}, BB-Async {bb_w:.0}");
    assert!(
        lustre_w > hdfs_w * 1.2,
        "Lustre ({lustre_w:.0}) should beat HDFS ({hdfs_w:.0})"
    );
    assert!(
        bb_w > hdfs_w * 2.0,
        "BB ({bb_w:.0}) should be ≥2x HDFS ({hdfs_w:.0})"
    );
    assert!(
        bb_w > lustre_w * 1.3,
        "BB ({bb_w:.0}) should be ≥1.3x Lustre ({lustre_w:.0})"
    );
}

/// The paper's read gain (E4): buffered reads far above both baselines.
#[test]
fn e4_shape_read_gain() {
    let cfg = dfsio_small();
    let (_, hdfs_r) = run_dfsio(SystemKind::Hdfs, &cfg);
    let (_, lustre_r) = run_dfsio(SystemKind::Lustre, &cfg);
    let (_, bb_r) = run_dfsio(SystemKind::Bb(Scheme::AsyncLustre), &cfg);
    println!("E4 read MB/s: HDFS {hdfs_r:.0}, Lustre {lustre_r:.0}, BB-Async {bb_r:.0}");
    assert!(
        bb_r > hdfs_r * 3.0,
        "BB read ({bb_r:.0}) should be ≥3x HDFS ({hdfs_r:.0})"
    );
    assert!(
        bb_r > lustre_r * 3.0,
        "BB read ({bb_r:.0}) should be ≥3x Lustre ({lustre_r:.0})"
    );
}

/// Scheme ordering (E8): async ≥ hybrid > sync on writes; all ≥ Lustre.
#[test]
fn e8_shape_scheme_write_ordering() {
    let cfg = dfsio_small();
    let (a, _) = run_dfsio(SystemKind::Bb(Scheme::AsyncLustre), &cfg);
    let (s, _) = run_dfsio(SystemKind::Bb(Scheme::SyncLustre), &cfg);
    let (h, _) = run_dfsio(SystemKind::Bb(Scheme::HybridLocality), &cfg);
    println!("E8 write MB/s: async {a:.0}, sync {s:.0}, hybrid {h:.0}");
    assert!(a > s, "async ({a:.0}) should beat sync ({s:.0})");
    assert!(
        a >= h * 0.95,
        "async ({a:.0}) should not lose to hybrid ({h:.0})"
    );
}

/// Sort (E7): burst buffer reduces end-to-end sort time vs both baselines.
#[test]
fn e7_shape_sort_ordering() {
    fn run_sort(kind: SystemKind) -> f64 {
        let tb = Testbed::build(kind, small_config());
        let pool = PayloadPool::standard();
        let cfg = SortConfig {
            data_size: 512 << 20,
            input_files: 8,
            reducers: 8,
            ..SortConfig::default()
        };
        tb.block_on(|tb| async move {
            let fs_for = tb.fs_for();
            let r = sortbench::generate_and_sort(&tb.engine, &tb.nodes, &fs_for, &pool, &cfg)
                .await
                .unwrap();
            tb.shutdown();
            r.sort_time.as_secs_f64()
        })
    }
    let hdfs_t = run_sort(SystemKind::Hdfs);
    let lustre_t = run_sort(SystemKind::Lustre);
    let bb_t = run_sort(SystemKind::Bb(Scheme::AsyncLustre));
    println!("E7 sort secs: HDFS {hdfs_t:.2}, Lustre {lustre_t:.2}, BB-Async {bb_t:.2}");
    assert!(
        bb_t < hdfs_t,
        "BB sort ({bb_t:.2}s) should beat HDFS ({hdfs_t:.2}s)"
    );
    assert!(
        bb_t < lustre_t,
        "BB sort ({bb_t:.2}s) should beat Lustre ({lustre_t:.2}s)"
    );
}

/// Local storage (E9): HDFS ≈ 3× data, hybrid ≈ 1× data, async/sync ≈ 0.
#[test]
fn e9_local_storage_by_system() {
    let data = 4u64 << 20;
    for (kind, expect) in [
        (SystemKind::Hdfs, 3 * data),
        (SystemKind::Lustre, 0),
        (SystemKind::Bb(Scheme::AsyncLustre), 0),
        (SystemKind::Bb(Scheme::SyncLustre), 0),
        (SystemKind::Bb(Scheme::HybridLocality), data),
    ] {
        let tb = Testbed::build(kind, small_config());
        let pool = PayloadPool::standard();
        let used = tb.block_on(|tb| async move {
            let fs_for = tb.fs_for();
            let w = fs_for(tb.nodes[0]).create("/e9/file").await.unwrap();
            for piece in pool.stream(0, data, 1 << 20) {
                w.append(piece).await.unwrap();
            }
            w.close().await.unwrap();
            tb.drain_flush(&["/e9/file".into()]).await;
            let used = tb.local_storage_used();
            tb.shutdown();
            used
        });
        assert_eq!(used, expect, "kind {kind:?}");
    }
}

#[test]
fn randomwriter_runs_and_orders() {
    fn run(kind: SystemKind) -> f64 {
        let tb = Testbed::build(kind, small_config());
        let pool = PayloadPool::standard();
        let cfg = RandomWriterConfig {
            bytes_per_node: 64 << 20,
            ..RandomWriterConfig::default()
        };
        tb.block_on(|tb| async move {
            let fs_for = tb.fs_for();
            let r = randomwriter::run(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg)
                .await
                .unwrap();
            tb.shutdown();
            r.elapsed.as_secs_f64()
        })
    }
    let h = run(SystemKind::Hdfs);
    let b = run(SystemKind::Bb(Scheme::AsyncLustre));
    println!("E6 randomwriter secs: HDFS {h:.2}, BB {b:.2}");
    assert!(b < h, "BB ({b:.2}s) should beat HDFS ({h:.2}s)");
}

/// Past the buffer, BB-Async routes writes around itself instead of
/// throttling them: a dataset twice the aggregate KV memory must ingest
/// at least at plain Lustre's rate, enter pressure write-through on the
/// way, and still end every file `Flushed`, intact and byte-for-byte
/// readable.
#[test]
fn bb_async_ingests_at_lustre_rate_past_the_buffer() {
    let cfg = TestbedConfig {
        bb: bb_core::BbConfig {
            kv_mem_per_server: 64 << 20,
            ..small_config().bb
        },
        ..small_config()
    };
    let rw = RandomWriterConfig {
        bytes_per_node: 32 << 20,
        ..RandomWriterConfig::default()
    };
    let buffer = cfg.bb.kv_mem_per_server * cfg.bb.kv_servers as u64;
    assert_eq!(
        rw.bytes_per_node * cfg.compute_nodes as u64,
        2 * buffer,
        "the dataset must be twice the buffer"
    );
    let ingest = |kind: SystemKind| {
        let tb = Testbed::build(kind, cfg);
        let pool = PayloadPool::standard();
        let rw = rw.clone();
        tb.block_on(|tb| async move {
            let fs_for = tb.fs_for();
            let r = randomwriter::run(&tb.sim, &tb.nodes, &fs_for, &pool, &rw)
                .await
                .unwrap();
            let mbps = r.bytes as f64 / 1e6 / r.elapsed.as_secs_f64();
            if let Some(dep) = &tb.bb {
                let client = dep.client(tb.nodes[0]);
                for i in 0..tb.nodes.len() {
                    let path = format!("{}/part-{i:05}", rw.dir);
                    assert_eq!(
                        client.wait_flushed(&path).await.unwrap(),
                        bb_core::FileState::Flushed,
                        "{path}"
                    );
                }
                assert_eq!(dep.manager.stats().chunks_lost, 0);
                let enters = tb.sim.metrics().snapshot().counter("bb.pressure.enter");
                assert!(enters >= 1, "the overload path never ran");
            }
            let fs = fs_for(tb.nodes[0]);
            for i in 0..tb.nodes.len() {
                let path = format!("{}/part-{i:05}", rw.dir);
                let got = fs.open(&path).await.unwrap().read_all().await.unwrap();
                let want = pool.stream(i as u64 * 7_919, rw.bytes_per_node, randomwriter::IO_SIZE);
                assert_eq!(got, want.concat(), "{path} read back wrong bytes");
            }
            tb.shutdown();
            mbps
        })
    };
    let lustre = ingest(SystemKind::Lustre);
    let bb = ingest(SystemKind::Bb(Scheme::AsyncLustre));
    println!("randomwriter at 2x the buffer: BB-Async {bb:.0} MB/s, Lustre {lustre:.0} MB/s");
    assert!(
        bb >= 0.95 * lustre,
        "BB-Async ingests at {bb:.0} MB/s past its buffer, below plain Lustre's {lustre:.0} MB/s"
    );
}

/// Host-cost gate on the BB-Async write path: every hop still checks the
/// chunk's digest (writer's seal, KV server's SET verify, flusher
/// read-back, Lustre client and OSS commit checks), but each hop holds a
/// view of the writer's own buffer, so the CRC kernel reads each byte
/// about once. A hop that copies the payload (a fresh allocation) makes
/// the next check traverse it again (a copy in `Qp::read` reads 2.0), and
/// without derived digests every check traverses (5.0).
#[test]
fn bb_async_write_path_digests_each_byte_about_once() {
    let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), small_config());
    let pool = PayloadPool::standard();
    let cfg = DfsioConfig {
        files: 4,
        file_size: 8 << 20,
        ..DfsioConfig::default()
    };
    let user = cfg.total_bytes() as f64;
    let (write, drain) = tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let t0 = simkit::crc32c::traversed();
        testdfsio::write(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .unwrap();
        let t1 = simkit::crc32c::traversed();
        let client = tb.bb.as_ref().expect("bb testbed").client(tb.nodes[0]);
        for i in 0..cfg.files {
            let state = client.wait_flushed(&cfg.path(i)).await.unwrap();
            assert_eq!(state, bb_core::FileState::Flushed);
        }
        let t2 = simkit::crc32c::traversed();
        tb.shutdown();
        ((t1 - t0) as f64 / user, (t2 - t1) as f64 / user)
    });
    eprintln!("CRC bytes traversed per user byte: write phase {write:.3}, flush drain {drain:.3}");
    assert!(
        write <= 1.1,
        "write phase traversed {write:.3}× the user bytes"
    );
    assert!(
        write + drain <= 1.1,
        "write + flush drain traversed {:.3}× the user bytes",
        write + drain
    );
}

/// Host-cost gate on the whole E3/E4 round trip through BB-Async: write
/// the dataset, drain it to Lustre, then read it back buffer-hot with
/// every chunk's digest verified. Every check derives the chunk's digest
/// from prefix registers kept with the bytes they describe, so the seal,
/// the flush read-back and the reader's verify of a chunk written long
/// before each read only its unaligned head and tail: ≈ 0.011 CRC bytes
/// per user byte in all. A hop that copies the payload adds a full pass,
/// and a memo that forgets chunks before they are read back (one smaller
/// than the 2 048-chunk dataset) reads about 2.6× the user bytes.
#[test]
fn bb_async_round_trip_digests_each_byte_about_once() {
    let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), small_config());
    let pool = PayloadPool::standard();
    let cfg = dfsio_small();
    let user = cfg.total_bytes() as f64;
    let (write, drain, read) = tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let t0 = simkit::crc32c::traversed();
        testdfsio::write(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .unwrap();
        let t1 = simkit::crc32c::traversed();
        let client = tb.bb.as_ref().expect("bb testbed").client(tb.nodes[0]);
        for i in 0..cfg.files {
            let state = client.wait_flushed(&cfg.path(i)).await.unwrap();
            assert_eq!(state, bb_core::FileState::Flushed);
        }
        let t2 = simkit::crc32c::traversed();
        testdfsio::read(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg, true)
            .await
            .unwrap();
        let t3 = simkit::crc32c::traversed();
        let m = tb.sim.metrics().snapshot();
        let chunks = cfg.total_bytes() / tb.bb.as_ref().unwrap().config.chunk_size;
        assert_eq!(m.counter("bb.read.tier_buffer"), chunks, "not buffer-hot");
        tb.shutdown();
        let per_user = |a: u64, b: u64| (b - a) as f64 / user;
        (per_user(t0, t1), per_user(t1, t2), per_user(t2, t3))
    });
    eprintln!(
        "CRC bytes traversed per user byte: write {write:.3}, flush drain {drain:.3}, read {read:.3}"
    );
    let total = write + drain + read;
    assert!(
        total <= 0.05,
        "write + drain + read traversed {total:.3}× the user bytes"
    );
}

/// Host-cost gate on the E3 write itself: every chunk the writer seals is
/// a view of the one 4 MiB `PayloadPool` pattern, so once the pattern's
/// prefix registers are paid for by the bytes asked, a chunk's digest is
/// derived from them and reads only its unaligned head and tail (under 1
/// KiB of 512 KiB). Sealing by traversal reads 1.000 CRC bytes per user
/// byte here.
#[test]
fn bb_async_seal_reads_distinct_bytes_not_logical_bytes() {
    let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), small_config());
    let pool = PayloadPool::standard();
    let cfg = dfsio_small();
    let user = cfg.total_bytes() as f64;
    let write = tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let t0 = simkit::crc32c::traversed();
        testdfsio::write(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .unwrap();
        let t1 = simkit::crc32c::traversed();
        tb.shutdown();
        (t1 - t0) as f64 / user
    });
    eprintln!("CRC bytes traversed per user byte of the 16 × 64 MiB write: {write:.3}");
    assert!(
        write <= 0.05,
        "the write phase traversed {write:.3}× the user bytes"
    );
}

#[test]
fn swim_trace_completes_with_sane_stats() {
    let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), small_config());
    let pool = PayloadPool::standard();
    let cfg = SwimConfig {
        jobs: 6,
        min_input: 16 << 20,
        max_input: 128 << 20,
        ..SwimConfig::default()
    };
    let sim = tb.sim.clone();
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let r = swim::run(&tb.engine, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .unwrap();
        assert_eq!(r.jobs.len(), 6);
        assert!(r.makespan > std::time::Duration::ZERO);
        assert!(r.mean_job_time <= r.p95_job_time);
        assert!(r.p95_job_time <= r.makespan);
        tb.shutdown();
    });
    assert!(sim.now() > Time::ZERO);
}

#[test]
fn real_record_sort_small_scale_via_bench_path() {
    let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), small_config());
    let cfg = SortConfig {
        data_size: 8 << 20,
        input_files: 4,
        reducers: 4,
        real_sort: true,
        ..SortConfig::default()
    };
    let records_per_file = (cfg.data_size / cfg.input_files as u64 / 100) as usize;
    let expected_total = (records_per_file * cfg.input_files * 100) as u64;
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        // real record input so the real sort has structure to sort
        for i in 0..cfg.input_files {
            sortbench::teragen_real(
                &fs_for(tb.nodes[i % tb.nodes.len()]),
                &format!("{}/part-{i:05}", cfg.input_dir),
                records_per_file,
                i as u64 + 1,
            )
            .await
            .unwrap();
        }
        let r = sortbench::sort(&tb.engine, &fs_for, &cfg).await.unwrap();
        assert_eq!(r.bytes, expected_total);
        // outputs exist and carry all the bytes back
        let mut total = 0;
        for p in 0..cfg.reducers {
            let f = fs_for(tb.nodes[0])
                .open(&format!("{}/part-{p:05}", cfg.output_dir))
                .await
                .unwrap();
            total += f.size();
        }
        assert_eq!(total, expected_total);
        tb.shutdown();
    });
}

#[test]
fn e11_more_kv_servers_scale_write_throughput() {
    fn run(servers: usize) -> f64 {
        let mut cfg = small_config();
        cfg.bb.kv_servers = servers;
        // push the client bottleneck out of the way so the buffer layer is
        // what limits throughput in this sweep
        cfg.bb.client_write_rate = 3.0e9;
        let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), cfg);
        let pool = PayloadPool::standard();
        let dfsio = DfsioConfig {
            files: 16,
            file_size: 128 << 20,
            ..DfsioConfig::default()
        };
        tb.block_on(|tb| async move {
            let fs_for = tb.fs_for();
            let w = testdfsio::write(&tb.sim, &tb.nodes, &fs_for, &pool, &dfsio)
                .await
                .unwrap();
            tb.shutdown();
            w.aggregate.mb_per_sec()
        })
    }
    let one = run(1);
    let four = run(4);
    println!("E11 write MB/s: 1 server {one:.0}, 4 servers {four:.0}");
    assert!(
        four > one * 2.0,
        "4 servers ({four:.0}) should scale well past 1 ({one:.0})"
    );
}

/// A read that does not lie inside the file is an error — never a panic
/// that stops the simulation, nor an `offset + len` that wraps past the
/// check — on the burst buffer's reader as on HDFS's.
#[test]
fn reads_past_eof_are_out_of_range_errors() {
    use bb_core::fs::FsError;
    use bb_core::BbError;
    use hdfs::{dn::DnError, HdfsError};
    use lustre::LustreError;
    use storesim::StoreError;

    for kind in [
        SystemKind::Hdfs,
        SystemKind::Lustre,
        SystemKind::Bb(Scheme::AsyncLustre),
    ] {
        let tb = Testbed::build(kind, small_config());
        let pool = PayloadPool::standard();
        tb.block_on(|tb| async move {
            let fs = tb.fs_for()(tb.nodes[0]);
            let w = fs.create("/eof").await.unwrap();
            // not a whole number of chunks or blocks
            w.append(pool.slice(0, (1 << 20) + 7)).await.unwrap();
            w.close().await.unwrap();
            let r = fs.open("/eof").await.unwrap();
            let size = r.size();
            assert_eq!(size, (1 << 20) + 7);
            assert_eq!(
                r.read_at(size - 1, 1).await.unwrap(),
                pool.slice(0, size as usize)[size as usize - 1..]
            );
            assert!(r.read_at(size, 0).await.unwrap().is_empty());
            assert!(r.read_gather(size, 0).await.unwrap().is_empty());
            let out_of_range = |e: FsError| match e {
                FsError::Bb(BbError::OutOfRange { .. }) => matches!(kind, SystemKind::Bb(_)),
                FsError::Hdfs(HdfsError::Dn(DnError::Store(StoreError::OutOfRange))) => {
                    kind == SystemKind::Hdfs
                }
                FsError::Lustre(LustreError::Store(StoreError::OutOfRange)) => {
                    kind == SystemKind::Lustre
                }
                _ => false,
            };
            for (offset, len) in [
                (size, 1),
                (size - 1, 2),
                (u64::MAX, 1),
                (u64::MAX, 0),
                (1, u64::MAX),
            ] {
                let e = r.read_at(offset, len).await.unwrap_err();
                assert!(out_of_range(e.clone()), "read_at({offset}, {len}): {e}");
                let e = r.read_gather(offset, len).await.unwrap_err();
                assert!(out_of_range(e.clone()), "read_gather({offset}, {len}): {e}");
            }
            // and the reader still serves the file
            assert_eq!(
                r.read_at(0, size).await.unwrap(),
                pool.slice(0, size as usize)
            );
            tb.shutdown();
        });
    }
}

/// Zero-copy regression: a chunk-aligned `read_gather` hands back views
/// of the very allocation the writer's payloads were dealt from — from
/// the buffer (the KV slab's handles, carried in the GET replies) and
/// from the Lustre tier (the OSTs' handles, carried in the stripe
/// replies). A copy reintroduced at any hop between them puts an element
/// outside the `PayloadPool` pattern and fails this. A `read_at` across
/// the chunks one append was cut into is, from either tier, that append's
/// own view: the join rejoins adjacent views instead of copying them.
#[test]
fn chunk_aligned_read_gathers_are_views_of_the_writers_payloads() {
    let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), small_config());
    let pool = PayloadPool::standard();
    let pattern = pool.slice(0, pool.pattern_len());
    let inside = move |g: &simkit::Gather| {
        let lo = pattern.as_ptr() as usize;
        g.iter().all(|e| {
            let p = e.as_ptr() as usize;
            p >= lo && p + e.len() <= lo + pattern.len()
        })
    };
    tb.block_on(|tb| async move {
        let dep = tb.bb.as_ref().expect("bb testbed");
        let chunk = dep.config.chunk_size;
        assert!(chunk < 1 << 20, "a 1 MiB read must span chunks");
        let client = dep.client(tb.nodes[0]);
        // the testbed's first file: id 1
        let w = client.create("/zero-copy").await.unwrap();
        for i in 0..8 {
            w.append(pool.slice(i, 1 << 20)).await.unwrap();
        }
        w.close().await.unwrap();
        let (off, len) = (2 * chunk, 6 * chunk);

        dep.reset_read_stats();
        let g = client
            .open("/zero-copy")
            .await
            .unwrap()
            .read_gather(off, len)
            .await
            .unwrap();
        assert!(dep.read_stats().tier_buffer >= 6);
        assert_eq!(g.len() as u64, len);
        assert!(inside(&g), "a buffered read copied its chunks");
        // a `read_at` of the second 1 MiB append, two chunks
        let r = client.open("/zero-copy").await.unwrap();
        let one = r.read_at(1 << 20, 1 << 20).await.unwrap();
        assert_eq!(one, pool.slice(1, 1 << 20));
        assert_eq!(
            one.as_ptr(),
            pool.slice(1, 1 << 20).as_ptr(),
            "a buffered read_at copied"
        );

        assert_eq!(
            client.wait_flushed("/zero-copy").await.unwrap(),
            bb_core::FileState::Flushed
        );
        for seq in 0..16 {
            let (kv, key) = (client.kv(), bb_core::manager::chunk_key(1, seq));
            kv.delete_on(&[kv.route(&key).unwrap()], &key)
                .await
                .unwrap();
        }
        dep.reset_read_stats();
        let g = client
            .open("/zero-copy")
            .await
            .unwrap()
            .read_gather(off, len)
            .await
            .unwrap();
        let stats = dep.read_stats();
        assert_eq!(stats.tier_buffer, 0);
        assert!(stats.tier_lustre >= 6);
        assert_eq!(g.len() as u64, len);
        assert!(inside(&g), "a Lustre-tier read copied its chunks");
        let r = client.open("/zero-copy").await.unwrap();
        let one = r.read_at(1 << 20, 1 << 20).await.unwrap();
        assert_eq!(one, pool.slice(1, 1 << 20));
        assert_eq!(
            one.as_ptr(),
            pool.slice(1, 1 << 20).as_ptr(),
            "a Lustre-tier read_at copied"
        );
        tb.shutdown();
    });
}
