//! Behavioural tests for the burst buffer: the three schemes' write/read
//! paths, durability, flow control, degraded modes, and the fault window.

use std::rc::Rc;

use bytes::Bytes;
use netsim::{Fabric, NetConfig, NodeId};
use simkit::Sim;

use lustre::{LustreCluster, LustreConfig};

use crate::manager::FileState;
use crate::{BbClient, BbConfig, BbDeployment, BbError, Scheme};

struct Rig {
    sim: Sim,
    fabric: Rc<Fabric>,
    dep: Rc<BbDeployment>,
}

fn rig(compute: usize, scheme: Scheme) -> Rig {
    rig_with(
        compute,
        scheme,
        LustreConfig::default(),
        BbConfig::default(),
    )
}

fn rig_with(compute: usize, scheme: Scheme, lcfg: LustreConfig, bcfg: BbConfig) -> Rig {
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), compute, NetConfig::default());
    let lustre = LustreCluster::deploy(&fabric, lcfg);
    let nodes: Vec<NodeId> = (0..compute as u32).map(NodeId).collect();
    let dep = BbDeployment::deploy(&fabric, lustre, &nodes, BbConfig { scheme, ..bcfg });
    Rig { sim, fabric, dep }
}

fn pattern(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i * 131 % 251) as u8).collect::<Vec<u8>>())
}

#[test]
fn async_scheme_roundtrip_and_flush() {
    let r = rig(2, Scheme::AsyncLustre);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let data = pattern(3 << 20); // ~6 chunks
    let expect = data.clone();
    r.sim.block_on(async move {
        let w = client.create("/f1").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        // served from the buffer immediately
        let rd = client.open("/f1").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), expect);
        // and eventually durable in Lustre
        let st = client.wait_flushed("/f1").await.unwrap();
        assert_eq!(st, FileState::Flushed);
        assert_eq!(dep.lustre.stored_bytes(), 3 << 20);
        assert_eq!(dep.manager.stats().chunks_flushed, 6);
        dep.shutdown();
    });
}

#[test]
fn sync_scheme_is_durable_at_close() {
    let r = rig(2, Scheme::SyncLustre);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let data = pattern(2 << 20);
    let expect = data.clone();
    r.sim.block_on(async move {
        let w = client.create("/sync").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        // no waiting needed: write-through means durable now
        let rd = client.open("/sync").await.unwrap();
        assert_eq!(rd.state(), FileState::Flushed);
        assert_eq!(dep.lustre.stored_bytes(), 2 << 20);
        assert_eq!(rd.read_all().await.unwrap(), expect);
        dep.shutdown();
    });
}

#[test]
fn hybrid_scheme_keeps_a_local_replica() {
    let r = rig(4, Scheme::HybridLocality);
    let client = r.dep.client(NodeId(1));
    let dep = Rc::clone(&r.dep);
    let data = pattern(2 << 20);
    let expect = data.clone();
    r.sim.block_on(async move {
        let w = client.create("/hyb").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        // exactly one local replica exists (r=1 overlay on RAM disk)
        assert_eq!(dep.local_storage_used(), 2 << 20);
        let rd = client.open("/hyb").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), expect);
        // locality info exposed for the scheduler
        assert!(!rd.locations().is_empty());
        client.wait_flushed("/hyb").await.unwrap();
        dep.shutdown();
    });
}

#[test]
fn async_and_sync_have_zero_local_storage() {
    for scheme in [Scheme::AsyncLustre, Scheme::SyncLustre] {
        let r = rig(2, scheme);
        let client = r.dep.client(NodeId(0));
        let dep = Rc::clone(&r.dep);
        r.sim.block_on(async move {
            let w = client.create("/nolocal").await.unwrap();
            w.append(pattern(1 << 20)).await.unwrap();
            w.close().await.unwrap();
            client.wait_flushed("/nolocal").await.ok();
            assert_eq!(dep.local_storage_used(), 0, "scheme {scheme:?}");
            dep.shutdown();
        });
    }
}

#[test]
fn read_falls_back_to_lustre_after_buffer_eviction() {
    let r = rig(2, Scheme::AsyncLustre);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let data = pattern(2 << 20);
    let expect = data.clone();
    r.sim.block_on(async move {
        let w = client.create("/cold").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        client.wait_flushed("/cold").await.unwrap();
        // simulate LRU eviction: drop every chunk from the buffer
        for seq in 0..4u64 {
            let key = crate::manager::chunk_key(1, seq);
            client.kv().delete(&key).await.unwrap();
        }
        let rd = client.open("/cold").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), expect);
        dep.shutdown();
    });
}

#[test]
fn degraded_write_path_when_buffer_is_down() {
    let r = rig(2, Scheme::AsyncLustre);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let fabric = Rc::clone(&r.fabric);
    let data = pattern(1 << 20);
    let expect = data.clone();
    r.sim.block_on(async move {
        // take every KV server down before writing
        for s in &dep.kv_servers {
            fabric.set_up(s.node(), false);
        }
        let w = client.create("/degraded").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        let st = client.wait_flushed("/degraded").await.unwrap();
        assert_eq!(st, FileState::Flushed);
        assert_eq!(dep.manager.stats().chunks_direct, 2);
        // reads skip the dead buffer and hit Lustre
        let rd = client.open("/degraded").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), expect);
        dep.shutdown();
    });
}

#[test]
fn async_fault_window_loses_unflushed_data() {
    // Slow Lustre (1 narrow OST) so the flush queue is deep at close time,
    // then kill the buffer: unflushed chunks are genuinely lost — the
    // documented AsyncLustre fault window, and the reason SyncLustre exists.
    let lcfg = LustreConfig {
        oss_count: 1,
        osts_per_oss: 1,
        stripe_count: 1,
        ost_rate: 2e6, // 2 MB/s: 8 MiB takes ~4 s to flush
        ..LustreConfig::default()
    };
    let r = rig_with(2, Scheme::AsyncLustre, lcfg, BbConfig::default());
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let fabric = Rc::clone(&r.fabric);
    r.sim.block_on(async move {
        let w = client.create("/risky").await.unwrap();
        w.append(pattern(8 << 20)).await.unwrap();
        w.close().await.unwrap();
        // buffer dies right after close, flush barely started
        for s in &dep.kv_servers {
            fabric.set_up(s.node(), false);
        }
        let st = client.wait_flushed("/risky").await.unwrap();
        assert_eq!(st, FileState::Lost);
        assert!(dep.manager.stats().chunks_lost > 0);
        let rd = client.open("/risky").await.unwrap();
        match rd.read_all().await {
            Err(BbError::DataUnavailable { .. }) => {}
            other => panic!("expected DataUnavailable, got {other:?}"),
        }
        dep.shutdown();
    });
}

#[test]
fn inflight_flush_retries_across_buffer_outage() {
    // Regression: a flush whose KV GET hits an unreachable server must
    // retry after recovery instead of silently counting the chunk lost.
    // Slow Lustre keeps the flush queue deep across the outage window.
    let lcfg = LustreConfig {
        oss_count: 1,
        osts_per_oss: 1,
        stripe_count: 1,
        ost_rate: 2e6,
        ..LustreConfig::default()
    };
    let r = rig_with(2, Scheme::AsyncLustre, lcfg, BbConfig::default());
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let fabric = Rc::clone(&r.fabric);
    let sim = r.sim.clone();
    r.sim.block_on(async move {
        let w = client.create("/outage").await.unwrap();
        w.append(pattern(8 << 20)).await.unwrap();
        w.close().await.unwrap();
        // transient outage right after close, healed 3 ms later — well
        // inside the flusher's bounded retry budget
        for s in &dep.kv_servers {
            fabric.set_up(s.node(), false);
        }
        sim.sleep(std::time::Duration::from_millis(3)).await;
        for s in &dep.kv_servers {
            fabric.set_up(s.node(), true);
        }
        let st = client.wait_flushed("/outage").await.unwrap();
        assert_eq!(st, FileState::Flushed);
        let stats = dep.manager.stats();
        assert_eq!(stats.chunks_lost, 0, "outage flush silently dropped");
        assert_eq!(stats.chunks_flushed, 16);
        dep.shutdown();
    });
}

#[test]
fn a_chunk_of_a_file_still_flushing_is_unavailable_not_lost() {
    // The buffer is unreachable while the flush is still running: the read
    // finds the chunk in neither tier it may use and says so, without
    // calling it lost. Once the outage heals the same file flushes whole.
    let lcfg = LustreConfig {
        oss_count: 1,
        osts_per_oss: 1,
        stripe_count: 1,
        ost_rate: 2e6,
        ..LustreConfig::default()
    };
    let r = rig_with(2, Scheme::AsyncLustre, lcfg, BbConfig::default());
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let fabric = Rc::clone(&r.fabric);
    r.sim.block_on(async move {
        let w = client.create("/draining").await.unwrap();
        w.append(pattern(8 << 20)).await.unwrap();
        w.close().await.unwrap();
        for s in &dep.kv_servers {
            fabric.set_up(s.node(), false);
        }
        let rd = client.open("/draining").await.unwrap();
        let err = rd
            .read_all()
            .await
            .expect_err("buffer unreachable, file not flushed");
        assert!(
            matches!(err, BbError::DataUnavailable { seq: 0, .. }),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "chunk 0 of /draining is not in the buffer and not (yet) durable on Lustre"
        );
        for s in &dep.kv_servers {
            fabric.set_up(s.node(), true);
        }
        let st = client.wait_flushed("/draining").await.unwrap();
        assert_eq!(st, FileState::Flushed, "nothing was lost");
        assert_eq!(dep.manager.stats().chunks_lost, 0);
        dep.shutdown();
    });
}

#[test]
fn sync_scheme_survives_buffer_death() {
    let r = rig(2, Scheme::SyncLustre);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let fabric = Rc::clone(&r.fabric);
    let data = pattern(4 << 20);
    let expect = data.clone();
    r.sim.block_on(async move {
        let w = client.create("/safe").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        for s in &dep.kv_servers {
            fabric.set_up(s.node(), false);
        }
        // every byte is already in Lustre: reads degrade, not fail
        let rd = client.open("/safe").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), expect);
        dep.shutdown();
    });
}

#[test]
fn delete_reaps_buffer_and_lustre() {
    let r = rig(2, Scheme::AsyncLustre);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    r.sim.block_on(async move {
        let w = client.create("/del").await.unwrap();
        w.append(pattern(1 << 20)).await.unwrap();
        w.close().await.unwrap();
        client.wait_flushed("/del").await.unwrap();
        assert!(dep.buffered_bytes() > 0);
        assert!(dep.lustre.stored_bytes() > 0);
        client.delete("/del").await.unwrap();
        assert_eq!(dep.buffered_bytes(), 0);
        assert_eq!(dep.lustre.stored_bytes(), 0);
        assert!(!client.exists("/del").await.unwrap());
        dep.shutdown();
    });
}

#[test]
fn namespace_list_exists_create_conflict() {
    let r = rig(2, Scheme::AsyncLustre);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    r.sim.block_on(async move {
        for p in ["/dir/a", "/dir/b", "/other/c"] {
            let w = client.create(p).await.unwrap();
            w.close().await.unwrap();
        }
        assert_eq!(client.list("/dir/").await.unwrap().len(), 2);
        assert!(client.exists("/dir/a").await.unwrap());
        match client.create("/dir/a").await.map(|_| ()) {
            Err(BbError::Exists(_)) => {}
            other => panic!("expected Exists, got {other:?}"),
        }
        dep.shutdown();
    });
}

#[test]
fn partial_chunk_tail_roundtrips() {
    let r = rig(2, Scheme::AsyncLustre);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let n = (512 << 10) * 3 + 7777;
    let data = pattern(n);
    let expect = data.clone();
    r.sim.block_on(async move {
        let w = client.create("/tail").await.unwrap();
        let mut rest = data;
        while !rest.is_empty() {
            let take = rest.len().min(300_000);
            w.append(rest.split_to(take)).await.unwrap();
        }
        w.close().await.unwrap();
        let rd = client.open("/tail").await.unwrap();
        assert_eq!(rd.size(), n as u64);
        assert_eq!(rd.read_all().await.unwrap(), expect);
        client.wait_flushed("/tail").await.unwrap();
        // Lustre copy matches too
        let lf = client.open("/tail").await.unwrap();
        for seq in 0..4u64 {
            let key = crate::manager::chunk_key(1, seq);
            client.kv().delete(&key).await.unwrap();
        }
        assert_eq!(lf.read_all().await.unwrap(), expect);
        dep.shutdown();
    });
}

#[test]
fn many_concurrent_writers_round_trip() {
    let r = rig(8, Scheme::AsyncLustre);
    let sim = r.sim.clone();
    let mut handles = Vec::new();
    for n in 0..8u32 {
        let client = r.dep.client(NodeId(n));
        handles.push(sim.spawn(async move {
            let path = format!("/many/f{n}");
            let w = client.create(&path).await.unwrap();
            let data = pattern(3 << 20);
            w.append(data.clone()).await.unwrap();
            w.close().await.unwrap();
            client.wait_flushed(&path).await.unwrap();
            let rd = client.open(&path).await.unwrap();
            rd.read_all().await.unwrap() == data
        }));
    }
    r.dep.shutdown();
    sim.run();
    for h in handles {
        assert!(h.try_take().unwrap(), "a writer's data did not round-trip");
    }
    assert_eq!(r.dep.lustre.stored_bytes(), 8 * (3 << 20));
}

#[test]
fn unflushed_chunks_survive_memory_pressure() {
    // Regression for the async-scheme silent-loss hole: the KV tier is
    // filled well past its memory limit before the (slow) flush can
    // complete. Unflushed chunks are pinned against LRU eviction, so the
    // slab refuses new inserts instead of dropping dirty data; the writer
    // falls back to write-through for the overflow. Nothing may surface
    // as a clean NotFound at flush time.
    let lcfg = LustreConfig {
        oss_count: 1,
        osts_per_oss: 1,
        stripe_count: 1,
        ost_rate: 4e6, // 4 MB/s: the buffer fills long before the flush drains
        ..LustreConfig::default()
    };
    let bcfg = BbConfig {
        kv_servers: 1,
        kv_mem_per_server: 8 << 20,
        // park the pressure watermarks out of reach: this test exercises
        // the pin-vs-eviction line of defence, not graceful degradation
        bb_high_watermark: 8.0,
        bb_low_watermark: 1.0,
        ..BbConfig::default()
    };
    let r = rig_with(2, Scheme::AsyncLustre, lcfg, bcfg);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let data = pattern(24 << 20); // 3x the buffer
    let expect = data.clone();
    r.sim.block_on(async move {
        let w = client.create("/pinned").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        let st = client.wait_flushed("/pinned").await.unwrap();
        assert_eq!(st, FileState::Flushed);
        let stats = dep.manager.stats();
        assert_eq!(
            stats.chunks_lost, 0,
            "an unflushed chunk was silently evicted under memory pressure"
        );
        // the overflow had to go somewhere: write-through, not loss
        assert!(
            stats.chunks_direct > 0,
            "slab overflow never hit the direct path"
        );
        let rd = client.open("/pinned").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), expect);
        dep.shutdown();
    });
}

#[test]
fn pressure_watermarks_degrade_to_writethrough_with_hysteresis() {
    // Crossing the high watermark must flip the write path to
    // write-through (bb.pressure.enter, bb.pressure.writethrough); once
    // the flusher drains below the low watermark the buffer re-engages
    // (bb.pressure.exit). No bytes are lost either way.
    let lcfg = LustreConfig {
        oss_count: 1,
        osts_per_oss: 1,
        stripe_count: 1,
        ost_rate: 8e6,
        ..LustreConfig::default()
    };
    let bcfg = BbConfig {
        kv_servers: 1,
        kv_mem_per_server: 32 << 20,
        bb_high_watermark: 0.5,
        bb_low_watermark: 0.25,
        ..BbConfig::default()
    };
    let r = rig_with(2, Scheme::AsyncLustre, lcfg, bcfg);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let data = pattern(48 << 20);
    let expect = data.clone();
    r.sim.block_on(async move {
        let w = client.create("/hyst").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        let st = client.wait_flushed("/hyst").await.unwrap();
        assert_eq!(st, FileState::Flushed);
        assert_eq!(dep.manager.stats().chunks_lost, 0);
        let rd = client.open("/hyst").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), expect);
        dep.shutdown();
    });
    let m = r.sim.metrics().snapshot();
    assert!(
        m.counter("bb.pressure.enter") >= 1,
        "pressure never engaged"
    );
    assert!(
        m.counter("bb.pressure.writethrough") >= 1,
        "pressure engaged but no chunk took the write-through path"
    );
    assert!(
        m.counter("bb.pressure.exit") >= 1,
        "pressure never released after the flusher drained"
    );
}

#[test]
fn at_rest_corruption_of_one_replica_spares_the_other_and_the_ost() {
    // The RDMA hops carry handles, so after a flush both replicas' values
    // and the OST segment of a chunk are views of the writer's one
    // allocation. Damaging a value at rest must replace that replica's
    // handle, not write through it.
    let bcfg = BbConfig {
        kv_servers: 2,
        kv_replication: 2,
        ..BbConfig::default()
    };
    let r = rig_with(2, Scheme::AsyncLustre, LustreConfig::default(), bcfg);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let data = pattern(2 << 20); // 4 chunks
    r.sim.block_on(async move {
        let w = client.create("/alias").await.unwrap();
        w.append(data.clone()).await.unwrap();
        w.close().await.unwrap();
        client.wait_flushed("/alias").await.unwrap();
        let chunk = dep.config.chunk_size as usize;
        let hit = dep.kv_servers[0]
            .store()
            .corrupt_resident(|len| Some((len / 2, 0x40)));
        assert_eq!(hit, 4);
        for seq in 0..4usize {
            let key = crate::manager::chunk_key(1, seq as u64);
            let want = &data[seq * chunk..(seq + 1) * chunk];
            let (bad, _) = dep.kv_servers[0].store().peek(&key, 0).unwrap();
            let (good, _) = dep.kv_servers[1].store().peek(&key, 0).unwrap();
            assert_ne!(&bad.data[..], want, "chunk {seq} on the damaged server");
            assert_eq!(&good.data[..], want, "chunk {seq} on the other replica");
            // the premise: that replica holds the writer's bytes themselves
            assert_eq!(good.data.as_ptr(), want.as_ptr());
            // with the writer's view memoized (the seal, the SET verifies
            // and the flusher's read-back all digested it), the damaged
            // copy is still read and fails its check
            let sealed = crate::integrity::chunk_crc(&key, &good.data);
            assert_eq!(sealed, good.flags);
            assert!(crate::integrity::is_good(&key, &good, Some(sealed)));
            assert!(!crate::integrity::is_good(&key, &bad, Some(sealed)));
            assert!(!crate::integrity::is_good(&key, &bad, None));
        }
        let lustre = dep.lustre.client(NodeId(1));
        let f = lustre
            .open(&crate::manager::lustre_path("/alias"))
            .await
            .unwrap();
        assert_eq!(f.read_all().await.unwrap(), data, "the flushed copy");
        dep.shutdown();
    });
}

#[test]
fn scrubber_repairs_corrupted_replicas_in_place() {
    // Corrupt every buffered copy of a flushed file, then let the
    // background scrubber run: it must detect the damage via checksums
    // and rewrite good bytes (sourced from Lustre) over the bad copies,
    // leaving nothing unrepairable and the buffer serving correct data.
    let bcfg = BbConfig {
        kv_servers: 2,
        kv_replication: 2,
        ..BbConfig::default()
    };
    let r = rig_with(2, Scheme::AsyncLustre, LustreConfig::default(), bcfg);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let sim = r.sim.clone();
    let data = pattern(2 << 20); // 4 chunks
    let expect = data.clone();
    r.sim.block_on(async move {
        let w = client.create("/scrub").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        client.wait_flushed("/scrub").await.unwrap();
        // flip one byte in every resident value on every server
        let mut hit = 0;
        for s in &dep.kv_servers {
            hit += s.store().corrupt_resident(|len| Some((len / 2, 0x40)));
        }
        assert_eq!(hit, 8, "expected 4 chunks x 2 replicas corrupted");
        // several scrub intervals: one batch covers all 4 resident chunks
        sim.sleep(std::time::Duration::from_secs(4)).await;
        let m = sim.metrics().snapshot();
        assert!(
            m.counter("bb.integrity.checksum_fail") >= 8,
            "scrubber did not notice the corruption"
        );
        assert_eq!(
            m.counter("bb.scrub.repaired"),
            8,
            "every corrupted copy should be rewritten in place"
        );
        assert_eq!(m.counter("bb.scrub.unrepairable"), 0);
        // the buffer itself now serves good bytes again
        let rd = client.open("/scrub").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), expect);
        dep.shutdown();
    });
    assert_eq!(
        r.dep.read_stats().tier_buffer,
        4,
        "repaired chunks should be served from the buffer, not Lustre"
    );
}

#[test]
fn buffered_writes_beat_hdfs_style_persistence() {
    // sanity on the headline direction: an async-buffered write should be
    // far faster than synchronous write-through (which pays Lustre inline)
    fn write_time(scheme: Scheme) -> f64 {
        let r = rig(2, scheme);
        let client = r.dep.client(NodeId(0));
        let dep = Rc::clone(&r.dep);
        let s = r.sim.clone();
        r.sim.block_on(async move {
            let w = client.create("/t").await.unwrap();
            let t0 = s.now();
            w.append(pattern(64 << 20)).await.unwrap();
            w.close().await.unwrap();
            let dt = (s.now() - t0).as_secs_f64();
            client.wait_flushed("/t").await.ok();
            dep.shutdown();
            dt
        })
    }
    let async_t = write_time(Scheme::AsyncLustre);
    let sync_t = write_time(Scheme::SyncLustre);
    assert!(
        async_t < sync_t,
        "async {async_t:.4}s should beat sync {sync_t:.4}s"
    );
}

#[test]
fn drained_server_hands_off_pinned_chunks_before_leaving() {
    // A server holding the only pinned (unflushed) replica of a chunk is
    // drained mid-flush. The rebalancer must copy the chunk to the
    // surviving owner, carry the pin, and empty the drained server —
    // all before the slow flush completes — with no acknowledged bytes
    // lost and no Lustre fallback available (the file is not flushed).
    let lcfg = LustreConfig {
        oss_count: 1,
        osts_per_oss: 1,
        stripe_count: 1,
        ost_rate: 1e6, // 1 MB/s: 4 MiB stays unflushed for ~4 s
        ..LustreConfig::default()
    };
    let bcfg = BbConfig {
        kv_servers: 2,
        kv_replication: 1, // single replica: the drained copy is the only one
        rebalance_interval: std::time::Duration::from_millis(50),
        ..BbConfig::default()
    };
    let r = rig_with(2, Scheme::AsyncLustre, lcfg, bcfg);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let sim = r.sim.clone();
    let data = pattern(4 << 20); // 8 chunks spread over both servers
    let expect = data.clone();
    r.sim.block_on(async move {
        let w = client.create("/drainpin").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        // every chunk is pinned in the buffer; pick a victim that holds some
        let victim = dep
            .kv_servers
            .iter()
            .find(|s| s.store().stats().items > 0)
            .expect("some server holds chunks")
            .node();
        let before: u64 = dep.kv_servers.iter().map(|s| s.store().stats().items).sum();
        assert!(dep.drain_kv_server(victim));
        // a few rebalance intervals: one epoch diff + one batch moves all
        sim.sleep(std::time::Duration::from_millis(500)).await;
        let survivor = dep.kv_servers.iter().find(|s| s.node() != victim).unwrap();
        let drained = dep.kv_servers.iter().find(|s| s.node() == victim).unwrap();
        assert_eq!(
            drained.store().stats().items,
            0,
            "drained server must hand off every chunk before leaving"
        );
        let sstats = survivor.store().stats();
        assert_eq!(sstats.items, before, "no chunk lost in the handoff");
        assert!(
            sstats.pinned_items > 0,
            "unflushed chunks must stay pinned on their new owner"
        );
        let m = sim.metrics().snapshot();
        assert!(m.counter("bb.rebalance.moved") > 0);
        assert_eq!(m.counter("bb.rebalance.verify_fail"), 0);
        // the flush still completes and the bytes are intact
        let st = client.wait_flushed("/drainpin").await.unwrap();
        assert_eq!(st, FileState::Flushed);
        let rd = client.open("/drainpin").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), expect);
        dep.shutdown();
    });
}

// --- durability ack modes + traffic-aware admission -------------------

#[test]
fn ack_mode_quorum_contract() {
    use crate::AckMode;
    // full_r always waits for every configured replica
    for r in 1..=4 {
        assert_eq!(AckMode::FullR.quorum(r), r);
    }
    // local_only acks on the primary alone, regardless of r
    for r in 1..=4 {
        assert_eq!(AckMode::LocalOnly.quorum(r), 1);
    }
    // local_plus_one wants a second copy when one exists
    assert_eq!(AckMode::LocalPlusOne.quorum(1), 1);
    assert_eq!(AckMode::LocalPlusOne.quorum(2), 2);
    assert_eq!(AckMode::LocalPlusOne.quorum(4), 2);
    // r = 0 is clamped, never a zero quorum
    for mode in AckMode::all() {
        assert!(mode.quorum(0) >= 1);
    }
    // full_r is the default
    assert_eq!(BbConfig::default().bb_ack_mode, AckMode::FullR);
    assert_eq!(BbConfig::default().bb_admit_stream_bytes, 0);
}

#[test]
fn relaxed_ack_mode_takes_the_quorum_path_and_full_r_does_not() {
    use crate::AckMode;
    // the same write under each mode; returns the relaxed-path ack count
    let run = |bb_ack_mode: AckMode| -> u64 {
        let bcfg = BbConfig {
            kv_replication: 2,
            kv_servers: 3,
            bb_ack_mode,
            ..BbConfig::default()
        };
        let r = rig_with(2, Scheme::AsyncLustre, LustreConfig::default(), bcfg);
        let client = r.dep.client(NodeId(0));
        let dep = Rc::clone(&r.dep);
        let sim = r.sim.clone();
        let data = pattern(2 << 20);
        let expect = data.clone();
        r.sim.block_on(async move {
            let w = client.create("/f").await.unwrap();
            w.append(data).await.unwrap();
            w.close().await.unwrap();
            let m = sim.metrics().snapshot();
            assert_eq!(m.counter("bb.ack.downgrade"), 0);
            // relaxed acks cost no durability once replication catches up
            let st = client.wait_flushed("/f").await.unwrap();
            assert_eq!(st, FileState::Flushed);
            let rd = client.open("/f").await.unwrap();
            assert_eq!(rd.read_all().await.unwrap(), expect);
            dep.shutdown();
            m.counter("bb.ack.quorum_acks")
        })
    };
    // local_only acks before all replicas are durable; full_r (the config
    // default) acks at every replica, which is no quorum ack
    assert!(run(AckMode::LocalOnly) > 0, "relaxed path not taken");
    assert_eq!(
        run(AckMode::FullR),
        0,
        "full_r files must not take the relaxed ack path"
    );
}

#[test]
fn a_failed_sync_copy_writes_the_chunk_through() {
    use crate::AckMode;
    // local_only at r = 2 syncs the primary alone; with the primary's link
    // down the chunk goes write-through rather than to a buffered copy on
    // the second replica
    let bcfg = BbConfig {
        kv_replication: 2,
        kv_servers: 2,
        bb_ack_mode: AckMode::LocalOnly,
        ..BbConfig::default()
    };
    let r = rig_with(2, Scheme::AsyncLustre, LustreConfig::default(), bcfg);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let fabric = Rc::clone(&r.fabric);
    let sim = r.sim.clone();
    let data = pattern(512 << 10); // one chunk
    let expect = data.clone();
    r.sim.block_on(async move {
        let primary = dep
            .membership()
            .route(&crate::manager::chunk_key(1, 0))
            .unwrap();
        fabric.set_up(dep.membership().server(primary).node(), false);
        let w = client.create("/f").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        let st = client.wait_flushed("/f").await.unwrap();
        assert_eq!(st, FileState::Flushed);
        let stats = dep.manager.stats();
        assert_eq!(stats.chunks_direct, 1, "the chunk must be written through");
        assert_eq!(stats.chunks_flushed, 0);
        assert_eq!(sim.metrics().snapshot().counter("bb.ack.quorum_acks"), 0);
        let rd = client.open("/f").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), expect);
        dep.shutdown();
    });
}

#[test]
fn a_replica_set_shorter_than_the_quorum_acks_with_a_downgrade() {
    use crate::AckMode;
    // r = 2 over one KV server: both modes that want two copies ack the
    // one the ring has, buffered, and say so
    for bb_ack_mode in [AckMode::FullR, AckMode::LocalPlusOne] {
        let bcfg = BbConfig {
            kv_replication: 2,
            kv_servers: 1,
            bb_ack_mode,
            ..BbConfig::default()
        };
        let r = rig_with(2, Scheme::AsyncLustre, LustreConfig::default(), bcfg);
        let client = r.dep.client(NodeId(0));
        let dep = Rc::clone(&r.dep);
        let sim = r.sim.clone();
        let data = pattern(1 << 20); // two chunks
        let expect = data.clone();
        r.sim.block_on(async move {
            let w = client.create("/f").await.unwrap();
            w.append(data).await.unwrap();
            w.close().await.unwrap();
            let m = sim.metrics().snapshot();
            assert_eq!(m.counter("bb.ack.downgrade"), 2, "{bb_ack_mode:?}");
            assert_eq!(m.counter("bb.ack.quorum_acks"), 0, "{bb_ack_mode:?}");
            let st = client.wait_flushed("/f").await.unwrap();
            assert_eq!(st, FileState::Flushed);
            let stats = dep.manager.stats();
            assert_eq!((stats.chunks_flushed, stats.chunks_direct), (2, 0));
            let rd = client.open("/f").await.unwrap();
            assert_eq!(rd.read_all().await.unwrap(), expect);
            dep.shutdown();
        });
    }
}

#[test]
fn an_exhausted_tail_frees_the_ack_ahead_window_at_its_last_attempt() {
    use crate::AckMode;
    // local_only at r = 2 with room for one outstanding tail: while the
    // second replica is down, each buffered chunk's tail exhausts its
    // retries, and the next chunk waits for that permit. The wait must end
    // the instant the last attempt fails, not one backoff later.
    let bcfg = BbConfig {
        kv_replication: 2,
        kv_servers: 2,
        bb_ack_mode: AckMode::LocalOnly,
        bb_ack_ahead: 1,
        // a writer fast enough to reach the window while a tail retries
        client_write_rate: 100e9,
        ..BbConfig::default()
    };
    let r = rig_with(2, Scheme::AsyncLustre, LustreConfig::default(), bcfg);
    r.sim.tracer().enable();
    r.sim.flight().enable(1024);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let fabric = Rc::clone(&r.fabric);
    let sim = r.sim.clone();
    r.sim.block_on(async move {
        // the server holding only tails: the first chunk's second replica
        let reps = dep
            .membership()
            .route_n(&crate::manager::chunk_key(1, 0), 2);
        fabric.set_up(dep.membership().server(reps[1]).node(), false);
        let w = client.create("/f").await.unwrap();
        w.append(pattern(4 << 20)).await.unwrap();
        w.close().await.unwrap();
        assert_eq!(client.wait_flushed("/f").await.unwrap(), FileState::Flushed);
        dep.shutdown();
    });
    let mut wait_ends = Vec::new();
    sim.tracer().for_each_event(|e| {
        if e.name == "bb.ack_wait" {
            wait_ends.push(e.ts_ns + e.dur_ns);
        }
    });
    // the instants the writer's KV client gave up on an attempt
    let dump = sim.flight().trigger(sim.now().as_nanos(), "test").unwrap();
    let attempts_failed: Vec<u64> = dump
        .lines()
        .filter(|l| l.contains("\"retry_exhausted\"") && l.contains("\"node=0 "))
        .map(|l| {
            let t = l.split("\"t_ns\": ").nth(1).unwrap();
            t[..t.find(',').unwrap()].parse().unwrap()
        })
        .collect();
    assert!(!wait_ends.is_empty(), "no chunk waited for the window");
    for end in wait_ends {
        assert!(
            attempts_failed.contains(&end),
            "an ack wait ended at {end} ns, when no attempt failed"
        );
    }
}

#[test]
fn buffered_writeback_corruption_counts_lost_not_flushed() {
    // Regression: the flusher must verify the Lustre commit checksum
    // BEFORE counting a chunk flushed. With every commit corrupted, no
    // chunk may count as flushed and the file must surface as Lost.
    use simkit::{FaultEvent, FaultPlan};
    let r = rig(2, Scheme::AsyncLustre);
    let mut plan = FaultPlan::new(7);
    for oss in &r.dep.lustre.osses {
        plan = plan.at(
            std::time::Duration::ZERO,
            FaultEvent::CorruptCommit {
                node: oss.node().0,
                p: 1.0,
            },
        );
    }
    r.sim.install_faults(plan);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let sim = r.sim.clone();
    r.sim.block_on(async move {
        let w = client.create("/torn").await.unwrap();
        w.append(pattern(2 << 20)).await.unwrap();
        w.close().await.unwrap();
        let st = client.wait_flushed("/torn").await.unwrap();
        assert_eq!(st, FileState::Lost, "corrupt write-back must not flush");
        let stats = dep.manager.stats();
        assert_eq!(
            stats.chunks_flushed, 0,
            "no chunk may count flushed before its commit CRC verifies"
        );
        assert_eq!(stats.bytes_flushed, 0);
        assert!(stats.chunks_lost > 0);
        let m = sim.metrics().snapshot();
        assert!(m.counter("bb.integrity.checksum_fail") > 0);
        dep.shutdown();
    });
}

#[test]
fn direct_writeback_corruption_counts_lost_not_direct() {
    // Same contract on the degraded write-through path: a corrupt commit
    // retries, then counts lost — never `chunks_direct`.
    use simkit::{FaultEvent, FaultPlan};
    let r = rig(2, Scheme::AsyncLustre);
    let mut plan = FaultPlan::new(11);
    for oss in &r.dep.lustre.osses {
        plan = plan.at(
            std::time::Duration::ZERO,
            FaultEvent::CorruptCommit {
                node: oss.node().0,
                p: 1.0,
            },
        );
    }
    r.sim.install_faults(plan);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let fabric = Rc::clone(&r.fabric);
    let sim = r.sim.clone();
    r.sim.block_on(async move {
        for s in &dep.kv_servers {
            fabric.set_up(s.node(), false);
        }
        let w = client.create("/torn-direct").await.unwrap();
        w.append(pattern(1 << 20)).await.unwrap();
        w.close().await.unwrap();
        let st = client.wait_flushed("/torn-direct").await.unwrap();
        assert_eq!(st, FileState::Lost);
        let stats = dep.manager.stats();
        assert_eq!(stats.chunks_direct, 0, "corrupt commits must not count");
        assert!(stats.chunks_lost > 0);
        let m = sim.metrics().snapshot();
        assert!(m.counter("bb.integrity.checksum_fail") > 0);
        dep.shutdown();
    });
}

#[test]
fn classifier_routes_long_stream_to_writethrough() {
    // A long sequential writer crosses `bb_admit_stream_bytes` within
    // one window and is routed to Lustre write-through; the data stays
    // byte-identical and the file still reaches Flushed.
    let bcfg = BbConfig {
        bb_admit_stream_bytes: 2 << 20,
        ..BbConfig::default()
    };
    let r = rig_with(2, Scheme::AsyncLustre, LustreConfig::default(), bcfg);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let sim = r.sim.clone();
    let data = pattern(8 << 20);
    let expect = data.clone();
    r.sim.block_on(async move {
        let w = client.create("/stream").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        let st = client.wait_flushed("/stream").await.unwrap();
        assert_eq!(st, FileState::Flushed);
        let m = sim.metrics().snapshot();
        assert_eq!(m.counter("bb.admit.stream_detected"), 1);
        assert!(m.counter("bb.admit.writethrough_chunks") > 0);
        // chunks past the detection point bypassed the buffer entirely
        let stats = dep.manager.stats();
        assert!(stats.chunks_direct > 0);
        let rd = client.open("/stream").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), expect);
        dep.shutdown();
    });
}

#[test]
fn classifier_off_registers_no_admission_metrics() {
    // Defaults-off contract: with `bb_admit_stream_bytes = 0` (default)
    // and the default full_r ack mode, no `bb.admit.*` or `bb.ack.*`
    // metric may even be registered — the telemetry stream is
    // byte-identical to the seed.
    let r = rig(2, Scheme::AsyncLustre);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let sim = r.sim.clone();
    r.sim.block_on(async move {
        let w = client.create("/seed").await.unwrap();
        w.append(pattern(8 << 20)).await.unwrap();
        w.close().await.unwrap();
        let st = client.wait_flushed("/seed").await.unwrap();
        assert_eq!(st, FileState::Flushed);
        let m = sim.metrics().snapshot();
        for name in m.names() {
            assert!(
                !name.starts_with("bb.admit.") && !name.starts_with("bb.ack."),
                "defaults-off run registered {name}"
            );
        }
        dep.shutdown();
    });
}

#[test]
fn placement_engine_moves_hot_chunks_toward_remote_readers() {
    // Geo-stretched topology, geo size 8 (nodes_per_rack 2 × racks_per_zone
    // 2 × zones_per_geo 2). Everything deployed up front — writer, Lustre,
    // the seed KV server, the manager — sits in geo 0; a standby server and
    // the reader land in geo 1. Locality write placement keeps new chunks
    // next to the writer; the optimizer must then migrate them to the
    // geo-1 server once the remote reader's telemetry accumulates.
    let sim = Sim::new();
    let net = NetConfig {
        nodes_per_rack: 2,
        racks_per_zone: 2,
        zones_per_geo: 2,
        rack_latency: std::time::Duration::from_micros(5),
        zone_latency: std::time::Duration::from_micros(20),
        geo_latency: std::time::Duration::from_millis(2),
    };
    let fabric = Fabric::new(sim.clone(), 2, net);
    let lustre = LustreCluster::deploy(
        &fabric,
        LustreConfig {
            oss_count: 1,
            osts_per_oss: 1,
            ..LustreConfig::default()
        },
    );
    let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
    let dep = BbDeployment::deploy(
        &fabric,
        lustre,
        &nodes,
        BbConfig {
            kv_servers: 1,
            bb_place_policy: crate::PlacementPolicy::Locality,
            bb_place_interval: std::time::Duration::from_millis(50),
            ..BbConfig::default()
        },
    );
    assert!(dep.manager.node().0 < 8, "infra must fit in geo 0");
    while fabric.len() < 8 {
        fabric.add_node();
    }
    let standby = dep.standby_kv_server();
    assert_eq!(standby.node().0, 8, "standby must open geo 1");
    let reader_node = fabric.add_node(); // node 9, geo 1
    let data = pattern(2 << 20); // 4 chunks
    let expect = data.clone();
    let dep2 = Rc::clone(&dep);
    let sim2 = sim.clone();
    sim.block_on(async move {
        assert!(dep2.admit_kv_server(standby.node()));
        let wclient = dep2.client(NodeId(0));
        let w = wclient.create("/hot").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        // locality placement: every chunk routes to the geo-0 server
        for seq in 0..4u64 {
            assert_eq!(
                dep2.membership().route(&crate::manager::chunk_key(1, seq)),
                Some(0),
                "chunk {seq} should start on the writer-side server"
            );
        }
        wclient.wait_flushed("/hot").await.unwrap();
        // a hot remote reader in geo 1
        let rclient = dep2.client(reader_node);
        for _ in 0..4 {
            let rd = rclient.open("/hot").await.unwrap();
            assert_eq!(rd.read_all().await.unwrap(), expect);
            sim2.sleep(std::time::Duration::from_millis(100)).await;
        }
        sim2.sleep(std::time::Duration::from_secs(2)).await;
        // the optimizer moved every chunk to the reader-side server
        for seq in 0..4u64 {
            assert_eq!(
                dep2.membership().route(&crate::manager::chunk_key(1, seq)),
                Some(1),
                "chunk {seq} should have migrated toward the reader"
            );
        }
        assert_eq!(dep2.manager.place_backlog(), 0);
        let rd = rclient.open("/hot").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), expect);
        let m = sim2.metrics().snapshot();
        assert!(m.counter("bb.place.decisions") >= 4);
        assert!(m.counter("bb.place.migrations") >= 4);
        assert!(m.counter("bb.place.bytes") >= 2 << 20);
        assert!(m.counter("bb.place.cost_after") < m.counter("bb.place.cost_before"));
        assert_eq!(m.counter("bb.integrity.checksum_fail"), 0);
        assert_eq!(m.counter("bb.scrub.unrepairable"), 0);
        dep2.shutdown();
    });
}

#[test]
fn placement_off_registers_no_metrics_and_installs_no_overrides() {
    // Defaults-off contract: with the hash policy and a zero optimizer
    // interval, no `bb.place.*` name may even be registered and the
    // membership view carries no overrides.
    let r = rig(2, Scheme::AsyncLustre);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let sim = r.sim.clone();
    r.sim.block_on(async move {
        let w = client.create("/seed").await.unwrap();
        w.append(pattern(4 << 20)).await.unwrap();
        w.close().await.unwrap();
        let rd = client.open("/seed").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap().len(), 4 << 20);
        let m = sim.metrics().snapshot();
        for name in m.names() {
            assert!(
                !name.starts_with("bb.place."),
                "defaults-off run registered {name}"
            );
        }
        assert_eq!(dep.membership().overrides_len(), 0);
        dep.shutdown();
    });
}

/// Keys of file 1 (`f1:*`) still held anywhere on the roster.
fn f1_copies(dep: &BbDeployment) -> usize {
    let view = dep.membership();
    (0..view.roster_len())
        .map(|i| {
            let store = view.server(i);
            (0..64u64)
                .filter(|&s| store.store().contains(&crate::manager::chunk_key(1, s), 0))
                .count()
        })
        .sum()
}

#[test]
fn delete_after_locality_placement_reaps_the_placed_copies() {
    // Two KV servers straddling a rack boundary (rack size 4, servers on
    // nodes 3 and 4), writer on node 0: locality placement overrides every
    // chunk onto the rack-0 server, hash routing would split them. At
    // epoch 0 a key-routed delete only reaches the hash owners, so the
    // delete must go where the manager says the copies are.
    let sim = Sim::new();
    let net = NetConfig {
        nodes_per_rack: 4,
        rack_latency: std::time::Duration::from_micros(5),
        ..NetConfig::default()
    };
    let fabric = Fabric::new(sim.clone(), 1, net);
    let lustre = LustreCluster::deploy(
        &fabric,
        LustreConfig {
            oss_count: 1,
            osts_per_oss: 1,
            ..LustreConfig::default()
        },
    );
    let dep = BbDeployment::deploy(
        &fabric,
        lustre,
        &[NodeId(0)],
        BbConfig {
            kv_servers: 2,
            bb_place_policy: crate::PlacementPolicy::Locality,
            ..BbConfig::default()
        },
    );
    assert_eq!(dep.kv_servers[0].node(), NodeId(3), "rack 0");
    assert_eq!(dep.kv_servers[1].node(), NodeId(4), "rack 1");
    let dep2 = Rc::clone(&dep);
    sim.block_on(async move {
        let client = dep2.client(NodeId(0));
        let w = client.create("/placed").await.unwrap();
        w.append(pattern(8 << 20)).await.unwrap();
        w.close().await.unwrap();
        client.wait_flushed("/placed").await.unwrap();
        assert_eq!(
            dep2.kv_servers[0].store().len(),
            16,
            "all chunks rack-local"
        );
        client.delete("/placed").await.unwrap();
        assert_eq!(dep2.membership().epoch(), 0);
        assert_eq!(dep2.membership().overrides_len(), 0);
        assert_eq!(dep2.kv_servers[0].store().len(), 0, "placed copies leaked");
        assert_eq!(dep2.kv_servers[1].store().len(), 0);
        dep2.shutdown();
    });
}

#[test]
fn delete_during_an_inflight_move_leaves_no_override_or_copy() {
    // The `placement_engine_moves_hot_chunks_toward_remote_readers`
    // topology: one remote read makes the optimizer start moving `/hot`
    // across the 2 ms geo boundary; the file is deleted while a move holds
    // its lease. The mover must notice the record is gone at commit
    // instead of installing an override for (and leaving a copy of) a
    // chunk that no longer exists.
    let sim = Sim::new();
    let net = NetConfig {
        nodes_per_rack: 2,
        racks_per_zone: 2,
        zones_per_geo: 2,
        rack_latency: std::time::Duration::from_micros(5),
        zone_latency: std::time::Duration::from_micros(20),
        geo_latency: std::time::Duration::from_millis(2),
    };
    let fabric = Fabric::new(sim.clone(), 2, net);
    let lustre = LustreCluster::deploy(
        &fabric,
        LustreConfig {
            oss_count: 1,
            osts_per_oss: 1,
            ..LustreConfig::default()
        },
    );
    let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
    let dep = BbDeployment::deploy(
        &fabric,
        lustre,
        &nodes,
        BbConfig {
            kv_servers: 1,
            bb_place_policy: crate::PlacementPolicy::Locality,
            bb_place_interval: std::time::Duration::from_millis(50),
            ..BbConfig::default()
        },
    );
    while fabric.len() < 8 {
        fabric.add_node();
    }
    let standby = dep.standby_kv_server();
    let reader_node = fabric.add_node();
    let dep2 = Rc::clone(&dep);
    let sim2 = sim.clone();
    sim.block_on(async move {
        assert!(dep2.admit_kv_server(standby.node()));
        let wclient = dep2.client(NodeId(0));
        let w = wclient.create("/hot").await.unwrap();
        w.append(pattern(2 << 20)).await.unwrap();
        w.close().await.unwrap();
        wclient.wait_flushed("/hot").await.unwrap();
        // let the rebalancer settle the join first, so the next lease
        // taken is a placement move
        while dep2.manager.rebalance_epoch() != dep2.membership().epoch()
            || dep2.manager.rebalance_backlog() > 0
        {
            sim2.sleep(std::time::Duration::from_millis(10)).await;
        }
        let rclient = dep2.client(reader_node);
        let rd = rclient.open("/hot").await.unwrap();
        rd.read_all().await.unwrap();
        let deadline = sim2.now() + std::time::Duration::from_secs(2);
        // mid-copy: a lease is held and the fresh copy has landed on the
        // geo-1 server, but its read-back (one more geo round trip) has not
        // returned, so the move has not committed
        let landed = |s: u64| {
            standby
                .store()
                .contains(&crate::manager::chunk_key(1, s), 0)
        };
        while dep2.manager.rebalance_backlog() == 0 || !(0..4).any(landed) {
            assert!(sim2.now() < deadline, "no move ever started");
            sim2.sleep(std::time::Duration::from_micros(100)).await;
        }
        wclient.delete("/hot").await.unwrap();
        sim2.sleep(std::time::Duration::from_secs(2)).await;
        assert_eq!(dep2.membership().overrides_len(), 0, "override leaked");
        assert_eq!(f1_copies(&dep2), 0, "a deleted chunk's copy survived");
        assert_eq!(dep2.manager.rebalance_backlog(), 0);
        dep2.shutdown();
    });
}

// --- one lookup order: joins under a backed-up flusher -----------------

/// Single replica, two servers on the ring, two standbys and one OST of
/// `ost_rate`: a join remaps chunks the narrow flusher has not reached
/// yet, so until the rebalancer gets to them their only copy sits, pinned,
/// on a server that is no longer their owner.
fn join_rig(ost_rate: f64, bcfg: BbConfig) -> (Rig, [NodeId; 2]) {
    let lcfg = LustreConfig {
        oss_count: 1,
        osts_per_oss: 1,
        stripe_count: 1,
        ost_rate,
        ..LustreConfig::default()
    };
    let bcfg = BbConfig {
        kv_servers: 2,
        kv_replication: 1,
        ..bcfg
    };
    let r = rig_with(2, Scheme::AsyncLustre, lcfg, bcfg);
    let standbys = [0; 2].map(|_| r.dep.standby_kv_server().node());
    (r, standbys)
}

#[test]
fn join_under_a_backed_up_flusher_loses_nothing() {
    let (r, standbys) = join_rig(32e6, BbConfig::default());
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let data = pattern(48 << 20);
    r.sim.block_on(async move {
        let w = client.create("/join").await.unwrap();
        let mut joins = standbys.iter();
        for i in 0..48usize {
            w.append(data.slice(i << 20..(i + 1) << 20)).await.unwrap();
            if i + 1 == 17 || i + 1 == 33 {
                assert!(dep.admit_kv_server(*joins.next().unwrap()));
            }
        }
        w.close().await.unwrap();
        let st = client.wait_flushed("/join").await.unwrap();
        assert_eq!(dep.manager.stats().chunks_lost, 0, "acked chunks given up");
        assert_eq!(st, FileState::Flushed);
        let rd = client.open("/join").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), data);
        dep.shutdown();
    });
}

/// 8 MiB written and closed behind a 1 MB/s OST with the rebalancer off,
/// then two joins: nothing migrates, so every remapped chunk has to be
/// found through the lookup order alone. `then` runs on the joined rig.
fn joined_with_the_rebalancer_off<F>(
    read_window: usize,
    then: impl FnOnce(Rc<BbClient>, Bytes) -> F,
) where
    F: std::future::Future<Output = ()> + 'static,
{
    let bcfg = BbConfig {
        rebalance_interval: std::time::Duration::ZERO,
        read_window,
        ..BbConfig::default()
    };
    let (r, standbys) = join_rig(1e6, bcfg);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let data = pattern(8 << 20);
    let then = then(Rc::clone(&client), data.clone());
    r.sim.block_on(async move {
        let w = client.create("/nomove").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        for node in standbys {
            assert!(dep.admit_kv_server(node));
        }
        then.await;
        dep.shutdown();
    });
}

#[test]
fn flusher_finds_unmigrated_chunks_with_the_rebalancer_off() {
    joined_with_the_rebalancer_off(BbConfig::default().read_window, |client, _| async move {
        let st = client.wait_flushed("/nomove").await.unwrap();
        let lost = client.deployment().manager.stats().chunks_lost;
        assert_eq!(lost, 0, "acked chunks given up");
        assert_eq!(st, FileState::Flushed);
    });
}

#[test]
fn serial_read_after_a_join_finds_unmigrated_chunks() {
    joined_with_the_rebalancer_off(1, |client, data| async move {
        // the file is seconds from flushed: the buffer is the only tier
        let rd = client.open("/nomove").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), data);
    });
}

#[test]
fn unreachable_replicas_make_a_miss_indeterminate_after_a_join() {
    // The definitive-miss rule: once membership has changed, servers
    // outside a key's replica set are asked too, but only a *replica's*
    // "no copy" is a verdict — the others may never have owned the key,
    // so with every replica down their misses must read as an outage (the
    // flusher retries), never as loss.
    let (r, standbys) = join_rig(32e6, BbConfig::default());
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let fabric = Rc::clone(&r.fabric);
    r.sim.block_on(async move {
        assert!(dep.admit_kv_server(standbys[0]));
        let (kv, key) = (client.kv(), b"nobody-has-this".as_slice());
        let owner = dep.membership().server(kv.route(key).unwrap()).node();
        let lookup = || crate::integrity::get_verified(kv, dep.integrity_counters(), key, None);
        fabric.set_up(owner, false);
        let census = lookup().await.unwrap_err();
        assert_eq!((census.errors, census.misses.len()), (1, 2));
        assert!(!census.definitive, "an outage read as a verdict");
        fabric.set_up(owner, true);
        assert!(lookup().await.unwrap_err().definitive);
        dep.shutdown();
    });
}

#[test]
fn readme_config_table_lists_every_bb_config_field() {
    let readme = include_str!("../../../README.md");
    let table = readme
        .split("## Key configuration (`BbConfig`)")
        .nth(1)
        .expect("README has the BbConfig section");
    let documented: Vec<&str> = table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
        .collect();
    // pretty `Debug` puts each top-level field on a line of its own at
    // one level of indent
    let debug = format!("{:#?}", BbConfig::default());
    let fields: Vec<&str> = debug
        .lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| !l.starts_with(' '))
        .filter_map(|l| Some(l.split_once(':')?.0))
        .collect();
    assert_eq!(
        documented, fields,
        "README's BbConfig table and the struct disagree"
    );
}
