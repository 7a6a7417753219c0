//! Crate-level behavioural tests: write/read paths, replication,
//! locality, failure handling, and re-replication.

use std::rc::Rc;

use bytes::Bytes;
use netsim::{Fabric, NetConfig, NodeId};
use simkit::{dur, Sim};

use crate::{HdfsCluster, HdfsConfig};

fn cluster(nodes: usize, config: HdfsConfig) -> (Sim, Rc<Fabric>, Rc<HdfsCluster>) {
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), nodes, NetConfig::default());
    let dns: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
    let hdfs = HdfsCluster::deploy(&fabric, &dns, config);
    (sim, fabric, hdfs)
}

fn small_block_config() -> HdfsConfig {
    HdfsConfig {
        block_size: 4 << 20,
        packet_size: 256 << 10,
        ..HdfsConfig::default()
    }
}

fn pattern(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i * 31 % 253) as u8).collect::<Vec<u8>>())
}

#[test]
fn write_read_roundtrip_multi_block() {
    let (sim, _f, hdfs) = cluster(4, small_block_config());
    let client = hdfs.client(NodeId(0));
    let data = pattern(10 << 20); // 2.5 blocks
    let expect = data.clone();
    let h = Rc::clone(&hdfs);
    sim.block_on(async move {
        let w = client.create("/data/f1").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        let r = client.open("/data/f1").await.unwrap();
        assert_eq!(r.size(), 10 << 20);
        assert_eq!(r.info().blocks.len(), 3); // 4+4+2 MiB
        let back = r.read_all().await.unwrap();
        assert_eq!(back, expect);
        h.shutdown();
    });
}

#[test]
fn blocks_are_triple_replicated() {
    let (sim, _f, hdfs) = cluster(5, small_block_config());
    let client = hdfs.client(NodeId(1));
    let h = Rc::clone(&hdfs);
    sim.block_on(async move {
        let w = client.create("/r3").await.unwrap();
        w.append(pattern(4 << 20)).await.unwrap();
        w.close().await.unwrap();
        let r = client.open("/r3").await.unwrap();
        for b in &r.info().blocks {
            assert_eq!(b.replicas.len(), 3, "block {:?}", b.id);
        }
        // the writer-local node holds a replica (pipeline stage 1); note
        // replica order reflects commit-ack order (tail first), not
        // pipeline order
        assert!(r.info().blocks[0].replicas.contains(&NodeId(1)));
        h.shutdown();
    });
    // local storage: 3 replicas of 4 MiB
    assert_eq!(hdfs.local_storage_used(), 3 * (4 << 20));
}

#[test]
fn replication_one_uses_single_replica() {
    let (sim, _f, hdfs) = cluster(4, small_block_config());
    let client = hdfs.client(NodeId(0));
    let h = Rc::clone(&hdfs);
    sim.block_on(async move {
        let w = client.create_with_replication("/r1", 1).await.unwrap();
        w.append(pattern(4 << 20)).await.unwrap();
        w.close().await.unwrap();
        let r = client.open("/r1").await.unwrap();
        assert_eq!(r.info().blocks[0].replicas.len(), 1);
        h.shutdown();
    });
    assert_eq!(hdfs.local_storage_used(), 4 << 20);
}

#[test]
fn partial_tail_block_roundtrips() {
    let (sim, _f, hdfs) = cluster(3, small_block_config());
    let client = hdfs.client(NodeId(2));
    let n = (4 << 20) + 12345;
    let data = pattern(n);
    let expect = data.clone();
    let h = Rc::clone(&hdfs);
    sim.block_on(async move {
        let w = client.create("/tail").await.unwrap();
        // dribble in odd-sized appends
        let mut rest = data;
        while !rest.is_empty() {
            let take = rest.len().min(700_001);
            w.append(rest.split_to(take)).await.unwrap();
        }
        w.close().await.unwrap();
        let r = client.open("/tail").await.unwrap();
        assert_eq!(r.size(), n as u64);
        assert_eq!(r.read_all().await.unwrap(), expect);
        h.shutdown();
    });
}

#[test]
fn read_at_random_offsets() {
    let (sim, _f, hdfs) = cluster(3, small_block_config());
    let client = hdfs.client(NodeId(0));
    let data = pattern(9 << 20);
    let expect = data.clone();
    let h = Rc::clone(&hdfs);
    sim.block_on(async move {
        let w = client.create("/ra").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        let r = client.open("/ra").await.unwrap();
        // crossing a block boundary
        let off = (4 << 20) - 1000;
        let got = r.read_at(off, 2000).await.unwrap();
        assert_eq!(&got[..], &expect[off as usize..off as usize + 2000]);
        h.shutdown();
    });
}

#[test]
fn local_read_beats_remote_read() {
    let (sim, _f, hdfs) = cluster(6, small_block_config());
    let writer_client = hdfs.client(NodeId(0));
    let h = Rc::clone(&hdfs);
    let s = sim.clone();
    sim.block_on(async move {
        let w = writer_client.create("/loc").await.unwrap();
        w.append(pattern(4 << 20)).await.unwrap();
        w.close().await.unwrap();
        // local reader (writer-local replica on node 0)
        let t0 = s.now();
        let r = writer_client.open("/loc").await.unwrap();
        r.read_all().await.unwrap();
        let local = s.now() - t0;
        // remote reader on a node with no replica
        let replicas = r.info().blocks[0].replicas.clone();
        let far = (0..6u32)
            .map(NodeId)
            .find(|n| !replicas.contains(n))
            .expect("some node has no replica");
        let remote_client = h.client(far);
        let t1 = s.now();
        let r2 = remote_client.open("/loc").await.unwrap();
        r2.read_all().await.unwrap();
        let remote = s.now() - t1;
        assert!(
            local < remote,
            "local read {local:?} should beat remote {remote:?}"
        );
        h.shutdown();
    });
}

#[test]
fn delete_invalidates_replicas_via_heartbeat() {
    let (sim, _f, hdfs) = cluster(3, small_block_config());
    let client = hdfs.client(NodeId(0));
    let h = Rc::clone(&hdfs);
    let s = sim.clone();
    sim.block_on(async move {
        let w = client.create("/gone").await.unwrap();
        w.append(pattern(4 << 20)).await.unwrap();
        w.close().await.unwrap();
        assert_eq!(h.local_storage_used(), 3 * (4 << 20));
        client.delete("/gone").await.unwrap();
        assert!(!client.exists("/gone").await.unwrap());
        // wait a couple of heartbeats for invalidation commands
        s.sleep(dur::secs(8)).await;
        assert_eq!(h.local_storage_used(), 0);
        h.shutdown();
    });
}

#[test]
fn writer_survives_pipeline_node_death() {
    let (sim, _f, hdfs) = cluster(6, small_block_config());
    let client = hdfs.client(NodeId(0));
    let h = Rc::clone(&hdfs);
    let data = pattern(8 << 20);
    let expect = data.clone();
    sim.block_on(async move {
        // kill a non-writer node before writing: the NameNode still lists
        // it (no missed heartbeat yet), so early pipelines may include it
        // and the writer must recover by re-placing the block.
        h.dn_on(NodeId(3)).unwrap().kill();
        let w = client.create("/survive").await.unwrap();
        w.append(data).await.unwrap();
        w.close().await.unwrap();
        let r = client.open("/survive").await.unwrap();
        assert_eq!(r.read_all().await.unwrap(), expect);
        for b in &r.info().blocks {
            assert!(!b.replicas.contains(&NodeId(3)), "dead node in pipeline");
            assert_eq!(b.replicas.len(), 3);
        }
        h.shutdown();
    });
}

#[test]
fn dead_datanode_triggers_rereplication() {
    let (sim, _f, hdfs) = cluster(6, small_block_config());
    let client = hdfs.client(NodeId(0));
    let h = Rc::clone(&hdfs);
    let s = sim.clone();
    sim.block_on(async move {
        let w = client.create("/rerep").await.unwrap();
        w.append(pattern(4 << 20)).await.unwrap();
        w.close().await.unwrap();
        let r = client.open("/rerep").await.unwrap();
        let victim = r.info().blocks[0].replicas[0];
        h.dn_on(victim).unwrap().kill();
        // wait past `DEAD_AFTER` (10s) plus heartbeat rounds for recovery
        s.sleep(dur::secs(30)).await;
        let r2 = client.open("/rerep").await.unwrap();
        let replicas = &r2.info().blocks[0].replicas;
        let live: Vec<_> = replicas.iter().filter(|n| **n != victim).collect();
        assert!(
            live.len() >= 3,
            "block not re-replicated: live replicas {live:?}"
        );
        assert_eq!(h.nn.stats().dead_dns, 1);
        assert!(h.nn.stats().replications_issued >= 1);
        // data still fully readable
        assert_eq!(r2.read_all().await.unwrap().len(), 4 << 20);
        h.shutdown();
    });
}

#[test]
fn replicas_span_racks_when_possible() {
    // 8 nodes in racks of 4: the default policy puts the 2nd replica off
    // the writer's rack and the 3rd on the 2nd's rack
    let sim = Sim::new();
    let fabric = Fabric::new(
        sim.clone(),
        8,
        netsim::NetConfig {
            nodes_per_rack: 4,
            ..netsim::NetConfig::default()
        },
    );
    let dns: Vec<NodeId> = (0..8u32).map(NodeId).collect();
    let hdfs = HdfsCluster::deploy(&fabric, &dns, small_block_config());
    let client = hdfs.client(NodeId(0));
    let h = Rc::clone(&hdfs);
    let f = Rc::clone(&fabric);
    sim.block_on(async move {
        for i in 0..6 {
            let w = client.create(&format!("/racks/f{i}")).await.unwrap();
            w.append(pattern(4 << 20)).await.unwrap();
            w.close().await.unwrap();
            let r = client.open(&format!("/racks/f{i}")).await.unwrap();
            for b in &r.info().blocks {
                let racks: std::collections::HashSet<_> =
                    b.replicas.iter().map(|n| f.rack_of(*n)).collect();
                assert!(
                    racks.len() >= 2,
                    "replicas of {:?} all on one rack: {:?}",
                    b.id,
                    b.replicas
                );
            }
        }
        h.shutdown();
    });
}

#[test]
fn concurrent_writers_to_distinct_files_all_complete() {
    let (sim, _f, hdfs) = cluster(6, small_block_config());
    let h = Rc::clone(&hdfs);
    let s = sim.clone();
    sim.block_on(async move {
        let mut handles = Vec::new();
        for n in 0..6u32 {
            let client = h.client(NodeId(n));
            handles.push(s.spawn(async move {
                let w = client.create(&format!("/par/f{n}")).await.unwrap();
                w.append(pattern(6 << 20)).await.unwrap();
                w.close().await.unwrap();
                let r = client.open(&format!("/par/f{n}")).await.unwrap();
                r.read_all().await.unwrap().len()
            }));
        }
        for hh in handles {
            assert_eq!(hh.await, 6 << 20);
        }
        assert_eq!(h.nn.stats().files, 6);
        // stop heartbeats so the simulation can quiesce
        h.shutdown();
    });
}

#[test]
fn list_and_exists() {
    let (sim, _f, hdfs) = cluster(3, small_block_config());
    let client = hdfs.client(NodeId(0));
    let h = Rc::clone(&hdfs);
    sim.block_on(async move {
        for p in ["/a/x", "/a/y", "/b/z"] {
            let w = client.create(p).await.unwrap();
            w.close().await.unwrap();
        }
        assert_eq!(client.list("/a/").await.unwrap().len(), 2);
        assert!(client.exists("/b/z").await.unwrap());
        assert!(!client.exists("/b/none").await.unwrap());
        h.shutdown();
    });
}

#[test]
fn triple_replication_slows_concurrent_writers() {
    // A single pipelined write hides replication cost; with every node
    // writing at once, 3× disk traffic per node dominates — the effect
    // that makes cluster-wide HDFS writes slow (TestDFSIO write, E3).
    fn run(replication: usize) -> f64 {
        let (sim, _f, hdfs) = cluster(6, small_block_config());
        let s = sim.clone();
        let h = Rc::clone(&hdfs);
        sim.block_on(async move {
            let mut handles = Vec::new();
            for n in 0..6u32 {
                let client = h.client(NodeId(n));
                handles.push(s.spawn(async move {
                    let w = client
                        .create_with_replication(&format!("/speed{n}"), replication)
                        .await
                        .unwrap();
                    w.append(pattern(16 << 20)).await.unwrap();
                    w.close().await.unwrap();
                }));
            }
            let t0 = s.now();
            for hh in handles {
                hh.await;
            }
            let dt = (s.now() - t0).as_secs_f64();
            h.shutdown();
            dt
        })
    }
    let one = run(1);
    let three = run(3);
    assert!(
        three > one * 1.8,
        "replication cost invisible under load: r1 {one:.3}s vs r3 {three:.3}s"
    );
}
