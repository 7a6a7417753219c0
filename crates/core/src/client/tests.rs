//! Replica sets through the burst-buffer client: where a chunk's copies
//! go ([`integrity::replicas`]), and that a read finds one through a
//! crash, a join or a drain ([`integrity::read_order`]).

use std::rc::Rc;
use std::time::Duration;

use lustre::LustreConfig;
use netsim::NodeId;

use crate::integrity;
use crate::manager::chunk_key;
use crate::tests::{joined_with_the_rebalancer_off, pattern, rig_with, Rig};
use crate::{BbConfig, BbDeployment, Scheme};

fn rig(scheme: Scheme, kv_servers: usize, kv_replication: usize) -> Rig {
    let bcfg = BbConfig {
        kv_servers,
        kv_replication,
        // nothing migrates: every copy stays where the write put it
        rebalance_interval: Duration::ZERO,
        ..BbConfig::default()
    };
    rig_with(2, scheme, LustreConfig::default(), bcfg)
}

/// Live items summed over the deployment's seed servers.
fn items(dep: &BbDeployment) -> u64 {
    dep.kv_servers.iter().map(|s| s.store().stats().items).sum()
}

/// Whether server `idx` holds a copy of `key`.
fn holds(dep: &BbDeployment, idx: usize, key: &[u8]) -> bool {
    let server = dep.membership().server(idx);
    server.store().peek(key, 0).is_some()
}

fn failovers(r: &Rig) -> u64 {
    r.sim.metrics().snapshot().counter("bb.integrity.failovers")
}

#[test]
fn replicas_are_distinct_and_lead_with_primary() {
    let r = rig(Scheme::AsyncLustre, 4, 3);
    let view = r.dep.membership();
    for i in 0..100 {
        let k = format!("key-{i}");
        let reps = integrity::replicas(view, k.as_bytes(), 3);
        assert_eq!(reps.len(), 3);
        assert_eq!(Some(reps[0]), view.route(k.as_bytes()));
        let mut uniq = reps.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 3, "replicas must land on distinct servers");
    }
}

/// Both write paths put every chunk on each server of its replica set:
/// the quorum write (BB-Async at full r) and the write-through scheme's
/// buffer copy (BB-Sync).
#[test]
fn replicated_set_lands_on_all_replicas() {
    for scheme in [Scheme::AsyncLustre, Scheme::SyncLustre] {
        let r = rig(scheme, 3, 2);
        let client = r.dep.client(NodeId(0));
        let dep = Rc::clone(&r.dep);
        r.sim.block_on(async move {
            let w = client.create("/r2").await.unwrap();
            w.append(pattern(2 << 20)).await.unwrap(); // 4 chunks
            w.close().await.unwrap();
            for seq in 0..4 {
                let key = chunk_key(1, seq);
                for idx in integrity::replicas(dep.membership(), &key, 2) {
                    assert!(holds(&dep, idx, &key), "{scheme:?}: chunk {seq} on {idx}");
                }
            }
            assert_eq!(items(&dep), 8, "{scheme:?}: every chunk stored twice");
            dep.shutdown();
        });
    }
}

#[test]
fn reads_survive_single_server_crash_with_r2() {
    let r = rig(Scheme::AsyncLustre, 3, 2);
    let client = r.dep.client(NodeId(0));
    let (dep, fabric) = (Rc::clone(&r.dep), Rc::clone(&r.fabric));
    let data = pattern(4 << 20); // 8 chunks
    r.sim.block_on(async move {
        let w = client.create("/crash").await.unwrap();
        w.append(data.clone()).await.unwrap();
        w.close().await.unwrap();
        // crash server 0: port down AND volatile contents lost
        let victim = &dep.kv_servers[0];
        fabric.set_up(victim.node(), false);
        victim.store().clear();
        let rd = client.open("/crash").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), data);
        // bring it back empty (restart): reads must still find every
        // chunk on its surviving replica rather than trust the restarted
        // server's miss
        fabric.set_up(victim.node(), true);
        let rd = client.open("/crash").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), data);
        dep.shutdown();
    });
    let stats = r.dep.read_stats();
    assert_eq!((stats.tier_buffer, stats.tier_lustre), (16, 0));
    assert!(failovers(&r) > 0, "some reads must have failed over");
}

#[test]
fn replication_cap_follows_live_membership() {
    // r = 2 asked for with only one active server: the replica set caps
    // at 1, and grows (not stays frozen) when a server joins
    let r = rig(Scheme::AsyncLustre, 1, 2);
    let standby = r.dep.standby_kv_server();
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    r.sim.block_on(async move {
        let view = dep.membership();
        assert_eq!(integrity::replicas(view, b"k", 2).len(), 1);
        let w = client.create("/before").await.unwrap();
        w.append(pattern(1 << 20)).await.unwrap(); // 2 chunks, 1 copy each
        w.close().await.unwrap();
        assert!(dep.admit_kv_server(standby.node()));
        assert_eq!(integrity::replicas(view, b"k", 2).len(), 2);
        let w = client.create("/after").await.unwrap();
        w.append(pattern(1 << 20)).await.unwrap();
        w.close().await.unwrap();
        for seq in 0..2 {
            let key = chunk_key(2, seq);
            assert!(holds(&dep, 0, &key) && holds(&dep, 1, &key), "chunk {seq}");
        }
        assert_eq!(items(&dep) + standby.store().stats().items, 2 + 4);
        dep.shutdown();
    });
}

#[test]
fn reads_after_join_fall_back_to_old_owners() {
    joined_with_the_rebalancer_off(8, |client, data| async move {
        // un-migrated chunks now route to the joiners (empty), but the
        // verified walk widens to the old owners; the file is seconds
        // from flushed, so the buffer is the only tier
        let rd = client.open("/nomove").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), data);
        let dep = client.deployment();
        assert_eq!(dep.read_stats().tier_lustre, 0);
        let m = dep.stack.sim().metrics().snapshot();
        assert!(
            m.counter("bb.integrity.failovers") > 0,
            "some chunks must have remapped to a joiner"
        );
    });
}

#[test]
fn drained_server_gets_no_new_writes_but_old_data_stays_readable() {
    let r = rig(Scheme::AsyncLustre, 3, 1);
    let client = r.dep.client(NodeId(0));
    let dep = Rc::clone(&r.dep);
    let (old, new) = (pattern(4 << 20), pattern(3 << 20));
    r.sim.block_on(async move {
        let w = client.create("/old").await.unwrap();
        w.append(old.clone()).await.unwrap();
        w.close().await.unwrap();
        let drained = dep
            .kv_servers
            .iter()
            .find(|s| s.store().stats().items > 0)
            .expect("some server holds part of /old");
        assert!(dep.drain_kv_server(drained.node()));
        let before = drained.store().stats().items;
        let w = client.create("/new").await.unwrap();
        w.append(new.clone()).await.unwrap();
        w.close().await.unwrap();
        assert_eq!(
            drained.store().stats().items,
            before,
            "no new writes may land on a drained server"
        );
        for (path, data) in [("/old", old), ("/new", new)] {
            let rd = client.open(path).await.unwrap();
            assert_eq!(rd.read_all().await.unwrap(), data, "{path}");
        }
        assert_eq!(
            dep.read_stats().tier_lustre,
            0,
            "every chunk from the buffer"
        );
        dep.shutdown();
    });
}

/// BB-Sync at r = 1 with one server crashed after close: a whole-file
/// read serves every chunk whose primary is alive from the buffer, and
/// only the dead server's chunks from Lustre — a failed batched-GET leg
/// costs its own keys, not its group's.
#[test]
fn sync_read_after_a_crash_serves_live_primaries_from_the_buffer() {
    let r = rig(Scheme::SyncLustre, 4, 1);
    let client = r.dep.client(NodeId(0));
    let (dep, fabric) = (Rc::clone(&r.dep), Rc::clone(&r.fabric));
    let data = pattern(4 << 20); // 8 chunks, one read group
    r.sim.block_on(async move {
        let w = client.create("/sync").await.unwrap();
        w.append(data.clone()).await.unwrap();
        w.close().await.unwrap();
        let owners: Vec<usize> = (0..8)
            .map(|seq| client.kv().route(&chunk_key(1, seq)).unwrap())
            .collect();
        let victim = owners[0];
        let lost = owners.iter().filter(|&&o| o == victim).count() as u64;
        assert!(lost < 8, "the victim owns every chunk");
        let server = &dep.kv_servers[victim];
        fabric.set_up(server.node(), false);
        server.store().clear();
        let rd = client.open("/sync").await.unwrap();
        assert_eq!(rd.read_all().await.unwrap(), data);
        let stats = dep.read_stats();
        assert_eq!((stats.tier_buffer, stats.tier_lustre), (8 - lost, lost));
        dep.shutdown();
    });
}
