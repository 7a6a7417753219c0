//! Property-based tests of replica placement through the burst buffer:
//! the replica set [`bb_core::integrity::replicas`] decides is where the
//! copies land, and any single crash leaves every chunk readable from a
//! surviving replica.

use std::rc::Rc;

use bytes::Bytes;
use proptest::prelude::*;

use bb_core::integrity::replicas;
use bb_core::manager::chunk_key;
use bb_core::{BbConfig, BbDeployment};
use lustre::{LustreCluster, LustreConfig};
use netsim::{Fabric, NetConfig, NodeId};
use simkit::Sim;

/// Chunk size of the deployments below: small, so a case writes little.
const CHUNK: u64 = 64 << 10;

/// Four KV servers at replication `r`, one compute node, BB-Async.
fn deploy(r: usize) -> (Sim, Rc<Fabric>, Rc<BbDeployment>) {
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), 1, NetConfig::default());
    let lustre = LustreCluster::deploy(&fabric, LustreConfig::default());
    let config = BbConfig {
        chunk_size: CHUNK,
        kv_replication: r,
        ..BbConfig::default()
    };
    let dep = BbDeployment::deploy(&fabric, lustre, &[NodeId(0)], config);
    (sim, fabric, dep)
}

fn file(chunks: u64) -> Bytes {
    let len = (chunks * CHUNK) as usize;
    Bytes::from((0..len).map(|i| (i * 131 % 251) as u8).collect::<Vec<u8>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary key sets and r ∈ {1,2,3}, a key's replica set is `r`
    /// distinct servers led by the ring's primary, and a written file
    /// stores exactly `r` copies of every chunk, on those servers.
    #[test]
    fn replica_placement_invariants(
        r in 1usize..=3,
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..24), 1..24),
        chunks in 1u64..8,
    ) {
        let (sim, _fabric, dep) = deploy(r);
        let view = dep.membership();
        for k in &keys {
            let reps = replicas(view, k, r);
            prop_assert_eq!(reps.len(), r);
            prop_assert_eq!(Some(reps[0]), view.route(k));
            let mut d = reps.clone();
            d.sort_unstable();
            d.dedup();
            prop_assert_eq!(d.len(), r, "replicas must be distinct servers");
        }
        let client = dep.client(NodeId(0));
        let d = Rc::clone(&dep);
        sim.block_on(async move {
            let w = client.create("/p").await.unwrap();
            w.append(file(chunks)).await.unwrap();
            w.close().await.unwrap();
            d.shutdown();
        });
        for seq in 0..chunks {
            let key = chunk_key(1, seq);
            for idx in replicas(view, &key, r) {
                prop_assert!(dep.kv_servers[idx].store().peek(&key, 0).is_some());
            }
        }
        let copies: u64 = dep.kv_servers.iter().map(|s| s.store().stats().items).sum();
        prop_assert_eq!(copies, chunks * r as u64);
        sim.reset();
    }

    /// Read-after-crash: with r ≥ 2, crashing (wiping + downing) any
    /// single server still leaves every chunk readable, byte-identical,
    /// from the buffer tier — through a failover whenever the victim was
    /// some chunk's primary.
    #[test]
    fn read_after_single_crash_returns_everything(
        r in 2usize..=3,
        victim in 0usize..4,
        chunks in 1u64..12,
    ) {
        let (sim, fabric, dep) = deploy(r);
        let client = dep.client(NodeId(0));
        let d = Rc::clone(&dep);
        let data = file(chunks);
        let read = sim.block_on(async move {
            let w = client.create("/p").await.unwrap();
            w.append(data.clone()).await.unwrap();
            w.close().await.unwrap();
            // crash the victim: volatile contents lost, ports down
            let server = &d.kv_servers[victim];
            server.store().clear();
            fabric.set_up(server.node(), false);
            let rd = client.open("/p").await.unwrap();
            let read = rd.read_all().await.map(|b| b == data);
            d.shutdown();
            read
        });
        prop_assert_eq!(read, Ok(true));
        let stats = dep.read_stats();
        prop_assert_eq!((stats.tier_buffer, stats.tier_lustre), (chunks, 0));
        let primary = (0..chunks).any(|seq| dep.membership().route(&chunk_key(1, seq)) == Some(victim));
        let failovers = sim.metrics().snapshot().counter("bb.integrity.failovers");
        prop_assert_eq!(failovers > 0, primary, "{} failovers", failovers);
        sim.reset();
    }
}
