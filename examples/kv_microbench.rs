//! Use the RDMA-Memcached substrate (`rkv`) directly, without the burst
//! buffer on top: stand up servers, and compare the hybrid one-sided
//! protocol across transports — the paper's motivating microbenchmark.
//!
//! ```text
//! cargo run --release --example kv_microbench
//! ```

use std::rc::Rc;

use rdma_bb::prelude::*;
use rdma_bb::rdmasim::RdmaStack;
use rdma_bb::rkv::server::KvServerConfig;
use rdma_bb::rkv::{KvClient, KvClientConfig, KvServer};

fn run(profile: TransportProfile) -> (f64, f64) {
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), 2, NetConfig::default());
    let stack = RdmaStack::with_profile(fabric, profile);
    let server = KvServer::new(Rc::clone(&stack), NodeId(0), KvServerConfig::default());
    let client = KvClient::new(
        Rc::clone(&stack),
        NodeId(1),
        vec![server],
        KvClientConfig::default(),
    );
    let s = sim.clone();
    let out = sim.block_on(async move {
        // small-value latency
        client
            .set(b"k", Bytes::from(vec![7u8; 4096]), 0, 0)
            .await
            .unwrap();
        let t0 = s.now();
        for _ in 0..100 {
            client.get(b"k").await.unwrap().unwrap();
        }
        let get_us = (s.now() - t0).as_secs_f64() * 1e6 / 100.0;
        // large-value bandwidth (one-sided path)
        let big = Bytes::from(vec![9u8; 512 << 10]);
        let t1 = s.now();
        for i in 0..50 {
            client
                .set(format!("big{i}").as_bytes(), big.clone(), 0, 0)
                .await
                .unwrap();
        }
        let set_mbps = 50.0 * 0.5 * 1.048_576 / (s.now() - t1).as_secs_f64();
        (get_us, set_mbps)
    });
    sim.reset();
    out
}

fn main() {
    println!("RDMA-Memcached microbenchmark (1 server, 1 client)\n");
    println!(
        "{:<12} {:>14} {:>16}",
        "transport", "get 4KiB (µs)", "set 512KiB MB/s"
    );
    for profile in [
        TransportProfile::verbs_qdr(),
        TransportProfile::ipoib_qdr(),
        TransportProfile::ten_gige(),
        TransportProfile::one_gige(),
    ] {
        let (get_us, set_mbps) = run(profile);
        println!("{:<12} {:>14.1} {:>16.0}", profile.name, get_us, set_mbps);
    }
    println!("\n(the verbs row is why the paper builds its burst buffer on RDMA)");
}
