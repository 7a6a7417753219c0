//! Fault-tolerance walkthrough (the paper's scheme trade-off, E12):
//! the same buffer-node crash under the async scheme (data in the fault
//! window is lost) and the sync scheme (every byte already in Lustre),
//! plus the degraded write path when the buffer is down from the start.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```

use rdma_bb::prelude::*;

fn scenario(scheme: Scheme, slow_lustre: bool) {
    let mut cfg = TestbedConfig {
        compute_nodes: 4,
        ..TestbedConfig::default()
    };
    if slow_lustre {
        // a congested backing store keeps the flush queue deep
        cfg.lustre.ost_rate = 10e6;
    }
    let tb = Testbed::build(SystemKind::Bb(scheme), cfg);
    let pool = PayloadPool::standard();
    tb.block_on(|tb| async move {
        let bb = tb.bb.as_ref().unwrap();
        let client = bb.client(tb.nodes[0]);
        println!(
            "--- {} (lustre {}) ---",
            scheme.label(),
            if slow_lustre { "slow" } else { "normal" }
        );

        let w = client.create("/victim").await.expect("create");
        for piece in pool.stream(7, 64 << 20, 1 << 20) {
            w.append(piece).await.expect("append");
        }
        w.close().await.expect("close");
        println!(
            "wrote 64 MiB; unflushed at close: {} MiB",
            bb.manager.unflushed_bytes() >> 20
        );

        // crash every KV server right after close
        for s in &bb.kv_servers {
            tb.fabric.set_up(s.node(), false);
        }
        println!("crashed all {} KV servers", bb.kv_servers.len());

        let state = client.wait_flushed("/victim").await.expect("wait");
        println!("durability state: {state:?}");
        let reader = client.open("/victim").await.expect("open");
        match reader.read_all().await {
            Ok(data) => println!("read back {} MiB from surviving tiers ✓", data.len() >> 20),
            Err(e) => println!("read failed as expected: {e}"),
        }
        let st = bb.manager.stats();
        println!(
            "flusher: {} flushed, {} lost, {} direct\n",
            st.chunks_flushed, st.chunks_lost, st.chunks_direct
        );
        tb.shutdown();
    });
}

fn main() {
    // async + slow Lustre: the fault window bites
    scenario(Scheme::AsyncLustre, true);
    // sync: the same crash is harmless
    scenario(Scheme::SyncLustre, true);
    // async + healthy Lustre: flush usually wins the race
    scenario(Scheme::AsyncLustre, false);
}
