//! Quickstart: deploy a burst buffer between 8 compute nodes and a Lustre
//! filesystem, write a file through it over simulated RDMA, read it back,
//! and watch it become durable in Lustre.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rdma_bb::prelude::*;

fn main() {
    // a complete system under test: fabric + Lustre + 4 KV servers +
    // persistence manager + per-node clients
    let tb = Testbed::build(
        SystemKind::Bb(Scheme::AsyncLustre),
        TestbedConfig {
            compute_nodes: 8,
            ..TestbedConfig::default()
        },
    );
    let sim = tb.sim.clone();
    let pool = PayloadPool::standard();

    tb.block_on(|tb| async move {
        let fs = tb.fs_for()(tb.nodes[0]);
        println!("system under test : {}", tb.kind.label());
        println!("compute nodes     : {}", tb.nodes.len());
        let bb = tb.bb.as_ref().unwrap();
        println!(
            "burst buffer      : {} KV servers × {} MiB",
            bb.kv_servers.len(),
            bb.config.kv_mem_per_server >> 20
        );

        // --- write 256 MiB through the buffer ---
        let t0 = tb.sim.now();
        let writer = fs.create("/demo/data").await.expect("create");
        for piece in pool.stream(0, 256 << 20, 1 << 20) {
            writer.append(piece).await.expect("append");
        }
        writer.close().await.expect("close");
        let write_t = (tb.sim.now() - t0).as_secs_f64();
        println!(
            "write             : 256 MiB in {write_t:.3}s ({:.0} MB/s)",
            256.0 * 1.048_576 / write_t
        );
        println!(
            "buffered bytes    : {} MiB (unflushed: {} MiB)",
            bb.buffered_bytes() >> 20,
            bb.manager.unflushed_bytes() >> 20
        );

        // --- read it back (buffer-hot) ---
        let t1 = tb.sim.now();
        let reader = fs.open("/demo/data").await.expect("open");
        let back = reader.read_all().await.expect("read");
        let read_t = (tb.sim.now() - t1).as_secs_f64();
        assert_eq!(back.len(), 256 << 20);
        println!(
            "read (hot)        : 256 MiB in {read_t:.3}s ({:.0} MB/s)",
            256.0 * 1.048_576 / read_t
        );

        // --- wait for the persistence manager ---
        let client = bb.client(tb.nodes[0]);
        let state = client.wait_flushed("/demo/data").await.expect("flush");
        println!(
            "durability        : {state:?} at t={} (Lustre now holds {} MiB)",
            tb.sim.now(),
            bb.lustre.stored_bytes() >> 20
        );
        let stats = bb.manager.stats();
        let m = tb.sim.metrics().snapshot();
        println!(
            "persistence mgr   : {} chunks flushed, {} written through \
             ({} pressure enters, {} under pressure)",
            stats.chunks_flushed,
            stats.chunks_direct,
            m.counter("bb.pressure.enter"),
            m.counter("bb.pressure.writethrough")
        );
        tb.shutdown();
    });
    println!("virtual time total: {}", sim.now());
}
