//! TestDFSIO across all five systems — a miniature of the paper's headline
//! experiment (E3/E4): write and read 16 files × 64 MiB on 16 nodes and
//! compare HDFS, Lustre, and the three burst-buffer schemes.
//!
//! ```text
//! cargo run --release --example testdfsio_demo
//! ```

use rdma_bb::prelude::*;
use rdma_bb::workloads::testdfsio::{self, DfsioConfig};

fn main() {
    let cfg = DfsioConfig {
        files: 16,
        file_size: 64 << 20,
        ..DfsioConfig::default()
    };
    println!(
        "TestDFSIO: {} files × {} MiB on 16 nodes\n",
        cfg.files,
        cfg.file_size >> 20
    );
    println!(
        "{:<10} {:>14} {:>14} {:>12}",
        "system", "write MB/s", "read MB/s", "local GiB"
    );
    for kind in SystemKind::all_five() {
        let tb = Testbed::build(kind, TestbedConfig::default());
        let pool = PayloadPool::standard();
        let cfg = cfg.clone();
        let (w, r, local) = tb.block_on(|tb| async move {
            let fs_for = tb.fs_for();
            let w = testdfsio::write(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg)
                .await
                .expect("write phase");
            let r = testdfsio::read(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg, false)
                .await
                .expect("read phase");
            let local = tb.local_storage_used();
            tb.shutdown();
            (w, r, local)
        });
        println!(
            "{:<10} {:>14.0} {:>14.0} {:>12.2}",
            kind.label(),
            w.aggregate.mb_per_sec(),
            r.aggregate.mb_per_sec(),
            local as f64 / (1u64 << 30) as f64
        );
    }
    println!("\n(paper shape: BB-Async write ≈2.6× HDFS / ≈1.5× Lustre; read gain up to 8×)");
}
