//! A full analytics pipeline on the burst buffer: TeraGen → Sort →
//! validate, using the real record-sorting MapReduce logic (the paper's
//! Sort workload, E7, at correctness scale).
//!
//! ```text
//! cargo run --release --example sort_pipeline
//! ```

use rdma_bb::mapred::logic::SORT_RECORD_LEN;
use rdma_bb::prelude::*;
use rdma_bb::workloads::sortbench::{self, SortConfig};

fn main() {
    let tb = Testbed::build(
        SystemKind::Bb(Scheme::HybridLocality),
        TestbedConfig {
            compute_nodes: 8,
            ..TestbedConfig::default()
        },
    );
    let cfg = SortConfig {
        data_size: 16 << 20,
        input_files: 8,
        reducers: 8,
        real_sort: true,
        ..SortConfig::default()
    };
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        // TeraGen: real 100-byte records with pseudorandom keys
        let records_per_file = (cfg.data_size / cfg.input_files as u64) as usize / SORT_RECORD_LEN;
        for i in 0..cfg.input_files {
            sortbench::teragen_real(
                &fs_for(tb.nodes[i % tb.nodes.len()]),
                &format!("{}/part-{i:05}", cfg.input_dir),
                records_per_file,
                0xBEEF + i as u64,
            )
            .await
            .expect("teragen");
        }
        println!(
            "generated {} records across {} files on {}",
            records_per_file * cfg.input_files,
            cfg.input_files,
            tb.kind.label()
        );

        // Sort
        let r = sortbench::sort(&tb.engine, &fs_for, &cfg)
            .await
            .expect("sort");
        println!(
            "sort: {:.3}s ({} maps, {} node-local, map phase {:.3}s)",
            r.sort_time.as_secs_f64(),
            r.maps,
            r.local_maps,
            r.map_phase.as_secs_f64()
        );

        // Validate: outputs globally ordered across partitions
        let mut last: Option<Vec<u8>> = None;
        let mut total_records = 0usize;
        for p in 0..cfg.reducers {
            let f = fs_for(tb.nodes[0])
                .open(&format!("{}/part-{p:05}", cfg.output_dir))
                .await
                .expect("open output");
            let data = f.read_all().await.expect("read output");
            for rec in data.chunks(SORT_RECORD_LEN) {
                let key = rec[..10].to_vec();
                if let Some(prev) = &last {
                    assert!(*prev <= key, "output not globally sorted at partition {p}");
                }
                last = Some(key);
                total_records += 1;
            }
        }
        assert_eq!(total_records, records_per_file * cfg.input_files);
        println!("validate: {total_records} records globally sorted ✓");
        tb.shutdown();
    });
}
