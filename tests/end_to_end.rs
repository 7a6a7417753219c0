//! Cross-crate integration tests: full pipelines exercising the public
//! API from the umbrella crate, spanning fabric → RDMA → KV → burst
//! buffer → filesystems → MapReduce.

use std::rc::Rc;

use rdma_bb::mapred::logic::WordCountLogic;
use rdma_bb::mapred::JobSpec;
use rdma_bb::prelude::*;
use rdma_bb::workloads::sortbench;
use rdma_bb::workloads::testdfsio::{self, DfsioConfig};

fn small(kind: SystemKind) -> Testbed {
    Testbed::build(
        kind,
        TestbedConfig {
            compute_nodes: 6,
            ..TestbedConfig::default()
        },
    )
}

#[test]
fn every_system_round_trips_the_same_dataset() {
    let pool = PayloadPool::standard();
    // the identical logical dataset must round-trip through each system
    for kind in SystemKind::all_five() {
        let tb = small(kind);
        let pool = pool.clone();
        tb.block_on(|tb| async move {
            let fs = tb.fs_for()(tb.nodes[1]);
            let w = fs.create("/it/ds").await.unwrap();
            let pieces = pool.stream(42, 24 << 20, 1 << 20);
            for p in &pieces {
                w.append(p.clone()).await.unwrap();
            }
            w.close().await.unwrap();
            // read from a different node than the writer
            let fs2 = tb.fs_for()(tb.nodes[4]);
            let r = fs2.open("/it/ds").await.unwrap();
            assert_eq!(r.size(), 24 << 20, "{}", kind.label());
            let mut off = 0u64;
            for p in &pieces {
                let got = r.read_at(off, p.len() as u64).await.unwrap();
                assert_eq!(&got, p, "{} mismatch at {off}", kind.label());
                off += p.len() as u64;
            }
            tb.shutdown();
        });
    }
}

#[test]
fn wordcount_results_identical_across_backends() {
    let text = "to be or not to be that is the question\n".repeat(50_000);
    let mut outputs = Vec::new();
    for kind in [
        SystemKind::Hdfs,
        SystemKind::Lustre,
        SystemKind::Bb(Scheme::AsyncLustre),
    ] {
        let tb = small(kind);
        let text = text.clone();
        let out = tb.block_on(|tb| async move {
            let fs_for = tb.fs_for();
            let w = fs_for(tb.nodes[0]).create("/wc/in").await.unwrap();
            w.append(Bytes::from(text)).await.unwrap();
            w.close().await.unwrap();
            tb.engine
                .run(
                    &fs_for,
                    JobSpec {
                        name: "wc".into(),
                        inputs: vec!["/wc/in".into()],
                        output_dir: "/wc/out".into(),
                        reducers: 3,
                        logic: Rc::new(WordCountLogic),
                    },
                )
                .await
                .unwrap();
            let mut merged = String::new();
            for p in 0..3 {
                let f = fs_for(tb.nodes[0])
                    .open(&format!("/wc/out/part-{p:05}"))
                    .await
                    .unwrap();
                merged.push_str(&String::from_utf8_lossy(&f.read_all().await.unwrap()));
            }
            let mut lines: Vec<&str> = merged.lines().collect();
            lines.sort_unstable();
            tb.shutdown();
            lines.join("\n")
        });
        outputs.push((kind.label(), out));
    }
    // identical job → identical result regardless of the storage engine
    for w in outputs.windows(2) {
        assert_eq!(
            w[0].1, w[1].1,
            "wordcount differs between {} and {}",
            w[0].0, w[1].0
        );
    }
    assert!(outputs[0].1.contains("be\t100000"));
    assert!(outputs[0].1.contains("question\t50000"));
}

#[test]
fn burst_buffer_survives_full_kv_loss_after_flush() {
    let tb = small(SystemKind::Bb(Scheme::AsyncLustre));
    let pool = PayloadPool::standard();
    tb.block_on(|tb| async move {
        let bb = Rc::clone(tb.bb.as_ref().unwrap());
        let client = bb.client(tb.nodes[0]);
        let w = client.create("/it/safe").await.unwrap();
        let pieces = pool.stream(3, 32 << 20, 1 << 20);
        for p in &pieces {
            w.append(p.clone()).await.unwrap();
        }
        w.close().await.unwrap();
        // make it durable, then lose the entire buffer tier
        assert_eq!(
            client.wait_flushed("/it/safe").await.unwrap(),
            rdma_bb::bb_core::FileState::Flushed
        );
        for s in &bb.kv_servers {
            tb.fabric.set_up(s.node(), false);
        }
        let r = client.open("/it/safe").await.unwrap();
        let back = r.read_all().await.unwrap();
        let mut expect = Vec::new();
        for p in &pieces {
            expect.extend_from_slice(p);
        }
        assert_eq!(&back[..], &expect[..]);
        tb.shutdown();
    });
}

#[test]
fn dfsio_deterministic_across_runs() {
    // identical seed and config → bit-identical virtual timings
    fn run() -> (u128, u64) {
        let tb = small(SystemKind::Bb(Scheme::AsyncLustre));
        let pool = PayloadPool::standard();
        let cfg = DfsioConfig {
            files: 4,
            file_size: 16 << 20,
            ..DfsioConfig::default()
        };
        let sim = tb.sim.clone();
        let elapsed = tb.block_on(|tb| async move {
            let fs_for = tb.fs_for();
            let w = testdfsio::write(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg)
                .await
                .unwrap();
            tb.shutdown();
            w.elapsed.as_nanos()
        });
        (elapsed, sim.events_processed())
    }
    let a = run();
    let b = run();
    assert_eq!(a, b, "simulation is not deterministic");
}

#[test]
fn hybrid_scheme_sort_exploits_locality() {
    let tb = small(SystemKind::Bb(Scheme::HybridLocality));
    let pool = PayloadPool::standard();
    let cfg = sortbench::SortConfig {
        data_size: 256 << 20,
        input_files: 6,
        reducers: 6,
        ..sortbench::SortConfig::default()
    };
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let r = sortbench::generate_and_sort(&tb.engine, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .unwrap();
        assert!(r.maps > 0);
        assert!(
            r.local_maps > 0,
            "hybrid scheme should schedule node-local maps ({}/{})",
            r.local_maps,
            r.maps
        );
        tb.shutdown();
    });
}
