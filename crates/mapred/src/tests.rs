//! End-to-end engine tests over real filesystem backends.

use std::rc::Rc;

use bytes::{BufMut, Bytes, BytesMut};
use netsim::{Fabric, NetConfig, NodeId};
use simkit::Sim;

use bb_core::fs::AnyFs;
use bb_core::{BbConfig, BbDeployment, Scheme};
use hdfs::{HdfsCluster, HdfsConfig};
use lustre::{LustreCluster, LustreConfig};

use crate::engine::{JobSpec, MrConfig, MrEngine};
use crate::logic::{
    GrepLogic, IdentityLogic, RecordSortLogic, SyntheticShuffleLogic, WordCountLogic,
    SORT_RECORD_LEN,
};

struct Rig {
    sim: Sim,
    #[allow(dead_code)]
    fabric: Rc<Fabric>,
    engine: Rc<MrEngine>,
    hdfs: Rc<HdfsCluster>,
    lustre: Rc<LustreCluster>,
    bb: Rc<BbDeployment>,
}

fn rig(compute: usize) -> Rig {
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), compute, NetConfig::default());
    let nodes: Vec<NodeId> = (0..compute as u32).map(NodeId).collect();
    let hdfs = HdfsCluster::deploy(
        &fabric,
        &nodes,
        HdfsConfig {
            block_size: 4 << 20,
            packet_size: 512 << 10,
            ..HdfsConfig::default()
        },
    );
    let lustre = LustreCluster::deploy(&fabric, LustreConfig::default());
    let bb = BbDeployment::deploy(
        &fabric,
        Rc::clone(&lustre),
        &nodes,
        BbConfig {
            scheme: Scheme::AsyncLustre,
            kv_servers: 2,
            ..BbConfig::default()
        },
    );
    let engine = MrEngine::new(
        Rc::clone(&fabric),
        nodes,
        MrConfig {
            split_size: 4 << 20,
        },
    );
    Rig {
        sim,
        fabric,
        engine,
        hdfs,
        lustre,
        bb,
    }
}

impl Rig {
    fn fs_hdfs(&self) -> impl Fn(NodeId) -> AnyFs + '_ {
        move |n| AnyFs::Hdfs(self.hdfs.client(n))
    }
    fn fs_lustre(&self) -> impl Fn(NodeId) -> AnyFs + '_ {
        move |n| AnyFs::Lustre(self.lustre.client(n))
    }
    fn fs_bb(&self) -> impl Fn(NodeId) -> AnyFs + '_ {
        move |n| AnyFs::Bb(self.bb.client(n))
    }
    fn shutdown(&self) {
        self.hdfs.shutdown();
        self.bb.shutdown();
    }
}

async fn put(fs: &AnyFs, path: &str, data: Bytes) {
    let w = fs.create(path).await.unwrap();
    w.append(data).await.unwrap();
    w.close().await.unwrap();
}

#[test]
fn identity_job_copies_input() {
    let r = rig(4);
    let engine = Rc::clone(&r.engine);
    let data = Bytes::from((0..6 << 20).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let expect = data.clone();
    r.sim.clone().block_on(async move {
        let fs = r.fs_hdfs();
        put(&fs(NodeId(0)), "/in/data", data).await;
        let report = engine
            .run(
                &fs,
                JobSpec {
                    name: "copy".into(),
                    inputs: vec!["/in/data".into()],
                    output_dir: "/out".into(),
                    reducers: 1,
                    logic: Rc::new(IdentityLogic),
                },
            )
            .await
            .unwrap();
        assert_eq!(report.maps, 2); // 6 MiB over 4 MiB blocks
        assert_eq!(report.bytes_read, 6 << 20);
        assert_eq!(report.bytes_written, 6 << 20);
        let out = fs(NodeId(1)).open("/out/part-00000").await.unwrap();
        assert_eq!(out.read_all().await.unwrap(), expect);
        r.shutdown();
    });
}

#[test]
fn record_sort_produces_globally_sorted_output() {
    let r = rig(4);
    let engine = Rc::clone(&r.engine);
    // TeraGen-ish input: pseudorandom keys
    let n_records = 40_000usize;
    let mut input = BytesMut::with_capacity(n_records * SORT_RECORD_LEN);
    let mut x = 12345u64;
    for _ in 0..n_records {
        let mut rec = [0u8; SORT_RECORD_LEN];
        for b in rec.iter_mut().take(10) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (x >> 33) as u8;
        }
        input.put_slice(&rec);
    }
    let input = input.freeze();
    r.sim.clone().block_on(async move {
        let fs = r.fs_bb();
        put(&fs(NodeId(0)), "/sort/in", input).await;
        let report = engine
            .run(
                &fs,
                JobSpec {
                    name: "sort".into(),
                    inputs: vec!["/sort/in".into()],
                    output_dir: "/sort/out".into(),
                    reducers: 4,
                    logic: Rc::new(RecordSortLogic),
                },
            )
            .await
            .unwrap();
        assert_eq!(report.bytes_written, (n_records * SORT_RECORD_LEN) as u64);
        // every partition internally sorted; partitions ordered by range
        let mut last_key_prev_part: Option<Vec<u8>> = None;
        for p in 0..4 {
            let path = format!("/sort/out/part-{p:05}");
            let out = fs(NodeId(0)).open(&path).await.unwrap();
            let data = out.read_all().await.unwrap();
            let mut prev: Option<&[u8]> = None;
            for rec in data.chunks(SORT_RECORD_LEN) {
                let key = &rec[..10];
                if let Some(p) = prev {
                    assert!(p <= key, "partition {p:?} not sorted");
                }
                prev = Some(key);
            }
            if let (Some(last), Some(first)) = (
                last_key_prev_part.as_deref(),
                data.chunks(SORT_RECORD_LEN).next().map(|r| &r[..10]),
            ) {
                assert!(last <= first, "partition ranges out of order");
            }
            if let Some(last) = data.chunks(SORT_RECORD_LEN).last() {
                last_key_prev_part = Some(last[..10].to_vec());
            }
        }
        r.shutdown();
    });
}

#[test]
fn word_count_over_lustre() {
    let r = rig(3);
    let engine = Rc::clone(&r.engine);
    let text = "alpha beta gamma alpha beta alpha\n".repeat(20_000);
    r.sim.clone().block_on(async move {
        let fs = r.fs_lustre();
        put(&fs(NodeId(0)), "/wc/in", Bytes::from(text)).await;
        engine
            .run(
                &fs,
                JobSpec {
                    name: "wordcount".into(),
                    inputs: vec!["/wc/in".into()],
                    output_dir: "/wc/out".into(),
                    reducers: 2,
                    logic: Rc::new(WordCountLogic),
                },
            )
            .await
            .unwrap();
        // gather both partitions and check totals
        let mut all = String::new();
        for p in 0..2 {
            let out = fs(NodeId(0))
                .open(&format!("/wc/out/part-{p:05}"))
                .await
                .unwrap();
            all.push_str(&String::from_utf8_lossy(&out.read_all().await.unwrap()));
        }
        assert!(all.contains("alpha\t60000"), "got: {all}");
        assert!(all.contains("beta\t40000"));
        assert!(all.contains("gamma\t20000"));
        r.shutdown();
    });
}

#[test]
fn grep_finds_needles_across_splits() {
    let r = rig(3);
    let engine = Rc::clone(&r.engine);
    let mut text = String::new();
    for i in 0..200_000 {
        if i % 1000 == 0 {
            text.push_str(&format!("line {i} with NEEDLE inside\n"));
        } else {
            text.push_str(&format!("plain line {i}\n"));
        }
    }
    r.sim.clone().block_on(async move {
        let fs = r.fs_hdfs();
        put(&fs(NodeId(0)), "/grep/in", Bytes::from(text)).await;
        engine
            .run(
                &fs,
                JobSpec {
                    name: "grep".into(),
                    inputs: vec!["/grep/in".into()],
                    output_dir: "/grep/out".into(),
                    reducers: 1,
                    logic: Rc::new(GrepLogic {
                        needle: "NEEDLE".into(),
                    }),
                },
            )
            .await
            .unwrap();
        let out = fs(NodeId(0)).open("/grep/out/part-00000").await.unwrap();
        let data = out.read_all().await.unwrap();
        let text = String::from_utf8_lossy(&data);
        assert_eq!(text.lines().count(), 200);
        assert!(text.lines().all(|l| l.contains("NEEDLE")));
        r.shutdown();
    });
}

#[test]
fn hdfs_maps_are_mostly_local_lustre_never() {
    let r = rig(4);
    let engine = Rc::clone(&r.engine);
    let data = Bytes::from(vec![9u8; 16 << 20]);
    r.sim.clone().block_on(async move {
        let hfs = r.fs_hdfs();
        put(&hfs(NodeId(0)), "/loc/h", data.clone()).await;
        let lfs = r.fs_lustre();
        put(&lfs(NodeId(0)), "/loc/l", data).await;
        let job = |input: &str, out: &str| JobSpec {
            name: "scan".into(),
            inputs: vec![input.into()],
            output_dir: out.into(),
            reducers: 1,
            logic: Rc::new(SyntheticShuffleLogic::aggregation(0.01)),
        };
        let hr = engine.run(&hfs, job("/loc/h", "/loc/hout")).await.unwrap();
        let lr = engine.run(&lfs, job("/loc/l", "/loc/lout")).await.unwrap();
        // HDFS: 3 replicas over 4 nodes → locality easy to achieve
        assert!(
            hr.local_maps * 2 >= hr.maps,
            "HDFS locality too low: {}/{}",
            hr.local_maps,
            hr.maps
        );
        assert_eq!(lr.local_maps, 0, "Lustre has no node-local data");
        r.shutdown();
    });
}

#[test]
fn map_only_job_writes_nothing() {
    let r = rig(2);
    let engine = Rc::clone(&r.engine);
    let data = Bytes::from(vec![1u8; 4 << 20]);
    r.sim.clone().block_on(async move {
        let fs = r.fs_hdfs();
        put(&fs(NodeId(0)), "/mo/in", data).await;
        let report = engine
            .run(
                &fs,
                JobSpec {
                    name: "maponly".into(),
                    inputs: vec!["/mo/in".into()],
                    output_dir: "/mo/out".into(),
                    reducers: 0,
                    logic: Rc::new(IdentityLogic),
                },
            )
            .await
            .unwrap();
        assert_eq!(report.reduces, 0);
        assert_eq!(report.bytes_written, 0);
        assert!(fs(NodeId(0)).list("/mo/out").await.unwrap().is_empty());
        r.shutdown();
    });
}

#[test]
fn multiple_inputs_and_many_reducers() {
    let r = rig(4);
    let engine = Rc::clone(&r.engine);
    r.sim.clone().block_on(async move {
        let fs = r.fs_bb();
        for i in 0..3 {
            put(
                &fs(NodeId(i % 4)),
                &format!("/multi/in{i}"),
                Bytes::from(vec![i as u8; 5 << 20]),
            )
            .await;
        }
        let report = engine
            .run(
                &fs,
                JobSpec {
                    name: "multi".into(),
                    inputs: (0..3).map(|i| format!("/multi/in{i}")).collect(),
                    output_dir: "/multi/out".into(),
                    reducers: 8,
                    logic: Rc::new(SyntheticShuffleLogic::sort()),
                },
            )
            .await
            .unwrap();
        assert_eq!(report.bytes_read, 15 << 20);
        assert_eq!(report.bytes_written, 15 << 20);
        assert_eq!(fs(NodeId(0)).list("/multi/out").await.unwrap().len(), 8);
        r.shutdown();
    });
}

/// The real logics read a burst-buffer split as chunk views whose seams
/// fall inside 100-byte records, lines and words (512 KiB chunks are not
/// a multiple of 100): they must write exactly what they write over the
/// same input read from HDFS, which hands each split over as one buffer.
#[test]
fn real_logics_write_the_same_output_over_bb_chunk_seams_as_over_hdfs() {
    let records = Bytes::from(
        (0..30_000u32)
            .flat_map(|r| {
                (0..SORT_RECORD_LEN as u32).map(move |i| ((r * 7919 + i * 31) % 251) as u8)
            })
            .collect::<Vec<u8>>(),
    );
    let mut text = String::new();
    for i in 0..120_000 {
        text.push_str(if i % 97 == 0 {
            "seam NEEDLE here\n"
        } else {
            "plain words, more words\n"
        });
    }
    let text = Bytes::from(text);
    // (logic, input): both inputs are single 3 MiB-ish splits of 6 chunks
    let jobs: Vec<(&str, Rc<dyn crate::logic::JobLogic>, Bytes)> = vec![
        ("sort", Rc::new(RecordSortLogic), records),
        ("wc", Rc::new(WordCountLogic), text.clone()),
        (
            "grep",
            Rc::new(GrepLogic {
                needle: "NEEDLE".into(),
            }),
            text,
        ),
    ];
    for (name, logic, input) in jobs {
        assert!(input.len() as u64 > 5 * BbConfig::default().chunk_size);
        let r = rig(3);
        let engine = Rc::clone(&r.engine);
        r.sim.clone().block_on(async move {
            let mut outputs = Vec::new();
            for (label, fs) in [
                ("hdfs", r.fs_hdfs()(NodeId(0))),
                ("bb", r.fs_bb()(NodeId(0))),
            ] {
                put(&fs, "/seams/in", input.clone()).await;
                let fs_for = |n: NodeId| match label {
                    "hdfs" => r.fs_hdfs()(n),
                    _ => r.fs_bb()(n),
                };
                let out_dir = format!("/seams/{label}");
                engine
                    .run(
                        &fs_for,
                        JobSpec {
                            name: name.into(),
                            inputs: vec!["/seams/in".into()],
                            output_dir: out_dir.clone(),
                            reducers: 3,
                            logic: Rc::clone(&logic),
                        },
                    )
                    .await
                    .unwrap();
                let mut parts = Vec::new();
                for p in 0..3 {
                    let f = fs.open(&format!("{out_dir}/part-{p:05}")).await.unwrap();
                    parts.push(f.read_all().await.unwrap());
                }
                outputs.push(parts);
            }
            assert!(
                outputs[0].iter().any(|p| !p.is_empty()),
                "{name}: no output"
            );
            assert_eq!(
                outputs[0], outputs[1],
                "{name}: BB output differs from HDFS"
            );
            r.shutdown();
        });
    }
}
