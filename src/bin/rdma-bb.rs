//! `rdma-bb` — command-line driver for the simulated testbed.
//!
//! Runs a single workload against a chosen system without writing any
//! code, e.g.:
//!
//! ```text
//! rdma-bb dfsio   --system bb-async --nodes 16 --files 16 --size-mb 64
//! rdma-bb sort    --system hdfs     --nodes 16 --size-mb 512
//! rdma-bb swim    --system lustre   --jobs 12
//! rdma-bb crash   --system bb-sync
//! rdma-bb systems                  # list available systems
//! ```

use std::process::exit;

use rdma_bb::bb_core::Scheme;
use rdma_bb::prelude::*;
use rdma_bb::workloads::randomwriter::{self, RandomWriterConfig};
use rdma_bb::workloads::sortbench::{self, SortConfig};
use rdma_bb::workloads::swim::{self, SwimConfig};
use rdma_bb::workloads::testdfsio::{self, DfsioConfig};

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(name) = raw[i].strip_prefix("--") {
                let value = raw.get(i + 1).cloned().unwrap_or_default();
                flags.push((name.to_string(), value));
                i += 2;
            } else {
                i += 1;
            }
        }
        Args { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num(&self, name: &str, default: u64) -> u64 {
        self.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die(&format!("--{name}: not a number: {v}")))
            })
            .unwrap_or(default)
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2)
}

fn system_of(name: &str) -> SystemKind {
    match name {
        "hdfs" => SystemKind::Hdfs,
        "lustre" => SystemKind::Lustre,
        "bb-async" => SystemKind::Bb(Scheme::AsyncLustre),
        "bb-sync" => SystemKind::Bb(Scheme::SyncLustre),
        "bb-hybrid" => SystemKind::Bb(Scheme::HybridLocality),
        other => die(&format!(
            "unknown system '{other}' (try: hdfs, lustre, bb-async, bb-sync, bb-hybrid)"
        )),
    }
}

fn testbed(args: &Args) -> (SystemKind, Testbed) {
    let kind = system_of(args.get("system").unwrap_or("bb-async"));
    let cfg = TestbedConfig {
        compute_nodes: args.num("nodes", 16) as usize,
        ..TestbedConfig::default()
    };
    (kind, Testbed::build(kind, cfg))
}

fn cmd_dfsio(args: &Args) {
    let (kind, tb) = testbed(args);
    let cfg = DfsioConfig {
        files: args.num("files", 16) as usize,
        file_size: args.num("size-mb", 64) << 20,
        ..DfsioConfig::default()
    };
    let pool = PayloadPool::standard();
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let w = testdfsio::write(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .unwrap_or_else(|e| die(&format!("write phase: {e}")));
        let r = testdfsio::read(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg, false)
            .await
            .unwrap_or_else(|e| die(&format!("read phase: {e}")));
        println!("system        : {}", kind.label());
        println!(
            "write         : {:.0} MB/s aggregate ({:.0} MB/s per-task avg) in {:.2}s",
            w.aggregate.mb_per_sec(),
            w.avg_io_rate_mbps,
            w.elapsed.as_secs_f64()
        );
        println!(
            "read          : {:.0} MB/s aggregate ({:.0} MB/s per-task avg) in {:.2}s",
            r.aggregate.mb_per_sec(),
            r.avg_io_rate_mbps,
            r.elapsed.as_secs_f64()
        );
        println!("local storage : {} MiB", tb.local_storage_used() >> 20);
        tb.shutdown();
    });
}

fn cmd_randomwriter(args: &Args) {
    let (kind, tb) = testbed(args);
    let cfg = RandomWriterConfig {
        bytes_per_node: args.num("size-mb", 128) << 20,
        ..RandomWriterConfig::default()
    };
    let pool = PayloadPool::standard();
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let r = randomwriter::run(&tb.sim, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .unwrap_or_else(|e| die(&format!("randomwriter: {e}")));
        println!(
            "{}: wrote {} MiB in {:.2}s ({:.0} MB/s)",
            kind.label(),
            r.bytes >> 20,
            r.elapsed.as_secs_f64(),
            r.bytes as f64 / 1e6 / r.elapsed.as_secs_f64()
        );
        tb.shutdown();
    });
}

fn cmd_sort(args: &Args) {
    let (kind, tb) = testbed(args);
    let cfg = SortConfig {
        data_size: args.num("size-mb", 512) << 20,
        input_files: tb.nodes.len(),
        reducers: tb.nodes.len(),
        ..SortConfig::default()
    };
    let pool = PayloadPool::standard();
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let r = sortbench::generate_and_sort(&tb.engine, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .unwrap_or_else(|e| die(&format!("sort: {e}")));
        println!("system   : {}", kind.label());
        println!("teragen  : {:.2}s", r.gen_time.as_secs_f64());
        println!(
            "sort     : {:.2}s (map phase {:.2}s, {}/{} maps node-local)",
            r.sort_time.as_secs_f64(),
            r.map_phase.as_secs_f64(),
            r.local_maps,
            r.maps
        );
        tb.shutdown();
    });
}

fn cmd_swim(args: &Args) {
    let (kind, tb) = testbed(args);
    let cfg = SwimConfig {
        jobs: args.num("jobs", 12) as usize,
        ..SwimConfig::default()
    };
    let pool = PayloadPool::standard();
    tb.block_on(|tb| async move {
        let fs_for = tb.fs_for();
        let r = swim::run(&tb.engine, &tb.nodes, &fs_for, &pool, &cfg)
            .await
            .unwrap_or_else(|e| die(&format!("swim: {e}")));
        println!("system    : {}", kind.label());
        println!("jobs      : {}", r.jobs.len());
        println!("makespan  : {:.2}s", r.makespan.as_secs_f64());
        println!("mean job  : {:.2}s", r.mean_job_time.as_secs_f64());
        println!("p95 job   : {:.2}s", r.p95_job_time.as_secs_f64());
        tb.shutdown();
    });
}

fn cmd_crash(args: &Args) {
    let (kind, tb) = testbed(args);
    if tb.bb.is_none() {
        die("crash scenario applies to burst-buffer systems (bb-async / bb-sync / bb-hybrid)");
    }
    let pool = PayloadPool::standard();
    let size = args.num("size-mb", 256) << 20;
    tb.block_on(|tb| async move {
        let bb = tb.bb.as_ref().unwrap();
        let client = bb.client(tb.nodes[0]);
        let w = client.create("/cli/crash").await.unwrap();
        for piece in pool.stream(1, size, 1 << 20) {
            w.append(piece).await.unwrap();
        }
        w.close().await.unwrap();
        println!(
            "{}: wrote {} MiB; unflushed at close: {} MiB",
            kind.label(),
            size >> 20,
            bb.manager.unflushed_bytes() >> 20
        );
        for s in &bb.kv_servers {
            tb.fabric.set_up(s.node(), false);
        }
        println!("crashed all {} KV servers", bb.kv_servers.len());
        let state = client.wait_flushed("/cli/crash").await.unwrap();
        let st = bb.manager.stats();
        println!(
            "state: {state:?} ({} chunks flushed, {} lost, {} direct)",
            st.chunks_flushed, st.chunks_lost, st.chunks_direct
        );
        tb.shutdown();
    });
}

fn usage() -> ! {
    eprintln!(
        "usage: rdma-bb <command> [--system S] [--nodes N] ...\n\
         commands:\n\
         \x20 dfsio        --files N --size-mb M    TestDFSIO write+read\n\
         \x20 randomwriter --size-mb M              bulk ingest per node\n\
         \x20 sort         --size-mb M              TeraGen + Sort\n\
         \x20 swim         --jobs N                 mixed job trace\n\
         \x20 crash        --size-mb M              buffer-crash scenario (bb-* only)\n\
         \x20 systems                               list systems\n\
         systems: hdfs, lustre, bb-async, bb-sync, bb-hybrid"
    );
    exit(2)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        usage()
    };
    let args = Args::parse(&raw[1..]);
    match cmd.as_str() {
        "dfsio" => cmd_dfsio(&args),
        "randomwriter" => cmd_randomwriter(&args),
        "sort" => cmd_sort(&args),
        "swim" => cmd_swim(&args),
        "crash" => cmd_crash(&args),
        "systems" => {
            for k in SystemKind::all_five() {
                println!("{}", k.label());
            }
        }
        _ => usage(),
    }
}
