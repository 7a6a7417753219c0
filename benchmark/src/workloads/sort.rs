//! `sort`: TeraGen (setup) then Sort, 512 MiB over 16 inputs and 16
//! reducers with the synthetic shuffle logic — E7's BB-Async cell (seed 0
//! prints `sim_s` 1.07). The only workload where `mapred` scheduling and
//! the shuffle do the work, with DFS reads and writes overlapping.
//!
//! The benchmark's one call is `MrEngine::run`; the DFS calls happen
//! inside the engine, so no per-op latency is defined here. `sim_s` and
//! `host_cpu_s` cover the job; the flush drain that follows is the
//! epilogue (`Opts::epilogue`).

use std::rc::Rc;

use bb_core::fs::AnyFs;
use bb_core::{FileState, Scheme};
use mapred::{JobSpec, MrEngine, SyntheticShuffleLogic};
use netsim::NodeId;
use simkit::{dur, SimRng};
use workloads::sortbench::{self, SortConfig};
use workloads::{PayloadPool, SystemKind, Testbed, TestbedConfig};

use super::{drive, spanned, Layout, Opts, RepOut};
use crate::host::{self, PhaseClock};
use crate::layers;
use crate::metrics::Values;
use crate::spans::{SpanId, Spans};

const INPUTS: usize = 16;
const REDUCERS: usize = 16;

/// One rep.
pub fn rep(opts: &Opts) -> RepOut {
    let opts = *opts;
    let (setup0, rep_clock) = (host::process_cpu_ns(), PhaseClock::start());
    let mut tcfg = TestbedConfig::default();
    tcfg.bb.trace_ops = opts.trace;
    let tb = Testbed::build(SystemKind::Bb(Scheme::AsyncLustre), tcfg);
    if opts.trace {
        tb.sim.tracer().enable();
    }
    let sim = tb.sim.clone();
    let bb = Rc::clone(tb.bb.as_ref().expect("bb testbed"));
    let layout = Layout::new(opts.seed, tb.nodes.len(), INPUTS);
    let nodes = layout.permute(&tb.nodes);
    // seed 0 runs the testbed's own engine; other seeds bind one to the
    // permuted node order (task placement follows it)
    let engine = if opts.seed == 0 {
        Rc::clone(&tb.engine)
    } else {
        MrEngine::new(Rc::clone(&tb.fabric), nodes.clone(), tcfg.mr)
    };
    let cfg = SortConfig {
        data_size: (512 << 20) / opts.shrink,
        input_files: INPUTS,
        reducers: REDUCERS,
        ..SortConfig::default()
    };
    let spans = Rc::new(Spans::new(opts.trace));

    let s = sim.clone();
    let out = drive(&sim, async move {
        let pool = PayloadPool::standard();
        // --- setup: TeraGen ---
        let gen_bb = Rc::clone(&bb);
        let gen_fs = move |node: NodeId| AnyFs::Bb(gen_bb.client(node));
        let gen = sortbench::teragen(&s, &nodes, &gen_fs, &pool, &cfg).await;
        // seeds other than 0 submit the job up to 20 ms after TeraGen
        // returns: the one task start the benchmark controls here (the
        // engine places the map and reduce tasks), and what moves the job
        // against the flusher still draining TeraGen's output. (Offsets of
        // the ≤ 200 µs the dfsio tasks get leave `sim_s` unchanged to the
        // nanosecond.)
        if opts.seed != 0 {
            let rng = SimRng::seed_from(opts.seed ^ 0x7375_626d_6974);
            s.sleep(dur::ns(rng.range(1, 20_000_000))).await;
        }
        let setup_cpu_s = (host::process_cpu_ns() - setup0) as f64 / 1e9;

        // --- measured phase: the sort job, then the flush drain ---
        let job_bb = Rc::clone(&bb);
        let job_fs = move |node: NodeId| AnyFs::Bb(job_bb.client(node));
        let inputs: Vec<String> = (0..INPUTS)
            .map(|i| format!("{}/part-{i:05}", cfg.input_dir))
            .collect();
        let clock = PhaseClock::start();
        let job = JobSpec {
            name: "sort".into(),
            inputs: inputs.clone(),
            output_dir: cfg.output_dir.clone(),
            reducers: REDUCERS,
            logic: Rc::new(SyntheticShuffleLogic::sort()),
        };
        let run = engine.run(&job_fs, job);
        let (report, _) = spanned(&s, &spans, "mapred.run", SpanId::NONE, 0, run).await;
        let cost = clock.stop();
        let job_end = s.now();

        let mut values = Values::default();
        let mut notes = Vec::new();
        let mut attempted = 2u64; // teragen + the job
        let mut failed = gen.is_err() as u64 + report.is_err() as u64;
        let mut correct = true;
        let mut reconciled = true;
        match &report {
            Ok(r) => {
                values.set("sim_s", r.elapsed.as_secs_f64());
                values.set("mapred.map_phase_sim_s", r.map_phase.as_secs_f64());
                values.set(
                    "mapred.reduce_phase_sim_s",
                    (r.elapsed - r.map_phase).as_secs_f64(),
                );
                values.set("mapred.maps", r.maps as f64);
                values.set("mapred.local_maps", r.local_maps as f64);
                values.set("mapred.bytes_shuffled", r.bytes_shuffled as f64);
                values.set("mapred.bytes_written", r.bytes_written as f64);
                values.set(
                    "mapred.host_ns_per_byte",
                    cost.user_s * 1e9 / r.bytes_read.max(1) as f64,
                );
                values.set(
                    "workloads.sim_mb_per_s",
                    r.bytes_read as f64 / 1e6 / r.elapsed.as_secs_f64(),
                );
                // every input byte read, sorted output as large as the
                // input, one reduce per partition
                correct &= r.bytes_read == cfg.data_size
                    && r.bytes_written == cfg.data_size
                    && r.reduces == REDUCERS;
                notes.push(format!(
                    "{} maps ({} node-local), {} reducers",
                    r.maps, r.local_maps, r.reduces
                ));
            }
            Err(_) => correct = false,
        }
        if let Ok(g) = gen {
            values.set("mapred.teragen_sim_s", g.as_secs_f64());
        }

        // --- epilogue: job end → inputs and outputs durable; the layer
        // counts then cover the whole life of the job's data ---
        if opts.epilogue {
            let client0 = bb.client(nodes[0]);
            let drain_clock = PhaseClock::start();
            let outputs = client0.list(&cfg.output_dir).await.unwrap_or_default();
            for p in inputs.iter().chain(&outputs) {
                attempted += 1;
                let wait = client0.wait_flushed(p);
                let (r, _) =
                    spanned(&s, &spans, "bb.wait_flushed", SpanId::NONE, attempted, wait).await;
                if r != Ok(FileState::Flushed) {
                    failed += 1;
                }
            }
            values.set("sim_flush_lag_s", (s.now() - job_end).as_secs_f64());
            notes.push(format!(
                "flush drain after the measured phase: {:.3} s host user CPU (not in host_cpu_s)",
                drain_clock.stop().user_s
            ));
            reconciled = layers::observe(
                &s,
                opts.trace,
                &["bb.lat.write_chunk", "bb.lat.read_group"],
                &mut values,
                &mut notes,
            );
            correct &= reconciled;
            // one durable part file per reducer, together as large as the
            // job says it wrote
            let mut out_bytes = 0u64;
            for p in &outputs {
                attempted += 1;
                match client0.open(p).await {
                    Ok(r) => out_bytes += r.size(),
                    Err(_) => failed += 1,
                }
            }
            if opts.verify_all {
                // the bytes the job consumed are the bytes TeraGen made
                let per_file = cfg.data_size / INPUTS as u64;
                for (i, p) in inputs.iter().enumerate() {
                    attempted += 1;
                    let want = pool.stream(i as u64 * 104_729, per_file, 1 << 20);
                    let good = match client0.open(p).await {
                        Ok(r) => {
                            let mut good = r.size() == per_file;
                            for (k, piece) in want.iter().enumerate() {
                                let got = r.read_at((k as u64) << 20, piece.len() as u64).await;
                                good &= got.as_ref() == Ok(piece);
                            }
                            good
                        }
                        Err(_) => false,
                    };
                    if !good {
                        failed += 1;
                    }
                }
            }
            if let Ok(r) = &report {
                // TeraGen wrote the input, the job read it and wrote as much
                values.set(
                    "sim_bytes_per_user_byte",
                    layers::bytes_moved(&values)
                        / (cfg.data_size + r.bytes_read + r.bytes_written) as f64,
                );
                correct &= outputs.len() == REDUCERS && out_bytes == r.bytes_written;
            }
            correct &= layers::intact(&values);
        }
        values.set("fail_frac", failed as f64 / attempted as f64);
        bb.shutdown();
        RepOut {
            setup_cpu_s,
            cost,
            rep_user_s: rep_clock.stop().user_s,
            values,
            attempted,
            failed,
            correct,
            reconciled,
            payload_bytes: cfg.data_size * 2,
            spans,
            notes,
        }
    });
    drop(tb);
    out
}
