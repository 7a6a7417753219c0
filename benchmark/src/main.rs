//! `bbbench` — the repo's benchmark. One invocation runs one workload in
//! one single-threaded process:
//!
//! ```text
//! bbbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bbbench --probes            # the layer probes alone
//! bbbench --check [--workload <name>]   # 1/8-size correctness pass
//! ```
//!
//! `--trace 0` repeats the workload (fresh deployment each rep, at least
//! [`MIN_REPS`]) for `--seconds`, prints every end-to-end metric by name
//! and unit, and ends with the result line. `--trace 1` runs two untraced
//! reps and a traced one plus the layer probes, writes
//! `benchmark/out/<workload>.trace.json`, prints the per-layer table and
//! ends with the result line of per-layer metrics. See README.md.

mod host;
mod layers;
mod metrics;
mod probes;
mod spans;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use metrics::{Clock, Values, E2E, E2E_PER_SEED, LAYER};
use workloads::{Opts, RepOut, Workload};

/// Reps per untraced run: at least this many, more while `--seconds` lasts.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 64;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    probes: bool,
    check: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: bbbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         bbbench --probes | --check [--workload W]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 12.0,
        trace: false,
        probes: false,
        check: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1)
                .ok_or_else(|| format!("{} needs a value\n{}", argv[i], usage()))
        };
        match argv[i].as_str() {
            "--workload" => {
                let v = value(i)?;
                a.workload = Some(
                    Workload::parse(v)
                        .ok_or_else(|| format!("unknown workload {v}\n{}", usage()))?,
                );
                i += 1;
            }
            "--seed" => {
                a.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                a.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                i += 1;
            }
            "--trace" => {
                a.trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
                i += 1;
            }
            "--probes" => a.probes = true,
            "--check" => a.check = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
        i += 1;
    }
    Ok(a)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Virtual-clock names `rep` reports whose value is not bit-identical in
/// `reference` (a rep without epilogue reports a subset).
fn sim_moved(reference: &Values, rep: &Values) -> Vec<&'static str> {
    let rep_sim = rep.on_clock(Clock::Sim);
    let mut ref_sim = Values::default();
    for (name, _) in rep_sim.iter() {
        if let Some(v) = reference.get(name) {
            ref_sim.set(name, v);
        }
    }
    rep_sim.diff(&ref_sim)
}

fn print_notes(rep: &RepOut) {
    for n in &rep.notes {
        println!("  {n}");
    }
}

/// The untraced pass: end-to-end metrics.
fn run_untraced(w: Workload, seed: u64, seconds: f64) -> bool {
    let opts = Opts::timed(seed);
    let t0 = Instant::now();
    let mut reps: Vec<RepOut> = Vec::new();
    // memory is a property of one cold pass over the workload: later reps
    // reuse the allocator's pages, so both are read after the first rep
    let mut cold = (0.0, 0.0);
    while reps.len() < MIN_REPS || (t0.elapsed().as_secs_f64() < seconds && reps.len() < MAX_REPS) {
        // the epilogue's values are virtual-clock, hence identical on
        // every rep: run it once
        reps.push(w.rep(&Opts {
            epilogue: reps.is_empty(),
            ..opts
        }));
        if reps.len() == 1 {
            cold = (host::peak_rss_mib(), host::usage().minflt as f64 / 1e3);
        }
    }
    let first = &reps[0];
    let mut values = first.values.clone();
    values.set(
        "setup_s",
        median(reps.iter().map(|r| r.setup_cpu_s).collect()),
    );
    values.set(
        "host_cpu_s",
        median(reps.iter().map(|r| r.cost.user_s).collect()),
    );
    values.set("host_rss_mb", cold.0);
    values.set("host_minflt_k", cold.1);

    // same code + same seed ⇒ every virtual-clock value repeats bit for bit
    let mut correct = reps.iter().all(|r| r.correct);
    for (i, r) in reps.iter().enumerate().skip(1) {
        let moved = sim_moved(&first.values, &r.values);
        if !moved.is_empty() {
            println!("rep {i} is not bit-identical to rep 0 on: {moved:?}");
            correct = false;
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();

    println!(
        "# {} seed {} — {} reps in {:.1} s wall (setup_s and host_cpu_s are medians over reps; \
         sim_* are bit-identical on every rep)",
        w.name(),
        seed,
        reps.len(),
        t0.elapsed().as_secs_f64()
    );
    print_notes(first);
    let per_rep = |f: fn(&RepOut) -> f64| {
        let v: Vec<String> = reps.iter().map(|r| format!("{:.3}", f(r))).collect();
        v.join(" ")
    };
    println!(
        "  per rep: host user CPU s [{}], setup CPU s [{}]",
        per_rep(|r| r.cost.user_s),
        per_rep(|r| r.setup_cpu_s)
    );
    print!("{}", metrics::table("end-to-end", E2E, &values));
    print!(
        "{}",
        metrics::table(
            "end-to-end, gated per seed by compare.py (- = not defined here)",
            E2E_PER_SEED,
            &values
        )
    );
    println!(
        "workloads.sim_mb_per_s {:.1} MB/s; measured-phase wall {:.3} s, sys {:.3} s (median rep)",
        values.get("workloads.sim_mb_per_s").unwrap_or(0.0),
        median(reps.iter().map(|r| r.cost.wall_s).collect()),
        median(reps.iter().map(|r| r.cost.sys_s).collect()),
    );
    // machine-readable copy of the per-seed metrics for compare.py
    // (`fail_frac` is the result line's failed/attempted)
    let per_seed: Vec<String> = E2E_PER_SEED
        .iter()
        .filter(|d| d.name != "fail_frac")
        .filter_map(|d| Some(format!("\"{}\": {:?}", d.name, values.get(d.name)?)))
        .collect();
    println!("#per_seed {{{}}}", per_seed.join(", "));
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, E2E, &values)
    );
    correct
}

/// The traced pass: per-layer metrics and the span file.
fn run_traced(w: Workload, seed: u64) -> bool {
    let opts = Opts::timed(seed);
    // three reps: the first (cold caches, fresh pages) only anchors the
    // bit-identity check; tracing overhead compares the two warm ones
    let cold = w.rep(&opts);
    let traced = w.rep(&Opts {
        trace: true,
        ..opts
    });
    let plain = w.rep(&opts);
    let probes = probes::run();

    // tracing is observer-only: every virtual-clock value of the untraced
    // reps must reappear bit for bit in the traced one
    let mut moved = sim_moved(&traced.values, &cold.values);
    moved.extend(sim_moved(&traced.values, &plain.values));
    let mut correct = cold.correct && plain.correct && traced.correct && moved.is_empty();
    if !moved.is_empty() {
        println!("the traced and untraced reps differ on: {moved:?}");
    }

    // virtual-clock numbers and stage means from the traced rep, host
    // numbers from the untraced one
    let mut values = traced.values.clone();
    values.extend(&plain.values.on_clock(Clock::Host));
    values.extend(&probes);
    let cpu = plain.cost.user_s;
    // counts and `rep_user_s` cover the same events: the whole rep
    let events = values.get("simkit.events").unwrap_or(0.0);
    let ns_per_event = plain.rep_user_s * 1e9 / events.max(1.0);
    values.set("simkit.host_ns_per_event", ns_per_event);
    values.set("harness.wall_s", plain.cost.wall_s);
    values.set("harness.sys_s", plain.cost.sys_s);
    values.set(
        "harness.trace_overhead_frac",
        traced.cost.user_s / cpu.max(1e-9) - 1.0,
    );
    values.set(
        "harness.events_share",
        values.get("simkit.probe.timer_ns").unwrap_or(0.0) / ns_per_event.max(1e-9),
    );
    values.set(
        "harness.crc_share",
        plain.payload_bytes as f64
            / (values.get("rkv.probe.crc32c_gbps").unwrap_or(1.0) * 1e9)
            / cpu.max(1e-9),
    );
    for d in E2E_PER_SEED.iter().filter(|d| d.name != "fail_frac") {
        if let Some(v) = cold.values.get(d.name) {
            values.set(&format!("harness.e2e.{}", d.name), v);
        }
    }

    let (recorded, dropped) = traced.spans.counts();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}.trace.json", w.name()));
    let json = traced.spans.to_json(
        w.name(),
        seed,
        &[
            ("traced_host_cpu_s", format!("{:?}", traced.cost.user_s)),
            ("untraced_host_cpu_s", format!("{cpu:?}")),
        ],
    );
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        println!("cannot write {}: {e}", path.display());
        correct = false;
    }

    println!(
        "# {} seed {} — traced pass: {} spans ({} dropped) -> {}",
        w.name(),
        seed,
        recorded,
        dropped,
        path.display()
    );
    print_notes(&traced);
    print!(
        "{}",
        metrics::table("per-layer (- = not defined here)", LAYER, &values)
    );
    println!(
        "{}",
        metrics::result_line(
            correct,
            cold.attempted + plain.attempted + traced.attempted,
            cold.failed + plain.failed + traced.failed,
            LAYER,
            &values
        )
    );
    correct
}

/// `--check`: 1/8 size, every byte verified, run twice untraced and once
/// traced; all three must agree on every virtual-clock value.
fn run_check(only: Option<Workload>) -> bool {
    let mut all_ok = true;
    for w in Workload::ALL {
        if only.is_some_and(|o| o != w) {
            continue;
        }
        let opts = Opts {
            shrink: 8,
            verify_all: true,
            ..Opts::timed(0)
        };
        let a = w.rep(&opts);
        let b = w.rep(&opts);
        let t = w.rep(&Opts {
            trace: true,
            ..opts
        });
        let rerun = a
            .values
            .on_clock(Clock::Sim)
            .diff(&b.values.on_clock(Clock::Sim));
        let traced = sim_moved(&t.values, &a.values);
        let checks = [
            (
                "outputs correct, all bytes verified",
                a.correct && b.correct && t.correct,
            ),
            ("fail_frac = 0", a.failed + b.failed + t.failed == 0),
            (
                "same seed twice: sim_* and counts identical",
                rerun.is_empty(),
            ),
            ("traced == untraced on every sim value", traced.is_empty()),
            ("traced families present and reconciled", t.reconciled),
        ];
        for (what, ok) in checks {
            println!(
                "{:<18} {:<46} {}",
                w.name(),
                what,
                if ok { "ok" } else { "FAILED" }
            );
            all_ok &= ok;
        }
        for (label, names) in [("rerun", &rerun), ("traced", &traced)] {
            if !names.is_empty() {
                println!("  {label} differs on {names:?}");
            }
        }
        for r in [&a, &t] {
            for n in r.notes.iter().filter(|n| n.contains("optrace families")) {
                println!("  {n}");
            }
        }
    }
    println!("check: {}", if all_ok { "PASS" } else { "FAIL" });
    all_ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.probes {
        let probe_defs: Vec<&metrics::MetricDef> = LAYER
            .iter()
            .filter(|d| d.name.contains(".probe."))
            .collect();
        let values = probes::run();
        println!("## layer probes (host: median of 7 batches; sim: exact virtual cost)");
        for d in probe_defs {
            println!(
                "{:<44} {:>14.3} {}",
                d.name,
                values.get(d.name).unwrap_or(f64::NAN),
                d.unit
            );
        }
        true
    } else if args.check {
        run_check(args.workload)
    } else {
        let Some(w) = args.workload else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        if args.trace {
            run_traced(w, args.seed)
        } else {
            run_untraced(w, args.seed, args.seconds)
        }
    };
    // a workload run that printed its result line exits 0 even when the
    // line says `"correct": false`; only `--check` fails through the code
    if ok || !args.check {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
