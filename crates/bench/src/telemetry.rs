//! Harness-side telemetry plumbing: the `repro` command line,
//! representative-cell capture, the structural snapshot check behind
//! `repro --check`, and the tiny JSON reader it and the tests use to
//! validate snapshots without a JSON dependency.
//!
//! Experiment sweeps run one [`Sim`] per cell, so a suite-wide registry
//! cannot exist; instead each experiment captures the snapshot (and,
//! when asked, the Chrome trace) of its *representative* cell — the one
//! its headline claim is about (e.g. BB-Async at the largest size for
//! E4) — and hands it to [`ExpReport::new`].

use std::path::{Path, PathBuf};

use simkit::telemetry::Snapshot;
use simkit::Sim;

use crate::experiments::{ExpReport, Experiment};

/// Telemetry captured from one experiment cell.
pub struct CellTelemetry {
    /// The cell simulation's full metrics snapshot.
    pub snapshot: Snapshot,
    /// Chrome trace-event JSON, when the cell ran with its tracer on.
    pub trace: Option<String>,
}

/// Freeze `sim`'s registry (and export its trace if the tracer is on).
/// Call just before the cell's shutdown, after the measured phases.
pub fn capture_cell(sim: &Sim) -> CellTelemetry {
    let snapshot = sim.metrics().snapshot();
    let trace = if sim.tracer().is_enabled() {
        Some(sim.tracer().export_chrome())
    } else {
        None
    };
    CellTelemetry { snapshot, trace }
}

/// Print a per-shard service-time footer from the representative cell's
/// snapshot: one line per `rkv.server{N}.shard{S}.svc_ns` histogram with
/// its count and p50/p99/p999 in nanoseconds. Silent when the cell
/// carried no shard histograms (non-engine servers) or no snapshot.
pub fn print_shard_footer(report: &ExpReport) {
    use simkit::telemetry::MetricValue;
    let Some(snap) = &report.metrics else { return };
    let names: Vec<&str> = snap
        .names()
        .filter(|n| n.starts_with("rkv.server") && n.contains(".shard") && n.ends_with(".svc_ns"))
        .collect();
    let mut printed_header = false;
    for name in names {
        let Some(MetricValue::Histogram(h)) = snap.get(name) else {
            continue;
        };
        if h.count() == 0 {
            continue;
        }
        if !printed_header {
            println!("per-shard service time (representative cell):");
            printed_header = true;
        }
        println!(
            "  {name}: count={} p50={} ns p99={} ns p999={} ns",
            h.count(),
            h.percentile(50.0).as_nanos(),
            h.percentile(99.0).as_nanos(),
            h.percentile(99.9).as_nanos(),
        );
    }
}

/// The repository root (where `slo/` and `snapshots/` live).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `repro` command line.
pub const USAGE: &str = "usage: repro <ID>|all|--list [--quick] [--check] \
[--metrics-json PATH] [--trace PATH] [--timeline PATH] [--out EXPERIMENTS.md]
  --list prints the ids; --check exits 1 unless the paper shape holds, the
  metrics snapshot passes the experiment's structural checks and, with --quick
  and no --trace, it equals the committed snapshots/metrics_<ID>.json byte for
  byte; the artifact PATHs go with one <ID>, --out (EXPERIMENTS.md plus
  snapshots/) with `all`";

/// What a `repro` invocation runs.
pub enum Target {
    /// `--list`: print the registry's ids.
    List,
    /// `all`: the whole registry, in order.
    All,
    /// One experiment.
    One(&'static Experiment),
}

/// Parsed `repro` options.
pub struct RunOpts {
    /// What to run.
    pub target: Target,
    /// Shrink sweeps for CI-speed runs (`--quick`).
    pub quick: bool,
    /// Gate the exit code on shape, snapshot structure and — for an
    /// untraced `--quick` run — byte identity with `snapshots/` (`--check`).
    pub check: bool,
    /// Write the representative cell's metrics snapshot here
    /// (`--metrics-json PATH`).
    pub metrics_json: Option<PathBuf>,
    /// Trace the representative cell and write Chrome trace-event JSON
    /// here (`--trace PATH`).
    pub trace: Option<PathBuf>,
    /// Write the run's timeline artifact here (`--timeline PATH`).
    pub timeline: Option<PathBuf>,
    /// Write the regenerated EXPERIMENTS.md here (`--out PATH`).
    pub out: Option<PathBuf>,
}

impl RunOpts {
    /// Parse an argument list (without the program name). Anything not
    /// understood is an error, never ignored: a typo'd `--quick` must
    /// not silently run the full sweep.
    pub fn from_args(args: Vec<String>) -> Result<RunOpts, String> {
        let mut target = None;
        let (mut quick, mut check) = (false, false);
        let (mut metrics_json, mut trace, mut timeline, mut out) = (None, None, None, None);
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let mut value = || {
                args.next_if(|v| !v.starts_with('-'))
                    .map(PathBuf::from)
                    .ok_or_else(|| format!("{arg} needs a value"))
            };
            match arg.as_str() {
                "--quick" => quick = true,
                "--check" => check = true,
                "--metrics-json" => metrics_json = Some(value()?),
                "--trace" => trace = Some(value()?),
                "--timeline" => timeline = Some(value()?),
                "--out" => out = Some(value()?),
                what => {
                    let named = match what {
                        "--list" => Target::List,
                        "all" => Target::All,
                        flag if flag.starts_with('-') => {
                            return Err(format!("unknown flag {flag}"));
                        }
                        id => Target::One(
                            Experiment::find(id)
                                .ok_or_else(|| format!("unknown experiment {id}"))?,
                        ),
                    };
                    if target.replace(named).is_some() {
                        return Err(format!("{what}: only one of <ID>, all, --list"));
                    }
                }
            }
        }
        let target = target.ok_or("nothing to run")?;
        if !matches!(target, Target::One(_))
            && (metrics_json.is_some() || trace.is_some() || timeline.is_some())
        {
            return Err("--metrics-json, --trace and --timeline need a single <ID>".into());
        }
        if out.is_some() && !matches!(target, Target::All) {
            return Err("--out needs `all`".into());
        }
        Ok(RunOpts {
            target,
            quick,
            check,
            metrics_json,
            trace,
            timeline,
            out,
        })
    }
}

/// The structural gate behind `repro --check`: the schema marker, every
/// instrumented subsystem's metric family, the row's required prefixes,
/// its expected read-tier chunk count and its SLO budget file (both
/// `--quick` cells only) and, when the text of
/// `snapshots/metrics_<ID>.json` is passed as `committed`, byte identity
/// with it. `Ok` carries a one-line summary, `Err` every violation.
pub fn check_snapshot(
    exp: &Experiment,
    json: &str,
    quick: bool,
    committed: Option<&str>,
) -> Result<String, Vec<String>> {
    let mut failures = Vec::new();
    // v1 snapshots (pre-percentile histograms) stay valid; v2 adds
    // p50/p99/p999 fields to every histogram
    if !json.contains("\"schema\": \"rdma-bb.metrics.v1\"")
        && !json.contains("\"schema\": \"rdma-bb.metrics.v2\"")
    {
        failures.push("missing schema marker rdma-bb.metrics.v1/v2".to_string());
    }
    // every instrumented subsystem must show up in a burst-buffer cell;
    // a KV-only cell has no buffer or Lustre layer but still owes the KV
    // server, shard, and fabric families
    let bb_families: &[&str] = &[
        "bb.read.",
        "bb.mgr.",
        "bb.integrity.",
        "bb.scrub.",
        "bb.pressure.",
        "bb.rebalance.",
        "lustre.",
    ];
    let kv_families: &[&str] = &["rkv.server", "rkv.shard.", "rdma.", "netsim."];
    let bb_families = if exp.kv_only { &[] } else { bb_families };
    for prefix in bb_families.iter().chain(kv_families).chain(exp.require) {
        if !has_metric_prefix(json, prefix) {
            failures.push(format!("no metric under prefix {prefix:?}"));
        }
    }
    let sum: u64 = [
        "bb.read.tier_local",
        "bb.read.tier_buffer",
        "bb.read.tier_lustre",
    ]
    .iter()
    .map(|n| counter_in_json(json, n).unwrap_or(0))
    .sum();
    if let Some(expect) = exp.quick_chunks.filter(|_| quick) {
        if sum != expect {
            failures.push(format!(
                "read-tier counters sum to {sum}, expected {expect} dataset chunks"
            ));
        }
    }
    let mut slo_note = String::new();
    if let Some(slo_path) = exp.slo.filter(|_| quick) {
        let slo = std::fs::read_to_string(repo_root().join(slo_path)).unwrap_or_else(|e| {
            failures.push(format!("{slo_path}: {e}"));
            String::new()
        });
        if !slo.contains("\"schema\": \"rdma-bb.slo.v1\"") {
            failures.push(format!("{slo_path}: missing schema marker rdma-bb.slo.v1"));
        }
        let budgets = parse_slo_budgets(&slo);
        if budgets.is_empty() {
            failures.push(format!("{slo_path}: no budgets parsed"));
        }
        slo_note = format!(", {} SLO budgets honoured", budgets.len());
        for (metric, field, budget) in budgets {
            match histogram_field_in_json(json, &metric, &field) {
                Some(v) if v <= budget => {}
                Some(v) => failures.push(format!(
                    "SLO violation: {metric} {field} = {v} ns exceeds budget {budget} ns"
                )),
                None => failures.push(format!(
                    "SLO budget for {metric} but the snapshot has no such histogram"
                )),
            }
        }
    }
    let mut same_note = "";
    if let Some(committed) = committed {
        match snapshot_drift(json, committed) {
            Ok(()) => same_note = ", byte-identical to snapshots/",
            Err(drift) => failures.push(format!("snapshots/metrics_{}.json: {drift}", exp.id)),
        }
    }
    if failures.is_empty() {
        Ok(format!(
            "schema valid, all subsystem families present, tier sum {sum}{slo_note}{same_note}"
        ))
    } else {
        Err(failures)
    }
}

/// Byte-compare a fresh snapshot with the committed one. On a mismatch
/// `Err` counts the values that moved and names the five that moved most
/// relative to the committed value, as `name before → after` (`-` where
/// the metric exists on one side only; those lead).
pub fn snapshot_drift(fresh: &str, committed: &str) -> Result<(), String> {
    if fresh == committed {
        return Ok(());
    }
    let (after, before) = (snapshot_values(fresh), snapshot_values(committed));
    let mut moved: Vec<(f64, &str, &str, &str)> = after
        .keys()
        .chain(before.keys().filter(|k| !after.contains_key(*k)))
        .filter_map(|name| {
            let (b, a) = (before.get(name).copied(), after.get(name).copied());
            let rel = match (b.map(str::parse::<f64>), a.map(str::parse::<f64>)) {
                _ if a == b => return None,
                (Some(Ok(b)), Some(Ok(a))) if b != 0.0 => ((a - b) / b).abs(),
                _ => f64::INFINITY,
            };
            Some((rel, name.as_str(), b.unwrap_or("-"), a.unwrap_or("-")))
        })
        .collect();
    if moved.is_empty() {
        return Err("the fresh --quick snapshot differs in layout, not in any value".into());
    }
    moved.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(y.1)));
    let top: Vec<String> = moved
        .iter()
        .take(5)
        .map(|(_, name, b, a)| format!("{name} {b} → {a}"))
        .collect();
    Err(format!(
        "the fresh --quick snapshot differs in {} value(s), largest moves: {}",
        moved.len(),
        top.join(", ")
    ))
}

/// Every number of a snapshot JSON, keyed by series: a counter's or
/// gauge's value under the metric's name, each histogram field under
/// `name.field`. A snapshot is one metric per line.
fn snapshot_values(json: &str) -> std::collections::BTreeMap<String, &str> {
    let mut out = std::collections::BTreeMap::new();
    for line in json.lines() {
        let Some((name, body)) = line
            .trim()
            .strip_prefix('"')
            .and_then(|l| l.split_once("\": {"))
        else {
            continue;
        };
        for field in body.trim_end_matches(',').trim_end_matches('}').split(", ") {
            match field.split_once(": ") {
                Some(("\"value\"", v)) => out.insert(name.to_string(), v),
                Some((key, v)) if key != "\"type\"" => {
                    out.insert(format!("{name}.{}", key.trim_matches('"')), v)
                }
                _ => None,
            };
        }
    }
    out
}

/// Read a counter's value out of a snapshot JSON file produced by
/// [`Snapshot::to_json`] — a format-pinned scan, not a JSON parser,
/// which is exactly the point: it double-checks the emitted layout.
pub fn counter_in_json(json: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\": {{\"type\": \"counter\", \"value\": ");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest.find(['}', ','])?;
    rest[..end].trim().parse().ok()
}

/// Whether the snapshot JSON contains any metric whose name starts with
/// `prefix`.
pub fn has_metric_prefix(json: &str, prefix: &str) -> bool {
    json.contains(&format!("\"{prefix}"))
}

/// Read one integer field (`count`, `p99_ns`, …) of a histogram metric
/// out of a snapshot JSON file — the same format-pinned scan as
/// [`counter_in_json`], against the v2 histogram layout.
pub fn histogram_field_in_json(json: &str, name: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{name}\": {{\"type\": \"histogram\", ");
    let at = json.find(&needle)? + needle.len();
    let obj = &json[at..at + json[at..].find('}')?];
    let f = format!("\"{field}\": ");
    let fat = obj.find(&f)? + f.len();
    let rest = &obj[fat..];
    let end = rest.find(',').unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Parse a declarative SLO budget file (`rdma-bb.slo.v1`) into
/// `(metric, histogram_field, budget_ns)` triples. The format is one
/// budget object per line:
///
/// ```text
/// "rkv.lat.get.e2e": {"p99_ns_max": 120000, "p999_ns_max": 400000},
/// ```
///
/// Each `<field>_max` key bounds the snapshot histogram's `<field>`
/// value (`p50_ns`, `p99_ns`, `p999_ns`, `max_ns`).
pub fn parse_slo_budgets(slo: &str) -> Vec<(String, String, u64)> {
    let mut out = Vec::new();
    for line in slo.lines() {
        if !line.contains("_max") || line.contains("\"schema\"") {
            continue;
        }
        let mut quoted = line.split('"').skip(1).step_by(2);
        let Some(metric) = quoted.next() else {
            continue;
        };
        for key in quoted {
            let Some(field) = key.strip_suffix("_max") else {
                continue;
            };
            let tail = &line[line.find(&format!("\"{key}\"")).unwrap() + key.len() + 2..];
            let digits: String = tail
                .chars()
                .skip_while(|c| !c.is_ascii_digit())
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if let Ok(budget) = digits.parse() {
                out.push((metric.to_string(), field.to_string(), budget));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunOpts, String> {
        RunOpts::from_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_parse() {
        let o = parse(&[
            "E4",
            "--quick",
            "--metrics-json",
            "m.json",
            "--trace",
            "t.json",
            "--check",
        ])
        .unwrap();
        assert!(matches!(o.target, Target::One(e) if e.id == "E4"));
        assert!(o.quick && o.check);
        assert_eq!(o.metrics_json.as_deref(), Some(Path::new("m.json")));
        assert_eq!(o.trace.as_deref(), Some(Path::new("t.json")));
        let o = parse(&["all", "--out", "x/EXPERIMENTS.md"]).unwrap();
        assert!(matches!(o.target, Target::All) && !o.quick && !o.check);
        assert!(matches!(parse(&["--list"]).unwrap().target, Target::List));
    }

    #[test]
    fn bad_command_lines_are_rejected_not_ignored() {
        let err = |args: &[&str]| parse(args).err().expect("must be rejected");
        assert_eq!(err(&["E99", "--quick"]), "unknown experiment E99");
        // the typo that used to run the full sweep
        assert_eq!(err(&["E4", "--quik"]), "unknown flag --quik");
        assert_eq!(
            err(&["E4", "--metrics-json"]),
            "--metrics-json needs a value"
        );
        assert_eq!(err(&["E4", "--trace", "--quick"]), "--trace needs a value");
        assert_eq!(err(&["--quick"]), "nothing to run");
        assert!(err(&["E3", "E4"]).contains("only one of"));
        assert!(err(&["all", "--timeline", "t.txt"]).contains("single <ID>"));
        assert!(err(&["E4", "--out", "EXPERIMENTS.md"]).contains("needs `all`"));
    }

    #[test]
    fn counter_scan_reads_emitted_layout() {
        let r = simkit::telemetry::Registry::default();
        r.counter("bb.read.tier_buffer").add(42);
        r.counter("z.other").add(7);
        let json = r.snapshot().to_json();
        assert_eq!(counter_in_json(&json, "bb.read.tier_buffer"), Some(42));
        assert_eq!(counter_in_json(&json, "z.other"), Some(7));
        assert_eq!(counter_in_json(&json, "missing"), None);
        assert!(has_metric_prefix(&json, "bb.read."));
        assert!(!has_metric_prefix(&json, "lustre."));
    }

    #[test]
    fn snapshot_drift_names_the_metrics_that_moved() {
        let snap = |after: bool| {
            let r = simkit::telemetry::Registry::default();
            for (name, before, now) in [
                ("a", 100, 101),
                ("b", 10, 20),
                ("c", 1, 4),
                ("e", 50, 25),
                ("f", 1000, 1001),
                ("same", 3, 3),
            ] {
                r.counter(name).add(if after { now } else { before });
            }
            if after {
                r.counter("d").add(1);
            }
            r.histogram("h").record_ns(if after { 12 } else { 10 });
            r.snapshot().to_json()
        };
        assert_eq!(snapshot_drift(&snap(true), &snap(true)), Ok(()));
        let drift = snapshot_drift(&snap(true), &snap(false)).unwrap_err();
        // one histogram sample moves all six of its fields by 20 %
        assert_eq!(
            drift,
            "the fresh --quick snapshot differs in 12 value(s), largest moves: \
             d - → 1, c 1 → 4, b 10 → 20, e 50 → 25, h.max_ns 10 → 12"
        );
        // the gate reports it against the row's committed file
        let e1 = Experiment::find("E1").unwrap();
        let failures = check_snapshot(e1, &snap(true), true, Some(&snap(false))).unwrap_err();
        assert!(
            failures.contains(&format!("snapshots/metrics_E1.json: {drift}")),
            "{failures:?}"
        );
    }

    #[test]
    fn histogram_scan_reads_emitted_layout() {
        let r = simkit::telemetry::Registry::default();
        let h = r.histogram("rkv.lat.get.e2e");
        for v in [10u64, 20, 30, 40] {
            h.record_ns(v);
        }
        let json = r.snapshot().to_json();
        assert_eq!(
            histogram_field_in_json(&json, "rkv.lat.get.e2e", "count"),
            Some(4)
        );
        assert_eq!(
            histogram_field_in_json(&json, "rkv.lat.get.e2e", "max_ns"),
            Some(40)
        );
        assert!(histogram_field_in_json(&json, "rkv.lat.get.e2e", "p99_ns").is_some());
        assert_eq!(histogram_field_in_json(&json, "missing", "p99_ns"), None);
    }

    #[test]
    fn slo_budgets_parse() {
        let slo = r#"{
  "schema": "rdma-bb.slo.v1",
  "budgets": {
    "rkv.lat.get.e2e": {"p99_ns_max": 120000, "p999_ns_max": 400000},
    "rkv.lat.set.e2e": {"max_ns_max": 9000000}
  }
}"#;
        let budgets = parse_slo_budgets(slo);
        assert_eq!(
            budgets,
            vec![
                ("rkv.lat.get.e2e".into(), "p99_ns".into(), 120000),
                ("rkv.lat.get.e2e".into(), "p999_ns".into(), 400000),
                ("rkv.lat.set.e2e".into(), "max_ns".into(), 9000000),
            ]
        );
    }
}
