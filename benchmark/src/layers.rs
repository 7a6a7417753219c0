//! Per-layer counts and stage means, read from the observers the program
//! already exposes: `Sim::events_processed`, `Sim::metrics().snapshot()`
//! (which carries `ReadStats`/`MgrStats` as `bb.read.*`/`bb.mgr.*`) and
//! `Sim::optrace()`. Everything here covers the rep's whole simulation —
//! setup, measured phase and epilogue — so that, say, the evictions a
//! feeding write caused show on the read workload they shape.

use simkit::telemetry::{MetricValue, Snapshot};
use simkit::Sim;

use crate::metrics::Values;

/// `name` is `{prefix}{digits}{suffix}` — one instance of an
/// instance-labelled family (`rkv.server19.gets`), excluding deeper names
/// that merely share the prefix and suffix (`rkv.tenant.server0.t1.throttled`).
fn is_instance(name: &str, prefix: &str, suffix: &str) -> bool {
    name.strip_prefix(prefix)
        .and_then(|r| r.strip_suffix(suffix))
        .is_some_and(|mid| !mid.is_empty() && mid.bytes().all(|b| b.is_ascii_digit()))
}

fn family_sum(snap: &Snapshot, prefix: &str, suffix: &str) -> u64 {
    snap.names()
        .filter(|n| is_instance(n, prefix, suffix))
        .map(|n| snap.counter(n))
        .sum()
}

/// `(samples, total ns)` over every `{prefix}…{suffix}` histogram.
fn histogram_totals(snap: &Snapshot, prefix: &str, suffix: &str) -> (u64, u128) {
    let mut count = 0u64;
    let mut sum = 0u128;
    for n in snap.names() {
        if !(n.starts_with(prefix) && n.ends_with(suffix)) {
            continue;
        }
        if let Some(MetricValue::Histogram(h)) = snap.get(n) {
            count += h.count();
            sum += h.mean().as_nanos() * h.count() as u128;
        }
    }
    (count, sum)
}

/// Read every observer of a finished rep into `out`: the layer counts
/// and, when the rep was `traced`, the `optrace` stage means. Returns
/// whether, in a traced rep, every family that recorded an op reconciled
/// exactly and every family of `must_trace` (the ones the workload cannot
/// run without, e.g. `"bb.lat.write_chunk"`) did record one — so a tracer
/// that silently stops recording fails the rep. The offenders are noted.
pub fn observe(
    sim: &Sim,
    traced: bool,
    must_trace: &[&str],
    out: &mut Values,
    notes: &mut Vec<String>,
) -> bool {
    counts(sim, out);
    if !traced {
        return true;
    }
    let Traced { exact, broken } = stages(sim, out);
    let silent: Vec<&&str> = must_trace
        .iter()
        .filter(|f| !exact.iter().any(|e| e == **f))
        .collect();
    if !broken.is_empty() {
        notes.push(format!("optrace families not reconciled: {broken:?}"));
    }
    if !silent.is_empty() {
        notes.push(format!(
            "optrace families without an exact reconciliation: {silent:?}"
        ));
    }
    notes.push(format!("optrace families reconciled exactly: {exact:?}"));
    broken.is_empty() && silent.is_empty()
}

/// Bytes the design moved for the user's bytes: fabric traffic plus what
/// Lustre wrote (numerator of `sim_bytes_per_user_byte`).
pub fn bytes_moved(values: &Values) -> f64 {
    values.get("netsim.bytes").unwrap_or(0.0) + values.get("lustre.write_bytes").unwrap_or(0.0)
}

/// No chunk lost, no checksum failure.
pub fn intact(values: &Values) -> bool {
    values.get("bb-core.chunks_lost") == Some(0.0)
        && values.get("bb-core.checksum_fail") == Some(0.0)
}

/// Fill `out` with every layer count of `sim` since it was built.
fn counts(sim: &Sim, out: &mut Values) {
    let snap = sim.metrics().snapshot();
    let c = |name: &str| snap.counter(name) as f64;
    let fam = |prefix: &str, suffix: &str| family_sum(&snap, prefix, suffix) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    out.set("simkit.events", sim.events_processed() as f64);

    out.set("netsim.transfers", c("netsim.fabric.transfers"));
    out.set("netsim.bytes", c("netsim.fabric.bytes"));
    out.set("netsim.rpc_calls", c("netsim.rpc.calls"));

    out.set("rdmasim.send_posts", c("rdma.send_posts"));
    out.set("rdmasim.read_posts", c("rdma.read_posts"));
    out.set("rdmasim.write_posts", c("rdma.write_posts"));
    out.set("rdmasim.read_bytes", c("rdma.read_bytes"));
    out.set("rdmasim.cq_polls", c("rdma.cq.polls"));
    out.set(
        "rdmasim.cq_batch_mean",
        ratio(c("rdma.cq.completions"), c("rdma.cq.polls")),
    );

    let gets = fam("rkv.server", ".gets");
    out.set("rkv.gets", gets);
    out.set("rkv.sets", fam("rkv.server", ".sets"));
    out.set("rkv.hit_ratio", ratio(fam("rkv.server", ".hits"), gets));
    out.set("rkv.evictions", fam("rkv.server", ".evictions"));
    let (ops, ns) = histogram_totals(&snap, "rkv.server", ".svc_ns");
    out.set("rkv.svc_sim_ns_per_op", ratio(ns as f64, ops as f64));
    out.set("rkv.client_retries", c("kv.retry.attempts"));
    out.set(
        "rkv.hot_replica_hits",
        fam("rkv.hot.server", ".replica_hits"),
    );
    out.set("rkv.throttled", fam("rkv.tenant.server", ".throttled"));

    out.set("lustre.write_bytes", fam("lustre.oss", ".write_bytes"));
    out.set("lustre.read_bytes", fam("lustre.oss", ".read_bytes"));
    out.set("lustre.write_ops", fam("lustre.oss", ".write_ops"));
    out.set("lustre.read_ops", fam("lustre.oss", ".read_ops"));
    out.set(
        "lustre.queue_peak",
        snap.names()
            .filter(|n| is_instance(n, "lustre.oss", ".queue_peak"))
            .map(|n| snap.gauge(n))
            .max()
            .unwrap_or(0) as f64,
    );
    out.set("lustre.mds_ops", c("lustre.mds.ops"));

    out.set("bb-core.chunks_flushed", c("bb.mgr.chunks_flushed"));
    out.set("bb-core.bytes_flushed", c("bb.mgr.bytes_flushed"));
    out.set("bb-core.chunks_direct", c("bb.mgr.chunks_direct"));
    out.set("bb-core.chunks_lost", c("bb.mgr.chunks_lost"));
    out.set("bb-core.watermark_stalls", c("bb.mgr.watermark_stalls"));
    out.set("bb-core.pressure_enters", c("bb.pressure.enter"));
    out.set("bb-core.writethrough", c("bb.pressure.writethrough"));
    out.set("bb-core.tier_buffer", c("bb.read.tier_buffer"));
    out.set("bb-core.tier_lustre", c("bb.read.tier_lustre"));
    out.set("bb-core.tier_local", c("bb.read.tier_local"));
    let multi_gets = c("bb.read.multi_gets");
    out.set("bb-core.multi_gets", multi_gets);
    out.set(
        "bb-core.multi_get_batch_mean",
        ratio(c("bb.read.multi_get_keys"), multi_gets),
    );
    out.set("bb-core.readahead_stalls", c("bb.read.readahead_stalls"));
    out.set("bb-core.checksum_fail", c("bb.integrity.checksum_fail"));
    out.set("bb-core.scrub_scanned", c("bb.scrub.scanned"));
    out.set("bb-core.rebalance_moved", c("bb.rebalance.moved"));
    out.set("bb-core.rebalance_bytes", c("bb.rebalance.bytes"));
    out.set(
        "bb-core.rebalance_verify_fail",
        c("bb.rebalance.verify_fail"),
    );
}

/// Stage labels of the traced families, as `(series stage, metric name)`.
const RKV_GET_STAGES: &[(&str, &str)] = &[
    ("client_queue", "rkv.lat.get.client_queue_us"),
    ("net_in", "rkv.lat.get.net_in_us"),
    ("cq_wait", "rkv.lat.get.cq_wait_us"),
    ("shard_queue", "rkv.lat.get.shard_queue_us"),
    ("service", "rkv.lat.get.service_us"),
    ("reply_reorder", "rkv.lat.get.reply_reorder_us"),
    ("net_back", "rkv.lat.get.net_back_us"),
];
const BB_WRITE_STAGES: &[(&str, &str)] = &[
    ("kv_put", "bb-core.lat.write_chunk.kv_put_us"),
    ("pin", "bb-core.lat.write_chunk.pin_us"),
    ("ack", "bb-core.lat.write_chunk.ack_us"),
    ("kv_join", "bb-core.lat.write_chunk.kv_join_us"),
    ("lustre_write", "bb-core.lat.write_chunk.lustre_write_us"),
];
const BB_READ_STAGES: &[(&str, &str)] = &[
    ("permit_wait", "bb-core.lat.read_group.permit_wait_us"),
    ("kv_fetch", "bb-core.lat.read_group.kv_fetch_us"),
    ("local_join", "bb-core.lat.read_group.local_join_us"),
    ("lustre_fetch", "bb-core.lat.read_group.lustre_fetch_us"),
    ("cpu", "bb-core.lat.read_group.cpu_us"),
];

/// The traced families (`{fam}.lat.{class}`) that recorded an op, split
/// by whether their stage sums telescoped exactly to their end-to-end sum.
struct Traced {
    exact: Vec<String>,
    broken: Vec<String>,
}

/// Fill `out` with the `optrace` stage means (µs per finished op of the
/// class, over the whole traced rep) and reconcile every traced family.
fn stages(sim: &Sim, out: &mut Values) -> Traced {
    let tracer = sim.optrace();
    let mut traced = Traced {
        exact: Vec::new(),
        broken: Vec::new(),
    };
    let mut family = |fam: &str, class: &str, stages: &[(&str, &str)]| {
        let base = format!("{fam}.lat.{class}");
        let Some((ops, _)) = tracer.series_stats(&format!("{base}.e2e")) else {
            return;
        };
        for (stage, metric) in stages {
            let sum = tracer
                .series_stats(&format!("{base}.{stage}"))
                .map_or(0, |(_, sum)| sum);
            out.set(metric, sum as f64 / ops as f64 / 1e3);
        }
        if tracer.reconcile(fam, class).is_some_and(|r| r.exact()) {
            traced.exact.push(base);
        } else {
            traced.broken.push(base);
        }
    };
    family("rkv", "get", RKV_GET_STAGES);
    family("rkv", "set", &[]);
    family("rkv", "multi_get", &[]);
    family("bb", "write_chunk", BB_WRITE_STAGES);
    family("bb", "read_group", BB_READ_STAGES);
    if tracer.series_stats("rkv.lat.get.e2e").is_some() {
        out.set(
            "rkv.lat.get.e2e_p99_us",
            tracer.series_percentile("rkv.lat.get.e2e", 99.0) as f64 / 1e3,
        );
    }
    traced
}
