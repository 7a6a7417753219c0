//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit, direction and clock. `BENCHMARK.json`
//! lists the names of [`E2E`] and [`LAYER`] and holds the driver's bounds;
//! `compare.py` holds the per-seed bounds.
//!
//! Two clocks. `Clock::Sim` values are virtual time or counts of the
//! modelled cluster: a pure function of code + seed, bit-identical between
//! runs. `Clock::Host` values are what the simulator costs to run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Virtual time / deterministic counts.
    Sim,
    /// Host time / memory of the simulator process.
    Host,
}

/// One catalogued metric.
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Clock.
    pub clock: Clock,
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock: Clock::Sim,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock: Clock::Host,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics that every workload reports with a value of
/// its own on every run: the `end_to_end` list of `BENCHMARK.json`, gated by
/// the driver on medians over seeds (it wants every listed metric on every
/// workload, never zero, and refuses a time that reads the same on every
/// run).
pub const E2E: &[MetricDef] = &[
    host("setup_s", "s", Lower),
    host("host_cpu_s", "s", Lower),
    host("host_rss_mb", "MiB", Lower),
    host("host_minflt_k", "kfaults", Lower),
    sim("sim_s", "s", Lower),
    sim("sim_bytes_per_user_byte", "ratio", Lower),
];

/// The other six end-to-end metrics, which the driver's list cannot hold:
/// they exist on some workloads only (a missing one is "not defined",
/// never zero), or, like every 1 MiB append of `dfsio_write` taking
/// exactly 19 065.018 µs, read the same on every seed, or are zero by
/// design (`fail_frac`). Every untraced run prints them, `compare.py`
/// gates them per seed, the first five travel to the driver as
/// `harness.e2e.*` layer metrics and `fail_frac` as the result line's
/// `failed`/`attempted`.
pub const E2E_PER_SEED: &[MetricDef] = &[
    sim("sim_op_p50_us", "us", Lower),
    sim("sim_op_p99_us", "us", Lower),
    sim("sim_op_p999_us", "us", Lower),
    sim("sim_max_rate_kops", "kops/s", Higher),
    sim("sim_flush_lag_s", "s", Lower),
    sim("fail_frac", "ratio", Lower),
];

/// Per-layer metrics (layer = crate), the `per_layer` list of
/// `BENCHMARK.json`. Counts are read from `Sim::metrics().snapshot()`,
/// `ReadStats` and `JobReport` over the measured phase; spans are timed
/// by the benchmark around its own calls; stage metrics are mean µs per op
/// of an `optrace` stage; probes are isolated micro-runs of a crate's
/// public functions.
pub const LAYER: &[MetricDef] = &[
    // simkit
    sim("simkit.events", "count", Lower),
    host("simkit.host_ns_per_event", "ns", Lower),
    host("simkit.probe.timer_ns", "ns", Lower),
    host("simkit.probe.spawn_ns", "ns", Lower),
    host("simkit.probe.chan_ns", "ns", Lower),
    host("simkit.probe.sem_ns", "ns", Lower),
    // netsim
    sim("netsim.transfers", "count", Lower),
    sim("netsim.bytes", "bytes", Lower),
    sim("netsim.rpc_calls", "count", Lower),
    host("netsim.probe.transfer_4k_ns", "ns", Lower),
    host("netsim.probe.transfer_512k_ns", "ns", Lower),
    sim("netsim.probe.transfer_512k_sim_us", "us", Lower),
    // rdmasim
    sim("rdmasim.send_posts", "count", Lower),
    sim("rdmasim.read_posts", "count", Lower),
    sim("rdmasim.write_posts", "count", Lower),
    sim("rdmasim.read_bytes", "bytes", Lower),
    sim("rdmasim.cq_polls", "count", Lower),
    sim("rdmasim.cq_batch_mean", "count", Higher),
    host("rdmasim.probe.send_recv_ns", "ns", Lower),
    host("rdmasim.probe.read_512k_ns", "ns", Lower),
    sim("rdmasim.probe.read_512k_sim_us", "us", Lower),
    // storesim
    host("storesim.probe.obj_write_1m_ns", "ns", Lower),
    host("storesim.probe.obj_read_1m_ns", "ns", Lower),
    sim("storesim.probe.hdd_write_1m_sim_us", "us", Lower),
    // rkv
    sim("rkv.gets", "count", Lower),
    sim("rkv.sets", "count", Lower),
    sim("rkv.hit_ratio", "ratio", Higher),
    sim("rkv.evictions", "count", Lower),
    sim("rkv.svc_sim_ns_per_op", "ns", Lower),
    sim("rkv.client_retries", "count", Lower),
    sim("rkv.hot_replica_hits", "count", Higher),
    sim("rkv.throttled", "count", Lower),
    sim("rkv.lat.get.client_queue_us", "us", Lower),
    sim("rkv.lat.get.net_in_us", "us", Lower),
    sim("rkv.lat.get.cq_wait_us", "us", Lower),
    sim("rkv.lat.get.shard_queue_us", "us", Lower),
    sim("rkv.lat.get.service_us", "us", Lower),
    sim("rkv.lat.get.reply_reorder_us", "us", Lower),
    sim("rkv.lat.get.net_back_us", "us", Lower),
    sim("rkv.lat.get.e2e_p99_us", "us", Lower),
    host("rkv.probe.crc32c_gbps", "GB/s", Higher),
    host("rkv.probe.slab_alloc_free_4k_ns", "ns", Lower),
    host("rkv.probe.store_set_4k_ns", "ns", Lower),
    host("rkv.probe.store_get_4k_ns", "ns", Lower),
    host("rkv.probe.store_set_evict_16k_ns", "ns", Lower),
    host("rkv.probe.proto_encode_4k_ns", "ns", Lower),
    host("rkv.probe.proto_decode_4k_ns", "ns", Lower),
    host("rkv.probe.ring_route_ns", "ns", Lower),
    host("rkv.probe.client_get_128_ns", "ns", Lower),
    host("rkv.probe.client_get_128_engine_ns", "ns", Lower),
    host("rkv.probe.client_set_512k_ns", "ns", Lower),
    host("rkv.probe.client_get_512k_ns", "ns", Lower),
    sim("rkv.probe.get_4k_sim_us", "us", Lower),
    sim("rkv.probe.set_4k_sim_us", "us", Lower),
    sim("rkv.probe.get_512k_sim_us", "us", Lower),
    // lustre
    sim("lustre.write_bytes", "bytes", Lower),
    sim("lustre.read_bytes", "bytes", Lower),
    sim("lustre.write_ops", "count", Lower),
    sim("lustre.read_ops", "count", Lower),
    sim("lustre.queue_peak", "count", Lower),
    sim("lustre.mds_ops", "count", Lower),
    host("lustre.probe.write_1m_ns", "ns", Lower),
    host("lustre.probe.read_1m_ns", "ns", Lower),
    sim("lustre.probe.write_sim_mbps", "MB/s", Higher),
    sim("lustre.probe.read_sim_mbps", "MB/s", Higher),
    // hdfs
    host("hdfs.probe.write_1m_ns", "ns", Lower),
    host("hdfs.probe.read_1m_ns", "ns", Lower),
    sim("hdfs.probe.write_sim_mbps", "MB/s", Higher),
    sim("hdfs.probe.read_sim_mbps", "MB/s", Higher),
    // bb-core
    host("bb-core.append_host_us", "us", Lower),
    host("bb-core.read_host_us", "us", Lower),
    sim("bb-core.create_sim_us", "us", Lower),
    sim("bb-core.close_sim_us", "us", Lower),
    sim("bb-core.open_sim_us", "us", Lower),
    sim("bb-core.append_sim_p99_us", "us", Lower),
    sim("bb-core.chunks_flushed", "count", Lower),
    sim("bb-core.bytes_flushed", "bytes", Lower),
    sim("bb-core.chunks_direct", "count", Lower),
    sim("bb-core.chunks_lost", "count", Lower),
    sim("bb-core.watermark_stalls", "count", Lower),
    sim("bb-core.pressure_enters", "count", Lower),
    sim("bb-core.writethrough", "count", Lower),
    sim("bb-core.tier_buffer", "count", Higher),
    sim("bb-core.tier_lustre", "count", Lower),
    sim("bb-core.tier_local", "count", Higher),
    sim("bb-core.multi_gets", "count", Lower),
    sim("bb-core.multi_get_batch_mean", "count", Higher),
    sim("bb-core.readahead_stalls", "count", Lower),
    sim("bb-core.checksum_fail", "count", Lower),
    sim("bb-core.scrub_scanned", "count", Lower),
    sim("bb-core.rebalance_moved", "count", Lower),
    sim("bb-core.rebalance_bytes", "bytes", Lower),
    sim("bb-core.rebalance_verify_fail", "count", Lower),
    sim("bb-core.rebalance_drain_sim_s", "s", Lower),
    sim("bb-core.lat.write_chunk.kv_put_us", "us", Lower),
    sim("bb-core.lat.write_chunk.pin_us", "us", Lower),
    sim("bb-core.lat.write_chunk.ack_us", "us", Lower),
    sim("bb-core.lat.write_chunk.kv_join_us", "us", Lower),
    sim("bb-core.lat.write_chunk.lustre_write_us", "us", Lower),
    sim("bb-core.lat.read_group.permit_wait_us", "us", Lower),
    sim("bb-core.lat.read_group.kv_fetch_us", "us", Lower),
    sim("bb-core.lat.read_group.local_join_us", "us", Lower),
    sim("bb-core.lat.read_group.lustre_fetch_us", "us", Lower),
    sim("bb-core.lat.read_group.cpu_us", "us", Lower),
    // mapred
    sim("mapred.teragen_sim_s", "s", Lower),
    sim("mapred.map_phase_sim_s", "s", Lower),
    sim("mapred.reduce_phase_sim_s", "s", Lower),
    sim("mapred.maps", "count", Lower),
    sim("mapred.local_maps", "count", Higher),
    sim("mapred.bytes_shuffled", "bytes", Lower),
    sim("mapred.bytes_written", "bytes", Lower),
    host("mapred.host_ns_per_byte", "ns", Lower),
    // workloads
    sim("workloads.sim_mb_per_s", "MB/s", Higher),
    sim("workloads.gen_late_p99_us", "us", Lower),
    sim("workloads.gen_late_frac", "ratio", Lower),
    host("workloads.probe.traffic_gen_ns", "ns", Lower),
    host("workloads.probe.zipf_sample_ns", "ns", Lower),
    host("workloads.probe.payload_ns_per_mib", "ns", Lower),
    // harness (diagnostics of the benchmark itself)
    host("harness.wall_s", "s", Lower),
    host("harness.sys_s", "s", Lower),
    host("harness.trace_overhead_frac", "ratio", Lower),
    host("harness.events_share", "ratio", Lower),
    host("harness.crc_share", "ratio", Lower),
    // the per-seed end-to-end metrics, as measured by the cold untraced
    // rep of the traced run (see `E2E_PER_SEED`)
    sim("harness.e2e.sim_op_p50_us", "us", Lower),
    sim("harness.e2e.sim_op_p99_us", "us", Lower),
    sim("harness.e2e.sim_op_p999_us", "us", Lower),
    sim("harness.e2e.sim_max_rate_kops", "kops/s", Higher),
    sim("harness.e2e.sim_flush_lag_s", "s", Lower),
];

/// Look a metric up in any of the three lists.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    E2E.iter()
        .chain(E2E_PER_SEED)
        .chain(LAYER)
        .find(|d| d.name == name)
}

/// A set of measured values keyed by catalogued name. A metric that is
/// not defined on a workload is simply absent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `name = value`. Panics on a name missing from the catalogue
    /// (a typo would otherwise silently drop a metric).
    pub fn set(&mut self, name: &str, value: f64) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.0.insert(d.name, value);
    }

    /// Value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Fold `other` in (its values win).
    pub fn extend(&mut self, other: &Values) {
        for (k, v) in &other.0 {
            self.0.insert(k, *v);
        }
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }

    /// The subset measured on `clock`.
    pub fn on_clock(&self, clock: Clock) -> Values {
        Values(
            self.0
                .iter()
                .filter(|(k, _)| def(k).is_some_and(|d| d.clock == clock))
                .map(|(k, v)| (*k, *v))
                .collect(),
        )
    }

    /// Names whose values differ bit-for-bit between `self` and `other`
    /// (or exist on one side only).
    pub fn diff(&self, other: &Values) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.0.keys().chain(other.0.keys()).copied().collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .filter(|n| self.0.get(n).map(|v| v.to_bits()) != other.0.get(n).map(|v| v.to_bits()))
            .collect()
    }
}

/// Shortest decimal that round-trips (`{:?}` on f64), so a measured value
/// keeps all its digits.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite");
    format!("{v:?}")
}

/// The driver's result line: `correct`, `attempted`, `failed` and one
/// entry per metric of `list` (a metric not defined on this workload is
/// reported as 0 — the driver wants every listed name present).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    list: &[MetricDef],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in list.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            d.name,
            num(values.get(d.name).unwrap_or(0.0)),
            d.unit
        );
    }
    out.push_str("}}");
    out
}

/// Human-readable table: one row per metric of `list`, `-` when the
/// metric is not defined on this workload.
pub fn table(title: &str, list: &[MetricDef], values: &Values) -> String {
    let mut out = format!("## {title}\n");
    for d in list {
        let v = match values.get(d.name) {
            Some(v) if v.abs() >= 1e6 || v.fract() == 0.0 => format!("{v:.0}"),
            Some(v) => format!("{v:.4}"),
            None => "-".into(),
        };
        let _ = writeln!(
            out,
            "{:<44} {:>16} {:<8} {} is better, {} clock",
            d.name,
            v,
            d.unit,
            d.better.label(),
            if d.clock == Clock::Sim { "sim" } else { "host" }
        );
    }
    out
}
