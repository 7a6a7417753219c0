//! Shard-per-core server acceptance suite (fault-free, deterministic):
//! the default configuration is byte-identical to an explicit
//! `cores = 1, cq_batch = 1` one (the engine gate), same-config engine
//! runs are byte-identical to each other, the AB9 core-scaling shape
//! (≥ 3.2x get throughput from 1 → 4 modeled cores) holds.

use bench::experiments::kvserver::engine_cell;
use bench::telemetry::has_metric_prefix;
use rkv::server::KvServerConfig;

/// Run one engine cell and return (get Kops/s, set Kops/s, metrics JSON).
fn cell(config: KvServerConfig) -> (f64, f64, String) {
    let (get_kops, set_kops, telem) = engine_cell(config, 16, 120, true, false);
    (
        get_kops,
        set_kops,
        telem.expect("capture requested").snapshot.to_json(),
    )
}

/// The engine gate: the default config and an explicitly spelled-out
/// `cores = 1, cq_batch = 1` config take the same (legacy) code path and
/// produce byte-identical metrics — the seed's E2 numbers are untouched.
#[test]
fn default_config_is_byte_identical_to_explicit_single_context() {
    let a = cell(KvServerConfig::default());
    let b = cell(KvServerConfig {
        cores: 1,
        cq_batch: 1,
        ..KvServerConfig::default()
    });
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2, "engine gate must not perturb the default path");
}

/// Same seed, same config → byte-identical snapshots, with the engine on.
#[test]
fn same_seed_engine_runs_are_byte_identical() {
    let cfg = KvServerConfig {
        cores: 4,
        cq_batch: 16,
        ..KvServerConfig::default()
    };
    let a = cell(cfg);
    let b = cell(cfg);
    assert_eq!(a.2, b.2, "engine must be deterministic");
}

/// The tentpole claim: single-server get throughput scales ≥ 3.2x from
/// 1 to 4 modeled cores, and the engine snapshot carries the per-shard
/// and CQ-batching telemetry.
#[test]
fn four_cores_scale_get_throughput_at_least_3_2x() {
    let one = cell(KvServerConfig {
        cores: 1,
        cq_batch: 16,
        ..KvServerConfig::default()
    });
    let four = cell(KvServerConfig {
        cores: 4,
        cq_batch: 16,
        ..KvServerConfig::default()
    });
    let get_scaling = four.0 / one.0.max(1e-12);
    let set_scaling = four.1 / one.1.max(1e-12);
    assert!(
        get_scaling >= 3.2,
        "get scaling 1→4 cores was {get_scaling:.2}x, need ≥ 3.2x"
    );
    assert!(
        set_scaling >= 3.2,
        "set scaling 1→4 cores was {set_scaling:.2}x, need ≥ 3.2x"
    );
    for prefix in ["rkv.shard.", "rdma.cq."] {
        assert!(
            has_metric_prefix(&four.2, prefix),
            "engine snapshot must carry {prefix:?}"
        );
    }
}
