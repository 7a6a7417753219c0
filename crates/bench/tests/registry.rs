//! The experiment registry against what is committed beside it:
//! EXPERIMENTS.md, `snapshots/` and `slo/` must all name exactly the
//! experiments `REGISTRY` does.

use std::collections::BTreeSet;
use std::path::Path;

use bench::experiments::{Experiment, REGISTRY};
use bench::telemetry::{check_snapshot, repo_root};

/// File names in `dir` (relative to the repo root), sorted.
fn files_in(dir: &str) -> BTreeSet<String> {
    std::fs::read_dir(repo_root().join(dir))
        .unwrap_or_else(|e| panic!("read {dir}/: {e}"))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect()
}

#[test]
fn ids_are_the_sections_of_experiments_md_in_order() {
    let md = std::fs::read_to_string(repo_root().join("EXPERIMENTS.md")).unwrap();
    let sections: Vec<&str> = md
        .lines()
        .filter_map(|l| l.strip_prefix("### "))
        .map(|title| title.split(':').next().unwrap())
        .collect();
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    // equal sequences: every id has its section, none twice, same order
    assert_eq!(ids, sections);
    assert_eq!(ids.iter().collect::<BTreeSet<_>>().len(), ids.len());
    for exp in REGISTRY {
        assert_eq!(Experiment::find(exp.id).map(|e| e.title), Some(exp.title));
    }
}

#[test]
fn every_simulated_experiment_has_a_committed_snapshot_that_passes_its_checks() {
    // AB4 is a pure hashing study: no simulation cell, so no snapshot
    let ab4 = Experiment::find("AB4").unwrap();
    assert!((ab4.run)(true, false).metrics.is_none());
    let mut expected: BTreeSet<String> = REGISTRY
        .iter()
        .filter(|e| e.id != "AB4")
        .map(|e| format!("metrics_{}.json", e.id))
        .collect();
    // beside them, the yardstick's virtual-time goldens (tools/simclock.sh)
    expected.insert("simclock".into());
    assert_eq!(files_in("snapshots"), expected);
    // the committed snapshots come from `repro all --quick`
    for exp in REGISTRY.iter().filter(|e| e.id != "AB4") {
        let path = repo_root().join(format!("snapshots/metrics_{}.json", exp.id));
        let json = std::fs::read_to_string(path).unwrap();
        if let Err(failures) = check_snapshot(exp, &json, true, None) {
            panic!("{}: {failures:?}", exp.id);
        }
    }
}

#[test]
fn every_slo_file_belongs_to_exactly_one_experiment() {
    let referenced: Vec<String> = REGISTRY
        .iter()
        .filter_map(|e| e.slo)
        .map(|p| {
            assert_eq!(Path::new(p).parent(), Some(Path::new("slo")), "{p}");
            Path::new(p).file_name().unwrap().to_str().unwrap().into()
        })
        .collect();
    let unique: BTreeSet<String> = referenced.iter().cloned().collect();
    assert_eq!(unique.len(), referenced.len(), "an SLO file gates two rows");
    assert_eq!(unique, files_in("slo"));
}

#[test]
fn check_reports_every_violation_of_a_row() {
    let ab10 = Experiment::find("AB10").unwrap();
    let failures = check_snapshot(ab10, "{}", true, None).unwrap_err();
    for expect in [
        "schema marker",
        "\"rkv.server\"",
        "\"rkv.lat.\"",
        "SLO budget for",
    ] {
        assert!(
            failures.iter().any(|f| f.contains(expect)),
            "no {expect:?} failure in {failures:?}"
        );
    }
    // a KV-only row owes no burst-buffer family
    assert!(!failures.iter().any(|f| f.contains("bb.read.")));
    // SLO budgets are the --quick cell's: the full cell owes the
    // structural checks alone
    let failures = check_snapshot(ab10, "{}", false, None).unwrap_err();
    assert!(failures.iter().any(|f| f.contains("schema marker")));
    assert!(
        !failures.iter().any(|f| f.contains("SLO")),
        "a --quick budget gated the full cell: {failures:?}"
    );
}
