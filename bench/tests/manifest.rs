//! `BENCHMARK.json` and what a run prints name the same metrics.

use saps_perfbench::json::{parse, Value};
use saps_perfbench::{metrics, runner, workloads};
use std::collections::BTreeSet;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")).unwrap()
}

fn names(section: &Value) -> BTreeSet<String> {
    section
        .as_arr()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn the_committed_manifest_is_the_generated_one() {
    assert_eq!(manifest(), parse(&metrics::manifest_json()).unwrap());
}

#[test]
fn manifest_obeys_the_contract_limits() {
    let m = manifest();
    let keys: Vec<&str> = m.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let declared: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
    let listed: Vec<&str> = m
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(listed, declared);
    let e2e = m.get("end_to_end").unwrap();
    assert!(e2e.as_arr().iter().all(|d| {
        let b = d.get("bound").and_then(Value::as_f64).unwrap();
        (0.0..=0.25).contains(&b)
    }));
    assert!(names(e2e).contains("setup_s"));
    let layers = names(m.get("per_layer").unwrap());
    assert!(layers.len() <= 128 && names(e2e).len() <= 16);
    for name in names(e2e).iter().chain(&layers) {
        assert!(well_formed(name), "{name}");
    }
    for section in ["end_to_end", "per_layer"] {
        for d in m.get(section).unwrap().as_arr() {
            let unit = d.get("unit").and_then(Value::as_str).unwrap();
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }
}

/// Runs the smallest workload both ways (a fraction of a second each) and
/// holds the printed metric names against the declared ones.
#[test]
fn printed_metrics_equal_declared_metrics_in_both_directions() {
    let m = manifest();
    let spec = workloads::by_name("serve-swap").unwrap();

    let run = runner::run(&spec, 1, 0.2).unwrap();
    assert!(run.correct, "{:?}", run.findings);
    assert_eq!(run.failed, 0);
    let printed: BTreeSet<String> = run.metrics.keys().cloned().collect();
    assert_eq!(printed, names(m.get("end_to_end").unwrap()));
    assert!(run.metrics.values().all(|v| v.is_finite() && *v != 0.0));

    let traced = runner::run_traced(&spec, 1, 0.2).unwrap();
    assert!(traced.correct, "{:?}", traced.findings);
    let printed: BTreeSet<String> = traced.metrics.keys().cloned().collect();
    assert_eq!(printed, names(m.get("per_layer").unwrap()));
    assert_eq!(traced.input_digest, run.input_digest);
}
