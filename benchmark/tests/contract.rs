//! The benchmark against its contract: the metric tables in `src/metrics.rs`
//! and the names a run emits are exactly what `BENCHMARK.json` lists.

use clickinc_benchmark::metrics::{END_TO_END, PER_LAYER};
use clickinc_benchmark::run::{run, RunConfig, RunResult};
use clickinc_benchmark::spec::{Spec, SpecMetric};
use clickinc_benchmark::stats::Better;
use clickinc_benchmark::workloads::NAMES;

fn listed(metrics: &[SpecMetric]) -> Vec<(String, String, Better)> {
    metrics.iter().map(|m| (m.name.clone(), m.unit.clone(), m.better)).collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    assert_eq!(spec.workloads, NAMES);
    let end_to_end: Vec<_> =
        END_TO_END.iter().map(|m| (m.name.to_string(), m.unit.to_string(), m.better)).collect();
    assert_eq!(listed(&spec.end_to_end), end_to_end);
    let per_layer: Vec<_> =
        PER_LAYER.iter().map(|m| (m.name.to_string(), m.unit.to_string(), m.better)).collect();
    assert_eq!(listed(&spec.per_layer), per_layer);
    // the driver's own limits on a run and on a bound
    assert!((1.0..=60.0).contains(&spec.run_seconds));
    for metric in &spec.end_to_end {
        let bound = metric.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} is bounded at {bound}", metric.name);
    }
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
}

/// Names and units of the emitted rows equal the listed ones, every value is a
/// finite number, and the run passed its own output checks.
fn assert_emits(result: &RunResult, listed: &[SpecMetric]) {
    let emitted: Vec<(&str, &str)> =
        result.metrics.iter().map(|row| (row.name.as_str(), row.unit)).collect();
    let expected: Vec<(&str, &str)> =
        listed.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect();
    assert_eq!(emitted, expected);
    for row in &result.metrics {
        assert!(row.value.is_finite(), "{} is {}", row.name, row.value);
    }
    assert!(result.attempted >= 1);
    assert!(result.correct, "{:?}", result.problems);
}

#[test]
fn three_second_smoke_runs_emit_the_listed_names_and_units() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    let config = |workload: &str, traced| RunConfig {
        workload: workload.to_string(),
        seed: 11,
        seconds: 3.0,
        traced,
    };
    // every workload's output checks run, and pass, on the way
    for workload in NAMES {
        assert_emits(&run(config(workload, false)).expect("known workload"), &spec.end_to_end);
    }
    assert_emits(&run(config("deploy_cold", true)).expect("known workload"), &spec.per_layer);
    assert!(run(config("nope", false)).is_err());
}
