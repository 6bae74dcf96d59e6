//! Self-tests: metric names, replay fidelity and result-file verdicts.

use crate::replay;
use crate::run;
use crate::spec::{spec, BENCHMARK_JSON};
use crate::workloads::{digest, Workload};
use serde::Value;
use sp_experiments::{run_autopilot, run_sweep, AutopilotConfig, SweepConfig};

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_names_are_well_formed_and_match_the_workloads() {
    let s = spec();
    let mut names: Vec<&str> =
        s.end_to_end.iter().chain(&s.per_layer).map(|m| m.name.as_str()).collect();
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    names.extend(workloads);
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "names are used once");
    assert!(s.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(s.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
}

/// The metrics a real run produces are exactly the ones `BENCHMARK.json`
/// names, in both modes.
#[test]
fn runs_produce_exactly_the_declared_metrics() {
    let s = spec();
    let names = |run: &run::Run| {
        let mut v: Vec<String> = run.metrics.iter().map(|(n, _)| n.to_string()).collect();
        v.sort();
        v
    };
    let declared = |specs: &[crate::spec::MetricSpec]| {
        let mut v: Vec<String> = specs.iter().map(|m| m.name.clone()).collect();
        v.sort();
        v
    };
    let measured = run::measure(Workload::PaperFigures, 1, 0.0);
    assert_eq!(names(&measured), declared(&s.end_to_end));
    assert_eq!(measured.failed, 0, "{:?}", measured.failures);
    assert!(measured.metrics.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
    let traced = run::traced(Workload::PaperFigures, 1, 0.0);
    assert_eq!(names(&traced), declared(&s.per_layer));
    assert_eq!(traced.failed, 0, "{:?}", traced.failures);
}

#[test]
fn sweep_replay_reproduces_run_sweep() {
    let cfg = SweepConfig {
        samples_per_cell: 300,
        warm_samples: 128,
        ..SweepConfig::canonical(6).with_workers(2)
    };
    let real = run_sweep(&cfg).0;
    assert_eq!(digest(&replay::sweep(&cfg)), digest(&real));
}

#[test]
fn autopilot_replay_reproduces_the_closed_loop() {
    let cfg = AutopilotConfig { cycles: 1, ..AutopilotConfig::canonical() };
    let real = run_autopilot(&cfg);
    let (key, events) = replay::plant_run(&cfg);
    assert!(events > 0);
    assert_eq!(
        serde_json::to_string(&key.trace).unwrap(),
        serde_json::to_string(&real.trace).unwrap()
    );
    assert_eq!(key.latency, real.latency);
    assert_eq!(key.be_cpu_secs, real.be_cpu_secs);
    assert_eq!(
        (key.requests, key.irqs_fired, key.missed_irqs),
        (real.requests, real.irqs_fired, real.missed_irqs)
    );
}
