//! The metric definitions in the repository's `BENCHMARK.json`, compiled in
//! so names, units, directions and bounds have one source.

use crate::stats::Better;
use serde::Value;

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn metrics(doc: &Value, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is a list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks `{k}`"))
                    .to_string()
            };
            MetricSpec {
                name: field("name"),
                unit: field("unit"),
                better: Better::parse(&field("better")).expect("`better` is lower or higher"),
                bound: match m.get("bound") {
                    Some(Value::F64(b)) => Some(*b),
                    _ => None,
                },
            }
        })
        .collect()
}

/// Parse the compiled-in `BENCHMARK.json`.
pub fn spec() -> Spec {
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let run_seconds = match doc.get("run_seconds") {
        Some(Value::U64(s)) => *s as f64,
        _ => panic!("BENCHMARK.json: `run_seconds` is a whole number"),
    };
    Spec {
        run_seconds,
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}
