//! The suite (every workload, repeated, each run in a fresh child process),
//! its self-describing result file, the `agree` / `compare` verdicts on
//! result files, and `bless`, which regenerates `expected.json`.

use crate::run::{trace_path, OUT_DIR};
use crate::spec::{spec, MetricSpec};
use crate::stats::{agrees, compare as compare_runs, median, quartiles, Verdict};
use crate::trace::chrome_document;
use crate::workloads::{run_job, Inputs, Workload};
use crate::{usage_error, Flags};
use serde::Value;
use std::process::Command;

fn str_field(v: &Value, k: &str) -> String {
    v.get(k).and_then(Value::as_str).unwrap_or("").to_string()
}

fn num(v: &Value) -> f64 {
    match v {
        Value::F64(f) => *f,
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        _ => f64::NAN,
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// First line of a command's stdout, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// CPU model, hardware threads, toolchain and source revision.
fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1);
    obj(vec![
        ("cpu_model", Value::Str(cpu)),
        ("nproc", Value::U64(nproc)),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        ("git_rev", Value::Str(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}

/// One child run's parsed output.
struct ChildRun {
    values: Vec<(String, f64)>,
    digest: String,
    attempted: u64,
    failed: u64,
}

fn child_run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("child run starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    for line in stderr.lines().filter(|l| l.contains("CHECK FAILED") || l.contains("panicked")) {
        eprintln!("  {line}");
    }
    assert!(out.status.success(), "{} run failed:\n{stderr}", workload.name());
    let last = stdout.lines().last().unwrap_or("");
    let doc: Value = serde_json::from_str(last).expect("child prints a JSON result last");
    let values = doc
        .get("metrics")
        .and_then(Value::as_object)
        .expect("result has metrics")
        .iter()
        .map(|(name, m)| (name.clone(), m.get("value").map(num).unwrap_or(f64::NAN)))
        .collect();
    let prefix = format!("{} digest ", workload.name());
    let digest = stdout.lines().find_map(|l| l.strip_prefix(&prefix)).unwrap_or("").to_string();
    ChildRun {
        values,
        digest,
        attempted: doc.get("attempted").map(num).unwrap_or(0.0) as u64,
        failed: doc.get("failed").map(num).unwrap_or(0.0) as u64,
    }
}

/// Per-workload accumulation of repeats.
#[derive(Default)]
struct Acc {
    digests: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Metric name → one value per repeat, in repeat order.
    values: Vec<(String, Vec<f64>)>,
    per_layer: Vec<(String, f64)>,
}

fn metric_entry(m: &MetricSpec, values: &[f64]) -> Value {
    let (q1, q3) = quartiles(values);
    obj(vec![
        ("name", Value::Str(m.name.clone())),
        ("unit", Value::Str(m.unit.clone())),
        ("better", Value::Str(format!("{:?}", m.better).to_lowercase())),
        ("bound", m.bound.map_or(Value::Null, Value::F64)),
        ("values", Value::Array(values.iter().map(|v| Value::F64(*v)).collect())),
        ("median", Value::F64(median(values))),
        ("q1", Value::F64(q1)),
        ("q3", Value::F64(q3)),
        ("n", Value::U64(values.len() as u64)),
    ])
}

/// Read an earlier result file's per-workload repeats, for `--append`.
fn previous(path: &str, seed: u64, seconds: f64) -> Vec<(String, Acc)> {
    let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
    let doc: Value = serde_json::from_str(&text).expect("existing result file parses");
    assert!(
        doc.get("seed").map(num) == Some(seed as f64)
            && doc.get("seconds").map(num) == Some(seconds),
        "{path} was made with another seed or run length; not appending"
    );
    workloads_of(&doc)
        .iter()
        .map(|w| {
            let strings = |k: &str| -> Vec<String> {
                w.get(k)
                    .and_then(Value::as_array)
                    .map(|a| a.iter().filter_map(Value::as_str).map(String::from).collect())
                    .unwrap_or_default()
            };
            let values = w
                .get("metrics")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|m| (str_field(m, "name"), values_of(m)))
                .collect();
            let acc = Acc {
                digests: strings("digests"),
                attempted: w.get("attempted").map(num).unwrap_or(0.0) as u64,
                failed: w.get("failed").map(num).unwrap_or(0.0) as u64,
                values,
                per_layer: Vec::new(),
            };
            (str_field(w, "name"), acc)
        })
        .collect()
}

fn workloads_of(doc: &Value) -> &[Value] {
    doc.get("workloads").and_then(Value::as_array).unwrap_or(&[])
}

fn values_of(metric: &Value) -> Vec<f64> {
    metric.get("values").and_then(Value::as_array).unwrap_or(&[]).iter().map(num).collect()
}

/// Default run length of a suite run: shorter than `BENCHMARK.json`'s
/// `run_seconds`, so the default suite (5 repeats × 4 workloads + the traced
/// pass) ends within about five minutes.
const SUITE_SECONDS: f64 = 10.0;

/// `suite`: every workload `--repeats` times in fresh child processes (the
/// order rotates each repeat), then — unless `--no-trace` — one traced run
/// per workload; writes the result file and the merged trace. `--append`
/// adds the repeats to an existing result file, which is how parent and
/// change runs are alternated for `compare`.
pub fn suite(flags: &Flags) {
    flags.check_known(&["--seed", "--seconds", "--repeats", "--out", "--append", "--no-trace"]);
    let spec = spec();
    let seed: u64 = flags.num("--seed", 1);
    let seconds: f64 = flags.num("--seconds", SUITE_SECONDS);
    let repeats: usize = flags.num("--repeats", 5);
    let out_path =
        flags.get("--out").map_or_else(|| format!("{OUT_DIR}/results.json"), String::from);
    let mut accs: Vec<(String, Acc)> =
        if flags.has("--append") { previous(&out_path, seed, seconds) } else { Vec::new() };
    for w in Workload::ALL {
        if !accs.iter().any(|(n, _)| n == w.name()) {
            accs.push((w.name().to_string(), Acc::default()));
        }
    }
    let acc_of = |accs: &mut Vec<(String, Acc)>, w: Workload| -> usize {
        accs.iter().position(|(n, _)| n == w.name()).expect("every workload has an entry")
    };

    for r in 0..repeats {
        for i in 0..Workload::ALL.len() {
            let w = Workload::ALL[(i + r) % Workload::ALL.len()];
            eprintln!("repeat {}/{repeats}: {} ...", r + 1, w.name());
            let run = child_run(w, seed, seconds, false);
            let idx = acc_of(&mut accs, w);
            let acc = &mut accs[idx].1;
            acc.digests.push(run.digest);
            acc.attempted += run.attempted;
            acc.failed += run.failed;
            for (name, v) in run.values {
                match acc.values.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, vs)) => vs.push(v),
                    None => acc.values.push((name, vec![v])),
                }
            }
        }
    }
    if !flags.has("--no-trace") {
        let mut trace_events = Vec::new();
        for w in Workload::ALL {
            eprintln!("traced: {} ...", w.name());
            let run = child_run(w, seed, seconds, true);
            let idx = acc_of(&mut accs, w);
            accs[idx].1.per_layer = run.values;
            accs[idx].1.attempted += run.attempted;
            accs[idx].1.failed += run.failed;
            let doc: Option<Value> = std::fs::read_to_string(trace_path(w))
                .ok()
                .and_then(|t| serde_json::from_str(&t).ok());
            if let Some(events) =
                doc.as_ref().and_then(|d| d.get("traceEvents")).and_then(Value::as_array)
            {
                trace_events.extend(events.iter().cloned());
            }
        }
        let path = format!("{OUT_DIR}/trace.json");
        let json = serde_json::to_string(&chrome_document(trace_events)).expect("trace serializes");
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|_| std::fs::write(&path, json))
            .expect("trace written");
        eprintln!("trace written to {path}");
    }

    let mut workloads = Vec::new();
    for (name, acc) in &accs {
        let w = Workload::parse(name).expect("known workload");
        let metrics: Vec<Value> = spec
            .end_to_end
            .iter()
            .filter_map(|m| {
                let vs = acc.values.iter().find(|(n, _)| *n == m.name)?;
                println!("{name} {} {} {}", m.name, median(&vs.1), m.unit);
                Some(metric_entry(m, &vs.1))
            })
            .collect();
        let per_layer: Vec<Value> = spec
            .per_layer
            .iter()
            .filter_map(|m| {
                let v = acc.per_layer.iter().find(|(n, _)| *n == m.name)?.1;
                println!("{name} {} {v} {}", m.name, m.unit);
                Some(obj(vec![
                    ("name", Value::Str(m.name.clone())),
                    ("unit", Value::Str(m.unit.clone())),
                    ("value", Value::F64(v)),
                ]))
            })
            .collect();
        let attempted = acc.attempted.max(1);
        println!("{name} failed_ratio {} ratio", acc.failed as f64 / attempted as f64);
        workloads.push(obj(vec![
            ("name", Value::Str(name.clone())),
            ("size", Value::Str(w.size())),
            ("threads", Value::U64(w.threads() as u64)),
            ("digests", Value::Array(acc.digests.iter().cloned().map(Value::Str).collect())),
            ("attempted", Value::U64(acc.attempted)),
            ("failed", Value::U64(acc.failed)),
            ("metrics", Value::Array(metrics)),
            ("per_layer", Value::Array(per_layer)),
        ]));
    }
    let doc = obj(vec![
        ("host", host()),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        (
            "repeats",
            Value::U64(accs.iter().map(|(_, a)| a.digests.len() as u64).min().unwrap_or(0)),
        ),
        ("workloads", Value::Array(workloads)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("results serialize");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, json).expect("result file written");
    eprintln!("results written to {out_path}");
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn find<'a>(doc: &'a Value, workload: &str) -> Option<&'a Value> {
    workloads_of(doc).iter().find(|w| str_field(w, "name") == workload)
}

fn metric<'a>(w: &'a Value, name: &str) -> Option<&'a Value> {
    w.get("metrics").and_then(Value::as_array)?.iter().find(|m| str_field(m, "name") == name)
}

/// `agree A B`: exit 1 unless every (workload, end-to-end metric) median of
/// B is within the metric's bound of A's, both sets ran with no failed
/// check, and every digest in both is the same per workload.
pub fn agree(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = (load(a_path), load(b_path));
    let spec = spec();
    let mut ok = true;
    for wa in workloads_of(&a) {
        let name = str_field(wa, "name");
        let Some(wb) = find(&b, &name) else {
            println!("{name}: missing from {b_path}");
            ok = false;
            continue;
        };
        let digests: Vec<&Value> = [wa, wb]
            .iter()
            .flat_map(|w| w.get("digests").and_then(Value::as_array).unwrap_or(&[]))
            .collect();
        let same_digest = digests.windows(2).all(|p| p[0] == p[1]);
        let failed = [wa, wb].iter().map(|w| w.get("failed").map(num).unwrap_or(1.0)).sum::<f64>();
        if !same_digest || failed > 0.0 {
            println!("{name}: digests identical {same_digest}, failed checks {failed}");
            ok = false;
        }
        for m in &spec.end_to_end {
            let (Some(ma), Some(mb)) = (metric(wa, &m.name), metric(wb, &m.name)) else {
                continue;
            };
            let (va, vb) = (values_of(ma), values_of(mb));
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let agree = agrees(&va, &vb, bound);
            ok &= agree;
            println!(
                "{name} {} {} vs {} ({:+.1} %, bound {:.0} %): {}",
                m.name,
                median(&va),
                median(&vb),
                (median(&vb) / median(&va) - 1.0) * 100.0,
                bound * 100.0,
                if agree { "agree" } else { "DISAGREE" }
            );
        }
    }
    if ok {
        0
    } else {
        1
    }
}

/// `compare PARENT CHANGE`: one row per workload with a verdict per
/// end-to-end metric (see `stats::compare`), then the detail lines. Exit 1
/// if any metric got worse by more than its bound.
pub fn compare(parent_path: &str, change_path: &str) -> i32 {
    let (parent, change) = (load(parent_path), load(change_path));
    let spec = spec();
    let mut worse = false;
    let mut details = Vec::new();
    for wp in workloads_of(&parent) {
        let name = str_field(wp, "name");
        let Some(wc) = find(&change, &name) else { continue };
        let mut row = Vec::new();
        for m in &spec.end_to_end {
            let (Some(mp), Some(mc)) = (metric(wp, &m.name), metric(wc, &m.name)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let c = compare_runs(&values_of(mp), &values_of(mc), m.better, bound);
            worse |= c.verdict == Verdict::Worse;
            row.push(format!(
                "{}={} ({:+.1} %)",
                m.name,
                c.verdict.label(),
                (c.change.0 / c.parent.0 - 1.0) * 100.0
            ));
            details.push(format!(
                "  {name} {}: parent {:.6} [{:.6}, {:.6}], change {:.6} [{:.6}, {:.6}], \
                 change wins {}/{} pairs",
                m.name,
                c.parent.0,
                c.parent.1,
                c.parent.2,
                c.change.0,
                c.change.1,
                c.change.2,
                c.wins,
                c.pairs
            ));
        }
        println!("{name}: {}", row.join(", "));
    }
    for d in details {
        println!("{d}");
    }
    if worse {
        1
    } else {
        0
    }
}

/// `bless`: run one job per workload per seed and write the digests to
/// `expected.json`, with the band checks each seed's output misses. Run it
/// after a change that is meant to alter simulated output, never to make a
/// speed-only change pass. Refuses (writes nothing) if a structural check
/// fails.
pub fn bless(flags: &Flags) {
    flags.check_known(&["--seeds"]);
    let range = flags.get("--seeds").unwrap_or("0-127");
    let (first, last) = range
        .split_once('-')
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
        .unwrap_or_else(|| usage_error(&format!("--seeds takes FIRST-LAST, got {range}")));
    let mut doc = Vec::new();
    for w in Workload::ALL {
        let mut seeds = Vec::new();
        for seed in first..=last {
            let out = run_job(&Inputs::generate(w, seed));
            eprintln!("{} seed {seed}: {:016x}", w.name(), out.digest);
            let broken: Vec<&str> =
                out.checks.iter().filter(|c| !c.band && !c.ok).map(|c| c.name.as_str()).collect();
            if !broken.is_empty() {
                eprintln!("structural checks fail: {broken:?}; expected.json left unchanged");
                std::process::exit(1);
            }
            let outliers: Vec<Value> =
                out.checks.iter().filter(|c| !c.ok).map(|c| Value::Str(c.name.clone())).collect();
            let mut entry =
                vec![("digest".to_string(), Value::Str(format!("{:016x}", out.digest)))];
            if !outliers.is_empty() {
                entry.push(("outliers".into(), Value::Array(outliers)));
            }
            seeds.push((seed.to_string(), Value::Object(entry)));
        }
        doc.push((w.name().to_string(), Value::Object(seeds)));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    let json = serde_json::to_string_pretty(&Value::Object(doc)).expect("digests serialize");
    std::fs::write(path, json + "\n").expect("expected.json written");
    eprintln!("wrote {path}");
}
