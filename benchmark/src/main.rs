//! `sp-benchmark`: host-time benchmark of the shielded-processors simulator.
//!
//! ```text
//! sp-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! sp-benchmark suite [--seed N] [--seconds S] [--repeats R] [--out FILE] [--append] [--no-trace]
//! sp-benchmark agree A.json B.json
//! sp-benchmark compare PARENT.json CHANGE.json
//! sp-benchmark bless [--seeds FIRST-LAST]
//! ```
//!
//! The first form is one measured run: it prints every metric as
//! `workload metric value unit`, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). See README.md.

mod builders;
mod clock;
mod probes;
mod replay;
mod run;
mod spec;
mod stats;
mod suite;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use serde::Value;
use workloads::Workload;

/// Report a bad argument and exit with the usage status.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    usage()
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  sp-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n  \
         sp-benchmark suite [--seed N] [--seconds S] [--repeats R] [--out FILE] [--append] \
         [--no-trace]\n  \
         sp-benchmark agree A.json B.json\n  \
         sp-benchmark compare PARENT.json CHANGE.json\n  \
         sp-benchmark bless [--seeds FIRST-LAST]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

/// `--flag value` pairs after the subcommand; anything else is a usage error.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Flags {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                usage();
            }
            if switches.contains(&a.as_str()) {
                out.push((a.clone(), String::new()));
            } else {
                out.push((a.clone(), it.next().unwrap_or_else(|| usage()).clone()));
            }
        }
        Flags(out)
    }

    pub fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().rev().find(|(k, _)| k == flag).map(|(_, v)| v.as_str())
    }

    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(k, _)| k == flag)
    }

    pub fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.get(flag) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| usage()),
        }
    }

    pub fn check_known(&self, known: &[&str]) {
        if let Some((k, _)) = self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            usage_error(&format!("unknown flag {k}"));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("suite") => suite::suite(&Flags::parse(&args[1..], &["--append", "--no-trace"])),
        Some("agree") if args.len() == 3 => std::process::exit(suite::agree(&args[1], &args[2])),
        Some("compare") if args.len() == 3 => {
            std::process::exit(suite::compare(&args[1], &args[2]))
        }
        Some("bless") => suite::bless(&Flags::parse(&args[1..], &[])),
        Some(a) if a.starts_with("--") => one_run(&Flags::parse(&args, &[])),
        _ => usage(),
    }
}

/// One measured run: the driver-facing contract.
fn one_run(flags: &Flags) {
    flags.check_known(&["--workload", "--seed", "--seconds", "--trace"]);
    let spec = spec::spec();
    let workload = flags.get("--workload").and_then(Workload::parse).unwrap_or_else(|| usage());
    let seed: u64 = flags.num("--seed", 1);
    let seconds: f64 = flags.num("--seconds", spec.run_seconds);
    let traced = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    eprintln!(
        "{}: seed {seed}, {seconds} s, {} thread(s), {}{}",
        workload.name(),
        workload.threads(),
        workload.size(),
        if traced { ", traced" } else { "" }
    );
    let run = if traced {
        run::traced(workload, seed, seconds)
    } else {
        run::measure(workload, seed, seconds)
    };
    let specs = if traced { &spec.per_layer } else { &spec.end_to_end };
    let mut metrics = Vec::with_capacity(specs.len());
    for m in specs {
        let value = run
            .metrics
            .iter()
            .find(|(n, _)| *n == m.name)
            .unwrap_or_else(|| panic!("run did not produce metric {}", m.name))
            .1;
        println!("{} {} {} {}", workload.name(), m.name, value, m.unit);
        metrics.push((
            m.name.clone(),
            Value::Object(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(m.unit.clone())),
            ]),
        ));
    }
    assert_eq!(metrics.len(), run.metrics.len(), "every produced metric is in BENCHMARK.json");
    for f in &run.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    eprintln!(
        "{}: {} job(s), {} of {} checked operations failed",
        workload.name(),
        run.jobs,
        run.failed,
        run.attempted
    );
    println!("{} digest {:016x}", workload.name(), run.digest);
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(run.failed == 0)),
        ("attempted".into(), Value::U64(run.attempted)),
        ("failed".into(), Value::U64(run.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("result serializes"));
}
