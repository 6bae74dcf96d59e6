//! Run a declarative scenario from a JSON spec file.
//!
//! ```bash
//! cargo run --release -p sp-bench --bin run_scenario -- examples/scenarios/fig7.json
//! cargo run --release -p sp-bench --bin run_scenario -- --emit-fig7   # print the reference spec
//! cargo run --release -p sp-bench --bin run_scenario -- --emit-irq-storm
//! cargo run --release -p sp-bench --bin run_scenario -- --emit-reshield
//! ```
//!
//! Any other `--flag` is a usage error (exit 2).

use sp_experiments::scenario::{
    fig7_scenario, irq_storm_scenario, reshield_transient_scenario, run_scenario, MeasuredResult,
    ScenarioSpec,
};
use sp_metrics::Table;

fn main() {
    let mut spec_path = None;
    let mut emit_spec = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--emit-fig7" => emit_spec = Some(fig7_scenario()),
            "--emit-irq-storm" => emit_spec = Some(irq_storm_scenario()),
            "--emit-reshield" => emit_spec = Some(reshield_transient_scenario()),
            flag if flag.starts_with("--") => usage(&format!("unknown flag '{flag}'")),
            path if spec_path.is_none() => spec_path = Some(path.to_string()),
            other => usage(&format!("unexpected argument '{other}'")),
        }
    }
    if let Some(spec) = emit_spec {
        return emit(&spec);
    }
    let Some(arg) = spec_path else {
        usage("missing spec path");
    };
    let text = std::fs::read_to_string(&arg).unwrap_or_else(|e| {
        eprintln!("cannot read {arg}: {e}");
        std::process::exit(2);
    });
    let spec: ScenarioSpec = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {arg}: {e}");
        std::process::exit(2);
    });
    let report = run_scenario(&spec).unwrap_or_else(|e| {
        eprintln!("scenario failed: {e}");
        std::process::exit(1);
    });

    println!("scenario '{}' complete\n", report.name);
    let mut names: Vec<&String> = report.results.keys().collect();
    names.sort();
    let mut t = Table::new(["measured task", "kind", "n", "result"]);
    for name in names {
        match &report.results[name] {
            MeasuredResult::Latency { summary, .. } => {
                t.row([
                    name.clone(),
                    "latency".into(),
                    summary.count.to_string(),
                    format!("p50 {}  p99.9 {}  max {}", summary.p50, summary.p999, summary.max),
                ]);
            }
            MeasuredResult::Jitter { summary } => {
                t.row([
                    name.clone(),
                    "jitter".into(),
                    summary.iterations.to_string(),
                    format!(
                        "ideal {:.4}s  max {:.4}s  jitter {:.2}%",
                        summary.ideal.as_secs_f64(),
                        summary.max.as_secs_f64(),
                        summary.jitter_pct()
                    ),
                ]);
            }
        }
    }
    print!("{}", t.render());
    println!(
        "\ninterrupts per cpu: {:?}",
        report.irqs_per_cpu
    );
    if let Some(rec) = &report.recovery {
        println!(
            "recovery of '{}' to {} µs after t={}s: {} (out-of-bound before: {}, worst after: {})",
            rec.task,
            rec.bound_us,
            rec.from_secs,
            match rec.recovery_secs {
                Some(s) => format!("{:.1} ms", s * 1e3),
                None => "never".into(),
            },
            rec.out_of_bound_before,
            match rec.worst_after_us {
                Some(w) => format!("{w:.1} µs"),
                None => "n/a".into(),
            },
        );
    }
}

fn emit(spec: &ScenarioSpec) {
    println!("{}", serde_json::to_string_pretty(spec).expect("serialize"));
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: run_scenario <spec.json> | --emit-fig7 | --emit-irq-storm | --emit-reshield");
    std::process::exit(2);
}
