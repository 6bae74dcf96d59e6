//! Run the complete figure suite and rewrite `EXPERIMENTS.md` with the
//! paper-vs-measured table.
//!
//! Arguments (all optional):
//!   `<scale>`          sample-count scale factor, default 1.0 (or `SP_SCALE`)
//!   --shards `<n>`     shard count for figs 5–7, default = hardware threads
//!                    (or `SP_SHARDS`); results are reproducible per (seed, n)
//!   --workers `<n>`    OS worker threads for the fleet pool, default =
//!                    hardware threads (or `SP_WORKERS`); never changes
//!                    results, only wall-clock
//!   --topk `<k>`       worst-case windows captured per latency figure,
//!                    default 3 (or `SP_TRACE_TOPK`); 0 disables capture
//!   --json `<path>`    dump the raw suite as JSON
//!   --autopilot      also run the closed-loop adaptive-shielding study
//!                    (autopilot + static baselines over the diurnal
//!                    request-serving day) and write `AUTOPILOT_trace.json`,
//!                    the worker-count-invariant decision-trace artifact
//!   --sla `<us>`       p99.9 SLA bound for the autopilot study, default 100
//!   --sweep `<n>`      also stream an ~n-cell realfeel sweep (the canonical
//!                    variant × shield × seed grid, per-cell samples scaled
//!                    by the scale factor), every cell forked off its group's
//!                    shared warm checkpoint, and write `SWEEP_study.json`,
//!                    the worker-count-invariant sweep artifact; see
//!                    docs/SWEEPS.md
//!   --modern         also run the modern-isolation matrix (5 kernel
//!                    generations × 2 measured paths × 6 fault cells, every
//!                    cell shielded; see docs/KERNELS.md) and write
//!                    `worst_case_trace_modern.json`, the causal window
//!                    behind the modern-all RCIM worst case — byte-identical
//!                    across worker counts
//!   --strict         print every gate as a `(gate, measured, bound, pass)`
//!                    row and exit 1 if any fails. The gates: the seven
//!                    figure bands, the events/sec floor, each captured
//!                    worst-case trace explaining its figure's maximum, the
//!                    three autopilot verdicts (with `--autopilot`), the
//!                    sweep cell count (with `--sweep`), and the modern
//!                    bands plus the 500 ns modern-all RCIM ceiling (with
//!                    `--modern`)
//!
//! A flag given without a value, or with one that does not parse, is a
//! usage error (exit status 2). When capture is on, every run also writes
//! `worst_case_trace_fig{5,6,7}.json`, Perfetto-loadable traces of the event
//! window behind each latency figure's worst sample, plus a one-screen
//! cause-chain report on stdout. Host performance is measured by the
//! separate `benchmark/` package (see `benchmark/README.md`).

use simcore::Nanos;
use sp_bench::{
    available_threads, determinism_measured, flag_from_args, flightout, rcim_measured,
    realfeel_measured, scale_from_args, shards_from_args, topk_from_args, verdict,
    workers_from_args, PAPER_TARGETS,
};
use sp_experiments::report::{render_determinism, render_rcim, render_realfeel};
use sp_experiments::runner::run_all_figures_flight;
use sp_experiments::{run_autopilot_study, AutopilotConfig, AutopilotStudy, MODERN_RCIM_BOUND};
use sp_kernel::WorstCaseTrace;
use std::fmt::Write as _;

/// Simulator-throughput regression floor enforced by `--strict` (and hence
/// CI, which runs at scale 0.02 in release mode): the seven figures' events
/// over the suite's wall-clock. The hot loop sustains several million
/// events/sec there; 250k is a tripwire for large regressions rather than a
/// tight bound, so modest CI hardware doesn't flake. Host performance
/// proper is measured by `benchmark/`.
const EVENTS_PER_SEC_FLOOR: f64 = 250_000.0;

/// One `--strict` gate: what this run measured, the bound it must meet, and
/// whether it met it.
struct Gate {
    name: String,
    measured: String,
    bound: String,
    pass: bool,
}

impl Gate {
    fn new(name: impl Into<String>, measured: impl ToString, bound: impl ToString, pass: bool) -> Self {
        Gate { name: name.into(), measured: measured.to_string(), bound: bound.to_string(), pass }
    }

    /// The gate on a worst-case trace artifact: it was written and its
    /// worst window's latency equals the maximum it claims to explain.
    fn worst_trace(
        name: &str,
        emitted: &std::io::Result<Option<String>>,
        traces: &[WorstCaseTrace],
        max: Nanos,
    ) -> Self {
        let (measured, pass) = match (emitted, traces.first()) {
            (Err(e), _) => (format!("artifact write failed: {e}"), false),
            (Ok(Some(_)), Some(worst)) => (worst.latency.to_string(), worst.latency == max),
            _ => ("no window captured".to_string(), false),
        };
        Gate::new(name, measured, format!("= {max}"), pass)
    }

    /// The gate on writing a JSON artifact.
    fn artifact(path: &str, written: Result<(), String>) -> Self {
        match written {
            Ok(()) => Gate::new(path, "written", "written", true),
            Err(e) => Gate::new(path, e, "written", false),
        }
    }
}

/// Serialize `value` as pretty JSON into `path`.
fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| format!("does not serialize: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("write failed: {e}"))?;
    eprintln!("{path} written");
    Ok(())
}

fn main() {
    let scale = scale_from_args();
    let shards = shards_from_args(available_threads());
    let workers = workers_from_args();
    let top_k = topk_from_args(3);
    let args: Vec<String> = std::env::args().collect();
    let json_path = flag_from_args::<String>("--json");
    let strict = args.iter().any(|a| a == "--strict");
    let autopilot_on = args.iter().any(|a| a == "--autopilot");
    let sla_us = flag_from_args::<u64>("--sla").unwrap_or(100);
    let sweep_cells = flag_from_args::<u64>("--sweep");
    let modern_on = args.iter().any(|a| a == "--modern");

    eprintln!(
        "running all 7 figures at scale {scale}, {shards} shard(s), {workers} worker(s), \
         top-{top_k} trace capture (parallel)..."
    );
    let t0 = std::time::Instant::now();
    let (suite, flight) = run_all_figures_flight(scale, shards, top_k);
    let suite_secs = t0.elapsed().as_secs_f64();
    eprintln!("suite finished in {suite_secs:.1}s");

    print!("{}", render_determinism("fig1", &suite.fig1));
    print!("{}", render_determinism("fig2", &suite.fig2));
    print!("{}", render_determinism("fig3", &suite.fig3));
    print!("{}", render_determinism("fig4", &suite.fig4));
    print!("{}", render_realfeel("fig5", &suite.fig5));
    print!("{}", render_realfeel("fig6", &suite.fig6));
    print!("{}", render_rcim("fig7", &suite.fig7));

    // The paper bands: jitter for the determinism figures, the maximum for
    // the latency figures. Each yields the EXPERIMENTS.md verdict and a gate.
    let jitter_bands = [
        (&suite.fig1, 16.0, 45.0),
        (&suite.fig2, 0.2, 4.0),
        (&suite.fig3, 8.0, 22.0),
        (&suite.fig4, 8.0, 20.0),
    ];
    let max_bands = [
        (suite.fig5.summary.max, Nanos::from_ms(2), Nanos::from_ms(200)),
        (suite.fig6.summary.max, Nanos::from_us(15), Nanos::from_ms(1)),
        (suite.fig7.summary.max, Nanos::from_us(15), Nanos::from_us(30)),
    ];
    // (measured, bound) per figure, in fig1..fig7 order.
    let (mut verdicts, mut bands) = (Vec::new(), Vec::new());
    for (r, lo, hi) in jitter_bands {
        verdicts.push(verdict::determinism(r, lo, hi));
        bands.push((format!("{:.2} % jitter", r.summary.jitter_pct()), format!("{lo}–{hi} %")));
    }
    for (max, lo, hi) in max_bands {
        verdicts.push(verdict::latency_max(max, lo, hi));
        bands.push((format!("max {max}"), format!("{lo}–{hi}")));
    }
    let mut gates: Vec<Gate> = PAPER_TARGETS
        .iter()
        .zip(bands)
        .zip(&verdicts)
        .map(|((t, (measured, bound)), v)| {
            Gate::new(format!("{} band", t.id), measured, bound, *v == "in band")
        })
        .collect();

    let total_events = suite.fig1.events
        + suite.fig2.events
        + suite.fig3.events
        + suite.fig4.events
        + suite.fig5.events
        + suite.fig6.events
        + suite.fig7.events;
    let events_per_sec = total_events as f64 / suite_secs.max(1e-9);
    gates.push(Gate::new(
        "suite events/sec",
        format!("{events_per_sec:.0}"),
        format!(">= {EVENTS_PER_SEC_FLOOR:.0}"),
        events_per_sec >= EVENTS_PER_SEC_FLOOR,
    ));

    // Worst-case flight traces: one Perfetto artifact + cause chain per
    // latency figure, each gated on explaining its figure's maximum.
    if top_k > 0 {
        println!();
        let captures: [(&str, String, &[WorstCaseTrace], Nanos); 3] = [
            ("fig5", suite.fig5.config.label(), &flight.fig5, suite.fig5.summary.max),
            ("fig6", suite.fig6.config.label(), &flight.fig6, suite.fig6.summary.max),
            ("fig7", suite.fig7.config.label(), &flight.fig7, suite.fig7.summary.max),
        ];
        for (id, label, traces, max) in captures {
            let emitted = flightout::emit_worst_case(id, &label, traces);
            if let Ok(Some(chain)) = &emitted {
                println!("{chain}");
            }
            gates.push(Gate::worst_trace(&format!("{id} worst trace"), &emitted, traces, max));
        }
    }

    // Closed-loop adaptive shielding: the autopilot study plus its
    // decision-trace artifact. The trace is a pure function of
    // (config, seed) — byte-identical across worker counts — which is what
    // CI `cmp`s between runs.
    if autopilot_on {
        let cfg = AutopilotConfig { sla_us, ..AutopilotConfig::canonical().scaled(scale) };
        eprintln!(
            "running autopilot study: sla {}us, {} cycle(s), seed {:#x}...",
            cfg.sla_us, cfg.cycles, cfg.seed
        );
        let study = run_autopilot_study(&cfg);
        print_autopilot(&study);
        let written = write_json("AUTOPILOT_trace.json", &study.autopilot.trace);
        gates.push(Gate::artifact("AUTOPILOT_trace.json", written));
        gates.push(Gate::new(
            "autopilot steady SLA violations",
            study.autopilot.trace.telemetry.steady_violations,
            0,
            study.verdict.zero_steady,
        ));
        gates.push(Gate::new(
            format!("autopilot throughput vs best static ({})", study.statics[study.best_static].label),
            format!("{:.2}x", study.throughput_ratio),
            format!(">= {:.2}x", cfg.min_throughput_ratio),
            study.verdict.throughput_ok,
        ));
        let budget = cfg.recovery_budget_secs;
        let recovered = study
            .autopilot
            .recoveries
            .iter()
            .filter(|r| r.recovery_secs.is_some_and(|s| s <= budget))
            .count();
        gates.push(Gate::new(
            "autopilot reconfig transients recovered",
            format!("{recovered} of {}", study.autopilot.recoveries.len()),
            format!("all, within {budget} s"),
            study.verdict.transients_recovered,
        ));
    }

    // Streaming sweep: the canonical variant × shield × seed grid, every
    // cell forked off its group's shared warm checkpoint, results folded
    // online. The
    // report is a pure function of the config — byte-identical across
    // worker counts — which is what CI `cmp`s between runs.
    if let Some(cells) = sweep_cells {
        let base = sp_experiments::SweepConfig::canonical(cells);
        let cfg = sp_experiments::SweepConfig {
            samples_per_cell: ((base.samples_per_cell as f64 * scale) as u64).max(32),
            ..base
        }
        .with_workers(workers);
        eprintln!(
            "running sweep: {} cells ({} groups x {} seeds, {} samples/cell), {} worker(s)...",
            cfg.cell_count(),
            cfg.groups.len(),
            cfg.seeds_per_group,
            cfg.samples_per_cell,
            cfg.workers,
        );
        let (sweep, telemetry) = sp_experiments::run_sweep(&cfg);
        print_sweep(&sweep, &telemetry);
        gates.push(Gate::new("sweep cells", sweep.cells, cfg.cell_count(), sweep.cells == cfg.cell_count()));
        gates.push(Gate::artifact("SWEEP_study.json", write_json("SWEEP_study.json", &sweep)));
    }

    // Modern-isolation matrix: kernel generations from the paper's 2.4
    // shield to threaded IRQs + nohz_full + kthread isolation on modern
    // calibration, every cell shielded. The report is a pure function of
    // (config, seed); the worst-case trace artifact is what CI `cmp`s
    // between worker counts.
    if modern_on {
        let cfg = sp_experiments::ModernConfig::scaled(scale);
        eprintln!(
            "running modern-isolation matrix: {} samples/cell, seed {:#x}...",
            cfg.samples_per_cell, cfg.seed
        );
        let (modern, modern_flights) =
            sp_experiments::run_modern_matrix_with_flight(&cfg, top_k);
        println!("\nmodern isolation matrix ({} cells):\n{}", modern.cells.len(), modern.markdown());
        for v in &modern.violations {
            println!("  band violation: {v}");
        }
        let rcim = sp_experiments::faultmatrix::MatrixPath::Rcim;
        let modern_worst = modern.worst(sp_experiments::ModernVariant::ModernAll, rcim);
        let classic_worst = modern.worst(sp_experiments::ModernVariant::Classic24, rcim);
        gates.push(Gate::new(
            "modern band violations",
            modern.violations.len(),
            0,
            modern.violations.is_empty(),
        ));
        gates.push(Gate::new(
            format!("modern-all RCIM worst (classic 2.4: {classic_worst})"),
            modern_worst,
            format!("< {MODERN_RCIM_BOUND}"),
            modern_worst < MODERN_RCIM_BOUND,
        ));
        if top_k > 0 {
            // The headline artifact: the causal window behind the worst
            // modern-all RCIM sample, merged across its six cells.
            let per_cell: Vec<Vec<WorstCaseTrace>> = modern_flights
                .iter()
                .filter(|f| f.variant == "modern-all" && f.path == "rcim")
                .map(|f| f.traces.clone())
                .collect();
            let merged = sp_experiments::merge_top(per_cell, top_k);
            let emitted = flightout::emit_worst_case("modern", "modern-all/rcim", &merged);
            if let Ok(Some(chain)) = &emitted {
                println!("{chain}");
            }
            gates.push(Gate::worst_trace("modern worst trace", &emitted, &merged, modern_worst));
        }
    }

    // Paper-vs-measured table.
    let measured = [
        determinism_measured(&suite.fig1),
        determinism_measured(&suite.fig2),
        determinism_measured(&suite.fig3),
        determinism_measured(&suite.fig4),
        realfeel_measured(&suite.fig5),
        realfeel_measured(&suite.fig6),
        rcim_measured(&suite.fig7),
    ];
    let mut table = String::from(
        "| experiment | paper | measured (this run) | shape verdict |\n|---|---|---|---|\n",
    );
    for ((target, measured), verdict) in PAPER_TARGETS.iter().zip(&measured).zip(&verdicts) {
        let _ = writeln!(
            table,
            "| {} — {} | {} | {} | {} |",
            target.id, target.description, target.paper, measured, verdict
        );
    }
    println!("\n{table}");

    if let Some(path) = json_path {
        if let Err(e) = write_json(&path, &suite) {
            eprintln!("note: {path}: {e}");
        }
    }

    if let Err(e) = update_experiments_md(&table, scale) {
        eprintln!("note: could not update EXPERIMENTS.md: {e}");
    } else {
        eprintln!("EXPERIMENTS.md measured table updated");
    }

    if strict {
        println!("| gate | measured | bound | pass |\n|---|---|---|---|");
        for g in &gates {
            let pass = if g.pass { "pass" } else { "FAIL" };
            println!("| {} | {} | {} | {pass} |", g.name, g.measured, g.bound);
        }
        let failed = gates.iter().filter(|g| !g.pass).count();
        if failed > 0 {
            eprintln!("STRICT: {failed} of {} gate(s) failed", gates.len());
            std::process::exit(1);
        }
        eprintln!("STRICT: all {} gates pass", gates.len());
    }
}

/// Render the autopilot study as a terminal section: the decision history,
/// the static-baseline table, and the verdict line.
fn print_autopilot(study: &AutopilotStudy) {
    println!("\nautopilot: closed-loop adaptive shielding ({})", study.config.label());
    for d in &study.autopilot.trace.decisions {
        let p = d
            .p99_9_ns
            .map(|p| format!("{:.1} us", p as f64 / 1e3))
            .unwrap_or_else(|| "-".into());
        println!(
            "  t={:7.2}s window {:3}  level {} -> {}  {:?}  (window p99.9 {p}, n={})",
            d.at_ns as f64 / 1e9,
            d.window,
            d.from,
            d.to,
            d.cause,
            d.window_samples
        );
    }
    println!(
        "  telemetry: {} windows, {} violating ({} transient / {} steady), {} reconfigs, \
         final mask {:#06b}",
        study.autopilot.trace.telemetry.windows,
        study.autopilot.trace.telemetry.violating_windows,
        study.autopilot.trace.telemetry.transient_violations,
        study.autopilot.trace.telemetry.steady_violations,
        study.autopilot.trace.telemetry.reconfigs,
        study.autopilot.trace.final_shield_mask,
    );
    println!("  | config | p99.9 | max | violating windows | best-effort CPU-s/s |");
    println!("  |---|---|---|---|---|");
    let row = |r: &sp_experiments::AutopilotRun| {
        println!(
            "  | {} | {} | {} | {} | {:.3} |",
            r.label,
            r.latency.p999,
            r.latency.max,
            r.trace.telemetry.violating_windows,
            r.be_rate
        );
    };
    row(&study.autopilot);
    for s in &study.statics {
        row(s);
    }
    println!(
        "  throughput ratio vs best static ({}): {:.2}x — verdict: {}",
        study.statics[study.best_static].label,
        study.throughput_ratio,
        if study.verdict.pass { "PASS" } else { "FAIL" }
    );
    for r in &study.autopilot.recoveries {
        match r.recovery_secs {
            Some(s) => println!(
                "  reconfig at {:.2}s: recovered to <{} us in {:.3}s",
                r.from_secs, r.bound_us, s
            ),
            None => println!("  reconfig at {:.2}s: NEVER RECOVERED", r.from_secs),
        }
    }
}

/// Render the sweep as a terminal section: per-group aggregates, the worst
/// cells, and the cache/throughput telemetry line.
fn print_sweep(sweep: &sp_experiments::SweepReport, t: &sp_experiments::SweepTelemetry) {
    println!(
        "\nsweep: {} cells, {} warm checkpoint(s), logical hit rate {:.4}",
        sweep.cells, sweep.warm_unique, sweep.warm_logical_hit_rate
    );
    println!("  | group | cells | samples | p50 | p99.9 | max | overruns |");
    println!("  |---|---|---|---|---|---|---|");
    for g in &sweep.groups {
        println!(
            "  | {} | {} | {} | {} | {} | {} | {} |",
            g.label, g.cells, g.samples, g.summary.p50, g.summary.p999, g.summary.max, g.overruns
        );
    }
    for w in sweep.worst.iter().take(3) {
        println!("  worst: {} seed={:#x} max {:.3} ms", w.label, w.seed, w.max_ns as f64 / 1e6);
    }
    let rss = t
        .peak_rss_kb
        .map(|kb| format!("{:.1} MiB peak RSS", kb as f64 / 1024.0))
        .unwrap_or_else(|| "peak RSS unavailable".into());
    println!("  {:.0} cells/sec on {} worker(s), {rss}", t.cells_per_sec, t.workers);
}

/// Replace the generated block in EXPERIMENTS.md (between the markers).
fn update_experiments_md(table: &str, scale: f64) -> std::io::Result<()> {
    const PATH: &str = "EXPERIMENTS.md";
    const BEGIN: &str = "<!-- BEGIN GENERATED RESULTS -->";
    const END: &str = "<!-- END GENERATED RESULTS -->";
    let original = std::fs::read_to_string(PATH)?;
    let (head, rest) = original
        .split_once(BEGIN)
        .ok_or_else(|| std::io::Error::other("missing BEGIN marker"))?;
    let (_, tail) = rest
        .split_once(END)
        .ok_or_else(|| std::io::Error::other("missing END marker"))?;
    let block = format!("{BEGIN}\n\n_Last regenerated by `reproduce_all` at scale {scale}._\n\n{table}\n{END}");
    std::fs::write(PATH, format!("{head}{block}{tail}"))
}
