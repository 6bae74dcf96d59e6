//! # sp-bench — reproduction harness
//!
//! `figure <fig1..fig7>` regenerates one paper figure, ablation binaries
//! cover the design choices the paper calls out, and `reproduce_all` runs
//! the whole suite and rewrites the measured columns of `EXPERIMENTS.md`.
//!
//! Every binary accepts an optional scale factor as its first argument
//! (after the figure id for `figure`; default 1.0; also settable via
//! `SP_SCALE`): sample counts and iteration counts multiply by it.

use simcore::Nanos;
use sp_experiments::{DeterminismResult, RcimResult, RealfeelResult};

/// Resolve the run scale: first CLI argument, then `SP_SCALE`, then 1.0. A
/// leading figure id (`figure fig5 0.1`) is skipped.
pub fn scale_from_args() -> f64 {
    let mut args = std::env::args().skip(1).peekable();
    args.next_if(|a| a.starts_with("fig"));
    let from_arg = args.next().and_then(|a| a.parse::<f64>().ok());
    let from_env = std::env::var("SP_SCALE").ok().and_then(|v| v.parse::<f64>().ok());
    let scale = from_arg.or(from_env).unwrap_or(1.0);
    assert!(scale > 0.0, "scale must be positive");
    scale
}

/// Parse the value that follows `flag` in `args`. An absent flag is
/// `Ok(None)`; a flag with no value (it ends the arguments, or another
/// `--flag` follows it) or a value that does not parse as `T` is an error
/// naming the flag.
pub fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1).filter(|v| !v.starts_with("--")) {
        None => Err(format!("{flag} needs a value")),
        Some(v) => v.parse().map(Some).map_err(|_| format!("{flag}: invalid value {v:?}")),
    }
}

/// [`parse_flag`] over this process's arguments. A bad value is a usage
/// error: it is printed and the process exits with status 2.
pub fn flag_from_args<T: std::str::FromStr>(flag: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, flag).unwrap_or_else(|e| {
        eprintln!("usage error: {e}");
        std::process::exit(2)
    })
}

/// Resolve the shard count for the latency figures: `--shards <n>` argument,
/// then `SP_SHARDS`, then `fallback`. Runs are bit-for-bit reproducible per
/// `(seed, shards)` pair; see `sp_experiments::shard`.
pub fn shards_from_args(fallback: u32) -> u32 {
    let from_env = std::env::var("SP_SHARDS").ok().and_then(|v| v.parse::<u32>().ok());
    flag_from_args::<u32>("--shards").or(from_env).unwrap_or(fallback).max(1)
}

/// Number of hardware threads, for the default shard count of deep runs.
pub fn available_threads() -> u32 {
    std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(1)
}

/// Resolve the fleet worker-thread count: `--workers <n>` argument, then
/// `SP_WORKERS`, then every hardware thread. A `--workers` argument is
/// applied by setting `SP_WORKERS`, so fan-outs on *any* thread (fleet
/// workers included) agree on the count. Worker count never changes results
/// — only wall-clock — so this is a throughput knob, not part of the
/// reproducibility key.
pub fn workers_from_args() -> u32 {
    if let Some(w) = flag_from_args::<u32>("--workers") {
        std::env::set_var("SP_WORKERS", w.max(1).to_string());
    }
    sp_fleet::default_workers()
}

/// Resolve the flight-recorder top-K knob: `--topk <n>` argument, then
/// `SP_TRACE_TOPK`, then `fallback`. `0` disables worst-case trace capture.
pub fn topk_from_args(fallback: usize) -> usize {
    let from_env = std::env::var("SP_TRACE_TOPK").ok().and_then(|v| v.parse::<usize>().ok());
    flag_from_args::<usize>("--topk").or(from_env).unwrap_or(fallback)
}

/// Worst-case trace artifacts: Perfetto JSON files plus the one-screen
/// "why was the max the max" cause-chain report.
pub mod flightout {
    use simcore::flight::FlightEvent;
    use sp_experiments::trace_meta;
    use sp_kernel::WorstCaseTrace;
    use sp_metrics::{perfetto, render_cause_chain};

    /// Number of per-CPU tracks a window needs: one per CPU that appears in
    /// it (the exporter adds the `global` track itself).
    fn track_cpus(events: &[FlightEvent]) -> u32 {
        events.iter().filter_map(|e| e.cpu).max().map_or(1, |c| c + 1)
    }

    /// Serialize one captured worst-case window as Perfetto `trace_event`
    /// JSON, annotated with the experiment label and the sample's headline
    /// numbers.
    pub fn perfetto_json(label: &str, trace: &WorstCaseTrace) -> String {
        let annotations = [
            ("experiment", label.to_string()),
            ("wake_to_user_latency", trace.latency.to_string()),
            ("pid", trace.pid.0.to_string()),
            ("window_truncated", trace.truncated.to_string()),
        ];
        perfetto::export_flight(label, track_cpus(&trace.events), &trace.events, &annotations)
    }

    /// Write `worst_case_trace_<id>.json` for the worst captured window and
    /// return the rendered cause chain for the terminal. `traces` is a
    /// merged top-K set, worst first; only the worst is exported (the JSON
    /// artifact explains *the* max), the chain mentions how many runners-up
    /// were captured.
    pub fn emit_worst_case(
        id: &str,
        label: &str,
        traces: &[WorstCaseTrace],
    ) -> std::io::Result<Option<String>> {
        let Some(worst) = traces.first() else {
            return Ok(None);
        };
        let path = format!("worst_case_trace_{id}.json");
        std::fs::write(&path, perfetto_json(label, worst))?;
        let mut chain = render_cause_chain(&trace_meta(label, worst), &worst.events);
        if worst.truncated {
            chain.push_str("  (window truncated: the ring had already evicted its start)\n");
        }
        if traces.len() > 1 {
            chain.push_str(&format!(
                "  ({} runner-up window(s) captured; worst exported to {path})\n",
                traces.len() - 1
            ));
        } else {
            chain.push_str(&format!("  (worst window exported to {path})\n"));
        }
        Ok(Some(chain))
    }
}

/// What the paper reports for each figure, for the side-by-side tables.
pub struct PaperTarget {
    pub id: &'static str,
    pub description: &'static str,
    pub paper: &'static str,
}

pub const PAPER_TARGETS: [PaperTarget; 7] = [
    PaperTarget {
        id: "fig1",
        description: "determinism, kernel.org 2.4.18, HT on",
        paper: "ideal 1.148 s, max 1.449 s, jitter 26.17 %",
    },
    PaperTarget {
        id: "fig2",
        description: "determinism, RedHawk 1.4, shielded CPU",
        paper: "ideal 1.148 s, max 1.170 s, jitter 1.87 %",
    },
    PaperTarget {
        id: "fig3",
        description: "determinism, RedHawk 1.4, unshielded",
        paper: "jitter 14.82 %",
    },
    PaperTarget {
        id: "fig4",
        description: "determinism, kernel.org 2.4.18, HT off",
        paper: "jitter 13.15 %",
    },
    PaperTarget {
        id: "fig5",
        description: "realfeel /dev/rtc, kernel.org 2.4.18",
        paper: "max 92.3 ms; 99.14 % < 0.1 ms",
    },
    PaperTarget {
        id: "fig6",
        description: "realfeel /dev/rtc, RedHawk shielded",
        paper: "max 0.565 ms; ~100 % < 0.1 ms",
    },
    PaperTarget {
        id: "fig7",
        description: "RCIM ioctl, RedHawk shielded",
        paper: "min 11 µs, avg 11.3 µs, max 27 µs",
    },
];

/// Measured one-line summary for a determinism figure.
pub fn determinism_measured(r: &DeterminismResult) -> String {
    format!(
        "ideal {:.3} s, max {:.3} s, jitter {:.2} %",
        r.summary.ideal.as_secs_f64(),
        r.summary.max.as_secs_f64(),
        r.summary.jitter_pct()
    )
}

/// Measured one-line summary for a realfeel figure.
pub fn realfeel_measured(r: &RealfeelResult) -> String {
    let sub_100us =
        r.histogram.count_below(Nanos::from_us(100)) as f64 / r.histogram.count().max(1) as f64;
    format!("max {}; {:.2} % < 0.1 ms (n={})", r.summary.max, sub_100us * 100.0, r.summary.count)
}

/// Measured one-line summary for the RCIM figure.
pub fn rcim_measured(r: &RcimResult) -> String {
    format!(
        "min {}, avg {}, max {} (n={})",
        r.summary.min, r.summary.mean, r.summary.max, r.summary.count
    )
}

/// Shape verdicts for EXPERIMENTS.md: did the reproduction land in band?
pub mod verdict {
    use super::*;

    pub fn determinism(r: &DeterminismResult, lo_pct: f64, hi_pct: f64) -> &'static str {
        let j = r.summary.jitter_pct();
        if j >= lo_pct && j <= hi_pct {
            "in band"
        } else {
            "OUT OF BAND"
        }
    }

    pub fn latency_max(max: Nanos, lo: Nanos, hi: Nanos) -> &'static str {
        if max >= lo && max <= hi {
            "in band"
        } else {
            "OUT OF BAND"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_targets_cover_all_figures() {
        assert_eq!(PAPER_TARGETS.len(), 7);
        for (i, t) in PAPER_TARGETS.iter().enumerate() {
            assert_eq!(t.id, format!("fig{}", i + 1));
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_flag_reads_a_present_value() {
        let a = args(&["reproduce_all", "0.02", "--sweep", "10000", "--strict"]);
        assert_eq!(parse_flag::<u64>(&a, "--sweep"), Ok(Some(10_000)));
        assert_eq!(parse_flag::<String>(&a, "--sweep"), Ok(Some("10000".into())));
    }

    #[test]
    fn parse_flag_absent_is_none() {
        let a = args(&["reproduce_all", "0.02", "--strict"]);
        assert_eq!(parse_flag::<u64>(&a, "--sweep"), Ok(None));
    }

    #[test]
    fn parse_flag_rejects_unparsable_values() {
        let a = args(&["reproduce_all", "--sweep", "10k", "--strict"]);
        assert!(parse_flag::<u64>(&a, "--sweep").unwrap_err().contains("--sweep"));
        let a = args(&["fault_matrix", "--workers", "-1"]);
        assert!(parse_flag::<u32>(&a, "--workers").is_err());
    }

    #[test]
    fn parse_flag_rejects_a_missing_value() {
        // At the end of the arguments, and with another flag in its place.
        let a = args(&["reproduce_all", "--json"]);
        assert!(parse_flag::<String>(&a, "--json").is_err());
        let a = args(&["reproduce_all", "--json", "--strict"]);
        assert!(parse_flag::<String>(&a, "--json").is_err());
    }

    #[test]
    fn verdict_bands() {
        assert_eq!(
            verdict::latency_max(Nanos::from_us(20), Nanos::from_us(10), Nanos::from_us(30)),
            "in band"
        );
        assert_eq!(
            verdict::latency_max(Nanos::from_ms(5), Nanos::from_us(10), Nanos::from_us(30)),
            "OUT OF BAND"
        );
    }
}
