//! Paper-style rendering of experiment results.

use crate::determinism::DeterminismResult;
use crate::realfeel::RealfeelResult;
use crate::rcim::RcimResult;
use simcore::Nanos;
use sp_metrics::{ascii_histogram, PlotOptions};
use std::fmt::Write as _;

fn header(id: &str, title: &str, label: &str) -> String {
    let rule = "=".repeat(72);
    format!("{rule}\n{id}: {title}\n  configuration: {label}\n{rule}\n")
}

/// Render a determinism result like Figures 1–4: a variance-from-ideal
/// histogram plus the ideal/max/jitter legend.
pub fn render_determinism(id: &str, r: &DeterminismResult) -> String {
    let mut out = header(id, "execution determinism", &r.config.label());
    let hi = r.variance_histogram.max().max(Nanos::from_ms(1));
    out.push_str("  variance from ideal (log-scaled sample counts)\n");
    out.push_str(&ascii_histogram(
        &r.variance_histogram,
        Nanos::ZERO,
        hi,
        &PlotOptions { bins: 24, width: 40, log_counts: true },
    ));
    let _ = writeln!(out, "\n  {}", r.summary);
    let _ = writeln!(
        out,
        "  interrupt-context share of the loop CPU: {:.2}%",
        r.steal_fraction * 100.0
    );
    out
}

/// Render a realfeel result like Figures 5–6: log histogram + the
/// cumulative "samples < X" block.
pub fn render_realfeel(id: &str, r: &RealfeelResult) -> String {
    let mut out = header(id, "realfeel interrupt response (/dev/rtc read)", &r.config.label());
    let hi = r.histogram.max().max(Nanos::from_us(100));
    out.push_str(&ascii_histogram(
        &r.histogram,
        Nanos::ZERO,
        hi,
        &PlotOptions { bins: 24, width: 40, log_counts: true },
    ));
    let _ = writeln!(out, "\n  {} measured rtc interrupts", r.summary.count);
    let _ = writeln!(out, "  max latency: {}", r.summary.max);
    let _ = writeln!(out, "  overrun interrupts (reader not waiting): {}", r.overruns);
    out.push_str(&r.cumulative.to_string());
    out
}

/// Render an RCIM result like Figure 7.
pub fn render_rcim(id: &str, r: &RcimResult) -> String {
    let mut out = header(id, "RCIM interrupt response (BKL-free ioctl)", &r.config.label());
    let hi = r.histogram.max().max(Nanos::from_us(40));
    out.push_str(&ascii_histogram(
        &r.histogram,
        Nanos::ZERO,
        hi,
        &PlotOptions { bins: 24, width: 40, log_counts: true },
    ));
    let _ = writeln!(out, "\n  {} measured RCIM interrupts", r.summary.count);
    let _ = writeln!(out, "  minimum latency: {}", r.summary.min);
    let _ = writeln!(out, "  maximum latency: {}", r.summary.max);
    let _ = writeln!(out, "  average latency: {}", r.summary.mean);
    out.push_str(&r.cumulative.to_string());
    out
}

/// CSV of a histogram's non-empty buckets (`bucket_upper_ns,count`), for
/// external plotting.
pub fn histogram_csv(h: &sp_metrics::LatencyHistogram) -> String {
    let mut out = String::from("bucket_upper_ns,count\n");
    for (upper, count) in h.nonzero_buckets() {
        let _ = writeln!(out, "{},{}", upper.as_ns(), count);
    }
    out
}

/// Write figure data to a CSV file if the binary got a `--csv <path>` pair.
pub fn maybe_write_csv(h: &sp_metrics::LatencyHistogram) {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.iter().position(|a| a == "--csv").and_then(|i| args.get(i + 1)) else {
        return;
    };
    match std::fs::write(path, histogram_csv(h)) {
        Ok(()) => eprintln!("histogram data written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinism::{run_determinism, DeterminismConfig};
    use crate::realfeel::{run_realfeel, RealfeelConfig};
    use crate::rcim::{run_rcim, RcimConfig};
    use simcore::Nanos;

    #[test]
    fn renders_carry_the_paper_numbers() {
        let mut cfg = DeterminismConfig::fig2_redhawk_shielded().with_iterations(4);
        cfg.loop_work = Nanos::from_ms(100);
        let d = run_determinism(&cfg);
        let text = render_determinism("fig2", &d);
        assert!(text.contains("fig2: execution determinism"), "{text}");
        assert!(text.contains("ideal:"), "{text}");
        assert!(text.contains("jitter:"), "{text}");
        assert!(text.contains("interrupt-context share"), "{text}");

        let r = run_realfeel(&RealfeelConfig::fig6_redhawk_shielded().with_samples(3_000));
        let text = render_realfeel("fig6", &r);
        assert!(text.contains("measured rtc interrupts"), "{text}");
        assert!(text.contains("max latency:"), "{text}");
        assert!(text.contains("samples <"), "{text}");

        let r = run_rcim(&RcimConfig::fig7_redhawk_shielded().with_samples(3_000));
        let text = render_rcim("fig7", &r);
        assert!(text.contains("minimum latency:"), "{text}");
        assert!(text.contains("average latency:"), "{text}");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let r = run_rcim(&RcimConfig::fig7_redhawk_shielded().with_samples(2_000));
        let csv = histogram_csv(&r.histogram);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("bucket_upper_ns,count"));
        let rows: Vec<&str> = lines.collect();
        assert!(rows.len() > 5, "bucket rows: {}", rows.len());
        let total: u64 = rows
            .iter()
            .map(|l| l.split(',').nth(1).unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, r.histogram.count());
    }
}
