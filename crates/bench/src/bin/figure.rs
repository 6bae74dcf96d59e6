//! Regenerates one figure of the paper:
//! `figure <fig1..fig7> [scale] [--shards <n>] [--csv <path>]`.
//!
//! The scale factor (default 1.0, or `SP_SCALE`) multiplies the figure's
//! iterations (Figures 1–4, at least 4) or samples (Figures 5–7, at least
//! 1,000). `--shards <n>` (or `SP_SHARDS`) splits Figures 5–7 across
//! forked-seed shards. `--csv <path>` dumps the histogram buckets.

use sp_bench::{flag_from_args, scale_from_args, shards_from_args};
use sp_experiments::Figure;
use sp_metrics::LatencyHistogram;
use std::fmt::Write as _;

const USAGE: &str = "usage: figure <fig1..fig7> [scale] [--shards <n>] [--csv <path>]";

/// Determinism iterations a single figure runs at any scale.
const MIN_ITERATIONS: u32 = 4;

fn main() {
    let id = std::env::args().nth(1).unwrap_or_default();
    let Some(fig) = Figure::from_id(&id) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let scale = scale_from_args();
    let experiment = fig.experiment().scaled(scale, MIN_ITERATIONS, shards_from_args(1));
    let (result, _) = experiment.run(0);
    if let Some(path) = flag_from_args::<String>("--csv") {
        match std::fs::write(&path, histogram_csv(result.histogram())) {
            Ok(()) => eprintln!("histogram data written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    print!("{}", result.render(fig.id()));
}

/// CSV of a histogram's non-empty buckets (`bucket_upper_ns,count`), for
/// external plotting.
fn histogram_csv(h: &LatencyHistogram) -> String {
    let mut out = String::from("bucket_upper_ns,count\n");
    for (upper, count) in h.nonzero_buckets() {
        let _ = writeln!(out, "{},{}", upper.as_ns(), count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_experiments::{run_rcim, RcimConfig};

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
