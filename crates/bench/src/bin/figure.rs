//! Regenerates one figure of the paper:
//! `figure <fig1..fig7> [scale] [--shards <n>] [--csv <path>]`.
//!
//! The scale factor (default 1.0, or `SP_SCALE`) multiplies the figure's
//! iterations (Figures 1–4, at least 4) or samples (Figures 5–7, at least
//! 1,000). `--shards <n>` (or `SP_SHARDS`) splits Figures 5–7 across
//! forked-seed shards. `--csv <path>` dumps the histogram buckets.

use sp_bench::{scale_from_args, shards_from_args};
use sp_experiments::report::{maybe_write_csv, render_determinism, render_rcim, render_realfeel};
use sp_experiments::{
    run_determinism, run_rcim, run_realfeel, DeterminismConfig, RcimConfig, RealfeelConfig,
};

const USAGE: &str = "usage: figure <fig1..fig7> [scale] [--shards <n>] [--csv <path>]";

fn main() {
    let id = std::env::args().nth(1).unwrap_or_default();
    let scale = scale_from_args();
    let samples = |base: u64| ((base as f64 * scale).ceil() as u64).max(1_000);
    let determinism = |base: DeterminismConfig| {
        let iters = ((base.iterations as f64 * scale).ceil() as u32).max(4);
        let result = run_determinism(&base.with_iterations(iters));
        maybe_write_csv(&result.variance_histogram);
        render_determinism(&id, &result)
    };
    let realfeel = |base: RealfeelConfig| {
        let n = samples(base.samples);
        let result = run_realfeel(&base.with_samples(n).with_shards(shards_from_args(1)));
        maybe_write_csv(&result.histogram);
        render_realfeel(&id, &result)
    };
    let rcim = |base: RcimConfig| {
        let n = samples(base.samples);
        let result = run_rcim(&base.with_samples(n).with_shards(shards_from_args(1)));
        maybe_write_csv(&result.histogram);
        render_rcim(&id, &result)
    };
    let out = match id.as_str() {
        "fig1" => determinism(DeterminismConfig::fig1_vanilla_ht()),
        "fig2" => determinism(DeterminismConfig::fig2_redhawk_shielded()),
        "fig3" => determinism(DeterminismConfig::fig3_redhawk_unshielded()),
        "fig4" => determinism(DeterminismConfig::fig4_vanilla_noht()),
        "fig5" => realfeel(RealfeelConfig::fig5_vanilla()),
        "fig6" => realfeel(RealfeelConfig::fig6_redhawk_shielded()),
        "fig7" => rcim(RcimConfig::fig7_redhawk_shielded()),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    print!("{out}");
}
