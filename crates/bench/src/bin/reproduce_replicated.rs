//! Seed-replicated headline numbers: each figure-of-merit as
//! min / median / max across independent seeds — the "is this seed luck?"
//! check a single-run paper cannot do.
//!
//! Exits 1 if any Figure 7 replica's worst latency reaches the figure's
//! 30 µs ceiling: the shielded RCIM bound is the paper's guarantee, so it
//! must hold on every seed. The other rows are reported, not gated.

use simcore::Nanos;
use sp_bench::scale_from_args;
use sp_experiments::{replicate, Band, Figure};
use sp_metrics::Table;

fn main() {
    let scale = scale_from_args();
    let seeds = ((5.0 * scale).ceil() as u32).clamp(3, 25);
    let iters = ((40.0 * scale).ceil() as u32).max(8);
    let samples = ((120_000.0 * scale).ceil() as u64).max(5_000);

    let mut t = Table::new(["experiment", "figure of merit", "min", "median", "max"]);
    let mut fig7_max = Nanos::ZERO;
    for fig in Figure::ALL {
        let r = replicate(&fig.experiment().sized(iters, samples), seeds);
        let m = r.merit;
        t.row([
            format!("{} {}", fig.id(), fig.description()),
            m.name().to_string(),
            m.show(r.min),
            m.show(r.median),
            m.show(r.max),
        ]);
        if fig == Figure::Fig7 {
            fig7_max = Nanos(r.max);
        }
    }

    println!("headline numbers across {seeds} independent seeds\n");
    print!("{}", t.render());
    let Band::Max { hi, .. } = Figure::Fig7.band() else {
        unreachable!("Figure 7 has a latency band")
    };
    if fig7_max >= hi {
        println!("\nFAIL: a fig7 replica's max, {fig7_max}, reaches the paper's {hi} guarantee");
        std::process::exit(1);
    }
    println!(
        "\n(fig7 is the paper's guarantee: every seed's max stays under {hi}; worst {fig7_max})"
    );
}
