//! The §5 determinism experiment as an application: time a fixed compute
//! loop under background load on four kernel configurations and print the
//! paper-style variance histograms side by side.
//!
//! Run with: `cargo run --release --example determinism [iterations]`

use shielded_processors::prelude::*;
use sp_experiments::{Experiment, Figure, FigureResult};

fn main() {
    let iterations: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(30);

    let mut table = Table::new(["figure", "configuration", "ideal", "max", "jitter %"]);
    for fig in Figure::ALL {
        let Experiment::Determinism(cfg) = fig.experiment() else { continue };
        let (result, _) = Experiment::Determinism(cfg.with_iterations(iterations)).run(0);
        print!("{}", result.render(fig.id()));
        let FigureResult::Determinism(r) = &result else { unreachable!() };
        table.row([
            fig.id().to_string(),
            result.label(),
            format!("{:.4}s", r.summary.ideal.as_secs_f64()),
            format!("{:.4}s", r.summary.max.as_secs_f64()),
            format!("{:.2}", r.summary.jitter_pct()),
        ]);
    }
    println!("\nsummary ({iterations} iterations each):\n");
    print!("{}", table.render());
}
