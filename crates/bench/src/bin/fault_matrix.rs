//! Shield-robustness fault matrix: re-run the fig-6 (realfeel/RTC read) and
//! fig-7 (RCIM BKL-free ioctl) measured tasks under every `sp-inject` fault,
//! shielded and unshielded, plus the mid-run reshield transient.
//!
//! Arguments (all optional):
//!   `<scale>`          per-cell sample scale factor, default 1.0 (or `SP_SCALE`)
//!   --shards `<n>`     shards per matrix cell, default 1 (or `SP_SHARDS`);
//!                    the reshield transient is always single-simulation
//!   --topk `<k>`       worst windows captured per cell, default 1
//!                    (or `SP_TRACE_TOPK`); 0 disables capture
//!   --strict         exit non-zero on any band violation
//!
//! With capture on, writes `worst_case_trace_faultmatrix.json` — the
//! Perfetto trace of the worst window across the whole matrix (invariably an
//! unshielded faulted cell) — and prints its cause chain. A flag given
//! without a value, or with one that does not parse, is a usage error (exit
//! status 2).

use sp_bench::{flightout, scale_from_args, shards_from_args, topk_from_args, workers_from_args};
use sp_experiments::{run_fault_matrix_with_flight, FaultMatrixConfig};

fn main() {
    let scale = scale_from_args();
    let shards = shards_from_args(1);
    let workers = workers_from_args();
    let top_k = topk_from_args(1);
    let strict = std::env::args().any(|a| a == "--strict");

    let cfg = FaultMatrixConfig::scaled(scale).with_shards(shards);
    eprintln!(
        "fault matrix: {} samples/cell, {} shard(s) per cell, {workers} worker(s), \
         top-{top_k} trace capture...",
        cfg.samples_per_cell, cfg.shards
    );
    let t0 = std::time::Instant::now();
    let (report, flights) = run_fault_matrix_with_flight(&cfg, top_k);
    eprintln!("matrix finished in {:.1}s", t0.elapsed().as_secs_f64());

    print!("{}", report.markdown());

    // The worst captured window across every cell: the matrix's "why was
    // the max the max" exhibit.
    let worst_cell = flights
        .iter()
        .filter(|f| !f.traces.is_empty())
        .max_by_key(|f| f.traces[0].latency);
    if let Some(cell) = worst_cell {
        let label = format!(
            "{}/{} ({})",
            cell.fault,
            cell.path,
            if cell.shielded { "shielded" } else { "unshielded" }
        );
        match flightout::emit_worst_case("faultmatrix", &label, &cell.traces) {
            Ok(Some(chain)) => print!("\n{chain}"),
            Ok(None) => {}
            Err(e) => eprintln!("note: could not write worst-cell trace artifact: {e}"),
        }
    }

    if report.violations.is_empty() {
        println!("\nall bands hold: shielded worst stays in bound under every fault");
    } else {
        println!("\nband violations:");
        for v in &report.violations {
            println!("  - {v}");
        }
        if strict {
            std::process::exit(1);
        }
    }
}
