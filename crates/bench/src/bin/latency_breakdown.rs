//! Where does the latency go? Per-sample attribution of the realfeel wait
//! across kernel configurations:
//!
//! * `to_wake` — interrupt assert → wakeup (delivery delay + ISR),
//! * `to_run` — wakeup → first execution (softirq-ahead work,
//!   non-preemptible sections, scheduler pick, context switch),
//! * `exit`   — first execution → back in user mode (driver + file layer).
//!
//! This is the quantitative version of the paper's §6 narrative: on stock
//! 2.4 the `to_run` term dominates the worst case (non-preemptible
//! syscalls); shielding collapses it; what remains on the shielded CPU is
//! the exit path — which the RCIM ioctl then removes as well.
//!
//! Each configuration also runs with the flight recorder armed: after the
//! table, the binary prints the "why was the max the max" cause chain for
//! each row's worst sample and writes the event window behind it to
//! `worst_case_trace_breakdown_<row>.json` (Perfetto-loadable). `--topk <k>`
//! / `SP_TRACE_TOPK` sizes the capture set; 0 disables it.

use simcore::Nanos;
use sp_bench::{flightout, scale_from_args, topk_from_args};
use sp_experiments::scenario::{Built, ScenarioSpec};
use sp_hw::CpuId;
use sp_kernel::{KernelVariant, WorstCaseTrace};
use sp_metrics::Table;

struct Row {
    name: &'static str,
    to_wake_max: Nanos,
    to_run_max: Nanos,
    exit_max: Nanos,
    total_max: Nanos,
    /// Flight-recorder capture of the worst samples (worst first; empty
    /// when capture is disabled).
    traces: Vec<WorstCaseTrace>,
}

fn run(
    name: &'static str,
    variant: KernelVariant,
    shield: bool,
    seconds: u64,
    top_k: usize,
) -> Row {
    let mut spec = ScenarioSpec { kernel: variant, ..ScenarioSpec::rtc_testbed("realfeel", 2048) };
    if shield {
        spec = spec.on_cpu(CpuId(1), true);
    }
    let Built { mut sim, tasks, .. } = spec.build(0xB4EA_4D07).expect("breakdown spec builds");
    let pid = tasks[0];
    sim.watch_breakdown(pid);
    if top_k > 0 {
        sim.arm_flight(top_k);
    }
    sim.run_for(Nanos::from_secs(seconds));

    let bds = sim.obs.breakdowns(pid);
    assert!(!bds.is_empty(), "no samples for {name}");
    let max_by = |f: fn(&sp_kernel::WakeBreakdown) -> Nanos| {
        bds.iter().map(f).max().unwrap_or(Nanos::ZERO)
    };
    Row {
        name,
        to_wake_max: max_by(|b| b.to_wake),
        to_run_max: max_by(|b| b.to_run),
        exit_max: max_by(|b| b.exit_path),
        total_max: max_by(|b| b.total()),
        traces: sim.flight.top().to_vec(),
    }
}

/// File-name-safe slug for a configuration row.
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_")
}

fn main() {
    let scale = scale_from_args();
    let top_k = topk_from_args(1);
    let seconds = ((30.0 * scale).ceil() as u64).max(5);
    let rows = [
        run("kernel.org-2.4.18, unshielded", KernelVariant::Vanilla24, false, seconds, top_k),
        run("RedHawk-1.4, unshielded", KernelVariant::RedHawk, false, seconds, top_k),
        run("RedHawk-1.4, shielded cpu1", KernelVariant::RedHawk, true, seconds, top_k),
    ];
    let mut t = Table::new([
        "configuration",
        "max to-wake",
        "max to-run",
        "max exit-path",
        "max total",
    ]);
    for r in &rows {
        t.row([
            r.name.to_string(),
            r.to_wake_max.to_string(),
            r.to_run_max.to_string(),
            r.exit_max.to_string(),
            r.total_max.to_string(),
        ]);
    }
    println!("realfeel latency attribution ({seconds}s of simulated time per row)\n");
    print!("{}", t.render());
    println!("\n(to-run collapsing under the shield while exit-path persists is");
    println!(" exactly the paper's §6.2 diagnosis of the /dev/rtc residual tail)");

    if top_k > 0 {
        println!();
        for r in &rows {
            let id = format!("breakdown_{}", slug(r.name));
            match flightout::emit_worst_case(&id, r.name, &r.traces) {
                Ok(Some(chain)) => println!("{chain}"),
                Ok(None) => eprintln!("note: {}: no worst-case window captured", r.name),
                Err(e) => eprintln!("note: {}: could not write trace artifact: {e}", r.name),
            }
        }
    }
}
