//! Load sweep: worst-case RCIM response as a function of background
//! interrupt rate, shielded vs unshielded.
//!
//! The paper's central claim is not just a small number but its *load
//! independence*: "This guarantee can be made even in the presence of heavy
//! networking and graphics activity." The unshielded worst case grows with
//! offered load; the shielded one stays flat at the path cost.

use simcore::Nanos;
use sp_bench::scale_from_args;
use sp_experiments::scenario::{run_scenario, DeviceKind, MeasuredResult, ScenarioSpec};
use sp_hw::{CpuId, MachineConfig};
use sp_kernel::devices::OnOffPoisson;
use sp_metrics::{LatencySummary, Table};

/// The RCIM waiter on the dual P3 under stress-kernel, with `nic_rate_hz`
/// extra NIC interrupts per second (none at 0).
fn run(nic_rate_hz: u64, shielded: bool, seconds: u64) -> LatencySummary {
    let external = 1_000_000_000u64
        .checked_div(nic_rate_hz)
        .map(|period| Box::new(OnOffPoisson::continuous(Nanos(period))));
    let mut spec = ScenarioSpec {
        seed: 0x5EEB + nic_rate_hz,
        machine: MachineConfig::dual_xeon_p3(),
        run_secs: seconds as f64,
        ..ScenarioSpec::rcim_testbed("rt", 1_000)
    };
    spec.devices[1].kind = DeviceKind::Nic { external };
    // Stress-kernel only: drop the graphics card and its X11perf driver.
    spec.devices.truncate(3);
    spec.workloads.truncate(1);
    if shielded {
        spec = spec.on_cpu(CpuId(1), true);
    }
    let report = run_scenario(&spec).expect("load-sweep scenario runs");
    let MeasuredResult::Latency { summary, .. } = &report.results["rt"] else {
        unreachable!("an IrqWait task reports latency")
    };
    *summary
}

fn main() {
    let scale = scale_from_args();
    let seconds = ((30.0 * scale).ceil() as u64).max(5);
    let rates = [0u64, 250, 500, 1_000, 2_000, 4_000];

    let mut t = Table::new([
        "extra NIC irq/s",
        "unshielded p99.9",
        "unshielded max",
        "shielded p99.9",
        "shielded max",
    ]);
    let mut shielded_maxes = Vec::new();
    for &rate in &rates {
        let u = run(rate, false, seconds);
        let s = run(rate, true, seconds);
        shielded_maxes.push(s.max);
        t.row([
            rate.to_string(),
            u.p999.to_string(),
            u.max.to_string(),
            s.p999.to_string(),
            s.max.to_string(),
        ]);
    }
    println!("RCIM worst-case response vs offered interrupt load ({seconds}s per cell)\n");
    print!("{}", t.render());
    let spread = shielded_maxes.iter().max().unwrap().as_ns() as f64
        / shielded_maxes.iter().min().unwrap().as_ns() as f64;
    println!("\nshielded worst case varies only {spread:.2}x across a 16x load range —");
    println!("the paper's load-independent guarantee.");
}
