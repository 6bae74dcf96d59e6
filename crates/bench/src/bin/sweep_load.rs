//! Load sweep: worst-case RCIM response as a function of background
//! interrupt rate, shielded vs unshielded.
//!
//! The paper's central claim is not just a small number but its *load
//! independence*: "This guarantee can be made even in the presence of heavy
//! networking and graphics activity." The unshielded worst case grows with
//! offered load; the shielded one stays flat at the path cost.

use simcore::Nanos;
use sp_bench::scale_from_args;
use sp_core::ShieldPlan;
use sp_devices::{DiskDevice, NicDevice, OnOffPoisson, RcimDevice};
use sp_hw::{CpuId, CpuMask, MachineConfig};
use sp_kernel::{KernelConfig, Op, Program, SchedPolicy, Simulator, TaskSpec, WaitApi};
use sp_metrics::{LatencyHistogram, LatencySummary, Table};
use sp_workloads::{stress_kernel, StressDevices};

fn run(nic_rate_hz: u64, shielded: bool, seconds: u64) -> LatencySummary {
    let mut sim =
        Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), 0x5EEB + nic_rate_hz);
    let rcim = sim.add_device(RcimDevice::new(Nanos::from_ms(1)));
    let external = 1_000_000_000u64
        .checked_div(nic_rate_hz)
        .map(|period| OnOffPoisson::continuous(Nanos(period)));
    let nic = sim.add_device(NicDevice::new(external));
    let disk = sim.add_device(DiskDevice::new());
    stress_kernel(&mut sim, StressDevices { nic, disk });
    let mut spec = TaskSpec::new(
        "rt",
        SchedPolicy::fifo(90),
        Program::forever(vec![Op::WaitIrq {
            device: rcim,
            api: WaitApi::IoctlWait { driver_bkl_free: true },
        }]),
    )
    .mlockall();
    if shielded {
        spec = spec.pinned(CpuMask::single(CpuId(1)));
    }
    let pid = sim.spawn(spec);
    sim.watch_latency(pid);
    sim.start();
    if shielded {
        ShieldPlan::cpu(CpuId(1)).bind_task(pid).bind_irq(rcim).apply(&mut sim).unwrap();
    }
    sim.run_for(Nanos::from_secs(seconds));
    let h: LatencyHistogram = sim.obs.latencies(pid).iter().copied().collect();
    LatencySummary::from_histogram(&h)
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
