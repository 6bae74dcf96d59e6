//! Quickstart: shield a CPU, bind a real-time task and its interrupt into
//! the shield, and watch the worst-case response drop to tens of
//! microseconds while the rest of the machine is hammered.
//!
//! Run with: `cargo run --release --example quickstart`

use shielded_processors::prelude::*;
use sp_workloads::{stress_kernel, StressDevices};

fn main() {
    // Dual-processor machine, RedHawk 1.4-style kernel.
    let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), 7);

    // Hardware: the RCIM interrupt card plus a NIC and disk for background load.
    let rcim = sim.add_device(RcimDevice::new(Nanos::from_ms(1)));
    let nic = sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(
        Nanos::from_us(700),
    ))));
    let disk = sim.add_device(DiskDevice::new());

    // Background: the full stress-kernel suite.
    stress_kernel(&mut sim, StressDevices { nic, disk });

    // The real-time task: block in ioctl() until the RCIM interrupt fires.
    let rt = sim.spawn(
        TaskSpec::new(
            "rt-waiter",
            SchedPolicy::fifo(90),
            Program::forever(vec![Op::WaitIrq {
                device: rcim,
                api: WaitApi::IoctlWait { driver_bkl_free: true },
            }]),
        )
        .mlockall(),
    );
    sim.watch_latency(rt);
    sim.start();

    // Phase 1: unshielded.
    sim.run_for(Nanos::from_secs(5));
    let unshielded = summarize(sim.obs.latencies(rt));

    // Phase 2: shield CPU 1, bind the task and its interrupt into it.
    let samples_before = sim.obs.latencies(rt).len();
    ShieldPlan::cpu(CpuId(1))
        .bind_task(rt)
        .bind_irq(rcim)
        .apply(&mut sim)
        .expect("shield plan applies");
    println!("shield state now:\n{}", ProcShield::status(&sim));
    sim.run_for(Nanos::from_secs(5));
    let shielded = summarize(&sim.obs.latencies(rt)[samples_before..]);

    let mut table = Table::new(["configuration", "samples", "p50", "p99", "max"]);
    for (name, s) in [("unshielded", unshielded), ("shielded cpu1", shielded)] {
        table.row([
            name.to_string(),
            s.count.to_string(),
            s.p50.to_string(),
            s.p99.to_string(),
            s.max.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("\nThat's the paper's claim: the shield turns a busy commodity");
    println!("kernel into a sub-30-microsecond-worst-case real-time system.");
}

fn summarize(latencies: &[Nanos]) -> LatencySummary {
    let h: LatencyHistogram = latencies.iter().copied().collect();
    LatencySummary::from_histogram(&h)
}
