//! Shield tuning: the three shield dimensions (processes, interrupts, local
//! timer) are independent. This example measures what each one buys for a
//! periodic real-time task, the kind of exploration §3's "dynamically
//! enabled ... when tuning system performance" remark describes.
//!
//! Run with: `cargo run --release --example shield_tuning`

use shielded_processors::prelude::*;
use sp_workloads::{disknoise, scp_nic_profile, scp_receiver};

/// Build the standard scenario; returns (sim, rt pid, rcim device).
fn scenario(seed: u64) -> (Simulator, Pid, DeviceId) {
    let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), seed);
    let rcim = sim.add_device(RcimDevice::new(Nanos::from_ms(2)));
    let nic = sim.add_device(NicDevice::new(Some(scp_nic_profile())));
    let disk = sim.add_device(DiskDevice::new());
    let _ = nic;
    scp_receiver(&mut sim, disk);
    disknoise(&mut sim, disk);
    let rt = sim.spawn(
        TaskSpec::new(
            "rt",
            SchedPolicy::fifo(90),
            Program::forever(vec![Op::WaitIrq {
                device: rcim,
                api: WaitApi::IoctlWait { driver_bkl_free: true },
            }]),
        )
        .pinned(CpuMask::single(CpuId(1)))
        .mlockall(),
    );
    sim.watch_latency(rt);
    sim.start();
    (sim, rt, rcim)
}

fn run(name: &str, ctl: ShieldCtl, bind_irq: bool, t: &mut Table) {
    let (mut sim, rt, rcim) = scenario(0xBEEF);
    sim.set_shield(ctl).expect("shield");
    if bind_irq {
        sim.set_irq_affinity(rcim, CpuMask::single(CpuId(1))).expect("irq bind");
    }
    sim.run_for(Nanos::from_secs(6));
    let h: LatencyHistogram = sim.obs.latencies(rt).iter().copied().collect();
    let s = LatencySummary::from_histogram(&h);
    t.row([
        name.to_string(),
        sim.obs.cpu[1].ticks.to_string(),
        s.p50.to_string(),
        s.p999.to_string(),
        s.max.to_string(),
    ]);
}

fn main() {
    let cpu1 = CpuMask::single(CpuId(1));
    let mut t = Table::new(["shield configuration", "cpu1 ticks", "p50", "p99.9", "max"]);
    run("none", ShieldCtl::NONE, false, &mut t);
    run(
        "procs only",
        ShieldCtl { procs: cpu1, irqs: CpuMask::EMPTY, ltmrs: CpuMask::EMPTY, ..ShieldCtl::NONE },
        false,
        &mut t,
    );
    run(
        "procs + irqs",
        ShieldCtl { procs: cpu1, irqs: cpu1, ltmrs: CpuMask::EMPTY, ..ShieldCtl::NONE },
        true,
        &mut t,
    );
    run("full (procs + irqs + local timer)", ShieldCtl::full(cpu1), true, &mut t);
    print!("{}", t.render());
    println!("\nEach dimension removes one interference source; the paper's");
    println!("experiments all use the full shield (bottom row).");
}
