//! Scheduler-load sweep: wake-to-run cost as the runnable count grows.
//!
//! The O(1) scheduler is one of the RedHawk ingredients (§4). The 2.4
//! scheduler's `goodness()` loop walks every runnable task on each pick, so
//! an RT wakeup pays O(n); the O(1) scheduler's bitmap pick is flat. This
//! sweep measures an RCIM waiter's latency against an increasing crowd of
//! runnable background tasks (no shielding, so the pick cost is exposed).

use simcore::{DurationDist, Nanos};
use sp_bench::scale_from_args;
use sp_devices::RcimDevice;
use sp_hw::{CpuId, CpuMask, MachineConfig};
use sp_kernel::{
    KernelConfig, KernelVariant, Op, Program, SchedPolicy, Simulator, TaskSpec, WaitApi,
};
use sp_metrics::{LatencyHistogram, LatencySummary, Table};

fn run(variant: KernelVariant, runnable: u32, seconds: u64) -> LatencySummary {
    let mut sim =
        Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::new(variant), 0x5C_ED);
    let rcim = sim.add_device(RcimDevice::new(Nanos::from_ms(1)));
    // A crowd of always-runnable timesharing tasks on cpu0 — pure scheduler
    // pressure, negligible kernel-section interference.
    for i in 0..runnable {
        sim.spawn(
            TaskSpec::new(
                format!("crowd{i}"),
                SchedPolicy::nice(0),
                Program::forever(vec![Op::Compute(DurationDist::constant(Nanos::from_us(200)))]),
            )
            .pinned(CpuMask::single(CpuId(0)))
            .mlockall(),
        );
    }
    let pid = sim.spawn(
        TaskSpec::new(
            "rt",
            SchedPolicy::fifo(90),
            Program::forever(vec![Op::WaitIrq {
                device: rcim,
                api: WaitApi::IoctlWait { driver_bkl_free: true },
            }]),
        )
        .pinned(CpuMask::single(CpuId(0)))
        .mlockall(),
    );
    sim.watch_latency(pid);
    sim.set_irq_affinity(rcim, CpuMask::single(CpuId(0))).unwrap();
    sim.start();
    sim.run_for(Nanos::from_secs(seconds));
    let h: LatencyHistogram = sim.obs.latencies(pid).iter().copied().collect();
    LatencySummary::from_histogram(&h)
}

fn main() {
    let scale = scale_from_args();
    let seconds = ((20.0 * scale).ceil() as u64).max(3);
    let crowds = [0u32, 10, 40, 120];

    let mut t = Table::new([
        "runnable tasks",
        "2.4 sched p50",
        "2.4 sched max",
        "O(1) sched p50",
        "O(1) sched max",
    ]);
    for &n in &crowds {
        // Preempt+lowlat carries the 2.4 scheduler; RedHawk carries O(1).
        // Both are preemptible, so the difference isolates the pick cost.
        let old = run(KernelVariant::PreemptLowLat, n, seconds);
        let o1 = run(KernelVariant::RedHawk, n, seconds);
        t.row([
            n.to_string(),
            old.p50.to_string(),
            old.max.to_string(),
            o1.p50.to_string(),
            o1.max.to_string(),
        ]);
    }
    println!("RT wake latency vs runnable-task count ({seconds}s per cell)\n");
    print!("{}", t.render());
    println!("\n(the 2.4 goodness() scan pays ~120 ns per runnable task on every");
    println!(" pick; the O(1) bitmap pick is flat — Ingo Molnar's patch in §4)");
}
