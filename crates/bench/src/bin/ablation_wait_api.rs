//! Ablation A5: `/dev/rtc` read() vs RCIM ioctl() on an identical shielded
//! setup (§6.2's diagnosis).
//!
//! The paper concluded realfeel's residual sub-millisecond tail came from
//! the generic file layer traversed on the read() exit, not from shielding.
//! The slow path is rare (≈3×10⁻⁷ per sample at paper scale), so for a
//! bench-sized demonstration both runs use an inflated slow-path probability
//! (5 % of reads): the ioctl path never touches the file layer, so only the
//! read() column grows a tail — the mechanism, isolated.

use simcore::Nanos;
use sp_bench::scale_from_args;
use sp_core::ShieldPlan;
use sp_kernel::devices::{DiskDevice, NicDevice, OnOffPoisson, RcimDevice, RtcDevice};
use sp_hw::{CpuId, CpuMask, MachineConfig};
use sp_kernel::{
    KernelConfig, KernelSegment, LockId, Op, Program, SchedPolicy, Simulator, SyscallService,
    TaskSpec, WaitApi,
};
use simcore::DurationDist;
use sp_metrics::{LatencyHistogram, LatencySummary, Table};
use sp_workloads::{stress_kernel, StressDevices};

const INFLATED_SLOW_PATH: f64 = 0.05;

fn run(use_rcim: bool, seconds: u64) -> LatencySummary {
    let mut kcfg = KernelConfig::redhawk();
    kcfg.sections.read_exit_file_lock_prob = INFLATED_SLOW_PATH;
    let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), kcfg, 0xA5_A5);
    // Both interrupt sources exist in both runs so the load is identical.
    let rtc = sim.add_device(RtcDevice::new(2048));
    let rcim = sim.add_device(RcimDevice::new(Nanos::from_us(488)));
    let nic = sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(
        Nanos::from_us(700),
    ))));
    let disk = sim.add_device(DiskDevice::new());
    stress_kernel(&mut sim, StressDevices { nic, disk });
    // Keep the file-layer lock hot on the unshielded CPU so the inflated
    // slow path actually collides (same producer in both runs).
    let hammer = sim.register_syscall(
        SyscallService::new("file_hammer")
            .segment(KernelSegment::locked(
                LockId::FILE,
                DurationDist::uniform(Nanos::from_us(3), Nanos::from_us(20)),
            ))
            .not_injectable(),
    );
    sim.spawn(
        TaskSpec::new(
            "hammer",
            SchedPolicy::nice(0),
            Program::forever(vec![
                Op::Syscall(hammer),
                Op::Compute(DurationDist::exponential(Nanos::from_us(250))),
            ]),
        )
        .pinned(CpuMask::single(CpuId(0))),
    );

    let (dev, api) = if use_rcim {
        (rcim, WaitApi::IoctlWait { driver_bkl_free: true })
    } else {
        (rtc, WaitApi::ReadDevice)
    };
    let pid = sim.spawn(
        TaskSpec::new(
            "waiter",
            SchedPolicy::fifo(90),
            Program::forever(vec![Op::WaitIrq { device: dev, api }]),
        )
        .pinned(CpuMask::single(CpuId(1)))
        .mlockall(),
    );
    sim.watch_latency(pid);
    sim.start();
    ShieldPlan::cpu(CpuId(1)).bind_task(pid).bind_irq(dev).apply(&mut sim).unwrap();
    sim.run_for(Nanos::from_secs(seconds));
    let h: LatencyHistogram = sim.obs.latencies(pid).iter().copied().collect();
    LatencySummary::from_histogram(&h)
}

fn main() {
    let scale = scale_from_args();
    let seconds = ((60.0 * scale).ceil() as u64).max(5);
    let read = run(false, seconds);
    let ioctl = run(true, seconds);

    let mut t = Table::new(["wait API", "n", "min", "p50", "p99.99", "max"]);
    for (name, s) in [
        ("read(/dev/rtc) through the file layer", &read),
        ("ioctl(RCIM), BKL-free driver", &ioctl),
    ] {
        t.row([
            name.to_string(),
            s.count.to_string(),
            s.min.to_string(),
            s.p50.to_string(),
            s.p9999.to_string(),
            s.max.to_string(),
        ]);
    }
    println!(
        "A5 — wait API on identical shielded configurations\n    (file-layer slow path inflated to {:.0}%, lock kept hot, so the rare tail is visible)\n",
        INFLATED_SLOW_PATH * 100.0
    );
    print!("{}", t.render());
    println!(
        "\nfile-layer worst-case penalty: {:.1}x — the §6.2 gap between Figures 6 and 7",
        read.max.as_ns() as f64 / ioctl.max.as_ns().max(1) as f64
    );
}
