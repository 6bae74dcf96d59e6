//! A cyclictest-equivalent: a SCHED_FIFO task sleeps a fixed interval in a
//! loop; the oversleep (actual period − requested interval) is the
//! scheduling latency. The classic successor to realfeel — included because
//! it exposes a *different* RedHawk ingredient than the interrupt tests: the
//! POSIX high-resolution timers patch. Stock 2.4 rounds every sleep up to
//! the 10 ms jiffy grid, so its baseline error is three orders of magnitude
//! above the patched kernels' microseconds.

use simcore::{DurationDist, Nanos};
use sp_bench::scale_from_args;
use sp_core::ShieldPlan;
use sp_devices::{DiskDevice, NicDevice};
use sp_hw::{CpuId, CpuMask, MachineConfig};
use sp_kernel::{KernelConfig, KernelVariant, Op, Program, SchedPolicy, Simulator, TaskSpec};
use sp_metrics::{LatencyHistogram, LatencySummary, Table};
use sp_workloads::{disknoise, scp_nic_profile, scp_receiver};

const INTERVAL: Nanos = Nanos::from_ms(1);

fn run(variant: KernelVariant, shield: bool, seconds: u64) -> LatencySummary {
    let mut sim =
        Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::new(variant), 0xCC_11);
    let _nic = sim.add_device(NicDevice::new(Some(scp_nic_profile())));
    let disk = sim.add_device(DiskDevice::new());
    scp_receiver(&mut sim, disk);
    disknoise(&mut sim, disk);
    let mut spec = TaskSpec::new(
        "cyclictest",
        SchedPolicy::fifo(90),
        Program::forever(vec![Op::MarkLap, Op::Sleep(DurationDist::constant(INTERVAL))]),
    )
    .mlockall();
    if shield {
        spec = spec.pinned(CpuMask::single(CpuId(1)));
    }
    let pid = sim.spawn(spec);
    sim.watch_laps(pid);
    sim.start();
    if shield {
        ShieldPlan::cpu(CpuId(1)).bind_task(pid).apply(&mut sim).unwrap();
    }
    sim.run_for(Nanos::from_secs(seconds));
    // Oversleep beyond the requested interval.
    let h: LatencyHistogram =
        sim.obs.lap_durations(pid).into_iter().map(|d| d.saturating_sub(INTERVAL)).collect();
    LatencySummary::from_histogram(&h)
}

fn main() {
    let scale = scale_from_args();
    let seconds = ((30.0 * scale).ceil() as u64).max(3);

    let mut t = Table::new(["kernel", "shield", "cycles", "avg oversleep", "max oversleep"]);
    let rows: Vec<(&str, KernelVariant, bool)> = vec![
        ("kernel.org-2.4.18", KernelVariant::Vanilla24, false),
        ("2.4.18-preempt-lowlat", KernelVariant::PreemptLowLat, false),
        ("RedHawk-1.4", KernelVariant::RedHawk, false),
        ("RedHawk-1.4", KernelVariant::RedHawk, true),
    ];
    for (name, variant, shield) in rows {
        let s = run(variant, shield, seconds);
        t.row([
            name.to_string(),
            if shield { "cpu1".into() } else { "-".to_string() },
            s.count.to_string(),
            s.mean.to_string(),
            s.max.to_string(),
        ]);
    }
    println!("cyclictest: 1 ms periodic sleep under §5.1 load ({seconds}s per row)\n");
    print!("{}", t.render());
    println!("\n(stock 2.4's huge baseline is jiffy rounding — every sleep lands on");
    println!(" the next 10 ms tick — which the POSIX timers patch in RedHawk removes;");
    println!(" shielding then cuts the residual scheduling latency)");
}
