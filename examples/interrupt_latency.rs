//! Interrupt response through the `/proc/shield` interface, the way a
//! RedHawk administrator would set it up by hand: echo masks into the proc
//! files, then watch the latency distribution change.
//!
//! Run with: `cargo run --release --example interrupt_latency`

use shielded_processors::prelude::*;
use sp_workloads::{stress_kernel, StressDevices};

fn main() {
    let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), 21);
    let rtc = sim.add_device(RtcDevice::new(2048));
    let nic = sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(
        Nanos::from_ms(1),
    ))));
    let disk = sim.add_device(DiskDevice::new());
    stress_kernel(&mut sim, StressDevices { nic, disk });

    // realfeel: read(/dev/rtc) in a loop, pinned where the shield will be.
    let realfeel = sim.spawn(
        TaskSpec::new(
            "realfeel",
            SchedPolicy::fifo(90),
            Program::forever(vec![Op::WaitIrq { device: rtc, api: WaitApi::ReadDevice }]),
        )
        .pinned(CpuMask::single(CpuId(1)))
        .mlockall(),
    );
    sim.watch_latency(realfeel);
    sim.start();

    println!("before shielding:\n{}", ProcShield::status(&sim));
    sim.run_for(Nanos::from_secs(4));
    let before = snapshot(sim.obs.latencies(realfeel));

    // The administrator's three writes, plus the irq binding.
    for file in [ShieldFile::Procs, ShieldFile::Irqs, ShieldFile::Ltmrs] {
        ProcShield::write(&mut sim, file, "0x2").expect("/proc/shield write");
    }
    sim.set_irq_affinity(rtc, CpuMask::single(CpuId(1))).expect("smp_affinity write");
    println!("after shielding:\n{}", ProcShield::status(&sim));

    let mark = sim.obs.latencies(realfeel).len();
    sim.run_for(Nanos::from_secs(4));
    let after = snapshot(&sim.obs.latencies(realfeel)[mark..]);

    let mut t = Table::new(["phase", "samples", "p50", "p99.9", "max"]);
    for (name, s) in [("unshielded", before), ("shielded", after)] {
        t.row([
            name.to_string(),
            s.count.to_string(),
            s.p50.to_string(),
            s.p999.to_string(),
            s.max.to_string(),
        ]);
    }
    print!("{}", t.render());
}

fn snapshot(latencies: &[Nanos]) -> LatencySummary {
    let h: LatencyHistogram = latencies.iter().copied().collect();
    LatencySummary::from_histogram(&h)
}
