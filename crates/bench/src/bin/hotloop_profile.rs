//! Run a fig-6-style hot loop (RedHawk, stress load, realfeel waiter) for a
//! long stretch of simulated time — a profiling target for `gprofng`/`perf`.
//! Host-performance numbers come from `benchmark/` (see
//! `benchmark/README.md`); this binary only gives a profiler something long
//! enough to sample.
//!
//! Usage: `hotloop_profile [SIM_MS]` (default 4000).

use simcore::Nanos;
use sp_devices::{DiskDevice, NicDevice, OnOffPoisson, RtcDevice};
use sp_hw::MachineConfig;
use sp_kernel::{KernelConfig, Op, Program, SchedPolicy, Simulator, TaskSpec, WaitApi};
use sp_workloads::{stress_kernel, StressDevices};

fn main() {
    let sim_ms: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4000);
    let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), 0x1D7E);
    let rtc = sim.add_device(RtcDevice::new(2048));
    let nic = sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(Nanos::from_ms(20)))));
    let disk = sim.add_device(DiskDevice::new());
    stress_kernel(&mut sim, StressDevices { nic, disk });
    let prog = Program::forever(vec![Op::WaitIrq { device: rtc, api: WaitApi::ReadDevice }]);
    let pid = sim.spawn(TaskSpec::new("waiter", SchedPolicy::fifo(90), prog).mlockall());
    sim.watch_latency(pid);
    sim.start();
    let t = std::time::Instant::now();
    sim.run_for(Nanos::from_ms(sim_ms));
    let wall = t.elapsed().as_secs_f64();
    let events = sim.events_dispatched();
    println!(
        "{} events in {:.3}s wall = {:.1} ns/event ({:.2}M ev/s)",
        events,
        wall,
        wall * 1e9 / events as f64,
        events as f64 / wall / 1e6
    );
}
