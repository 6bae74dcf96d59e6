//! The production request-serving workload behind the `sp-autopilot`
//! experiments.
//!
//! A front-end box takes millions of requests per second through a coalescing
//! NIC queue ([`TrafficDevice`]): one interrupt hands a real-time server task
//! a batch of requests, and the server's wake-to-user latency is the
//! per-request response bound (every request in the batch shares its
//! sample). Alongside the server, a fleet of best-effort analytics tasks
//! chews through the logs the requests produce — pure throughput work that
//! keeps the file/net locks hot and every unshielded CPU busy. Shielding
//! trades their throughput for the server's tail: that trade is exactly what
//! the autopilot walks at run time.

use crate::profiles::{burst, hold, work};

use simcore::Nanos;
use sp_hw::{CpuId, CpuMask};
use sp_kernel::devices::{TrafficDevice, TrafficPhase, TrafficProfile};
use sp_kernel::{
    DeviceId, KernelSegment, LockId, Op, Pid, Program, SchedPolicy, Simulator, SyscallService,
    TaskSpec, WaitApi,
};

/// Handles to the installed request-serving plant: everything the autopilot
/// needs to bind to ([`sp-autopilot`'s `PlantBindings`] is built from this).
#[derive(Debug, Clone)]
pub struct RequestService {
    /// The coalescing front-end traffic queue.
    pub device: DeviceId,
    /// The latency-watched real-time request server.
    pub server: Pid,
    /// The server's home CPU (where its IRQ is steered).
    pub server_cpu: CpuId,
    /// Best-effort analytics tasks — the throughput side of the trade.
    pub best_effort: Vec<Pid>,
}

/// The canonical diurnal-burst traffic shape: a compressed "day" cycling
/// through night trickle, morning ramp, sustained peak, a flash-crowd burst
/// on top of the peak, and an evening tail-off.
///
/// The coalescing timer fires at a constant 8 kHz — as on real hardware,
/// where the interrupt *rate* is pinned by the coalescing configuration and
/// the diurnal signal rides entirely in the *batch size*. Offered load runs
/// from 200 k requests/s at night to 12 M requests/s in the burst.
///
/// `examples/scenarios/diurnal_burst.json` declares the same profile; a test
/// keeps the two in lockstep.
pub fn diurnal_burst_profile() -> TrafficProfile {
    TrafficProfile {
        phases: vec![
            TrafficPhase {
                name: "night".into(),
                duration: Nanos::from_ms(4_000),
                irq_hz: 8_000,
                batch: 25,
            },
            TrafficPhase {
                name: "morning".into(),
                duration: Nanos::from_ms(2_000),
                irq_hz: 8_000,
                batch: 125,
            },
            TrafficPhase {
                name: "peak".into(),
                duration: Nanos::from_ms(4_000),
                irq_hz: 8_000,
                batch: 300,
            },
            TrafficPhase {
                name: "burst".into(),
                duration: Nanos::from_ms(3_000),
                irq_hz: 8_000,
                batch: 1_500,
            },
            TrafficPhase {
                name: "evening".into(),
                duration: Nanos::from_ms(3_000),
                irq_hz: 8_000,
                batch: 150,
            },
        ],
        cycle: true,
    }
}

/// The kernel build of the request-serving testbed: RedHawk, with the
/// file-layer exit-path knobs set for this driver. Unlike `/dev/rtc`, the
/// request queue's `read()` exit touches shared file-layer state (fasync
/// consumer lists) on most wakes, so the §6.2 slow-path probability is much
/// higher than the RTC experiments' — which is precisely the contention the
/// shield ladder throttles.
pub fn request_kernel_config() -> sp_kernel::KernelConfig {
    let mut cfg = sp_kernel::KernelConfig::redhawk();
    cfg.sections.read_exit_file_lock_prob = 0.35;
    cfg.sections.read_exit_lock_hold = simcore::DurationDist::bounded_pareto(
        Nanos::from_us(2),
        Nanos::from_us(40),
        1.2,
    );
    cfg
}

/// Install the request-serving plant: the traffic device, the RT server
/// pinned to `server_cpu` (latency-watched; a caller that also needs the
/// samples' completion instants registers `watch_latency_times` itself),
/// and `analytics` best-effort tasks.
///
/// Must be called before `sim.start()` (the traffic queue is a device).
/// Initial placement leaves the analytics tasks free to run anywhere; the
/// autopilot (or a static shield) decides placement at engage time.
pub fn request_serving(
    sim: &mut Simulator,
    profile: TrafficProfile,
    server_cpu: CpuId,
    analytics: usize,
) -> RequestService {
    let device = sim.add_device(TrafficDevice::new(profile));
    sim.set_irq_affinity(device, CpuMask::single(server_cpu))
        .expect("traffic IRQ steered to the server CPU");

    // Per-batch request handling: parse + dispatch under the net lock, a
    // response append under the file lock, then user-mode app work. Short —
    // the server must turn a batch around well inside the arrival gap.
    let handle = sim.register_syscall(
        SyscallService::new("req_handle")
            .segment(KernelSegment::locked(LockId::NET, hold(1, 6)))
            .segment(KernelSegment::work(work(1, 3))),
    );
    let server = sim.spawn(
        TaskSpec::new(
            "req-server",
            SchedPolicy::fifo(90),
            Program::forever(vec![
                Op::WaitIrq { device, api: WaitApi::ReadDevice },
                Op::Syscall(handle),
                Op::Compute(burst(8)),
            ]),
        )
        .mlockall()
        .pinned(CpuMask::single(server_cpu)),
    );
    sim.watch_latency(server);

    // Best-effort analytics: log scans (dcache + file), rollup writes
    // (file + mm) and feed pulls (net) — the global-lock traffic whose
    // concurrency the shield mask throttles.
    let scan = sim.register_syscall(
        SyscallService::new("log_scan")
            .segment(KernelSegment::locked(LockId::DCACHE, hold(1, 20)))
            .segment(KernelSegment::locked(LockId::FILE, hold(6, 45))),
    );
    let rollup = sim.register_syscall(
        SyscallService::new("rollup_write")
            .segment(KernelSegment::locked(LockId::FILE, hold(5, 35)))
            .segment(KernelSegment::locked(LockId::MM, hold(1, 12)).with_prob(0.5)),
    );
    let pull = sim.register_syscall(
        SyscallService::new("feed_pull")
            .segment(KernelSegment::locked(LockId::NET, hold(2, 25))),
    );
    let mut best_effort = Vec::with_capacity(analytics);
    for i in 0..analytics {
        let prog = Program::forever(vec![
            Op::Syscall(scan),
            Op::Compute(burst(60)),
            Op::Syscall(rollup),
            Op::Compute(burst(40)),
            Op::Syscall(pull),
        ]);
        best_effort.push(sim.spawn(TaskSpec::new(
            format!("analytics{i}"),
            SchedPolicy::nice(0),
            prog,
        )));
    }

    RequestService { device, server, server_cpu, best_effort }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_hw::MachineConfig;
    use sp_kernel::KernelConfig;

    #[test]
    fn canonical_profile_is_diurnal_scale() {
        let p = diurnal_burst_profile();
        assert!(p.validate().is_ok());
        assert!(p.cycle);
        assert_eq!(p.phases.len(), 5);
        assert_eq!(p.peak_requests_per_sec(), 12_000_000);
        assert_eq!(p.cycle_len(), Nanos::from_ms(16_000));
        assert!(p.phases.iter().all(|ph| ph.irq_hz == 8_000));
    }

    #[test]
    fn diurnal_burst_json_matches_the_builder() {
        let path = format!(
            "{}/../../examples/scenarios/diurnal_burst.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let parsed: TrafficProfile = serde_json::from_str(&text).expect("example parses");
        assert_eq!(parsed, diurnal_burst_profile(), "{path} drifted from its builder");
        parsed.validate().expect("example validates");
    }

    #[test]
    fn request_serving_installs_the_plant() {
        let mut sim =
            Simulator::new(MachineConfig::quad_xeon_server(), KernelConfig::redhawk(), 11);
        let svc = request_serving(&mut sim, diurnal_burst_profile(), CpuId(3), 6);
        assert_eq!(svc.best_effort.len(), 6);
        sim.start();
        sim.run_for(Nanos::from_ms(500));
        let lats = sim.obs.latencies(svc.server);
        // night phase: 8 kHz of coalesced interrupts, all sampled.
        assert!(lats.len() > 3_000, "server sampled {} wakes", lats.len());
        // Completion instants are logged only on request.
        assert!(sim.obs.latency_times(svc.server).is_empty());
        let busy: Nanos = svc
            .best_effort
            .iter()
            .map(|&pid| sim.task(pid).cpu_time)
            .sum();
        assert!(busy > Nanos::from_ms(800), "analytics busy {busy}");
    }
}
