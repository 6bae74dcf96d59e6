//! Contract tests for the simulator's public API surface: validation,
//! rejection paths, and documented panics.

use simcore::{DurationDist, Nanos};
use sp_hw::{CpuId, CpuMask, IrqLine, MachineConfig};
use sp_kernel::{AnyDevice, KernelConfig, Op, Program, SchedPolicy, ShieldCtl, Simulator, TaskSpec};

fn machine() -> MachineConfig {
    MachineConfig::dual_xeon_p3()
}

fn idle_prog() -> Program {
    Program::forever(vec![
        Op::Compute(DurationDist::constant(Nanos::from_us(10))),
        Op::Sleep(DurationDist::constant(Nanos::from_ms(1))),
    ])
}

#[test]
#[should_panic(expected = "time-consuming op")]
fn zero_time_loop_program_rejected() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 1);
    sim.spawn(TaskSpec::new(
        "busyloop",
        SchedPolicy::nice(0),
        Program::forever(vec![Op::MarkLap, Op::Yield]),
    ));
}

#[test]
#[should_panic(expected = "already in use")]
fn duplicate_irq_line_rejected() {
    #[derive(Debug, Clone)]
    struct Dummy;
    impl sp_kernel::Device for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn line(&self) -> IrqLine {
            IrqLine(33)
        }
        fn start(&mut self, _: &mut sp_kernel::DeviceCtx, _: &mut simcore::SimRng) {}
        fn on_timer(&mut self, _: u64, _: &mut sp_kernel::DeviceCtx, _: &mut simcore::SimRng) {}
        fn submit_io(
            &mut self,
            _: sp_kernel::Pid,
            _: &mut sp_kernel::DeviceCtx,
            _: &mut simcore::SimRng,
        ) {
        }
        fn isr_cost(&mut self, _: &mut simcore::SimRng) -> Nanos {
            Nanos(1)
        }
        fn on_isr(
            &mut self,
            _: &mut sp_kernel::DeviceCtx,
            _: &mut simcore::SimRng,
        ) -> sp_kernel::IsrOutcome {
            sp_kernel::IsrOutcome::none()
        }
    }
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 1);
    sim.add_device(AnyDevice::custom(Dummy));
    sim.add_device(AnyDevice::custom(Dummy));
}

#[test]
#[should_panic(expected = "start() called twice")]
fn double_start_rejected() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 1);
    sim.start();
    sim.start();
}

#[test]
#[should_panic(expected = "call start() first")]
fn run_before_start_rejected() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 1);
    sim.run_for(Nanos::from_ms(1));
}

#[test]
fn affinity_error_paths() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 1);
    let pid = sim.spawn(TaskSpec::new("t", SchedPolicy::nice(0), idle_prog()));
    // Offline-only mask rejected.
    assert!(sim.set_task_affinity(pid, CpuMask(0b100)).is_err());
    // Valid mask accepted and clipped semantics hold.
    assert!(sim.set_task_affinity(pid, CpuMask(0b111)).is_ok());
    assert_eq!(sim.task(pid).requested_affinity, CpuMask(0b11));
}

#[test]
fn shield_error_paths() {
    // No shield support on vanilla.
    let mut sim = Simulator::new(machine(), KernelConfig::vanilla(), 1);
    assert!(sim.set_shield(ShieldCtl::full(CpuMask(0b10))).is_err());
    // Clearing is always fine.
    assert!(sim.set_shield(ShieldCtl::NONE).is_ok());

    // Shielding every online CPU from processes is refused.
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 1);
    assert!(sim.set_shield(ShieldCtl::full(CpuMask(0b11))).is_err());
    // Local-timer-only full shielding is allowed (no placement problem).
    assert!(sim
        .set_shield(ShieldCtl { procs: CpuMask::EMPTY, irqs: CpuMask::EMPTY, ltmrs: CpuMask(0b11), ..ShieldCtl::NONE })
        .is_ok());
}

#[test]
fn spawn_affinity_fallbacks() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 1);
    // A spec pinned entirely offline falls back to the online mask.
    let pid =
        sim.spawn(TaskSpec::new("t", SchedPolicy::nice(0), idle_prog()).pinned(CpuMask(0b1100)));
    assert_eq!(sim.task(pid).requested_affinity, CpuMask(0b11));
    assert_eq!(sim.task(pid).last_cpu, CpuId(0));
}

#[test]
fn spawned_under_shield_inherits_exclusion() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 1);
    sim.start();
    sim.set_shield(ShieldCtl::full(CpuMask(0b10))).unwrap();
    let pid = sim.spawn(TaskSpec::new("late", SchedPolicy::nice(0), idle_prog()));
    assert_eq!(
        sim.task(pid).effective_affinity,
        CpuMask(0b01),
        "new tasks respect the live shield"
    );
}

#[test]
fn run_until_is_idempotent_at_horizon() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 1);
    sim.spawn(TaskSpec::new("t", SchedPolicy::nice(0), idle_prog()));
    sim.start();
    sim.run_until(simcore::Instant(5_000_000));
    assert_eq!(sim.now(), simcore::Instant(5_000_000));
    sim.run_until(simcore::Instant(5_000_000));
    assert_eq!(sim.now(), simcore::Instant(5_000_000));
    sim.run_until(simcore::Instant(4_000_000)); // horizon in the past: no-op
    assert_eq!(sim.now(), simcore::Instant(5_000_000));
}

#[test]
fn machine_and_config_validation_panics() {
    let bad_machine = MachineConfig { physical_cores: 0, hyperthreading: false, clock_ghz: 1.0 };
    let result = std::panic::catch_unwind(|| {
        Simulator::new(bad_machine, KernelConfig::redhawk(), 1);
    });
    assert!(result.is_err(), "invalid machine must panic");

    let mut bad_cfg = KernelConfig::redhawk();
    bad_cfg.local_timer_hz = 0;
    let result = std::panic::catch_unwind(|| {
        Simulator::new(MachineConfig::dual_xeon_p3(), bad_cfg, 1);
    });
    assert!(result.is_err(), "invalid kernel config must panic");
}
