//! End-to-end behaviour tests for the kernel simulator.

use simcore::{DurationDist, Instant, Nanos, SimRng};
use sp_hw::{CpuId, CpuMask, IrqLine, MachineConfig};
use sp_kernel::device::{Device, DeviceCtx, IsrOutcome};
use sp_kernel::ids::Pid;
use sp_kernel::shieldctl::ShieldCtl;
use sp_kernel::task::TaskState;
use sp_kernel::{
    AnyDevice, KernelConfig, KernelSegment, KernelVariant, LockId, Op, Program, SchedPolicy,
    Simulator, SyscallService, TaskSpec, WaitApi,
};

/// A bare periodic interrupt source for tests.
#[derive(Debug, Clone)]
struct TestTimer {
    line: IrqLine,
    period: Nanos,
    isr: Nanos,
}

impl TestTimer {
    fn new(period: Nanos) -> Self {
        TestTimer { line: IrqLine(40), period, isr: Nanos::from_us(2) }
    }
}

impl Device for TestTimer {
    fn name(&self) -> &str {
        "test-timer"
    }
    fn line(&self) -> IrqLine {
        self.line
    }
    fn start(&mut self, ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        ctx.schedule(self.period, 0);
    }
    fn on_timer(&mut self, _tag: u64, ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        ctx.assert_irq();
        ctx.schedule(self.period, 0);
    }
    fn submit_io(&mut self, _pid: Pid, _ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        unreachable!()
    }
    fn isr_cost(&mut self, _rng: &mut SimRng) -> Nanos {
        self.isr
    }
    fn on_isr(&mut self, _ctx: &mut DeviceCtx, _rng: &mut SimRng) -> IsrOutcome {
        IsrOutcome::none()
    }
}

fn machine() -> MachineConfig {
    MachineConfig::dual_xeon_p3()
}

fn compute_once(work: Nanos) -> Program {
    Program::once(vec![Op::Compute(DurationDist::constant(work)), Op::Exit])
}

#[test]
fn single_task_runs_and_exits() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 1);
    let pid = sim.spawn(TaskSpec::new("worker", SchedPolicy::nice(0), compute_once(Nanos::from_ms(5))));
    sim.start();
    sim.run_for(Nanos::from_ms(50));
    assert_eq!(sim.task(pid).state, TaskState::Exited);
    let total_user: Nanos = sim.obs.cpu.iter().map(|c| c.user).sum();
    assert!(total_user >= Nanos::from_ms(5), "user time {total_user}");
    assert!(total_user < Nanos::from_ms(6), "user time inflated: {total_user}");
}

#[test]
fn laps_measure_loop_wall_time() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 2);
    let prog = Program::forever(vec![
        Op::MarkLap,
        Op::Compute(DurationDist::constant(Nanos::from_ms(10))),
    ]);
    let pid = sim.spawn(
        TaskSpec::new("looper", SchedPolicy::fifo(50), prog)
            .pinned(CpuMask::single(CpuId(0)))
            .mlockall(),
    );
    sim.watch_laps(pid);
    sim.start();
    sim.run_for(Nanos::from_ms(205));
    let durs = sim.obs.lap_durations(pid);
    assert!(durs.len() >= 15, "laps recorded: {}", durs.len());
    for d in &durs {
        // 10 ms of work plus tick/interrupt noise, no other load.
        assert!(*d >= Nanos::from_ms(10), "lap shorter than its work: {d}");
        assert!(*d < Nanos::from_ms(11), "excessive stretch on idle system: {d}");
    }
}

#[test]
fn higher_priority_fifo_preempts_lower() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 3);
    let one_cpu = CpuMask::single(CpuId(0));
    // A long-running low-prio RT hog...
    let hog = sim.spawn(
        TaskSpec::new("hog", SchedPolicy::fifo(10), compute_once(Nanos::from_ms(100)))
            .pinned(one_cpu),
    );
    // ...and a high-prio task that wakes after 10 ms of sleep.
    let prog = Program::once(vec![
        Op::Sleep(DurationDist::constant(Nanos::from_ms(10))),
        Op::Compute(DurationDist::constant(Nanos::from_ms(1))),
        Op::Exit,
    ]);
    let vip = sim.spawn(TaskSpec::new("vip", SchedPolicy::fifo(90), prog).pinned(one_cpu));
    sim.start();
    sim.run_for(Nanos::from_ms(15));
    // At 15 ms the vip must have preempted the hog and finished its 1 ms.
    assert_eq!(sim.task(vip).state, TaskState::Exited, "vip done");
    assert_eq!(sim.task(hog).state, TaskState::Running, "hog still at it");
    sim.run_for(Nanos::from_ms(120));
    assert_eq!(sim.task(hog).state, TaskState::Exited);
}

#[test]
fn irq_wait_latency_is_recorded_and_small_when_idle() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 4);
    let dev = sim.add_device(AnyDevice::custom(TestTimer::new(Nanos::from_ms(1))));
    let prog = Program::forever(vec![Op::WaitIrq {
        device: dev,
        api: WaitApi::IoctlWait { driver_bkl_free: true },
    }]);
    let pid = sim.spawn(TaskSpec::new("waiter", SchedPolicy::fifo(90), prog).mlockall());
    sim.watch_latency(pid);
    sim.start();
    sim.run_for(Nanos::from_ms(500));
    let lats = sim.obs.latencies(pid);
    assert!(lats.len() > 400, "samples: {}", lats.len());
    let max = lats.iter().max().unwrap();
    let min = lats.iter().min().unwrap();
    assert!(*min >= Nanos::from_us(4), "floor sanity: {min}");
    assert!(*max < Nanos::from_us(60), "idle-system latency bounded: {max}");
}

#[test]
fn vanilla_kernel_delays_wakeups_behind_syscalls() {
    // On the non-preemptible kernel, a woken RT task must wait out the
    // whole syscall of the task occupying its CPU.
    for (variant, expect_long) in
        [(KernelVariant::Vanilla24, true), (KernelVariant::RedHawk, false)]
    {
        let mut sim = Simulator::new(machine(), KernelConfig::new(variant), 5);
        let dev = sim.add_device(AnyDevice::custom(TestTimer::new(Nanos::from_ms(2))));
        let one_cpu = CpuMask::single(CpuId(0));
        // Background task doing fat 1 ms syscalls back to back on cpu0.
        let fat = sim.register_syscall(
            SyscallService::new("fat")
                .segment(KernelSegment::work(DurationDist::constant(Nanos::from_ms(1))))
                .not_injectable(),
        );
        sim.spawn(
            TaskSpec::new(
                "bg",
                SchedPolicy::nice(0),
                Program::forever(vec![Op::Syscall(fat)]),
            )
            .pinned(one_cpu),
        );
        let prog = Program::forever(vec![Op::WaitIrq {
            device: dev,
            api: WaitApi::IoctlWait { driver_bkl_free: true },
        }]);
        let pid =
            sim.spawn(TaskSpec::new("rt", SchedPolicy::fifo(90), prog).pinned(one_cpu).mlockall());
        sim.watch_latency(pid);
        sim.set_irq_affinity(dev, one_cpu).unwrap();
        sim.start();
        sim.run_for(Nanos::from_secs(2));
        let lats = sim.obs.latencies(pid);
        assert!(lats.len() > 100, "{variant}: samples {}", lats.len());
        let max = *lats.iter().max().unwrap();
        if expect_long {
            assert!(
                max > Nanos::from_us(400),
                "{variant}: expected syscall-length delays, max {max}"
            );
        } else {
            assert!(max < Nanos::from_us(200), "{variant}: preemptible kernel, max {max}");
        }
    }
}

#[test]
fn contended_lock_serializes_critical_sections() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 6);
    let locked = sim.register_syscall(
        SyscallService::new("locked")
            .segment(KernelSegment::locked(LockId::MM, DurationDist::constant(Nanos::from_us(100))))
            .not_injectable(),
    );
    for (i, cpu) in [CpuId(0), CpuId(1)].into_iter().enumerate() {
        sim.spawn(
            TaskSpec::new(
                format!("locker{i}"),
                SchedPolicy::nice(0),
                Program::forever(vec![Op::Syscall(locked)]),
            )
            .pinned(CpuMask::single(cpu)),
        );
    }
    sim.start();
    sim.run_for(Nanos::from_ms(100));
    let mm = sim.lock_stats().get(LockId::MM);
    assert!(mm.acquisitions > 500, "acquisitions {}", mm.acquisitions);
    assert!(
        mm.contended_acquisitions > mm.acquisitions / 4,
        "expected heavy contention: {}/{}",
        mm.contended_acquisitions,
        mm.acquisitions
    );
    assert!(mm.total_spin_time > Nanos::from_ms(5), "spin time {}", mm.total_spin_time);
}

#[test]
fn shield_migrates_tasks_and_irqs() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 7);
    let dev = sim.add_device(AnyDevice::custom(TestTimer::new(Nanos::from_ms(5))));
    let floaters: Vec<Pid> = (0..4)
        .map(|i| {
            sim.spawn(TaskSpec::new(
                format!("float{i}"),
                SchedPolicy::nice(0),
                Program::forever(vec![Op::Compute(DurationDist::constant(Nanos::from_us(500)))]),
            ))
        })
        .collect();
    sim.start();
    sim.run_for(Nanos::from_ms(20));
    // Shield CPU 1 fully.
    sim.set_shield(ShieldCtl::full(CpuMask::single(CpuId(1)))).unwrap();
    sim.run_for(Nanos::from_ms(5));
    for pid in &floaters {
        assert_eq!(
            sim.task(*pid).effective_affinity,
            CpuMask::single(CpuId(0)),
            "floaters squeezed off the shielded CPU"
        );
    }
    let before = sim.obs.cpu[1];
    sim.run_for(Nanos::from_ms(200));
    let after = sim.obs.cpu[1];
    assert_eq!(before, after, "shielded CPU stays completely quiet");
    // A task bound inside the shield is allowed in.
    let rt = sim.spawn(
        TaskSpec::new("rt", SchedPolicy::fifo(80), compute_once(Nanos::from_ms(2)))
            .pinned(CpuMask::single(CpuId(1))),
    );
    sim.run_for(Nanos::from_ms(10));
    assert_eq!(sim.task(rt).state, TaskState::Exited);
    assert_eq!(sim.task(rt).effective_affinity, CpuMask::single(CpuId(1)));
    let _ = dev;
}

#[test]
fn same_seed_same_trajectory() {
    let run = |seed: u64| {
        let mut sim = Simulator::new(machine(), KernelConfig::vanilla(), seed);
        let dev = sim.add_device(AnyDevice::custom(TestTimer::new(Nanos::from_ms(1))));
        let prog = Program::forever(vec![Op::WaitIrq {
            device: dev,
            api: WaitApi::ReadDevice,
        }]);
        let pid = sim.spawn(TaskSpec::new("w", SchedPolicy::fifo(60), prog));
        sim.spawn(TaskSpec::new(
            "bg",
            SchedPolicy::nice(0),
            Program::forever(vec![Op::Compute(DurationDist::exponential(Nanos::from_us(300)))]),
        ));
        sim.watch_latency(pid);
        sim.start();
        sim.run_for(Nanos::from_ms(300));
        sim.obs.latencies(pid).to_vec()
    };
    let a = run(42);
    let b = run(42);
    let c = run(43);
    assert!(!a.is_empty());
    assert_eq!(a, b, "identical seeds must reproduce exactly");
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn sleep_rounds_to_jiffies_on_vanilla_only() {
    let sleepy = |cfg: KernelConfig| {
        let mut sim = Simulator::new(machine(), cfg, 8);
        let prog = Program::once(vec![
            Op::Sleep(DurationDist::constant(Nanos::from_ms(1))),
            Op::Exit,
        ]);
        let pid = sim.spawn(TaskSpec::new("sleepy", SchedPolicy::nice(0), prog));
        sim.start();
        let mut woke_at = None;
        for step in 1..400 {
            sim.run_until(Instant(step * 100_000));
            if sim.task(pid).state == TaskState::Exited {
                woke_at = Some(sim.now());
                break;
            }
        }
        woke_at.expect("slept forever")
    };
    let vanilla = sleepy(KernelConfig::vanilla());
    let redhawk = sleepy(KernelConfig::redhawk());
    assert!(vanilla.as_ns() >= 10_000_000, "jiffy rounding: woke at {vanilla}");
    assert!(redhawk.as_ns() < 3_000_000, "hires sleep: woke at {redhawk}");
}
