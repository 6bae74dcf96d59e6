//! Edge-case and regression tests for the simulator engine.

use simcore::{ActivityClass, DurationDist, FlightEventKind, Nanos, SimRng};
use sp_hw::{CpuId, CpuMask, IrqLine, MachineConfig};
use sp_kernel::device::{Device, DeviceCtx, IsrOutcome};
use sp_kernel::ids::Pid;
use sp_kernel::shieldctl::ShieldCtl;
use sp_kernel::task::TaskState;
use sp_kernel::{
    AnyDevice, KernelConfig, KernelSegment, LockId, Op, Program, SchedPolicy, Simulator,
    SoftirqClass, SyscallService, TaskSpec, WaitApi,
};

/// Periodic interrupt source with configurable softirq payload.
#[derive(Debug, Clone)]
struct Timer {
    line: IrqLine,
    period: Nanos,
    softirq: Option<Nanos>,
    isr: Nanos,
}

impl Timer {
    fn new(period: Nanos) -> Self {
        Timer {
            line: IrqLine(40),
            period,
            softirq: None,
            isr: Nanos::from_us(2),
        }
    }

    fn with_softirq(mut self, work: Nanos) -> Self {
        self.softirq = Some(work);
        self
    }

    fn on_line(mut self, line: u32) -> Self {
        self.line = IrqLine(line);
        self
    }
}

impl Device for Timer {
    fn name(&self) -> &str {
        "timer"
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
        let mut out = IsrOutcome::none();
        if let Some(w) = self.softirq {
            out.softirq = Some((SoftirqClass::Tasklet, w));
        }
        out
    }
}

fn machine() -> MachineConfig {
    MachineConfig::dual_xeon_p3()
}

/// Regression: an interrupt asserted while the CPU runs an irqs-off critical
/// section must be serviced as soon as interrupts re-enable — not parked
/// until the next timer tick (which once inflated tails to ~10 ms).
#[test]
fn pending_irq_drains_when_irqs_reenable() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 40);
    let dev = sim.add_device(AnyDevice::custom(Timer::new(Nanos::from_ms(1))));
    // A task that spends essentially all its time inside an irqs-off section
    // on cpu0, so most asserts land in the masked window.
    let irqsoff = sim.register_syscall(
        SyscallService::new("irqsoff")
            .segment(KernelSegment::locked_irqsave(
                LockId::MM,
                DurationDist::constant(Nanos::from_us(900)),
            ))
            .not_injectable(),
    );
    sim.spawn(
        TaskSpec::new("masker", SchedPolicy::nice(0), Program::forever(vec![Op::Syscall(irqsoff)]))
            .pinned(CpuMask::single(CpuId(0))),
    );
    let waiter = sim.spawn(
        TaskSpec::new(
            "waiter",
            SchedPolicy::fifo(90),
            Program::forever(vec![Op::WaitIrq {
                device: dev,
                api: WaitApi::IoctlWait { driver_bkl_free: true },
            }]),
        )
        .pinned(CpuMask::single(CpuId(0)))
        .mlockall(),
    );
    sim.watch_latency(waiter);
    sim.set_irq_affinity(dev, CpuMask::single(CpuId(0))).unwrap();
    sim.start();
    sim.run_for(Nanos::from_secs(2));
    let lats = sim.obs.latencies(waiter);
    assert!(lats.len() > 1_500, "samples {}", lats.len());
    let max = *lats.iter().max().unwrap();
    // Worst case = the masked window + handler + switch, nowhere near a tick.
    assert!(max < Nanos::from_us(950) + Nanos::from_us(100), "drain regression: max {max}");
    assert!(max > Nanos::from_us(200), "some asserts do land in the window: {max}");
}

/// Shielding while a task is mid-spin on a global lock must not corrupt the
/// lock state: the spinner finishes its critical section, then migrates.
#[test]
fn shield_during_lock_spin_is_safe() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 41);
    let locked = sim.register_syscall(
        SyscallService::new("locked")
            .segment(KernelSegment::locked(LockId::FILE, DurationDist::constant(Nanos::from_us(200))))
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
    // Let contention develop, then flip the shield on and off repeatedly at
    // moments that will frequently catch a spinner mid-spin.
    for round in 0..50 {
        sim.run_for(Nanos::from_us(137 + round * 13));
        let ctl = if round % 2 == 0 {
            ShieldCtl { procs: CpuMask::single(CpuId(1)), ..ShieldCtl::NONE }
        } else {
            ShieldCtl::NONE
        };
        sim.set_shield(ctl).unwrap();
    }
    sim.run_for(Nanos::from_ms(50));
    let file = sim.lock_stats().get(LockId::FILE);
    assert!(file.acquisitions > 300, "system kept making progress: {}", file.acquisitions);
}

/// Two equal-priority SCHED_RR tasks pinned to one CPU share it roughly
/// 50/50 through quantum rotation.
#[test]
fn round_robin_shares_the_cpu() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 42);
    let cpu0 = CpuMask::single(CpuId(0));
    let spin = Program::forever(vec![Op::Compute(DurationDist::constant(Nanos::from_ms(1)))]);
    let a = sim.spawn(TaskSpec::new("rr-a", SchedPolicy::rr(50), spin.clone()).pinned(cpu0));
    let b = sim.spawn(TaskSpec::new("rr-b", SchedPolicy::rr(50), spin).pinned(cpu0));
    sim.start();
    sim.run_for(Nanos::from_secs(2));
    let ta = sim.task(a).cpu_time.as_ns() as f64;
    let tb = sim.task(b).cpu_time.as_ns() as f64;
    let ratio = ta / tb;
    assert!((0.8..1.25).contains(&ratio), "RR fairness: {ta} vs {tb}");
    // And a FIFO pair at the same priority would NOT share: the first one
    // keeps the CPU forever.
    let mut sim2 = Simulator::new(machine(), KernelConfig::redhawk(), 43);
    let spin = Program::forever(vec![Op::Compute(DurationDist::constant(Nanos::from_ms(1)))]);
    let fa = sim2.spawn(TaskSpec::new("fifo-a", SchedPolicy::fifo(50), spin.clone()).pinned(cpu0));
    let fb = sim2.spawn(TaskSpec::new("fifo-b", SchedPolicy::fifo(50), spin).pinned(cpu0));
    sim2.start();
    sim2.run_for(Nanos::from_secs(1));
    assert!(sim2.task(fa).cpu_time > Nanos::from_ms(900), "first FIFO owns the CPU");
    assert_eq!(sim2.task(fb).cpu_time, Nanos::ZERO, "equal-prio FIFO never preempts");
}

/// Tasks spawned after start() join the running system.
#[test]
fn spawn_after_start_works() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 44);
    sim.start();
    sim.run_for(Nanos::from_ms(10));
    let late = sim.spawn(TaskSpec::new(
        "late",
        SchedPolicy::nice(0),
        Program::once(vec![Op::Compute(DurationDist::constant(Nanos::from_ms(3))), Op::Exit]),
    ));
    sim.run_for(Nanos::from_ms(10));
    assert_eq!(sim.task(late).state, TaskState::Exited);
    assert!(sim.task(late).cpu_time >= Nanos::from_ms(3));
}

/// Several tasks waiting on the same interrupt all wake on one fire.
#[test]
fn all_subscribers_wake_together() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 45);
    let dev = sim.add_device(AnyDevice::custom(Timer::new(Nanos::from_ms(5))));
    let mut pids = Vec::new();
    for i in 0..3 {
        let pid = sim.spawn(
            TaskSpec::new(
                format!("w{i}"),
                SchedPolicy::fifo(50 + i as u8),
                Program::forever(vec![Op::WaitIrq {
                    device: dev,
                    api: WaitApi::IoctlWait { driver_bkl_free: true },
                }]),
            )
            .mlockall(),
        );
        sim.watch_latency(pid);
        pids.push(pid);
    }
    sim.start();
    sim.run_for(Nanos::from_ms(52));
    for pid in pids {
        let n = sim.obs.latencies(pid).len();
        assert!((9..=11).contains(&n), "{pid}: {n} wakes in 10 periods");
    }
}

/// RedHawk defers pending softirq work behind a real-time wakeup; vanilla
/// runs it first. Measure the wake latency difference directly.
#[test]
fn softirq_deferral_protects_rt_wakeups() {
    let run = |cfg: KernelConfig| {
        let mut sim = Simulator::new(machine(), cfg, 46);
        // Interrupts carrying 500 µs of bottom-half work each.
        let dev = sim
            .add_device(AnyDevice::custom(Timer::new(Nanos::from_ms(2)).with_softirq(Nanos::from_us(500))));
        let waiter = sim.spawn(
            TaskSpec::new(
                "rt",
                SchedPolicy::fifo(90),
                Program::forever(vec![Op::WaitIrq {
                    device: dev,
                    api: WaitApi::IoctlWait { driver_bkl_free: true },
                }]),
            )
            .pinned(CpuMask::single(CpuId(0)))
            .mlockall(),
        );
        sim.watch_latency(waiter);
        sim.set_irq_affinity(dev, CpuMask::single(CpuId(0))).unwrap();
        sim.start();
        sim.run_for(Nanos::from_secs(1));
        let lats = sim.obs.latencies(waiter);
        *lats.iter().max().expect("samples")
    };
    let vanilla = run(KernelConfig::vanilla());
    let redhawk = run(KernelConfig::redhawk());
    assert!(
        vanilla >= Nanos::from_us(450),
        "vanilla runs the 500us burst ahead of the wake: {vanilla}"
    );
    // RedHawk cannot abort a burst already in flight, but its cap (300 µs)
    // bounds the exposure; new work is deferred behind the wakeup.
    assert!(
        redhawk < Nanos::from_us(350),
        "RedHawk bounds the exposure to one capped burst: {redhawk}"
    );
    assert!(vanilla > redhawk, "deferral strictly helps: {vanilla} vs {redhawk}");
}

/// Non-mlocked tasks fault occasionally (MM lock traffic); mlocked ones
/// never do.
#[test]
fn mlock_suppresses_page_faults() {
    let run = |mlock: bool| {
        let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 47);
        let mut spec = TaskSpec::new(
            "worker",
            SchedPolicy::nice(0),
            Program::forever(vec![Op::Compute(DurationDist::constant(Nanos::from_us(100)))]),
        );
        if mlock {
            spec = spec.mlockall();
        }
        sim.spawn(spec);
        sim.start();
        sim.run_for(Nanos::from_secs(1));
        sim.lock_stats().get(LockId::MM).acquisitions
    };
    assert_eq!(run(true), 0, "mlocked task takes no faults");
    assert!(run(false) > 50, "unlocked task faults now and then");
}

/// The armed flight ring holds ISR spans, switch spans and the waiter's
/// wakeups.
#[test]
fn flight_ring_records_activity() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 48);
    let dev = sim.add_device(AnyDevice::custom(Timer::new(Nanos::from_ms(1))));
    let pid = sim.spawn(TaskSpec::new(
        "w",
        SchedPolicy::fifo(60),
        Program::forever(vec![Op::WaitIrq {
            device: dev,
            api: WaitApi::IoctlWait { driver_bkl_free: true },
        }]),
    ));
    sim.arm_flight(1);
    sim.start();
    sim.run_for(Nanos::from_ms(20));
    let kinds: Vec<FlightEventKind> = sim.flight.records().map(|e| e.kind).collect();
    assert!(kinds.contains(&FlightEventKind::Span(ActivityClass::Isr)), "ISR spans recorded");
    assert!(kinds.contains(&FlightEventKind::Span(ActivityClass::Switch)), "switch spans recorded");
    let waiter = pid.0 as u64;
    assert!(
        sim.flight.records().any(|e| e.kind == FlightEventKind::Wake && e.detail == waiter),
        "waiter wakeups recorded"
    );
}

/// Two devices on different lines interleave without crosstalk; per-device
/// counters agree with kernel-side irq accounting.
#[test]
fn multiple_devices_coexist() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 49);
    let fast = sim.add_device(AnyDevice::custom(Timer::new(Nanos::from_ms(1)).on_line(50)));
    let slow = sim.add_device(AnyDevice::custom(Timer::new(Nanos::from_ms(7)).on_line(51)));
    let wf = sim.spawn(TaskSpec::new(
        "wf",
        SchedPolicy::fifo(70),
        Program::forever(vec![Op::WaitIrq {
            device: fast,
            api: WaitApi::IoctlWait { driver_bkl_free: true },
        }]),
    ));
    let ws = sim.spawn(TaskSpec::new(
        "ws",
        SchedPolicy::fifo(71),
        Program::forever(vec![Op::WaitIrq {
            device: slow,
            api: WaitApi::IoctlWait { driver_bkl_free: true },
        }]),
    ));
    sim.watch_latency(wf);
    sim.watch_latency(ws);
    sim.start();
    sim.run_for(Nanos::from_ms(70));
    let nf = sim.obs.latencies(wf).len();
    let ns = sim.obs.latencies(ws).len();
    assert!((65..=70).contains(&nf), "fast wakes {nf}");
    assert!((9..=10).contains(&ns), "slow wakes {ns}");
    let total_irqs: u64 = sim.obs.cpu.iter().map(|c| c.irqs).sum();
    assert!(total_irqs >= (nf + ns) as u64, "irqs {total_irqs} >= wakes {}", nf + ns);
}

/// `sched_setscheduler` at runtime: promoting a starved task to FIFO gets
/// it the CPU immediately; demoting it hands the CPU back.
#[test]
fn policy_change_takes_effect_live() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 51);
    let cpu0 = CpuMask::single(CpuId(0));
    let spin = Program::forever(vec![Op::Compute(DurationDist::constant(Nanos::from_us(500)))]);
    let hog = sim.spawn(TaskSpec::new("hog", SchedPolicy::fifo(50), spin.clone()).pinned(cpu0));
    let meek = sim.spawn(TaskSpec::new("meek", SchedPolicy::nice(0), spin).pinned(cpu0));
    sim.start();
    sim.run_for(Nanos::from_ms(50));
    assert_eq!(sim.task(meek).cpu_time, Nanos::ZERO, "starved behind the FIFO hog");

    // Promote the meek task above the hog.
    sim.set_task_policy(meek, SchedPolicy::fifo(80));
    sim.run_for(Nanos::from_ms(50));
    let after_promo = sim.task(meek).cpu_time;
    assert!(after_promo > Nanos::from_ms(45), "promoted task owns the CPU: {after_promo}");

    // Demote it again; the hog resumes.
    let hog_before = sim.task(hog).cpu_time;
    sim.set_task_policy(meek, SchedPolicy::nice(10));
    sim.run_for(Nanos::from_ms(50));
    assert!(
        sim.task(hog).cpu_time > hog_before + Nanos::from_ms(45),
        "demotion hands the CPU back"
    );
    assert!(sim.task(meek).cpu_time < after_promo + Nanos::from_ms(5));
}

/// Exercising the breakdown collector end to end: components are all
/// nonzero-able and sum to the recorded latency.
#[test]
fn breakdown_components_sum_to_latency() {
    let mut sim = Simulator::new(machine(), KernelConfig::redhawk(), 50);
    let dev = sim.add_device(AnyDevice::custom(Timer::new(Nanos::from_ms(1))));
    let pid = sim.spawn(
        TaskSpec::new(
            "w",
            SchedPolicy::fifo(80),
            Program::forever(vec![Op::WaitIrq { device: dev, api: WaitApi::ReadDevice }]),
        )
        .mlockall(),
    );
    sim.watch_latency(pid);
    sim.watch_breakdown(pid);
    sim.start();
    sim.run_for(Nanos::from_ms(300));
    let lats = sim.obs.latencies(pid);
    let bds = sim.obs.breakdowns(pid);
    assert_eq!(lats.len(), bds.len());
    for (lat, bd) in lats.iter().zip(bds) {
        assert_eq!(bd.total(), *lat, "components sum to the sample");
        assert!(!bd.to_wake.is_zero(), "isr part present");
        assert!(!bd.exit_path.is_zero(), "exit path present");
    }
}
