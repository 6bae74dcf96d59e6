//! Warm-checkpoint round-trip properties.
//!
//! The fork contract: `clone()` a simulator, or build an identically-configured
//! one and `restore` a [`sp_kernel::Checkpoint`] into it, and from that
//! instant on it is indistinguishable from the simulator it came from —
//! bit-identical clock, event count, recorded samples and per-CPU
//! accounting, for any split point and any continuation length, with or
//! without an armed fault injector, and for every device type the simulator
//! dispatches to, a foreign `AnyDevice::custom` one included.

use proptest::prelude::*;
use simcore::{DurationDist, Instant, Nanos, SimRng};
use sp_hw::{CpuId, CpuMask, IrqLine, MachineConfig};
use sp_kernel::devices::storm::{StormDevice, CTRL_ARM, CTRL_DISARM};
use sp_kernel::devices::{
    DiskDevice, GpuDevice, NicDevice, OnOffPoisson, RcimDevice, RcimExternalInput, RtcDevice,
    TrafficDevice, TrafficPhase, TrafficProfile,
};
use sp_kernel::observe::CpuAccounting;
use sp_kernel::{
    AnyDevice, Device, DeviceCtx, DeviceId, IsrOutcome, KernelConfig, KernelSegment, Op, Pid,
    Program, SchedPolicy, ShieldCtl, Simulator, SyscallService, TaskSpec, WaitApi,
};

/// A foreign device whose ISR cost reads a counter the ISR itself bumps:
/// device state that only a whole-device copy carries across a checkpoint.
#[derive(Debug, Clone)]
struct CountingPulse {
    period: Nanos,
    isrs: u64,
}

impl Device for CountingPulse {
    fn name(&self) -> &str {
        "counting-pulse"
    }
    fn line(&self) -> IrqLine {
        IrqLine(61)
    }
    fn start(&mut self, ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        ctx.schedule(self.period, 0);
    }
    fn on_timer(&mut self, _tag: u64, ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        ctx.assert_irq();
        ctx.schedule(self.period, 0);
    }
    fn submit_io(&mut self, _pid: Pid, _ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        unreachable!("no block I/O");
    }
    fn isr_cost(&mut self, _rng: &mut SimRng) -> Nanos {
        self.isrs += 1;
        Nanos::from_us(1 + self.isrs % 7)
    }
    fn on_isr(&mut self, _ctx: &mut DeviceCtx, _rng: &mut SimRng) -> IsrOutcome {
        IsrOutcome::none()
    }
}

/// A loaded two-CPU simulation with one device of every type the
/// simulator dispatches to: an RTC waiter (watched, returned), NIC softirq
/// traffic, both RCIM functions and the traffic queue (each with a watched
/// waiter), a GPU, a disarmed storm injector (returned) and a stateful
/// [`CountingPulse`], plus background compute/sleep churn on both CPUs and
/// a task blocking in disk writes and NIC sends. ON/OFF and traffic phases are short enough to flip inside a test
/// run. Deterministic per seed.
fn build(seed: u64) -> (Simulator, Pid, DeviceId) {
    let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), seed);
    let rtc = sim.add_device(RtcDevice::new(2048));
    let nic = sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(Nanos::from_ms(10)))));
    let disk = sim.add_device(DiskDevice::new());
    let storm = sim.add_device(StormDevice::irq_storm(IrqLine(60), 3_000.0));
    let rcim = sim.add_device(RcimDevice::new(Nanos::from_us(700)));
    let ext = sim.add_device(RcimExternalInput::new(
        IrqLine(21),
        OnOffPoisson::bursty(1_500, Nanos::from_ms(4), Nanos::from_ms(3)),
    ));
    sim.add_device(GpuDevice::new(OnOffPoisson::bursty(2_000, Nanos::from_ms(4), Nanos::from_ms(2))));
    let traffic = sim.add_device(TrafficDevice::new(TrafficProfile {
        phases: vec![
            TrafficPhase { name: "quiet".into(), duration: Nanos::from_ms(4), irq_hz: 800, batch: 20 },
            TrafficPhase { name: "peak".into(), duration: Nanos::from_ms(3), irq_hz: 3_000, batch: 60 },
        ],
        cycle: true,
    }));
    sim.add_device(AnyDevice::custom(CountingPulse { period: Nanos::from_us(300), isrs: 0 }));

    let waiter = sim.spawn(
        TaskSpec::new(
            "waiter",
            SchedPolicy::fifo(90),
            Program::forever(vec![Op::WaitIrq { device: rtc, api: WaitApi::ReadDevice }]),
        )
        .pinned(CpuMask::single(CpuId(1)))
        .mlockall(),
    );
    sim.watch_latency(waiter);
    for cpu in 0..2u32 {
        sim.spawn(
            TaskSpec::new(
                "churn",
                SchedPolicy::nice(0),
                Program::forever(vec![
                    Op::Compute(DurationDist::uniform(Nanos::from_us(50), Nanos::from_us(900))),
                    Op::Sleep(DurationDist::uniform(Nanos::from_us(20), Nanos::from_us(400))),
                ]),
            )
            .pinned(CpuMask::single(CpuId(cpu))),
        );
    }
    for (dev, prio) in [(rcim, 85), (ext, 80), (traffic, 70)] {
        let pid = sim.spawn(
            TaskSpec::new(
                "waiter",
                SchedPolicy::fifo(prio),
                Program::forever(vec![Op::WaitIrq { device: dev, api: WaitApi::ReadDevice }]),
            )
            .mlockall(),
        );
        sim.watch_latency(pid);
    }
    let [write, send] = [("write", disk), ("send", nic)].map(|(name, dev)| {
        sim.register_syscall(
            SyscallService::new(name)
                .segment(KernelSegment::work(DurationDist::constant(Nanos::from_us(5))))
                .blocking_io(dev),
        )
    });
    sim.spawn(TaskSpec::new(
        "io",
        SchedPolicy::nice(0),
        Program::forever(vec![
            Op::Syscall(write),
            Op::Syscall(send),
            Op::Sleep(DurationDist::uniform(Nanos::from_us(100), Nanos::from_us(500))),
        ]),
    ));
    sim.start();
    (sim, waiter, storm)
}

/// The public counters of a built-in device (none for a foreign one).
fn device_counters(dev: &AnyDevice) -> Vec<u64> {
    match dev {
        AnyDevice::Rtc(d) => vec![d.fired, d.missed],
        AnyDevice::Rcim(d) => vec![d.fired, d.missed],
        AnyDevice::RcimExt(d) => vec![d.edges_seen, d.missed],
        AnyDevice::Nic(d) => vec![d.rx_irqs, d.tx_irqs],
        AnyDevice::Disk(d) => vec![d.completions],
        AnyDevice::Gpu(d) => vec![d.irqs],
        AnyDevice::Storm(d) => vec![d.asserted],
        AnyDevice::Traffic(d) => vec![d.irqs_fired, d.requests, d.missed],
        AnyDevice::Custom(_) => Vec::new(),
    }
}

/// Everything observable about a run, for bit-identity comparison: clock,
/// event count, every task's recorded latencies, per-CPU accounting, and
/// per-device interrupt counts and counters.
type Print = (Instant, u64, Vec<Vec<Nanos>>, Vec<CpuAccounting>, Vec<Vec<u64>>, Vec<Vec<u64>>);

fn fingerprint(sim: &Simulator) -> Print {
    let devices = (0..sim.irq_lines().len() as u32).map(DeviceId);
    (
        sim.now(),
        sim.events_dispatched(),
        (0..sim.task_count() as u32).map(|i| sim.obs.latencies(Pid(i)).to_vec()).collect(),
        sim.obs.cpu.clone(),
        devices.clone().map(|d| sim.irq_counts(d).to_vec()).collect(),
        devices.map(|d| device_counters(sim.device(d))).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `restore(checkpoint(sim))` then `run_for(d)` is bit-identical to
    /// running straight through, for arbitrary split points, and so is a
    /// `clone()` of the warm simulator (the fork the study engine takes),
    /// with the storm injector disarmed or armed before the split.
    #[test]
    fn restore_then_run_matches_straight_run(
        seed in 1u64..1_000,
        warm_ms in 5u64..40,
        run_ms in 5u64..60,
        armed in any::<bool>(),
    ) {
        let build = |seed| {
            let (mut sim, pid, storm) = build(seed);
            if armed {
                sim.device_control(storm, CTRL_ARM);
            }
            (sim, pid)
        };
        let (mut straight, _) = build(seed);
        straight.run_for(Nanos::from_ms(warm_ms + run_ms));

        let (mut warm, _) = build(seed);
        warm.run_for(Nanos::from_ms(warm_ms));
        let ck = warm.checkpoint();

        let (mut fork, fork_pid) = build(seed);
        // Watch lists live in `obs`, which the checkpoint replaces: a watch
        // registered only on the fork shell does not survive the restore.
        let churn = Pid(fork_pid.0 + 1);
        fork.watch_latency(churn);
        fork.restore(&ck);
        prop_assert!(!fork.obs.watches_latency(churn), "pre-restore watch survived");
        prop_assert_eq!(fork.now(), warm.now());
        fork.run_for(Nanos::from_ms(run_ms));

        let mut clone = warm.clone();
        clone.run_for(Nanos::from_ms(run_ms));

        prop_assert_eq!(fingerprint(&fork), fingerprint(&straight));
        prop_assert_eq!(fingerprint(&clone), fingerprint(&straight));
    }

    /// Same property with the injector armed before the split, so the
    /// checkpoint carries live fault state (armed flag, epoch, an in-flight
    /// storm event in the queue) across the fork.
    #[test]
    fn armed_injector_round_trips(
        seed in 1u64..1_000,
        warm_ms in 5u64..30,
        run_ms in 5u64..40,
    ) {
        let (mut straight, _, storm) = build(seed);
        straight.device_control(storm, CTRL_ARM);
        straight.run_for(Nanos::from_ms(warm_ms + run_ms));

        let (mut warm, _, warm_storm) = build(seed);
        warm.device_control(warm_storm, CTRL_ARM);
        warm.run_for(Nanos::from_ms(warm_ms));
        let ck = warm.checkpoint();

        let (mut fork, _, fork_storm) = build(seed);
        fork.restore(&ck);
        fork.run_for(Nanos::from_ms(run_ms));

        prop_assert!(fork.irq_counts(fork_storm).iter().sum::<u64>() > 0, "storm never fired");
        prop_assert_eq!(fingerprint(&fork), fingerprint(&straight));
    }

    /// A checkpoint captures the state at the call: interleave random
    /// mutations (reseeds, `/proc/shield` writes, device control, short
    /// runs, observation resets through the public `obs` field) with
    /// checkpoints, then fork from the *final* checkpoint. A fork that
    /// carried any earlier checkpoint's state, or missed a mutation, would
    /// diverge from the straight run that applied the same mutations
    /// without checkpointing at all.
    #[test]
    fn checkpoints_capture_the_state_at_the_call(
        seed in 1u64..1_000,
        warm_ms in 5u64..25,
        ops in proptest::collection::vec(0u8..6, 1..6),
        run_ms in 5u64..30,
    ) {
        let apply = |sim: &mut Simulator, storm: DeviceId, op: u8, k: u64| match op {
            0 => sim.reseed(0x100 + k),
            1 => sim.device_control(storm, CTRL_ARM),
            2 => sim.device_control(storm, CTRL_DISARM),
            3 => sim.run_for(Nanos::from_ms(2)),
            4 => sim
                .set_shield(if k.is_multiple_of(2) {
                    ShieldCtl::full(CpuMask::single(CpuId(1)))
                } else {
                    ShieldCtl::NONE
                })
                .expect("shield write"),
            _ => sim.obs.reset_samples(),
        };

        let (mut straight, _, storm) = build(seed);
        straight.run_for(Nanos::from_ms(warm_ms));
        for (k, &op) in ops.iter().enumerate() {
            apply(&mut straight, storm, op, k as u64);
        }
        straight.run_for(Nanos::from_ms(run_ms));

        let (mut warm, _, warm_storm) = build(seed);
        warm.run_for(Nanos::from_ms(warm_ms));
        for (k, &op) in ops.iter().enumerate() {
            // Checkpoint, then mutate: the final checkpoint must see the
            // mutation.
            let _earlier = warm.checkpoint();
            apply(&mut warm, warm_storm, op, k as u64);
        }
        let ck = warm.checkpoint();

        let (mut fork, _, _) = build(seed);
        fork.restore(&ck);
        fork.run_for(Nanos::from_ms(run_ms));

        prop_assert_eq!(fingerprint(&fork), fingerprint(&straight));

        // Fork-of-fork chains: a second fork taken *from the first fork*
        // must continue identically to the first fork itself.
        let ck2 = {
            let (mut mid, _, _) = build(seed);
            mid.restore(&ck);
            mid.checkpoint()
        };
        let (mut refork, _, _) = build(seed);
        refork.restore(&ck2);
        refork.run_for(Nanos::from_ms(run_ms));
        prop_assert_eq!(fingerprint(&refork), fingerprint(&straight));
    }

    /// Mid-continuation reconfiguration agrees too: both copies arm and later
    /// disarm the injector *after* the fork point, exercising post-restore
    /// device control, task spawning order and RNG stream agreement.
    #[test]
    fn post_fork_reconfiguration_matches(
        seed in 1u64..1_000,
        warm_ms in 5u64..30,
        run_ms in 10u64..40,
    ) {
        let drive = |sim: &mut Simulator, storm: DeviceId| {
            sim.device_control(storm, CTRL_ARM);
            sim.run_for(Nanos::from_ms(run_ms));
            sim.device_control(storm, CTRL_DISARM);
            sim.run_for(Nanos::from_ms(run_ms));
        };

        let (mut straight, _, storm) = build(seed);
        straight.run_for(Nanos::from_ms(warm_ms));
        drive(&mut straight, storm);

        let (mut warm, _, _) = build(seed);
        warm.run_for(Nanos::from_ms(warm_ms));
        let ck = warm.checkpoint();
        let (mut fork, _, fork_storm) = build(seed);
        fork.restore(&ck);
        drive(&mut fork, fork_storm);

        prop_assert_eq!(fingerprint(&fork), fingerprint(&straight));
    }
}

/// A checkpoint is a value: restoring it twice into two fresh simulators
/// yields two independent, identical continuations (no hidden sharing).
/// The run is long enough for every device but the disarmed storm to
/// interrupt and for every waiter to record, so the fingerprints the
/// properties above compare cover every device type.
#[test]
fn one_checkpoint_forks_many_identical_runs() {
    let (mut warm, _, _) = build(77);
    warm.run_for(Nanos::from_ms(20));
    let ck = warm.checkpoint();

    let mut prints = Vec::new();
    for _ in 0..3 {
        let (mut fork, _, storm) = build(77);
        fork.restore(&ck);
        fork.run_for(Nanos::from_ms(30));
        for dev in (0..fork.irq_lines().len() as u32).map(DeviceId).filter(|&d| d != storm) {
            assert!(fork.irq_counts(dev).iter().sum::<u64>() > 0, "{dev} never interrupted");
        }
        let fp = fingerprint(&fork);
        assert_eq!(fp.2.iter().filter(|l| !l.is_empty()).count(), 4, "a waiter recorded nothing");
        prints.push(fp);
    }
    assert_eq!(prints[0], prints[1]);
    assert_eq!(prints[1], prints[2]);
}

/// A checkpoint never carries a ring: one taken while the recorder is armed
/// restores into shells whose own recorders stay as they were, disarmed or
/// armed with their own records, and the continuation is unchanged.
#[test]
fn restore_keeps_the_shells_own_flight_recorder() {
    let (mut straight, _, _) = build(81);
    straight.run_for(Nanos::from_ms(30));

    let (mut warm, _, _) = build(81);
    warm.arm_flight(2);
    warm.run_for(Nanos::from_ms(15));
    assert!(warm.flight.records().next().is_some(), "armed warm-up recorded nothing");
    let ck = warm.checkpoint();

    let (mut disarmed, _, _) = build(81);
    disarmed.restore(&ck);
    assert!(!disarmed.flight.is_armed(), "restore armed a disarmed shell's recorder");
    assert_eq!(disarmed.flight.records().count(), 0);

    let (mut armed, _, _) = build(82);
    armed.arm_flight(1);
    armed.run_for(Nanos::from_ms(5));
    let own: Vec<_> = armed.flight.records().copied().collect();
    armed.restore(&ck);
    assert!(armed.flight.is_armed());
    assert_eq!(armed.flight.top_k(), 1);
    assert_eq!(armed.flight.records().copied().collect::<Vec<_>>(), own);

    for fork in [&mut disarmed, &mut armed] {
        fork.run_for(Nanos::from_ms(15));
        assert_eq!(fingerprint(fork), fingerprint(&straight));
    }
}

/// The fleet handoff pattern: one warm checkpoint shared by reference
/// (`Sync`) across OS worker threads, each restoring into its own rebuilt
/// simulator. Every thread's continuation must be bit-identical to a fork
/// restored on the owning thread — crossing a thread boundary is invisible.
#[test]
fn checkpoint_hands_off_across_threads() {
    let (mut warm, _, _) = build(79);
    warm.run_for(Nanos::from_ms(20));
    let ck = warm.checkpoint();

    let (mut local, _, _) = build(79);
    local.restore(&ck);
    local.run_for(Nanos::from_ms(30));
    let reference = fingerprint(&local);

    let prints: Vec<_> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| {
                let ck = &ck;
                scope.spawn(move || {
                    let (mut fork, _, _) = build(79);
                    fork.restore(ck);
                    fork.run_for(Nanos::from_ms(30));
                    fingerprint(&fork)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("fork thread panicked"))
            .collect()
    });
    for fp in prints {
        assert_eq!(fp, reference, "cross-thread restore drifted");
    }
}

/// `reseed` forks a *different* trajectory from the same checkpoint while
/// staying deterministic per label: same label ⇒ same run, different label
/// ⇒ different draws.
#[test]
fn reseeded_forks_diverge_deterministically() {
    let (mut warm, _, _) = build(78);
    warm.run_for(Nanos::from_ms(20));
    let ck = warm.checkpoint();

    let run = |label: u64| {
        let (mut fork, _, _) = build(78);
        fork.restore(&ck);
        fork.reseed(label);
        fork.run_for(Nanos::from_ms(40));
        fingerprint(&fork)
    };
    let a1 = run(0xA);
    let a2 = run(0xA);
    let b = run(0xB);
    assert_eq!(a1, a2, "same reseed label must reproduce");
    assert_ne!(a1.2, b.2, "different reseed labels must sample different latencies");
}

/// A discarded latency prefix survives checkpoint → restore into a fresh
/// shell: the fork's feed, from any absolute cursor, is the warm run's feed,
/// and both keep recording at the same absolute positions. A checkpoint
/// taken before the discard leaves the one taken after it unaffected.
#[test]
fn discarded_feed_round_trips_through_a_checkpoint() {
    let (mut warm, pid, _) = build(91);
    warm.run_for(Nanos::from_ms(10));
    let _earlier = warm.checkpoint();
    let cut = warm.obs.latency_count(pid);
    assert!(cut > 4, "warm-up recorded {cut} samples");
    warm.obs.discard_latencies(pid, cut - 2);
    let ck = warm.checkpoint();

    let (mut fork, fork_pid, _) = build(91);
    fork.restore(&ck);
    assert_eq!(fork.obs.latency_count(fork_pid), cut);
    assert_eq!(fork.obs.latencies(fork_pid).len(), 2);
    for cursor in [0, cut - 2, cut - 1, cut, cut + 5] {
        assert_eq!(fork.obs.latency_feed(fork_pid, cursor), warm.obs.latency_feed(pid, cursor));
    }
    warm.run_for(Nanos::from_ms(10));
    fork.run_for(Nanos::from_ms(10));
    assert_eq!(fork.obs.latency_feed(fork_pid, cut), warm.obs.latency_feed(pid, cut));
}
