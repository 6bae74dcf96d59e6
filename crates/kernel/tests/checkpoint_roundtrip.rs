//! Warm-checkpoint round-trip properties.
//!
//! The fork contract: build an identically-configured simulator, `restore` a
//! [`sp_kernel::Checkpoint`] into it, and from that instant on it is
//! indistinguishable from the simulator the checkpoint was taken from —
//! bit-identical clock, event count, recorded samples and per-CPU
//! accounting, for any split point and any continuation length, with or
//! without an armed fault injector.

use proptest::prelude::*;
use simcore::{DurationDist, Instant, Nanos};
use sp_hw::{CpuId, CpuMask, IrqLine, MachineConfig};
use sp_kernel::devices::storm::{StormDevice, CTRL_ARM, CTRL_DISARM};
use sp_kernel::devices::{DiskDevice, NicDevice, OnOffPoisson, RtcDevice};
use sp_kernel::observe::CpuAccounting;
use sp_kernel::{
    DeviceId, KernelConfig, Op, Pid, Program, SchedPolicy, ShieldCtl, Simulator, TaskSpec,
    WaitApi,
};

/// A loaded two-CPU simulation: RTC waiter (watched), NIC softirq traffic,
/// disk device, background compute/sleep churn on both CPUs, and a disarmed
/// storm injector. Deterministic per seed.
fn build(seed: u64) -> (Simulator, Pid, DeviceId) {
    let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), seed);
    let rtc = sim.add_device(RtcDevice::new(2048));
    sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(Nanos::from_ms(10)))));
    sim.add_device(DiskDevice::new());
    let storm = sim.add_device(StormDevice::irq_storm(IrqLine(60), 3_000.0));

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
    sim.start();
    (sim, waiter, storm)
}

/// Everything observable about a run, for bit-identity comparison.
fn fingerprint(sim: &Simulator, pid: Pid, storm: DeviceId) -> (Instant, u64, Vec<Nanos>, Vec<CpuAccounting>, Vec<u64>) {
    (
        sim.now(),
        sim.events_dispatched(),
        sim.obs.latencies(pid).to_vec(),
        sim.obs.cpu.clone(),
        sim.irq_counts(storm).to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `restore(checkpoint(sim))` then `run_for(d)` is bit-identical to
    /// running straight through, for arbitrary split points.
    #[test]
    fn restore_then_run_matches_straight_run(
        seed in 1u64..1_000,
        warm_ms in 5u64..40,
        run_ms in 5u64..60,
    ) {
        let (mut straight, pid, storm) = build(seed);
        straight.run_for(Nanos::from_ms(warm_ms + run_ms));

        let (mut warm, _, _) = build(seed);
        warm.run_for(Nanos::from_ms(warm_ms));
        let ck = warm.checkpoint();

        let (mut fork, fork_pid, fork_storm) = build(seed);
        fork.restore(&ck);
        prop_assert_eq!(fork.now(), warm.now());
        fork.run_for(Nanos::from_ms(run_ms));

        prop_assert_eq!(
            fingerprint(&fork, fork_pid, fork_storm),
            fingerprint(&straight, pid, storm)
        );
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
        let (mut straight, pid, storm) = build(seed);
        straight.device_control(storm, CTRL_ARM);
        straight.run_for(Nanos::from_ms(warm_ms + run_ms));

        let (mut warm, _, warm_storm) = build(seed);
        warm.device_control(warm_storm, CTRL_ARM);
        warm.run_for(Nanos::from_ms(warm_ms));
        let ck = warm.checkpoint();

        let (mut fork, fork_pid, fork_storm) = build(seed);
        fork.restore(&ck);
        fork.run_for(Nanos::from_ms(run_ms));

        let fp = fingerprint(&fork, fork_pid, fork_storm);
        prop_assert!(fp.4.iter().sum::<u64>() > 0, "storm never fired");
        prop_assert_eq!(fp, fingerprint(&straight, pid, storm));
    }

    /// The copy-on-write checkpoint cache must never serve a stale image:
    /// interleave random mutations (reseeds, `/proc/shield` writes, device
    /// control, short runs, observation resets through the public `obs`
    /// field) with cache-priming checkpoints, then fork from the *final*
    /// checkpoint. If any mutating entry point forgot to invalidate the
    /// cache — or the `Observations` version counter missed a collector —
    /// the fork replays pre-mutation state and diverges from the straight
    /// run that applied the same mutations without checkpointing at all.
    #[test]
    fn cached_checkpoints_never_serve_stale_state(
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

        let (mut straight, pid, storm) = build(seed);
        straight.run_for(Nanos::from_ms(warm_ms));
        for (k, &op) in ops.iter().enumerate() {
            apply(&mut straight, storm, op, k as u64);
        }
        straight.run_for(Nanos::from_ms(run_ms));

        let (mut warm, _, warm_storm) = build(seed);
        warm.run_for(Nanos::from_ms(warm_ms));
        for (k, &op) in ops.iter().enumerate() {
            // Prime the cache, then mutate: the mutation must invalidate it.
            let _primed = warm.checkpoint();
            apply(&mut warm, warm_storm, op, k as u64);
        }
        let ck = warm.checkpoint();

        let (mut fork, fork_pid, fork_storm) = build(seed);
        fork.restore(&ck);
        fork.run_for(Nanos::from_ms(run_ms));

        prop_assert_eq!(
            fingerprint(&fork, fork_pid, fork_storm),
            fingerprint(&straight, pid, storm)
        );

        // Fork-then-checkpoint chains ride the repopulated cache: a second
        // fork taken *from the first fork* must continue identically to the
        // first fork itself.
        let ck2 = {
            let (mut mid, _, _) = build(seed);
            mid.restore(&ck);
            mid.checkpoint()
        };
        let (mut refork, refork_pid, refork_storm) = build(seed);
        refork.restore(&ck2);
        refork.run_for(Nanos::from_ms(run_ms));
        prop_assert_eq!(
            fingerprint(&refork, refork_pid, refork_storm),
            fingerprint(&straight, pid, storm)
        );
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

        let (mut straight, pid, storm) = build(seed);
        straight.run_for(Nanos::from_ms(warm_ms));
        drive(&mut straight, storm);

        let (mut warm, _, _) = build(seed);
        warm.run_for(Nanos::from_ms(warm_ms));
        let ck = warm.checkpoint();
        let (mut fork, fork_pid, fork_storm) = build(seed);
        fork.restore(&ck);
        drive(&mut fork, fork_storm);

        prop_assert_eq!(
            fingerprint(&fork, fork_pid, fork_storm),
            fingerprint(&straight, pid, storm)
        );
    }
}

/// A checkpoint is a value: restoring it twice into two fresh simulators
/// yields two independent, identical continuations (no hidden sharing).
#[test]
fn one_checkpoint_forks_many_identical_runs() {
    let (mut warm, _, _) = build(77);
    warm.run_for(Nanos::from_ms(20));
    let ck = warm.checkpoint();

    let mut prints = Vec::new();
    for _ in 0..3 {
        let (mut fork, pid, storm) = build(77);
        fork.restore(&ck);
        fork.run_for(Nanos::from_ms(30));
        prints.push(fingerprint(&fork, pid, storm));
    }
    assert_eq!(prints[0], prints[1]);
    assert_eq!(prints[1], prints[2]);
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

    let (mut local, pid, storm) = build(79);
    local.restore(&ck);
    local.run_for(Nanos::from_ms(30));
    let reference = fingerprint(&local, pid, storm);

    let prints: Vec<_> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| {
                let ck = &ck;
                scope.spawn(move || {
                    let (mut fork, pid, storm) = build(79);
                    fork.restore(ck);
                    fork.run_for(Nanos::from_ms(30));
                    fingerprint(&fork, pid, storm)
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
        let (mut fork, pid, storm) = build(78);
        fork.restore(&ck);
        fork.reseed(label);
        fork.run_for(Nanos::from_ms(40));
        fingerprint(&fork, pid, storm)
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
/// cached before the discard must not be served after it.
#[test]
fn discarded_feed_round_trips_through_a_checkpoint() {
    let (mut warm, pid, _) = build(91);
    warm.run_for(Nanos::from_ms(10));
    let _primed = warm.checkpoint();
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
