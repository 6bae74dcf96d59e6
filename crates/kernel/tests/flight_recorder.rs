//! Flight-recorder invariants at the simulator level.
//!
//! The recorder's contract: arming it never changes simulated behaviour
//! (bit-identical clock, event counts, samples and accounting vs a disarmed
//! run, including across checkpoint/restore forks), and when armed it
//! explains exactly the worst watched samples — the captured top trace's
//! latency equals the observed maximum and its window holds the causal
//! chain from interrupt assert to completion.

use proptest::prelude::*;
use simcore::flight::FlightEventKind;
use simcore::{DurationDist, Instant, Nanos};
use sp_hw::{CpuId, CpuMask, MachineConfig};
use sp_kernel::devices::{DiskDevice, NicDevice, OnOffPoisson, RtcDevice};
use sp_kernel::observe::CpuAccounting;
use sp_kernel::{
    KernelConfig, Op, Pid, Program, SchedPolicy, Simulator, TaskSpec, WaitApi,
};

/// A loaded two-CPU simulation with a watched RTC waiter. Deterministic per
/// seed; same shape as the checkpoint round-trip tests.
fn build(seed: u64) -> (Simulator, Pid) {
    let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), seed);
    let rtc = sim.add_device(RtcDevice::new(2048));
    sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(Nanos::from_ms(10)))));
    sim.add_device(DiskDevice::new());

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
    (sim, waiter)
}

fn fingerprint(sim: &Simulator, pid: Pid) -> (Instant, u64, Vec<Nanos>, Vec<CpuAccounting>) {
    (
        sim.now(),
        sim.events_dispatched(),
        sim.obs.latencies(pid).to_vec(),
        sim.obs.cpu.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Armed vs disarmed runs are bit-identical in everything the verdicts
    /// are computed from.
    #[test]
    fn armed_run_is_bit_identical_to_disarmed(seed in 1u64..1_000, run_ms in 10u64..60) {
        let (mut plain, plain_pid) = build(seed);
        plain.run_for(Nanos::from_ms(run_ms));

        let (mut armed, armed_pid) = build(seed);
        armed.arm_flight(3);
        armed.run_for(Nanos::from_ms(run_ms));

        prop_assert_eq!(fingerprint(&armed, armed_pid), fingerprint(&plain, plain_pid));
        prop_assert!(armed.flight.worst().is_some(), "armed run captured nothing");
    }

    /// Arming only on the fork leaves the forked continuation bit-identical
    /// to the disarmed straight run: recorder state is outside the
    /// checkpoint and outside the simulated world.
    #[test]
    fn armed_fork_matches_disarmed_straight_run(
        seed in 1u64..1_000,
        warm_ms in 5u64..30,
        run_ms in 10u64..40,
    ) {
        let (mut straight, pid) = build(seed);
        straight.run_for(Nanos::from_ms(warm_ms + run_ms));

        let (mut warm, _) = build(seed);
        warm.run_for(Nanos::from_ms(warm_ms));
        let ck = warm.checkpoint();

        let (mut fork, fork_pid) = build(seed);
        fork.restore(&ck);
        fork.arm_flight(2);
        fork.run_for(Nanos::from_ms(run_ms));

        prop_assert_eq!(fingerprint(&fork, fork_pid), fingerprint(&straight, pid));
    }
}

#[test]
fn worst_trace_explains_the_observed_maximum() {
    let (mut sim, pid) = build(42);
    sim.arm_flight(3);
    sim.run_for(Nanos::from_ms(120));

    let max = sim.obs.latencies(pid).iter().copied().max().expect("samples recorded");
    let top = sim.flight.top();
    assert!(!top.is_empty() && top.len() <= 3);
    let worst = &top[0];
    assert_eq!(worst.latency, max, "top trace must be the max sample");
    assert_eq!(worst.pid, pid);
    assert_eq!(worst.completed.since(worst.asserted), worst.latency);

    // Ordered worst-first.
    for pair in top.windows(2) {
        assert!(pair[0].latency >= pair[1].latency);
    }

    // The window holds the causal chain: the assert, a wakeup, and the
    // completion marker, all within the sample's bounds.
    let kinds: Vec<FlightEventKind> = worst.events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&FlightEventKind::IrqAssert) || worst.truncated, "{kinds:?}");
    assert!(kinds.contains(&FlightEventKind::Wake) || worst.truncated, "{kinds:?}");
    assert!(kinds.contains(&FlightEventKind::SampleDone), "{kinds:?}");
    for ev in &worst.events {
        assert!(ev.end() >= worst.asserted && ev.at <= worst.completed);
    }
    for pair in worst.events.windows(2) {
        assert!(pair[0].at <= pair[1].at, "window must be chronologically sorted");
    }

    // Breakdown is captured for flight samples and adds up exactly.
    let b = worst.breakdown.expect("flight capture computes the breakdown");
    assert_eq!(b.total(), worst.latency);
}

#[test]
fn disarmed_recorder_stays_empty() {
    let (mut sim, _) = build(7);
    sim.run_for(Nanos::from_ms(30));
    assert!(!sim.flight.is_armed());
    assert!(sim.flight.top().is_empty());
    assert_eq!(sim.flight.ring_dropped(), 0);
}
