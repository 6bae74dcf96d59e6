//! The §3 shielding semantics, exercised through the `/proc/shield`
//! interface and the `ShieldPlan` API against a live simulation.

use proptest::prelude::*;
use simcore::{DurationDist, Nanos};
use sp_core::{PlanError, ProcIrq, ProcShield, ProcWriteError, ShieldFile, ShieldPlan};
use sp_devices::RcimDevice;
use sp_hw::{CpuId, CpuMask, IrqLine, MachineConfig};
use sp_kernel::{
    KernelConfig, KernelVariant, Op, Program, SchedPolicy, Simulator, TaskSpec, WaitApi,
};

fn sim() -> Simulator {
    Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), 99)
}

fn spin_forever() -> Program {
    Program::forever(vec![Op::Compute(DurationDist::constant(Nanos::from_us(200)))])
}

#[test]
fn files_read_back_what_was_written() {
    let mut s = sim();
    s.start();
    assert_eq!(ProcShield::read(&s, ShieldFile::Procs), "0\n");
    ProcShield::write(&mut s, ShieldFile::Procs, "0x2").unwrap();
    ProcShield::write(&mut s, ShieldFile::Ltmrs, "2\n").unwrap();
    assert_eq!(ProcShield::read(&s, ShieldFile::Procs), "2\n");
    assert_eq!(ProcShield::read(&s, ShieldFile::Irqs), "0\n");
    assert_eq!(ProcShield::read(&s, ShieldFile::Ltmrs), "2\n");
    ProcShield::write(&mut s, ShieldFile::Kthreads, "0x2").unwrap();
    assert_eq!(ProcShield::read(&s, ShieldFile::Kthreads), "2\n");
    let status = ProcShield::status(&s);
    assert!(status.contains("/proc/shield/procs:2"), "{status}");
    assert!(status.contains("/proc/shield/irqs:0"), "{status}");
    assert!(status.contains("/proc/shield/kthreads:2"), "{status}");
}

#[test]
fn write_validation_mirrors_procfs() {
    let mut s = sim();
    s.start();
    // Hex digits only after an optional `0x`: no sign, separator or
    // non-ASCII digit, at most 16 significant digits.
    for text in ["zz", "", "   ", "0x", "+3", "0x+3", "-1", "1,2", "10000000000000000", "３"] {
        let r = ProcShield::write(&mut s, ShieldFile::Procs, text);
        assert!(matches!(r, Err(ProcWriteError::BadMask(_))), "{text:?}: {r:?}");
    }
    assert!(matches!(
        ProcShield::write(&mut s, ShieldFile::Procs, "0x4"),
        Err(ProcWriteError::OfflineCpus(m)) if m == CpuMask(0b100)
    ));
    // Shielding every online CPU from processes is refused.
    assert!(matches!(
        ProcShield::write(&mut s, ShieldFile::Procs, "0x3"),
        Err(ProcWriteError::Rejected(_))
    ));
}

#[test]
fn vanilla_kernel_has_no_shield_files() {
    let mut s = Simulator::new(
        MachineConfig::dual_xeon_p3(),
        KernelConfig::new(KernelVariant::Vanilla24),
        1,
    );
    s.start();
    assert!(matches!(
        ProcShield::write(&mut s, ShieldFile::Procs, "0x2"),
        Err(ProcWriteError::Rejected(_))
    ));
}

#[test]
fn file_paths_resolve() {
    assert_eq!(ShieldFile::from_path("/proc/shield/procs"), Some(ShieldFile::Procs));
    assert_eq!(ShieldFile::from_path("irqs"), Some(ShieldFile::Irqs));
    assert_eq!(ShieldFile::from_path("/proc/shield/ltmrs/"), Some(ShieldFile::Ltmrs));
    assert_eq!(ShieldFile::from_path("/proc/shield/bogus"), None);
}

#[test]
fn dynamic_shield_squeezes_out_running_tasks() {
    let mut s = sim();
    let pids: Vec<_> = (0..3)
        .map(|i| s.spawn(TaskSpec::new(format!("bg{i}"), SchedPolicy::nice(0), spin_forever())))
        .collect();
    s.start();
    s.run_for(Nanos::from_ms(50));
    ProcShield::write(&mut s, ShieldFile::Procs, "0x2").unwrap();
    s.run_for(Nanos::from_ms(2));
    let busy_before = s.obs.cpu[1];
    s.run_for(Nanos::from_ms(100));
    let busy_after = s.obs.cpu[1];
    assert_eq!(busy_before.user, busy_after.user, "no process ran on the shielded CPU");
    for pid in pids {
        assert_eq!(s.task(pid).effective_affinity, CpuMask::single(CpuId(0)));
    }
}

#[test]
fn unshielding_lets_tasks_spread_again() {
    let mut s = sim();
    for i in 0..3 {
        s.spawn(TaskSpec::new(format!("bg{i}"), SchedPolicy::nice(0), spin_forever()));
    }
    s.start();
    s.run_for(Nanos::from_ms(10));
    ProcShield::write(&mut s, ShieldFile::Procs, "2").unwrap();
    s.run_for(Nanos::from_ms(10));
    ProcShield::write(&mut s, ShieldFile::Procs, "0").unwrap();
    let user_before = s.obs.cpu[1].user;
    s.run_for(Nanos::from_ms(100));
    assert!(
        s.obs.cpu[1].user > user_before + Nanos::from_ms(50),
        "cpu1 busy again after unshield"
    );
}

#[test]
fn task_bound_inside_shield_is_admitted() {
    let mut s = sim();
    s.spawn(TaskSpec::new("bg", SchedPolicy::nice(0), spin_forever()));
    let rt = s.spawn(
        TaskSpec::new("rt", SchedPolicy::fifo(80), spin_forever())
            .pinned(CpuMask::single(CpuId(1))),
    );
    s.start();
    ProcShield::write_all(&mut s, CpuMask::single(CpuId(1))).unwrap();
    s.run_for(Nanos::from_ms(50));
    // The rt task's mask lies wholly inside the shield: it stays.
    assert_eq!(s.task(rt).effective_affinity, CpuMask::single(CpuId(1)));
    assert!(s.obs.cpu[1].user > Nanos::from_ms(40), "rt owns the shielded CPU");
}

#[test]
fn plan_applies_full_recipe() {
    let mut s = sim();
    let rcim = s.add_device(RcimDevice::new(Nanos::from_ms(1)));
    let waiter = s.spawn(TaskSpec::new(
        "rt",
        SchedPolicy::fifo(90),
        Program::forever(vec![Op::WaitIrq {
            device: rcim,
            api: WaitApi::IoctlWait { driver_bkl_free: true },
        }]),
    ));
    for i in 0..2 {
        s.spawn(TaskSpec::new(format!("bg{i}"), SchedPolicy::nice(0), spin_forever()));
    }
    s.watch_latency(waiter);
    s.start();
    ShieldPlan::cpu(CpuId(1))
        .bind_task(waiter)
        .bind_irq(rcim)
        .apply(&mut s)
        .unwrap();
    s.run_for(Nanos::from_secs(1));
    let shield = s.shield();
    assert_eq!(shield.procs, CpuMask(0b10));
    assert_eq!(shield.irqs, CpuMask(0b10));
    assert_eq!(shield.ltmrs, CpuMask(0b10));
    // The local timer is off on the shielded CPU: (almost) no ticks there.
    assert!(s.obs.cpu[1].ticks <= 1, "ticks on shielded cpu: {}", s.obs.cpu[1].ticks);
    assert!(s.obs.cpu[0].ticks > 90, "ticks on the unshielded cpu: {}", s.obs.cpu[0].ticks);
    // And the waiter gets its sub-30µs responses despite the busy system.
    let lats = s.obs.latencies(waiter);
    assert!(lats.len() > 900, "samples {}", lats.len());
    let max = *lats.iter().max().unwrap();
    assert!(max < Nanos::from_us(30), "shielded RCIM worst case: {max}");
}

#[test]
fn empty_plan_is_rejected() {
    let mut s = sim();
    s.start();
    assert_eq!(
        ShieldPlan::full(CpuMask::EMPTY).apply(&mut s),
        Err(PlanError::EmptyShield)
    );
}

#[test]
fn keep_local_timer_variant() {
    let mut s = sim();
    s.spawn(TaskSpec::new("bg", SchedPolicy::nice(0), spin_forever()));
    s.start();
    ShieldPlan::cpu(CpuId(1)).keep_local_timer().apply(&mut s).unwrap();
    s.run_for(Nanos::from_secs(1));
    assert!(s.obs.cpu[1].ticks > 90, "local timer still ticking: {}", s.obs.cpu[1].ticks);
}

/// Pieces hostile `/proc` writes are glued from: whitespace, prefixes,
/// signs, digits, a 16-digit run, separators and non-ASCII.
#[rustfmt::skip]
const FRAGMENTS: [&str; 18] = [
    "", " ", "\t", "\n", "0x", "0X", "+", "-", "0", "1", "3", "f", "G",
    "ffffffffffffffff", ",", "_", "é", "\u{ff10}",
];

/// The hex mask grammar: trimmed, an optional `0x`, then one or more hex
/// digits whose value fits in 64 bits (leading zeros allowed).
fn is_hex_mask(s: &str) -> bool {
    let t = s.trim();
    let t = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")).unwrap_or(t);
    let significant = t.trim_start_matches('0');
    !t.is_empty() && t.bytes().all(|b| b.is_ascii_hexdigit()) && significant.len() <= 16
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever is written to a shield file or an `smp_affinity` file, the
    /// write returns `Ok` or a typed error and never panics, and it is a
    /// `BadMask` exactly when the text is not a hex mask: a sign (`+3`,
    /// `0x+3`), a bare `0x`, commas, more than 16 significant digits and
    /// non-ASCII digits are all refused.
    #[test]
    fn hostile_proc_writes_return_typed_errors(
        pieces in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..7),
        line in 15u32..18,
    ) {
        let text: String = pieces.iter().map(|&i| FRAGMENTS[i]).collect();
        let mut s = sim();
        s.add_device(RcimDevice::new(Nanos::from_us(500)));
        s.start();
        let bad = |r: &Result<(), ProcWriteError>| matches!(r, Err(ProcWriteError::BadMask(_)));
        for file in ShieldFile::ALL {
            let r = ProcShield::write(&mut s, file, &text);
            prop_assert_eq!(bad(&r), !is_hex_mask(&text), "{:?} <- {:?}: {:?}", file, text, r);
        }
        let r = ProcIrq::write(&mut s, IrqLine(line), &text);
        prop_assert_eq!(bad(&r), !is_hex_mask(&text), "irq {} <- {:?}: {:?}", line, text, r);
    }
}
