//! The bounded-Pareto lookup tables behind every narrow shipped path cost.
//!
//! A bounded Pareto whose span is at most 4096 ns answers most draws from a
//! shared `simcore::ParetoTable` instead of calling `pow`, and the draws
//! near a step try the guarded `y^(-1/α)` kernel before `pow`. This test
//! builds every cost, section profile, device ISR and reader-exit cost the
//! kernel model ships, then audits each table the process built: the
//! table's answer, and the kernel's, must be the `pow` path's answer on
//! every draw within ±2048 grid points of each step, at the guard distance,
//! and on 10⁶ random draws.

use simcore::{DistShape, DurationDist, Nanos, ParetoTable, SimRng};
use sp_hw::IrqLine;
use sp_kernel::devices::{
    DiskDevice, GpuDevice, NicDevice, OnOffPoisson, RcimDevice, RcimExternalInput, RtcDevice,
    StormDevice, TrafficDevice, TrafficPhase, TrafficProfile,
};
use sp_kernel::{Device, KernelCosts, KernelVariant, SectionProfile};

/// Half-width of the dense window checked around every step.
const WINDOW: u64 = 2048;
/// The sampler's guard (`simcore::dist::GUARD`): draws this far from every
/// step are answered from the table.
const GUARD: u64 = 1 << 24;
/// How far the `pow` path's own step may sit from the closed-form step.
/// Measured at ≤ 3 grid points on every shipped table; the guard is 2²⁴.
const MAX_STEP_ERROR: u64 = 64;
const DRAW_RANGE: u64 = 1 << 53;

fn costs(c: &KernelCosts) -> Vec<DurationDist> {
    vec![
        c.irq_entry.clone(),
        c.irq_ack.clone(),
        c.irq_exit.clone(),
        c.wake.clone(),
        c.sched_pick_o1.clone(),
        c.sched_pick_24_base.clone(),
        c.context_switch.clone(),
        c.syscall_entry.clone(),
        c.syscall_exit.clone(),
        c.tick.clone(),
        c.ipi.clone(),
        c.idle_exit.clone(),
        c.page_fault.clone(),
    ]
}

/// The narrow tail's `(lo, hi)` of a bare or shifted bounded Pareto.
fn narrow_tail(d: &DistShape) -> Option<(u64, u64)> {
    match d {
        DistShape::BoundedPareto { lo, hi, .. } if hi - lo <= 4096 => Some((*lo, *hi)),
        DistShape::Shifted { rest, .. } => narrow_tail(rest),
        _ => None,
    }
}

/// Build everything the kernel model ships that samples a bounded Pareto,
/// so the process-wide table registry holds every shipped narrow table.
fn build_shipped() -> Vec<DurationDist> {
    let mut built = Vec::new();
    for c in [KernelCosts::default(), KernelCosts::modern()] {
        for d in costs(&c) {
            assert_eq!(
                d.pareto_table().is_some(),
                narrow_tail(d.shape()).is_some(),
                "{d:?}: a table iff the tail is at most 4096 ns wide"
            );
            built.push(d);
        }
    }
    for v in KernelVariant::ALL {
        let s = SectionProfile::for_variant(v);
        built.extend([s.long_section, s.read_exit_lock_hold, s.bkl_hold]);
    }
    let edges = OnOffPoisson::continuous(Nanos::from_us(100));
    let traffic = TrafficProfile {
        phases: vec![TrafficPhase {
            name: "flat".into(),
            duration: Nanos::from_ms(100),
            irq_hz: 1_000,
            batch: 4,
        }],
        cycle: true,
    };
    // Device constructors build their ISR costs; the reader-exit costs are
    // built when the device is asked for them.
    let devices: Vec<Box<dyn Device>> = vec![
        Box::new(RtcDevice::new(2048)),
        Box::new(RcimDevice::new(Nanos::from_us(100))),
        Box::new(RcimDevice::modern(Nanos::from_us(100))),
        Box::new(RcimExternalInput::new(IrqLine(12), edges.clone())),
        Box::new(NicDevice::new(Some(edges.clone()))),
        Box::new(DiskDevice::new()),
        Box::new(GpuDevice::new(edges)),
        Box::new(StormDevice::irq_storm(IrqLine(13), 20_000.0)),
        Box::new(StormDevice::softirq_flood(IrqLine(13), 5_000.0, Nanos::from_us(200))),
        Box::new(StormDevice::stuck_isr(IrqLine(13), 100, Nanos::from_us(500))),
        Box::new(TrafficDevice::new(traffic)),
    ];
    built.extend(devices.iter().filter_map(|dev| dev.reader_exit_work()));
    built
}

/// Check the table, and the guarded kernel behind its near-step fallback,
/// against the `pow` path at one draw; returns the `pow` answer.
fn check(t: &ParetoTable, draw: u64) -> u64 {
    let pow = t.pow_path(draw);
    if let Some(ns) = t.lookup(draw) {
        assert_eq!(ns, pow, "{t:?}: table and pow differ at draw {draw}");
    }
    if let Some(ns) = t.guarded_arm().kernel(draw) {
        assert_eq!(ns, pow, "{t:?}: kernel and pow differ at draw {draw}");
    }
    pow
}

/// Audit one table; returns the widest distance between a `pow` step and its
/// closed-form step.
fn audit(t: &ParetoTable, seed: u64) -> u64 {
    let mut worst = 0;
    for (j, &step) in t.steps().iter().enumerate() {
        let below = t.lo() + j as u64;
        for draw in step.saturating_sub(WINDOW)..(step + WINDOW + 1).min(DRAW_RANGE) {
            let ideal = if draw >= step { below + 1 } else { below };
            if check(t, draw) != ideal {
                worst = worst.max(draw.abs_diff(step));
            }
        }
        for draw in [
            step.saturating_sub(GUARD),
            step.saturating_sub(GUARD + 1),
            step + GUARD - 1,
            step + GUARD,
        ] {
            if draw < DRAW_RANGE {
                check(t, draw);
            }
        }
    }
    let mut rng = SimRng::new(seed);
    let mut answered = 0u32;
    for _ in 0..1_000_000 {
        let draw = rng.next_u64() >> 11;
        check(t, draw);
        answered += t.lookup(draw).is_some() as u32;
    }
    // Narrow tails are what the table is for: nearly every draw skips `pow`.
    assert!(answered > 900_000, "{t:?}: only {answered} of 10^6 draws answered");
    worst
}

#[test]
fn every_shipped_narrow_pareto_table_equals_the_pow_path() {
    let _built = build_shipped();
    let tables = ParetoTable::interned_tables();
    // Default costs, modern costs, and the device ISR / exit tails.
    assert!(tables.len() >= 20, "only {} tables built", tables.len());
    let worst = std::thread::scope(|s| {
        let audits: Vec<_> = (0..2)
            .map(|w| {
                let mine = tables.iter().skip(w).step_by(2);
                s.spawn(move || {
                    mine.map(|t| audit(t, t.lo() ^ t.steps().len() as u64)).max().unwrap_or(0)
                })
            })
            .collect();
        audits.into_iter().map(|a| a.join().unwrap()).max().unwrap()
    });
    assert!(worst <= MAX_STEP_ERROR, "a pow step sits {worst} grid points from its closed form");
}
