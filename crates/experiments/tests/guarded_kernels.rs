//! The guarded kernels behind every wide bounded Pareto and exponential the
//! model ships.
//!
//! A bounded Pareto wider than a lookup table answers `y^(-1/α)` through a
//! polynomial kernel, and an exponential answers `−ln u` through another;
//! each keeps its answer only where an error bound says libm would round to
//! the same nanosecond (`simcore::fastmath`). This test runs every shipped
//! study at floor scale and builds the request plant and the example
//! scenarios, so the process has compiled every kernel cost, section
//! profile, syscall segment, device ISR/softirq/gap profile, workload and
//! injector distribution. It then audits each wide tail and exponential
//! that compiling recorded: the kernel's answer must be libm's on 10⁶ random
//! draws and on dense windows around log-spaced rounding crossings, and
//! the kernel must answer nearly every random draw.

use simcore::fastmath::NegPow;
use simcore::{DistShape, DurationDist, GuardedArm, SimRng};
use sp_experiments::{
    run_fault_matrix, run_figures, run_modern_matrix, run_sweep, FaultMatrixConfig, ModernConfig,
    ScenarioSpec, SweepConfig,
};
use sp_hw::{CpuId, MachineConfig};
use sp_kernel::Simulator;
use sp_workloads::{diurnal_burst_profile, request_kernel_config, request_serving};

const DRAW_RANGE: u64 = 1 << 53;
/// Crossings per distribution, log-spaced over its range.
const CROSSINGS: u32 = 48;
/// Half-width of the dense window checked around every crossing.
const WINDOW: u64 = 512;
const RANDOM_DRAWS: u32 = 1_000_000;

/// Run or build everything the model ships, so the process-wide record of
/// compiled wide tails and exponentials holds every one of them.
fn compile_shipped() {
    run_figures(0.002, 1, 0);
    run_fault_matrix(&FaultMatrixConfig { samples_per_cell: 200, shards: 1, seed: 1 });
    run_modern_matrix(&ModernConfig { samples_per_cell: 200, shards: 1, seed: 1 });
    run_sweep(&SweepConfig { samples_per_cell: 64, warm_samples: 32, ..SweepConfig::canonical(3) });
    // The autopilot's plant (examples/scenarios/diurnal_burst.json is its
    // traffic profile).
    let mut sim = Simulator::new(MachineConfig::quad_xeon_server(), request_kernel_config(), 1);
    request_serving(&mut sim, diurnal_burst_profile(), CpuId(3), 6);
    for name in ["fig7", "irq_storm", "reshield_transient", "determinism_shielded"] {
        let path = format!("{}/../../examples/scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let spec: ScenarioSpec =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).expect("spec parses");
        spec.build(spec.seed).expect("shipped spec builds");
    }
}

/// The 53-bit draws at which the exact sample crosses `v + ½` for
/// log-spaced values `v`: the rounding steps, solved in closed form.
fn crossings(shape: &DistShape) -> Vec<u64> {
    let scale = DRAW_RANGE as f64;
    let (first, last, draw_at): (f64, f64, Box<dyn Fn(f64) -> f64>) = match *shape {
        DistShape::BoundedPareto { lo, hi, alpha } => {
            let (la, ha) = ((lo as f64).powf(-alpha), (hi as f64).powf(-alpha));
            let at = move |x: f64| (la - x.powf(-alpha)) / (la - ha) * scale;
            (lo as f64, hi as f64, Box::new(at))
        }
        DistShape::Exponential { mean } => {
            // u = 1 − draw/2⁵³ and x = −ln(u)·mean.
            let at = move |x: f64| -(-x / mean as f64).exp_m1() * scale;
            (1.0, 36.0 * mean as f64, Box::new(at))
        }
        ref other => panic!("no kernel for {other:?}"),
    };
    let ratio = (last / first).powf(1.0 / CROSSINGS as f64);
    (0..CROSSINGS)
        .map(|i| (first * ratio.powi(i as i32)).floor() + 0.5)
        .map(|x| draw_at(x).ceil())
        .filter(|d| (0.0..scale).contains(d))
        .map(|d| d as u64)
        .collect()
}

/// The kernel's answer, if any, must be libm's; returns whether it fell back.
fn check(arm: &GuardedArm<'_>, shape: &DistShape, draw: u64) -> bool {
    match arm.kernel(draw) {
        Some(ns) => {
            assert_eq!(ns, arm.libm(draw), "{shape:?}: kernel and libm differ at draw {draw}");
            false
        }
        None => true,
    }
}

/// Audit one shape; returns its fallback count on the random draws.
fn audit(shape: &DistShape) -> u32 {
    let dist = DurationDist::from(shape.clone());
    let arm = dist.guarded_arm().expect("a guarded arm");
    assert!(arm.has_kernel(), "{shape:?}: no kernel was built");
    for step in crossings(shape) {
        let window = step.saturating_sub(WINDOW)..(step + WINDOW + 1).min(DRAW_RANGE);
        // Past the dense window, offsets doubling out to 2⁴⁵ grid points
        // cross the guard's edge wherever it lies.
        let far = (10..46).flat_map(|i| [step.wrapping_sub(1 << i), step + (1 << i)]);
        for draw in window.chain(far.filter(|d| *d < DRAW_RANGE)) {
            check(&arm, shape, draw);
        }
    }
    let mut rng = SimRng::new(0x6A2D);
    (0..RANDOM_DRAWS).map(|_| check(&arm, shape, rng.next_u64() >> 11) as u32).sum()
}

#[test]
fn every_shipped_wide_tail_and_exponential_kernel_equals_libm() {
    compile_shipped();
    let shapes = DurationDist::guarded_shapes();
    let count = |wide: bool| {
        shapes.iter().filter(|s| matches!(s, DistShape::BoundedPareto { .. }) == wide).count()
    };
    // Section holds, syscall segments, softirq boluses; arrival gaps.
    assert!(count(true) >= 10, "only {} wide tails compiled", count(true));
    assert!(count(false) >= 5, "only {} exponentials compiled", count(false));
    // The kernels' tables are interned per α, not per distribution.
    let bytes = NegPow::interned_bytes();
    assert!(bytes < 64 << 10, "the kernels' tables hold {bytes} bytes");
    let fallbacks: Vec<(DistShape, u32)> = std::thread::scope(|s| {
        let audits: Vec<_> = (0..2)
            .map(|w| {
                let mine: Vec<&DistShape> = shapes.iter().skip(w).step_by(2).collect();
                s.spawn(move || mine.into_iter().map(|d| (d.clone(), audit(d))).collect::<Vec<_>>())
            })
            .collect();
        audits.into_iter().flat_map(|a| a.join().unwrap()).collect()
    });
    let total: u32 = fallbacks.iter().map(|(_, n)| n).sum();
    let share = total as f64 / (fallbacks.len() as f64 * RANDOM_DRAWS as f64);
    assert!(share < 1e-5, "the guard sends {share:.2e} of random draws to libm");
    // Second-scale ON/OFF phase lengths sit near 2³² ns, where one ulp is
    // 2⁻²⁰ ns, so even a guard as narrow as libm's own error sends a few
    // draws in 10⁶ back; every other shipped shape loses at most one.
    for (shape, n) in &fallbacks {
        let share = *n as f64 / RANDOM_DRAWS as f64;
        assert!(share < 1e-4, "{shape:?}: the guard sends {share:.2e} of random draws to libm");
    }
}
