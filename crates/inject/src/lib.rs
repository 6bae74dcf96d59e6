//! # sp-inject — deterministic fault injection & mid-run orchestration
//!
//! The paper's claim is a *guarantee*: worst-case interrupt response stays
//! sub-millisecond on a shielded CPU no matter what the rest of the machine
//! is doing. The figure experiments only exercise the benign §6 load mix;
//! this crate supplies the adversarial side — a library of perturbations that
//! can be armed and disarmed mid-run, each seed-deterministic:
//!
//! * **IRQ storm** ([`StormDevice::irq_storm`]) — a device line asserting at
//!   a configurable rate, NIC-grade ISR plus a receive softirq per interrupt.
//! * **Softirq flood** ([`StormDevice::softirq_flood`]) — modest interrupt
//!   rate, but each bottom half carries a heavy-tailed work bolus.
//! * **Stuck ISR** ([`StormDevice::stuck_isr`]) — device misbehaviour: a
//!   handler that polls a wedged card for milliseconds per interrupt.
//! * **Lock-holder preemption** ([`LockHolder`]) — a task that grabs a named
//!   global spinlock with `spin_lock_irqsave` semantics for a
//!   distribution-drawn stretch, the §6.2 failure mechanism made malicious.
//! * **Rogue CPU hog** ([`CpuHog`]) — a duty-cycled SCHED_FIFO compute loop
//!   at higher priority than the measured task.
//!
//! Injectors are built on the existing [`sp_kernel::Device`] / task
//! machinery: a disarmed injector schedules no events and spawns no tasks,
//! so the simulator hot loop pays nothing for its existence (asserted by
//! the storm device's `disarmed_device_schedules_nothing` test in
//! `sp-kernel`). Arm/disarm travels over
//! [`sp_kernel::Simulator::device_control`], a control-plane call that never
//! appears on the dispatch path.
//!
//! [`FaultSpec`]/[`FaultKind`] is the serde vocabulary scenarios embed
//! (`ScenarioSpec.faults` + timeline actions in `sp-experiments`), and
//! [`Armory`] is the runtime registry that owns registration, arming and
//! disarming against a live simulator.

mod armory;
mod storm;
mod tasks;

pub use armory::{Armory, InjectError};
pub use storm::{StormDevice, CTRL_ARM, CTRL_DISARM};
pub use tasks::{spawn_cpu_hog, spawn_lock_holder, CpuHog, LockHolder};

use serde::{Deserialize, Serialize};

/// A named, serializable fault — the unit scenarios arm and disarm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    pub name: String,
    pub kind: FaultKind,
}

/// The perturbation library. Rates and stretches are calibrated against §6
/// of the paper (see docs/MODELING.md §8); every variant is deterministic
/// under the simulator's forked-stream RNG discipline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type")]
pub enum FaultKind {
    /// Interrupt storm on a free IRQ line: NIC-grade ISR plus a receive
    /// softirq per assert.
    IrqStorm { line: u32, rate_hz: f64 },
    /// Bottom-half flood: cheap ISRs raising heavy-tailed softirq boluses of
    /// up to `burst_us` each.
    SoftirqFlood { line: u32, rate_hz: f64, burst_us: u64 },
    /// Device misbehaviour: an interrupt handler stuck polling dead hardware
    /// for `stuck_us` per interrupt.
    StuckIsr { line: u32, rate_hz: u64, stuck_us: u64 },
    /// Lock-holder preemption: a SCHED_FIFO task holding the named global
    /// spinlock (`"net_lock"`, `"dcache_lock"`, `"bkl"`, …) with irqs off
    /// for up to `hold_us`, sleeping `gap_us` between holds. Optional hex
    /// pin mask; floating holders get shield-stripped like any process.
    LockHolder {
        lock: String,
        hold_us: u64,
        gap_us: u64,
        rt_prio: u8,
        #[serde(default)]
        pin: Option<String>,
    },
    /// Rogue real-time hog: `burst_ms` of SCHED_FIFO compute at `rt_prio`,
    /// then `idle_ms` of sleep, forever. Optional hex pin mask.
    CpuHog {
        rt_prio: u8,
        burst_ms: u64,
        idle_ms: u64,
        #[serde(default)]
        pin: Option<String>,
    },
}

impl FaultKind {
    /// IRQ line this fault occupies, if it is device-based.
    pub fn line(&self) -> Option<u32> {
        match self {
            FaultKind::IrqStorm { line, .. }
            | FaultKind::SoftirqFlood { line, .. }
            | FaultKind::StuckIsr { line, .. } => Some(*line),
            FaultKind::LockHolder { .. } | FaultKind::CpuHog { .. } => None,
        }
    }

    /// Whether the fault is realised as rogue tasks (vs a device).
    pub fn is_task_fault(&self) -> bool {
        self.line().is_none()
    }
}

/// IRQ lines reserved for injected devices, clear of the real hardware
/// (RTC=8, RCIM=16, NIC=17, DISK=18, GPU=19).
pub const INJECT_LINE_BASE: u32 = 24;

/// The calibrated roster the `fault_matrix` binary runs (one of each
/// perturbation class; constants anchored in docs/MODELING.md §8).
pub fn matrix_presets() -> Vec<FaultSpec> {
    vec![
        FaultSpec {
            name: "irq_storm".into(),
            kind: FaultKind::IrqStorm { line: INJECT_LINE_BASE, rate_hz: 4_000.0 },
        },
        FaultSpec {
            name: "softirq_flood".into(),
            kind: FaultKind::SoftirqFlood {
                line: INJECT_LINE_BASE + 1,
                rate_hz: 1_000.0,
                burst_us: 3_000,
            },
        },
        FaultSpec {
            name: "stuck_isr".into(),
            kind: FaultKind::StuckIsr {
                line: INJECT_LINE_BASE + 2,
                rate_hz: 150,
                stuck_us: 2_500,
            },
        },
        FaultSpec {
            name: "lock_holder".into(),
            kind: FaultKind::LockHolder {
                lock: "net_lock".into(),
                hold_us: 1_800,
                gap_us: 600,
                rt_prio: 80,
                pin: None,
            },
        },
        FaultSpec {
            name: "cpu_hog".into(),
            kind: FaultKind::CpuHog { rt_prio: 95, burst_ms: 4, idle_ms: 4, pin: None },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_unique_names_and_lines() {
        let presets = matrix_presets();
        let mut names: Vec<&str> = presets.iter().map(|f| f.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), presets.len());
        let mut lines: Vec<u32> = presets.iter().filter_map(|f| f.kind.line()).collect();
        lines.sort();
        lines.dedup();
        assert_eq!(lines.len(), 3, "three device faults on distinct lines");
        assert!(lines.iter().all(|&l| l >= INJECT_LINE_BASE));
    }

    #[test]
    fn fault_specs_roundtrip_through_json() {
        for f in matrix_presets() {
            let json = serde_json::to_string(&f).unwrap();
            let back: FaultSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn task_faults_have_no_line() {
        for f in matrix_presets() {
            match &f.kind {
                FaultKind::LockHolder { .. } | FaultKind::CpuHog { .. } => {
                    assert!(f.kind.is_task_fault())
                }
                _ => assert!(!f.kind.is_task_fault()),
            }
        }
    }
}
