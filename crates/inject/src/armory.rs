//! The runtime fault registry: owns registration (pre-start), arming and
//! disarming of [`FaultSpec`]s against a live simulator.

use crate::tasks::{spawn_cpu_hog, spawn_lock_holder, CpuHog, LockHolder};
use crate::{FaultKind, FaultSpec, StormDevice, CTRL_ARM, CTRL_DISARM};
use simcore::Nanos;
use sp_hw::{CpuMask, IrqLine};
use sp_kernel::{Device, DeviceId, LockId, Pid, SchedPolicy, Simulator};

/// Errors from registering or driving faults.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectError {
    UnknownFault(String),
    DuplicateFault(String),
    /// The fault's IRQ line is already claimed by a real device or another
    /// injector.
    LineInUse(u32),
    UnknownLock(String),
    BadMask(String),
    /// Device faults must be registered before `Simulator::start()`.
    TooLate(String),
    /// A fault's rate, burst or priority that its injector cannot model.
    BadParameter {
        /// The fault's name.
        fault: String,
        /// What is wrong with the number.
        why: String,
    },
}

impl std::fmt::Display for InjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectError::UnknownFault(n) => write!(f, "unknown fault '{n}'"),
            InjectError::DuplicateFault(n) => write!(f, "duplicate fault '{n}'"),
            InjectError::LineInUse(l) => write!(f, "irq line {l} already in use"),
            InjectError::UnknownLock(n) => write!(f, "unknown lock '{n}'"),
            InjectError::BadMask(m) => write!(f, "bad cpu mask '{m}'"),
            InjectError::TooLate(n) => {
                write!(f, "device fault '{n}' must be registered before start()")
            }
            InjectError::BadParameter { fault, why } => write!(f, "fault '{fault}': {why}"),
        }
    }
}

impl std::error::Error for InjectError {}

#[derive(Debug, Clone)]
enum FaultState {
    /// Device registered with the simulator, currently disarmed.
    DeviceIdle(DeviceId),
    /// Device registered and armed.
    DeviceArmed(DeviceId),
    /// Task fault not yet spawned (spawning *is* arming).
    TaskIdle,
    /// Task fault spawned and live.
    TaskArmed(Vec<Pid>),
    /// Task fault demoted to nice 19 (see module docs on disarm semantics).
    TaskDemoted(Vec<Pid>),
}

#[derive(Debug, Clone)]
struct Entry {
    spec: FaultSpec,
    state: FaultState,
}

/// Registry of faults attached to one simulator run.
///
/// Device-based faults ([`FaultKind::IrqStorm`], [`FaultKind::SoftirqFlood`],
/// [`FaultKind::StuckIsr`]) are registered disarmed before `start()` — they
/// cost nothing until armed. Task-based faults spawn on first arm; disarming
/// them demotes the rogue tasks to `SCHED_OTHER nice 19` (a held spinlock
/// cannot be revoked, and the simulator has no task kill, so demotion is the
/// honest model of "the operator renices the runaway process").
#[derive(Debug, Clone, Default)]
pub struct Armory {
    entries: Vec<Entry>,
}

// Forks share one warm armory across worker threads by reference and clone
// it on each worker; pin the bounds so no field can silently serialize the
// fleet.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Armory>()
};

impl Armory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a fault. Device faults are added to the simulator (disarmed)
    /// immediately, so this must run before `Simulator::start()` for them;
    /// task faults merely record the spec.
    pub fn register(&mut self, sim: &mut Simulator, spec: &FaultSpec) -> Result<(), InjectError> {
        if self.entries.iter().any(|e| e.spec.name == spec.name) {
            return Err(InjectError::DuplicateFault(spec.name.clone()));
        }
        check_fault_numbers(spec)?;
        let state = match &spec.kind {
            FaultKind::IrqStorm { line, rate_hz } => FaultState::DeviceIdle(self.add_device(
                sim,
                spec,
                StormDevice::irq_storm(IrqLine(*line), *rate_hz),
            )?),
            FaultKind::SoftirqFlood { line, rate_hz, burst_us } => {
                FaultState::DeviceIdle(self.add_device(
                    sim,
                    spec,
                    StormDevice::softirq_flood(IrqLine(*line), *rate_hz, Nanos::from_us(*burst_us)),
                )?)
            }
            FaultKind::StuckIsr { line, rate_hz, stuck_us } => {
                FaultState::DeviceIdle(self.add_device(
                    sim,
                    spec,
                    StormDevice::stuck_isr(IrqLine(*line), *rate_hz, Nanos::from_us(*stuck_us)),
                )?)
            }
            FaultKind::LockHolder { lock, pin, .. } => {
                LockId::from_name(lock).ok_or_else(|| InjectError::UnknownLock(lock.clone()))?;
                if let Some(p) = pin {
                    parse_mask(p)?;
                }
                FaultState::TaskIdle
            }
            FaultKind::CpuHog { pin, .. } => {
                if let Some(p) = pin {
                    parse_mask(p)?;
                }
                FaultState::TaskIdle
            }
        };
        self.entries.push(Entry { spec: spec.clone(), state });
        Ok(())
    }

    fn add_device(
        &self,
        sim: &mut Simulator,
        spec: &FaultSpec,
        dev: StormDevice,
    ) -> Result<DeviceId, InjectError> {
        if sim.started() {
            return Err(InjectError::TooLate(spec.name.clone()));
        }
        let line = dev.line();
        if sim.device_by_line(line).is_some() {
            return Err(InjectError::LineInUse(line.0));
        }
        Ok(sim.add_device(dev))
    }

    /// Arm a registered fault. Device faults start asserting; task faults
    /// spawn their rogue tasks (or re-promote them if previously demoted).
    pub fn arm(&mut self, sim: &mut Simulator, name: &str) -> Result<(), InjectError> {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.spec.name == name)
            .ok_or_else(|| InjectError::UnknownFault(name.to_string()))?;
        match &mut entry.state {
            FaultState::DeviceIdle(dev) | FaultState::DeviceArmed(dev) => {
                let dev = *dev;
                sim.device_control(dev, CTRL_ARM);
                entry.state = FaultState::DeviceArmed(dev);
            }
            FaultState::TaskIdle => {
                let pids = spawn_task_fault(sim, &entry.spec)?;
                entry.state = FaultState::TaskArmed(pids);
            }
            FaultState::TaskDemoted(pids) => {
                let pids = std::mem::take(pids);
                let prio = task_fault_prio(&entry.spec.kind);
                for &pid in &pids {
                    sim.set_task_policy(pid, SchedPolicy::fifo(prio));
                }
                entry.state = FaultState::TaskArmed(pids);
            }
            FaultState::TaskArmed(_) => {} // idempotent
        }
        Ok(())
    }

    /// Disarm a fault: device faults stop asserting (the at most one
    /// in-flight event retires); task faults are demoted to nice 19.
    pub fn disarm(&mut self, sim: &mut Simulator, name: &str) -> Result<(), InjectError> {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.spec.name == name)
            .ok_or_else(|| InjectError::UnknownFault(name.to_string()))?;
        match &mut entry.state {
            FaultState::DeviceArmed(dev) => {
                let dev = *dev;
                sim.device_control(dev, CTRL_DISARM);
                entry.state = FaultState::DeviceIdle(dev);
            }
            FaultState::TaskArmed(pids) => {
                let pids = std::mem::take(pids);
                for &pid in &pids {
                    sim.set_task_policy(pid, SchedPolicy::nice(19));
                }
                entry.state = FaultState::TaskDemoted(pids);
            }
            // Disarming something not armed is a no-op, like `echo 0 >` twice.
            FaultState::DeviceIdle(_) | FaultState::TaskIdle | FaultState::TaskDemoted(_) => {}
        }
        Ok(())
    }

    /// Pids of a task fault's rogue tasks (empty for device faults).
    pub fn task_pids(&self, name: &str) -> Vec<Pid> {
        match self.entries.iter().find(|e| e.spec.name == name).map(|e| &e.state) {
            Some(FaultState::TaskArmed(p)) | Some(FaultState::TaskDemoted(p)) => p.clone(),
            _ => Vec::new(),
        }
    }

    pub fn is_armed(&self, name: &str) -> bool {
        matches!(
            self.entries.iter().find(|e| e.spec.name == name).map(|e| &e.state),
            Some(FaultState::DeviceArmed(_)) | Some(FaultState::TaskArmed(_))
        )
    }

    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.spec.name.as_str()).collect()
    }
}

fn task_fault_prio(kind: &FaultKind) -> u8 {
    match kind {
        FaultKind::LockHolder { rt_prio, .. } | FaultKind::CpuHog { rt_prio, .. } => *rt_prio,
        _ => unreachable!("not a task fault"),
    }
}

fn parse_mask(s: &str) -> Result<CpuMask, InjectError> {
    s.parse().map_err(|_| InjectError::BadMask(s.to_string()))
}

fn spawn_task_fault(sim: &mut Simulator, spec: &FaultSpec) -> Result<Vec<Pid>, InjectError> {
    match &spec.kind {
        FaultKind::LockHolder { lock, hold_us, gap_us, rt_prio, pin } => {
            let lock =
                LockId::from_name(lock).ok_or_else(|| InjectError::UnknownLock(lock.clone()))?;
            let mut holder = LockHolder::new(lock, *hold_us, *gap_us, *rt_prio);
            if let Some(p) = pin {
                holder = holder.pinned(parse_mask(p)?);
            }
            Ok(vec![spawn_lock_holder(sim, &holder)])
        }
        FaultKind::CpuHog { rt_prio, burst_ms, idle_ms, pin } => {
            let mut hog =
                CpuHog::new(*rt_prio, Nanos::from_ms(*burst_ms), Nanos::from_ms(*idle_ms));
            if let Some(p) = pin {
                hog = hog.pinned(parse_mask(p)?);
            }
            Ok(vec![spawn_cpu_hog(sim, &hog)])
        }
        _ => unreachable!("device faults are armed via device_control"),
    }
}

/// Reject the numbers the injectors assert on: a storm rate whose mean gap
/// is not a positive whole nanosecond, a flood burst no longer than its
/// 1 µs floor, or a rogue task's SCHED_FIFO priority outside 1..=99.
fn check_fault_numbers(spec: &FaultSpec) -> Result<(), InjectError> {
    let why = match spec.kind {
        FaultKind::IrqStorm { rate_hz, .. } | FaultKind::SoftirqFlood { rate_hz, .. }
            if !(rate_hz > 0.0 && rate_hz <= 1e9) =>
        {
            format!("rate {rate_hz} Hz is not in (0, 1e9]")
        }
        FaultKind::SoftirqFlood { burst_us, .. } if burst_us < 2 => {
            format!("burst {burst_us} µs is under 2 µs")
        }
        FaultKind::StuckIsr { rate_hz, .. } if !(1..=1_000_000_000).contains(&rate_hz) => {
            format!("rate {rate_hz} Hz is not in 1..=1e9")
        }
        FaultKind::LockHolder { rt_prio, .. } | FaultKind::CpuHog { rt_prio, .. }
            if !(1..=99).contains(&rt_prio) =>
        {
            format!("rt_prio {rt_prio} is not in 1..=99")
        }
        _ => return Ok(()),
    };
    Err(InjectError::BadParameter { fault: spec.name.clone(), why })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_hw::MachineConfig;
    use sp_kernel::KernelConfig;

    fn sim() -> Simulator {
        Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), 0xA3)
    }

    fn storm(name: &str, line: u32) -> FaultSpec {
        FaultSpec { name: name.into(), kind: FaultKind::IrqStorm { line, rate_hz: 2_000.0 } }
    }

    /// Register `kind` as fault "bad" and expect a `BadParameter` error
    /// rather than a panic in the injector.
    fn assert_rejected(kind: FaultKind) {
        let spec = FaultSpec { name: "bad".into(), kind };
        let err = Armory::new().register(&mut sim(), &spec).unwrap_err();
        assert!(matches!(&err, InjectError::BadParameter { fault, .. } if fault == "bad"), "{err}");
    }

    #[test]
    fn irq_storm_rate_zero_is_rejected() {
        assert_rejected(FaultKind::IrqStorm { line: 24, rate_hz: 0.0 });
    }

    #[test]
    fn irq_storm_rate_above_one_ghz_is_rejected() {
        assert_rejected(FaultKind::IrqStorm { line: 24, rate_hz: 1e12 });
    }

    #[test]
    fn softirq_flood_one_microsecond_burst_is_rejected() {
        assert_rejected(FaultKind::SoftirqFlood { line: 24, rate_hz: 1_000.0, burst_us: 1 });
    }

    #[test]
    fn stuck_isr_rate_zero_is_rejected() {
        assert_rejected(FaultKind::StuckIsr { line: 24, rate_hz: 0, stuck_us: 100 });
    }

    #[test]
    fn rogue_task_priority_zero_is_rejected() {
        assert_rejected(FaultKind::CpuHog { rt_prio: 0, burst_ms: 1, idle_ms: 1, pin: None });
    }

    #[test]
    fn register_arm_disarm_cycle_controls_interrupt_flow() {
        let mut sim = sim();
        let mut armory = Armory::new();
        armory.register(&mut sim, &storm("storm", 24)).unwrap();
        sim.start();

        // Disarmed: no interrupts.
        sim.run_for(Nanos::from_ms(100));
        let dev = sim.device_by_line(IrqLine(24)).unwrap();
        let idle: u64 = sim.irq_counts(dev).iter().sum();
        assert_eq!(idle, 0, "disarmed injector fired {idle} irqs");

        // Armed: storms flow.
        armory.arm(&mut sim, "storm").unwrap();
        assert!(armory.is_armed("storm"));
        sim.run_for(Nanos::from_ms(100));
        let armed: u64 = sim.irq_counts(dev).iter().sum();
        assert!(armed > 100, "armed storm fired only {armed} irqs");

        // Disarmed again: flow stops.
        armory.disarm(&mut sim, "storm").unwrap();
        sim.run_for(Nanos::from_ms(100));
        let after: u64 = sim.irq_counts(dev).iter().sum();
        assert!(after <= armed + 1, "disarmed storm kept firing: {armed} -> {after}");
    }

    #[test]
    fn duplicate_and_unknown_names_are_rejected() {
        let mut sim = sim();
        let mut armory = Armory::new();
        armory.register(&mut sim, &storm("a", 24)).unwrap();
        assert_eq!(
            armory.register(&mut sim, &storm("a", 25)),
            Err(InjectError::DuplicateFault("a".into()))
        );
        assert_eq!(
            armory.register(&mut sim, &storm("b", 24)),
            Err(InjectError::LineInUse(24))
        );
        sim.start();
        assert_eq!(armory.arm(&mut sim, "ghost"), Err(InjectError::UnknownFault("ghost".into())));
        assert_eq!(
            armory.register(&mut sim, &storm("late", 30)),
            Err(InjectError::TooLate("late".into()))
        );
    }

    #[test]
    fn bad_lock_and_mask_names_fail_at_registration() {
        let mut sim = sim();
        let mut armory = Armory::new();
        let bad_lock = FaultSpec {
            name: "lh".into(),
            kind: FaultKind::LockHolder {
                lock: "imaginary_lock".into(),
                hold_us: 100,
                gap_us: 100,
                rt_prio: 80,
                pin: None,
            },
        };
        assert_eq!(
            armory.register(&mut sim, &bad_lock),
            Err(InjectError::UnknownLock("imaginary_lock".into()))
        );
        let bad_pin = FaultSpec {
            name: "hog".into(),
            kind: FaultKind::CpuHog {
                rt_prio: 95,
                burst_ms: 1,
                idle_ms: 1,
                pin: Some("zz".into()),
            },
        };
        assert_eq!(armory.register(&mut sim, &bad_pin), Err(InjectError::BadMask("zz".into())));
    }

    #[test]
    fn task_faults_spawn_on_arm_and_demote_on_disarm() {
        let mut sim = sim();
        let mut armory = Armory::new();
        let hog = FaultSpec {
            name: "hog".into(),
            kind: FaultKind::CpuHog { rt_prio: 95, burst_ms: 2, idle_ms: 2, pin: None },
        };
        armory.register(&mut sim, &hog).unwrap();
        sim.start();
        assert!(armory.task_pids("hog").is_empty(), "not spawned until armed");

        armory.arm(&mut sim, "hog").unwrap();
        let pids = armory.task_pids("hog");
        assert_eq!(pids.len(), 1);
        assert_eq!(sim.task(pids[0]).policy, SchedPolicy::fifo(95));

        armory.disarm(&mut sim, "hog").unwrap();
        assert_eq!(sim.task(pids[0]).policy, SchedPolicy::nice(19));
        assert!(!armory.is_armed("hog"));

        // Re-arm re-promotes the same task rather than spawning another.
        armory.arm(&mut sim, "hog").unwrap();
        assert_eq!(armory.task_pids("hog"), pids);
        assert_eq!(sim.task(pids[0]).policy, SchedPolicy::fifo(95));
    }

    /// A task fault's spawned state travels with a clone: arm a hog (its
    /// rogue task spawns), clone the simulator and the armory together,
    /// then disarm in both. The clone's armory demotes the same pid, and
    /// the two continuations stay bit-identical.
    #[test]
    fn cloned_armory_disarms_the_spawned_task_like_the_original() {
        let mut sim = sim();
        let mut armory = Armory::new();
        let hog = FaultSpec {
            name: "hog".into(),
            kind: FaultKind::CpuHog { rt_prio: 95, burst_ms: 2, idle_ms: 2, pin: None },
        };
        armory.register(&mut sim, &hog).unwrap();
        sim.start();
        armory.arm(&mut sim, "hog").unwrap();
        sim.run_for(Nanos::from_ms(10));
        let pids = armory.task_pids("hog");
        assert_eq!(pids.len(), 1);

        let (mut clone, mut clone_armory) = (sim.clone(), armory.clone());
        assert_eq!(clone_armory.task_pids("hog"), pids);
        for (sim, armory) in [(&mut sim, &mut armory), (&mut clone, &mut clone_armory)] {
            armory.disarm(sim, "hog").unwrap();
            assert!(!armory.is_armed("hog"));
            assert_eq!(sim.task(pids[0]).policy, SchedPolicy::nice(19));
            sim.run_for(Nanos::from_ms(20));
        }
        assert_eq!(clone.now(), sim.now());
        assert_eq!(clone.events_dispatched(), sim.events_dispatched());
        assert_eq!(clone.task(pids[0]).cpu_time, sim.task(pids[0]).cpu_time);
        assert_eq!(clone.obs.cpu, sim.obs.cpu);
    }
}
