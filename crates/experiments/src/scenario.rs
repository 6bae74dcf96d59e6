//! Declarative scenarios: describe a machine, kernel, devices, workloads,
//! measured tasks and a shield in data (JSON via serde), then run it.
//!
//! This is the configuration surface a downstream user scripts experiments
//! with — the `run_scenario` binary in `sp-bench` takes a path to a spec.

use serde::{Deserialize, Serialize};
use simcore::{DurationDist, Instant, Nanos};
use sp_core::{ProcShield, ShieldFile, ShieldPlan};
use sp_hw::{CpuId, CpuMask, MachineConfig};
use sp_inject::{Armory, FaultKind, FaultSpec};
use sp_kernel::devices::{DiskDevice, GpuDevice, NicDevice, OnOffPoisson, RcimDevice, RtcDevice};
use sp_kernel::{
    DeviceId, KernelConfig, KernelVariant, Op, Pid, Program, SchedPolicy, Simulator, TaskSpec,
    WaitApi,
};
use sp_metrics::{JitterSeries, JitterSummary, LatencyHistogram, LatencySummary};
use sp_workloads::StressDevices;
use std::collections::HashMap;

/// A complete experiment description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    pub name: String,
    #[serde(default = "default_seed")]
    pub seed: u64,
    pub machine: MachineConfig,
    /// Kernel build; `kernel_overrides` may replace the full config.
    pub kernel: KernelVariant,
    #[serde(default)]
    pub kernel_overrides: Option<KernelConfig>,
    #[serde(default)]
    pub devices: Vec<DeviceSpec>,
    #[serde(default)]
    pub workloads: Vec<WorkloadSpec>,
    pub measured: Vec<MeasuredSpec>,
    #[serde(default)]
    pub shield: Option<ShieldSpec>,
    /// Fault injectors available to this run (see [`sp_inject`]). Device
    /// faults are registered disarmed before start; task faults spawn when a
    /// timeline action arms them.
    #[serde(default)]
    pub faults: Vec<FaultSpec>,
    /// Mid-run orchestration: timed actions applied at `at_secs` into the
    /// run, in time order (ties in listed order). Timelines are inherently
    /// single-simulation — reconfiguration is ordered against one simulated
    /// clock — so a scenario always runs as one unsharded simulation.
    #[serde(default)]
    pub timeline: Vec<TimedAction>,
    /// Optional recovery-transient measurement over one measured task.
    #[serde(default)]
    pub transient: Option<TransientSpec>,
    /// Simulated run length in seconds: positive, finite, and within the
    /// nanosecond clock's range.
    pub run_secs: f64,
}

fn default_seed() -> u64 {
    0x5CEA_A210
}

/// A named device instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceSpec {
    pub name: String,
    pub kind: DeviceKind,
    /// `/proc/irq/<n>/smp_affinity` for this device's line (hex mask),
    /// applied at start; default: all online CPUs.
    #[serde(default)]
    pub irq_affinity: Option<String>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "type")]
pub enum DeviceKind {
    /// `/dev/rtc` periodic interrupts at `hz`, a power of two in 2..=8192.
    Rtc { hz: u32 },
    /// The RCIM periodic timer, every `period_us` (at least 10 µs). `pcie`
    /// fits the modern PCIe-attached card, whose acks take tens of
    /// nanoseconds.
    Rcim {
        period_us: u64,
        #[serde(default)]
        pcie: bool,
    },
    /// The NIC, with optional autonomous RX traffic (boxed: three
    /// distributions outweigh every other variant).
    Nic { external: Option<Box<OnOffPoisson>> },
    Disk,
    GpuX11perf,
}

/// Background workload component, referencing devices by name.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "type")]
pub enum WorkloadSpec {
    StressKernel { nic: String, disk: String },
    ScpReceiver { disk: String },
    Disknoise { disk: String },
    X11perfDriver,
}

/// A measured real-time task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasuredSpec {
    pub name: String,
    /// 1..=99 SCHED_FIFO priority.
    pub rt_prio: u8,
    pub kind: MeasuredKind,
    /// Pin to these CPUs (hex mask string, e.g. "2"); default: float.
    #[serde(default)]
    pub pin: Option<String>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "type")]
pub enum MeasuredKind {
    /// Block on an `Rtc` or `Rcim` device's interrupt through an API;
    /// record latencies.
    IrqWait { device: String, api: WaitApiSpec },
    /// Determinism loop; record per-iteration wall times.
    Loop { work_ms: u64 },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "type")]
pub enum WaitApiSpec {
    Read,
    Ioctl { driver_bkl_free: bool },
}

/// Shield configuration applied after start.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShieldSpec {
    /// Hex mask of CPUs to shield, e.g. "2".
    pub cpus: String,
    #[serde(default)]
    pub keep_local_timer: bool,
    /// Also fence housekeeping-kthread work off the shielded CPUs
    /// (`/proc/shield/kthreads`); a no-op on kernels without `kthread_iso`.
    #[serde(default)]
    pub fence_kthreads: bool,
    /// Measured-task names to bind into the shield.
    #[serde(default)]
    pub bind_tasks: Vec<String>,
    /// Device names whose IRQs to bind into the shield.
    #[serde(default)]
    pub bind_irqs: Vec<String>,
}

/// One timed orchestration step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimedAction {
    /// Seconds into the run (0 ≤ `at_secs` ≤ `run_secs`).
    pub at_secs: f64,
    pub action: ActionKind,
}

/// What a timeline step does. Shield reconfiguration goes through the same
/// `/proc/shield` emulation an operator would script (§3 of the paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "type")]
pub enum ActionKind {
    /// Arm a fault from `faults` by name.
    Arm { fault: String },
    /// Disarm a fault (device faults stop asserting; task faults demote to
    /// nice 19 — a held lock cannot be revoked).
    Disarm { fault: String },
    /// `echo mask > /proc/shield/{procs,irqs,ltmrs}`.
    ProcShieldWrite { path: String, mask: String },
    /// `shield -a mask`: write all three files at once.
    ShieldAll { mask: String },
    /// `shield -a 0`: drop every shield.
    UnshieldAll,
    /// `echo mask > /proc/irq/<line>/smp_affinity` for a named device.
    SetIrqAffinity { device: String, mask: String },
    /// `sched_setaffinity` on a measured task.
    SetTaskAffinity { task: String, mask: String },
}

/// Measure how long a measured task takes to get back within a latency bound
/// after a reconfiguration at `from_secs` (e.g. a mid-run re-shield).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransientSpec {
    /// Name of a latency-measured (`IrqWait`) task.
    pub task: String,
    /// The bound the task must recover to, in microseconds.
    pub bound_us: u64,
    /// Run time of the reconfiguration whose transient we measure.
    pub from_secs: f64,
    /// Consecutive in-bound samples that count as "recovered".
    #[serde(default = "default_settle")]
    pub settle: usize,
}

fn default_settle() -> usize {
    50
}

/// Outcome of a [`TransientSpec`] measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    pub task: String,
    pub bound_us: u64,
    pub from_secs: f64,
    /// Seconds after `from_secs` until `settle` consecutive in-bound samples
    /// began; `None` means the task never recovered within the run.
    pub recovery_secs: Option<f64>,
    /// Worst latency (µs) from the recovery point to the end of the run.
    pub worst_after_us: Option<f64>,
    /// Samples over the bound before `from_secs` — evidence the fault was
    /// actually biting before the reconfiguration.
    pub out_of_bound_before: u64,
}

/// Per-measured-task outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum MeasuredResult {
    Latency { summary: LatencySummary, histogram: LatencyHistogram },
    Jitter { summary: JitterSummary },
}

/// The scenario's output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioReport {
    pub name: String,
    pub results: HashMap<String, MeasuredResult>,
    /// Interrupts handled per CPU.
    pub irqs_per_cpu: Vec<u64>,
    /// Present when the spec requested a transient measurement.
    #[serde(default)]
    pub recovery: Option<RecoveryReport>,
}

/// Errors building or running a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    UnknownDevice(String),
    UnknownTask(String),
    UnknownFault(String),
    BadMask(String),
    /// A mask names CPUs the machine doesn't have; `what` says whose.
    OfflineCpus { what: String, mask: String },
    /// Not a `/proc/shield/{procs,irqs,ltmrs}` path.
    BadPath(String),
    /// A timeline/transient time is outside `[0, run_secs]` or not finite,
    /// or `run_secs` itself is not a positive length the clock can hold.
    BadTime(String),
    DuplicateName(String),
    /// A measured task's SCHED_FIFO priority is outside 1..=99.
    BadPriority { task: String, rt_prio: u8 },
    /// A device's parameters are outside what its model accepts.
    BadDevice { device: String, why: String },
    /// A measured task waits on a device that has no interrupt waiters
    /// (only `Rtc` and `Rcim` devices have them).
    NotWaitable { task: String, device: String },
    Kernel(String),
    /// Fault registration or arming failed.
    Inject(String),
    Empty(&'static str),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::UnknownDevice(n) => write!(f, "unknown device '{n}'"),
            ScenarioError::UnknownTask(n) => write!(f, "unknown measured task '{n}'"),
            ScenarioError::UnknownFault(n) => write!(f, "unknown fault '{n}'"),
            ScenarioError::BadMask(m) => write!(f, "bad cpu mask '{m}'"),
            ScenarioError::OfflineCpus { what, mask } => {
                write!(f, "{what}: mask '{mask}' names offline CPUs")
            }
            ScenarioError::BadPath(p) => write!(f, "'{p}' is not a /proc/shield file"),
            ScenarioError::BadTime(t) => write!(f, "time {t} outside the run"),
            ScenarioError::DuplicateName(n) => write!(f, "duplicate name '{n}'"),
            ScenarioError::BadPriority { task, rt_prio } => {
                write!(f, "measured task '{task}': rt_prio {rt_prio} is not in 1..=99")
            }
            ScenarioError::BadDevice { device, why } => write!(f, "device '{device}': {why}"),
            ScenarioError::NotWaitable { task, device } => write!(
                f,
                "measured task '{task}' waits on device '{device}', which has no interrupt \
                 waiters (only Rtc and Rcim devices do)"
            ),
            ScenarioError::Kernel(e) => write!(f, "{e}"),
            ScenarioError::Inject(e) => write!(f, "{e}"),
            ScenarioError::Empty(what) => write!(f, "scenario has no {what}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn parse_mask(s: &str) -> Result<CpuMask, ScenarioError> {
    s.parse().map_err(|_| ScenarioError::BadMask(s.to_string()))
}

/// Static spec validation, run before any simulation is built. Catches what
/// used to surface as confusing mid-run errors or panics inside the
/// simulator: an invalid machine or kernel config, device parameters the
/// models reject, a measured task's priority outside 1..=99 or wait on a
/// device that has no interrupt waiters, affinity masks
/// naming offline CPUs, dangling fault/device/task names in the timeline,
/// times outside the run, bad `/proc/shield` paths.
pub fn validate(spec: &ScenarioSpec) -> Result<(), ScenarioError> {
    if spec.measured.is_empty() {
        return Err(ScenarioError::Empty("measured tasks"));
    }
    spec.machine.validate().map_err(ScenarioError::Kernel)?;
    if let Some(kernel) = &spec.kernel_overrides {
        kernel.validate().map_err(ScenarioError::Kernel)?;
    }
    let online = spec.machine.online_mask();
    let check_online = |what: String, s: &str| -> Result<CpuMask, ScenarioError> {
        let mask = parse_mask(s)?;
        if !(mask - online).is_empty() {
            return Err(ScenarioError::OfflineCpus { what, mask: s.to_string() });
        }
        Ok(mask)
    };
    // NaN fails both comparisons; the upper bound keeps `run_secs` in the
    // u64 nanosecond clock.
    if !(spec.run_secs > 0.0 && spec.run_secs * 1e9 < u64::MAX as f64) {
        return Err(ScenarioError::BadTime(format!("run_secs = {}", spec.run_secs)));
    }
    let check_time = |t: f64| -> Result<(), ScenarioError> {
        if !t.is_finite() || t < 0.0 || t > spec.run_secs {
            return Err(ScenarioError::BadTime(format!("{t}")));
        }
        Ok(())
    };

    for m in &spec.measured {
        if !(1..=99).contains(&m.rt_prio) {
            return Err(ScenarioError::BadPriority { task: m.name.clone(), rt_prio: m.rt_prio });
        }
        if let Some(pin) = &m.pin {
            let mask = check_online(format!("measured task '{}'", m.name), pin)?;
            if mask.is_empty() {
                return Err(ScenarioError::BadMask(pin.clone()));
            }
        }
        if let MeasuredKind::IrqWait { device, .. } = &m.kind {
            // An unknown name is `build`'s `UnknownDevice`.
            let kind = spec.devices.iter().find(|d| d.name == *device).map(|d| &d.kind);
            if !matches!(kind, None | Some(DeviceKind::Rtc { .. } | DeviceKind::Rcim { .. })) {
                let (task, device) = (m.name.clone(), device.clone());
                return Err(ScenarioError::NotWaitable { task, device });
            }
        }
    }
    for d in &spec.devices {
        let why = match &d.kind {
            DeviceKind::Rtc { hz } if !(hz.is_power_of_two() && (2..=8192).contains(hz)) => {
                Some(format!("RTC rate {hz} Hz is not a power of two in 2..=8192"))
            }
            DeviceKind::Rcim { period_us, .. } if *period_us < 10 => {
                Some(format!("RCIM period {period_us} µs is under 10 µs"))
            }
            DeviceKind::Nic { external: Some(traffic) } => {
                traffic.validate().err().map(|e| format!("NIC traffic {e}"))
            }
            _ => None,
        };
        if let Some(why) = why {
            return Err(ScenarioError::BadDevice { device: d.name.clone(), why });
        }
        if let Some(aff) = &d.irq_affinity {
            let mask = check_online(format!("device '{}' irq affinity", d.name), aff)?;
            if mask.is_empty() {
                return Err(ScenarioError::BadMask(aff.clone()));
            }
        }
    }
    if let Some(sh) = &spec.shield {
        check_online("shield".into(), &sh.cpus)?;
    }
    let mut fault_names: Vec<&str> = Vec::new();
    for f in &spec.faults {
        if fault_names.contains(&f.name.as_str()) {
            return Err(ScenarioError::DuplicateName(f.name.clone()));
        }
        fault_names.push(&f.name);
        let pin = match &f.kind {
            FaultKind::LockHolder { pin, .. } | FaultKind::CpuHog { pin, .. } => pin.as_ref(),
            _ => None,
        };
        if let Some(p) = pin {
            let mask = check_online(format!("fault '{}'", f.name), p)?;
            if mask.is_empty() {
                return Err(ScenarioError::BadMask(p.clone()));
            }
        }
    }
    for ta in &spec.timeline {
        check_time(ta.at_secs)?;
        match &ta.action {
            ActionKind::Arm { fault } | ActionKind::Disarm { fault } => {
                if !fault_names.contains(&fault.as_str()) {
                    return Err(ScenarioError::UnknownFault(fault.clone()));
                }
            }
            ActionKind::ProcShieldWrite { path, mask } => {
                if ShieldFile::from_path(path).is_none() {
                    return Err(ScenarioError::BadPath(path.clone()));
                }
                check_online(format!("shield write '{path}'"), mask)?;
            }
            ActionKind::ShieldAll { mask } => {
                check_online("shield write".into(), mask)?;
            }
            ActionKind::UnshieldAll => {}
            ActionKind::SetIrqAffinity { device, mask } => {
                if !spec.devices.iter().any(|d| d.name == *device) {
                    return Err(ScenarioError::UnknownDevice(device.clone()));
                }
                let m = check_online(format!("irq affinity of '{device}'"), mask)?;
                if m.is_empty() {
                    return Err(ScenarioError::BadMask(mask.clone()));
                }
            }
            ActionKind::SetTaskAffinity { task, mask } => {
                if !spec.measured.iter().any(|t| t.name == *task) {
                    return Err(ScenarioError::UnknownTask(task.clone()));
                }
                let m = check_online(format!("affinity of '{task}'"), mask)?;
                if m.is_empty() {
                    return Err(ScenarioError::BadMask(mask.clone()));
                }
            }
        }
    }
    if let Some(t) = &spec.transient {
        check_time(t.from_secs)?;
        let found = spec.measured.iter().find(|m| m.name == t.task);
        match found {
            Some(m) if matches!(m.kind, MeasuredKind::IrqWait { .. }) => {}
            _ => return Err(ScenarioError::UnknownTask(t.task.clone())),
        }
    }
    Ok(())
}

/// A scenario's simulator, assembled, started and shielded: what
/// [`ScenarioSpec::build`] returns.
pub struct Built {
    pub sim: Simulator,
    /// The spec's fault injectors, registered and disarmed.
    pub armory: Armory,
    /// Each device's id, by its spec name.
    pub devices: HashMap<String, DeviceId>,
    /// Each measured task's pid, by its spec name.
    pub tasks: HashMap<String, Pid>,
}

impl ScenarioSpec {
    /// Validate the spec and assemble it on `seed` (the spec's own `seed` is
    /// not read): the simulator, its devices, the background workloads, the
    /// faults (registered disarmed), the measured tasks (watched); then
    /// start it, apply each device's IRQ affinity and the shield. Every
    /// measured simulation in this crate except the autopilot's request
    /// plant is assembled here. Two builds of one spec on one seed are
    /// interchangeable, the property warm-checkpoint forking relies on.
    pub fn build(&self, seed: u64) -> Result<Built, ScenarioError> {
        validate(self)?;
        let kernel =
            self.kernel_overrides.clone().unwrap_or_else(|| KernelConfig::new(self.kernel));
        let mut sim = Simulator::new(self.machine.clone(), kernel, seed);

        let mut devices: HashMap<String, DeviceId> = HashMap::new();
        for d in &self.devices {
            let id = match &d.kind {
                DeviceKind::Rtc { hz } => sim.add_device(RtcDevice::new(*hz)),
                DeviceKind::Rcim { period_us, pcie: false } => {
                    sim.add_device(RcimDevice::new(Nanos::from_us(*period_us)))
                }
                DeviceKind::Rcim { period_us, pcie: true } => {
                    sim.add_device(RcimDevice::modern(Nanos::from_us(*period_us)))
                }
                DeviceKind::Nic { external } => {
                    sim.add_device(NicDevice::new(external.as_deref().cloned()))
                }
                DeviceKind::Disk => sim.add_device(DiskDevice::new()),
                DeviceKind::GpuX11perf => sim.add_device(GpuDevice::x11perf()),
            };
            if devices.insert(d.name.clone(), id).is_some() {
                return Err(ScenarioError::DuplicateName(d.name.clone()));
            }
        }
        let lookup = |name: &str| {
            devices.get(name).copied().ok_or_else(|| ScenarioError::UnknownDevice(name.to_string()))
        };

        for w in &self.workloads {
            match w {
                WorkloadSpec::StressKernel { nic, disk } => {
                    let devs = StressDevices { nic: lookup(nic)?, disk: lookup(disk)? };
                    sp_workloads::stress_kernel(&mut sim, devs);
                }
                WorkloadSpec::ScpReceiver { disk } => {
                    sp_workloads::scp_receiver(&mut sim, lookup(disk)?);
                }
                WorkloadSpec::Disknoise { disk } => {
                    sp_workloads::disknoise(&mut sim, lookup(disk)?);
                }
                WorkloadSpec::X11perfDriver => {
                    sp_workloads::x11perf_driver(&mut sim);
                }
            }
        }

        // Device injectors register (disarmed) before start; task faults
        // wait for their arming action. A disarmed injector schedules no
        // events, so it costs the hot loop nothing.
        let mut armory = Armory::new();
        for f in &self.faults {
            armory.register(&mut sim, f).map_err(|e| ScenarioError::Inject(e.to_string()))?;
        }

        let mut tasks: HashMap<String, Pid> = HashMap::new();
        for m in &self.measured {
            let program = match &m.kind {
                MeasuredKind::IrqWait { device, api } => {
                    let api = match api {
                        WaitApiSpec::Read => WaitApi::ReadDevice,
                        WaitApiSpec::Ioctl { driver_bkl_free } => {
                            WaitApi::IoctlWait { driver_bkl_free: *driver_bkl_free }
                        }
                    };
                    Program::forever(vec![Op::WaitIrq { device: lookup(device)?, api }])
                }
                MeasuredKind::Loop { work_ms } => Program::forever(vec![
                    Op::MarkLap,
                    Op::Compute(DurationDist::constant(Nanos::from_ms(*work_ms))),
                ]),
            };
            let mut task =
                TaskSpec::new(m.name.clone(), SchedPolicy::fifo(m.rt_prio), program).mlockall();
            if let Some(pin) = &m.pin {
                task = task.pinned(parse_mask(pin)?);
            }
            let pid = sim.spawn(task);
            match m.kind {
                MeasuredKind::IrqWait { .. } => {
                    sim.watch_latency(pid);
                    // The transient computation needs each sample's timestamp.
                    if self.transient.as_ref().is_some_and(|t| t.task == m.name) {
                        sim.watch_latency_times(pid);
                    }
                }
                MeasuredKind::Loop { .. } => sim.watch_laps(pid),
            }
            if tasks.insert(m.name.clone(), pid).is_some() {
                return Err(ScenarioError::DuplicateName(m.name.clone()));
            }
        }

        sim.start();

        // Per-device IRQ affinity (before the shield plan, which may re-bind).
        for d in &self.devices {
            if let Some(aff) = &d.irq_affinity {
                sim.set_irq_affinity(devices[&d.name], parse_mask(aff)?)
                    .map_err(ScenarioError::Kernel)?;
            }
        }

        if let Some(sh) = &self.shield {
            let mut plan = ShieldPlan::full(parse_mask(&sh.cpus)?);
            if sh.keep_local_timer {
                plan = plan.keep_local_timer();
            }
            if sh.fence_kthreads {
                plan = plan.fence_kthreads();
            }
            for name in &sh.bind_tasks {
                let pid = tasks.get(name).ok_or_else(|| ScenarioError::UnknownTask(name.clone()))?;
                plan = plan.bind_task(*pid);
            }
            for name in &sh.bind_irqs {
                plan = plan.bind_irq(lookup(name)?);
            }
            plan.apply(&mut sim).map_err(|e| ScenarioError::Kernel(e.to_string()))?;
        }
        Ok(Built { sim, armory, devices, tasks })
    }
}

/// Build the scenario on its seed and run it to completion.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioReport, ScenarioError> {
    let Built { mut sim, mut armory, devices, tasks } = spec.build(spec.seed)?;

    // Run, pausing at each timeline action (time order; ties in listed
    // order via stable sort).
    let t0 = sim.now();
    let t_end = t0 + Nanos::from_secs_f64(spec.run_secs);
    let mut actions: Vec<&TimedAction> = spec.timeline.iter().collect();
    actions.sort_by(|a, b| a.at_secs.partial_cmp(&b.at_secs).expect("validated finite"));
    for ta in actions {
        sim.run_until(t0 + Nanos::from_secs_f64(ta.at_secs));
        apply_action(&mut sim, &mut armory, &devices, &tasks, &ta.action)?;
    }
    sim.run_until(t_end);

    // Collect.
    let mut results = HashMap::new();
    for m in &spec.measured {
        let pid = tasks[&m.name];
        let result = match m.kind {
            MeasuredKind::IrqWait { .. } => {
                let h: LatencyHistogram = sim.obs.latencies(pid).iter().copied().collect();
                MeasuredResult::Latency { summary: LatencySummary::from_histogram(&h), histogram: h }
            }
            MeasuredKind::Loop { .. } => {
                let mut series = JitterSeries::new();
                for d in sim.obs.lap_durations(pid) {
                    series.record(d);
                }
                MeasuredResult::Jitter { summary: series.summary() }
            }
        };
        results.insert(m.name.clone(), result);
    }
    let recovery = spec.transient.as_ref().map(|t| {
        let pid = tasks[&t.task];
        let mut tracker = RecoveryTracker::new(t.clone(), t0, 0);
        tracker.fold(sim.obs.latencies(pid), sim.obs.latency_times(pid));
        tracker.report()
    });
    Ok(ScenarioReport {
        name: spec.name.clone(),
        results,
        irqs_per_cpu: sim.obs.cpu.iter().map(|c| c.irqs).collect(),
        recovery,
    })
}

fn apply_action(
    sim: &mut Simulator,
    armory: &mut Armory,
    devices: &HashMap<String, DeviceId>,
    tasks: &HashMap<String, Pid>,
    action: &ActionKind,
) -> Result<(), ScenarioError> {
    let inject = |e: sp_inject::InjectError| ScenarioError::Inject(e.to_string());
    match action {
        ActionKind::Arm { fault } => armory.arm(sim, fault).map_err(inject),
        ActionKind::Disarm { fault } => armory.disarm(sim, fault).map_err(inject),
        ActionKind::ProcShieldWrite { path, mask } => {
            let file =
                ShieldFile::from_path(path).ok_or_else(|| ScenarioError::BadPath(path.clone()))?;
            ProcShield::write(sim, file, mask).map_err(|e| ScenarioError::Kernel(e.to_string()))
        }
        ActionKind::ShieldAll { mask } => ProcShield::write_all(sim, parse_mask(mask)?)
            .map_err(|e| ScenarioError::Kernel(e.to_string())),
        ActionKind::UnshieldAll => ProcShield::write_all(sim, CpuMask::EMPTY)
            .map_err(|e| ScenarioError::Kernel(e.to_string())),
        ActionKind::SetIrqAffinity { device, mask } => {
            let dev = devices
                .get(device)
                .copied()
                .ok_or_else(|| ScenarioError::UnknownDevice(device.clone()))?;
            sim.set_irq_affinity(dev, parse_mask(mask)?).map_err(ScenarioError::Kernel)
        }
        ActionKind::SetTaskAffinity { task, mask } => {
            let pid = tasks.get(task).ok_or_else(|| ScenarioError::UnknownTask(task.clone()))?;
            sim.set_task_affinity(*pid, parse_mask(mask)?).map_err(ScenarioError::Kernel)
        }
    }
}

/// The transient-recovery verdict as a streaming fold: find the first run
/// of `settle` consecutive in-bound samples at or after `from_secs` and
/// report how long after the reconfiguration it began. Fed a task's
/// samples and completion instants in record order, in any chunking, it
/// gives the verdict of the whole log. Scripted timelines fold their log
/// once at the end; the autopilot experiments fold each control window as
/// it closes, grading every controller reconfiguration with the same
/// verdict a scripted timeline gets.
#[derive(Debug, Clone)]
pub(crate) struct RecoveryTracker {
    spec: TransientSpec,
    bound: Nanos,
    from: Instant,
    settle: usize,
    out_of_bound_before: u64,
    /// Length of the current in-bound run at or after `from`.
    run: usize,
    /// Completion instant of the current run's first sample.
    run_start: Instant,
    /// Worst latency since `run_start`.
    worst: Nanos,
    /// The run reached `settle` samples; `run_start` is the recovery point.
    recovered: bool,
}

impl RecoveryTracker {
    /// A tracker for `spec`, whose `from_secs` counts from `t0`.
    /// `out_of_bound_before` counts over-bound samples already folded
    /// elsewhere, all of which completed before the reconfiguration.
    pub(crate) fn new(spec: TransientSpec, t0: Instant, out_of_bound_before: u64) -> Self {
        RecoveryTracker {
            bound: Nanos::from_us(spec.bound_us),
            from: t0 + Nanos::from_secs_f64(spec.from_secs),
            settle: spec.settle.max(1),
            spec,
            out_of_bound_before,
            run: 0,
            run_start: Instant::ZERO,
            worst: Nanos::ZERO,
            recovered: false,
        }
    }

    /// Fold the next samples (latencies and their index-aligned completion
    /// instants, non-decreasing).
    pub(crate) fn fold(&mut self, lats: &[Nanos], times: &[Instant]) {
        debug_assert_eq!(lats.len(), times.len());
        for (&lat, &t) in lats.iter().zip(times) {
            if t < self.from {
                self.out_of_bound_before += u64::from(lat > self.bound);
            } else if self.recovered {
                self.worst = self.worst.max(lat);
            } else if lat <= self.bound {
                if self.run == 0 {
                    self.run_start = t;
                    self.worst = Nanos::ZERO;
                }
                self.worst = self.worst.max(lat);
                self.run += 1;
                self.recovered = self.run == self.settle;
            } else {
                self.run = 0;
            }
        }
    }

    /// The verdict over everything folded so far.
    pub(crate) fn report(self) -> RecoveryReport {
        RecoveryReport {
            recovery_secs: self.recovered.then(|| (self.run_start - self.from).as_secs_f64()),
            worst_after_us: self.recovered.then(|| self.worst.as_us_f64()),
            out_of_bound_before: self.out_of_bound_before,
            task: self.spec.task,
            bound_us: self.spec.bound_us,
            from_secs: self.spec.from_secs,
        }
    }
}

fn device(name: &str, kind: DeviceKind) -> DeviceSpec {
    DeviceSpec { name: name.into(), kind, irq_affinity: None }
}

/// One testbed of the paper: `task` (SCHED_FIFO 90, mlocked) on the RedHawk
/// kernel, unpinned and unshielded, with no faults or timeline, for one
/// simulated second.
fn testbed(
    name: &str,
    machine: MachineConfig,
    devices: Vec<DeviceSpec>,
    workloads: Vec<WorkloadSpec>,
    task: &str,
    kind: MeasuredKind,
) -> ScenarioSpec {
    ScenarioSpec {
        name: name.into(),
        seed: default_seed(),
        machine,
        kernel: KernelVariant::RedHawk,
        kernel_overrides: None,
        devices,
        workloads,
        measured: vec![MeasuredSpec { name: task.into(), rt_prio: 90, kind, pin: None }],
        shield: None,
        faults: vec![],
        timeline: vec![],
        transient: None,
        run_secs: 1.0,
    }
}

fn stress_kernel() -> WorkloadSpec {
    WorkloadSpec::StressKernel { nic: "eth0".into(), disk: "sda".into() }
}

impl ScenarioSpec {
    /// The §6.1 testbed (Figures 5 and 6): the dual 933 MHz P3 under
    /// stress-kernel, with `task` blocking in `read(/dev/rtc)` on the RTC's
    /// periodic interrupt at `hz`. There is no generated Ethernet load, but
    /// the box stays on a live network segment handling broadcast traffic.
    pub fn rtc_testbed(task: &str, hz: u32) -> Self {
        let broadcast = OnOffPoisson::continuous(Nanos::from_ms(20));
        testbed(
            "rtc-testbed",
            MachineConfig::dual_xeon_p3(),
            vec![
                device("rtc", DeviceKind::Rtc { hz }),
                device("eth0", DeviceKind::Nic { external: Some(Box::new(broadcast)) }),
                device("sda", DeviceKind::Disk),
            ],
            vec![stress_kernel()],
            task,
            MeasuredKind::IrqWait { device: "rtc".into(), api: WaitApiSpec::Read },
        )
    }

    /// The §6.3 testbed (Figure 7): the dual 2 GHz P4 under stress-kernel,
    /// X11perf on the console and a ttcp stream over real 10BaseT Ethernet,
    /// with `task` blocking in the RCIM driver's BKL-free `ioctl()` on the
    /// card's periodic timer every `period_us`.
    pub fn rcim_testbed(task: &str, period_us: u64) -> Self {
        let ttcp = sp_workloads::ttcp_ethernet_profile();
        testbed(
            "rcim-testbed",
            MachineConfig::dual_xeon_p4_2ghz(),
            vec![
                device("rcim", DeviceKind::Rcim { period_us, pcie: false }),
                device("eth0", DeviceKind::Nic { external: Some(Box::new(ttcp)) }),
                device("sda", DeviceKind::Disk),
                device("gpu", DeviceKind::GpuX11perf),
            ],
            vec![stress_kernel(), WorkloadSpec::X11perfDriver],
            task,
            MeasuredKind::IrqWait {
                device: "rcim".into(),
                api: WaitApiSpec::Ioctl { driver_bkl_free: true },
            },
        )
    }

    /// The §5.1 testbed (Figures 1–4): the dual 1.4 GHz P4 (hyperthreading
    /// as given) receiving a looping `scp` while `disknoise` runs, with
    /// `task` timing a `work_ms` CPU-bound loop.
    pub fn scp_testbed(hyperthreading: bool, task: &str, work_ms: u64) -> Self {
        let scp = sp_workloads::scp_nic_profile();
        testbed(
            "scp-testbed",
            MachineConfig::dual_xeon_p4(hyperthreading),
            vec![
                device("eth0", DeviceKind::Nic { external: Some(Box::new(scp)) }),
                device("sda", DeviceKind::Disk),
            ],
            vec![
                WorkloadSpec::ScpReceiver { disk: "sda".into() },
                WorkloadSpec::Disknoise { disk: "sda".into() },
            ],
            task,
            MeasuredKind::Loop { work_ms },
        )
    }

    /// Pin every measured task to `cpu`. With `shield`, also shield `cpu`
    /// fully and bind the tasks and the interrupts they wait on into it;
    /// without, route those interrupts to `cpu` at start.
    pub fn on_cpu(mut self, cpu: CpuId, shield: bool) -> Self {
        let mask = CpuMask::single(cpu).to_string();
        let irqs: Vec<String> = self
            .measured
            .iter()
            .filter_map(|m| match &m.kind {
                MeasuredKind::IrqWait { device, .. } => Some(device.clone()),
                MeasuredKind::Loop { .. } => None,
            })
            .collect();
        for m in &mut self.measured {
            m.pin = Some(mask.clone());
        }
        if shield {
            self.shield = Some(ShieldSpec {
                cpus: mask,
                keep_local_timer: false,
                fence_kthreads: false,
                bind_tasks: self.measured.iter().map(|m| m.name.clone()).collect(),
                bind_irqs: irqs,
            });
        } else {
            for d in self.devices.iter_mut().filter(|d| irqs.contains(&d.name)) {
                d.irq_affinity = Some(mask.clone());
            }
        }
        self
    }
}

/// A ready-made spec reproducing the Figure 7 setup — also the reference
/// example for the JSON schema (`examples/scenarios/fig7.json`).
pub fn fig7_scenario() -> ScenarioSpec {
    ScenarioSpec {
        name: "fig7-rcim-shielded".into(),
        seed: 7,
        run_secs: 10.0,
        ..ScenarioSpec::rcim_testbed("rcim-response", 1_000).on_cpu(CpuId(1), true)
    }
}

/// An unshielded realfeel-style run whose RTC interrupt and measured task
/// are bound to CPU 1 while an IRQ storm arms mid-run and disarms later —
/// the reference example for fault + timeline JSON
/// (`examples/scenarios/irq_storm.json`).
pub fn irq_storm_scenario() -> ScenarioSpec {
    ScenarioSpec {
        name: "irq-storm-unshielded".into(),
        seed: 0x57a0_1234,
        faults: vec![FaultSpec {
            name: "storm".into(),
            kind: FaultKind::IrqStorm { line: sp_inject::INJECT_LINE_BASE, rate_hz: 8_000.0 },
        }],
        timeline: vec![
            TimedAction { at_secs: 0.5, action: ActionKind::Arm { fault: "storm".into() } },
            TimedAction { at_secs: 2.0, action: ActionKind::Disarm { fault: "storm".into() } },
        ],
        run_secs: 2.5,
        ..ScenarioSpec::rtc_testbed("realfeel", 2048).on_cpu(CpuId(1), false)
    }
}

/// The reshield-transient experiment: an RCIM waiter starts *unshielded*
/// under an IRQ storm, then at t=1s an operator scripts the §3 runbook —
/// three `/proc/shield` writes shielding CPU 1 — and the transient until the
/// 30 µs bound holds again is measured
/// (`examples/scenarios/reshield_transient.json`).
pub fn reshield_transient_scenario() -> ScenarioSpec {
    let shield_write = |file: &str| {
        let path = format!("/proc/shield/{file}");
        TimedAction { at_secs: 1.0, action: ActionKind::ProcShieldWrite { path, mask: "2".into() } }
    };
    ScenarioSpec {
        name: "reshield-transient".into(),
        seed: 0x7e5_111d,
        faults: vec![FaultSpec {
            name: "storm".into(),
            kind: FaultKind::IrqStorm { line: sp_inject::INJECT_LINE_BASE, rate_hz: 4_000.0 },
        }],
        timeline: vec![
            TimedAction { at_secs: 0.0, action: ActionKind::Arm { fault: "storm".into() } },
            shield_write("procs"),
            shield_write("irqs"),
            shield_write("ltmrs"),
        ],
        transient: Some(TransientSpec {
            task: "rcim-response".into(),
            bound_us: 30,
            from_secs: 1.0,
            settle: 50,
        }),
        run_secs: 2.5,
        // The RCIM interrupt is bound to CPU 1 from the start: a mask fully
        // inside the later shield is kept, so the measured interrupt keeps
        // flowing after the reshield.
        ..ScenarioSpec::rcim_testbed("rcim-response", 1_000).on_cpu(CpuId(1), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simcore::DistShape;

    /// The recovery verdict by its definition, over the whole log at once:
    /// the first `settle` consecutive in-bound samples completing at or
    /// after `from`, and the worst sample from there to the end.
    fn recovery_by_definition(
        spec: &TransientSpec,
        t0: Instant,
        lats: &[Nanos],
        times: &[Instant],
    ) -> RecoveryReport {
        let bound = Nanos::from_us(spec.bound_us);
        let from = t0 + Nanos::from_secs_f64(spec.from_secs);
        let settle = spec.settle.max(1);
        let after: Vec<usize> = (0..lats.len()).filter(|&i| times[i] >= from).collect();
        let out_of_bound_before =
            (0..lats.len()).filter(|&i| times[i] < from && lats[i] > bound).count() as u64;
        let recovered_at = after
            .iter()
            .copied()
            .find(|&i| i + settle <= lats.len() && lats[i..i + settle].iter().all(|&l| l <= bound));
        RecoveryReport {
            task: spec.task.clone(),
            bound_us: spec.bound_us,
            from_secs: spec.from_secs,
            recovery_secs: recovered_at.map(|i| (times[i] - from).as_secs_f64()),
            worst_after_us: recovered_at
                .map(|i| lats[i..].iter().max().expect("nonempty").as_us_f64()),
            out_of_bound_before,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// The streaming tracker, fed the log in any chunking (optionally
        /// after a prefix counted elsewhere, as the autopilot's windows
        /// are), gives the verdict of the definition: `from` before, on,
        /// between and after the samples, `settle` down to 1, and logs that
        /// never recover.
        #[test]
        fn tracker_folds_to_the_recovery_definition(
            samples in proptest::collection::vec((any::<u64>(), 0u64..3, 0u8..4), 0..60),
            (from_mode, from_pick, spread) in (0u8..4, any::<u64>(), 1_001u64..4_000),
            (settle, prefix_pick) in (0usize..=6, any::<u64>()),
        ) {
            // Sample times are whole microseconds after t0, converted the way
            // `from_secs` is, so `from` can land exactly on a sample.
            let t0 = Instant(7_000);
            let at = |us: u64| t0 + Nanos::from_secs_f64(us as f64 / 1e6);
            let mut us = 5;
            let (mut lats, mut times, mut us_of) = (vec![], vec![], vec![]);
            for &(raw, gap, _) in &samples {
                us += gap;
                // Shifts skew the draws small, so maxima differ between runs.
                lats.push(Nanos((raw % spread) >> (raw >> 61)));
                times.push(at(us));
                us_of.push(us);
            }
            let from_us = match from_mode {
                0 => 0,
                1 if !us_of.is_empty() => us_of[(from_pick % us_of.len() as u64) as usize],
                2 => us + 1,
                _ => from_pick % (us + 3),
            };
            let spec = TransientSpec {
                task: "t".into(),
                bound_us: 1,
                from_secs: from_us as f64 / 1e6,
                settle,
            };
            let expect = recovery_by_definition(&spec, t0, &lats, &times);

            // A prefix folded elsewhere must lie wholly before `from`.
            let before = times.partition_point(|&t| t < at(from_us));
            let prefix = (prefix_pick % (before as u64 + 1)) as usize;
            let prefix_oob =
                lats[..prefix].iter().filter(|&&l| l > Nanos::from_us(1)).count() as u64;
            for skip in [0, prefix] {
                let mut tracker = RecoveryTracker::new(
                    spec.clone(),
                    t0,
                    if skip == 0 { 0 } else { prefix_oob },
                );
                let mut start = skip;
                for i in skip..lats.len() {
                    if samples[i].2 == 0 || i + 1 == lats.len() {
                        tracker.fold(&lats[start..=i], &times[start..=i]);
                        start = i + 1;
                    }
                }
                tracker.fold(&[], &[]);
                prop_assert_eq!(tracker.report(), expect.clone());
            }
        }
    }

    #[test]
    fn fig7_scenario_runs_and_matches_the_figure() {
        let report = run_scenario(&fig7_scenario()).unwrap();
        let MeasuredResult::Latency { summary, .. } = &report.results["rcim-response"] else {
            panic!("wrong result kind");
        };
        assert!(summary.count > 9_000, "samples {}", summary.count);
        assert!(summary.max < Nanos::from_us(30), "max {}", summary.max);
        // Only the bound RCIM interrupt reaches the shielded CPU.
        assert!(report.irqs_per_cpu[1] >= 9_000);
    }

    #[test]
    fn unknown_names_are_rejected() {
        let mut spec = fig7_scenario();
        spec.workloads = vec![WorkloadSpec::Disknoise { disk: "nope".into() }];
        assert_eq!(
            run_scenario(&spec).err(),
            Some(ScenarioError::UnknownDevice("nope".into()))
        );

        let mut spec = fig7_scenario();
        spec.shield.as_mut().unwrap().bind_tasks = vec!["ghost".into()];
        assert_eq!(run_scenario(&spec).err(), Some(ScenarioError::UnknownTask("ghost".into())));

        let mut spec = fig7_scenario();
        spec.shield.as_mut().unwrap().cpus = "zz".into();
        assert_eq!(run_scenario(&spec).err(), Some(ScenarioError::BadMask("zz".into())));
    }

    #[test]
    fn empty_measured_rejected() {
        let mut spec = fig7_scenario();
        spec.measured.clear();
        assert_eq!(run_scenario(&spec).err(), Some(ScenarioError::Empty("measured tasks")));
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = fig7_scenario();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.devices.len(), spec.devices.len());
        assert_eq!(back.run_secs, spec.run_secs);
        // And the parsed spec still runs.
        let mut short = back;
        short.run_secs = 0.5;
        assert!(run_scenario(&short).is_ok());
    }

    #[test]
    fn loop_scenarios_produce_jitter_summaries() {
        let spec = ScenarioSpec {
            name: "mini-determinism".into(),
            seed: 3,
            machine: MachineConfig::dual_xeon_p3(),
            kernel: KernelVariant::RedHawk,
            kernel_overrides: None,
            devices: vec![DeviceSpec {
                name: "sda".into(),
                kind: DeviceKind::Disk,
                irq_affinity: None,
            }],
            workloads: vec![WorkloadSpec::Disknoise { disk: "sda".into() }],
            measured: vec![MeasuredSpec {
                name: "loop".into(),
                rt_prio: 80,
                kind: MeasuredKind::Loop { work_ms: 50 },
                pin: Some("2".into()),
            }],
            shield: Some(ShieldSpec {
                cpus: "2".into(),
                keep_local_timer: false,
                fence_kthreads: false,
                bind_tasks: vec!["loop".into()],
                bind_irqs: vec![],
            }),
            faults: vec![],
            timeline: vec![],
            transient: None,
            run_secs: 2.0,
        };
        let report = run_scenario(&spec).unwrap();
        let MeasuredResult::Jitter { summary } = &report.results["loop"] else {
            panic!("wrong result kind");
        };
        assert!(summary.iterations > 20, "iterations {}", summary.iterations);
        assert!(summary.jitter_pct() < 3.0, "shielded loop: {}", summary.jitter_pct());
    }

    #[test]
    fn offline_cpu_masks_are_rejected_up_front() {
        // fig7's machine has 2 logical CPUs; CPU 2 (mask "4") is offline.
        let mut spec = fig7_scenario();
        spec.measured[0].pin = Some("4".into());
        assert!(matches!(
            run_scenario(&spec).err(),
            Some(ScenarioError::OfflineCpus { what, .. }) if what.contains("rcim-response")
        ));

        let mut spec = fig7_scenario();
        spec.devices[0].irq_affinity = Some("5".into()); // CPU0 + offline CPU2
        assert!(matches!(
            run_scenario(&spec).err(),
            Some(ScenarioError::OfflineCpus { what, .. }) if what.contains("rcim")
        ));

        let mut spec = fig7_scenario();
        spec.shield.as_mut().unwrap().cpus = "6".into();
        assert!(matches!(
            run_scenario(&spec).err(),
            Some(ScenarioError::OfflineCpus { what, .. }) if what == "shield"
        ));
    }

    #[test]
    fn timeline_validation_catches_dangling_names_and_bad_times() {
        let mut spec = irq_storm_scenario();
        spec.timeline[0].action = ActionKind::Arm { fault: "ghost".into() };
        assert_eq!(run_scenario(&spec).err(), Some(ScenarioError::UnknownFault("ghost".into())));

        let mut spec = irq_storm_scenario();
        spec.timeline[0].at_secs = spec.run_secs + 1.0;
        assert!(matches!(run_scenario(&spec).err(), Some(ScenarioError::BadTime(_))));

        // The run length itself: negative, zero, NaN (which would let any
        // timeline time pass), infinite, and past the nanosecond clock.
        for run_secs in [-1.0, 0.0, f64::NAN, f64::INFINITY, 1e12] {
            let mut spec = irq_storm_scenario();
            spec.run_secs = run_secs;
            assert_eq!(
                run_scenario(&spec).err(),
                Some(ScenarioError::BadTime(format!("run_secs = {run_secs}"))),
                "run_secs = {run_secs}"
            );
        }

        let mut spec = reshield_transient_scenario();
        spec.timeline[1].action = ActionKind::ProcShieldWrite {
            path: "/proc/shield/bogus".into(),
            mask: "2".into(),
        };
        assert_eq!(
            run_scenario(&spec).err(),
            Some(ScenarioError::BadPath("/proc/shield/bogus".into()))
        );

        let mut spec = reshield_transient_scenario();
        spec.transient.as_mut().unwrap().task = "nobody".into();
        assert_eq!(run_scenario(&spec).err(), Some(ScenarioError::UnknownTask("nobody".into())));
    }

    // Device parameters the models reject, and machine or kernel configs the
    // simulator rejects, are typed errors rather than panics mid-build.
    #[test]
    fn bad_rtc_rates_are_rejected() {
        let mut spec = irq_storm_scenario();
        spec.devices[0].kind = DeviceKind::Rtc { hz: 1000 };
        assert!(matches!(
            run_scenario(&spec).err(),
            Some(ScenarioError::BadDevice { device, .. }) if device == "rtc"
        ));
    }

    #[test]
    fn rcim_periods_under_ten_microseconds_are_rejected() {
        let mut spec = fig7_scenario();
        spec.devices[0].kind = DeviceKind::Rcim { period_us: 5, pcie: false };
        assert!(matches!(
            run_scenario(&spec).err(),
            Some(ScenarioError::BadDevice { device, .. }) if device == "rcim"
        ));
    }

    #[test]
    fn measured_priorities_outside_one_to_ninety_nine_are_rejected() {
        for rt_prio in [0, 100] {
            let mut spec = fig7_scenario();
            spec.measured[0].rt_prio = rt_prio;
            let task = spec.measured[0].name.clone();
            assert_eq!(
                run_scenario(&spec).err(),
                Some(ScenarioError::BadPriority { task, rt_prio }),
                "rt_prio {rt_prio}"
            );
        }
    }

    #[test]
    fn irq_waits_on_devices_without_waiters_are_rejected() {
        for name in ["eth0", "sda", "gpu"] {
            let mut spec = fig7_scenario();
            let api = WaitApiSpec::Ioctl { driver_bkl_free: true };
            spec.measured[0].kind = MeasuredKind::IrqWait { device: name.into(), api };
            let task = spec.measured[0].name.clone();
            assert_eq!(
                validate(&spec).err(),
                Some(ScenarioError::NotWaitable { task, device: name.into() })
            );
        }
    }

    /// The shipped storm scenario with `eth0`'s arrival gap replaced.
    fn storm_with_nic_gap(gap: DistShape) -> ScenarioSpec {
        let mut spec = irq_storm_scenario();
        let eth0 = spec.devices.iter_mut().find(|d| d.name == "eth0").expect("eth0");
        let DeviceKind::Nic { external: Some(traffic) } = &mut eth0.kind else {
            panic!("eth0 carries external traffic");
        };
        traffic.gap = gap.into();
        spec
    }

    fn assert_bad_eth0(spec: &ScenarioSpec) {
        let err = validate(spec).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::BadDevice { device, .. } if device == "eth0"),
            "{err}"
        );
    }

    #[test]
    fn nic_zero_mean_gap_is_rejected() {
        assert_bad_eth0(&storm_with_nic_gap(DistShape::Exponential { mean: 0 }));
    }

    #[test]
    fn nic_zero_constant_gap_is_rejected() {
        assert_bad_eth0(&storm_with_nic_gap(DistShape::Constant(0)));
    }

    #[test]
    fn nic_inverted_uniform_gap_is_rejected() {
        assert_bad_eth0(&storm_with_nic_gap(DistShape::Uniform { lo: 9, hi: 3 }));
    }

    #[test]
    fn invalid_machines_are_rejected() {
        // No pins or masks, so no offline-CPU check can catch it first.
        let mut spec = ScenarioSpec::rtc_testbed("realfeel", 2048);
        spec.machine.physical_cores = 0;
        assert_eq!(
            run_scenario(&spec).err(),
            Some(ScenarioError::Kernel("machine needs at least one core".into()))
        );
    }

    #[test]
    fn invalid_kernel_overrides_are_rejected() {
        let mut spec = fig7_scenario();
        spec.kernel_overrides =
            Some(KernelConfig { local_timer_hz: 0, ..KernelConfig::new(spec.kernel) });
        assert_eq!(
            run_scenario(&spec).err(),
            Some(ScenarioError::Kernel("local timer frequency must be positive".into()))
        );
    }

    #[test]
    fn irq_storm_timeline_degrades_the_unshielded_waiter() {
        let spec = irq_storm_scenario();
        let report = run_scenario(&spec).unwrap();
        let MeasuredResult::Latency { summary, .. } = &report.results["realfeel"] else {
            panic!("wrong result kind");
        };
        // While the storm is armed it round-robins onto the measured CPU:
        // the unshielded worst case blows out far past the shielded band.
        assert!(summary.max > Nanos::from_us(100), "storm had no effect: max {}", summary.max);

        // Same spec without the fault ever arming: tail collapses.
        let mut calm = spec.clone();
        calm.timeline.clear();
        let calm_report = run_scenario(&calm).unwrap();
        let MeasuredResult::Latency { summary: calm_summary, .. } =
            &calm_report.results["realfeel"]
        else {
            panic!("wrong result kind");
        };
        assert!(
            summary.max > calm_summary.max * 5,
            "armed max {} vs calm max {}",
            summary.max,
            calm_summary.max
        );
    }

    #[test]
    fn reshield_transient_recovers_the_bound() {
        let report = run_scenario(&reshield_transient_scenario()).unwrap();
        let rec = report.recovery.expect("transient requested");
        assert!(
            rec.out_of_bound_before > 0,
            "storm never pushed the unshielded waiter over the bound"
        );
        let recovery = rec.recovery_secs.expect("reshield must recover the bound");
        assert!(recovery < 1.0, "recovery transient too long: {recovery}s");
        let worst = rec.worst_after_us.expect("recovered runs report a worst case");
        assert!(worst <= 30.0, "post-recovery worst {worst}µs breaks the bound");
    }

    #[test]
    fn timeline_runs_are_deterministic() {
        let spec = reshield_transient_scenario();
        let a = serde_json::to_string(&run_scenario(&spec).unwrap()).unwrap();
        let b = serde_json::to_string(&run_scenario(&spec).unwrap()).unwrap();
        assert_eq!(a, b, "same seed + timeline must reproduce bit-for-bit");
    }

    #[test]
    fn example_scenario_files_match_the_builders() {
        for (file, spec) in [
            ("fig7.json", fig7_scenario()),
            ("irq_storm.json", irq_storm_scenario()),
            ("reshield_transient.json", reshield_transient_scenario()),
        ] {
            let path =
                format!("{}/../../examples/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!("cannot read {path}: {e}");
            });
            let parsed: ScenarioSpec = serde_json::from_str(&text).expect("example parses");
            assert_eq!(
                serde_json::to_value(&parsed).unwrap(),
                serde_json::to_value(&spec).unwrap(),
                "{file} drifted from its builder"
            );
            validate(&parsed).expect("example validates");
        }
    }
}
