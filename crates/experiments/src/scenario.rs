//! Declarative scenarios: describe a machine, kernel, devices, workloads,
//! measured tasks, a shield and a timeline in data (JSON via serde), then
//! run it. [`ScenarioSpec::build`] reads a spec in one pass, checking each
//! item where it resolves it, and returns the timeline as typed steps for
//! [`run_scenario`] to apply.
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
    /// The RCIM periodic timer, every `period_us` (10 µs..=[`MAX_SPAN`]). `pcie`
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
    /// Determinism loop of `work_ms` per lap (1 ms..=[`MAX_SPAN`]); record
    /// per-iteration wall times.
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
    /// The bound the task must recover to, in microseconds (at most what
    /// the nanosecond clock holds).
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
    /// A timeline/transient time outside `[0, run_secs]`, a `run_secs` that
    /// is not a positive length the clock can hold, a loop's `work_ms`
    /// outside 1 ms..=[`MAX_SPAN`], or a `bound_us` past the clock.
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
            ScenarioError::BadTime(t) => write!(f, "time {t} is out of range"),
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

/// The longest RCIM period or loop lap a spec may ask for (one simulated
/// day).
pub use simcore::time::MAX_SPAN;
use simcore::time::span;

/// One timeline action as [`ScenarioSpec::build`] resolved it: names are
/// ids and masks are parsed, so applying it can fail only on the state the
/// simulator is in.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Step {
    Arm(String),
    Disarm(String),
    /// Write one `/proc/shield` file.
    Shield(ShieldFile, CpuMask),
    /// Write every `/proc/shield` file (`UnshieldAll` writes the empty mask).
    ShieldAll(CpuMask),
    /// Set a device's `/proc/irq/<n>/smp_affinity`.
    IrqAffinity(DeviceId, CpuMask),
    /// `sched_setaffinity` on a measured task.
    TaskAffinity(Pid, CpuMask),
}

impl Step {
    /// Apply the step to `sim` now.
    fn apply(&self, sim: &mut Simulator, armory: &mut Armory) -> Result<(), ScenarioError> {
        let inject = |e: sp_inject::InjectError| ScenarioError::Inject(e.to_string());
        let kernel = ScenarioError::Kernel;
        let procfs = |e: sp_core::ProcWriteError| kernel(e.to_string());
        match self {
            Step::Arm(fault) => armory.arm(sim, fault).map_err(inject),
            Step::Disarm(fault) => armory.disarm(sim, fault).map_err(inject),
            Step::Shield(file, mask) => ProcShield::write_mask(sim, *file, *mask).map_err(procfs),
            Step::ShieldAll(mask) => ProcShield::write_all(sim, *mask).map_err(procfs),
            Step::IrqAffinity(dev, mask) => sim.set_irq_affinity(*dev, *mask).map_err(kernel),
            Step::TaskAffinity(pid, mask) => sim.set_task_affinity(*pid, *mask).map_err(kernel),
        }
    }
}

/// A scenario's simulator, assembled, started and shielded, with its
/// timeline resolved: what [`ScenarioSpec::build`] returns.
pub struct Built {
    pub sim: Simulator,
    /// The spec's fault injectors, registered and disarmed.
    pub armory: Armory,
    /// Each measured task's pid, in the spec's `measured` order.
    pub tasks: Vec<Pid>,
    /// The timeline in run order: each step and the instant it applies at.
    pub(crate) steps: Vec<(Instant, Step)>,
    /// The pid of the transient's task, when the spec measures one.
    pub(crate) transient: Option<Pid>,
}

impl ScenarioSpec {
    /// Assemble the spec on `seed` (the spec's own `seed` is not read) in
    /// one pass that checks each item where it resolves it: the machine,
    /// kernel and `run_secs`, the devices, workloads, faults (registered
    /// disarmed), measured tasks (watched), shield plan, timeline steps and
    /// transient. The first bad item is the error, before anything runs.
    /// Then start the simulator and apply the IRQ affinities and the shield.
    /// Every measured simulation in this crate except the autopilot's
    /// request plant is assembled here. Two builds of one spec on one seed
    /// are interchangeable, the property warm-checkpoint forking relies on.
    pub fn build(&self, seed: u64) -> Result<Built, ScenarioError> {
        if self.measured.is_empty() {
            return Err(ScenarioError::Empty("measured tasks"));
        }
        self.machine.validate().map_err(ScenarioError::Kernel)?;
        if let Some(kernel) = &self.kernel_overrides {
            kernel.validate().map_err(ScenarioError::Kernel)?;
        }
        // NaN fails both comparisons; the upper bound keeps `run_secs` in the
        // u64 nanosecond clock.
        if !(self.run_secs > 0.0 && self.run_secs * 1e9 < u64::MAX as f64) {
            return Err(ScenarioError::BadTime(format!("run_secs = {}", self.run_secs)));
        }
        let kernel =
            self.kernel_overrides.clone().unwrap_or_else(|| KernelConfig::new(self.kernel));
        let mut sim = Simulator::new(self.machine.clone(), kernel, seed);

        let mut ids: Vec<DeviceId> = Vec::with_capacity(self.devices.len());
        let mut affinities = Vec::new();
        for (i, d) in self.devices.iter().enumerate() {
            if self.devices[..i].iter().any(|other| other.name == d.name) {
                return Err(ScenarioError::DuplicateName(d.name.clone()));
            }
            let bad = |why: String| ScenarioError::BadDevice { device: d.name.clone(), why };
            let id = match &d.kind {
                DeviceKind::Rtc { hz } if !(hz.is_power_of_two() && (2..=8192).contains(hz)) => {
                    return Err(bad(format!("RTC rate {hz} Hz is not a power of two in 2..=8192")));
                }
                DeviceKind::Rtc { hz } => sim.add_device(RtcDevice::new(*hz)),
                DeviceKind::Rcim { period_us, pcie } => {
                    if *period_us < 10 {
                        return Err(bad(format!("RCIM period {period_us} µs is under 10 µs")));
                    }
                    let period = span(*period_us, Nanos::from_us(1))
                        .ok_or_else(|| bad(format!("RCIM period {period_us} µs is over a day")))?;
                    let rcim = if *pcie { RcimDevice::modern } else { RcimDevice::new };
                    sim.add_device(rcim(period))
                }
                DeviceKind::Nic { external } => {
                    if let Some(traffic) = external {
                        traffic.validate().map_err(|e| bad(format!("NIC traffic {e}")))?;
                    }
                    sim.add_device(NicDevice::new(external.as_deref().cloned()))
                }
                DeviceKind::Disk => sim.add_device(DiskDevice::new()),
                DeviceKind::GpuX11perf => sim.add_device(GpuDevice::x11perf()),
            };
            if let Some(aff) = &d.irq_affinity {
                let what = format!("device '{}' irq affinity", d.name);
                affinities.push((id, self.cpu_mask(what, aff, true)?));
            }
            ids.push(id);
        }
        let device = |name: &str| {
            let found = self.devices.iter().position(|d| d.name == name);
            found.ok_or_else(|| ScenarioError::UnknownDevice(name.to_string()))
        };

        for w in &self.workloads {
            match w {
                WorkloadSpec::StressKernel { nic, disk } => {
                    let devs = StressDevices { nic: ids[device(nic)?], disk: ids[device(disk)?] };
                    sp_workloads::stress_kernel(&mut sim, devs);
                }
                WorkloadSpec::ScpReceiver { disk } => {
                    sp_workloads::scp_receiver(&mut sim, ids[device(disk)?]);
                }
                WorkloadSpec::Disknoise { disk } => {
                    sp_workloads::disknoise(&mut sim, ids[device(disk)?]);
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
            if let FaultKind::LockHolder { pin: Some(pin), .. }
            | FaultKind::CpuHog { pin: Some(pin), .. } = &f.kind
            {
                self.cpu_mask(format!("fault '{}'", f.name), pin, true)?;
            }
            armory.register(&mut sim, f).map_err(|e| match e {
                sp_inject::InjectError::DuplicateFault(name) => ScenarioError::DuplicateName(name),
                e => ScenarioError::Inject(e.to_string()),
            })?;
        }

        let mut tasks: Vec<Pid> = Vec::with_capacity(self.measured.len());
        let mut transient = None;
        for (i, m) in self.measured.iter().enumerate() {
            if self.measured[..i].iter().any(|other| other.name == m.name) {
                return Err(ScenarioError::DuplicateName(m.name.clone()));
            }
            if !(1..=99).contains(&m.rt_prio) {
                let (task, rt_prio) = (m.name.clone(), m.rt_prio);
                return Err(ScenarioError::BadPriority { task, rt_prio });
            }
            let what = || format!("measured task '{}'", m.name);
            let pin = m.pin.as_ref().map(|pin| self.cpu_mask(what(), pin, true)).transpose()?;
            let program = match &m.kind {
                MeasuredKind::IrqWait { device: name, api } => {
                    let d = device(name)?;
                    let kind = &self.devices[d].kind;
                    if !matches!(kind, DeviceKind::Rtc { .. } | DeviceKind::Rcim { .. }) {
                        let (task, device) = (m.name.clone(), name.clone());
                        return Err(ScenarioError::NotWaitable { task, device });
                    }
                    let api = match api {
                        WaitApiSpec::Read => WaitApi::ReadDevice,
                        WaitApiSpec::Ioctl { driver_bkl_free } => {
                            WaitApi::IoctlWait { driver_bkl_free: *driver_bkl_free }
                        }
                    };
                    Program::forever(vec![Op::WaitIrq { device: ids[d], api }])
                }
                MeasuredKind::Loop { work_ms } => {
                    let work = span(*work_ms, Nanos::from_ms(1))
                        .ok_or_else(|| ScenarioError::BadTime(format!("work_ms = {work_ms}")))?;
                    Program::forever(vec![Op::MarkLap, Op::Compute(DurationDist::constant(work))])
                }
            };
            let mut task =
                TaskSpec::new(m.name.clone(), SchedPolicy::fifo(m.rt_prio), program).mlockall();
            if let Some(pin) = pin {
                task = task.pinned(pin);
            }
            let pid = sim.spawn(task);
            match m.kind {
                MeasuredKind::IrqWait { .. } => {
                    sim.watch_latency(pid);
                    // The transient computation needs each sample's timestamp.
                    if self.transient.as_ref().is_some_and(|t| t.task == m.name) {
                        sim.watch_latency_times(pid);
                        transient = Some(pid);
                    }
                }
                MeasuredKind::Loop { .. } => sim.watch_laps(pid),
            }
            tasks.push(pid);
        }
        let task = |name: &str| {
            let found = self.measured.iter().position(|m| m.name == name);
            found.map(|i| tasks[i]).ok_or_else(|| ScenarioError::UnknownTask(name.to_string()))
        };

        let mut shield = None;
        if let Some(sh) = &self.shield {
            let mut plan = ShieldPlan::full(self.cpu_mask("shield".into(), &sh.cpus, false)?);
            if sh.keep_local_timer {
                plan = plan.keep_local_timer();
            }
            if sh.fence_kthreads {
                plan = plan.fence_kthreads();
            }
            for name in &sh.bind_tasks {
                plan = plan.bind_task(task(name)?);
            }
            for name in &sh.bind_irqs {
                plan = plan.bind_irq(ids[device(name)?]);
            }
            shield = Some(plan);
        }

        let offset = |t: f64| match (0.0..=self.run_secs).contains(&t) {
            true => Ok(Nanos::from_secs_f64(t)),
            false => Err(ScenarioError::BadTime(format!("{t}"))),
        };
        let fault = |name: &String| match self.faults.iter().any(|f| f.name == *name) {
            true => Ok(name.clone()),
            false => Err(ScenarioError::UnknownFault(name.clone())),
        };
        let t0 = sim.now();
        let mut steps = Vec::with_capacity(self.timeline.len());
        for ta in &self.timeline {
            let at = t0 + offset(ta.at_secs)?;
            let step = match &ta.action {
                ActionKind::Arm { fault: name } => Step::Arm(fault(name)?),
                ActionKind::Disarm { fault: name } => Step::Disarm(fault(name)?),
                ActionKind::ProcShieldWrite { path, mask } => {
                    let file = ShieldFile::from_path(path)
                        .ok_or_else(|| ScenarioError::BadPath(path.clone()))?;
                    let what = format!("shield write '{path}'");
                    Step::Shield(file, self.cpu_mask(what, mask, false)?)
                }
                ActionKind::ShieldAll { mask } => {
                    Step::ShieldAll(self.cpu_mask("shield write".into(), mask, false)?)
                }
                ActionKind::UnshieldAll => Step::ShieldAll(CpuMask::EMPTY),
                ActionKind::SetIrqAffinity { device: name, mask } => {
                    let dev = ids[device(name)?];
                    let what = format!("irq affinity of '{name}'");
                    Step::IrqAffinity(dev, self.cpu_mask(what, mask, true)?)
                }
                ActionKind::SetTaskAffinity { task: name, mask } => {
                    let pid = task(name)?;
                    let what = format!("affinity of '{name}'");
                    Step::TaskAffinity(pid, self.cpu_mask(what, mask, true)?)
                }
            };
            steps.push((ta.at_secs, at, step));
        }
        // Stable, so ties keep their listed order. Every time is checked
        // finite, so `partial_cmp` orders each pair.
        steps.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let steps = steps.into_iter().map(|(_, at, step)| (at, step)).collect();

        if let Some(t) = &self.transient {
            offset(t.from_secs)?;
            if t.bound_us.checked_mul(1_000).is_none() {
                return Err(ScenarioError::BadTime(format!("bound_us = {}", t.bound_us)));
            }
            if transient.is_none() {
                return Err(ScenarioError::UnknownTask(t.task.clone()));
            }
        }

        sim.start();
        // Per-device IRQ affinity (before the shield plan, which may re-bind).
        for (dev, mask) in affinities {
            sim.set_irq_affinity(dev, mask).map_err(ScenarioError::Kernel)?;
        }
        if let Some(plan) = shield {
            plan.apply(&mut sim).map_err(|e| ScenarioError::Kernel(e.to_string()))?;
        }
        Ok(Built { sim, armory, tasks, steps, transient })
    }

    /// Parse `s` as a mask of the machine's CPUs. It is `BadMask` if it is
    /// not a hex mask, or names no CPU when `nonempty`, and `OfflineCpus`
    /// (naming `what`) if it names a CPU the machine does not have. Every
    /// mask in a spec is read here, once.
    fn cpu_mask(&self, what: String, s: &str, nonempty: bool) -> Result<CpuMask, ScenarioError> {
        let mask: CpuMask = s.parse().map_err(|_| ScenarioError::BadMask(s.to_string()))?;
        if !(mask - self.machine.online_mask()).is_empty() {
            return Err(ScenarioError::OfflineCpus { what, mask: s.to_string() });
        }
        if nonempty && mask.is_empty() {
            return Err(ScenarioError::BadMask(s.to_string()));
        }
        Ok(mask)
    }
}

/// Build the scenario on its seed, apply its timeline's steps as the run
/// reaches them, and collect each measured task's result.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioReport, ScenarioError> {
    let Built { mut sim, mut armory, tasks, steps, transient } = spec.build(spec.seed)?;
    let t0 = sim.now();
    for (at, step) in &steps {
        sim.run_until(*at);
        step.apply(&mut sim, &mut armory)?;
    }
    sim.run_until(t0 + Nanos::from_secs_f64(spec.run_secs));

    let mut results = HashMap::new();
    for (m, &pid) in spec.measured.iter().zip(&tasks) {
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
    let recovery = spec.transient.as_ref().zip(transient).map(|(t, pid)| {
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

    fn build_err(spec: &ScenarioSpec) -> Option<ScenarioError> {
        spec.build(spec.seed).err()
    }

    /// Each row is one spec, edited from a shipped builder to carry one bad
    /// item, and the exact error `build` must return for it.
    #[test]
    fn malformed_specs_are_typed_errors() {
        use ScenarioError::*;
        let edit = |base: fn() -> ScenarioSpec, f: &dyn Fn(&mut ScenarioSpec)| {
            let mut spec = base();
            f(&mut spec);
            spec
        };
        let scp_loop = || ScenarioSpec::scp_testbed(false, "loop", 50);
        let offline = |what: &str, mask: &str| OfflineCpus { what: what.into(), mask: mask.into() };
        let bad_device =
            |device: &str, why: &str| BadDevice { device: device.into(), why: why.into() };
        let hog = |pin: &str| FaultSpec {
            name: "hog".into(),
            kind: FaultKind::CpuHog { rt_prio: 95, burst_ms: 2, idle_ms: 2, pin: Some(pin.into()) },
        };
        let mut rows: Vec<(&str, ScenarioSpec, ScenarioError)> = vec![
            (
                "unknown workload device",
                edit(fig7_scenario, &|s| {
                    s.workloads = vec![WorkloadSpec::Disknoise { disk: "nope".into() }];
                }),
                UnknownDevice("nope".into()),
            ),
            (
                "unknown shield task",
                edit(fig7_scenario, &|s| {
                    s.shield.as_mut().unwrap().bind_tasks = vec!["ghost".into()];
                }),
                UnknownTask("ghost".into()),
            ),
            (
                "unknown shield irq",
                edit(fig7_scenario, &|s| {
                    s.shield.as_mut().unwrap().bind_irqs = vec!["ghost".into()];
                }),
                UnknownDevice("ghost".into()),
            ),
            (
                "unknown wait device",
                edit(fig7_scenario, &|s| {
                    let api = WaitApiSpec::Read;
                    s.measured[0].kind = MeasuredKind::IrqWait { device: "ghost".into(), api };
                }),
                UnknownDevice("ghost".into()),
            ),
            (
                "unparsable shield mask",
                edit(fig7_scenario, &|s| s.shield.as_mut().unwrap().cpus = "zz".into()),
                BadMask("zz".into()),
            ),
            (
                "no measured tasks",
                edit(fig7_scenario, &|s| s.measured.clear()),
                Empty("measured tasks"),
            ),
            // fig7's machine has 2 logical CPUs; CPU 2 (mask "4") is offline.
            (
                "offline pin",
                edit(fig7_scenario, &|s| s.measured[0].pin = Some("4".into())),
                offline("measured task 'rcim-response'", "4"),
            ),
            (
                "offline irq affinity",
                edit(fig7_scenario, &|s| s.devices[0].irq_affinity = Some("5".into())),
                offline("device 'rcim' irq affinity", "5"),
            ),
            (
                "empty irq affinity",
                edit(fig7_scenario, &|s| s.devices[0].irq_affinity = Some("0".into())),
                BadMask("0".into()),
            ),
            (
                "offline shield",
                edit(fig7_scenario, &|s| s.shield.as_mut().unwrap().cpus = "6".into()),
                offline("shield", "6"),
            ),
            (
                "offline fault pin",
                edit(fig7_scenario, &|s| s.faults = vec![hog("4")]),
                offline("fault 'hog'", "4"),
            ),
            (
                "empty fault pin",
                edit(fig7_scenario, &|s| s.faults = vec![hog("0")]),
                BadMask("0".into()),
            ),
            (
                "duplicate fault",
                edit(fig7_scenario, &|s| s.faults = vec![hog("1"), hog("2")]),
                DuplicateName("hog".into()),
            ),
            (
                "duplicate device",
                edit(fig7_scenario, &|s| s.devices[1].name = "rcim".into()),
                DuplicateName("rcim".into()),
            ),
            (
                "duplicate measured task",
                edit(fig7_scenario, &|s| s.measured.push(s.measured[0].clone())),
                DuplicateName("rcim-response".into()),
            ),
            (
                "unknown timeline fault",
                edit(irq_storm_scenario, &|s| {
                    s.timeline[0].action = ActionKind::Arm { fault: "ghost".into() };
                }),
                UnknownFault("ghost".into()),
            ),
            (
                "timeline time past the run",
                edit(irq_storm_scenario, &|s| s.timeline[0].at_secs = s.run_secs + 1.0),
                BadTime("3.5".into()),
            ),
            (
                "bad /proc/shield path",
                edit(reshield_transient_scenario, &|s| {
                    s.timeline[1].action = ActionKind::ProcShieldWrite {
                        path: "/proc/shield/bogus".into(),
                        mask: "2".into(),
                    };
                }),
                BadPath("/proc/shield/bogus".into()),
            ),
            (
                "offline shield write",
                edit(reshield_transient_scenario, &|s| {
                    s.timeline[1].action = ActionKind::ShieldAll { mask: "4".into() };
                }),
                offline("shield write", "4"),
            ),
            (
                "unknown affinity device",
                edit(irq_storm_scenario, &|s| {
                    let (device, mask) = ("ghost".into(), "1".into());
                    s.timeline[0].action = ActionKind::SetIrqAffinity { device, mask };
                }),
                UnknownDevice("ghost".into()),
            ),
            (
                "empty task affinity",
                edit(irq_storm_scenario, &|s| {
                    let (task, mask) = ("realfeel".into(), "0".into());
                    s.timeline[0].action = ActionKind::SetTaskAffinity { task, mask };
                }),
                BadMask("0".into()),
            ),
            (
                "unknown transient task",
                edit(reshield_transient_scenario, &|s| {
                    s.transient.as_mut().unwrap().task = "nobody".into();
                }),
                UnknownTask("nobody".into()),
            ),
            (
                "transient bound past the clock",
                edit(reshield_transient_scenario, &|s| {
                    s.transient.as_mut().unwrap().bound_us = u64::MAX;
                }),
                BadTime("bound_us = 18446744073709551615".into()),
            ),
            (
                "RTC rate not a power of two",
                edit(irq_storm_scenario, &|s| s.devices[0].kind = DeviceKind::Rtc { hz: 1000 }),
                bad_device("rtc", "RTC rate 1000 Hz is not a power of two in 2..=8192"),
            ),
            (
                "RCIM period under 10 µs",
                edit(fig7_scenario, &|s| {
                    s.devices[0].kind = DeviceKind::Rcim { period_us: 5, pcie: false };
                }),
                bad_device("rcim", "RCIM period 5 µs is under 10 µs"),
            ),
            // `period_us * 1000` wraps to 384 ns; unchecked, the run panicked.
            (
                "RCIM period past the clock",
                edit(fig7_scenario, &|s| {
                    let period_us = 18446744073709552;
                    s.devices[0].kind = DeviceKind::Rcim { period_us, pcie: false };
                }),
                bad_device("rcim", "RCIM period 18446744073709552 µs is over a day"),
            ),
            (
                "RCIM period over a day",
                edit(fig7_scenario, &|s| {
                    s.devices[0].kind = DeviceKind::Rcim { period_us: 86_400_000_001, pcie: true };
                }),
                bad_device("rcim", "RCIM period 86400000001 µs is over a day"),
            ),
            // A 0 ms lap costs about 1 ns, so the run never ends.
            (
                "zero loop work",
                edit(scp_loop, &|s| s.measured[0].kind = MeasuredKind::Loop { work_ms: 0 }),
                BadTime("work_ms = 0".into()),
            ),
            // Fits `Nanos`, but `now + work` wraps the clock within a second.
            (
                "loop work near the clock's range",
                edit(scp_loop, &|s| {
                    s.measured[0].kind = MeasuredKind::Loop { work_ms: 18446744073000 };
                }),
                BadTime("work_ms = 18446744073000".into()),
            ),
            (
                "loop work past the clock",
                edit(scp_loop, &|s| s.measured[0].kind = MeasuredKind::Loop { work_ms: u64::MAX }),
                BadTime(format!("work_ms = {}", u64::MAX)),
            ),
            // No pins or masks, so no offline-CPU check can catch it first.
            (
                "invalid machine",
                edit(|| ScenarioSpec::rtc_testbed("realfeel", 2048), &|s| {
                    s.machine.physical_cores = 0;
                }),
                Kernel("machine needs at least one core".into()),
            ),
            (
                "invalid kernel override",
                edit(fig7_scenario, &|s| {
                    let kernel = KernelConfig { local_timer_hz: 0, ..KernelConfig::new(s.kernel) };
                    s.kernel_overrides = Some(kernel);
                }),
                Kernel("local timer frequency must be positive".into()),
            ),
        ];
        for rt_prio in [0, 100] {
            let spec = edit(fig7_scenario, &|s| s.measured[0].rt_prio = rt_prio);
            rows.push(("rt_prio", spec, BadPriority { task: "rcim-response".into(), rt_prio }));
        }
        // The run length itself: negative, zero, NaN (which would let any
        // timeline time pass), infinite, and past the nanosecond clock.
        for run_secs in [-1.0, 0.0, f64::NAN, f64::INFINITY, 1e12] {
            let spec = edit(irq_storm_scenario, &|s| s.run_secs = run_secs);
            rows.push(("run_secs", spec, BadTime(format!("run_secs = {run_secs}"))));
        }
        for (what, spec, expect) in rows {
            assert_eq!(build_err(&spec), Some(expect.clone()), "{what}");
            assert_eq!(run_scenario(&spec).err(), Some(expect), "{what} (run_scenario)");
        }
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
    fn irq_waits_on_devices_without_waiters_are_rejected() {
        for name in ["eth0", "sda", "gpu"] {
            let mut spec = fig7_scenario();
            let api = WaitApiSpec::Ioctl { driver_bkl_free: true };
            spec.measured[0].kind = MeasuredKind::IrqWait { device: name.into(), api };
            let task = spec.measured[0].name.clone();
            let expect = ScenarioError::NotWaitable { task, device: name.into() };
            assert_eq!(build_err(&spec), Some(expect));
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
        let err = build_err(spec).expect("rejected");
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

    /// The numeric fields the hostile-number property edits, and the edge
    /// values it sets them to (saturated into narrower integer types).
    const FIELDS: [&str; 15] = [
        "hz",
        "period_us",
        "work_ms",
        "rt_prio",
        "bound_us",
        "settle",
        "run_secs",
        "at_secs",
        "from_secs",
        "burst_us",
        "stuck_us",
        "hold_us",
        "gap_us",
        "burst_ms",
        "idle_ms",
    ];
    const INT_EDGES: [u64; 7] = [
        0,
        1,
        u64::MAX / 1_000_000,
        u64::MAX / 1_000_000 + 1,
        u64::MAX / 1_000,
        u64::MAX / 1_000 + 1,
        u64::MAX,
    ];
    const FLOAT_EDGES: [f64; 9] = [
        0.0,
        1.0,
        (u64::MAX / 1_000_000_000) as f64,
        (u64::MAX / 1_000_000) as f64,
        (u64::MAX / 1_000) as f64,
        u64::MAX as f64,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// Set the `pick`-th occurrence (mod their count) of `field` in `spec` to
    /// `n` (integer fields) or `x` (float fields). False if `spec` has none.
    fn set_edge(spec: &mut ScenarioSpec, field: &str, pick: usize, n: u64, x: f64) -> bool {
        fn nth<'a, T: 'a>(it: impl Iterator<Item = &'a mut T>, pick: usize) -> Option<&'a mut T> {
            let mut items: Vec<&mut T> = it.collect();
            let len = items.len();
            (len > 0).then(|| items.swap_remove(pick % len))
        }
        let sat = |max: u64| n.min(max);
        let transient = spec.transient.as_mut();
        let mut fault = |field: fn(&mut FaultKind) -> Option<&mut u64>| {
            nth(spec.faults.iter_mut().filter_map(|f| field(&mut f.kind)), pick).map(|v| *v = n)
        };
        match field {
            "hz" => nth(
                spec.devices.iter_mut().filter_map(|d| match &mut d.kind {
                    DeviceKind::Rtc { hz } => Some(hz),
                    _ => None,
                }),
                pick,
            )
            .map(|hz| *hz = sat(u32::MAX.into()) as u32),
            "period_us" => nth(
                spec.devices.iter_mut().filter_map(|d| match &mut d.kind {
                    DeviceKind::Rcim { period_us, .. } => Some(period_us),
                    _ => None,
                }),
                pick,
            )
            .map(|p| *p = n),
            "work_ms" => nth(
                spec.measured.iter_mut().filter_map(|m| match &mut m.kind {
                    MeasuredKind::Loop { work_ms } => Some(work_ms),
                    _ => None,
                }),
                pick,
            )
            .map(|w| *w = n),
            "rt_prio" => nth(spec.measured.iter_mut().map(|m| &mut m.rt_prio), pick)
                .map(|p| *p = sat(u8::MAX.into()) as u8),
            "bound_us" => transient.map(|t| t.bound_us = n),
            "settle" => transient.map(|t| t.settle = sat(usize::MAX as u64) as usize),
            "from_secs" => transient.map(|t| t.from_secs = x),
            "run_secs" => {
                spec.run_secs = x;
                Some(())
            }
            "at_secs" => {
                nth(spec.timeline.iter_mut().map(|ta| &mut ta.at_secs), pick).map(|t| *t = x)
            }
            "burst_us" => fault(|k| match k {
                FaultKind::SoftirqFlood { burst_us, .. } => Some(burst_us),
                _ => None,
            }),
            "stuck_us" => fault(|k| match k {
                FaultKind::StuckIsr { stuck_us, .. } => Some(stuck_us),
                _ => None,
            }),
            "hold_us" => fault(|k| match k {
                FaultKind::LockHolder { hold_us, .. } => Some(hold_us),
                _ => None,
            }),
            "gap_us" => fault(|k| match k {
                FaultKind::LockHolder { gap_us, .. } => Some(gap_us),
                _ => None,
            }),
            "burst_ms" => fault(|k| match k {
                FaultKind::CpuHog { burst_ms, .. } => Some(burst_ms),
                _ => None,
            }),
            "idle_ms" => fault(|k| match k {
                FaultKind::CpuHog { idle_ms, .. } => Some(idle_ms),
                _ => None,
            }),
            _ => unreachable!("unknown field {field}"),
        }
        .is_some()
    }

    /// The IRQ-storm spec with the fault matrix's whole roster in place of
    /// its storm, every fault armed at the start, so a hostile fault number
    /// reaches its injector within the property's first milliseconds.
    fn armed_roster_scenario() -> ScenarioSpec {
        let faults = sp_inject::matrix_presets();
        let arm = |f: &FaultSpec| TimedAction {
            at_secs: 0.0,
            action: ActionKind::Arm { fault: f.name.clone() },
        };
        ScenarioSpec { timeline: faults.iter().map(arm).collect(), faults, ..irq_storm_scenario() }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// One numeric field of a shipped spec set to an edge value never
        /// panics: `build` returns a typed error, or the spec runs its first
        /// simulated milliseconds (applying the steps due by then).
        #[test]
        fn hostile_numbers_never_panic(
            (field, n, x) in
                (0usize..FIELDS.len(), 0usize..INT_EDGES.len(), 0usize..FLOAT_EDGES.len()),
            pick in any::<usize>(),
        ) {
            let bases = [
                fig7_scenario(),
                irq_storm_scenario(),
                reshield_transient_scenario(),
                ScenarioSpec::scp_testbed(false, "loop", 50),
                armed_roster_scenario(),
            ];
            for mut spec in bases {
                if !set_edge(&mut spec, FIELDS[field], pick, INT_EDGES[n], FLOAT_EDGES[x]) {
                    continue;
                }
                let Ok(Built { mut sim, mut armory, steps, .. }) = spec.build(spec.seed) else {
                    continue;
                };
                let end = sim.now() + Nanos::from_ms(3);
                for (at, step) in steps.iter().filter(|(at, _)| *at <= end) {
                    sim.run_until(*at);
                    // A step may fail on the simulator's state; that is typed too.
                    let _ = step.apply(&mut sim, &mut armory);
                }
                sim.run_until(end);
            }
        }
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
            assert_eq!(build_err(&parsed), None, "{file} builds");
        }
    }
}
