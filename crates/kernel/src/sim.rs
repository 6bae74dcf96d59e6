//! The discrete-event SMP kernel simulator.
//!
//! Each logical CPU executes one *activity* at a time (a task's user code, a
//! kernel segment, a spinlock busy-wait, an ISR, a softirq burst, a timer
//! tick, or a context switch). Activities carry a residual amount of *work*;
//! wall time stretches over work by the contention slowdown (hyperthread
//! sibling, SMP memory). Interrupts suspend the current activity, run, drain
//! bottom halves per the kernel variant's rules, then either resume or
//! reschedule — the same control flow whose corner cases the paper measures.
//!
//! Everything is event-driven and deterministic for a given seed.

use crate::device::{Device, DeviceCmd, DeviceCtx, DeviceSlot};
use crate::devices::AnyDevice;
use crate::flight::FlightRecorder;
use crate::ids::{DeviceId, LockId, Pid, SoftirqClass, SyscallId};
use crate::kconfig::KernelConfig;
use crate::lock::{AcquireResult, LockTable};
use crate::observe::Observations;
use crate::program::{Op, WaitApi};
use crate::sched::{build_scheduler, CpuView, Scheduler, SchedulerKind};
use crate::shieldctl::{effective_mask, ShieldCtl};
use crate::syscall::SyscallService;
use crate::task::{
    BlockReason, KernelPlan, Phase, PlanEnd, PlannedStep, Task, TaskSpec, TaskState,
};
use simcore::flight::{ActivityClass, FlightEvent, FlightEventKind};
use simcore::{pack_key, EventKey, Instant, Nanos, SimRng, WheelQueue};
use sp_hw::{exec_context_mask, CpuId, CpuMask, IrqRouting, MachineConfig};
use std::collections::VecDeque;
use std::sync::Arc;

/// Total pending softirq work a CPU may accumulate before drops (a starving
/// configuration; drops are counted, not silent).
const SOFTIRQ_PENDING_CAP: Nanos = Nanos::from_ms(50);

/// `seg_end` value of a CPU with no armed segment end: above every real
/// packed key, so the earliest-deadline scan never picks it.
const DISARMED: u128 = u128::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Tick { cpu: u32 },
    Device { dev: u32, tag: u64 },
    SleepWake { pid: u32 },
}

#[derive(Debug, Clone, Copy)]
enum ActKind {
    User,
    Kernel { step: PlannedStep },
    SpinWait { lock: LockId, irqs_off: bool },
    Isr { dev: DeviceId, asserted: Instant },
    Softirq,
    Tick,
    Switch { to: Pid },
    /// The schedulable half of a `threaded_irqs` split: the device body
    /// running as an irq thread, interruptible but never task-preempted.
    IrqThread { dev: DeviceId, asserted: Instant },
}

#[derive(Debug, Clone, Copy)]
struct Activity {
    kind: ActKind,
    remaining: Nanos,
    since: Instant,
    slowdown: f64,
}

#[derive(Debug, Clone, Copy)]
struct PendingIrq {
    dev: DeviceId,
    asserted: Instant,
}

/// A device body waiting for its irq thread to be scheduled
/// (`threaded_irqs`): the work was drawn when the hard ack finished, so a
/// deferred run costs no extra RNG draws.
#[derive(Debug, Clone, Copy)]
struct PendingIrqThread {
    dev: DeviceId,
    asserted: Instant,
    work: Nanos,
}

#[derive(Debug, Clone)]
struct CpuSim {
    current: Option<Activity>,
    /// Interrupted activities (task at the bottom, then softirq, then...).
    suspended: Vec<Activity>,
    pending_irqs: VecDeque<PendingIrq>,
    pending_irq_threads: VecDeque<PendingIrqThread>,
    pending_softirq: VecDeque<(SoftirqClass, Nanos)>,
    pending_softirq_total: Nanos,
    need_resched: bool,
    local_timer_on: bool,
    /// CPU is inside interrupt context (ISR/tick/softirq processing), even
    /// between activities while the handler's outcome is being applied.
    in_irq: bool,
}

impl CpuSim {
    fn new() -> Self {
        CpuSim {
            current: None,
            suspended: Vec::new(),
            pending_irqs: VecDeque::new(),
            pending_irq_threads: VecDeque::new(),
            pending_softirq: VecDeque::new(),
            pending_softirq_total: Nanos::ZERO,
            need_resched: false,
            local_timer_on: true,
            in_irq: false,
        }
    }
}

/// The simulator. See the crate docs for the model; see `sp-experiments` for
/// ready-made scenario builders matching the paper's figures.
///
/// `clone()` forks the whole simulation: the clone continues bit-identically
/// to the original, so a warm simulator can seed any number of forked runs.
#[derive(Clone)]
pub struct Simulator {
    machine: MachineConfig,
    cfg: KernelConfig,
    now: Instant,
    queue: WheelQueue<Ev>,
    rng: SimRng,
    tasks: Vec<Task>,
    cpus: Vec<CpuSim>,
    // Struct-of-arrays columns for the per-CPU fields the dispatch loop
    // touches on every event, kept out of `CpuSim` so one cache line covers
    // all CPUs instead of one line per CPU:
    /// Bit `c` set ⇔ logical CPU `c` is executing something (for the
    /// contention model); stays set across same-instant activity handoffs.
    busy_mask: u64,
    /// The task context installed on each CPU (running or suspended there).
    cpu_task: Vec<Option<Pid>>,
    /// When each CPU last stopped executing, in ns (longest-idle placement).
    cpu_last_busy_ns: Vec<u64>,
    /// The armed end of each CPU's current activity as one packed
    /// `(at, seq)` key ([`DISARMED`] while idle or spinning): the CPU's
    /// local deadline, held here rather than in `queue`. Its `seq` comes
    /// from the queue's own counter ([`WheelQueue::reserve_seq`]), so
    /// `run_until` merges these deadlines with the queue in exact
    /// `(at, seq)` order.
    seg_end: Vec<u128>,
    /// The armed local-timer event per CPU (`None` when the timer is off).
    tick_keys: Vec<Option<EventKey>>,
    sched: SchedulerKind,
    locks: LockTable,
    devices: Vec<DeviceSlot>,
    syscalls: Vec<SyscallService>,
    pub obs: Observations,
    /// Worst-case flight recorder and the simulator's one event record;
    /// disarmed (zero-cost) by default. It is pure observation: arming it
    /// changes no simulated behaviour. A [`Checkpoint`] holds it disarmed
    /// and [`Simulator::restore`] keeps the restoring simulator's own.
    pub flight: FlightRecorder,
    shield: ShieldCtl,
    started: bool,
    /// Total events dispatched by [`run_until`], for throughput reporting.
    ///
    /// [`run_until`]: Simulator::run_until
    events_dispatched: u64,
    // Scratch buffer reused across dispatches so the hot loop stays
    // allocation-free; contents are only valid while building a waiter
    // snapshot, never across calls.
    scratch_spinners: Vec<Pid>,
    /// The context every device callback runs in; its command buffer is
    /// reused, so dispatch stays allocation-free.
    device_ctx: DeviceCtx,
    /// Retired `KernelPlan` step buffers, reused by the plan builders so the
    /// syscall/wake cycle doesn't malloc+free a `Vec` per plan. Capacity
    /// only — contents are cleared on recycle.
    plan_pool: Vec<Vec<PlannedStep>>,
}

impl Simulator {
    pub fn new(machine: MachineConfig, cfg: KernelConfig, seed: u64) -> Self {
        machine.validate().expect("invalid machine config");
        cfg.validate().expect("invalid kernel config");
        let n = machine.logical_cpus() as usize;
        let sched = build_scheduler(cfg.o1_scheduler, machine.logical_cpus());
        Simulator {
            machine,
            cfg,
            now: Instant::ZERO,
            queue: WheelQueue::new(),
            rng: SimRng::new(seed),
            tasks: Vec::new(),
            cpus: (0..n).map(|_| CpuSim::new()).collect(),
            busy_mask: 0,
            cpu_task: vec![None; n],
            cpu_last_busy_ns: vec![0; n],
            seg_end: vec![DISARMED; n],
            tick_keys: vec![None; n],
            sched,
            locks: LockTable::new(),
            devices: Vec::new(),
            syscalls: Vec::new(),
            obs: Observations::new(n),
            flight: FlightRecorder::disarmed(),
            shield: ShieldCtl::NONE,
            started: false,
            events_dispatched: 0,
            scratch_spinners: Vec::with_capacity(n),
            device_ctx: DeviceCtx::default(),
            plan_pool: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Registration (before or after start)
    // ------------------------------------------------------------------

    /// Register a device; its IRQ line starts with an all-CPUs affinity.
    ///
    /// Concrete device types convert into [`AnyDevice`] variants whose
    /// hot-path dispatch is a match, not a vtable call; mock or third-party
    /// devices go through [`AnyDevice::custom`].
    pub fn add_device(&mut self, dev: impl Into<AnyDevice>) -> DeviceId {
        assert!(!self.started, "devices must be registered before start()");
        let dev = dev.into();
        let id = DeviceId(self.devices.len() as u32);
        let line = dev.line();
        assert!(self.device_by_line(line).is_none(), "irq line {line} already in use");
        let online = self.machine.online_mask();
        let routing =
            IrqRouting::new(line, effective_mask(online, self.shield.irqs, online), self.cfg.routing);
        // Cached here so every wake-exit plan doesn't re-query the device.
        let exit_work = dev.reader_exit_work();
        self.devices.push(DeviceSlot {
            dev,
            rng: self.rng.fork(0x1000 + id.0 as u64),
            requested: online,
            routing,
            irq_counts: vec![0; self.cpus.len()],
            exit_work,
            waiters: Vec::new(),
        });
        id
    }

    /// Register a syscall profile for use in task programs.
    pub fn register_syscall(&mut self, svc: SyscallService) -> SyscallId {
        svc.validate().expect("invalid syscall profile");
        let id = SyscallId(self.syscalls.len() as u32);
        self.syscalls.push(svc);
        id
    }

    /// Create a task. Tasks spawned before `start()` begin at time zero;
    /// afterwards they are woken immediately.
    pub fn spawn(&mut self, spec: TaskSpec) -> Pid {
        validate_program(&spec);
        let pid = Pid(self.tasks.len() as u32);
        let online = self.machine.online_mask();
        let mut task = Task::from_spec(pid, spec, online);
        task.effective_affinity =
            effective_mask(task.requested_affinity, self.shield.procs, online);
        task.last_cpu = task.effective_affinity.first().expect("non-empty");
        self.tasks.push(task);
        if self.started {
            self.make_runnable(pid);
        }
        pid
    }

    // ------------------------------------------------------------------
    // Control-plane API (used by the sp-core shield layer and experiments)
    // ------------------------------------------------------------------

    pub fn now(&self) -> Instant {
        self.now
    }

    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    pub fn shield(&self) -> ShieldCtl {
        self.shield
    }

    pub fn task(&self, pid: Pid) -> &Task {
        &self.tasks[pid.index()]
    }

    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    pub fn lock_stats(&self) -> &LockTable {
        &self.locks
    }

    /// Inventory of registered interrupt lines (for the `/proc/irq`
    /// interface layer and reports).
    pub fn irq_lines(&self) -> Vec<IrqInfo> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, slot)| IrqInfo {
                dev: DeviceId(i as u32),
                line: slot.routing.line,
                name: slot.dev.name().to_string(),
                requested: slot.requested,
                effective: slot.routing.affinity,
            })
            .collect()
    }

    /// Find a device by its IRQ line number.
    pub fn device_by_line(&self, line: sp_hw::IrqLine) -> Option<DeviceId> {
        let i = self.devices.iter().position(|slot| slot.routing.line == line)?;
        Some(DeviceId(i as u32))
    }

    /// Read-only view of a registered device — a pure observation feed for
    /// controllers and telemetry (device state is part of the checkpoint
    /// image, so decisions taken from it replay identically across forks).
    pub fn device(&self, dev: DeviceId) -> &AnyDevice {
        &self.devices[dev.index()].dev
    }

    /// Interrupts handled by `dev`, per CPU (a /proc/interrupts row).
    pub fn irq_counts(&self, dev: DeviceId) -> &[u64] {
        &self.devices[dev.index()].irq_counts
    }

    /// `sched_setaffinity`: change a task's requested mask. The effective
    /// mask is recomputed under the current shield.
    pub fn set_task_affinity(&mut self, pid: Pid, mask: CpuMask) -> Result<(), String> {
        let online = self.machine.online_mask();
        if (mask & online).is_empty() {
            return Err(format!("{pid}: affinity excludes all online CPUs"));
        }
        self.tasks[pid.index()].requested_affinity = mask & online;
        self.refresh_task_affinity(pid);
        Ok(())
    }

    /// `sched_setscheduler`: change a task's policy/priority at runtime.
    pub fn set_task_policy(&mut self, pid: Pid, policy: crate::task::SchedPolicy) {
        let old = self.tasks[pid.index()].policy;
        if old == policy {
            return;
        }
        self.tasks[pid.index()].policy = policy;
        match self.tasks[pid.index()].state {
            TaskState::Ready => {
                // Requeue at the new priority.
                self.sched.on_block(pid);
                self.tasks[pid.index()].timeslice = Nanos::ZERO;
                self.make_runnable(pid);
            }
            TaskState::Running => {
                // A downgrade may let someone queued preempt at the next
                // boundary; an upgrade needs nothing (it already runs).
                let cpu = self.tasks[pid.index()].last_cpu;
                self.cpus[cpu.index()].need_resched = true;
                self.try_preempt_now(cpu);
            }
            TaskState::Blocked(_) | TaskState::Exited => {}
        }
    }

    /// `/proc/irq/<n>/smp_affinity`: change a device IRQ's requested mask.
    pub fn set_irq_affinity(&mut self, dev: DeviceId, mask: CpuMask) -> Result<(), String> {
        let online = self.machine.online_mask();
        if (mask & online).is_empty() {
            return Err(format!("{dev}: affinity excludes all online CPUs"));
        }
        let slot = &mut self.devices[dev.index()];
        slot.requested = mask & online;
        slot.routing.set_affinity(effective_mask(mask & online, self.shield.irqs, online))
    }

    /// Install new shield masks, recomputing every task and IRQ affinity and
    /// migrating whatever no longer belongs (the dynamic enable of §3).
    /// Requires a kernel with shield support.
    pub fn set_shield(&mut self, ctl: ShieldCtl) -> Result<(), String> {
        if !self.cfg.shield_support && !ctl.is_none() {
            return Err(format!("{} has no shield support", self.cfg.variant));
        }
        let online = self.machine.online_mask();
        if ctl.procs == online || ctl.irqs == online {
            return Err("refusing to shield every online CPU".into());
        }
        self.shield = ctl;
        if self.flight.is_armed() {
            self.flight.record(FlightEvent::instant(
                self.now,
                None,
                FlightEventKind::ShieldSet,
                ctl.procs.count() as u64,
            ));
        }
        // IRQ routing.
        for slot in &mut self.devices {
            slot.routing.set_affinity(effective_mask(slot.requested, ctl.irqs, online))?;
        }
        // Local timers.
        for cpu in self.machine.cpus() {
            self.set_local_timer(cpu, !ctl.ltmrs.contains(cpu));
        }
        // Tasks.
        for i in 0..self.tasks.len() {
            self.refresh_task_affinity(Pid(i as u32));
        }
        Ok(())
    }

    /// Enable or disable the local timer interrupt on one CPU.
    pub fn set_local_timer(&mut self, cpu: CpuId, on: bool) {
        let i = cpu.index();
        if self.cpus[i].local_timer_on == on {
            return;
        }
        self.cpus[i].local_timer_on = on;
        if on {
            if self.started {
                self.arm_tick(i, self.now + self.cfg.jiffy());
            }
        } else if let Some(key) = self.tick_keys[i].take() {
            self.queue.cancel(key);
        }
    }

    /// Deliver an out-of-band control message to a device — the
    /// fault-injection arm/disarm path. The callback runs at the current
    /// virtual time with the same powers as `on_timer` (it may schedule
    /// events and assert the IRQ line); devices that don't implement
    /// [`Device::control`] ignore it. This is a control-plane entry point:
    /// the event dispatch loop never calls it, so an injector that is
    /// registered but never armed costs the hot loop nothing.
    pub fn device_control(&mut self, dev: DeviceId, cmd: u64) {
        self.with_device(dev, |d, ctx, rng| d.control(cmd, ctx, rng));
    }

    /// Whether `start()` has run (devices can only be registered before).
    pub fn started(&self) -> bool {
        self.started
    }

    /// Record wake-to-user latencies for `pid`'s `WaitIrq` ops.
    pub fn watch_latency(&mut self, pid: Pid) {
        self.obs.watch_latency(pid);
    }

    /// Additionally record the completion instant of each latency sample for
    /// `pid` (the time-resolved view used to measure reconfiguration
    /// transients, e.g. how fast a mid-run re-shield restores the bound).
    pub fn watch_latency_times(&mut self, pid: Pid) {
        self.obs.watch_latency_times(pid);
    }

    /// Record `MarkLap` timestamps for `pid`.
    pub fn watch_laps(&mut self, pid: Pid) {
        self.obs.watch_laps(pid);
    }

    /// Record per-sample wake-latency breakdowns for `pid`.
    pub fn watch_breakdown(&mut self, pid: Pid) {
        self.obs.watch_breakdown(pid);
    }

    /// Arm the worst-case flight recorder, keeping the `top_k` worst
    /// watched samples' causal windows. Pure observation: arming changes no
    /// simulated behaviour (verdicts stay bit-identical), and costs one
    /// predicted branch per hook while disarmed.
    pub fn arm_flight(&mut self, top_k: usize) {
        self.flight = FlightRecorder::armed(top_k);
    }

    fn refresh_task_affinity(&mut self, pid: Pid) {
        let online = self.machine.online_mask();
        let req = self.tasks[pid.index()].requested_affinity;
        let eff = effective_mask(req, self.shield.procs, online);
        if self.tasks[pid.index()].effective_affinity == eff {
            return;
        }
        self.tasks[pid.index()].effective_affinity = eff;
        if !self.started {
            self.tasks[pid.index()].last_cpu = eff.first().expect("non-empty");
            return;
        }
        match self.tasks[pid.index()].state {
            TaskState::Ready => {
                let view = CpuView {
                    online,
                    running: &self.cpu_task,
                    idle_since: &self.cpu_last_busy_ns,
                };
                if let Some(target) =
                    self.sched.on_affinity_change(pid, &mut self.tasks, &view)
                {
                    self.kick_cpu(target);
                }
            }
            TaskState::Running => {
                let cpu = self.tasks[pid.index()].last_cpu;
                if !eff.contains(cpu) {
                    // Migrate off: preempt at the next legal point.
                    self.cpus[cpu.index()].need_resched = true;
                    self.try_preempt_now(cpu);
                }
            }
            TaskState::Blocked(_) | TaskState::Exited => {}
        }
    }

    // ------------------------------------------------------------------
    // Running
    // ------------------------------------------------------------------

    /// Start the simulation: arm device and timer events, place initial tasks.
    pub fn start(&mut self) {
        assert!(!self.started, "start() called twice");
        self.started = true;
        // Local timer ticks, staggered so CPUs don't tick in lockstep.
        let jiffy = self.cfg.jiffy();
        for cpu in 0..self.cpus.len() {
            if self.cpus[cpu].local_timer_on {
                let phase = Nanos(jiffy.as_ns() * (cpu as u64 + 1) / (self.cpus.len() as u64 + 1));
                self.arm_tick(cpu, self.now + phase);
            }
        }
        // Devices.
        for d in 0..self.devices.len() {
            self.with_device(DeviceId(d as u32), |dev, ctx, rng| dev.start(ctx, rng));
        }
        // Initial task placement.
        for i in 0..self.tasks.len() {
            self.make_runnable(Pid(i as u32));
        }
    }

    /// Advance virtual time to `t`, processing all events on the way.
    pub fn run_until(&mut self, t: Instant) {
        assert!(self.started, "call start() first");
        let limit = pack_key(t, u64::MAX);
        loop {
            // Whichever holds the smaller exact key fires next: the earliest
            // armed segment end or the queue head (seqs are unique, so the
            // two never tie).
            let (cpu, seg) = self.next_seg_end();
            if let Some((at, ev)) = self.queue.pop_until(seg.min(limit)) {
                debug_assert!(at >= self.now, "event from the past");
                self.now = at;
                self.events_dispatched += 1;
                self.dispatch(ev);
            } else if seg != DISARMED && seg <= limit {
                let at = Instant((seg >> 64) as u64);
                debug_assert!(at >= self.now, "segment end from the past");
                self.now = at;
                self.events_dispatched += 1;
                self.handle_seg_end(cpu);
            } else {
                break;
            }
            #[cfg(debug_assertions)]
            self.check_seg_ends();
        }
        self.now = self.now.max(t);
    }

    /// Total events dispatched so far, for events/sec throughput reports.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Advance virtual time by `d`.
    pub fn run_for(&mut self, d: Nanos) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// The CPU with the earliest armed segment end and its packed key
    /// ([`DISARMED`] when no CPU has one).
    #[inline]
    fn next_seg_end(&self) -> (usize, u128) {
        let mut best = (0, DISARMED);
        for (cpu, &key) in self.seg_end.iter().enumerate() {
            if key < best.1 {
                best = (cpu, key);
            }
        }
        best
    }

    /// Debug-build invariant, checked after every dispatch: a CPU's segment
    /// end is armed exactly when its current activity exists and is not a
    /// spin wait (a spin ends on a lock grant, never by time), and no armed
    /// deadline lies before `now`.
    #[cfg(debug_assertions)]
    fn check_seg_ends(&self) {
        for (cpu, &key) in self.seg_end.iter().enumerate() {
            let timed = self.cpus[cpu]
                .current
                .as_ref()
                .is_some_and(|act| !matches!(act.kind, ActKind::SpinWait { .. }));
            assert_eq!(key != DISARMED, timed, "cpu{cpu}: segment end armed ⇔ timed activity");
            assert!(
                key == DISARMED || (key >> 64) as u64 >= self.now.as_ns(),
                "cpu{cpu}: armed segment end lies before now"
            );
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Tick { cpu } => self.handle_tick(cpu as usize),
            Ev::Device { dev, tag } => {
                self.with_device(DeviceId(dev), |d, ctx, rng| d.on_timer(tag, ctx, rng));
            }
            Ev::SleepWake { pid } => {
                let pid = Pid(pid);
                if self.tasks[pid.index()].state == TaskState::Blocked(BlockReason::Sleep) {
                    self.wake_task(pid, None);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Activity plumbing
    // ------------------------------------------------------------------

    /// Arm `cpu`'s segment end for `act`, starting now: one array write,
    /// which also overwrites any deadline armed before.
    #[inline]
    fn arm_seg_end(&mut self, cpu: usize, act: &Activity) {
        let wall = act.remaining.scale(act.slowdown).max(Nanos(1));
        let seq = self.queue.reserve_seq();
        self.seg_end[cpu] = pack_key(self.now + wall, seq);
    }

    #[inline]
    fn sample_slowdown(&mut self, cpu: usize) -> f64 {
        let ctx = exec_context_mask(&self.machine, CpuId(cpu as u32), self.busy_mask);
        self.cfg.contention.sample_slowdown(ctx, &mut self.rng)
    }

    fn is_fully_idle(&self, cpu: usize) -> bool {
        let c = &self.cpus[cpu];
        c.current.is_none()
            && c.suspended.is_empty()
            && self.cpu_task[cpu].is_none()
            && !c.in_irq
            && c.pending_irq_threads.is_empty()
    }

    /// Install a fresh activity as current on an empty CPU.
    fn install(&mut self, cpu: usize, kind: ActKind, work: Nanos) {
        debug_assert!(self.cpus[cpu].current.is_none(), "cpu{cpu} busy");
        debug_assert_eq!(self.seg_end[cpu], DISARMED, "stale seg_end on cpu{cpu}");
        let bit = 1u64 << cpu;
        let was_idle = self.busy_mask & bit == 0;
        self.busy_mask |= bit;
        let slowdown = self.sample_slowdown(cpu);
        let act = Activity { kind, remaining: work, since: self.now, slowdown };
        if !matches!(act.kind, ActKind::SpinWait { .. }) {
            self.arm_seg_end(cpu, &act);
        }
        self.cpus[cpu].current = Some(act);
        if was_idle {
            self.reprice_others(cpu);
        }
    }

    /// Account the wall time the current activity consumed since `since`,
    /// deduct the work done, and leave it cancelled (segment end disarmed).
    fn checkpoint_current(&mut self, cpu: usize) -> Option<Activity> {
        // Update the activity in its slot and copy it out before clearing
        // the slot: `Option::take` would move the payload first and then
        // reload `since` from that fresh copy, a store-to-load forwarding
        // stall on the event loop's hottest path.
        let now = self.now;
        let act = self.cpus[cpu].current.as_mut()?;
        let wall = now.since(act.since);
        let done = Nanos((wall.as_ns() as f64 / act.slowdown) as u64);
        act.remaining = act.remaining.saturating_sub(done);
        act.since = now;
        let act = *act;
        self.cpus[cpu].current = None;
        self.seg_end[cpu] = DISARMED;
        self.account(cpu, &act.kind, wall);
        Some(act)
    }

    /// Suspend the current activity under an interrupt.
    fn suspend_current(&mut self, cpu: usize) {
        if let Some(act) = self.checkpoint_current(cpu) {
            self.cpus[cpu].suspended.push(act);
        }
    }

    /// Resume the most recently suspended activity.
    fn resume_top(&mut self, cpu: usize) {
        let mut act = self.cpus[cpu].suspended.pop().expect("nothing to resume");
        act.since = self.now;
        act.slowdown = self.sample_slowdown(cpu);
        if !matches!(act.kind, ActKind::SpinWait { .. }) {
            self.arm_seg_end(cpu, &act);
        }
        self.cpus[cpu].current = Some(act);
    }

    /// Re-evaluate the slowdown of every *other* CPU's running activity after
    /// a busy/idle transition (hyperthread sibling / memory contention).
    fn reprice_others(&mut self, changed: usize) {
        for cpu in 0..self.cpus.len() {
            if cpu == changed {
                continue;
            }
            if self.seg_end[cpu] == DISARMED {
                continue;
            }
            if let Some(mut act) = self.checkpoint_current(cpu) {
                if act.remaining.is_zero() {
                    // Its end was due now anyway; finish it on schedule.
                    act.remaining = Nanos(1);
                }
                act.slowdown = self.sample_slowdown(cpu);
                self.arm_seg_end(cpu, &act);
                self.cpus[cpu].current = Some(act);
            }
        }
    }

    fn account(&mut self, cpu: usize, kind: &ActKind, wall: Nanos) {
        let acc = &mut self.obs.cpu[cpu];
        match kind {
            ActKind::User => acc.user += wall,
            ActKind::Kernel { .. } => acc.kernel += wall,
            ActKind::SpinWait { lock, .. } => {
                acc.spin += wall;
                self.locks.get_mut(*lock).add_spin_time(wall);
            }
            ActKind::Isr { .. } => acc.isr += wall,
            ActKind::Softirq => acc.softirq += wall,
            ActKind::Tick => acc.tick += wall,
            ActKind::Switch { .. } => acc.switching += wall,
            ActKind::IrqThread { .. } => acc.irq_thread += wall,
        }
        if let Some(pid) = self.cpu_task[cpu] {
            if matches!(kind, ActKind::User | ActKind::Kernel { .. }) {
                self.tasks[pid.index()].cpu_time += wall;
            }
        }
        if self.flight.is_armed() && !wall.is_zero() {
            let (class, detail) = match kind {
                ActKind::User => (ActivityClass::User, 0),
                ActKind::Kernel { .. } => (ActivityClass::Kernel, 0),
                ActKind::SpinWait { lock, .. } => (ActivityClass::Spin, lock.0 as u64),
                ActKind::Isr { dev, .. } => (ActivityClass::Isr, dev.0 as u64),
                ActKind::Softirq => (ActivityClass::Softirq, 0),
                ActKind::Tick => (ActivityClass::Tick, 0),
                ActKind::Switch { to } => (ActivityClass::Switch, to.0 as u64),
                ActKind::IrqThread { dev, .. } => (ActivityClass::IrqThread, dev.0 as u64),
            };
            // Spans are accounted when they end or are checkpointed, so the
            // start is `now - wall`.
            self.flight.record(FlightEvent::span(
                self.now - wall,
                wall,
                cpu as u32,
                class,
                detail,
            ));
        }
    }

    // ------------------------------------------------------------------
    // Interrupt delivery
    // ------------------------------------------------------------------

    fn cpu_can_take_irq(&self, cpu: usize) -> bool {
        if self.cpus[cpu].in_irq {
            return false;
        }
        match &self.cpus[cpu].current {
            None => true,
            Some(act) => match &act.kind {
                ActKind::Isr { .. } | ActKind::Tick => false,
                ActKind::Kernel { step } => !step.irqs_off,
                ActKind::SpinWait { irqs_off, .. } => !irqs_off,
                _ => true,
            },
        }
    }

    fn assert_irq(&mut self, dev: DeviceId) {
        let online = self.machine.online_mask();
        let cpu = self.devices[dev.index()].routing.route(online);
        let pend = PendingIrq { dev, asserted: self.now };
        let c = cpu.index();
        if self.flight.is_armed() {
            self.flight.record(FlightEvent::instant(
                self.now,
                Some(cpu.0),
                FlightEventKind::IrqAssert,
                dev.0 as u64,
            ));
        }
        if self.cpu_can_take_irq(c) && self.cpus[c].pending_irqs.is_empty() {
            self.begin_isr(c, pend);
        } else {
            self.cpus[c].pending_irqs.push_back(pend);
        }
    }

    fn begin_isr(&mut self, cpu: usize, pend: PendingIrq) {
        let entry = self.cfg.costs.irq_entry.sample(&mut self.rng);
        let exit = self.cfg.costs.irq_exit.sample(&mut self.rng);
        // Threaded mode: the hard handler is only mask-line + wake-thread;
        // the device body is drawn (from the device's own stream) when the
        // ack finishes and runs as an `IrqThread` activity instead.
        let body = if self.cfg.threaded_irqs {
            self.cfg.costs.irq_ack.sample(&mut self.rng)
        } else {
            let slot = &mut self.devices[pend.dev.index()];
            slot.dev.isr_cost(&mut slot.rng)
        };
        self.suspend_current(cpu);
        self.cpus[cpu].in_irq = true;
        self.obs.cpu[cpu].irqs += 1;
        self.devices[pend.dev.index()].irq_counts[cpu] += 1;
        self.install(
            cpu,
            ActKind::Isr { dev: pend.dev, asserted: pend.asserted },
            entry + body + exit,
        );
    }

    /// Run a device callback in the device's slot, then apply the commands
    /// it issued.
    fn with_device<R>(
        &mut self,
        dev: DeviceId,
        f: impl FnOnce(&mut AnyDevice, &mut DeviceCtx, &mut SimRng) -> R,
    ) -> R {
        // Taken out so `assert_irq` below can borrow the simulator; the
        // buffer goes back with its capacity.
        let mut ctx = std::mem::take(&mut self.device_ctx);
        let slot = &mut self.devices[dev.index()];
        ctx.now = self.now;
        ctx.waiters = slot.waiters.len();
        let out = f(&mut slot.dev, &mut ctx, &mut slot.rng);
        for &cmd in &ctx.commands {
            match cmd {
                DeviceCmd::Schedule { delay, tag } => {
                    self.queue.push(self.now + delay, Ev::Device { dev: dev.0, tag });
                }
                DeviceCmd::AssertIrq => self.assert_irq(dev),
            }
        }
        ctx.commands.clear();
        self.device_ctx = ctx;
        out
    }

    fn handle_tick(&mut self, cpu: usize) {
        if !self.cpus[cpu].local_timer_on {
            self.tick_keys[cpu] = None;
            return;
        }
        if self.cfg.nohz_full
            && self.shield.procs.contains(CpuId(cpu as u32))
            && self.nohz_full_quiescent(cpu)
        {
            // Full tick elimination on a process-shielded CPU running at
            // most one task: the tick does no work (no cost draw, no
            // activity) and re-arms one second ahead *on the original
            // grid* — the residual 1 Hz housekeeping tick, offloaded as in
            // Linux ≥ 4.17 so it costs this CPU nothing. All grid points
            // covered by the hop are counted as elided.
            let stride = self.cfg.local_timer_hz as u64;
            self.arm_tick(cpu, self.now + Nanos(stride * self.cfg.jiffy().as_ns()));
            self.obs.cpu[cpu].ticks_elided += stride;
            if self.flight.is_armed() {
                self.flight.record(FlightEvent::instant(
                    self.now,
                    Some(cpu as u32),
                    FlightEventKind::TicksElided,
                    stride,
                ));
            }
            return;
        }
        self.arm_tick(cpu, self.now + self.cfg.jiffy());
        if !self.cpu_can_take_irq(cpu) {
            // Delivery masked; the tick is lost (real hardware would pend it,
            // but irq-off windows are ≪ a jiffy so the distinction is noise).
            return;
        }
        let cost = self.cfg.costs.tick.sample(&mut self.rng);
        self.suspend_current(cpu);
        self.cpus[cpu].in_irq = true;
        self.obs.cpu[cpu].ticks += 1;
        self.install(cpu, ActKind::Tick, cost);
    }

    /// `nohz_full`: can this shielded CPU's tick be stopped? True while no
    /// Ready task could be placed here — with at most the one installed
    /// task there is nothing to timeslice between, and every other tick
    /// duty (sleep timers, softirq drains) rides its own queue events.
    fn nohz_full_quiescent(&self, cpu: usize) -> bool {
        !self.tasks.iter().any(|t| {
            t.state == TaskState::Ready && t.effective_affinity.contains(CpuId(cpu as u32))
        })
    }

    /// Arm `cpu`'s local-timer event at `at`.
    fn arm_tick(&mut self, cpu: usize, at: Instant) {
        let key = self.queue.push(at, Ev::Tick { cpu: cpu as u32 });
        self.tick_keys[cpu] = Some(key);
    }

    // ------------------------------------------------------------------
    // Segment completion
    // ------------------------------------------------------------------

    fn handle_seg_end(&mut self, cpu: usize) {
        self.seg_end[cpu] = DISARMED;
        // Read the finished activity in place (see `checkpoint_current`).
        let act = self.cpus[cpu].current.as_ref().expect("armed segment end without an activity");
        let (kind, wall) = (act.kind, self.now.since(act.since));
        self.cpus[cpu].current = None;
        self.account(cpu, &kind, wall);
        match kind {
            ActKind::User => {
                let pid = self.cpu_task[cpu].expect("user work without task");
                self.advance_op(pid);
                self.continue_on_cpu(cpu);
            }
            ActKind::Kernel { step } => {
                let pid = self.cpu_task[cpu].expect("kernel work without task");
                if let Some(lock) = step.lock {
                    // Prefer a waiter that is actively spinning right now
                    // (its CPU's current activity is the spin): a waiter
                    // suspended under an interrupt cannot test-and-set.
                    self.scratch_spinners.clear();
                    for (i, c) in self.cpus.iter().enumerate() {
                        if let (Some(act), Some(p)) = (&c.current, self.cpu_task[i]) {
                            if matches!(act.kind, ActKind::SpinWait { .. }) {
                                self.scratch_spinners.push(p);
                            }
                        }
                    }
                    let spinners = &self.scratch_spinners;
                    let next = self
                        .locks
                        .get_mut(lock)
                        .release(pid, self.now, |w| spinners.contains(&w));
                    if let Some(next_pid) = next {
                        self.grant_lock(next_pid);
                    }
                }
                self.kernel_step_done(cpu, pid);
            }
            ActKind::Isr { dev, asserted } => {
                self.finish_isr(cpu, dev, asserted);
            }
            ActKind::IrqThread { dev, asserted } => {
                self.finish_irq_thread(cpu, dev, asserted);
            }
            ActKind::Softirq => {
                self.after_irq(cpu);
            }
            ActKind::Tick => {
                if let Some(pid) = self.cpu_task[cpu] {
                    if self.tasks[pid.index()].state == TaskState::Running
                        && self.sched.on_tick(CpuId(cpu as u32), pid, &mut self.tasks)
                    {
                        self.cpus[cpu].need_resched = true;
                    }
                }
                self.after_irq(cpu);
            }
            ActKind::Switch { to } => {
                self.obs.cpu[cpu].switches += 1;
                debug_assert_eq!(self.cpu_task[cpu], Some(to));
                self.continue_on_cpu(cpu);
            }
            ActKind::SpinWait { .. } => unreachable!("spin waits have no end event"),
        }
    }

    fn finish_isr(&mut self, cpu: usize, dev: DeviceId, asserted: Instant) {
        if self.cfg.threaded_irqs {
            // The hard ack is done; draw the device body now and queue it
            // for the line's irq thread. Thread affinity obeys *process*
            // shielding — a line deliberately bound inside the shield keeps
            // its thread local (the inside-shield rule), everything else is
            // fenced to an unshielded CPU.
            let slot = &mut self.devices[dev.index()];
            let work = slot.dev.isr_cost(&mut slot.rng);
            let target = self.irq_thread_target(cpu, dev);
            self.cpus[target].pending_irq_threads.push_back(PendingIrqThread {
                dev,
                asserted,
                work,
            });
            if self.flight.is_armed() {
                self.flight.record(FlightEvent::instant(
                    self.now,
                    Some(target as u32),
                    FlightEventKind::IrqThreadWake,
                    dev.0 as u64,
                ));
            }
            if target != cpu && self.is_fully_idle_except_threads(target) {
                // Idle remote target: start the thread now, charging the
                // idle-exit cost (begin_switch drains the queue for us).
                self.begin_switch(target, true);
            }
            self.after_irq(cpu);
            return;
        }
        self.deliver_isr_outcome(cpu, dev, asserted);
        self.after_irq(cpu);
    }

    /// CPU on which `dev`'s irq thread runs: the hard-ack CPU when the
    /// line's requested affinity (minus the process shield) allows it,
    /// otherwise the first allowed CPU.
    fn irq_thread_target(&self, cpu: usize, dev: DeviceId) -> usize {
        let online = self.machine.online_mask();
        let eff = effective_mask(self.devices[dev.index()].requested, self.shield.procs, online);
        if eff.contains(CpuId(cpu as u32)) {
            cpu
        } else {
            eff.first().expect("effective mask non-empty").index()
        }
    }

    /// Like [`Simulator::is_fully_idle`] but ignoring the pending-thread
    /// queue itself (used to decide whether a freshly queued thread can
    /// start on an otherwise idle remote CPU).
    fn is_fully_idle_except_threads(&self, cpu: usize) -> bool {
        let c = &self.cpus[cpu];
        c.current.is_none()
            && c.suspended.is_empty()
            && self.cpu_task[cpu].is_none()
            && !c.in_irq
    }

    /// Start one queued irq-thread body on `cpu` (whose current is empty).
    /// `extra` carries the idle-exit (or IPI) cost of getting the thread on
    /// CPU. Like softirq bursts, the body runs with interrupts enabled.
    fn begin_irq_thread(&mut self, cpu: usize, p: PendingIrqThread, extra: Nanos) {
        debug_assert!(self.cpus[cpu].current.is_none());
        self.install(cpu, ActKind::IrqThread { dev: p.dev, asserted: p.asserted }, extra + p.work);
        self.cpus[cpu].in_irq = false;
    }

    /// An irq-thread body finished: deliver the device outcome (wakes,
    /// softirqs) exactly as a classic in-ISR body would have.
    fn finish_irq_thread(&mut self, cpu: usize, dev: DeviceId, asserted: Instant) {
        // Completion runs in irq-disabled handler context: a wake targeting
        // this CPU must go through `need_resched`/`after_irq`, not reenter
        // a switch while we are still finishing.
        self.cpus[cpu].in_irq = true;
        self.deliver_isr_outcome(cpu, dev, asserted);
        self.after_irq(cpu);
    }

    /// Shared tail of the classic ISR and the threaded-IRQ body: ask the
    /// device what the interrupt meant, raise softirqs, wake the I/O
    /// submitter it completed, then every task waiting on the interrupt.
    fn deliver_isr_outcome(&mut self, cpu: usize, dev: DeviceId, asserted: Instant) {
        let outcome = self.with_device(dev, |d, ctx, rng| d.on_isr(ctx, rng));
        if let Some((class, work)) = outcome.softirq {
            self.raise_softirq(cpu, class, work);
        }
        if let Some(pid) = outcome.wake {
            self.wake_task(pid, Some(asserted));
        }
        let mut waiters = std::mem::take(&mut self.devices[dev.index()].waiters);
        for &pid in &waiters {
            self.wake_task(pid, Some(asserted));
        }
        // Hand the allocation back for the next round of waiters. A woken
        // task needs CPU time before it can block again, so none has yet.
        let slot = &mut self.devices[dev.index()];
        debug_assert!(slot.waiters.is_empty(), "{dev}: a waiter blocked again inside its wake");
        waiters.clear();
        slot.waiters = waiters;
    }

    /// Queue softirq work. Under `kthread_iso`, work raised on a CPU in the
    /// kthread shield mask is punted to the housekeeping CPU (the first
    /// online CPU outside the mask) — the per-CPU ksoftirqd is fenced off
    /// shielded CPUs. An idle housekeeping CPU starts draining immediately.
    fn raise_softirq(&mut self, cpu: usize, class: SoftirqClass, work: Nanos) {
        let target = if self.cfg.kthread_iso
            && self.shield.kthreads.contains(CpuId(cpu as u32))
        {
            let online = self.machine.online_mask();
            let housekeeping = online - self.shield.kthreads;
            housekeeping.first().map(|c| c.index()).unwrap_or(cpu)
        } else {
            cpu
        };
        let c = &mut self.cpus[target];
        if c.pending_softirq_total + work <= SOFTIRQ_PENDING_CAP {
            c.pending_softirq.push_back((class, work));
            c.pending_softirq_total += work;
        } else {
            self.obs.softirq_dropped += 1;
        }
        if target != cpu
            && self.is_fully_idle(target)
            && !self.cpus[target].pending_softirq.is_empty()
        {
            self.begin_softirq_burst(target, None);
        }
    }

    /// Post-interrupt processing on a CPU whose current is empty: more IRQs,
    /// then softirqs, then rescheduling, then resume.
    fn after_irq(&mut self, cpu: usize) {
        debug_assert!(self.cpus[cpu].current.is_none());
        // 1. Back-to-back pending interrupts.
        if let Some(pend) = self.cpus[cpu].pending_irqs.pop_front() {
            self.begin_isr(cpu, pend);
            return;
        }
        // 1b. Queued irq-thread bodies outrank ksoftirqd: they run at high
        // RT priority in Linux, so they drain before any softirq burst —
        // unless one is already on the stack beneath a nested interrupt.
        if !self.cpus[cpu].pending_irq_threads.is_empty()
            && !self.cpus[cpu]
                .suspended
                .iter()
                .any(|a| matches!(a.kind, ActKind::IrqThread { .. }))
        {
            let p = self.cpus[cpu].pending_irq_threads.pop_front().expect("checked");
            self.begin_irq_thread(cpu, p, Nanos::ZERO);
            return;
        }
        // 2. Bottom halves — unless the variant defers them behind a wakeup,
        // or a burst is already on the stack beneath a nested interrupt.
        let deferred = self.cfg.softirq_deferral && self.cpus[cpu].need_resched;
        let nested =
            self.cpus[cpu].suspended.iter().any(|a| matches!(a.kind, ActKind::Softirq));
        let softirq_ok = !(deferred || nested);
        if !self.cpus[cpu].pending_softirq.is_empty() && softirq_ok {
            self.begin_softirq_burst(cpu, self.cfg.sections.softirq_burst_cap);
            return;
        }
        // 3. Leaving interrupt context.
        self.cpus[cpu].in_irq = false;
        // Reschedule if someone was woken (or a quantum expired).
        if self.cpus[cpu].need_resched && self.try_resched_here(cpu) {
            return;
        }
        // 4. Back to whatever was interrupted.
        if !self.cpus[cpu].suspended.is_empty() {
            self.resume_top(cpu);
            return;
        }
        // 5. A task whose between-steps drain point we serviced: continue
        // its kernel plan directly. need_resched (if still set on a
        // non-preemptible kernel) is honoured at the next legal boundary
        // inside begin_task_step.
        if let Some(pid) = self.cpu_task[cpu] {
            if self.tasks[pid.index()].state == TaskState::Running {
                self.begin_task_step(cpu, pid);
            } else {
                self.cpu_task[cpu] = None;
                self.begin_switch(cpu, false);
            }
            return;
        }
        // 6. Nothing was interrupted: we came in over idle. Deferred softirq
        // work runs now (the ksoftirqd opportunity), then try to run a task.
        if !self.cpus[cpu].pending_softirq.is_empty() {
            self.begin_softirq_burst(cpu, None);
            return;
        }
        self.cpus[cpu].need_resched = false;
        self.begin_switch(cpu, true);
    }

    fn begin_softirq_burst(&mut self, cpu: usize, cap: Option<Nanos>) {
        let c = &mut self.cpus[cpu];
        let mut burst = Nanos::ZERO;
        while let Some(front) = c.pending_softirq.front_mut() {
            let room = cap.map(|x| x.saturating_sub(burst)).unwrap_or(Nanos::MAX);
            if room.is_zero() {
                break;
            }
            if front.1 <= room {
                burst += front.1;
                c.pending_softirq_total = c.pending_softirq_total.saturating_sub(front.1);
                c.pending_softirq.pop_front();
            } else {
                front.1 -= room;
                c.pending_softirq_total = c.pending_softirq_total.saturating_sub(room);
                burst += room;
                break;
            }
        }
        debug_assert!(!burst.is_zero());
        self.install(cpu, ActKind::Softirq, burst);
        // Softirqs execute with interrupts enabled.
        self.cpus[cpu].in_irq = false;
    }

    /// Attempt a reschedule on `cpu` from interrupt exit. Returns true if a
    /// switch began (the suspended task, if any, was saved and requeued).
    fn try_resched_here(&mut self, cpu: usize) -> bool {
        match self.cpus[cpu].suspended.last() {
            None => {
                match self.cpu_task[cpu] {
                    None => {
                        // Interrupt arrived over idle.
                        self.cpus[cpu].need_resched = false;
                        self.begin_switch(cpu, true);
                        true
                    }
                    Some(pid) => {
                        // The interrupt was serviced at a between-steps drain
                        // point of a task's kernel plan (no live activity, no
                        // lock held). Preemption-patch kernels may switch
                        // here; stock 2.4 must let the syscall continue.
                        if self.cfg.kernel_preempt {
                            self.tasks[pid.index()].state = TaskState::Ready;
                            self.sched.on_preempt(pid, &self.tasks);
                            self.cpu_task[cpu] = None;
                            self.cpus[cpu].need_resched = false;
                            self.begin_switch(cpu, false);
                            true
                        } else {
                            false
                        }
                    }
                }
            }
            Some(act) => {
                let preemptible = match &act.kind {
                    ActKind::User | ActKind::Switch { .. } => true,
                    ActKind::Kernel { step } => {
                        self.cfg.kernel_preempt && step.lock.is_none() && !step.irqs_off
                    }
                    ActKind::SpinWait { .. } => false,
                    // Nested interrupt contexts are not task-preemption points.
                    _ => false,
                };
                if !preemptible {
                    return false;
                }
                if matches!(act.kind, ActKind::Switch { .. }) {
                    // A switch is already in flight; let it land — need_resched
                    // stays set and is honoured right after installation.
                    return false;
                }
                let act = self.cpus[cpu].suspended.pop().expect("checked");
                let pid = self.cpu_task[cpu].expect("task activity without ctx");
                self.save_task_continuation(pid, act);
                self.tasks[pid.index()].state = TaskState::Ready;
                self.sched.on_preempt(pid, &self.tasks);
                self.cpu_task[cpu] = None;
                self.cpus[cpu].need_resched = false;
                self.begin_switch(cpu, false);
                true
            }
        }
    }

    /// Immediate preemption of the *current* activity (reschedule IPI landing
    /// in user mode or preemptible kernel code). No-op if not allowed.
    fn try_preempt_now(&mut self, cpu: CpuId) {
        let c = cpu.index();
        let allowed = match &self.cpus[c].current {
            Some(act) if self.cpus[c].suspended.is_empty() => match &act.kind {
                ActKind::User => true,
                ActKind::Kernel { step } => {
                    self.cfg.kernel_preempt && step.lock.is_none() && !step.irqs_off
                }
                _ => false,
            },
            _ => false,
        };
        if !allowed {
            return;
        }
        let act = self.checkpoint_current(c).expect("checked");
        let pid = self.cpu_task[c].expect("task activity without ctx");
        self.save_task_continuation(pid, act);
        self.tasks[pid.index()].state = TaskState::Ready;
        self.sched.on_preempt(pid, &self.tasks);
        self.cpu_task[c] = None;
        self.cpus[c].need_resched = false;
        // IPI + schedule + switch.
        let ipi = self.cfg.costs.ipi.sample(&mut self.rng);
        self.begin_switch_with_extra(c, ipi);
    }

    fn save_task_continuation(&mut self, pid: Pid, act: Activity) {
        let t = &mut self.tasks[pid.index()];
        match act.kind {
            ActKind::User => {
                t.phase = Phase::User { remaining: act.remaining };
            }
            ActKind::Kernel { .. } => {
                if let Phase::Kernel(plan) = &mut t.phase {
                    plan.steps[plan.cur].work = act.remaining;
                } else {
                    unreachable!("kernel activity without kernel phase");
                }
            }
            _ => unreachable!("only task activities are saved"),
        }
    }

    // ------------------------------------------------------------------
    // Scheduling and switching
    // ------------------------------------------------------------------

    fn make_runnable(&mut self, pid: Pid) {
        self.tasks[pid.index()].state = TaskState::Ready;
        // The SoA columns back the scheduler's `CpuView` directly — no
        // per-wake copying into scratch buffers.
        let view = CpuView {
            online: self.machine.online_mask(),
            running: &self.cpu_task,
            idle_since: &self.cpu_last_busy_ns,
        };
        if let Some(target) = self.sched.on_wake(pid, &mut self.tasks, &view) {
            self.kick_cpu(target);
        }
    }

    /// React to the scheduler requesting a reschedule on `target`.
    fn kick_cpu(&mut self, target: CpuId) {
        let c = target.index();
        if self.is_fully_idle(c) {
            self.begin_switch(c, true);
        } else {
            self.cpus[c].need_resched = true;
            self.try_preempt_now(target);
        }
    }

    fn wake_task(&mut self, pid: Pid, wake_ref: Option<Instant>) {
        let t = &mut self.tasks[pid.index()];
        let reason = match t.state {
            TaskState::Blocked(r) => r,
            // Waiters leave their device's wait queue when woken, so this
            // is only reachable for a task torn down while waiting.
            _ => return,
        };
        t.wake_ref = wake_ref;
        // Build the kernel continuation the task runs when it gets a CPU.
        let plan = match reason {
            BlockReason::Sleep | BlockReason::IoWait(_) => {
                let mut steps = self.steps_buf();
                let exit = self.cfg.costs.syscall_exit.sample(&mut self.rng);
                steps.push(PlannedStep { work: exit, lock: None, irqs_off: false });
                KernelPlan { steps, cur: 0, then: PlanEnd::ReturnToUser }
            }
            BlockReason::IrqWait(dev) => {
                let api = self.tasks[pid.index()]
                    .wait_api
                    .expect("irq wait without wait_api");
                self.build_wait_exit_plan(dev, api)
            }
        };
        // The overwritten phase is usually the finished wait-entry plan the
        // task blocked under — recycle its step buffer.
        let old = std::mem::replace(&mut self.tasks[pid.index()].phase, Phase::Kernel(plan));
        if let Phase::Kernel(old) = old {
            self.recycle_plan(old);
        }
        self.tasks[pid.index()].woken_at = Some(self.now);
        self.tasks[pid.index()].ran_at = None;
        if self.flight.is_armed() {
            self.flight.record(FlightEvent::instant(
                self.now,
                None,
                FlightEventKind::Wake,
                pid.0 as u64,
            ));
        }
        self.make_runnable(pid);
    }

    fn begin_switch(&mut self, cpu: usize, from_idle: bool) {
        let extra = if from_idle {
            self.cfg.costs.idle_exit.sample(&mut self.rng)
        } else {
            Nanos::ZERO
        };
        self.begin_switch_with_extra(cpu, extra);
    }

    fn begin_switch_with_extra(&mut self, cpu: usize, extra: Nanos) {
        debug_assert!(self.cpus[cpu].current.is_none());
        debug_assert!(self.cpu_task[cpu].is_none());
        // Queued irq-thread bodies run before any ordinary task is picked —
        // they hold the highest RT priority on a threaded-IRQ kernel. The
        // switch's entry cost (idle exit) is charged to the thread.
        if let Some(p) = self.cpus[cpu].pending_irq_threads.pop_front() {
            self.begin_irq_thread(cpu, p, extra);
            return;
        }
        let pick_cost = self.sched.pick_cost(&self.cfg.costs, &mut self.rng);
        match self.sched.pick(CpuId(cpu as u32), &mut self.tasks) {
            Some(pid) => {
                let t = &mut self.tasks[pid.index()];
                debug_assert_eq!(t.state, TaskState::Ready);
                t.state = TaskState::Running;
                t.last_cpu = CpuId(cpu as u32);
                self.cpu_task[cpu] = Some(pid);
                let switch = self.cfg.costs.context_switch.sample(&mut self.rng);
                self.install(cpu, ActKind::Switch { to: pid }, extra + pick_cost + switch);
            }
            None => {
                // Before idling, run any deferred bottom-half work (the
                // ksoftirqd opportunity), uncapped.
                if !self.cpus[cpu].pending_softirq.is_empty() {
                    self.begin_softirq_burst(cpu, None);
                    return;
                }
                // Idle. (The failed pick's cost is negligible against the
                // idle time that follows; not modelled.)
                let bit = 1u64 << cpu;
                if self.busy_mask & bit != 0 {
                    self.busy_mask &= !bit;
                    self.cpu_last_busy_ns[cpu] = self.now.as_ns();
                    self.reprice_others(cpu);
                }
            }
        }
    }

    /// The CPU finished a switch or a step boundary and should continue
    /// executing its installed task.
    fn continue_on_cpu(&mut self, cpu: usize) {
        // Honour a pending reschedule at this boundary first.
        if self.cpus[cpu].need_resched {
            if let Some(pid) = self.cpu_task[cpu] {
                if self.tasks[pid.index()].state == TaskState::Running {
                    self.tasks[pid.index()].state = TaskState::Ready;
                    self.sched.on_preempt(pid, &self.tasks);
                }
                self.cpu_task[cpu] = None;
            }
            self.cpus[cpu].need_resched = false;
            self.begin_switch(cpu, false);
            return;
        }
        match self.cpu_task[cpu] {
            Some(pid) if self.tasks[pid.index()].state == TaskState::Running => {
                self.begin_task_step(cpu, pid);
            }
            _ => {
                self.cpu_task[cpu] = None;
                self.begin_switch(cpu, false);
            }
        }
    }

    // ------------------------------------------------------------------
    // Task execution
    // ------------------------------------------------------------------

    /// Move the task to its next op (or exit). Leaves phase = Start.
    fn advance_op(&mut self, pid: Pid) {
        let t = &mut self.tasks[pid.index()];
        match t.program.next_index(t.op_idx) {
            Some(next) => {
                t.op_idx = next;
                let old = std::mem::replace(&mut t.phase, Phase::Start);
                if let Phase::Kernel(plan) = old {
                    self.recycle_plan(plan);
                }
            }
            None => {
                t.state = TaskState::Exited;
                self.sched.on_block(pid);
            }
        }
    }

    /// Start executing the installed task's current phase on `cpu`.
    fn begin_task_step(&mut self, cpu: usize, pid: Pid) {
        if self.tasks[pid.index()].ran_at.is_none() {
            self.tasks[pid.index()].ran_at = Some(self.now);
        }
        loop {
            debug_assert_eq!(self.cpu_task[cpu], Some(pid));
            let t = &self.tasks[pid.index()];
            if t.state == TaskState::Exited {
                self.cpu_task[cpu] = None;
                self.begin_switch(cpu, false);
                return;
            }
            match &t.phase {
                Phase::User { remaining } => {
                    let rem = *remaining;
                    self.install(cpu, ActKind::User, rem);
                    return;
                }
                Phase::Kernel(plan) => {
                    if plan.cur < plan.steps.len() {
                        let step = plan.steps[plan.cur];
                        if let Some(lock) = step.lock {
                            match self.locks.get_mut(lock).acquire_or_wait(pid, self.now) {
                                AcquireResult::Acquired => {
                                    self.install(cpu, ActKind::Kernel { step }, step.work);
                                }
                                AcquireResult::MustSpin => {
                                    self.tasks[pid.index()].spinning_on = Some(lock);
                                    self.install(
                                        cpu,
                                        ActKind::SpinWait { lock, irqs_off: step.irqs_off },
                                        Nanos::ZERO,
                                    );
                                }
                            }
                        } else {
                            self.install(cpu, ActKind::Kernel { step }, step.work);
                        }
                        return;
                    }
                    // Plan finished.
                    let then = plan.then;
                    match then {
                        PlanEnd::ReturnToUser => {
                            self.advance_op(pid);
                            if self.cpus[cpu].need_resched {
                                self.continue_on_cpu(cpu);
                                return;
                            }
                            continue;
                        }
                        PlanEnd::ResumeUser(remaining) => {
                            let old = std::mem::replace(
                                &mut self.tasks[pid.index()].phase,
                                Phase::User { remaining },
                            );
                            if let Phase::Kernel(plan) = old {
                                self.recycle_plan(plan);
                            }
                            continue;
                        }
                        PlanEnd::CompleteIrqWait => {
                            if let Some(asserted) = self.tasks[pid.index()].wake_ref.take() {
                                let lat = self.now.since(asserted);
                                self.obs.record_latency(pid, lat, self.now);
                                let flight_wants =
                                    self.flight.is_armed() && self.obs.watches_latency(pid);
                                let breakdown = if self.obs.wants_breakdown(pid) || flight_wants
                                {
                                    let t = &self.tasks[pid.index()];
                                    let woken = t.woken_at.unwrap_or(asserted);
                                    let ran = t.ran_at.unwrap_or(woken).max(woken);
                                    Some(crate::observe::WakeBreakdown {
                                        to_wake: woken.saturating_since(asserted),
                                        to_run: ran.since(woken),
                                        exit_path: self.now.since(ran),
                                    })
                                } else {
                                    None
                                };
                                if self.obs.wants_breakdown(pid) {
                                    self.obs.record_breakdown(
                                        pid,
                                        breakdown.expect("computed when wanted"),
                                    );
                                }
                                if flight_wants {
                                    // The exit-path span was accounted just
                                    // before this arm ran, so with the
                                    // completion marker added the ring holds
                                    // the full window.
                                    self.flight.record(FlightEvent::instant(
                                        self.now,
                                        Some(cpu as u32),
                                        FlightEventKind::SampleDone,
                                        lat.as_ns(),
                                    ));
                                    self.flight.offer(pid, lat, asserted, self.now, breakdown);
                                }
                            }
                            self.tasks[pid.index()].wait_api = None;
                            self.advance_op(pid);
                            if self.cpus[cpu].need_resched {
                                self.continue_on_cpu(cpu);
                                return;
                            }
                            continue;
                        }
                        PlanEnd::BlockOnIo(dev) => {
                            self.block_task(cpu, pid, BlockReason::IoWait(dev));
                            self.with_device(dev, |d, ctx, rng| d.submit_io(pid, ctx, rng));
                            self.begin_switch(cpu, false);
                            return;
                        }
                        PlanEnd::BlockOnIrq(dev) => {
                            self.block_task(cpu, pid, BlockReason::IrqWait(dev));
                            self.devices[dev.index()].waiters.push(pid);
                            self.begin_switch(cpu, false);
                            return;
                        }
                    }
                }
                Phase::Start => {
                    // Match the op in place — cloning it out would heap-copy
                    // mix/shifted distributions on every program step.
                    match t.program.op(t.op_idx).expect("op index in range") {
                        Op::Compute(d) => {
                            let work = d.sample(&mut self.rng);
                            let mlocked = t.mlocked;
                            if !mlocked && self.rng.chance(0.02) {
                                // First-touch page fault on an unlocked page.
                                let cost = self.cfg.costs.page_fault.sample(&mut self.rng);
                                let mut steps = self.steps_buf();
                                steps.push(PlannedStep {
                                    work: cost,
                                    lock: Some(LockId::MM),
                                    irqs_off: false,
                                });
                                self.tasks[pid.index()].phase = Phase::Kernel(KernelPlan {
                                    steps,
                                    cur: 0,
                                    then: PlanEnd::ResumeUser(work),
                                });
                            } else {
                                self.tasks[pid.index()].phase = Phase::User { remaining: work };
                            }
                            continue;
                        }
                        Op::Syscall(id) => {
                            let id = *id;
                            let plan = self.build_syscall_plan(id);
                            self.tasks[pid.index()].phase = Phase::Kernel(plan);
                            continue;
                        }
                        Op::WaitIrq { device, api } => {
                            let (device, api) = (*device, *api);
                            let plan = self.build_wait_entry_plan(device, api);
                            let t = &mut self.tasks[pid.index()];
                            t.wait_api = Some(api);
                            t.phase = Phase::Kernel(plan);
                            continue;
                        }
                        Op::Sleep(d) => {
                            let dur = d.sample(&mut self.rng);
                            let wake_at = self.sleep_deadline(dur);
                            self.queue.push(wake_at, Ev::SleepWake { pid: pid.0 });
                            self.block_task(cpu, pid, BlockReason::Sleep);
                            self.begin_switch(cpu, false);
                            return;
                        }
                        Op::MarkLap => {
                            self.obs.record_lap(pid, self.now);
                            self.advance_op(pid);
                            continue;
                        }
                        Op::Yield => {
                            self.advance_op(pid);
                            if self.tasks[pid.index()].state == TaskState::Exited {
                                continue;
                            }
                            if self.sched.queued_count() > 0 {
                                self.tasks[pid.index()].state = TaskState::Ready;
                                self.sched.on_yield(pid, &self.tasks);
                                self.cpu_task[cpu] = None;
                                self.begin_switch(cpu, false);
                                return;
                            }
                            continue;
                        }
                        Op::Exit => {
                            self.tasks[pid.index()].state = TaskState::Exited;
                            self.sched.on_block(pid);
                            self.cpu_task[cpu] = None;
                            self.begin_switch(cpu, false);
                            return;
                        }
                    }
                }
            }
        }
    }

    fn block_task(&mut self, cpu: usize, pid: Pid, reason: BlockReason) {
        self.tasks[pid.index()].state = TaskState::Blocked(reason);
        self.sched.on_block(pid);
        self.cpu_task[cpu] = None;
    }

    fn sleep_deadline(&self, dur: Nanos) -> Instant {
        if self.cfg.hires_sleep {
            self.now + dur
        } else {
            // Stock 2.4: round up to the next jiffy boundary, plus one jiffy
            // so the timer can never fire early.
            let jiffy = self.cfg.jiffy();
            let raw = self.now + dur;
            let rem = Nanos(raw.as_ns()) % jiffy;
            let rounded = if rem.is_zero() { raw } else { raw + (jiffy - rem) };
            rounded + jiffy
        }
    }

    /// Hand a released lock to the next spinner.
    fn grant_lock(&mut self, pid: Pid) {
        self.tasks[pid.index()].spinning_on = None;
        let cpu = self.tasks[pid.index()].last_cpu.index();
        debug_assert_eq!(self.cpu_task[cpu], Some(pid), "spinner moved CPUs");
        let step = match &self.tasks[pid.index()].phase {
            Phase::Kernel(plan) => plan.steps[plan.cur],
            _ => unreachable!("spinner without kernel phase"),
        };
        let is_current = matches!(
            self.cpus[cpu].current.as_ref().map(|a| &a.kind),
            Some(ActKind::SpinWait { .. })
        );
        if is_current {
            let act = self.checkpoint_current(cpu).expect("checked");
            debug_assert!(matches!(act.kind, ActKind::SpinWait { .. }));
            self.install(cpu, ActKind::Kernel { step }, step.work);
        } else {
            // The spinner's CPU is servicing an interrupt; it now owns the
            // lock and will start the critical section when resumed.
            let slot = self.cpus[cpu]
                .suspended
                .iter_mut()
                .find(|a| matches!(a.kind, ActKind::SpinWait { .. }))
                .expect("spinner activity somewhere");
            slot.kind = ActKind::Kernel { step };
            slot.remaining = step.work;
            slot.since = self.now;
        }
    }

    fn kernel_step_done(&mut self, cpu: usize, pid: Pid) {
        let preempt_ok = self.cfg.kernel_preempt;
        if let Phase::Kernel(plan) = &mut self.tasks[pid.index()].phase {
            plan.cur += 1;
        } else {
            unreachable!("kernel step without kernel phase");
        }
        // Interrupts masked by the finished section are enabled again here:
        // service anything that pended during the irqs-off window before the
        // task continues (the task context stays installed; after_irq hands
        // control back through continue_on_cpu).
        if let Some(pend) = self.cpus[cpu].pending_irqs.pop_front() {
            self.begin_isr(cpu, pend);
            return;
        }
        // Preemption-patch kernels check need_resched whenever the preempt
        // count drops to zero — i.e. between plan steps, no lock held.
        if preempt_ok && self.cpus[cpu].need_resched {
            self.continue_on_cpu(cpu);
            return;
        }
        self.begin_task_step(cpu, pid);
    }

    // ------------------------------------------------------------------
    // Plan builders
    // ------------------------------------------------------------------

    /// A cleared step buffer from the retirement pool (or a fresh one).
    #[inline]
    fn steps_buf(&mut self) -> Vec<PlannedStep> {
        self.plan_pool.pop().unwrap_or_default()
    }

    /// Return a finished plan's step buffer to the pool. Capacity is
    /// retained; the pool is bounded so pathological plan churn can't hoard
    /// memory.
    #[inline]
    fn recycle_plan(&mut self, plan: KernelPlan) {
        let mut steps = plan.steps;
        if self.plan_pool.len() < 32 {
            steps.clear();
            self.plan_pool.push(steps);
        }
    }

    fn build_syscall_plan(&mut self, id: SyscallId) -> KernelPlan {
        let mut steps = self.steps_buf();
        let entry = self.cfg.costs.syscall_entry.sample(&mut self.rng);
        let exit = self.cfg.costs.syscall_exit.sample(&mut self.rng);
        let svc = &self.syscalls[id.index()];
        let takes_bkl = svc.takes_bkl;
        let injectable = svc.injectable;
        let io = svc.io;
        let n_segs = svc.segments.len();
        steps.reserve(n_segs + 4);
        steps.push(PlannedStep { work: entry, lock: None, irqs_off: false });
        if takes_bkl {
            let hold = self.cfg.sections.bkl_hold.sample(&mut self.rng);
            steps.push(PlannedStep { work: hold, lock: Some(LockId::BKL), irqs_off: false });
        }
        for i in 0..n_segs {
            // `syscalls` and `rng` are disjoint fields, so the segment (and
            // its duration distribution) can be borrowed across the samples
            // without cloning.
            let seg = &self.syscalls[id.index()].segments[i];
            if seg.prob >= 1.0 || self.rng.chance(seg.prob) {
                let work = seg.dur.sample(&mut self.rng);
                steps.push(PlannedStep { work, lock: seg.lock, irqs_off: seg.irqs_off });
            }
        }
        if injectable && self.rng.chance(self.cfg.sections.long_section_prob) {
            let work = self.cfg.sections.long_section.sample(&mut self.rng);
            // The long section lands on one of the busy global locks.
            let lock = match self.rng.below(5) {
                0 => LockId::FILE,
                1 => LockId::MM,
                2 => LockId::DCACHE,
                3 => LockId::NET,
                _ => LockId::TIMER,
            };
            steps.push(PlannedStep { work, lock: Some(lock), irqs_off: false });
        }
        steps.push(PlannedStep { work: exit, lock: None, irqs_off: false });
        let then = match io {
            Some(spec) => PlanEnd::BlockOnIo(spec.device),
            None => PlanEnd::ReturnToUser,
        };
        KernelPlan { steps, cur: 0, then }
    }

    fn build_wait_entry_plan(&mut self, dev: DeviceId, api: WaitApi) -> KernelPlan {
        let mut steps = self.steps_buf();
        let entry = self.cfg.costs.syscall_entry.sample(&mut self.rng);
        steps.push(PlannedStep { work: entry, lock: None, irqs_off: false });
        if let WaitApi::IoctlWait { driver_bkl_free } = api {
            if !(driver_bkl_free && self.cfg.bkl_ioctl_optout) {
                // Generic ioctl grabs the BKL around the driver call; the
                // driver then sleeps, releasing it (2.4 drops the BKL across
                // schedule()) — so the entry hold is short.
                steps.push(PlannedStep {
                    work: Nanos::from_us(1),
                    lock: Some(LockId::BKL),
                    irqs_off: false,
                });
            }
        }
        // Driver-side arming of the wait.
        steps.push(PlannedStep { work: Nanos::from_us(1), lock: None, irqs_off: false });
        KernelPlan { steps, cur: 0, then: PlanEnd::BlockOnIrq(dev) }
    }

    fn build_wait_exit_plan(&mut self, dev: DeviceId, api: WaitApi) -> KernelPlan {
        let mut steps = self.steps_buf();
        let exit = self.cfg.costs.syscall_exit.sample(&mut self.rng);
        match api {
            WaitApi::ReadDevice => {
                // Driver-side copy-out under its own irq-safe lock.
                steps.push(PlannedStep {
                    work: Nanos::from_us(1),
                    lock: Some(LockId::RTC),
                    irqs_off: true,
                });
                // Occasionally the generic file-layer exit takes a global
                // lock (dnotify/fasync-style shared state) — the §6.2 tail.
                // The §7 future-work kernel removes it entirely.
                if !self.cfg.file_layer_lockfree
                    && self.rng.chance(self.cfg.sections.read_exit_file_lock_prob)
                {
                    let hold = self.cfg.sections.read_exit_lock_hold.sample(&mut self.rng);
                    steps.push(PlannedStep { work: hold, lock: Some(LockId::FILE), irqs_off: false });
                }
            }
            WaitApi::IoctlWait { driver_bkl_free } => {
                if !(driver_bkl_free && self.cfg.bkl_ioctl_optout) {
                    // 2.4 re-acquires the BKL when the driver's ioctl resumes
                    // after sleeping — the contended step the RedHawk opt-out
                    // removes.
                    steps.push(PlannedStep {
                        work: Nanos::from_us(1),
                        lock: Some(LockId::BKL),
                        irqs_off: false,
                    });
                }
            }
        }
        if let Some(extra) = &self.devices[dev.index()].exit_work {
            let work = extra.sample(&mut self.rng);
            steps.push(PlannedStep { work, lock: None, irqs_off: false });
        }
        steps.push(PlannedStep { work: exit, lock: None, irqs_off: false });
        KernelPlan { steps, cur: 0, then: PlanEnd::CompleteIrqWait }
    }

    // ------------------------------------------------------------------
    // Warm checkpointing
    // ------------------------------------------------------------------

    /// Re-fork every RNG stream (main + per-device) from `label`.
    ///
    /// Used when forking replication shards from one shared warm
    /// [`Checkpoint`]: each fork reseeds with its own shard label so the
    /// forks sample independent draws of the same stationary process
    /// instead of replaying identical randomness. Deterministic — the same
    /// label always produces the same streams.
    pub fn reseed(&mut self, label: u64) {
        self.rng = SimRng::new(label);
        for (i, slot) in self.devices.iter_mut().enumerate() {
            slot.rng = self.rng.fork(0x1000 + i as u64);
        }
    }

    /// Freeze this simulation: a clone of the whole simulator with its
    /// flight recorder disarmed, so a checkpoint never carries a ring.
    ///
    /// The image is held behind an [`Arc`], so a checkpoint is
    /// `Clone + Send + Sync` and cloning it (or handing it to another
    /// thread) is a reference-count bump. Restoring and running is
    /// bit-identical to having run the original simulator straight through.
    /// A fork that already holds the warm simulator can simply `clone()` it.
    pub fn checkpoint(&self) -> Checkpoint {
        let mut image = self.clone();
        image.flight = FlightRecorder::disarmed();
        Checkpoint { image: Arc::new(image) }
    }

    /// Become a copy of the simulator frozen in `ck`, keeping only this
    /// simulator's own flight recorder.
    ///
    /// Everything else is replaced, the watch lists in [`Simulator::obs`]
    /// included: a fork that observes other tasks registers those watches
    /// after restoring. A fork that wants traces of its own samples arms
    /// the recorder ([`Simulator::arm_flight`]) after restoring. The
    /// device, task and CPU counts must match, which catches a checkpoint
    /// restored into the wrong scenario.
    pub fn restore(&mut self, ck: &Checkpoint) {
        let image = &*ck.image;
        assert_eq!(self.devices.len(), image.devices.len(), "checkpoint device set mismatch");
        assert_eq!(self.tasks.len(), image.tasks.len(), "checkpoint task set mismatch");
        assert_eq!(self.cpus.len(), image.cpus.len(), "checkpoint cpu count mismatch");
        let flight = std::mem::take(&mut self.flight);
        *self = Simulator { flight, ..image.clone() };
    }
}

/// A frozen [`Simulator`] — see [`Simulator::checkpoint`]. A cheap handle
/// to one shared immutable image whose flight recorder is disarmed:
/// `clone()` bumps a reference count, so one warm checkpoint can seed any
/// number of forked runs, on any thread; each fork copies the image out
/// once, in [`Simulator::restore`].
#[derive(Clone)]
pub struct Checkpoint {
    image: Arc<Simulator>,
}

// Forks share one warm simulator across worker threads by reference
// (`Send + Sync`) and clone it on each worker. A simulator is plain data —
// any interior mutability or Rc-like sharing slipped into a field would
// silently serialize the fleet, so pin the bounds at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Simulator>()
};

/// One row of the simulator's interrupt inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrqInfo {
    pub dev: DeviceId,
    pub line: sp_hw::IrqLine,
    pub name: String,
    /// What was written to `smp_affinity`.
    pub requested: CpuMask,
    /// What routing actually uses (after shield semantics).
    pub effective: CpuMask,
}

/// Reject programs whose loop body can spin forever in zero simulated time.
fn validate_program(spec: &TaskSpec) {
    if spec.program.loops() {
        let consumes_time = (0..spec.program.len()).any(|i| {
            matches!(
                spec.program.op(i),
                Some(Op::Compute(_)) | Some(Op::Syscall(_)) | Some(Op::WaitIrq { .. })
                    | Some(Op::Sleep(_))
            )
        });
        assert!(
            consumes_time,
            "looping program for '{}' must contain a time-consuming op",
            spec.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{
        OnOffPoisson, RcimDevice, RcimExternalInput, RtcDevice, TrafficDevice, TrafficPhase,
        TrafficProfile,
    };
    use crate::program::Program;
    use crate::task::SchedPolicy;

    fn missed(dev: &AnyDevice) -> u64 {
        match dev {
            AnyDevice::Rtc(d) => d.missed,
            AnyDevice::Rcim(d) => d.missed,
            AnyDevice::RcimExt(d) => d.missed,
            AnyDevice::Traffic(d) => d.missed,
            other => unreachable!("{} takes no interrupt waiters", other.name()),
        }
    }

    /// Every device a task can wait on, each too slow to fire by itself
    /// inside the test's first simulated milliseconds.
    fn waitable_devices() -> [AnyDevice; 4] {
        let slow = TrafficPhase {
            name: "slow".into(),
            duration: Nanos::from_secs(100),
            irq_hz: 1,
            batch: 1,
        };
        [
            RtcDevice::new(2).into(),
            RcimDevice::new(Nanos::from_ms(500)).into(),
            RcimExternalInput::new(sp_hw::IrqLine(21), OnOffPoisson::continuous(Nanos::from_secs(100)))
                .into(),
            TrafficDevice::new(TrafficProfile { phases: vec![slow], cycle: false }).into(),
        ]
    }

    #[test]
    fn one_interrupt_wakes_every_waiter_in_fifo_order() {
        for dev in waitable_devices() {
            for n in 0..=2u8 {
                let mut sim =
                    Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), 7);
                let name = dev.name().to_string();
                let dev = sim.add_device(dev.clone());
                // Spawned lowest priority first on one CPU, so they block
                // highest priority first: FIFO order is the reverse of pid
                // order.
                let pids: Vec<Pid> = (0..n)
                    .map(|i| {
                        let wait = Op::WaitIrq { device: dev, api: WaitApi::ReadDevice };
                        sim.spawn(
                            TaskSpec::new(
                                format!("w{i}"),
                                SchedPolicy::fifo(50 + i),
                                Program::forever(vec![wait]),
                            )
                            .pinned(CpuMask::single(CpuId(0)))
                            .mlockall(),
                        )
                    })
                    .collect();
                let fifo: Vec<Pid> = pids.into_iter().rev().collect();
                sim.start();
                sim.run_for(Nanos::from_ms(1));
                assert_eq!(sim.irq_counts(dev).iter().sum::<u64>(), 0, "{name} fired early");
                assert_eq!(sim.devices[dev.index()].waiters, fifo, "{name}");

                // The waiters blocked before the clone wake in both copies.
                let mut fork = sim.clone();
                for sim in [&mut sim, &mut fork] {
                    sim.arm_flight(1);
                    sim.assert_irq(dev);
                    sim.run_for(Nanos::from_ms(1));
                    let woken: Vec<Pid> = sim
                        .flight
                        .records()
                        .filter(|e| e.kind == FlightEventKind::Wake)
                        .map(|e| Pid(e.detail as u32))
                        .collect();
                    assert_eq!(woken, fifo, "{name} with {n} waiters");
                    assert_eq!(missed(sim.device(dev)), u64::from(n == 0), "{name}, {n} waiters");
                    // Each woken waiter has looped back into the queue.
                    assert_eq!(sim.devices[dev.index()].waiters, fifo, "{name}");
                }
            }
        }
    }
}
