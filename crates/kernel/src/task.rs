//! Tasks: the kernel's schedulable entities.

use crate::ids::{DeviceId, LockId, Pid};
use crate::program::{Program, WaitApi};
use serde::{Deserialize, Serialize};
use simcore::{Instant, Nanos};
use sp_hw::{CpuId, CpuMask};

/// Scheduling class + parameter, mirroring the POSIX policies the paper's
/// tests use (`SCHED_FIFO` for every measurement task).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// Real-time FIFO; `rt_prio` in 1..=99, higher = more important.
    Fifo { rt_prio: u8 },
    /// Real-time round-robin; like FIFO plus timeslice rotation.
    RoundRobin { rt_prio: u8 },
    /// Timesharing; `nice` in -20..=19, lower = more CPU.
    Other { nice: i8 },
}

impl SchedPolicy {
    pub fn fifo(rt_prio: u8) -> Self {
        assert!((1..=99).contains(&rt_prio), "rt_prio out of range: {rt_prio}");
        SchedPolicy::Fifo { rt_prio }
    }

    pub fn rr(rt_prio: u8) -> Self {
        assert!((1..=99).contains(&rt_prio), "rt_prio out of range: {rt_prio}");
        SchedPolicy::RoundRobin { rt_prio }
    }

    pub fn nice(nice: i8) -> Self {
        assert!((-20..=19).contains(&nice), "nice out of range: {nice}");
        SchedPolicy::Other { nice }
    }

    /// Effective priority on the O(1) scheduler's 0..140 scale
    /// (lower number = higher priority; 0..100 real-time, 100..140 nice).
    pub fn effective_prio(&self) -> u8 {
        match *self {
            SchedPolicy::Fifo { rt_prio } | SchedPolicy::RoundRobin { rt_prio } => 99 - rt_prio,
            SchedPolicy::Other { nice } => (120 + nice as i16) as u8,
        }
    }
}

/// Why a task is off the runqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockReason {
    /// Waiting for a device interrupt (in the device's wait queue).
    IrqWait(DeviceId),
    /// Waiting for submitted I/O to complete.
    IoWait(DeviceId),
    /// In a timed sleep.
    Sleep,
}

/// Task lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskState {
    /// Runnable, on a queue.
    Ready,
    /// Currently on a CPU (including busy-spinning on a kernel lock).
    Running,
    Blocked(BlockReason),
    Exited,
}

/// A pre-sampled concrete kernel execution plan (the segments one syscall
/// instance will run). Sampled when the syscall starts so the plan is fixed
/// regardless of how it's interleaved with interrupts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelPlan {
    pub steps: Vec<PlannedStep>,
    pub cur: usize,
    /// What happens when the last step completes.
    pub then: PlanEnd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedStep {
    pub work: Nanos,
    pub lock: Option<LockId>,
    pub irqs_off: bool,
}

/// Continuation after a kernel plan finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanEnd {
    /// Return to user mode and advance to the next op.
    ReturnToUser,
    /// Submit blocking I/O to the device and sleep.
    BlockOnIo(DeviceId),
    /// Join the device's wait queue and sleep.
    BlockOnIrq(DeviceId),
    /// Return to user mode, recording a wake-to-user latency sample first.
    CompleteIrqWait,
    /// Return to user mode and continue the interrupted compute segment with
    /// this much work left (page-fault service path).
    ResumeUser(Nanos),
}

/// Where a task is within its program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Phase {
    /// About to start `op_idx` (nothing sampled yet).
    Start,
    /// Mid user-mode compute with this much work left.
    User { remaining: Nanos },
    /// Executing a kernel plan.
    Kernel(KernelPlan),
}

/// Spec used to create a task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    pub name: String,
    pub policy: SchedPolicy,
    /// Requested affinity (the `mpadvise`/`sched_setaffinity` mask).
    pub affinity: CpuMask,
    /// Pages locked (the paper's tests all `mlockall`); unlocked tasks take
    /// occasional page faults during compute.
    pub mlocked: bool,
    pub program: Program,
}

impl TaskSpec {
    pub fn new(name: impl Into<String>, policy: SchedPolicy, program: Program) -> Self {
        TaskSpec {
            name: name.into(),
            policy,
            affinity: CpuMask(u64::MAX),
            mlocked: false,
            program,
        }
    }

    pub fn pinned(mut self, mask: CpuMask) -> Self {
        assert!(!mask.is_empty(), "empty affinity");
        self.affinity = mask;
        self
    }

    pub fn mlockall(mut self) -> Self {
        self.mlocked = true;
        self
    }
}

/// A live task.
#[derive(Debug, Clone)]
pub struct Task {
    pub pid: Pid,
    pub name: String,
    pub policy: SchedPolicy,
    /// What the user asked for.
    pub requested_affinity: CpuMask,
    /// What the kernel enforces (requested ∩ shield semantics ∩ online).
    pub effective_affinity: CpuMask,
    pub mlocked: bool,
    pub state: TaskState,
    pub last_cpu: CpuId,
    pub program: Program,
    pub op_idx: usize,
    pub phase: Phase,
    /// Lock this task is currently spinning on, if any.
    pub spinning_on: Option<LockId>,
    /// IRQ-assert instant of the wake we're responding to (latency stamping).
    pub wake_ref: Option<Instant>,
    /// When the wakeup itself happened (breakdown stamping).
    pub woken_at: Option<Instant>,
    /// When the task first executed after that wakeup.
    pub ran_at: Option<Instant>,
    /// Wait API of the in-progress WaitIrq op.
    pub wait_api: Option<WaitApi>,
    /// 2.4 scheduler: remaining ticks of the current quantum.
    pub counter: i32,
    /// O(1) scheduler: remaining timeslice.
    pub timeslice: Nanos,
    /// Total CPU time consumed (user + kernel, excluding spin).
    pub cpu_time: Nanos,
}

impl Task {
    pub fn from_spec(pid: Pid, spec: TaskSpec, online: CpuMask) -> Self {
        let requested = spec.affinity & online;
        let requested = if requested.is_empty() { online } else { requested };
        Task {
            pid,
            name: spec.name,
            policy: spec.policy,
            requested_affinity: requested,
            effective_affinity: requested,
            mlocked: spec.mlocked,
            state: TaskState::Ready,
            last_cpu: requested.first().expect("non-empty affinity"),
            program: spec.program,
            op_idx: 0,
            phase: Phase::Start,
            spinning_on: None,
            wake_ref: None,
            woken_at: None,
            ran_at: None,
            wait_api: None,
            counter: 0,
            timeslice: Nanos::ZERO,
            cpu_time: Nanos::ZERO,
        }
    }

    pub fn effective_prio(&self) -> u8 {
        self.policy.effective_prio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Op;
    use simcore::DurationDist;

    fn prog() -> Program {
        Program::forever(vec![Op::Compute(DurationDist::constant(Nanos::from_us(1)))])
    }

    #[test]
    fn priority_scale_matches_o1_layout() {
        assert_eq!(SchedPolicy::fifo(99).effective_prio(), 0);
        assert_eq!(SchedPolicy::fifo(1).effective_prio(), 98);
        assert_eq!(SchedPolicy::nice(0).effective_prio(), 120);
        assert_eq!(SchedPolicy::nice(-20).effective_prio(), 100);
        assert_eq!(SchedPolicy::nice(19).effective_prio(), 139);
        // Any RT beats any nice level.
        assert!(SchedPolicy::fifo(1).effective_prio() < SchedPolicy::nice(-20).effective_prio());
    }

    #[test]
    #[should_panic(expected = "rt_prio out of range")]
    fn rt_prio_zero_rejected() {
        SchedPolicy::fifo(0);
    }

    #[test]
    fn spec_affinity_clipped_to_online() {
        let spec = TaskSpec::new("t", SchedPolicy::nice(0), prog()).pinned(CpuMask(0b1110));
        let t = Task::from_spec(Pid(1), spec, CpuMask(0b0011));
        assert_eq!(t.requested_affinity, CpuMask(0b0010));
        assert_eq!(t.last_cpu, CpuId(1));
    }

    #[test]
    fn unsatisfiable_affinity_falls_back_to_online() {
        let spec = TaskSpec::new("t", SchedPolicy::nice(0), prog()).pinned(CpuMask(0b100));
        let t = Task::from_spec(Pid(1), spec, CpuMask(0b011));
        assert_eq!(t.requested_affinity, CpuMask(0b011));
    }

    #[test]
    fn new_task_starts_ready_at_op_zero() {
        let t = Task::from_spec(
            Pid(0),
            TaskSpec::new("x", SchedPolicy::fifo(50), prog()),
            CpuMask(0b11),
        );
        assert_eq!(t.state, TaskState::Ready);
        assert_eq!(t.op_idx, 0);
        assert_eq!(t.phase, Phase::Start);
    }
}
