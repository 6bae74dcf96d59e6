//! Task behaviour programs.
//!
//! A simulated task executes a small script of operations. Workload
//! generators compose these to mimic the paper's background load, and the
//! benchmark tasks (the determinism loop, realfeel, the RCIM response test)
//! are four-line programs over the same vocabulary.

use crate::ids::{DeviceId, SyscallId};
use serde::{Deserialize, Serialize};
use simcore::DurationDist;

/// How a task blocks waiting for a device interrupt — the paper's §6
/// distinction between the `/dev/rtc` read() path and the RCIM ioctl path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WaitApi {
    /// Block in `read()` on a device file. On wakeup the task exits the
    /// kernel through the generic file layer, whose slow paths take global
    /// locks — the mechanism behind Figure 6's sub-millisecond tail.
    ReadDevice,
    /// Block in the driver's `ioctl()`. The 2.4 generic ioctl path takes the
    /// BKL around the driver call (and re-takes it after sleeping);
    /// RedHawk's per-driver opt-out skips it for multithread-safe drivers.
    IoctlWait {
        /// Driver declares itself multithread-safe (the RCIM driver does).
        driver_bkl_free: bool,
    },
}

/// One step of a task program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Burn CPU in user mode for a sampled amount of *work* (wall time grows
    /// under hyperthread/memory contention and interrupt preemption).
    Compute(DurationDist),
    /// Enter the kernel and execute a registered syscall service.
    Syscall(SyscallId),
    /// Join the device's wait queue and block until its interrupt fires.
    WaitIrq { device: DeviceId, api: WaitApi },
    /// Sleep for a sampled duration (timer wakeup; stock 2.4 rounds up to
    /// the next jiffy, RedHawk's POSIX-timer kernels sleep precisely).
    Sleep(DurationDist),
    /// Record a lap timestamp for watched tasks (iteration boundary of the
    /// determinism loop).
    MarkLap,
    /// Leave the CPU voluntarily (sched_yield).
    Yield,
    /// Terminate the task.
    Exit,
}

/// A task's script: a list of ops, optionally looping.
///
/// ```
/// use simcore::{DurationDist, Nanos};
/// use sp_kernel::{Op, Program};
///
/// // The determinism test: stamp a lap, burn ~1.148 s, repeat.
/// let loop_test = Program::forever(vec![
///     Op::MarkLap,
///     Op::Compute(DurationDist::constant(Nanos::from_ms(1_148))),
/// ]);
/// assert!(loop_test.loops());
/// assert_eq!(loop_test.next_index(1), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    ops: Vec<Op>,
    /// When the last op completes, continue from this index (None = exit).
    loop_to: Option<usize>,
}

impl Program {
    /// A program that runs its ops once and exits.
    pub fn once(ops: Vec<Op>) -> Self {
        assert!(!ops.is_empty(), "empty program");
        Program { ops, loop_to: None }
    }

    /// A program that loops forever over its ops.
    pub fn forever(ops: Vec<Op>) -> Self {
        assert!(!ops.is_empty(), "empty program");
        Program { ops, loop_to: Some(0) }
    }

    pub fn op(&self, idx: usize) -> Option<&Op> {
        self.ops.get(idx)
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Index of the op after `idx`, honouring the loop, or None when done.
    pub fn next_index(&self, idx: usize) -> Option<usize> {
        let next = idx + 1;
        if next < self.ops.len() {
            Some(next)
        } else {
            self.loop_to
        }
    }

    pub fn loops(&self) -> bool {
        self.loop_to.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Nanos;

    fn compute() -> Op {
        Op::Compute(DurationDist::constant(Nanos::from_us(10)))
    }

    #[test]
    fn once_terminates() {
        let p = Program::once(vec![compute(), Op::Exit]);
        assert_eq!(p.next_index(0), Some(1));
        assert_eq!(p.next_index(1), None);
        assert!(!p.loops());
    }

    #[test]
    fn forever_wraps() {
        let p = Program::forever(vec![compute(), Op::MarkLap]);
        assert_eq!(p.next_index(1), Some(0));
        assert!(p.loops());
    }

    #[test]
    #[should_panic(expected = "empty program")]
    fn empty_program_rejected() {
        Program::once(vec![]);
    }
}
