//! # sp-kernel — a discrete-event simulation of a Linux 2.4-era SMP kernel
//!
//! The substrate for reproducing *Shielded Processors: Guaranteeing
//! Sub-millisecond Response in Standard Linux* (IPPS 2003). It models the
//! kernel mechanics that determine real-time latency and jitter:
//!
//! * tasks with POSIX scheduling policies and CPU affinity ([`task`]),
//! * two schedulers — the 2.4 goodness scan and the O(1) scheduler ([`sched`]),
//! * interrupt delivery, bottom halves, per-CPU local timer ([`sim`]),
//! * global spinlocks including the BKL, with holder-preemption stretching
//!   ([`lock`]),
//! * syscall execution shapes with per-variant critical-section profiles
//!   ([`syscall`], [`params`]),
//! * the in-kernel shielding mechanism ([`shieldctl`]).
//!
//! The user-facing shield interface (`/proc/shield`) lives in `sp-core`;
//! concrete devices live in [`devices`] (re-exported by `sp-devices`);
//! workload generators in `sp-workloads`.

pub mod device;
pub mod devices;
pub mod flight;
pub mod ids;
pub mod kconfig;
pub mod lock;
pub mod observe;
pub mod params;
pub mod program;
pub mod sched;
pub mod shieldctl;
pub mod sim;
pub mod syscall;
pub mod task;

pub use device::{Device, DeviceClone, DeviceCtx, IsrOutcome};
pub use devices::AnyDevice;
pub use flight::{FlightRecorder, WorstCaseTrace};
pub use ids::{DeviceId, LockId, Pid, SoftirqClass, SyscallId};
pub use kconfig::{KernelConfig, KernelVariant};
pub use observe::{CpuAccounting, Observations, WakeBreakdown};
pub use params::{KernelCosts, SectionProfile};
pub use program::{Op, Program, WaitApi};
pub use sched::SchedulerKind;
pub use shieldctl::{effective_mask, ShieldCtl};
pub use sim::{Checkpoint, IrqInfo, Simulator};
pub use syscall::{IoSpec, KernelSegment, SyscallService};
pub use task::{SchedPolicy, TaskSpec, TaskState};
