//! # shielded-processors
//!
//! A full reproduction of **"Shielded Processors: Guaranteeing
//! Sub-millisecond Response in Standard Linux"** (Brosky & Rotolo, IPPS
//! 2003) as a mechanistic discrete-event simulation of a Linux 2.4-era SMP
//! kernel, with CPU shielding implemented exactly as the paper specifies.
//!
//! ## Quick start
//!
//! ```
//! use shielded_processors::prelude::*;
//!
//! // A dual-CPU machine running the RedHawk kernel build.
//! let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), 42);
//!
//! // An interrupt source and a real-time task waiting on it.
//! let rcim = sim.add_device(RcimDevice::new(Nanos::from_ms(1)));
//! let rt = sim.spawn(
//!     TaskSpec::new(
//!         "rt-waiter",
//!         SchedPolicy::fifo(90),
//!         Program::forever(vec![Op::WaitIrq {
//!             device: rcim,
//!             api: WaitApi::IoctlWait { driver_bkl_free: true },
//!         }]),
//!     )
//!     .mlockall(),
//! );
//! sim.watch_latency(rt);
//! sim.start();
//!
//! // Shield CPU 1 and bind the task + interrupt into the shield.
//! ShieldPlan::cpu(CpuId(1)).bind_task(rt).bind_irq(rcim).apply(&mut sim).unwrap();
//!
//! sim.run_for(Nanos::from_secs(1));
//! let worst = sim.obs.latencies(rt).iter().max().copied().unwrap();
//! assert!(worst < Nanos::from_us(30), "sub-30µs guarantee: {worst}");
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`simcore`] | virtual time, event queue, RNG, distributions, tracing |
//! | [`sp_metrics`] | latency histograms, jitter series, report formatting |
//! | [`sp_hw`] | CPUs, hyperthread topology, cpumasks, IRQ routing, contention |
//! | [`sp_kernel`] | the simulated kernel: schedulers, interrupts, locks, syscalls |
//! | [`sp_devices`] | RTC, RCIM, NIC, disk, GPU device models |
//! | [`sp_core`] | **the contribution**: `/proc/shield` + [`ShieldPlan`](sp_core::ShieldPlan) |
//! | [`sp_workloads`] | stress-kernel, scp/disknoise, X11perf, request-serving load generators |
//! | [`sp_autopilot`] | closed-loop adaptive shielding: deterministic feedback controller |
//! | [`sp_fleet`] | pull-based job pool: real OS threads, deterministic index-ordered results |
//! | [`sp_experiments`] | one scenario per paper figure, fault matrices, sweeps, figure-suite runner |

pub use simcore;
pub use sp_autopilot;
pub use sp_core;
pub use sp_devices;
pub use sp_experiments;
pub use sp_fleet;
pub use sp_hw;
pub use sp_kernel;
pub use sp_metrics;
pub use sp_workloads;

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use simcore::{DurationDist, Instant, Nanos, SimRng};
    pub use sp_core::{PlanError, ProcShield, ShieldFile, ShieldPlan};
    pub use sp_devices::{DiskDevice, GpuDevice, NicDevice, OnOffPoisson, RcimDevice, RtcDevice};
    pub use sp_hw::{ContentionModel, CpuId, CpuMask, IrqLine, MachineConfig, RoutingPolicy};
    pub use sp_kernel::{
        Device, DeviceId, KernelConfig, KernelSegment, KernelVariant, LockId, Op, Pid, Program,
        SchedPolicy, ShieldCtl, Simulator, SyscallService, TaskSpec, TaskState, WaitApi,
    };
    pub use sp_metrics::{CumulativeReport, JitterSeries, LatencyHistogram, LatencySummary, Table};
}
