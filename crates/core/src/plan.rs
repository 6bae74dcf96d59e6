//! High-level shield configuration: describe the real-time partition once,
//! apply it atomically.
//!
//! The paper's experiments all follow one recipe: pick a CPU, shield it from
//! processes, interrupts and the local timer, then bind the measurement task
//! and its interrupt source *into* the shield (their affinity masks lie
//! entirely inside the shielded set, which per the §3 semantics is exactly
//! what admits them). [`ShieldPlan`] captures that recipe.

use sp_hw::{CpuId, CpuMask};
use sp_kernel::{DeviceId, Pid, ShieldCtl, Simulator};

/// A declarative shield setup.
///
/// ```
/// use sp_core::ShieldPlan;
/// use sp_hw::{CpuId, CpuMask, MachineConfig};
/// use sp_kernel::{KernelConfig, Simulator};
///
/// let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), 1);
/// sim.start();
/// ShieldPlan::cpu(CpuId(1)).apply(&mut sim).unwrap();
/// assert_eq!(sim.shield().procs, CpuMask::single(CpuId(1)));
/// assert_eq!(sim.shield().ltmrs, CpuMask::single(CpuId(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShieldPlan {
    shielded: CpuMask,
    shield_procs: bool,
    shield_irqs: bool,
    shield_ltmrs: bool,
    shield_kthreads: bool,
    bind_tasks: Vec<Pid>,
    bind_irqs: Vec<DeviceId>,
}

/// Problems detected while applying a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    EmptyShield,
    /// The kernel refused (no shield support, or the mask covers every CPU).
    Rejected(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::EmptyShield => write!(f, "plan shields no CPUs"),
            PlanError::Rejected(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl ShieldPlan {
    /// Fully shield `cpus` (processes + interrupts + local timer), the
    /// configuration every figure of the paper uses.
    pub fn full(cpus: CpuMask) -> Self {
        ShieldPlan {
            shielded: cpus,
            shield_procs: true,
            shield_irqs: true,
            shield_ltmrs: true,
            shield_kthreads: false,
            bind_tasks: Vec::new(),
            bind_irqs: Vec::new(),
        }
    }

    /// Shield a single CPU (the common dual-processor setup).
    pub fn cpu(cpu: CpuId) -> Self {
        Self::full(CpuMask::single(cpu))
    }

    /// Keep the local timer running on the shielded CPUs (ablation A2).
    pub fn keep_local_timer(mut self) -> Self {
        self.shield_ltmrs = false;
        self
    }

    /// Additionally fence housekeeping-kthread (softirq) work off the
    /// shielded CPUs. A no-op on kernels without the `kthread_iso` knob.
    pub fn fence_kthreads(mut self) -> Self {
        self.shield_kthreads = true;
        self
    }

    /// Bind a task into the shield: its affinity is set to exactly the
    /// shielded set, which the shield semantics admit.
    pub fn bind_task(mut self, pid: Pid) -> Self {
        self.bind_tasks.push(pid);
        self
    }

    /// Bind a device interrupt into the shield.
    pub fn bind_irq(mut self, dev: DeviceId) -> Self {
        self.bind_irqs.push(dev);
        self
    }

    /// The shielded CPU set.
    pub fn shielded_cpus(&self) -> CpuMask {
        self.shielded
    }

    /// Apply to a simulator: write the shield masks, then the bindings.
    pub fn apply(&self, sim: &mut Simulator) -> Result<(), PlanError> {
        if self.shielded.is_empty() {
            return Err(PlanError::EmptyShield);
        }
        let ctl = ShieldCtl {
            procs: if self.shield_procs { self.shielded } else { CpuMask::EMPTY },
            irqs: if self.shield_irqs { self.shielded } else { CpuMask::EMPTY },
            ltmrs: if self.shield_ltmrs { self.shielded } else { CpuMask::EMPTY },
            kthreads: if self.shield_kthreads { self.shielded } else { CpuMask::EMPTY },
        };
        sim.set_shield(ctl).map_err(PlanError::Rejected)?;
        for &pid in &self.bind_tasks {
            sim.set_task_affinity(pid, self.shielded).map_err(PlanError::Rejected)?;
        }
        for &dev in &self.bind_irqs {
            sim.set_irq_affinity(dev, self.shielded).map_err(PlanError::Rejected)?;
        }
        Ok(())
    }

    /// Undo: clear the shield (bindings keep their explicit affinity).
    pub fn clear(sim: &mut Simulator) -> Result<(), PlanError> {
        sim.set_shield(ShieldCtl::NONE).map_err(PlanError::Rejected)
    }
}
