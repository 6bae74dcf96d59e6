//! The in-kernel shielding *mechanism* (§3 of the paper).
//!
//! The kernel stores three CPU bitmasks — process shield, interrupt shield,
//! local-timer shield — and enforces one rule when computing the effective
//! affinity of any task or interrupt:
//!
//! > "In general, the CPUs that are shielded are removed from the CPU
//! > affinity of a process or interrupt. The only processes or interrupts
//! > that are allowed to execute on a shielded CPU are processes or
//! > interrupts that would otherwise be precluded from running."
//!
//! i.e. shielded CPUs are subtracted from every affinity mask *unless* the
//! subtraction would empty it — a mask lying entirely inside the shield keeps
//! it, which is how the RT task and its interrupt get onto the shielded CPU.
//!
//! The `/proc/shield` file interface and the dynamic-reshield orchestration
//! live in the `sp-core` crate; this module is only the arithmetic plus the
//! kernel-side state.

use serde::{Deserialize, Serialize};
use sp_hw::CpuMask;

/// The three shield masks (one per `/proc/shield` file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ShieldCtl {
    /// CPUs shielded from ordinary processes (`/proc/shield/procs`).
    pub procs: CpuMask,
    /// CPUs shielded from maskable interrupts (`/proc/shield/irqs`).
    pub irqs: CpuMask,
    /// CPUs whose local timer interrupt is disabled (`/proc/shield/ltmrs`).
    pub ltmrs: CpuMask,
    /// CPUs fenced from housekeeping-kthread work (`/proc/shield/kthreads`,
    /// a post-paper extension): softirq work raised here is punted to the
    /// first online CPU outside the mask. Only consulted when the kernel's
    /// `kthread_iso` knob is on; an empty mask is always a no-op.
    #[serde(default)]
    pub kthreads: CpuMask,
}

impl ShieldCtl {
    pub const NONE: ShieldCtl = ShieldCtl {
        procs: CpuMask::EMPTY,
        irqs: CpuMask::EMPTY,
        ltmrs: CpuMask::EMPTY,
        kthreads: CpuMask::EMPTY,
    };

    /// Shield `mask` from processes, interrupts and the local timer at once
    /// (the common full-shield configuration of the paper's experiments).
    /// The kthread mask stays empty — it is a post-paper extension.
    pub fn full(mask: CpuMask) -> Self {
        ShieldCtl { procs: mask, irqs: mask, ltmrs: mask, kthreads: CpuMask::EMPTY }
    }

    pub fn is_none(&self) -> bool {
        *self == Self::NONE
    }
}

/// Effective affinity of a task or interrupt under a shield mask.
///
/// `requested` is what the user asked for, `shield` the relevant shield mask,
/// `online` the online CPUs. Guaranteed non-empty if `requested ∩ online` is.
pub fn effective_mask(requested: CpuMask, shield: CpuMask, online: CpuMask) -> CpuMask {
    let req = requested & online;
    let visible = req - shield;
    if visible.is_empty() {
        req
    } else {
        visible
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONLINE: CpuMask = CpuMask(0b11);

    #[test]
    fn unshielded_passthrough() {
        assert_eq!(effective_mask(CpuMask(0b11), CpuMask::EMPTY, ONLINE), CpuMask(0b11));
    }

    #[test]
    fn shielded_cpu_removed_from_wide_masks() {
        // CPU 1 shielded: a float-anywhere task loses CPU 1.
        assert_eq!(effective_mask(CpuMask(0b11), CpuMask(0b10), ONLINE), CpuMask(0b01));
    }

    #[test]
    fn mask_inside_shield_is_kept() {
        // A task bound to exactly the shielded CPU stays there — this is how
        // the RT task gets in.
        assert_eq!(effective_mask(CpuMask(0b10), CpuMask(0b10), ONLINE), CpuMask(0b10));
    }

    #[test]
    fn partial_overlap_keeps_only_unshielded_part() {
        let online4 = CpuMask(0b1111);
        assert_eq!(effective_mask(CpuMask(0b0110), CpuMask(0b0010), online4), CpuMask(0b0100));
    }

    #[test]
    fn offline_cpus_never_appear() {
        assert_eq!(effective_mask(CpuMask(0b111), CpuMask::EMPTY, ONLINE), CpuMask(0b11));
    }

    #[test]
    fn everything_shielded_keeps_request() {
        // Shielding every online CPU cannot leave tasks nowhere to run.
        assert_eq!(effective_mask(CpuMask(0b11), CpuMask(0b11), ONLINE), CpuMask(0b11));
    }

    #[test]
    fn full_ctl_sets_all_three() {
        let ctl = ShieldCtl::full(CpuMask(0b10));
        assert_eq!(ctl.procs, CpuMask(0b10));
        assert_eq!(ctl.irqs, CpuMask(0b10));
        assert_eq!(ctl.ltmrs, CpuMask(0b10));
        assert!(!ctl.is_none());
        assert!(ShieldCtl::NONE.is_none());
    }
}
