//! Kernel variants and configuration.
//!
//! The paper compares a stock kernel.org 2.4.18 against RedHawk 1.4 (2.4.18
//! plus the MontaVista preemption patch, Andrew Morton's low-latency patches,
//! Ingo Molnar's O(1) scheduler, POSIX timers, BKL hold-time reduction,
//! softirq handling changes, and shielded-processor support). The ablation
//! benches also exercise the intermediate patch stacks, so each ingredient is
//! a separate switch here.

use crate::params::{KernelCosts, SectionProfile};
use serde::{Deserialize, Serialize};
use sp_hw::{ContentionModel, RoutingPolicy};

/// Named kernel builds from the paper, in increasing degree of modification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelVariant {
    /// kernel.org 2.4.18, no real-time patches.
    Vanilla24,
    /// + MontaVista preemption patch only.
    Preempt,
    /// + preemption and low-latency patches (the configuration of
    ///   Clark Williams' 1.2 ms result, reference \[5\] of the paper).
    PreemptLowLat,
    /// RedHawk 1.4: all patches plus Concurrent's modifications.
    RedHawk,
}

impl KernelVariant {
    pub const ALL: [KernelVariant; 4] =
        [KernelVariant::Vanilla24, KernelVariant::Preempt, KernelVariant::PreemptLowLat, KernelVariant::RedHawk];

    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Vanilla24 => "kernel.org-2.4.18",
            KernelVariant::Preempt => "2.4.18-preempt",
            KernelVariant::PreemptLowLat => "2.4.18-preempt-lowlat",
            KernelVariant::RedHawk => "RedHawk-1.4",
        }
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full kernel configuration handed to the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelConfig {
    pub variant: KernelVariant,
    /// Kernel preemption (the preemption patch): a task in the kernel may be
    /// preempted outside spinlock-held critical sections.
    pub kernel_preempt: bool,
    /// O(1) scheduler (per-CPU runqueues) vs the 2.4 global goodness scan.
    pub o1_scheduler: bool,
    /// RedHawk softirq change: pending softirq work yields to a woken
    /// real-time task instead of running ahead of it on irq exit.
    pub softirq_deferral: bool,
    /// RedHawk generic-ioctl change: a driver that declares itself
    /// multithread-safe is entered (and re-entered after sleeping) without
    /// the Big Kernel Lock.
    pub bkl_ioctl_optout: bool,
    /// Shielded-processor mechanism compiled in (effective affinity masks,
    /// local-timer control, migration primitive).
    pub shield_support: bool,
    /// The paper's §7 future work, implemented: a fully multithreaded file
    /// layer whose read() exit path takes no global locks, extending the
    /// RCIM-grade guarantee to `read(/dev/...)` waits. Off in every kernel
    /// the paper measured.
    pub file_layer_lockfree: bool,
    /// High-resolution sleep (POSIX timers patch); without it, sleeps round
    /// up to the 10 ms jiffy like stock 2.4.
    pub hires_sleep: bool,
    /// PREEMPT_RT-style threaded interrupt handlers (a post-2.4 anachronism,
    /// off in every kernel the paper measured): the hard ISR shrinks to a
    /// minimal acknowledge (`irq_entry + irq_ack + irq_exit`) that hands the
    /// device body to a schedulable per-line irq thread. The thread's
    /// affinity obeys *process* shielding — it is fenced off shielded CPUs
    /// unless the line is deliberately bound inside the shield — so device
    /// work stops stealing time from shielded CPUs even when the line
    /// itself cannot be re-routed. Turning this on re-orders RNG draws
    /// relative to the classic in-ISR model: runs are deterministic per
    /// seed but not event-for-event comparable to knob-off runs.
    #[serde(default)]
    pub threaded_irqs: bool,
    /// Full dynamic ticks on process-shielded CPUs (the nohz_full
    /// anachronism, Linux ≥ 3.10): while a shielded CPU has at most one
    /// runnable task, its local timer tick performs no work and the timer
    /// re-arms one second ahead *on the original tick grid* (the residual
    /// 1 Hz housekeeping tick, offloaded as in Linux ≥ 4.17 so it costs the
    /// shielded CPU nothing). Elided grid ticks are counted per CPU.
    /// Deterministic for a given seed, but not event-for-event comparable
    /// to a knob-off run (elided ticks draw no costs).
    #[serde(default)]
    pub nohz_full: bool,
    /// Housekeeping-kthread isolation (per-CPU softirq drain / timer
    /// migration / RCU-callback analogue): softirq work raised on a CPU in
    /// the `kthreads` shield mask (`/proc/shield/kthreads`) is punted to the
    /// first online CPU outside the mask instead of running locally. With
    /// the knob off (or the mask empty) behaviour is byte-identical to the
    /// classic model.
    #[serde(default)]
    pub kthread_iso: bool,
    /// Local timer (per-CPU tick) frequency; 100 Hz in the 2.4 era.
    pub local_timer_hz: u32,
    /// How the interrupt controller distributes maskable IRQs.
    pub routing: RoutingPolicy,
    /// Fixed-path costs (entry/exit/switch/...).
    pub costs: KernelCosts,
    /// Critical-section behaviour of background kernel work (per variant).
    pub sections: SectionProfile,
    /// Execution contention model (SMP memory + hyperthread sibling).
    pub contention: ContentionModel,
}

impl KernelConfig {
    /// The preset used throughout the paper's experiments for each build.
    pub fn new(variant: KernelVariant) -> Self {
        let redhawk = variant == KernelVariant::RedHawk;
        KernelConfig {
            variant,
            kernel_preempt: variant != KernelVariant::Vanilla24,
            o1_scheduler: redhawk,
            softirq_deferral: redhawk,
            bkl_ioctl_optout: redhawk,
            shield_support: redhawk,
            file_layer_lockfree: false,
            hires_sleep: redhawk,
            threaded_irqs: false,
            nohz_full: false,
            kthread_iso: false,
            local_timer_hz: 100,
            // Xeon-era IO-APIC in logical/lowest-priority mode spreads
            // maskable interrupts over the online CPUs.
            routing: RoutingPolicy::RoundRobin,
            costs: KernelCosts::default(),
            sections: SectionProfile::for_variant(variant),
            contention: ContentionModel::default(),
        }
    }

    pub fn vanilla() -> Self {
        Self::new(KernelVariant::Vanilla24)
    }

    pub fn redhawk() -> Self {
        Self::new(KernelVariant::RedHawk)
    }

    /// The modern-isolation build: RedHawk lineage plus every post-2.4
    /// isolation knob (threaded IRQs, nohz_full, kthread isolation), the §7
    /// lock-free file layer, and path costs/contention scaled to a ~3 GHz
    /// current-generation core ([`KernelCosts::modern`]). This is the
    /// configuration behind the sub-0.5 µs worst-case claim the `modernmax`
    /// experiment family reproduces.
    pub fn modern() -> Self {
        KernelConfig {
            threaded_irqs: true,
            nohz_full: true,
            kthread_iso: true,
            file_layer_lockfree: true,
            costs: KernelCosts::modern(),
            contention: ContentionModel::modern(),
            ..Self::redhawk()
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.local_timer_hz == 0 {
            return Err("local timer frequency must be positive".into());
        }
        if self.local_timer_hz > 100_000 {
            return Err(format!("implausible tick rate {} Hz", self.local_timer_hz));
        }
        self.contention.validate()?;
        self.costs.validate()?;
        self.sections.validate()?;
        Ok(())
    }

    /// Jiffy length for timer rounding.
    pub fn jiffy(&self) -> simcore::Nanos {
        simcore::Nanos(1_000_000_000 / self.local_timer_hz as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_descriptions() {
        let v = KernelConfig::vanilla();
        assert!(!v.kernel_preempt);
        assert!(!v.o1_scheduler);
        assert!(!v.shield_support);

        let p = KernelConfig::new(KernelVariant::Preempt);
        assert!(p.kernel_preempt);
        assert!(!p.o1_scheduler);

        let r = KernelConfig::redhawk();
        assert!(!r.file_layer_lockfree, "future work is off by default");
        assert!(r.kernel_preempt);
        assert!(r.o1_scheduler);
        assert!(r.softirq_deferral);
        assert!(r.bkl_ioctl_optout);
        assert!(r.shield_support);
        assert!(r.hires_sleep);
    }

    #[test]
    fn jiffy_is_10ms_at_100hz() {
        assert_eq!(KernelConfig::vanilla().jiffy(), simcore::Nanos::from_ms(10));
    }

    #[test]
    fn validation_rejects_zero_hz() {
        let mut c = KernelConfig::vanilla();
        c.local_timer_hz = 0;
        assert!(c.validate().is_err());
        c.local_timer_hz = 1_000_000;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_invalid_cost_distributions() {
        let mut c = KernelConfig::modern();
        c.costs.context_switch =
            simcore::DurationDist::BoundedPareto { lo: 10, hi: 5, alpha: 1.3 };
        assert!(c.validate().unwrap_err().contains("context_switch"));
    }

    #[test]
    fn all_presets_validate() {
        for v in KernelVariant::ALL {
            assert!(KernelConfig::new(v).validate().is_ok(), "{v}");
        }
        assert!(KernelConfig::modern().validate().is_ok());
    }
}
