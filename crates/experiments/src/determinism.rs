//! The §5 execution-determinism experiment (Figures 1–4).
//!
//! A `SCHED_FIFO`, mlocked task times a fixed CPU-bound loop (the paper's
//! double-precision sine loop, ideal ≈ 1.148 s) over and over while the
//! system handles the §5.1 background load: a looping `scp` from a foreign
//! machine plus the `disknoise` script. The figure is the distribution of
//! per-iteration excess over the unloaded ideal.

use crate::scenario::{Built, ScenarioSpec};
use serde::{Deserialize, Serialize};
use simcore::Nanos;
use sp_hw::CpuId;
use sp_kernel::KernelVariant;
use sp_metrics::{JitterSeries, JitterSummary, LatencyHistogram};

/// Configuration of one determinism run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeterminismConfig {
    pub variant: KernelVariant,
    pub hyperthreading: bool,
    /// Fully shield this CPU and bind the loop task into it.
    pub shield: Option<u32>,
    /// Loop iterations to record (the paper runs hundreds).
    pub iterations: u32,
    /// Work per iteration; the paper's loop takes 1.148 s unloaded.
    pub loop_work: Nanos,
    pub seed: u64,
}

impl DeterminismConfig {
    fn preset(variant: KernelVariant, hyperthreading: bool, shield: Option<u32>) -> Self {
        DeterminismConfig {
            variant,
            hyperthreading,
            shield,
            iterations: 120,
            loop_work: Nanos::from_ms(1_148),
            seed: 0x0051_EE1D,
        }
    }

    /// Figure 1: kernel.org 2.4.18 with hyperthreading enabled.
    pub fn fig1_vanilla_ht() -> Self {
        Self::preset(KernelVariant::Vanilla24, true, None)
    }

    /// Figure 2: RedHawk 1.4, loop on a fully shielded CPU.
    pub fn fig2_redhawk_shielded() -> Self {
        Self::preset(KernelVariant::RedHawk, false, Some(1))
    }

    /// Figure 3: RedHawk 1.4, no shielding.
    pub fn fig3_redhawk_unshielded() -> Self {
        Self::preset(KernelVariant::RedHawk, false, None)
    }

    /// Figure 4: kernel.org 2.4.18 with hyperthreading disabled at boot.
    pub fn fig4_vanilla_noht() -> Self {
        Self::preset(KernelVariant::Vanilla24, false, None)
    }

    pub fn with_iterations(mut self, n: u32) -> Self {
        self.iterations = n;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn label(&self) -> String {
        let ht = if self.hyperthreading { "HT" } else { "no-HT" };
        match self.shield {
            Some(c) => format!("{} ({ht}, shielded cpu{c})", self.variant),
            None => format!("{} ({ht}, unshielded)", self.variant),
        }
    }
}

/// Output of one determinism run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeterminismResult {
    pub config: DeterminismConfig,
    pub summary: JitterSummary,
    /// Per-iteration excess over ideal, for the figure.
    pub variance_histogram: LatencyHistogram,
    /// Fraction of the loop CPU's time stolen by interrupt-context work.
    pub steal_fraction: f64,
    /// Simulator events dispatched (throughput accounting).
    #[serde(default)]
    pub events: u64,
}

/// Run the experiment.
pub fn run_determinism(cfg: &DeterminismConfig) -> DeterminismResult {
    let work_ms = cfg.loop_work.as_ns() / 1_000_000;
    debug_assert_eq!(Nanos::from_ms(work_ms), cfg.loop_work, "loop work is whole ms");
    let mut spec = ScenarioSpec {
        kernel: cfg.variant,
        ..ScenarioSpec::scp_testbed(cfg.hyperthreading, "determinism-loop", work_ms)
    };
    if let Some(cpu) = cfg.shield {
        spec = spec.on_cpu(CpuId(cpu), true);
    }
    let Built { mut sim, tasks, .. } = spec.build(cfg.seed).expect("determinism spec builds");
    let pid = tasks[0];

    // One warm-up lap (the paper calibrates ideal on an unloaded system; the
    // simulated ideal is the contention-free lower bound = loop_work plus
    // tick overheads, which the minimum lap approaches).
    let budget_per_iter = cfg.loop_work.scale(2.0);
    let mut series = JitterSeries::new();
    let mut last_len = 0usize;
    while (sim.obs.laps(pid).len() as u32) < cfg.iterations + 1 {
        sim.run_for(budget_per_iter);
        let len = sim.obs.laps(pid).len();
        assert!(len > last_len, "loop task starved: no lap in {budget_per_iter}");
        last_len = len;
    }
    for d in sim.obs.lap_durations(pid) {
        series.record(d);
    }

    let loop_cpu = sim.task(pid).last_cpu;
    let acc = &sim.obs.cpu[loop_cpu.index()];
    let steal_fraction = acc.stolen().as_ns() as f64 / acc.busy().as_ns().max(1) as f64;

    DeterminismResult {
        config: cfg.clone(),
        summary: series.summary(),
        variance_histogram: series.variance_histogram(),
        steal_fraction,
        events: sim.events_dispatched(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: DeterminismConfig) -> DeterminismResult {
        // Shrink the loop for test speed; jitter *percentages* are
        // scale-free because both the work and the interference scale.
        let mut c = cfg.with_iterations(12);
        c.loop_work = Nanos::from_ms(300);
        run_determinism(&c)
    }

    #[test]
    fn shielded_loop_has_lowest_jitter() {
        let shielded = quick(DeterminismConfig::fig2_redhawk_shielded());
        let unshielded = quick(DeterminismConfig::fig3_redhawk_unshielded());
        assert!(
            shielded.summary.jitter_pct() < 3.0,
            "shielded jitter {}%",
            shielded.summary.jitter_pct()
        );
        assert!(
            unshielded.summary.jitter_pct() > shielded.summary.jitter_pct() * 2.0,
            "unshielded {}% vs shielded {}%",
            unshielded.summary.jitter_pct(),
            shielded.summary.jitter_pct()
        );
        assert!(shielded.steal_fraction < 0.001, "steal {}", shielded.steal_fraction);
    }

    #[test]
    fn hyperthread_sibling_contention_stretches_the_loop() {
        // Controlled version of the Figure 1 vs Figure 4 comparison: pin a
        // CPU hog onto the loop's hyperthread sibling and measure the loop
        // stretch directly. (The full bursty-load comparison is asserted at
        // larger scale in tests/paper_shape.rs; at unit-test scale it is
        // statistically fragile.)
        use simcore::DurationDist;
        use sp_hw::{CpuMask, MachineConfig};
        use sp_kernel::{KernelConfig, Op, Program, SchedPolicy, Simulator, TaskSpec};
        let run = |ht: bool| {
            let machine = MachineConfig::dual_xeon_p4(ht);
            let mut sim = Simulator::new(machine, KernelConfig::new(KernelVariant::Vanilla24), 9);
            // Loop on cpu0; hog pinned to cpu1 (the sibling when HT is on,
            // the other physical core when it is off).
            let loop_pid = sim.spawn(
                TaskSpec::new(
                    "loop",
                    SchedPolicy::fifo(90),
                    Program::forever(vec![
                        Op::MarkLap,
                        Op::Compute(DurationDist::constant(Nanos::from_ms(50))),
                    ]),
                )
                .pinned(CpuMask::single(CpuId(0)))
                .mlockall(),
            );
            sim.spawn(
                TaskSpec::new(
                    "hog",
                    SchedPolicy::nice(0),
                    Program::forever(vec![Op::Compute(DurationDist::constant(
                        Nanos::from_ms(10),
                    ))]),
                )
                .pinned(CpuMask::single(CpuId(1)))
                .mlockall(),
            );
            sim.watch_laps(loop_pid);
            sim.start();
            sim.run_for(Nanos::from_secs(2));
            let durs = sim.obs.lap_durations(loop_pid);
            assert!(durs.len() > 5);
            durs.iter().map(|d| d.as_ns()).sum::<u64>() / durs.len() as u64
        };
        let with_ht = run(true);
        let without = run(false);
        assert!(
            with_ht as f64 > without as f64 * 1.12,
            "busy sibling must stretch the loop >12%: HT {with_ht}ns vs no-HT {without}ns"
        );
    }
}
