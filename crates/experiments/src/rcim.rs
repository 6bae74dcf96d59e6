//! The §6.3 RCIM interrupt-response experiment (Figure 7).
//!
//! The RCIM PCI card generates a periodic interrupt; the test blocks in the
//! driver's `ioctl()` (multithreaded driver, no BKL thanks to the RedHawk
//! opt-out) and, on waking, reads the card's mapped count register. The load
//! is heavier than §6.1: stress-kernel plus X11perf on the console plus a
//! ttcp stream over real Ethernet. On a shielded CPU the paper measures
//! min 11 µs / avg 11.3 µs / max 27 µs over 59 million interrupts.

use crate::scenario::{MeasuredKind, ScenarioSpec, WaitApiSpec};
use crate::study::{self, Rig, Sampling};
use serde::{Deserialize, Serialize};
use simcore::Nanos;
use sp_hw::CpuId;
use sp_kernel::{KernelVariant, WorstCaseTrace};
use sp_metrics::{CumulativeReport, LatencyHistogram, LatencySummary};

/// Configuration of one RCIM-response run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RcimConfig {
    pub variant: KernelVariant,
    pub shield: Option<u32>,
    /// RCIM periodic timer interval.
    pub period: Nanos,
    /// Whether the RCIM driver is entered BKL-free (ablation A1 flips this).
    pub driver_bkl_free: bool,
    pub samples: u64,
    pub seed: u64,
    /// Split the sample budget across this many independent simulations run
    /// in parallel and merged (1 = the classic single-simulation path); see
    /// [`crate::shard`] for the determinism contract.
    #[serde(default = "crate::realfeel::default_shards")]
    pub shards: u32,
}

impl RcimConfig {
    /// Figure 7: RedHawk, shielded CPU 1, BKL-free driver.
    pub fn fig7_redhawk_shielded() -> Self {
        RcimConfig {
            variant: KernelVariant::RedHawk,
            shield: Some(1),
            period: Nanos::from_ms(1),
            driver_bkl_free: true,
            samples: 400_000,
            seed: 0xF167_5EED,
            shards: 1,
        }
    }

    pub fn with_samples(mut self, n: u64) -> Self {
        self.samples = n;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    pub fn with_bkl(mut self) -> Self {
        self.driver_bkl_free = false;
        self
    }

    pub fn unshielded(mut self) -> Self {
        self.shield = None;
        self
    }

    pub fn label(&self) -> String {
        let bkl = if self.driver_bkl_free { "BKL-free ioctl" } else { "BKL ioctl" };
        match self.shield {
            Some(c) => format!("{} (RCIM, shielded cpu{c}, {bkl})", self.variant),
            None => format!("{} (RCIM, unshielded, {bkl})", self.variant),
        }
    }

    /// The measured-path rig: the §6.3 testbed on this kernel and driver
    /// and, when shielded, the waiter and the RCIM interrupt bound into the
    /// fully shielded CPU.
    pub(crate) fn rig(&self) -> Rig {
        let period_us = self.period.as_ns() / 1_000;
        debug_assert_eq!(Nanos::from_us(period_us), self.period, "RCIM period is whole µs");
        let mut spec = ScenarioSpec {
            kernel: self.variant,
            ..ScenarioSpec::rcim_testbed("rcim-response", period_us)
        };
        if let MeasuredKind::IrqWait { api, .. } = &mut spec.measured[0].kind {
            *api = WaitApiSpec::Ioctl { driver_bkl_free: self.driver_bkl_free };
        }
        if let Some(cpu) = self.shield {
            spec = spec.on_cpu(CpuId(cpu), true);
        }
        Rig { spec, sampling: Sampling { deadline_periods: 4.0, chunk: (1_024, 16_384) } }
    }
}

/// Output of one RCIM run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RcimResult {
    pub config: RcimConfig,
    pub summary: LatencySummary,
    pub histogram: LatencyHistogram,
    pub cumulative: CumulativeReport,
    /// Simulator events dispatched across all shards (throughput accounting).
    #[serde(default)]
    pub events: u64,
}

/// Run the experiment.
///
/// Sharding follows the same determinism contract as
/// [`crate::realfeel::run_realfeel`]: `shards == 1` is the classic
/// single-simulation path on `cfg.seed`; K > 1 warms one simulation and
/// forks K reseeded copies merged in shard-index order.
pub fn run_rcim(cfg: &RcimConfig) -> RcimResult {
    run_rcim_with_flight(cfg, 0).0
}

/// [`run_rcim`] with the flight recorder armed: every shard captures the
/// causal windows behind its `top_k` worst samples and the sets are merged
/// into the run's global top-K (worst first). The recorder is pure
/// observation, so the [`RcimResult`] is bit-identical to [`run_rcim`]'s and
/// the merged worst trace's latency equals the summary's `max`. With
/// `top_k == 0` no recorder is armed and the capture set is empty.
pub fn run_rcim_with_flight(cfg: &RcimConfig, top_k: usize) -> (RcimResult, Vec<WorstCaseTrace>) {
    let shards = study::run_shards(cfg.rig(), cfg.seed, cfg.samples, cfg.shards, top_k);
    let out = study::merge(shards, top_k);
    let result = RcimResult {
        config: cfg.clone(),
        summary: LatencySummary::from_histogram(&out.histogram),
        cumulative: CumulativeReport::new(&out.histogram, &CumulativeReport::paper_us_ladder()),
        histogram: out.histogram,
        events: out.events,
    };
    (result, out.traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shielded_rcim_is_tens_of_microseconds() {
        let r = run_rcim(&RcimConfig::fig7_redhawk_shielded().with_samples(30_000));
        assert!(r.summary.min >= Nanos::from_us(8), "min {}", r.summary.min);
        assert!(r.summary.max < Nanos::from_us(30), "max {}", r.summary.max);
        assert!(r.summary.mean < Nanos::from_us(18), "mean {}", r.summary.mean);
    }

    /// Flight capture is free (bit-identical result) and the worst captured
    /// trace is the run's maximum, including through the sharded fork path.
    #[test]
    fn flight_capture_is_free_and_explains_the_max() {
        let cfg = RcimConfig::fig7_redhawk_shielded().with_samples(6_000).with_shards(2);
        let plain = run_rcim(&cfg);
        let (armed, traces) = run_rcim_with_flight(&cfg, 3);
        assert_eq!(
            serde_json::to_string(&plain.histogram).unwrap(),
            serde_json::to_string(&armed.histogram).unwrap()
        );
        assert_eq!(plain.events, armed.events);
        assert!(!traces.is_empty());
        assert_eq!(traces[0].latency, armed.summary.max);
        assert!(traces[0].breakdown.is_some());
    }

    #[test]
    fn bkl_ioctl_path_ruins_the_guarantee() {
        let free = run_rcim(&RcimConfig::fig7_redhawk_shielded().with_samples(33_000));
        let bkl = run_rcim(&RcimConfig::fig7_redhawk_shielded().with_bkl().with_samples(33_000));
        assert!(
            bkl.summary.max > free.summary.max * 3,
            "BKL max {} vs free max {}",
            bkl.summary.max,
            free.summary.max
        );
    }
}
