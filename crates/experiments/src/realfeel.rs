//! The §6.1/§6.2 `realfeel` interrupt-response experiment (Figures 5 and 6).
//!
//! The RTC is programmed for 2048 Hz periodic interrupts; realfeel blocks in
//! `read(/dev/rtc)` and timestamps each return with the TSC. The stress-kernel
//! suite runs in the background. Figure 5 is stock 2.4.18 (worst case
//! 92.3 ms); Figure 6 is RedHawk with the RTC interrupt and realfeel bound to
//! a fully shielded CPU (worst case 0.565 ms, dominated by the read() exit
//! path's file-layer lock).

use crate::scenario::ScenarioSpec;
use crate::study::{self, Rig, Sampling};
use serde::{Deserialize, Serialize};
use sp_hw::CpuId;
use sp_kernel::{KernelVariant, WorstCaseTrace};
use sp_metrics::{CumulativeReport, LatencyHistogram, LatencySummary};

/// Configuration of one realfeel run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealfeelConfig {
    pub variant: KernelVariant,
    /// Fully shield this CPU; bind realfeel and the RTC interrupt into it.
    pub shield: Option<u32>,
    /// RTC interrupt rate (the paper uses 2048 Hz).
    pub rtc_hz: u32,
    /// Samples to collect (the paper collects 60,000,000 over ~8 h; scale
    /// down as wall-clock budget requires — the tail mechanisms appear well
    /// before then).
    pub samples: u64,
    pub seed: u64,
    /// Split the sample budget across this many independent simulations run
    /// in parallel and merged (1 = the classic single-simulation path). The
    /// result is bit-for-bit reproducible per `(seed, shards)` pair, and
    /// `shards == 1` reproduces the pre-sharding output exactly.
    #[serde(default = "default_shards")]
    pub shards: u32,
}

pub(crate) fn default_shards() -> u32 {
    1
}

impl RealfeelConfig {
    /// Figure 5: stock kernel.org 2.4.18.
    pub fn fig5_vanilla() -> Self {
        RealfeelConfig {
            variant: KernelVariant::Vanilla24,
            shield: None,
            rtc_hz: 2048,
            samples: 400_000,
            seed: 0xF165_5EED,
            shards: 1,
        }
    }

    /// Figure 6: RedHawk 1.4, realfeel + RTC on shielded CPU 1.
    pub fn fig6_redhawk_shielded() -> Self {
        RealfeelConfig {
            variant: KernelVariant::RedHawk,
            shield: Some(1),
            rtc_hz: 2048,
            samples: 400_000,
            seed: 0xF166_5EED,
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

    pub fn label(&self) -> String {
        match self.shield {
            Some(c) => format!("{} (realfeel, shielded cpu{c})", self.variant),
            None => format!("{} (realfeel, unshielded)", self.variant),
        }
    }

    /// The measured-path rig: the §6.1 testbed on this kernel and, when
    /// shielded, realfeel and the RTC interrupt bound into the fully
    /// shielded CPU.
    pub(crate) fn rig(&self) -> Rig {
        let mut spec = ScenarioSpec {
            kernel: self.variant,
            ..ScenarioSpec::rtc_testbed("realfeel", self.rtc_hz)
        };
        if let Some(cpu) = self.shield {
            spec = spec.on_cpu(CpuId(cpu), true);
        }
        Rig { spec, sampling: Sampling { deadline_periods: 4.0, chunk: (1_024, 32_768) } }
    }
}

/// Output of one realfeel run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RealfeelResult {
    pub config: RealfeelConfig,
    pub summary: LatencySummary,
    pub histogram: LatencyHistogram,
    pub cumulative: CumulativeReport,
    /// Interrupts that fired while realfeel wasn't back in read() yet.
    pub overruns: u64,
    /// Simulator events dispatched across all shards (throughput accounting).
    #[serde(default)]
    pub events: u64,
}

/// Run the experiment.
///
/// With `cfg.shards == 1` this is the classic single-simulation path seeded
/// with `cfg.seed`. With `shards = K > 1` one simulation is warmed up on
/// `cfg.seed`, checkpointed, and forked K times; each fork reseeds from a
/// deterministically forked shard seed (see [`crate::shard::shard_seeds`]),
/// drops the warm-up's shared-randomness samples and samples its own share
/// of the budget. The forks run on the fleet and their histograms are merged
/// in shard-index order, so the output is bit-for-bit reproducible for a
/// given `(seed, K)`, and the build + warm-up cost is paid once.
pub fn run_realfeel(cfg: &RealfeelConfig) -> RealfeelResult {
    run_realfeel_with_flight(cfg, 0).0
}

/// [`run_realfeel`] with the flight recorder armed: every shard captures the
/// causal windows behind its `top_k` worst wake-to-user samples, and the
/// per-shard sets are merged into the run's global top-K (worst first). The
/// recorder is pure observation, so the [`RealfeelResult`] is bit-identical
/// to [`run_realfeel`]'s — the merged worst trace's latency *is* the
/// summary's `max`. With `top_k == 0` no recorder is armed and the capture
/// set is empty.
pub fn run_realfeel_with_flight(
    cfg: &RealfeelConfig,
    top_k: usize,
) -> (RealfeelResult, Vec<WorstCaseTrace>) {
    let shards = study::run_shards(cfg.rig(), cfg.seed, cfg.samples, cfg.shards, top_k);
    let out = study::merge(shards, top_k);
    let ladder = if cfg.shield.is_some() {
        CumulativeReport::paper_sub_ms_ladder()
    } else {
        CumulativeReport::paper_ms_ladder()
    };

    let result = RealfeelResult {
        config: cfg.clone(),
        summary: LatencySummary::from_histogram(&out.histogram),
        cumulative: CumulativeReport::new(&out.histogram, &ladder),
        histogram: out.histogram,
        overruns: out.overruns,
        events: out.events,
    };
    (result, out.traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Nanos;

    /// `shards == 1` must be the historical single-simulation output,
    /// bit-for-bit: same seed, same code path, same histogram.
    #[test]
    fn one_shard_reproduces_the_unsharded_path_exactly() {
        let cfg = RealfeelConfig::fig6_redhawk_shielded().with_samples(5_000);
        assert_eq!(cfg.shards, 1);
        let via_public = run_realfeel(&cfg);
        let rig = cfg.rig();
        let (sim, _, pid) = rig.build(cfg.seed);
        let direct = rig.sample(sim, pid, cfg.samples, 0);
        assert_eq!(
            serde_json::to_string(&via_public.histogram).unwrap(),
            serde_json::to_string(&direct.histogram).unwrap()
        );
        assert_eq!(via_public.overruns, direct.overruns);
        assert_eq!(via_public.events, direct.events);
    }

    /// The merged fork-based result is exactly the shard-wise sum and is
    /// bit-for-bit reproducible across runs.
    #[test]
    fn merged_totals_equal_sum_of_shard_totals() {
        let cfg = RealfeelConfig::fig6_redhawk_shielded().with_samples(6_000).with_shards(3);
        let merged = run_realfeel(&cfg);

        let outputs = study::run_shards(cfg.rig(), cfg.seed, cfg.samples, 3, 0);
        assert_eq!(outputs.len(), 3);
        let mut count = 0u64;
        let mut overruns = 0u64;
        let mut events = 0u64;
        let mut reference = LatencyHistogram::new();
        for out in &outputs {
            count += out.histogram.count();
            overruns += out.overruns;
            events += out.events;
            reference.merge(&out.histogram);
        }
        assert_eq!(merged.histogram.count(), count);
        assert!(merged.histogram.count() >= cfg.samples);
        assert_eq!(merged.overruns, overruns);
        assert_eq!(merged.events, events);
        assert_eq!(
            serde_json::to_string(&merged.histogram).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
        // Fork seeds differ from the warm seed, so each shard really sampled
        // its own randomness rather than replaying the warm stream.
        assert_ne!(
            serde_json::to_string(&outputs[0].histogram).unwrap(),
            serde_json::to_string(&outputs[1].histogram).unwrap()
        );
    }

    /// Tentpole acceptance: a fork restored from a warm checkpoint and run
    /// forward (same RNG streams) is bit-identical to just continuing the
    /// warm simulation — the full fig-6 workload round-trips through
    /// `checkpoint()`/`restore()` without observable drift.
    #[test]
    fn forked_run_is_bit_identical_to_continuing_the_warm_sim() {
        let cfg = RealfeelConfig::fig6_redhawk_shielded().with_samples(4_000);
        let rig = cfg.rig();

        let (mut warm, _, pid) = rig.build(cfg.seed);
        rig.collect(&mut warm, pid, 1_000);
        let ck = warm.checkpoint();

        let (mut fork, _, fork_pid) = rig.build(cfg.seed);
        fork.restore(&ck);
        assert_eq!(fork_pid, pid);
        assert_eq!(fork.now(), warm.now());

        rig.collect(&mut warm, pid, cfg.samples);
        rig.collect(&mut fork, fork_pid, cfg.samples);

        assert_eq!(warm.now(), fork.now());
        assert_eq!(warm.events_dispatched(), fork.events_dispatched());
        assert_eq!(warm.obs.latencies(pid), fork.obs.latencies(fork_pid));
    }

    /// Arming the flight recorder changes nothing measurable — the sharded
    /// fork path included — and the merged worst trace explains the merged
    /// histogram's maximum.
    #[test]
    fn flight_capture_is_free_and_explains_the_max() {
        let cfg = RealfeelConfig::fig6_redhawk_shielded().with_samples(6_000).with_shards(3);
        let plain = run_realfeel(&cfg);
        let (armed, traces) = run_realfeel_with_flight(&cfg, 2);

        assert_eq!(
            serde_json::to_string(&plain.histogram).unwrap(),
            serde_json::to_string(&armed.histogram).unwrap()
        );
        assert_eq!(plain.overruns, armed.overruns);
        assert_eq!(plain.events, armed.events);

        assert!(!traces.is_empty() && traces.len() <= 2);
        assert_eq!(traces[0].latency, armed.summary.max, "worst trace must be the max");
        for pair in traces.windows(2) {
            assert!(pair[0].latency >= pair[1].latency);
        }
        assert!(!traces[0].events.is_empty());
    }

    #[test]
    fn vanilla_has_millisecond_tail_shielded_does_not() {
        let v = run_realfeel(&RealfeelConfig::fig5_vanilla().with_samples(40_000));
        let s = run_realfeel(&RealfeelConfig::fig6_redhawk_shielded().with_samples(40_000));
        // Figure 5 shape: most samples fast, worst case tens of ms.
        assert!(v.summary.max > Nanos::from_ms(2), "vanilla max {}", v.summary.max);
        assert!(
            v.cumulative.rows[0].fraction > 0.95,
            "bulk under 0.1 ms: {:.4}",
            v.cumulative.rows[0].fraction
        );
        // Figure 6 shape: everything under a millisecond.
        assert!(s.summary.max < Nanos::from_ms(1), "shielded max {}", s.summary.max);
        assert!(s.summary.max < v.summary.max);
        assert!(s.summary.p50 < Nanos::from_us(25), "shielded p50 {}", s.summary.p50);
    }
}
