//! Seed replication: quantify how much of a measured number is seed luck.
//!
//! The paper reports single runs; a simulator can do better. Each experiment
//! is re-run under `n` independent seeds and the figure-of-merit is reported
//! as min / median / max across replicas. A claim that survives replication
//! ("the shielded max is 20–24 µs across every seed") is much stronger than
//! a single draw.

use crate::figure::{Experiment, FigureResult};
use simcore::Nanos;

/// What a replicated figure of merit measures, and in which unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merit {
    /// Worst-iteration jitter of a determinism run, in thousandths of a
    /// percent of the ideal loop time.
    JitterPctMilli,
    /// Worst-case interrupt-response latency, in nanoseconds.
    MaxLatencyNs,
}

impl Merit {
    /// The column heading for this figure of merit.
    pub fn name(self) -> &'static str {
        match self {
            Merit::JitterPctMilli => "jitter %",
            Merit::MaxLatencyNs => "max latency",
        }
    }

    /// `value` in this unit, for display: jitter as a percent with two
    /// decimals, latency as a [`Nanos`].
    pub fn show(self, value: u64) -> String {
        match self {
            Merit::JitterPctMilli => format!("{:.2}", value as f64 / 1000.0),
            Merit::MaxLatencyNs => Nanos(value).to_string(),
        }
    }
}

/// min / median / max of a figure-of-merit across seed replicas, in the
/// unit `merit` names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replicated {
    pub merit: Merit,
    pub min: u64,
    pub median: u64,
    pub max: u64,
    pub replicas: u32,
}

fn summarize(merit: Merit, mut values: Vec<u64>) -> Replicated {
    assert!(!values.is_empty());
    values.sort();
    Replicated {
        merit,
        min: values[0],
        median: values[values.len() / 2],
        max: values[values.len() - 1],
        replicas: values.len() as u32,
    }
}

impl Replicated {
    /// Relative spread (max−min)/median as a fraction.
    pub fn relative_spread(&self) -> f64 {
        if self.median == 0 {
            0.0
        } else {
            (self.max - self.min) as f64 / self.median as f64
        }
    }
}

/// The figure of merit of one run: worst-iteration jitter for a determinism
/// run, the worst latency otherwise.
fn merit(r: &FigureResult) -> (Merit, u64) {
    match r {
        FigureResult::Determinism(d) => (Merit::JitterPctMilli, d.summary.jitter_pct_milli),
        FigureResult::Realfeel(r) => (Merit::MaxLatencyNs, r.summary.max.as_ns()),
        FigureResult::Rcim(r) => (Merit::MaxLatencyNs, r.summary.max.as_ns()),
    }
}

/// The figure of merit of `experiment` across `seeds` replicas; replica `i`
/// runs on the experiment's seed plus `1 + i`.
pub fn replicate(experiment: &Experiment, seeds: u32) -> Replicated {
    assert!(seeds > 0);
    let runs: Vec<(Merit, u64)> = (0..seeds)
        .map(|i| merit(&experiment.clone().with_seed_offset(1 + i as u64).run(0).0))
        .collect();
    summarize(runs[0].0, runs.into_iter().map(|(_, v)| v).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeterminismConfig, RcimConfig};

    #[test]
    fn summarize_orders_correctly() {
        let r = summarize(Merit::MaxLatencyNs, vec![5u64, 1, 9, 3, 7]);
        assert_eq!(r.min, 1);
        assert_eq!(r.median, 5);
        assert_eq!(r.max, 9);
        assert_eq!(r.replicas, 5);
    }

    #[test]
    fn rcim_guarantee_survives_replication() {
        // The paper's headline: the shielded worst case is a *guarantee*.
        // Every seed must stay under 30 µs.
        let cfg = RcimConfig::fig7_redhawk_shielded().with_samples(15_000);
        let r = replicate(&Experiment::Rcim(cfg), 5);
        assert_eq!(r.merit, Merit::MaxLatencyNs);
        assert!(r.max < Nanos::from_us(30).as_ns(), "worst replica: {}", r.merit.show(r.max));
        assert!(r.min >= Nanos::from_us(12).as_ns(), "best replica: {}", r.merit.show(r.min));
        assert!(r.relative_spread() < 0.6, "spread {:.2}", r.relative_spread());
    }

    #[test]
    fn shielded_jitter_stable_across_seeds() {
        let mut cfg = DeterminismConfig::fig2_redhawk_shielded().with_iterations(10);
        cfg.loop_work = Nanos::from_ms(250);
        let r = replicate(&Experiment::Determinism(cfg), 4);
        // All replicas well under 4 % jitter.
        assert_eq!(r.merit, Merit::JitterPctMilli);
        assert!(r.max < 4_000, "worst replica jitter: {}", r.merit.show(r.max));
    }
}
