//! Execution-determinism series, as used by the paper's §5 test.
//!
//! The determinism test repeatedly times a fixed CPU-bound loop; any run
//! slower than the ideal (unloaded) time is jitter. This module accumulates
//! the per-iteration wall times and produces the figure's digest:
//! ideal, max, jitter (absolute and as a percentage of ideal), plus a
//! variance-from-ideal histogram for the bar chart.

use crate::histogram::LatencyHistogram;
use serde::{Deserialize, Serialize};
use simcore::Nanos;
use std::fmt;

/// Accumulator for iteration wall times of a fixed workload.
///
/// ```
/// use simcore::Nanos;
/// use sp_metrics::JitterSeries;
///
/// let mut s = JitterSeries::new();
/// s.record(Nanos::from_ms(1_148));   // ideal run
/// s.record(Nanos::from_ms(1_449));   // worst run (paper Figure 1)
/// assert!((s.summary().jitter_pct() - 26.22).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JitterSeries {
    samples: Vec<Nanos>,
}

/// The digest printed under Figures 1–4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JitterSummary {
    /// Number of timed iterations.
    pub iterations: u64,
    /// Unloaded (best-case) iteration time.
    pub ideal: Nanos,
    /// Slowest iteration time.
    pub max: Nanos,
    /// `max - ideal`.
    pub jitter: Nanos,
    /// jitter / ideal, in milli-percent fixed point (26.17% → 26170) —
    /// the paper's headline per-figure number.
    pub jitter_pct_milli: u64,
}

impl JitterSummary {
    /// Jitter as a percentage of the ideal time.
    pub fn jitter_pct(&self) -> f64 {
        self.jitter_pct_milli as f64 / 1000.0
    }
}

impl JitterSeries {
    /// An empty series that infers the ideal from the observed minimum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one iteration's wall time.
    pub fn record(&mut self, wall: Nanos) {
        self.samples.push(wall);
    }

    /// Number of iterations recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no iterations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The ideal (unloaded) iteration time: the observed minimum. The paper
    /// calibrates on an unloaded system, which in simulation equals the
    /// contention-free lower bound.
    pub fn ideal(&self) -> Nanos {
        self.samples.iter().copied().min().unwrap_or(Nanos::ZERO)
    }

    /// The slowest recorded iteration.
    pub fn max(&self) -> Nanos {
        self.samples.iter().copied().max().unwrap_or(Nanos::ZERO)
    }

    /// Digest the series into the figure's scalar summary.
    pub fn summary(&self) -> JitterSummary {
        let ideal = self.ideal();
        let max = self.max();
        let jitter = max.saturating_sub(ideal);
        let jitter_pct_milli = if ideal.is_zero() {
            0
        } else {
            // per-mille-of-percent fixed point: 26.17% -> 26170
            (jitter.as_ns() as u128 * 100_000 / ideal.as_ns() as u128) as u64
        };
        JitterSummary { iterations: self.samples.len() as u64, ideal, max, jitter, jitter_pct_milli }
    }

    /// Histogram of per-iteration excess over ideal (the figures' x-axis).
    pub fn variance_histogram(&self) -> LatencyHistogram {
        let ideal = self.ideal();
        self.samples.iter().map(|s| s.saturating_sub(ideal)).collect()
    }

    /// The raw per-iteration wall times, in record order.
    pub fn samples(&self) -> &[Nanos] {
        &self.samples
    }
}

impl fmt::Display for JitterSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ideal: {:.6} sec  max: {:.6} sec  jitter: {:.6} sec ({:.2}%)",
            self.ideal.as_secs_f64(),
            self.max.as_secs_f64(),
            self.jitter.as_secs_f64(),
            self.jitter_pct()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_hand_computation() {
        let mut s = JitterSeries::new();
        s.record(Nanos::from_ms(1_148)); // the paper's ideal
        s.record(Nanos::from_ms(1_200));
        s.record(Nanos::from_ms(1_448)); // ~26% over
        let sum = s.summary();
        assert_eq!(sum.iterations, 3);
        assert_eq!(sum.ideal, Nanos::from_ms(1_148));
        assert_eq!(sum.max, Nanos::from_ms(1_448));
        assert_eq!(sum.jitter, Nanos::from_ms(300));
        assert!((sum.jitter_pct() - 26.13).abs() < 0.05, "{}", sum.jitter_pct());
    }

    #[test]
    fn variance_histogram_is_relative_to_ideal() {
        let mut s = JitterSeries::new();
        s.record(Nanos::from_ms(100));
        s.record(Nanos::from_ms(121));
        let h = s.variance_histogram();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Nanos::ZERO);
        assert_eq!(h.max(), Nanos::from_ms(21));
    }

    #[test]
    fn empty_series_is_sane() {
        let s = JitterSeries::new();
        let sum = s.summary();
        assert_eq!(sum.iterations, 0);
        assert_eq!(sum.jitter, Nanos::ZERO);
        assert_eq!(sum.jitter_pct(), 0.0);
    }

    #[test]
    fn display_matches_paper_format() {
        let mut s = JitterSeries::new();
        s.record(Nanos::from_secs(1));
        s.record(Nanos::from_ms(1_300));
        let text = s.summary().to_string();
        assert!(text.contains("ideal: 1.000000 sec"), "{text}");
        assert!(text.contains("(30.00%)"), "{text}");
    }
}
