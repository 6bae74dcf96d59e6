//! Property tests for the metrics layer.

use proptest::prelude::*;
use simcore::Nanos;
use sp_metrics::{CumulativeReport, JitterSeries, LatencyHistogram, LatencySummary};

/// Dense reference model of [`LatencyHistogram`]: all 3,776 buckets, the
/// layout its JSON keeps, with the plain branchy log-linear bucket mapping.
struct Dense {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const DENSE_BUCKETS: usize = 64 + 58 * 64;

fn dense_index(v: u64) -> usize {
    if v < 64 {
        v as usize
    } else {
        let octave = (63 - v.leading_zeros() - 6) as usize;
        64 + octave * 64 + ((v >> octave) - 64) as usize
    }
}

fn dense_upper(idx: usize) -> u64 {
    if idx < 64 {
        idx as u64
    } else {
        let (octave, sub) = ((idx - 64) / 64, ((idx - 64) % 64) as u64);
        ((64 + sub + 1) << octave) - 1
    }
}

impl Dense {
    fn new(values: &[u64]) -> Self {
        let mut d =
            Dense { counts: vec![0; DENSE_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 };
        for &v in values {
            d.counts[dense_index(v)] += 1;
            d.count += 1;
            d.sum += v as u128;
            d.min = d.min.min(v);
            d.max = d.max.max(v);
        }
        d
    }

    /// The JSON a histogram holding these samples must print.
    fn json(&self) -> String {
        let counts: Vec<String> = self.counts.iter().map(u64::to_string).collect();
        format!(
            r#"{{"counts":[{}],"count":{},"sum":{},"min":{},"max":{}}}"#,
            counts.join(","),
            self.count,
            self.sum,
            self.min,
            self.max
        )
    }

    fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return dense_upper(idx).min(self.max);
            }
        }
        self.max
    }

    fn count_below(&self, t: u64) -> u64 {
        if t == 0 {
            0
        } else {
            self.counts[..=dense_index(t - 1)].iter().sum()
        }
    }

    fn nonzero_buckets(&self) -> Vec<(Nanos, u64)> {
        let occupied = self.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        occupied.map(|(idx, &c)| (Nanos(dense_upper(idx)), c)).collect()
    }
}

/// `h` prints the dense model's JSON byte for byte, round-trips through
/// `from_str`, and answers every query as the dense model does, before and
/// after the round trip.
fn assert_matches_dense(h: &LatencyHistogram, d: &Dense) {
    let json = serde_json::to_string(h).unwrap();
    assert_eq!(json, d.json());
    let back: LatencyHistogram = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
    let thresholds =
        [0, 1, 63, 64, 65, 1_000, 1 << 40, d.min, d.max, d.max.saturating_add(1), u64::MAX];
    for h in [h, &back] {
        let min = if d.count == 0 { 0 } else { d.min };
        assert_eq!((h.count(), h.min(), h.max()), (d.count, Nanos(min), Nanos(d.max)));
        assert_eq!(h.mean(), Nanos(d.mean()));
        for q in [0.0, 0.001, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), Nanos(d.quantile(q)), "q{q}");
        }
        for t in thresholds {
            assert_eq!(h.count_below(Nanos(t)), d.count_below(t), "below {t}");
        }
        assert_eq!(h.nonzero_buckets().collect::<Vec<_>>(), d.nonzero_buckets());
    }
}

/// Record `a` and `b` into two histograms, check each against the dense
/// model, then merge them in both orders and check both results against
/// the dense model of the concatenation.
fn check_against_dense(a: &[u64], b: &[u64]) {
    let ha: LatencyHistogram = a.iter().copied().map(Nanos).collect();
    let hb: LatencyHistogram = b.iter().copied().map(Nanos).collect();
    assert_matches_dense(&ha, &Dense::new(a));
    assert_matches_dense(&hb, &Dense::new(b));
    let all = Dense::new(&[a, b].concat());
    let mut ab = ha.clone();
    ab.merge(&hb);
    let mut ba = hb;
    ba.merge(&ha);
    assert_matches_dense(&ab, &all);
    assert_matches_dense(&ba, &all);
}

/// The corner cases: no samples, the lowest bucket and the largest sample
/// the simulator's nanosecond clock can hold with headroom.
#[test]
fn trimmed_histogram_matches_dense_model_at_the_edges() {
    let edges: [&[u64]; 4] = [&[], &[0], &[u64::MAX / 2], &[0, u64::MAX / 2]];
    for a in edges {
        for b in edges {
            check_against_dense(a, b);
        }
    }
}

proptest! {
    /// The trimmed histogram is indistinguishable from the dense model, in
    /// its JSON and in every query. `a` spreads log-uniformly up to
    /// `u64::MAX / 2`; `b` stays below 5 µs, so the two usually stop at
    /// different top buckets when merged.
    #[test]
    fn trimmed_histogram_matches_dense_model(
        a in proptest::collection::vec((0u64..=u64::MAX / 2, 0u32..63), 0..60),
        b in proptest::collection::vec(0u64..5_000, 0..60),
    ) {
        let a: Vec<u64> = a.into_iter().map(|(m, shift)| m >> shift).collect();
        check_against_dense(&a, &b);
    }

    /// Histogram count/min/max/mean are exact; quantiles bracket the data
    /// within the documented 1.6 % bucket resolution.
    #[test]
    fn histogram_matches_exact_statistics(
        values in proptest::collection::vec(1u64..10_000_000_000, 1..500),
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(Nanos(v));
        }
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let mean = values.iter().map(|&v| v as u128).sum::<u128>() / values.len() as u128;
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), Nanos(min));
        prop_assert_eq!(h.max(), Nanos(max));
        prop_assert_eq!(h.mean(), Nanos(mean as u64));

        // Quantile sanity against a sorted copy.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let est = h.quantile(q).as_ns() as f64;
            prop_assert!(
                est >= exact * 0.99 && est <= (exact * 1.04 + 2.0),
                "q{q}: est {est} vs exact {exact}"
            );
        }
    }

    /// `count_below` is monotone in the threshold and bounded by the count.
    #[test]
    fn count_below_is_monotone(
        values in proptest::collection::vec(1u64..1_000_000, 1..200),
        thresholds in proptest::collection::vec(1u64..2_000_000, 2..20),
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(Nanos(v));
        }
        let mut ts = thresholds;
        ts.sort_unstable();
        let mut last = 0;
        for t in ts {
            let c = h.count_below(Nanos(t));
            prop_assert!(c >= last, "count_below not monotone");
            prop_assert!(c <= h.count());
            last = c;
        }
        prop_assert_eq!(h.count_below(Nanos(0)), 0);
        prop_assert_eq!(h.count_below(Nanos(u64::MAX)), h.count());
    }

    /// Merging histograms equals recording the concatenation.
    #[test]
    fn merge_equals_concatenation(
        a in proptest::collection::vec(1u64..1_000_000, 1..100),
        b in proptest::collection::vec(1u64..1_000_000, 1..100),
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hall = LatencyHistogram::new();
        for &v in &a {
            ha.record(Nanos(v));
            hall.record(Nanos(v));
        }
        for &v in &b {
            hb.record(Nanos(v));
            hall.record(Nanos(v));
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hall.count());
        prop_assert_eq!(ha.min(), hall.min());
        prop_assert_eq!(ha.max(), hall.max());
        prop_assert_eq!(ha.mean(), hall.mean());
        prop_assert_eq!(ha.quantile(0.9), hall.quantile(0.9));
    }

    /// Summary fields are ordered: min <= p50 <= p90 <= p99 <= p99.9 <= max.
    #[test]
    fn summary_quantiles_are_ordered(
        values in proptest::collection::vec(1u64..100_000_000, 2..300),
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(Nanos(v));
        }
        let s = LatencySummary::from_histogram(&h);
        prop_assert!(s.min <= s.p50 || s.p50.as_ns() + 2 >= s.min.as_ns());
        prop_assert!(s.p50 <= s.p90);
        prop_assert!(s.p90 <= s.p99);
        prop_assert!(s.p99 <= s.p999);
        prop_assert!(s.p999 <= s.p9999);
        prop_assert!(s.p9999 <= s.max.max(s.p9999));
        prop_assert!(s.max >= s.min);
    }

    /// Cumulative report fractions are nondecreasing and end at ≤ 1.
    #[test]
    fn cumulative_fractions_monotone(
        values in proptest::collection::vec(1u64..50_000_000, 1..200),
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(Nanos(v));
        }
        let report = CumulativeReport::new(&h, &CumulativeReport::paper_ms_ladder());
        let mut last = 0.0;
        for row in &report.rows {
            prop_assert!(row.fraction >= last);
            prop_assert!(row.fraction <= 1.0 + 1e-12);
            last = row.fraction;
        }
    }

    /// Jitter is invariant under sample order, and zero for constant series.
    #[test]
    fn jitter_order_invariant(mut values in proptest::collection::vec(1u64..1_000_000, 2..100)) {
        let mut a = JitterSeries::new();
        for &v in &values {
            a.record(Nanos(v));
        }
        values.reverse();
        let mut b = JitterSeries::new();
        for &v in &values {
            b.record(Nanos(v));
        }
        prop_assert_eq!(a.summary(), b.summary());

        let mut c = JitterSeries::new();
        for _ in 0..10 {
            c.record(Nanos(values[0]));
        }
        prop_assert_eq!(c.summary().jitter, Nanos::ZERO);
        prop_assert_eq!(c.summary().jitter_pct(), 0.0);
    }
}
