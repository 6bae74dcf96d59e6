//! Log-linear latency histogram (HdrHistogram-style).
//!
//! Values are bucketed exactly below 64 ns and into 64 linear sub-buckets per
//! power-of-two octave above that, giving ≤ 1.6 % relative error across the
//! full `u64` nanosecond range — cheap enough to record every one of the
//! millions of samples an experiment produces.
//!
//! A histogram stores counts only up to its highest occupied bucket, so one
//! whose maximum is 1 ms holds about 7.5 KiB of counts instead of all 3,776
//! buckets (29.5 KiB). Its JSON form stays dense: `counts` always lists all
//! 3,776 buckets.

use serde::{Deserialize, Serialize, Value};
use simcore::Nanos;

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS; // 64
const OCTAVES: usize = 58; // msb 6..=63
const NUM_BUCKETS: usize = SUB as usize + OCTAVES * SUB as usize;

#[inline]
fn value_to_index(v: u64) -> usize {
    // Branch-free form of the log-linear mapping. With
    // `octave = max(msb(v|1) - SUB_BITS, 0)`:
    //   v < 64        → octave 0, index = v              (exact buckets)
    //   v in [64,128) → octave 0, index = v              (same as sub formula)
    //   v ≥ 128       → index = SUB + (octave-?)·SUB + ((v>>octave) - SUB)
    // which all collapse to `octave·SUB + (v >> octave)` — identical bucket
    // boundaries to the branchy version, but `record` compiles to shift/mask
    // arithmetic with no data-dependent branch.
    let msb = 63 - (v | 1).leading_zeros();
    let octave = msb.saturating_sub(SUB_BITS);
    ((octave as u64 * SUB) + (v >> octave)) as usize
}

/// Inclusive upper edge of the bucket at `idx`.
#[inline]
fn index_to_upper(idx: usize) -> u64 {
    if idx < SUB as usize {
        idx as u64
    } else {
        let rel = idx - SUB as usize;
        let octave = (rel / SUB as usize) as u32;
        let sub = (rel % SUB as usize) as u64;
        ((SUB + sub + 1) << octave) - 1
    }
}

/// Latency histogram with exact count/min/max/sum and bucketed quantiles.
///
/// ```
/// use simcore::Nanos;
/// use sp_metrics::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for us in [11, 12, 11, 27] {
///     h.record(Nanos::from_us(us));
/// }
/// assert_eq!(h.max(), Nanos::from_us(27));
/// assert_eq!(h.count_below(Nanos::from_us(20)), 3);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Per-bucket counts up to the highest occupied bucket; buckets past the
    /// end are empty.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<Nanos> for LatencyHistogram {
    /// Record every sample, in iteration order.
    fn from_iter<I: IntoIterator<Item = Nanos>>(iter: I) -> Self {
        let mut h = LatencyHistogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: Nanos) {
        let ns = v.as_ns();
        let idx = value_to_index(ns);
        match self.counts.get_mut(idx) {
            Some(c) => *c += 1,
            None => {
                self.grow_to(idx + 1);
                self.counts[idx] = 1;
            }
        }
        self.count += 1;
        self.sum += ns as u128;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded value.
    pub fn min(&self) -> Nanos {
        if self.count == 0 { Nanos::ZERO } else { Nanos(self.min) }
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> Nanos {
        Nanos(self.max)
    }

    /// Exact mean of recorded values.
    pub fn mean(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos((self.sum / self.count as u128) as u64)
        }
    }

    /// Quantile in `[0, 1]`; returns the upper edge of the bucket containing
    /// the q-th sample (≤ 1.6 % above the true value), clamped to the exact
    /// recorded max.
    pub fn quantile(&self, q: f64) -> Nanos {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return Nanos::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Nanos(index_to_upper(idx).min(self.max));
            }
        }
        Nanos(self.max)
    }

    /// Number of samples below `threshold`, up to bucket resolution: the
    /// bucket containing `threshold - 1` is counted in full, so the result can
    /// overshoot a strict count by at most that bucket's width (≤ 1.6 % of the
    /// threshold). Report thresholds are far apart relative to that.
    pub fn count_below(&self, threshold: Nanos) -> u64 {
        let t = threshold.as_ns();
        if t == 0 {
            return 0;
        }
        let t_idx = value_to_index(t - 1);
        self.counts.iter().take(t_idx + 1).sum()
    }

    /// Extend `counts` with empty buckets to `len`. Capacity is reserved
    /// to the end of `len`'s 64-bucket block, so a rising maximum
    /// reallocates at most once per octave.
    #[cold]
    fn grow_to(&mut self, len: usize) {
        let cap = len.next_multiple_of(SUB as usize);
        self.counts.reserve_exact(cap - self.counts.len());
        self.counts.resize(len, 0);
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.counts.len() > self.counts.len() {
            self.grow_to(other.counts.len());
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterate non-empty buckets as `(upper_edge, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (Nanos, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (Nanos(index_to_upper(idx)), c))
    }
}

impl Serialize for LatencyHistogram {
    fn to_value(&self) -> Value {
        let counts = self.counts.iter().copied().chain(std::iter::repeat(0)).take(NUM_BUCKETS);
        Value::Object(vec![
            ("counts".into(), Value::Array(counts.map(Value::U64).collect())),
            ("count".into(), self.count.to_value()),
            ("sum".into(), self.sum.to_value()),
            ("min".into(), self.min.to_value()),
            ("max".into(), self.max.to_value()),
        ])
    }
}

impl Deserialize for LatencyHistogram {
    /// Accepts up to 3,776 counts (fewer means the rest are empty) and keeps
    /// them up to the last non-zero one.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let fields = v.as_object().ok_or_else(|| serde::Error::expected("object", v))?;
        let field = |name| {
            serde::find(fields, name)
                .ok_or_else(|| serde::Error::missing_field("LatencyHistogram", name))
        };
        let mut counts = Vec::<u64>::from_value(field("counts")?)?;
        if counts.len() > NUM_BUCKETS {
            return Err(serde::Error::custom(format!(
                "histogram has {} buckets, more than {NUM_BUCKETS}",
                counts.len()
            )));
        }
        counts.truncate(counts.iter().rposition(|&c| c > 0).map_or(0, |top| top + 1));
        counts.shrink_to_fit();
        Ok(LatencyHistogram {
            counts,
            count: Deserialize::from_value(field("count")?)?,
            sum: Deserialize::from_value(field("sum")?)?,
            min: Deserialize::from_value(field("min")?)?,
            max: Deserialize::from_value(field("max")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_64() {
        for v in 0..64u64 {
            assert_eq!(value_to_index(v), v as usize);
            assert_eq!(index_to_upper(v as usize), v);
        }
    }

    #[test]
    fn index_upper_bound_brackets_value() {
        for &v in &[64u64, 65, 127, 128, 1_000, 1_023, 1_024, 999_999, 10u64.pow(9), u64::MAX / 2] {
            let idx = value_to_index(v);
            let upper = index_to_upper(idx);
            assert!(upper >= v, "upper {upper} < value {v}");
            // relative error bounded by one sub-bucket (1/64 of the octave)
            assert!((upper - v) as f64 <= v as f64 / 32.0 + 1.0, "v={v} upper={upper}");
        }
    }

    /// The pre-optimisation branchy mapping, kept as a reference model.
    fn value_to_index_reference(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let octave = (msb - SUB_BITS) as usize;
            let sub = ((v >> octave) - SUB) as usize;
            SUB as usize + octave * SUB as usize + sub
        }
    }

    #[test]
    fn branchless_index_matches_reference() {
        for v in 0..10_000u64 {
            assert_eq!(value_to_index(v), value_to_index_reference(v), "v={v}");
        }
        for shift in 6..63 {
            for delta in [0u64, 1, 2, 31, 63, 64, 65] {
                let v = (1u64 << shift).saturating_add(delta);
                assert_eq!(value_to_index(v), value_to_index_reference(v), "v={v}");
                let v = (1u64 << shift).saturating_sub(delta);
                assert_eq!(value_to_index(v), value_to_index_reference(v), "v={v}");
            }
        }
        assert_eq!(value_to_index(u64::MAX), value_to_index_reference(u64::MAX));
    }

    #[test]
    fn indices_are_monotone() {
        let mut prev = 0usize;
        for shift in 0..40 {
            let v = 1u64 << shift;
            for probe in [v, v + v / 3, v + v / 2, v + v / 2 + 1] {
                let idx = value_to_index(probe);
                assert!(idx >= prev, "index not monotone at {probe}");
                prev = idx;
            }
        }
    }

    #[test]
    fn basic_stats() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(Nanos(v));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Nanos(10));
        assert_eq!(h.max(), Nanos(40));
        assert_eq!(h.mean(), Nanos(25));
    }

    #[test]
    fn quantiles_on_uniform_data() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(Nanos(v));
        }
        let p50 = h.quantile(0.5).as_ns();
        let p99 = h.quantile(0.99).as_ns();
        assert!((490..=520).contains(&p50), "p50={p50}");
        assert!((980..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), Nanos(1000));
    }

    #[test]
    fn count_below_thresholds() {
        let mut h = LatencyHistogram::new();
        for _ in 0..990 {
            h.record(Nanos::from_us(50));
        }
        for _ in 0..10 {
            h.record(Nanos::from_ms(5));
        }
        let below = h.count_below(Nanos::from_us(100));
        assert_eq!(below, 990);
        assert_eq!(h.count_below(Nanos::from_ms(10)), 1000);
        assert_eq!(h.count_below(Nanos(1)), 0);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Nanos(5));
        b.record(Nanos(500));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Nanos(5));
        assert_eq!(a.max(), Nanos(500));
    }

    #[test]
    fn collect_equals_the_record_loop() {
        let values: Vec<Nanos> =
            [7u64, 0, 63, 64, 1_000, 27_000, 5_000_000, 64].into_iter().map(Nanos).collect();
        let mut looped = LatencyHistogram::new();
        for &v in &values {
            looped.record(v);
        }
        let collected: LatencyHistogram = values.iter().copied().collect();
        assert_eq!(collected.counts, looped.counts);
        assert_eq!(
            (collected.count, collected.sum, collected.min, collected.max),
            (looped.count, looped.sum, looped.min, looped.max)
        );
        let empty: LatencyHistogram = std::iter::empty().collect();
        assert_eq!((empty.count, empty.min, empty.max), (0, u64::MAX, 0));
    }

    #[test]
    fn short_counts_array_is_valid_storage() {
        // Seven counts, the last one empty: the one sample at 5 ns is in
        // bucket 5.
        let json = r#"{"counts":[0,0,0,0,0,1,0],"count":1,"sum":5,"min":5,"max":5}"#;
        let mut h: LatencyHistogram = serde_json::from_str(json).unwrap();
        assert_eq!(h.counts, [0, 0, 0, 0, 0, 1], "trailing zeros are trimmed");
        let dense = serde_json::to_string(&LatencyHistogram::from_iter([Nanos(5)])).unwrap();
        assert_eq!(serde_json::to_string(&h).unwrap(), dense);
        // A sample past the stored buckets grows them instead of panicking.
        h.record(Nanos::from_ms(5));
        assert_eq!(h.count_below(Nanos::from_ms(10)), 2);
        assert_eq!(h.quantile(1.0), Nanos::from_ms(5));
    }

    #[test]
    fn overlong_counts_array_is_an_error() {
        let mut v = LatencyHistogram::new().to_value();
        let Value::Object(fields) = &mut v else { unreachable!() };
        let Value::Array(counts) = &mut fields[0].1 else { unreachable!() };
        assert_eq!(counts.len(), NUM_BUCKETS);
        // Even an all-zero tail is refused: padding would drop it silently.
        counts.push(Value::U64(0));
        let err = LatencyHistogram::from_value(&v).unwrap_err();
        assert!(err.0.contains("3777 buckets"), "{err}");
        let text = serde_json::to_string(&v).unwrap();
        assert!(serde_json::from_str::<LatencyHistogram>(&text).is_err());
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), Nanos::ZERO);
        assert_eq!(h.max(), Nanos::ZERO);
        assert_eq!(h.mean(), Nanos::ZERO);
        assert_eq!(h.quantile(0.99), Nanos::ZERO);
    }
}
