//! Order statistics and the two verdicts the benchmark gives on result
//! sets: `agree` (two runs of one commit) and `compare` (parent vs change,
//! choosing-metrics §8).

/// Median (mean of the middle two for an even count). NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v`. NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method); both equal the value
/// for a single sample.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Relative change from `base` to `new`, positive when `new` is worse.
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        let d = (new - base) / base.abs();
        match self {
            Better::Lower => d,
            Better::Higher => -d,
        }
    }
}

/// Two result sets of the same code agree on a metric when their medians
/// differ, either way, by no more than the metric's bound.
pub fn agrees(a: &[f64], b: &[f64], bound: f64) -> bool {
    let (ma, mb) = (median(a), median(b));
    ((mb - ma) / ma.abs()).abs() <= bound
}

/// Verdict of one metric on one workload, parent vs change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 90 % of pairs and the medians differ by more than
    /// the parent's own quartile spread.
    Better,
    /// The change's median is worse than the parent's by more than the bound.
    Worse,
    /// The parent's runs spread wider than the bound, so "no change" cannot
    /// be claimed.
    Unresolved,
    /// Within the bound, no claimable gain.
    Same,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
        }
    }
}

/// The comparison of one metric: medians, quartiles and pair wins.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Compare paired runs (`parent[i]` ran next to `change[i]`, alternating
/// which went first). Ties count for neither side.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    let summary = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (median(v), q1, q3)
    };
    let (p, c) = (summary(parent), summary(change));
    let improves = |base: f64, new: f64| better.worsening(base, new) < 0.0;
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(p, c)| improves(**p, **c)).count();
    let spread = p.2 - p.1;
    let all_better = parent.iter().all(|&pv| change.iter().all(|&cv| improves(pv, cv)));
    let verdict = if better.worsening(p.0, c.0) > bound {
        Verdict::Worse
    } else if pairs > 0
        && wins * 10 >= pairs * 9
        && (c.0 - p.0).abs() > spread
        && improves(p.0, c.0)
    {
        Verdict::Better
    } else if spread / p.0.abs() > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    Comparison { parent: p, change: c, wins, pairs, verdict }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn agree_uses_the_bound_both_ways() {
        assert!(agrees(&[1.0, 1.0], &[1.05, 1.05], 0.1));
        assert!(!agrees(&[1.0, 1.0], &[1.2, 1.2], 0.1));
        assert!(!agrees(&[1.0, 1.0], &[0.8, 0.8], 0.1));
    }

    #[test]
    fn compare_verdicts_on_synthetic_sets() {
        let parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        // A clear 20 % speed-up on a lower-is-better time.
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let c = compare(&parent, &faster, Better::Lower, 0.1);
        assert_eq!((c.verdict, c.wins, c.pairs), (Verdict::Better, 10, 10));
        // The same numbers read as a throughput (higher is better) regress.
        assert_eq!(compare(&parent, &faster, Better::Higher, 0.1).verdict, Verdict::Worse);
        // Identical runs: ties count for neither side.
        let same = compare(&parent, &parent, Better::Lower, 0.1);
        assert_eq!((same.verdict, same.wins), (Verdict::Same, 0));
        // A 5 % slowdown stays within a 10 % bound.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.05).collect();
        assert_eq!(compare(&parent, &slower, Better::Lower, 0.1).verdict, Verdict::Same);
        // A parent spread wider than the bound leaves "no change" unresolved.
        let noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 1.0, 0.9, 1.1];
        assert_eq!(compare(&noisy, &noisy, Better::Lower, 0.1).verdict, Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let much_faster: Vec<f64> = noisy.iter().map(|v| v * 0.3).collect();
        assert_eq!(compare(&noisy, &much_faster, Better::Lower, 0.1).verdict, Verdict::Better);
    }
}
