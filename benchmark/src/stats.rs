//! Order statistics over timing samples.

/// Median, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarizes `samples`; `None` when empty or when any sample is not a
/// finite number (a measurement that cannot be reported).
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let sorted = sorted(samples);
    Some(Summary {
        q1: quantile_sorted(&sorted, 0.25),
        median: quantile_sorted(&sorted, 0.5),
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        n: sorted.len(),
    })
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The `p`-th percentile (0..=100) with linear interpolation between
/// ranks; 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(samples), p / 100.0)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Tail percentiles the benchmark is willing to report, highest first,
/// each with the share of samples beyond it in parts per thousand.
const TAILS: [(f64, usize); 5] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// The highest tail percentile with at least ten samples beyond it, as
/// the metrics guide asks; `None` below 40 samples, where not even p75
/// qualifies.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|(_, beyond)| n * beyond >= 10_000)
        .map(|(p, _)| p)
}

/// Inter-quartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread the driver computes over ten runs.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        // Exclusive method: position k*(n+1)/4, 1-based, clamped.
        let j = (k * (n + 1)) / 4;
        let delta = (k * (n + 1)) % 4;
        let j = j.clamp(1, n - 1);
        (s[j - 1] * (4 - delta) as f64 + s[j] * delta as f64) / 4.0
    };
    let med = quantile_sorted(&s, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    ((q(3) - q(1)) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        // The 31-point grid over four repeats: p90 leaves 12.4 beyond,
        // p95 only 6.2.
        assert_eq!(tail_percentile(124), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let s = summarize(&v).unwrap();
        assert_eq!((s.min, s.max, s.n), (1.0, 4.0, 4));
        assert!(summarize(&[1.0, f64::NAN]).is_none());
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
