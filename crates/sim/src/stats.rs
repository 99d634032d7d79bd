//! Measurement utilities: running statistics and histograms.
//!
//! Every evaluation number reported by the benches (latency, throughput,
//! retransmission counts) flows through these types, which keep exact
//! integer counts and numerically stable running moments.

use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Numerically stable running mean/variance/min/max (Welford's algorithm).
/// Callers read the mean and maximum; the second moment and minimum are
/// merged and checkpointed with them.
///
/// # Examples
///
/// ```
/// use xpipes_sim::RunningStats;
///
/// let mut lat = RunningStats::new();
/// for v in [10.0, 20.0, 30.0] { lat.record(v); }
/// assert_eq!(lat.mean(), 20.0);
/// assert_eq!(lat.max(), Some(30.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

impl Snapshot for RunningStats {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.u64(self.count);
        w.f64(self.mean);
        w.f64(self.m2);
        w.bool(self.min.is_some());
        w.f64(self.min.unwrap_or(0.0));
        w.bool(self.max.is_some());
        w.f64(self.max.unwrap_or(0.0));
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.count = r.u64()?;
        self.mean = r.f64()?;
        self.m2 = r.f64()?;
        let has_min = r.bool()?;
        let min = r.f64()?;
        self.min = has_min.then_some(min);
        let has_max = r.bool()?;
        let max = r.f64()?;
        self.max = has_max.then_some(max);
        Ok(())
    }
}

/// A fixed-bucket histogram over `u64` samples (e.g. latency in cycles).
///
/// Values at or above the upper bound land in the overflow bucket so no
/// sample is ever lost.
///
/// # Examples
///
/// ```
/// use xpipes_sim::Histogram;
///
/// let mut h = Histogram::new(0, 100, 10);
/// h.record(5);
/// h.record(95);
/// h.record(1_000); // overflow
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    lo: u64,
    hi: u64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `buckets == 0`.
    pub fn new(lo: u64, hi: u64, buckets: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one sample. Counts saturate at `u64::MAX`, so a merge of
    /// long campaign shards can never wrap.
    pub fn record(&mut self, value: u64) {
        self.total = self.total.saturating_add(1);
        if value < self.lo {
            self.underflow = self.underflow.saturating_add(1);
        } else if value >= self.hi {
            self.overflow = self.overflow.saturating_add(1);
        } else {
            let width = (self.hi - self.lo)
                .div_ceil(self.buckets.len() as u64)
                .max(1);
            let idx = ((value - self.lo) / width) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] = self.buckets[idx].saturating_add(1);
        }
    }

    /// Total samples recorded, including under/overflow.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Merges another histogram with identical bounds and bucket count.
    ///
    /// # Panics
    ///
    /// Panics when the configurations differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.buckets.len() == other.buckets.len(),
            "histogram configurations must match to merge"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.underflow = self.underflow.saturating_add(other.underflow);
        self.overflow = self.overflow.saturating_add(other.overflow);
        self.total = self.total.saturating_add(other.total);
    }

    /// Bounds and bucket count, for checkpoint shape validation.
    pub(crate) fn shape(&self) -> (u64, u64, usize) {
        (self.lo, self.hi, self.buckets.len())
    }

    /// Approximate p-th percentile (0–100) assuming uniform density within
    /// a bucket; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = (p.clamp(0.0, 100.0) / 100.0 * self.total as f64).ceil() as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo)
            .div_ceil(self.buckets.len() as u64)
            .max(1);
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Some(self.lo + (i as u64 + 1) * width - 1);
            }
        }
        Some(self.hi)
    }
}

impl Snapshot for Histogram {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.u64(self.lo);
        w.u64(self.hi);
        w.len(self.buckets.len());
        for &b in &self.buckets {
            w.u64(b);
        }
        w.u64(self.underflow);
        w.u64(self.overflow);
        w.u64(self.total);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let lo = r.u64()?;
        let hi = r.u64()?;
        let n = r.len()?;
        if (lo, hi, n) != self.shape() {
            return Err(SnapshotError::Malformed(format!(
                "histogram shape mismatch: snapshot [{lo}, {hi}) x {n}, target {:?}",
                self.shape()
            )));
        }
        for b in &mut self.buckets {
            *b = r.u64()?;
        }
        self.underflow = r.u64()?;
        self.overflow = r.u64()?;
        self.total = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_mean_and_variance() {
        let mut s = RunningStats::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.m2 / s.count as f64 - 4.0).abs() < 1e-12);
        assert_eq!(s.min, Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn stats_empty_is_zero() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.m2, 0.0);
        assert_eq!(s.min, None);
    }

    #[test]
    fn stats_merge_matches_sequential() {
        let values = [1.0, 2.5, -3.0, 8.0, 0.25, 4.0, 4.0];
        let mut all = RunningStats::new();
        for v in values {
            all.record(v);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for v in &values[..3] {
            a.record(*v);
        }
        for v in &values[3..] {
            b.record(*v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.m2 - all.m2).abs() < 1e-9);
        assert_eq!(a.min, all.min);
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn stats_merge_with_empty() {
        let mut a = RunningStats::new();
        a.record(5.0);
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert_eq!(a, before);

        let mut empty = RunningStats::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn histogram_buckets_and_bounds() {
        let mut h = Histogram::new(10, 50, 4); // widths of 10
        h.record(9); // underflow
        h.record(10);
        h.record(19);
        h.record(20);
        h.record(49);
        h.record(50); // overflow
        assert_eq!(h.total(), 6);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.buckets, [2, 1, 0, 1]);
    }

    #[test]
    fn histogram_percentile() {
        let mut h = Histogram::new(0, 100, 100);
        for v in 0..100 {
            h.record(v);
        }
        let p50 = h.percentile(50.0).unwrap();
        assert!((45..=55).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile(99.0).unwrap();
        assert!(p99 >= 95, "p99 = {p99}");
        assert_eq!(Histogram::new(0, 10, 2).percentile(50.0), None);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn histogram_empty_range_panics() {
        Histogram::new(5, 5, 1);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new(0, 100, 10);
        let mut b = Histogram::new(0, 100, 10);
        a.record(5);
        a.record(200);
        b.record(5);
        b.record(95);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.buckets[0], 2);
        assert_eq!(a.buckets[9], 1);
    }

    #[test]
    #[should_panic(expected = "configurations must match")]
    fn histogram_merge_rejects_mismatch() {
        let mut a = Histogram::new(0, 100, 10);
        let b = Histogram::new(0, 50, 10);
        a.merge(&b);
    }

    #[test]
    fn stats_merge_empty_into_empty() {
        let mut a = RunningStats::new();
        a.merge(&RunningStats::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.m2, 0.0);
        assert_eq!(a.min, None);
        assert_eq!(a.max(), None);
        // Still usable afterwards.
        a.record(3.0);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 3.0);
    }

    #[test]
    fn stats_merge_single_samples_tracks_extrema() {
        let mut a = RunningStats::new();
        a.record(-2.0);
        let mut b = RunningStats::new();
        b.record(7.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min, Some(-2.0));
        assert_eq!(a.max(), Some(7.0));
        assert!((a.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_empty_into_empty() {
        let mut a = Histogram::new(0, 100, 4);
        let b = Histogram::new(0, 100, 4);
        a.merge(&b);
        assert_eq!(a.total(), 0);
        assert_eq!(a.underflow, 0);
        assert_eq!(a.overflow(), 0);
        assert!(a.buckets.iter().all(|&c| c == 0));
        assert_eq!(a.percentile(50.0), None);
    }

    #[test]
    fn histogram_counts_saturate() {
        let mut a = Histogram::new(0, 10, 1);
        // Backdoor the counters to the brink via merge doubling: start
        // from recorded samples and merge the histogram into itself
        // until the totals would overflow if the adds were unchecked.
        a.record(5);
        a.record(15); // overflow bucket
        a.record(5);
        let copy = a.clone();
        for _ in 0..64 {
            a.merge(&copy.clone());
            let doubled = a.clone();
            a.merge(&doubled);
        }
        assert_eq!(a.total(), u64::MAX, "total must saturate, not wrap");
        assert_eq!(a.buckets[0], u64::MAX);
        assert_eq!(a.overflow(), u64::MAX);
        // A saturated histogram still accepts samples without panicking.
        a.record(5);
        assert_eq!(a.total(), u64::MAX);
        assert_eq!(a.buckets[0], u64::MAX);
    }

    #[test]
    #[should_panic(expected = "configurations must match")]
    fn histogram_merge_rejects_disjoint_ranges() {
        // Same bucket count, completely disjoint value ranges: bucket
        // widths coincide but the bins mean different values, so the
        // merge must refuse rather than silently misfile counts.
        let mut a = Histogram::new(0, 100, 10);
        let b = Histogram::new(100, 200, 10);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "configurations must match")]
    fn histogram_merge_rejects_bucket_count_mismatch() {
        let mut a = Histogram::new(0, 100, 10);
        let b = Histogram::new(0, 100, 20);
        a.merge(&b);
    }

    #[test]
    fn stats_and_histogram_snapshot_roundtrip() {
        let mut s = RunningStats::new();
        for v in [3.25, -1.0, 42.0, 0.5] {
            s.record(v);
        }
        let mut h = Histogram::new(0, 100, 10);
        for v in [1, 5, 55, 250] {
            h.record(v);
        }
        let mut w = SnapshotWriter::new();
        s.save_state(&mut w);
        h.save_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let mut s2 = RunningStats::new();
        s2.load_state(&mut r).unwrap();
        let mut h2 = Histogram::new(0, 100, 10);
        h2.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(s2, s);
        assert_eq!(h2, h);

        // A differently-shaped target refuses the payload.
        let mut w = SnapshotWriter::new();
        h.save_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let mut wrong = Histogram::new(0, 100, 20);
        assert!(matches!(
            wrong.load_state(&mut r),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
