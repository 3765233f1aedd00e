//! Streaming summary statistics.
//!
//! [`Summary`] accumulates observations one by one (Welford's online
//! algorithm for mean and variance) and keeps the sorted sample needed for
//! percentile queries. It is the workhorse behind the response-time and
//! satisfaction columns of every scenario table.

/// Online summary of a stream of `f64` observations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: Option<f64>,
    max: Option<f64>,
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a summary from a slice of observations.
    #[must_use]
    pub fn from_values(values: &[f64]) -> Self {
        let mut summary = Self::new();
        for v in values {
            summary.record(*v);
        }
        summary
    }

    /// Records one observation. Non-finite values are ignored so that a
    /// single corrupted sample cannot poison a whole experiment column.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
        self.samples.push(value);
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        for v in &other.samples {
            self.record(*v);
        }
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or 0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 if fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or 0 if empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min.unwrap_or(0.0)
    }

    /// Largest observation, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max.unwrap_or(0.0)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using nearest-rank on the sorted sample,
    /// or 0 if empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sbqa_types::float_ord::sort_ascending(&mut sorted);
        let q = q.clamp(0.0, 1.0);
        let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Median (50th percentile).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Returns the raw samples recorded so far.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn basic_statistics_are_exact_on_small_samples() {
        let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.sum() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = Summary::from_values(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.median(), 30.0);
        assert_eq!(s.percentile(1.0), 50.0);
        assert_eq!(s.percentile(0.95), 50.0);
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let mut s = Summary::new();
        s.record(1.0);
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 1.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Summary::from_values(&[1.0, 2.0]);
        let b = Summary::from_values(&[3.0, 4.0]);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert!((a.mean() - 2.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_mean_within_min_max(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = Summary::from_values(&values);
            prop_assert!(s.mean() >= s.min() - 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
        }

        #[test]
        fn prop_percentiles_monotone(values in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let s = Summary::from_values(&values);
            prop_assert!(s.percentile(0.25) <= s.percentile(0.75) + 1e-9);
            prop_assert!(s.percentile(0.0) <= s.percentile(1.0) + 1e-9);
        }

        #[test]
        fn prop_online_mean_matches_naive(values in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let s = Summary::from_values(&values);
            let naive = values.iter().sum::<f64>() / values.len() as f64;
            prop_assert!((s.mean() - naive).abs() < 1e-6);
        }
    }
}
