//! Labelled time series.
//!
//! The SbQA demo draws results on-line (Figure 2b): participants'
//! satisfaction and response times as curves over virtual time.
//! [`TimeSeries`] is the storage behind our equivalent — every scenario
//! binary can dump its series as CSV, which is the textual analogue of the
//! paper's plots.

use sbqa_types::VirtualTime;

/// One `(time, value)` observation.
#[derive(Debug, Clone, Copy, PartialEq)]
// sbqa-lint: allow(dead-pub, "returned by TimeSeries::points and last; the CSV writer and the open-loop report read it unnamed")
pub struct TimePoint {
    /// Virtual time of the observation.
    pub at: VirtualTime,
    /// Observed value.
    pub value: f64,
}

/// A named series of observations ordered by insertion.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Name of the series (e.g. `"consumer_satisfaction/SbQA"`).
    pub name: String,
    points: Vec<TimePoint>,
}

impl TimeSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends an observation. Non-finite values are skipped.
    pub fn push(&mut self, at: VirtualTime, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.points.push(TimePoint { at, value });
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the series has no observation.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The observations in insertion order.
    #[must_use]
    pub fn points(&self) -> &[TimePoint] {
        &self.points
    }

    /// The most recent observation, if any.
    #[must_use]
    pub fn last(&self) -> Option<TimePoint> {
        self.points.last().copied()
    }

    /// Mean of the observed values (time-unweighted).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.value).sum::<f64>() / self.points.len() as f64
    }

    /// Downsamples the series to at most `max_points` observations, keeping
    /// the first and last point. Useful before rendering long runs.
    #[must_use]
    pub fn downsample(&self, max_points: usize) -> TimeSeries {
        let max_points = max_points.max(2);
        if self.points.len() <= max_points {
            return self.clone();
        }
        let mut out = TimeSeries::new(self.name.clone());
        let step = (self.points.len() - 1) as f64 / (max_points - 1) as f64;
        for i in 0..max_points {
            let idx = (i as f64 * step).round() as usize;
            let p = self.points[idx.min(self.points.len() - 1)];
            out.points.push(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new("test");
        for (t, v) in values {
            s.push(VirtualTime::new(*t), *v);
        }
        s
    }

    #[test]
    fn push_and_query() {
        let s = series(&[(0.0, 1.0), (1.0, 3.0)]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.last().unwrap().value, 3.0);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let mut s = TimeSeries::new("t");
        s.push(VirtualTime::new(0.0), f64::NAN);
        s.push(VirtualTime::new(1.0), f64::INFINITY);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.last(), None);
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let mut s = TimeSeries::new("big");
        for i in 0..1000 {
            s.push(VirtualTime::new(i as f64), i as f64);
        }
        let small = s.downsample(10);
        assert_eq!(small.len(), 10);
        assert_eq!(small.points()[0].value, 0.0);
        assert_eq!(small.points()[9].value, 999.0);
        // Downsampling a short series is a no-op.
        let tiny = series(&[(0.0, 1.0)]);
        assert_eq!(tiny.downsample(10).len(), 1);
    }
}
