//! Cross-technique satisfaction analysis.
//!
//! Scenario 1 of the paper demonstrates that "the proposed satisfaction model
//! allows analyzing different query allocation techniques no matter their
//! query allocation principle". This module provides the apparatus for that
//! claim: a [`SatisfactionSnapshot`] summarising both sides of a
//! [`SatisfactionRegistry`] at a point in (virtual) time, and a
//! [`SatisfactionAnalysis`] that accumulates snapshots for a given allocation
//! technique so they can be compared side by side.

use sbqa_types::{Satisfaction, VirtualTime};

use crate::registry::SatisfactionRegistry;

/// Aggregate satisfaction statistics for one side (consumers or providers).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SideSummary {
    /// Number of participants on this side.
    pub count: usize,
    /// Mean satisfaction across participants.
    pub mean: f64,
    /// Lowest satisfaction across participants.
    pub min: f64,
    /// Highest satisfaction across participants.
    pub max: f64,
    /// Standard deviation of satisfaction across participants.
    pub std_dev: f64,
    /// Fraction of participants whose satisfaction is below the given
    /// departure threshold (0.35 for providers and 0.5 for consumers in the
    /// paper's autonomous scenarios).
    pub fraction_below_threshold: f64,
}

impl SideSummary {
    /// Builds a summary from raw satisfaction values.
    #[must_use]
    pub fn from_values(values: &[Satisfaction], departure_threshold: f64) -> Self {
        if values.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                std_dev: 0.0,
                fraction_below_threshold: 0.0,
            };
        }
        let n = values.len() as f64;
        let raw: Vec<f64> = values.iter().map(|s| s.value()).collect();
        let mean = raw.iter().sum::<f64>() / n;
        let min = raw.iter().copied().fold(f64::INFINITY, f64::min);
        let max = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let variance = raw.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let below = raw.iter().filter(|v| **v < departure_threshold).count() as f64;
        Self {
            count: values.len(),
            mean,
            min,
            max,
            std_dev: variance.sqrt(),
            fraction_below_threshold: below / n,
        }
    }
}

/// A point-in-time summary of every participant's satisfaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SatisfactionSnapshot {
    /// Virtual time at which the snapshot was taken.
    pub at: VirtualTime,
    /// Consumer-side aggregate.
    pub consumers: SideSummary,
    /// Provider-side aggregate.
    pub providers: SideSummary,
}

impl SatisfactionSnapshot {
    /// Takes a snapshot of a registry.
    ///
    /// `consumer_threshold` and `provider_threshold` are the departure
    /// thresholds used to compute the at-risk fractions (the paper's Scenario
    /// 2 uses 0.5 and 0.35).
    #[must_use]
    pub fn capture(
        registry: &SatisfactionRegistry,
        at: VirtualTime,
        consumer_threshold: f64,
        provider_threshold: f64,
    ) -> Self {
        // Order the values by participant id before aggregating: the
        // registry iterates in row order, which depends on the registration
        // and removal history (a restored checkpoint's differs from its
        // primary's), and float summation in another order would change the
        // aggregate means in their last bits.
        let mut consumers: Vec<(sbqa_types::ConsumerId, Satisfaction)> =
            registry.consumer_satisfactions().collect();
        consumers.sort_unstable_by_key(|(id, _)| *id);
        let consumer_values: Vec<Satisfaction> = consumers.into_iter().map(|(_, s)| s).collect();
        let mut providers: Vec<(sbqa_types::ProviderId, Satisfaction)> =
            registry.provider_satisfactions().collect();
        providers.sort_unstable_by_key(|(id, _)| *id);
        let provider_values: Vec<Satisfaction> = providers.into_iter().map(|(_, s)| s).collect();
        Self {
            at,
            consumers: SideSummary::from_values(&consumer_values, consumer_threshold),
            providers: SideSummary::from_values(&provider_values, provider_threshold),
        }
    }
}

/// A labelled time series of snapshots for one allocation technique.
#[derive(Debug, Clone, PartialEq)]
pub struct SatisfactionAnalysis {
    /// Label of the allocation technique being analysed.
    pub technique: String,
    /// Snapshots in chronological order.
    pub snapshots: Vec<SatisfactionSnapshot>,
}

impl SatisfactionAnalysis {
    /// Creates an empty analysis for a technique.
    #[must_use]
    pub fn new(technique: impl Into<String>) -> Self {
        Self {
            technique: technique.into(),
            snapshots: Vec::new(),
        }
    }

    /// Appends a snapshot.
    pub fn push(&mut self, snapshot: SatisfactionSnapshot) {
        self.snapshots.push(snapshot);
    }

    /// The most recent snapshot, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&SatisfactionSnapshot> {
        self.snapshots.last()
    }

    /// Mean consumer satisfaction over the whole run (time-unweighted).
    #[must_use]
    pub fn mean_consumer_satisfaction(&self) -> f64 {
        Self::mean(self.snapshots.iter().map(|s| s.consumers.mean))
    }

    /// Mean provider satisfaction over the whole run (time-unweighted).
    #[must_use]
    pub fn mean_provider_satisfaction(&self) -> f64 {
        Self::mean(self.snapshots.iter().map(|s| s.providers.mean))
    }

    fn mean(values: impl Iterator<Item = f64>) -> f64 {
        let collected: Vec<f64> = values.collect();
        if collected.is_empty() {
            return 0.0;
        }
        collected.iter().sum::<f64>() / collected.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_types::{ConsumerId, Intention, ProviderId, QueryId};

    #[test]
    fn side_summary_statistics() {
        let values = vec![
            Satisfaction::new(0.2),
            Satisfaction::new(0.4),
            Satisfaction::new(0.9),
        ];
        let summary = SideSummary::from_values(&values, 0.35);
        assert_eq!(summary.count, 3);
        assert!((summary.mean - 0.5).abs() < 1e-12);
        assert!((summary.min - 0.2).abs() < 1e-12);
        assert!((summary.max - 0.9).abs() < 1e-12);
        assert!(summary.std_dev > 0.0);
        assert!((summary.fraction_below_threshold - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_side_summary_is_all_zeroes() {
        let summary = SideSummary::from_values(&[], 0.5);
        assert_eq!(summary.count, 0);
        assert_eq!(summary.mean, 0.0);
        assert_eq!(summary.fraction_below_threshold, 0.0);
    }

    #[test]
    fn snapshot_captures_registry_state() {
        let mut registry = SatisfactionRegistry::new(10);
        registry.record_mediation(
            QueryId::new(1),
            ConsumerId::new(1),
            1,
            &[(ProviderId::new(1), Intention::new(1.0))],
            &[
                (ProviderId::new(1), Intention::new(1.0), true),
                (ProviderId::new(2), Intention::new(0.5), false),
            ],
        );
        let snap = SatisfactionSnapshot::capture(&registry, VirtualTime::new(10.0), 0.5, 0.35);
        assert_eq!(snap.consumers.count, 1);
        assert_eq!(snap.providers.count, 2);
        assert!((snap.consumers.mean - 1.0).abs() < 1e-12);
        // Provider means: 1.0 (performed a loved query) and 0.0 (ignored).
        assert!((snap.providers.mean - 0.5).abs() < 1e-12);
        assert!((snap.providers.fraction_below_threshold - 0.5).abs() < 1e-12);
    }

    #[test]
    fn analysis_aggregates_over_time() {
        let mut analysis = SatisfactionAnalysis::new("Capacity");
        assert_eq!(analysis.mean_consumer_satisfaction(), 0.0);
        assert!(analysis.latest().is_none());

        for (t, c, p) in [(1.0, 0.8, 0.2), (2.0, 0.6, 0.4)] {
            analysis.push(SatisfactionSnapshot {
                at: VirtualTime::new(t),
                consumers: SideSummary {
                    count: 3,
                    mean: c,
                    min: c,
                    max: c,
                    std_dev: 0.0,
                    fraction_below_threshold: 0.0,
                },
                providers: SideSummary {
                    count: 5,
                    mean: p,
                    min: p,
                    max: p,
                    std_dev: 0.0,
                    fraction_below_threshold: 0.0,
                },
            });
        }
        assert!((analysis.mean_consumer_satisfaction() - 0.7).abs() < 1e-12);
        assert!((analysis.mean_provider_satisfaction() - 0.3).abs() < 1e-12);
        assert_eq!(analysis.latest().unwrap().at, VirtualTime::new(2.0));
        assert_eq!(analysis.technique, "Capacity");
    }
}
