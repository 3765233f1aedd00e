//! Load-balance indicators.
//!
//! Scenario 5 claims that when providers care about their load, SbQA
//! "balances better queries among volunteers". [`LoadBalanceReport`]
//! quantifies that claim for any allocation technique: given the number of
//! queries each provider performed (optionally weighted by provider
//! capacity), it reports the coefficient of variation, the max/mean ratio and
//! the Gini coefficient of the distribution.

use crate::gini::gini_coefficient;
use crate::summary::Summary;

/// Aggregate description of how evenly load was spread over providers.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBalanceReport {
    /// Number of providers considered.
    pub providers: usize,
    /// Mean load per provider.
    pub mean_load: f64,
    /// Standard deviation of per-provider load.
    pub std_dev: f64,
    /// Coefficient of variation (`std_dev / mean`), 0 when the mean is 0.
    pub coefficient_of_variation: f64,
    /// Ratio of the most loaded provider to the mean, 0 when the mean is 0.
    pub max_over_mean: f64,
    /// Gini coefficient of the load distribution (0 = perfectly even).
    pub gini: f64,
}

impl LoadBalanceReport {
    /// Builds a report from the per-provider load (e.g. queries performed or
    /// busy time).
    #[must_use]
    fn from_loads(loads: &[f64]) -> Self {
        let summary = Summary::from_values(loads);
        let mean = summary.mean();
        let std_dev = summary.std_dev();
        Self {
            providers: loads.len(),
            mean_load: mean,
            std_dev,
            coefficient_of_variation: if mean > 0.0 { std_dev / mean } else { 0.0 },
            max_over_mean: if mean > 0.0 {
                summary.max() / mean
            } else {
                0.0
            },
            gini: gini_coefficient(loads),
        }
    }

    /// Builds a report from per-provider load normalised by per-provider
    /// capacity (utilization-style balance): a powerful provider is *expected*
    /// to perform more queries, so fairness should be judged per unit of
    /// capacity.
    ///
    /// Providers with non-positive capacity are skipped.
    #[must_use]
    pub fn from_loads_and_capacities(loads: &[f64], capacities: &[f64]) -> Self {
        let normalised: Vec<f64> = loads
            .iter()
            .zip(capacities.iter())
            .filter(|(_, c)| **c > 0.0)
            .map(|(l, c)| l / c)
            .collect();
        Self::from_loads(&normalised)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn even_load_has_zero_dispersion() {
        let report = LoadBalanceReport::from_loads(&[10.0, 10.0, 10.0]);
        assert_eq!(report.providers, 3);
        assert_eq!(report.coefficient_of_variation, 0.0);
        assert_eq!(report.gini, 0.0);
        assert!((report.max_over_mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_load_is_detected() {
        let even = LoadBalanceReport::from_loads(&[10.0, 10.0, 10.0, 10.0]);
        let skewed = LoadBalanceReport::from_loads(&[40.0, 0.0, 0.0, 0.0]);
        assert!(even.gini < skewed.gini);
        assert!(skewed.max_over_mean > 3.9);
        assert!(skewed.gini > 0.7);
    }

    #[test]
    fn capacity_normalisation_rehabilitates_powerful_providers() {
        // Provider 0 is 4x as powerful and performs 4x the queries: perfectly
        // fair once normalised.
        let raw = LoadBalanceReport::from_loads(&[40.0, 10.0]);
        let normalised = LoadBalanceReport::from_loads_and_capacities(&[40.0, 10.0], &[4.0, 1.0]);
        assert!(raw.gini > 0.0);
        assert!(normalised.gini.abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_providers_are_skipped() {
        let report = LoadBalanceReport::from_loads_and_capacities(&[5.0, 7.0], &[1.0, 0.0]);
        assert_eq!(report.providers, 1);
    }

    #[test]
    fn empty_loads_yield_empty_report() {
        let report = LoadBalanceReport::from_loads(&[]);
        assert_eq!(report.providers, 0);
        assert_eq!(report.mean_load, 0.0);
        assert_eq!(report.max_over_mean, 0.0);
    }

    proptest! {
        #[test]
        fn prop_report_fields_are_finite(loads in proptest::collection::vec(0.0f64..1e6, 0..100)) {
            let report = LoadBalanceReport::from_loads(&loads);
            prop_assert!(report.mean_load.is_finite());
            prop_assert!(report.coefficient_of_variation.is_finite());
            prop_assert!(report.max_over_mean.is_finite());
            prop_assert!((0.0..=1.0).contains(&report.gini));
        }
    }
}
