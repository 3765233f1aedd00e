//! The `[0, 1]` satisfaction domain.
//!
//! Satisfaction measures, in the long run, how well the system meets a
//! participant's intentions. Both Definition 1 (consumer satisfaction) and
//! Definition 2 (provider satisfaction) of the paper produce values in the
//! closed interval `[0, 1]`; the closer to `1`, the more satisfied the
//! participant. [`Satisfaction`] enforces the interval by clamping.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Sub};

/// A satisfaction level in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Satisfaction(f64);

impl Satisfaction {
    /// Complete satisfaction.
    pub const MAX: Satisfaction = Satisfaction(1.0);
    /// The midpoint of the domain, produced by a neutral intention.
    pub const NEUTRAL: Satisfaction = Satisfaction(0.5);
    /// Complete dissatisfaction.
    pub const MIN: Satisfaction = Satisfaction(0.0);

    /// Creates a satisfaction value, clamping into `[0, 1]`.
    ///
    /// NaN inputs map to [`Satisfaction::MIN`]: a satisfaction that cannot be
    /// computed is treated as "not satisfied at all", which is the
    /// conservative choice for departure decisions.
    #[must_use]
    pub fn new(value: f64) -> Self {
        if value.is_nan() {
            return Self::MIN;
        }
        Self(value.clamp(0.0, 1.0))
    }

    /// Returns the inner value, guaranteed to lie in `[0, 1]`.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns `true` if this satisfaction is strictly below `threshold`.
    ///
    /// This is the predicate used by the autonomous-environment departure
    /// rules in Scenario 2 and Scenario 4 (providers leave below `0.35`,
    /// consumers below `0.5`).
    #[must_use]
    pub fn is_below(self, threshold: f64) -> bool {
        self.0 < threshold
    }

    /// The arithmetic mean of a slice of satisfactions, or `None` if empty.
    #[must_use]
    pub fn mean(values: &[Satisfaction]) -> Option<Satisfaction> {
        if values.is_empty() {
            return None;
        }
        let sum: f64 = values.iter().map(|s| s.0).sum();
        Some(Satisfaction::new(sum / values.len() as f64))
    }

    /// The absolute gap between two satisfactions, in `[0, 1]`.
    ///
    /// Equation 2 of the paper turns the *signed* gap between a consumer's and
    /// a provider's satisfaction into the balancing weight ω; the unsigned gap
    /// is used by the experiment reports as a fairness indicator.
    #[must_use]
    pub fn gap(self, other: Satisfaction) -> f64 {
        (self.0 - other.0).abs()
    }

    /// Computes the balancing parameter ω of Equation 2:
    /// `ω = ((δs(c) − δs(p)) + 1) / 2`.
    ///
    /// `self` is interpreted as the consumer's satisfaction and `provider` as
    /// the provider's. A consumer that is *more* satisfied than the provider
    /// yields ω above `0.5`, shifting the mediator's attention towards the
    /// provider's intention (which is raised to the power ω in Definition 3).
    #[must_use]
    pub fn omega_against(self, provider: Satisfaction) -> f64 {
        ((self.0 - provider.0) + 1.0) / 2.0
    }
}

impl Default for Satisfaction {
    /// A participant with no history starts at full satisfaction, matching
    /// the paper's assumption that newcomers have no grievance yet.
    fn default() -> Self {
        Self::MAX
    }
}

impl From<f64> for Satisfaction {
    fn from(value: f64) -> Self {
        Self::new(value)
    }
}

impl From<Satisfaction> for f64 {
    fn from(s: Satisfaction) -> Self {
        s.0
    }
}

impl Eq for Satisfaction {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl PartialOrd for Satisfaction {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Satisfaction {
    fn cmp(&self, other: &Self) -> Ordering {
        crate::float_ord::f64_total_cmp(self.0, other.0)
    }
}

impl Add for Satisfaction {
    type Output = Satisfaction;

    fn add(self, rhs: Self) -> Self::Output {
        Satisfaction::new(self.0 + rhs.0)
    }
}

impl Sub for Satisfaction {
    type Output = Satisfaction;

    fn sub(self, rhs: Self) -> Self::Output {
        Satisfaction::new(self.0 - rhs.0)
    }
}

impl Sum for Satisfaction {
    fn sum<I: Iterator<Item = Satisfaction>>(iter: I) -> Self {
        let mut total = 0.0;
        for s in iter {
            total += s.0;
        }
        Satisfaction::new(total)
    }
}

impl fmt::Display for Satisfaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_clamps_to_unit_interval() {
        assert_eq!(Satisfaction::new(1.5), Satisfaction::MAX);
        assert_eq!(Satisfaction::new(-0.5), Satisfaction::MIN);
        assert_eq!(Satisfaction::new(f64::NAN), Satisfaction::MIN);
        assert_eq!(Satisfaction::new(0.75).value(), 0.75);
    }

    #[test]
    fn departure_predicate_is_strict() {
        let s = Satisfaction::new(0.35);
        assert!(!s.is_below(0.35));
        assert!(Satisfaction::new(0.3499).is_below(0.35));
    }

    #[test]
    fn omega_matches_equation_two() {
        // Equal satisfaction -> balanced weight.
        let c = Satisfaction::new(0.6);
        let p = Satisfaction::new(0.6);
        assert!((c.omega_against(p) - 0.5).abs() < 1e-12);

        // Fully satisfied consumer, fully dissatisfied provider -> ω = 1,
        // i.e. all the weight on the provider's intention.
        assert!((Satisfaction::MAX.omega_against(Satisfaction::MIN) - 1.0).abs() < 1e-12);
        // The symmetric case gives ω = 0.
        assert!((Satisfaction::MIN.omega_against(Satisfaction::MAX)).abs() < 1e-12);
    }

    #[test]
    fn mean_and_gap_behave() {
        assert_eq!(Satisfaction::mean(&[]), None);
        let m = Satisfaction::mean(&[Satisfaction::new(0.2), Satisfaction::new(0.6)]).unwrap();
        assert!((m.value() - 0.4).abs() < 1e-12);
        assert!((Satisfaction::new(0.9).gap(Satisfaction::new(0.4)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn default_is_fully_satisfied() {
        assert_eq!(Satisfaction::default(), Satisfaction::MAX);
    }

    #[test]
    fn arithmetic_saturates_at_domain_bounds() {
        assert_eq!(
            Satisfaction::new(0.8) + Satisfaction::new(0.8),
            Satisfaction::MAX
        );
        assert_eq!(
            Satisfaction::new(0.2) - Satisfaction::new(0.8),
            Satisfaction::MIN
        );
    }

    proptest! {
        #[test]
        fn prop_always_in_unit_interval(raw in proptest::num::f64::ANY) {
            let s = Satisfaction::new(raw);
            prop_assert!((0.0..=1.0).contains(&s.value()));
        }

        #[test]
        fn prop_omega_in_unit_interval(c in 0.0f64..=1.0, p in 0.0f64..=1.0) {
            let omega = Satisfaction::new(c).omega_against(Satisfaction::new(p));
            prop_assert!((0.0..=1.0).contains(&omega));
        }

        #[test]
        fn prop_omega_monotone_in_consumer_satisfaction(
            c1 in 0.0f64..=1.0, c2 in 0.0f64..=1.0, p in 0.0f64..=1.0
        ) {
            let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
            let p = Satisfaction::new(p);
            prop_assert!(
                Satisfaction::new(lo).omega_against(p) <= Satisfaction::new(hi).omega_against(p) + 1e-12
            );
        }
    }
}
