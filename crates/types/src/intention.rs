//! The `[-1, 1]` intention domain.
//!
//! In SbQA an *intention* expresses how much a participant wants a specific
//! mediation to happen: a consumer's intention to have its query allocated to
//! a given provider, or a provider's intention to perform a given query. The
//! paper fixes the domain to the closed interval `[-1, 1]`:
//!
//! * `1` — the participant strongly wants the interaction,
//! * `0` — indifference,
//! * `-1` — the participant strongly wants to avoid the interaction.
//!
//! [`Intention`] enforces the domain by clamping on construction and keeps a
//! plain `f64` inside, so arithmetic stays cheap on the mediation hot path.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::Neg;

use serde::{Deserialize, Serialize};

use crate::satisfaction_value::Satisfaction;

/// A participant's intention towards a mediation, clamped to `[-1, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
#[serde(transparent)]
pub struct Intention(f64);

/// Reads the bare `f64` through [`Intention::new`], so a value from outside
/// the domain is clamped and a NaN tamed exactly as on construction.
impl Deserialize for Intention {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        f64::from_value(value).map(Self::new)
    }
}

impl Intention {
    /// The strongest positive intention.
    pub const MAX: Intention = Intention(1.0);
    /// Complete indifference.
    pub const NEUTRAL: Intention = Intention(0.0);
    /// The strongest negative intention (refusal).
    pub const MIN: Intention = Intention(-1.0);

    /// Creates an intention, clamping the value to `[-1, 1]`.
    ///
    /// NaN maps to [`Intention::NEUTRAL`] and the infinities clamp like any
    /// other out-of-domain value (`+∞` to [`Intention::MAX`], `−∞` to
    /// [`Intention::MIN`]), so that a misbehaving intention function can
    /// never poison the mediation with NaN scores.
    #[must_use]
    pub fn new(value: f64) -> Self {
        if value.is_nan() {
            return Self::NEUTRAL;
        }
        Self(value.clamp(-1.0, 1.0))
    }

    /// Returns the inner value, guaranteed to lie in `[-1, 1]`.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Maps the intention onto the unit interval: `(i + 1) / 2`.
    ///
    /// This is the transformation used by both satisfaction definitions in
    /// the paper (Definition 1 and Definition 2): an intention of `-1` yields
    /// `0` satisfaction, `0` yields `0.5`, and `1` yields `1`.
    #[must_use]
    pub fn to_unit(self) -> Satisfaction {
        Satisfaction::new((self.0 + 1.0) / 2.0)
    }

    /// Linear interpolation between two intentions: `self * (1 - t) + other * t`.
    ///
    /// Used by hybrid intention strategies that trade a static preference for
    /// a dynamic signal (e.g. a provider trading its topical preference for
    /// its current utilization).
    #[must_use]
    pub fn blend(self, other: Intention, t: f64) -> Self {
        let t = t.clamp(0.0, 1.0);
        Self::new(self.0 * (1.0 - t) + other.0 * t)
    }

    /// Returns the average of a slice of intentions, or `NEUTRAL` for an
    /// empty slice.
    #[must_use]
    pub fn mean(values: &[Intention]) -> Self {
        if values.is_empty() {
            return Self::NEUTRAL;
        }
        let sum: f64 = values.iter().map(|i| i.0).sum();
        Self::new(sum / values.len() as f64)
    }
}

impl Default for Intention {
    fn default() -> Self {
        Self::NEUTRAL
    }
}

impl From<f64> for Intention {
    fn from(value: f64) -> Self {
        Self::new(value)
    }
}

impl From<Intention> for f64 {
    fn from(i: Intention) -> Self {
        i.0
    }
}

impl Neg for Intention {
    type Output = Intention;

    fn neg(self) -> Self::Output {
        Intention(-self.0)
    }
}

impl Eq for Intention {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl PartialOrd for Intention {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Intention {
    fn cmp(&self, other: &Self) -> Ordering {
        crate::float_ord::f64_total_cmp(self.0, other.0)
    }
}

impl Sum for Intention {
    fn sum<I: Iterator<Item = Intention>>(iter: I) -> Self {
        let mut total = 0.0;
        for i in iter {
            total += i.0;
        }
        Intention::new(total)
    }
}

impl fmt::Display for Intention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.3}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_clamps_to_domain() {
        assert_eq!(Intention::new(2.0), Intention::MAX);
        assert_eq!(Intention::new(-7.5), Intention::MIN);
        assert_eq!(Intention::new(0.25).value(), 0.25);
    }

    #[test]
    fn nan_and_infinities_are_tamed() {
        assert_eq!(Intention::new(f64::NAN), Intention::NEUTRAL);
        assert_eq!(Intention::new(f64::INFINITY), Intention::MAX);
        assert_eq!(Intention::new(f64::NEG_INFINITY), Intention::MIN);
    }

    #[test]
    fn deserialization_clamps_into_the_domain() {
        let read = |text: &str| serde_json::from_str::<Intention>(text).unwrap();
        assert_eq!(read("7.0"), Intention::MAX);
        assert_eq!(read("-3"), Intention::MIN);
        assert_eq!(read(r#"{"__f64":"nan"}"#), Intention::NEUTRAL);
        assert_eq!(read(r#"{"__f64":"inf"}"#), Intention::MAX);
        assert_eq!(read(r#"{"__f64":"-inf"}"#), Intention::MIN);
        // In-domain values round-trip bit for bit, the sign of zero included.
        for raw in [-1.0, -0.25, -0.0, 0.0, 0.3, 1.0] {
            let text = serde_json::to_string(&Intention::new(raw)).unwrap();
            assert_eq!(read(&text).value().to_bits(), raw.to_bits(), "{text}");
        }
    }

    #[test]
    fn unit_mapping_matches_paper_transformation() {
        assert_eq!(Intention::MIN.to_unit().value(), 0.0);
        assert_eq!(Intention::NEUTRAL.to_unit().value(), 0.5);
        assert_eq!(Intention::MAX.to_unit().value(), 1.0);
    }

    #[test]
    fn blend_interpolates_linearly() {
        let a = Intention::new(-1.0);
        let b = Intention::new(1.0);
        assert_eq!(a.blend(b, 0.0), a);
        assert_eq!(a.blend(b, 1.0), b);
        assert_eq!(a.blend(b, 0.5), Intention::NEUTRAL);
        // t outside [0, 1] is clamped rather than extrapolated.
        assert_eq!(a.blend(b, 2.0), b);
    }

    #[test]
    fn mean_of_empty_slice_is_neutral() {
        assert_eq!(Intention::mean(&[]), Intention::NEUTRAL);
        let m = Intention::mean(&[Intention::new(1.0), Intention::new(0.0)]);
        assert!((m.value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_negation() {
        assert!(Intention::new(0.9) > Intention::new(0.1));
        assert_eq!(-Intention::new(0.4), Intention::new(-0.4));
    }

    proptest! {
        #[test]
        fn prop_new_always_in_domain(raw in proptest::num::f64::ANY) {
            let i = Intention::new(raw);
            prop_assert!(i.value() >= -1.0 && i.value() <= 1.0);
        }

        #[test]
        fn prop_to_unit_in_unit_interval(raw in -1.0f64..=1.0) {
            let u = Intention::new(raw).to_unit().value();
            prop_assert!((0.0..=1.0).contains(&u));
        }

        #[test]
        fn prop_blend_stays_in_domain(a in -1.0f64..=1.0, b in -1.0f64..=1.0, t in 0.0f64..=1.0) {
            let blended = Intention::new(a).blend(Intention::new(b), t);
            prop_assert!(blended.value() >= -1.0 && blended.value() <= 1.0);
        }

        #[test]
        fn prop_blend_is_bounded_by_endpoints(a in -1.0f64..=1.0, b in -1.0f64..=1.0, t in 0.0f64..=1.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let blended = Intention::new(a).blend(Intention::new(b), t).value();
            prop_assert!(blended >= lo - 1e-12 && blended <= hi + 1e-12);
        }
    }
}
