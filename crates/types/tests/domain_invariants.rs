//! Property-based coverage of the `sbqa_types` domain invariants:
//!
//! * [`Intention`] clamps every input into `[-1, 1]` (NaN → neutral),
//! * [`Satisfaction`] clamps every input into `[0, 1]` (NaN → minimum).

use proptest::prelude::*;

use sbqa_types::{Intention, Satisfaction};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn intention_always_lands_in_domain(raw in proptest::num::f64::ANY) {
        let intention = Intention::new(raw);
        prop_assert!((-1.0..=1.0).contains(&intention.value()), "from raw {raw}");
        if raw.is_nan() {
            prop_assert_eq!(intention.value(), Intention::NEUTRAL.value());
        }
    }

    #[test]
    fn satisfaction_always_lands_in_domain(raw in proptest::num::f64::ANY) {
        let satisfaction = Satisfaction::new(raw);
        prop_assert!((0.0..=1.0).contains(&satisfaction.value()), "from raw {raw}");
        if raw.is_nan() {
            prop_assert_eq!(satisfaction.value(), Satisfaction::MIN.value());
        }
    }

    #[test]
    fn intention_in_domain_is_preserved_exactly(value in -1.0f64..=1.0) {
        let intention = Intention::new(value);
        prop_assert_eq!(intention.value(), value);
    }
}

#[test]
fn intention_extremes_clamp() {
    assert_eq!(Intention::new(f64::INFINITY).value(), 1.0);
    assert_eq!(Intention::new(f64::NEG_INFINITY).value(), -1.0);
    assert_eq!(Intention::new(2.0).value(), 1.0);
    assert_eq!(Intention::new(-2.0).value(), -1.0);
    assert_eq!(Intention::new(f64::NAN), Intention::NEUTRAL);
}

#[test]
fn satisfaction_extremes_clamp() {
    assert_eq!(Satisfaction::new(f64::INFINITY).value(), 1.0);
    assert_eq!(Satisfaction::new(f64::NEG_INFINITY).value(), 0.0);
    assert_eq!(Satisfaction::new(1.5).value(), 1.0);
    assert_eq!(Satisfaction::new(-0.5).value(), 0.0);
    assert_eq!(Satisfaction::new(f64::NAN), Satisfaction::MIN);
}
