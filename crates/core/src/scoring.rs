//! SQLB provider scoring (Definition 3) and the ω balance (Equation 2).
//!
//! The mediator scores a provider `p` for a query `q` by balancing the
//! provider's intention `PIq[p]` to perform `q` against the consumer's
//! intention `CIq[p]` to have `q` performed by `p`:
//!
//! ```text
//!             |  PIq[p]^ω · CIq[p]^(1−ω)                        if PIq[p] > 0 ∧ CIq[p] > 0
//! scrq(p) =   |
//!             | −( (1 − PIq[p] + ε)^ω · (1 − CIq[p] + ε)^(1−ω) ) otherwise
//! ```
//!
//! * In the **both-positive** branch the score is a weighted geometric mean
//!   in `(0, 1]`: larger intentions on the side with more weight pull the
//!   score up.
//! * In the **otherwise** branch at least one side does not want the
//!   interaction, so the score is negative; its magnitude grows with how much
//!   the weighted side *dislikes* the interaction, so "less disliked"
//!   providers still rank above "more disliked" ones. The ε > 0 term (the
//!   paper sets it to 1) keeps the magnitude strictly positive even when an
//!   intention equals 1, so the ranking never collapses to ties at zero.
//! * ω ∈ [0, 1] decides whose intention matters more. SbQA computes it from
//!   the satisfaction gap (Equation 2): `ω = ((δs(c) − δs(p)) + 1) / 2`, i.e.
//!   the *less satisfied* side gets more weight. Applications may fix ω
//!   instead (Scenario 6).

use sbqa_types::{Intention, OmegaPolicy, Satisfaction};

/// Computes the provider score of Definition 3.
///
/// `omega` is clamped to `[0, 1]` and `epsilon` to a small positive minimum,
/// so the function is total and never returns NaN.
#[must_use]
pub fn provider_score(
    provider_intention: Intention,
    consumer_intention: Intention,
    omega: f64,
    epsilon: f64,
) -> f64 {
    let omega = if omega.is_finite() {
        omega.clamp(0.0, 1.0)
    } else {
        0.5
    };
    let epsilon = if epsilon.is_finite() && epsilon > 0.0 {
        epsilon
    } else {
        1.0
    };
    let pi = provider_intention.value();
    let ci = consumer_intention.value();

    if pi > 0.0 && ci > 0.0 {
        // Weighted geometric mean of two values in (0, 1]: always in (0, 1].
        pi.powf(omega) * ci.powf(1.0 - omega)
    } else {
        // Both factors are >= epsilon > 0, so the magnitude is positive and
        // the branch is strictly negative: any mutually-wanted pairing beats
        // any pairing one side dislikes.
        -((1.0 - pi + epsilon).powf(omega) * (1.0 - ci + epsilon).powf(1.0 - omega))
    }
}

/// Resolves the ω to use for a mediation, given the policy and the current
/// satisfaction of the consumer and the provider (Equation 2 for the
/// adaptive policy).
#[must_use]
pub fn resolve_omega(
    policy: OmegaPolicy,
    consumer_satisfaction: Satisfaction,
    provider_satisfaction: Satisfaction,
) -> f64 {
    match policy {
        OmegaPolicy::Adaptive => consumer_satisfaction.omega_against(provider_satisfaction),
        OmegaPolicy::Fixed(w) => {
            if w.is_finite() {
                w.clamp(0.0, 1.0)
            } else {
                0.5
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn i(v: f64) -> Intention {
        Intention::new(v)
    }

    #[test]
    fn positive_branch_is_weighted_geometric_mean() {
        // ω = 0.5: plain geometric mean.
        let s = provider_score(i(0.64), i(0.25), 0.5, 1.0);
        assert!((s - (0.64f64 * 0.25).sqrt()).abs() < 1e-12);

        // ω = 1: only the provider's intention matters.
        let s = provider_score(i(0.3), i(0.9), 1.0, 1.0);
        assert!((s - 0.3).abs() < 1e-12);

        // ω = 0: only the consumer's intention matters.
        let s = provider_score(i(0.3), i(0.9), 0.0, 1.0);
        assert!((s - 0.9).abs() < 1e-12);
    }

    #[test]
    fn negative_branch_triggers_when_either_side_is_non_positive() {
        assert!(provider_score(i(-0.5), i(0.9), 0.5, 1.0) < 0.0);
        assert!(provider_score(i(0.9), i(-0.5), 0.5, 1.0) < 0.0);
        assert!(provider_score(i(0.0), i(0.9), 0.5, 1.0) < 0.0);
        assert!(provider_score(i(-1.0), i(-1.0), 0.5, 1.0) < 0.0);
    }

    #[test]
    fn any_mutual_positive_beats_any_negative_branch_score() {
        let best_negative = provider_score(i(0.0), i(1.0), 0.5, 1.0);
        let worst_positive = provider_score(i(0.001), i(0.001), 0.5, 1.0);
        assert!(worst_positive > best_negative);
    }

    #[test]
    fn negative_branch_still_ranks_less_disliked_higher() {
        // Provider A is disliked (-0.9) by the consumer; provider B only
        // mildly (-0.1). B must score higher (less negative).
        let a = provider_score(i(0.8), i(-0.9), 0.5, 1.0);
        let b = provider_score(i(0.8), i(-0.1), 0.5, 1.0);
        assert!(b > a);
    }

    #[test]
    fn epsilon_prevents_zero_scores_at_full_intention() {
        // PIq[p] = 1 in the negative branch: without ε the factor (1 - 1)
        // would collapse the magnitude to zero regardless of the other side.
        let s = provider_score(i(1.0), i(-1.0), 0.5, 1.0);
        assert!(s < 0.0);
        assert!(s.abs() > 0.0);
    }

    #[test]
    fn omega_weighting_shifts_the_balance() {
        // Provider loves the query, consumer dislikes the provider.
        let provider_favoured = provider_score(i(0.9), i(-0.3), 1.0, 1.0);
        let consumer_favoured = provider_score(i(0.9), i(-0.3), 0.0, 1.0);
        // With all the weight on the provider (ω = 1) the score is less
        // negative than with all the weight on the unhappy consumer.
        assert!(provider_favoured > consumer_favoured);
    }

    #[test]
    fn degenerate_omega_and_epsilon_are_sanitised() {
        let s = provider_score(i(0.5), i(0.5), f64::NAN, f64::NAN);
        assert!(s.is_finite());
        let s = provider_score(i(0.5), i(0.5), 7.0, -3.0);
        // omega clamps to 1 and epsilon falls back to 1: score = 0.5^1 * 0.5^0.
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn resolve_omega_follows_policy() {
        // Adaptive: Equation 2.
        let w = resolve_omega(
            OmegaPolicy::Adaptive,
            Satisfaction::new(0.9),
            Satisfaction::new(0.1),
        );
        assert!((w - 0.9).abs() < 1e-12);
        // Fixed values are clamped.
        assert_eq!(
            resolve_omega(
                OmegaPolicy::Fixed(0.25),
                Satisfaction::MAX,
                Satisfaction::MIN
            ),
            0.25
        );
        assert_eq!(
            resolve_omega(
                OmegaPolicy::Fixed(3.0),
                Satisfaction::MAX,
                Satisfaction::MIN
            ),
            1.0
        );
        assert_eq!(
            resolve_omega(
                OmegaPolicy::Fixed(f64::NAN),
                Satisfaction::MAX,
                Satisfaction::MIN
            ),
            0.5
        );
    }

    proptest! {
        #[test]
        fn prop_score_is_finite(
            pi in -1.0f64..=1.0,
            ci in -1.0f64..=1.0,
            omega in 0.0f64..=1.0,
            eps in 0.001f64..=2.0,
        ) {
            let s = provider_score(i(pi), i(ci), omega, eps);
            prop_assert!(s.is_finite());
        }

        #[test]
        fn prop_sign_matches_definition(
            pi in -1.0f64..=1.0,
            ci in -1.0f64..=1.0,
            omega in 0.0f64..=1.0,
        ) {
            let s = provider_score(i(pi), i(ci), omega, 1.0);
            if pi > 0.0 && ci > 0.0 {
                prop_assert!(s > 0.0);
            } else {
                prop_assert!(s < 0.0);
            }
        }

        #[test]
        fn prop_positive_branch_monotone_in_provider_intention(
            lo in 0.01f64..=1.0,
            hi in 0.01f64..=1.0,
            ci in 0.01f64..=1.0,
            omega in 0.01f64..=1.0,
        ) {
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let s_lo = provider_score(i(lo), i(ci), omega, 1.0);
            let s_hi = provider_score(i(hi), i(ci), omega, 1.0);
            prop_assert!(s_hi >= s_lo - 1e-12);
        }

        #[test]
        fn prop_positive_branch_bounded_by_unit(
            pi in 0.001f64..=1.0,
            ci in 0.001f64..=1.0,
            omega in 0.0f64..=1.0,
        ) {
            let s = provider_score(i(pi), i(ci), omega, 1.0);
            prop_assert!(s <= 1.0 + 1e-12);
        }

        #[test]
        fn prop_adaptive_omega_in_unit_interval(c in 0.0f64..=1.0, p in 0.0f64..=1.0) {
            let w = resolve_omega(
                OmegaPolicy::Adaptive,
                Satisfaction::new(c),
                Satisfaction::new(p),
            );
            prop_assert!((0.0..=1.0).contains(&w));
        }
    }
}
