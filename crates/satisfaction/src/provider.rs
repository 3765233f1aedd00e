//! Provider-side satisfaction (Definition 2 of the paper).
//!
//! A provider tracks the intentions it expressed towards the last `k` queries
//! that were *proposed* to it (the vector `PPIp` of the paper). Among those,
//! the subset `SQ^k_p` is the set of queries the provider actually got to
//! perform. Its satisfaction is
//!
//! ```text
//!            |  (1/|SQ^k_p|) · Σ_{q ∈ SQ^k_p} (PPIp[q] + 1) / 2
//! δs(p)  =   |
//!            |  0                                if SQ^k_p = ∅
//! ```
//!
//! In words: a provider is satisfied when the queries it ends up performing
//! are the ones it wanted, and completely unsatisfied when it is proposed
//! queries but never selected. Note that the denominator is the number of
//! *performed* queries, not `k`: a provider that performs few but
//! well-matching queries is still satisfied — starvation is penalised through
//! the empty-set clause, not through dilution.
//!
//! A [`SatisfactionRegistry`](crate::SatisfactionRegistry) keeps that state
//! as one pooled row per provider, read through
//! [`ProviderView`](crate::ProviderView); this module holds what the rows
//! are made of: the proposal record and Definition 2's maintained pair.

use sbqa_types::{Intention, Satisfaction};

/// One proposal the provider received: the intention the provider expressed
/// for performing the query, and whether the mediator selected it.
///
/// Definition 2 reads nothing else, so the record does not keep the query's
/// id: it is 16 bytes, and a registry holds `k` of them per provider.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderInteraction {
    /// The intention the provider expressed for performing the query
    /// (an entry of the vector `PPIp`).
    pub intention: Intention,
    /// `true` if the provider was selected to perform the query
    /// (`q ∈ SQ^k_p`).
    pub performed: bool,
}

impl ProviderInteraction {
    /// Builds the record of a proposal.
    #[must_use]
    pub fn new(intention: Intention, performed: bool) -> Self {
        Self {
            intention,
            performed,
        }
    }
}

/// Definition 2's numerator and denominator over a window: the sum of
/// `(PPIp[q] + 1) / 2` over its performed proposals, oldest first, and their
/// count (`|SQ^k_p|`).
///
/// Kept in a registry's row beside its window, so that reading a
/// satisfaction is one division. [`PerformedSum::after_record`] is the one
/// rule that keeps the pair bit-equal to a fresh oldest→newest sum over the
/// window at all times.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct PerformedSum {
    pub(crate) sum: f64,
    pub(crate) performed: usize,
}

impl PerformedSum {
    /// The pair summed from scratch over `window`, oldest first.
    pub(crate) fn over<'a>(window: impl Iterator<Item = &'a ProviderInteraction>) -> Self {
        let mut fresh = Self::default();
        for interaction in window.filter(|i| i.performed) {
            fresh.sum += interaction.intention.to_unit().value();
            fresh.performed += 1;
        }
        fresh
    }

    /// The pair after `recorded` entered the window at its newest end and
    /// `evicted`, if any, left it at the oldest; `window` yields the window
    /// as it is now.
    ///
    /// A performed proposal appended at the newest end is the sum's next
    /// addend, an evicted unperformed one was no addend at all, and only an
    /// evicted performed one — the *first* addend, which floating-point
    /// addition cannot take back out — makes the window be summed again.
    pub(crate) fn after_record<'a, W>(
        mut self,
        recorded: &ProviderInteraction,
        evicted: Option<ProviderInteraction>,
        window: impl Fn() -> W,
    ) -> Self
    where
        W: Iterator<Item = &'a ProviderInteraction>,
    {
        if evicted.is_some_and(|oldest| oldest.performed) {
            self = Self::over(window());
        } else if recorded.performed {
            self.sum += recorded.intention.to_unit().value();
            self.performed += 1;
        }
        debug_assert_eq!(
            (self.sum.to_bits(), self.performed),
            {
                let fresh = Self::over(window());
                (fresh.sum.to_bits(), fresh.performed)
            },
            "the maintained sum left the window's"
        );
        self
    }

    /// `δs(p)` over a window of `observed` proposals (Definition 2), with
    /// one refinement for the cold start: a provider that has received *no
    /// proposal at all* is fully satisfied (it has not been wronged yet),
    /// whereas one proposed queries but selected for none gets the paper's
    /// `0`.
    pub(crate) fn satisfaction(self, observed: usize) -> Satisfaction {
        if observed == 0 {
            return Satisfaction::MAX;
        }
        if self.performed == 0 {
            return Satisfaction::MIN;
        }
        Satisfaction::new(self.sum / self.performed as f64)
    }

    /// Fraction of `observed` proposals that were performed; 1.0 for none.
    pub(crate) fn selection_rate(self, observed: usize) -> f64 {
        if observed == 0 {
            return 1.0;
        }
        self.performed as f64 / observed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SatisfactionRegistry;
    use proptest::prelude::*;
    use sbqa_types::{ConsumerId, ProviderId, QueryId};

    const P: ProviderId = ProviderId::new(1);

    /// A registry of window `k` holding provider `P`, proposed one query
    /// per `(intention, performed)`, oldest first.
    fn proposed(
        k: usize,
        proposals: impl IntoIterator<Item = (f64, bool)>,
    ) -> SatisfactionRegistry {
        let mut registry = SatisfactionRegistry::new(k);
        registry.register_provider(P);
        for (q, (intention, performed)) in (0u64..).zip(proposals) {
            let proposal = [(P, Intention::new(intention), performed)];
            registry.record_mediation(QueryId::new(q), ConsumerId::new(1), 1, &[], &proposal);
        }
        registry
    }

    #[test]
    fn a_proposal_record_is_16_bytes() {
        assert_eq!(std::mem::size_of::<ProviderInteraction>(), 16);
    }

    #[test]
    fn satisfaction_matches_definition_two() {
        // Performed a wanted query (intention 1) and an unwanted one (-1),
        // plus a proposal it did not perform (ignored by the numerator):
        // δs = ((1+1)/2 + (-1+1)/2) / 2 = (1 + 0) / 2 = 0.5
        let registry = proposed(10, [(1.0, true), (-1.0, true), (1.0, false)]);
        let sat = registry.provider(P).expect("registered");
        assert!((sat.satisfaction().value() - 0.5).abs() < 1e-12);
        assert_eq!(sat.performed_count(), 2);
    }

    #[test]
    fn proposed_but_never_selected_means_zero() {
        let registry = proposed(5, [(0.9, false), (0.8, false)]);
        let sat = registry.provider(P).expect("registered");
        assert_eq!(sat.satisfaction(), Satisfaction::MIN);
        assert_eq!(sat.selection_rate(), 0.0);
    }

    #[test]
    fn no_proposal_yet_means_fully_satisfied() {
        let registry = proposed(5, []);
        let sat = registry.provider(P).expect("registered");
        assert_eq!(sat.satisfaction(), Satisfaction::MAX);
        assert_eq!(sat.selection_rate(), 1.0);
    }

    #[test]
    fn denominator_is_performed_queries_not_k() {
        // One performed query it loved, many proposals it did not perform:
        // satisfaction stays 1.0 because the mean is over performed queries.
        let registry = proposed(100, std::iter::once((1.0, true)).chain([(0.5, false); 49]));
        let sat = registry.provider(P).expect("registered");
        assert_eq!(sat.satisfaction(), Satisfaction::MAX);
        assert!((sat.selection_rate() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn window_eviction_forgets_old_interactions() {
        let loved = proposed(2, [(1.0, true); 2]);
        assert_eq!(loved.provider_satisfaction(P), Satisfaction::MAX);
        // Two bad interactions push the good ones out of the window.
        let registry = proposed(2, [(1.0, true), (1.0, true), (-1.0, true), (-1.0, true)]);
        let sat = registry.provider(P).expect("registered");
        assert_eq!(sat.satisfaction(), Satisfaction::MIN);
        assert_eq!(sat.observed_proposals(), 2);
        assert_eq!(sat.window_size(), 2);
        assert_eq!(sat.interactions().count(), 2);
    }

    proptest! {
        #[test]
        fn prop_satisfaction_in_unit_interval(
            proposals in proptest::collection::vec((-1.0f64..=1.0, proptest::bool::ANY), 0..50),
            k in 1usize..60,
        ) {
            let s = proposed(k, proposals).provider_satisfaction(P).value();
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn prop_performing_only_loved_queries_gives_max(
            count in 1usize..30,
        ) {
            let registry = proposed(64, std::iter::repeat_n((1.0, true), count));
            prop_assert_eq!(registry.provider_satisfaction(P), Satisfaction::MAX);
        }

        #[test]
        fn prop_selection_rate_in_unit_interval(
            proposals in proptest::collection::vec(proptest::bool::ANY, 0..50),
        ) {
            let registry = proposed(32, proposals.into_iter().map(|performed| (0.0, performed)));
            let rate = registry.provider(P).expect("registered").selection_rate();
            prop_assert!((0.0..=1.0).contains(&rate));
        }
    }
}
