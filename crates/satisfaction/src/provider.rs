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

use serde::{Deserialize, Serialize, Value};

use sbqa_types::{Intention, QueryId, Satisfaction};

use crate::window::{tracker_to_value, tracker_window, InteractionWindow};

/// One proposal the provider received: the query, the intention the provider
/// expressed for performing it, and whether the mediator selected it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProviderInteraction {
    /// The proposed query.
    pub query: QueryId,
    /// The intention the provider expressed for performing the query
    /// (an entry of the vector `PPIp`).
    pub intention: Intention,
    /// `true` if the provider was selected to perform the query
    /// (`q ∈ SQ^k_p`).
    pub performed: bool,
}

impl ProviderInteraction {
    /// Builds a proposal record.
    #[must_use]
    pub fn new(query: QueryId, intention: Intention, performed: bool) -> Self {
        Self {
            query,
            intention,
            performed,
        }
    }
}

/// Definition 2's numerator and denominator over a window: the sum of
/// `(PPIp[q] + 1) / 2` over its performed proposals, oldest first, and their
/// count (`|SQ^k_p|`).
///
/// Kept beside a window — by the standalone [`ProviderSatisfaction`] and by
/// a registry's pooled rows alike — so that reading a satisfaction is one
/// division. [`PerformedSum::after_record`] is the one rule that keeps the
/// pair bit-equal to a fresh oldest→newest sum over the window at all times.
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

    /// `δs(p)` over a window of `observed` proposals (Definition 2, with the
    /// cold-start refinement of [`ProviderSatisfaction::satisfaction`]).
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

/// Rolling provider satisfaction over the last `k` proposed queries
/// (Definition 2).
///
/// Definition 2's numerator and denominator are kept beside the window, so
/// [`ProviderSatisfaction::satisfaction`] is one division. They are
/// bit-equal to a fresh oldest→newest sum over the window at all times (see
/// [`ProviderSatisfaction::record`]) and are not part of the serialized
/// form: a tracker read back rebuilds them from its window.
///
/// This is the standalone form of a provider's state — what a participant
/// keeps for itself, what travels in a shard handoff and what goes on the
/// wire. Inside a [`SatisfactionRegistry`](crate::SatisfactionRegistry) the
/// same state lives in pooled rows, read through
/// [`ProviderView`](crate::ProviderView).
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderSatisfaction {
    window: InteractionWindow<ProviderInteraction>,
    maintained: PerformedSum,
}

impl Serialize for ProviderSatisfaction {
    fn to_value(&self) -> Value {
        tracker_to_value(&self.window)
    }
}

impl Deserialize for ProviderSatisfaction {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let window = tracker_window(value)?;
        let maintained = PerformedSum::over(window.iter());
        Ok(Self { window, maintained })
    }
}

impl ProviderSatisfaction {
    /// Creates a tracker remembering the last `k` proposals.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            window: InteractionWindow::new(k),
            maintained: PerformedSum::default(),
        }
    }

    /// Reassembles a tracker from a window and the pair maintained over it.
    pub(crate) fn from_parts(
        window: InteractionWindow<ProviderInteraction>,
        maintained: PerformedSum,
    ) -> Self {
        Self { window, maintained }
    }

    /// The window and the pair maintained over it.
    pub(crate) fn into_parts(self) -> (InteractionWindow<ProviderInteraction>, PerformedSum) {
        (self.window, self.maintained)
    }

    /// The window size `k`.
    #[must_use]
    pub fn window_size(&self) -> usize {
        self.window.capacity()
    }

    /// Number of proposals currently remembered.
    #[must_use]
    pub fn observed_proposals(&self) -> usize {
        self.window.len()
    }

    /// Records a proposal and whether the provider performed it, keeping
    /// the maintained sum the oldest→newest sum of the window
    /// (`PerformedSum::after_record`).
    pub fn record(&mut self, interaction: ProviderInteraction) {
        let evicted = self.window.record(interaction);
        let window = &self.window;
        self.maintained = self
            .maintained
            .after_record(&interaction, evicted, || window.iter());
    }

    /// Convenience wrapper over [`ProviderSatisfaction::record`].
    pub fn record_proposal(&mut self, query: QueryId, intention: Intention, performed: bool) {
        self.record(ProviderInteraction::new(query, intention, performed));
    }

    /// Long-run satisfaction `δs(p)` over the remembered window.
    ///
    /// Follows Definition 2, with one refinement for the cold-start case: a
    /// provider that has received *no proposal at all* is treated as fully
    /// satisfied (it has not been wronged yet), whereas a provider that has
    /// been proposed queries but performed none of them gets the paper's `0`.
    ///
    /// Reads the maintained sum: this sits on the mediation hot path (SbQA
    /// reads every candidate's satisfaction to resolve ω).
    #[must_use]
    pub fn satisfaction(&self) -> Satisfaction {
        self.maintained.satisfaction(self.window.len())
    }

    /// Number of remembered proposals the provider actually performed
    /// (`|SQ^k_p|`).
    #[must_use]
    pub fn performed_count(&self) -> usize {
        self.maintained.performed
    }

    /// Fraction of remembered proposals the provider performed. Returns 1.0
    /// when there is no proposal yet.
    #[must_use]
    pub fn selection_rate(&self) -> f64 {
        self.maintained.selection_rate(self.window.len())
    }

    /// Iterates over the remembered proposals, oldest first.
    pub fn interactions(&self) -> impl Iterator<Item = &ProviderInteraction> {
        self.window.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn satisfaction_matches_definition_two() {
        let mut sat = ProviderSatisfaction::new(10);
        // Performed a wanted query (intention 1) and an unwanted one (-1),
        // plus a proposal it did not perform (ignored by the numerator):
        // δs = ((1+1)/2 + (-1+1)/2) / 2 = (1 + 0) / 2 = 0.5
        sat.record_proposal(QueryId::new(1), Intention::new(1.0), true);
        sat.record_proposal(QueryId::new(2), Intention::new(-1.0), true);
        sat.record_proposal(QueryId::new(3), Intention::new(1.0), false);
        assert!((sat.satisfaction().value() - 0.5).abs() < 1e-12);
        assert_eq!(sat.performed_count(), 2);
    }

    #[test]
    fn proposed_but_never_selected_means_zero() {
        let mut sat = ProviderSatisfaction::new(5);
        sat.record_proposal(QueryId::new(1), Intention::new(0.9), false);
        sat.record_proposal(QueryId::new(2), Intention::new(0.8), false);
        assert_eq!(sat.satisfaction(), Satisfaction::MIN);
        assert_eq!(sat.selection_rate(), 0.0);
    }

    #[test]
    fn no_proposal_yet_means_fully_satisfied() {
        let sat = ProviderSatisfaction::new(5);
        assert_eq!(sat.satisfaction(), Satisfaction::MAX);
        assert_eq!(sat.selection_rate(), 1.0);
    }

    #[test]
    fn denominator_is_performed_queries_not_k() {
        let mut sat = ProviderSatisfaction::new(100);
        // One performed query it loved, many proposals it did not perform:
        // satisfaction stays 1.0 because the mean is over performed queries.
        sat.record_proposal(QueryId::new(0), Intention::new(1.0), true);
        for i in 1..50 {
            sat.record_proposal(QueryId::new(i), Intention::new(0.5), false);
        }
        assert_eq!(sat.satisfaction(), Satisfaction::MAX);
        assert!((sat.selection_rate() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn window_eviction_forgets_old_interactions() {
        let mut sat = ProviderSatisfaction::new(2);
        sat.record_proposal(QueryId::new(1), Intention::new(1.0), true);
        sat.record_proposal(QueryId::new(2), Intention::new(1.0), true);
        assert_eq!(sat.satisfaction(), Satisfaction::MAX);
        // Two bad interactions push the good ones out of the window.
        sat.record_proposal(QueryId::new(3), Intention::new(-1.0), true);
        sat.record_proposal(QueryId::new(4), Intention::new(-1.0), true);
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
            let mut sat = ProviderSatisfaction::new(k);
            for (i, (intent, performed)) in proposals.iter().enumerate() {
                sat.record_proposal(QueryId::new(i as u64), Intention::new(*intent), *performed);
            }
            let s = sat.satisfaction().value();
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn prop_performing_only_loved_queries_gives_max(
            count in 1usize..30,
        ) {
            let mut sat = ProviderSatisfaction::new(64);
            for i in 0..count {
                sat.record_proposal(QueryId::new(i as u64), Intention::MAX, true);
            }
            prop_assert_eq!(sat.satisfaction(), Satisfaction::MAX);
        }

        #[test]
        fn prop_selection_rate_in_unit_interval(
            proposals in proptest::collection::vec(proptest::bool::ANY, 0..50),
        ) {
            let mut sat = ProviderSatisfaction::new(32);
            for (i, performed) in proposals.iter().enumerate() {
                sat.record_proposal(QueryId::new(i as u64), Intention::NEUTRAL, *performed);
            }
            let rate = sat.selection_rate();
            prop_assert!((0.0..=1.0).contains(&rate));
        }
    }
}
