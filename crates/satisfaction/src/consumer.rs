//! Consumer-side satisfaction (Definition 1 of the paper).
//!
//! For a query `q` issued by consumer `c`, the consumer expressed an intention
//! `CIq[p] ∈ [-1, 1]` towards every provider `p` in `Pq`. Once the query has
//! been performed by the set `P̂q` of providers, the per-query satisfaction is
//!
//! ```text
//! δs(c, q) = (1/n) · Σ_{p ∈ P̂q} (CIq[p] + 1) / 2
//! ```
//!
//! where `n` is the number of results the consumer required (`q.n`). Note the
//! normalisation by `n`, not by `|P̂q|`: if fewer providers than requested
//! performed the query, the missing results contribute zero satisfaction —
//! an under-served consumer is an unsatisfied consumer.
//!
//! The long-run satisfaction `δs(c)` (Definition 1) is the mean of `δs(c, q)`
//! over the consumer's last `k` queries.

use std::collections::VecDeque;

use sbqa_types::{Intention, ProviderId, QueryId, Satisfaction};

use crate::window::InteractionWindow;

/// The record a consumer keeps for one of its past queries: which providers
/// performed it, with which expressed intention, and how many results were
/// required.
#[derive(Debug, PartialEq)]
// sbqa-lint: allow(dead-pub, "yielded by ConsumerSatisfaction::interactions; maintained_prop reads it unnamed")
pub struct ConsumerInteraction {
    /// The query this interaction refers to.
    pub query: QueryId,
    /// Number of results the consumer required (`q.n`, at least 1).
    pub required_results: usize,
    /// The providers that performed the query together with the intention the
    /// consumer had expressed towards each of them.
    pub performed_by: Vec<(ProviderId, Intention)>,
}

/// By hand for `clone_from`, which keeps the `performed_by` buffer (see
/// [`InteractionWindow`]'s `Clone`).
impl Clone for ConsumerInteraction {
    fn clone(&self) -> Self {
        Self {
            query: self.query,
            required_results: self.required_results,
            performed_by: self.performed_by.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.query = source.query;
        self.required_results = source.required_results;
        self.performed_by.clone_from(&source.performed_by);
    }
}

impl ConsumerInteraction {
    /// Builds an interaction record, forcing `required_results ≥ 1`.
    #[must_use]
    pub fn new(
        query: QueryId,
        required_results: usize,
        performed_by: Vec<(ProviderId, Intention)>,
    ) -> Self {
        Self {
            query,
            required_results: required_results.max(1),
            performed_by,
        }
    }

    /// Per-query satisfaction `δs(c, q)` (Equation 1).
    ///
    /// The divisor is clamped to at least one even though
    /// [`ConsumerInteraction::new`] already enforces `required_results ≥ 1`:
    /// the fields are public, so a record with `required_results == 0` can
    /// still be materialised. An
    /// unguarded division would then yield `0/0 = NaN` or `sum/0 = ∞` —
    /// which the [`Satisfaction`] clamp masks as *minimum* or *maximum*
    /// satisfaction respectively, silently skewing every window mean
    /// downstream instead of failing loudly.
    #[must_use]
    pub fn satisfaction(&self) -> Satisfaction {
        let n = self.required_results.max(1) as f64;
        let sum: f64 = self
            .performed_by
            .iter()
            .map(|(_, intention)| intention.to_unit().value())
            .sum();
        Satisfaction::new(sum / n)
    }
}

/// Rolling consumer satisfaction over the last `k` queries (Definition 1).
///
/// The per-query values `δs(c, q)` are kept in a ring of their own beside
/// the interactions, in step with them, so the long-run mean sums one
/// contiguous run of `f64`s instead of re-deriving each value from its
/// interaction's provider list. The ring holds exactly what
/// [`ConsumerInteraction::satisfaction`] returns for each remembered
/// interaction, oldest first.
#[derive(Debug, PartialEq)]
pub struct ConsumerSatisfaction {
    window: InteractionWindow<ConsumerInteraction>,
    /// `δs(c, q)` of every remembered interaction, parallel to `window`.
    values: VecDeque<f64>,
}

/// By hand so that `clone_from` reaches the window's.
impl Clone for ConsumerSatisfaction {
    fn clone(&self) -> Self {
        Self {
            window: self.window.clone(),
            values: self.values.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.window.clone_from(&source.window);
        self.values.clone_from(&source.values);
    }
}

impl ConsumerSatisfaction {
    /// Creates a tracker remembering the last `k` queries.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            window: InteractionWindow::new(k),
            values: VecDeque::new(),
        }
    }

    /// The window size `k`.
    #[must_use]
    pub fn window_size(&self) -> usize {
        self.window.capacity()
    }

    /// Number of queries currently contributing to the satisfaction.
    #[must_use]
    pub fn observed_queries(&self) -> usize {
        self.window.len()
    }

    /// Brings this tracker level with `source`, a later state of the same
    /// consumer: the queries `source` recorded since this tracker's last
    /// are copied over, into the buffers of the ones they evict
    /// ([`InteractionWindow::catch_up`]), with their values. Where that
    /// cannot make the two equal — a whole window recorded since, or
    /// histories that do not line up — `source` is copied whole with
    /// `clone_from`.
    pub(crate) fn catch_up(&mut self, source: &Self) {
        let Some(gap) = self.window.catch_up(&source.window) else {
            self.clone_from(source);
            return;
        };
        let fresh = source.values.len() - gap;
        self.values
            .drain(..self.values.len() + gap - source.values.len());
        self.values.extend(source.values.range(fresh..));
    }

    /// Records the outcome of a query.
    fn record(&mut self, interaction: ConsumerInteraction) {
        let value = interaction.satisfaction().value();
        self.window.record(interaction);
        if self.values.len() == self.window.len() {
            // The window evicted its oldest (here or in `record_outcome`).
            self.values.pop_front();
        }
        self.values.push_back(value);
    }

    /// Records the outcome of a query, copying the performed-by pairs out of
    /// a slice.
    ///
    /// When the window is full — the steady state — the evicted
    /// interaction's buffer is recycled for the new record, so recording
    /// allocates nothing once the buffer has grown to the typical
    /// replication factor.
    pub fn record_outcome(
        &mut self,
        query: QueryId,
        required_results: usize,
        performed_by: &[(ProviderId, Intention)],
    ) {
        let mut storage = self
            .window
            .take_oldest_if_full()
            .map(|evicted| evicted.performed_by)
            .unwrap_or_default();
        storage.clear();
        storage.extend_from_slice(performed_by);
        self.record(ConsumerInteraction::new(query, required_results, storage));
    }

    /// Long-run satisfaction `δs(c)`: the mean of the per-query satisfactions
    /// over the remembered window.
    ///
    /// A consumer with no recorded query yet is fully satisfied
    /// ([`Satisfaction::MAX`]) — it has not been wronged by the system yet,
    /// which matches the paper's treatment of newcomers and prevents
    /// spurious departures at simulation start.
    #[must_use]
    pub fn satisfaction(&self) -> Satisfaction {
        if self.values.is_empty() {
            return Satisfaction::MAX;
        }
        let sum: f64 = self.values.iter().sum();
        Satisfaction::new(sum / self.values.len() as f64)
    }

    /// Iterates over the remembered interactions, oldest first.
    pub fn interactions(&self) -> impl Iterator<Item = &ConsumerInteraction> {
        self.window.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pid(raw: u64) -> ProviderId {
        ProviderId::new(raw)
    }

    #[test]
    fn per_query_satisfaction_matches_equation_one() {
        // Two results required, two providers performed with intentions 1 and 0:
        // δs = (1/2) * ((1+1)/2 + (0+1)/2) = (1/2) * (1 + 0.5) = 0.75
        let interaction = ConsumerInteraction::new(
            QueryId::new(1),
            2,
            vec![(pid(1), Intention::new(1.0)), (pid(2), Intention::new(0.0))],
        );
        assert!((interaction.satisfaction().value() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn under_served_queries_lose_satisfaction() {
        // Three results required but only one provider (intention 1) performed:
        // δs = (1/3) * 1 = 0.333…
        let interaction =
            ConsumerInteraction::new(QueryId::new(1), 3, vec![(pid(1), Intention::new(1.0))]);
        assert!((interaction.satisfaction().value() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn starved_query_gives_zero_satisfaction() {
        let interaction = ConsumerInteraction::new(QueryId::new(1), 2, vec![]);
        assert_eq!(interaction.satisfaction(), Satisfaction::MIN);
    }

    #[test]
    fn negative_intentions_drag_satisfaction_below_half() {
        let interaction =
            ConsumerInteraction::new(QueryId::new(1), 1, vec![(pid(1), Intention::new(-1.0))]);
        assert_eq!(interaction.satisfaction(), Satisfaction::MIN);

        let interaction =
            ConsumerInteraction::new(QueryId::new(1), 1, vec![(pid(1), Intention::new(-0.5))]);
        assert!((interaction.satisfaction().value() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_required_results_cannot_skew_satisfaction() {
        // `new` clamps, but the public fields can still materialise a zero
        // divisor; the satisfaction must stay finite and
        // behave as if one result had been required.
        let degenerate = ConsumerInteraction {
            query: QueryId::new(1),
            required_results: 0,
            performed_by: vec![(pid(1), Intention::new(1.0))],
        };
        let s = degenerate.satisfaction().value();
        assert!(s.is_finite());
        assert!((s - 1.0).abs() < 1e-12, "behaves like required_results = 1");

        let starved = ConsumerInteraction {
            query: QueryId::new(2),
            required_results: 0,
            performed_by: vec![],
        };
        assert_eq!(starved.satisfaction(), Satisfaction::MIN);

        // A degenerate record inside a window leaves the mean well-defined.
        let mut sat = ConsumerSatisfaction::new(4);
        sat.record(degenerate);
        sat.record_outcome(QueryId::new(3), 1, &[(pid(2), Intention::new(0.0))]);
        let mean = sat.satisfaction().value();
        assert!(mean.is_finite());
        assert!(
            (mean - 0.75).abs() < 1e-12,
            "mean over (1.0, 0.5), got {mean}"
        );
    }

    #[test]
    fn long_run_satisfaction_is_mean_over_window() {
        let mut sat = ConsumerSatisfaction::new(2);
        assert_eq!(sat.satisfaction(), Satisfaction::MAX);

        sat.record_outcome(QueryId::new(1), 1, &[(pid(1), Intention::new(1.0))]);
        sat.record_outcome(QueryId::new(2), 1, &[(pid(2), Intention::new(-1.0))]);
        // (1.0 + 0.0) / 2
        assert!((sat.satisfaction().value() - 0.5).abs() < 1e-12);

        // Window of 2: the oldest (fully satisfying) query is evicted.
        sat.record_outcome(QueryId::new(3), 1, &[(pid(3), Intention::new(-1.0))]);
        assert_eq!(sat.satisfaction(), Satisfaction::MIN);
        assert_eq!(sat.observed_queries(), 2);
        assert_eq!(sat.window_size(), 2);
    }

    proptest! {
        #[test]
        fn prop_satisfaction_always_in_unit_interval(
            intentions in proptest::collection::vec(-1.0f64..=1.0, 0..10),
            required in 1usize..5,
        ) {
            let performed: Vec<(ProviderId, Intention)> = intentions
                .iter()
                .enumerate()
                .map(|(i, v)| (pid(i as u64), Intention::new(*v)))
                .collect();
            let interaction = ConsumerInteraction::new(QueryId::new(0), required, performed);
            let s = interaction.satisfaction().value();
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn prop_more_liked_providers_never_decrease_satisfaction(
            base in -1.0f64..=1.0,
            extra in 0.0f64..=1.0,
            required in 2usize..5,
        ) {
            let one = ConsumerInteraction::new(
                QueryId::new(0),
                required,
                vec![(pid(1), Intention::new(base))],
            );
            let two = ConsumerInteraction::new(
                QueryId::new(0),
                required,
                vec![(pid(1), Intention::new(base)), (pid(2), Intention::new(extra))],
            );
            prop_assert!(two.satisfaction() >= one.satisfaction());
        }

        #[test]
        fn prop_long_run_mean_bounded_by_extremes(
            values in proptest::collection::vec(-1.0f64..=1.0, 1..30),
            k in 1usize..40,
        ) {
            let mut sat = ConsumerSatisfaction::new(k);
            for (i, v) in values.iter().enumerate() {
                sat.record_outcome(
                    QueryId::new(i as u64),
                    1,
                    &[(pid(0), Intention::new(*v))],
                );
            }
            let s = sat.satisfaction().value();
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }
}
