//! The mediator-side satisfaction registry.
//!
//! To compute ω (Equation 2) the mediator needs to know, at mediation time,
//! the current satisfaction of the issuing consumer and of every candidate
//! provider. [`SatisfactionRegistry`] is that bookkeeping: it owns one
//! [`ConsumerSatisfaction`] per registered consumer and one
//! [`ProviderSatisfaction`] per registered provider, and is updated after
//! every mediation with the information the paper says the mediator sends out
//! ("the mediation result to the consumer and all providers in set Kn").
//!
//! The registry is also the instrument of Scenario 1: because it only relies
//! on expressed intentions and observed allocations, it can score *any*
//! allocation method — Capacity-based, Economic or SbQA — from a satisfaction
//! point of view.
//!
//! ## Touched-id tracking
//!
//! A host that keeps a second copy of the registry in step with this one
//! (the replication standby's checkpoint) arms
//! [`SatisfactionRegistry::track_touched`]: from then on every mutator notes
//! the ids it changed, and [`SatisfactionRegistry::sync_touched_into`]
//! brings the copy up to date by copying exactly those trackers — O(touched)
//! instead of a clone of every participant. Like the provider registry's
//! delta sink the hook is `None` by default (one null check per mutating
//! call) and never inherited by clones.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use sbqa_types::{ConsumerId, Intention, ProviderId, QueryId, Satisfaction};

use crate::consumer::ConsumerSatisfaction;
use crate::provider::ProviderSatisfaction;

/// The ids whose trackers changed (were created, recorded into, replaced or
/// removed) since the last [`SatisfactionRegistry::sync_touched_into`], in
/// call order, duplicates included until a buffer fills.
#[derive(Debug, Default)]
struct Touched {
    consumers: Vec<ConsumerId>,
    providers: Vec<ProviderId>,
}

/// Notes one touched id. A full buffer is first folded to its distinct ids,
/// and doubled only when those fill more than half of it, so an armed
/// registry that is never synced holds O(participants) ids, not O(calls),
/// and a warm buffer never reallocates.
fn note<T: Ord>(ids: &mut Vec<T>, id: T) {
    if ids.len() == ids.capacity() && !ids.is_empty() {
        ids.sort_unstable();
        ids.dedup();
        if ids.len() > ids.capacity() / 2 {
            ids.reserve(ids.capacity());
        }
    }
    ids.push(id);
}

/// The tracking hook as a field: a clone, or a registry read back from its
/// serialized form, is a state fork with no copy to keep in step, so both
/// come back with tracking off (it serializes as `None`).
#[derive(Debug, Default)]
struct TouchedHook(Option<Touched>);

impl Clone for TouchedHook {
    fn clone(&self) -> Self {
        Self(None)
    }
}

impl Serialize for TouchedHook {
    fn to_value(&self) -> serde::Value {
        serde::Value::Option(None)
    }
}

impl Deserialize for TouchedHook {
    fn from_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self(None))
    }
}

/// Mediator-side record of every participant's satisfaction state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SatisfactionRegistry {
    window: usize,
    // sbqa-lint: allow(hash-collection, "per-id point lookups on the hot path; aggregation sorts ids before summing (analysis.rs)")
    consumers: HashMap<ConsumerId, ConsumerSatisfaction>,
    // sbqa-lint: allow(hash-collection, "per-id point lookups on the hot path; aggregation sorts ids before summing (analysis.rs)")
    providers: HashMap<ProviderId, ProviderSatisfaction>,
    touched: TouchedHook,
}

impl SatisfactionRegistry {
    /// Creates a registry whose participants remember their last `k`
    /// interactions.
    #[must_use]
    pub fn new(satisfaction_window: usize) -> Self {
        Self {
            window: satisfaction_window.max(1),
            // sbqa-lint: allow(hash-collection, "per-id point lookups on the hot path; aggregation sorts ids before summing (analysis.rs)")
            consumers: HashMap::new(),
            // sbqa-lint: allow(hash-collection, "per-id point lookups on the hot path; aggregation sorts ids before summing (analysis.rs)")
            providers: HashMap::new(),
            touched: TouchedHook(None),
        }
    }

    /// Arms touched-id tracking (see the module documentation), starting
    /// from an empty touched set: the copy to keep in step must equal this
    /// registry now.
    pub fn track_touched(&mut self) {
        self.touched = TouchedHook(Some(Touched::default()));
    }

    /// Brings `copy` — equal to this registry when tracking was armed or
    /// last synced — up to date: every tracker touched since is copied into
    /// it with `clone_from` (reusing the copy's buffers), every tracker
    /// removed since is removed from it, and the touched set restarts empty.
    /// Ids are visited in ascending order, each once. Returns the number of
    /// distinct ids visited, or `None`, leaving `copy` as it was, when
    /// tracking is not armed.
    pub fn sync_touched_into(&mut self, copy: &mut SatisfactionRegistry) -> Option<usize> {
        let touched = self.touched.0.as_mut()?;
        touched.consumers.sort_unstable();
        touched.consumers.dedup();
        touched.providers.sort_unstable();
        touched.providers.dedup();
        let visited = touched.consumers.len() + touched.providers.len();
        for id in touched.consumers.drain(..) {
            sync_entry(self.consumers.get(&id), copy.consumers.entry(id));
        }
        for id in touched.providers.drain(..) {
            sync_entry(self.providers.get(&id), copy.providers.entry(id));
        }
        Some(visited)
    }

    fn touch_consumer(&mut self, consumer: ConsumerId) {
        if let Some(touched) = &mut self.touched.0 {
            note(&mut touched.consumers, consumer);
        }
    }

    fn touch_provider(&mut self, provider: ProviderId) {
        if let Some(touched) = &mut self.touched.0 {
            note(&mut touched.providers, provider);
        }
    }

    /// The interaction-window length used for new participants.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Registers a consumer if it is not yet known. Returns `true` if it was
    /// newly registered.
    pub fn register_consumer(&mut self, consumer: ConsumerId) -> bool {
        if self.consumers.contains_key(&consumer) {
            return false;
        }
        self.consumers
            .insert(consumer, ConsumerSatisfaction::new(self.window));
        self.touch_consumer(consumer);
        true
    }

    /// Registers a provider if it is not yet known. Returns `true` if it was
    /// newly registered.
    pub fn register_provider(&mut self, provider: ProviderId) -> bool {
        if self.providers.contains_key(&provider) {
            return false;
        }
        self.providers
            .insert(provider, ProviderSatisfaction::new(self.window));
        self.touch_provider(provider);
        true
    }

    /// Removes a consumer (it left the system). Returns `true` if it existed.
    pub fn remove_consumer(&mut self, consumer: ConsumerId) -> bool {
        self.touch_consumer(consumer);
        self.consumers.remove(&consumer).is_some()
    }

    /// Removes a provider (it left the system). Returns `true` if it existed.
    pub fn remove_provider(&mut self, provider: ProviderId) -> bool {
        self.extract_provider(provider).is_some()
    }

    /// Takes a provider's tracker out of the registry, history intact, so a
    /// shard handoff can move the provider's satisfaction state to another
    /// registry instead of resetting it. The counterpart of
    /// [`SatisfactionRegistry::adopt_provider`].
    pub fn extract_provider(&mut self, provider: ProviderId) -> Option<ProviderSatisfaction> {
        self.touch_provider(provider);
        self.providers.remove(&provider)
    }

    /// Installs a provider tracker extracted from another registry
    /// (replacing any existing tracker for that id). The tracker keeps its
    /// own window length: a provider mid-handoff must not have its
    /// interaction history rescaled by the destination's configuration.
    pub fn adopt_provider(&mut self, provider: ProviderId, tracker: ProviderSatisfaction) {
        self.touch_provider(provider);
        self.providers.insert(provider, tracker);
    }

    /// Number of registered consumers.
    #[must_use]
    pub fn consumer_count(&self) -> usize {
        self.consumers.len()
    }

    /// Number of registered providers.
    #[must_use]
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// Current satisfaction of a consumer. Unknown consumers are treated as
    /// fully satisfied newcomers, mirroring the tracker's cold-start rule.
    #[must_use]
    pub fn consumer_satisfaction(&self, consumer: ConsumerId) -> Satisfaction {
        self.consumers
            .get(&consumer)
            .map_or(Satisfaction::MAX, ConsumerSatisfaction::satisfaction)
    }

    /// Current satisfaction of a provider; unknown providers count as fully
    /// satisfied newcomers.
    #[must_use]
    pub fn provider_satisfaction(&self, provider: ProviderId) -> Satisfaction {
        self.providers
            .get(&provider)
            .map_or(Satisfaction::MAX, ProviderSatisfaction::satisfaction)
    }

    /// Immutable access to a consumer's tracker.
    #[must_use]
    pub fn consumer(&self, consumer: ConsumerId) -> Option<&ConsumerSatisfaction> {
        self.consumers.get(&consumer)
    }

    /// Immutable access to a provider's tracker.
    #[must_use]
    pub fn provider(&self, provider: ProviderId) -> Option<&ProviderSatisfaction> {
        self.providers.get(&provider)
    }

    /// Records the outcome of a mediation.
    ///
    /// * `consumer` and `required_results` identify the query's issuer and its
    ///   replication factor `q.n`;
    /// * `performed_by` lists the selected providers with the intention the
    ///   consumer had expressed towards each;
    /// * `proposals` lists *every* provider that was asked for an intention
    ///   (the set `Kn`), with the intention it expressed and whether it was
    ///   selected — exactly the information the paper says the mediator sends
    ///   back to "the consumer and all providers in set Kn".
    pub fn record_mediation(
        &mut self,
        query: QueryId,
        consumer: ConsumerId,
        required_results: usize,
        performed_by: &[(ProviderId, Intention)],
        proposals: &[(ProviderId, Intention, bool)],
    ) {
        if let Some(touched) = &mut self.touched.0 {
            note(&mut touched.consumers, consumer);
            for (provider, ..) in proposals {
                note(&mut touched.providers, *provider);
            }
        }
        // One probe per participant; an unknown one is registered here.
        let window = self.window;
        self.consumers
            .entry(consumer)
            .or_insert_with(|| ConsumerSatisfaction::new(window))
            .record_outcome(query, required_results, performed_by);
        for (provider, intention, performed) in proposals {
            self.providers
                .entry(*provider)
                .or_insert_with(|| ProviderSatisfaction::new(window))
                .record_proposal(query, *intention, *performed);
        }
    }

    /// Iterates over `(id, satisfaction)` for every registered consumer.
    pub fn consumer_satisfactions(&self) -> impl Iterator<Item = (ConsumerId, Satisfaction)> + '_ {
        self.consumers
            .iter()
            .map(|(id, tracker)| (*id, tracker.satisfaction()))
    }

    /// Iterates over `(id, satisfaction)` for every registered provider.
    pub fn provider_satisfactions(&self) -> impl Iterator<Item = (ProviderId, Satisfaction)> + '_ {
        self.providers
            .iter()
            .map(|(id, tracker)| (*id, tracker.satisfaction()))
    }

    /// The balancing parameter ω of Equation 2 for a given consumer/provider
    /// pair, read from the registry's current state.
    #[must_use]
    pub fn omega(&self, consumer: ConsumerId, provider: ProviderId) -> f64 {
        self.consumer_satisfaction(consumer)
            .omega_against(self.provider_satisfaction(provider))
    }
}

/// Makes the copy's entry equal to the live tracker: copied over (in place
/// when the copy already has one) or removed.
fn sync_entry<K, V: Clone>(live: Option<&V>, entry: Entry<'_, K, V>) {
    match (live, entry) {
        (Some(tracker), Entry::Occupied(mut stale)) => stale.get_mut().clone_from(tracker),
        (Some(tracker), Entry::Vacant(slot)) => {
            slot.insert(tracker.clone());
        }
        (None, Entry::Occupied(gone)) => {
            gone.remove();
        }
        (None, Entry::Vacant(_)) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(raw: u64) -> ConsumerId {
        ConsumerId::new(raw)
    }

    fn pid(raw: u64) -> ProviderId {
        ProviderId::new(raw)
    }

    #[test]
    fn registration_is_idempotent() {
        let mut reg = SatisfactionRegistry::new(10);
        assert!(reg.register_consumer(cid(1)));
        assert!(!reg.register_consumer(cid(1)));
        assert!(reg.register_provider(pid(1)));
        assert!(!reg.register_provider(pid(1)));
        assert_eq!(reg.consumer_count(), 1);
        assert_eq!(reg.provider_count(), 1);
        assert_eq!(reg.window(), 10);
    }

    #[test]
    fn unknown_participants_are_satisfied_newcomers() {
        let reg = SatisfactionRegistry::new(10);
        assert_eq!(reg.consumer_satisfaction(cid(9)), Satisfaction::MAX);
        assert_eq!(reg.provider_satisfaction(pid(9)), Satisfaction::MAX);
        assert!((reg.omega(cid(9), pid(9)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn record_mediation_updates_both_sides() {
        let mut reg = SatisfactionRegistry::new(10);
        let selected = vec![(pid(1), Intention::new(1.0))];
        let proposals = vec![
            (pid(1), Intention::new(0.5), true),
            (pid(2), Intention::new(0.9), false),
        ];
        reg.record_mediation(QueryId::new(1), cid(1), 1, &selected, &proposals);

        // The consumer got its preferred provider: fully satisfied.
        assert_eq!(reg.consumer_satisfaction(cid(1)), Satisfaction::MAX);
        // Provider 1 performed a query it valued at 0.5 -> (0.5+1)/2 = 0.75.
        assert!((reg.provider_satisfaction(pid(1)).value() - 0.75).abs() < 1e-12);
        // Provider 2 was proposed a query but did not perform it -> 0.
        assert_eq!(reg.provider_satisfaction(pid(2)), Satisfaction::MIN);
        assert_eq!(reg.consumer_count(), 1);
        assert_eq!(reg.provider_count(), 2);
    }

    #[test]
    fn omega_shifts_towards_the_dissatisfied_side() {
        let mut reg = SatisfactionRegistry::new(10);
        // Build a dissatisfied provider and a satisfied consumer.
        reg.record_mediation(
            QueryId::new(1),
            cid(1),
            1,
            &[(pid(1), Intention::new(1.0))],
            &[
                (pid(1), Intention::new(1.0), true),
                (pid(2), Intention::new(0.9), false),
            ],
        );
        // Consumer fully satisfied (1.0), provider 2 fully dissatisfied (0.0):
        // ω = ((1 - 0) + 1) / 2 = 1 -> all the weight on the provider's intention.
        assert!((reg.omega(cid(1), pid(2)) - 1.0).abs() < 1e-12);
        // Against the satisfied provider 1 the weight stays balanced-ish.
        assert!(reg.omega(cid(1), pid(1)) < 1.0);
    }

    #[test]
    fn removal_forgets_participants() {
        let mut reg = SatisfactionRegistry::new(5);
        reg.register_consumer(cid(1));
        reg.register_provider(pid(1));
        assert!(reg.remove_consumer(cid(1)));
        assert!(!reg.remove_consumer(cid(1)));
        assert!(reg.remove_provider(pid(1)));
        assert!(!reg.remove_provider(pid(1)));
        assert_eq!(reg.consumer_count(), 0);
        assert_eq!(reg.provider_count(), 0);
    }

    #[test]
    fn satisfaction_iterators_cover_all_participants() {
        let mut reg = SatisfactionRegistry::new(5);
        reg.register_consumer(cid(1));
        reg.register_consumer(cid(2));
        reg.register_provider(pid(3));
        assert_eq!(reg.consumer_satisfactions().count(), 2);
        assert_eq!(reg.provider_satisfactions().count(), 1);
        assert!(reg.consumer(cid(1)).is_some());
        assert!(reg.provider(pid(3)).is_some());
        assert!(reg.consumer(cid(99)).is_none());
        assert!(reg.provider(pid(99)).is_none());
    }

    /// Every tracker of a registry rendered in id order, for equality checks.
    fn trackers(reg: &SatisfactionRegistry) -> String {
        let mut consumers: Vec<_> = reg.consumers.iter().collect();
        consumers.sort_by_key(|(id, _)| **id);
        let mut providers: Vec<_> = reg.providers.iter().collect();
        providers.sort_by_key(|(id, _)| **id);
        format!("{consumers:?} {providers:?}")
    }

    #[test]
    fn tracking_is_off_by_default_and_never_inherited() {
        let mut reg = SatisfactionRegistry::new(5);
        let mut copy = reg.clone();
        reg.register_provider(pid(1));
        assert_eq!(reg.sync_touched_into(&mut copy), None);
        assert_eq!(
            copy.provider_count(),
            0,
            "an unarmed sync leaves the copy alone"
        );

        reg.track_touched();
        let mut fork = reg.clone();
        assert_eq!(
            fork.sync_touched_into(&mut copy),
            None,
            "clones are not armed"
        );
        let back = SatisfactionRegistry::from_value(&reg.to_value()).expect("round trip");
        assert_eq!(trackers(&back), trackers(&reg));
        assert!(back.touched.0.is_none(), "nor are deserialized registries");
    }

    #[test]
    fn syncing_the_touched_trackers_equals_a_full_clone() {
        let mut reg = SatisfactionRegistry::new(3);
        for p in 0..6 {
            reg.register_provider(pid(p));
        }
        reg.register_consumer(cid(1));
        let mut copy = reg.clone();
        reg.track_touched();

        // Every mutator: mediations (which also register an unknown consumer
        // and provider), removals, a handoff out and one in, a re-register.
        for q in 0..5u64 {
            reg.record_mediation(
                QueryId::new(q),
                cid(1 + q % 2),
                1,
                &[(pid(q % 3), Intention::new(0.5))],
                &[
                    (pid(q % 3), Intention::new(0.25), true),
                    (pid(7), Intention::new(-0.5), false),
                ],
            );
        }
        reg.remove_provider(pid(4));
        reg.remove_consumer(cid(1));
        let moved = reg.extract_provider(pid(0)).expect("registered");
        reg.adopt_provider(pid(9), moved);
        reg.remove_provider(pid(5));
        reg.register_provider(pid(5));
        reg.remove_provider(pid(77)); // never existed on either side

        // Distinct ids: consumers {1, 2}, providers {0, 1, 2, 4, 5, 7, 9, 77}.
        assert_eq!(reg.sync_touched_into(&mut copy), Some(10));
        assert_eq!(trackers(&copy), trackers(&reg));
        assert!(copy.provider(pid(4)).is_none() && copy.consumer(cid(1)).is_none());

        // The touched set restarted empty; the next sync carries only what
        // happened since.
        assert_eq!(reg.sync_touched_into(&mut copy), Some(0));
        reg.record_mediation(
            QueryId::new(9),
            cid(2),
            1,
            &[],
            &[(pid(1), Intention::new(1.0), false)],
        );
        assert_eq!(reg.sync_touched_into(&mut copy), Some(2));
        assert_eq!(trackers(&copy), trackers(&reg));
    }

    #[test]
    fn an_unsynced_touched_buffer_stays_bounded_by_the_participants() {
        let mut reg = SatisfactionRegistry::new(2);
        reg.track_touched();
        for q in 0..10_000u64 {
            reg.record_mediation(
                QueryId::new(q),
                cid(q % 4),
                1,
                &[],
                &[(pid(q % 16), Intention::new(0.0), false)],
            );
        }
        let touched = reg.touched.0.as_ref().expect("armed");
        assert!(touched.consumers.capacity() <= 16, "4 distinct consumers");
        assert!(touched.providers.capacity() <= 64, "16 distinct providers");
        let mut copy = SatisfactionRegistry::new(2);
        assert_eq!(reg.sync_touched_into(&mut copy), Some(20));
        assert_eq!(trackers(&copy), trackers(&reg));
    }
}
