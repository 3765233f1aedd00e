//! The mediator-side satisfaction registry.
//!
//! To compute ω (Equation 2) the mediator needs to know, at mediation time,
//! the current satisfaction of the issuing consumer and of every candidate
//! provider. [`SatisfactionRegistry`] is that bookkeeping: it owns one
//! [`ConsumerSatisfaction`] per registered consumer and the state of one
//! [`ProviderSatisfaction`] per registered provider, and is updated after
//! every mediation with the information the paper says the mediator sends out
//! ("the mediation result to the consumer and all providers in set Kn").
//!
//! ## Layout
//!
//! Both sides are dense rows behind an [`IdDirectory`]: an id resolves to a
//! row by one keyless probe, and nothing in the registry is hashed. The
//! consumers — few, each with a window of provider lists — are a column of
//! ids beside a column of [`ConsumerSatisfaction`] trackers. The providers —
//! the large side, read `kn` times and written `kn` times per mediation —
//! are one-cache-line rows over a shared pool of windows (the `rows`
//! module), read through [`ProviderView`]. Iteration is in row order:
//! registration order, except that a removal moves the last row into the
//! freed place. That order is a pure function of the calls made, so it
//! repeats from run to run, but it is not id order and a synced copy's may
//! differ from its source's — aggregate over sorted ids, as
//! [`SatisfactionSnapshot::capture`](crate::SatisfactionSnapshot::capture)
//! does.
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
//! brings the copy up to date by copying exactly those rows — O(touched)
//! instead of a clone of every participant, unless the touched ids are as
//! many as the participants, when one clone is the cheaper copy. Ids, not
//! rows, are noted: rows move under compaction. Like the provider
//! registry's delta sink the hook is `None` by default (one null check per
//! mutating call) and never inherited by clones.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

use sbqa_types::{ConsumerId, IdDirectory, Intention, ProviderId, QueryId, Satisfaction};

use crate::consumer::ConsumerSatisfaction;
use crate::provider::{ProviderInteraction, ProviderSatisfaction};
use crate::rows::{ProviderRows, ProviderView};

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

/// The consumers' rows: a column of ids beside a column of trackers.
#[derive(Debug, Clone, Default)]
struct ConsumerRows {
    ids: Vec<ConsumerId>,
    trackers: Vec<ConsumerSatisfaction>,
    directory: IdDirectory,
}

impl ConsumerRows {
    fn find(&self, id: ConsumerId) -> Option<usize> {
        let ids = &self.ids;
        self.directory
            .find(id.raw(), |row| ids[row as usize].raw())
            .map(|row| row as usize)
    }

    /// Appends a consumer (its id must be absent) and returns its row.
    fn push(&mut self, id: ConsumerId, tracker: ConsumerSatisfaction) -> usize {
        let at = self.ids.len();
        assert!(at < u32::MAX as usize, "consumer rows fit in u32");
        self.ids.push(id);
        self.trackers.push(tracker);
        let ids = &self.ids;
        self.directory
            .insert(id.raw(), at as u32, |row| ids[row as usize].raw());
        at
    }

    /// The consumer's tracker, registered with a window of `window` first
    /// if it is unknown.
    fn tracker_mut(&mut self, id: ConsumerId, window: usize) -> &mut ConsumerSatisfaction {
        let at = match self.find(id) {
            Some(at) => at,
            None => self.push(id, ConsumerSatisfaction::new(window)),
        };
        &mut self.trackers[at]
    }

    /// Makes this side's tracker of `id` equal to `source`'s: copied over
    /// in place (reusing its buffers) or appended. A consumer is never
    /// removed, so a touched id is always live in `source`.
    fn sync_from(&mut self, source: &ConsumerRows, id: ConsumerId) {
        let Some(live) = source.find(id) else {
            return;
        };
        match self.find(id) {
            Some(stale) => self.trackers[stale].clone_from(&source.trackers[live]),
            None => {
                self.push(id, source.trackers[live].clone());
            }
        }
    }
}

/// Mediator-side record of every participant's satisfaction state.
#[derive(Debug, Clone)]
pub struct SatisfactionRegistry {
    window: usize,
    consumers: ConsumerRows,
    providers: ProviderRows,
    touched: TouchedHook,
}

impl SatisfactionRegistry {
    /// Creates a registry whose participants remember their last `k`
    /// interactions.
    #[must_use]
    pub fn new(satisfaction_window: usize) -> Self {
        Self {
            window: satisfaction_window.max(1),
            consumers: ConsumerRows::default(),
            providers: ProviderRows::default(),
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
    /// last synced — up to date: every consumer tracker touched since is
    /// copied into it with `clone_from` (reusing the copy's buffers), every
    /// touched provider row has its header and the live part of its window
    /// block copied over (the copy taking a block of the source's class
    /// from its own pool when its row held another), every participant
    /// removed since is removed from it, and the touched set restarts
    /// empty. Ids are visited in ascending order, each once. When the
    /// distinct touched ids are at least as many as this registry's
    /// participants (the first sync after a bulk load), `copy` becomes a
    /// clone of this registry instead — untracked, as every clone is — and
    /// its row order is then this registry's. Returns the number of
    /// distinct ids touched, or `None`, leaving `copy` as it was, when
    /// tracking is not armed.
    pub fn sync_touched_into(&mut self, copy: &mut SatisfactionRegistry) -> Option<usize> {
        let touched = self.touched.0.as_mut()?;
        touched.consumers.sort_unstable();
        touched.consumers.dedup();
        touched.providers.sort_unstable();
        touched.providers.dedup();
        let visited = touched.consumers.len() + touched.providers.len();
        if visited >= self.consumers.ids.len() + self.providers.len() {
            touched.consumers.clear();
            touched.providers.clear();
            *copy = self.clone();
        } else {
            for id in touched.consumers.drain(..) {
                copy.consumers.sync_from(&self.consumers, id);
            }
            for id in touched.providers.drain(..) {
                copy.providers.sync_from(&self.providers, id);
            }
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
        if self.consumers.find(consumer).is_some() {
            return false;
        }
        self.consumers
            .push(consumer, ConsumerSatisfaction::new(self.window));
        self.touch_consumer(consumer);
        true
    }

    /// Registers a provider if it is not yet known. Returns `true` if it was
    /// newly registered.
    pub fn register_provider(&mut self, provider: ProviderId) -> bool {
        let registered = self.providers.register(provider, self.window);
        if registered {
            self.touch_provider(provider);
        }
        registered
    }

    /// Removes a provider (it left the system); its window's block goes
    /// back to the registry's pool. Returns `true` if it existed.
    pub fn remove_provider(&mut self, provider: ProviderId) -> bool {
        self.touch_provider(provider);
        self.providers.remove(provider)
    }

    /// Takes a provider's state out of the registry as a tracker, history
    /// intact, so a shard handoff can move the provider's satisfaction state
    /// to another registry instead of resetting it. The counterpart of
    /// [`SatisfactionRegistry::adopt_provider`].
    pub fn extract_provider(&mut self, provider: ProviderId) -> Option<ProviderSatisfaction> {
        self.touch_provider(provider);
        self.providers.extract(provider)
    }

    /// Installs a provider tracker extracted from another registry
    /// (replacing any existing state for that id). The tracker keeps its
    /// own window length: a provider mid-handoff must not have its
    /// interaction history rescaled by the destination's configuration.
    pub fn adopt_provider(&mut self, provider: ProviderId, tracker: ProviderSatisfaction) {
        self.touch_provider(provider);
        self.providers.install(provider, tracker);
    }

    /// Number of registered consumers.
    #[must_use]
    pub fn consumer_count(&self) -> usize {
        self.consumers.ids.len()
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
        self.consumer(consumer)
            .map_or(Satisfaction::MAX, ConsumerSatisfaction::satisfaction)
    }

    /// Current satisfaction of a provider; unknown providers count as fully
    /// satisfied newcomers. Reads the provider's row only — the maintained
    /// sum — never its window.
    #[must_use]
    pub fn provider_satisfaction(&self, provider: ProviderId) -> Satisfaction {
        self.providers
            .satisfaction(provider)
            .unwrap_or(Satisfaction::MAX)
    }

    /// Immutable access to a consumer's tracker.
    #[must_use]
    pub fn consumer(&self, consumer: ConsumerId) -> Option<&ConsumerSatisfaction> {
        self.consumers
            .find(consumer)
            .map(|at| &self.consumers.trackers[at])
    }

    /// A view of a provider's state: the accessors of
    /// [`ProviderSatisfaction`] over the registry's own storage, nothing
    /// copied ([`ProviderView::to_tracker`] materialises the owned tracker).
    #[must_use]
    pub fn provider(&self, provider: ProviderId) -> Option<ProviderView<'_>> {
        self.providers.view(provider)
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
        self.consumers
            .tracker_mut(consumer, self.window)
            .record_outcome(query, required_results, performed_by);
        for &(provider, intention, performed) in proposals {
            self.providers.record(
                provider,
                self.window,
                ProviderInteraction::new(query, intention, performed),
            );
        }
    }

    /// Iterates over `(id, satisfaction)` for every registered consumer, in
    /// row order (see the module documentation).
    pub fn consumer_satisfactions(&self) -> impl Iterator<Item = (ConsumerId, Satisfaction)> + '_ {
        self.consumers
            .ids
            .iter()
            .zip(&self.consumers.trackers)
            .map(|(id, tracker)| (*id, tracker.satisfaction()))
    }

    /// Iterates over `(id, satisfaction)` for every registered provider, in
    /// row order (see the module documentation).
    pub fn provider_satisfactions(&self) -> impl Iterator<Item = (ProviderId, Satisfaction)> + '_ {
        self.providers.satisfactions()
    }

    /// The balancing parameter ω of Equation 2 for a given consumer/provider
    /// pair, read from the registry's current state.
    #[must_use]
    pub fn omega(&self, consumer: ConsumerId, provider: ProviderId) -> f64 {
        self.consumer_satisfaction(consumer)
            .omega_against(self.provider_satisfaction(provider))
    }
}

// The wire form is older than the row layout and independent of it: a map
// of `window`, `consumers` (id → tracker), `providers` (id → tracker) and
// `touched` (always `None`), both participant maps in ascending id order.
// The directories and the pool are derived data.
impl Serialize for SatisfactionRegistry {
    fn to_value(&self) -> Value {
        let consumers: BTreeMap<ConsumerId, &ConsumerSatisfaction> = self
            .consumers
            .ids
            .iter()
            .copied()
            .zip(&self.consumers.trackers)
            .collect();
        let providers: BTreeMap<ProviderId, ProviderSatisfaction> = self
            .providers
            .views()
            .map(|(id, view)| (id, view.to_tracker()))
            .collect();
        let field = |name: &str, value| (Value::String(name.to_owned()), value);
        Value::Map(vec![
            field("window", self.window.to_value()),
            field("consumers", consumers.to_value()),
            field("providers", providers.to_value()),
            field("touched", Value::Option(None)),
        ])
    }
}

/// Reads participants in whatever order the payload lists them (a repeated
/// id keeps its last tracker) and installs them in ascending id order.
impl Deserialize for SatisfactionRegistry {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map"))?;
        let mut registry = Self::new(usize::from_value(serde::__find(entries, "window")?)?);
        let consumers = BTreeMap::<ConsumerId, ConsumerSatisfaction>::from_value(serde::__find(
            entries,
            "consumers",
        )?)?;
        for (id, tracker) in consumers {
            registry.consumers.push(id, tracker);
        }
        let providers = BTreeMap::<ProviderId, ProviderSatisfaction>::from_value(serde::__find(
            entries,
            "providers",
        )?)?;
        for (id, tracker) in providers {
            registry.providers.install(id, tracker);
        }
        Ok(registry)
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
        assert!(reg.remove_provider(pid(1)));
        assert!(!reg.remove_provider(pid(1)));
        assert_eq!(reg.consumer_count(), 1);
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
        let consumers: BTreeMap<_, _> = reg
            .consumers
            .ids
            .iter()
            .zip(&reg.consumers.trackers)
            .collect();
        let providers: BTreeMap<_, _> = reg
            .providers
            .views()
            .map(|(id, view)| (id, view.to_tracker()))
            .collect();
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

    /// A payload written before the row layout — participant maps in no
    /// particular order (here descending), `touched` present — loads; an
    /// over-full window keeps its newest `capacity` proposals, as a
    /// standalone tracker does. What goes back out is in ascending id order.
    #[test]
    fn a_payload_older_than_the_row_layout_loads_and_output_is_id_ordered() {
        let payload = concat!(
            r#"{"window":2,"#,
            r#""consumers":{"2":{"window":{"capacity":2,"items":[{"query":1,"required_results":1,"#,
            r#""performed_by":[[9,0.5]]}],"total_recorded":1}},"#,
            r#""1":{"window":{"capacity":2,"items":[],"total_recorded":0}}},"#,
            r#""providers":{"9":{"window":{"capacity":2,"items":["#,
            r#"{"query":1,"intention":0.25,"performed":true},"#,
            r#"{"query":2,"intention":1.0,"performed":true},"#,
            r#"{"query":3,"intention":-1.0,"performed":true}],"total_recorded":3}},"#,
            r#""4":{"window":{"capacity":5,"items":["#,
            r#"{"query":1,"intention":-0.5,"performed":false}],"total_recorded":1}}},"#,
            r#""touched":null}"#
        );
        let reg: SatisfactionRegistry = serde::from_str(payload).expect("today's form loads");
        assert_eq!(reg.window(), 2);
        assert_eq!((reg.consumer_count(), reg.provider_count()), (2, 2));
        assert!((reg.consumer_satisfaction(cid(2)).value() - 0.75).abs() < 1e-12);
        let over_full = reg.provider(pid(9)).expect("loaded");
        let kept: Vec<u64> = over_full.interactions().map(|i| i.query.raw()).collect();
        assert_eq!(kept, vec![2, 3], "the newest two of three");
        // (1 + 0) / 2 over the kept proposals.
        assert!((over_full.satisfaction().value() - 0.5).abs() < 1e-12);
        assert_eq!(reg.provider(pid(4)).expect("loaded").window_size(), 5);
        assert_eq!(reg.provider_satisfaction(pid(4)), Satisfaction::MIN);
        assert!(reg.touched.0.is_none());

        let Value::Map(fields) = reg.to_value() else {
            panic!("a registry serializes as a map");
        };
        let names: Vec<&str> = fields
            .iter()
            .filter_map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(names, ["window", "consumers", "providers", "touched"]);
        for (field, expected) in [(1, [1u64, 2]), (2, [4, 9])] {
            let ids: Vec<Value> = fields[field]
                .1
                .as_map()
                .expect("participants serialize as a map")
                .iter()
                .map(|(id, _)| id.clone())
                .collect();
            assert_eq!(ids, expected.map(Value::U64), "ascending ids");
        }
        assert_eq!(fields[3].1, Value::Option(None));
        let back = SatisfactionRegistry::from_value(&reg.to_value()).expect("round trip");
        assert_eq!(trackers(&back), trackers(&reg));
    }

    #[test]
    fn syncing_the_touched_trackers_equals_a_full_clone() {
        let mut reg = SatisfactionRegistry::new(3);
        // Ten idle providers keep the touched ids fewer than the
        // participants, so every sync below goes id by id.
        for p in (0..6).chain(20..30) {
            reg.register_provider(pid(p));
        }
        reg.register_consumer(cid(1));
        let mut copy = reg.clone();
        reg.track_touched();
        // Armed only to tell the branches apart: an id-by-id sync leaves the
        // copy's own hook as it was.
        copy.track_touched();

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
        let moved = reg.extract_provider(pid(0)).expect("registered");
        reg.adopt_provider(pid(9), moved);
        reg.remove_provider(pid(5));
        reg.register_provider(pid(5));
        reg.remove_provider(pid(77)); // never existed on either side

        // Distinct ids: consumers {1, 2}, providers {0, 1, 2, 4, 5, 7, 9, 77}.
        assert_eq!(reg.sync_touched_into(&mut copy), Some(10));
        assert_eq!(trackers(&copy), trackers(&reg));
        assert!(copy.provider(pid(4)).is_none());

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
        assert!(copy.touched.0.is_some(), "never copied whole");
    }

    /// One step of the history both sync branches are held to. A consumer
    /// registration reaches the copy directly as well, the way the
    /// replication standby mirrors one.
    fn churn_step(reg: &mut SatisfactionRegistry, copy: &mut SatisfactionRegistry, step: u64) {
        match step {
            3 => {
                reg.register_consumer(cid(3));
                copy.register_consumer(cid(3));
            }
            5 => {
                reg.remove_provider(pid(2));
            }
            _ => {
                let provider = pid([0, 1, 3, 4, 5][step as usize % 5]);
                let other = pid([0, 1, 3, 4, 5][(step as usize + 1) % 5]);
                let consumer = if step < 3 { cid(2) } else { cid(2 + step % 2) };
                reg.record_mediation(
                    QueryId::new(step),
                    consumer,
                    1,
                    &[(provider, Intention::new(0.5))],
                    &[
                        (provider, Intention::new(0.25), true),
                        (other, Intention::new(-0.5), false),
                    ],
                );
            }
        }
    }

    #[test]
    fn a_whole_copy_sync_equals_the_id_by_id_sync() {
        // Two primaries with one history. `bulk` syncs once at the end, when
        // it has touched every participant, so its copy is replaced by a
        // clone; `steady` syncs after every step, each touching fewer ids
        // than it has participants, so its copy is synced id by id.
        let seeded = || {
            let mut reg = SatisfactionRegistry::new(3);
            for p in 0..6 {
                reg.register_provider(pid(p));
            }
            reg.register_consumer(cid(1));
            reg.register_consumer(cid(2));
            let mut copy = reg.clone();
            reg.track_touched();
            // Armed only to tell the branches apart (see below).
            copy.track_touched();
            (reg, copy)
        };
        let (mut bulk, mut bulk_copy) = seeded();
        let (mut steady, mut steady_copy) = seeded();
        for step in 0..12 {
            churn_step(&mut bulk, &mut bulk_copy, step);
            churn_step(&mut steady, &mut steady_copy, step);
            assert!(steady.sync_touched_into(&mut steady_copy).is_some());
        }
        // Distinct ids: consumers {2, 3}, providers {0, 1, 2, 3, 4, 5},
        // against 3 + 5 participants left.
        assert_eq!(bulk.sync_touched_into(&mut bulk_copy), Some(8));

        assert_eq!(trackers(&bulk), trackers(&steady));
        for copy in [&bulk_copy, &steady_copy] {
            assert_eq!(trackers(copy), trackers(&bulk));
            assert!(copy.provider(pid(2)).is_none());
            assert!(copy.consumer(cid(3)).is_some());
        }
        assert!(bulk_copy.touched.0.is_none(), "a whole copy is untracked");
        assert!(
            steady_copy.touched.0.is_some(),
            "synced id by id throughout"
        );
        // A whole copy also takes the source's row order.
        let rows = |reg: &SatisfactionRegistry| -> Vec<ProviderId> {
            reg.provider_satisfactions().map(|(id, _)| id).collect()
        };
        assert_eq!(rows(&bulk_copy), rows(&bulk));
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
