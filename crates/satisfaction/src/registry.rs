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
//! brings the copy up to date by copying what changed of exactly those
//! participants — O(touched) instead of a clone of every participant:
//!
//! * a touched consumer's tracker is advanced by the queries it recorded
//!   since the last sync, counted from the windows' `total_recorded`, each
//!   written into the buffers of the query it evicts; a tracker a whole
//!   window behind, or whose history does not line up, is copied whole;
//! * a touched provider's row header and the live part of its window block
//!   are copied over, sixteen rows at a time, each group's rows on both
//!   sides found before any is written;
//! * a provider gone from this registry is removed from the copy.
//!
//! When the touched ids are as many as the participants, the copy becomes
//! a clone instead, written with `clone_from` into the memory the copy
//! already owns. Ids, not rows, are noted: rows move under compaction. The
//! hook is `None` by default (one null check per mutating call) and never
//! inherited by clones.

use sbqa_types::{ConsumerId, IdDirectory, Intention, ProviderId, QueryId, Satisfaction};

use crate::consumer::ConsumerSatisfaction;
use crate::provider::{ProviderInteraction, ProviderSatisfaction};
use crate::rows::{ProviderRows, ProviderView};

/// Where a participant's row was found ([`SatisfactionRegistry::provider_row`],
/// [`SatisfactionRegistry::consumer_row`]): a hint that a later read or write
/// of the same participant confirms against the row's id — on the line it
/// reads anyway — before using it, and otherwise re-finds through the
/// directory. So a hint is never wrong, only slow when stale. Rows are only
/// appended between removals, so a batch can resolve its rows ahead of
/// scoring and read them by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowHint(u32);

impl RowHint {
    /// No row: the participant is found through the directory.
    pub const NONE: Self = Self(u32::MAX);

    pub(crate) fn of(row: Option<usize>) -> Self {
        row.map_or(Self::NONE, |row| Self(row as u32))
    }

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

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

/// The consumers' rows: a column of ids beside a column of trackers.
#[derive(Debug, Default)]
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

    /// The row of `id`: `hint` if that row is still the consumer's, else
    /// the directory's answer.
    fn find_hinted(&self, id: ConsumerId, hint: RowHint) -> Option<usize> {
        match self.ids.get(hint.index()) {
            Some(&at) if at == id => Some(hint.index()),
            _ => self.find(id),
        }
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

    /// The consumer's tracker (its row tried at `hint` first), registered
    /// with a window of `window` first if it is unknown.
    fn tracker_mut(
        &mut self,
        id: ConsumerId,
        hint: RowHint,
        window: usize,
    ) -> &mut ConsumerSatisfaction {
        let at = match self.find_hinted(id, hint) {
            Some(at) => at,
            None => self.push(id, ConsumerSatisfaction::new(window)),
        };
        &mut self.trackers[at]
    }

    /// Makes this side's tracker of `id` equal to `source`'s: advanced by
    /// the queries recorded since ([`ConsumerSatisfaction::catch_up`],
    /// reusing its buffers) or appended. A consumer is never removed, so a
    /// touched id is always live in `source`.
    fn sync_from(&mut self, source: &ConsumerRows, id: ConsumerId) {
        let Some(live) = source.find(id) else {
            return;
        };
        match self.find(id) {
            Some(stale) => self.trackers[stale].catch_up(&source.trackers[live]),
            None => {
                self.push(id, source.trackers[live].clone());
            }
        }
    }
}

/// By hand for `clone_from`, which writes every column into the buffers
/// this side already owns, each tracker into a tracker's.
impl Clone for ConsumerRows {
    fn clone(&self) -> Self {
        Self {
            ids: self.ids.clone(),
            trackers: self.trackers.clone(),
            directory: self.directory.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.ids.clone_from(&source.ids);
        self.trackers.clone_from(&source.trackers);
        self.directory.clone_from(&source.directory);
    }
}

/// Mediator-side record of every participant's satisfaction state.
#[derive(Debug)]
pub struct SatisfactionRegistry {
    window: usize,
    consumers: ConsumerRows,
    providers: ProviderRows,
    /// The tracking hook; `None` until armed, and never inherited by a
    /// clone.
    touched: Option<Touched>,
}

/// A clone is a state fork with no copy to keep in step, so it comes back
/// with tracking off. `clone_from` makes `self` that same clone inside the
/// buffers `self` already owns — its windows, rows, directories and pool
/// chunks — overwriting every one and reading none, so a replication
/// standby re-armed into a dead primary's registry touches no fresh memory.
impl Clone for SatisfactionRegistry {
    fn clone(&self) -> Self {
        Self {
            window: self.window,
            consumers: self.consumers.clone(),
            providers: self.providers.clone(),
            touched: None,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.window = source.window;
        self.consumers.clone_from(&source.consumers);
        self.providers.clone_from(&source.providers);
        self.touched = None;
    }
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
            touched: None,
        }
    }

    /// Arms touched-id tracking (see the module documentation), starting
    /// from an empty touched set: the copy to keep in step must equal this
    /// registry now.
    pub fn track_touched(&mut self) {
        self.touched = Some(Touched::default());
    }

    /// Brings `copy` — equal to this registry when tracking was armed or
    /// last synced — up to date: every consumer tracker touched since is
    /// advanced by the queries recorded since (or copied whole, see the
    /// module documentation), every touched provider row has its header and
    /// the live part of its window block copied over (the copy taking a
    /// block of the source's class from its own pool when its row held
    /// another), every participant removed since is removed from it, and
    /// the touched set restarts empty. Ids are visited in ascending order,
    /// each once. When the distinct touched ids are at least as many as
    /// this registry's participants (the first sync after a bulk load),
    /// `copy` becomes a clone of this registry instead — untracked, as every
    /// clone is — written into its own memory with `clone_from`, and its
    /// row order is then this registry's. Returns the number of distinct
    /// ids touched, or `None`, leaving `copy` as it was, when tracking is
    /// not armed.
    pub fn sync_touched_into(&mut self, copy: &mut SatisfactionRegistry) -> Option<usize> {
        let touched = self.touched.as_mut()?;
        touched.consumers.sort_unstable();
        touched.consumers.dedup();
        touched.providers.sort_unstable();
        touched.providers.dedup();
        let visited = touched.consumers.len() + touched.providers.len();
        if visited >= self.consumers.ids.len() + self.providers.len() {
            touched.consumers.clear();
            touched.providers.clear();
            copy.clone_from(self);
        } else {
            for id in touched.consumers.drain(..) {
                copy.consumers.sync_from(&self.consumers, id);
            }
            copy.providers
                .sync_from(&self.providers, &touched.providers);
            touched.providers.clear();
        }
        Some(visited)
    }

    fn touch_consumer(&mut self, consumer: ConsumerId) {
        if let Some(touched) = &mut self.touched {
            note(&mut touched.consumers, consumer);
        }
    }

    fn touch_provider(&mut self, provider: ProviderId) {
        if let Some(touched) = &mut self.touched {
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
        self.consumer_satisfaction_at(consumer, RowHint::NONE)
    }

    /// [`consumer_satisfaction`](Self::consumer_satisfaction), its row tried
    /// at `hint` first.
    #[must_use]
    pub fn consumer_satisfaction_at(&self, consumer: ConsumerId, hint: RowHint) -> Satisfaction {
        self.consumers
            .find_hinted(consumer, hint)
            .map_or(Satisfaction::MAX, |at| {
                self.consumers.trackers[at].satisfaction()
            })
    }

    /// Current satisfaction of a provider; unknown providers count as fully
    /// satisfied newcomers. Reads the provider's row only — the maintained
    /// sum — never its window.
    #[must_use]
    pub fn provider_satisfaction(&self, provider: ProviderId) -> Satisfaction {
        self.provider_satisfaction_at(provider, RowHint::NONE)
    }

    /// [`provider_satisfaction`](Self::provider_satisfaction), its row tried
    /// at `hint` first.
    #[must_use]
    pub fn provider_satisfaction_at(&self, provider: ProviderId, hint: RowHint) -> Satisfaction {
        self.providers
            .satisfaction(provider, hint)
            .unwrap_or(Satisfaction::MAX)
    }

    /// Where the consumer's row is now ([`RowHint::NONE`] if unknown).
    #[must_use]
    pub fn consumer_row(&self, consumer: ConsumerId) -> RowHint {
        RowHint::of(self.consumers.find(consumer))
    }

    /// Where the provider's row is now ([`RowHint::NONE`] if unknown). The
    /// lookup reads the row, so a batch that resolves the rows of many
    /// queries in one pass has all their lines on the way at once.
    #[must_use]
    pub fn provider_row(&self, provider: ProviderId) -> RowHint {
        self.providers.hint(provider)
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
        let consumer = (consumer, RowHint::NONE);
        self.record_mediation_at(
            query,
            consumer,
            required_results,
            performed_by,
            proposals,
            &[],
        );
    }

    /// [`record_mediation`](Self::record_mediation) with the rows resolved
    /// ahead: the consumer's row is tried at its hint, and each proposal's
    /// at the hint of the same position in `provider_rows` (a proposal past
    /// its end has none).
    pub fn record_mediation_at(
        &mut self,
        query: QueryId,
        (consumer, consumer_row): (ConsumerId, RowHint),
        required_results: usize,
        performed_by: &[(ProviderId, Intention)],
        proposals: &[(ProviderId, Intention, bool)],
        provider_rows: &[RowHint],
    ) {
        if let Some(touched) = &mut self.touched {
            note(&mut touched.consumers, consumer);
            for (provider, ..) in proposals {
                note(&mut touched.providers, *provider);
            }
        }
        // One probe per participant whose hint is stale or missing; an
        // unknown one is registered here.
        self.consumers
            .tracker_mut(consumer, consumer_row, self.window)
            .record_outcome(query, required_results, performed_by);
        for (at, &(provider, intention, performed)) in proposals.iter().enumerate() {
            self.providers.record(
                provider,
                provider_rows.get(at).copied().unwrap_or(RowHint::NONE),
                self.window,
                ProviderInteraction::new(intention, performed),
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

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
    fn a_stale_row_hint_falls_back_to_the_directory() {
        let build = || {
            let mut reg = SatisfactionRegistry::new(4);
            for p in 1..=4 {
                reg.register_provider(pid(p));
            }
            reg.register_consumer(cid(1));
            reg
        };
        let mut hinted = build();
        let mut plain = build();
        let (two, four) = (hinted.provider_row(pid(2)), hinted.provider_row(pid(4)));
        let consumer = hinted.consumer_row(cid(1));
        assert_eq!(hinted.provider_row(pid(9)), RowHint::NONE);
        // Provider 4's row moves into provider 2's place: the hint for 2
        // now names another provider's row, the hint for 4 no row at all.
        for reg in [&mut hinted, &mut plain] {
            reg.remove_provider(pid(2));
        }
        assert_eq!(
            hinted.provider_satisfaction_at(pid(2), two),
            Satisfaction::MAX,
            "2 is gone, whatever its hint names"
        );
        let proposals = [
            (pid(4), Intention::new(-1.0), false),
            (pid(2), Intention::new(0.5), true),
        ];
        hinted.record_mediation_at(
            QueryId::new(1),
            (cid(1), consumer),
            1,
            &[(pid(2), Intention::new(0.5))],
            &proposals,
            &[four, two],
        );
        plain.record_mediation(
            QueryId::new(1),
            cid(1),
            1,
            &[(pid(2), Intention::new(0.5))],
            &proposals,
        );
        assert_eq!(trackers(&hinted), trackers(&plain));
        assert_eq!(
            hinted.provider_satisfaction_at(pid(4), four),
            Satisfaction::MIN
        );
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
            .satisfactions()
            .map(|(id, _)| (id, reg.providers.view(id).map(|view| view.to_tracker())))
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
        assert!(copy.touched.is_some(), "never copied whole");

        // Many syncs, each after one to four queries per consumer, so the
        // windows (k = 3) wrap between syncs and a touched consumer is one,
        // two or a whole window of queries behind; consumers join between
        // syncs, and one sync touches every participant and is whole.
        let mut whole = 0;
        for round in 0..40u64 {
            if round % 9 == 4 {
                reg.register_consumer(cid(10 + round));
            }
            let everyone = round == 23;
            let consumers: Vec<ConsumerId> = reg.consumers.ids.clone();
            for (at, &consumer) in consumers.iter().enumerate() {
                let queries = if everyone { 1 } else { (round + at as u64) % 5 };
                for q in 0..queries {
                    let provider = pid([1, 2, 3, 9][(round + q) as usize % 4]);
                    reg.record_mediation(
                        QueryId::new(1000 * round + 10 * at as u64 + q),
                        consumer,
                        1 + q as usize % 2,
                        &[(provider, Intention::new(0.25 * q as f64))],
                        &[(provider, Intention::new(-0.5), q % 2 == 0)],
                    );
                }
            }
            if everyone {
                let providers: Vec<ProviderId> =
                    reg.provider_satisfactions().map(|(id, _)| id).collect();
                for provider in providers {
                    reg.record_mediation(
                        QueryId::new(1000 * round + 999),
                        cid(1),
                        1,
                        &[],
                        &[(provider, Intention::new(0.75), false)],
                    );
                }
            }
            copy.track_touched();
            reg.sync_touched_into(&mut copy).expect("armed");
            whole += usize::from(copy.touched.is_none());
            assert_eq!(trackers(&copy), trackers(&reg), "round {round}");
            assert_eq!(trackers(&copy), trackers(&reg.clone()), "round {round}");
        }
        assert_eq!(whole, 1, "one whole-copy sync among the incremental ones");
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
        assert!(bulk_copy.touched.is_none(), "a whole copy is untracked");
        assert!(steady_copy.touched.is_some(), "synced id by id throughout");
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
        let touched = reg.touched.as_ref().expect("armed");
        assert!(touched.consumers.capacity() <= 16, "4 distinct consumers");
        assert!(touched.providers.capacity() <= 64, "16 distinct providers");
        let mut copy = SatisfactionRegistry::new(2);
        assert_eq!(reg.sync_touched_into(&mut copy), Some(20));
        assert_eq!(trackers(&copy), trackers(&reg));
    }
}
