//! The allocation abstraction shared by SbQA and every baseline.
//!
//! An allocation technique sees three things when a query arrives:
//!
//! * the [`Query`] itself,
//! * a borrowed [`Candidates`] view of every *capable and online* provider
//!   (`Pq`) — identity, capacity, current utilization and queue length
//!   ([`ProviderSnapshot`]), without cloning the population,
//! * an [`IntentionOracle`] it may consult to learn the consumer's intention
//!   towards a provider and a provider's intention towards the query, and
//! * the mediator's [`SatisfactionRegistry`] for techniques (like SbQA)
//!   that balance the two sides by satisfaction.
//!
//! It fills an [`AllocationDecision`]: which providers to allocate the
//! query to, and the full list of proposals made (needed to update provider
//! satisfaction — a provider that was consulted but not selected becomes less
//! satisfied, exactly as in Definition 2).
//!
//! Every technique works in two phases ([`QueryAllocator`]): a select phase
//! that draws or ranks over the view and keeps provider ids, and a score
//! phase that asks the oracle, scores and fills a caller-provided decision,
//! so steady-state mediation reuses buffers instead of allocating. The
//! mediator runs the select phases of a group of queries ahead of their
//! score phases; the provided [`QueryAllocator::allocate_into`] runs both
//! for one query, and [`QueryAllocator::allocate`] returns an owned
//! decision for tests and one-off callers. A technique holds no state the
//! mediator mutates: its select phase returns a static kn-of-k filter, and
//! the mediator decides each query's width from it (the adaptive-`kn`
//! controller's width for the query's class, then the ladder's ShrinkKn
//! clamp).

use std::cell::Cell;
use std::collections::BTreeMap;

use sbqa_satisfaction::{RowHint, SatisfactionRegistry};
use sbqa_types::{Intention, ProviderId, Query, SbqaError, SbqaResult};

pub use sbqa_types::{ProviderColumns, ProviderSnapshot};

use crate::knbest::keep_lightest;
use crate::postings::{IdIter, IdSet, MergedSet, PostingsMap};

/// A borrowed, zero-clone view of the candidate set `Pq`.
///
/// The view covers one of three shapes:
///
/// * a contiguous slice of snapshots ([`Candidates::from_slice`], used by
///   tests and ad-hoc callers),
/// * a capability's postings map wrapped directly
///   ([`Candidates::from_map`], the single-capability path — nothing is
///   materialised at all), or
/// * the merged membership of several postings maps
///   ([`Candidates::from_merged`], the multi-capability path).
///
/// The last two are id sets over a column store: a position selects a
/// provider id in the set, and the id resolves to its row through the
/// store's own directory ([`ProviderColumns::slot_of`]) — the one place a
/// slot is recorded, so a view is indifferent to slab compaction.
///
/// Positions `0..len()` address candidates in a deterministic order — for
/// registry-backed views that order is ascending provider id by
/// construction. [`Candidates::get`] assembles a row by value from the
/// columns; hot paths that rank a few drawn positions should prefer
/// [`Candidates::load_keys`] (utilization + id only, gathered as a batch),
/// those that rank the whole set gather it once into a dense
/// [`CandidateBlock`] and score column-wise.
#[derive(Debug, Clone, Copy)]
pub struct Candidates<'a> {
    view: View<'a>,
}

#[derive(Debug, Clone, Copy)]
enum View<'a> {
    /// Every snapshot of the slice is a candidate.
    Slice(&'a [ProviderSnapshot]),
    /// The members of `set`, each a row of `columns`, in ascending id order.
    Ids {
        columns: &'a ProviderColumns,
        set: IdSet<'a>,
    },
}

/// The row of `columns` holding set member `id`.
fn slot_of(columns: &ProviderColumns, id: ProviderId) -> u32 {
    match columns.slot_of(id) {
        Some(slot) => slot,
        None => unreachable!("candidate {id} has no row in the column store"),
    }
}

impl<'a> Candidates<'a> {
    /// A view over a contiguous slice: every snapshot is a candidate.
    #[must_use]
    pub fn from_slice(providers: &'a [ProviderSnapshot]) -> Self {
        Self {
            view: View::Slice(providers),
        }
    }

    /// A view over a postings map: candidates are the map's members in
    /// ascending id order, with nothing materialised. Every member must be a
    /// row of `columns`. Positional access ([`Candidates::get`],
    /// [`Candidates::load_keys`]) indexes the map's chunk keys; sequential
    /// access ([`Candidates::iter`], [`Candidates::gather_all_into`]) streams
    /// it.
    #[must_use]
    pub fn from_map(columns: &'a ProviderColumns, map: &'a PostingsMap) -> Self {
        Self {
            view: View::Ids {
                columns,
                set: IdSet::Map(map),
            },
        }
    }

    /// A view over a merged membership: candidates are the members of `set`
    /// in ascending id order. Every member must be a row of `columns`.
    #[must_use]
    pub fn from_merged(columns: &'a ProviderColumns, set: &'a MergedSet) -> Self {
        Self {
            view: View::Ids {
                columns,
                set: IdSet::Merged(set),
            },
        }
    }

    /// Number of candidates in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        match self.view {
            View::Slice(providers) => providers.len(),
            View::Ids { set, .. } => set.len(),
        }
    }

    /// `true` if the candidate set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The candidate at position `pos` (`0 <= pos < len()`), assembled by
    /// value from the backing columns.
    ///
    /// # Panics
    /// Panics if `pos` is out of bounds.
    #[must_use]
    pub fn get(&self, pos: usize) -> ProviderSnapshot {
        match self.view {
            View::Slice(providers) => providers[pos],
            View::Ids { columns, set } => {
                columns.snapshot(slot_of(columns, set.select(pos)) as usize)
            }
        }
    }

    /// Gathers the ranking keys of the candidates at `positions` into `keys`
    /// (cleared first), in the order given, touching only what KnBest orders
    /// by: [`Candidates::load_ids`], then the rest of the gather over the
    /// view's columns.
    ///
    /// # Panics
    /// Panics if a position is out of bounds.
    pub fn load_keys(&self, positions: &[u32], keys: &mut Vec<RankKey>) {
        keys.clear();
        self.load_ids(positions, keys);
        self.resolve(keys);
    }

    /// The rest of the gather for keys [`Candidates::load_ids`] left
    /// unresolved over this view ([`resolve_keys`]); a slice view's keys
    /// are whole already.
    fn resolve(&self, keys: &mut [RankKey]) {
        if let View::Ids { columns, .. } = self.view {
            resolve_keys(columns, keys);
        }
    }

    /// Appends the keys of the candidates at `positions` to `keys`, in the
    /// order given. A slice view fills them in whole. Over an id set this is
    /// the first of the gather's three steps — positions → ids, an index
    /// into a chunk's sorted keys (a rank-select only in a dense merged
    /// chunk), the id rebuilt from the chunk key — and the keys leave with
    /// their slot and utilization unresolved, for the gather's other two
    /// steps over the view's columns — which the mediator runs over a whole
    /// group of queries' keys at once. The ids are owned, so the keys
    /// outlive the view.
    ///
    /// # Panics
    /// Panics if a position is out of bounds.
    pub fn load_ids(&self, positions: &[u32], keys: &mut Vec<RankKey>) {
        match self.view {
            View::Slice(providers) => keys.extend(positions.iter().map(|&position| {
                let provider = &providers[position as usize];
                RankKey {
                    utilization: provider.utilization,
                    id: provider.id,
                    position,
                    slot: position,
                }
            })),
            View::Ids { set, .. } => keys.extend(
                positions
                    .iter()
                    .map(|&position| RankKey::unresolved(set.select(position as usize), position)),
            ),
        }
    }

    /// Iterates over the candidates in position order, streaming the backing
    /// store sequentially (no per-item positional lookup, even for map and
    /// merged views).
    pub fn iter(&self) -> impl Iterator<Item = ProviderSnapshot> + 'a {
        match self.view {
            View::Slice(providers) => CandidateIter::Slice(providers.iter()),
            View::Ids { columns, set } => CandidateIter::Ids {
                columns,
                ids: set.iter(),
            },
        }
    }

    /// Gathers every candidate's scoring fields into `block` (cleared
    /// first), one sequential pass over the backing store. Techniques that
    /// rank the whole set sort the block's dense columns instead of paying a
    /// positional lookup per comparison.
    pub fn gather_all_into(&self, block: &mut CandidateBlock) {
        block.clear();
        match self.view {
            View::Slice(providers) => {
                for p in providers {
                    block.push(p.id, p.utilization, p.capacity, p.queue_length);
                }
            }
            View::Ids { columns, set } => {
                for id in set.iter() {
                    block.push_slot(columns, slot_of(columns, id) as usize);
                }
            }
        }
    }
}

/// The ranking key of one candidate, as [`Candidates::load_keys`] gathers it:
/// KnBest orders by `(utilization, id)`.
#[derive(Debug, Clone, Copy)]
pub struct RankKey {
    /// The candidate's current utilization.
    pub utilization: f64,
    /// The candidate's id.
    pub id: ProviderId,
    /// The candidate's position in the view.
    pub position: u32,
    /// The candidate's slot in the backing columns (the position itself for
    /// a slice view), carried from the gather's second step to its third.
    slot: u32,
}

impl RankKey {
    /// The key of candidate `id` at `position`, its row not looked up yet.
    pub(crate) fn unresolved(id: ProviderId, position: u32) -> Self {
        Self {
            utilization: 0.0,
            id,
            position,
            slot: 0,
        }
    }
}

/// The last two steps of the key gather, for keys that
/// [`Candidates::load_ids`] left unresolved over id-set views of `columns`
/// — any number of draws' keys at once: ids → slots (a probe of the column
/// store's directory each), then slots → utilization. The cache misses of
/// one step do not depend on one another, so they overlap instead of
/// queueing behind each key's lookup, and the more keys a call takes, the
/// more of them are in flight; fusing the probe into the first step gives
/// that up.
pub(crate) fn resolve_keys(columns: &ProviderColumns, keys: &mut [RankKey]) {
    for key in keys.iter_mut() {
        key.slot = slot_of(columns, key.id);
    }
    for key in keys.iter_mut() {
        key.utilization = columns.utilization()[key.slot as usize];
    }
}

/// Iterator over a [`Candidates`] view, yielding snapshots by value.
enum CandidateIter<'a> {
    Slice(std::slice::Iter<'a, ProviderSnapshot>),
    Ids {
        columns: &'a ProviderColumns,
        ids: IdIter<'a>,
    },
}

impl Iterator for CandidateIter<'_> {
    type Item = ProviderSnapshot;

    fn next(&mut self) -> Option<ProviderSnapshot> {
        match self {
            CandidateIter::Slice(iter) => iter.next().copied(),
            CandidateIter::Ids { columns, ids } => ids
                .next()
                .map(|id| columns.snapshot(slot_of(columns, id) as usize)),
        }
    }
}

/// A dense struct-of-arrays gather of one candidate set's scoring fields.
///
/// Baseline techniques rank the *entire* candidate set by some field
/// (utilization, capacity headroom, queue length, bid). Sorting through
/// [`Candidates::get`] would pay a positional lookup and a directory probe
/// *per comparison*; gathering once into parallel
/// columns makes the sort read dense, cache-friendly arrays. The block is
/// scratch: it lives in the technique and is reused across queries, so
/// steady-state gathering allocates nothing once the columns have grown.
#[derive(Debug, Clone, Default)]
pub struct CandidateBlock {
    ids: Vec<ProviderId>,
    utilization: Vec<f64>,
    capacity: Vec<f64>,
    queue_length: Vec<usize>,
}

impl CandidateBlock {
    /// Creates an empty block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of gathered candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if nothing has been gathered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Empties the block, keeping the column capacities.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.utilization.clear();
        self.capacity.clear();
        self.queue_length.clear();
    }

    fn push(&mut self, id: ProviderId, utilization: f64, capacity: f64, queue_length: usize) {
        self.ids.push(id);
        self.utilization.push(utilization);
        self.capacity.push(capacity);
        self.queue_length.push(queue_length);
    }

    fn push_slot(&mut self, columns: &ProviderColumns, slot: usize) {
        self.push(
            columns.ids()[slot],
            columns.utilization()[slot],
            columns.capacity()[slot],
            columns.queue_length()[slot],
        );
    }

    /// The gathered id column, indexed by candidate position.
    #[must_use]
    pub fn ids(&self) -> &[ProviderId] {
        &self.ids
    }

    /// The gathered utilization column, indexed by candidate position.
    #[must_use]
    pub fn utilization(&self) -> &[f64] {
        &self.utilization
    }

    /// The gathered capacity column, indexed by candidate position.
    #[must_use]
    pub fn capacity(&self) -> &[f64] {
        &self.capacity
    }

    /// The gathered queue-length column, indexed by candidate position.
    #[must_use]
    pub fn queue_length(&self) -> &[usize] {
        &self.queue_length
    }
}

/// Source of intention values at mediation time.
///
/// In the real system the mediator *asks* the consumer and the providers for
/// their intentions over the network; in the simulation the oracle is backed
/// by the participants' intention strategies. Implementations must be cheap
/// to call: SbQA calls it `2·kn` times per query.
pub trait IntentionOracle {
    /// The intention of the query's consumer (`q.c`) to have `q` allocated to
    /// `provider` — an entry of the vector `CIq`.
    fn consumer_intention(&self, query: &Query, provider: ProviderId) -> Intention;

    /// The intention of `provider` to perform `q` — an entry of the vector
    /// `PIq` (and of the provider's own `PPIp` history).
    fn provider_intention(&self, provider: ProviderId, query: &Query) -> Intention;
}

/// A static, map-backed oracle. Useful in tests and in the interactive
/// example where a scripted participant fixes its intentions in advance.
#[derive(Debug, Clone, Default)]
pub struct StaticIntentions {
    consumer: BTreeMap<ProviderId, Intention>,
    provider: BTreeMap<ProviderId, Intention>,
    consumer_default: Intention,
    provider_default: Intention,
}

impl StaticIntentions {
    /// Creates an oracle where every intention defaults to neutral.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the default intentions returned for unknown providers.
    #[must_use]
    pub fn with_defaults(mut self, consumer: Intention, provider: Intention) -> Self {
        self.consumer_default = consumer;
        self.provider_default = provider;
        self
    }

    /// Sets the consumer's intention towards a provider.
    pub fn set_consumer_intention(&mut self, provider: ProviderId, intention: Intention) {
        self.consumer.insert(provider, intention);
    }

    /// Sets a provider's intention towards any query.
    pub fn set_provider_intention(&mut self, provider: ProviderId, intention: Intention) {
        self.provider.insert(provider, intention);
    }
}

impl IntentionOracle for StaticIntentions {
    fn consumer_intention(&self, _query: &Query, provider: ProviderId) -> Intention {
        self.consumer
            .get(&provider)
            .copied()
            .unwrap_or(self.consumer_default)
    }

    fn provider_intention(&self, provider: ProviderId, _query: &Query) -> Intention {
        self.provider
            .get(&provider)
            .copied()
            .unwrap_or(self.provider_default)
    }
}

/// One proposal made during a mediation: a provider that was asked for its
/// intention, what it answered, and whether it was selected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProposalRecord {
    /// The consulted provider.
    pub provider: ProviderId,
    /// The intention the provider expressed for performing the query.
    pub provider_intention: Intention,
    /// The intention the consumer expressed towards this provider.
    pub consumer_intention: Intention,
    /// The score the allocation technique assigned (if it scores at all).
    pub score: Option<f64>,
    /// `true` if the provider was selected to perform the query.
    pub selected: bool,
}

/// The outcome of one allocation decision.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AllocationDecision {
    /// Providers selected to perform the query, best-ranked first
    /// (the vector `R` truncated to `min(q.n, kn)` entries).
    pub selected: Vec<ProviderId>,
    /// Every provider that was consulted, with its expressed intentions.
    /// Selected providers appear here too, with `selected = true`.
    pub proposals: Vec<ProposalRecord>,
    /// The balancing parameter ω that was used, when the technique uses one.
    pub omega: Option<f64>,
}

impl AllocationDecision {
    /// `true` if no provider was selected.
    #[must_use]
    pub fn is_starved(&self) -> bool {
        self.selected.is_empty()
    }

    /// Empties the decision while keeping the vector capacities, so a reused
    /// decision performs no allocation once warmed up.
    pub fn clear(&mut self) {
        self.selected.clear();
        self.proposals.clear();
        self.omega = None;
    }

    /// Fills `out` (cleared first, capacity kept) with the consumer-side
    /// view of the allocation: the selected providers with the consumer's
    /// intention towards each, in ranking order. This is what feeds
    /// Definition 1.
    pub fn consumer_view_into(&self, out: &mut Vec<(ProviderId, Intention)>) {
        out.clear();
        out.extend(self.selected.iter().map(|id| {
            let intention = self
                .proposals
                .iter()
                .find(|p| p.provider == *id)
                .map_or(Intention::NEUTRAL, |p| p.consumer_intention);
            (*id, intention)
        }));
    }

    /// Fills `out` (cleared first, capacity kept) with the provider-side
    /// view: every consulted provider with its expressed intention and
    /// selection flag. This is what feeds Definition 2.
    pub fn provider_view_into(&self, out: &mut Vec<(ProviderId, Intention, bool)>) {
        out.clear();
        out.extend(
            self.proposals
                .iter()
                .map(|p| (p.provider, p.provider_intention, p.selected)),
        );
    }
}

/// An allocation technique: SbQA or any baseline, in two phases.
///
/// The select phase runs ahead of the scoring of earlier queries, so it may
/// read only what they cannot change — the candidate view and the
/// technique's own draw state — and must consume that state in stream
/// order. The score phase runs in stream order and does the rest. A query's
/// [`select_into`](Self::select_into), then the ids of the keys it keeps,
/// then its [`score_into`](Self::score_into) are its whole allocation
/// ([`allocate_into`](Self::allocate_into)).
pub trait QueryAllocator: Send {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// The select phase: appends the keys of the providers the query draws
    /// or ranks to `drawn` ([`Candidates::load_ids`]: slots and
    /// utilizations may be left unresolved for the mediator to gather with
    /// other queries' keys) and returns how many of the least-utilized of
    /// them to keep, KnBest's kn-of-k filter at the technique's static
    /// width, which the mediator may re-size for the query; `None` keeps
    /// every drawn key, in the order drawn, whatever its utilization, and
    /// nothing re-sizes it. `candidates` is never empty.
    fn select_into(
        &mut self,
        query: &Query,
        candidates: Candidates<'_>,
        drawn: &mut Vec<RankKey>,
    ) -> Option<usize>;

    /// The score phase over the providers [`select_into`](Self::select_into)
    /// kept: gathers intentions, reads satisfaction and fills `decision`
    /// (cleared first). Implementations keep their working state in
    /// internal scratch buffers, so that steady-state calls perform no heap
    /// allocation.
    fn score_into(
        &mut self,
        query: &Query,
        drawn: Drawn<'_>,
        oracle: &dyn IntentionOracle,
        satisfaction: &SatisfactionRegistry,
        decision: &mut AllocationDecision,
    ) -> SbqaResult<()>;

    /// Forks the allocator's decision state — RNG stream position,
    /// configuration — into an independent copy, so a standby can continue
    /// the exact decision sequence from this point if the original is lost.
    /// Scratch buffers need not be copied (they carry no decision state).
    fn fork(&self) -> Box<dyn QueryAllocator>;

    /// Decides which providers should perform `query`, writing the decision
    /// into `decision` (which is cleared first, retaining its capacity): the
    /// two phases for one query, with `candidates` as `Pq` restricted to
    /// online providers and `satisfaction` the mediator's registry. The
    /// kept ids and their satisfaction rows are found in one pass before
    /// the score phase reads any, in buffers the calling thread reuses, so
    /// a warm call allocates nothing. The mediator runs the phases itself,
    /// over a group of queries.
    ///
    /// # Errors
    ///
    /// [`SbqaError::NoProviderOnline`] when `candidates` is empty, or the
    /// score phase's error.
    fn allocate_into(
        &mut self,
        query: &Query,
        candidates: Candidates<'_>,
        oracle: &dyn IntentionOracle,
        satisfaction: &SatisfactionRegistry,
        decision: &mut AllocationDecision,
    ) -> SbqaResult<()> {
        if candidates.is_empty() {
            return Err(SbqaError::NoProviderOnline { query: query.id });
        }
        let (mut keys, mut ids, mut rows) = ALLOCATE_SCRATCH.take();
        keys.clear();
        ids.clear();
        rows.clear();
        let keep = self.select_into(query, candidates, &mut keys);
        candidates.resolve(&mut keys);
        let kept = keep.map_or(keys.len(), |kn| keep_lightest(&mut keys, kn));
        ids.extend(keys[..kept].iter().map(|key| key.id));
        rows.extend(
            ids.iter()
                .map(|&provider| satisfaction.provider_row(provider)),
        );
        let drawn = Drawn {
            ids: &ids,
            rows: &rows,
            consumer_row: satisfaction.consumer_row(query.consumer),
        };
        let outcome = self.score_into(query, drawn, oracle, satisfaction, decision);
        ALLOCATE_SCRATCH.set((keys, ids, rows));
        outcome
    }

    /// Convenience wrapper over [`QueryAllocator::allocate_into`] that
    /// returns a freshly allocated decision.
    fn allocate(
        &mut self,
        query: &Query,
        candidates: Candidates<'_>,
        oracle: &dyn IntentionOracle,
        satisfaction: &SatisfactionRegistry,
    ) -> SbqaResult<AllocationDecision> {
        let mut decision = AllocationDecision::default();
        self.allocate_into(query, candidates, oracle, satisfaction, &mut decision)?;
        Ok(decision)
    }
}

/// The keys, kept ids and rows of a [`QueryAllocator::allocate_into`] call.
type AllocateScratch = (Vec<RankKey>, Vec<ProviderId>, Vec<RowHint>);

thread_local! {
    /// [`QueryAllocator::allocate_into`]'s buffers, taken for a call and
    /// put back after it, so a nested call starts from empty ones.
    static ALLOCATE_SCRATCH: Cell<AllocateScratch> =
        const { Cell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// What a select phase kept for one query, as its score phase reads it.
#[derive(Debug, Clone, Copy)]
pub struct Drawn<'a> {
    /// The providers to consult, in the order the score phase consults them.
    pub ids: &'a [ProviderId],
    /// The satisfaction rows of `ids`, position for position, resolved
    /// ahead; a position past the end is looked up.
    pub rows: &'a [RowHint],
    /// The satisfaction row of the query's consumer.
    pub consumer_row: RowHint,
}

impl Drawn<'_> {
    /// The row hint of the provider at `position` of [`Drawn::ids`].
    #[must_use]
    pub fn row(&self, position: usize) -> RowHint {
        self.rows.get(position).copied().unwrap_or(RowHint::NONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_types::{Capability, CapabilitySet, ConsumerId, QueryId};

    fn query() -> Query {
        Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(0)).build()
    }

    #[test]
    fn can_perform_requires_capability_and_online() {
        let q = query();
        let capable = ProviderSnapshot::idle(
            ProviderId::new(1),
            CapabilitySet::singleton(Capability::new(0)),
            1.0,
        );
        assert!(capable.can_perform(&q));

        let wrong_cap = ProviderSnapshot::idle(
            ProviderId::new(2),
            CapabilitySet::singleton(Capability::new(1)),
            1.0,
        );
        assert!(!wrong_cap.can_perform(&q));

        let offline = ProviderSnapshot {
            online: false,
            ..capable
        };
        assert!(!offline.can_perform(&q));
    }

    #[test]
    fn static_oracle_returns_configured_and_default_intentions() {
        let mut oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.1), Intention::new(-0.2));
        oracle.set_consumer_intention(ProviderId::new(1), Intention::new(0.9));
        oracle.set_provider_intention(ProviderId::new(1), Intention::new(0.7));

        let q = query();
        assert_eq!(
            oracle.consumer_intention(&q, ProviderId::new(1)),
            Intention::new(0.9)
        );
        assert_eq!(
            oracle.provider_intention(ProviderId::new(1), &q),
            Intention::new(0.7)
        );
        assert_eq!(
            oracle.consumer_intention(&q, ProviderId::new(9)),
            Intention::new(0.1)
        );
        assert_eq!(
            oracle.provider_intention(ProviderId::new(9), &q),
            Intention::new(-0.2)
        );
    }

    #[test]
    fn decision_views_feed_both_satisfaction_definitions() {
        let decision = AllocationDecision {
            selected: vec![ProviderId::new(2)],
            proposals: vec![
                ProposalRecord {
                    provider: ProviderId::new(1),
                    provider_intention: Intention::new(0.5),
                    consumer_intention: Intention::new(0.3),
                    score: Some(0.2),
                    selected: false,
                },
                ProposalRecord {
                    provider: ProviderId::new(2),
                    provider_intention: Intention::new(0.8),
                    consumer_intention: Intention::new(0.9),
                    score: Some(0.9),
                    selected: true,
                },
            ],
            omega: Some(0.5),
        };
        assert!(!decision.is_starved());
        // Dirty buffers: both views must clear before they fill.
        let mut consumer_view = vec![(ProviderId::new(99), Intention::NEUTRAL)];
        decision.consumer_view_into(&mut consumer_view);
        assert_eq!(
            consumer_view,
            vec![(ProviderId::new(2), Intention::new(0.9))]
        );
        let mut provider_view = vec![(ProviderId::new(99), Intention::NEUTRAL, true)];
        decision.provider_view_into(&mut provider_view);
        assert_eq!(
            provider_view,
            vec![
                (ProviderId::new(1), Intention::new(0.5), false),
                (ProviderId::new(2), Intention::new(0.8), true),
            ]
        );
    }

    #[test]
    fn consumer_view_defaults_to_neutral_for_unlisted_selection() {
        // A degenerate decision that selects a provider missing from the
        // proposals still yields a well-formed consumer view.
        let decision = AllocationDecision {
            selected: vec![ProviderId::new(7)],
            proposals: vec![],
            omega: None,
        };
        let mut consumer_view = Vec::new();
        decision.consumer_view_into(&mut consumer_view);
        assert_eq!(
            consumer_view,
            vec![(ProviderId::new(7), Intention::NEUTRAL)]
        );
        let mut provider_view = vec![(ProviderId::new(99), Intention::NEUTRAL, true)];
        decision.provider_view_into(&mut provider_view);
        assert!(provider_view.is_empty());
    }

    #[test]
    fn empty_decision_is_starved() {
        assert!(AllocationDecision::default().is_starved());
    }

    #[test]
    fn clear_retains_capacity_and_resets_fields() {
        let mut decision = AllocationDecision {
            selected: vec![ProviderId::new(1)],
            proposals: vec![ProposalRecord {
                provider: ProviderId::new(1),
                provider_intention: Intention::NEUTRAL,
                consumer_intention: Intention::NEUTRAL,
                score: None,
                selected: true,
            }],
            omega: Some(0.5),
        };
        let selected_cap = decision.selected.capacity();
        decision.clear();
        assert!(decision.selected.is_empty());
        assert!(decision.proposals.is_empty());
        assert!(decision.omega.is_none());
        assert_eq!(decision.selected.capacity(), selected_cap);
    }

    fn slab(n: u64) -> Vec<ProviderSnapshot> {
        (0..n)
            .map(|i| ProviderSnapshot::idle(ProviderId::new(i), CapabilitySet::ALL, 1.0))
            .collect()
    }

    fn columns(n: u64) -> ProviderColumns {
        let mut cols = ProviderColumns::new();
        for row in slab(n) {
            cols.push(row);
        }
        cols
    }

    /// The ids `load_keys` gathers for `positions`, which must come back
    /// with their positions and the rows' utilizations.
    fn key_ids(view: Candidates<'_>, positions: &[u32]) -> Vec<u64> {
        let mut keys = Vec::new();
        view.load_keys(positions, &mut keys);
        for (key, &position) in keys.iter().zip(positions) {
            assert_eq!(key.position, position);
            assert_eq!(key.utilization, view.get(position as usize).utilization);
        }
        assert_eq!(keys.len(), positions.len());
        keys.iter().map(|key| key.id.raw()).collect()
    }

    #[test]
    fn candidates_slice_view_covers_everything() {
        let snapshots = slab(4);
        let view = Candidates::from_slice(&snapshots);
        assert_eq!(view.len(), 4);
        assert!(!view.is_empty());
        assert_eq!(view.get(2).id, ProviderId::new(2));
        assert_eq!(key_ids(view, &[2, 0]), vec![2, 0]);
        let ids: Vec<u64> = view.iter().map(|s| s.id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    /// A map over the providers in the given slots of `cols`.
    fn map_of(cols: &ProviderColumns, slots: &[u32]) -> PostingsMap {
        let mut map = PostingsMap::new();
        for &slot in slots {
            map.insert(cols.ids()[slot as usize]);
        }
        map
    }

    #[test]
    fn candidates_merged_view_restricts_orders_and_follows_moved_rows() {
        // Slots deliberately out of id order, across two chunks.
        let mut cols = ProviderColumns::new();
        for raw in [9u64, 2, 70_000, 5, 7] {
            cols.push(ProviderSnapshot::idle(
                ProviderId::new(raw),
                CapabilitySet::ALL,
                raw as f64,
            ));
        }
        let lists = vec![map_of(&cols, &[0, 1, 2]), map_of(&cols, &[1, 2, 3])];
        let expect = |view: Candidates<'_>, ids: &[u64]| {
            assert_eq!(view.len(), ids.len());
            let streamed: Vec<u64> = view.iter().map(|s| s.id.raw()).collect();
            assert_eq!(streamed, ids);
            for (pos, &raw) in ids.iter().enumerate() {
                let row = view.get(pos);
                assert_eq!((row.id.raw(), row.capacity), (raw, raw as f64));
            }
            let all: Vec<u32> = (0..ids.len() as u32).collect();
            assert_eq!(key_ids(view, &all), ids);
        };
        let mut all = MergedSet::default();
        all.merge(&lists, 0b11, true);
        let mut any = MergedSet::default();
        any.merge(&lists, 0b11, false);
        expect(Candidates::from_merged(&cols, &all), &[2, 70_000]);
        expect(Candidates::from_merged(&cols, &any), &[2, 5, 9, 70_000]);

        // Compaction: dropping id 9 (slot 0) moves id 7 into its row, then
        // dropping id 7 moves id 5 there. The sets were merged before and
        // name ids only, so — once 9 is out of their lists — they read the
        // rows where the column store's directory now finds them.
        cols.swap_remove(0);
        cols.swap_remove(0);
        assert_eq!(cols.ids()[0], ProviderId::new(5), "5 moved to slot 0");
        let lists = vec![map_of(&cols, &[1, 2]), map_of(&cols, &[1, 2, 0])];
        all.merge(&lists, 0b11, true);
        any.merge(&lists, 0b11, false);
        expect(Candidates::from_merged(&cols, &all), &[2, 70_000]);
        expect(Candidates::from_merged(&cols, &any), &[2, 5, 70_000]);
        expect(Candidates::from_map(&cols, &lists[1]), &[2, 5, 70_000]);
    }

    #[test]
    fn candidates_map_view_enumerates_in_id_order() {
        let mut cols = ProviderColumns::new();
        // Slots deliberately out of id order.
        for raw in [9u64, 2, 70_000, 5] {
            cols.push(ProviderSnapshot::idle(
                ProviderId::new(raw),
                CapabilitySet::ALL,
                1.0,
            ));
        }
        let map = map_of(&cols, &[0, 1, 2, 3]);
        let view = Candidates::from_map(&cols, &map);
        assert_eq!(view.len(), 4);
        let ids: Vec<u64> = view.iter().map(|s| s.id.raw()).collect();
        assert_eq!(ids, vec![2, 5, 9, 70_000]);
        // Positional access selects the same enumeration.
        for (pos, &raw) in [2u64, 5, 9, 70_000].iter().enumerate() {
            assert_eq!(view.get(pos).id.raw(), raw);
        }
        assert_eq!(key_ids(view, &[3, 0, 2, 1]), vec![70_000, 2, 9, 5]);
    }

    #[test]
    fn gather_all_into_fills_dense_columns_in_view_order() {
        let mut cols = columns(6);
        cols.set_load(4, 2.5, 7);
        let map = map_of(&cols, &[4, 0, 5]);
        let view = Candidates::from_map(&cols, &map);
        let mut block = CandidateBlock::new();
        view.gather_all_into(&mut block);
        assert_eq!(block.len(), 3);
        let ids: Vec<u64> = block.ids().iter().map(|id| id.raw()).collect();
        assert_eq!(ids, vec![0, 4, 5]);
        assert_eq!(block.utilization()[1], 2.5);
        assert_eq!(block.queue_length()[1], 7);
        assert_eq!(block.capacity()[0], 1.0);
        // A merged view gathers the same columns.
        let lists = [map.clone(), map_of(&cols, &[4, 5])];
        let mut set = MergedSet::default();
        set.merge(&lists, 0b11, true);
        let mut merged = CandidateBlock::new();
        Candidates::from_merged(&cols, &set).gather_all_into(&mut merged);
        assert_eq!(merged.ids(), &block.ids()[1..]);
        assert_eq!(merged.utilization(), &block.utilization()[1..]);
        // Re-gathering clears first.
        view.gather_all_into(&mut block);
        assert_eq!(block.len(), 3);
    }

    #[test]
    fn candidates_empty_views() {
        let view = Candidates::from_slice(&[]);
        assert!(view.is_empty());
        let cols = columns(2);
        let set = MergedSet::default();
        let view = Candidates::from_merged(&cols, &set);
        assert!(view.is_empty());
        assert_eq!(view.iter().count(), 0);
        let map = PostingsMap::new();
        let view = Candidates::from_map(&cols, &map);
        assert!(view.is_empty());
        assert_eq!(view.iter().count(), 0);
    }
}
