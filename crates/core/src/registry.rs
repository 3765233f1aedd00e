//! The mediator's provider registry.
//!
//! The registry tracks which providers exist, whether they are online, what
//! they can do and how loaded they currently are. It answers the only
//! question the allocation process needs from it: *which providers are able
//! to perform this query right now* (the set `Pq`).
//!
//! ## Representation
//!
//! Provider state lives in a dense struct-of-arrays slab
//! ([`ProviderColumns`]: one column per field, addressed by slot), so batch
//! scoring reads only the columns it ranks by. The slab owns the one id →
//! slot map there is ([`ProviderColumns::slot_of`]); the registry keeps no
//! index of its own. One [`PostingsMap`] per capability class — a
//! Roaring-style chunked set of provider ids, see [`crate::postings`] — holds
//! every *online* provider advertising that capability (one extra map tracks
//! *every* online provider, which answers degenerate `All{}` requirements
//! and makes `online_count` O(1)). For a single-capability query `Pq` is the
//! class's map wrapped in a borrowed [`Candidates`] view — no scan over the
//! population, no clone, no materialisation at all. Multi-capability
//! requirements are answered by a chunk-wise merge of the maps — word-parallel
//! AND for `All`, OR for `Any` — into a [`MergedSet`] whose buffers are
//! recycled across merges, so steady-state mediation stays allocation-free.
//! Either way the view names its members by id and finds a member's row
//! through the slab's directory when the candidate is accessed. Candidate
//! order is ascending provider id *by construction* on every path (the
//! postings chunks enumerate in id order), which makes every downstream
//! random draw deterministic per seed. The maps are maintained incrementally
//! on [`register`](ProviderRegistry::register),
//! [`unregister`](ProviderRegistry::unregister) and
//! [`set_online`](ProviderRegistry::set_online); load updates touch only the
//! load columns. Slab compaction (`swap_remove` on unregister) re-points one
//! directory entry inside [`ProviderColumns::swap_remove`] and nothing else:
//! no postings map and no merged set holds a slot.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize, Value};

use sbqa_types::{
    CapabilityRequirement, CapabilitySet, ProviderColumns, ProviderId, Query, SbqaError,
    SbqaResult, MAX_CAPABILITY_CLASSES,
};

use crate::allocator::{Candidates, ProviderSnapshot};
use crate::delta::{DeltaSink, RegistryDelta};
use crate::postings::{MergedSet, PostingsMap};

/// Index of the postings map that tracks every online provider (used for
/// degenerate `All{}` requirements and the O(1) `online_count`).
const ONLINE_LIST: usize = MAX_CAPABILITY_CLASSES as usize;

/// Default number of merge plans the candidate-plan cache retains. A stream
/// over more distinct requirement sets than this evicts on every miss (the
/// benchmark's `sync_multicap_churn` cycles through four times as many and
/// re-merges about a fifth of its queries), which is why a cold merge is kept
/// cheap instead of the bound being raised: a plan costs up to 8 KiB per
/// dense chunk.
const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// Cache key of a multi-capability requirement: the `All`/`Any` kind plus the
/// mentioned-class bit set. Two queries with equal keys have byte-identical
/// candidate plans against the same registry state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    conjunctive: bool,
    bits: u64,
}

impl PlanKey {
    /// The cache key of a requirement.
    fn of(required: CapabilityRequirement) -> Self {
        Self {
            conjunctive: matches!(required, CapabilityRequirement::All(_)),
            bits: required.classes().bits(),
        }
    }
}

/// Counters and occupancy of the candidate-plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCacheStats {
    /// Lookups answered from a still-valid cached plan (zero merge work).
    pub hits: u64,
    /// Lookups for a requirement with no cached plan (full merge).
    pub misses: u64,
    /// Lookups that found a cached plan invalidated by an epoch bump since
    /// its merge (full re-merge into the same entry).
    pub stale_rebuilds: u64,
    /// Entries reassigned to a different requirement by the LRU bound.
    pub evictions: u64,
    /// Plans currently materialised.
    pub entries: usize,
    /// Configured entry bound (at least 1).
    pub capacity: usize,
}

impl PlanCacheStats {
    /// Total lookups against the cache.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.stale_rebuilds
    }

    /// Fraction of lookups served with zero merge work, in `[0, 1]`
    /// (`0` when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Folds another cache's counters into this one (the sharded service
    /// aggregates per-shard stats this way). Counters add; `entries` and
    /// `capacity` add too, so the aggregate reads as the fleet-wide totals.
    pub fn merge(&mut self, other: &Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.stale_rebuilds += other.stale_rebuilds;
        self.evictions += other.evictions;
        self.entries += other.entries;
        self.capacity += other.capacity;
    }
}

/// One merge plan: the id-sorted membership of a requirement's candidate
/// set, plus the postings epochs it was merged from. It holds no slots, so
/// slab compaction never invalidates it.
#[derive(Debug, Clone)]
struct PlanEntry {
    /// The requirement this entry currently answers.
    key: PlanKey,
    /// The merged membership — stable storage owned by the entry.
    set: MergedSet,
    /// `(class, generation)` of every postings map the merge read. The plan
    /// is valid iff each class's map still reports the stamped generation.
    stamps: Vec<(u32, u64)>,
    /// LRU clock value of the last lookup that touched this entry.
    last_used: u64,
}

impl PlanEntry {
    fn vacant(key: PlanKey) -> Self {
        Self {
            key,
            set: MergedSet::default(),
            stamps: Vec::new(),
            last_used: 0,
        }
    }
}

/// The candidate-plan cache: requirement-keyed materialised merge results
/// with per-class epoch invalidation and an LRU entry bound.
#[derive(Debug, Clone)]
struct PlanCache {
    /// Maximum number of entries, at least 1.
    capacity: usize,
    /// Requirement key → entry position.
    // sbqa-lint: allow(hash-collection, "keyed point lookups only; eviction scans the entries Vec, never this map")
    index: HashMap<PlanKey, u32>,
    /// The materialised plans. Eviction reassigns an entry in place, so its
    /// grown `set`/`stamps` buffers are recycled rather than freed.
    entries: Vec<PlanEntry>,
    /// LRU clock, advanced once per lookup.
    tick: u64,
    hits: u64,
    misses: u64,
    stale: u64,
    evictions: u64,
}

impl PlanCache {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            // sbqa-lint: allow(hash-collection, "keyed point lookups only; eviction scans the entries Vec, never this map")
            index: HashMap::new(),
            entries: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            stale: 0,
            evictions: 0,
        }
    }
}

/// Mediator-side registry of provider state: a dense struct-of-arrays slab
/// plus a per-capability postings index of online providers.
#[derive(Debug)]
pub struct ProviderRegistry {
    /// Dense column store of provider state, with its id → slot directory;
    /// slots are compacted with a column-wise `swap_remove` on unregister,
    /// so a slot index is only stable between mutations.
    columns: ProviderColumns,
    /// For each capability class, the postings of online providers
    /// advertising it; the final entry ([`ONLINE_LIST`]) holds every online
    /// provider.
    postings: Vec<PostingsMap>,
    /// Number of *registered* providers (online or not) advertising each
    /// capability class. Lets `starvation_error` distinguish "nobody is able"
    /// from "the able ones are offline" without scanning the slab.
    class_counts: [usize; MAX_CAPABILITY_CLASSES as usize],
    /// Number of registered providers per distinct capability mask. Per-class
    /// counts cannot decide conjunctive (`All`) requirements exactly — two
    /// providers may cover the classes pairwise without either covering all
    /// of them — so the mask histogram settles the ambiguous case. Its size
    /// is the number of *distinct capability profiles*, which real
    /// populations keep tiny (a handful of deployment configurations) even
    /// though an adversarial population could make it approach |P|.
    mask_counts: BTreeMap<u64, usize>,
    /// Materialised multi-capability merge plans, keyed by requirement (see
    /// [`PlanCache`]).
    plan_cache: PlanCache,
    /// Replication hook: observes every *effective* mutation (the rule is in
    /// [`crate::delta`]) in commit order. `None` — the default — costs one
    /// null check per mutation. Clones never inherit it (see [`Clone`]
    /// below): a clone is a state fork, and two registries feeding one log
    /// would corrupt its sequencing.
    sink: Option<Box<dyn DeltaSink>>,
}

/// Clones everything *except* the delta sink, which stays with the original:
/// a cloned registry is a checkpoint or replica, not a second producer for
/// the primary's log.
impl Clone for ProviderRegistry {
    fn clone(&self) -> Self {
        Self {
            columns: self.columns.clone(),
            postings: self.postings.clone(),
            class_counts: self.class_counts,
            mask_counts: self.mask_counts.clone(),
            plan_cache: self.plan_cache.clone(),
            sink: None,
        }
    }
}

impl Default for ProviderRegistry {
    fn default() -> Self {
        Self {
            columns: ProviderColumns::new(),
            postings: vec![PostingsMap::new(); ONLINE_LIST + 1],
            class_counts: [0; MAX_CAPABILITY_CLASSES as usize],
            mask_counts: BTreeMap::new(),
            plan_cache: PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY),
            sink: None,
        }
    }
}

impl ProviderRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The postings maps a provider belongs to while online: one per
    /// advertised capability class, plus the all-online map.
    fn lists_of(capabilities: CapabilitySet) -> impl Iterator<Item = usize> {
        capabilities
            .iter()
            .map(|cap| cap.class() as usize)
            .chain(std::iter::once(ONLINE_LIST))
    }

    /// Inserts the provider into (`indexed`) or removes it from the postings
    /// maps of every capability it advertises and the online map. Only
    /// online providers are ever indexed.
    fn set_indexed(&mut self, provider: ProviderSnapshot, indexed: bool) {
        for list in Self::lists_of(provider.capabilities) {
            if indexed {
                self.postings[list].insert(provider.id);
            } else {
                self.postings[list].remove(provider.id);
            }
        }
    }

    /// Adds (`+1`) or removes (`-1`) a registered capability profile from the
    /// per-class and per-mask histograms.
    fn count_profile(&mut self, capabilities: CapabilitySet, delta: isize) {
        for cap in capabilities.iter() {
            let count = &mut self.class_counts[cap.class() as usize];
            // sbqa-lint: allow(panic-hygiene, "register/deregister pairing keeps per-class counts non-negative; underflow is a caller bug")
            *count = count.checked_add_signed(delta).expect("count stays >= 0");
        }
        let entry = self.mask_counts.entry(capabilities.bits()).or_insert(0);
        // sbqa-lint: allow(panic-hygiene, "register/deregister pairing keeps per-mask counts non-negative; underflow is a caller bug")
        *entry = entry.checked_add_signed(delta).expect("count stays >= 0");
        if *entry == 0 {
            self.mask_counts.remove(&capabilities.bits());
        }
    }

    /// Inserts a snapshot into the slab and indexes it if online. Replaces
    /// any existing provider with the same id.
    fn insert_snapshot(&mut self, snapshot: ProviderSnapshot) {
        if let Some(slot) = self.columns.slot_of(snapshot.id) {
            let previous = self.columns.snapshot(slot as usize);
            if previous.online {
                self.set_indexed(previous, false);
            }
            self.count_profile(previous.capabilities, -1);
            self.columns.set(slot as usize, snapshot);
        } else {
            self.columns.push(snapshot);
        }
        if snapshot.online {
            self.set_indexed(snapshot, true);
        }
        self.count_profile(snapshot.capabilities, 1);
    }

    /// Hands the effective mutation to the attached sink, if any: each
    /// mutator calls it once after a call that changed state, never on a
    /// no-op.
    fn emit(&mut self, delta: RegistryDelta) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(&delta);
        }
    }

    /// Attaches a replication sink that will observe every effective
    /// mutation from here on. Replaces (and drops) any previous sink.
    pub fn set_delta_sink(&mut self, sink: Box<dyn DeltaSink>) {
        self.sink = Some(sink);
    }

    /// Detaches and returns the replication sink, leaving the hook disabled.
    pub fn take_delta_sink(&mut self) -> Option<Box<dyn DeltaSink>> {
        self.sink.take()
    }

    /// Whether a replication sink is currently attached.
    #[must_use]
    pub fn delta_sink_attached(&self) -> bool {
        self.sink.is_some()
    }

    /// Registers (or replaces) a provider with the given capabilities and
    /// capacity, initially online and idle.
    pub fn register(&mut self, id: ProviderId, capabilities: CapabilitySet, capacity: f64) {
        self.insert_snapshot(ProviderSnapshot::idle(id, capabilities, capacity));
        self.emit(RegistryDelta::Register {
            id,
            capabilities,
            capacity,
        });
    }

    /// Removes a provider entirely (it left the system for good).
    /// Returns `true` if the provider existed.
    pub fn unregister(&mut self, id: ProviderId) -> bool {
        let Some(slot) = self.columns.slot_of(id) else {
            return false;
        };
        let removed = self.columns.snapshot(slot as usize);
        if removed.online {
            self.set_indexed(removed, false);
        }
        self.count_profile(removed.capabilities, -1);
        // The last row moves into `slot`; the column store re-points its
        // directory entry, and nothing else names a slot.
        self.columns.swap_remove(slot as usize);
        self.emit(RegistryDelta::Unregister { id });
        true
    }

    /// Marks a provider online or offline. Unknown providers are an error.
    pub fn set_online(&mut self, id: ProviderId, online: bool) -> SbqaResult<()> {
        let Some(slot) = self.columns.slot_of(id) else {
            return Err(SbqaError::UnknownProvider { provider: id });
        };
        let provider = self.columns.snapshot(slot as usize);
        if provider.online == online {
            return Ok(());
        }
        self.columns.set_online(slot as usize, online);
        self.set_indexed(provider, online);
        self.emit(RegistryDelta::SetOnline { id, online });
        Ok(())
    }

    /// Updates a provider's load state (utilization in virtual seconds of
    /// queued work, and queue length). Unknown providers are an error.
    pub fn update_load(
        &mut self,
        id: ProviderId,
        utilization: f64,
        queue_length: usize,
    ) -> SbqaResult<()> {
        match self.columns.slot_of(id) {
            Some(slot) => {
                // Load changes never invalidate cached plans: membership is
                // untouched.
                self.columns
                    .set_load(slot as usize, utilization, queue_length);
                self.emit(RegistryDelta::UpdateLoad {
                    id,
                    utilization,
                    queue_length,
                });
                Ok(())
            }
            None => Err(SbqaError::UnknownProvider { provider: id }),
        }
    }

    /// Looks up one provider's snapshot (assembled from the columns).
    #[must_use]
    pub fn get(&self, id: ProviderId) -> Option<ProviderSnapshot> {
        self.columns
            .slot_of(id)
            .map(|slot| self.columns.snapshot(slot as usize))
    }

    /// Number of registered providers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` if no provider is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Number of providers currently online — the cached cardinality of the
    /// all-online postings map, O(1).
    #[must_use]
    pub fn online_count(&self) -> usize {
        self.postings[ONLINE_LIST].len()
    }

    /// Iterates over all provider snapshots (online or not), in slab order.
    pub fn iter(&self) -> impl Iterator<Item = ProviderSnapshot> + '_ {
        self.columns.snapshots()
    }

    /// The underlying struct-of-arrays column store, slot-indexed.
    #[must_use]
    pub fn columns(&self) -> &ProviderColumns {
        &self.columns
    }

    /// The set `Pq` as a borrowed, zero-clone view: every online provider
    /// able to perform `query`, in ascending id order. This is the only way a
    /// `Pq` is resolved.
    ///
    /// Single-capability requirements (and degenerate `All{}` / `Any{}`) wrap
    /// the class's postings map directly — O(1), no scan, no
    /// materialisation. Multi-capability requirements go through the
    /// candidate-plan cache: a requirement seen before whose mentioned
    /// classes' postings epochs are unchanged is answered from its
    /// materialised membership with **zero merge work** — an
    /// O(#classes-in-requirement) validity check. Misses (and stale plans)
    /// pay the chunk-wise merge — a word-parallel AND for `All`, an OR for
    /// `Any`, see [`MergedSet::merge`] — into the entry's own stable set
    /// (hence `&mut self`), so a later resolution cannot clobber the storage
    /// behind a previously returned view. Every path is allocation-free once
    /// warmed up.
    #[must_use]
    pub fn candidates(&mut self, query: &Query) -> Candidates<'_> {
        let required = query.required;
        let mut classes = required.classes().iter();
        match (classes.next(), classes.next()) {
            // `All{}` is vacuously satisfied by every online provider;
            // `Any{}` by none.
            (None, _) => match required {
                CapabilityRequirement::All(_) => {
                    Candidates::from_map(&self.columns, &self.postings[ONLINE_LIST])
                }
                CapabilityRequirement::Any(_) => Candidates::from_slice(&[]),
            },
            // The trivial one-bit case, where All and Any coincide: wrap the
            // class's postings map directly.
            (Some(only), None) => {
                Candidates::from_map(&self.columns, &self.postings[only.class() as usize])
            }
            (Some(_), Some(_)) => {
                let idx = self.lookup_or_merge(PlanKey::of(required));
                Candidates::from_merged(&self.columns, &self.plan_cache.entries[idx].set)
            }
        }
    }

    /// Resolves a multi-class requirement through the plan cache, returning
    /// the index of a fresh (hit) or freshly merged (miss/stale) entry.
    fn lookup_or_merge(&mut self, key: PlanKey) -> usize {
        let cache = &mut self.plan_cache;
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(&idx) = cache.index.get(&key) {
            let idx = idx as usize;
            let fresh = cache.entries[idx]
                .stamps
                .iter()
                .all(|&(class, generation)| {
                    self.postings[class as usize].generation() == generation
                });
            cache.entries[idx].last_used = tick;
            if fresh {
                cache.hits += 1;
            } else {
                cache.stale += 1;
                Self::merge_into_entry(&self.postings, &mut cache.entries[idx]);
            }
            return idx;
        }
        cache.misses += 1;
        // A full cache evicts its least-recently-used entry in place: its
        // grown buffers are recycled for the new tenant.
        let lru = if cache.entries.len() < cache.capacity {
            None
        } else {
            cache
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(pos, _)| pos)
        };
        let idx = match lru {
            Some(idx) => {
                cache.evictions += 1;
                let old_key = cache.entries[idx].key;
                cache.index.remove(&old_key);
                idx
            }
            None => {
                cache.entries.push(PlanEntry::vacant(key));
                cache.entries.len() - 1
            }
        };
        cache.index.insert(key, idx as u32);
        let entry = &mut cache.entries[idx];
        entry.key = key;
        entry.last_used = tick;
        Self::merge_into_entry(&self.postings, entry);
        idx
    }

    /// Merges the postings of the classes the entry's key mentions into its
    /// set and stamps the epoch of every map the merge read.
    fn merge_into_entry(postings: &[PostingsMap], entry: &mut PlanEntry) {
        let PlanKey { conjunctive, bits } = entry.key;
        entry.set.merge(postings, bits, conjunctive);
        entry.stamps.clear();
        entry
            .stamps
            .extend(CapabilitySet::from_bits(bits).iter().map(|cap| {
                let class = u32::from(cap.class());
                (class, postings[class as usize].generation())
            }));
    }

    /// Counters and occupancy of the candidate-plan cache.
    #[must_use]
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let cache = &self.plan_cache;
        PlanCacheStats {
            hits: cache.hits,
            misses: cache.misses,
            stale_rebuilds: cache.stale,
            evictions: cache.evictions,
            entries: cache.entries.len(),
            capacity: cache.capacity,
        }
    }

    /// Re-bounds the candidate-plan cache to `capacity` plans (at least one:
    /// `0` is clamped to `1`), dropping every materialised plan; counters are
    /// kept. It is a size, not a mode — every multi-capability resolution
    /// goes through the cache whatever the bound.
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        let cache = &mut self.plan_cache;
        cache.capacity = capacity.max(1);
        cache.entries.clear();
        cache.index.clear();
    }

    /// The set `Pq` as an owned vector, sorted by id — an allocating
    /// convenience wrapper over [`ProviderRegistry::candidates`].
    #[must_use]
    pub fn capable_of(&mut self, query: &Query) -> Vec<ProviderSnapshot> {
        self.candidates(query).iter().collect()
    }

    /// Classifies a starvation: distinguishes "nobody can ever perform this"
    /// from "capable providers exist but none is online".
    ///
    /// Answered from the registered-provider histograms instead of the
    /// former O(|P|) slab scan: the per-class counts decide `Any`
    /// requirements and rule out `All` requirements with an uncovered class
    /// in O(|set|); the remaining conjunctive case checks the exact profile
    /// first and then walks the per-mask histogram, whose size is the number
    /// of distinct capability profiles — a handful in realistic populations,
    /// bounded by |P| only for adversarially diverse ones. The slab itself
    /// is never scanned, even when every query in an overloaded system
    /// starves.
    #[must_use]
    pub fn starvation_error(&self, query: &Query) -> SbqaError {
        if self.any_registered_capable(query.required) {
            SbqaError::NoProviderOnline { query: query.id }
        } else {
            SbqaError::NoCapableProvider { query: query.id }
        }
    }

    /// `true` if any registered provider (online or not) satisfies `required`.
    fn any_registered_capable(&self, required: CapabilityRequirement) -> bool {
        let set = required.classes();
        match required {
            CapabilityRequirement::Any(_) => set
                .iter()
                .any(|cap| self.class_counts[cap.class() as usize] > 0),
            CapabilityRequirement::All(_) => {
                if set.is_empty() {
                    return !self.columns.is_empty();
                }
                if set
                    .iter()
                    .any(|cap| self.class_counts[cap.class() as usize] == 0)
                {
                    return false;
                }
                set.len() == 1
                    // Exact-profile hit: some provider advertises precisely
                    // the required set (the common case when requirements
                    // mirror deployment profiles).
                    || self.mask_counts.contains_key(&set.bits())
                    || self
                        .mask_counts
                        .keys()
                        .any(|&mask| CapabilitySet::from_bits(mask).is_superset_of(set))
            }
        }
    }
}

// The slab's index and postings are derived data: serialize only the
// snapshots and rebuild the indexes on the way back in. The column store
// serializes as the row vector, so the wire format is unchanged from the
// array-of-structs layout.
impl Serialize for ProviderRegistry {
    fn to_value(&self) -> Value {
        self.columns.to_value()
    }
}

impl Deserialize for ProviderRegistry {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let rows = Vec::<ProviderSnapshot>::from_value(value)?;
        let mut registry = Self::new();
        for snapshot in rows {
            registry.insert_snapshot(snapshot);
        }
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_types::{Capability, ConsumerId, QueryId};

    fn query(cap: u8) -> Query {
        Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(cap)).build()
    }

    fn caps(cap: u8) -> CapabilitySet {
        CapabilitySet::singleton(Capability::new(cap))
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = ProviderRegistry::new();
        assert!(reg.is_empty());
        reg.register(ProviderId::new(1), caps(0), 2.0);
        reg.register(ProviderId::new(2), caps(1), 3.0);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.online_count(), 2);
        assert_eq!(reg.get(ProviderId::new(1)).unwrap().capacity, 2.0);
        assert!(reg.get(ProviderId::new(9)).is_none());
        assert_eq!(reg.iter().count(), 2);
    }

    #[test]
    fn capable_of_filters_by_capability_and_online() {
        let mut reg = ProviderRegistry::new();
        reg.register(ProviderId::new(1), caps(0), 1.0);
        reg.register(ProviderId::new(2), caps(0), 1.0);
        reg.register(ProviderId::new(3), caps(1), 1.0);
        reg.set_online(ProviderId::new(2), false).unwrap();

        let capable = reg.capable_of(&query(0));
        let ids: Vec<u64> = capable.iter().map(|p| p.id.raw()).collect();
        assert_eq!(ids, vec![1]);
        assert_eq!(reg.online_count(), 2);
    }

    #[test]
    fn load_updates_are_visible_in_snapshots() {
        let mut reg = ProviderRegistry::new();
        reg.register(ProviderId::new(1), caps(0), 1.0);
        reg.update_load(ProviderId::new(1), 7.5, 3).unwrap();
        let snap = reg.get(ProviderId::new(1)).unwrap();
        assert_eq!(snap.utilization, 7.5);
        assert_eq!(snap.queue_length, 3);
        // Degenerate utilization is clamped to zero.
        reg.update_load(ProviderId::new(1), f64::NAN, 0).unwrap();
        assert_eq!(reg.get(ProviderId::new(1)).unwrap().utilization, 0.0);
    }

    #[test]
    fn unknown_provider_operations_fail() {
        let mut reg = ProviderRegistry::new();
        assert!(matches!(
            reg.set_online(ProviderId::new(1), true),
            Err(SbqaError::UnknownProvider { .. })
        ));
        assert!(matches!(
            reg.update_load(ProviderId::new(1), 1.0, 1),
            Err(SbqaError::UnknownProvider { .. })
        ));
        assert!(!reg.unregister(ProviderId::new(1)));
    }

    #[test]
    fn starvation_error_distinguishes_causes() {
        let mut reg = ProviderRegistry::new();
        reg.register(ProviderId::new(1), caps(0), 1.0);
        // A query needing capability 5: nobody has it.
        assert!(matches!(
            reg.starvation_error(&query(5)),
            SbqaError::NoCapableProvider { .. }
        ));
        // A query needing capability 0 while the only capable provider is
        // offline: capability exists, nobody online.
        reg.set_online(ProviderId::new(1), false).unwrap();
        assert!(matches!(
            reg.starvation_error(&query(0)),
            SbqaError::NoProviderOnline { .. }
        ));
    }

    #[test]
    fn unregister_removes_from_capable_set() {
        let mut reg = ProviderRegistry::new();
        reg.register(ProviderId::new(1), caps(0), 1.0);
        assert!(reg.unregister(ProviderId::new(1)));
        assert!(reg.capable_of(&query(0)).is_empty());
    }

    #[test]
    fn candidates_view_is_sorted_by_id_regardless_of_registration_order() {
        let mut reg = ProviderRegistry::new();
        for id in [9u64, 2, 7, 4, 1] {
            reg.register(ProviderId::new(id), caps(0), 1.0);
        }
        let view = reg.candidates(&query(0));
        let ids: Vec<u64> = view.iter().map(|p| p.id.raw()).collect();
        assert_eq!(ids, vec![1, 2, 4, 7, 9]);
        // The owned wrapper agrees with the view.
        let owned: Vec<u64> = reg
            .capable_of(&query(0))
            .iter()
            .map(|p| p.id.raw())
            .collect();
        assert_eq!(owned, ids);
    }

    #[test]
    fn set_online_maintains_postings_incrementally() {
        let mut reg = ProviderRegistry::new();
        for id in 1..=4u64 {
            reg.register(ProviderId::new(id), caps(0), 1.0);
        }
        reg.set_online(ProviderId::new(2), false).unwrap();
        reg.set_online(ProviderId::new(4), false).unwrap();
        let ids: Vec<u64> = reg
            .candidates(&query(0))
            .iter()
            .map(|p| p.id.raw())
            .collect();
        assert_eq!(ids, vec![1, 3]);
        // Toggling back reinserts at the right sorted position; re-setting
        // the same state is a no-op.
        reg.set_online(ProviderId::new(2), true).unwrap();
        reg.set_online(ProviderId::new(2), true).unwrap();
        let ids: Vec<u64> = reg
            .candidates(&query(0))
            .iter()
            .map(|p| p.id.raw())
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn unregister_re_points_the_moved_row() {
        // Unregistering a middle provider swap-removes the slab: the last
        // row moves into the freed slot and its directory entry must follow,
        // or its id would resolve to a stale (or out-of-range) slot.
        let mut reg = ProviderRegistry::new();
        for id in 1..=5u64 {
            reg.register(ProviderId::new(id), caps(0), id as f64);
        }
        assert!(reg.unregister(ProviderId::new(2)));
        let view = reg.candidates(&query(0));
        let ids: Vec<u64> = view.iter().map(|p| p.id.raw()).collect();
        assert_eq!(ids, vec![1, 3, 4, 5]);
        // The moved provider (id 5) is still addressable and intact.
        assert_eq!(reg.get(ProviderId::new(5)).unwrap().capacity, 5.0);
        assert!(reg.unregister(ProviderId::new(5)));
        let ids: Vec<u64> = reg
            .candidates(&query(0))
            .iter()
            .map(|p| p.id.raw())
            .collect();
        assert_eq!(ids, vec![1, 3, 4]);
    }

    #[test]
    fn multi_capability_providers_appear_in_every_postings_list() {
        let mut reg = ProviderRegistry::new();
        let both = CapabilitySet::from_capabilities([Capability::new(0), Capability::new(1)]);
        reg.register(ProviderId::new(1), both, 1.0);
        reg.register(ProviderId::new(2), caps(1), 1.0);
        assert_eq!(reg.capable_of(&query(0)).len(), 1);
        assert_eq!(reg.capable_of(&query(1)).len(), 2);
        // Re-registering with different capabilities moves the postings.
        reg.register(ProviderId::new(1), caps(1), 1.0);
        assert!(reg.capable_of(&query(0)).is_empty());
        assert_eq!(reg.capable_of(&query(1)).len(), 2);
    }

    fn multi_query(req: CapabilityRequirement) -> Query {
        Query::requiring(QueryId::new(1), ConsumerId::new(1), req).build()
    }

    fn set_of(classes: &[u8]) -> CapabilitySet {
        CapabilitySet::from_capabilities(classes.iter().copied().map(Capability::new))
    }

    fn ids_of(reg: &mut ProviderRegistry, req: CapabilityRequirement) -> Vec<u64> {
        reg.candidates(&multi_query(req))
            .iter()
            .map(|p| p.id.raw())
            .collect()
    }

    #[test]
    fn all_requirement_intersects_postings_lists() {
        let mut reg = ProviderRegistry::new();
        reg.register(ProviderId::new(1), set_of(&[0, 1]), 1.0);
        reg.register(ProviderId::new(2), set_of(&[0]), 1.0);
        reg.register(ProviderId::new(3), set_of(&[0, 1, 2]), 1.0);
        reg.register(ProviderId::new(4), set_of(&[1, 2]), 1.0);

        assert_eq!(
            ids_of(&mut reg, CapabilityRequirement::All(set_of(&[0, 1]))),
            vec![1, 3]
        );
        assert_eq!(
            ids_of(&mut reg, CapabilityRequirement::All(set_of(&[0, 1, 2]))),
            vec![3]
        );
        assert!(ids_of(&mut reg, CapabilityRequirement::All(set_of(&[0, 3]))).is_empty());
        // Offline providers drop out of the intersection.
        reg.set_online(ProviderId::new(3), false).unwrap();
        assert_eq!(
            ids_of(&mut reg, CapabilityRequirement::All(set_of(&[0, 1]))),
            vec![1]
        );
    }

    #[test]
    fn any_requirement_unions_postings_lists_without_duplicates() {
        let mut reg = ProviderRegistry::new();
        reg.register(ProviderId::new(1), set_of(&[0, 1]), 1.0);
        reg.register(ProviderId::new(2), set_of(&[0]), 1.0);
        reg.register(ProviderId::new(3), set_of(&[2]), 1.0);
        reg.register(ProviderId::new(4), set_of(&[5]), 1.0);

        // Provider 1 appears in both merged lists but only once in Pq.
        assert_eq!(
            ids_of(&mut reg, CapabilityRequirement::Any(set_of(&[0, 1]))),
            vec![1, 2]
        );
        assert_eq!(
            ids_of(&mut reg, CapabilityRequirement::Any(set_of(&[1, 2, 5]))),
            vec![1, 3, 4]
        );
        assert!(ids_of(&mut reg, CapabilityRequirement::Any(set_of(&[7, 8]))).is_empty());
    }

    #[test]
    fn degenerate_empty_requirements() {
        let mut reg = ProviderRegistry::new();
        reg.register(ProviderId::new(1), set_of(&[0]), 1.0);
        reg.register(ProviderId::new(2), set_of(&[1]), 1.0);
        reg.set_online(ProviderId::new(2), false).unwrap();

        // All{} is satisfied by every *online* provider, Any{} by none.
        assert_eq!(
            ids_of(&mut reg, CapabilityRequirement::All(CapabilitySet::EMPTY)),
            vec![1]
        );
        assert!(ids_of(&mut reg, CapabilityRequirement::Any(CapabilitySet::EMPTY)).is_empty());
    }

    #[test]
    fn merged_candidates_match_brute_force_after_churn() {
        let mut reg = ProviderRegistry::new();
        for id in 0..40u64 {
            reg.register(
                ProviderId::new(id),
                set_of(&[(id % 3) as u8, (id % 5) as u8]),
                1.0,
            );
        }
        for id in [4u64, 9, 14] {
            reg.set_online(ProviderId::new(id), false).unwrap();
        }
        for id in [7u64, 21, 35] {
            assert!(reg.unregister(ProviderId::new(id)));
        }

        for req in [
            CapabilityRequirement::All(set_of(&[0, 1])),
            CapabilityRequirement::All(set_of(&[1, 2, 3])),
            CapabilityRequirement::Any(set_of(&[2, 4])),
            CapabilityRequirement::Any(set_of(&[0, 3, 4])),
        ] {
            let query = multi_query(req);
            let mut expected: Vec<u64> = reg
                .iter()
                .filter(|p| p.can_perform(&query))
                .map(|p| p.id.raw())
                .collect();
            expected.sort_unstable();
            assert_eq!(ids_of(&mut reg, req), expected, "requirement {req}");
        }
    }

    #[test]
    fn starvation_error_handles_requirement_semantics() {
        let mut reg = ProviderRegistry::new();
        reg.register(ProviderId::new(1), set_of(&[0, 1]), 1.0);
        reg.register(ProviderId::new(2), set_of(&[1, 2]), 1.0);

        // Per-class counts are all positive for {0, 2}, yet no single
        // provider covers both: the mask histogram settles it.
        assert!(matches!(
            reg.starvation_error(&multi_query(CapabilityRequirement::All(set_of(&[0, 2])))),
            SbqaError::NoCapableProvider { .. }
        ));
        assert!(matches!(
            reg.starvation_error(&multi_query(CapabilityRequirement::All(set_of(&[0, 5])))),
            SbqaError::NoCapableProvider { .. }
        ));
        assert!(matches!(
            reg.starvation_error(&multi_query(CapabilityRequirement::Any(set_of(&[5, 6])))),
            SbqaError::NoCapableProvider { .. }
        ));

        // Capable providers exist but are offline.
        reg.set_online(ProviderId::new(1), false).unwrap();
        reg.set_online(ProviderId::new(2), false).unwrap();
        for req in [
            CapabilityRequirement::All(set_of(&[0, 1])),
            CapabilityRequirement::Any(set_of(&[2, 5])),
            CapabilityRequirement::All(CapabilitySet::EMPTY),
        ] {
            assert!(
                matches!(
                    reg.starvation_error(&multi_query(req)),
                    SbqaError::NoProviderOnline { .. }
                ),
                "requirement {req}"
            );
        }

        // Unregistering decrements the histograms: once provider 1 is gone,
        // nothing ever covered {0, 1} together.
        assert!(reg.unregister(ProviderId::new(1)));
        assert!(matches!(
            reg.starvation_error(&multi_query(CapabilityRequirement::All(set_of(&[0, 1])))),
            SbqaError::NoCapableProvider { .. }
        ));
    }

    #[test]
    fn online_count_tracks_the_online_postings_list() {
        let mut reg = ProviderRegistry::new();
        for id in 1..=5u64 {
            reg.register(ProviderId::new(id), set_of(&[(id % 2) as u8]), 1.0);
        }
        assert_eq!(reg.online_count(), 5);
        reg.set_online(ProviderId::new(2), false).unwrap();
        assert_eq!(reg.online_count(), 4);
        assert!(reg.unregister(ProviderId::new(3)));
        assert_eq!(reg.online_count(), 3);
        reg.set_online(ProviderId::new(2), true).unwrap();
        assert_eq!(reg.online_count(), 4);
    }

    #[test]
    fn serde_round_trip_rebuilds_the_index() {
        let mut reg = ProviderRegistry::new();
        for id in [3u64, 1, 2] {
            reg.register(ProviderId::new(id), caps(0), 1.0);
        }
        reg.set_online(ProviderId::new(2), false).unwrap();
        reg.update_load(ProviderId::new(1), 4.5, 2).unwrap();

        let text = serde::to_string(&reg);
        let mut back: ProviderRegistry = serde::from_str(&text).unwrap();

        assert_eq!(back.len(), 3);
        assert_eq!(back.online_count(), 2);
        assert_eq!(back.get(ProviderId::new(1)).unwrap().utilization, 4.5);
        let ids: Vec<u64> = back
            .candidates(&query(0))
            .iter()
            .map(|p| p.id.raw())
            .collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn populous_chunk_keeps_candidates_id_sorted() {
        // More providers in one class chunk than ARRAY_MAX, with churn in
        // the middle: the id-ordered enumeration contract must hold at any
        // chunk size.
        let mut reg = ProviderRegistry::new();
        let n = 6000u64;
        for id in 0..n {
            reg.register(ProviderId::new(id), caps(0), 1.0);
        }
        for id in (0..n).step_by(7) {
            reg.set_online(ProviderId::new(id), false).unwrap();
        }
        for id in (0..n).step_by(11) {
            reg.unregister(ProviderId::new(id));
        }
        let ids: Vec<u64> = reg
            .candidates(&query(0))
            .iter()
            .map(|p| p.id.raw())
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending ids");
        let expected: Vec<u64> = (0..n).filter(|id| id % 7 != 0 && id % 11 != 0).collect();
        assert_eq!(ids, expected);
    }

    /// A small overlapping population for the plan-cache tests.
    fn cache_registry() -> ProviderRegistry {
        let mut reg = ProviderRegistry::new();
        reg.register(ProviderId::new(1), set_of(&[0, 1]), 1.0);
        reg.register(ProviderId::new(2), set_of(&[0]), 1.0);
        reg.register(ProviderId::new(3), set_of(&[0, 1, 2]), 1.0);
        reg.register(ProviderId::new(4), set_of(&[1, 2]), 1.0);
        reg.register(ProviderId::new(5), set_of(&[5]), 1.0);
        reg
    }

    #[test]
    fn plan_cache_counts_hits_and_misses() {
        let mut reg = cache_registry();
        let all01 = CapabilityRequirement::All(set_of(&[0, 1]));
        let any12 = CapabilityRequirement::Any(set_of(&[1, 2]));

        assert_eq!(ids_of(&mut reg, all01), vec![1, 3]);
        assert_eq!(ids_of(&mut reg, all01), vec![1, 3]);
        assert_eq!(ids_of(&mut reg, all01), vec![1, 3]);
        let stats = reg.plan_cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
        assert_eq!(stats.entries, 1);

        assert_eq!(ids_of(&mut reg, any12), vec![1, 3, 4]);
        let stats = reg.plan_cache_stats();
        assert_eq!((stats.misses, stats.hits), (2, 2));
        assert_eq!(stats.entries, 2);
        // All and Any over the same set are distinct keys.
        assert_eq!(
            ids_of(&mut reg, CapabilityRequirement::All(set_of(&[1, 2]))),
            vec![3, 4]
        );
        assert_eq!(reg.plan_cache_stats().entries, 3);
        // Single-class and degenerate requirements never enter the cache.
        assert_eq!(
            ids_of(&mut reg, CapabilityRequirement::All(set_of(&[0]))),
            vec![1, 2, 3]
        );
        assert_eq!(reg.plan_cache_stats().entries, 3);
        assert!((reg.plan_cache_stats().hit_rate() - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn mutations_in_mentioned_classes_force_stale_rebuilds() {
        let mut reg = cache_registry();
        let all01 = CapabilityRequirement::All(set_of(&[0, 1]));
        assert_eq!(ids_of(&mut reg, all01), vec![1, 3]);

        // Online flip inside a mentioned class: rebuild, correct answer.
        reg.set_online(ProviderId::new(3), false).unwrap();
        assert_eq!(ids_of(&mut reg, all01), vec![1]);
        assert_eq!(reg.plan_cache_stats().stale_rebuilds, 1);

        // Unregister with slab compaction (provider 1 is not last, so the
        // swap-remove moves a row): rebuild again.
        assert!(reg.unregister(ProviderId::new(1)));
        assert!(ids_of(&mut reg, all01).is_empty());
        assert_eq!(reg.plan_cache_stats().stale_rebuilds, 2);

        // Registration into a mentioned class too.
        reg.register(ProviderId::new(9), set_of(&[0, 1]), 1.0);
        assert_eq!(ids_of(&mut reg, all01), vec![9]);
        let stats = reg.plan_cache_stats();
        assert_eq!(stats.stale_rebuilds, 3);
        // One initial miss, never a second: the entry was rebuilt in place.
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn plans_survive_unrelated_churn_and_load_updates() {
        let mut reg = cache_registry();
        let all01 = CapabilityRequirement::All(set_of(&[0, 1]));
        assert_eq!(ids_of(&mut reg, all01), vec![1, 3]);

        // Churn confined to classes the plan never mentions…
        reg.register(ProviderId::new(6), set_of(&[5, 6]), 1.0);
        reg.set_online(ProviderId::new(5), false).unwrap();
        // …and load updates on a provider *inside* the plan (load is column
        // data, not membership: epochs stay put by design).
        reg.update_load(ProviderId::new(1), 3.0, 2).unwrap();

        assert_eq!(ids_of(&mut reg, all01), vec![1, 3]);
        let stats = reg.plan_cache_stats();
        assert_eq!(stats.stale_rebuilds, 0, "no mentioned class changed");
        assert_eq!((stats.misses, stats.hits), (1, 1));
        // The hit still serves the *current* columns: utilization is live.
        let view = reg.candidates(&multi_query(all01));
        assert_eq!(
            view.iter().find(|p| p.id.raw() == 1).unwrap().utilization,
            3.0
        );
    }

    #[test]
    fn slab_compaction_leaves_cached_plans_valid() {
        let mut reg = ProviderRegistry::new();
        // Provider 1 shares no class with the plans; provider 4, the last
        // row, is a member of both and moves into slot 0 when 1 leaves.
        reg.register(ProviderId::new(1), set_of(&[5]), 1.0);
        reg.register(ProviderId::new(2), set_of(&[0, 1]), 2.0);
        reg.register(ProviderId::new(3), set_of(&[0]), 3.0);
        reg.register(ProviderId::new(4), set_of(&[0, 1]), 4.0);
        let all01 = CapabilityRequirement::All(set_of(&[0, 1]));
        let any01 = CapabilityRequirement::Any(set_of(&[0, 1]));
        assert_eq!(ids_of(&mut reg, all01), vec![2, 4]);
        assert_eq!(ids_of(&mut reg, any01), vec![2, 3, 4]);

        assert!(reg.unregister(ProviderId::new(1)));
        assert_eq!(reg.columns().ids()[0], ProviderId::new(4), "4 moved");
        reg.update_load(ProviderId::new(4), 2.5, 3).unwrap();

        for (req, ids) in [(all01, vec![2u64, 4]), (any01, vec![2, 3, 4])] {
            let view = reg.candidates(&multi_query(req));
            let rows: Vec<ProviderSnapshot> = (0..view.len()).map(|pos| view.get(pos)).collect();
            let positions: Vec<u32> = (0..view.len() as u32).collect();
            let mut keys = Vec::new();
            view.load_keys(&positions, &mut keys);
            for ((row, key), id) in rows.iter().zip(keys).zip(ids) {
                let current = reg.get(ProviderId::new(id)).unwrap();
                assert_eq!(*row, current, "get() reads provider {id}'s current row");
                assert_eq!((key.utilization, key.id), (current.utilization, current.id));
            }
        }
        // Both resolutions after the compaction were hits: no membership
        // changed in a mentioned class, and a plan holds no slot to go stale.
        let stats = reg.plan_cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.stale_rebuilds), (2, 2, 0));
    }

    #[test]
    fn plan_cache_lru_evicts_at_capacity() {
        let mut reg = cache_registry();
        reg.set_plan_cache_capacity(2);
        let reqs = [
            CapabilityRequirement::All(set_of(&[0, 1])),
            CapabilityRequirement::Any(set_of(&[1, 2])),
            CapabilityRequirement::All(set_of(&[1, 2])),
        ];
        for req in reqs {
            let _ = ids_of(&mut reg, req);
        }
        let stats = reg.plan_cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.capacity, 2);
        // The least-recently-used entry (the first) was the victim: probing
        // it again misses, the survivor still hits.
        let _ = ids_of(&mut reg, reqs[0]);
        assert_eq!(reg.plan_cache_stats().misses, 4);
        let _ = ids_of(&mut reg, reqs[2]);
        assert_eq!(reg.plan_cache_stats().hits, 1);
    }
}
