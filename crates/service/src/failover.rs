//! Failover orchestration: replicated shards, crash and promotion.
//!
//! [`ReplicatedMediator`] is the [`ShardedMediator`](crate::ShardedMediator)
//! surface with a standby behind every shard: each
//! [`ReplicatedShard`] pairs a live [`MediatorShard`] (its registry feeding
//! a [`SharedDeltaLog`]) with a [`StandbyShard`] that mirrors it by
//! checkpoint + delta replay and journals the queries the primary accepts.
//!
//! [`ReplicatedMediator::crash_shard`] *drops* the primary — registry,
//! satisfaction state and allocator RNG vanish, exactly as in a real crash —
//! and promotes the standby in its place. Because promotion replays the
//! checkpoint's tail and query journal interleaved by log watermark, the
//! promoted mediator is in the dead primary's precise pre-crash state and
//! the merged `(VirtualTime, QueryId)`-ordered outcome stream continues
//! **byte-identically** versus an uninterrupted run (this crate's failover
//! tests and the `scenario_failover` bench pin that on seed 42).
//!
//! What does *not* survive a crash, deliberately: the shard's wall-clock
//! instrumentation (latency samples, plan-cache counters) restarts with the
//! promoted primary — those live in the crashed process. The orchestrator
//! keeps the cumulative mediated/starved tallies itself, so service totals
//! span promotions.

use std::time::Instant;

use sbqa_core::allocator::{AllocationDecision, IntentionOracle};
use sbqa_core::{
    Admission, BatchReport, DegradationConfig, DegradationLadder, Mediator, ProviderRegistry,
    QueryAllocator, QueryDisposition,
};
pub use sbqa_replication::standby::ReplayReport;
pub use sbqa_replication::ReplicationStats;

use sbqa_replication::{registry_digest, SharedDeltaLog, StandbyShard};
use sbqa_types::{
    CapabilitySet, ConsumerId, ProviderId, Query, SbqaError, SbqaResult, SystemConfig,
};

use crate::report::ShardReport;
use crate::router::ShardRouter;
use crate::shard::MediatorShard;

/// Default number of batches between automatic checkpoints.
const DEFAULT_CHECKPOINT_INTERVAL: u64 = 4;

/// Forks a mediator's allocation technique for a standby, or says why not.
fn fork_allocator(mediator: &Mediator) -> SbqaResult<Box<dyn QueryAllocator>> {
    mediator
        .fork_allocator()
        .ok_or_else(|| SbqaError::InvalidConfiguration {
            reason: format!(
                "allocation technique '{}' cannot be checkpointed \
                 (QueryAllocator::fork returned None)",
                mediator.technique()
            ),
        })
}

/// One mediator shard with a promotable standby behind it.
#[derive(Debug)]
pub struct ReplicatedShard {
    index: usize,
    primary: MediatorShard,
    log: SharedDeltaLog,
    standby: StandbyShard,
    promotions: u64,
    /// Overload admission control. Lives here — not on the primary — so a
    /// crash does not reset the ladder: the promoted mediator inherits the
    /// exact leaky-bucket state the crashed primary was shedding under.
    ladder: Option<DegradationLadder>,
}

impl ReplicatedShard {
    /// Arms replication around a mediator: the mediator is decomposed with
    /// [`Mediator::into_parts`], its allocator forked and registries cloned
    /// into the standby's bootstrap checkpoint, and the primary reassembled
    /// with its registry feeding a fresh delta log and its satisfaction
    /// registry tracking the ids it touches, which is what lets every later
    /// [`checkpoint`](ReplicatedShard::checkpoint) be cut incrementally.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] when the hosted allocation
    /// technique does not implement
    /// [`QueryAllocator::fork`] — an
    /// uncheckpointable technique would silently diverge after a failover,
    /// so arming refuses instead.
    pub fn new(index: usize, mediator: Mediator) -> SbqaResult<Self> {
        let standby_allocator = fork_allocator(&mediator)?;
        Ok(Self::arm(index, mediator, standby_allocator, None))
    }

    /// The arming itself. `mirror`, when given, is a registry already equal
    /// to the mediator's in replicated state (a promoted shard's previous
    /// lockstep mirror); it saves the standby one of its two registry clones.
    fn arm(
        index: usize,
        mediator: Mediator,
        standby_allocator: Box<dyn QueryAllocator>,
        mirror: Option<ProviderRegistry>,
    ) -> Self {
        let (allocator, mut providers, mut satisfaction) = mediator.into_parts();
        let log = SharedDeltaLog::new();
        let checkpoint = providers.clone();
        let mirror = mirror.unwrap_or_else(|| checkpoint.clone());
        let standby = StandbyShard::with_mirror(
            standby_allocator,
            checkpoint,
            satisfaction.clone(),
            mirror,
            log.last_sequence(),
        );
        providers.set_delta_sink(Box::new(log.clone()));
        satisfaction.track_touched();
        let primary = MediatorShard::new(
            index,
            Mediator::from_parts(allocator, providers, satisfaction),
        );
        Self {
            index,
            primary,
            log,
            standby,
            promotions: 0,
            ladder: None,
        }
    }

    /// Arms overload admission control: every subsequent
    /// [`ReplicatedShard::submit_with_start`] runs the query through the
    /// deterministic degradation ladder, journaling the verdict on the
    /// standby so a promotion replays admitted queries at their tier and
    /// skips the sheds.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] for an invalid ladder config.
    pub fn enable_degradation(&mut self, config: DegradationConfig) -> SbqaResult<()> {
        self.primary
            .mediator_mut()
            .set_degraded_kn_floor(config.floor_kn);
        self.standby.set_degraded_floor(config.floor_kn);
        self.ladder = Some(DegradationLadder::new(config)?);
        Ok(())
    }

    /// The shard's degradation ladder, if armed.
    #[must_use]
    pub fn ladder(&self) -> Option<&DegradationLadder> {
        self.ladder.as_ref()
    }

    /// This shard's position in the service.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The live (instrumented) primary.
    #[must_use]
    pub fn primary(&self) -> &MediatorShard {
        &self.primary
    }

    /// The standby mirroring the primary.
    #[must_use]
    pub fn standby(&self) -> &StandbyShard {
        &self.standby
    }

    /// Streams any log records the standby has not yet applied into it.
    ///
    /// # Errors
    ///
    /// Propagates [`StandbyShard::catch_up`] gap errors.
    pub fn sync(&mut self) -> SbqaResult<usize> {
        self.standby.catch_up(&self.log)
    }

    /// Registers a provider on the primary (the mutation reaches the
    /// standby's mirror through the delta log).
    ///
    /// # Errors
    ///
    /// Propagates replication-stream gap errors from the standby sync.
    pub fn register_provider(
        &mut self,
        id: ProviderId,
        capabilities: CapabilitySet,
        capacity: f64,
    ) -> SbqaResult<()> {
        self.primary
            .mediator_mut()
            .register_provider(id, capabilities, capacity);
        self.sync().map(|_| ())
    }

    /// Registers a consumer on the primary and mirrors it to the standby
    /// (consumer churn is control-plane traffic, not registry deltas).
    pub fn register_consumer(&mut self, id: ConsumerId) {
        self.primary.mediator_mut().register_consumer(id);
        self.standby.register_consumer(id);
    }

    /// Marks a provider online or offline on the primary.
    ///
    /// # Errors
    ///
    /// Unknown provider, or a replication-stream gap on the standby sync.
    pub fn set_provider_online(&mut self, id: ProviderId, online: bool) -> SbqaResult<()> {
        self.primary
            .mediator_mut()
            .set_provider_online(id, online)?;
        self.sync().map(|_| ())
    }

    /// Updates a provider's load state on the primary.
    ///
    /// # Errors
    ///
    /// Unknown provider, or a replication-stream gap on the standby sync.
    pub fn update_provider_load(
        &mut self,
        id: ProviderId,
        utilization: f64,
        queue_length: usize,
    ) -> SbqaResult<()> {
        self.primary
            .mediator_mut()
            .update_provider_load(id, utilization, queue_length)?;
        self.sync().map(|_| ())
    }

    /// Mediates one query on the primary, journaling it on the standby
    /// first (at the current log watermark, so promotion replays it at
    /// exactly this position between deltas). With a
    /// [degradation ladder](ReplicatedShard::enable_degradation) armed the
    /// query passes admission control first; its verdict — tier or shed —
    /// is journaled alongside it, so promotion reproduces the overload
    /// decisions byte-identically instead of re-running admission.
    ///
    /// # Errors
    ///
    /// Starvation from the primary, [`SbqaError::QueryShed`] when admission
    /// control rejects the query, or a replication gap from the standby
    /// sync (in which case the query was neither journaled nor mediated).
    pub fn submit_with_start(
        &mut self,
        query: &Query,
        oracle: &dyn IntentionOracle,
        start: Instant,
    ) -> SbqaResult<&AllocationDecision> {
        self.sync()?;
        let Some(ladder) = &mut self.ladder else {
            self.standby.observe_query(query);
            return self.primary.submit_with_start(query, oracle, start);
        };
        match ladder.observe_arrival(query.issued_at) {
            Admission::Shed => {
                self.standby
                    .observe_query_with(query, QueryDisposition::Shed);
                self.primary.record_shed(start);
                Err(SbqaError::QueryShed { query: query.id })
            }
            Admission::Admit(tier) => {
                self.standby
                    .observe_query_with(query, QueryDisposition::Mediated(tier));
                self.primary.mediator_mut().set_degradation_tier(tier);
                self.primary.submit_with_start(query, oracle, start)
            }
        }
    }

    /// Cuts a fresh checkpoint of the live primary into the standby,
    /// incrementally ([`StandbyShard::cut_checkpoint`]: the standby's
    /// registry copy advances by its tail, its satisfaction copy receives
    /// the trackers touched since the last cut), and prunes the delta log up
    /// to the cut: the standby's replay window restarts empty, and the log
    /// retains only the snapshot mark.
    ///
    /// # Errors
    ///
    /// A replication gap on the standby sync, or
    /// [`SbqaError::InvalidConfiguration`] if the primary's technique lost
    /// fork support (cannot happen for shards built via
    /// [`ReplicatedShard::new`]); the standby and the log are then as they
    /// were.
    pub fn checkpoint(&mut self) -> SbqaResult<()> {
        self.sync()?;
        let watermark = self.log.last_sequence();
        self.standby
            .cut_checkpoint(self.primary.mediator_mut(), watermark)?;
        self.log.mark_snapshot();
        self.log.prune_through(watermark);
        // Let the standby observe the snapshot mark itself, so a freshly
        // checkpointed shard reports zero replay lag.
        self.sync().map(|_| ())
    }

    /// Kills the primary and promotes the standby: the standby replays its
    /// checkpoint + tail + journal into a fresh mediator, the primary is
    /// dropped — its registry, satisfaction state and RNG are gone, and the
    /// promotion has read none of them — and replication is re-armed around
    /// the promoted mediator (new log, new bootstrap checkpoint, the old
    /// standby's mirror carried over). Latency/cache instrumentation
    /// restarts with the new primary; the decision stream continues
    /// byte-identically.
    ///
    /// A shard always comes back. When the promotion fails (a corrupt log or
    /// tail), the crash is called off: the broken standby and its log are
    /// discarded, replication is re-armed around the untouched primary the
    /// same way, and the error is returned beside the shard.
    pub fn promote(self, oracle: &dyn IntentionOracle) -> (Self, SbqaResult<ReplayReport>) {
        // Forked before anything is taken apart, for the calling-off path.
        let spare = match fork_allocator(self.primary.mediator()) {
            Ok(spare) => spare,
            Err(error) => return (self, Err(error)),
        };
        let Self {
            index,
            primary,
            log,
            mut standby,
            promotions,
            ladder,
        } = self;
        let promotion = standby
            .catch_up(&log)
            .and_then(|_| standby.promote(oracle))
            .and_then(|(mediator, mirror, report)| {
                Ok((fork_allocator(&mediator)?, mediator, mirror, report))
            });
        let (mut shard, outcome) = match promotion {
            Ok((standby_allocator, mediator, mirror, report)) => {
                // The crash: the live mediator is dropped wholesale.
                drop(primary);
                let mut shard = Self::arm(index, mediator, standby_allocator, Some(mirror));
                shard.promotions = promotions + 1;
                (shard, Ok(report))
            }
            Err(error) => {
                let mut shard = Self::arm(index, primary.into_mediator(), spare, None);
                shard.promotions = promotions;
                (shard, Err(error))
            }
        };
        if let Some(ladder) = ladder {
            // The ladder survives the crash: re-seat it (and the shrink-tier
            // floor, which re-arming reset) around the new primary.
            let floor = ladder.config().floor_kn;
            shard.primary.mediator_mut().set_degraded_kn_floor(floor);
            shard.standby.set_degraded_floor(floor);
            shard.ladder = Some(ladder);
        }
        (shard, outcome)
    }

    /// `true` if the standby's mirror registry is byte-identical (slab
    /// layout, load columns, online flags) to the live primary's registry
    /// right now.
    #[must_use]
    pub fn mirror_in_lockstep(&self) -> bool {
        registry_digest(self.primary.mediator().providers()) == self.standby.mirror_digest()
    }

    /// The shard's replication counters.
    #[must_use]
    pub fn replication_stats(&self) -> ReplicationStats {
        let last_appended = self.log.last_sequence();
        let last_applied = self.standby.applied();
        ReplicationStats {
            log_depth: self.log.depth(),
            last_appended,
            last_applied,
            replay_lag: last_appended.saturating_sub(last_applied),
            tail_depth: self.standby.tail_depth(),
            journal_depth: self.standby.journal_depth(),
            checkpoints: self.standby.checkpoints(),
            promotions: self.promotions,
        }
    }
}

/// A sharded mediation service with a standby behind every shard.
///
/// Mirrors the [`ShardedMediator`](crate::ShardedMediator) surface —
/// deterministic routing, merged-order batch processing — and adds crash
/// orchestration: [`ReplicatedMediator::crash_shard`] kills a primary
/// mid-run and promotes its standby without disturbing the other shards.
/// Checkpoints are cut automatically every
/// [`checkpoint interval`](ReplicatedMediator::set_checkpoint_interval)
/// batches (at batch boundaries, so a cut never splits a mediation).
#[derive(Debug)]
pub struct ReplicatedMediator {
    router: ShardRouter,
    shards: Vec<ReplicatedShard>,
    /// Reused batch-position permutation for the merged processing order.
    order_scratch: Vec<u32>,
    /// Cumulative per-shard tallies, surviving promotions (the crashed
    /// primary's in-memory tallies die with it).
    tallies: Vec<BatchReport>,
    batches: u64,
    checkpoint_interval: u64,
}

impl ReplicatedMediator {
    /// Builds a replicated service of `shards` shards (raised to 1 if 0);
    /// `make` is called once per shard index to construct its mediator.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] when a mediator's technique
    /// cannot be checkpointed (see [`ReplicatedShard::new`]).
    pub fn new<F>(shards: usize, seed: u64, mut make: F) -> SbqaResult<Self>
    where
        F: FnMut(usize) -> Mediator,
    {
        let router = ShardRouter::new(shards, seed);
        let mut built = Vec::with_capacity(router.shards());
        for index in 0..router.shards() {
            built.push(ReplicatedShard::new(index, make(index))?);
        }
        let tallies = vec![BatchReport::default(); built.len()];
        Ok(Self {
            router,
            shards: built,
            order_scratch: Vec::new(),
            tallies,
            batches: 0,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
        })
    }

    /// Builds a replicated SbQA service; shard `i` hosts an allocator
    /// seeded with `seed + i`, exactly like
    /// [`ShardedMediator::sbqa`](crate::ShardedMediator::sbqa).
    ///
    /// # Errors
    ///
    /// Configuration validation errors, or arming errors from
    /// [`ReplicatedShard::new`].
    pub fn sbqa(config: SystemConfig, seed: u64, shards: usize) -> SbqaResult<Self> {
        config.validate()?;
        let mut built = Vec::new();
        for index in 0..shards.max(1) {
            built.push(Mediator::sbqa(
                config.clone(),
                seed.wrapping_add(index as u64),
            )?);
        }
        let mut mediators = built.into_iter();
        Self::new(shards, seed, |_| {
            // sbqa-lint: allow(panic-hygiene, "builder produced exactly one mediator per shard two lines above")
            mediators.next().expect("one mediator per shard")
        })
    }

    /// The deterministic router assigning providers and queries to shards.
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One replicated shard.
    #[must_use]
    pub fn shard(&self, index: usize) -> &ReplicatedShard {
        &self.shards[index]
    }

    /// Arms overload admission control on every shard. Each shard gets its
    /// own ladder instance (depth is per-shard, like the registry slice),
    /// and every admission verdict is journaled for byte-identical failover.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] for an invalid ladder config.
    pub fn enable_degradation(&mut self, config: DegradationConfig) -> SbqaResult<()> {
        for shard in &mut self.shards {
            shard.enable_degradation(config)?;
        }
        Ok(())
    }

    /// Sets how many batches elapse between automatic checkpoints
    /// (0 disables automatic checkpointing; promotion then replays the
    /// whole run since the bootstrap checkpoint).
    pub fn set_checkpoint_interval(&mut self, batches: u64) {
        self.checkpoint_interval = batches;
    }

    /// Registers a provider with its owning shard; returns the shard index.
    ///
    /// # Errors
    ///
    /// Replication-stream gap errors from the owning shard's standby sync.
    pub fn register_provider(
        &mut self,
        id: ProviderId,
        capabilities: CapabilitySet,
        capacity: f64,
    ) -> SbqaResult<usize> {
        let shard = self.router.shard_of_provider(id);
        self.shards[shard].register_provider(id, capabilities, capacity)?;
        Ok(shard)
    }

    /// Registers a consumer with every shard (and every standby).
    pub fn register_consumer(&mut self, id: ConsumerId) {
        for shard in &mut self.shards {
            shard.register_consumer(id);
        }
    }

    /// Marks a provider online or offline at its owning shard.
    ///
    /// # Errors
    ///
    /// Unknown provider, or a standby-sync gap.
    pub fn set_provider_online(&mut self, id: ProviderId, online: bool) -> SbqaResult<()> {
        let shard = self.router.shard_of_provider(id);
        self.shards[shard].set_provider_online(id, online)
    }

    /// Updates a provider's load state at its owning shard.
    ///
    /// # Errors
    ///
    /// Unknown provider, or a standby-sync gap.
    pub fn update_provider_load(
        &mut self,
        id: ProviderId,
        utilization: f64,
        queue_length: usize,
    ) -> SbqaResult<()> {
        let shard = self.router.shard_of_provider(id);
        self.shards[shard].update_provider_load(id, utilization, queue_length)
    }

    /// Total number of registered providers across all primaries.
    #[must_use]
    pub fn provider_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.primary().mediator().providers().len())
            .sum()
    }

    /// Drains a batch in merged `(VirtualTime, QueryId)` order, exactly like
    /// [`ShardedMediator::submit_batch`](crate::ShardedMediator::submit_batch),
    /// journaling every query on its shard's standby before mediating it.
    /// Cuts a checkpoint on every shard at the configured batch cadence.
    ///
    /// # Errors
    ///
    /// Standby-sync or checkpoint errors; per-query starvation is reported
    /// through `on_result`, not as an error.
    pub fn submit_batch<F>(
        &mut self,
        queries: &[Query],
        oracle: &dyn IntentionOracle,
        mut on_result: F,
    ) -> SbqaResult<BatchReport>
    where
        F: FnMut(usize, &Query, SbqaResult<&AllocationDecision>),
    {
        self.order_scratch.clear();
        self.order_scratch
            // sbqa-lint: allow(panic-hygiene, "batch length is bounded by the ingest queue, far below u32::MAX")
            .extend(0..u32::try_from(queries.len()).expect("batch fits in u32"));
        self.order_scratch
            .sort_by_key(|&pos| (queries[pos as usize].issued_at, queries[pos as usize].id));

        let mut report = BatchReport::default();
        for &pos in &self.order_scratch {
            let query = &queries[pos as usize];
            let shard = self.router.shard_of_query(query.id);
            // sbqa-lint: allow(wall-clock, "latency stamp only; allocation reads VirtualTime")
            let start = Instant::now();
            let result = self.shards[shard].submit_with_start(query, oracle, start);
            if let Err(SbqaError::InvalidConfiguration { reason }) = &result {
                // A replication gap, not a starvation: abort the batch.
                return Err(SbqaError::InvalidConfiguration {
                    reason: reason.clone(),
                });
            }
            match &result {
                Ok(_) => {
                    report.mediated += 1;
                    self.tallies[shard].mediated += 1;
                }
                // A shed is neither mediated nor starved: it is counted in
                // the shard ladder's `DegradationStats` and surfaced to the
                // caller through `on_result`.
                Err(SbqaError::QueryShed { .. }) => {}
                Err(_) => {
                    report.starved += 1;
                    self.tallies[shard].starved += 1;
                }
            }
            on_result(pos as usize, query, result);
        }

        self.batches += 1;
        if self.checkpoint_interval > 0 && self.batches.is_multiple_of(self.checkpoint_interval) {
            self.checkpoint_all()?;
        }
        Ok(report)
    }

    /// Cuts a checkpoint on every shard now.
    ///
    /// # Errors
    ///
    /// Propagates the first shard's [`ReplicatedShard::checkpoint`] error.
    pub fn checkpoint_all(&mut self) -> SbqaResult<()> {
        for shard in &mut self.shards {
            shard.checkpoint()?;
        }
        Ok(())
    }

    /// Kills shard `index`'s primary and promotes its standby in place (the
    /// other shards are untouched). Returns the promotion's replay tallies.
    ///
    /// # Errors
    ///
    /// Promotion replay errors; the slot then holds the original primary,
    /// re-armed (see [`ReplicatedShard::promote`]), and the service keeps
    /// running.
    pub fn crash_shard(
        &mut self,
        index: usize,
        oracle: &dyn IntentionOracle,
    ) -> SbqaResult<ReplayReport> {
        let (shard, outcome) = self.shards.remove(index).promote(oracle);
        self.shards.insert(index, shard);
        outcome
    }

    /// `true` if every shard's standby mirror is byte-identical to its live
    /// primary registry.
    #[must_use]
    pub fn mirrors_in_lockstep(&self) -> bool {
        self.shards.iter().all(ReplicatedShard::mirror_in_lockstep)
    }

    /// Snapshots every shard's view: cumulative tallies (surviving
    /// promotions), the current primary's latency/cache instrumentation and
    /// the shard's replication counters.
    #[must_use]
    pub fn shard_reports(&self) -> Vec<ShardReport> {
        self.shards
            .iter()
            .zip(&self.tallies)
            .map(|(shard, tally)| {
                let mut snapshot = shard.primary().report_snapshot();
                snapshot.report = *tally;
                snapshot.replication = Some(shard.replication_stats());
                // The ladder lives on the replicated shard (it survives
                // promotions), not on the primary the snapshot came from.
                snapshot.degradation = shard.ladder().map(DegradationLadder::stats);
                snapshot
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::StaticIntentions;
    use sbqa_types::{Capability, Intention, QueryId, VirtualTime};

    fn caps(class: u8) -> CapabilitySet {
        CapabilitySet::singleton(Capability::new(class))
    }

    fn query(id: u64, at: f64) -> Query {
        Query::builder(QueryId::new(id), ConsumerId::new(1), Capability::new(0))
            .issued_at(VirtualTime::new(at))
            .build()
    }

    fn oracle() -> StaticIntentions {
        StaticIntentions::new().with_defaults(Intention::new(0.6), Intention::new(0.4))
    }

    fn replicated(shards: usize) -> ReplicatedMediator {
        let mut service =
            ReplicatedMediator::sbqa(SystemConfig::default().with_knbest(8, 3), 42, shards)
                .unwrap();
        for p in 0..24u64 {
            service
                .register_provider(ProviderId::new(p), caps(0), 1.0)
                .unwrap();
        }
        service.register_consumer(ConsumerId::new(1));
        service
    }

    #[test]
    fn mirrors_stay_in_lockstep_through_churn() {
        let mut service = replicated(2);
        assert!(service.mirrors_in_lockstep());
        service
            .update_provider_load(ProviderId::new(3), 2.0, 4)
            .unwrap();
        service
            .set_provider_online(ProviderId::new(5), false)
            .unwrap();
        assert!(service.mirrors_in_lockstep());
        let stats = service.shard(0).replication_stats();
        assert_eq!(stats.replay_lag, 0);
    }

    #[test]
    fn promoted_shard_continues_byte_identically() {
        let oracle = oracle();
        let mut crashed = replicated(2);
        let mut baseline = replicated(2);

        let stream: Vec<Query> = (0..120u64).map(|i| query(i, i as f64 * 0.1)).collect();
        let mut crashed_outcomes = Vec::new();
        let mut baseline_outcomes = Vec::new();

        for (round, chunk) in stream.chunks(30).enumerate() {
            if round == 2 {
                // Kill shard 0 mid-run; its standby takes over.
                crashed.crash_shard(0, &oracle).unwrap();
            }
            crashed
                .submit_batch(chunk, &oracle, |_, q, r| {
                    crashed_outcomes.push((q.id, r.map(|d| d.selected.clone()).ok()));
                })
                .unwrap();
            baseline
                .submit_batch(chunk, &oracle, |_, q, r| {
                    baseline_outcomes.push((q.id, r.map(|d| d.selected.clone()).ok()));
                })
                .unwrap();
        }

        assert_eq!(crashed_outcomes, baseline_outcomes);
        assert_eq!(service_promotions(&crashed), 1);
        assert!(crashed.mirrors_in_lockstep());
    }

    fn service_promotions(service: &ReplicatedMediator) -> u64 {
        (0..service.shard_count())
            .map(|i| service.shard(i).replication_stats().promotions)
            .sum()
    }

    #[test]
    fn a_failed_promotion_keeps_the_slot_and_the_service_running() {
        let oracle = oracle();
        let mut wounded = replicated(2);
        let mut baseline = replicated(2);
        let stream: Vec<Query> = (0..120u64).map(|i| query(i, i as f64 * 0.1)).collect();
        let mut wounded_outcomes = Vec::new();
        let mut baseline_outcomes = Vec::new();

        for (round, chunk) in stream.chunks(30).enumerate() {
            if round == 2 {
                // Corrupt shard 0's stream: a departure of a provider nobody
                // registered. The standby cannot replay it, so the promotion
                // fails, the crash is called off around the intact primary…
                wounded.shards[0]
                    .log
                    .append_mutation(sbqa_core::RegistryDelta::Unregister {
                        id: ProviderId::new(9_999),
                    });
                let error = wounded.crash_shard(0, &oracle).unwrap_err();
                assert!(
                    matches!(error, SbqaError::UnknownProvider { .. }),
                    "{error}"
                );
                // …and the slot is still there, replication re-armed clean.
                assert_eq!(wounded.shard_count(), 2);
                assert_eq!(wounded.shard(0).index(), 0);
                assert_eq!(wounded.shard(0).replication_stats().promotions, 0);
                assert_eq!(wounded.shard(0).replication_stats().replay_lag, 0);
                assert!(wounded.mirrors_in_lockstep());
            }
            wounded
                .submit_batch(chunk, &oracle, |_, q, r| {
                    wounded_outcomes.push((q.id, r.map(|d| d.selected.clone()).ok()));
                })
                .unwrap();
            baseline
                .submit_batch(chunk, &oracle, |_, q, r| {
                    baseline_outcomes.push((q.id, r.map(|d| d.selected.clone()).ok()));
                })
                .unwrap();
        }
        assert_eq!(wounded_outcomes, baseline_outcomes);
        assert!(wounded_outcomes
            .iter()
            .all(|(_, selected)| selected.is_some()));

        // The re-armed shard is a full citizen: it checkpoints and promotes.
        wounded.checkpoint_all().unwrap();
        wounded.crash_shard(0, &oracle).unwrap();
        assert_eq!(service_promotions(&wounded), 1);
        assert!(wounded.mirrors_in_lockstep());
    }

    #[test]
    fn reports_carry_replication_counters() {
        let mut service = replicated(2);
        let stream: Vec<Query> = (0..40u64).map(|i| query(i, i as f64 * 0.1)).collect();
        service
            .submit_batch(&stream, &oracle(), |_, _, _| {})
            .unwrap();
        let reports = service.shard_reports();
        assert_eq!(reports.len(), 2);
        for report in &reports {
            let stats = report.replication.expect("replicated shard");
            assert_eq!(stats.replay_lag, 0);
            assert!(stats.checkpoints >= 1);
        }
        let total: usize = reports.iter().map(|r| r.report.submitted()).sum();
        assert_eq!(total, 40);
    }
}
