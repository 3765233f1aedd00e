//! The front-end: a router and the shards it routes to.
//!
//! [`ShardedMediator`] partitions the provider population across `N`
//! [`MediatorShard`]s through a [`ShardRouter`] and presents the same
//! registration / batch-submission surface as a single
//! [`Mediator`]:
//!
//! * **providers** are registered with exactly one shard (the router's
//!   placement), so the shards' registries are pairwise disjoint and each
//!   shard answers `Pq` locally over its slice;
//! * **consumers** are registered with every shard — any of their queries may
//!   route anywhere — so each shard tracks the satisfaction of the
//!   mediations *it* performed;
//! * **queries** in a batch are processed in `(VirtualTime, QueryId)` order
//!   (stable: ties keep their batch positions) and dispatched to the shard
//!   the router assigns. Processing in the merged order — rather than
//!   per-shard sub-batches — makes the interleaving, and with it every
//!   shard's RNG consumption, a pure function of the batch content.
//!
//! Every per-shard feature is armed here, for all shards at once:
//! [`enable_degradation`](ShardedMediator::enable_degradation),
//! [`enable_adaptive_kn`](ShardedMediator::enable_adaptive_kn) and
//! [`replicate`](ShardedMediator::replicate). The front-end drives its
//! shards inline ([`submit_batch`](ShardedMediator::submit_batch)), or hands
//! them to the threaded driver
//! ([`MediationService::spawn_with`](crate::MediationService::spawn_with))
//! and takes them back with [`from_shards`](ShardedMediator::from_shards).
//!
//! ## Determinism contract
//!
//! With one shard, everything routes to shard 0 and a batch that is already
//! ordered by `(VirtualTime, QueryId)` (the natural order of an arrival
//! stream with monotone ids) is processed exactly like
//! [`Mediator::submit_batch`](sbqa_core::Mediator::submit_batch): decisions
//! are **byte-identical** to the plain mediator's. With `N` shards the
//! decision stream is a deterministic function of `(seed, batch contents)` —
//! byte-stable across runs — because routing, per-shard order and per-shard
//! allocator seeds are all derived from the seed, never from thread timing
//! or hasher state.
//!
//! ## Replication faults
//!
//! A fault of a shard's replication stream (a sequence gap, or a log record
//! that does not apply, met where a checkpoint cut reads the log) is never a
//! query's outcome. It is kept on the shard, and
//! [`try_submit_batch`](ShardedMediator::try_submit_batch) aborts with it at
//! the first query routed to the faulted shard — that query and the rest of
//! the batch reach neither a mediator nor the callback — and it stays
//! readable as [`fault`](ShardedMediator::fault) until
//! [`crash_shard`](ShardedMediator::crash_shard) has re-armed the shard.

use std::collections::BTreeSet;
use std::time::Instant;

use sbqa_core::allocator::{AllocationDecision, IntentionOracle};
use sbqa_core::{BatchReport, DegradationConfig, KnControllerConfig, Mediator, RegistryDelta};
use sbqa_replication::ReplayReport;
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_types::{
    CapabilitySet, ConsumerId, ProviderId, Query, SbqaError, SbqaResult, SystemConfig,
};

use crate::report::ShardReport;
use crate::router::ShardRouter;
use crate::shard::{submit_grouped, MediatorShard};

/// A mediation service front-end over `N` provider-disjoint mediator shards.
#[derive(Debug)]
pub struct ShardedMediator {
    router: ShardRouter,
    shards: Vec<MediatorShard>,
    /// Reused batch-position permutation for the merged processing order.
    order_scratch: Vec<u32>,
}

/// One SbQA mediator per shard (at least one): shard `i` hosts an
/// [`SbqaAllocator`](sbqa_core::SbqaAllocator) seeded with `seed + i`, so
/// shard 0 of a single-shard service consumes exactly the RNG stream the
/// plain `Mediator::sbqa` of that seed would.
fn sbqa_mediators(config: &SystemConfig, seed: u64, shards: usize) -> SbqaResult<Vec<Mediator>> {
    config.validate()?;
    (0..shards.max(1) as u64)
        .map(|index| Mediator::sbqa(config.clone(), seed.wrapping_add(index)))
        .collect()
}

impl ShardedMediator {
    /// Builds a service with one shard per mediator, routed by `seed`.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] for an empty `mediators`.
    pub fn new(seed: u64, mediators: Vec<Mediator>) -> SbqaResult<Self> {
        let router = ShardRouter::new(mediators.len(), seed);
        let shards = mediators.into_iter().enumerate();
        let shards = shards.map(|(index, mediator)| MediatorShard::new(index, mediator));
        Self::from_shards(router, shards.collect())
    }

    /// Builds a sharded SbQA service of `shards` shards (raised to 1 if 0).
    ///
    /// # Errors
    ///
    /// Configuration validation errors.
    pub fn sbqa(config: SystemConfig, seed: u64, shards: usize) -> SbqaResult<Self> {
        Self::new(seed, sbqa_mediators(&config, seed, shards)?)
    }

    /// Reassembles a service from its router and shards — the inverse of
    /// [`into_shards`](Self::into_shards), which is how the shards of a
    /// finished [`MediationService`](crate::MediationService) come back to
    /// be crashed, checkpointed, driven inline or respawned.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] unless `shards` holds exactly the
    /// router's shards, in index order.
    pub fn from_shards(router: ShardRouter, shards: Vec<MediatorShard>) -> SbqaResult<Self> {
        let in_order = shards.iter().enumerate().all(|(i, s)| s.index() == i);
        if shards.len() != router.shards() || !in_order {
            return Err(SbqaError::invalid_config(format!(
                "{} shards do not fit a router of {}",
                shards.len(),
                router.shards()
            )));
        }
        Ok(Self {
            router,
            shards,
            order_scratch: Vec::new(),
        })
    }

    /// Decomposes the service into its router and shards — the handoff the
    /// threaded driver uses to move each shard into its mediation thread.
    #[must_use]
    pub fn into_shards(self) -> (ShardRouter, Vec<MediatorShard>) {
        (self.router, self.shards)
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

    /// One shard's instrumented view.
    #[must_use]
    pub fn shard(&self, index: usize) -> &MediatorShard {
        &self.shards[index]
    }

    /// Iterates over the shards in index order.
    pub fn shards(&self) -> impl Iterator<Item = &MediatorShard> {
        self.shards.iter()
    }

    /// Registers a provider with its owning shard; returns the shard index.
    pub fn register_provider(
        &mut self,
        id: ProviderId,
        capabilities: CapabilitySet,
        capacity: f64,
    ) -> usize {
        let shard = self.router.shard_of_provider(id);
        // A registration names no provider it needs to know: it cannot fail.
        let _ = self.shards[shard].mutate(RegistryDelta::Register {
            id,
            capabilities,
            capacity,
        });
        shard
    }

    /// Registers a consumer with every shard (its queries may route to any
    /// of them).
    pub fn register_consumer(&mut self, id: ConsumerId) {
        for shard in &mut self.shards {
            shard.register_consumer(id);
        }
    }

    /// Marks a provider online or offline at its owning shard.
    ///
    /// # Errors
    ///
    /// Unknown provider.
    pub fn set_provider_online(&mut self, id: ProviderId, online: bool) -> SbqaResult<()> {
        let shard = self.router.shard_of_provider(id);
        self.shards[shard].mutate(RegistryDelta::SetOnline { id, online })
    }

    /// Updates a provider's load state at its owning shard.
    ///
    /// # Errors
    ///
    /// Unknown provider.
    pub fn update_provider_load(
        &mut self,
        id: ProviderId,
        utilization: f64,
        queue_length: usize,
    ) -> SbqaResult<()> {
        let shard = self.router.shard_of_provider(id);
        self.shards[shard].mutate(RegistryDelta::UpdateLoad {
            id,
            utilization,
            queue_length,
        })
    }

    /// Total number of registered providers across all shards.
    #[must_use]
    pub fn provider_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.mediator().providers().len())
            .sum()
    }

    /// Enables adaptive `kn` on **every shard**: each shard hosts its own
    /// [`KnController`](sbqa_core::KnController) fed exclusively by the
    /// mediations *it* performed, so shards adapt independently to their own
    /// slice of the population (a hot shard can shrink its exploration while
    /// a cold one widens). One adaptation round per shard runs at every
    /// batch boundary: the [`submit_batch`](Self::submit_batch) call inline,
    /// the producer's chunk in the threaded driver.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] for an invalid controller
    /// configuration, or on a replicated service (see
    /// [`MediatorShard::enable_adaptive_kn`]).
    pub fn enable_adaptive_kn(&mut self, config: KnControllerConfig) -> SbqaResult<()> {
        self.shards
            .iter_mut()
            .try_for_each(|shard| shard.enable_adaptive_kn(config))
    }

    /// Arms **every shard** with a degradation ladder: each shard runs its
    /// own deterministic leaky bucket over the arrivals routed to it, so a
    /// hot shard can shed while a cold one still mediates at full quality.
    /// Shed queries are reported to the batch callback as
    /// [`SbqaError::QueryShed`] and tallied in the shards'
    /// [`DegradationStats`](sbqa_core::DegradationStats), not in the
    /// [`BatchReport`]. On a replicated shard every verdict is logged with
    /// its query, so a promotion replays admitted queries at their tier and
    /// skips the sheds.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] for an invalid ladder config.
    pub fn enable_degradation(&mut self, config: DegradationConfig) -> SbqaResult<()> {
        self.shards
            .iter_mut()
            .try_for_each(|shard| shard.enable_degradation(config))
    }

    /// Arms a standby behind **every shard** ([`MediatorShard::replicate`]).
    /// From here on [`crash_shard`](Self::crash_shard) can kill a shard's
    /// mediator mid-run and promote its standby without disturbing the
    /// others, under either driver.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] when adaptive `kn` is enabled.
    pub fn replicate(&mut self) -> SbqaResult<()> {
        self.shards
            .iter_mut()
            .try_for_each(MediatorShard::replicate)
    }

    /// Sets how many batches elapse between automatic checkpoints
    /// (default 4; 0 disables them, and promotion then replays everything
    /// since the last [`checkpoint_all`](Self::checkpoint_all)).
    pub fn set_checkpoint_interval(&mut self, batches: u64) {
        for shard in &mut self.shards {
            shard.set_checkpoint_interval(batches);
        }
    }

    /// Cuts a checkpoint on every replicated shard now.
    ///
    /// # Errors
    ///
    /// Propagates the first shard's [`MediatorShard::checkpoint`] error.
    pub fn checkpoint_all(&mut self) -> SbqaResult<()> {
        self.shards
            .iter_mut()
            .try_for_each(MediatorShard::checkpoint)
    }

    /// Kills shard `index`'s mediator and promotes its standby in place (the
    /// other shards are untouched). Returns the promotion's replay tallies.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] for a shard that does not exist
    /// or has no standby. Otherwise promotion replay errors; the shard then
    /// holds its original mediator, re-armed (see
    /// [`MediatorShard::promote`]), and the service keeps running.
    pub fn crash_shard(
        &mut self,
        index: usize,
        oracle: &dyn IntentionOracle,
    ) -> SbqaResult<ReplayReport> {
        self.shards
            .get_mut(index)
            .ok_or_else(|| SbqaError::invalid_config(format!("no shard {index}")))?
            .promote(oracle)
    }

    /// `true` if every standby's checkpoint, advanced by its log, is
    /// byte-identical to its shard's live registry
    /// ([`MediatorShard::standby_in_lockstep`]).
    #[must_use]
    pub fn standbys_in_lockstep(&self) -> bool {
        self.shards.iter().all(MediatorShard::standby_in_lockstep)
    }

    /// The pending replication fault of the lowest-indexed faulted shard.
    #[must_use]
    pub fn fault(&self) -> Option<&SbqaError> {
        self.shards.iter().find_map(MediatorShard::fault)
    }

    /// The shards' cumulative tallies, summed.
    fn tallied(&self) -> BatchReport {
        let mut total = BatchReport::default();
        for shard in &self.shards {
            total.merge(&shard.report());
        }
        total
    }

    /// Drains a batch of queries through the sharded pipeline.
    ///
    /// Queries are processed in `(issued_at, query id)` order (stable sort —
    /// ties keep batch order), each at its assigned shard
    /// ([`MediatorShard::submit`], taken in two phases over groups of
    /// queries, as the shard module describes); `on_result` is invoked once
    /// per query *in that merged order* with the query's original batch
    /// position and
    /// the borrowed decision, the starvation error or
    /// [`SbqaError::QueryShed`]. The call is the batch boundary: every shard
    /// runs one adaptation round before it and counts a batch towards its
    /// checkpoint cadence after it. Returns the batch tallies (also folded
    /// into the per-shard cumulative reports).
    ///
    /// # Errors
    ///
    /// A replication fault met by a query (see the module docs); per-query
    /// starvation and shedding are reported through `on_result`, not as
    /// errors. A fault the closing checkpoint cut meets is kept on its shard
    /// for the next batch. Without [`replicate`](Self::replicate) the call
    /// cannot fail.
    pub fn try_submit_batch<F>(
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

        let before = self.tallied();
        self.shards.iter_mut().for_each(MediatorShard::begin_batch);
        let Self {
            router,
            shards,
            order_scratch,
        } = self;
        let query_at = |index: usize| {
            let query = &queries[order_scratch[index] as usize];
            // sbqa-lint: allow(wall-clock, "latency stamp only; allocation and admission read VirtualTime")
            (router.shard_of_query(query.id), query, Instant::now())
        };
        submit_grouped(
            shards,
            queries.len(),
            query_at,
            oracle,
            |index, _, query, result| {
                on_result(order_scratch[index] as usize, query, result);
            },
        )?;
        self.shards.iter_mut().for_each(MediatorShard::end_batch);
        let after = self.tallied();
        Ok(BatchReport {
            mediated: after.mediated - before.mediated,
            starved: after.starved - before.starved,
        })
    }

    /// [`try_submit_batch`](Self::try_submit_batch) for a service that is
    /// not replicated and therefore cannot fault. On a replicated one a
    /// fault empties the returned tallies and is left on
    /// [`fault`](Self::fault).
    pub fn submit_batch<F>(
        &mut self,
        queries: &[Query],
        oracle: &dyn IntentionOracle,
        on_result: F,
    ) -> BatchReport
    where
        F: FnMut(usize, &Query, SbqaResult<&AllocationDecision>),
    {
        self.try_submit_batch(queries, oracle, on_result)
            .unwrap_or_default()
    }

    /// Immutable access to one shard's satisfaction registry.
    #[must_use]
    pub fn satisfaction(&self, shard: usize) -> &SatisfactionRegistry {
        self.shards[shard].mediator().satisfaction()
    }

    /// Snapshots every shard's view of the run
    /// ([`MediatorShard::report_snapshot`]).
    #[must_use]
    pub fn shard_reports(&self) -> Vec<ShardReport> {
        self.shards
            .iter()
            .map(MediatorShard::report_snapshot)
            .collect()
    }

    /// Re-partitions the service across `mediators.len()` shards **live**:
    /// every provider's full registry snapshot (capabilities, capacity, load
    /// columns, online flag) and its satisfaction tracker travel to the shard
    /// the re-seeded router assigns. There the snapshot is replayed in the
    /// log's delta vocabulary (`Register`, then `UpdateLoad`, then
    /// `SetOnline`) and the tracker is adopted window-intact — no provider is
    /// re-registered from the outside world, and no accumulated state
    /// (utilization, queue depth, offline flags, satisfaction windows) is
    /// lost in transit.
    ///
    /// `mediators` become the new shards (fresh allocators: each new shard's
    /// RNG stream starts at its seed, exactly as if the service had been
    /// built at this size — the resized service is deterministic, not a
    /// byte-continuation of the old one). Consumer registrations are
    /// re-created on every new shard with fresh satisfaction windows:
    /// consumer histories are per-shard views of the mediations *that shard*
    /// performed, which the new partition redistributes anyway. Provider
    /// windows, by contrast, describe the provider itself and travel with
    /// it. Ladders, standbys and controllers describe the old shards and do
    /// not travel: arm the resized service again.
    ///
    /// # Errors
    ///
    /// An empty `mediators`, or any error replaying a snapshot (in a
    /// correctly routed move the replay cannot fail); the service is
    /// consumed either way, so resize at a quiescent point.
    pub fn resize(self, mut mediators: Vec<Mediator>) -> SbqaResult<Self> {
        let seed = self.router.seed();
        let router = ShardRouter::new(mediators.len(), seed);
        // Per new shard: the providers it receives, in source order.
        let mut moving: Vec<Vec<_>> = (0..router.shards()).map(|_| Vec::new()).collect();
        let mut consumers: BTreeSet<ConsumerId> = BTreeSet::new();
        for shard in self.shards {
            let (_allocator, providers, mut satisfaction) = shard.into_mediator().into_parts();
            consumers.extend(satisfaction.consumer_satisfactions().map(|(id, _)| id));
            for snapshot in providers.iter() {
                let target = router.shard_of_provider(snapshot.id);
                let tracker = satisfaction.extract_provider(snapshot.id);
                moving[target].push((snapshot, tracker));
            }
        }
        for (mediator, providers) in mediators.iter_mut().zip(moving) {
            for &consumer in &consumers {
                mediator.register_consumer(consumer);
            }
            for (snapshot, tracker) in providers {
                let id = snapshot.id;
                mediator.mutate(&RegistryDelta::Register {
                    id,
                    capabilities: snapshot.capabilities,
                    capacity: snapshot.capacity,
                })?;
                mediator.mutate(&RegistryDelta::UpdateLoad {
                    id,
                    utilization: snapshot.utilization,
                    queue_length: snapshot.queue_length,
                })?;
                mediator.mutate(&RegistryDelta::SetOnline {
                    id,
                    online: snapshot.online,
                })?;
                if let Some(tracker) = tracker {
                    mediator.satisfaction_mut().adopt_provider(id, tracker);
                }
            }
        }
        Self::new(seed, mediators)
    }

    /// [`resize`](Self::resize) with SbQA mediators: new shard `i` hosts an
    /// allocator seeded with `router seed + i`, the same derivation
    /// [`ShardedMediator::sbqa`] uses, so a grown service is
    /// indistinguishable from one built at the new size with the same
    /// provider history.
    ///
    /// # Errors
    ///
    /// Configuration validation errors, or any [`resize`](Self::resize)
    /// handoff error.
    pub fn resize_sbqa(self, config: SystemConfig, new_shards: usize) -> SbqaResult<Self> {
        let mediators = sbqa_mediators(&config, self.router.seed(), new_shards)?;
        self.resize(mediators)
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

    impl ShardedMediator {
        /// [`MediatorShard::corrupt_log`] on shard `index`.
        pub(crate) fn corrupt_log(&self, index: usize) {
            self.shards[index].corrupt_log();
        }
    }

    fn service(shards: usize) -> ShardedMediator {
        let mut service =
            ShardedMediator::sbqa(SystemConfig::default().with_knbest(10, 3), 42, shards).unwrap();
        for p in 0..40u64 {
            service.register_provider(ProviderId::new(p), caps(0), 1.0);
        }
        service.register_consumer(ConsumerId::new(1));
        service
    }

    #[test]
    fn providers_land_on_exactly_one_shard() {
        let service = service(4);
        assert_eq!(service.shard_count(), 4);
        assert_eq!(service.provider_count(), 40);
        for p in 0..40u64 {
            let id = ProviderId::new(p);
            let owner = service.router().shard_of_provider(id);
            for shard in service.shards() {
                let present = shard.mediator().providers().get(id).is_some();
                assert_eq!(
                    present,
                    shard.index() == owner,
                    "provider {p} on shard {}",
                    shard.index()
                );
            }
        }
    }

    #[test]
    fn routed_operations_reach_the_owning_shard() {
        let mut service = service(4);
        let id = ProviderId::new(7);
        let owner = service.router().shard_of_provider(id);
        service.update_provider_load(id, 3.5, 2).unwrap();
        let snapshot = service.shard(owner).mediator().providers().get(id).unwrap();
        assert_eq!(snapshot.utilization, 3.5);
        service.set_provider_online(id, false).unwrap();
        assert!(
            !service
                .shard(owner)
                .mediator()
                .providers()
                .get(id)
                .unwrap()
                .online
        );
        // Unknown providers are an error, not a misroute.
        assert!(service
            .update_provider_load(ProviderId::new(999), 1.0, 1)
            .is_err());
    }

    #[test]
    fn a_replicated_shard_logs_only_effective_mutations() {
        let mut service = service(2);
        service.replicate().unwrap();
        let appended = |service: &ShardedMediator| -> u64 {
            let stats = service.shards().map(MediatorShard::replication_stats);
            stats.map(|stats| stats.last_appended).sum()
        };
        let id = ProviderId::new(7);
        service.register_provider(id, caps(1), 2.0);
        service.update_provider_load(id, 1.5, 3).unwrap();
        service.set_provider_online(id, false).unwrap();
        assert_eq!(appended(&service), 3, "one record per effective mutation");

        // A no-op flip and a mutation of an unknown provider change nothing.
        service.set_provider_online(id, false).unwrap();
        service
            .set_provider_online(ProviderId::new(8), true)
            .unwrap();
        let unknown = ProviderId::new(999);
        assert!(service.update_provider_load(unknown, 1.0, 1).is_err());
        assert!(service.set_provider_online(unknown, true).is_err());
        assert_eq!(appended(&service), 3, "nothing logged");
        assert!(service.standbys_in_lockstep());
    }

    #[test]
    fn batch_callback_sees_merged_time_then_id_order() {
        let mut service = service(2);
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));
        // Batch deliberately out of order.
        let queries = vec![query(5, 2.0), query(9, 1.0), query(3, 1.0), query(7, 2.0)];
        let mut seen = Vec::new();
        let report = service.submit_batch(&queries, &oracle, |pos, q, result| {
            assert!(result.is_ok());
            seen.push((pos, q.id.raw()));
        });
        assert_eq!(report.mediated, 4);
        assert_eq!(seen, vec![(2, 3), (1, 9), (0, 5), (3, 7)]);
    }

    #[test]
    fn batch_tallies_fold_into_shard_reports() {
        let mut service = service(2);
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));
        let queries = vec![
            query(1, 0.0),
            // Starves: nobody advertises capability 9.
            Query::builder(QueryId::new(2), ConsumerId::new(1), Capability::new(9))
                .issued_at(VirtualTime::new(0.0))
                .build(),
            query(3, 0.0),
        ];
        let report = service.submit_batch(&queries, &oracle, |_, _, _| {});
        assert_eq!(report.mediated, 2);
        assert_eq!(report.starved, 1);

        let shard_totals: BatchReport = {
            let mut total = BatchReport::default();
            for shard_report in service.shard_reports() {
                total.merge(&shard_report.report);
            }
            total
        };
        assert_eq!(shard_totals, report);
        let samples: usize = service.shards().map(|s| s.latency().count()).sum();
        assert_eq!(samples, 3);
    }

    #[test]
    fn resize_moves_provider_state_without_reregistering() {
        let mut service = service(2);
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));
        // Accumulate state the handoff must preserve: loads, an offline
        // provider and live satisfaction windows.
        service
            .update_provider_load(ProviderId::new(3), 2.5, 7)
            .unwrap();
        service
            .set_provider_online(ProviderId::new(11), false)
            .unwrap();
        let queries: Vec<Query> = (0..20u64).map(|i| query(i, i as f64)).collect();
        service.submit_batch(&queries, &oracle, |_, _, _| {});
        let before: f64 = (0..2)
            .map(|s| {
                service
                    .satisfaction(s)
                    .provider_satisfactions()
                    .map(|(_, sat)| sat.value())
                    .sum::<f64>()
            })
            .sum();

        let grown = service
            .resize_sbqa(SystemConfig::default().with_knbest(10, 3), 5)
            .unwrap();
        assert_eq!(grown.shard_count(), 5);
        assert_eq!(grown.provider_count(), 40);

        // Every provider landed on the new router's shard with its state.
        let moved = grown
            .shard(grown.router().shard_of_provider(ProviderId::new(3)))
            .mediator()
            .providers()
            .get(ProviderId::new(3))
            .unwrap();
        assert_eq!(moved.utilization, 2.5);
        assert_eq!(moved.queue_length, 7);
        assert!(
            !grown
                .shard(grown.router().shard_of_provider(ProviderId::new(11)))
                .mediator()
                .providers()
                .get(ProviderId::new(11))
                .unwrap()
                .online
        );
        // Provider satisfaction windows travelled with their providers.
        let after: f64 = (0..5)
            .map(|s| {
                grown
                    .satisfaction(s)
                    .provider_satisfactions()
                    .map(|(_, sat)| sat.value())
                    .sum::<f64>()
            })
            .sum();
        assert!(
            (before - after).abs() < 1e-12,
            "before {before}, after {after}"
        );
        // And shrinking back works too.
        let shrunk = grown
            .resize_sbqa(SystemConfig::default().with_knbest(10, 3), 1)
            .unwrap();
        assert_eq!(shrunk.provider_count(), 40);
        assert!(
            !shrunk
                .shard(0)
                .mediator()
                .providers()
                .get(ProviderId::new(11))
                .unwrap()
                .online
        );
    }

    #[test]
    fn resized_service_matches_one_built_at_the_new_size() {
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));
        let grown = service(2)
            .resize_sbqa(SystemConfig::default().with_knbest(10, 3), 4)
            .unwrap();
        let mut native = service(4);
        let mut resized = grown;
        // Same seed derivation, same provider population, no prior history:
        // the decision streams coincide.
        let queries: Vec<Query> = (0..30u64).map(|i| query(i, i as f64)).collect();
        let mut from_resized = Vec::new();
        let mut from_native = Vec::new();
        resized.submit_batch(&queries, &oracle, |_, q, r| {
            from_resized.push((q.id, r.map(|d| d.selected.clone()).ok()));
        });
        native.submit_batch(&queries, &oracle, |_, q, r| {
            from_native.push((q.id, r.map(|d| d.selected.clone()).ok()));
        });
        assert_eq!(from_resized, from_native);
    }

    #[test]
    fn from_shards_takes_back_exactly_what_into_shards_gave() {
        let (router, mut shards) = service(3).into_shards();
        let lost = shards.pop().unwrap();
        assert!(ShardedMediator::from_shards(router, shards).is_err());

        let (router, mut shards) = service(3).into_shards();
        shards.swap(0, 2);
        assert!(ShardedMediator::from_shards(router, shards).is_err());
        assert!(ShardedMediator::new(42, Vec::new()).is_err());

        let (router, shards) = service(3).into_shards();
        let back = ShardedMediator::from_shards(router, shards).unwrap();
        assert_eq!(back.provider_count(), 40);
        assert_eq!(lost.index(), 2);
    }

    #[test]
    fn an_unreplicated_shard_has_nothing_to_promote() {
        let mut service = service(2);
        let oracle = StaticIntentions::new();
        assert!(service.crash_shard(0, &oracle).is_err());
        assert!(service.checkpoint_all().is_ok());
        assert!(service.standbys_in_lockstep());
        assert!(service
            .shard_reports()
            .iter()
            .all(|r| r.replication.is_none()));
        // The mediator the failed crash found is the one it left.
        assert_eq!(service.provider_count(), 40);
    }
}
