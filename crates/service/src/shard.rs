//! One shard of the mediation service.
//!
//! A [`MediatorShard`] is a full [`Mediator`] (provider registry +
//! satisfaction registry + allocation technique) over its slice of the
//! provider population, plus everything the service keeps *about* it:
//! cumulative [`BatchReport`] tallies, a [`LatencyRecorder`], an optional
//! [`DegradationLadder`] and an optional standby behind a log of everything
//! the shard did: the registry's effective mutations, each offered query
//! with its admission verdict and each consumer registration. The shard is
//! that log's one writer, and between two checkpoints a replicated shard
//! only appends to it.
//!
//! The split is the crash boundary. [`MediatorShard::promote`] replaces the
//! `mediator` field — registry, satisfaction state, allocator RNG — with the
//! standby's replay of it and re-arms replication; the ladder, the tallies,
//! the latency samples and the batch cadence are not part of what crashes
//! and stay where they are.
//!
//! The shard does not know how queries reach it: the inline
//! [`ShardedMediator`](crate::ShardedMediator) and the threaded
//! [`MediationService`](crate::MediationService) both drive its per-query
//! step ([`MediatorShard::submit`]) through one batch step that takes it in
//! two phases over a group of queries, and call
//! [`begin_batch`](MediatorShard::begin_batch) /
//! [`end_batch`](MediatorShard::end_batch) around each batch, so they
//! produce identical decisions and comparable latency samples.

use std::time::Instant;

use sbqa_core::allocator::{AllocationDecision, IntentionOracle};
use sbqa_core::{
    Admission, BatchReport, DegradationConfig, DegradationLadder, DegradationTier,
    KnControllerConfig, Mediator, QueryAllocator, RegistryDelta, SELECT_GROUP,
};
use sbqa_metrics::LatencyRecorder;
use sbqa_replication::{
    registry_digest, ReplayReport, ReplicationStats, SharedDeltaLog, StandbyShard,
};
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_types::{ConsumerId, Query, SbqaError, SbqaResult};

use crate::report::ShardReport;

/// Default number of batches between automatic checkpoints.
const DEFAULT_CHECKPOINT_INTERVAL: u64 = 4;

/// The standby side of a replicated shard: the shard's log, the standby
/// checkpoint it carries forward, and the first replication fault met.
#[derive(Debug)]
struct Replica {
    log: SharedDeltaLog,
    standby: StandbyShard,
    fault: Option<SbqaError>,
}

impl Replica {
    /// Keeps the first error of the stream on the shard until it is
    /// re-armed.
    fn keep_fault(&mut self, result: SbqaResult<()>) -> SbqaResult<()> {
        if let Err(fault) = &result {
            self.fault.get_or_insert_with(|| fault.clone());
        }
        result
    }
}

/// The one place a replication fault surfaces: the kept fault, if any.
fn check(fault: Option<&SbqaError>) -> SbqaResult<()> {
    fault.cloned().map_or(Ok(()), Err)
}

/// A mediator shard: one [`Mediator`] plus the service-side state around it.
#[derive(Debug)]
pub struct MediatorShard {
    index: usize,
    /// What a crash takes; every other field survives a promotion.
    mediator: Mediator,
    tallies: BatchReport,
    latency: LatencyRecorder,
    /// Overload admission control; `None` (the default) admits everything
    /// at [`DegradationTier::Normal`].
    ladder: Option<DegradationLadder>,
    replica: Option<Replica>,
    promotions: u64,
    batches: u64,
    /// Batches between automatic checkpoints of a replicated shard.
    checkpoint_interval: u64,
}

impl MediatorShard {
    /// Wraps a mediator as shard `index`.
    #[must_use]
    pub fn new(index: usize, mediator: Mediator) -> Self {
        Self {
            index,
            mediator,
            tallies: BatchReport::default(),
            latency: LatencyRecorder::new(),
            ladder: None,
            replica: None,
            promotions: 0,
            batches: 0,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
        }
    }

    /// Arms the shard with a degradation ladder: every subsequent
    /// [`submit`](Self::submit) runs the query through the deterministic
    /// leaky bucket before mediation. Arming again restarts the bucket.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] for an invalid ladder config.
    pub fn enable_degradation(&mut self, config: DegradationConfig) -> SbqaResult<()> {
        self.ladder = Some(DegradationLadder::new(config)?);
        Ok(())
    }

    /// Enables adaptive `kn` on the shard's mediator.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] for an invalid controller
    /// configuration, or on a replicated shard: a checkpoint does not carry
    /// the controller, so the first promotion would silently drop it.
    pub fn enable_adaptive_kn(&mut self, config: KnControllerConfig) -> SbqaResult<()> {
        if self.replica.is_some() {
            return Err(SbqaError::invalid_config(
                "adaptive kn is not checkpointed and cannot be enabled on a replicated shard",
            ));
        }
        self.mediator.enable_adaptive_kn(config)
    }

    /// Arms replication: a standby is bootstrapped from the mediator's
    /// current state, the shard starts writing a fresh log and the
    /// satisfaction registry starts tracking the ids it touches (which is
    /// what lets every later [`checkpoint`](Self::checkpoint) be cut
    /// incrementally).
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] when adaptive `kn` is enabled: a
    /// checkpoint does not carry the controller, so the run would silently
    /// diverge after a failover.
    pub fn replicate(&mut self) -> SbqaResult<()> {
        if self.mediator.adaptive_kn().is_some() {
            return Err(SbqaError::invalid_config(
                "adaptive kn is not checkpointed and cannot be replicated",
            ));
        }
        let allocator = self.mediator.fork_allocator();
        // Nothing to reuse yet: the copy goes into an empty registry.
        self.arm(allocator, SatisfactionRegistry::new(1));
        Ok(())
    }

    /// The arming itself: the standby's checkpoint is a clone of the live
    /// registry and a copy of the live satisfaction registry written into
    /// `memory`, a registry the shard has no further use for (the dead
    /// primary's, on a promotion), with `clone_from`: its windows, rows and
    /// pool chunks are reused and none of their contents is read.
    fn arm(&mut self, allocator: Box<dyn QueryAllocator>, mut memory: SatisfactionRegistry) {
        let log = SharedDeltaLog::new();
        memory.clone_from(self.mediator.satisfaction());
        let standby = StandbyShard::new(
            allocator,
            self.mediator.providers().clone(),
            memory,
            log.last_sequence(),
        );
        self.mediator.satisfaction_mut().track_touched();
        self.replica = Some(Replica {
            log,
            standby,
            fault: None,
        });
    }

    /// Sets how many batches elapse between automatic checkpoints of a
    /// replicated shard (0 disables them; promotion then replays everything
    /// since the last explicit [`checkpoint`](Self::checkpoint)).
    pub fn set_checkpoint_interval(&mut self, batches: u64) {
        self.checkpoint_interval = batches;
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

    /// The live mediator.
    #[must_use]
    pub fn mediator(&self) -> &Mediator {
        &self.mediator
    }

    /// The shard itself: `shard.primary().mediator()` names the live
    /// mediator of a replicated shard, as opposed to its standby's copy.
    #[must_use]
    pub fn primary(&self) -> &Self {
        self
    }

    /// Cumulative tallies of every query this shard has mediated, across
    /// promotions.
    #[must_use]
    pub fn report(&self) -> BatchReport {
        self.tallies
    }

    /// The per-query latency samples recorded so far, across promotions.
    #[must_use]
    pub fn latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    /// The first replication fault this shard's standby met since it was
    /// last armed, where a checkpoint cut reads the log: a sequence gap, or
    /// a logged mutation that does not apply. A faulted shard accepts no
    /// query and cuts no checkpoint until [`promote`](Self::promote) has
    /// re-armed it.
    #[must_use]
    pub fn fault(&self) -> Option<&SbqaError> {
        self.replica.as_ref()?.fault.as_ref()
    }

    /// Registers a consumer on the mediator and appends the registration to
    /// a replicated shard's log.
    pub fn register_consumer(&mut self, id: ConsumerId) {
        self.mediator.register_consumer(id);
        if let Some(replica) = &self.replica {
            replica.log.append_consumer(id);
        }
    }

    /// Applies a registry mutation (registration, load, online flag) to the
    /// mediator ([`Mediator::mutate`]) and appends it to a replicated
    /// shard's log if it was effective: a no-op online flip is not logged.
    ///
    /// # Errors
    ///
    /// [`SbqaError::UnknownProvider`] for a mutation of a provider the shard
    /// does not host; nothing is logged.
    pub(crate) fn mutate(&mut self, delta: RegistryDelta) -> SbqaResult<()> {
        if self.mediator.mutate(&delta)? {
            if let Some(replica) = &self.replica {
                replica.log.append_mutation(delta);
            }
        }
        Ok(())
    }

    /// The per-query step: take the ladder's verdict, log it with the
    /// query on a replicated shard, mediate at the admitted tier, tally and
    /// record the latency as measured from `start`.
    ///
    /// The inner result is the query's outcome: the decision (borrowing the
    /// mediator's scratch until the next mediation), a starvation, or
    /// [`SbqaError::QueryShed`]. Sheds are not tallied in the
    /// [`BatchReport`] — conservation is `offered = mediated + starved +
    /// shed`, the shed count living in the ladder's stats. Callers must
    /// offer queries in `(issued_at, id)` order per shard. Both drivers take
    /// this step in two phases over many queries at once (the batch step the
    /// module docs describe), deciding exactly what it decides.
    ///
    /// # Errors
    ///
    /// A replication fault ([`fault`](Self::fault)), in which case the query
    /// was neither admitted, logged, mediated, tallied nor timed.
    pub fn submit(
        &mut self,
        query: &Query,
        oracle: &dyn IntentionOracle,
        start: Instant,
    ) -> SbqaResult<SbqaResult<&AllocationDecision>> {
        let admission = self.select(query)?;
        Ok(self.score(query, admission, oracle, start))
    }

    /// The select phase of [`submit`](Self::submit): the fault check, the
    /// ladder's verdict, its log append and, for an admitted query, the
    /// mediator's select phase ([`Mediator::select_at`]). Returns the
    /// verdict, for [`score`](Self::score).
    fn select(&mut self, query: &Query) -> SbqaResult<Admission> {
        check(self.fault())?;
        let admission = match &mut self.ladder {
            None => Admission::Admit(DegradationTier::Normal),
            Some(ladder) => ladder.observe_arrival(query.issued_at),
        };
        if let Some(replica) = &self.replica {
            replica.log.append_query(query, admission);
        }
        if let Admission::Admit(tier) = admission {
            self.mediator.select_at(query, tier);
        }
        Ok(admission)
    }

    /// The score phase of [`submit`](Self::submit) for the oldest query
    /// [`select`](Self::select) took, under the verdict it returned.
    fn score(
        &mut self,
        query: &Query,
        admission: Admission,
        oracle: &dyn IntentionOracle,
        start: Instant,
    ) -> SbqaResult<&AllocationDecision> {
        if admission == Admission::Shed {
            self.latency.record(start.elapsed());
            return Err(SbqaError::QueryShed { query: query.id });
        }
        let result = self.mediator.score_next(query, oracle);
        self.latency.record(start.elapsed());
        match &result {
            Ok(_) => self.tallies.mediated += 1,
            Err(_) => self.tallies.starved += 1,
        }
        result
    }

    /// Opens a batch: one adaptive-`kn` round (a no-op without a
    /// controller), mirroring `Mediator::submit_batch`.
    pub fn begin_batch(&mut self) {
        self.mediator.adapt_kn();
    }

    /// Closes a batch: a replicated shard cuts a checkpoint every
    /// [`checkpoint interval`](Self::set_checkpoint_interval) batches, here
    /// and nowhere else, so a cut never splits a mediation. A fault the cut
    /// meets is kept on the shard like every other
    /// ([`fault`](Self::fault)): the next query routed here meets it.
    pub fn end_batch(&mut self) {
        self.batches += 1;
        if self.replica.is_some()
            && self.checkpoint_interval > 0
            && self.batches.is_multiple_of(self.checkpoint_interval)
        {
            let _ = self.checkpoint();
        }
    }

    /// Cuts a fresh checkpoint of the live mediator into the standby at the
    /// log's end, incrementally ([`StandbyShard::cut_checkpoint`]: the
    /// standby's registry copy advances by the logged mutations, its
    /// satisfaction copy by what the participants touched since the last
    /// cut recorded, and either half is copied whole when its changes
    /// outnumber its rows), and prunes the log up to the cut: the replay
    /// window restarts empty. A no-op without a standby.
    ///
    /// # Errors
    ///
    /// A replication fault, kept on the shard ([`fault`](Self::fault)): the
    /// pending one, a gap or a logged mutation the cut's replay meets. A
    /// record that fails mid-replay leaves the standby half-cut, so a
    /// faulted standby is never cut or promoted again; the next
    /// [`promote`](Self::promote) discards it.
    pub fn checkpoint(&mut self) -> SbqaResult<()> {
        let Some(replica) = &mut self.replica else {
            return Ok(());
        };
        check(replica.fault.as_ref())?;
        let cut = replica
            .standby
            .cut_checkpoint(&mut self.mediator, &replica.log);
        replica.keep_fault(cut)
    }

    /// Kills the mediator and promotes the standby **in place**: the standby
    /// replays its checkpoint + the log past it into a fresh mediator, which
    /// replaces the live one — registry, satisfaction state and RNG are
    /// gone, and the promotion has read none of them — and replication is
    /// re-armed around it (new log, new bootstrap checkpoint). The decision
    /// stream continues byte-identically; nothing else on the shard changes.
    ///
    /// The re-arm goes into the dead mediator's memory: it is taken apart
    /// ([`Mediator::into_parts`]), its provider registry is freed before
    /// the live one is cloned, and the new standby's satisfaction copy is
    /// written into its satisfaction registry's buffers
    /// ([`SatisfactionRegistry::clone_from`]), which overwrites them all and
    /// reads none — what the dead primary held never reaches the standby.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] without a standby. Otherwise the
    /// shard's pending fault, met before any replay, or the promotion's
    /// replay error (a gapped or faulted log). Either way the crash is
    /// called off: the broken standby and its log are discarded and
    /// replication is re-armed around the untouched mediator.
    pub fn promote(&mut self, oracle: &dyn IntentionOracle) -> SbqaResult<ReplayReport> {
        // Forked before anything is taken apart, for the calling-off path.
        let spare = self.mediator.fork_allocator();
        let Some(Replica {
            log,
            standby,
            fault,
        }) = self.replica.take()
        else {
            return Err(SbqaError::invalid_config(format!(
                "shard {} has no standby to promote",
                self.index
            )));
        };
        let promotion = check(fault.as_ref())
            .and_then(|()| standby.promote(&log, oracle))
            .map(|(mediator, report)| (mediator.fork_allocator(), mediator, report));
        match promotion {
            Ok((allocator, mediator, report)) => {
                // The crash: the live mediator is taken apart, its
                // satisfaction registry kept only as memory to re-arm into.
                let (_, dead, memory) =
                    std::mem::replace(&mut self.mediator, mediator).into_parts();
                drop(dead);
                self.arm(allocator, memory);
                self.promotions += 1;
                Ok(report)
            }
            Err(error) => {
                self.arm(spare, SatisfactionRegistry::new(1));
                Err(error)
            }
        }
    }

    /// `true` if the standby's checkpoint, advanced by the logged mutations
    /// past it ([`StandbyShard::replay_digest`]), is byte-identical (slab
    /// layout, load columns, online flags) to the live registry right now;
    /// vacuously `true` without a standby. Costs a registry clone.
    #[must_use]
    pub fn standby_in_lockstep(&self) -> bool {
        self.replica.as_ref().is_none_or(|replica| {
            replica.standby.replay_digest(&replica.log)
                == Ok(registry_digest(self.mediator.providers()))
        })
    }

    /// The shard's replication counters (all zero without a standby).
    #[must_use]
    pub fn replication_stats(&self) -> ReplicationStats {
        let Some(Replica { log, standby, .. }) = &self.replica else {
            return ReplicationStats::default();
        };
        let last_appended = log.last_sequence();
        ReplicationStats {
            log_depth: log.depth(),
            last_appended,
            replay_lag: last_appended.saturating_sub(standby.watermark()),
            checkpoints: standby.checkpoints(),
            promotions: self.promotions,
        }
    }

    /// The shard's adaptive-`kn` trajectory: every width change its
    /// controller recorded, in adaptation order. Empty when adaptation is
    /// disabled.
    #[must_use]
    pub fn kn_trail(&self) -> Vec<sbqa_core::KnAdjustment> {
        self.mediator
            .adaptive_kn()
            .map(|controller| controller.trail().to_vec())
            .unwrap_or_default()
    }

    /// Snapshots this shard's view of a run: tallies, latency distribution,
    /// adaptive-`kn` trajectory, plan-cache, replication and degradation
    /// counters, and the replication fault if one is pending.
    #[must_use]
    pub fn report_snapshot(&self) -> ShardReport {
        ShardReport {
            shard: self.index,
            report: self.tallies,
            latency: self.latency.clone(),
            kn_trail: self.kn_trail(),
            cache: self.mediator.plan_cache_stats(),
            replication: self.replica.as_ref().map(|_| self.replication_stats()),
            degradation: self.ladder.as_ref().map(DegradationLadder::stats),
            fault: self.fault().cloned(),
        }
    }

    /// Unwraps the shard back into its mediator, dropping the
    /// instrumentation, the standby and its log.
    #[must_use]
    pub fn into_mediator(self) -> Mediator {
        self.mediator
    }
}

/// The batch step of both drivers: [`MediatorShard::submit`] for `len`
/// queries — query `i` is `query_at(i)`, its shard, the query and the
/// instant its latency counts from (the threaded driver passes the
/// *enqueue* instant, so its samples include queueing; the inline one the
/// instant it asks, as the query's select phase starts) — in two phases. The
/// select phases of up to [`SELECT_GROUP`] queries run first, in order, cut
/// short only by a replication fault; then their score phases run in the
/// same order, each outcome going to `on_result` with the query's index and
/// shard. Every shard sees its queries in the order given, the ladder's
/// verdicts and log appends included, so each decides what per-query
/// submits would; only the reads of up to a group's worth of queries are in
/// flight together. The group is kept small because the first outcome of a
/// group waits for all of its select phases.
///
/// # Errors
///
/// A replication fault met by a query: the queries before it are scored and
/// reported, it and the rest are neither.
pub(crate) fn submit_grouped<'q>(
    shards: &mut [MediatorShard],
    len: usize,
    mut query_at: impl FnMut(usize) -> (usize, &'q Query, Instant),
    oracle: &dyn IntentionOracle,
    mut on_result: impl FnMut(usize, usize, &Query, SbqaResult<&AllocationDecision>),
) -> SbqaResult<()> {
    let mut group = [None; SELECT_GROUP];
    let mut scored = 0;
    while scored < len {
        let mut selected = scored;
        let mut fault = None;
        while selected < len && selected - scored < SELECT_GROUP {
            let (shard, query, start) = query_at(selected);
            match shards[shard].select(query) {
                Ok(admission) => {
                    group[selected - scored] = Some((shard, query, admission, start));
                    selected += 1;
                }
                Err(error) => {
                    fault = Some(error);
                    break;
                }
            }
        }
        for (index, slot) in (scored..).zip(&group[..selected - scored]) {
            if let Some((shard, query, admission, start)) = *slot {
                let result = shards[shard].score(query, admission, oracle, start);
                on_result(index, shard, query, result);
            }
        }
        if let Some(fault) = fault {
            return Err(fault);
        }
        scored = selected;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::StaticIntentions;
    use sbqa_types::{
        Capability, CapabilitySet, ConsumerId, Intention, ProviderId, QueryId, SystemConfig,
    };

    fn shard_with_providers(n: u64) -> MediatorShard {
        let mut mediator = Mediator::sbqa(SystemConfig::default().with_knbest(10, 3), 5).unwrap();
        for p in 0..n {
            mediator.register_provider(
                ProviderId::new(p),
                CapabilitySet::singleton(Capability::new(0)),
                1.0,
            );
        }
        mediator.register_consumer(ConsumerId::new(1));
        MediatorShard::new(2, mediator)
    }

    fn query(id: u64, class: u8) -> Query {
        Query::builder(QueryId::new(id), ConsumerId::new(1), Capability::new(class)).build()
    }

    impl MediatorShard {
        /// Corrupts the shard's replication stream the way a misrouted
        /// record would: the departure of a provider nobody registered.
        pub(crate) fn corrupt_log(&self) {
            let replica = self.replica.as_ref().expect("replicated shard");
            replica.log.append_mutation(RegistryDelta::Unregister {
                id: ProviderId::new(9_999),
            });
        }

        fn submit_now(
            &mut self,
            query: &Query,
            oracle: &dyn IntentionOracle,
        ) -> SbqaResult<&AllocationDecision> {
            self.submit(query, oracle, Instant::now())
                .expect("no replication fault")
        }
    }

    #[test]
    fn shard_tallies_and_times_every_mediation() {
        let mut shard = shard_with_providers(5);
        assert_eq!(shard.index(), 2);
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));

        assert!(shard.submit_now(&query(1, 0), &oracle).is_ok());
        // Capability 9 is advertised by nobody: a starvation.
        assert!(shard.submit_now(&query(2, 9), &oracle).is_err());
        assert!(shard.submit_now(&query(3, 0), &oracle).is_ok());

        assert_eq!(shard.report().mediated, 2);
        assert_eq!(shard.report().starved, 1);
        assert_eq!(shard.report().submitted(), 3);
        // Every query — mediated or starved — contributes a latency sample.
        assert_eq!(shard.latency().count(), 3);
    }

    #[test]
    fn shard_decisions_match_the_plain_mediator() {
        let mut shard = shard_with_providers(8);
        let mut plain = shard_with_providers(8).into_mediator();
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.3), Intention::new(0.7));
        for id in 0..50u64 {
            let q = query(id, 0);
            let expected = plain.submit(&q, &oracle).unwrap().decision;
            let got = shard.submit_now(&q, &oracle).unwrap();
            assert_eq!(&expected, got, "query {id}");
        }
    }
}
