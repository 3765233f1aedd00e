//! The standby: a promotable copy of a live mediator shard.
//!
//! A standby owns two things:
//!
//! * a **checkpoint** — the primary's forked allocator (RNG position
//!   intact) and the standby's own copies of the provider registry and the
//!   satisfaction registry, standing at a log watermark;
//! * a **tail + query journal** — the mutations and queries the primary
//!   processed after the checkpoint cut, in log order.
//!
//! Observing the log checks sequences and pushes mutations onto the tail,
//! unapplied: a record is applied only where the checkpoint moves (a
//! replaying cut, a promotion), so that is where one that does not apply is
//! met.
//!
//! A new checkpoint is cut **incrementally**
//! ([`cut_checkpoint`](StandbyShard::cut_checkpoint)): the registry copy is
//! advanced by the tail it already holds, the satisfaction copy receives the
//! trackers the primary touched since the last cut, and only the allocator
//! is forked. Where the changes since the last cut are at least as many as
//! the rows they would change (the first cut after a bulk load), that half
//! is copied whole from the primary instead of replayed —
//! O(min(changes, state)).
//!
//! On [`promote`](StandbyShard::promote) the checkpoint is rehydrated into a
//! [`Mediator`] and the tail and journal are replayed *interleaved by log
//! watermark* — the exact order the primary saw them. Interleaving is what
//! makes the promise byte-level: a mediation's decision depends on the
//! registry contents at that instant, its RNG consumption depends on whether
//! it starved, and the next decision depends on both, so deltas-then-queries
//! (or queries-then-deltas) would reconstruct a different mediator than the
//! one that crashed.

use sbqa_core::{
    Admission, IntentionOracle, Mediator, ProviderRegistry, QueryAllocator, RegistryDelta,
};
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_types::{ConsumerId, Query, SbqaError, SbqaResult};

use crate::log::{DeltaOp, DeltaRecord, SharedDeltaLog};
use crate::{apply_delta, registry_digest};

/// Tallies of one promotion's replay work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayReport {
    /// Tail mutations replayed into the checkpoint.
    pub deltas_replayed: usize,
    /// Journaled queries re-mediated successfully.
    pub queries_mediated: usize,
    /// Journaled queries that starved on replay (exactly the ones that
    /// starved on the primary: starvation is part of the decision stream).
    pub queries_starved: usize,
    /// Journaled queries the primary shed under overload: replay skips them
    /// without consuming RNG, exactly as the primary's admission control did.
    pub queries_shed: usize,
}

/// A promotable copy of one mediator shard.
pub struct StandbyShard {
    /// Checkpoint state, frozen at `watermark`.
    allocator: Box<dyn QueryAllocator>,
    providers: ProviderRegistry,
    satisfaction: SatisfactionRegistry,
    watermark: u64,
    /// The last log sequence observed.
    applied: u64,
    /// Mutations observed after `watermark`, in sequence order.
    tail: Vec<(u64, RegistryDelta)>,
    /// Queries the primary observed after the checkpoint — admitted *and*
    /// shed — each tagged with the log watermark in force when it arrived
    /// and with the primary's admission verdict. Replaying the verdict
    /// rather than re-running admission is what keeps promotion
    /// byte-identical under overload: replay mediates exactly the queries
    /// the primary admitted, at the tier it used, and skips the sheds.
    journal: Vec<(u64, Query, Admission)>,
    checkpoints: u64,
}

/// The allocator trait object carries no `Debug` bound; report the
/// technique name and the replication counters instead.
impl std::fmt::Debug for StandbyShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StandbyShard")
            .field("technique", &self.allocator.name())
            .field("watermark", &self.watermark)
            .field("applied", &self.applied)
            .field("tail_depth", &self.tail.len())
            .field("journal_depth", &self.journal.len())
            .field("checkpoints", &self.checkpoints)
            .finish_non_exhaustive()
    }
}

impl StandbyShard {
    /// Bootstraps a standby from a copy of a mediator's decomposed state
    /// (the [`Mediator::into_parts`] triple) cut at log watermark
    /// `watermark`.
    #[must_use]
    pub fn new(
        allocator: Box<dyn QueryAllocator>,
        providers: ProviderRegistry,
        satisfaction: SatisfactionRegistry,
        watermark: u64,
    ) -> Self {
        Self {
            allocator,
            providers,
            satisfaction,
            watermark,
            applied: watermark,
            tail: Vec::new(),
            journal: Vec::new(),
            checkpoints: 1,
        }
    }

    /// Observes one log record: a mutation joins the tail, unapplied.
    /// Records at or below the last observed sequence are duplicates and are
    /// skipped; a gap above it is an error — the log was pruned past this
    /// standby, which can then only be recovered by a fresh checkpoint.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] on a sequence gap, with the
    /// standby left as it was. A mutation that does not apply is met only
    /// where it is applied (a replaying cut, a promotion, a
    /// [`replay_digest`](Self::replay_digest)).
    pub fn observe(&mut self, record: &DeltaRecord) -> SbqaResult<()> {
        if record.sequence <= self.applied {
            return Ok(());
        }
        if record.sequence != self.applied + 1 {
            return Err(SbqaError::InvalidConfiguration {
                reason: format!(
                    "replication gap: standby observed {} but next record is {}",
                    self.applied, record.sequence
                ),
            });
        }
        if let DeltaOp::Mutation(delta) = record.op {
            self.tail.push((record.sequence, delta));
        }
        self.applied = record.sequence;
        Ok(())
    }

    /// Pulls every record the standby has not yet observed from the shared
    /// log. Returns the number of new records observed.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] when the log was pruned past this
    /// standby's watermark, or a [`StandbyShard::observe`] gap.
    pub fn catch_up(&mut self, log: &SharedDeltaLog) -> SbqaResult<usize> {
        let before = self.applied;
        log.visit_after(before, |record| self.observe(record))
            .ok_or_else(|| SbqaError::InvalidConfiguration {
                reason: format!("replication gap: log pruned past standby watermark {before}"),
            })??;
        Ok(usize::try_from(self.applied - before).unwrap_or(usize::MAX))
    }

    /// Journals a query with the admission verdict the primary decided for
    /// it (`Admit(Normal)` without a ladder), tagged with the current
    /// applied watermark so promotion can interleave it with the tail at
    /// exactly the primary's position. [`Admission::Shed`] entries replay as
    /// skips — no mediation, no RNG — so promotion under overload continues
    /// byte-identically.
    pub fn observe_query(&mut self, query: &Query, admission: Admission) {
        self.journal.push((self.applied, query.clone(), admission));
    }

    /// Mirrors a control-plane consumer registration. Consumer churn is not
    /// part of the registry delta stream, so the orchestrator forwards it
    /// synchronously; registration is idempotent on both sides.
    pub fn register_consumer(&mut self, id: ConsumerId) {
        self.satisfaction.register_consumer(id);
    }

    /// Cuts a fresh checkpoint of `primary` at log watermark `watermark`
    /// (the log's last sequence; the caller holds the primary still and has
    /// synced this standby up to it). Each half of the state is brought to
    /// the cut by whichever is shorter, replaying the changes since the
    /// previous cut or copying the state they would change:
    ///
    /// * the checkpoint registry is **advanced** — the tail records up to
    ///   `watermark` are applied to it in place and dropped. Mediation
    ///   changes nothing of a registry's replicated state (only its plan
    ///   cache, which is derived and decision-neutral), so every change
    ///   since the previous cut is in the tail. When the cut is at the
    ///   standby's position and the tail is at least as long as `primary`
    ///   has providers (the first cut after a bulk load), the registry
    ///   becomes a clone of `primary`'s instead, plan cache included. That
    ///   clone supersedes the tail, so a record in it that would not apply
    ///   is dropped unapplied, never met;
    /// * the checkpoint satisfaction registry receives exactly the trackers
    ///   `primary` touched since the previous cut, or a whole copy when
    ///   those are as many as its participants
    ///   ([`SatisfactionRegistry::sync_touched_into`]);
    /// * the allocator is forked (RNG position and configuration).
    ///
    /// All journaled queries are contained in the new checkpoint (cuts
    /// happen at batch boundaries), so the journal resets.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`], with the standby left exactly as
    /// it was, when `watermark` is below the installed checkpoint's
    /// (checkpoints move forward), when the standby has observed less than
    /// `watermark` (a `replication gap`: its tail cannot carry the registry
    /// to the cut), when the technique cannot fork, or when `primary`'s
    /// satisfaction registry is not tracking touched ids. A replayed tail
    /// record that does not apply is propagated, and it leaves the standby
    /// half-cut: the rule is that a standby whose cut failed is never cut or
    /// promoted again, only discarded (the service discards it at the next
    /// crash of its shard).
    pub fn cut_checkpoint(&mut self, primary: &mut Mediator, watermark: u64) -> SbqaResult<()> {
        if watermark < self.watermark {
            return Err(SbqaError::InvalidConfiguration {
                reason: format!(
                    "checkpoint cut at {watermark} is behind the installed checkpoint at {}",
                    self.watermark
                ),
            });
        }
        if watermark > self.applied {
            return Err(SbqaError::InvalidConfiguration {
                reason: format!(
                    "replication gap: checkpoint cut at {watermark} but standby observed {}",
                    self.applied
                ),
            });
        }
        let allocator =
            primary
                .fork_allocator()
                .ok_or_else(|| SbqaError::InvalidConfiguration {
                    reason: "primary's allocation technique cannot be checkpointed".to_string(),
                })?;
        primary
            .satisfaction_mut()
            .sync_touched_into(&mut self.satisfaction)
            .ok_or_else(|| SbqaError::InvalidConfiguration {
                reason: "primary's satisfaction registry does not track touched ids".to_string(),
            })?;
        let contained = self
            .tail
            .partition_point(|&(sequence, _)| sequence <= watermark);
        if watermark == self.applied && contained >= primary.providers().len() {
            self.providers = primary.providers().clone();
            self.tail.clear();
        } else {
            for (_, delta) in self.tail.drain(..contained) {
                delta.apply(&mut self.providers)?;
            }
        }
        self.allocator = allocator;
        self.watermark = watermark;
        self.journal.clear();
        self.checkpoints += 1;
        Ok(())
    }

    /// Promotes the standby into a live [`Mediator`] in the primary's exact
    /// pre-crash state: the checkpoint is rehydrated and the tail and query
    /// journal are replayed interleaved by log watermark.
    ///
    /// # Errors
    ///
    /// Any delta-application error (a corrupt or misrouted tail). Query
    /// starvation during replay is *not* an error — it is part of the
    /// decision stream being reproduced.
    pub fn promote(mut self, oracle: &dyn IntentionOracle) -> SbqaResult<(Mediator, ReplayReport)> {
        let mut mediator = Mediator::from_parts(self.allocator, self.providers, self.satisfaction);
        let mut report = ReplayReport::default();
        let mut deltas = self.tail.drain(..).peekable();
        for (watermark, query, admission) in self.journal.drain(..) {
            while let Some(&(sequence, delta)) = deltas.peek() {
                if sequence > watermark {
                    break;
                }
                apply_delta(&mut mediator, &delta)?;
                report.deltas_replayed += 1;
                deltas.next();
            }
            match admission {
                // The primary never mediated it; neither does replay.
                Admission::Shed => report.queries_shed += 1,
                Admission::Admit(tier) => {
                    if mediator.submit_at(&query, oracle, tier).is_ok() {
                        report.queries_mediated += 1;
                    } else {
                        report.queries_starved += 1;
                    }
                }
            }
        }
        for (_, delta) in deltas {
            apply_delta(&mut mediator, &delta)?;
            report.deltas_replayed += 1;
        }
        Ok((mediator, report))
    }

    /// The log watermark of the installed checkpoint.
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The last log sequence observed.
    #[must_use]
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Mutations buffered past the checkpoint.
    #[must_use]
    pub fn tail_depth(&self) -> usize {
        self.tail.len()
    }

    /// Queries journaled since the checkpoint.
    #[must_use]
    pub fn journal_depth(&self) -> usize {
        self.journal.len()
    }

    /// Checkpoints this standby has held (the bootstrap counts as the
    /// first).
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// The checkpoint's provider registry and satisfaction registry, as of
    /// [`StandbyShard::watermark`].
    #[must_use]
    pub fn checkpoint(&self) -> (&ProviderRegistry, &SatisfactionRegistry) {
        (&self.providers, &self.satisfaction)
    }

    /// Digest (see [`registry_digest`]) of the registry a promotion would
    /// reach: a copy of the checkpoint's, advanced by the whole tail. Equal
    /// to the live registry's digest whenever snapshot + replay reproduces
    /// it. A check run on demand; it costs a registry clone.
    ///
    /// # Errors
    ///
    /// A tail record that does not apply to the checkpoint.
    pub fn replay_digest(&self) -> SbqaResult<u64> {
        let mut providers = self.providers.clone();
        for (_, delta) in &self.tail {
            delta.apply(&mut providers)?;
        }
        Ok(registry_digest(&providers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::satisfaction_digest;
    use sbqa_core::{DegradationTier, StaticIntentions};
    use sbqa_types::{
        Capability, CapabilityRequirement, CapabilitySet, Intention, ProviderId, QueryId,
        SystemConfig,
    };

    /// An empty mediator armed the way `MediatorShard::replicate` arms one,
    /// then loaded through its log — 40 providers, a consumer registered on
    /// both sides, one provider gone, mediations and load writes — with its
    /// standby caught up.
    fn bulk_loaded() -> (Mediator, SharedDeltaLog, StandbyShard) {
        let config = SystemConfig::default().with_knbest(4, 2).with_window(3);
        let mut primary = Mediator::sbqa(config, 7).expect("valid config");
        let log = SharedDeltaLog::new();
        let mut standby = StandbyShard::new(
            primary.fork_allocator().expect("SbQA forks"),
            primary.providers().clone(),
            primary.satisfaction().clone(),
            log.last_sequence(),
        );
        primary.set_delta_sink(Box::new(log.clone()));
        primary.satisfaction_mut().track_touched();

        for id in 0..40u64 {
            let class = Capability::new((id % 3) as u8);
            primary.register_provider(ProviderId::new(id), CapabilitySet::singleton(class), 1.0);
        }
        primary.register_consumer(ConsumerId::new(0));
        standby.register_consumer(ConsumerId::new(0));
        primary.unregister_provider(ProviderId::new(5));
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(-0.3));
        for id in 0..6u64 {
            standby.catch_up(&log).expect("contiguous log");
            let class = CapabilitySet::singleton(Capability::new((id % 3) as u8));
            let query = Query::requiring(
                QueryId::new(id),
                ConsumerId::new(0),
                CapabilityRequirement::All(class),
            )
            .build();
            let admitted = Admission::Admit(DegradationTier::Normal);
            standby.observe_query(&query, admitted);
            primary
                .submit_in_place(&query, &oracle)
                .expect("capable providers");
            primary
                .update_provider_load(ProviderId::new(10 + id), id as f64, 1)
                .expect("registered");
        }
        standby.catch_up(&log).expect("contiguous log");
        (primary, log, standby)
    }

    #[test]
    fn a_copying_cut_and_a_replaying_cut_of_one_history_agree() {
        let (mut copying_primary, copying_log, mut copying) = bulk_loaded();
        let (mut replaying_primary, replaying_log, mut replaying) = bulk_loaded();
        let watermark = copying_log.last_sequence();

        // At the standby's position with a tail longer than the primary's
        // registry: the registry is copied from the primary.
        assert_eq!(copying.applied(), watermark);
        assert!(copying.tail_depth() >= copying_primary.providers().len());
        copying
            .cut_checkpoint(&mut copying_primary, watermark)
            .expect("a synced standby cuts");

        // This standby has observed one record past the cut, a snapshot mark
        // that changes no state; the cut is not at its position, so the same
        // tail is replayed into the registry.
        replaying_log.mark_snapshot();
        replaying.catch_up(&replaying_log).expect("contiguous log");
        assert!(replaying.applied() > watermark);
        replaying
            .cut_checkpoint(&mut replaying_primary, watermark)
            .expect("a standby ahead of the cut cuts");

        let primary = primary_digests(&copying_primary);
        assert_eq!(checkpoint_digests(&copying), primary);
        assert_eq!(checkpoint_digests(&replaying), primary);
        for standby in [&copying, &replaying] {
            assert_eq!((standby.watermark(), standby.tail_depth()), (watermark, 0));
            assert_eq!(standby.journal_depth(), 0);
        }
    }

    fn checkpoint_digests(standby: &StandbyShard) -> (u64, u64) {
        let (providers, satisfaction) = standby.checkpoint();
        (
            registry_digest(providers),
            satisfaction_digest(satisfaction),
        )
    }

    fn primary_digests(primary: &Mediator) -> (u64, u64) {
        (
            registry_digest(primary.providers()),
            satisfaction_digest(primary.satisfaction()),
        )
    }

    /// Appends the departure of a provider nobody registered: a record that
    /// applies to no registry of this history. Observing it is a sequence
    /// check only, so the standby takes it into its tail.
    fn observe_misrouted(log: &SharedDeltaLog, standby: &mut StandbyShard) {
        log.append_mutation(RegistryDelta::Unregister {
            id: ProviderId::new(9_999),
        });
        standby.catch_up(log).expect("contiguous log");
    }

    #[test]
    fn a_replaying_cut_meets_a_record_that_does_not_apply() {
        let (mut primary, log, mut standby) = bulk_loaded();
        // The first cut copies the bulk load, so the next tail is short.
        standby
            .cut_checkpoint(&mut primary, log.last_sequence())
            .expect("a synced standby cuts");
        primary
            .update_provider_load(ProviderId::new(1), 2.0, 1)
            .expect("registered");
        observe_misrouted(&log, &mut standby);
        assert!(standby.tail_depth() < primary.providers().len());

        let error = standby
            .cut_checkpoint(&mut primary, log.last_sequence())
            .expect_err("the tail is replayed");
        assert!(
            matches!(error, SbqaError::UnknownProvider { .. }),
            "{error}"
        );
    }

    #[test]
    fn a_copying_cut_supersedes_a_record_that_does_not_apply() {
        let (mut primary, log, mut standby) = bulk_loaded();
        observe_misrouted(&log, &mut standby);
        assert!(standby.tail_depth() >= primary.providers().len());

        standby
            .cut_checkpoint(&mut primary, log.last_sequence())
            .expect("the tail is copied over, not replayed");
        assert_eq!(checkpoint_digests(&standby), primary_digests(&primary));
        assert_eq!(standby.tail_depth(), 0);
    }

    #[test]
    fn replay_digest_meets_a_record_that_does_not_apply_before_any_cut() {
        let (primary, log, mut standby) = bulk_loaded();
        assert_eq!(
            standby.replay_digest(),
            Ok(registry_digest(primary.providers()))
        );

        observe_misrouted(&log, &mut standby);
        assert_eq!(standby.checkpoints(), 1);
        let error = standby.replay_digest().expect_err("the tail is replayed");
        assert!(
            matches!(error, SbqaError::UnknownProvider { .. }),
            "{error}"
        );
    }
}
