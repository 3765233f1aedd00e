//! The standby: a promotable checkpoint of a live mediator shard.
//!
//! A standby is a **checkpoint** — the primary's forked allocator (RNG
//! position intact) and the standby's own copies of the provider registry
//! and the satisfaction registry, standing at a log watermark. Everything
//! the shard did after it is in the shard's [log](crate::log): registry
//! mutations, offered queries with their admission verdicts, consumer
//! registrations. The standby keeps no copy of that log and reads it at
//! three moments only: a cut, a promotion and a
//! [`replay_digest`](StandbyShard::replay_digest). Every read checks that
//! the log carries the checkpoint forward without a gap.
//!
//! A new checkpoint is cut **incrementally**
//! ([`cut_checkpoint`](StandbyShard::cut_checkpoint)) at the log's end: the
//! registry copy is advanced by the mutations logged since the last cut, the
//! satisfaction copy receives what the participants the primary touched
//! recorded since the last cut, and only the allocator is forked. Where the
//! changes since the last cut are at least as many as the rows they would
//! change (the first cut after a bulk load), that half is copied whole from
//! the primary instead of replayed — O(min(changes, state)). The cut then
//! prunes the log up to itself.
//!
//! On [`promote`](StandbyShard::promote) the checkpoint is rehydrated into a
//! [`Mediator`] and the log past it is replayed record by record — the exact
//! order the primary met mutations, registrations and queries. That order
//! is what makes the promise byte-level: a mediation's decision depends on
//! the registry contents at that instant, its RNG consumption depends on
//! whether it starved, and the next decision depends on both, so
//! deltas-then-queries (or queries-then-deltas) would reconstruct a
//! different mediator than the one that crashed.

use sbqa_core::{Admission, IntentionOracle, Mediator, ProviderRegistry, QueryAllocator};
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_types::{SbqaError, SbqaResult};

use crate::log::{Entry, SharedDeltaLog};
use crate::registry_digest;

/// Tallies of one promotion's replay work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayReport {
    /// Logged mutations replayed into the checkpoint.
    pub deltas_replayed: usize,
    /// Logged queries re-mediated successfully.
    pub queries_mediated: usize,
    /// Logged queries that starved on replay (exactly the ones that
    /// starved on the primary: starvation is part of the decision stream).
    pub queries_starved: usize,
    /// Logged queries the primary shed under overload: replay skips them
    /// without consuming RNG, exactly as the primary's admission control did.
    pub queries_shed: usize,
}

/// A promotable checkpoint of one mediator shard.
pub struct StandbyShard {
    /// Checkpoint state, frozen at `watermark`.
    allocator: Box<dyn QueryAllocator>,
    providers: ProviderRegistry,
    satisfaction: SatisfactionRegistry,
    watermark: u64,
    checkpoints: u64,
}

/// The allocator trait object carries no `Debug` bound; report the
/// technique name and the replication counters instead.
impl std::fmt::Debug for StandbyShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StandbyShard")
            .field("technique", &self.allocator.name())
            .field("watermark", &self.watermark)
            .field("checkpoints", &self.checkpoints)
            .finish_non_exhaustive()
    }
}

fn gap(reason: String) -> SbqaError {
    SbqaError::InvalidConfiguration {
        reason: format!("replication gap: {reason}"),
    }
}

/// The one reader of the log: hands `visit` every entry of `log` past
/// `watermark`, in order, stopping at its first error, and returns how many
/// records it read.
///
/// # Errors
///
/// A `replication gap` ([`SbqaError::InvalidConfiguration`]) when the log
/// ends before `watermark`, is pruned past it, holds a record out of
/// sequence or a query record without its body; otherwise `visit`'s error.
fn replay_after(
    log: &SharedDeltaLog,
    watermark: u64,
    mut visit: impl FnMut(Entry<'_>) -> SbqaResult<()>,
) -> SbqaResult<u64> {
    let end = log.last_sequence();
    if end < watermark {
        return Err(gap(format!(
            "log ends at {end}, before the checkpoint at {watermark}"
        )));
    }
    let mut next = watermark + 1;
    log.visit_after(watermark, |sequence, entry| {
        if sequence != next {
            return Err(gap(format!("record {sequence} read where {next} was due")));
        }
        let entry = entry.ok_or_else(|| gap(format!("query record {sequence} has no body")))?;
        next += 1;
        visit(entry)
    })
    .ok_or_else(|| gap(format!("log pruned past the checkpoint at {watermark}")))??;
    Ok(next - 1 - watermark)
}

/// Applies the logged mutations past `watermark` to `providers`.
fn replay_mutations(
    log: &SharedDeltaLog,
    watermark: u64,
    providers: &mut ProviderRegistry,
) -> SbqaResult<u64> {
    replay_after(log, watermark, |entry| match entry {
        Entry::Mutation(delta) => delta.apply(providers).map(drop),
        Entry::Query(..) | Entry::RegisterConsumer(_) => Ok(()),
    })
}

impl StandbyShard {
    /// Bootstraps a standby from a copy of a mediator's decomposed state
    /// (the [`Mediator::into_parts`] triple) cut at log watermark
    /// `watermark`. A host re-arming after a promotion writes the
    /// satisfaction copy into the dead primary's registry with
    /// [`SatisfactionRegistry::clone_from`], which reads none of what it
    /// held.
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
            checkpoints: 1,
        }
    }

    /// Checks that `log` carries this checkpoint forward without a gap, and
    /// returns the number of records past it: what a promotion would
    /// replay. Reads the log and changes nothing.
    ///
    /// # Errors
    ///
    /// A `replication gap` ([`SbqaError::InvalidConfiguration`]): the log
    /// ends before the checkpoint, is pruned past it, or holds a record out
    /// of sequence or a query record without its body.
    pub fn catch_up(&mut self, log: &SharedDeltaLog) -> SbqaResult<usize> {
        let records = replay_after(log, self.watermark, |_| Ok(()))?;
        Ok(usize::try_from(records).unwrap_or(usize::MAX))
    }

    /// Cuts a fresh checkpoint of `primary` at the end of `log` (the caller
    /// holds the primary still, so the log's end is the primary's state),
    /// then prunes `log` up to the cut. Each half of the state is brought to
    /// the cut by whichever is shorter, replaying the changes since the
    /// previous cut or copying the state they would change:
    ///
    /// * the checkpoint registry is **advanced** — the logged mutations are
    ///   applied to it in place. Mediation changes nothing of a registry's
    ///   replicated state (only its plan cache, which is derived and
    ///   decision-neutral), so every change since the previous cut is a
    ///   logged mutation. When those are at least as many as `primary` has
    ///   providers (the first cut after a bulk load), the registry becomes a
    ///   clone of `primary`'s instead, plan cache included. That clone
    ///   supersedes the log, so a record in it that would not apply is
    ///   pruned unapplied, never met;
    /// * the checkpoint satisfaction registry receives what `primary`
    ///   changed since the previous cut, participant by participant touched
    ///   ([`SatisfactionRegistry::sync_touched_into`]): a touched consumer's
    ///   tracker advances by the queries it recorded since, into the
    ///   buffers of the ones they evict, and a touched provider's row and
    ///   live window are copied over. When the touched participants are as
    ///   many as the registry's, it is copied whole instead, with
    ///   `clone_from` into the memory the checkpoint already owns, reading
    ///   none of it;
    /// * the allocator is forked (RNG position and configuration).
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`], with the standby and the log left
    /// exactly as they were, on a `replication gap` (see
    /// [`catch_up`](Self::catch_up)), or when `primary`'s satisfaction
    /// registry is not tracking touched ids. A
    /// replayed mutation that does not apply is propagated, and it leaves
    /// the standby half-cut and the log unpruned: the rule is that a standby
    /// whose cut failed is never cut or promoted again, only discarded (the
    /// service discards it at the next crash of its shard).
    pub fn cut_checkpoint(
        &mut self,
        primary: &mut Mediator,
        log: &SharedDeltaLog,
    ) -> SbqaResult<()> {
        let mut mutations = 0;
        let records = replay_after(log, self.watermark, |entry| {
            mutations += usize::from(matches!(entry, Entry::Mutation(_)));
            Ok(())
        })?;
        primary
            .satisfaction_mut()
            .sync_touched_into(&mut self.satisfaction)
            .ok_or_else(|| SbqaError::InvalidConfiguration {
                reason: "primary's satisfaction registry does not track touched ids".to_string(),
            })?;
        if mutations >= primary.providers().len() {
            self.providers = primary.providers().clone();
        } else {
            replay_mutations(log, self.watermark, &mut self.providers)?;
        }
        self.allocator = primary.fork_allocator();
        self.watermark += records;
        self.checkpoints += 1;
        log.prune_through(self.watermark);
        Ok(())
    }

    /// Promotes the standby into a live [`Mediator`] in the primary's exact
    /// pre-crash state: the checkpoint is rehydrated and `log` past it is
    /// replayed in order — a mutation applied, a consumer registered, an
    /// admitted query mediated at its tier, a shed query skipped.
    ///
    /// # Errors
    ///
    /// A `replication gap` (see [`catch_up`](Self::catch_up)), or any
    /// delta-application error (a corrupt or misrouted log). Query
    /// starvation during replay is *not* an error — it is part of the
    /// decision stream being reproduced.
    pub fn promote(
        self,
        log: &SharedDeltaLog,
        oracle: &dyn IntentionOracle,
    ) -> SbqaResult<(Mediator, ReplayReport)> {
        let mut mediator = Mediator::from_parts(self.allocator, self.providers, self.satisfaction);
        let mut report = ReplayReport::default();
        replay_after(log, self.watermark, |entry| {
            match entry {
                Entry::Mutation(delta) => {
                    mediator.mutate(&delta)?;
                    report.deltas_replayed += 1;
                }
                Entry::RegisterConsumer(id) => mediator.register_consumer(id),
                // The primary never mediated it; neither does replay.
                Entry::Query(_, Admission::Shed) => report.queries_shed += 1,
                Entry::Query(query, Admission::Admit(tier)) => {
                    if mediator.submit_at(query, oracle, tier).is_ok() {
                        report.queries_mediated += 1;
                    } else {
                        report.queries_starved += 1;
                    }
                }
            }
            Ok(())
        })?;
        Ok((mediator, report))
    }

    /// The log watermark of the installed checkpoint.
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.watermark
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
    /// reach: a copy of the checkpoint's, advanced by the mutations in `log`
    /// past it. Equal to the live registry's digest whenever snapshot +
    /// replay reproduces it. A check run on demand; it costs a registry
    /// clone.
    ///
    /// # Errors
    ///
    /// A `replication gap`, or a logged mutation that does not apply to the
    /// checkpoint.
    pub fn replay_digest(&self, log: &SharedDeltaLog) -> SbqaResult<u64> {
        let mut providers = self.providers.clone();
        replay_mutations(log, self.watermark, &mut providers)?;
        Ok(registry_digest(&providers))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::satisfaction_digest;
    use sbqa_core::{DegradationTier, RegistryDelta, StaticIntentions};
    use sbqa_types::{
        Capability, CapabilityRequirement, CapabilitySet, ConsumerId, Intention, ProviderId, Query,
        QueryId, SystemConfig,
    };

    /// An empty mediator armed the way `MediatorShard::replicate` arms one,
    /// then loaded through its log — 40 providers, a consumer registered,
    /// one provider gone, mediations and load writes, each mutation logged
    /// if `Mediator::mutate` found it effective, as the shard logs it — with
    /// a standby bootstrapped before any of it. With `mid_cut` the standby
    /// is also cut once, after the registrations, so the log past it is
    /// short.
    pub(crate) fn bulk_loaded(mid_cut: bool) -> (Mediator, SharedDeltaLog, StandbyShard) {
        let config = SystemConfig::default().with_knbest(4, 2).with_window(3);
        let mut primary = Mediator::sbqa(config, 7).expect("valid config");
        let log = SharedDeltaLog::new();
        let mut standby = StandbyShard::new(
            primary.fork_allocator(),
            primary.providers().clone(),
            primary.satisfaction().clone(),
            log.last_sequence(),
        );
        primary.satisfaction_mut().track_touched();

        for id in 0..40u64 {
            let class = Capability::new((id % 3) as u8);
            let delta = RegistryDelta::Register {
                id: ProviderId::new(id),
                capabilities: CapabilitySet::singleton(class),
                capacity: 1.0,
            };
            mutate(&mut primary, &log, delta);
        }
        primary.register_consumer(ConsumerId::new(0));
        log.append_consumer(ConsumerId::new(0));
        let gone = ProviderId::new(5);
        mutate(&mut primary, &log, RegistryDelta::Unregister { id: gone });
        if mid_cut {
            standby
                .cut_checkpoint(&mut primary, &log)
                .expect("a contiguous log cuts");
        }
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(-0.3));
        for id in 0..6u64 {
            let class = CapabilitySet::singleton(Capability::new((id % 3) as u8));
            let query = Query::requiring(
                QueryId::new(id),
                ConsumerId::new(0),
                CapabilityRequirement::All(class),
            )
            .build();
            log.append_query(&query, Admission::Admit(DegradationTier::Normal));
            primary
                .submit_in_place(&query, &oracle)
                .expect("capable providers");
            let load = RegistryDelta::UpdateLoad {
                id: ProviderId::new(10 + id),
                utilization: id as f64,
                queue_length: 1,
            };
            mutate(&mut primary, &log, load);
        }
        (primary, log, standby)
    }

    /// Applies a mutation to `primary` and appends it to `log` if it was
    /// effective, as `MediatorShard::mutate` does.
    fn mutate(primary: &mut Mediator, log: &SharedDeltaLog, delta: RegistryDelta) {
        if primary.mutate(&delta).expect("a known provider") {
            log.append_mutation(delta);
        }
    }

    /// Mutation records in the log past the standby's checkpoint.
    fn mutations_past(log: &SharedDeltaLog, standby: &StandbyShard) -> usize {
        let mut mutations = 0;
        replay_after(log, standby.watermark(), |entry| {
            mutations += usize::from(matches!(entry, Entry::Mutation(_)));
            Ok(())
        })
        .expect("contiguous log");
        mutations
    }

    #[test]
    fn a_copying_cut_and_a_replaying_cut_of_one_history_agree() {
        let (mut copying_primary, copying_log, mut copying) = bulk_loaded(false);
        let (mut replaying_primary, replaying_log, mut replaying) = bulk_loaded(true);

        // The whole bulk load past the checkpoint: the registry is copied
        // from the primary.
        assert!(mutations_past(&copying_log, &copying) >= copying_primary.providers().len());
        copying
            .cut_checkpoint(&mut copying_primary, &copying_log)
            .expect("a contiguous log cuts");

        // The same history, cut once after the registrations: what is past
        // that checkpoint is short, so it is replayed into the registry.
        assert_eq!(replaying.checkpoints(), 2);
        assert!(mutations_past(&replaying_log, &replaying) < replaying_primary.providers().len());
        replaying
            .cut_checkpoint(&mut replaying_primary, &replaying_log)
            .expect("a contiguous log cuts");

        let primary = primary_digests(&copying_primary);
        assert_eq!(checkpoint_digests(&copying), primary);
        assert_eq!(checkpoint_digests(&replaying), primary);
        for (standby, log) in [(&copying, &copying_log), (&replaying, &replaying_log)] {
            assert_eq!(standby.watermark(), log.last_sequence());
            assert_eq!(log.depth(), 0, "the cut pruned the log up to itself");
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
    /// applies to no registry of this history.
    fn append_misrouted(log: &SharedDeltaLog) {
        log.append_mutation(RegistryDelta::Unregister {
            id: ProviderId::new(9_999),
        });
    }

    #[test]
    fn a_replaying_cut_meets_a_record_that_does_not_apply() {
        let (mut primary, log, mut standby) = bulk_loaded(true);
        let load = RegistryDelta::UpdateLoad {
            id: ProviderId::new(1),
            utilization: 2.0,
            queue_length: 1,
        };
        mutate(&mut primary, &log, load);
        append_misrouted(&log);
        assert!(mutations_past(&log, &standby) < primary.providers().len());

        let depth = log.depth();
        let error = standby
            .cut_checkpoint(&mut primary, &log)
            .expect_err("the log is replayed");
        assert!(
            matches!(error, SbqaError::UnknownProvider { .. }),
            "{error}"
        );
        assert_eq!(log.depth(), depth, "a failed cut prunes nothing");
    }

    #[test]
    fn a_copying_cut_supersedes_a_record_that_does_not_apply() {
        let (mut primary, log, mut standby) = bulk_loaded(false);
        append_misrouted(&log);
        assert!(mutations_past(&log, &standby) >= primary.providers().len());

        standby
            .cut_checkpoint(&mut primary, &log)
            .expect("the log is copied over, not replayed");
        assert_eq!(checkpoint_digests(&standby), primary_digests(&primary));
        assert_eq!(log.depth(), 0);
    }

    #[test]
    fn replay_digest_meets_a_record_that_does_not_apply_before_any_cut() {
        let (primary, log, standby) = bulk_loaded(false);
        assert_eq!(
            standby.replay_digest(&log),
            Ok(registry_digest(primary.providers()))
        );

        append_misrouted(&log);
        assert_eq!(standby.checkpoints(), 1);
        let error = standby
            .replay_digest(&log)
            .expect_err("the log is replayed");
        assert!(
            matches!(error, SbqaError::UnknownProvider { .. }),
            "{error}"
        );
    }

    #[test]
    fn catch_up_counts_the_records_a_promotion_replays() {
        let (primary, log, mut standby) = bulk_loaded(true);
        let past = standby.catch_up(&log).expect("contiguous log");
        assert_eq!(past as u64, log.last_sequence() - standby.watermark());
        assert_eq!(past, log.depth());

        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(-0.3));
        let (promoted, report) = standby.promote(&log, &oracle).expect("clean replay");
        assert_eq!(report.deltas_replayed, 6);
        assert_eq!((report.queries_mediated, report.queries_starved), (6, 0));
        assert_eq!(primary_digests(&promoted), primary_digests(&primary));
    }
}
