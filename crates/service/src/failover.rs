//! The replicated front-end's fallible signatures.
//!
//! Replication is a property of the shards
//! ([`ShardedMediator::replicate`]), not a second front-end.
//! [`ReplicatedMediator`] is a [`ShardedMediator`] whose shards are all
//! replicated from construction, and it dereferences to one; the two methods
//! it shadows differ only in returning a pending replication fault as their
//! error, where the front-end leaves it on
//! [`fault`](ShardedMediator::fault).

use std::ops::{Deref, DerefMut};

use sbqa_core::allocator::{AllocationDecision, IntentionOracle};
use sbqa_core::BatchReport;
pub use sbqa_replication::standby::ReplayReport;
pub use sbqa_replication::ReplicationStats;
use sbqa_types::{CapabilitySet, ProviderId, Query, SbqaResult, SystemConfig};

use crate::sharded::ShardedMediator;

/// A [`ShardedMediator`] with a standby behind every shard.
#[derive(Debug)]
pub struct ReplicatedMediator(ShardedMediator);

impl ReplicatedMediator {
    /// [`ShardedMediator::sbqa`], then [`ShardedMediator::replicate`].
    ///
    /// # Errors
    ///
    /// Configuration validation errors.
    pub fn sbqa(config: SystemConfig, seed: u64, shards: usize) -> SbqaResult<Self> {
        let mut service = ShardedMediator::sbqa(config, seed, shards)?;
        service.replicate()?;
        Ok(Self(service))
    }

    /// [`ShardedMediator::register_provider`].
    ///
    /// # Errors
    ///
    /// The service's pending replication fault, if any.
    pub fn register_provider(
        &mut self,
        id: ProviderId,
        capabilities: CapabilitySet,
        capacity: f64,
    ) -> SbqaResult<usize> {
        let shard = self.0.register_provider(id, capabilities, capacity);
        self.0.fault().cloned().map_or(Ok(shard), Err)
    }

    /// [`ShardedMediator::try_submit_batch`].
    ///
    /// # Errors
    ///
    /// A replication fault; per-query starvation and shedding are reported
    /// through `on_result`.
    pub fn submit_batch<F>(
        &mut self,
        queries: &[Query],
        oracle: &dyn IntentionOracle,
        on_result: F,
    ) -> SbqaResult<BatchReport>
    where
        F: FnMut(usize, &Query, SbqaResult<&AllocationDecision>),
    {
        self.0.try_submit_batch(queries, oracle, on_result)
    }
}

impl Deref for ReplicatedMediator {
    type Target = ShardedMediator;

    fn deref(&self) -> &ShardedMediator {
        &self.0
    }
}

impl DerefMut for ReplicatedMediator {
    fn deref_mut(&mut self) -> &mut ShardedMediator {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::StaticIntentions;
    use sbqa_types::{Capability, ConsumerId, Intention, QueryId, SbqaError, VirtualTime};

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
    fn standbys_stay_in_lockstep_through_churn() {
        let mut service = replicated(2);
        assert!(service.standbys_in_lockstep());
        service
            .update_provider_load(ProviderId::new(3), 2.0, 4)
            .unwrap();
        service
            .set_provider_online(ProviderId::new(5), false)
            .unwrap();
        assert!(service.standbys_in_lockstep());
        // Mid-run the checkpoint trails the log by exactly what it retains.
        let stats = service.shard(0).replication_stats();
        assert!(stats.log_depth > 0);
        assert_eq!(stats.replay_lag, stats.log_depth as u64);
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
        assert!(crashed.standbys_in_lockstep());
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
                wounded.corrupt_log(0);
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
                assert!(wounded.standbys_in_lockstep());
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
        assert!(wounded.standbys_in_lockstep());
    }

    #[test]
    fn a_replication_fault_aborts_the_batch_and_is_nobodys_starvation() {
        let oracle = oracle();
        let mut faulted = replicated(2);
        let mut baseline = replicated(2);
        // Copy the registrations into the checkpoint now, so the cut closing
        // round 3 (every fourth batch) replays the log.
        faulted.checkpoint_all().unwrap();
        let router = *faulted.router();
        let stream: Vec<Query> = (0..180u64).map(|i| query(i, i as f64 * 0.1)).collect();
        let mut outcomes = Vec::new();
        let mut expected = Vec::new();

        for (round, chunk) in stream.chunks(30).enumerate() {
            baseline
                .submit_batch(chunk, &oracle, |_, q, r| {
                    expected.push((q.id, r.map(|d| d.selected.clone()).ok()));
                })
                .unwrap();
            if round == 2 {
                // A record shard 0's standby cannot apply: not a gap, so not
                // an `InvalidConfiguration`, and still not a query outcome.
                // Nothing reads the log before the next cut, so every query
                // up to it is served as the baseline serves it.
                faulted.corrupt_log(0);
            }
            let mut rest = chunk;
            if round == 4 {
                // The cut closing round 3 met the record and kept the fault.
                assert_eq!(outcomes, expected[..outcomes.len()]);
                let error = faulted.fault().cloned().expect("the cut met it");
                assert!(
                    matches!(error, SbqaError::UnknownProvider { .. }),
                    "{error}"
                );
                let taken = faulted.shard(0).report();
                let timed = faulted.shard(0).latency().count();
                let before = outcomes.len();
                let aborted = faulted.submit_batch(chunk, &oracle, |_, q, r| {
                    outcomes.push((q.id, r.map(|d| d.selected.clone()).ok()));
                });
                assert_eq!(aborted, Err(error.clone()));
                // The batch stopped at shard 0's first query: only shard 1's
                // queries ahead of it were mediated and called back, and
                // shard 0 tallied, starved and timed nothing.
                let handled = &outcomes[before..];
                assert!(handled
                    .iter()
                    .all(|(id, selected)| router.shard_of_query(*id) == 1 && selected.is_some()));
                assert_eq!(faulted.shard(0).report(), taken);
                assert_eq!(faulted.shard(0).latency().count(), timed);
                let reports = faulted.shard_reports();
                assert_eq!(reports.iter().map(|r| r.report.starved).sum::<usize>(), 0);
                assert_eq!(reports[0].fault.as_ref(), Some(&error));
                assert_eq!(reports[1].fault, None);
                // The fault is sticky…
                rest = &chunk[handled.len()..];
                assert_eq!(
                    faulted.submit_batch(rest, &oracle, |_, _, _| unreachable!()),
                    Err(error.clone())
                );
                // …until the crash that cannot succeed re-arms the shard.
                assert_eq!(faulted.crash_shard(0, &oracle), Err(error));
                assert_eq!(faulted.fault(), None);
                assert!(faulted.standbys_in_lockstep());
            }
            faulted
                .submit_batch(rest, &oracle, |_, q, r| {
                    outcomes.push((q.id, r.map(|d| d.selected.clone()).ok()));
                })
                .unwrap();
        }
        assert_eq!(outcomes, expected);
        assert_eq!(service_promotions(&faulted), 0);
    }

    #[test]
    fn a_shard_whose_cut_failed_partway_is_never_promoted() {
        let oracle = oracle();
        let mut faulted = replicated(2);
        let mut baseline = replicated(2);
        faulted.checkpoint_all().unwrap();
        let router = *faulted.router();
        let on_shard_0: Vec<ProviderId> = (0..24u64)
            .map(ProviderId::new)
            .filter(|&id| router.shard_of_provider(id) == 0)
            .collect();
        // A short log beside the shard's population: the cut replays it.
        let (early, late) = (&on_shard_0[..2], &on_shard_0[2..4]);
        let stream: Vec<Query> = (0..120u64).map(|i| query(i, i as f64 * 0.1)).collect();
        let mut outcomes = Vec::new();
        let mut expected = Vec::new();

        for (round, chunk) in stream.chunks(30).enumerate() {
            if round == 2 {
                // Shard 0's log: providers going offline, a record that does
                // not apply, more providers going offline. The cut applies
                // the first ones, fails at the record and drops the rest.
                for &id in early {
                    faulted.set_provider_online(id, false).unwrap();
                    baseline.set_provider_online(id, false).unwrap();
                }
                faulted.corrupt_log(0);
                for &id in late {
                    faulted.set_provider_online(id, false).unwrap();
                    baseline.set_provider_online(id, false).unwrap();
                }
                let error = faulted.checkpoint_all().unwrap_err();
                assert!(
                    matches!(error, SbqaError::UnknownProvider { .. }),
                    "{error}"
                );
                assert_eq!(faulted.fault(), Some(&error));
                // The half-cut standby is not promoted: the crash is called
                // off around the live mediator, and replication re-armed.
                assert_eq!(faulted.crash_shard(0, &oracle), Err(error));
                assert_eq!(faulted.fault(), None);
                assert!(faulted.standbys_in_lockstep());
            }
            faulted
                .submit_batch(chunk, &oracle, |_, q, r| {
                    outcomes.push((q.id, r.map(|d| d.selected.clone()).ok()));
                })
                .unwrap();
            baseline
                .submit_batch(chunk, &oracle, |_, q, r| {
                    expected.push((q.id, r.map(|d| d.selected.clone()).ok()));
                })
                .unwrap();
        }
        assert_eq!(outcomes, expected);
        assert_eq!(service_promotions(&faulted), 0);
    }

    #[test]
    fn crashing_a_shard_that_does_not_exist_is_an_error() {
        let mut service = replicated(2);
        let error = service.crash_shard(2, &oracle()).unwrap_err();
        assert!(
            matches!(error, SbqaError::InvalidConfiguration { .. }),
            "{error}"
        );
        assert_eq!(service.shard_count(), 2);
        assert!(service.standbys_in_lockstep());
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
            assert_eq!(stats.replay_lag, stats.log_depth as u64);
            assert!(stats.checkpoints >= 1);
        }
        let total: usize = reports.iter().map(|r| r.report.submitted()).sum();
        assert_eq!(total, 40);
    }
}
