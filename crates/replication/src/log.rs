//! The append-only shard log.
//!
//! One log per replicated shard, and the only record of what the shard did
//! since its standby's checkpoint: every effective registry mutation (the
//! ones [`sbqa_core::Mediator::mutate`] reports as effective), every offered
//! query with its admission verdict, and every consumer registration, each
//! under a monotonically increasing sequence number in the order the shard
//! met them. The shard is the log's one writer; a promotion replays it in
//! that order.
//!
//! A query's body is kept beside the records, not in its record, so every
//! record stays the size of a registry delta.

use std::cell::RefCell;

use sbqa_core::{Admission, RegistryDelta};
use sbqa_types::{ConsumerId, Query};

/// One entry of the log: what happened, and its position in the total order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DeltaRecord {
    /// Position in the log's total order; starts at 1, increases by exactly
    /// 1 per appended record.
    pub sequence: u64,
    /// The recorded event.
    pub op: DeltaOp,
}

/// The payload of a [`DeltaRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum DeltaOp {
    /// An effective registry mutation, as emitted by the primary.
    Mutation(RegistryDelta),
    /// A query the shard was offered, with the admission verdict it took.
    /// Its body is the log's next query body. Replaying the verdict rather
    /// than re-running admission keeps a promotion byte-identical under
    /// overload: replay mediates exactly the queries the primary admitted,
    /// at the tier it used, and skips the sheds.
    Query(Admission),
    /// A consumer registration.
    RegisterConsumer(ConsumerId),
}

/// A record as a reader sees it: a query record comes with its body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Entry<'a> {
    /// An effective registry mutation.
    Mutation(RegistryDelta),
    /// An offered query and its admission verdict.
    Query(&'a Query, Admission),
    /// A consumer registration.
    RegisterConsumer(ConsumerId),
}

/// An append-only, monotonically-sequenced log with front pruning.
///
/// Retained records are contiguous: `records[i].sequence` is
/// `pruned + 1 + i`, so tail reads are a slice, not a scan. `queries`
/// holds the body of every retained query record, in record order.
#[derive(Debug, Clone, Default)]
struct DeltaLog {
    records: Vec<DeltaRecord>,
    queries: Vec<Query>,
    /// Sequence of the most recently appended record (0 = nothing ever).
    appended: u64,
    /// Records dropped off the front by [`DeltaLog::prune_through`].
    pruned: u64,
}

fn queries_in(records: &[DeltaRecord]) -> usize {
    records
        .iter()
        .filter(|record| matches!(record.op, DeltaOp::Query(_)))
        .count()
}

impl DeltaLog {
    /// Appends a record, with its query's body for a query record,
    /// returning its sequence.
    fn push(&mut self, op: DeltaOp, body: Option<&Query>) -> u64 {
        self.queries.extend(body.cloned());
        self.appended += 1;
        self.records.push(DeltaRecord {
            sequence: self.appended,
            op,
        });
        self.appended
    }

    /// Sequence of the most recently appended record; 0 if none ever.
    #[must_use]
    pub fn last_sequence(&self) -> u64 {
        self.appended
    }

    /// Number of records currently retained.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.records.len()
    }

    /// The retained records with sequence strictly greater than `after`,
    /// oldest first, as `(sequence, entry)`; the entry is `None` for a query
    /// record whose body is missing. `None` if pruning has already dropped
    /// part of that range — the signal that a reader at watermark `after`
    /// can no longer be carried forward by this log and needs a fresh
    /// checkpoint.
    fn tail_after(
        &self,
        after: u64,
    ) -> Option<impl ExactSizeIterator<Item = (u64, Option<Entry<'_>>)>> {
        if after < self.pruned {
            return None;
        }
        let skip = usize::try_from(after - self.pruned)
            .ok()?
            .min(self.records.len());
        let (before, records) = self.records.split_at(skip);
        let mut bodies = self
            .queries
            .get(queries_in(before)..)
            .unwrap_or_default()
            .iter();
        Some(records.iter().map(move |record| {
            let entry = match record.op {
                DeltaOp::Mutation(delta) => Some(Entry::Mutation(delta)),
                DeltaOp::Query(admission) => {
                    bodies.next().map(|query| Entry::Query(query, admission))
                }
                DeltaOp::RegisterConsumer(id) => Some(Entry::RegisterConsumer(id)),
            };
            (record.sequence, entry)
        }))
    }

    /// Drops every record with sequence at or below `through` (typically a
    /// checkpoint watermark: the checkpoint now carries that prefix), with
    /// the bodies of the queries among them.
    pub fn prune_through(&mut self, through: u64) {
        let keep = self
            .records
            .iter()
            .position(|record| record.sequence > through)
            .unwrap_or(self.records.len());
        let bodies = queries_in(&self.records[..keep]).min(self.queries.len());
        self.records.drain(..keep);
        self.queries.drain(..bodies);
        self.pruned = self.pruned.max(through.min(self.appended));
    }
}

/// A shard's append-only log, owned by the shard: the shard appends to it
/// through `&self` and lends it to its standby to read. A clone is a copy of
/// the log, not a second handle on it.
#[derive(Debug, Clone, Default)]
pub struct SharedDeltaLog {
    inner: RefCell<DeltaLog>,
}

impl SharedDeltaLog {
    /// Creates a fresh, empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` on the log.
    fn with<T>(&self, f: impl FnOnce(&mut DeltaLog) -> T) -> T {
        f(&mut self.inner.borrow_mut())
    }

    /// Appends a mutation record, returning its sequence.
    pub fn append_mutation(&self, delta: RegistryDelta) -> u64 {
        self.with(|log| log.push(DeltaOp::Mutation(delta), None))
    }

    /// Appends an offered query with its admission verdict, returning its
    /// sequence.
    pub fn append_query(&self, query: &Query, admission: Admission) -> u64 {
        self.with(|log| log.push(DeltaOp::Query(admission), Some(query)))
    }

    /// Appends a consumer registration, returning its sequence.
    pub fn append_consumer(&self, id: ConsumerId) -> u64 {
        self.with(|log| log.push(DeltaOp::RegisterConsumer(id), None))
    }

    /// Sequence of the most recently appended record; 0 if none ever.
    #[must_use]
    pub fn last_sequence(&self) -> u64 {
        self.with(|log| log.last_sequence())
    }

    /// Number of records currently retained.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.with(|log| log.depth())
    }

    /// Hands the records with sequence strictly greater than `after` to
    /// `visit` as `(sequence, entry)`, oldest first, without copying them,
    /// stopping at its first error. The entry is `None` for a query record
    /// whose body is missing. `None` if that range has been partially
    /// pruned. `visit` must not touch this log: the log is borrowed for the
    /// whole visit.
    pub fn visit_after<E>(
        &self,
        after: u64,
        mut visit: impl FnMut(u64, Option<Entry<'_>>) -> Result<(), E>,
    ) -> Option<Result<(), E>> {
        self.with(|log| {
            log.tail_after(after)
                .map(|mut tail| tail.try_for_each(|(sequence, entry)| visit(sequence, entry)))
        })
    }

    /// Drops every record with sequence at or below `through`.
    pub fn prune_through(&self, through: u64) {
        self.with(|log| log.prune_through(through));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standby::tests::bulk_loaded;
    use crate::{registry_digest, satisfaction_digest, StandbyShard};
    use sbqa_core::{DegradationTier, Mediator, StaticIntentions};
    use sbqa_types::{Capability, ProviderId, QueryId, SbqaError};

    fn load(id: u64, queue: usize) -> RegistryDelta {
        RegistryDelta::UpdateLoad {
            id: ProviderId::new(id),
            utilization: queue as f64 * 0.5,
            queue_length: queue,
        }
    }

    fn query(id: u64) -> Query {
        Query::builder(QueryId::new(id), ConsumerId::new(1), Capability::new(0)).build()
    }

    const ADMITTED: Admission = Admission::Admit(DegradationTier::Normal);

    /// Sequences and entries of a tail, bodies resolved to query ids.
    fn read<'a>(
        tail: impl Iterator<Item = (u64, Option<Entry<'a>>)>,
    ) -> Vec<(u64, Option<String>)> {
        tail.map(|(sequence, entry)| {
            let entry = entry.map(|entry| match entry {
                Entry::Mutation(delta) => format!("{delta:?}"),
                Entry::Query(query, admission) => format!("{:?} {admission:?}", query.id),
                Entry::RegisterConsumer(id) => format!("{id:?}"),
            });
            (sequence, entry)
        })
        .collect()
    }

    #[test]
    fn sequences_are_dense_and_monotonic() {
        let mut log = DeltaLog::default();
        assert_eq!(log.last_sequence(), 0);
        assert_eq!(log.depth(), 0);
        for i in 1..=4u64 {
            assert_eq!(log.push(DeltaOp::Mutation(load(i, 1)), None), i);
        }
        assert_eq!(
            log.push(DeltaOp::Query(Admission::Shed), Some(&query(9))),
            5
        );
        assert_eq!(
            log.push(DeltaOp::RegisterConsumer(ConsumerId::new(3)), None),
            6
        );
        assert_eq!(log.last_sequence(), 6);
        assert_eq!(log.depth(), 6);
        let seqs: Vec<u64> = log.records.iter().map(|r| r.sequence).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn a_record_stays_the_size_of_a_registry_delta() {
        assert_eq!(
            std::mem::size_of::<DeltaRecord>(),
            std::mem::size_of::<(u64, RegistryDelta)>()
        );
    }

    #[test]
    fn tail_and_prune_respect_the_watermark() {
        let mut log = DeltaLog::default();
        for i in 1..=8u64 {
            log.push(DeltaOp::Mutation(load(i, i as usize)), None);
        }
        let len = |after| log.tail_after(after).map(|tail| tail.len());
        assert_eq!(len(0), Some(8));
        assert_eq!(len(5), Some(3));
        assert_eq!(len(8), Some(0));
        assert_eq!(len(99), Some(0));

        log.prune_through(5);
        assert_eq!(log.depth(), 3);
        assert_eq!(log.records[0].sequence, 6);
        let len = |after| log.tail_after(after).map(|tail| tail.len());
        // A reader at watermark >= 5 can still be carried forward…
        assert_eq!(len(5), Some(3));
        assert_eq!(len(6), Some(2));
        // …a reader behind the pruned prefix cannot.
        assert!(log.tail_after(4).is_none());
    }

    #[test]
    fn every_query_record_reads_its_own_body_across_prunes() {
        let mut log = DeltaLog::default();
        log.push(DeltaOp::Query(ADMITTED), Some(&query(10)));
        log.push(DeltaOp::Mutation(load(1, 1)), None);
        log.push(DeltaOp::Query(Admission::Shed), Some(&query(11)));
        log.push(DeltaOp::RegisterConsumer(ConsumerId::new(4)), None);
        log.push(DeltaOp::Query(ADMITTED), Some(&query(12)));

        let tail = read(log.tail_after(2).expect("retained"));
        assert_eq!(
            tail,
            vec![
                (3, Some("QueryId(11) Shed".to_string())),
                (4, Some("ConsumerId(4)".to_string())),
                (5, Some("QueryId(12) Admit(Normal)".to_string())),
            ]
        );
        // Pruning drops the bodies of the queries it prunes, and only those.
        log.prune_through(3);
        assert_eq!(read(log.tail_after(3).expect("retained")), tail[1..]);
    }

    #[test]
    fn shared_log_visits_what_was_appended() {
        let shared = SharedDeltaLog::new();
        shared.append_mutation(load(1, 2));
        shared.append_mutation(load(2, 4));
        shared.append_query(&query(7), ADMITTED);
        assert_eq!(shared.last_sequence(), 3);

        // The visitor sees the range in place, stops at the first error, and
        // reports a pruned range as `None`.
        let mut seen = Vec::new();
        let visited = shared.visit_after(0, |sequence, entry| {
            seen.push((
                sequence,
                entry.map(|entry| entry == Entry::Mutation(load(2, 4))),
            ));
            if sequence == 1 {
                Ok(())
            } else {
                Err("stop")
            }
        });
        assert_eq!(visited, Some(Err("stop")));
        assert_eq!(seen, vec![(1, Some(false)), (2, Some(true))]);
        let mut bodies = Vec::new();
        let visited = shared.visit_after(2, |_, entry| {
            if let Some(Entry::Query(query, admission)) = entry {
                bodies.push((query.id, admission));
            }
            Ok::<(), ()>(())
        });
        assert_eq!(visited, Some(Ok(())));
        assert_eq!(bodies, vec![(QueryId::new(7), ADMITTED)]);
        assert_eq!(shared.visit_after(3, |_, _| Err("unreached")), Some(Ok(())));
        shared.prune_through(2);
        assert_eq!(shared.visit_after(1, |_, _| Ok::<(), ()>(())), None);
    }

    /// A copy of `log` with `lose` applied to its vectors: what a faulty
    /// transfer of the log would deliver.
    fn damaged(log: &SharedDeltaLog, lose: impl FnOnce(&mut DeltaLog)) -> SharedDeltaLog {
        let mut copy = log.with(|log| log.clone());
        lose(&mut copy);
        SharedDeltaLog {
            inner: RefCell::new(copy),
        }
    }

    /// Asserts that `log` is a `replication gap` to every reader of
    /// `standby` — `catch_up`, `cut_checkpoint`, `replay_digest` and
    /// `promote` — and that the refused reads changed neither the standby
    /// nor the log.
    fn assert_a_gap(primary: &mut Mediator, standby: &mut StandbyShard, log: &SharedDeltaLog) {
        let is_gap = |error: SbqaError| {
            assert!(error.to_string().contains("replication gap"), "{error}");
        };
        let state = |standby: &StandbyShard| {
            let (providers, satisfaction) = standby.checkpoint();
            (
                standby.watermark(),
                standby.checkpoints(),
                registry_digest(providers),
                satisfaction_digest(satisfaction),
                log.depth(),
                log.last_sequence(),
            )
        };
        let before = state(standby);
        is_gap(standby.catch_up(log).expect_err("a gap"));
        is_gap(standby.cut_checkpoint(primary, log).expect_err("a gap"));
        is_gap(standby.replay_digest(log).expect_err("a gap"));
        assert_eq!(state(standby), before);
        let (providers, satisfaction) = standby.checkpoint();
        let copy = StandbyShard::new(
            primary.fork_allocator(),
            providers.clone(),
            satisfaction.clone(),
            standby.watermark(),
        );
        is_gap(
            copy.promote(log, &StaticIntentions::new())
                .expect_err("a gap"),
        );
    }

    #[test]
    fn a_log_with_a_sequence_gap_is_refused_and_changes_nothing() {
        let (mut primary, log, mut standby) = bulk_loaded(false);
        // Three more records, the first of them lost.
        let lossy = damaged(&log, |log| {
            let lost = log.records.len();
            for id in 0..3 {
                log.push(DeltaOp::Mutation(load(id, 1)), None);
            }
            log.records.remove(lost);
        });
        assert_a_gap(&mut primary, &mut standby, &lossy);
    }

    #[test]
    fn a_query_body_lost_in_transit_is_a_gap_that_changes_nothing() {
        let (mut primary, log, mut standby) = bulk_loaded(false);
        // Intact, the copy carries the standby as far as the live log.
        let intact = damaged(&log, |_| {});
        assert_eq!(standby.catch_up(&intact), standby.catch_up(&log));
        let lossy = damaged(&log, |log| {
            log.queries.remove(3);
        });
        assert_a_gap(&mut primary, &mut standby, &lossy);
    }
}
