//! The append-only shard log.
//!
//! One log per replicated shard, and the only record of what the shard did
//! since its standby's checkpoint: every effective registry mutation (fed by
//! the shard's `ProviderRegistry` through the [`sbqa_core::DeltaSink`] hook),
//! every offered query with its admission verdict, and every consumer
//! registration, each under a monotonically increasing sequence number in
//! the order the shard met them. A promotion replays it in that order.
//!
//! A query's body is kept beside the records, not in its record, so every
//! record stays the size of a registry delta. Records and bodies are serde
//! round-trippable: a log shipped through serialization replays to the same
//! state as the in-memory one.

use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use sbqa_core::{Admission, DeltaSink, RegistryDelta};
use sbqa_types::{ConsumerId, Query};

/// One entry of the log: what happened, and its position in the total order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeltaRecord {
    /// Position in the log's total order; starts at 1, increases by exactly
    /// 1 per appended record.
    pub sequence: u64,
    /// The recorded event.
    pub op: DeltaOp,
}

/// The payload of a [`DeltaRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeltaOp {
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
/// `first_retained + i`, so tail reads are a slice, not a scan. `queries`
/// holds the body of every retained query record, in record order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DeltaLog {
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
    /// Creates an empty log whose first append gets sequence 1.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a mutation record, returning its sequence.
    pub fn append_mutation(&mut self, delta: RegistryDelta) -> u64 {
        self.append(DeltaOp::Mutation(delta))
    }

    /// Appends an offered query with its admission verdict, returning its
    /// sequence.
    pub fn append_query(&mut self, query: &Query, admission: Admission) -> u64 {
        self.queries.push(query.clone());
        self.append(DeltaOp::Query(admission))
    }

    /// Appends a consumer registration, returning its sequence.
    pub fn append_consumer(&mut self, id: ConsumerId) -> u64 {
        self.append(DeltaOp::RegisterConsumer(id))
    }

    fn append(&mut self, op: DeltaOp) -> u64 {
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

    /// Sequence of the oldest retained record, or `None` if the log holds
    /// nothing (empty or fully pruned).
    #[must_use]
    pub fn first_retained(&self) -> Option<u64> {
        self.records.first().map(|record| record.sequence)
    }

    /// Number of records currently retained.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.records.len()
    }

    /// The retained records with sequence strictly greater than `after`,
    /// oldest first, as `(sequence, entry)`; the entry is `None` for a query
    /// record whose body is missing (a log deserialized with its bodies cut
    /// short). `None` if pruning has already dropped part of that range —
    /// the signal that a reader at watermark `after` can no longer be
    /// carried forward by this log and needs a fresh checkpoint.
    pub fn tail_after(
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

    /// All retained records, oldest first.
    #[must_use]
    pub fn records(&self) -> &[DeltaRecord] {
        &self.records
    }
}

/// A cloneable handle on a shared [`DeltaLog`]: the form the registry's
/// delta hook consumes (the registry owns one erased handle, the shard
/// holds another).
///
/// Lock poisoning is absorbed with `PoisonError::into_inner` rather than a
/// panic: the log's state is a plain `Vec` append, valid after any
/// interrupted writer.
#[derive(Debug, Clone, Default)]
pub struct SharedDeltaLog {
    inner: Arc<Mutex<DeltaLog>>,
}

impl SharedDeltaLog {
    /// Creates a handle on a fresh, empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` under the log lock.
    fn with<T>(&self, f: impl FnOnce(&mut DeltaLog) -> T) -> T {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    /// Appends a mutation record, returning its sequence.
    pub fn append_mutation(&self, delta: RegistryDelta) -> u64 {
        self.with(|log| log.append_mutation(delta))
    }

    /// Appends an offered query with its admission verdict, returning its
    /// sequence.
    pub fn append_query(&self, query: &Query, admission: Admission) -> u64 {
        self.with(|log| log.append_query(query, admission))
    }

    /// Appends a consumer registration, returning its sequence.
    pub fn append_consumer(&self, id: ConsumerId) -> u64 {
        self.with(|log| log.append_consumer(id))
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
    /// `visit` as [`DeltaLog::tail_after`] yields them, oldest first, under the log lock and
    /// without copying them, stopping at its first error. `None` if that
    /// range has been partially pruned. `visit` must not append to this log.
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

/// Shares a log — one read back from its serialized form, say — so a
/// standby can read it.
impl From<DeltaLog> for SharedDeltaLog {
    fn from(log: DeltaLog) -> Self {
        Self {
            inner: Arc::new(Mutex::new(log)),
        }
    }
}

impl DeltaSink for SharedDeltaLog {
    fn record(&mut self, delta: &RegistryDelta) {
        self.append_mutation(*delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::DegradationTier;
    use sbqa_types::{Capability, ProviderId, QueryId};

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
        let mut log = DeltaLog::new();
        assert_eq!(log.last_sequence(), 0);
        assert_eq!(log.first_retained(), None);
        for i in 1..=4u64 {
            assert_eq!(log.append_mutation(load(i, 1)), i);
        }
        assert_eq!(log.append_query(&query(9), Admission::Shed), 5);
        assert_eq!(log.append_consumer(ConsumerId::new(3)), 6);
        assert_eq!(log.last_sequence(), 6);
        assert_eq!(log.depth(), 6);
        let seqs: Vec<u64> = log.records().iter().map(|r| r.sequence).collect();
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
        let mut log = DeltaLog::new();
        for i in 1..=8u64 {
            log.append_mutation(load(i, i as usize));
        }
        let len = |after| log.tail_after(after).map(|tail| tail.len());
        assert_eq!(len(0), Some(8));
        assert_eq!(len(5), Some(3));
        assert_eq!(len(8), Some(0));
        assert_eq!(len(99), Some(0));

        log.prune_through(5);
        assert_eq!(log.depth(), 3);
        assert_eq!(log.first_retained(), Some(6));
        let len = |after| log.tail_after(after).map(|tail| tail.len());
        // A reader at watermark >= 5 can still be carried forward…
        assert_eq!(len(5), Some(3));
        assert_eq!(len(6), Some(2));
        // …a reader behind the pruned prefix cannot.
        assert!(log.tail_after(4).is_none());
    }

    #[test]
    fn every_query_record_reads_its_own_body_across_prunes() {
        let mut log = DeltaLog::new();
        log.append_query(&query(10), ADMITTED);
        log.append_mutation(load(1, 1));
        log.append_query(&query(11), Admission::Shed);
        log.append_consumer(ConsumerId::new(4));
        log.append_query(&query(12), ADMITTED);

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
    fn shared_log_visits_what_the_sink_recorded() {
        let shared = SharedDeltaLog::new();
        let mut sink: Box<dyn DeltaSink> = Box::new(shared.clone());
        sink.record(&load(1, 2));
        sink.record(&load(2, 4));
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

    #[test]
    fn log_round_trips_through_serde() {
        let mut log = DeltaLog::new();
        log.append_mutation(load(3, 7));
        log.append_query(&query(5), ADMITTED);
        log.append_consumer(ConsumerId::new(2));
        log.append_query(&query(6), Admission::Shed);
        log.prune_through(1);
        let back = DeltaLog::from_value(&log.to_value()).expect("round trip");
        assert_eq!(back.last_sequence(), log.last_sequence());
        assert_eq!(back.depth(), log.depth());
        assert_eq!(back.records(), log.records());
        assert!(back.tail_after(0).is_none());
        assert_eq!(
            read(back.tail_after(1).expect("retained")),
            read(log.tail_after(1).expect("retained"))
        );
    }

    /// Every strict prefix of a serialized log or record — a transfer cut
    /// short anywhere, in a record or in a query body — is a deserialization
    /// error, never a panic or a shorter log.
    #[test]
    fn a_truncated_log_or_record_fails_to_deserialize() {
        let mut log = DeltaLog::new();
        for i in 1..=4u64 {
            log.append_mutation(load(i, i as usize));
        }
        log.append_mutation(RegistryDelta::SetOnline {
            id: ProviderId::new(2),
            online: false,
        });
        log.append_query(&query(8), ADMITTED);
        log.append_consumer(ConsumerId::new(3));
        log.prune_through(2);
        let text = serde_json::to_string(&log).expect("serializes");
        assert!(serde_json::from_str::<DeltaLog>(&text).is_ok());
        for cut in 0..text.len() {
            assert!(
                serde_json::from_str::<DeltaLog>(&text[..cut]).is_err(),
                "log prefix {cut}"
            );
        }
        let records = log.records();
        for record in [
            records[0],
            records[records.len() - 2],
            records[records.len() - 1],
        ] {
            let text = serde_json::to_string(&record).expect("serializes");
            assert!(serde_json::from_str::<DeltaRecord>(&text).is_ok());
            for cut in 0..text.len() {
                assert!(
                    serde_json::from_str::<DeltaRecord>(&text[..cut]).is_err(),
                    "record {text} prefix {cut}"
                );
            }
        }
        let body = serde_json::to_string(&query(8)).expect("serializes");
        for cut in 0..body.len() {
            assert!(
                serde_json::from_str::<Query>(&body[..cut]).is_err(),
                "query body prefix {cut}"
            );
        }
    }
}
