//! The append-only registry delta log.
//!
//! One log per primary shard. The shard's `ProviderRegistry` feeds it
//! through the [`sbqa_core::DeltaSink`] hook, assigning every effective
//! mutation a monotonically increasing sequence number; checkpoints append a
//! [`DeltaOp::SnapshotMark`] so a cut point is totally ordered against the
//! mutations around it. Records are serde round-trippable: a log shipped
//! through serialization replays to the same state as the in-memory one.

use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use sbqa_core::{DeltaSink, RegistryDelta};

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
    /// A checkpoint was cut here: every mutation at or before this sequence
    /// is contained in the checkpoint's state, everything after is tail.
    SnapshotMark,
}

/// An append-only, monotonically-sequenced delta log with front pruning.
///
/// Retained records are contiguous: `records[i].sequence` is
/// `first_retained + i`, so tail reads are a slice, not a scan.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DeltaLog {
    records: Vec<DeltaRecord>,
    /// Sequence of the most recently appended record (0 = nothing ever).
    appended: u64,
    /// Records dropped off the front by [`DeltaLog::prune_through`].
    pruned: u64,
    /// Snapshot marks ever appended.
    marks: u64,
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

    /// Appends a snapshot mark, returning its sequence. Everything at or
    /// before the returned sequence is promised to be inside the checkpoint
    /// cut alongside this mark.
    pub fn mark_snapshot(&mut self) -> u64 {
        self.marks += 1;
        self.append(DeltaOp::SnapshotMark)
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

    /// Snapshot marks appended over the log's lifetime.
    #[must_use]
    pub fn marks(&self) -> u64 {
        self.marks
    }

    /// The retained records with sequence strictly greater than `after`, or
    /// `None` if pruning has already dropped part of that range — the signal
    /// that a reader at watermark `after` can no longer be caught up from
    /// this log and needs a fresh checkpoint.
    #[must_use]
    pub fn tail_after(&self, after: u64) -> Option<&[DeltaRecord]> {
        if after < self.pruned {
            return None;
        }
        let skip = usize::try_from(after - self.pruned).ok()?;
        self.records.get(skip.min(self.records.len())..)
    }

    /// Drops every record with sequence at or below `through` (typically a
    /// checkpoint watermark: the checkpoint now carries that prefix).
    pub fn prune_through(&mut self, through: u64) {
        let keep = self
            .records
            .iter()
            .position(|record| record.sequence > through)
            .unwrap_or(self.records.len());
        self.records.drain(..keep);
        self.pruned = self.pruned.max(through.min(self.appended));
    }

    /// All retained records, oldest first.
    #[must_use]
    pub fn records(&self) -> &[DeltaRecord] {
        &self.records
    }
}

/// A cloneable handle on a shared [`DeltaLog`]: the form the registry's
/// delta hook consumes (the registry owns one erased handle, the standby and
/// the orchestrator hold others).
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

    /// Appends a snapshot mark, returning its sequence.
    pub fn mark_snapshot(&self) -> u64 {
        self.with(DeltaLog::mark_snapshot)
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

    /// Snapshot marks appended over the log's lifetime.
    #[must_use]
    pub fn marks(&self) -> u64 {
        self.with(|log| log.marks())
    }

    /// Clones out the records with sequence strictly greater than `after`;
    /// `None` if that range has been partially pruned (the reader needs a
    /// fresh checkpoint instead).
    #[must_use]
    pub fn collect_after(&self, after: u64) -> Option<Vec<DeltaRecord>> {
        self.with(|log| log.tail_after(after).map(<[DeltaRecord]>::to_vec))
    }

    /// Hands the records with sequence strictly greater than `after` to
    /// `visit`, oldest first, under the log lock and without copying them,
    /// stopping at its first error; a reader that is already up to date
    /// pays one lock and a sequence compare. `None` if that range has been
    /// partially pruned. `visit` must not append to this log.
    pub fn visit_after<E>(
        &self,
        after: u64,
        visit: impl FnMut(&DeltaRecord) -> Result<(), E>,
    ) -> Option<Result<(), E>> {
        self.with(|log| {
            log.tail_after(after)
                .map(|records| records.iter().try_for_each(visit))
        })
    }

    /// Drops every record with sequence at or below `through`.
    pub fn prune_through(&self, through: u64) {
        self.with(|log| log.prune_through(through));
    }
}

/// Shares a log — one read back from its serialized form, say — so a
/// standby can [`catch_up`](crate::StandbyShard::catch_up) from it.
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
    use sbqa_types::ProviderId;

    fn load(id: u64, queue: usize) -> RegistryDelta {
        RegistryDelta::UpdateLoad {
            id: ProviderId::new(id),
            utilization: queue as f64 * 0.5,
            queue_length: queue,
        }
    }

    #[test]
    fn sequences_are_dense_and_monotonic() {
        let mut log = DeltaLog::new();
        assert_eq!(log.last_sequence(), 0);
        assert_eq!(log.first_retained(), None);
        for i in 1..=5u64 {
            assert_eq!(log.append_mutation(load(i, 1)), i);
        }
        assert_eq!(log.mark_snapshot(), 6);
        assert_eq!(log.last_sequence(), 6);
        assert_eq!(log.depth(), 6);
        assert_eq!(log.marks(), 1);
        let seqs: Vec<u64> = log.records().iter().map(|r| r.sequence).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn tail_and_prune_respect_the_watermark() {
        let mut log = DeltaLog::new();
        for i in 1..=8u64 {
            log.append_mutation(load(i, i as usize));
        }
        assert_eq!(log.tail_after(0).map(<[DeltaRecord]>::len), Some(8));
        assert_eq!(log.tail_after(5).map(<[DeltaRecord]>::len), Some(3));
        assert_eq!(log.tail_after(8).map(<[DeltaRecord]>::len), Some(0));
        assert_eq!(log.tail_after(99).map(<[DeltaRecord]>::len), Some(0));

        log.prune_through(5);
        assert_eq!(log.depth(), 3);
        assert_eq!(log.first_retained(), Some(6));
        // A reader at watermark >= 5 can still catch up…
        assert_eq!(log.tail_after(5).map(<[DeltaRecord]>::len), Some(3));
        assert_eq!(log.tail_after(6).map(<[DeltaRecord]>::len), Some(2));
        // …a reader behind the pruned prefix cannot.
        assert_eq!(log.tail_after(4), None);
    }

    #[test]
    fn shared_log_collects_what_the_sink_recorded() {
        let shared = SharedDeltaLog::new();
        let mut sink: Box<dyn DeltaSink> = Box::new(shared.clone());
        sink.record(&load(1, 2));
        sink.record(&load(2, 4));
        assert_eq!(shared.last_sequence(), 2);
        let tail = shared.collect_after(1).expect("contiguous");
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].sequence, 2);
        assert_eq!(tail[0].op, DeltaOp::Mutation(load(2, 4)));

        // The visitor sees the same range in place, stops at the first
        // error, and reports a pruned range as `None`.
        let mut seen = Vec::new();
        let visited = shared.visit_after(0, |record| {
            seen.push(record.sequence);
            if record.sequence == 1 {
                Ok(())
            } else {
                Err("stop")
            }
        });
        assert_eq!(visited, Some(Err("stop")));
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(shared.visit_after(2, |_| Err("unreached")), Some(Ok(())));
        shared.prune_through(2);
        assert_eq!(shared.visit_after(1, |_| Ok::<(), ()>(())), None);
    }

    #[test]
    fn log_round_trips_through_serde() {
        let mut log = DeltaLog::new();
        log.append_mutation(load(3, 7));
        log.mark_snapshot();
        log.prune_through(1);
        let back = DeltaLog::from_value(&log.to_value()).expect("round trip");
        assert_eq!(back.last_sequence(), log.last_sequence());
        assert_eq!(back.depth(), log.depth());
        assert_eq!(back.records(), log.records());
        assert_eq!(back.tail_after(0), log.tail_after(0));
    }

    /// Every strict prefix of a serialized log or record — a transfer cut
    /// short anywhere — is a deserialization error, never a panic or a
    /// shorter log.
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
        log.mark_snapshot();
        log.prune_through(2);
        let text = serde_json::to_string(&log).expect("serializes");
        let record = serde_json::to_string(&log.records()[0]).expect("serializes");
        assert!(serde_json::from_str::<DeltaLog>(&text).is_ok());
        assert!(serde_json::from_str::<DeltaRecord>(&record).is_ok());
        for cut in 0..text.len() {
            assert!(
                serde_json::from_str::<DeltaLog>(&text[..cut]).is_err(),
                "log prefix {cut}"
            );
        }
        for cut in 0..record.len() {
            assert!(
                serde_json::from_str::<DeltaRecord>(&record[..cut]).is_err(),
                "record prefix {cut}"
            );
        }
    }
}
