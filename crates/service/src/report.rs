//! Merged reports of a service run.
//!
//! Each shard mediates its queries independently; at report time the
//! per-shard views are merged into one service-wide picture:
//!
//! * the [`OutcomeRecord`] stream, ordered by `(VirtualTime, QueryId)` — the
//!   determinism contract: for a fixed seed and producer order the merged
//!   stream is byte-stable across runs regardless of how the shard threads
//!   interleaved in wall-clock time;
//! * one [`ShardReport`] per shard (tallies + latency percentiles), so tail
//!   latency can be compared *across* shards;
//! * the aggregate [`BatchReport`] and latency distribution.

use sbqa_core::allocator::AllocationDecision;
use sbqa_core::{BatchReport, DegradationStats, KnAdjustment, PlanCacheStats};
use sbqa_metrics::{LatencyRecorder, LatencyUnit};
use sbqa_replication::ReplicationStats;
use sbqa_types::{ConsumerId, ProviderId, Query, QueryId, SbqaError, SbqaResult, VirtualTime};

/// Providers an outcome kept in place: every replication factor the
/// benchmark and the scenarios use.
const INLINE: usize = 3;

/// The providers a query was allocated to, best-ranked first. Up to three
/// of them are held in place and more on the heap, so recording an outcome
/// allocates nothing at the usual replication factors. Reads as the
/// `&[ProviderId]` it derefs to.
#[derive(Clone)]
pub struct Selected(Slots);

#[derive(Clone)]
enum Slots {
    Inline { len: u8, ids: [ProviderId; INLINE] },
    Heap(Vec<ProviderId>),
}

impl Selected {
    /// No provider: a starved or shed query's outcome.
    const NONE: Self = Self(Slots::Inline {
        len: 0,
        ids: [ProviderId::new(0); INLINE],
    });
}

impl From<&[ProviderId]> for Selected {
    fn from(providers: &[ProviderId]) -> Self {
        if providers.len() > INLINE {
            return Self(Slots::Heap(providers.to_vec()));
        }
        let mut ids = [ProviderId::new(0); INLINE];
        ids[..providers.len()].copy_from_slice(providers);
        Self(Slots::Inline {
            len: providers.len() as u8,
            ids,
        })
    }
}

impl std::ops::Deref for Selected {
    type Target = [ProviderId];

    fn deref(&self) -> &[ProviderId] {
        match &self.0 {
            Slots::Inline { len, ids } => &ids[..usize::from(*len)],
            Slots::Heap(ids) => ids,
        }
    }
}

impl<'a> IntoIterator for &'a Selected {
    type Item = &'a ProviderId;
    type IntoIter = std::slice::Iter<'a, ProviderId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Equal when the provider lists are, however each is held.
impl PartialEq for Selected {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Selected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The service-visible outcome of one query's mediation.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeRecord {
    /// The shard that mediated the query.
    pub shard: usize,
    /// The mediated query.
    pub query: QueryId,
    /// The consumer that issued it.
    pub consumer: ConsumerId,
    /// Virtual time at which the consumer issued it (the merge key's major
    /// component).
    pub issued_at: VirtualTime,
    /// Providers the query was allocated to, best-ranked first; empty if the
    /// query starved or was shed.
    pub selected: Selected,
    /// `true` if the shard found no capable online provider.
    pub starved: bool,
    /// `true` if the degradation ladder rejected the query before mediation.
    /// Disjoint from `starved`: shedding is a deliberate admission decision,
    /// not a capability failure.
    pub shed: bool,
}

impl OutcomeRecord {
    /// Classifies what [`MediatorShard::submit`](crate::MediatorShard::submit)
    /// answered for `query` at `shard`: a decision, a shed
    /// ([`SbqaError::QueryShed`]) or — any other error — a starvation.
    #[must_use]
    pub fn from_result(
        shard: usize,
        query: &Query,
        result: SbqaResult<&AllocationDecision>,
    ) -> Self {
        let (selected, starved, shed) = match result {
            Ok(decision) => (Selected::from(&decision.selected[..]), false, false),
            Err(SbqaError::QueryShed { .. }) => (Selected::NONE, false, true),
            Err(_) => (Selected::NONE, true, false),
        };
        Self {
            shard,
            query: query.id,
            consumer: query.consumer,
            issued_at: query.issued_at,
            selected,
            starved,
            shed,
        }
    }

    /// The merge key: outcomes are ordered by issue time, ties broken by
    /// query id.
    #[must_use]
    pub fn merge_key(&self) -> (VirtualTime, QueryId) {
        (self.issued_at, self.query)
    }
}

/// One shard's view of a service run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The shard index.
    pub shard: usize,
    /// Mediated/starved tallies of everything the shard drained.
    pub report: BatchReport,
    /// Per-query ingest-to-decision latency samples.
    pub latency: LatencyRecorder,
    /// The shard's adaptive-`kn` trajectory (every recorded width change,
    /// in adaptation order); empty when adaptation is disabled.
    pub kn_trail: Vec<KnAdjustment>,
    /// Counters of the shard registry's candidate-plan cache.
    pub cache: PlanCacheStats,
    /// Replication counters (log depth, applied sequence, replay lag);
    /// `None` when the shard runs without a standby.
    pub replication: Option<ReplicationStats>,
    /// Degradation-ladder counters (per-tier admissions, sheds, tier
    /// transitions); `None` when the shard runs without a ladder.
    pub degradation: Option<DegradationStats>,
    /// The replication fault that stopped the shard, if one is pending (see
    /// [`MediatorShard::fault`](crate::MediatorShard::fault)).
    pub fault: Option<SbqaError>,
}

/// The merged report of a whole service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-shard tallies and latency, indexed by shard.
    pub shards: Vec<ShardReport>,
    /// Every query's outcome, ordered by `(VirtualTime, QueryId)`.
    pub outcomes: Vec<OutcomeRecord>,
    /// Aggregate tallies across all shards.
    pub total: BatchReport,
    /// Wall-clock span from service spawn to the last shard draining dry.
    pub wall: std::time::Duration,
}

impl ServiceReport {
    /// Assembles a service report from per-shard results, sorting the
    /// outcome stream by its merge key (stable, so records that tie on both
    /// time and id keep their per-shard order).
    #[must_use]
    pub fn merge(
        mut shards: Vec<ShardReport>,
        mut outcomes: Vec<OutcomeRecord>,
        wall: std::time::Duration,
    ) -> Self {
        shards.sort_by_key(|s| s.shard);
        outcomes.sort_by_key(OutcomeRecord::merge_key);
        let mut total = BatchReport::default();
        for shard in &shards {
            total.merge(&shard.report);
        }
        Self {
            shards,
            outcomes,
            total,
            wall,
        }
    }

    /// The whole-service latency distribution (all shards merged).
    #[must_use]
    pub fn aggregate_latency(&self) -> LatencyRecorder {
        let mut merged = LatencyRecorder::new();
        for shard in &self.shards {
            merged.merge(&shard.latency);
        }
        merged
    }

    /// Aggregate throughput in queries per wall-clock second.
    #[must_use]
    pub fn throughput_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total.submitted() as f64 / secs
    }

    /// The display unit every per-shard latency row of this report should
    /// share, chosen from the largest per-shard p99 (falling back to the
    /// aggregate maximum when no shard recorded anything).
    ///
    /// The per-recorder adaptive display
    /// ([`LatencyRecorder::display_nanos`]) picks its unit per value, which
    /// renders neighbouring shard rows in different units (`980.00µs` next
    /// to `1.02ms`) — visually incomparable. Formatting every row with this
    /// one unit keeps the shard comparison honest.
    #[must_use]
    pub fn shard_latency_unit(&self) -> LatencyUnit {
        let widest = self
            .shards
            .iter()
            .map(|shard| shard.latency.p99())
            .max()
            .filter(|&p99| p99 > 0)
            .unwrap_or_else(|| self.aggregate_latency().max_nanos());
        LatencyUnit::for_nanos(widest)
    }

    /// Fleet-wide candidate-plan cache counters: every shard's cache stats
    /// folded together (`entries`/`capacity` sum across shards).
    #[must_use]
    pub fn cache_stats(&self) -> PlanCacheStats {
        let mut merged = PlanCacheStats::default();
        for shard in &self.shards {
            merged.merge(&shard.cache);
        }
        merged
    }

    /// Fleet-wide replication counters: every replicated shard's stats
    /// folded together (depths sum, replay lag takes the worst shard).
    /// `None` when no shard ran with a standby.
    #[must_use]
    pub fn replication_stats(&self) -> Option<ReplicationStats> {
        let mut merged: Option<ReplicationStats> = None;
        for shard in &self.shards {
            if let Some(stats) = &shard.replication {
                merged
                    .get_or_insert_with(ReplicationStats::default)
                    .merge(stats);
            }
        }
        merged
    }

    /// Fleet-wide degradation counters: every ladder-armed shard's stats
    /// folded together. `None` when no shard ran with a degradation ladder.
    #[must_use]
    pub fn degradation_stats(&self) -> Option<DegradationStats> {
        let mut merged: Option<DegradationStats> = None;
        for shard in &self.shards {
            if let Some(stats) = &shard.degradation {
                merged
                    .get_or_insert_with(DegradationStats::default)
                    .merge(stats);
            }
        }
        merged
    }

    /// Queries the degradation ladders shed across the whole service (0
    /// without ladders).
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.degradation_stats().map_or(0, |stats| stats.shed)
    }

    /// The pending replication fault of the lowest-indexed faulted shard.
    /// Queries routed to that shard after the fault have no outcome.
    #[must_use]
    pub fn fault(&self) -> Option<&SbqaError> {
        self.shards.iter().find_map(|shard| shard.fault.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(shard: usize, id: u64, at: f64) -> OutcomeRecord {
        OutcomeRecord {
            shard,
            query: QueryId::new(id),
            consumer: ConsumerId::new(1),
            issued_at: VirtualTime::new(at),
            selected: Selected::from(&[ProviderId::new(id)][..]),
            starved: false,
            shed: false,
        }
    }

    fn shard_report(shard: usize, mediated: usize, starved: usize) -> ShardReport {
        ShardReport {
            shard,
            report: BatchReport { mediated, starved },
            latency: {
                let mut latency = LatencyRecorder::new();
                latency.record_nanos(100 * (shard as u64 + 1));
                latency
            },
            kn_trail: Vec::new(),
            cache: PlanCacheStats {
                hits: 4 * shard as u64,
                misses: 1,
                ..PlanCacheStats::default()
            },
            replication: Some(ReplicationStats {
                log_depth: 3,
                last_appended: 10 + shard as u64,
                replay_lag: shard as u64,
                ..ReplicationStats::default()
            }),
            degradation: Some(DegradationStats {
                normal: mediated as u64,
                shed: shard as u64,
                transitions: 1,
                ..DegradationStats::default()
            }),
            fault: None,
        }
    }

    #[test]
    fn merge_orders_outcomes_by_time_then_id() {
        let outcomes = vec![
            record(1, 7, 2.0),
            record(0, 9, 1.0),
            record(1, 3, 1.0),
            record(0, 5, 2.0),
        ];
        let report = ServiceReport::merge(
            vec![shard_report(1, 2, 0), shard_report(0, 2, 1)],
            outcomes,
            std::time::Duration::from_millis(10),
        );
        let ids: Vec<u64> = report.outcomes.iter().map(|o| o.query.raw()).collect();
        assert_eq!(ids, vec![3, 9, 5, 7]);
        // Shard reports come back sorted by index, tallies summed.
        assert_eq!(report.shards[0].shard, 0);
        assert_eq!(report.shards[1].shard, 1);
        assert_eq!(report.total.mediated, 4);
        assert_eq!(report.total.starved, 1);
    }

    #[test]
    fn aggregate_latency_and_throughput() {
        let report = ServiceReport::merge(
            vec![shard_report(0, 3, 0), shard_report(1, 2, 0)],
            Vec::new(),
            std::time::Duration::from_secs(1),
        );
        let latency = report.aggregate_latency();
        assert_eq!(latency.count(), 2);
        assert_eq!(latency.max_nanos(), 200);
        assert!((report.throughput_per_sec() - 5.0).abs() < 1e-9);
        // Cache counters fold across shards.
        let cache = report.cache_stats();
        assert_eq!(cache.hits, 4);
        assert_eq!(cache.misses, 2);
        assert_eq!(cache.lookups(), 6);
        assert!((cache.hit_rate() - 4.0 / 6.0).abs() < 1e-12);
        // Replication counters fold across shards: depths sum, lag is the
        // worst shard's, high-water marks take the maximum.
        let replication = report.replication_stats().unwrap();
        assert_eq!(replication.log_depth, 6);
        assert_eq!(replication.last_appended, 11);
        assert_eq!(replication.replay_lag, 1);
        // Degradation counters fold across shards the same way.
        let degradation = report.degradation_stats().unwrap();
        assert_eq!(degradation.normal, 5);
        assert_eq!(degradation.shed, 1);
        assert_eq!(degradation.transitions, 2);
        assert_eq!(report.shed(), 1);

        let degenerate = ServiceReport::merge(Vec::new(), Vec::new(), std::time::Duration::ZERO);
        assert_eq!(degenerate.throughput_per_sec(), 0.0);
    }
}
