//! The threaded driver.
//!
//! [`MediationService`] turns a [`ShardedMediator`] into a running service:
//! each shard moves into its own **mediation thread** behind a per-shard
//! **bounded ingest ring** ([`BoundedRing`] — no external runtime).
//! Producers enqueue queries in batches; each batch enters a shard's ring as
//! one **chunk** (the shard's sorted share of the batch), and a producer
//! only blocks when the chunk does not fit. Each shard thread takes one
//! chunk at a time through the shard's batch step — [`MediatorShard::submit`]
//! taken in two phases over a group of queries, as the inline driver takes
//! it, so whatever the shards were armed with (a degradation ladder, a
//! standby) works here unchanged — and accumulates the outcome stream.
//! [`MediationService::finish`] closes the rings, joins the threads and
//! merges the per-shard results into a [`ServiceReport`];
//! [`MediationService::finish_with_shards`] also hands the shards back, for
//! [`ShardedMediator::from_shards`] to crash, checkpoint or respawn.
//!
//! ## Back-pressure and the degradation ladder
//!
//! The seed's unbounded mpsc queues had defined behavior only below
//! saturation: a sustained overload step just grew the hot shard's queue
//! (7.9 s p99 at a 10× step) while every query still received full-quality
//! mediation, far too late to matter. [`IngestConfig`] replaces that with
//! two coupled mechanisms:
//!
//! * the **bounded ring** ([`IngestConfig::ring_capacity`], in queries)
//!   bounds the physical queue. A chunk keeps its room until its mediation
//!   ends, so the chunks queued and the one being mediated never hold more
//!   than the capacity: a query waits behind at most one ring-length, and
//!   the wall-clock queue wait is capped at roughly `capacity / drain-rate`.
//!   A chunk larger than the whole ring enters an empty ring, alone;
//! * the **degradation ladder** ([`IngestConfig::degradation`], a
//!   [`DegradationLadder`](sbqa_core::DegradationLadder) per shard) decides
//!   *deterministically* what to sacrifice as modeled pressure rises:
//!   shrink the KnBest exploration width to
//!   [`SHRINK_KN_FLOOR`](sbqa_core::degrade::SHRINK_KN_FLOOR), fall back to
//!   a capacity-based allocation, and finally shed — in stable
//!   `(VirtualTime, QueryId)` order, so the shed set is byte-reproducible
//!   per seed and independent of chunk sizes and thread timing. Each
//!   verdict is an [`Admission`](sbqa_core::Admission) that the shard hands
//!   to its mediator with the query and, on a replicated shard, appends to
//!   its log.
//!
//! Without a degradation config the shards run as they were armed — by
//! default admitting everything at full quality. The caller always names
//! the ring's capacity.
//!
//! ## Latency semantics
//!
//! Every chunk is stamped with one wall-clock [`Instant`] *at enqueue
//! time*, before any blocking push; each of its queries' latency samples
//! spans enqueue → decision (or enqueue → shed), so it includes both the
//! time spent blocked on a full ring and the time waiting inside it. A
//! producer takes a ring's lock and wakes its shard thread once per chunk,
//! so larger batches amortize ring traffic — the batch-size/latency
//! trade-off (`perf` reads it off `service.ingest.enqueue_ns` and
//! `service.ingest.p99_us.rate80k`). Emptied chunk buffers go back
//! through the ring to the producer, so a warm front allocates nothing per
//! chunk beyond the doubling steps of the shard's outcome and latency
//! vectors (`zero_alloc.rs` counts them).
//!
//! ## Determinism
//!
//! Per shard, queries are mediated in ring (FIFO) order. The producer sorts
//! every per-shard sub-batch by `(issued_at, id)` before it enters the ring
//! — this fixes the seed's chunking wart, where a chunk enqueued out of
//! issue order inverted arrival order at the queue boundary and made the
//! drain order (and any order-sensitive admission policy) depend on how the
//! producer happened to chunk. With a single producer the per-shard drain
//! streams — and the merged `(VirtualTime, QueryId)`-ordered outcome stream
//! — are therefore byte-stable across runs for a fixed seed, no matter how
//! the shard threads interleave in wall time, and the degradation ladder's
//! tier transitions and shed decisions inherit that stability because they
//! are driven by the stream's own virtual time, never the wall clock.
//! (Latency *samples* are wall-clock measurements and naturally vary;
//! determinism is about decisions.) With multiple racing producers the
//! per-shard arrival order itself becomes nondeterministic; byte-stability
//! then requires the producers to agree on an enqueue order.
//!
//! The batch boundary is producer-defined: the chunk is the batch. The
//! shard thread opens a batch (one adaptive-`kn` round) before a chunk's
//! first query and closes it (one step of a replicated shard's checkpoint
//! cadence) after its last, independent of how fast the ring fills.
//!
//! ## Replication faults
//!
//! A shard thread cannot return an error mid-stream. When its shard's
//! replication stream faults — a gap met by a query's sync, or a record
//! that does not apply, met by a checkpoint cut at a chunk's end — the
//! thread keeps draining and freeing each chunk's room, so producers never
//! deadlock on a full ring, but the shard takes no further query: those
//! queries get no outcome, and the fault comes back on the shard
//! ([`MediatorShard::fault`]) and in its [`ShardReport`](crate::ShardReport).
//!
//! A shard thread that panics closes its ring as it unwinds, so the
//! producer's next [`MediationService::enqueue_batch`] to that shard panics
//! instead of blocking forever on a ring nobody drains.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use sbqa_core::allocator::IntentionOracle;
use sbqa_core::DegradationConfig;
use sbqa_types::SbqaResult;

use crate::report::{OutcomeRecord, ServiceReport};
use crate::ring::BoundedRing;
use crate::router::ShardRouter;
use crate::shard::{submit_grouped, MediatorShard};
use crate::sharded::ShardedMediator;

/// Configuration of the ingest front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// Capacity of each shard's ingest ring, in queries. A producer blocks
    /// while its chunk does not fit; a chunk larger than the ring enters an
    /// empty ring. Decisions do not depend on it; queueing latency does.
    pub ring_capacity: usize,
    /// Arms every shard with a fresh degradation ladder; `None` leaves the
    /// shards as they are.
    pub degradation: Option<DegradationConfig>,
}

/// One shard's share of one [`MediationService::enqueue_batch`], sorted by
/// `(issued_at, id)`, with the batch's enqueue timestamp: the ring's item
/// and the shard's batch.
struct Chunk {
    queries: Vec<sbqa_types::Query>,
    enqueued: Instant,
}

/// Closes a shard's ring when its thread ends, unwinding included, so a
/// producer never waits on a ring that nobody drains.
struct CloseOnExit<'a>(&'a BoundedRing<Chunk>);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// What a shard thread hands back when its ring closes.
struct ShardResult {
    shard: MediatorShard,
    outcomes: Vec<OutcomeRecord>,
}

/// A running sharded mediation service: per-shard bounded ingest rings in
/// front of per-shard mediation threads.
pub struct MediationService {
    router: ShardRouter,
    rings: Vec<Arc<BoundedRing<Chunk>>>,
    workers: Vec<JoinHandle<ShardResult>>,
    /// Per-shard staging buffers of [`MediationService::enqueue_batch`],
    /// each replaced by a spare from its ring when it leaves as a chunk.
    staging: Vec<Vec<sbqa_types::Query>>,
    enqueued: usize,
    started: Instant,
}

impl MediationService {
    /// Spawns one mediation thread per shard of `service`, each behind its
    /// own bounded ingest ring, optionally armed with a degradation ladder.
    /// The oracle is shared by all shards (in a real deployment it is the
    /// network asking participants for intentions; here it must be
    /// thread-safe).
    pub fn spawn_with(
        service: ShardedMediator,
        oracle: Arc<dyn IntentionOracle + Send + Sync>,
        config: IngestConfig,
    ) -> SbqaResult<Self> {
        if let Some(degradation) = &config.degradation {
            degradation.validate()?;
        }
        let (router, shards) = service.into_shards();
        let mut rings = Vec::with_capacity(shards.len());
        let mut workers = Vec::with_capacity(shards.len());
        let mut staging = Vec::with_capacity(shards.len());
        for mut shard in shards {
            if let Some(degradation) = config.degradation {
                shard.enable_degradation(degradation)?;
            }
            let ring = Arc::new(BoundedRing::new(config.ring_capacity));
            let worker_ring = Arc::clone(&ring);
            let oracle = Arc::clone(&oracle);
            workers.push(std::thread::spawn(move || {
                drain(shard, &worker_ring, &*oracle)
            }));
            rings.push(ring);
            staging.push(Vec::new());
        }
        Ok(Self {
            router,
            rings,
            workers,
            staging,
            enqueued: 0,
            // sbqa-lint: allow(wall-clock, "latency instrumentation only; enqueue stamps never influence allocation results")
            started: Instant::now(),
        })
    }

    /// The router assigning queries to shard rings.
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shard rings.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.rings.len()
    }

    /// Enqueues a batch: queries are split by assigned shard, each shard's
    /// sub-batch is sorted into `(issued_at, id)` order and enters the
    /// shard's ring as one chunk, weighing its query count. The sort is what
    /// keeps the per-shard drain order — and everything keyed on it, like
    /// degradation-ladder admission — independent of how the producer
    /// chunked the stream. All queries of the batch share one enqueue
    /// timestamp; the call blocks while a target ring has no room for the
    /// chunk.
    ///
    /// # Panics
    /// Panics if a shard's mediation thread has died.
    pub fn enqueue_batch(&mut self, queries: impl IntoIterator<Item = sbqa_types::Query>) {
        // sbqa-lint: allow(wall-clock, "latency instrumentation only; enqueue stamps never influence allocation results")
        let enqueued = Instant::now();
        for query in queries {
            let shard = self.router.shard_of_query(query.id);
            self.staging[shard].push(query);
            self.enqueued += 1;
        }
        for (shard, (staged, ring)) in self.staging.iter_mut().zip(&self.rings).enumerate() {
            if staged.is_empty() {
                continue;
            }
            // A stable sort takes scratch memory; a sorted chunk skips it.
            let key = |query: &sbqa_types::Query| (query.issued_at, query.id);
            if !staged.is_sorted_by_key(key) {
                staged.sort_by_key(key);
            }
            let weight = staged.len();
            let chunk = Chunk {
                queries: std::mem::take(staged),
                enqueued,
            };
            let spare = ring
                .push_weighted(chunk, weight)
                // sbqa-lint: allow(panic-hygiene, "a ring closes before finish only when its shard thread died, and its queries have nowhere to go")
                .unwrap_or_else(|_| panic!("shard {shard}'s mediation thread has died"));
            // Without a spare yet, a buffer the size of this chunk.
            *staged = spare.map_or_else(|| Vec::with_capacity(weight), |spare| spare.queries);
        }
    }

    /// Closes the ingest rings, waits for every shard to drain dry, and
    /// merges the per-shard results — outcomes ordered by
    /// `(VirtualTime, QueryId)` — returning the shards alongside so a caller
    /// can keep mediating synchronously or respawn.
    ///
    /// # Panics
    /// Propagates a panic from any shard mediation thread.
    #[must_use]
    pub fn finish_with_shards(self) -> (ServiceReport, Vec<MediatorShard>) {
        // Closing the rings lets each worker drain what is left and return.
        for ring in &self.rings {
            ring.close();
        }
        let mut shard_reports = Vec::with_capacity(self.workers.len());
        let mut shards = Vec::with_capacity(self.workers.len());
        let mut outcomes = Vec::with_capacity(self.enqueued);
        for worker in self.workers {
            // sbqa-lint: allow(panic-hygiene, "propagates a shard thread panic at shutdown instead of silently dropping outcomes")
            let result = worker.join().expect("shard mediation thread panicked");
            shard_reports.push(result.shard.report_snapshot());
            outcomes.extend(result.outcomes);
            shards.push(result.shard);
        }
        let wall = self.started.elapsed();
        (ServiceReport::merge(shard_reports, outcomes, wall), shards)
    }

    /// [`MediationService::finish_with_shards`], discarding the shards.
    #[must_use]
    pub fn finish(self) -> ServiceReport {
        self.finish_with_shards().0
    }
}

impl std::fmt::Debug for MediationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MediationService")
            .field("shards", &self.rings.len())
            .field("enqueued", &self.enqueued)
            .finish()
    }
}

/// A shard thread's life: take one chunk at a time until the ring closes.
/// Chunks arrive in producer order (the ring is FIFO) and each is sorted,
/// which is the `(issued_at, id)` order [`MediatorShard::submit`] asks for.
/// Each chunk is one batch through the batch step ([`submit_grouped`]); its
/// room is freed and its buffer handed back once the batch ends.
fn drain(
    mut shard: MediatorShard,
    ring: &BoundedRing<Chunk>,
    oracle: &dyn IntentionOracle,
) -> ShardResult {
    let _close = CloseOnExit(ring);
    let mut outcomes = Vec::new();
    while let Some((mut chunk, weight)) = ring.pop() {
        shard.begin_batch();
        // A replication fault stays on the shard, which then takes no
        // query; the loop goes on so that the ring keeps emptying.
        let index = shard.index();
        let queries = &chunk.queries;
        let query_at = |at: usize| (0, &queries[at], chunk.enqueued);
        let _ = submit_grouped(
            std::slice::from_mut(&mut shard),
            queries.len(),
            query_at,
            oracle,
            |_, _, query, result| {
                outcomes.push(OutcomeRecord::from_result(index, query, result));
            },
        );
        shard.end_batch();
        chunk.queries.clear();
        ring.release(weight, Some(chunk));
    }
    ShardResult { shard, outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::StaticIntentions;
    use sbqa_types::{
        Capability, CapabilitySet, ConsumerId, Intention, ProviderId, Query, QueryId, SbqaError,
        SystemConfig, VirtualTime,
    };

    fn build_service(shards: usize, providers: u64) -> ShardedMediator {
        let mut service =
            ShardedMediator::sbqa(SystemConfig::default().with_knbest(10, 3), 42, shards).unwrap();
        for p in 0..providers {
            service.register_provider(
                ProviderId::new(p),
                CapabilitySet::singleton(Capability::new((p % 2) as u8)),
                1.0,
            );
        }
        service.register_consumer(ConsumerId::new(1));
        service
    }

    fn query(id: u64) -> Query {
        Query::builder(
            QueryId::new(id),
            ConsumerId::new(1),
            Capability::new((id % 2) as u8),
        )
        .issued_at(VirtualTime::new(id as f64))
        .build()
    }

    fn oracle() -> Arc<dyn IntentionOracle + Send + Sync> {
        Arc::new(StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(0.6)))
    }

    /// A ring without a ladder; decisions do not depend on its size.
    const RING: IngestConfig = IngestConfig {
        ring_capacity: 1_024,
        degradation: None,
    };

    fn spawn(service: ShardedMediator) -> MediationService {
        MediationService::spawn_with(service, oracle(), RING).unwrap()
    }

    #[test]
    fn service_drains_everything_and_merges_in_order() {
        let mut running = spawn(build_service(3, 30));
        assert_eq!(running.shard_count(), 3);

        // A mix of single-query and chunked batches.
        for id in 0..10u64 {
            running.enqueue_batch(std::iter::once(query(id)));
        }
        running.enqueue_batch((10..64).map(query));
        assert!(format!("{running:?}").contains("enqueued: 64"));

        let report = running.finish();
        assert_eq!(report.total.submitted(), 64);
        assert_eq!(report.total.starved, 0);
        assert_eq!(report.outcomes.len(), 64);
        assert_eq!(report.shed(), 0, "no ladder, nothing shed");
        // Outcomes come back in (issued_at, id) order regardless of which
        // shard thread finished first.
        let ids: Vec<u64> = report.outcomes.iter().map(|o| o.query.raw()).collect();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
        // Every query has a latency sample somewhere.
        assert_eq!(report.aggregate_latency().count(), 64);
        assert!(report.throughput_per_sec() > 0.0);
        // Per-shard tallies add up to the total.
        let sum: usize = report.shards.iter().map(|s| s.report.submitted()).sum();
        assert_eq!(sum, 64);
    }

    #[test]
    fn starvation_is_reported_not_fatal() {
        // Providers only advertise class 0; odd queries (class 1) starve.
        let mut service =
            ShardedMediator::sbqa(SystemConfig::default().with_knbest(10, 3), 7, 2).unwrap();
        for p in 0..10u64 {
            service.register_provider(
                ProviderId::new(p),
                CapabilitySet::singleton(Capability::new(0)),
                1.0,
            );
        }
        service.register_consumer(ConsumerId::new(1));
        let mut running = spawn(service);
        running.enqueue_batch((0..20).map(query));
        let report = running.finish();
        assert_eq!(report.total.mediated, 10);
        assert_eq!(report.total.starved, 10);
        let starved: Vec<u64> = report
            .outcomes
            .iter()
            .filter(|o| o.starved)
            .map(|o| o.query.raw())
            .collect();
        assert_eq!(
            starved,
            (0..20).filter(|id| id % 2 == 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn finish_with_shards_returns_reusable_mediators() {
        let mut running = spawn(build_service(2, 20));
        running.enqueue_batch((0..16).map(query));
        let (report, mut shards) = running.finish_with_shards();
        assert_eq!(report.total.submitted(), 16);
        assert_eq!(shards.len(), 2);
        // The shards keep their registries and can mediate synchronously.
        let total_providers: usize = shards.iter().map(|s| s.mediator().providers().len()).sum();
        assert_eq!(total_providers, 20);
        let q = query(100);
        let static_oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(0.6));
        let any_ok = shards
            .iter_mut()
            .any(|s| matches!(s.submit(&q, &static_oracle, Instant::now()), Ok(Ok(_))));
        assert!(any_ok);
    }

    #[test]
    fn spawn_with_rejects_an_invalid_degradation_config() {
        let config = IngestConfig {
            ring_capacity: 64,
            degradation: Some(DegradationConfig {
                capacity: 0,
                ..DegradationConfig::default()
            }),
        };
        assert!(MediationService::spawn_with(build_service(2, 10), oracle(), config).is_err());
    }

    #[test]
    fn overloaded_service_sheds_deterministically_and_conserves_queries() {
        // 400 queries issued in a burst (all inside 0.4 virtual seconds)
        // against a drain model of 100/s and a modeled capacity of 50: the
        // ladder must engage and shed a deterministic suffix-heavy subset.
        let config = IngestConfig {
            ring_capacity: 32,
            degradation: Some(DegradationConfig {
                capacity: 50,
                drain_rate: 100.0,
            }),
        };
        let run = |chunk: usize| {
            let mut running =
                MediationService::spawn_with(build_service(2, 20), oracle(), config).unwrap();
            let stream: Vec<Query> = (0..400u64)
                .map(|id| {
                    Query::builder(
                        QueryId::new(id),
                        ConsumerId::new(1),
                        Capability::new((id % 2) as u8),
                    )
                    .issued_at(VirtualTime::new(id as f64 * 0.001))
                    .build()
                })
                .collect();
            for batch in stream.chunks(chunk) {
                running.enqueue_batch(batch.iter().cloned());
            }
            running.finish()
        };
        let report = run(64);
        let degradation = report.degradation_stats().unwrap();
        assert!(degradation.shed > 0, "the burst must overflow the model");
        assert_eq!(
            degradation.admitted() as usize,
            report.total.submitted(),
            "every admitted query is tallied"
        );
        assert_eq!(
            degradation.observed() as usize,
            400,
            "conservation: admitted + shed = enqueued"
        );
        assert_eq!(report.outcomes.len(), 400, "sheds appear in the stream");

        // Byte-identical decisions and shed set across runs and chunkings.
        let shed_set = |r: &ServiceReport| -> Vec<u64> {
            r.outcomes
                .iter()
                .filter(|o| o.shed)
                .map(|o| o.query.raw())
                .collect()
        };
        let outcome_set = |r: &ServiceReport| -> Vec<(u64, Vec<u64>, bool, bool)> {
            r.outcomes
                .iter()
                .map(|o| {
                    (
                        o.query.raw(),
                        o.selected.iter().map(|p| p.raw()).collect(),
                        o.starved,
                        o.shed,
                    )
                })
                .collect()
        };
        let again = run(64);
        assert_eq!(outcome_set(&report), outcome_set(&again));
        let rechunked = run(17);
        assert_eq!(
            shed_set(&report),
            shed_set(&rechunked),
            "the shed set is chunk-size independent"
        );
        assert_eq!(outcome_set(&report), outcome_set(&rechunked));
    }

    #[test]
    fn producer_chunk_order_is_normalized_at_the_ring() {
        // Enqueue a chunk in *reverse* issue order: the drain (and therefore
        // the decision stream) must match the sorted enqueue byte for byte —
        // the chunking-note fix.
        let run = |reverse: bool| {
            // One shard so every query lands in the same ring.
            let mut running = spawn(build_service(1, 20));
            let mut ids: Vec<u64> = (0..40).collect();
            if reverse {
                ids.reverse();
            }
            running.enqueue_batch(ids.into_iter().map(query));
            running.finish()
        };
        let sorted = run(false);
        let reversed = run(true);
        let decisions = |r: &ServiceReport| -> Vec<(u64, Vec<u64>)> {
            r.outcomes
                .iter()
                .map(|o| (o.query.raw(), o.selected.iter().map(|p| p.raw()).collect()))
                .collect()
        };
        assert_eq!(decisions(&sorted), decisions(&reversed));
    }

    /// An oracle whose every answer panics, as a participant call that
    /// fails hard would.
    struct PanickingOracle;

    impl IntentionOracle for PanickingOracle {
        fn consumer_intention(&self, _: &Query, _: ProviderId) -> Intention {
            panic!("oracle unreachable")
        }

        fn provider_intention(&self, _: ProviderId, _: &Query) -> Intention {
            panic!("oracle unreachable")
        }
    }

    #[test]
    fn a_dead_shard_thread_fails_the_producer_instead_of_hanging_it() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        // One-query batches into a ring of 4: once the ring is full, a
        // producer waiting on a ring nobody drains would block forever.
        let config = IngestConfig {
            ring_capacity: 4,
            degradation: None,
        };
        let mut running =
            MediationService::spawn_with(build_service(1, 20), Arc::new(PanickingOracle), config)
                .unwrap();
        let enqueued = catch_unwind(AssertUnwindSafe(|| {
            for id in 0..64 {
                running.enqueue_batch(std::iter::once(query(id)));
            }
        }));
        let panic = enqueued.expect_err("the producer meets the dead shard");
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert_eq!(message, "shard 0's mediation thread has died");
        // The shard thread's own panic comes back out of finish.
        assert!(catch_unwind(AssertUnwindSafe(|| running.finish())).is_err());
    }

    #[test]
    fn a_faulted_shard_keeps_draining_and_hands_the_fault_back() {
        // Two chunks, each closed by a checkpoint cut. Replication is armed
        // after the registrations, so shard 0's first cut replays its log.
        let run = |corrupt: bool| {
            let mut service = build_service(2, 20);
            service.replicate().unwrap();
            service.set_checkpoint_interval(1);
            if corrupt {
                service.corrupt_log(0);
            }
            let router = *service.router();
            // A ring far smaller than the stream: a worker that stopped
            // popping would block the producer forever.
            let config = IngestConfig {
                ring_capacity: 4,
                degradation: None,
            };
            let mut running = MediationService::spawn_with(service, oracle(), config).unwrap();
            running.enqueue_batch((0..100).map(query));
            running.enqueue_batch((100..200).map(query));
            let (report, shards) = running.finish_with_shards();
            (
                report,
                ShardedMediator::from_shards(router, shards).unwrap(),
            )
        };
        let (baseline, _) = run(false);
        let (report, mut service) = run(true);

        let fault = report.fault().expect("shard 0 faulted");
        assert!(
            matches!(fault, SbqaError::UnknownProvider { .. }),
            "{fault}"
        );
        assert_eq!(report.shards[0].fault.as_ref(), Some(fault));
        assert_eq!(service.fault(), Some(fault));
        assert_eq!(report.shards[1].fault, None);
        // Up to its cut, which closed the first chunk, shard 0 decided as it
        // would have without the record. From the cut on it took no query —
        // none tallied, starved, timed or recorded — and shard 1 took all of
        // its own.
        let served: Vec<&OutcomeRecord> = baseline
            .outcomes
            .iter()
            .filter(|o| o.shard == 1 || o.query.raw() < 100)
            .collect();
        assert_eq!(report.outcomes.iter().collect::<Vec<_>>(), served);
        let before_cut = served.iter().filter(|o| o.shard == 0).count();
        assert!(before_cut > 0);
        assert_eq!(report.shards[0].report.submitted(), before_cut);
        assert_eq!(report.shards[0].latency.count(), before_cut);
        assert_eq!(report.total.starved, 0);

        // The crash that cannot succeed hands the fault back and re-arms.
        assert_eq!(service.crash_shard(0, &*oracle()), Err(fault.clone()));
        assert_eq!(service.fault(), None);
        assert!(service.standbys_in_lockstep());
    }
}
