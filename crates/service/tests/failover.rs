//! Integration tests of the replication subsystem at the service layer:
//! crash/promotion byte-identity under registry churn, standby lockstep,
//! checkpoint pruning, delta-driven live resize, the allocation bound of
//! an incremental checkpoint cut, the composition of replication with the
//! threaded driver and the degradation ladder, and replicated baselines.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;
use std::time::Duration;

use sbqa_baselines::build_allocator;
use sbqa_core::{
    DegradationConfig, DegradationStats, IntentionOracle, KnControllerConfig, Mediator,
    StaticIntentions,
};
use sbqa_replication::satisfaction_digest;
use sbqa_service::{IngestConfig, MediationService, OutcomeRecord, ServiceReport, ShardedMediator};
use sbqa_types::{
    AllocationPolicyKind, Capability, CapabilitySet, ConsumerId, Intention, ProviderId, Query,
    QueryId, SystemConfig, VirtualTime,
};

thread_local! {
    /// Allocations (and reallocations) this thread has made. Per thread, so
    /// the tests of this file, which run in parallel, do not count each
    /// other's.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_allocation() {
    // `try_with`: a thread that is tearing down its locals still allocates.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` with no destructor: touching it cannot allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn caps(class: u8) -> CapabilitySet {
    CapabilitySet::singleton(Capability::new(class))
}

fn query(id: u64, at: f64, class: u8) -> Query {
    Query::builder(QueryId::new(id), ConsumerId::new(1), Capability::new(class))
        .issued_at(VirtualTime::new(at))
        .build()
}

fn oracle() -> StaticIntentions {
    StaticIntentions::new().with_defaults(Intention::new(0.6), Intention::new(-0.2))
}

fn replicated(shards: usize, providers: u64) -> ShardedMediator {
    let mut service =
        ShardedMediator::sbqa(SystemConfig::default().with_knbest(10, 3), 42, shards).unwrap();
    service.replicate().unwrap();
    for p in 0..providers {
        service.register_provider(
            ProviderId::new(p),
            caps((p % 2) as u8),
            1.0 + (p % 3) as f64,
        );
    }
    service.register_consumer(ConsumerId::new(1));
    service
}

/// Deterministic churn applied identically to two services.
fn churn(service: &mut ShardedMediator, round: u64, providers: u64) {
    for step in 0..3u64 {
        let p = (round * 7 + step * 11) % providers;
        if step == 2 {
            let online = !(round + p).is_multiple_of(3);
            service
                .set_provider_online(ProviderId::new(p), online)
                .unwrap();
        } else {
            service
                .update_provider_load(
                    ProviderId::new(p),
                    (round + step) as f64 * 0.4,
                    step as usize,
                )
                .unwrap();
        }
    }
}

#[test]
fn crash_and_promotion_preserve_the_decision_stream_under_churn() {
    let oracle = oracle();
    let mut stormy = replicated(3, 30);
    let mut calm = replicated(3, 30);
    let stream: Vec<Query> = (0..200u64)
        .map(|i| query(i, i as f64 * 0.05, (i % 2) as u8))
        .collect();

    let mut stormy_outcomes = Vec::new();
    let mut calm_outcomes = Vec::new();
    for (round, chunk) in stream.chunks(25).enumerate() {
        churn(&mut stormy, round as u64, 30);
        churn(&mut calm, round as u64, 30);
        match round {
            3 => {
                stormy.crash_shard(1, &oracle).unwrap();
            }
            5 => {
                // A different shard, later in the run.
                stormy.crash_shard(2, &oracle).unwrap();
                // Crashing the same shard twice must also hold.
                stormy.crash_shard(1, &oracle).unwrap();
            }
            _ => {}
        }
        stormy
            .try_submit_batch(chunk, &oracle, |_, q, r| {
                stormy_outcomes.push((q.id, r.map(|d| d.selected.clone()).ok()));
            })
            .unwrap();
        calm.try_submit_batch(chunk, &oracle, |_, q, r| {
            calm_outcomes.push((q.id, r.map(|d| d.selected.clone()).ok()));
        })
        .unwrap();
    }

    assert_eq!(stormy_outcomes, calm_outcomes);
    assert!(stormy.standbys_in_lockstep());
    assert!(calm.standbys_in_lockstep());

    // Cumulative tallies survive the promotions.
    let stormy_total: usize = stormy
        .shard_reports()
        .iter()
        .map(|r| r.report.submitted())
        .sum();
    assert_eq!(stormy_total, 200);
}

#[test]
fn checkpoints_bound_replay_state() {
    let oracle = oracle();
    let mut service = replicated(2, 20);
    service.set_checkpoint_interval(0); // manual control
    let stream: Vec<Query> = (0..60u64).map(|i| query(i, i as f64, 0)).collect();
    for chunk in stream.chunks(20) {
        service
            .try_submit_batch(chunk, &oracle, |_, _, _| {})
            .unwrap();
    }
    let before: usize = (0..2)
        .map(|i| service.shard(i).replication_stats().log_depth)
        .sum();
    assert!(
        before > 0,
        "a run without checkpoints accumulates replay state"
    );

    service.checkpoint_all().unwrap();
    for i in 0..2 {
        let stats = service.shard(i).replication_stats();
        assert_eq!(stats.log_depth, 0, "checkpoint prunes the log");
        assert_eq!(stats.replay_lag, 0);
        assert!(stats.checkpoints >= 2);
    }

    // A crash right after a checkpoint still promotes cleanly.
    let report = service.crash_shard(0, &oracle).unwrap();
    assert_eq!(report.queries_mediated + report.queries_starved, 0);
    assert!(service.standbys_in_lockstep());
}

#[test]
fn a_warm_checkpoint_cut_allocates_for_the_touched_not_for_the_population() {
    const PROVIDERS: u64 = 20_000;
    let oracle = oracle();
    let mut service = replicated(1, PROVIDERS);
    service.set_checkpoint_interval(0); // cuts are explicit below
    let mut next_query = 0u64;
    let mut window = |service: &mut ShardedMediator| {
        // What lies between two cuts at the default cadence: 4 batches of 64
        // queries, and 32 load writes for the registry.
        for _ in 0..4 {
            let batch: Vec<Query> = (next_query..next_query + 64)
                .map(|i| query(i, i as f64 * 0.01, (i % 2) as u8))
                .collect();
            next_query += 64;
            service
                .try_submit_batch(&batch, &oracle, |_, _, _| {})
                .unwrap();
        }
        for step in 0..32 {
            let p = (next_query * 31 + step * 577) % PROVIDERS;
            service
                .update_provider_load(ProviderId::new(p), step as f64 * 0.1, 1)
                .unwrap();
        }
    };
    for _ in 0..4 {
        window(&mut service);
        service.checkpoint_all().unwrap();
    }

    window(&mut service);
    let before = ALLOCATIONS.with(Cell::get);
    service.checkpoint_all().unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    // A cut copies the rows of at most 256 × (kn + 1) participants into
    // blocks from the copy's own pool, which allocates only for a whole
    // chunk — one per 1 024 first-touched providers; cloning the registries
    // allocated several times per provider.
    assert!(
        allocations <= 16,
        "{allocations} allocations in one cut over {PROVIDERS} providers"
    );
    let stats = service.shard(0).replication_stats();
    assert_eq!((stats.log_depth, stats.replay_lag), (0, 0));
    assert!(service.standbys_in_lockstep());
}

#[test]
fn crash_while_shedding_preserves_the_overload_decision_stream() {
    // Drive two degradation-armed replicated services deep into overload —
    // a dense burst that climbs the ladder into shedding — and crash one of
    // them mid-shed. The outcome streams (decisions, starvations AND shed
    // rejections) must stay byte-identical: the ladder survives on the
    // replicated shard, and the log replays admitted queries at their
    // recorded tier while skipping the recorded sheds.
    let oracle = oracle();
    let degradation = DegradationConfig {
        capacity: 40,
        drain_rate: 50.0,
    };
    let mut crashed = replicated(2, 24);
    let mut calm = replicated(2, 24);
    crashed.enable_degradation(degradation).unwrap();
    calm.enable_degradation(degradation).unwrap();

    // 300 queries inside 0.6 virtual seconds: ~500/s against a 50/s drain
    // model — the ladder must reach Shed well before the crash round.
    let stream: Vec<Query> = (0..300u64)
        .map(|i| query(i, i as f64 * 0.002, (i % 2) as u8))
        .collect();

    let mut crashed_outcomes = Vec::new();
    let mut calm_outcomes = Vec::new();
    let classify =
        |r: Result<&sbqa_core::allocator::AllocationDecision, sbqa_types::SbqaError>| match r {
            Ok(d) => (Some(d.selected.clone()), false),
            Err(sbqa_types::SbqaError::QueryShed { .. }) => (None, true),
            Err(_) => (None, false),
        };
    for (round, chunk) in stream.chunks(50).enumerate() {
        if round == 3 {
            // By round 3 the bucket is saturated: crash one shard while its
            // ladder is actively shedding.
            let pre = shed_total(&crashed);
            assert!(pre > 0, "the ladder must be shedding before the crash");
            let replay = crashed.crash_shard(0, &oracle).unwrap();
            assert!(
                replay.queries_shed > 0,
                "the log must have replayed shed entries"
            );
        }
        crashed
            .try_submit_batch(chunk, &oracle, |_, q, r| {
                crashed_outcomes.push((q.id, classify(r)));
            })
            .unwrap();
        calm.try_submit_batch(chunk, &oracle, |_, q, r| {
            calm_outcomes.push((q.id, classify(r)));
        })
        .unwrap();
    }

    assert_eq!(crashed_outcomes, calm_outcomes);
    assert!(crashed_outcomes.iter().any(|(_, (_, shed))| *shed));
    assert!(crashed.standbys_in_lockstep());

    // The surviving ladders tell the same overload story.
    assert_eq!(shed_total(&crashed), shed_total(&calm));
    let crashed_stats = degradation_totals(&crashed);
    let calm_stats = degradation_totals(&calm);
    assert_eq!(crashed_stats, calm_stats);
    // Conservation across the whole run: mediated + starved + shed = 300.
    let tallied: usize = crashed
        .shard_reports()
        .iter()
        .map(|r| r.report.submitted())
        .sum();
    assert_eq!(tallied as u64 + shed_total(&crashed), 300);
}

fn shed_total(service: &ShardedMediator) -> u64 {
    (0..service.shard_count())
        .filter_map(|i| service.shard(i).ladder())
        .map(|ladder| ladder.stats().shed)
        .sum()
}

fn degradation_totals(service: &ShardedMediator) -> Vec<(u64, u64, u64, u64)> {
    (0..service.shard_count())
        .map(|i| {
            let stats = service.shard(i).ladder().expect("ladder armed").stats();
            (stats.normal, stats.shrink_kn, stats.baseline, stats.shed)
        })
        .collect()
}

#[test]
fn resize_then_replicate_round_trip() {
    // A sharded service resized live, then armed with replication: the
    // handoff must hand over registry state replication can keep mirroring.
    let mut plain =
        ShardedMediator::sbqa(SystemConfig::default().with_knbest(10, 3), 42, 2).unwrap();
    for p in 0..24u64 {
        plain.register_provider(ProviderId::new(p), caps(0), 1.0);
    }
    plain.register_consumer(ConsumerId::new(1));
    plain
        .update_provider_load(ProviderId::new(5), 3.0, 2)
        .unwrap();
    plain
        .set_provider_online(ProviderId::new(9), false)
        .unwrap();

    let grown = plain
        .resize_sbqa(SystemConfig::default().with_knbest(10, 3), 4)
        .unwrap();
    assert_eq!(grown.shard_count(), 4);
    assert_eq!(grown.provider_count(), 24);

    // Arm replication on the resized service and prove the mirrors track
    // the resized state (load and offline flags included).
    let mut replicated = grown;
    replicated.replicate().unwrap();
    assert!(replicated.standbys_in_lockstep());
    let moved = replicated
        .shard(replicated.router().shard_of_provider(ProviderId::new(5)))
        .mediator()
        .providers()
        .get(ProviderId::new(5))
        .unwrap();
    assert_eq!(moved.utilization, 3.0);

    // And it still mediates (with the offline provider excluded).
    let oracle = oracle();
    let stream: Vec<Query> = (0..30u64).map(|i| query(i, i as f64, 0)).collect();
    let report = replicated
        .try_submit_batch(&stream, &oracle, |_, _, _| {})
        .unwrap();
    assert_eq!(report.mediated + report.starved, 30);
    assert!(replicated.standbys_in_lockstep());
}

// ---------------------------------------------------------------------------
// Threaded + replicated + degrading, in one configuration
// ---------------------------------------------------------------------------

/// The golden burst of `tests/overload.rs`: its front-end, stream and ladder.
fn burst_front() -> ShardedMediator {
    let mut service =
        ShardedMediator::sbqa(SystemConfig::default().with_knbest(12, 4), 42, 2).unwrap();
    for p in 0..40u64 {
        service.register_provider(
            ProviderId::new(p),
            caps((p % 3) as u8),
            1.0 + (p % 2) as f64,
        );
    }
    for c in 1..=3u64 {
        service.register_consumer(ConsumerId::new(c));
    }
    service
}

fn burst() -> Vec<Query> {
    (0..600u64)
        .map(|id| {
            Query::builder(
                QueryId::new(id),
                ConsumerId::new(1 + id % 3),
                Capability::new((id % 3) as u8),
            )
            .issued_at(VirtualTime::new(id as f64 * 0.002))
            .build()
        })
        .collect()
}

fn burst_ladder() -> DegradationConfig {
    DegradationConfig {
        capacity: 80,
        drain_rate: 100.0,
    }
}

fn burst_oracle() -> Arc<dyn IntentionOracle + Send + Sync> {
    Arc::new(StaticIntentions::new().with_defaults(Intention::new(0.35), Intention::new(0.55)))
}

/// Per query: id, winners, starved, shed.
type Outcome = (u64, Vec<u64>, bool, bool);

fn outcome(record: &OutcomeRecord) -> Outcome {
    (
        record.query.raw(),
        record.selected.iter().map(|p| p.raw()).collect(),
        record.starved,
        record.shed,
    )
}

/// Spawns `front` behind 64-slot rings and streams `queries` in `chunk`s.
/// `ladder` arms fresh ladders; `None` keeps the ones the shards carry.
fn threaded(
    front: ShardedMediator,
    ladder: Option<DegradationConfig>,
    queries: &[Query],
    chunk: usize,
) -> (Vec<Outcome>, Option<DegradationStats>, ShardedMediator) {
    let router = *front.router();
    let config = IngestConfig {
        ring_capacity: 64,
        degradation: ladder,
    };
    let mut running = MediationService::spawn_with(front, burst_oracle(), config).unwrap();
    for batch in queries.chunks(chunk) {
        running.enqueue_batch(batch.iter().cloned());
    }
    let (report, shards) = running.finish_with_shards();
    assert_eq!(report.fault(), None);
    (
        report.outcomes.iter().map(outcome).collect(),
        report.degradation_stats(),
        ShardedMediator::from_shards(router, shards).unwrap(),
    )
}

#[test]
fn a_threaded_replicated_degrading_run_survives_a_crash_byte_identically() {
    let stream = burst();
    let (first_half, second_half) = stream.split_at(stream.len() / 2);

    // The references: the inline driver, and an uninterrupted, unreplicated
    // threaded run.
    let mut inline = burst_front();
    inline.enable_degradation(burst_ladder()).unwrap();
    let mut inline_outcomes = Vec::new();
    for batch in stream.chunks(64) {
        inline.submit_batch(batch, &*burst_oracle(), |_, q, r| {
            inline_outcomes.push(outcome(&OutcomeRecord::from_result(0, q, r)));
        });
    }
    let inline_stats = ServiceReport::merge(inline.shard_reports(), Vec::new(), Duration::ZERO)
        .degradation_stats()
        .expect("ladders armed");
    assert!(inline_stats.shed > 0 && inline_stats.degraded());

    for chunk in [64usize, 17] {
        let (plain_outcomes, plain_stats, _) =
            threaded(burst_front(), Some(burst_ladder()), &stream, chunk);
        assert_eq!(plain_outcomes, inline_outcomes, "chunk {chunk}");
        assert_eq!(plain_stats, Some(inline_stats), "chunk {chunk}");

        // The composition: replicated shards behind the rings, ladders
        // armed, shard 0 crashed and promoted at the midpoint.
        let mut front = burst_front();
        front.replicate().unwrap();
        let (mut outcomes, _, mut front) = threaded(front, Some(burst_ladder()), first_half, chunk);
        let logged: usize = front
            .shards()
            .map(|s| s.replication_stats().log_depth)
            .sum();
        assert!(logged > 0, "the shard threads log what they mediate");
        let replay = front.crash_shard(0, &*burst_oracle()).unwrap();
        assert!(replay.queries_mediated > 0 && replay.queries_shed > 0);
        // The ladders came back on the shards; `None` keeps them running.
        let (rest, stats, front) = threaded(front, None, second_half, chunk);
        outcomes.extend(rest);

        assert_eq!(outcomes, inline_outcomes, "chunk {chunk}");
        assert_eq!(stats, Some(inline_stats), "chunk {chunk}");
        assert!(front.standbys_in_lockstep());
        let promotions: u64 = front
            .shards()
            .map(|s| s.replication_stats().promotions)
            .sum();
        assert_eq!(promotions, 1);
    }
}

#[test]
fn replication_and_adaptive_kn_refuse_each_other_in_both_orders() {
    let refused = |result: sbqa_types::SbqaResult<()>| {
        let error = result.unwrap_err();
        assert!(
            matches!(error, sbqa_types::SbqaError::InvalidConfiguration { .. }),
            "{error}"
        );
    };
    let mut adaptive_first = burst_front();
    adaptive_first
        .enable_adaptive_kn(KnControllerConfig::default())
        .unwrap();
    refused(adaptive_first.replicate());
    assert!(adaptive_first.shard_reports()[0].replication.is_none());

    let mut replicated_first = burst_front();
    replicated_first.replicate().unwrap();
    refused(replicated_first.enable_adaptive_kn(KnControllerConfig::default()));
    assert!(replicated_first
        .shards()
        .all(|s| s.mediator().adaptive_kn().is_none()));
}

// ---------------------------------------------------------------------------
// Replicated × baseline
// ---------------------------------------------------------------------------

/// Intentions that differ per (query, provider), so the satisfaction both
/// sides accumulate depends on exactly who was consulted and selected.
struct HashIntentions;

impl HashIntentions {
    fn value(salt: u64, query: &Query, provider: ProviderId) -> Intention {
        let mut x = salt ^ query.id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = x.wrapping_add(provider.raw().wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        Intention::new((x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
    }
}

impl IntentionOracle for HashIntentions {
    fn consumer_intention(&self, query: &Query, provider: ProviderId) -> Intention {
        Self::value(1, query, provider)
    }

    fn provider_intention(&self, provider: ProviderId, query: &Query) -> Intention {
        Self::value(2, query, provider)
    }
}

/// A replicated 2-shard front hosting baseline `kind` on every shard.
fn replicated_baseline(kind: AllocationPolicyKind) -> ShardedMediator {
    let config = SystemConfig::default();
    let mediators = (0..2)
        .map(|shard| {
            let allocator = build_allocator(kind, &config, 17 + shard).unwrap();
            Mediator::new(allocator, config.satisfaction_window)
        })
        .collect();
    let mut service = ShardedMediator::new(42, mediators).unwrap();
    service.replicate().unwrap();
    for p in 0..40u64 {
        service.register_provider(
            ProviderId::new(p),
            caps((p % 2) as u8),
            1.0 + (p % 3) as f64,
        );
    }
    for c in 1..=3 {
        service.register_consumer(ConsumerId::new(c));
    }
    service
}

/// Each shard's satisfaction digest and the bits of both sides' mean
/// satisfaction over the front.
fn satisfaction_state(service: &ShardedMediator) -> (Vec<u64>, u64, u64) {
    let digests = service
        .shards()
        .map(|shard| satisfaction_digest(shard.mediator().satisfaction()))
        .collect();
    let (mut consumers, mut providers) = (0.0, 0.0);
    for shard in service.shards() {
        let satisfaction = shard.mediator().satisfaction();
        for c in 1..=3 {
            consumers += satisfaction
                .consumer_satisfaction(ConsumerId::new(c))
                .value();
        }
        providers += satisfaction
            .provider_satisfactions()
            .map(|(_, sat)| sat.value())
            .sum::<f64>();
    }
    (digests, consumers.to_bits(), providers.to_bits())
}

#[test]
fn replicated_baselines_survive_a_midpoint_crash_byte_identically() {
    // Capacity ranks the view; Random draws from an RNG the checkpoint has
    // to carry.
    for kind in [AllocationPolicyKind::Capacity, AllocationPolicyKind::Random] {
        let oracle = HashIntentions;
        let mut crashed = replicated_baseline(kind);
        let mut uncrashed = replicated_baseline(kind);
        let stream: Vec<Query> = (0..240u64)
            .map(|i| {
                Query::builder(
                    QueryId::new(i),
                    ConsumerId::new(1 + i % 3),
                    Capability::new(0),
                )
                .replication(1 + (i % 3) as usize)
                .issued_at(VirtualTime::new(i as f64 * 0.05))
                .build()
            })
            .collect();
        let mut outcomes = [Vec::new(), Vec::new()];
        for (round, chunk) in stream.chunks(24).enumerate() {
            churn(&mut crashed, round as u64, 40);
            churn(&mut uncrashed, round as u64, 40);
            if round == 5 {
                // A checkpoint was cut after round 3: each promotion
                // re-mediates round 4's queries from the log.
                for shard in 0..2 {
                    let replay = crashed.crash_shard(shard, &oracle).unwrap();
                    assert!(replay.queries_mediated > 0, "{kind:?}");
                }
            }
            for (service, outcomes) in [&mut crashed, &mut uncrashed]
                .into_iter()
                .zip(&mut outcomes)
            {
                service
                    .try_submit_batch(chunk, &oracle, |_, query, result| {
                        outcomes.push((query.id, result.ok().cloned()));
                    })
                    .unwrap();
            }
        }
        let [crashed_outcomes, uncrashed_outcomes] = outcomes;
        assert_eq!(crashed_outcomes, uncrashed_outcomes, "{kind:?}");
        assert!(crashed_outcomes
            .iter()
            .all(|(_, decision)| decision.is_some()));
        assert_eq!(
            satisfaction_state(&crashed),
            satisfaction_state(&uncrashed),
            "{kind:?}"
        );
        let promotions: u64 = crashed
            .shards()
            .map(|s| s.replication_stats().promotions)
            .sum();
        assert_eq!(promotions, 2, "{kind:?}");
        assert!(crashed.standbys_in_lockstep());
    }
}
