//! Determinism tests for the sharded mediation service.
//!
//! The headline contract of the service (see the crate docs):
//!
//! 1. with `--shards 1` the service produces **byte-identical decisions** to
//!    the plain [`Mediator`] — routing degenerates to the identity and shard
//!    0 consumes exactly the RNG stream `Mediator::sbqa(config, seed)`
//!    would; pinned below on the golden scenario-1 seed (42) over a churny
//!    mixed-requirement workload, for both the synchronous facade and the
//!    threaded ingest front;
//! 2. with `N` shards the merged outcome stream — ordered by
//!    `(VirtualTime, QueryId)` — is **byte-stable across runs** for a fixed
//!    seed and producer order, no matter how the shard threads interleave.

use std::sync::Arc;

use sbqa_core::allocator::{AllocationDecision, IntentionOracle};
use sbqa_core::{Mediator, StaticIntentions};
use sbqa_service::{IngestConfig, MediationService, OutcomeRecord, ShardedMediator};
use sbqa_types::{
    Capability, CapabilityRequirement, CapabilitySet, ConsumerId, Intention, ProviderId, Query,
    QueryId, SystemConfig, VirtualTime,
};

/// The golden scenario-1 seed the repository pins its regression runs to.
const GOLDEN_SEED: u64 = 42;
const PROVIDERS: u64 = 60;
const QUERIES: u64 = 400;
/// The threaded front's ring, without a ladder; decisions do not depend on
/// its size.
const RING: IngestConfig = IngestConfig {
    ring_capacity: 1_024,
    degradation: None,
};

fn config() -> SystemConfig {
    SystemConfig::default().with_knbest(16, 4)
}

fn capabilities(p: u64) -> CapabilitySet {
    let mut caps = CapabilitySet::singleton(Capability::new((p % 4) as u8));
    if p.is_multiple_of(3) {
        caps.insert(Capability::new(((p + 1) % 4) as u8));
    }
    caps
}

/// A workload mixing single-capability, conjunctive and disjunctive
/// requirements with varying replication, in arrival order (`issued_at`
/// grows with the id), so it exercises the borrowed fast path and both
/// postings merges.
fn stream() -> Vec<Query> {
    (0..QUERIES)
        .map(|id| {
            let a = Capability::new((id % 4) as u8);
            let b = Capability::new(((id + 1) % 4) as u8);
            let set = CapabilitySet::from_capabilities([a, b]);
            let required = match id % 5 {
                0 => CapabilityRequirement::All(set),
                1 => CapabilityRequirement::Any(set),
                _ => CapabilityRequirement::single(a),
            };
            Query::requiring(QueryId::new(id), ConsumerId::new(1 + id % 3), required)
                .replication(1 + (id % 2) as usize)
                .issued_at(VirtualTime::new((id / 8) as f64))
                .build()
        })
        .collect()
}

fn oracle() -> StaticIntentions {
    StaticIntentions::new().with_defaults(Intention::new(0.35), Intention::new(0.55))
}

fn register_all(register: &mut dyn FnMut(ProviderId, CapabilitySet, f64)) {
    for p in 0..PROVIDERS {
        register(ProviderId::new(p), capabilities(p), 1.0 + (p % 3) as f64);
    }
}

/// Deterministic churn applied identically to both sides between batches:
/// load updates everywhere, a few providers toggled offline and back.
fn churn_step(step: u64, apply: &mut dyn FnMut(ChurnOp)) {
    for p in 0..PROVIDERS {
        apply(ChurnOp::Load {
            id: ProviderId::new(p),
            utilization: ((p + step) % 7) as f64 * 0.5,
            queue_length: ((p + step) % 5) as usize,
        });
    }
    let toggled = ProviderId::new((step * 13) % PROVIDERS);
    apply(ChurnOp::Online {
        id: toggled,
        online: step.is_multiple_of(2),
    });
}

enum ChurnOp {
    Load {
        id: ProviderId,
        utilization: f64,
        queue_length: usize,
    },
    Online {
        id: ProviderId,
        online: bool,
    },
}

/// Runs the stream through a plain mediator, batch by batch, applying the
/// churn between batches; returns each query's owned decision (`None` for
/// starvations).
fn run_plain(queries: &[Query], churn: bool) -> Vec<Option<AllocationDecision>> {
    let mut mediator = Mediator::sbqa(config(), GOLDEN_SEED).unwrap();
    register_all(&mut |id, caps, capacity| mediator.register_provider(id, caps, capacity));
    for c in 1..=3u64 {
        mediator.register_consumer(ConsumerId::new(c));
    }
    let oracle = oracle();
    let mut decisions = Vec::new();
    for (step, batch) in queries.chunks(50).enumerate() {
        if churn {
            churn_step(step as u64, &mut |op| match op {
                ChurnOp::Load {
                    id,
                    utilization,
                    queue_length,
                } => mediator
                    .update_provider_load(id, utilization, queue_length)
                    .unwrap(),
                ChurnOp::Online { id, online } => {
                    mediator.set_provider_online(id, online).unwrap();
                }
            });
        }
        mediator.submit_batch(batch, &oracle, |_, _, result| {
            decisions.push(result.ok().cloned());
        });
    }
    decisions
}

/// The same run through the synchronous sharded facade.
fn run_sharded_sync(
    queries: &[Query],
    shards: usize,
    churn: bool,
) -> Vec<Option<AllocationDecision>> {
    let mut service = ShardedMediator::sbqa(config(), GOLDEN_SEED, shards).unwrap();
    register_all(&mut |id, caps, capacity| {
        service.register_provider(id, caps, capacity);
    });
    for c in 1..=3u64 {
        service.register_consumer(ConsumerId::new(c));
    }
    let oracle = oracle();
    let mut decisions: Vec<Option<AllocationDecision>> = vec![None; queries.len()];
    for (step, batch) in queries.chunks(50).enumerate() {
        if churn {
            churn_step(step as u64, &mut |op| match op {
                ChurnOp::Load {
                    id,
                    utilization,
                    queue_length,
                } => service
                    .update_provider_load(id, utilization, queue_length)
                    .unwrap(),
                ChurnOp::Online { id, online } => {
                    service.set_provider_online(id, online).unwrap();
                }
            });
        }
        let base = step * 50;
        service.submit_batch(batch, &oracle, |position, _, result| {
            decisions[base + position] = result.ok().cloned();
        });
    }
    decisions
}

/// The same run through the threaded ingest front (no churn: the producers
/// only enqueue). Returns the merged outcome stream.
fn run_service_async(queries: &[Query], shards: usize, chunk: usize) -> Vec<OutcomeRecord> {
    run_service_ring(queries, shards, chunk, RING)
}

/// [`run_service_async`] behind rings of the given configuration.
fn run_service_ring(
    queries: &[Query],
    shards: usize,
    chunk: usize,
    ring: IngestConfig,
) -> Vec<OutcomeRecord> {
    let mut service = ShardedMediator::sbqa(config(), GOLDEN_SEED, shards).unwrap();
    register_all(&mut |id, caps, capacity| {
        service.register_provider(id, caps, capacity);
    });
    for c in 1..=3u64 {
        service.register_consumer(ConsumerId::new(c));
    }
    let oracle: Arc<dyn IntentionOracle + Send + Sync> = Arc::new(oracle());
    let mut running = MediationService::spawn_with(service, oracle, ring).unwrap();
    for batch in queries.chunks(chunk) {
        running.enqueue_batch(batch.iter().cloned());
    }
    running.finish().outcomes
}

#[test]
fn one_shard_is_byte_identical_to_the_plain_mediator_on_the_golden_seed() {
    let queries = stream();
    let plain = run_plain(&queries, true);
    let sharded = run_sharded_sync(&queries, 1, true);
    assert_eq!(plain.len(), sharded.len());
    let mediated = plain.iter().filter(|d| d.is_some()).count();
    assert!(mediated > 300, "only {mediated} of {QUERIES} mediated");
    for (id, (expected, got)) in plain.iter().zip(&sharded).enumerate() {
        // Full decision equality: selected providers, every proposal with
        // its intentions and score, and ω — byte-identical, not just the
        // same winners.
        assert_eq!(expected, got, "query {id}");
    }
}

#[test]
fn one_shard_async_selections_match_the_plain_mediator() {
    let queries = stream();
    let plain = run_plain(&queries, false);
    let outcomes = run_service_async(&queries, 1, 32);
    assert_eq!(outcomes.len(), plain.len());
    for (outcome, decision) in outcomes.iter().zip(&plain) {
        match decision {
            Some(decision) => {
                assert!(!outcome.starved);
                assert_eq!(
                    *outcome.selected, *decision.selected,
                    "query {}",
                    outcome.query
                );
            }
            None => assert!(outcome.starved, "query {}", outcome.query),
        }
    }
}

#[test]
fn n_shard_sync_decisions_are_stable_across_runs() {
    let queries = stream();
    for shards in [2usize, 4] {
        let a = run_sharded_sync(&queries, shards, true);
        let b = run_sharded_sync(&queries, shards, true);
        assert_eq!(a, b, "{shards} shards");
    }
}

#[test]
fn n_shard_merged_outcome_stream_is_byte_stable_across_runs() {
    let queries = stream();
    for shards in [2usize, 4] {
        let a = run_service_async(&queries, shards, 32);
        let b = run_service_async(&queries, shards, 32);
        assert_eq!(a, b, "{shards} shards");
        // The merged stream is ordered by (issued_at, id).
        assert!(a.windows(2).all(|w| w[0].merge_key() <= w[1].merge_key()));
    }
}

#[test]
fn chunk_size_does_not_change_decisions() {
    // Ingest batch size trades latency for throughput but must never change
    // the decision stream: per shard, queries are mediated one by one in
    // queue order either way.
    let queries = stream();
    let small = run_service_async(&queries, 4, 1);
    let large = run_service_async(&queries, 4, 128);
    assert_eq!(small, large);
}

#[test]
fn async_and_sync_fronts_agree_on_selections() {
    let queries = stream();
    let sync = run_sharded_sync(&queries, 4, false);
    let outcomes = run_service_async(&queries, 4, 32);
    for (outcome, decision) in outcomes.iter().zip(&sync) {
        match decision {
            Some(decision) => assert_eq!(*outcome.selected, *decision.selected),
            None => assert!(outcome.starved),
        }
    }
}

#[test]
fn rings_smaller_than_a_chunk_decide_as_the_inline_front() {
    // A chunk heavier than the whole ring enters it empty, alone: the
    // producer and the shard thread then take turns, and the decisions
    // must not notice.
    let queries = stream();
    for shards in [1usize, 2] {
        let sync = run_sharded_sync(&queries, shards, false);
        let roomy = run_service_async(&queries, shards, 64);
        for ring_capacity in [1usize, 3, 63] {
            let ring = IngestConfig {
                ring_capacity,
                degradation: None,
            };
            let outcomes = run_service_ring(&queries, shards, 64, ring);
            assert_eq!(outcomes, roomy, "{shards} shards, ring {ring_capacity}");
            assert_eq!(outcomes.len(), sync.len());
            for (outcome, decision) in outcomes.iter().zip(&sync) {
                match decision {
                    Some(decision) => assert_eq!(*outcome.selected, *decision.selected),
                    None => assert!(outcome.starved),
                }
            }
        }
    }
}

/// More distinct multi-class requirements than the plan cache holds (64):
/// both kinds over every class pair of 12 classes — 132 keys — of which the
/// stream below cycles through 96, interleaved with a hot set of 8.
fn wide_requirements() -> Vec<CapabilityRequirement> {
    let mut requirements = Vec::new();
    for a in 0..12u8 {
        for b in a + 1..12 {
            let set = CapabilitySet::from_capabilities([Capability::new(a), Capability::new(b)]);
            requirements.push(CapabilityRequirement::All(set));
            requirements.push(CapabilityRequirement::Any(set));
        }
    }
    requirements
}

#[test]
fn plan_cache_eviction_is_identical_under_both_service_drivers() {
    let requirements = wide_requirements();
    let queries: Vec<Query> = (0..QUERIES)
        .map(|id| {
            let requirement = if id % 2 == 0 { id / 2 % 96 } else { id % 8 };
            Query::requiring(
                QueryId::new(id),
                ConsumerId::new(1),
                requirements[requirement as usize],
            )
            .replication(2)
            .issued_at(VirtualTime::new((id / 8) as f64))
            .build()
        })
        .collect();
    let wide = |p: u64| {
        CapabilitySet::from_capabilities(
            [p, p + 1, 5 * p + 3].map(|class| Capability::new((class % 12) as u8)),
        )
    };
    let oracle = oracle();

    let mut plain = Mediator::sbqa(config(), GOLDEN_SEED).unwrap();
    let mut inline = ShardedMediator::sbqa(config(), GOLDEN_SEED, 1).unwrap();
    let mut threaded = ShardedMediator::sbqa(config(), GOLDEN_SEED, 1).unwrap();
    for p in 0..PROVIDERS {
        plain.register_provider(ProviderId::new(p), wide(p), 1.0);
        inline.register_provider(ProviderId::new(p), wide(p), 1.0);
        threaded.register_provider(ProviderId::new(p), wide(p), 1.0);
    }
    plain.register_consumer(ConsumerId::new(1));
    inline.register_consumer(ConsumerId::new(1));
    threaded.register_consumer(ConsumerId::new(1));

    let mut expected: Vec<Option<AllocationDecision>> = Vec::new();
    let mut got: Vec<Option<AllocationDecision>> = Vec::new();
    for batch in queries.chunks(50) {
        plain.submit_batch(batch, &oracle, |_, _, result| {
            expected.push(result.ok().cloned());
        });
        inline
            .try_submit_batch(batch, &oracle, |_, _, result| {
                got.push(result.ok().cloned());
            })
            .unwrap();
    }
    assert_eq!(got, expected, "inline 1 shard vs plain mediator");
    assert!(expected.iter().flatten().count() > 300);

    let mut running = MediationService::spawn_with(threaded, Arc::new(oracle), RING).unwrap();
    for batch in queries.chunks(32) {
        running.enqueue_batch(batch.iter().cloned());
    }
    let report = running.finish();
    assert_eq!(report.outcomes.len(), expected.len());
    for (outcome, decision) in report.outcomes.iter().zip(&expected) {
        let selected = decision.as_ref().map_or(&[][..], |d| &d.selected);
        assert_eq!(*outcome.selected, *selected, "query {}", outcome.query);
        assert_eq!(outcome.starved, decision.is_none());
    }

    // The cache saw the same traffic whoever drove it: the hot set hits,
    // the cycling set outruns the 64-plan bound and evicts.
    let stats = plain.plan_cache_stats();
    assert!(stats.evictions > 0 && stats.hits > 0, "{stats:?}");
    assert_eq!(stats.lookups(), QUERIES);
    assert_eq!(inline.shard_reports()[0].cache, stats);
    assert_eq!(report.shards[0].cache, stats);
}
