//! Determinism and reporting tests for adaptive `kn` in the sharded
//! mediation service.
//!
//! Enabling adaptation must not weaken the service's contracts where they
//! still apply:
//!
//! 1. a **1-shard** synchronous service with adaptation enabled is
//!    byte-identical to a plain adaptive [`Mediator`] (same controller
//!    config, same batch cadence);
//! 2. the **async ingest front** matches both when its chunk cadence equals
//!    the sync batch cadence (with adaptation on, the chunking *is* the
//!    adaptation cadence — a documented semantic);
//! 3. **N-shard** adaptive runs are byte-stable across runs, and each
//!    shard's controller trajectory lands in its [`ShardReport::kn_trail`].

use std::sync::Arc;

use sbqa_core::allocator::{AllocationDecision, IntentionOracle};
use sbqa_core::{KnControllerConfig, Mediator, StaticIntentions};
use sbqa_service::{IngestConfig, MediationService, ServiceReport, ShardedMediator};
use sbqa_types::{
    Capability, CapabilitySet, ConsumerId, Intention, ProviderId, Query, QueryId, SystemConfig,
    VirtualTime,
};

const SEED: u64 = 42;
const PROVIDERS: u64 = 48;
const QUERIES: u64 = 600;
const BATCH: usize = 40;
/// The threaded front's ring, without a ladder; decisions do not depend on
/// its size.
const RING: IngestConfig = IngestConfig {
    ring_capacity: 1_024,
    degradation: None,
};

fn config() -> SystemConfig {
    SystemConfig::default().with_knbest(16, 4)
}

fn controller() -> KnControllerConfig {
    KnControllerConfig {
        initial_kn: 4,
        min_kn: 2,
        max_kn: 12,
        alpha: 0.5,
        target_gap: 0.1,
        deadband: 0.1,
        step: 1,
        window: 64,
    }
}

/// An arrival-ordered single-capability stream over three consumers and
/// four capability classes.
fn stream() -> Vec<Query> {
    (0..QUERIES)
        .map(|id| {
            Query::builder(
                QueryId::new(id),
                ConsumerId::new(1 + id % 3),
                Capability::new((id % 4) as u8),
            )
            .replication(1 + (id % 2) as usize)
            .issued_at(VirtualTime::new((id / 8) as f64))
            .build()
        })
        .collect()
}

/// Providers dislike the work while consumers like the allocations: the
/// satisfaction gap grows, so the controllers demonstrably move.
fn oracle() -> StaticIntentions {
    StaticIntentions::new().with_defaults(Intention::new(0.6), Intention::new(-0.6))
}

fn register_all(register: &mut dyn FnMut(ProviderId, CapabilitySet, f64)) {
    for p in 0..PROVIDERS {
        register(
            ProviderId::new(p),
            CapabilitySet::singleton(Capability::new((p % 4) as u8)),
            1.0,
        );
    }
}

fn run_plain_adaptive(queries: &[Query]) -> Vec<Option<AllocationDecision>> {
    let mut mediator = Mediator::sbqa(config(), SEED).unwrap();
    register_all(&mut |id, caps, capacity| mediator.register_provider(id, caps, capacity));
    for c in 1..=3u64 {
        mediator.register_consumer(ConsumerId::new(c));
    }
    mediator.enable_adaptive_kn(controller()).unwrap();
    let oracle = oracle();
    let mut decisions = Vec::new();
    for batch in queries.chunks(BATCH) {
        mediator.submit_batch(batch, &oracle, |_, _, result| {
            decisions.push(result.ok().cloned());
        });
    }
    decisions
}

fn build_sharded(shards: usize) -> ShardedMediator {
    let mut service = ShardedMediator::sbqa(config(), SEED, shards).unwrap();
    register_all(&mut |id, caps, capacity| {
        service.register_provider(id, caps, capacity);
    });
    for c in 1..=3u64 {
        service.register_consumer(ConsumerId::new(c));
    }
    service.enable_adaptive_kn(controller()).unwrap();
    service
}

fn run_sharded_adaptive(queries: &[Query], shards: usize) -> Vec<Option<AllocationDecision>> {
    let mut service = build_sharded(shards);
    let oracle = oracle();
    let mut decisions: Vec<Option<AllocationDecision>> = vec![None; queries.len()];
    for (step, batch) in queries.chunks(BATCH).enumerate() {
        let base = step * BATCH;
        service.submit_batch(batch, &oracle, |position, _, result| {
            decisions[base + position] = result.ok().cloned();
        });
    }
    decisions
}

fn run_async_adaptive(queries: &[Query], shards: usize) -> ServiceReport {
    let service = build_sharded(shards);
    let oracle: Arc<dyn IntentionOracle + Send + Sync> = Arc::new(oracle());
    let mut running = MediationService::spawn_with(service, oracle, RING).unwrap();
    for batch in queries.chunks(BATCH) {
        running.enqueue_batch(batch.iter().cloned());
    }
    running.finish()
}

#[test]
fn one_shard_adaptive_sync_is_byte_identical_to_the_adaptive_mediator() {
    let queries = stream();
    let plain = run_plain_adaptive(&queries);
    let sharded = run_sharded_adaptive(&queries, 1);
    assert_eq!(plain.len(), sharded.len());
    assert!(plain.iter().filter(|d| d.is_some()).count() as u64 > QUERIES / 2);
    for (id, (expected, got)) in plain.iter().zip(&sharded).enumerate() {
        assert_eq!(expected, got, "query {id}");
    }
}

#[test]
fn one_shard_adaptive_async_matches_when_chunk_cadence_matches() {
    let queries = stream();
    let plain = run_plain_adaptive(&queries);
    let report = run_async_adaptive(&queries, 1);
    assert_eq!(report.outcomes.len(), plain.len());
    for (outcome, decision) in report.outcomes.iter().zip(&plain) {
        match decision {
            Some(decision) => {
                assert!(!outcome.starved);
                assert_eq!(
                    *outcome.selected, *decision.selected,
                    "query {}",
                    outcome.query
                );
            }
            None => assert!(outcome.starved),
        }
    }
}

#[test]
fn adaptive_controllers_actually_move_and_record_their_trail() {
    let queries = stream();
    let report = run_async_adaptive(&queries, 2);
    // Under a persistent provider-side satisfaction deficit the gap EWMA
    // sits above the band: every shard's width must have shrunk from the
    // initial 4 towards the floor, leaving a non-empty trail.
    for shard in &report.shards {
        assert!(
            !shard.kn_trail.is_empty(),
            "shard {} recorded no kn change",
            shard.shard
        );
        let last = shard.kn_trail.last().unwrap();
        assert!(
            last.kn < 4,
            "shard {} never shrank: {:?}",
            shard.shard,
            last
        );
        assert!(last.gap_ewma > 0.2);
        // Rounds are recorded in adaptation order (several classes may
        // adjust in the same round).
        assert!(shard.kn_trail.windows(2).all(|w| w[0].round <= w[1].round));
    }
}

#[test]
fn n_shard_adaptive_runs_are_byte_stable() {
    let queries = stream();
    for shards in [2usize, 4] {
        let a = run_sharded_adaptive(&queries, shards);
        let b = run_sharded_adaptive(&queries, shards);
        assert_eq!(a, b, "{shards} shards (sync)");

        let ra = run_async_adaptive(&queries, shards);
        let rb = run_async_adaptive(&queries, shards);
        assert_eq!(ra.outcomes, rb.outcomes, "{shards} shards (async)");
        for (sa, sb) in ra.shards.iter().zip(&rb.shards) {
            assert_eq!(sa.kn_trail, sb.kn_trail, "shard {} trail", sa.shard);
        }
    }
}

#[test]
fn disabled_adaptation_leaves_empty_trails() {
    let queries = stream();
    let mut service = ShardedMediator::sbqa(config(), SEED, 2).unwrap();
    register_all(&mut |id, caps, capacity| {
        service.register_provider(id, caps, capacity);
    });
    for c in 1..=3u64 {
        service.register_consumer(ConsumerId::new(c));
    }
    let oracle = oracle();
    for batch in queries.chunks(BATCH) {
        service.submit_batch(batch, &oracle, |_, _, _| {});
    }
    for shard_report in service.shard_reports() {
        assert!(shard_report.kn_trail.is_empty());
    }
}
