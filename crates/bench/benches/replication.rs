//! Micro-benchmarks of the replication subsystem.
//!
//! The claims the delta log makes, each measured directly (appending one
//! record — a sequence increment and a `Vec` push — is the benchmark's
//! `replication.log.append_ns` probe):
//!
//! * `replay/churn_1k` — applying a 1k-record churn tail to a standby
//!   registry: the per-record cost of a replaying cut and of promotion replay.
//! * `submit/hook_{off,on}` — the acceptance series: one load update plus
//!   one mediation through a one-shard `ShardedMediator` over 10k and 100k
//!   providers, unreplicated and replicated (where the shard appends the
//!   update and the query to its log). The replicated series must stay
//!   within 5% of the unreplicated one at 100k providers — mediation work
//!   dwarfs the appends.
//! * `checkpoint_cut/{10k,100k}` — one checkpoint window of a one-shard
//!   replicated `ShardedMediator` at the default cadence: 256 queries in 4 batches,
//!   32 load deltas, then `checkpoint_all`. The cut is incremental, so the
//!   window should cost what its 256 mediations cost plus O(touched), at
//!   either population.
//! * `promote_rearm/100k` — `crash_shard` right after a cut (nothing to
//!   replay): what is left is re-arming replication around the promoted
//!   mediator, one registry clone and one satisfaction clone.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use sbqa_core::allocator::StaticIntentions;
use sbqa_core::{Mediator, ProviderRegistry, RegistryDelta};
use sbqa_service::ShardedMediator;
use sbqa_types::{
    Capability, CapabilitySet, ConsumerId, Intention, ProviderId, Query, QueryId, SystemConfig,
    VirtualTime,
};

/// Number of capability classes the synthetic population spreads over.
const CLASSES: u8 = 8;

/// Overlapping capability profiles, identical to the `registry` bench.
fn capabilities(i: usize) -> CapabilitySet {
    let base = (i % CLASSES as usize) as u8;
    let mut caps = CapabilitySet::singleton(Capability::new(base));
    if i.is_multiple_of(3) {
        caps.insert(Capability::new((base + 1) % CLASSES));
    }
    if i.is_multiple_of(5) {
        caps.insert(Capability::new((base + 2) % CLASSES));
    }
    caps
}

fn registry(n: usize) -> ProviderRegistry {
    let mut registry = ProviderRegistry::new();
    for i in 0..n {
        registry.register(ProviderId::new(i as u64), capabilities(i), 1.0);
    }
    registry
}

fn mediator(n: usize) -> Mediator {
    let mut mediator = Mediator::sbqa(SystemConfig::default().with_knbest(20, 4), 42)
        .expect("default config validates");
    for i in 0..n {
        mediator.register_provider(ProviderId::new(i as u64), capabilities(i), 1.0);
    }
    mediator.register_consumer(ConsumerId::new(1));
    mediator
}

fn query() -> Query {
    Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(3))
        .replication(2)
        .build()
}

/// Replaying a 1k-record churn tail into a standby registry.
fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replication");

    // Record a real churn tail the way a shard logs it: the effective
    // mutations only. A no-op `SetOnline` is not recorded, so loop on the
    // tail's length rather than the op count to land on exactly 1k records.
    let mut live = registry(10_000);
    let mut tail = Vec::new();
    let mut i = 0usize;
    while tail.len() < 1_000 {
        let id = ProviderId::new((i as u64 * 37) % 10_000);
        let delta = if i.is_multiple_of(4) {
            RegistryDelta::SetOnline {
                id,
                online: !i.is_multiple_of(8),
            }
        } else {
            RegistryDelta::UpdateLoad {
                id,
                utilization: (i % 32) as f64 * 0.25,
                queue_length: i % 6,
            }
        };
        if delta.apply(&mut live).expect("provider exists") {
            tail.push(delta);
        }
        i += 1;
    }

    // Churn deltas only (no membership changes), so replaying the same tail
    // repeatedly into the same standby is valid and allocation-free.
    let mut standby = registry(10_000);
    group.bench_function("replay/churn_1k", |b| {
        b.iter(|| {
            for &delta in &tail {
                delta.apply(&mut standby).expect("churn replays cleanly");
            }
            black_box(standby.online_count())
        });
    });
    group.finish();
}

/// The acceptance series: load update + mediation on a one-shard service,
/// unreplicated (`hook_off`) and replicated (`hook_on`).
fn bench_submit_hook(c: &mut Criterion) {
    let mut group = c.benchmark_group("replication");
    let oracle = StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.2));
    let q = [query()];

    for size in [10_000usize, 100_000] {
        for (series, replicate) in [("submit/hook_off", false), ("submit/hook_on", true)] {
            let mut service =
                ShardedMediator::new(42, vec![mediator(size)]).expect("one shard fits");
            if replicate {
                service.replicate().expect("SbQA forks");
                // Bound the log the way a deployment does: a checkpoint
                // every few thousand records (each iteration appends two).
                // Letting it grow unboundedly instead would measure cache
                // pollution from a multi-megabyte log no real configuration
                // retains.
                service.set_checkpoint_interval(1 << 11);
            }
            let mut tick = 0u64;
            group.bench_function(BenchmarkId::new(series, size), |b| {
                b.iter(|| {
                    tick = tick.wrapping_add(1);
                    let id = ProviderId::new(tick % size as u64);
                    service
                        .update_provider_load(id, (tick % 16) as f64 * 0.5, (tick % 4) as usize)
                        .expect("provider exists");
                    let report = service.submit_batch(black_box(&q), &oracle, |_, _, _| {});
                    black_box(report.mediated)
                });
            });
        }
    }
    group.finish();
}

/// A one-shard replicated service over the synthetic population, with
/// checkpoints left to the bench.
fn replicated(n: usize) -> ShardedMediator {
    let mut service = ShardedMediator::sbqa(SystemConfig::default().with_knbest(20, 4), 42, 1)
        .expect("default config validates");
    service.replicate().expect("SbQA forks");
    for i in 0..n {
        service.register_provider(ProviderId::new(i as u64), capabilities(i), 1.0);
    }
    for consumer in 0..64 {
        service.register_consumer(ConsumerId::new(consumer));
    }
    service.set_checkpoint_interval(0);
    // The first cut carries the whole population (it was registered through
    // the armed primary); the benches measure the steady state after it.
    service.checkpoint_all().expect("standby is in step");
    service
}

/// One checkpoint window: 4 batches of 64 queries, 32 load deltas.
fn checkpoint_window(
    service: &mut ShardedMediator,
    oracle: &StaticIntentions,
    size: usize,
    tick: &mut u64,
) {
    for _ in 0..4 {
        let batch: Vec<Query> = (0..64)
            .map(|_| {
                *tick += 1;
                Query::builder(
                    QueryId::new(*tick),
                    ConsumerId::new(*tick % 64),
                    Capability::new((*tick % u64::from(CLASSES)) as u8),
                )
                .issued_at(VirtualTime::new(*tick as f64 * 1e-4))
                .build()
            })
            .collect();
        service
            .try_submit_batch(&batch, oracle, |_, _, _| {})
            .expect("log is contiguous");
    }
    for step in 0..32u64 {
        let id = ProviderId::new((*tick * 31 + step * 7_919) % size as u64);
        service
            .update_provider_load(id, (step % 16) as f64 * 0.5, (step % 4) as usize)
            .expect("provider exists");
    }
}

/// The incremental cut, and what a promotion still has to copy.
fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("replication");
    let oracle = StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.2));

    for size in [10_000usize, 100_000] {
        let mut service = replicated(size);
        let mut tick = 0u64;
        group.bench_function(BenchmarkId::new("checkpoint_cut", size), |b| {
            b.iter(|| {
                checkpoint_window(&mut service, &oracle, size, &mut tick);
                service.checkpoint_all().expect("standby is in step");
                black_box(service.shard(0).replication_stats().checkpoints)
            });
        });
    }

    let size = 100_000;
    let mut service = replicated(size);
    group.bench_function(BenchmarkId::new("promote_rearm", size), |b| {
        b.iter(|| {
            let report = service.crash_shard(0, &oracle).expect("clean promotion");
            black_box(report.deltas_replayed)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_replay, bench_submit_hook, bench_checkpoint);
criterion_main!(benches);
