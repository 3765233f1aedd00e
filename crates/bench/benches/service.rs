//! Micro-benchmark: the sharded mediation service's ingest path.
//!
//! **Batch size vs latency** — `submit_batch` amortizes the routing scratch
//! and per-shard buffers over a drain; the `ingest/batch=N` series measures
//! the per-query cost of draining chunks of 1, 16, 128 and 1024 queries
//! through a 1-shard and a 4-shard service, which is the synchronous core of
//! the trade-off the threaded front exposes (bigger producer chunks → fewer
//! channel sends, longer queueing). The pure cost of the seeded hash that
//! places a query is the benchmark's `service.router.assign_ns` probe.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use sbqa_core::StaticIntentions;
use sbqa_service::ShardedMediator;
use sbqa_types::{
    Capability, CapabilitySet, ConsumerId, Intention, ProviderId, Query, QueryId, SystemConfig,
    VirtualTime,
};

const PROVIDERS: u64 = 10_000;
const CLASSES: u8 = 8;

fn capabilities(i: u64) -> CapabilitySet {
    let base = (i % u64::from(CLASSES)) as u8;
    let mut caps = CapabilitySet::singleton(Capability::new(base));
    if i.is_multiple_of(3) {
        caps.insert(Capability::new((base + 1) % CLASSES));
    }
    caps
}

fn service(shards: usize) -> ShardedMediator {
    let mut service =
        ShardedMediator::sbqa(SystemConfig::default().with_knbest(20, 4), 42, shards).unwrap();
    for p in 0..PROVIDERS {
        service.register_provider(ProviderId::new(p), capabilities(p), 1.0 + (p % 4) as f64);
    }
    service.register_consumer(ConsumerId::new(1));
    service
}

fn stream(count: usize) -> Vec<Query> {
    (0..count as u64)
        .map(|id| {
            Query::builder(
                QueryId::new(id),
                ConsumerId::new(1),
                Capability::new((id % u64::from(CLASSES)) as u8),
            )
            .issued_at(VirtualTime::new(id as f64))
            .build()
        })
        .collect()
}

fn bench_ingest(c: &mut Criterion) {
    let oracle = StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(0.6));
    let mut group = c.benchmark_group("ingest");
    for shards in [1usize, 4] {
        let mut svc = service(shards);
        for batch in [1usize, 16, 128, 1024] {
            let queries = stream(batch);
            group.bench_function(
                BenchmarkId::new(format!("shards={shards}"), format!("batch={batch}")),
                |b| {
                    b.iter(|| {
                        let report = svc.submit_batch(black_box(&queries), &oracle, |_, _, _| {});
                        black_box(report.submitted())
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
