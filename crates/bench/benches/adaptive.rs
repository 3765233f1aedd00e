//! Micro-benchmark: adaptive-`kn` controller overhead on the mediation hot
//! path.
//!
//! The controller's per-query work is one width lookup before the KnBest
//! draw and one gap-sample push after the mediation; per batch it adds one
//! adaptation round. The acceptance bar is **< 1 % of `submit_batch`**: the
//! `submit_batch/adaptive-*` series must sit within a percent of the
//! `submit_batch/static` series on the same population, batch and seed. The
//! standalone controller series pin the costs of the controller's own
//! operations (`observe`, `adapt`, `kn_for_query`) in nanoseconds.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use sbqa_core::{KnController, KnControllerConfig, Mediator, StaticIntentions};
use sbqa_satisfaction::GapSample;
use sbqa_types::{
    Capability, CapabilitySet, ConsumerId, Intention, ProviderId, Query, QueryId, SystemConfig,
};

const PROVIDERS: u64 = 10_000;
const BATCH: usize = 256;

fn build_mediator(adaptive: bool) -> Mediator {
    let config = SystemConfig::default().with_knbest(20, 4);
    let mut mediator = Mediator::sbqa(config, 42).unwrap();
    for p in 0..PROVIDERS {
        mediator.register_provider(
            ProviderId::new(p),
            CapabilitySet::singleton(Capability::new((p % 8) as u8)),
            1.0 + (p % 4) as f64,
        );
    }
    for c in 1..=4u64 {
        mediator.register_consumer(ConsumerId::new(c));
    }
    if adaptive {
        // Pinned width (min = max = the static kn): the controller performs
        // every per-query lookup, every gap-sample push and every adaptation
        // round, but the KnBest draw stays identical to the static build —
        // the measured difference is purely the controller tax.
        mediator
            .enable_adaptive_kn(KnControllerConfig {
                initial_kn: 4,
                min_kn: 4,
                max_kn: 4,
                ..KnControllerConfig::default()
            })
            .expect("pinned controller config validates");
    }
    mediator
}

fn batch() -> Vec<Query> {
    (0..BATCH as u64)
        .map(|id| {
            Query::builder(
                QueryId::new(id),
                ConsumerId::new(1 + id % 4),
                Capability::new((id % 8) as u8),
            )
            .build()
        })
        .collect()
}

fn bench_adaptive(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptive");
    let queries = batch();
    let oracle = StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.3));

    // The overhead pair: identical population, stream and seed; the only
    // difference is the controller. Their ratio is the controller tax.
    for (label, adaptive) in [("static", false), ("adaptive", true)] {
        group.bench_with_input(
            BenchmarkId::new("submit_batch", label),
            &adaptive,
            |b, &adaptive| {
                let mut mediator = build_mediator(adaptive);
                // Warm the scratch buffers and (when enabled) the controller
                // state out of the measurement.
                mediator.submit_batch(&queries, &oracle, |_, _, _| {});
                b.iter(|| {
                    let report = mediator.submit_batch(black_box(&queries), &oracle, |_, _, _| {});
                    black_box(report)
                });
            },
        );
    }

    // A controller under live adaptation pressure (gap far outside the
    // band) pays the same per-query price as a converged one.
    group.bench_function("submit_batch/adaptive-moving", |b| {
        let mut mediator = build_mediator(true);
        let hostile =
            StaticIntentions::new().with_defaults(Intention::new(0.9), Intention::new(-0.9));
        mediator.submit_batch(&queries, &hostile, |_, _, _| {});
        b.iter(|| {
            let report = mediator.submit_batch(black_box(&queries), &hostile, |_, _, _| {});
            black_box(report)
        });
    });

    // Standalone controller costs.
    group.bench_function("controller/observe", |b| {
        let mut controller = KnController::new(KnControllerConfig::default()).unwrap();
        let sample = GapSample::new(0.8, 0.3);
        b.iter(|| controller.observe(black_box(3), black_box(sample)));
    });
    group.bench_function("controller/adapt_8_classes", |b| {
        let mut controller = KnController::new(KnControllerConfig::default()).unwrap();
        for class in 0..8u8 {
            controller.observe(class, GapSample::new(0.6, 0.4));
        }
        b.iter(|| {
            // Keep every class fresh so adapt() always does full work.
            for class in 0..8u8 {
                controller.observe(class, GapSample::new(0.6, 0.4));
            }
            black_box(controller.adapt())
        });
    });
    group.bench_function("controller/kn_for_query", |b| {
        let mut controller = KnController::new(KnControllerConfig::default()).unwrap();
        let query = Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(3)).build();
        controller.observe(3, GapSample::new(0.5, 0.5));
        b.iter(|| black_box(controller.kn_for_query(black_box(&query))));
    });

    group.finish();
}

criterion_group!(benches, bench_adaptive);
criterion_main!(benches);
