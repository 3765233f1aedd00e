//! Micro-benchmark: the capability-indexed registry at realistic population
//! sizes.
//!
//! `capable_of/indexed_zero_clone` is `Pq` plus the KnBest draw: a
//! postings-list lookup and an O(k) partial Fisher–Yates into reused scratch.
//! The `candidates/*` series compare the single-capability lookup against 2-
//! and 4-way `All` / `Any` requirements. Those resolve through the plan
//! cache, so after the first iteration they time a *hit* (the cold merge is
//! the `cache` bench's `resolve/cold_*` series). The `mediate` group measures
//! the full `Mediator` hot path — `Pq` + KnBest + scoring + ranking +
//! satisfaction bookkeeping — via `submit_in_place` and `submit_batch`.
//!
//! The top population size is **1,000,000 providers**, the head-line scale
//! this registry targets: single-class resolution must stay sub-µs there
//! (the borrowed postings view costs O(1) regardless of population), and the
//! multi-class and mediation series must stay independent of |P|.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sbqa_core::allocator::StaticIntentions;
use sbqa_core::knbest::{KnBestScratch, KnBestSelector};
use sbqa_core::{Mediator, ProviderRegistry};
use sbqa_types::{
    Capability, CapabilityRequirement, CapabilitySet, ConsumerId, Intention, ProviderId, Query,
    QueryId, SystemConfig,
};

/// Number of capability classes the synthetic population spreads over.
const CLASSES: u8 = 8;

fn query(class: u8) -> Query {
    Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(class))
        .replication(2)
        .build()
}

/// A query requiring `width` consecutive classes starting at 3, with `All`
/// (intersection) or `Any` (union) semantics.
fn merge_query(width: u8, conjunctive: bool) -> Query {
    let set = CapabilitySet::from_capabilities(
        (0..width).map(|offset| Capability::new((3 + offset) % CLASSES)),
    );
    let required = if conjunctive {
        CapabilityRequirement::All(set)
    } else {
        CapabilityRequirement::Any(set)
    };
    Query::requiring(QueryId::new(1), ConsumerId::new(1), required)
        .replication(2)
        .build()
}

/// Overlapping capability profiles: every provider advertises its base class
/// plus, for a third of the population, the next class, for a fifth, the
/// class after that, and for a fifteenth, a third extra class — so 2-, 3-
/// and 4-way merges all see non-trivial (non-empty) intersections.
fn capabilities(i: usize) -> CapabilitySet {
    let base = (i % CLASSES as usize) as u8;
    let mut caps = CapabilitySet::singleton(Capability::new(base));
    if i.is_multiple_of(3) {
        caps.insert(Capability::new((base + 1) % CLASSES));
    }
    if i.is_multiple_of(5) {
        caps.insert(Capability::new((base + 2) % CLASSES));
    }
    if i.is_multiple_of(15) {
        caps.insert(Capability::new((base + 3) % CLASSES));
    }
    caps
}

fn indexed_registry(n: usize) -> ProviderRegistry {
    let mut registry = ProviderRegistry::new();
    for i in 0..n {
        registry.register(ProviderId::new(i as u64), capabilities(i), 1.0);
    }
    registry
}

fn bench_capable_of(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry");
    let q = query(3);

    for size in [1_000usize, 10_000, 100_000, 1_000_000] {
        let mut indexed = indexed_registry(size);
        group.bench_function(
            BenchmarkId::new("capable_of/indexed_zero_clone", size),
            |b| {
                let mut rng = ChaCha8Rng::seed_from_u64(42);
                let selector = KnBestSelector::new(20, 4);
                let mut scratch = KnBestScratch::new();
                b.iter(|| {
                    let candidates = indexed.candidates(black_box(&q));
                    let kn = selector.select_into(candidates, &mut rng, &mut scratch);
                    black_box(kn.len())
                });
            },
        );
    }

    group.finish();
}

/// Resolution cost by requirement shape: a single-capability lookup against
/// 2- and 4-way `All` / `Any` requirements on the same populations. The
/// multi-class series resolve through the plan cache and so time a hit —
/// flat in the population and the width; the merge itself is the `cache`
/// bench's `resolve/cold_*` series.
fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry");

    for size in [10_000usize, 100_000, 1_000_000] {
        let mut registry = indexed_registry(size);
        let cases = [
            ("candidates/single", merge_query(1, true)),
            ("candidates/all_2way", merge_query(2, true)),
            ("candidates/all_4way", merge_query(4, true)),
            ("candidates/any_2way", merge_query(2, false)),
            ("candidates/any_4way", merge_query(4, false)),
        ];
        for (label, q) in cases {
            group.bench_function(BenchmarkId::new(label, size), |b| {
                b.iter(|| {
                    let candidates = registry.candidates(black_box(&q));
                    black_box(candidates.len())
                });
            });
        }
    }

    group.finish();
}

fn bench_mediate(c: &mut Criterion) {
    let mut group = c.benchmark_group("mediate");
    let oracle = StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(0.3));

    for size in [10_000usize, 100_000, 1_000_000] {
        let build = |size: usize| {
            let mut mediator = Mediator::sbqa(SystemConfig::default(), 42).unwrap();
            for i in 0..size {
                mediator.register_provider(ProviderId::new(i as u64), capabilities(i), 1.0);
            }
            mediator.register_consumer(ConsumerId::new(1));
            mediator
        };

        let mut mediator = build(size);
        group.bench_function(BenchmarkId::new("submit_in_place", size), |b| {
            let q = query(3);
            b.iter(|| {
                let decision = mediator.submit_in_place(black_box(&q), &oracle).unwrap();
                black_box(decision.selected.len())
            });
        });

        let mut mediator = build(size);
        let batch: Vec<Query> = (0..64u8)
            .map(|i| {
                Query::builder(
                    QueryId::new(u64::from(i)),
                    ConsumerId::new(1),
                    Capability::new(i % CLASSES),
                )
                .replication(2)
                .build()
            })
            .collect();
        group.bench_function(BenchmarkId::new("submit_batch/64", size), |b| {
            b.iter(|| {
                let mut selected = 0usize;
                let report = mediator.submit_batch(black_box(&batch), &oracle, |_, _, result| {
                    if let Ok(decision) = result {
                        selected += decision.selected.len();
                    }
                });
                black_box((report.mediated, selected))
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_capable_of, bench_merge, bench_mediate);
criterion_main!(benches);
