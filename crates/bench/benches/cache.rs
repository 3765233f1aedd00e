//! Micro-benchmark: the requirement-keyed candidate-plan cache.
//!
//! The postings *merge* is the dominant cost of a multi-capability
//! resolution: a word-parallel AND/OR of the mentioned classes' membership
//! into an id bitset (`MergedSet`), microseconds at 100k providers whatever
//! the width (see `bench_results/BENCH_cache.json`; it was ~10µs for 2-way
//! intersections and ~234µs for 4-way unions while a merge materialised a
//! slot per member). The plan cache memoizes the merged membership per
//! `CapabilityRequirement` and invalidates it with per-class epoch counters,
//! so a warm hit is an O(#classes) generation check plus a borrowed view —
//! no merge work at all. The series here prove the claims the cache makes:
//!
//! * `resolve/cold_*` vs `resolve/warm_*` — the same merge queries when
//!   every resolution finds its plan stale (an online/offline flip inside a
//!   mentioned class precedes it, the way production forces a re-merge; the
//!   flip's own ~0.1 µs is inside the figure) and when every resolution
//!   after the first is a hit. The warm series must be ≥10× faster than the
//!   cold one at 100k providers. The `cold_*/shard50k` series repeats the
//!   cold merges on one shard's slice of a 100k world — 50 000 providers on
//!   every other id of `1000..101000`, thin enough per class that every
//!   source container is an Array, the shape the benchmark's
//!   `sync_multicap_churn` workload re-merges four thousand times a run.
//! * `churn/load_*` — a load update between every resolution. Load updates
//!   do **not** bump class epochs, so the cache keeps hitting; set beside
//!   `resolve/cold_*` (membership churn) the gap is the cache's selling
//!   point for SbQA workloads, where load changes vastly outnumber
//!   membership changes.
//! * `batch/*` — full `submit_batch` mediation of multi-capability batches.
//!   Batches repeat a handful of requirements, as real consumer populations
//!   do, so each distinct requirement is merged once per validity window.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use sbqa_core::allocator::StaticIntentions;
use sbqa_core::{Mediator, ProviderRegistry};
use sbqa_types::{
    Capability, CapabilityRequirement, CapabilitySet, ConsumerId, Intention, ProviderId, Query,
    QueryId, SystemConfig,
};

/// Number of capability classes the synthetic population spreads over.
const CLASSES: u8 = 8;

/// A query requiring `width` consecutive classes starting at 3, with `All`
/// (intersection) or `Any` (union) semantics — the same windows the
/// `registry` bench measures, so cold numbers line up across benches.
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

/// Overlapping capability profiles over `classes` classes: a base class,
/// plus the next one for every third provider, the one after for every
/// fifth and a third extra for every fifteenth.
fn profile(i: usize, classes: u8) -> CapabilitySet {
    let base = (i % classes as usize) as u8;
    let mut caps = CapabilitySet::singleton(Capability::new(base));
    if i.is_multiple_of(3) {
        caps.insert(Capability::new((base + 1) % classes));
    }
    if i.is_multiple_of(5) {
        caps.insert(Capability::new((base + 2) % classes));
    }
    if i.is_multiple_of(15) {
        caps.insert(Capability::new((base + 3) % classes));
    }
    caps
}

/// The profiles of the `registry` bench.
fn capabilities(i: usize) -> CapabilitySet {
    profile(i, CLASSES)
}

fn registry(n: usize) -> ProviderRegistry {
    let mut registry = ProviderRegistry::new();
    for i in 0..n {
        registry.register(ProviderId::new(i as u64), capabilities(i), 1.0);
    }
    registry
}

/// One shard's slice of a 100k world. Sixteen classes keep every class list
/// in Array containers: ≈ 3.2k entries in chunk 0, ≈ 1.8k in chunk 1, so
/// 2-way merges stay sorted keys in chunk 1 and everything else goes to
/// words.
fn shard_registry() -> ProviderRegistry {
    let mut registry = ProviderRegistry::new();
    for i in 0..50_000usize {
        registry.register(ProviderId::new(1000 + 2 * i as u64), profile(i, 16), 1.0);
    }
    registry
}

fn merge_cases() -> [(&'static str, Query); 4] {
    [
        ("all_2way", merge_query(2, true)),
        ("all_4way", merge_query(4, true)),
        ("any_2way", merge_query(2, false)),
        ("any_4way", merge_query(4, false)),
    ]
}

/// Cold: the plan goes stale before every resolution — `churned`, a member
/// of a mentioned class, flips online/offline — so each one re-merges.
fn bench_cold(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    mut registry: ProviderRegistry,
    churned: ProviderId,
    q: &Query,
) {
    let _ = registry.candidates(q);
    let mut online = false;
    group.bench_function(id, |b| {
        b.iter(|| {
            registry.set_online(churned, online).unwrap();
            online = !online;
            let candidates = registry.candidates(black_box(q));
            black_box(candidates.len())
        });
    });
}

/// Cold (every plan stale) vs warm (steady-state hits) resolution.
fn bench_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");

    for size in [10_000usize, 100_000] {
        for (label, q) in merge_cases() {
            // Provider 3 advertises base class 3 (and, being a multiple of
            // 3, class 4) — inside every merge window.
            bench_cold(
                &mut group,
                BenchmarkId::new(format!("resolve/cold_{label}"), size),
                registry(size),
                ProviderId::new(3),
                &q,
            );

            let mut warm = registry(size);
            // Populate the entry once so the measured loop is pure hits.
            let _ = warm.candidates(&q);
            group.bench_function(
                BenchmarkId::new(format!("resolve/warm_{label}"), size),
                |b| {
                    b.iter(|| {
                        let candidates = warm.candidates(black_box(&q));
                        black_box(candidates.len())
                    });
                },
            );
        }
    }

    for (label, q) in merge_cases() {
        // The shard's fourth provider (i = 3): classes 3 and 4 again.
        bench_cold(
            &mut group,
            BenchmarkId::new(format!("resolve/cold_{label}"), "shard50k"),
            shard_registry(),
            ProviderId::new(1006),
            &q,
        );
    }

    group.finish();
}

/// A load update between every resolution: epochs untouched, the cache keeps
/// hitting.
fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");

    for size in [10_000usize, 100_000] {
        for (label, q) in [
            ("all_4way", merge_query(4, true)),
            ("any_4way", merge_query(4, false)),
        ] {
            // A member of the merged plan (see `bench_resolve`).
            let churned = ProviderId::new(3);

            let mut reg = registry(size);
            let _ = reg.candidates(&q);
            group.bench_function(BenchmarkId::new(format!("churn/load_{label}"), size), |b| {
                let mut utilization = 0.0f64;
                b.iter(|| {
                    utilization += 0.5;
                    reg.update_load(churned, utilization, 1).unwrap();
                    let candidates = reg.candidates(black_box(&q));
                    black_box(candidates.len())
                });
            });
        }
    }

    group.finish();
}

/// Full mediation of multi-capability batches. Each batch cycles over four
/// distinct requirements, so every repetition after the first per
/// requirement is a plan-cache hit.
fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    let oracle = StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(0.3));

    let build = |size: usize| {
        let mut mediator = Mediator::sbqa(SystemConfig::default(), 42).unwrap();
        for i in 0..size {
            mediator.register_provider(ProviderId::new(i as u64), capabilities(i), 1.0);
        }
        mediator.register_consumer(ConsumerId::new(1));
        mediator
    };
    let batch_of = |len: usize| -> Vec<Query> {
        (0..len)
            .map(|i| {
                let template = &merge_cases()[i % 4].1;
                Query::requiring(
                    QueryId::new(i as u64),
                    ConsumerId::new(1),
                    template.required,
                )
                .replication(2)
                .build()
            })
            .collect()
    };

    for size in [10_000usize, 100_000] {
        for batch_len in [16usize, 64, 256] {
            let batch = batch_of(batch_len);
            let mut mediator = build(size);
            group.bench_function(BenchmarkId::new(format!("batch/{batch_len}"), size), |b| {
                b.iter(|| {
                    let mut selected = 0usize;
                    let report =
                        mediator.submit_batch(black_box(&batch), &oracle, |_, _, result| {
                            if let Ok(decision) = result {
                                selected += decision.selected.len();
                            }
                        });
                    black_box((report.mediated, selected))
                });
            });
        }
    }

    group.finish();
}

criterion_group!(benches, bench_resolve, bench_churn, bench_batch);
criterion_main!(benches);
