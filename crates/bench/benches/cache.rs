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
//! no merge work at all. The series here prove the three claims the cache
//! makes:
//!
//! * `resolve/cold_*` vs `resolve/warm_*` — the same merge queries with the
//!   cache disabled (capacity 0, every resolution re-merges one shared set)
//!   and enabled (every resolution after the first is a hit). The warm
//!   series must be ≥10× faster than the cold one at 100k providers. The
//!   `cold_*/shard50k` series repeats the cold merges on one shard's slice of
//!   a 100k world — 50 000 providers on every other id of `1000..101000`,
//!   thin enough per class that every source container is an Array, the
//!   shape the benchmark's `sync_multicap_churn` workload re-merges four
//!   thousand times a run.
//! * `churn/load_*` vs `churn/membership_*` — a registry mutation between
//!   every resolution. Load updates do **not** bump class epochs, so the
//!   cache keeps hitting; membership churn (an online/offline flip inside a
//!   mentioned class) bumps the epoch and forces a stale rebuild, which
//!   costs the same as a cold merge plus the validity bookkeeping. The gap
//!   between the two is the cache's selling point for SbQA workloads, where
//!   load changes vastly outnumber membership changes.
//! * `dedup/*` — full `submit_batch` mediation of multi-capability batches
//!   with (a) plan cache + batch dedup (the default), (b) plan cache but no
//!   batch memo, and (c) neither. Batches repeat a handful of requirements,
//!   as real consumer populations do, so (a) resolves each distinct
//!   requirement once per validity window while (c) merges per query.

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

/// Cold (cache off) vs warm (cache on, steady-state hits) resolution.
fn bench_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");

    for size in [10_000usize, 100_000] {
        for (label, q) in merge_cases() {
            let mut cold = registry(size);
            cold.set_plan_cache_capacity(0);
            group.bench_function(
                BenchmarkId::new(format!("resolve/cold_{label}"), size),
                |b| {
                    b.iter(|| {
                        let candidates = cold.candidates(black_box(&q));
                        black_box(candidates.len())
                    });
                },
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
        let mut cold = shard_registry();
        cold.set_plan_cache_capacity(0);
        group.bench_function(
            BenchmarkId::new(format!("resolve/cold_{label}"), "shard50k"),
            |b| {
                b.iter(|| {
                    let candidates = cold.candidates(black_box(&q));
                    black_box(candidates.len())
                });
            },
        );
    }

    group.finish();
}

/// A registry mutation between every resolution: load churn keeps hitting
/// (epochs untouched), membership churn forces a stale rebuild per hit.
fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");

    for size in [10_000usize, 100_000] {
        for (label, q) in [
            ("all_4way", merge_query(4, true)),
            ("any_4way", merge_query(4, false)),
        ] {
            // Provider 3 advertises base class 3 (and, being a multiple of
            // 3, class 4) — inside the merge window, so flipping it online
            // and offline bumps the epochs of mentioned classes.
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

            let mut reg = registry(size);
            let _ = reg.candidates(&q);
            group.bench_function(
                BenchmarkId::new(format!("churn/membership_{label}"), size),
                |b| {
                    let mut online = false;
                    b.iter(|| {
                        reg.set_online(churned, online).unwrap();
                        online = !online;
                        let candidates = reg.candidates(black_box(&q));
                        black_box(candidates.len())
                    });
                },
            );
        }
    }

    group.finish();
}

/// Full mediation of multi-capability batches under the three cache
/// configurations. Each batch cycles over four distinct requirements, so
/// with dedup every repetition after the first per requirement rides the
/// batch memo, and without any cache every query pays its merge.
fn bench_dedup(c: &mut Criterion) {
    type MediatorBuilder = Box<dyn Fn() -> Mediator>;

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
            let configs: [(&str, MediatorBuilder); 3] = [
                (
                    "dedup_on",
                    Box::new(move || build(size)), // cache + memo: the default
                ),
                (
                    "dedup_off",
                    Box::new(move || {
                        let mut m = build(size);
                        m.set_batch_dedup(false);
                        m
                    }),
                ),
                (
                    "uncached",
                    Box::new(move || {
                        let mut m = build(size);
                        m.set_plan_cache_capacity(0);
                        m
                    }),
                ),
            ];
            for (label, make) in configs {
                let mut mediator = make();
                group.bench_function(
                    BenchmarkId::new(format!("dedup/{label}/batch_{batch_len}"), size),
                    |b| {
                        b.iter(|| {
                            let mut selected = 0usize;
                            let report = mediator.submit_batch(
                                black_box(&batch),
                                &oracle,
                                |_, _, result| {
                                    if let Ok(decision) = result {
                                        selected += decision.selected.len();
                                    }
                                },
                            );
                            black_box((report.mediated, selected))
                        });
                    },
                );
            }
        }
    }

    group.finish();
}

criterion_group!(benches, bench_resolve, bench_churn, bench_dedup);
criterion_main!(benches);
