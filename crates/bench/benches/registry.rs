//! Micro-benchmark: the capability-indexed registry against the pre-refactor
//! clone-and-scan path, at realistic population sizes.
//!
//! Before the indexed engine, every mediation (1) scanned the whole provider
//! `HashMap`, cloning each capable snapshot into a fresh `Vec` and sorting it
//! (`capable_of`), then (2) cloned that vector *again* inside KnBest and
//! full-shuffled it to draw `k` — O(|P|) time and O(|P|) allocations per
//! query even when `kn = 4`. The `legacy` series below reproduces that path
//! verbatim so the `indexed` series (postings-list lookup + O(k) partial
//! Fisher–Yates into reused scratch) can be compared against it on the same
//! populations. The `candidates/*` series compare the single-capability
//! lookup against 2- and 4-way `All` / `Any` requirements. Those resolve
//! through the plan cache, so after the first iteration they time a *hit*
//! (the cold merge is the `cache` bench's `resolve/cold_*` series); the
//! `candidates_vec/*` series
//! reproduce the pre-bitmap flat sorted `Vec<u32>` postings representation
//! (galloping binary-search intersection, k-way heap-less union) on the same
//! populations, which is the baseline the bitmap containers must beat at
//! 100k+ providers. The `mediate` group measures the full `Mediator` hot
//! path — `Pq` + KnBest + scoring + ranking + satisfaction bookkeeping — via
//! `submit_in_place` and `submit_batch`.
//!
//! The top population size is **1,000,000 providers**, the head-line scale
//! this registry targets: single-class resolution must stay sub-µs there
//! (the borrowed postings view costs O(1) regardless of population), and the
//! multi-class and mediation series must stay independent of |P|. The
//! O(|P|)-per-query `legacy` scan series stops
//! at 100k — at 1M it spends tens of milliseconds per query, which is the
//! point of its existence but a waste of benchmark wall-clock.

use std::collections::HashMap;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sbqa_core::allocator::{ProviderSnapshot, StaticIntentions};
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

fn snapshot(i: usize) -> ProviderSnapshot {
    ProviderSnapshot {
        id: ProviderId::new(i as u64),
        capabilities: capabilities(i),
        capacity: 1.0 + (i % 4) as f64,
        utilization: (i % 13) as f64 * 0.5,
        queue_length: i % 7,
        online: true,
    }
}

fn indexed_registry(n: usize) -> ProviderRegistry {
    let mut registry = ProviderRegistry::new();
    for i in 0..n {
        registry.register(ProviderId::new(i as u64), capabilities(i), 1.0);
    }
    registry
}

/// The pre-refactor representation: snapshots in a `HashMap`, `Pq` by scan.
fn legacy_registry(n: usize) -> HashMap<ProviderId, ProviderSnapshot> {
    (0..n)
        .map(|i| (ProviderId::new(i as u64), snapshot(i)))
        .collect()
}

/// The pre-refactor `capable_of`: scan, clone, sort.
fn legacy_capable_of(
    providers: &HashMap<ProviderId, ProviderSnapshot>,
    q: &Query,
) -> Vec<ProviderSnapshot> {
    let mut capable: Vec<ProviderSnapshot> = providers
        .values()
        .filter(|p| p.online && q.required.matched_by(p.capabilities))
        .copied()
        .collect();
    capable.sort_by_key(|p| p.id);
    capable
}

/// The pre-bitmap postings representation: one flat sorted `Vec<u32>` of
/// provider indices per capability class (lists hold only online providers,
/// as the old registry's did). The merge routines below mirror the old
/// registry's `All`/`Any` paths verbatim: a k-way forward-cursor
/// intersection driven by the shortest list, and a min-head cursor union —
/// the `Vec<u32>` baseline the bitmap containers must beat at 100k+.
struct VecPostings {
    classes: Vec<Vec<u32>>,
}

impl VecPostings {
    fn build(n: usize) -> Self {
        let mut classes = vec![Vec::new(); CLASSES as usize];
        for i in 0..n {
            let caps = capabilities(i);
            for class in 0..CLASSES {
                if caps.contains(Capability::new(class)) {
                    classes[class as usize].push(i as u32);
                }
            }
        }
        Self { classes }
    }

    /// `All` merge: advance every list's cursor past the driver's id.
    fn intersect(&self, classes: &[u8], out: &mut Vec<u32>) {
        out.clear();
        let driver = classes
            .iter()
            .map(|&c| c as usize)
            .min_by_key(|&c| self.classes[c].len())
            .expect("at least two classes");
        let mut cursors = [0usize; CLASSES as usize];
        'members: for &slot in &self.classes[driver] {
            for &class in classes {
                let class = class as usize;
                if class == driver {
                    continue;
                }
                let list = &self.classes[class];
                let cursor = &mut cursors[class];
                while *cursor < list.len() && list[*cursor] < slot {
                    *cursor += 1;
                }
                if *cursor == list.len() {
                    break 'members;
                }
                if list[*cursor] != slot {
                    continue 'members;
                }
            }
            out.push(slot);
        }
    }

    /// `Any` merge: emit the minimum head across the lists, advance matches.
    fn union(&self, classes: &[u8], out: &mut Vec<u32>) {
        out.clear();
        let mut cursors = [0usize; CLASSES as usize];
        loop {
            let mut next: Option<u32> = None;
            for &class in classes {
                let list = &self.classes[class as usize];
                if let Some(&head) = list.get(cursors[class as usize]) {
                    next = Some(next.map_or(head, |n: u32| n.min(head)));
                }
            }
            let Some(next) = next else { break };
            for &class in classes {
                let class = class as usize;
                if self.classes[class].get(cursors[class]) == Some(&next) {
                    cursors[class] += 1;
                }
            }
            out.push(next);
        }
    }
}

/// The pre-refactor KnBest: clone the candidates again, full-shuffle, sort.
fn legacy_knbest(
    candidates: &[ProviderSnapshot],
    k: usize,
    kn: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<ProviderSnapshot> {
    let mut pool: Vec<ProviderSnapshot> = candidates.to_vec();
    pool.shuffle(rng);
    pool.truncate(k);
    pool.sort_by(|a, b| {
        sbqa_types::f64_total_cmp(a.utilization, b.utilization).then_with(|| a.id.cmp(&b.id))
    });
    pool.truncate(kn);
    pool
}

fn bench_capable_of(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry");
    let q = query(3);

    for size in [1_000usize, 10_000, 100_000, 1_000_000] {
        // The O(|P|)-per-query legacy scan stops at 100k; see module docs.
        if size <= 100_000 {
            let legacy = legacy_registry(size);
            group.bench_with_input(
                BenchmarkId::new("capable_of/legacy_scan_clone", size),
                &legacy,
                |b, legacy| {
                    let mut rng = ChaCha8Rng::seed_from_u64(42);
                    b.iter(|| {
                        let candidates = legacy_capable_of(black_box(legacy), &q);
                        let kn = legacy_knbest(&candidates, 20, 4, &mut rng);
                        black_box(kn.len())
                    });
                },
            );
        }

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
/// bench's `resolve/cold_*` series. Compare against
/// `capable_of/legacy_scan_clone`, which scans the full population per query,
/// and the `candidates_vec/*` flat-list merges below.
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

        // The same merges over the pre-bitmap flat sorted `Vec<u32>` lists.
        // The class windows match `merge_query`: `width` consecutive classes
        // starting at 3.
        let vec_postings = VecPostings::build(size);
        let mut out = Vec::new();
        let vec_cases = [
            ("candidates_vec/all_2way", [3u8, 4].as_slice(), true),
            ("candidates_vec/all_4way", [3u8, 4, 5, 6].as_slice(), true),
            ("candidates_vec/any_2way", [3u8, 4].as_slice(), false),
            ("candidates_vec/any_4way", [3u8, 4, 5, 6].as_slice(), false),
        ];
        for (label, classes, conjunctive) in vec_cases {
            group.bench_function(BenchmarkId::new(label, size), |b| {
                b.iter(|| {
                    if conjunctive {
                        vec_postings.intersect(black_box(classes), &mut out);
                    } else {
                        vec_postings.union(black_box(classes), &mut out);
                    }
                    black_box(out.len())
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
