//! Micro-benchmark: KnBest pre-selection cost as a function of the candidate
//! population size (`|Pq|`) and of `k`/`kn`. KnBest's point is precisely to
//! keep the per-query work bounded even when thousands of providers are
//! capable, so the interesting series is how flat the cost stays as `|Pq|`
//! grows. The slice series time the draw and the filter alone; the
//! `select_block/map_100k` series adds what a registry-backed view costs on
//! top — an index per drawn position into a postings chunk's sorted keys, a
//! probe of the column slab's id directory and a gather from its 100 000
//! rows.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sbqa_core::allocator::{Candidates, ProviderSnapshot};
use sbqa_core::knbest::{KnBestScratch, KnBestSelector};
use sbqa_core::PostingsMap;
use sbqa_types::{CapabilitySet, ProviderColumns, ProviderId};

fn population(n: usize) -> Vec<ProviderSnapshot> {
    (0..n)
        .map(|i| ProviderSnapshot {
            id: ProviderId::new(i as u64),
            capabilities: CapabilitySet::ALL,
            capacity: 1.0 + (i % 4) as f64,
            utilization: (i % 17) as f64,
            queue_length: i % 5,
            online: true,
        })
        .collect()
}

fn bench_knbest(c: &mut Criterion) {
    let mut group = c.benchmark_group("knbest");

    for size in [16usize, 64, 256, 1024, 4096] {
        let candidates = population(size);
        group.bench_with_input(
            BenchmarkId::new("select/k=20,kn=4", size),
            &candidates,
            |b, candidates| {
                let selector = KnBestSelector::new(20, 4);
                let mut rng = StdRng::seed_from_u64(7);
                let mut scratch = KnBestScratch::new();
                b.iter(|| {
                    let kn = selector.select_into(
                        Candidates::from_slice(black_box(candidates)),
                        &mut rng,
                        &mut scratch,
                    );
                    black_box(kn.len())
                });
            },
        );
    }

    for (k, kn) in [(5usize, 2usize), (20, 4), (50, 16), (200, 64)] {
        let candidates = population(1024);
        group.bench_with_input(
            BenchmarkId::new("select/pq=1024", format!("k={k},kn={kn}")),
            &candidates,
            |b, candidates| {
                let selector = KnBestSelector::new(k, kn);
                let mut rng = StdRng::seed_from_u64(7);
                let mut scratch = KnBestScratch::new();
                b.iter(|| {
                    let kn = selector.select_into(
                        Candidates::from_slice(black_box(candidates)),
                        &mut rng,
                        &mut scratch,
                    );
                    black_box(kn.len())
                });
            },
        );
    }

    // 100 000 members on every third id: five chunks of ~21 845 sorted keys.
    let mut columns = ProviderColumns::new();
    let mut map = PostingsMap::new();
    for row in population(100_000) {
        let id = ProviderId::new(row.id.raw() * 3);
        columns.push(ProviderSnapshot { id, ..row });
        map.insert(id);
    }
    group.bench_function("select_block/map_100k", |b| {
        let selector = KnBestSelector::new(20, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = KnBestScratch::new();
        b.iter(|| {
            let view = Candidates::from_map(black_box(&columns), black_box(&map));
            let kn = selector.select_block(view, &mut rng, &mut scratch);
            black_box(kn.len())
        });
    });

    group.finish();
}

criterion_group!(benches, bench_knbest);
criterion_main!(benches);
