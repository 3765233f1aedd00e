//! Micro-benchmark: satisfaction bookkeeping cost.
//!
//! Every mediation updates one consumer window and `kn` provider windows, and
//! the ω computation reads both sides' satisfaction back. This bench measures
//! the cost of those updates and reads as the window length `k` grows, which
//! is what the `scenario_k_sweep` ablation trades against satisfaction
//! stability.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use sbqa_satisfaction::{ConsumerSatisfaction, ProviderSatisfaction, SatisfactionRegistry};
use sbqa_types::{ConsumerId, Intention, ProviderId, QueryId};

fn bench_windows(c: &mut Criterion) {
    let mut group = c.benchmark_group("satisfaction");

    for k in [10usize, 50, 250, 1000] {
        group.bench_with_input(
            BenchmarkId::new("provider_record_and_read", k),
            &k,
            |b, k| {
                let mut tracker = ProviderSatisfaction::new(*k);
                // Pre-fill the window so the benchmark measures steady state.
                for i in 0..*k {
                    tracker.record_proposal(Intention::new(0.3), i % 2 == 0);
                }
                b.iter(|| {
                    tracker.record_proposal(black_box(Intention::new(0.4)), true);
                    black_box(tracker.satisfaction())
                });
            },
        );

        group.bench_with_input(
            BenchmarkId::new("consumer_record_and_read", k),
            &k,
            |b, k| {
                let mut tracker = ConsumerSatisfaction::new(*k);
                for i in 0..*k {
                    tracker.record_outcome(
                        QueryId::new(i as u64),
                        1,
                        &[(ProviderId::new(1), Intention::new(0.5))],
                    );
                }
                let mut next = *k as u64;
                b.iter(|| {
                    tracker.record_outcome(
                        QueryId::new(next),
                        1,
                        &[(ProviderId::new(1), black_box(Intention::new(0.6)))],
                    );
                    next += 1;
                    black_box(tracker.satisfaction())
                });
            },
        );
    }

    // The read alone, as SbQA pays it per candidate to resolve ω.
    group.bench_function("provider_read/window=50", |b| {
        let mut tracker = ProviderSatisfaction::new(50);
        for i in 0..50u64 {
            tracker.record_proposal(Intention::new(0.3), i % 2 == 0);
        }
        b.iter(|| black_box(black_box(&tracker).satisfaction()));
    });

    group.bench_function("registry_record_mediation/kn=4", |b| {
        let mut registry = SatisfactionRegistry::new(50);
        let proposals: Vec<(ProviderId, Intention, bool)> = (0..4)
            .map(|i| (ProviderId::new(i), Intention::new(0.2), i == 0))
            .collect();
        let selected = vec![(ProviderId::new(0), Intention::new(0.8))];
        let mut q = 0u64;
        b.iter(|| {
            registry.record_mediation(
                QueryId::new(q),
                ConsumerId::new(1),
                1,
                black_box(&selected),
                black_box(&proposals),
            );
            q += 1;
        });
    });

    group.finish();
}

criterion_group!(benches, bench_windows);
criterion_main!(benches);
