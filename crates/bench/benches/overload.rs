//! Micro-benchmark of the overload machinery.
//!
//! `submit/{normal,shrunk,baseline}` — one mediation at each admission tier
//! against a 10k-provider registry: what a degraded query costs relative to
//! a full-quality one. Baseline-tier mediation skips scoring and RNG
//! entirely and should be the cheapest of the three. (The ring's push + pop
//! and the ladder's admission verdict are the benchmark's
//! `service.ring.push_pop_ns` and `core.degrade.observe_ns` probes.)

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sbqa_core::{DegradationTier, Mediator, StaticIntentions};
use sbqa_types::{
    Capability, CapabilitySet, ConsumerId, Intention, ProviderId, Query, QueryId, SystemConfig,
    VirtualTime,
};

/// Number of capability classes the synthetic population spreads over.
const CLASSES: u8 = 8;

fn capabilities(i: usize) -> CapabilitySet {
    let base = (i % CLASSES as usize) as u8;
    let mut caps = CapabilitySet::singleton(Capability::new(base));
    if i.is_multiple_of(3) {
        caps.insert(Capability::new((base + 1) % CLASSES));
    }
    caps
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

fn query(id: u64) -> Query {
    Query::builder(
        QueryId::new(id),
        ConsumerId::new(1),
        Capability::new((id % u64::from(CLASSES)) as u8),
    )
    .issued_at(VirtualTime::new(id as f64 * 1e-3))
    .build()
}

fn bench_tiered_submit(c: &mut Criterion) {
    let oracle = StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(0.6));
    let mut group = c.benchmark_group("submit");
    for (label, tier) in [
        ("normal", DegradationTier::Normal),
        ("shrunk", DegradationTier::ShrinkKn),
        ("baseline", DegradationTier::Baseline),
    ] {
        let mut mediator = mediator(10_000);
        let mut id = 0u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                id += 1;
                let q = query(id);
                black_box(mediator.submit_at(&q, &oracle, tier).is_ok())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tiered_submit);
criterion_main!(benches);
