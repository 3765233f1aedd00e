//! Optional sharded runner path: open-loop streams for the mediation
//! service.
//!
//! The event-driven [`Simulation`](crate::runner::Simulation) measures the
//! *system* (satisfaction, departures, response times in virtual seconds)
//! around a single mediator. This module measures the *mediator itself* at
//! scale: it generates a deterministic open-loop arrival stream from the
//! same [`WorkloadModel`] / [`ConsumerSpec`] vocabulary, then drives it —
//! identically — through either
//!
//! * a plain instrumented [`Mediator`]
//!   ([`run_single_mediator`], the single-mediator baseline), or
//! * the sharded [`MediationService`] ([`run_sharded_service`]): providers
//!   partitioned across `N` shards, producers enqueueing in configurable
//!   chunks, one mediation thread per shard.
//!
//! Both paths report mediated/starved tallies and wall-clock
//! ingest-to-decision latency percentiles, which is what the
//! `scenario_sharded` harness sweeps over shard counts. Decisions on the
//! single-shard service path are byte-identical to the baseline (the
//! service crate's determinism tests pin this); with more shards the stream
//! stays byte-stable per seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use sbqa_core::allocator::IntentionOracle;
use sbqa_core::{Mediator, SystemConfig};
use sbqa_service::{
    MediationService, MediatorShard, OutcomeRecord, ServiceReport, ShardReport, ShardedMediator,
};
use sbqa_types::{IdGenerator, Intention, ProviderId, Query, SbqaResult, VirtualTime};

use crate::consumer::ConsumerSpec;
use crate::provider::ProviderSpec;
use crate::rng::SimRng;
use crate::workload::WorkloadModel;

/// A deterministic, thread-safe intention oracle for service-level runs:
/// intentions are a pure hash of `(seed, consumer-or-provider id, query id)`
/// mapped into `[-1, 1]`, so both fronts consult identical values without
/// sharing any mutable participant state across shard threads.
#[derive(Debug, Clone, Copy)]
pub struct HashIntentions {
    seed: u64,
}

impl HashIntentions {
    /// Creates an oracle for the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    fn value(self, salt: u64, a: u64, b: u64) -> Intention {
        let mut x = self
            .seed
            .wrapping_add(salt)
            .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        // Map the top 53 bits into [-1, 1].
        Intention::new(((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0)
    }
}

impl IntentionOracle for HashIntentions {
    fn consumer_intention(&self, query: &Query, provider: ProviderId) -> Intention {
        self.value(0x5151, query.id.raw(), provider.raw())
    }

    fn provider_intention(&self, provider: ProviderId, query: &Query) -> Intention {
        self.value(0xACAC, provider.raw(), query.id.raw())
    }
}

/// Generates a deterministic open-loop arrival stream: every consumer emits
/// queries as an independent Poisson process (via the shared
/// [`WorkloadModel`]), merged in arrival order with ids minted in that
/// order — so the stream is sorted by `(issued_at, id)`, the natural batch
/// order both mediation fronts expect.
#[must_use]
pub fn generate_query_stream(
    consumers: &[ConsumerSpec],
    workload: &WorkloadModel,
    count: usize,
    seed: u64,
) -> Vec<Query> {
    assert!(
        !consumers.is_empty(),
        "a stream needs at least one consumer"
    );
    let master = SimRng::new(seed);
    // Mirror the event-driven runner's stream split so the two paths stay
    // decorrelated the same way.
    let mut arrival_rng = master.derive(1);
    let mut workload_rng = master.derive(3);
    let mut ids = IdGenerator::new();

    // (next arrival time, consumer position), min-first.
    let mut heap: BinaryHeap<Reverse<(VirtualTime, usize)>> = BinaryHeap::new();
    for (position, spec) in consumers.iter().enumerate() {
        let delay = workload.next_arrival(spec, &mut arrival_rng);
        heap.push(Reverse((VirtualTime::ZERO + delay, position)));
    }

    let mut stream = Vec::with_capacity(count);
    while stream.len() < count {
        let Reverse((at, position)) = heap.pop().expect("heap holds every consumer");
        let spec = &consumers[position];
        stream.push(workload.next_query(ids.next_query(), spec, at, &mut workload_rng));
        let delay = workload.next_arrival(spec, &mut arrival_rng);
        heap.push(Reverse((at + delay, position)));
    }
    stream
}

/// Configuration of a sharded service run.
#[derive(Debug, Clone)]
pub struct ShardedRunConfig {
    /// Number of mediator shards.
    pub shards: usize,
    /// Producer-side chunk size: queries are enqueued in batches of this
    /// many (the ingest batch-size/latency knob).
    pub batch: usize,
    /// Seed for routing and the per-shard allocators.
    pub seed: u64,
    /// The SbQA configuration every shard runs.
    pub system: SystemConfig,
}

/// Registers the population and consumers, spawns the service, streams the
/// queries through it in `batch`-sized chunks and returns the merged report.
pub fn run_sharded_service(
    config: &ShardedRunConfig,
    providers: &[ProviderSpec],
    consumers: &[ConsumerSpec],
    stream: &[Query],
) -> SbqaResult<ServiceReport> {
    let mut service = ShardedMediator::sbqa(config.system.clone(), config.seed, config.shards)?;
    for spec in providers {
        service.register_provider(spec.id, spec.capabilities, spec.capacity);
    }
    for spec in consumers {
        service.register_consumer(spec.id);
    }
    let oracle: Arc<dyn IntentionOracle + Send + Sync> = Arc::new(HashIntentions::new(config.seed));
    let mut running = MediationService::spawn(service, oracle);
    for chunk in stream.chunks(config.batch.max(1)) {
        running.enqueue_batch(chunk.iter().cloned());
    }
    Ok(running.finish())
}

/// The single-mediator baseline's results, shaped like one shard's view so
/// the harness prints both sides with the same columns.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Tallies and per-query latency of the lone mediator.
    pub shard: ShardReport,
    /// Every query's outcome, in stream order.
    pub outcomes: Vec<OutcomeRecord>,
    /// Wall-clock span of the whole drain.
    pub wall: std::time::Duration,
}

impl BaselineRun {
    /// Aggregate throughput in queries per wall-clock second.
    #[must_use]
    pub fn throughput_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.shard.report.submitted() as f64 / secs
    }
}

/// Drives the stream through one plain (instrumented, unrouted, unthreaded)
/// mediator — the baseline every shard count is compared against.
///
/// Latency semantics match the service side: in an open-loop run the whole
/// stream is available up front, so every query is stamped at **drain
/// start** and its sample spans availability → decision — including the
/// time it spent waiting behind earlier queries of the same drain, exactly
/// like the service's enqueue-stamped samples. (Per-mediation cost without
/// queueing is the registry bench's `mediate/*` series, not this report.)
pub fn run_single_mediator(
    system: SystemConfig,
    seed: u64,
    providers: &[ProviderSpec],
    consumers: &[ConsumerSpec],
    stream: &[Query],
) -> SbqaResult<BaselineRun> {
    let mut mediator = Mediator::sbqa(system, seed)?;
    for spec in providers {
        mediator.register_provider(spec.id, spec.capabilities, spec.capacity);
    }
    for spec in consumers {
        mediator.register_consumer(spec.id);
    }
    let mut shard = MediatorShard::new(0, mediator);
    let oracle = HashIntentions::new(seed);
    let mut outcomes = Vec::with_capacity(stream.len());
    // sbqa-lint: allow(wall-clock, "throughput measurement printed to the report only; allocation is driven by VirtualTime")
    let started = Instant::now();
    for query in stream {
        let (selected, starved) = match shard.submit(query, &oracle, started)? {
            Ok(decision) => (decision.selected.clone(), false),
            Err(_) => (Vec::new(), true),
        };
        outcomes.push(OutcomeRecord {
            shard: 0,
            query: query.id,
            consumer: query.consumer,
            issued_at: query.issued_at,
            selected,
            starved,
            shed: false,
        });
    }
    let wall = started.elapsed();
    Ok(BaselineRun {
        shard: shard.report_snapshot(),
        outcomes,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::intention::{ConsumerProfile, ProviderProfile};
    use sbqa_types::{Capability, CapabilitySet, ConsumerId, QueryId};

    fn consumers(n: u64) -> Vec<ConsumerSpec> {
        (0..n)
            .map(|c| {
                ConsumerSpec::new(
                    ConsumerId::new(c),
                    Capability::new((c % 3) as u8),
                    2.0,
                    1.0,
                    1,
                    ConsumerProfile::default(),
                )
            })
            .collect()
    }

    fn providers(n: u64) -> Vec<ProviderSpec> {
        (0..n)
            .map(|p| {
                ProviderSpec::new(
                    ProviderId::new(1_000 + p),
                    CapabilitySet::from_capabilities([
                        Capability::new((p % 3) as u8),
                        Capability::new(((p + 1) % 3) as u8),
                    ]),
                    1.0 + (p % 2) as f64,
                    ProviderProfile::default(),
                )
            })
            .collect()
    }

    #[test]
    fn stream_generation_is_deterministic_and_ordered() {
        let consumers = consumers(3);
        let workload = WorkloadModel::default();
        let a = generate_query_stream(&consumers, &workload, 200, 9);
        let b = generate_query_stream(&consumers, &workload, 200, 9);
        assert_eq!(a, b);
        let c = generate_query_stream(&consumers, &workload, 200, 10);
        assert_ne!(a, c);
        // Sorted by (issued_at, id); ids minted in arrival order.
        assert!(a
            .windows(2)
            .all(|w| (w[0].issued_at, w[0].id) <= (w[1].issued_at, w[1].id)));
        assert_eq!(a[0].id, QueryId::new(0));
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn hash_oracle_is_pure_and_in_range() {
        let oracle = HashIntentions::new(4);
        let q = Query::builder(QueryId::new(3), ConsumerId::new(1), Capability::new(0)).build();
        let a = oracle.consumer_intention(&q, ProviderId::new(8));
        let b = oracle.consumer_intention(&q, ProviderId::new(8));
        assert_eq!(a, b);
        // Different providers see different values (overwhelmingly likely).
        let c = oracle.consumer_intention(&q, ProviderId::new(9));
        assert_ne!(a, c);
        assert!((-1.0..=1.0).contains(&a.value()));
        assert!((-1.0..=1.0).contains(&oracle.provider_intention(ProviderId::new(8), &q).value()));
    }

    #[test]
    fn single_shard_service_matches_the_baseline() {
        let providers = providers(30);
        let consumers = consumers(3);
        let stream = generate_query_stream(&consumers, &WorkloadModel::default(), 150, 42);
        let system = SystemConfig::default().with_knbest(10, 3);

        let baseline =
            run_single_mediator(system.clone(), 42, &providers, &consumers, &stream).unwrap();
        let config = ShardedRunConfig {
            shards: 1,
            batch: 32,
            seed: 42,
            system,
        };
        let report = run_sharded_service(&config, &providers, &consumers, &stream).unwrap();

        assert_eq!(report.total, baseline.shard.report);
        assert_eq!(report.outcomes.len(), baseline.outcomes.len());
        for (service_outcome, baseline_outcome) in report.outcomes.iter().zip(&baseline.outcomes) {
            assert_eq!(service_outcome.query, baseline_outcome.query);
            assert_eq!(service_outcome.selected, baseline_outcome.selected);
            assert_eq!(service_outcome.starved, baseline_outcome.starved);
        }
    }

    #[test]
    fn multi_shard_service_accounts_for_every_query() {
        let providers = providers(40);
        let consumers = consumers(4);
        let stream = generate_query_stream(&consumers, &WorkloadModel::default(), 200, 7);
        let config = ShardedRunConfig {
            shards: 4,
            batch: 16,
            seed: 7,
            system: SystemConfig::default().with_knbest(8, 2),
        };
        let report = run_sharded_service(&config, &providers, &consumers, &stream).unwrap();
        assert_eq!(report.total.submitted(), 200);
        assert_eq!(report.shards.len(), 4);
        assert_eq!(report.aggregate_latency().count(), 200);
        // Byte-stability across runs.
        let again = run_sharded_service(&config, &providers, &consumers, &stream).unwrap();
        assert_eq!(report.outcomes, again.outcomes);
    }
}
