//! The simulation runner: builds the world, drives the event loop, produces
//! the report.
//!
//! The runner hosts the mediation service at one shard — a
//! [`ShardedMediator`] around one [`Mediator`] (provider registry +
//! satisfaction registry + the allocation technique) — and drives it through
//! [`ShardedMediator::submit_batch`], the same shard step every open-loop
//! run takes: query arrivals that land on the same virtual instant are
//! coalesced into one batch, so the mediation scratch and registry lookups
//! are amortized over the drain exactly as they would be in a production
//! ingest queue. One shard is byte-identical to the plain mediator.
//! Provider load changes (accept/complete) are mirrored into the registry
//! incrementally, which keeps the per-query candidate computation an index
//! lookup instead of a population scan.
//!
//! A departure ([`DeparturePolicy`], checked at every sample) is what the
//! open loop's is: a provider goes offline — one registry delta, so it
//! leaves `Pq` — and a consumer stops issuing. Nobody's satisfaction row is
//! removed; snapshots and final satisfactions read the online participants
//! only, in id order.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use sbqa_core::allocator::{IntentionOracle, QueryAllocator};
use sbqa_core::Mediator;
use sbqa_metrics::{ResponseTimeStats, TimeSeries};
use sbqa_satisfaction::{SatisfactionAnalysis, SatisfactionSnapshot, SideSummary};
use sbqa_service::ShardedMediator;
use sbqa_types::{
    ConsumerId, IdGenerator, Intention, ProviderId, Query, QueryId, QueryOutcome, Satisfaction,
    SbqaError, SbqaResult, VirtualTime,
};

use crate::config::{DeparturePolicy, SimulationConfig};
use crate::consumer::{ConsumerSpec, ConsumerState};
use crate::event::{Event, EventQueue};
use crate::network::NetworkModel;
use crate::provider::{ProviderSpec, ProviderState};
use crate::report::{ParticipantCounts, SimulationReport};
use crate::rng::SimRng;
use crate::workload::WorkloadModel;

/// Builder for a simulation run.
pub struct SimulationBuilder {
    config: SimulationConfig,
    allocator: Option<Box<dyn QueryAllocator>>,
    consumers: Vec<ConsumerSpec>,
    providers: Vec<ProviderSpec>,
    workload: WorkloadModel,
}

impl SimulationBuilder {
    /// Starts a builder from a configuration.
    #[must_use]
    pub fn new(config: SimulationConfig) -> Self {
        Self {
            config,
            allocator: None,
            consumers: Vec::new(),
            providers: Vec::new(),
            workload: WorkloadModel::default(),
        }
    }

    /// Sets the allocation technique to simulate.
    #[must_use]
    pub fn allocator(mut self, allocator: Box<dyn QueryAllocator>) -> Self {
        self.allocator = Some(allocator);
        self
    }

    /// Adds a collection of consumers.
    #[must_use]
    pub fn consumers(mut self, specs: impl IntoIterator<Item = ConsumerSpec>) -> Self {
        self.consumers.extend(specs);
        self
    }

    /// Adds a collection of providers.
    #[must_use]
    pub fn providers(mut self, specs: impl IntoIterator<Item = ProviderSpec>) -> Self {
        self.providers.extend(specs);
        self
    }

    /// Overrides the workload model.
    #[must_use]
    pub fn workload(mut self, workload: WorkloadModel) -> Self {
        self.workload = workload;
        self
    }

    /// Validates the ingredients and builds a runnable [`Simulation`].
    fn build(self) -> SbqaResult<Simulation> {
        self.config.validate()?;
        let allocator = self.allocator.ok_or_else(|| {
            SbqaError::invalid_config("a simulation needs an allocation technique")
        })?;
        if self.consumers.is_empty() {
            return Err(SbqaError::empty_scenario("no consumers were added"));
        }
        if self.providers.is_empty() {
            return Err(SbqaError::empty_scenario("no providers were added"));
        }
        Simulation::new(
            self.config,
            allocator,
            self.consumers,
            self.providers,
            self.workload,
        )
    }

    /// Builds and runs the simulation in one call.
    pub fn run(self) -> SbqaResult<SimulationReport> {
        Ok(self.build()?.run())
    }
}

/// Tracks a query between allocation and the delivery of its last result.
#[derive(Debug, Clone)]
struct PendingQuery {
    query: Query,
    allocated_to: Vec<ProviderId>,
    received: usize,
}

/// Intention oracle backed by the simulated participants' profiles.
struct SimOracle<'a> {
    consumers: &'a BTreeMap<ConsumerId, ConsumerState>,
    providers: &'a BTreeMap<ProviderId, ProviderState>,
}

impl IntentionOracle for SimOracle<'_> {
    fn consumer_intention(&self, query: &Query, provider: ProviderId) -> Intention {
        let Some(consumer) = self.consumers.get(&query.consumer) else {
            return Intention::NEUTRAL;
        };
        let Some(provider_state) = self.providers.get(&provider) else {
            return Intention::NEUTRAL;
        };
        consumer
            .spec
            .profile
            .intention_for(&provider_state.snapshot())
    }

    fn provider_intention(&self, provider: ProviderId, query: &Query) -> Intention {
        let Some(provider_state) = self.providers.get(&provider) else {
            return Intention::NEUTRAL;
        };
        provider_state
            .spec
            .profile
            .intention_for(query, provider_state.backlog_seconds())
    }
}

/// A fully-assembled simulation, ready to run.
struct Simulation {
    config: SimulationConfig,
    technique: String,
    service: ShardedMediator,
    consumers: BTreeMap<ConsumerId, ConsumerState>,
    providers: BTreeMap<ProviderId, ProviderState>,
    workload: WorkloadModel,
    network: NetworkModel,
    events: EventQueue,
    clock: VirtualTime,
    arrival_rng: SimRng,
    network_rng: SimRng,
    workload_rng: SimRng,
    query_ids: IdGenerator,
    /// Allocated queries whose last result has not been delivered yet.
    pending: BTreeMap<QueryId, PendingQuery>,
    /// Queries staged for the next mediation batch (arrivals at one instant).
    batch: Vec<Query>,
    /// Per-batch-entry outcome: the selected providers, or `None` if starved.
    batch_outcomes: Vec<Option<Vec<ProviderId>>>,
    // Metrics.
    response: ResponseTimeStats,
    analysis: SatisfactionAnalysis,
    ts_consumer_sat: TimeSeries,
    ts_provider_sat: TimeSeries,
    ts_online_providers: TimeSeries,
    ts_mean_response: TimeSeries,
    queries_issued: u64,
    initial_capacity: f64,
}

impl Simulation {
    fn new(
        config: SimulationConfig,
        allocator: Box<dyn QueryAllocator>,
        consumer_specs: Vec<ConsumerSpec>,
        provider_specs: Vec<ProviderSpec>,
        workload: WorkloadModel,
    ) -> SbqaResult<Self> {
        let technique = allocator.name().to_string();
        let master = SimRng::new(config.seed);
        let mediator = Mediator::new(allocator, config.system.satisfaction_window);
        let mut service = ShardedMediator::new(config.seed, vec![mediator])?;

        let mut consumers = BTreeMap::new();
        for spec in consumer_specs {
            service.register_consumer(spec.id);
            consumers.insert(spec.id, ConsumerState::new(spec));
        }
        let mut providers = BTreeMap::new();
        let mut initial_capacity = 0.0;
        for spec in provider_specs {
            service.register_provider(spec.id, spec.capabilities, spec.capacity);
            initial_capacity += spec.capacity;
            providers.insert(spec.id, ProviderState::new(spec));
        }

        let analysis = SatisfactionAnalysis::new(technique.clone());
        Ok(Self {
            network: NetworkModel::new(config.network),
            arrival_rng: master.derive(1),
            network_rng: master.derive(2),
            workload_rng: master.derive(3),
            config,
            technique,
            service,
            consumers,
            providers,
            workload,
            events: EventQueue::new(),
            clock: VirtualTime::ZERO,
            query_ids: IdGenerator::new(),
            pending: BTreeMap::new(),
            batch: Vec::new(),
            batch_outcomes: Vec::new(),
            response: ResponseTimeStats::new(),
            analysis,
            ts_consumer_sat: TimeSeries::new("consumer_satisfaction"),
            ts_provider_sat: TimeSeries::new("provider_satisfaction"),
            ts_online_providers: TimeSeries::new("online_providers"),
            ts_mean_response: TimeSeries::new("mean_response_time"),
            queries_issued: 0,
            initial_capacity,
        })
    }

    /// Runs the simulation to completion and produces the report.
    pub fn run(mut self) -> SimulationReport {
        let end = VirtualTime::new(self.config.duration);

        // Prime the event queue: first query of every consumer, first sample.
        let consumer_ids: Vec<ConsumerId> = self.consumers.keys().copied().collect();
        for id in consumer_ids {
            let delay = {
                let spec = &self.consumers[&id].spec;
                self.workload.next_arrival(spec, &mut self.arrival_rng)
            };
            self.events.schedule(
                VirtualTime::ZERO + delay,
                Event::QueryIssued { consumer: id },
            );
        }
        self.events
            .schedule(VirtualTime::new(self.config.sample_interval), Event::Sample);

        while let Some(scheduled) = self.events.pop() {
            if scheduled.at > end {
                break;
            }
            self.clock = scheduled.at;
            match scheduled.event {
                Event::QueryIssued { consumer } => {
                    // Coalesce every arrival at this instant into one batch:
                    // FIFO order among simultaneous events is preserved, and
                    // the mediation scratch is amortized over the drain.
                    self.stage_query(consumer);
                    while matches!(
                        self.events.peek(),
                        Some(next) if next.at == self.clock
                            && matches!(next.event, Event::QueryIssued { .. })
                    ) {
                        let Some(next) = self.events.pop() else {
                            break;
                        };
                        let Event::QueryIssued { consumer } = next.event else {
                            unreachable!("peeked a QueryIssued event");
                        };
                        self.stage_query(consumer);
                    }
                    self.flush_batch();
                }
                Event::QueryReceived { provider, query } => {
                    self.on_query_received(provider, query);
                }
                Event::QueryCompleted { provider, query } => {
                    self.on_query_completed(provider, query);
                }
                Event::ResultDelivered { provider, query } => {
                    self.on_result_delivered(provider, query);
                }
                Event::Sample => self.on_sample(),
            }
        }

        self.finish()
    }

    /// Builds the consumer's next query, schedules the one after it, and
    /// stages the query for the current mediation batch.
    fn stage_query(&mut self, consumer_id: ConsumerId) {
        let Some(consumer) = self.consumers.get(&consumer_id) else {
            return;
        };
        if !consumer.online {
            return;
        }

        let query = self.workload.next_query(
            self.query_ids.next_query(),
            &consumer.spec,
            self.clock,
            &mut self.workload_rng,
        );
        let next_in = self
            .workload
            .next_arrival(&consumer.spec, &mut self.arrival_rng);
        self.events.schedule(
            self.clock + next_in,
            Event::QueryIssued {
                consumer: consumer_id,
            },
        );

        self.queries_issued += 1;
        if let Some(state) = self.consumers.get_mut(&consumer_id) {
            state.queries_issued += 1;
        }
        self.batch.push(query);
    }

    /// Drains the staged queries through `ShardedMediator::submit_batch` and
    /// turns each decision into simulator events. The staged queries share
    /// the instant and carry increasing ids, so the service's `(issued_at,
    /// id)` order is the staging order.
    fn flush_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.batch);
        self.batch_outcomes.clear();
        self.batch_outcomes.resize(batch.len(), None);
        {
            let oracle = SimOracle {
                consumers: &self.consumers,
                providers: &self.providers,
            };
            let outcomes = &mut self.batch_outcomes;
            self.service
                .submit_batch(&batch, &oracle, |position, _, result| {
                    outcomes[position] = match result {
                        Ok(decision) if !decision.is_starved() => Some(decision.selected.clone()),
                        _ => None,
                    };
                });
        }

        for (position, query) in batch.drain(..).enumerate() {
            match self.batch_outcomes[position].take() {
                Some(selected) => {
                    // Ship the query to every selected provider.
                    for provider in &selected {
                        let latency = self.network.sample_latency(&mut self.network_rng);
                        self.events.schedule(
                            self.clock + latency,
                            Event::QueryReceived {
                                provider: *provider,
                                query: query.clone(),
                            },
                        );
                    }
                    self.pending.insert(
                        query.id,
                        PendingQuery {
                            allocated_to: selected,
                            received: 0,
                            query,
                        },
                    );
                }
                None => self.record_starved(&query),
            }
        }
        // Hand the (now empty) buffer back so its capacity is reused by the
        // next arrival instant.
        self.batch = batch;
    }

    /// Mirrors a provider's current load into the mediator's registry so the
    /// next mediation sees it. Called on every accept/complete transition.
    fn sync_provider_load(&mut self, provider_id: ProviderId) {
        if let Some(provider) = self.providers.get(&provider_id) {
            self.service
                .update_provider_load(
                    provider_id,
                    provider.backlog_seconds(),
                    provider.queue_length(),
                )
                .expect("provider is registered with the mediator");
        }
    }

    fn on_query_received(&mut self, provider_id: ProviderId, query: Query) {
        let Some(provider) = self.providers.get_mut(&provider_id) else {
            return;
        };
        if !provider.online {
            // The provider left between allocation and delivery; the result
            // will simply never arrive.
            return;
        }
        let query_id = query.id;
        if let Some(started) = provider.accept(query) {
            self.events.schedule(
                self.clock + started.service_time,
                Event::QueryCompleted {
                    provider: provider_id,
                    query: query_id,
                },
            );
        }
        self.sync_provider_load(provider_id);
    }

    fn on_query_completed(&mut self, provider_id: ProviderId, query: QueryId) {
        let Some(provider) = self.providers.get_mut(&provider_id) else {
            return;
        };
        if !provider.online {
            return;
        }
        if let Some(next) = provider.complete(query) {
            self.events.schedule(
                self.clock + next.service_time,
                Event::QueryCompleted {
                    provider: provider_id,
                    query: next.query,
                },
            );
        }
        self.sync_provider_load(provider_id);
        let latency = self.network.sample_latency(&mut self.network_rng);
        self.events.schedule(
            self.clock + latency,
            Event::ResultDelivered {
                provider: provider_id,
                query,
            },
        );
    }

    fn on_result_delivered(&mut self, _provider: ProviderId, query: QueryId) {
        let Entry::Occupied(mut entry) = self.pending.entry(query) else {
            return;
        };
        let pending = entry.get_mut();
        pending.received += 1;
        if pending.received < pending.allocated_to.len() {
            return;
        }
        let pending = entry.remove();
        let consumer = pending.query.consumer;
        self.response.record_outcome(&QueryOutcome {
            query,
            consumer,
            performed_by: pending.allocated_to,
            issued_at: pending.query.issued_at,
            completed_at: Some(self.clock),
            starved: false,
        });
        if let Some(state) = self.consumers.get_mut(&consumer) {
            state.queries_completed += 1;
        }
    }

    /// `(id, satisfaction)` of every online consumer, in id order.
    fn online_consumers(&self) -> impl Iterator<Item = (ConsumerId, Satisfaction)> + '_ {
        let registry = self.service.satisfaction(0);
        self.consumers
            .values()
            .filter(|c| c.online)
            .map(|c| (c.id(), registry.consumer_satisfaction(c.id())))
    }

    /// `(id, satisfaction)` of every online provider, in id order.
    fn online_providers(&self) -> impl Iterator<Item = (ProviderId, Satisfaction)> + '_ {
        let registry = self.service.satisfaction(0);
        self.providers
            .values()
            .filter(|p| p.online)
            .map(|p| (p.id(), registry.provider_satisfaction(p.id())))
    }

    fn on_sample(&mut self) {
        let (consumer_threshold, provider_threshold) = match self.config.departure {
            DeparturePolicy::Autonomous {
                consumer_threshold,
                provider_threshold,
                ..
            } => (consumer_threshold, provider_threshold),
            DeparturePolicy::Captive => (0.5, 0.35),
        };

        let consumers: Vec<Satisfaction> = self.online_consumers().map(|(_, s)| s).collect();
        let providers: Vec<Satisfaction> = self.online_providers().map(|(_, s)| s).collect();
        let snapshot = SatisfactionSnapshot {
            at: self.clock,
            consumers: SideSummary::from_values(&consumers, consumer_threshold),
            providers: SideSummary::from_values(&providers, provider_threshold),
        };
        self.ts_consumer_sat
            .push(self.clock, snapshot.consumers.mean);
        self.ts_provider_sat
            .push(self.clock, snapshot.providers.mean);
        self.ts_online_providers
            .push(self.clock, providers.len() as f64);
        if self.response.completed() > 0 {
            self.ts_mean_response.push(self.clock, self.response.mean());
        }
        self.analysis.push(snapshot);

        // Departures (autonomous environments only): a consumer stops
        // issuing; a provider goes offline, which takes it out of `Pq`.
        let policy = self.config.departure;
        let registry = self.service.satisfaction(0);
        for consumer in self.consumers.values_mut().filter(|c| c.online) {
            let tracker = registry.consumer(consumer.id());
            if tracker.is_some_and(|tracker| policy.consumer_leaves(tracker)) {
                consumer.depart(self.clock);
            }
        }
        let leaving: Vec<ProviderId> = self
            .providers
            .values()
            .filter(|p| p.online)
            .filter(|p| {
                let tracker = registry.provider(p.id());
                tracker.is_some_and(|tracker| policy.provider_leaves(tracker))
            })
            .map(ProviderState::id)
            .collect();
        for provider in leaving {
            if let Some(state) = self.providers.get_mut(&provider) {
                state.depart(self.clock);
            }
            self.service
                .set_provider_online(provider, false)
                .expect("departing provider is registered with the mediator");
        }

        let next = self.clock + sbqa_types::Duration::new(self.config.sample_interval);
        if next <= VirtualTime::new(self.config.duration) {
            self.events.schedule(next, Event::Sample);
        }
    }

    fn record_starved(&mut self, query: &Query) {
        self.response.record_outcome(&QueryOutcome {
            query: query.id,
            consumer: query.consumer,
            performed_by: Vec::new(),
            issued_at: query.issued_at,
            completed_at: None,
            starved: true,
        });
        if let Some(state) = self.consumers.get_mut(&query.consumer) {
            state.queries_starved += 1;
        }
    }

    fn finish(mut self) -> SimulationReport {
        // Queries still in flight at the end of the run.
        for _ in 0..self.pending.len() {
            self.response.record_unfinished();
        }

        let final_capacity: f64 = self
            .providers
            .values()
            .filter(|p| p.online)
            .map(|p| p.spec.capacity)
            .sum();
        let participants = ParticipantCounts {
            initial_consumers: self.consumers.len(),
            initial_providers: self.providers.len(),
            final_consumers: self.consumers.values().filter(|c| c.online).count(),
            final_providers: self.providers.values().filter(|p| p.online).count(),
        };

        let consumer_final_satisfaction: Vec<(ConsumerId, f64)> = self
            .online_consumers()
            .map(|(id, satisfaction)| (id, satisfaction.value()))
            .collect();
        let provider_final_satisfaction: Vec<(ProviderId, f64)> = self
            .online_providers()
            .map(|(id, satisfaction)| (id, satisfaction.value()))
            .collect();

        SimulationReport {
            technique: self.technique,
            duration: self.config.duration,
            seed: self.config.seed,
            queries_issued: self.queries_issued,
            response: self.response,
            satisfaction: self.analysis,
            queries_per_provider: self
                .providers
                .values()
                .map(|p| (p.id(), p.queries_performed))
                .collect(),
            provider_capacities: self
                .providers
                .values()
                .map(|p| (p.id(), p.spec.capacity))
                .collect(),
            participants,
            capacity_retention: if self.initial_capacity > 0.0 {
                final_capacity / self.initial_capacity
            } else {
                1.0
            },
            series: vec![
                self.ts_consumer_sat,
                self.ts_provider_sat,
                self.ts_online_providers,
                self.ts_mean_response,
            ],
            consumer_final_satisfaction,
            provider_final_satisfaction,
            plan_cache: self.service.shard(0).mediator().plan_cache_stats(),
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("technique", &self.technique)
            .field("consumers", &self.consumers.len())
            .field("providers", &self.providers.len())
            .field("clock", &self.clock)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::intention::{ConsumerProfile, ProviderProfile};
    use sbqa_core::SbqaAllocator;
    use sbqa_types::{Capability, CapabilitySet, SystemConfig};

    use crate::config::NetworkConfig;

    fn consumer(id: u64, rate: f64) -> ConsumerSpec {
        ConsumerSpec::new(
            ConsumerId::new(id),
            Capability::new(0),
            rate,
            1.0,
            1,
            ConsumerProfile::default(),
        )
    }

    fn provider(id: u64, capacity: f64) -> ProviderSpec {
        ProviderSpec::new(
            ProviderId::new(id),
            CapabilitySet::singleton(Capability::new(0)),
            capacity,
            ProviderProfile::default(),
        )
    }

    fn base_config(duration: f64) -> SimulationConfig {
        SimulationConfig {
            duration,
            sample_interval: 5.0,
            network: NetworkConfig::instantaneous(),
            ..SimulationConfig::default()
        }
    }

    fn sbqa(config: &SimulationConfig) -> Box<dyn QueryAllocator> {
        Box::new(SbqaAllocator::new(config.system.clone(), config.seed).unwrap())
    }

    #[test]
    fn builder_rejects_missing_ingredients() {
        let config = base_config(10.0);
        // No allocator.
        let err = SimulationBuilder::new(config.clone())
            .consumers([consumer(1, 1.0)])
            .providers([provider(100, 1.0)])
            .build()
            .unwrap_err();
        assert!(matches!(err, SbqaError::InvalidConfiguration { .. }));

        // No consumers.
        let err = SimulationBuilder::new(config.clone())
            .allocator(sbqa(&config))
            .providers([provider(100, 1.0)])
            .build()
            .unwrap_err();
        assert!(matches!(err, SbqaError::EmptyScenario { .. }));

        // No providers.
        let err = SimulationBuilder::new(config.clone())
            .allocator(sbqa(&config))
            .consumers([consumer(1, 1.0)])
            .build()
            .unwrap_err();
        assert!(matches!(err, SbqaError::EmptyScenario { .. }));
    }

    #[test]
    fn small_run_completes_queries() {
        let config = base_config(200.0);
        let report = SimulationBuilder::new(config.clone())
            .allocator(sbqa(&config))
            .consumers((0..2).map(|i| consumer(i, 0.5)))
            .providers((100..110).map(|i| provider(i, 2.0)))
            .run()
            .unwrap();

        assert_eq!(report.technique, "SbQA");
        assert!(
            report.queries_issued > 50,
            "issued {}",
            report.queries_issued
        );
        assert!(report.response.completed() > 0);
        assert!(report.response.completion_rate() > 0.8);
        assert!(report.response.mean() > 0.0);
        // Captive environment: nobody leaves.
        assert_eq!(report.participants.final_providers, 10);
        assert_eq!(report.participants.final_consumers, 2);
        assert!((report.capacity_retention - 1.0).abs() < 1e-12);
        // Series were sampled.
        assert!(!report
            .series_named("consumer_satisfaction")
            .unwrap()
            .is_empty());
        assert!(!report.series_named("online_providers").unwrap().is_empty());
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let config = base_config(100.0).with_seed(seed);
            SimulationBuilder::new(config.clone())
                .allocator(sbqa(&config))
                .consumers((0..3).map(|i| consumer(i, 1.0)))
                .providers((100..120).map(|i| provider(i, 1.5)))
                .run()
                .unwrap()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a.queries_issued, b.queries_issued);
        assert_eq!(a.response.completed(), b.response.completed());
        assert!((a.response.mean() - b.response.mean()).abs() < 1e-12);
        // A different seed gives a different trajectory.
        assert!(
            a.queries_issued != c.queries_issued
                || (a.response.mean() - c.response.mean()).abs() > 1e-12
        );
    }

    #[test]
    fn starvation_is_recorded_when_no_provider_is_capable() {
        let config = base_config(50.0);
        // Providers advertise capability 1, consumers require capability 0.
        let report = SimulationBuilder::new(config.clone())
            .allocator(sbqa(&config))
            .consumers([consumer(1, 1.0)])
            .providers([ProviderSpec::new(
                ProviderId::new(100),
                CapabilitySet::singleton(Capability::new(1)),
                1.0,
                ProviderProfile::default(),
            )])
            .run()
            .unwrap();
        assert!(report.response.starved() > 0);
        assert_eq!(report.response.completed(), 0);
    }

    #[test]
    fn overload_leaves_unfinished_queries() {
        // One slow provider, heavy arrivals: the backlog cannot drain.
        let config = base_config(100.0);
        let report = SimulationBuilder::new(config.clone())
            .allocator(sbqa(&config))
            .consumers([consumer(1, 5.0)])
            .providers([provider(100, 0.2)])
            .run()
            .unwrap();
        assert!(report.response.unfinished() > 0);
        assert!(report.queries_issued > report.response.completed());
    }

    #[test]
    fn autonomous_environment_can_lose_dissatisfied_providers() {
        // Providers hate every query (preference -1) but a load-blind
        // capacity allocator keeps assigning work to the least loaded one, so
        // provider satisfaction collapses and departures follow.
        let mut config = base_config(400.0);
        config.departure = DeparturePolicy::Autonomous {
            consumer_threshold: 0.0, // consumers never leave in this test
            provider_threshold: 0.35,
            min_interactions: 5,
        };
        config.system = SystemConfig::default().with_knbest(4, 2);

        let providers = (100..110).map(|i| {
            ProviderSpec::new(
                ProviderId::new(i),
                CapabilitySet::singleton(Capability::new(0)),
                2.0,
                ProviderProfile::new(
                    sbqa_core::intention::ProviderIntentionStrategy::Preference,
                    Intention::new(-1.0),
                ),
            )
        });
        let report = SimulationBuilder::new(config.clone())
            .allocator(Box::new(sbqa_baselines::CapacityAllocator::new()))
            .consumers([consumer(1, 2.0)])
            .providers(providers)
            .run()
            .unwrap();

        assert!(
            report.participants.final_providers < report.participants.initial_providers,
            "expected departures, kept {} of {}",
            report.participants.final_providers,
            report.participants.initial_providers
        );
        assert!(report.capacity_retention < 1.0);
    }

    #[test]
    fn departed_participants_keep_their_rows_and_are_not_evaluated_again() {
        let mut config = base_config(100.0);
        config.departure = DeparturePolicy::Autonomous {
            consumer_threshold: 0.5,
            provider_threshold: 0.35,
            min_interactions: 5,
        };
        let mut sim = SimulationBuilder::new(config.clone())
            .allocator(sbqa(&config))
            .consumers([consumer(1, 1.0)])
            .providers([provider(100, 1.0), provider(101, 1.0)])
            .build()
            .unwrap();
        // Twenty mediations both sides hate: consumer 1 and whichever
        // providers it was shown fall to satisfaction 0.
        let hated = sbqa_core::StaticIntentions::new()
            .with_defaults(Intention::new(-1.0), Intention::new(-1.0));
        let queries: Vec<Query> = (0..20)
            .map(|i| {
                Query::builder(QueryId::new(i), ConsumerId::new(1), Capability::new(0)).build()
            })
            .collect();
        sim.service.submit_batch(&queries, &hated, |_, _, _| {});

        let first = VirtualTime::new(5.0);
        sim.clock = first;
        sim.on_sample();
        let departed = |sim: &Simulation| {
            let consumer = sim.consumers[&ConsumerId::new(1)].departed_at;
            let providers: Vec<_> = sim.providers.values().map(|p| p.departed_at).collect();
            (consumer, providers)
        };
        assert_eq!(departed(&sim), (Some(first), vec![Some(first); 2]));
        // The rows stay, still below the thresholds; the next tick skips
        // the leavers instead of departing them again.
        let registry = sim.service.satisfaction(0);
        assert!(registry.consumer(ConsumerId::new(1)).is_some());
        assert_eq!(registry.provider_count(), 2);
        sim.clock = VirtualTime::new(10.0);
        sim.on_sample();
        assert_eq!(departed(&sim), (Some(first), vec![Some(first); 2]));
        // Snapshots read the online participants only.
        let latest = sim.analysis.latest().unwrap();
        assert_eq!((latest.consumers.count, latest.providers.count), (0, 0));
    }

    #[test]
    fn debug_names_the_technique() {
        let config = base_config(10.0);
        let sim = SimulationBuilder::new(config.clone())
            .allocator(sbqa(&config))
            .consumers([consumer(1, 1.0)])
            .providers([provider(100, 1.0)])
            .build()
            .unwrap();
        assert!(format!("{sim:?}").contains("SbQA"));
    }
}
