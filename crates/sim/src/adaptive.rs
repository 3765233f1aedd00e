//! Open-loop adaptive-`kn` experiment runner.
//!
//! The paper's Scenario 6 sweeps the KnBest exploration width `kn`
//! statically; the adaptive-`kn` controller (`sbqa_core::adaptive`) is
//! supposed to make that sweep unnecessary by moving `kn` at runtime from
//! the observed satisfaction gap. This module builds the closed feedback
//! loop that claim needs to be *tested* against, on top of the open-loop
//! stream vocabulary of [`sharded`](crate::sharded):
//!
//! * **persistent intentions** ([`AdaptiveOracle`]): every
//!   (consumer, provider) pair has a fixed mutual preference (a pure seeded
//!   hash), so intention-driven allocation concentrates work on genuinely
//!   preferred providers instead of washing out across random per-query
//!   preferences;
//! * **load feedback**: each allocation adds the query's service time to the
//!   winner's backlog, backlogs drain in virtual time, and providers blend
//!   their preference with their current load
//!   ([`load_to_intention`]) — an
//!   overloaded provider performs queries it now dislikes, which is exactly
//!   what drags its Definition-2 satisfaction (and with it the gap signal)
//!   down;
//! * **a load step** ([`LoadStep`]): the arrival rate multiplies mid-stream,
//!   pushing the system past comfortable capacity;
//! * **dissatisfaction departures**: providers whose long-run satisfaction
//!   falls below a threshold leave for good — the paper's central premise
//!   that capacity follows satisfaction.
//!
//! Under this loop a *large static* `kn` buys high consumer satisfaction in
//! calm conditions but concentrates load on preferred providers once the
//! step hits, driving their satisfaction under the departure threshold —
//! capacity leaves precisely when it is scarcest. A *small static* `kn`
//! load-balances safely but leaves consumer satisfaction on the table. The
//! adaptive controller rides the wide setting while the gap is healthy and
//! retreats when it widens; `scenario_adaptive` measures all of them on the
//! same stream.
//!
//! Everything is deterministic per seed: the stream, the oracle, the load
//! mirror (providers iterated in spec order) and the departure rule consume
//! no wall-clock state.

use std::cell::RefCell;
use std::collections::HashMap;

use sbqa_core::allocator::IntentionOracle;
use sbqa_core::intention::load_to_intention;
use sbqa_core::{BatchReport, KnAdjustment, KnControllerConfig, SystemConfig};
use sbqa_metrics::TimeSeries;
use sbqa_service::ShardedMediator;
use sbqa_types::{IdGenerator, Intention, ProviderId, Query, SbqaResult, VirtualTime};

use crate::consumer::ConsumerSpec;
use crate::provider::ProviderSpec;
use crate::rng::SimRng;
use crate::sharded::generate_query_stream;
use crate::workload::WorkloadModel;

/// A mid-stream arrival-rate step: after `at_fraction` of the stream has
/// been generated, every consumer's arrival rate is multiplied by
/// `rate_multiplier`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStep {
    /// Fraction of the stream (in `[0, 1]`) generated at the base rates.
    pub at_fraction: f64,
    /// Rate multiplier applied from that point on (≥ 1 steps the load up).
    pub rate_multiplier: f64,
}

/// Generates the open-loop stream of [`generate_query_stream`] with an
/// optional mid-stream [`LoadStep`].
///
/// The step divides the sampled inter-arrival delays by the multiplier
/// rather than re-parameterising the distribution, so per-event RNG
/// consumption is unchanged; the post-step interleaving of consumers can
/// still differ from the unstepped stream (denser arrivals pop in a
/// different merge order). Techniques compared on the *same* generated
/// stream see byte-identical queries either way.
#[must_use]
pub fn generate_stepped_stream(
    consumers: &[ConsumerSpec],
    workload: &WorkloadModel,
    count: usize,
    seed: u64,
    step: Option<LoadStep>,
) -> Vec<Query> {
    let Some(step) = step else {
        return generate_query_stream(consumers, workload, count, seed);
    };
    assert!(
        !consumers.is_empty(),
        "a stream needs at least one consumer"
    );
    let switch_at = ((count as f64) * step.at_fraction.clamp(0.0, 1.0)) as usize;
    let multiplier = if step.rate_multiplier.is_finite() && step.rate_multiplier > 0.0 {
        step.rate_multiplier
    } else {
        1.0
    };

    // Mirror generate_query_stream's RNG split exactly.
    let master = SimRng::new(seed);
    let mut arrival_rng = master.derive(1);
    let mut workload_rng = master.derive(3);
    let mut ids = IdGenerator::new();

    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(VirtualTime, usize)>> =
        std::collections::BinaryHeap::new();
    for (position, spec) in consumers.iter().enumerate() {
        let delay = workload.next_arrival(spec, &mut arrival_rng);
        heap.push(std::cmp::Reverse((VirtualTime::ZERO + delay, position)));
    }

    let mut stream = Vec::with_capacity(count);
    while stream.len() < count {
        let std::cmp::Reverse((at, position)) = heap.pop().expect("heap holds every consumer");
        let spec = &consumers[position];
        stream.push(workload.next_query(ids.next_query(), spec, at, &mut workload_rng));
        let mut delay = workload.next_arrival(spec, &mut arrival_rng);
        if stream.len() >= switch_at {
            delay = sbqa_types::Duration::new(delay.seconds() / multiplier);
        }
        heap.push(std::cmp::Reverse((at + delay, position)));
    }
    stream
}

/// A deterministic oracle with **persistent mutual preferences** and
/// **load-blended provider intentions**.
///
/// * The consumer's intention towards a provider is a pure seeded hash of
///   `(consumer, provider)` in `[-1, 1]` — the same pair always answers the
///   same value, so preferences concentrate rather than wash out.
/// * The provider's intention blends its persistent preference for the
///   issuing consumer with a load term
///   ([`load_to_intention`]) read
///   from the experiment's utilization mirror: an overloaded provider wants
///   nothing, however much it likes the consumer.
///
/// The utilization mirror sits behind a [`RefCell`], which keeps the oracle
/// single-threaded — it drives the synchronous [`ShardedMediator`] facade
/// (the right front for satisfaction experiments, where wall-clock
/// interleaving is noise).
#[derive(Debug)]
pub struct AdaptiveOracle {
    seed: u64,
    /// Weight of the persistent preference in the provider blend, in
    /// `[0, 1]`; the remainder is the load term.
    preference_weight: f64,
    /// Backlog (virtual seconds) a provider considers acceptable.
    acceptable_backlog: f64,
    // sbqa-lint: allow(hash-collection, "per-provider utilization point lookups; never iterated")
    utilization: RefCell<HashMap<ProviderId, f64>>,
}

impl AdaptiveOracle {
    /// Creates an oracle for the given seed and provider blend.
    #[must_use]
    pub fn new(seed: u64, preference_weight: f64, acceptable_backlog: f64) -> Self {
        Self {
            seed,
            preference_weight: preference_weight.clamp(0.0, 1.0),
            acceptable_backlog: if acceptable_backlog.is_finite() && acceptable_backlog > 0.0 {
                acceptable_backlog
            } else {
                1.0
            },
            // sbqa-lint: allow(hash-collection, "per-provider utilization point lookups; never iterated")
            utilization: RefCell::new(HashMap::new()),
        }
    }

    /// Mirrors a provider's current backlog (virtual seconds of queued
    /// work) into the oracle.
    pub fn set_utilization(&self, provider: ProviderId, backlog_seconds: f64) {
        self.utilization
            .borrow_mut()
            .insert(provider, backlog_seconds.max(0.0));
    }

    fn hash_unit(&self, salt: u64, a: u64, b: u64) -> f64 {
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
        ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }
}

impl IntentionOracle for AdaptiveOracle {
    fn consumer_intention(&self, query: &Query, provider: ProviderId) -> Intention {
        Intention::new(self.hash_unit(0xC0A5, query.consumer.raw(), provider.raw()))
    }

    fn provider_intention(&self, provider: ProviderId, query: &Query) -> Intention {
        let preference =
            Intention::new(self.hash_unit(0xF00D, provider.raw(), query.consumer.raw()));
        let backlog = self
            .utilization
            .borrow()
            .get(&provider)
            .copied()
            .unwrap_or(0.0);
        let load = load_to_intention(backlog, self.acceptable_backlog);
        preference.blend(load, 1.0 - self.preference_weight)
    }
}

/// Configuration of one adaptive-`kn` experiment case.
#[derive(Debug, Clone)]
pub struct AdaptiveRunConfig {
    /// Number of mediator shards (1 compares against the paper's single
    /// logical mediator).
    pub shards: usize,
    /// Queries per batch: the adaptation cadence, the load-mirror refresh
    /// interval and the departure-check granularity.
    pub batch: usize,
    /// Seed for routing, allocator RNG and the oracle.
    pub seed: u64,
    /// The SbQA configuration (its `knbest_kn` is the *static* width the
    /// case runs with when `adaptive` is `None`).
    pub system: SystemConfig,
    /// Adaptive-`kn` controller knobs; `None` runs the static width.
    pub adaptive: Option<KnControllerConfig>,
    /// Weight of persistent preference vs load in provider intentions.
    pub preference_weight: f64,
    /// Backlog (virtual seconds) providers consider acceptable.
    pub acceptable_backlog: f64,
    /// Providers whose long-run satisfaction drops below this threshold
    /// depart for good (0 disables departures).
    pub departure_threshold: f64,
    /// Minimum proposals a provider must have seen before the departure
    /// rule may fire (shields cold-start windows).
    pub min_observations: usize,
    /// Run the departure rule every this many batches.
    pub departure_check_every: usize,
}

impl AdaptiveRunConfig {
    /// A baseline configuration around a system config and seed: single
    /// shard, batches of 128, preference-dominated providers, departures at
    /// the paper's provider threshold 0.35.
    #[must_use]
    pub fn new(system: SystemConfig, seed: u64) -> Self {
        Self {
            shards: 1,
            batch: 128,
            seed,
            system,
            adaptive: None,
            preference_weight: 0.6,
            acceptable_backlog: 3.0,
            departure_threshold: 0.35,
            min_observations: 20,
            departure_check_every: 4,
        }
    }

    /// Builder-style enablement of the adaptive controller.
    #[must_use]
    pub fn with_adaptive(mut self, controller: KnControllerConfig) -> Self {
        self.adaptive = Some(controller);
        self
    }

    /// Builder-style static-width override (`kn`, keeping `k`).
    #[must_use]
    pub fn with_static_kn(mut self, kn: usize) -> Self {
        self.system = self.system.clone().with_knbest(self.system.knbest_k, kn);
        self.adaptive = None;
        self
    }
}

/// The measured outcome of one experiment case.
#[derive(Debug, Clone)]
pub struct AdaptiveRunReport {
    /// Mediated/starved tallies over the whole stream.
    pub total: BatchReport,
    /// Mean per-query consumer satisfaction `δs(c, q)` over **every** query
    /// of the stream — starved queries contribute 0, exactly as
    /// Definition 1 treats missing results. This is the aggregate the
    /// static-vs-adaptive comparison ranks by.
    pub mean_query_satisfaction: f64,
    /// The same mean restricted to queries issued at or after the load
    /// step's virtual switch time (0 when no query falls there).
    pub post_step_satisfaction: f64,
    /// Providers that departed out of dissatisfaction.
    pub departed: usize,
    /// Per-batch mean `δs(c, q)` over virtual time.
    pub satisfaction_series: TimeSeries,
    /// Mean exploration width over virtual time (constant for static runs).
    pub kn_series: TimeSeries,
    /// Mean gap EWMA across shards and classes over virtual time (empty for
    /// static runs — the signal lives in the controller).
    pub gap_series: TimeSeries,
    /// Every shard's controller trajectory (empty for static runs).
    pub kn_trails: Vec<Vec<KnAdjustment>>,
    /// Mean width across classes and shards at the end of the run.
    pub final_mean_kn: f64,
}

/// Runs one case: registers the population, drives the stream through a
/// synchronous [`ShardedMediator`] batch by batch, mirroring allocation
/// backlog into provider load (and intentions) between batches and applying
/// the dissatisfaction-departure rule.
///
/// `step_at` is the virtual time of the load step (used only to split the
/// reported satisfaction means); pass `None` when the stream has no step.
pub fn run_adaptive_case(
    config: &AdaptiveRunConfig,
    providers: &[ProviderSpec],
    consumers: &[ConsumerSpec],
    stream: &[Query],
    step_at: Option<VirtualTime>,
) -> SbqaResult<AdaptiveRunReport> {
    let mut service = ShardedMediator::sbqa(config.system.clone(), config.seed, config.shards)?;
    for spec in providers {
        service.register_provider(spec.id, spec.capabilities, spec.capacity);
    }
    for spec in consumers {
        service.register_consumer(spec.id);
    }
    if let Some(controller) = config.adaptive {
        service.enable_adaptive_kn(controller)?;
    }

    let oracle = AdaptiveOracle::new(
        config.seed,
        config.preference_weight,
        config.acceptable_backlog,
    );

    // The load mirror, aligned with `providers` (spec order — the
    // deterministic iteration order for every per-provider sweep).
    // sbqa-lint: allow(hash-collection, "point lookups only; sweeps iterate the providers spec Vec, not this map")
    let index_of: HashMap<ProviderId, usize> = providers
        .iter()
        .enumerate()
        .map(|(i, spec)| (spec.id, i))
        .collect();
    let mut backlog = vec![0.0f64; providers.len()];
    let mut departed = vec![false; providers.len()];
    let mut departed_count = 0usize;
    let mut last_drain = VirtualTime::ZERO;

    let mut total = BatchReport::default();
    let mut satisfaction_sum = 0.0;
    let mut satisfaction_count = 0usize;
    let mut post_step_sum = 0.0;
    let mut post_step_count = 0usize;
    let mut satisfaction_series = TimeSeries::new("consumer_query_satisfaction");
    let mut kn_series = TimeSeries::new("mean_kn");
    let mut gap_series = TimeSeries::new("gap_ewma");
    let mut consumer_view: Vec<(ProviderId, Intention)> = Vec::new();

    for (batch_index, batch) in stream.chunks(config.batch.max(1)).enumerate() {
        let now = batch.first().map_or(last_drain, |q| q.issued_at);

        // 1. Drain backlogs for the elapsed virtual time and refresh the
        //    mirror on both sides (oracle + registries).
        let elapsed = (now - last_drain).seconds().max(0.0);
        last_drain = now;
        for (i, spec) in providers.iter().enumerate() {
            if departed[i] {
                continue;
            }
            backlog[i] = (backlog[i] - elapsed).max(0.0);
            oracle.set_utilization(spec.id, backlog[i]);
            service.update_provider_load(spec.id, backlog[i], backlog[i].ceil() as usize)?;
        }

        // 2. Mediate the batch, crediting winners with the query's service
        //    time and scoring every query's Definition-1 satisfaction.
        let mut batch_satisfaction = 0.0;
        let report = service.submit_batch(batch, &oracle, |_, query, result| {
            let mut query_satisfaction = 0.0;
            if let Ok(decision) = result {
                decision.consumer_view_into(&mut consumer_view);
                let gained: f64 = consumer_view
                    .iter()
                    .map(|(_, intention)| intention.to_unit().value())
                    .sum();
                query_satisfaction = gained / query.replication.max(1) as f64;
                for provider in &decision.selected {
                    if let Some(&i) = index_of.get(provider) {
                        backlog[i] +=
                            query.work_units / providers[i].capacity.max(f64::MIN_POSITIVE);
                    }
                }
            }
            batch_satisfaction += query_satisfaction;
            satisfaction_sum += query_satisfaction;
            satisfaction_count += 1;
            if step_at.is_some_and(|at| query.issued_at >= at) {
                post_step_sum += query_satisfaction;
                post_step_count += 1;
            }
        });
        total.merge(&report);

        if !batch.is_empty() {
            satisfaction_series.push(now, batch_satisfaction / batch.len() as f64);
            kn_series.push(now, mean_kn(&service, &config.system));
            if let Some(gap) = mean_gap_ewma(&service) {
                gap_series.push(now, gap);
            }
        }

        // 3. Dissatisfaction departures, checked at a fixed batch cadence.
        if config.departure_threshold > 0.0
            && (batch_index + 1) % config.departure_check_every.max(1) == 0
        {
            for (i, spec) in providers.iter().enumerate() {
                if departed[i] {
                    continue;
                }
                let shard = service.router().shard_of_provider(spec.id);
                let tracker = service.satisfaction(shard).provider(spec.id);
                let Some(tracker) = tracker else { continue };
                if tracker.observed_proposals() >= config.min_observations
                    && tracker.satisfaction().value() < config.departure_threshold
                {
                    departed[i] = true;
                    departed_count += 1;
                    service.set_provider_online(spec.id, false)?;
                }
            }
        }
    }

    let final_mean_kn = mean_kn(&service, &config.system);
    let kn_trails = service
        .shards()
        .map(sbqa_service::MediatorShard::kn_trail)
        .collect();

    Ok(AdaptiveRunReport {
        total,
        mean_query_satisfaction: if satisfaction_count == 0 {
            0.0
        } else {
            satisfaction_sum / satisfaction_count as f64
        },
        post_step_satisfaction: if post_step_count == 0 {
            0.0
        } else {
            post_step_sum / post_step_count as f64
        },
        departed: departed_count,
        satisfaction_series,
        kn_series,
        gap_series,
        kn_trails,
        final_mean_kn,
    })
}

/// Mean gap EWMA across every shard's adapted classes, if any controller
/// has folded at least one round.
fn mean_gap_ewma(service: &ShardedMediator) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for shard in service.shards() {
        if let Some(controller) = shard.mediator().adaptive_kn() {
            for (class, _) in controller.class_widths() {
                if let Some(ewma) = controller.gap_ewma(class) {
                    sum += ewma;
                    count += 1;
                }
            }
        }
    }
    (count > 0).then(|| sum / count as f64)
}

/// Mean exploration width across every shard's contacted classes; the
/// static `knbest_kn` when no controller has observed anything yet.
fn mean_kn(service: &ShardedMediator, system: &SystemConfig) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for shard in service.shards() {
        if let Some(controller) = shard.mediator().adaptive_kn() {
            for (_, kn) in controller.class_widths() {
                sum += kn as f64;
                count += 1;
            }
        }
    }
    if count == 0 {
        return system.knbest_kn as f64;
    }
    sum / count as f64
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
                    Capability::new((c % 2) as u8),
                    4.0,
                    0.5,
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
                    CapabilitySet::singleton(Capability::new((p % 2) as u8)),
                    1.0,
                    ProviderProfile::default(),
                )
            })
            .collect()
    }

    #[test]
    fn stepped_stream_without_step_matches_the_plain_generator() {
        let consumers = consumers(3);
        let workload = WorkloadModel::default();
        let plain = generate_query_stream(&consumers, &workload, 300, 11);
        let stepped = generate_stepped_stream(&consumers, &workload, 300, 11, None);
        assert_eq!(plain, stepped);
    }

    #[test]
    fn load_step_compresses_arrivals_after_the_switch() {
        let consumers = consumers(3);
        let workload = WorkloadModel::default();
        let step = LoadStep {
            at_fraction: 0.5,
            rate_multiplier: 4.0,
        };
        let stream = generate_stepped_stream(&consumers, &workload, 2_000, 7, Some(step));
        assert_eq!(stream.len(), 2_000);
        // Ids are minted in arrival order, like the unstepped generator.
        assert!(stream
            .iter()
            .enumerate()
            .all(|(i, q)| q.id == QueryId::new(i as u64)));
        // The second half arrives ~4x denser.
        let span =
            |qs: &[Query]| (qs.last().unwrap().issued_at - qs.first().unwrap().issued_at).seconds();
        let first = span(&stream[..1_000]);
        let second = span(&stream[1_000..]);
        assert!(
            second < first / 2.0,
            "post-step half spans {second}s vs {first}s before"
        );
        // Virtual time still advances monotonically.
        assert!(stream.windows(2).all(|w| w[0].issued_at <= w[1].issued_at));
    }

    #[test]
    fn oracle_preferences_are_persistent_and_load_erodes_willingness() {
        let oracle = AdaptiveOracle::new(5, 0.5, 2.0);
        let q = |c: u64| {
            Query::builder(
                QueryId::new(c * 100),
                ConsumerId::new(c),
                Capability::new(0),
            )
            .build()
        };
        let p = ProviderId::new(9);

        // Persistent: two different queries from the same consumer see the
        // same mutual preference.
        assert_eq!(
            oracle.consumer_intention(&q(1), p),
            oracle.consumer_intention(
                &Query::builder(QueryId::new(777), ConsumerId::new(1), Capability::new(0)).build(),
                p
            )
        );
        let idle = oracle.provider_intention(p, &q(1));
        oracle.set_utilization(p, 1e9);
        let slammed = oracle.provider_intention(p, &q(1));
        assert!(slammed < idle, "load must erode willingness");
        // With weight 0.5 the load term has real authority: the drop is at
        // least half the idle-vs-refusing swing.
        assert!((idle.value() - slammed.value()) > 0.4);
    }

    #[test]
    fn adaptive_case_runs_deterministically() {
        let providers = providers(24);
        let consumers = consumers(4);
        let workload = WorkloadModel::default();
        let stream = generate_stepped_stream(
            &consumers,
            &workload,
            600,
            13,
            Some(LoadStep {
                at_fraction: 0.5,
                rate_multiplier: 3.0,
            }),
        );
        let step_at = Some(stream[300].issued_at);
        let config = AdaptiveRunConfig::new(SystemConfig::default().with_knbest(12, 4), 13)
            .with_adaptive(KnControllerConfig {
                initial_kn: 4,
                min_kn: 2,
                max_kn: 10,
                ..KnControllerConfig::default()
            });

        let a = run_adaptive_case(&config, &providers, &consumers, &stream, step_at).unwrap();
        let b = run_adaptive_case(&config, &providers, &consumers, &stream, step_at).unwrap();
        assert_eq!(a.total, b.total);
        assert_eq!(a.mean_query_satisfaction, b.mean_query_satisfaction);
        assert_eq!(a.departed, b.departed);
        assert_eq!(a.kn_trails, b.kn_trails);
        assert_eq!(a.final_mean_kn, b.final_mean_kn);

        assert_eq!(a.total.submitted(), 600);
        assert!(a.mean_query_satisfaction > 0.0);
        assert_eq!(a.satisfaction_series.len(), a.kn_series.len());
        assert_eq!(a.kn_trails.len(), 1, "one trail per shard");
    }

    #[test]
    fn static_case_keeps_kn_flat_and_records_no_trail() {
        let providers = providers(24);
        let consumers = consumers(4);
        let stream = generate_stepped_stream(&consumers, &WorkloadModel::default(), 400, 21, None);
        let config = AdaptiveRunConfig::new(SystemConfig::default().with_knbest(12, 6), 21);
        let report = run_adaptive_case(&config, &providers, &consumers, &stream, None).unwrap();
        assert!(report.kn_trails.iter().all(Vec::is_empty));
        assert_eq!(report.final_mean_kn, 6.0);
        assert!(report
            .kn_series
            .points()
            .iter()
            .all(|p| (p.value - 6.0).abs() < 1e-12));
        assert_eq!(report.post_step_satisfaction, 0.0, "no step configured");
    }

    #[test]
    fn harsh_departure_threshold_sheds_providers() {
        let providers = providers(16);
        let consumers = consumers(4);
        let stream = generate_stepped_stream(&consumers, &WorkloadModel::default(), 1_200, 3, None);
        let mut config = AdaptiveRunConfig::new(SystemConfig::default().with_knbest(12, 8), 3);
        config.departure_threshold = 0.9; // nearly everyone is "dissatisfied"
        config.min_observations = 10;
        let report = run_adaptive_case(&config, &providers, &consumers, &stream, None).unwrap();
        assert!(report.departed > 0, "harsh threshold must shed providers");
        // Departures never exceed the population.
        assert!(report.departed <= 16);
    }
}
