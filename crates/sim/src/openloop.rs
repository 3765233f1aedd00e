//! The open-loop experiment driver: one declared run, one loop.
//!
//! The event-driven loop ([`SimulationBuilder`](crate::SimulationBuilder))
//! measures the *system* (satisfaction, departures, response times in
//! virtual seconds) around the service at one shard. This module measures
//! the *mediation service itself*: a deterministic arrival stream
//! ([`generate_query_stream`](crate::generate_query_stream)) is cut into
//! batches and driven through a [`ShardedMediator`] that a [`ServiceRun`]
//! declares — how many shards, inline or behind shard threads, with or
//! without a degradation ladder, standbys and adaptive `kn`, and what happens
//! to it on the way ([`Timeline`]: shard crashes, live resizes).
//!
//! [`run`] is the only loop. At every batch boundary, in this order:
//!
//! 1. the timeline's events whose time is `≤` the batch's first `issued_at`
//!    fire — [`RunEvent::Crash`] kills a shard's mediator and promotes its
//!    standby, [`RunEvent::Resize`] re-partitions the population live and
//!    arms the new shards like the first ones;
//! 2. the [`World`]'s `before_batch` runs — the experiment's own hand on the
//!    registry (churn, load feedback);
//! 3. the batch is driven: inline through
//!    [`ShardedMediator::try_submit_batch`] (then the world's `after_batch`
//!    sees its outcomes), or enqueued to one [`MediationService`].
//!
//! A threaded run keeps its shard threads across boundaries and **quiesces**
//! them (`finish_with_shards` → `from_shards`) only at a boundary that has an
//! event to fire or a world step to run; everything that touches the
//! front-end therefore happens between batches, on the caller's thread.
//!
//! Two worlds cover the experiments: [`HashWorld`] (a stateless hash oracle
//! plus seeded registry churn — sharding, overload and failover runs) and
//! [`LoadFeedback`] (persistent preferences, allocation backlog mirrored into
//! load, dissatisfaction departures by the closed loop's
//! [`DeparturePolicy`] — the adaptive-`kn` comparison; inline only).
//! Everything is a pure function of `(run, population, stream)`:
//! crashes and resizes are scheduled in virtual time, ladders read the
//! stream's `issued_at`, and the wall clock only stamps latency samples.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sbqa_core::allocator::IntentionOracle;
use sbqa_core::{DegradationConfig, KnControllerConfig, SystemConfig};
use sbqa_metrics::TimeSeries;
use sbqa_service::failover::ReplayReport;
use sbqa_service::{IngestConfig, MediationService, OutcomeRecord, ServiceReport, ShardedMediator};
use sbqa_types::{Query, SbqaError, SbqaResult, VirtualTime};

use crate::config::DeparturePolicy;
use crate::consumer::ConsumerSpec;
use crate::oracle::{mix, AdaptiveOracle, HashIntentions};
use crate::provider::ProviderSpec;

/// Something that happens to the service between two batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEvent {
    /// Kill this shard's mediator and promote its standby in place (the
    /// index wraps into the service's shard count). Needs
    /// [`ServiceRun::replicate`].
    Crash {
        /// The shard to crash.
        shard: usize,
    },
    /// Re-partition the population across this many shards
    /// ([`ShardedMediator::resize_sbqa`]) and arm them like the first ones.
    Resize {
        /// The new shard count.
        shards: usize,
    },
}

/// The events of a run, ordered by virtual time (same-time events keep their
/// declaration order). Each fires at the first batch boundary whose earliest
/// query was issued at or after its time; one scheduled past the stream's
/// end never fires.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    events: Vec<(VirtualTime, RunEvent)>,
}

impl Timeline {
    /// An empty timeline (the uninterrupted run).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at virtual time `at`.
    #[must_use]
    pub fn at(mut self, at: VirtualTime, event: RunEvent) -> Self {
        let position = self.events.partition_point(|&(time, _)| time <= at);
        self.events.insert(position, (at, event));
        self
    }

    /// The scheduled events, in firing order.
    #[must_use]
    pub fn events(&self) -> &[(VirtualTime, RunEvent)] {
        &self.events
    }
}

/// The declaration of one open-loop run.
#[derive(Debug, Clone)]
pub struct ServiceRun {
    /// Number of mediator shards the run starts with.
    pub shards: usize,
    /// Queries per batch: the producer's chunk, the adaptation and checkpoint
    /// cadence, and the granularity of the timeline and the world's steps.
    /// Decisions must not depend on it; the digest checks do.
    pub batch: usize,
    /// Seed for routing and the per-shard allocators.
    pub seed: u64,
    /// The SbQA configuration every shard runs.
    pub system: SystemConfig,
    /// `Some(ring capacity)` drives the batches through shard threads behind
    /// bounded ingest rings; `None` drives them inline.
    pub threaded: Option<usize>,
    /// Arms every shard with a degradation ladder.
    pub ladder: Option<DegradationConfig>,
    /// Arms a standby behind every shard, checkpointed every this many
    /// batches (0 = never).
    pub replicate: Option<u64>,
    /// Arms every shard with an adaptive-`kn` controller (which replication
    /// refuses).
    pub adaptive_kn: Option<KnControllerConfig>,
    /// What happens to the service on the way.
    pub timeline: Timeline,
}

impl ServiceRun {
    /// One inline shard, batches of 64, nothing armed, nothing scheduled.
    #[must_use]
    pub fn new(system: SystemConfig, seed: u64) -> Self {
        Self {
            shards: 1,
            batch: 64,
            seed,
            system,
            threaded: None,
            ladder: None,
            replicate: None,
            adaptive_kn: None,
            timeline: Timeline::new(),
        }
    }
}

/// What a [`World`] is shown at a batch boundary.
#[derive(Debug, Clone, Copy)]
// sbqa-lint: allow(dead-pub, "the argument of the public World::before_batch hook; worlds read it unnamed")
pub struct Boundary<'a> {
    /// The run being driven.
    pub run: &'a ServiceRun,
    /// The registered population.
    pub providers: &'a [ProviderSpec],
    /// The batch's position in the stream.
    pub index: usize,
    /// The batch about to be (or just) driven; never empty.
    pub batch: &'a [Query],
}

/// The experiment around the service: whose intentions the mediations
/// consult, and what happens to the registry between batches.
pub trait World {
    /// The oracle every mediation — and every promotion's replay — consults.
    fn oracle(&self) -> &dyn IntentionOracle;

    /// The same oracle for shard threads. `None` (the default) keeps the
    /// world inline: [`run`] refuses to drive it threaded.
    fn shared_oracle(&self) -> Option<Arc<dyn IntentionOracle + Send + Sync>> {
        None
    }

    /// `false` when [`before_batch`](Self::before_batch) has nothing to do,
    /// which spares a threaded run the quiesce at every boundary.
    fn steps(&self) -> bool {
        true
    }

    /// Runs before the batch is driven, with the shards at rest.
    ///
    /// # Errors
    ///
    /// Whatever the world's registry mutations return.
    fn before_batch(&mut self, service: &mut ShardedMediator, at: &Boundary<'_>) -> SbqaResult<()>;

    /// Runs after an **inline** batch with its outcomes, aligned with
    /// `at.batch` (a threaded run has none to show before it quiesces).
    ///
    /// # Errors
    ///
    /// Whatever the world's registry mutations return.
    fn after_batch(
        &mut self,
        _service: &mut ShardedMediator,
        _at: &Boundary<'_>,
        _outcomes: &[OutcomeRecord],
    ) -> SbqaResult<()> {
        Ok(())
    }
}

/// The stateless world of the service experiments: [`HashIntentions`] on
/// both sides and, between batches, `churn_per_batch` registry mutations
/// (load updates and online flips) that are a pure hash of `(seed, batch
/// index)` — so a crashed run and an uninterrupted one mutate their
/// registries identically, and the replication stream carries real deltas.
#[derive(Debug, Clone, Copy)]
pub struct HashWorld {
    /// Registry mutations injected before every batch.
    pub churn_per_batch: usize,
    seed: u64,
    oracle: HashIntentions,
}

impl HashWorld {
    /// The world of `seed`, with `churn_per_batch` mutations per boundary.
    #[must_use]
    pub fn new(seed: u64, churn_per_batch: usize) -> Self {
        Self {
            churn_per_batch,
            seed,
            oracle: HashIntentions::new(seed),
        }
    }
}

impl World for HashWorld {
    fn oracle(&self) -> &dyn IntentionOracle {
        &self.oracle
    }

    fn shared_oracle(&self) -> Option<Arc<dyn IntentionOracle + Send + Sync>> {
        Some(Arc::new(self.oracle))
    }

    fn steps(&self) -> bool {
        self.churn_per_batch > 0
    }

    fn before_batch(&mut self, service: &mut ShardedMediator, at: &Boundary<'_>) -> SbqaResult<()> {
        if at.providers.is_empty() {
            return Ok(());
        }
        for step in 0..self.churn_per_batch {
            let h = mix(
                self.seed,
                0x6368_7572_6E21_0000,
                at.index as u64,
                step as u64,
            );
            let spec = &at.providers[(h as usize) % at.providers.len()];
            if h & 0b100 == 0 {
                let utilization = ((h >> 8) & 0xFF) as f64 / 32.0;
                let queue_length = ((h >> 16) & 0x7) as usize;
                service.update_provider_load(spec.id, utilization, queue_length)?;
            } else {
                service.set_provider_online(spec.id, h & 1 == 0)?;
            }
        }
        Ok(())
    }
}

/// Batches between two runs of [`LoadFeedback`]'s departure rule.
const DEPARTURE_CHECK_EVERY: usize = 4;

/// A running mean.
#[derive(Debug, Clone, Copy, Default)]
struct Mean {
    sum: f64,
    count: usize,
}

impl Mean {
    fn add(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }

    fn value(self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The closed feedback loop the adaptive-`kn` claim is tested against.
///
/// The paper's Scenario 6 sweeps the KnBest exploration width `kn`
/// statically; the controller (`sbqa_core::adaptive`) is supposed to make
/// that sweep unnecessary. This world makes the choice of `kn`
/// consequential:
///
/// * **persistent intentions** ([`AdaptiveOracle`]): intention-driven
///   allocation concentrates work on genuinely preferred providers;
/// * **load feedback**: each allocation adds the query's service time to the
///   winner's backlog, backlogs drain in virtual time, and before every batch
///   they are mirrored into the registry and the oracle — an overloaded
///   provider performs queries it now dislikes, which drags its Definition-2
///   satisfaction (and with it the gap signal) down;
/// * **dissatisfaction departures**: every fourth batch, providers that
///   [`departure`](Self::departure) says leave go offline for good — the
///   paper's premise that capacity follows satisfaction.
///
/// Under a load step a *large static* `kn` buys consumer satisfaction in calm
/// conditions but drives preferred providers out exactly when capacity is
/// scarcest; a *small static* `kn` balances safely but leaves satisfaction on
/// the table. After the run the world holds what the comparison ranks by.
#[derive(Debug, Clone)]
pub struct LoadFeedback {
    /// The closed loop's departure rule, applied to providers
    /// ([`DeparturePolicy::provider_leaves`]); the stream's consumers never
    /// stop issuing. [`DeparturePolicy::Captive`] disables departures.
    pub departure: DeparturePolicy,
    /// Virtual time of the stream's load step, if it has one: splits off
    /// [`post_step_satisfaction`](Self::post_step_satisfaction).
    pub step_at: Option<VirtualTime>,
    /// Per-batch mean `δs(c, q)` over virtual time.
    pub satisfaction_series: TimeSeries,
    /// Mean exploration width over virtual time (constant for static runs).
    pub kn_series: TimeSeries,
    /// Mean gap EWMA across shards and classes over virtual time (empty for
    /// static runs — the signal lives in the controller).
    pub gap_series: TimeSeries,
    oracle: AdaptiveOracle,
    /// Queued work per provider in virtual seconds, aligned with the
    /// population like the oracle's mirror — which lags it by design: the
    /// mirror is refreshed before a batch, the backlog grows during it.
    backlog: Vec<f64>,
    departed: Vec<bool>,
    last_drain: VirtualTime,
    whole_run: Mean,
    post_step: Mean,
}

impl LoadFeedback {
    /// A world around `oracle` (and the population it was built over):
    /// departures at the paper's provider threshold 0.35 after 20
    /// proposals, no load step.
    #[must_use]
    pub fn new(oracle: AdaptiveOracle) -> Self {
        let population = oracle.population();
        Self {
            departure: DeparturePolicy::Autonomous {
                consumer_threshold: 0.0,
                provider_threshold: 0.35,
                min_interactions: 20,
            },
            step_at: None,
            satisfaction_series: TimeSeries::new("consumer_query_satisfaction"),
            kn_series: TimeSeries::new("mean_kn"),
            gap_series: TimeSeries::new("gap_ewma"),
            oracle,
            backlog: vec![0.0; population],
            departed: vec![false; population],
            last_drain: VirtualTime::ZERO,
            whole_run: Mean::default(),
            post_step: Mean::default(),
        }
    }

    /// Mean per-query consumer satisfaction `δs(c, q)` over **every** query
    /// of the stream — starved queries contribute 0, exactly as Definition 1
    /// treats missing results. The aggregate the static-vs-adaptive
    /// comparison ranks by.
    #[must_use]
    pub fn mean_query_satisfaction(&self) -> f64 {
        self.whole_run.value()
    }

    /// The same mean restricted to queries issued at or after
    /// [`step_at`](Self::step_at) (0 when no query falls there).
    #[must_use]
    pub fn post_step_satisfaction(&self) -> f64 {
        self.post_step.value()
    }

    /// Providers that departed out of dissatisfaction.
    #[must_use]
    pub fn departed(&self) -> usize {
        self.departed.iter().filter(|&&gone| gone).count()
    }

    /// Mean width across classes and shards after the last batch.
    #[must_use]
    pub fn final_mean_kn(&self) -> Option<f64> {
        self.kn_series.last().map(|point| point.value)
    }
}

impl World for LoadFeedback {
    fn oracle(&self) -> &dyn IntentionOracle {
        &self.oracle
    }

    /// Drains the backlogs for the elapsed virtual time and refreshes the
    /// mirror on both sides (oracle + registries).
    fn before_batch(&mut self, service: &mut ShardedMediator, at: &Boundary<'_>) -> SbqaResult<()> {
        if at.providers.len() != self.backlog.len() {
            return Err(SbqaError::invalid_config(
                "the run's providers are not the population the oracle was built over",
            ));
        }
        let now = at.batch[0].issued_at;
        let elapsed = (now - self.last_drain).seconds().max(0.0);
        self.last_drain = now;
        for (i, spec) in at.providers.iter().enumerate() {
            if self.departed[i] {
                continue;
            }
            self.backlog[i] = (self.backlog[i] - elapsed).max(0.0);
            self.oracle.set_utilization(i, self.backlog[i]);
            service.update_provider_load(
                spec.id,
                self.backlog[i],
                self.backlog[i].ceil() as usize,
            )?;
        }
        Ok(())
    }

    /// Credits winners with the query's service time, scores every query's
    /// Definition-1 satisfaction and, at its cadence, runs the departure
    /// rule.
    fn after_batch(
        &mut self,
        service: &mut ShardedMediator,
        at: &Boundary<'_>,
        outcomes: &[OutcomeRecord],
    ) -> SbqaResult<()> {
        let mut batch_satisfaction = 0.0;
        for (query, outcome) in at.batch.iter().zip(outcomes) {
            let satisfaction = query_satisfaction(&self.oracle, query, outcome);
            for &provider in &outcome.selected {
                if let Some(i) = self.oracle.position(provider) {
                    self.backlog[i] +=
                        query.work_units / at.providers[i].capacity.max(f64::MIN_POSITIVE);
                }
            }
            batch_satisfaction += satisfaction;
            self.whole_run.add(satisfaction);
            if self.step_at.is_some_and(|step| query.issued_at >= step) {
                self.post_step.add(satisfaction);
            }
        }
        let now = at.batch[0].issued_at;
        self.satisfaction_series
            .push(now, batch_satisfaction / at.batch.len() as f64);
        let (kn, gap) = controller_means(service);
        self.kn_series
            .push(now, kn.unwrap_or(at.run.system.knbest_kn as f64));
        if let Some(gap) = gap {
            self.gap_series.push(now, gap);
        }

        if (at.index + 1).is_multiple_of(DEPARTURE_CHECK_EVERY) {
            for (i, spec) in at.providers.iter().enumerate() {
                if self.departed[i] {
                    continue;
                }
                let shard = service.router().shard_of_provider(spec.id);
                let tracker = service.satisfaction(shard).provider(spec.id);
                if tracker.is_some_and(|tracker| self.departure.provider_leaves(tracker)) {
                    self.departed[i] = true;
                    service.set_provider_online(spec.id, false)?;
                }
            }
        }
        Ok(())
    }
}

/// Mean exploration width and mean gap EWMA across every shard's adapted
/// classes; `None` where no controller has a class (or an EWMA) to average.
fn controller_means(service: &ShardedMediator) -> (Option<f64>, Option<f64>) {
    let (mut kn, mut gap) = (Mean::default(), Mean::default());
    for shard in service.shards() {
        if let Some(controller) = shard.mediator().adaptive_kn() {
            for (class, width) in controller.class_widths() {
                kn.add(width as f64);
                if let Some(ewma) = controller.gap_ewma(class) {
                    gap.add(ewma);
                }
            }
        }
    }
    let mean = |mean: Mean| (mean.count > 0).then(|| mean.value());
    (mean(kn), mean(gap))
}

/// A query's Definition-1 satisfaction, recomputed from the oracle: the sum
/// of the consumer's unit intentions towards its winners over its
/// replication degree; 0 for a query nobody performed.
fn query_satisfaction(oracle: &dyn IntentionOracle, query: &Query, outcome: &OutcomeRecord) -> f64 {
    let gained: f64 = outcome
        .selected
        .iter()
        .map(|&provider| oracle.consumer_intention(query, provider).to_unit().value())
        .sum();
    gained / query.replication.max(1) as f64
}

/// Mean per-query consumer satisfaction over admitted (non-shed) outcomes —
/// the quality delivered to the queries the service chose to serve; starved
/// queries contribute 0.
///
/// `stream` must be the id-ordered stream the outcomes came from (outcomes
/// are matched to queries by id).
#[must_use]
pub fn admitted_satisfaction(
    outcomes: &[OutcomeRecord],
    stream: &[Query],
    oracle: &dyn IntentionOracle,
) -> f64 {
    let mut mean = Mean::default();
    for outcome in outcomes.iter().filter(|o| !o.shed) {
        let query = stream.binary_search_by_key(&outcome.query, |query| query.id);
        mean.add(query.map_or(0.0, |at| query_satisfaction(oracle, &stream[at], outcome)));
    }
    mean.value()
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds bytes into an FNV-1a accumulator.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Digest of a full outcome stream: for every outcome, the query id, the
/// selected providers in decision order, and the starved/shed flags. Two
/// runs are byte-identical iff their digests (and lengths) agree — the fold
/// the golden overload gate pins.
#[must_use]
pub fn outcome_digest(outcomes: &[OutcomeRecord]) -> u64 {
    let mut hash = FNV_OFFSET;
    for outcome in outcomes {
        fnv1a(&mut hash, &outcome.query.raw().to_le_bytes());
        for provider in &outcome.selected {
            fnv1a(&mut hash, &provider.raw().to_le_bytes());
        }
        fnv1a(
            &mut hash,
            &[u8::from(outcome.starved), u8::from(outcome.shed)],
        );
    }
    hash
}

/// Digest of the shed set alone: the shed queries' ids in stream order.
#[must_use]
pub fn shed_digest(outcomes: &[OutcomeRecord]) -> u64 {
    let mut hash = FNV_OFFSET;
    for outcome in outcomes.iter().filter(|o| o.shed) {
        fnv1a(&mut hash, &outcome.query.raw().to_le_bytes());
    }
    hash
}

/// [`outcome_digest`] with the issue times folded in (and without the shed
/// flag): the fold the golden failover gate pins.
#[must_use]
pub fn timed_outcome_digest(outcomes: &[OutcomeRecord]) -> u64 {
    let mut hash = FNV_OFFSET;
    for outcome in outcomes {
        fnv1a(&mut hash, &outcome.query.raw().to_le_bytes());
        fnv1a(
            &mut hash,
            &outcome.issued_at.seconds().to_bits().to_le_bytes(),
        );
        fnv1a(&mut hash, &[u8::from(outcome.starved)]);
        for provider in &outcome.selected {
            fnv1a(&mut hash, &provider.raw().to_le_bytes());
        }
        fnv1a(&mut hash, &[0xFF]);
    }
    hash
}

/// One fired [`RunEvent::Crash`].
#[derive(Debug, Clone)]
// sbqa-lint: allow(dead-pub, "the element of ServiceRunReport::promotions; the failover goldens read it unnamed")
pub struct Promotion {
    /// The shard that was crashed.
    pub shard: usize,
    /// What its standby replayed to take over.
    pub replay: ReplayReport,
    /// Wall-clock span from kill to promoted.
    pub wall: Duration,
}

/// What [`run`] measured.
#[derive(Debug, Clone)]
pub struct ServiceRunReport {
    /// Every query's outcome in `(VirtualTime, QueryId)` order, and the
    /// per-shard tallies, latency and counters of the shards alive at the
    /// end. The two differ across a [`RunEvent::Resize`]: `outcomes` holds
    /// every query of the stream, but the resize retires the old shards
    /// with their tallies, so `total.submitted()` (and every per-shard
    /// count) covers only the queries from the resize on.
    pub report: ServiceReport,
    /// One entry per crash fired.
    pub promotions: Vec<Promotion>,
    /// Timeline events that actually fired.
    pub events_fired: usize,
}

/// The wall clock, for what a report prints: the run's span (throughput)
/// and promotion latency.
fn wall_clock() -> Instant {
    // sbqa-lint: allow(wall-clock, "measurements printed to the report only; allocation is driven by VirtualTime")
    Instant::now()
}

/// Arms every shard with what the run declares — at the start, and again on
/// the fresh shards of a resize.
fn arm(service: &mut ShardedMediator, run: &ServiceRun) -> SbqaResult<()> {
    if let Some(ladder) = run.ladder {
        service.enable_degradation(ladder)?;
    }
    if let Some(checkpoint_interval) = run.replicate {
        service.replicate()?;
        service.set_checkpoint_interval(checkpoint_interval);
    }
    if let Some(controller) = run.adaptive_kn {
        service.enable_adaptive_kn(controller)?;
    }
    Ok(())
}

/// The run's front-end, armed, with the population registered (in that
/// order, so that a standby's log carries the registrations).
fn populated(
    run: &ServiceRun,
    providers: &[ProviderSpec],
    consumers: &[ConsumerSpec],
) -> SbqaResult<ShardedMediator> {
    let mut service = ShardedMediator::sbqa(run.system.clone(), run.seed, run.shards)?;
    arm(&mut service, run)?;
    for spec in providers {
        service.register_provider(spec.id, spec.capabilities, spec.capacity);
    }
    for spec in consumers {
        service.register_consumer(spec.id);
    }
    Ok(service)
}

/// Joins the shard threads and reassembles the front-end around their
/// shards, keeping the outcomes they produced.
fn quiesce(
    running: MediationService,
    outcomes: &mut Vec<OutcomeRecord>,
) -> SbqaResult<ShardedMediator> {
    let router = *running.router();
    let (report, shards) = running.finish_with_shards();
    outcomes.extend(report.outcomes);
    let service = ShardedMediator::from_shards(router, shards)?;
    match service.fault() {
        Some(fault) => Err(fault.clone()),
        None => Ok(service),
    }
}

/// Drives `stream` through the service `plan` declares, in `world`.
///
/// # Errors
///
/// [`SbqaError::InvalidConfiguration`] for a stream that is not in
/// `(issued_at, id)` order, a threaded run of an inline-only world, or a
/// combination the service refuses to arm (adaptive `kn` × replication, a
/// crash without standbys); the world's registry errors; replication faults
/// and promotion replay errors.
pub fn run(
    plan: &ServiceRun,
    providers: &[ProviderSpec],
    consumers: &[ConsumerSpec],
    stream: &[Query],
    world: &mut impl World,
) -> SbqaResult<ServiceRunReport> {
    let key = |query: &Query| (query.issued_at, query.id);
    if !stream.windows(2).all(|pair| key(&pair[0]) <= key(&pair[1])) {
        return Err(SbqaError::invalid_config(
            "an open-loop stream must be ordered by (issued_at, id)",
        ));
    }
    let threaded = match plan.threaded {
        None => None,
        Some(ring_capacity) => Some((
            ring_capacity,
            world.shared_oracle().ok_or_else(|| {
                SbqaError::invalid_config("this world's oracle cannot be shared with shard threads")
            })?,
        )),
    };

    // Exactly one of the two holds the shards at any time.
    let mut idle = Some(populated(plan, providers, consumers)?);
    let mut running: Option<MediationService> = None;
    let mut outcomes = Vec::with_capacity(stream.len());
    let mut promotions = Vec::new();
    let mut pending = plan.timeline.events();

    let started = wall_clock();
    for (index, batch) in stream.chunks(plan.batch.max(1)).enumerate() {
        let at = Boundary {
            run: plan,
            providers,
            index,
            batch,
        };
        let due = pending.partition_point(|&(time, _)| time <= batch[0].issued_at);
        let (fire, later) = pending.split_at(due);
        pending = later;
        if !fire.is_empty() || world.steps() {
            if let Some(spawned) = running.take() {
                idle = Some(quiesce(spawned, &mut outcomes)?);
            }
        }
        if !fire.is_empty() {
            let mut service = idle.take().expect("quiesced for the events");
            for &(_, event) in fire {
                match event {
                    RunEvent::Crash { shard } => {
                        let shard = shard % service.shard_count();
                        let killed = wall_clock();
                        let replay = service.crash_shard(shard, world.oracle())?;
                        promotions.push(Promotion {
                            shard,
                            replay,
                            wall: killed.elapsed(),
                        });
                    }
                    RunEvent::Resize { shards } => {
                        service = service.resize_sbqa(plan.system.clone(), shards)?;
                        arm(&mut service, plan)?;
                    }
                }
            }
            idle = Some(service);
        }
        if let Some(service) = &mut idle {
            world.before_batch(service, &at)?;
        }
        if let Some((ring_capacity, oracle)) = &threaded {
            if let Some(service) = idle.take() {
                let ingest = IngestConfig {
                    ring_capacity: *ring_capacity,
                    degradation: None,
                };
                running = Some(MediationService::spawn_with(
                    service,
                    Arc::clone(oracle),
                    ingest,
                )?);
            }
            running
                .as_mut()
                .expect("spawned above")
                .enqueue_batch(batch.iter().cloned());
        } else {
            let service = idle.as_mut().expect("an inline run spawns no threads");
            let router = *service.router();
            let first = outcomes.len();
            service.try_submit_batch(batch, world.oracle(), |_, query, result| {
                let shard = router.shard_of_query(query.id);
                outcomes.push(OutcomeRecord::from_result(shard, query, result));
            })?;
            world.after_batch(service, &at, &outcomes[first..])?;
        }
    }
    let service = match running {
        Some(spawned) => quiesce(spawned, &mut outcomes)?,
        None => idle.expect("no threads hold the shards"),
    };
    Ok(ServiceRunReport {
        report: ServiceReport::merge(service.shard_reports(), outcomes, started.elapsed()),
        promotions,
        events_fired: plan.timeline.events().len() - pending.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_query_stream, LoadStep, WorkloadModel};
    use sbqa_core::intention::{ConsumerProfile, ProviderProfile};
    use sbqa_types::{Capability, CapabilitySet, ConsumerId, ProviderId};

    /// `n` consumers spread over `classes` capability classes.
    fn consumers(n: u64, classes: u64, rate: f64, work: f64) -> Vec<ConsumerSpec> {
        (0..n)
            .map(|c| {
                ConsumerSpec::new(
                    ConsumerId::new(c),
                    Capability::new((c % classes) as u8),
                    rate,
                    work,
                    1,
                    ConsumerProfile::default(),
                )
            })
            .collect()
    }

    /// `n` providers, each advertising its class and `neighbours` more, with
    /// capacities cycling through `1.0 ..= tiers`.
    fn providers(n: u64, classes: u64, neighbours: u64, tiers: u64) -> Vec<ProviderSpec> {
        (0..n)
            .map(|p| {
                ProviderSpec::new(
                    ProviderId::new(1_000 + p),
                    CapabilitySet::from_capabilities(
                        (0..=neighbours).map(|j| Capability::new(((p + j) % classes) as u8)),
                    ),
                    1.0 + (p % tiers) as f64,
                    ProviderProfile::default(),
                )
            })
            .collect()
    }

    fn plain_stream(consumers: &[ConsumerSpec], count: usize, seed: u64) -> Vec<Query> {
        generate_query_stream(consumers, &WorkloadModel::default(), count, seed, None)
    }

    fn hash_run(
        config: &ServiceRun,
        churn: usize,
        providers: &[ProviderSpec],
        consumers: &[ConsumerSpec],
        stream: &[Query],
    ) -> ServiceRunReport {
        let mut world = HashWorld::new(config.seed, churn);
        run(config, providers, consumers, stream, &mut world).unwrap()
    }

    /// A threaded run's ring; decisions do not depend on its size.
    const THREADED: Option<usize> = Some(1_024);

    #[test]
    fn timeline_orders_by_time_and_keeps_declaration_order_on_ties() {
        let t = VirtualTime::new;
        let timeline = Timeline::new()
            .at(t(5.0), RunEvent::Crash { shard: 1 })
            .at(t(2.0), RunEvent::Resize { shards: 3 })
            .at(t(5.0), RunEvent::Crash { shard: 0 });
        assert_eq!(
            timeline.events(),
            [
                (t(2.0), RunEvent::Resize { shards: 3 }),
                (t(5.0), RunEvent::Crash { shard: 1 }),
                (t(5.0), RunEvent::Crash { shard: 0 }),
            ]
        );
    }

    #[test]
    fn single_shard_service_matches_the_baseline() {
        let providers = providers(30, 3, 1, 2);
        let consumers = consumers(3, 3, 2.0, 1.0);
        let stream = plain_stream(&consumers, 150, 42);
        let system = SystemConfig::default().with_knbest(10, 3);
        let config = |batch, threaded| ServiceRun {
            batch,
            threaded,
            ..ServiceRun::new(system.clone(), 42)
        };

        // The plain-mediator reference is the service crate's determinism
        // suite; here every driver and chunking must match the inline run.
        let baseline = hash_run(&config(32, None), 0, &providers, &consumers, &stream).report;
        assert_eq!(baseline.total.submitted(), 150);
        for batch in [32, 64] {
            for threaded in [THREADED, None] {
                let report =
                    hash_run(&config(batch, threaded), 0, &providers, &consumers, &stream).report;
                assert_eq!(report.total, baseline.total);
                assert_eq!(report.outcomes, baseline.outcomes);
            }
        }
    }

    #[test]
    fn a_resize_keeps_every_outcome_but_restarts_the_tallies() {
        let providers = providers(30, 3, 1, 2);
        let consumers = consumers(3, 3, 2.0, 1.0);
        let stream = plain_stream(&consumers, 200, 11);
        // Batches of 20: the resize fires at the boundary of query 120.
        let resized_at = stream[120].issued_at;
        let config = ServiceRun {
            shards: 2,
            batch: 20,
            timeline: Timeline::new().at(resized_at, RunEvent::Resize { shards: 3 }),
            ..ServiceRun::new(SystemConfig::default().with_knbest(10, 3), 11)
        };
        let run = hash_run(&config, 0, &providers, &consumers, &stream);
        assert_eq!(run.events_fired, 1);
        let report = run.report;
        assert_eq!(report.outcomes.len(), stream.len());
        assert_eq!(report.total.submitted(), stream.len() - 120);
        assert_eq!(report.shards.len(), 3);
    }

    #[test]
    fn multi_shard_service_accounts_for_every_query() {
        let providers = providers(40, 3, 1, 2);
        let consumers = consumers(4, 3, 2.0, 1.0);
        let stream = plain_stream(&consumers, 200, 7);
        let config = ServiceRun {
            shards: 4,
            batch: 16,
            threaded: THREADED,
            ..ServiceRun::new(SystemConfig::default().with_knbest(8, 2), 7)
        };
        let report = hash_run(&config, 0, &providers, &consumers, &stream).report;
        assert_eq!(report.total.submitted(), 200);
        assert_eq!(report.shards.len(), 4);
        assert_eq!(report.aggregate_latency().count(), 200);
        // Byte-stability across runs.
        let again = hash_run(&config, 0, &providers, &consumers, &stream).report;
        assert_eq!(report.outcomes, again.outcomes);
    }

    fn overload_config(batch: usize) -> ServiceRun {
        ServiceRun {
            shards: 2,
            batch,
            threaded: Some(64),
            ladder: Some(DegradationConfig {
                capacity: 64,
                drain_rate: 40.0,
                ..DegradationConfig::default()
            }),
            ..ServiceRun::new(SystemConfig::default().with_knbest(10, 4), 42)
        }
    }

    fn stepped_stream(consumers: &[ConsumerSpec], count: usize, step: LoadStep) -> Vec<Query> {
        generate_query_stream(consumers, &WorkloadModel::default(), count, 42, Some(step))
    }

    const STEP_50X: LoadStep = LoadStep {
        at_fraction: 0.3,
        rate_multiplier: 50.0,
    };

    #[test]
    fn overload_run_sheds_and_digests_are_reproducible() {
        let providers = providers(24, 2, 1, 1);
        let consumers = consumers(4, 2, 4.0, 0.5);
        let stream = stepped_stream(&consumers, 1_500, STEP_50X);

        let a = hash_run(&overload_config(64), 0, &providers, &consumers, &stream).report;
        let stats = a.degradation_stats().expect("ladder armed");
        assert!(a.shed() > 0, "a sustained 50x step must shed");
        assert_eq!(stats.observed() as usize, 1_500, "conservation");
        assert_eq!(a.outcomes.len(), 1_500);
        let oracle = HashIntentions::new(42);
        assert!(admitted_satisfaction(&a.outcomes, &stream, &oracle).is_finite());

        let b = hash_run(&overload_config(64), 0, &providers, &consumers, &stream).report;
        assert_eq!(
            outcome_digest(&a.outcomes),
            outcome_digest(&b.outcomes),
            "byte-identical across runs"
        );
        assert_eq!(shed_digest(&a.outcomes), shed_digest(&b.outcomes));

        let c = hash_run(&overload_config(23), 0, &providers, &consumers, &stream).report;
        assert_eq!(
            outcome_digest(&a.outcomes),
            outcome_digest(&c.outcomes),
            "chunk-size independent"
        );
        assert_eq!(shed_digest(&a.outcomes), shed_digest(&c.outcomes));
    }

    fn ladderless_config() -> ServiceRun {
        ServiceRun {
            threaded: THREADED,
            ladder: None,
            ..overload_config(64)
        }
    }

    #[test]
    fn ladderless_run_sheds_nothing() {
        let providers = providers(24, 2, 1, 1);
        let consumers = consumers(4, 2, 4.0, 0.5);
        let stream = stepped_stream(&consumers, 600, STEP_50X);
        let report = hash_run(&ladderless_config(), 0, &providers, &consumers, &stream).report;
        assert_eq!(report.shed(), 0);
        assert!(report.degradation_stats().is_none());
        assert_eq!(report.total.submitted(), 600);
    }

    #[test]
    fn digest_helpers_distinguish_streams() {
        let providers = providers(24, 2, 1, 1);
        let consumers = consumers(4, 2, 4.0, 0.5);
        let stream = stepped_stream(&consumers, 800, STEP_50X);
        let with_ladder = hash_run(&overload_config(64), 0, &providers, &consumers, &stream);
        let without = hash_run(&ladderless_config(), 0, &providers, &consumers, &stream);
        assert_ne!(
            outcome_digest(&with_ladder.report.outcomes),
            outcome_digest(&without.report.outcomes),
            "degradation changes the outcome stream"
        );
        assert_eq!(shed_digest(&without.report.outcomes), FNV_OFFSET);
    }

    fn failover_config(timeline: Timeline) -> ServiceRun {
        ServiceRun {
            shards: 2,
            batch: 25,
            replicate: Some(3),
            timeline,
            ..ServiceRun::new(SystemConfig::default().with_knbest(10, 3), 42)
        }
    }

    #[test]
    fn crashed_run_is_byte_identical_to_uninterrupted() {
        let providers = providers(30, 3, 1, 2);
        let consumers = consumers(3, 3, 2.0, 1.0);
        let stream = plain_stream(&consumers, 300, 42);

        let calm = failover_config(Timeline::new());
        let calm = hash_run(&calm, 4, &providers, &consumers, &stream);
        let midpoint = stream[stream.len() / 2].issued_at;
        let stormy = failover_config(
            Timeline::new()
                .at(midpoint, RunEvent::Crash { shard: 0 })
                .at(midpoint, RunEvent::Crash { shard: 1 }),
        );
        let stormy = hash_run(&stormy, 4, &providers, &consumers, &stream);

        assert_eq!(stormy.events_fired, 2);
        assert_eq!(stormy.promotions.len(), 2);
        assert_eq!(calm.report.outcomes, stormy.report.outcomes);
        assert_eq!(
            timed_outcome_digest(&calm.report.outcomes),
            timed_outcome_digest(&stormy.report.outcomes)
        );
        // Promotions show up in the replication counters.
        let stats = stormy.report.replication_stats().unwrap();
        assert_eq!(stats.promotions, 2);
        assert_eq!(calm.report.replication_stats().unwrap().promotions, 0);
    }

    #[test]
    fn crashes_past_the_stream_never_fire() {
        let providers = providers(12, 3, 1, 2);
        let consumers = consumers(2, 3, 2.0, 1.0);
        let stream = plain_stream(&consumers, 60, 7);
        let far_future = stream.last().unwrap().issued_at + sbqa_types::Duration::new(1_000.0);
        let config = failover_config(Timeline::new().at(far_future, RunEvent::Crash { shard: 0 }));
        let report = hash_run(&config, 4, &providers, &consumers, &stream);
        assert_eq!(report.events_fired, 0);
        assert!(report.promotions.is_empty());
        assert_eq!(report.report.outcomes.len(), 60);
    }

    #[test]
    fn an_inline_replicated_run_reports_sheds_as_sheds() {
        let providers = providers(24, 2, 1, 1);
        let consumers = consumers(4, 2, 4.0, 0.5);
        let stream = stepped_stream(&consumers, 1_500, STEP_50X);
        let config = ServiceRun {
            threaded: None,
            replicate: Some(3),
            timeline: Timeline::new().at(stream[1_000].issued_at, RunEvent::Crash { shard: 0 }),
            ..overload_config(64)
        };
        let run = hash_run(&config, 4, &providers, &consumers, &stream);
        assert_eq!(run.events_fired, 1);

        let report = run.report;
        let flagged =
            |flag: fn(&OutcomeRecord) -> bool| report.outcomes.iter().filter(|o| flag(o)).count();
        let stats = report.degradation_stats().expect("ladder armed");
        assert!(stats.shed > 0, "a sustained 50x step must shed");
        assert_eq!(report.shed(), stats.shed);
        assert_eq!(flagged(|o| o.shed) as u64, stats.shed);
        // A shed is a deliberate admission decision, never a starvation.
        assert_eq!(flagged(|o| o.starved), report.total.starved);
        assert_eq!(flagged(|o| o.starved && o.shed), 0);
        assert_eq!(
            report.total.submitted() + flagged(|o| o.shed),
            stream.len(),
            "offered = mediated + starved + shed"
        );
    }

    fn stepped_adaptive_case() -> (Vec<ProviderSpec>, Vec<ConsumerSpec>, Vec<Query>) {
        let consumers = consumers(4, 2, 4.0, 0.5);
        let step = LoadStep {
            at_fraction: 0.5,
            rate_multiplier: 3.0,
        };
        let stream =
            generate_query_stream(&consumers, &WorkloadModel::default(), 600, 13, Some(step));
        (providers(24, 2, 0, 1), consumers, stream)
    }

    fn feedback(seed: u64, providers: &[ProviderSpec]) -> LoadFeedback {
        LoadFeedback::new(AdaptiveOracle::new(seed, 0.6, 3.0, providers).unwrap())
    }

    fn adaptive_config(kn: usize, seed: u64) -> ServiceRun {
        ServiceRun {
            batch: 128,
            ..ServiceRun::new(SystemConfig::default().with_knbest(12, kn), seed)
        }
    }

    #[test]
    fn adaptive_case_runs_deterministically() {
        let (providers, consumers, stream) = stepped_adaptive_case();
        let config = ServiceRun {
            adaptive_kn: Some(KnControllerConfig {
                initial_kn: 4,
                min_kn: 2,
                max_kn: 10,
                ..KnControllerConfig::default()
            }),
            ..adaptive_config(4, 13)
        };
        let case = || {
            let mut world = feedback(13, &providers);
            world.step_at = Some(stream[300].issued_at);
            let report = run(&config, &providers, &consumers, &stream, &mut world).unwrap();
            (report.report, world)
        };
        let (a, world_a) = case();
        let (b, world_b) = case();
        let trails = |report: &ServiceReport| -> Vec<_> {
            report.shards.iter().map(|s| s.kn_trail.clone()).collect()
        };
        assert_eq!(a.total, b.total);
        assert_eq!(
            world_a.mean_query_satisfaction(),
            world_b.mean_query_satisfaction()
        );
        assert_eq!(world_a.departed(), world_b.departed());
        assert_eq!(trails(&a), trails(&b));
        assert_eq!(world_a.final_mean_kn(), world_b.final_mean_kn());

        assert_eq!(a.total.submitted(), 600);
        assert!(world_a.mean_query_satisfaction() > 0.0);
        assert!(world_a.post_step_satisfaction() > 0.0);
        assert_eq!(world_a.satisfaction_series.len(), world_a.kn_series.len());
        assert_eq!(trails(&a).len(), 1, "one trail per shard");
    }

    #[test]
    fn static_case_keeps_kn_flat_and_records_no_trail() {
        let providers = providers(24, 2, 0, 1);
        let consumers = consumers(4, 2, 4.0, 0.5);
        let stream = plain_stream(&consumers, 400, 21);
        let mut world = feedback(21, &providers);
        let report = run(
            &adaptive_config(6, 21),
            &providers,
            &consumers,
            &stream,
            &mut world,
        )
        .unwrap()
        .report;
        assert!(report.shards.iter().all(|s| s.kn_trail.is_empty()));
        assert_eq!(world.final_mean_kn(), Some(6.0));
        assert!(world
            .kn_series
            .points()
            .iter()
            .all(|p| (p.value - 6.0).abs() < 1e-12));
        assert!(world.gap_series.is_empty());
        assert_eq!(world.post_step_satisfaction(), 0.0, "no step configured");
    }

    #[test]
    fn a_harsh_departure_policy_sheds_providers() {
        let providers = providers(16, 2, 0, 1);
        let consumers = consumers(4, 2, 4.0, 0.5);
        let stream = plain_stream(&consumers, 1_200, 3);
        let mut world = feedback(3, &providers);
        // Nearly everyone is "dissatisfied".
        world.departure = DeparturePolicy::Autonomous {
            consumer_threshold: 0.0,
            provider_threshold: 0.9,
            min_interactions: 10,
        };
        run(
            &adaptive_config(8, 3),
            &providers,
            &consumers,
            &stream,
            &mut world,
        )
        .unwrap();
        assert!(world.departed() > 0, "harsh threshold must shed providers");
        // Departures never exceed the population.
        assert!(world.departed() <= 16);
    }

    #[test]
    fn unrunnable_declarations_are_refused() {
        let providers = providers(12, 2, 0, 1);
        let consumers = consumers(2, 2, 4.0, 0.5);
        let stream = plain_stream(&consumers, 40, 5);
        let refused = |config: &ServiceRun, stream: &[Query]| {
            let error = run(
                config,
                &providers,
                &consumers,
                stream,
                &mut feedback(5, &providers),
            )
            .unwrap_err();
            assert!(
                matches!(error, SbqaError::InvalidConfiguration { .. }),
                "{error}"
            );
        };
        let inline = adaptive_config(4, 5);
        // The load mirror is written between batches on the caller's thread.
        refused(
            &ServiceRun {
                threaded: THREADED,
                ..inline.clone()
            },
            &stream,
        );
        // A checkpoint does not carry the controller.
        refused(
            &ServiceRun {
                replicate: Some(4),
                adaptive_kn: Some(KnControllerConfig::default()),
                ..inline.clone()
            },
            &stream,
        );
        // An invalid controller is an error, not a panic.
        refused(
            &ServiceRun {
                adaptive_kn: Some(KnControllerConfig {
                    min_kn: 0,
                    ..KnControllerConfig::default()
                }),
                ..inline.clone()
            },
            &stream,
        );
        // No standby, nothing to promote.
        refused(
            &ServiceRun {
                timeline: Timeline::new().at(VirtualTime::ZERO, RunEvent::Crash { shard: 0 }),
                ..inline.clone()
            },
            &stream,
        );
        // The timeline merge and the worlds rely on the stream's order.
        let mut reversed = stream.clone();
        reversed.reverse();
        refused(&inline, &reversed);
    }
}
