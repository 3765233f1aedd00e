//! The four workloads: how each drives its front-end through the public API,
//! what one segment reads, and the correctness gates every run applies.
//!
//! A run is many short **segments**. Each segment regenerates its inputs from
//! the seed, builds a fresh world, offers a **fixed number of queries** and
//! reads wall time, latency samples, tallies, final satisfaction and an
//! outcome digest. Decisions, satisfaction and digests must repeat exactly
//! from segment to segment. Every segment does the same work, so a timing is
//! reported from the run's [`Composite`]: window by window, the reading of
//! the segment that got through the window least disturbed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sbqa_core::{DegradationConfig, IntentionOracle, Mediator};
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_service::{
    IngestConfig, MediationService, ReplicatedMediator, ServiceReport, ShardedMediator,
};
use sbqa_types::{ConsumerId, ProviderId, Query, SbqaError, SbqaResult};

use crate::gen::{self, Churn, HashOracle, Op, OpSchedule, OutcomeDigest, ProviderSpec, BATCH};
use crate::stats::percentile;

/// Paced offer rate of `open_single`, queries per second: bursts of
/// [`BATCH`] due every 1.6 ms.
pub const PACED_RATE: f64 = 40_000.0;
/// A paced burst enqueued later than this after its due time is discarded:
/// the composite takes a window holding one from this segment only if every
/// segment enqueued that window late.
pub const MAX_LATE_US: f64 = 50.0;
/// The paced generator stops sleeping and spins this long before a due time:
/// half the 1.6 ms between bursts. On the reference box a timer wake-up
/// overshoots by 0.1–2 ms when the host is busy; with a 300 µs margin a fifth
/// to a half of all bursts then went out late, with this one a few percent.
const SPIN_MARGIN: Duration = Duration::from_micros(800);
/// Promotions per `replicated_failover` segment: one crash at each tenth.
pub const CRASHES: usize = 9;
/// Queries the brute-force `Pq` gate samples on `sync_multicap_churn`.
pub const PQ_SAMPLES: usize = 1000;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Threaded service, one shard, light paced load plus saturation.
    OpenSingle,
    /// Inline sharded mediator, multi-class queries beside registry writes.
    SyncMulticapChurn,
    /// Inline replicated mediator with crashes and promotions.
    ReplicatedFailover,
    /// Threaded service past saturation with the degradation ladder armed.
    OverloadLadder,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::OpenSingle,
        Workload::SyncMulticapChurn,
        Workload::ReplicatedFailover,
        Workload::OverloadLadder,
    ];

    /// The name used on the command line, in `BENCHMARK.json` and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::OpenSingle => "open_single",
            Workload::SyncMulticapChurn => "sync_multicap_churn",
            Workload::ReplicatedFailover => "replicated_failover",
            Workload::OverloadLadder => "overload_ladder",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does.
///
/// Query counts are fixed per second of `--seconds` budget, calibrated once
/// at the seed commit on the 2-core reference box so that a run measures for
/// about that long, then frozen: the same `(seed, seconds)` always offers the
/// same queries, whatever the machine's speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Providers in the world.
    pub providers: usize,
    /// Segments per run (saturation segments of `open_single` come on top).
    pub segments: usize,
    /// The `--seconds` budget the counts are scaled from.
    pub seconds: u64,
}

impl Sizing {
    /// The comparable configuration: 100 000 providers, 24 segments.
    ///
    /// Many short segments rather than a few long ones: the reference box's
    /// speed shifts by up to 2x for seconds at a time, and only a segment
    /// short enough to fit between two shifts reads the undisturbed speed.
    #[must_use]
    pub fn full(seconds: u64) -> Self {
        Self {
            providers: 100_000,
            segments: 24,
            seconds,
        }
    }

    /// `--quick`: 2 000 providers, 1 segment. Not comparable with anything.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            providers: 2_000,
            segments: 1,
            seconds: 4,
        }
    }

    /// Queries one segment offers. Whole batches, so every workload's op
    /// schedule and crash points fall on batch boundaries.
    #[must_use]
    pub fn queries(&self, workload: Workload) -> usize {
        // Frozen per-second-of-budget counts (see the type's documentation).
        let per_second = match workload {
            Workload::OpenSingle => 1_000,
            Workload::SyncMulticapChurn => 512,
            Workload::ReplicatedFailover => 800,
            Workload::OverloadLadder => 5_000,
        };
        whole_batches(per_second * self.seconds as usize)
    }

    /// Queries one saturation segment of `open_single` offers.
    #[must_use]
    pub fn saturation_queries(&self) -> usize {
        whole_batches(3_128 * self.seconds as usize)
    }

    /// Saturation segments of `open_single`.
    #[must_use]
    pub fn saturation_segments(&self) -> usize {
        self.segments.div_ceil(2)
    }
}

fn whole_batches(queries: usize) -> usize {
    (queries / BATCH).max(10) * BATCH
}

/// What one segment read.
#[derive(Debug, Clone, Default)]
pub struct Reading {
    /// Generating the inputs and building the world, seconds.
    pub setup_s: f64,
    /// First query offered → last decision returned, seconds.
    pub wall_s: f64,
    /// Queries offered.
    pub offered: u64,
    /// Decisions returned.
    pub mediated: u64,
    /// Queries that found no capable provider online.
    pub starved: u64,
    /// Queries the degradation ladder rejected.
    pub shed: u64,
    /// Submissions or registry writes that returned an unexpected error.
    pub errored: u64,
    /// Latency samples taken.
    pub samples: u64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Mean final consumer satisfaction.
    pub consumer_satisfaction: f64,
    /// Mean final provider satisfaction.
    pub provider_satisfaction: f64,
    /// Running outcome digest after each query, in outcome order; its last
    /// entry is the segment's digest.
    pub trail: Vec<u64>,
    /// Layer readings that fall out of the untraced run for free.
    pub layer: BTreeMap<&'static str, f64>,
    /// Every query's latency in stream order, ns; moves into the run's
    /// [`Composite`].
    pub latency_ns: Vec<u64>,
    /// Per batch: the time it took, ns — on the inline fronts the call with
    /// the writes, crash and promotion around it, on the threaded front the
    /// time from the previous batch's last decision to this batch's. The
    /// quanta tile the segment from the first query offered to the last
    /// decision returned; they move into the [`Composite`].
    pub quanta_ns: Vec<u64>,
    /// Per burst of a paced segment: enqueued late. Empty otherwise.
    pub late_bursts: Vec<bool>,
}

impl Reading {
    /// Decisions returned per second of segment wall time.
    #[must_use]
    pub fn throughput_qps(&self) -> f64 {
        self.mediated as f64 / self.wall_s
    }

    /// The segment's outcome digest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.trail.last().copied().unwrap_or_default()
    }

    /// The segment's own sample count and quantiles, from `latency_ns`.
    fn summarize_latency(&mut self) {
        self.samples = self.latency_ns.len() as u64;
        let mut sorted = self.latency_ns.clone();
        self.p50_us = percentile(&mut sorted, 0.50).unwrap_or(0) as f64 / 1e3;
        self.p99_us = percentile(&mut sorted, 0.99).unwrap_or(0) as f64 / 1e3;
    }

    fn check_conservation(&self) -> Result<(), String> {
        if self.offered == self.mediated + self.starved + self.shed && self.errored == 0 {
            Ok(())
        } else {
            Err(format!(
                "conservation: offered {} != mediated {} + starved {} + shed {} (errored {})",
                self.offered, self.mediated, self.starved, self.shed, self.errored
            ))
        }
    }
}

/// Everything one workload run read, gates already applied.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// The accepted segments.
    pub segments: Vec<Reading>,
    /// `open_single` only: the saturation segments `throughput_qps` is read
    /// from.
    pub saturation: Vec<Reading>,
    /// Composites of `segments`: of all of them, of the even-numbered ones
    /// and of the odd-numbered ones. A value that the two halves do not
    /// agree on is not resolved (see `result::Metric::halves`).
    pub composites: [Composite; 3],
    /// The same three composites of `saturation`.
    pub saturation_composites: [Composite; 3],
    /// The correctness gates that ran, each with what it compared.
    pub gates: Vec<String>,
}

impl Run {
    fn segment(&mut self, mut reading: Reading) {
        fold(&mut self.composites, self.segments.len(), &mut reading);
        self.segments.push(reading);
    }

    fn saturation_segment(&mut self, mut reading: Reading) {
        fold(
            &mut self.saturation_composites,
            self.saturation.len(),
            &mut reading,
        );
        self.saturation.push(reading);
    }
}

/// Folds segment number `index` into the whole composite and into its half,
/// taking the samples out of the reading.
fn fold(composites: &mut [Composite; 3], index: usize, reading: &mut Reading) {
    let latency = std::mem::take(&mut reading.latency_ns);
    let quanta = std::mem::take(&mut reading.quanta_ns);
    let late = std::mem::take(&mut reading.late_bursts);
    composites[0].absorb(&latency, &quanta, &late);
    composites[1 + index % 2].absorb(&latency, &quanta, &late);
}

/// Batches per window of the [`Composite`]: 1 024 queries, one ring-length
/// of the back-pressured workload, 26 ms of the paced one.
pub const WINDOW: usize = 16;

/// The least-disturbed composite of a run's segments.
///
/// Every segment offers the same queries to a world built the same way, so a
/// window of the stream does the same work in each of them; what differs is
/// what else the box was doing. On a shared 2-vCPU guest that is a lot — the
/// neighbours' cache traffic slows a whole segment by up to 2x for seconds at
/// a time, and a stolen vCPU stalls a few hundred queries — and it only ever
/// adds time. So the composite stitches the run together window by window
/// ([`WINDOW`] batches), each window from the segment that got through it
/// least disturbed: the shortest time any segment took over it, and the
/// latencies of the segment whose latencies over it sum lowest. A window's
/// latencies all come from one segment — a per-query minimum would collect
/// lucky wake-ups and ring phases that no run ever sees together.
#[derive(Debug, Clone, Default)]
pub struct Composite {
    /// Per window: the shortest time any segment took over it, ns.
    time_ns: Vec<u64>,
    /// Per window, what the choice of `latency_ns` minimises: whether the
    /// segment enqueued one of the window's bursts late, then the sum of its
    /// latencies over the window.
    chosen: Vec<(bool, u64)>,
    /// The chosen latencies of every window, in stream order.
    latency_ns: Vec<u64>,
    /// Bursts discarded for lateness, over all segments.
    pub discarded_bursts: u64,
}

impl Composite {
    /// Folds one segment's samples in: its per-query latencies, its
    /// per-batch quanta and, for a paced segment, which bursts to discard.
    pub fn absorb(&mut self, latency: &[u64], quanta: &[u64], late: &[bool]) {
        self.discarded_bursts += late.iter().filter(|late| **late).count() as u64;
        let windows = quanta.len().div_ceil(WINDOW);
        if self.time_ns.is_empty() {
            self.time_ns = vec![u64::MAX; windows];
            self.chosen = vec![(true, u64::MAX); windows];
            self.latency_ns = vec![0; latency.len()];
        }
        for (best, window) in self.time_ns.iter_mut().zip(quanta.chunks(WINDOW)) {
            *best = (*best).min(window.iter().sum());
        }
        for (w, window) in latency.chunks(WINDOW * BATCH).enumerate() {
            let from = w * WINDOW;
            let is_late = late.iter().skip(from).take(WINDOW).any(|late| *late);
            let key = (is_late, window.iter().sum());
            if key < self.chosen[w] {
                self.chosen[w] = key;
                self.latency_ns[from * BATCH..][..window.len()].copy_from_slice(window);
            }
        }
    }

    /// The composite latency at quantile `q`, µs.
    #[must_use]
    pub fn latency_us(&self, q: f64) -> Option<f64> {
        percentile(&mut self.latency_ns.clone(), q).map(|ns| ns as f64 / 1e3)
    }

    /// First query offered → last decision returned, seconds, every window
    /// at its least-disturbed.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.time_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

// ---------------------------------------------------------------------------
// World building
// ---------------------------------------------------------------------------

/// What every front-end (and the bare mediator) lets a caller write: the
/// surface the world builders and the op schedules go through.
pub(crate) trait World {
    /// Registers (or re-registers) a provider.
    fn register(&mut self, spec: ProviderSpec) -> SbqaResult<()>;
    /// Registers a consumer.
    fn consumer(&mut self, id: ConsumerId);
    /// `update_provider_load`.
    fn load(&mut self, id: ProviderId, utilization: f64, queue_length: usize) -> SbqaResult<()>;
    /// `set_provider_online`.
    fn online(&mut self, id: ProviderId, online: bool) -> SbqaResult<()>;

    /// Registers the common world's first `providers` providers and its
    /// consumers.
    fn populate(&mut self, providers: usize) -> SbqaResult<()> {
        for spec in (0..providers).map(gen::provider) {
            self.register(spec)?;
        }
        gen::consumers().for_each(|id| self.consumer(id));
        Ok(())
    }

    /// Applies the ops, returning how many were rejected.
    fn apply(&mut self, ops: &[Op]) -> u64 {
        let mut errored = 0;
        for op in ops {
            let result = match *op {
                Op::Load {
                    id,
                    utilization,
                    queue_length,
                } => self.load(id, utilization, queue_length),
                Op::Online { id, online } => self.online(id, online),
                Op::Reregister(spec) => self.register(spec),
            };
            errored += u64::from(result.is_err());
        }
        errored
    }
}

impl World for Mediator {
    fn register(&mut self, spec: ProviderSpec) -> SbqaResult<()> {
        self.register_provider(spec.id, spec.capabilities, spec.capacity);
        Ok(())
    }
    fn consumer(&mut self, id: ConsumerId) {
        self.register_consumer(id);
    }
    fn load(&mut self, id: ProviderId, utilization: f64, queue_length: usize) -> SbqaResult<()> {
        self.update_provider_load(id, utilization, queue_length)
    }
    fn online(&mut self, id: ProviderId, online: bool) -> SbqaResult<()> {
        self.set_provider_online(id, online)
    }
}

impl World for ShardedMediator {
    fn register(&mut self, spec: ProviderSpec) -> SbqaResult<()> {
        self.register_provider(spec.id, spec.capabilities, spec.capacity);
        Ok(())
    }
    fn consumer(&mut self, id: ConsumerId) {
        self.register_consumer(id);
    }
    fn load(&mut self, id: ProviderId, utilization: f64, queue_length: usize) -> SbqaResult<()> {
        self.update_provider_load(id, utilization, queue_length)
    }
    fn online(&mut self, id: ProviderId, online: bool) -> SbqaResult<()> {
        self.set_provider_online(id, online)
    }
}

impl World for ReplicatedMediator {
    fn register(&mut self, spec: ProviderSpec) -> SbqaResult<()> {
        self.register_provider(spec.id, spec.capabilities, spec.capacity)
            .map(|_| ())
    }
    fn consumer(&mut self, id: ConsumerId) {
        self.register_consumer(id);
    }
    fn load(&mut self, id: ProviderId, utilization: f64, queue_length: usize) -> SbqaResult<()> {
        self.update_provider_load(id, utilization, queue_length)
    }
    fn online(&mut self, id: ProviderId, online: bool) -> SbqaResult<()> {
        self.set_provider_online(id, online)
    }
}

/// Populates a freshly constructed front-end with the common world.
fn populated<W: World>(world: SbqaResult<W>, providers: usize) -> Result<W, String> {
    world
        .and_then(|mut world| world.populate(providers).map(|()| world))
        .map_err(|e| format!("world build failed: {e}"))
}

/// An inline `ShardedMediator` over the common world.
pub(crate) fn sharded_world(
    seed: u64,
    shards: usize,
    providers: usize,
) -> Result<ShardedMediator, String> {
    populated(
        ShardedMediator::sbqa(gen::system_config(), seed, shards),
        providers,
    )
}

/// An inline `ReplicatedMediator` over the common world.
pub(crate) fn replicated_world(
    seed: u64,
    shards: usize,
    providers: usize,
) -> Result<ReplicatedMediator, String> {
    populated(
        ReplicatedMediator::sbqa(gen::system_config(), seed, shards),
        providers,
    )
}

/// A plain mediator over the whole world — the reference `open_single` is
/// compared against, and the floor the traced run measures.
pub fn bare_world(seed: u64, providers: usize) -> Result<Mediator, String> {
    populated(Mediator::sbqa(gen::system_config(), seed), providers)
}

/// Spawns the threaded front over a fresh one-shard world.
pub fn threaded_world(
    seed: u64,
    providers: usize,
    config: IngestConfig,
) -> Result<MediationService, String> {
    let oracle: Arc<dyn IntentionOracle + Send + Sync> = Arc::new(HashOracle::new(seed));
    MediationService::spawn_with(sharded_world(seed, 1, providers)?, oracle, config)
        .map_err(|e| format!("spawn failed: {e}"))
}

/// The ingest configuration of `open_single`.
#[must_use]
pub fn open_single_ingest() -> IngestConfig {
    IngestConfig {
        ring_capacity: 4096,
        degradation: None,
    }
}

/// The ingest configuration of `overload_ladder`.
#[must_use]
pub fn overload_ingest() -> IngestConfig {
    IngestConfig {
        ring_capacity: 1024,
        degradation: Some(DegradationConfig {
            capacity: 1024,
            drain_rate: 1000.0,
            ..DegradationConfig::default()
        }),
    }
}

// ---------------------------------------------------------------------------
// Reading a front-end's outputs
// ---------------------------------------------------------------------------

/// Mean final satisfaction of both sides over the shards' registries. Values
/// are summed in `(id, shard)` order so the floating-point sum repeats.
fn satisfaction_means<'a>(
    registries: impl Iterator<Item = &'a SatisfactionRegistry>,
) -> (f64, f64) {
    fn mean(mut values: Vec<(u64, usize, f64)>) -> f64 {
        values.sort_by_key(|&(id, shard, _)| (id, shard));
        let sum: f64 = values.iter().map(|v| v.2).sum();
        sum / values.len().max(1) as f64
    }
    let mut consumers = Vec::new();
    let mut providers = Vec::new();
    for (shard, registry) in registries.enumerate() {
        consumers.extend(
            registry
                .consumer_satisfactions()
                .map(|(id, s)| (id.raw(), shard, s.value())),
        );
        providers.extend(
            registry
                .provider_satisfactions()
                .map(|(id, s)| (id.raw(), shard, s.value())),
        );
    }
    (mean(consumers), mean(providers))
}

/// Folds one inline `submit_batch` callback result into the tallies.
struct InlineTally {
    reading: Reading,
    digest: OutcomeDigest,
}

impl InlineTally {
    fn new(offered: usize) -> Self {
        Self {
            reading: Reading {
                offered: offered as u64,
                trail: Vec::with_capacity(offered),
                latency_ns: Vec::with_capacity(offered),
                quanta_ns: Vec::with_capacity(offered / BATCH + 1),
                ..Reading::default()
            },
            digest: OutcomeDigest::default(),
        }
    }

    /// Records one decision, stamped `since` the `submit_batch` call began:
    /// the caller-visible submit → decision time, the inline counterpart of
    /// the threaded front's enqueue → decision samples (which also share one
    /// stamp per batch).
    fn record(
        &mut self,
        since: Instant,
        query: &Query,
        result: SbqaResult<&sbqa_core::AllocationDecision>,
    ) {
        self.reading.latency_ns.push(nanos(since.elapsed()));
        match result {
            Ok(decision) => {
                self.reading.mediated += 1;
                self.digest.push(query.id, &decision.selected, false, false);
            }
            Err(SbqaError::QueryShed { .. }) => {
                self.reading.shed += 1;
                self.digest.push(query.id, &[], false, true);
            }
            Err(_) => {
                self.reading.starved += 1;
                self.digest.push(query.id, &[], true, false);
            }
        }
        self.reading.trail.push(self.digest.value());
    }

    fn finish(mut self, wall: Duration) -> Reading {
        self.reading.wall_s = wall.as_secs_f64();
        self.reading.summarize_latency();
        self.reading
    }
}

fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// What a serialized `LatencyRecorder` holds: the samples in arrival order.
/// The recorder answers percentile queries only; its serialized form is the
/// public way to the samples themselves.
#[derive(serde::Deserialize)]
struct RecordedLatency {
    samples: Vec<u64>,
}

/// A one-shard service's latency samples, which its shard records in drain
/// order: the stream's order.
fn samples_in_stream_order(report: &ServiceReport) -> Result<Vec<u64>, String> {
    let [shard] = report.shards.as_slice() else {
        return Err("the threaded workloads run one shard".to_string());
    };
    serde_json::to_string(&shard.latency)
        .and_then(|json| serde_json::from_str::<RecordedLatency>(&json))
        .map(|recorded| recorded.samples)
        .map_err(|e| format!("latency samples: {e}"))
}

/// Fills a reading from a finished threaded run.
fn read_service(
    reading: &mut Reading,
    report: &ServiceReport,
    shards: &[sbqa_service::MediatorShard],
) -> Result<(), String> {
    reading.latency_ns = samples_in_stream_order(report)?;
    if reading.latency_ns.len() as u64 != reading.offered {
        return Err(format!(
            "{} latency samples for {} queries offered",
            reading.latency_ns.len(),
            reading.offered
        ));
    }
    reading.summarize_latency();
    reading.mediated = report.total.mediated as u64;
    reading.starved = report.total.starved as u64;
    reading.shed = report.shed();
    let (consumers, providers) =
        satisfaction_means(shards.iter().map(|s| s.mediator().satisfaction()));
    reading.consumer_satisfaction = consumers;
    reading.provider_satisfaction = providers;
    let mut digest = OutcomeDigest::default();
    reading.trail = report
        .outcomes
        .iter()
        .map(|outcome| {
            digest.push(
                outcome.query,
                &outcome.selected,
                outcome.starved,
                outcome.shed,
            );
            digest.value()
        })
        .collect();
    if let Some(stats) = report.degradation_stats() {
        reading
            .layer
            .insert("core.degrade.tier_normal", stats.normal as f64);
        reading
            .layer
            .insert("core.degrade.tier_shrink", stats.shrink_kn as f64);
        reading
            .layer
            .insert("core.degrade.tier_baseline", stats.baseline as f64);
        reading.layer.insert("core.degrade.shed", stats.shed as f64);
        reading
            .layer
            .insert("core.degrade.transitions", stats.transitions as f64);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------------

/// How a threaded segment offers its stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Offer {
    /// Open loop: one burst of [`BATCH`] due every `BATCH / rate` seconds;
    /// the generator spins on the clock and never sleeps past a due time.
    Paced {
        /// Offer rate, queries per second.
        rate: f64,
    },
    /// Back-to-back `enqueue_batch`; the producer blocks on a full ring.
    Saturating,
}

/// One threaded segment over `stream` on a freshly spawned service. Set-up
/// is everything since `began`: generating the stream, building the world,
/// spawning.
pub fn threaded_segment(
    began: Instant,
    stream: &[Query],
    mut running: MediationService,
    offer: Offer,
) -> Result<Reading, String> {
    let mut reading = Reading {
        setup_s: began.elapsed().as_secs_f64(),
        offered: stream.len() as u64,
        ..Reading::default()
    };
    let bursts = stream.len().div_ceil(BATCH);
    let mut late = Vec::with_capacity(bursts);
    let mut enqueued_at = Vec::with_capacity(bursts);
    let mut inside_enqueue = Duration::ZERO;
    let start = Instant::now();
    for (burst, chunk) in stream.chunks(BATCH).enumerate() {
        let mut now = Instant::now();
        if let Offer::Paced { rate } = offer {
            let due = start + Duration::from_secs_f64(burst as f64 * BATCH as f64 / rate);
            // Sleep while the burst is far off, so the box's other work runs
            // on this core instead of preempting the shard thread, then spin
            // on the clock: the generator never sleeps past a due time.
            if let Some(nap) = due.checked_duration_since(now + SPIN_MARGIN) {
                std::thread::sleep(nap);
                now = Instant::now();
            }
            while now < due {
                std::hint::spin_loop();
                now = Instant::now();
            }
            late.push(nanos(now - due));
        }
        // The service stamps the batch as `enqueue_batch` begins, a few
        // hundred nanoseconds after this.
        enqueued_at.push(nanos(now - start));
        running.enqueue_batch(chunk.iter().cloned());
        inside_enqueue += now.elapsed();
    }
    let (report, shards) = running.finish_with_shards();
    let wall = start.elapsed();
    reading.wall_s = wall.as_secs_f64();
    read_service(&mut reading, &report, &shards)?;
    // One shard drains in stream order, so a batch's last decision came at
    // its enqueue stamp plus its last query's latency.
    let mut previous = 0;
    reading.quanta_ns = enqueued_at
        .iter()
        .enumerate()
        .map(|(burst, at)| {
            let last = ((burst + 1) * BATCH).min(stream.len()) - 1;
            let decided = (at + reading.latency_ns[last]).max(previous);
            let quantum = decided - previous;
            previous = decided;
            quantum
        })
        .collect();
    reading.layer.insert(
        "service.ingest.enqueue_ns",
        inside_enqueue.as_nanos() as f64 / stream.len() as f64,
    );
    reading.layer.insert(
        "service.ingest.blocked_share",
        inside_enqueue.as_secs_f64() / wall.as_secs_f64(),
    );
    reading.late_bursts = late
        .iter()
        .map(|&ns| ns as f64 / 1e3 > MAX_LATE_US)
        .collect();
    if let Some(p99) = percentile(&mut late, 0.99) {
        reading
            .layer
            .insert("service.ingest.gen_late_p99_us", p99 as f64 / 1e3);
    }
    reading.check_conservation()?;
    Ok(reading)
}

/// Drives a stream and the writes that follow each batch through an inline
/// `ShardedMediator`, one `submit_batch` per batch, and returns the wall time.
/// With `gate_pq` the brute-force `Pq` gate runs at each quarter of the
/// stream; its time is taken out of the wall.
fn drive_sharded(
    service: &mut ShardedMediator,
    stream: &[Query],
    schedule: &OpSchedule,
    oracle: &HashOracle,
    tally: &mut InlineTally,
    gate_pq: bool,
) -> Result<Duration, String> {
    let batches = stream.len() / BATCH;
    let mut gate_time = Duration::ZERO;
    let start = Instant::now();
    for (batch, chunk) in stream.chunks(BATCH).enumerate() {
        let since = Instant::now();
        service.submit_batch(chunk, oracle, |_, query, result| {
            tally.record(since, query, result);
        });
        tally.reading.errored += service.apply(schedule.after_batch(batch));
        tally.reading.quanta_ns.push(nanos(since.elapsed()));
        if gate_pq && (batch + 1) % (batches / 4).max(1) == 0 {
            let gate = Instant::now();
            check_pq(service, stream, batch * BATCH, PQ_SAMPLES / 4)?;
            gate_time += gate.elapsed();
        }
    }
    Ok(start.elapsed() - gate_time)
}

/// One `sync_multicap_churn` segment; `gate_pq` on the run's first one only.
fn inline_churn_segment(seed: u64, sizing: &Sizing, gate_pq: bool) -> Result<Reading, String> {
    let count = sizing.queries(Workload::SyncMulticapChurn);
    let generated = Instant::now();
    let stream = gen::multicap_stream(seed, count, 1.0 / PACED_RATE);
    let schedule = OpSchedule::generate(seed, count / BATCH, sizing.providers, Churn::Full);
    let mut service = sharded_world(seed, 2, sizing.providers)?;
    let mut tally = InlineTally::new(count);
    tally.reading.setup_s = generated.elapsed().as_secs_f64();

    let oracle = HashOracle::new(seed);
    let wall = drive_sharded(
        &mut service,
        &stream,
        &schedule,
        &oracle,
        &mut tally,
        gate_pq,
    )?;

    let (consumers, providers) =
        satisfaction_means(service.shards().map(|s| s.mediator().satisfaction()));
    let mut reading = tally.finish(wall);
    reading.consumer_satisfaction = consumers;
    reading.provider_satisfaction = providers;
    reading.check_conservation()?;
    Ok(reading)
}

/// `ProviderRegistry::candidates` against a brute-force filter of
/// `registry.iter()`, for `samples` stream queries starting at `from`, each
/// on a clone of the registry of the shard the router assigns it to.
fn check_pq(
    service: &ShardedMediator,
    stream: &[Query],
    from: usize,
    samples: usize,
) -> Result<(), String> {
    let mut registries: Vec<_> = service
        .shards()
        .map(|shard| shard.mediator().providers().clone())
        .collect();
    let stride = (stream.len() / samples.max(1)).max(1) | 1;
    for step in 0..samples {
        let query = &stream[(from + step * stride) % stream.len()];
        let registry = &mut registries[service.router().shard_of_query(query.id)];
        let mut expected: Vec<ProviderId> = registry
            .iter()
            .filter(|p| p.online && query.required.matched_by(p.capabilities))
            .map(|p| p.id)
            .collect();
        expected.sort_unstable();
        let got: Vec<ProviderId> = registry.candidates(query).iter().map(|p| p.id).collect();
        if got != expected {
            return Err(format!(
                "Pq gate: query {} ({}) resolved {} candidates, brute force finds {}",
                query.id.raw(),
                query.required,
                got.len(),
                expected.len()
            ));
        }
    }
    Ok(())
}

/// Where the replicated segment crashes: before a batch near each tenth of
/// the stream (0–3 batches past it, so the crash does not always fall right
/// after a checkpoint and promotions have a journal to replay), alternating
/// shards.
pub(crate) fn crash_before(batch: usize, batches: usize) -> Option<usize> {
    (1..=CRASHES)
        .find(|k| batch == k * batches / (CRASHES + 1) + k % 4)
        .map(|k| (k - 1) % 2)
}

fn replicated_segment(seed: u64, sizing: &Sizing) -> Result<Reading, String> {
    let count = sizing.queries(Workload::ReplicatedFailover);
    let generated = Instant::now();
    let stream = gen::single_stream(seed, count, 1.0 / PACED_RATE);
    let schedule = OpSchedule::generate(seed, count / BATCH, sizing.providers, Churn::LoadOnly);
    let mut service = replicated_world(seed, 2, sizing.providers)?;
    let oracle = HashOracle::new(seed);
    let mut tally = InlineTally::new(count);
    tally.reading.setup_s = generated.elapsed().as_secs_f64();

    let batches = count / BATCH;
    let start = Instant::now();
    for (batch, chunk) in stream.chunks(BATCH).enumerate() {
        let began = Instant::now();
        if let Some(shard) = crash_before(batch, batches) {
            service
                .crash_shard(shard, &oracle)
                .map_err(|e| format!("promotion of shard {shard} failed: {e}"))?;
        }
        let since = Instant::now();
        service
            .submit_batch(chunk, &oracle, |_, query, result| {
                tally.record(since, query, result);
            })
            .map_err(|e| format!("replication stream broke at batch {batch}: {e}"))?;
        tally.reading.errored += service.apply(schedule.after_batch(batch));
        tally.reading.quanta_ns.push(nanos(began.elapsed()));
    }
    let wall = start.elapsed();

    let (consumers, providers) = satisfaction_means(
        (0..service.shard_count()).map(|i| service.shard(i).primary().mediator().satisfaction()),
    );
    let mut reading = tally.finish(wall);
    reading.consumer_satisfaction = consumers;
    reading.provider_satisfaction = providers;
    reading.check_conservation()?;
    Ok(reading)
}

/// The `replicated_failover` stream and ops through an uncrashed
/// `ShardedMediator`: the digest a crashed-and-promoted run must reproduce.
fn uncrashed_reference(seed: u64, sizing: &Sizing) -> Result<Reading, String> {
    let count = sizing.queries(Workload::ReplicatedFailover);
    let stream = gen::single_stream(seed, count, 1.0 / PACED_RATE);
    let schedule = OpSchedule::generate(seed, count / BATCH, sizing.providers, Churn::LoadOnly);
    let mut service = sharded_world(seed, 2, sizing.providers)?;
    let oracle = HashOracle::new(seed);
    let mut tally = InlineTally::new(count);
    let wall = drive_sharded(&mut service, &stream, &schedule, &oracle, &mut tally, false)?;
    Ok(tally.finish(wall))
}

/// The `open_single` stream through a plain `Mediator::sbqa(config, seed)`.
fn bare_reference(seed: u64, sizing: &Sizing, count: usize) -> Result<Reading, String> {
    let stream = gen::single_stream(seed, count, 1.0 / PACED_RATE);
    let mut mediator = bare_world(seed, sizing.providers)?;
    let oracle = HashOracle::new(seed);
    let mut tally = InlineTally::new(count);
    let start = Instant::now();
    for query in &stream {
        let result = mediator.submit_in_place(query, &oracle);
        tally.record(start, query, result);
    }
    Ok(tally.finish(start.elapsed()))
}

// ---------------------------------------------------------------------------
// Gates
// ---------------------------------------------------------------------------

/// Requires two outcome trails to agree up to the shorter one's length,
/// naming the first query at which they differ.
fn same_outcomes(what: &str, a: &[u64], b: &[u64]) -> Result<(), String> {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        // Streams mint ids 1, 2, … in outcome order, so position + 1 is
        // the query id.
        Some(position) => Err(format!(
            "{what}: outcomes differ, first at query id {}",
            position + 1
        )),
        None => Ok(()),
    }
}

/// Deterministic outputs must be equal across a run's segments.
fn segments_repeat(what: &str, segments: &[Reading]) -> Result<String, String> {
    let Some((first, rest)) = segments.split_first() else {
        return Err(format!("{what}: no segment ran"));
    };
    for (index, other) in rest.iter().enumerate() {
        same_outcomes(
            &format!("{what}: segment {} vs segment 0", index + 1),
            &first.trail,
            &other.trail,
        )?;
        let same = first.trail.len() == other.trail.len()
            && (first.mediated, first.starved, first.shed)
                == (other.mediated, other.starved, other.shed)
            && first.consumer_satisfaction.to_bits() == other.consumer_satisfaction.to_bits()
            && first.provider_satisfaction.to_bits() == other.provider_satisfaction.to_bits();
        if !same {
            return Err(format!(
                "{what}: tallies or final satisfaction of segment {} differ from segment 0",
                index + 1
            ));
        }
    }
    Ok(format!(
        "{what}: digest {:016x}, tallies and satisfaction equal across {} segments",
        first.digest(),
        segments.len()
    ))
}

/// Runs one workload: all its segments and every correctness gate.
///
/// # Errors
///
/// The first gate that fails, with the first differing query id where one
/// exists.
pub fn run(workload: Workload, seed: u64, sizing: &Sizing) -> Result<Run, String> {
    let mut run = Run::default();
    match workload {
        Workload::OpenSingle => {
            let paced = sizing.queries(workload);
            let saturating = sizing.saturation_queries();
            for _ in 0..sizing.segments {
                let began = Instant::now();
                let stream = gen::single_stream(seed, paced, 1.0 / PACED_RATE);
                let running = threaded_world(seed, sizing.providers, open_single_ingest())?;
                run.segment(threaded_segment(
                    began,
                    &stream,
                    running,
                    Offer::Paced { rate: PACED_RATE },
                )?);
            }
            for _ in 0..sizing.saturation_segments() {
                let began = Instant::now();
                let stream = gen::single_stream(seed, saturating, 1.0 / PACED_RATE);
                let running = threaded_world(seed, sizing.providers, open_single_ingest())?;
                run.saturation_segment(threaded_segment(
                    began,
                    &stream,
                    running,
                    Offer::Saturating,
                )?);
            }
            run.gates.push(segments_repeat("paced", &run.segments)?);
            run.gates
                .push(segments_repeat("saturation", &run.saturation)?);
            // One reference pass covers both: the paced stream is a prefix
            // of the saturation stream.
            let reference = bare_reference(seed, sizing, paced.max(saturating))?;
            same_outcomes(
                "paced 1-shard service vs bare Mediator",
                &run.segments[0].trail,
                &reference.trail,
            )?;
            same_outcomes(
                "saturated 1-shard service vs bare Mediator",
                &run.saturation[0].trail,
                &reference.trail,
            )?;
            run.gates.push(format!(
                "1-shard service == bare Mediator::sbqa(config, seed) over {} queries",
                reference.trail.len()
            ));
        }
        Workload::SyncMulticapChurn => {
            for segment in 0..sizing.segments {
                run.segment(inline_churn_segment(seed, sizing, segment == 0)?);
            }
            run.gates.push(segments_repeat("churn", &run.segments)?);
            run.gates.push(format!(
                "candidates == brute-force filter of registry.iter() on {PQ_SAMPLES} sampled queries"
            ));
        }
        Workload::ReplicatedFailover => {
            for _ in 0..sizing.segments {
                run.segment(replicated_segment(seed, sizing)?);
            }
            run.gates.push(segments_repeat("failover", &run.segments)?);
            let reference = uncrashed_reference(seed, sizing)?;
            same_outcomes(
                "crashed ReplicatedMediator vs uncrashed ShardedMediator",
                &run.segments[0].trail,
                &reference.trail,
            )?;
            if reference.trail.len() != run.segments[0].trail.len() {
                return Err("failover: reference run returned another number of outcomes".into());
            }
            run.gates.push(format!(
                "{CRASHES} promotions == uncrashed ShardedMediator over {} queries",
                reference.trail.len()
            ));
        }
        Workload::OverloadLadder => {
            let count = sizing.queries(workload);
            for _ in 0..sizing.segments {
                let began = Instant::now();
                let stream = gen::overload_stream(seed, count);
                let running = threaded_world(seed, sizing.providers, overload_ingest())?;
                run.segment(threaded_segment(
                    began,
                    &stream,
                    running,
                    Offer::Saturating,
                )?);
            }
            run.gates.push(segments_repeat("overload", &run.segments)?);
            let layer = &run.segments[0].layer;
            let tiers = [
                "core.degrade.tier_normal",
                "core.degrade.tier_shrink",
                "core.degrade.tier_baseline",
                "core.degrade.shed",
            ];
            if let Some(missing) = tiers
                .iter()
                .find(|tier| layer.get(**tier).copied().unwrap_or(0.0) <= 0.0)
            {
                return Err(format!("overload: the stream never reached {missing}"));
            }
            run.gates
                .push("all four tiers (normal, shrink-kn, baseline, shed) reached".to_string());
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn counts_are_whole_batches_and_scale_with_the_budget() {
        let sizing = Sizing::full(16);
        for workload in Workload::ALL {
            assert_eq!(sizing.queries(workload) % BATCH, 0);
            assert!(Sizing::full(32).queries(workload) > sizing.queries(workload));
        }
        assert_eq!(sizing.saturation_queries() % BATCH, 0);
        assert_eq!(Sizing::quick().segments, 1);
    }

    #[test]
    fn composite_takes_each_window_from_its_least_disturbed_segment() {
        // Two windows of WINDOW batches; a window's queries all read `ns`.
        let windows = |ns: [u64; 2]| -> Vec<u64> {
            ns.iter().flat_map(|&ns| vec![ns; WINDOW * BATCH]).collect()
        };
        let quanta =
            |ns: [u64; 2]| -> Vec<u64> { ns.iter().flat_map(|&ns| [ns; WINDOW]).collect() };
        let late_in_second_window = {
            let mut late = vec![false; 2 * WINDOW];
            late[WINDOW + 3] = true;
            late
        };
        let mut composite = Composite::default();
        assert_eq!(composite.latency_us(0.5), None);
        // The first segment enqueued a burst of its second window late: that
        // window comes from the other segment, slower though it read.
        composite.absorb(
            &windows([10_000, 5_000]),
            &quanta([3_000, 9_000]),
            &late_in_second_window,
        );
        composite.absorb(&windows([20_000, 8_000]), &quanta([4_000, 5_000]), &[]);
        assert_eq!(composite.discarded_bursts, 1);
        assert_eq!(composite.latency_us(0.0), Some(8.0));
        assert_eq!(composite.latency_us(1.0), Some(10.0));
        let expected = (3_000 + 5_000) * WINDOW as u64;
        assert!((composite.wall_s() - expected as f64 / 1e9).abs() < 1e-15);

        // A window every segment enqueued late comes from the best of them.
        let all_late = vec![true; 2 * WINDOW];
        let mut composite = Composite::default();
        composite.absorb(&windows([7_000, 9_000]), &quanta([1, 1]), &all_late);
        composite.absorb(&windows([6_000, 9_500]), &quanta([1, 1]), &all_late);
        assert_eq!(composite.latency_us(0.0), Some(6.0));
        assert_eq!(composite.latency_us(1.0), Some(9.0));

        // A window's latencies come from one segment, never query by query.
        let mut composite = Composite::default();
        let mut mixed = vec![1_000; WINDOW * BATCH];
        mixed[0] = 900_000_000;
        composite.absorb(&mixed, &[1; WINDOW], &[]);
        composite.absorb(&vec![2_000; WINDOW * BATCH], &[1; WINDOW], &[]);
        assert_eq!(composite.latency_us(0.0), Some(2.0));
    }

    #[test]
    fn run_folds_each_segment_into_the_whole_and_into_its_half() {
        let mut run = Run::default();
        for ns in [30, 10, 20] {
            run.segment(Reading {
                latency_ns: vec![ns * 1_000],
                quanta_ns: vec![ns],
                ..Reading::default()
            });
        }
        let p50 = |part: usize| run.composites[part].latency_us(0.5);
        assert_eq!(
            (p50(0), p50(1), p50(2)),
            (Some(10.0), Some(20.0), Some(10.0))
        );
        assert!(run.segments.iter().all(|r| r.latency_ns.is_empty()));
    }

    #[test]
    fn nine_crashes_alternate_shards() {
        let batches = 1000;
        let crashes: Vec<(usize, usize)> = (0..batches)
            .filter_map(|b| crash_before(b, batches).map(|s| (b, s)))
            .collect();
        assert_eq!(crashes.len(), CRASHES);
        assert_eq!(crashes[0], (101, 0));
        assert_eq!(crashes[1], (202, 1));
        assert_eq!(crashes[8], (901, 0));
    }

    #[test]
    fn differing_trails_name_the_first_query() {
        assert!(same_outcomes("x", &[1, 2, 3], &[1, 2, 3, 4]).is_ok());
        let err = same_outcomes("x", &[1, 2, 3], &[1, 9, 3]).unwrap_err();
        assert!(err.contains("query id 2"), "{err}");
    }

    #[test]
    fn quick_runs_pass_their_gates() {
        for workload in [Workload::SyncMulticapChurn, Workload::ReplicatedFailover] {
            let run = run(workload, 42, &Sizing::quick()).unwrap();
            assert_eq!(run.segments.len(), 1);
            assert!(!run.gates.is_empty());
            assert!(run.segments[0].mediated > 0);
        }
    }
}
