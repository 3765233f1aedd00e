//! The stage replay: spans recorded from outside, around public calls.
//!
//! The traced run takes a workload's stream and drives it through a pipeline
//! assembled here from the same public pieces `Mediator` uses —
//! `ProviderRegistry::candidates` → `SbqaAllocator::allocate_into` →
//! `SatisfactionRegistry::record_mediation` — recording a span at each
//! boundary, and through a twin `Mediator::submit_in_place` for the same
//! query. The replay's decision must equal the twin's, query by query;
//! otherwise the stage table would describe another program and the run
//! fails. Nothing inside the program changes.
//!
//! Spans go into a pre-sized in-memory buffer and are written out once, when
//! the run ends. End-to-end metrics never come from here.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sbqa_core::ranking::rank_indices_by_score;
use sbqa_core::{
    provider_score, resolve_omega, AllocationDecision, IntentionOracle, KnBestScratch,
    KnBestSelector, PlanCacheStats, ProviderRegistry, QueryAllocator, SbqaAllocator,
};
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_types::{ConsumerId, ProviderId, Query, SbqaResult};

use crate::gen::{self, HashOracle, OpSchedule, ProviderSpec, BATCH};
use crate::stats::{median, self_time};
use crate::workloads::{bare_world, World};

/// Calls timed together when one call is too short for the clock.
pub const CHUNK: usize = 256;
/// Raw spans of this many queries are written to the spans file.
pub const RAW_SPAN_QUERIES: u64 = 10_000;

/// Where a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// Root of one replayed query: resolve + allocate + record.
    ReplaySubmit,
    /// `ProviderRegistry::candidates`, single-class requirement.
    ResolveSingle,
    /// `ProviderRegistry::candidates`, answered by a cached plan.
    ResolveHit,
    /// `ProviderRegistry::candidates`, merged (miss or stale plan).
    ResolveCold,
    /// `SbqaAllocator::allocate_into`.
    Allocate,
    /// Satisfaction views + `SatisfactionRegistry::record_mediation`.
    Record,
    /// The twin `Mediator::submit_in_place` of the same query.
    TwinSubmit,
    /// `KnBestSelector::select_block` on the twin generator.
    TwinKnBest,
}

impl Stage {
    const ALL: [Stage; 8] = [
        Stage::ReplaySubmit,
        Stage::ResolveSingle,
        Stage::ResolveHit,
        Stage::ResolveCold,
        Stage::Allocate,
        Stage::Record,
        Stage::TwinSubmit,
        Stage::TwinKnBest,
    ];

    /// The span's name: the module it times.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::ReplaySubmit => "replay.submit",
            Stage::ResolveSingle => "core.registry.resolve_single",
            Stage::ResolveHit => "core.registry.resolve_hit",
            Stage::ResolveCold => "core.registry.resolve_cold",
            Stage::Allocate => "core.mediator.allocate",
            Stage::Record => "satisfaction.record",
            Stage::TwinSubmit => "twin.mediator.submit",
            Stage::TwinKnBest => "twin.knbest.select",
        }
    }
}

/// No parent: the span is a root.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub stage: Stage,
    /// Start, ns since the buffer's origin.
    pub start_ns: u64,
    /// End, ns since the buffer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The query all spans of one request share.
    pub query: u64,
}

/// The in-memory span sink.
#[derive(Debug)]
pub struct SpanBuffer {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanBuffer {
    /// A buffer with room for `capacity` spans.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the buffer was created.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its index.
    pub fn push(
        &mut self,
        stage: Stage,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        query: u64,
    ) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("span buffer fits in u32");
        self.spans.push(Span {
            stage,
            start_ns,
            end_ns,
            parent,
            query,
        });
        index
    }

    /// The recorded spans, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans of queries `1..=RAW_SPAN_QUERIES`, one JSON object a line.
    #[must_use]
    pub fn raw_jsonl(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            if span.query > RAW_SPAN_QUERIES {
                continue;
            }
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"span\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{}}}\n",
                span.stage.name(),
                span.start_ns,
                span.end_ns,
                span.query
            ));
        }
        out
    }
}

/// One row of the stage table.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageRow {
    /// The span name.
    pub name: String,
    /// Spans recorded.
    pub calls: u64,
    /// Sum of the spans' durations, ns.
    pub total_ns: u64,
    /// Sum of the spans' self times (duration minus children), ns.
    pub self_ns: u64,
    /// Median span duration, ns.
    pub median_ns: f64,
}

/// Aggregates spans into one row per stage, with self times.
#[must_use]
pub fn stage_table(spans: &[Span]) -> Vec<StageRow> {
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|span| span.parent != NO_PARENT)
        .map(|span| (span.parent, span.start_ns, span.end_ns))
        .collect();
    children.sort_unstable();
    let mut rows = Vec::new();
    for stage in Stage::ALL {
        let mut durations = Vec::new();
        let mut self_ns = 0;
        for (index, span) in spans.iter().enumerate().filter(|(_, s)| s.stage == stage) {
            let index = index as u32;
            let from = children.partition_point(|c| c.0 < index);
            let to = children.partition_point(|c| c.0 <= index);
            let intervals: Vec<(u64, u64)> =
                children[from..to].iter().map(|c| (c.1, c.2)).collect();
            self_ns += self_time(span.start_ns, span.end_ns, &intervals);
            durations.push((span.end_ns - span.start_ns) as f64);
        }
        if durations.is_empty() {
            continue;
        }
        rows.push(StageRow {
            name: stage.name().to_string(),
            calls: durations.len() as u64,
            total_ns: durations.iter().sum::<f64>() as u64,
            self_ns,
            median_ns: median(&durations).unwrap_or(0.0),
        });
    }
    rows
}

/// What the stage replay of one stream produced.
#[derive(Debug)]
pub struct Replay {
    /// Every span, in recording order.
    pub spans: SpanBuffer,
    /// Queries replayed.
    pub queries: u64,
    /// Mean `Candidates::len` over the replayed queries.
    pub mean_pq: f64,
    /// The twin mediator's plan-cache counters at the end of the stream.
    pub cache: PlanCacheStats,
    /// Per-query cost of the harness oracle alone over `Kn`, median over
    /// chunks of [`CHUNK`] queries, ns.
    pub oracle_ns: f64,
    /// Per-query cost of `resolve_omega` + `provider_score` over `Kn`
    /// (oracle included), median over chunks, ns.
    pub score_ns: f64,
    /// Per-query cost of `rank_indices_by_score`, median over chunks, ns.
    pub rank_ns: f64,
}

/// The registry and satisfaction halves of the harness-assembled pipeline —
/// what `Mediator` keeps behind its own write surface.
struct Pipeline {
    registry: ProviderRegistry,
    satisfaction: SatisfactionRegistry,
}

impl World for Pipeline {
    fn register(&mut self, spec: ProviderSpec) -> SbqaResult<()> {
        self.registry
            .register(spec.id, spec.capabilities, spec.capacity);
        self.satisfaction.register_provider(spec.id);
        Ok(())
    }
    fn consumer(&mut self, id: ConsumerId) {
        self.satisfaction.register_consumer(id);
    }
    fn load(&mut self, id: ProviderId, utilization: f64, queue_length: usize) -> SbqaResult<()> {
        self.registry.update_load(id, utilization, queue_length)
    }
    fn online(&mut self, id: ProviderId, online: bool) -> SbqaResult<()> {
        self.registry.set_online(id, online)
    }
}

/// The `Kn` sets of up to [`CHUNK`] queries, kept so that the stages too
/// short for the clock are timed over the whole chunk at once.
#[derive(Default)]
struct KnChunk {
    queries: Vec<(usize, usize, usize)>,
    ids: Vec<ProviderId>,
    scores: Vec<f64>,
    order: Vec<u32>,
    oracle_ns: Vec<f64>,
    score_ns: Vec<f64>,
    rank_ns: Vec<f64>,
}

impl KnChunk {
    fn push(&mut self, query: usize, ids: &[ProviderId]) {
        self.queries.push((query, self.ids.len(), ids.len()));
        self.ids.extend_from_slice(ids);
    }

    fn flush(
        &mut self,
        stream: &[Query],
        oracle: &HashOracle,
        satisfaction: &SatisfactionRegistry,
    ) {
        if self.queries.is_empty() {
            return;
        }
        let config = gen::system_config();
        let per_query = |start: Instant, n: usize| start.elapsed().as_nanos() as f64 / n as f64;
        let n = self.queries.len();

        let start = Instant::now();
        for &(q, from, len) in &self.queries {
            for &id in &self.ids[from..from + len] {
                black_box(oracle.consumer_intention(&stream[q], id));
                black_box(oracle.provider_intention(id, &stream[q]));
            }
        }
        self.oracle_ns.push(per_query(start, n));

        self.scores.clear();
        let start = Instant::now();
        for &(q, from, len) in &self.queries {
            let query = &stream[q];
            let consumer_sat = satisfaction.consumer_satisfaction(query.consumer);
            for &id in &self.ids[from..from + len] {
                let omega = resolve_omega(
                    config.omega,
                    consumer_sat,
                    satisfaction.provider_satisfaction(id),
                );
                self.scores.push(provider_score(
                    oracle.provider_intention(id, query),
                    oracle.consumer_intention(query, id),
                    omega,
                    config.epsilon,
                ));
            }
        }
        self.score_ns.push(per_query(start, n));

        let start = Instant::now();
        for &(_, from, len) in &self.queries {
            let ids = &self.ids[from..from + len];
            rank_indices_by_score(&self.scores[from..from + len], |i| ids[i], &mut self.order);
            black_box(&self.order);
        }
        self.rank_ns.push(per_query(start, n));

        self.queries.clear();
        self.ids.clear();
    }
}

/// Replays `stream` (and the ops that follow each batch, if any) through the
/// harness-assembled pipeline and the twin mediator.
///
/// # Errors
///
/// The first query whose replayed decision differs from the twin's.
pub fn replay(
    seed: u64,
    providers: usize,
    stream: &[Query],
    schedule: Option<&OpSchedule>,
) -> Result<Replay, String> {
    let config = gen::system_config();
    let oracle = HashOracle::new(seed);
    let mut pipeline = Pipeline {
        registry: ProviderRegistry::new(),
        satisfaction: SatisfactionRegistry::new(config.satisfaction_window),
    };
    pipeline
        .populate(providers)
        .map_err(|e| format!("pipeline world: {e}"))?;
    let mut allocator =
        SbqaAllocator::new(config.clone(), seed).map_err(|e| format!("allocator: {e}"))?;
    let mut twin = bare_world(seed, providers)?;

    // The stage twin: KnBest on a generator seeded like the allocator's, so
    // it makes the same draws without touching the replay's own stream.
    let selector = KnBestSelector::new(config.knbest_k, config.knbest_kn);
    let mut twin_rng = ChaCha8Rng::seed_from_u64(seed);
    let mut twin_scratch = KnBestScratch::new();
    let mut chunk = KnChunk::default();

    let mut decision = AllocationDecision::default();
    let mut consumer_view = Vec::new();
    let mut provider_view = Vec::new();
    let mut spans = SpanBuffer::with_capacity(stream.len() * 6);
    let mut pq_total = 0u64;

    for (position, query) in stream.iter().enumerate() {
        let id = query.id.raw();
        // The replay and the twin take turns going first, so neither always
        // pays for the other's cold caches.
        let twin_first = position % 2 == 1;
        let mut twin_outcome = None;
        if twin_first {
            let t4 = spans.now();
            let twin_decision = twin.submit_in_place(query, &oracle);
            twin_outcome = Some((t4, spans.now(), twin_decision));
        }

        let before = pipeline.registry.plan_cache_stats();
        let t0 = spans.now();
        let candidates = pipeline.registry.candidates(query);
        let t1 = spans.now();
        pq_total += candidates.len() as u64;
        let allocated = if candidates.is_empty() {
            Err(())
        } else {
            allocator
                .allocate_into(
                    query,
                    candidates,
                    &oracle,
                    &pipeline.satisfaction,
                    &mut decision,
                )
                .map_err(|_| ())
        };
        let t2 = spans.now();
        if allocated.is_ok() {
            decision.consumer_view_into(&mut consumer_view);
            decision.provider_view_into(&mut provider_view);
            pipeline.satisfaction.record_mediation(
                query.id,
                query.consumer,
                query.replication,
                &consumer_view,
                &provider_view,
            );
        }
        let t3 = spans.now();

        let after = pipeline.registry.plan_cache_stats();
        let resolve = if after.hits > before.hits {
            Stage::ResolveHit
        } else if after.lookups() > before.lookups() {
            Stage::ResolveCold
        } else {
            Stage::ResolveSingle
        };
        let root = spans.push(Stage::ReplaySubmit, t0, t3, NO_PARENT, id);
        spans.push(resolve, t0, t1, root, id);
        spans.push(Stage::Allocate, t1, t2, root, id);
        spans.push(Stage::Record, t2, t3, root, id);

        if !twin_first {
            let t4 = spans.now();
            let twin_decision = twin.submit_in_place(query, &oracle);
            twin_outcome = Some((t4, spans.now(), twin_decision));
        }
        let (t4, t5, twin_decision) = twin_outcome.expect("the twin ran before or after");
        spans.push(Stage::TwinSubmit, t4, t5, NO_PARENT, id);
        let same = match (&allocated, twin_decision) {
            (Ok(()), Ok(twin_decision)) => *twin_decision == decision,
            (Err(()), Err(_)) => true,
            _ => false,
        };
        if !same {
            return Err(format!(
                "trace replay: decision differs from Mediator::submit_in_place at query id {id}"
            ));
        }

        if allocated.is_ok() {
            // Resolved again (a guaranteed hit, untimed): the first view's
            // borrow ended with the allocation.
            let view = pipeline.registry.candidates(query);
            let t6 = spans.now();
            let kn = selector.select_block(view, &mut twin_rng, &mut twin_scratch);
            let t7 = spans.now();
            spans.push(Stage::TwinKnBest, t6, t7, NO_PARENT, id);
            if !kn
                .ids
                .iter()
                .eq(decision.proposals.iter().map(|p| &p.provider))
            {
                return Err(format!(
                    "trace replay: twin KnBest drew another Kn than the allocator at query id {id}"
                ));
            }
            chunk.push(position, kn.ids);
            if chunk.queries.len() == CHUNK {
                chunk.flush(stream, &oracle, &pipeline.satisfaction);
            }
        }

        if let Some(schedule) = schedule {
            if (position + 1) % BATCH == 0 {
                let ops = schedule.after_batch(position / BATCH);
                if pipeline.apply(ops) + twin.apply(ops) > 0 {
                    return Err(format!(
                        "trace replay: a registry write after query id {id} was rejected"
                    ));
                }
            }
        }
    }
    chunk.flush(stream, &oracle, &pipeline.satisfaction);

    Ok(Replay {
        spans,
        queries: stream.len() as u64,
        mean_pq: pq_total as f64 / stream.len().max(1) as f64,
        cache: twin.plan_cache_stats(),
        oracle_ns: median(&chunk.oracle_ns).unwrap_or(0.0),
        score_ns: median(&chunk.score_ns).unwrap_or(0.0),
        rank_ns: median(&chunk.rank_ns).unwrap_or(0.0),
    })
}

/// Looks a stage up in a table.
#[must_use]
pub fn row(table: &[StageRow], stage: Stage) -> Option<&StageRow> {
    table.iter().find(|row| row.name == stage.name())
}

/// `(resolve + allocate + record) ÷ twin submit` time: how well the
/// harness-assembled stages add up to `Mediator::submit_in_place`. The stage
/// spans tile their root and have no children, so their durations are their
/// self times. Summed per chunk of [`CHUNK`] queries and reported as the
/// median over chunks, so that one stall on either side spoils one chunk,
/// not the run.
#[must_use]
pub fn stage_sum_ratio(spans: &[Span]) -> f64 {
    let mut chunks: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for span in spans {
        let (stages, twin) = chunks
            .entry(span.query.saturating_sub(1) / CHUNK as u64)
            .or_default();
        let duration = span.end_ns - span.start_ns;
        match span.stage {
            Stage::ResolveSingle
            | Stage::ResolveHit
            | Stage::ResolveCold
            | Stage::Allocate
            | Stage::Record => *stages += duration,
            Stage::TwinSubmit => *twin += duration,
            Stage::ReplaySubmit | Stage::TwinKnBest => {}
        }
    }
    let ratios: Vec<f64> = chunks
        .values()
        .map(|&(stages, twin)| stages as f64 / twin.max(1) as f64)
        .collect();
    median(&ratios).unwrap_or(0.0)
}

/// Human-readable stage table.
#[must_use]
pub fn render_table(table: &[StageRow]) -> String {
    let mut out = format!(
        "{:<32} {:>9} {:>12} {:>12} {:>11}\n",
        "span", "calls", "total_ms", "self_ms", "median_ns"
    );
    for row in table {
        out.push_str(&format!(
            "{:<32} {:>9} {:>12.3} {:>12.3} {:>11.0}\n",
            row.name,
            row.calls,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.median_ns
        ));
    }
    out
}

/// Stage metrics a replay contributes to the per-layer list.
#[must_use]
pub fn replay_metrics(replay: &Replay, table: &[StageRow]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut out = BTreeMap::new();
    let median_of = |stage| row(table, stage).map_or((0.0, 0), |r| (r.median_ns, r.calls));
    out.insert("core.mediator.allocate_ns", median_of(Stage::Allocate));
    out.insert("satisfaction.record_ns", median_of(Stage::Record));
    out.insert("core.knbest.select_ns", median_of(Stage::TwinKnBest));
    let chunks = replay.queries / CHUNK as u64;
    out.insert("oracle.intentions_ns", (replay.oracle_ns, chunks));
    out.insert("core.scoring.score_ns", (replay.score_ns, chunks));
    out.insert("core.ranking.rank_ns", (replay.rank_ns, chunks));
    out.insert(
        "core.mediator.stage_sum_ratio",
        (stage_sum_ratio(replay.spans.spans()), replay.queries),
    );
    out.insert("core.registry.mean_pq", (replay.mean_pq, replay.queries));
    let cache = replay.cache;
    out.insert(
        "core.registry.plan_hit_rate",
        (cache.hit_rate(), cache.lookups()),
    );
    out.insert(
        "core.registry.plan_stale_rebuilds",
        (cache.stale_rebuilds as f64, cache.lookups()),
    );
    out.insert(
        "core.registry.plan_evictions",
        (cache.evictions as f64, cache.lookups()),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Churn;

    #[test]
    fn table_computes_self_time_from_parent_links() {
        let mut buffer = SpanBuffer::with_capacity(8);
        let root = buffer.push(Stage::ReplaySubmit, 0, 100, NO_PARENT, 1);
        buffer.push(Stage::ResolveSingle, 0, 10, root, 1);
        buffer.push(Stage::Allocate, 10, 70, root, 1);
        buffer.push(Stage::Record, 75, 95, root, 1);
        buffer.push(Stage::TwinSubmit, 100, 190, NO_PARENT, 1);
        let table = stage_table(buffer.spans());
        let root_row = row(&table, Stage::ReplaySubmit).unwrap();
        assert_eq!((root_row.total_ns, root_row.self_ns), (100, 10));
        assert_eq!(row(&table, Stage::Allocate).unwrap().self_ns, 60);
        assert!((stage_sum_ratio(buffer.spans()) - 1.0).abs() < 1e-12);
        let raw = buffer.raw_jsonl();
        assert_eq!(raw.lines().count(), 5);
        assert!(raw.contains("\"parent\":null") && raw.contains("\"parent\":0"));
    }

    #[test]
    fn replay_agrees_with_the_twin_on_a_churning_stream() {
        let stream = gen::multicap_stream(42, 20 * BATCH, 0.001);
        let schedule = OpSchedule::generate(42, 20, 2000, Churn::Full);
        let replay = replay(42, 2000, &stream, Some(&schedule)).unwrap();
        let table = stage_table(replay.spans.spans());
        assert_eq!(
            row(&table, Stage::ReplaySubmit).unwrap().calls,
            stream.len() as u64
        );
        assert!(row(&table, Stage::ResolveCold).is_some());
        assert!(row(&table, Stage::ResolveSingle).is_some());
        assert!(replay.mean_pq > 0.0 && replay.score_ns > 0.0);
        assert!(replay.cache.lookups() > 0);
    }
}
