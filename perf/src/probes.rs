//! Layer probes of the traced run: public calls into one layer at a time,
//! timed from outside, plus whole-stream passes through each front-end that
//! give the front-end "tax" over the bare mediator.
//!
//! A call shorter than ten clock reads is never timed alone: such calls are
//! timed [`CHUNK`] at a time and the per-call cost is the median over chunks.

use std::hint::black_box;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use sbqa_boinc::{Scenario, ScenarioId};
use sbqa_core::{
    DegradationConfig, DegradationLadder, DegradationStats, ProviderRegistry, QueryAllocator,
    RegistryDelta, SbqaAllocator,
};
use sbqa_metrics::LatencyRecorder;
use sbqa_replication::{SharedDeltaLog, StandbyShard};
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_service::{BoundedRing, ShardRouter};
use sbqa_types::{Capability, ConsumerId, Query, QueryId};

use crate::alloc_count::counted;
use crate::gen::{self, Churn, HashOracle, OpSchedule, BATCH, CLASSES};
use crate::stats::{median, percentile};
use crate::trace::CHUNK;
use crate::workloads::{
    bare_world, crash_before, open_single_ingest, replicated_world, sharded_world,
    threaded_segment, threaded_world, Offer, World, PACED_RATE,
};

/// One per-layer reading: the value and how many samples stand behind it.
pub type Sample = (f64, u64);

/// Times `chunks` chunks of [`CHUNK`] calls of `call` (given the running call
/// index) and returns the median per-call cost in ns.
fn chunked_ns(chunks: usize, mut call: impl FnMut(usize)) -> Sample {
    let mut per_call = Vec::with_capacity(chunks);
    for chunk in 0..chunks {
        let start = Instant::now();
        for i in 0..CHUNK {
            call(chunk * CHUNK + i);
        }
        per_call.push(start.elapsed().as_nanos() as f64 / CHUNK as f64);
    }
    (median(&per_call).unwrap_or(0.0), (chunks * CHUNK) as u64)
}

/// Cost of one `Instant::now()`, ns.
#[must_use]
pub fn clock_ns() -> Sample {
    chunked_ns(64, |_| {
        black_box(Instant::now());
    })
}

/// `ShardRouter::shard_of_query`.
#[must_use]
pub fn router_assign_ns(seed: u64) -> Sample {
    let router = ShardRouter::new(2, seed);
    chunked_ns(64, |i| {
        black_box(router.shard_of_query(QueryId::new(i as u64)));
    })
}

/// `BoundedRing::push` + `pop_wave` on one thread, per item.
#[must_use]
pub fn ring_push_pop_ns() -> Sample {
    let ring = BoundedRing::new(4096);
    let mut wave = Vec::with_capacity(CHUNK);
    let mut per_item = Vec::new();
    for _ in 0..64 {
        let start = Instant::now();
        for i in 0..CHUNK {
            // The ring never fills (capacity 4096 > CHUNK) and is not closed.
            let _ = ring.push(i as u64);
        }
        black_box(ring.pop_wave(&mut wave));
        per_item.push(start.elapsed().as_nanos() as f64 / CHUNK as f64);
    }
    (median(&per_item).unwrap_or(0.0), (64 * CHUNK) as u64)
}

/// `DegradationLadder::observe_arrival` over the overload workload's stream,
/// with the ladder's exact tier counts.
pub fn ladder(stream: &[Query]) -> Result<(Sample, DegradationStats), String> {
    let mut ladder =
        DegradationLadder::new(DegradationConfig::default()).map_err(|e| format!("ladder: {e}"))?;
    let mut per_call = Vec::new();
    for chunk in stream.chunks(CHUNK) {
        let start = Instant::now();
        for query in chunk {
            black_box(ladder.observe_arrival(query.issued_at));
        }
        per_call.push(start.elapsed().as_nanos() as f64 / chunk.len() as f64);
    }
    Ok((
        (median(&per_call).unwrap_or(0.0), stream.len() as u64),
        ladder.stats(),
    ))
}

/// What the registry probe reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegistryProbe {
    /// `register` while building the world.
    pub register_ns: Sample,
    /// `candidates`, single-class requirement.
    pub resolve_single_ns: Sample,
    /// `candidates`, answered by a cached plan.
    pub resolve_hit_ns: Sample,
    /// `candidates`, first resolution of a requirement (a merge).
    pub resolve_cold_ns: Sample,
    /// `update_load`.
    pub update_load_ns: Sample,
    /// `set_online`, every call effective.
    pub set_online_ns: Sample,
    /// `unregister` + `register` of the same provider.
    pub unregister_register_ns: Sample,
}

/// Times `ProviderRegistry`'s public calls on a world of `providers`.
#[must_use]
pub fn registry(seed: u64, providers: usize) -> RegistryProbe {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
    let mut registry = ProviderRegistry::new();
    let start = Instant::now();
    for spec in (0..providers).map(gen::provider) {
        registry.register(spec.id, spec.capabilities, spec.capacity);
    }
    let register_ns = (
        start.elapsed().as_nanos() as f64 / providers as f64,
        providers as u64,
    );

    let singles: Vec<Query> = (0..CLASSES)
        .map(|c| Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(c)).build())
        .collect();
    let resolve_single_ns = chunked_ns(32, |i| {
        black_box(registry.candidates(&singles[i % singles.len()]).len());
    });

    // Each requirement once cold (256 > the 64-entry cache, so every first
    // resolution merges), then CHUNK times hot.
    let mut cold = Vec::new();
    let mut hot = Vec::new();
    for requirement in gen::requirement_table(seed) {
        let query = Query::requiring(QueryId::new(1), ConsumerId::new(1), requirement).build();
        let start = Instant::now();
        black_box(registry.candidates(&query).len());
        cold.push(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        for _ in 0..CHUNK {
            black_box(registry.candidates(&query).len());
        }
        hot.push(start.elapsed().as_nanos() as f64 / CHUNK as f64);
    }
    let resolve_cold_ns = (median(&cold).unwrap_or(0.0), cold.len() as u64);
    let resolve_hit_ns = (median(&hot).unwrap_or(0.0), (hot.len() * CHUNK) as u64);

    let update_load_ns = chunked_ns(32, |i| {
        let id = gen::provider(rng.gen_range(0..providers)).id;
        let _ = registry.update_load(id, (i % 7) as f64, i % 5);
    });
    // Off then on again, provider by provider: every call changes state.
    let set_online_ns = chunked_ns(32, |i| {
        let id = gen::provider((i / 2) % providers).id;
        let _ = registry.set_online(id, i % 2 == 1);
    });
    let unregister_register_ns = chunked_ns(32, |i| {
        let spec = gen::provider((i * 31) % providers);
        registry.unregister(spec.id);
        registry.register(spec.id, spec.capabilities, spec.capacity);
    });
    RegistryProbe {
        register_ns,
        resolve_single_ns,
        resolve_hit_ns,
        resolve_cold_ns,
        update_load_ns,
        set_online_ns,
        unregister_register_ns,
    }
}

/// `SharedDeltaLog::append_mutation` and `StandbyShard::catch_up`.
pub fn replication(seed: u64, providers: usize) -> Result<(Sample, Sample), String> {
    let config = gen::system_config();
    let mut registry = ProviderRegistry::new();
    let mut satisfaction = SatisfactionRegistry::new(config.satisfaction_window);
    for spec in (0..providers).map(gen::provider) {
        registry.register(spec.id, spec.capabilities, spec.capacity);
        satisfaction.register_provider(spec.id);
    }
    let allocator: Box<dyn QueryAllocator> =
        Box::new(SbqaAllocator::new(config, seed).map_err(|e| format!("allocator: {e}"))?);
    let log = SharedDeltaLog::new();
    let mut standby = StandbyShard::new(allocator, registry, satisfaction, log.last_sequence());

    let mut append = Vec::new();
    let mut catch_up = Vec::new();
    for round in 0..32 {
        let start = Instant::now();
        for i in 0..CHUNK {
            black_box(log.append_mutation(RegistryDelta::UpdateLoad {
                id: gen::provider((round * CHUNK + i) % providers).id,
                utilization: i as f64,
                queue_length: i % 8,
            }));
        }
        append.push(start.elapsed().as_nanos() as f64 / CHUNK as f64);
        let start = Instant::now();
        let applied = standby
            .catch_up(&log)
            .map_err(|e| format!("standby catch-up: {e}"))?;
        catch_up.push(start.elapsed().as_nanos() as f64 / applied.max(1) as f64);
    }
    let calls = (32 * CHUNK) as u64;
    Ok((
        (median(&append).unwrap_or(0.0), calls),
        (median(&catch_up).unwrap_or(0.0), calls),
    ))
}

/// `LatencyRecorder::record` (ns per sample) and `percentiles` over the
/// resulting `samples` samples (ms).
#[must_use]
pub fn latency_recorder(samples: usize) -> (Sample, Sample) {
    let mut recorder = LatencyRecorder::new();
    let record = chunked_ns(samples / CHUNK, |i| {
        recorder.record_nanos((i as u64).wrapping_mul(2_654_435_761) % 1_000_000);
    });
    let start = Instant::now();
    black_box(recorder.percentiles(&[0.50, 0.95, 0.99]));
    let percentiles_ms = start.elapsed().as_secs_f64() * 1e3;
    (record, (percentiles_ms, recorder.count() as u64))
}

/// Per-query cost of one whole-stream pass, with allocations per query.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Wall time ÷ queries, ns.
    pub ns_per_query: f64,
    /// Allocations ÷ queries.
    pub allocs_per_query: f64,
}

fn pass_of(queries: usize, run: impl FnOnce()) -> Pass {
    let start = Instant::now();
    let ((), allocations) = counted(run);
    Pass {
        ns_per_query: start.elapsed().as_nanos() as f64 / queries as f64,
        allocs_per_query: allocations as f64 / queries as f64,
    }
}

/// `Mediator::submit_in_place` over the stream, on a fresh bare world.
pub fn bare_pass(seed: u64, providers: usize, stream: &[Query]) -> Result<Pass, String> {
    let mut mediator = bare_world(seed, providers)?;
    let oracle = HashOracle::new(seed);
    Ok(pass_of(stream.len(), || {
        for query in stream {
            let _ = black_box(mediator.submit_in_place(query, &oracle));
        }
    }))
}

/// The stream through an inline one-shard `ShardedMediator`.
pub fn sharded_pass(seed: u64, providers: usize, stream: &[Query]) -> Result<Pass, String> {
    let mut service = sharded_world(seed, 1, providers)?;
    let oracle = HashOracle::new(seed);
    Ok(pass_of(stream.len(), || {
        for chunk in stream.chunks(BATCH) {
            black_box(service.submit_batch(chunk, &oracle, |_, _, _| {}));
        }
    }))
}

/// The stream through an inline one-shard `ReplicatedMediator` (default
/// checkpoint interval, no crash).
pub fn replicated_pass(seed: u64, providers: usize, stream: &[Query]) -> Result<Pass, String> {
    let mut service = replicated_world(seed, 1, providers)?;
    let oracle = HashOracle::new(seed);
    let mut failure = None;
    let pass = pass_of(stream.len(), || {
        for chunk in stream.chunks(BATCH) {
            if let Err(e) = service.submit_batch(chunk, &oracle, |_, _, _| {}) {
                failure = Some(e);
                return;
            }
        }
    });
    failure.map_or(Ok(pass), |e| Err(format!("replicated pass: {e}")))
}

/// What the threaded ingest probes read on a stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestProbe {
    /// Wall inside `enqueue_batch` ÷ queries at the paced rate, ns.
    pub enqueue_ns: f64,
    /// Generator lateness p99 at the paced rate, µs.
    pub gen_late_p99_us: f64,
    /// Latency p99 at twice the paced rate, µs.
    pub p99_us_rate80k: f64,
    /// Wall inside `enqueue_batch` ÷ segment wall when saturating.
    pub blocked_share: f64,
    /// Saturated pass: ns and allocations per query, all threads.
    pub saturated: Pass,
}

/// Three threaded passes over the stream's queries: paced, paced at twice
/// the rate, saturating.
pub fn ingest(seed: u64, providers: usize, stream: &[Query]) -> Result<IngestProbe, String> {
    let world = || threaded_world(seed, providers, open_single_ingest());
    let one_second = |rate: f64| &stream[..stream.len().min(rate as usize) / BATCH * BATCH];
    let paced = |rate: f64| {
        threaded_segment(
            Instant::now(),
            one_second(rate),
            world()?,
            Offer::Paced { rate },
        )
    };
    let fast = paced(2.0 * PACED_RATE)?;
    let paced = paced(PACED_RATE)?;
    let running = world()?;
    let (saturating, allocations) =
        counted(|| threaded_segment(Instant::now(), stream, running, Offer::Saturating));
    let saturating = saturating?;
    Ok(IngestProbe {
        enqueue_ns: paced.layer["service.ingest.enqueue_ns"],
        gen_late_p99_us: paced.layer["service.ingest.gen_late_p99_us"],
        p99_us_rate80k: fast.p99_us,
        blocked_share: saturating.layer["service.ingest.blocked_share"],
        saturated: Pass {
            ns_per_query: saturating.wall_s * 1e9 / stream.len() as f64,
            allocs_per_query: allocations as f64 / stream.len() as f64,
        },
    })
}

/// What the failover probe reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct FailoverProbe {
    /// `ReplicatedMediator::checkpoint_all`, median, ms.
    pub checkpoint_ms: Sample,
    /// `crash_shard`, median of the promotions, ms.
    pub promote_ms: Sample,
    /// Queries the promotions replayed, exact.
    pub replayed_queries: u64,
    /// Largest delta-log depth seen after a batch.
    pub log_depth_max: u64,
    /// Largest standby replay lag seen after a batch.
    pub lag_max: u64,
}

/// The stream through a two-shard `ReplicatedMediator` with load updates
/// after every batch, the `replicated_failover` crash schedule and five
/// explicit checkpoints.
pub fn failover(seed: u64, providers: usize, stream: &[Query]) -> Result<FailoverProbe, String> {
    let broke = |e| format!("failover probe: {e}");
    let mut service = replicated_world(seed, 2, providers)?;
    let oracle = HashOracle::new(seed);
    let batches = stream.len() / BATCH;
    let schedule = OpSchedule::generate(seed, batches, providers, Churn::LoadOnly);
    let mut probe = FailoverProbe::default();
    let mut checkpoints = Vec::new();
    let mut promotions = Vec::new();
    for (batch, chunk) in stream.chunks(BATCH).enumerate() {
        if let Some(shard) = crash_before(batch, batches) {
            let start = Instant::now();
            let report = service.crash_shard(shard, &oracle).map_err(broke)?;
            promotions.push(start.elapsed().as_nanos() as u64);
            probe.replayed_queries += (report.queries_mediated + report.queries_starved) as u64;
        }
        service
            .submit_batch(chunk, &oracle, |_, _, _| {})
            .map_err(broke)?;
        if service.apply(schedule.after_batch(batch)) > 0 {
            return Err("failover probe: a load update was rejected".to_string());
        }
        for shard in 0..service.shard_count() {
            let stats = service.shard(shard).replication_stats();
            probe.log_depth_max = probe.log_depth_max.max(stats.log_depth as u64);
            probe.lag_max = probe.lag_max.max(stats.replay_lag);
        }
        if (batch + 3) % (batches / 5).max(1) == 0 && checkpoints.len() < 5 {
            let start = Instant::now();
            service.checkpoint_all().map_err(broke)?;
            checkpoints.push(start.elapsed().as_nanos() as u64);
        }
    }
    probe.checkpoint_ms = (
        percentile(&mut checkpoints, 0.5).unwrap_or(0) as f64 / 1e6,
        checkpoints.len() as u64,
    );
    probe.promote_ms = (
        percentile(&mut promotions, 0.5).unwrap_or(0) as f64 / 1e6,
        promotions.len() as u64,
    );
    Ok(probe)
}

/// What the simulator probe reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimProbe {
    /// Queries issued over all techniques ÷ wall seconds.
    pub queries_per_s: Sample,
    /// Final mean consumer satisfaction under SbQA.
    pub consumer_sat_sbqa: f64,
    /// Final mean provider satisfaction under SbQA.
    pub provider_sat_sbqa: f64,
}

/// BOINC scenario 4 through the simulator: `Scenario::sized(S4, 2000, 600,
/// 40)`, or the quick preset. Not a workload — it has no wall-clock latency
/// — but it guards the simulator kernel's speed and the paper's claim.
pub fn sim(quick: bool) -> Result<SimProbe, String> {
    let scenario = if quick {
        Scenario::quick(ScenarioId::S4)
    } else {
        Scenario::sized(ScenarioId::S4, 2000, 600.0, 40.0)
    };
    let start = Instant::now();
    let outcome = scenario.run().map_err(|e| format!("scenario 4: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    let issued: u64 = outcome
        .results
        .iter()
        .map(|r| r.report.queries_issued)
        .sum();
    let sbqa = outcome
        .result_for("SbQA")
        .ok_or("scenario 4 ran no SbQA technique")?;
    Ok(SimProbe {
        queries_per_s: (issued as f64 / wall, issued),
        consumer_sat_sbqa: sbqa.report.final_consumer_satisfaction(),
        provider_sat_sbqa: sbqa.report.final_provider_satisfaction(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_probes_return_positive_costs() {
        assert!(clock_ns().0 > 0.0);
        assert!(router_assign_ns(1).0 >= 0.0);
        assert!(ring_push_pop_ns().0 > 0.0);
        let probe = registry(42, 2000);
        assert!(probe.resolve_cold_ns.0 > probe.resolve_hit_ns.0);
        assert_eq!(probe.register_ns.1, 2000);
        let (append, catch_up) = replication(42, 2000).unwrap();
        assert!(append.0 > 0.0 && catch_up.0 > 0.0);
    }

    #[test]
    fn ladder_probe_counts_every_arrival() {
        let stream = gen::overload_stream(42, 20_000);
        let (_, stats) = ladder(&stream).unwrap();
        assert_eq!(stats.observed(), 20_000);
        assert!(stats.shed > 0 && stats.baseline > 0);
    }

    #[test]
    fn passes_and_failover_probe_run_on_a_small_world() {
        let stream = gen::single_stream(42, 40 * BATCH, 0.001);
        assert!(bare_pass(42, 2000, &stream).unwrap().ns_per_query > 0.0);
        assert!(sharded_pass(42, 2000, &stream).unwrap().ns_per_query > 0.0);
        assert!(replicated_pass(42, 2000, &stream).unwrap().ns_per_query > 0.0);
        let probe = failover(42, 2000, &stream).unwrap();
        assert_eq!(probe.promote_ms.1, crate::workloads::CRASHES as u64);
        assert!(probe.replayed_queries > 0);
        assert!(probe.checkpoint_ms.1 > 0);
    }
}
