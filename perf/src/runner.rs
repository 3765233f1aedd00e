//! Turns a workload run into the metrics the catalogue names: the untraced
//! run gives the end-to-end metrics, the traced run the per-layer ones.

use std::collections::BTreeMap;

use sbqa_types::Query;

use crate::gen::{self, Churn, OpSchedule, BATCH};
use crate::probes::{self, Sample};
use crate::result::{Metric, WorkloadResult, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::{self, Stage};
use crate::workloads::{self, Reading, Run, Sizing, Workload, PACED_RATE};

/// `VmHWM` of this process, MiB: its peak resident set so far.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where `throughput_qps` is read: `open_single`'s saturation segments (its
/// paced segments offer a fixed 40 000 q/s, so theirs would only echo the
/// rate), everybody else's segments.
fn throughput_source(run: &Run) -> (&[Reading], &[workloads::Composite; 3]) {
    if run.saturation.is_empty() {
        (&run.segments, &run.composites)
    } else {
        (&run.saturation, &run.saturation_composites)
    }
}

/// A timing estimated from the whole run (`part` 0), from its even-numbered
/// segments (1) or from its odd-numbered ones (2): the least-disturbed
/// composite of those segments (set-up, which has no windows: their fastest
/// world build). `None` for a metric that is not a timing, or when the part
/// holds no segment.
fn timing(run: &Run, part: usize, name: &str) -> Option<f64> {
    let of_part = |readings: &[Reading], value: fn(&Reading) -> f64| {
        readings
            .iter()
            .enumerate()
            .filter(|(index, _)| part == 0 || index % 2 == part - 1)
            .map(|(_, reading)| value(reading))
            .min_by(f64::total_cmp)
    };
    match name {
        "setup_s" => {
            let paced = of_part(&run.segments, |r| r.setup_s);
            let saturating = of_part(&run.saturation, |r| r.setup_s);
            paced.into_iter().chain(saturating).min_by(f64::total_cmp)
        }
        "throughput_qps" => {
            let (segments, composites) = throughput_source(run);
            let wall_s = composites[part].wall_s();
            (wall_s > 0.0).then(|| segments[0].mediated as f64 / wall_s)
        }
        "latency_p50_us" => run.composites[part].latency_us(0.50),
        "latency_p99_us" => run.composites[part].latency_us(0.99),
        _ => None,
    }
}

/// The end-to-end metrics of a finished run: each timing with the estimates
/// of the run's two halves and every segment's own reading beside it. The
/// deterministic metrics repeat exactly (gated) and the process's peak RSS is
/// one reading.
#[must_use]
pub fn end_to_end(run: &Run, providers: u64) -> BTreeMap<String, Metric> {
    let segments: Vec<&Reading> = run.segments.iter().collect();
    let all: Vec<&Reading> = run.segments.iter().chain(&run.saturation).collect();
    let throughput_from: Vec<&Reading> = throughput_source(run).0.iter().collect();
    let each = |readings: &[&Reading], value: fn(&Reading) -> f64| -> Vec<f64> {
        readings.iter().map(|r| value(r)).collect()
    };
    let first = |readings: &[&Reading], value: fn(&Reading) -> u64| {
        readings.first().map_or(0, |r| value(r))
    };
    let samples = first(&segments, |r| r.samples);
    END_TO_END
        .iter()
        .map(|spec| {
            let (readings, samples) = match spec.name {
                "setup_s" => (each(&all, |r| r.setup_s), all.len() as u64),
                "throughput_qps" => (
                    each(&throughput_from, Reading::throughput_qps),
                    first(&throughput_from, |r| r.offered),
                ),
                "latency_p50_us" => (each(&segments, |r| r.p50_us), samples),
                "latency_p99_us" => (each(&segments, |r| r.p99_us), samples),
                "served_share" => (
                    each(&segments, |r| r.mediated as f64 / r.offered as f64),
                    first(&segments, |r| r.offered),
                ),
                "consumer_satisfaction" => {
                    (each(&segments, |r| r.consumer_satisfaction), gen::CONSUMERS)
                }
                "provider_satisfaction" => {
                    (each(&segments, |r| r.provider_satisfaction), providers)
                }
                "peak_rss_mb" => (vec![peak_rss_mb()], 1),
                other => unreachable!("end-to-end metric {other} has no reading"),
            };
            // A metric that is not a timing reads the same on every segment.
            let value = timing(run, 0, spec.name)
                .or(readings.first().copied())
                .unwrap_or(f64::NAN);
            let halves = [1, 2]
                .iter()
                .filter_map(|&part| timing(run, part, spec.name))
                .collect();
            let metric = Metric::new(spec.unit, value, readings, samples).with_halves(halves);
            (spec.name.to_string(), metric)
        })
        .collect()
}

/// Runs a workload untraced and reports its end-to-end metrics.
///
/// # Errors
///
/// The first correctness gate that failed.
pub fn untraced(workload: Workload, seed: u64, sizing: &Sizing) -> Result<WorkloadResult, String> {
    let run = workloads::run(workload, seed, sizing)?;
    let all = || run.segments.iter().chain(&run.saturation);
    let mut notes = BTreeMap::new();
    notes.insert(
        "paced_bursts_discarded".to_string(),
        run.composites[0].discarded_bursts as f64,
    );
    if let Some(first) = run.segments.first() {
        for (name, value) in &first.layer {
            let values: Vec<f64> = run
                .segments
                .iter()
                .filter_map(|r| r.layer.get(name).copied())
                .collect();
            notes.insert((*name).to_string(), median(&values).unwrap_or(*value));
        }
    }
    Ok(WorkloadResult {
        workload: workload.name().to_string(),
        correct: true,
        attempted: all().map(|r| r.offered).sum(),
        failed: all().map(|r| r.starved + r.errored).sum(),
        end_to_end: end_to_end(&run, sizing.providers as u64),
        notes,
        gates: run.gates,
        ..WorkloadResult::default()
    })
}

/// The workload's stream (its first `queries` queries) and op schedule, as
/// the traced run replays them.
fn traced_inputs(
    workload: Workload,
    seed: u64,
    queries: usize,
    providers: usize,
) -> (Vec<Query>, Option<OpSchedule>) {
    let dt = 1.0 / PACED_RATE;
    let schedule = |churn| {
        Some(OpSchedule::generate(
            seed,
            queries / BATCH,
            providers,
            churn,
        ))
    };
    match workload {
        Workload::OpenSingle => (gen::single_stream(seed, queries, dt), None),
        Workload::SyncMulticapChurn => (
            gen::multicap_stream(seed, queries, dt),
            schedule(Churn::Full),
        ),
        Workload::ReplicatedFailover => (
            gen::single_stream(seed, queries, dt),
            schedule(Churn::LoadOnly),
        ),
        Workload::OverloadLadder => (gen::overload_stream(seed, queries), None),
    }
}

fn median_pass(
    repeats: usize,
    mut pass: impl FnMut() -> Result<probes::Pass, String>,
) -> Result<probes::Pass, String> {
    let mut ns = Vec::new();
    let mut allocs = Vec::new();
    for _ in 0..repeats {
        let pass = pass()?;
        ns.push(pass.ns_per_query);
        allocs.push(pass.allocs_per_query);
    }
    Ok(probes::Pass {
        ns_per_query: median(&ns).unwrap_or(0.0),
        allocs_per_query: median(&allocs).unwrap_or(0.0),
    })
}

/// What a traced run hands back beside the metrics.
#[derive(Debug)]
pub struct Traced {
    /// The per-layer metrics, the stage table and the gates.
    pub result: WorkloadResult,
    /// The first queries' raw spans, one JSON object a line.
    pub spans_jsonl: String,
}

/// Runs the traced mode for a workload: the stage replay on its stream, the
/// layer probes, and the front-end passes that give each front-end's tax.
///
/// # Errors
///
/// A replay whose decisions differ from `Mediator::submit_in_place`, a stage
/// table that does not add up, or a probe that failed.
pub fn traced(workload: Workload, seed: u64, sizing: &Sizing) -> Result<Traced, String> {
    let quick = *sizing == Sizing::quick();
    let providers = sizing.providers;
    // Sized so that the slowest stream (multi-class merges, a million
    // providers) keeps the traced run well inside the driver's time cap.
    let queries = if quick {
        80 * BATCH
    } else {
        20_000 / BATCH * BATCH
    };
    let (stream, schedule) = traced_inputs(workload, seed, queries, providers);

    let replay = trace::replay(seed, providers, &stream, schedule.as_ref())?;
    let table = trace::stage_table(replay.spans.spans());
    let ratio = trace::stage_sum_ratio(replay.spans.spans());
    if !(0.85..=1.15).contains(&ratio) {
        return Err(format!(
            "core.mediator.stage_sum_ratio {ratio:.3} outside [0.85, 1.15]: \
             the stage table does not add up to submit_in_place\n{}",
            trace::render_table(&table)
        ));
    }

    let mut layer: BTreeMap<&'static str, Sample> = trace::replay_metrics(&replay, &table);
    let replay_ns = trace::row(&table, Stage::ReplaySubmit)
        .map_or(0.0, |r| r.total_ns as f64 / r.calls.max(1) as f64);
    layer.insert("trace.replay_ns", (replay_ns, replay.queries));
    layer.insert(
        "trace.spans",
        (replay.spans.spans().len() as f64, replay.queries),
    );
    layer.insert("trace.clock_ns", probes::clock_ns());

    // The per-query floor and each front-end's tax over it, on this stream.
    let repeats = if quick { 1 } else { 3 };
    let bare = median_pass(repeats, || probes::bare_pass(seed, providers, &stream))?;
    let sharded = median_pass(repeats, || probes::sharded_pass(seed, providers, &stream))?;
    let replicated = median_pass(repeats, || {
        probes::replicated_pass(seed, providers, &stream)
    })?;
    let n = stream.len() as u64;
    layer.insert("core.mediator.submit_ns", (bare.ns_per_query, n));
    layer.insert("core.mediator.allocs_per_query", (bare.allocs_per_query, n));
    layer.insert(
        "service.sharded.tax_ns",
        (sharded.ns_per_query - bare.ns_per_query, n),
    );
    layer.insert(
        "service.failover.tax_ns",
        (replicated.ns_per_query - bare.ns_per_query, n),
    );
    layer.insert(
        "trace.overhead_share",
        ((replay_ns - bare.ns_per_query) / bare.ns_per_query, n),
    );
    let (small, large) = if quick {
        (500, 20_000)
    } else {
        (10_000, 1_000_000)
    };
    let half = &stream[..stream.len() / 2];
    layer.insert(
        "core.mediator.submit_ns.10k",
        (
            probes::bare_pass(seed, small, half)?.ns_per_query,
            half.len() as u64,
        ),
    );
    layer.insert(
        "core.mediator.submit_ns.1m",
        (
            probes::bare_pass(seed, large, half)?.ns_per_query,
            half.len() as u64,
        ),
    );

    let ingest = probes::ingest(seed, providers, &stream)?;
    layer.insert(
        "service.ingest.enqueue_ns",
        (ingest.enqueue_ns, n.min(PACED_RATE as u64)),
    );
    layer.insert(
        "service.ingest.gen_late_p99_us",
        (ingest.gen_late_p99_us, n / BATCH as u64),
    );
    layer.insert("service.ingest.p99_us.rate80k", (ingest.p99_us_rate80k, n));
    layer.insert("service.ingest.blocked_share", (ingest.blocked_share, n));
    layer.insert(
        "service.ingest.allocs_per_query",
        (ingest.saturated.allocs_per_query, n),
    );
    layer.insert(
        "service.ingest.tax_ns",
        (ingest.saturated.ns_per_query - bare.ns_per_query, n),
    );

    let failover = probes::failover(seed, providers, &stream)?;
    layer.insert("service.failover.checkpoint_ms", failover.checkpoint_ms);
    layer.insert("service.failover.promote_ms", failover.promote_ms);
    layer.insert(
        "service.failover.replayed_queries",
        (failover.replayed_queries as f64, failover.promote_ms.1),
    );
    layer.insert(
        "replication.log.depth_max",
        (failover.log_depth_max as f64, n / BATCH as u64),
    );
    layer.insert(
        "replication.standby.lag_max",
        (failover.lag_max as f64, n / BATCH as u64),
    );
    let (append, catch_up) = probes::replication(seed, providers)?;
    layer.insert("replication.log.append_ns", append);
    layer.insert("replication.standby.catch_up_ns_per_delta", catch_up);

    // Probes of one layer each, independent of the workload's stream.
    layer.insert("service.router.assign_ns", probes::router_assign_ns(seed));
    layer.insert("service.ring.push_pop_ns", probes::ring_push_pop_ns());
    let overload = gen::overload_stream(seed, sizing.queries(Workload::OverloadLadder));
    let (observe, tiers) = probes::ladder(&overload)?;
    layer.insert("core.degrade.observe_ns", observe);
    let arrivals = tiers.observed();
    layer.insert("core.degrade.tier_normal", (tiers.normal as f64, arrivals));
    layer.insert(
        "core.degrade.tier_shrink",
        (tiers.shrink_kn as f64, arrivals),
    );
    layer.insert(
        "core.degrade.tier_baseline",
        (tiers.baseline as f64, arrivals),
    );
    layer.insert("core.degrade.shed", (tiers.shed as f64, arrivals));
    layer.insert(
        "core.degrade.transitions",
        (tiers.transitions as f64, arrivals),
    );
    let registry = probes::registry(seed, providers);
    layer.insert("core.registry.register_ns", registry.register_ns);
    layer.insert(
        "core.registry.resolve_single_ns",
        registry.resolve_single_ns,
    );
    layer.insert("core.registry.resolve_hit_ns", registry.resolve_hit_ns);
    layer.insert("core.registry.resolve_cold_ns", registry.resolve_cold_ns);
    layer.insert("core.registry.update_load_ns", registry.update_load_ns);
    layer.insert("core.registry.set_online_ns", registry.set_online_ns);
    layer.insert(
        "core.registry.unregister_register_ns",
        registry.unregister_register_ns,
    );
    let (record, percentiles) = probes::latency_recorder(if quick { 1 << 16 } else { 1 << 20 });
    layer.insert("metrics.latency.record_ns", record);
    layer.insert("metrics.latency.percentiles_ms", percentiles);
    let sim = probes::sim(quick)?;
    layer.insert("sim.runner.queries_per_s", sim.queries_per_s);
    layer.insert(
        "boinc.s4.consumer_sat_sbqa",
        (sim.consumer_sat_sbqa, sim.queries_per_s.1),
    );
    layer.insert(
        "boinc.s4.provider_sat_sbqa",
        (sim.provider_sat_sbqa, sim.queries_per_s.1),
    );

    let per_layer: BTreeMap<String, Metric> = PER_LAYER
        .iter()
        .map(|spec| {
            let (value, samples) = layer
                .get(spec.name)
                .copied()
                .ok_or_else(|| format!("traced run produced no {}", spec.name))?;
            Ok((
                spec.name.to_string(),
                Metric::new(spec.unit, value, vec![value], samples),
            ))
        })
        .collect::<Result<_, String>>()?;

    Ok(Traced {
        spans_jsonl: replay.spans.raw_jsonl(),
        result: WorkloadResult {
            workload: workload.name().to_string(),
            correct: true,
            attempted: replay.queries,
            failed: 0,
            per_layer,
            gates: vec![
                format!(
                    "trace replay == Mediator::submit_in_place on {} queries, query by query",
                    replay.queries
                ),
                format!("stage_sum_ratio {ratio:.3} within [0.85, 1.15]"),
            ],
            stage_table: table,
            ..WorkloadResult::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_untraced_run_reports_every_end_to_end_metric() {
        let result = untraced(Workload::OverloadLadder, 42, &Sizing::quick()).unwrap();
        for spec in &END_TO_END {
            let metric = &result.end_to_end[spec.name];
            assert_eq!(metric.unit, spec.unit);
            assert!(metric.value > 0.0, "{} is {}", spec.name, metric.value);
        }
        assert!(result.correct && result.failed == 0);
        let served = result.end_to_end["served_share"].value;
        assert!((0.4..0.7).contains(&served), "served share {served}");
    }

    #[test]
    fn quick_traced_run_reports_every_per_layer_metric() {
        let traced = traced(Workload::SyncMulticapChurn, 42, &Sizing::quick()).unwrap();
        assert_eq!(traced.result.per_layer.len(), PER_LAYER.len());
        assert!(traced.result.end_to_end.is_empty());
        assert!(!traced.result.stage_table.is_empty());
        assert!(traced.spans_jsonl.lines().count() > 1000);
        assert!(traced.result.per_layer["core.registry.plan_hit_rate"].value > 0.0);
    }
}
