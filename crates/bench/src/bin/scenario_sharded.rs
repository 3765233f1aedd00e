//! Sharded mediation service vs its inline one-shard run.
//!
//! Not one of the paper's seven scenarios: this harness measures the
//! mediation *service* itself. A deterministic open-loop query stream (four
//! consumers with mixed single- and multi-capability requirements) is
//! generated once, then driven
//!
//! * inline through a one-shard `ShardedMediator`, `--batch`-sized batches
//!   on the caller's thread (the baseline row, `inline, 1 shard`), and
//! * through the threaded `MediationService` for each `--shards` count
//!   (default `1,2,4,8`): providers hash-partitioned across the shards,
//!   producers enqueueing `--batch`-sized chunks, one mediation thread per
//!   shard.
//!
//! Reported per configuration: mediated/starved tallies, latency
//! percentiles (p50/p95/p99, wall-clock) and aggregate throughput; plus a
//! per-shard latency breakdown and the plan-cache counters. The latency
//! columns measure different spans: the threaded service stamps a query at
//! enqueue, so its samples include the time spent queued behind the ring;
//! the inline row stamps each query as it is submitted to its shard, so its
//! samples are the mediation alone. Throughput and cache columns compare
//! like for like. The run also *checks* the service's determinism
//! contract: the threaded one-shard outcome stream must match the inline
//! one decision for decision (the plain-`Mediator` equivalence is the
//! service crate's determinism suite).
//!
//! Flags (see `sbqa_bench::cli`): `--quick`, `--providers N`, `--queries Q`,
//! `--shards N1,N2,...`, `--batch B`, `--seed SEED`, `--k K`, `--kn KN`.

use std::process::ExitCode;

use sbqa_bench::{cli, world};
use sbqa_metrics::{LatencyRecorder, Table};
use sbqa_service::ServiceReport;
use sbqa_sim::{generate_query_stream, run, HashWorld, ServiceRun, WorkloadModel};

/// Each shard's ingest ring: the 4 096 slots of the benchmark's
/// `open_single` workload.
const RING: usize = 4_096;

fn latency_row(latency: &LatencyRecorder) -> [String; 4] {
    // One sort answers the whole percentile row.
    let quantiles = latency.percentiles(&[0.50, 0.95, 0.99]);
    [
        LatencyRecorder::display_nanos(quantiles[0]),
        LatencyRecorder::display_nanos(quantiles[1]),
        LatencyRecorder::display_nanos(quantiles[2]),
        LatencyRecorder::display_nanos(latency.max_nanos()),
    ]
}

fn main() -> ExitCode {
    cli::exit(sweep(&cli::parse_env_or_exit()))
}

fn sweep(options: &cli::HarnessOptions) -> Result<(), String> {
    let scale = world::Scale::service(options, &[1, 2, 4, 8]);
    let (batch, seed) = (scale.batch, scale.seed);
    let system = scale.system();

    eprintln!(
        "sharded mediation sweep: {} providers, {} queries, \
         batch {batch}, shards {:?}, seed {seed}…",
        scale.providers, scale.queries, scale.shards
    );
    let providers = world::providers(scale.providers);
    let consumers = world::consumers();
    let workload = WorkloadModel::default();
    let stream = generate_query_stream(&consumers, &workload, scale.queries, seed, None);

    let mut table = Table::new(
        "Scenario sharded — mediation service vs its inline one-shard run",
        &[
            "config",
            "mediated",
            "starved",
            "p50",
            "p95",
            "p99",
            "max",
            "wall (ms)",
            "queries/s",
        ],
    );
    let mut shard_table = Table::new(
        "Per-shard ingest-to-decision latency",
        &["config", "shard", "drained", "p50", "p95", "p99"],
    );
    let mut cache_table = Table::new(
        "Candidate-plan cache (all shards merged)",
        &[
            "config",
            "hits",
            "misses",
            "stale rebuilds",
            "evictions",
            "hit rate",
        ],
    );
    // Both drivers report in one shape, so one row printer serves both.
    let mut add_rows = |label: String, report: &ServiceReport| {
        let [p50, p95, p99, max] = latency_row(&report.aggregate_latency());
        table.add_row(&[
            label.clone(),
            report.total.mediated.to_string(),
            report.total.starved.to_string(),
            p50,
            p95,
            p99,
            max,
            format!("{:.1}", report.wall.as_secs_f64() * 1e3),
            format!("{:.0}", report.throughput_per_sec()),
        ]);
        let cache = report.cache_stats();
        cache_table.add_row(&[
            label,
            cache.hits.to_string(),
            cache.misses.to_string(),
            cache.stale_rebuilds.to_string(),
            cache.evictions.to_string(),
            Table::num(cache.hit_rate()),
        ]);
    };

    let inline = ServiceRun {
        batch,
        ..ServiceRun::new(system.clone(), seed)
    };
    let baseline = run(
        &inline,
        &providers,
        &consumers,
        &stream,
        &mut HashWorld::new(seed, 0),
    )
    .map_err(|err| format!("inline run failed: {err}"))?
    .report;
    add_rows("inline, 1 shard".to_string(), &baseline);

    for &shards in &scale.shards {
        let config = ServiceRun {
            shards,
            threaded: Some(RING),
            ..inline.clone()
        };
        let mut world = HashWorld::new(seed, 0);
        let report = run(&config, &providers, &consumers, &stream, &mut world)
            .map_err(|err| format!("sharded run ({shards} shards) failed: {err}"))?
            .report;

        // Determinism contract: the threaded driver must reproduce the
        // inline one decision for decision (same queries, same winners,
        // same order).
        if shards == 1 {
            if report.outcomes != baseline.outcomes {
                return Err(
                    "determinism check FAILED: threaded 1-shard service diverged from inline"
                        .to_string(),
                );
            }
            eprintln!("determinism check: threaded 1-shard service ≡ inline ✓");
        }

        add_rows(
            format!(
                "service, {shards} shard{}",
                if shards == 1 { "" } else { "s" }
            ),
            &report,
        );
        // One shared unit per configuration (picked from the widest shard
        // p99), so the shard rows compare at a glance instead of flipping
        // units mid-column.
        let unit = report.shard_latency_unit();
        for shard in &report.shards {
            let quantiles = shard.latency.percentiles(&[0.50, 0.95, 0.99]);
            shard_table.add_row(&[
                format!("{shards} shards"),
                shard.shard.to_string(),
                shard.report.submitted().to_string(),
                unit.format(quantiles[0]),
                unit.format(quantiles[1]),
                unit.format(quantiles[2]),
            ]);
        }
    }

    println!("{}", table.render());
    println!("{}", shard_table.render());
    println!("{}", cache_table.render());
    Ok(())
}
