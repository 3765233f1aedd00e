//! Shard failover under load: crash primaries mid-run, promote standbys,
//! verify byte-identity, and measure what replication costs.
//!
//! Not one of the paper's seven scenarios: this harness exercises the
//! replication subsystem end-to-end. A deterministic open-loop query stream
//! (the `scenario_sharded` population) is driven twice through a
//! replicated `ShardedMediator` — every shard paired with a delta-log-fed standby,
//! deterministic registry churn injected between batches:
//!
//! * once uninterrupted (the baseline trajectory), and
//! * once with **every shard's primary killed** at the stream's virtual
//!   midpoint and its standby promoted in place.
//!
//! The run then *checks* (not just reports) the failover contract: the
//! merged `(VirtualTime, QueryId)`-ordered outcome streams of the two runs
//! must be byte-identical — a mismatch exits non-zero, so CI smoke catches
//! a replay regression even without the golden test. Reported per run:
//! tallies, wall clock, throughput, per-shard replication counters (log
//! depth, applied sequence, replay lag, checkpoints, promotions) and the
//! per-promotion replay work, plus a directly measured promotion latency.
//!
//! Flags (see `sbqa_bench::cli`): `--quick`, `--providers N`, `--queries Q`,
//! `--shards N` (first value; default 2), `--batch B`, `--seed SEED`,
//! `--k K`, `--kn KN`.

use std::process::ExitCode;
use std::time::Instant;

use sbqa_bench::cli;
use sbqa_core::intention::{ConsumerProfile, ProviderProfile};
use sbqa_metrics::Table;
use sbqa_sim::{
    generate_query_stream, run_replicated_service, ConsumerSpec, FailoverRunConfig,
    FailoverRunReport, FaultPlan, HashIntentions, ProviderSpec, WorkloadModel,
};
use sbqa_types::{
    Capability, CapabilityRequirement, CapabilitySet, ConsumerId, ProviderId, SystemConfig,
};

/// Capability classes the population spreads over.
const CLASSES: u8 = 8;

fn set(classes: &[u8]) -> CapabilitySet {
    CapabilitySet::from_capabilities(classes.iter().copied().map(Capability::new))
}

/// The `scenario_sharded` population shape: overlapping capability profiles.
fn providers(count: usize) -> Vec<ProviderSpec> {
    (0..count as u64)
        .map(|i| {
            let base = (i % u64::from(CLASSES)) as u8;
            let mut caps = CapabilitySet::singleton(Capability::new(base));
            if i % 3 == 0 {
                caps.insert(Capability::new((base + 1) % CLASSES));
            }
            if i % 5 == 0 {
                caps.insert(Capability::new((base + 2) % CLASSES));
            }
            ProviderSpec::new(
                ProviderId::new(1_000 + i),
                caps,
                1.0 + (i % 4) as f64,
                ProviderProfile::default(),
            )
        })
        .collect()
}

/// Four consumers, mixed single- and multi-capability requirements.
fn consumers() -> Vec<ConsumerSpec> {
    vec![
        ConsumerSpec::new(
            ConsumerId::new(1),
            Capability::new(0),
            10.0,
            1.0,
            1,
            ConsumerProfile::default(),
        ),
        ConsumerSpec::new(
            ConsumerId::new(2),
            Capability::new(3),
            10.0,
            1.0,
            2,
            ConsumerProfile::default(),
        ),
        ConsumerSpec::new(
            ConsumerId::new(3),
            Capability::new(1),
            5.0,
            1.0,
            1,
            ConsumerProfile::default(),
        )
        .with_requirement(CapabilityRequirement::All(set(&[1, 2]))),
        ConsumerSpec::new(
            ConsumerId::new(4),
            Capability::new(4),
            5.0,
            1.0,
            1,
            ConsumerProfile::default(),
        )
        .with_requirement(CapabilityRequirement::Any(set(&[4, 5, 6]))),
    ]
}

fn run_row(label: &str, report: &FailoverRunReport) -> [String; 6] {
    let throughput = {
        let secs = report.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            report.outcomes.len() as f64 / secs
        }
    };
    [
        label.to_string(),
        report.mediated().to_string(),
        report.starved().to_string(),
        report.crashes_fired.to_string(),
        format!("{:.1}", report.wall.as_secs_f64() * 1e3),
        format!("{throughput:.0}"),
    ]
}

fn main() -> ExitCode {
    let options = cli::parse_env_or_exit();
    let provider_count = options
        .volunteers
        .unwrap_or(if options.quick { 2_000 } else { 100_000 });
    let query_count = options
        .queries
        .unwrap_or(if options.quick { 5_000 } else { 50_000 });
    let shards = options
        .shards
        .as_ref()
        .and_then(|counts| counts.first().copied())
        .unwrap_or(2);
    let batch = options.batch.unwrap_or(64);
    let seed = options.seed.unwrap_or(42);
    let system = SystemConfig::default().with_knbest(
        options.knbest_k.unwrap_or(20),
        options.knbest_kn.unwrap_or(4),
    );
    let config = FailoverRunConfig {
        shards,
        batch,
        seed,
        system,
        // Deliberately co-prime with the crash point's batch index, so the
        // promotions land mid-checkpoint-window and replay real work.
        checkpoint_interval: 7,
        churn_per_batch: 6,
    };

    eprintln!(
        "failover scenario: {provider_count} providers, {query_count} queries, \
         {shards} replicated shards, batch {batch}, seed {seed}…"
    );
    let providers = providers(provider_count);
    let consumers = consumers();
    let stream = generate_query_stream(&consumers, &WorkloadModel::default(), query_count, seed);

    let calm =
        match run_replicated_service(&config, &providers, &consumers, &stream, &FaultPlan::new()) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("uninterrupted run failed: {err}");
                return ExitCode::FAILURE;
            }
        };

    // Kill every shard's primary at the stream's virtual midpoint.
    let crash_time = stream[stream.len() / 2].issued_at;
    let mut plan = FaultPlan::new();
    for shard in 0..shards {
        plan = plan.crash_at(crash_time, shard);
    }
    let stormy = match run_replicated_service(&config, &providers, &consumers, &stream, &plan) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("crashed run failed: {err}");
            return ExitCode::FAILURE;
        }
    };

    // The failover contract, checked at runtime: losing every primary
    // mid-stream must not change a single outcome byte.
    if calm.outcomes == stormy.outcomes && calm.outcome_digest() == stormy.outcome_digest() {
        eprintln!(
            "failover check: crashed run ≡ uninterrupted run \
             (digest {:#018x}) ✓",
            calm.outcome_digest()
        );
    } else {
        eprintln!("failover check FAILED: crashed run diverged from the uninterrupted run");
        return ExitCode::FAILURE;
    }

    let mut table = Table::new(
        "Scenario failover — replicated service, crashed vs uninterrupted",
        &[
            "config",
            "mediated",
            "starved",
            "crashes",
            "wall (ms)",
            "queries/s",
        ],
    );
    table.add_row(&run_row("uninterrupted", &calm));
    table.add_row(&run_row(
        &format!(
            "{} crashes at t={:.1}s",
            stormy.crashes_fired,
            crash_time.seconds()
        ),
        &stormy,
    ));

    // Replication counters, one row per shard of each run — one shared
    // display path for both runs, like the sharded harness's latency rows.
    let mut replication_table = Table::new(
        "Replication counters per shard",
        &[
            "config",
            "shard",
            "log depth",
            "appended",
            "applied",
            "lag",
            "checkpoints",
            "promotions",
        ],
    );
    for (label, report) in [("uninterrupted", &calm), ("crashed", &stormy)] {
        for shard in &report.shards {
            let Some(stats) = shard.replication else {
                continue;
            };
            replication_table.add_row(&[
                label.to_string(),
                shard.shard.to_string(),
                stats.log_depth.to_string(),
                stats.last_appended.to_string(),
                stats.last_applied.to_string(),
                stats.replay_lag.to_string(),
                stats.checkpoints.to_string(),
                stats.promotions.to_string(),
            ]);
        }
    }

    let mut replay_table = Table::new(
        "Promotion replay work (crashed run)",
        &[
            "shard",
            "deltas replayed",
            "queries replayed",
            "starved on replay",
        ],
    );
    for (shard, replay) in &stormy.replays {
        replay_table.add_row(&[
            shard.to_string(),
            replay.deltas_replayed.to_string(),
            (replay.queries_mediated + replay.queries_starved).to_string(),
            replay.queries_starved.to_string(),
        ]);
    }

    // Directly measured promotion latency: arm a replicated service, run
    // half the stream, then time kill-to-promoted for shard 0.
    let promotion = measure_promotion(&config, &providers, &consumers, &stream);

    println!("{}", table.render());
    println!("{}", replication_table.render());
    println!("{}", replay_table.render());
    match promotion {
        Ok(duration) => println!(
            "promotion latency (shard 0, {} providers, mid-stream): {:.2} ms",
            provider_count,
            duration.as_secs_f64() * 1e3
        ),
        Err(err) => {
            eprintln!("promotion measurement failed: {err}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs half the stream, then times `crash_shard(0)` — the kill-to-promoted
/// span a deployment would observe.
fn measure_promotion(
    config: &FailoverRunConfig,
    providers: &[ProviderSpec],
    consumers: &[ConsumerSpec],
    stream: &[sbqa_types::Query],
) -> Result<std::time::Duration, sbqa_types::SbqaError> {
    let mut service =
        sbqa_service::ShardedMediator::sbqa(config.system.clone(), config.seed, config.shards)?;
    service.replicate()?;
    service.set_checkpoint_interval(config.checkpoint_interval);
    for spec in providers {
        service.register_provider(spec.id, spec.capabilities, spec.capacity);
    }
    for spec in consumers {
        service.register_consumer(spec.id);
    }
    let oracle = HashIntentions::new(config.seed);
    for chunk in stream[..stream.len() / 2].chunks(config.batch.max(1)) {
        service.try_submit_batch(chunk, &oracle, |_, _, _| {})?;
    }
    let start = Instant::now();
    service.crash_shard(0, &oracle)?;
    Ok(start.elapsed())
}
