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
//! per-promotion replay work, and shard 0's measured kill-to-promoted latency.
//!
//! Flags (see `sbqa_bench::cli`): `--quick`, `--providers N`, `--queries Q`,
//! `--shards N` (first value; default 2), `--batch B`, `--seed SEED`,
//! `--k K`, `--kn KN`.

use std::process::ExitCode;

use sbqa_bench::{cli, world};
use sbqa_metrics::Table;
use sbqa_service::ServiceReport;
use sbqa_sim::{
    generate_query_stream, run, timed_outcome_digest, HashWorld, RunEvent, ServiceRun, Timeline,
    WorkloadModel,
};

fn run_row(label: &str, report: &ServiceReport, crashes: usize) -> [String; 6] {
    [
        label.to_string(),
        report.total.mediated.to_string(),
        report.total.starved.to_string(),
        crashes.to_string(),
        format!("{:.1}", report.wall.as_secs_f64() * 1e3),
        format!("{:.0}", report.throughput_per_sec()),
    ]
}

fn main() -> ExitCode {
    cli::exit(crash_and_compare(&cli::parse_env_or_exit()))
}

fn crash_and_compare(options: &cli::HarnessOptions) -> Result<(), String> {
    let scale = world::Scale::service(options, &[2]);
    let (shards, batch, seed) = (scale.shards[0], scale.batch, scale.seed);
    let replicated = |timeline| ServiceRun {
        shards,
        batch,
        // Deliberately co-prime with the crash point's batch index, so the
        // promotions land mid-checkpoint-window and replay real work.
        replicate: Some(7),
        timeline,
        ..ServiceRun::new(scale.system(), seed)
    };

    eprintln!(
        "failover scenario: {} providers, {} queries, \
         {shards} replicated shards, batch {batch}, seed {seed}…",
        scale.providers, scale.queries
    );
    let providers = world::providers(scale.providers);
    let consumers = world::consumers();
    let stream = generate_query_stream(
        &consumers,
        &WorkloadModel::default(),
        scale.queries,
        seed,
        None,
    );
    // Six registry mutations before every batch: the standbys replay real
    // deltas, not just the bootstrap registrations.
    let drive = |label: &str, timeline| {
        let mut world = HashWorld::new(seed, 6);
        run(
            &replicated(timeline),
            &providers,
            &consumers,
            &stream,
            &mut world,
        )
        .map_err(|err| format!("{label} run failed: {err}"))
    };

    let calm = drive("uninterrupted", Timeline::new())?;
    // Kill every shard's primary at the stream's virtual midpoint.
    let crash_time = stream[stream.len() / 2].issued_at;
    let plan = (0..shards).fold(Timeline::new(), |plan, shard| {
        plan.at(crash_time, RunEvent::Crash { shard })
    });
    let stormy = drive("crashed", plan)?;

    // The failover contract, checked at runtime: losing every primary
    // mid-stream must not change a single outcome byte.
    if calm.report.outcomes != stormy.report.outcomes {
        return Err(
            "failover check FAILED: crashed run diverged from the uninterrupted run".to_string(),
        );
    }
    eprintln!(
        "failover check: crashed run ≡ uninterrupted run \
         (digest {:#018x}) ✓",
        timed_outcome_digest(&calm.report.outcomes)
    );

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
    table.add_row(&run_row("uninterrupted", &calm.report, calm.events_fired));
    table.add_row(&run_row(
        &format!(
            "{} crashes at t={:.1}s",
            stormy.events_fired,
            crash_time.seconds()
        ),
        &stormy.report,
        stormy.events_fired,
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
            "lag",
            "checkpoints",
            "promotions",
        ],
    );
    for (label, run) in [("uninterrupted", &calm), ("crashed", &stormy)] {
        for shard in &run.report.shards {
            let Some(stats) = shard.replication else {
                continue;
            };
            replication_table.add_row(&[
                label.to_string(),
                shard.shard.to_string(),
                stats.log_depth.to_string(),
                stats.last_appended.to_string(),
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
    for promotion in &stormy.promotions {
        let replay = &promotion.replay;
        replay_table.add_row(&[
            promotion.shard.to_string(),
            replay.deltas_replayed.to_string(),
            (replay.queries_mediated + replay.queries_starved).to_string(),
            replay.queries_starved.to_string(),
        ]);
    }

    println!("{}", table.render());
    println!("{}", replication_table.render());
    println!("{}", replay_table.render());
    // The kill-to-promoted span a deployment would observe.
    if let Some(promotion) = stormy.promotions.first() {
        println!(
            "promotion latency (shard {}, {} providers, mid-stream): {:.2} ms",
            promotion.shard,
            scale.providers,
            promotion.wall.as_secs_f64() * 1e3
        );
    }
    Ok(())
}
