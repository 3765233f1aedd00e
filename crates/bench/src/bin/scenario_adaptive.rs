//! Adaptive `kn` vs the static Scenario-6 sweep, under a load step.
//!
//! The paper's Scenario 6 adapts SbQA to the application by sweeping the
//! KnBest exploration width `kn` by hand; the adaptive-`kn` controller
//! (`sbqa_core::adaptive`) claims to make the sweep unnecessary. This
//! harness puts both on the **same deterministic open-loop stream** and
//! closes the feedback loops that make the choice of `kn` consequential
//! (see `sbqa_sim::LoadFeedback`):
//!
//! * persistent consumer↔provider preferences, so intention-driven
//!   allocation concentrates work,
//! * allocation backlog mirrored into provider load and load-blended
//!   provider intentions,
//! * an **arrival-rate step** (×5 halfway through the stream),
//! * dissatisfaction departures: providers below the satisfaction
//!   threshold leave for good, taking their capacity with them.
//!
//! Compared rows: static `kn ∈ {2, 4, 8, 16}` and the adaptive controller
//! (`kn ∈ [2, 16]`, starting at 4). Reported per row: mediated/starved
//! tallies, departed providers, the aggregate per-query consumer
//! satisfaction `δs(c, q)` (whole run and post-step), and the final mean
//! width. The run **checks** the self-adaptation claim at runtime: the
//! adaptive row must match or beat the best static row on aggregate
//! consumer satisfaction (deterministic per seed, so the check is stable).
//!
//! Flags (see `sbqa_bench::cli`): `--quick`, `--providers N`,
//! `--queries Q`, `--shards N` (first value of the list; default 1),
//! `--batch B`, `--seed SEED`, `--k K`, `--csv PATH` (dumps the kn and
//! satisfaction time series of every row).

use std::process::ExitCode;

use sbqa_bench::{cli, world};
use sbqa_core::intention::ConsumerProfile;
use sbqa_core::KnControllerConfig;
use sbqa_metrics::{Table, TimeSeries};
use sbqa_service::ServiceReport;
use sbqa_sim::{
    generate_query_stream, run, AdaptiveOracle, ConsumerSpec, LoadFeedback, LoadStep, ServiceRun,
    WorkloadModel,
};
use sbqa_types::{Capability, ConsumerId, SystemConfig};

/// The static widths of the paper's Scenario-6 sweep.
const STATIC_KNS: [usize; 4] = [2, 4, 8, 16];

/// Twenty-four consumers spread over the classes, with conflicting
/// persistent preference sets (many consumers per class means no small
/// "elite" of providers can serve everyone); `rate_scale` calibrates the
/// aggregate arrival rate against the population's capacity.
fn consumers(rate_scale: f64) -> Vec<ConsumerSpec> {
    (0..24u64)
        .map(|c| {
            ConsumerSpec::new(
                ConsumerId::new(1 + c),
                Capability::new((c % u64::from(world::CLASSES)) as u8),
                rate_scale * if c % 3 == 0 { 1.5 } else { 1.0 } / 4.0,
                1.0,
                1 + (c % 2) as usize,
                ConsumerProfile::default(),
            )
        })
        .collect()
}

fn main() -> ExitCode {
    cli::exit(compare(&cli::parse_env_or_exit()))
}

fn compare(options: &cli::HarnessOptions) -> Result<(), String> {
    let scale = world::Scale::new(options, [320, 1_200], [10_000, 40_000], &[1], 128);
    let (shards, batch, seed, k) = (scale.shards[0], scale.batch, scale.seed, scale.k);

    // Comfortably under drain capacity before the step, decidedly over it
    // after: the optimal static width genuinely changes mid-run.
    let rate_scale = scale.providers as f64 / 160.0;
    let step = LoadStep {
        at_fraction: 0.5,
        rate_multiplier: 5.0,
    };

    eprintln!(
        "adaptive kn sweep: {} providers, {} queries, \
         {shards} shard(s), batch {batch}, load step ×{} at {:.0}%, seed {seed}…",
        scale.providers,
        scale.queries,
        step.rate_multiplier,
        step.at_fraction * 100.0
    );

    // The `scenario_sharded` shape, so every class keeps a healthy candidate
    // pool, over capacities 1 / 1.5 / 2.
    let providers = world::providers_with(scale.providers, |i| 1.0 + (i % 3) as f64 * 0.5);
    let consumers = consumers(rate_scale);
    let workload = WorkloadModel::default();
    let stream = generate_query_stream(&consumers, &workload, scale.queries, seed, Some(step));
    let step_at = stream
        .get(((scale.queries as f64) * step.at_fraction) as usize)
        .map(|q| q.issued_at);

    let case = |label: String, kn: usize, adaptive_kn: Option<KnControllerConfig>| {
        let failed = |err: sbqa_types::SbqaError| format!("{label}: {err}");
        let config = ServiceRun {
            shards,
            batch,
            adaptive_kn,
            ..ServiceRun::new(SystemConfig::default().with_knbest(k, kn.min(k)), seed)
        };
        // Load has real authority over provider intentions (weight 0.4 on
        // preference): an overloaded provider refuses work it would
        // otherwise love, which is what makes over-exploration costly once
        // the step hits.
        let oracle = AdaptiveOracle::new(seed, 0.4, 3.0, &providers).map_err(failed)?;
        let mut world = LoadFeedback::new(oracle);
        world.step_at = step_at;
        let report = run(&config, &providers, &consumers, &stream, &mut world)
            .map_err(failed)?
            .report;
        Ok::<_, String>((label, report, world))
    };
    // Clamp the whole width range to k so a small `--k` degrades cleanly
    // instead of producing an invalid controller configuration.
    let max_kn = 16.min(k);
    let min_kn = 2.min(max_kn);
    let controller = KnControllerConfig {
        initial_kn: 4.clamp(min_kn, max_kn),
        min_kn,
        max_kn,
        // React within a few batches: the run is short relative to the
        // controller's default caution.
        alpha: 0.5,
        step: 2,
        window: 32,
        // The per-mediation gap grows with kn (every consulted-but-rejected
        // provider contributes a zero to the provider side), so the target
        // picks the operating point: ~0.77 sits at the satisfaction knee of
        // this economy (kn ≈ 12). Overload pushes the winners' intentions
        // down, moving the gap off-target and the width with it.
        target_gap: 0.77,
        deadband: 0.04,
    };

    let mut rows: Vec<(String, ServiceReport, LoadFeedback)> = Vec::new();
    for kn in STATIC_KNS {
        if kn > k {
            eprintln!("skipping static kn {kn}: exceeds k {k}");
            continue;
        }
        rows.push(case(format!("static kn={kn}"), kn, None)?);
    }
    let best_static = rows
        .iter()
        .map(|(_, _, world)| world.mean_query_satisfaction())
        .fold(f64::NEG_INFINITY, f64::max);
    rows.push(case(
        "adaptive".to_string(),
        controller.initial_kn,
        Some(controller),
    )?);

    let mut table = Table::new(
        "Scenario adaptive — self-tuned kn vs the static sweep under a ×5 load step",
        &[
            "config",
            "mediated",
            "starved",
            "departed",
            "δs(c,q) run",
            "δs(c,q) post-step",
            "final kn",
        ],
    );
    for (label, report, world) in &rows {
        table.add_row(&[
            label.clone(),
            report.total.mediated.to_string(),
            report.total.starved.to_string(),
            world.departed().to_string(),
            format!("{:.4}", world.mean_query_satisfaction()),
            format!("{:.4}", world.post_step_satisfaction()),
            world
                .final_mean_kn()
                .map_or_else(String::new, |kn| format!("{kn:.1}")),
        ]);
    }
    println!("{}", table.render());

    // The adaptive width over time, downsampled for the terminal.
    let (_, adaptive_report, adaptive_world) = &rows[rows.len() - 1];
    let kn_curve = adaptive_world.kn_series.downsample(16);
    let curve: Vec<String> = kn_curve
        .points()
        .iter()
        .map(|p| format!("{:.0}:{:.1}", p.at.seconds(), p.value))
        .collect();
    println!(
        "adaptive mean kn over virtual time (t:kn): {}",
        curve.join(" ")
    );
    let trails = adaptive_report.shards.iter().map(|s| s.kn_trail.len());
    println!(
        "controller adjustments: {} across {} shard(s)",
        trails.sum::<usize>(),
        adaptive_report.shards.len()
    );

    if let Some(path) = &options.csv {
        let mut all: Vec<TimeSeries> = Vec::new();
        for (label, _, world) in &rows {
            let mut kn = world.kn_series.clone();
            kn.name = format!("kn/{label}");
            let mut sat = world.satisfaction_series.clone();
            sat.name = format!("satisfaction/{label}");
            all.push(kn);
            all.push(sat);
        }
        let csv = sbqa_metrics::CsvWriter::render_series(&all);
        std::fs::write(path, csv).map_err(|err| format!("cannot write {path}: {err}"))?;
        eprintln!("time series written to {path}");
    }

    // The self-adaptation check: the adaptive row must match or beat the
    // best static width on aggregate consumer satisfaction. Deterministic
    // per seed — a failure is a real controller regression, not noise.
    let adaptive_sat = adaptive_world.mean_query_satisfaction();
    if adaptive_sat + 1e-3 < best_static {
        return Err(format!(
            "self-adaptation check FAILED: adaptive {adaptive_sat:.4} < best static {best_static:.4}"
        ));
    }
    eprintln!("self-adaptation check: adaptive {adaptive_sat:.4} ≥ best static {best_static:.4} ✓");
    Ok(())
}
