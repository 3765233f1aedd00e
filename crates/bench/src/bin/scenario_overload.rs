//! Sustained overload: the satisfaction-vs-latency frontier of the
//! degradation ladder, with runtime-enforced determinism checks.
//!
//! Not one of the paper's seven scenarios: this harness measures what the
//! bounded-ring ingest front buys *past* saturation. The `scenario_sharded`
//! population is driven through the service under sustained arrival steps
//! of **1× / 10× / 100×** the base rate, each twice:
//!
//! * **unbounded** — the seed's behavior: a huge ring, no ladder. Every
//!   query gets full-quality mediation, however stale its answer;
//! * **bounded + ladder** — the degradation ladder armed: under modeled
//!   pressure the service shrinks `kn`, falls back to the capacity
//!   baseline, and finally sheds — deterministically.
//!
//! The table prints, per run: per-tier mediation counts (normal / shrunk /
//! baseline / shed), ingest-to-decision p50/p99, mean consumer satisfaction
//! over *admitted* queries, and throughput — the frontier being that the
//! bounded column trades a bounded slice of satisfaction (and the shed
//! tail) for two orders of magnitude of tail latency.
//!
//! The run then *checks* (not just reports) the overload contract and
//! exits non-zero on violation:
//!
//! * **determinism** — the 100× bounded run's outcome digest and shed-set
//!   digest are byte-identical across a re-run and across two producer
//!   chunk sizes;
//! * **coverage** — the 100× bounded run exercises all three degraded
//!   tiers (shrink, baseline, shed) and Normal;
//! * **latency** (full runs only) — the bounded 10× p99 stays ≤ 500 ms;
//! * **quality** (full runs only) — bounded 10× admitted satisfaction
//!   stays within 5% of the unloaded (1×) run's.
//!
//! Flags (see `sbqa_bench::cli`): `--quick`, `--providers N`, `--queries Q`,
//! `--shards N` (first value; default 2), `--batch B`, `--seed SEED`,
//! `--k K`, `--kn KN`.

use std::process::ExitCode;

use sbqa_bench::{cli, world};
use sbqa_core::DegradationConfig;
use sbqa_metrics::Table;
use sbqa_service::ServiceReport;
use sbqa_sim::{
    admitted_satisfaction, generate_query_stream, outcome_digest, run, shed_digest, HashIntentions,
    HashWorld, LoadStep, ServiceRun, WorkloadModel,
};

/// The arrival steps swept, as multiples of the base rate.
const STEPS: [f64; 3] = [1.0, 10.0, 100.0];

/// The latency bound the bounded front must hold at the 10× step (full
/// runs; quick runs use tiny populations where constants dominate).
const P99_BOUND_MS: f64 = 500.0;

/// Admitted satisfaction at 10× must stay within this fraction of the
/// unloaded run's.
const SATISFACTION_TOLERANCE: f64 = 0.05;

/// The unbounded arm's ring: more slots than a step of the quick or full
/// preset has queries (5 000 / 50 000), so its producer never blocks.
const UNBOUNDED_RING: usize = 65_536;

/// The ladder the bounded runs arm. The drain model (250 admitted queries
/// per virtual second, per shard) sits far above the base rate — the 1×
/// and 10× streams ride Normal — and far below the 100× step, which must
/// climb every tier.
fn ladder() -> DegradationConfig {
    DegradationConfig {
        capacity: 256,
        drain_rate: 250.0,
    }
}

/// One run of the sweep: a 1 024-slot ring with the ladder armed, or the
/// seed's never-blocking ring without one.
struct Cell {
    step: f64,
    bounded: bool,
    report: ServiceReport,
    /// Mean consumer satisfaction over the admitted queries.
    satisfaction: f64,
}

fn row(cell: &Cell) -> [String; 11] {
    let report = &cell.report;
    let latency = report.aggregate_latency();
    let percentiles = latency.percentiles(&[0.5, 0.99]);
    let (normal, shrunk, baseline) = match report.degradation_stats() {
        Some(stats) => (stats.normal, stats.shrink_kn, stats.baseline),
        None => (report.total.submitted() as u64, 0, 0),
    };
    [
        format!("{:.0}x", cell.step),
        if cell.bounded {
            "bounded+ladder".to_string()
        } else {
            "unbounded".to_string()
        },
        normal.to_string(),
        shrunk.to_string(),
        baseline.to_string(),
        report.shed().to_string(),
        report.total.starved.to_string(),
        format!("{:.2}", percentiles[0] as f64 / 1e6),
        format!("{:.2}", percentiles[1] as f64 / 1e6),
        format!("{:.4}", cell.satisfaction),
        format!("{:.0}", report.throughput_per_sec()),
    ]
}

fn main() -> ExitCode {
    cli::exit(frontier(&cli::parse_env_or_exit()))
}

fn frontier(options: &cli::HarnessOptions) -> Result<(), String> {
    let scale = world::Scale::service(options, &[2]);
    let (shards, batch, seed) = (scale.shards[0], scale.batch, scale.seed);

    eprintln!(
        "overload scenario: {} providers, {} queries per step, \
         {shards} shards, batch {batch}, seed {seed}…",
        scale.providers, scale.queries
    );
    let providers = world::providers(scale.providers);
    let consumers = world::consumers();
    let drive = |bounded: bool, batch: usize, stream: &[sbqa_types::Query]| {
        let config = ServiceRun {
            shards,
            batch,
            threaded: Some(if bounded { 1_024 } else { UNBOUNDED_RING }),
            ladder: bounded.then(ladder),
            ..ServiceRun::new(scale.system(), seed)
        };
        let mut world = HashWorld::new(seed, 0);
        run(&config, &providers, &consumers, stream, &mut world).map(|run| run.report)
    };

    let mut cells: Vec<Cell> = Vec::new();
    for multiplier in STEPS {
        let step = (multiplier > 1.0).then_some(LoadStep {
            at_fraction: 0.25,
            rate_multiplier: multiplier,
        });
        let stream = generate_query_stream(
            &consumers,
            &WorkloadModel::default(),
            scale.queries,
            seed,
            step,
        );
        for bounded in [false, true] {
            let report = drive(bounded, batch, &stream).map_err(|err| {
                format!("run at {multiplier}x (bounded: {bounded}) failed: {err}")
            })?;
            cells.push(Cell {
                step: multiplier,
                bounded,
                satisfaction: admitted_satisfaction(
                    &report.outcomes,
                    &stream,
                    &HashIntentions::new(seed),
                ),
                report,
            });
        }
        // Determinism gate at the heaviest step: re-run and re-chunk the
        // bounded configuration; every digest must agree.
        if (multiplier - STEPS[STEPS.len() - 1]).abs() < f64::EPSILON {
            let digests = |report: &ServiceReport| {
                (
                    outcome_digest(&report.outcomes),
                    shed_digest(&report.outcomes),
                )
            };
            let golden = digests(&cells[cells.len() - 1].report);
            for rechunk in [batch, batch / 2 + 1] {
                let again = drive(true, rechunk, &stream)
                    .map_err(|err| format!("determinism re-run failed: {err}"))?;
                let again = digests(&again);
                if again != golden {
                    return Err(format!(
                        "determinism check FAILED at {multiplier}x chunk {rechunk}: \
                         digest {:#018x} vs {:#018x}, shed {:#018x} vs {:#018x}",
                        again.0, golden.0, again.1, golden.1
                    ));
                }
            }
            eprintln!(
                "determinism check: {multiplier}x outcome digest {:#018x}, \
                 shed digest {:#018x}, stable across runs and chunkings ✓",
                golden.0, golden.1
            );
        }
    }

    // Coverage gate: the 100x bounded run must exercise every tier.
    let stats = cells[cells.len() - 1]
        .report
        .degradation_stats()
        .expect("bounded runs arm the ladder");
    if stats.normal == 0 || stats.shrink_kn == 0 || stats.baseline == 0 || stats.shed == 0 {
        return Err(format!(
            "coverage check FAILED: 100x run missed a tier: {stats:?}"
        ));
    }
    eprintln!(
        "coverage check: 100x tiers normal {} / shrunk {} / baseline {} / shed {} \
         ({} transitions) ✓",
        stats.normal, stats.shrink_kn, stats.baseline, stats.shed, stats.transitions
    );

    let mut table = Table::new(
        "Scenario overload — satisfaction-vs-latency frontier per tier",
        &[
            "step",
            "config",
            "normal",
            "shrunk-kn",
            "baseline",
            "shed",
            "starved",
            "p50 (ms)",
            "p99 (ms)",
            "admitted sat.",
            "queries/s",
        ],
    );
    for cell in &cells {
        table.add_row(&row(cell));
    }
    println!("{}", table.render());

    // Full-run acceptance gates: tail latency and admitted quality at 10x.
    if !options.quick {
        let bounded_at = |step: f64| {
            cells
                .iter()
                .find(|cell| cell.bounded && (cell.step - step).abs() < f64::EPSILON)
                .expect("every step has a bounded cell")
        };
        let bounded_10x = bounded_at(10.0);
        let p99_ms = bounded_10x.report.aggregate_latency().p99() as f64 / 1e6;
        if p99_ms > P99_BOUND_MS {
            return Err(format!(
                "latency check FAILED: bounded 10x p99 {p99_ms:.1} ms > {P99_BOUND_MS} ms"
            ));
        }
        let reference = bounded_at(1.0).satisfaction;
        let at_10x = bounded_10x.satisfaction;
        let drop = if reference.abs() > f64::EPSILON {
            (reference - at_10x) / reference.abs()
        } else {
            0.0
        };
        if drop > SATISFACTION_TOLERANCE {
            return Err(format!(
                "quality check FAILED: admitted satisfaction fell {:.1}% under the 10x step \
                 ({at_10x:.4} vs {reference:.4} unloaded)",
                drop * 100.0
            ));
        }
        eprintln!(
            "acceptance: bounded 10x p99 {p99_ms:.1} ms ≤ {P99_BOUND_MS} ms, \
             admitted satisfaction {at_10x:.4} vs {reference:.4} unloaded \
             ({:+.1}%) ✓",
            -drop * 100.0
        );
    }
    Ok(())
}
