//! # sbqa-bench
//!
//! The experiment harness: scenario binaries (`scenario <N>` for the paper's
//! seven demonstration scenarios, plus the `scenario_k_sweep` ablation, the
//! `scenario_multicap` postings-merge experiment and the four service-level
//! harnesses over [`world`]'s population — the `scenario_sharded`
//! mediation-service sweep, the `scenario_adaptive` self-tuned-`kn`
//! comparison, the `scenario_failover` crash-and-promote check and the
//! `scenario_overload` degradation frontier). Stage costs are measured by
//! the benchmark under `perf/`, not here.
//!
//! Every binary accepts the same flags, parsed by the shared [`cli`] module:
//!
//! * `--quick` — run the reduced preset (40 volunteers, 80 virtual seconds)
//!   instead of the full one (200 volunteers, 300 virtual seconds);
//! * `--volunteers N` (alias `--providers N`, e.g. `--providers 100000` for
//!   the large-population stress preset), `--duration SECONDS`,
//!   `--arrival RATE`, `--seed SEED` — override individual scale parameters;
//! * `--k K`, `--kn KN` — override the KnBest knobs of the preset;
//! * `--shards N1,N2,...`, `--batch B`, `--queries Q` — the sharded
//!   mediation-service knobs (used by the four service-level harnesses);
//! * `--csv PATH` — additionally dump every time series (the analogue of the
//!   demo's live plots) as long-format CSV.

#![forbid(unsafe_code)]

pub mod cli;
pub mod world;

use std::fs;
use std::process::ExitCode;

use sbqa_boinc::{ScenarioId, ScenarioOutcome};

pub use cli::{parse_env_or_exit, HarnessOptions};

/// Prints a scenario outcome and optionally writes its CSV.
fn emit(outcome: &ScenarioOutcome, options: &HarnessOptions) -> Result<(), String> {
    println!("{}", outcome.table());
    if let Some(path) = &options.csv {
        fs::write(path, outcome.series_csv())
            .map_err(|err| format!("cannot write {path}: {err}"))?;
        println!("time series written to {path}");
    }
    Ok(())
}

/// Entry point of the `scenario` binary: `scenario <1-7> [flags]`.
#[must_use]
pub fn scenario_main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let id = args.first().and_then(|raw| {
        let number = raw.parse().ok()?;
        ScenarioId::all()
            .into_iter()
            .find(|id| id.number() == number)
    });
    if id.is_some() {
        args.remove(0);
    }
    let options = cli::parse_or_exit(args);
    let Some(id) = id else {
        return cli::exit(Err(format!(
            "expected a scenario number (1-7) before the flags\n{}",
            cli::USAGE
        )));
    };
    let scenario = options.scenario(id);
    eprintln!(
        "running scenario {} ({} volunteers, {:.0} virtual seconds)…",
        id.number(),
        scenario.population.volunteers,
        scenario.sim.duration
    );
    cli::exit(
        scenario
            .run()
            .map_err(|err| format!("scenario failed: {err}"))
            .and_then(|outcome| emit(&outcome, &options)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_writes_csv_when_requested() {
        let options = HarnessOptions::parse(
            [
                "--quick",
                "--volunteers",
                "10",
                "--duration",
                "20",
                "--arrival",
                "4",
            ]
            .iter()
            .map(|s| (*s).to_string()),
        )
        .unwrap();
        let outcome = options.scenario(ScenarioId::S1).run().unwrap();
        let path = std::env::temp_dir().join("sbqa_bench_emit_test.csv");
        let mut with_csv = options.clone();
        with_csv.csv = Some(path.to_string_lossy().to_string());
        emit(&outcome, &with_csv).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.starts_with("series,time,value"));
        let _ = std::fs::remove_file(&path);
    }
}
