//! Command-line flag parsing shared by every scenario binary.
//!
//! All seven harness binaries (`scenario <N>`, `scenario_k_sweep`,
//! `scenario_multicap`, `scenario_sharded`, `scenario_adaptive`,
//! `scenario_failover`, `scenario_overload`) accept one flag vocabulary,
//! parsed here — scale (`--quick`, `--volunteers`/`--providers`,
//! `--duration`, `--arrival`, `--queries`), determinism (`--seed`), the
//! KnBest knobs (`--k`, `--kn`), the sharded-service knobs (`--shards`,
//! `--batch`) and output (`--csv`). Binaries that do not use a flag simply
//! ignore it, so adding a knob (like `--shards`) lands in exactly one place.

use std::process::ExitCode;

use sbqa_boinc::{Scenario, ScenarioId};

/// Command-line options shared by all scenario binaries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HarnessOptions {
    /// Use the reduced preset.
    pub quick: bool,
    /// Override the number of volunteers.
    pub volunteers: Option<usize>,
    /// Override the run duration in virtual seconds.
    pub duration: Option<f64>,
    /// Override the per-project arrival rate.
    pub arrival: Option<f64>,
    /// Override the simulation seed.
    pub seed: Option<u64>,
    /// Write the time-series CSV to this path.
    pub csv: Option<String>,
    /// Override KnBest's `k` (random pre-selection width).
    pub knbest_k: Option<usize>,
    /// Override KnBest's `kn` (providers kept after the load filter).
    pub knbest_kn: Option<usize>,
    /// Shard counts to sweep (`--shards 1,2,4,8`), for the sharded-service
    /// harness.
    pub shards: Option<Vec<usize>>,
    /// Ingest chunk size for the sharded-service harness.
    pub batch: Option<usize>,
    /// Number of queries to stream through service-level harnesses.
    pub queries: Option<usize>,
}

/// The usage line `--help` / `-h` prints (only `scenario` takes the `N`).
pub const USAGE: &str = "usage: scenario N [--quick] [--volunteers N | --providers N] \
     [--duration S] [--arrival RATE] [--seed SEED] [--k K] [--kn KN] \
     [--shards N1,N2,...] [--batch B] [--queries Q] [--csv PATH]";

impl HarnessOptions {
    /// Parses options from an argument iterator (excluding the program name).
    /// Unknown flags are reported as errors so typos do not silently run the
    /// wrong experiment.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut options = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => options.quick = true,
                "--volunteers" => {
                    options.volunteers = Some(Self::parse_value(&mut iter, "--volunteers")?);
                }
                // The providers of the paper are BOINC volunteers; the alias
                // makes large-population runs read naturally
                // (`--providers 100000`).
                "--providers" => {
                    options.volunteers = Some(Self::parse_value(&mut iter, "--providers")?);
                }
                "--duration" => {
                    options.duration = Some(Self::parse_value(&mut iter, "--duration")?);
                }
                "--arrival" => {
                    options.arrival = Some(Self::parse_value(&mut iter, "--arrival")?);
                }
                "--seed" => options.seed = Some(Self::parse_value(&mut iter, "--seed")?),
                "--k" => options.knbest_k = Some(Self::parse_value(&mut iter, "--k")?),
                "--kn" => options.knbest_kn = Some(Self::parse_value(&mut iter, "--kn")?),
                "--shards" => {
                    let raw: String = Self::parse_value(&mut iter, "--shards")?;
                    let mut counts = Vec::new();
                    for part in raw.split(',') {
                        let count: usize = part
                            .trim()
                            .parse()
                            .map_err(|_| format!("--shards: cannot parse {part:?}"))?;
                        if count == 0 {
                            return Err("--shards: shard counts must be >= 1".to_string());
                        }
                        counts.push(count);
                    }
                    if counts.is_empty() {
                        return Err("--shards requires at least one count".to_string());
                    }
                    options.shards = Some(counts);
                }
                "--batch" => {
                    let batch: usize = Self::parse_value(&mut iter, "--batch")?;
                    if batch == 0 {
                        return Err("--batch must be >= 1".to_string());
                    }
                    options.batch = Some(batch);
                }
                "--queries" => {
                    options.queries = Some(Self::parse_value(&mut iter, "--queries")?);
                }
                "--csv" => {
                    options.csv = Some(
                        iter.next()
                            .ok_or_else(|| "--csv requires a path".to_string())?,
                    );
                }
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        Ok(options)
    }

    fn parse_value<T: std::str::FromStr, I: Iterator<Item = String>>(
        iter: &mut I,
        flag: &str,
    ) -> Result<T, String> {
        let raw = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
    }

    /// Builds the scenario this invocation should run.
    #[must_use]
    pub fn scenario(&self, id: ScenarioId) -> Scenario {
        let mut scenario = if self.quick {
            Scenario::quick(id)
        } else {
            Scenario::new(id)
        };
        if let Some(volunteers) = self.volunteers {
            scenario.population = scenario.population.with_volunteers(volunteers);
        }
        if let Some(arrival) = self.arrival {
            scenario.population = scenario.population.with_arrival_rate(arrival);
        }
        if let Some(duration) = self.duration {
            scenario.sim.duration = duration;
            scenario.sim.sample_interval = (duration / 30.0).max(1.0);
        }
        if let Some(seed) = self.seed {
            scenario.sim = scenario.sim.clone().with_seed(seed);
            scenario.population = scenario.population.clone().with_seed(seed.wrapping_add(1));
        }
        if self.knbest_k.is_some() || self.knbest_kn.is_some() {
            let k = self.knbest_k.unwrap_or(scenario.sim.system.knbest_k);
            let kn = self.knbest_kn.unwrap_or(scenario.sim.system.knbest_kn);
            scenario.sim.system = scenario.sim.system.clone().with_knbest(k, kn);
        }
        scenario
    }
}

/// `true` if the arguments ask for the usage line.
fn wants_help(args: &[String]) -> bool {
    args.iter().any(|arg| arg == "--help" || arg == "-h")
}

/// Parses the process arguments — the shared preamble of every harness
/// binary.
#[must_use]
pub fn parse_env_or_exit() -> HarnessOptions {
    parse_or_exit(std::env::args().skip(1).collect())
}

/// Parses `args`. `--help` / `-h` prints the usage line to stdout and exits
/// 0; a parse error goes to stderr and exits 1.
#[must_use]
pub fn parse_or_exit(args: Vec<String>) -> HarnessOptions {
    if wants_help(&args) {
        println!("{USAGE}");
        std::process::exit(0);
    }
    match HarnessOptions::parse(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(1);
        }
    }
}

/// Turns a harness body's verdict into the process exit code, printing the
/// failure to stderr.
#[must_use]
pub fn exit(verdict: Result<(), String>) -> ExitCode {
    match verdict {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        let options = HarnessOptions::parse(args(&[])).unwrap();
        assert_eq!(options, HarnessOptions::default());

        let options = HarnessOptions::parse(args(&[
            "--quick",
            "--volunteers",
            "25",
            "--duration",
            "60",
            "--arrival",
            "5.5",
            "--seed",
            "9",
            "--csv",
            "/tmp/out.csv",
        ]))
        .unwrap();
        assert!(options.quick);
        assert_eq!(options.volunteers, Some(25));
        assert_eq!(options.duration, Some(60.0));
        assert_eq!(options.arrival, Some(5.5));
        assert_eq!(options.seed, Some(9));
        assert_eq!(options.csv.as_deref(), Some("/tmp/out.csv"));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(HarnessOptions::parse(args(&["--bogus"])).is_err());
        assert!(HarnessOptions::parse(args(&["--volunteers"])).is_err());
        assert!(HarnessOptions::parse(args(&["--volunteers", "many"])).is_err());
    }

    #[test]
    fn help_is_a_request_not_a_parse_error() {
        assert!(wants_help(&args(&["--help"])));
        assert!(wants_help(&args(&["--quick", "-h"])));
        assert!(!wants_help(&args(&["--quick", "--seed", "7"])));
    }

    #[test]
    fn providers_flag_is_a_volunteers_alias() {
        let options = HarnessOptions::parse(args(&["--providers", "100000"])).unwrap();
        assert_eq!(options.volunteers, Some(100_000));
        assert!(HarnessOptions::parse(args(&["--providers"])).is_err());
    }

    #[test]
    fn sharding_flags_parse_and_validate() {
        let options = HarnessOptions::parse(args(&[
            "--shards",
            "1,2,4,8",
            "--batch",
            "64",
            "--queries",
            "50000",
        ]))
        .unwrap();
        assert_eq!(options.shards, Some(vec![1, 2, 4, 8]));
        assert_eq!(options.batch, Some(64));
        assert_eq!(options.queries, Some(50_000));

        // Single count and spaced lists are fine.
        let options = HarnessOptions::parse(args(&["--shards", "2"])).unwrap();
        assert_eq!(options.shards, Some(vec![2]));
        let options = HarnessOptions::parse(args(&["--shards", "1, 2"])).unwrap();
        assert_eq!(options.shards, Some(vec![1, 2]));

        // Degenerate values are rejected.
        assert!(HarnessOptions::parse(args(&["--shards", "0"])).is_err());
        assert!(HarnessOptions::parse(args(&["--shards", "two"])).is_err());
        assert!(HarnessOptions::parse(args(&["--shards"])).is_err());
        assert!(HarnessOptions::parse(args(&["--batch", "0"])).is_err());
    }

    #[test]
    fn knbest_flags_override_the_scenario_config() {
        let options = HarnessOptions::parse(args(&["--quick", "--k", "30", "--kn", "6"])).unwrap();
        assert_eq!(options.knbest_k, Some(30));
        assert_eq!(options.knbest_kn, Some(6));
        let scenario = options.scenario(ScenarioId::S1);
        assert_eq!(scenario.sim.system.knbest_k, 30);
        assert_eq!(scenario.sim.system.knbest_kn, 6);

        // A lone --kn keeps the preset's k.
        let options = HarnessOptions::parse(args(&["--quick", "--kn", "2"])).unwrap();
        let scenario = options.scenario(ScenarioId::S1);
        assert_eq!(scenario.sim.system.knbest_kn, 2);
    }

    #[test]
    fn scenario_overrides_apply() {
        let options = HarnessOptions::parse(args(&[
            "--quick",
            "--volunteers",
            "12",
            "--duration",
            "30",
            "--seed",
            "4",
        ]))
        .unwrap();
        let scenario = options.scenario(ScenarioId::S4);
        assert_eq!(scenario.population.volunteers, 12);
        assert_eq!(scenario.sim.duration, 30.0);
        assert_eq!(scenario.sim.seed, 4);
        assert!(scenario.sim.departure.is_autonomous());
    }
}
