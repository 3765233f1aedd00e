//! `sbqa_perf`: command line of the repository's benchmark.
//!
//! ```text
//! sbqa_perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! sbqa_perf [--seed N] [--seconds S] [--trace] [--quick] [--label L] [--repeat N]
//! sbqa_perf compare A.json B.json
//! ```
//!
//! The first form runs one workload in this process and prints, as the last
//! line of its standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The second runs every workload, each
//! in a process of its own so that `peak_rss_mb` is per workload, and writes
//! `perf/results/<label>.json`. Both exit non-zero when a correctness gate
//! fails.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use sbqa_perf::alloc_count::CountingAllocator;
use sbqa_perf::result::{self, ResultFile, Verdict, WorkloadResult};
use sbqa_perf::runner;
use sbqa_perf::trace;
use sbqa_perf::workloads::{Sizing, Workload};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Where result files and span dumps go, relative to the working directory
/// (`perf/run.sh` runs the binary from the repository root).
const RESULTS_DIR: &str = "perf/results";
/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 16;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    label: Option<String>,
    repeat: usize,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
        label: None,
        repeat: 1,
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                options.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                options.seconds = value("a whole number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&options.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                options.trace = match args.peek().map(|next| next.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => options.quick = true,
            "--out" => options.out = Some(PathBuf::from(value("a file")?)),
            "--label" => options.label = Some(value("a label")?),
            "--repeat" => {
                options.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

fn sizing(options: &Options) -> Sizing {
    if options.quick {
        Sizing::quick()
    } else {
        Sizing::full(options.seconds)
    }
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process.
fn run_workload(workload: Workload, options: &Options) -> Result<(), String> {
    let sizing = sizing(options);
    let result = if options.trace {
        let traced = runner::traced(workload, options.seed, &sizing)?;
        let label = options
            .label
            .clone()
            .unwrap_or_else(|| format!("seed{}", options.seed));
        let spans = Path::new(RESULTS_DIR).join(format!("{label}.{}.spans.jsonl", workload.name()));
        write(&spans, &traced.spans_jsonl)?;
        println!("{}", trace::render_table(&traced.result.stage_table));
        println!("raw spans of the first queries: {}", spans.display());
        traced.result
    } else {
        runner::untraced(workload, options.seed, &sizing)?
    };
    print!("{}", result::render(&result));
    if options.quick {
        println!("--quick: 2 000 providers, 1 segment — NOT COMPARABLE with any other run");
    }
    if let Some(out) = &options.out {
        let json = serde_json::to_string(&result).map_err(|e| e.to_string())?;
        write(out, &json)?;
    }
    println!("{}", result::driver_line(&result, options.trace));
    Ok(())
}

fn box_name() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|name| name.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Runs one workload in a child process and reads its result back.
fn child(
    workload: Workload,
    options: &Options,
    label: &str,
    trace: bool,
) -> Result<WorkloadResult, String> {
    let out = Path::new(RESULTS_DIR).join(format!(
        ".{label}.{}.{}.json",
        workload.name(),
        u8::from(trace)
    ));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--label", label])
        .arg("--out")
        .arg(&out);
    if options.quick {
        command.arg("--quick");
    }
    // `status` waits for the child to end; its output goes to ours.
    let status = command.status().map_err(|e| format!("spawn: {e}"))?;
    if !status.success() {
        return Err(format!("{} failed ({status})", workload.name()));
    }
    let json = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    // The file only carried the result from the child to here.
    let _ = std::fs::remove_file(&out);
    serde_json::from_str(&json).map_err(|e| format!("{}: {e}", out.display()))
}

/// Every workload, one process each; writes `perf/results/<label>.json`.
fn run_suite(options: &Options, label: &str) -> Result<PathBuf, String> {
    let mut file = ResultFile {
        label: label.to_string(),
        box_name: box_name(),
        nproc: nproc(),
        seed: options.seed,
        seconds: options.seconds,
        comparable: !options.quick,
        workloads: Vec::new(),
    };
    println!(
        "sbqa_perf {label}: box {} (nproc {}), seed {}, {} s budget{}",
        file.box_name,
        file.nproc,
        file.seed,
        file.seconds,
        if options.quick {
            ", --quick (not comparable)"
        } else {
            ""
        }
    );
    for workload in Workload::ALL {
        let mut result = child(workload, options, label, false)?;
        if options.trace {
            let traced = child(workload, options, label, true)?;
            result.per_layer = traced.per_layer;
            result.stage_table = traced.stage_table;
            result.gates.extend(traced.gates);
        }
        file.workloads.push(result);
    }
    let path = Path::new(RESULTS_DIR).join(format!("{label}.json"));
    let json = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    write(&path, &json)?;
    println!("wrote {}", path.display());
    Ok(path)
}

fn load(path: &Path) -> Result<ResultFile, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the comparison; `Ok(true)` when no pair regressed (and, for the
/// self-agreement gate, none stayed unresolved).
fn run_compare(a: &Path, b: &Path, unresolved_fails: bool) -> Result<bool, String> {
    let (table, verdicts) = result::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    let count = |v: Verdict| verdicts.iter().filter(|x| **x == v).count();
    let (regressions, unresolved) = (count(Verdict::Regression), count(Verdict::Unresolved));
    println!(
        "{} pairs: {regressions} regression(s), {unresolved} unresolved, {} improved, {} unchanged",
        verdicts.len(),
        count(Verdict::Improved),
        count(Verdict::Unchanged)
    );
    Ok(regressions == 0 && !(unresolved_fails && unresolved > 0))
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return Err("usage: sbqa_perf compare A.json B.json".to_string());
        };
        return run_compare(Path::new(a), Path::new(b), false);
    }
    let options = parse(&args)?;
    if let Some(workload) = options.workload {
        return run_workload(workload, &options).map(|()| true);
    }
    let label = options.label.clone().unwrap_or_else(|| {
        format!(
            "{}-seed{}",
            if options.quick { "quick" } else { "run" },
            options.seed
        )
    });
    if options.repeat <= 1 {
        return run_suite(&options, &label).map(|_| true);
    }
    // The self-agreement gate: the same commit, run twice, must agree with
    // itself within the benchmark's own bounds, no pair left unresolved.
    let mut paths = Vec::new();
    for round in 1..=options.repeat {
        paths.push(run_suite(&options, &format!("{label}-r{round}"))?);
    }
    let mut agreed = true;
    for pair in paths.windows(2) {
        agreed &= run_compare(&pair[0], &pair[1], true)?;
    }
    Ok(agreed)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("sbqa_perf: {message}");
            ExitCode::FAILURE
        }
    }
}
