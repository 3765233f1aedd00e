//! # sbqa-lint
//!
//! Workspace-aware static analysis that proves SbQA's determinism,
//! panic-freedom and unsafe-audit contracts at the *source* level, before a
//! golden test can catch the regression dynamically.
//!
//! The pipeline: [`lexer`] scans a file into identifier/punct/literal tokens
//! (string-, char-, comment- and raw-string-aware, so forbidden names inside
//! text never trip a rule); [`rules`] matches the repo's rule catalog
//! against the token stream under each file's [`rules::FileClass`] (and the
//! cross-file `dead-pub` rule against the whole workspace at once);
//! [`pragma`] handles justified inline waivers; [`report`] renders
//! `file:line:col` diagnostics and the deterministic `--json` report that
//! `bench_results/LINT_baseline.json` pins.
//!
//! Run it as `cargo run -p sbqa-lint --release -- --deny-warnings` (the
//! `scripts/ci.sh` gate) or call [`lint_workspace`] in-process, which is what
//! the self-lint integration test does.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod workspace;

use std::fs;
use std::io;
use std::path::Path;

use report::Report;

/// Lints every classifiable `.rs` file under the workspace `root`, reading
/// the benchmark workspace's sources (`perf/src`) for the names they use.
///
/// # Errors
///
/// Returns an error if a directory or file under `root` cannot be read.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for (path, label, class) in workspace::discover(root)? {
        files.push((label, fs::read_to_string(&path)?, class));
    }
    let mut name_sources = Vec::new();
    for path in workspace::name_sources(root)? {
        name_sources.push(fs::read_to_string(&path)?);
    }
    let (findings, suppressions) = rules::check_files(&files, &name_sources);
    let mut report = Report {
        findings,
        suppressions,
        files_scanned: files.len(),
    };
    report.normalize();
    Ok(report)
}
