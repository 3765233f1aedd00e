//! End-to-end tests of the `sbqa-lint` binary: exit codes, `--json` output
//! and the two injection scenarios — an `Instant::now()` or an uncalled
//! `pub fn` put into `crates/core/src` must fail the gate.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sbqa-lint"))
}

/// Builds a miniature workspace under `target/tmp` with one deterministic
/// crate and returns its root. The crate's integration test calls
/// `stamp` and `double`, so a `pub fn` of either name is not dead.
fn scratch_workspace(name: &str, core_src: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src_dir = root.join("crates/core/src");
    if root.exists() {
        fs::remove_dir_all(&root).expect("stale scratch removed");
    }
    fs::create_dir_all(&src_dir).expect("scratch tree created");
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/core\"]\n",
    )
    .expect("root manifest written");
    fs::write(src_dir.join("lib.rs"), core_src).expect("source written");
    let tests_dir = root.join("crates/core/tests");
    fs::create_dir_all(&tests_dir).expect("scratch tests created");
    fs::write(
        tests_dir.join("calls.rs"),
        "#[test]\nfn calls() {\n    let _ = (core::stamp, core::double);\n}\n",
    )
    .expect("caller written");
    root
}

#[test]
fn injected_instant_now_in_core_fails_the_gate() {
    let root = scratch_workspace(
        "lint-cli-dirty",
        "//! Scratch crate.\npub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    );
    let output = bin()
        .arg("--root")
        .arg(&root)
        .arg("--deny-warnings")
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("crates/core/src/lib.rs:3:") && stdout.contains("wall-clock"),
        "diagnostic names the injected site: {stdout}"
    );
}

#[test]
fn injected_uncalled_pub_fn_in_core_fails_the_gate() {
    let root = scratch_workspace(
        "lint-cli-dead-pub",
        "//! Scratch crate.\npub fn double(x: u64) -> u64 {\n    x * 2\n}\n\npub fn uncalled() {}\n",
    );
    let output = bin()
        .arg("--root")
        .arg(&root)
        .arg("--deny-warnings")
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("crates/core/src/lib.rs:6:") && stdout.contains("dead-pub"),
        "diagnostic names the injected site: {stdout}"
    );
    assert!(
        !stdout.contains("lib.rs:2:"),
        "the called fn is not dead: {stdout}"
    );
}

#[test]
fn clean_workspace_exits_zero() {
    let root = scratch_workspace(
        "lint-cli-clean",
        "//! Scratch crate.\npub fn double(x: u64) -> u64 {\n    x * 2\n}\n",
    );
    let output = bin()
        .arg("--root")
        .arg(&root)
        .arg("--deny-warnings")
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn json_report_is_deterministic_and_parseable() {
    let root = scratch_workspace(
        "lint-cli-json",
        "//! Scratch crate.\npub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    );
    let run = || {
        let output = bin()
            .arg("--root")
            .arg(&root)
            .arg("--json")
            .output()
            .expect("binary runs");
        String::from_utf8(output.stdout).expect("utf8 json")
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "repeated runs are byte-identical");
    assert!(first.contains("\"schema\": \"sbqa-lint/v2\""));
    assert!(first.contains("\"rule\": \"wall-clock\""));
    assert!(first.contains("\"deny_findings\": 1"));
    assert_balanced_json(&first);
}

/// Structural JSON sanity: braces/brackets balance outside strings and every
/// string literal closes (the vendored serde stub cannot parse into a
/// generic `Value`, so the check is hand-rolled like the writer itself).
fn assert_balanced_json(text: &str) {
    let mut depth: i64 = 0;
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close in JSON report");
            }
            '"' => loop {
                match chars.next() {
                    Some('\\') => {
                        chars.next();
                    }
                    Some('"') => break,
                    Some(_) => {}
                    None => panic!("unterminated string in JSON report"),
                }
            },
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced JSON report");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let output = bin().arg("--frobnicate").output().expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn list_rules_prints_the_catalog() {
    let output = bin().arg("--list-rules").output().expect("binary runs");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    for rule in ["wall-clock", "panic-hygiene", "unsafe-audit", "bad-pragma"] {
        assert!(stdout.contains(rule), "catalog lists {rule}: {stdout}");
    }
}
