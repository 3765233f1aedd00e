//! Fixture-driven rule tests: every rule gets a positive case (the seeded
//! violation is flagged), a suppressed case (a justified pragma converts the
//! finding into a documented suppression site) and an exempt-path case (the
//! same source under a `tests/` classification reports nothing).
//!
//! The fixture sources live in `tests/fixtures/` — a directory the workspace
//! walker never descends into, so the deliberately-violating inputs cannot
//! leak into the self-lint gate.

use sbqa_lint::report::{Finding, Severity, SuppressionSite};
use sbqa_lint::rules::{check_file, check_files, FileClass, FileKind};

fn lib(crate_name: &str) -> FileClass {
    FileClass {
        crate_name: crate_name.to_string(),
        kind: FileKind::Library,
    }
}

fn test_kind(crate_name: &str) -> FileClass {
    FileClass {
        crate_name: crate_name.to_string(),
        kind: FileKind::Test,
    }
}

fn run(source: &str, class: &FileClass) -> (Vec<Finding>, Vec<SuppressionSite>) {
    check_file("fixture.rs", source, class)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn wall_clock_positive() {
    let src = include_str!("fixtures/wall_clock.rs");
    let (findings, _) = run(src, &lib("core"));
    let rules = rules_of(&findings);
    assert_eq!(
        rules,
        vec!["wall-clock", "wall-clock"],
        "Instant::now() and SystemTime are flagged; comment/string mentions are not: {findings:?}"
    );
    assert_eq!(findings[0].line, 5, "Instant::now() call site");
    assert_eq!(findings[1].line, 9, "SystemTime::now() call site");
}

#[test]
fn wall_clock_exempt_in_tests_dir() {
    let src = include_str!("fixtures/wall_clock.rs");
    let (findings, _) = run(src, &test_kind("core"));
    assert!(findings.is_empty(), "tests/ are exempt: {findings:?}");
}

#[test]
fn wall_clock_exempt_outside_deterministic_crates() {
    let src = include_str!("fixtures/wall_clock.rs");
    let (findings, _) = run(src, &lib("metrics"));
    assert!(
        findings.is_empty(),
        "metrics is not a deterministic crate: {findings:?}"
    );
}

#[test]
fn wall_clock_suppressed() {
    let src = include_str!("fixtures/wall_clock_suppressed.rs");
    let (findings, sites) = run(src, &lib("core"));
    assert!(findings.is_empty(), "both forms suppressed: {findings:?}");
    assert_eq!(sites.len(), 2, "standalone + trailing pragma both counted");
    assert!(sites
        .iter()
        .all(|s| s.suppression.rule == "wall-clock" && !s.suppression.justification.is_empty()));
}

#[test]
fn hash_collection_positive_skips_use_lines() {
    let src = include_str!("fixtures/hash_collection.rs");
    let (findings, sites) = run(src, &lib("sim"));
    let rules = rules_of(&findings);
    assert_eq!(
        rules,
        vec!["hash-collection"; 4],
        "the field type, both HashSet positions and `documented`'s return type \
         are flagged; the pragma covers only its target line (the constructor): {findings:?}"
    );
    assert!(
        findings.iter().all(|f| f.line != 3 && f.line != 4),
        "use lines exempt"
    );
    assert_eq!(
        sites.len(),
        1,
        "documented constructor counted as a suppression site"
    );
}

#[test]
fn unseeded_rng_positive() {
    let src = include_str!("fixtures/unseeded_rng.rs");
    let (findings, _) = run(src, &lib("boinc"));
    let rules = rules_of(&findings);
    assert_eq!(
        rules,
        vec!["unseeded-rng", "unseeded-rng"],
        "thread_rng and from_entropy flagged, seed_from_u64 not: {findings:?}"
    );
}

#[test]
fn unseeded_rng_applies_in_every_library_crate() {
    let src = include_str!("fixtures/unseeded_rng.rs");
    let (findings, _) = run(src, &lib("metrics"));
    assert_eq!(
        findings.len(),
        2,
        "rng hygiene is workspace-wide: {findings:?}"
    );
}

#[test]
fn panic_hygiene_positive_with_cfg_test_exemption() {
    let src = include_str!("fixtures/panic_hygiene.rs");
    let (findings, _) = run(src, &lib("core"));
    let rules = rules_of(&findings);
    assert_eq!(
        rules,
        vec![
            "panic-hygiene",
            "panic-hygiene",
            "panic-hygiene",
            "panic-hygiene",
            "panic-hygiene"
        ],
        "unwrap/expect/panic!/todo!/unimplemented! flagged once each; the \
         #[cfg(test)] module and the bare `unwrap` identifier are exempt: {findings:?}"
    );
    let last_flagged = findings.iter().map(|f| f.line).max().unwrap();
    assert!(
        last_flagged < 28,
        "nothing inside the #[cfg(test)] module is flagged: {findings:?}"
    );
}

#[test]
fn panic_hygiene_exempt_outside_panic_free_crates() {
    let src = include_str!("fixtures/panic_hygiene.rs");
    let (findings, _) = run(src, &lib("sim"));
    assert!(
        findings.is_empty(),
        "sim may panic in library code: {findings:?}"
    );
}

#[test]
fn float_ordering_positive() {
    let src = include_str!("fixtures/float_ordering.rs");
    let (findings, _) = run(src, &lib("baselines"));
    let rules = rules_of(&findings);
    assert_eq!(
        rules,
        vec!["float-ordering", "float-ordering"],
        "both partial_cmp call forms flagged, total_cmp not: {findings:?}"
    );
}

#[test]
fn unsafe_audit_positive() {
    let src = include_str!("fixtures/unsafe_audit.rs");
    let (findings, _) = run(src, &lib("core"));
    let rules = rules_of(&findings);
    assert_eq!(
        rules,
        vec!["unsafe-audit", "unsafe-audit"],
        "undocumented block + undocumented impl flagged; SAFETY-commented ones not: {findings:?}"
    );
}

#[test]
fn unsafe_audit_holds_even_in_tests() {
    let src = include_str!("fixtures/unsafe_audit.rs");
    let (findings, _) = run(src, &test_kind("core"));
    assert_eq!(
        findings.len(),
        2,
        "unsafe-audit is the one rule tests are not exempt from: {findings:?}"
    );
}

#[test]
fn bad_pragmas_are_deny_findings() {
    let src = include_str!("fixtures/bad_pragma.rs");
    let (findings, sites) = run(src, &lib("core"));
    let rules = rules_of(&findings);
    assert_eq!(
        rules,
        vec!["bad-pragma", "bad-pragma", "bad-pragma", "bad-pragma"],
        "missing justification, unknown rule, empty justification, wrong verb: {findings:?}"
    );
    assert!(findings.iter().all(|f| f.severity == Severity::Deny));
    assert!(
        sites.is_empty(),
        "a malformed pragma never counts as a suppression"
    );
}

#[test]
fn unused_suppression_is_a_warning() {
    let src = include_str!("fixtures/unused_suppression.rs");
    let (findings, sites) = run(src, &lib("core"));
    assert_eq!(rules_of(&findings), vec!["unused-suppression"]);
    assert_eq!(findings[0].severity, Severity::Warn);
    assert!(sites.is_empty());
}

#[test]
fn every_fixture_rule_is_in_the_catalog() {
    for name in [
        "wall-clock",
        "hash-collection",
        "unseeded-rng",
        "panic-hygiene",
        "float-ordering",
        "unsafe-audit",
        "bad-pragma",
        "unused-suppression",
        "dead-pub",
    ] {
        assert!(
            sbqa_lint::rules::rule(name).is_some(),
            "missing rule {name}"
        );
    }
}

/// Lints the `dead-pub` fixture beside its user file (both library files of
/// crate `core`), plus `extra` files, with `name_sources` read for names
/// only. Returns the names `dead-pub` flagged, in source order, and the
/// suppression sites.
fn dead_pub(
    extra: &[(&str, &str, FileClass)],
    name_sources: &[&str],
) -> (Vec<String>, Vec<SuppressionSite>) {
    let mut files = vec![
        (
            "crates/core/src/dead_pub.rs".to_string(),
            include_str!("fixtures/dead_pub.rs").to_string(),
            lib("core"),
        ),
        (
            "crates/core/src/dead_pub_user.rs".to_string(),
            include_str!("fixtures/dead_pub_user.rs").to_string(),
            lib("core"),
        ),
    ];
    for (label, source, class) in extra {
        files.push((label.to_string(), source.to_string(), class.clone()));
    }
    let sources: Vec<String> = name_sources.iter().map(ToString::to_string).collect();
    let (findings, sites) = check_files(&files, &sources);
    let flagged = findings
        .iter()
        .map(|f| {
            assert_eq!(f.rule, "dead-pub", "only dead-pub fires: {findings:?}");
            assert_eq!(f.severity, Severity::Deny);
            let name = f.message.split('`').nth(1).unwrap_or_default();
            format!("{}:{} {name}", f.path, f.line)
        })
        .collect();
    (flagged, sites)
}

const PERF: &str = "fn workload() { sbqa::called_by_perf(); }";

#[test]
fn dead_pub_flags_exactly_the_items_no_other_file_names() {
    let (flagged, _) = dead_pub(&[], &[PERF]);
    assert_eq!(
        flagged,
        vec![
            "crates/core/src/dead_pub.rs:3 pub fn uncalled",
            "crates/core/src/dead_pub.rs:8 pub fn reexported_only",
            "crates/core/src/dead_pub.rs:10 pub fn mentioned_only",
            "crates/core/src/dead_pub.rs:16 pub fn const_uncalled",
            "crates/core/src/dead_pub.rs:20 pub struct Unnamed",
        ],
        "an uncalled item is flagged even when its own file calls it; a name \
         another file uses only in `use` / `pub use`, a comment or a string \
         does not keep it alive; pub(crate), pub mod, fields and \
         #[cfg(test)] items are not looked at"
    );
}

#[test]
fn dead_pub_is_waived_by_a_justified_pragma() {
    let (flagged, sites) = dead_pub(&[], &[PERF]);
    assert!(!flagged.iter().any(|f| f.ends_with(" waived")));
    assert_eq!(sites.len(), 1);
    assert_eq!(sites[0].suppression.rule, "dead-pub");
    assert_eq!(sites[0].path, "crates/core/src/dead_pub.rs");
}

#[test]
fn dead_pub_counts_a_name_source_but_never_lints_it() {
    let (with_perf, _) = dead_pub(&[], &[PERF]);
    assert!(!with_perf.iter().any(|f| f.ends_with("called_by_perf")));
    let (without_perf, _) = dead_pub(&[], &[]);
    assert!(without_perf
        .iter()
        .any(|f| f == "crates/core/src/dead_pub.rs:14 pub fn called_by_perf"));
    // A name source's own pub items are never judged.
    let (flagged, _) = dead_pub(&[], &[PERF, "pub fn perf_only() {}"]);
    assert_eq!(flagged, with_perf);
}

#[test]
fn dead_pub_never_looks_at_test_files_and_counts_their_names() {
    let test_file = (
        "crates/core/tests/uses.rs",
        "pub fn test_helper() {}\n#[test]\nfn t() { sbqa_core::uncalled(); }\n",
        test_kind("core"),
    );
    let (flagged, _) = dead_pub(&[test_file], &[PERF]);
    assert!(
        !flagged
            .iter()
            .any(|f| f.contains("test_helper") || f.ends_with(" uncalled")),
        "a test file is a caller, never a subject: {flagged:?}"
    );
}
