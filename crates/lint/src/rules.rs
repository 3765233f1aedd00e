//! The repo-specific rule catalog and the checking engine.
//!
//! Every rule here guards an invariant the workspace's scale claims rest on
//! (see ARCHITECTURE.md "Statically-enforced invariants"):
//!
//! * **`wall-clock`** — allocation is a pure function of
//!   `(registry state, seed)`; reading `Instant::now()`/`SystemTime` inside a
//!   deterministic crate breaks replayability and the byte-identical golden
//!   contract.
//! * **`hash-collection`** — `HashMap`/`HashSet` iteration order is
//!   randomized per process; any ordering-sensitive use inside a
//!   deterministic crate silently changes allocation results between runs.
//! * **`unseeded-rng`** — entropy-seeded RNG constructors make the KnBest
//!   draw irreproducible; every RNG must derive from the run seed.
//! * **`panic-hygiene`** — mediator library code must degrade through
//!   `SbqaError`, not take the process down mid-mediation.
//! * **`float-ordering`** — `.partial_cmp()` on scores either panics on NaN
//!   (`unwrap`) or produces a non-transitive, position-dependent order
//!   (`unwrap_or(Equal)`); ranking must go through
//!   `sbqa_types::float_ord::f64_total_cmp`.
//! * **`unsafe-audit`** — every `unsafe` block or impl must be preceded by a
//!   `// SAFETY:` comment.
//! * **`dead-pub`** — a `pub` item of library code that no other file names
//!   is either dead or private in all but spelling. The rule is textual: it
//!   runs once over the whole workspace ([`check_files`]) and matches names,
//!   not paths, so an item called `new` or `value` is hidden by every other
//!   `new` or `value`; it errs towards silence.
//!
//! Two meta rules police the waiver mechanism itself: `bad-pragma` (deny)
//! for malformed/unjustified pragmas and `unused-suppression` (warn) for
//! waivers that no longer suppress anything.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::pragma;
use crate::report::{Finding, Severity, SuppressionSite};

/// Which build target a file belongs to, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Under `src/` — library or binary code, fully in scope.
    Library,
    /// Under `tests/` — exempt from all rules except `unsafe-audit`.
    Test,
    /// Under `examples/` — exempt like tests.
    Example,
}

impl FileKind {
    fn exempt(self) -> bool {
        !matches!(self, FileKind::Library)
    }
}

/// Where a file sits in the workspace, for rule applicability.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Crate directory name (`core`, `service`, …; `sbqa` for the root).
    pub crate_name: String,
    /// The target kind.
    pub kind: FileKind,
}

/// Crates whose library code must stay a pure function of
/// `(registry state, seed)`.
const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "service",
    "sim",
    "satisfaction",
    "baselines",
    "replication",
];

/// Crates whose library code must not panic.
const PANIC_FREE_CRATES: &[&str] = &["core", "service", "types", "replication"];

/// A rule's identity, severity and documentation.
#[derive(Debug, Clone, Copy)]
// sbqa-lint: allow(dead-pub, "the element of the public RULES catalog; the binary's --list-rules reads it unnamed")
pub struct RuleSpec {
    /// Stable rule name, used in diagnostics and pragmas.
    pub name: &'static str,
    /// Effective severity.
    pub severity: Severity,
    /// One-line contract statement (rule catalog / JSON).
    pub summary: &'static str,
    /// Fix guidance rendered under each finding.
    pub help: &'static str,
}

/// The full rule catalog, including the two pragma meta rules.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        name: "wall-clock",
        severity: Severity::Deny,
        summary: "no Instant::now()/SystemTime in deterministic crates",
        help: "thread VirtualTime through instead; if this is measurement-only plumbing, \
               suppress with `// sbqa-lint: allow(wall-clock, \"<why results stay pure>\")`",
    },
    RuleSpec {
        name: "hash-collection",
        severity: Severity::Deny,
        summary: "no HashMap/HashSet in deterministic crates without a written ordering argument",
        help: "iteration order is randomized per process: use BTreeMap, a sorted Vec or the \
               postings index, or document why ordering never reaches an output via \
               `// sbqa-lint: allow(hash-collection, \"<ordering argument>\")`",
    },
    RuleSpec {
        name: "unseeded-rng",
        severity: Severity::Deny,
        summary: "no entropy-seeded RNG constructors anywhere in library code",
        help: "derive every generator from the run seed (e.g. ChaCha8Rng::seed_from_u64)",
    },
    RuleSpec {
        name: "panic-hygiene",
        severity: Severity::Deny,
        summary: "no unwrap/expect/panic!/todo!/unimplemented! in panic-free library crates",
        help: "return SbqaError (or restructure so the invariant is static); a deliberate \
               invariant assertion needs `// sbqa-lint: allow(panic-hygiene, \"<invariant>\")`",
    },
    RuleSpec {
        name: "float-ordering",
        severity: Severity::Deny,
        summary: "no .partial_cmp() in library code — NaN breaks the total order",
        help: "compare through sbqa_types::float_ord::f64_total_cmp (deterministic total \
               order, NaN-safe, signed-zero compatible with partial_cmp)",
    },
    RuleSpec {
        name: "unsafe-audit",
        severity: Severity::Deny,
        summary: "every unsafe block/impl carries a // SAFETY: comment",
        help: "state the proof obligation discharged by the surrounding code in a \
               `// SAFETY:` comment directly above the unsafe block",
    },
    RuleSpec {
        name: "dead-pub",
        severity: Severity::Deny,
        summary: "every pub item of library code is named by some other file",
        help: "delete the item or drop its `pub`; an item only a doc-test or an outside \
               user calls needs `// sbqa-lint: allow(dead-pub, \"<who calls it>\")`",
    },
    RuleSpec {
        name: "bad-pragma",
        severity: Severity::Deny,
        summary: "suppression pragmas must parse and carry a non-empty justification",
        help: "write `// sbqa-lint: allow(<rule>, \"<why this waiver is sound>\")`",
    },
    RuleSpec {
        name: "unused-suppression",
        severity: Severity::Warn,
        summary: "a pragma that suppresses nothing must be removed",
        help: "delete the stale pragma (or fix the rule name) so waiver counts stay honest",
    },
];

/// Looks up a rule by name.
#[must_use]
pub fn rule(name: &str) -> Option<&'static RuleSpec> {
    RULES.iter().find(|r| r.name == name)
}

fn spec(name: &str) -> &'static RuleSpec {
    rule(name).expect("rule names used internally are in the catalog")
}

/// Whether `rule_name` applies to files of `class` at all.
fn applies(rule_name: &str, class: &FileClass) -> bool {
    let crate_name = class.crate_name.as_str();
    match rule_name {
        // unsafe-audit holds everywhere, including tests and examples:
        // an unreviewed unsafe block in a test harness can invalidate the
        // very property the test claims to prove.
        "unsafe-audit" | "bad-pragma" | "unused-suppression" => true,
        _ if class.kind.exempt() => false,
        "wall-clock" | "hash-collection" => DETERMINISTIC_CRATES.contains(&crate_name),
        "panic-hygiene" => PANIC_FREE_CRATES.contains(&crate_name),
        "unseeded-rng" | "float-ordering" | "dead-pub" => true,
        _ => false,
    }
}

/// A raw (pre-suppression) violation.
struct RawFinding {
    rule: &'static str,
    line: u32,
    col: u32,
    message: String,
}

/// One file's scan before suppressions are applied.
struct FileScan<'a> {
    label: &'a str,
    class: &'a FileClass,
    lexed: Lexed<'a>,
    exempt: Vec<bool>,
    suppressions: Vec<pragma::Suppression>,
    raw: Vec<RawFinding>,
}

/// Lexes a file, runs the per-file matchers and collects its pragmas.
fn scan_file<'a>(label: &'a str, source: &'a str, class: &'a FileClass) -> FileScan<'a> {
    let lexed = lex(source);
    let exempt = cfg_test_token_flags(&lexed.tokens);
    let code_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    let last_line = source.lines().count() as u32 + 1;

    let (suppressions, bad_pragmas) =
        pragma::collect(&lexed.comments, last_line, |l| code_lines.contains(&l));

    let mut raw = scan_tokens(&lexed, &exempt, source, class);

    // Pragma meta rules.
    for bad in &bad_pragmas {
        raw.push(RawFinding {
            rule: "bad-pragma",
            line: bad.line,
            col: 1,
            message: bad.reason.clone(),
        });
    }
    for sup in &suppressions {
        if rule(&sup.rule).is_none() {
            raw.push(RawFinding {
                rule: "bad-pragma",
                line: sup.comment_line,
                col: 1,
                message: format!("unknown rule `{}` in allow pragma", sup.rule),
            });
        }
    }
    FileScan {
        label,
        class,
        lexed,
        exempt,
        suppressions,
        raw,
    }
}

/// Lints one file's source text under an explicit classification, with
/// every rule but the cross-file `dead-pub`.
///
/// Returns the unsuppressed findings plus the used, justified suppressions
/// (the documented contract sites the JSON report aggregates).
#[must_use]
pub fn check_file(
    path_label: &str,
    source: &str,
    class: &FileClass,
) -> (Vec<Finding>, Vec<SuppressionSite>) {
    resolve(scan_file(path_label, source, class))
}

/// Lints a set of files, `(label, source, class)` each, with every rule,
/// `dead-pub` included. `name_sources` are files read only for the names
/// they use (a dependent workspace), never linted.
#[must_use]
pub fn check_files(
    files: &[(String, String, FileClass)],
    name_sources: &[String],
) -> (Vec<Finding>, Vec<SuppressionSite>) {
    let mut scans: Vec<FileScan<'_>> = files
        .iter()
        .map(|(label, source, class)| scan_file(label, source, class))
        .collect();
    let outside: BTreeSet<&str> = name_sources
        .iter()
        .flat_map(|source| used_names(&lex(source).tokens))
        .collect();
    for (i, finding) in dead_pub(&scans, &outside) {
        scans[i].raw.push(finding);
    }
    let mut findings = Vec::new();
    let mut sites = Vec::new();
    for scan in scans {
        let (f, s) = resolve(scan);
        findings.extend(f);
        sites.extend(s);
    }
    (findings, sites)
}

/// Applies a file's suppressions to its raw findings.
fn resolve(scan: FileScan<'_>) -> (Vec<Finding>, Vec<SuppressionSite>) {
    let FileScan {
        label,
        suppressions,
        raw,
        ..
    } = scan;

    // A finding on a pragma's target line whose rule matches is converted
    // into a documented suppression site. The meta rules themselves are
    // deliberately not suppressible.
    let mut used = vec![false; suppressions.len()];
    let mut findings = Vec::new();
    for f in raw {
        let suppressed = f.rule != "bad-pragma"
            && suppressions.iter().enumerate().any(|(i, s)| {
                let hit = s.rule == f.rule && s.target_line == f.line;
                if hit {
                    used[i] = true;
                }
                hit
            });
        if !suppressed {
            let s = spec(f.rule);
            findings.push(Finding {
                path: label.to_string(),
                line: f.line,
                col: f.col,
                rule: s.name,
                severity: s.severity,
                message: f.message,
                help: s.help,
            });
        }
    }

    // Unused pragmas (valid rule name, nothing suppressed) are warn-level
    // findings so stale waivers cannot linger.
    let mut sites = Vec::new();
    for (i, sup) in suppressions.into_iter().enumerate() {
        if rule(&sup.rule).is_none() {
            continue; // already reported as bad-pragma
        }
        if used[i] {
            sites.push(SuppressionSite {
                path: label.to_string(),
                suppression: sup,
            });
        } else {
            let s = spec("unused-suppression");
            findings.push(Finding {
                path: label.to_string(),
                line: sup.comment_line,
                col: 1,
                rule: s.name,
                severity: s.severity,
                message: format!(
                    "allow({}) suppresses nothing on line {}",
                    sup.rule, sup.target_line
                ),
                help: s.help,
            });
        }
    }

    (findings, sites)
}

/// The `dead-pub` pass: every `pub` item of a library file, outside
/// `#[cfg(test)]`, whose name no other file uses as an identifier outside a
/// `use` declaration and that is not among the `outside` names (those of
/// the name sources). Returns `(file index, finding)`.
fn dead_pub(scans: &[FileScan<'_>], outside: &BTreeSet<&str>) -> Vec<(usize, RawFinding)> {
    let names: Vec<BTreeSet<&str>> = scans.iter().map(|s| used_names(&s.lexed.tokens)).collect();
    let mut files_naming: BTreeMap<&str, usize> = BTreeMap::new();
    for name in names.iter().flatten() {
        *files_naming.entry(name).or_insert(0) += 1;
    }

    let mut dead = Vec::new();
    for (i, scan) in scans.iter().enumerate() {
        if !applies("dead-pub", scan.class) {
            continue;
        }
        for (kind, name) in pub_items(&scan.lexed.tokens, &scan.exempt) {
            let elsewhere = files_naming.get(name.text).copied().unwrap_or(0)
                - usize::from(names[i].contains(name.text));
            if elsewhere == 0 && !outside.contains(name.text) {
                dead.push((
                    i,
                    RawFinding {
                        rule: "dead-pub",
                        line: name.line,
                        col: name.col,
                        message: format!("`pub {kind} {}` is named in no other file", name.text),
                    },
                ));
            }
        }
    }
    dead
}

/// Every identifier a token stream uses outside `use …;` declarations.
fn used_names<'a>(tokens: &[Token<'a>]) -> BTreeSet<&'a str> {
    let mut names = BTreeSet::new();
    let mut in_use = false;
    for tok in tokens {
        match (tok.kind, tok.text) {
            (TokKind::Ident, "use") => in_use = true,
            (TokKind::Punct, ";") => in_use = false,
            (TokKind::Ident, text) if !in_use => {
                names.insert(text);
            }
            _ => {}
        }
    }
    names
}

/// The `pub` items outside `#[cfg(test)]`, as (item keyword, name token).
/// `pub(crate)`, `pub mod`, `pub use` and fields are not items here.
fn pub_items<'t, 'a>(tokens: &'t [Token<'a>], exempt: &[bool]) -> Vec<(&'a str, &'t Token<'a>)> {
    const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];
    let text = |j: usize| tokens.get(j).map_or("", |t| t.text);
    let mut items = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokKind::Ident || tok.text != "pub" || exempt[i] {
            continue;
        }
        let mut j = i + 1;
        // Qualifiers before the item keyword: `const fn`, `unsafe fn`.
        while text(j) == "unsafe" || (text(j) == "const" && matches!(text(j + 1), "fn" | "unsafe"))
        {
            j += 1;
        }
        let kind = text(j);
        if !KINDS.contains(&kind) {
            continue;
        }
        if let Some(name) = tokens.get(j + 1).filter(|t| t.kind == TokKind::Ident) {
            items.push((kind, name));
        }
    }
    items
}

/// Runs the token matchers.
fn scan_tokens(
    lexed: &Lexed<'_>,
    exempt: &[bool],
    source: &str,
    class: &FileClass,
) -> Vec<RawFinding> {
    let tokens = &lexed.tokens;
    let lines: Vec<&str> = source.lines().collect();
    let is_use_line = |line: u32| {
        lines.get(line as usize - 1).is_some_and(|l| {
            let t = l.trim_start();
            t.starts_with("use ") || t.starts_with("pub use ")
        })
    };

    let mut raw = Vec::new();
    let mut push = |rule_name: &'static str, tok: &Token<'_>, message: String| {
        raw.push(RawFinding {
            rule: rule_name,
            line: tok.line,
            col: tok.col,
            message,
        });
    };

    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let prev_punct = i
            .checked_sub(1)
            .and_then(|p| tokens.get(p))
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text);
        let next = tokens.get(i + 1);
        let next_punct = next.filter(|t| t.kind == TokKind::Punct).map(|t| t.text);

        // unsafe-audit runs even inside #[cfg(test)] regions.
        if tok.text == "unsafe"
            && applies("unsafe-audit", class)
            && (next_punct == Some("{") || next.is_some_and(|t| t.text == "impl"))
            && !has_safety_comment(&lexed.comments, tok.line)
        {
            let what = if next_punct == Some("{") {
                "unsafe block"
            } else {
                "unsafe impl"
            };
            push(
                "unsafe-audit",
                tok,
                format!("{what} without a preceding `// SAFETY:` comment"),
            );
            continue;
        }

        if exempt[i] {
            continue;
        }

        if applies("wall-clock", class) {
            if tok.text == "Instant"
                && next_punct == Some("::")
                && tokens.get(i + 2).is_some_and(|t| t.text == "now")
            {
                push(
                    "wall-clock",
                    tok,
                    format!(
                        "`Instant::now()` reads the wall clock inside deterministic crate `{}`",
                        class.crate_name
                    ),
                );
            }
            if tok.text == "SystemTime" {
                push(
                    "wall-clock",
                    tok,
                    format!(
                        "`SystemTime` inside deterministic crate `{}`",
                        class.crate_name
                    ),
                );
            }
        }

        if applies("hash-collection", class)
            && (tok.text == "HashMap" || tok.text == "HashSet")
            && !is_use_line(tok.line)
        {
            push(
                "hash-collection",
                tok,
                format!(
                    "`{}` in deterministic crate `{}`: iteration order is nondeterministic",
                    tok.text, class.crate_name
                ),
            );
        }

        if applies("unseeded-rng", class)
            && matches!(
                tok.text,
                "thread_rng" | "ThreadRng" | "from_entropy" | "from_os_rng" | "OsRng"
            )
        {
            push(
                "unseeded-rng",
                tok,
                format!("`{}` constructs an entropy-seeded RNG", tok.text),
            );
        }

        if applies("panic-hygiene", class) {
            let method_call = prev_punct == Some(".") && next_punct == Some("(");
            if (tok.text == "unwrap" || tok.text == "expect") && method_call {
                push(
                    "panic-hygiene",
                    tok,
                    format!(
                        "`.{}()` can panic in panic-free crate `{}`",
                        tok.text, class.crate_name
                    ),
                );
            }
            if matches!(tok.text, "panic" | "todo" | "unimplemented") && next_punct == Some("!") {
                push(
                    "panic-hygiene",
                    tok,
                    format!("`{}!` in panic-free crate `{}`", tok.text, class.crate_name),
                );
            }
        }

        if applies("float-ordering", class) && tok.text == "partial_cmp" && prev_punct == Some(".")
        {
            push(
                "float-ordering",
                tok,
                "`.partial_cmp()` is not a total order (NaN); ranking becomes \
                 position-dependent or panics"
                    .to_string(),
            );
        }
    }

    raw
}

/// Whether a `SAFETY:` comment ends on `line` or within the three lines
/// directly above it (covering a short justification block).
fn has_safety_comment(comments: &[crate::lexer::Comment<'_>], line: u32) -> bool {
    comments
        .iter()
        .any(|c| c.text.contains("SAFETY:") && c.end_line <= line && c.end_line + 3 >= line)
}

/// Marks tokens inside `#[cfg(test)]`-gated items.
///
/// The scanner tracks the attribute sequence `# [ cfg ( test ) ]` and then
/// extends the exempt region across the following item: to the first `;` at
/// the same depth (e.g. `#[cfg(test)] use …;`) or across the first balanced
/// `{ … }` group (e.g. `#[cfg(test)] mod tests { … }`).
fn cfg_test_token_flags(tokens: &[Token<'_>]) -> Vec<bool> {
    let mut exempt = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            let start = i;
            let mut j = i + 7; // past `# [ cfg ( test ) ]`
            let mut depth = 0usize;
            while j < tokens.len() {
                match tokens[j].text {
                    ";" if depth == 0 => break,
                    "{" => depth += 1,
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let end = j.min(tokens.len().saturating_sub(1));
            for flag in &mut exempt[start..=end] {
                *flag = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    exempt
}

fn is_cfg_test_attr(tokens: &[Token<'_>], i: usize) -> bool {
    let texts = ["#", "[", "cfg", "(", "test", ")", "]"];
    tokens.len() >= i + texts.len()
        && texts
            .iter()
            .enumerate()
            .all(|(k, t)| tokens[i + k].text == *t)
}
