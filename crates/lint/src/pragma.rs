//! Inline suppression pragmas.
//!
//! A finding is suppressed by a line comment carrying the `sbqa-lint` marker
//! directly followed by a colon and `allow(<rule>, "<justification>")` — the
//! exact spelling is shown in ARCHITECTURE.md and in every finding's help
//! text. (This module's docs deliberately never juxtapose the marker and the
//! colon: the scanner reads its own sources, and a literal example here
//! would itself be parsed as a pragma.) The pragma sits
//! either trailing on the offending line or alone on the line directly above
//! it (comment-only lines in between stack, so several rules can be allowed
//! for one line). The justification is **mandatory and must be non-empty**:
//! a suppression is a documented contract site, not an escape hatch. A
//! malformed pragma, an unknown rule name or an empty justification is
//! itself a finding (`bad-pragma`), and a pragma that suppresses nothing
//! reports `unused-suppression` so stale waivers cannot accumulate.

use crate::lexer::Comment;

/// A parsed `allow` pragma.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule being allowed.
    pub rule: String,
    /// The written reason — required, surfaced in reports and JSON.
    pub justification: String,
    /// Line the pragma comment sits on.
    pub comment_line: u32,
    /// Line whose findings the pragma suppresses.
    pub target_line: u32,
}

/// A pragma that could not be parsed, with the reason.
#[derive(Debug, Clone)]
pub(crate) struct BadPragma {
    /// Line the malformed pragma sits on.
    pub line: u32,
    /// Human-readable description of what is wrong.
    pub reason: String,
}

/// The marker every pragma starts with (after the comment delimiter).
const PRAGMA_MARKER: &str = "sbqa-lint:";

/// Extracts suppressions from a file's comments.
///
/// `line_has_code` reports whether a 1-based source line carries any
/// non-comment token; a pragma on a code line targets that line, a pragma on
/// a comment-only line targets the next code line.
pub(crate) fn collect<F>(
    comments: &[Comment<'_>],
    last_line: u32,
    line_has_code: F,
) -> (Vec<Suppression>, Vec<BadPragma>)
where
    F: Fn(u32) -> bool,
{
    let mut suppressions = Vec::new();
    let mut bad = Vec::new();

    for comment in comments {
        let Some(marker) = comment.text.find(PRAGMA_MARKER) else {
            continue;
        };
        let rest = comment.text[marker + PRAGMA_MARKER.len()..].trim();
        match parse_allow(rest) {
            Ok((rule, justification)) => {
                let target_line = if line_has_code(comment.line) {
                    comment.line
                } else {
                    // Comment-only line: target the next line that has code,
                    // skipping further comment-only lines so pragmas stack.
                    let mut line = comment.end_line + 1;
                    while line < last_line && !line_has_code(line) {
                        line += 1;
                    }
                    line
                };
                suppressions.push(Suppression {
                    rule,
                    justification,
                    comment_line: comment.line,
                    target_line,
                });
            }
            Err(reason) => bad.push(BadPragma {
                line: comment.line,
                reason,
            }),
        }
    }

    (suppressions, bad)
}

/// Parses `allow(<rule>, "<justification>")`, returning the rule name and
/// justification or a description of the syntax error.
fn parse_allow(rest: &str) -> Result<(String, String), String> {
    let Some(args) = rest.strip_prefix("allow") else {
        return Err(format!(
            "expected `allow(<rule>, \"<justification>\")` after `{PRAGMA_MARKER}`"
        ));
    };
    let args = args.trim_start();
    let Some(args) = args.strip_prefix('(') else {
        return Err("expected `(` after `allow`".to_string());
    };
    let Some(comma) = args.find(',') else {
        return Err(
            "missing justification: write `allow(<rule>, \"<why this is sound>\")`".to_string(),
        );
    };
    let rule = args[..comma].trim();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
        return Err(format!("`{rule}` is not a valid rule name"));
    }
    let tail = args[comma + 1..].trim();
    let Some(tail) = tail.strip_prefix('"') else {
        return Err("justification must be a double-quoted string".to_string());
    };
    let Some(close) = tail.find('"') else {
        return Err("unterminated justification string".to_string());
    };
    let justification = tail[..close].trim();
    if justification.is_empty() {
        return Err("justification must not be empty — say why the waiver is sound".to_string());
    }
    let after = tail[close + 1..].trim_start();
    if !after.starts_with(')') {
        return Err("expected `)` after the justification".to_string());
    }
    Ok((rule.to_string(), justification.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> (Vec<Suppression>, Vec<BadPragma>) {
        let lexed = lex(src);
        let code_lines: std::collections::BTreeSet<u32> =
            lexed.tokens.iter().map(|t| t.line).collect();
        let last = src.lines().count() as u32 + 1;
        collect(&lexed.comments, last, |l| code_lines.contains(&l))
    }

    #[test]
    fn trailing_pragma_targets_its_own_line() {
        let (sup, bad) = run("let x = now(); // sbqa-lint: allow(wall-clock, \"startup stamp\")");
        assert!(bad.is_empty());
        assert_eq!(sup.len(), 1);
        assert_eq!(sup[0].rule, "wall-clock");
        assert_eq!(sup[0].justification, "startup stamp");
        assert_eq!(sup[0].target_line, 1);
    }

    #[test]
    fn standalone_pragma_targets_next_code_line() {
        let src = "\n// sbqa-lint: allow(hash-collection, \"point lookups only\")\n// another comment\nlet m = HashMap::new();\n";
        let (sup, bad) = run(src);
        assert!(bad.is_empty());
        assert_eq!(sup[0].comment_line, 2);
        assert_eq!(sup[0].target_line, 4);
    }

    #[test]
    fn stacked_pragmas_share_a_target() {
        let src = "// sbqa-lint: allow(wall-clock, \"a\")\n// sbqa-lint: allow(panic-hygiene, \"b\")\nwork();\n";
        let (sup, _) = run(src);
        assert_eq!(sup.len(), 2);
        assert_eq!(sup[0].target_line, 3);
        assert_eq!(sup[1].target_line, 3);
    }

    #[test]
    fn missing_justification_is_bad() {
        let (sup, bad) = run("// sbqa-lint: allow(wall-clock)");
        assert!(sup.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].reason.contains("missing justification"));
    }

    #[test]
    fn empty_justification_is_bad() {
        let (sup, bad) = run("// sbqa-lint: allow(wall-clock, \"  \")");
        assert!(sup.is_empty());
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn garbled_marker_is_bad() {
        let (_, bad) = run("// sbqa-lint: alow(wall-clock, \"x\")");
        assert_eq!(bad.len(), 1);
    }
}
