//! Diagnostics, severities and the machine-readable report.

use std::fmt;

use crate::pragma::Suppression;

/// How a rule violation is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported; fails the run only under `--deny-warnings`.
    Warn,
    /// Always fails the run.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// One unsuppressed rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule name (`wall-clock`, `panic-hygiene`, …).
    pub rule: &'static str,
    /// Effective severity.
    pub severity: Severity,
    /// What was found.
    pub message: String,
    /// How to fix it (rendered as a `help:` line).
    pub help: &'static str,
}

impl Finding {
    /// Renders the finding as `path:line:col: severity[rule]: message`.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}[{}]: {}\n    help: {}",
            self.path, self.line, self.col, self.severity, self.rule, self.message, self.help
        )
    }
}

/// An accepted (justified) suppression, with the file it lives in.
#[derive(Debug, Clone)]
pub struct SuppressionSite {
    /// Workspace-relative path.
    pub path: String,
    /// The parsed pragma.
    pub suppression: Suppression,
}

impl SuppressionSite {
    /// What the waiver waives, then where: its canonical sort key.
    fn key(&self) -> (&str, &str, &str, u32) {
        (
            &self.path,
            &self.suppression.rule,
            &self.suppression.justification,
            self.suppression.comment_line,
        )
    }
}

/// The aggregate result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by (path, line, col, rule).
    pub findings: Vec<Finding>,
    /// Used (justified) suppressions, sorted by (path, rule, justification,
    /// line).
    pub suppressions: Vec<SuppressionSite>,
    /// Number of files scanned (reported in the human summary, not in the
    /// JSON, so the baseline moves only when a waiver does).
    pub files_scanned: usize,
}

impl Report {
    /// Sorts findings and suppressions into their canonical stable order.
    pub fn normalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
        });
        self.suppressions
            .sort_by(|a, b| SuppressionSite::key(a).cmp(&SuppressionSite::key(b)));
    }

    /// Counts findings at the given severity.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Whether the run should fail.
    #[must_use]
    pub fn failed(&self, deny_warnings: bool) -> bool {
        self.count(Severity::Deny) > 0 || (deny_warnings && self.count(Severity::Warn) > 0)
    }

    /// Per-rule suppression counts, sorted by rule name.
    fn suppression_counts(&self) -> Vec<(String, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for site in &self.suppressions {
            *counts.entry(site.suppression.rule.clone()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Renders the machine-readable JSON report (hand-rolled writer: the
    /// output is committed as a baseline, so it must be deterministic and
    /// dependency-free). Contains no timestamps by design, and a waiver is
    /// keyed by what it waives — path, rule, justification — not by its
    /// line, so an edit elsewhere in a file does not move the baseline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"sbqa-lint/v2\",\n");
        out.push_str(&format!(
            "  \"deny_findings\": {},\n  \"warn_findings\": {},\n",
            self.count(Severity::Deny),
            self.count(Severity::Warn)
        ));

        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"severity\": {}, \"message\": {}}}",
                json_str(&f.path),
                f.line,
                f.col,
                json_str(f.rule),
                json_str(&f.severity.to_string()),
                json_str(&f.message)
            ));
        }
        if self.findings.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }

        out.push_str("  \"suppressions\": [");
        for (i, s) in self.suppressions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": {}, \"rule\": {}, \"justification\": {}}}",
                json_str(&s.path),
                json_str(&s.suppression.rule),
                json_str(&s.suppression.justification)
            ));
        }
        if self.suppressions.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }

        out.push_str("  \"suppression_counts\": {");
        let counts = self.suppression_counts();
        for (i, (rule, n)) in counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_str(rule), n));
        }
        if counts.is_empty() {
            out.push_str("}\n");
        } else {
            out.push_str("\n  }\n");
        }
        out.push_str("}\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let report = Report::default();
        let json = report.to_json();
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"suppression_counts\": {}"));
        assert!(!report.failed(true));
    }

    #[test]
    fn deny_fails_and_warn_fails_only_with_flag() {
        let mut report = Report::default();
        report.findings.push(Finding {
            path: "x.rs".into(),
            line: 1,
            col: 1,
            rule: "unused-suppression",
            severity: Severity::Warn,
            message: "m".into(),
            help: "h",
        });
        assert!(!report.failed(false));
        assert!(report.failed(true));
    }
}
