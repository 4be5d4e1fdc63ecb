//! `fume-lint`: in-tree static analysis for the FUME workspace.
//!
//! Exact unlearning is only exact while every cached statistic, RNG
//! stream, and index stays bit-for-bit consistent with a from-scratch
//! retrain. The forest is a heavily mutated structure where one lossy
//! cast, stray clock read, or panic mid-delete silently corrupts
//! counterfactual ρ scores — so the correctness contract is enforced by
//! tooling, not just tests.
//! The workspace is deliberately dependency-free, so the tooling is too:
//! a hand-rolled lexer ([`lexer`]), a test-scope tracker ([`scope`]), a
//! per-file policy ([`policy`]), and the rule catalog ([`rules`]).
//!
//! Run it as `cargo run --release -p fume-lint -- --workspace --deny-all`
//! (what `scripts/verify.sh` gates on). Suppress a finding inline with
//! `// fume-lint: allow(F001) -- reason` — the reason is mandatory and
//! itself linted (`F000`). The rule catalog is documented in
//! `docs/static-analysis.md`.

pub mod lexer;
pub mod policy;
pub mod rules;
pub mod scope;

use std::fmt;
use std::path::{Path, PathBuf};

pub use policy::{policy_for, FilePolicy};
pub use rules::{RawDiag, CATALOG};

/// A reportable finding: a [`RawDiag`] tied to a file, with the source
/// line rendered for context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// Stable rule ID.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What went wrong at this site.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}:{}: {} {}",
            self.path, self.line, self.col, self.rule, self.message
        )?;
        write!(f, "   | {}", self.excerpt)
    }
}

/// The outcome of linting one file or a whole tree.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed findings, in (path, line) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by a reasoned `fume-lint: allow` directive.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files: usize,
}

impl LintReport {
    /// Whether the tree is lint-clean.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
        self.suppressed += other.suppressed;
        self.files += other.files;
    }

    /// Renders the report as a JSON document (hand-rolled — the crate is
    /// dependency-free like the rest of the workspace).
    ///
    /// Every diagnostic carries the machine-stable `code` (same value as
    /// `rule`, promised never to be renumbered), a `severity` (currently
    /// always `"deny"` — the catalog has no warn-level rules), and the
    /// rule's one-line `explanation` from [`rules::CATALOG`], so JSON
    /// consumers need no side table to render findings.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"files\": {},\n  \"suppressed\": {},\n  \"unsuppressed\": {},\n  \"diagnostics\": [",
            self.files,
            self.suppressed,
            self.diagnostics.len()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let explanation = rules::CATALOG
                .iter()
                .find(|(id, _)| *id == d.rule)
                .map(|(_, summary)| *summary)
                .unwrap_or("");
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"code\": {}, \"severity\": \"deny\", \"message\": {}, \"explanation\": {}, \"excerpt\": {}}}",
                json_str(&d.path),
                d.line,
                d.col,
                json_str(d.rule),
                json_str(d.rule),
                json_str(&d.message),
                json_str(explanation),
                json_str(&d.excerpt)
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lints one source string under the given policy. Suppressions on the
/// offending line, or on the line directly above it, silence a finding.
pub fn lint_source(path_label: &str, source: &str, policy: &FilePolicy) -> LintReport {
    if policy.skip_all {
        return LintReport { diagnostics: Vec::new(), suppressed: 0, files: 1 };
    }
    let lexed = lexer::lex(source);
    let raw = rules::check(&lexed, policy);
    let lines: Vec<&str> = source.lines().collect();
    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;
    for d in raw {
        let covered = d.rule != "F000"
            && lexed.suppressions.iter().any(|s| {
                s.has_reason
                    && s.rules.iter().any(|r| r == d.rule)
                    && (s.line == d.line || s.line + 1 == d.line)
                    // F010's suppression contract is structured: the
                    // reason must actually document the lock order.
                    && (d.rule != "F010" || s.reason.contains("lock-order:"))
            });
        if covered {
            suppressed += 1;
            continue;
        }
        let excerpt = lines
            .get(d.line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        diagnostics.push(Diagnostic {
            path: path_label.to_string(),
            rule: d.rule,
            line: d.line,
            col: d.col,
            message: d.message,
            excerpt,
        });
    }
    LintReport { diagnostics, suppressed, files: 1 }
}

/// Lints one file on disk; the policy is derived from `rel` (the
/// workspace-relative path used in reports).
pub fn lint_file(abs: &Path, rel: &str) -> std::io::Result<LintReport> {
    let source = std::fs::read_to_string(abs)?;
    Ok(lint_source(rel, &source, &policy_for(rel)))
}

/// Collects the workspace's lintable sources: `crates/*/src/**/*.rs`,
/// the integration tests `crates/*/tests/**/*.rs` (minus the lint
/// fixtures, which are bad on purpose), and the facade's `src/**/*.rs`
/// and `tests/**/*.rs`, in sorted order for deterministic output.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            collect_rs(&dir.join("src"), &mut files)?;
            collect_rs(&dir.join("tests"), &mut files)?;
        }
    }
    collect_rs(&root.join("src"), &mut files)?;
    collect_rs(&root.join("tests"), &mut files)?;
    let fixtures = root.join("crates/lint/tests/fixtures");
    files.retain(|f| !f.starts_with(&fixtures));
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((f, rel));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    for (abs, rel) in workspace_sources(root)? {
        report.merge(lint_file(&abs, &rel)?);
    }
    report.diagnostics.sort_by_key(|d| (d.path.clone(), d.line, d.col));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_on_same_or_previous_line_silences() {
        let src = "fn f() {\n    x.unwrap(); // fume-lint: allow(F001) -- toy\n}\n";
        let r = lint_source("crates/core/src/x.rs", src, &FilePolicy::all());
        assert!(r.clean(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed, 1);

        let src = "fn f() {\n    // fume-lint: allow(F001) -- toy\n    x.unwrap();\n}\n";
        let r = lint_source("crates/core/src/x.rs", src, &FilePolicy::all());
        assert!(r.clean());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn suppression_without_reason_does_not_silence() {
        let src = "fn f() {\n    x.unwrap(); // fume-lint: allow(F001)\n}\n";
        let r = lint_source("crates/core/src/x.rs", src, &FilePolicy::all());
        // Both the F001 and the F000 for the reasonless directive.
        let rules: Vec<&str> = r.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"F001") && rules.contains(&"F000"), "{rules:?}");
    }

    #[test]
    fn suppression_for_the_wrong_rule_does_not_silence() {
        let src = "fn f() {\n    x.unwrap(); // fume-lint: allow(F002) -- wrong id\n}\n";
        let r = lint_source("crates/core/src/x.rs", src, &FilePolicy::all());
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "F001");
    }

    #[test]
    fn json_report_is_escaped_and_parsable_shape() {
        let src = "fn f() { x.expect(\"a \\\"quoted\\\" reason\"); }\n";
        let r = lint_source("crates/core/src/x.rs", src, &FilePolicy::all());
        let json = r.to_json();
        assert!(json.contains("\"rule\": \"F001\""));
        assert!(json.contains("\"unsuppressed\": 1"));
        // The embedded quotes must come out escaped: no bare `"quoted"`.
        assert!(!json.contains("\"quoted\""));
        assert!(json.contains("quoted"));
    }

    #[test]
    fn f010_suppression_requires_a_lock_order_reason() {
        // A generic reason is not enough for F010 — the directive must
        // document the order.
        let src = "fn f() {\n    let a = m1.lock();\n    // fume-lint: allow(F010) -- both held briefly\n    let b = m2.lock();\n}\n";
        let r = lint_source("crates/core/src/x.rs", src, &FilePolicy::all());
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "F010");

        let src = "fn f() {\n    let a = m1.lock();\n    // fume-lint: allow(F010) -- lock-order: m1 < m2 (m2 only under m1)\n    let b = m2.lock();\n}\n";
        let r = lint_source("crates/core/src/x.rs", src, &FilePolicy::all());
        assert!(r.clean(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn json_diagnostics_carry_code_severity_and_explanation() {
        let src = "fn f() { x.unwrap(); }\n";
        let r = lint_source("crates/core/src/x.rs", src, &FilePolicy::all());
        let json = r.to_json();
        assert!(json.contains("\"code\": \"F001\""), "{json}");
        assert!(json.contains("\"severity\": \"deny\""), "{json}");
        assert!(json.contains("\"explanation\": \"panic path in library code"), "{json}");
    }

    #[test]
    fn diagnostics_carry_the_source_excerpt() {
        let src = "fn f() {\n    let t = Instant::now();\n}\n";
        let r = lint_source("crates/core/src/x.rs", src, &FilePolicy::all());
        assert_eq!(r.diagnostics[0].excerpt, "let t = Instant::now();");
        assert_eq!(r.diagnostics[0].line, 2);
    }
}
