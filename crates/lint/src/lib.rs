//! `bugdoc-lint` — the workspace invariant checker.
//!
//! PRs 1–7 accumulated load-bearing contracts that existed only as prose in
//! ROADMAP.md: the kernel autovectorization contract, the lock-hold
//! discipline, panic-freedom on the hot paths, the atomic-ordering audit,
//! and the WAL codec's checked-cast rule. This crate machine-enforces them
//! on every build: a zero-dependency lexer (comments, strings, raw strings,
//! char literals, nesting-aware block scanning) feeds a rule engine that
//! walks every workspace `.rs` file. Findings fail the build (the binary
//! exits non-zero, and `tests/workspace_clean.rs` runs the same scan under
//! `cargo test`).
//!
//! Rules are cataloged in [`rules::RULES`] and documented contract-by-
//! contract in `docs/INVARIANTS.md`. Each has a stable ID and an escape
//! hatch — an `allow(<rule>, reason = "...")` comment annotation prefixed
//! with the lint marker — that *requires* a reviewable reason (a
//! reason-less allow is itself a finding, L001).

pub mod lexer;
pub mod rules;

pub use rules::{lint_source, known_rule, Finding, RuleInfo, RULES};

use std::path::{Path, PathBuf};

/// A whole-workspace lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, ordered by path then line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Directories never descended into: build output, VCS internals, and the
/// lint's own rule fixtures (which contain deliberate violations).
fn skip_dir(name: &str) -> bool {
    name == "target" || name.starts_with('.') || name == "fixtures"
}

/// Collects every workspace `.rs` file under `root`, sorted for
/// deterministic reports.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !skip_dir(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every `.rs` file under `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for path in workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        report.findings.extend(lint_source(&rel, &source));
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

/// Renders the report as JSON (hand-rolled: the crate is std-only).
pub fn to_json(report: &Report) -> String {
    let mut s = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            escape_json(f.rule),
            escape_json(&f.path),
            f.line,
            escape_json(&f.message)
        ));
    }
    if !report.findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str(&format!(
        "],\n  \"files_scanned\": {},\n  \"finding_count\": {}\n}}\n",
        report.files_scanned,
        report.findings.len()
    ));
    s
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// The workspace root: `CARGO_MANIFEST_DIR/../..` when invoked through
/// cargo (run or test), falling back to the current directory.
pub fn default_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(|d| {
            let p = PathBuf::from(d);
            p.parent()
                .and_then(Path::parent)
                .map(Path::to_path_buf)
                .unwrap_or(p)
        })
        .unwrap_or_else(|| PathBuf::from("."))
}
