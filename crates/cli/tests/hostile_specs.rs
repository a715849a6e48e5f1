//! Hostile-spec suite: every spec keyword's malformed forms, driven through
//! the CLI entry point (`parse_args` + `run`) the way a user would hit them.
//! The contract under test is that a hostile spec file is a reported
//! `spec error` with a line number — never a panic/abort.

use bugdoc_cli::{parse_args, run};
use std::fs;
use std::path::PathBuf;

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bugdoc-hostile-{}", std::process::id()));
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes `spec_text` to a file and runs `bugdoc diagnose --spec <file>`
/// end to end, returning the CLI's error message.
fn diagnose_error(name: &str, spec_text: &str) -> String {
    let path = workdir().join(format!("{name}.spec"));
    fs::write(&path, spec_text).unwrap();
    let args: Vec<String> = ["diagnose", "--spec", path.to_str().unwrap()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let request = parse_args(&args).expect("argv itself is well-formed");
    match run(request) {
        Ok(report) => panic!("hostile spec {name:?} was accepted:\n{report}"),
        Err(message) => message,
    }
}

/// Every keyword's malformed forms: `(case name, spec text, expected
/// message fragment, expected 1-based line number — 0 for file-level)`.
/// A minimal valid prefix precedes the hostile line so the error is
/// attributable to it.
const CASES: &[(&str, &str, &str, usize)] = &[
    // param
    ("param_bare", "param\ncommand p\neval exit_code\n", "name and a kind", 1),
    ("param_no_kind", "param x\ncommand p\neval exit_code\n", "name and a kind", 1),
    (
        "param_unknown_kind",
        "param x fuzzy a b\ncommand p\neval exit_code\n",
        "unknown parameter kind",
        1,
    ),
    (
        "param_categorical_one_value",
        "param x categorical a\ncommand p\neval exit_code\n",
        "at least 2 values",
        1,
    ),
    (
        "param_categorical_no_values",
        "param x categorical\ncommand p\neval exit_code\n",
        "at least 2 values",
        1,
    ),
    (
        "param_ordinal_one_value",
        "param x ordinal 1\ncommand p\neval exit_code\n",
        "at least 2 values",
        1,
    ),
    (
        "param_ordinal_value_spelled_twice",
        "param y boolean\nparam x ordinal 2 2.0 3\ncommand p\neval exit_code\n",
        "\"2\" and \"2.0\" are both written as \"2\"",
        2,
    ),
    (
        "param_categorical_value_listed_twice",
        "param c categorical a a\ncommand p\neval exit_code\n",
        "lists one value twice",
        1,
    ),
    (
        "param_ordinal_value_listed_twice",
        "param c ordinal 1 1\ncommand p\neval exit_code\n",
        "lists one value twice",
        1,
    ),
    (
        "param_boolean_with_values",
        "param x boolean yes no\ncommand p\neval exit_code\n",
        "boolean takes no values",
        1,
    ),
    (
        "param_duplicate_name",
        "param x boolean\nparam x categorical a b\ncommand p\neval exit_code\n",
        "duplicate parameter name",
        2,
    ),
    (
        "param_duplicate_boolean",
        "param x boolean\nparam x boolean\ncommand p\neval exit_code\n",
        "duplicate parameter name",
        2,
    ),
    // command
    ("command_empty", "param x boolean\ncommand\neval exit_code\n", "needs a program", 2),
    // eval
    ("eval_empty", "param x boolean\ncommand p\neval\n", "eval must be", 3),
    ("eval_unknown", "param x boolean\ncommand p\neval sideways\n", "eval must be", 3),
    (
        "eval_stdout_ge_missing_threshold",
        "param x boolean\ncommand p\neval stdout_ge\n",
        "eval must be",
        3,
    ),
    (
        "eval_stdout_ge_non_numeric",
        "param x boolean\ncommand p\neval stdout_ge lots\n",
        "stdout_ge needs a number",
        3,
    ),
    (
        "eval_stdout_le_non_numeric",
        "param x boolean\ncommand p\neval stdout_le () {{ :; }}\n",
        "eval must be",
        3,
    ),
    (
        "eval_stdout_le_nanlike",
        "param x boolean\ncommand p\neval stdout_le 0.1.5\n",
        "stdout_le needs a number",
        3,
    ),
    // workers
    (
        "workers_missing_value",
        "param x boolean\ncommand p\neval exit_code\nworkers\n",
        "positive integer",
        4,
    ),
    (
        "workers_zero",
        "param x boolean\ncommand p\neval exit_code\nworkers 0\n",
        "positive integer",
        4,
    ),
    (
        "workers_non_numeric",
        "param x boolean\ncommand p\neval exit_code\nworkers many\n",
        "positive integer",
        4,
    ),
    (
        "workers_negative",
        "param x boolean\ncommand p\neval exit_code\nworkers -3\n",
        "positive integer",
        4,
    ),
    // budget
    (
        "budget_missing_value",
        "param x boolean\ncommand p\neval exit_code\nbudget\n",
        "needs an integer",
        4,
    ),
    (
        "budget_non_numeric",
        "param x boolean\ncommand p\neval exit_code\nbudget unlimited\n",
        "needs an integer",
        4,
    ),
    // the removed result-cache bound
    (
        "cache_keyword_removed",
        "param x boolean\ncommand p\neval exit_code\ncache_entries 4096\n",
        "unknown keyword",
        4,
    ),
    // persist_dir / sync_every
    (
        "persist_dir_missing_path",
        "param x boolean\ncommand p\neval exit_code\npersist_dir\n",
        "needs a path",
        4,
    ),
    (
        "sync_every_without_persist",
        "param x boolean\ncommand p\neval exit_code\nsync_every 64\n",
        "requires persist_dir",
        0,
    ),
    (
        "sync_every_missing_value",
        "param x boolean\ncommand p\neval exit_code\npersist_dir /tmp/x\nsync_every\n",
        "positive integer",
        5,
    ),
    (
        "sync_every_zero",
        "param x boolean\ncommand p\neval exit_code\npersist_dir /tmp/x\nsync_every 0\n",
        "positive integer",
        5,
    ),
    (
        "sync_every_non_numeric",
        "param x boolean\ncommand p\neval exit_code\npersist_dir /tmp/x\nsync_every often\n",
        "positive integer",
        5,
    ),
    // the removed snapshot cadence
    (
        "snapshot_keyword_removed",
        "param x boolean\ncommand p\neval exit_code\npersist_dir /tmp/x\nsnapshot_every 64\n",
        "unknown keyword",
        5,
    ),
    // the removed bounds switch
    (
        "bounds_keyword_removed",
        "param x boolean\ncommand p\neval exit_code\nbounds off\n",
        "unknown keyword",
        4,
    ),
    // structure
    ("unknown_keyword", "param x boolean\nwat is this\ncommand p\neval exit_code\n", "unknown keyword", 2),
    ("empty_file", "", "no parameters", 0),
    ("comments_only", "# nothing here\n\n# still nothing\n", "no parameters", 0),
    ("no_params", "command p\neval exit_code\n", "no parameters", 0),
    ("no_command", "param x boolean\neval exit_code\n", "no command", 0),
    ("no_eval", "param x boolean\ncommand p\n", "no eval", 0),
];

#[test]
fn every_keywords_malformed_form_is_an_error_not_a_panic() {
    for (name, text, fragment, line) in CASES {
        let message = diagnose_error(name, text);
        assert!(
            message.contains(fragment),
            "{name}: error {message:?} does not mention {fragment:?}"
        );
        assert!(
            message.starts_with("spec error"),
            "{name}: not routed through SpecError: {message:?}"
        );
        if *line > 0 {
            let tag = format!("(line {line})");
            assert!(
                message.contains(&tag),
                "{name}: error {message:?} does not carry {tag:?}"
            );
        }
    }
}

/// Binary garbage and pathological token shapes must also come back as
/// parse errors (first bogus keyword), not aborts.
#[test]
fn garbage_input_is_rejected_gracefully() {
    let message = diagnose_error("binaryish", "\u{0}\u{1}\u{2} x y\nparam x boolean\n");
    assert!(message.starts_with("spec error"), "{message:?}");
    let long_token = "A".repeat(1 << 16);
    let message = diagnose_error(
        "long_token",
        &format!("param {long_token} boolean\ncommand p\neval exit_code\nworkers {long_token}\n"),
    );
    assert!(message.contains("positive integer"), "{message:?}");
}

/// A spec file that does not exist is an I/O error message, not a panic.
#[test]
fn missing_spec_file_is_reported() {
    let args: Vec<String> = ["diagnose", "--spec", "/nonexistent/bugdoc.spec"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let request = parse_args(&args).unwrap();
    let message = run(request).unwrap_err();
    assert!(message.contains("cannot read"), "{message:?}");
}
