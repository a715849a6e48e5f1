//! The pipeline spec file: a small line-based format describing the
//! parameter space, the command to execute per instance, and the evaluation
//! procedure.
//!
//! ```text
//! # sales forecast pipeline
//! param data_provider categorical internal acme_feed datastream
//! param feed_resolution categorical monthly weekly daily
//! param feature_window ordinal 3 6 12 24
//! param verbose boolean
//! command ./run_forecast.sh --provider {data_provider} --window {feature_window}
//! eval stdout_le 0.15
//! workers 5
//! budget 200
//! ```
//!
//! * `param <name> categorical <v>…` — unordered labels.
//! * `param <name> ordinal <v>…` — ordered values (ints, floats, or strings).
//! * `param <name> boolean` — shorthand for `ordinal false true`.
//! * A `param` line lists each value once: two tokens that print alike
//!   (`2` and `2.0`) are the same value and an error.
//! * `command <argv>…` — `{param}` placeholders are substituted; every
//!   parameter is also exported as `BUGDOC_<NAME>`.
//! * `eval exit_code` | `eval stdout_ge <t>` | `eval stdout_le <t>`.
//! * `workers <n>` (default 5), `budget <n>` (default unbounded).
//! * `persist_dir <path>` — durable provenance: every execution is teed to
//!   a checksummed write-ahead log in this directory, and a rerun *warm
//!   starts* from whatever the directory already holds (a killed run
//!   resumes where it stopped, paying only for the lost tail).
//! * `sync_every <n>` — with `persist_dir`, fsync the write-ahead log every
//!   `n` new executions (default 512) as well as at exit, bounding what a
//!   power loss can take.

use bugdoc_core::{ParamSpace, Value};
use bugdoc_engine::{CommandEval, PersistConfig};
use std::fmt;
use std::sync::Arc;

/// A parsed spec.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The parameter space.
    pub space: Arc<ParamSpace>,
    /// The command argv (with placeholders).
    pub command: Vec<String>,
    /// The evaluation procedure.
    pub eval: CommandEval,
    /// Execution workers.
    pub workers: usize,
    /// Optional new-instance budget.
    pub budget: Option<usize>,
    /// Durable provenance (`persist_dir` / `sync_every`), if requested.
    pub persist: Option<PersistConfig>,
}

/// A spec parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// 1-based line number (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "spec error: {}", self.message)
        } else {
            write!(f, "spec error (line {}): {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SpecError {}

fn err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError {
        line,
        message: message.into(),
    }
}

/// Parses a value literal: int, then float, then bool, then string.
pub fn parse_value(token: &str) -> Value {
    if let Ok(i) = token.parse::<i64>() {
        return Value::from(i);
    }
    if let Ok(x) = token.parse::<f64>() {
        if !x.is_nan() {
            return Value::float(x);
        }
    }
    match token {
        "true" => Value::from(true),
        "false" => Value::from(false),
        other => Value::str(other),
    }
}

/// A parsed `param` line, staged until the whole file is read so the space
/// is built in one place (and so duplicate names are *parse* errors with a
/// line number, not a panic from [`ParamSpace`]'s builder).
enum ParamDecl {
    Categorical(String, Vec<Value>),
    Ordinal(String, Vec<Value>),
    Boolean(String),
}

impl ParamDecl {
    fn name(&self) -> &str {
        match self {
            ParamDecl::Categorical(n, _) | ParamDecl::Ordinal(n, _) | ParamDecl::Boolean(n) => n,
        }
    }
}

/// The first two tokens of a `param` line whose values have the same
/// `Display` form (`2` and `2.0`, or `a` twice), with that form. Such values
/// are written identically on the command line and in a provenance TSV, so
/// the line lists one value twice.
fn same_spelling<'t>(tokens: &[&'t str], values: &[Value]) -> Option<(&'t str, &'t str, String)> {
    let shown: Vec<String> = values.iter().map(Value::to_string).collect();
    (1..shown.len()).find_map(|j| {
        (0..j)
            .find(|&i| shown[i] == shown[j])
            .map(|i| (tokens[i], tokens[j], shown[j].clone()))
    })
}

/// Parses a spec from its text. Never panics: every malformed line —
/// including ones that would trip [`ParamSpace`]'s builder invariants, like
/// a duplicate parameter name — is a [`SpecError`] carrying its 1-based
/// line number.
pub fn parse_spec(text: &str) -> Result<Spec, SpecError> {
    let mut params: Vec<ParamDecl> = Vec::new();
    let mut command: Option<Vec<String>> = None;
    let mut eval: Option<CommandEval> = None;
    let mut workers = 5usize;
    let mut budget: Option<usize> = None;
    let mut persist_dir: Option<String> = None;
    let mut sync_every: Option<u64> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let Some(keyword) = tokens.next() else {
            continue;
        };
        let rest: Vec<&str> = tokens.collect();
        match keyword {
            "param" => {
                if rest.len() < 2 {
                    return Err(err(line_no, "param needs a name and a kind"));
                }
                let name = rest[0].to_string();
                if params.iter().any(|p| p.name() == name) {
                    return Err(err(line_no, format!("duplicate parameter name {name:?}")));
                }
                let kind = rest[1];
                let values: Vec<Value> = rest[2..].iter().map(|t| parse_value(t)).collect();
                params.push(match kind {
                    "categorical" | "ordinal" => {
                        if values.len() < 2 {
                            return Err(err(line_no, format!("{kind} needs at least 2 values")));
                        }
                        if let Some((a, b, shown)) = same_spelling(&rest[2..], &values) {
                            return Err(err(
                                line_no,
                                format!(
                                    "parameter {name:?} lists one value twice: {a:?} and {b:?} \
                                     are both written as {shown:?}"
                                ),
                            ));
                        }
                        if kind == "categorical" {
                            ParamDecl::Categorical(name, values)
                        } else {
                            ParamDecl::Ordinal(name, values)
                        }
                    }
                    "boolean" => {
                        if !values.is_empty() {
                            return Err(err(line_no, "boolean takes no values"));
                        }
                        ParamDecl::Boolean(name)
                    }
                    other => {
                        return Err(err(
                            line_no,
                            format!("unknown parameter kind {other:?} (categorical/ordinal/boolean)"),
                        ))
                    }
                });
            }
            "command" => {
                if rest.is_empty() {
                    return Err(err(line_no, "command needs a program"));
                }
                command = Some(rest.iter().map(|s| s.to_string()).collect());
            }
            "eval" => {
                eval = Some(match rest.as_slice() {
                    ["exit_code"] => CommandEval::ExitCode,
                    ["stdout_ge", t] => CommandEval::StdoutScoreAtLeast(
                        t.parse().map_err(|_| err(line_no, "stdout_ge needs a number"))?,
                    ),
                    ["stdout_le", t] => CommandEval::StdoutScoreAtMost(
                        t.parse().map_err(|_| err(line_no, "stdout_le needs a number"))?,
                    ),
                    _ => {
                        return Err(err(
                            line_no,
                            "eval must be: exit_code | stdout_ge <t> | stdout_le <t>",
                        ))
                    }
                });
            }
            "workers" => {
                workers = rest
                    .first()
                    .and_then(|t| t.parse().ok())
                    .filter(|&w: &usize| w >= 1)
                    .ok_or_else(|| err(line_no, "workers needs a positive integer"))?;
            }
            "budget" => {
                budget = Some(
                    rest.first()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(line_no, "budget needs an integer"))?,
                );
            }
            "persist_dir" => {
                if rest.is_empty() {
                    return Err(err(line_no, "persist_dir needs a path"));
                }
                // Paths may contain spaces; the original spacing is not
                // recoverable from tokens, so single spaces are assumed.
                persist_dir = Some(rest.join(" "));
            }
            "sync_every" => {
                sync_every = Some(
                    rest.first()
                        .and_then(|t| t.parse().ok())
                        .filter(|&n: &u64| n >= 1)
                        .ok_or_else(|| err(line_no, "sync_every needs a positive integer"))?,
                );
            }
            other => return Err(err(line_no, format!("unknown keyword {other:?}"))),
        }
    }

    if params.is_empty() {
        return Err(err(0, "spec declares no parameters"));
    }
    let command = command.ok_or_else(|| err(0, "spec has no command line"))?;
    let eval = eval.ok_or_else(|| err(0, "spec has no eval line"))?;
    // The per-line checks above (≥2 values, no duplicate names) are exactly
    // the builder's panic preconditions, so this build cannot abort.
    let mut builder = ParamSpace::builder();
    for decl in params {
        builder = match decl {
            ParamDecl::Categorical(name, values) => builder.categorical(name, values),
            ParamDecl::Ordinal(name, values) => builder.ordinal(name, values),
            ParamDecl::Boolean(name) => builder.boolean(name),
        };
    }
    let space = builder.build();
    let persist = match (persist_dir, sync_every) {
        (None, Some(_)) => {
            return Err(err(0, "sync_every requires persist_dir"));
        }
        (None, None) => None,
        (Some(dir), every) => Some(PersistConfig {
            sync_every: Some(every.unwrap_or(512)),
            ..PersistConfig::new(dir)
        }),
    };
    Ok(Spec {
        space,
        command,
        eval,
        workers,
        budget,
        persist,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# demo
param provider categorical internal acme datastream
param window ordinal 3 6 12
param verbose boolean

command ./run.sh --p {provider} --w {window}
eval stdout_le 0.15
workers 3
budget 50
";

    #[test]
    fn parses_full_spec() {
        let spec = parse_spec(GOOD).unwrap();
        assert_eq!(spec.space.len(), 3);
        assert_eq!(spec.space.by_name("provider").map(|p| spec.space.domain(p).len()), Some(3));
        assert!(spec.space.domain(spec.space.by_name("window").unwrap()).is_ordinal());
        assert_eq!(spec.command, vec!["./run.sh", "--p", "{provider}", "--w", "{window}"]);
        assert_eq!(spec.eval, CommandEval::StdoutScoreAtMost(0.15));
        assert_eq!(spec.workers, 3);
        assert_eq!(spec.budget, Some(50));
    }

    #[test]
    fn defaults() {
        let spec = parse_spec(
            "param a boolean\nparam b ordinal 1 2\ncommand prog\neval exit_code\n",
        )
        .unwrap();
        assert_eq!(spec.workers, 5);
        assert_eq!(spec.budget, None);
        assert_eq!(spec.eval, CommandEval::ExitCode);
    }

    /// The executor keeps no result cache of its own, so the keywords that
    /// once bounded it are unknown: a spec that still carries one fails on
    /// that line instead of silently running without the bound.
    #[test]
    fn memory_budget_keywords() {
        let base = "param a boolean\ncommand prog\neval exit_code\n";
        for removed in ["cache_entries 128\n", "cache_bytes 65536\n"] {
            let e = parse_spec(&format!("{base}{removed}")).unwrap_err();
            assert_eq!(e.line, 4, "{removed:?}: {e}");
            assert!(e.message.contains("unknown keyword"), "{removed:?}: {e}");
        }
    }

    #[test]
    fn persist_keywords() {
        let base = "param a boolean\ncommand prog\neval exit_code\n";
        let spec = parse_spec(base).unwrap();
        assert_eq!(spec.persist, None);

        let spec = parse_spec(&format!("{base}persist_dir /tmp/bd runs\n")).unwrap();
        let persist = spec.persist.unwrap();
        assert_eq!(persist.dir, std::path::PathBuf::from("/tmp/bd runs"));
        assert_eq!(persist.sync_every, Some(512), "default cadence");

        let spec = parse_spec(&format!("{base}persist_dir /tmp/bd\nsync_every 64\n")).unwrap();
        assert_eq!(spec.persist.unwrap().sync_every, Some(64));

        let e = parse_spec(&format!("{base}sync_every 64\n")).unwrap_err();
        assert!(e.message.contains("requires persist_dir"), "{e}");
        let e = parse_spec(&format!("{base}persist_dir\n")).unwrap_err();
        assert!(e.message.contains("needs a path"), "{e}");
        for bad in ["sync_every 0\n", "sync_every x\n"] {
            let e = parse_spec(&format!("{base}persist_dir /tmp/bd\n{bad}")).unwrap_err();
            assert!(e.message.contains("positive integer"), "{bad:?}: {e}");
        }
    }

    /// Provenance queries have no bounds layer to switch off, so `bounds`
    /// is unknown: a spec that still carries it fails on that line.
    #[test]
    fn bounds_keyword() {
        let base = "param a boolean\ncommand prog\neval exit_code\n";
        for removed in ["bounds off\n", "bounds on\n"] {
            let e = parse_spec(&format!("{base}{removed}")).unwrap_err();
            assert_eq!(e.line, 4, "{removed:?}: {e}");
            assert!(e.message.contains("unknown keyword"), "{removed:?}: {e}");
        }
    }

    #[test]
    fn value_literal_parsing() {
        assert_eq!(parse_value("3"), Value::from(3));
        assert_eq!(parse_value("2.5"), Value::float(2.5));
        assert_eq!(parse_value("true"), Value::from(true));
        assert_eq!(parse_value("weekly"), Value::str("weekly"));
    }

    #[test]
    fn error_lines_are_reported() {
        let e = parse_spec("param x categorical a\ncommand p\neval exit_code\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("at least 2"));

        let e = parse_spec("param x boolean\nwat\n").unwrap_err();
        assert_eq!(e.line, 2);

        let e = parse_spec("param x boolean\ncommand p\neval sideways\n").unwrap_err();
        assert!(e.message.contains("eval must be"));
    }

    #[test]
    fn missing_sections() {
        assert!(parse_spec("command p\neval exit_code\n").unwrap_err().message.contains("no parameters"));
        assert!(parse_spec("param x boolean\neval exit_code\n").unwrap_err().message.contains("no command"));
        assert!(parse_spec("param x boolean\ncommand p\n").unwrap_err().message.contains("no eval"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let spec = parse_spec(
            "# c\n\nparam a boolean\n  # indented comment\ncommand p {a}\neval exit_code\n",
        )
        .unwrap();
        assert_eq!(spec.space.len(), 1);
    }
}
