//! The `bugdoc serve` wire protocol: line-delimited text.
//!
//! Every request is a single `\n`-terminated line (`SPEC` is followed by a
//! counted block of raw spec lines). Every reply starts with `OK` or
//! `ERR <message>`; replies whose tag is in [`BLOCK_TAGS`] carry a counted
//! body — `OK report 3` is followed by exactly 3 lines — so a client always
//! knows how much to read without sniffing.
//!
//! ```text
//! PING                          -> OK pong
//! SESSION NEW                   -> OK session <id>
//! SESSION ATTACH <id>           -> OK session <id>
//! SPEC <n> [reserve=<k>]        -> OK spec fresh|shared sessions=<m>
//!   (followed by n raw spec lines; reserve=<k> pre-admits k executions
//!    against the shared budget and fails the bind if they cannot fit)
//! DIAGNOSE [algorithm=combined|stacked|ddt] [mode=one|all] [seed=<n>]
//!                               -> OK report <n>  + n report lines
//! STATS                         -> OK stats <n>   + n `key value` lines
//! METRICS                       -> OK metrics <n> + n Prometheus text lines
//! FLIGHT                        -> OK flight <n>  + n recent-event lines
//! DETACH                        -> OK detached  (session survives)
//! CLOSE                         -> OK closed    (reservation released)
//! SHUTDOWN                      -> OK shutting-down  (daemon drains)
//! ```
//!
//! This module is pure parsing and rendering — no I/O — so it unit-tests
//! without a socket and stays trivially within the serve crate's
//! no-blocking-syscalls contract (lint rule W007).

use bugdoc_algorithms::{DdtMode, Strategy};

/// Upper bound on the `SPEC <n>` counted block, so a hostile client cannot
/// make a handler buffer an unbounded document.
pub const MAX_SPEC_LINES: usize = 4096;

/// Upper bound on a single accumulated wire line; a connection exceeding it
/// is dropped rather than buffered further.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Reply tags whose `OK <tag> <n>` head line is followed by `n` body lines.
pub const BLOCK_TAGS: &[&str] = &["report", "stats", "metrics", "flight"];

/// Most recent flight events a `FLIGHT` reply carries. Far below the ring
/// capacity so a dump stays a skim, not a download.
pub const FLIGHT_DUMP_MAX: usize = 256;

/// Settings a session passes to one `DIAGNOSE` request. Defaults mirror the
/// one-shot CLI: the paper's combined strategy, find-all, seed 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagnoseParams {
    /// Algorithm selection (`algorithm=`).
    pub strategy: Strategy,
    /// FindOne or FindAll (`mode=`).
    pub mode: DdtMode,
    /// RNG seed (`seed=`).
    pub seed: u64,
}

impl Default for DiagnoseParams {
    fn default() -> Self {
        DiagnoseParams {
            strategy: Strategy::Combined,
            mode: DdtMode::FindAll,
            seed: 0,
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Liveness probe.
    Ping,
    /// Create a session and bind it to this connection.
    SessionNew,
    /// Re-bind an existing (detached) session to this connection.
    SessionAttach(u64),
    /// Bind the session to a pipeline spec; `lines` raw spec lines follow.
    Spec {
        /// Number of raw spec lines that follow this command line.
        lines: usize,
        /// Executions to pre-admit against the shared budget (0 = none).
        reserve: usize,
    },
    /// Run the diagnosis algorithms over the session's shared executor.
    Diagnose(DiagnoseParams),
    /// Report session-scoped and shared execution statistics.
    Stats,
    /// Render every telemetry metric as Prometheus text exposition
    /// (daemon-wide; needs no session).
    Metrics,
    /// Dump the most recent flight-recorder events (daemon-wide; needs no
    /// session).
    Flight,
    /// Unbind the session from this connection, keeping it alive.
    Detach,
    /// Destroy the session and release its budget reservation.
    Close,
    /// Ask the daemon to drain and exit.
    Shutdown,
}

/// Parses one request line. Keywords are case-sensitive (uppercase).
pub fn parse_command(line: &str) -> Result<Command, String> {
    let mut tokens = line.split_whitespace();
    let Some(keyword) = tokens.next() else {
        return Err("empty command".to_string());
    };
    let command = match keyword {
        "PING" => Command::Ping,
        "SESSION" => match tokens.next() {
            Some("NEW") => Command::SessionNew,
            Some("ATTACH") => {
                let id = tokens.next().ok_or("SESSION ATTACH needs a session id")?;
                Command::SessionAttach(
                    id.parse()
                        .map_err(|_| format!("session id must be an integer, got {id:?}"))?,
                )
            }
            _ => return Err("SESSION needs NEW or ATTACH <id>".to_string()),
        },
        "SPEC" => {
            let n = tokens.next().ok_or("SPEC needs a line count")?;
            let lines: usize = n
                .parse()
                .map_err(|_| format!("SPEC line count must be an integer, got {n:?}"))?;
            if lines == 0 || lines > MAX_SPEC_LINES {
                return Err(format!("SPEC line count must be 1..={MAX_SPEC_LINES}"));
            }
            let mut reserve = 0usize;
            for token in tokens.by_ref() {
                match token.split_once('=') {
                    Some(("reserve", value)) => {
                        reserve = value.parse().map_err(|_| {
                            format!("reserve needs an integer, got {value:?}")
                        })?;
                    }
                    _ => return Err(format!("unknown SPEC option {token:?}")),
                }
            }
            Command::Spec { lines, reserve }
        }
        "DIAGNOSE" => {
            let mut params = DiagnoseParams::default();
            for token in tokens.by_ref() {
                let Some((key, value)) = token.split_once('=') else {
                    return Err(format!("DIAGNOSE options are key=value, got {token:?}"));
                };
                match key {
                    "algorithm" => params.strategy = value.parse()?,
                    "mode" => params.mode = value.parse()?,
                    "seed" => {
                        params.seed = value
                            .parse()
                            .map_err(|_| format!("seed needs an integer, got {value:?}"))?;
                    }
                    other => return Err(format!("unknown DIAGNOSE option {other:?}")),
                }
            }
            Command::Diagnose(params)
        }
        "STATS" => Command::Stats,
        "METRICS" => Command::Metrics,
        "FLIGHT" => Command::Flight,
        "DETACH" => Command::Detach,
        "CLOSE" => Command::Close,
        "SHUTDOWN" => Command::Shutdown,
        other => return Err(format!("unknown command {other:?}")),
    };
    if tokens.next().is_some() {
        return Err(format!("trailing tokens after {keyword}"));
    }
    Ok(command)
}

/// Renders the most recent flight-recorder events (at most
/// [`FLIGHT_DUMP_MAX`]), oldest first, one event per line:
/// `<seq> <t_us> <kind> <arg0> <arg1> <arg2>`. Pure in-memory rendering —
/// the ring read never blocks a recorder (and W007 keeps this handler off
/// files and subprocesses).
pub fn render_flight() -> String {
    let mut out = String::new();
    for ev in bugdoc_telemetry::flight_dump(FLIGHT_DUMP_MAX) {
        out.push_str(&format!(
            "{} {} {} {} {} {}\n",
            ev.seq,
            ev.t_us,
            ev.kind.name(),
            ev.args[0],
            ev.args[1],
            ev.args[2]
        ));
    }
    out
}

/// Renders an error reply. The message is flattened to one line so the
/// framing survives whatever text the failure carried.
pub fn render_err(message: &str) -> String {
    let flat = message.replace(['\n', '\r'], "; ");
    format!("ERR {}\n", flat.trim())
}

/// Renders an `OK <tag> <n>` head line followed by the body's `n` lines.
/// `tag` must be one of [`BLOCK_TAGS`], or the client will misframe.
pub fn render_block(tag: &str, body: &str) -> String {
    debug_assert!(BLOCK_TAGS.contains(&tag), "unframed block tag {tag:?}");
    let lines: Vec<&str> = body.lines().collect();
    let mut out = format!("OK {tag} {}\n", lines.len());
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse() {
        assert_eq!(parse_command("PING").unwrap(), Command::Ping);
        assert_eq!(parse_command("SESSION NEW").unwrap(), Command::SessionNew);
        assert_eq!(
            parse_command("SESSION ATTACH 7").unwrap(),
            Command::SessionAttach(7)
        );
        assert_eq!(
            parse_command("SPEC 3").unwrap(),
            Command::Spec { lines: 3, reserve: 0 }
        );
        assert_eq!(
            parse_command("SPEC 3 reserve=50").unwrap(),
            Command::Spec { lines: 3, reserve: 50 }
        );
        assert_eq!(
            parse_command("DIAGNOSE").unwrap(),
            Command::Diagnose(DiagnoseParams::default())
        );
        assert_eq!(
            parse_command("DIAGNOSE algorithm=ddt mode=one seed=9").unwrap(),
            Command::Diagnose(DiagnoseParams {
                strategy: Strategy::DdtOnly,
                mode: DdtMode::FindOne,
                seed: 9,
            })
        );
        assert_eq!(parse_command("STATS").unwrap(), Command::Stats);
        assert_eq!(parse_command("METRICS").unwrap(), Command::Metrics);
        assert_eq!(parse_command("FLIGHT").unwrap(), Command::Flight);
        assert_eq!(parse_command("DETACH").unwrap(), Command::Detach);
        assert_eq!(parse_command("CLOSE").unwrap(), Command::Close);
        assert_eq!(parse_command("SHUTDOWN").unwrap(), Command::Shutdown);
    }

    #[test]
    fn unknown_diagnose_keywords_are_named() {
        assert_eq!(
            parse_command("DIAGNOSE algorithm=x"),
            Err("unknown algorithm \"x\"".to_string())
        );
        assert_eq!(
            parse_command("DIAGNOSE mode=x"),
            Err("unknown mode \"x\"".to_string())
        );
    }

    #[test]
    fn hostile_lines_are_errors_not_panics() {
        for line in [
            "",
            "   ",
            "ping",
            "SESSION",
            "SESSION DESTROY",
            "SESSION ATTACH",
            "SESSION ATTACH seven",
            "SESSION ATTACH 7 8",
            "SPEC",
            "SPEC zero",
            "SPEC 0",
            "SPEC 999999999",
            "SPEC 3 reserve=",
            "SPEC 3 reserve=lots",
            "SPEC 3 budget=5",
            "DIAGNOSE algorithm=magic",
            "DIAGNOSE mode=some",
            "DIAGNOSE seed=pi",
            "DIAGNOSE loudly",
            "DIAGNOSE algorithm=combined extra=1",
            "PING PONG",
            "STATS now",
            "METRICS all",
            "FLIGHT 10",
            "metrics",
            "SHUTDOWN -f",
            "\u{0}\u{1}",
        ] {
            assert!(parse_command(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn err_rendering_is_single_line() {
        let rendered = render_err("first\nsecond\r\nthird");
        assert_eq!(rendered.matches('\n').count(), 1);
        assert!(rendered.starts_with("ERR "));
    }

    #[test]
    fn block_rendering_counts_lines() {
        let block = render_block("report", "a\nb\n");
        assert_eq!(block, "OK report 2\na\nb\n");
        let empty = render_block("stats", "");
        assert_eq!(empty, "OK stats 0\n");
    }
}
