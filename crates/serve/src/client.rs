//! A minimal blocking client for the `bugdoc serve` wire protocol, used by
//! `bugdoc connect` and by the integration tests. One [`Client`] drives one
//! connection — and therefore at most one session at a time.

use crate::protocol::{DiagnoseParams, BLOCK_TAGS};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// One reply from the daemon: the text after `OK `, plus the counted body
/// lines when the tag carries one (`report`, `stats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The head line with `OK ` stripped, e.g. `session 3`.
    pub head: String,
    /// Body lines for block replies, empty otherwise.
    pub body: Vec<String>,
}

/// A connected protocol client.
pub struct Client {
    /// The connection, read through the buffer and written through
    /// `get_ref`: `&UnixStream` implements `Write`, so one descriptor
    /// serves both directions.
    stream: BufReader<UnixStream>,
}

impl Client {
    /// Connects to a daemon's socket.
    pub fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    /// Sends one command line and reads the reply; `ERR` replies come back
    /// as `Err` with the daemon's message.
    pub fn request(&mut self, line: &str) -> Result<Reply, String> {
        self.transact(&format!("{line}\n"))
    }

    /// Creates a session; returns its id.
    pub fn session_new(&mut self) -> Result<u64, String> {
        let reply = self.request("SESSION NEW")?;
        parse_session_id(&reply.head)
    }

    /// Re-attaches to an existing session.
    pub fn session_attach(&mut self, id: u64) -> Result<u64, String> {
        let reply = self.request(&format!("SESSION ATTACH {id}"))?;
        parse_session_id(&reply.head)
    }

    /// Binds a spec (the raw text the one-shot CLI would read from a file)
    /// to the session, optionally reserving executions from the shared
    /// budget. Returns the daemon's ack head, e.g. `spec shared sessions=2`.
    pub fn spec(&mut self, text: &str, reserve: usize) -> Result<String, String> {
        let lines: Vec<&str> = text.lines().collect();
        if lines.is_empty() {
            return Err("empty spec".to_string());
        }
        let mut payload = if reserve > 0 {
            format!("SPEC {} reserve={reserve}\n", lines.len())
        } else {
            format!("SPEC {}\n", lines.len())
        };
        for line in lines {
            payload.push_str(line);
            payload.push('\n');
        }
        Ok(self.transact(&payload)?.head)
    }

    /// Runs a diagnosis; returns the report (the cause section, identical
    /// to the first lines of a one-shot `bugdoc diagnose` run).
    pub fn diagnose(&mut self, params: DiagnoseParams) -> Result<String, String> {
        let reply = self.request(&format!(
            "DIAGNOSE algorithm={} mode={} seed={}",
            params.strategy, params.mode, params.seed
        ))?;
        Ok(join_lines(&reply.body))
    }

    /// Fetches session + shared counters as `key value` pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, String> {
        let reply = self.request("STATS")?;
        let mut pairs = Vec::new();
        for line in &reply.body {
            let mut tokens = line.split_whitespace();
            let (Some(key), Some(value)) = (tokens.next(), tokens.next()) else {
                return Err(format!("malformed stats line {line:?}"));
            };
            let value = value
                .parse()
                .map_err(|_| format!("malformed stats line {line:?}"))?;
            pairs.push((key.to_string(), value));
        }
        Ok(pairs)
    }

    /// Fetches the daemon-wide Prometheus exposition, one line per entry.
    pub fn metrics(&mut self) -> Result<Vec<String>, String> {
        Ok(self.request("METRICS")?.body)
    }

    /// Fetches the most recent flight-recorder events, oldest first, as
    /// `<seq> <t_us> <kind> <a0> <a1> <a2>` lines.
    pub fn flight(&mut self) -> Result<Vec<String>, String> {
        Ok(self.request("FLIGHT")?.body)
    }

    fn transact(&mut self, payload: &str) -> Result<Reply, String> {
        let mut writer = self.stream.get_ref();
        writer
            .write_all(payload.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("connection lost: {e}"))?;
        let head = self.read_line()?;
        if let Some(message) = head.strip_prefix("ERR ") {
            return Err(message.to_string());
        }
        let Some(head) = head.strip_prefix("OK ") else {
            return Err(format!("malformed reply {head:?}"));
        };
        let mut body = Vec::new();
        let mut tokens = head.split_whitespace();
        if let Some(tag) = tokens.next() {
            if BLOCK_TAGS.contains(&tag) {
                let count: usize = tokens
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("malformed block head {head:?}"))?;
                for _ in 0..count {
                    body.push(self.read_line()?);
                }
            }
        }
        Ok(Reply {
            head: head.to_string(),
            body,
        })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stream.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(line.trim_end_matches(['\n', '\r']).to_string()),
            Err(e) => Err(format!("connection lost: {e}")),
        }
    }
}

fn parse_session_id(head: &str) -> Result<u64, String> {
    head.strip_prefix("session ")
        .and_then(|id| id.trim().parse().ok())
        .ok_or_else(|| format!("malformed session reply {head:?}"))
}

fn join_lines(lines: &[String]) -> String {
    let mut out = String::new();
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}
