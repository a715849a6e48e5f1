//! # bugdoc-cli
//!
//! The `bugdoc` command-line tool: point it at a *spec file* describing a
//! parameter space, a command to execute per configuration, and an
//! evaluation procedure, plus (optionally) a provenance TSV of runs you
//! already have — and it executes the instances BugDoc's algorithms need and
//! prints the minimal definitive root causes of failure.
//!
//! ```text
//! bugdoc diagnose --spec pipeline.spec [--provenance runs.tsv]
//!                 [--algorithm combined|stacked|ddt] [--mode one|all]
//!                 [--seed N] [--save-provenance out.tsv] [--metrics]
//! bugdoc explain  --spec pipeline.spec --provenance runs.tsv
//!                 [--method dataxray|exptables]     # analysis only, no runs
//! bugdoc serve    --socket PATH         # long-lived diagnosis daemon
//! bugdoc connect  --socket PATH --spec pipeline.spec
//!                 [--algorithm ...] [--mode ...] [--seed N] [--reserve N]
//!                 [--stats] [--metrics]
//! ```
//!
//! `serve` hosts concurrent diagnosis sessions over one shared executor per
//! spec (see the `bugdoc-serve` crate and `docs/SERVING.md`); `connect`
//! runs one diagnosis against a daemon — same report, shared executions.

#![warn(missing_docs)]

pub mod spec;

use bugdoc_algorithms::{diagnose, BugDocConfig, DdtMode, Strategy};
use bugdoc_baselines::{dataxray, exptables};
use bugdoc_core::ProvenanceStore;
use bugdoc_engine::{CommandPipeline, Executor, ExecutorConfig, Pipeline};
use spec::Spec;
use std::fmt::Write as _;
use std::sync::Arc;

/// Parsed command-line request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run the debugging algorithms (may execute new instances).
    Diagnose {
        /// Spec file path.
        spec: String,
        /// Optional provenance TSV path.
        provenance: Option<String>,
        /// Algorithm selection.
        strategy: Strategy,
        /// FindOne or FindAll.
        mode: DdtMode,
        /// RNG seed.
        seed: u64,
        /// Write the final provenance here.
        save_provenance: Option<String>,
        /// Append the process-wide telemetry exposition to the report.
        metrics: bool,
    },
    /// Run a baseline explainer on existing provenance (no executions).
    Explain {
        /// Spec file path.
        spec: String,
        /// Provenance TSV path.
        provenance: String,
        /// `dataxray` or `exptables`.
        method: String,
    },
    /// Run the diagnosis service daemon until `SIGTERM` (or a client's
    /// `SHUTDOWN`).
    Serve {
        /// Unix-domain-socket path to listen on.
        socket: String,
    },
    /// Run one diagnosis as a session against a `serve` daemon.
    Connect {
        /// Unix-domain-socket path of the daemon.
        socket: String,
        /// Spec file path (sent to the daemon verbatim).
        spec: String,
        /// Algorithm selection.
        strategy: Strategy,
        /// FindOne or FindAll.
        mode: DdtMode,
        /// RNG seed.
        seed: u64,
        /// Executions to reserve from the daemon's shared budget (0: none).
        reserve: usize,
        /// Print every `STATS` counter the daemon reports, not the summary.
        stats: bool,
        /// Append the daemon's `METRICS` exposition to the report.
        metrics: bool,
    },
    /// Print usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
bugdoc — find minimal definitive root causes of pipeline failures

USAGE:
  bugdoc diagnose --spec FILE [--provenance FILE] [--algorithm combined|stacked|ddt]
                  [--mode one|all] [--seed N] [--save-provenance FILE] [--metrics]
  bugdoc explain  --spec FILE --provenance FILE [--method dataxray|exptables]
  bugdoc serve    --socket PATH
  bugdoc connect  --socket PATH --spec FILE [--algorithm combined|stacked|ddt]
                  [--mode one|all] [--seed N] [--reserve N] [--stats] [--metrics]
  bugdoc help

--metrics appends the telemetry counters/histograms (Prometheus text): the
local process's for diagnose, the daemon's for connect. connect --stats
prints every session and shared counter the daemon's STATS command reports.

The spec file declares parameters, the command template, and the evaluation:
  param feed categorical internal acme datastream
  param window ordinal 3 6 12
  command ./run.sh --feed {feed} --window {window}
  eval stdout_le 0.15      # or: exit_code | stdout_ge <t>
  workers 5
  budget 200
  persist_dir .bugdoc      # durable provenance: killed runs warm-start here
  sync_every 512           # WAL fsync cadence (with persist_dir)
";

/// Parses argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<Request, String> {
    let Some(cmd) = args.first() else {
        return Ok(Request::Help);
    };
    let mut spec = None;
    let mut provenance = None;
    let mut strategy = Strategy::Combined;
    let mut mode = DdtMode::FindAll;
    let mut seed = 0u64;
    let mut save_provenance = None;
    let mut method = "dataxray".to_string();
    let mut socket = None;
    let mut reserve = 0usize;
    let mut stats = false;
    let mut metrics = false;

    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--spec" => spec = Some(value(&mut i)?),
            "--provenance" => provenance = Some(value(&mut i)?),
            "--save-provenance" => save_provenance = Some(value(&mut i)?),
            "--seed" => {
                seed = value(&mut i)?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--algorithm" => strategy = value(&mut i)?.parse()?,
            "--mode" => mode = value(&mut i)?.parse()?,
            "--method" => method = value(&mut i)?,
            "--socket" => socket = Some(value(&mut i)?),
            "--reserve" => {
                reserve = value(&mut i)?
                    .parse()
                    .map_err(|_| "--reserve needs an integer".to_string())?
            }
            "--stats" => stats = true,
            "--metrics" => metrics = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }

    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Request::Help),
        "diagnose" => Ok(Request::Diagnose {
            spec: spec.ok_or("diagnose needs --spec")?,
            provenance,
            strategy,
            mode,
            seed,
            save_provenance,
            metrics,
        }),
        "explain" => Ok(Request::Explain {
            spec: spec.ok_or("explain needs --spec")?,
            provenance: provenance.ok_or("explain needs --provenance")?,
            method,
        }),
        "serve" => Ok(Request::Serve {
            socket: socket.ok_or("serve needs --socket")?,
        }),
        "connect" => Ok(Request::Connect {
            socket: socket.ok_or("connect needs --socket")?,
            spec: spec.ok_or("connect needs --spec")?,
            strategy,
            mode,
            seed,
            reserve,
            stats,
            metrics,
        }),
        other => Err(format!("unknown command {other:?} (try `bugdoc help`)")),
    }
}

/// Builds an executor from raw spec text — the factory `bugdoc serve`
/// injects into its session manager. It is the exact parse + build path the
/// one-shot `diagnose` command uses, which is one half of why a served
/// diagnosis is bit-identical to a one-shot run (the other half being
/// `BugDocConfig::front_end`). Specs with `persist_dir` give the daemon a
/// durable shared store: the first session warm-starts it, `SIGTERM`
/// syncs and releases it.
pub fn executor_factory() -> Box<bugdoc_serve::ExecutorFactory> {
    Box::new(|text: &str| {
        let spec = spec::parse_spec(text).map_err(|e| e.to_string())?;
        let seed = ProvenanceStore::new(spec.space.clone());
        open_executor(&spec, seed)
    })
}

/// The executor a spec describes, seeded with `seed`: the one place a
/// [`Spec`] becomes an [`ExecutorConfig`], shared by the one-shot
/// `diagnose` and [`executor_factory`] so the two cannot drift apart.
/// With `persist_dir` set this is the warm-start path: history already in
/// the directory is recovered and seeds the executor (recovered runs are
/// provenance hits, exactly like `--provenance` seeds), and every new
/// execution is teed to the WAL.
fn open_executor(spec: &Spec, seed: ProvenanceStore) -> Result<Executor, String> {
    let pipeline =
        CommandPipeline::new(spec.space.clone(), spec.command.clone(), spec.eval.clone());
    Executor::try_with_provenance(
        Arc::new(pipeline) as Arc<dyn Pipeline>,
        ExecutorConfig {
            workers: spec.workers,
            budget: spec.budget,
            persist: spec.persist.clone(),
        },
        seed,
    )
    .map_err(|e| e.to_string())
}

/// The daemon's shutdown flag, flipped by `SIGTERM`/`SIGINT`.
static TERM: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn note_term(_signum: i32) {
    // Only an atomic store: everything else (draining handlers, syncing
    // durable stores, releasing locks) happens on the daemon thread once it
    // observes the flag.
    TERM.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Routes `SIGTERM` and `SIGINT` to the daemon's shutdown flag and returns
/// the flag. Uses the raw libc `signal` entry point: the store above is
/// async-signal-safe, and the workspace builds offline without a signal
/// crate.
fn install_term_handler() -> &'static std::sync::atomic::AtomicBool {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, note_term as extern "C" fn(i32) as usize);
        signal(SIGINT, note_term as extern "C" fn(i32) as usize);
    }
    &TERM
}

fn load_spec(path: &str) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    spec::parse_spec(&text).map_err(|e| e.to_string())
}

fn load_provenance(spec: &Spec, path: Option<&str>) -> Result<ProvenanceStore, String> {
    match path {
        None => Ok(ProvenanceStore::new(spec.space.clone())),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            ProvenanceStore::from_tsv(spec.space.clone(), &text).map_err(|e| e.to_string())
        }
    }
}

/// Executes a request, returning the report text to print.
pub fn run(request: Request) -> Result<String, String> {
    match request {
        Request::Help => Ok(USAGE.to_string()),
        Request::Diagnose {
            spec,
            provenance,
            strategy,
            mode,
            seed,
            save_provenance,
            metrics,
        } => {
            let spec = load_spec(&spec)?;
            let prov = load_provenance(&spec, provenance.as_deref())?;
            let exec = open_executor(&spec, prov)?;
            let config = BugDocConfig::front_end(strategy, mode, seed);
            let diagnosis = diagnose(&exec, &config);
            // Nothing is evaluated past this point: sync the log's last
            // appends and release the persist directory on every exit, a
            // failed diagnosis included. A failed sync is the error to
            // report, and `--metrics` below shows the final fsync.
            exec.shutdown().map_err(|e| e.to_string())?;
            let diagnosis = diagnosis.map_err(|e| e.to_string())?;

            let mut out = diagnosis.render_causes(&spec.space);
            let stats = exec.stats();
            let _ = writeln!(
                out,
                "instances executed: {} new, {} answered from provenance",
                stats.new_executions, stats.cache_hits
            );
            // Recovery exists only when the spec asked for persistence, so
            // destructuring both (rather than expecting) stays panic-free.
            if let (Some(recovery), Some(persist)) = (exec.recovery(), spec.persist.as_ref()) {
                let _ = writeln!(
                    out,
                    "durable provenance: {} runs warm-started from {} \
                     (replayed from the log{}), new runs appended",
                    recovery.runs,
                    persist.dir.display(),
                    if recovery.truncated_bytes > 0 {
                        format!("; {} torn bytes discarded", recovery.truncated_bytes)
                    } else {
                        String::new()
                    },
                );
            }
            if let Some(path) = save_provenance {
                std::fs::write(&path, exec.provenance().to_tsv())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                let _ = writeln!(out, "provenance written to {path}");
            }
            if metrics {
                // Rendered after the diagnosis so the histograms carry this
                // run's store latencies.
                let _ = writeln!(out, "\n# telemetry (this process)");
                out.push_str(&bugdoc_telemetry::render());
                // The daemon's executor counters, under its metric names:
                // here there is exactly one executor to sum over.
                bugdoc_serve::render_executor_counters(&mut out, [stats]);
            }
            Ok(out)
        }
        Request::Serve { socket } => {
            // A live daemon answers a connect: its socket is left alone. A
            // refused connect means a file left by a dead daemon, which
            // would fail the bind, so only then (or when there is no file)
            // is the path unlinked; any other probe error is left for the
            // bind to report.
            match std::os::unix::net::UnixStream::connect(&socket) {
                Ok(_) => return Err(format!("{socket} is in use by a running daemon")),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::NotFound
                    ) =>
                {
                    let _ = std::fs::remove_file(&socket);
                }
                Err(_) => {}
            }
            let listener = std::os::unix::net::UnixListener::bind(&socket)
                .map_err(|e| format!("cannot bind {socket}: {e}"))?;
            let manager = Arc::new(bugdoc_serve::SessionManager::new(executor_factory()));
            let daemon = bugdoc_serve::Daemon::over(listener, manager);
            let summary = daemon.run(install_term_handler())?;
            let _ = std::fs::remove_file(&socket);
            Ok(format!(
                "bugdoc serve: {} connection(s) served, {} durable store(s) closed\n",
                summary.connections, summary.executors_closed
            ))
        }
        Request::Connect {
            socket,
            spec,
            strategy,
            mode,
            seed,
            reserve,
            stats,
            metrics,
        } => {
            let text = std::fs::read_to_string(&spec)
                .map_err(|e| format!("cannot read {spec}: {e}"))?;
            let mut client = bugdoc_serve::Client::connect(std::path::Path::new(&socket))?;
            let id = client.session_new()?;
            let ack = client.spec(&text, reserve)?;
            let report = client.diagnose(bugdoc_serve::DiagnoseParams {
                strategy,
                mode,
                seed,
            })?;
            let counters = client.stats()?;
            let exposition = if metrics {
                Some(client.metrics()?)
            } else {
                None
            };
            // One-shot connects don't linger: release the session (and any
            // reservation). The shared executor stays warm in the daemon.
            client.request("CLOSE")?;
            let field = |key: &str| {
                counters
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| *v)
                    .unwrap_or(0)
            };
            let mut out = report;
            let _ = writeln!(
                out,
                "instances executed: {} new, {} answered from provenance",
                field("session.new_executions"),
                field("session.cache_hits")
            );
            let _ = writeln!(
                out,
                "daemon session {id} ({ack}): shared executor holds {} runs",
                field("shared.provenance_runs")
            );
            if stats {
                let _ = writeln!(out, "\n# daemon stats");
                for (key, value) in &counters {
                    let _ = writeln!(out, "{key} {value}");
                }
            }
            if let Some(lines) = exposition {
                let _ = writeln!(out, "\n# daemon telemetry");
                for line in lines {
                    let _ = writeln!(out, "{line}");
                }
            }
            Ok(out)
        }
        Request::Explain {
            spec,
            provenance,
            method,
        } => {
            let spec = load_spec(&spec)?;
            let prov = load_provenance(&spec, Some(&provenance))?;
            let causes = match method.as_str() {
                "dataxray" => dataxray::explain(&prov, &Default::default()),
                "exptables" => exptables::explain(&prov, &Default::default()),
                other => return Err(format!("unknown method {other:?}")),
            };
            let mut out = String::new();
            let _ = writeln!(out, "{method} explanation(s) over {} runs:", prov.len());
            if causes.is_empty() {
                let _ = writeln!(out, "  (none)");
            }
            for cause in &causes {
                let _ = writeln!(out, "  {}", cause.display(&spec.space));
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_diagnose_defaults() {
        let req = parse_args(&s(&["diagnose", "--spec", "p.spec"])).unwrap();
        match req {
            Request::Diagnose {
                spec,
                strategy,
                mode,
                ..
            } => {
                assert_eq!(spec, "p.spec");
                assert_eq!(strategy, Strategy::Combined);
                assert_eq!(mode, DdtMode::FindAll);
            }
            _ => panic!("wrong request"),
        }
    }

    #[test]
    fn unknown_algorithm_and_mode_are_named() {
        assert_eq!(
            parse_args(&s(&["diagnose", "--spec", "p.spec", "--algorithm", "x"])).unwrap_err(),
            "unknown algorithm \"x\""
        );
        assert_eq!(
            parse_args(&s(&[
                "connect", "--socket", "s", "--spec", "p.spec", "--mode", "x"
            ]))
            .unwrap_err(),
            "unknown mode \"x\""
        );
    }

    #[test]
    fn parse_all_flags() {
        let req = parse_args(&s(&[
            "diagnose",
            "--spec",
            "p.spec",
            "--provenance",
            "runs.tsv",
            "--algorithm",
            "ddt",
            "--mode",
            "one",
            "--seed",
            "7",
            "--save-provenance",
            "out.tsv",
        ]))
        .unwrap();
        match req {
            Request::Diagnose {
                provenance,
                strategy,
                mode,
                seed,
                save_provenance,
                ..
            } => {
                assert_eq!(provenance.as_deref(), Some("runs.tsv"));
                assert_eq!(strategy, Strategy::DdtOnly);
                assert_eq!(mode, DdtMode::FindOne);
                assert_eq!(seed, 7);
                assert_eq!(save_provenance.as_deref(), Some("out.tsv"));
            }
            _ => panic!("wrong request"),
        }
    }

    #[test]
    fn parse_observability_flags() {
        let req = parse_args(&s(&["diagnose", "--spec", "p.spec", "--metrics"])).unwrap();
        match req {
            Request::Diagnose { metrics, .. } => assert!(metrics),
            _ => panic!("wrong request"),
        }
        let req = parse_args(&s(&[
            "connect", "--socket", "s.sock", "--spec", "p.spec", "--stats", "--metrics",
        ]))
        .unwrap();
        match req {
            Request::Connect { stats, metrics, .. } => {
                assert!(stats);
                assert!(metrics);
            }
            _ => panic!("wrong request"),
        }
        // The flags are boolean: absent means off.
        let req = parse_args(&s(&["connect", "--socket", "s.sock", "--spec", "p.spec"])).unwrap();
        match req {
            Request::Connect { stats, metrics, .. } => {
                assert!(!stats);
                assert!(!metrics);
            }
            _ => panic!("wrong request"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&s(&["diagnose"])).is_err());
        assert!(parse_args(&s(&["explain", "--spec", "x"])).is_err());
        assert!(parse_args(&s(&["diagnose", "--spec", "x", "--algorithm", "magic"])).is_err());
        assert!(parse_args(&s(&["frobnicate"])).is_err());
        assert!(parse_args(&s(&["diagnose", "--spec"])).is_err());
    }

    #[test]
    fn help_paths() {
        assert!(matches!(parse_args(&[]).unwrap(), Request::Help));
        assert!(matches!(
            parse_args(&s(&["help"])).unwrap(),
            Request::Help
        ));
        assert!(run(Request::Help).unwrap().contains("USAGE"));
    }
}
