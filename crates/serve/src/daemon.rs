//! The daemon: a Unix-domain-socket accept loop fanning connections out to
//! per-connection handler threads over one shared [`SessionManager`].
//!
//! The loop is built for a clean, signal-driven exit: the accept loop
//! blocks in `accept` under a receive timeout, so a connection is accepted
//! the moment it arrives and an idle loop still wakes every [`POLL`] to
//! check a caller-owned shutdown flag (the CLI flips it from a `SIGTERM`
//! handler, a client can flip it with `SHUTDOWN`). Handlers read with the
//! same timeout so they observe the flag between requests, and only after
//! every handler has quiesced are the shared executors closed — durable
//! ones sync their write-ahead log and release their directory lock, so a
//! killed daemon warm-starts.
//!
//! Handler threads never touch files or spawn processes; everything
//! blocking-but-bounded is a socket read with a timeout. Lint rule W007
//! keeps it that way. A request that panics is contained in its
//! connection: the peer gets an `ERR`, its session is closed, and the
//! connection is dropped, so the daemon still reaches its shutdown.

use crate::protocol::{self, Command, MAX_LINE_BYTES};
use crate::session::SessionManager;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long the accept loop and a handler block waiting for a connection
/// or for data before re-checking the shutdown flag. Arrivals wake them at
/// once, so this bounds only how fast shutdown is noticed.
const POLL: Duration = Duration::from_millis(20);

/// A running `bugdoc serve` daemon (minus the socket binding and signal
/// handling, which belong to the front end).
pub struct Daemon {
    listener: UnixListener,
    manager: Arc<SessionManager>,
}

/// What a daemon did over its lifetime, reported at exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonSummary {
    /// Connections accepted.
    pub connections: usize,
    /// Durable stores synced and closed at shutdown.
    pub executors_closed: usize,
}

impl Daemon {
    /// A daemon serving `listener` with sessions managed by `manager`.
    pub fn over(listener: UnixListener, manager: Arc<SessionManager>) -> Daemon {
        Daemon { listener, manager }
    }

    /// The shared session manager (for in-process inspection in tests).
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// Serves until `shutdown` is set (by a signal handler, another thread,
    /// or a client's `SHUTDOWN`), then drains handlers and closes every
    /// shared executor. Blocks the calling thread for the daemon's life.
    pub fn run(&self, shutdown: &AtomicBool) -> Result<DaemonSummary, String> {
        self.listener
            .set_nonblocking(false)
            .map_err(|e| format!("cannot block on the listener: {e}"))?;
        // Linux applies SO_RCVTIMEO to accept(2) (socket(7)). std sets it
        // only through a stream, so set it through a stream view of a
        // duplicate descriptor: the option belongs to the socket, and
        // outlives the view.
        self.listener
            .try_clone()
            .and_then(|dup| UnixStream::from(OwnedFd::from(dup)).set_read_timeout(Some(POLL)))
            .map_err(|e| format!("cannot set the accept timeout: {e}"))?;
        let connections = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            while !shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _addr)) => {
                        connections.fetch_add(1, Ordering::SeqCst);
                        let manager = Arc::clone(&self.manager);
                        scope.spawn(move || serve_connection(stream, &manager, shutdown));
                    }
                    // The timeout expired: check the flag again.
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    // Listener torn down under us (socket unlinked): drain.
                    Err(_) => break,
                }
            }
            // Make handlers exit promptly even when the accept loop broke
            // on a listener error rather than the flag.
            shutdown.store(true, Ordering::SeqCst);
            // `scope` joins every handler here: past this point no request
            // is in flight, so closing the executors below is race-free.
        });
        let executors_closed = self.manager.shutdown_all()?;
        Ok(DaemonSummary {
            connections: connections.load(Ordering::SeqCst),
            executors_closed,
        })
    }
}

enum ReadLine {
    /// A complete (or EOF-terminated) line is in the buffer.
    Line,
    /// Clean end of stream.
    Eof,
    /// Shutdown, oversized line, or a hard socket error: drop the peer.
    Dead,
}

/// Reads one `\n`-terminated line into `buf`, tolerating read timeouts (the
/// partial prefix accumulates across them) so the shutdown flag is polled
/// between waits. The caller owns clearing `buf` between lines.
///
/// Every read is capped so `buf` never holds more than `MAX_LINE_BYTES + 1`
/// bytes: a peer that streams without a newline is dropped once it reaches
/// the cap, however it paces its writes.
fn read_wire_line(
    reader: &mut BufReader<UnixStream>,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> ReadLine {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return ReadLine::Dead;
        }
        let room = (MAX_LINE_BYTES + 1).saturating_sub(buf.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', buf) {
            Ok(_) if buf.last() == Some(&b'\n') => return ReadLine::Line,
            Ok(_) if buf.len() > MAX_LINE_BYTES => return ReadLine::Dead,
            Ok(0) if buf.is_empty() => return ReadLine::Eof,
            // End of stream after a final unterminated line.
            Ok(_) => return ReadLine::Line,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadLine::Dead,
        }
    }
}

fn serve_connection(stream: UnixStream, manager: &SessionManager, shutdown: &AtomicBool) {
    // The timeout is what lets a parked handler notice shutdown.
    let _ = stream.set_read_timeout(Some(POLL));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut session: Option<u64> = None;

    let mut buf = Vec::new();
    loop {
        buf.clear();
        match read_wire_line(&mut reader, &mut buf, shutdown) {
            ReadLine::Line => {}
            ReadLine::Eof | ReadLine::Dead => break,
        }
        let line = String::from_utf8_lossy(&buf).into_owned();
        let reply = match protocol::parse_command(&line) {
            Err(e) => protocol::render_err(&e),
            Ok(command) => {
                let handled = panic::catch_unwind(AssertUnwindSafe(|| {
                    dispatch(command, manager, &mut session, &mut reader, shutdown)
                }));
                match handled {
                    Ok(Some(reply)) => reply,
                    Ok(None) => break,
                    Err(_) => {
                        // A panic inside a request (a pipeline's `execute`,
                        // say) stays in this connection: it must not reach
                        // the accept loop's thread scope, which would skip
                        // the shutdown sync. Close the session so its
                        // budget reservation is released, and drop the peer.
                        if let Some(id) = session.take() {
                            let _ = manager.close(id);
                        }
                        let reply = protocol::render_err("internal error: the request panicked");
                        let _ = writer.write_all(reply.as_bytes());
                        break;
                    }
                }
            }
        };
        if writer.write_all(reply.as_bytes()).is_err() || writer.flush().is_err() {
            break;
        }
    }
    // The connection is gone but the session survives: detach, not close.
    // A reconnecting client continues it with `SESSION ATTACH`.
    if let Some(id) = session {
        let _ = manager.detach(id);
    }
}

/// Executes one command; `None` means the peer vanished mid-request and the
/// connection should be dropped without a reply.
fn dispatch(
    command: Command,
    manager: &SessionManager,
    session: &mut Option<u64>,
    reader: &mut BufReader<UnixStream>,
    shutdown: &AtomicBool,
) -> Option<String> {
    let reply = match command {
        Command::Ping => "OK pong\n".to_string(),
        Command::SessionNew => match *session {
            Some(id) => {
                protocol::render_err(&format!("this connection drives session {id} (DETACH first)"))
            }
            None => {
                let id = manager.create();
                *session = Some(id);
                format!("OK session {id}\n")
            }
        },
        Command::SessionAttach(id) => match *session {
            Some(bound) => protocol::render_err(&format!(
                "this connection drives session {bound} (DETACH first)"
            )),
            None => match manager.attach(id) {
                Ok(()) => {
                    *session = Some(id);
                    format!("OK session {id}\n")
                }
                Err(e) => protocol::render_err(&e),
            },
        },
        Command::Spec { lines, reserve } => {
            // The counted block must be consumed even if the bind will be
            // refused, or the stream desynchronizes.
            let mut text = String::new();
            let mut buf = Vec::new();
            for _ in 0..lines {
                buf.clear();
                match read_wire_line(reader, &mut buf, shutdown) {
                    ReadLine::Line => {
                        text.push_str(&String::from_utf8_lossy(&buf));
                        if !text.ends_with('\n') {
                            text.push('\n');
                        }
                    }
                    ReadLine::Eof | ReadLine::Dead => return None,
                }
            }
            match *session {
                None => protocol::render_err("no session (SESSION NEW first)"),
                Some(id) => match manager.set_spec(id, &text, reserve) {
                    Ok(ack) => format!(
                        "OK spec {} sessions={}\n",
                        if ack.shared { "shared" } else { "fresh" },
                        ack.sessions
                    ),
                    Err(e) => protocol::render_err(&e),
                },
            }
        }
        Command::Diagnose(params) => match *session {
            None => protocol::render_err("no session (SESSION NEW first)"),
            Some(id) => match manager.diagnose(id, params) {
                Ok(report) => protocol::render_block("report", &report),
                Err(e) => protocol::render_err(&e),
            },
        },
        Command::Stats => match *session {
            None => protocol::render_err("no session (SESSION NEW first)"),
            Some(id) => match manager.stats(id) {
                Ok(body) => protocol::render_block("stats", &body),
                Err(e) => protocol::render_err(&e),
            },
        },
        // Daemon-wide observability: no session needed, so an operator's
        // scraper can poll without joining the session lifecycle.
        Command::Metrics => protocol::render_block("metrics", &manager.render_metrics()),
        Command::Flight => protocol::render_block("flight", &protocol::render_flight()),
        Command::Detach => match session.take() {
            None => protocol::render_err("no session to detach"),
            Some(id) => match manager.detach(id) {
                Ok(()) => "OK detached\n".to_string(),
                Err(e) => protocol::render_err(&e),
            },
        },
        Command::Close => match session.take() {
            None => protocol::render_err("no session to close"),
            Some(id) => match manager.close(id) {
                Ok(()) => "OK closed\n".to_string(),
                Err(e) => protocol::render_err(&e),
            },
        },
        Command::Shutdown => {
            // Reply first (the caller writes it), then the read loop sees
            // the flag and winds the connection down.
            shutdown.store(true, Ordering::SeqCst);
            "OK shutting-down\n".to_string()
        }
    };
    Some(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use bugdoc_engine::Executor;

    /// A peer that streams bytes without ever sending a newline is dropped
    /// once it passes the line cap, instead of growing the line buffer for
    /// as long as it keeps writing; a new connection is still served.
    #[test]
    fn endless_line_drops_the_peer_and_the_daemon_keeps_serving() {
        let path =
            std::env::temp_dir().join(format!("bugdoc-daemon-endless-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let manager = Arc::new(SessionManager::new(Box::new(
            |_: &str| -> Result<Executor, String> { Err("no executors here".to_string()) },
        )));
        let shutdown = AtomicBool::new(false);
        let (streamed, pong) = std::thread::scope(|scope| {
            let flag = &shutdown;
            let daemon = scope.spawn(move || Daemon::over(listener, manager).run(flag));

            let mut hostile = UnixStream::connect(&path).unwrap();
            let chunk = vec![b'x'; 64 * 1024];
            let streamed = (0..128).try_for_each(|_| hostile.write_all(&chunk));
            let pong = Client::connect(&path).and_then(|mut client| client.request("PING"));

            // Stop the daemon before asserting, so a failure reports
            // instead of leaving the scope waiting on the accept loop.
            shutdown.store(true, Ordering::SeqCst);
            daemon.join().unwrap().unwrap();
            (streamed, pong)
        });
        let _ = std::fs::remove_file(&path);
        assert!(
            streamed.is_err(),
            "8 MiB without a newline went through: the daemon never dropped the peer"
        );
        assert_eq!(pong.unwrap().head, "pong");
    }

    /// A connection is accepted as soon as it arrives, not at the accept
    /// loop's next poll, and an idle daemon still notices its shutdown flag.
    /// The daemon reports over a channel and is joined only once it has, so
    /// an `accept` that ignored its timeout fails the test instead of
    /// hanging it.
    #[test]
    fn fresh_connections_are_accepted_without_waiting_for_a_poll() {
        use std::sync::mpsc;
        use std::time::Instant;

        let path =
            std::env::temp_dir().join(format!("bugdoc-daemon-fresh-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let manager = Arc::new(SessionManager::new(Box::new(
            |_: &str| -> Result<Executor, String> { Err("no executors here".to_string()) },
        )));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (done, finished) = mpsc::channel();
        let flag = Arc::clone(&shutdown);
        let daemon = std::thread::spawn(move || {
            let _ = done.send(Daemon::over(listener, manager).run(&flag));
        });

        let start = Instant::now();
        let pongs: Result<Vec<_>, String> = (0..20)
            .map(|_| Client::connect(&path).and_then(|mut client| client.request("PING")))
            .collect();
        let round_trips = start.elapsed();

        let stop = Instant::now();
        shutdown.store(true, Ordering::SeqCst);
        let summary = finished.recv_timeout(Duration::from_secs(1));
        let stopped = stop.elapsed();
        let _ = std::fs::remove_file(&path);
        assert!(pongs.unwrap().iter().all(|reply| reply.head == "pong"));
        assert!(
            round_trips < Duration::from_millis(200),
            "20 connect + PING round trips took {round_trips:?}: accepts wait for a poll"
        );
        let summary = summary
            .unwrap_or_else(|_| panic!("an idle daemon ignored its shutdown flag for {stopped:?}"));
        daemon.join().unwrap();
        assert_eq!(summary.unwrap().connections, 20);
    }

    /// A pipeline that panics inside `DIAGNOSE` costs its own connection
    /// only: the peer gets `ERR` (or a dropped connection), the daemon keeps
    /// serving, and shutdown still closes the durable store, so the log is
    /// synced and the directory lock released.
    #[test]
    fn panicking_request_is_contained_and_shutdown_still_closes_the_store() {
        use bugdoc_core::{EvalResult, Instance, ParamSpace};
        use bugdoc_engine::{ExecutorConfig, FnPipeline, PersistConfig, Pipeline};

        let tag = format!("bugdoc-daemon-panic-{}", std::process::id());
        let path = std::env::temp_dir().join(format!("{tag}.sock"));
        let dir = std::env::temp_dir().join(tag);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
        let listener = UnixListener::bind(&path).unwrap();
        let persist_dir = dir.clone();
        let manager = Arc::new(SessionManager::new(Box::new(move |_: &str| {
            let space = ParamSpace::builder()
                .ordinal("a", [1, 2, 3])
                .ordinal("b", [1, 2, 3])
                .build();
            let pipe: Arc<dyn Pipeline> =
                Arc::new(FnPipeline::new(space, |_: &Instance| -> EvalResult {
                    panic!("pipeline crashed")
                }));
            Executor::try_new(
                pipe,
                ExecutorConfig {
                    persist: Some(PersistConfig::new(&persist_dir)),
                    ..ExecutorConfig::default()
                },
            )
            .map_err(|e| e.to_string())
        })));
        let shutdown = AtomicBool::new(false);
        let (diagnosed, pong, summary) = std::thread::scope(|scope| {
            let flag = &shutdown;
            let daemon = scope.spawn(move || Daemon::over(listener, manager).run(flag));

            let mut client = Client::connect(&path).unwrap();
            client.session_new().unwrap();
            client.spec("pipeline\n", 0).unwrap();
            let diagnosed = client.request("DIAGNOSE");
            let pong = Client::connect(&path).and_then(|mut client| client.request("PING"));

            shutdown.store(true, Ordering::SeqCst);
            (diagnosed, pong, daemon.join())
        });
        let _ = std::fs::remove_file(&path);
        let lock_left = dir.join("lock").exists();
        let _ = std::fs::remove_dir_all(&dir);
        match diagnosed {
            Err(e) => assert!(
                e.contains("internal error") || e.contains("closed the connection"),
                "{e}"
            ),
            Ok(reply) => panic!("a panicking pipeline answered {reply:?}"),
        }
        assert_eq!(pong.unwrap().head, "pong");
        let summary = summary.expect("Daemon::run panicked").unwrap();
        assert_eq!(summary.executors_closed, 1);
        assert!(!lock_left, "shutdown left the directory lock behind");
    }
}
