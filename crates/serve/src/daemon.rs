//! The daemon: connection handlers over one shared [`SessionManager`], each
//! accepting a connection on the shared listener, serving it to its end and
//! accepting the next.
//!
//! A served connection starts no thread. One count of waiting handlers
//! sizes the pool: a handler that takes a connection while no other is
//! waiting first starts one successor, so a new connection always finds a
//! handler in `accept`, and a waiting handler whose [`POLL`] expires while
//! another is also waiting retires. Threads start only when concurrency
//! grows, never outnumber the peak count of concurrent connections plus
//! one, and after a burst one waiting handler remains. The thread that
//! calls [`Daemon::run`] is the first handler.
//!
//! The daemon is built for a clean, signal-driven exit: handlers block in
//! `accept` and in reads under a receive timeout of [`POLL`], so a
//! connection or request is served the moment it arrives and every
//! handler still re-checks a caller-owned shutdown flag between waits (the
//! CLI flips it from a `SIGTERM` handler, a client can flip it with
//! `SHUTDOWN`). Only the flag ends the daemon: a failed `accept` (out of
//! descriptors, say) is counted and retried after one [`POLL`]. Only after
//! every handler has quiesced are the shared executors closed — durable
//! ones sync their write-ahead log and release their directory lock, so a
//! killed daemon warm-starts.
//!
//! Handler threads never touch files or spawn processes; everything
//! blocking-but-bounded is a socket `accept` or read with a timeout. Lint
//! rule W007 keeps it that way. A request that panics is contained in its
//! connection: the peer gets an `ERR`, its session is closed, and the
//! connection is dropped, so the daemon still reaches its shutdown.

use crate::protocol::{self, Command, MAX_LINE_BYTES};
use crate::session::{probes, SessionManager};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Scope;
use std::time::Duration;

/// How long a handler blocks in `accept` or in a read before re-checking
/// the shutdown flag. Arrivals wake handlers at once, so this bounds only
/// how fast shutdown is noticed, how long a surplus handler outlives the
/// load that started it, and the back-off after a failed `accept`.
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
        // Registers the serve counters, so a scrape lists them from the
        // start, at zero until something happens.
        probes();
        let handlers = Handlers {
            daemon: self,
            shutdown,
            waiting: AtomicUsize::new(1),
            connections: AtomicUsize::new(0),
        };
        // The calling thread is the first handler. `scope` joins every
        // handler started since: past it no request is in flight, so
        // closing the executors below is race-free.
        std::thread::scope(|scope| handlers.handle(scope));
        let executors_closed = self.manager.shutdown_all()?;
        Ok(DaemonSummary {
            connections: handlers.connections.into_inner(),
            executors_closed,
        })
    }
}

/// The daemon's connection handlers, shared by every handler thread.
struct Handlers<'d> {
    daemon: &'d Daemon,
    shutdown: &'d AtomicBool,
    /// Handlers not serving a connection: in `accept`, or on their way to
    /// it. Only a handler that finds another waiting retires, so this
    /// stays at one or more except while the last waiting handler starts
    /// its successor, or serves without one when no thread could start.
    waiting: AtomicUsize,
    /// Connections accepted so far.
    connections: AtomicUsize,
}

impl Handlers<'_> {
    /// One handler's life: accept a connection, serve it, and accept
    /// again, until the shutdown flag is set or this handler retires.
    fn handle<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>) {
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.daemon.listener.accept() {
                Ok((stream, _addr)) => {
                    self.connections.fetch_add(1, Ordering::SeqCst);
                    if self.waiting.fetch_sub(1, Ordering::SeqCst) == 1 {
                        self.start_successor(scope);
                    }
                    serve_connection(&stream, &self.daemon.manager, self.shutdown);
                    // Waiting again before `stream` drops: a peer that
                    // reconnects once it sees the close finds this handler
                    // counted, and starts no thread.
                    self.waiting.fetch_add(1, Ordering::SeqCst);
                }
                // A whole POLL without a connection: retire if another
                // handler is waiting, else check the flag again.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.retire() {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Out of descriptors, say. A pending connection stays
                // queued, so back off and accept it once one is free.
                Err(_) => {
                    probes().accept_errors.inc();
                    std::thread::sleep(POLL);
                }
            }
        }
    }

    /// Starts a handler to wait in place of this one, which took a
    /// connection as the last waiting handler. The successor counts as
    /// waiting from the start.
    fn start_successor<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>) {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        match std::thread::Builder::new().spawn_scoped(scope, move || self.handle(scope)) {
            Ok(_) => probes().handlers_started.inc(),
            // No thread to be had: new connections wait in the listen
            // queue until this handler has served its own.
            Err(_) => {
                self.waiting.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Leaves the waiting handlers, unless this one is the last: the
    /// compare-and-swap never takes the count below one.
    fn retire(&self) -> bool {
        self.waiting
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n > 1).then(|| n - 1)
            })
            .is_ok()
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
    reader: &mut BufReader<&UnixStream>,
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

fn serve_connection(stream: &UnixStream, manager: &SessionManager, shutdown: &AtomicBool) {
    // The timeout is what lets a parked handler notice shutdown.
    let _ = stream.set_read_timeout(Some(POLL));
    // One descriptor both ways: `&UnixStream` implements `Read` and `Write`.
    let mut reader = BufReader::new(stream);
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
                        // say) stays in this connection: it must not end
                        // this handler or reach the handlers' thread scope,
                        // which would skip the shutdown sync. Close the session so its
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
    reader: &mut BufReader<&UnixStream>,
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
    use std::collections::HashSet;

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
            // instead of leaving the scope waiting on the daemon.
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

    /// A connection is accepted as soon as it arrives, not at a handler's
    /// next poll, and an idle daemon still notices its shutdown flag.
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

    /// A daemon on its own thread over a fresh socket, whose factory notes
    /// the thread each bind runs on and builds no executor. Dropping it
    /// sets the flag, so a failed assertion stops the daemon instead of
    /// leaving it serving.
    struct Running {
        path: std::path::PathBuf,
        shutdown: Arc<AtomicBool>,
        finished: std::sync::mpsc::Receiver<Result<DaemonSummary, String>>,
        daemon: Option<std::thread::JoinHandle<()>>,
        binders: Arc<std::sync::Mutex<HashSet<std::thread::ThreadId>>>,
    }

    impl Running {
        fn start(name: &str) -> Running {
            let path = std::env::temp_dir()
                .join(format!("bugdoc-daemon-{name}-{}.sock", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path).unwrap();
            let binders = Arc::new(std::sync::Mutex::new(HashSet::new()));
            let seen = Arc::clone(&binders);
            let manager = Arc::new(SessionManager::new(Box::new(
                move |_: &str| -> Result<Executor, String> {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    Err("no executors here".to_string())
                },
            )));
            let shutdown = Arc::new(AtomicBool::new(false));
            let (done, finished) = std::sync::mpsc::channel();
            let flag = Arc::clone(&shutdown);
            let daemon = std::thread::spawn(move || {
                let _ = done.send(Daemon::over(listener, manager).run(&flag));
            });
            Running {
                path,
                shutdown,
                finished,
                daemon: Some(daemon),
                binders,
            }
        }

        /// Binds spec `n` on a fresh connection, then half-closes it and
        /// reads to the daemon's end of it, so the handler that served it
        /// is free again before the next connection.
        fn bind_and_close(&self, n: usize) {
            let mut stream = UnixStream::connect(&self.path).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            write!(stream, "SESSION NEW\nSPEC 1\nspec {n}\n").unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut replies = String::new();
            stream.read_to_string(&mut replies).unwrap();
            assert!(
                replies.starts_with("OK session ") && replies.contains("no executors here"),
                "{replies:?}"
            );
        }

        /// How many distinct threads the factory ran on since the last call.
        fn take_binders(&self) -> usize {
            let mut binders = self.binders.lock().unwrap();
            let threads = binders.len();
            binders.clear();
            threads
        }

        /// Sets the flag and returns `run`'s summary, which must arrive
        /// within 1 s.
        fn stop(mut self) -> DaemonSummary {
            self.shutdown.store(true, Ordering::SeqCst);
            let summary = self
                .finished
                .recv_timeout(Duration::from_secs(1))
                .expect("run did not return within 1 s of its flag");
            if let Some(daemon) = self.daemon.take() {
                daemon.join().unwrap();
            }
            summary.unwrap()
        }
    }

    impl Drop for Running {
        fn drop(&mut self) {
            self.shutdown.store(true, Ordering::SeqCst);
            let _ = std::fs::remove_file(&self.path);
        }
    }

    /// Sequential connections reuse the daemon's handlers instead of
    /// starting a thread each: forty binds, each closed before the next
    /// connects, run the factory on at most two threads (the first handler
    /// and the one successor it started).
    #[test]
    fn sequential_connections_are_served_by_at_most_two_handlers() {
        let daemon = Running::start("sequential");
        for n in 0..40 {
            daemon.bind_and_close(n);
        }
        let threads = daemon.take_binders();
        assert_eq!(daemon.stop().connections, 40);
        assert!(threads <= 2, "40 sequential binds ran on {threads} threads");
    }

    /// Handlers start as concurrency grows and retire once the daemon is
    /// idle: sixteen connections held open at once are each answered within
    /// 2 s (the handler that took each started a successor first), twenty
    /// sequential binds 100 ms after the burst closed run on at most two
    /// threads, and `run` still returns within 1 s of its flag.
    #[test]
    fn a_burst_is_answered_at_once_and_its_idle_handlers_retire() {
        let daemon = Running::start("burst");
        let mut held = Vec::new();
        while held.len() < 16 {
            let stream = UnixStream::connect(&daemon.path).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let mut reply = [0u8; 8];
            let pong = (&stream)
                .write_all(b"PING\n")
                .and_then(|()| (&stream).read_exact(&mut reply));
            assert!(
                pong.is_ok() && &reply == b"OK pong\n",
                "connection {} of 16 held open at once: {pong:?}, {:?}",
                held.len() + 1,
                String::from_utf8_lossy(&reply)
            );
            held.push(stream);
        }
        drop(held);
        std::thread::sleep(Duration::from_millis(100));
        for n in 0..20 {
            daemon.bind_and_close(n);
        }
        let threads = daemon.take_binders();
        assert_eq!(daemon.stop().connections, 36);
        assert!(
            threads <= 2,
            "20 sequential binds after the burst ran on {threads} threads"
        );
    }
}
