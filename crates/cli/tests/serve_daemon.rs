//! End-to-end daemon test against the real `bugdoc` binary: `serve` a real
//! shell-script pipeline with durable provenance, `connect` sessions to it,
//! then `SIGTERM` it and prove the shutdown was graceful — log synced,
//! directory lock released, warm start clean.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bugdoc-serve-e2e-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The `cli_end_to_end` fixture: fails exactly when the feed is acme at
/// weekly resolution. The spec persists provenance under the workdir.
fn write_fixture(dir: &Path) -> String {
    let script = dir.join("run.sh");
    fs::write(
        &script,
        "#!/bin/sh\nif [ \"$BUGDOC_FEED\" = acme ] && [ \"$BUGDOC_RESOLUTION\" = weekly ]; then exit 1; fi\nexit 0\n",
    )
    .unwrap();
    use std::os::unix::fs::PermissionsExt;
    fs::set_permissions(&script, fs::Permissions::from_mode(0o755)).unwrap();

    let spec = dir.join("pipeline.spec");
    fs::write(
        &spec,
        format!(
            "param feed categorical internal acme datastream\n\
             param resolution categorical monthly weekly daily\n\
             param window ordinal 3 6 12\n\
             command {} \n\
             eval exit_code\n\
             workers 2\n\
             persist_dir {}\n\
             sync_every 8\n",
            script.display(),
            dir.join("prov").display()
        ),
    )
    .unwrap();
    spec.display().to_string()
}

fn bugdoc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bugdoc"))
}

/// Waits until the daemon accepts a connection on `socket`. The file
/// appears at `bind`, before the socket listens, so a connect made as soon
/// as the file exists can be refused.
fn wait_for_socket(socket: &Path, daemon: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while std::os::unix::net::UnixStream::connect(socket).is_err() {
        if let Some(status) = daemon.try_wait().unwrap() {
            panic!("daemon exited early: {status}");
        }
        assert!(Instant::now() < deadline, "daemon never listened on {socket:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn connect_report(socket: &Path, spec: &str, extra: &[&str]) -> String {
    let output = bugdoc()
        .args([
            "connect",
            "--socket",
            &socket.display().to_string(),
            "--spec",
            spec,
            "--seed",
            "3",
        ])
        .args(extra)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "connect failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap()
}

/// One raw `METRICS` scrape over the wire, as an operator's collector would
/// issue it: no session, one command line, a counted reply block.
fn scrape_metrics(socket: &Path) -> Vec<String> {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let mut stream = UnixStream::connect(socket).unwrap();
    stream.write_all(b"METRICS\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    reader.read_line(&mut head).unwrap();
    let n: usize = head
        .trim()
        .strip_prefix("OK metrics ")
        .unwrap_or_else(|| panic!("bad METRICS head {head:?}"))
        .parse()
        .unwrap();
    (0..n)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        })
        .collect()
}

/// Sends `SIGTERM` and waits for the daemon to exit, at most 20 s.
fn terminate(daemon: &mut Child) -> std::process::ExitStatus {
    let killed = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .unwrap();
    assert!(killed.success());
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            return status;
        }
        assert!(Instant::now() < deadline, "daemon ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The value of the unlabelled sample `name` in a `METRICS` scrape.
fn sample(lines: &[String], name: &str) -> f64 {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {name} sample in the scrape"))
        .parse()
        .unwrap()
}

/// `(name, value)` pairs of the monotone counter samples (`*_total` /
/// `*_count` families) in an exposition, with any label set kept as part of
/// the name so per-executor series compare like-for-like.
fn counter_samples(lines: &[String]) -> Vec<(String, f64)> {
    lines
        .iter()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(name, _)| {
            let bare = name.split('{').next().unwrap_or(name);
            bare.ends_with("_total") || bare.ends_with("_count")
        })
        .map(|(name, value)| (name.to_string(), value.parse().unwrap()))
        .collect()
}

#[test]
fn daemon_serves_shares_and_survives_sigterm() {
    let dir = workdir("sigterm");
    let spec = write_fixture(&dir);
    let socket = dir.join("bugdoc.sock");

    let mut daemon = bugdoc()
        .args(["serve", "--socket", &socket.display().to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    wait_for_socket(&socket, &mut daemon);

    // First session pays for the executions; the second shares them.
    let first = connect_report(&socket, &spec, &[]);
    assert!(
        first.contains("feed = acme") && first.contains("resolution = weekly"),
        "first report:\n{first}"
    );
    // Scrape between the sessions, exactly as a collector would.
    let scrape1 = scrape_metrics(&socket);
    let second = connect_report(&socket, &spec, &["--stats", "--metrics"]);
    assert!(
        second.contains("feed = acme") && second.contains("resolution = weekly"),
        "second report:\n{second}"
    );
    // The passthrough flags surface the daemon's counters and exposition
    // without hand-crafting protocol lines.
    assert!(second.contains("# daemon stats"), "{second}");
    assert!(second.contains("shared.new_executions "), "{second}");
    assert!(
        second.contains("bugdoc_serve_sessions_created_total"),
        "{second}"
    );
    let scrape2 = scrape_metrics(&socket);

    // The exposition parses: every line is a HELP/TYPE comment or a
    // `name[{labels}] value` sample with a finite value, and every sample
    // name was introduced by a TYPE comment earlier in the scrape.
    let mut typed: Vec<String> = Vec::new();
    for line in &scrape2 {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.push(rest.split_whitespace().next().unwrap().to_string());
            continue;
        }
        if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "malformed comment {line:?}");
            continue;
        }
        let (name, value) = line.rsplit_once(' ').unwrap();
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("bad sample {line:?}"));
        assert!(value.is_finite(), "{line:?}");
        let bare = name.split(['{', ' ']).next().unwrap();
        assert!(
            typed.iter().any(|t| bare.starts_with(t.as_str())),
            "sample {bare} has no TYPE comment: {line:?}"
        );
    }
    // Counters are monotone across the two scrapes, and the connect in
    // between moved at least one of them.
    let before = counter_samples(&scrape1);
    let after = counter_samples(&scrape2);
    let mut grew = false;
    for (name, v1) in &before {
        let Some((_, v2)) = after.iter().find(|(n, _)| n == name) else {
            panic!("counter {name} vanished between scrapes");
        };
        assert!(v2 >= v1, "counter {name} went backwards: {v1} -> {v2}");
        grew |= v2 > v1;
    }
    assert!(grew, "no counter moved across a diagnosis:\n{scrape2:?}");
    // The durable store behind this daemon records WAL append latencies.
    assert!(
        scrape2
            .iter()
            .any(|l| l.starts_with("bugdoc_store_wal_append_ns_count")),
        "{scrape2:?}"
    );
    // The served cause sections are byte-identical between sessions.
    let causes = |report: &str| {
        report
            .lines()
            .take_while(|l| !l.starts_with("instances executed:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(causes(&first), causes(&second));
    let new_of = |report: &str| -> usize {
        report
            .lines()
            .find(|l| l.starts_with("instances executed:"))
            .and_then(|l| l.split_whitespace().nth(2))
            .and_then(|n| n.parse().ok())
            .unwrap()
    };
    assert!(new_of(&first) > 0, "first session must execute:\n{first}");
    assert!(
        new_of(&second) < new_of(&first),
        "second session did not share the first's executions:\n{second}"
    );

    // SIGTERM (not SIGKILL): the daemon must drain, sync the durable
    // store, release its lock, and exit cleanly.
    let status = terminate(&mut daemon);
    assert!(status.success(), "daemon exited with {status}");
    assert!(!socket.exists(), "socket file not removed on exit");

    let prov = dir.join("prov");
    assert!(
        !prov.join("lock").exists(),
        "durable store lock not released on SIGTERM"
    );

    // The persist dir warm-starts a one-shot run: same cause, and every
    // run the daemon executed is recovered rather than re-executed.
    let output = bugdoc()
        .args(["diagnose", "--spec", &spec, "--seed", "3"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "warm start failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let warm = String::from_utf8(output.stdout).unwrap();
    assert!(
        warm.contains("feed = acme") && warm.contains("resolution = weekly"),
        "warm report:\n{warm}"
    );
    let warm_line = warm
        .lines()
        .find_map(|l| l.strip_prefix("durable provenance: "))
        .unwrap_or_else(|| panic!("no warm-start line:\n{warm}"));
    let warm_started: usize = warm_line
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparsable warm-start line: {warm_line}"));
    assert!(warm_started > 0, "nothing recovered from the daemon's store");
    assert!(
        !warm_line.contains("torn bytes"),
        "the shutdown left a torn log: {warm_line}"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// Kills and reaps a daemon process however the test exits, so a failing
/// assertion leaves no daemon behind.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A second `serve` on the path of a live daemon refuses to start instead
/// of unlinking the socket and binding a new one, which would leave the
/// first daemon unreachable for the rest of its life.
#[test]
fn second_serve_on_a_live_socket_fails_and_leaves_the_first_daemon_reachable() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::os::unix::net::UnixStream;

    let dir = workdir("in-use");
    let socket = dir.join("bugdoc.sock");
    let serve = || {
        bugdoc()
            .args(["serve", "--socket", &socket.display().to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap()
    };
    let mut first = Reaped(serve());
    wait_for_socket(&socket, &mut first.0);

    let mut second = Reaped(serve());
    let deadline = Instant::now() + Duration::from_secs(2);
    let status = loop {
        if let Some(status) = second.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "a second serve on a live daemon's socket is still running after 2 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    let mut pipe = second.0.stderr.take().unwrap();
    pipe.read_to_string(&mut stderr).unwrap();
    assert!(!status.success(), "second serve exited with {status}");
    assert!(stderr.contains("in use by a running daemon"), "{stderr}");

    // The first daemon still owns the path.
    let mut stream = UnixStream::connect(&socket).unwrap();
    stream.write_all(b"PING\n").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert_eq!(reply, "OK pong\n");

    let status = terminate(&mut first.0);
    let mut stdout = String::new();
    let mut pipe = first.0.stdout.take().unwrap();
    pipe.read_to_string(&mut stdout).unwrap();
    assert!(status.success(), "first daemon exited with {status}");
    let served: usize = stdout
        .strip_prefix("bugdoc serve: ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no summary line: {stdout:?}"));
    assert!(served >= 1, "{stdout}");
    assert!(!socket.exists(), "socket file not removed on exit");

    let _ = fs::remove_dir_all(&dir);
}

/// Sequential `bugdoc connect` runs reuse the daemon's connection
/// handlers: twenty of them, each connecting after the last one exited,
/// start at most two handler threads, where a thread per connection would
/// start twenty. The count is the daemon process's own, so no other test
/// shares it.
#[test]
fn sequential_connects_start_at_most_two_handler_threads() {
    let dir = workdir("handlers");
    let spec = write_fixture(&dir);
    let socket = dir.join("bugdoc.sock");
    let mut daemon = Reaped(
        bugdoc()
            .args(["serve", "--socket", &socket.display().to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    wait_for_socket(&socket, &mut daemon.0);
    for _ in 0..20 {
        let report = connect_report(&socket, &spec, &[]);
        assert!(report.contains("feed = acme"), "{report}");
    }
    let started = sample(
        &scrape_metrics(&socket),
        "bugdoc_serve_handlers_started_total",
    );
    let status = terminate(&mut daemon.0);
    assert!(status.success(), "daemon exited with {status}");
    assert!(
        started <= 2.0,
        "20 sequential connects started {started} handler threads"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A daemon out of file descriptors keeps serving: under `ulimit -n`, a
/// failed `accept` is counted and retried instead of shutting the daemon
/// down (which also unlinked its socket). Two adjacent limits, so that in
/// one of them `accept` itself is the call that runs out, whatever a
/// connection costs. Connections are held until one goes unanswered; once
/// they close, a fresh connection is served, `METRICS` counts the failed
/// accepts, and `SIGTERM` still ends the daemon cleanly.
#[test]
fn descriptor_exhaustion_leaves_the_daemon_serving() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    /// `PING` over `stream`; whether `OK pong` came back within its read
    /// timeout.
    fn pong(stream: &UnixStream) -> bool {
        let mut reply = String::new();
        let answered = (&*stream)
            .write_all(b"PING\n")
            .and_then(|()| BufReader::new(stream).read_line(&mut reply));
        answered.is_ok() && reply == "OK pong\n"
    }

    let dir = workdir("descriptors");
    for limit in [11, 12] {
        let socket = dir.join(format!("limit-{limit}.sock"));
        let mut daemon = Reaped(
            Command::new("sh")
                .args([
                    "-c",
                    &format!("ulimit -n {limit}; exec \"$0\" serve --socket \"$1\""),
                    env!("CARGO_BIN_EXE_bugdoc"),
                    &socket.display().to_string(),
                ])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap(),
        );
        wait_for_socket(&socket, &mut daemon.0);

        let mut held = Vec::new();
        loop {
            assert!(
                held.len() < 64,
                "64 connections answered under ulimit -n {limit}"
            );
            let stream = UnixStream::connect(&socket).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let answered = pong(&stream);
            held.push(stream);
            if !answered {
                break;
            }
        }
        assert!(
            daemon.0.try_wait().unwrap().is_none(),
            "under ulimit -n {limit} the daemon exited when connection {} went unanswered",
            held.len()
        );
        drop(held);

        let fresh = UnixStream::connect(&socket).unwrap();
        fresh
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            pong(&fresh),
            "under ulimit -n {limit} a fresh connection went unanswered"
        );
        let errors = sample(&scrape_metrics(&socket), "bugdoc_serve_accept_errors_total");
        assert!(errors >= 1.0, "under ulimit -n {limit} no accept failed");
        let status = terminate(&mut daemon.0);
        assert!(
            status.success(),
            "under ulimit -n {limit} the daemon exited with {status}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
