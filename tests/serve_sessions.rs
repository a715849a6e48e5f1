//! Multi-session daemon integration: concurrent diagnosis sessions over one
//! in-process `bugdoc serve` daemon share executions.
//!
//! The contracts under test, end to end over the wire protocol:
//!
//! * **Bit-identical reports** — every one of N concurrent sessions gets a
//!   cause report byte-for-byte equal to a one-shot in-process diagnosis of
//!   the same pipeline with the same settings.
//! * **Shared executions** — the daemon's total new executions stay far
//!   below N independent one-shot runs, and sessions observe cross-session
//!   cache hits.
//! * **Accounting invariant** — `new_executions == provenance.len() - seeded`
//!   holds on the shared executor under concurrency.
//! * **Session lifecycle** — sessions survive dropped connections (detach +
//!   re-attach), and budget reservations gate admission across sessions.

use bugdoc::pipelines::MlPipeline;
use bugdoc::prelude::*;
use bugdoc::serve::{Client, Daemon, DaemonSummary, DiagnoseParams, ExecutorFactory, SessionManager};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const SESSIONS: usize = 8;

/// Factory over the paper's Figure-1 pipeline. The only spec keyword it
/// honors is `budget <n>`, so tests can exercise admission control; the
/// rest of the text is just the sharing key.
fn ml_factory() -> Box<ExecutorFactory> {
    Box::new(|text: &str| {
        let budget = text
            .lines()
            .find_map(|l| l.strip_prefix("budget "))
            .map(|n| n.trim().parse().map_err(|_| "bad budget".to_string()))
            .transpose()?;
        Ok(Executor::new(
            Arc::new(MlPipeline::new()) as Arc<dyn Pipeline>,
            ExecutorConfig {
                budget,
                ..ExecutorConfig::default()
            },
        ))
    })
}

struct Harness {
    socket: PathBuf,
    shutdown: Arc<AtomicBool>,
    daemon: JoinHandle<Result<DaemonSummary, String>>,
}

impl Harness {
    fn start(tag: &str) -> Harness {
        let socket = std::env::temp_dir().join(format!(
            "bugdoc-serve-{tag}-{}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket).unwrap();
        let manager = Arc::new(SessionManager::new(ml_factory()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let daemon = std::thread::spawn(move || Daemon::over(listener, manager).run(&flag));
        Harness {
            socket,
            shutdown,
            daemon,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.socket).unwrap()
    }

    fn stop(self) -> DaemonSummary {
        self.shutdown.store(true, Ordering::SeqCst);
        let summary = self.daemon.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&self.socket);
        summary
    }
}

fn stat(stats: &[(String, u64)], key: &str) -> u64 {
    stats
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("missing stat {key}: {stats:?}"))
}

#[test]
fn concurrent_sessions_share_executions_and_agree_with_one_shot() {
    // One-shot baseline: the exact report and cost of diagnosing the
    // pipeline alone, with the same front-end settings the daemon uses.
    let solo_exec = (ml_factory())("ml pipeline\n").unwrap();
    let solo = diagnose(
        &solo_exec,
        &BugDocConfig::front_end(Strategy::Combined, DdtMode::FindAll, 0),
    )
    .unwrap();
    let solo_report = solo.render_causes(&solo_exec.space());
    let solo_new = solo.new_executions;
    assert!(solo_new > 0, "baseline must actually execute");

    let harness = Harness::start("share");
    let results: Vec<(String, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|_| {
                let harness = &harness;
                scope.spawn(move || {
                    let mut client = harness.client();
                    client.session_new().unwrap();
                    client.spec("ml pipeline\n", 0).unwrap();
                    let report = client.diagnose(DiagnoseParams::default()).unwrap();
                    let stats = client.stats().unwrap();
                    let new = stat(&stats, "session.new_executions");
                    let hits = stat(&stats, "session.cache_hits");
                    client.request("CLOSE").unwrap();
                    (report, new, hits)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (report, _, _) in &results {
        assert_eq!(
            report, &solo_report,
            "a served diagnosis diverged from the one-shot run"
        );
    }

    // Shared-executor accounting, read by a fresh session after the dust
    // settles.
    let mut inspector = harness.client();
    inspector.session_new().unwrap();
    inspector.spec("ml pipeline\n", 0).unwrap();
    let stats = inspector.stats().unwrap();
    let total_new = stat(&stats, "shared.new_executions");
    let total_hits = stat(&stats, "shared.cache_hits");
    let prov_runs = stat(&stats, "shared.provenance_runs");

    assert!(
        (total_new as usize) < SESSIONS * solo_new,
        "{SESSIONS} sessions paid {total_new} executions — no sharing \
         (one-shot costs {solo_new})"
    );
    assert!(total_hits > 0, "no cross-session cache hits");
    let session_new_sum: u64 = results.iter().map(|(_, n, _)| *n).sum();
    assert!(
        session_new_sum < (SESSIONS * solo_new) as u64,
        "per-session windows show no sharing: {session_new_sum}"
    );
    // Nothing seeded, so every provenance run is a counted new execution.
    assert_eq!(
        total_new, prov_runs,
        "new_executions == provenance.len() - seeded violated under concurrency"
    );

    let summary = harness.stop();
    assert_eq!(summary.connections, SESSIONS + 1);
    assert_eq!(summary.executors_closed, 0, "no durable stores here");
}

#[test]
fn sessions_survive_dropped_connections() {
    let harness = Harness::start("reattach");
    let id = {
        let mut client = harness.client();
        let id = client.session_new().unwrap();
        client.spec("ml pipeline\n", 0).unwrap();
        let report = client.diagnose(DiagnoseParams::default()).unwrap();
        assert!(report.contains("Library Version"), "{report}");
        id
        // Connection drops here without DETACH/CLOSE.
    };
    // The daemon notices the EOF and detaches the session; give it a beat.
    let mut reattached = None;
    for _ in 0..100 {
        let mut client = harness.client();
        match client.session_attach(id) {
            Ok(got) => {
                reattached = Some((client, got));
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    let (mut client, got) = reattached.expect("session was never detached");
    assert_eq!(got, id);
    // The re-attached session still remembers its bound spec.
    let stats = client.stats().unwrap();
    assert!(stat(&stats, "shared.provenance_runs") > 0);
    client.request("CLOSE").unwrap();
    harness.stop();
}

#[test]
fn reservations_gate_admission_across_the_wire() {
    let harness = Harness::start("admission");
    let spec = "budget 40\nml pipeline\n";
    let mut big = harness.client();
    big.session_new().unwrap();
    let ack = big.spec(spec, 30).unwrap();
    assert!(ack.contains("fresh"), "{ack}");

    let mut small = harness.client();
    small.session_new().unwrap();
    let refused = small.spec(spec, 20).unwrap_err();
    assert!(refused.contains("cannot admit"), "{refused}");
    // A fitting reservation is admitted on the same (still-bound) session.
    let ack = small.spec(spec, 10).unwrap();
    assert!(ack.contains("shared"), "{ack}");

    // Closing the big session frees its slots for a newcomer.
    big.request("CLOSE").unwrap();
    let mut next = harness.client();
    next.session_new().unwrap();
    next.spec(spec, 30).unwrap();
    harness.stop();
}

#[test]
fn stats_keys_mirror_exec_stats_counters_exactly() {
    let harness = Harness::start("parity");
    let mut client = harness.client();
    client.session_new().unwrap();
    client.spec("ml pipeline\n", 0).unwrap();
    client.diagnose(DiagnoseParams::default()).unwrap();
    let stats = client.stats().unwrap();

    // Every ExecStats counter appears in both windows — the three
    // `bounds_*` counters included, so the daemon view can never silently
    // lag the one-shot CLI summary.
    let counters = bugdoc::engine::ExecStats::default().counter_fields();
    for (name, _) in counters {
        stat(&stats, &format!("session.{name}"));
        stat(&stats, &format!("shared.{name}"));
    }
    // And the other direction: every wire key is either a counter field or
    // one of the declared shared-lifecycle extras, so a field added to
    // ExecStats::counter_fields (or a stray renderer line) breaks parity
    // loudly here rather than drifting.
    const EXTRAS: &[&str] = &[
        "shared.provenance_runs",
        "shared.sessions",
        "shared.reserved",
        "shared.remaining_budget",
    ];
    for (key, _) in &stats {
        let known = EXTRAS.contains(&key.as_str())
            || counters.iter().any(|(name, _)| {
                key == &format!("session.{name}") || key == &format!("shared.{name}")
            });
        assert!(known, "unexpected stats key {key:?}");
    }
    client.request("CLOSE").unwrap();
    harness.stop();
}

#[test]
fn metrics_and_flight_surface_a_diagnosis() {
    let harness = Harness::start("metrics");
    let mut client = harness.client();
    client.session_new().unwrap();
    client.spec("ml pipeline\n", 0).unwrap();
    client.diagnose(DiagnoseParams::default()).unwrap();

    let metrics = client.metrics().unwrap();
    assert!(!metrics.is_empty(), "empty exposition");
    for line in &metrics {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "malformed comment line {line:?}"
            );
            continue;
        }
        // Samples are `name[{labels}] value` with a finite numeric value.
        let (_, value) = line.rsplit_once(' ').expect("sample line without value");
        let parsed: f64 = value.parse().unwrap_or_else(|_| {
            panic!("non-numeric sample value in {line:?}")
        });
        assert!(parsed.is_finite(), "{line:?}");
    }
    let sample_value = |name: &str| {
        metrics
            .iter()
            .filter(|l| !l.starts_with('#'))
            .find(|l| l.split([' ', '{']).next() == Some(name))
            .and_then(|l| l.rsplit_once(' '))
            .map(|(_, v)| v.parse::<f64>().unwrap())
            .unwrap_or_else(|| panic!("metric {name} missing: {metrics:?}"))
    };
    // The scrape-time executor bridge: counters summed over resident
    // executors, under the names ExecStats::counter_fields declares.
    assert!(sample_value("bugdoc_executor_new_executions_total") > 0.0);
    // The serve session lifecycle counters and the diagnosis histogram.
    assert!(sample_value("bugdoc_serve_sessions_created_total") >= 1.0);
    assert!(sample_value("bugdoc_serve_diagnose_ns_count") >= 1.0);
    // Per-executor gauges carry an executor label.
    assert!(
        metrics
            .iter()
            .any(|l| l.starts_with("bugdoc_serve_executor_sessions{executor=")),
        "{metrics:?}"
    );

    let flight = client.flight().unwrap();
    let kinds: Vec<&str> = flight
        .iter()
        .map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(fields.len(), 6, "malformed flight line {l:?}");
            fields[2]
        })
        .collect();
    for kind in ["session_created", "spec_bound", "diagnose_start", "diagnose_end"] {
        assert!(kinds.contains(&kind), "no {kind} event: {flight:?}");
    }
    // Sequence numbers come back oldest-first and strictly increasing.
    let seqs: Vec<u64> = flight
        .iter()
        .map(|l| l.split_whitespace().next().unwrap().parse().unwrap())
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");

    client.request("CLOSE").unwrap();
    harness.stop();
}

#[test]
fn shutdown_command_drains_the_daemon() {
    let harness = Harness::start("shutdown");
    let mut client = harness.client();
    let reply = client.request("SHUTDOWN").unwrap();
    assert_eq!(reply.head, "shutting-down");
    // The daemon exits on its own; stop() then just joins it.
    let summary = harness.daemon.join().unwrap().unwrap();
    assert_eq!(summary.connections, 1);
    let _ = std::fs::remove_file(&harness.socket);
}
