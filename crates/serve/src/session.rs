//! Diagnosis sessions multiplexed over shared executors.
//!
//! The [`SessionManager`] is the daemon's heart: every session that binds
//! the same spec text shares one [`Executor`] — and therefore one
//! provenance log, one budget, and one durable store. Two
//! engineers debugging the same pipeline stop paying for each other's
//! executions: whatever one session ran, the other's diagnosis answers from
//! provenance.
//!
//! Sessions outlive connections. A dropped connection *detaches* its
//! session (it can be re-attached by id); only `CLOSE` destroys a session
//! and releases its budget reservation. Executors are never evicted while
//! the daemon runs — a later session binding the same spec warm-starts from
//! everything learned so far — and are closed (WAL sync + lock release for
//! durable ones) by [`SessionManager::shutdown_all`] at daemon exit.
//!
//! Admission control: a session may ask to *reserve* part of the shared
//! execution budget when it binds its spec. The reservation is CAS-admitted
//! against the executor's budget (see `Executor::try_reserve_session`), so
//! a daemon never accepts more concurrent debugging work than the budget
//! can cover; `CLOSE` (or re-binding) returns the reservation.

use crate::protocol::DiagnoseParams;
use bugdoc_algorithms::{diagnose, BugDocConfig};
use bugdoc_engine::{ExecStats, Executor};
use bugdoc_telemetry::EventKind;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Serve-layer telemetry handles, registered once per process.
pub(crate) struct ServeProbes {
    sessions_created: &'static bugdoc_telemetry::Counter,
    sessions_closed: &'static bugdoc_telemetry::Counter,
    diagnoses: &'static bugdoc_telemetry::Counter,
    diagnose_ns: &'static bugdoc_telemetry::Histogram,
    pub(crate) handlers_started: &'static bugdoc_telemetry::Counter,
    pub(crate) accept_errors: &'static bugdoc_telemetry::Counter,
}

pub(crate) fn probes() -> &'static ServeProbes {
    static P: OnceLock<ServeProbes> = OnceLock::new();
    P.get_or_init(|| ServeProbes {
        sessions_created: bugdoc_telemetry::counter(
            "bugdoc_serve_sessions_created_total",
            "Sessions ever created by this daemon",
        ),
        sessions_closed: bugdoc_telemetry::counter(
            "bugdoc_serve_sessions_closed_total",
            "Sessions explicitly closed (detached sessions stay alive)",
        ),
        diagnoses: bugdoc_telemetry::counter(
            "bugdoc_serve_diagnoses_total",
            "DIAGNOSE requests completed, successfully or not",
        ),
        diagnose_ns: bugdoc_telemetry::histogram(
            "bugdoc_serve_diagnose_ns",
            "End-to-end latency of one DIAGNOSE request (ns)",
        ),
        handlers_started: bugdoc_telemetry::counter(
            "bugdoc_serve_handlers_started_total",
            "Connection handler threads started (each serves connections until it retires)",
        ),
        accept_errors: bugdoc_telemetry::counter(
            "bugdoc_serve_accept_errors_total",
            "Failed accepts other than timeouts and interrupts, each retried after a back-off",
        ),
    })
}

/// Whole microseconds since `started`, saturating (flight-event payload).
fn elapsed_us(started: Instant) -> u64 {
    let us = started.elapsed().as_micros();
    if us > u64::MAX as u128 { u64::MAX } else { us as u64 }
}

/// Builds an executor from raw spec text.
///
/// The daemon does not parse specs or spawn pipelines itself — the front
/// end injects its parser/builder, keeping this crate free of file and
/// process concerns (lint rule W007). The factory runs once per distinct
/// spec text; later sessions with the same text share the result.
pub type ExecutorFactory = dyn Fn(&str) -> Result<Executor, String> + Send + Sync;

/// One executor shared by every session that bound the same spec text.
struct SharedExecutor {
    exec: Executor,
    /// Sessions currently bound to this executor.
    sessions: AtomicUsize,
    /// Stable label for per-executor metrics (`executor="<index>"`), in
    /// creation order. Executors are never evicted while the daemon runs,
    /// so the label never changes or gets reused.
    index: usize,
    /// When this executor was built — per-executor uptime is the
    /// measurement substrate the idle-eviction follow-up needs.
    created_at: Instant,
}

/// A session's binding to a shared executor.
struct Bound {
    shared: Arc<SharedExecutor>,
    /// Shared-executor delta across this session's most recent `DIAGNOSE`
    /// (zero before the first one). Work other sessions did *during* that
    /// window is included — attribution on a shared executor is by time
    /// window, which is exactly what "my diagnosis cost N new executions"
    /// means when the whole point is that sessions share work.
    last: ExecStats,
    /// Budget slots this session holds via `try_reserve_session`.
    reserved: usize,
}

struct Session {
    /// Whether a connection currently drives this session.
    attached: bool,
    bound: Option<Bound>,
}

/// Outcome of binding a spec to a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecAck {
    /// True when the executor already existed (another session created it).
    pub shared: bool,
    /// Sessions bound to the executor after this bind, including this one.
    pub sessions: usize,
}

/// Create/attach/detach/close sessions and route their requests to shared
/// executors. All methods are `&self`; the manager is shared across handler
/// threads behind an `Arc`.
pub struct SessionManager {
    factory: Box<ExecutorFactory>,
    /// Spec text → the executor every matching session shares. Keyed by the
    /// trimmed text itself (not a hash), so distinct specs can never
    /// collide into sharing.
    executors: Mutex<HashMap<String, Arc<SharedExecutor>>>,
    sessions: Mutex<HashMap<u64, Session>>,
    next_id: AtomicU64,
}

impl SessionManager {
    /// A manager that builds executors with `factory`.
    pub fn new(factory: Box<ExecutorFactory>) -> Self {
        SessionManager {
            factory,
            executors: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
        }
    }

    /// Creates a fresh session, already attached to the calling connection.
    pub fn create(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        self.sessions.lock().insert(
            id,
            Session {
                attached: true,
                bound: None,
            },
        );
        probes().sessions_created.inc();
        bugdoc_telemetry::event(EventKind::SessionCreated, id, 0, 0);
        id
    }

    /// Re-binds a detached session to a connection.
    pub fn attach(&self, id: u64) -> Result<(), String> {
        let mut sessions = self.sessions.lock();
        let session = sessions
            .get_mut(&id)
            .ok_or_else(|| format!("unknown session {id}"))?;
        if session.attached {
            return Err(format!("session {id} is already attached to a connection"));
        }
        session.attached = true;
        Ok(())
    }

    /// Unbinds a session from its connection; the session (and its
    /// reservation) survives for a later `SESSION ATTACH`.
    pub fn detach(&self, id: u64) -> Result<(), String> {
        let mut sessions = self.sessions.lock();
        let session = sessions
            .get_mut(&id)
            .ok_or_else(|| format!("unknown session {id}"))?;
        session.attached = false;
        Ok(())
    }

    /// Destroys a session, releasing its budget reservation. The shared
    /// executor stays resident: its provenance keeps serving other (and
    /// future) sessions until daemon shutdown.
    pub fn close(&self, id: u64) -> Result<(), String> {
        let session = self
            .sessions
            .lock()
            .remove(&id)
            .ok_or_else(|| format!("unknown session {id}"))?;
        if let Some(bound) = session.bound {
            release_bound(&bound);
        }
        probes().sessions_closed.inc();
        bugdoc_telemetry::event(EventKind::SessionClosed, id, 0, 0);
        Ok(())
    }

    /// Binds `text` to session `id`, creating the executor on first sight
    /// of this spec and sharing it afterwards. `reserve > 0` pre-admits
    /// that many executions against the shared budget, failing the bind if
    /// the budget cannot cover them. Re-binding releases the previous
    /// binding's reservation first.
    pub fn set_spec(&self, id: u64, text: &str, reserve: usize) -> Result<SpecAck, String> {
        let key = text.trim().to_string();
        // The executors lock is held across the factory call so two
        // sessions racing on the same new spec build it exactly once.
        // Construction can be slow (durable recovery), but it is a
        // once-per-spec cost on the bind path, never the request path.
        let (shared, fresh) = {
            let mut executors = self.executors.lock();
            match executors.get(&key) {
                Some(shared) => (Arc::clone(shared), false),
                None => {
                    let exec = (self.factory)(&key)?;
                    let shared = Arc::new(SharedExecutor {
                        exec,
                        sessions: AtomicUsize::new(0),
                        // Executors are only ever added while the daemon
                        // runs, so the map size is a stable creation index.
                        index: executors.len(),
                        created_at: Instant::now(),
                    });
                    executors.insert(key, Arc::clone(&shared));
                    (shared, true)
                }
            }
        };
        // Release any previous binding *before* admission, so a rebind's
        // new reservation is judged against a budget that no longer counts
        // its old one. A refused rebind leaves the session unbound.
        {
            let mut sessions = self.sessions.lock();
            let Some(session) = sessions.get_mut(&id) else {
                return Err(format!("unknown session {id}"));
            };
            if let Some(previous) = session.bound.take() {
                release_bound(&previous);
            }
        }
        if reserve > 0 && !shared.exec.try_reserve_session(reserve) {
            return Err(format!(
                "cannot admit session {id}: the execution budget cannot cover a \
                 reservation of {reserve} (remaining: {})",
                shared
                    .exec
                    .remaining_budget()
                    .map_or("unbounded".to_string(), |n| n.to_string()),
            ));
        }
        let mut sessions = self.sessions.lock();
        let Some(session) = sessions.get_mut(&id) else {
            if reserve > 0 {
                shared.exec.release_session(reserve);
            }
            return Err(format!("unknown session {id}"));
        };
        shared.sessions.fetch_add(1, Ordering::SeqCst);
        let peers = shared.sessions.load(Ordering::SeqCst);
        bugdoc_telemetry::event(EventKind::SpecBound, id, shared.index as u64, peers as u64);
        session.bound = Some(Bound {
            shared,
            last: ExecStats::default(),
            reserved: reserve,
        });
        Ok(SpecAck {
            shared: !fresh,
            sessions: peers,
        })
    }

    /// Runs the diagnosis algorithms for session `id` over its shared
    /// executor and returns the rendered cause report — byte-for-byte the
    /// cause section a one-shot CLI run prints, by construction
    /// (`BugDocConfig::front_end` + `Diagnosis::render_causes`).
    ///
    /// No manager lock is held while the pipeline executes: the executor is
    /// cloned out under the lock, then driven lock-free, so slow pipelines
    /// never stall other sessions' control traffic.
    pub fn diagnose(&self, id: u64, params: DiagnoseParams) -> Result<String, String> {
        let shared = self.bound_executor(id)?;
        let before = shared.exec.stats();
        let config = BugDocConfig::front_end(params.strategy, params.mode, params.seed);
        let started = Instant::now();
        bugdoc_telemetry::event(EventKind::DiagnoseStart, id, 0, 0);
        let outcome = diagnose(&shared.exec, &config).map_err(|e| e.to_string());
        let delta = shared.exec.stats().since(&before);
        probes().diagnoses.inc();
        probes().diagnose_ns.record_elapsed(started);
        bugdoc_telemetry::event(
            EventKind::DiagnoseEnd,
            id,
            elapsed_us(started),
            delta.new_executions as u64,
        );
        let diagnosis = outcome?;
        if let Some(bound) = self
            .sessions
            .lock()
            .get_mut(&id)
            .and_then(|session| session.bound.as_mut())
        {
            bound.last = delta;
        }
        Ok(diagnosis.render_causes(&shared.exec.space()))
    }

    /// Session-scoped (most recent `DIAGNOSE`) and shared execution
    /// counters for session `id`, as `key value` lines.
    pub fn stats(&self, id: u64) -> Result<String, String> {
        let (shared, delta) = {
            let sessions = self.sessions.lock();
            let bound = bound_of(&sessions, id)?;
            (Arc::clone(&bound.shared), bound.last)
        };
        let total = shared.exec.stats();
        let mut out = String::new();
        // Every ExecStats counter, session delta first, then the shared
        // totals — rendered from counter_fields() so the block can never
        // drift out of parity with the one-shot CLI summary (a wire test
        // asserts the key sets match).
        for (name, value) in delta.counter_fields() {
            let _ = writeln!(out, "session.{name} {value}");
        }
        for (name, value) in total.counter_fields() {
            let _ = writeln!(out, "shared.{name} {value}");
        }
        let _ = writeln!(
            out,
            "shared.provenance_runs {}",
            shared.exec.with_provenance_ref(|prov| prov.len())
        );
        let _ = writeln!(
            out,
            "shared.sessions {}",
            shared.sessions.load(Ordering::SeqCst)
        );
        let _ = writeln!(out, "shared.reserved {}", shared.exec.session_reserved());
        if let Some(remaining) = shared.exec.remaining_budget() {
            let _ = writeln!(out, "shared.remaining_budget {remaining}");
        }
        Ok(out)
    }

    /// Renders the daemon-wide telemetry view as Prometheus text
    /// exposition: every registered metric (store timings, serve counters),
    /// the executor counters bridged at scrape time from each resident
    /// executor's [`ExecStats`], and per-executor session/run/uptime
    /// gauges. Entirely in-memory (W007:
    /// handlers never block on files), and nothing here holds a manager
    /// lock while reading executor stats.
    pub fn render_metrics(&self) -> String {
        let executors: Vec<Arc<SharedExecutor>> =
            self.executors.lock().values().map(Arc::clone).collect();
        let mut out = bugdoc_telemetry::render();
        render_executor_counters(&mut out, executors.iter().map(|shared| shared.exec.stats()));

        // Per-executor gauges: the load signals an idle-eviction policy
        // (ROADMAP follow-up) would act on. Each is a name, a help line and
        // the executor's reading.
        type Gauge<'a> = (&'a str, &'a str, &'a dyn Fn(&SharedExecutor) -> f64);
        let families: [Gauge; 3] = [
            (
                "bugdoc_serve_executor_sessions",
                "Sessions currently bound to this executor",
                &|s| s.sessions.load(Ordering::SeqCst) as f64,
            ),
            (
                "bugdoc_serve_executor_runs",
                "Provenance runs resident in this executor (seeded + executed)",
                &|s| s.exec.with_provenance_ref(|prov| prov.len()) as f64,
            ),
            (
                "bugdoc_serve_executor_uptime_seconds",
                "Seconds since this executor was built",
                &|s| s.created_at.elapsed().as_secs_f64(),
            ),
        ];
        for (name, help, value_of) in families {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for shared in &executors {
                let _ = writeln!(out, "{name}{{executor=\"{}\"}} {}", shared.index, value_of(shared));
            }
        }
        out
    }

    /// Closes every executor: durable ones sync their write-ahead log and
    /// release their directory lock (`Executor::shutdown`). Returns how
    /// many durable stores were closed.
    ///
    /// Call only after every handler thread has quiesced — a diagnosis
    /// racing past the close would find its durable store gone.
    pub fn shutdown_all(&self) -> Result<usize, String> {
        self.sessions.lock().clear();
        let executors: Vec<Arc<SharedExecutor>> =
            self.executors.lock().drain().map(|(_, s)| s).collect();
        let mut closed = 0;
        let mut failures = Vec::new();
        for shared in executors {
            match shared.exec.shutdown() {
                Ok(true) => closed += 1,
                Ok(false) => {}
                Err(e) => failures.push(e.to_string()),
            }
        }
        if failures.is_empty() {
            Ok(closed)
        } else {
            Err(failures.join("; "))
        }
    }

    /// Number of distinct executors (distinct spec texts) resident.
    pub fn executor_count(&self) -> usize {
        self.executors.lock().len()
    }

    fn bound_executor(&self, id: u64) -> Result<Arc<SharedExecutor>, String> {
        let sessions = self.sessions.lock();
        Ok(Arc::clone(&bound_of(&sessions, id)?.shared))
    }
}

fn bound_of(sessions: &HashMap<u64, Session>, id: u64) -> Result<&Bound, String> {
    sessions
        .get(&id)
        .ok_or_else(|| format!("unknown session {id}"))?
        .bound
        .as_ref()
        .ok_or_else(|| format!("session {id} has no spec bound (send SPEC first)"))
}

fn release_bound(bound: &Bound) {
    if bound.reserved > 0 {
        bound.shared.exec.release_session(bound.reserved);
    }
    bound.shared.sessions.fetch_sub(1, Ordering::SeqCst);
}

/// Appends the `bugdoc_executor_<counter>_total` family to `out`: a HELP,
/// a TYPE and a sample line per [`ExecStats::counter_fields`] entry, each
/// counter summed over `stats`. This is the scrape-time bridge the daemon's
/// `METRICS` and `bugdoc diagnose --metrics` share: the executor's counters
/// stay on their atomics (no added cost on the cache-hit path) and are
/// summed only here, over every resident executor or a one-shot run's one.
pub fn render_executor_counters(out: &mut String, stats: impl IntoIterator<Item = ExecStats>) {
    let mut totals = ExecStats::default().counter_fields();
    for stats in stats {
        for (slot, (_, value)) in totals.iter_mut().zip(stats.counter_fields()) {
            slot.1 += value;
        }
    }
    for (name, value) in totals {
        let _ = writeln!(
            out,
            "# HELP bugdoc_executor_{name}_total ExecStats::{name}, summed over resident executors"
        );
        let _ = writeln!(out, "# TYPE bugdoc_executor_{name}_total counter");
        let _ = writeln!(out, "bugdoc_executor_{name}_total {value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{EvalResult, Instance, Outcome, ParamSpace, Value};
    use bugdoc_engine::{ExecutorConfig, FnPipeline, Pipeline};

    /// A factory over a planted-cause pipeline (`a = 4` fails). The spec
    /// text is ignored except for a `budget <n>` line, so tests can bind
    /// distinct texts to get distinct executors.
    fn factory() -> Box<ExecutorFactory> {
        Box::new(|text: &str| {
            let space = ParamSpace::builder()
                .ordinal("a", [1, 2, 3, 4])
                .ordinal("b", [1, 2, 3, 4])
                .build();
            let a = space.by_name("a").unwrap();
            let pipe: Arc<dyn Pipeline> =
                Arc::new(FnPipeline::new(space, move |inst: &Instance| {
                    EvalResult::of(Outcome::from_check(inst.get(a) != &Value::from(4)))
                }));
            let budget = text
                .lines()
                .find_map(|l| l.strip_prefix("budget "))
                .map(|n| n.trim().parse().unwrap());
            Ok(Executor::new(
                pipe,
                ExecutorConfig {
                    budget,
                    ..ExecutorConfig::default()
                },
            ))
        })
    }

    #[test]
    fn same_spec_shares_one_executor() {
        let manager = SessionManager::new(factory());
        let first = manager.create();
        let second = manager.create();
        let ack = manager.set_spec(first, "pipeline one\n", 0).unwrap();
        assert_eq!(ack, SpecAck { shared: false, sessions: 1 });
        let ack = manager.set_spec(second, "pipeline one\n", 0).unwrap();
        assert_eq!(ack, SpecAck { shared: true, sessions: 2 });
        assert_eq!(manager.executor_count(), 1);

        let report_a = manager
            .diagnose(first, DiagnoseParams::default())
            .unwrap();
        let report_b = manager
            .diagnose(second, DiagnoseParams::default())
            .unwrap();
        assert_eq!(report_a, report_b, "shared history, shared verdict");
        assert!(report_a.contains("a = 4"), "{report_a}");

        // The second session's diagnosis was answered mostly from the
        // first's executions: its session-scoped delta is dominated by
        // cache hits, far below what the first session paid. (It need not
        // be exactly zero — the richer history can steer the algorithms to
        // probe a few instances the first run never needed.)
        let field = |id: u64, key: &str| -> usize {
            let stats = manager.stats(id).unwrap();
            stats
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .unwrap()
                .parse()
                .unwrap()
        };
        let first_new = field(first, "session.new_executions");
        let second_new = field(second, "session.new_executions");
        let second_hits = field(second, "session.cache_hits");
        assert!(
            second_new * 4 < first_new,
            "second session paid {second_new} vs first's {first_new}"
        );
        assert!(second_hits > 0, "no cross-session sharing observed");
    }

    #[test]
    fn distinct_specs_get_distinct_executors() {
        let manager = SessionManager::new(factory());
        let first = manager.create();
        let second = manager.create();
        manager.set_spec(first, "pipeline one\n", 0).unwrap();
        let ack = manager.set_spec(second, "pipeline two\n", 0).unwrap();
        assert_eq!(ack, SpecAck { shared: false, sessions: 1 });
        assert_eq!(manager.executor_count(), 2);
    }

    #[test]
    fn reservations_gate_admission_and_close_releases() {
        let manager = SessionManager::new(factory());
        let first = manager.create();
        let second = manager.create();
        manager.set_spec(first, "budget 10\n", 8).unwrap();
        // 8 of 10 slots are spoken for: a 5-slot session must be refused...
        let refused = manager.set_spec(second, "budget 10\n", 5);
        assert!(refused.unwrap_err().contains("cannot admit"), "admitted over budget");
        // ...and a 2-slot one admitted.
        manager.set_spec(second, "budget 10\n", 2).unwrap();
        // Closing the big session returns its slots.
        manager.close(first).unwrap();
        let third = manager.create();
        manager.set_spec(third, "budget 10\n", 8).unwrap();
    }

    #[test]
    fn rebinding_releases_the_previous_reservation() {
        let manager = SessionManager::new(factory());
        let id = manager.create();
        manager.set_spec(id, "budget 10\n", 8).unwrap();
        // Same session re-binds with a smaller ask: must not double-count.
        manager.set_spec(id, "budget 10\n", 6).unwrap();
        let other = manager.create();
        manager.set_spec(other, "budget 10\n", 4).unwrap();
    }

    #[test]
    fn attach_detach_lifecycle() {
        let manager = SessionManager::new(factory());
        let id = manager.create();
        assert!(manager.attach(id).is_err(), "double attach");
        manager.detach(id).unwrap();
        manager.attach(id).unwrap();
        assert!(manager.attach(9999).is_err());
        assert!(manager.detach(9999).is_err());
        assert!(manager.close(9999).is_err());
        manager.close(id).unwrap();
        assert!(manager.attach(id).is_err(), "closed session is gone");
    }

    #[test]
    fn requests_without_a_spec_are_errors() {
        let manager = SessionManager::new(factory());
        let id = manager.create();
        assert!(manager
            .diagnose(id, DiagnoseParams::default())
            .unwrap_err()
            .contains("no spec bound"));
        assert!(manager.stats(id).unwrap_err().contains("no spec bound"));
    }

    #[test]
    fn factory_errors_surface_to_the_binder() {
        let manager = SessionManager::new(Box::new(|_| Err("bad spec".to_string())));
        let id = manager.create();
        assert_eq!(
            manager.set_spec(id, "whatever\n", 0).unwrap_err(),
            "bad spec"
        );
        assert_eq!(manager.executor_count(), 0);
    }
}
