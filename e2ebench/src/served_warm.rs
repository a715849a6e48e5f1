//! `served-warm`: an in-process `bugdoc serve` daemon on a Unix socket and
//! two closed-loop clients. Each request has the shape of `bugdoc connect`:
//! connect, `SESSION NEW`, `SPEC`, `DIAGNOSE`, `STATS`, `CLOSE`. The
//! requests cover a fixed corpus of 128 small-space synthetic specs (3–5
//! parameters of 5–8 values) × 2 fixed diagnosis seeds, shared by both
//! clients; the workload seed picks where in the corpus each client starts.
//! Set-up diagnoses every (spec, seed) pair in process, pass after pass,
//! until a whole pass runs no new execution; the executors are then handed
//! to the daemon, so the timed phase is all provenance hits and no writes,
//! and every reply must equal the set-up's final report for its pair byte
//! for byte.

use crate::measure::{median, PhaseClock, Segment};
use crate::report::{
    finish, layer_metrics, Checks, EndToEnd, EngineTotals, LogProbes, Report, ServeTotals,
    StoreTotals,
};
use crate::trace::{Attribution, TimedPipeline, Tracer, ROOT};
use crate::{mix, Args};
use bugdoc_algorithms::{diagnose, BugDocConfig, DdtMode, Strategy};
use bugdoc_core::ProvenanceStore;
use bugdoc_engine::{Executor, ExecutorConfig, Pipeline};
use bugdoc_eval::metrics::{find_all_metrics, score_assertions, PipelineScore};
use bugdoc_serve::{Client, Daemon, DiagnoseParams, SessionManager};
use bugdoc_synth::{CauseScenario, SynthConfig, SyntheticPipeline};
use std::collections::HashMap;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SPECS: usize = 128;
const SEEDS_PER_SPEC: usize = 2;
/// Concurrent closed-loop clients (one per core of a 2-core host).
const CLIENTS: usize = 2;
/// Set-ups per untraced run: the first builds the executors the daemon
/// serves; the repeats run after the timed phase, so the set-ups sample the
/// host at both ends of the run. The reported set-up time is their median.
const SETUPS: usize = 3;
/// The corpus — specs and diagnosis seeds — is fixed. With seed-drawn
/// specs CPU per request moved by ~20% between seeds, and with seed-drawn
/// diagnosis seeds one set-up took 0.9–1.5 s over four seeds.
const CORPUS_SEED: u64 = 0x5e7e_d5ec_0c0b;
/// A pass that still executes after this many is a bug, not slow warm-up.
const MAX_WARMUP_PASSES: usize = 50;

const SHAPES: [CauseScenario; 3] = [
    CauseScenario::SingleTriple,
    CauseScenario::SingleConjunction,
    CauseScenario::DisjunctionOfConjunctions,
];

/// One (spec, seed) request and what the warm executor must answer.
struct Pair {
    spec: String,
    seed: u64,
    report: String,
    score: PipelineScore,
}

struct Warm {
    executors: HashMap<String, Executor>,
    /// The counting decorators around every spec's pipeline.
    pipelines: Vec<Arc<TimedPipeline>>,
    pairs: Vec<Pair>,
    /// New executions of each pair's first, cold diagnosis.
    cold_new_executions: Vec<f64>,
    passes: usize,
}

/// Builds the executors and diagnoses every pair until a pass runs no new
/// execution.
fn warm_up(tracer: Option<&Arc<Tracer>>, probes: Option<&mut LogProbes>) -> Warm {
    let mut specs = Vec::new();
    for k in 0..SPECS {
        let spec_seed = mix(CORPUS_SEED, k as u64);
        // Sizes cycle through the 3–5 × 5–8 grid, so the corpus mixes
        // small and large spaces evenly.
        let (n_params, n_values) = (3 + k % 3, 5 + (k / 3) % 4);
        let config = SynthConfig {
            n_params: (n_params, n_params),
            n_values: (n_values, n_values),
            scenario: SHAPES[k % SHAPES.len()],
            ..SynthConfig::default()
        };
        let synth = Arc::new(SyntheticPipeline::generate(&config, spec_seed));
        let mut prov = ProvenanceStore::new(synth.space().clone());
        for (inst, eval) in synth.seed_history(2, 6, spec_seed ^ 0xfeed) {
            prov.record(inst, eval);
        }
        let timed = TimedPipeline::wrap(synth.clone(), tracer);
        let pipeline: Arc<dyn Pipeline> = timed.clone();
        let exec = Executor::with_provenance(pipeline, ExecutorConfig::default(), prov);
        specs.push((
            format!("synthetic seed={spec_seed} shape={}", k % SHAPES.len()),
            synth,
            timed,
            exec,
            spec_seed,
        ));
    }
    let mut pairs = Vec::new();
    let mut cold_new_executions = Vec::new();
    let mut passes = 0;
    loop {
        passes += 1;
        assert!(passes <= MAX_WARMUP_PASSES, "warm-up does not converge");
        pairs.clear();
        let mut executed = 0;
        for (k, (text, synth, _, exec, _)) in specs.iter().enumerate() {
            for s in 0..SEEDS_PER_SPEC {
                let diag_seed = mix(CORPUS_SEED ^ 0xd1a9, (k * SEEDS_PER_SPEC + s) as u64);
                let config =
                    BugDocConfig::front_end(Strategy::Combined, DdtMode::FindAll, diag_seed);
                let diagnosis = diagnose(exec, &config).expect("warm-up diagnosis");
                executed += diagnosis.new_executions;
                if passes == 1 {
                    cold_new_executions.push(diagnosis.new_executions as f64);
                }
                let space = exec.space();
                pairs.push(Pair {
                    spec: text.clone(),
                    seed: diag_seed,
                    report: diagnosis.render_causes(&space),
                    score: score_assertions(&space, synth.truth(), diagnosis.causes.conjuncts()),
                });
            }
        }
        if executed == 0 {
            break;
        }
    }
    if let Some(probes) = probes {
        for (_, _, _, exec, spec_seed) in &specs {
            exec.with_provenance_ref(|p| probes.probe(p, *spec_seed));
        }
    }
    let mut executors = HashMap::new();
    let mut pipelines = Vec::new();
    for (text, _, timed, exec, _) in specs {
        executors.insert(text, exec);
        pipelines.push(timed);
    }
    Warm {
        executors,
        pipelines,
        pairs,
        cold_new_executions,
        passes,
    }
}

/// Checks one reply against the pair's reference report and the session's
/// new-execution count.
fn check_reply(checks: &mut Checks, pair: &Pair, reply: &str, new_executions: u64) -> bool {
    let same = checks.expect(reply == pair.report, || {
        format!(
            "spec {:?} seed {}: reply differs from the warm-up report",
            pair.spec, pair.seed
        )
    });
    let warm = checks.expect(new_executions == 0, || {
        format!(
            "spec {:?} seed {}: {new_executions} new executions",
            pair.spec, pair.seed
        )
    });
    same && warm
}

/// Checks that no pipeline ran during the timed phase: every evaluation
/// must be answered from provenance, not re-executed.
fn check_no_runs(checks: &mut Checks, runs: usize) -> bool {
    checks.expect(runs == 0, || {
        format!("the pipelines ran {runs} times while serving a warm corpus")
    })
}

/// One timed request's client-side spans, ns.
#[derive(Default, Clone, Copy)]
struct Timing {
    connect: u64,
    bind: u64,
    rtt: u64,
    total: u64,
}

/// What one request's `STATS` reported for its session.
struct SessionStats {
    new_executions: u64,
    cache_hits: u64,
}

/// Sends one `bugdoc connect`-shaped request; returns the report and the
/// session's counters. Spans go to `trace` when given.
fn request(
    socket: &Path,
    pair: &Pair,
    tracer: &Tracer,
    trace: Option<u64>,
) -> Result<(String, SessionStats, Timing), String> {
    let mut timing = Timing::default();
    let t0 = tracer.now_ns();
    let mark = |name: &'static str, start: u64| -> u64 {
        let end = tracer.now_ns();
        if let Some(diag) = trace {
            tracer.record(diag, name, ROOT, start);
        }
        end
    };
    let mut client = Client::connect(socket)?;
    let t1 = mark("serve.connect", t0);
    client.session_new()?;
    client.spec(&pair.spec, 0)?;
    let t2 = mark("serve.bind", t1);
    let report = client.diagnose(DiagnoseParams {
        seed: pair.seed,
        ..DiagnoseParams::default()
    })?;
    let t3 = mark("serve.diagnose", t2);
    let stats = client.stats()?;
    let t4 = mark("serve.stats", t3);
    client.request("CLOSE")?;
    let t5 = mark("serve.close", t4);
    if let Some(diag) = trace {
        tracer.record(diag, ROOT, "", t0);
    }
    timing.connect = t1 - t0;
    timing.bind = t2 - t1;
    timing.rtt = t3 - t2;
    timing.total = t5 - t0;
    let field = |key: &str| {
        stats
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("STATS lacks {key}"))
    };
    let session = SessionStats {
        new_executions: field("session.new_executions")?,
        cache_hits: field("session.cache_hits")?,
    };
    Ok((report, session, timing))
}

/// Scrapes `METRICS` over the wire into `name -> value` (unlabelled samples).
fn scrape(socket: &Path) -> Result<HashMap<String, f64>, String> {
    let mut client = Client::connect(socket)?;
    let mut out = HashMap::new();
    for line in client.metrics()? {
        if line.starts_with('#') || line.contains('{') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
            if let Ok(v) = value.parse() {
                out.insert(name.to_string(), v);
            }
        }
    }
    Ok(out)
}

fn delta(after: &HashMap<String, f64>, before: &HashMap<String, f64>, name: &str) -> u64 {
    let get = |m: &HashMap<String, f64>| m.get(name).copied().unwrap_or(0.0);
    (get(after) - get(before)).max(0.0) as u64
}

#[derive(Default)]
struct ClientResult {
    checks: Checks,
    attempted: usize,
    /// Connect-to-`CLOSE` latency of untraced and traced requests, ms.
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    /// Evaluations (new executions + hits) of each untraced request.
    evaluations: Vec<f64>,
    serve: ServeTotals,
    traced: usize,
}

pub fn run(args: &Args) -> Report {
    let root = crate::work_dir("served-warm");
    let tracer = Tracer::new();
    let mut probes = LogProbes::default();
    let started = Instant::now();
    let Warm {
        executors,
        pipelines,
        pairs,
        cold_new_executions,
        passes,
    } = warm_up(
        args.trace.then_some(&tracer),
        args.trace.then_some(&mut probes),
    );
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    // Warm-up spans belong to no request.
    drop(tracer.take());
    let pipeline_runs = || pipelines.iter().map(|p| p.calls()).sum::<usize>();
    let runs_before = pipeline_runs();

    let socket: PathBuf = root.join("d.sock");
    let listener = UnixListener::bind(&socket).expect("bind the daemon socket");
    let pool = Mutex::new(executors);
    let manager = Arc::new(SessionManager::new(Box::new(move |text: &str| {
        pool.lock()
            .expect("executor pool poisoned")
            .remove(text)
            .ok_or_else(|| format!("no warm executor for spec {text:?}"))
    })));
    let shutdown = Arc::new(AtomicBool::new(false));
    let daemon = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || Daemon::over(listener, manager).run(&shutdown))
    };

    // Bind every spec once, so all executors are resident in the daemon
    // before the first scrape (METRICS sums over resident executors).
    for text in pairs.iter().map(|p| &p.spec) {
        let mut client = Client::connect(&socket).expect("connect to the daemon");
        client.session_new().expect("SESSION NEW");
        client.spec(text, 0).expect("SPEC");
        client.request("CLOSE").expect("CLOSE");
    }
    let before = scrape(&socket);
    // The workload seed picks where in the corpus the clients start.
    let offset = (args.seed % pairs.len() as u64) as usize;
    let seg = Segment::start();
    let wall_start = Instant::now();
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (socket, pairs, tracer) = (&socket, &pairs, &tracer);
                scope.spawn(move || {
                    let mut r = ClientResult::default();
                    let mut n = 0usize;
                    while wall_start.elapsed().as_secs_f64() < args.seconds {
                        let pair = &pairs[(offset + c * pairs.len() / CLIENTS + n) % pairs.len()];
                        // A traced run alternates traced and untraced requests.
                        let traced = args.trace && n % 2 == 1;
                        let diag = (c as u64) << 40 | n as u64;
                        n += 1;
                        r.attempted += 1;
                        match request(socket, pair, tracer, traced.then_some(diag)) {
                            Ok((report, session, t)) => {
                                let ok = check_reply(
                                    &mut r.checks,
                                    pair,
                                    &report,
                                    session.new_executions,
                                );
                                r.checks.tally(ok);
                                let ms = t.total as f64 / 1e6;
                                if traced {
                                    r.traced += 1;
                                    r.traced_ms.push(ms);
                                    r.serve.connect_ms += t.connect as f64 / 1e6;
                                    r.serve.bind_ms += t.bind as f64 / 1e6;
                                    r.serve.rtt_ms += t.rtt as f64 / 1e6;
                                } else {
                                    r.untraced_ms.push(ms);
                                    r.evaluations
                                        .push((session.new_executions + session.cache_hits) as f64);
                                }
                            }
                            Err(e) => r.checks.fail(format!("request failed: {e}")),
                        }
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = PhaseClock::default();
    phase.stop(seg);
    let after = scrape(&socket);
    let runs = pipeline_runs() - runs_before;

    // Self-test: a doctored reference, session count or run count must
    // each be counted as a failure.
    let mut doctored = Checks::default();
    let self_test_ok = match request(&socket, &pairs[0], &tracer, None) {
        Ok((report, session, _)) => {
            let mut fake = Pair {
                spec: pairs[0].spec.clone(),
                seed: pairs[0].seed,
                report: format!("{}  doctored\n", pairs[0].report),
                score: pairs[0].score,
            };
            let caught_report = !check_reply(&mut doctored, &fake, &report, session.new_executions);
            fake.report = pairs[0].report.clone();
            let caught_count =
                !check_reply(&mut doctored, &fake, &report, session.new_executions + 1);
            let caught_runs = !check_no_runs(&mut doctored, runs + 1);
            caught_report && caught_count && caught_runs && doctored.failures.len() == 3
        }
        Err(_) => false,
    };

    shutdown.store(true, Ordering::SeqCst);
    let summary = daemon.join().expect("daemon thread panicked");
    crate::remove_work_dir(&root);
    if !args.trace {
        for _ in 1..SETUPS {
            let started = Instant::now();
            let again = warm_up(None, None);
            setup_s.push(started.elapsed().as_secs_f64());
            drop(again);
        }
    }

    let mut checks = Checks::default();
    let no_runs = check_no_runs(&mut checks, runs);
    checks.tally(no_runs);
    let (before, after) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (b, a) => {
            checks.fail(format!(
                "METRICS scrape failed: {:?} / {:?}",
                b.err(),
                a.err()
            ));
            (HashMap::new(), HashMap::new())
        }
    };
    if let Err(e) = summary {
        checks.fail(format!("daemon failed: {e}"));
    }
    let mut all = ClientResult::default();
    for r in results {
        all.attempted += r.attempted;
        checks.failures.extend(r.checks.failures);
        checks.failed += r.checks.failed;
        all.untraced_ms.extend(r.untraced_ms);
        all.traced_ms.extend(r.traced_ms);
        all.evaluations.extend(r.evaluations);
        all.serve.connect_ms += r.serve.connect_ms;
        all.serve.bind_ms += r.serve.bind_ms;
        all.serve.rtt_ms += r.serve.rtt_ms;
        all.traced += r.traced;
    }

    let mut detail = format!(
        "served-warm: warm-up converged after {passes} passes; {} requests by {CLIENTS} clients\n",
        all.attempted
    );
    let metrics = if args.trace {
        let mut attribution = Attribution::from_spans(&tracer.take());
        // The daemon's own DIAGNOSE latency (its histogram through
        // METRICS) is server time inside the client's round trip.
        let d = |name: &str| delta(&after, &before, name);
        let count = d("bugdoc_serve_diagnose_ns_count");
        let server_ms_per = if count == 0 {
            0.0
        } else {
            d("bugdoc_serve_diagnose_ns_sum") as f64 / count as f64 / 1e6
        };
        let mut serve = all.serve;
        serve.server_ms = server_ms_per * all.traced as f64;
        attribution.split(
            "serve.diagnose",
            "algorithms.server",
            (serve.server_ms * 1e6) as u64,
        );
        detail.push_str(&attribution.table("served-warm"));
        let engine = EngineTotals {
            diagnoses: (count as usize).max(1),
            new_executions: d("bugdoc_executor_new_executions_total"),
            cache_hits: d("bugdoc_executor_cache_hits_total"),
            bounds_short_circuits: d("bugdoc_executor_bounds_short_circuits_total"),
            bounds_fallthroughs: d("bugdoc_executor_bounds_fallthroughs_total"),
            pruned_subtrees: d("bugdoc_executor_bounds_pruned_subtrees_total"),
            parallel_queries: d("bugdoc_executor_parallel_epoch_queries_total"),
            epochs_scanned: d("bugdoc_executor_epochs_scanned_total"),
        };
        layer_metrics(
            &attribution,
            (
                crate::measure::mean(&all.traced_ms),
                crate::measure::mean(&all.untraced_ms),
            ),
            &engine,
            &probes,
            StoreTotals::default(),
            &serve,
            all.traced,
        )
    } else {
        let scores: Vec<PipelineScore> = pairs.iter().map(|p| p.score).collect();
        let pr = find_all_metrics(&scores);
        EndToEnd {
            diagnose_ms: all.untraced_ms,
            phase,
            new_executions: cold_new_executions,
            evaluations: all.evaluations,
            precision: pr.precision,
            recall: pr.recall,
            setup_s: median(&mut setup_s),
        }
        .into_metrics(&mut detail)
    };
    finish(all.attempted, checks, self_test_ok, metrics, detail)
}
