//! The measurement loop shared by the in-process workloads (`paper-synth`,
//! `deep-history`): a stream of diagnoses, each on a fresh executor, with
//! output checks, a fixed reference prefix for the exact metrics, and, in a
//! traced run, every input diagnosed untraced and then traced so the
//! tracing overhead is measured on identical work.

use crate::measure::{median, PhaseClock, Segment};
use crate::report::{
    accounting_holds, finish, layer_metrics, Checks, EndToEnd, EngineTotals, LogProbes, Report,
    ServeTotals, StoreTotals,
};
use crate::trace::{Attribution, Tracer};
use crate::Args;
use bugdoc_engine::ExecStats;
use bugdoc_eval::metrics::{find_all_metrics, PipelineScore};
use std::sync::Arc;
use std::time::Instant;

/// One finished diagnosis, as a workload reports it to the loop.
#[derive(Clone)]
pub struct Done {
    /// Wall time of the whole request (executor construction or recovery
    /// included), s.
    pub request_s: f64,
    /// Wall time of the `diagnose` call alone, ms.
    pub diagnose_ms: f64,
    /// The rendered cause report.
    pub report: String,
    /// `Diagnosis::new_executions`.
    pub new_executions: usize,
    /// `execute` calls the pipeline saw during the request.
    pub executions: usize,
    /// Runs in the log before the diagnosis (seeded or recovered) and after.
    pub log_before: usize,
    pub log_after: usize,
    pub stats: ExecStats,
    pub score: PipelineScore,
}

/// An in-process workload: an endless, seeded stream of inputs.
pub trait Workload {
    const NAME: &'static str;
    /// The first `REFERENCE` inputs are always diagnosed; the exact metrics
    /// (new executions, evaluations, precision, recall) are computed over
    /// them.
    const REFERENCE: usize;
    /// A run ends on a multiple of this many inputs, so a workload that
    /// cycles through a fixed set weighs every member equally.
    const CYCLE: usize = 1;
    /// Set-ups per untraced run. The first builds the inputs; the repeats,
    /// on identical inputs, are spread evenly over the timed phase, so they
    /// sample the host over the whole run as the diagnoses do. The
    /// reported set-up time is their median.
    const SETUPS: usize;

    /// Repeats the set-up on identical inputs; returns its wall time, s.
    fn repeat_setup(&mut self) -> f64;

    /// Diagnoses input `i`. With a tracer, records spans under `diag_id`
    /// (including the root span) and runs the log probes afterwards.
    fn diagnose(
        &mut self,
        i: usize,
        diag_id: u64,
        trace: Option<(&Arc<Tracer>, &mut LogProbes)>,
    ) -> Result<Done, String>;

    /// Store-layer figures gathered over the traced diagnoses.
    fn store_totals(&self) -> StoreTotals {
        StoreTotals::default()
    }
}

/// Checks one diagnosis against the accounting invariants (each new
/// execution is one pipeline run and adds one run to the log) and, when
/// given, the reference diagnosis of the same input.
pub fn check_done(checks: &mut Checks, i: usize, done: &Done, reference: Option<&Done>) -> bool {
    let accounting = checks.expect(
        accounting_holds(done.new_executions, done.log_after, done.log_before),
        || {
            format!(
                "input {i}: {} new executions but the log grew from {} to {}",
                done.new_executions, done.log_before, done.log_after
            )
        },
    );
    let executed = checks.expect(done.executions == done.new_executions, || {
        format!(
            "input {i}: the pipeline ran {} times for {} new executions",
            done.executions, done.new_executions
        )
    });
    let same = match reference {
        None => true,
        Some(r) => checks.expect(
            r.report == done.report && r.new_executions == done.new_executions,
            || format!("input {i}: a repeated diagnosis diverged from the first"),
        ),
    };
    accounting && executed && same
}

/// Proves the checks are live: a doctored reference report, a doctored log
/// length and a doctored pipeline run count must each be counted as a
/// failure.
pub fn self_test(first: &Done) -> bool {
    let mut doctored_report = first.clone();
    doctored_report.report.push_str("doctored\n");
    let mut doctored_log = first.clone();
    doctored_log.log_after += 1;
    let mut doctored_runs = first.clone();
    doctored_runs.executions += 1;
    let mut checks = Checks::default();
    check_done(&mut checks, 0, first, Some(&doctored_report));
    check_done(&mut checks, 0, &doctored_log, None);
    check_done(&mut checks, 0, &doctored_runs, None);
    checks.failures.len() == 3
}

/// Runs workload `w`, whose first set-up took `first_setup_s`.
pub fn run<W: Workload>(w: &mut W, args: &Args, first_setup_s: f64) -> Report {
    let mut checks = Checks::default();
    let mut refs: Vec<Done> = Vec::with_capacity(W::REFERENCE);
    let mut attempted = 0;
    let mut diagnose_ms = Vec::new();
    let mut phase = PhaseClock::default();
    let tracer = Tracer::new();
    let mut probes = LogProbes::default();
    let mut engine = EngineTotals::default();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let repeats = if args.trace { 0 } else { W::SETUPS - 1 };
    let mut setup_s = vec![first_setup_s];
    // Time the set-up repeats take inside the timed phase.
    let mut repeated = PhaseClock::default();
    let started = Instant::now();
    let seg = Segment::start();
    let mut i = 0;
    // An untraced run always covers the reference prefix; then it runs
    // until the time is up and a cycle is complete.
    while (!args.trace && i < W::REFERENCE)
        || started.elapsed().as_secs_f64() < args.seconds
        || i % W::CYCLE != 0
    {
        attempted += 1;
        let diag_id = 2 * i as u64 + 1;
        let done = match w.diagnose(i, diag_id, None) {
            Ok(done) => done,
            Err(e) => {
                checks.fail(format!("input {i}: {e}"));
                i += 1;
                continue;
            }
        };
        let ok = check_done(&mut checks, i, &done, None);
        checks.tally(ok);
        if args.trace {
            attempted += 1;
            match w.diagnose(i, diag_id + 1, Some((&tracer, &mut probes))) {
                Ok(traced) => {
                    let ok = check_done(&mut checks, i, &traced, Some(&done));
                    checks.tally(ok);
                    untraced_s += done.request_s;
                    traced_s += traced.request_s;
                    engine.add(&traced.stats);
                }
                Err(e) => checks.fail(format!("input {i} (traced): {e}")),
            }
        } else {
            diagnose_ms.push(done.diagnose_ms);
        }
        if i < W::REFERENCE {
            refs.push(done);
        }
        i += 1;
        // Repeat `k` is due `k / (repeats + 1)` of the way through.
        let k = setup_s.len();
        if k <= repeats
            && started.elapsed().as_secs_f64() * (repeats + 1) as f64 >= args.seconds * k as f64
        {
            let seg = Segment::start();
            setup_s.push(w.repeat_setup());
            repeated.stop(seg);
        }
    }
    phase.stop(seg);
    phase.wall_s -= repeated.wall_s;
    phase.cpu_s -= repeated.cpu_s;
    while setup_s.len() <= repeats {
        setup_s.push(w.repeat_setup());
    }

    // Determinism: the first input, diagnosed again, must reproduce itself.
    if let Some(first) = refs.first() {
        attempted += 1;
        match w.diagnose(0, 0, None) {
            Ok(again) => {
                let ok = check_done(&mut checks, 0, &again, Some(first));
                checks.tally(ok);
            }
            Err(e) => checks.fail(format!("input 0 (repeat): {e}")),
        }
    }
    let self_test_ok = refs.first().is_some_and(self_test);

    let mut detail = String::new();
    let metrics = if args.trace {
        let attribution = Attribution::from_spans(&tracer.take());
        detail.push_str(&attribution.table(W::NAME));
        let n = engine.diagnoses.max(1) as f64;
        layer_metrics(
            &attribution,
            (traced_s / n, untraced_s / n),
            &engine,
            &probes,
            w.store_totals(),
            &ServeTotals::default(),
            engine.diagnoses,
        )
    } else {
        let scores: Vec<PipelineScore> = refs.iter().map(|d| d.score).collect();
        let pr = find_all_metrics(&scores);
        detail.push_str(&format!(
            "{}: {} diagnoses in {:.2} s timed; exact metrics over the first {}\n",
            W::NAME,
            diagnose_ms.len(),
            phase.wall_s,
            refs.len()
        ));
        EndToEnd {
            diagnose_ms,
            phase,
            new_executions: refs.iter().map(|d| d.new_executions as f64).collect(),
            evaluations: refs
                .iter()
                .map(|d| (d.stats.new_executions + d.stats.cache_hits) as f64)
                .collect(),
            precision: pr.precision,
            recall: pr.recall,
            setup_s: median(&mut setup_s),
        }
        .into_metrics(&mut detail)
    };
    finish(
        attempted,
        checks,
        self_test_ok && (args.trace || refs.len() == W::REFERENCE),
        metrics,
        detail,
    )
}
