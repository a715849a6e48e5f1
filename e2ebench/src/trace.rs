//! Benchmark-side tracing: spans recorded around calls into each layer's
//! public functions, kept in memory, and reduced to per-layer self time at
//! the end of the run.
//!
//! Every span belongs to one diagnosis (`diag`) and names its parent span,
//! so a layer's self time is its span minus the part of that interval its
//! children cover. Spans with the same name in one diagnosis (pipeline
//! executions fanned out over worker threads) are merged as a union of
//! intervals, so overlapping executions are not counted twice.

use bugdoc_core::{EvalResult, Instance, ParamSpace};
use bugdoc_engine::{Pipeline, PipelineError, SimTime};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The root span of every diagnosis: the whole request as the caller sees it.
pub const ROOT: &str = "request";

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub diag: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

/// In-memory span sink shared by the benchmark loop and the pipeline
/// decorator.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// The diagnosis in-process pipeline executions belong to (in-process
    /// workloads run one diagnosis at a time).
    current: AtomicU64,
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        // Relaxed: a unique-ticket counter; nothing else is published by it.
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            current: AtomicU64::new(0),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_current(&self, diag: u64) {
        self.current.store(diag, Ordering::SeqCst);
    }

    pub fn record(&self, diag: u64, name: &'static str, parent: &'static str, start_ns: u64) {
        let span = Span {
            diag,
            name,
            parent,
            start_ns,
            end_ns: self.now_ns(),
            thread: thread_tag(),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        diag: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        self.record(diag, name, parent, start);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Runs `f`, inside a span when tracing is on.
pub fn maybe_span<R>(
    tracer: Option<&Tracer>,
    diag: u64,
    name: &'static str,
    parent: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(diag, name, parent, f),
        None => f(),
    }
}

/// A [`Pipeline`] decorator that counts every `execute` (so a check can
/// hold the executor's new-execution count to the pipeline runs it really
/// made) and, with a tracer, records each as a `pipeline.execute` span
/// whose parent is the current diagnosis's `algorithms.diagnose` span.
pub struct TimedPipeline {
    inner: Arc<dyn Pipeline>,
    tracer: Option<Arc<Tracer>>,
    calls: AtomicU64,
}

impl TimedPipeline {
    pub fn wrap(inner: Arc<dyn Pipeline>, tracer: Option<&Arc<Tracer>>) -> Arc<TimedPipeline> {
        Arc::new(TimedPipeline {
            inner,
            tracer: tracer.cloned(),
            calls: AtomicU64::new(0),
        })
    }

    /// `execute` calls so far.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst) as usize
    }
}

impl Pipeline for TimedPipeline {
    fn space(&self) -> &Arc<ParamSpace> {
        self.inner.space()
    }

    fn execute(&self, instance: &Instance) -> Result<EvalResult, PipelineError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let Some(tracer) = &self.tracer else {
            return self.inner.execute(instance);
        };
        let start = tracer.now_ns();
        let out = self.inner.execute(instance);
        let diag = tracer.current.load(Ordering::SeqCst);
        tracer.record(diag, "pipeline.execute", "algorithms.diagnose", start);
        out
    }

    fn cost(&self, instance: &Instance) -> SimTime {
        self.inner.cost(instance)
    }

    fn available_instances(&self) -> Option<Vec<Instance>> {
        self.inner.available_instances()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-layer self time summed over every diagnosis of a run.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Diagnoses with a root span.
    pub diagnoses: usize,
    /// Sum of root-span durations (diagnosis wall time), ns.
    pub root_ns: u64,
    /// Layer name -> summed self time, ns. The root's own self time is the
    /// unattributed remainder.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Distinct threads that ran `pipeline.execute`, summed per diagnosis.
    pub execute_threads: usize,
    /// `pipeline.execute` spans.
    pub execute_calls: usize,
}

impl Attribution {
    /// Reduces spans to self times. A name's self time in one diagnosis is
    /// the union of its spans minus the union of its children's spans
    /// inside them; these add up to the root span when children nest in
    /// their parents.
    pub fn from_spans(spans: &[Span]) -> Attribution {
        let mut by_diag: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in spans {
            by_diag.entry(s.diag).or_default().push(s);
        }
        let mut out = Attribution::default();
        for spans in by_diag.values() {
            let Some(root) = spans.iter().find(|s| s.name == ROOT) else {
                continue;
            };
            out.diagnoses += 1;
            out.root_ns += root.end_ns - root.start_ns;
            let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
            names.sort_unstable();
            names.dedup();
            for name in names {
                let own: Vec<&&Span> = spans.iter().filter(|s| s.name == name).collect();
                let mut own_iv: Vec<(u64, u64)> =
                    own.iter().map(|s| (s.start_ns, s.end_ns)).collect();
                let lo = own_iv.iter().map(|iv| iv.0).min().unwrap_or(0);
                let hi = own_iv.iter().map(|iv| iv.1).max().unwrap_or(0);
                let covered = union_ns(&mut own_iv, lo, hi);
                let mut child_iv: Vec<(u64, u64)> = spans
                    .iter()
                    .filter(|s| s.parent == name)
                    .map(|s| (s.start_ns, s.end_ns))
                    .collect();
                let children = union_ns(&mut child_iv, lo, hi);
                *out.self_ns.entry(name).or_default() += covered.saturating_sub(children);
                if name == "pipeline.execute" {
                    out.execute_calls += own.len();
                    let mut threads: Vec<u64> = own.iter().map(|s| s.thread).collect();
                    threads.sort_unstable();
                    threads.dedup();
                    out.execute_threads += threads.len();
                }
            }
        }
        out
    }

    /// Moves `ns` of `from`'s self time to layer `to` (for time a layer
    /// reports about itself, such as the daemon's server-side diagnose
    /// histogram inside the client's round trip).
    pub fn split(&mut self, from: &'static str, to: &'static str, ns: u64) {
        let slot = self.self_ns.entry(from).or_default();
        let moved = ns.min(*slot);
        *slot -= moved;
        *self.self_ns.entry(to).or_default() += moved;
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Share of diagnosis wall time spent in `name`'s own code, percent.
    pub fn share_pct(&self, name: &str) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        100.0 * self.self_ns.get(name).copied().unwrap_or(0) as f64 / self.root_ns as f64
    }

    /// The layer table: one row per span name (the root's row is the
    /// unattributed remainder), then the total.
    pub fn table(&self, workload: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "layer self time, {workload}: {} diagnoses, {:.1} ms of diagnosis wall time",
            self.diagnoses,
            self.root_ns as f64 / 1e6
        );
        let _ = writeln!(out, "  {:<28} {:>12} {:>8}", "layer", "self ms", "share");
        let mut sum = 0u64;
        for (name, ns) in &self.self_ns {
            let label = if *name == ROOT {
                "(unattributed)"
            } else {
                name
            };
            sum += ns;
            let _ = writeln!(
                out,
                "  {:<28} {:>12.3} {:>7.2}%",
                label,
                *ns as f64 / 1e6,
                self.share_pct(name)
            );
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>12.3} {:>7.2}%",
            "total",
            sum as f64 / 1e6,
            if self.root_ns == 0 {
                0.0
            } else {
                100.0 * sum as f64 / self.root_ns as f64
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(diag: u64, name: &'static str, parent: &'static str, s: u64, e: u64, t: u64) -> Span {
        Span {
            diag,
            name,
            parent,
            start_ns: s,
            end_ns: e,
            thread: t,
        }
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = vec![
            span(1, ROOT, "", 0, 100, 0),
            span(1, "store.recover", ROOT, 0, 20, 0),
            span(1, "algorithms.diagnose", ROOT, 20, 90, 0),
            // Two overlapping executions on two threads, one past the parent.
            span(1, "pipeline.execute", "algorithms.diagnose", 30, 50, 1),
            span(1, "pipeline.execute", "algorithms.diagnose", 40, 60, 2),
        ];
        let a = Attribution::from_spans(&spans);
        assert_eq!(a.diagnoses, 1);
        assert_eq!(a.root_ns, 100);
        assert_eq!(a.self_ns["store.recover"], 20);
        assert_eq!(a.self_ns["pipeline.execute"], 30);
        assert_eq!(a.self_ns["algorithms.diagnose"], 40);
        assert_eq!(a.self_ns[ROOT], 10);
        assert_eq!(a.self_ns.values().sum::<u64>(), a.root_ns);
        assert_eq!(a.execute_calls, 2);
        assert_eq!(a.execute_threads, 2);
    }

    #[test]
    fn split_moves_time_between_layers() {
        let spans = vec![
            span(7, ROOT, "", 0, 50, 0),
            span(7, "serve.diagnose", ROOT, 10, 40, 0),
        ];
        let mut a = Attribution::from_spans(&spans);
        a.split("serve.diagnose", "algorithms.server", 25);
        assert_eq!(a.self_ns["serve.diagnose"], 5);
        assert_eq!(a.self_ns["algorithms.server"], 25);
        assert_eq!(a.self_ns.values().sum::<u64>(), 50);
    }
}
