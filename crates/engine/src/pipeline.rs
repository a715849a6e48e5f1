//! The black-box pipeline abstraction.
//!
//! BugDoc "does not assume any knowledge of the internal code of the
//! computational processes: it was designed to debug black-box pipelines
//! where we can observe only the inputs and outputs" (paper §2). The only
//! interface a pipeline exposes is: its parameter space, and a way to execute
//! an instance and evaluate the result.

use bugdoc_core::{EvalResult, Instance, ParamSpace};
use std::fmt;
use std::sync::Arc;

/// Simulated execution cost of one pipeline instance, in seconds.
///
/// The paper's real pipelines take 20 minutes (Data Polygamy) to 10 hours
/// (GAN training) per instance; the engine's virtual clock accumulates these
/// costs under the configured worker count so the scalability experiments
/// (paper §5.2, Figure 6) measure schedule makespan rather than the
/// milliseconds our simulators actually take.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Zero cost.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Cost in seconds.
    pub fn from_secs(s: f64) -> Self {
        SimTime(s)
    }

    /// Cost in minutes.
    pub fn from_mins(m: f64) -> Self {
        SimTime(m * 60.0)
    }

    /// Cost in hours.
    pub fn from_hours(h: f64) -> Self {
        SimTime(h * 3600.0)
    }

    /// Seconds as `f64`.
    pub fn secs(self) -> f64 {
        self.0
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}s", self.0)
    }
}

/// Why a pipeline could not produce an evaluation for an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The instance cannot be executed in this setting — e.g. the DBSherlock
    /// scenario replays historical logs only, so instances absent from the
    /// logs are unavailable (paper §5.3: "an early stop when the pipeline
    /// instance to be tested was not present").
    Unavailable,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Unavailable => write!(f, "instance unavailable for execution"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A black-box computational pipeline: parameters in, evaluation out.
///
/// Implementations must be deterministic per instance (paper §3, Def. 2 —
/// the provenance store enforces this) and thread-safe: the executor runs
/// instances from multiple workers concurrently (paper §4.3).
pub trait Pipeline: Send + Sync {
    /// The pipeline's parameter space (shared, immutable).
    fn space(&self) -> &Arc<ParamSpace>;

    /// Executes one instance and evaluates the result.
    fn execute(&self, instance: &Instance) -> Result<EvalResult, PipelineError>;

    /// The simulated execution cost of an instance. Defaults to one second;
    /// realistic pipelines override this (e.g. 20 min for Data Polygamy).
    fn cost(&self, _instance: &Instance) -> SimTime {
        SimTime::from_secs(1.0)
    }

    /// For pipelines that can only execute a *known finite set* of instances
    /// (historical replay, paper §5.3), the executable set; `None` for
    /// ordinary pipelines. Algorithms use this to direct their probes at
    /// instances that can actually be answered instead of sampling the full
    /// Cartesian product (which would early-stop on every request).
    fn available_instances(&self) -> Option<Vec<Instance>> {
        None
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "pipeline"
    }
}

/// A pipeline defined by a closure — the usual way to wrap an evaluation
/// procedure around an existing computation in tests and examples.
pub struct FnPipeline<F> {
    space: Arc<ParamSpace>,
    f: F,
    cost: SimTime,
    name: String,
}

impl<F> FnPipeline<F>
where
    F: Fn(&Instance) -> EvalResult + Send + Sync,
{
    /// Wraps a closure as a pipeline with unit cost.
    pub fn new(space: Arc<ParamSpace>, f: F) -> Self {
        FnPipeline {
            space,
            f,
            cost: SimTime::from_secs(1.0),
            name: "fn-pipeline".to_string(),
        }
    }

    /// Sets the simulated per-instance cost.
    pub fn with_cost(mut self, cost: SimTime) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the report name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl<F> Pipeline for FnPipeline<F>
where
    F: Fn(&Instance) -> EvalResult + Send + Sync,
{
    fn space(&self) -> &Arc<ParamSpace> {
        &self.space
    }

    fn execute(&self, instance: &Instance) -> Result<EvalResult, PipelineError> {
        Ok((self.f)(instance))
    }

    fn cost(&self, _instance: &Instance) -> SimTime {
        self.cost
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A pipeline backed entirely by historical logs: instances present in the
/// log evaluate for free; anything else is [`PipelineError::Unavailable`].
///
/// This reproduces the DBSherlock setting (paper §5.3), where "it is not
/// possible to derive and run additional instances".
pub struct HistoricalPipeline {
    space: Arc<ParamSpace>,
    log: std::collections::HashMap<Instance, EvalResult>,
    /// The logged instances sorted by value, the deterministic order
    /// [`Pipeline::available_instances`] reports (map iteration order varies
    /// across runs).
    sorted: Vec<Instance>,
    name: String,
}

impl HistoricalPipeline {
    /// Builds a replay pipeline from `(instance, evaluation)` records.
    pub fn new(
        space: Arc<ParamSpace>,
        records: impl IntoIterator<Item = (Instance, EvalResult)>,
    ) -> Self {
        let log: std::collections::HashMap<Instance, EvalResult> = records.into_iter().collect();
        let mut sorted: Vec<Instance> = log.keys().cloned().collect();
        sorted.sort_by(|a, b| a.values().cmp(b.values()));
        HistoricalPipeline {
            space,
            log,
            sorted,
            name: "historical-replay".to_string(),
        }
    }

    /// Sets the report name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of instances available in the log.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// True if an instance can be replayed.
    pub fn contains(&self, instance: &Instance) -> bool {
        self.log.contains_key(instance)
    }
}

impl Pipeline for HistoricalPipeline {
    fn space(&self) -> &Arc<ParamSpace> {
        &self.space
    }

    fn execute(&self, instance: &Instance) -> Result<EvalResult, PipelineError> {
        self.log
            .get(instance)
            .copied()
            .ok_or(PipelineError::Unavailable)
    }

    fn cost(&self, _instance: &Instance) -> SimTime {
        // "Since we were dealing with historical data, the instance execution
        // time here is negligible" (paper §5.3).
        SimTime::ZERO
    }

    fn available_instances(&self) -> Option<Vec<Instance>> {
        Some(self.sorted.clone())
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Failure-injection wrapper: makes a deterministic subset of instances
/// unavailable, for testing algorithm robustness to execution gaps.
///
/// The subset is chosen by hashing the instance, so injection is
/// deterministic and independent of execution order.
pub struct FaultInjector<P> {
    inner: P,
    /// Instances whose hash falls below this fraction are unavailable.
    unavailable_fraction: f64,
}

impl<P: Pipeline> FaultInjector<P> {
    /// Wraps `inner`, making roughly `fraction` of instances unavailable.
    pub fn new(inner: P, fraction: f64) -> Self {
        FaultInjector {
            inner,
            unavailable_fraction: fraction.clamp(0.0, 1.0),
        }
    }

    fn is_injected(&self, instance: &Instance) -> bool {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        instance.hash(&mut h);
        // Map the hash to [0,1) and compare against the fraction.
        let unit = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.unavailable_fraction
    }
}

impl<P: Pipeline> Pipeline for FaultInjector<P> {
    fn space(&self) -> &Arc<ParamSpace> {
        self.inner.space()
    }

    fn execute(&self, instance: &Instance) -> Result<EvalResult, PipelineError> {
        if self.is_injected(instance) {
            Err(PipelineError::Unavailable)
        } else {
            self.inner.execute(instance)
        }
    }

    fn cost(&self, instance: &Instance) -> SimTime {
        self.inner.cost(instance)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{Outcome, ParamSpace, Value};

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder().ordinal("x", [1, 2, 3]).build()
    }

    fn inst(s: &ParamSpace, x: i64) -> Instance {
        Instance::from_pairs(s, [("x", Value::from(x))])
    }

    #[test]
    fn fn_pipeline_executes() {
        let s = space();
        let x = s.by_name("x").unwrap();
        let p = FnPipeline::new(s.clone(), move |i: &Instance| {
            EvalResult::of(Outcome::from_check(i.get(x) != &Value::from(3)))
        })
        .with_cost(SimTime::from_mins(20.0))
        .with_name("crashy");
        assert!(p.execute(&inst(&s, 1)).unwrap().outcome.is_succeed());
        assert!(p.execute(&inst(&s, 3)).unwrap().outcome.is_fail());
        assert_eq!(p.cost(&inst(&s, 1)).secs(), 1200.0);
        assert_eq!(p.name(), "crashy");
    }

    #[test]
    fn historical_pipeline_replays_and_stops_early() {
        let s = space();
        let p = HistoricalPipeline::new(
            s.clone(),
            [(inst(&s, 1), EvalResult::of(Outcome::Succeed))],
        );
        assert_eq!(p.len(), 1);
        assert!(p.contains(&inst(&s, 1)));
        assert!(p.execute(&inst(&s, 1)).is_ok());
        assert_eq!(p.execute(&inst(&s, 2)), Err(PipelineError::Unavailable));
        assert_eq!(p.cost(&inst(&s, 1)), SimTime::ZERO);
    }

    #[test]
    fn fault_injector_is_deterministic() {
        let s = space();
        let p = FaultInjector::new(
            FnPipeline::new(s.clone(), |_| EvalResult::of(Outcome::Succeed)),
            0.5,
        );
        for x in 1..=3 {
            let a = p.execute(&inst(&s, x)).is_err();
            let b = p.execute(&inst(&s, x)).is_err();
            assert_eq!(a, b, "injection must be deterministic per instance");
        }
    }

    #[test]
    fn fault_injector_extremes() {
        let s = space();
        let all = FaultInjector::new(
            FnPipeline::new(s.clone(), |_| EvalResult::of(Outcome::Succeed)),
            1.0,
        );
        let none = FaultInjector::new(
            FnPipeline::new(s.clone(), |_| EvalResult::of(Outcome::Succeed)),
            0.0,
        );
        for x in 1..=3 {
            assert!(all.execute(&inst(&s, x)).is_err());
            assert!(none.execute(&inst(&s, x)).is_ok());
        }
    }

    #[test]
    fn sim_time_arithmetic() {
        let mut t = SimTime::from_secs(30.0);
        t += SimTime::from_mins(1.0);
        assert_eq!(t.secs(), 90.0);
        assert_eq!((t + SimTime::from_hours(1.0)).secs(), 3690.0);
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.5s");
    }
}
