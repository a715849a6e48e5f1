//! The Shortcut algorithm (paper §4.1, Algorithm 1).
//!
//! Starting from a failing instance `CP_f` and a succeeding instance `CP_g`
//! disjoint from it, Shortcut walks over the parameters in order, replacing
//! each value in the current instance by `CP_g`'s value and *keeping* the
//! replacement whenever the modified instance still fails — the intuition
//! being that a parameter whose replacement preserves failure did not cause
//! it. The parameter-values of `CP_f` that survive form the asserted minimal
//! definitive root cause `D = CP_current ∩ CP_f`, subject to a final sanity
//! check against succeeding supersets in the history.
//!
//! Cost: exactly `|P|` instance executions — linear in the number of
//! parameters (Theorems 1–3 characterize exactness; Theorem 2 guarantees `D`
//! is never a *superset* of a minimal definitive root cause under the
//! Disjointness Condition).

use crate::error::AlgoError;
use bugdoc_core::{Conjunction, Instance, Outcome};
use bugdoc_engine::{ExecError, Executor};

/// What to do when the pipeline cannot execute a probe instance
/// (historical-replay gaps, paper §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnUnavailable {
    /// Stop the parameter walk and assert from the current state — the
    /// paper's "early stop when the pipeline instance to be tested was not
    /// present".
    #[default]
    Stop,
    /// Skip the parameter (keep `CP_f`'s value) and continue the walk.
    Skip,
}

/// Shortcut configuration.
#[derive(Debug, Clone, Default)]
pub struct ShortcutConfig {
    /// Probe-unavailability policy.
    pub on_unavailable: OnUnavailable,
    /// Optional explicit parameter order for the walk (defaults to id order —
    /// the paper only requires "some order among parameters").
    pub param_order: Option<Vec<bugdoc_core::ParamId>>,
}

/// The result of one Shortcut run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortcutReport {
    /// The asserted minimal definitive root cause, or `None` when the sanity
    /// check found a succeeding superset (the assertion would have been a
    /// proper subset of a real cause — a truncated assertion caught red-
    /// handed, Algorithm 1's `return ∅`).
    pub cause: Option<Conjunction>,
    /// New pipeline executions consumed by this run.
    pub new_executions: usize,
    /// True if the walk visited every parameter (false on budget exhaustion
    /// or an `OnUnavailable::Stop`).
    pub complete: bool,
}

/// Runs Shortcut from `cp_f` (must fail) toward `cp_g` (must succeed).
///
/// The caller chooses `cp_g`; the Disjointness Condition (`cp_g` disagrees
/// with `cp_f` everywhere) enables the theoretical guarantees, but the
/// algorithm is still useful as a heuristic with a merely *most-different*
/// `cp_g` (paper §4.1) — replacements that coincide with `cp_f`'s values are
/// then free cache hits.
pub fn shortcut(
    exec: &Executor,
    cp_f: &Instance,
    cp_g: &Instance,
    config: &ShortcutConfig,
) -> Result<ShortcutReport, AlgoError> {
    let space = exec.space();
    if cp_f.len() != space.len() || cp_g.len() != space.len() {
        return Err(AlgoError::SpaceMismatch);
    }
    let start_execs = exec.stats().new_executions;

    // Both endpoints must be evaluated (free if already in the history).
    match exec.evaluate(cp_f) {
        Ok(Outcome::Fail) => {}
        Ok(Outcome::Succeed) => return Err(AlgoError::ExpectedFailing),
        Err(e) => return Err(AlgoError::from_exec(e)),
    }
    match exec.evaluate(cp_g) {
        Ok(Outcome::Succeed) => {}
        Ok(Outcome::Fail) => return Err(AlgoError::ExpectedSucceeding),
        Err(e) => return Err(AlgoError::from_exec(e)),
    }

    let order: Vec<bugdoc_core::ParamId> = match &config.param_order {
        Some(o) => o.clone(),
        None => space.ids().collect(),
    };

    let mut current = cp_f.clone();
    let mut complete = true;
    for &p in &order {
        let replaced = current.with_from(p, cp_g);
        match exec.evaluate(&replaced) {
            Ok(Outcome::Fail) => current = replaced,
            Ok(Outcome::Succeed) => {} // p's value in CP_f matters: keep it.
            Err(ExecError::BudgetExhausted) => {
                complete = false;
                break;
            }
            Err(ExecError::Unavailable) => match config.on_unavailable {
                OnUnavailable::Stop => {
                    complete = false;
                    break;
                }
                OnUnavailable::Skip => {}
            },
        }
    }

    // D ← CP_current ∩ CP_f.
    let cause = Conjunction::of_equalities(current.shared_pairs(cp_f));
    let refuted = cause_refuted(exec, &cause);

    Ok(ShortcutReport {
        cause: if refuted { None } else { Some(cause) },
        new_executions: exec.stats().new_executions.saturating_sub(start_execs),
        complete,
    })
}

/// Shared dominance sanity check for both Shortcut variants: an empty cause
/// carries no information, and any succeeding execution containing the cause
/// refutes it.
fn cause_refuted(exec: &Executor, cause: &Conjunction) -> bool {
    cause.is_empty() || {
        let cause = cause.canonicalize(&exec.space());
        exec.with_provenance_ref(|prov| prov.succeeding_superset_exists(&cause))
    }
}

/// Speculative parallel Shortcut (paper §4.3).
///
/// "The most time-consuming aspect of debugging is the execution of pipeline
/// instances. Fortunately, each pipeline instance is independent. Hence
/// different instances can be run in parallel. However, such an approach may
/// lead to the execution of pipelines that are ultimately unnecessary."
///
/// The sequential walk has a strict data dependency: step *i+1* needs to
/// know whether step *i* kept its replacement. The speculative variant bets
/// that replacements *keep failing* (the common case away from the cause):
/// it issues a window of `exec.workers()` chained substitutions as one
/// parallel batch, and on the first success inside the window discards the
/// mis-speculated suffix and re-speculates from the corrected state. The
/// asserted cause is **identical** to the sequential walk's; the cost is a
/// few wasted executions, traded for wall-clock — the virtual clock advances
/// once per *batch* rather than once per parameter.
pub fn shortcut_speculative(
    exec: &Executor,
    cp_f: &Instance,
    cp_g: &Instance,
    config: &ShortcutConfig,
) -> Result<ShortcutReport, AlgoError> {
    let space = exec.space();
    if cp_f.len() != space.len() || cp_g.len() != space.len() {
        return Err(AlgoError::SpaceMismatch);
    }
    let start_execs = exec.stats().new_executions;

    match exec.evaluate(cp_f) {
        Ok(Outcome::Fail) => {}
        Ok(Outcome::Succeed) => return Err(AlgoError::ExpectedFailing),
        Err(e) => return Err(AlgoError::from_exec(e)),
    }
    match exec.evaluate(cp_g) {
        Ok(Outcome::Succeed) => {}
        Ok(Outcome::Fail) => return Err(AlgoError::ExpectedSucceeding),
        Err(e) => return Err(AlgoError::from_exec(e)),
    }

    let order: Vec<bugdoc_core::ParamId> = match &config.param_order {
        Some(o) => o.clone(),
        None => space.ids().collect(),
    };
    let window = exec.workers().max(1);

    let mut current = cp_f.clone();
    let mut complete = true;
    let mut next = 0usize; // index into `order` of the next unresolved step
    'walk: while next < order.len() {
        // Speculate: a chain of substitutions assuming every step fails.
        let upper = (next + window).min(order.len());
        let mut chain: Vec<Instance> = Vec::with_capacity(upper - next);
        let mut state = current.clone();
        for &p in &order[next..upper] {
            state = state.with_from(p, cp_g);
            chain.push(state.clone());
        }
        let results = exec.evaluate_batch(&chain);
        for (k, result) in results.iter().enumerate() {
            match result {
                Ok(Outcome::Fail) => {
                    current = chain[k].clone();
                    next += 1;
                }
                Ok(Outcome::Succeed) => {
                    // Step keeps CP_f's value; everything after k in the
                    // chain was speculated on a wrong premise — discard.
                    next += 1;
                    continue 'walk;
                }
                Err(ExecError::BudgetExhausted) => {
                    complete = false;
                    break 'walk;
                }
                Err(ExecError::Unavailable) => match config.on_unavailable {
                    OnUnavailable::Stop => {
                        complete = false;
                        break 'walk;
                    }
                    OnUnavailable::Skip => {
                        next += 1;
                        continue 'walk;
                    }
                },
            }
        }
    }

    let cause = Conjunction::of_equalities(current.shared_pairs(cp_f));
    let refuted = cause_refuted(exec, &cause);

    Ok(ShortcutReport {
        cause: if refuted { None } else { Some(cause) },
        new_executions: exec.stats().new_executions.saturating_sub(start_execs),
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{
        Comparator, EvalResult, Instance, ParamSpace, Predicate, ProvenanceStore, Value,
    };
    use bugdoc_engine::{Executor, ExecutorConfig, FnPipeline, Pipeline};
    use std::sync::Arc;

    /// The paper's Figure-1 space.
    fn ml_space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .categorical("Dataset", ["Iris", "Digits", "Images"])
            .categorical(
                "Estimator",
                ["Logistic Regression", "Decision Tree", "Gradient Boosting"],
            )
            .ordinal("Library Version", [1.0, 2.0])
            .build()
    }

    fn ml_inst(s: &ParamSpace, d: &str, e: &str, v: f64) -> Instance {
        Instance::from_pairs(
            s,
            [
                ("Dataset", d.into()),
                ("Estimator", e.into()),
                ("Library Version", v.into()),
            ],
        )
    }

    /// Example 1's pipeline: version 2.0 is buggy (score ≤ 0.3), everything
    /// else scores ≥ 0.6.
    fn version_bug_pipeline(s: &Arc<ParamSpace>) -> Arc<dyn Pipeline> {
        let v = s.by_name("Library Version").unwrap();
        let e = s.by_name("Estimator").unwrap();
        let space = s.clone();
        Arc::new(FnPipeline::new(s.clone(), move |i: &Instance| {
            let buggy = i.get(v) == &Value::float(2.0);
            let score = if buggy {
                if i.get(e) == &Value::from("Decision Tree") {
                    0.3
                } else {
                    0.2
                }
            } else {
                0.8
            };
            let _ = &space;
            EvalResult::from_score_at_least(score, 0.6)
        }))
    }

    fn executor(s: &Arc<ParamSpace>, pipe: Arc<dyn Pipeline>) -> Executor {
        // Seed the paper's Table 1.
        let mut prov = ProvenanceStore::new(s.clone());
        prov.record(
            ml_inst(s, "Iris", "Logistic Regression", 1.0),
            EvalResult::from_score_at_least(0.9, 0.6),
        );
        prov.record(
            ml_inst(s, "Digits", "Decision Tree", 1.0),
            EvalResult::from_score_at_least(0.8, 0.6),
        );
        prov.record(
            ml_inst(s, "Iris", "Gradient Boosting", 2.0),
            EvalResult::from_score_at_least(0.2, 0.6),
        );
        Executor::with_provenance(pipe, ExecutorConfig::default(), prov)
    }

    /// Paper §4.1, Example 1 end-to-end: Shortcut finds Library Version = 2.
    #[test]
    fn example_1_finds_library_version() {
        let s = ml_space();
        let exec = executor(&s, version_bug_pipeline(&s));
        let cp_f = ml_inst(&s, "Iris", "Gradient Boosting", 2.0);
        let cp_g = ml_inst(&s, "Digits", "Decision Tree", 1.0);
        assert!(cp_f.is_disjoint_from(&cp_g));

        let report = shortcut(&exec, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();
        let cause = report.cause.expect("a cause is asserted");
        let v = s.by_name("Library Version").unwrap();
        let expected = Conjunction::new(vec![Predicate::new(v, Comparator::Eq, 2.0)]);
        assert_eq!(cause.canonicalize(&s), expected.canonicalize(&s));
        assert!(report.complete);
        // Table 2: the walk created exactly the 3 new instances (one per
        // parameter); the last one (Digits, DT, 1.0) is a cache hit.
        assert_eq!(report.new_executions, 2);
        assert_eq!(exec.provenance().len(), 5);
    }

    /// Theorem 1: singleton causes + disjointness ⇒ exact assertion.
    #[test]
    fn theorem1_singleton_exact() {
        let s = ParamSpace::builder()
            .ordinal("a", [1, 2, 3])
            .ordinal("b", [1, 2, 3])
            .ordinal("c", [1, 2, 3])
            .build();
        let a = s.by_name("a").unwrap();
        let pipe = Arc::new(FnPipeline::new(s.clone(), move |i: &Instance| {
            EvalResult::of(Outcome::from_check(i.get(a) != &Value::from(2)))
        })) as Arc<dyn Pipeline>;
        let exec = Executor::new(pipe, ExecutorConfig::default());
        let cp_f = Instance::from_pairs(&s, [("a", 2.into()), ("b", 2.into()), ("c", 2.into())]);
        let cp_g = Instance::from_pairs(&s, [("a", 1.into()), ("b", 1.into()), ("c", 1.into())]);
        let report = shortcut(&exec, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();
        let cause = report.cause.unwrap();
        assert_eq!(
            cause.canonicalize(&s),
            Conjunction::new(vec![Predicate::eq(a, 2)]).canonicalize(&s)
        );
    }

    /// Example 2: two causes sharing the union property produce a truncated
    /// assertion `{(p3,v3)}` — a proper subset of D2, as the paper shows.
    #[test]
    fn example_2_truncated_assertion() {
        let s = ParamSpace::builder()
            .ordinal("p1", [1, 2])
            .ordinal("p2", [1, 2])
            .ordinal("p3", [1, 2])
            .build();
        let (p1, p2, p3) = (
            s.by_name("p1").unwrap(),
            s.by_name("p2").unwrap(),
            s.by_name("p3").unwrap(),
        );
        // D1 = {p1=1, p2=1}; D2 = {p1=2, p3=1}.
        let pipe = Arc::new(FnPipeline::new(s.clone(), move |i: &Instance| {
            let d1 = i.get(p1) == &Value::from(1) && i.get(p2) == &Value::from(1);
            let d2 = i.get(p1) == &Value::from(2) && i.get(p3) == &Value::from(1);
            EvalResult::of(Outcome::from_check(!(d1 || d2)))
        })) as Arc<dyn Pipeline>;
        let exec = Executor::new(pipe, ExecutorConfig::default());
        // CP_f = (1,1,1) contains D1; CP_g = (2,2,2) is disjoint and succeeds.
        let cp_f = Instance::from_pairs(&s, [("p1", 1.into()), ("p2", 1.into()), ("p3", 1.into())]);
        let cp_g = Instance::from_pairs(&s, [("p1", 2.into()), ("p2", 2.into()), ("p3", 2.into())]);
        let report = shortcut(&exec, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();
        let cause = report.cause.unwrap();
        // The truncated assertion: {p3 = 1}.
        assert_eq!(
            cause.canonicalize(&s),
            Conjunction::new(vec![Predicate::eq(p3, 1)]).canonicalize(&s)
        );
    }

    /// Example 3: sufficiently different causes ⇒ no truncation (Theorem 3).
    #[test]
    fn example_3_sufficiently_different_no_truncation() {
        let s = ParamSpace::builder()
            .ordinal("p1", [1, 2, 3])
            .ordinal("p2", [1, 2, 3])
            .ordinal("p3", [1, 2, 3])
            .build();
        let (p1, p2, p3) = (
            s.by_name("p1").unwrap(),
            s.by_name("p2").unwrap(),
            s.by_name("p3").unwrap(),
        );
        // D1 = {p1=1, p2=1}; D2 = {p1=2, p2=3, p3=1} — they share p1,p2 and
        // differ on both (sufficiently different).
        let pipe = Arc::new(FnPipeline::new(s.clone(), move |i: &Instance| {
            let d1 = i.get(p1) == &Value::from(1) && i.get(p2) == &Value::from(1);
            let d2 = i.get(p1) == &Value::from(2)
                && i.get(p2) == &Value::from(3)
                && i.get(p3) == &Value::from(1);
            EvalResult::of(Outcome::from_check(!(d1 || d2)))
        })) as Arc<dyn Pipeline>;
        let exec = Executor::new(pipe, ExecutorConfig::default());
        let cp_f = Instance::from_pairs(&s, [("p1", 1.into()), ("p2", 1.into()), ("p3", 1.into())]);
        let cp_g = Instance::from_pairs(&s, [("p1", 2.into()), ("p2", 2.into()), ("p3", 2.into())]);
        let report = shortcut(&exec, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();
        let cause = report.cause.unwrap();
        let d1 = Conjunction::new(vec![Predicate::eq(p1, 1), Predicate::eq(p2, 1)]);
        assert_eq!(cause.canonicalize(&s), d1.canonicalize(&s));
    }

    /// Theorem 2 (never a superset) exercised via the sanity check: when the
    /// walk leaves extra parameters in D, a succeeding superset in the
    /// history refutes the assertion.
    #[test]
    fn sanity_check_refutes_non_definitive_assertion() {
        let s = ml_space();
        let exec = executor(&s, version_bug_pipeline(&s));
        // Use a non-disjoint CP_g sharing the Dataset with CP_f: the walk
        // cannot clear Dataset=Iris, but history contains the succeeding
        // (Iris, LR, 1.0) once the walk executes it... construct directly:
        let cp_f = ml_inst(&s, "Iris", "Gradient Boosting", 2.0);
        let cp_g = ml_inst(&s, "Iris", "Logistic Regression", 1.0); // not disjoint
        let report = shortcut(&exec, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();
        // The walk: Dataset stays Iris (cache-hit on same value keeps fail? no:
        // replacing Dataset Iris->Iris is the same instance = CP_f = fail, so
        // kept); Estimator GB->LR with version 2 still fails; Version 2->1
        // succeeds so kept at 2. D = {Dataset=Iris, Version=2}? Estimator was
        // replaced, so D = Dataset=Iris ∧ Version=2. No succeeding superset
        // exists (version 2 always fails), so the cause stands but includes
        // the spurious Dataset=Iris — the heuristic (non-disjoint) regime.
        let cause = report.cause.unwrap();
        let v = s.by_name("Library Version").unwrap();
        assert!(cause
            .predicates()
            .iter()
            .any(|p| p.param == v && p.value == Value::float(2.0)));
    }

    #[test]
    fn rejects_wrong_polarity_inputs() {
        let s = ml_space();
        let exec = executor(&s, version_bug_pipeline(&s));
        let good = ml_inst(&s, "Iris", "Logistic Regression", 1.0);
        let bad = ml_inst(&s, "Iris", "Gradient Boosting", 2.0);
        assert!(matches!(
            shortcut(&exec, &good, &bad, &ShortcutConfig::default()),
            Err(AlgoError::ExpectedFailing)
        ));
        assert!(matches!(
            shortcut(&exec, &bad, &bad, &ShortcutConfig::default()),
            Err(AlgoError::ExpectedSucceeding)
        ));
    }

    #[test]
    fn budget_exhaustion_is_graceful() {
        let s = ml_space();
        let mut prov = ProvenanceStore::new(s.clone());
        prov.record(
            ml_inst(&s, "Iris", "Gradient Boosting", 2.0),
            EvalResult::from_score_at_least(0.2, 0.6),
        );
        prov.record(
            ml_inst(&s, "Digits", "Decision Tree", 1.0),
            EvalResult::from_score_at_least(0.8, 0.6),
        );
        let exec = Executor::with_provenance(
            version_bug_pipeline(&s),
            ExecutorConfig {
                workers: 1,
                budget: Some(1),
                ..Default::default()
            },
            prov,
        );
        let cp_f = ml_inst(&s, "Iris", "Gradient Boosting", 2.0);
        let cp_g = ml_inst(&s, "Digits", "Decision Tree", 1.0);
        let report = shortcut(&exec, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();
        assert!(!report.complete);
        assert_eq!(report.new_executions, 1);
        // With one probe, D keeps Estimator and Version (only Dataset walked).
        let cause = report.cause.unwrap();
        assert!(cause.len() >= 2);
    }

    #[test]
    fn custom_param_order_respected() {
        let s = ml_space();
        let exec = executor(&s, version_bug_pipeline(&s));
        let cp_f = ml_inst(&s, "Iris", "Gradient Boosting", 2.0);
        let cp_g = ml_inst(&s, "Digits", "Decision Tree", 1.0);
        // Walk Version first: the very first probe (Iris, GB, 1.0) succeeds,
        // pinning Version=2; later probes keep failing.
        let order = vec![
            s.by_name("Library Version").unwrap(),
            s.by_name("Dataset").unwrap(),
            s.by_name("Estimator").unwrap(),
        ];
        let report = shortcut(
            &exec,
            &cp_f,
            &cp_g,
            &ShortcutConfig {
                param_order: Some(order),
                ..Default::default()
            },
        )
        .unwrap();
        let cause = report.cause.unwrap();
        let v = s.by_name("Library Version").unwrap();
        assert_eq!(
            cause.canonicalize(&s),
            Conjunction::new(vec![Predicate::new(v, Comparator::Eq, 2.0)]).canonicalize(&s)
        );
    }
}

#[cfg(test)]
mod speculative_tests {
    use super::*;
    use bugdoc_core::{EvalResult, Instance, ParamSpace, Value};
    use bugdoc_engine::{Executor, ExecutorConfig, FnPipeline, SimTime};
    use std::sync::Arc;

    /// A 10-parameter pipeline failing iff p0 = 1 ∧ p7 = 1, each instance
    /// "costing" 20 virtual minutes.
    fn wide_space() -> Arc<ParamSpace> {
        let mut b = ParamSpace::builder();
        for i in 0..10 {
            b = b.ordinal(format!("p{i}"), [1, 2, 3]);
        }
        b.build()
    }

    fn exec_for(s: &Arc<ParamSpace>, workers: usize) -> Executor {
        let p0 = s.by_name("p0").unwrap();
        let p7 = s.by_name("p7").unwrap();
        let pipe = FnPipeline::new(s.clone(), move |i: &Instance| {
            let fail = i.get(p0) == &Value::from(1) && i.get(p7) == &Value::from(1);
            EvalResult::of(Outcome::from_check(!fail))
        })
        .with_cost(SimTime::from_mins(20.0));
        Executor::new(Arc::new(pipe), ExecutorConfig { workers, budget: None, ..Default::default() })
    }

    fn endpoints(s: &Arc<ParamSpace>) -> (Instance, Instance) {
        // Every domain is [1, 2, 3]: value v is index v - 1.
        let all = |v: u32| s.instance_from_indices(&[v - 1; 10]);
        (all(1), all(2)) // cp_f fails (p0=1 ∧ p7=1); cp_g succeeds, disjoint
    }

    /// The speculative walk asserts exactly the sequential walk's cause.
    #[test]
    fn same_cause_as_sequential() {
        let s = wide_space();
        let (cp_f, cp_g) = endpoints(&s);

        let seq = exec_for(&s, 1);
        let seq_report = shortcut(&seq, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();

        let par = exec_for(&s, 4);
        let par_report =
            shortcut_speculative(&par, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();

        assert_eq!(
            seq_report.cause.as_ref().map(|c| c.canonicalize(&s)),
            par_report.cause.as_ref().map(|c| c.canonicalize(&s)),
        );
        assert!(par_report.complete);
    }

    /// Speculation may waste executions but saves virtual wall-clock.
    #[test]
    fn trades_instances_for_wall_clock() {
        let s = wide_space();
        let (cp_f, cp_g) = endpoints(&s);

        let seq = exec_for(&s, 1);
        shortcut(&seq, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();
        let seq_stats = seq.stats();

        let par = exec_for(&s, 5);
        shortcut_speculative(&par, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();
        let par_stats = par.stats();

        // "such an approach may lead to the execution of pipelines that are
        // ultimately unnecessary" — but the overhead is small:
        assert!(par_stats.new_executions >= seq_stats.new_executions);
        assert!(par_stats.new_executions <= seq_stats.new_executions + 10);
        // and the wall-clock shrinks substantially:
        assert!(
            par_stats.sim_time.secs() < seq_stats.sim_time.secs() * 0.7,
            "parallel {} vs sequential {}",
            par_stats.sim_time,
            seq_stats.sim_time
        );
    }

    /// With one worker the speculative variant degenerates to the
    /// sequential walk: same cause, same instance count.
    #[test]
    fn single_worker_degenerates_to_sequential() {
        let s = wide_space();
        let (cp_f, cp_g) = endpoints(&s);
        let a = exec_for(&s, 1);
        let ra = shortcut(&a, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();
        let b = exec_for(&s, 1);
        let rb = shortcut_speculative(&b, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();
        assert_eq!(
            ra.cause.map(|c| c.canonicalize(&s)),
            rb.cause.map(|c| c.canonicalize(&s))
        );
        assert_eq!(ra.new_executions, rb.new_executions);
    }

    /// Budget exhaustion mid-speculation is graceful and flagged.
    #[test]
    fn budget_exhaustion_flagged() {
        let s = wide_space();
        let (cp_f, cp_g) = endpoints(&s);
        let p0 = s.by_name("p0").unwrap();
        let p7 = s.by_name("p7").unwrap();
        let pipe = FnPipeline::new(s.clone(), move |i: &Instance| {
            let fail = i.get(p0) == &Value::from(1) && i.get(p7) == &Value::from(1);
            EvalResult::of(Outcome::from_check(!fail))
        });
        let exec = Executor::new(
            Arc::new(pipe),
            ExecutorConfig {
                workers: 4,
                budget: Some(5),
                ..Default::default()
            },
        );
        let report =
            shortcut_speculative(&exec, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();
        assert!(!report.complete);
        assert!(exec.stats().new_executions <= 5);
    }
}
