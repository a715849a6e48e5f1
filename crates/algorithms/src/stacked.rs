//! The Stacked Shortcut algorithm (paper §4.1, Algorithm 2).
//!
//! Shortcut can assert a *truncated* cause (a proper subset of a minimal
//! definitive root cause) only when a minimal cause straddles the union
//! `CP_f ∪ CP_g` (Theorem 4). Stacked Shortcut therefore runs the same failed
//! configuration against `k` *mutually disjoint* good configurations and
//! unions the inferred causes: with at most `k` distinct minimal causes, at
//! least one good configuration lacks the union property and contributes the
//! untruncated assertion (Theorem 5). Each extra stacked call "can only grow
//! the hypothetical root cause".
//!
//! When the history does not contain `k` mutually disjoint successes, the
//! implementation can *probe* for new ones — sampling instances disjoint from
//! `CP_f` and from the already-picked goods, executing them, and keeping the
//! successes — which is exactly BugDoc's iterative instance generation.

use crate::error::AlgoError;
use crate::shortcut::{shortcut, ShortcutConfig};
use bugdoc_core::{Conjunction, Instance, Outcome, ParamSpace};
use bugdoc_engine::{ExecError, Executor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stacked Shortcut configuration.
#[derive(Debug, Clone)]
pub struct StackedConfig {
    /// Number of disjoint good configurations to stack. The paper's
    /// experiments use four ("Stacked Shortcut with four shortcuts").
    pub k: usize,
    /// If the history holds fewer than `k` mutually disjoint successes,
    /// probe randomly for more (each probe costs one execution).
    pub seek_new_good: bool,
    /// Cap on probe executions when seeking new goods.
    pub max_probe_attempts: usize,
    /// RNG seed for probe sampling.
    pub seed: u64,
    /// Configuration forwarded to each inner Shortcut run.
    pub shortcut: ShortcutConfig,
}

impl Default for StackedConfig {
    fn default() -> Self {
        StackedConfig {
            k: 4,
            seek_new_good: true,
            max_probe_attempts: 20,
            seed: 0,
            shortcut: ShortcutConfig::default(),
        }
    }
}

/// The result of a Stacked Shortcut run.
#[derive(Debug, Clone, PartialEq)]
pub struct StackedReport {
    /// The union of the causes asserted by the stacked Shortcut runs, or
    /// `None` if every run was refuted.
    pub cause: Option<Conjunction>,
    /// How many good configurations were actually stacked.
    pub goods_used: usize,
    /// New pipeline executions consumed (probes + walks).
    pub new_executions: usize,
}

/// Runs Stacked Shortcut against the executor's current history.
///
/// `CP_f` is the first failing instance in the history (Algorithm 2's
/// "Let CP_f be such that CP_f ∈ CPI and E(CP_f) = fail").
pub fn stacked_shortcut(exec: &Executor, config: &StackedConfig) -> Result<StackedReport, AlgoError> {
    let cp_f = exec
        .with_provenance_ref(|prov| prov.first_failing())
        .ok_or(AlgoError::NoFailingInstance)?;
    stacked_shortcut_from(exec, &cp_f, config)
}

/// Runs Stacked Shortcut from an explicit failing instance.
pub fn stacked_shortcut_from(
    exec: &Executor,
    cp_f: &Instance,
    config: &StackedConfig,
) -> Result<StackedReport, AlgoError> {
    let space = exec.space();
    let start_execs = exec.stats().new_executions;
    match exec.evaluate(cp_f) {
        Ok(Outcome::Fail) => {}
        Ok(Outcome::Succeed) => return Err(AlgoError::ExpectedFailing),
        Err(e) => return Err(AlgoError::from_exec(e)),
    }

    // CP_G ← up to k successes, disjoint from CP_f and mutually disjoint if
    // possible; then probe for more if allowed.
    let mut goods: Vec<Instance> =
        exec.with_provenance_ref(|prov| prov.mutually_disjoint_successes(cp_f, config.k));

    if goods.len() < config.k && config.seek_new_good {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut attempts = 0;
        while goods.len() < config.k && attempts < config.max_probe_attempts {
            attempts += 1;
            let candidate = sample_disjoint(&space, cp_f, &goods, &mut rng);
            let Some(candidate) = candidate else { break };
            match exec.evaluate(&candidate) {
                Ok(Outcome::Succeed) => goods.push(candidate),
                Ok(Outcome::Fail) => {}
                Err(ExecError::BudgetExhausted) => break,
                Err(ExecError::Unavailable) => {}
            }
        }
    }

    // Last resort: the most-different heuristic (paper §4.1).
    if goods.is_empty() {
        let fallback = exec.with_provenance_ref(|prov| prov.most_different_success(cp_f));
        match fallback {
            Some(g) => goods.push(g),
            None => return Err(AlgoError::NoSucceedingInstance),
        }
    }

    // D ← ⋃ shortcut(CPI, E, P, CP_f, CP_g).
    let mut components: Vec<Conjunction> = Vec::new();
    for cp_g in &goods {
        let report = shortcut(exec, cp_f, cp_g, &config.shortcut)?;
        if let Some(cause) = report.cause {
            components.push(cause);
        }
    }
    // Each Shortcut run sanity-checked its own assertion against the history
    // *at the time it ran* — but a later walk may have executed a succeeding
    // instance that refutes an earlier component. Re-validate every component
    // against the final history before taking the union; components with no
    // succeeding superset individually guarantee the union has none either
    // (an instance satisfying the union satisfies every component). One
    // read lock covers every component's check.
    exec.with_provenance_ref(|prov| {
        components.retain(|c| !prov.succeeding_superset_exists(&c.canonicalize(&space)));
    });
    let cause = if components.is_empty() {
        None
    } else {
        Some(Conjunction::new(
            components
                .iter()
                .flat_map(|c| c.predicates().iter().cloned())
                .collect(),
        ))
    };

    Ok(StackedReport {
        cause,
        goods_used: goods.len(),
        new_executions: exec.stats().new_executions.saturating_sub(start_execs),
    })
}

/// Samples an instance disjoint from `cp_f` and from every already-picked
/// good (best effort: parameters whose domains are too small to avoid all of
/// them only avoid `cp_f`). Returns `None` for degenerate spaces where even
/// avoiding `cp_f` is impossible on some parameter.
///
/// Works in domain indices: all instances come from one space, whose
/// domains hold no two equal values, so two instances agree on a parameter
/// exactly when their dense keys do.
fn sample_disjoint(
    space: &ParamSpace,
    cp_f: &Instance,
    picked: &[Instance],
    rng: &mut StdRng,
) -> Option<Instance> {
    let mut indices: Vec<u32> = Vec::with_capacity(space.len());
    // Domain indices avoiding CP_f and all picked goods, and those avoiding
    // CP_f alone; refilled for each parameter.
    let mut strict: Vec<u32> = Vec::new();
    let mut relaxed: Vec<u32> = Vec::new();
    for p in space.ids() {
        let k = p.index();
        let avoid = cp_f.dense_key()[k];
        strict.clear();
        relaxed.clear();
        for v in (0..space.domain(p).len() as u32).filter(|&v| v != avoid) {
            relaxed.push(v);
            if picked.iter().all(|g| g.dense_key()[k] != v) {
                strict.push(v);
            }
        }
        let pool = if !strict.is_empty() { &strict } else { &relaxed };
        if pool.is_empty() {
            return None; // single-valued domain: disjointness unattainable
        }
        indices.push(pool[rng.gen_range(0..pool.len())]);
    }
    Some(space.instance_from_owned_indices(indices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{EvalResult, ParamSpace, Predicate, ProvenanceStore, Value};
    use bugdoc_engine::{Executor, ExecutorConfig, FnPipeline, Pipeline};
    use std::sync::Arc;

    fn space3x3() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("p1", [1, 2, 3])
            .ordinal("p2", [1, 2, 3])
            .ordinal("p3", [1, 2, 3])
            .build()
    }

    /// Pipeline with the paper's Example-2 structure:
    /// D1 = {p1=1, p2=1}, D2 = {p1=2, p3=1}.
    fn two_cause_pipeline(s: &Arc<ParamSpace>) -> Arc<dyn Pipeline> {
        let p1 = s.by_name("p1").unwrap();
        let p2 = s.by_name("p2").unwrap();
        let p3 = s.by_name("p3").unwrap();
        Arc::new(FnPipeline::new(s.clone(), move |i: &Instance| {
            let d1 = i.get(p1) == &Value::from(1) && i.get(p2) == &Value::from(1);
            let d2 = i.get(p1) == &Value::from(2) && i.get(p3) == &Value::from(1);
            EvalResult::of(Outcome::from_check(!(d1 || d2)))
        }))
    }

    /// Theorem 5 in action: with two minimal causes and k=2 disjoint goods,
    /// the union is not truncated — it contains D1 entirely (D1 ⊆ CP_f).
    #[test]
    fn stacked_avoids_truncation() {
        let s = space3x3();
        let exec = Executor::new(two_cause_pipeline(&s), ExecutorConfig::default());
        // Seed history: CP_f contains D1; two successes mutually disjoint.
        let cp_f =
            Instance::from_pairs(&s, [("p1", 1.into()), ("p2", 1.into()), ("p3", 1.into())]);
        exec.evaluate(&cp_f).unwrap();
        let g1 = Instance::from_pairs(&s, [("p1", 2.into()), ("p2", 2.into()), ("p3", 2.into())]);
        let g2 = Instance::from_pairs(&s, [("p1", 3.into()), ("p2", 3.into()), ("p3", 3.into())]);
        exec.evaluate(&g1).unwrap();
        exec.evaluate(&g2).unwrap();

        let report = stacked_shortcut(
            &exec,
            &StackedConfig {
                k: 2,
                seek_new_good: false,
                ..Default::default()
            },
        )
        .unwrap();
        let cause = report.cause.expect("asserted");
        let p1 = s.by_name("p1").unwrap();
        let p2 = s.by_name("p2").unwrap();
        // D1 = {p1=1, p2=1} must be contained in the union.
        for pred in [Predicate::eq(p1, 1), Predicate::eq(p2, 1)] {
            assert!(
                cause.predicates().contains(&pred),
                "union {} missing {}",
                cause.display(&s),
                pred.display(&s)
            );
        }
        assert_eq!(report.goods_used, 2);
    }

    /// Against g1 alone (union property holds: D2 ⊆ CP_f ∪ g1), plain
    /// Shortcut truncates — confirming Stacked's value on the same pipeline.
    #[test]
    fn single_shortcut_truncates_where_stacked_does_not() {
        let s = space3x3();
        let exec = Executor::new(two_cause_pipeline(&s), ExecutorConfig::default());
        let cp_f =
            Instance::from_pairs(&s, [("p1", 1.into()), ("p2", 1.into()), ("p3", 1.into())]);
        let g1 = Instance::from_pairs(&s, [("p1", 2.into()), ("p2", 2.into()), ("p3", 2.into())]);
        exec.evaluate(&cp_f).unwrap();
        exec.evaluate(&g1).unwrap();
        let report = shortcut(&exec, &cp_f, &g1, &ShortcutConfig::default()).unwrap();
        let cause = report.cause.unwrap();
        let p3 = s.by_name("p3").unwrap();
        // Truncated: just {p3=1}.
        assert_eq!(
            cause.canonicalize(&s),
            Conjunction::new(vec![Predicate::eq(p3, 1)]).canonicalize(&s)
        );
    }

    #[test]
    fn probes_for_new_goods_when_history_is_thin() {
        let s = space3x3();
        let exec = Executor::new(two_cause_pipeline(&s), ExecutorConfig::default());
        let cp_f =
            Instance::from_pairs(&s, [("p1", 1.into()), ("p2", 1.into()), ("p3", 1.into())]);
        exec.evaluate(&cp_f).unwrap();
        // History has no success at all: stacking must probe.
        let report = stacked_shortcut(
            &exec,
            &StackedConfig {
                k: 2,
                seek_new_good: true,
                max_probe_attempts: 30,
                seed: 7,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.goods_used >= 1);
        assert!(report.cause.is_some());
        assert!(report.new_executions > 0);
    }

    #[test]
    fn no_failing_instance_is_an_error() {
        let s = space3x3();
        let exec = Executor::new(two_cause_pipeline(&s), ExecutorConfig::default());
        let g = Instance::from_pairs(&s, [("p1", 3.into()), ("p2", 3.into()), ("p3", 3.into())]);
        exec.evaluate(&g).unwrap();
        assert!(matches!(
            stacked_shortcut(&exec, &StackedConfig::default()),
            Err(AlgoError::NoFailingInstance)
        ));
    }

    #[test]
    fn falls_back_to_most_different_success() {
        let s = space3x3();
        let exec = Executor::new(two_cause_pipeline(&s), ExecutorConfig::default());
        let cp_f =
            Instance::from_pairs(&s, [("p1", 1.into()), ("p2", 1.into()), ("p3", 1.into())]);
        exec.evaluate(&cp_f).unwrap();
        // Only a non-disjoint success in history (shares p3=1) and no probing.
        let near = Instance::from_pairs(&s, [("p1", 3.into()), ("p2", 2.into()), ("p3", 1.into())]);
        exec.evaluate(&near).unwrap();
        let report = stacked_shortcut(
            &exec,
            &StackedConfig {
                k: 2,
                seek_new_good: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.goods_used, 1);
        assert!(report.cause.is_some());
    }

    #[test]
    fn sample_disjoint_respects_constraints() {
        let s = space3x3();
        let mut rng = StdRng::seed_from_u64(1);
        let cp_f =
            Instance::from_pairs(&s, [("p1", 1.into()), ("p2", 1.into()), ("p3", 1.into())]);
        let picked =
            vec![Instance::from_pairs(&s, [("p1", 2.into()), ("p2", 2.into()), ("p3", 2.into())])];
        for _ in 0..20 {
            let cand = sample_disjoint(&s, &cp_f, &picked, &mut rng).unwrap();
            assert!(cand.is_disjoint_from(&cp_f));
            assert!(cand.is_disjoint_from(&picked[0]), "3-value domains allow it");
        }
    }

    #[test]
    fn sample_disjoint_relaxes_on_small_domains() {
        // Binary domains: cannot avoid both cp_f and a picked good.
        let s = ParamSpace::builder().boolean("a").boolean("b").build();
        let cp_f = Instance::from_pairs(&s, [("a", false.into()), ("b", false.into())]);
        let picked = vec![Instance::from_pairs(&s, [("a", true.into()), ("b", true.into())])];
        let mut rng = StdRng::seed_from_u64(2);
        let cand = sample_disjoint(&s, &cp_f, &picked, &mut rng).unwrap();
        assert!(cand.is_disjoint_from(&cp_f), "cp_f avoidance is mandatory");
    }

    #[test]
    fn seeded_history_counts_are_tracked() {
        let s = space3x3();
        let mut prov = ProvenanceStore::new(s.clone());
        prov.record(
            Instance::from_pairs(&s, [("p1", 1.into()), ("p2", 1.into()), ("p3", 1.into())]),
            EvalResult::of(Outcome::Fail),
        );
        prov.record(
            Instance::from_pairs(&s, [("p1", 2.into()), ("p2", 2.into()), ("p3", 2.into())]),
            EvalResult::of(Outcome::Succeed),
        );
        let exec = Executor::with_provenance(
            two_cause_pipeline(&s),
            ExecutorConfig::default(),
            prov,
        );
        let report = stacked_shortcut(
            &exec,
            &StackedConfig {
                k: 1,
                seek_new_good: false,
                ..Default::default()
            },
        )
        .unwrap();
        // One shortcut over 3 parameters beyond the seeded pair.
        assert!(report.new_executions <= 3);
    }
}
