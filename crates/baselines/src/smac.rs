//! SMAC-style sequential model-based algorithm configuration (Hutter, Hoos,
//! Leyton-Brown — LION 2011), the instance-*generator* baseline of the
//! paper's evaluation (§5).
//!
//! SMAC models the response surface with a random forest and proposes the
//! next configuration by maximizing expected improvement (EI) over a
//! candidate pool of random configurations plus neighbours of the incumbent.
//! "Since SMAC looks for good instances ... we change its goal to look for
//! bad pipeline instances" (paper §5): the objective here is the failure
//! indicator (fail = 1), maximized.
//!
//! SMAC only *generates* instances — it "always outputs a complete pipeline
//! instance", never a root cause — so the harness pairs it with Data X-Ray
//! or Explanation Tables, exactly as the paper does.

use bugdoc_core::{Instance, ParamSpace};
use bugdoc_dtree::{ForestConfig, RandomForest};
use bugdoc_engine::{ExecError, Executor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SMAC configuration.
#[derive(Debug, Clone)]
pub struct SmacConfig {
    /// Random configurations evaluated before the first model fit.
    pub init_random: usize,
    /// Random candidates scored per iteration.
    pub random_candidates: usize,
    /// One-parameter mutations of the incumbent scored per iteration.
    pub neighbour_candidates: usize,
    /// Exploration margin ξ in the EI criterion.
    pub xi: f64,
    /// Random-forest surrogate settings.
    pub forest: ForestConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SmacConfig {
    fn default() -> Self {
        SmacConfig {
            init_random: 5,
            random_candidates: 24,
            neighbour_candidates: 12,
            xi: 0.01,
            forest: ForestConfig {
                n_trees: 10,
                max_depth: Some(12),
                ..ForestConfig::default()
            },
            seed: 0,
        }
    }
}

/// Report of a SMAC generation run.
#[derive(Debug, Clone, Copy)]
pub struct SmacReport {
    /// New instances actually executed.
    pub new_executions: usize,
    /// Iterations performed (model refits).
    pub iterations: usize,
}

/// Runs the SMBO loop until `n_new` new instances have been executed (or the
/// executor's own budget/replay limits stop it earlier). The generated
/// instances land in the executor's provenance for the explainers to analyze.
pub fn generate(exec: &Executor, n_new: usize, config: &SmacConfig) -> SmacReport {
    let space = exec.space();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let start = exec.stats().new_executions;
    let target = start + n_new;
    let mut iterations = 0;

    // Initial random design.
    let mut stall = 0;
    while exec.stats().new_executions < target.min(start + config.init_random) && stall < 50 {
        let inst = random_instance(&space, &mut rng);
        match exec.evaluate(&inst) {
            Ok(_) => stall = 0,
            Err(ExecError::BudgetExhausted) => break,
            Err(ExecError::Unavailable) => stall += 1,
        }
    }

    // SMBO iterations.
    let mut stall = 0;
    while exec.stats().new_executions < target && stall < 50 {
        iterations += 1;
        // Fit over rows built from the live log, under its read lock.
        let model = exec.with_provenance_ref(|prov| {
            let rows: Vec<(Instance, f64)> = prov
                .runs()
                .iter()
                .map(|r| {
                    let label = if r.outcome().is_fail() { 1.0 } else { 0.0 };
                    (r.instance, label)
                })
                .collect();
            if rows.is_empty() {
                return None;
            }
            let forest = RandomForest::fit(
                &space,
                &rows,
                &ForestConfig {
                    seed: config.seed ^ iterations as u64,
                    ..config.forest.clone()
                },
            );
            let y_best = rows.iter().map(|(_, y)| *y).fold(f64::MIN, f64::max);
            let incumbent = rows
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|(i, _)| i.clone())
                .expect("rows non-empty");
            Some((forest, y_best, incumbent))
        });
        let Some((forest, y_best, incumbent)) = model else {
            // Nothing to model: fall back to random probing.
            let inst = random_instance(&space, &mut rng);
            match exec.evaluate(&inst) {
                Ok(_) => stall = 0,
                Err(ExecError::BudgetExhausted) => break,
                Err(ExecError::Unavailable) => stall += 1,
            }
            continue;
        };

        // Candidate pool: random + incumbent neighbours, unseen only.
        let mut candidates: Vec<Instance> = Vec::new();
        for _ in 0..config.random_candidates {
            candidates.push(random_instance(&space, &mut rng));
        }
        for _ in 0..config.neighbour_candidates {
            candidates.push(mutate_one(&space, &incumbent, &mut rng));
        }
        candidates.retain(|c| exec.with_provenance_ref(|prov| prov.lookup(c).is_none()));
        if candidates.is_empty() {
            let inst = random_instance(&space, &mut rng);
            match exec.evaluate(&inst) {
                Ok(_) => stall = 0,
                Err(ExecError::BudgetExhausted) => break,
                Err(ExecError::Unavailable) => stall += 1,
            }
            continue;
        }

        // Rank by EI and execute the best.
        candidates.sort_by(|a, b| {
            let ea = expected_improvement(&forest.predict(a).mean, forest.predict(a).variance, y_best, config.xi);
            let eb = expected_improvement(&forest.predict(b).mean, forest.predict(b).variance, y_best, config.xi);
            eb.partial_cmp(&ea).unwrap_or(std::cmp::Ordering::Equal)
        });
        match exec.evaluate(&candidates[0]) {
            Ok(_) => stall = 0,
            Err(ExecError::BudgetExhausted) => break,
            Err(ExecError::Unavailable) => stall += 1,
        }
    }

    SmacReport {
        new_executions: exec.stats().new_executions - start,
        iterations,
    }
}

/// EI for maximization: `E[max(y - y_best - ξ, 0)]` under `N(μ, σ²)`.
fn expected_improvement(mean: &f64, variance: f64, y_best: f64, xi: f64) -> f64 {
    let sigma = variance.sqrt();
    let improvement = mean - y_best - xi;
    if sigma < 1e-12 {
        return improvement.max(0.0);
    }
    let z = improvement / sigma;
    improvement * normal_cdf(z) + sigma * normal_pdf(z)
}

fn normal_pdf(z: f64) -> f64 {
    (-(z * z) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Abramowitz–Stegun style erf approximation (max error ~1.5e-7), plenty for
/// an acquisition ranking.
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

pub(crate) fn random_instance(space: &ParamSpace, rng: &mut StdRng) -> Instance {
    let indices: Vec<u32> = space
        .ids()
        .map(|p| rng.gen_range(0..space.domain(p).len()) as u32)
        .collect();
    space.instance_from_owned_indices(indices)
}

/// Mutates exactly one randomly chosen parameter to a different value (the
/// SMAC local-search neighbourhood).
fn mutate_one(space: &ParamSpace, base: &Instance, rng: &mut StdRng) -> Instance {
    let p = bugdoc_core::ParamId(rng.gen_range(0..space.len()) as u32);
    let domain = space.domain(p);
    if domain.len() < 2 {
        return base.clone();
    }
    let mut key = base.dense_key().to_vec();
    loop {
        let v = rng.gen_range(0..domain.len()) as u32;
        if v != key[p.index()] {
            key[p.index()] = v;
            return space.instance_from_owned_indices(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{EvalResult, Outcome, ParamSpace, Value};
    use bugdoc_engine::{ExecutorConfig, FnPipeline, Pipeline};
    use std::sync::Arc;

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("a", [1, 2, 3, 4, 5])
            .ordinal("b", [1, 2, 3, 4, 5])
            .categorical("c", ["x", "y", "z"])
            .build()
    }

    fn exec_for(
        s: &Arc<ParamSpace>,
        fail_if: impl Fn(&Instance) -> bool + Send + Sync + 'static,
        budget: Option<usize>,
    ) -> Executor {
        let pipe: Arc<dyn Pipeline> = Arc::new(FnPipeline::new(s.clone(), move |i: &Instance| {
            EvalResult::of(Outcome::from_check(!fail_if(i)))
        }));
        Executor::new(pipe, ExecutorConfig { workers: 2, budget, ..Default::default() })
    }

    #[test]
    fn generates_requested_number_of_instances() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let exec = exec_for(&s, move |i| i.get(a) == &Value::from(5), None);
        let report = generate(&exec, 20, &SmacConfig::default());
        assert_eq!(report.new_executions, 20);
        assert_eq!(exec.provenance().len(), 20);
    }

    #[test]
    fn seeks_failing_region() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let b = s.by_name("b").unwrap();
        // Failure region is 1/25 of the space (a=5 ∧ b=5, any c).
        let exec = exec_for(
            &s,
            move |i| i.get(a) == &Value::from(5) && i.get(b) == &Value::from(5),
            None,
        );
        let report = generate(&exec, 40, &SmacConfig::default());
        let prov = exec.provenance();
        let fails = prov.failing().count();
        // Uniform sampling would find ~40/25 ≈ 1.6 failures in expectation;
        // guided search should find the region and concentrate there.
        assert!(
            fails >= 3,
            "SMAC found only {fails} failures in {} runs",
            report.new_executions
        );
    }

    #[test]
    fn respects_executor_budget() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let exec = exec_for(&s, move |i| i.get(a) == &Value::from(5), Some(7));
        let report = generate(&exec, 50, &SmacConfig::default());
        assert_eq!(report.new_executions, 7);
    }

    #[test]
    fn deterministic_per_seed() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let run = |seed| {
            let exec = exec_for(&s, move |i| i.get(a) == &Value::from(5), None);
            generate(&exec, 15, &SmacConfig { seed, ..Default::default() });
            exec.provenance()
                .runs()
                .iter()
                .map(|r| r.instance.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn ei_math_is_sane() {
        // Higher mean -> higher EI at equal variance.
        assert!(
            expected_improvement(&0.9, 0.04, 0.5, 0.0)
                > expected_improvement(&0.6, 0.04, 0.5, 0.0)
        );
        // Zero variance, no improvement -> zero EI.
        assert_eq!(expected_improvement(&0.4, 0.0, 0.5, 0.0), 0.0);
        // Positive variance keeps some exploration value even below best.
        assert!(expected_improvement(&0.4, 0.09, 0.5, 0.0) > 0.0);
        // CDF sanity.
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!(normal_cdf(3.0) > 0.99);
        assert!(normal_cdf(-3.0) < 0.01);
    }

    #[test]
    fn mutate_changes_exactly_one_param() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(11);
        let base = random_instance(&s, &mut rng);
        for _ in 0..20 {
            let m = mutate_one(&s, &base, &mut rng);
            assert_eq!(base.hamming_distance(&m), 1);
        }
    }
}
