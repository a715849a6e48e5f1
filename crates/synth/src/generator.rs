//! The synthetic pipeline generator (paper §5.1).
//!
//! "The pipelines have between three and fifteen parameters, and each
//! parameter has between five and thirty values. The parameter values are
//! either ordinal (e.g., temperature) or categorical (e.g., color), each with
//! probability 1/2. Each synthetic pipeline consists of a parameter space
//! and a definitive root cause of failure automatically generated as follows:
//!
//! 1. We uniformly sample a non-empty subset of parameters to be part of a
//!    conjunction.
//! 2. For each parameter in the subset, we uniformly sample from its values.
//! 3. For each parameter-value pair, we uniformly sample from the set of
//!    comparators C = {=, ≤, >, ≠}.
//! 4. After adding a conjunctive root cause, we add another conjunctive root
//!    cause with a certain probability."
//!
//! Plants are validated so the derived ground truth is exact (see
//! `DESIGN.md` §8): each conjunct must be satisfiable and non-tautological,
//! conjuncts of a disjunction use pairwise disjoint parameter subsets, and
//! the overall failure fraction is bounded away from 0 and 1 so both
//! outcomes remain observable.

use crate::truth::Truth;
use bugdoc_core::{
    Comparator, Conjunction, Dnf, DomainKind, EvalResult, Instance, Outcome, ParamId, ParamSpace,
    Predicate, Value,
};
use bugdoc_engine::{Pipeline, PipelineError, SimTime};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The three root-cause shapes the evaluation distinguishes (paper §5.1):
/// a single triple, a single conjunction, a disjunction of conjunctions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CauseScenario {
    /// One `(parameter, comparator, value)` triple.
    SingleTriple,
    /// One conjunction of at least two triples.
    SingleConjunction,
    /// At least two conjunctions (step 4's extra plants are guaranteed).
    DisjunctionOfConjunctions,
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Parameter-count range (paper: 3–15).
    pub n_params: (usize, usize),
    /// Values-per-parameter range (paper: 5–30).
    pub n_values: (usize, usize),
    /// Cause shape.
    pub scenario: CauseScenario,
    /// Triples per conjunction in the conjunction scenarios (upper bound;
    /// also capped by the available disjoint parameters).
    pub max_conjunction_len: usize,
    /// Extra-disjunct probability for step 4 (beyond the guaranteed second
    /// conjunct of the disjunction scenario).
    pub extra_disjunct_prob: f64,
    /// Reject plants whose failure fraction exceeds this (both evaluation
    /// outcomes must stay reachable).
    pub max_failure_fraction: f64,
    /// Simulated cost per instance.
    pub instance_cost: SimTime,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            n_params: (3, 15),
            n_values: (5, 30),
            scenario: CauseScenario::SingleConjunction,
            max_conjunction_len: 3,
            extra_disjunct_prob: 0.5,
            max_failure_fraction: 0.95,
            instance_cost: SimTime::from_secs(1.0),
        }
    }
}

/// A generated synthetic pipeline: a parameter space, a planted failure
/// condition, and the derived exact ground truth.
pub struct SyntheticPipeline {
    space: Arc<ParamSpace>,
    truth: Truth,
    cost: SimTime,
    name: String,
}

impl SyntheticPipeline {
    /// Generates a pipeline from a seed. All sampling is reproducible.
    pub fn generate(config: &SynthConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = sample_space(config, &mut rng);
        let truth = sample_truth(config, &space, &mut rng);
        SyntheticPipeline {
            space,
            truth,
            cost: config.instance_cost,
            name: format!("synthetic-{seed}"),
        }
    }

    /// The planted ground truth.
    pub fn truth(&self) -> &Truth {
        &self.truth
    }

    /// Convenience: seeds a history with `n_fail` failing and `n_succeed`
    /// succeeding instances — the "previously run" set `G` of the problem
    /// definition. Duplicates are retried a bounded number of times.
    pub fn seed_history(
        &self,
        n_fail: usize,
        n_succeed: usize,
        seed: u64,
    ) -> Vec<(Instance, EvalResult)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out: Vec<(Instance, EvalResult)> = Vec::new();
        let push_unique = |inst: Instance, out: &mut Vec<(Instance, EvalResult)>| {
            if !out.iter().any(|(i, _)| i == &inst) {
                let outcome = Outcome::from_check(!self.truth.fails(&inst));
                out.push((inst, EvalResult::of(outcome)));
                true
            } else {
                false
            }
        };
        let mut guard = 0;
        while out.iter().filter(|(_, e)| e.outcome.is_fail()).count() < n_fail && guard < 200 {
            guard += 1;
            if let Some(inst) = self.truth.sample_failing(&self.space, &mut rng) {
                push_unique(inst, &mut out);
            } else {
                break;
            }
        }
        let mut guard = 0;
        while out.iter().filter(|(_, e)| e.outcome.is_succeed()).count() < n_succeed
            && guard < 200
        {
            guard += 1;
            if let Some(inst) = self.truth.sample_succeeding(&self.space, &mut rng) {
                push_unique(inst, &mut out);
            } else {
                break;
            }
        }
        out
    }
}

impl Pipeline for SyntheticPipeline {
    fn space(&self) -> &Arc<ParamSpace> {
        &self.space
    }

    fn execute(&self, instance: &Instance) -> Result<EvalResult, PipelineError> {
        Ok(EvalResult::of(Outcome::from_check(
            !self.truth.fails(instance),
        )))
    }

    fn cost(&self, _instance: &Instance) -> SimTime {
        self.cost
    }

    fn name(&self) -> &str {
        &self.name
    }
}

fn sample_space(config: &SynthConfig, rng: &mut StdRng) -> Arc<ParamSpace> {
    let n_params = rng.gen_range(config.n_params.0..=config.n_params.1);
    let mut builder = ParamSpace::builder();
    for i in 0..n_params {
        let n_values = rng.gen_range(config.n_values.0..=config.n_values.1);
        if rng.gen_bool(0.5) {
            // Ordinal: evenly spaced floats (e.g. a temperature knob).
            builder = builder.ordinal(
                format!("p{i}"),
                (0..n_values).map(|v| Value::float(v as f64 + 1.0)),
            );
        } else {
            // Categorical: opaque labels, Example 4's "p31", "p32" style.
            builder = builder.categorical(
                format!("p{i}"),
                (0..n_values).map(|v| Value::str(format!("p{i}v{}", v + 1))),
            );
        }
    }
    builder.build()
}

fn sample_truth(config: &SynthConfig, space: &Arc<ParamSpace>, rng: &mut StdRng) -> Truth {
    // Rejection-sample until the plant passes the validity checks; the
    // acceptance region is large, so this terminates fast in practice. A
    // generous attempt cap turns pathological configs into a loud failure.
    for _attempt in 0..1000 {
        let n_conjuncts = match config.scenario {
            CauseScenario::SingleTriple | CauseScenario::SingleConjunction => 1,
            CauseScenario::DisjunctionOfConjunctions => {
                let mut n = 2; // step 4's "certain probability", guaranteed once
                while rng.gen_bool(config.extra_disjunct_prob) && n < 4 {
                    n += 1;
                }
                n
            }
        };

        // Pairwise disjoint parameter subsets keep the ground truth exact.
        let mut available: Vec<ParamId> = space.ids().collect();
        available.shuffle(rng);
        let mut conjuncts: Vec<Conjunction> = Vec::new();
        let mut ok = true;
        for _ in 0..n_conjuncts {
            let want = match config.scenario {
                CauseScenario::SingleTriple => 1,
                _ => rng.gen_range(1..=config.max_conjunction_len),
            }
            .max(if config.scenario == CauseScenario::SingleConjunction {
                2
            } else {
                1
            });
            if available.len() < want {
                ok = false;
                break;
            }
            let params: Vec<ParamId> = available.drain(..want).collect();
            let preds: Vec<Predicate> = params
                .iter()
                .map(|&p| sample_predicate(space, p, rng))
                .collect();
            conjuncts.push(Conjunction::new(preds));
        }
        if !ok {
            continue;
        }

        let truth = Truth::new(space, Dnf::new(conjuncts.clone()));
        // Validity: every conjunct survived canonicalization (satisfiable),
        // none is a tautology, and the failure fraction is in range.
        if truth.len() != conjuncts.len() {
            continue;
        }
        if truth.minimal_causes().iter().any(|c| c.is_top(space)) {
            continue;
        }
        let frac = truth.failure_fraction(space);
        if frac <= 0.0 || frac > config.max_failure_fraction {
            continue;
        }
        return truth;
    }
    panic!("could not plant a valid root cause in 1000 attempts — space too constrained");
}

/// Step 2 + 3: a uniform value and a uniform comparator (categorical domains
/// only admit `=` and `≠`).
fn sample_predicate(space: &ParamSpace, p: ParamId, rng: &mut StdRng) -> Predicate {
    let domain = space.domain(p);
    let value = domain.value(rng.gen_range(0..domain.len())).clone();
    let cmp = match domain.kind() {
        DomainKind::Ordinal => Comparator::ALL[rng.gen_range(0..4usize)],
        DomainKind::Categorical => Comparator::CATEGORICAL[rng.gen_range(0..2usize)],
    };
    Predicate::new(p, cmp, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_within_paper_ranges() {
        for seed in 0..20 {
            let pipe = SyntheticPipeline::generate(&SynthConfig::default(), seed);
            let space = pipe.space();
            assert!((3..=15).contains(&space.len()), "seed {seed}");
            for p in space.ids() {
                assert!((5..=30).contains(&space.domain(p).len()), "seed {seed}");
            }
        }
    }

    #[test]
    fn single_triple_scenario_shape() {
        for seed in 0..20 {
            let pipe = SyntheticPipeline::generate(
                &SynthConfig {
                    scenario: CauseScenario::SingleTriple,
                    ..Default::default()
                },
                seed,
            );
            assert_eq!(pipe.truth().len(), 1);
            assert_eq!(pipe.truth().failure_dnf().conjuncts()[0].len(), 1);
        }
    }

    #[test]
    fn single_conjunction_scenario_shape() {
        for seed in 0..20 {
            let pipe = SyntheticPipeline::generate(
                &SynthConfig {
                    scenario: CauseScenario::SingleConjunction,
                    ..Default::default()
                },
                seed,
            );
            assert_eq!(pipe.truth().len(), 1);
            assert!(pipe.truth().failure_dnf().conjuncts()[0].len() >= 2);
        }
    }

    #[test]
    fn disjunction_scenario_shape() {
        for seed in 0..20 {
            let pipe = SyntheticPipeline::generate(
                &SynthConfig {
                    scenario: CauseScenario::DisjunctionOfConjunctions,
                    ..Default::default()
                },
                seed,
            );
            assert!(pipe.truth().len() >= 2, "seed {seed}");
            // Conjuncts use pairwise disjoint parameter sets.
            let conjuncts = pipe.truth().failure_dnf().conjuncts();
            for (i, a) in conjuncts.iter().enumerate() {
                for b in conjuncts.iter().skip(i + 1) {
                    let pa: std::collections::HashSet<_> =
                        a.predicates().iter().map(|p| p.param).collect();
                    for pred in b.predicates() {
                        assert!(!pa.contains(&pred.param), "seed {seed}: overlapping params");
                    }
                }
            }
        }
    }

    #[test]
    fn evaluation_matches_truth() {
        let pipe = SyntheticPipeline::generate(&SynthConfig::default(), 7);
        let mut rng = StdRng::seed_from_u64(1);
        let space = pipe.space().clone();
        for _ in 0..20 {
            let f = pipe.truth().sample_failing(&space, &mut rng).unwrap();
            assert!(pipe.execute(&f).unwrap().outcome.is_fail());
            let g = pipe.truth().sample_succeeding(&space, &mut rng).unwrap();
            assert!(pipe.execute(&g).unwrap().outcome.is_succeed());
        }
    }

    #[test]
    fn failure_fraction_is_bounded() {
        for seed in 0..30 {
            let pipe = SyntheticPipeline::generate(&SynthConfig::default(), seed);
            let frac = pipe.truth().failure_fraction(pipe.space());
            assert!(frac > 0.0 && frac <= 0.95, "seed {seed}: fraction {frac}");
        }
    }

    #[test]
    fn reproducible_per_seed() {
        let a = SyntheticPipeline::generate(&SynthConfig::default(), 99);
        let b = SyntheticPipeline::generate(&SynthConfig::default(), 99);
        assert_eq!(a.space(), b.space());
        assert_eq!(
            a.truth().failure_dnf().display(a.space()).to_string(),
            b.truth().failure_dnf().display(b.space()).to_string()
        );
    }

    #[test]
    fn seed_history_contains_both_outcomes() {
        let pipe = SyntheticPipeline::generate(&SynthConfig::default(), 3);
        let history = pipe.seed_history(3, 5, 42);
        let fails = history.iter().filter(|(_, e)| e.outcome.is_fail()).count();
        let succeeds = history.iter().filter(|(_, e)| e.outcome.is_succeed()).count();
        assert_eq!(fails, 3);
        assert_eq!(succeeds, 5);
        // No duplicates.
        let set: std::collections::HashSet<_> = history.iter().map(|(i, _)| i).collect();
        assert_eq!(set.len(), history.len());
    }

    #[test]
    fn categorical_causes_use_valid_comparators() {
        for seed in 0..40 {
            let pipe = SyntheticPipeline::generate(&SynthConfig::default(), seed);
            let space = pipe.space();
            for conjunct in pipe.truth().failure_dnf().conjuncts() {
                for pred in conjunct.predicates() {
                    if space.domain(pred.param).kind() == DomainKind::Categorical {
                        assert!(!pred.cmp.needs_order());
                    }
                }
            }
        }
    }
}
