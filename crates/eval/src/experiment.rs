//! The budget-matched synthetic comparison (paper §5.1, Figures 2–4).
//!
//! "Our first set of tests allows BugDoc to find at least one minimal
//! definitive root cause using each of its algorithms (Shortcut, Stacked
//! Shortcut, and Debugging Decision Trees). The experiment then grants the
//! same number of instances to all other methods. Thus, the precision and
//! recall for each algorithm is based on the same instance budget. In these
//! tests, Data X-Ray and Explanation Tables are given (i) the instances
//! generated by BugDoc and, in a separate test, (ii) the instances generated
//! by SMAC."
//!
//! For every synthetic pipeline the runner therefore produces, per *budget
//! group* (Shortcut / Stacked / DDT), assertions from seven methods: the
//! BugDoc algorithm that set the budget, plus {Data X-Ray, Explanation
//! Tables} × {BugDoc-generated instances, SMAC-generated instances}.

use crate::metrics::{
    find_all_metrics, find_one_metrics, score_assertions, Conciseness, Metrics, PipelineScore,
};
use bugdoc_algorithms::{
    debugging_decision_trees, shortcut, stacked_shortcut, DdtConfig, DdtMode, ShortcutConfig,
    StackedConfig,
};
use bugdoc_baselines::{dataxray, exptables, smac};
use bugdoc_core::{Conjunction, ProvenanceStore};
use bugdoc_engine::{Executor, ExecutorConfig, Pipeline};
use bugdoc_synth::{CauseScenario, SynthConfig, SyntheticPipeline};
use std::sync::Arc;

/// The two evaluation goals (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Goal {
    /// Find at least one minimal definitive root cause per pipeline.
    FindOne,
    /// Find all minimal definitive root causes.
    FindAll,
}

/// The three budget groups — one per BugDoc algorithm, as on the x-axes of
/// Figures 2 and 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetGroup {
    /// As many instances as Shortcut used.
    Shortcut,
    /// As many as Stacked Shortcut (four shortcuts) used.
    Stacked,
    /// As many as Debugging Decision Trees used.
    Ddt,
}

impl BudgetGroup {
    /// All groups in figure order.
    pub const ALL: [BudgetGroup; 3] = [BudgetGroup::Shortcut, BudgetGroup::Stacked, BudgetGroup::Ddt];

    /// Axis label.
    pub fn label(self) -> &'static str {
        match self {
            BudgetGroup::Shortcut => "Shortcut",
            BudgetGroup::Stacked => "Stacked Shortcut",
            BudgetGroup::Ddt => "Debugging Decision Trees",
        }
    }
}

/// The compared methods (bars within a group in Figures 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// The BugDoc algorithm that defined this group's budget.
    BugDoc,
    /// Data X-Ray on the instances generated by BugDoc.
    DataXRayBugDoc,
    /// Data X-Ray on the instances generated by SMAC.
    DataXRaySmac,
    /// Explanation Tables on the instances generated by BugDoc.
    ExpTablesBugDoc,
    /// Explanation Tables on the instances generated by SMAC.
    ExpTablesSmac,
}

impl Method {
    /// All methods in legend order.
    pub const ALL: [Method; 5] = [
        Method::BugDoc,
        Method::DataXRayBugDoc,
        Method::DataXRaySmac,
        Method::ExpTablesBugDoc,
        Method::ExpTablesSmac,
    ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Method::BugDoc => "BugDoc",
            Method::DataXRayBugDoc => "DataXRay+BugDoc",
            Method::DataXRaySmac => "DataXRay+SMAC",
            Method::ExpTablesBugDoc => "ExpTables+BugDoc",
            Method::ExpTablesSmac => "ExpTables+SMAC",
        }
    }
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Pipelines per scenario (`|UCP|`).
    pub n_pipelines: usize,
    /// Root-cause shape.
    pub scenario: CauseScenario,
    /// FindOne or FindAll.
    pub goal: Goal,
    /// Failing / succeeding instances in the seeded history.
    pub seed_fails: usize,
    /// Succeeding instances in the seeded history.
    pub seed_succeeds: usize,
    /// Worker pool size (paper: 5).
    pub workers: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Generator settings (parameter/value ranges).
    pub synth: SynthConfig,
}

impl ExperimentConfig {
    /// A configuration with the paper's defaults for a given scenario/goal.
    pub fn new(scenario: CauseScenario, goal: Goal) -> Self {
        ExperimentConfig {
            n_pipelines: 20,
            scenario,
            goal,
            seed_fails: 2,
            seed_succeeds: 6,
            workers: 5,
            seed: 0,
            synth: SynthConfig {
                scenario,
                ..SynthConfig::default()
            },
        }
    }
}

/// Accumulated results for one method within one budget group.
#[derive(Debug, Clone, Default)]
pub struct MethodAggregate {
    /// Per-pipeline tallies.
    pub scores: Vec<PipelineScore>,
    /// Per-pipeline assertion sets with `|R|` (for Figure 4).
    pub assertions: Vec<(Vec<Conjunction>, usize)>,
}

/// Results for one budget group.
#[derive(Debug, Clone)]
pub struct GroupResults {
    /// Which group.
    pub group: BudgetGroup,
    /// Mean instance budget the BugDoc algorithm consumed.
    pub mean_budget: f64,
    /// Aggregates per method (indexed like [`Method::ALL`]).
    pub methods: Vec<(Method, MethodAggregate)>,
}

impl GroupResults {
    /// Metrics of one method under the experiment's goal.
    pub fn metrics(&self, method: Method, goal: Goal) -> Metrics {
        let agg = &self
            .methods
            .iter()
            .find(|(m, _)| *m == method)
            .expect("method present")
            .1;
        match goal {
            Goal::FindOne => find_one_metrics(&agg.scores),
            Goal::FindAll => find_all_metrics(&agg.scores),
        }
    }
}

/// Results of a full scenario run.
pub struct ScenarioResults {
    /// The configuration used.
    pub config: ExperimentConfig,
    /// One entry per budget group.
    pub groups: Vec<GroupResults>,
}

impl ScenarioResults {
    /// Figure-4 conciseness per method, pooled across budget groups.
    pub fn conciseness_table(&self) -> Vec<(Method, Conciseness)> {
        // `MethodAggregate.assertions` stores, per pipeline, causes rewritten
        // into a canonical parameter-count-preserving form (see run_scenario)
        // along with |R|; conciseness() only needs parameter counts and
        // ratios, both invariant under that rewriting.
        Method::ALL
            .iter()
            .map(|&m| {
                let mut pooled: Vec<(Vec<Conjunction>, usize)> = Vec::new();
                for group in &self.groups {
                    if let Some((_, agg)) = group.methods.iter().find(|(mm, _)| *mm == m) {
                        pooled.extend(agg.assertions.iter().cloned());
                    }
                }
                (m, pooled_conciseness(&pooled))
            })
            .collect()
    }
}

/// Conciseness over pre-canonicalized assertion sets: parameter counts are
/// read off the stored conjunctions directly (their predicates were rewritten
/// one-per-parameter by the runner).
fn pooled_conciseness(per_pipeline: &[(Vec<Conjunction>, usize)]) -> Conciseness {
    let mut param_counts: Vec<f64> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    for (asserted, n_actual) in per_pipeline {
        for cause in asserted {
            let distinct: std::collections::HashSet<_> =
                cause.predicates().iter().map(|p| p.param).collect();
            param_counts.push(distinct.len() as f64);
        }
        if !asserted.is_empty() && *n_actual > 0 {
            ratios.push((asserted.len() as f64 / *n_actual as f64).log10());
        }
    }
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    Conciseness {
        params_per_cause: mean(&param_counts),
        log_asserted_per_actual: mean(&ratios),
    }
}

/// Runs the full budget-matched comparison for one scenario.
pub fn run_scenario(config: &ExperimentConfig) -> ScenarioResults {
    let mut groups: Vec<GroupResults> = BudgetGroup::ALL
        .iter()
        .map(|&g| GroupResults {
            group: g,
            mean_budget: 0.0,
            methods: Method::ALL
                .iter()
                .map(|&m| (m, MethodAggregate::default()))
                .collect(),
        })
        .collect();
    let mut budget_sums = [0usize; 3];

    for k in 0..config.n_pipelines {
        let pipe_seed = config.seed.wrapping_add(k as u64).wrapping_mul(2654435761);
        let pipeline = Arc::new(SyntheticPipeline::generate(&config.synth, pipe_seed));
        let truth = pipeline.truth().clone();
        let space = pipeline.space().clone();
        let seeds = pipeline.seed_history(config.seed_fails, config.seed_succeeds, pipe_seed ^ 0xbeef);
        let seed_prov = || {
            let mut prov = ProvenanceStore::new(space.clone());
            for (inst, eval) in &seeds {
                prov.record(inst.clone(), *eval);
            }
            prov
        };
        let fresh_exec = |budget: Option<usize>| {
            Executor::with_provenance(
                pipeline.clone() as Arc<dyn Pipeline>,
                ExecutorConfig {
                    workers: config.workers,
                    budget,
                    ..Default::default()
                },
                seed_prov(),
            )
        };

        for (gi, group) in BudgetGroup::ALL.iter().enumerate() {
            // 1. Run the BugDoc algorithm that defines this group's budget.
            let exec = fresh_exec(None);
            let bugdoc_causes: Vec<Conjunction> = match group {
                BudgetGroup::Shortcut => run_plain_shortcut(&exec),
                BudgetGroup::Stacked => {
                    match stacked_shortcut(
                        &exec,
                        &StackedConfig {
                            seed: pipe_seed,
                            ..StackedConfig::default()
                        },
                    ) {
                        Ok(r) => r.cause.into_iter().collect(),
                        Err(_) => Vec::new(),
                    }
                }
                BudgetGroup::Ddt => {
                    let mode = match config.goal {
                        Goal::FindOne => DdtMode::FindOne,
                        Goal::FindAll => DdtMode::FindAll,
                    };
                    match debugging_decision_trees(
                        &exec,
                        &DdtConfig {
                            mode,
                            seed: pipe_seed,
                            ..DdtConfig::default()
                        },
                    ) {
                        Ok(r) => r.causes.conjuncts().to_vec(),
                        Err(_) => Vec::new(),
                    }
                }
            };
            let budget = exec.stats().new_executions;
            budget_sums[gi] += budget;
            let bugdoc_prov = exec.provenance();

            // 2. SMAC generates the same number of instances from the same
            //    seeded history.
            let smac_exec = fresh_exec(Some(budget));
            smac::generate(
                &smac_exec,
                budget,
                &smac::SmacConfig {
                    seed: pipe_seed,
                    ..Default::default()
                },
            );
            let smac_prov = smac_exec.provenance();

            // 3. The explainers analyze both histories.
            let xray_bugdoc = dataxray::explain(&bugdoc_prov, &Default::default());
            let xray_smac = dataxray::explain(&smac_prov, &Default::default());
            let et_bugdoc = exptables::explain(&bugdoc_prov, &Default::default());
            let et_smac = exptables::explain(&smac_prov, &Default::default());

            // 4. Score everything.
            for (method, causes) in [
                (Method::BugDoc, &bugdoc_causes),
                (Method::DataXRayBugDoc, &xray_bugdoc),
                (Method::DataXRaySmac, &xray_smac),
                (Method::ExpTablesBugDoc, &et_bugdoc),
                (Method::ExpTablesSmac, &et_smac),
            ] {
                let score = score_assertions(&space, &truth, causes);
                let agg = &mut groups[gi]
                    .methods
                    .iter_mut()
                    .find(|(m, _)| *m == method)
                    .expect("method present")
                    .1;
                agg.scores.push(score);
                // For conciseness, store causes in canonical form (one
                // predicate run per parameter) so parameter counts survive
                // without the space.
                let canonical: Vec<Conjunction> = causes
                    .iter()
                    .filter_map(|c| bugdoc_qm::simplify_conjunction(&space, c))
                    .collect();
                agg.assertions.push((canonical, truth.len()));
            }
        }
    }

    for (gi, group) in groups.iter_mut().enumerate() {
        group.mean_budget = budget_sums[gi] as f64 / config.n_pipelines as f64;
    }
    ScenarioResults {
        config: config.clone(),
        groups,
    }
}

/// Plain Shortcut with the history's first failing instance and its first
/// disjoint success (falling back to the most-different success).
fn run_plain_shortcut(exec: &Executor) -> Vec<Conjunction> {
    let Some(cp_f) = exec.with_provenance_ref(|p| p.first_failing()) else {
        return Vec::new();
    };
    let cp_g = exec.with_provenance_ref(|p| {
        p.disjoint_successes(&cp_f)
            .next()
            .or_else(|| p.most_different_success(&cp_f))
    });
    let Some(cp_g) = cp_g else { return Vec::new() };
    match shortcut(exec, &cp_f, &cp_g, &ShortcutConfig::default()) {
        Ok(report) => report.cause.into_iter().collect(),
        Err(_) => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(scenario: CauseScenario, goal: Goal) -> ExperimentConfig {
        ExperimentConfig {
            n_pipelines: 4,
            synth: SynthConfig {
                scenario,
                n_params: (3, 5),
                n_values: (5, 8),
                ..SynthConfig::default()
            },
            ..ExperimentConfig::new(scenario, goal)
        }
    }

    #[test]
    fn single_triple_scenario_runs_and_bugdoc_dominates() {
        let results = run_scenario(&tiny_config(CauseScenario::SingleTriple, Goal::FindOne));
        assert_eq!(results.groups.len(), 3);
        for group in &results.groups {
            assert!(group.mean_budget > 0.0);
            let bugdoc = group.metrics(Method::BugDoc, Goal::FindOne);
            // Shortcut cannot express ≠/≤ causes (equality assertions only),
            // so its group's recall is merely positive; DDT should find most.
            let floor = match group.group {
                BudgetGroup::Ddt => 0.5,
                _ => 0.2,
            };
            assert!(
                bugdoc.recall > floor,
                "{}: BugDoc recall {}",
                group.group.label(),
                bugdoc.recall
            );
        }
        // The headline claim: BugDoc dominates on F-measure in the DDT group.
        let ddt = &results.groups[2];
        let bugdoc_f = ddt.metrics(Method::BugDoc, Goal::FindOne).f_measure;
        for m in [Method::DataXRaySmac, Method::ExpTablesSmac] {
            let other = ddt.metrics(m, Goal::FindOne).f_measure;
            assert!(
                bugdoc_f >= other - 1e-9,
                "BugDoc {bugdoc_f} vs {} {other}",
                m.label()
            );
        }
    }

    #[test]
    fn find_all_disjunction_scenario_runs() {
        let results = run_scenario(&tiny_config(
            CauseScenario::DisjunctionOfConjunctions,
            Goal::FindAll,
        ));
        let ddt = &results.groups[2];
        let m = ddt.metrics(Method::BugDoc, Goal::FindAll);
        assert!(m.recall > 0.0, "DDT FindAll recall {}", m.recall);
        // Conciseness table is computable.
        let table = results.conciseness_table();
        assert_eq!(table.len(), Method::ALL.len());
        let bugdoc_c = table
            .iter()
            .find(|(m, _)| *m == Method::BugDoc)
            .unwrap()
            .1;
        assert!(bugdoc_c.params_per_cause >= 0.0);
    }

    #[test]
    fn budgets_are_matched_across_methods() {
        // The SMAC histories must contain (seed + budget) instances, the same
        // count as the BugDoc histories — verified indirectly: groups report
        // a positive mean budget and all methods have one score per pipeline.
        let results = run_scenario(&tiny_config(CauseScenario::SingleConjunction, Goal::FindOne));
        for group in &results.groups {
            for (_, agg) in &group.methods {
                assert_eq!(agg.scores.len(), results.config.n_pipelines);
            }
        }
    }
}
