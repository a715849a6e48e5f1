//! Integration tests for the constrained execution regimes: instance
//! budgets (paper §5's budget-matched evaluation), historical replay with
//! early stop (§5.3), and fault injection.

use bugdoc::engine::FaultInjector;
use bugdoc::pipelines::{DbSherlockConfig, DbSherlockDataset};
use bugdoc::prelude::*;
use bugdoc::synth::{CauseScenario, SynthConfig, SyntheticPipeline};
use std::sync::Arc;

fn synthetic(seed: u64) -> Arc<SyntheticPipeline> {
    Arc::new(SyntheticPipeline::generate(
        &SynthConfig {
            scenario: CauseScenario::SingleConjunction,
            n_params: (4, 6),
            n_values: (5, 8),
            ..SynthConfig::default()
        },
        seed,
    ))
}

fn seeded_exec(pipe: &Arc<SyntheticPipeline>, budget: Option<usize>) -> Executor {
    let seeds = pipe.seed_history(2, 6, 99);
    let mut prov = ProvenanceStore::new(pipe.space().clone());
    for (inst, eval) in &seeds {
        prov.record(inst.clone(), *eval);
    }
    Executor::with_provenance(
        pipe.clone() as Arc<dyn Pipeline>,
        ExecutorConfig { workers: 4, budget, ..Default::default() },
        prov,
    )
}

/// Every algorithm respects a hard instance budget and still terminates
/// with a best-effort report.
#[test]
fn all_algorithms_respect_budget() {
    for budget in [0usize, 1, 3, 10] {
        let pipe = synthetic(42);
        let exec = seeded_exec(&pipe, Some(budget));
        let _ = stacked_shortcut(&exec, &StackedConfig::default());
        assert!(
            exec.stats().new_executions <= budget,
            "stacked overran budget {budget}"
        );

        let pipe = synthetic(42);
        let exec = seeded_exec(&pipe, Some(budget));
        let _ = debugging_decision_trees(&exec, &DdtConfig::default());
        assert!(
            exec.stats().new_executions <= budget,
            "ddt overran budget {budget}"
        );

        let pipe = synthetic(42);
        let exec = seeded_exec(&pipe, Some(budget));
        let _ = diagnose(&exec, &BugDocConfig::default());
        assert!(
            exec.stats().new_executions <= budget,
            "driver overran budget {budget}"
        );
    }
}

/// Budgeted runs never assert a cause contradicted by the data they saw.
#[test]
fn budgeted_assertions_have_no_succeeding_superset() {
    for seed in [1u64, 2, 3, 4] {
        let pipe = synthetic(seed);
        let exec = seeded_exec(&pipe, Some(15));
        if let Ok(diag) = diagnose(&exec, &BugDocConfig::default()) {
            let prov = exec.provenance();
            for cause in diag.causes.conjuncts() {
                assert!(
                    !prov.succeeding_superset_exists(&cause.canonicalize(prov.space())),
                    "seed {seed}: asserted cause contradicted by history"
                );
            }
        }
    }
}

/// Historical replay: requests outside the log early-stop, nothing outside
/// the replayable set is ever recorded, and the holdout stays untouched.
#[test]
fn replay_early_stop_and_isolation() {
    let dataset = DbSherlockDataset::generate(&DbSherlockConfig {
        n_classes: 3,
        logs_per_class: 15,
        normal_logs: 90,
        ..Default::default()
    });
    let problem = dataset.problem(0);
    let replay = problem.historical_pipeline();
    let exec = Executor::with_provenance(
        Arc::new(replay) as Arc<dyn Pipeline>,
        ExecutorConfig::default(),
        problem.initial_provenance(),
    );
    let _ = diagnose(&exec, &BugDocConfig::default());

    // Everything recorded must come from train ∪ budget_pool.
    let allowed: std::collections::HashSet<&Instance> = problem
        .train
        .iter()
        .chain(problem.budget_pool.iter())
        .map(|(i, _)| i)
        .collect();
    let prov = exec.provenance();
    for run in prov.runs() {
        assert!(
            allowed.contains(&run.instance),
            "executed an instance outside the replayable set"
        );
    }
    // Holdout instances were never touched.
    for (inst, _) in &problem.holdout {
        assert!(prov.lookup(inst).is_none(), "holdout instance leaked");
    }
}

/// Fault injection: with a fraction of instances unavailable, the algorithms
/// still terminate and asserted causes still respect the observed data.
#[test]
fn fault_injection_robustness() {
    for fraction in [0.2, 0.5, 0.8] {
        let pipe = synthetic(7);
        let space = pipe.space().clone();
        let truth = pipe.truth().clone();
        let injected = FaultInjector::new(
            SyntheticPipeline::generate(
                &SynthConfig {
                    scenario: CauseScenario::SingleConjunction,
                    n_params: (4, 6),
                    n_values: (5, 8),
                    ..SynthConfig::default()
                },
                7,
            ),
            fraction,
        );
        let mut prov = ProvenanceStore::new(space.clone());
        for (inst, eval) in pipe.seed_history(2, 6, 99) {
            prov.record(inst, eval);
        }
        let exec = Executor::with_provenance(
            Arc::new(injected) as Arc<dyn Pipeline>,
            ExecutorConfig::default(),
            prov,
        );
        let result = diagnose(&exec, &BugDocConfig::default());
        if let Ok(diag) = result {
            let prov = exec.provenance();
            for cause in diag.causes.conjuncts() {
                assert!(!prov.succeeding_superset_exists(&cause.canonicalize(prov.space())));
            }
            let _ = truth; // ground truth available for manual inspection
        }
        assert!(exec.stats().unavailable > 0 || fraction < 0.5);
    }
}

/// The virtual clock: a 5-worker run of the same workload takes at most the
/// 1-worker virtual time and at least a fifth of it.
#[test]
fn virtual_clock_bounds() {
    let run = |workers: usize| {
        let pipe = Arc::new(SyntheticPipeline::generate(
            &SynthConfig {
                scenario: CauseScenario::SingleConjunction,
                n_params: (5, 5),
                n_values: (5, 6),
                instance_cost: SimTime::from_mins(20.0),
                ..SynthConfig::default()
            },
            3,
        ));
        let seeds = pipe.seed_history(2, 6, 1);
        let mut prov = ProvenanceStore::new(pipe.space().clone());
        for (inst, eval) in &seeds {
            prov.record(inst.clone(), *eval);
        }
        let exec = Executor::with_provenance(
            pipe.clone() as Arc<dyn Pipeline>,
            ExecutorConfig {
                workers,
                budget: None,
                ..Default::default()
            },
            prov,
        );
        let _ = debugging_decision_trees(
            &exec,
            &DdtConfig {
                mode: DdtMode::FindAll,
                seed: 3,
                ..DdtConfig::default()
            },
        );
        let stats = exec.stats();
        (stats.sim_time.secs(), stats.new_executions)
    };
    let (t1, n1) = run(1);
    let (t5, n5) = run(5);
    assert_eq!(n1, n5, "same deterministic workload");
    assert!(t5 <= t1 + 1e-9);
    assert!(t5 * 5.0 >= t1 - 1e-9, "speedup cannot exceed worker count");
}
