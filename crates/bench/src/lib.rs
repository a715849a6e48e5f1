//! # bugdoc-bench
//!
//! The benchmark harness: one binary per table/figure of the paper's
//! evaluation (run them with `cargo run --release -p bugdoc-bench --bin
//! <name>`).
//!
//! | target | reproduces |
//! |---|---|
//! | `table1_2` | §4.1 Tables 1 and 2 (Shortcut on the Figure-1 pipeline) |
//! | `fig2` | §5.1 Figure 2 — FindOne metrics, three cause scenarios |
//! | `fig3` | §5.1 Figure 3 — FindAll metrics, disjunction scenario |
//! | `fig4` | §5.1 Figure 4 — conciseness of explanations |
//! | `fig5` | §5.2 Figure 5 — instances vs number of parameters |
//! | `fig6` | §5.2 Figure 6 — DDT speedup vs worker count |
//! | `fig7` | §5.3 Figure 7 — real-world pipelines |
//! | `dbsherlock_accuracy` | §5.3 — 98% holdout accuracy claim |
//! | `ablations` | DESIGN.md §6 — design-choice ablations |
//! | `run_all` | everything above, in sequence |

#![warn(missing_docs)]

pub mod perf;

use bugdoc_algorithms::{diagnose, BugDocConfig};
use bugdoc_baselines::{dataxray, exptables};
use bugdoc_core::{Conjunction, ParamSpace, ProvenanceStore};
use bugdoc_engine::{Executor, ExecutorConfig, Pipeline};
use bugdoc_eval::{score_assertions, PipelineScore};
use bugdoc_synth::Truth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Tiny CLI parsing shared by the figure binaries: `--pipelines N`,
/// `--seed S`, `--full` (paper-scale parameter ranges).
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    /// Number of synthetic pipelines per scenario.
    pub pipelines: usize,
    /// Base seed.
    pub seed: u64,
    /// Use the paper's full parameter ranges (slower).
    pub full: bool,
}

impl BenchArgs {
    /// Parses `std::env::args`, with the given default pipeline count.
    pub fn parse(default_pipelines: usize) -> Self {
        let mut args = BenchArgs {
            pipelines: default_pipelines,
            seed: 0,
            full: false,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--pipelines" => {
                    i += 1;
                    args.pipelines = argv[i].parse().expect("--pipelines takes a number");
                }
                "--seed" => {
                    i += 1;
                    args.seed = argv[i].parse().expect("--seed takes a number");
                }
                "--full" => args.full = true,
                other => panic!("unknown argument {other:?}"),
            }
            i += 1;
        }
        args
    }

    /// Synthetic generator ranges: compact for quick runs, the paper's 3–15
    /// params × 5–30 values under `--full`.
    pub fn synth_ranges(&self) -> ((usize, usize), (usize, usize)) {
        if self.full {
            ((3, 15), (5, 30))
        } else {
            ((3, 8), (5, 12))
        }
    }
}

/// Seeds an executor history for a real-world pipeline: random probing until
/// the history holds `n_fail` failing and `n_succeed` succeeding instances
/// (ground-truth witnesses guarantee termination).
pub fn seeded_executor(
    pipeline: Arc<dyn Pipeline>,
    truth: &Truth,
    n_fail: usize,
    n_succeed: usize,
    workers: usize,
    seed: u64,
) -> Executor {
    let space = pipeline.space().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prov = ProvenanceStore::new(space.clone());
    let mut guard = 0;
    // Stratified across the planted causes so the history witnesses each
    // failure kind at least once — the realistic "we have seen several
    // distinct bad runs" starting point.
    let n_causes = truth.len().max(1);
    while prov.num_failing() < n_fail && guard < 500 {
        let cause_idx = guard % n_causes;
        guard += 1;
        if let Some(inst) = truth.sample_failing_cause(&space, cause_idx, &mut rng) {
            if prov.lookup(&inst).is_none() {
                let eval = pipeline.execute(&inst).expect("simulators always run");
                prov.record(inst, eval);
            }
        } else {
            break;
        }
    }
    let mut guard = 0;
    while prov.num_succeeding() < n_succeed && guard < 500 {
        guard += 1;
        if let Some(inst) = truth.sample_succeeding(&space, &mut rng) {
            if prov.lookup(&inst).is_none() {
                let eval = pipeline.execute(&inst).expect("simulators always run");
                prov.record(inst, eval);
            }
        } else {
            break;
        }
    }
    Executor::with_provenance(
        pipeline,
        ExecutorConfig {
            workers,
            budget: None,
            ..Default::default()
        },
        prov,
    )
}

/// Per-method scores for one real-world pipeline (Figure 7's comparison).
pub struct RealWorldScores {
    /// Pipeline display name.
    pub name: String,
    /// BugDoc (Stacked Shortcut + DDT combined).
    pub bugdoc: PipelineScore,
    /// Data X-Ray on BugDoc's instances.
    pub dataxray: PipelineScore,
    /// Explanation Tables on BugDoc's instances.
    pub exptables: PipelineScore,
    /// BugDoc's asserted causes (rendered), for the report.
    pub bugdoc_causes: Vec<String>,
    /// New instances BugDoc executed.
    pub new_executions: usize,
}

/// Runs the Figure-7 comparison on one executable pipeline: combined BugDoc,
/// then the explainers on BugDoc's provenance (the paper omits the SMAC
/// configurations for the real-world cases).
pub fn real_world_comparison(
    name: &str,
    pipeline: Arc<dyn Pipeline>,
    truth: &Truth,
    seed: u64,
) -> RealWorldScores {
    let space = pipeline.space().clone();
    let exec = seeded_executor(pipeline, truth, 3, 8, 5, seed);
    let diag = diagnose(&exec, &BugDocConfig::default()).expect("diagnosis runs");
    let bugdoc_causes: Vec<Conjunction> = diag.causes.conjuncts().to_vec();
    let prov = exec.provenance();
    let xray = dataxray::explain(&prov, &Default::default());
    let et = exptables::explain(&prov, &Default::default());
    RealWorldScores {
        name: name.to_string(),
        bugdoc: score_assertions(&space, truth, &bugdoc_causes),
        dataxray: score_assertions(&space, truth, &xray),
        exptables: score_assertions(&space, truth, &et),
        bugdoc_causes: bugdoc_causes
            .iter()
            .map(|c| c.display(&space).to_string())
            .collect(),
        new_executions: diag.new_executions,
    }
}

/// A uniformly random instance (used by ablation sweeps).
pub fn random_instance(space: &ParamSpace, rng: &mut StdRng) -> bugdoc_core::Instance {
    let indices: Vec<u32> = space
        .ids()
        .map(|p| rng.gen_range(0..space.domain(p).len()) as u32)
        .collect();
    space.instance_from_owned_indices(indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_pipelines::MlPipeline;

    #[test]
    fn seeded_executor_has_both_outcomes() {
        let pipe = Arc::new(MlPipeline::new());
        let truth = pipe.truth().clone();
        let exec = seeded_executor(pipe, &truth, 2, 4, 2, 1);
        exec.with_provenance_ref(|p| {
            assert!(p.failing().count() >= 2);
            assert!(p.succeeding().count() >= 4);
        });
    }

    #[test]
    fn real_world_comparison_on_mlpipe() {
        let pipe = Arc::new(MlPipeline::new());
        let truth = pipe.truth().clone();
        let scores = real_world_comparison("ml", pipe, &truth, 3);
        // BugDoc should find at least one of the two causes on this small
        // pipeline, usually both.
        assert!(scores.bugdoc.n_correct >= 1, "causes: {:?}", scores.bugdoc_causes);
        assert!(scores.new_executions > 0);
    }
}
