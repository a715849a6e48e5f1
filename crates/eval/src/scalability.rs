//! The scalability studies (paper §5.2, Figures 5 and 6).
//!
//! * **Figure 5** — instances executed per algorithm as the parameter count
//!   grows: Shortcut and Stacked Shortcut are linear by construction; DDT
//!   "has no simple relationship with root causes and could be exponential".
//! * **Figure 6** — speedup of DDT FindAll as execution workers are added.
//!   The engine's virtual clock measures the makespan of the verification
//!   batches at a fixed per-instance cost, which is exactly the quantity a
//!   wall clock would measure on slow real pipelines.

use bugdoc_algorithms::{
    debugging_decision_trees, shortcut, stacked_shortcut, DdtConfig, DdtMode, ShortcutConfig,
    StackedConfig,
};
use bugdoc_engine::{Executor, ExecutorConfig, Pipeline, SimTime};
use bugdoc_synth::{CauseScenario, SynthConfig, SyntheticPipeline};
use std::sync::Arc;

/// One Figure-5 data point: mean instances executed at a parameter count.
#[derive(Debug, Clone, Copy)]
pub struct InstanceCount {
    /// Number of pipeline parameters.
    pub n_params: usize,
    /// Mean new executions by Shortcut.
    pub shortcut: f64,
    /// Mean new executions by Stacked Shortcut (k = 4).
    pub stacked: f64,
    /// Mean new executions by Debugging Decision Trees (FindAll).
    pub ddt: f64,
}

/// Runs the Figure-5 sweep: `repeats` pipelines per parameter count.
pub fn instances_vs_params(
    param_counts: &[usize],
    repeats: usize,
    seed: u64,
) -> Vec<InstanceCount> {
    param_counts
        .iter()
        .map(|&n_params| {
            let mut sums = [0usize; 3];
            for r in 0..repeats {
                let pipe_seed = seed
                    .wrapping_add((n_params * 1000 + r) as u64)
                    .wrapping_mul(0x9e3779b97f4a7c15);
                let config = SynthConfig {
                    n_params: (n_params, n_params),
                    n_values: (5, 10),
                    scenario: CauseScenario::SingleConjunction,
                    ..SynthConfig::default()
                };
                let pipeline = Arc::new(SyntheticPipeline::generate(&config, pipe_seed));
                let seeds = pipeline.seed_history(2, 6, pipe_seed ^ 0xfeed);

                for (idx, algo) in ["shortcut", "stacked", "ddt"].iter().enumerate() {
                    let mut prov =
                        bugdoc_core::ProvenanceStore::new(pipeline.space().clone());
                    for (inst, eval) in &seeds {
                        prov.record(inst.clone(), *eval);
                    }
                    let exec = Executor::with_provenance(
                        pipeline.clone() as Arc<dyn Pipeline>,
                        ExecutorConfig {
                            workers: 5,
                            budget: None,
                            ..Default::default()
                        },
                        prov,
                    );
                    match *algo {
                        "shortcut" => {
                            let cp_f =
                                exec.with_provenance_ref(|p| p.first_failing()).unwrap();
                            let cp_g = exec.with_provenance_ref(|p| {
                                p.disjoint_successes(&cp_f)
                                    .next()
                                    .or_else(|| p.most_different_success(&cp_f))
                            });
                            if let Some(cp_g) = cp_g {
                                let _ = shortcut(&exec, &cp_f, &cp_g, &ShortcutConfig::default());
                            }
                        }
                        "stacked" => {
                            let _ = stacked_shortcut(
                                &exec,
                                &StackedConfig {
                                    seed: pipe_seed,
                                    ..StackedConfig::default()
                                },
                            );
                        }
                        _ => {
                            let _ = debugging_decision_trees(
                                &exec,
                                &DdtConfig {
                                    mode: DdtMode::FindAll,
                                    seed: pipe_seed,
                                    ..DdtConfig::default()
                                },
                            );
                        }
                    }
                    sums[idx] += exec.stats().new_executions;
                }
            }
            InstanceCount {
                n_params,
                shortcut: sums[0] as f64 / repeats as f64,
                stacked: sums[1] as f64 / repeats as f64,
                ddt: sums[2] as f64 / repeats as f64,
            }
        })
        .collect()
}

/// One Figure-6 data point: DDT FindAll under a worker count.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupPoint {
    /// Execution workers (cores).
    pub workers: usize,
    /// Mean virtual makespan (seconds) of the run.
    pub sim_time_secs: f64,
    /// Mean instances executed.
    pub instances: f64,
    /// Mean instances processed per core.
    pub instances_per_core: f64,
    /// Speedup relative to the 1-worker run.
    pub speedup: f64,
}

/// Runs the Figure-6 sweep: DDT FindAll on the same pipelines at each worker
/// count, with a fixed 20-minute per-instance cost (the Data Polygamy rate).
pub fn ddt_speedup(worker_counts: &[usize], repeats: usize, seed: u64) -> Vec<SpeedupPoint> {
    let mut points: Vec<SpeedupPoint> = Vec::new();
    let mut base_time: Option<f64> = None;
    for &workers in worker_counts {
        let mut time_sum = 0.0;
        let mut inst_sum = 0usize;
        for r in 0..repeats {
            let pipe_seed = seed
                .wrapping_add(r as u64)
                .wrapping_mul(0x9e3779b97f4a7c15);
            let config = SynthConfig {
                n_params: (6, 6),
                n_values: (5, 8),
                scenario: CauseScenario::DisjunctionOfConjunctions,
                instance_cost: SimTime::from_mins(20.0),
                ..SynthConfig::default()
            };
            let pipeline = Arc::new(SyntheticPipeline::generate(&config, pipe_seed));
            let seeds = pipeline.seed_history(2, 6, pipe_seed ^ 0xfeed);
            let mut prov = bugdoc_core::ProvenanceStore::new(pipeline.space().clone());
            for (inst, eval) in &seeds {
                prov.record(inst.clone(), *eval);
            }
            let exec = Executor::with_provenance(
                pipeline.clone() as Arc<dyn Pipeline>,
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
                    verification_samples: 16,
                    seed: pipe_seed,
                    ..DdtConfig::default()
                },
            );
            let stats = exec.stats();
            time_sum += stats.sim_time.secs();
            inst_sum += stats.new_executions;
        }
        let mean_time = time_sum / repeats as f64;
        let mean_inst = inst_sum as f64 / repeats as f64;
        let base = *base_time.get_or_insert(mean_time);
        points.push(SpeedupPoint {
            workers,
            sim_time_secs: mean_time,
            instances: mean_inst,
            instances_per_core: mean_inst / workers as f64,
            speedup: if mean_time > 0.0 { base / mean_time } else { 1.0 },
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shortcut_family_is_linear_in_params() {
        let points = instances_vs_params(&[3, 6, 9], 3, 7);
        assert_eq!(points.len(), 3);
        // Shortcut executes ≤ |P| instances per run (walk) and Stacked ≤
        // k·|P| + probes; both grow with |P| but stay near-linear.
        for p in &points {
            assert!(
                p.shortcut <= p.n_params as f64 + 1.0,
                "shortcut used {} at {} params",
                p.shortcut,
                p.n_params
            );
            assert!(p.stacked >= p.shortcut * 0.9, "stacking runs more walks");
        }
        // Monotone-ish growth for shortcut between the extremes.
        assert!(points[2].shortcut >= points[0].shortcut * 0.9);
    }

    #[test]
    fn ddt_uses_more_instances_than_shortcut() {
        let points = instances_vs_params(&[5], 3, 11);
        assert!(points[0].ddt >= points[0].shortcut);
    }

    #[test]
    fn speedup_grows_with_workers() {
        let points = ddt_speedup(&[1, 4], 2, 3);
        assert_eq!(points.len(), 2);
        assert!((points[0].speedup - 1.0).abs() < 1e-9);
        assert!(
            points[1].speedup > 1.2,
            "4 workers gave speedup {}",
            points[1].speedup
        );
        assert!(points[1].instances_per_core < points[0].instances_per_core);
    }
}
