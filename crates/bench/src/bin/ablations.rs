//! Ablation benches for the design choices called out in `DESIGN.md` §6:
//!
//! 1. Shortcut with a truly disjoint `CP_g` vs the most-different heuristic;
//! 2. Stacked Shortcut depth k ∈ {1, 2, 4, 8};
//! 3. DDT verification sample size and prototype strategy;
//! 4. Quine–McCluskey simplification on/off (explanation conciseness).
//!
//! Usage: `ablations [--pipelines N] [--seed S]`.

use bugdoc_algorithms::{
    debugging_decision_trees, shortcut, stacked_shortcut, DdtConfig, DdtMode, PrototypeStrategy,
    ShortcutConfig, StackedConfig,
};
use bugdoc_bench::BenchArgs;
use bugdoc_core::{Conjunction, ProvenanceStore};
use bugdoc_engine::{Executor, ExecutorConfig, Pipeline};
use bugdoc_eval::{find_one_metrics, score_assertions, PipelineScore, TextTable};
use bugdoc_synth::{CauseScenario, SynthConfig, SyntheticPipeline};
use std::sync::Arc;

fn main() {
    let args = BenchArgs::parse(15);
    ablate_disjointness(&args);
    ablate_stack_depth(&args);
    ablate_ddt(&args);
    ablate_qm(&args);
    ablate_speculation(&args);
}

fn pipelines(args: &BenchArgs, scenario: CauseScenario) -> Vec<Arc<SyntheticPipeline>> {
    (0..args.pipelines)
        .map(|k| {
            let seed = args.seed.wrapping_add(k as u64).wrapping_mul(0x9e3779b9);
            Arc::new(SyntheticPipeline::generate(
                &SynthConfig {
                    scenario,
                    n_params: (4, 8),
                    n_values: (5, 10),
                    ..SynthConfig::default()
                },
                seed,
            ))
        })
        .collect()
}

fn executor_for(pipe: &Arc<SyntheticPipeline>, seed: u64) -> Executor {
    let seeds = pipe.seed_history(2, 6, seed);
    let mut prov = ProvenanceStore::new(pipe.space().clone());
    for (inst, eval) in &seeds {
        prov.record(inst.clone(), *eval);
    }
    Executor::with_provenance(
        pipe.clone() as Arc<dyn Pipeline>,
        ExecutorConfig {
            workers: 5,
            budget: None,
            ..Default::default()
        },
        prov,
    )
}

/// 1. Disjoint CP_g vs the most-different heuristic.
fn ablate_disjointness(args: &BenchArgs) {
    println!("== Ablation 1 | Shortcut: disjoint CP_g vs most-different heuristic ==");
    let pipes = pipelines(args, CauseScenario::SingleTriple);
    let mut table = TextTable::new(&["CP_g selection", "precision", "recall", "F-measure"]);
    for (label, strictly_disjoint) in [("disjoint (when available)", true), ("most-different", false)]
    {
        let mut scores: Vec<PipelineScore> = Vec::new();
        for (k, pipe) in pipes.iter().enumerate() {
            let exec = executor_for(pipe, args.seed ^ (k as u64) << 8);
            let Some(cp_f) = exec.with_provenance_ref(|p| p.first_failing()) else {
                continue;
            };
            let cp_g = exec.with_provenance_ref(|p| {
                if strictly_disjoint {
                    p.disjoint_successes(&cp_f)
                        .next()
                        .or_else(|| p.most_different_success(&cp_f))
                } else {
                    p.most_different_success(&cp_f)
                }
            });
            let causes: Vec<Conjunction> = cp_g
                .and_then(|g| shortcut(&exec, &cp_f, &g, &ShortcutConfig::default()).ok())
                .and_then(|r| r.cause)
                .into_iter()
                .collect();
            scores.push(score_assertions(pipe.space(), pipe.truth(), &causes));
        }
        let m = find_one_metrics(&scores);
        table.row(vec![
            label.to_string(),
            format!("{:.3}", m.precision),
            format!("{:.3}", m.recall),
            format!("{:.3}", m.f_measure),
        ]);
    }
    println!("{}", table.render());
}

/// 2. Stacked Shortcut depth k.
fn ablate_stack_depth(args: &BenchArgs) {
    println!("== Ablation 2 | Stacked Shortcut depth k (paper uses 4) ==");
    let pipes = pipelines(args, CauseScenario::SingleConjunction);
    let mut table = TextTable::new(&["k", "precision", "recall", "F-measure", "mean instances"]);
    for k in [1usize, 2, 4, 8] {
        let mut scores: Vec<PipelineScore> = Vec::new();
        let mut instances = 0usize;
        for (i, pipe) in pipes.iter().enumerate() {
            let exec = executor_for(pipe, args.seed ^ (i as u64) << 8);
            let causes: Vec<Conjunction> = stacked_shortcut(
                &exec,
                &StackedConfig {
                    k,
                    seed: args.seed,
                    ..StackedConfig::default()
                },
            )
            .ok()
            .and_then(|r| r.cause)
            .into_iter()
            .collect();
            instances += exec.stats().new_executions;
            scores.push(score_assertions(pipe.space(), pipe.truth(), &causes));
        }
        let m = find_one_metrics(&scores);
        table.row(vec![
            k.to_string(),
            format!("{:.3}", m.precision),
            format!("{:.3}", m.recall),
            format!("{:.3}", m.f_measure),
            format!("{:.1}", instances as f64 / pipes.len() as f64),
        ]);
    }
    println!("{}", table.render());
}

/// 3. DDT verification sample size × prototype strategy.
fn ablate_ddt(args: &BenchArgs) {
    println!("== Ablation 3 | DDT verification samples × prototype strategy ==");
    let pipes = pipelines(args, CauseScenario::SingleConjunction);
    let mut table = TextTable::new(&[
        "samples",
        "prototype",
        "precision",
        "recall",
        "F-measure",
        "mean instances",
    ]);
    for samples in [4usize, 8, 16] {
        for (proto_label, proto) in [
            ("random-satisfying", PrototypeStrategy::RandomSatisfying),
            ("fixed", PrototypeStrategy::FixedPrototype),
        ] {
            let mut scores: Vec<PipelineScore> = Vec::new();
            let mut instances = 0usize;
            for (i, pipe) in pipes.iter().enumerate() {
                let exec = executor_for(pipe, args.seed ^ (i as u64) << 8);
                let causes: Vec<Conjunction> = debugging_decision_trees(
                    &exec,
                    &DdtConfig {
                        mode: DdtMode::FindOne,
                        verification_samples: samples,
                        prototype: proto,
                        seed: args.seed,
                        ..DdtConfig::default()
                    },
                )
                .map(|r| r.causes.conjuncts().to_vec())
                .unwrap_or_default();
                instances += exec.stats().new_executions;
                scores.push(score_assertions(pipe.space(), pipe.truth(), &causes));
            }
            let m = find_one_metrics(&scores);
            table.row(vec![
                samples.to_string(),
                proto_label.to_string(),
                format!("{:.3}", m.precision),
                format!("{:.3}", m.recall),
                format!("{:.3}", m.f_measure),
                format!("{:.1}", instances as f64 / pipes.len() as f64),
            ]);
        }
    }
    println!("{}", table.render());
}

/// 4. QM simplification on/off: conjunct count of the final explanation.
fn ablate_qm(args: &BenchArgs) {
    println!("== Ablation 4 | Quine-McCluskey simplification of DDT FindAll output ==");
    let pipes = pipelines(args, CauseScenario::DisjunctionOfConjunctions);
    let mut table = TextTable::new(&["QM", "mean conjuncts", "precision", "recall"]);
    for (label, simplify) in [("on", true), ("off", false)] {
        let mut scores: Vec<PipelineScore> = Vec::new();
        let mut conjuncts = 0usize;
        let mut runs = 0usize;
        for (i, pipe) in pipes.iter().enumerate() {
            let exec = executor_for(pipe, args.seed ^ (i as u64) << 8);
            let causes: Vec<Conjunction> = debugging_decision_trees(
                &exec,
                &DdtConfig {
                    mode: DdtMode::FindAll,
                    simplify,
                    seed: args.seed,
                    ..DdtConfig::default()
                },
            )
            .map(|r| r.causes.conjuncts().to_vec())
            .unwrap_or_default();
            conjuncts += causes.len();
            runs += 1;
            scores.push(score_assertions(pipe.space(), pipe.truth(), &causes));
        }
        let m = bugdoc_eval::find_all_metrics(&scores);
        table.row(vec![
            label.to_string(),
            format!("{:.2}", conjuncts as f64 / runs.max(1) as f64),
            format!("{:.3}", m.precision),
            format!("{:.3}", m.recall),
        ]);
    }
    println!("{}", table.render());
}

/// 5. Speculative parallel Shortcut (paper §4.3): wall-clock vs wasted
///    executions at different worker counts, with 20-minute instances.
fn ablate_speculation(args: &BenchArgs) {
    use bugdoc_algorithms::shortcut_speculative;
    use bugdoc_engine::SimTime;

    println!("== Ablation 5 | Speculative Shortcut: wall-clock vs wasted executions ==");
    let mut table = TextTable::new(&[
        "workers",
        "mean instances",
        "mean virtual hours",
        "vs sequential time",
    ]);
    let pipes: Vec<Arc<SyntheticPipeline>> = (0..args.pipelines)
        .map(|k| {
            let seed = args.seed.wrapping_add(k as u64).wrapping_mul(0x51ed2701);
            Arc::new(SyntheticPipeline::generate(
                &SynthConfig {
                    scenario: CauseScenario::SingleConjunction,
                    n_params: (10, 10),
                    n_values: (4, 6),
                    instance_cost: SimTime::from_mins(20.0),
                    ..SynthConfig::default()
                },
                seed,
            ))
        })
        .collect();

    let mut base_time: Option<f64> = None;
    for workers in [1usize, 2, 5, 10] {
        let mut instances = 0usize;
        let mut hours = 0.0f64;
        let mut runs = 0usize;
        for (i, pipe) in pipes.iter().enumerate() {
            let seeds = pipe.seed_history(1, 4, args.seed ^ (i as u64) << 9);
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
            let Some(cp_f) = exec.with_provenance_ref(|p| p.first_failing()) else {
                continue;
            };
            let Some(cp_g) = exec.with_provenance_ref(|p| {
                p.disjoint_successes(&cp_f)
                    .next()
                    .or_else(|| p.most_different_success(&cp_f))
            }) else {
                continue;
            };
            if shortcut_speculative(&exec, &cp_f, &cp_g, &ShortcutConfig::default()).is_ok() {
                let stats = exec.stats();
                instances += stats.new_executions;
                hours += stats.sim_time.secs() / 3600.0;
                runs += 1;
            }
        }
        let mean_hours = hours / runs.max(1) as f64;
        let base = *base_time.get_or_insert(mean_hours);
        table.row(vec![
            workers.to_string(),
            format!("{:.1}", instances as f64 / runs.max(1) as f64),
            format!("{mean_hours:.2}"),
            format!("{:.2}x", if mean_hours > 0.0 { base / mean_hours } else { 1.0 }),
        ]);
    }
    println!("{}", table.render());
}
