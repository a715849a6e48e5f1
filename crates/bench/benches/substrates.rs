//! Criterion timing of the substrates: full decision-tree construction,
//! random-forest fit/predict, multi-valued Quine–McCluskey minimization,
//! and root-cause canonicalization.

use bugdoc_core::{Comparator, Conjunction, Dnf, Instance, ParamId, ParamSpace, Predicate};
use bugdoc_dtree::{DecisionTree, ForestConfig, RandomForest, TreeConfig};
use bugdoc_qm::minimize_dnf;
use bugdoc_synth::{CauseScenario, SynthConfig, SyntheticPipeline};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

fn training_rows(space: &Arc<ParamSpace>, n: usize, seed: u64) -> Vec<(Instance, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            // Dense-keyed, like every run DDT fits over.
            let key: Vec<u32> = space
                .ids()
                .map(|p| rng.gen_range(0..space.domain(p).len()) as u32)
                .collect();
            let inst = space.instance_from_indices(&key);
            let y = if rng.gen_bool(0.3) { 1.0 } else { 0.0 };
            (inst, y)
        })
        .collect()
}

fn bench_trees(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates/tree");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));

    for rows in [50usize, 200, 500] {
        let pipe = SyntheticPipeline::generate(
            &SynthConfig {
                scenario: CauseScenario::SingleConjunction,
                n_params: (10, 10),
                n_values: (6, 10),
                ..SynthConfig::default()
            },
            3,
        );
        let space = bugdoc_engine::Pipeline::space(&pipe).clone();
        let data = training_rows(&space, rows, 5);
        group.bench_with_input(BenchmarkId::new("full_fit", rows), &rows, |b, _| {
            b.iter(|| DecisionTree::fit(&space, &data, &TreeConfig::default()))
        });
        group.bench_with_input(BenchmarkId::new("forest_fit_10", rows), &rows, |b, _| {
            b.iter(|| RandomForest::fit(&space, &data, &ForestConfig::default()))
        });
    }
    group.finish();
}

fn bench_qm(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates/qm");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));

    for n_conjuncts in [4usize, 8, 16] {
        let space = ParamSpace::builder()
            .ordinal("a", (0..10).collect::<Vec<_>>())
            .ordinal("b", (0..10).collect::<Vec<_>>())
            .categorical("c", (0..8).map(|v| format!("v{v}")).collect::<Vec<_>>())
            .ordinal("d", (0..10).collect::<Vec<_>>())
            .build();
        let mut rng = StdRng::seed_from_u64(9);
        let dnf = Dnf::new(
            (0..n_conjuncts)
                .map(|_| {
                    let mut preds = Vec::new();
                    for p in 0..space.len() {
                        if !rng.gen_bool(0.6) {
                            continue;
                        }
                        let p = ParamId(p as u32);
                        let d = space.domain(p);
                        let v = d.value(rng.gen_range(0..d.len())).clone();
                        let cmp = if d.is_ordinal() {
                            Comparator::ALL[rng.gen_range(0..4usize)]
                        } else {
                            Comparator::CATEGORICAL[rng.gen_range(0..2usize)]
                        };
                        preds.push(Predicate::new(p, cmp, v));
                    }
                    Conjunction::new(preds)
                })
                .collect(),
        );
        group.bench_with_input(
            BenchmarkId::new("minimize_dnf", n_conjuncts),
            &n_conjuncts,
            |b, _| b.iter(|| minimize_dnf(&space, &dnf)),
        );
        group.bench_with_input(
            BenchmarkId::new("canonicalize", n_conjuncts),
            &n_conjuncts,
            |b, _| {
                b.iter(|| {
                    dnf.conjuncts()
                        .iter()
                        .map(|c| c.canonicalize(&space))
                        .collect::<Vec<_>>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_trees, bench_qm);
criterion_main!(benches);
