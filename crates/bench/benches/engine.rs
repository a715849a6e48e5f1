//! Criterion timing of the execution engine: single-evaluation dispatch,
//! cache-hit latency, and parallel batch dispatch overhead at different
//! worker counts (the real-thread cost behind the virtual-clock numbers of
//! Figure 6).

use bugdoc_core::{EvalResult, Instance, Outcome, ParamSpace, Value};
use bugdoc_engine::{Executor, ExecutorConfig, FnPipeline, Pipeline};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn space() -> Arc<ParamSpace> {
    ParamSpace::builder()
        .ordinal("a", (0..16).collect::<Vec<_>>())
        .ordinal("b", (0..16).collect::<Vec<_>>())
        .build()
}

fn pipeline(s: &Arc<ParamSpace>) -> Arc<dyn Pipeline> {
    let a = s.by_name("a").unwrap();
    Arc::new(FnPipeline::new(s.clone(), move |i: &Instance| {
        EvalResult::of(Outcome::from_check(i.get(a) != &Value::from(7)))
    }))
}

fn instances(s: &ParamSpace, n: usize) -> Vec<Instance> {
    (0..n)
        .map(|k| {
            Instance::from_pairs(
                s,
                [
                    ("a", Value::from((k % 16) as i64)),
                    ("b", Value::from(((k / 16) % 16) as i64)),
                ],
            )
        })
        .collect()
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));

    let s = space();

    group.bench_function("evaluate_cold", |b| {
        b.iter_with_setup(
            || Executor::new(pipeline(&s), ExecutorConfig::default()),
            |exec| {
                for i in instances(&s, 32) {
                    exec.evaluate(&i).unwrap();
                }
                exec
            },
        )
    });

    group.bench_function("evaluate_cache_hit", |b| {
        let exec = Executor::new(pipeline(&s), ExecutorConfig::default());
        let probe = instances(&s, 1).pop().unwrap();
        exec.evaluate(&probe).unwrap();
        b.iter(|| exec.evaluate(&probe).unwrap())
    });

    for workers in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("batch_dispatch_128", workers),
            &workers,
            |b, &workers| {
                let batch = instances(&s, 128);
                b.iter_with_setup(
                    || {
                        Executor::new(
                            pipeline(&s),
                            ExecutorConfig {
                                workers,
                                budget: None,
                                ..Default::default()
                            },
                        )
                    },
                    |exec| {
                        exec.evaluate_batch(&batch);
                        exec
                    },
                )
            },
        );
    }
    group.finish();
}

// The dense-encoding hot paths at realistic history sizes — provenance
// cache-hit lookup against a 10k-run store and `satisfied_by` filtering
// across 1k candidate conjunctions — are registered via the shared
// scenarios in `bugdoc_bench::perf`, the same code the headless `bench`
// binary measures into BENCH_engine.json, so the two can never drift.
criterion_group!(
    benches,
    bench_engine,
    bugdoc_bench::perf::bench_hot_paths,
    bugdoc_bench::perf::bench_persistence,
    bugdoc_bench::perf::bench_ddt_end_to_end
);
criterion_main!(benches);
