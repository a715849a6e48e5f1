//! Hot-path performance scenarios, timed by the headless `bench` binary
//! (which emits `BENCH_engine.json`).
//!
//! The scenarios track the in-memory costs BugDoc's cost model treats as
//! free — provenance cache probes, batch dispatch, predicate filtering over
//! the run log — so regressions on the diagnosis hot path are visible from
//! one PR to the next.

use bugdoc_algorithms::{debugging_decision_trees, DdtConfig};
use bugdoc_core::{
    CanonicalCause, Comparator, Conjunction, EvalResult, Instance, Outcome, ParamSpace, Predicate,
    ProvenanceStore, Value,
};
use bugdoc_dtree::{DecisionTree, ProvenanceTree, TreeConfig};
use bugdoc_engine::{Executor, ExecutorConfig, FnPipeline, Pipeline};
use bugdoc_synth::{CauseScenario, SynthConfig, SyntheticPipeline};
use criterion::Criterion;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// The perf space: 50 × 50 × 4 = 10 000 configurations, mixing ordinal and
/// categorical parameters so value hashing costs are realistic.
pub fn perf_space() -> Arc<ParamSpace> {
    ParamSpace::builder()
        .ordinal("a", (0..50).collect::<Vec<_>>())
        .ordinal("b", (0..50).collect::<Vec<_>>())
        .categorical("mode", ["baseline", "fast", "exact", "fused"])
        .build()
}

/// A pipeline over [`perf_space`] failing on a small corner of the space.
pub fn perf_pipeline(space: &Arc<ParamSpace>) -> Arc<dyn Pipeline> {
    let a = space.by_name("a").unwrap();
    Arc::new(FnPipeline::new(space.clone(), move |i: &Instance| {
        EvalResult::of(Outcome::from_check(i.get(a) != &Value::from(7)))
    }))
}

/// Every instance of the perf space, in enumeration order (10 000 of them).
pub fn perf_instances(space: &ParamSpace) -> Vec<Instance> {
    space.instances().collect()
}

/// A provenance store holding all 10 000 runs of the perf space.
pub fn provenance_10k(space: &Arc<ParamSpace>) -> ProvenanceStore {
    let a = space.by_name("a").unwrap();
    let mut prov = ProvenanceStore::new(space.clone());
    for inst in space.instances() {
        let outcome = Outcome::from_check(inst.get(a) != &Value::from(7));
        prov.record(inst, EvalResult::of(outcome));
    }
    prov
}

/// `n` random conjunctions of 1–3 predicates over a space — the candidate
/// causes a DDT/dedup pass filters the log with.
pub fn random_conjunctions(space: &ParamSpace, n: usize, seed: u64) -> Vec<Conjunction> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let n_preds = rng.gen_range(1..=3usize);
            let preds = (0..n_preds)
                .map(|_| {
                    let p = bugdoc_core::ParamId(rng.gen_range(0..space.len()) as u32);
                    let d = space.domain(p);
                    let v = d.value(rng.gen_range(0..d.len())).clone();
                    let cmp = if d.is_ordinal() {
                        Comparator::ALL[rng.gen_range(0..4usize)]
                    } else {
                        Comparator::CATEGORICAL[rng.gen_range(0..2usize)]
                    };
                    Predicate::new(p, cmp, v)
                })
                .collect();
            Conjunction::new(preds)
        })
        .collect()
}

/// Registers the engine/core hot-path benchmarks on `c`:
///
/// * `perf/evaluate_cold_32` — 32 fresh evaluations through a new executor;
/// * `perf/instance_from_indices` — one instance of the perf space built
///   from its dense key and dropped: a key copy and a table `Arc` clone;
/// * `perf/cache_hit_10k` — one cache-hit `evaluate` against a 10k-run history;
/// * `perf/batch_dispatch_128/5` — a 128-instance batch at the paper's 5 workers;
/// * `perf/batch_dispatch_4_warm/5` — 4 new instances on a 5-worker executor
///   that has already executed one: the most common batch of a paper-synth
///   diagnosis (71.5% of its batches hold 4 new instances);
/// * `perf/concurrent_cache_hits_5w` — 5 threads × 200 provenance-hit
///   evaluations per round (reported per evaluation), the probe of
///   contended hits on the store's read lock; the threads start once, so
///   thread start-up is not in the figure;
/// * `perf/satisfied_by_1k` — support counts for 1 000 candidate conjunctions
///   over the 10k-run log, each canonicalized before the timed loop
///   (reported per conjunction): the streamed `support` scan;
/// * `perf/superset_exists_1k` — the succeeding-superset check of the same
///   1 000 conjunctions over the same log (reported per conjunction), which
///   stops at the first chunk of the log holding a succeeding match;
/// * `perf/kernel_and_popcount_64k` — the raw fused AND+popcount kernel over
///   two 1 024-word operands.
pub fn bench_hot_paths(c: &mut Criterion) {
    let space = perf_space();

    let mut group = c.benchmark_group("perf");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));

    let cold_batch: Vec<Instance> = perf_instances(&space).into_iter().take(32).collect();
    group.bench_function("evaluate_cold_32", {
        let space = space.clone();
        let cold_batch = cold_batch.clone();
        move |b| {
            b.iter_with_setup(
                || Executor::new(perf_pipeline(&space), ExecutorConfig::default()),
                |exec| {
                    for i in &cold_batch {
                        exec.evaluate(i).unwrap();
                    }
                    exec
                },
            )
        }
    });

    // One instance built from its key and dropped: what every sampled probe,
    // replayed run and enumerated instance costs.
    group.bench_function("instance_from_indices", {
        let space = space.clone();
        let key = [17u32, 41, 2];
        move |b| b.iter(|| space.instance_from_indices(&key))
    });

    // Store-level probe: the provenance map lookup itself, no executor around
    // it — the cost every cache probe in the diagnosis loop pays.
    let prov_lookup = provenance_10k(&space);
    group.bench_function("prov_lookup_10k", {
        let probes: Vec<Instance> = perf_instances(&space)
            .into_iter()
            .step_by(97)
            .take(64)
            .collect();
        let mut k = 0usize;
        move |b| {
            b.iter(|| {
                k = (k + 1) % probes.len();
                prov_lookup.lookup(&probes[k]).is_some()
            })
        }
    });

    group.bench_function("prov_insert_10k", {
        let space = space.clone();
        let instances = perf_instances(&space);
        move |b| {
            b.iter_with_setup(
                || (ProvenanceStore::new(space.clone()), instances.clone()),
                |(mut prov, instances)| {
                    for inst in instances {
                        prov.record(inst, EvalResult::of(Outcome::Succeed));
                    }
                    prov
                },
            )
        }
    });

    let exec_10k = Executor::with_provenance(
        perf_pipeline(&space),
        ExecutorConfig::default(),
        provenance_10k(&space),
    );
    let probes: Vec<Instance> = perf_instances(&space)
        .into_iter()
        .step_by(97)
        .take(64)
        .collect();
    group.bench_function("cache_hit_10k", {
        let probes = probes.clone();
        let mut k = 0usize;
        move |b| {
            b.iter(|| {
                k = (k + 1) % probes.len();
                exec_10k.evaluate(&probes[k]).unwrap()
            })
        }
    });

    let batch: Vec<Instance> = perf_instances(&space).into_iter().take(128).collect();
    group.bench_function("batch_dispatch_128/5", {
        let space = space.clone();
        move |b| {
            b.iter_with_setup(
                || {
                    Executor::new(
                        perf_pipeline(&space),
                        ExecutorConfig {
                            workers: 5,
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
        }
    });

    // The executor has already timed one cheap execution, so this is the
    // batch shape the calling-thread rule decides for a paper-synth search.
    let warm: Vec<Instance> = perf_instances(&space).into_iter().take(5).collect();
    let (warm_first, warm_batch) = (warm[0].clone(), warm[1..].to_vec());
    group.bench_function("batch_dispatch_4_warm/5", {
        let space = space.clone();
        move |b| {
            b.iter_with_setup(
                || {
                    let exec = Executor::new(
                        perf_pipeline(&space),
                        ExecutorConfig {
                            workers: 5,
                            budget: None,
                            ..Default::default()
                        },
                    );
                    exec.evaluate(&warm_first).unwrap();
                    exec
                },
                |exec| {
                    exec.evaluate_batch(&warm_batch);
                    exec
                },
            )
        }
    });

    // Contention probe: 5 worker threads, started once, each issue 200
    // provenance-hit evaluations per round against the shared executor. One
    // barrier, waited on twice per round, releases the round and collects
    // it, so a timed iteration is one round with no thread start-up in it;
    // the reported time is per evaluation (round time / 1000), so
    // serialization on the store's read lock shows up directly.
    const CONTENTION_THREADS: usize = 5;
    const CONTENTION_OPS: usize = 200;
    group.bench_function("concurrent_cache_hits_5w", {
        let exec = Executor::with_provenance(
            perf_pipeline(&space),
            ExecutorConfig::default(),
            provenance_10k(&space),
        );
        let probes = probes.clone();
        move |b| {
            let round = Barrier::new(CONTENTION_THREADS + 1);
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                for t in 0..CONTENTION_THREADS {
                    let (exec, probes, round, stop) = (&exec, &probes, &round, &stop);
                    s.spawn(move || loop {
                        round.wait(); // start
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        for k in 0..CONTENTION_OPS {
                            let probe = &probes[(t * 31 + k) % probes.len()];
                            exec.evaluate(probe).unwrap();
                        }
                        round.wait(); // done
                    });
                }
                b.iter(|| {
                    round.wait();
                    round.wait();
                });
                stop.store(true, Ordering::SeqCst);
                round.wait();
            });
        }
    });

    let prov = provenance_10k(&space);
    let causes: Vec<CanonicalCause> = random_conjunctions(&space, 1_000, 17)
        .iter()
        .map(|c| c.canonicalize(&space))
        .collect();
    group.bench_function("satisfied_by_1k", |b| {
        b.iter(|| {
            let mut acc = (0usize, 0usize);
            for c in &causes {
                let (f, s) = prov.support(c);
                acc.0 += f;
                acc.1 += s;
            }
            acc
        })
    });
    group.bench_function("superset_exists_1k", |b| {
        b.iter(|| {
            causes
                .iter()
                .filter(|c| prov.succeeding_superset_exists(c))
                .count()
        })
    });

    // Raw kernel probe: fused AND+popcount over two 1 024-word (64k-bit)
    // operands — the primitive behind every `support` count, measured
    // without any index structure around it.
    let ka: Vec<u64> = (0..1024u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let kb: Vec<u64> = (0..1024u64)
        .map(|i| (i ^ 0x5bf0_3635).wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
        .collect();
    group.bench_function("kernel_and_popcount_64k", move |b| {
        b.iter(|| bugdoc_core::kernels::and_popcount(&ka, &kb))
    });
    group.finish();
}

/// Registers the telemetry-overhead probe on `c`:
///
/// * `perf/telemetry_record` — one histogram sample through the wait-free
///   record path (log₂ bucketing plus three relaxed `fetch_add`s) — the
///   unit cost every always-on instrumentation site pays, so the figure
///   bounds what any probe can add to the paths it observes.
pub fn bench_telemetry(c: &mut Criterion) {
    let hist = bugdoc_telemetry::histogram(
        "bugdoc_bench_record_probe_ns",
        "Bench-only histogram exercising the record path",
    );
    let mut group = c.benchmark_group("perf");
    group
        .sample_size(15)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(200));
    // An LCG walk over the sample values so every bucket (and the branchless
    // bucket math) is exercised, not one cache-warm bucket word.
    let mut v = 1u64;
    group.bench_function("telemetry_record", move |b| {
        b.iter(|| {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(v >> 16);
            v
        })
    });
    group.finish();
}

/// Registers the durable-provenance scenarios on `c`:
///
/// * `perf/wal_append` — one run record appended to the write-ahead log's
///   pending buffer (frame encode + CRC32, plus a share of the one write
///   each 64 KiB of frames costs): what persistence adds to each *new*
///   execution of a batch's record phase — cache hits never touch it;
/// * `perf/wal_append_flush` — one append and its flush, one `write(2)`:
///   the record phase of a single `evaluate`;
/// * `perf/replay_10k` — full crash recovery of a 10k-frame WAL into a
///   fresh `ProvenanceStore` (the warm-start latency of a 10k-run history:
///   recovery always replays the whole log).
pub fn bench_persistence(c: &mut Criterion) {
    use bugdoc_store::{DurableStore, PersistConfig};

    let space = perf_space();
    let root = std::env::temp_dir().join(format!("bugdoc-bench-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut group = c.benchmark_group("perf");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(200));

    // Append: one open log, cycling through realistic records. Appending a
    // record twice is fine at the WAL layer (dedup is the store's job), so
    // the log just grows as it would in a long run.
    {
        let prov = provenance_10k(&space);
        let runs = prov.runs();
        let config = PersistConfig::new(root.join("append"));
        let (_, mut durable, _) = DurableStore::open(&space, &config).expect("open WAL");
        let mut k = 0usize;
        group.bench_function("wal_append", |b| {
            b.iter(|| {
                k = (k + 1) % runs.len();
                durable.append(runs.get(k).expect("run k is recorded"), &space).expect("append")
            })
        });
        group.bench_function("wal_append_flush", |b| {
            b.iter(|| {
                k = (k + 1) % runs.len();
                durable
                    .append(runs.get(k).expect("run k is recorded"), &space)
                    .expect("append");
                durable.flush().expect("flush")
            })
        });
    }

    // Replay: recover a 10k-frame log from scratch.
    {
        let config = PersistConfig::new(root.join("replay"));
        let prov = provenance_10k(&space);
        let (_, mut durable, _) = DurableStore::open(&space, &config).expect("open WAL");
        for run in prov.runs().refs() {
            durable.append(run, &space).expect("append");
        }
        drop(durable);
        group.bench_function("replay_10k", |b| {
            b.iter(|| {
                let (store, _, recovery) = DurableStore::open(&space, &config).expect("recover");
                assert_eq!(recovery.runs, 10_000);
                store
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

/// Registers the end-to-end DDT benchmark on `c`:
///
/// * `perf/ddt_find_one` — the algorithm-level integral over all the hot
///   paths above, under the default executor config.
pub fn bench_ddt_end_to_end(c: &mut Criterion) {
    let pipe = Arc::new(SyntheticPipeline::generate(
        &SynthConfig {
            scenario: CauseScenario::SingleConjunction,
            n_params: (6, 6),
            n_values: (5, 8),
            ..SynthConfig::default()
        },
        11,
    ));
    let mut group = c.benchmark_group("perf");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200));
    group.bench_function("ddt_find_one", move |b| {
        b.iter(|| {
            let seeds = pipe.seed_history(2, 6, 7);
            let mut prov = ProvenanceStore::new(Pipeline::space(pipe.as_ref()).clone());
            for (inst, eval) in &seeds {
                prov.record(inst.clone(), *eval);
            }
            let exec = Executor::with_provenance(
                pipe.clone() as Arc<dyn Pipeline>,
                ExecutorConfig {
                    workers: 4,
                    budget: None,
                    ..Default::default()
                },
                prov,
            );
            debugging_decision_trees(&exec, &DdtConfig::default())
        })
    });
    group.finish();
}

/// Rows in the tree-fit benchmarks' training log: the size of the
/// `deep-history` e2ebench workload's log.
const TREE_FIT_ROWS: usize = 32_768;

/// Runs appended to the fitted log before `perf/dtree_refit_32k`'s refit.
const REFIT_ROWS: usize = 32;

/// A training log shaped like the `deep-history` workload's: a 10-parameter
/// synthetic pipeline of 10–20 values per parameter whose failures are a
/// two-conjunct disjunction (the first plant, in seed order, failing on
/// 7–13% of the space), and `n` dense-keyed instances drawn uniformly from
/// its space, labelled fail = 1 / succeed = 0. A longer log starts with the
/// rows of a shorter one.
fn deep_history_rows(n: usize) -> (Arc<ParamSpace>, Vec<(Instance, f64)>) {
    let config = SynthConfig {
        n_params: (10, 10),
        n_values: (10, 20),
        scenario: CauseScenario::DisjunctionOfConjunctions,
        max_conjunction_len: 2,
        extra_disjunct_prob: 0.0,
        ..SynthConfig::default()
    };
    let pipe = (0..)
        .map(|seed| SyntheticPipeline::generate(&config, seed))
        .find(|p| (0.07..=0.13).contains(&p.truth().failure_fraction(Pipeline::space(p))))
        .expect("an endless search finds a plant");
    let space = Pipeline::space(&pipe).clone();
    let mut rng = StdRng::seed_from_u64(29);
    let rows = (0..n)
        .map(|_| {
            let key: Vec<u32> = space
                .ids()
                .map(|p| rng.gen_range(0..space.domain(p).len()) as u32)
                .collect();
            let instance = space.instance_from_indices(&key);
            let y = if pipe.truth().fails(&instance) { 1.0 } else { 0.0 };
            (instance, y)
        })
        .collect();
    (space, rows)
}

/// Registers the tree-fitting benchmarks on `c`:
///
/// * `perf/dtree_fit_32k` — one full (unpruned) `DecisionTree::fit` over a
///   deep-history-shaped log of 32,768 dense-keyed instances;
/// * `perf/dtree_fit_provenance_32k` — the same log recorded into a
///   provenance store, fitted with `DecisionTree::fit_provenance`: the
///   full fit DDT runs once per diagnosis, at the log size the
///   `deep-history` workload reaches;
/// * `perf/dtree_refit_32k` — one `ProvenanceTree::refit` of that store's
///   tree after 32 more runs are recorded: the refit DDT runs after a
///   refuted suspect. The fit and the appends happen before each timed
///   refit, untimed.
pub fn bench_tree_fit(c: &mut Criterion) {
    let (space, mut rows) = deep_history_rows(TREE_FIT_ROWS + REFIT_ROWS);
    let appended = rows.split_off(TREE_FIT_ROWS);
    let mut prov = ProvenanceStore::new(space.clone());
    for (instance, y) in &rows {
        prov.record(instance.clone(), Outcome::from_check(*y == 0.0).into());
    }
    let fitted = ProvenanceTree::fit(&prov, &TreeConfig::default());
    let mut grown = prov.clone();
    for (instance, y) in &appended {
        grown.record(instance.clone(), Outcome::from_check(*y == 0.0).into());
    }
    let mut group = c.benchmark_group("perf");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200));
    group.bench_function("dtree_fit_32k", move |b| {
        b.iter(|| DecisionTree::fit(&space, &rows, &TreeConfig::default()))
    });
    group.bench_function("dtree_fit_provenance_32k", move |b| {
        b.iter(|| DecisionTree::fit_provenance(&prov, &TreeConfig::default()))
    });
    group.bench_function("dtree_refit_32k", move |b| {
        b.iter_with_setup(
            || fitted.clone(),
            |mut tree| {
                tree.refit(&grown);
                tree
            },
        )
    });
    group.finish();
}

/// Divides the per-iteration time of `concurrent_cache_hits_5w` (which times
/// a whole 5×200-op round) down to a per-operation figure, in place.
pub fn normalize_contention_result(results: &mut [criterion::BenchResult]) {
    for r in results {
        if r.id.ends_with("concurrent_cache_hits_5w") {
            let ops = 1000.0;
            r.median_ns /= ops;
            for s in &mut r.samples_ns {
                *s /= ops;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_space_has_10k_configurations() {
        let s = perf_space();
        assert_eq!(s.total_configurations(), 10_000);
        assert_eq!(provenance_10k(&s).len(), 10_000);
    }

    #[test]
    fn random_conjunctions_are_well_formed() {
        let s = perf_space();
        let cs = random_conjunctions(&s, 50, 3);
        assert_eq!(cs.len(), 50);
        assert!(cs.iter().all(|c| (1..=3).contains(&c.len())));
    }
}
