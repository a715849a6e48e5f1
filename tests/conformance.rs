//! Differential conformance suite: the provenance store's bitset /
//! dense-key query paths against a naive interpretive oracle.
//!
//! The store answers `support` and `succeeding_superset_exists` with
//! word-parallel bit operations over an epoch-segmented index.
//! Delta-debugging-style systems are only trustworthy when such fast paths
//! are provably equivalent to exact per-run interpretation, so every case
//! here replays a random parameter space and run log through both a
//! [`ProvenanceStore`] and an oracle that re-implements the queries by
//! interpreting each predicate against each recorded instance — including
//! out-of-domain (overflow) instances.

use bugdoc::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The naive re-implementation: a flat log interpreted run by run. No
/// bitsets, no dense keys, no epochs — the definition the store must match.
struct Oracle {
    runs: Vec<(Instance, Outcome)>,
}

impl Oracle {
    fn new() -> Self {
        Oracle { runs: Vec::new() }
    }

    /// Dedup by instance value-equality, like the store's `record`.
    fn record(&mut self, instance: Instance, outcome: Outcome) {
        if self.runs.iter().any(|(i, _)| i == &instance) {
            return;
        }
        self.runs.push((instance, outcome));
    }

    fn support(&self, cause: &Conjunction) -> (usize, usize) {
        let mut fail = 0;
        let mut succeed = 0;
        for (inst, outcome) in &self.runs {
            if cause.satisfied_by(inst) {
                match outcome {
                    Outcome::Fail => fail += 1,
                    Outcome::Succeed => succeed += 1,
                }
            }
        }
        (fail, succeed)
    }

    fn succeeding_superset_exists(&self, cause: &Conjunction) -> bool {
        self.runs
            .iter()
            .any(|(inst, o)| *o == Outcome::Succeed && cause.satisfied_by(inst))
    }
}

fn random_space(rng: &mut StdRng) -> Arc<ParamSpace> {
    let n_params = rng.gen_range(2..=4usize);
    let mut b = ParamSpace::builder();
    for p in 0..n_params {
        let len = rng.gen_range(2..=5usize);
        b = if rng.gen_range(0..2u32) == 0 {
            b.ordinal(format!("p{p}"), (0..len as i64).collect::<Vec<_>>())
        } else {
            b.categorical(
                format!("p{p}"),
                (0..len).map(|v| format!("v{v}")).collect::<Vec<_>>(),
            )
        };
    }
    b.build()
}

/// Deterministic evaluation, so duplicate draws never violate the store's
/// determinism check (paper §3 Def. 2).
fn outcome_of(inst: &Instance) -> Outcome {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    inst.hash(&mut h);
    Outcome::from_check(h.finish() % 3 != 0)
}

/// A random in-domain instance (dense-encoded by construction).
fn random_instance(space: &Arc<ParamSpace>, rng: &mut StdRng) -> Instance {
    let indices: Vec<u32> = space
        .ids()
        .map(|p| rng.gen_range(0..space.domain(p).len()) as u32)
        .collect();
    space.instance_from_indices(&indices)
}

/// A random instance with one out-of-domain value: unencodable, so it lands
/// on the store's overflow (interpretive) path.
fn random_overflow_instance(space: &Arc<ParamSpace>, rng: &mut StdRng) -> Instance {
    let rogue = rng.gen_range(0..space.len());
    let values: Vec<Value> = space
        .iter()
        .enumerate()
        .map(|(i, (p, _))| {
            if i == rogue {
                Value::from(9_000 + rng.gen_range(0..100i64))
            } else {
                let d = space.domain(p);
                d.value(rng.gen_range(0..d.len())).clone()
            }
        })
        .collect();
    Instance::new(values)
}

fn random_conjunction(space: &Arc<ParamSpace>, rng: &mut StdRng) -> Conjunction {
    let n_preds = rng.gen_range(0..=3usize);
    let preds = (0..n_preds)
        .map(|_| {
            let p = ParamId(rng.gen_range(0..space.len()) as u32);
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
}

/// Checks that the store and the oracle agree on every query for a batch of
/// random conjunctions (plus the empty conjunction, which selects the whole
/// log).
fn assert_conformance(
    store: &ProvenanceStore,
    oracle: &Oracle,
    space: &Arc<ParamSpace>,
    rng: &mut StdRng,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.len(), oracle.runs.len(), "log length ({})", context);
    let mut causes = vec![Conjunction::top()];
    causes.extend((0..20).map(|_| random_conjunction(space, rng)));
    for cause in &causes {
        let shown = cause.display(space).to_string();
        prop_assert_eq!(
            store.support(cause),
            oracle.support(cause),
            "support mismatch for {} ({})",
            shown,
            context
        );
        prop_assert_eq!(
            store.succeeding_superset_exists(cause),
            oracle.succeeding_superset_exists(cause),
            "superset mismatch for {} ({})",
            shown,
            context
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: for any space, any run log (with out-of-domain
    /// instances mixed in), and any epoch size, the bitset path is
    /// byte-for-byte the interpretive semantics. Logs reach 8 or more full
    /// 64-run epochs, so the epoch-major scans are checked on long logs as
    /// well as short ones.
    #[test]
    fn bitset_path_matches_interpretive_oracle(
        seed in any::<u64>(),
        n_runs in 0usize..700,
        overflow_pct in 0u32..25,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = random_space(&mut rng);
        let mut store = ProvenanceStore::with_epoch_size(space.clone(), 64);
        let mut oracle = Oracle::new();

        // Replay the log through both.
        for _ in 0..n_runs {
            let inst = if rng.gen_range(0..100u32) < overflow_pct {
                random_overflow_instance(&space, &mut rng)
            } else {
                random_instance(&space, &mut rng)
            };
            let outcome = outcome_of(&inst);
            store.record(inst.clone(), EvalResult::of(outcome));
            oracle.record(inst, outcome);
        }
        assert_conformance(&store, &oracle, &space, &mut rng, "64-run epochs")?;

        // And a store with the default epoch size agrees too.
        let mut unsegmented = ProvenanceStore::new(space.clone());
        for run in store.runs() {
            unsegmented.record(run.instance.clone(), run.eval);
        }
        assert_conformance(&unsegmented, &oracle, &space, &mut rng, "default epochs")?;
    }

    /// TSV round-trip: exporting a store and re-importing it must yield
    /// equivalent query results (the run log is the ground truth).
    #[test]
    fn compacted_store_roundtrips_through_tsv(
        seed in any::<u64>(),
        n_runs in 1usize..120,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = random_space(&mut rng);
        let mut store = ProvenanceStore::with_epoch_size(space.clone(), 64);
        for _ in 0..n_runs {
            let inst = random_instance(&space, &mut rng);
            store.record(inst.clone(), EvalResult::of(outcome_of(&inst)));
        }
        let tsv = store.to_tsv();
        let parsed = ProvenanceStore::from_tsv(space.clone(), &tsv)
            .expect("TSV re-imports");
        prop_assert_eq!(parsed.len(), store.len());
        prop_assert_eq!(parsed.to_tsv(), tsv, "second serialization is stable");
        for _ in 0..20 {
            let cause = random_conjunction(&space, &mut rng);
            let shown = cause.display(&space).to_string();
            prop_assert_eq!(
                parsed.support(&cause),
                store.support(&cause),
                "support diverged after round-trip for {}",
                shown
            );
            prop_assert_eq!(
                parsed.succeeding_superset_exists(&cause),
                store.succeeding_superset_exists(&cause),
                "superset diverged after round-trip for {}",
                shown
            );
        }
    }

    /// PR 7 admissibility contract: for any space and run log (overflow runs
    /// included), `support_bounds` brackets the exact support
    /// (`lo ≤ exact ≤ hi`), the batched entry points match the scalar ones,
    /// and every bounds-gated query still returns the exact interpretive
    /// answer — with bounds enabled and disabled alike.
    #[test]
    fn support_bounds_are_admissible_and_gates_stay_exact(
        seed in any::<u64>(),
        n_runs in 0usize..150,
        overflow_pct in 0u32..25,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = random_space(&mut rng);
        let mut store = ProvenanceStore::with_epoch_size(space.clone(), 64);
        let mut oracle = Oracle::new();
        for _ in 0..n_runs {
            let inst = if rng.gen_range(0..100u32) < overflow_pct {
                random_overflow_instance(&space, &mut rng)
            } else {
                random_instance(&space, &mut rng)
            };
            let outcome = outcome_of(&inst);
            store.record(inst.clone(), EvalResult::of(outcome));
            oracle.record(inst, outcome);
        }
        let mut causes = vec![Conjunction::top()];
        causes.extend((0..16).map(|_| random_conjunction(&space, &mut rng)));
        let batched = store.support_bounds_many(&causes);
        let supersets = store.succeeding_superset_exists_many(&causes);
        let mut off = store.clone();
        off.set_bounds_enabled(false);
        for (k, cause) in causes.iter().enumerate() {
            let shown = cause.display(&space).to_string();
            let exact = oracle.support(cause);
            let b = store.support_bounds(cause);
            prop_assert!(
                b.admits(exact),
                "bounds {:?} exclude exact {:?} for {}",
                b,
                exact,
                shown
            );
            prop_assert!(
                b.fail_lo <= b.fail_hi && b.succeed_lo <= b.succeed_hi,
                "inverted bounds {:?} for {}",
                b,
                shown
            );
            prop_assert_eq!(batched[k], b, "batched bounds diverge for {}", &shown);
            prop_assert_eq!(
                store.support_via_bounds(cause),
                exact,
                "support_via_bounds inexact for {}",
                &shown
            );
            let want_superset = oracle.succeeding_superset_exists(cause);
            prop_assert_eq!(
                supersets[k],
                want_superset,
                "batched superset wrong for {}",
                &shown
            );
            prop_assert_eq!(
                store.succeeding_superset_exists(cause),
                want_superset,
                "gated superset wrong for {}",
                &shown
            );
            prop_assert_eq!(
                off.succeeding_superset_exists(cause),
                want_superset,
                "bounds-off superset wrong for {}",
                &shown
            );
            prop_assert_eq!(
                off.support_via_bounds(cause),
                exact,
                "bounds-off support wrong for {}",
                &shown
            );
        }
    }
}

/// PR 7 exactness contract end-to-end: every diagnosis algorithm produces a
/// bit-identical report with bound-guided pruning on and off — on the
/// paper's Figure-1 ML pipeline and synthetic single-conjunction pipelines.
/// Pruning may only change *how* an answer is computed, never the answer.
#[test]
fn pruning_matches_unpruned() {
    use bugdoc::algorithms::{
        find_defective_elements, find_defective_elements_bounded, CandidateSetBound,
        CorruptRecordOracle, GroupTestConfig,
    };
    use bugdoc::pipelines::MlPipeline;
    use bugdoc::synth::{CauseScenario, SynthConfig, SyntheticPipeline};

    let exec_with = |bounds: bool, pipe: Arc<dyn Pipeline>, prov: ProvenanceStore| {
        Executor::with_provenance(
            pipe,
            ExecutorConfig {
                bounds,
                ..Default::default()
            },
            prov,
        )
    };

    // Shortcut + Stacked Shortcut on the paper's Figure-1 pipeline.
    let ml = Arc::new(MlPipeline::new());
    let cp_f = ml.instance("Iris", "Gradient Boosting", 2.0);
    let cp_g = ml.instance("Digits", "Decision Tree", 1.0);
    let mut shortcut_reports = Vec::new();
    let mut stacked_reports = Vec::new();
    for bounds in [true, false] {
        let exec = exec_with(bounds, ml.clone(), ml.table1_history());
        shortcut_reports
            .push(shortcut(&exec, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap());
        let exec = exec_with(bounds, ml.clone(), ml.table1_history());
        stacked_reports.push(stacked_shortcut(&exec, &StackedConfig::default()).unwrap());
    }
    assert_eq!(
        shortcut_reports[0], shortcut_reports[1],
        "Shortcut diverged under pruning"
    );
    assert_eq!(
        stacked_reports[0], stacked_reports[1],
        "Stacked Shortcut diverged under pruning"
    );

    // DDT on synthetic pipelines across seeds and modes; a small epoch size
    // exercises the frozen-epoch count tables, not just the tail.
    let mut bounds_engaged = 0u64;
    for seed in [11u64, 23, 47] {
        let pipe = Arc::new(SyntheticPipeline::generate(
            &SynthConfig {
                scenario: CauseScenario::SingleConjunction,
                n_params: (4, 5),
                n_values: (3, 5),
                ..SynthConfig::default()
            },
            seed,
        ));
        for mode in [DdtMode::FindOne, DdtMode::FindAll] {
            let mut reports = Vec::new();
            for bounds in [true, false] {
                let seeds = pipe.seed_history(2, 6, 7);
                let mut prov =
                    ProvenanceStore::with_epoch_size(Pipeline::space(pipe.as_ref()).clone(), 64);
                for (inst, eval) in &seeds {
                    prov.record(inst.clone(), *eval);
                }
                let exec = exec_with(bounds, pipe.clone() as Arc<dyn Pipeline>, prov);
                let config = DdtConfig {
                    mode,
                    ..DdtConfig::default()
                };
                reports.push(debugging_decision_trees(&exec, &config).unwrap());
                if bounds {
                    let stats = exec.stats();
                    bounds_engaged += stats.bounds_short_circuits + stats.bounds_pruned_subtrees;
                }
            }
            assert_eq!(
                reports[0], reports[1],
                "DDT diverged under pruning (seed={seed}, mode={mode:?})"
            );
        }
    }
    assert!(
        bounds_engaged > 0,
        "differential is vacuous: bounds never decided a query"
    );

    // Group testing: an admissible candidate-superset bound never changes
    // the identified defective set.
    let corrupt = [5usize, 17, 40];
    let mut plain_oracle = CorruptRecordOracle::new(corrupt);
    let plain = find_defective_elements(64, &mut plain_oracle, &GroupTestConfig::default());
    let mut oracle = CorruptRecordOracle::new(corrupt);
    let bound = CandidateSetBound::new([5usize, 9, 17, 40, 41]);
    let bounded =
        find_defective_elements_bounded(64, &mut oracle, &bound, &GroupTestConfig::default());
    assert_eq!(
        bounded.defective, plain.defective,
        "group testing diverged under pruning"
    );
    assert!(bounded.tests_used <= plain.tests_used);
    assert!(bounded.pruned_tests > 0, "candidate bound pruned nothing");
}
