//! Property tests for both Quine–McCluskey implementations:
//! * binary QM against a brute-force truth-table oracle;
//! * multi-valued minimization against exhaustive instance enumeration;
//! * cross-validation: boolean functions minimized by both implementations
//!   must denote the same function.

use bugdoc_core::{Comparator, Conjunction, Dnf, ParamId, ParamSpace, Predicate};
use bugdoc_qm::{boolean, minimize_dnf, simplify_conjunction};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Binary QM: the minimized cover computes exactly the on-set.
    #[test]
    fn boolean_qm_equivalent_to_truth_table(
        n_vars in 1u32..=5,
        on_bits in any::<u32>(),
    ) {
        let size = 1u32 << n_vars;
        let on: Vec<u32> = (0..size).filter(|&m| on_bits >> (m % 32) & 1 == 1).collect();
        let cover = boolean::minimize(n_vars, &on, &[]);
        for m in 0..size {
            let expected = on.contains(&m);
            prop_assert_eq!(
                boolean::cover_evaluates(&cover, m),
                expected,
                "minterm {} of {} vars",
                m,
                n_vars
            );
        }
    }

    /// Binary QM: don't-cares never cause an off-set minterm to be covered.
    #[test]
    fn boolean_qm_respects_off_set(
        n_vars in 2u32..=4,
        on_bits in any::<u16>(),
        dc_bits in any::<u16>(),
    ) {
        let size = 1u32 << n_vars;
        let on: Vec<u32> = (0..size).filter(|&m| on_bits >> m & 1 == 1).collect();
        let dc: Vec<u32> = (0..size)
            .filter(|&m| dc_bits >> m & 1 == 1 && !on.contains(&m))
            .collect();
        let cover = boolean::minimize(n_vars, &on, &dc);
        for m in 0..size {
            if on.contains(&m) {
                prop_assert!(boolean::cover_evaluates(&cover, m));
            } else if !dc.contains(&m) {
                prop_assert!(!boolean::cover_evaluates(&cover, m));
            }
        }
    }

    /// Binary QM produces at most as many cubes as minterms.
    #[test]
    fn boolean_qm_never_grows(n_vars in 1u32..=5, on_bits in any::<u32>()) {
        let size = 1u32 << n_vars;
        let on: Vec<u32> = (0..size).filter(|&m| on_bits >> (m % 32) & 1 == 1).collect();
        let cover = boolean::minimize(n_vars, &on, &[]);
        prop_assert!(cover.len() <= on.len().max(1));
    }
}

/// A boolean space: every parameter is a 2-value ordinal.
fn bool_space(n: usize) -> Arc<ParamSpace> {
    let mut builder = ParamSpace::builder();
    for i in 0..n {
        builder = builder.boolean(format!("b{i}"));
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cross-validation: a random boolean function minimized by the binary
    /// algorithm and by the multi-valued algorithm (as single-minterm
    /// conjunctions) denotes the same function.
    #[test]
    fn mv_agrees_with_boolean_on_boolean_functions(
        n_vars in 2usize..=4,
        on_bits in any::<u16>(),
    ) {
        let space = bool_space(n_vars);
        let size = 1u32 << n_vars;
        let on: Vec<u32> = (0..size).filter(|&m| on_bits >> m & 1 == 1).collect();

        // The MV route: one conjunction per on-set minterm.
        let dnf = Dnf::new(
            on.iter()
                .map(|&m| {
                    Conjunction::new(
                        (0..n_vars)
                            .map(|i| {
                                Predicate::new(
                                    ParamId(i as u32),
                                    Comparator::Eq,
                                    (m >> i & 1) == 1,
                                )
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        let mv_min = minimize_dnf(&space, &dnf);

        // The boolean route.
        let bool_cover = boolean::minimize(n_vars as u32, &on, &[]);

        // Same function, instance by instance.
        for m in 0..size {
            // A boolean domain is `false, true`: bit i is b{i}'s index.
            let bits: Vec<u32> = (0..n_vars).map(|i| m >> i & 1).collect();
            let inst = space.instance_from_indices(&bits);
            prop_assert_eq!(
                mv_min.satisfied_by(&inst),
                boolean::cover_evaluates(&bool_cover, m)
            );
        }
        // And comparable conciseness: the MV cover is no larger than the
        // number of prime-implicant cubes the boolean cover chose... both
        // minimal covers can differ in shape, so only sanity-bound it.
        prop_assert!(mv_min.len() <= on.len().max(1));
    }

    /// simplify_conjunction is semantics-preserving and idempotent.
    #[test]
    fn simplify_conjunction_preserving(
        n_vars in 2usize..=4,
        picks in proptest::collection::vec((0usize..4, 0usize..2, 0usize..4), 1..=4),
    ) {
        let space = bool_space(n_vars);
        let preds: Vec<Predicate> = picks
            .into_iter()
            .map(|(p, v, c)| {
                Predicate::new(
                    ParamId((p % n_vars) as u32),
                    Comparator::ALL[c],
                    v == 1,
                )
            })
            .collect();
        let conj = Conjunction::new(preds);
        match simplify_conjunction(&space, &conj) {
            None => {
                // Unsatisfiable: no instance satisfies it.
                for inst in space.instances() {
                    prop_assert!(!conj.satisfied_by(&inst));
                }
            }
            Some(simplified) => {
                for inst in space.instances() {
                    prop_assert_eq!(conj.satisfied_by(&inst), simplified.satisfied_by(&inst));
                }
                // Idempotent.
                let again = simplify_conjunction(&space, &simplified).unwrap();
                prop_assert_eq!(again, simplified);
            }
        }
    }
}
