//! Ground-truth machinery for planted failure conditions.
//!
//! The evaluation (paper §5) needs, for every synthetic pipeline, the set
//! `R(CP)` of *actual* minimal definitive root causes to score asserted
//! causes against. This module provides:
//!
//! * the **definitive test** (Def. 4): `cause ⊨ failure-DNF`, decided exactly
//!   over the finite product domain;
//! * a **witness solver** that constructs succeeding (or failing) instances
//!   directly, used to seed experiment histories with both outcomes;
//! * the **ground-truth set**: with planted conjuncts that are pairwise
//!   parameter-disjoint, satisfiable, and non-tautological (the generator's
//!   invariants), every minimal definitive root cause is semantically equal
//!   to one planted conjunct — see the proof sketch in `DESIGN.md` §8 — so
//!   `R(CP)` is simply their canonical forms.

use bugdoc_core::{kernels, CanonicalCause, Conjunction, Dnf, Instance, ParamSpace};
use bugdoc_qm::cause_covered_by;
use rand::rngs::StdRng;
use rand::Rng;

/// The planted failure condition of a synthetic pipeline together with its
/// derived ground truth.
#[derive(Debug, Clone)]
pub struct Truth {
    failure: Dnf,
    canon: Vec<CanonicalCause>,
}

impl Truth {
    /// Wraps a planted failure DNF. Unsatisfiable conjuncts are dropped.
    pub fn new(space: &ParamSpace, failure: Dnf) -> Self {
        let canon: Vec<CanonicalCause> = failure
            .conjuncts()
            .iter()
            .map(|c| c.canonicalize(space))
            .filter(|c| !c.is_unsatisfiable(space))
            .collect();
        Truth { failure, canon }
    }

    /// The planted failure DNF.
    pub fn failure_dnf(&self) -> &Dnf {
        &self.failure
    }

    /// Canonical forms of the planted conjuncts — the ground-truth set
    /// `R(CP)` under the generator's invariants.
    pub fn minimal_causes(&self) -> &[CanonicalCause] {
        &self.canon
    }

    /// Number of ground-truth causes.
    pub fn len(&self) -> usize {
        self.canon.len()
    }

    /// True when nothing was planted.
    pub fn is_empty(&self) -> bool {
        self.canon.is_empty()
    }

    /// Def. 2 for the synthetic pipelines: an instance fails iff it satisfies
    /// the planted DNF.
    pub fn fails(&self, instance: &Instance) -> bool {
        self.failure.satisfied_by(instance)
    }

    /// Def. 4: is `cause` a definitive root cause of this failure condition?
    /// (Every instance satisfying it fails.) Exact, via cube coverage.
    pub fn is_definitive(&self, space: &ParamSpace, cause: &Conjunction) -> bool {
        let canon = cause.canonicalize(space);
        if canon.is_unsatisfiable(space) {
            return false; // vacuous causes explain nothing
        }
        cause_covered_by(space, &canon, &self.canon)
    }

    /// Is the asserted cause one of the actual minimal definitive root
    /// causes (semantic equality against `R(CP)`)?
    pub fn matches_minimal(&self, space: &ParamSpace, cause: &Conjunction) -> bool {
        let canon = cause.canonicalize(space);
        self.canon.contains(&canon)
    }

    /// Constructs an instance that *succeeds* (violates every planted
    /// conjunct), sampling uniformly among the solver's feasible choices.
    /// `None` when every instance fails.
    pub fn sample_succeeding(&self, space: &ParamSpace, rng: &mut StdRng) -> Option<Instance> {
        // Start unconstrained; for each conjunct pick one constrained
        // parameter and confine the instance to that predicate's complement.
        let mut cube = CanonicalCause::top(space);
        if !solve_avoid(space, &self.canon, 0, &mut cube, rng) {
            return None;
        }
        Some(sample_from_cube(space, &cube, rng))
    }

    /// Constructs an instance that *fails* by satisfying a uniformly chosen
    /// planted conjunct. `None` when nothing is planted.
    pub fn sample_failing(&self, space: &ParamSpace, rng: &mut StdRng) -> Option<Instance> {
        if self.canon.is_empty() {
            return None;
        }
        self.sample_failing_cause(space, rng.gen_range(0..self.canon.len()), rng)
    }

    /// Constructs an instance that fails by satisfying the planted conjunct
    /// at `idx` — stratified failure sampling (seed histories that witness
    /// *every* cause).
    pub fn sample_failing_cause(
        &self,
        space: &ParamSpace,
        idx: usize,
        rng: &mut StdRng,
    ) -> Option<Instance> {
        if idx >= self.canon.len() {
            return None;
        }
        Some(sample_from_cube(space, &self.canon[idx], rng))
    }

    /// Exact fraction of the space that fails, by inclusion–exclusion over
    /// the planted conjuncts (they are few). Used by the generator to reject
    /// degenerate plants.
    pub fn failure_fraction(&self, space: &ParamSpace) -> f64 {
        let k = self.canon.len();
        assert!(k <= 16, "inclusion-exclusion over too many conjuncts");
        let total = space.total_configurations();
        if total == 0 {
            return 0.0;
        }
        let mut covered = 0.0;
        for subset in 1u32..(1 << k) {
            let members: Vec<&CanonicalCause> = (0..k)
                .filter(|i| subset >> i & 1 == 1)
                .map(|i| &self.canon[i])
                .collect();
            let inter = intersection_count(space, &members);
            let sign = if members.len() % 2 == 1 { 1.0 } else { -1.0 };
            covered += sign * inter as f64;
        }
        covered / total as f64
    }
}

/// Constructs an instance that satisfies `require` (if given) while
/// violating every cause in `avoid`. `None` if no such instance exists.
/// Used e.g. to plant anomaly logs of one class that do not accidentally
/// exhibit another class (the DBSherlock scenario, paper §5.3).
pub fn sample_instance(
    space: &ParamSpace,
    require: Option<&CanonicalCause>,
    avoid: &[CanonicalCause],
    rng: &mut StdRng,
) -> Option<Instance> {
    let mut cube = require
        .cloned()
        .unwrap_or_else(|| CanonicalCause::top(space));
    if cube.is_unsatisfiable(space) || !solve_avoid(space, avoid, 0, &mut cube, rng) {
        return None;
    }
    Some(sample_from_cube(space, &cube, rng))
}

/// Number of instances satisfying *all* the given causes simultaneously:
/// the size of their intersection cube.
fn intersection_count(space: &ParamSpace, causes: &[&CanonicalCause]) -> u128 {
    let mut cube = CanonicalCause::top(space);
    for c in causes {
        for p in space.ids() {
            kernels::and_or_multi_into(cube.block_mut(space, p), &[c.block(space, p)]);
        }
    }
    space
        .ids()
        .map(|p| kernels::popcount(cube.block(space, p)) as u128)
        .try_fold(1u128, |acc, n| acc.checked_mul(n))
        .unwrap_or(u128::MAX)
}

/// Backtracking solver: narrow `cube`, which allows some value of every
/// parameter, so that every conjunct from index `at` onward is violated.
/// Branch choices are shuffled for unbiased sampling.
fn solve_avoid(
    space: &ParamSpace,
    conjuncts: &[CanonicalCause],
    at: usize,
    cube: &mut CanonicalCause,
    rng: &mut StdRng,
) -> bool {
    let Some(conjunct) = conjuncts.get(at) else {
        return true; // all conjuncts handled
    };
    // Already violated: the cube shares no instance with the conjunct.
    if !cube.intersects(conjunct, space) {
        return solve_avoid(space, conjuncts, at + 1, cube, rng);
    }
    // Choose a constrained parameter and confine to the complement.
    let mut params: Vec<_> = conjunct.constrained(space).collect();
    // Shuffle via Fisher–Yates on indices for sampling diversity.
    for i in (1..params.len()).rev() {
        params.swap(i, rng.gen_range(0..=i));
    }
    let mut saved = Vec::new();
    for p in params {
        saved.clear();
        saved.extend_from_slice(cube.block(space, p));
        kernels::and_not_into(cube.block_mut(space, p), conjunct.block(space, p));
        let feasible = !kernels::is_zero(cube.block(space, p));
        if feasible && solve_avoid(space, conjuncts, at + 1, cube, rng) {
            return true;
        }
        cube.block_mut(space, p).copy_from_slice(&saved);
    }
    false
}

/// Draws an instance from a satisfiable cube: per parameter, a uniform pick
/// among the domain indices it allows.
fn sample_from_cube(space: &ParamSpace, cube: &CanonicalCause, rng: &mut StdRng) -> Instance {
    let indices: Vec<u32> = space
        .ids()
        .map(|p| {
            let n = kernels::popcount(cube.block(space, p));
            assert!(n > 0, "solver produced an empty allowed set");
            let k = rng.gen_range(0..n);
            cube.allowed(space, p).nth(k).expect("k is below the count") as u32
        })
        .collect();
    space.instance_from_indices(&indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{Comparator, ParamSpace, Predicate};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("n", [1, 2, 3, 4, 5])
            .categorical("color", ["red", "green", "blue"])
            .ordinal("m", [1, 2, 3, 4])
            .build()
    }

    fn example4_truth(s: &ParamSpace) -> Truth {
        // Paper Example 4 shape: (n = 4) ∨ (m ≤ 2 ∧ color ≠ "blue").
        let n = s.by_name("n").unwrap();
        let m = s.by_name("m").unwrap();
        let color = s.by_name("color").unwrap();
        Truth::new(
            s,
            Dnf::new(vec![
                Conjunction::new(vec![Predicate::eq(n, 4)]),
                Conjunction::new(vec![
                    Predicate::new(m, Comparator::Le, 2),
                    Predicate::new(color, Comparator::Neq, "blue"),
                ]),
            ]),
        )
    }

    #[test]
    fn fails_matches_dnf() {
        let s = space();
        let t = example4_truth(&s);
        let f = Instance::from_pairs(
            &s,
            [("n", 4.into()), ("color", "blue".into()), ("m", 4.into())],
        );
        let g = Instance::from_pairs(
            &s,
            [("n", 1.into()), ("color", "blue".into()), ("m", 1.into())],
        );
        assert!(t.fails(&f));
        assert!(!t.fails(&g));
    }

    #[test]
    fn definitive_test_exact() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let m = s.by_name("m").unwrap();
        let color = s.by_name("color").unwrap();
        let t = example4_truth(&s);
        // The planted conjuncts are definitive.
        assert!(t.is_definitive(&s, &Conjunction::new(vec![Predicate::eq(n, 4)])));
        // A superset of a cause is definitive (but not minimal).
        assert!(t.is_definitive(
            &s,
            &Conjunction::new(vec![Predicate::eq(n, 4), Predicate::eq(m, 1)])
        ));
        // A subset of the conjunction cause is NOT definitive.
        assert!(!t.is_definitive(
            &s,
            &Conjunction::new(vec![Predicate::new(m, Comparator::Le, 2)])
        ));
        // A semantically equal rewrite IS definitive.
        assert!(t.is_definitive(
            &s,
            &Conjunction::new(vec![
                Predicate::new(n, Comparator::Gt, 3),
                Predicate::new(n, Comparator::Le, 4)
            ])
        ));
        // Unrelated causes are not definitive.
        assert!(!t.is_definitive(&s, &Conjunction::new(vec![Predicate::eq(color, "red")])));
    }

    #[test]
    fn matches_minimal_is_semantic() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let t = example4_truth(&s);
        // n=4 expressed as a range matches semantically.
        let rewrite = Conjunction::new(vec![
            Predicate::new(n, Comparator::Gt, 3),
            Predicate::new(n, Comparator::Le, 4),
        ]);
        assert!(t.matches_minimal(&s, &rewrite));
        // A definitive superset is not minimal.
        let m = s.by_name("m").unwrap();
        let superset = Conjunction::new(vec![Predicate::eq(n, 4), Predicate::eq(m, 1)]);
        assert!(!t.matches_minimal(&s, &superset));
    }

    #[test]
    fn sample_succeeding_always_succeeds() {
        let s = space();
        let t = example4_truth(&s);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let inst = t.sample_succeeding(&s, &mut rng).unwrap();
            assert!(!t.fails(&inst), "sampled {}", inst.display(&s));
        }
    }

    #[test]
    fn sample_failing_always_fails() {
        let s = space();
        let t = example4_truth(&s);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..50 {
            let inst = t.sample_failing(&s, &mut rng).unwrap();
            assert!(t.fails(&inst), "sampled {}", inst.display(&s));
        }
    }

    #[test]
    fn sample_succeeding_none_when_all_fail() {
        let s = space();
        let n = s.by_name("n").unwrap();
        // n ≤ 5 covers everything.
        let t = Truth::new(
            &s,
            Dnf::new(vec![Conjunction::new(vec![Predicate::new(
                n,
                Comparator::Le,
                5,
            )])]),
        );
        let mut rng = StdRng::seed_from_u64(11);
        assert!(t.sample_succeeding(&s, &mut rng).is_none());
    }

    #[test]
    fn failure_fraction_exact() {
        let s = space();
        let t = example4_truth(&s);
        // Brute-force comparison over the 60-instance space.
        let brute = s.instances().filter(|i| t.fails(i)).count() as f64
            / s.total_configurations() as f64;
        assert!((t.failure_fraction(&s) - brute).abs() < 1e-12);
    }

    #[test]
    fn failure_fraction_single_cause() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let t = Truth::new(
            &s,
            Dnf::new(vec![Conjunction::new(vec![Predicate::eq(n, 4)])]),
        );
        assert!((t.failure_fraction(&s) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn unsat_conjuncts_dropped() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let t = Truth::new(
            &s,
            Dnf::new(vec![Conjunction::new(vec![
                Predicate::new(n, Comparator::Le, 1),
                Predicate::new(n, Comparator::Gt, 2),
            ])]),
        );
        assert!(t.is_empty());
        assert_eq!(t.failure_fraction(&s), 0.0);
    }
}

#[cfg(test)]
mod sample_instance_tests {
    use super::*;
    use bugdoc_core::{Comparator, ParamSpace, Predicate};
    use rand::SeedableRng;

    #[test]
    fn satisfies_require_and_violates_avoid() {
        let s = ParamSpace::builder()
            .ordinal("a", [1, 2, 3, 4])
            .ordinal("b", [1, 2, 3, 4])
            .build();
        let a = s.by_name("a").unwrap();
        let b = s.by_name("b").unwrap();
        let require = Conjunction::new(vec![Predicate::new(a, Comparator::Gt, 2)]).canonicalize(&s);
        let avoid = vec![Conjunction::new(vec![Predicate::eq(b, 1)]).canonicalize(&s)];
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let inst = sample_instance(&s, Some(&require), &avoid, &mut rng).unwrap();
            assert!(require.satisfied_by(&inst, &s));
            assert!(!avoid[0].satisfied_by(&inst, &s));
        }
    }

    #[test]
    fn infeasible_combination_returns_none() {
        let s = ParamSpace::builder().ordinal("a", [1, 2]).build();
        let a = s.by_name("a").unwrap();
        let require = Conjunction::new(vec![Predicate::eq(a, 1)]).canonicalize(&s);
        // Avoiding a≤2 is impossible.
        let avoid = vec![Conjunction::new(vec![Predicate::new(a, Comparator::Le, 2)]).canonicalize(&s)];
        let mut rng = StdRng::seed_from_u64(6);
        assert!(sample_instance(&s, Some(&require), &avoid, &mut rng).is_none());
    }
}
