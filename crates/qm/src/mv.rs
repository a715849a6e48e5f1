//! Multi-valued logic minimization of root-cause DNFs.
//!
//! Debugging Decision Trees returns disjunctions of conjunctions that "may
//! contain redundancies, which we simplify using the Quine-McCluskey
//! algorithm. The goal is to create concise explanations" (paper §4). Root
//! causes range over *multi-valued* parameter domains, so this module
//! implements the multi-valued generalization of Quine–McCluskey (in the
//! style of Espresso-MV): each conjunction canonicalizes to a *cube* — a
//! product of per-parameter allowed sets — and the algorithm applies
//!
//! 1. **absorption** (drop cubes implied by another cube),
//! 2. **merging** (two cubes equal on all but one parameter union into one —
//!    the MV analogue of the QM adjacency merge),
//! 3. **expansion** (raise a cube's allowed sets, or drop a parameter
//!    entirely, while staying inside the original function), and
//! 4. **irredundant cover** (drop cubes covered by the union of the rest),
//!
//! all of which preserve the denoted instance set exactly. Binary inputs
//! reduce to classic Quine–McCluskey (see the differential test against
//! [`crate::boolean`]).
//!
//! A cube is a [`CanonicalCause`] itself, in the word layout bugdoc-core's
//! cause module documents ("Cube layout"); the passes read and rewrite its
//! parameters' blocks in place with [`bugdoc_core::kernels`].

use bugdoc_core::{kernels, CanonicalCause, Conjunction, Dnf, ParamId, ParamSpace};

/// The parameter where `a` and `b` differ, provided they are equal on every
/// other parameter (the MV merge precondition).
fn differs_in_exactly_one(
    space: &ParamSpace,
    a: &CanonicalCause,
    b: &CanonicalCause,
) -> Option<ParamId> {
    let mut found = None;
    for p in space.ids() {
        if a.block(space, p) != b.block(space, p) {
            if found.is_some() {
                return None;
            }
            found = Some(p);
        }
    }
    found
}

/// Is `cube ⊆ ⋃ cover`? Decided by recursive splitting: pick a covering
/// cube `c` that intersects `cube`; if `cube ⊆ c` we are done, otherwise
/// split `cube` along one parameter into the part inside `c` and the part
/// outside, and recurse on both. Each split strictly shrinks the cube, so
/// the recursion terminates.
fn covered_by(space: &ParamSpace, cube: &CanonicalCause, cover: &[CanonicalCause]) -> bool {
    if cube.is_unsatisfiable(space) {
        return true;
    }
    let Some(c) = cover.iter().find(|c| cube.intersects(c, space)) else {
        return false;
    };
    if !kernels::and_not_any(cube.words(), c.words()) {
        return true;
    }
    // A parameter where cube sticks out of c must exist (cube ⊄ c).
    let p = space
        .ids()
        .find(|&p| kernels::and_not_any(cube.block(space, p), c.block(space, p)))
        .expect("cube not contained in c, so some parameter sticks out");
    let mut part = cube.clone();
    kernels::and_or_multi_into(part.block_mut(space, p), &[c.block(space, p)]);
    if !covered_by(space, &part, cover) {
        return false;
    }
    part.block_mut(space, p)
        .copy_from_slice(cube.block(space, p));
    kernels::and_not_into(part.block_mut(space, p), c.block(space, p));
    covered_by(space, &part, cover)
}

/// Drops cubes implied by another cube (keeping the first of equal pairs).
fn absorb(cubes: &mut Vec<CanonicalCause>) {
    let mut i = 0;
    while i < cubes.len() {
        let absorbed = (0..cubes.len()).any(|j| {
            j != i
                && !kernels::and_not_any(cubes[i].words(), cubes[j].words())
                && !(j > i && cubes[i] == cubes[j])
        });
        if absorbed {
            cubes.remove(i);
        } else {
            i += 1;
        }
    }
}

/// Repeatedly merges cube pairs that differ in exactly one parameter.
fn merge_pass(space: &ParamSpace, cubes: &mut Vec<CanonicalCause>) {
    loop {
        let mut merged = None;
        'outer: for i in 0..cubes.len() {
            for j in (i + 1)..cubes.len() {
                if let Some(p) = differs_in_exactly_one(space, &cubes[i], &cubes[j]) {
                    let mut m = cubes[i].clone();
                    kernels::or_multi_into(
                        m.block_mut(space, p),
                        &[cubes[i].block(space, p), cubes[j].block(space, p)],
                    );
                    merged = Some((i, j, m));
                    break 'outer;
                }
            }
        }
        match merged {
            Some((i, j, m)) => {
                cubes.remove(j);
                cubes.remove(i);
                cubes.push(m);
            }
            None => break,
        }
    }
}

/// Expands each cube against the reference function `f`: first tries to free
/// whole parameters (allow the whole domain), then individual values, keeping
/// every expansion that stays inside `⋃ f`. Freed parameters disappear from
/// the final conjunction — this is what turns a verbose tree path into a
/// minimal cause.
fn expand_pass(space: &ParamSpace, cubes: &mut [CanonicalCause], f: &[CanonicalCause]) {
    let mut saved = Vec::new();
    for cube in cubes.iter_mut() {
        for p in space.ids() {
            if !cube.constrains(space, p) {
                continue;
            }
            // Whole-parameter expansion.
            saved.clear();
            saved.extend_from_slice(cube.block(space, p));
            cube.unconstrain(space, p);
            if covered_by(space, cube, f) {
                continue;
            }
            cube.block_mut(space, p).copy_from_slice(&saved);
            // Per-value expansion.
            for v in 0..space.domain(p).len() {
                if !cube.allows(space, p, v) {
                    cube.set_allowed(space, p, v, true);
                    if !covered_by(space, cube, f) {
                        cube.set_allowed(space, p, v, false);
                    }
                }
            }
        }
    }
}

/// Removes cubes covered by the union of the remaining cubes.
fn irredundant_pass(space: &ParamSpace, cubes: &mut Vec<CanonicalCause>) {
    let mut i = 0;
    while i < cubes.len() {
        // The rest, in order, is the vector without cube i.
        let cube = cubes.remove(i);
        if !covered_by(space, &cube, cubes) {
            cubes.insert(i, cube);
            i += 1;
        }
    }
}

/// Minimizes a DNF of root causes over a finite parameter space. The result
/// denotes exactly the same set of instances (a property-tested invariant)
/// with no redundant conjunct, no conjunct expressible more simply, and no
/// pair of conjuncts mergeable into one.
pub fn minimize_dnf(space: &ParamSpace, dnf: &Dnf) -> Dnf {
    let mut cubes: Vec<CanonicalCause> = dnf
        .conjuncts()
        .iter()
        .map(|c| c.canonicalize(space))
        .filter(|c| !c.is_unsatisfiable(space))
        .collect();

    if cubes.iter().any(|c| c.is_top(space)) {
        // Some conjunct is a tautology: the whole DNF is ⊤.
        return Dnf::new(vec![Conjunction::top()]);
    }
    if cubes.is_empty() {
        return Dnf::bottom();
    }

    let f = cubes.clone(); // the reference function, fixed
    absorb(&mut cubes);
    merge_pass(space, &mut cubes);
    expand_pass(space, &mut cubes, &f);
    if cubes.iter().any(|c| c.is_top(space)) {
        return Dnf::new(vec![Conjunction::top()]);
    }
    absorb(&mut cubes);
    merge_pass(space, &mut cubes);
    irredundant_pass(space, &mut cubes);

    Dnf::new(cubes.iter().map(|c| c.to_conjunction(space)).collect())
}

/// Semantic coverage check exposed for ground-truth computations: is every
/// instance satisfying `cause` covered by some member of `cover`? This is
/// exactly the *definitive root cause* test against a known failure DNF
/// (paper Def. 4): `cause ⊨ ⋁ cover`.
pub fn cause_covered_by(
    space: &ParamSpace,
    cause: &CanonicalCause,
    cover: &[CanonicalCause],
) -> bool {
    covered_by(space, cause, cover)
}

/// Simplifies a single conjunction to its shortest equivalent form over the
/// space (e.g. `n ≠ 1 ∧ n ≠ 2` over `{1..5}` becomes `n > 2`). Returns `None`
/// if the conjunction is unsatisfiable over the space.
pub fn simplify_conjunction(space: &ParamSpace, conj: &Conjunction) -> Option<Conjunction> {
    let canon = conj.canonicalize(space);
    if canon.is_unsatisfiable(space) {
        return None;
    }
    Some(canon.to_conjunction(space))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{Comparator, ParamSpace, Predicate};
    use std::sync::Arc;

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("n", [1, 2, 3, 4, 5])
            .categorical("color", ["red", "green", "blue"])
            .build()
    }

    fn assert_equivalent(space: &ParamSpace, a: &Dnf, b: &Dnf) {
        for inst in space.instances() {
            assert_eq!(
                a.satisfied_by(&inst),
                b.satisfied_by(&inst),
                "disagree on {}:\n a={}\n b={}",
                inst.display(space),
                a.display(space),
                b.display(space)
            );
        }
    }

    #[test]
    fn absorbs_subsumed_conjunct() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();
        // (n > 3) ∨ (n > 3 ∧ color = red) -> (n > 3).
        let dnf = Dnf::new(vec![
            Conjunction::new(vec![Predicate::new(n, Comparator::Gt, 3)]),
            Conjunction::new(vec![
                Predicate::new(n, Comparator::Gt, 3),
                Predicate::eq(color, "red"),
            ]),
        ]);
        let min = minimize_dnf(&s, &dnf);
        assert_eq!(min.len(), 1);
        assert_equivalent(&s, &dnf, &min);
    }

    #[test]
    fn merges_adjacent_values() {
        let s = space();
        let n = s.by_name("n").unwrap();
        // (n = 4) ∨ (n = 5) -> (n > 3).
        let dnf = Dnf::new(vec![
            Conjunction::new(vec![Predicate::eq(n, 4)]),
            Conjunction::new(vec![Predicate::eq(n, 5)]),
        ]);
        let min = minimize_dnf(&s, &dnf);
        assert_eq!(min.len(), 1);
        assert_eq!(min.conjuncts()[0].predicates().len(), 1);
        assert_equivalent(&s, &dnf, &min);
    }

    #[test]
    fn merges_categorical_cover_to_top_param() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();
        // (n=5 ∧ color=red) ∨ (n=5 ∧ color=green) ∨ (n=5 ∧ color=blue) -> n=5.
        let dnf = Dnf::new(
            ["red", "green", "blue"]
                .into_iter()
                .map(|c| {
                    Conjunction::new(vec![Predicate::eq(n, 5), Predicate::eq(color, c)])
                })
                .collect(),
        );
        let min = minimize_dnf(&s, &dnf);
        assert_eq!(min.len(), 1);
        assert_eq!(min.conjuncts()[0].predicates().len(), 1);
        assert_equivalent(&s, &dnf, &min);
    }

    #[test]
    fn expansion_drops_redundant_parameter() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();
        // (n=5 ∧ color=red) ∨ (n=5 ∧ color≠red): color is irrelevant.
        let dnf = Dnf::new(vec![
            Conjunction::new(vec![Predicate::eq(n, 5), Predicate::eq(color, "red")]),
            Conjunction::new(vec![
                Predicate::eq(n, 5),
                Predicate::new(color, Comparator::Neq, "red"),
            ]),
        ]);
        let min = minimize_dnf(&s, &dnf);
        assert_eq!(min.len(), 1);
        let c = &min.conjuncts()[0];
        assert_eq!(c.predicates().len(), 1);
        assert_eq!(c.predicates()[0].param, n);
        assert_equivalent(&s, &dnf, &min);
    }

    #[test]
    fn keeps_genuinely_disjoint_causes() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();
        // The paper's Example 4 shape: (n = 4) ∨ (n < 3 ∧ color ≠ blue).
        let dnf = Dnf::new(vec![
            Conjunction::new(vec![Predicate::eq(n, 4)]),
            Conjunction::new(vec![
                Predicate::new(n, Comparator::Le, 2),
                Predicate::new(color, Comparator::Neq, "blue"),
            ]),
        ]);
        let min = minimize_dnf(&s, &dnf);
        assert_eq!(min.len(), 2);
        assert_equivalent(&s, &dnf, &min);
    }

    #[test]
    fn tautology_collapses_to_top() {
        let s = space();
        let color = s.by_name("color").unwrap();
        // color=red ∨ color≠red ≡ ⊤.
        let dnf = Dnf::new(vec![
            Conjunction::new(vec![Predicate::eq(color, "red")]),
            Conjunction::new(vec![Predicate::new(color, Comparator::Neq, "red")]),
        ]);
        let min = minimize_dnf(&s, &dnf);
        assert_eq!(min.len(), 1);
        assert!(min.conjuncts()[0].is_empty());
    }

    #[test]
    fn unsatisfiable_conjuncts_dropped() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let dnf = Dnf::new(vec![Conjunction::new(vec![
            Predicate::new(n, Comparator::Le, 2),
            Predicate::new(n, Comparator::Gt, 3),
        ])]);
        assert!(minimize_dnf(&s, &dnf).is_empty());
        assert!(minimize_dnf(&s, &Dnf::bottom()).is_empty());
    }

    #[test]
    fn irredundant_removes_union_covered_cube() {
        let s = space();
        let n = s.by_name("n").unwrap();
        // (n ≤ 2) ∨ (n > 2) ∨ (n = 3): third is covered by the union (and the
        // first two merge into ⊤).
        let dnf = Dnf::new(vec![
            Conjunction::new(vec![Predicate::new(n, Comparator::Le, 2)]),
            Conjunction::new(vec![Predicate::new(n, Comparator::Gt, 2)]),
            Conjunction::new(vec![Predicate::eq(n, 3)]),
        ]);
        let min = minimize_dnf(&s, &dnf);
        assert_eq!(min.len(), 1);
        assert!(min.conjuncts()[0].is_empty());
    }

    #[test]
    fn simplify_single_conjunction() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let c = Conjunction::new(vec![
            Predicate::new(n, Comparator::Neq, 1),
            Predicate::new(n, Comparator::Neq, 2),
        ]);
        let simplified = simplify_conjunction(&s, &c).unwrap();
        assert_eq!(simplified.predicates().len(), 1);
        assert_eq!(simplified.predicates()[0].cmp, Comparator::Gt);

        let unsat = Conjunction::new(vec![
            Predicate::new(n, Comparator::Le, 1),
            Predicate::new(n, Comparator::Gt, 2),
        ]);
        assert!(simplify_conjunction(&s, &unsat).is_none());
    }

    #[test]
    fn covered_by_splitting_logic() {
        let s = space();
        let n = s.by_name("n").unwrap();
        // cube n∈{2,3,4} covered by {n≤3} ∪ {n>3}? yes.
        let cube = Conjunction::new(vec![
            Predicate::new(n, Comparator::Gt, 1),
            Predicate::new(n, Comparator::Le, 4),
        ])
        .canonicalize(&s);
        let a = Conjunction::new(vec![Predicate::new(n, Comparator::Le, 3)]).canonicalize(&s);
        let b = Conjunction::new(vec![Predicate::new(n, Comparator::Gt, 3)]).canonicalize(&s);
        assert!(covered_by(&s, &cube, &[a.clone(), b]));
        assert!(!covered_by(&s, &cube, &[a]));
    }

    #[test]
    fn layout_gives_each_parameter_its_own_words() {
        let s = ParamSpace::builder()
            .ordinal("big", 0..130i64)
            .boolean("flag")
            .ordinal("wide", 0..64i64)
            .build();
        let full = CanonicalCause::top(&s);
        assert_eq!(full.words(), [u64::MAX, u64::MAX, 0b11, 0b11, u64::MAX]);
        // A value past the first word lands in its parameter's second word.
        let big = s.by_name("big").unwrap();
        let canon = Conjunction::new(vec![Predicate::eq(big, 100i64)]).canonicalize(&s);
        assert_eq!(&canon.words()[..3], &[0u64, 1 << 36, 0]);
        assert_eq!(canon.block(&s, big), &canon.words()[..3]);
        assert_eq!(canon.allowed(&s, big).collect::<Vec<_>>(), [100]);
    }

    /// One instance from the paper's running theme: minimization of the DDT
    /// output over the Figure-1 space.
    #[test]
    fn figure1_style_minimization() {
        let s = ParamSpace::builder()
            .categorical("Dataset", ["Iris", "Digits", "Images"])
            .categorical("Estimator", ["LR", "DT", "GB"])
            .ordinal("Version", [1, 2])
            .build();
        let ds = s.by_name("Dataset").unwrap();
        let est = s.by_name("Estimator").unwrap();
        // (Dataset=Iris ∧ Estimator=GB) ∨ (Dataset=Digits ∧ Estimator=GB)
        // -> Dataset ≠ Images ∧ Estimator = GB.
        let dnf = Dnf::new(vec![
            Conjunction::new(vec![Predicate::eq(ds, "Iris"), Predicate::eq(est, "GB")]),
            Conjunction::new(vec![Predicate::eq(ds, "Digits"), Predicate::eq(est, "GB")]),
        ]);
        let min = minimize_dnf(&s, &dnf);
        assert_eq!(min.len(), 1);
        let c = &min.conjuncts()[0];
        assert_eq!(c.predicates().len(), 2);
        assert_equivalent(&s, &dnf, &min);
        let txt = min.display(&s).to_string();
        assert!(txt.contains("Dataset ≠ Images"), "got {txt}");
    }
}
