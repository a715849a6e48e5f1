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
//! # Cube layout
//!
//! A cube is one flat block of `u64` words. Each parameter, in id order,
//! owns `len.div_ceil(64)` consecutive words of it, one bit per domain value
//! (value `v` is bit `v % 64` of the parameter's word `v / 64`), so a domain
//! of any size fits the same layout. Bits past a domain's last value are
//! clear in every cube, which makes cube equality plain word equality. The
//! set algebra composes [`bugdoc_core::kernels`]: inclusion is
//! `!and_not_any`, a per-parameter intersection test is `and_any`, an empty
//! allowed set is `is_zero`, and merging and splitting a parameter's set are
//! `or_multi_into`, `and_or_multi_into` and `and_not_into` on its words.

use bugdoc_core::{kernels, CanonicalCause, Conjunction, Dnf, ParamId, ParamSpace};
use std::ops::Range;

/// A cube: every parameter's allowed set, in the [layout](self#cube-layout)
/// of its space (full sets included, unlike [`CanonicalCause`], which drops
/// them).
type Cube = Vec<u64>;

/// Where each parameter's allowed set lives in a space's cubes.
struct Layout {
    /// Parameter `i` owns words `bounds[i]..bounds[i + 1]`.
    bounds: Vec<usize>,
    /// Domain size of each parameter.
    lens: Vec<usize>,
    /// The cube allowing every value of every parameter.
    full: Cube,
}

impl Layout {
    fn new(space: &ParamSpace) -> Self {
        let lens: Vec<usize> = space.ids().map(|p| space.domain(p).len()).collect();
        let mut bounds = vec![0];
        let mut full = Vec::new();
        for &len in &lens {
            full.extend((0..len.div_ceil(64)).map(|w| {
                let bits = (len - 64 * w).min(64);
                u64::MAX >> (64 - bits)
            }));
            bounds.push(full.len());
        }
        Layout { bounds, lens, full }
    }

    /// Each parameter's word range, in id order.
    fn blocks(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.bounds.windows(2).map(|b| b[0]..b[1])
    }

    fn block(&self, p: usize) -> Range<usize> {
        self.bounds[p]..self.bounds[p + 1]
    }

    fn to_cube(&self, canon: &CanonicalCause) -> Cube {
        let mut cube = self.full.clone();
        for (p, mask) in canon.masks() {
            let block = &mut cube[self.block(p.index())];
            block.fill(0);
            for v in (0..mask.len()).filter(|&v| mask[v]) {
                set_value(block, v, true);
            }
        }
        cube
    }

    fn to_canonical(&self, space: &ParamSpace, cube: &[u64]) -> CanonicalCause {
        let masks = self
            .blocks()
            .zip(&self.lens)
            .enumerate()
            .map(|(i, (r, &len))| {
                let block = &cube[r];
                (
                    ParamId(i as u32),
                    (0..len).map(|v| has_value(block, v)).collect(),
                )
            })
            .collect();
        CanonicalCause::from_masks(space, masks)
    }

    /// Some parameter allows no value: the cube denotes no instance.
    fn is_empty(&self, cube: &[u64]) -> bool {
        self.blocks().any(|r| kernels::is_zero(&cube[r]))
    }

    /// `a ∩ b ≠ ∅`: the two allowed sets meet on every parameter.
    fn intersect(&self, a: &[u64], b: &[u64]) -> bool {
        self.blocks()
            .all(|r| kernels::and_any(&a[r.clone()], &b[r]))
    }

    /// The parameter where `a` and `b` differ, provided they are equal on
    /// every other parameter (the MV merge precondition).
    fn differs_in_exactly_one(&self, a: &[u64], b: &[u64]) -> Option<Range<usize>> {
        let mut found = None;
        for r in self.blocks() {
            if a[r.clone()] != b[r.clone()] {
                if found.is_some() {
                    return None;
                }
                found = Some(r);
            }
        }
        found
    }

    /// Is `cube ⊆ ⋃ cover`? Decided by recursive splitting: pick a covering
    /// cube `c` that intersects `cube`; if `cube ⊆ c` we are done, otherwise
    /// split `cube` along one parameter into the part inside `c` and the part
    /// outside, and recurse on both. Each split strictly shrinks the cube, so
    /// the recursion terminates.
    fn covered_by(&self, cube: &[u64], cover: &[Cube]) -> bool {
        if self.is_empty(cube) {
            return true;
        }
        let Some(c) = cover.iter().find(|c| self.intersect(cube, c)) else {
            return false;
        };
        if !kernels::and_not_any(cube, c) {
            return true;
        }
        // A parameter where cube sticks out of c must exist (cube ⊄ c).
        let r = self
            .blocks()
            .find(|r| kernels::and_not_any(&cube[r.clone()], &c[r.clone()]))
            .expect("cube not contained in c, so some parameter sticks out");
        let mut part = cube.to_vec();
        kernels::and_or_multi_into(&mut part[r.clone()], &[&c[r.clone()]]);
        if !self.covered_by(&part, cover) {
            return false;
        }
        part[r.clone()].copy_from_slice(&cube[r.clone()]);
        kernels::and_not_into(&mut part[r.clone()], &c[r]);
        self.covered_by(&part, cover)
    }
}

/// Whether a parameter's words allow its value `v`.
fn has_value(block: &[u64], v: usize) -> bool {
    block[v / 64] >> (v % 64) & 1 == 1
}

/// Allows or forbids value `v` in a parameter's words.
fn set_value(block: &mut [u64], v: usize, allowed: bool) {
    let bit = 1u64 << (v % 64);
    if allowed {
        block[v / 64] |= bit;
    } else {
        block[v / 64] &= !bit;
    }
}

/// Drops cubes implied by another cube (keeping the first of equal pairs).
fn absorb(cubes: &mut Vec<Cube>) {
    let mut i = 0;
    while i < cubes.len() {
        let absorbed = (0..cubes.len()).any(|j| {
            j != i
                && !kernels::and_not_any(&cubes[i], &cubes[j])
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
fn merge_pass(layout: &Layout, cubes: &mut Vec<Cube>) {
    loop {
        let mut merged = None;
        'outer: for i in 0..cubes.len() {
            for j in (i + 1)..cubes.len() {
                if let Some(r) = layout.differs_in_exactly_one(&cubes[i], &cubes[j]) {
                    let mut m = cubes[i].clone();
                    kernels::or_multi_into(
                        &mut m[r.clone()],
                        &[&cubes[i][r.clone()], &cubes[j][r]],
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
/// whole parameters (set the mask full), then individual values, keeping
/// every expansion that stays inside `⋃ f`. Freed parameters disappear from
/// the final conjunction — this is what turns a verbose tree path into a
/// minimal cause.
fn expand_pass(layout: &Layout, cubes: &mut [Cube], f: &[Cube]) {
    let mut saved = Vec::new();
    for cube in cubes.iter_mut() {
        for (r, &len) in layout.blocks().zip(&layout.lens) {
            if cube[r.clone()] == layout.full[r.clone()] {
                continue;
            }
            // Whole-parameter expansion.
            saved.clear();
            saved.extend_from_slice(&cube[r.clone()]);
            cube[r.clone()].copy_from_slice(&layout.full[r.clone()]);
            if layout.covered_by(cube, f) {
                continue;
            }
            cube[r.clone()].copy_from_slice(&saved);
            // Per-value expansion.
            for v in 0..len {
                if !has_value(&cube[r.clone()], v) {
                    set_value(&mut cube[r.clone()], v, true);
                    if !layout.covered_by(cube, f) {
                        set_value(&mut cube[r.clone()], v, false);
                    }
                }
            }
        }
    }
}

/// Removes cubes covered by the union of the remaining cubes.
fn irredundant_pass(layout: &Layout, cubes: &mut Vec<Cube>) {
    let mut i = 0;
    while i < cubes.len() {
        // The rest, in order, is the vector without cube i.
        let cube = cubes.remove(i);
        if !layout.covered_by(&cube, cubes) {
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
    let layout = Layout::new(space);
    let mut cubes: Vec<Cube> = dnf
        .conjuncts()
        .iter()
        .map(|c| layout.to_cube(&c.canonicalize(space)))
        .filter(|c| !layout.is_empty(c))
        .collect();

    if cubes.contains(&layout.full) {
        // Some conjunct is a tautology: the whole DNF is ⊤.
        return Dnf::new(vec![Conjunction::top()]);
    }
    if cubes.is_empty() {
        return Dnf::bottom();
    }

    let f = cubes.clone(); // the reference function, fixed
    absorb(&mut cubes);
    merge_pass(&layout, &mut cubes);
    expand_pass(&layout, &mut cubes, &f);
    if cubes.contains(&layout.full) {
        return Dnf::new(vec![Conjunction::top()]);
    }
    absorb(&mut cubes);
    merge_pass(&layout, &mut cubes);
    irredundant_pass(&layout, &mut cubes);

    Dnf::new(
        cubes
            .iter()
            .map(|c| layout.to_canonical(space, c).to_conjunction(space))
            .collect(),
    )
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
    let layout = Layout::new(space);
    let cover: Vec<Cube> = cover.iter().map(|c| layout.to_cube(c)).collect();
    layout.covered_by(&layout.to_cube(cause), &cover)
}

/// Simplifies a single conjunction to its shortest equivalent form over the
/// space (e.g. `n ≠ 1 ∧ n ≠ 2` over `{1..5}` becomes `n > 2`). Returns `None`
/// if the conjunction is unsatisfiable over the space.
pub fn simplify_conjunction(space: &ParamSpace, conj: &Conjunction) -> Option<Conjunction> {
    let canon = conj.canonicalize(space);
    if canon.is_unsatisfiable() {
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
        let layout = Layout::new(&s);
        let n = s.by_name("n").unwrap();
        // cube n∈{2,3,4} covered by {n≤3} ∪ {n>3}? yes.
        let cube = layout.to_cube(
            &Conjunction::new(vec![
                Predicate::new(n, Comparator::Gt, 1),
                Predicate::new(n, Comparator::Le, 4),
            ])
            .canonicalize(&s),
        );
        let a = layout.to_cube(
            &Conjunction::new(vec![Predicate::new(n, Comparator::Le, 3)]).canonicalize(&s),
        );
        let b = layout.to_cube(
            &Conjunction::new(vec![Predicate::new(n, Comparator::Gt, 3)]).canonicalize(&s),
        );
        assert!(layout.covered_by(&cube, &[a.clone(), b]));
        assert!(!layout.covered_by(&cube, &[a]));
    }

    #[test]
    fn layout_gives_each_parameter_its_own_words() {
        let s = ParamSpace::builder()
            .ordinal("big", 0..130i64)
            .boolean("flag")
            .ordinal("wide", 0..64i64)
            .build();
        let layout = Layout::new(&s);
        assert_eq!(layout.bounds, [0, 3, 4, 5]);
        assert_eq!(layout.full, [u64::MAX, u64::MAX, 0b11, 0b11, u64::MAX]);
        // A value past the first word lands in its parameter's second word.
        let big = s.by_name("big").unwrap();
        let canon = Conjunction::new(vec![Predicate::eq(big, 100i64)]).canonicalize(&s);
        let cube = layout.to_cube(&canon);
        assert_eq!(&cube[..3], &[0u64, 1 << 36, 0]);
        assert_eq!(layout.to_canonical(&s, &cube), canon);
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
