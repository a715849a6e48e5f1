//! Differential test of the word-cube minimizer against the one it
//! replaced, which kept a cube as one `Vec<bool>` mask per parameter. That
//! minimizer is kept below, verbatim, as the oracle. Both run absorb →
//! merge → expand → irredundant in the same order with the same tie-breaks,
//! so `minimize_dnf` must return the same conjuncts in the same order, and
//! `cause_covered_by` the same answer, on every input. The spaces mix
//! ordinal and categorical parameters, 2-value domains, and one domain of
//! more than 64 values, whose allowed set spans several words of a cube.

use bugdoc_core::{CanonicalCause, Comparator, Conjunction, Dnf, ParamSpace, Predicate};
use proptest::prelude::*;
use std::sync::Arc;

/// The `Vec<Vec<bool>>` minimizer, verbatim.
#[allow(
    clippy::needless_range_loop,
    reason = "the oracle is kept verbatim as the minimizer it replaced"
)]
mod oracle {
    use bugdoc_core::{CanonicalCause, Conjunction, Dnf, ParamSpace};

    /// A dense cube: one allowed-mask per parameter (full masks included,
    /// like the [`CanonicalCause`] cube it converts from and to).
    type DenseCube = Vec<Vec<bool>>;

    fn to_dense(space: &ParamSpace, canon: &CanonicalCause) -> DenseCube {
        space
            .ids()
            .map(|p| {
                (0..space.domain(p).len())
                    .map(|v| canon.allows(space, p, v))
                    .collect()
            })
            .collect()
    }

    fn from_dense(space: &ParamSpace, cube: &DenseCube) -> CanonicalCause {
        let mut canon = CanonicalCause::top(space);
        for (p, mask) in space.ids().zip(cube) {
            for (v, &allowed) in mask.iter().enumerate() {
                canon.set_allowed(space, p, v, allowed);
            }
        }
        canon
    }

    fn is_empty_cube(cube: &DenseCube) -> bool {
        cube.iter().any(|m| m.iter().all(|&b| !b))
    }

    fn is_full_cube(cube: &DenseCube) -> bool {
        cube.iter().all(|m| m.iter().all(|&b| b))
    }

    /// `a ⊆ b` as product sets (per-parameter mask inclusion).
    fn cube_implies(a: &DenseCube, b: &DenseCube) -> bool {
        a.iter()
            .zip(b.iter())
            .all(|(ma, mb)| ma.iter().zip(mb.iter()).all(|(&x, &y)| !x || y))
    }

    fn cubes_intersect(a: &DenseCube, b: &DenseCube) -> bool {
        a.iter()
            .zip(b.iter())
            .all(|(ma, mb)| ma.iter().zip(mb.iter()).any(|(&x, &y)| x && y))
    }

    /// The parameter index where `a` and `b` differ, provided they are equal on
    /// every other parameter (the MV merge precondition).
    fn differs_in_exactly_one(a: &DenseCube, b: &DenseCube) -> Option<usize> {
        let mut found = None;
        for (p, (ma, mb)) in a.iter().zip(b.iter()).enumerate() {
            if ma != mb {
                if found.is_some() {
                    return None;
                }
                found = Some(p);
            }
        }
        found
    }

    /// Is `cube ⊆ ⋃ cover`? Decided by recursive splitting: pick a covering cube
    /// `c` that intersects `cube`; if `cube ⊆ c` we are done, otherwise split
    /// `cube` along one parameter into the part inside `c` and the part outside,
    /// and recurse on both. Each split strictly shrinks the cube, so the
    /// recursion terminates.
    fn covered_by(cube: &DenseCube, cover: &[DenseCube]) -> bool {
        if is_empty_cube(cube) {
            return true;
        }
        let candidate = cover.iter().find(|c| cubes_intersect(cube, c));
        let Some(c) = candidate else {
            return false;
        };
        if cube_implies(cube, c) {
            return true;
        }
        // A parameter where cube sticks out of c must exist (cube ⊄ c).
        let p = cube
            .iter()
            .zip(c.iter())
            .position(|(ma, mb)| ma.iter().zip(mb.iter()).any(|(&x, &y)| x && !y))
            .expect("cube not contained in c, so some mask sticks out");
        let mut inside = cube.clone();
        let mut outside = cube.clone();
        for i in 0..cube[p].len() {
            inside[p][i] = cube[p][i] && c[p][i];
            outside[p][i] = cube[p][i] && !c[p][i];
        }
        covered_by(&inside, cover) && covered_by(&outside, cover)
    }

    /// Drops cubes implied by another cube (keeping the first of equal pairs).
    fn absorb(cubes: &mut Vec<DenseCube>) {
        let mut i = 0;
        while i < cubes.len() {
            let absorbed = (0..cubes.len())
                .any(|j| j != i && cube_implies(&cubes[i], &cubes[j]) && !(j > i && cubes[i] == cubes[j]));
            if absorbed {
                cubes.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Repeatedly merges cube pairs that differ in exactly one parameter.
    fn merge_pass(cubes: &mut Vec<DenseCube>) {
        loop {
            let mut merged = None;
            'outer: for i in 0..cubes.len() {
                for j in (i + 1)..cubes.len() {
                    if let Some(p) = differs_in_exactly_one(&cubes[i], &cubes[j]) {
                        let mut m = cubes[i].clone();
                        for k in 0..m[p].len() {
                            m[p][k] = cubes[i][p][k] || cubes[j][p][k];
                        }
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
    fn expand_pass(cubes: &mut [DenseCube], f: &[DenseCube]) {
        for idx in 0..cubes.len() {
            let mut cube = cubes[idx].clone();
            for p in 0..cube.len() {
                // Whole-parameter expansion.
                let saved = cube[p].clone();
                if saved.iter().any(|&b| !b) {
                    cube[p].iter_mut().for_each(|b| *b = true);
                    if !covered_by(&cube, f) {
                        cube[p] = saved.clone();
                        // Per-value expansion.
                        for v in 0..cube[p].len() {
                            if !cube[p][v] {
                                cube[p][v] = true;
                                if !covered_by(&cube, f) {
                                    cube[p][v] = false;
                                }
                            }
                        }
                    }
                }
            }
            cubes[idx] = cube;
        }
    }

    /// Removes cubes covered by the union of the remaining cubes.
    fn irredundant_pass(cubes: &mut Vec<DenseCube>) {
        let mut i = 0;
        while i < cubes.len() {
            let rest: Vec<DenseCube> = cubes
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, c)| c.clone())
                .collect();
            if covered_by(&cubes[i], &rest) {
                cubes.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Minimizes a DNF of root causes over a finite parameter space. The result
    /// denotes exactly the same set of instances (a property-tested invariant)
    /// with no redundant conjunct, no conjunct expressible more simply, and no
    /// pair of conjuncts mergeable into one.
    pub fn minimize_dnf(space: &ParamSpace, dnf: &Dnf) -> Dnf {
        let mut cubes: Vec<DenseCube> = dnf
            .conjuncts()
            .iter()
            .map(|c| to_dense(space, &c.canonicalize(space)))
            .filter(|c| !is_empty_cube(c))
            .collect();

        if cubes.iter().any(is_full_cube) {
            // Some conjunct is a tautology: the whole DNF is ⊤.
            return Dnf::new(vec![Conjunction::top()]);
        }
        if cubes.is_empty() {
            return Dnf::bottom();
        }

        let f = cubes.clone(); // the reference function, fixed
        absorb(&mut cubes);
        merge_pass(&mut cubes);
        expand_pass(&mut cubes, &f);
        if cubes.iter().any(is_full_cube) {
            return Dnf::new(vec![Conjunction::top()]);
        }
        absorb(&mut cubes);
        merge_pass(&mut cubes);
        irredundant_pass(&mut cubes);

        Dnf::new(
            cubes
                .iter()
                .map(|c| from_dense(space, c).to_conjunction(space))
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
        let cube = to_dense(space, cause);
        let cover: Vec<DenseCube> = cover.iter().map(|c| to_dense(space, c)).collect();
        covered_by(&cube, &cover)
    }
}

/// A parameter: ordinal or categorical, and its domain size.
type ParamShape = (bool, usize);

/// A space of `shapes`, with one wide parameter (`wide` values, more than
/// 64) inserted at position `at`.
fn space_of(shapes: &[ParamShape], wide: ParamShape, at: usize) -> Arc<ParamSpace> {
    let mut all = shapes.to_vec();
    all.insert(at.min(all.len()), wide);
    let mut builder = ParamSpace::builder();
    for (i, &(ordinal, len)) in all.iter().enumerate() {
        let name = format!("p{i}");
        builder = if ordinal {
            builder.ordinal(name, 0..len as i64)
        } else {
            builder.categorical(name, (0..len).map(|v| format!("v{v}")))
        };
    }
    builder.build()
}

/// A conjunction from `(parameter, comparator, value)` picks, each reduced
/// into the space (categorical parameters take `=` and `≠` only).
fn conjunction(space: &ParamSpace, picks: &[(usize, usize, usize)]) -> Conjunction {
    let preds = picks
        .iter()
        .map(|&(p, c, v)| {
            let id = space
                .ids()
                .nth(p % space.len())
                .expect("p is reduced into the space");
            let domain = space.domain(id);
            let cmp = if domain.is_ordinal() {
                Comparator::ALL[c % 4]
            } else {
                Comparator::CATEGORICAL[c % 2]
            };
            Predicate::new(id, cmp, domain.value(v % domain.len()).clone())
        })
        .collect();
    Conjunction::new(preds)
}

/// One to three narrow parameters; a third of them have 2-value domains.
fn shapes() -> impl Strategy<Value = Vec<ParamShape>> {
    let len = (0usize..9).prop_map(|k| if k < 3 { 2 } else { k });
    proptest::collection::vec((any::<bool>(), len), 1..=3)
}

fn wide() -> impl Strategy<Value = ParamShape> {
    (any::<bool>(), 65usize..=140)
}

fn picks() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((0usize..8, 0usize..4, 0usize..200), 1..=3)
}

/// A conjunct: random picks, or (when the flag is set) a minterm that pins
/// every parameter with `=` to one of four values, the input binary QM
/// starts from, whose neighbours merge and expand. On the wide parameter
/// the four values are 62–65, either side of its first word boundary.
type Conjunct = (bool, Vec<(usize, usize, usize)>, Vec<usize>);

fn conjunct() -> impl Strategy<Value = Conjunct> {
    (
        any::<bool>(),
        picks(),
        proptest::collection::vec(0usize..4, 4),
    )
}

fn build(space: &ParamSpace, (minterm, picks, pins): &Conjunct) -> Conjunction {
    if !minterm {
        return conjunction(space, picks);
    }
    let preds = space
        .ids()
        .zip(pins)
        .map(|(id, &k)| {
            let domain = space.domain(id);
            let v = if domain.len() > 64 { 62 + k } else { k } % domain.len();
            Predicate::eq(id, domain.value(v).clone())
        })
        .collect();
    Conjunction::new(preds)
}

proptest! {
    // Expansion order shows only on rarer inputs (a cube that could free
    // either of two parameters but not both): 1,024 cases catch a minimizer
    // that expands parameters last to first, 96 did not.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Same conjuncts, same order, on random DNFs of up to 10 conjuncts.
    #[test]
    fn minimize_dnf_matches_the_mask_minimizer(
        shapes in shapes(),
        wide in wide(),
        at in 0usize..4,
        conjuncts in proptest::collection::vec(conjunct(), 1..=10),
    ) {
        let space = space_of(&shapes, wide, at);
        let dnf = Dnf::new(conjuncts.iter().map(|c| build(&space, c)).collect());
        prop_assert_eq!(
            bugdoc_qm::minimize_dnf(&space, &dnf),
            oracle::minimize_dnf(&space, &dnf),
            "dnf {}",
            dnf.display(&space)
        );
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same answer to `cause ⊨ ⋁ cover`, on random causes and covers of up
    /// to 6 members (an empty cover included).
    #[test]
    fn cause_covered_by_matches_the_mask_minimizer(
        shapes in shapes(),
        wide in wide(),
        at in 0usize..4,
        cause in conjunct(),
        cover in proptest::collection::vec(conjunct(), 0..=6),
    ) {
        let space = space_of(&shapes, wide, at);
        let cause = build(&space, &cause).canonicalize(&space);
        let cover: Vec<CanonicalCause> =
            cover.iter().map(|c| build(&space, c).canonicalize(&space)).collect();
        prop_assert_eq!(
            bugdoc_qm::cause_covered_by(&space, &cause, &cover),
            oracle::cause_covered_by(&space, &cause, &cover)
        );
    }
}
