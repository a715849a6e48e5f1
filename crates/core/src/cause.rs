//! Root causes: conjunctions and disjunctions of predicate triples, plus the
//! *canonical product form* used for semantic reasoning.
//!
//! A hypothetical root cause of failure is a Boolean conjunction of
//! parameter-comparator-value triples (paper §3, Def. 3). It is *definitive*
//! if no succeeding instance satisfies it (Def. 4), and *minimal* if no proper
//! subset is definitive (Def. 5). Debugging Decision Trees additionally
//! discovers *disjunctions* of conjunctions (§4.2), represented here as
//! [`Dnf`].
//!
//! Over a finite parameter space, a conjunction denotes a *product set*: for
//! each parameter, the subset of its domain the conjunction allows. Two
//! conjunctions are semantically equal iff they denote the same product set.
//! [`CanonicalCause`] materializes that form as a cube (below). The
//! provenance store's queries, DDT's sampler and generalization, the
//! Quine–McCluskey minimizer and the synthetic ground-truth solver all read
//! and narrow it in place, and the evaluation harness matches asserted causes
//! against ground truth by cube equality.
//!
//! # Cube layout
//!
//! A cube is one flat block of `u64` words over the whole space. Each
//! parameter, in id order, owns `len.div_ceil(64)` consecutive words of it,
//! one bit per domain value (value `v` is bit `v % 64` of the parameter's
//! word `v / 64`), so a domain of any size fits the same layout. A parameter
//! the cause does not constrain keeps its full set. Bits past a domain's last
//! value are clear in every cube, which makes cube equality and hashing plain
//! word equality. [`ParamSpace::new`] computes each parameter's words and the
//! full cube once, with this module's `cube_layout`; no other code lays out a
//! cube. The set
//! algebra composes [`kernels`]: inclusion is `!and_not_any`, a
//! per-parameter intersection test is `and_any`, an empty allowed set is
//! `is_zero`, and merging and splitting a parameter's set are
//! `or_multi_into`, `and_or_multi_into` and `and_not_into` on its words.

use crate::bitset::Ones;
use crate::instance::Instance;
use crate::kernels;
use crate::param::{Domain, DomainKind, ParamId, ParamSpace};
use crate::predicate::{Comparator, Predicate};
use std::fmt;

/// A Boolean conjunction of predicate triples. The empty conjunction is
/// `true` (satisfied by every instance).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Conjunction {
    preds: Vec<Predicate>,
}

impl Conjunction {
    /// The always-true conjunction.
    pub fn top() -> Self {
        Conjunction::default()
    }

    /// Builds a conjunction, sorting and deduplicating the triples so that
    /// syntactically equal conjunctions compare equal.
    pub fn new(mut preds: Vec<Predicate>) -> Self {
        preds.sort();
        preds.dedup();
        Conjunction { preds }
    }

    /// A conjunction of equality triples taken from an instance's
    /// parameter-value pairs — the form Shortcut asserts (`D ⊆ CP_f`).
    pub fn of_equalities<'a>(pairs: impl IntoIterator<Item = (ParamId, &'a crate::value::Value)>) -> Self {
        Conjunction::new(
            pairs
                .into_iter()
                .map(|(p, v)| Predicate::eq(p, v.clone()))
                .collect(),
        )
    }

    /// The triples, in sorted order.
    pub fn predicates(&self) -> &[Predicate] {
        &self.preds
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True for the always-true conjunction.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// True if the instance satisfies every triple.
    pub fn satisfied_by(&self, instance: &Instance) -> bool {
        self.preds.iter().all(|p| p.satisfied_by(instance))
    }

    /// A new conjunction with one triple removed (by position). Used when
    /// searching for minimal definitive root causes (Def. 5).
    pub fn without(&self, idx: usize) -> Conjunction {
        let mut preds = self.preds.clone();
        preds.remove(idx);
        Conjunction { preds }
    }

    /// The canonical product form over a concrete space: the full cube with
    /// every value some triple rejects cleared.
    pub fn canonicalize(&self, space: &ParamSpace) -> CanonicalCause {
        let mut cube = CanonicalCause::top(space);
        for pred in &self.preds {
            let block = cube.block_mut(space, pred.param);
            for (v, value) in space.domain(pred.param).values().iter().enumerate() {
                if !pred.cmp.apply(value, &pred.value) {
                    set_value(block, v, false);
                }
            }
        }
        cube
    }

    /// Renders the conjunction with parameter names, e.g.
    /// `Library Version = 2 ∧ Estimator = Gradient Boosting`.
    pub fn display<'a>(&'a self, space: &'a ParamSpace) -> ConjunctionDisplay<'a> {
        ConjunctionDisplay { conj: self, space }
    }
}

/// Named rendering of a [`Conjunction`]; see [`Conjunction::display`].
pub struct ConjunctionDisplay<'a> {
    conj: &'a Conjunction,
    space: &'a ParamSpace,
}

impl fmt::Display for ConjunctionDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conj.is_empty() {
            return write!(f, "⊤");
        }
        for (i, p) in self.conj.preds.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{}", p.display(self.space))?;
        }
        Ok(())
    }
}

/// A disjunction of conjunctions (disjunctive normal form) — the shape of
/// complex root causes found by Debugging Decision Trees, e.g.
/// `(p1 = 4) ∨ (p2 < 3 ∧ p3 ≠ "p34")` (paper §5.1, Example 4).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dnf {
    conjuncts: Vec<Conjunction>,
}

impl Dnf {
    /// The always-false DNF (no disjuncts).
    pub fn bottom() -> Self {
        Dnf::default()
    }

    /// Builds a DNF from conjuncts, deduplicating syntactically.
    pub fn new(conjuncts: Vec<Conjunction>) -> Self {
        let mut out: Vec<Conjunction> = Vec::with_capacity(conjuncts.len());
        for c in conjuncts {
            if !out.contains(&c) {
                out.push(c);
            }
        }
        Dnf { conjuncts: out }
    }

    /// The disjuncts.
    pub fn conjuncts(&self) -> &[Conjunction] {
        &self.conjuncts
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.conjuncts.len()
    }

    /// True for the always-false DNF.
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// True if any disjunct is satisfied.
    pub fn satisfied_by(&self, instance: &Instance) -> bool {
        self.conjuncts.iter().any(|c| c.satisfied_by(instance))
    }

    /// Adds a disjunct (no-op if syntactically present).
    pub fn push(&mut self, c: Conjunction) {
        if !self.conjuncts.contains(&c) {
            self.conjuncts.push(c);
        }
    }

    /// Renders with parameter names, disjuncts parenthesized.
    pub fn display<'a>(&'a self, space: &'a ParamSpace) -> DnfDisplay<'a> {
        DnfDisplay { dnf: self, space }
    }
}

impl FromIterator<Conjunction> for Dnf {
    fn from_iter<T: IntoIterator<Item = Conjunction>>(iter: T) -> Self {
        Dnf::new(iter.into_iter().collect())
    }
}

/// Named rendering of a [`Dnf`]; see [`Dnf::display`].
pub struct DnfDisplay<'a> {
    dnf: &'a Dnf,
    space: &'a ParamSpace,
}

impl fmt::Display for DnfDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dnf.is_empty() {
            return write!(f, "⊥");
        }
        for (i, c) in self.dnf.conjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "({})", c.display(self.space))?;
        }
        Ok(())
    }
}

/// The canonical product form of a conjunction over a concrete space: the
/// cube of the domain values it allows, parameter by parameter (the module
/// docs' *Cube layout*).
///
/// Semantic facts read directly off this form:
/// * equality of product sets ⇔ equality of cubes,
/// * implication (`self ⊨ other`) ⇔ word-wise inclusion,
/// * unsatisfiability ⇔ some parameter allows no value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalCause {
    words: Box<[u64]>,
}

/// The cube layout of a space whose domains have these sizes: the word
/// bounds (parameter `i` owns words `bounds[i]..bounds[i + 1]`) and the cube
/// allowing every value.
pub(crate) fn cube_layout(lens: impl Iterator<Item = usize>) -> (Vec<usize>, CanonicalCause) {
    let mut bounds = vec![0];
    let mut words = Vec::new();
    for len in lens {
        words.extend((0..len.div_ceil(64)).map(|w| u64::MAX >> (64 - (len - 64 * w).min(64))));
        bounds.push(words.len());
    }
    let top = CanonicalCause {
        words: words.into(),
    };
    (bounds, top)
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

impl CanonicalCause {
    /// The canonical form of `true`: every parameter allows its whole domain.
    pub fn top(space: &ParamSpace) -> Self {
        space.top().clone()
    }

    /// The cube's words, in the layout of its space.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The words of parameter `p`'s allowed set.
    pub fn block(&self, space: &ParamSpace, p: ParamId) -> &[u64] {
        &self.words[space.block(p)]
    }

    /// The words of parameter `p`'s allowed set, to narrow or widen in place
    /// with the [`kernels`]. A write must keep the bits past `p`'s last value
    /// clear, as ANDs, AND-NOTs and ORs with other cubes' words for `p` do.
    pub fn block_mut(&mut self, space: &ParamSpace, p: ParamId) -> &mut [u64] {
        &mut self.words[space.block(p)]
    }

    /// True if parameter `p` allows its value of domain index `v`.
    pub fn allows(&self, space: &ParamSpace, p: ParamId, v: usize) -> bool {
        has_value(self.block(space, p), v)
    }

    /// Allows or forbids parameter `p`'s value of domain index `v`, which
    /// must lie below `p`'s domain size.
    pub fn set_allowed(&mut self, space: &ParamSpace, p: ParamId, v: usize, allowed: bool) {
        debug_assert!(v < space.domain(p).len(), "value index past the domain");
        set_value(self.block_mut(space, p), v, allowed);
    }

    /// Lets parameter `p` take every value of its domain.
    pub fn unconstrain(&mut self, space: &ParamSpace, p: ParamId) {
        let block = space.block(p);
        self.words[block.clone()].copy_from_slice(&space.top().words[block]);
    }

    /// True if parameter `p` does not allow its whole domain.
    pub fn constrains(&self, space: &ParamSpace, p: ParamId) -> bool {
        let block = space.block(p);
        self.words[block.clone()] != space.top().words[block]
    }

    /// The constrained parameters, in id order.
    pub fn constrained<'a>(&'a self, space: &'a ParamSpace) -> impl Iterator<Item = ParamId> + 'a {
        let top = &space.top().words;
        space
            .blocks()
            .filter(move |(_, r)| self.words[r.clone()] != top[r.clone()])
            .map(|(p, _)| p)
    }

    /// The domain indices parameter `p` allows, in index order.
    pub fn allowed<'a>(
        &'a self,
        space: &'a ParamSpace,
        p: ParamId,
    ) -> impl Iterator<Item = usize> + 'a {
        Ones::new(self.block(space, p))
    }

    /// True if no parameter is constrained — the cause is a tautology.
    pub fn is_top(&self, space: &ParamSpace) -> bool {
        self == space.top()
    }

    /// True if some parameter allows no value — no instance satisfies the
    /// cause.
    pub fn is_unsatisfiable(&self, space: &ParamSpace) -> bool {
        space.blocks().any(|(_, r)| kernels::is_zero(&self.words[r]))
    }

    /// True if the two product sets share an instance: on every parameter
    /// their allowed sets meet.
    pub fn intersects(&self, other: &CanonicalCause, space: &ParamSpace) -> bool {
        space
            .blocks()
            .all(|(_, r)| kernels::and_any(&self.words[r.clone()], &other.words[r]))
    }

    /// True if the instance lies in the product set.
    pub fn satisfied_by(&self, instance: &Instance, space: &ParamSpace) -> bool {
        self.constrained(space).all(|p| {
            space
                .domain(p)
                .index_of(instance.get(p))
                .is_some_and(|v| self.allows(space, p, v))
        })
    }

    /// Semantic implication: every instance satisfying `self` satisfies
    /// `other` (`self ⊨ other`). Unsatisfiable causes imply everything.
    pub fn implies(&self, other: &CanonicalCause, space: &ParamSpace) -> bool {
        self.is_unsatisfiable(space) || !kernels::and_not_any(&self.words, &other.words)
    }

    /// Converts back to the *shortest* predicate conjunction denoting the
    /// same product set. For each constrained parameter the encoder tries, in
    /// order: a single `=`, a single `≠` (complement-of-one), on ordinal
    /// domains a single `≤` (prefix) or `>` (suffix), a two-triple range
    /// `> lo ∧ ≤ hi`, or a range with excluded points, and finally one `≠` per
    /// excluded value — which can express any subset, so the encoding is
    /// total.
    pub fn to_conjunction(&self, space: &ParamSpace) -> Conjunction {
        let mut preds = Vec::new();
        for p in self.constrained(space) {
            preds.extend(encode_block(p, space.domain(p), self.block(space, p)));
        }
        Conjunction::new(preds)
    }
}

/// Shortest predicate encoding of one constrained parameter's allowed set.
/// See [`CanonicalCause::to_conjunction`].
fn encode_block(p: ParamId, domain: &Domain, block: &[u64]) -> Vec<Predicate> {
    let n = domain.len();
    let allowed: Vec<usize> = Ones::new(block).collect();
    let excluded: Vec<usize> = (0..n).filter(|&i| !has_value(block, i)).collect();
    debug_assert!(!excluded.is_empty(), "full sets are not encoded");

    // Unsatisfiable set: denote with `= v ∧ ≠ v` on the first domain value —
    // a two-triple contradiction (callers normally never emit these).
    if allowed.is_empty() {
        let v = domain.value(0).clone();
        return vec![
            Predicate::new(p, Comparator::Eq, v.clone()),
            Predicate::new(p, Comparator::Neq, v),
        ];
    }

    // Single value: `= v`.
    if allowed.len() == 1 {
        return vec![Predicate::eq(p, domain.value(allowed[0]).clone())];
    }

    // Complement of a single value: `≠ v`.
    if excluded.len() == 1 {
        return vec![Predicate::new(
            p,
            Comparator::Neq,
            domain.value(excluded[0]).clone(),
        )];
    }

    let lo = allowed[0];
    let hi = *allowed.last().unwrap();
    // `> dom[lo-1]` and `≤ dom[hi]` are exact only where they fall between
    // unequal neighbours: an ordinal domain may keep `Ord`-equal twins such
    // as `Int(2)` and `Float(2.0)`, which `≤` and `>` cannot tell apart.
    let values = domain.values();
    let exact_bounds =
        || (lo == 0 || values[lo - 1] < values[lo]) && (hi == n - 1 || values[hi] < values[hi + 1]);
    if domain.kind() == DomainKind::Ordinal && exact_bounds() {
        let contiguous = allowed.len() == hi - lo + 1;
        if contiguous {
            if lo == 0 {
                // Prefix: `≤ dom[hi]`.
                return vec![Predicate::new(p, Comparator::Le, domain.value(hi).clone())];
            }
            if hi == n - 1 {
                // Suffix: `> dom[lo-1]`.
                return vec![Predicate::new(
                    p,
                    Comparator::Gt,
                    domain.value(lo - 1).clone(),
                )];
            }
            // Interior range: `> dom[lo-1] ∧ ≤ dom[hi]`.
            return vec![
                Predicate::new(p, Comparator::Gt, domain.value(lo - 1).clone()),
                Predicate::new(p, Comparator::Le, domain.value(hi).clone()),
            ];
        }
        // Non-contiguous ordinal set: range bounds plus interior exclusions,
        // if that is shorter than excluding everything.
        let mut ranged = Vec::new();
        if lo > 0 {
            ranged.push(Predicate::new(
                p,
                Comparator::Gt,
                domain.value(lo - 1).clone(),
            ));
        }
        if hi < n - 1 {
            ranged.push(Predicate::new(p, Comparator::Le, domain.value(hi).clone()));
        }
        for &i in excluded.iter().filter(|&&i| i > lo && i < hi) {
            ranged.push(Predicate::new(p, Comparator::Neq, domain.value(i).clone()));
        }
        if ranged.len() < excluded.len() {
            return ranged;
        }
    }

    // Fallback, total for any domain kind: one `≠` per excluded value.
    excluded
        .iter()
        .map(|&i| Predicate::new(p, Comparator::Neq, domain.value(i).clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamSpace;
    use crate::value::Value;
    use std::sync::Arc;

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("n", [1, 2, 3, 4, 5])
            .categorical("color", ["red", "green", "blue"])
            .ordinal("v", [1.0, 2.0])
            .build()
    }

    fn inst(s: &ParamSpace, n: i64, color: &str, v: f64) -> Instance {
        Instance::from_pairs(
            s,
            [("n", n.into()), ("color", color.into()), ("v", v.into())],
        )
    }

    #[test]
    fn conjunction_satisfaction_and_top() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let c = Conjunction::new(vec![
            Predicate::new(n, Comparator::Gt, 2),
            Predicate::new(n, Comparator::Le, 4),
        ]);
        assert!(c.satisfied_by(&inst(&s, 3, "red", 1.0)));
        assert!(!c.satisfied_by(&inst(&s, 5, "red", 1.0)));
        assert!(Conjunction::top().satisfied_by(&inst(&s, 5, "red", 1.0)));
    }

    #[test]
    fn conjunction_sorted_dedup_equality() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();
        let a = Conjunction::new(vec![
            Predicate::eq(color, "red"),
            Predicate::new(n, Comparator::Gt, 2),
        ]);
        let b = Conjunction::new(vec![
            Predicate::new(n, Comparator::Gt, 2),
            Predicate::eq(color, "red"),
            Predicate::eq(color, "red"),
        ]);
        assert_eq!(a, b);
    }

    #[test]
    fn canonical_semantic_equality() {
        let s = space();
        let n = s.by_name("n").unwrap();
        // Over {1..5}: (n > 4) ≡ (n = 5).
        let a = Conjunction::new(vec![Predicate::new(n, Comparator::Gt, 4)]);
        let b = Conjunction::new(vec![Predicate::eq(n, 5)]);
        assert_ne!(a, b);
        assert_eq!(a.canonicalize(&s), b.canonicalize(&s));
        // (n ≤ 5) ≡ ⊤.
        let t = Conjunction::new(vec![Predicate::new(n, Comparator::Le, 5)]);
        assert!(t.canonicalize(&s).is_top(&s));
    }

    #[test]
    fn canonical_unsat_detection() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let c = Conjunction::new(vec![
            Predicate::new(n, Comparator::Le, 2),
            Predicate::new(n, Comparator::Gt, 3),
        ]);
        assert!(c.canonicalize(&s).is_unsatisfiable(&s));
    }

    #[test]
    fn canonical_implication() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();
        let narrow = Conjunction::new(vec![
            Predicate::eq(n, 5),
            Predicate::eq(color, "red"),
        ])
        .canonicalize(&s);
        let wide = Conjunction::new(vec![Predicate::new(n, Comparator::Gt, 3)]).canonicalize(&s);
        assert!(narrow.implies(&wide, &s));
        assert!(!wide.implies(&narrow, &s));
        // Everything implies top; top implies nothing constrained.
        let top = CanonicalCause::top(&s);
        assert!(narrow.implies(&top, &s));
        assert!(!top.implies(&narrow, &s));
    }

    #[test]
    fn encode_roundtrip_shapes() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();

        // Prefix -> single ≤.
        let c = Conjunction::new(vec![Predicate::new(n, Comparator::Le, 3)]);
        let round = c.canonicalize(&s).to_conjunction(&s);
        assert_eq!(round.predicates().len(), 1);
        assert_eq!(round.canonicalize(&s), c.canonicalize(&s));

        // Suffix expressed awkwardly -> single >.
        let c = Conjunction::new(vec![
            Predicate::new(n, Comparator::Neq, 1),
            Predicate::new(n, Comparator::Neq, 2),
        ]);
        let round = c.canonicalize(&s).to_conjunction(&s);
        assert_eq!(round.predicates().len(), 1);
        assert_eq!(round.predicates()[0].cmp, Comparator::Gt);

        // Interior range -> two triples.
        let c = Conjunction::new(vec![
            Predicate::new(n, Comparator::Gt, 1),
            Predicate::new(n, Comparator::Le, 4),
        ]);
        let round = c.canonicalize(&s).to_conjunction(&s);
        assert_eq!(round.predicates().len(), 2);
        assert_eq!(round.canonicalize(&s), c.canonicalize(&s));

        // Categorical complement-of-one -> single ≠.
        let c = Conjunction::new(vec![Predicate::new(color, Comparator::Neq, "blue")]);
        let round = c.canonicalize(&s).to_conjunction(&s);
        assert_eq!(round.predicates().len(), 1);
        assert_eq!(round.canonicalize(&s), c.canonicalize(&s));

        // Categorical single value -> single =.
        let c = Conjunction::new(vec![
            Predicate::new(color, Comparator::Neq, "blue"),
            Predicate::new(color, Comparator::Neq, "green"),
        ]);
        let round = c.canonicalize(&s).to_conjunction(&s);
        assert_eq!(round.predicates().len(), 1);
        assert_eq!(round.predicates()[0].cmp, Comparator::Eq);

        // A prefix ending between `Ord`-equal twins -> `≠` list: `≤ 2`
        // would admit `2.0` too.
        let twins = [1.into(), 2.into(), Value::float(2.0), 3.into()];
        let s = ParamSpace::builder().ordinal("n", twins).build();
        let n = s.by_name("n").unwrap();
        let c = Conjunction::new(vec![
            Predicate::new(n, Comparator::Le, 2),
            Predicate::new(n, Comparator::Neq, Value::float(2.0)),
        ]);
        let canon = c.canonicalize(&s);
        assert_eq!(canon.allowed(&s, n).count(), 2);
        assert_eq!(canon.to_conjunction(&s).canonicalize(&s), canon);
    }

    #[test]
    fn encode_noncontiguous_ordinal() {
        let s = space();
        let n = s.by_name("n").unwrap();
        // Allowed {2,4}: range (1,4] minus {3} -> Gt 1, Le 4, Neq 3.
        let c = Conjunction::new(vec![
            Predicate::new(n, Comparator::Gt, 1),
            Predicate::new(n, Comparator::Le, 4),
            Predicate::new(n, Comparator::Neq, 3),
        ]);
        let canon = c.canonicalize(&s);
        let round = canon.to_conjunction(&s);
        assert_eq!(round.canonicalize(&s), canon);
        assert!(round.predicates().len() <= 3);
    }

    #[test]
    fn dnf_dedup_and_satisfaction() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();
        let c1 = Conjunction::new(vec![Predicate::eq(n, 4)]);
        let c2 = Conjunction::new(vec![
            Predicate::new(n, Comparator::Le, 2),
            Predicate::new(color, Comparator::Neq, "blue"),
        ]);
        let dnf = Dnf::new(vec![c1.clone(), c2.clone(), c1.clone()]);
        assert_eq!(dnf.len(), 2);
        assert!(dnf.satisfied_by(&inst(&s, 4, "blue", 1.0)));
        assert!(dnf.satisfied_by(&inst(&s, 1, "red", 1.0)));
        assert!(!dnf.satisfied_by(&inst(&s, 1, "blue", 1.0)));
        assert!(!Dnf::bottom().satisfied_by(&inst(&s, 4, "blue", 1.0)));
    }

    #[test]
    fn display_formats() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let c = Conjunction::new(vec![Predicate::new(n, Comparator::Gt, 2)]);
        assert_eq!(c.display(&s).to_string(), "n > 2");
        assert_eq!(Conjunction::top().display(&s).to_string(), "⊤");
        let dnf = Dnf::new(vec![c.clone(), Conjunction::new(vec![Predicate::eq(n, 1)])]);
        assert_eq!(dnf.display(&s).to_string(), "(n > 2) ∨ (n = 1)");
        assert_eq!(Dnf::bottom().display(&s).to_string(), "⊥");
    }

    #[test]
    fn example_from_paper_definition() {
        // Paper §3: Cf = (A > 5 ∧ B = 7); instance A=15, B=7 satisfies it.
        let s = ParamSpace::builder()
            .ordinal("A", [5, 15])
            .ordinal("B", [6, 7])
            .build();
        let a = s.by_name("A").unwrap();
        let b = s.by_name("B").unwrap();
        let cf = Conjunction::new(vec![
            Predicate::new(a, Comparator::Gt, 5),
            Predicate::eq(b, 7),
        ]);
        let i = Instance::from_pairs(&s, [("A", 15.into()), ("B", 7.into())]);
        assert!(cf.satisfied_by(&i));
    }

    #[test]
    fn satisfied_by_canonical_matches_syntactic() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();
        let c = Conjunction::new(vec![
            Predicate::new(n, Comparator::Gt, 2),
            Predicate::new(color, Comparator::Neq, "red"),
        ]);
        let canon = c.canonicalize(&s);
        for nn in [1i64, 3, 5] {
            for col in ["red", "green"] {
                let i = inst(&s, nn, col, 1.0);
                assert_eq!(c.satisfied_by(&i), canon.satisfied_by(&i, &s));
            }
        }
    }

    #[test]
    fn full_blocks_are_unconstrained_and_cubes_span_the_space() {
        let s = space();
        let n = s.by_name("n").unwrap();
        // Forbidding a value and allowing it again leaves n unconstrained.
        let mut c = CanonicalCause::top(&s);
        c.set_allowed(&s, n, 3, false);
        assert!(c.constrains(&s, n));
        assert_eq!(c.constrained(&s).collect::<Vec<_>>(), [n]);
        c.set_allowed(&s, n, 3, true);
        assert!(c.is_top(&s));
        assert_eq!(c.constrained(&s).count(), 0);
        // One word per parameter of up to 64 values.
        assert_eq!(c.words(), [0b11111, 0b111, 0b11]);
    }

    #[test]
    fn value_type_compat() {
        // Mixed Int literals against a Float domain canonicalize correctly.
        let s = space();
        let v = s.by_name("v").unwrap();
        let c = Conjunction::new(vec![Predicate::new(v, Comparator::Eq, Value::float(2.0))]);
        let canon = c.canonicalize(&s);
        assert_eq!(canon.allowed(&s, v).collect::<Vec<_>>(), [1]);
    }
}
