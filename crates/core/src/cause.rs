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
//! [`CanonicalCause`] materializes that form; the evaluation harness uses it
//! to match asserted causes against ground truth exactly, and the
//! Quine–McCluskey crate uses it as its cube representation.

use crate::instance::Instance;
use crate::param::{Domain, DomainKind, ParamId, ParamSpace};
use crate::predicate::{Comparator, Predicate};
use std::collections::BTreeMap;
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

    /// The canonical product form over a concrete space.
    pub fn canonicalize(&self, space: &ParamSpace) -> CanonicalCause {
        let mut allowed: BTreeMap<ParamId, Vec<bool>> = BTreeMap::new();
        for pred in &self.preds {
            let domain = space.domain(pred.param);
            let mask = allowed
                .entry(pred.param)
                .or_insert_with(|| vec![true; domain.len()]);
            for (i, m) in mask.iter_mut().enumerate() {
                *m = *m && pred.cmp.apply(domain.value(i), &pred.value);
            }
        }
        // Drop unconstrained parameters (full masks): they carry no
        // information and their absence is what makes the form canonical.
        allowed.retain(|_, mask| mask.iter().any(|&m| !m));
        CanonicalCause { allowed }
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

/// The canonical product form of a conjunction over a concrete space: for
/// each *constrained* parameter, the boolean mask of allowed domain indices.
///
/// Semantic facts read directly off this form:
/// * equality of product sets ⇔ structural equality of `CanonicalCause`s,
/// * implication (`self ⊨ other`) ⇔ per-parameter mask inclusion,
/// * unsatisfiability ⇔ some mask is all-false.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalCause {
    /// Constrained parameters only; each mask has the domain's length and at
    /// least one `false` entry.
    allowed: BTreeMap<ParamId, Vec<bool>>,
}

impl CanonicalCause {
    /// The canonical form of `true` (no constraints).
    pub fn top() -> Self {
        CanonicalCause {
            allowed: BTreeMap::new(),
        }
    }

    /// Builds directly from per-parameter masks (used by the minimizer).
    /// Masks that allow everything are dropped; masks must match domain sizes.
    pub fn from_masks(space: &ParamSpace, masks: BTreeMap<ParamId, Vec<bool>>) -> Self {
        let mut allowed = masks;
        for (p, mask) in &allowed {
            assert_eq!(
                mask.len(),
                space.domain(*p).len(),
                "mask length mismatch for {}",
                space.param(*p).name()
            );
        }
        allowed.retain(|_, mask| mask.iter().any(|&m| !m));
        CanonicalCause { allowed }
    }

    /// The constrained parameters and their masks.
    pub fn masks(&self) -> &BTreeMap<ParamId, Vec<bool>> {
        &self.allowed
    }

    /// The mask for one parameter (`None` = unconstrained).
    pub fn mask(&self, p: ParamId) -> Option<&[bool]> {
        self.allowed.get(&p).map(|m| m.as_slice())
    }

    /// True if no constrained parameter exists — the cause is a tautology.
    pub fn is_top(&self) -> bool {
        self.allowed.is_empty()
    }

    /// True if some parameter has an all-false mask — no instance satisfies
    /// the cause.
    pub fn is_unsatisfiable(&self) -> bool {
        self.allowed.values().any(|m| m.iter().all(|&x| !x))
    }

    /// True if the instance lies in the product set.
    pub fn satisfied_by(&self, instance: &Instance, space: &ParamSpace) -> bool {
        self.allowed.iter().all(|(p, mask)| {
            space
                .domain(*p)
                .index_of(instance.get(*p))
                .map(|i| mask[i])
                .unwrap_or(false)
        })
    }

    /// Semantic implication: every instance satisfying `self` satisfies
    /// `other` (`self ⊨ other`). Unsatisfiable causes imply everything.
    pub fn implies(&self, other: &CanonicalCause) -> bool {
        if self.is_unsatisfiable() {
            return true;
        }
        other.allowed.iter().all(|(p, other_mask)| {
            match self.allowed.get(p) {
                // `self` unconstrained on p: implication needs other's mask full,
                // but full masks are dropped at construction, so it fails.
                None => false,
                Some(self_mask) => self_mask
                    .iter()
                    .zip(other_mask.iter())
                    .all(|(&a, &b)| !a || b),
            }
        })
    }

    /// Converts back to the *shortest* predicate conjunction denoting the
    /// same product set. For each parameter the encoder tries, in order:
    /// nothing (full mask — cannot happen here), a single `=`, a single `≤`
    /// (prefix) or `>` (suffix) on ordinal domains, a single `≠`
    /// (complement-of-one), a two-triple range `> lo ∧ ≤ hi`, a range with
    /// excluded points, and finally one `≠` per excluded value — which can
    /// express any subset, so the encoding is total.
    pub fn to_conjunction(&self, space: &ParamSpace) -> Conjunction {
        let mut preds = Vec::new();
        for (&p, mask) in &self.allowed {
            preds.extend(encode_mask(p, space.domain(p), mask));
        }
        Conjunction::new(preds)
    }
}

/// Shortest predicate encoding of one parameter's allowed mask. See
/// [`CanonicalCause::to_conjunction`].
fn encode_mask(p: ParamId, domain: &Domain, mask: &[bool]) -> Vec<Predicate> {
    let n = mask.len();
    let allowed: Vec<usize> = (0..n).filter(|&i| mask[i]).collect();
    let excluded: Vec<usize> = (0..n).filter(|&i| !mask[i]).collect();
    debug_assert!(!excluded.is_empty(), "full masks are dropped at construction");

    // Unsatisfiable mask: denote with `= v ∧ ≠ v` on the first domain value —
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

    if domain.kind() == DomainKind::Ordinal {
        let lo = allowed[0];
        let hi = *allowed.last().unwrap();
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
        let interior_excluded: Vec<usize> = excluded
            .iter()
            .copied()
            .filter(|&i| i > lo && i < hi)
            .collect();
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
        for i in &interior_excluded {
            ranged.push(Predicate::new(p, Comparator::Neq, domain.value(*i).clone()));
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
        assert!(t.canonicalize(&s).is_top());
    }

    #[test]
    fn canonical_unsat_detection() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let c = Conjunction::new(vec![
            Predicate::new(n, Comparator::Le, 2),
            Predicate::new(n, Comparator::Gt, 3),
        ]);
        assert!(c.canonicalize(&s).is_unsatisfiable());
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
        assert!(narrow.implies(&wide));
        assert!(!wide.implies(&narrow));
        // Everything implies top; top implies nothing constrained.
        assert!(narrow.implies(&CanonicalCause::top()));
        assert!(!CanonicalCause::top().implies(&narrow));
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
    fn from_masks_drops_full_and_checks_len() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let mut masks = BTreeMap::new();
        masks.insert(n, vec![true; 5]);
        let c = CanonicalCause::from_masks(&s, masks);
        assert!(c.is_top());
    }

    #[test]
    fn value_type_compat() {
        // Mixed Int literals against a Float domain canonicalize correctly.
        let s = space();
        let v = s.by_name("v").unwrap();
        let c = Conjunction::new(vec![Predicate::new(v, Comparator::Eq, Value::float(2.0))]);
        let canon = c.canonicalize(&s);
        assert_eq!(canon.mask(v), Some(&[false, true][..]));
    }
}
