//! Parameter-comparator-value triples.
//!
//! Root causes are Boolean conjunctions of triples such as `A > 5` (paper §3,
//! Def. 3). The comparator set is `C = {=, ≤, >, ≠}` — exactly the set the
//! synthetic generator samples from (§5.1) — which is closed under negation:
//! `¬(=) is ≠` and `¬(≤) is >`.

use crate::instance::Instance;
use crate::param::{ParamId, ParamSpace};
use crate::value::Value;
use std::fmt;

/// A comparator in a parameter-comparator-value triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Comparator {
    /// `=`
    Eq,
    /// `≠`
    Neq,
    /// `≤`
    Le,
    /// `>`
    Gt,
}

impl Comparator {
    /// All comparators, in the paper's order `{=, ≤, >, ≠}`.
    pub const ALL: [Comparator; 4] = [
        Comparator::Eq,
        Comparator::Le,
        Comparator::Gt,
        Comparator::Neq,
    ];

    /// The comparators valid on categorical domains (`=`, `≠`).
    pub const CATEGORICAL: [Comparator; 2] = [Comparator::Eq, Comparator::Neq];

    /// Logical negation: `=↔≠`, `≤↔>`.
    pub fn negate(self) -> Comparator {
        match self {
            Comparator::Eq => Comparator::Neq,
            Comparator::Neq => Comparator::Eq,
            Comparator::Le => Comparator::Gt,
            Comparator::Gt => Comparator::Le,
        }
    }

    /// True if the comparator requires an ordered (ordinal) domain.
    pub fn needs_order(self) -> bool {
        matches!(self, Comparator::Le | Comparator::Gt)
    }

    /// Applies the comparator to two values.
    pub fn apply(self, lhs: &Value, rhs: &Value) -> bool {
        match self {
            Comparator::Eq => lhs == rhs,
            Comparator::Neq => lhs != rhs,
            Comparator::Le => lhs <= rhs,
            Comparator::Gt => lhs > rhs,
        }
    }
}

impl fmt::Display for Comparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Comparator::Eq => write!(f, "="),
            Comparator::Neq => write!(f, "≠"),
            Comparator::Le => write!(f, "≤"),
            Comparator::Gt => write!(f, ">"),
        }
    }
}

/// A parameter-comparator-value triple, e.g. `Library Version = 2.0` or
/// `permutations > 800`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Predicate {
    /// The constrained parameter.
    pub param: ParamId,
    /// The comparator.
    pub cmp: Comparator,
    /// The reference value.
    pub value: Value,
}

impl Predicate {
    /// Creates a triple.
    pub fn new(param: ParamId, cmp: Comparator, value: impl Into<Value>) -> Self {
        Predicate {
            param,
            cmp,
            value: value.into(),
        }
    }

    /// Shorthand for an equality triple `p = v` — the form Shortcut asserts.
    pub fn eq(param: ParamId, value: impl Into<Value>) -> Self {
        Predicate::new(param, Comparator::Eq, value)
    }

    /// True if the instance satisfies the triple.
    pub fn satisfied_by(&self, instance: &Instance) -> bool {
        self.cmp.apply(instance.get(self.param), &self.value)
    }

    /// The logical negation of this triple (same parameter and value, negated
    /// comparator). Used when enumerating instances that *avoid* a root cause.
    pub fn negated(&self) -> Predicate {
        Predicate {
            param: self.param,
            cmp: self.cmp.negate(),
            value: self.value.clone(),
        }
    }

    /// Renders the triple with the parameter's name.
    pub fn display<'a>(&'a self, space: &'a ParamSpace) -> PredicateDisplay<'a> {
        PredicateDisplay {
            predicate: self,
            space,
        }
    }
}

/// Named rendering of a [`Predicate`]; see [`Predicate::display`].
pub struct PredicateDisplay<'a> {
    predicate: &'a Predicate,
    space: &'a ParamSpace,
}

impl fmt::Display for PredicateDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}",
            self.space.param(self.predicate.param).name(),
            self.predicate.cmp,
            self.predicate.value
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamSpace;

    fn space() -> std::sync::Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("n", [1, 2, 3, 4, 5])
            .categorical("color", ["red", "green", "blue"])
            .build()
    }

    #[test]
    fn comparator_apply() {
        let a = Value::from(3);
        let b = Value::from(5);
        assert!(Comparator::Le.apply(&a, &b));
        assert!(!Comparator::Gt.apply(&a, &b));
        assert!(Comparator::Neq.apply(&a, &b));
        assert!(Comparator::Eq.apply(&a, &a));
        assert!(Comparator::Le.apply(&a, &a));
        assert!(!Comparator::Gt.apply(&a, &a));
    }

    #[test]
    fn negation_is_involutive_and_complementary() {
        for cmp in Comparator::ALL {
            assert_eq!(cmp.negate().negate(), cmp);
            // Complementary: for any pair of values exactly one of cmp, ¬cmp holds.
            for (x, y) in [(1, 1), (1, 2), (2, 1)] {
                let x = Value::from(x);
                let y = Value::from(y);
                assert_ne!(cmp.apply(&x, &y), cmp.negate().apply(&x, &y));
            }
        }
    }

    #[test]
    fn predicate_satisfaction() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();
        let inst = Instance::from_pairs(&s, [("n", 4.into()), ("color", "red".into())]);
        assert!(Predicate::new(n, Comparator::Gt, 3).satisfied_by(&inst));
        assert!(!Predicate::new(n, Comparator::Le, 3).satisfied_by(&inst));
        assert!(Predicate::eq(color, "red").satisfied_by(&inst));
        assert!(Predicate::new(color, Comparator::Neq, "blue").satisfied_by(&inst));
    }

    /// A triple's extension over a finite universe is the allowed set its
    /// one-triple conjunction canonicalizes to.
    #[test]
    fn allowed_indices_extension() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let allowed = |cmp, v: i64| {
            let canon = crate::Conjunction::new(vec![Predicate::new(n, cmp, v)]).canonicalize(&s);
            canon
                .constrains(&s, n)
                .then(|| canon.allowed(&s, n).collect::<Vec<_>>())
        };
        // n ≤ 3 over {1,2,3,4,5} -> indices {0,1,2}
        assert_eq!(allowed(Comparator::Le, 3), Some(vec![0, 1, 2]));
        // n > 4 -> {4}
        assert_eq!(allowed(Comparator::Gt, 4), Some(vec![4]));
        // n ≠ 1 -> {1,2,3,4}
        assert_eq!(allowed(Comparator::Neq, 1), Some(vec![1, 2, 3, 4]));
        // Reference value outside the domain still has a well-defined extension:
        // n ≤ 0 -> {} (unsatisfiable), n > 0 -> all, which leaves n
        // unconstrained.
        assert_eq!(allowed(Comparator::Le, 0), Some(vec![]));
        assert_eq!(allowed(Comparator::Gt, 0), None);
    }

    #[test]
    fn display_uses_names() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let p = Predicate::new(n, Comparator::Gt, 3);
        assert_eq!(p.display(&s).to_string(), "n > 3");
    }
}
