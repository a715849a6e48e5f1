//! Pipeline instances: complete parameter-value assignments.
//!
//! An instance `CP_i` assigns one value to every parameter (paper §3 Def. 1,
//! `CP_i[p] = v`). Instances are the unit of cost in BugDoc: the problem's
//! cost measure is "the number of executed pipeline instances beyond any
//! given, previously run, instances".
//!
//! Every instance is built against a [`ParamSpace`] and carries its dense
//! key, one domain index per parameter, so it always lies inside its space:
//! no constructor accepts a value outside a parameter's universe, and a
//! universe is fixed once its space is built.

use crate::param::{ParamId, ParamSpace};
use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A complete assignment of values to parameters, stored densely by
/// [`ParamId`] index.
///
/// Every instance is built against a space ([`Instance::from_pairs`],
/// [`Instance::with`], [`ParamSpace::instance_from_indices`],
/// [`ParamSpace::instances`]) and carries its **dense key**: one domain index
/// (`u32`) per parameter. The provenance store uses the key as its hash key
/// and the instance comparisons below compare keys, not values. Equality and
/// hashing are defined over the values; for two instances of one space they
/// agree with the keys, since a domain holds no two equal values.
#[derive(Debug, Clone)]
pub struct Instance {
    values: Box<[Value]>,
    /// Per-parameter domain indices w.r.t. the space the instance was built
    /// against. Not part of `Eq`/`Hash` (it is derived data).
    dense: Box<[u32]>,
    /// `hash_dense_key(dense)`, precomputed at construction so hot-path
    /// probes skip the hash chain.
    fingerprint: u64,
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl Eq for Instance {}

impl Hash for Instance {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values.hash(state);
    }
}

impl Instance {
    /// Creates an instance from its values and their domain indices
    /// (crate-internal; the public space-aware entry point is
    /// [`ParamSpace::instance_from_indices`]).
    pub(crate) fn new_with_dense(values: Vec<Value>, dense: Vec<u32>) -> Self {
        debug_assert_eq!(values.len(), dense.len());
        let fingerprint = crate::fx::hash_dense_key(&dense);
        Instance {
            values: values.into_boxed_slice(),
            dense: dense.into_boxed_slice(),
            fingerprint,
        }
    }

    /// The dense key: the domain index of every parameter's value, in
    /// parameter order.
    #[inline]
    pub fn dense_key(&self) -> &[u32] {
        &self.dense
    }

    /// The precomputed [`hash_dense_key`](crate::hash_dense_key) fingerprint
    /// of the dense key.
    #[inline]
    pub fn dense_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Creates an instance from `(name, value)` pairs against a space. Every
    /// parameter must be assigned exactly once and every value must belong to
    /// the parameter's universe; anything else is a caller bug and panics.
    /// Values are normalized to the domain's stored representation (an `Int`
    /// literal against a float domain becomes the domain's `Float`), so equal
    /// assignments compare equal regardless of literal spelling.
    pub fn from_pairs<'a>(
        space: &ParamSpace,
        pairs: impl IntoIterator<Item = (&'a str, Value)>,
    ) -> Self {
        let mut slots: Vec<Option<u32>> = vec![None; space.len()];
        for (name, v) in pairs {
            let id = space
                .by_name(name)
                .unwrap_or_else(|| panic!("unknown parameter {name:?}"));
            let idx = space.domain(id).index_of(&v).unwrap_or_else(|| {
                panic!("value {v} outside the universe of parameter {name:?}")
            });
            assert!(
                slots[id.index()].replace(idx as u32).is_none(),
                "parameter {name:?} assigned twice"
            );
        }
        let dense: Vec<u32> = slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("parameter index {i} not assigned")))
            .collect();
        space.instance_from_indices(&dense)
    }

    /// Number of parameters assigned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the zero-parameter instance.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value assigned to a parameter: `CP_i[p]`.
    pub fn get(&self, p: ParamId) -> &Value {
        &self.values[p.index()]
    }

    /// All values in id order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Returns a copy with parameter `p` reassigned to `v` — the elementary
    /// move of the Shortcut algorithm (`CP_current'[p] ← CP_g[p]`). `v` is
    /// mapped onto `p`'s domain like a [`from_pairs`](Self::from_pairs)
    /// value (an `Int` literal against a float domain becomes the domain's
    /// `Float`); a value outside the universe panics. Prefer
    /// [`Instance::with_from`] when the replacement value comes from another
    /// instance.
    pub fn with(&self, space: &ParamSpace, p: ParamId, v: Value) -> Self {
        debug_assert_eq!(self.len(), space.len());
        let domain = space.domain(p);
        let idx = domain.index_of(&v).unwrap_or_else(|| {
            panic!(
                "value {v} outside the universe of parameter {:?}",
                space.param(p).name()
            )
        });
        let mut values = self.values.to_vec();
        values[p.index()] = domain.value(idx).clone();
        let mut dense = self.dense.to_vec();
        dense[p.index()] = idx as u32;
        Instance::new_with_dense(values, dense)
    }

    /// Returns a copy with parameter `p` reassigned to `donor`'s value for
    /// `p`, carrying over the donor's domain index — the zero-re-encoding
    /// form of the Shortcut substitution step.
    pub fn with_from(&self, p: ParamId, donor: &Instance) -> Self {
        let mut values = self.values.to_vec();
        values[p.index()] = donor.get(p).clone();
        let mut dense = self.dense.to_vec();
        dense[p.index()] = donor.dense[p.index()];
        Instance::new_with_dense(values, dense)
    }

    /// True if the two instances disagree on *every* parameter — the paper's
    /// Disjointness Condition (Def. 6): `CP_x[p] ≠ CP_y[p] ∀p`. Both come
    /// from one space, so the check compares domain indices.
    pub fn is_disjoint_from(&self, other: &Instance) -> bool {
        debug_assert_eq!(self.len(), other.len());
        self.dense
            .iter()
            .zip(other.dense.iter())
            .all(|(x, y)| x != y)
    }

    /// Number of parameters on which the two instances differ. The
    /// "most-different" heuristic (used when the Disjointness Condition cannot
    /// be met, paper §4.1) maximizes this.
    pub fn hamming_distance(&self, other: &Instance) -> usize {
        debug_assert_eq!(self.len(), other.len());
        self.dense
            .iter()
            .zip(other.dense.iter())
            .filter(|(x, y)| x != y)
            .count()
    }

    /// Parameters on which the two instances agree, with the shared value —
    /// the intersection `CP_current ∩ CP_f` computed at the end of Shortcut.
    pub fn shared_pairs<'a>(
        &'a self,
        other: &'a Instance,
    ) -> impl Iterator<Item = (ParamId, &'a Value)> + 'a {
        debug_assert_eq!(self.len(), other.len());
        self.values
            .iter()
            .zip(other.values.iter())
            .enumerate()
            .filter(|(_, (a, b))| a == b)
            .map(|(i, (a, _))| (ParamId(i as u32), a))
    }

    /// Renders the instance with parameter names, e.g.
    /// `{Dataset=Iris, Estimator=Gradient Boosting, Library Version=2}`.
    pub fn display<'a>(&'a self, space: &'a ParamSpace) -> InstanceDisplay<'a> {
        InstanceDisplay {
            instance: self,
            space,
        }
    }
}

/// Named rendering of an [`Instance`]; see [`Instance::display`].
pub struct InstanceDisplay<'a> {
    instance: &'a Instance,
    space: &'a ParamSpace,
}

impl fmt::Display for InstanceDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (id, def)) in self.space.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", def.name(), self.instance.get(id))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamSpace;

    fn space3() -> std::sync::Arc<ParamSpace> {
        ParamSpace::builder()
            .categorical("Dataset", ["Iris", "Digits", "Images"])
            .categorical("Estimator", ["LR", "DT", "GB"])
            .ordinal("Version", [1, 2])
            .build()
    }

    #[test]
    fn from_pairs_roundtrip() {
        let s = space3();
        let i = Instance::from_pairs(
            &s,
            [
                ("Version", Value::from(2)),
                ("Dataset", Value::from("Iris")),
                ("Estimator", Value::from("GB")),
            ],
        );
        assert_eq!(i.get(s.by_name("Dataset").unwrap()), &Value::from("Iris"));
        assert_eq!(i.get(s.by_name("Version").unwrap()), &Value::from(2));
        assert_eq!(
            i.display(&s).to_string(),
            "{Dataset=Iris, Estimator=GB, Version=2}"
        );
    }

    #[test]
    #[should_panic(expected = "not assigned")]
    fn from_pairs_missing_param_panics() {
        let s = space3();
        let _ = Instance::from_pairs(&s, [("Dataset", Value::from("Iris"))]);
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn from_pairs_unknown_value_panics() {
        let s = space3();
        let _ = Instance::from_pairs(
            &s,
            [
                ("Dataset", Value::from("Wine")),
                ("Estimator", Value::from("GB")),
                ("Version", Value::from(1)),
            ],
        );
    }

    #[test]
    fn disjointness_and_hamming() {
        let s = space3();
        let f = Instance::from_pairs(
            &s,
            [
                ("Dataset", "Iris".into()),
                ("Estimator", "GB".into()),
                ("Version", 2.into()),
            ],
        );
        let g = Instance::from_pairs(
            &s,
            [
                ("Dataset", "Digits".into()),
                ("Estimator", "DT".into()),
                ("Version", 1.into()),
            ],
        );
        assert!(f.is_disjoint_from(&g));
        assert_eq!(f.hamming_distance(&g), 3);
        let h = g.with(&s, s.by_name("Version").unwrap(), 2.into());
        assert!(!f.is_disjoint_from(&h));
        assert_eq!(f.hamming_distance(&h), 2);
    }

    #[test]
    fn shared_pairs_is_intersection() {
        let s = space3();
        let a = Instance::from_pairs(
            &s,
            [
                ("Dataset", "Iris".into()),
                ("Estimator", "GB".into()),
                ("Version", 2.into()),
            ],
        );
        let b = a.with(&s, s.by_name("Dataset").unwrap(), "Digits".into());
        let shared: Vec<_> = a.shared_pairs(&b).collect();
        assert_eq!(shared.len(), 2);
        assert_eq!(shared[0].0, s.by_name("Estimator").unwrap());
        assert_eq!(shared[1].1, &Value::from(2));
    }

    #[test]
    fn with_does_not_mutate_original() {
        let s = space3();
        let a = Instance::from_pairs(
            &s,
            [
                ("Dataset", "Iris".into()),
                ("Estimator", "GB".into()),
                ("Version", 2.into()),
            ],
        );
        let b = a.with(&s, s.by_name("Version").unwrap(), 1.into());
        assert_eq!(a.get(s.by_name("Version").unwrap()), &Value::from(2));
        assert_eq!(b.get(s.by_name("Version").unwrap()), &Value::from(1));
    }

    /// `with` maps a value onto the domain as `from_pairs` does: an `Int`
    /// literal against a float ordinal domain becomes the domain's `Float`,
    /// and the result carries the key of that value.
    #[test]
    fn with_maps_an_int_literal_onto_a_float_domain() {
        let s = ParamSpace::builder()
            .ordinal("lr", [0.5, 1.0, 2.0])
            .categorical("m", ["a", "b"])
            .build();
        let lr = s.by_name("lr").unwrap();
        let base = s.instance_from_indices(&[0, 1]);
        let moved = base.with(&s, lr, 2.into());
        assert_eq!(moved.get(lr), &Value::float(2.0));
        assert_eq!(moved.dense_key(), &[2, 1]);
        assert_eq!(
            moved,
            Instance::from_pairs(&s, [("lr", 2.into()), ("m", "b".into())])
        );
        assert_eq!(moved.dense_fingerprint(), crate::hash_dense_key(&[2, 1]));
    }

    /// A store finds an instance built by `with` once it is recorded: the
    /// key `with` computes is the key the store indexes.
    #[test]
    fn with_result_is_found_by_lookup_after_record() {
        use crate::outcome::{EvalResult, Outcome};
        use crate::provenance::ProvenanceStore;
        let s = space3();
        let version = s.by_name("Version").unwrap();
        let base = s.instance_from_indices(&[0, 2, 0]);
        let moved = base.with(&s, version, 2.into());
        let mut prov = ProvenanceStore::new(s.clone());
        prov.record(base.clone(), EvalResult::of(Outcome::Succeed));
        assert_eq!(prov.outcome_of(&moved), None);
        assert!(prov.record(moved.clone(), EvalResult::of(Outcome::Fail)));
        let probe = s.instance_from_indices(&[0, 2, 1]);
        assert_eq!(prov.outcome_of(&probe), Some(Outcome::Fail));
        assert_eq!(prov.outcome_of(&moved), Some(Outcome::Fail));
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn with_value_outside_the_universe_panics() {
        let s = space3();
        let base = s.instance_from_indices(&[0, 0, 0]);
        let _ = base.with(&s, s.by_name("Version").unwrap(), 3.into());
    }
}
