//! Pipeline instances: complete parameter-value assignments.
//!
//! An instance `CP_i` assigns one value to every parameter (paper §3 Def. 1,
//! `CP_i[p] = v`). Instances are the unit of cost in BugDoc: the problem's
//! cost measure is "the number of executed pipeline instances beyond any
//! given, previously run, instances".
//!
//! An instance is its dense key, one domain index per parameter, plus the
//! parameter table of the [`ParamSpace`] it was built against, which it
//! shares with the space and every other instance of it: a value is read
//! through the table ([`Instance::get`], [`Instance::values`]), never
//! stored, so building an instance allocates its key alone and clones no
//! value. Every instance lies inside its space: no constructor accepts a
//! value outside a parameter's universe, and a universe is fixed once its
//! space is built.

use crate::param::{ParamDef, ParamId, ParamSpace};
use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A complete assignment of values to parameters: its dense key and its
/// space's parameter table.
///
/// Every instance is built against a space ([`Instance::from_pairs`],
/// [`Instance::with`], [`ParamSpace::instance_from_indices`],
/// [`ParamSpace::instances`]) and is its **dense key**: one domain index
/// (`u32`) per parameter, in id order. The provenance store uses the key as
/// its hash key, and the value of parameter `p` is entry `key[p]` of `p`'s
/// domain in the table.
///
/// # `Eq` and `Hash`
///
/// Two instances are equal when they assign equal values. Instances that
/// share a table (built against one space, or clones of such) compare
/// keys, which is the same test, since a domain holds no two equal values;
/// instances of separately built spaces compare values. `Hash` feeds the
/// hasher the parameter count and then each value in id order, the
/// sequence a `[Value]` slice feeds it, so equal instances hash equal
/// whatever their tables.
#[derive(Clone)]
pub struct Instance {
    /// Per-parameter domain indices w.r.t. `params`.
    key: Box<[u32]>,
    /// `hash_dense_key(key)`, precomputed at construction so hot-path
    /// probes skip the hash chain.
    fingerprint: u64,
    /// The parameter table of the space the instance was built against.
    params: Arc<[ParamDef]>,
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.params, &other.params) {
            self.key == other.key
        } else {
            self.len() == other.len() && self.values().eq(other.values())
        }
    }
}

impl Eq for Instance {}

impl Hash for Instance {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for v in self.values() {
            v.hash(state);
        }
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instance")
            .field("values", &self.values().collect::<Vec<_>>())
            .field("key", &self.key)
            .finish()
    }
}

impl Instance {
    /// Creates an instance from its dense key against a space's parameter
    /// table (crate-internal; the public space-aware entry point is
    /// [`ParamSpace::instance_from_indices`], which checks the key).
    pub(crate) fn from_key(params: Arc<[ParamDef]>, key: Box<[u32]>) -> Self {
        let fingerprint = crate::fx::hash_dense_key(&key);
        Instance {
            key,
            fingerprint,
            params,
        }
    }

    /// The dense key: the domain index of every parameter's value, in
    /// parameter order.
    #[inline]
    pub fn dense_key(&self) -> &[u32] {
        &self.key
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
        space.instance_from_owned_indices(dense)
    }

    /// Number of parameters assigned.
    pub fn len(&self) -> usize {
        self.key.len()
    }

    /// True for the zero-parameter instance.
    pub fn is_empty(&self) -> bool {
        self.key.is_empty()
    }

    /// The value assigned to a parameter: `CP_i[p]`, read through the
    /// table.
    pub fn get(&self, p: ParamId) -> &Value {
        self.params[p.index()]
            .domain()
            .value(self.key[p.index()] as usize)
    }

    /// All values in id order, read through the table.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Value> + '_ {
        self.params
            .iter()
            .zip(self.key.iter())
            .map(|(def, &i)| def.domain().value(i as usize))
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
        let idx = space.domain(p).index_of(&v).unwrap_or_else(|| {
            panic!(
                "value {v} outside the universe of parameter {:?}",
                space.param(p).name()
            )
        });
        let mut key = self.key.clone();
        key[p.index()] = idx as u32;
        Instance::from_key(self.params.clone(), key)
    }

    /// Returns a copy with parameter `p` reassigned to `donor`'s value for
    /// `p`, carrying over the donor's domain index — the zero-re-encoding
    /// form of the Shortcut substitution step.
    pub fn with_from(&self, p: ParamId, donor: &Instance) -> Self {
        let mut key = self.key.clone();
        key[p.index()] = donor.key[p.index()];
        Instance::from_key(self.params.clone(), key)
    }

    /// True if the two instances disagree on *every* parameter — the paper's
    /// Disjointness Condition (Def. 6): `CP_x[p] ≠ CP_y[p] ∀p`. Both come
    /// from one space, so the check compares domain indices.
    pub fn is_disjoint_from(&self, other: &Instance) -> bool {
        debug_assert_eq!(self.len(), other.len());
        self.key.iter().zip(other.key.iter()).all(|(x, y)| x != y)
    }

    /// Number of parameters on which the two instances differ. The
    /// "most-different" heuristic (used when the Disjointness Condition cannot
    /// be met, paper §4.1) maximizes this.
    pub fn hamming_distance(&self, other: &Instance) -> usize {
        debug_assert_eq!(self.len(), other.len());
        self.key
            .iter()
            .zip(other.key.iter())
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
        self.values()
            .zip(other.values())
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

    fn std_hash(value: &(impl Hash + ?Sized)) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    /// Two spaces built separately share no table: their instances compare
    /// values, so equal assignments are equal and hash equal, and the hash
    /// is the one the values' slice has. Within one space, equality follows
    /// the key.
    #[test]
    fn equality_and_hash_follow_the_values_across_spaces_and_the_key_within_one() {
        let (a, b) = (space3(), space3());
        for (x, y) in a.instances().zip(b.instances()) {
            assert_eq!(x, y);
            assert_eq!(std_hash(&x), std_hash(&y));
            let values: Vec<Value> = x.values().cloned().collect();
            assert_eq!(std_hash(&x), std_hash(&values[..]));
        }
        let left = a.instance_from_indices(&[0, 1, 1]);
        assert_ne!(left, b.instance_from_indices(&[0, 1, 0]));
        assert_ne!(left, b.instance_from_indices(&[2, 1, 1]));
        for other in a.instances() {
            assert_eq!(left == other, left.dense_key() == other.dense_key());
        }
        // A space whose domains differ: equal keys, other values.
        let c = ParamSpace::builder()
            .categorical("Dataset", ["Digits", "Iris", "Images"])
            .categorical("Estimator", ["LR", "DT", "GB"])
            .ordinal("Version", [1, 2])
            .build();
        assert_ne!(left, c.instance_from_indices(&[0, 1, 1]));
        assert_eq!(left, c.instance_from_indices(&[1, 1, 1]));
    }

    /// `with` and `with_from` copies read their values through the table,
    /// by `get` and by `values()` in id order.
    #[test]
    fn copies_read_their_values_through_the_table() {
        let s = space3();
        let (dataset, estimator, version) = (ParamId(0), ParamId(1), ParamId(2));
        let base = s.instance_from_indices(&[0, 0, 0]);
        let donor = s.instance_from_indices(&[2, 1, 1]);
        let moved = base.with(&s, estimator, "GB".into());
        assert_eq!(moved.get(estimator), &Value::from("GB"));
        assert_eq!(
            moved.values().cloned().collect::<Vec<_>>(),
            [Value::from("Iris"), "GB".into(), 1.into()]
        );
        let given = moved.with_from(dataset, &donor).with_from(version, &donor);
        assert_eq!(given.get(dataset), &Value::from("Images"));
        assert_eq!(given.get(version), &Value::from(2));
        assert_eq!(given.dense_key(), &[2, 2, 1]);
        assert_eq!(
            given.values().cloned().collect::<Vec<_>>(),
            [Value::from("Images"), "GB".into(), 2.into()]
        );
        assert_eq!(given.values().len(), 3);
        assert_eq!(
            base.values().next(),
            Some(&Value::from("Iris")),
            "the original is unchanged"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn instance_from_indices_panics_on_an_index_past_the_domain() {
        let _ = space3().instance_from_indices(&[0, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn instance_from_indices_panics_on_an_arity_mismatch() {
        let _ = space3().instance_from_indices(&[0, 1]);
    }

    #[test]
    fn debug_shows_the_values() {
        let shown = format!("{:?}", space3().instance_from_indices(&[1, 2, 0]));
        assert!(
            shown.contains(r#"values: [Str("Digits"), Str("GB"), Int(1)]"#),
            "{shown}"
        );
    }
}
