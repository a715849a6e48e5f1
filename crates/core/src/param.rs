//! Parameter definitions and parameter spaces.
//!
//! A computational pipeline `CP` exposes a set of manipulable parameters `P`
//! (hyperparameters, input data selectors, program versions, modules — paper
//! §3 Def. 1). Each parameter has a finite *value universe* `U_p`: the set of
//! values assigned by any instance so far, optionally expanded by an explicit
//! domain declaration ("parameter satisfaction can take integer values between
//! 1 and 10").

use crate::cause::{self, CanonicalCause};
use crate::fx::FxBuildHasher;
use crate::instance::Instance;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Index of a parameter within a [`ParamSpace`]. Stable for the lifetime of
/// the space; instances store values densely by this index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(pub u32);

impl ParamId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Whether a domain is ordered. Ordinal domains admit the `≤` and `>`
/// comparators in root causes; categorical domains admit only `=` and `≠`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainKind {
    /// Ordered values (temperatures, learning rates, versions).
    Ordinal,
    /// Unordered labels (colors, estimator names).
    Categorical,
}

/// The finite value universe of one parameter.
///
/// Values are stored deduplicated; ordinal domains are kept sorted so that a
/// value's domain index is also its rank, which the canonical root-cause form
/// exploits (prefix sets ⇔ `≤` predicates). A value→index hash table rides
/// along so [`Domain::index_of`] — the inner loop of dense instance encoding —
/// is a single cheap hash probe instead of a scan.
#[derive(Debug, Clone)]
pub struct Domain {
    kind: DomainKind,
    values: Vec<Value>,
    /// Value → domain index, kept in sync with `values`.
    index: HashMap<Value, u32, FxBuildHasher>,
}

impl PartialEq for Domain {
    fn eq(&self, other: &Self) -> bool {
        // `index` is derived from `values`; comparing it would be redundant.
        self.kind == other.kind && self.values == other.values
    }
}

impl Eq for Domain {}

impl Domain {
    fn with_values(kind: DomainKind, values: Vec<Value>) -> Self {
        let index = values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect();
        Domain {
            kind,
            values,
            index,
        }
    }

    /// Builds an ordinal (sorted, deduplicated) domain.
    pub fn ordinal(values: impl IntoIterator<Item = Value>) -> Self {
        let mut values: Vec<Value> = values.into_iter().collect();
        values.sort();
        values.dedup();
        Domain::with_values(DomainKind::Ordinal, values)
    }

    /// Builds a categorical (deduplicated, insertion-ordered) domain.
    pub fn categorical(values: impl IntoIterator<Item = Value>) -> Self {
        let mut seen = Vec::new();
        for v in values {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        Domain::with_values(DomainKind::Categorical, seen)
    }

    /// Domain kind.
    pub fn kind(&self) -> DomainKind {
        self.kind
    }

    /// True for ordinal domains.
    pub fn is_ordinal(&self) -> bool {
        self.kind == DomainKind::Ordinal
    }

    /// Number of values in the universe.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the universe is empty (a degenerate space).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values, in domain order (sorted for ordinal domains).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at a domain index.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// The domain index of a value, if present: one hash probe in the common
    /// case. A cross-variant numeric spelling (an `Int` literal probed
    /// against a `Float` domain) misses the exact-match table and falls back
    /// to the order-based search, which treats `2` and `2.0` as equal.
    pub fn index_of(&self, v: &Value) -> Option<usize> {
        if let Some(&i) = self.index.get(v) {
            return Some(i as usize);
        }
        if self.is_ordinal() {
            self.values.binary_search(v).ok()
        } else {
            self.values.iter().position(|x| x == v)
        }
    }

    /// Like [`Domain::index_of`] but *without* the cross-variant fallback:
    /// only a value identical (by `Eq`) to a stored domain value matches.
    /// Dense instance encoding uses this so the bitset index never classifies
    /// a run under a value that compares unequal to the one it actually
    /// stores (predicates apply `Eq`, where `Int(2) != Float(2.0)`).
    pub fn exact_index_of(&self, v: &Value) -> Option<usize> {
        self.index.get(v).map(|&i| i as usize)
    }

    /// True if the value belongs to the universe.
    pub fn contains(&self, v: &Value) -> bool {
        self.index_of(v).is_some()
    }
}

/// One manipulable parameter: a name and a value universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDef {
    name: String,
    domain: Domain,
}

impl ParamDef {
    /// Creates a parameter definition.
    pub fn new(name: impl Into<String>, domain: Domain) -> Self {
        ParamDef {
            name: name.into(),
            domain,
        }
    }

    /// The parameter name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter's value universe.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }
}

/// The full parameter space of a pipeline: the universe `U = {(p, U_p)}`.
///
/// Shared immutably (`Arc<ParamSpace>`) between the execution engine, the
/// provenance store, and the debugging algorithms. A space is never
/// mutated once built, so the layout of [`CanonicalCause`] cubes it computes
/// at construction holds for its whole life.
///
/// The parameter table is shared too: every [`Instance`] the space builds
/// holds a clone of the same `Arc`, reads its values through it, and
/// compares keys with another instance holding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpace {
    params: Arc<[ParamDef]>,
    /// Parameter `i` owns words `bounds[i]..bounds[i + 1]` of every cube
    /// over this space.
    bounds: Vec<usize>,
    /// The cube allowing every value of every parameter.
    top: CanonicalCause,
}

impl ParamSpace {
    /// Creates a space from parameter definitions. Panics on duplicate names
    /// or empty domains — both are construction bugs, not runtime conditions.
    pub fn new(params: Vec<ParamDef>) -> Self {
        for (i, p) in params.iter().enumerate() {
            assert!(
                !p.domain().is_empty(),
                "parameter {:?} has an empty value universe",
                p.name()
            );
            assert!(
                !params[..i].iter().any(|q| q.name() == p.name()),
                "duplicate parameter name {:?}",
                p.name()
            );
        }
        let (bounds, top) = cause::cube_layout(params.iter().map(|p| p.domain().len()));
        ParamSpace {
            params: params.into(),
            bounds,
            top,
        }
    }

    /// The words parameter `p` owns in every cube over this space.
    pub(crate) fn block(&self, p: ParamId) -> Range<usize> {
        self.bounds[p.index()]..self.bounds[p.index() + 1]
    }

    /// Every parameter's words in a cube over this space, in id order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = (ParamId, Range<usize>)> + '_ {
        self.bounds
            .windows(2)
            .enumerate()
            .map(|(i, b)| (ParamId(i as u32), b[0]..b[1]))
    }

    /// The cube allowing every value of every parameter.
    pub(crate) fn top(&self) -> &CanonicalCause {
        &self.top
    }

    /// A fluent builder.
    pub fn builder() -> ParamSpaceBuilder {
        ParamSpaceBuilder { params: Vec::new() }
    }

    /// Number of parameters `|P|`.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The definition of a parameter.
    pub fn param(&self, id: ParamId) -> &ParamDef {
        &self.params[id.index()]
    }

    /// The domain of a parameter.
    pub fn domain(&self, id: ParamId) -> &Domain {
        self.params[id.index()].domain()
    }

    /// Looks a parameter up by name.
    pub fn by_name(&self, name: &str) -> Option<ParamId> {
        self.params
            .iter()
            .position(|p| p.name() == name)
            .map(|i| ParamId(i as u32))
    }

    /// Iterates over all parameter ids in index order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.params.len() as u32).map(ParamId)
    }

    /// Iterates over `(id, def)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &ParamDef)> {
        self.params
            .iter()
            .enumerate()
            .map(|(i, p)| (ParamId(i as u32), p))
    }

    /// True if the instance's dense key ([`Instance::dense_key`]) is this
    /// space's encoding of its values: it has one index per parameter, and
    /// each is the domain index of a domain value *identical* to the
    /// instance's value. Identity is deliberate: a `Float(2.0)` stored
    /// against an `Int` domain must not be indexed under `Int(2)`, or bitset
    /// predicate evaluation would disagree with `Conjunction::satisfied_by`'s
    /// `Eq` semantics.
    ///
    /// The provenance store's debug assertions check every carried key
    /// against the store's space with it. It builds no encoding, so the
    /// check allocates nothing.
    pub fn encodes(&self, instance: &Instance) -> bool {
        instance.len() == self.len()
            && self
                .params
                .iter()
                .zip(instance.values())
                .zip(instance.dense_key())
                .all(|((def, v), &k)| def.domain().exact_index_of(v) == Some(k as usize))
    }

    /// True if `key` is a dense key of this space: one index per parameter,
    /// each below its parameter's domain size.
    pub fn fits(&self, key: &[u32]) -> bool {
        key.len() == self.len()
            && self
                .params
                .iter()
                .zip(key)
                .all(|(def, &i)| (i as usize) < def.domain().len())
    }

    /// Materializes the instance denoted by a dense encoding: the encoding,
    /// copied, and this space's parameter table. Panics on arity mismatch or
    /// out-of-range indices.
    pub fn instance_from_indices(&self, indices: &[u32]) -> Instance {
        self.instance_from_key(indices.into())
    }

    /// [`instance_from_indices`](Self::instance_from_indices) taking the
    /// encoding by value, so the instance keeps the caller's buffer instead
    /// of copying it (a buffer whose capacity exceeds its length is shrunk
    /// to fit).
    pub fn instance_from_owned_indices(&self, indices: Vec<u32>) -> Instance {
        self.instance_from_key(indices.into_boxed_slice())
    }

    /// Checks a dense key against this space and builds its instance.
    fn instance_from_key(&self, key: Box<[u32]>) -> Instance {
        assert_eq!(key.len(), self.len(), "dense key arity mismatch");
        for (def, &i) in self.params.iter().zip(key.iter()) {
            assert!(
                (i as usize) < def.domain().len(),
                "domain index {i} out of range for parameter {:?} of {} values",
                def.name(),
                def.domain().len()
            );
        }
        Instance::from_key(self.params.clone(), key)
    }

    /// Size of the Cartesian product of all domains: the number of distinct
    /// pipeline instances. Saturates at `u128::MAX` (a 15-parameter, 30-value
    /// space is ~10^22, well within range).
    pub fn total_configurations(&self) -> u128 {
        self.params
            .iter()
            .map(|p| p.domain().len() as u128)
            .try_fold(1u128, |acc, n| acc.checked_mul(n))
            .unwrap_or(u128::MAX)
    }

    /// Lazily enumerates every instance in the space, in lexicographic order
    /// of domain indices. Intended for *small* spaces (exact semantic checks
    /// in tests and minimizers); real spaces are explored by sampling —
    /// exhaustive enumeration is exactly the combinatorial explosion BugDoc
    /// exists to avoid (paper §4).
    pub fn instances(&self) -> InstanceIter<'_> {
        InstanceIter {
            space: self,
            indices: vec![0; self.params.len()],
            done: self.params.iter().any(|p| p.domain().is_empty()),
        }
    }
}

/// Lazy iterator over all instances of a space; see [`ParamSpace::instances`].
pub struct InstanceIter<'a> {
    space: &'a ParamSpace,
    indices: Vec<usize>,
    done: bool,
}

impl Iterator for InstanceIter<'_> {
    type Item = crate::instance::Instance;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let dense: Vec<u32> = self.indices.iter().map(|&i| i as u32).collect();
        let instance = self.space.instance_from_owned_indices(dense);
        // Advance the mixed-radix counter.
        let mut carry = true;
        for (p, idx) in self.indices.iter_mut().enumerate().rev() {
            if !carry {
                break;
            }
            *idx += 1;
            if *idx == self.space.params[p].domain().len() {
                *idx = 0;
            } else {
                carry = false;
            }
        }
        if carry {
            self.done = true;
        }
        Some(instance)
    }
}

/// Builder for [`ParamSpace`].
pub struct ParamSpaceBuilder {
    params: Vec<ParamDef>,
}

impl ParamSpaceBuilder {
    /// Adds an ordinal parameter.
    pub fn ordinal(
        mut self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<Value>>,
    ) -> Self {
        self.params.push(ParamDef::new(
            name,
            Domain::ordinal(values.into_iter().map(Into::into)),
        ));
        self
    }

    /// Adds a categorical parameter.
    pub fn categorical(
        mut self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<Value>>,
    ) -> Self {
        self.params.push(ParamDef::new(
            name,
            Domain::categorical(values.into_iter().map(Into::into)),
        ));
        self
    }

    /// Adds a boolean parameter (`{false, true}`, ordinal).
    pub fn boolean(self, name: impl Into<String>) -> Self {
        self.ordinal(name, [false, true])
    }

    /// Finalizes the space.
    pub fn build(self) -> Arc<ParamSpace> {
        Arc::new(ParamSpace::new(self.params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinal_domain_sorts_and_dedups() {
        let d = Domain::ordinal([3, 1, 2, 1].map(Value::from));
        assert_eq!(d.len(), 3);
        assert_eq!(d.values(), &[1.into(), 2.into(), 3.into()]);
        assert_eq!(d.index_of(&2.into()), Some(1));
    }

    #[test]
    fn categorical_domain_preserves_order() {
        let d = Domain::categorical(["b", "a", "b"].map(Value::from));
        assert_eq!(d.values(), &["b".into(), "a".into()]);
        assert_eq!(d.index_of(&"a".into()), Some(1));
        assert!(!d.contains(&"c".into()));
    }

    #[test]
    fn space_lookup_and_size() {
        let space = ParamSpace::builder()
            .categorical("Dataset", ["Iris", "Digits", "Images"])
            .categorical(
                "Estimator",
                ["Logistic Regression", "Decision Tree", "Gradient Boosting"],
            )
            .ordinal("Library Version", [1.0, 2.0])
            .build();
        assert_eq!(space.len(), 3);
        assert_eq!(space.total_configurations(), 18);
        let est = space.by_name("Estimator").unwrap();
        assert_eq!(space.param(est).name(), "Estimator");
        assert!(space.by_name("nope").is_none());
        assert_eq!(space.ids().count(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        ParamSpace::builder().boolean("x").boolean("x").build();
    }

    #[test]
    #[should_panic(expected = "empty value universe")]
    fn empty_domain_rejected() {
        ParamSpace::new(vec![ParamDef::new("p", Domain::ordinal(Vec::<Value>::new()))]);
    }

    #[test]
    fn total_configurations_saturates() {
        let mut params = Vec::new();
        for i in 0..200 {
            params.push(ParamDef::new(
                format!("p{i}"),
                Domain::ordinal((0..30).map(Value::from)),
            ));
        }
        let space = ParamSpace::new(params);
        assert_eq!(space.total_configurations(), u128::MAX);
    }
}

#[cfg(test)]
mod instance_iter_tests {
    use super::*;

    #[test]
    fn enumerates_full_product() {
        let space = ParamSpace::builder()
            .ordinal("a", [1, 2])
            .categorical("b", ["x", "y", "z"])
            .build();
        let all: Vec<_> = space.instances().collect();
        assert_eq!(all.len(), 6);
        // Lexicographic by domain index: a=1 block first.
        assert_eq!(
            all[0].values().cloned().collect::<Vec<_>>(),
            &[1.into(), "x".into()]
        );
        assert_eq!(
            all[5].values().cloned().collect::<Vec<_>>(),
            &[2.into(), "z".into()]
        );
        // All distinct.
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn single_param_space() {
        let space = ParamSpace::builder().ordinal("a", [1, 2, 3]).build();
        assert_eq!(space.instances().count(), 3);
    }
}
