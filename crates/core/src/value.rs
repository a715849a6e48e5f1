//! Parameter values.
//!
//! BugDoc treats pipelines as black boxes whose manipulable parameters take
//! values from finite universes (paper §3, Def. 1). Values may be ordinal
//! (numbers, versions) or categorical (names, flags); the paper's synthetic
//! generator draws both kinds with probability ½ (§5.1).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A finite, totally ordered floating-point wrapper.
///
/// `f64` is not `Ord`/`Eq`/`Hash` because of NaN; parameter values must be all
/// three so that instances can be deduplicated in the provenance store and
/// ordinal comparators (`≤`, `>`) are well defined. NaN is rejected at
/// construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64(f64);

impl F64 {
    /// Wraps a finite float. Returns `None` for NaN (infinities are allowed:
    /// they are ordered and hash consistently).
    pub fn new(v: f64) -> Option<Self> {
        if v.is_nan() {
            None
        } else {
            // Normalize -0.0 to 0.0 so that `==` agrees with `hash`.
            Some(F64(if v == 0.0 { 0.0 } else { v }))
        }
    }

    /// The wrapped float.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for F64 {}

impl PartialOrd for F64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Hash for F64 {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A single parameter value.
///
/// Values are cheap to clone: strings are reference-counted, everything else
/// is `Copy`-sized. The ordering is total — values of different variants are
/// ordered by variant tag — but well-formed pipelines only compare values
/// drawn from the same parameter domain, which are homogeneous.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Boolean flag (e.g., `use_alpha`).
    Bool(bool),
    /// Integer-valued ordinal (e.g., `n_steps`).
    Int(i64),
    /// Real-valued ordinal (e.g., a learning rate).
    Float(F64),
    /// Categorical label (e.g., an estimator name).
    Str(Arc<str>),
}

impl Value {
    /// Constructs a float value, panicking on NaN. Use [`F64::new`] directly
    /// to handle NaN without panicking.
    pub fn float(v: f64) -> Self {
        Value::Float(F64::new(v).expect("parameter values must not be NaN"))
    }

    /// Constructs a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Numeric view of the value, if it has one. Used by surrogate models
    /// (random forests) that need a coordinate embedding.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(f.get()),
            Value::Str(_) => None,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            // Mixed Int/Float compare numerically so ordinal domains may mix
            // integer and real literals.
            (Int(a), Float(b)) => F64::new(*a as f64).unwrap().cmp(b),
            (Float(a), Int(b)) => a.cmp(&F64::new(*b as f64).unwrap()),
            // Remaining cross-variant pairs: order by variant tag.
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }
}

fn tag(v: &Value) -> u8 {
    match v {
        Value::Bool(_) => 0,
        Value::Int(_) => 1,
        Value::Float(_) => 2,
        Value::Str(_) => 3,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn f64_rejects_nan() {
        assert!(F64::new(f64::NAN).is_none());
        assert!(F64::new(1.5).is_some());
        assert!(F64::new(f64::INFINITY).is_some());
    }

    #[test]
    fn f64_negative_zero_normalized() {
        let a = F64::new(0.0).unwrap();
        let b = F64::new(-0.0).unwrap();
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn f64_total_order() {
        let mut v = [
            F64::new(f64::INFINITY).unwrap(),
            F64::new(-1.0).unwrap(),
            F64::new(0.0).unwrap(),
            F64::new(f64::NEG_INFINITY).unwrap(),
        ];
        v.sort();
        assert_eq!(
            v.iter().map(|x| x.get()).collect::<Vec<_>>(),
            vec![f64::NEG_INFINITY, -1.0, 0.0, f64::INFINITY]
        );
    }

    #[test]
    fn value_ordering_same_variant() {
        assert!(Value::from(1) < Value::from(2));
        assert!(Value::from("a") < Value::from("b"));
        assert!(Value::from(false) < Value::from(true));
        assert!(Value::from(1.5) < Value::from(2.5));
    }

    #[test]
    fn value_int_float_compare_numerically() {
        assert!(Value::from(1) < Value::from(1.5));
        assert!(Value::from(2.5) > Value::from(2));
        assert_eq!(Value::from(2).cmp(&Value::from(2.0)), Ordering::Equal);
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::from("Iris").to_string(), "Iris");
        assert_eq!(Value::from(3).to_string(), "3");
        assert_eq!(Value::from(true).to_string(), "true");
        assert_eq!(Value::float(0.25).to_string(), "0.25");
    }

    #[test]
    fn value_as_f64() {
        assert_eq!(Value::from(3).as_f64(), Some(3.0));
        assert_eq!(Value::from(true).as_f64(), Some(1.0));
        assert_eq!(Value::from(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::from("x").as_f64(), None);
    }

    #[test]
    fn string_values_share_storage_on_clone() {
        let a = Value::str("gradient boosting");
        let b = a.clone();
        if let (Value::Str(x), Value::Str(y)) = (&a, &b) {
            assert!(Arc::ptr_eq(x, y));
        } else {
            unreachable!()
        }
    }
}
