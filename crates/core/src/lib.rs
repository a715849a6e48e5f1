//! # bugdoc-core
//!
//! The vocabulary of the BugDoc reproduction (Lourenço, Freire, Shasha:
//! *BugDoc: Algorithms to Debug Computational Processes*, SIGMOD 2020):
//! parameter spaces and value universes, pipeline instances, evaluations,
//! parameter-comparator-value predicates, root causes (conjunctions / DNF)
//! with a canonical semantic form, and the provenance store of executed
//! instances.
//!
//! Everything else in the workspace — the execution engine, the debugging
//! algorithms (Shortcut, Stacked Shortcut, Debugging Decision Trees), the
//! baselines (Data X-Ray, Explanation Tables, SMAC), the synthetic and
//! real-world pipelines, and the evaluation harness — is written against the
//! types in this crate.
//!
//! ## Model recap (paper §3)
//!
//! * A pipeline `CP` has parameters `P`; each `p ∈ P` has a finite value
//!   universe `U_p` ([`ParamSpace`], [`Domain`]).
//! * An instance `CP_i` assigns a value to every parameter ([`Instance`]).
//! * An evaluation `E(CP_i) ∈ {succeed, fail}` ([`Outcome`], [`EvalResult`]).
//! * A hypothetical root cause is a conjunction of triples like `A > 5`
//!   ([`Predicate`], [`Conjunction`]); it is *definitive* if no succeeding
//!   instance satisfies it and *minimal* if no proper subset is definitive.
//! * The execution history is the provenance ([`ProvenanceStore`]).

#![warn(missing_docs)]

mod bitset;
mod cause;
mod fx;
pub mod kernels;
mod instance;
mod outcome;
mod param;
mod predicate;
mod provenance;
mod value;

pub use bitset::{Ones, RunSet};
pub use cause::{CanonicalCause, Conjunction, ConjunctionDisplay, Dnf, DnfDisplay};
pub use fx::{hash_dense_key, FxBuildHasher, FxHasher};
pub use instance::{Instance, InstanceDisplay};
pub use outcome::{EvalResult, Outcome};
pub use param::{Domain, DomainKind, InstanceIter, ParamDef, ParamId, ParamSpace, ParamSpaceBuilder};
pub use predicate::{Comparator, Predicate, PredicateDisplay};
pub use provenance::{ProvenanceStore, Run, TsvError, DEFAULT_EPOCH_RUNS};
pub use value::{Value, F64};
