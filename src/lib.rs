//! # BugDoc — algorithms to debug computational processes
//!
//! A from-scratch Rust reproduction of *BugDoc: Algorithms to Debug
//! Computational Processes* (Lourenço, Freire, Shasha — SIGMOD 2020).
//!
//! Given a black-box computational pipeline — a set of manipulable parameters
//! plus an evaluation procedure that labels each run `succeed` or `fail` —
//! and a provenance log of previously executed instances, BugDoc
//! autonomously executes new instances to find **minimal definitive root
//! causes** of failure: minimal conjunctions of
//! `(parameter, comparator, value)` triples such that every instance
//! satisfying the conjunction fails.
//!
//! ## Quick start
//!
//! ```
//! use bugdoc::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. Describe the parameter space.
//! let space = ParamSpace::builder()
//!     .categorical("dataset", ["iris", "digits"])
//!     .ordinal("library_version", [1, 2])
//!     .build();
//!
//! // 2. Wrap your computation as a black-box pipeline.
//! let version = space.by_name("library_version").unwrap();
//! let pipeline = FnPipeline::new(space.clone(), move |inst: &Instance| {
//!     // ... run the real pipeline; here: version 2 is buggy.
//!     let score = if inst.get(version) == &Value::from(2) { 0.2 } else { 0.9 };
//!     EvalResult::from_score_at_least(score, 0.6)
//! });
//!
//! // 3. Execute a few instances (or seed a pre-existing history).
//! let exec = Executor::new(Arc::new(pipeline), ExecutorConfig::default());
//! for pairs in [("iris", 2), ("digits", 1)] {
//!     let inst = Instance::from_pairs(
//!         &space,
//!         [("dataset", pairs.0.into()), ("library_version", pairs.1.into())],
//!     );
//!     exec.evaluate(&inst).unwrap();
//! }
//!
//! // 4. Diagnose.
//! let diagnosis = diagnose(&exec, &BugDocConfig::default()).unwrap();
//! println!("root causes: {}", diagnosis.causes.display(&space));
//! assert_eq!(diagnosis.causes.len(), 1);
//! ```
//!
//! ## Crate map
//!
//! * [`core`] — parameter spaces, instances, predicates, root causes,
//!   provenance (re-exported at the root).
//! * [`engine`] — the black-box [`Pipeline`](engine::Pipeline) trait and the
//!   caching/budgeted/parallel [`Executor`](engine::Executor).
//! * [`algorithms`] — Shortcut, Stacked Shortcut, Debugging Decision Trees,
//!   and the combined [`diagnose`](algorithms::diagnose) driver.
//! * [`baselines`] — Data X-Ray, Explanation Tables, SMAC, random search.
//! * [`dtree`], [`qm`] — the decision-tree and Quine–McCluskey substrates.
//! * [`store`] — durable provenance: a segmented checksummed write-ahead
//!   log and crash recovery that replays it for warm-start diagnosis.
//! * [`serve`] — the diagnosis service daemon (`bugdoc serve`): concurrent
//!   sessions sharing one executor per pipeline spec.
//! * [`telemetry`] — wait-free metrics (counters, gauges, log₂ histograms)
//!   and a flight-recorder ring, rendered as Prometheus text exposition.
//! * [`workflow`] — the dynamic pipeline-execution layer: module DAGs with
//!   swappable, parameterized implementations, plus a real mini-ML substrate.
//! * [`synth`], [`pipelines`], [`eval`] — the paper's benchmark: synthetic
//!   generator with exact ground truth, real-world pipeline simulators, and
//!   the metric/experiment harness.

#![warn(missing_docs)]

pub use bugdoc_algorithms as algorithms;
pub use bugdoc_baselines as baselines;
pub use bugdoc_core as core;
pub use bugdoc_dtree as dtree;
pub use bugdoc_engine as engine;
pub use bugdoc_eval as eval;
pub use bugdoc_pipelines as pipelines;
pub use bugdoc_qm as qm;
pub use bugdoc_serve as serve;
pub use bugdoc_store as store;
pub use bugdoc_synth as synth;
pub use bugdoc_telemetry as telemetry;
pub use bugdoc_workflow as workflow;

/// The types most applications need, in one import.
pub mod prelude {
    pub use bugdoc_algorithms::{
        debugging_decision_trees, diagnose, shortcut, stacked_shortcut, BugDocConfig, DdtConfig,
        DdtMode, Diagnosis, ShortcutConfig, StackedConfig, Strategy,
    };
    pub use bugdoc_core::{
        Comparator, Conjunction, Dnf, Domain, EvalResult, Instance, Outcome, ParamId, ParamSpace,
        Predicate, ProvenanceStore, Value,
    };
    pub use bugdoc_engine::{
        Executor, ExecutorConfig, FnPipeline, HistoricalPipeline, PersistConfig, Pipeline, Recovery,
        SimTime,
    };
}
