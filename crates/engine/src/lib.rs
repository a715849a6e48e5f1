//! # bugdoc-engine
//!
//! The execution layer of the BugDoc reproduction: the black-box
//! [`Pipeline`] abstraction, a budgeted, parallel [`Executor`]
//! (the paper's "dispatching component ... spawns multiple pipeline
//! instances in parallel", §5), a virtual clock for the scalability study
//! (§5.2, Figure 6), historical-replay pipelines for the DBSherlock setting
//! (§5.3), and a failure-injection wrapper for robustness tests.

#![warn(missing_docs)]

mod command;
mod executor;
mod pipeline;

pub use command::{CommandEval, CommandPipeline};
pub use executor::{ExecError, ExecStats, Executor, ExecutorConfig};
pub use pipeline::{FaultInjector, FnPipeline, HistoricalPipeline, Pipeline, PipelineError, SimTime};
// Durable-provenance vocabulary, re-exported so executor users configure
// persistence without naming `bugdoc-store` directly.
pub use bugdoc_store::{PersistConfig, PersistError, Recovery};
