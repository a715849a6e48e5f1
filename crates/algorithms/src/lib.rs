//! # bugdoc-algorithms
//!
//! The paper's primary contribution: iterative debugging algorithms that find
//! *minimal definitive root causes* of pipeline failures by selectively
//! executing new instances (paper §4).
//!
//! * [`shortcut`] — Algorithm 1: a linear-cost parameter walk from a failing
//!   instance toward a disjoint succeeding one.
//! * [`stacked_shortcut`] — Algorithm 2: Shortcut against k mutually disjoint
//!   goods; unions the assertions to avoid truncation (Theorem 5).
//! * [`debugging_decision_trees`] — §4.2: complete unpruned trees surface
//!   suspect fail-paths with inequality comparators; suspects are verified by
//!   sampled executions and simplified with Quine–McCluskey.
//! * [`diagnose`] — the combined BugDoc driver used against the real-world
//!   pipelines (Figure 7).

#![warn(missing_docs)]

mod ddt;
mod driver;
mod error;
pub mod group_testing;
mod shortcut;
mod stacked;

pub use group_testing::{
    find_defective_elements, CorruptRecordOracle, GroupTestConfig, GroupTestReport, SubsetOracle,
    SubsetOutcome,
};

pub use ddt::{
    debugging_decision_trees, DdtConfig, DdtMode, DdtReport, PrototypeStrategy,
};
pub use driver::{diagnose, BugDocConfig, Diagnosis, Strategy};
pub use error::AlgoError;
pub use shortcut::{shortcut, shortcut_speculative, OnUnavailable, ShortcutConfig, ShortcutReport};
pub use stacked::{stacked_shortcut, stacked_shortcut_from, StackedConfig, StackedReport};
