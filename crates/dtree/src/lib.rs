//! # bugdoc-dtree
//!
//! Decision-tree substrates for the BugDoc reproduction:
//!
//! * [`DecisionTree`] — a *full, unpruned* binary tree whose inner nodes are
//!   (Parameter, Comparator, Value) triples, exactly as Debugging Decision
//!   Trees uses it to mine suspect fail-paths (paper §4.2), and
//!   [`ProvenanceTree`], the same tree over a provenance store, refitted
//!   with only the runs recorded since its last fit;
//! * [`RandomForest`] — a bootstrap-aggregated regression ensemble, the
//!   surrogate model of the SMAC baseline (paper §5).

#![warn(missing_docs)]

mod forest;
mod tree;

pub use forest::{ForestConfig, Prediction, RandomForest};
pub use tree::{
    AllFeatures, DecisionTree, FeatureSampler, LeafInfo, Node, Path, ProvenanceTree, TreeConfig,
};
