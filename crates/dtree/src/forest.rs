//! A random-forest regressor over pipeline instances.
//!
//! Substrate for the SMAC baseline (paper §5): SMAC models the response
//! surface with a random forest and uses the per-tree prediction spread as
//! the uncertainty estimate feeding expected improvement (Hutter et al.,
//! LION 2011). Each tree is trained on a bootstrap resample with per-node
//! feature subsampling (√|P| by default).

use crate::tree::{DecisionTree, FeatureSampler, TreeConfig};
use bugdoc_core::{Instance, ParamId, ParamSpace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::borrow::Borrow;

/// Forest configuration.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees. SMAC traditionally uses 10.
    pub n_trees: usize,
    /// Per-node feature subset size (`None` = √|P|, at least 1).
    pub features_per_split: Option<usize>,
    /// Depth cap per tree (`None` = grow fully).
    pub max_depth: Option<usize>,
    /// Minimum rows to split.
    pub min_samples_split: usize,
    /// RNG seed (bootstraps and feature subsets are reproducible).
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 10,
            features_per_split: None,
            max_depth: None,
            min_samples_split: 2,
            seed: 0,
        }
    }
}

/// Mean/variance prediction across the forest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Mean of the per-tree predictions.
    pub mean: f64,
    /// Population variance of the per-tree predictions — SMAC's uncertainty.
    pub variance: f64,
}

struct RngSampler<'a> {
    rng: &'a mut StdRng,
}

impl FeatureSampler for RngSampler<'_> {
    fn sample(&mut self, all: &[ParamId], k: usize) -> Vec<ParamId> {
        let mut pool = all.to_vec();
        pool.shuffle(self.rng);
        // At least one candidate, when there is one: `truncate` past the
        // length is a no-op, so an empty `all` yields no candidates.
        pool.truncate(k.max(1));
        // Keep candidate order stable so trees differ only through the
        // sampled subset, not its ordering.
        pool.sort();
        pool
    }
}

/// A bootstrap-aggregated ensemble of regression trees.
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Fits a forest on `(instance, label)` rows; the instances may be owned
    /// or borrowed.
    pub fn fit<I: Borrow<Instance>>(
        space: &ParamSpace,
        rows: &[(I, f64)],
        config: &ForestConfig,
    ) -> Self {
        assert!(!rows.is_empty(), "cannot fit a forest on zero rows");
        assert!(config.n_trees > 0, "forest needs at least one tree");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let k = config
            .features_per_split
            .unwrap_or_else(|| (space.len() as f64).sqrt().ceil() as usize)
            .clamp(1, space.len().max(1));
        let tree_config = TreeConfig {
            max_depth: config.max_depth,
            min_samples_split: config.min_samples_split,
            feature_subset: Some(k),
        };
        let trees = (0..config.n_trees)
            .map(|_| {
                // Bootstrap resample (with replacement, same size).
                let sample: Vec<(&Instance, f64)> = (0..rows.len())
                    .map(|_| {
                        let (instance, y) = &rows[rng.gen_range(0..rows.len())];
                        (instance.borrow(), *y)
                    })
                    .collect();
                let mut sampler = RngSampler { rng: &mut rng };
                DecisionTree::fit_with_sampler(space, &sample, &tree_config, &mut sampler)
            })
            .collect();
        RandomForest { trees }
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True if the forest has no trees (never: `fit` requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Mean/variance prediction for an instance.
    pub fn predict(&self, instance: &Instance) -> Prediction {
        let preds: Vec<f64> = self.trees.iter().map(|t| t.predict(instance)).collect();
        let n = preds.len() as f64;
        let mean = preds.iter().sum::<f64>() / n;
        let variance = preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
        Prediction { mean, variance }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{ParamSpace, Value};
    use std::sync::Arc;

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("a", [1, 2, 3, 4, 5])
            .ordinal("b", [1, 2, 3, 4, 5])
            .categorical("c", ["x", "y", "z"])
            .build()
    }

    fn inst(s: &ParamSpace, a: i64, b: i64, c: &str) -> Instance {
        Instance::from_pairs(
            s,
            [("a", Value::from(a)), ("b", Value::from(b)), ("c", c.into())],
        )
    }

    fn rows(s: &ParamSpace) -> Vec<(Instance, f64)> {
        let mut out = Vec::new();
        for a in 1..=5 {
            for b in 1..=5 {
                for c in ["x", "y", "z"] {
                    // Fail region: a ≥ 4 ∧ c = "x".
                    let y = if a >= 4 && c == "x" { 1.0 } else { 0.0 };
                    out.push((inst(s, a, b, c), y));
                }
            }
        }
        out
    }

    #[test]
    fn forest_learns_fail_region() {
        let s = space();
        let forest = RandomForest::fit(&s, &rows(&s), &ForestConfig::default());
        assert_eq!(forest.len(), 10);
        let hot = forest.predict(&inst(&s, 5, 3, "x"));
        let cold = forest.predict(&inst(&s, 1, 3, "y"));
        assert!(
            hot.mean > cold.mean + 0.5,
            "hot={:.2} cold={:.2}",
            hot.mean,
            cold.mean
        );
    }

    #[test]
    fn forest_is_reproducible_per_seed() {
        let s = space();
        let data = rows(&s);
        let f1 = RandomForest::fit(&s, &data, &ForestConfig::default());
        let f2 = RandomForest::fit(&s, &data, &ForestConfig::default());
        let probe = inst(&s, 4, 2, "x");
        assert_eq!(f1.predict(&probe), f2.predict(&probe));
        let f3 = RandomForest::fit(
            &s,
            &data,
            &ForestConfig {
                seed: 99,
                ..ForestConfig::default()
            },
        );
        // Different seed may produce a different (valid) model; just ensure
        // the call works and stays in range.
        let p = f3.predict(&probe);
        assert!((0.0..=1.0).contains(&p.mean));
    }

    #[test]
    fn variance_reflects_disagreement() {
        let s = space();
        // Tiny, noisy training set: points far from any training data should
        // show nonzero spread across bootstraps more often than points the
        // trees agree on. We only assert variance is finite and non-negative.
        let data: Vec<(Instance, f64)> = (1..=5).map(|a| (inst(&s, a, 1, "x"), a as f64)).collect();
        let forest = RandomForest::fit(&s, &data, &ForestConfig::default());
        let p = forest.predict(&inst(&s, 3, 5, "z"));
        assert!(p.variance >= 0.0 && p.variance.is_finite());
    }

    #[test]
    fn single_tree_forest_works() {
        let s = space();
        let forest = RandomForest::fit(
            &s,
            &rows(&s),
            &ForestConfig {
                n_trees: 1,
                ..ForestConfig::default()
            },
        );
        assert_eq!(forest.len(), 1);
        assert!(!forest.is_empty());
        let p = forest.predict(&inst(&s, 5, 5, "x"));
        assert_eq!(p.variance, 0.0);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_fit_panics() {
        let s = space();
        RandomForest::fit::<Instance>(&s, &[], &ForestConfig::default());
    }

    /// With no parameters there is nothing to split on: every tree is one
    /// leaf, and the sampler offers no candidates from an empty list.
    #[test]
    fn zero_parameter_space_grows_leaves() {
        let s = ParamSpace::builder().build();
        let empty = s.instance_from_indices(&[]);
        let rows = [(empty.clone(), 0.0), (empty.clone(), 1.0)];
        let forest = RandomForest::fit(&s, &rows, &ForestConfig::default());
        let p = forest.predict(&empty);
        assert!((0.0..=1.0).contains(&p.mean) && p.variance >= 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(RngSampler { rng: &mut rng }.sample(&[], 3).is_empty());
    }
}
