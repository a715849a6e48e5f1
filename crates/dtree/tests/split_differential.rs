//! Differential test of the histogram split search against the search it
//! replaced, which evaluated every candidate test on every row through
//! `Predicate::satisfied_by`. That search is kept below, verbatim, as the
//! oracle. With 0/1 labels the two must grow node-for-node identical trees
//! (equal `Debug` renderings of the roots, which fixes `render()`,
//! `paths()` and `fail_paths()` too) on every space and row mix the tree
//! accepts: ordinal, categorical, and ordinal domains holding `Ord`-equal
//! values (`Int(2)` beside `Float(2.0)`); depth and split-size caps; and a
//! seeded feature sampler (the forest path).
//!
//! Each case also goes through a provenance store: its rows are recorded
//! (label 1 as fail), and `fit_provenance`, which reads the store's key
//! arena, must grow the tree `fit` grows over the store's runs.

use bugdoc_core::{
    Comparator, Domain, DomainKind, EvalResult, Instance, Outcome, ParamDef, ParamId, ParamSpace,
    Predicate, ProvenanceStore, Value,
};
use bugdoc_dtree::{DecisionTree, FeatureSampler, LeafInfo, Node, TreeConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Fits a tree with the pre-histogram split search.
fn oracle_fit(
    space: &ParamSpace,
    rows: &[(Instance, f64)],
    config: &TreeConfig,
    sampler: &mut dyn FeatureSampler,
) -> Node {
    let all_params: Vec<ParamId> = space.ids().collect();
    let idx: Vec<usize> = (0..rows.len()).collect();
    grow(space, rows, &idx, config, sampler, &all_params, 0)
}

// ---- The pre-histogram split search, verbatim. ----

/// Label statistics for an index set.
struct Stats {
    n: usize,
    sum: f64,
    sum_sq: f64,
}

impl Stats {
    fn of(rows: &[(Instance, f64)], idx: &[usize]) -> Self {
        let mut s = Stats {
            n: idx.len(),
            sum: 0.0,
            sum_sq: 0.0,
        };
        for &i in idx {
            let y = rows[i].1;
            s.sum += y;
            s.sum_sq += y * y;
        }
        s
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Sum of squared errors around the mean — the impurity.
    fn sse(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sum_sq - self.sum * self.sum / self.n as f64).max(0.0)
        }
    }
}

fn is_pure(rows: &[(Instance, f64)], idx: &[usize]) -> bool {
    let first = rows[idx[0]].1;
    idx.iter().all(|&i| (rows[i].1 - first).abs() < 1e-12)
}

fn leaf(rows: &[(Instance, f64)], idx: &[usize]) -> Node {
    let stats = Stats::of(rows, idx);
    Node::Leaf(LeafInfo {
        n: stats.n,
        mean: stats.mean(),
        pure: is_pure(rows, idx),
    })
}

fn grow(
    space: &ParamSpace,
    rows: &[(Instance, f64)],
    idx: &[usize],
    config: &TreeConfig,
    sampler: &mut dyn FeatureSampler,
    all_params: &[ParamId],
    depth: usize,
) -> Node {
    if idx.len() < config.min_samples_split
        || is_pure(rows, idx)
        || config.max_depth.is_some_and(|d| depth >= d)
    {
        return leaf(rows, idx);
    }

    let k = config
        .feature_subset
        .unwrap_or(all_params.len())
        .clamp(1, all_params.len());
    let candidates = sampler.sample(all_params, k);

    match best_split(space, rows, idx, &candidates) {
        None => leaf(rows, idx),
        Some(split) => {
            let (yes_idx, no_idx): (Vec<usize>, Vec<usize>) = idx
                .iter()
                .partition(|&&i| split.satisfied_by(&rows[i].0));
            debug_assert!(!yes_idx.is_empty() && !no_idx.is_empty());
            Node::Inner {
                pred: split,
                yes: Box::new(grow(
                    space, rows, &yes_idx, config, sampler, all_params, depth + 1,
                )),
                no: Box::new(grow(
                    space, rows, &no_idx, config, sampler, all_params, depth + 1,
                )),
            }
        }
    }
}

/// Exhaustive split search: for each candidate parameter, enumerate `= v`
/// tests (categorical) or `≤ v` tests (ordinal) over the values observed at
/// this node, and keep the split with the largest SSE reduction. Ties break
/// deterministically by (gain, parameter id, domain index) so identical
/// inputs grow identical trees.
fn best_split(
    space: &ParamSpace,
    rows: &[(Instance, f64)],
    idx: &[usize],
    candidates: &[ParamId],
) -> Option<Predicate> {
    let parent = Stats::of(rows, idx).sse();
    let mut best: Option<(f64, Predicate)> = None;

    for &p in candidates {
        let domain = space.domain(p);
        // Observed value indices at this node, deduplicated via a mask.
        let mut present = vec![false; domain.len()];
        for &i in idx {
            if let Some(vi) = domain.index_of(rows[i].0.get(p)) {
                present[vi] = true;
            }
        }
        let observed: Vec<usize> = (0..domain.len()).filter(|&v| present[v]).collect();
        if observed.len() < 2 {
            continue; // constant at this node: no split possible
        }

        let tests: Vec<Predicate> = match domain.kind() {
            DomainKind::Categorical => observed
                .iter()
                .map(|&v| Predicate::new(p, Comparator::Eq, domain.value(v).clone()))
                .collect(),
            // For ordinal domains, `≤ v` for every observed value except the
            // largest (which would send everything left).
            DomainKind::Ordinal => observed[..observed.len() - 1]
                .iter()
                .map(|&v| Predicate::new(p, Comparator::Le, domain.value(v).clone()))
                .collect(),
        };

        for test in tests {
            let mut yes = Stats {
                n: 0,
                sum: 0.0,
                sum_sq: 0.0,
            };
            let mut no = Stats {
                n: 0,
                sum: 0.0,
                sum_sq: 0.0,
            };
            for &i in idx {
                let y = rows[i].1;
                let side = if test.satisfied_by(&rows[i].0) {
                    &mut yes
                } else {
                    &mut no
                };
                side.n += 1;
                side.sum += y;
                side.sum_sq += y * y;
            }
            if yes.n == 0 || no.n == 0 {
                continue;
            }
            let gain = parent - yes.sse() - no.sse();
            let better = match &best {
                None => true,
                Some((bg, bp)) => {
                    gain > *bg + 1e-12
                        || ((gain - *bg).abs() <= 1e-12
                            && (test.param, &test.value) < (bp.param, &bp.value))
                }
            };
            if better && gain > -1e-12 {
                best = Some((gain, test));
            }
        }
    }

    // A full tree must separate distinguishable rows even when no split
    // reduces SSE (e.g. XOR patterns): accept zero-gain splits as long as the
    // node is impure, otherwise stop.
    match best {
        Some((gain, pred)) => {
            let impure = !is_pure(rows, idx);
            if gain > 1e-12 || impure {
                Some(pred)
            } else {
                None
            }
        }
        None => None,
    }
}

// ---- Case generation. ----

/// Candidate subsets in shuffled (unsorted) order from a seeded RNG.
struct Seeded(StdRng);

impl FeatureSampler for Seeded {
    fn sample(&mut self, all: &[ParamId], k: usize) -> Vec<ParamId> {
        let mut pool = all.to_vec();
        pool.shuffle(&mut self.0);
        pool.truncate(k);
        pool
    }
}

/// One of three domain shapes: ordinal integers with gaps, categorical
/// labels (with an `Int(2)` and a `Float(2.0)` that `Eq` tells apart), or an
/// ordinal domain holding both `Int(2)` and `Float(2.0)`, in either order.
fn random_domain(rng: &mut StdRng) -> Domain {
    match rng.gen_range(0..3) {
        0 => {
            let mut pool: Vec<i64> = (0..10).collect();
            pool.shuffle(rng);
            let n = rng.gen_range(2..=6);
            Domain::ordinal(pool[..n].iter().map(|&v| Value::from(v)))
        }
        1 => {
            let mut values: Vec<Value> = (0..rng.gen_range(2..=5))
                .map(|i| Value::from(format!("c{i}")))
                .collect();
            if rng.gen_bool(0.5) {
                values.push(Value::from(2));
                values.push(Value::float(2.0));
            }
            values.shuffle(rng);
            Domain::categorical(values)
        }
        _ => {
            let mut values = vec![
                Value::from(2),
                Value::float(2.0),
                Value::from(1),
                Value::float(3.5),
                Value::from(5),
            ];
            values.shuffle(rng);
            values.truncate(rng.gen_range(2..=5));
            if !values.contains(&Value::from(2)) {
                values.push(Value::from(2));
            }
            if !values.contains(&Value::float(2.0)) {
                values.push(Value::float(2.0));
            }
            Domain::ordinal(values)
        }
    }
}

/// A training set over `space`: rows drawn by domain index, with 0/1
/// labels, either random or from a planted one-predicate rule.
fn random_rows(space: &ParamSpace, rng: &mut StdRng) -> Vec<(Instance, f64)> {
    let planted = rng.gen_bool(0.5).then(|| {
        let p = ParamId(rng.gen_range(0..space.len()) as u32);
        let domain = space.domain(p);
        let cmp = if domain.kind() == DomainKind::Ordinal {
            Comparator::Le
        } else {
            Comparator::Eq
        };
        Predicate::new(p, cmp, domain.value(rng.gen_range(0..domain.len())).clone())
    });
    (0..rng.gen_range(1..=64))
        .map(|_| {
            let key: Vec<u32> = space
                .ids()
                .map(|p| rng.gen_range(0..space.domain(p).len()) as u32)
                .collect();
            let instance = space.instance_from_indices(&key);
            let fail = match &planted {
                Some(pred) if rng.gen_range(0..8) > 0 => pred.satisfied_by(&instance),
                _ => rng.gen_bool(0.4),
            };
            (instance, if fail { 1.0 } else { 0.0 })
        })
        .collect()
}

/// One generated case: a space of 1–5 parameters, its rows and a config.
fn random_case(seed: u64) -> (ParamSpace, Vec<(Instance, f64)>, TreeConfig, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_params = rng.gen_range(1..=5);
    let space = ParamSpace::new(
        (0..n_params)
            .map(|i| ParamDef::new(format!("p{i}"), random_domain(&mut rng)))
            .collect(),
    );
    let rows = random_rows(&space, &mut rng);
    let config = TreeConfig {
        max_depth: rng.gen_bool(0.3).then(|| rng.gen_range(0..=4)),
        min_samples_split: rng.gen_range(0..=6),
        feature_subset: rng.gen_bool(0.4).then(|| rng.gen_range(1..=n_params)),
    };
    (space, rows, config, rng.gen::<u64>())
}

/// The rows recorded into a store, label 1 as fail; a row whose instance
/// is already recorded is skipped.
fn store_of(space: &ParamSpace, rows: &[(Instance, f64)]) -> ProvenanceStore {
    let mut store = ProvenanceStore::new(Arc::new(space.clone()));
    for (instance, y) in rows {
        if store.outcome_of(instance).is_none() {
            let outcome = Outcome::from_check(*y != 1.0);
            store.record(instance.clone(), EvalResult::of(outcome));
        }
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    /// The histogram search grows the oracle's tree, node for node.
    #[test]
    fn histogram_search_matches_row_by_row_search(seed in any::<u64>()) {
        let (space, rows, config, sampler_seed) = random_case(seed);

        let borrowed: Vec<(&Instance, f64)> = rows.iter().map(|(i, y)| (i, *y)).collect();
        let (tree, expected) = if config.feature_subset.is_some() {
            let tree = DecisionTree::fit_with_sampler(
                &space,
                &borrowed,
                &config,
                &mut Seeded(StdRng::seed_from_u64(sampler_seed)),
            );
            let expected = oracle_fit(
                &space,
                &rows,
                &config,
                &mut Seeded(StdRng::seed_from_u64(sampler_seed)),
            );
            (tree, expected)
        } else {
            let tree = DecisionTree::fit(&space, &borrowed, &config);
            (tree, oracle_fit(&space, &rows, &config, &mut bugdoc_dtree::AllFeatures))
        };
        prop_assert_eq!(
            format!("{:?}", tree.root()),
            format!("{expected:?}"),
            "seed {} grew\n{}",
            seed,
            tree.render(&space)
        );

        let store = store_of(&space, &rows);
        let store_rows: Vec<(Instance, f64)> = store
            .runs()
            .iter()
            .map(|r| {
                let label = if r.outcome().is_fail() { 1.0 } else { 0.0 };
                (r.instance, label)
            })
            .collect();
        let from_store = DecisionTree::fit_provenance(&store, &config);
        prop_assert_eq!(
            format!("{:?}", from_store.root()),
            format!("{:?}", DecisionTree::fit(&space, &store_rows, &config).root()),
            "seed {} grew from the store\n{}",
            seed,
            from_store.render(&space)
        );
    }
}
