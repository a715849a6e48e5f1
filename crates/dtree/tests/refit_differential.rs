//! Differential test of `ProvenanceTree::refit` against a fresh fit.
//!
//! Each case is a random store built the way `split_differential` builds
//! its cases (ordinal and categorical parameters, 2-value domains, `Int(2)`
//! beside `Float(2.0)` in ordinal and categorical domains, depth and
//! split-size caps). The tree is fitted once over the store, then the store
//! grows batch by batch and the tree is refitted after every batch. After
//! every refit the tree must equal, node for node (equal `Debug`
//! renderings of the roots), the tree `DecisionTree::fit` grows over the
//! whole store's runs.
//!
//! The batches are an empty one, a single run, runs of the other label
//! inside a pure-fail leaf's region, a batch labelled by a rule on another
//! parameter (large enough to move the root's split), and runs carrying a
//! value a leaf's rows had not shown. The test counts the refits that
//! changed the root's split, turned a pure-fail leaf impure and brought a
//! leaf an unseen value, and requires each to happen.

use bugdoc_core::{
    Comparator, Conjunction, Domain, DomainKind, EvalResult, Instance, Outcome, ParamDef, ParamId,
    ParamSpace, Predicate, ProvenanceStore, Value,
};
use bugdoc_dtree::{DecisionTree, Node, ProvenanceTree, TreeConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const CASES: u64 = 1_000;

/// One of four domain shapes: ordinal integers with gaps, categorical
/// labels (with an `Int(2)` and a `Float(2.0)` that `Eq` tells apart), an
/// ordinal domain holding both `Int(2)` and `Float(2.0)`, or two values.
fn random_domain(rng: &mut StdRng) -> Domain {
    match rng.gen_range(0..4) {
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
        2 => {
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
        _ if rng.gen_bool(0.5) => Domain::ordinal([Value::from(0), Value::from(1)]),
        _ => Domain::categorical([Value::from("off"), Value::from("on")]),
    }
}

/// A one-predicate rule over a random parameter of `space`.
fn random_rule(space: &ParamSpace, rng: &mut StdRng) -> Predicate {
    let p = ParamId(rng.gen_range(0..space.len()) as u32);
    let domain = space.domain(p);
    let cmp = if domain.kind() == DomainKind::Ordinal {
        Comparator::Le
    } else {
        Comparator::Eq
    };
    Predicate::new(p, cmp, domain.value(rng.gen_range(0..domain.len())).clone())
}

fn random_instance(space: &ParamSpace, rng: &mut StdRng) -> Instance {
    let key: Vec<u32> = space
        .ids()
        .map(|p| rng.gen_range(0..space.domain(p).len()) as u32)
        .collect();
    space.instance_from_indices(&key)
}

/// Records `instance` as failing or not, unless the store holds it already;
/// returns whether it was recorded.
fn record(store: &mut ProvenanceStore, instance: Instance, fail: bool) -> bool {
    if store.outcome_of(&instance).is_some() {
        return false;
    }
    store.record(instance, EvalResult::of(Outcome::from_check(!fail)))
}

/// Up to `n` unrecorded instances satisfying `region`, by rejection.
fn region_instances(
    space: &ParamSpace,
    store: &ProvenanceStore,
    region: &Conjunction,
    n: usize,
    rng: &mut StdRng,
) -> Vec<Instance> {
    let mut found: Vec<Instance> = Vec::new();
    for _ in 0..400 {
        if found.len() == n {
            break;
        }
        let instance = random_instance(space, rng);
        if region.satisfied_by(&instance)
            && store.outcome_of(&instance).is_none()
            && !found.contains(&instance)
        {
            found.push(instance);
        }
    }
    found
}

/// The tree `DecisionTree::fit` grows over every run of `store`.
fn fresh_fit(space: &ParamSpace, store: &ProvenanceStore, config: &TreeConfig) -> DecisionTree {
    let rows: Vec<(Instance, f64)> = store
        .runs()
        .iter()
        .map(|r| {
            let label = if r.outcome().is_fail() { 1.0 } else { 0.0 };
            (r.instance, label)
        })
        .collect();
    DecisionTree::fit(space, &rows, config)
}

fn root_pred(tree: &DecisionTree) -> Option<&Predicate> {
    match tree.root() {
        Node::Inner { pred, .. } => Some(pred),
        Node::Leaf(_) => None,
    }
}

/// What the batches of all cases did, beyond keeping the trees equal.
#[derive(Default)]
struct Reached {
    refits: usize,
    root_split_changed: usize,
    pure_fail_leaf_broken: usize,
    unseen_value: usize,
}

/// Appends one batch of kind `kind` to `store`. Returns whether the batch
/// broke a pure-fail leaf and whether it brought a leaf an unseen value.
fn append_batch(
    space: &ParamSpace,
    store: &mut ProvenanceStore,
    tree: &DecisionTree,
    kind: usize,
    rng: &mut StdRng,
) -> (bool, bool) {
    match kind {
        // An empty batch.
        0 => (false, false),
        // A single run.
        1 => {
            let instance = random_instance(space, rng);
            let fail = rng.gen_bool(0.4);
            record(store, instance, fail);
            (false, false)
        }
        // Succeeding runs inside a pure-fail leaf's region.
        2 => {
            let Some(path) = tree.fail_paths().into_iter().next() else {
                return (false, false);
            };
            let n = rng.gen_range(1..=3);
            let mut broke = false;
            for instance in region_instances(space, store, &path.conjunction, n, rng) {
                broke |= record(store, instance, false);
            }
            (broke, false)
        }
        // A batch labelled by a rule on a random parameter, as large as the
        // store: it tends to move the root's split.
        3 => {
            let rule = random_rule(space, rng);
            for _ in 0..store.len().max(4) {
                let instance = random_instance(space, rng);
                let fail = rule.satisfied_by(&instance);
                record(store, instance, fail);
            }
            (false, false)
        }
        // Runs inside a leaf's region with a value its rows had not shown.
        _ => {
            let paths = tree.paths();
            let path = &paths[rng.gen_range(0..paths.len())];
            let mut seen: Vec<Vec<bool>> = space
                .ids()
                .map(|p| vec![false; space.domain(p).len()])
                .collect();
            for run in store.runs().iter() {
                if path.conjunction.satisfied_by(&run.instance) {
                    for (p, &v) in space.ids().zip(run.instance.dense_key()) {
                        seen[p.index()][v as usize] = true;
                    }
                }
            }
            let mut unseen = false;
            for instance in region_instances(space, store, &path.conjunction, 8, rng) {
                let new_value = space
                    .ids()
                    .zip(instance.dense_key())
                    .any(|(p, &v)| !seen[p.index()][v as usize]);
                if new_value {
                    let fail = rng.gen_bool(0.5);
                    unseen |= record(store, instance, fail);
                }
            }
            (false, unseen)
        }
    }
}

/// Runs case `seed`, counting into `reached`; returns a description of the
/// first refit that grew another tree than a fresh fit.
fn run_case(seed: u64, reached: &mut Reached) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_params = rng.gen_range(1..=5);
    let space = Arc::new(ParamSpace::new(
        (0..n_params)
            .map(|i| ParamDef::new(format!("p{i}"), random_domain(&mut rng)))
            .collect(),
    ));
    let config = TreeConfig {
        max_depth: rng.gen_bool(0.3).then(|| rng.gen_range(0..=4)),
        min_samples_split: rng.gen_range(0..=6),
        feature_subset: None,
    };
    let mut store = ProvenanceStore::new(space.clone());
    let rule = random_rule(&space, &mut rng);
    for _ in 0..rng.gen_range(1..=48) {
        let instance = random_instance(&space, &mut rng);
        let fail = if rng.gen_range(0..8) > 0 {
            rule.satisfied_by(&instance)
        } else {
            rng.gen_bool(0.4)
        };
        record(&mut store, instance, fail);
    }
    let mut tree = ProvenanceTree::fit(&store, &config);
    let mut kinds: Vec<usize> = (0..5).chain(0..5).collect();
    kinds.shuffle(&mut rng);
    for kind in kinds {
        let before = tree.tree().clone();
        let (broke, unseen) = append_batch(&space, &mut store, &before, kind, &mut rng);
        tree.refit(&store);
        let want = fresh_fit(&space, &store, &config);
        let (got, expected) = (
            format!("{:?}", tree.tree().root()),
            format!("{:?}", want.root()),
        );
        if got != expected {
            return Err(format!(
                "seed {seed}, batch kind {kind}, {} runs: refit grew\n{}\nwhile a fit grows\n{}",
                store.len(),
                tree.tree().render(&space),
                want.render(&space)
            ));
        }
        reached.refits += 1;
        reached.root_split_changed += usize::from(root_pred(&before) != root_pred(&want));
        reached.pure_fail_leaf_broken += usize::from(broke);
        reached.unseen_value += usize::from(unseen);
    }
    Ok(())
}

#[test]
fn refits_grow_the_tree_a_fresh_fit_grows() {
    let mut reached = Reached::default();
    for seed in 0..CASES {
        if let Err(e) = run_case(seed, &mut reached) {
            panic!("{e}");
        }
    }
    assert_eq!(reached.refits, CASES as usize * 10);
    assert!(
        reached.root_split_changed > 0,
        "no batch moved a root split"
    );
    assert!(
        reached.pure_fail_leaf_broken > 0,
        "no batch broke a pure-fail leaf"
    );
    assert!(
        reached.unseen_value > 0,
        "no batch brought a leaf an unseen value"
    );
}

/// A refit with nothing new leaves the tree as it was, and the tree the
/// fit starts from is `DecisionTree::fit_provenance`'s.
#[test]
fn empty_refit_keeps_the_first_fit() {
    let mut rng = StdRng::seed_from_u64(7);
    let space = Arc::new(ParamSpace::new(vec![
        ParamDef::new("a", Domain::ordinal((0..6).map(Value::from))),
        ParamDef::new("b", Domain::categorical(["x", "y", "z"].map(Value::from))),
    ]));
    let mut store = ProvenanceStore::new(space.clone());
    for _ in 0..30 {
        let instance = random_instance(&space, &mut rng);
        let fail = rng.gen_bool(0.3);
        record(&mut store, instance, fail);
    }
    let config = TreeConfig::default();
    let mut tree = ProvenanceTree::fit(&store, &config);
    let first = format!("{:?}", tree.tree().root());
    assert_eq!(
        first,
        format!("{:?}", DecisionTree::fit_provenance(&store, &config).root())
    );
    tree.refit(&store);
    assert_eq!(format!("{:?}", tree.tree().root()), first);
}
