//! Property tests for the decision-tree substrate: a *complete* (unpruned)
//! tree must memorize any consistent training set, its paths must partition
//! the space, and pure-fail paths must cover exactly the failing rows.

use bugdoc_core::{Conjunction, Instance, ParamSpace, Value};
use bugdoc_dtree::{DecisionTree, TreeConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn space(shape: &[(usize, bool)]) -> Arc<ParamSpace> {
    let mut builder = ParamSpace::builder();
    for (i, (n, ordinal)) in shape.iter().enumerate() {
        if *ordinal {
            builder = builder.ordinal(format!("p{i}"), (0..*n as i64).collect::<Vec<_>>());
        } else {
            builder = builder.categorical(
                format!("p{i}"),
                (0..*n).map(|v| format!("v{v}")).collect::<Vec<_>>(),
            );
        }
    }
    builder.build()
}

fn arb_shape() -> impl Strategy<Value = Vec<(usize, bool)>> {
    proptest::collection::vec((2usize..=4, any::<bool>()), 2..=3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A full tree memorizes any deterministic labeling of distinct rows.
    #[test]
    fn full_tree_memorizes_training_data(
        shape in arb_shape(),
        label_bits in any::<u64>(),
    ) {
        let space = space(&shape);
        let rows: Vec<(Instance, f64)> = space
            .instances()
            .enumerate()
            .map(|(i, inst)| (inst, if label_bits >> (i % 64) & 1 == 1 { 1.0 } else { 0.0 }))
            .collect();
        let tree = DecisionTree::fit(&space, &rows, &TreeConfig::default());
        for (inst, y) in &rows {
            prop_assert_eq!(tree.predict(inst), *y, "row {}", inst.display(&space));
        }
    }

    /// Tree paths partition the space: every instance matches exactly one
    /// root-to-leaf conjunction, and leaf sizes sum to the training size.
    #[test]
    fn paths_partition_space(
        shape in arb_shape(),
        label_bits in any::<u64>(),
    ) {
        let space = space(&shape);
        let rows: Vec<(Instance, f64)> = space
            .instances()
            .enumerate()
            .map(|(i, inst)| (inst, if label_bits >> (i % 64) & 1 == 1 { 1.0 } else { 0.0 }))
            .collect();
        let tree = DecisionTree::fit(&space, &rows, &TreeConfig::default());
        let paths = tree.paths();
        for inst in space.instances() {
            let matching = paths
                .iter()
                .filter(|p| p.conjunction.satisfied_by(&inst))
                .count();
            prop_assert_eq!(matching, 1);
        }
        let total: usize = paths.iter().map(|p| p.leaf.n).sum();
        prop_assert_eq!(total, rows.len());
    }

    /// Pure-fail paths cover exactly the failing training rows and none of
    /// the succeeding ones.
    #[test]
    fn fail_paths_cover_failures_exactly(
        shape in arb_shape(),
        label_bits in any::<u64>(),
    ) {
        let space = space(&shape);
        let rows: Vec<(Instance, f64)> = space
            .instances()
            .enumerate()
            .map(|(i, inst)| (inst, if label_bits >> (i % 64) & 1 == 1 { 1.0 } else { 0.0 }))
            .collect();
        let tree = DecisionTree::fit(&space, &rows, &TreeConfig::default());
        let fail_paths: Vec<Conjunction> = tree
            .fail_paths()
            .into_iter()
            .map(|p| p.conjunction)
            .collect();
        for (inst, y) in &rows {
            let covered = fail_paths.iter().any(|c| c.satisfied_by(inst));
            prop_assert_eq!(covered, *y == 1.0, "row {}", inst.display(&space));
        }
        // Suspects come sorted by length (shortest-first).
        let lens: Vec<usize> = tree.fail_paths().iter().map(|p| p.conjunction.len()).collect();
        prop_assert!(lens.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Depth caps are honored and capped trees still predict within [0, 1]
    /// for binary labels.
    #[test]
    fn depth_cap_honored(
        shape in arb_shape(),
        label_bits in any::<u64>(),
        depth in 0usize..=2,
    ) {
        let space = space(&shape);
        let rows: Vec<(Instance, f64)> = space
            .instances()
            .enumerate()
            .map(|(i, inst)| (inst, if label_bits >> (i % 64) & 1 == 1 { 1.0 } else { 0.0 }))
            .collect();
        let tree = DecisionTree::fit(
            &space,
            &rows,
            &TreeConfig {
                max_depth: Some(depth),
                ..TreeConfig::default()
            },
        );
        prop_assert!(tree.depth() <= depth);
        for (inst, _) in &rows {
            let p = tree.predict(inst);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}

/// Duplicate rows with consistent labels are fine; the tree still memorizes.
#[test]
fn duplicate_rows_consistent() {
    let space = space(&[(3, true), (3, false)]);
    let inst = Instance::from_pairs(&space, [("p0", Value::from(1)), ("p1", Value::from("v0"))]);
    let rows = vec![(inst.clone(), 1.0), (inst.clone(), 1.0), (inst.clone(), 1.0)];
    let tree = DecisionTree::fit(&space, &rows, &TreeConfig::default());
    assert_eq!(tree.predict(&inst), 1.0);
    assert_eq!(tree.n_leaves(), 1);
}
