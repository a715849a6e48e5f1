//! Data X-Ray baseline (Wang, Dong, Meliou — SIGMOD 2015), reimplemented as
//! BugDoc's evaluation uses it (paper §5): the *elements* are executed
//! pipeline instances, an element is *corrupt* when its evaluation is `fail`,
//! and the *features* are conjunctions of parameter-equality-value pairs.
//!
//! Data X-Ray derives a **diagnosis**: a set of features that together cover
//! the corrupt elements, minimizing a cost that charges (i) a fixed price per
//! feature, (ii) a price per *correct* element a feature covers (false
//! positives), and (iii) a price per corrupt element left uncovered (false
//! negatives). The search walks the feature hierarchy top-down: at each node
//! it either *takes* the node's feature or *partitions* its coverage along
//! the best parameter and recurses into the children.
//!
//! Behavioural profile reproduced from the paper's experiments: explanations
//! cover essentially all failures (high recall) but are not minimal and
//! cannot express inequality or negation (low precision) — Figures 2–4, 7.

use bugdoc_core::{Conjunction, Instance, ParamId, ParamSpace, Predicate, ProvenanceStore};

/// Cost-model configuration (the paper's α and error-rate trade-offs).
#[derive(Debug, Clone)]
pub struct DataXRayConfig {
    /// Fixed cost per feature in the diagnosis.
    pub fixed_cost: f64,
    /// Cost per correct (succeeding) element covered by a feature.
    pub false_positive_cost: f64,
    /// Cost per corrupt (failing) element not covered by the diagnosis.
    pub false_negative_cost: f64,
    /// Hierarchy depth cap: maximum parameters per feature.
    pub max_feature_size: usize,
}

impl Default for DataXRayConfig {
    fn default() -> Self {
        DataXRayConfig {
            fixed_cost: 1.0,
            false_positive_cost: 2.0,
            false_negative_cost: 4.0,
            max_feature_size: 3,
        }
    }
}

/// Produces a diagnosis for the failing instances in the history.
///
/// Pure analysis: Data X-Ray never proposes new instances (paper §5 — the
/// harness feeds it the instances generated by BugDoc or SMAC).
pub fn explain(prov: &ProvenanceStore, config: &DataXRayConfig) -> Vec<Conjunction> {
    let space = prov.space().clone();
    let elements: Vec<(Instance, bool)> = prov
        .runs()
        .iter()
        .map(|r| {
            let fail = r.outcome().is_fail();
            (r.instance, fail)
        })
        .collect();
    if elements.iter().all(|(_, fail)| !fail) {
        return Vec::new();
    }
    let idx: Vec<usize> = (0..elements.len()).collect();
    let (features, _cost) = diagnose(&space, &elements, &idx, &[], config);
    features
        .into_iter()
        .map(|pairs| {
            Conjunction::new(
                pairs
                    .into_iter()
                    .map(|(p, v)| Predicate::eq(p, v))
                    .collect(),
            )
        })
        .collect()
}

type FeaturePairs = Vec<(ParamId, bugdoc_core::Value)>;

/// Recursive take-or-partition search. Returns the chosen feature set for the
/// elements at this node and its cost.
fn diagnose(
    space: &ParamSpace,
    elements: &[(Instance, bool)],
    idx: &[usize],
    fixed: &[(ParamId, bugdoc_core::Value)],
    config: &DataXRayConfig,
) -> (Vec<FeaturePairs>, f64) {
    let errors = idx.iter().filter(|&&i| elements[i].1).count();
    let correct = idx.len() - errors;

    // No corruption below this feature: the empty diagnosis is free.
    if errors == 0 {
        return (Vec::new(), 0.0);
    }

    // Cost of ignoring these errors entirely.
    let ignore_cost = errors as f64 * config.false_negative_cost;
    // Cost of taking this node's feature as an explanation.
    let take_cost = config.fixed_cost + correct as f64 * config.false_positive_cost;

    let mut best_features = vec![fixed.to_vec()];
    let mut best_cost = take_cost;
    if ignore_cost < best_cost {
        best_features = Vec::new();
        best_cost = ignore_cost;
    }

    // Partition along the best unfixed parameter (only if allowed to grow).
    if fixed.len() < config.max_feature_size {
        for p in space.ids() {
            if fixed.iter().any(|(fp, _)| *fp == p) {
                continue;
            }
            // Group this node's elements by their value of p.
            let mut groups: Vec<(bugdoc_core::Value, Vec<usize>)> = Vec::new();
            for &i in idx {
                let v = elements[i].0.get(p);
                match groups.iter_mut().find(|(gv, _)| gv == v) {
                    Some((_, g)) => g.push(i),
                    None => groups.push((v.clone(), vec![i])),
                }
            }
            if groups.len() < 2 {
                continue; // constant parameter: no partition
            }
            let mut part_cost = 0.0;
            let mut part_features: Vec<FeaturePairs> = Vec::new();
            for (v, group) in &groups {
                let mut child_fixed = fixed.to_vec();
                child_fixed.push((p, v.clone()));
                let (fs, c) = diagnose(space, elements, group, &child_fixed, config);
                part_cost += c;
                part_features.extend(fs);
                if part_cost >= best_cost {
                    break; // prune: already worse than the incumbent
                }
            }
            if part_cost < best_cost {
                best_cost = part_cost;
                best_features = part_features;
            }
        }
    }

    (best_features, best_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{EvalResult, Outcome, ParamSpace, Value};
    use std::sync::Arc;

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("a", [1, 2, 3])
            .ordinal("b", [1, 2, 3])
            .categorical("c", ["x", "y"])
            .build()
    }

    fn full_history(
        s: &Arc<ParamSpace>,
        fail_if: impl Fn(&Instance) -> bool,
    ) -> ProvenanceStore {
        let mut prov = ProvenanceStore::new(s.clone());
        for inst in s.instances() {
            let outcome = Outcome::from_check(!fail_if(&inst));
            prov.record(inst, EvalResult::of(outcome));
        }
        prov
    }

    #[test]
    fn single_value_cause_is_found() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let prov = full_history(&s, |i| i.get(a) == &Value::from(2));
        let diag = explain(&prov, &DataXRayConfig::default());
        assert!(!diag.is_empty());
        // Some feature must pin a = 2 and cover all failures.
        let target = Conjunction::new(vec![Predicate::eq(a, 2)]).canonicalize(&s);
        assert!(
            diag.iter().any(|c| c.canonicalize(&s) == target),
            "diagnosis: {:?}",
            diag.iter().map(|c| c.display(&s).to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn covers_all_failures() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let c = s.by_name("c").unwrap();
        let prov = full_history(&s, |i| {
            i.get(a) == &Value::from(2) || i.get(c) == &Value::from("y")
        });
        let diag = explain(&prov, &DataXRayConfig::default());
        // Every failing instance is covered by some feature (high recall).
        for inst in prov.failing() {
            assert!(
                diag.iter().any(|f| f.satisfied_by(&inst)),
                "uncovered failure {}",
                inst.display(&s)
            );
        }
    }

    #[test]
    fn conjunction_cause_yields_multi_pair_feature() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let b = s.by_name("b").unwrap();
        let prov = full_history(&s, |i| {
            i.get(a) == &Value::from(2) && i.get(b) == &Value::from(3)
        });
        let diag = explain(&prov, &DataXRayConfig::default());
        let target = Conjunction::new(vec![Predicate::eq(a, 2), Predicate::eq(b, 3)])
            .canonicalize(&s);
        assert!(
            diag.iter().any(|f| f.canonicalize(&s) == target),
            "diagnosis: {:?}",
            diag.iter().map(|f| f.display(&s).to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn clean_history_produces_empty_diagnosis() {
        let s = space();
        let prov = full_history(&s, |_| false);
        assert!(explain(&prov, &DataXRayConfig::default()).is_empty());
    }

    #[test]
    fn all_fail_history_takes_root_feature() {
        let s = space();
        let prov = full_history(&s, |_| true);
        let diag = explain(&prov, &DataXRayConfig::default());
        // The whole space is corrupt: the root (empty) feature is cheapest.
        assert_eq!(diag.len(), 1);
        assert!(diag[0].is_empty());
    }

    #[test]
    fn stingy_fn_cost_prefers_ignoring_sparse_noise() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let b = s.by_name("b").unwrap();
        let c = s.by_name("c").unwrap();
        // One isolated failure: with a cheap false-negative cost, ignoring it
        // beats paying for a feature.
        let mut prov = ProvenanceStore::new(s.clone());
        for inst in s.instances() {
            let fail = inst.get(a) == &Value::from(1)
                && inst.get(b) == &Value::from(1)
                && inst.get(c) == &Value::from("x");
            prov.record(inst, EvalResult::of(Outcome::from_check(!fail)));
        }
        let diag = explain(
            &prov,
            &DataXRayConfig {
                false_negative_cost: 0.1,
                ..DataXRayConfig::default()
            },
        );
        assert!(diag.is_empty());
    }

    #[test]
    fn cannot_express_inequality_so_it_overfits() {
        // Ground truth a > 1 over {1,2,3}: Data X-Ray can only return
        // equality features, e.g. {a=2}, {a=3} — characteristic low precision
        // against inequality causes.
        let s = space();
        let a = s.by_name("a").unwrap();
        let prov = full_history(&s, |i| i.get(a) > &Value::from(1));
        let diag = explain(&prov, &DataXRayConfig::default());
        assert!(diag.len() >= 2);
        for f in &diag {
            for pred in f.predicates() {
                assert_eq!(pred.cmp, bugdoc_core::Comparator::Eq);
            }
        }
    }
}
