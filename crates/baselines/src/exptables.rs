//! Explanation Tables baseline (El Gebaly, Agrawal, Golab, Korn, Srivastava —
//! VLDB 2014), reimplemented as BugDoc's evaluation uses it (paper §5).
//!
//! Input: a relation whose rows are executed instances (categorical
//! attributes = parameters) with one binary outcome column (`fail`). Output:
//! an *explanation table* — an ordered list of patterns (conjunctions of
//! attribute-equality-value pairs, `*` elsewhere), each annotated with the
//! empirical outcome rate of the rows it matches. Patterns are chosen
//! greedily to maximize the information gain of a maximum-entropy estimate
//! of the outcome; candidates come from the sample-based *Flashlight*
//! strategy (LCA patterns of sampled row pairs).
//!
//! As the BugDoc paper observes (§5.1), "the answers provided by Explanation
//! Tables represent a prediction of the pipeline instance evaluation result
//! expressed as a real number, where 1.0 corresponds to a root cause": the
//! adapter below asserts as root causes the patterns whose fail rate is 1.0.
//! The resulting profile — high precision, low recall, no inequality or
//! negation support — is what Figures 2–4 and 7 report.

use bugdoc_core::{Conjunction, Instance, ParamId, ParamSpace, Predicate, ProvenanceStore, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration for the greedy pattern search.
#[derive(Debug, Clone)]
pub struct ExpTablesConfig {
    /// Number of patterns in the table (beyond the catch-all root pattern).
    pub max_patterns: usize,
    /// Sample size for Flashlight candidate generation.
    pub sample_size: usize,
    /// Stop early when the best candidate's gain drops below this.
    pub min_gain: f64,
    /// RNG seed for sampling.
    pub seed: u64,
}

impl Default for ExpTablesConfig {
    fn default() -> Self {
        ExpTablesConfig {
            max_patterns: 10,
            sample_size: 16,
            min_gain: 1e-6,
            seed: 0,
        }
    }
}

/// A pattern row of the explanation table: equality pairs plus the empirical
/// fail rate and support over the analyzed history.
#[derive(Debug, Clone)]
pub struct Pattern {
    /// The attribute-value pairs (wildcard on every other parameter).
    pub pairs: Vec<(ParamId, Value)>,
    /// Fraction of matching rows that fail.
    pub fail_rate: f64,
    /// Number of matching rows.
    pub support: usize,
}

impl Pattern {
    /// True if the instance matches (equality on every pair).
    pub fn matches(&self, instance: &Instance) -> bool {
        self.pairs.iter().all(|(p, v)| instance.get(*p) == v)
    }

    /// The pattern as a conjunction of equality predicates.
    pub fn to_conjunction(&self) -> Conjunction {
        Conjunction::new(
            self.pairs
                .iter()
                .map(|(p, v)| Predicate::eq(*p, v.clone()))
                .collect(),
        )
    }
}

/// The fitted explanation table.
#[derive(Debug, Clone)]
pub struct ExplanationTable {
    /// Patterns in greedy selection order (most informative first).
    pub patterns: Vec<Pattern>,
    /// Overall fail rate (the catch-all `*` pattern's rate).
    pub base_rate: f64,
}

impl ExplanationTable {
    /// Estimated fail probability of an instance: the rate of the most
    /// specific matching pattern (ties to the latest added), falling back to
    /// the base rate.
    pub fn estimate(&self, instance: &Instance) -> f64 {
        self.patterns
            .iter()
            .filter(|p| p.matches(instance))
            .max_by_key(|p| p.pairs.len())
            .map(|p| p.fail_rate)
            .unwrap_or(self.base_rate)
    }
}

/// Fits an explanation table on the history.
pub fn fit(prov: &ProvenanceStore, config: &ExpTablesConfig) -> ExplanationTable {
    let rows: Vec<(Instance, f64)> = prov
        .runs()
        .iter()
        .map(|r| {
            let label = if r.outcome().is_fail() { 1.0 } else { 0.0 };
            (r.instance, label)
        })
        .collect();
    let n = rows.len();
    if n == 0 {
        return ExplanationTable {
            patterns: Vec::new(),
            base_rate: 0.0,
        };
    }
    let base_rate = rows.iter().map(|(_, y)| *y).sum::<f64>() / n as f64;

    let mut rng = StdRng::seed_from_u64(config.seed);
    // Current per-row estimates (start at the base rate).
    let mut estimates = vec![base_rate; n];
    let mut patterns: Vec<Pattern> = Vec::new();

    for _ in 0..config.max_patterns {
        let candidates = flashlight_candidates(prov.space(), &rows, config.sample_size, &mut rng);
        let mut best: Option<(f64, Pattern)> = None;
        for pairs in candidates {
            let matched: Vec<usize> = (0..n)
                .filter(|&i| pairs.iter().all(|(p, v)| rows[i].0.get(*p) == v))
                .collect();
            if matched.is_empty() {
                continue;
            }
            let rate =
                matched.iter().map(|&i| rows[i].1).sum::<f64>() / matched.len() as f64;
            // Information gain: KL reduction over the matched rows when their
            // estimate moves to the pattern's rate.
            let gain: f64 = matched
                .iter()
                .map(|&i| kl(rows[i].1, estimates[i]) - kl(rows[i].1, rate))
                .sum();
            if best.as_ref().map(|(g, _)| gain > *g).unwrap_or(true) {
                best = Some((
                    gain,
                    Pattern {
                        pairs,
                        fail_rate: rate,
                        support: matched.len(),
                    },
                ));
            }
        }
        let Some((gain, pattern)) = best else { break };
        if gain < config.min_gain {
            break;
        }
        // Update estimates under decision-list semantics.
        for (i, (inst, _)) in rows.iter().enumerate() {
            if pattern.matches(inst) {
                estimates[i] = pattern.fail_rate;
            }
        }
        patterns.push(pattern);
    }

    ExplanationTable {
        patterns,
        base_rate,
    }
}

/// Asserted root causes: patterns that predict failure with certainty
/// (empirical rate 1.0) and nonzero support.
pub fn explain(prov: &ProvenanceStore, config: &ExpTablesConfig) -> Vec<Conjunction> {
    fit(prov, config)
        .patterns
        .iter()
        .filter(|p| p.fail_rate >= 1.0 - 1e-12 && p.support > 0 && !p.pairs.is_empty())
        .map(Pattern::to_conjunction)
        .collect()
}

/// Binary KL divergence contribution of a row with label `y` under estimate
/// `p` (clamped away from 0/1).
fn kl(y: f64, p: f64) -> f64 {
    let p = p.clamp(1e-9, 1.0 - 1e-9);
    let mut total = 0.0;
    if y > 0.0 {
        total += y * (y / p).ln();
    }
    if y < 1.0 {
        total += (1.0 - y) * ((1.0 - y) / (1.0 - p)).ln();
    }
    total
}

/// Flashlight candidate generation: LCA patterns of sampled row pairs plus
/// every single-attribute pattern of sampled rows.
fn flashlight_candidates(
    space: &ParamSpace,
    rows: &[(Instance, f64)],
    sample_size: usize,
    rng: &mut StdRng,
) -> Vec<Vec<(ParamId, Value)>> {
    let mut idx: Vec<usize> = (0..rows.len()).collect();
    idx.shuffle(rng);
    idx.truncate(sample_size.max(2).min(rows.len()));

    let mut out: Vec<Vec<(ParamId, Value)>> = Vec::new();
    let mut push_unique = |pairs: Vec<(ParamId, Value)>| {
        if !pairs.is_empty() && !out.contains(&pairs) {
            out.push(pairs);
        }
    };

    // Single-attribute patterns from sampled rows.
    for &i in &idx {
        for p in space.ids() {
            push_unique(vec![(p, rows[i].0.get(p).clone())]);
        }
    }
    // LCA patterns of sampled pairs (shared attribute values).
    for (a, &i) in idx.iter().enumerate() {
        for &j in idx.iter().skip(a + 1) {
            let lca: Vec<(ParamId, Value)> = space
                .ids()
                .filter(|&p| rows[i].0.get(p) == rows[j].0.get(p))
                .map(|p| (p, rows[i].0.get(p).clone()))
                .collect();
            push_unique(lca);
        }
    }
    // Fully specified sampled rows (deepest patterns).
    for &i in &idx {
        let full: Vec<(ParamId, Value)> = space
            .ids()
            .map(|p| (p, rows[i].0.get(p).clone()))
            .collect();
        push_unique(full);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{EvalResult, Outcome, ParamSpace};
    use std::sync::Arc;

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("a", [1, 2, 3])
            .ordinal("b", [1, 2, 3])
            .categorical("c", ["x", "y"])
            .build()
    }

    fn full_history(s: &Arc<ParamSpace>, fail_if: impl Fn(&Instance) -> bool) -> ProvenanceStore {
        let mut prov = ProvenanceStore::new(s.clone());
        for inst in s.instances() {
            let outcome = Outcome::from_check(!fail_if(&inst));
            prov.record(inst, EvalResult::of(outcome));
        }
        prov
    }

    #[test]
    fn finds_pure_fail_pattern() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let prov = full_history(&s, |i| i.get(a) == &Value::from(2));
        let causes = explain(&prov, &ExpTablesConfig::default());
        let target = Conjunction::new(vec![Predicate::eq(a, 2)]).canonicalize(&s);
        assert!(
            causes.iter().any(|c| c.canonicalize(&s) == target),
            "causes: {:?}",
            causes.iter().map(|c| c.display(&s).to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn asserted_patterns_are_pure_on_history() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let b = s.by_name("b").unwrap();
        let prov = full_history(&s, |i| {
            i.get(a) == &Value::from(2) && i.get(b) == &Value::from(3)
        });
        let causes = explain(&prov, &ExpTablesConfig::default());
        // High precision: every asserted cause must have no succeeding
        // superset in the data.
        for c in &causes {
            assert!(
                !prov.succeeding_superset_exists(&c.canonicalize(&s)),
                "{}",
                c.display(&s)
            );
        }
    }

    #[test]
    fn estimate_uses_most_specific_pattern() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let prov = full_history(&s, |i| i.get(a) == &Value::from(2));
        let table = fit(&prov, &ExpTablesConfig::default());
        // The table should at least calibrate a=2 rows toward 1.0 and others
        // toward 0.0.
        let failing = Instance::from_pairs(&s, [("a", 2.into()), ("b", 1.into()), ("c", "x".into())]);
        let passing = Instance::from_pairs(&s, [("a", 1.into()), ("b", 1.into()), ("c", "x".into())]);
        assert!(table.estimate(&failing) > 0.9);
        assert!(table.estimate(&passing) < 0.5);
    }

    #[test]
    fn clean_history_asserts_nothing() {
        let s = space();
        let prov = full_history(&s, |_| false);
        assert!(explain(&prov, &ExpTablesConfig::default()).is_empty());
        let table = fit(&prov, &ExpTablesConfig::default());
        assert_eq!(table.base_rate, 0.0);
    }

    #[test]
    fn empty_history_is_handled() {
        let s = space();
        let prov = ProvenanceStore::new(s.clone());
        let table = fit(&prov, &ExpTablesConfig::default());
        assert!(table.patterns.is_empty());
        assert!(explain(&prov, &ExpTablesConfig::default()).is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let prov = full_history(&s, |i| i.get(a) == &Value::from(2));
        let c1 = explain(&prov, &ExpTablesConfig::default());
        let c2 = explain(&prov, &ExpTablesConfig::default());
        assert_eq!(c1.len(), c2.len());
    }

    #[test]
    fn kl_properties() {
        assert_eq!(kl(1.0, 1.0 - 1e-9), kl(1.0, 1.0 - 1e-9));
        assert!(kl(1.0, 0.1) > kl(1.0, 0.9));
        assert!(kl(0.0, 0.9) > kl(0.0, 0.1));
        assert!(kl(1.0, 0.5) > 0.0);
    }

    #[test]
    fn no_inequality_support_limits_recall() {
        // Ground truth a > 1: the table can only assert equality patterns, so
        // it needs one pattern per failing value — with a tight pattern
        // budget it misses some (the paper's low-recall profile).
        let s = space();
        let a = s.by_name("a").unwrap();
        let prov = full_history(&s, |i| i.get(a) > &Value::from(1));
        let causes = explain(
            &prov,
            &ExpTablesConfig {
                max_patterns: 1,
                ..Default::default()
            },
        );
        assert!(causes.len() <= 1);
    }
}
