//! Precision, recall, and F-measure exactly as the paper defines them
//! (§5, "Evaluation Criteria") for the two goals:
//!
//! * **FindOne** — find at least one minimal definitive root cause per
//!   pipeline. Precision = `Σ [A∩R ≠ ∅] / (Σ [A∩R ≠ ∅] + Σ |A − R|)`;
//!   recall = `Σ [A∩R ≠ ∅] / |UCP|`.
//! * **FindAll** — find all minimal definitive root causes.
//!   Precision = `Σ |A∩R| / Σ |A|`; recall = `Σ |A∩R| / Σ |R|`.
//!
//! Asserted causes are matched against the ground truth *semantically*
//! (canonical product-form equality), so `n > 4` and `n = 5` over `{1..5}`
//! count as the same cause.

use bugdoc_core::{CanonicalCause, Conjunction, ParamSpace};
use bugdoc_synth::Truth;

/// Per-pipeline tallies from which both FindOne and FindAll metrics
/// aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineScore {
    /// `|R(CP)|` — actual minimal definitive root causes.
    pub n_actual: usize,
    /// `|A(CP)|` — asserted causes (semantically deduplicated).
    pub n_asserted: usize,
    /// `|A(CP) ∩ R(CP)|` — asserted causes that are actual.
    pub n_correct: usize,
}

impl PipelineScore {
    /// `|A − R|`: asserted causes that are not actual minimal causes.
    pub fn false_positives(&self) -> usize {
        self.n_asserted - self.n_correct
    }

    /// FindOne's indicator `A(CP) ∩ R(CP) ≠ ∅`.
    pub fn found_one(&self) -> bool {
        self.n_correct > 0
    }
}

/// Scores one pipeline's assertions against its ground truth.
pub fn score_assertions(
    space: &ParamSpace,
    truth: &Truth,
    asserted: &[Conjunction],
) -> PipelineScore {
    // Semantic dedup of the assertions.
    let mut canon: Vec<CanonicalCause> = Vec::new();
    for cause in asserted {
        let c = cause.canonicalize(space);
        if c.is_unsatisfiable(space) {
            continue; // vacuous assertions explain nothing
        }
        if !canon.contains(&c) {
            canon.push(c);
        }
    }
    let n_correct = canon
        .iter()
        .filter(|c| truth.minimal_causes().contains(c))
        .count();
    PipelineScore {
        n_actual: truth.len(),
        n_asserted: canon.len(),
        n_correct,
    }
}

/// Precision / recall / F-measure triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Precision in [0, 1]; 0.0 when nothing was asserted, so a run that
    /// asserts nothing earns no precision.
    pub precision: f64,
    /// Recall in [0, 1].
    pub recall: f64,
    /// Harmonic mean of precision and recall (0 when both are 0).
    pub f_measure: f64,
}

impl Metrics {
    fn from_pr(precision: f64, recall: f64) -> Metrics {
        let f_measure = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        Metrics {
            precision,
            recall,
            f_measure,
        }
    }
}

/// Aggregates FindOne metrics over a set of pipelines `UCP`.
pub fn find_one_metrics(scores: &[PipelineScore]) -> Metrics {
    let found: usize = scores.iter().filter(|s| s.found_one()).count();
    let false_pos: usize = scores.iter().map(|s| s.false_positives()).sum();
    let precision = if found + false_pos > 0 {
        found as f64 / (found + false_pos) as f64
    } else {
        0.0
    };
    let recall = if scores.is_empty() {
        0.0
    } else {
        found as f64 / scores.len() as f64
    };
    Metrics::from_pr(precision, recall)
}

/// Aggregates FindAll metrics over a set of pipelines `UCP`.
pub fn find_all_metrics(scores: &[PipelineScore]) -> Metrics {
    let correct: usize = scores.iter().map(|s| s.n_correct).sum();
    let asserted: usize = scores.iter().map(|s| s.n_asserted).sum();
    let actual: usize = scores.iter().map(|s| s.n_actual).sum();
    let precision = if asserted > 0 {
        correct as f64 / asserted as f64
    } else {
        0.0
    };
    let recall = if actual > 0 {
        correct as f64 / actual as f64
    } else {
        0.0
    };
    Metrics::from_pr(precision, recall)
}

/// Conciseness measures for Figure 4.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Conciseness {
    /// (a) Average number of parameters per asserted root cause.
    pub params_per_cause: f64,
    /// (b) Average `log10(|A| / |R|)` over pipelines that asserted anything.
    pub log_asserted_per_actual: f64,
}

/// Computes Figure-4 conciseness over per-pipeline assertion sets.
/// `per_pipeline` pairs each pipeline's asserted causes with its `|R|`.
pub fn conciseness(
    space: &ParamSpace,
    per_pipeline: &[(Vec<Conjunction>, usize)],
) -> Conciseness {
    let mut param_counts: Vec<usize> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    for (asserted, n_actual) in per_pipeline {
        for cause in asserted {
            // Count distinct *parameters*, not raw predicates (a range
            // `> lo ∧ ≤ hi` constrains one parameter).
            let canon = cause.canonicalize(space);
            param_counts.push(canon.constrained(space).count());
        }
        if !asserted.is_empty() && *n_actual > 0 {
            ratios.push((asserted.len() as f64 / *n_actual as f64).log10());
        }
    }
    Conciseness {
        params_per_cause: mean(&param_counts.iter().map(|&c| c as f64).collect::<Vec<_>>()),
        log_asserted_per_actual: mean(&ratios),
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{Comparator, Dnf, Predicate};
    use std::sync::Arc;

    fn setup() -> (Arc<ParamSpace>, Truth) {
        let space = ParamSpace::builder()
            .ordinal("n", [1, 2, 3, 4, 5])
            .categorical("color", ["red", "green", "blue"])
            .build();
        let n = space.by_name("n").unwrap();
        let color = space.by_name("color").unwrap();
        let truth = Truth::new(
            &space,
            Dnf::new(vec![
                Conjunction::new(vec![Predicate::eq(n, 5)]),
                Conjunction::new(vec![Predicate::eq(color, "red")]),
            ]),
        );
        (space, truth)
    }

    #[test]
    fn semantic_matching_counts_rewrites() {
        let (space, truth) = setup();
        let n = space.by_name("n").unwrap();
        // n > 4 ≡ n = 5 over {1..5}.
        let asserted = vec![Conjunction::new(vec![Predicate::new(n, Comparator::Gt, 4)])];
        let score = score_assertions(&space, &truth, &asserted);
        assert_eq!(score.n_correct, 1);
        assert_eq!(score.n_asserted, 1);
        assert_eq!(score.n_actual, 2);
        assert!(score.found_one());
    }

    #[test]
    fn duplicates_and_unsat_are_dropped() {
        let (space, truth) = setup();
        let n = space.by_name("n").unwrap();
        let asserted = vec![
            Conjunction::new(vec![Predicate::eq(n, 5)]),
            Conjunction::new(vec![Predicate::new(n, Comparator::Gt, 4)]), // duplicate
            Conjunction::new(vec![
                Predicate::new(n, Comparator::Le, 1),
                Predicate::new(n, Comparator::Gt, 2), // unsatisfiable
            ]),
        ];
        let score = score_assertions(&space, &truth, &asserted);
        assert_eq!(score.n_asserted, 1);
        assert_eq!(score.n_correct, 1);
    }

    #[test]
    fn find_one_formulas() {
        // Three pipelines: found-with-1-fp, found-clean, missed-with-2-fp.
        let scores = [
            PipelineScore { n_actual: 1, n_asserted: 2, n_correct: 1 },
            PipelineScore { n_actual: 2, n_asserted: 1, n_correct: 1 },
            PipelineScore { n_actual: 1, n_asserted: 2, n_correct: 0 },
        ];
        let m = find_one_metrics(&scores);
        // found = 2, false positives = 1 + 0 + 2 = 3.
        assert!((m.precision - 2.0 / 5.0).abs() < 1e-12);
        assert!((m.recall - 2.0 / 3.0).abs() < 1e-12);
        let expect_f = 2.0 * m.precision * m.recall / (m.precision + m.recall);
        assert!((m.f_measure - expect_f).abs() < 1e-12);
    }

    #[test]
    fn find_all_formulas() {
        let scores = [
            PipelineScore { n_actual: 2, n_asserted: 2, n_correct: 2 },
            PipelineScore { n_actual: 3, n_asserted: 4, n_correct: 1 },
        ];
        let m = find_all_metrics(&scores);
        assert!((m.precision - 3.0 / 6.0).abs() < 1e-12);
        assert!((m.recall - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_aggregates() {
        assert_eq!(find_one_metrics(&[]).recall, 0.0);
        let nothing = [PipelineScore::default()];
        assert_eq!(find_one_metrics(&nothing).precision, 0.0);
        assert_eq!(find_all_metrics(&nothing).f_measure, 0.0);
    }

    #[test]
    fn conciseness_counts_parameters_not_predicates() {
        let (space, _) = setup();
        let n = space.by_name("n").unwrap();
        let color = space.by_name("color").unwrap();
        // A range on one parameter = 1 parameter; plus a color pin = 2.
        let range = Conjunction::new(vec![
            Predicate::new(n, Comparator::Gt, 1),
            Predicate::new(n, Comparator::Le, 3),
        ]);
        let two = Conjunction::new(vec![Predicate::eq(n, 5), Predicate::eq(color, "red")]);
        let c = conciseness(&space, &[(vec![range, two], 1)]);
        assert!((c.params_per_cause - 1.5).abs() < 1e-12);
        // 2 asserted / 1 actual -> log10(2).
        assert!((c.log_asserted_per_actual - 2.0f64.log10()).abs() < 1e-12);
    }

    #[test]
    fn conciseness_skips_empty_assertions() {
        let (space, _) = setup();
        let c = conciseness(&space, &[(vec![], 2)]);
        assert_eq!(c.params_per_cause, 0.0);
        assert_eq!(c.log_asserted_per_actual, 0.0);
    }
}
