//! Group testing for problematic data elements (paper §6, future work).
//!
//! "Second, we would like to explore group testing [33, 38] to identify
//! problematic data elements when a dataset has been identified as a root
//! cause." Once BugDoc pins a *dataset* parameter as the root cause, the
//! next question is *which records inside that dataset* break the pipeline.
//! Re-running the pipeline once per record is linear in the dataset size;
//! adaptive group testing gets to the culprits in `O(d · log n)` runs for
//! `d` defective elements.
//!
//! The implementation is adaptive generalized binary splitting: test the
//! whole pool; while a failing subset exists, bisect it to isolate one
//! culprit, remove the culprit, and repeat on the remainder. It assumes the
//! failure is *monotone* (any superset of a failing set fails — true for
//! "a corrupt record crashes the parser" style bugs, checked optionally),
//! and verifies each isolated culprit individually.

use std::collections::BTreeSet;
use std::fmt;

/// Outcome of running the pipeline on a subset of data elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubsetOutcome {
    /// The pipeline succeeds on this subset.
    Clean,
    /// The pipeline fails on this subset (≥ 1 problematic element present).
    Defective,
}

/// A pipeline that can run on an arbitrary subset of a dataset's elements
/// (identified by index). This is the black-box interface group testing
/// needs; a real system would materialize the subset and execute the
/// original pipeline on it.
pub trait SubsetOracle {
    /// Runs the pipeline on the given subset of element indices.
    fn test(&mut self, subset: &[usize]) -> SubsetOutcome;
}

impl<F> SubsetOracle for F
where
    F: FnMut(&[usize]) -> SubsetOutcome,
{
    fn test(&mut self, subset: &[usize]) -> SubsetOutcome {
        self(subset)
    }
}

/// Configuration for the search.
#[derive(Debug, Clone)]
pub struct GroupTestConfig {
    /// Safety cap on oracle calls (a stuck non-monotone oracle otherwise
    /// loops); generous relative to the `O(d log n)` expectation.
    pub max_tests: usize,
    /// Verify each isolated culprit by testing it alone.
    pub verify_singletons: bool,
}

impl Default for GroupTestConfig {
    fn default() -> Self {
        GroupTestConfig {
            max_tests: 10_000,
            verify_singletons: true,
        }
    }
}

/// The identified problematic elements plus the cost of finding them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupTestReport {
    /// Indices of the problematic elements, ascending.
    pub defective: Vec<usize>,
    /// Oracle calls consumed.
    pub tests_used: usize,
    /// True if the search ended because `max_tests` was hit (results may be
    /// incomplete).
    pub truncated: bool,
}

impl fmt::Display for GroupTestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} defective element(s) in {} tests{}",
            self.defective.len(),
            self.tests_used,
            if self.truncated { " (truncated)" } else { "" }
        )
    }
}

/// Finds every problematic element among `n_elements` by adaptive group
/// testing against the oracle.
///
/// Cost: one test of the full pool, plus `O(log n)` tests per defective
/// element isolated, plus one confirmation test per round of the shrinking
/// remainder; `O(d log n)` overall for `d` defectives — the economics the
/// paper's future-work pointer is after.
pub fn find_defective_elements(
    n_elements: usize,
    oracle: &mut dyn SubsetOracle,
    config: &GroupTestConfig,
) -> GroupTestReport {
    let mut tests_used = 0usize;
    let mut truncated = false;
    let mut defective: BTreeSet<usize> = BTreeSet::new();
    let mut pool: Vec<usize> = (0..n_elements).collect();

    let budget = |used: &mut usize| {
        *used += 1;
        *used <= config.max_tests
    };

    loop {
        if pool.is_empty() {
            break;
        }
        if !budget(&mut tests_used) {
            truncated = true;
            break;
        }
        if oracle.test(&pool) == SubsetOutcome::Clean {
            break; // remainder is clean: all culprits found
        }
        // Bisect down to one culprit inside the failing pool.
        let mut lo = 0usize;
        let mut hi = pool.len();
        // Invariant: pool[lo..hi] contains ≥ 1 defective.
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            // Test the left half *together with everything already ruled
            // in-pool outside [lo..hi)*? No: classic binary splitting tests
            // the left half alone; monotonicity makes that sound.
            if !budget(&mut tests_used) {
                truncated = true;
                break;
            }
            if oracle.test(&pool[lo..mid]) == SubsetOutcome::Defective {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        if truncated {
            break;
        }
        let culprit = pool[lo];
        let confirmed = if !config.verify_singletons {
            true
        } else {
            if !budget(&mut tests_used) {
                truncated = true;
                break;
            }
            oracle.test(&[culprit]) == SubsetOutcome::Defective
        };
        if confirmed {
            defective.insert(culprit);
        }
        // Remove the culprit (confirmed or not — an unconfirmed one means a
        // non-singleton interaction; removing it still makes progress) and
        // continue on the remainder.
        pool.remove(lo);
    }

    GroupTestReport {
        defective: defective.into_iter().collect(),
        tests_used,
        truncated,
    }
}

/// Convenience oracle for "the pipeline fails iff the subset contains any of
/// these elements" — the monotone corrupt-record model. Counts tests.
pub struct CorruptRecordOracle {
    corrupt: BTreeSet<usize>,
    /// Number of oracle invocations so far.
    pub calls: usize,
}

impl CorruptRecordOracle {
    /// Creates an oracle with the given corrupt element indices.
    pub fn new(corrupt: impl IntoIterator<Item = usize>) -> Self {
        CorruptRecordOracle {
            corrupt: corrupt.into_iter().collect(),
            calls: 0,
        }
    }
}

impl SubsetOracle for CorruptRecordOracle {
    fn test(&mut self, subset: &[usize]) -> SubsetOutcome {
        self.calls += 1;
        if subset.iter().any(|i| self.corrupt.contains(i)) {
            SubsetOutcome::Defective
        } else {
            SubsetOutcome::Clean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_corrupt_record_binary_search_cost() {
        let mut oracle = CorruptRecordOracle::new([37]);
        let report = find_defective_elements(100, &mut oracle, &GroupTestConfig::default());
        assert_eq!(report.defective, vec![37]);
        assert!(!report.truncated);
        // ~log2(100) bisection steps + pool tests + verification ≈ ≤ 12.
        assert!(
            report.tests_used <= 12,
            "used {} tests for 1 defective in 100",
            report.tests_used
        );
    }

    #[test]
    fn multiple_corrupt_records() {
        let corrupt = [3usize, 41, 42, 97];
        let mut oracle = CorruptRecordOracle::new(corrupt);
        let report = find_defective_elements(128, &mut oracle, &GroupTestConfig::default());
        assert_eq!(report.defective, vec![3, 41, 42, 97]);
        // O(d log n): 4 · log2(128) = 28 bisection steps plus ~5 pool tests
        // and 4 verifications — comfortably under 50, far under 128.
        assert!(
            report.tests_used < 60,
            "used {} tests — worse than linear scanning economics",
            report.tests_used
        );
    }

    #[test]
    fn clean_dataset_costs_one_test() {
        let mut oracle = CorruptRecordOracle::new([]);
        let report = find_defective_elements(1000, &mut oracle, &GroupTestConfig::default());
        assert!(report.defective.is_empty());
        assert_eq!(report.tests_used, 1);
    }

    #[test]
    fn all_corrupt() {
        let mut oracle = CorruptRecordOracle::new(0..8);
        let report = find_defective_elements(8, &mut oracle, &GroupTestConfig::default());
        assert_eq!(report.defective, (0..8).collect::<Vec<_>>());
        assert!(!report.truncated);
    }

    #[test]
    fn empty_dataset() {
        let mut oracle = CorruptRecordOracle::new([0]);
        let report = find_defective_elements(0, &mut oracle, &GroupTestConfig::default());
        assert!(report.defective.is_empty());
        assert_eq!(report.tests_used, 0);
    }

    #[test]
    fn max_tests_truncates() {
        let mut oracle = CorruptRecordOracle::new([0, 5, 9]);
        let report = find_defective_elements(
            10,
            &mut oracle,
            &GroupTestConfig {
                max_tests: 3,
                verify_singletons: true,
            },
        );
        assert!(report.truncated);
        assert!(report.tests_used <= 4);
    }

    #[test]
    fn closure_oracle_works() {
        let mut calls = 0usize;
        let mut oracle = |subset: &[usize]| {
            calls += 1;
            if subset.contains(&2) {
                SubsetOutcome::Defective
            } else {
                SubsetOutcome::Clean
            }
        };
        let report = find_defective_elements(5, &mut oracle, &GroupTestConfig::default());
        assert_eq!(report.defective, vec![2]);
        assert_eq!(report.tests_used, calls);
    }

    /// Exhaustive sweep: every subset of corrupt elements in a small pool is
    /// recovered exactly.
    #[test]
    fn exhaustive_small_pools() {
        for n in 1usize..=6 {
            for mask in 0u32..(1 << n) {
                let corrupt: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
                let mut oracle = CorruptRecordOracle::new(corrupt.clone());
                let report =
                    find_defective_elements(n, &mut oracle, &GroupTestConfig::default());
                assert_eq!(report.defective, corrupt, "n={n} mask={mask:#b}");
            }
        }
    }

    #[test]
    fn report_display() {
        let r = GroupTestReport {
            defective: vec![1, 2],
            tests_used: 9,
            truncated: false,
        };
        assert_eq!(r.to_string(), "2 defective element(s) in 9 tests");
        let truncated = GroupTestReport {
            truncated: true,
            ..r
        };
        assert_eq!(
            truncated.to_string(),
            "2 defective element(s) in 9 tests (truncated)"
        );
    }
}
