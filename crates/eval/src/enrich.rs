//! Explanation enrichment with observed variables (paper §6, future work).
//!
//! "Another potential direction is the inclusion of observed variables (or
//! predicates), properties that cannot be manipulated. While these cannot be
//! used for deriving new instances, they can help enrich the explanations."
//!
//! Observed variables are measurements a run *produces* rather than
//! parameters a debugger can set: peak memory, rows ingested, a warning
//! flag. This module takes the observations recorded alongside executed
//! instances and, for each asserted root cause, reports the observed
//! variables that are (a) constant across the failing runs the cause covers
//! and (b) rare among succeeding runs — e.g. "whenever
//! `permutations > 800 ∧ method = mc_permutation` fires, `oom_killed` was
//! observed `true`", which tells the human debugger *what the failure looks
//! like from inside*, not just which knobs trigger it.

use bugdoc_core::{Conjunction, Instance, Outcome, ParamSpace, ProvenanceStore, Value};
use std::collections::HashMap;
use std::fmt;

/// Observations recorded per executed instance: a fixed set of named
/// variables, one value vector per instance.
#[derive(Debug, Clone, Default)]
pub struct ObservationTable {
    names: Vec<String>,
    rows: HashMap<Instance, Vec<Value>>,
}

impl ObservationTable {
    /// Creates a table with the given observed-variable names.
    pub fn new(names: impl IntoIterator<Item = impl Into<String>>) -> Self {
        ObservationTable {
            names: names.into_iter().map(Into::into).collect(),
            rows: HashMap::new(),
        }
    }

    /// The observed-variable names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Records the observations of one executed instance (one value per
    /// variable, in name order).
    pub fn record(&mut self, instance: Instance, values: Vec<Value>) {
        assert_eq!(
            values.len(),
            self.names.len(),
            "one observation per variable"
        );
        self.rows.insert(instance, values);
    }

    /// The observations of an instance, if recorded.
    pub fn get(&self, instance: &Instance) -> Option<&[Value]> {
        self.rows.get(instance).map(|v| v.as_slice())
    }

    /// Number of instances with observations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// One observed-variable correlate of a root cause.
#[derive(Debug, Clone, PartialEq)]
pub struct Correlate {
    /// The observed variable's name.
    pub variable: String,
    /// Its (constant) value across the failing runs the cause covers.
    pub value: Value,
    /// Fraction of *succeeding* runs showing the same value (low = the
    /// observation is genuinely failure-specific).
    pub background_rate: f64,
    /// Failing runs supporting the correlate.
    pub support: usize,
}

impl fmt::Display for Correlate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {} (in {} failing runs; background rate {:.0}%)",
            self.variable,
            self.value,
            self.support,
            self.background_rate * 100.0
        )
    }
}

/// An asserted cause plus its observed-variable correlates.
#[derive(Debug, Clone)]
pub struct EnrichedExplanation {
    /// The asserted root cause.
    pub cause: Conjunction,
    /// Correlated observations, strongest (lowest background rate) first.
    pub correlates: Vec<Correlate>,
}

impl EnrichedExplanation {
    /// Renders cause and correlates with parameter names.
    pub fn render(&self, space: &ParamSpace) -> String {
        let mut out = format!("{}", self.cause.display(space));
        for c in &self.correlates {
            out.push_str(&format!("\n    observed: {c}"));
        }
        out
    }
}

/// Enrichment configuration.
#[derive(Debug, Clone)]
pub struct EnrichConfig {
    /// Maximum background rate for a correlate to be reported.
    pub max_background_rate: f64,
    /// Minimum failing runs supporting a correlate.
    pub min_support: usize,
}

impl Default for EnrichConfig {
    fn default() -> Self {
        EnrichConfig {
            max_background_rate: 0.2,
            min_support: 2,
        }
    }
}

/// Enriches each asserted cause with the observed variables that are
/// constant over the failing runs it covers and rare among succeeding runs.
pub fn enrich_explanations(
    prov: &ProvenanceStore,
    observations: &ObservationTable,
    causes: &[Conjunction],
    config: &EnrichConfig,
) -> Vec<EnrichedExplanation> {
    // Pre-split runs with observations by outcome.
    let mut failing: Vec<(Instance, &[Value])> = Vec::new();
    let mut succeeding: Vec<&[Value]> = Vec::new();
    for run in prov.runs() {
        if let Some(obs) = observations.get(&run.instance) {
            match run.outcome() {
                Outcome::Fail => failing.push((run.instance, obs)),
                Outcome::Succeed => succeeding.push(obs),
            }
        }
    }

    causes
        .iter()
        .map(|cause| {
            let covered: Vec<&[Value]> = failing
                .iter()
                .filter(|(inst, _)| cause.satisfied_by(inst))
                .map(|(_, obs)| *obs)
                .collect();
            let mut correlates: Vec<Correlate> = Vec::new();
            if covered.len() >= config.min_support {
                for (vi, name) in observations.names().iter().enumerate() {
                    let first = &covered[0][vi];
                    if !covered.iter().all(|obs| &obs[vi] == first) {
                        continue; // not constant across the cause's failures
                    }
                    let background = if succeeding.is_empty() {
                        0.0
                    } else {
                        succeeding.iter().filter(|obs| &obs[vi] == first).count() as f64
                            / succeeding.len() as f64
                    };
                    if background <= config.max_background_rate {
                        correlates.push(Correlate {
                            variable: name.clone(),
                            value: first.clone(),
                            background_rate: background,
                            support: covered.len(),
                        });
                    }
                }
            }
            correlates.sort_by(|a, b| {
                a.background_rate
                    .partial_cmp(&b.background_rate)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            EnrichedExplanation {
                cause: cause.clone(),
                correlates,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{EvalResult, ParamSpace, Predicate};
    use std::sync::Arc;

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("perms", [100, 400, 1600])
            .categorical("method", ["mc", "bonferroni"])
            .build()
    }

    fn inst(s: &ParamSpace, perms: i64, method: &str) -> Instance {
        Instance::from_pairs(s, [("perms", perms.into()), ("method", method.into())])
    }

    /// The Data-Polygamy-flavoured setup: the OOM cause correlates with the
    /// `oom_killed` observation, never with `warnings`.
    fn setup(s: &Arc<ParamSpace>) -> (ProvenanceStore, ObservationTable, Conjunction) {
        let mut prov = ProvenanceStore::new(s.clone());
        let mut obs = ObservationTable::new(["oom_killed", "warnings"]);
        let record = |prov: &mut ProvenanceStore,
                      obs: &mut ObservationTable,
                      i: Instance,
                      fail: bool,
                      oom: bool,
                      warn: i64| {
            prov.record(i.clone(), EvalResult::of(Outcome::from_check(!fail)));
            obs.record(i, vec![Value::from(oom), Value::from(warn)]);
        };
        // Failing runs of the cause: always oom_killed, varying warnings.
        record(&mut prov, &mut obs, inst(s, 1600, "mc"), true, true, 3);
        let i2 = inst(s, 1600, "mc").with(s, s.by_name("perms").unwrap(), 1600.into());
        let _ = i2; // same instance; use a different satisfying one below
        // (the cause is perms=1600 ∧ method=mc; only one satisfying instance
        // exists in this tiny space, so add a second cause-region run via a
        // wider cause)
        let cause = Conjunction::new(vec![Predicate::eq(s.by_name("perms").unwrap(), 1600)]);
        record(&mut prov, &mut obs, inst(s, 1600, "bonferroni"), true, true, 7);
        // Succeeding runs: never oom_killed, warnings vary.
        record(&mut prov, &mut obs, inst(s, 100, "mc"), false, false, 3);
        record(&mut prov, &mut obs, inst(s, 400, "mc"), false, false, 0);
        record(&mut prov, &mut obs, inst(s, 400, "bonferroni"), false, false, 7);
        (prov, obs, cause)
    }

    #[test]
    fn constant_rare_observation_is_reported() {
        let s = space();
        let (prov, obs, cause) = setup(&s);
        let enriched =
            enrich_explanations(&prov, &obs, &[cause], &EnrichConfig::default());
        assert_eq!(enriched.len(), 1);
        let correlates = &enriched[0].correlates;
        assert_eq!(correlates.len(), 1, "only oom_killed correlates");
        assert_eq!(correlates[0].variable, "oom_killed");
        assert_eq!(correlates[0].value, Value::from(true));
        assert_eq!(correlates[0].support, 2);
        assert_eq!(correlates[0].background_rate, 0.0);
    }

    #[test]
    fn varying_observation_is_not_reported() {
        let s = space();
        let (prov, obs, cause) = setup(&s);
        let enriched =
            enrich_explanations(&prov, &obs, &[cause], &EnrichConfig::default());
        // `warnings` differs between the two failing runs (3 vs 7): dropped.
        assert!(enriched[0]
            .correlates
            .iter()
            .all(|c| c.variable != "warnings"));
    }

    #[test]
    fn common_background_value_is_not_reported() {
        let s = space();
        let mut prov = ProvenanceStore::new(s.clone());
        let mut obs = ObservationTable::new(["phase"]);
        // Every run, failing or not, observes phase = "load": useless.
        for (perms, method, fail) in [
            (1600, "mc", true),
            (1600, "bonferroni", true),
            (100, "mc", false),
            (400, "mc", false),
        ] {
            let i = inst(&s, perms, method);
            prov.record(i.clone(), EvalResult::of(Outcome::from_check(!fail)));
            obs.record(i, vec![Value::from("load")]);
        }
        let cause = Conjunction::new(vec![Predicate::eq(s.by_name("perms").unwrap(), 1600)]);
        let enriched =
            enrich_explanations(&prov, &obs, &[cause], &EnrichConfig::default());
        assert!(enriched[0].correlates.is_empty());
    }

    #[test]
    fn min_support_threshold() {
        let s = space();
        let mut prov = ProvenanceStore::new(s.clone());
        let mut obs = ObservationTable::new(["oom"]);
        let i = inst(&s, 1600, "mc");
        prov.record(i.clone(), EvalResult::of(Outcome::Fail));
        obs.record(i, vec![Value::from(true)]);
        let cause = Conjunction::new(vec![Predicate::eq(s.by_name("perms").unwrap(), 1600)]);
        // One failing run < min_support 2: no correlates.
        let enriched =
            enrich_explanations(&prov, &obs, &[cause], &EnrichConfig::default());
        assert!(enriched[0].correlates.is_empty());
    }

    #[test]
    fn render_includes_observations() {
        let s = space();
        let (prov, obs, cause) = setup(&s);
        let enriched =
            enrich_explanations(&prov, &obs, &[cause], &EnrichConfig::default());
        let text = enriched[0].render(&s);
        assert!(text.contains("perms = 1600"), "{text}");
        assert!(text.contains("observed: oom_killed = true"), "{text}");
    }

    #[test]
    fn runs_without_observations_are_skipped() {
        let s = space();
        let (mut prov, obs, cause) = setup(&s);
        // An extra failing run with no observations must not poison the
        // constancy check.
        prov.record(inst(&s, 1600, "mc").with(&s, s.by_name("method").unwrap(), "mc".into()),
            EvalResult::of(Outcome::Fail));
        let enriched =
            enrich_explanations(&prov, &obs, &[cause], &EnrichConfig::default());
        assert_eq!(enriched[0].correlates.len(), 1);
    }

    #[test]
    #[should_panic(expected = "one observation per variable")]
    fn arity_mismatch_panics() {
        let s = space();
        let mut obs = ObservationTable::new(["a", "b"]);
        obs.record(inst(&s, 100, "mc"), vec![Value::from(1)]);
    }
}
