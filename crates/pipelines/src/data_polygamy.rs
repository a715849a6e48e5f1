//! The Data Polygamy experiment pipeline (paper §5.3).
//!
//! The paper debugs a VisTrails pipeline reproducing a Data Polygamy
//! (Chirigati et al., SIGMOD 2016) experiment: statistical-significance
//! evaluation over 300+ heterogeneous spatio-temporal datasets, with "2
//! boolean, 3 categorical (3 to 10 possible values), and 7 numerical
//! parameters. Each instance takes 20 minutes to run". The debugging goal is
//! crash analysis: "given a set of pipeline instances, some of which crash
//! and some of which execute to completion, find at least one minimal set of
//! parameter-values ... which cause the execution to crash".
//!
//! Substitution (see `DESIGN.md` §5): the 20-minute VisTrails executions are
//! replaced by a deterministic crash simulator over the same parameter-space
//! shape, with three planted, parameter-disjoint crash conditions:
//!
//! 1. Monte-Carlo significance with too many permutations exhausts memory;
//! 2. hour resolution over long time ranges explodes the spatio-temporal
//!    index;
//! 3. a small memory budget cannot hold the largest dataset groups.

use bugdoc_core::{
    Comparator, Conjunction, Dnf, EvalResult, Instance, Outcome, ParamSpace, Predicate,
};
use bugdoc_engine::{Pipeline, PipelineError, SimTime};
use bugdoc_synth::Truth;
use std::sync::Arc;

/// The Data Polygamy crash-analysis pipeline simulator.
pub struct DataPolygamyPipeline {
    space: Arc<ParamSpace>,
    truth: Truth,
}

impl DataPolygamyPipeline {
    /// Builds the pipeline: 2 boolean + 3 categorical + 7 numerical
    /// parameters, exactly the shape the paper reports.
    pub fn new() -> Self {
        let space = ParamSpace::builder()
            // 2 boolean parameters.
            .boolean("use_alpha_filter")
            .boolean("use_custom_significance")
            // 3 categorical parameters (3 to 10 possible values).
            .categorical(
                "significance_method",
                ["mc_permutation", "bonferroni", "bh_fdr"],
            )
            .categorical("resolution", ["hour", "day", "week", "month"])
            .categorical(
                "dataset_group",
                [
                    "weather", "taxi", "crime", "events", "social", "traffic", "noise", "energy",
                ],
            )
            // 7 numerical parameters.
            .ordinal("p_value_threshold", [0.001, 0.005, 0.01, 0.05, 0.1])
            .ordinal("num_datasets", [50, 100, 150, 200, 250, 300])
            .ordinal("grid_size", [10, 25, 50, 100])
            .ordinal("time_range_days", [30, 90, 180, 365])
            .ordinal("feature_threshold", [0.1, 0.2, 0.3, 0.4, 0.5])
            .ordinal("permutations", [100, 200, 400, 800, 1600])
            .ordinal("memory_budget_gb", [4, 8, 16, 32])
            .build();

        let method = space.by_name("significance_method").unwrap();
        let perms = space.by_name("permutations").unwrap();
        let res = space.by_name("resolution").unwrap();
        let range = space.by_name("time_range_days").unwrap();
        let mem = space.by_name("memory_budget_gb").unwrap();
        let nds = space.by_name("num_datasets").unwrap();

        let truth = Truth::new(
            &space,
            Dnf::new(vec![
                // OOM in the Monte-Carlo permutation loop.
                Conjunction::new(vec![
                    Predicate::eq(method, "mc_permutation"),
                    Predicate::new(perms, Comparator::Gt, 800),
                ]),
                // Spatio-temporal index explosion.
                Conjunction::new(vec![
                    Predicate::eq(res, "hour"),
                    Predicate::new(range, Comparator::Gt, 180),
                ]),
                // Largest dataset groups do not fit a small memory budget.
                Conjunction::new(vec![
                    Predicate::new(mem, Comparator::Le, 4),
                    Predicate::new(nds, Comparator::Gt, 250),
                ]),
            ]),
        );
        DataPolygamyPipeline { space, truth }
    }

    /// The planted crash conditions (ground truth for scoring).
    pub fn truth(&self) -> &Truth {
        &self.truth
    }
}

impl Default for DataPolygamyPipeline {
    fn default() -> Self {
        DataPolygamyPipeline::new()
    }
}

impl Pipeline for DataPolygamyPipeline {
    fn space(&self) -> &Arc<ParamSpace> {
        &self.space
    }

    fn execute(&self, instance: &Instance) -> Result<EvalResult, PipelineError> {
        // Crash ⇒ fail; completion ⇒ succeed (no score for crash analysis).
        Ok(EvalResult::of(Outcome::from_check(
            !self.truth.fails(instance),
        )))
    }

    fn cost(&self, _instance: &Instance) -> SimTime {
        // "Each instance takes 20 minutes to run, making manual debugging
        // impractical."
        SimTime::from_mins(20.0)
    }

    fn name(&self) -> &str {
        "data-polygamy (crash analysis)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::Value;

    fn base_instance(p: &DataPolygamyPipeline) -> Instance {
        Instance::from_pairs(
            p.space(),
            [
                ("use_alpha_filter", false.into()),
                ("use_custom_significance", false.into()),
                ("significance_method", "bonferroni".into()),
                ("resolution", "day".into()),
                ("dataset_group", "taxi".into()),
                ("p_value_threshold", 0.05.into()),
                ("num_datasets", 100.into()),
                ("grid_size", 25.into()),
                ("time_range_days", 90.into()),
                ("feature_threshold", 0.3.into()),
                ("permutations", 400.into()),
                ("memory_budget_gb", 16.into()),
            ],
        )
    }

    #[test]
    fn space_shape_matches_paper() {
        let p = DataPolygamyPipeline::new();
        let s = p.space();
        assert_eq!(s.len(), 12, "2 boolean + 3 categorical + 7 numerical");
        // Categorical value counts within 3..=10.
        for name in ["significance_method", "resolution", "dataset_group"] {
            let n = s.domain(s.by_name(name).unwrap()).len();
            assert!((3..=10).contains(&n), "{name} has {n} values");
        }
    }

    #[test]
    fn base_configuration_completes() {
        let p = DataPolygamyPipeline::new();
        let inst = base_instance(&p);
        assert!(p.execute(&inst).unwrap().outcome.is_succeed());
    }

    #[test]
    fn planted_crashes_fire() {
        let p = DataPolygamyPipeline::new();
        let s = p.space();
        // OOM condition.
        let oom = base_instance(&p)
            .with(s, s.by_name("significance_method").unwrap(), "mc_permutation".into())
            .with(s, s.by_name("permutations").unwrap(), Value::from(1600));
        assert!(p.execute(&oom).unwrap().outcome.is_fail());
        // Index explosion.
        let idx = base_instance(&p)
            .with(s, s.by_name("resolution").unwrap(), "hour".into())
            .with(s, s.by_name("time_range_days").unwrap(), Value::from(365));
        assert!(p.execute(&idx).unwrap().outcome.is_fail());
        // Memory budget.
        let mem = base_instance(&p)
            .with(s, s.by_name("memory_budget_gb").unwrap(), Value::from(4))
            .with(s, s.by_name("num_datasets").unwrap(), Value::from(300));
        assert!(p.execute(&mem).unwrap().outcome.is_fail());
    }

    #[test]
    fn near_misses_complete() {
        let p = DataPolygamyPipeline::new();
        let s = p.space();
        // mc_permutation with few permutations is fine.
        let ok1 = base_instance(&p)
            .with(s, s.by_name("significance_method").unwrap(), "mc_permutation".into());
        assert!(p.execute(&ok1).unwrap().outcome.is_succeed());
        // hour resolution over a short range is fine.
        let ok2 = base_instance(&p).with(s, s.by_name("resolution").unwrap(), "hour".into());
        assert!(p.execute(&ok2).unwrap().outcome.is_succeed());
    }

    #[test]
    fn crash_fraction_is_modest() {
        let p = DataPolygamyPipeline::new();
        let frac = p.truth().failure_fraction(p.space());
        assert!(frac > 0.0 && frac < 0.3, "fraction {frac}");
    }

    #[test]
    fn three_ground_truth_causes() {
        let p = DataPolygamyPipeline::new();
        assert_eq!(p.truth().len(), 3);
        assert_eq!(p.cost(&base_instance(&p)).secs(), 1200.0);
    }
}
