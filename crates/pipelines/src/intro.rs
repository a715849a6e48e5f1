//! The two motivating scenarios of the paper's introduction, as runnable
//! pipelines: the enterprise-analytics data-feed regression and the
//! supernova processing-version bug. Both are "real but sanitized" in the
//! paper; here they are deterministic simulators with the root cause the
//! anecdote describes, used by the `enterprise_analytics` and `supernova`
//! examples.

use bugdoc_core::{
    Conjunction, Dnf, EvalResult, Instance, ParamSpace, Predicate, Value,
};
use bugdoc_engine::{Pipeline, PipelineError, SimTime};
use bugdoc_synth::Truth;
use std::sync::Arc;

/// Paper §1, first example: "plots for sales forecasts showed a sharp
/// decrease compared to historical values. After much investigation, the
/// problem was tracked down to a data feed (coming from an external data
/// provider), whose temporal resolution had changed from monthly to weekly."
///
/// The manipulable parameters include the feed's provider and the temporal
/// resolution the feed delivers; the planted cause is their combination:
/// the external provider's feed at weekly resolution breaks the forecaster's
/// aggregation assumptions.
pub struct EnterpriseAnalyticsPipeline {
    space: Arc<ParamSpace>,
    truth: Truth,
}

impl EnterpriseAnalyticsPipeline {
    /// Builds the forecasting pipeline.
    pub fn new() -> Self {
        let space = ParamSpace::builder()
            .categorical("data_provider", ["internal", "acme_feed", "datastream"])
            .categorical("feed_resolution", ["monthly", "weekly", "daily"])
            .categorical("forecast_model", ["arima", "prophet", "xgboost"])
            .ordinal("feature_window_months", [3, 6, 12, 24])
            .categorical("seasonality", ["none", "additive", "multiplicative"])
            .build();
        let provider = space.by_name("data_provider").unwrap();
        let resolution = space.by_name("feed_resolution").unwrap();
        let truth = Truth::new(
            &space,
            Dnf::new(vec![Conjunction::new(vec![
                Predicate::eq(provider, "acme_feed"),
                Predicate::eq(resolution, "weekly"),
            ])]),
        );
        EnterpriseAnalyticsPipeline { space, truth }
    }

    /// Ground truth for scoring.
    pub fn truth(&self) -> &Truth {
        &self.truth
    }

    /// Forecast deviation against historical values (lower is better); the
    /// evaluation threshold is 0.15.
    pub fn forecast_deviation(&self, instance: &Instance) -> f64 {
        if self.truth.fails(instance) {
            return 0.62; // the "sharp decrease" the analysts saw
        }
        let model = instance.get(self.space.by_name("forecast_model").unwrap());
        let base = match model.to_string().as_str() {
            "prophet" => 0.05,
            "xgboost" => 0.07,
            _ => 0.09,
        };
        let window = instance.get(self.space.by_name("feature_window_months").unwrap());
        let window_penalty = if window == &Value::from(3) { 0.03 } else { 0.0 };
        base + window_penalty
    }
}

impl Default for EnterpriseAnalyticsPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline for EnterpriseAnalyticsPipeline {
    fn space(&self) -> &Arc<ParamSpace> {
        &self.space
    }

    fn execute(&self, instance: &Instance) -> Result<EvalResult, PipelineError> {
        Ok(EvalResult::from_score_at_most(
            self.forecast_deviation(instance),
            0.15,
        ))
    }

    fn cost(&self, _instance: &Instance) -> SimTime {
        SimTime::from_mins(12.0)
    }

    fn name(&self) -> &str {
        "enterprise-analytics (sales forecast)"
    }
}

/// Paper §1, second example: "some visualizations of supernovas presented
/// unusual artifacts ... a bug introduced in the new version of the data
/// processing software had caused the artifacts." The analysis spans
/// multiple sites (telescope, HPC facility, desktop); the planted cause is
/// the new processing version.
pub struct SupernovaPipeline {
    space: Arc<ParamSpace>,
    truth: Truth,
}

impl SupernovaPipeline {
    /// Builds the multi-site astronomy pipeline.
    pub fn new() -> Self {
        let space = ParamSpace::builder()
            .categorical("telescope_site", ["cerro_tololo", "mauna_kea"])
            .ordinal("processing_version", [31, 32, 40]) // 3.1, 3.2, 4.0
            .categorical("calibration", ["standard", "extended"])
            .categorical("detector_band", ["g", "r", "i", "z"])
            .ordinal("coadd_depth", [1, 3, 5, 10])
            .build();
        let version = space.by_name("processing_version").unwrap();
        let truth = Truth::new(
            &space,
            Dnf::new(vec![Conjunction::new(vec![Predicate::eq(version, 40)])]),
        );
        SupernovaPipeline { space, truth }
    }

    /// Ground truth for scoring.
    pub fn truth(&self) -> &Truth {
        &self.truth
    }

    /// Artifact score of the visualization (higher = more artifacts); the
    /// evaluation threshold is 0.3.
    pub fn artifact_score(&self, instance: &Instance) -> f64 {
        if self.truth.fails(instance) {
            return 0.85; // the v4.0 regression
        }
        let depth = instance.get(self.space.by_name("coadd_depth").unwrap());
        // Shallow co-adds are noisier but stay under the threshold.
        if depth == &Value::from(1) {
            0.22
        } else {
            0.08
        }
    }
}

impl Default for SupernovaPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline for SupernovaPipeline {
    fn space(&self) -> &Arc<ParamSpace> {
        &self.space
    }

    fn execute(&self, instance: &Instance) -> Result<EvalResult, PipelineError> {
        Ok(EvalResult::from_score_at_most(
            self.artifact_score(instance),
            0.3,
        ))
    }

    fn cost(&self, instance: &Instance) -> SimTime {
        // Telescope + HPC + desktop stages; deeper co-adds cost more.
        let depth = instance.get(self.space.by_name("coadd_depth").unwrap());
        let d = depth.as_f64().unwrap_or(1.0);
        SimTime::from_mins(30.0 + 6.0 * d)
    }

    fn name(&self) -> &str {
        "supernova-visualization (multi-site)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enterprise_cause_is_the_feed_change() {
        let p = EnterpriseAnalyticsPipeline::new();
        for inst in p.space().instances() {
            assert_eq!(
                p.execute(&inst).unwrap().outcome.is_fail(),
                p.truth().fails(&inst)
            );
        }
        assert_eq!(p.truth().len(), 1);
        let frac = p.truth().failure_fraction(p.space());
        assert!((frac - 1.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn supernova_cause_is_the_version() {
        let p = SupernovaPipeline::new();
        for inst in p.space().instances() {
            assert_eq!(
                p.execute(&inst).unwrap().outcome.is_fail(),
                p.truth().fails(&inst)
            );
        }
        assert_eq!(p.truth().len(), 1);
        // One of three versions is buggy.
        let frac = p.truth().failure_fraction(p.space());
        assert!((frac - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn healthy_configurations_pass() {
        let p = EnterpriseAnalyticsPipeline::new();
        let inst = Instance::from_pairs(
            p.space(),
            [
                ("data_provider", "internal".into()),
                ("feed_resolution", "monthly".into()),
                ("forecast_model", "prophet".into()),
                ("feature_window_months", 12.into()),
                ("seasonality", "additive".into()),
            ],
        );
        assert!(p.execute(&inst).unwrap().outcome.is_succeed());

        let sn = SupernovaPipeline::new();
        let inst = Instance::from_pairs(
            sn.space(),
            [
                ("telescope_site", "mauna_kea".into()),
                ("processing_version", 32.into()),
                ("calibration", "standard".into()),
                ("detector_band", "r".into()),
                ("coadd_depth", 5.into()),
            ],
        );
        assert!(sn.execute(&inst).unwrap().outcome.is_succeed());
    }

    #[test]
    fn costs_are_site_realistic() {
        let sn = SupernovaPipeline::new();
        let shallow = Instance::from_pairs(
            sn.space(),
            [
                ("telescope_site", "mauna_kea".into()),
                ("processing_version", 32.into()),
                ("calibration", "standard".into()),
                ("detector_band", "r".into()),
                ("coadd_depth", 1.into()),
            ],
        );
        let deep = shallow.with(
            sn.space(),
            sn.space().by_name("coadd_depth").unwrap(),
            10.into(),
        );
        assert!(sn.cost(&deep).secs() > sn.cost(&shallow).secs());
    }
}
