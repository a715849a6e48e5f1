//! The GAN-training pipeline (paper §5.3).
//!
//! The paper "created a computational pipeline that trains a modified SAGAN
//! on CIFAR-10 and applied BugDoc to find root causes of ... mode collapse.
//! Our evaluation function sets a threshold on the Frechet Inception
//! Distance (FID) metric ... This pipeline specified only 6 parameters
//! limited to 5 possible values" with ~10-hour trainings.
//!
//! Substitution (see `DESIGN.md` §5): an analytic FID response surface over
//! the same 6×5 space, whose only threshold crossings are the two planted
//! mode-collapse regimes (parameter-disjoint, so the ground truth is exact):
//!
//! 1. an aggressive generator learning rate combined with high momentum
//!    (`gen_lr > 5e-4 ∧ beta1 > 0.75`) destabilizes training;
//! 2. a discriminator running at the maximum learning rate on the plain
//!    DCGAN architecture overpowers the generator (`disc_lr = 1e-3 ∧
//!    architecture = dcgan`).

use bugdoc_core::{
    Comparator, Conjunction, Dnf, EvalResult, Instance, ParamSpace, Predicate,
};
use bugdoc_engine::{Pipeline, PipelineError, SimTime};
use bugdoc_synth::Truth;
use std::sync::Arc;

/// FID threshold: runs at or below succeed, above fail (mode collapse).
pub const FID_THRESHOLD: f64 = 60.0;

/// The GAN-training pipeline simulator.
pub struct GanPipeline {
    space: Arc<ParamSpace>,
    truth: Truth,
}

impl GanPipeline {
    /// Builds the 6-parameter, 5-value space.
    pub fn new() -> Self {
        let space = ParamSpace::builder()
            .ordinal("gen_lr", [1e-5, 5e-5, 1e-4, 5e-4, 1e-3])
            .ordinal("disc_lr", [1e-5, 5e-5, 1e-4, 5e-4, 1e-3])
            .ordinal("n_steps", [10_000, 25_000, 50_000, 75_000, 100_000])
            .ordinal("batch_size", [16, 32, 64, 128, 256])
            .ordinal("beta1", [0.0, 0.25, 0.5, 0.75, 0.9])
            .categorical(
                "architecture",
                ["sagan", "dcgan", "wgan_gp", "lsgan", "stylegan_lite"],
            )
            .build();

        let gen_lr = space.by_name("gen_lr").unwrap();
        let beta1 = space.by_name("beta1").unwrap();
        let disc_lr = space.by_name("disc_lr").unwrap();
        let arch = space.by_name("architecture").unwrap();

        let truth = Truth::new(
            &space,
            Dnf::new(vec![
                Conjunction::new(vec![
                    Predicate::new(gen_lr, Comparator::Gt, 5e-4),
                    Predicate::new(beta1, Comparator::Gt, 0.75),
                ]),
                Conjunction::new(vec![
                    Predicate::new(disc_lr, Comparator::Eq, 1e-3),
                    Predicate::eq(arch, "dcgan"),
                ]),
            ]),
        );
        GanPipeline { space, truth }
    }

    /// The planted mode-collapse conditions.
    pub fn truth(&self) -> &Truth {
        &self.truth
    }

    /// The deterministic FID of a configuration: a smooth base surface in
    /// [25, 45] everywhere except the planted collapse regimes (≥ 150).
    pub fn fid(&self, instance: &Instance) -> f64 {
        if self.truth.fails(instance) {
            // Collapse: FID blows up, modulated slightly by step count.
            let steps = self.value_rank(instance, "n_steps");
            return 150.0 + 10.0 * steps as f64;
        }
        // Healthy training: longer runs and bigger batches help; extreme
        // learning-rate ratios hurt a little, never past the threshold.
        let steps = self.value_rank(instance, "n_steps") as f64; // 0..4
        let batch = self.value_rank(instance, "batch_size") as f64;
        let glr = self.value_rank(instance, "gen_lr") as f64;
        let dlr = self.value_rank(instance, "disc_lr") as f64;
        let arch_bonus = match instance
            .get(self.space.by_name("architecture").unwrap())
            .to_string()
            .as_str()
        {
            "sagan" => -3.0,
            "stylegan_lite" => -2.0,
            "wgan_gp" => -1.0,
            _ => 0.0,
        };
        let ratio_penalty = (glr - dlr).abs(); // 0..4
        45.0 - 2.0 * steps - 1.0 * batch + 1.5 * ratio_penalty + arch_bonus
    }

    fn value_rank(&self, instance: &Instance, param: &str) -> usize {
        let p = self.space.by_name(param).unwrap();
        self.space
            .domain(p)
            .index_of(instance.get(p))
            .expect("value from domain")
    }
}

impl Default for GanPipeline {
    fn default() -> Self {
        GanPipeline::new()
    }
}

impl Pipeline for GanPipeline {
    fn space(&self) -> &Arc<ParamSpace> {
        &self.space
    }

    fn execute(&self, instance: &Instance) -> Result<EvalResult, PipelineError> {
        Ok(EvalResult::from_score_at_most(
            self.fid(instance),
            FID_THRESHOLD,
        ))
    }

    fn cost(&self, instance: &Instance) -> SimTime {
        // "each configuration is trained in approximately 10 hours, depending
        // on the discriminator and generator learning rates and the number of
        // steps": 4–14 h scaled by step count, nudged by the learning rates.
        let steps = self.value_rank(instance, "n_steps") as f64;
        let lr_nudge =
            0.25 * (self.value_rank(instance, "gen_lr") + self.value_rank(instance, "disc_lr")) as f64;
        SimTime::from_hours(4.0 + 2.5 * steps + lr_nudge)
    }

    fn name(&self) -> &str {
        "gan-training (SAGAN/CIFAR-10, FID)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::Value;

    fn base(p: &GanPipeline) -> Instance {
        Instance::from_pairs(
            p.space(),
            [
                ("gen_lr", Value::float(1e-4)),
                ("disc_lr", Value::float(1e-4)),
                ("n_steps", 50_000.into()),
                ("batch_size", 64.into()),
                ("beta1", 0.5.into()),
                ("architecture", "sagan".into()),
            ],
        )
    }

    #[test]
    fn space_is_6_by_5() {
        let p = GanPipeline::new();
        assert_eq!(p.space().len(), 6);
        for id in p.space().ids() {
            assert_eq!(p.space().domain(id).len(), 5);
        }
        assert_eq!(p.space().total_configurations(), 5u128.pow(6));
    }

    #[test]
    fn healthy_configuration_passes() {
        let p = GanPipeline::new();
        let inst = base(&p);
        assert!(p.fid(&inst) <= FID_THRESHOLD);
        assert!(p.execute(&inst).unwrap().outcome.is_succeed());
    }

    #[test]
    fn collapse_regimes_fail() {
        let p = GanPipeline::new();
        let s = p.space();
        let unstable = base(&p)
            .with(s, s.by_name("gen_lr").unwrap(), Value::float(1e-3))
            .with(s, s.by_name("beta1").unwrap(), Value::float(0.9));
        assert!(p.fid(&unstable) > FID_THRESHOLD);
        let overpowered = base(&p)
            .with(s, s.by_name("disc_lr").unwrap(), Value::float(1e-3))
            .with(s, s.by_name("architecture").unwrap(), "dcgan".into());
        assert!(p.fid(&overpowered) > FID_THRESHOLD);
    }

    #[test]
    fn evaluation_agrees_with_ground_truth_everywhere() {
        // Exhaustive over all 15,625 configurations: the ONLY threshold
        // crossings are the planted causes, so ground truth is exact.
        let p = GanPipeline::new();
        for inst in p.space().instances() {
            assert_eq!(
                p.execute(&inst).unwrap().outcome.is_fail(),
                p.truth().fails(&inst),
                "disagreement at {}",
                inst.display(p.space())
            );
        }
    }

    #[test]
    fn cost_scales_with_steps_and_lr() {
        let p = GanPipeline::new();
        let s = p.space();
        let short = base(&p).with(s, s.by_name("n_steps").unwrap(), 10_000.into());
        let long = base(&p).with(s, s.by_name("n_steps").unwrap(), 100_000.into());
        assert!(p.cost(&long).secs() > p.cost(&short).secs());
        // ~10 h in the middle of the space.
        let mid = p.cost(&base(&p)).secs() / 3600.0;
        assert!((5.0..15.0).contains(&mid), "mid-space cost {mid}h");
    }

    #[test]
    fn two_ground_truth_causes() {
        assert_eq!(GanPipeline::new().truth().len(), 2);
    }
}
