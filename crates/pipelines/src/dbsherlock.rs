//! The DBSherlock / transactional-database performance scenario (paper §5.3).
//!
//! DBSherlock (Yoon et al., SIGMOD 2016) diagnoses OLTP performance problems
//! from workload logs; its authors ran TPC-C under "10 distinct classes of
//! performance anomalies" and collected logs "each labeled as normal or
//! anomalous". The BugDoc paper replays this data with two twists it calls
//! out explicitly: (i) *no new instances can be run* — the algorithms read
//! only recorded logs, with "an early stop when the pipeline instance to be
//! tested was not present"; (ii) the raw "202 numerical statistics" are
//! reduced by feature selection and bucketing "to 15 parameters with 8
//! possible values (buckets) each".
//!
//! Substitution (see `DESIGN.md` §5): a generator of labeled anomaly logs
//! over that reduced 15×8 space. Each anomaly class is a planted conjunction
//! over the bucketed statistics; class-`k` logs satisfy cause `k` and are
//! solver-constructed to avoid every other cause, so per-class labels are
//! crisp. The paper's 50/25/25 split (training provenance / execution budget
//! pool / holdout) is reproduced per class.

use bugdoc_core::{
    Comparator, Conjunction, Dnf, EvalResult, Instance, Outcome, ParamSpace, Predicate,
    ProvenanceStore, Value,
};
use bugdoc_engine::HistoricalPipeline;
use bugdoc_synth::{sample_instance, Truth};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Names for the 15 bucketed OLTP statistics (a plausible selection from the
/// 202 DBSherlock collects).
const STAT_NAMES: [&str; 15] = [
    "cpu_usage",
    "disk_read_mb",
    "disk_write_mb",
    "lock_waits",
    "deadlocks",
    "buffer_hit_ratio",
    "active_sessions",
    "log_flush_ms",
    "net_recv_mb",
    "net_send_mb",
    "checkpoint_pages",
    "tmp_tables",
    "threads_running",
    "innodb_waits",
    "query_latency_ms",
];

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct DbSherlockConfig {
    /// Bucketed statistics (paper: 15).
    pub n_stats: usize,
    /// Buckets per statistic (paper: 8).
    pub n_buckets: usize,
    /// Anomaly classes (paper: 10).
    pub n_classes: usize,
    /// Anomalous logs generated per class.
    pub logs_per_class: usize,
    /// Normal logs generated.
    pub normal_logs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DbSherlockConfig {
    fn default() -> Self {
        DbSherlockConfig {
            n_stats: 15,
            n_buckets: 8,
            n_classes: 10,
            logs_per_class: 40,
            normal_logs: 400,
            seed: 0,
        }
    }
}

/// One recorded workload log: the bucketed statistics plus its label.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// The bucketed statistics vector.
    pub instance: Instance,
    /// `Some(k)` if the log exhibits anomaly class `k`, `None` if normal.
    pub class: Option<usize>,
}

/// The generated labeled log dataset.
pub struct DbSherlockDataset {
    space: Arc<ParamSpace>,
    causes: Vec<Conjunction>,
    logs: Vec<LogRecord>,
}

impl DbSherlockDataset {
    /// Generates the dataset: plants one cause per anomaly class, then
    /// produces class logs (satisfying exactly their class's cause) and
    /// normal logs (satisfying none).
    pub fn generate(config: &DbSherlockConfig) -> Self {
        assert!(config.n_stats <= STAT_NAMES.len());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut builder = ParamSpace::builder();
        for name in STAT_NAMES.iter().take(config.n_stats) {
            builder = builder.ordinal(*name, (0..config.n_buckets as i64).map(Value::from));
        }
        let space = builder.build();

        // Plant causes until all classes have mutually avoidable causes.
        let causes = plant_causes(&space, config, &mut rng);
        let canon: Vec<_> = causes.iter().map(|c| c.canonicalize(&space)).collect();

        let mut logs: Vec<LogRecord> = Vec::new();
        for (k, cause) in canon.iter().enumerate() {
            let avoid: Vec<_> = canon
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != k)
                .map(|(_, c)| c.clone())
                .collect();
            let mut made = 0;
            let mut guard = 0;
            while made < config.logs_per_class && guard < config.logs_per_class * 10 {
                guard += 1;
                if let Some(inst) = sample_instance(&space, Some(cause), &avoid, &mut rng) {
                    if !logs.iter().any(|l| l.instance == inst) {
                        logs.push(LogRecord {
                            instance: inst,
                            class: Some(k),
                        });
                        made += 1;
                    }
                } else {
                    break;
                }
            }
        }
        let mut made = 0;
        let mut guard = 0;
        while made < config.normal_logs && guard < config.normal_logs * 10 {
            guard += 1;
            if let Some(inst) = sample_instance(&space, None, &canon, &mut rng) {
                if !logs.iter().any(|l| l.instance == inst) {
                    logs.push(LogRecord {
                        instance: inst,
                        class: None,
                    });
                    made += 1;
                }
            } else {
                break;
            }
        }
        logs.shuffle(&mut rng);

        DbSherlockDataset {
            space,
            causes,
            logs,
        }
    }

    /// The bucketed-statistics space.
    pub fn space(&self) -> &Arc<ParamSpace> {
        &self.space
    }

    /// The planted cause of each anomaly class.
    pub fn causes(&self) -> &[Conjunction] {
        &self.causes
    }

    /// All logs, shuffled.
    pub fn logs(&self) -> &[LogRecord] {
        &self.logs
    }

    /// Number of anomaly classes.
    pub fn n_classes(&self) -> usize {
        self.causes.len()
    }

    /// The class-`k` debugging problem with the paper's 50/25/25 split:
    /// training provenance, budget pool (the only "new" instances available),
    /// and holdout.
    pub fn problem(&self, class: usize) -> AnomalyProblem {
        let truth = Truth::new(
            &self.space,
            Dnf::new(vec![self.causes[class].clone()]),
        );
        let labeled: Vec<(Instance, EvalResult)> = self
            .logs
            .iter()
            .map(|l| {
                // The evaluation for problem k: a log "fails" iff it exhibits
                // anomaly class k — which by construction coincides with
                // satisfying the class's planted cause.
                let fail = l.class == Some(class);
                (
                    l.instance.clone(),
                    EvalResult::of(Outcome::from_check(!fail)),
                )
            })
            .collect();
        let n = labeled.len();
        let train_end = n / 2;
        let budget_end = train_end + n / 4;
        AnomalyProblem {
            space: self.space.clone(),
            truth,
            train: labeled[..train_end].to_vec(),
            budget_pool: labeled[train_end..budget_end].to_vec(),
            holdout: labeled[budget_end..].to_vec(),
        }
    }
}

/// One anomaly class's debugging problem.
pub struct AnomalyProblem {
    /// The statistics space.
    pub space: Arc<ParamSpace>,
    /// Ground truth: the single planted cause of this class.
    pub truth: Truth,
    /// 50%: the initial provenance handed to the algorithms.
    pub train: Vec<(Instance, EvalResult)>,
    /// 25%: "the budget for pipeline instances that any sub-method of BugDoc
    /// requested" — requests outside this pool are unavailable.
    pub budget_pool: Vec<(Instance, EvalResult)>,
    /// 25%: held out "to assess the accuracy of BugDoc's minimal root causes
    /// as a classifier".
    pub holdout: Vec<(Instance, EvalResult)>,
}

impl AnomalyProblem {
    /// The replay pipeline: only training + budget-pool logs are executable;
    /// everything else early-stops as unavailable.
    pub fn historical_pipeline(&self) -> HistoricalPipeline {
        HistoricalPipeline::new(
            self.space.clone(),
            self.train
                .iter()
                .chain(self.budget_pool.iter())
                .map(|(i, e)| (i.clone(), *e)),
        )
        .with_name("dbsherlock-replay")
    }

    /// The initial provenance (the 50% training split).
    pub fn initial_provenance(&self) -> ProvenanceStore {
        let mut prov = ProvenanceStore::new(self.space.clone());
        for (inst, eval) in &self.train {
            prov.record(inst.clone(), *eval);
        }
        prov
    }
}

/// Plants `n_classes` causes over the statistics space, rejecting plants
/// until every class has logs that can avoid all other classes.
fn plant_causes(
    space: &Arc<ParamSpace>,
    config: &DbSherlockConfig,
    rng: &mut StdRng,
) -> Vec<Conjunction> {
    'retry: for _ in 0..200 {
        let mut causes: Vec<Conjunction> = Vec::new();
        for _ in 0..config.n_classes {
            // 1–2 statistics per anomaly signature.
            let n_preds = rng.gen_range(1..=2);
            let mut params: Vec<_> = space.ids().collect();
            params.shuffle(rng);
            let preds: Vec<Predicate> = params
                .into_iter()
                .take(n_preds)
                .map(|p| {
                    let domain = space.domain(p);
                    let v = domain.value(rng.gen_range(0..domain.len())).clone();
                    let cmp = Comparator::ALL[rng.gen_range(0..4usize)];
                    Predicate::new(p, cmp, v)
                })
                .collect();
            causes.push(Conjunction::new(preds));
        }
        let canon: Vec<_> = causes.iter().map(|c| c.canonicalize(space)).collect();
        // Validity: satisfiable, not tautological, pairwise semantically
        // incomparable, each class separable from the others, and normal
        // logs possible. A bounded failure fraction keeps anomalies rare-ish.
        for c in &canon {
            if c.is_unsatisfiable(space) || c.is_top(space) {
                continue 'retry;
            }
        }
        for (i, a) in canon.iter().enumerate() {
            for (j, b) in canon.iter().enumerate() {
                if i != j && a.implies(b, space) {
                    continue 'retry;
                }
            }
        }
        let mut probe = StdRng::seed_from_u64(rng.gen());
        if sample_instance(space, None, &canon, &mut probe).is_none() {
            continue 'retry;
        }
        for (k, c) in canon.iter().enumerate() {
            let avoid: Vec<_> = canon
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != k)
                .map(|(_, x)| x.clone())
                .collect();
            if sample_instance(space, Some(c), &avoid, &mut probe).is_none() {
                continue 'retry;
            }
        }
        return causes;
    }
    panic!("could not plant {} separable anomaly classes", config.n_classes);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DbSherlockConfig {
        DbSherlockConfig {
            n_classes: 4,
            logs_per_class: 10,
            normal_logs: 60,
            ..Default::default()
        }
    }

    #[test]
    fn space_shape_matches_paper() {
        let ds = DbSherlockDataset::generate(&DbSherlockConfig::default());
        assert_eq!(ds.space().len(), 15);
        for p in ds.space().ids() {
            assert_eq!(ds.space().domain(p).len(), 8);
        }
        assert_eq!(ds.n_classes(), 10);
    }

    #[test]
    fn labels_match_cause_satisfaction() {
        let ds = DbSherlockDataset::generate(&small());
        let canon: Vec<_> = ds
            .causes()
            .iter()
            .map(|c| c.canonicalize(ds.space()))
            .collect();
        for log in ds.logs() {
            match log.class {
                Some(k) => {
                    assert!(canon[k].satisfied_by(&log.instance, ds.space()));
                    for (j, c) in canon.iter().enumerate() {
                        if j != k {
                            assert!(
                                !c.satisfied_by(&log.instance, ds.space()),
                                "class-{k} log also exhibits class {j}"
                            );
                        }
                    }
                }
                None => {
                    for c in &canon {
                        assert!(!c.satisfied_by(&log.instance, ds.space()));
                    }
                }
            }
        }
    }

    #[test]
    fn split_proportions() {
        let ds = DbSherlockDataset::generate(&small());
        let problem = ds.problem(0);
        let n = ds.logs().len();
        assert_eq!(problem.train.len(), n / 2);
        assert_eq!(problem.budget_pool.len(), n / 4);
        assert_eq!(
            problem.train.len() + problem.budget_pool.len() + problem.holdout.len(),
            n
        );
    }

    #[test]
    fn historical_pipeline_early_stops_outside_pool() {
        let ds = DbSherlockDataset::generate(&small());
        let problem = ds.problem(1);
        let pipe = problem.historical_pipeline();
        // Everything in train and budget pool replays.
        assert!(pipe.contains(&problem.train[0].0));
        assert!(pipe.contains(&problem.budget_pool[0].0));
        // Holdout instances are NOT executable (they are unseen future logs);
        // they may coincide with pool instances only if duplicated — the
        // generator dedups, so they must be absent.
        assert!(!pipe.contains(&problem.holdout[0].0));
    }

    #[test]
    fn problem_truth_is_the_class_cause() {
        let ds = DbSherlockDataset::generate(&small());
        for k in 0..ds.n_classes() {
            let problem = ds.problem(k);
            assert_eq!(problem.truth.len(), 1);
            assert!(problem.truth.matches_minimal(ds.space(), &ds.causes()[k]));
        }
    }

    #[test]
    fn per_problem_labels_are_consistent_with_truth() {
        let ds = DbSherlockDataset::generate(&small());
        let problem = ds.problem(2);
        for (inst, eval) in problem
            .train
            .iter()
            .chain(problem.budget_pool.iter())
            .chain(problem.holdout.iter())
        {
            assert_eq!(eval.outcome.is_fail(), problem.truth.fails(inst));
        }
    }

    #[test]
    fn reproducible_per_seed() {
        let a = DbSherlockDataset::generate(&small());
        let b = DbSherlockDataset::generate(&small());
        assert_eq!(a.logs().len(), b.logs().len());
        assert_eq!(a.logs()[0].instance, b.logs()[0].instance);
    }

    #[test]
    fn each_class_has_logs() {
        let ds = DbSherlockDataset::generate(&small());
        for k in 0..ds.n_classes() {
            let count = ds.logs().iter().filter(|l| l.class == Some(k)).count();
            assert!(count > 0, "class {k} has no logs");
        }
    }
}
