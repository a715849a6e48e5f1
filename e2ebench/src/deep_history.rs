//! `deep-history`: one large-space synthetic pipeline (10 parameters of
//! 10–20 values, a two-conjunct disjunctive cause, 7–13% of the space
//! failing) with 32,768 runs of history in a durable persist directory. Each
//! diagnosis is a `bugdoc diagnose` rerun: a fresh executor warm-starts from
//! the directory (recovery), runs one Combined FindAll diagnosis with one of
//! 12 fixed diagnosis seeds, and appends its new executions to the WAL. The
//! directory is restored from a pristine copy before every diagnosis, so
//! each one starts from the same history. The workload seed only rotates
//! the order of the diagnosis seeds (see `SCENARIO_SEED`).

use crate::inprocess::{Done, Workload};
use crate::report::{histogram_totals, LogProbes, StoreTotals};
use crate::trace::{maybe_span, TimedPipeline, Tracer, ROOT};
use crate::{mix, Args};
use bugdoc_algorithms::{diagnose, BugDocConfig, DdtMode, Strategy};
use bugdoc_core::ProvenanceStore;
use bugdoc_engine::{Executor, ExecutorConfig, PersistConfig, Pipeline};
use bugdoc_eval::metrics::score_assertions;
use bugdoc_store::DurableStore;
use bugdoc_synth::{CauseScenario, SynthConfig, SyntheticPipeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Runs of history generated into the persist directory.
const HISTORY_RUNS: usize = 32_768;
/// Diagnosis seeds in the scenario; the workload seed only rotates the
/// order in which they run.
const DIAGNOSIS_SEEDS: usize = 12;
/// Accepted share of the space that fails.
const FAILING_SHARE: (f64, f64) = (0.07, 0.13);

/// The scenario — pipeline, history, and diagnosis seeds — is fixed. At
/// this log size one diagnosis costs one or more tree fits over the whole
/// log, and which inputs decide how many: with seed-drawn histories or
/// diagnosis seeds, the interquartile-mean latency of a run moved by 30%
/// from seed to seed, beyond any bound the benchmark may set.
const SCENARIO_SEED: u64 = 0x00de_e9b1_5707;

fn pick_pipeline(seed: u64) -> SyntheticPipeline {
    let config = SynthConfig {
        n_params: (10, 10),
        n_values: (10, 20),
        scenario: CauseScenario::DisjunctionOfConjunctions,
        max_conjunction_len: 2,
        extra_disjunct_prob: 0.0,
        ..SynthConfig::default()
    };
    (0..)
        .map(|k| SyntheticPipeline::generate(&config, mix(seed, 1_000 + k)))
        .find(|p| {
            let f = p.truth().failure_fraction(p.space());
            (FAILING_SHARE.0..=FAILING_SHARE.1).contains(&f)
        })
        .expect("an endless search finds a plant")
}

/// Generates the history into `dir`; returns the persisted run count.
fn persist_history(pipeline: &SyntheticPipeline, seed: u64, dir: &Path) -> usize {
    let space = pipeline.space().clone();
    let (mut store, mut durable, _) =
        DurableStore::open(&space, &PersistConfig::new(dir)).expect("open the persist directory");
    store.reserve(HISTORY_RUNS);
    let mut rng = StdRng::seed_from_u64(seed);
    let ids: Vec<_> = space.ids().collect();
    let mut indices = vec![0u32; ids.len()];
    for _ in 0..HISTORY_RUNS {
        for (slot, p) in indices.iter_mut().zip(&ids) {
            *slot = rng.gen_range(0..space.domain(*p).len()) as u32;
        }
        let instance = space.instance_from_indices(&indices);
        let eval = pipeline
            .execute(&instance)
            .expect("synthetic pipelines run every instance");
        if store.record(instance, eval) {
            let run = store.runs().last().expect("just recorded");
            durable.append(run, &space).expect("append to the WAL");
        }
    }
    let persisted = store.len();
    durable.close(&store).expect("snapshot the history");
    persisted
}

/// Replaces `work` with a copy of `pristine` (minus its lock file).
fn restore(pristine: &Path, work: &Path) {
    if work.exists() {
        std::fs::remove_dir_all(work).expect("clear the work directory");
    }
    std::fs::create_dir_all(work).expect("create the work directory");
    for entry in std::fs::read_dir(pristine).expect("list the pristine directory") {
        let entry = entry.expect("directory entry");
        if entry.file_name() != "lock" {
            std::fs::copy(entry.path(), work.join(entry.file_name())).expect("copy the history");
        }
    }
}

fn open(pipeline: Arc<dyn Pipeline>, dir: &Path) -> Result<Executor, String> {
    let space = pipeline.space().clone();
    Executor::try_with_provenance(
        pipeline,
        ExecutorConfig {
            persist: Some(PersistConfig::new(dir)),
            ..ExecutorConfig::default()
        },
        ProvenanceStore::new(space),
    )
    .map_err(|e| format!("recovery failed: {e}"))
}

/// The pipeline and its persisted history.
struct Scenario {
    pipeline: Arc<SyntheticPipeline>,
    pristine: PathBuf,
    persisted: usize,
}

/// Builds the scenario into `root/pristine-<k>`, ending with the first warm
/// start, as the first rerun pays it; returns the time it took and the
/// scenario.
fn set_up(root: &Path, k: usize) -> (f64, Scenario) {
    let started = Instant::now();
    let pipeline = Arc::new(pick_pipeline(SCENARIO_SEED));
    let pristine = root.join(format!("pristine-{k}"));
    let persisted = persist_history(&pipeline, mix(SCENARIO_SEED, 7), &pristine);
    let recovered = open(pipeline.clone(), &pristine)
        .expect("warm-start from the new history")
        .recovery()
        .map_or(0, |r| r.runs);
    assert_eq!(recovered, persisted, "set-up recovered a different history");
    let took = started.elapsed().as_secs_f64();
    (
        took,
        Scenario {
            pipeline,
            pristine,
            persisted,
        },
    )
}

struct DeepHistory {
    /// Rotation of the diagnosis seeds, from the workload seed.
    rotation: usize,
    root: PathBuf,
    /// Set-ups so far (each builds its own directory).
    setups: usize,
    scenario: Scenario,
    work: PathBuf,
    store: StoreTotals,
}

impl Workload for DeepHistory {
    const NAME: &'static str = "deep-history";
    const REFERENCE: usize = DIAGNOSIS_SEEDS;
    const CYCLE: usize = DIAGNOSIS_SEEDS;
    /// One set-up takes ~90 ms, too short to time steadily on its own.
    const SETUPS: usize = 10;

    fn repeat_setup(&mut self) -> f64 {
        let (took, again) = set_up(&self.root, self.setups);
        self.setups += 1;
        std::fs::remove_dir_all(again.pristine).expect("remove a repeated set-up");
        took
    }

    fn diagnose(
        &mut self,
        i: usize,
        diag_id: u64,
        trace: Option<(&Arc<Tracer>, &mut LogProbes)>,
    ) -> Result<Done, String> {
        restore(&self.scenario.pristine, &self.work);
        let slot = (i + self.rotation) % DIAGNOSIS_SEEDS;
        let diag_seed = mix(SCENARIO_SEED, 100 + slot as u64);
        let tracer = trace.as_ref().map(|(t, _)| *t);
        if let Some(t) = tracer {
            t.set_current(diag_id);
        }
        let timed = TimedPipeline::wrap(self.scenario.pipeline.clone(), tracer);
        let pipeline: Arc<dyn Pipeline> = timed.clone();
        let tracer = tracer.map(|t| &**t);
        let config = BugDocConfig::front_end(Strategy::Combined, DdtMode::FindAll, diag_seed);
        let wal_before = histogram_totals("bugdoc_store_wal_append_ns");
        let snap_before = histogram_totals("bugdoc_store_snapshot_write_ns");

        let started = Instant::now();
        let root_start = tracer.map(|t| t.now_ns());
        let recover_started = Instant::now();
        let exec = maybe_span(tracer, diag_id, "store.recover", ROOT, || {
            open(pipeline, &self.work)
        })?;
        let recover_ms = recover_started.elapsed().as_secs_f64() * 1e3;
        let diag_started = Instant::now();
        let outcome = maybe_span(tracer, diag_id, "algorithms.diagnose", ROOT, || {
            diagnose(&exec, &config)
        });
        let diagnose_ms = diag_started.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(start)) = (tracer, root_start) {
            t.record(diag_id, ROOT, "", start);
        }
        let request_s = started.elapsed().as_secs_f64();

        let recovered = exec.recovery().map_or(0, |r| r.runs);
        if recovered != self.scenario.persisted {
            return Err(format!(
                "recovered {recovered} runs of {} persisted",
                self.scenario.persisted
            ));
        }
        let diagnosis = outcome.map_err(|e| format!("diagnosis failed: {e}"))?;
        let space = exec.space();
        if let Some((_, probes)) = trace {
            let (wal, snap) = (
                histogram_totals("bugdoc_store_wal_append_ns"),
                histogram_totals("bugdoc_store_snapshot_write_ns"),
            );
            self.store.recover_ms += recover_ms;
            self.store.wal.0 += wal.0 - wal_before.0;
            self.store.wal.1 += wal.1 - wal_before.1;
            self.store.snapshots.0 += snap.0 - snap_before.0;
            self.store.snapshots.1 += snap.1 - snap_before.1;
            exec.with_provenance_ref(|p| probes.probe(p, diag_seed));
        }
        Ok(Done {
            request_s,
            diagnose_ms,
            report: diagnosis.render_causes(&space),
            new_executions: diagnosis.new_executions,
            executions: timed.calls(),
            log_before: recovered,
            log_after: exec.with_provenance_ref(|p| p.len()),
            stats: exec.stats(),
            score: score_assertions(
                &space,
                self.scenario.pipeline.truth(),
                diagnosis.causes.conjuncts(),
            ),
        })
    }

    fn store_totals(&self) -> StoreTotals {
        self.store
    }
}

pub fn run(args: &Args) -> crate::report::Report {
    let root = crate::work_dir("deep-history");
    let (setup_s, scenario) = set_up(&root, 0);
    let mut workload = DeepHistory {
        rotation: (args.seed % DIAGNOSIS_SEEDS as u64) as usize,
        work: root.join("work"),
        root,
        setups: 1,
        scenario,
        store: StoreTotals::default(),
    };
    let report = crate::inprocess::run(&mut workload, args, setup_s);
    crate::remove_work_dir(&workload.root);
    report
}
