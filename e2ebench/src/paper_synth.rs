//! `paper-synth`: the paper's own traffic (§5.1). Synthetic pipelines from
//! `SynthConfig` defaults (3–15 parameters, 5–30 values), the three cause
//! shapes round-robin, each with a seeded history of 2 failing + 6
//! succeeding runs, a fresh in-process executor, and one Combined FindAll
//! diagnosis.

use crate::inprocess::{Done, Workload};
use crate::report::LogProbes;
use crate::trace::{maybe_span, TimedPipeline, Tracer, ROOT};
use crate::{mix, Args};
use bugdoc_algorithms::{diagnose, BugDocConfig, DdtMode, Strategy};
use bugdoc_core::{EvalResult, Instance, ProvenanceStore};
use bugdoc_engine::{Executor, ExecutorConfig, Pipeline};
use bugdoc_eval::metrics::score_assertions;
use bugdoc_synth::{CauseScenario, SynthConfig, SyntheticPipeline};
use std::sync::Arc;
use std::time::Instant;

const SHAPES: [CauseScenario; 3] = [
    CauseScenario::SingleTriple,
    CauseScenario::SingleConjunction,
    CauseScenario::DisjunctionOfConjunctions,
];

struct Case {
    pipeline: Arc<SyntheticPipeline>,
    history: Vec<(Instance, EvalResult)>,
    seed: u64,
}

struct PaperSynth {
    seed: u64,
    /// Generated inputs, extended on demand (the stream is endless).
    cases: Vec<Case>,
}

fn generate(seed: u64, i: usize) -> Case {
    let case_seed = mix(seed, i as u64);
    let config = SynthConfig {
        scenario: SHAPES[i % SHAPES.len()],
        ..SynthConfig::default()
    };
    let pipeline = Arc::new(SyntheticPipeline::generate(&config, case_seed));
    let history = pipeline.seed_history(2, 6, case_seed ^ 0xfeed);
    Case {
        pipeline,
        history,
        seed: case_seed,
    }
}

impl Workload for PaperSynth {
    const NAME: &'static str = "paper-synth";
    const REFERENCE: usize = 640;
    /// One set-up takes ~35 ms, too short to time steadily on its own.
    const SETUPS: usize = 30;

    fn repeat_setup(&mut self) -> f64 {
        let (took, _) = set_up(self.seed);
        took
    }

    fn diagnose(
        &mut self,
        i: usize,
        diag_id: u64,
        trace: Option<(&Arc<Tracer>, &mut LogProbes)>,
    ) -> Result<Done, String> {
        while self.cases.len() <= i {
            self.cases.push(generate(self.seed, self.cases.len()));
        }
        let case = &self.cases[i];
        let tracer = trace.as_ref().map(|(t, _)| *t);
        if let Some(t) = tracer {
            t.set_current(diag_id);
        }
        let timed = TimedPipeline::wrap(case.pipeline.clone(), tracer);
        let pipeline: Arc<dyn Pipeline> = timed.clone();
        let tracer = tracer.map(|t| &**t);
        let config = BugDocConfig::front_end(Strategy::Combined, DdtMode::FindAll, case.seed);

        let started = Instant::now();
        let root_start = tracer.map(|t| t.now_ns());
        let (exec, seeded) = maybe_span(tracer, diag_id, "engine.setup", ROOT, || {
            let mut prov = ProvenanceStore::new(pipeline.space().clone());
            for (inst, eval) in &case.history {
                prov.record(inst.clone(), *eval);
            }
            let seeded = prov.len();
            (
                Executor::with_provenance(pipeline, ExecutorConfig::default(), prov),
                seeded,
            )
        });
        let diag_started = Instant::now();
        let outcome = maybe_span(tracer, diag_id, "algorithms.diagnose", ROOT, || {
            diagnose(&exec, &config)
        });
        let diagnose_ms = diag_started.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(start)) = (tracer, root_start) {
            t.record(diag_id, ROOT, "", start);
        }
        let request_s = started.elapsed().as_secs_f64();

        let diagnosis = outcome.map_err(|e| format!("diagnosis failed: {e}"))?;
        let space = exec.space();
        if let Some((_, probes)) = trace {
            exec.with_provenance_ref(|p| probes.probe(p, case.seed));
        }
        Ok(Done {
            request_s,
            diagnose_ms,
            report: diagnosis.render_causes(&space),
            new_executions: diagnosis.new_executions,
            executions: timed.calls(),
            log_before: seeded,
            log_after: exec.with_provenance_ref(|p| p.len()),
            stats: exec.stats(),
            score: score_assertions(&space, case.pipeline.truth(), diagnosis.causes.conjuncts()),
        })
    }
}

/// Generates the reference inputs; returns the time it took and the inputs.
fn set_up(seed: u64) -> (f64, Vec<Case>) {
    let started = Instant::now();
    let cases = (0..PaperSynth::REFERENCE)
        .map(|i| generate(seed, i))
        .collect();
    (started.elapsed().as_secs_f64(), cases)
}

pub fn run(args: &Args) -> crate::report::Report {
    let (setup_s, cases) = set_up(args.seed);
    let mut workload = PaperSynth {
        seed: args.seed,
        cases,
    };
    crate::inprocess::run(&mut workload, args, setup_s)
}
