//! Golden digests of whole diagnoses.
//!
//! Each input is diagnosed end to end, and three things are hashed
//! together: the rendered cause section, the new-execution count and the
//! executor's whole provenance log as TSV (every probe, in the order it
//! ran). The constants pin the behaviour of every layer a diagnosis
//! touches, so a change that means to keep behaviour must pass with them
//! unedited. A change that moves behaviour on purpose updates them, and
//! says why.
//!
//! The inputs:
//! * synthetic pipelines of all three cause shapes, built the way the
//!   end-to-end benchmark's paper-synth workload builds them (a seeded
//!   history of 2 failing and 6 succeeding runs) and diagnosed with the
//!   front ends' Combined FindAll configuration;
//! * a few of the same diagnosed by DDT alone in FindOne mode;
//! * one historical replay, the DBSherlock pipeline, where only the
//!   recorded logs can run;
//! * one large log: a pipeline shaped like the benchmark's deep-history
//!   workload with 4,096 random runs of history, diagnosed with Combined
//!   FindAll. DDT refits a tree of thousands of runs there three times (one
//!   refit keeps every split, two move the root's test), a path the small
//!   logs above barely reach.

use bugdoc::pipelines::{DbSherlockConfig, DbSherlockDataset};
use bugdoc::prelude::*;
use bugdoc::synth::{CauseScenario, SynthConfig, SyntheticPipeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const SHAPES: [CauseScenario; 3] = [
    CauseScenario::SingleTriple,
    CauseScenario::SingleConjunction,
    CauseScenario::DisjunctionOfConjunctions,
];

/// The synthetic inputs' base seed, as the benchmark's `--seed`.
const SEED: u64 = 1;

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The per-input seed the benchmark derives from its base seed (splitmix64).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Diagnoses with `config` and digests the report, the new executions and
/// the whole log.
fn digest(exec: &Executor, config: &BugDocConfig) -> u64 {
    let space = exec.space();
    let rendered = match diagnose(exec, config) {
        Ok(d) => format!(
            "{}new executions: {}\n",
            d.render_causes(&space),
            d.new_executions
        ),
        Err(e) => format!("error: {e}\n"),
    };
    let log = exec.with_provenance_ref(|p| p.to_tsv());
    fnv1a(fnv1a(FNV_OFFSET, rendered.as_bytes()), log.as_bytes())
}

/// Synthetic input `i`: its pipeline, a fresh executor over its seeded
/// history, and its seed.
fn synthetic(i: usize) -> (Executor, u64) {
    let case_seed = mix(SEED, i as u64);
    let config = SynthConfig {
        scenario: SHAPES[i % SHAPES.len()],
        ..SynthConfig::default()
    };
    let pipeline = Arc::new(SyntheticPipeline::generate(&config, case_seed));
    let mut prov = ProvenanceStore::new(pipeline.space().clone());
    for (inst, eval) in pipeline.seed_history(2, 6, case_seed ^ 0xfeed) {
        prov.record(inst, eval);
    }
    let exec = Executor::with_provenance(
        pipeline as Arc<dyn Pipeline>,
        ExecutorConfig::default(),
        prov,
    );
    (exec, case_seed)
}

fn synthetic_digest(i: usize, strategy: Strategy, mode: DdtMode) -> u64 {
    let (exec, seed) = synthetic(i);
    digest(&exec, &BugDocConfig::front_end(strategy, mode, seed))
}

fn replay_digest() -> u64 {
    let dataset = DbSherlockDataset::generate(&DbSherlockConfig {
        n_classes: 3,
        logs_per_class: 15,
        normal_logs: 90,
        ..Default::default()
    });
    let problem = dataset.problem(0);
    let exec = Executor::with_provenance(
        Arc::new(problem.historical_pipeline()) as Arc<dyn Pipeline>,
        ExecutorConfig::default(),
        problem.initial_provenance(),
    );
    digest(&exec, &BugDocConfig::default())
}

/// Runs of random history the large-log input is seeded with.
const LARGE_LOG_RUNS: usize = 4_096;

/// The large-log input: the first pipeline of 10 parameters of 10–20 values
/// with a two-conjunct disjunctive cause failing on 7–13% of the space (as
/// the benchmark's deep-history workload picks it), 4,096 runs drawn by
/// domain index, and one Combined FindAll diagnosis.
fn large_log_digest() -> u64 {
    let config = SynthConfig {
        n_params: (10, 10),
        n_values: (10, 20),
        scenario: CauseScenario::DisjunctionOfConjunctions,
        max_conjunction_len: 2,
        extra_disjunct_prob: 0.0,
        ..SynthConfig::default()
    };
    let pipeline = (0..)
        .map(|k| SyntheticPipeline::generate(&config, mix(SEED, 1_000 + k)))
        .find(|p| (0.07..=0.13).contains(&p.truth().failure_fraction(p.space())))
        .expect("an endless search finds a plant");
    let space = pipeline.space().clone();
    let mut prov = ProvenanceStore::new(space.clone());
    let mut rng = StdRng::seed_from_u64(mix(SEED, 7));
    let mut indices = vec![0u32; space.len()];
    for _ in 0..LARGE_LOG_RUNS {
        for (slot, p) in indices.iter_mut().zip(space.ids()) {
            *slot = rng.gen_range(0..space.domain(p).len()) as u32;
        }
        let instance = space.instance_from_indices(&indices);
        let eval = pipeline
            .execute(&instance)
            .expect("synthetic pipelines run every instance");
        prov.record(instance, eval);
    }
    let exec = Executor::with_provenance(
        Arc::new(pipeline) as Arc<dyn Pipeline>,
        ExecutorConfig::default(),
        prov,
    );
    let seed = mix(SEED, 100);
    digest(
        &exec,
        &BugDocConfig::front_end(Strategy::Combined, DdtMode::FindAll, seed),
    )
}

/// Combined FindAll digests of synthetic inputs `0..60`, by input. Inputs
/// 8, 14, 17 and 32 (disjunctions over 12–15 parameters) are the slowest,
/// 0.15–0.3 s each in the debug profile.
const COMBINED: [u64; 60] = [
    0xfcffd9a1aadc7723,
    0x4a123a89470fc572,
    0x4750eeb2a9a1d37b,
    0xfba5e3f4375f9fd8,
    0x8c280a77b45a4eda,
    0x3f88fd88946e9d64,
    0x505d46d16fe143a7,
    0x47a6c8b73565acd6,
    0x297ad81a15fe4bfe,
    0x075233dc55e11e0e,
    0x16274f983ff31650,
    0xcf7cf0ae07512d5f,
    0x053b651c0b3f18c2,
    0xdc7e619a10392f38,
    0x3a03799a0d7fe273,
    0xde5aaee57c1efbe3,
    0x447f90930676c1e1,
    0x7a1c9c08c0f85154,
    0x126a4ce3b5ae6fc8,
    0xceae44bd334915a5,
    0x31fe6884f8354c11,
    0xd62b7188917cbc53,
    0x6e414ef4c1f562c0,
    0xde505e4a2f932199,
    0xfc65bc3a556c9a9b,
    0x3cfa90ca9f6a72eb,
    0xb98fa52e1bd56b82,
    0x69db61064a132822,
    0x709205f8ea3d7518,
    0xf842d530d931f983,
    0x524d817c9de03c01,
    0xb007d7356cc6d641,
    0xfed3cc106169310a,
    0xb10b714a4e9d7134,
    0x2c62c38fac56afed,
    0x7e2ef395f4d9e083,
    0xccae10dda33ff610,
    0x3d10cb3e62f91b5a,
    0xa2a3c935514964c4,
    0xec1fe15291e25a4e,
    0x0d7b7793daafb74c,
    0x6c2e925fc52c0f7b,
    0x2276a4adc664a380,
    0x160a83207208692d,
    0x316de4e6422463c4,
    0x3c641dc15c693f0f,
    0xf050ac3e168bebd2,
    0xa01b7c9c7a308c94,
    0x6fbaf4e29d61eb6f,
    0x49c5ade33d5f882c,
    0x2d3648f6abf3c350,
    0x349e26613cf23433,
    0x32efcf38e236bb06,
    0x83e2d28b6475ebeb,
    0xae23cf130c551fb8,
    0x808e5bfd14ab50fe,
    0x001d934758c28d5c,
    0x7d8242b337e04870,
    0xb91d86a83408b990,
    0x7e4c9d03930adbf2,
];

/// DDT-only FindOne digests of synthetic inputs `0..12`, by input.
const DDT_FIND_ONE: [u64; 12] = [
    0xc12f2a0432587cf3,
    0x31831c32d775bb51,
    0x1797ca330ec09aa4,
    0xddf73038b9ba2159,
    0x105bed99897dd1a3,
    0x3168a81e7e4e9d82,
    0xe12d91e5557fb1ea,
    0x6a8f70f8d4b67fe9,
    0xb46b0785c43c6460,
    0x8650dc5912ffaa24,
    0xed1820799440d79e,
    0xfda117fe55c6e113,
];

/// The DBSherlock replay's digest.
const REPLAY: u64 = 0xb95957a6e59a5523;

/// The large-log input's digest.
const LARGE_LOG: u64 = 0x93b9e676276c1d43;

#[test]
fn diagnoses_match_their_golden_digests() {
    let mut got = Vec::new();
    for (i, &want) in COMBINED.iter().enumerate() {
        got.push((
            format!("combined/find-all input {i}"),
            synthetic_digest(i, Strategy::Combined, DdtMode::FindAll),
            want,
        ));
    }
    for (i, &want) in DDT_FIND_ONE.iter().enumerate() {
        got.push((
            format!("ddt/find-one input {i}"),
            synthetic_digest(i, Strategy::DdtOnly, DdtMode::FindOne),
            want,
        ));
    }
    got.push(("dbsherlock replay".to_string(), replay_digest(), REPLAY));
    got.push(("large log".to_string(), large_log_digest(), LARGE_LOG));
    let wrong: Vec<String> = got
        .iter()
        .filter(|(_, digest, want)| digest != want)
        .map(|(name, digest, want)| format!("{name}: {digest:#018x}, expected {want:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}
