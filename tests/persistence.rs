//! Crash-recovery conformance for durable provenance.
//!
//! The guarantees under test, end to end:
//!
//! * **Exact prefix** — truncating the WAL at *any* byte offset (the
//!   crash/bitrot model) and recovering yields exactly the runs whose
//!   frames ended at or before the cut: never a panic, never a phantom or
//!   altered run, never a lost earlier run (proptest over random spaces,
//!   run logs, and cut points).
//! * **Kill-and-reopen** — an executor killed with a garbage half-frame on
//!   its WAL tail reopens warm with every completed run intact.
//! * **No splice** — a session that appends after recovery cut the log
//!   mid-way reopens with exactly that session's history, and a
//!   checksum-valid frame that repeats a recovered instance truncates the
//!   log instead of panicking recovery.
//! * **Bit-identical resumed diagnosis** — on the paper pipelines, a
//!   diagnosis run with persistence on, killed mid-run (budget-starved or
//!   tail-truncated) and resumed, asserts exactly the same root causes as
//!   an uninterrupted in-memory run.

use bugdoc::pipelines::MlPipeline;
use bugdoc::prelude::*;
use bugdoc::core::RunRef;
use bugdoc::store::{DurableStore, Wal};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bugdoc-persistence-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn random_space(rng: &mut StdRng) -> Arc<ParamSpace> {
    let n_params = rng.gen_range(2..=4usize);
    let mut b = ParamSpace::builder();
    for p in 0..n_params {
        let len = rng.gen_range(2..=5usize);
        b = if rng.gen_range(0..2u32) == 0 {
            b.ordinal(format!("p{p}"), (0..len as i64).collect::<Vec<_>>())
        } else {
            b.categorical(
                format!("p{p}"),
                (0..len).map(|v| format!("v{v}")).collect::<Vec<_>>(),
            )
        };
    }
    b.build()
}

/// Deterministic outcome so duplicate draws never trip the determinism check.
fn outcome_of(inst: &Instance) -> Outcome {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    inst.hash(&mut h);
    Outcome::from_check(!h.finish().is_multiple_of(3))
}

fn random_instance(space: &Arc<ParamSpace>, rng: &mut StdRng) -> Instance {
    let indices: Vec<u32> = space
        .ids()
        .map(|p| rng.gen_range(0..space.domain(p).len()) as u32)
        .collect();
    space.instance_from_indices(&indices)
}

/// The write-ahead log file of persist directory `dir`.
fn log_path(dir: &Path) -> PathBuf {
    dir.join("wal-00000001.seg")
}

fn log_len(dir: &Path) -> u64 {
    std::fs::metadata(log_path(dir)).unwrap().len()
}

/// Truncates the log at byte offset `cut` (the crash/bitrot model; here
/// we do the damage, recovery must cope).
fn truncate_log_at(dir: &Path, cut: u64) {
    std::fs::OpenOptions::new()
        .write(true)
        .open(log_path(dir))
        .unwrap()
        .set_len(cut)
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Truncate the WAL at an arbitrary byte offset: recovery must yield an
    /// exact prefix of the recorded runs — never a panic, never a phantom
    /// run, and every run whose frame ended at or before the cut survives.
    #[test]
    fn truncated_wal_recovers_exact_prefix(
        seed in any::<u64>(),
        n_runs in 1usize..80,
        cut_selector in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = random_space(&mut rng);
        let dir = tmp_dir(&format!("prefix-{seed}-{n_runs}"));
        let config = PersistConfig::new(&dir);

        let (mut live, mut durable, _) = DurableStore::open(&space, &config).unwrap();
        // Record a random log, tracking each record's exclusive end
        // offset in the WAL.
        let mut ends: Vec<u64> = Vec::new();
        for _ in 0..n_runs {
            let inst = random_instance(&space, &mut rng);
            let eval = EvalResult::of(outcome_of(&inst));
            if live.record(inst.clone(), eval) {
                let run = live.runs().last().unwrap();
                durable.append(run, &space).unwrap();
                ends.push(durable.position());
            }
        }
        drop(durable);
        let original: Vec<_> = live.runs().to_vec();
        prop_assert_eq!(ends.len(), original.len());

        let total = log_len(&dir);
        let cut = cut_selector % (total + 1);
        let expected = ends.iter().filter(|&&end| end <= cut).count();

        truncate_log_at(&dir, cut);

        let (recovered, _, recovery) = DurableStore::open(&space, &config).unwrap();
        prop_assert_eq!(recovered.len(), expected, "cut at {} of {}", cut, total);
        prop_assert_eq!(recovery.runs, expected);
        for (got, want) in recovered.runs().iter().zip(&original) {
            prop_assert_eq!(&got.instance, &want.instance);
            prop_assert_eq!(got.eval.outcome, want.eval.outcome);
            prop_assert_eq!(got.eval.score, want.eval.score);
        }
        // Recovery's own truncation is final: a second open is clean and
        // byte-identical.
        let (again, _, second) = DurableStore::open(&space, &config).unwrap();
        prop_assert_eq!(again.len(), expected);
        prop_assert_eq!(second.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Appends `n` new random runs (half of them scored) to both the live
/// store and the WAL, returning each appended frame's exclusive end
/// offset.
fn append_random_runs(
    live: &mut ProvenanceStore,
    durable: &mut DurableStore,
    space: &Arc<ParamSpace>,
    rng: &mut StdRng,
    n: usize,
) -> Vec<u64> {
    let mut ends = Vec::with_capacity(n);
    while ends.len() < n {
        let inst = random_instance(space, rng);
        let outcome = outcome_of(&inst);
        let score = (rng.gen_range(0..2u32) == 0).then(|| rng.gen_range(0..1000u32) as f64 / 8.0);
        if live.record(inst, EvalResult { outcome, score }) {
            durable.append(live.runs().last().unwrap(), space).unwrap();
            ends.push(durable.position());
        }
    }
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Recovery at the log sizes a long-lived persist directory reaches:
    /// 4,200 WAL frames, cut at a seeded byte offset in the log's second
    /// half. Reopening yields the appended
    /// prefix run for run, and the cut is final: a second open discards
    /// nothing.
    #[test]
    fn large_log_recovers_exact_prefix_after_tail_cut(
        seed in any::<u64>(),
        cut_selector in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = ParamSpace::builder()
            .ordinal("a", (0..16).collect::<Vec<_>>())
            .ordinal("b", (0..16).collect::<Vec<_>>())
            .categorical("c", (0..8).map(|v| format!("v{v}")).collect::<Vec<_>>())
            .ordinal("d", (0..8).collect::<Vec<_>>())
            .build();
        let dir = tmp_dir(&format!("large-{seed}"));
        let config = PersistConfig::new(&dir);

        let (mut live, mut durable, _) = DurableStore::open(&space, &config).unwrap();
        let ends = append_random_runs(&mut live, &mut durable, &space, &mut rng, 4_200);
        drop(durable);
        let original: Vec<_> = live.runs().to_vec();
        let log_end = *ends.last().unwrap();
        prop_assert_eq!(log_end, log_len(&dir));

        let half = ends[ends.len() / 2 - 1];
        let cut = half + cut_selector % (log_end - half + 1);
        let expected = ends.iter().filter(|&&end| end <= cut).count();
        truncate_log_at(&dir, cut);

        let (recovered, _, recovery) = DurableStore::open(&space, &config).unwrap();
        prop_assert_eq!(recovery.runs, expected);
        prop_assert_eq!(recovered.len(), expected, "cut at {} of {}", cut, log_end);
        for (got, want) in recovered.runs().iter().zip(&original) {
            prop_assert_eq!(&got.instance, &want.instance);
            prop_assert_eq!(got.eval.outcome, want.eval.outcome);
            prop_assert_eq!(got.eval.score, want.eval.score);
        }
        let (again, _, second) = DurableStore::open(&space, &config).unwrap();
        prop_assert_eq!(again.len(), expected);
        prop_assert_eq!(second.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Damage inside the log, then a session that recovers the prefix and
/// appends more: the next open must return exactly that session's history.
/// A recovery that resumed from a remembered log position past the damage
/// would start mid-frame in the new appends, discard them as torn, and
/// splice the log.
#[test]
fn reopen_after_mid_log_damage_keeps_every_later_append() {
    let dir = tmp_dir("splice");
    let space = ParamSpace::builder()
        .ordinal("x", (0..8).collect::<Vec<_>>())
        .ordinal("y", (0..8).collect::<Vec<_>>())
        .build();
    let config = PersistConfig::new(&dir);
    let mut fresh = space.instances();
    let mut append = |live: &mut ProvenanceStore, durable: &mut DurableStore| {
        let inst = fresh.next().unwrap();
        let eval = EvalResult::of(outcome_of(&inst));
        assert!(live.record(inst, eval));
        durable.append(live.runs().last().unwrap(), &space).unwrap();
        durable.position()
    };

    // Session 1: ten runs, closed gracefully.
    let (mut live, mut durable, _) = DurableStore::open(&space, &config).unwrap();
    let ends: Vec<u64> = (0..10).map(|_| append(&mut live, &mut durable)).collect();
    durable.close(&live).unwrap();

    // Cut the log in the middle of its fourth frame.
    truncate_log_at(&dir, ends[2] + 5);

    // Session 2: recovers what survived the cut, appends ten new runs.
    let (mut live, mut durable, _) = DurableStore::open(&space, &config).unwrap();
    for _ in 0..10 {
        append(&mut live, &mut durable);
    }
    drop(durable);

    // Session 3 sees session 2's history run for run, with nothing torn.
    let (recovered, _, recovery) = DurableStore::open(&space, &config).unwrap();
    assert_eq!(recovered.len(), live.len(), "recovered a spliced history");
    assert_eq!(recovered.runs(), live.runs());
    assert_eq!(recovery.truncated_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checksum-valid frame that repeats a recovered instance — here with the
/// other outcome — is damage: no writer appends a run the store already
/// holds. Recovery truncates the log there, as at a torn frame, instead of
/// tripping the store's determinism assert.
#[test]
fn conflicting_duplicate_frame_truncates_instead_of_panicking() {
    let dir = tmp_dir("duplicate");
    std::fs::create_dir_all(&dir).unwrap();
    let space = ParamSpace::builder()
        .ordinal("x", (0..4).collect::<Vec<_>>())
        .ordinal("y", (0..4).collect::<Vec<_>>())
        .build();
    let key = |x: u32| [x, 0];
    fn frame(key: &[u32], outcome: Outcome) -> RunRef<'_> {
        RunRef {
            key,
            eval: EvalResult::of(outcome),
        }
    }
    let (mut wal, _) = Wal::open(&dir, bugdoc::store::space_digest(&space), |_| true).unwrap();
    wal.append(frame(&key(1), Outcome::Succeed)).unwrap();
    wal.append(frame(&key(1), Outcome::Fail)).unwrap();
    wal.append(frame(&key(2), Outcome::Succeed)).unwrap();
    drop(wal);

    let config = PersistConfig::new(&dir);
    let (recovered, durable, recovery) = DurableStore::open(&space, &config).unwrap();
    assert_eq!(recovery.runs, 1);
    assert!(
        recovery.truncated_bytes > 0,
        "the duplicate and what follows are cut"
    );
    assert_eq!(
        recovered.outcome_of(&space.instance_from_indices(&[1, 0])),
        Some(Outcome::Succeed)
    );
    drop(durable);
    let (_, _, again) = DurableStore::open(&space, &config).unwrap();
    assert_eq!(again.runs, 1);
    assert_eq!(again.truncated_bytes, 0, "the second open is clean");
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-and-reopen through the executor: a run killed with a half-written
/// frame on the WAL tail reopens with every completed run intact and the
/// garbage discarded.
#[test]
fn killed_executor_reopens_with_completed_runs() {
    let dir = tmp_dir("kill");
    let space = ParamSpace::builder()
        .ordinal("x", (0..6).collect::<Vec<_>>())
        .ordinal("y", (0..6).collect::<Vec<_>>())
        .build();
    let x = space.by_name("x").unwrap();
    let make_pipeline = {
        let space = space.clone();
        move || {
            let x = space.by_name("x").unwrap();
            Arc::new(FnPipeline::new(space.clone(), move |i: &Instance| {
                EvalResult::of(Outcome::from_check(i.get(x) != &Value::from(3)))
            })) as Arc<dyn Pipeline>
        }
    };
    let config = || ExecutorConfig {
        workers: 3,
        persist: Some(PersistConfig {
            sync_every: Some(10),
            ..PersistConfig::new(&dir)
        }),
        ..Default::default()
    };

    let exec = Executor::new(make_pipeline(), config());
    let all: Vec<Instance> = space.instances().collect();
    exec.evaluate_batch(&all);
    assert_eq!(exec.stats().new_executions, 36);
    drop(exec); // the "kill": no shutdown hook exists, nothing to flush

    // Simulate the torn half-frame a mid-write kill leaves behind.
    let mut bytes = std::fs::read(log_path(&dir)).unwrap();
    bytes.extend_from_slice(&[0x17, 0xFF, 0x03, 0x00, 0xAB]);
    std::fs::write(log_path(&dir), &bytes).unwrap();

    let exec = Executor::new(make_pipeline(), config());
    let recovery = exec.recovery().unwrap();
    assert_eq!(recovery.runs, 36, "every completed run survives the kill");
    assert!(recovery.truncated_bytes >= 5, "the garbage tail was discarded");
    for inst in &all {
        let expected = Outcome::from_check(inst.get(x) != &Value::from(3));
        assert_eq!(exec.evaluate(inst), Ok(expected));
    }
    assert_eq!(exec.stats().new_executions, 0);
    assert_eq!(exec.stats().cache_hits, 36);
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `diagnose` on the ML paper pipeline and returns the causes plus the
/// executor's final provenance length.
fn ml_diagnosis(persist: Option<PersistConfig>, budget: Option<usize>) -> (Dnf, usize) {
    let pipeline = Arc::new(MlPipeline::new());
    let mut prov = pipeline.table1_history();
    let gb = pipeline.instance("Digits", "Gradient Boosting", 1.0);
    prov.record(
        gb.clone(),
        bugdoc::engine::Pipeline::execute(pipeline.as_ref(), &gb).unwrap(),
    );
    let exec = Executor::with_provenance(
        pipeline as Arc<dyn Pipeline>,
        ExecutorConfig {
            workers: 5,
            budget,
            persist,
        },
        prov,
    );
    let diagnosis = diagnose(&exec, &BugDocConfig::default()).unwrap();
    (diagnosis.causes, exec.provenance().len())
}

/// The acceptance property: a diagnosis with `persist_dir` set, killed
/// mid-run and resumed, asserts bit-identical root causes to an
/// uninterrupted, purely in-memory run on the paper pipeline.
#[test]
fn resumed_diagnosis_is_bit_identical_to_in_memory() {
    let (reference, _) = ml_diagnosis(None, None);
    assert!(!reference.is_empty(), "the ML pipeline has known root causes");

    // Kill model 1: budget starvation — the first run stops mid-search
    // after 2 new executions, leaving a short WAL.
    let dir = tmp_dir("resume-budget");
    let persist = || {
        Some(PersistConfig {
            sync_every: Some(4),
            ..PersistConfig::new(&dir)
        })
    };
    let (_, partial_runs) = ml_diagnosis(persist(), Some(2));
    let (resumed, _) = ml_diagnosis(persist(), None);
    assert!(partial_runs > 0);
    assert_eq!(
        resumed, reference,
        "budget-starved then resumed diagnosis diverged from in-memory"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Kill model 2: a full run whose WAL tail is then torn off at an
    // arbitrary offset (mid-frame), leaving a strict prefix to resume from.
    let dir = tmp_dir("resume-torn");
    let persist = || Some(PersistConfig::new(&dir));
    let (first, _) = ml_diagnosis(persist(), None);
    assert_eq!(first, reference);
    truncate_log_at(&dir, log_len(&dir) * 2 / 3 + 1);
    let (resumed, _) = ml_diagnosis(persist(), None);
    assert_eq!(
        resumed, reference,
        "torn-tail resumed diagnosis diverged from in-memory"
    );
    std::fs::remove_dir_all(&dir).ok();
}
