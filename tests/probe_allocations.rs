//! An allocation budget for a diagnosis.
//!
//! When executions are as cheap as the paper's synthetic pipelines, a
//! diagnosis is BugDoc's own work per question, and much of that work used
//! to be the heap: every instance copied its values, DDT's sampler built
//! index pools and a set of drawn keys for every batch, and every
//! provenance query built a bitset of the whole log. This test counts the
//! heap allocations a diagnosis makes per evaluation and holds the count to
//! a budget.
//!
//! A counting global allocator counts calls to `alloc`, `alloc_zeroed` and
//! `realloc` made on this test's thread while a diagnosis runs (a
//! thread-local flag, raised around `diagnose` only). The counters are
//! `const`-initialized thread-locals, so counting allocates nothing itself.
//! The inputs are the golden-digest suite's synthetic ones (inputs 0–59 of
//! seed 1, built as the end-to-end benchmark builds them), diagnosed with
//! the front ends' Combined FindAll configuration on an executor with one
//! worker, so every batch runs on the calling thread.

use bugdoc::prelude::*;
use bugdoc::synth::{CauseScenario, SynthConfig, SyntheticPipeline};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The budget: heap allocations per evaluation (new executions plus
/// provenance hits), over all inputs.
const ALLOCATIONS_PER_EVALUATION: f64 = 7.0;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// This thread's allocations while counting.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations while
/// [`COUNTING`] is raised.
struct Counting;

fn count() {
    // `try_with`: a thread that is exiting may have dropped its locals.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; counting touches only `const`-initialized
// thread-local cells, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `f` makes on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const SHAPES: [CauseScenario; 3] = [
    CauseScenario::SingleTriple,
    CauseScenario::SingleConjunction,
    CauseScenario::DisjunctionOfConjunctions,
];

/// The synthetic inputs' base seed, as the benchmark's `--seed`.
const SEED: u64 = 1;

/// The per-input seed the benchmark derives from its base seed (splitmix64).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Synthetic input `i` on a one-worker executor over its seeded history,
/// and its seed.
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
        ExecutorConfig {
            workers: 1,
            ..ExecutorConfig::default()
        },
        prov,
    );
    (exec, case_seed)
}

#[test]
fn a_diagnosis_allocates_at_most_seven_times_per_evaluation() {
    let (mut allocations, mut evaluations) = (0u64, 0u64);
    for i in 0..60 {
        let (exec, seed) = synthetic(i);
        let config = BugDocConfig::front_end(Strategy::Combined, DdtMode::FindAll, seed);
        let (_, n) = counted(|| diagnose(&exec, &config));
        let stats = exec.stats();
        allocations += n;
        evaluations += (stats.new_executions + stats.cache_hits) as u64;
    }
    let per_evaluation = allocations as f64 / evaluations as f64;
    eprintln!("{allocations} allocations for {evaluations} evaluations ({per_evaluation:.2} each)");
    assert!(
        per_evaluation <= ALLOCATIONS_PER_EVALUATION,
        "{allocations} allocations for {evaluations} evaluations: {per_evaluation:.2} each, \
         over the budget of {ALLOCATIONS_PER_EVALUATION}"
    );
}
