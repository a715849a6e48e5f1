//! Quickstart: debug the paper's Figure-1 machine-learning pipeline.
//!
//! Reproduces Example 1 end-to-end: starting from the three previously-run
//! instances of Table 1, Shortcut executes a linear number of new instances
//! and asserts `Library Version = 2` as the minimal definitive root cause;
//! the combined driver additionally surfaces the second cause
//! (`Estimator = Gradient Boosting ∧ Dataset ≠ Images`).
//!
//! Run with: `cargo run --example quickstart`

use bugdoc::prelude::*;
use bugdoc::pipelines::MlPipeline;
use std::sync::Arc;

fn main() {
    let pipeline = Arc::new(MlPipeline::new());
    let space = pipeline.space().clone();

    // The "previously run" instances the data scientist already has.
    let history = pipeline.table1_history();
    println!("Initial provenance (Table 1):\n{}", history.to_tsv());

    let exec = Executor::with_provenance(
        pipeline.clone() as Arc<dyn Pipeline>,
        ExecutorConfig::default(), // 5 workers, no budget — the paper's setup
        history,
    );

    // Step 1: plain Shortcut from the failing instance toward its disjoint
    // success, exactly as in Example 1.
    let cp_f = exec
        .with_provenance_ref(|p| p.first_failing())
        .expect("Table 1 has a failing run");
    let cp_g = exec
        .with_provenance_ref(|p| p.disjoint_successes(&cp_f).next())
        .expect("Table 1 has a disjoint success");
    let report = shortcut(&exec, &cp_f, &cp_g, &ShortcutConfig::default()).unwrap();
    println!(
        "Shortcut asserted: {}   ({} new instances)",
        report
            .cause
            .as_ref()
            .map(|c| c.display(&space).to_string())
            .unwrap_or_else(|| "∅".into()),
        report.new_executions
    );
    println!("\nProvenance after Shortcut (Table 2):\n{}", exec.provenance().to_tsv());

    // Step 2: the combined driver (Stacked Shortcut + Debugging Decision
    // Trees) digs out every root cause, including the gradient-boosting one
    // the intro reasons about. Figure 1's provenance log also contains a
    // low-scoring gradient-boosting run on Digits at version 1.0 — record it
    // so the history matches the figure.
    exec.evaluate(&pipeline.instance("Digits", "Gradient Boosting", 1.0))
        .unwrap();
    let diagnosis = diagnose(&exec, &BugDocConfig::default()).unwrap();
    println!(
        "Combined BugDoc diagnosis ({} more instances):",
        diagnosis.new_executions
    );
    for cause in diagnosis.causes.conjuncts() {
        println!("  root cause: {}", cause.display(&space));
    }

    // Sanity: both planted causes were found.
    let truth = pipeline.truth();
    let found = diagnosis
        .causes
        .conjuncts()
        .iter()
        .filter(|c| truth.matches_minimal(&space, c))
        .count();
    println!(
        "\n{found} of {} ground-truth causes recovered exactly",
        truth.len()
    );
}
