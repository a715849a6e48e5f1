//! Reproduces Tables 1 and 2 (paper §4.1, Example 1): the initial
//! classification-pipeline history, the Shortcut walk, and the asserted
//! minimal definitive root cause `Library Version = 2`.

use bugdoc_algorithms::{shortcut, ShortcutConfig};
use bugdoc_engine::{Executor, ExecutorConfig, Pipeline};
use bugdoc_pipelines::MlPipeline;
use std::sync::Arc;

fn main() {
    let pipeline = Arc::new(MlPipeline::new());
    let space = pipeline.space().clone();
    let table1 = pipeline.table1_history();

    println!("Table 1: An initial (given) set of classification pipeline instances");
    println!("{}", table1.to_tsv());

    let exec = Executor::with_provenance(
        pipeline.clone() as Arc<dyn Pipeline>,
        ExecutorConfig::default(),
        table1,
    );

    // Example 1's CP_f and CP_g: the only failing instance and its only
    // disjoint success.
    let cp_f = exec
        .with_provenance_ref(|p| p.first_failing())
        .expect("Table 1 contains a failing instance");
    let cp_g = exec
        .with_provenance_ref(|p| p.disjoint_successes(&cp_f).next())
        .expect("Table 1 contains a disjoint success");
    println!("CP_f = {}", cp_f.display(&space));
    println!("CP_g = {}\n", cp_g.display(&space));

    let report = shortcut(&exec, &cp_f, &cp_g, &ShortcutConfig::default())
        .expect("Shortcut runs on Example 1");

    println!(
        "Table 2: instances after Shortcut (new instances created: {})",
        report.new_executions
    );
    println!("{}", exec.provenance().to_tsv());

    match report.cause {
        Some(cause) => println!(
            "Asserted minimal definitive root cause: {}",
            cause.display(&space)
        ),
        None => println!("Shortcut refuted its assertion (unexpected for Example 1)"),
    }
}
