// Deliberate W002 violation: a pipeline execution while a provenance write
// guard is live — the executor-stall shape PR 1's lock split removed.
impl Stall {
    pub fn evaluate_under_lock(&self, instance: &Instance) -> Outcome {
        let guard = self.provenance.write();
        let eval = self.pipeline.execute(instance);
        guard.note(eval)
    }
}
