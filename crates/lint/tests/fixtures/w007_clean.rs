// The compliant twin of w007_fire.rs: the handler routes the request to the
// shared executor the factory configured and renders the reply from
// in-memory state; no handler-side file or process I/O.
impl Handler {
    pub fn handle_diagnose(&self, req: &Request) -> Reply {
        let shared = self.sessions.executor_of(req.session)?;
        let diagnosis = diagnose(&shared.exec, &self.config)?;
        Reply::report(diagnosis.render_causes(&shared.exec.space()))
    }
}
