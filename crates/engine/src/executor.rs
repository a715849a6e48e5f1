//! The execution engine: a budgeted, parallel dispatcher for pipeline
//! instances that answers known instances from provenance.
//!
//! "The current prototype of BugDoc contains a dispatching component that
//! runs in a single thread and spawns multiple pipeline instances in
//! parallel. In our experiments, we used five execution engine workers"
//! (paper §5). The executor reproduces that architecture:
//!
//! * every execution is recorded in the [`ProvenanceStore`]; re-evaluating a
//!   known instance is a provenance hit and costs nothing (the paper's cost
//!   measure counts only *new* executions);
//! * an optional **instance budget** bounds new executions — the evaluation
//!   grants each baseline "the same number of instances" (§5);
//! * a **virtual clock** accumulates the schedule makespan of every batch
//!   at the configured worker count, which is what the scalability study
//!   measures (§5.2). It does not depend on real threads: a batch runs on
//!   `workers` scoped threads only when its pipeline is slow enough to pay
//!   for starting them (see [`Executor::evaluate_batch`]), and on the
//!   calling thread otherwise.
//!
//! # Concurrency layout
//!
//! The [`ProvenanceStore`] is the one copy of the run history. Every probe
//! is a single [`ProvenanceStore::outcome_of`] — a dense-key hash probe into
//! the store's key index, then the run's outcome bit — under the store's
//! shared read lock, so hits (by far
//! the most frequent operation the search layers issue) from many threads
//! proceed together. The write lock is held only to record a new execution.
//! Provenance queries, single evaluations, cheap batches and WAL appends
//! all run on the calling thread; a batch's scoped threads only execute
//! pipelines.
//! Statistics are individual atomics ([`Ordering::SeqCst`] reservations for
//! the budget, relaxed counters elsewhere), so `stats()` never blocks the
//! workers.
//!
//! Budget accounting stays exact under concurrency: a new execution
//! *reserves* its budget slot with a compare-and-swap before running, releases
//! it if the pipeline is unavailable or panics, and reclassifies itself as a
//! hit if another worker recorded the same instance first (the determinism
//! guarantee makes the two results interchangeable), so
//! `new_executions == provenance.len() - seeded` always holds.

use crate::pipeline::{Pipeline, PipelineError, SimTime};
use bugdoc_core::{
    EvalResult, FxBuildHasher, Instance, Outcome, ParamSpace, ProvenanceStore, RunRef,
};
use bugdoc_store::{DurableStore, PersistConfig, PersistError, Recovery};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What starting one batch thread costs: one scoped spawn plus join
/// measured 22–34 µs on a 2-core host (a 4-thread scope took 81–100 µs).
/// A batch whose new instances would finish on the calling thread before
/// their threads could start runs there instead.
const THREAD_START: Duration = Duration::from_micros(25);

/// Why the executor could not evaluate an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The new-instance budget is exhausted. Algorithms treat this as "stop
    /// refining and report the best assertion so far".
    BudgetExhausted,
    /// The pipeline cannot execute this instance (historical replay gap).
    Unavailable,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BudgetExhausted => write!(f, "instance budget exhausted"),
            ExecError::Unavailable => write!(f, "instance unavailable"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Machines the virtual clock schedules each batch on, and the most
    /// threads a batch of slow pipeline executions runs on
    /// ([`Executor::evaluate_batch`]). The paper used 5. Provenance
    /// queries never use threads: they run on the calling thread.
    pub workers: usize,
    /// Maximum number of *new* pipeline executions (provenance hits are free).
    /// `None` = unbounded.
    pub budget: Option<usize>,
    /// Durable provenance (default: off). When set, the executor recovers
    /// any history already in the directory at construction (a warm start —
    /// recovered runs behave exactly like seeded provenance) and tees every
    /// newly recorded execution to the write-ahead log; see [`PersistConfig`]
    /// and the `bugdoc-store` crate docs.
    pub persist: Option<PersistConfig>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 5,
            budget: None,
            persist: None,
        }
    }
}

/// Execution statistics, for reports and the scalability figures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Instances executed by this executor (excludes pre-seeded provenance).
    pub new_executions: usize,
    /// Evaluations answered from provenance without executing (provenance
    /// hits and racing duplicates combined).
    pub cache_hits: usize,
    /// Requests refused because the pipeline could not run the instance.
    pub unavailable: usize,
    /// Requests refused because the budget was exhausted.
    pub budget_refusals: usize,
    /// Virtual time elapsed: the makespan of all executions scheduled on
    /// `workers` machines.
    pub sim_time: SimTime,
    // Fields kept only for the end-to-end benchmark (`e2ebench/`), which
    // compiles against them and is their only reader; ROADMAP direction 2's
    // benchmark step drops those reads and then deletes the fields. They
    // are not in `counter_fields`, so `STATS` and `METRICS` omit them.
    /// Always 0.
    pub epochs_scanned: u64,
    /// Always 0.
    pub parallel_epoch_queries: u64,
    /// Always 0.
    pub bounds_pruned_subtrees: u64,
    /// Always 0.
    pub bounds_short_circuits: u64,
    /// Always 0.
    pub bounds_fallthroughs: u64,
}

impl ExecStats {
    /// The statistics accrued since `baseline` was snapshotted — the
    /// per-session view a diagnosis service reports when many sessions
    /// share one executor. Counters subtract saturating (a counter can
    /// only grow, but `release_slot`/`reclassify_as_hit` make
    /// `new_executions` momentarily non-monotonic under races).
    pub fn since(&self, baseline: &ExecStats) -> ExecStats {
        ExecStats {
            new_executions: self.new_executions.saturating_sub(baseline.new_executions),
            cache_hits: self.cache_hits.saturating_sub(baseline.cache_hits),
            unavailable: self.unavailable.saturating_sub(baseline.unavailable),
            budget_refusals: self.budget_refusals.saturating_sub(baseline.budget_refusals),
            sim_time: SimTime::from_secs((self.sim_time.secs() - baseline.sim_time.secs()).max(0.0)),
            ..ExecStats::default()
        }
    }

    /// Every counter field as a `(name, value)` pair, in declaration order.
    /// This is the single source of truth consumers iterate instead of
    /// naming fields one by one — the serve daemon's `STATS` block and the
    /// `METRICS` bridge both render from it, so adding a counter here
    /// automatically surfaces it everywhere (and the wire-parity test
    /// fails if a renderer goes stale). `sim_time` is excluded: it is a
    /// duration, not a counter.
    pub fn counter_fields(&self) -> [(&'static str, u64); 4] {
        [
            ("new_executions", self.new_executions as u64),
            ("cache_hits", self.cache_hits as u64),
            ("unavailable", self.unavailable as u64),
            ("budget_refusals", self.budget_refusals as u64),
        ]
    }
}

/// Lock-free execution statistics (assembled into [`ExecStats`] on demand).
#[derive(Default)]
struct AtomicStats {
    new_executions: AtomicUsize,
    cache_hits: AtomicUsize,
    unavailable: AtomicUsize,
    budget_refusals: AtomicUsize,
    /// Budget slots reserved by diagnosis sessions but not yet executed
    /// (admission control; see [`Executor::try_reserve_session`]).
    session_reserved: AtomicUsize,
    /// Virtual-clock seconds, stored as `f64` bits.
    sim_time_bits: AtomicU64,
    /// Wall-clock nanoseconds spent in `Pipeline::execute` and `cost`, and
    /// the executions they cover: their mean decides whether a batch runs
    /// on threads. Not part of [`ExecStats`].
    execute_ns: AtomicU64,
    timed_executions: AtomicU64,
}

impl AtomicStats {
    fn add_sim_time(&self, t: SimTime) {
        let _ = self
            .sim_time_bits
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |bits| {
                Some((f64::from_bits(bits) + t.secs()).to_bits())
            });
    }

    /// Snapshot of every counter.
    fn snapshot(&self) -> ExecStats {
        ExecStats {
            new_executions: self.new_executions.load(Ordering::SeqCst),
            cache_hits: self.cache_hits.load(Ordering::SeqCst),
            unavailable: self.unavailable.load(Ordering::SeqCst),
            budget_refusals: self.budget_refusals.load(Ordering::SeqCst),
            sim_time: SimTime::from_secs(f64::from_bits(
                self.sim_time_bits.load(Ordering::SeqCst),
            )),
            ..ExecStats::default()
        }
    }
}

/// Budget slots reserved for executions whose outcome is not yet settled.
/// Each slot is settled once: kept as a recorded execution, or handed back
/// by `release_slot` / `reclassify_as_hit`. Dropping the guard releases the
/// slots still unsettled, so a pipeline that panics mid-execution gives its
/// slots back on the unwind and `new_executions == provenance.len() -
/// seeded` holds for an executor that keeps serving afterwards.
struct Reserved<'a> {
    stats: &'a AtomicStats,
    slots: usize,
}

impl Reserved<'_> {
    /// Marks one slot settled by its caller.
    fn settle(&mut self) {
        self.slots -= 1;
    }
}

impl Drop for Reserved<'_> {
    fn drop(&mut self) {
        if self.slots > 0 {
            self.stats
                .new_executions
                .fetch_sub(self.slots, Ordering::SeqCst);
        }
    }
}

/// The budgeted, parallel instance dispatcher.
pub struct Executor {
    pipeline: Arc<dyn Pipeline>,
    config: ExecutorConfig,
    provenance: RwLock<ProvenanceStore>,
    stats: AtomicStats,
    /// The durable-provenance writer, when persistence is configured. Locked
    /// only on the new-execution record path (never on provenance hits):
    /// appends and each record phase's flush lock it while the provenance
    /// write lock is held, so WAL frame order equals run-log order, and the
    /// due sync after that lock is released. The inner `Option` exists for
    /// [`Executor::shutdown`], which takes the store out (from `&self`) to
    /// close it gracefully; it is `Some` for the executor's whole serving
    /// life.
    persist: Option<Mutex<Option<DurableStore>>>,
    /// What recovery found at construction (persistence only).
    recovery: Option<Recovery>,
}

impl Executor {
    /// Creates an executor with an empty history.
    ///
    /// Panics if [`ExecutorConfig::persist`] is set and the durable store
    /// cannot be opened; use [`Executor::try_new`] to handle that.
    pub fn new(pipeline: Arc<dyn Pipeline>, config: ExecutorConfig) -> Self {
        Executor::try_new(pipeline, config)
            // lint: allow(W003, reason = "documented panicking constructor; try_new is the fallible variant")
            .unwrap_or_else(|e| panic!("cannot open durable provenance: {e}"))
    }

    /// Creates an executor pre-seeded with previously-run instances. Seeded
    /// runs do not count against the budget or the execution statistics.
    ///
    /// Panics if [`ExecutorConfig::persist`] is set and the durable store
    /// cannot be opened; use [`Executor::try_with_provenance`] to handle
    /// that.
    pub fn with_provenance(
        pipeline: Arc<dyn Pipeline>,
        config: ExecutorConfig,
        provenance: ProvenanceStore,
    ) -> Self {
        Executor::try_with_provenance(pipeline, config, provenance)
            // lint: allow(W003, reason = "documented panicking constructor; try_with_provenance is the fallible variant")
            .unwrap_or_else(|e| panic!("cannot open durable provenance: {e}"))
    }

    /// Like [`Executor::new`], surfacing durable-store errors.
    pub fn try_new(
        pipeline: Arc<dyn Pipeline>,
        config: ExecutorConfig,
    ) -> Result<Self, PersistError> {
        let provenance = ProvenanceStore::new(pipeline.space().clone());
        Executor::try_with_provenance(pipeline, config, provenance)
    }

    /// Like [`Executor::with_provenance`], surfacing durable-store errors.
    ///
    /// With persistence configured this is the **warm-start path**: the
    /// directory's existing history is recovered first, then the caller's
    /// seed runs are merged in (novel ones are appended to the WAL), and the
    /// union seeds the executor. Seeded and recovered runs alike are
    /// answered as provenance hits, so
    /// `new_executions == provenance.len() - seeded` keeps holding. A seed
    /// run whose outcome contradicts the recovered history is
    /// [`PersistError::ConflictingSeed`].
    pub fn try_with_provenance(
        pipeline: Arc<dyn Pipeline>,
        config: ExecutorConfig,
        provenance: ProvenanceStore,
    ) -> Result<Self, PersistError> {
        let (provenance, persist, recovery) = match &config.persist {
            None => (provenance, None, None),
            Some(persist_config) => {
                let (mut recovered, mut durable, recovery) =
                    DurableStore::open(pipeline.space(), persist_config)?;
                // A seed run the history contradicts is refused before any
                // seed run is appended, so the directory is left as it was
                // found (the dropped store releases the lock). Seeds are read
                // by key: no instance is built unless one must be reported.
                let seeds = provenance.runs();
                let conflict = seeds.refs().find_map(|run| {
                    recovered
                        .outcome_of_key(run.key)
                        .filter(|&persisted| persisted != run.outcome())
                        .map(|persisted| (run, persisted))
                });
                if let Some((run, persisted)) = conflict {
                    return Err(PersistError::ConflictingSeed {
                        instance: run
                            .instance(provenance.space())
                            .display(recovered.space())
                            .to_string(),
                        persisted,
                        seeded: run.outcome(),
                    });
                }
                for run in seeds.refs() {
                    if recovered.record_key(run.key, run.eval) {
                        durable.append(run, recovered.space())?;
                        durable.sync_if_due()?;
                    }
                }
                durable.flush()?;
                (recovered, Some(Mutex::new(Some(durable))), Some(recovery))
            }
        };
        Ok(Executor {
            pipeline,
            config,
            provenance: RwLock::new(provenance),
            stats: AtomicStats::default(),
            persist,
            recovery,
        })
    }

    /// What crash recovery found when the durable store was opened (`None`
    /// when persistence is off).
    pub fn recovery(&self) -> Option<Recovery> {
        self.recovery
    }

    /// Tees a run `prov` just recorded, `instance` evaluated as `eval`, to
    /// the write-ahead log's pending frames: the frame is encoded from the
    /// instance's dense key, so nothing is read back from the store. Called
    /// with the provenance write lock held so frame order matches run-log
    /// order; the record phase then writes its frames with one
    /// [`Executor::persist_flush`] before it drops that lock. A no-op (one
    /// `None` check) when persistence is off.
    /// A failure here panics — a record past the frame format's bounds, or
    /// the write of an append that takes the pending frames past their
    /// 64 KiB bound: the executor cannot honor its durability contract, and
    /// continuing would silently fork disk from memory.
    // lint: allow(W003, reason = "the panics on a frame the codec refuses, on the write at the pending-buffer bound and on a post-shutdown record are the documented durability contract -- continuing would silently fork disk from memory", scope = "block")
    fn persist_record(&self, prov: &ProvenanceStore, instance: &Instance, eval: EvalResult) {
        if let Some(persist) = &self.persist {
            let run = RunRef {
                key: instance.dense_key(),
                eval,
            };
            persist
                .lock()
                .as_mut()
                .expect("record after Executor::shutdown closed the durable store")
                .append(run, prov.space())
                .unwrap_or_else(|e| panic!("durable provenance write failed: {e}"));
        }
    }

    /// Ends a record phase: writes the frames its
    /// [`Executor::persist_record`] calls appended with one `write(2)`.
    /// Called before the phase drops the provenance write lock, so no run
    /// is readable before its frame is in the OS page cache; a no-op (one
    /// `None` check) when persistence is off. Returns whether a WAL sync is
    /// due — the caller runs it via [`Executor::persist_sync_if_due`]
    /// *after* releasing the write lock, so the fsync never holds the
    /// provenance lock.
    /// A failed write panics, after `record` has published the phase's
    /// runs: the executor cannot honor its durability contract, and
    /// continuing would silently fork disk from memory.
    // lint: allow(W003, reason = "the panic on the record phase's failed WAL write is the documented durability contract -- continuing would silently fork disk from memory", scope = "block")
    fn persist_flush(&self) -> bool {
        let Some(persist) = &self.persist else {
            return false;
        };
        let mut slot = persist.lock();
        let Some(durable) = slot.as_mut() else {
            return false;
        };
        durable
            .flush()
            .unwrap_or_else(|e| panic!("durable provenance write failed: {e}"));
        durable.sync_due()
    }

    /// Runs the due WAL sync holding only the persist mutex, so probes keep
    /// reading the provenance while it runs; a record racing it waits at
    /// the mutex for its append. Racing callers are fine: the due flag is
    /// re-checked under the mutex and the loser no-ops, as does a sync
    /// racing a shutdown that already closed the store.
    // lint: allow(W003, reason = "the panic on WAL sync failure is the documented durability contract, as in persist_record", scope = "block")
    fn persist_sync_if_due(&self, due: bool) {
        if !due {
            return;
        }
        if let Some(persist) = &self.persist {
            if let Some(durable) = persist.lock().as_mut() {
                durable
                    .sync_if_due()
                    .unwrap_or_else(|e| panic!("durable provenance sync failed: {e}"));
            }
        }
    }

    /// Gracefully closes durable provenance: fsyncs the WAL and releases
    /// the persist-directory lock — the SIGTERM path of a long-lived serving
    /// process, after which the directory warm-starts cleanly in the next
    /// process. Idempotent; a no-op (returning `false`) when persistence is
    /// off or already shut down. Callers must have stopped issuing
    /// evaluations first: a record arriving after shutdown is a
    /// durability-contract panic, not a silent fork of disk from memory.
    pub fn shutdown(&self) -> Result<bool, PersistError> {
        let Some(persist) = &self.persist else {
            return Ok(false);
        };
        // The record path's order: provenance lock, then the persist lock.
        // `close` checks the history against its log; the read lock holds
        // that history still without stalling readers, and no record may
        // follow a shutdown anyway.
        let prov = self.provenance.read();
        let taken = persist.lock().take();
        match taken {
            Some(durable) => durable.close(&prov).map(|()| true),
            None => Ok(false),
        }
    }

    /// The pipeline's parameter space.
    pub fn space(&self) -> Arc<ParamSpace> {
        self.pipeline.space().clone()
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// The executable instance set, if the pipeline is a finite replay
    /// (see [`Pipeline::available_instances`]).
    pub fn available_instances(&self) -> Option<Vec<Instance>> {
        self.pipeline.available_instances()
    }

    /// Remaining new-execution budget (`None` = unbounded).
    pub fn remaining_budget(&self) -> Option<usize> {
        self.config
            .budget
            .map(|b| b.saturating_sub(self.stats.new_executions.load(Ordering::SeqCst)))
    }

    /// Reserves `n` budget slots for a diagnosis session — **admission
    /// control**, not execution accounting. A multi-session service calls
    /// this before admitting a session so concurrent sessions cannot
    /// collectively oversubscribe the shared budget: the CAS succeeds only
    /// while `executed + reserved + n <= budget`. The reservation does not
    /// change what [`Executor::evaluate`] admits (the per-execution gate
    /// stays exact); pair every successful call with
    /// [`Executor::release_session`] when the session ends. Always succeeds
    /// when the budget is unbounded.
    pub fn try_reserve_session(&self, n: usize) -> bool {
        let Some(budget) = self.config.budget else {
            return true;
        };
        self.stats
            .session_reserved
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |reserved| {
                let executed = self.stats.new_executions.load(Ordering::SeqCst);
                (executed.saturating_add(reserved).saturating_add(n) <= budget)
                    .then(|| reserved + n)
            })
            .is_ok()
    }

    /// Returns `n` slots reserved by [`Executor::try_reserve_session`].
    /// Saturating, so releasing more than was reserved (a session-manager
    /// bug) clamps at zero instead of wrapping the admission gate open.
    pub fn release_session(&self, n: usize) {
        let _ = self
            .stats
            .session_reserved
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |reserved| {
                Some(reserved.saturating_sub(n))
            });
    }

    /// Budget slots currently reserved by admitted sessions.
    pub fn session_reserved(&self) -> usize {
        self.stats.session_reserved.load(Ordering::SeqCst)
    }

    /// Current statistics snapshot, read from atomics alone: it never
    /// waits on the provenance lock.
    pub fn stats(&self) -> ExecStats {
        self.stats.snapshot()
    }

    /// A snapshot of the current provenance.
    pub fn provenance(&self) -> ProvenanceStore {
        self.provenance.read().clone()
    }

    /// Runs a closure against the live provenance without cloning it.
    ///
    /// The closure holds a read lock: it may query freely but must not call
    /// back into `evaluate`/`evaluate_batch` (which may need the write lock).
    pub fn with_provenance_ref<R>(&self, f: impl FnOnce(&ProvenanceStore) -> R) -> R {
        f(&self.provenance.read())
    }

    /// Reserves one budget slot. Returns `false` when the budget is already
    /// fully reserved.
    fn try_reserve(&self) -> bool {
        match self.config.budget {
            None => {
                self.stats.new_executions.fetch_add(1, Ordering::SeqCst);
                true
            }
            Some(budget) => self
                .stats
                .new_executions
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < budget).then_some(n + 1)
                })
                .is_ok(),
        }
    }

    /// Releases a reserved slot (pipeline unavailable).
    fn release_slot(&self) {
        self.stats.new_executions.fetch_sub(1, Ordering::SeqCst);
    }

    /// Reclassifies a reserved slot as a hit: another worker recorded
    /// the same instance while this one was executing it.
    fn reclassify_as_hit(&self) {
        self.stats.new_executions.fetch_sub(1, Ordering::SeqCst);
        // Relaxed: the budget gate reads new_executions (SeqCst above);
        // cache_hits is telemetry only.
        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Provenance probe: the recorded outcome of `instance`, counting a hit.
    /// One [`ProvenanceStore::outcome_of`] under the read lock — a dense-key
    /// hash probe, then the run's outcome bit.
    #[inline]
    fn probe_counted(&self, instance: &Instance) -> Option<Outcome> {
        let hit = self.provenance.read().outcome_of(instance);
        if hit.is_some() {
            // Relaxed: telemetry-only counter.
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Runs the pipeline on one instance and reads its cost, adding the
    /// wall-clock time both took to the execution timing totals.
    fn run_pipeline(&self, instance: &Instance) -> (Result<EvalResult, PipelineError>, SimTime) {
        let start = Instant::now();
        let result = self.pipeline.execute(instance);
        let cost = self.pipeline.cost(instance);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Relaxed: the totals only steer the calling-thread-or-threads
        // choice, which is correct either way; nothing else reads them.
        self.stats.execute_ns.fetch_add(ns, Ordering::Relaxed);
        // Relaxed: as above.
        self.stats.timed_executions.fetch_add(1, Ordering::Relaxed);
        (result, cost)
    }

    /// Whether a batch with `n` new instances runs on the calling thread:
    /// with one instance or one worker there is nothing to overlap, and
    /// otherwise when, at the measured mean execution time, the instances
    /// would finish before their threads could start
    /// (`n × mean < min(workers, n) × THREAD_START`). Until something
    /// has been timed a batch uses threads, so a slow pipeline's first
    /// batch is already parallel.
    fn runs_inline(&self, n: usize) -> bool {
        let workers = self.config.workers;
        if n <= 1 || workers <= 1 {
            return true;
        }
        // Relaxed: a stale mean only picks the other, equally correct path.
        let timed = self.stats.timed_executions.load(Ordering::Relaxed);
        // Relaxed: as above.
        let total_ns = self.stats.execute_ns.load(Ordering::Relaxed);
        timed > 0
            && n as u128 * u128::from(total_ns)
                < workers.min(n) as u128 * THREAD_START.as_nanos() * u128::from(timed)
    }

    /// Evaluates one instance: provenance hit if known, otherwise a budgeted
    /// execution. Advances the virtual clock by the instance cost (a single
    /// evaluation cannot be overlapped with anything).
    pub fn evaluate(&self, instance: &Instance) -> Result<Outcome, ExecError> {
        if let Some(outcome) = self.probe_counted(instance) {
            return Ok(outcome);
        }
        if !self.try_reserve() {
            // Relaxed: telemetry-only counter.
            self.stats.budget_refusals.fetch_add(1, Ordering::Relaxed);
            return Err(ExecError::BudgetExhausted);
        }
        let mut reserved = Reserved {
            stats: &self.stats,
            slots: 1,
        };
        let (result, cost) = self.run_pipeline(instance);
        match result {
            Ok(eval) => {
                let (fresh, sync_due) = {
                    let mut prov = self.provenance.write();
                    let fresh = prov.record(instance, eval);
                    reserved.settle();
                    if fresh {
                        self.persist_record(&prov, instance, eval);
                    }
                    (fresh, self.persist_flush())
                };
                self.persist_sync_if_due(sync_due);
                if fresh {
                    self.stats.add_sim_time(cost);
                } else {
                    self.reclassify_as_hit();
                }
                Ok(eval.outcome)
            }
            Err(PipelineError::Unavailable) => {
                reserved.settle();
                self.release_slot();
                // Relaxed: telemetry-only counter.
                self.stats.unavailable.fetch_add(1, Ordering::Relaxed);
                Err(ExecError::Unavailable)
            }
        }
    }

    /// Evaluates a batch of instances, executing the new ones on up to
    /// `workers` scoped threads when the pipeline is slow enough to pay for
    /// starting them, and on the calling thread otherwise (see
    /// `runs_inline`: a batch of one, `workers <= 1`, or a measured mean
    /// execution time below thread start-up).
    ///
    /// Results are positionally aligned with the input. Duplicate instances
    /// within the batch, deduplicated by dense key, are executed once (a
    /// duplicate of a budget-refused instance is refused with it). The
    /// budget is applied in input order: once exhausted, remaining *new*
    /// instances get [`ExecError::BudgetExhausted`] (provenance hits are
    /// still answered).
    ///
    /// The virtual clock advances by the makespan of greedy list scheduling
    /// of the executed instances' costs on `workers` machines — the quantity
    /// the paper's Figure 6 tracks as core counts grow — wherever the batch
    /// actually ran.
    // lint: allow(W003, reason = "results is sized to instances.len() and indexed by batch positions from the same enumerate (to_run holds such positions); first_occurrence is created at the first miss and holds every miss's key before any duplicate reads it", scope = "block")
    pub fn evaluate_batch(&self, instances: &[Instance]) -> Vec<Result<Outcome, ExecError>> {
        let mut results: Vec<Option<Result<Outcome, ExecError>>> = vec![None; instances.len()];
        // Positions in the batch that need execution, deduplicated: the first
        // occurrence executes; later duplicates copy its result.
        let mut to_run: Vec<usize> = Vec::new();
        // Each miss's dense key and batch position, created at the first
        // miss: a batch of hits allocates no map.
        let mut first_occurrence: Option<HashMap<&[u32], usize, FxBuildHasher>> = None;
        let mut reserved = Reserved {
            stats: &self.stats,
            slots: 0,
        };

        // Probe phase: provenance reads plus budget reservations, in input
        // order — no exclusive lock anywhere.
        for (i, instance) in instances.iter().enumerate() {
            if let Some(outcome) = self.probe_counted(instance) {
                results[i] = Some(Ok(outcome));
                continue;
            }
            let firsts = first_occurrence.get_or_insert_with(HashMap::default);
            let Entry::Vacant(slot) = firsts.entry(instance.dense_key()) else {
                continue; // duplicate of an earlier new instance
            };
            slot.insert(i);
            if self.try_reserve() {
                reserved.slots += 1;
                to_run.push(i);
            } else {
                // Relaxed: telemetry-only counter.
                self.stats.budget_refusals.fetch_add(1, Ordering::Relaxed);
                results[i] = Some(Err(ExecError::BudgetExhausted));
            }
        }

        // Execute the new instances.
        let mut outcomes: Vec<(usize, Result<EvalResult, PipelineError>, SimTime)> =
            if self.runs_inline(to_run.len()) {
                to_run
                    .iter()
                    .map(|&pos| {
                        let (res, cost) = self.run_pipeline(&instances[pos]);
                        (pos, res, cost)
                    })
                    .collect()
            } else {
                let next = AtomicUsize::new(0);
                let collected = Mutex::new(Vec::with_capacity(to_run.len()));
                let workers = self.config.workers.min(to_run.len());
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(|| loop {
                            // Relaxed: a pure fetch_add ticket counter — each
                            // worker gets a unique k; no other state rides on it.
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= to_run.len() {
                                break;
                            }
                            let pos = to_run[k];
                            let (res, cost) = self.run_pipeline(&instances[pos]);
                            collected.lock().push((pos, res, cost));
                        });
                    }
                });
                collected.into_inner()
            };

        // Record results and settle the virtual clock. Sorting by batch
        // position keeps the provenance order (and the greedy scheduler's
        // job order) deterministic regardless of which worker finished
        // first. This is the only phase holding the write lock, and a batch
        // in which nothing ran skips it: every later reader would queue
        // behind a writer waiting out a long read.
        if !outcomes.is_empty() {
            outcomes.sort_by_key(|(pos, _, _)| *pos);
            let mut executed_costs: Vec<SimTime> = Vec::with_capacity(outcomes.len());
            let mut prov = self.provenance.write();
            for (pos, res, cost) in outcomes {
                match res {
                    Ok(eval) => {
                        let fresh = prov.record(&instances[pos], eval);
                        reserved.settle();
                        if fresh {
                            self.persist_record(&prov, &instances[pos], eval);
                            executed_costs.push(cost);
                        } else {
                            self.reclassify_as_hit();
                        }
                        results[pos] = Some(Ok(eval.outcome));
                    }
                    Err(PipelineError::Unavailable) => {
                        reserved.settle();
                        self.release_slot();
                        // Relaxed: telemetry-only counter.
                        self.stats.unavailable.fetch_add(1, Ordering::Relaxed);
                        results[pos] = Some(Err(ExecError::Unavailable));
                    }
                }
            }
            let sync_due = self.persist_flush();
            drop(prov);
            self.persist_sync_if_due(sync_due);
            self.stats
                .add_sim_time(makespan(&executed_costs, self.config.workers.max(1)));
        }
        // Duplicates copy their first occurrence's result.
        for (i, instance) in instances.iter().enumerate() {
            if results[i].is_none() {
                let first = first_occurrence
                    .as_ref()
                    .and_then(|firsts| firsts.get(instance.dense_key()).copied())
                    .expect("an unresolved position is a miss, and every miss is keyed");
                results[i] = Some(
                    results[first]
                        .clone()
                        .expect("first occurrence must be resolved"),
                );
            }
        }

        results.into_iter().map(|r| r.expect("resolved")).collect()
    }
}

/// Greedy list-scheduling makespan of `costs` on `machines` identical
/// machines: each job goes to the least-loaded machine, in order. This is the
/// schedule a batch's threads produce (jobs are pulled by idle workers); the
/// virtual clock charges it whether the batch ran on threads or on the
/// calling thread.
// lint: allow(W003, reason = "loads is built non-empty (machines.max(1)) right above, so min_by always yields an in-bounds index", scope = "block")
fn makespan(costs: &[SimTime], machines: usize) -> SimTime {
    if costs.is_empty() {
        return SimTime::ZERO;
    }
    let mut loads = vec![0.0f64; machines.max(1)];
    for c in costs {
        // Index of the least-loaded machine. `total_cmp` keeps the schedule
        // well-defined even when a pipeline reports a NaN cost (a NaN load
        // sorts above every finite load, so it stops attracting jobs instead
        // of panicking the comparator).
        let (idx, _) = loads
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .expect("at least one machine");
        loads[idx] += c.secs();
    }
    SimTime::from_secs(loads.into_iter().fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FnPipeline, HistoricalPipeline};
    use bugdoc_core::{ParamSpace, Value};

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("x", [1, 2, 3, 4, 5])
            .ordinal("y", [1, 2, 3, 4, 5])
            .build()
    }

    fn inst(s: &ParamSpace, x: i64, y: i64) -> Instance {
        Instance::from_pairs(s, [("x", Value::from(x)), ("y", Value::from(y))])
    }

    /// Pipeline failing iff x = 3.
    fn pipe(s: &Arc<ParamSpace>) -> Arc<dyn Pipeline> {
        let x = s.by_name("x").unwrap();
        Arc::new(FnPipeline::new(s.clone(), move |i: &Instance| {
            EvalResult::of(Outcome::from_check(i.get(x) != &Value::from(3)))
        }))
    }

    #[test]
    fn evaluate_caches() {
        let s = space();
        let exec = Executor::new(pipe(&s), ExecutorConfig::default());
        let i = inst(&s, 3, 1);
        assert_eq!(exec.evaluate(&i), Ok(Outcome::Fail));
        assert_eq!(exec.evaluate(&i), Ok(Outcome::Fail));
        let stats = exec.stats();
        assert_eq!(stats.new_executions, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn budget_enforced_and_counts_only_new() {
        let s = space();
        let exec = Executor::new(
            pipe(&s),
            ExecutorConfig {
                workers: 2,
                budget: Some(2),
                ..Default::default()
            },
        );
        assert!(exec.evaluate(&inst(&s, 1, 1)).is_ok());
        assert!(exec.evaluate(&inst(&s, 1, 1)).is_ok()); // cache hit, free
        assert!(exec.evaluate(&inst(&s, 2, 1)).is_ok());
        assert_eq!(
            exec.evaluate(&inst(&s, 3, 1)),
            Err(ExecError::BudgetExhausted)
        );
        assert_eq!(exec.remaining_budget(), Some(0));
        assert_eq!(exec.stats().budget_refusals, 1);
    }

    #[test]
    fn seeded_provenance_is_free() {
        let s = space();
        let mut prov = ProvenanceStore::new(s.clone());
        prov.record(inst(&s, 3, 3), EvalResult::of(Outcome::Fail));
        let exec = Executor::with_provenance(
            pipe(&s),
            ExecutorConfig {
                workers: 1,
                budget: Some(0),
                ..Default::default()
            },
            prov,
        );
        // Known instance: answered despite a zero budget.
        assert_eq!(exec.evaluate(&inst(&s, 3, 3)), Ok(Outcome::Fail));
        assert_eq!(exec.stats().new_executions, 0);
    }

    #[test]
    fn batch_positions_and_dedup() {
        let s = space();
        let exec = Executor::new(
            pipe(&s),
            ExecutorConfig {
                budget: Some(3),
                ..Default::default()
            },
        );
        let batch = vec![
            inst(&s, 1, 1),
            inst(&s, 3, 2),
            inst(&s, 1, 1),
            // (2, 4) by value and by domain index: one instance.
            inst(&s, 2, 4),
            s.instance_from_indices(&[1, 3]),
            // Past the budget, refused, and so is its duplicate.
            inst(&s, 5, 5),
            inst(&s, 5, 5),
        ];
        let results = exec.evaluate_batch(&batch);
        assert_eq!(results[0], Ok(Outcome::Succeed));
        assert_eq!(results[1], Ok(Outcome::Fail));
        assert_eq!(results[2], Ok(Outcome::Succeed));
        assert_eq!(results[3], Ok(Outcome::Succeed));
        assert_eq!(results[4], Ok(Outcome::Succeed));
        assert_eq!(results[5], Err(ExecError::BudgetExhausted));
        assert_eq!(results[6], Err(ExecError::BudgetExhausted));
        // Each duplicate executed, or was refused, once.
        let stats = exec.stats();
        assert_eq!(stats.new_executions, 3);
        assert_eq!(stats.budget_refusals, 1);
        assert_eq!(exec.provenance().len(), 3);
    }

    #[test]
    fn panicking_pipeline_gives_its_budget_slots_back() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let s = space();
        let x = s.by_name("x").unwrap();
        // Panics on x = 5.
        let pipeline = Arc::new(FnPipeline::new(s.clone(), move |i: &Instance| {
            assert!(i.get(x) != &Value::from(5), "pipeline crashed");
            EvalResult::of(Outcome::Succeed)
        }));
        let exec = Executor::new(
            pipeline,
            ExecutorConfig {
                budget: Some(10),
                ..Default::default()
            },
        );
        assert_eq!(exec.evaluate(&inst(&s, 1, 1)), Ok(Outcome::Succeed));
        assert!(catch_unwind(AssertUnwindSafe(|| exec.evaluate(&inst(&s, 5, 1)))).is_err());
        let batch = [inst(&s, 5, 2), inst(&s, 5, 3)];
        assert!(catch_unwind(AssertUnwindSafe(|| exec.evaluate_batch(&batch))).is_err());
        assert_eq!(exec.stats().new_executions, 1);
        assert_eq!(exec.provenance().len(), 1);
        assert_eq!(exec.remaining_budget(), Some(9));
    }

    #[test]
    fn batch_budget_partial() {
        let s = space();
        let exec = Executor::new(
            pipe(&s),
            ExecutorConfig {
                workers: 4,
                budget: Some(2),
                ..Default::default()
            },
        );
        let batch: Vec<_> = (1..=4).map(|x| inst(&s, x, 1)).collect();
        let results = exec.evaluate_batch(&batch);
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let refused = results
            .iter()
            .filter(|r| **r == Err(ExecError::BudgetExhausted))
            .count();
        assert_eq!(ok, 2);
        assert_eq!(refused, 2);
    }

    #[test]
    fn unavailable_does_not_consume_budget() {
        let s = space();
        let hist = HistoricalPipeline::new(
            s.clone(),
            [(inst(&s, 1, 1), EvalResult::of(Outcome::Succeed))],
        );
        let exec = Executor::new(
            Arc::new(hist),
            ExecutorConfig {
                workers: 1,
                budget: Some(1),
                ..Default::default()
            },
        );
        assert_eq!(exec.evaluate(&inst(&s, 2, 2)), Err(ExecError::Unavailable));
        // Budget slot released: the available instance still runs.
        assert_eq!(exec.evaluate(&inst(&s, 1, 1)), Ok(Outcome::Succeed));
        let stats = exec.stats();
        assert_eq!(stats.unavailable, 1);
        assert_eq!(stats.new_executions, 1);
    }

    #[test]
    fn virtual_clock_scales_with_workers() {
        let s = space();
        let make = |workers| {
            let x = s.by_name("x").unwrap();
            let p = FnPipeline::new(s.clone(), move |i: &Instance| {
                EvalResult::of(Outcome::from_check(i.get(x) != &Value::from(3)))
            })
            .with_cost(SimTime::from_mins(20.0));
            Executor::new(
                Arc::new(p),
                ExecutorConfig {
                    workers,
                    budget: None,
                    ..Default::default()
                },
            )
        };
        let batch: Vec<_> = (1..=5)
            .flat_map(|x| (1..=2).map(move |y| (x, y)))
            .map(|(x, y)| inst(&s, x, y))
            .collect();
        assert_eq!(batch.len(), 10);

        let exec1 = make(1);
        exec1.evaluate_batch(&batch);
        assert_eq!(exec1.stats().sim_time.secs(), 10.0 * 1200.0);

        let exec5 = make(5);
        exec5.evaluate_batch(&batch);
        assert_eq!(exec5.stats().sim_time.secs(), 2.0 * 1200.0);
    }

    #[test]
    fn makespan_greedy() {
        let c = |s: f64| SimTime::from_secs(s);
        assert_eq!(makespan(&[], 4), SimTime::ZERO);
        assert_eq!(makespan(&[c(3.0), c(2.0), c(1.0)], 1).secs(), 6.0);
        // Two machines, jobs 3,2,1 -> loads {3,1+2} -> makespan 3.
        assert_eq!(makespan(&[c(3.0), c(2.0), c(1.0)], 2).secs(), 3.0);
        // More machines than jobs -> longest job dominates.
        assert_eq!(makespan(&[c(3.0), c(2.0)], 8).secs(), 3.0);
    }

    #[test]
    fn parallel_batch_matches_sequential_results() {
        let s = space();
        let exec_par = Executor::new(pipe(&s), ExecutorConfig { workers: 8, budget: None, ..Default::default() });
        let exec_seq = Executor::new(pipe(&s), ExecutorConfig { workers: 1, budget: None, ..Default::default() });
        let batch: Vec<_> = (1..=5)
            .flat_map(|x| (1..=5).map(move |y| (x, y)))
            .map(|(x, y)| inst(&s, x, y))
            .collect();
        let a = exec_par.evaluate_batch(&batch);
        let b = exec_seq.evaluate_batch(&batch);
        assert_eq!(a, b);
        assert_eq!(exec_par.stats().new_executions, 25);
    }

    /// Once one execution has been timed as cheap, a batch of new instances
    /// runs on the calling thread instead of starting threads for it.
    #[test]
    fn cheap_batches_run_on_the_calling_thread() {
        use std::sync::Mutex as StdMutex;
        use std::thread::{self, ThreadId};

        let s = space();
        let x = s.by_name("x").unwrap();
        let ran_on: Arc<StdMutex<Vec<ThreadId>>> = Arc::default();
        let log = Arc::clone(&ran_on);
        let p = FnPipeline::new(s.clone(), move |i: &Instance| {
            log.lock().unwrap().push(thread::current().id());
            EvalResult::of(Outcome::from_check(i.get(x) != &Value::from(3)))
        });
        let exec = Executor::new(
            Arc::new(p),
            ExecutorConfig {
                workers: 5,
                ..Default::default()
            },
        );
        exec.evaluate(&inst(&s, 1, 5)).unwrap();
        let batch: Vec<_> = (1..=5).map(|x| inst(&s, x, 1)).collect();
        let results = exec.evaluate_batch(&batch);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(exec.stats().new_executions, 6);
        let ran_on = ran_on.lock().unwrap();
        assert_eq!(ran_on.len(), 6);
        let elsewhere = ran_on
            .iter()
            .filter(|&&id| id != thread::current().id())
            .count();
        assert_eq!(
            elsewhere, 0,
            "{elsewhere} executions ran off the calling thread"
        );
    }

    /// Subprocess pipelines keep the thread scope: both a batch run before
    /// anything was timed and one run after the pipeline was measured as
    /// slow finish in well under the serial time of their sleeps.
    #[test]
    fn slow_batches_keep_real_parallelism() {
        use crate::command::{CommandEval, CommandPipeline};

        let s = space();
        let p = CommandPipeline::new(
            s.clone(),
            vec!["sleep".to_string(), "0.2".to_string()],
            CommandEval::ExitCode,
        );
        let exec = Executor::new(
            Arc::new(p),
            ExecutorConfig {
                workers: 5,
                ..Default::default()
            },
        );
        for (round, y) in [(1, 1), (2, 2)] {
            let batch: Vec<_> = (1..=5).map(|x| inst(&s, x, y)).collect();
            let start = Instant::now();
            let results = exec.evaluate_batch(&batch);
            let took = start.elapsed();
            assert!(results.iter().all(|r| *r == Ok(Outcome::Succeed)));
            assert!(
                took < Duration::from_millis(400),
                "batch {round} of five 200 ms sleeps took {took:?}: it ran serially"
            );
        }
        assert_eq!(exec.stats().new_executions, 10);
    }

    #[test]
    fn nan_cost_does_not_panic_scheduling() {
        // Regression: `makespan` used `partial_cmp(..).unwrap()`, so one NaN
        // cost (or NaN-score pipeline reporting a NaN duration) panicked the
        // suspect-ranking batch path. With a total order it must complete.
        let s = space();
        let x = s.by_name("x").unwrap();
        let p = FnPipeline::new(s.clone(), move |i: &Instance| EvalResult {
            outcome: Outcome::from_check(i.get(x) != &Value::from(3)),
            score: Some(f64::NAN),
        })
        .with_cost(SimTime::from_secs(f64::NAN));
        let exec = Executor::new(
            Arc::new(p),
            ExecutorConfig {
                workers: 3,
                ..Default::default()
            },
        );
        let batch: Vec<_> = (1..=5).map(|v| inst(&s, v, 1)).collect();
        let results = exec.evaluate_batch(&batch);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(exec.stats().new_executions, 5);
        // NaN loads lose `f64::max`, so the clock stays well-defined (the
        // NaN-cost jobs simply do not extend the makespan).
        assert!(!exec.stats().sim_time.secs().is_sign_negative());
    }

    #[test]
    fn makespan_with_nan_costs_is_total() {
        let c = |s: f64| SimTime::from_secs(s);
        // Must not panic; NaN ends up on some machine and poisons the max.
        let m = makespan(&[c(1.0), c(f64::NAN), c(2.0)], 2);
        assert!(m.secs().is_nan() || m.secs() >= 2.0);
    }

    fn persist_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bugdoc-exec-persist-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persistence_tees_and_warm_starts() {
        let dir = persist_dir("warm");
        let s = space();
        let config = || ExecutorConfig {
            workers: 2,
            persist: Some(PersistConfig::new(&dir)),
            ..Default::default()
        };
        let all: Vec<_> = (1..=5)
            .flat_map(|x| (1..=5).map(move |y| (x, y)))
            .map(|(x, y)| inst(&s, x, y))
            .collect();
        let exec = Executor::new(pipe(&s), config());
        assert_eq!(exec.recovery(), Some(Default::default()));
        for i in &all {
            exec.evaluate(i).unwrap();
        }
        assert_eq!(exec.stats().new_executions, 25);
        drop(exec);

        // A fresh process: everything is recovered, nothing re-executes.
        let exec = Executor::new(pipe(&s), config());
        let recovery = exec.recovery().unwrap();
        assert_eq!(recovery.runs, 25);
        assert_eq!(recovery.truncated_bytes, 0);
        for i in &all {
            let expected = Outcome::from_check(i.get(s.by_name("x").unwrap()) != &Value::from(3));
            assert_eq!(exec.evaluate(i), Ok(expected));
        }
        let stats = exec.stats();
        assert_eq!(stats.new_executions, 0, "warm start must not re-execute");
        assert_eq!(stats.cache_hits, 25);
        assert_eq!(exec.provenance().len(), 25);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistence_covers_batch_records() {
        let dir = persist_dir("batch");
        let s = space();
        let config = || ExecutorConfig {
            workers: 4,
            persist: Some(PersistConfig {
                sync_every: Some(4),
                ..PersistConfig::new(&dir)
            }),
            ..Default::default()
        };
        let exec = Executor::new(pipe(&s), config());
        let batch: Vec<_> = (1..=5).map(|x| inst(&s, x, 1)).collect();
        exec.evaluate_batch(&batch);
        drop(exec);

        let exec = Executor::new(pipe(&s), config());
        let recovery = exec.recovery().unwrap();
        assert_eq!(recovery.runs, 5);
        assert_eq!(recovery.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every record phase writes its frames before it returns: a copy of
    /// the log taken while the executor still holds the directory recovers
    /// every run the executor's history holds.
    #[test]
    fn record_phases_write_their_frames_before_returning() {
        let dir = persist_dir("phase");
        let copy = persist_dir("phase-copy");
        std::fs::create_dir_all(&copy).unwrap();
        let s = space();
        let exec = Executor::new(
            pipe(&s),
            ExecutorConfig {
                workers: 3,
                persist: Some(PersistConfig::new(&dir)),
                ..Default::default()
            },
        );
        let copy_recovers = || {
            let log = "wal-00000001.seg";
            std::fs::copy(dir.join(log), copy.join(log)).unwrap();
            let (_, _, recovery) = DurableStore::open(&s, &PersistConfig::new(&copy)).unwrap();
            recovery.runs
        };
        exec.evaluate(&inst(&s, 1, 1)).unwrap();
        assert_eq!(copy_recovers(), exec.provenance().len());
        let batch: Vec<_> = (1..=5).map(|x| inst(&s, x, 2)).collect();
        exec.evaluate_batch(&batch);
        assert_eq!(exec.provenance().len(), 6);
        assert_eq!(copy_recovers(), 6);
        drop(exec);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&copy);
    }

    /// `sync_every` fsyncs the WAL on its cadence: the store's fsync
    /// histogram counts each sync (other tests only add to it).
    #[test]
    fn sync_every_fsyncs_on_cadence() {
        let dir = persist_dir("sync");
        let s = space();
        let fsyncs = || {
            bugdoc_telemetry::histogram("bugdoc_store_wal_fsync_ns", "")
                .snapshot()
                .count
        };
        let before = fsyncs();
        let exec = Executor::new(
            pipe(&s),
            ExecutorConfig {
                workers: 1,
                persist: Some(PersistConfig {
                    sync_every: Some(2),
                    ..PersistConfig::new(&dir)
                }),
                ..Default::default()
            },
        );
        for x in 1..=5 {
            exec.evaluate(&inst(&s, x, 1)).unwrap();
        }
        assert!(
            fsyncs() - before >= 2,
            "5 appends at sync_every=2 sync twice"
        );
        assert!(exec.shutdown().unwrap());
        assert!(fsyncs() - before >= 3, "close syncs too");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_provenance_merges_into_recovered_history() {
        let dir = persist_dir("merge");
        let s = space();
        let config = || ExecutorConfig {
            workers: 1,
            persist: Some(PersistConfig::new(&dir)),
            ..Default::default()
        };
        // First process: two executions.
        let exec = Executor::new(pipe(&s), config());
        exec.evaluate(&inst(&s, 1, 1)).unwrap();
        exec.evaluate(&inst(&s, 3, 1)).unwrap();
        drop(exec);
        // Second process seeds a TSV-style store: one overlapping run, one
        // novel. The novel one must be appended durably.
        let mut seed = ProvenanceStore::new(s.clone());
        seed.record(inst(&s, 1, 1), EvalResult::of(Outcome::Succeed));
        seed.record(inst(&s, 5, 5), EvalResult::of(Outcome::Succeed));
        let exec = Executor::with_provenance(pipe(&s), config(), seed);
        assert_eq!(exec.provenance().len(), 3);
        drop(exec);
        // Third process sees the union.
        let exec = Executor::new(pipe(&s), config());
        assert_eq!(exec.recovery().unwrap().runs, 3);
        assert_eq!(
            exec.provenance().outcome_of(&inst(&s, 5, 5)),
            Some(Outcome::Succeed)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A seed that contradicts the persisted history is a typed error, not
    /// a panic in `record`: none of the seed is appended, the directory
    /// lock is released, and a consistent seed then opens.
    #[test]
    fn conflicting_seed_is_an_error_and_leaves_the_directory_usable() {
        let dir = persist_dir("conflict");
        let s = space();
        let config = || ExecutorConfig {
            workers: 1,
            persist: Some(PersistConfig::new(&dir)),
            ..Default::default()
        };
        let exec = Executor::new(pipe(&s), config());
        exec.evaluate(&inst(&s, 1, 1)).unwrap();
        drop(exec);

        let mut seed = ProvenanceStore::new(s.clone());
        seed.record(inst(&s, 5, 5), EvalResult::of(Outcome::Succeed));
        seed.record(inst(&s, 1, 1), EvalResult::of(Outcome::Fail));
        match Executor::try_with_provenance(pipe(&s), config(), seed).err() {
            Some(PersistError::ConflictingSeed {
                instance,
                persisted,
                seeded,
            }) => {
                assert_eq!(instance, "{x=1, y=1}");
                assert_eq!((persisted, seeded), (Outcome::Succeed, Outcome::Fail));
            }
            other => panic!("expected ConflictingSeed, got {other:?}"),
        }
        assert!(!dir.join("lock").exists(), "the refused open kept the lock");

        let mut seed = ProvenanceStore::new(s.clone());
        seed.record(inst(&s, 1, 1), EvalResult::of(Outcome::Succeed));
        let exec = Executor::try_with_provenance(pipe(&s), config(), seed)
            .unwrap_or_else(|e| panic!("a consistent seed must open: {e}"));
        assert_eq!(
            exec.recovery().unwrap().runs,
            1,
            "the refused seed appended nothing"
        );
        assert_eq!(exec.provenance().len(), 1);
        drop(exec);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_reservations_gate_admission() {
        let s = space();
        let exec = Executor::new(
            pipe(&s),
            ExecutorConfig {
                workers: 1,
                budget: Some(10),
                ..Default::default()
            },
        );
        assert!(exec.try_reserve_session(6));
        assert_eq!(exec.session_reserved(), 6);
        assert!(!exec.try_reserve_session(5), "6 + 5 > 10");
        assert!(exec.try_reserve_session(4));
        assert!(!exec.try_reserve_session(1), "fully reserved");
        exec.release_session(4);
        // Executions count against the admission gate too.
        exec.evaluate(&inst(&s, 1, 1)).unwrap();
        exec.evaluate(&inst(&s, 2, 1)).unwrap();
        assert!(!exec.try_reserve_session(3), "6 reserved + 2 executed + 3 > 10");
        assert!(exec.try_reserve_session(2));
        exec.release_session(6);
        exec.release_session(2);
        // Over-release clamps instead of reopening the gate.
        exec.release_session(100);
        assert_eq!(exec.session_reserved(), 0);
        // Reservations do not consume the *execution* budget.
        assert_eq!(exec.remaining_budget(), Some(8));
    }

    #[test]
    fn unbounded_budget_admits_every_session() {
        let s = space();
        let exec = Executor::new(pipe(&s), ExecutorConfig::default());
        assert!(exec.try_reserve_session(usize::MAX));
        assert_eq!(exec.session_reserved(), 0, "unbounded: nothing to track");
    }

    #[test]
    fn shutdown_snapshots_and_releases_lock() {
        let dir = persist_dir("shutdown");
        let s = space();
        let config = || ExecutorConfig {
            workers: 2,
            persist: Some(PersistConfig::new(&dir)),
            ..Default::default()
        };
        let exec = Executor::new(pipe(&s), config());
        for x in 1..=5 {
            exec.evaluate(&inst(&s, x, 1)).unwrap();
        }
        assert!(exec.shutdown().unwrap(), "first shutdown closes the store");
        assert!(!exec.shutdown().unwrap(), "idempotent");
        assert!(
            !dir.join("lock").exists(),
            "shutdown released the directory lock while the executor still lives"
        );
        // The directory warm-starts cleanly — every run recovered, no torn
        // bytes — even though `exec` is still alive.
        let warm = Executor::new(pipe(&s), config());
        let recovery = warm.recovery().unwrap();
        assert_eq!(recovery.runs, 5);
        assert_eq!(recovery.truncated_bytes, 0);
        drop(warm);
        drop(exec);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_without_persistence_is_a_noop() {
        let s = space();
        let exec = Executor::new(pipe(&s), ExecutorConfig::default());
        exec.evaluate(&inst(&s, 1, 1)).unwrap();
        assert!(!exec.shutdown().unwrap());
    }

    #[test]
    fn stats_since_baseline_is_the_session_delta() {
        let s = space();
        let exec = Executor::new(pipe(&s), ExecutorConfig::default());
        exec.evaluate(&inst(&s, 1, 1)).unwrap();
        exec.evaluate(&inst(&s, 1, 1)).unwrap();
        let baseline = exec.stats();
        exec.evaluate(&inst(&s, 2, 1)).unwrap();
        exec.evaluate(&inst(&s, 1, 1)).unwrap();
        let delta = exec.stats().since(&baseline);
        assert_eq!(delta.new_executions, 1);
        assert_eq!(delta.cache_hits, 1);
        assert_eq!(ExecStats::default().since(&exec.stats()), ExecStats::default());
    }

    /// `stats()` answers while a long reader holds the provenance lock and
    /// a writer is queued behind it. std's `RwLock` makes new readers wait
    /// for a queued writer, so a `stats()` that took the read lock would
    /// stall until the long reader let go.
    #[test]
    fn stats_answer_while_a_writer_waits_on_the_provenance_lock() {
        use std::sync::mpsc;
        use std::thread;

        let s = space();
        let x = s.by_name("x").unwrap();
        let (executing_tx, executing) = mpsc::channel();
        let p = FnPipeline::new(s.clone(), move |i: &Instance| {
            let _ = executing_tx.send(());
            EvalResult::of(Outcome::from_check(i.get(x) != &Value::from(3)))
        });
        let exec = Executor::new(Arc::new(p), ExecutorConfig::default());
        let (held_tx, held) = mpsc::channel();
        let (release_tx, release) = mpsc::channel::<()>();
        thread::scope(|scope| {
            let exec = &exec;
            scope.spawn(move || {
                exec.with_provenance_ref(|_| {
                    held_tx.send(()).unwrap();
                    let _ = release.recv();
                })
            });
            held.recv().unwrap();
            let writer = scope.spawn(|| exec.evaluate(&inst(&s, 1, 1)));
            executing.recv().unwrap();
            // The writer has run its pipeline and is on its way to the
            // write lock; this pause lets it queue there. The check below
            // passes however long the pause is: it is what makes a
            // lock-taking `stats()` fail.
            thread::sleep(Duration::from_millis(50));
            let (answered_tx, answered) = mpsc::channel();
            scope.spawn(move || {
                let _ = answered_tx.send(exec.stats());
            });
            let stats = answered.recv_timeout(Duration::from_secs(1));
            release_tx.send(()).unwrap();
            assert!(stats.is_ok(), "stats() waited on the provenance lock");
            assert_eq!(writer.join().unwrap(), Ok(Outcome::Succeed));
        });
        assert_eq!(exec.stats().new_executions, 1);
    }

    /// A batch in which nothing runs takes no write lock: while a reader
    /// holds the provenance lock, an all-hit batch (with a duplicate)
    /// returns. A batch that queued for the write lock would wait out the
    /// reader, and stall every reader that came after it.
    #[test]
    fn all_hit_batch_answers_while_a_reader_holds_the_provenance_lock() {
        use std::sync::mpsc;
        use std::thread;

        let s = space();
        let exec = Executor::new(pipe(&s), ExecutorConfig::default());
        let known = [inst(&s, 1, 1), inst(&s, 3, 2), inst(&s, 5, 5)];
        exec.evaluate_batch(&known);
        let batch = [
            known[0].clone(),
            known[1].clone(),
            known[2].clone(),
            known[1].clone(),
        ];
        let (held_tx, held) = mpsc::channel();
        let (release_tx, release) = mpsc::channel::<()>();
        thread::scope(|scope| {
            let exec = &exec;
            scope.spawn(move || {
                exec.with_provenance_ref(|_| {
                    held_tx.send(()).unwrap();
                    let _ = release.recv();
                })
            });
            held.recv().unwrap();
            let (answered_tx, answered) = mpsc::channel();
            let batch = &batch;
            scope.spawn(move || {
                let _ = answered_tx.send(exec.evaluate_batch(batch));
            });
            let results = answered.recv_timeout(Duration::from_secs(1));
            release_tx.send(()).unwrap();
            let results = results.expect("an all-hit batch waited on the provenance lock");
            assert_eq!(
                results,
                vec![
                    Ok(Outcome::Succeed),
                    Ok(Outcome::Fail),
                    Ok(Outcome::Succeed),
                    Ok(Outcome::Fail)
                ]
            );
        });
        let stats = exec.stats();
        assert_eq!((stats.new_executions, stats.cache_hits), (3, 4));

        // Nothing runs in a batch the budget refuses either; the duplicate
        // still copies its first occurrence's refusal.
        let refusing = Executor::new(
            pipe(&s),
            ExecutorConfig {
                budget: Some(0),
                ..Default::default()
            },
        );
        let fresh = inst(&s, 2, 2);
        assert_eq!(
            refusing.evaluate_batch(&[fresh.clone(), fresh]),
            vec![Err(ExecError::BudgetExhausted); 2]
        );
    }

    #[test]
    fn provenance_snapshot_reflects_runs() {
        let s = space();
        let exec = Executor::new(pipe(&s), ExecutorConfig::default());
        exec.evaluate(&inst(&s, 3, 1)).unwrap();
        exec.evaluate(&inst(&s, 1, 1)).unwrap();
        let prov = exec.provenance();
        assert_eq!(prov.len(), 2);
        assert_eq!(prov.failing().count(), 1);
        exec.with_provenance_ref(|p| assert_eq!(p.len(), 2));
    }
}
