//! Debugging Decision Trees (paper §4.2, introduced in Lourenço et al.,
//! DEEM 2019).
//!
//! The Shortcut family finds one cause quickly but only speaks
//! parameter-*equality*-value. DDT "can characterize inequalities as well as
//! equalities" and disjunctions, at worst-case exponential cost:
//!
//! 1. Build a **complete decision tree** (no pruning) over the executed
//!    instances — features are the parameters, the target is the evaluation.
//! 2. Every path to a pure-`fail` leaf becomes a **suspect** conjunction of
//!    (Parameter, Comparator, Value) triples.
//! 3. Each suspect "is used as a filter in a Cartesian product of the
//!    parameter values from which new experiments will be sampled": satisfying
//!    instances are executed (in parallel); if every one fails, the suspect is
//!    asserted a definitive root cause; if any succeeds, the tree is rebuilt
//!    over the enlarged history and a new suspect is tried. The tree is
//!    fitted once, and a rebuild is a refit
//!    ([`ProvenanceTree::refit`](bugdoc_dtree::ProvenanceTree::refit)): it
//!    takes in only the runs recorded since the last fit and regrows only
//!    the subtrees they change, and it grows the tree a fit over the whole
//!    history would.
//!
//! The tree is "used in an unusual way": not to predict, but to surface
//! short paths to failure; accordingly suspects are tried shortest-first and,
//! optionally, greedily minimized (Def. 5) by dropping predicates that
//! survive re-verification. FindAll mode collects every confirmed cause and
//! simplifies the disjunction with Quine–McCluskey (§4).

use crate::error::AlgoError;
use bugdoc_core::{CanonicalCause, Conjunction, Dnf, Instance, Outcome, ParamSpace, ProvenanceStore};
use bugdoc_dtree::{ProvenanceTree, TreeConfig};
use bugdoc_engine::{ExecError, Executor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether to stop at the first confirmed cause or collect all of them
/// (the paper's FindOne / FindAll goals, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DdtMode {
    /// Stop at the first confirmed minimal definitive root cause.
    #[default]
    FindOne,
    /// Keep going until no new suspects survive; return the simplified
    /// disjunction of all confirmed causes.
    FindAll,
}

/// The keyword every front end names a mode by: the CLI's `--mode` and the
/// wire's `mode=`.
impl std::fmt::Display for DdtMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DdtMode::FindOne => "one",
            DdtMode::FindAll => "all",
        })
    }
}

impl std::str::FromStr for DdtMode {
    type Err = String;

    fn from_str(keyword: &str) -> Result<Self, String> {
        match keyword {
            "one" => Ok(DdtMode::FindOne),
            "all" => Ok(DdtMode::FindAll),
            other => Err(format!("unknown mode {other:?}")),
        }
    }
}

/// How verification instantiates the parameters a suspect constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrototypeStrategy {
    /// Sample a fresh satisfying value per instance — reads the suspect as a
    /// filter over the Cartesian product (paper §4.2, step 3).
    #[default]
    RandomSatisfying,
    /// Fix one satisfying value (the first in domain order) for the whole
    /// batch — the paper's "chooses a satisfying value ... as a prototype".
    FixedPrototype,
}

/// DDT configuration.
#[derive(Debug, Clone)]
pub struct DdtConfig {
    /// FindOne or FindAll.
    pub mode: DdtMode,
    /// Instances sampled to verify each suspect.
    pub verification_samples: usize,
    /// Maximum tree rebuilds after refutations.
    pub max_rebuilds: usize,
    /// Greedily drop predicates from confirmed suspects while they keep
    /// verifying (searching for the *minimal* definitive root cause).
    pub minimize: bool,
    /// Widen confirmed causes value-by-value while the widened-only region
    /// keeps failing. Tree thresholds stop at *observed* values, so a
    /// confirmed suspect can be narrower than the true cause (`p ≤ 2` when
    /// the truth is `p ≤ 3`); generalization recovers the full extent — the
    /// role tree rebuilds play over many rounds in the original formulation,
    /// done directly.
    pub generalize: bool,
    /// Run the final DNF through Quine–McCluskey (FindAll).
    pub simplify: bool,
    /// How constrained parameters are instantiated during verification.
    pub prototype: PrototypeStrategy,
    /// Random instances executed up-front when the history lacks failing or
    /// succeeding examples.
    pub enrich_initial: usize,
    /// FindAll only: after the tree stabilizes, run up to this many rounds of
    /// random exploration (each `verification_samples` instances); a round
    /// that surfaces a new failing instance rebuilds the tree — this is how
    /// DDT discovers disjuncts that never appeared in the given history.
    pub exploration_rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DdtConfig {
    fn default() -> Self {
        DdtConfig {
            mode: DdtMode::FindOne,
            verification_samples: 8,
            max_rebuilds: 25,
            minimize: true,
            generalize: true,
            simplify: true,
            prototype: PrototypeStrategy::default(),
            enrich_initial: 8,
            exploration_rounds: 2,
            seed: 0,
        }
    }
}

/// The result of a DDT run.
#[derive(Debug, Clone, PartialEq)]
pub struct DdtReport {
    /// Confirmed definitive root causes (one conjunct in FindOne mode; the
    /// QM-simplified disjunction in FindAll mode).
    pub causes: Dnf,
    /// New pipeline executions consumed.
    pub new_executions: usize,
    /// Tree rebuilds (refits, see step 3 of the module docs) triggered by
    /// refuted suspects. The refits that follow a FindAll exploration round
    /// that found a new failure are not counted.
    pub rebuilds: usize,
    /// False if the run stopped on budget exhaustion.
    pub complete: bool,
}

enum Verify {
    /// Every sampled satisfying instance failed.
    Confirmed,
    /// A satisfying instance succeeded: the suspect is not definitive.
    Refuted,
    /// Could not gather evidence (unsatisfiable suspect or replay gaps).
    NoEvidence,
    /// The execution budget ran out mid-verification.
    Budget,
}

/// Runs Debugging Decision Trees against the executor's history.
pub fn debugging_decision_trees(
    exec: &Executor,
    config: &DdtConfig,
) -> Result<DdtReport, AlgoError> {
    let space = exec.space();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let start_execs = exec.stats().new_executions;
    let mut complete = true;

    // The tree needs both outcomes; enrich a thin history with random probes.
    let refused = ensure_both_outcomes(exec, &space, config.enrich_initial, &mut rng);
    let (has_fail, has_succeed) = exec.with_provenance_ref(has_both_outcomes);
    if !has_fail {
        return Err(AlgoError::NoFailingInstance);
    }
    if !has_succeed {
        // Every probe that ran failed too. If the budget refused one, that
        // probe might have succeeded: assert nothing. Otherwise the whole
        // explored space fails.
        return Ok(DdtReport {
            causes: if refused {
                Dnf::bottom()
            } else {
                Dnf::new(vec![Conjunction::top()])
            },
            new_executions: exec.stats().new_executions.saturating_sub(start_execs),
            rebuilds: 0,
            complete: !refused,
        });
    }

    // A replay pipeline's executable set, read once for every probe below.
    let available = exec.available_instances();
    let available = available.as_deref();
    let mut confirmed: Vec<Conjunction> = Vec::new();
    let mut confirmed_canon: Vec<CanonicalCause> = Vec::new();
    let mut rebuilds = 0;
    let mut exploration_left = config.exploration_rounds;
    // Fit from the store's key arena and failing-runs bitset under its read
    // lock. No row vector is built first, so the lock covers the fit alone.
    let mut tree =
        exec.with_provenance_ref(|prov| ProvenanceTree::fit(prov, &TreeConfig::default()));

    'outer: loop {
        // Rebuild over the enlarged history: refit with the runs recorded
        // since the last fit (none on the first pass), this session's and
        // any other's, under the same read lock.
        exec.with_provenance_ref(|prov| tree.refit(prov));

        for path in tree.tree().fail_paths() {
            // Simplify the raw tree path to its shortest equivalent form.
            let canon = path.conjunction.canonicalize(&space);
            if canon.is_unsatisfiable(&space) || canon.is_top(&space) {
                continue;
            }
            if confirmed_canon.contains(&canon) {
                continue;
            }

            match verify_suspect(exec, &space, available, &canon, config, &mut rng) {
                Verify::Refuted => {
                    // New counterexample is in the provenance; rebuild.
                    rebuilds += 1;
                    if rebuilds > config.max_rebuilds {
                        break 'outer;
                    }
                    continue 'outer;
                }
                Verify::NoEvidence => continue,
                Verify::Budget => {
                    complete = false;
                    break 'outer;
                }
                Verify::Confirmed => {
                    // Minimization drops triples of the suspect's shortest
                    // conjunction (Def. 5) and its result is asserted as
                    // written; a generalized cause is asserted as the
                    // shortest conjunction of its set.
                    let mut cause = canon;
                    let mut minimized = None;
                    if config.minimize {
                        match minimize_cause(
                            exec,
                            &space,
                            available,
                            cause.to_conjunction(&space),
                            config,
                            &mut rng,
                        ) {
                            Ok(c) => {
                                cause = c.canonicalize(&space);
                                minimized = Some(c);
                            }
                            Err(()) => complete = false,
                        }
                    }
                    if config.generalize && complete {
                        match generalize_cause(
                            exec,
                            &space,
                            available,
                            cause.clone(),
                            config,
                            &mut rng,
                        ) {
                            Ok(c) => {
                                cause = c;
                                minimized = None;
                            }
                            Err(()) => complete = false,
                        }
                    }
                    if !confirmed_canon.contains(&cause) {
                        confirmed.push(minimized.unwrap_or_else(|| cause.to_conjunction(&space)));
                        confirmed_canon.push(cause);
                    }
                    if config.mode == DdtMode::FindOne {
                        break 'outer;
                    }
                }
            }
        }
        // A full suspect pass without a refutation (which would have
        // continued 'outer) means the tree is stable. In FindAll mode,
        // explore: planted disjuncts with no failing example in the history
        // produce no fail leaf, so probe randomly and rebuild if a new
        // failure turns up.
        if config.mode == DdtMode::FindAll && exploration_left > 0 {
            exploration_left -= 1;
            let probes: Vec<Instance> = (0..config.verification_samples.max(1))
                .map(|_| random_instance(&space, &mut rng))
                .collect();
            let before_fails =
                exec.with_provenance_ref(|prov| prov.num_failing());
            let results = exec.evaluate_batch(&probes);
            if results
                .iter()
                .any(|r| matches!(r, Err(ExecError::BudgetExhausted)))
            {
                complete = false;
                break;
            }
            let after_fails = exec.with_provenance_ref(|prov| prov.num_failing());
            if after_fails > before_fails {
                continue 'outer; // new failure: rebuild the tree
            }
        }
        break;
    }

    let mut causes = Dnf::new(confirmed);
    if config.simplify && causes.len() > 1 {
        causes = bugdoc_qm::minimize_dnf(&space, &causes);
    }
    Ok(DdtReport {
        causes,
        new_executions: exec.stats().new_executions.saturating_sub(start_execs),
        rebuilds,
        complete,
    })
}

/// Executes random instances until the history contains at least one failing
/// and one succeeding run (or the probe allowance runs out). Returns whether
/// the budget refused a probe.
fn ensure_both_outcomes(
    exec: &Executor,
    space: &ParamSpace,
    probes: usize,
    rng: &mut StdRng,
) -> bool {
    let mut refused = false;
    for _ in 0..probes {
        let (has_fail, has_succeed) = exec.with_provenance_ref(has_both_outcomes);
        if has_fail && has_succeed {
            break;
        }
        let inst = random_instance(space, rng);
        refused |= matches!(exec.evaluate(&inst), Err(ExecError::BudgetExhausted));
    }
    refused
}

/// Whether the history holds a failing and a succeeding run: its outcome
/// bitsets, read without building an instance.
fn has_both_outcomes(prov: &ProvenanceStore) -> (bool, bool) {
    (
        !prov.failing_runs().is_empty(),
        !prov.succeeding_runs().is_empty(),
    )
}

fn random_instance(space: &ParamSpace, rng: &mut StdRng) -> Instance {
    let indices: Vec<u32> = space
        .ids()
        .map(|p| rng.gen_range(0..space.domain(p).len()) as u32)
        .collect();
    space.instance_from_indices(&indices)
}

/// Samples `n` instances from the product set `suspect` denotes.
///
/// Works entirely in dense domain indices: per-parameter pools of satisfying
/// indices are drawn from, deduplicated by index key, and materialized once
/// via [`ParamSpace::instance_from_indices`] — no `Value` vectors are built
/// and re-validated per draw. When the filtered product is small (or
/// rejection sampling stalls on a small remainder), the product is
/// **enumerated deterministically** instead, so a suspect whose region holds
/// fewer than `n` distinct instances always yields all of them.
fn sample_satisfying(
    space: &ParamSpace,
    suspect: &CanonicalCause,
    n: usize,
    strategy: PrototypeStrategy,
    rng: &mut StdRng,
) -> Vec<Instance> {
    if suspect.is_unsatisfiable(space) {
        return Vec::new();
    }
    // Per-parameter pools of satisfying domain indices. Under FixedPrototype,
    // constrained parameters are pinned to their first satisfying value.
    let pools: Vec<Vec<u32>> = space
        .ids()
        .map(|p| {
            if !suspect.constrains(space, p) {
                return (0..space.domain(p).len() as u32).collect();
            }
            let satisfying = suspect.allowed(space, p).map(|i| i as u32);
            match strategy {
                PrototypeStrategy::FixedPrototype => satisfying.take(1).collect(),
                PrototypeStrategy::RandomSatisfying => satisfying.collect(),
            }
        })
        .collect();
    let product: u128 = pools
        .iter()
        .map(|pool| pool.len() as u128)
        .try_fold(1u128, u128::checked_mul)
        .unwrap_or(u128::MAX);

    // Small region: enumerate it exactly (shuffled for unbiased truncation).
    if product <= n as u128 {
        use rand::seq::SliceRandom as _;
        let mut all: Vec<Instance> = PoolCombos::new(&pools)
            .map(|indices| space.instance_from_indices(&indices))
            .collect();
        all.shuffle(rng);
        all.truncate(n);
        return all;
    }

    let mut out = Vec::with_capacity(n);
    let mut seen: std::collections::HashSet<Vec<u32>, bugdoc_core::FxBuildHasher> =
        std::collections::HashSet::default();
    // Rejection sampling with an attempt cap; duplicates are detected on the
    // index key, so no instance is materialized twice.
    for _ in 0..(n * 4) {
        if out.len() == n {
            break;
        }
        let indices: Vec<u32> = pools
            .iter()
            .map(|pool| pool[rng.gen_range(0..pool.len())])
            .collect();
        if !seen.contains(&indices) {
            out.push(space.instance_from_indices(&indices));
            seen.insert(indices);
        }
    }
    // The cap can starve on moderately small products (most draws collide);
    // top up by deterministic enumeration rather than giving up short. The
    // enumeration is lazy: it stops as soon as `n` is reached, materializing
    // an `Instance` only for combinations not already drawn.
    const ENUMERABLE: u128 = 4096;
    if out.len() < n && product <= ENUMERABLE {
        for indices in PoolCombos::new(&pools) {
            if out.len() == n {
                break;
            }
            if !seen.contains(&indices) {
                out.push(space.instance_from_indices(&indices));
            }
        }
    }
    out
}

/// Lazily yields every combination of the per-parameter index pools as a
/// dense index vector, in lexicographic pool order.
struct PoolCombos<'a> {
    pools: &'a [Vec<u32>],
    cursor: Vec<usize>,
    done: bool,
}

impl<'a> PoolCombos<'a> {
    fn new(pools: &'a [Vec<u32>]) -> Self {
        PoolCombos {
            pools,
            cursor: vec![0; pools.len()],
            done: pools.iter().any(Vec::is_empty),
        }
    }
}

impl Iterator for PoolCombos<'_> {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        if self.done {
            return None;
        }
        let indices: Vec<u32> = self
            .cursor
            .iter()
            .zip(self.pools)
            .map(|(&c, pool)| pool[c])
            .collect();
        // Advance the mixed-radix counter over pool positions.
        let mut carry = true;
        for (c, pool) in self.cursor.iter_mut().zip(self.pools).rev() {
            if !carry {
                break;
            }
            *c += 1;
            if *c == pool.len() {
                *c = 0;
            } else {
                carry = false;
            }
        }
        if carry {
            self.done = true;
        }
        Some(indices)
    }
}

/// Verifies a suspect by executing instances that satisfy it. `available`
/// is the replay pipeline's executable set, in
/// [`Executor::available_instances`] order (`None` for ordinary pipelines).
fn verify_suspect(
    exec: &Executor,
    space: &ParamSpace,
    available: Option<&[Instance]>,
    suspect: &CanonicalCause,
    config: &DdtConfig,
    rng: &mut StdRng,
) -> Verify {
    // A known succeeding superset refutes without any execution.
    if exec.with_provenance_ref(|prov| prov.succeeding_superset_exists(suspect)) {
        return Verify::Refuted;
    }
    // Replay pipelines expose the finite executable set: direct the probes
    // at satisfying instances that can actually be answered (the paper's
    // "testing the algorithms on unread data", §5.3). Ordinary pipelines
    // sample the suspect-filtered Cartesian product.
    let batch: Vec<Instance> = match available {
        Some(available) => {
            let mut pool: Vec<Instance> = available
                .iter()
                .filter(|inst| suspect.satisfied_by(inst, space))
                .cloned()
                .collect();
            // Unbiased pick of up to `verification_samples` probes.
            for i in (1..pool.len()).rev() {
                pool.swap(i, rng.gen_range(0..=i));
            }
            pool.truncate(config.verification_samples);
            pool
        }
        None => sample_satisfying(
            space,
            suspect,
            config.verification_samples,
            config.prototype,
            rng,
        ),
    };
    if batch.is_empty() {
        return Verify::NoEvidence;
    }
    let results = exec.evaluate_batch(&batch);
    let mut failures = 0;
    let mut budget_hit = false;
    for r in &results {
        match r {
            Ok(Outcome::Succeed) => return Verify::Refuted,
            Ok(Outcome::Fail) => failures += 1,
            Err(ExecError::BudgetExhausted) => budget_hit = true,
            Err(ExecError::Unavailable) => {}
        }
    }
    if failures > 0 {
        return Verify::Confirmed;
    }
    if budget_hit {
        return Verify::Budget;
    }
    // Every probe was unavailable — the historical-replay setting (paper
    // §5.3), where no new instances can be created. The best attainable
    // evidence is the history itself: a suspect with failing support and no
    // succeeding superset (checked above) is asserted from provenance alone.
    let (hist_fail, hist_succeed) = exec.with_provenance_ref(|prov| prov.support(suspect));
    if hist_fail > 0 && hist_succeed == 0 {
        Verify::Confirmed
    } else {
        Verify::NoEvidence
    }
}

/// Greedy generalization: widen the cause's per-parameter extents one domain
/// value at a time, keeping an expansion whenever the *widened-only* region
/// (the cause with that parameter pinned to the new value) verifies as
/// all-fail. Recovers e.g. `p ≤ 3` from a confirmed-but-narrow `p ≤ 2`, or
/// `p ≠ 5` from `p = 2`. `Err(())` signals budget exhaustion.
fn generalize_cause(
    exec: &Executor,
    space: &ParamSpace,
    available: Option<&[Instance]>,
    mut canon: CanonicalCause,
    config: &DdtConfig,
    rng: &mut StdRng,
) -> Result<CanonicalCause, ()> {
    // Fewer samples per probe: each delta region is one pinned value.
    let delta_config = DdtConfig {
        verification_samples: (config.verification_samples / 2).max(2),
        ..config.clone()
    };
    loop {
        let mut changed = false;
        let params: Vec<_> = canon.constrained(space).collect();
        for p in params {
            for w in 0..space.domain(p).len() {
                // Re-read each iteration: accepted widenings update the set,
                // and a fully widened parameter drops out of the cause.
                if !canon.constrains(space, p) {
                    break;
                }
                if canon.allows(space, p, w) {
                    continue;
                }
                // Delta region: the cause with parameter p pinned to value w.
                let mut delta = canon.clone();
                delta.block_mut(space, p).fill(0);
                delta.set_allowed(space, p, w, true);
                if delta.is_unsatisfiable(space) {
                    continue;
                }
                match verify_suspect(exec, space, available, &delta, &delta_config, rng) {
                    Verify::Confirmed => {
                        canon.set_allowed(space, p, w, true);
                        changed = true;
                    }
                    Verify::Budget => return Err(()),
                    Verify::Refuted | Verify::NoEvidence => {}
                }
            }
        }
        if !changed {
            break;
        }
    }
    Ok(canon)
}

/// Greedy minimization (Def. 5): repeatedly drop a predicate whose removal
/// still verifies as definitive. Each candidate is canonicalized once, for
/// its verification. `Err(())` signals budget exhaustion.
fn minimize_cause(
    exec: &Executor,
    space: &ParamSpace,
    available: Option<&[Instance]>,
    mut cause: Conjunction,
    config: &DdtConfig,
    rng: &mut StdRng,
) -> Result<Conjunction, ()> {
    'restart: loop {
        let candidates: Vec<Conjunction> = (0..cause.len())
            .map(|i| cause.without(i))
            .filter(|c| !c.is_empty())
            .collect();
        for candidate in candidates {
            let canon = candidate.canonicalize(space);
            match verify_suspect(exec, space, available, &canon, config, rng) {
                Verify::Confirmed => {
                    cause = candidate;
                    continue 'restart;
                }
                Verify::Budget => return Err(()),
                Verify::Refuted | Verify::NoEvidence => {}
            }
        }
        return Ok(cause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{Comparator, EvalResult, ParamSpace, Predicate, Run, Value};
    use bugdoc_engine::{Executor, ExecutorConfig, FnPipeline, Pipeline};
    use std::sync::Arc;

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("n", [1, 2, 3, 4, 5])
            .categorical("color", ["red", "green", "blue"])
            .ordinal("m", [1, 2, 3, 4, 5])
            .build()
    }

    fn seeded_exec(
        s: &Arc<ParamSpace>,
        fail_if: impl Fn(&Instance) -> bool + Send + Sync + 'static,
        seeds: usize,
    ) -> Executor {
        let pipe: Arc<dyn Pipeline> = Arc::new(FnPipeline::new(s.clone(), move |i: &Instance| {
            EvalResult::of(Outcome::from_check(!fail_if(i)))
        }));
        let exec = Executor::new(pipe, ExecutorConfig::default());
        // Deterministic seed history: a spread of instances.
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..seeds {
            let inst = random_instance(s, &mut rng);
            let _ = exec.evaluate(&inst);
        }
        exec
    }

    #[test]
    fn finds_inequality_cause() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let exec = seeded_exec(&s, move |i: &Instance| i.get(n) > &Value::from(3), 12);
        let report = debugging_decision_trees(&exec, &DdtConfig::default()).unwrap();
        assert_eq!(report.causes.len(), 1);
        let expected = Conjunction::new(vec![Predicate::new(n, Comparator::Gt, 3)]);
        assert_eq!(
            report.causes.conjuncts()[0].canonicalize(&s),
            expected.canonicalize(&s)
        );
        assert!(report.complete);
    }

    #[test]
    fn finds_conjunction_cause() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();
        let exec = seeded_exec(
            &s,
            {
                move |i: &Instance| i.get(n) > &Value::from(3) && i.get(color) == &Value::from("red")
            },
            20,
        );
        let report = debugging_decision_trees(&exec, &DdtConfig::default()).unwrap();
        assert_eq!(report.causes.len(), 1);
        let expected = Conjunction::new(vec![
            Predicate::new(n, Comparator::Gt, 3),
            Predicate::eq(color, "red"),
        ]);
        assert_eq!(
            report.causes.conjuncts()[0].canonicalize(&s),
            expected.canonicalize(&s)
        );
    }

    #[test]
    fn find_all_discovers_disjunction() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let m = s.by_name("m").unwrap();
        let exec = seeded_exec(
            &s,
            {
                move |i: &Instance| i.get(n) == &Value::from(5) || i.get(m) == &Value::from(1)
            },
            30,
        );
        let report = debugging_decision_trees(
            &exec,
            &DdtConfig {
                mode: DdtMode::FindAll,
                verification_samples: 12,
                ..DdtConfig::default()
            },
        )
        .unwrap();
        let expected = [
            Conjunction::new(vec![Predicate::eq(n, 5)]).canonicalize(&s),
            Conjunction::new(vec![Predicate::eq(m, 1)]).canonicalize(&s),
        ];
        let got: Vec<CanonicalCause> = report
            .causes
            .conjuncts()
            .iter()
            .map(|c| c.canonicalize(&s))
            .collect();
        for e in &expected {
            assert!(
                got.contains(e),
                "missing cause; got {}",
                report.causes.display(&s)
            );
        }
        assert_eq!(got.len(), 2, "extra causes: {}", report.causes.display(&s));
    }

    #[test]
    fn refutation_triggers_rebuild() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let m = s.by_name("m").unwrap();
        // Failure needs BOTH n=5 and m≥3; with few seeds the first tree often
        // proposes a too-short suspect that verification refutes.
        let exec = seeded_exec(
            &s,
            {
                move |i: &Instance| i.get(n) == &Value::from(5) && i.get(m) >= &Value::from(3)
            },
            10,
        );
        // Guarantee the history holds a failing example of the conjunction.
        exec.evaluate(&Instance::from_pairs(
            &s,
            [("n", 5.into()), ("color", "red".into()), ("m", 4.into())],
        ))
        .unwrap();
        let report = debugging_decision_trees(
            &exec,
            &DdtConfig {
                verification_samples: 10,
                ..DdtConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.causes.len(), 1);
        let expected = Conjunction::new(vec![
            Predicate::eq(n, 5),
            Predicate::new(m, Comparator::Gt, 2),
        ]);
        assert_eq!(
            report.causes.conjuncts()[0].canonicalize(&s),
            expected.canonicalize(&s)
        );
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let pipe: Arc<dyn Pipeline> = Arc::new(FnPipeline::new(s.clone(), {
            move |i: &Instance| {
                EvalResult::of(Outcome::from_check(i.get(n) <= &Value::from(3)))
            }
        }));
        let exec = Executor::new(
            pipe,
            ExecutorConfig {
                workers: 2,
                budget: Some(6),
                ..Default::default()
            },
        );
        // Seed minimal history inside the budget.
        let mk = |nn: i64, c: &str, mm: i64| {
            Instance::from_pairs(
                &s,
                [("n", nn.into()), ("color", c.into()), ("m", mm.into())],
            )
        };
        exec.evaluate(&mk(5, "red", 1)).unwrap();
        exec.evaluate(&mk(1, "blue", 2)).unwrap();
        let report = debugging_decision_trees(&exec, &DdtConfig::default()).unwrap();
        // It may or may not confirm within 4 more executions, but it must not
        // loop forever and must flag completeness accurately.
        assert!(report.new_executions <= 4);
        if !report.complete {
            assert!(report.causes.len() <= 1);
        }
    }

    #[test]
    fn no_failing_history_is_an_error() {
        let s = space();
        let pipe: Arc<dyn Pipeline> = Arc::new(FnPipeline::new(s.clone(), |_: &Instance| {
            EvalResult::of(Outcome::Succeed)
        }));
        let exec = Executor::new(pipe, ExecutorConfig::default());
        assert!(matches!(
            debugging_decision_trees(&exec, &DdtConfig::default()),
            Err(AlgoError::NoFailingInstance)
        ));
    }

    #[test]
    fn all_fail_space_asserts_top() {
        let s = space();
        let pipe: Arc<dyn Pipeline> = Arc::new(FnPipeline::new(s.clone(), |_: &Instance| {
            EvalResult::of(Outcome::Fail)
        }));
        let exec = Executor::new(pipe, ExecutorConfig::default());
        let report = debugging_decision_trees(&exec, &DdtConfig::default()).unwrap();
        assert_eq!(report.causes.len(), 1);
        assert!(report.causes.conjuncts()[0].is_empty());
    }

    /// A budget that refuses every enrichment probe leaves no evidence that
    /// anything succeeds, so DDT asserts nothing and reports the run
    /// incomplete instead of reading the empty succeed side as "every probe
    /// failed" and asserting ⊤.
    #[test]
    fn budget_starved_enrichment_asserts_nothing() {
        let s = ParamSpace::builder()
            .ordinal("y", [1, 2])
            .categorical("z", ["a", "b"])
            .build();
        let y = s.by_name("y").unwrap();
        let pipe: Arc<dyn Pipeline> = Arc::new(FnPipeline::new(s.clone(), move |i: &Instance| {
            EvalResult::of(Outcome::from_check(i.get(y) != &Value::from(2)))
        }));
        let seeded = ProvenanceStore::with_runs(
            s.clone(),
            [Run {
                instance: s.instance_from_indices(&[1, 0]),
                eval: EvalResult::of(Outcome::Fail),
            }],
        );
        let exec = Executor::with_provenance(
            pipe,
            ExecutorConfig {
                budget: Some(0),
                ..Default::default()
            },
            seeded,
        );
        let report = debugging_decision_trees(&exec, &DdtConfig::default()).unwrap();
        assert!(report.causes.is_empty(), "asserted {:?}", report.causes);
        assert!(!report.complete);
        assert_eq!(report.new_executions, 0);
    }

    #[test]
    fn sample_satisfying_respects_filter() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();
        let suspect = Conjunction::new(vec![
            Predicate::new(n, Comparator::Gt, 3),
            Predicate::new(color, Comparator::Neq, "blue"),
        ]);
        let mut rng = StdRng::seed_from_u64(3);
        let canon = suspect.canonicalize(&s);
        let batch = sample_satisfying(&s, &canon, 10, PrototypeStrategy::RandomSatisfying, &mut rng);
        assert!(!batch.is_empty());
        for inst in &batch {
            assert!(suspect.satisfied_by(inst));
        }
        // Distinct instances only.
        let set: std::collections::HashSet<_> = batch.iter().collect();
        assert_eq!(set.len(), batch.len());

        // A block spanning words: w's values 64–129 sit in its second and
        // third words.
        let wide = ParamSpace::builder()
            .ordinal("w", 0..130i64)
            .boolean("flag")
            .build();
        let w = wide.by_name("w").unwrap();
        let suspect = Conjunction::new(vec![
            Predicate::new(w, Comparator::Gt, 100i64),
            Predicate::new(w, Comparator::Neq, 120i64),
        ]);
        let canon = suspect.canonicalize(&wide);
        let strategy = PrototypeStrategy::RandomSatisfying;
        let batch = sample_satisfying(&wide, &canon, 10, strategy, &mut rng);
        assert_eq!(batch.len(), 10);
        assert!(batch.iter().all(|inst| suspect.satisfied_by(inst)));
    }

    #[test]
    fn fixed_prototype_pins_constrained_params() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let suspect = Conjunction::new(vec![Predicate::new(n, Comparator::Gt, 3)]);
        let mut rng = StdRng::seed_from_u64(4);
        let canon = suspect.canonicalize(&s);
        let batch = sample_satisfying(&s, &canon, 8, PrototypeStrategy::FixedPrototype, &mut rng);
        // The prototype is the first satisfying value: n = 4.
        for inst in &batch {
            assert_eq!(inst.get(n), &Value::from(4));
        }
    }

    #[test]
    fn sample_satisfying_unsat_is_empty() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let unsat = Conjunction::new(vec![
            Predicate::new(n, Comparator::Le, 1),
            Predicate::new(n, Comparator::Gt, 2),
        ])
        .canonicalize(&s);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(sample_satisfying(&s, &unsat, 5, PrototypeStrategy::RandomSatisfying, &mut rng)
            .is_empty());
    }

    #[test]
    fn minimization_strips_spurious_predicates() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();
        let exec = seeded_exec(
            &s,
            {
                move |i: &Instance| i.get(n) == &Value::from(5)
            },
            8,
        );
        let bloated = Conjunction::new(vec![
            Predicate::eq(n, 5),
            Predicate::eq(color, "red"), // spurious
        ]);
        let mut rng = StdRng::seed_from_u64(6);
        let minimal =
            minimize_cause(&exec, &s, None, bloated, &DdtConfig::default(), &mut rng).unwrap();
        assert_eq!(
            minimal.canonicalize(&s),
            Conjunction::new(vec![Predicate::eq(n, 5)]).canonicalize(&s)
        );
    }
}

#[cfg(test)]
mod generalize_tests {
    use super::*;
    use bugdoc_core::{Comparator, EvalResult, ParamSpace, Predicate, Value};
    use bugdoc_engine::{Executor, ExecutorConfig, FnPipeline, Pipeline};
    use std::sync::Arc;

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("n", [1, 2, 3, 4, 5])
            .ordinal("m", [1, 2, 3, 4, 5])
            .build()
    }

    fn exec_for(
        s: &Arc<ParamSpace>,
        fail_if: impl Fn(&Instance) -> bool + Send + Sync + 'static,
    ) -> Executor {
        let pipe: Arc<dyn Pipeline> = Arc::new(FnPipeline::new(s.clone(), move |i: &Instance| {
            EvalResult::of(Outcome::from_check(!fail_if(i)))
        }));
        Executor::new(pipe, ExecutorConfig::default())
    }

    /// True cause n ≤ 3; a narrow confirmed suspect n ≤ 2 must widen to the
    /// full extent (and never past it).
    #[test]
    fn widens_range_to_true_extent() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let exec = exec_for(&s, move |i| i.get(n) <= &Value::from(3));
        let narrow = Conjunction::new(vec![Predicate::new(n, Comparator::Le, 2)]).canonicalize(&s);
        let mut rng = StdRng::seed_from_u64(1);
        let wide =
            generalize_cause(&exec, &s, None, narrow, &DdtConfig::default(), &mut rng).unwrap();
        let expected = Conjunction::new(vec![Predicate::new(n, Comparator::Le, 3)]);
        assert_eq!(wide, expected.canonicalize(&s));
    }

    /// True cause n ≠ 5; a pointwise suspect n = 2 must widen to the
    /// complement form.
    #[test]
    fn widens_point_to_negation() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let exec = exec_for(&s, move |i| i.get(n) != &Value::from(5));
        let point = Conjunction::new(vec![Predicate::eq(n, 2)]).canonicalize(&s);
        let mut rng = StdRng::seed_from_u64(2);
        let wide =
            generalize_cause(&exec, &s, None, point, &DdtConfig::default(), &mut rng).unwrap();
        let expected = Conjunction::new(vec![Predicate::new(n, Comparator::Neq, 5)]);
        assert_eq!(wide, expected.canonicalize(&s));
    }

    /// Generalization must not cross a boundary where instances succeed.
    #[test]
    fn does_not_overwiden() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let m = s.by_name("m").unwrap();
        let exec = exec_for(&s, move |i| {
            i.get(n) == &Value::from(5) && i.get(m) <= &Value::from(2)
        });
        let exact = Conjunction::new(vec![
            Predicate::eq(n, 5),
            Predicate::new(m, Comparator::Le, 2),
        ])
        .canonicalize(&s);
        let mut rng = StdRng::seed_from_u64(3);
        let wide = generalize_cause(
            &exec,
            &s,
            None,
            exact.clone(),
            &DdtConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(wide, exact);
    }

    /// End-to-end: DDT with generalization recovers `n ≤ 3` even when the
    /// seeded history only exhibits failures at n ≤ 2.
    #[test]
    fn ddt_end_to_end_recovers_full_range() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let exec = exec_for(&s, move |i| i.get(n) <= &Value::from(3));
        // Seeds: failures only at n = 1, 2; successes at 4, 5.
        for (nn, mm) in [(1, 1), (2, 4), (4, 2), (5, 5), (4, 4)] {
            exec.evaluate(&Instance::from_pairs(
                &s,
                [("n", nn.into()), ("m", mm.into())],
            ))
            .unwrap();
        }
        let report = debugging_decision_trees(&exec, &DdtConfig::default()).unwrap();
        let expected = Conjunction::new(vec![Predicate::new(n, Comparator::Le, 3)]);
        assert_eq!(report.causes.len(), 1);
        assert_eq!(
            report.causes.conjuncts()[0].canonicalize(&s),
            expected.canonicalize(&s)
        );
    }
}
