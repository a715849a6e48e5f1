//! The combined BugDoc driver.
//!
//! The real-world evaluation runs "BugDoc (using Stacked Shortcut and
//! Debugging Decision Trees combined)" (paper §5.3, Figure 7): the cheap
//! linear-cost Stacked Shortcut first, then DDT for inequality and
//! disjunctive causes, with the final explanation set deduplicated
//! semantically and simplified with Quine–McCluskey.

use crate::ddt::{debugging_decision_trees, DdtConfig, DdtMode};
use crate::error::AlgoError;
use crate::stacked::{stacked_shortcut, StackedConfig};
use bugdoc_core::{CanonicalCause, Conjunction, Dnf};
use bugdoc_engine::Executor;

/// Which algorithms the driver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Shortcut stacked over k disjoint goods only (cheap, equality causes).
    StackedShortcutOnly,
    /// Debugging Decision Trees only (inequalities, disjunctions).
    DdtOnly,
    /// Stacked Shortcut then DDT — the paper's combined configuration.
    Combined,
}

/// The keyword every front end names a strategy by: the CLI's
/// `--algorithm` and the wire's `algorithm=`.
impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Strategy::Combined => "combined",
            Strategy::StackedShortcutOnly => "stacked",
            Strategy::DdtOnly => "ddt",
        })
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(keyword: &str) -> Result<Self, String> {
        match keyword {
            "combined" => Ok(Strategy::Combined),
            "stacked" => Ok(Strategy::StackedShortcutOnly),
            "ddt" => Ok(Strategy::DdtOnly),
            other => Err(format!("unknown algorithm {other:?}")),
        }
    }
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct BugDocConfig {
    /// Algorithm selection.
    pub strategy: Strategy,
    /// FindOne or FindAll (forwarded to DDT; Stacked always yields one).
    pub mode: DdtMode,
    /// Stacked Shortcut settings.
    pub stacked: StackedConfig,
    /// DDT settings.
    pub ddt: DdtConfig,
}

impl Default for BugDocConfig {
    fn default() -> Self {
        BugDocConfig {
            strategy: Strategy::Combined,
            mode: DdtMode::FindAll,
            stacked: StackedConfig::default(),
            ddt: DdtConfig {
                mode: DdtMode::FindAll,
                ..DdtConfig::default()
            },
        }
    }
}

impl BugDocConfig {
    /// The configuration every BugDoc front end uses — the one-shot CLI and
    /// `bugdoc serve` sessions alike. Keeping the knobs in one constructor
    /// is what makes a served diagnosis bit-identical to a one-shot run over
    /// the same history: both drive `diagnose` with exactly these settings.
    pub fn front_end(strategy: Strategy, mode: DdtMode, seed: u64) -> Self {
        BugDocConfig {
            strategy,
            mode,
            stacked: StackedConfig {
                seed,
                ..StackedConfig::default()
            },
            ddt: DdtConfig {
                mode,
                seed,
                // A front end may start from an empty history: probe harder
                // so rare failure regions are still discovered.
                enrich_initial: 32,
                exploration_rounds: 3,
                ..DdtConfig::default()
            },
        }
    }
}

/// A combined diagnosis.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// The asserted root causes, semantically deduplicated and simplified.
    pub causes: Dnf,
    /// Cause asserted by Stacked Shortcut, if it ran and asserted one.
    pub stacked_cause: Option<Conjunction>,
    /// Causes asserted by DDT, if it ran.
    pub ddt_causes: Option<Dnf>,
    /// New pipeline executions consumed in total.
    pub new_executions: usize,
}

impl Diagnosis {
    /// Renders the cause section of a diagnosis report — the lines every
    /// BugDoc front end (one-shot CLI, `bugdoc serve` sessions) prints, kept
    /// in one place so a served diagnosis is bit-identical to a one-shot
    /// one by construction.
    pub fn render_causes(&self, space: &bugdoc_core::ParamSpace) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.causes.is_empty() {
            let _ = writeln!(out, "no definitive root cause asserted");
        } else {
            let _ = writeln!(out, "minimal definitive root cause(s):");
            for cause in self.causes.conjuncts() {
                let _ = writeln!(out, "  {}", cause.display(space));
            }
        }
        out
    }
}

/// Runs the configured BugDoc strategy against the executor's history.
pub fn diagnose(exec: &Executor, config: &BugDocConfig) -> Result<Diagnosis, AlgoError> {
    let space = exec.space();
    let start = exec.stats().new_executions;
    // Saturating: under concurrent sessions another worker's transient
    // reclassify-as-hit can momentarily dip the shared counter below the
    // snapshot taken at `start`.
    let mut collected: Vec<Conjunction> = Vec::new();

    let mut stacked_cause = None;
    if matches!(
        config.strategy,
        Strategy::StackedShortcutOnly | Strategy::Combined
    ) {
        match stacked_shortcut(exec, &config.stacked) {
            Ok(report) => {
                if let Some(c) = &report.cause {
                    collected.push(c.clone());
                }
                stacked_cause = report.cause;
            }
            // A missing comparison instance — or an empty/failure-free
            // history — only disables this stage; DDT can still probe for
            // both outcomes. Genuine input errors propagate.
            Err(AlgoError::NoSucceedingInstance | AlgoError::NoFailingInstance)
                if config.strategy == Strategy::Combined => {}
            Err(e) => return Err(e),
        }
    }

    let mut ddt_causes = None;
    if matches!(config.strategy, Strategy::DdtOnly | Strategy::Combined) {
        let ddt_config = DdtConfig {
            mode: config.mode,
            ..config.ddt.clone()
        };
        let report = debugging_decision_trees(exec, &ddt_config)?;
        collected.extend(report.causes.conjuncts().iter().cloned());
        ddt_causes = Some(report.causes);
    }

    // Semantic dedup, then QM simplification of the union.
    let mut seen: Vec<CanonicalCause> = Vec::new();
    let mut unique: Vec<Conjunction> = Vec::new();
    for c in collected {
        let canon = c.canonicalize(&space);
        if canon.is_unsatisfiable(&space) {
            continue;
        }
        if !seen.contains(&canon) {
            seen.push(canon);
            unique.push(c);
        }
    }
    let mut causes = Dnf::new(unique);
    if causes.len() > 1 {
        causes = bugdoc_qm::minimize_dnf(&space, &causes);
    }

    Ok(Diagnosis {
        causes,
        stacked_cause,
        ddt_causes,
        new_executions: exec.stats().new_executions.saturating_sub(start),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{EvalResult, Instance, Outcome, ParamSpace, Predicate, Value};
    use bugdoc_engine::{Executor, ExecutorConfig, FnPipeline, Pipeline};
    use std::sync::Arc;

    #[test]
    fn keywords_round_trip() {
        for strategy in [
            Strategy::StackedShortcutOnly,
            Strategy::DdtOnly,
            Strategy::Combined,
        ] {
            assert_eq!(strategy.to_string().parse(), Ok(strategy));
        }
        for mode in [DdtMode::FindOne, DdtMode::FindAll] {
            assert_eq!(mode.to_string().parse(), Ok(mode));
        }
    }

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("a", [1, 2, 3, 4])
            .ordinal("b", [1, 2, 3, 4])
            .categorical("c", ["x", "y", "z"])
            .build()
    }

    fn exec_for(
        s: &Arc<ParamSpace>,
        fail_if: impl Fn(&Instance) -> bool + Send + Sync + 'static,
    ) -> Executor {
        let pipe: Arc<dyn Pipeline> = Arc::new(FnPipeline::new(s.clone(), move |i: &Instance| {
            EvalResult::of(Outcome::from_check(!fail_if(i)))
        }));
        let exec = Executor::new(pipe, ExecutorConfig::default());
        // Seed a small history with both outcomes.
        for (a, b, c) in [(1, 1, "x"), (4, 4, "z"), (2, 3, "y"), (4, 1, "x")] {
            let inst = Instance::from_pairs(
                s,
                [("a", a.into()), ("b", b.into()), ("c", c.into())],
            );
            let _ = exec.evaluate(&inst);
        }
        exec
    }

    #[test]
    fn combined_finds_equality_cause() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let exec = exec_for(&s, move |i| i.get(a) == &Value::from(4));
        let diag = diagnose(&exec, &BugDocConfig::default()).unwrap();
        assert_eq!(diag.causes.len(), 1, "got {}", diag.causes.display(&s));
        assert_eq!(
            diag.causes.conjuncts()[0].canonicalize(&s),
            Conjunction::new(vec![Predicate::eq(a, 4)]).canonicalize(&s)
        );
        assert!(diag.stacked_cause.is_some());
        assert!(diag.ddt_causes.is_some());
    }

    #[test]
    fn stacked_only_strategy() {
        let s = space();
        let a = s.by_name("a").unwrap();
        let exec = exec_for(&s, move |i| i.get(a) == &Value::from(4));
        let diag = diagnose(
            &exec,
            &BugDocConfig {
                strategy: Strategy::StackedShortcutOnly,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(diag.ddt_causes.is_none());
        assert!(diag.stacked_cause.is_some());
        assert_eq!(diag.causes.len(), 1);
    }

    #[test]
    fn ddt_only_strategy_handles_inequality() {
        let s = space();
        let b = s.by_name("b").unwrap();
        let exec = exec_for(&s, move |i| i.get(b) > &Value::from(2));
        let diag = diagnose(
            &exec,
            &BugDocConfig {
                strategy: Strategy::DdtOnly,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(diag.stacked_cause.is_none());
        assert_eq!(diag.causes.len(), 1);
        assert_eq!(
            diag.causes.conjuncts()[0].canonicalize(&s),
            Conjunction::new(vec![Predicate::new(b, bugdoc_core::Comparator::Gt, 2)])
                .canonicalize(&s)
        );
    }

    #[test]
    fn duplicate_causes_are_merged() {
        // Stacked and DDT both find a = 4; the diagnosis lists it once.
        let s = space();
        let a = s.by_name("a").unwrap();
        let exec = exec_for(&s, move |i| i.get(a) == &Value::from(4));
        let diag = diagnose(&exec, &BugDocConfig::default()).unwrap();
        assert_eq!(diag.causes.len(), 1);
    }

    #[test]
    fn no_failure_propagates_error() {
        let s = space();
        let exec = exec_for(&s, |_| false);
        assert!(matches!(
            diagnose(&exec, &BugDocConfig::default()),
            Err(AlgoError::NoFailingInstance)
        ));
    }
}
