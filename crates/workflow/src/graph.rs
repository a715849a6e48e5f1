//! The workflow graph: a DAG of parameterized modules with swappable
//! implementations, compiled into a BugDoc-debuggable [`Pipeline`].
//!
//! This is the paper's pipeline model made concrete (§3, Def. 1): the
//! manipulable parameters of a computational pipeline include
//! "hyperparameters, input data, versions of programs, computational
//! modules". Here:
//!
//! * a **module** consumes the artifacts of its dependencies and produces an
//!   artifact;
//! * a module may declare **parameters** (hyperparameters it reads);
//! * a module may have **alternative implementations** (the Figure-1
//!   `Estimator` box) — the choice becomes a categorical parameter;
//! * the final module's numeric artifact is thresholded by the workflow's
//!   **evaluation procedure** (Def. 2).
//!
//! Compiling the graph yields a [`WorkflowPipeline`] whose parameter space
//! is exactly the union of all module parameters plus one choice parameter
//! per multi-implementation module — so BugDoc debugs module selection,
//! versions, and hyperparameters uniformly, as the paper intends.

use crate::artifact::Artifact;
use bugdoc_core::{EvalResult, Instance, ParamSpace, Value};
use bugdoc_engine::{Pipeline, PipelineError, SimTime};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// What a module implementation sees when it runs: its declared parameters
/// (resolved from the instance) and its dependencies' artifacts.
pub struct ModuleCtx<'a> {
    params: HashMap<&'a str, &'a Value>,
    inputs: &'a [Artifact],
}

impl ModuleCtx<'_> {
    /// The value of a declared parameter. Panics on undeclared names — a
    /// module reading a parameter it never declared is a wiring bug.
    pub fn param(&self, name: &str) -> &Value {
        self.params
            .get(name)
            .unwrap_or_else(|| panic!("module did not declare parameter {name:?}"))
    }

    /// The parameter as f64 (for numeric hyperparameters).
    pub fn param_f64(&self, name: &str) -> f64 {
        self.param(name)
            .as_f64()
            .unwrap_or_else(|| panic!("parameter {name:?} is not numeric"))
    }

    /// The i-th dependency's artifact.
    pub fn input(&self, i: usize) -> &Artifact {
        &self.inputs[i]
    }

    /// All dependency artifacts, in declaration order.
    pub fn inputs(&self) -> &[Artifact] {
        self.inputs
    }
}

/// A module run failure: the instance evaluates to `fail` (crash semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleError {
    /// Human-readable crash description.
    pub message: String,
}

impl ModuleError {
    /// Creates a module error.
    pub fn new(message: impl Into<String>) -> Self {
        ModuleError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "module error: {}", self.message)
    }
}

type ModuleFn = Arc<dyn Fn(&ModuleCtx) -> Result<Artifact, ModuleError> + Send + Sync>;

/// One implementation of a module.
pub struct Implementation {
    name: String,
    run: ModuleFn,
}

impl Implementation {
    /// Creates a named implementation.
    pub fn new(
        name: impl Into<String>,
        run: impl Fn(&ModuleCtx) -> Result<Artifact, ModuleError> + Send + Sync + 'static,
    ) -> Self {
        Implementation {
            name: name.into(),
            run: Arc::new(run),
        }
    }
}

/// A parameter a module declares: name + domain values + kind.
pub struct ParamDecl {
    name: String,
    values: Vec<Value>,
    ordinal: bool,
}

impl ParamDecl {
    /// An ordinal (ordered) parameter.
    pub fn ordinal(name: impl Into<String>, values: impl IntoIterator<Item = impl Into<Value>>) -> Self {
        ParamDecl {
            name: name.into(),
            values: values.into_iter().map(Into::into).collect(),
            ordinal: true,
        }
    }

    /// A categorical parameter.
    pub fn categorical(
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<Value>>,
    ) -> Self {
        ParamDecl {
            name: name.into(),
            values: values.into_iter().map(Into::into).collect(),
            ordinal: false,
        }
    }
}

struct ModuleDef {
    name: String,
    deps: Vec<usize>,
    params: Vec<ParamDecl>,
    implementations: Vec<Implementation>,
}

/// Fluent builder for workflow graphs.
pub struct WorkflowBuilder {
    name: String,
    modules: Vec<ModuleDef>,
    by_name: HashMap<String, usize>,
}

/// Handle to a module added to the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleId(usize);

impl WorkflowBuilder {
    /// Starts a workflow.
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowBuilder {
            name: name.into(),
            modules: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Adds a module with a single implementation.
    pub fn module(
        &mut self,
        name: impl Into<String>,
        deps: &[ModuleId],
        params: Vec<ParamDecl>,
        run: impl Fn(&ModuleCtx) -> Result<Artifact, ModuleError> + Send + Sync + 'static,
    ) -> ModuleId {
        let name = name.into();
        self.add(
            name.clone(),
            deps,
            params,
            vec![Implementation::new(name, run)],
        )
    }

    /// Adds a module with alternative implementations; the selection becomes
    /// a categorical parameter named `<module>.impl` (the Figure-1
    /// `Estimator` pattern).
    pub fn choice_module(
        &mut self,
        name: impl Into<String>,
        deps: &[ModuleId],
        params: Vec<ParamDecl>,
        implementations: Vec<Implementation>,
    ) -> ModuleId {
        assert!(
            implementations.len() >= 2,
            "choice module needs at least two implementations"
        );
        self.add(name.into(), deps, params, implementations)
    }

    fn add(
        &mut self,
        name: String,
        deps: &[ModuleId],
        params: Vec<ParamDecl>,
        implementations: Vec<Implementation>,
    ) -> ModuleId {
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate module name {name:?}"
        );
        for dep in deps {
            assert!(dep.0 < self.modules.len(), "dependency added before use");
        }
        assert!(!implementations.is_empty(), "module needs an implementation");
        let id = self.modules.len();
        self.by_name.insert(name.clone(), id);
        self.modules.push(ModuleDef {
            name,
            deps: deps.iter().map(|d| d.0).collect(),
            params,
            implementations,
        });
        ModuleId(id)
    }

    /// Compiles the graph: `sink` is the module whose numeric artifact the
    /// evaluation thresholds; `succeed_if` maps that number to the binary
    /// outcome. A crash (any [`ModuleError`]) evaluates to `fail`.
    pub fn build(
        self,
        sink: ModuleId,
        succeed_if: impl Fn(f64) -> bool + Send + Sync + 'static,
    ) -> WorkflowPipeline {
        assert!(sink.0 < self.modules.len());
        // Compile the parameter space: module params (qualified by module
        // name when ambiguous... keep simple: require global uniqueness),
        // plus one choice param per multi-implementation module.
        let mut builder = ParamSpace::builder();
        let mut bindings: Vec<CompiledModule> = Vec::new();
        let mut param_names: Vec<String> = Vec::new();

        for def in &self.modules {
            let mut local_params = Vec::new();
            for decl in &def.params {
                assert!(
                    !param_names.contains(&decl.name),
                    "parameter name {:?} is used by two modules; qualify it",
                    decl.name
                );
                param_names.push(decl.name.clone());
                builder = if decl.ordinal {
                    builder.ordinal(decl.name.clone(), decl.values.clone())
                } else {
                    builder.categorical(decl.name.clone(), decl.values.clone())
                };
                local_params.push(decl.name.clone());
            }
            let choice_param = if def.implementations.len() > 1 {
                let pname = format!("{}.impl", def.name);
                assert!(!param_names.contains(&pname));
                param_names.push(pname.clone());
                builder = builder.categorical(
                    pname.clone(),
                    def.implementations
                        .iter()
                        .map(|i| Value::str(&i.name))
                        .collect::<Vec<_>>(),
                );
                Some(pname)
            } else {
                None
            };
            bindings.push(CompiledModule {
                deps: def.deps.clone(),
                local_params,
                choice_param,
                implementations: def
                    .implementations
                    .iter()
                    .map(|i| (i.name.clone(), i.run.clone()))
                    .collect(),
            });
        }

        WorkflowPipeline {
            space: builder.build(),
            modules: bindings,
            sink: sink.0,
            succeed_if: Arc::new(succeed_if),
            name: self.name,
            cost: SimTime::from_secs(60.0),
        }
    }
}

struct CompiledModule {
    deps: Vec<usize>,
    local_params: Vec<String>,
    choice_param: Option<String>,
    implementations: Vec<(String, ModuleFn)>,
}

/// A compiled workflow: a [`Pipeline`] whose execution runs the module DAG.
pub struct WorkflowPipeline {
    space: Arc<ParamSpace>,
    modules: Vec<CompiledModule>,
    sink: usize,
    succeed_if: Arc<dyn Fn(f64) -> bool + Send + Sync>,
    name: String,
    cost: SimTime,
}

impl WorkflowPipeline {
    /// Overrides the simulated per-instance cost (default 60 s).
    pub fn with_cost(mut self, cost: SimTime) -> Self {
        self.cost = cost;
        self
    }

    /// Runs the DAG for an instance, returning the sink module's artifact
    /// (for tests and callers that need the raw result).
    pub fn run_dag(&self, instance: &Instance) -> Result<Artifact, ModuleError> {
        let mut artifacts: Vec<Option<Artifact>> = (0..self.modules.len()).map(|_| None).collect();
        // Modules are stored in dependency order by construction (deps must
        // exist before use), so a single left-to-right pass suffices.
        for (i, module) in self.modules.iter().enumerate() {
            let inputs: Vec<Artifact> = module
                .deps
                .iter()
                .map(|&d| artifacts[d].clone().expect("deps run before dependents"))
                .collect();
            let mut params: HashMap<&str, &Value> = HashMap::new();
            for pname in &module.local_params {
                let pid = self.space.by_name(pname).expect("compiled parameter");
                params.insert(pname.as_str(), instance.get(pid));
            }
            let run = match &module.choice_param {
                None => &module.implementations[0].1,
                Some(pname) => {
                    let pid = self.space.by_name(pname).expect("compiled choice");
                    let chosen = instance.get(pid).to_string();
                    &module
                        .implementations
                        .iter()
                        .find(|(n, _)| *n == chosen)
                        .expect("choice value names an implementation")
                        .1
                }
            };
            let ctx = ModuleCtx {
                params,
                inputs: &inputs,
            };
            artifacts[i] = Some(run(&ctx)?);
        }
        Ok(artifacts[self.sink].clone().expect("sink executed"))
    }
}

impl Pipeline for WorkflowPipeline {
    fn space(&self) -> &Arc<ParamSpace> {
        &self.space
    }

    fn execute(&self, instance: &Instance) -> Result<EvalResult, PipelineError> {
        match self.run_dag(instance) {
            // A crash is a failure with no score (Def. 2's crash semantics).
            Err(_) => Ok(EvalResult::of(bugdoc_core::Outcome::Fail)),
            Ok(artifact) => {
                let score = artifact.as_number().unwrap_or(f64::NAN);
                if score.is_nan() {
                    return Ok(EvalResult::of(bugdoc_core::Outcome::Fail));
                }
                Ok(EvalResult {
                    outcome: bugdoc_core::Outcome::from_check((self.succeed_if)(score)),
                    score: Some(score),
                })
            }
        }
    }

    fn cost(&self, _instance: &Instance) -> SimTime {
        self.cost
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// sum -> scale(factor) -> sink; fails when scaled sum < 10.
    fn toy_workflow() -> WorkflowPipeline {
        let mut wf = WorkflowBuilder::new("toy");
        let source = wf.module(
            "source",
            &[],
            vec![ParamDecl::ordinal("base", [1, 5])],
            |ctx| Ok(Artifact::Number(ctx.param_f64("base"))),
        );
        let scale = wf.module(
            "scale",
            &[source],
            vec![ParamDecl::ordinal("factor", [1, 2, 3])],
            |ctx| {
                let x = ctx.input(0).as_number().expect("number in");
                Ok(Artifact::Number(x * ctx.param_f64("factor")))
            },
        );
        wf.build(scale, |score| score >= 10.0)
    }

    fn inst(p: &WorkflowPipeline, base: i64, factor: i64) -> Instance {
        Instance::from_pairs(
            p.space(),
            [("base", Value::from(base)), ("factor", Value::from(factor))],
        )
    }

    #[test]
    fn dag_executes_and_scores() {
        let wf = toy_workflow();
        assert_eq!(wf.space().len(), 2);
        let good = inst(&wf, 5, 2);
        let eval = wf.execute(&good).unwrap();
        assert!(eval.outcome.is_succeed());
        assert_eq!(eval.score, Some(10.0));
        let bad = inst(&wf, 1, 3);
        assert!(wf.execute(&bad).unwrap().outcome.is_fail());
    }

    #[test]
    fn choice_module_becomes_parameter() {
        let mut wf = WorkflowBuilder::new("choices");
        let source = wf.module("source", &[], vec![], |_| Ok(Artifact::Number(4.0)));
        let est = wf.choice_module(
            "estimator",
            &[source],
            vec![],
            vec![
                Implementation::new("double", |ctx: &ModuleCtx| {
                    Ok(Artifact::Number(ctx.input(0).as_number().unwrap() * 2.0))
                }),
                Implementation::new("halve", |ctx: &ModuleCtx| {
                    Ok(Artifact::Number(ctx.input(0).as_number().unwrap() / 2.0))
                }),
            ],
        );
        let wf = wf.build(est, |s| s >= 5.0);
        let space = wf.space().clone();
        let impl_param = space.by_name("estimator.impl").expect("choice parameter");
        assert_eq!(space.domain(impl_param).len(), 2);

        let double = Instance::from_pairs(&space, [("estimator.impl", "double".into())]);
        assert!(wf.execute(&double).unwrap().outcome.is_succeed());
        let halve = Instance::from_pairs(&space, [("estimator.impl", "halve".into())]);
        assert!(wf.execute(&halve).unwrap().outcome.is_fail());
    }

    #[test]
    fn module_crash_is_fail() {
        let mut wf = WorkflowBuilder::new("crashy");
        let m = wf.module(
            "boom",
            &[],
            vec![ParamDecl::ordinal("x", [0, 1])],
            |ctx| {
                if ctx.param_f64("x") == 0.0 {
                    Err(ModuleError::new("division by zero"))
                } else {
                    Ok(Artifact::Number(1.0))
                }
            },
        );
        let wf = wf.build(m, |s| s > 0.0);
        let space = wf.space().clone();
        let crash = Instance::from_pairs(&space, [("x", 0.into())]);
        let eval = wf.execute(&crash).unwrap();
        assert!(eval.outcome.is_fail());
        assert_eq!(eval.score, None);
        let ok = Instance::from_pairs(&space, [("x", 1.into())]);
        assert!(wf.execute(&ok).unwrap().outcome.is_succeed());
    }

    #[test]
    fn non_numeric_sink_is_fail() {
        let mut wf = WorkflowBuilder::new("texty");
        let m = wf.module("t", &[], vec![], |_| Ok(Artifact::Text("hello".into())));
        let wf = wf.build(m, |_| true);
        // Zero-parameter space has exactly one (empty) instance.
        let inst = wf.space().instance_from_indices(&[]);
        assert!(wf.execute(&inst).unwrap().outcome.is_fail());
    }

    #[test]
    #[should_panic(expected = "duplicate module name")]
    fn duplicate_module_rejected() {
        let mut wf = WorkflowBuilder::new("dup");
        wf.module("m", &[], vec![], |_| Ok(Artifact::Empty));
        wf.module("m", &[], vec![], |_| Ok(Artifact::Empty));
    }

    #[test]
    #[should_panic(expected = "used by two modules")]
    fn duplicate_parameter_rejected() {
        let mut wf = WorkflowBuilder::new("dup-param");
        wf.module("a", &[], vec![ParamDecl::ordinal("x", [1, 2])], |_| {
            Ok(Artifact::Empty)
        });
        let b = wf.module("b", &[], vec![ParamDecl::ordinal("x", [1, 2])], |_| {
            Ok(Artifact::Empty)
        });
        // The collision is detected when the space is compiled.
        let _ = wf.build(b, |_| true);
    }

    #[test]
    #[should_panic(expected = "did not declare parameter")]
    fn undeclared_param_read_panics() {
        let mut wf = WorkflowBuilder::new("sneaky");
        let m = wf.module("m", &[], vec![], |ctx| {
            let _ = ctx.param("ghost");
            Ok(Artifact::Empty)
        });
        let wf = wf.build(m, |_| true);
        let _ = wf.run_dag(&wf.space().instance_from_indices(&[]));
    }

    #[test]
    fn diamond_dependency_runs_once_per_module() {
        // a -> b, a -> c, (b,c) -> d.
        let mut wf = WorkflowBuilder::new("diamond");
        let a = wf.module("a", &[], vec![], |_| Ok(Artifact::Number(3.0)));
        let b = wf.module("b", &[a], vec![], |ctx| {
            Ok(Artifact::Number(ctx.input(0).as_number().unwrap() + 1.0))
        });
        let c = wf.module("c", &[a], vec![], |ctx| {
            Ok(Artifact::Number(ctx.input(0).as_number().unwrap() * 2.0))
        });
        let d = wf.module("d", &[b, c], vec![], |ctx| {
            Ok(Artifact::Number(
                ctx.input(0).as_number().unwrap() + ctx.input(1).as_number().unwrap(),
            ))
        });
        let wf = wf.build(d, |s| s >= 10.0);
        let result = wf.run_dag(&wf.space().instance_from_indices(&[])).unwrap();
        assert_eq!(result.as_number(), Some(10.0)); // (3+1) + (3*2)
    }
}
