//! [`GraphModule`]: a [`Graph`] bundled with the module state it refers
//! to.
//!
//! As in the paper (§4.2, §5.6), the graph itself is purely functional —
//! it has no mutation ops — while parameters stay in a familiar,
//! hierarchical, *mutable* module structure alongside it. Transforms can
//! therefore modify code and weights together: conv–BN fusion swaps a
//! submodule for its folded twin and rewires nodes in one object;
//! quantization installs observers and later quantized modules the same
//! way.
//!
//! A `GraphModule` is itself a [`Module`], so transformed programs drop
//! back into the ecosystem anywhere a module is expected — including as
//! a submodule of a model that is then re-traced (the paper's Figure 3).

use crate::codegen;
use crate::error::{Error, Result};
use crate::exec_plan::ExecPlan;
use crate::executor::Executor;
use crate::graph::Graph;
use crate::module::{ArcModule, Module};
use crate::node::Opcode;
use crate::value::Value;
use fx_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Interior state of the per-module plan cache: the last compiled plan
/// plus lifetime counters surfaced in
/// [`RunProfile`](crate::executor::RunProfile).
#[derive(Debug, Clone, Default)]
struct PlanCacheState {
    plan: Option<Arc<ExecPlan>>,
    compiles: u64,
    hits: u64,
}

/// One cached [`ExecPlan`] keyed by [`Graph::version`]. Interior-mutable
/// so `&GraphModule` execution can populate it; cloning a `GraphModule`
/// snapshots the cache (the clone's graph shares the version counter, so
/// the carried plan stays valid until the clone is edited).
#[derive(Debug, Default)]
struct PlanCache {
    inner: Mutex<PlanCacheState>,
}

impl Clone for PlanCache {
    fn clone(&self) -> PlanCache {
        let state = self
            .inner
            .lock()
            .map(|s| s.clone())
            .unwrap_or_default();
        PlanCache {
            inner: Mutex::new(state),
        }
    }
}

/// A captured (and possibly transformed) program plus its state.
#[derive(Debug, Clone)]
pub struct GraphModule {
    graph: Graph,
    modules: BTreeMap<String, ArcModule>,
    attrs: BTreeMap<String, Tensor>,
    code: String,
    input_names: Vec<String>,
    plan_cache: PlanCache,
}

impl GraphModule {
    /// Assemble a graph with the submodules and attribute tensors its
    /// `call_module` / `get_attr` nodes reference. Lints the graph and
    /// generates code.
    pub fn new(
        graph: Graph,
        modules: BTreeMap<String, ArcModule>,
        attrs: BTreeMap<String, Tensor>,
        input_names: Vec<String>,
    ) -> Result<GraphModule> {
        graph.lint()?;
        let code = codegen::python_code(&graph);
        Ok(GraphModule {
            graph,
            modules,
            attrs,
            code,
            input_names,
            plan_cache: PlanCache::default(),
        })
    }

    /// The captured graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access for transforms. Call [`GraphModule::recompile`]
    /// when done editing.
    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// Re-lint the edited graph and regenerate the code string —
    /// torch.fx's `recompile()`.
    pub fn recompile(&mut self) -> Result<()> {
        self.graph.lint()?;
        self.code = codegen::python_code(&self.graph);
        Ok(())
    }

    /// The generated Python-style source for the current graph (the
    /// paper's `traced.code`).
    pub fn code(&self) -> &str {
        &self.code
    }

    /// The submodule map (qualified name → module).
    pub fn modules(&self) -> &BTreeMap<String, ArcModule> {
        &self.modules
    }

    /// Look up a submodule by qualified name.
    pub fn get_module(&self, path: &str) -> Option<&ArcModule> {
        self.modules.get(path)
    }

    /// Install (or replace) a submodule — the state half of transforms
    /// like fusion and quantization.
    pub fn set_module(&mut self, path: &str, module: ArcModule) {
        self.modules.insert(path.to_string(), module);
    }

    /// Remove a submodule, returning it if present.
    pub fn remove_module(&mut self, path: &str) -> Option<ArcModule> {
        self.modules.remove(path)
    }

    /// The attribute-tensor map backing `get_attr` nodes.
    pub fn attrs(&self) -> &BTreeMap<String, Tensor> {
        &self.attrs
    }

    /// Look up an attribute tensor.
    pub fn get_attr_tensor(&self, name: &str) -> Option<&Tensor> {
        self.attrs.get(name)
    }

    /// Install (or replace) an attribute tensor.
    pub fn set_attr(&mut self, name: &str, tensor: Tensor) {
        self.attrs.insert(name.to_string(), tensor);
    }

    /// Placeholder names, in order.
    pub fn placeholder_names(&self) -> Vec<String> {
        self.input_names.clone()
    }

    /// Drop submodules and attributes no longer referenced by any node
    /// (torch.fx's `delete_all_unused_submodules`). Returns how many
    /// entries were removed.
    pub fn delete_unused_state(&mut self) -> usize {
        let mut used_modules = std::collections::BTreeSet::new();
        let mut used_attrs = std::collections::BTreeSet::new();
        for node in self.graph.nodes() {
            match node.op() {
                Opcode::CallModule => {
                    used_modules.insert(node.target().to_string());
                }
                Opcode::GetAttr => {
                    used_attrs.insert(node.target().to_string());
                }
                _ => {}
            }
        }
        let before = self.modules.len() + self.attrs.len();
        self.modules.retain(|k, _| used_modules.contains(k));
        self.attrs.retain(|k, _| used_attrs.contains(k));
        before - self.modules.len() - self.attrs.len()
    }

    /// Validate the module end to end: every structural graph invariant
    /// ([`Graph::validate`]) plus resolution of `call_module` targets in
    /// the module tree, `get_attr` targets in the attribute map, and
    /// placeholder count/order against the traced signature. Mutating
    /// passes run this automatically (debug builds or `FX_VALIDATE=1`)
    /// via [`validate::after_pass`](crate::validate::after_pass).
    pub fn validate(&self) -> Result<()> {
        crate::validate::GraphChecker::new(&self.graph)
            .with_modules(&self.modules)
            .with_attrs(&self.attrs)
            .with_signature(&self.input_names)
            .check()
    }

    /// The compiled execution plan for the current graph version.
    ///
    /// Serves the cached plan when [`Graph::version`] is unchanged since
    /// the last compile; otherwise recompiles and replaces it. Returns
    /// `(plan, cache_hit, total_compiles, total_hits)` — the counters
    /// are this module's lifetime totals, surfaced in
    /// [`RunProfile`](crate::executor::RunProfile) so tests and benches
    /// can prove repeat runs skip recompilation.
    pub fn exec_plan(&self) -> Result<(Arc<ExecPlan>, bool, u64, u64)> {
        let mut state = self.plan_cache.inner.lock().expect("plan cache poisoned");
        if let Some(plan) = state.plan.clone() {
            if plan.graph_version == self.graph.version() {
                state.hits += 1;
                return Ok((plan, true, state.compiles, state.hits));
            }
        }
        let plan = Arc::new(ExecPlan::compile(&self.graph)?);
        state.plan = Some(plan.clone());
        state.compiles += 1;
        Ok((plan, false, state.compiles, state.hits))
    }

    /// Execute the graph on concrete inputs (or proxies, in which case
    /// the run re-records into the active trace — how re-tracing works).
    /// Equivalent to a default-configured [`Executor`]; use one directly
    /// for threads, hooks or profiling.
    pub fn run(&self, inputs: &[Value]) -> Result<Value> {
        Executor::new(self).run(inputs)
    }

    /// Write the generated source and the graph text to a directory
    /// (`module.py` and `graph.txt`), the spirit of torch.fx's
    /// experimental `to_folder`.
    pub fn to_folder(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("module.py"), self.code())?;
        std::fs::write(dir.join("graph.txt"), self.graph.to_string())?;
        Ok(())
    }

    /// Consume into parts (graph, modules, attrs) for transforms that
    /// rebuild wholesale.
    pub fn into_parts(
        self,
    ) -> (
        Graph,
        BTreeMap<String, ArcModule>,
        BTreeMap<String, Tensor>,
        Vec<String>,
    ) {
        (self.graph, self.modules, self.attrs, self.input_names)
    }
}

impl Module for GraphModule {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let expected = self.graph.placeholders().len();
        if inputs.len() != expected {
            return Err(Error::Module(format!(
                "GraphModule expects {expected} inputs, got {}",
                inputs.len()
            )));
        }
        self.run(inputs)
    }

    fn type_name(&self) -> &'static str {
        "GraphModule"
    }

    fn children(&self) -> Vec<(String, ArcModule)> {
        self.modules
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    fn own_parameters(&self) -> Vec<(String, Tensor)> {
        self.attrs
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    fn input_names(&self) -> Vec<String> {
        self.input_names.clone()
    }

    fn extra_repr(&self) -> String {
        format!("{} nodes", self.graph.len())
    }
}
