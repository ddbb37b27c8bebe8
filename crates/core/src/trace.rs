//! Symbolic tracing: running a module's `forward` on [`Proxy`] inputs
//! while an ambient **trace session** records every dispatched op into a
//! [`Graph`].
//!
//! Python's torch.fx keys its interception off process-global hooks
//! (`__torch_function__`, a patched `nn.Module.__call__`); the Rust
//! equivalent is a thread-local session installed by [`symbolic_trace`]
//! for the duration of the forward run. Capture is ahead-of-time and
//! performs **no specialization** (paper §5.3): proxies carry no shapes
//! or values, ops on concrete values are partially evaluated, and any
//! attempt to branch on a proxy fails with
//! [`Error::DataDependentControlFlow`](crate::Error).

use crate::arg::Arg;
use crate::error::{Error, Result};
use crate::graph::Graph;
use crate::graph_module::GraphModule;
use crate::module::{join_path, module_ptr, named_modules, ArcModule, Module};
use crate::node::{NodeId, Opcode};
use crate::value::{Proxy, Value};
use fx_tensor::Tensor;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Controls the behaviour of symbolic tracing (torch.fx's `Tracer`
/// class, paper §5.2). Override `is_leaf_module` to change which modules
/// stay opaque, and `on_node` to attach custom metadata to created nodes
/// (the `create_proxy` customization point).
pub trait Tracer: Send + Sync + 'static {
    /// Should `module` be recorded as an opaque `call_module` node
    /// (true), or traced through (false)?
    ///
    /// The default keeps library built-ins (`Module::is_builtin_leaf`)
    /// intact while tracing through user modules, "since this creates a
    /// trace of standard, understandable primitives" (§5.2).
    fn is_leaf_module(&self, module: &dyn Module, qualified_name: &str) -> bool {
        let _ = qualified_name;
        module.is_builtin_leaf()
    }

    /// Called after each node is created during tracing; a hook for
    /// installing custom metadata (`create_proxy` in torch.fx).
    fn on_node(&self, graph: &mut Graph, node: NodeId) {
        let _ = (graph, node);
    }
}

/// The standard tracer: leaf-ness follows `Module::is_builtin_leaf`, no
/// extra metadata.
#[derive(Debug, Default, Clone, Copy)]
pub struct DefaultTracer;

impl Tracer for DefaultTracer {}

struct TraceSession {
    graph: Graph,
    /// module data-pointer -> qualified name.
    paths: HashMap<usize, String>,
    /// qualified name -> module, for every module in the hierarchy.
    modules: BTreeMap<String, ArcModule>,
    /// Tensor constants promoted to attributes, plus get_attr-resolved
    /// names already emitted (so the same constant isn't duplicated).
    attrs: BTreeMap<String, Tensor>,
    tracer: Arc<dyn Tracer>,
    tensor_constants: usize,
}

thread_local! {
    static SESSION: RefCell<Option<TraceSession>> = const { RefCell::new(None) };
}

/// Whether a trace session is active on this thread.
pub fn is_tracing() -> bool {
    SESSION.with(|s| s.borrow().is_some())
}

/// Best-effort name of a node in the current session's graph, for error
/// messages.
pub(crate) fn node_name(id: NodeId) -> String {
    SESSION.with(|s| {
        s.borrow()
            .as_ref()
            .filter(|sess| sess.graph.contains(id))
            .map(|sess| sess.graph.node(id).name().to_string())
            .unwrap_or_else(|| format!("%{}", id.index()))
    })
}

/// The qualified name of the module at `ptr` in the active session, if
/// any. The interpreter uses this to prefix `get_attr` targets when a
/// `GraphModule` is being re-traced as a submodule.
pub(crate) fn current_path(ptr: usize) -> Option<String> {
    SESSION.with(|s| s.borrow().as_ref().and_then(|sess| sess.paths.get(&ptr).cloned()))
}

fn with_session<R>(f: impl FnOnce(&mut TraceSession) -> Result<R>) -> Result<R> {
    SESSION.with(|s| {
        let mut guard = s.borrow_mut();
        let sess = guard
            .as_mut()
            .ok_or_else(|| Error::Trace("no active trace session on this thread".to_string()))?;
        f(sess)
    })
}

/// Convert a runtime [`Value`] into a node [`Arg`], promoting concrete
/// tensors to `get_attr`-ed attribute constants (torch.fx's
/// `_tensor_constant` mechanism).
fn value_to_arg(sess: &mut TraceSession, v: &Value) -> Result<Arg> {
    Ok(match v {
        Value::Proxy(p) => Arg::Node(p.node),
        Value::Tensor(t) => {
            let name = format!("_tensor_constant{}", sess.tensor_constants);
            sess.tensor_constants += 1;
            sess.attrs.insert(name.clone(), t.clone());
            let node = sess.graph.get_attr(&name);
            Arg::Node(node)
        }
        Value::Int(v) => Arg::Int(*v),
        Value::Float(v) => Arg::Float(*v),
        Value::Bool(v) => Arg::Bool(*v),
        Value::Str(v) => Arg::Str(v.clone()),
        Value::None => Arg::None,
        Value::List(items) => Arg::List(
            items
                .iter()
                .map(|i| value_to_arg(sess, i))
                .collect::<Result<_>>()?,
        ),
        Value::Tuple(items) => Arg::Tuple(
            items
                .iter()
                .map(|i| value_to_arg(sess, i))
                .collect::<Result<_>>()?,
        ),
    })
}

/// Record a call into the active session's graph and return the proxy
/// standing for its result.
pub(crate) fn record_call(
    op: Opcode,
    target: &str,
    args: &[Value],
    kwargs: &[(String, Value)],
) -> Result<Value> {
    let (id, tracer) = with_session(|sess| {
        let arg_list: Vec<Arg> = args
            .iter()
            .map(|a| value_to_arg(sess, a))
            .collect::<Result<_>>()?;
        let kwarg_list: Vec<(String, Arg)> = kwargs
            .iter()
            .map(|(k, v)| Ok((k.clone(), value_to_arg(sess, v)?)))
            .collect::<Result<_>>()?;
        let hint = match op {
            Opcode::CallModule | Opcode::GetAttr => target.replace('.', "_"),
            _ => target.replace("::", "_"),
        };
        let id = sess
            .graph
            .create_node(op, target, arg_list, kwarg_list, &hint);
        Ok((id, sess.tracer.clone()))
    })?;
    with_session(|sess| {
        tracer.on_node(&mut sess.graph, id);
        Ok(())
    })?;
    Ok(Value::Proxy(Proxy { node: id }))
}

/// Record a bare `get_attr` node for `target` (used by the interpreter
/// when re-tracing a `GraphModule`).
pub(crate) fn record_get_attr(target: &str) -> Result<Value> {
    record_call(Opcode::GetAttr, target, &[], &[])
}

/// The `Module.__call__` interception point (see
/// [`ModuleExt::call`](crate::ModuleExt)).
pub(crate) fn module_call(m: &dyn Module, inputs: &[Value]) -> Result<Value> {
    let ptr = module_ptr(m);
    // Decide while holding the session borrow, then release it before
    // running any user code (forward re-enters the dispatcher).
    let leaf_path: Option<Option<String>> = SESSION.with(|s| {
        s.borrow().as_ref().map(|sess| {
            sess.paths
                .get(&ptr)
                .filter(|path| sess.tracer.is_leaf_module(m, path))
                .cloned()
        })
    });
    match leaf_path {
        Some(Some(path)) => record_call(Opcode::CallModule, &path, inputs, &[]),
        _ => m.forward(inputs),
    }
}

/// The parameter-access interception point (see
/// [`ModuleExt::attr`](crate::ModuleExt)).
pub(crate) fn module_attr(m: &dyn Module, name: &str) -> Result<Value> {
    let ptr = module_ptr(m);
    if let Some(path) = current_path(ptr) {
        let target = join_path(&path, name);
        return record_get_attr(&target);
    }
    m.own_parameters()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, t)| Value::Tensor(t))
        .ok_or_else(|| {
            Error::Module(format!(
                "{} has no parameter named `{name}`",
                m.type_name()
            ))
        })
}

/// Uninstalls the session even if `forward` panics or errors.
struct SessionGuard;

impl Drop for SessionGuard {
    fn drop(&mut self) {
        SESSION.with(|s| *s.borrow_mut() = None);
    }
}

/// Symbolically trace `root` with the [`DefaultTracer`], producing a
/// [`GraphModule`] whose graph records every dispatched op.
///
/// ```
/// use fx_core::{symbolic_trace, Module, ModuleExt, Value, func};
///
/// #[derive(Debug)]
/// struct MyFunc;
/// impl Module for MyFunc {
///     fn forward(&self, xs: &[Value]) -> fx_core::Result<Value> {
///         func::relu(&xs[0])?.neg()
///     }
///     fn type_name(&self) -> &'static str { "MyFunc" }
/// }
///
/// let traced = symbolic_trace(&MyFunc).unwrap();
/// let printed = traced.graph().to_string();
/// assert!(printed.contains("relu = call_function target=relu args=(x,)"));
/// assert!(printed.contains("neg = call_method target=neg args=(relu,)"));
/// ```
pub fn symbolic_trace(root: &dyn Module) -> Result<GraphModule> {
    symbolic_trace_with(root, Arc::new(DefaultTracer))
}

/// Symbolically trace `root` under a custom [`Tracer`].
pub fn symbolic_trace_with(root: &dyn Module, tracer: Arc<dyn Tracer>) -> Result<GraphModule> {
    symbolic_trace_concrete(root, tracer, &[])
}

/// Symbolically trace `root` with some inputs **concrete** — torch.fx's
/// `concrete_args`: the escape hatch for forwards that genuinely branch
/// or reshape on an argument (§5.2's "specialize the sizes and shapes
/// ... to capture a program that would otherwise not be traceable
/// without specialization").
///
/// `concrete[i] = Some(v)` feeds `v` directly to input *i* (its value is
/// baked into the capture and it is **not** a placeholder of the result);
/// `None` (or missing) inputs trace symbolically as usual.
pub fn symbolic_trace_concrete(
    root: &dyn Module,
    tracer: Arc<dyn Tracer>,
    concrete: &[Option<Value>],
) -> Result<GraphModule> {
    if is_tracing() {
        return Err(Error::Trace(
            "a trace session is already active on this thread; nested symbolic_trace is not supported"
                .to_string(),
        ));
    }
    // Qualified-name maps for the whole hierarchy.
    let mut paths = HashMap::new();
    let mut modules = BTreeMap::new();
    paths.insert(module_ptr(root), String::new());
    for (path, m) in named_modules(root) {
        paths.insert(module_ptr(m.as_ref()), path.clone());
        modules.insert(path, m);
    }
    let input_names = root.input_names();

    SESSION.with(|s| {
        *s.borrow_mut() = Some(TraceSession {
            graph: Graph::new(),
            paths,
            modules,
            attrs: BTreeMap::new(),
            tracer,
            tensor_constants: 0,
        });
    });
    let _guard = SessionGuard;

    let inputs: Vec<Value> = input_names
        .iter()
        .enumerate()
        .map(|(i, name)| match concrete.get(i).cloned().flatten() {
            Some(v) => Ok(v),
            None => with_session(|sess| {
                let id = sess.graph.placeholder(name);
                Ok(Value::Proxy(Proxy { node: id }))
            }),
        })
        .collect::<Result<_>>()?;
    // Only symbolic inputs remain placeholders of the capture.
    let input_names: Vec<String> = input_names
        .into_iter()
        .enumerate()
        .filter(|(i, _)| concrete.get(*i).cloned().flatten().is_none())
        .map(|(_, n)| n)
        .collect();

    let result = root.forward(&inputs)?;

    let (graph, all_modules, mut attrs) = with_session(|sess| {
        let out_arg = value_to_arg(sess, &result)?;
        sess.graph.output(out_arg);
        Ok((
            std::mem::take(&mut sess.graph),
            std::mem::take(&mut sess.modules),
            std::mem::take(&mut sess.attrs),
        ))
    })?;
    drop(_guard);

    // Keep only the submodules the graph references.
    let mut used_modules = BTreeMap::new();
    for node in graph.nodes() {
        match node.op() {
            Opcode::CallModule => {
                let target = node.target().to_string();
                let m = all_modules.get(&target).cloned().ok_or_else(|| {
                    Error::Trace(format!("call_module target `{target}` not in hierarchy"))
                })?;
                used_modules.insert(target, m);
            }
            Opcode::GetAttr => {
                let target = node.target();
                if !attrs.contains_key(target) {
                    let t = resolve_attr(root, &all_modules, target)?;
                    attrs.insert(target.to_string(), t);
                }
            }
            _ => {}
        }
    }

    GraphModule::new(graph, used_modules, attrs, input_names)
}

fn resolve_attr(
    root: &dyn Module,
    modules: &BTreeMap<String, ArcModule>,
    target: &str,
) -> Result<Tensor> {
    let (owner_params, pname) = match target.rsplit_once('.') {
        Some((prefix, pname)) => {
            let m = modules.get(prefix).ok_or_else(|| {
                Error::Trace(format!(
                    "get_attr target `{target}`: no module at `{prefix}`"
                ))
            })?;
            (m.own_parameters(), pname)
        }
        None => (root.own_parameters(), target),
    };
    owner_params
        .into_iter()
        .find(|(n, _)| n == pname)
        .map(|(_, t)| t)
        .ok_or_else(|| Error::Trace(format!("get_attr target `{target}`: no such parameter")))
}

/// Trace a free function of `n_inputs` tensor arguments — the
/// `symbolic_trace(my_func)` form from the paper's Figure 1.
///
/// Placeholders are named `x` for a single input, else `x0, x1, ...`.
pub fn symbolic_trace_fn(
    n_inputs: usize,
    f: impl FnOnce(&[Value]) -> Result<Value>,
) -> Result<GraphModule> {
    if is_tracing() {
        return Err(Error::Trace(
            "a trace session is already active on this thread".to_string(),
        ));
    }
    let names: Vec<String> = if n_inputs == 1 {
        vec!["x".to_string()]
    } else {
        (0..n_inputs).map(|i| format!("x{i}")).collect()
    };
    SESSION.with(|s| {
        *s.borrow_mut() = Some(TraceSession {
            graph: Graph::new(),
            paths: HashMap::new(),
            modules: BTreeMap::new(),
            attrs: BTreeMap::new(),
            tracer: Arc::new(DefaultTracer),
            tensor_constants: 0,
        });
    });
    let _guard = SessionGuard;
    let inputs: Vec<Value> = names
        .iter()
        .map(|name| {
            with_session(|sess| {
                let id = sess.graph.placeholder(name);
                Ok(Value::Proxy(Proxy { node: id }))
            })
        })
        .collect::<Result<_>>()?;
    let result = f(&inputs)?;
    let (graph, attrs) = with_session(|sess| {
        let out = value_to_arg(sess, &result)?;
        sess.graph.output(out);
        Ok((
            std::mem::take(&mut sess.graph),
            std::mem::take(&mut sess.attrs),
        ))
    })?;
    drop(_guard);
    GraphModule::new(graph, BTreeMap::new(), attrs, names)
}
