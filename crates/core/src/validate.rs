//! Structural invariant checking for graphs and graph modules.
//!
//! The paper's premise is that transforms are written by ML
//! practitioners, not compiler engineers — which only holds if a
//! malformed graph produces a *diagnosable error* naming the offending
//! node and pass, not a panic three layers down. [`GraphChecker`] is the
//! strict superset of [`Graph::lint`]: where lint accepts
//! graphs-under-construction (no output yet), the checker verifies a
//! *finished* program:
//!
//! * every `Arg::Node` reference points at a live node of this graph;
//! * definitions dominate uses in insertion order (which, for a linear
//!   order, also rules out cycles);
//! * the execution order and the node arena agree (no orphaned or
//!   duplicated entries), and the use–def index matches the arguments
//!   actually present;
//! * node names are unique;
//! * placeholders come first and — when a traced signature is attached —
//!   match it in count and order;
//! * exactly one `output` node exists, positioned last;
//! * `call_module` / `get_attr` targets resolve in the module tree and
//!   attribute map (when attached);
//! * optionally, `shape` metadata stamped by shape propagation is
//!   self-consistent along shape-preserving edges.
//!
//! Entry points: [`Graph::validate`], [`GraphModule::validate`], and
//! [`after_pass`] — the hook every mutating pass in `fx-passes` /
//! `fx-quant` calls, enabled in debug builds (or anywhere via
//! `FX_VALIDATE=1`) so a buggy transform fails at the pass boundary with
//! the pass's name in the error.

use crate::dispatch::{self, OpKind};
use crate::error::{Error, Result};
use crate::graph::Graph;
use crate::graph_module::GraphModule;
use crate::module::ArcModule;
use crate::node::{NodeId, Opcode};
use fx_tensor::Tensor;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Configurable invariant checker over a [`Graph`], optionally aware of
/// the module tree, attribute map and traced signature of the owning
/// [`GraphModule`].
///
/// ```
/// use fx_core::{Arg, Graph, validate::GraphChecker};
///
/// let mut g = Graph::new();
/// let x = g.placeholder("x");
/// let r = g.call_function("relu", vec![Arg::Node(x)], vec![]);
/// g.output(Arg::Node(r));
/// GraphChecker::new(&g).check().unwrap();
/// ```
pub struct GraphChecker<'a> {
    graph: &'a Graph,
    modules: Option<&'a BTreeMap<String, ArcModule>>,
    attrs: Option<&'a BTreeMap<String, Tensor>>,
    signature: Option<&'a [String]>,
    check_meta: bool,
}

impl<'a> GraphChecker<'a> {
    /// A checker over `graph` alone: structural invariants only, no
    /// module-tree or signature awareness, metadata checks on.
    pub fn new(graph: &'a Graph) -> GraphChecker<'a> {
        GraphChecker {
            graph,
            modules: None,
            attrs: None,
            signature: None,
            check_meta: true,
        }
    }

    /// Also verify that every `call_module` target resolves in
    /// `modules`.
    pub fn with_modules(mut self, modules: &'a BTreeMap<String, ArcModule>) -> GraphChecker<'a> {
        self.modules = Some(modules);
        self
    }

    /// Also verify that every `get_attr` target resolves in `attrs`.
    pub fn with_attrs(mut self, attrs: &'a BTreeMap<String, Tensor>) -> GraphChecker<'a> {
        self.attrs = Some(attrs);
        self
    }

    /// Also verify that placeholder count and order match the traced
    /// input signature.
    pub fn with_signature(mut self, input_names: &'a [String]) -> GraphChecker<'a> {
        self.signature = Some(input_names);
        self
    }

    /// Enable or disable the `shape` metadata self-consistency check
    /// (on by default; only meaningful after shape propagation).
    pub fn with_meta_checks(mut self, on: bool) -> GraphChecker<'a> {
        self.check_meta = on;
        self
    }

    /// Run every configured check, returning the first violation as an
    /// [`Error::Validate`] naming the offending node.
    pub fn check(&self) -> Result<()> {
        self.check_order_arena_agreement()?;
        self.check_topology()?;
        self.check_use_def_index()?;
        self.check_signature()?;
        self.check_targets()?;
        if self.check_meta {
            self.check_shape_meta()?;
        }
        Ok(())
    }

    fn violation(&self, node: &str, message: String) -> Error {
        Error::Validate {
            pass: "validate".to_string(),
            node: node.to_string(),
            message,
        }
    }

    /// The execution order and the arena must agree: every ordered id is
    /// live, no id appears twice, and no live node is missing from the
    /// order (an orphan would silently never execute).
    fn check_order_arena_agreement(&self) -> Result<()> {
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for id in self.graph.node_ids() {
            if !self.graph.contains(id) {
                return Err(self.violation(
                    "",
                    format!("execution order lists erased node %{}", id.index()),
                ));
            }
            if !seen.insert(id) {
                return Err(self.violation(
                    self.graph.node(id).name(),
                    "node appears twice in the execution order".to_string(),
                ));
            }
        }
        Ok(())
    }

    /// Names unique; placeholders first; exactly one output, last; every
    /// argument reference live and defined earlier (no cycles, no
    /// dangling references, no use-before-def).
    fn check_topology(&self) -> Result<()> {
        let mut defined: BTreeSet<NodeId> = BTreeSet::new();
        let mut names: BTreeSet<&str> = BTreeSet::new();
        let mut non_placeholder_seen = false;
        let mut output: Option<&str> = None;
        for node in self.graph.nodes() {
            if let Some(first) = output {
                let what = if node.op() == Opcode::Output {
                    format!("multiple output nodes (`{first}` and `{}`)", node.name())
                } else {
                    format!("node appears after the output node `{first}`")
                };
                return Err(self.violation(node.name(), what));
            }
            match node.op() {
                Opcode::Placeholder => {
                    if non_placeholder_seen {
                        return Err(self.violation(
                            node.name(),
                            "placeholder appears after non-placeholder nodes".to_string(),
                        ));
                    }
                }
                Opcode::Output => output = Some(node.name()),
                _ => non_placeholder_seen = true,
            }
            if !names.insert(node.name()) {
                return Err(
                    self.violation(node.name(), format!("duplicate node name `{}`", node.name()))
                );
            }
            for dep in node.input_nodes() {
                if !self.graph.contains(dep) {
                    return Err(self.violation(
                        node.name(),
                        format!("dangling argument: references erased node %{}", dep.index()),
                    ));
                }
                if !defined.contains(&dep) {
                    return Err(self.violation(
                        node.name(),
                        format!(
                            "uses `{}` before its definition (cycle or misplaced insertion)",
                            self.graph.node(dep).name()
                        ),
                    ));
                }
            }
            defined.insert(node.id());
        }
        if output.is_none() {
            return Err(self.violation(
                "",
                "graph has no output node; a finished graph must return exactly one".to_string(),
            ));
        }
        Ok(())
    }

    /// The maintained use–def index must match the arguments actually
    /// present — a desynchronized index breaks `replace_all_uses_with`,
    /// DCE and erase-safety checks silently.
    fn check_use_def_index(&self) -> Result<()> {
        let mut derived: HashMap<NodeId, BTreeSet<NodeId>> = HashMap::new();
        for node in self.graph.nodes() {
            derived.entry(node.id()).or_default();
            for dep in node.input_nodes() {
                derived.entry(dep).or_default().insert(node.id());
            }
        }
        for node in self.graph.nodes() {
            let indexed: BTreeSet<NodeId> = self.graph.users(node.id()).into_iter().collect();
            let actual = derived.remove(&node.id()).unwrap_or_default();
            if indexed != actual {
                let name = |s: &BTreeSet<NodeId>| -> Vec<String> {
                    s.iter()
                        .map(|id| {
                            if self.graph.contains(*id) {
                                self.graph.node(*id).name().to_string()
                            } else {
                                format!("%{}", id.index())
                            }
                        })
                        .collect()
                };
                return Err(self.violation(
                    node.name(),
                    format!(
                        "use–def index out of sync: index says users {:?}, arguments say {:?}",
                        name(&indexed),
                        name(&actual)
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Placeholder count and order must match the traced signature.
    fn check_signature(&self) -> Result<()> {
        let Some(sig) = self.signature else {
            return Ok(());
        };
        let placeholders = self.graph.placeholders();
        if placeholders.len() != sig.len() {
            return Err(self.violation(
                "",
                format!(
                    "signature mismatch: graph has {} placeholders but the traced \
                     signature has {} inputs {:?}",
                    placeholders.len(),
                    sig.len(),
                    sig
                ),
            ));
        }
        for (id, expected) in placeholders.iter().zip(sig) {
            let node = self.graph.node(*id);
            if node.target() != expected {
                return Err(self.violation(
                    node.name(),
                    format!(
                        "placeholder order mismatch: expected input `{expected}` here, \
                         found `{}`",
                        node.target()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// `call_module` / `get_attr` targets must resolve in the attached
    /// state maps.
    fn check_targets(&self) -> Result<()> {
        for node in self.graph.nodes() {
            match node.op() {
                Opcode::CallModule => {
                    if let Some(modules) = self.modules {
                        if !modules.contains_key(node.target()) {
                            return Err(self.violation(
                                node.name(),
                                format!(
                                    "call_module target `{}` does not resolve in the module tree \
                                     (known: {:?})",
                                    node.target(),
                                    modules.keys().take(8).collect::<Vec<_>>()
                                ),
                            ));
                        }
                    }
                }
                Opcode::GetAttr => {
                    if let Some(attrs) = self.attrs {
                        if !attrs.contains_key(node.target()) {
                            return Err(self.violation(
                                node.name(),
                                format!(
                                    "get_attr target `{}` does not resolve to an attribute tensor",
                                    node.target()
                                ),
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Conservative `shape` metadata self-consistency: along edges where
    /// the output shape provably equals the input shape (identity-shaped
    /// functions and the output node), stamped metadata must agree.
    fn check_shape_meta(&self) -> Result<()> {
        let shape_of = |id: NodeId| -> Option<&[usize]> { self.graph.node(id).shape_meta() };
        for node in self.graph.nodes() {
            // Ops whose output shape always equals their first input's
            // (the check must never false-positive).
            let preserving = matches!(node.op(), Opcode::CallFunction | Opcode::CallMethod)
                && matches!(
                    dispatch::op_kind(node.target()),
                    Some(OpKind::Same | OpKind::Cast(_))
                );
            if !preserving {
                continue;
            }
            let Some(out_shape) = shape_of(node.id()) else {
                continue;
            };
            let Some(crate::arg::Arg::Node(input)) = node.args().first() else {
                continue;
            };
            if let Some(in_shape) = shape_of(*input) {
                if in_shape != out_shape {
                    return Err(self.violation(
                        node.name(),
                        format!(
                            "stale shape metadata: `{}` is shape-preserving but input \
                             `{}` is {:?} while this node is stamped {:?}",
                            node.target(),
                            self.graph.node(*input).name(),
                            in_shape,
                            out_shape
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Whether automatic after-pass validation is enabled: always in debug
/// builds, and in release builds when `FX_VALIDATE` is set to anything
/// but `0`.
pub fn checks_enabled() -> bool {
    if cfg!(debug_assertions) {
        return true;
    }
    std::env::var_os("FX_VALIDATE").is_some_and(|v| v != "0")
}

/// Validate `gm` after the mutating pass `pass` ran, attributing any
/// violation to that pass. Cheap no-op when [`checks_enabled`] is false
/// (release builds without `FX_VALIDATE`), so passes call it
/// unconditionally.
pub fn after_pass(gm: &GraphModule, pass: &str) -> Result<()> {
    if !checks_enabled() {
        return Ok(());
    }
    gm.validate().map_err(|e| match e {
        Error::Validate { node, message, .. } => Error::Validate {
            pass: pass.to_string(),
            node,
            message,
        },
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arg::Arg;
    use crate::func;
    use crate::node::Meta;
    use crate::trace::symbolic_trace_fn;

    #[test]
    fn traced_module_validates_cleanly() {
        let gm = symbolic_trace_fn(2, |xs| {
            let a = func::relu(&xs[0])?;
            func::add(&a, &xs[1])
        })
        .unwrap();
        gm.validate().unwrap();
        gm.graph().validate().unwrap();
    }

    #[test]
    fn dangling_node_ref_is_reported() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let tmp = g.call_function("relu", vec![Arg::Node(x)], vec![]);
        let y = g.call_function("neg", vec![Arg::Node(x)], vec![]);
        g.output(Arg::Node(y));
        g.erase_node(tmp).unwrap();
        // Point `neg` at the erased node behind the linter's back.
        g.set_args(y, vec![Arg::Node(tmp)]).unwrap();
        let err = g.validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`neg`"), "{msg}");
        assert!(msg.contains("dangling"), "{msg}");
        assert!(msg.contains("erased"), "{msg}");
    }

    #[test]
    fn use_before_def_is_reported() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let a = g.call_function("relu", vec![Arg::Node(x)], vec![]);
        g.output(Arg::Node(a));
        {
            // Insert a node *before* `relu` that consumes `relu`.
            let mut at = g.inserting_before(a);
            at.call_function("neg", vec![Arg::Node(a)], vec![]);
        }
        let err = g.validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`neg`"), "{msg}");
        assert!(msg.contains("before its definition"), "{msg}");
    }

    #[test]
    fn two_outputs_are_reported() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let a = g.call_function("relu", vec![Arg::Node(x)], vec![]);
        g.output(Arg::Node(a));
        g.output(Arg::Node(a));
        let err = g.validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("multiple output nodes"), "{msg}");
    }

    #[test]
    fn unknown_call_module_target_is_reported() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let m = g.call_module("layers.mystery", vec![Arg::Node(x)], vec![]);
        g.output(Arg::Node(m));
        // lint() passes — it knows nothing about module state — but a
        // full GraphModule validation resolves targets.
        g.lint().unwrap();
        let gm = GraphModule::new(g, Default::default(), Default::default(), vec![
            "x".to_string(),
        ])
        .unwrap();
        let err = gm.validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("layers.mystery"), "{msg}");
        assert!(msg.contains("module tree"), "{msg}");
    }

    #[test]
    fn missing_output_fails_validate_but_not_lint() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        g.call_function("relu", vec![Arg::Node(x)], vec![]);
        g.lint().unwrap(); // fine mid-construction
        let err = g.validate().unwrap_err();
        assert!(err.to_string().contains("no output node"), "{err}");
    }

    #[test]
    fn signature_mismatch_is_reported() {
        let gm = symbolic_trace_fn(1, |xs| func::relu(&xs[0])).unwrap();
        let sig = ["x".to_string(), "y".to_string()];
        let err = GraphChecker::new(gm.graph())
            .with_signature(&sig)
            .check()
            .unwrap_err();
        assert!(err.to_string().contains("signature mismatch"), "{err}");
    }

    #[test]
    fn stale_shape_meta_is_reported() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let r = g.call_function("relu", vec![Arg::Node(x)], vec![]);
        g.output(Arg::Node(r));
        g.node_meta_mut(x)
            .insert("shape".to_string(), Meta::Shape(vec![2, 3]));
        g.node_meta_mut(r)
            .insert("shape".to_string(), Meta::Shape(vec![4, 4]));
        let err = g.validate().unwrap_err();
        assert!(err.to_string().contains("stale shape metadata"), "{err}");
        // The same graph with agreeing metadata is clean.
        g.node_meta_mut(r)
            .insert("shape".to_string(), Meta::Shape(vec![2, 3]));
        g.validate().unwrap();
    }

    #[test]
    fn after_pass_names_the_pass() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let a = g.call_function("relu", vec![Arg::Node(x)], vec![]);
        g.output(Arg::Node(a));
        g.output(Arg::Node(a));
        // GraphModule::new lints, which allows a single trailing
        // violation lint also catches — build around it via parts.
        let gm_ok = symbolic_trace_fn(1, |xs| func::relu(&xs[0])).unwrap();
        assert!(after_pass(&gm_ok, "my_pass").is_ok());
        let err = GraphChecker::new(&g).check().unwrap_err();
        assert!(matches!(err, Error::Validate { .. }));
    }
}
