//! [`Graph`]: the linear, DAG-structured IR container.
//!
//! A `Graph` owns an arena of [`Node`]s plus an explicit execution order.
//! Insertion, erasure and rewiring maintain a use–def index so transforms
//! can ask "who uses this node" in O(1) — the operations `torch.fx`
//! transforms lean on (`node.users`, `replace_all_uses_with`,
//! `erase_node`, insertion points).

use crate::arg::Arg;
use crate::error::{Error, Result};
use crate::node::{Node, NodeId, Opcode};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A captured program: a linear series of nodes forming a DAG through
/// their argument references.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    arena: Vec<Option<Node>>,
    order: Vec<NodeId>,
    users: HashMap<NodeId, BTreeSet<NodeId>>,
    name_counts: HashMap<String, usize>,
    insert_point: Option<NodeId>,
    version: u64,
}

/// RAII insertion-point scope returned by [`Graph::inserting_before`] /
/// [`Graph::inserting_after`]. Dereferences to the graph; dropping the
/// guard restores the previous insertion point, so scopes nest and can
/// never leak a stale insert point.
///
/// ```
/// use fx_core::{Arg, Graph};
///
/// let mut g = Graph::new();
/// let x = g.placeholder("x");
/// let neg = g.call_method("neg", vec![Arg::Node(x)], vec![]);
/// {
///     let mut at = g.inserting_before(neg);
///     at.call_function("relu", vec![Arg::Node(x)], vec![]);
/// } // insertion point restored here
/// let names: Vec<&str> = g.nodes().map(|n| n.name()).collect();
/// assert_eq!(names, vec!["x", "relu", "neg"]);
/// ```
pub struct InsertGuard<'g> {
    graph: &'g mut Graph,
    prev: Option<NodeId>,
}

impl Deref for InsertGuard<'_> {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        self.graph
    }
}

impl DerefMut for InsertGuard<'_> {
    fn deref_mut(&mut self) -> &mut Graph {
        self.graph
    }
}

impl Drop for InsertGuard<'_> {
    fn drop(&mut self) {
        self.graph.insert_point = self.prev;
    }
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    // ----- node creation ---------------------------------------------------

    /// Create an input node. `name` doubles as the target and the
    /// suggested node name.
    pub fn placeholder(&mut self, name: &str) -> NodeId {
        self.create_node(Opcode::Placeholder, name, vec![], vec![], name)
    }

    /// Create a `get_attr` node fetching the parameter at dotted path
    /// `target` from the module hierarchy.
    pub fn get_attr(&mut self, target: &str) -> NodeId {
        let hint = target.replace('.', "_");
        self.create_node(Opcode::GetAttr, target, vec![], vec![], &hint)
    }

    /// Create a `call_function` node.
    pub fn call_function(
        &mut self,
        target: &str,
        args: Vec<Arg>,
        kwargs: Vec<(String, Arg)>,
    ) -> NodeId {
        self.create_node(Opcode::CallFunction, target, args, kwargs, target)
    }

    /// Create a `call_method` node (`args[0]` is the receiver).
    pub fn call_method(
        &mut self,
        target: &str,
        args: Vec<Arg>,
        kwargs: Vec<(String, Arg)>,
    ) -> NodeId {
        self.create_node(Opcode::CallMethod, target, args, kwargs, target)
    }

    /// Create a `call_module` node invoking the submodule at dotted path
    /// `target`.
    pub fn call_module(
        &mut self,
        target: &str,
        args: Vec<Arg>,
        kwargs: Vec<(String, Arg)>,
    ) -> NodeId {
        let hint = target.replace('.', "_");
        self.create_node(Opcode::CallModule, target, args, kwargs, &hint)
    }

    /// Create the `output` node returning `value`.
    pub fn output(&mut self, value: Arg) -> NodeId {
        self.create_node(Opcode::Output, "output", vec![value], vec![], "output")
    }

    /// Create a node with explicit opcode/target at the current insertion
    /// point. Prefer the per-opcode helpers.
    pub fn create_node(
        &mut self,
        op: Opcode,
        target: &str,
        args: Vec<Arg>,
        kwargs: Vec<(String, Arg)>,
        name_hint: &str,
    ) -> NodeId {
        let id = NodeId::new(self.arena.len());
        let name = self.unique_name(name_hint);
        let node = Node {
            id,
            op,
            target: target.to_string(),
            args,
            kwargs,
            name,
            meta: Default::default(),
        };
        self.index_uses_of(&node);
        self.arena.push(Some(node));
        self.users.entry(id).or_default();
        match self.insert_point {
            Some(before) => {
                let pos = self.position(before).unwrap_or(self.order.len());
                self.order.insert(pos, id);
            }
            None => self.order.push(id),
        }
        self.version += 1;
        id
    }

    /// Monotonic mutation counter: incremented whenever the graph's
    /// structure changes (node creation, erasure, rewiring, retargeting)
    /// or a node's metadata is borrowed mutably.
    /// Consumers such as the executor's plan cache use it as a cheap
    /// validity key — equal versions guarantee an identical graph.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn unique_name(&mut self, hint: &str) -> String {
        let mut base: String = hint
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        if base.is_empty() || base.chars().next().unwrap().is_ascii_digit() {
            base = format!("_{base}");
        }
        // `name_counts[base]` is the next suffix to try; every issued
        // name is also entered as a key, because a hint may itself look
        // like an issued `base_n` (a placeholder named after another
        // graph's `reshape_1`, next to this graph's second `reshape`).
        let mut n = self.name_counts.get(&base).copied().unwrap_or(0);
        let name = loop {
            let candidate = if n == 0 {
                base.clone()
            } else {
                format!("{base}_{n}")
            };
            n += 1;
            if n == 1 || !self.name_counts.contains_key(&candidate) {
                break candidate;
            }
        };
        self.name_counts.insert(base, n);
        self.name_counts.entry(name.clone()).or_insert(1);
        name
    }

    fn index_uses_of(&mut self, node: &Node) {
        for dep in node.input_nodes() {
            self.users.entry(dep).or_default().insert(node.id);
        }
    }

    fn unindex_uses_of(&mut self, node_id: NodeId) {
        let deps = self.node(node_id).input_nodes();
        for dep in deps {
            if let Some(set) = self.users.get_mut(&dep) {
                set.remove(&node_id);
            }
        }
    }

    // ----- insertion points ------------------------------------------------

    /// Scope node creation to insert **before** `node` (matching
    /// `graph.inserting_before` in torch.fx). The returned guard derefs
    /// to the graph; dropping it restores the previous insertion point.
    pub fn inserting_before(&mut self, node: NodeId) -> InsertGuard<'_> {
        let prev = self.insert_point;
        self.insert_point = Some(node);
        InsertGuard { graph: self, prev }
    }

    /// Scope node creation to insert **after** `node`. If `node` is last,
    /// inserting after it is appending.
    pub fn inserting_after(&mut self, node: NodeId) -> InsertGuard<'_> {
        let prev = self.insert_point;
        let pos = self.position(node).map(|p| p + 1);
        self.insert_point = pos.and_then(|p| self.order.get(p).copied());
        InsertGuard { graph: self, prev }
    }

    // ----- access ----------------------------------------------------------

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// Panics if the node was erased; erased ids are programming errors.
    pub fn node(&self, id: NodeId) -> &Node {
        self.arena[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("node %{} was erased", id.index()))
    }

    /// Mutably borrow a node for `meta` edits. Argument lists must be
    /// changed through [`Graph::set_args`] so the use–def index stays
    /// correct. Bumps [`Graph::version`]: the memory planner reads
    /// `shape`/`dtype` metadata, so a plan compiled before shapes were
    /// stamped must not be served afterwards.
    pub fn node_meta_mut(
        &mut self,
        id: NodeId,
    ) -> &mut std::collections::BTreeMap<String, crate::node::Meta> {
        self.version += 1;
        &mut self.arena[id.index()].as_mut().expect("erased node").meta
    }

    /// Whether `id` refers to a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.arena
            .get(id.index())
            .map(|slot| slot.is_some())
            .unwrap_or(false)
    }

    /// Iterate nodes in execution order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.order.iter().map(|id| self.node(*id))
    }

    /// Node ids in execution order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.order.clone()
    }

    /// Position of a node in the execution order.
    pub fn position(&self, id: NodeId) -> Option<usize> {
        self.order.iter().position(|&n| n == id)
    }

    /// The nodes that consume `id`'s value.
    pub fn users(&self, id: NodeId) -> Vec<NodeId> {
        self.users
            .get(&id)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All placeholder nodes, in order.
    pub fn placeholders(&self) -> Vec<NodeId> {
        self.order
            .iter()
            .copied()
            .filter(|&id| self.node(id).op == Opcode::Placeholder)
            .collect()
    }

    /// The output node, if the graph is complete.
    pub fn output_node(&self) -> Option<&Node> {
        self.nodes().find(|n| n.op == Opcode::Output)
    }

    /// Find a node by name.
    pub fn find_by_name(&self, name: &str) -> Option<&Node> {
        self.nodes().find(|n| n.name == name)
    }

    // ----- mutation ---------------------------------------------------------

    fn live_mut(&mut self, op: &str, id: NodeId) -> Result<&mut Node> {
        self.arena
            .get_mut(id.index())
            .and_then(Option::as_mut)
            .ok_or_else(|| {
                Error::Graph(format!(
                    "{op}: node %{} does not exist or was erased",
                    id.index()
                ))
            })
    }

    /// Replace a node's positional arguments, updating the use–def index.
    /// Errors if `id` is unknown or erased.
    pub fn set_args(&mut self, id: NodeId, args: Vec<Arg>) -> Result<()> {
        self.live_mut("set_args", id)?;
        self.unindex_uses_of(id);
        self.arena[id.index()].as_mut().expect("checked live").args = args;
        let node = self.node(id).clone();
        self.index_uses_of(&node);
        self.version += 1;
        Ok(())
    }

    /// Replace a node's keyword arguments, updating the use–def index.
    /// Errors if `id` is unknown or erased.
    pub fn set_kwargs(&mut self, id: NodeId, kwargs: Vec<(String, Arg)>) -> Result<()> {
        self.live_mut("set_kwargs", id)?;
        self.unindex_uses_of(id);
        self.arena[id.index()].as_mut().expect("checked live").kwargs = kwargs;
        let node = self.node(id).clone();
        self.index_uses_of(&node);
        self.version += 1;
        Ok(())
    }

    /// Retarget a node (e.g. swap `relu` for `gelu` — the paper's Figure 2
    /// transform). Errors if `id` is unknown or erased.
    pub fn set_target(&mut self, id: NodeId, target: &str) -> Result<()> {
        self.live_mut("set_target", id)?.target = target.to_string();
        self.version += 1;
        Ok(())
    }

    /// Point every use of `old` at `new` instead. Returns how many using
    /// nodes were rewritten.
    pub fn replace_all_uses_with(&mut self, old: NodeId, new: NodeId) -> usize {
        let using: Vec<NodeId> = self.users(old);
        for user in &using {
            self.unindex_uses_of(*user);
            let node = self.arena[user.index()].as_mut().expect("erased node");
            node.args = node
                .args
                .iter()
                .map(|a| a.map_nodes(&mut |id| if id == old { new } else { id }))
                .collect();
            node.kwargs = node
                .kwargs
                .iter()
                .map(|(k, a)| {
                    (
                        k.clone(),
                        a.map_nodes(&mut |id| if id == old { new } else { id }),
                    )
                })
                .collect();
            let node = self.node(*user).clone();
            self.index_uses_of(&node);
        }
        if !using.is_empty() {
            self.version += 1;
        }
        using.len()
    }

    /// Remove a node. Fails if other nodes still reference it.
    pub fn erase_node(&mut self, id: NodeId) -> Result<()> {
        if !self.contains(id) {
            return Err(Error::Graph(format!("node %{} already erased", id.index())));
        }
        let remaining = self.users(id);
        if !remaining.is_empty() {
            let names: Vec<String> = remaining
                .iter()
                .map(|u| self.node(*u).name.clone())
                .collect();
            return Err(Error::Graph(format!(
                "cannot erase `{}`: still used by {:?}",
                self.node(id).name,
                names
            )));
        }
        self.unindex_uses_of(id);
        self.users.remove(&id);
        self.order.retain(|&n| n != id);
        if self.insert_point == Some(id) {
            self.insert_point = None;
        }
        self.arena[id.index()] = None;
        self.version += 1;
        Ok(())
    }

    /// Erase nodes whose values are never used, repeating until a fixed
    /// point. Placeholders and the output are always kept. Returns the
    /// number of nodes removed.
    ///
    /// Sound without any effect analysis because the IR has no mutation
    /// (paper §5.6).
    pub fn eliminate_dead_code(&mut self) -> usize {
        let mut removed = 0;
        loop {
            let dead: Vec<NodeId> = self
                .order
                .iter()
                .copied()
                .filter(|&id| {
                    let n = self.node(id);
                    n.op != Opcode::Placeholder
                        && n.op != Opcode::Output
                        && self.users(id).is_empty()
                })
                .collect();
            if dead.is_empty() {
                return removed;
            }
            for id in dead {
                self.erase_node(id).expect("dead node has no users");
                removed += 1;
            }
        }
    }

    // ----- validation -------------------------------------------------------

    /// Check IR invariants: every argument reference is to a live node
    /// that appears **earlier** in the execution order (topological
    /// validity), placeholders precede all other nodes, node names are
    /// unique, and at most one output exists, positioned last. This is
    /// [`GraphChecker`](crate::validate::GraphChecker)'s topology walk
    /// alone, so a violation is an [`Error::Validate`] naming the node.
    pub fn lint(&self) -> Result<()> {
        crate::validate::GraphChecker::new(self).check_topology()
    }

    /// Full structural validation via [`GraphChecker`]: everything
    /// [`Graph::lint`] checks plus arena/order agreement, use–def index
    /// consistency, exactly-one-output and shape-metadata coherence.
    /// Use this on *finished* graphs; `lint` tolerates
    /// graphs-under-construction (no output yet).
    ///
    /// [`GraphChecker`]: crate::validate::GraphChecker
    pub fn validate(&self) -> Result<()> {
        crate::validate::GraphChecker::new(self).check()
    }

    // ----- graph composition --------------------------------------------------

    /// Copy every non-placeholder, non-output node of `other` into `self`
    /// at the current insertion point. `placeholder_map` supplies the
    /// argument each of `other`'s placeholders should become. Returns the
    /// mapping from `other`'s node ids to the new ids, plus the `Arg` that
    /// `other`'s output maps to.
    pub fn splice(
        &mut self,
        other: &Graph,
        placeholder_map: &HashMap<NodeId, Arg>,
    ) -> Result<(HashMap<NodeId, NodeId>, Option<Arg>)> {
        let mut id_map: HashMap<NodeId, Arg> = placeholder_map.clone();
        let mut new_ids = HashMap::new();
        let mut out_arg = None;
        for node in other.nodes() {
            match node.op() {
                Opcode::Placeholder => {
                    if !id_map.contains_key(&node.id()) {
                        return Err(Error::Graph(format!(
                            "splice: no substitution for placeholder `{}`",
                            node.name()
                        )));
                    }
                }
                Opcode::Output => {
                    out_arg = Some(remap_arg(&node.args()[0], &id_map)?);
                }
                _ => {
                    let args: Vec<Arg> = node
                        .args()
                        .iter()
                        .map(|a| remap_arg(a, &id_map))
                        .collect::<Result<_>>()?;
                    let kwargs: Vec<(String, Arg)> = node
                        .kwargs()
                        .iter()
                        .map(|(k, a)| Ok((k.clone(), remap_arg(a, &id_map)?)))
                        .collect::<Result<_>>()?;
                    let new_id =
                        self.create_node(node.op(), node.target(), args, kwargs, node.name());
                    id_map.insert(node.id(), Arg::Node(new_id));
                    new_ids.insert(node.id(), new_id);
                }
            }
        }
        Ok((new_ids, out_arg))
    }

    /// Count nodes per opcode — the statistic behind the paper's §6.1 IR
    /// complexity comparison.
    pub fn opcode_histogram(&self) -> Vec<(Opcode, usize)> {
        let mut counts: HashMap<Opcode, usize> = HashMap::new();
        for n in self.nodes() {
            *counts.entry(n.op()).or_insert(0) += 1;
        }
        let mut v: Vec<_> = counts.into_iter().collect();
        v.sort_by_key(|(op, _)| op.as_str());
        v
    }

    /// Render a fixed-width table of the graph, like
    /// `Graph.print_tabular()` in torch.fx.
    pub fn tabular(&self) -> String {
        let mut rows = vec![[
            "opcode".to_string(),
            "name".to_string(),
            "target".to_string(),
            "args".to_string(),
        ]];
        for n in self.nodes() {
            let args = n
                .args()
                .iter()
                .map(|a| a.display_with(&|id| self.node(id).name().to_string()))
                .collect::<Vec<_>>()
                .join(", ");
            rows.push([
                n.op().to_string(),
                n.name().to_string(),
                n.target().to_string(),
                format!("({args})"),
            ]);
        }
        let widths: Vec<usize> = (0..4)
            .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:width$}  ", cell, width = widths[c]));
            }
            out.push('\n');
            if i == 0 {
                for w in &widths {
                    out.push_str(&"-".repeat(*w));
                    out.push_str("  ");
                }
                out.push('\n');
            }
        }
        out
    }
}

fn remap_arg(arg: &Arg, map: &HashMap<NodeId, Arg>) -> Result<Arg> {
    Ok(match arg {
        Arg::Node(id) => map
            .get(id)
            .cloned()
            .ok_or_else(|| Error::Graph(format!("splice: unmapped node %{}", id.index())))?,
        Arg::List(items) => Arg::List(
            items
                .iter()
                .map(|a| remap_arg(a, map))
                .collect::<Result<_>>()?,
        ),
        Arg::Tuple(items) => Arg::Tuple(
            items
                .iter()
                .map(|a| remap_arg(a, map))
                .collect::<Result<_>>()?,
        ),
        other => other.clone(),
    })
}

impl fmt::Display for Graph {
    /// One node per line, in the paper's
    /// `name = opcode target=... args=(...)` format, with node references
    /// shown by name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for node in self.nodes() {
            let args = node
                .args()
                .iter()
                .map(|a| a.display_with(&|id| self.node(id).name().to_string()))
                .collect::<Vec<_>>()
                .join(", ");
            let args = if node.args().len() == 1 {
                format!("({args},)")
            } else {
                format!("({args})")
            };
            write!(
                f,
                "{} = {} target={} args={}",
                node.name(),
                node.op(),
                node.target(),
                args
            )?;
            if !node.kwargs().is_empty() {
                let kw = node
                    .kwargs()
                    .iter()
                    .map(|(k, v)| {
                        format!(
                            "{k}={}",
                            v.display_with(&|id| self.node(id).name().to_string())
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(f, " kwargs={{{kw}}}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the paper's Figure 1 graph: relu(x).neg().
    fn figure1() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let relu = g.call_function("relu", vec![Arg::Node(x)], vec![]);
        let neg = g.call_method("neg", vec![Arg::Node(relu)], vec![]);
        g.output(Arg::Node(neg));
        (g, x, relu, neg)
    }

    #[test]
    fn figure1_display() {
        let (g, ..) = figure1();
        let text = g.to_string();
        assert!(text.contains("x = placeholder target=x args=()"));
        assert!(text.contains("relu = call_function target=relu args=(x,)"));
        assert!(text.contains("neg = call_method target=neg args=(relu,)"));
        assert!(text.contains("output = output target=output args=(neg,)"));
    }

    #[test]
    fn lint_accepts_wellformed() {
        let (g, ..) = figure1();
        g.lint().unwrap();
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn users_index_tracks() {
        let (g, x, relu, neg) = figure1();
        assert_eq!(g.users(x), vec![relu]);
        assert_eq!(g.users(relu), vec![neg]);
        assert_eq!(g.users(neg).len(), 1);
    }

    #[test]
    fn unique_names() {
        let mut g = Graph::new();
        let a = g.call_function("relu", vec![], vec![]);
        let b = g.call_function("relu", vec![], vec![]);
        assert_eq!(g.node(a).name(), "relu");
        assert_eq!(g.node(b).name(), "relu_1");
        // A hint that already looks like an issued name, on either side.
        let c = g.placeholder("relu_1");
        assert_eq!(g.node(c).name(), "relu_1_1");
        let d = g.placeholder("gelu_1");
        let e = g.call_function("gelu", vec![], vec![]);
        let f = g.call_function("gelu", vec![], vec![]);
        assert_eq!(
            [g.node(d).name(), g.node(e).name(), g.node(f).name()],
            ["gelu_1", "gelu", "gelu_2"]
        );
    }

    #[test]
    fn erase_requires_no_users() {
        let (mut g, _, relu, neg) = figure1();
        assert!(g.erase_node(relu).is_err());
        // Detach neg from relu first.
        let x = g.placeholders()[0];
        // (would violate placeholder ordering on lint, but erase still works)
        g.set_args(neg, vec![Arg::Node(x)]).unwrap();
        g.erase_node(relu).unwrap();
        assert_eq!(g.len(), 3);
        assert!(!g.contains(relu));
        assert!(g.erase_node(relu).is_err());
    }

    #[test]
    fn replace_all_uses() {
        let (mut g, x, relu, neg) = figure1();
        let gelu = g
            .inserting_before(neg)
            .call_function("gelu", vec![Arg::Node(x)], vec![]);
        let n = g.replace_all_uses_with(relu, gelu);
        assert_eq!(n, 1);
        g.erase_node(relu).unwrap();
        g.lint().unwrap();
        assert!(g.to_string().contains("neg = call_method target=neg args=(gelu,)"));
    }

    #[test]
    fn insert_before_and_after() {
        let (mut g, _, relu, _) = figure1();
        let pre = g.inserting_before(relu).call_function("pre", vec![], vec![]);
        let post = g.inserting_after(relu).call_function("post", vec![], vec![]);
        let order: Vec<&str> = g.nodes().map(|n| n.name()).collect();
        assert_eq!(order, vec!["x", "pre", "relu", "post", "neg", "output"]);
        let _ = (pre, post);
    }

    #[test]
    fn insert_guards_nest_and_restore() {
        let (mut g, _, relu, neg) = figure1();
        {
            let mut before_neg = g.inserting_before(neg);
            before_neg.call_function("a", vec![], vec![]);
            {
                let mut before_relu = before_neg.inserting_before(relu);
                before_relu.call_function("b", vec![], vec![]);
            }
            // Inner guard dropped: back to inserting before `neg`.
            before_neg.call_function("c", vec![], vec![]);
        }
        // Outer guard dropped: back to appending (before output is invalid,
        // so check a plain append lands at the end).
        let order: Vec<&str> = g.nodes().map(|n| n.name()).collect();
        assert_eq!(order, vec!["x", "b", "relu", "a", "c", "neg", "output"]);
    }

    #[test]
    fn lint_catches_use_before_def() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let a = g.call_function("relu", vec![], vec![]);
        // Manually wire a to a later node.
        let b = g.call_function("neg", vec![Arg::Node(x)], vec![]);
        g.set_args(a, vec![Arg::Node(b)]).unwrap();
        assert!(g.lint().is_err());
    }

    #[test]
    fn lint_catches_misplaced_placeholder() {
        let mut g = Graph::new();
        let _a = g.call_function("relu", vec![], vec![]);
        let _x = g.placeholder("x");
        assert!(g.lint().is_err());
    }

    #[test]
    fn lint_catches_node_after_output() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        g.output(Arg::Node(x));
        g.call_function("relu", vec![Arg::Node(x)], vec![]);
        assert!(g.lint().is_err());
    }

    #[test]
    fn dead_code_elimination() {
        let (mut g, x, ..) = figure1();
        // Two dead nodes, one depending on the other.
        let d1 = g.call_function("exp", vec![Arg::Node(x)], vec![]);
        let _d2 = g.call_function("log", vec![Arg::Node(d1)], vec![]);
        // Output is after these in creation order, so fix order: move them
        // before the output by rebuilding — simpler: lint is not required
        // for DCE. Remove both.
        assert_eq!(g.eliminate_dead_code(), 2);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn splice_inlines_pattern() {
        // Pattern: y = relu(p0)
        let mut pat = Graph::new();
        let p0 = pat.placeholder("p0");
        let r = pat.call_function("relu", vec![Arg::Node(p0)], vec![]);
        pat.output(Arg::Node(r));

        let mut g = Graph::new();
        let x = g.placeholder("x");
        let mut map = HashMap::new();
        map.insert(p0, Arg::Node(x));
        let (new_ids, out) = g.splice(&pat, &map).unwrap();
        assert_eq!(new_ids.len(), 1);
        let out = out.unwrap();
        g.output(out);
        g.lint().unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn splice_missing_placeholder_errors() {
        let mut pat = Graph::new();
        let p0 = pat.placeholder("p0");
        pat.output(Arg::Node(p0));
        let mut g = Graph::new();
        assert!(g.splice(&pat, &HashMap::new()).is_err());
    }

    #[test]
    fn histogram_and_tabular() {
        let (g, ..) = figure1();
        let hist = g.opcode_histogram();
        assert!(hist.contains(&(Opcode::CallFunction, 1)));
        assert!(hist.contains(&(Opcode::Placeholder, 1)));
        let tab = g.tabular();
        assert!(tab.contains("opcode"));
        assert!(tab.contains("call_method"));
    }

    #[test]
    fn set_target_swaps_activation() {
        let (mut g, _, relu, _) = figure1();
        g.set_target(relu, "gelu").unwrap();
        assert!(g.to_string().contains("call_function target=gelu"));
    }

    #[test]
    fn mutators_error_on_unknown_or_erased_ids() {
        let (mut g, x, relu, neg) = figure1();
        let bogus = NodeId::new(999);
        assert!(g.set_args(bogus, vec![]).is_err());
        assert!(g.set_kwargs(bogus, vec![]).is_err());
        assert!(g.set_target(bogus, "gelu").is_err());
        g.set_args(neg, vec![Arg::Node(x)]).unwrap();
        g.erase_node(relu).unwrap();
        assert!(g.set_target(relu, "gelu").is_err());
    }

    #[test]
    fn version_bumps_on_every_structural_mutation() {
        let (mut g, x, relu, neg) = figure1();
        let mut last = g.version();
        assert!(last > 0, "node creation must bump the version");

        g.set_args(neg, vec![Arg::Node(relu)]).unwrap();
        assert!(g.version() > last);
        last = g.version();

        g.set_kwargs(relu, vec![("inplace".to_string(), Arg::Bool(false))])
            .unwrap();
        assert!(g.version() > last);
        last = g.version();

        g.set_target(relu, "gelu").unwrap();
        assert!(g.version() > last);
        last = g.version();

        let gelu = g
            .inserting_before(neg)
            .call_function("gelu2", vec![Arg::Node(x)], vec![]);
        assert!(g.version() > last);
        last = g.version();

        g.replace_all_uses_with(relu, gelu);
        assert!(g.version() > last);
        last = g.version();

        g.erase_node(relu).unwrap();
        assert!(g.version() > last);
        last = g.version();

        // Read-only operations must NOT bump.
        let _ = g.to_string();
        let _ = g.node_ids();
        let _ = g.lint();
        assert_eq!(g.version(), last);
    }
}
