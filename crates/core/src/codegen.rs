//! Source-to-source output: regenerating readable code from the IR.
//!
//! torch.fx's final pipeline stage generates valid Python from the
//! transformed graph so results stay inspectable, debuggable and
//! composable (paper §4.3, §5.4). Rust cannot `exec` generated source at
//! runtime, so here code generation serves the *inspection* half of that
//! story — [`python_code`] reproduces torch.fx's output format exactly
//! (including the `;  x = None` last-use clears) — while execution
//! re-enters the host through the plan-cached
//! [`Executor`](crate::Executor), which is derived from the same IR.

use crate::arg::Arg;
use crate::graph::Graph;
use crate::node::{NodeId, Opcode};
use std::collections::HashMap;

/// Render a dotted module path as a Python attribute expression.
/// Numeric segments (children of a `Sequential`) need `getattr`:
/// `layer1.0.conv1` → `getattr(self.layer1, "0").conv1`.
fn py_attr_expr(target: &str) -> String {
    let mut expr = "self".to_string();
    for seg in target.split('.') {
        if seg.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            expr = format!("getattr({expr}, \"{seg}\")");
        } else {
            expr = format!("{expr}.{seg}");
        }
    }
    expr
}

fn py_arg(arg: &Arg, names: &HashMap<NodeId, String>) -> String {
    arg.display_with(&|id| names.get(&id).cloned().unwrap_or_else(|| format!("%{}", id.index())))
}

/// Infix rendering for arithmetic, as torch.fx prints `operator.add` —
/// `add = x + 3.141592653589793`.
fn infix(target: &str) -> Option<&'static str> {
    match target {
        "add" => Some("+"),
        "sub" => Some("-"),
        "mul" => Some("*"),
        "div" => Some("/"),
        _ => None,
    }
}

/// Generate Python source in torch.fx's exact output style (Figure 1):
///
/// ```text
/// def forward(self, x):
///     relu = torch.relu(x);  x = None
///     neg = relu.neg();  relu = None
///     return neg
/// ```
pub fn python_code(graph: &Graph) -> String {
    let ids = graph.node_ids();
    let names: HashMap<NodeId, String> = ids
        .iter()
        .map(|&id| (id, graph.node(id).name().to_string()))
        .collect();

    // Position of each node's last use, for the `x = None` clears.
    let mut last_use: HashMap<NodeId, usize> = HashMap::new();
    for (pos, &id) in ids.iter().enumerate() {
        for dep in graph.node(id).input_nodes() {
            last_use.insert(dep, pos);
        }
    }

    let params: Vec<&str> = ids
        .iter()
        .filter(|&&id| graph.node(id).op() == Opcode::Placeholder)
        .map(|&id| graph.node(id).target())
        .collect();
    let mut out = format!("def forward(self, {}):\n", params.join(", "));

    for (pos, &id) in ids.iter().enumerate() {
        let node = graph.node(id);
        let var = node.name();
        let args: Vec<String> = node.args().iter().map(|a| py_arg(a, &names)).collect();
        let kwargs: Vec<String> = node
            .kwargs()
            .iter()
            .map(|(k, a)| format!("{k}={}", py_arg(a, &names)))
            .collect();
        let all_args = args
            .iter()
            .skip(if node.op() == Opcode::CallMethod { 1 } else { 0 })
            .cloned()
            .chain(kwargs)
            .collect::<Vec<_>>()
            .join(", ");
        let stmt = match node.op() {
            Opcode::Placeholder => continue,
            Opcode::GetAttr => format!("{var} = {}", py_attr_expr(node.target())),
            Opcode::CallFunction => {
                if let (Some(op), 2) = (infix(node.target()), node.args().len()) {
                    format!("{var} = {} {op} {}", args[0], args[1])
                } else if node.target().contains("::") {
                    // quantized::linear -> torch.ops.quantized.linear
                    format!(
                        "{var} = torch.ops.{}({all_args})",
                        node.target().replace("::", ".")
                    )
                } else {
                    format!("{var} = torch.{}({all_args})", node.target())
                }
            }
            Opcode::CallMethod => {
                format!("{var} = {}.{}({all_args})", args[0], node.target())
            }
            Opcode::CallModule => {
                format!("{var} = {}({all_args})", py_attr_expr(node.target()))
            }
            Opcode::Output => format!(
                "return {}",
                args.first().cloned().unwrap_or_else(|| "None".to_string())
            ),
        };
        // Clear variables whose last use was this statement.
        let mut clears: Vec<String> = node
            .input_nodes()
            .into_iter()
            .filter(|dep| last_use.get(dep) == Some(&pos))
            .map(|dep| format!("{} = None", names[&dep]))
            .collect();
        clears.sort();
        if node.op() == Opcode::Output || clears.is_empty() {
            out.push_str(&format!("    {stmt}\n"));
        } else {
            out.push_str(&format!("    {stmt};  {}\n", clears.join(";  ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let relu = g.call_function("relu", vec![Arg::Node(x)], vec![]);
        let neg = g.call_method("neg", vec![Arg::Node(relu)], vec![]);
        g.output(Arg::Node(neg));
        g
    }

    #[test]
    fn python_matches_paper_figure1() {
        let code = python_code(&figure1_graph());
        let expected = "def forward(self, x):\n    relu = torch.relu(x);  x = None\n    neg = relu.neg();  relu = None\n    return neg\n";
        assert_eq!(code, expected);
    }

    #[test]
    fn infix_arithmetic_like_figure3() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let add = g.call_function(
            "add",
            vec![Arg::Node(x), Arg::Float(std::f64::consts::PI)],
            vec![],
        );
        g.output(Arg::Node(add));
        let code = python_code(&g);
        assert!(
            code.contains("add = x + 3.141592653589793"),
            "got:\n{code}"
        );
    }

    #[test]
    fn module_and_attr_paths() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let w = g.get_attr("conv.weight");
        let c = g.call_module("layer1.0.conv1", vec![Arg::Node(x)], vec![]);
        let m = g.call_function("mul", vec![Arg::Node(c), Arg::Node(w)], vec![]);
        g.output(Arg::Node(m));
        let code = python_code(&g);
        assert!(code.contains("conv_weight = self.conv.weight"));
        assert!(code.contains("getattr(self.layer1, \"0\").conv1(x)"));
    }

    #[test]
    fn quantized_namespace() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let q = g.call_function("quantized::relu", vec![Arg::Node(x)], vec![]);
        g.output(Arg::Node(q));
        assert!(python_code(&g).contains("torch.ops.quantized.relu(x)"));
    }

    #[test]
    fn kwargs_render() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let s = g.call_function(
            "softmax",
            vec![Arg::Node(x)],
            vec![("dim".to_string(), Arg::Int(-1))],
        );
        g.output(Arg::Node(s));
        assert!(python_code(&g).contains("torch.softmax(x, dim=-1)"));
    }

    #[test]
    fn multiple_uses_clear_only_once() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let a = g.call_function("relu", vec![Arg::Node(x)], vec![]);
        let b = g.call_function("add", vec![Arg::Node(a), Arg::Node(a)], vec![]);
        g.output(Arg::Node(b));
        let code = python_code(&g);
        // `a` is last used by `b`, so cleared exactly there.
        assert!(code.contains("add = relu + relu;  relu = None"), "got:\n{code}");
    }
}
