//! Constant folding: evaluate nodes whose inputs are all compile-time
//! constants (immediates and `get_attr` parameters) once, ahead of time,
//! and replace them with attribute fetches of the precomputed result.
//!
//! This is the ahead-of-time half of what the backend's engine compiler
//! does when it folds batch-norm parameters; exposed as a standalone
//! pass it also cleans up scale/shift expressions left by other
//! transforms.

use fx_core::{dispatch, Arg, GraphModule, NodeId, Opcode, Result, Value};
use std::collections::HashMap;

fn const_value(
    arg: &Arg,
    known: &HashMap<NodeId, Value>,
) -> Option<Value> {
    Some(match arg {
        Arg::Node(id) => known.get(id)?.clone(),
        Arg::Int(v) => Value::Int(*v),
        Arg::Float(v) => Value::Float(*v),
        Arg::Bool(v) => Value::Bool(*v),
        Arg::Str(v) => Value::Str(v.clone()),
        Arg::None => Value::None,
        Arg::List(items) => Value::List(
            items
                .iter()
                .map(|a| const_value(a, known))
                .collect::<Option<_>>()?,
        ),
        Arg::Tuple(items) => Value::Tuple(
            items
                .iter()
                .map(|a| const_value(a, known))
                .collect::<Option<_>>()?,
        ),
    })
}

/// Fold all-constant `call_function` / `call_method` nodes. Folded
/// tensor results are installed as `_folded_<n>` attributes fetched via
/// `get_attr`; dead producers are cleaned up. Returns the number of
/// nodes folded.
pub fn fold_constants(gm: &mut GraphModule) -> Result<usize> {
    // Seed: get_attr nodes are constants (parameters don't change at
    // inference).
    let mut known: HashMap<NodeId, Value> = HashMap::new();
    let mut folded = 0usize;
    let mut fold_counter = 0usize;
    for id in gm.graph().node_ids() {
        let node = gm.graph().node(id).clone();
        match node.op() {
            Opcode::GetAttr => {
                if let Some(t) = gm.get_attr_tensor(node.target()) {
                    known.insert(id, Value::Tensor(t.clone()));
                }
            }
            Opcode::CallFunction | Opcode::CallMethod => {
                let args: Option<Vec<Value>> = node
                    .args()
                    .iter()
                    .map(|a| const_value(a, &known))
                    .collect();
                let Some(args) = args else { continue };
                let kwargs: Option<Vec<(String, Value)>> = node
                    .kwargs()
                    .iter()
                    .map(|(k, a)| const_value(a, &known).map(|v| (k.clone(), v)))
                    .collect();
                let Some(kwargs) = kwargs else { continue };
                let result = dispatch::eager(node.op(), node.target(), &args, &kwargs);
                // Folding is best-effort: an op that fails at fold time
                // will fail identically at run time; leave it in place.
                let Ok(result) = result else { continue };
                let Value::Tensor(t) = &result else {
                    // Non-tensor constants could fold into immediates;
                    // keep it simple and only fold tensor results.
                    continue;
                };
                let attr_name = format!("_folded_{fold_counter}");
                fold_counter += 1;
                gm.set_attr(&attr_name, t.clone());
                let graph = gm.graph_mut();
                let getter = graph.inserting_before(id).get_attr(&attr_name);
                graph.replace_all_uses_with(id, getter);
                graph.erase_node(id)?;
                known.insert(getter, result);
                folded += 1;
            }
            _ => {}
        }
    }
    if folded > 0 {
        gm.graph_mut().eliminate_dead_code();
        gm.delete_unused_state();
        gm.recompile()?;
    }
    fx_core::validate::after_pass(gm, "fold_constants")?;
    Ok(folded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{func, symbolic_trace_fn, Arg, Value};
    use fx_tensor::Tensor;

    /// Note: tracing already partially evaluates proxy-free expressions
    /// (§5.3's "partially evaluated during the trace"), so a foldable
    /// graph has to reference constants through `get_attr` — which is
    /// exactly what parameters look like. These tests build such graphs
    /// directly.
    fn graph_with_attr(
        build: impl FnOnce(&mut fx_core::Graph, fx_core::NodeId, fx_core::NodeId),
        attr: Tensor,
    ) -> GraphModule {
        let mut g = fx_core::Graph::new();
        let x = g.placeholder("x");
        let w = g.get_attr("w");
        build(&mut g, x, w);
        let mut attrs = std::collections::BTreeMap::new();
        attrs.insert("w".to_string(), attr);
        GraphModule::new(g, Default::default(), attrs, vec!["x".to_string()]).unwrap()
    }

    #[test]
    fn folds_constant_subtree() {
        // neg(w) is constant; add(x, that) is not.
        let mut gm = graph_with_attr(
            |g, x, w| {
                let n = g.call_function("neg", vec![Arg::Node(w)], vec![]);
                let a = g.call_function("add", vec![Arg::Node(x), Arg::Node(n)], vec![]);
                g.output(Arg::Node(a));
            },
            Tensor::from_vec(vec![1.0, 2.0], &[2]),
        );
        let x = Value::Tensor(Tensor::from_vec(vec![10.0, 10.0], &[2]));
        let before = gm.run(&[x.clone()]).unwrap();

        let folded = fold_constants(&mut gm).unwrap();
        assert_eq!(folded, 1);
        gm.graph().lint().unwrap();
        assert!(
            !gm.code().contains("torch.neg"),
            "neg folded away:\n{}",
            gm.code()
        );
        assert!(gm.attrs().keys().any(|k| k.starts_with("_folded_")));

        let after = gm.run(&[x]).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn non_constant_nodes_survive() {
        let mut gm = symbolic_trace_fn(1, |xs| func::relu(&xs[0])).unwrap();
        assert_eq!(fold_constants(&mut gm).unwrap(), 0);
        assert!(gm.code().contains("torch.relu"));
    }

    #[test]
    fn transitive_folding() {
        let mut gm = graph_with_attr(
            |g, x, w| {
                let a = g.call_function("neg", vec![Arg::Node(w)], vec![]); // const
                let b = g.call_function("abs", vec![Arg::Node(a)], vec![]); // const-of-const
                let m = g.call_function("mul", vec![Arg::Node(x), Arg::Node(b)], vec![]);
                g.output(Arg::Node(m));
            },
            Tensor::from_vec(vec![2.0], &[1]),
        );
        let folded = fold_constants(&mut gm).unwrap();
        assert_eq!(folded, 2);
        let x = Value::Tensor(Tensor::from_vec(vec![3.0], &[1]));
        let y = gm.run(&[x]).unwrap();
        assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[6.0]);
    }
}
