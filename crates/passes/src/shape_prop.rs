//! Shape propagation (paper §6.3).
//!
//! Two flavours, as in torch.fx:
//!
//! * [`shape_prop`] — the "naïve implementation … by interpreting the
//!   graph and recording the observed shapes" (the canonical
//!   `fx.passes.shape_prop`): run real inputs through the
//!   [`Executor`] with a hook and stamp `shape`/`dtype` metadata on
//!   every node.
//! * [`infer_shapes`] — abstract interpretation over shapes only: the
//!   per-operator rules of [`crate::sym_shape`] propagate input shapes
//!   without touching tensor data. Because the IR has no control flow,
//!   this is a single forward pass — no fixpoint, no lattice, no join
//!   functions (the paper's §5.5 argument).

use crate::sym_shape::{infer_types, TensorType};
use fx_core::{Error, Executor, GraphModule, InterpHook, Meta, Node, NodeId, Result, Value};
use fx_tensor::DType;
use std::collections::HashMap;

/// Concrete shape propagation: run `inputs` through the module and
/// record each node's observed output shape and dtype in its metadata.
/// Returns the module output.
pub fn shape_prop(gm: &mut GraphModule, inputs: &[Value]) -> Result<Value> {
    struct Collect {
        seen: Vec<(NodeId, Vec<usize>, DType)>,
    }
    impl InterpHook for Collect {
        fn on_node(&mut self, node: &Node, value: &Value) -> Result<()> {
            if let Value::Tensor(t) = value {
                self.seen.push((node.id(), t.shape().to_vec(), t.dtype()));
            }
            Ok(())
        }
    }
    let mut hook = Collect { seen: Vec::new() };
    let out = Executor::new(gm).with_hook(&mut hook).run(inputs)?;
    for (id, shape, dtype) in hook.seen {
        if gm.graph().contains(id) {
            let meta = gm.graph_mut().node_meta_mut(id);
            meta.insert("shape".to_string(), Meta::Shape(shape));
            meta.insert("dtype".to_string(), Meta::DType(dtype));
        }
    }
    fx_core::validate::after_pass(gm, "shape_prop")?;
    Ok(out)
}

/// Abstract (data-free) shape inference: [`crate::sym_shape`]'s walk
/// over all-constant inputs, stamped as `shape` metadata. Returns the
/// shape of every named tensor node.
///
/// Errors on ops whose output shape genuinely depends on data, which is
/// the honest analogue of shape analysis hitting "dynamic" (§5.5).
pub fn infer_shapes(
    gm: &mut GraphModule,
    input_shapes: &[Vec<usize>],
) -> Result<HashMap<String, Vec<usize>>> {
    let inputs: Vec<TensorType> = input_shapes
        .iter()
        .map(|s| TensorType::concrete(s, DType::F32))
        .collect();
    let types = infer_types(gm, &inputs)?;
    let mut out = HashMap::new();
    for id in gm.graph().node_ids() {
        let Some(ty) = types.get(&id) else { continue };
        let shape = ty.as_concrete().ok_or_else(|| {
            Error::Graph(format!(
                "infer_shapes: constant inputs left `{}` a symbolic shape",
                gm.graph().node(id).name()
            ))
        })?;
        out.insert(gm.graph().node(id).name().to_string(), shape.clone());
        gm.graph_mut()
            .node_meta_mut(id)
            .insert("shape".to_string(), Meta::Shape(shape));
    }
    fx_core::validate::after_pass(gm, "infer_shapes")?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::symbolic_trace;
    use fx_models::{resnet_tiny, Mlp};
    use fx_tensor::rng::SeedableRng;
    use fx_tensor::rng::StdRng;
    use fx_tensor::Tensor;

    #[test]
    fn concrete_shape_prop_stamps_metadata() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[4, 8, 2], &mut rng);
        let mut gm = symbolic_trace(&mlp).unwrap();
        let x = Value::Tensor(Tensor::ones(&[3, 4]));
        shape_prop(&mut gm, &[x]).unwrap();
        let fc1 = gm.graph().nodes().find(|n| n.target() == "fc1").unwrap();
        assert_eq!(fc1.shape_meta(), Some(&[3usize, 2][..]));
    }

    #[test]
    fn stamping_shapes_invalidates_the_cached_plan() {
        // The memory planner reads shape metadata, so a plan compiled
        // before stamping (here by a plain run, and by `shape_prop`'s own
        // hooked run) must not be served afterwards.
        let mut rng = StdRng::seed_from_u64(0);
        let traced = symbolic_trace(&Mlp::new(&[4, 8, 2], &mut rng)).unwrap();
        let x = Value::Tensor(Tensor::ones(&[3, 4]));
        for stamp in [
            (|gm, x| shape_prop(gm, &[x]).map(drop)) as fn(&mut GraphModule, Value) -> Result<()>,
            |gm, _| infer_shapes(gm, &[vec![3, 4]]).map(drop),
        ] {
            let mut gm = traced.clone();
            gm.run(std::slice::from_ref(&x)).unwrap();
            assert!(!gm.exec_plan().unwrap().0.has_mem_plan(), "no shapes yet");
            stamp(&mut gm, x.clone()).unwrap();
            let (plan, hit, ..) = gm.exec_plan().unwrap();
            assert!(!hit && plan.has_mem_plan(), "stale unplanned plan served");
        }
    }

    #[test]
    fn abstract_matches_concrete_on_resnet() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = resnet_tiny(&mut rng);
        let mut gm_c = symbolic_trace(&model).unwrap();
        let mut gm_a = gm_c.clone();
        let x = Value::Tensor(Tensor::randn(&[2, 3, 32, 32], &mut rng));
        shape_prop(&mut gm_c, &[x]).unwrap();
        let inferred = infer_shapes(&mut gm_a, &[vec![2, 3, 32, 32]]).unwrap();
        for node in gm_c.graph().nodes() {
            if let Some(shape) = node.shape_meta() {
                assert_eq!(
                    inferred.get(node.name()).map(|v| v.as_slice()),
                    Some(shape),
                    "abstract and concrete disagree at `{}`",
                    node.name()
                );
            }
        }
    }

    #[test]
    fn abstract_infers_without_data() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(&[16, 32, 10], &mut rng);
        let mut gm = symbolic_trace(&mlp).unwrap();
        let shapes = infer_shapes(&mut gm, &[vec![5, 16]]).unwrap();
        assert_eq!(shapes["fc1"], vec![5, 10]);
        assert_eq!(shapes["fc0"], vec![5, 32]);
    }

    #[test]
    fn missing_input_shape_errors() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[4, 4], &mut rng);
        let mut gm = symbolic_trace(&mlp).unwrap();
        assert!(infer_shapes(&mut gm, &[]).is_err());
    }

    #[test]
    fn oversized_pool_in_graph_errors_cleanly() {
        // A full infer_shapes run over a graph whose pool window exceeds
        // the input: errors with the node name, no panic.
        use fx_core::Arg;
        let mut g = fx_core::Graph::new();
        let x = g.placeholder("x");
        let pooled = g.call_function(
            "max_pool2d",
            vec![
                Arg::Node(x),
                Arg::Tuple(vec![Arg::Int(9), Arg::Int(9)]),
                Arg::Tuple(vec![Arg::Int(1), Arg::Int(1)]),
            ],
            Default::default(),
        );
        g.output(Arg::Node(pooled));
        let mut gm = fx_core::GraphModule::new(
            g,
            Default::default(),
            Default::default(),
            vec!["x".to_string()],
        )
        .unwrap();
        let err = infer_shapes(&mut gm, &[vec![1, 3, 4, 4]]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("does not fit"), "unexpected error: {msg}");
    }
}
