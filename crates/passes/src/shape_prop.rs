//! Shape propagation (paper §6.3).
//!
//! Two flavours, as in torch.fx:
//!
//! * [`shape_prop`] — the "naïve implementation … by interpreting the
//!   graph and recording the observed shapes" (the canonical
//!   `fx.passes.shape_prop`): run real inputs through the
//!   [`Executor`] with a hook and stamp `shape`/`dtype` metadata on
//!   every node.
//! * [`infer_shapes`] — abstract interpretation over shapes only: a
//!   registry of per-op transfer functions propagates symbolic input
//!   shapes without touching tensor data. Because the IR has no control
//!   flow, this is a single forward pass — no fixpoint, no lattice, no
//!   join functions (the paper's §5.5 argument).

use fx_core::{
    Arg, Error, Executor, GraphModule, InterpHook, Meta, Node, NodeId, Opcode, Result, Value,
};
use fx_nn::{AdaptiveAvgPool2d, AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d};
use fx_quant::{QuantizedConv2d, QuantizedLinear};
use fx_tensor::shape::{broadcast_shapes, normalize_axis};
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

/// Abstract per-node state: a tensor shape, or an opaque non-tensor.
#[derive(Debug, Clone, PartialEq)]
enum AbsVal {
    Tensor(Vec<usize>),
    Other,
}

/// Pooled output extents, or `None` when the window does not fit the
/// padded input (the subtraction would underflow in `usize`) or a
/// stride is zero.
fn pool_out(
    h: usize,
    w: usize,
    k: (usize, usize),
    s: (usize, usize),
    p: (usize, usize),
) -> Option<(usize, usize)> {
    if s.0 == 0 || s.1 == 0 {
        return None;
    }
    let oh = (h + 2 * p.0).checked_sub(k.0)? / s.0 + 1;
    let ow = (w + 2 * p.1).checked_sub(k.1)? / s.1 + 1;
    Some((oh, ow))
}

fn pair_arg(arg: &Arg) -> Option<(usize, usize)> {
    match arg {
        Arg::Int(v) => Some((*v as usize, *v as usize)),
        Arg::Tuple(items) | Arg::List(items) if items.len() == 2 => {
            Some((items[0].as_int()? as usize, items[1].as_int()? as usize))
        }
        _ => None,
    }
}

fn int_list_arg(arg: &Arg) -> Option<Vec<i64>> {
    match arg {
        Arg::Tuple(items) | Arg::List(items) => items.iter().map(Arg::as_int).collect(),
        _ => None,
    }
}

/// Abstract (data-free) shape inference: propagate `input_shapes`
/// through the graph using per-op transfer functions and stamp `shape`
/// metadata. Returns the shape of every named node.
///
/// Errors on ops whose output shape genuinely depends on data, which is
/// the honest analogue of shape analysis hitting "dynamic" (§5.5).
pub fn infer_shapes(
    gm: &mut GraphModule,
    input_shapes: &[Vec<usize>],
) -> Result<HashMap<String, Vec<usize>>> {
    let mut env: HashMap<NodeId, AbsVal> = HashMap::new();
    let mut out = HashMap::new();
    let mut next_input = 0usize;
    let ids = gm.graph().node_ids();
    for id in ids {
        let node = gm.graph().node(id).clone();
        let val = match node.op() {
            Opcode::Placeholder => {
                let s = input_shapes.get(next_input).ok_or_else(|| {
                    Error::Graph(format!(
                        "infer_shapes: missing input shape for placeholder `{}`",
                        node.target()
                    ))
                })?;
                next_input += 1;
                AbsVal::Tensor(s.clone())
            }
            Opcode::GetAttr => match gm.get_attr_tensor(node.target()) {
                Some(t) => AbsVal::Tensor(t.shape().to_vec()),
                None => AbsVal::Other,
            },
            Opcode::Output => node
                .args()
                .first()
                .and_then(|a| arg_shape(a, &env))
                .map(AbsVal::Tensor)
                .unwrap_or(AbsVal::Other),
            Opcode::CallModule => infer_module(gm, &node, &env)?,
            Opcode::CallFunction | Opcode::CallMethod => infer_call(&node, &env)?,
        };
        if let AbsVal::Tensor(shape) = &val {
            out.insert(node.name().to_string(), shape.clone());
            gm.graph_mut()
                .node_meta_mut(id)
                .insert("shape".to_string(), Meta::Shape(shape.clone()));
        }
        env.insert(id, val);
    }
    fx_core::validate::after_pass(gm, "infer_shapes")?;
    Ok(out)
}

fn arg_shape(arg: &Arg, env: &HashMap<NodeId, AbsVal>) -> Option<Vec<usize>> {
    match arg {
        Arg::Node(id) => match env.get(id) {
            Some(AbsVal::Tensor(s)) => Some(s.clone()),
            _ => None,
        },
        _ => None,
    }
}

fn need_shape(node: &Node, i: usize, env: &HashMap<NodeId, AbsVal>) -> Result<Vec<usize>> {
    node.args()
        .get(i)
        .and_then(|a| arg_shape(a, env))
        .ok_or_else(|| {
            Error::Graph(format!(
                "infer_shapes: node `{}` needs a tensor shape at arg {i}",
                node.name()
            ))
        })
}

fn infer_module(
    gm: &GraphModule,
    node: &Node,
    env: &HashMap<NodeId, AbsVal>,
) -> Result<AbsVal> {
    let module = gm
        .get_module(node.target())
        .ok_or_else(|| Error::Module(format!("missing submodule `{}`", node.target())))?;
    let any = module.as_any();
    let x = need_shape(node, 0, env);
    let v = if let Some(c) = any.downcast_ref::<Conv2d>() {
        let x = x?;
        conv_out_shape(&x, c.weight().shape(), c.geometry().0, c.geometry().1, c.geometry().2)?
    } else if let Some(l) = any.downcast_ref::<Linear>() {
        let mut x = x?;
        let got = *x.last().ok_or_else(|| bad_rank(node))?;
        if got != l.in_features() {
            return Err(Error::Graph(format!(
                "linear `{}`: input last dim {got} does not match weight \
                 in-features {}",
                node.name(),
                l.in_features()
            )));
        }
        *x.last_mut().ok_or_else(|| bad_rank(node))? = l.out_features();
        x
    } else if let Some(q) = any.downcast_ref::<QuantizedLinear>() {
        let mut x = x?;
        *x.last_mut().ok_or_else(|| bad_rank(node))? = q.qweight().shape()[0];
        x
    } else if let Some(q) = any.downcast_ref::<QuantizedConv2d>() {
        let x = x?;
        let (stride, padding) = q.geometry();
        // Dilation and groups are fixed at 1 in the quantized path.
        conv_out_shape(&x, q.qweight().shape(), stride, padding, (1, 1))?
    } else if let Some(p) = any.downcast_ref::<MaxPool2d>() {
        let x = x?;
        pool_module_shape(&x, p.kernel_size, p.stride, p.padding, node)?
    } else if let Some(p) = any.downcast_ref::<AvgPool2d>() {
        let x = x?;
        pool_module_shape(&x, p.kernel_size, p.stride, p.padding, node)?
    } else if let Some(p) = any.downcast_ref::<AdaptiveAvgPool2d>() {
        let x = x?;
        if x.len() != 4 {
            return Err(bad_rank(node));
        }
        vec![x[0], x[1], p.output_size.0, p.output_size.1]
    } else if let Some(f) = any.downcast_ref::<Flatten>() {
        let x = x?;
        flatten_shape(&x, f.start_dim, f.end_dim)?
    } else {
        // Shape-preserving leaves: norms, activations, dropout, identity,
        // observers.
        match module.type_name() {
            "BatchNorm2d" | "LayerNorm" | "ReLU" | "GELU" | "SELU" | "Sigmoid" | "Tanh"
            | "LeakyReLU" | "ReLU6" | "Dropout" | "Identity" | "MinMaxObserver"
            | "MovingAverageObserver" | "HistogramObserver" => x?,
            other => {
                return Err(Error::Graph(format!(
                    "infer_shapes: no transfer function for module type `{other}` at `{}`",
                    node.name()
                )))
            }
        }
    };
    Ok(AbsVal::Tensor(v))
}

fn bad_rank(node: &Node) -> Error {
    Error::Graph(format!(
        "infer_shapes: node `{}` received a tensor of unexpected rank",
        node.name()
    ))
}

fn conv_out_shape(
    x: &[usize],
    w: &[usize],
    stride: (usize, usize),
    padding: (usize, usize),
    dilation: (usize, usize),
) -> Result<Vec<usize>> {
    if x.len() != 4 || w.len() != 4 {
        return Err(Error::Graph("conv shape fn: need 4-d shapes".to_string()));
    }
    if stride.0 == 0 || stride.1 == 0 {
        return Err(Error::Graph(
            "conv shape fn: stride must be positive".to_string(),
        ));
    }
    // Effective window: dilation * (kernel - 1) + 1. Checked so an
    // oversized kernel (or kernel 0) is an error, not a usize underflow.
    let extent = |input: usize, pad: usize, d: usize, k: usize, s: usize| -> Option<usize> {
        let span = k.checked_sub(1)?.checked_mul(d)?;
        Some((input + 2 * pad).checked_sub(span + 1)? / s + 1)
    };
    let oh = extent(x[2], padding.0, dilation.0, w[2], stride.0);
    let ow = extent(x[3], padding.1, dilation.1, w[3], stride.1);
    match (oh, ow) {
        (Some(oh), Some(ow)) => Ok(vec![x[0], w[0], oh, ow]),
        _ => Err(Error::Graph(format!(
            "conv shape fn: kernel {}×{} (dilation {:?}) does not fit input {}×{} \
             with padding {:?}",
            w[2], w[3], dilation, x[2], x[3], padding
        ))),
    }
}

fn pool_module_shape(
    x: &[usize],
    k: (usize, usize),
    s: (usize, usize),
    p: (usize, usize),
    node: &Node,
) -> Result<Vec<usize>> {
    if x.len() != 4 {
        return Err(bad_rank(node));
    }
    let (oh, ow) = pool_out(x[2], x[3], k, s, p).ok_or_else(|| {
        Error::Graph(format!(
            "pool shape fn: window {k:?} with stride {s:?} does not fit input {}×{} \
             with padding {p:?} at `{}`",
            x[2],
            x[3],
            node.name()
        ))
    })?;
    Ok(vec![x[0], x[1], oh, ow])
}

fn flatten_shape(x: &[usize], start: i64, end: i64) -> Result<Vec<usize>> {
    if x.is_empty() {
        // Flattening a 0-d tensor yields a 1-element vector (PyTorch
        // semantics); indexing `x[s..=e]` below would panic.
        return Ok(vec![1]);
    }
    let rank = x.len();
    let s = normalize_axis("flatten", start, rank).map_err(Error::Tensor)?;
    let e = normalize_axis("flatten", end, rank).map_err(Error::Tensor)?;
    if s > e {
        return Err(Error::Graph(format!(
            "flatten: start_dim {start} is after end_dim {end}"
        )));
    }
    let mut out: Vec<usize> = x[..s].to_vec();
    out.push(x[s..=e].iter().product());
    out.extend_from_slice(&x[e + 1..]);
    Ok(out)
}

fn infer_call(node: &Node, env: &HashMap<NodeId, AbsVal>) -> Result<AbsVal> {
    let target = node.target();
    let shape = |i: usize| need_shape(node, i, env);
    let v: Vec<usize> = match target {
        // identity-shaped
        "relu" | "gelu" | "selu" | "sigmoid" | "tanh" | "neg" | "exp" | "log" | "sqrt"
        | "rsqrt" | "abs" | "clamp" | "hardtanh" | "leaky_relu" | "dropout" | "softmax"
        | "log_softmax" | "batch_norm" | "layer_norm" | "quantize_per_tensor" | "dequantize"
        | "quantized::relu" | "contiguous" => shape(0)?,
        "add" | "sub" | "mul" | "div" | "maximum" | "minimum" | "quantized::add" => {
            let a = shape(0).unwrap_or_default();
            let b = node
                .args()
                .get(1)
                .and_then(|arg| arg_shape(arg, env))
                .unwrap_or_default(); // scalar immediates broadcast as []
            broadcast_shapes(&a, &b).map_err(Error::Tensor)?
        }
        "linear" | "quantized::linear" | "quantized::linear_relu" => {
            let mut x = shape(0)?;
            let w = shape(1)?;
            let out = *w.first().ok_or_else(|| bad_rank(node))?;
            // The float path stores weights [out, in]; reject a
            // contraction-dim mismatch here so admission checks (e.g.
            // serve registration/swap) catch it before runtime. The
            // quantized variants keep packed layouts — skip them.
            if target == "linear" {
                let in_f = *w.get(1).ok_or_else(|| bad_rank(node))?;
                let got = *x.last().ok_or_else(|| bad_rank(node))?;
                if got != in_f {
                    return Err(Error::Graph(format!(
                        "linear `{}`: input last dim {got} does not match weight \
                         in-features {in_f} (weight {w:?})",
                        node.name()
                    )));
                }
            }
            *x.last_mut().ok_or_else(|| bad_rank(node))? = out;
            x
        }
        "matmul" => {
            let a = shape(0)?;
            let b = shape(1)?;
            let check = |k_a: usize, k_b: usize| -> Result<()> {
                if k_a != k_b {
                    return Err(Error::Graph(format!(
                        "matmul `{}`: inner dims disagree ({a:?} vs {b:?})",
                        node.name()
                    )));
                }
                Ok(())
            };
            match (a.len(), b.len()) {
                (2, 2) => {
                    check(a[1], b[0])?;
                    vec![a[0], b[1]]
                }
                (3, 3) => {
                    check(a[2], b[1])?;
                    vec![a[0], a[1], b[2]]
                }
                (1, 1) => {
                    check(a[0], b[0])?;
                    vec![]
                }
                (1, 2) => {
                    check(a[0], b[0])?;
                    vec![b[1]]
                }
                (2, 1) => {
                    check(a[1], b[0])?;
                    vec![a[0]]
                }
                _ => return Err(bad_rank(node)),
            }
        }
        "conv2d" | "quantized::conv2d" | "quantized::conv2d_relu" => {
            let x = shape(0)?;
            let w = shape(1)?;
            let stride = node.args().get(3).and_then(pair_arg).unwrap_or((1, 1));
            let padding = node.args().get(4).and_then(pair_arg).unwrap_or((0, 0));
            let dilation = if target == "conv2d" {
                node.args().get(5).and_then(pair_arg).unwrap_or((1, 1))
            } else {
                (1, 1)
            };
            conv_out_shape(&x, &w, stride, padding, dilation)?
        }
        "max_pool2d" | "avg_pool2d" => {
            let x = shape(0)?;
            let k = node.args().get(1).and_then(pair_arg).unwrap_or((1, 1));
            let s = node.args().get(2).and_then(pair_arg).unwrap_or(k);
            let p = node.args().get(3).and_then(pair_arg).unwrap_or((0, 0));
            pool_module_shape(&x, k, s, p, node)?
        }
        "adaptive_avg_pool2d" => {
            let x = shape(0)?;
            if x.len() != 4 {
                return Err(bad_rank(node));
            }
            let o = node.args().get(1).and_then(pair_arg).unwrap_or((1, 1));
            vec![x[0], x[1], o.0, o.1]
        }
        "flatten" => {
            let x = shape(0)?;
            let s = node.args().get(1).and_then(Arg::as_int).unwrap_or(0);
            let e = node.args().get(2).and_then(Arg::as_int).unwrap_or(-1);
            flatten_shape(&x, s, e)?
        }
        "reshape" | "view" => {
            let dims = node
                .args()
                .get(1)
                .and_then(int_list_arg)
                .ok_or_else(|| bad_rank(node))?;
            dims.into_iter().map(|d| d as usize).collect()
        }
        "permute" => {
            let x = shape(0)?;
            let dims = node
                .args()
                .get(1)
                .and_then(int_list_arg)
                .ok_or_else(|| bad_rank(node))?;
            if dims.len() != x.len() {
                return Err(Error::Graph(format!(
                    "infer_shapes: permute at `{}` got {} dims for a rank-{} tensor",
                    node.name(),
                    dims.len(),
                    x.len()
                )));
            }
            dims.into_iter()
                .map(|d| {
                    normalize_axis("permute", d, x.len())
                        .map(|axis| x[axis])
                        .map_err(Error::Tensor)
                })
                .collect::<Result<_>>()?
        }
        "transpose" => {
            let mut x = shape(0)?;
            let d0 = normalize_axis(
                "transpose",
                node.args().get(1).and_then(Arg::as_int).unwrap_or(0),
                x.len(),
            )
            .map_err(Error::Tensor)?;
            let d1 = normalize_axis(
                "transpose",
                node.args().get(2).and_then(Arg::as_int).unwrap_or(1),
                x.len(),
            )
            .map_err(Error::Tensor)?;
            x.swap(d0, d1);
            x
        }
        "cat" => {
            let items = match node.args().first() {
                Some(Arg::List(items)) | Some(Arg::Tuple(items)) => items,
                _ => return Err(bad_rank(node)),
            };
            let dim = node.args().get(1).and_then(Arg::as_int).unwrap_or(0);
            let shapes: Vec<Vec<usize>> = items
                .iter()
                .map(|a| arg_shape(a, env).ok_or_else(|| bad_rank(node)))
                .collect::<Result<_>>()?;
            let first = shapes.first().ok_or_else(|| {
                Error::Graph(format!(
                    "infer_shapes: cat at `{}` has no inputs",
                    node.name()
                ))
            })?;
            if shapes.iter().any(|s| s.len() != first.len()) {
                return Err(Error::Graph(format!(
                    "infer_shapes: cat at `{}` mixes tensors of different rank",
                    node.name()
                )));
            }
            let axis = normalize_axis("cat", dim, first.len()).map_err(Error::Tensor)?;
            let mut out = first.clone();
            out[axis] = shapes.iter().map(|s| s[axis]).sum();
            out
        }
        "sum" | "mean" => {
            let x = shape(0)?;
            match node.args().get(1).and_then(Arg::as_int) {
                None => vec![],
                Some(d) => {
                    let axis = normalize_axis("reduce", d, x.len()).map_err(Error::Tensor)?;
                    let keep = matches!(node.args().get(2), Some(Arg::Bool(true)));
                    let mut out = x.clone();
                    if keep {
                        out[axis] = 1;
                    } else {
                        out.remove(axis);
                    }
                    out
                }
            }
        }
        "embedding" => {
            let w = shape(0)?;
            if w.len() != 2 {
                return Err(bad_rank(node));
            }
            let idx = shape(1)?;
            let mut out = idx;
            out.push(w[1]);
            out
        }
        "squeeze" => {
            let mut x = shape(0)?;
            let d = normalize_axis(
                "squeeze",
                node.args().get(1).and_then(Arg::as_int).unwrap_or(0),
                x.len(),
            )
            .map_err(Error::Tensor)?;
            x.remove(d);
            x
        }
        "unsqueeze" => {
            let mut x = shape(0)?;
            let d = normalize_axis(
                "unsqueeze",
                node.args().get(1).and_then(Arg::as_int).unwrap_or(0),
                x.len() + 1,
            )
            .map_err(Error::Tensor)?;
            x.insert(d, 1);
            x
        }
        // non-tensor or data-dependent results
        "size" | "dim" | "item" | "chunk" | "getitem" | "argmax" => return Ok(AbsVal::Other),
        other => {
            return Err(Error::Graph(format!(
                "infer_shapes: no transfer function for op `{other}` at `{}`",
                node.name()
            )))
        }
    };
    Ok(AbsVal::Tensor(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::symbolic_trace;
    use fx_models::{resnet_tiny, Mlp};
    use fx_tensor::Tensor;
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;

    #[test]
    fn concrete_shape_prop_stamps_metadata() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[4, 8, 2], &mut rng);
        let mut gm = symbolic_trace(&mlp).unwrap();
        let x = Value::Tensor(Tensor::ones(&[3, 4]));
        shape_prop(&mut gm, &[x]).unwrap();
        let fc1 = gm
            .graph()
            .nodes()
            .find(|n| n.target() == "fc1")
            .unwrap();
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

    /// Regression: these transfer functions used to panic (usize
    /// underflow / out-of-bounds indexing) on malformed-but-reachable
    /// inputs. All must now return typed errors.
    #[test]
    fn malformed_shape_inputs_error_instead_of_panicking() {
        // Oversized pool window: 9×9 window on a 4×4 input underflowed.
        let err = pool_module_shape_probe(&[1, 3, 4, 4], (9, 9), (1, 1), (0, 0));
        assert!(err.unwrap_err().to_string().contains("does not fit"));
        // Zero pool stride: division by zero.
        let err = pool_module_shape_probe(&[1, 3, 4, 4], (2, 2), (0, 1), (0, 0));
        assert!(err.is_err());
        // Oversized conv kernel.
        let err = conv_out_shape(&[1, 3, 4, 4], &[8, 3, 7, 7], (1, 1), (0, 0), (1, 1));
        assert!(err.unwrap_err().to_string().contains("does not fit"));
        // Zero conv stride.
        assert!(conv_out_shape(&[1, 3, 8, 8], &[8, 3, 3, 3], (0, 1), (0, 0), (1, 1)).is_err());
        // Dilation blowing up the effective window.
        assert!(conv_out_shape(&[1, 3, 8, 8], &[8, 3, 3, 3], (1, 1), (0, 0), (9, 9)).is_err());
        // flatten of a 0-d shape used to index x[0..=e] out of bounds.
        assert_eq!(flatten_shape(&[], 0, -1).unwrap(), vec![1]);
        // start after end is an error, not an inverted slice panic.
        assert!(flatten_shape(&[2, 3, 4], 2, 0).is_err());
        // Sane case still works.
        assert_eq!(flatten_shape(&[2, 3, 4], 1, -1).unwrap(), vec![2, 12]);
    }

    fn pool_module_shape_probe(
        x: &[usize],
        k: (usize, usize),
        s: (usize, usize),
        p: (usize, usize),
    ) -> Result<Vec<usize>> {
        let mut g = fx_core::Graph::new();
        let ph = g.placeholder("x");
        g.output(Arg::Node(ph));
        let node = g.node(ph).clone();
        pool_module_shape(x, k, s, p, &node)
    }

    #[test]
    fn oversized_pool_in_graph_errors_cleanly() {
        // A full infer_shapes run over a graph whose pool window exceeds
        // the input: errors with the node name, no panic.
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
