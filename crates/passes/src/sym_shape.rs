//! Shape rules — one per operator — and the one graph walk that applies
//! them (paper §5.5, §6.3).
//!
//! Every rule is written over **symbolic dimensions**: an input can be
//! declared `[N, 3, 224, 224]` with `N` a free variable, and every
//! node's output shape comes out as an expression over `N` (ResNet's
//! logits as `[N, 1000]`). [`SymDim`]'s constructors fold constants, so
//! a fully concrete input yields fully concrete shapes: concrete
//! inference ([`infer_shapes`](crate::shape_prop::infer_shapes)) is this
//! same walk over constants, and the admission check
//! ([`batch_polymorphic`](crate::batch_polymorphic)) is this walk with
//! the batch left free. Checks that need numbers (a window fits, a
//! contraction agrees) run wherever the dims involved are constant.
//!
//! A `call_module` node has no rule of its own. What counts as a leaf is
//! only tracer policy (§5.2), and a leaf's `forward` is written through
//! the dispatcher like any other, so tracing the leaf yields its
//! function form; the walk recurses into that. Because the IR has no
//! control flow the walk is a single forward pass — no fixpoint, no
//! widening to "dynamic", the contrast the paper draws in Figure 4.

use fx_core::dispatch::{op_kind, OpKind};
use fx_core::{Arg, Error, Graph, GraphModule, Node, NodeId, Opcode, Result};
use fx_tensor::DType;
use std::collections::HashMap;
use std::fmt;

/// A symbolic dimension: a constant, a variable, or an arithmetic
/// expression over them. Construction simplifies constant subtrees
/// eagerly, so fully-concrete inputs degrade to plain numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymDim {
    /// A known size.
    Const(usize),
    /// A free variable such as the batch size.
    Var(String),
    /// `a + b`.
    Add(Box<SymDim>, Box<SymDim>),
    /// `a - b` (saturating at evaluation).
    Sub(Box<SymDim>, Box<SymDim>),
    /// `a * b`.
    Mul(Box<SymDim>, Box<SymDim>),
    /// `a / b`, floor division.
    FloorDiv(Box<SymDim>, Box<SymDim>),
}

impl SymDim {
    /// A named variable.
    pub fn var(name: &str) -> SymDim {
        SymDim::Var(name.to_string())
    }

    /// Simplifying addition.
    pub fn add(a: SymDim, b: SymDim) -> SymDim {
        match (a, b) {
            (SymDim::Const(x), SymDim::Const(y)) => SymDim::Const(x + y),
            (SymDim::Const(0), other) | (other, SymDim::Const(0)) => other,
            (a, b) => SymDim::Add(Box::new(a), Box::new(b)),
        }
    }

    /// Simplifying subtraction.
    pub fn sub(a: SymDim, b: SymDim) -> SymDim {
        match (a, b) {
            (SymDim::Const(x), SymDim::Const(y)) => SymDim::Const(x.saturating_sub(y)),
            (a, SymDim::Const(0)) => a,
            (a, b) => SymDim::Sub(Box::new(a), Box::new(b)),
        }
    }

    /// Simplifying multiplication.
    pub fn mul(a: SymDim, b: SymDim) -> SymDim {
        match (a, b) {
            (SymDim::Const(x), SymDim::Const(y)) => SymDim::Const(x * y),
            (SymDim::Const(1), other) | (other, SymDim::Const(1)) => other,
            (z @ SymDim::Const(0), _) | (_, z @ SymDim::Const(0)) => z,
            (a, b) => SymDim::Mul(Box::new(a), Box::new(b)),
        }
    }

    /// Simplifying floor division.
    pub fn floor_div(a: SymDim, b: SymDim) -> SymDim {
        match (a, b) {
            (SymDim::Const(x), SymDim::Const(y)) if y != 0 => SymDim::Const(x / y),
            (a, SymDim::Const(1)) => a,
            (a, b) => SymDim::FloorDiv(Box::new(a), Box::new(b)),
        }
    }

    /// The constant value, if fully concrete.
    pub fn as_const(&self) -> Option<usize> {
        match self {
            SymDim::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Evaluate under variable bindings.
    pub fn eval(&self, bindings: &HashMap<String, usize>) -> Result<usize> {
        Ok(match self {
            SymDim::Const(v) => *v,
            SymDim::Var(name) => *bindings.get(name).ok_or_else(|| {
                Error::Graph(format!("symbolic shape: unbound variable `{name}`"))
            })?,
            SymDim::Add(a, b) => a.eval(bindings)? + b.eval(bindings)?,
            SymDim::Sub(a, b) => a.eval(bindings)?.saturating_sub(b.eval(bindings)?),
            SymDim::Mul(a, b) => a.eval(bindings)? * b.eval(bindings)?,
            SymDim::FloorDiv(a, b) => {
                let d = b.eval(bindings)?;
                if d == 0 {
                    return Err(Error::Graph("symbolic shape: division by zero".to_string()));
                }
                a.eval(bindings)? / d
            }
        })
    }
}

impl fmt::Display for SymDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymDim::Const(v) => write!(f, "{v}"),
            SymDim::Var(n) => write!(f, "{n}"),
            SymDim::Add(a, b) => write!(f, "({a} + {b})"),
            SymDim::Sub(a, b) => write!(f, "({a} - {b})"),
            SymDim::Mul(a, b) => write!(f, "({a} * {b})"),
            SymDim::FloorDiv(a, b) => write!(f, "({a} // {b})"),
        }
    }
}

impl From<usize> for SymDim {
    fn from(v: usize) -> SymDim {
        SymDim::Const(v)
    }
}

/// A symbolic tensor shape.
pub type SymShape = Vec<SymDim>;

/// Render a symbolic shape like `[N, 64, (H // 2), (W // 2)]`.
pub fn display_sym_shape(shape: &SymShape) -> String {
    format!(
        "[{}]",
        shape
            .iter()
            .map(SymDim::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// What the walk knows about a tensor-valued node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TensorType {
    pub(crate) shape: SymShape,
    pub(crate) dtype: DType,
}

impl TensorType {
    /// A tensor of known extents.
    pub(crate) fn concrete(shape: &[usize], dtype: DType) -> TensorType {
        TensorType {
            shape: shape.iter().map(|&d| SymDim::Const(d)).collect(),
            dtype,
        }
    }

    /// The extents, if every one is a constant.
    pub(crate) fn as_concrete(&self) -> Option<Vec<usize>> {
        self.shape.iter().map(SymDim::as_const).collect()
    }

    fn with_shape(&self, shape: SymShape) -> Option<TensorType> {
        Some(TensorType {
            shape,
            dtype: self.dtype,
        })
    }
}

/// The type of every tensor-valued node, by id.
pub(crate) type Types = HashMap<NodeId, TensorType>;

fn err_at(node: &Node, why: impl fmt::Display) -> Error {
    Error::Graph(format!(
        "shape inference: node `{}` ({}): {why}",
        node.name(),
        node.target()
    ))
}

/// Propagate symbolic input shapes through the graph. Returns the
/// symbolic shape of every tensor-producing node by name.
pub fn infer_sym_shapes(
    gm: &GraphModule,
    input_shapes: &[SymShape],
) -> Result<HashMap<String, SymShape>> {
    let inputs: Vec<TensorType> = input_shapes
        .iter()
        .map(|s| TensorType {
            shape: s.clone(),
            dtype: DType::F32,
        })
        .collect();
    let types = infer_types(gm, &inputs)?;
    Ok(gm
        .graph()
        .nodes()
        .filter_map(|n| Some((n.name().to_string(), types.get(&n.id())?.shape.clone())))
        .collect())
}

/// The one forward walk: given the placeholders' types, the type of
/// every tensor-valued node.
pub(crate) fn infer_types(gm: &GraphModule, inputs: &[TensorType]) -> Result<Types> {
    let mut types = Types::new();
    let mut inputs = inputs.iter();
    for node in gm.graph().nodes() {
        let ty = match node.op() {
            Opcode::Placeholder => Some(
                inputs
                    .next()
                    .cloned()
                    .ok_or_else(|| err_at(node, "missing input shape for this placeholder"))?,
            ),
            Opcode::GetAttr => gm
                .get_attr_tensor(node.target())
                .map(|t| TensorType::concrete(t.shape(), t.dtype())),
            Opcode::Output => node
                .args()
                .first()
                .and_then(Arg::as_node)
                .and_then(|id| types.get(&id).cloned()),
            Opcode::CallModule => {
                let leaf = crate::leaf_function_form(gm, node)?;
                let args: Vec<TensorType> = (0..node.args().len())
                    .map(|i| tensor_arg(node, i, &types).cloned())
                    .collect::<Result<_>>()?;
                let inner = infer_types(&leaf, &args)
                    .map_err(|e| err_at(node, format_args!("inside the leaf: {e}")))?;
                leaf.graph()
                    .output_node()
                    .and_then(|out| inner.get(&out.id()).cloned())
            }
            Opcode::CallFunction | Opcode::CallMethod => shape_rule(gm.graph(), node, &types)?,
        };
        if let Some(ty) = ty {
            types.insert(node.id(), ty);
        }
    }
    Ok(types)
}

fn operand<'a>(node: &Node, i: usize, types: &'a Types) -> Option<&'a TensorType> {
    let id = node.args().get(i)?.as_node()?;
    types.get(&id)
}

fn tensor_arg<'a>(node: &Node, i: usize, types: &'a Types) -> Result<&'a TensorType> {
    operand(node, i, types)
        .ok_or_else(|| err_at(node, format_args!("needs a tensor shape at argument {i}")))
}

/// An `(h, w)` immediate at argument `i` — an int or a 2-sequence of
/// non-negative ints — or `default` when the argument is absent.
fn pair_arg(node: &Node, i: usize, default: (usize, usize)) -> Result<(usize, usize)> {
    let dim = |a: &Arg| a.as_int().and_then(|v| usize::try_from(v).ok());
    let parsed = match node.args().get(i) {
        None | Some(Arg::None) => return Ok(default),
        Some(Arg::Tuple(items) | Arg::List(items)) if items.len() == 2 => {
            dim(&items[0]).zip(dim(&items[1]))
        }
        Some(a) => dim(a).map(|v| (v, v)),
    };
    parsed.ok_or_else(|| {
        err_at(
            node,
            format_args!("argument {i} must be a non-negative int or pair"),
        )
    })
}

fn int_list_arg(node: &Node, i: usize) -> Result<Vec<i64>> {
    match node.args().get(i) {
        Some(Arg::Tuple(items) | Arg::List(items)) => items.iter().map(Arg::as_int).collect(),
        _ => None,
    }
    .ok_or_else(|| err_at(node, format_args!("argument {i} must be a list of ints")))
}

/// `dim` as an index into a rank-`rank` shape, negative counting from
/// the back.
fn axis(node: &Node, dim: i64, rank: usize) -> Result<usize> {
    let wrapped = if dim < 0 { dim + rank as i64 } else { dim };
    usize::try_from(wrapped)
        .ok()
        .filter(|&a| a < rank)
        .ok_or_else(|| {
            err_at(
                node,
                format_args!("dim {dim} is out of range for rank {rank}"),
            )
        })
}

/// Numpy-style broadcast: aligned from the back, equal dims or a 1 on
/// either side. Two different symbolic dims are not provably compatible.
fn broadcast(node: &Node, a: &SymShape, b: &SymShape) -> Result<SymShape> {
    let rank = a.len().max(b.len());
    let one = SymDim::Const(1);
    let from_back = |s: &SymShape, i: usize| (i + s.len()).checked_sub(rank).map(|j| s[j].clone());
    (0..rank)
        .map(|i| {
            let da = from_back(a, i).unwrap_or(one.clone());
            let db = from_back(b, i).unwrap_or(one.clone());
            if da == db || db == one {
                Ok(da)
            } else if da == one {
                Ok(db)
            } else {
                Err(err_at(
                    node,
                    format_args!(
                        "operands {} and {} do not broadcast",
                        display_sym_shape(a),
                        display_sym_shape(b)
                    ),
                ))
            }
        })
        .collect()
}

/// Two dims an op contracts over: an error when both are constant and
/// differ.
fn contract(node: &Node, a: &SymDim, b: &SymDim, what: &str) -> Result<()> {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) if x != y => Err(err_at(node, format_args!("{what} ({x} vs {y})"))),
        _ => Ok(()),
    }
}

/// `[n, c, h, w]` through a sliding window of `kernel`:
/// `(extent + 2·pad − dilation·(k − 1) − 1) / stride + 1` per spatial
/// axis, over `channels` output channels (the input's when `None`).
/// Checked arithmetic throughout, so a zero kernel or stride, or a
/// window wider than a constant padded extent, is an error rather than
/// an underflow.
fn windowed(
    node: &Node,
    x: &TensorType,
    channels: Option<&SymDim>,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    dilation: (usize, usize),
) -> Result<Option<TensorType>> {
    let [n, c, h, w] = x.shape.as_slice() else {
        return Err(err_at(node, "input must be 4-d"));
    };
    let extent = |input: &SymDim, k: usize, s: usize, p: usize, d: usize| -> Option<SymDim> {
        let span = k.checked_sub(1)?.checked_mul(d)?.checked_add(1)?;
        let padded = SymDim::add(input.clone(), SymDim::Const(p.checked_mul(2)?));
        if s == 0 || padded.as_const().is_some_and(|v| v < span) {
            return None;
        }
        let steps = SymDim::floor_div(SymDim::sub(padded, SymDim::Const(span)), SymDim::Const(s));
        Some(SymDim::add(steps, SymDim::Const(1)))
    };
    match (
        extent(h, kernel.0, stride.0, padding.0, dilation.0),
        extent(w, kernel.1, stride.1, padding.1, dilation.1),
    ) {
        (Some(oh), Some(ow)) => {
            Ok(x.with_shape(vec![n.clone(), channels.unwrap_or(c).clone(), oh, ow]))
        }
        _ => Err(err_at(
            node,
            format_args!(
                "window {kernel:?} (stride {stride:?}, padding {padding:?}, dilation \
                 {dilation:?}) does not fit input {h}×{w}"
            ),
        )),
    }
}

/// The shape rule of every operator, keyed by the [`OpKind`] of its row
/// in the one operator table: functions and methods of one name share
/// the row, and ops of one kind share a rule. `None` is an untyped
/// result.
fn shape_rule(graph: &Graph, node: &Node, types: &Types) -> Result<Option<TensorType>> {
    let args = node.args();
    let tensor = |i: usize| tensor_arg(node, i, types);
    let int = |i: usize, default: i64| args.get(i).and_then(Arg::as_int).unwrap_or(default);
    let target = node.target();
    let Some(kind) = op_kind(target) else {
        return Err(err_at(node, format_args!("no shape rule for op `{target}`")));
    };
    Ok(match kind {
        OpKind::Same => Some(tensor(0)?.clone()),
        OpKind::Cast(dtype) => Some(TensorType { dtype, ..tensor(0)?.clone() }),
        OpKind::Broadcast => {
            // A scalar immediate (or non-tensor operand) broadcasts as [].
            match (operand(node, 0, types), operand(node, 1, types)) {
                (Some(a), Some(b)) => a.with_shape(broadcast(node, &a.shape, &b.shape)?),
                (Some(t), None) | (None, Some(t)) => Some(t.clone()),
                (None, None) => None,
            }
        }
        OpKind::Linear => {
            let (x, w) = (tensor(0)?, tensor(1)?);
            let mut shape = x.shape.clone();
            let (Some(features), Some(out)) = (shape.last_mut(), w.shape.first()) else {
                return Err(err_at(node, "input and weight need at least one dim"));
            };
            // The float path stores weights [out, in]; reject a
            // contraction mismatch here so admission (serve
            // registration/swap) catches it before runtime. The
            // quantized variants keep packed layouts — skip them.
            if !target.starts_with("quantized::") {
                let in_features = w
                    .shape
                    .get(1)
                    .ok_or_else(|| err_at(node, "weight must be 2-d"))?;
                let what = "input last dim does not match weight in-features";
                contract(node, features, in_features, what)?;
            }
            *features = out.clone();
            x.with_shape(shape)
        }
        OpKind::Matmul => {
            let (ta, tb) = (tensor(0)?, tensor(1)?);
            let (a, b) = (&ta.shape, &tb.shape);
            let (inner_a, inner_b, shape) = match (a.as_slice(), b.as_slice()) {
                ([m, k], [k2, n]) => (k, k2, vec![m.clone(), n.clone()]),
                ([batch, m, k], [_, k2, n]) => (k, k2, vec![batch.clone(), m.clone(), n.clone()]),
                ([k], [k2]) => (k, k2, vec![]),
                ([k], [k2, n]) => (k, k2, vec![n.clone()]),
                ([m, k], [k2]) => (k, k2, vec![m.clone()]),
                _ => return Err(err_at(node, "operand ranks must be 1–2, or 3 and 3")),
            };
            contract(node, inner_a, inner_b, "inner dims disagree")?;
            ta.with_shape(shape)
        }
        OpKind::Conv => {
            let (x, w) = (tensor(0)?, tensor(1)?);
            let kernel = match w.as_concrete().as_deref() {
                Some(&[_, _, kh, kw]) => (kh, kw),
                _ => return Err(err_at(node, "weight must be 4-d with constant extents")),
            };
            // Quantized convs carry (scale, zero_point) where the float
            // op has (dilation, groups): their dilation is fixed at 1.
            let dilation = if target.starts_with("quantized::") {
                (1, 1)
            } else {
                pair_arg(node, 5, (1, 1))?
            };
            let (stride, padding) = (pair_arg(node, 3, (1, 1))?, pair_arg(node, 4, (0, 0))?);
            windowed(
                node,
                x,
                Some(&w.shape[0]),
                kernel,
                stride,
                padding,
                dilation,
            )?
        }
        OpKind::Pool => {
            let kernel = pair_arg(node, 1, (1, 1))?;
            let (stride, padding) = (pair_arg(node, 2, kernel)?, pair_arg(node, 3, (0, 0))?);
            windowed(node, tensor(0)?, None, kernel, stride, padding, (1, 1))?
        }
        OpKind::AdaptivePool => {
            let x = tensor(0)?;
            let [n, c, _, _] = x.shape.as_slice() else {
                return Err(err_at(node, "input must be 4-d"));
            };
            let (oh, ow) = pair_arg(node, 1, (1, 1))?;
            x.with_shape(vec![
                n.clone(),
                c.clone(),
                SymDim::Const(oh),
                SymDim::Const(ow),
            ])
        }
        OpKind::Flatten => {
            let x = tensor(0)?;
            if x.shape.is_empty() {
                // Flattening a 0-d tensor yields a 1-element vector
                // (PyTorch semantics).
                return Ok(x.with_shape(vec![SymDim::Const(1)]));
            }
            let rank = x.shape.len();
            let (start, end) = (axis(node, int(1, 0), rank)?, axis(node, int(2, -1), rank)?);
            if start > end {
                return Err(err_at(node, "start_dim is after end_dim"));
            }
            let mut shape = x.shape[..start].to_vec();
            shape.push(
                x.shape[start..=end]
                    .iter()
                    .cloned()
                    .fold(SymDim::Const(1), SymDim::mul),
            );
            shape.extend_from_slice(&x.shape[end + 1..]);
            x.with_shape(shape)
        }
        OpKind::Reshape => {
            let x = tensor(0)?;
            let dims = int_list_arg(node, 1)?;
            // The runtime kernel takes the extents literally: no `-1`.
            let extents: Vec<usize> = dims
                .iter()
                .map(|&d| usize::try_from(d))
                .collect::<std::result::Result<_, _>>()
                .map_err(|_| err_at(node, format_args!("negative extent in {dims:?}")))?;
            let count = |dims: &[usize]| dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            if let Some(have) = x.as_concrete().and_then(|shape| count(&shape)) {
                if count(&extents) != Some(have) {
                    let why = format_args!("cannot view {have} elements as {dims:?}");
                    return Err(err_at(node, why));
                }
            }
            Some(TensorType::concrete(&extents, x.dtype))
        }
        OpKind::Permute => {
            let x = tensor(0)?;
            let dims = int_list_arg(node, 1)?;
            if dims.len() != x.shape.len() {
                return Err(err_at(
                    node,
                    format_args!("{} dims for a rank-{} tensor", dims.len(), x.shape.len()),
                ));
            }
            let shape = dims
                .iter()
                .map(|&d| Ok(x.shape[axis(node, d, dims.len())?].clone()))
                .collect::<Result<_>>()?;
            x.with_shape(shape)
        }
        OpKind::Transpose => {
            let x = tensor(0)?;
            let rank = x.shape.len();
            let mut shape = x.shape.clone();
            shape.swap(axis(node, int(1, 0), rank)?, axis(node, int(2, 1), rank)?);
            x.with_shape(shape)
        }
        OpKind::Cat => {
            let Some(Arg::List(items) | Arg::Tuple(items)) = args.first() else {
                return Err(err_at(node, "needs a list of tensors"));
            };
            let parts: Vec<&TensorType> = items
                .iter()
                .map(|a| a.as_node().and_then(|id| types.get(&id)))
                .collect::<Option<_>>()
                .ok_or_else(|| err_at(node, "every input must be a tensor"))?;
            let first = *parts.first().ok_or_else(|| err_at(node, "has no inputs"))?;
            if parts.iter().any(|p| p.shape.len() != first.shape.len()) {
                return Err(err_at(node, "mixes tensors of different rank"));
            }
            let along = axis(node, int(1, 0), first.shape.len())?;
            let mut shape = first.shape.clone();
            shape[along] = parts
                .iter()
                .map(|p| p.shape[along].clone())
                .fold(SymDim::Const(0), SymDim::add);
            first.with_shape(shape)
        }
        OpKind::Reduce => {
            let x = tensor(0)?;
            let mut shape = x.shape.clone();
            match args.get(1).and_then(Arg::as_int) {
                None => shape.clear(),
                Some(d) => {
                    let along = axis(node, d, shape.len())?;
                    if matches!(args.get(2), Some(Arg::Bool(true))) {
                        shape[along] = SymDim::Const(1);
                    } else {
                        shape.remove(along);
                    }
                }
            }
            x.with_shape(shape)
        }
        OpKind::Embedding => {
            let (w, indices) = (tensor(0)?, tensor(1)?);
            let [_, width] = w.shape.as_slice() else {
                return Err(err_at(node, "weight must be 2-d"));
            };
            let mut shape = indices.shape.clone();
            shape.push(width.clone());
            w.with_shape(shape)
        }
        OpKind::Squeeze => {
            let x = tensor(0)?;
            let mut shape = x.shape.clone();
            let along = axis(node, int(1, 0), shape.len())?;
            if shape.remove(along) != SymDim::Const(1) {
                return Err(err_at(node, format_args!("dim {along} is not of extent 1")));
            }
            x.with_shape(shape)
        }
        OpKind::Unsqueeze => {
            let x = tensor(0)?;
            let mut shape = x.shape.clone();
            let at = axis(node, int(1, 0), shape.len() + 1)?;
            shape.insert(at, SymDim::Const(1));
            x.with_shape(shape)
        }
        OpKind::NonTensor => None,
        // An unread value needs no type: an op without a relation is
        // admitted on a dead branch, and only there, so its value never
        // reaches another rule (nor `Broadcast`'s scalar arm).
        OpKind::Opaque if graph.users(node.id()).is_empty() => None,
        OpKind::Opaque => {
            let why = "is `OpKind::Opaque` and its value is used: register the op with its kind";
            return Err(err_at(node, why));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape_prop::infer_shapes;
    use fx_core::symbolic_trace;
    use fx_models::{resnet_tiny, Mlp};
    use fx_tensor::rng::SeedableRng;
    use fx_tensor::rng::StdRng;

    #[test]
    fn sym_dim_algebra_simplifies_constants() {
        let d = SymDim::add(SymDim::Const(2), SymDim::Const(3));
        assert_eq!(d, SymDim::Const(5));
        let d = SymDim::mul(SymDim::var("N"), SymDim::Const(1));
        assert_eq!(d, SymDim::var("N"));
        let d = SymDim::mul(SymDim::var("N"), SymDim::Const(0));
        assert_eq!(d, SymDim::Const(0));
        let d = SymDim::floor_div(SymDim::Const(7), SymDim::Const(2));
        assert_eq!(d, SymDim::Const(3));
    }

    #[test]
    fn sym_dim_eval_and_display() {
        let d = SymDim::add(
            SymDim::mul(SymDim::var("N"), SymDim::Const(2)),
            SymDim::Const(1),
        );
        assert_eq!(d.to_string(), "((N * 2) + 1)");
        let mut b = HashMap::new();
        b.insert("N".to_string(), 5);
        assert_eq!(d.eval(&b).unwrap(), 11);
        assert!(SymDim::var("M").eval(&b).is_err());
    }

    #[test]
    fn resnet_batch_stays_symbolic_end_to_end() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = resnet_tiny(&mut rng);
        let gm = symbolic_trace(&model).unwrap();
        let input: SymShape = vec![
            SymDim::var("N"),
            SymDim::Const(3),
            SymDim::Const(32),
            SymDim::Const(32),
        ];
        let shapes = infer_sym_shapes(&gm, &[input]).unwrap();
        // The classifier output is [N, 10] with N still free.
        let fc = &shapes["fc"];
        assert_eq!(fc.len(), 2);
        assert_eq!(fc[0], SymDim::var("N"));
        assert_eq!(fc[1], SymDim::Const(10));
        // Spatial dims resolved to constants along the way.
        let conv1 = &shapes["conv1"];
        assert_eq!(conv1[2], SymDim::Const(16));
    }

    #[test]
    fn symbolic_agrees_with_concrete_when_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = resnet_tiny(&mut rng);
        let gm = symbolic_trace(&model).unwrap();
        let input: SymShape = vec![
            SymDim::var("N"),
            SymDim::Const(3),
            SymDim::Const(32),
            SymDim::Const(32),
        ];
        let sym = infer_sym_shapes(&gm, &[input]).unwrap();
        let mut gm2 = gm.clone();
        let concrete = infer_shapes(&mut gm2, &[vec![4, 3, 32, 32]]).unwrap();
        let mut bindings = HashMap::new();
        bindings.insert("N".to_string(), 4usize);
        for (name, cshape) in &concrete {
            let Some(sshape) = sym.get(name) else {
                continue;
            };
            let evaled: Vec<usize> = sshape.iter().map(|d| d.eval(&bindings).unwrap()).collect();
            assert_eq!(&evaled, cshape, "disagreement at `{name}`");
        }
    }

    #[test]
    fn mlp_with_symbolic_batch_and_display() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(&[8, 16, 4], &mut rng);
        let gm = symbolic_trace(&mlp).unwrap();
        let shapes =
            infer_sym_shapes(&gm, &[vec![SymDim::var("batch"), SymDim::Const(8)]]).unwrap();
        assert_eq!(display_sym_shape(&shapes["fc1"]), "[batch, 4]");
    }

    /// A graph of one call of `target` over placeholders `x0, x1, …`
    /// followed by `immediates`.
    fn single_op(target: &str, n_inputs: usize, immediates: Vec<Arg>) -> GraphModule {
        let mut g = fx_core::Graph::new();
        let names: Vec<String> = (0..n_inputs).map(|i| format!("x{i}")).collect();
        let mut args: Vec<Arg> = names.iter().map(|n| Arg::Node(g.placeholder(n))).collect();
        args.extend(immediates);
        let call = g.call_function(target, args, vec![]);
        g.output(Arg::Node(call));
        GraphModule::new(g, Default::default(), Default::default(), names).unwrap()
    }

    /// The output shape by both public entries: `infer_shapes` at
    /// `shapes`, and `infer_sym_shapes` with the first input's leading
    /// extent freed to `N`.
    fn both(gm: &GraphModule, shapes: &[&[usize]]) -> [Result<String>; 2] {
        let concrete: Vec<Vec<usize>> = shapes.iter().map(|s| s.to_vec()).collect();
        let mut symbolic: Vec<SymShape> = shapes
            .iter()
            .map(|s| TensorType::concrete(s, DType::F32).shape)
            .collect();
        if let Some(lead) = symbolic[0].first_mut() {
            *lead = SymDim::var("N");
        }
        [
            infer_shapes(&mut gm.clone(), &concrete).map(|s| format!("{:?}", s["output"])),
            infer_sym_shapes(gm, &symbolic).map(|s| display_sym_shape(&s["output"])),
        ]
    }

    fn pair(a: i64, b: i64) -> Arg {
        Arg::Tuple(vec![Arg::Int(a), Arg::Int(b)])
    }

    /// Regression: the shape rules used to panic (usize underflow,
    /// out-of-bounds indexing) on malformed-but-reachable inputs, and
    /// the symbolic copy silently saturated a non-fitting window to an
    /// extent of 1. Both entries must return typed errors.
    #[test]
    fn malformed_shape_inputs_error_instead_of_panicking() {
        let pool = |k, s| single_op("max_pool2d", 1, vec![k, s, pair(0, 0)]);
        let conv = |stride, dilation| {
            let geometry = vec![Arg::None, stride, pair(0, 0), dilation, Arg::Int(1)];
            single_op("conv2d", 2, geometry)
        };
        let misfits: [(&str, GraphModule, Vec<&[usize]>); 7] = [
            (
                "oversized pool window",
                pool(pair(9, 9), pair(1, 1)),
                vec![&[1, 3, 4, 4]],
            ),
            (
                "zero pool stride",
                pool(pair(2, 2), pair(0, 1)),
                vec![&[1, 3, 4, 4]],
            ),
            (
                "oversized conv kernel",
                conv(pair(1, 1), pair(1, 1)),
                vec![&[1, 3, 4, 4], &[8, 3, 7, 7]],
            ),
            (
                "zero conv stride",
                conv(pair(0, 1), pair(1, 1)),
                vec![&[1, 3, 8, 8], &[8, 3, 3, 3]],
            ),
            (
                "dilation blowing up the window",
                conv(pair(1, 1), pair(9, 9)),
                vec![&[1, 3, 8, 8], &[8, 3, 3, 3]],
            ),
            (
                "kernel size 0",
                conv(pair(1, 1), pair(1, 1)),
                vec![&[1, 3, 8, 8], &[8, 3, 0, 0]],
            ),
            (
                "kernel size 0 pool",
                pool(pair(0, 0), pair(1, 1)),
                vec![&[1, 3, 4, 4]],
            ),
        ];
        for (what, gm, shapes) in misfits {
            for result in both(&gm, &shapes) {
                let err = result.expect_err(what).to_string();
                assert!(err.contains("does not fit"), "{what}: {err}");
            }
        }
        // flatten of a 0-d shape used to index x[0..=e] out of bounds.
        let flatten = |s, e| single_op("flatten", 1, vec![Arg::Int(s), Arg::Int(e)]);
        assert_eq!(both(&flatten(0, -1), &[&[]])[0].as_deref().unwrap(), "[1]");
        // start after end is an error, not an inverted slice panic.
        assert!(both(&flatten(2, 0), &[&[2, 3, 4]])
            .iter()
            .all(|r| r.is_err()));
        // Sane cases still work, with the batch staying symbolic.
        let [c, s] = both(&flatten(1, -1), &[&[2, 3, 4]]);
        assert_eq!(
            (c.unwrap(), s.unwrap()),
            ("[2, 12]".to_string(), "[N, 12]".to_string())
        );
        let [c, s] = both(
            &conv(pair(2, 2), pair(1, 1)),
            &[&[1, 3, 8, 8], &[8, 3, 3, 3]],
        );
        assert_eq!(
            (c.unwrap(), s.unwrap()),
            ("[1, 8, 3, 3]".to_string(), "[N, 8, 3, 3]".to_string())
        );
        // A reduction over a 0-d tensor has no axis to index.
        assert!(both(&single_op("sum", 1, vec![Arg::Int(0)]), &[&[]])[0].is_err());
    }

    /// Regression: `reshape(x, [-1, 6])` used to come out as
    /// `[usize::MAX, 6]` (`d as usize`) and feed the memory planner, and
    /// a reshape that changes the element count was accepted.
    #[test]
    fn reshape_rejects_negative_extents_and_element_count_changes() {
        let reshape = |dims: &[i64]| {
            let dims = Arg::List(dims.iter().map(|&d| Arg::Int(d)).collect());
            single_op("reshape", 1, vec![dims])
        };
        for result in both(&reshape(&[-1, 6]), &[&[4, 6]]) {
            let err = result.unwrap_err();
            assert!(matches!(err, Error::Graph(_)), "{err:?}");
            let err = err.to_string();
            assert!(
                err.contains("`reshape`") && err.contains("negative extent"),
                "{err}"
            );
        }
        let [concrete, symbolic] = both(&reshape(&[5, 5]), &[&[4, 6]]);
        let err = concrete.unwrap_err().to_string();
        assert!(err.contains("cannot view 24 elements as [5, 5]"), "{err}");
        // With the batch free the element count is not a number to check.
        assert_eq!(symbolic.unwrap(), "[5, 5]");
        assert_eq!(
            both(&reshape(&[3, 8]), &[&[4, 6]])[0].as_deref().unwrap(),
            "[3, 8]"
        );
    }

    #[test]
    fn unsupported_op_is_a_clear_error() {
        let gm = single_op("mystery", 1, vec![]);
        for result in both(&gm, &[&[2, 3]]) {
            let err = result.unwrap_err().to_string();
            assert!(err.contains("no shape rule for op `mystery`"), "{err}");
        }
    }

    /// A leaf whose forward needs concrete data has no function form:
    /// every analysis says so, by module type.
    #[test]
    fn untraceable_leaf_is_a_typed_error_naming_its_type() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = fx_core::Graph::new();
        let x = g.placeholder("x");
        let rnn = g.call_module("rnn", vec![Arg::Node(x)], vec![]);
        g.output(Arg::Node(rnn));
        let lstm: fx_core::ArcModule = std::sync::Arc::new(fx_models::Lstm::new(4, 6, &mut rng));
        let modules = [("rnn".to_string(), lstm)].into_iter().collect();
        let mut gm =
            GraphModule::new(g, modules, Default::default(), vec!["x".to_string()]).unwrap();
        for result in both(&gm, &[&[2, 5, 4]]) {
            let err = result.unwrap_err().to_string();
            assert!(err.contains("module type `Lstm` at `rnn`"), "{err}");
        }
        let x = fx_core::Value::Tensor(fx_tensor::Tensor::ones(&[2, 5, 4]));
        crate::shape_prop(&mut gm, &[x]).unwrap();
        let err = crate::estimate(&gm, &crate::DeviceSpec::v100()).unwrap_err();
        assert!(err.to_string().contains("module type `Lstm`"), "{err}");
        let rnn = gm.graph().find_by_name("rnn").unwrap();
        assert_eq!(crate::node_cost(&gm, rnn), (0, 0, false));
    }

    /// Every built-in op has a row in the one table whose kind has a
    /// rule: none is `Opaque`, and a kind's rule asks for operands (or,
    /// operand-free, types nothing) rather than reporting a missing
    /// rule. The scalar unaries the in-place path runs preserve type.
    #[test]
    fn every_registered_op_has_a_shape_rule() {
        let names = fx_core::dispatch::builtin_op_names();
        assert!(names.len() >= 63, "registry shrank to {}", names.len());
        for name in names {
            let kind = op_kind(&name).expect("a built-in name has a row");
            assert_ne!(kind, OpKind::Opaque, "`{name}` has no relation");
            if fx_tensor::ops::unary_scalar(&name).is_some() {
                assert_eq!(kind, OpKind::Same, "scalar unary `{name}`");
            }
            let mut g = fx_core::Graph::new();
            let call = g.call_function(&name, vec![], vec![]);
            if let Err(e) = shape_rule(&g, g.node(call), &Types::new()) {
                assert!(!e.to_string().contains("no shape rule"), "{e}");
            }
        }
    }
}
