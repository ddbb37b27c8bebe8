//! The built-in operator table: one row per name, holding the eager
//! kernel that bridges the dispatcher to `fx-tensor` and the
//! [`OpKind`] — the shape relation — its output obeys. These names are
//! the public operator vocabulary of the IR: the codegen prints them,
//! the backend recognizes them for fusion, and every analysis reads an
//! op's kind from its row (`dispatch::op_kind`) instead of keeping a
//! list of names. Adding an op is one kernel and one row; a new
//! `fx-passes` shape and cost rule is needed only for a new kind.

use crate::dispatch::{to_tensor, Inputs, OpFn, OpKind};
use crate::error::{Error, Result};
use crate::value::Value;
use fx_tensor::{ops, quant, DType, Tensor};
use std::collections::HashMap;

fn t(x: Tensor) -> Result<Value> {
    Ok(Value::Tensor(x))
}

macro_rules! unary_fn {
    ($name:ident, $kernel:path) => {
        fn $name(i: &Inputs<'_>) -> Result<Value> {
            t($kernel(i.tensor(0)?)?)
        }
    };
}

unary_fn!(op_relu, ops::relu);
unary_fn!(op_gelu, ops::gelu);
unary_fn!(op_selu, ops::selu);
unary_fn!(op_sigmoid, ops::sigmoid);
unary_fn!(op_tanh, ops::tanh);
unary_fn!(op_neg, ops::neg);
unary_fn!(op_exp, ops::exp);
unary_fn!(op_log, ops::log);
unary_fn!(op_sqrt, ops::sqrt);
unary_fn!(op_rsqrt, ops::rsqrt);
unary_fn!(op_abs, ops::abs);

macro_rules! binary_fn {
    ($name:ident, $kernel:path) => {
        fn $name(i: &Inputs<'_>) -> Result<Value> {
            let a = to_tensor(i.op, i.value(0)?)?;
            let b = to_tensor(i.op, i.value(1)?)?;
            t($kernel(&a, &b)?)
        }
    };
}

binary_fn!(op_add, ops::add);
binary_fn!(op_sub, ops::sub);
binary_fn!(op_mul, ops::mul);
binary_fn!(op_div, ops::div);
binary_fn!(op_maximum, ops::maximum);
binary_fn!(op_minimum, ops::minimum);

fn op_clamp(i: &Inputs<'_>) -> Result<Value> {
    t(ops::clamp(
        i.tensor(0)?,
        i.float(1)? as f32,
        i.float(2)? as f32,
    )?)
}

fn op_hardtanh(i: &Inputs<'_>) -> Result<Value> {
    t(ops::hardtanh(
        i.tensor(0)?,
        i.float_or(1, -1.0)? as f32,
        i.float_or(2, 1.0)? as f32,
    )?)
}

fn op_leaky_relu(i: &Inputs<'_>) -> Result<Value> {
    t(ops::leaky_relu(i.tensor(0)?, i.float_or(1, 0.01)? as f32)?)
}

fn op_matmul(i: &Inputs<'_>) -> Result<Value> {
    t(ops::matmul(i.tensor(0)?, i.tensor(1)?)?)
}

fn op_batch_norm(i: &Inputs<'_>) -> Result<Value> {
    t(ops::batch_norm(
        i.tensor(0)?,
        i.tensor(1)?,
        i.tensor(2)?,
        i.tensor(3)?,
        i.tensor(4)?,
        i.float_or(5, 1e-5)? as f32,
    )?)
}

fn op_layer_norm(i: &Inputs<'_>) -> Result<Value> {
    t(ops::layer_norm(
        i.tensor(0)?,
        i.int(1)? as usize,
        i.tensor(2)?,
        i.tensor(3)?,
        i.float_or(4, 1e-5)? as f32,
    )?)
}

fn op_max_pool2d(i: &Inputs<'_>) -> Result<Value> {
    t(ops::max_pool2d(
        i.tensor(0)?,
        i.usize_pair(1)?,
        i.usize_pair(2)?,
        i.usize_pair(3)?,
    )?)
}

fn op_avg_pool2d(i: &Inputs<'_>) -> Result<Value> {
    t(ops::avg_pool2d(
        i.tensor(0)?,
        i.usize_pair(1)?,
        i.usize_pair(2)?,
        i.usize_pair(3)?,
    )?)
}

fn op_adaptive_avg_pool2d(i: &Inputs<'_>) -> Result<Value> {
    t(ops::adaptive_avg_pool2d(i.tensor(0)?, i.usize_pair(1)?)?)
}

fn op_softmax(i: &Inputs<'_>) -> Result<Value> {
    t(ops::softmax(i.tensor(0)?, i.int_or(1, -1)?)?)
}

fn op_log_softmax(i: &Inputs<'_>) -> Result<Value> {
    t(ops::log_softmax(i.tensor(0)?, i.int_or(1, -1)?)?)
}

fn op_flatten(i: &Inputs<'_>) -> Result<Value> {
    t(ops::flatten(
        i.tensor(0)?,
        i.int_or(1, 0)?,
        i.int_or(2, -1)?,
    )?)
}

fn op_reshape(i: &Inputs<'_>) -> Result<Value> {
    let dims: Vec<usize> = i
        .int_list(1)?
        .into_iter()
        .map(|d| d as usize)
        .collect();
    Ok(Value::Tensor(i.tensor(0)?.reshape(&dims)?))
}

fn op_permute(i: &Inputs<'_>) -> Result<Value> {
    let dims: Vec<usize> = i.int_list(1)?.into_iter().map(|d| d as usize).collect();
    t(ops::permute(i.tensor(0)?, &dims)?)
}

fn op_transpose(i: &Inputs<'_>) -> Result<Value> {
    t(ops::transpose(i.tensor(0)?, i.int(1)?, i.int(2)?)?)
}

fn op_cat(i: &Inputs<'_>) -> Result<Value> {
    let list = match i.value(0)? {
        Value::List(items) | Value::Tuple(items) => items,
        other => {
            return Err(Error::BadArg {
                op: "cat".to_string(),
                expected: "a list of tensors".to_string(),
                got: other.kind_name().to_string(),
            })
        }
    };
    let tensors: Vec<&Tensor> = list
        .iter()
        .map(Value::as_tensor)
        .collect::<Result<Vec<_>>>()?;
    t(ops::cat(&tensors, i.int_or(1, 0)?)?)
}

fn op_chunk(i: &Inputs<'_>) -> Result<Value> {
    let parts = ops::chunk(i.tensor(0)?, i.int(1)? as usize, i.int_or(2, 0)?)?;
    Ok(Value::Tuple(parts.into_iter().map(Value::Tensor).collect()))
}

fn op_getitem(i: &Inputs<'_>) -> Result<Value> {
    let idx = i.int(1)? as usize;
    match i.value(0)? {
        Value::List(items) | Value::Tuple(items) => {
            items.get(idx).cloned().ok_or_else(|| Error::BadArg {
                op: "getitem".to_string(),
                expected: format!("index < {}", items.len()),
                got: idx.to_string(),
            })
        }
        other => Err(Error::BadArg {
            op: "getitem".to_string(),
            expected: "a list or tuple".to_string(),
            got: other.kind_name().to_string(),
        }),
    }
}

fn op_squeeze(i: &Inputs<'_>) -> Result<Value> {
    t(ops::squeeze(i.tensor(0)?, i.int(1)?)?)
}

fn op_unsqueeze(i: &Inputs<'_>) -> Result<Value> {
    t(ops::unsqueeze(i.tensor(0)?, i.int(1)?)?)
}

fn op_sum(i: &Inputs<'_>) -> Result<Value> {
    match i.opt(1) {
        None => t(ops::sum_all(i.tensor(0)?)?),
        Some(_) => t(ops::sum_dim(i.tensor(0)?, i.int(1)?, i.bool_or(2, false)?)?),
    }
}

fn op_mean(i: &Inputs<'_>) -> Result<Value> {
    match i.opt(1) {
        None => t(ops::mean_all(i.tensor(0)?)?),
        Some(_) => t(ops::mean_dim(i.tensor(0)?, i.int(1)?, i.bool_or(2, false)?)?),
    }
}

fn op_argmax(i: &Inputs<'_>) -> Result<Value> {
    t(ops::argmax(i.tensor(0)?, i.int_or(1, -1)?)?)
}

fn op_embedding(i: &Inputs<'_>) -> Result<Value> {
    t(ops::embedding(i.tensor(0)?, i.tensor(1)?)?)
}

/// Inference-mode dropout is the identity; the node is still recorded so
/// transforms can see (and typically remove) it.
fn op_dropout(i: &Inputs<'_>) -> Result<Value> {
    Ok(Value::Tensor(i.tensor(0)?.clone()))
}

// ----- fused ops -------------------------------------------------------------
//
// Targets the `fx_backend` fusion passes emit. Each composes the same
// kernels the unfused nodes bottom out in, applied to the same values in
// the same order, so a fused graph is bit-identical to its source. Plain
// `conv2d` / `linear` are their `_act` twins called without an epilogue.

/// The activation epilogue named at argument `at`, if any: a
/// parameterless scalar unary (see [`ops::unary_scalar`]).
fn act_at<'a>(i: &Inputs<'a>, at: usize) -> Result<Option<&'a str>> {
    match i.opt(at) {
        None => Ok(None),
        Some(Value::Str(name)) if ops::unary_scalar(name).is_some() => Ok(Some(name)),
        Some(other) => Err(Error::BadArg {
            op: i.op.to_string(),
            expected: "the name of a scalar unary activation".to_string(),
            got: format!("{other:?}"),
        }),
    }
}

/// Apply `act` to a freshly produced (uniquely owned) kernel output, in
/// place.
fn with_act(y: Tensor, act: Option<&str>) -> Result<Value> {
    match act.and_then(ops::unary_scalar) {
        Some(f) => t(y.map_inplace(f)?),
        None => t(y),
    }
}

/// `conv2d`, and `conv2d_act` = `conv2d` + activation epilogue: the
/// seven convolution args, then optionally the activation name. ReLU
/// rides the GEMM write-back.
fn op_conv2d(i: &Inputs<'_>) -> Result<Value> {
    let act = act_at(i, 7)?;
    let relu = act == Some("relu");
    let y = ops::conv2d_act(
        i.tensor(0)?,
        i.tensor(1)?,
        i.opt_tensor(2)?,
        i.usize_pair(3)?,
        i.usize_pair(4)?,
        i.usize_pair(5)?,
        i.int_or(6, 1)? as usize,
        relu,
    )?;
    with_act(y, act.filter(|_| !relu))
}

/// `linear`, and `linear_act` = `linear` + activation epilogue
/// (`x, w, b[, act]`).
fn op_linear(i: &Inputs<'_>) -> Result<Value> {
    let act = act_at(i, 3)?;
    let relu = act == Some("relu");
    let y = ops::linear_act(i.tensor(0)?, i.tensor(1)?, i.opt_tensor(2)?, relu)?;
    with_act(y, act.filter(|_| !relu))
}

/// Broadcasting binary kernel + activation epilogue (`a, b, act`), with
/// the unfused op's scalar promotion.
fn binary_act(
    i: &Inputs<'_>,
    kernel: fn(&Tensor, &Tensor) -> std::result::Result<Tensor, fx_tensor::Error>,
) -> Result<Value> {
    let a = to_tensor(i.op, i.value(0)?)?;
    let b = to_tensor(i.op, i.value(1)?)?;
    with_act(kernel(&a, &b)?, act_at(i, 2)?)
}

/// `add` + activation epilogue — the fused residual `add+relu`.
fn op_add_act(i: &Inputs<'_>) -> Result<Value> {
    binary_act(i, ops::add)
}

/// `mul` + activation epilogue.
fn op_mul_act(i: &Inputs<'_>) -> Result<Value> {
    binary_act(i, ops::mul)
}

/// A run of unary elementwise ops in one pass over the data. The second
/// argument lists the steps: scalar-unary names, with `"add"` / `"mul"`
/// followed by their immediate — `["relu", "mul", 2.0, "neg"]`.
fn op_unary_chain(i: &Inputs<'_>) -> Result<Value> {
    enum Step {
        Map(fn(f32) -> f32),
        Add(f32),
        Mul(f32),
    }
    let bad = |got: &dyn std::fmt::Debug| Error::BadArg {
        op: i.op.to_string(),
        expected: "a list of unary op names, `add`/`mul` followed by a number".to_string(),
        got: format!("{got:?}"),
    };
    let Value::List(steps) = i.value(1)? else {
        return Err(bad(i.value(1)?));
    };
    let mut chain = Vec::with_capacity(steps.len());
    let mut it = steps.iter();
    while let Some(step) = it.next() {
        let Value::Str(name) = step else {
            return Err(bad(step));
        };
        chain.push(match name.as_str() {
            "add" | "mul" => {
                // The same scalar promotion the unfused op applies.
                let c = match it.next() {
                    Some(Value::Float(f)) => *f as f32,
                    Some(Value::Int(n)) => *n as f32,
                    other => return Err(bad(&other)),
                };
                if name == "add" {
                    Step::Add(c)
                } else {
                    Step::Mul(c)
                }
            }
            name => Step::Map(ops::unary_scalar(name).ok_or_else(|| bad(step))?),
        });
    }
    let x = to_tensor(i.op, i.value(0)?)?;
    t(x.map_inplace(|v| {
        chain.iter().fold(v, |acc, s| match s {
            Step::Map(f) => f(acc),
            Step::Add(c) => acc + c,
            Step::Mul(c) => acc * c,
        })
    })?)
}

/// Per-channel affine — a batch norm with its statistics pre-folded.
fn op_channel_affine(i: &Inputs<'_>) -> Result<Value> {
    t(ops::channel_affine(i.tensor(0)?, i.tensor(1)?, i.tensor(2)?)?)
}

// ----- quantized ops ---------------------------------------------------------

fn op_quantize_per_tensor(i: &Inputs<'_>) -> Result<Value> {
    t(quant::quantize_per_tensor(
        i.tensor(0)?,
        i.float(1)? as f32,
        i.int(2)? as i32,
    )?)
}

fn op_dequantize(i: &Inputs<'_>) -> Result<Value> {
    t(quant::dequantize(i.tensor(0)?)?)
}

fn qlinear(i: &Inputs<'_>, relu: bool) -> Result<Value> {
    t(quant::quantized_linear(
        i.tensor(0)?,
        i.tensor(1)?,
        i.opt_tensor(2)?,
        i.float(3)? as f32,
        i.int(4)? as i32,
        relu,
    )?)
}

fn op_quantized_linear(i: &Inputs<'_>) -> Result<Value> {
    qlinear(i, false)
}

fn op_quantized_linear_relu(i: &Inputs<'_>) -> Result<Value> {
    qlinear(i, true)
}

fn qconv(i: &Inputs<'_>, relu: bool) -> Result<Value> {
    t(quant::quantized_conv2d(
        i.tensor(0)?,
        i.tensor(1)?,
        i.opt_tensor(2)?,
        i.usize_pair(3)?,
        i.usize_pair(4)?,
        i.float(5)? as f32,
        i.int(6)? as i32,
        relu,
    )?)
}

fn op_quantized_conv2d(i: &Inputs<'_>) -> Result<Value> {
    qconv(i, false)
}

fn op_quantized_conv2d_relu(i: &Inputs<'_>) -> Result<Value> {
    qconv(i, true)
}

fn op_quantized_add(i: &Inputs<'_>) -> Result<Value> {
    t(quant::quantized_add(
        i.tensor(0)?,
        i.tensor(1)?,
        i.float(2)? as f32,
        i.int(3)? as i32,
    )?)
}

fn op_quantized_relu(i: &Inputs<'_>) -> Result<Value> {
    t(quant::quantized_relu(i.tensor(0)?)?)
}

// ----- tensor queries (called as methods) -----------------------------------

fn m_size(i: &Inputs<'_>) -> Result<Value> {
    let shape = i.tensor(0)?.shape();
    match i.opt(1) {
        None => Ok(Value::List(
            shape.iter().map(|&d| Value::Int(d as i64)).collect(),
        )),
        Some(_) => {
            let d = fx_tensor::shape::normalize_axis("size", i.int(1)?, shape.len())
                .map_err(Error::Tensor)?;
            Ok(Value::Int(shape[d] as i64))
        }
    }
}

fn m_dim(i: &Inputs<'_>) -> Result<Value> {
    Ok(Value::Int(i.tensor(0)?.rank() as i64))
}

fn m_item(i: &Inputs<'_>) -> Result<Value> {
    Ok(Value::Float(i.tensor(0)?.item_f32()? as f64))
}

fn m_contiguous(i: &Inputs<'_>) -> Result<Value> {
    Ok(Value::Tensor(i.tensor(0)?.clone()))
}

/// The built-in operator table: one row per name — the eager kernel
/// and the [`OpKind`] its output obeys. A function and a method of one
/// name share the row (`args[0]` is a method's receiver).
pub(crate) fn builtin_functions() -> HashMap<String, (OpFn, OpKind)> {
    use OpKind::*;
    let entries: &[(&str, OpFn, OpKind)] = &[
        ("relu", op_relu, Same),
        ("gelu", op_gelu, Same),
        ("selu", op_selu, Same),
        ("sigmoid", op_sigmoid, Same),
        ("tanh", op_tanh, Same),
        ("neg", op_neg, Same),
        ("exp", op_exp, Same),
        ("log", op_log, Same),
        ("sqrt", op_sqrt, Same),
        ("rsqrt", op_rsqrt, Same),
        ("abs", op_abs, Same),
        ("add", op_add, Broadcast),
        ("sub", op_sub, Broadcast),
        ("mul", op_mul, Broadcast),
        ("div", op_div, Broadcast),
        ("maximum", op_maximum, Broadcast),
        ("minimum", op_minimum, Broadcast),
        ("clamp", op_clamp, Same),
        ("hardtanh", op_hardtanh, Same),
        ("leaky_relu", op_leaky_relu, Same),
        ("linear", op_linear, Linear),
        ("matmul", op_matmul, Matmul),
        ("conv2d", op_conv2d, Conv),
        ("batch_norm", op_batch_norm, Same),
        ("layer_norm", op_layer_norm, Same),
        ("max_pool2d", op_max_pool2d, Pool),
        ("avg_pool2d", op_avg_pool2d, Pool),
        ("adaptive_avg_pool2d", op_adaptive_avg_pool2d, AdaptivePool),
        ("softmax", op_softmax, Same),
        ("log_softmax", op_log_softmax, Same),
        ("flatten", op_flatten, Flatten),
        ("reshape", op_reshape, Reshape),
        ("view", op_reshape, Reshape),
        ("permute", op_permute, Permute),
        ("transpose", op_transpose, Transpose),
        ("cat", op_cat, Cat),
        ("chunk", op_chunk, NonTensor),
        ("getitem", op_getitem, NonTensor),
        ("squeeze", op_squeeze, Squeeze),
        ("unsqueeze", op_unsqueeze, Unsqueeze),
        ("sum", op_sum, Reduce),
        ("mean", op_mean, Reduce),
        ("argmax", op_argmax, NonTensor),
        ("embedding", op_embedding, Embedding),
        ("dropout", op_dropout, Same),
        ("contiguous", m_contiguous, Same),
        ("size", m_size, NonTensor),
        ("dim", m_dim, NonTensor),
        ("item", m_item, NonTensor),
        ("conv2d_act", op_conv2d, Conv),
        ("linear_act", op_linear, Linear),
        ("add_act", op_add_act, Broadcast),
        ("mul_act", op_mul_act, Broadcast),
        ("unary_chain", op_unary_chain, Same),
        ("channel_affine", op_channel_affine, Same),
        ("quantize_per_tensor", op_quantize_per_tensor, Cast(DType::QI8)),
        ("dequantize", op_dequantize, Cast(DType::F32)),
        ("quantized::linear", op_quantized_linear, Linear),
        ("quantized::linear_relu", op_quantized_linear_relu, Linear),
        ("quantized::conv2d", op_quantized_conv2d, Conv),
        ("quantized::conv2d_relu", op_quantized_conv2d_relu, Conv),
        ("quantized::add", op_quantized_add, Broadcast),
        ("quantized::relu", op_quantized_relu, Same),
    ];
    entries
        .iter()
        .map(|&(n, f, kind)| (n.to_string(), (f, kind)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{eager, op_kind};
    use crate::node::Opcode;

    fn eager_function(name: &str, args: &[Value], kwargs: &[(String, Value)]) -> Result<Value> {
        eager(Opcode::CallFunction, name, args, kwargs)
    }

    fn tensor(data: Vec<f32>, shape: &[usize]) -> Value {
        Value::Tensor(Tensor::from_vec(data, shape))
    }

    #[test]
    fn function_and_method_registries_cover_core_ops() {
        let ops = builtin_functions();
        for name in ["relu", "conv2d", "linear", "batch_norm", "quantized::linear"] {
            assert!(ops.contains_key(name), "missing op {name}");
        }
        for name in ["neg", "reshape", "view", "size", "dim"] {
            assert!(ops.contains_key(name), "missing method {name}");
        }
        // A method spelling and a function spelling share one row.
        assert_eq!(ops["view"].1, ops["reshape"].1);
        assert_eq!(op_kind("dequantize"), Some(OpKind::Cast(DType::F32)));
        assert_eq!(op_kind("size"), Some(OpKind::NonTensor));
    }

    #[test]
    fn eager_linear_via_dispatch() {
        let x = tensor(vec![1.0, 2.0], &[1, 2]);
        let w = tensor(vec![1.0, 1.0], &[1, 2]);
        let y = eager_function("linear", &[x, w, Value::None], &[]).unwrap();
        assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[3.0]);
    }

    #[test]
    fn eager_conv_via_dispatch() {
        let x = Value::Tensor(Tensor::ones(&[1, 1, 3, 3]));
        let w = Value::Tensor(Tensor::ones(&[1, 1, 3, 3]));
        let pair = |a: i64, b: i64| Value::Tuple(vec![Value::Int(a), Value::Int(b)]);
        let y = eager_function(
            "conv2d",
            &[
                x,
                w,
                Value::None,
                pair(1, 1),
                pair(0, 0),
                pair(1, 1),
                Value::Int(1),
            ],
            &[],
        )
        .unwrap();
        assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[9.0]);
    }

    #[test]
    fn chunk_then_getitem() {
        let x = tensor((0..6).map(|v| v as f32).collect(), &[6]);
        let parts = eager_function("chunk", &[x, Value::Int(3), Value::Int(0)], &[]).unwrap();
        let second = eager_function("getitem", &[parts, Value::Int(1)], &[]).unwrap();
        assert_eq!(second.as_tensor().unwrap().as_f32().unwrap(), &[2.0, 3.0]);
    }

    #[test]
    fn getitem_out_of_range() {
        let tup = Value::Tuple(vec![Value::Int(1)]);
        assert!(eager_function("getitem", &[tup, Value::Int(5)], &[]).is_err());
    }

    #[test]
    fn size_method_with_and_without_dim() {
        let x = Value::Tensor(Tensor::ones(&[2, 5]));
        assert_eq!(
            eager(Opcode::CallMethod, "size", &[x.clone()], &[]).unwrap(),
            Value::List(vec![Value::Int(2), Value::Int(5)])
        );
        assert_eq!(
            eager(Opcode::CallMethod, "size", &[x.clone(), Value::Int(-1)], &[]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eager(Opcode::CallMethod, "dim", &[x], &[]).unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn sum_mean_variants() {
        let x = tensor(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let total = eager_function("sum", &[x.clone()], &[]).unwrap();
        assert_eq!(total.as_tensor().unwrap().item_f32().unwrap(), 10.0);
        let rows = eager_function("sum", &[x.clone(), Value::Int(1)], &[]).unwrap();
        assert_eq!(rows.as_tensor().unwrap().as_f32().unwrap(), &[3.0, 7.0]);
        let m = eager_function("mean", &[x, Value::Int(0), Value::Bool(true)], &[]).unwrap();
        assert_eq!(m.as_tensor().unwrap().shape(), &[1, 2]);
    }

    #[test]
    fn dropout_is_identity_at_inference() {
        let x = tensor(vec![1.0, 2.0], &[2]);
        let y = eager_function("dropout", &[x.clone(), Value::Float(0.5)], &[]).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn cat_dispatch() {
        let a = tensor(vec![1.0], &[1]);
        let b = tensor(vec![2.0], &[1]);
        let y = eager_function("cat", &[Value::List(vec![a, b]), Value::Int(0)], &[]).unwrap();
        assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[1.0, 2.0]);
        assert!(eager_function("cat", &[Value::Int(1), Value::Int(0)], &[]).is_err());
    }
}
