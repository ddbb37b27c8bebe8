//! The central op dispatcher — this crate's substitute for Python's
//! `__torch_function__` protocol.
//!
//! Every tensor operation in the public API (the [`crate::func`]
//! wrappers, [`Value`] methods and operators, layer forwards in `fx-nn`)
//! funnels through [`call_function`] / [`call_method`]. Each call makes
//! one decision:
//!
//! * if a [`Proxy`](crate::Proxy) appears anywhere in the arguments **and
//!   a trace session is active**, the call is *recorded* as a new
//!   [`Node`](crate::Node) and a fresh proxy is returned;
//! * otherwise the registered eager kernel runs on concrete values.
//!
//! Because this is the single interception point, symbolic tracing is
//! just "run `forward` with proxy inputs" — no parser, no AST transform,
//! no bytecode analysis (the paper's core simplicity argument, §5.1).
//!
//! One table holds every operator, one row per name: its eager kernel
//! and its [`OpKind`], the shape relation every analysis reads. A
//! function and a method of one name share the row. The table is
//! extensible at runtime with [`register_function`], which is how a
//! user op enters the IR.

use crate::error::{Error, Result};
use crate::node::Opcode;
use crate::trace;
use crate::value::Value;
use fx_tensor::{DType, Tensor};
use std::collections::HashMap;
use std::sync::{LazyLock, RwLock};

/// The signature of an eager op implementation.
pub type OpFn = fn(&Inputs<'_>) -> Result<Value>;

/// Argument pack handed to eager op implementations, with typed
/// accessors that produce uniform [`Error::BadArg`] diagnostics.
pub struct Inputs<'a> {
    /// The op name being dispatched (for error messages).
    pub op: &'a str,
    /// Positional arguments.
    pub args: &'a [Value],
    /// Keyword arguments.
    pub kwargs: &'a [(String, Value)],
}

impl<'a> Inputs<'a> {
    fn bad(&self, expected: impl Into<String>, got: &str) -> Error {
        Error::BadArg {
            op: self.op.to_string(),
            expected: expected.into(),
            got: got.to_string(),
        }
    }

    /// The raw value at `i`.
    pub fn value(&self, i: usize) -> Result<&'a Value> {
        self.args
            .get(i)
            .ok_or_else(|| self.bad(format!("argument at position {i}"), "nothing"))
    }

    /// The value at `i` if present and not `None`.
    pub fn opt(&self, i: usize) -> Option<&'a Value> {
        match self.args.get(i) {
            Some(Value::None) | std::option::Option::None => None,
            Some(v) => Some(v),
        }
    }

    /// Tensor at `i` (scalars do **not** promote here).
    pub fn tensor(&self, i: usize) -> Result<&'a Tensor> {
        match self.value(i)? {
            Value::Tensor(t) => Ok(t),
            other => Err(self.bad(format!("tensor at position {i}"), other.kind_name())),
        }
    }

    /// Tensor at `i`, or `None` if the slot is absent or `None`.
    pub fn opt_tensor(&self, i: usize) -> Result<Option<&'a Tensor>> {
        match self.opt(i) {
            None => Ok(None),
            Some(Value::Tensor(t)) => Ok(Some(t)),
            Some(other) => Err(self.bad(
                format!("tensor or None at position {i}"),
                other.kind_name(),
            )),
        }
    }

    /// Integer at `i`.
    pub fn int(&self, i: usize) -> Result<i64> {
        match self.value(i)? {
            Value::Int(v) => Ok(*v),
            other => Err(self.bad(format!("int at position {i}"), other.kind_name())),
        }
    }

    /// Integer at `i`, defaulting when absent.
    pub fn int_or(&self, i: usize, default: i64) -> Result<i64> {
        match self.args.get(i) {
            None | Some(Value::None) => Ok(default),
            Some(Value::Int(v)) => Ok(*v),
            Some(other) => Err(self.bad(format!("int at position {i}"), other.kind_name())),
        }
    }

    /// Float at `i` (ints promote).
    pub fn float(&self, i: usize) -> Result<f64> {
        match self.value(i)? {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            other => Err(self.bad(format!("float at position {i}"), other.kind_name())),
        }
    }

    /// Float at `i`, defaulting when absent.
    pub fn float_or(&self, i: usize, default: f64) -> Result<f64> {
        match self.args.get(i) {
            None | Some(Value::None) => Ok(default),
            Some(v) => match v {
                Value::Float(x) => Ok(*x),
                Value::Int(x) => Ok(*x as f64),
                other => Err(self.bad(format!("float at position {i}"), other.kind_name())),
            },
        }
    }

    /// Boolean at `i`, defaulting when absent.
    pub fn bool_or(&self, i: usize, default: bool) -> Result<bool> {
        match self.args.get(i) {
            None | Some(Value::None) => Ok(default),
            Some(Value::Bool(v)) => Ok(*v),
            Some(other) => Err(self.bad(format!("bool at position {i}"), other.kind_name())),
        }
    }

    /// A `(h, w)` pair at `i`: accepts `(a, b)`, `[a, b]`, or a single
    /// int used for both — PyTorch's kernel-size convention.
    pub fn usize_pair(&self, i: usize) -> Result<(usize, usize)> {
        match self.value(i)? {
            Value::Int(v) => Ok((*v as usize, *v as usize)),
            Value::Tuple(items) | Value::List(items) if items.len() == 2 => {
                let a = items[0].try_int()?;
                let b = items[1].try_int()?;
                Ok((a as usize, b as usize))
            }
            other => Err(self.bad(
                format!("int or 2-element tuple at position {i}"),
                other.kind_name(),
            )),
        }
    }

    /// A list of ints at `i`.
    pub fn int_list(&self, i: usize) -> Result<Vec<i64>> {
        match self.value(i)? {
            Value::List(items) | Value::Tuple(items) => {
                items.iter().map(Value::try_int).collect()
            }
            other => Err(self.bad(format!("list of ints at position {i}"), other.kind_name())),
        }
    }

    /// Number of positional arguments.
    pub fn len(&self) -> usize {
        self.args.len()
    }

    /// Whether there are no positional arguments.
    pub fn is_empty(&self) -> bool {
        self.args.is_empty()
    }
}

/// The shape relation an op obeys: how its output's type follows from
/// its operands'. Each variant is a relation many ops share, and every
/// analysis (shape walk, cost model, validation, quantizer) matches on
/// it instead of on op names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// The output has the first input's type (unaries, norms, softmax).
    Same,
    /// The first input's shape, converted to this dtype.
    Cast(DType),
    /// Numpy broadcast of two operands; a non-tensor one is a scalar.
    Broadcast,
    /// `x[..., in] · w[out, in]ᵀ` → `x[..., out]`.
    Linear,
    /// Matrix product of rank-1/2 operands, or batched rank-3.
    Matmul,
    /// 2-d convolution of `[n, c, h, w]` by `[o, c/g, kh, kw]`.
    Conv,
    /// A 2-d sliding window of immediate kernel, stride and padding.
    Pool,
    /// A 2-d pool to an immediate output extent.
    AdaptivePool,
    /// Collapse the dims `start..=end` into one.
    Flatten,
    /// View the elements under an immediate list of extents.
    Reshape,
    /// Reorder dims by an immediate list.
    Permute,
    /// Swap two dims.
    Transpose,
    /// Join a list of tensors along one dim.
    Cat,
    /// Reduce all dims, or one (kept as 1 or removed).
    Reduce,
    /// Rows of a `[rows, width]` table gathered by an index tensor.
    Embedding,
    /// Remove one dim of extent 1.
    Squeeze,
    /// Insert one dim of extent 1.
    Unsqueeze,
    /// Not a single tensor (`size`, `chunk`, …), or data-dependent.
    NonTensor,
    /// No relation: admitted only where its value is unused.
    Opaque,
}

static OPS: LazyLock<RwLock<HashMap<String, (OpFn, OpKind)>>> =
    LazyLock::new(|| RwLock::new(crate::ops_registry::builtin_functions()));

fn ops() -> std::sync::RwLockReadGuard<'static, HashMap<String, (OpFn, OpKind)>> {
    OPS.read().expect("op registry poisoned")
}

/// Register (or replace) the operator `name`: its eager kernel and the
/// [`OpKind`] its output obeys. The op is callable as a function and as
/// a method (`args[0]` is the receiver); the tracer, the executor and
/// every analysis pick it up immediately. Pass [`OpKind::Opaque`] for an
/// op with no shape relation: graphs that use its value are then
/// refused by the shape analyses.
pub fn register_function(name: &str, f: OpFn, kind: OpKind) {
    OPS.write()
        .expect("op registry poisoned")
        .insert(name.to_string(), (f, kind));
}

/// The [`OpKind`] of a registered op.
pub fn op_kind(name: &str) -> Option<OpKind> {
    ops().get(name).map(|&(_, kind)| kind)
}

/// Names of every built-in operator, sorted — what a per-operator table
/// must cover.
pub fn builtin_op_names() -> Vec<String> {
    let mut names: Vec<String> = crate::ops_registry::builtin_functions()
        .into_keys()
        .collect();
    names.sort();
    names
}

/// Dispatch a free-function op: record if tracing proxies, else execute.
pub fn call_function(name: &str, args: &[Value], kwargs: &[(String, Value)]) -> Result<Value> {
    if trace::is_tracing() && any_proxy(args, kwargs) {
        return trace::record_call(Opcode::CallFunction, name, args, kwargs);
    }
    eager(Opcode::CallFunction, name, args, kwargs)
}

/// Dispatch a method op (`args[0]` is the receiver).
pub fn call_method(name: &str, args: &[Value], kwargs: &[(String, Value)]) -> Result<Value> {
    if trace::is_tracing() && any_proxy(args, kwargs) {
        return trace::record_call(Opcode::CallMethod, name, args, kwargs);
    }
    eager(Opcode::CallMethod, name, args, kwargs)
}

/// Run the eager kernel of `name`, bypassing trace recording (the
/// interpreter hot path once a value is concrete). `op` is the calling
/// opcode, named in the error when no such op is registered.
pub fn eager(op: Opcode, name: &str, args: &[Value], kwargs: &[(String, Value)]) -> Result<Value> {
    let Some(&(f, _)) = ops().get(name) else {
        return Err(Error::UnknownOp {
            kind: if op == Opcode::CallMethod {
                "method"
            } else {
                "function"
            },
            name: name.to_string(),
        });
    };
    f(&Inputs {
        op: name,
        args,
        kwargs,
    })
}

fn any_proxy(args: &[Value], kwargs: &[(String, Value)]) -> bool {
    args.iter().any(Value::contains_proxy) || kwargs.iter().any(|(_, v)| v.contains_proxy())
}

/// Promote a scalar [`Value`] to a rank-0 tensor; pass tensors through.
/// The binary elementwise ops use this so `x + 2.0` works.
pub fn to_tensor(op: &str, v: &Value) -> Result<Tensor> {
    match v {
        Value::Tensor(t) => Ok(t.clone()),
        Value::Int(i) => Ok(Tensor::scalar(*i as f32)),
        Value::Float(f) => Ok(Tensor::scalar(*f as f32)),
        other => Err(Error::BadArg {
            op: op.to_string(),
            expected: "a tensor or numeric scalar".to_string(),
            got: other.kind_name().to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_op_reports_kind_and_name() {
        let e = eager(Opcode::CallFunction, "definitely_not_an_op", &[], &[]).unwrap_err();
        assert!(e.to_string().contains("definitely_not_an_op"));
        assert!(e.to_string().contains("function"));
        let e = eager(Opcode::CallMethod, "definitely_not_an_op", &[], &[]).unwrap_err();
        assert!(e.to_string().contains("method"), "{e}");
    }

    #[test]
    fn registry_extension() {
        fn answer(_i: &Inputs<'_>) -> Result<Value> {
            Ok(Value::Int(42))
        }
        register_function("test::answer", answer, OpKind::NonTensor);
        assert_eq!(op_kind("test::answer"), Some(OpKind::NonTensor));
        // One row answers both opcodes.
        for op in [Opcode::CallFunction, Opcode::CallMethod] {
            assert_eq!(eager(op, "test::answer", &[], &[]).unwrap(), Value::Int(42));
        }
    }

    #[test]
    fn inputs_accessors() {
        let args = vec![
            Value::Tensor(Tensor::ones(&[2])),
            Value::Int(3),
            Value::Tuple(vec![Value::Int(1), Value::Int(2)]),
            Value::None,
        ];
        let i = Inputs {
            op: "t",
            args: &args,
            kwargs: &[],
        };
        assert!(i.tensor(0).is_ok());
        assert!(i.tensor(1).is_err());
        assert_eq!(i.int(1).unwrap(), 3);
        assert_eq!(i.float(1).unwrap(), 3.0);
        assert_eq!(i.usize_pair(2).unwrap(), (1, 2));
        assert_eq!(i.usize_pair(1).unwrap(), (3, 3));
        assert!(i.opt(3).is_none());
        assert!(i.opt(9).is_none());
        assert_eq!(i.int_or(9, 7).unwrap(), 7);
        assert_eq!(i.float_or(3, 1.5).unwrap(), 1.5);
        assert_eq!(i.len(), 4);
        assert!(i.value(4).is_err());
        assert!(i.opt_tensor(3).unwrap().is_none());
        assert!(i.opt_tensor(0).unwrap().is_some());
        assert!(i.opt_tensor(1).is_err());
    }

    #[test]
    fn scalar_promotion() {
        let t = to_tensor("t", &Value::Int(3)).unwrap();
        assert_eq!(t.item_f32().unwrap(), 3.0);
        assert!(to_tensor("t", &Value::Str("x".into())).is_err());
    }
}
