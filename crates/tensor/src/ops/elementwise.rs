//! Broadcasting binary and unary elementwise kernels over `f32` tensors.

use crate::error::{Error, Result};
use crate::pool;
use crate::shape::{broadcast_shapes, BroadcastIter};
use crate::tensor::Tensor;

fn binary(op: &'static str, a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    let ad = a.as_f32().map_err(|_| Error::DTypeMismatch {
        op,
        expected: crate::DType::F32,
        got: a.dtype(),
    })?;
    let bd = b.as_f32().map_err(|_| Error::DTypeMismatch {
        op,
        expected: crate::DType::F32,
        got: b.dtype(),
    })?;
    if a.shape() == b.shape() {
        // Fast path: identical shapes vectorize as a flat zip.
        let mut out = pool::alloc_empty::<f32>(ad.len());
        out.extend(ad.iter().zip(bd).map(|(&x, &y)| f(x, y)));
        return Ok(Tensor::from_vec(out, a.shape()));
    }
    let out_shape = broadcast_shapes(a.shape(), b.shape())?;
    let mut out = pool::alloc_empty::<f32>(crate::shape::numel(&out_shape));
    for (ia, ib) in BroadcastIter::new(a.shape(), b.shape(), &out_shape) {
        out.push(f(ad[ia], bd[ib]));
    }
    Ok(Tensor::from_vec(out, &out_shape))
}

fn unary(op: &'static str, a: &Tensor, f: impl Fn(f32) -> f32) -> Result<Tensor> {
    let ad = a.as_f32().map_err(|_| Error::DTypeMismatch {
        op,
        expected: crate::DType::F32,
        got: a.dtype(),
    })?;
    let mut out = pool::alloc_empty::<f32>(ad.len());
    out.extend(ad.iter().map(|&x| f(x)));
    Ok(Tensor::from_vec(out, a.shape()))
}

// Named scalar kernels for the parameterless unary activations. The
// `pub fn` wrappers below and the executor's in-place fast path (via
// [`unary_scalar`]) both call *these exact functions*, which is what
// makes the planned in-place path bit-identical to the dispatch path.
fn neg_s(x: f32) -> f32 {
    -x
}
fn relu_s(x: f32) -> f32 {
    x.max(0.0)
}
fn gelu_s(x: f32) -> f32 {
    0.5 * x * (1.0 + ((0.797_884_6) * (x + 0.044_715 * x * x * x)).tanh())
}
fn selu_s(x: f32) -> f32 {
    const ALPHA: f32 = 1.673_263_2;
    const SCALE: f32 = 1.050_701;
    if x > 0.0 {
        SCALE * x
    } else {
        SCALE * ALPHA * (x.exp() - 1.0)
    }
}
fn sigmoid_s(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}
fn rsqrt_s(x: f32) -> f32 {
    1.0 / x.sqrt()
}

/// The scalar kernel behind a parameterless unary op, by dispatch
/// target name — `None` for ops that take parameters (`clamp`,
/// `leaky_relu`, ...) or are not elementwise. The executor uses this to
/// run a planned step in place on a dying input.
pub fn unary_scalar(target: &str) -> Option<fn(f32) -> f32> {
    Some(match target {
        "neg" => neg_s,
        "relu" => relu_s,
        "gelu" => gelu_s,
        "selu" => selu_s,
        "sigmoid" => sigmoid_s,
        "tanh" => f32::tanh,
        "exp" => f32::exp,
        "log" => f32::ln,
        "sqrt" => f32::sqrt,
        "rsqrt" => rsqrt_s,
        "abs" => f32::abs,
        _ => return None,
    })
}

/// Elementwise `a + b` with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary("add", a, b, |x, y| x + y)
}

/// Elementwise `a - b` with broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary("sub", a, b, |x, y| x - y)
}

/// Elementwise `a * b` with broadcasting.
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary("mul", a, b, |x, y| x * y)
}

/// Elementwise `a / b` with broadcasting.
pub fn div(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary("div", a, b, |x, y| x / y)
}

/// Elementwise maximum with broadcasting.
pub fn maximum(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary("maximum", a, b, f32::max)
}

/// Elementwise minimum with broadcasting.
pub fn minimum(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary("minimum", a, b, f32::min)
}

/// Elementwise negation.
pub fn neg(a: &Tensor) -> Result<Tensor> {
    unary("neg", a, neg_s)
}

/// Rectified linear unit.
pub fn relu(a: &Tensor) -> Result<Tensor> {
    unary("relu", a, relu_s)
}

/// Gaussian error linear unit (tanh approximation, as in the paper's
/// activation-swap example which replaces `relu` with `gelu`).
pub fn gelu(a: &Tensor) -> Result<Tensor> {
    unary("gelu", a, gelu_s)
}

/// Scaled exponential linear unit — the activation DeepRecommender uses.
pub fn selu(a: &Tensor) -> Result<Tensor> {
    unary("selu", a, selu_s)
}

/// Logistic sigmoid.
pub fn sigmoid(a: &Tensor) -> Result<Tensor> {
    unary("sigmoid", a, sigmoid_s)
}

/// Hyperbolic tangent.
pub fn tanh(a: &Tensor) -> Result<Tensor> {
    unary("tanh", a, f32::tanh)
}

/// Elementwise exponential.
pub fn exp(a: &Tensor) -> Result<Tensor> {
    unary("exp", a, f32::exp)
}

/// Elementwise natural logarithm.
pub fn log(a: &Tensor) -> Result<Tensor> {
    unary("log", a, f32::ln)
}

/// Elementwise square root.
pub fn sqrt(a: &Tensor) -> Result<Tensor> {
    unary("sqrt", a, f32::sqrt)
}

/// Elementwise reciprocal square root.
pub fn rsqrt(a: &Tensor) -> Result<Tensor> {
    unary("rsqrt", a, rsqrt_s)
}

/// Elementwise absolute value.
pub fn abs(a: &Tensor) -> Result<Tensor> {
    unary("abs", a, f32::abs)
}

/// Clamp every element into `[lo, hi]`.
pub fn clamp(a: &Tensor, lo: f32, hi: f32) -> Result<Tensor> {
    unary("clamp", a, |x| x.clamp(lo, hi))
}

/// Hard tanh: clamp into `[min_val, max_val]` (ReLU6 is `hardtanh(0, 6)`).
pub fn hardtanh(a: &Tensor, min_val: f32, max_val: f32) -> Result<Tensor> {
    unary("hardtanh", a, |x| x.clamp(min_val, max_val))
}

/// Leaky ReLU with the given negative slope.
pub fn leaky_relu(a: &Tensor, negative_slope: f32) -> Result<Tensor> {
    unary("leaky_relu", a, |x| {
        if x >= 0.0 {
            x
        } else {
            negative_slope * x
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        assert_eq!(add(&a, &b).unwrap().as_f32().unwrap(), &[11.0, 22.0]);
    }

    #[test]
    fn broadcast_row_and_column() {
        let col = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let row = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]);
        let c = add(&col, &row).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(
            c.as_f32().unwrap(),
            &[11.0, 21.0, 31.0, 12.0, 22.0, 32.0]
        );
    }

    #[test]
    fn scalar_broadcast() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        let s = Tensor::scalar(2.0);
        assert_eq!(mul(&a, &s).unwrap().as_f32().unwrap(), &[2.0, -4.0, 6.0]);
        assert_eq!(sub(&s, &a).unwrap().as_f32().unwrap(), &[1.0, 4.0, -1.0]);
    }

    #[test]
    fn incompatible_shapes_error() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4]);
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn dtype_guard() {
        let i = Tensor::arange(3);
        assert!(relu(&i).is_err());
        assert!(add(&i, &i).is_err());
    }

    #[test]
    fn activations_fixed_points() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(relu(&x).unwrap().as_f32().unwrap(), &[0.0, 0.0, 2.0]);
        let s = sigmoid(&Tensor::scalar(0.0)).unwrap();
        assert!((s.item_f32().unwrap() - 0.5).abs() < 1e-6);
        let g = gelu(&Tensor::scalar(0.0)).unwrap();
        assert_eq!(g.item_f32().unwrap(), 0.0);
        // GELU is close to identity for large positive x.
        let g5 = gelu(&Tensor::scalar(5.0)).unwrap();
        assert!((g5.item_f32().unwrap() - 5.0).abs() < 1e-3);
        // SELU(0) = 0, SELU(x) ~ 1.0507 x for positive x.
        let se = selu(&Tensor::from_vec(vec![0.0, 1.0], &[2])).unwrap();
        let sed = se.as_f32().unwrap();
        assert_eq!(sed[0], 0.0);
        assert!((sed[1] - 1.050_701).abs() < 1e-4);
    }

    #[test]
    fn clamp_and_variants() {
        let x = Tensor::from_vec(vec![-5.0, 0.5, 9.0], &[3]);
        assert_eq!(
            clamp(&x, -1.0, 1.0).unwrap().as_f32().unwrap(),
            &[-1.0, 0.5, 1.0]
        );
        assert_eq!(
            hardtanh(&x, 0.0, 6.0).unwrap().as_f32().unwrap(),
            &[0.0, 0.5, 6.0]
        );
        assert_eq!(
            leaky_relu(&x, 0.1).unwrap().as_f32().unwrap(),
            &[-0.5, 0.5, 9.0]
        );
    }

    #[test]
    fn math_unaries() {
        let x = Tensor::from_vec(vec![4.0], &[1]);
        assert_eq!(sqrt(&x).unwrap().as_f32().unwrap(), &[2.0]);
        assert_eq!(rsqrt(&x).unwrap().as_f32().unwrap(), &[0.5]);
        assert_eq!(abs(&neg(&x).unwrap()).unwrap().as_f32().unwrap(), &[4.0]);
        let e = exp(&Tensor::scalar(0.0)).unwrap();
        assert_eq!(e.item_f32().unwrap(), 1.0);
        let l = log(&e).unwrap();
        assert_eq!(l.item_f32().unwrap(), 0.0);
    }

    #[test]
    fn maximum_minimum() {
        let a = Tensor::from_vec(vec![1.0, 5.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 2.0], &[2]);
        assert_eq!(maximum(&a, &b).unwrap().as_f32().unwrap(), &[3.0, 5.0]);
        assert_eq!(minimum(&a, &b).unwrap().as_f32().unwrap(), &[1.0, 2.0]);
    }
}
