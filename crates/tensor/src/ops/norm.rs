//! Normalization and softmax kernels.

use crate::error::{Error, Result};
use crate::pool;
use crate::shape::normalize_axis;
use crate::tensor::Tensor;

/// Inference-mode batch normalization over the channel dimension of an
/// `[N, C, ...]` tensor:
/// `y = (x - mean) / sqrt(var + eps) * gamma + beta`.
///
/// `mean`/`var` are the running statistics; all four parameter tensors
/// have shape `[C]`. This is the operation conv–BN fusion folds away
/// (paper §6.2.2).
pub fn batch_norm(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    eps: f32,
) -> Result<Tensor> {
    let xd = x.as_f32()?;
    let xs = x.shape();
    if xs.len() < 2 {
        return Err(Error::ShapeMismatch {
            op: "batch_norm",
            expected: "at least 2-d input [N, C, ...]".to_string(),
            got: xs.to_vec(),
        });
    }
    let c = xs[1];
    for (name, t) in [("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)] {
        if t.shape() != [c] {
            return Err(Error::ShapeMismatch {
                op: "batch_norm",
                expected: format!("{name} of shape [{c}]"),
                got: t.shape().to_vec(),
            });
        }
    }
    let g = gamma.as_f32()?;
    let b = beta.as_f32()?;
    let m = mean.as_f32()?;
    let v = var.as_f32()?;
    // Precompute per-channel affine: y = x * scale[c] + shift[c]. The
    // scratch vectors go straight back to the pool, so a ResNet's ~50
    // BN layers recycle the same two buffers in steady state.
    let mut scale = pool::alloc_empty::<f32>(c);
    scale.extend((0..c).map(|i| g[i] / (v[i] + eps).sqrt()));
    let mut shift = pool::alloc_empty::<f32>(c);
    shift.extend((0..c).map(|i| b[i] - m[i] * scale[i]));
    let out = affine_per_channel(xd, xs, &scale, &shift);
    pool::recycle::<f32>(scale);
    pool::recycle::<f32>(shift);
    Ok(out)
}

/// `y = x * scale[c] + shift[c]` over the channel dimension of
/// `[N, C, ...]` data; callers have checked `scale`/`shift` hold `C`
/// values.
fn affine_per_channel(xd: &[f32], xs: &[usize], scale: &[f32], shift: &[f32]) -> Tensor {
    let (n, c) = (xs[0], xs[1]);
    let inner: usize = xs[2..].iter().product();
    let mut out = pool::alloc_empty::<f32>(xd.len());
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * inner;
            let (s, sh) = (scale[ch], shift[ch]);
            out.extend(xd[base..base + inner].iter().map(|&x| x * s + sh));
        }
    }
    Tensor::from_vec(out, xs)
}

/// Per-channel affine `y = x * scale[c] + shift[c]` over an
/// `[N, C, ...]` tensor: a batch norm whose statistics were folded into
/// `scale`/`shift` ahead of time (the backend's standalone-BN lowering).
/// Bit-identical to [`batch_norm`] when `scale = γ/sqrt(var+ε)` and
/// `shift = β - mean*scale`, which is how that kernel computes it too.
pub fn channel_affine(x: &Tensor, scale: &Tensor, shift: &Tensor) -> Result<Tensor> {
    let xs = x.shape();
    if xs.len() < 2 || scale.shape() != [xs[1]] || shift.shape() != [xs[1]] {
        return Err(Error::ShapeMismatch {
            op: "channel_affine",
            expected: "input [N, C, ...] with scale and shift of shape [C]".to_string(),
            got: xs.to_vec(),
        });
    }
    Ok(affine_per_channel(x.as_f32()?, xs, scale.as_f32()?, shift.as_f32()?))
}

/// Layer normalization over the last `normalized_rank` dimensions.
pub fn layer_norm(
    x: &Tensor,
    normalized_rank: usize,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<Tensor> {
    let xd = x.as_f32()?;
    let xs = x.shape();
    if normalized_rank == 0 || normalized_rank > xs.len() {
        return Err(Error::InvalidArgument {
            op: "layer_norm",
            message: format!(
                "normalized_rank {normalized_rank} invalid for rank {}",
                xs.len()
            ),
        });
    }
    let inner: usize = xs[xs.len() - normalized_rank..].iter().product();
    let g = gamma.as_f32()?;
    let b = beta.as_f32()?;
    if g.len() != inner || b.len() != inner {
        return Err(Error::ShapeMismatch {
            op: "layer_norm",
            expected: format!("gamma/beta with {inner} elements"),
            got: gamma.shape().to_vec(),
        });
    }
    let mut out = pool::alloc_empty::<f32>(xd.len());
    for row in xd.chunks(inner) {
        let mean: f32 = row.iter().sum::<f32>() / inner as f32;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / inner as f32;
        let denom = (var + eps).sqrt();
        out.extend(
            row.iter()
                .enumerate()
                .map(|(i, &v)| (v - mean) / denom * g[i] + b[i]),
        );
    }
    Ok(Tensor::from_vec(out, xs))
}

/// Numerically-stable softmax along `dim` (negative dims allowed).
pub fn softmax(x: &Tensor, dim: i64) -> Result<Tensor> {
    softmax_impl(x, dim, false)
}

/// Numerically-stable log-softmax along `dim`.
pub fn log_softmax(x: &Tensor, dim: i64) -> Result<Tensor> {
    softmax_impl(x, dim, true)
}

fn softmax_impl(x: &Tensor, dim: i64, log: bool) -> Result<Tensor> {
    let xd = x.as_f32()?;
    let xs = x.shape();
    let axis = normalize_axis("softmax", dim, xs.len())?;
    let axis_len = xs[axis];
    let inner: usize = xs[axis + 1..].iter().product();
    let outer: usize = xs[..axis].iter().product();
    let mut out = pool::alloc_zeroed::<f32>(xd.len());
    for oi in 0..outer {
        for ii in 0..inner {
            let idx = |a: usize| (oi * axis_len + a) * inner + ii;
            let mx = (0..axis_len)
                .map(|a| xd[idx(a)])
                .fold(f32::NEG_INFINITY, f32::max);
            let sum: f32 = (0..axis_len).map(|a| (xd[idx(a)] - mx).exp()).sum();
            for a in 0..axis_len {
                let e = xd[idx(a)] - mx;
                out[idx(a)] = if log { e - sum.ln() } else { e.exp() / sum };
            }
        }
    }
    Ok(Tensor::from_vec(out, xs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_norm_normalizes() {
        // Two channels, identity affine: output is (x - mean)/sqrt(var).
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2, 1]);
        let gamma = Tensor::ones(&[2]);
        let beta = Tensor::zeros(&[2]);
        let mean = Tensor::from_vec(vec![1.5, 3.5], &[2]);
        let var = Tensor::from_vec(vec![0.25, 0.25], &[2]);
        let y = batch_norm(&x, &gamma, &beta, &mean, &var, 0.0).unwrap();
        assert!(y.allclose(
            &Tensor::from_vec(vec![-1.0, 1.0, -1.0, 1.0], &[1, 2, 2, 1]),
            1e-5
        ));
    }

    #[test]
    fn channel_affine_matches_batch_norm_fold() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2, 1]);
        let scale = Tensor::from_vec(vec![2.0, 0.5], &[2]);
        let shift = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        let y = channel_affine(&x, &scale, &shift).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[3.0, 5.0, 0.5, 1.0]);
        assert!(channel_affine(&x, &Tensor::ones(&[1]), &Tensor::zeros(&[1])).is_err());
    }

    #[test]
    fn batch_norm_affine() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let y = batch_norm(
            &x,
            &Tensor::full(&[1], 2.0),
            &Tensor::full(&[1], 7.0),
            &Tensor::zeros(&[1]),
            &Tensor::ones(&[1]),
            0.0,
        )
        .unwrap();
        assert!(y.allclose(&Tensor::full(&[1, 1, 2, 2], 7.0), 1e-5));
    }

    #[test]
    fn batch_norm_shape_guard() {
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let bad = Tensor::ones(&[2]);
        let ok = Tensor::ones(&[3]);
        assert!(batch_norm(&x, &bad, &ok, &ok, &ok, 1e-5).is_err());
        assert!(batch_norm(&Tensor::ones(&[4]), &ok, &ok, &ok, &ok, 1e-5).is_err());
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = layer_norm(&x, 1, &Tensor::ones(&[2]), &Tensor::zeros(&[2]), 0.0).unwrap();
        let yd = y.as_f32().unwrap();
        assert!((yd[0] + 1.0).abs() < 1e-4);
        assert!((yd[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let y = softmax(&x, -1).unwrap();
        let yd = y.as_f32().unwrap();
        assert!((yd[0..3].iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!((yd[3] - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let x = Tensor::from_vec(vec![1000.0, 1000.0], &[2]);
        let y = softmax(&x, 0).unwrap();
        assert!(y.allclose(&Tensor::from_vec(vec![0.5, 0.5], &[2]), 1e-6));
    }

    #[test]
    fn softmax_along_middle_axis() {
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0], &[1, 3, 2]);
        let y = softmax(&x, 1).unwrap();
        let yd = y.as_f32().unwrap();
        for &v in yd {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_consistency() {
        let x = Tensor::from_vec(vec![0.5, -0.5, 2.0], &[3]);
        let s = softmax(&x, 0).unwrap();
        let ls = log_softmax(&x, 0).unwrap();
        for (a, b) in s.as_f32().unwrap().iter().zip(ls.as_f32().unwrap()) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }
}
