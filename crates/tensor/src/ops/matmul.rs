//! Matrix multiplication: the `matmul` / `linear` entry points over the
//! one GEMM driver ([`simd`]), which runs the tile the `FX_SIMD` level
//! selects — portable rows included — so there is one engine at every
//! level. Every rank combination is a batch of 2-d products, a 1-d
//! @ 1-d one the `[1, k]·[k, 1]` product, so its bits are the 2-d
//! product's.

use crate::error::{Error, Result};
use crate::ops::simd::{self, BSrc};
use crate::pool;
use crate::tensor::Tensor;

/// Matrix product with PyTorch `matmul` semantics for ranks 1–3:
///
/// * 1-d @ 1-d → scalar (dot product)
/// * 2-d @ 2-d → matrix product
/// * 1-d @ 2-d / 2-d @ 1-d → vector-matrix / matrix-vector
/// * 3-d @ 3-d with equal leading (batch) dims → batched matmul
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let ad = a.as_f32()?;
    let bd = b.as_f32()?;
    // `bs` products of `[m, k]·[k2, n]`, and the output's shape.
    let (bs, m, k, k2, n, shape) = match (a.shape(), b.shape()) {
        (&[k], &[k2]) => (1, 1, k, k2, 1, vec![]),
        (&[m, k], &[k2, n]) => (1, m, k, k2, n, vec![m, n]),
        (&[k], &[k2, n]) => (1, 1, k, k2, n, vec![n]),
        (&[m, k], &[k2]) => (1, m, k, k2, 1, vec![m]),
        (&[bs, m, k], &[bs2, k2, n]) => {
            if bs != bs2 {
                return Err(Error::ShapeMismatch {
                    op: "matmul",
                    expected: format!("batch dim {bs}"),
                    got: b.shape().to_vec(),
                });
            }
            (bs, m, k, k2, n, vec![bs, m, n])
        }
        _ => {
            return Err(Error::InvalidArgument {
                op: "matmul",
                message: format!("unsupported rank combination {} @ {}", a.rank(), b.rank()),
            })
        }
    };
    if k != k2 {
        return Err(Error::ShapeMismatch { op: "matmul", expected: format!("inner dimension {k}"), got: b.shape().to_vec() });
    }
    let mut out = pool::alloc::<f32>(bs * m * n);
    for i in 0..bs {
        let (a_i, b_i) = (&ad[i * m * k..][..m * k], BSrc::RowMajor(&bd[i * k * n..][..k * n]));
        simd::gemm(m, k, n, a_i, b_i, (None, false), false, (n, m, 0), &mut out[i * m * n..][..m * n]);
    }
    Ok(Tensor::from_vec(out, &shape))
}

/// Affine map `y = x @ wᵀ + b` with `x: [.., in]`, `w: [out, in]`,
/// `b: [out]` — the `nn.Linear` kernel. Leading dimensions of `x` are
/// flattened into the GEMM `m` dimension.
pub fn linear(x: &Tensor, w: &Tensor, b: Option<&Tensor>) -> Result<Tensor> {
    linear_act(x, w, b, false)
}

/// [`linear`] with an optional fused ReLU epilogue, the hook the
/// backend engine's epilogue fusion lowers `linear+relu` through. Bias
/// and ReLU run on each output row as the GEMM finishes it, while it
/// is still in cache (not by a separate op), elementwise identical to
/// running [`linear`] followed by `relu` (`+ bias` then `max(0)` are
/// the same float ops wherever they run).
pub fn linear_act(x: &Tensor, w: &Tensor, b: Option<&Tensor>, relu: bool) -> Result<Tensor> {
    let xd = x.as_f32()?;
    let wd = w.as_f32()?;
    if w.rank() != 2 {
        return Err(Error::ShapeMismatch {
            op: "linear",
            expected: "2-d weight [out, in]".to_string(),
            got: w.shape().to_vec(),
        });
    }
    let (out_f, in_f) = (w.shape()[0], w.shape()[1]);
    if x.rank() == 0 || x.shape().last().copied() != Some(in_f) {
        return Err(Error::ShapeMismatch {
            op: "linear",
            expected: format!("input with last dimension {in_f}"),
            got: x.shape().to_vec(),
        });
    }
    let bias_slice = match b {
        Some(bias) => {
            let bd = bias.as_f32()?;
            if bd.len() != out_f {
                return Err(Error::ShapeMismatch {
                    op: "linear",
                    expected: format!("bias of length {out_f}"),
                    got: bias.shape().to_vec(),
                });
            }
            Some(bd)
        }
        None => None,
    };
    // The leading dims, not `numel / in_f`: with no input features the
    // rows are still there, and each output row is the bias.
    let m: usize = x.shape()[..x.rank() - 1].iter().product();
    let mut out = pool::alloc::<f32>(m * out_f);
    simd::gemm(m, in_f, out_f, xd, BSrc::Transposed(wd), (bias_slice, true), relu, (out_f, m, 0), &mut out);
    let mut out_shape = x.shape().to_vec();
    *out_shape.last_mut().unwrap() = out_f;
    Ok(Tensor::from_vec(out, &out_shape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threading::set_num_threads;
    use crate::rng::StdRng;
    use crate::rng::SeedableRng;

    fn naive_matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn gemm_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::rand_uniform(&[7, 5], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[5, 9], -1.0, 1.0, &mut rng);
        let c = matmul(&a, &b).unwrap();
        let expect = naive_matmul(7, 5, 9, a.as_f32().unwrap(), b.as_f32().unwrap());
        assert!(c.allclose(&Tensor::from_vec(expect, &[7, 9]), 1e-4));
    }

    #[test]
    fn gemm_threaded_matches_single_thread() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::rand_uniform(&[33, 17], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[17, 29], -1.0, 1.0, &mut rng);
        set_num_threads(1);
        let c1 = matmul(&a, &b).unwrap();
        set_num_threads(4);
        let c4 = matmul(&a, &b).unwrap();
        set_num_threads(0);
        assert!(c1.allclose(&c4, 1e-5));
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(matmul(&a, &b).unwrap().item_f32().unwrap(), 32.0);
    }

    /// A 1-d @ 1-d product is the `[1, k]·[k, 1]` one, bit for bit, with
    /// `k` across several k panels.
    #[test]
    fn vector_dot_is_the_2d_product_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Tensor::rand_uniform(&[1000], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[1000], -1.0, 1.0, &mut rng);
        let dot = matmul(&a, &b).unwrap();
        let (a2, b2) = (a.reshape(&[1, 1000]).unwrap(), b.reshape(&[1000, 1]).unwrap());
        assert_eq!(dot.shape(), &[] as &[usize]);
        assert_eq!(dot.item_f32().unwrap().to_bits(), matmul(&a2, &b2).unwrap().as_f32().unwrap()[0].to_bits());
    }

    #[test]
    fn vector_matrix_cases() {
        let v = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let m = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(matmul(&v, &m).unwrap().shape(), &[2]);
        assert_eq!(matmul(&m, &v).unwrap().as_f32().unwrap(), &[1.0, 2.0]);
    }

    #[test]
    fn batched_matmul() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::rand_uniform(&[2, 3, 4], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[2, 4, 5], -1.0, 1.0, &mut rng);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 3, 5]);
        // Batch 1 must equal an independent 2-d matmul of the slices.
        let a1 = Tensor::from_vec(a.as_f32().unwrap()[12..].to_vec(), &[3, 4]);
        let b1 = Tensor::from_vec(b.as_f32().unwrap()[20..].to_vec(), &[4, 5]);
        let c1 = matmul(&a1, &b1).unwrap();
        let got = Tensor::from_vec(c.as_f32().unwrap()[15..].to_vec(), &[3, 5]);
        assert!(got.allclose(&c1, 1e-5));
    }

    #[test]
    fn inner_dim_mismatch_errors() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4, 5]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn linear_with_bias() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let w = Tensor::from_vec(vec![1.0, 1.0, 2.0, -1.0, 0.5, 0.0], &[3, 2]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let y = linear(&x, &w, Some(&b)).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[13.0, 20.0, 30.5]);
    }

    #[test]
    fn linear_flattens_leading_dims() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::rand_uniform(&[2, 3, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng);
        let y = linear(&x, &w, None).unwrap();
        assert_eq!(y.shape(), &[2, 3, 5]);
    }

    #[test]
    fn linear_shape_errors() {
        let x = Tensor::ones(&[2, 3]);
        let w = Tensor::ones(&[4, 9]);
        assert!(linear(&x, &w, None).is_err());
        let w_ok = Tensor::ones(&[4, 3]);
        let bad_bias = Tensor::ones(&[5]);
        assert!(linear(&x, &w_ok, Some(&bad_bias)).is_err());
    }

    #[test]
    fn dot_length_mismatch_errors() {
        let a = Tensor::ones(&[3]);
        let b = Tensor::ones(&[4]);
        assert!(matmul(&a, &b).is_err());
    }

    /// Property sweep: the GEMM at this process's level must agree with
    /// the naive triple loop within the documented envelope,
    /// `2·K·ε·Σ|aᵢ·bᵢ|` per element, over odd M/K/N — K below lane width,
    /// K = 0, single rows, non-multiples of every register tile — for
    /// row-major and transposed B.
    #[test]
    fn gemm_matches_the_naive_oracle_over_odd_shapes() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let shapes = [
            (1, 0, 1),
            (1, 1, 1),
            (1, 3, 1),
            (1, 5, 17),
            (2, 7, 3),
            (6, 16, 16),
            (7, 17, 18),
            (13, 257, 31),
            (23, 40, 50),
            (3, 300, 5),
        ];
        for &(m, k, n) in &shapes {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            let (ad, bd) = (a.as_f32().unwrap(), b.as_f32().unwrap());
            let abs = |v: &[f32]| v.iter().map(|x| x.abs()).collect::<Vec<_>>();
            let want = naive_matmul(m, k, n, ad, bd);
            let magnitude = naive_matmul(m, k, n, &abs(ad), &abs(bd));
            let bt: Vec<f32> = (0..n * k).map(|i| bd[i % k * n + i / k]).collect();
            let mut nt = vec![f32::NAN; m * n];
            let b_t = BSrc::Transposed(&bt);
            simd::gemm(m, k, n, ad, b_t, (None, false), false, (n, m, 0), &mut nt);
            let nn = matmul(&a, &b).unwrap();
            for (what, got) in [("nn", nn.as_f32().unwrap()), ("nt", &nt[..])] {
                for ((g, w), mag) in got.iter().zip(&want).zip(&magnitude) {
                    let tol = 2.0 * k as f32 * f32::EPSILON * mag;
                    assert!((g - w).abs() <= tol, "{what} {m}x{k}x{n}: {g} vs {w}");
                }
            }
        }
    }

    /// A linear with no input features still has its rows: each output
    /// row is the bias, or zeros.
    #[test]
    fn linear_without_input_features_is_the_bias() {
        let x = Tensor::from_vec(vec![], &[2, 3, 0]);
        let w = Tensor::from_vec(vec![], &[4, 0]);
        let b = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[4]);
        let y = linear(&x, &w, Some(&b)).unwrap();
        assert_eq!(y.shape(), &[2, 3, 4]);
        assert_eq!(y.as_f32().unwrap(), b.as_f32().unwrap().repeat(6));
        let y = linear_act(&x, &w, Some(&b), true).unwrap();
        assert_eq!(y.as_f32().unwrap(), [1.0, 0.0, 0.5, 3.0].repeat(6));
        let y = linear(&x, &w, None).unwrap();
        assert_eq!(y.as_f32().unwrap(), vec![0.0; 24]);
    }

    #[test]
    fn linear_act_matches_linear_then_relu_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xACED);
        let x = Tensor::rand_uniform(&[5, 33], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[21, 33], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[21], -1.0, 1.0, &mut rng);
        let fused = linear_act(&x, &w, Some(&b), true).unwrap();
        let separate = linear(&x, &w, Some(&b)).unwrap();
        let relu: Vec<f32> = separate
            .as_f32()
            .unwrap()
            .iter()
            .map(|v| v.max(0.0))
            .collect();
        assert_eq!(fused.as_f32().unwrap(), &relu[..]);
    }
}
