//! Matrix multiplication: the `matmul` / `linear` entry points over the
//! one GEMM driver ([`simd`]), which runs the tile the `FX_SIMD` level
//! selects — portable rows included — so there is one engine at every
//! level. A 1-d @ 1-d product is a plain [`dot`].

use crate::error::{Error, Result};
use crate::ops::simd::{self, BSrc};
use crate::pool;
use crate::tensor::Tensor;

/// Dot product with eight independent accumulators. Float addition is
/// not associative, so LLVM will not vectorize a single-accumulator
/// reduction; splitting the sum into independent lanes recovers SIMD
/// (the same trick every BLAS microkernel uses).
///
/// Slices must be the same length; a mismatch is a caller-side shape
/// bug and would previously truncate to the shorter slice, silently
/// producing a wrong dot product — checked in release builds too, since
/// the cost is one compare per call against an O(n) loop.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 8;
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let n = a.len();
    let chunks = n / LANES;
    let mut acc = [0.0f32; LANES];
    for c in 0..chunks {
        let base = c * LANES;
        for l in 0..LANES {
            acc[l] += a[base + l] * b[base + l];
        }
    }
    let mut total = acc.iter().sum::<f32>();
    for i in chunks * LANES..n {
        total += a[i] * b[i];
    }
    total
}

/// `C[m,n] = A[m,k] @ B[k,n]`, all row-major, written into the
/// caller-provided `c` (which may hold garbage — every element is
/// overwritten).
fn gemm_nn_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    simd::gemm(m, k, n, a, BSrc::RowMajor(b), c, None, false);
}

/// Pool-allocating wrapper around [`gemm_nn_into`].
fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = pool::alloc_f32(m * n);
    gemm_nn_into(m, k, n, a, b, &mut c);
    c
}

/// Matrix product with PyTorch `matmul` semantics for ranks 1–3:
///
/// * 1-d @ 1-d → scalar (dot product)
/// * 2-d @ 2-d → matrix product
/// * 1-d @ 2-d / 2-d @ 1-d → vector-matrix / matrix-vector
/// * 3-d @ 3-d with equal leading (batch) dims → batched matmul
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let ad = a.as_f32()?;
    let bd = b.as_f32()?;
    let (ar, br) = (a.rank(), b.rank());
    match (ar, br) {
        (1, 1) => {
            dims_match("matmul", a.shape()[0], b.shape()[0], b.shape())?;
            Ok(Tensor::scalar(dot(ad, bd)))
        }
        (2, 2) => {
            let (m, k) = (a.shape()[0], a.shape()[1]);
            let (k2, n) = (b.shape()[0], b.shape()[1]);
            dims_match("matmul", k, k2, b.shape())?;
            Ok(Tensor::from_vec(gemm_nn(m, k, n, ad, bd), &[m, n]))
        }
        (1, 2) => {
            let k = a.shape()[0];
            let (k2, n) = (b.shape()[0], b.shape()[1]);
            dims_match("matmul", k, k2, b.shape())?;
            Ok(Tensor::from_vec(gemm_nn(1, k, n, ad, bd), &[n]))
        }
        (2, 1) => {
            let (m, k) = (a.shape()[0], a.shape()[1]);
            dims_match("matmul", k, b.shape()[0], b.shape())?;
            let mut c = pool::alloc_f32(m);
            simd::gemm(m, k, 1, ad, BSrc::Transposed(bd), &mut c, None, false);
            Ok(Tensor::from_vec(c, &[m]))
        }
        (3, 3) => {
            let (bs, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
            let (bs2, k2, n) = (b.shape()[0], b.shape()[1], b.shape()[2]);
            if bs != bs2 {
                return Err(Error::ShapeMismatch {
                    op: "matmul",
                    expected: format!("batch dim {bs}"),
                    got: b.shape().to_vec(),
                });
            }
            dims_match("matmul", k, k2, b.shape())?;
            let mut out = pool::alloc_f32(bs * m * n);
            for i in 0..bs {
                gemm_nn_into(
                    m,
                    k,
                    n,
                    &ad[i * m * k..(i + 1) * m * k],
                    &bd[i * k * n..(i + 1) * k * n],
                    &mut out[i * m * n..(i + 1) * m * n],
                );
            }
            Ok(Tensor::from_vec(out, &[bs, m, n]))
        }
        _ => Err(Error::InvalidArgument {
            op: "matmul",
            message: format!("unsupported rank combination {ar} @ {br}"),
        }),
    }
}

fn dims_match(op: &'static str, k: usize, k2: usize, got: &[usize]) -> Result<()> {
    if k != k2 {
        return Err(Error::ShapeMismatch {
            op,
            expected: format!("inner dimension {k}"),
            got: got.to_vec(),
        });
    }
    Ok(())
}

/// Affine map `y = x @ wᵀ + b` with `x: [.., in]`, `w: [out, in]`,
/// `b: [out]` — the `nn.Linear` kernel. Leading dimensions of `x` are
/// flattened into the GEMM `m` dimension.
pub fn linear(x: &Tensor, w: &Tensor, b: Option<&Tensor>) -> Result<Tensor> {
    linear_act(x, w, b, false)
}

/// [`linear`] with an optional fused ReLU epilogue, the hook the
/// backend engine's epilogue fusion lowers `linear+relu` through. Bias
/// and ReLU are applied during the GEMM write-back, elementwise
/// identical to running [`linear`] followed by `relu` (`+ bias` then
/// `max(0)` are the same float ops wherever they run).
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
    let mut out = pool::alloc_f32(m * out_f);
    // Bias and ReLU fused into the microkernel write-back.
    simd::gemm(
        m,
        in_f,
        out_f,
        xd,
        BSrc::Transposed(wd),
        &mut out,
        bias_slice,
        relu,
    );
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
            simd::gemm(m, k, n, ad, b_t, &mut nt, None, false);
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
