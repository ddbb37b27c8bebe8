//! Batch stacking and splitting along dim 0 — the tensor substrate of
//! the `fx_serve` dynamic batcher.
//!
//! A batch of requests is coalesced by concatenating each request's
//! tensor along the leading (batch) dimension, executed once, and the
//! outputs are split back to per-request slices. Because storage is
//! contiguous row-major, dim-0 stacking and splitting are pure buffer
//! concatenation/slicing: no strides, no reordering — which is also why
//! batching cannot perturb numerics (every sample's rows are bitwise
//! the same rows the solo run would see).
//!
//! Mismatches are reported with [`Error::BatchMismatch`], which names
//! the offending member by index so a server can fail *that request*
//! without poisoning the rest of the coalesced batch.

use crate::dtype::DType;
use crate::error::{Error, Result};
use crate::tensor::Tensor;

/// Per-sample element count under the leading dimension (product of the
/// trailing dims).
fn inner_numel(shape: &[usize]) -> usize {
    shape[1..].iter().product()
}

/// Validate one batch member against the template shape/dtype, naming it
/// by `index` on mismatch.
fn check_member(op: &'static str, index: usize, t: &Tensor, template: &Tensor) -> Result<()> {
    if t.rank() == 0 {
        return Err(Error::BatchMismatch {
            op,
            index,
            expected: "a tensor with a leading batch dimension".to_string(),
            got: "a 0-d scalar".to_string(),
        });
    }
    if t.rank() != template.rank() || t.shape()[1..] != template.shape()[1..] {
        return Err(Error::BatchMismatch {
            op,
            index,
            expected: format!(
                "trailing dims {:?} (any leading extent)",
                &template.shape()[1..]
            ),
            got: format!("shape {:?}", t.shape()),
        });
    }
    if t.dtype() != template.dtype() {
        return Err(Error::BatchMismatch {
            op,
            index,
            expected: format!("dtype {}", template.dtype()),
            got: format!("dtype {}", t.dtype()),
        });
    }
    // Quantized members must also agree on quantization parameters:
    // concatenating int8 rows with different scales would silently
    // reinterpret every sample's values.
    if t.dtype() == DType::QI8 && t.qscheme() != template.qscheme() {
        return Err(Error::BatchMismatch {
            op,
            index,
            expected: format!("qscheme {:?}", template.qscheme()),
            got: format!("qscheme {:?}", t.qscheme()),
        });
    }
    Ok(())
}

/// Stack `parts` along dim 0: `[b0, D..] + [b1, D..] + ... -> [Σb, D..]`.
///
/// All members must agree on rank, trailing dims and dtype (`f32` or
/// `i64`); the first member is the template. A disagreeing member is
/// reported as [`Error::BatchMismatch`] carrying its index, so callers
/// coalescing independent requests can evict exactly the offender.
pub fn stack_batch(parts: &[&Tensor]) -> Result<Tensor> {
    let first = parts.first().ok_or(Error::InvalidArgument {
        op: "stack_batch",
        message: "need at least one tensor".to_string(),
    })?;
    if first.rank() == 0 {
        return Err(Error::BatchMismatch {
            op: "stack_batch",
            index: 0,
            expected: "a tensor with a leading batch dimension".to_string(),
            got: "a 0-d scalar".to_string(),
        });
    }
    for (i, t) in parts.iter().enumerate().skip(1) {
        check_member("stack_batch", i, t, first)?;
    }
    let total: usize = parts.iter().map(|t| t.shape()[0]).sum();
    let mut shape = first.shape().to_vec();
    shape[0] = total;
    match first.dtype() {
        DType::F32 => {
            let mut out = Vec::with_capacity(total * inner_numel(&shape));
            for t in parts {
                out.extend_from_slice(t.as_f32()?);
            }
            Ok(Tensor::from_vec(out, &shape))
        }
        DType::I64 => {
            let mut out = Vec::with_capacity(total * inner_numel(&shape));
            for t in parts {
                out.extend_from_slice(t.as_i64()?);
            }
            Ok(Tensor::from_i64(out, &shape))
        }
        DType::QI8 => {
            let scheme = first
                .qscheme()
                .expect("qi8 tensor always has a scheme")
                .clone();
            let mut out = crate::pool::alloc_empty::<i8>(total * inner_numel(&shape));
            for t in parts {
                out.extend_from_slice(t.as_qi8()?);
            }
            Ok(Tensor::from_qi8(out, &shape, scheme))
        }
        other => Err(Error::BatchMismatch {
            op: "stack_batch",
            index: 0,
            expected: "dtype f32, i64, or qi8".to_string(),
            got: format!("dtype {other}"),
        }),
    }
}

/// Split `t` along dim 0 into pieces of the given row counts (the
/// inverse of [`stack_batch`]). The sizes must sum to `t.shape()[0]`.
pub fn split_batch(t: &Tensor, sizes: &[usize]) -> Result<Vec<Tensor>> {
    if t.rank() == 0 {
        return Err(Error::ShapeMismatch {
            op: "split_batch",
            expected: "a tensor with a leading batch dimension".to_string(),
            got: t.shape().to_vec(),
        });
    }
    let total: usize = sizes.iter().sum();
    if total != t.shape()[0] {
        return Err(Error::ShapeMismatch {
            op: "split_batch",
            expected: format!("sizes {sizes:?} summing to the leading extent"),
            got: t.shape().to_vec(),
        });
    }
    let inner = inner_numel(t.shape());
    let mut out = Vec::with_capacity(sizes.len());
    let mut row = 0usize;
    for &rows in sizes {
        let mut shape = t.shape().to_vec();
        shape[0] = rows;
        let piece = match t.dtype() {
            DType::F32 => Tensor::from_vec(
                t.as_f32()?[row * inner..(row + rows) * inner].to_vec(),
                &shape,
            ),
            DType::I64 => Tensor::from_i64(
                t.as_i64()?[row * inner..(row + rows) * inner].to_vec(),
                &shape,
            ),
            DType::QI8 => {
                let mut piece = crate::pool::alloc_empty::<i8>(rows * inner);
                piece.extend_from_slice(&t.as_qi8()?[row * inner..(row + rows) * inner]);
                Tensor::from_qi8(
                    piece,
                    &shape,
                    t.qscheme().expect("qi8 tensor always has a scheme").clone(),
                )
            }
            other => {
                return Err(Error::InvalidArgument {
                    op: "split_batch",
                    message: format!("unsupported dtype {other}"),
                })
            }
        };
        out.push(piece);
        row += rows;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_then_split_roundtrips() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0], &[1, 2]);
        let c = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let stacked = stack_batch(&[&a, &b, &c]).unwrap();
        assert_eq!(stacked.shape(), &[6, 2]);
        assert_eq!(
            stacked.as_f32().unwrap(),
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0]
        );
        let parts = split_batch(&stacked, &[2, 1, 3]).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
        assert_eq!(parts[2], c);
    }

    #[test]
    fn stack_i64() {
        let a = Tensor::from_i64(vec![1, 2], &[1, 2]);
        let b = Tensor::from_i64(vec![3, 4], &[1, 2]);
        let s = stack_batch(&[&a, &b]).unwrap();
        assert_eq!(s.as_i64().unwrap(), &[1, 2, 3, 4]);
        let back = split_batch(&s, &[1, 1]).unwrap();
        assert_eq!(back[1], b);
    }

    #[test]
    fn mismatch_names_the_offender() {
        let good = Tensor::ones(&[1, 4]);
        let also_good = Tensor::ones(&[2, 4]);
        let bad = Tensor::ones(&[1, 5]);
        let err = stack_batch(&[&good, &also_good, &bad]).unwrap_err();
        match err {
            Error::BatchMismatch { index, .. } => assert_eq!(index, 2),
            other => panic!("expected BatchMismatch, got {other:?}"),
        }
        let msg = stack_batch(&[&good, &bad]).unwrap_err().to_string();
        assert!(msg.contains("#1"), "message names the member: {msg}");
        assert!(msg.contains("[1, 5]"), "message shows the bad shape: {msg}");
    }

    #[test]
    fn dtype_mismatch_names_the_offender() {
        let f = Tensor::ones(&[1, 2]);
        let i = Tensor::from_i64(vec![1, 2], &[1, 2]);
        let err = stack_batch(&[&f, &i]).unwrap_err();
        match err {
            Error::BatchMismatch { index, .. } => assert_eq!(index, 1),
            other => panic!("expected BatchMismatch, got {other:?}"),
        }
    }

    #[test]
    fn stack_and_split_qi8_preserve_bytes_and_scheme() {
        let scheme = crate::quant::QScheme::PerTensor {
            scale: 0.05,
            zero_point: -3,
        };
        let a = Tensor::from_qi8(vec![1, -2, 3, -4], &[2, 2], scheme.clone());
        let b = Tensor::from_qi8(vec![5, 6], &[1, 2], scheme.clone());
        let s = stack_batch(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(s.as_qi8().unwrap(), &[1, -2, 3, -4, 5, 6]);
        assert_eq!(s.qscheme(), Some(&scheme));
        let back = split_batch(&s, &[2, 1]).unwrap();
        assert_eq!(back[0].as_qi8().unwrap(), a.as_qi8().unwrap());
        assert_eq!(back[1].as_qi8().unwrap(), b.as_qi8().unwrap());
        assert_eq!(back[0].qscheme(), Some(&scheme));
    }

    #[test]
    fn qi8_scheme_mismatch_names_the_offender() {
        let s1 = crate::quant::QScheme::PerTensor {
            scale: 0.05,
            zero_point: 0,
        };
        let s2 = crate::quant::QScheme::PerTensor {
            scale: 0.06,
            zero_point: 0,
        };
        let a = Tensor::from_qi8(vec![1, 2], &[1, 2], s1.clone());
        let b = Tensor::from_qi8(vec![3, 4], &[1, 2], s2);
        let err = stack_batch(&[&a, &b]).unwrap_err();
        match err {
            Error::BatchMismatch { index, .. } => assert_eq!(index, 1),
            other => panic!("expected BatchMismatch, got {other:?}"),
        }
    }

    #[test]
    fn split_validates_sizes() {
        let t = Tensor::ones(&[4, 2]);
        assert!(split_batch(&t, &[2, 1]).is_err());
        assert!(split_batch(&t, &[2, 2]).is_ok());
        assert!(split_batch(&t, &[4]).is_ok());
        assert!(split_batch(&t, &[0, 4]).is_ok());
    }

    #[test]
    fn scalars_are_rejected() {
        let s = Tensor::scalar(1.0);
        assert!(stack_batch(&[&s]).is_err());
        assert!(split_batch(&s, &[1]).is_err());
    }
}
