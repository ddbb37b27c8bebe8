//! The [`Tensor`] type: contiguous, row-major, reference-counted storage.
//!
//! Following the torch.fx paper's observation (§5.6) that forbidding
//! aliasing and mutation in the captured IR greatly simplifies transforms,
//! tensors here are **immutable values**: kernels always produce fresh
//! output storage, and `clone` is a cheap `Arc` bump. This makes the
//! functional-graph discipline of the IR trivially sound.

use crate::dtype::DType;
use crate::error::{Error, Result};
use crate::quant::{PackSlot, QScheme};
use crate::shape::numel;
use crate::rng::Rng;
use std::fmt;
use std::sync::Arc;

#[derive(PartialEq)]
pub(crate) enum Storage {
    F32(Vec<f32>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
    /// `packed` is empty until a quantized conv or linear reads this
    /// storage as its weight; it is not part of the value.
    QI8 { data: Vec<i8>, scheme: QScheme, packed: PackSlot },
}

/// An n-dimensional array with contiguous row-major storage.
///
/// Cloning a tensor shares the underlying buffer; all kernels are
/// functional (out-of-place).
#[derive(Clone, PartialEq)]
pub struct Tensor {
    storage: Arc<Storage>,
    shape: Vec<usize>,
}

impl Tensor {
    // ----- constructors ---------------------------------------------------

    /// Build an `f32` tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the element count of `shape`;
    /// this is a programming error at a construction site, not a runtime
    /// condition.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Tensor {
        assert_eq!(
            data.len(),
            numel(shape),
            "from_vec: buffer of {} elements does not fill shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            storage: Arc::new(Storage::F32(data)),
            shape: shape.to_vec(),
        }
    }

    /// Build an `i64` tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match `shape`.
    pub fn from_i64(data: Vec<i64>, shape: &[usize]) -> Tensor {
        assert_eq!(data.len(), numel(shape), "from_i64: length/shape mismatch");
        Tensor {
            storage: Arc::new(Storage::I64(data)),
            shape: shape.to_vec(),
        }
    }

    /// Build a `bool` tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match `shape`.
    pub fn from_bool(data: Vec<bool>, shape: &[usize]) -> Tensor {
        assert_eq!(data.len(), numel(shape), "from_bool: length/shape mismatch");
        Tensor {
            storage: Arc::new(Storage::Bool(data)),
            shape: shape.to_vec(),
        }
    }

    /// Build a quantized `i8` tensor from raw quantized values and a
    /// quantization scheme.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match `shape`, or if a
    /// per-channel scheme's channel count does not match the quantization
    /// axis length.
    pub fn from_qi8(data: Vec<i8>, shape: &[usize], scheme: QScheme) -> Tensor {
        assert_eq!(data.len(), numel(shape), "from_qi8: length/shape mismatch");
        if let QScheme::PerChannel { scales, axis, .. } = &scheme {
            assert_eq!(
                scales.len(),
                shape[*axis],
                "from_qi8: per-channel scheme has {} scales but axis {} has length {}",
                scales.len(),
                axis,
                shape[*axis]
            );
        }
        Tensor {
            storage: Arc::new(Storage::QI8 { data, scheme, packed: PackSlot::default() }),
            shape: shape.to_vec(),
        }
    }

    /// An `f32` tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Tensor {
        Tensor::from_vec(vec![value; numel(shape)], shape)
    }

    /// An all-zeros `f32` tensor.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 0.0)
    }

    /// An all-ones `f32` tensor.
    pub fn ones(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// A rank-0 (scalar) `f32` tensor.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::from_vec(vec![value], &[])
    }

    /// `[0, 1, ..., n-1]` as `i64`.
    pub fn arange(n: usize) -> Tensor {
        Tensor::from_i64((0..n as i64).collect(), &[n])
    }

    /// Standard-normal samples (Box–Muller over the supplied RNG), so model
    /// initialization is deterministic given a seeded RNG.
    pub fn randn<R: Rng>(shape: &[usize], rng: &mut R) -> Tensor {
        let n = numel(shape);
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        Tensor::from_vec(data, shape)
    }

    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform<R: Rng>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Tensor {
        let data = (0..numel(shape)).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor::from_vec(data, shape)
    }

    // ----- metadata -------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        numel(&self.shape)
    }

    /// The element type.
    pub fn dtype(&self) -> DType {
        match &*self.storage {
            Storage::F32(_) => DType::F32,
            Storage::I64(_) => DType::I64,
            Storage::Bool(_) => DType::Bool,
            Storage::QI8 { .. } => DType::QI8,
        }
    }

    /// Storage footprint in bytes (element data only).
    pub fn size_bytes(&self) -> usize {
        self.numel() * self.dtype().size_bytes()
    }

    /// The shared storage, for the quantized kernels that keep a
    /// weight's packed form in it.
    pub(crate) fn storage(&self) -> &Storage {
        &self.storage
    }

    /// The quantization scheme, if this is a quantized tensor.
    pub fn qscheme(&self) -> Option<&QScheme> {
        match &*self.storage {
            Storage::QI8 { scheme, .. } => Some(scheme),
            _ => None,
        }
    }

    // ----- data access ----------------------------------------------------

    /// The raw `f32` buffer, or an error for other dtypes.
    pub fn as_f32(&self) -> Result<&[f32]> {
        match &*self.storage {
            Storage::F32(v) => Ok(v),
            _ => Err(Error::DTypeMismatch {
                op: "as_f32",
                expected: DType::F32,
                got: self.dtype(),
            }),
        }
    }

    /// The raw `i64` buffer, or an error for other dtypes.
    pub fn as_i64(&self) -> Result<&[i64]> {
        match &*self.storage {
            Storage::I64(v) => Ok(v),
            _ => Err(Error::DTypeMismatch {
                op: "as_i64",
                expected: DType::I64,
                got: self.dtype(),
            }),
        }
    }

    /// The raw `bool` buffer, or an error for other dtypes.
    pub fn as_bool(&self) -> Result<&[bool]> {
        match &*self.storage {
            Storage::Bool(v) => Ok(v),
            _ => Err(Error::DTypeMismatch {
                op: "as_bool",
                expected: DType::Bool,
                got: self.dtype(),
            }),
        }
    }

    /// The raw quantized `i8` buffer, or an error for other dtypes.
    pub fn as_qi8(&self) -> Result<&[i8]> {
        match &*self.storage {
            Storage::QI8 { data, .. } => Ok(data),
            _ => Err(Error::DTypeMismatch {
                op: "as_qi8",
                expected: DType::QI8,
                got: self.dtype(),
            }),
        }
    }

    /// Extract the single element of a one-element `f32` tensor.
    pub fn item_f32(&self) -> Result<f32> {
        let data = self.as_f32()?;
        if data.len() != 1 {
            return Err(Error::ShapeMismatch {
                op: "item_f32",
                expected: "a one-element tensor".to_string(),
                got: self.shape.clone(),
            });
        }
        Ok(data[0])
    }

    // ----- cheap shape manipulation ----------------------------------------

    /// Reinterpret the buffer under a new shape with the same element
    /// count. Shares storage (no copy).
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        if numel(shape) != self.numel() {
            return Err(Error::ReshapeNumel {
                from: self.shape.clone(),
                to: shape.to_vec(),
            });
        }
        Ok(Tensor {
            storage: Arc::clone(&self.storage),
            shape: shape.to_vec(),
        })
    }

    /// Apply `f` to every element of an `f32` tensor, **in place** when
    /// this handle uniquely owns its storage (the common case for a
    /// freshly produced kernel output), copying otherwise.
    ///
    /// This is what lets the backend engine fuse activation epilogues
    /// onto conv/linear outputs without an extra allocation.
    pub fn map_inplace(self, f: impl Fn(f32) -> f32) -> Result<Tensor> {
        let shape = self.shape.clone();
        let mut storage = self.storage;
        match Arc::try_unwrap(storage) {
            Ok(Storage::F32(mut v)) => {
                v.iter_mut().for_each(|x| *x = f(*x));
                Ok(Tensor {
                    storage: Arc::new(Storage::F32(v)),
                    shape,
                })
            }
            Ok(other) => {
                storage = Arc::new(other);
                Err(Error::DTypeMismatch {
                    op: "map_inplace",
                    expected: DType::F32,
                    got: match &*storage {
                        Storage::I64(_) => DType::I64,
                        Storage::Bool(_) => DType::Bool,
                        _ => DType::QI8,
                    },
                })
            }
            Err(shared) => {
                let data = match &*shared {
                    Storage::F32(v) => v,
                    _ => {
                        return Err(Error::DTypeMismatch {
                            op: "map_inplace",
                            expected: DType::F32,
                            got: Tensor {
                                storage: shared.clone(),
                                shape,
                            }
                            .dtype(),
                        })
                    }
                };
                let mut out = crate::pool::alloc_empty::<f32>(data.len());
                out.extend(data.iter().map(|&x| f(x)));
                Ok(Tensor::from_vec(out, &shape))
            }
        }
    }

    /// Consume this handle and return the raw `f32` storage when it is
    /// uniquely owned; aliased or non-`f32` storage is dropped and
    /// `None` returned. This is how the executor's memory planner
    /// reclaims a dead intermediate's buffer for the pool without ever
    /// invalidating an outstanding view.
    pub fn try_take_f32(self) -> Option<Vec<f32>> {
        match Arc::try_unwrap(self.storage) {
            Ok(Storage::F32(v)) => Some(v),
            _ => None,
        }
    }

    /// [`Tensor::try_take_f32`] for quantized storage: consume this
    /// handle and return the raw `i8` payload (the scheme is dropped)
    /// when uniquely owned, `None` otherwise. Lets the dtype-aware pool
    /// reclaim dead int8 intermediates.
    pub fn try_take_qi8(self) -> Option<Vec<i8>> {
        match Arc::try_unwrap(self.storage) {
            Ok(Storage::QI8 { data, .. }) => Some(data),
            _ => None,
        }
    }

    /// [`Tensor::map_inplace`] for quantized storage: apply `f` to every
    /// `i8` element, reusing the buffer when uniquely owned and copying
    /// (through the pool) otherwise. The quantization scheme is carried
    /// over unchanged — this is for scheme-preserving unaries like the
    /// quantized ReLU clamp.
    pub fn map_inplace_qi8(self, f: impl Fn(i8) -> i8) -> Result<Tensor> {
        let shape = self.shape.clone();
        match Arc::try_unwrap(self.storage) {
            Ok(Storage::QI8 { mut data, scheme, .. }) => {
                data.iter_mut().for_each(|x| *x = f(*x));
                Ok(Tensor {
                    storage: Arc::new(Storage::QI8 { data, scheme, packed: PackSlot::default() }),
                    shape,
                })
            }
            Ok(other) => Err(Error::DTypeMismatch {
                op: "map_inplace_qi8",
                expected: DType::QI8,
                got: Tensor {
                    storage: Arc::new(other),
                    shape,
                }
                .dtype(),
            }),
            Err(shared) => {
                let (data, scheme) = match &*shared {
                    Storage::QI8 { data, scheme, .. } => (data, scheme.clone()),
                    _ => {
                        return Err(Error::DTypeMismatch {
                            op: "map_inplace_qi8",
                            expected: DType::QI8,
                            got: Tensor {
                                storage: shared.clone(),
                                shape,
                            }
                            .dtype(),
                        })
                    }
                };
                let mut out = crate::pool::alloc_empty::<i8>(data.len());
                out.extend(data.iter().map(|&x| f(x)));
                Ok(Tensor {
                    storage: Arc::new(Storage::QI8 { data: out, scheme, packed: PackSlot::default() }),
                    shape,
                })
            }
        }
    }

    // ----- comparison helpers ----------------------------------------------

    /// Largest absolute elementwise difference between two `f32` tensors of
    /// identical shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(Error::ShapeMismatch {
                op: "max_abs_diff",
                expected: format!("shape {:?}", self.shape),
                got: other.shape.clone(),
            });
        }
        let a = self.as_f32()?;
        let b = other.as_f32()?;
        Ok(a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max))
    }

    /// Whether two `f32` tensors are elementwise equal within `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        matches!(self.max_abs_diff(other), Ok(d) if d <= tol)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{} {:?}", self.dtype(), self.shape)?;
        const PREVIEW: usize = 6;
        match &*self.storage {
            Storage::F32(v) => preview(f, v, PREVIEW)?,
            Storage::I64(v) => preview(f, v, PREVIEW)?,
            Storage::Bool(v) => preview(f, v, PREVIEW)?,
            Storage::QI8 { data, scheme, .. } => {
                preview(f, data, PREVIEW)?;
                write!(f, " {scheme:?}")?;
            }
        }
        f.write_str("]")
    }
}

fn preview<T: fmt::Debug>(f: &mut fmt::Formatter<'_>, v: &[T], n: usize) -> fmt::Result {
    write!(f, " data=")?;
    let shown = &v[..v.len().min(n)];
    write!(f, "{shown:?}")?;
    if v.len() > n {
        write!(f, "…")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;
    use crate::rng::SeedableRng;

    #[test]
    fn construct_and_inspect() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.dtype(), DType::F32);
        assert_eq!(t.size_bytes(), 24);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn mismatched_buffer_panics() {
        let _ = Tensor::from_vec(vec![1.0], &[2, 2]);
    }

    #[test]
    fn scalar_has_empty_shape() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.shape(), &[] as &[usize]);
        assert_eq!(s.item_f32().unwrap(), 3.5);
    }

    #[test]
    fn item_rejects_multi_element() {
        assert!(Tensor::ones(&[2]).item_f32().is_err());
    }

    #[test]
    fn reshape_shares_storage() {
        let t = Tensor::arange(6);
        let r = Tensor::from_vec(vec![0.0; 6], &[6]).reshape(&[2, 3]).unwrap();
        assert_eq!(r.shape(), &[2, 3]);
        assert!(t.reshape(&[7]).is_err());
    }

    #[test]
    fn dtype_accessors_guard() {
        let f = Tensor::ones(&[2]);
        assert!(f.as_f32().is_ok());
        assert!(f.as_i64().is_err());
        assert!(f.as_bool().is_err());
        assert!(f.as_qi8().is_err());
        let i = Tensor::arange(3);
        assert_eq!(i.as_i64().unwrap(), &[0, 1, 2]);
        assert_eq!(i.dtype(), DType::I64);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = Tensor::randn(&[4, 4], &mut r1);
        let b = Tensor::randn(&[4, 4], &mut r2);
        assert_eq!(a, b);
        assert_eq!(a.numel(), 16);
    }

    #[test]
    fn randn_odd_element_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::randn(&[3], &mut rng);
        assert_eq!(t.numel(), 3);
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0, 2.5], &[2]);
        assert!((a.max_abs_diff(&b).unwrap() - 0.5).abs() < 1e-6);
        assert!(a.allclose(&b, 0.5));
        assert!(!a.allclose(&b, 0.4));
        assert!(!a.allclose(&Tensor::ones(&[3]), 1.0));
    }

    #[test]
    fn map_inplace_unique_and_shared() {
        // Unique: mutates without reallocating semantics change.
        let t = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        let r = t.map_inplace(|x| x * 2.0).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[2.0, -4.0]);
        // Shared: original must stay intact.
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let keep = t.clone();
        let r = t.map_inplace(|x| x + 1.0).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[2.0, 3.0]);
        assert_eq!(keep.as_f32().unwrap(), &[1.0, 2.0]);
        // Non-f32 errors.
        assert!(Tensor::arange(3).map_inplace(|x| x).is_err());
    }

    #[test]
    fn debug_is_summarized() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.contains("…"), "large tensors must be elided: {s}");
        assert!(s.len() < 120);
    }
}
