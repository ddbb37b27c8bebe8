//! Int8 affine quantization kernels, modeled on the FBGEMM operation set
//! used by the torch.fx paper's Post-Training Quantization evaluation
//! (§6.2.1): quantize/dequantize, quantized linear and conv with `i32`
//! accumulation and requantization, quantized add and ReLU.
//!
//! Activations use **per-tensor** affine quantization (scale + zero
//! point); weights use **symmetric per-channel** quantization (zero point
//! 0, one scale per output channel), matching FBGEMM defaults.
//!
//! ## One engine
//!
//! The linear/conv matmul core is `ops::simd`'s `gemm_i8` at
//! every `FX_SIMD` level: the one GEMM driver over int8 k-quad tiles
//! (`vpdpbusd`, with VNNI) or k-pair ones (`vpmaddwd`, or the portable
//! tile at level `0`),
//! exact i32 accumulation, requantization fused into its write-back
//! through `requant_one` or its op-for-op vector twin. Every tile's
//! `i8` outputs are therefore **bit-identical** — `FX_SIMD` changes
//! speed, never bytes (a stronger guarantee than the f32 kernels, whose
//! portable and FMA tiles differ within a documented ULP bound). The
//! oracle they are held to, a direct convolution over the same
//! coefficients, lives in the tests.
//!
//! The elementwise kernels — [`quantize_per_tensor`],
//! [`quantize_per_channel`] and [`quantized_add`] — likewise run
//! `simd`'s quantize lane at the process's vector width and the scalar
//! `quantize_one` under `FX_SIMD=0`, with identical bytes; the ReLU is an
//! i8 max the compiler vectorizes on its own.
//!
//! Kernel outputs and scratch (packed panels, the padded conv input,
//! the i32 sums, the coefficient vectors) are drawn from the dtype-aware
//! [`crate::pool`], so a planned executor run of a quantized graph
//! recycles int8 buffers exactly as it does f32 ones.

use crate::error::{Error, Result};
use crate::ops::conv::{out_extent, with_patches};
use crate::ops::simd::{self, BSrc, Int8, PatchSrc, Quad};
use crate::pool;
use crate::tensor::{Storage, Tensor};
use std::borrow::Cow;
use std::sync::OnceLock;

/// Quantized value range for signed 8-bit storage.
pub const QMIN: i32 = -128;
/// See [`QMIN`].
pub const QMAX: i32 = 127;

/// Affine quantization parameters attached to a quantized tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum QScheme {
    /// One `(scale, zero_point)` pair for the whole tensor; used for
    /// activations.
    PerTensor {
        /// Step size between representable real values.
        scale: f32,
        /// Quantized value that represents real `0.0`.
        zero_point: i32,
    },
    /// One scale per slice along `axis` with zero point fixed at 0
    /// (symmetric); used for weights, `axis` = output-channel dim.
    PerChannel {
        /// Per-channel step sizes.
        scales: Vec<f32>,
        /// Channel dimension the scales index.
        axis: usize,
    },
}

impl QScheme {
    /// The single scale of a per-tensor scheme.
    pub fn per_tensor_params(&self) -> Result<(f32, i32)> {
        match self {
            QScheme::PerTensor { scale, zero_point } => Ok((*scale, *zero_point)),
            QScheme::PerChannel { .. } => Err(Error::InvalidArgument {
                op: "per_tensor_params",
                message: "tensor is per-channel quantized".to_string(),
            }),
        }
    }
}

/// Choose `(scale, zero_point)` covering `[min, max]` with the affine int8
/// mapping `real = scale * (q - zero_point)`, as PyTorch's MinMax observer
/// does: the range is widened to include 0 so that zero is exactly
/// representable.
pub fn choose_qparams(min: f32, max: f32) -> (f32, i32) {
    let min = min.min(0.0);
    let max = max.max(0.0);
    let span = (max - min).max(f32::EPSILON);
    let scale = span / (QMAX - QMIN) as f32;
    let zero_point = (QMIN as f32 - min / scale).round() as i32;
    (scale, zero_point.clamp(QMIN, QMAX))
}

/// The scalar oracle of every quantize step: `x / scale` rounded half
/// away from zero (`f32::round`), plus the zero point, clamped to i8.
/// The cast saturates (`±inf` and anything past `±2³¹` land on the i32
/// limits, NaN on 0) and so does the add, so a huge `x` clamps to the
/// side it is on whatever the zero point. [`simd`]'s quantize lane
/// reproduces it bit for bit.
#[inline]
pub(crate) fn quantize_one(x: f32, scale: f32, zero_point: i32) -> i8 {
    ((x / scale).round() as i32).saturating_add(zero_point).clamp(QMIN, QMAX) as i8
}

/// [`quantized_add`]'s element: both operands dequantized, summed as a
/// separate mul, mul and add, and quantized to `(out_scale, out_zp)`.
#[inline]
pub(crate) fn add_one(x: i8, y: i8, (sa, za): (f32, i32), (sb, zb): (f32, i32), (out_scale, out_zp): (f32, i32)) -> i8 {
    let real = (x as i32 - za) as f32 * sa + (y as i32 - zb) as f32 * sb;
    quantize_one(real, out_scale, out_zp)
}

/// `out[i] = quantize_one(x[i], scale, zp)`: through the quantize lane
/// when a SIMD level runs, else the scalar oracle.
fn quantize_into(x: &[f32], scale: f32, zp: i32, out: &mut [i8]) {
    match simd::quant_lane(zp) {
        Some(lane) => lane.quantize(x, scale, zp, out),
        None => {
            for (q, &v) in out.iter_mut().zip(x) {
                *q = quantize_one(v, scale, zp);
            }
        }
    }
}

/// `(min, max)` of `init` and every non-NaN value of `x` — exactly what
/// folding `f32::min` / `f32::max` over `x` from `init` gives, up to the
/// sign of a zero — as 16 independent lanes per bound, which compile to
/// vector compares at the baseline ISA (a fold is one serial chain).
pub fn min_max(x: &[f32], init: (f32, f32)) -> (f32, f32) {
    const LANES: usize = 16;
    let (mut lo, mut hi) = ([init.0; LANES], [init.1; LANES]);
    let mut chunks = x.chunks_exact(LANES);
    for c in &mut chunks {
        for i in 0..LANES {
            lo[i] = if c[i] < lo[i] { c[i] } else { lo[i] };
            hi[i] = if c[i] > hi[i] { c[i] } else { hi[i] };
        }
    }
    let tail = chunks.remainder();
    let (mut min, mut max) = init;
    for &v in lo.iter().chain(tail) {
        min = if v < min { v } else { min };
    }
    for &v in hi.iter().chain(tail) {
        max = if v > max { v } else { max };
    }
    (min, max)
}

/// Requantize one zero-point-corrected i32 accumulator to `i8`:
/// `round_ne(acc·mult + badd [max 0]) + out_zp`, clamped to the i8
/// range, where `mult = x_scale·w_scale/out_scale` and `badd =
/// bias/out_scale` are the per-output-channel coefficients
/// [`QGemm::new`] precomputes once per call.
///
/// The portable tiles' epilogue calls it per element. Every step has an
/// exact vector counterpart (`as f32` = `cvtdq2ps`, the `> 0.0` select =
/// `maxps(v, 0)`, `round_ties_even() as i32` = `cvtps2dq` — PyTorch's
/// quantization rounding), which is what keeps the vectorized epilogue
/// bit-identical to it lane for lane at either width. Assumes
/// `|acc·mult + badd| < 2³¹` (true for any calibrated scales: `|acc| ≤
/// k·2¹⁴` and `mult` is a ratio of comparable scales), where the scalar
/// cast saturates but `cvtps2dq` wraps to a sentinel.
#[inline]
pub(crate) fn requant_one(acc: i32, mult: f32, badd: f32, relu: bool, out_zp: i32) -> i8 {
    let mut v = acc as f32 * mult + badd;
    if relu {
        v = if v > 0.0 { v } else { 0.0 };
    }
    (v.round_ties_even() as i32 + out_zp).clamp(QMIN, QMAX) as i8
}

/// Quantize an `f32` tensor with per-tensor affine parameters.
pub fn quantize_per_tensor(x: &Tensor, scale: f32, zero_point: i32) -> Result<Tensor> {
    let data = x.as_f32()?;
    let mut q = pool::alloc::<i8>(data.len());
    quantize_into(data, scale, zero_point, &mut q);
    Ok(Tensor::from_qi8(
        q,
        x.shape(),
        QScheme::PerTensor { scale, zero_point },
    ))
}

/// Symmetric per-channel quantization along `axis` (weights). Each
/// channel's scale is `max(|w|)/127`.
pub fn quantize_per_channel(w: &Tensor, axis: usize) -> Result<Tensor> {
    let data = w.as_f32()?;
    let shape = w.shape();
    if axis >= shape.len() {
        return Err(Error::AxisOutOfRange {
            op: "quantize_per_channel",
            axis: axis as i64,
            rank: shape.len(),
        });
    }
    let channels = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    // The data is `[outer, channels, inner]`: run `r` is channel `r % channels`.
    let runs = data.chunks(inner.max(1));
    let mut scales = vec![f32::EPSILON; channels];
    for (r, run) in runs.clone().enumerate() {
        let (lo, hi) = min_max(run, (0.0, 0.0));
        let c = r % channels;
        scales[c] = scales[c].max(hi.max(-lo) / QMAX as f32);
    }
    let mut q = vec![0; data.len()];
    for (r, (run, dst)) in runs.zip(q.chunks_mut(inner.max(1))).enumerate() {
        quantize_into(run, scales[r % channels], 0, dst);
    }
    Ok(Tensor::from_qi8(q, shape, QScheme::PerChannel { scales, axis }))
}

/// Dequantize back to `f32`.
pub fn dequantize(q: &Tensor) -> Result<Tensor> {
    let data = q.as_qi8()?;
    let scheme = q.qscheme().expect("qi8 tensor always has a scheme");
    let mut out = pool::alloc_empty::<f32>(data.len());
    match scheme {
        QScheme::PerTensor { scale, zero_point } => {
            out.extend(data.iter().map(|&v| (v as i32 - zero_point) as f32 * scale));
        }
        QScheme::PerChannel { scales, axis } => {
            let shape = q.shape();
            let channels = shape[*axis];
            let inner: usize = shape[*axis + 1..].iter().product();
            out.extend(
                data.iter()
                    .enumerate()
                    .map(|(i, &v)| v as f32 * scales[(i / inner) % channels]),
            );
        }
    }
    Ok(Tensor::from_vec(out, q.shape()))
}

/// Quantized ReLU's element, `(v as i32).max(zp) as i8`, written as an
/// i8 max (the zero point clamped to i8, which is the same value unless
/// it lies above `QMAX`, where every output is `zp as i8`) so the
/// compiler vectorizes it; the widened form stays scalar.
fn relu_one(zp: i32) -> impl Fn(i8) -> i8 {
    let floor = zp.clamp(QMIN, QMAX) as i8;
    let above = (zp > QMAX).then_some(zp as i8);
    move |v| above.unwrap_or(v.max(floor))
}

/// Quantized ReLU: clamps quantized values at the zero point (exactly
/// real 0.0), without leaving the int8 domain.
pub fn quantized_relu(q: &Tensor) -> Result<Tensor> {
    let (_, zp) = activation_qparams("quantized_relu", q)?;
    let relu = relu_one(zp);
    let data = q.as_qi8()?;
    let mut out = pool::alloc_empty::<i8>(data.len());
    out.extend(data.iter().map(|&v| relu(v)));
    Ok(Tensor::from_qi8(out, q.shape(), q.qscheme().expect("checked above").clone()))
}

/// In-place [`quantized_relu`]: reuses the input's storage when this
/// handle uniquely owns it (the executor's planned in-place unary for
/// quantized graphs), copying through the pool otherwise. Byte-for-byte
/// the same result as the out-of-place kernel.
pub fn quantized_relu_inplace(q: Tensor) -> Result<Tensor> {
    let (_, zp) = activation_qparams("quantized_relu", &q)?;
    q.map_inplace_qi8(relu_one(zp))
}

/// Quantized elementwise add: dequantize both operands, add, requantize to
/// the given output parameters (PyTorch's `quantized::add` semantics).
pub fn quantized_add(a: &Tensor, b: &Tensor, out_scale: f32, out_zp: i32) -> Result<Tensor> {
    if a.shape() != b.shape() {
        return Err(Error::ShapeMismatch {
            op: "quantized_add",
            expected: format!("shape {:?}", a.shape()),
            got: b.shape().to_vec(),
        });
    }
    let qa = activation_qparams("quantized_add", a)?;
    let qb = activation_qparams("quantized_add", b)?;
    let qo = (out_scale, out_zp);
    let da = a.as_qi8()?;
    let db = b.as_qi8()?;
    let mut out = pool::alloc::<i8>(da.len());
    match simd::quant_lane(out_zp) {
        Some(lane) => lane.add(da, db, qa, qb, qo, &mut out),
        None => {
            for ((q, &x), &y) in out.iter_mut().zip(da).zip(db) {
                *q = add_one(x, y, qa, qb, qo);
            }
        }
    }
    Ok(Tensor::from_qi8(
        out,
        a.shape(),
        QScheme::PerTensor {
            scale: out_scale,
            zero_point: out_zp,
        },
    ))
}

/// Per-output-channel weight scales, broadcast from a per-tensor scheme if
/// necessary.
fn weight_scales(w: &Tensor, out_features: usize) -> Result<Vec<f32>> {
    match w.qscheme() {
        Some(QScheme::PerChannel { scales, axis: 0 }) => Ok(scales.clone()),
        Some(QScheme::PerTensor { scale, zero_point: 0 }) => Ok(vec![*scale; out_features]),
        _ => Err(Error::InvalidArgument {
            op: "quantized_linear",
            message: "weights must be symmetrically quantized (per-channel axis 0 or per-tensor with zero point 0)"
                .to_string(),
        }),
    }
}

fn weight_row_sums(w: &[i8], out_features: usize, k: usize) -> Vec<i32> {
    (0..out_features)
        .map(|o| w[o * k..(o + 1) * k].iter().map(|&v| v as i32).sum())
        .collect()
}

/// Everything about a quantized weight tensor, read as `[n, k]`, that
/// is invariant across inference calls: its per-output-channel scales,
/// its row sums (the activation zero point folds out of the GEMM through
/// them, FBGEMM's row-offset identity `Σ(x−zp)·w = Σx·w − zp·Σw`) and —
/// built lazily, on first use, for the int8 element the process runs —
/// any copy the GEMM reads instead of the raw rows. Quads read the raw
/// rows in place, so `quads` is filled only when `k % 4 ≠ 0` (rows padded
/// to whole quads); pairs widen a conv's A into `pairs` and pack a
/// linear's B into `panels`, 2 bytes a weight.
#[derive(Clone)]
pub(crate) struct PrepackedWeights {
    n: usize,
    k: usize,
    scales: Vec<f32>,
    row_sums: Vec<i32>,
    quads: OnceLock<Vec<Quad>>,
    pairs: OnceLock<Vec<i32>>,
    panels: OnceLock<Vec<i32>>,
}

/// The packed form a quantized weight's storage owns, filled by the
/// first quantized conv or linear that reads it, so it lives and dies
/// with the weight: packing amortizes to zero in steady-state serving,
/// and a dropped (swapped-out) model frees it at once. Boxed, so an
/// activation's storage grows by a pointer and a once-flag (16 bytes);
/// not part of the tensor's value, so equality ignores it.
#[derive(Default)]
pub(crate) struct PackSlot(OnceLock<Box<PrepackedWeights>>);

impl PartialEq for PackSlot {
    fn eq(&self, _: &PackSlot) -> bool {
        true
    }
}

/// `w`'s packed form read as `[n, k]`: the one its storage owns, or —
/// for a call that reads the storage under another view than the one
/// that filled the slot — a form built for this call only.
fn prepack_weights(w: &Tensor, n: usize, k: usize) -> Result<Cow<'_, PrepackedWeights>> {
    let build = || -> Result<PrepackedWeights> {
        let (scales, row_sums) = (weight_scales(w, n)?, weight_row_sums(w.as_qi8()?, n, k));
        let (quads, pairs, panels) = (OnceLock::new(), OnceLock::new(), OnceLock::new());
        Ok(PrepackedWeights { n, k, scales, row_sums, quads, pairs, panels })
    };
    let Storage::QI8 { packed: PackSlot(slot), .. } = w.storage() else {
        return build().map(Cow::Owned);
    };
    let kept = match slot.get() {
        Some(p) => p,
        None => {
            let p = Box::new(build()?);
            slot.get_or_init(|| p)
        }
    };
    if (kept.n, kept.k) == (n, k) {
        Ok(Cow::Borrowed(kept))
    } else {
        build().map(Cow::Owned)
    }
}

/// One quantized linear or conv call, lowered to
/// `out[img, i, patch] = requant(Σₖ w[i][k]·b[k][img·p + patch])` over
/// the weight `[o, k]`: the prepacked weight plus the per-output-row
/// requantization coefficients — `zp_corr = (x_zp + OFFSET)·Σₖ w`
/// (the element's [`Int8::OFFSET`]), `mult = x_scale·w_scale/out_scale`,
/// `badd = bias/out_scale` — computed **here, once**, so every tile
/// requantizes identical coefficients.
struct QGemm<'a> {
    w: &'a [i8],
    k: usize,
    prep: Cow<'a, PrepackedWeights>,
    zp_corr: Vec<i32>,
    mult: Vec<f32>,
    badd: Vec<f32>,
    relu: bool,
    out_zp: i32,
}

impl<'a> QGemm<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        op: &'static str,
        w: &'a Tensor,
        o: usize,
        k: usize,
        (x_scale, x_zp): (f32, i32),
        bias: Option<&Tensor>,
        (out_scale, out_zp): (f32, i32),
        relu: bool,
    ) -> Result<Self> {
        let prep = prepack_weights(w, o, k)?;
        let inv_out = 1.0 / out_scale;
        let mut badd = pool::alloc_empty::<f32>(o);
        match bias {
            Some(b) if b.numel() != o => {
                return Err(Error::ShapeMismatch {
                    op,
                    expected: format!("bias of length {o}"),
                    got: b.shape().to_vec(),
                })
            }
            Some(b) => badd.extend(b.as_f32()?.iter().map(|&v| v * inv_out)),
            None => badd.resize(o, 0.0),
        }
        let mut mult = pool::alloc_empty::<f32>(o);
        mult.extend(prep.scales.iter().map(|&ws| x_scale * ws * inv_out));
        let offset = if simd::quads() { Quad::OFFSET } else { i32::OFFSET };
        let mut zp_corr = pool::alloc::<i32>(o);
        for (c, &s) in zp_corr.iter_mut().zip(&prep.row_sums) {
            *c = x_zp.wrapping_add(offset).wrapping_mul(s);
        }
        Ok(QGemm { w: w.as_qi8()?, k, prep, zp_corr, mult, badd, relu, out_zp })
    }

    fn requant(&self, per_col: bool) -> simd::Requant<'_> {
        simd::Requant {
            zp_corr: &self.zp_corr,
            mult: &self.mult,
            badd: &self.badd,
            per_col,
            relu: self.relu,
            out_zp: self.out_zp,
        }
    }

    /// The weight as quad rows, if this process runs quads: the raw rows
    /// in place, or padded ones built once.
    fn quads(&self) -> Option<&[Quad]> {
        simd::quads().then(|| match self.k % 4 {
            0 => self.w.as_chunks().0,
            _ => self.prep.quads.get_or_init(|| simd::quad_rows(self.w, self.k)),
        })
    }

    /// A conv: the weight is A, the `cols` patches, `p` per image, are B,
    /// so each output row is a channel and lands as NCHW spans.
    fn run_conv(&self, patches: &PatchSrc<i8>, cols: usize, p: usize, out: &mut [i8]) {
        let (o, k, rq) = (self.zp_corr.len(), self.k, self.requant(false));
        if let Some(quads) = self.quads() {
            return simd::gemm_i8(o, k, cols, quads, BSrc::Patches(patches), &rq, p, out);
        }
        let pairs = self.prep.pairs.get_or_init(|| {
            simd::pair_rows(self.w, k, Vec::with_capacity(o * k.div_ceil(2)))
        });
        simd::gemm_i8(o, k, cols, pairs, BSrc::Patches(patches), &rq, p, out);
    }

    /// A linear. Under quads it is a conv over `rows` one-patch images
    /// (the input rows `x` are B), so `[rows, o, 1]` is row-major. Under
    /// pairs the input rows are A (widened per call — 1/`o` of the work)
    /// and the weight is B, packed once, so a one-row request reads each
    /// weight once, as part of a vector.
    fn run_linear(&self, x: &[i8], rows: usize, out: &mut [i8]) {
        let (o, k) = (self.zp_corr.len(), self.k);
        if let Some(quads) = self.quads() {
            return simd::gemm_i8(o, k, rows, quads, BSrc::Transposed(x), &self.requant(false), 1, out);
        }
        let panels = self.prep.panels.get_or_init(|| simd::prepack_b(self.w, o, k));
        let a = simd::pair_rows(x, k, pool::alloc_empty(rows * k.div_ceil(2)));
        simd::gemm_i8(rows, k, o, &a, BSrc::Packed(panels), &self.requant(true), o.max(1), out);
        pool::recycle::<i32>(a);
    }

    fn recycle(self) {
        pool::recycle::<i32>(self.zp_corr);
        pool::recycle::<f32>(self.mult);
        pool::recycle::<f32>(self.badd);
    }
}

/// The per-tensor parameters of a quantized activation, or the typed
/// error for anything else.
fn activation_qparams(op: &'static str, x: &Tensor) -> Result<(f32, i32)> {
    x.qscheme()
        .ok_or(Error::DTypeMismatch { op, expected: crate::DType::QI8, got: x.dtype() })?
        .per_tensor_params()
}

/// Quantized linear layer: `y = quantize(dequant(x) @ dequant(w)ᵀ + bias)`.
///
/// * `x` — per-tensor quantized activations, shape `[.., in_features]`.
/// * `w` — symmetrically quantized weights, shape `[out_features, in_features]`.
/// * `bias` — optional `f32` bias, shape `[out_features]`.
/// * `relu` — fuse a ReLU before requantization.
pub fn quantized_linear(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    out_scale: f32,
    out_zp: i32,
    relu: bool,
) -> Result<Tensor> {
    let x_q = activation_qparams("quantized_linear", x)?;
    let w_shape = w.shape();
    if w_shape.len() != 2 {
        return Err(Error::ShapeMismatch {
            op: "quantized_linear",
            expected: "2-d weight [out, in]".to_string(),
            got: w_shape.to_vec(),
        });
    }
    let (o, k) = (w_shape[0], w_shape[1]);
    let x_shape = x.shape();
    if x_shape.last().copied() != Some(k) {
        return Err(Error::ShapeMismatch {
            op: "quantized_linear",
            expected: format!("input with last dim {k}"),
            got: x_shape.to_vec(),
        });
    }
    let m: usize = x_shape[..x_shape.len() - 1].iter().product();
    let xq = x.as_qi8()?;
    let g = QGemm::new("quantized_linear", w, o, k, x_q, bias, (out_scale, out_zp), relu)?;
    let mut out = pool::alloc::<i8>(m * o);
    g.run_linear(xq, m, &mut out);
    g.recycle();
    let mut out_shape = x_shape.to_vec();
    *out_shape.last_mut().expect("rank checked above") = o;
    let scheme = QScheme::PerTensor { scale: out_scale, zero_point: out_zp };
    Ok(Tensor::from_qi8(out, &out_shape, scheme))
}

/// Quantized 2-d convolution with the same requantization epilogue as
/// [`quantized_linear`].
///
/// `x` is `[N, C, H, W]` per-tensor quantized; `w` is `[O, C, kh, kw]`
/// symmetrically quantized (groups are not supported in the quantized
/// path, matching the models the paper quantizes). The whole batch is
/// one **implicit GEMM**, the f32 conv's lowering (`ops::conv`'s
/// `with_patches`): the weight `[O, K]` is A, the `[K, N·P]` patch
/// matrix is gathered panel by panel from the input — padded once, its
/// border cells carrying the activation zero point (real 0.0) — into
/// the microkernel's packed B and never materialized, and each finished
/// row panel of i32 sums is requantized straight into its NCHW spans.
#[allow(clippy::too_many_arguments)]
pub fn quantized_conv2d(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    stride: (usize, usize),
    padding: (usize, usize),
    out_scale: f32,
    out_zp: i32,
    relu: bool,
) -> Result<Tensor> {
    const OP: &str = "quantized_conv2d";
    let (x_scale, x_zp) = activation_qparams(OP, x)?;
    let xs = x.shape();
    let ws = w.shape();
    if xs.len() != 4 || ws.len() != 4 || xs[1] != ws[1] {
        return Err(Error::ShapeMismatch {
            op: OP,
            expected: "x [N,C,H,W] and w [O,C,kh,kw]".to_string(),
            got: xs.to_vec(),
        });
    }
    if stride.0 == 0 || stride.1 == 0 {
        return Err(Error::InvalidArgument { op: OP, message: "stride must be positive".to_string() });
    }
    let (n, c, h, wd) = (xs[0], xs[1], xs[2], xs[3]);
    let (o, kh, kw) = (ws[0], ws[2], ws[3]);
    let oh = out_extent(OP, h, padding.0, 1, kh, stride.0)?;
    let ow = out_extent(OP, wd, padding.1, 1, kw, stride.1)?;
    let (k, p) = (c * kh * kw, oh * ow);
    let xq = x.as_qi8()?;
    let g = QGemm::new(OP, w, o, k, (x_scale, x_zp), bias, (out_scale, out_zp), relu)?;
    // Padding cells carry the activation zero point (exact real 0.0).
    let zp_i8 = x_zp.clamp(QMIN, QMAX) as i8;
    let mut out = pool::alloc::<i8>(n * o * p);
    with_patches(xq, [n, c, h, wd], (kh, kw), stride, padding, (1, 1), (oh, ow), zp_i8, |patches| {
        g.run_conv(&patches, n * p, p, &mut out)
    });
    g.recycle();
    let scheme = QScheme::PerTensor { scale: out_scale, zero_point: out_zp };
    Ok(Tensor::from_qi8(out, &[n, o, oh, ow], scheme))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;
    use crate::rng::SeedableRng;

    #[test]
    fn qparams_cover_range_and_zero() {
        let (scale, zp) = choose_qparams(-1.0, 3.0);
        // -1.0 and 3.0 must be representable.
        let q_lo = (-1.0 / scale).round() as i32 + zp;
        let q_hi = (3.0 / scale).round() as i32 + zp;
        assert!((QMIN..=QMAX).contains(&q_lo));
        assert!((QMIN..=QMAX).contains(&q_hi));
        // Zero maps exactly to the zero point.
        assert_eq!(quantize_one(0.0, scale, zp) as i32, zp);
    }

    /// `x / scale` past the i32 range saturates to the side it is on: it
    /// used to overflow the zero-point add (a panic in debug builds, and
    /// `+inf` with a positive zero point quantized to −128 in release).
    #[test]
    fn quantize_one_saturates_past_the_i32_range() {
        for zp in [-128, -1, 0, 5, 127, i32::MAX, i32::MIN] {
            assert_eq!(quantize_one(f32::INFINITY, 0.1, zp), if zp == i32::MIN { -1 } else { 127 }, "+inf zp={zp}");
            assert_eq!(quantize_one(f32::NEG_INFINITY, 0.1, zp), if zp == i32::MAX { -1 } else { -128 }, "-inf zp={zp}");
            assert_eq!(quantize_one(1e30, 1.0, zp), quantize_one(f32::INFINITY, 1.0, zp), "1e30 zp={zp}");
            assert_eq!(quantize_one(f32::NAN, 1.0, zp), zp.clamp(QMIN, QMAX) as i8, "NaN zp={zp}");
        }
        assert_eq!(quantize_one(3e9, 1.0, -100), 127);
        assert_eq!(quantize_one(2.5, 1.0, 0), 3, "ties round away from zero");
        assert_eq!(quantize_one(-2.5, 1.0, 0), -3, "ties round away from zero");
    }

    /// The public quantize kernels against the scalar oracle, element by
    /// element, on whichever engine this process runs: per-tensor over
    /// lengths that leave every tail, per-channel over odd inner sizes
    /// (a 3×3×3 stem kernel, a 1-wide and a 0-wide one, an inner axis)
    /// with NaN/inf weights in one channel, and the add over a few
    /// hundred pairs.
    #[test]
    fn quantize_kernels_match_the_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(0x0AC1E);
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 33, 100] {
            let x = Tensor::rand_uniform(&[len], -3.0, 3.0, &mut rng);
            for (scale, zp) in [(0.02f32, 3), (0.5, -128), (0.013, 127), (1.0, 0)] {
                let q = quantize_per_tensor(&x, scale, zp).unwrap();
                let want: Vec<i8> = x.as_f32().unwrap().iter().map(|&v| quantize_one(v, scale, zp)).collect();
                assert_eq!(q.as_qi8().unwrap(), want, "len={len} scale={scale} zp={zp}");
            }
        }
        for (shape, axis) in [(vec![5usize, 3, 3, 3], 0usize), (vec![7, 13], 0), (vec![3, 1], 0), (vec![4, 2, 17], 1), (vec![2, 0], 0)] {
            let mut w = Tensor::rand_uniform(&shape, -0.8, 0.8, &mut rng).as_f32().unwrap().to_vec();
            if w.len() > 4 {
                (w[1], w[2], w[3]) = (f32::NAN, f32::INFINITY, -0.0);
            }
            let q = quantize_per_channel(&Tensor::from_vec(w.clone(), &shape), axis).unwrap();
            let (channels, inner) = (shape[axis], shape[axis + 1..].iter().product::<usize>());
            let mut scales = vec![f32::EPSILON; channels];
            for (i, &v) in w.iter().enumerate() {
                let c = i / inner.max(1) % channels;
                scales[c] = scales[c].max(0.0f32.max(v.abs()) / QMAX as f32);
            }
            let want: Vec<i8> = w.iter().enumerate().map(|(i, &v)| quantize_one(v, scales[i / inner.max(1) % channels], 0)).collect();
            assert_eq!(q.qscheme(), Some(&QScheme::PerChannel { scales, axis }), "{shape:?}");
            assert_eq!(q.as_qi8().unwrap(), want, "{shape:?}");
        }
        let (qa, qb, qo) = ((0.03, -9), (0.011, 40), (0.02, 6));
        let a = quantize_per_tensor(&Tensor::rand_uniform(&[3, 101], -3.0, 3.0, &mut rng), qa.0, qa.1).unwrap();
        let b = quantize_per_tensor(&Tensor::rand_uniform(&[3, 101], -1.0, 1.0, &mut rng), qb.0, qb.1).unwrap();
        let sum = quantized_add(&a, &b, qo.0, qo.1).unwrap();
        let want: Vec<i8> =
            a.as_qi8().unwrap().iter().zip(b.as_qi8().unwrap()).map(|(&x, &y)| add_one(x, y, qa, qb, qo)).collect();
        assert_eq!(sum.as_qi8().unwrap(), want);
    }

    #[test]
    fn qparams_all_positive_range() {
        let (scale, zp) = choose_qparams(0.5, 2.0);
        // Range is widened to include zero.
        assert_eq!(zp, QMIN);
        assert!(scale > 0.0);
    }

    #[test]
    fn quantize_dequantize_roundtrip_error_bounded() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::rand_uniform(&[64], -2.0, 2.0, &mut rng);
        let (scale, zp) = choose_qparams(-2.0, 2.0);
        let q = quantize_per_tensor(&x, scale, zp).unwrap();
        let back = dequantize(&q).unwrap();
        assert!(
            x.max_abs_diff(&back).unwrap() <= scale / 2.0 + 1e-6,
            "round-trip error must be at most half a quantization step"
        );
    }

    #[test]
    fn per_channel_weights_roundtrip() {
        let w = Tensor::from_vec(vec![1.0, -1.0, 0.5, 10.0, -20.0, 5.0], &[2, 3]);
        let q = quantize_per_channel(&w, 0).unwrap();
        match q.qscheme().unwrap() {
            QScheme::PerChannel { scales, axis } => {
                assert_eq!(*axis, 0);
                assert_eq!(scales.len(), 2);
                assert!(scales[1] > scales[0], "larger channel gets larger scale");
            }
            _ => panic!("expected per-channel scheme"),
        }
        let back = dequantize(&q).unwrap();
        assert!(w.allclose(&back, 20.0 / 127.0));
    }

    #[test]
    fn quantized_linear_matches_float_reference() {
        let mut rng = StdRng::seed_from_u64(42);
        let x = Tensor::rand_uniform(&[4, 16], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[8, 16], -0.5, 0.5, &mut rng);
        let b = Tensor::rand_uniform(&[8], -0.1, 0.1, &mut rng);
        // Float reference y = x @ w^T + b.
        let xd = x.as_f32().unwrap();
        let wdat = w.as_f32().unwrap();
        let bd = b.as_f32().unwrap();
        let mut y_ref = vec![0.0f32; 4 * 8];
        for i in 0..4 {
            for j in 0..8 {
                let mut acc = bd[j];
                for k in 0..16 {
                    acc += xd[i * 16 + k] * wdat[j * 16 + k];
                }
                y_ref[i * 8 + j] = acc;
            }
        }
        let y_min = y_ref.iter().cloned().fold(f32::MAX, f32::min);
        let y_max = y_ref.iter().cloned().fold(f32::MIN, f32::max);
        let (os, ozp) = choose_qparams(y_min, y_max);
        let (xs, xzp) = choose_qparams(-1.0, 1.0);
        let xq = quantize_per_tensor(&x, xs, xzp).unwrap();
        let wq = quantize_per_channel(&w, 0).unwrap();
        let yq = quantized_linear(&xq, &wq, Some(&b), os, ozp, false).unwrap();
        let y = dequantize(&yq).unwrap();
        let y_ref_t = Tensor::from_vec(y_ref, &[4, 8]);
        // Error should be within a few output quantization steps.
        assert!(
            y.max_abs_diff(&y_ref_t).unwrap() < 4.0 * os,
            "int8 linear drifted too far from the f32 reference"
        );
    }

    #[test]
    fn quantized_linear_relu_epilogue_clamps() {
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let w = Tensor::from_vec(vec![-1.0, -1.0, 1.0, 1.0], &[2, 2]);
        let (xs, xzp) = choose_qparams(-1.0, 1.0);
        let xq = quantize_per_tensor(&x, xs, xzp).unwrap();
        let wq = quantize_per_channel(&w, 0).unwrap();
        let (os, ozp) = choose_qparams(0.0, 2.0);
        let yq = quantized_linear(&xq, &wq, None, os, ozp, true).unwrap();
        let y = dequantize(&yq).unwrap();
        let yd = y.as_f32().unwrap();
        assert!(yd[0].abs() < 2.0 * os, "negative output must clamp to ~0");
        assert!((yd[1] - 2.0).abs() < 4.0 * os);
    }

    #[test]
    fn quantized_add_and_relu() {
        let (s, zp) = choose_qparams(-2.0, 2.0);
        let a = quantize_per_tensor(&Tensor::from_vec(vec![-1.0, 1.0], &[2]), s, zp).unwrap();
        let b = quantize_per_tensor(&Tensor::from_vec(vec![-0.5, 0.5], &[2]), s, zp).unwrap();
        let (os, ozp) = choose_qparams(-3.0, 3.0);
        let c = quantized_add(&a, &b, os, ozp).unwrap();
        let cd = dequantize(&c).unwrap();
        assert!(cd.allclose(&Tensor::from_vec(vec![-1.5, 1.5], &[2]), 3.0 * os));
        let r = quantized_relu(&c).unwrap();
        let rd = dequantize(&r).unwrap();
        assert!(rd.allclose(&Tensor::from_vec(vec![0.0, 1.5], &[2]), 3.0 * os));
    }

    #[test]
    fn quantized_conv_matches_dequant_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[3, 2, 3, 3], -0.5, 0.5, &mut rng);
        let (xs, xzp) = choose_qparams(-1.0, 1.0);
        let xq = quantize_per_tensor(&x, xs, xzp).unwrap();
        let wq = quantize_per_channel(&w, 0).unwrap();
        // f32 reference via the eager conv kernel on the *dequantized*
        // inputs, isolating the accumulation/requantization error.
        let x_dq = dequantize(&xq).unwrap();
        let w_dq = dequantize(&wq).unwrap();
        let y_ref =
            crate::ops::conv2d(&x_dq, &w_dq, None, (1, 1), (1, 1), (1, 1), 1).unwrap();
        let lo = y_ref.as_f32().unwrap().iter().cloned().fold(f32::MAX, f32::min);
        let hi = y_ref.as_f32().unwrap().iter().cloned().fold(f32::MIN, f32::max);
        let (os, ozp) = choose_qparams(lo, hi);
        let yq =
            quantized_conv2d(&xq, &wq, None, (1, 1), (1, 1), os, ozp, false).unwrap();
        let y = dequantize(&yq).unwrap();
        assert_eq!(y.shape(), &[1, 3, 5, 5]);
        assert!(
            y.max_abs_diff(&y_ref).unwrap() <= 1.5 * os,
            "quantized conv should match the dequantized reference within rounding"
        );
    }

    /// The int8 contract written out, sharing no code with the GEMM
    /// driver: a direct convolution of `x` (`[n, c, h, w]`) by `w`
    /// (`[o, c, kh, kw]`) summing `(x − x_zp)·w` in i32 — a padding cell
    /// holds the zero point, so it adds nothing — then [`requant_one`] on
    /// coefficients derived here. A linear is the 1×1 case over
    /// `[rows, k, 1, 1]`, whose `[rows, o, 1, 1]` output is row-major.
    #[allow(clippy::too_many_arguments)]
    fn direct_qconv(
        x: &Tensor,
        [n, c, h, wd]: [usize; 4],
        w: &Tensor,
        [o, kh, kw]: [usize; 3],
        bias: &Tensor,
        stride: (usize, usize),
        padding: (usize, usize),
        (out_scale, out_zp): (f32, i32),
        relu: bool,
    ) -> Vec<i8> {
        let (x_scale, x_zp) = x.qscheme().unwrap().per_tensor_params().unwrap();
        let Some(QScheme::PerChannel { scales, axis: 0 }) = w.qscheme() else { panic!("per-channel weight") };
        let (xq, wq, b) = (x.as_qi8().unwrap(), w.as_qi8().unwrap(), bias.as_f32().unwrap());
        let oh = (h + 2 * padding.0 - kh) / stride.0 + 1;
        let ow = (wd + 2 * padding.1 - kw) / stride.1 + 1;
        let inv_out = 1.0 / out_scale;
        let mut out = Vec::with_capacity(n * o * oh * ow);
        for img in 0..n {
            for oc in 0..o {
                let (mult, badd) = (x_scale * scales[oc] * inv_out, b[oc] * inv_out);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0i32;
                        for ch in 0..c {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = (oy * stride.0 + ky).checked_sub(padding.0).filter(|&iy| iy < h);
                                    let ix = (ox * stride.1 + kx).checked_sub(padding.1).filter(|&ix| ix < wd);
                                    if let (Some(iy), Some(ix)) = (iy, ix) {
                                        let xv = xq[((img * c + ch) * h + iy) * wd + ix] as i32 - x_zp;
                                        acc += xv * wq[((oc * c + ch) * kh + ky) * kw + kx] as i32;
                                    }
                                }
                            }
                        }
                        out.push(requant_one(acc, mult, badd, relu, out_zp));
                    }
                }
            }
        }
        out
    }

    /// Linear and conv at this process's level must equal the direct
    /// oracle **bitwise** — integer accumulation is exact and the
    /// requantization is `requant_one` or its op-for-op twin, so any
    /// mismatch is a kernel bug, not rounding. (The `FX_SIMD` sweeps in
    /// verify.sh run this at every level.)
    #[test]
    fn int8_linear_and_conv_match_the_direct_oracle_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xE17);
        // Linear over odd shapes, with and without relu.
        for &(m, k, n) in &[(1usize, 8usize, 4usize), (5, 33, 17), (8, 64, 40), (3, 127, 19), (16, 36, 23)] {
            let x = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
            let w = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[n], -0.3, 0.3, &mut rng);
            let (xs, xzp) = choose_qparams(-2.0, 2.0);
            let xq = quantize_per_tensor(&x, xs, xzp).unwrap();
            let wq = quantize_per_channel(&w, 0).unwrap();
            for relu in [false, true] {
                let got = quantized_linear(&xq, &wq, Some(&b), 0.05, 3, relu).unwrap();
                let want = direct_qconv(&xq, [m, k, 1, 1], &wq, [n, 1, 1], &b, (1, 1), (0, 0), (0.05, 3), relu);
                assert_eq!(got.as_qi8().unwrap(), want, "linear {m}x{k}x{n} relu={relu}");
            }
        }
        // Conv: 3×3 with padding/stride over a multi-image batch, 1×1,
        // 3×3 pad 1, the 7×7 stride-2 pad-3 stem, output rows shorter
        // than one register of patches (`ow < 8`), and padded inputs with
        // no rows (every window is padding) — all with a non-zero
        // activation zero point under the borders.
        // (batch, c, h, w, o, kh, kw, stride, padding)
        let cases = [
            (3usize, 4usize, 9usize, 9usize, 6usize, 3usize, 3usize, (1usize, 1usize), (1usize, 1usize)),
            (3, 4, 9, 9, 6, 3, 3, (2, 2), (0, 0)),
            (3, 4, 9, 9, 6, 3, 3, (2, 1), (1, 0)),
            (2, 19, 10, 12, 13, 1, 1, (1, 1), (0, 0)),
            (2, 7, 16, 16, 14, 3, 3, (1, 1), (1, 1)),
            (2, 3, 21, 21, 25, 7, 7, (2, 2), (3, 3)),
            (4, 9, 4, 5, 30, 3, 3, (1, 1), (1, 1)),
            (1, 5, 2, 2, 26, 3, 3, (1, 1), (1, 1)),
            (1, 1, 0, 4, 3, 1, 1, (1, 1), (1, 1)),
            (1, 2, 0, 3, 5, 1, 1, (1, 1), (2, 1)),
        ];
        for &(n, c, h, wd, o, kh, kw, stride, padding) in &cases {
            let x = Tensor::rand_uniform(&[n, c, h, wd], -1.0, 1.0, &mut rng);
            let w = Tensor::rand_uniform(&[o, c, kh, kw], -0.5, 0.5, &mut rng);
            let b = Tensor::rand_uniform(&[o], -0.2, 0.2, &mut rng);
            let xq = quantize_per_tensor(&x, 2.0 / 255.0, 41).unwrap();
            let wq = quantize_per_channel(&w, 0).unwrap();
            for relu in [false, true] {
                let got = quantized_conv2d(&xq, &wq, Some(&b), stride, padding, 0.07, -2, relu).unwrap();
                let want = direct_qconv(&xq, [n, c, h, wd], &wq, [o, kh, kw], &b, stride, padding, (0.07, -2), relu);
                assert_eq!(
                    got.as_qi8().unwrap(),
                    want,
                    "conv {kh}x{kw} on {h}x{wd} stride={stride:?} padding={padding:?} relu={relu}"
                );
            }
        }
    }

    /// Batch position must not change int8 bytes: each row/image of a
    /// stacked batch equals its solo run exactly (integer accumulation
    /// never sees its neighbors).
    #[test]
    fn batch_position_is_bitwise_stable() {
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let w = Tensor::rand_uniform(&[7, 12], -1.0, 1.0, &mut rng);
        let wq = quantize_per_channel(&w, 0).unwrap();
        let (xs, xzp) = choose_qparams(-1.0, 1.0);
        let rows: Vec<Tensor> = (0..4)
            .map(|_| Tensor::rand_uniform(&[1, 12], -1.0, 1.0, &mut rng))
            .collect();
        let solo: Vec<Vec<i8>> = rows
            .iter()
            .map(|r| {
                let rq = quantize_per_tensor(r, xs, xzp).unwrap();
                quantized_linear(&rq, &wq, None, 0.04, 0, false)
                    .unwrap()
                    .as_qi8()
                    .unwrap()
                    .to_vec()
            })
            .collect();
        let refs: Vec<&Tensor> = rows.iter().collect();
        let stacked = crate::ops::stack_batch(&refs).unwrap();
        let sq = quantize_per_tensor(&stacked, xs, xzp).unwrap();
        let yq = quantized_linear(&sq, &wq, None, 0.04, 0, false).unwrap();
        let y = yq.as_qi8().unwrap();
        for (i, s) in solo.iter().enumerate() {
            assert_eq!(&y[i * 7..(i + 1) * 7], &s[..], "row {i} changed inside batch");
        }
        // Conv: an image answered in a batch of 4 (a wider GEMM, possibly
        // another tile) equals the same image answered alone.
        let cw = quantize_per_channel(&Tensor::rand_uniform(&[9, 5, 3, 3], -1.0, 1.0, &mut rng), 0).unwrap();
        let imgs: Vec<Tensor> = (0..4).map(|_| Tensor::rand_uniform(&[1, 5, 6, 6], -1.0, 1.0, &mut rng)).collect();
        let conv = |x: &Tensor| {
            let xq = quantize_per_tensor(x, xs, 17).unwrap();
            quantized_conv2d(&xq, &cw, None, (1, 1), (1, 1), 0.05, -3, true).unwrap()
        };
        let refs: Vec<&Tensor> = imgs.iter().collect();
        let batched = conv(&crate::ops::stack_batch(&refs).unwrap());
        let per_img = 9 * 6 * 6;
        for (i, img) in imgs.iter().enumerate() {
            assert_eq!(
                &batched.as_qi8().unwrap()[i * per_img..(i + 1) * per_img],
                conv(img).as_qi8().unwrap(),
                "image {i} changed inside batch"
            );
        }
    }

    /// Malformed calls are typed errors, never panics or wrapped
    /// extents: a float input, a zero stride, a kernel larger than the
    /// padded input.
    #[test]
    fn quantized_conv_rejects_bad_calls_with_typed_errors() {
        let w = quantize_per_channel(&Tensor::ones(&[2, 1, 5, 5]), 0).unwrap();
        let xf = Tensor::ones(&[1, 1, 4, 4]);
        let err = quantized_conv2d(&xf, &w, None, (1, 1), (0, 0), 0.1, 0, false).unwrap_err();
        assert!(matches!(err, Error::DTypeMismatch { op: "quantized_conv2d", .. }), "{err}");
        let xq = quantize_per_tensor(&xf, 0.1, 0).unwrap();
        let err = quantized_conv2d(&xq, &w, None, (1, 0), (2, 2), 0.1, 0, false).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument { .. }) && err.to_string().contains("stride"), "{err}");
        // 5×5 over 4×4 unpadded: `4 − 5` must not wrap into a huge extent.
        let err = quantized_conv2d(&xq, &w, None, (1, 1), (0, 0), 0.1, 0, false).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument { .. }) && err.to_string().contains("does not fit"), "{err}");
        assert!(quantized_conv2d(&xq, &w, None, (1, 1), (1, 1), 0.1, 0, false).is_ok());
    }

    /// Shapes with nothing to multiply still produce well-formed
    /// outputs: no rows, and `K = 0` (every sum empty, so each output row
    /// is the requantized bias).
    #[test]
    fn degenerate_linear_shapes_requantize_the_bias() {
        let scheme = QScheme::PerTensor { scale: 0.1, zero_point: 7 };
        let bias = Tensor::from_vec(vec![0.5, -0.25, 1.0], &[3]);
        for (rows, k) in [(0usize, 5usize), (4, 0), (0, 0)] {
            let x = Tensor::from_qi8(vec![1; rows * k], &[rows, k], scheme.clone());
            let w = Tensor::from_qi8(vec![2; 3 * k], &[3, k], QScheme::PerTensor { scale: 0.2, zero_point: 0 });
            let y = quantized_linear(&x, &w, Some(&bias), 0.05, -1, false).unwrap();
            assert_eq!(y.shape(), &[rows, 3]);
            assert_eq!(y.as_qi8().unwrap(), [9, -6, 19].repeat(rows), "rows={rows} k={k}");
        }
    }

    #[test]
    fn pad_planes_puts_the_fill_on_every_side() {
        let x: Vec<i8> = (1..=12).collect(); // two 2×3 planes
        let padded = crate::ops::conv::pad_planes(&x, 2, 2, 3, (1, 2), -9);
        let plane = |rows: [[i8; 3]; 2]| {
            let mut v = vec![-9i8; 4 * 7];
            for (r, row) in rows.iter().enumerate() {
                v[(r + 1) * 7 + 2..(r + 1) * 7 + 5].copy_from_slice(row);
            }
            v
        };
        assert_eq!(padded, [plane([[1, 2, 3], [4, 5, 6]]), plane([[7, 8, 9], [10, 11, 12]])].concat());
    }

    /// A stack of `depth` quantized 1×1 convs with distinct weights, and
    /// one pass of an input through it.
    fn conv_stack(depth: usize, rng: &mut StdRng) -> Vec<Tensor> {
        (0..depth)
            .map(|_| quantize_per_channel(&Tensor::rand_uniform(&[6, 6, 1, 1], -1.0, 1.0, rng), 0).unwrap())
            .collect()
    }
    fn run_stack(stack: &[Tensor], x: &Tensor) -> Tensor {
        stack.iter().fold(x.clone(), |x, w| {
            quantized_conv2d(&x, w, None, (1, 1), (0, 0), 0.05, 0, false).unwrap()
        })
    }

    /// The operand copy a 1×1 conv stack's weight (`k = 6`) gets, if
    /// its storage owns one: widened pair rows, or quad rows padded to 8.
    fn copy_of(w: &Tensor) -> Option<*const u8> {
        let Storage::QI8 { packed: PackSlot(slot), .. } = w.storage() else { return None };
        let p = slot.get()?;
        p.pairs.get().map(|v| v.as_ptr().cast()).or_else(|| p.quads.get().map(|v| v.as_ptr().cast()))
    }

    impl PackSlot {
        /// Bytes of the operand copies this slot keeps beside the raw
        /// weight (padded quads, widened pairs, packed panels): 0 for a
        /// weight read in place.
        pub(crate) fn copy_bytes(&self) -> usize {
            fn bytes<T>(copy: &OnceLock<Vec<T>>) -> usize {
                copy.get().map_or(0, |v| size_of_val(&v[..]))
            }
            self.0.get().map_or(0, |p| bytes(&p.quads) + bytes(&p.pairs) + bytes(&p.panels))
        }
    }

    /// The bytes of operand copies kept beside `w`'s raw i8.
    fn copy_bytes(w: &Tensor) -> usize {
        let Storage::QI8 { packed, .. } = w.storage() else { return 0 };
        packed.copy_bytes()
    }

    /// Under quads a conv or linear whose `k` is a whole number of quads
    /// reads its weight's raw rows in place, so its slot keeps no copy;
    /// any other `k` keeps rows padded to whole quads. Under pairs every
    /// weight keeps a widened copy, 2 bytes a weight or more.
    #[test]
    fn a_quad_gemm_keeps_no_copy_of_a_whole_quad_weight() {
        let mut rng = StdRng::seed_from_u64(0x4AD);
        let mut q = |shape: &[usize]| quantize_per_tensor(&Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng), 0.02, 0);
        let (x8, x6, r8) = (q(&[1, 8, 3, 3]).unwrap(), q(&[1, 6, 3, 3]).unwrap(), q(&[2, 8]).unwrap());
        let (w8, w6, l8) = (q(&[5, 8, 1, 1]).unwrap(), q(&[5, 6, 1, 1]).unwrap(), q(&[7, 8]).unwrap());
        for (x, w) in [(&x8, &w8), (&x6, &w6)] {
            quantized_conv2d(x, w, None, (1, 1), (0, 0), 0.05, 3, false).unwrap();
        }
        quantized_linear(&r8, &l8, None, 0.05, 3, false).unwrap();
        if simd::quads() {
            assert_eq!([copy_bytes(&w8), copy_bytes(&w6), copy_bytes(&l8)], [0, 5 * 2 * 4, 0]);
        } else {
            assert_eq!([copy_bytes(&w8), copy_bytes(&w6)], [5 * 4 * 4, 5 * 3 * 4]);
            assert!(copy_bytes(&l8) >= 2 * 7 * 8, "{}", copy_bytes(&l8));
        }
    }

    /// Two resident quantized models whose weights together exceed any
    /// fixed entry count (the old 64-slot MRU cycled 108 ResNet-50 keys
    /// and re-widened every weight on every run): after each has run
    /// once, alternating between them widens nothing — every weight keeps
    /// the rows its first run built.
    #[test]
    fn two_resident_models_are_widened_once_each() {
        let mut rng = StdRng::seed_from_u64(0xCAC4E);
        let (a, b) = (conv_stack(54, &mut rng), conv_stack(54, &mut rng));
        let x = quantize_per_tensor(&Tensor::rand_uniform(&[1, 6, 3, 3], -1.0, 1.0, &mut rng), 0.01, 5).unwrap();
        assert!(a.iter().chain(&b).all(|w| copy_of(w).is_none()), "widening is lazy");
        let (ya, yb) = (run_stack(&a, &x), run_stack(&b, &x));
        let widened: Vec<_> = a.iter().chain(&b).map(copy_of).collect();
        assert!(widened.iter().all(Option::is_some), "the first pass widens every weight");
        for _ in 0..3 {
            assert_eq!(run_stack(&a, &x).as_qi8().unwrap(), ya.as_qi8().unwrap());
            assert_eq!(run_stack(&b, &x).as_qi8().unwrap(), yb.as_qi8().unwrap());
        }
        let kept: Vec<_> = a.iter().chain(&b).map(copy_of).collect();
        assert_eq!(kept, widened, "a resident weight was widened again");
    }

    /// A dropped model's packed forms go with it. Its weights have run,
    /// so their slots are filled; once the model is dropped, a clone of
    /// each weight is its storage's only owner, so no global cache keeps
    /// a storage or its packed form alive. A surviving model keeps its own.
    #[test]
    fn dropped_weights_leave_the_cache() {
        let mut rng = StdRng::seed_from_u64(0xD409);
        let x = quantize_per_tensor(&Tensor::rand_uniform(&[1, 6, 3, 3], -1.0, 1.0, &mut rng), 0.01, 5).unwrap();
        let (model, survivor) = (conv_stack(5, &mut rng), conv_stack(1, &mut rng));
        run_stack(&model, &x);
        let y = run_stack(&survivor, &x);
        let kept_alive = model.clone();
        drop(model);
        for w in kept_alive {
            assert!(copy_of(&w).is_some(), "a run fills every weight's slot");
            // The only owner left is this clone: no cache holds the
            // storage, so taking it drops the packed form with it.
            assert!(w.try_take_qi8().is_some(), "a dropped model's storage must not outlive it");
        }

        let kept = copy_of(&survivor[0]);
        assert!(kept.is_some());
        assert_eq!(run_stack(&survivor, &x).as_qi8().unwrap(), y.as_qi8().unwrap());
        assert_eq!(copy_of(&survivor[0]), kept, "the survivor keeps its packed form");
    }

    /// One weight storage read under three views: the view that filled
    /// its packed slot keeps it, and every other view gets the answer a
    /// fresh copy of the storage in that shape gives.
    #[test]
    fn a_reshaped_weight_packs_for_its_own_view() {
        let mut rng = StdRng::seed_from_u64(0x5EA9);
        let mut q = |shape: &[usize], scale| {
            quantize_per_tensor(&Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng), scale, 0).unwrap()
        };
        let (w, x4, x8) = (q(&[6, 4], 0.02), q(&[3, 4], 0.01), q(&[3, 8], 0.01));
        let x_img = x8.reshape(&[1, 8, 1, 3]).unwrap();
        let fresh = |t: &Tensor, shape: &[usize]| {
            Tensor::from_qi8(t.as_qi8().unwrap().to_vec(), shape, t.qscheme().unwrap().clone())
        };
        let linear = |x: &Tensor, w: &Tensor| quantized_linear(x, w, None, 0.05, 3, false).unwrap();
        let conv = |x: &Tensor, w: &Tensor| {
            quantized_conv2d(x, w, None, (1, 1), (0, 0), 0.05, 3, false).unwrap()
        };

        let y = linear(&x4, &w);
        let (w38, w3811) = (w.reshape(&[3, 8]).unwrap(), w.reshape(&[3, 8, 1, 1]).unwrap());
        assert_eq!(linear(&x8, &w38), linear(&x8, &fresh(&w, &[3, 8])));
        assert_eq!(conv(&x_img, &w3811), conv(&x_img, &fresh(&w, &[3, 8, 1, 1])));
        assert_eq!(linear(&x4, &w), y, "the slot still holds the [6, 4] form");
        assert!(w == fresh(&w, &[6, 4]), "equality ignores the packed slot");
    }

    /// The vectorizable ReLU element is the widened `max` it replaced for
    /// every byte and every zero point, i8 or not.
    #[test]
    fn relu_element_is_the_widened_max() {
        for zp in [i32::MIN, -300, -129, -128, -5, 0, 127, 128, 300, i32::MAX] {
            let relu = relu_one(zp);
            for v in i8::MIN..=i8::MAX {
                assert_eq!(relu(v), (v as i32).max(zp) as i8, "v={v} zp={zp}");
            }
        }
    }

    #[test]
    fn relu_inplace_matches_out_of_place() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::rand_uniform(&[64], -1.0, 1.0, &mut rng);
        let (s, zp) = choose_qparams(-1.0, 1.0);
        let q = quantize_per_tensor(&x, s, zp).unwrap();
        let want = quantized_relu(&q).unwrap();
        // Shared handle → copy path.
        let shared = q.clone();
        let got_copy = quantized_relu_inplace(shared).unwrap();
        assert_eq!(got_copy.as_qi8().unwrap(), want.as_qi8().unwrap());
        // Unique handle → true in-place.
        let got_inplace = quantized_relu_inplace(q).unwrap();
        assert_eq!(got_inplace.as_qi8().unwrap(), want.as_qi8().unwrap());
        assert_eq!(got_inplace.qscheme(), want.qscheme());
    }
}
