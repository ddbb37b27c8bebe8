//! 2-d convolution and pooling kernels.
//!
//! A convolution is an **implicit GEMM** at every `FX_SIMD` level and
//! for both dtypes: patches are gathered into the one GEMM driver's
//! packed B panels on the fly ([`simd::PatchSrc`]), so the `[n·p, kg]`
//! im2col matrix is never allocated. [`with_patches`] is the geometry
//! the f32 conv and `quant::quantized_conv2d` share: padding is paid
//! once, as data, and a 1×1 stride-1 window reads whole planes.

use crate::error::{Error, Result};
use crate::ops::simd::{self, BSrc, PatchSrc};
use crate::pool::{self, PoolElem};
use crate::tensor::Tensor;

/// Output spatial extent of a conv/pool window. Errors (instead of
/// underflowing in `usize`) when the effective window — `dilation *
/// (kernel - 1) + 1` — is larger than the padded input, or the kernel
/// is empty.
pub(crate) fn out_extent(
    op: &'static str,
    input: usize,
    pad: usize,
    dilation: usize,
    kernel: usize,
    stride: usize,
) -> Result<usize> {
    let window = kernel
        .checked_sub(1)
        .and_then(|k| k.checked_mul(dilation))
        .map(|span| span + 1);
    let fit = window.and_then(|win| (input + 2 * pad).checked_sub(win));
    match fit {
        Some(room) => Ok(room / stride + 1),
        None => Err(Error::InvalidArgument {
            op,
            message: format!(
                "window of {kernel} (dilation {dilation}) does not fit input extent \
                 {input} with padding {pad}"
            ),
        }),
    }
}

/// `x` — `planes` planes of `[h, w]` — with `padding` rows/columns of
/// `fill` on every side of each plane, in a pooled buffer. The plane
/// count is an argument, not `x.len() / (h·w)`: a plane with no cells
/// still has its padding.
pub(crate) fn pad_planes<T: PoolElem>(x: &[T], planes: usize, h: usize, w: usize, padding: (usize, usize), fill: T) -> Vec<T> {
    let (hp, wp) = (h + 2 * padding.0, w + 2 * padding.1);
    let mut out = pool::alloc::<T>(planes * hp * wp);
    out.fill(fill);
    for (plane, dst) in x.chunks_exact((h * w).max(1)).zip(out.chunks_exact_mut(hp * wp)) {
        let inner = dst[padding.0 * wp..].chunks_exact_mut(wp);
        for (src_row, dst_row) in plane.chunks_exact(w.max(1)).zip(inner) {
            dst_row[padding.1..padding.1 + w].copy_from_slice(src_row);
        }
    }
    out
}

/// Run `gemm` on the implicit-GEMM source of a conv over `x` (`[n, c,
/// h, w]`, output `[oh, ow]` per plane), for either dtype. The gather
/// is cheapest when no window can leave its source, so the padding is
/// paid once, as data: a pooled copy of the input with `fill` (what
/// encodes real 0.0: `0.0`, or int8's activation zero point) in its
/// border cells.
/// A 1×1 stride-1 window reads whole planes, which then are one long
/// row each. The patch source covers channel group 0; a grouped conv
/// moves `ch0`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn with_patches<T: PoolElem, R>(
    x: &[T],
    [n, c, h, w]: [usize; 4],
    (kh, kw): (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    dilation: (usize, usize),
    (oh, ow): (usize, usize),
    fill: T,
    gemm: impl FnOnce(PatchSrc<T>) -> R,
) -> R {
    let padded = (padding != (0, 0)).then(|| pad_planes(x, n * c, h, w, padding, fill));
    let (x, h, w) = match &padded {
        Some(padded) => (&padded[..], h + 2 * padding.0, w + 2 * padding.1),
        None => (x, h, w),
    };
    let (h, w, oh, ow) = if (kh, kw, stride) == (1, 1, (1, 1)) { (1, h * w, 1, oh * ow) } else { (h, w, oh, ow) };
    let result = gemm(PatchSrc { x, c, h, w, ch0: 0, kh, kw, stride, dilation, oh, ow });
    if let Some(padded) = padded {
        pool::recycle(padded);
    }
    result
}

/// 2-d convolution with PyTorch `conv2d` semantics.
///
/// * `x` — input `[N, C, H, W]`
/// * `w` — weight `[O, C/groups, kh, kw]`
/// * `bias` — optional `[O]`
///
/// Implemented as an implicit GEMM per group: the weight `[og, kg]` is A
/// and the patches are B, packed panel by panel straight from the
/// (padded) input, so the im2col matrix is never materialized.
pub fn conv2d(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    stride: (usize, usize),
    padding: (usize, usize),
    dilation: (usize, usize),
    groups: usize,
) -> Result<Tensor> {
    conv2d_act(x, w, bias, stride, padding, dilation, groups, false)
}

/// [`conv2d`] with an optional fused ReLU epilogue, applied while
/// GEMM results are written into the output layout — elementwise
/// identical to running [`conv2d`] followed by `relu`. This is the hook
/// the backend engine's epilogue fusion lowers `conv+relu` through.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_act(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    stride: (usize, usize),
    padding: (usize, usize),
    dilation: (usize, usize),
    groups: usize,
    relu: bool,
) -> Result<Tensor> {
    let xd = x.as_f32()?;
    let wd = w.as_f32()?;
    let xs = x.shape();
    let ws = w.shape();
    if xs.len() != 4 || ws.len() != 4 {
        return Err(Error::ShapeMismatch {
            op: "conv2d",
            expected: "4-d input and weight".to_string(),
            got: if xs.len() != 4 { xs.to_vec() } else { ws.to_vec() },
        });
    }
    let (n, c, h, win) = (xs[0], xs[1], xs[2], xs[3]);
    let (o, cg, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
    if groups == 0 || c % groups != 0 || o % groups != 0 || cg != c / groups {
        return Err(Error::InvalidArgument {
            op: "conv2d",
            message: format!(
                "inconsistent channels: input {c}, weight expects {cg} per group, groups {groups}"
            ),
        });
    }
    if stride.0 == 0 || stride.1 == 0 {
        return Err(Error::InvalidArgument {
            op: "conv2d",
            message: "stride must be positive".to_string(),
        });
    }
    let oh = out_extent("conv2d", h, padding.0, dilation.0, kh, stride.0)?;
    let ow = out_extent("conv2d", win, padding.1, dilation.1, kw, stride.1)?;
    let og = o / groups;

    let bias_slice = match bias {
        Some(b) => {
            let bd = b.as_f32()?;
            if bd.len() != o {
                return Err(Error::ShapeMismatch {
                    op: "conv2d",
                    expected: format!("bias of length {o}"),
                    got: b.shape().to_vec(),
                });
            }
            Some(bd)
        }
        None => None,
    };

    // One GEMM per group over the whole batch, its sums landing in the
    // group's NCHW channels. Each element's k-chain is the microkernel's,
    // independent of batch size and thread count, so batched and solo
    // runs stay bit-identical.
    let (p, kg) = (oh * ow, cg * kh * kw);
    let mut out = pool::alloc::<f32>(n * o * p);
    with_patches(xd, [n, c, h, win], (kh, kw), stride, padding, dilation, (oh, ow), 0.0, |patches| {
        for grp in 0..groups {
            let patches = PatchSrc { ch0: grp * cg, ..patches };
            let w_g = &wd[grp * og * kg..(grp + 1) * og * kg];
            let b_g = bias_slice.map(|b| &b[grp * og..(grp + 1) * og]);
            simd::gemm(og, kg, n * p, w_g, BSrc::Patches(&patches), (b_g, false), relu, (p, o, grp * og), &mut out);
        }
    });
    Ok(Tensor::from_vec(out, &[n, o, oh, ow]))
}

/// Max pooling over 2-d windows.
pub fn max_pool2d(
    x: &Tensor,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
) -> Result<Tensor> {
    pool2d(x, kernel, stride, padding, true)
}

/// Average pooling over 2-d windows (padding contributes zeros and counts
/// toward the divisor, matching PyTorch's default
/// `count_include_pad=True`).
pub fn avg_pool2d(
    x: &Tensor,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
) -> Result<Tensor> {
    pool2d(x, kernel, stride, padding, false)
}

fn pool2d(
    x: &Tensor,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    is_max: bool,
) -> Result<Tensor> {
    let xd = x.as_f32()?;
    let xs = x.shape();
    if xs.len() != 4 {
        return Err(Error::ShapeMismatch {
            op: "pool2d",
            expected: "4-d input".to_string(),
            got: xs.to_vec(),
        });
    }
    let (n, c, h, w) = (xs[0], xs[1], xs[2], xs[3]);
    if stride.0 == 0 || stride.1 == 0 {
        return Err(Error::InvalidArgument {
            op: "pool2d",
            message: "stride must be positive".to_string(),
        });
    }
    let oh = out_extent("pool2d", h, padding.0, 1, kernel.0, stride.0)?;
    let ow = out_extent("pool2d", w, padding.1, 1, kernel.1, stride.1)?;
    // The input cells `lo..hi` a window starting at padded coordinate
    // `start` covers: clipped once per output row/column, so the loops
    // below are branch-free slices. Skipping the padding cells changes
    // no bit: a max ignores their `-inf`, and the `+0.0` they added to
    // the average's sum (which starts at `+0.0`, so is never `-0.0`) is
    // an identity.
    let clip = |start: usize, pad: usize, kernel: usize, extent: usize| {
        let lo = start.saturating_sub(pad).min(extent);
        (lo, (start + kernel).saturating_sub(pad).min(extent).max(lo))
    };
    let divisor = (kernel.0 * kernel.1) as f32;
    // Garbage-tolerant: every element is written by index below.
    let mut out = pool::alloc::<f32>(n * c * oh * ow);
    for (pi, out_plane) in out.chunks_exact_mut(oh * ow).enumerate() {
        let plane = &xd[pi * h * w..(pi + 1) * h * w];
        for (oy, out_row) in out_plane.chunks_exact_mut(ow).enumerate() {
            let (y0, y1) = clip(oy * stride.0, padding.0, kernel.0, h);
            for (ox, dst) in out_row.iter_mut().enumerate() {
                let (x0, x1) = clip(ox * stride.1, padding.1, kernel.1, w);
                let cells = (y0..y1).flat_map(|iy| &plane[iy * w + x0..iy * w + x1]);
                *dst = if is_max {
                    cells.fold(f32::NEG_INFINITY, |acc, &v| acc.max(v))
                } else {
                    cells.fold(0.0, |acc, &v| acc + v) / divisor
                };
            }
        }
    }
    Ok(Tensor::from_vec(out, &[n, c, oh, ow]))
}

/// Adaptive average pooling to a target `(out_h, out_w)`, using PyTorch's
/// start/end index formula. `(1, 1)` is global average pooling (ResNet's
/// final pool).
pub fn adaptive_avg_pool2d(x: &Tensor, output_size: (usize, usize)) -> Result<Tensor> {
    let xd = x.as_f32()?;
    let xs = x.shape();
    if xs.len() != 4 {
        return Err(Error::ShapeMismatch {
            op: "adaptive_avg_pool2d",
            expected: "4-d input".to_string(),
            got: xs.to_vec(),
        });
    }
    let (n, c, h, w) = (xs[0], xs[1], xs[2], xs[3]);
    let (oh, ow) = output_size;
    if oh == 0 || ow == 0 {
        return Err(Error::InvalidArgument {
            op: "adaptive_avg_pool2d",
            message: "output size must be positive".to_string(),
        });
    }
    let mut out = pool::alloc_empty::<f32>(n * c * oh * ow);
    for plane_idx in 0..n * c {
        let plane = &xd[plane_idx * h * w..(plane_idx + 1) * h * w];
        for oy in 0..oh {
            let y0 = oy * h / oh;
            let y1 = ((oy + 1) * h).div_ceil(oh);
            for ox in 0..ow {
                let x0 = ox * w / ow;
                let x1 = ((ox + 1) * w).div_ceil(ow);
                let mut acc = 0.0;
                for iy in y0..y1 {
                    for ix in x0..x1 {
                        acc += plane[iy * w + ix];
                    }
                }
                out.push(acc / ((y1 - y0) * (x1 - x0)) as f32);
            }
        }
    }
    Ok(Tensor::from_vec(out, &[n, c, oh, ow]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;
    use crate::rng::SeedableRng;

    /// Direct (non-im2col) convolution used as a test oracle.
    #[allow(clippy::too_many_arguments)]
    fn naive_conv2d(
        x: &Tensor,
        w: &Tensor,
        bias: Option<&Tensor>,
        stride: (usize, usize),
        padding: (usize, usize),
        dilation: (usize, usize),
        groups: usize,
    ) -> Tensor {
        let xd = x.as_f32().unwrap();
        let wd = w.as_f32().unwrap();
        let (n, c, h, win) = (
            x.shape()[0],
            x.shape()[1],
            x.shape()[2],
            x.shape()[3],
        );
        let (o, cg, kh, kw) = (
            w.shape()[0],
            w.shape()[1],
            w.shape()[2],
            w.shape()[3],
        );
        let oh = out_extent("conv2d", h, padding.0, dilation.0, kh, stride.0).unwrap();
        let ow = out_extent("conv2d", win, padding.1, dilation.1, kw, stride.1).unwrap();
        let og = o / groups;
        let mut out = vec![0.0; n * o * oh * ow];
        for img in 0..n {
            for oc in 0..o {
                let g = oc / og;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map(|b| b.as_f32().unwrap()[oc]).unwrap_or(0.0);
                        for ch in 0..cg {
                            let ch_abs = g * cg + ch;
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = (oy * stride.0 + ky * dilation.0) as isize
                                        - padding.0 as isize;
                                    let ix = (ox * stride.1 + kx * dilation.1) as isize
                                        - padding.1 as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= win as isize {
                                        continue;
                                    }
                                    acc += xd[((img * c + ch_abs) * h + iy as usize) * win
                                        + ix as usize]
                                        * wd[((oc * cg + ch) * kh + ky) * kw + kx];
                                }
                            }
                        }
                        out[((img * o + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, o, oh, ow])
    }

    #[test]
    fn conv_matches_naive_basic() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[4, 3, 3, 3], -0.5, 0.5, &mut rng);
        let b = Tensor::rand_uniform(&[4], -0.1, 0.1, &mut rng);
        let got = conv2d(&x, &w, Some(&b), (1, 1), (1, 1), (1, 1), 1).unwrap();
        let want = naive_conv2d(&x, &w, Some(&b), (1, 1), (1, 1), (1, 1), 1);
        assert_eq!(got.shape(), &[2, 4, 8, 8]);
        assert!(got.allclose(&want, 1e-4));
    }

    #[test]
    fn conv_stride_padding_dilation() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::rand_uniform(&[1, 2, 11, 9], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[3, 2, 3, 3], -0.5, 0.5, &mut rng);
        for &(s, p, d) in &[((2, 2), (1, 1), (1, 1)), ((1, 2), (0, 1), (2, 1)), ((3, 1), (2, 0), (1, 2))]
        {
            let got = conv2d(&x, &w, None, s, p, d, 1).unwrap();
            let want = naive_conv2d(&x, &w, None, s, p, d, 1);
            assert_eq!(got.shape(), want.shape(), "cfg {s:?} {p:?} {d:?}");
            assert!(got.allclose(&want, 1e-4), "cfg {s:?} {p:?} {d:?}");
        }
    }

    #[test]
    fn grouped_conv_matches_naive() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform(&[1, 4, 6, 6], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[6, 2, 3, 3], -0.5, 0.5, &mut rng);
        let got = conv2d(&x, &w, None, (1, 1), (1, 1), (1, 1), 2).unwrap();
        let want = naive_conv2d(&x, &w, None, (1, 1), (1, 1), (1, 1), 2);
        assert!(got.allclose(&want, 1e-4));
    }

    #[test]
    fn conv_rejects_bad_channels() {
        let x = Tensor::ones(&[1, 3, 4, 4]);
        let w = Tensor::ones(&[2, 4, 3, 3]);
        assert!(conv2d(&x, &w, None, (1, 1), (0, 0), (1, 1), 1).is_err());
        assert!(conv2d(&x, &w, None, (0, 1), (0, 0), (1, 1), 1).is_err());
    }

    /// Property sweep: the implicit GEMM — padding paid as data, 1×1
    /// stride-1 windows read as whole planes, sums written into NCHW —
    /// must match the direct-convolution oracle across randomized
    /// geometries (grouped, strided, dilated, padded, 1×1 kernels where
    /// the GEMM depth is below the lane width; ResNet's layer3/4 3×3s at
    /// `ow` 4 and 2; a 1×1 padded, grouped and strided; windows wholly in
    /// the padding) and degenerate ones: no images, no input channels
    /// (every sum empty, so the output is the bias) and a zero-size
    /// spatial extent under padding (every window is padding).
    #[test]
    fn both_lowerings_match_direct_oracle_across_geometries() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let cases = [
            // (n, c, o, groups, kh, kw, h, w, stride, padding, dilation)
            (1, 1, 1, 1, 1, 1, 1, 1, (1, 1), (0, 0), (1, 1)),
            (2, 3, 5, 1, 3, 3, 9, 7, (1, 1), (1, 1), (1, 1)),
            (1, 4, 6, 2, 3, 2, 8, 8, (2, 1), (1, 0), (1, 2)),
            (3, 2, 4, 2, 1, 1, 5, 6, (1, 1), (0, 0), (1, 1)),
            (1, 6, 6, 6, 3, 3, 7, 7, (1, 1), (1, 1), (1, 1)), // depthwise
            (2, 5, 7, 1, 2, 4, 10, 11, (2, 3), (2, 1), (2, 1)),
            (1, 3, 2, 1, 5, 1, 12, 4, (1, 1), (2, 0), (2, 1)),
            (2, 4, 3, 1, 1, 1, 3, 5, (1, 1), (0, 0), (1, 1)), // 1×1
            (4, 9, 10, 1, 3, 3, 4, 4, (1, 1), (1, 1), (1, 1)), // layer3 at 64×64
            (4, 9, 10, 1, 3, 3, 2, 2, (1, 1), (1, 1), (1, 1)), // layer4 at 64×64
            (2, 3, 4, 1, 1, 1, 4, 5, (1, 1), (1, 2), (1, 1)), // padded 1×1
            (2, 6, 4, 2, 1, 1, 5, 3, (1, 1), (0, 0), (1, 1)), // grouped 1×1
            (3, 5, 6, 1, 1, 1, 7, 6, (2, 2), (0, 0), (1, 1)), // strided 1×1
            (1, 2, 3, 1, 2, 2, 1, 1, (1, 1), (2, 2), (1, 1)), // windows in the padding
            (0, 3, 2, 1, 3, 3, 4, 4, (1, 1), (1, 1), (1, 1)), // no images
            (1, 0, 2, 1, 3, 3, 4, 4, (1, 1), (1, 1), (1, 1)), // no channels
            (0, 0, 2, 1, 1, 1, 4, 4, (1, 1), (0, 0), (1, 1)),
            (1, 1, 2, 1, 1, 1, 0, 4, (1, 1), (1, 1), (1, 1)), // no rows
            (1, 2, 3, 1, 1, 1, 0, 3, (1, 1), (2, 1), (1, 1)),
        ];
        for &(n, c, o, groups, kh, kw, h, w, stride, padding, dilation) in &cases {
            let x = Tensor::rand_uniform(&[n, c, h, w], -1.0, 1.0, &mut rng);
            let wt = Tensor::rand_uniform(&[o, c / groups, kh, kw], -0.5, 0.5, &mut rng);
            let b = Tensor::rand_uniform(&[o], -0.1, 0.1, &mut rng);
            let want = naive_conv2d(&x, &wt, Some(&b), stride, padding, dilation, groups);
            let what = format!("{n},{c},{o},g{groups} {kh}x{kw} on {h}x{w} s{stride:?} p{padding:?}");
            let got = conv2d(&x, &wt, Some(&b), stride, padding, dilation, groups).unwrap();
            assert_eq!(got.shape(), want.shape(), "{what}");
            assert!(got.allclose(&want, 1e-4), "{what}");
        }
    }

    #[test]
    fn conv2d_act_matches_conv_then_relu_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xAC7);
        let x = Tensor::rand_uniform(&[2, 3, 6, 7], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[4, 3, 3, 3], -0.5, 0.5, &mut rng);
        let b = Tensor::rand_uniform(&[4], -0.2, 0.2, &mut rng);
        let fused = conv2d_act(&x, &w, Some(&b), (1, 1), (1, 1), (1, 1), 1, true).unwrap();
        let plain = conv2d(&x, &w, Some(&b), (1, 1), (1, 1), (1, 1), 1).unwrap();
        let relu: Vec<f32> = plain.as_f32().unwrap().iter().map(|v| v.max(0.0)).collect();
        assert_eq!(fused.as_f32().unwrap(), &relu[..]);
        let pw = Tensor::rand_uniform(&[4, 3, 1, 1], -0.5, 0.5, &mut rng);
        let fused = conv2d_act(&x, &pw, Some(&b), (1, 1), (0, 0), (1, 1), 1, true).unwrap();
        let plain = conv2d(&x, &pw, Some(&b), (1, 1), (0, 0), (1, 1), 1).unwrap();
        let relu: Vec<f32> = plain.as_f32().unwrap().iter().map(|v| v.max(0.0)).collect();
        assert_eq!(fused.as_f32().unwrap(), &relu[..]);
    }

    /// A conv over one image (its sums accumulate in the output in
    /// place) equals that image's slice of the same conv over a batch of
    /// three (its sums go through the driver's block), bit for bit — the
    /// serve/solo parity a batched request relies on — for a grouped 3×3
    /// and a 1×1.
    #[test]
    fn one_image_conv_equals_its_slice_of_a_batch_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x1B);
        let x = Tensor::rand_uniform(&[3, 4, 9, 9], -1.0, 1.0, &mut rng);
        for (ws, padding, groups) in [([6, 2, 3, 3], (1, 1), 2), ([5, 4, 1, 1], (0, 0), 1)] {
            let w = Tensor::rand_uniform(&ws, -0.5, 0.5, &mut rng);
            let b = Tensor::rand_uniform(&[ws[0]], -0.2, 0.2, &mut rng);
            let batch = conv2d_act(&x, &w, Some(&b), (1, 1), padding, (1, 1), groups, true).unwrap();
            let per_image = batch.numel() / 3;
            for img in 0..3 {
                let xi = Tensor::from_vec(x.as_f32().unwrap()[img * 4 * 81..][..4 * 81].to_vec(), &[1, 4, 9, 9]);
                let solo = conv2d_act(&xi, &w, Some(&b), (1, 1), padding, (1, 1), groups, true).unwrap();
                let slice = &batch.as_f32().unwrap()[img * per_image..][..per_image];
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(solo.as_f32().unwrap()), bits(slice), "{ws:?} image {img}");
            }
        }
    }

    /// The pooling loop as it was before the windows were clipped —
    /// four bounds tests per window cell, padding cells folded in as
    /// `-inf` / `0.0` — kept as the oracle the clipped loop must match
    /// bit for bit.
    fn pool2d_reference(
        x: &Tensor,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        is_max: bool,
    ) -> Vec<f32> {
        let xd = x.as_f32().unwrap();
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let oh = out_extent("pool2d", h, padding.0, 1, kernel.0, stride.0).unwrap();
        let ow = out_extent("pool2d", w, padding.1, 1, kernel.1, stride.1).unwrap();
        let mut out = Vec::new();
        for plane_idx in 0..n * c {
            let plane = &xd[plane_idx * h * w..(plane_idx + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = if is_max { f32::NEG_INFINITY } else { 0.0 };
                    for ky in 0..kernel.0 {
                        let iy = oy * stride.0 + ky;
                        for kx in 0..kernel.1 {
                            let ix = ox * stride.1 + kx;
                            let inside = iy >= padding.0
                                && iy - padding.0 < h
                                && ix >= padding.1
                                && ix - padding.1 < w;
                            let v = if inside {
                                plane[(iy - padding.0) * w + (ix - padding.1)]
                            } else if is_max {
                                f32::NEG_INFINITY
                            } else {
                                0.0
                            };
                            if is_max {
                                acc = acc.max(v);
                            } else {
                                acc += v;
                            }
                        }
                    }
                    out.push(if is_max {
                        acc
                    } else {
                        acc / (kernel.0 * kernel.1) as f32
                    });
                }
            }
        }
        out
    }

    /// Padded, strided, uneven, overlapping and all-padding windows,
    /// with negative zeros, infinities and a NaN in the input: max and
    /// average pooling must equal the unclipped loop bitwise.
    #[test]
    fn pooling_matches_the_unclipped_loop_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x9001);
        // (h, w, kernel, stride, padding)
        let cases = [
            (8, 8, (3, 3), (2, 2), (1, 1)),
            (7, 5, (2, 3), (1, 2), (0, 1)),
            (9, 11, (3, 2), (3, 1), (1, 0)),
            (4, 4, (2, 2), (2, 2), (0, 0)),
            (5, 6, (5, 6), (1, 1), (2, 2)),
            (3, 3, (1, 1), (1, 1), (1, 1)),
            (6, 7, (2, 2), (1, 1), (2, 2)),
            (1, 1, (3, 3), (1, 1), (1, 1)),
        ];
        for &(h, w, kernel, stride, padding) in &cases {
            let x = Tensor::rand_uniform(&[2, 3, h, w], -1.0, 1.0, &mut rng);
            let mut xd = x.as_f32().unwrap().to_vec();
            for (i, special) in [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0].into_iter().enumerate() {
                let at = (i * 7) % xd.len();
                xd[at] = special;
            }
            let x = Tensor::from_vec(xd, &[2, 3, h, w]);
            for is_max in [true, false] {
                let got = pool2d(&x, kernel, stride, padding, is_max).unwrap();
                let want = pool2d_reference(&x, kernel, stride, padding, is_max);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(got.as_f32().unwrap()),
                    bits(&want),
                    "{h}x{w} kernel {kernel:?} stride {stride:?} padding {padding:?} max={is_max}"
                );
            }
        }
    }

    #[test]
    fn max_pool_basic() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let y = max_pool2d(&x, (2, 2), (2, 2), (0, 0)).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_f32().unwrap(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn max_pool_with_padding() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        // 3x3 kernel, stride 2, pad 1: ResNet's stem pool configuration.
        let y = max_pool2d(&x, (3, 3), (2, 2), (1, 1)).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.as_f32().unwrap(), &[4.0]);
    }

    #[test]
    fn oversized_windows_error_instead_of_underflowing() {
        // Regression: a kernel larger than the padded input underflowed
        // `input + 2*pad - (kernel - 1) - 1` in usize and panicked.
        let x = Tensor::from_vec(vec![1.0; 16], &[1, 1, 4, 4]);
        let err = max_pool2d(&x, (9, 9), (1, 1), (0, 0)).unwrap_err();
        assert!(err.to_string().contains("does not fit"), "{err}");
        assert!(avg_pool2d(&x, (5, 5), (1, 1), (0, 0)).is_err());
        assert!(max_pool2d(&x, (2, 2), (0, 1), (0, 0)).is_err(), "zero stride");
        let w = Tensor::from_vec(vec![1.0; 25], &[1, 1, 5, 5]);
        assert!(conv2d(&x, &w, None, (1, 1), (0, 0), (1, 1), 1).is_err());
        // Padding that makes the window fit again is accepted.
        assert!(conv2d(&x, &w, None, (1, 1), (2, 2), (1, 1), 1).is_ok());
    }

    #[test]
    fn avg_pool_counts_padding() {
        let x = Tensor::from_vec(vec![4.0, 4.0, 4.0, 4.0], &[1, 1, 2, 2]);
        let y = avg_pool2d(&x, (2, 2), (2, 2), (0, 0)).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[4.0]);
    }

    #[test]
    fn adaptive_avg_pool_global() {
        let x = Tensor::from_vec((1..=8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let y = adaptive_avg_pool2d(&x, (1, 1)).unwrap();
        assert_eq!(y.shape(), &[1, 2, 1, 1]);
        assert_eq!(y.as_f32().unwrap(), &[2.5, 6.5]);
    }

    #[test]
    fn adaptive_avg_pool_uneven() {
        let x = Tensor::from_vec((0..15).map(|v| v as f32).collect(), &[1, 1, 3, 5]);
        let y = adaptive_avg_pool2d(&x, (2, 2)).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // Regions follow floor(i*H/oh)..ceil((i+1)*H/oh).
        assert!(adaptive_avg_pool2d(&x, (0, 1)).is_err());
    }
}
