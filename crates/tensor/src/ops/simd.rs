//! Explicit SIMD GEMM microkernels with packed panels — f32 and int8.
//!
//! The portable GEMMs in [`matmul`](super::matmul) lean on LLVM
//! autovectorizing a multi-accumulator dot product. This module is the
//! hand-written alternative every CPU BLAS ships, built as **one
//! blocking driver, one microkernel body, and a table of tiles**:
//!
//! * [`microkernel`] is a register-tile FMA loop generic over a
//!   [`Vector`] (load / splat / fmadd / add / store) and a const
//!   `MR × NV` shape. Thin `#[target_feature]` wrappers instantiate it
//!   as the AVX2 tiles (6 rows × 1 or 2 YMM) and the AVX-512 tiles
//!   (12 rows × 1 or 2 ZMM); a [`Tile`] names one with its geometry.
//! * [`gemm_tiled`] is the cache-blocking driver; every size it needs
//!   comes from the tile it was handed. B is repacked per `KC×NC` block
//!   into NR-wide column panels so the microkernel reads one contiguous,
//!   reusable stream whether the logical B is row-major (`matmul`),
//!   transposed (`linear` weights) or an *implicit im2col patch matrix*
//!   gathered straight from a convolution input — the packing routine
//!   is where layout differences die. A is read in place, row by row.
//! * [`select_tile`] picks the tile **per call from the output width
//!   alone**, so a narrow GEMM does not pay for padding a wide tile.
//!
//! `KC`/`NC` default to 256/512 and can be swept via `FX_GEMM_KC` /
//! `FX_GEMM_NC` ([`gemm_kc`]/[`gemm_nc`]). Pack buffers are drawn from
//! [`pool`](crate::pool) and fully overwritten, zero edge padding
//! included, so a recycled buffer's stale contents can never leak into
//! a result. The epilogue — per-row or per-column bias plus optional
//! ReLU — is applied on the accumulated output, elementwise-identical
//! to running the separate bias/ReLU kernels afterwards.
//!
//! ## The int8 microkernel
//!
//! [`gemm_i8_nt`] is the quantized sibling: `i8×i8→i32` with the same
//! panel blocking and a **fused requantize+bias+ReLU epilogue** that
//! writes the final `i8` at write-back. The widening trick differs from
//! FBGEMM's `_mm256_maddubs_epi16` chain on purpose: `maddubs` adds two
//! u8×i8 products into a *saturating* i16, and `127·255 + 127·255`
//! overflows it — saturation would make SIMD results diverge from the
//! scalar fallback on adversarial inputs, breaking the bit-exactness
//! contract. Instead the B panel is pre-widened to i16 with consecutive
//! k-pairs interleaved per column, the A panel packs each k-pair as two
//! i16 in one i32, and `_mm256_madd_epi16` (broadcast pair × 8 column
//! pairs) produces **exact** i32 pair-dot-products: `i16×i16 + i16×i16`
//! peaks at `2·127²·... ≪ 2³¹`, and the running i32 accumulation is
//! exact for any k the models reach (overflow needs k ≳ 1.3·10⁵).
//! Because integer accumulation has no rounding at all, the SIMD path
//! is **bit-identical** to the scalar reference in any summation order
//! — a stronger guarantee than the f32 path can offer. Its tiles keep
//! their own 6×16 YMM geometry ([`I8_MR`]/[`I8_NR`]).
//!
//! The activation zero point is folded in after accumulation with the
//! FBGEMM row-offset identity `Σ(a−za)·w = Σa·w − za·Σw` (per-column
//! weight sums), and requantization runs through the same scalar helper
//! ([`crate::quant`]'s `requant_one`) the fallback uses, per element —
//! scalar/SIMD int8 outputs are therefore equal by construction.
//!
//! ## Numerics and determinism (f32)
//!
//! Each output element is accumulated **sequentially over k**: one
//! fused-multiply-add per k step inside a `KC` panel, and the panels'
//! partial sums joined in k order by a separate float add. That chain is
//! the same in every tile — an FMA lane never sees its neighbours, so a
//! YMM lane and a ZMM lane compute the same bits — which makes the tile
//! a pure throughput choice: AVX2, AVX-512, interior and edge tiles
//! agree bitwise, and a value depends only on its own row of A and
//! column of B, never on tile position, batch size, or thread count.
//! That is the property the serve-layer parity suite relies on: a row
//! answered inside a batch of 8 is bit-identical to the same row
//! answered alone, even when the wider batch switched tiles. `KC` *is*
//! part of the chain (it decides where the partial sums are cut), so it
//! is one process-wide value, never a per-tile one; `NC`, `MR` and `NR`
//! only re-tile the output. The SIMD path is *not* bit-identical to the
//! portable fallback (different summation order, and FMA keeps the
//! product unrounded); the documented bound is
//! `|Δ| ≤ 2·K·ε·Σ|aᵢ·bᵢ|` — see the ULP-tolerance sweep in the tests.
//!
//! ## Selection
//!
//! The ISA [`Level`] is decided once per process by `FX_SIMD`: `0`
//! forces the portable fallback (the mode `scripts/verify.sh` sweeps to
//! keep it from rotting), `avx2` / `avx512` pin a level (degrading, with
//! one stderr line, to the widest the CPU has), unset or `1` takes the
//! widest detected. When enabled, *every* GEMM goes through the
//! microkernel — an engine cutover by shape would make results depend
//! on the batch dimension and break serve/solo parity; a *tile* cutover
//! cannot, by the argument above.

use crate::pool;
use crate::threading::parallel_chunks;
use std::mem::MaybeUninit;
use std::sync::OnceLock;

/// Default k-panel depth: a row panel's 12·256 f32 of A (12 KiB) stays
/// L1-resident, 256·32 f32 of B per column panel streams from L2.
const KC_DEFAULT: usize = 256;
/// Default column-block width: one packed B block is `KC·NC` f32
/// (512 KiB max), reused across every row panel of A.
const NC_DEFAULT: usize = 512;
/// Upper bound for `FX_GEMM_KC`; the padded last A panel lives on the
/// worker stack, so the cap keeps it at `MR_MAX·1024` f32 (48 KiB).
const KC_MAX: usize = 1024;
/// Upper bound for `FX_GEMM_NC` (the packed B block is pool-allocated,
/// the cap just keeps sweeps sane).
const NC_MAX: usize = 8192;

/// Read a blocking parameter from `var` once: accepts integers in
/// `[min, max]`, rounded **down** to a multiple of `quantum` but never
/// below one quantum; anything else (unset, unparsable, out of range)
/// falls back to `default`.
fn block_param(var: &str, default: usize, min: usize, max: usize, quantum: usize) -> usize {
    match std::env::var(var) {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(v) if (min..=max).contains(&v) => (v / quantum * quantum).max(quantum),
            _ => default,
        },
        Err(_) => default,
    }
}

/// K-panel depth (`FX_GEMM_KC`, default 256, once-read; multiple of 8 in
/// `[8, 1024]`). Shared by every f32 tile and the int8 path — it is
/// part of the f32 numeric contract (see the module docs).
pub(crate) fn gemm_kc() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| block_param("FX_GEMM_KC", KC_DEFAULT, 8, KC_MAX, 8))
}

/// Column-block width (`FX_GEMM_NC`, default 512, once-read; accepted
/// in `[16, 8192]`, rounded to a multiple of the widest tile's NR so a
/// block is whole panels under every tile). Shared by the f32 and int8
/// paths.
pub(crate) fn gemm_nc() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| block_param("FX_GEMM_NC", NC_DEFAULT, 16, NC_MAX, NR_MAX))
}

/// The GEMM engine a process can run, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    /// The portable loops in [`matmul`](super::matmul).
    Scalar,
    /// AVX2 + FMA: YMM tiles.
    Avx2,
    /// AVX-512F: ZMM tiles (and the YMM ones for narrow outputs).
    Avx512,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
        }
    }
}

/// The widest level this CPU can run (ignores `FX_SIMD`).
fn detected_level() -> Level {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        return if std::arch::is_x86_feature_detected!("avx512f") {
            Level::Avx512
        } else {
            Level::Avx2
        };
    }
    Level::Scalar
}

/// What `FX_SIMD=var` selects on a CPU whose widest level is
/// `detected`, plus the line to print when the request could not be
/// honoured: a level the CPU lacks degrades to the widest it has, an
/// unknown value means "auto".
fn resolve_level(var: Option<&str>, detected: Level) -> (Level, Option<String>) {
    let asked = match var.map(str::trim) {
        None | Some("1") => detected,
        Some("0") => Level::Scalar,
        Some("avx2") => Level::Avx2,
        Some("avx512") => Level::Avx512,
        Some(other) => {
            let name = detected.name();
            let note = format!("fx_tensor: FX_SIMD={other:?} is not 0, 1, avx2 or avx512; using {name}");
            return (detected, Some(note));
        }
    };
    let note = (asked > detected).then(|| {
        format!("fx_tensor: this CPU lacks FX_SIMD={}; using {}", asked.name(), detected.name())
    });
    (asked.min(detected), note)
}

/// The level in use (decided once per process from `FX_SIMD` and
/// runtime detection).
fn level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let var = std::env::var("FX_SIMD").ok();
        let (level, note) = resolve_level(var.as_deref(), detected_level());
        if let Some(note) = note {
            eprintln!("{note}");
        }
        level
    })
}

/// Name of the GEMM engine in use: `scalar`, `avx2` or `avx512`.
pub fn simd_level() -> &'static str {
    level().name()
}

/// Whether an explicit microkernel path is in use (`FX_SIMD=0` forces
/// the portable fallback; otherwise runtime detection decides).
pub fn simd_enabled() -> bool {
    level() != Level::Scalar
}

/// Whether this CPU can run the microkernel at all (ignores `FX_SIMD`).
pub fn simd_available() -> bool {
    detected_level() != Level::Scalar
}

/// Whether the int8 microkernel may fuse its multiply-add pairs into
/// `vpdpwssd` (AVX-512 VNNI at 256-bit width, decided once per process;
/// `FX_VNNI=0` forces the plain `vpmaddwd`+`vpaddd` form). Purely a
/// throughput knob: VNNI computes the identical exact i32 dot-product
/// accumulation in one instruction, so outputs are bit-identical either
/// way (unit-tested below).
#[cfg(target_arch = "x86_64")]
pub(crate) fn vnni_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if std::env::var("FX_VNNI").is_ok_and(|v| v == "0") {
            return false;
        }
        std::arch::is_x86_feature_detected!("avx512vnni")
            && std::arch::is_x86_feature_detected!("avx512vl")
    })
}

/// Prefetch `s[idx]` into L1 if it is in bounds (a pure hint: never
/// faults, never changes results; the bounds check only avoids handing
/// the CPU a pointer past the allocation).
#[inline(always)]
fn prefetch<T>(s: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < s.len() {
        // SAFETY: in-bounds pointer; prefetch performs no memory access
        // visible to the program.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(s.as_ptr().add(idx) as *const i8);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (s, idx);
}

// ===========================================================================
// f32 path: Vector → microkernel → Tile → driver
// ===========================================================================

/// One SIMD register of f32 lanes: the operations the microkernel body
/// is written in. Every method is `#[inline(always)]` so the intrinsic
/// lands inside the `#[target_feature]` wrapper that instantiated the
/// body, and is only sound to call from there.
trait Vector: Copy {
    const LANES: usize;
    unsafe fn zero() -> Self;
    unsafe fn load(p: *const f32) -> Self;
    /// `*p` in every lane.
    unsafe fn splat(p: *const f32) -> Self;
    /// `a·b + self`, fused (one rounding).
    unsafe fn fmadd(self, a: Self, b: Self) -> Self;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn store(self, p: *mut f32);
}

macro_rules! impl_vector {
    ($ty:ident, $lanes:literal, $zero:ident, $load:ident, $set1:ident, $fmadd:ident, $add:ident, $store:ident) => {
        #[cfg(target_arch = "x86_64")]
        impl Vector for std::arch::x86_64::$ty {
            const LANES: usize = $lanes;
            #[inline(always)]
            unsafe fn zero() -> Self {
                std::arch::x86_64::$zero()
            }
            #[inline(always)]
            unsafe fn load(p: *const f32) -> Self {
                std::arch::x86_64::$load(p)
            }
            #[inline(always)]
            unsafe fn splat(p: *const f32) -> Self {
                std::arch::x86_64::$set1(*p)
            }
            #[inline(always)]
            unsafe fn fmadd(self, a: Self, b: Self) -> Self {
                std::arch::x86_64::$fmadd(a, b, self)
            }
            #[inline(always)]
            unsafe fn add(self, o: Self) -> Self {
                std::arch::x86_64::$add(self, o)
            }
            #[inline(always)]
            unsafe fn store(self, p: *mut f32) {
                std::arch::x86_64::$store(p, self)
            }
        }
    };
}

impl_vector!(__m256, 8, _mm256_setzero_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_fmadd_ps, _mm256_add_ps, _mm256_storeu_ps);
impl_vector!(__m512, 16, _mm512_setzero_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_fmadd_ps, _mm512_add_ps, _mm512_storeu_ps);

/// Write the valid `mr × nr` window of a register tile — the
/// accumulator array itself, viewed as scalars with row stride `ldt` —
/// into C: overwrite when `first`, else the same per-element add the
/// full-width vector write-back performs, which is what keeps edge
/// tiles bit-identical to interior ones. Shared by the f32 and i32
/// microkernels.
///
/// # Safety
/// `c` must cover `mr` rows of `ldc` elements with `nr` valid columns
/// each; `tile` must hold `(mr-1)*ldt + nr` elements.
#[inline(always)]
unsafe fn write_edge<T: Copy + std::ops::AddAssign>(
    tile: *const T,
    ldt: usize,
    c: *mut T,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    for r in 0..mr {
        for j in 0..nr {
            let (p, v) = (c.add(r * ldc + j), *tile.add(r * ldt + j));
            if first {
                *p = v;
            } else {
                *p += v;
            }
        }
    }
}

/// The microkernel body, for a tile of `MR` rows × `NV` vectors:
/// accumulate `C[0..mr, 0..nr] (+)= A-panel · B-panel` over `kc` steps
/// with one sequential FMA chain per output element. `first` overwrites
/// C, otherwise the tile is added to it (a separate float add — the
/// same per-element operation whether the tile is written by full-width
/// stores or through [`write_edge`]).
///
/// `MR`, `NV` and the vector type only decide how many independent
/// chains run side by side, so they cannot change a bit.
///
/// A is read row-major, `MR` rows `lda` apart — in place from the
/// caller's matrix, no packing (every row is its own sequential stream,
/// which is what hardware prefetch wants when weights come from
/// memory). B rows are `ldb` apart, so a half-width kernel can walk a
/// panel packed for its full-width sibling.
///
/// # Safety
/// Only sound inside a `#[target_feature]` function enabling `V`'s
/// instruction set. `pa` must cover `MR` rows of `kc` elements, `lda`
/// apart (all `MR`, even when `mr < MR`); `pb` must hold
/// `(kc-1)*ldb + NV·LANES` elements and `c` must cover `mr ≤ MR` rows
/// of `ldc` columns with `nr ≤ NV·LANES` valid columns per row.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel<V: Vector, const MR: usize, const NV: usize>(
    kc: usize,
    pa: *const f32,
    lda: usize,
    pb: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    let mut acc = [[V::zero(); NV]; MR];
    for kk in 0..kc {
        // One k step: `acc[r][v] += a[r] · b[v]`, an independent FMA per
        // accumulator lane.
        let mut b = [V::zero(); NV];
        for (v, bv) in b.iter_mut().enumerate() {
            *bv = V::load(pb.add(kk * ldb + v * V::LANES));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = V::splat(pa.add(r * lda + kk));
            for (lane, &bv) in row.iter_mut().zip(&b) {
                *lane = lane.fmadd(av, bv);
            }
        }
    }
    let width = NV * V::LANES;
    if mr == MR && nr == width {
        for (r, row) in acc.iter().enumerate() {
            for (v, &lane) in row.iter().enumerate() {
                let p = c.add(r * ldc + v * V::LANES);
                if first {
                    lane.store(p);
                } else {
                    V::load(p).add(lane).store(p);
                }
            }
        }
    } else {
        // `[[V; NV]; MR]` in memory is the row-major `MR × width` tile.
        write_edge(acc.as_ptr().cast::<f32>(), width, c, ldc, mr, nr, first);
    }
}

/// A microkernel instance behind its `#[target_feature]` wrapper; the
/// arguments are [`microkernel`]'s.
type Kernel =
    unsafe fn(usize, *const f32, usize, *const f32, usize, *mut f32, usize, usize, usize, bool);

macro_rules! tile_kernel {
    ($name:ident, $features:literal, $v:ident, $mr:literal, $nv:literal) => {
        /// [`microkernel`] instantiated for this vector type and shape.
        ///
        /// # Safety
        /// The CPU must support the enabled target features — callers
        /// reach this only through a [`Tile`] whose `level` runtime
        /// detection confirmed — and the pointers must satisfy
        /// [`microkernel`]'s contract for this `MR × NV`.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $name(
            kc: usize,
            pa: *const f32,
            lda: usize,
            pb: *const f32,
            ldb: usize,
            c: *mut f32,
            ldc: usize,
            mr: usize,
            nr: usize,
            first: bool,
        ) {
            microkernel::<std::arch::x86_64::$v, $mr, $nv>(kc, pa, lda, pb, ldb, c, ldc, mr, nr, first)
        }
    };
}

// 6 rows × 2 YMM = 12 accumulators + 2 B loads + 1 A broadcast fit the
// 16-register AVX2 file; 12 rows × 2 ZMM = 24 + 2 + 1 fit AVX-512's 32.
tile_kernel!(mk_y6x8, "avx2,fma", __m256, 6, 1);
tile_kernel!(mk_y6x16, "avx2,fma", __m256, 6, 2);
tile_kernel!(mk_z12x16, "avx512f", __m512, 12, 1);
tile_kernel!(mk_z12x32, "avx512f", __m512, 12, 2);

/// One register tile the driver can run a GEMM with: its geometry, the
/// level that must be detected before its kernels may be called, and
/// the kernels themselves. `half` serves a trailing column panel with at
/// most `nr/2` valid columns, reading the same `nr`-strided packed B.
struct Tile {
    name: &'static str,
    level: Level,
    mr: usize,
    nr: usize,
    full: Kernel,
    half: Kernel,
}

/// Every tile, narrowest and shortest first.
#[cfg(target_arch = "x86_64")]
const TILES: [Tile; 4] = [
    Tile { name: "avx2 6x8", level: Level::Avx2, mr: 6, nr: 8, full: mk_y6x8, half: mk_y6x8 },
    Tile { name: "avx2 6x16", level: Level::Avx2, mr: 6, nr: 16, full: mk_y6x16, half: mk_y6x8 },
    Tile { name: "avx512 12x16", level: Level::Avx512, mr: 12, nr: 16, full: mk_z12x16, half: mk_z12x16 },
    Tile { name: "avx512 12x32", level: Level::Avx512, mr: 12, nr: 32, full: mk_z12x32, half: mk_z12x16 },
];

/// Rows of the tallest tile (the last: the table is sorted): sizes the
/// stack A panel.
const MR_MAX: usize = TILES[TILES.len() - 1].mr;
/// Columns of the widest tile: the `FX_GEMM_NC` quantum (so a column
/// block is whole panels under every tile), and sizes the per-panel run
/// table.
const NR_MAX: usize = TILES[TILES.len() - 1].nr;

/// The tile for an `n`-column output at `level`: the narrowest tile
/// that covers `n` in one panel, else the widest. Every tile computes
/// the same bits (module docs), so this is purely a throughput choice —
/// a narrow output (a deep ResNet layer, a one-row request) is not
/// padded out to a wide tile. The row count does not enter: a ZMM and a
/// YMM FMA issue at the same rate, so the taller tile costs a short
/// GEMM nothing the shorter one would save.
#[cfg(target_arch = "x86_64")]
fn select_tile(level: Level, n: usize) -> &'static Tile {
    match level {
        _ if n <= 8 => &TILES[0],
        Level::Avx512 if n <= 16 => &TILES[2],
        Level::Avx512 => &TILES[3],
        _ => &TILES[1],
    }
}

/// Where the logical `[k, n]` B operand's elements come from. Packing
/// resolves the layout; the microkernel sees identical panels for all
/// three.
pub(crate) enum BSrc<'a> {
    /// Row-major `[k, n]`: element `(kk, j)` lives at `b[kk*n + j]`.
    RowMajor(&'a [f32]),
    /// Transposed row-major `[n, k]` (a `Linear` weight): element
    /// `(kk, j)` lives at `b[j*k + kk]`.
    Transposed(&'a [f32]),
    /// Implicit im2col: element `(kk, j)` is kernel-offset `kk` of
    /// convolution patch `j`, gathered from the input tensor on the fly
    /// (zero where the window hangs over the padding). The full patch
    /// matrix is never materialized.
    Patches(&'a PatchSrc<'a>),
}

/// Geometry for the implicit-GEMM convolution B operand: columns are
/// patches `j = (img, oy, ox)`, rows are kernel offsets
/// `kk = (ch, ky, kx)` within one group.
pub(crate) struct PatchSrc<'a> {
    /// Full input `[N, C, H, W]`.
    pub x: &'a [f32],
    /// Total input channels `C`.
    pub c: usize,
    /// Input spatial extents.
    pub h: usize,
    /// See `h`.
    pub w: usize,
    /// First absolute input channel of the group.
    pub ch0: usize,
    /// Kernel extents.
    pub kh: usize,
    /// See `kh`.
    pub kw: usize,
    /// Stride.
    pub stride: (usize, usize),
    /// Padding.
    pub padding: (usize, usize),
    /// Dilation.
    pub dilation: (usize, usize),
    /// Output spatial extents.
    pub oh: usize,
    /// See `oh`.
    pub ow: usize,
}

/// Shortest output row for which [`pack_patches`] copies row runs
/// instead of gathering cell by cell: below it a run is too short to
/// pay for its clipping.
const PATCH_RUN_MIN: usize = 8;

/// `dst = src` for the short equal-length spans the patch packer moves:
/// fixed 8-lane chunks the compiler turns into vector moves, where a
/// `memcpy` call would cost more than the copy.
#[inline(always)]
fn copy_span(dst: &mut [f32], src: &[f32]) {
    let (mut d8, mut s8) = (dst.chunks_exact_mut(8), src.chunks_exact(8));
    for (d, s) in (&mut d8).zip(&mut s8) {
        d.copy_from_slice(s);
    }
    for (d, s) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *d = *s;
    }
}

/// Pack `kc` kernel-offset rows (from `k0`) of the `nr_eff` patches
/// starting at `jbase` into one `nr`-wide panel.
///
/// Consecutive patches of one output row read input cells a horizontal
/// stride apart, so such a **run** needs its padding clipped once, not
/// per cell: the in-bounds span is one (strided) copy and the clipped
/// ends are zeroed. Rows shorter than [`PATCH_RUN_MIN`] gather each cell
/// as a run of one.
fn pack_patches(p: &PatchSrc, k0: usize, kc: usize, jbase: usize, nr_eff: usize, nr: usize, panel: &mut [f32]) {
    let plane = p.h * p.w;
    let hw_out = p.oh * p.ow;
    let khw = p.kh * p.kw;
    let by_run = p.ow >= PATCH_RUN_MIN;
    let (s1, w) = (p.stride.1 as isize, p.w as isize);
    // Decompose the panel's columns once: (first column, length, image
    // base offset, padded window origin of the first patch).
    let mut runs = [(0usize, 0usize, 0usize, 0isize, 0isize); NR_MAX];
    let mut n_runs = 0;
    let mut jj = 0;
    while jj < nr_eff {
        let pj = jbase + jj;
        let (img, rem) = (pj / hw_out, pj % hw_out);
        let (oy, ox) = (rem / p.ow, rem % p.ow);
        let len = if by_run { (p.ow - ox).min(nr_eff - jj) } else { 1 };
        runs[n_runs] = (
            jj,
            len,
            img * p.c * plane,
            (oy * p.stride.0) as isize - p.padding.0 as isize,
            (ox * p.stride.1) as isize - p.padding.1 as isize,
        );
        n_runs += 1;
        jj += len;
    }
    // Walk k rows as an incrementally-carried (ch, ky, kx) odometer —
    // no per-element div/mod.
    let mut ch = k0 / khw;
    let mut ky = (k0 % khw) / p.kw;
    let mut kx = k0 % p.kw;
    for row in panel.chunks_mut(nr).take(kc) {
        let dy = (ky * p.dilation.0) as isize;
        let dx = (kx * p.dilation.1) as isize;
        let ch_base = (p.ch0 + ch) * plane;
        for &(j0, len, ib, iy0, ix0) in &runs[..n_runs] {
            let dst = &mut row[j0..j0 + len];
            let (iy, ix) = (iy0 + dy, ix0 + dx);
            // Negative coordinates wrap to huge usize values, so one
            // unsigned compare per axis covers both padding sides.
            if (iy as usize) >= p.h {
                dst.fill(0.0); // the whole run sits in the padding
                continue;
            }
            let src = &p.x[ib + ch_base + iy as usize * p.w..][..p.w];
            if len == 1 {
                dst[0] = if (ix as usize) < p.w { src[ix as usize] } else { 0.0 };
                continue;
            }
            // Columns `lo..hi` of the run land inside the input row:
            // `0 ≤ ix + s1·j < w`.
            let lo = (-ix + s1 - 1).div_euclid(s1).clamp(0, len as isize) as usize;
            let hi = (w - ix + s1 - 1).div_euclid(s1).clamp(lo as isize, len as isize) as usize;
            dst[..lo].fill(0.0);
            dst[hi..].fill(0.0);
            if lo < hi {
                let start = (ix + lo as isize * s1) as usize;
                if s1 == 1 {
                    copy_span(&mut dst[lo..hi], &src[start..start + (hi - lo)]);
                } else {
                    for (d, v) in dst[lo..hi].iter_mut().zip(src[start..].iter().step_by(s1 as usize)) {
                        *d = *v;
                    }
                }
            }
        }
        row[nr_eff..].fill(0.0);
        kx += 1;
        if kx == p.kw {
            kx = 0;
            ky += 1;
            if ky == p.kh {
                ky = 0;
                ch += 1;
            }
        }
    }
}

/// Pack the `[k0..k0+kc) × [j0..j0+nc)` window of B into `nr`-wide
/// column panels: panel `jp` holds, for each k step, `nr` contiguous
/// values (zero-padded past the matrix edge). Every element of the used
/// region is written, so a recycled pool buffer can never leak stale
/// data.
#[allow(clippy::too_many_arguments)]
fn pack_b(src: &BSrc, nr: usize, n: usize, k: usize, k0: usize, kc: usize, j0: usize, nc: usize, pb: &mut [f32]) {
    for jp in 0..nc.div_ceil(nr) {
        let jbase = j0 + jp * nr;
        let nr_eff = nr.min(j0 + nc - jbase);
        let panel = &mut pb[jp * kc * nr..(jp + 1) * kc * nr];
        match src {
            BSrc::RowMajor(b) => {
                for (kk, row) in panel.chunks_mut(nr).enumerate() {
                    // Pull the next source row toward L1 while this one
                    // is being copied.
                    prefetch(b, (k0 + kk + 1) * n + jbase);
                    let srow = &b[(k0 + kk) * n + jbase..(k0 + kk) * n + jbase + nr_eff];
                    row[..nr_eff].copy_from_slice(srow);
                    row[nr_eff..].fill(0.0);
                }
            }
            BSrc::Transposed(b) => {
                if nr_eff < nr {
                    panel.fill(0.0);
                }
                for jj in 0..nr_eff {
                    // The next column starts a stride away — warm it up
                    // while scattering this one.
                    prefetch(b, (jbase + jj + 1) * k + k0);
                    let col = &b[(jbase + jj) * k + k0..(jbase + jj) * k + k0 + kc];
                    for (kk, &v) in col.iter().enumerate() {
                        panel[kk * nr + jj] = v;
                    }
                }
            }
            BSrc::Patches(p) => pack_patches(p, k0, kc, jbase, nr_eff, nr, panel),
        }
    }
}

/// Copy the ragged last row panel — rows `[i0, i0+mr_eff)`, columns
/// `[k0, k0+kc)` of A (leading dimension `lda`) — into a row-major
/// panel of `pa.len() / kc` rows whose rows past the matrix edge are
/// zero, so the kernel can read a full tile's rows. Writes every
/// element of `pa`.
fn pad_a(a: &[f32], lda: usize, i0: usize, mr_eff: usize, k0: usize, kc: usize, pa: &mut [MaybeUninit<f32>]) {
    for (r, row) in pa.chunks_mut(kc).enumerate() {
        let src = (r < mr_eff).then(|| &a[(i0 + r) * lda + k0..][..kc]);
        for (kk, slot) in row.iter_mut().enumerate() {
            slot.write(src.map_or(0.0, |s| s[kk]));
        }
    }
}

/// An output base pointer each parallel worker copies.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: used only to carve disjoint row-panel (or row) windows of an
// output the submitting call holds `&mut` for its whole duration.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Blocked, panel-packed GEMM: `C[m,n] = A[m,k] · B` (+ epilogue), with
/// B's layout resolved by [`BSrc`] and the register tile chosen from the
/// output shape ([`select_tile`]). `C` is fully overwritten. The
/// epilogue adds `row_bias[i]` and/or `col_bias[j]` and applies ReLU
/// after the accumulation finishes — elementwise identical to running
/// the separate kernels afterwards.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: BSrc,
    c: &mut [f32],
    row_bias: Option<&[f32]>,
    col_bias: Option<&[f32]>,
    relu: bool,
) {
    assert!(simd_available(), "simd::gemm requires AVX2+FMA");
    // Callers gate on `simd_enabled`; tests reach here under FX_SIMD=0
    // too, where any detected tile computes the same bits.
    let tile = select_tile(level().max(Level::Avx2), n);
    gemm_tiled(tile, m, k, n, a, b, c, row_bias, col_bias, relu);
}

/// [`gemm`] with an explicit register tile: the one cache-blocking
/// driver. Panel widths, the stack A panel and the pool-drawn B block
/// all take their geometry from `tile`.
///
/// Row panels are distributed over the kernel thread pool; the packed B
/// block is shared read-only, so results are independent of the thread
/// count.
#[allow(clippy::too_many_arguments)]
fn gemm_tiled(
    tile: &Tile,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: BSrc,
    c: &mut [f32],
    row_bias: Option<&[f32]>,
    col_bias: Option<&[f32]>,
    relu: bool,
) {
    assert!(tile.level <= detected_level(), "gemm: tile {} needs an ISA this CPU lacks", tile.name);
    assert_eq!(a.len(), m * k, "gemm: A length mismatch");
    assert_eq!(c.len(), m * n, "gemm: C length mismatch");
    match &b {
        BSrc::RowMajor(b) => assert_eq!(b.len(), k * n, "gemm: B length mismatch"),
        BSrc::Transposed(b) => assert_eq!(b.len(), n * k, "gemm: Bᵀ length mismatch"),
        BSrc::Patches(_) => {}
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        epilogue(m, n, c, row_bias, col_bias, relu);
        return;
    }

    let (mr, nr) = (tile.mr, tile.nr);
    let (kc_blk, nc_blk) = (gemm_kc(), gemm_nc());
    // A column block must be whole panels, or `pack_b` would write past
    // the block it was given.
    assert_eq!(nc_blk % nr, 0, "gemm: NC {nc_blk} is not a multiple of NR {nr}");
    let mut pb = pool::alloc_f32(kc_blk * nc_blk);
    let c_base = SendPtr(c.as_mut_ptr());
    for jc in (0..n).step_by(nc_blk) {
        let nc_eff = nc_blk.min(n - jc);
        let n_jpanels = nc_eff.div_ceil(nr);
        for k0 in (0..k).step_by(kc_blk) {
            let kc_eff = kc_blk.min(k - k0);
            pack_b(&b, nr, n, k, k0, kc_eff, jc, nc_eff, &mut pb);
            let pb_ref: &[f32] = &pb;
            parallel_chunks(m.div_ceil(mr), |range| {
                let c_base = c_base;
                // Uninitialized on purpose: `pad_a` writes every element
                // of the `mr × kc_eff` prefix the kernel reads.
                let mut pa = [MaybeUninit::<f32>::uninit(); MR_MAX * KC_MAX];
                for rp in range {
                    let i0 = rp * mr;
                    let mr_eff = mr.min(m - i0);
                    // A full row panel is read in place; the ragged last
                    // one through a zero-padded copy (identical values
                    // either way).
                    let (ap, lda) = if mr_eff == mr {
                        (a[i0 * k + k0..].as_ptr(), k)
                    } else {
                        pad_a(a, k, i0, mr_eff, k0, kc_eff, &mut pa[..mr * kc_eff]);
                        (pa.as_ptr().cast::<f32>(), kc_eff)
                    };
                    for jp in 0..n_jpanels {
                        let j = jc + jp * nr;
                        let nr_eff = nr.min(n - j);
                        let kernel = if 2 * nr_eff <= nr { tile.half } else { tile.full };
                        // SAFETY: the tile's level was detected (asserted
                        // above). A: in place, `mr` full rows of `kc_eff`
                        // in-bounds elements; padded, fully written by
                        // `pad_a`. B: panel `jp` holds `kc_eff` rows of
                        // `nr`. C: row panels are disjoint across `rp`,
                        // so each call writes an exclusive
                        // `mr_eff × nr_eff` window.
                        unsafe {
                            let pbp = pb_ref.as_ptr().add(jp * kc_eff * nr);
                            let cp = c_base.0.add(i0 * n + j);
                            kernel(kc_eff, ap, lda, pbp, nr, cp, n, mr_eff, nr_eff, k0 == 0);
                        }
                    }
                }
            });
        }
    }
    pool::recycle_f32(pb);
    epilogue(m, n, c, row_bias, col_bias, relu);
}

/// Bias + ReLU epilogue over the finished accumulator, in the same
/// elementwise order as the standalone kernels (`+ bias`, then
/// `max(0)`).
fn epilogue(
    m: usize,
    n: usize,
    c: &mut [f32],
    row_bias: Option<&[f32]>,
    col_bias: Option<&[f32]>,
    relu: bool,
) {
    if row_bias.is_none() && col_bias.is_none() && !relu {
        return;
    }
    if let Some(rb) = row_bias {
        assert_eq!(rb.len(), m, "gemm: row bias length mismatch");
    }
    if let Some(cb) = col_bias {
        assert_eq!(cb.len(), n, "gemm: col bias length mismatch");
    }
    for (i, row) in c.chunks_mut(n).enumerate() {
        if let Some(rb) = row_bias {
            let bv = rb[i];
            row.iter_mut().for_each(|v| *v += bv);
        }
        if let Some(cb) = col_bias {
            for (v, &bv) in row.iter_mut().zip(cb) {
                *v += bv;
            }
        }
        if relu {
            row.iter_mut().for_each(|v| *v = v.max(0.0));
        }
    }
}

// ===========================================================================
// int8 path
// ===========================================================================

/// int8 tile rows (its own geometry: the f32 tiles vary per call).
const I8_MR: usize = 6;
/// int8 tile columns (two YMM of 8 i32 accumulators).
const I8_NR: usize = 16;

/// How [`gemm_i8_nt`] lays out the requantized `i8` result at
/// write-back.
pub(crate) enum QOutI8 {
    /// `out[i*n + j]` — quantized linear.
    RowMajor,
    /// Rows are `(image, patch)` pairs (`i = img*p + patch`), columns
    /// are output channels: `out[img*n*p + j*p + patch]` — the NCHW
    /// write-back of a quantized conv's im2col GEMM, fused with the
    /// `[P,O] → [O,P]` transpose.
    ImagePatch {
        /// Patches per image (`oh·ow`).
        p: usize,
    },
}

/// Pack one i32 from an (even, odd) k-pair of i8 values: two
/// sign-extended i16 halves, low half = even k. This is the operand
/// shape `_mm256_madd_epi16` multiplies exactly.
#[inline(always)]
fn pack_pair(lo: i8, hi: i8) -> i32 {
    ((lo as i16 as u16 as u32) | ((hi as i16 as u16 as u32) << 16)) as i32
}

/// Pack the `[k0..k0+kc) × [j0..j0+nc)` window of the transposed-layout
/// (`[n, k]`) i8 B into I8_NR-wide column panels of **interleaved i16
/// k-pairs**: panel `jp`, pair `kp`, column `jj` occupies
/// `pb[jp·kcp·2NR + kp·2NR + 2jj + {0,1}]` (even k then odd k). The odd
/// tail of `kc` and columns past the edge are zero — a zero pair
/// contributes exactly 0 to the i32 accumulator, so padding cannot
/// change results. Every used element is written (pool-recycled buffers
/// can't leak).
#[allow(clippy::too_many_arguments)]
fn pack_b_i8(b: &[i8], k: usize, k0: usize, kc: usize, j0: usize, nc: usize, kcp: usize, pb: &mut [i16]) {
    let n_panels = nc.div_ceil(I8_NR);
    for jp in 0..n_panels {
        let jbase = j0 + jp * I8_NR;
        let nr_eff = I8_NR.min(j0 + nc - jbase);
        let panel = &mut pb[jp * kcp * 2 * I8_NR..(jp + 1) * kcp * 2 * I8_NR];
        panel.fill(0);
        for jj in 0..nr_eff {
            prefetch(b, (jbase + jj + 1) * k + k0);
            let col = &b[(jbase + jj) * k + k0..(jbase + jj) * k + k0 + kc];
            for (kk, &v) in col.iter().enumerate() {
                panel[(kk / 2) * 2 * I8_NR + 2 * jj + (kk & 1)] = v as i16;
            }
        }
    }
}

/// B panels prepacked over the **full** k extent, kc-block agnostic:
/// panel `jp` occupies `data[jp·kcp·2NR ..]` with its k-pair rows
/// contiguous at stride `2NR`, so a `[k0, k0+kc)` block (any even `k0`)
/// is the contiguous sub-slice starting at row `k0/2`. Weights are
/// immutable across inference calls, so [`crate::quant`] builds this
/// once per weight tensor and reuses it every call (FBGEMM's
/// `PackBMatrix` prepacking) — steady-state GEMMs never re-pack B.
pub(crate) struct PackedBI8 {
    pub(crate) data: Vec<i16>,
    /// k-pair rows per panel (`k.div_ceil(2)`).
    pub(crate) kcp: usize,
}

/// Prepack all of the `[n, k]` transposed-layout B into [`PackedBI8`].
pub(crate) fn pack_b_full(b: &[i8], k: usize, n: usize) -> PackedBI8 {
    let kcp = k.div_ceil(2);
    let mut data = vec![0i16; n.div_ceil(I8_NR) * kcp * 2 * I8_NR];
    if k > 0 && n > 0 {
        pack_b_i8(b, k, 0, k, 0, n, kcp, &mut data);
    }
    PackedBI8 { data, kcp }
}

/// Pack the `[i0..i0+mr) × [k0..k0+kc)` window of the i8 A into k-pair
/// major order: I8_MR packed pairs per `kp` step ([`pack_pair`]), rows past
/// the edge and the odd-k tail zero-padded. Row-at-a-time over
/// `chunks_exact` so the hot loop carries no bounds checks.
fn pack_a_i8(a: &[i8], lda: usize, i0: usize, mr: usize, k0: usize, kc: usize, pa: &mut [i32]) {
    let kcp = kc.div_ceil(2);
    for r in 0..mr {
        let row = &a[(i0 + r) * lda + k0..(i0 + r) * lda + k0 + kc];
        prefetch(a, (i0 + r + 1) * lda + k0);
        let mut pairs = row.chunks_exact(2);
        for (slot, pair) in pa[r..].iter_mut().step_by(I8_MR).zip(&mut pairs) {
            *slot = pack_pair(pair[0], pair[1]);
        }
        if let &[lo] = pairs.remainder() {
            pa[(kcp - 1) * I8_MR + r] = pack_pair(lo, 0);
        }
    }
    for r in mr..I8_MR {
        for slot in pa[r..kcp * I8_MR].iter_mut().step_by(I8_MR) {
            *slot = 0;
        }
    }
}

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m256i;

/// How the int8 microkernel folds one broadcast A pair × 8 B column
/// pairs into its i32 accumulator: `vpmaddwd` + `vpaddd`, or with
/// `VNNI` the pair fused into `vpdpwssd`. Both compute exactly
/// `acc + Σ₂ sx(a_i16)·sx(b_i16)` — integer, no rounding — so they are
/// bit-identical by construction (and unit-tested so).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dot_step<const VNNI: bool>(acc: __m256i, a: __m256i, b: __m256i) -> __m256i {
    use std::arch::x86_64::*;
    if VNNI {
        _mm256_dpwssd_epi32(acc, a, b)
    } else {
        _mm256_add_epi32(acc, _mm256_madd_epi16(a, b))
    }
}

/// `PAIRS` consecutive k-pairs of the int8 register tile, row by row:
/// `acc[r][v] = dot_step(acc[r][v], a[p][r], b[p][v])`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn i8_step<const VNNI: bool, const NV: usize, const PAIRS: usize>(
    acc: &mut [[__m256i; NV]; I8_MR],
    ap: *const i32,
    bp: *const i16,
) {
    use std::arch::x86_64::*;
    let mut b = [[_mm256_setzero_si256(); NV]; PAIRS];
    for (p, bv) in b.iter_mut().enumerate() {
        for (v, bv) in bv.iter_mut().enumerate() {
            *bv = _mm256_loadu_si256(bp.add((p * 2 + v) * I8_NR) as *const __m256i);
        }
    }
    for (r, row) in acc.iter_mut().enumerate() {
        for (p, bv) in b.iter().enumerate() {
            let av = _mm256_set1_epi32(*ap.add(p * I8_MR + r));
            for (lane, &bv) in row.iter_mut().zip(bv) {
                *lane = dot_step::<VNNI>(*lane, av, bv);
            }
        }
    }
}

/// The int8 microkernel body, `I8_MR` rows × `NV` YMM of i32:
/// `C[0..mr, 0..nr] (+)= A·B` over `kcp` k-pairs. Per pair and row:
/// broadcast the packed (i16,i16) A pair and fold it against 8
/// interleaved B column pairs per YMM through [`dot_step`] — an **exact** i32 per
/// column. Everything is integer and exact, so tile shape, edge
/// handling, the dot-step form and summation order cannot change any
/// bit.
///
/// The k-pair loop is unrolled 2× with a B-panel prefetch ~8 pairs
/// ahead; unrolling only duplicates the loop body.
///
/// # Safety
/// Only sound inside a `#[target_feature]` function enabling AVX2 (and
/// AVX-512 VNNI + VL when `VNNI`); `pa` holds `kcp*I8_MR` packed pairs, `pb` holds
/// `kcp*2*I8_NR` i16, `c` covers `mr` rows of `ldc` i32 with
/// `nr ≤ 8·NV` valid columns.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_i8<const VNNI: bool, const NV: usize>(
    kcp: usize,
    pa: *const i32,
    pb: *const i16,
    c: *mut i32,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_si256(); NV]; I8_MR];
    let mut kp = 0;
    while kp + 2 <= kcp {
        _mm_prefetch::<_MM_HINT_T0>(pb.wrapping_add((kp + 8) * 2 * I8_NR) as *const i8);
        i8_step::<VNNI, NV, 2>(&mut acc, pa.add(kp * I8_MR), pb.add(kp * 2 * I8_NR));
        kp += 2;
    }
    if kp < kcp {
        i8_step::<VNNI, NV, 1>(&mut acc, pa.add(kp * I8_MR), pb.add(kp * 2 * I8_NR));
    }
    if mr == I8_MR && nr == 8 * NV {
        for (r, row) in acc.iter().enumerate() {
            for (v, &lane) in row.iter().enumerate() {
                let p = c.add(r * ldc + v * 8) as *mut __m256i;
                let out = if first { lane } else { _mm256_add_epi32(_mm256_loadu_si256(p), lane) };
                _mm256_storeu_si256(p, out);
            }
        }
    } else {
        // `[[__m256i; NV]; I8_MR]` in memory is the row-major i32 tile
        // (a copy: taking `acc`'s own address would spill the
        // accumulators ahead of the odd-pair tail on every call).
        let tile = acc;
        write_edge(tile.as_ptr().cast::<i32>(), 8 * NV, c, ldc, mr, nr, first);
    }
}

macro_rules! i8_kernel {
    ($name:ident, $features:literal, $vnni:literal, $nv:literal) => {
        /// [`mk_i8`] instantiated for this dot step and width (the
        /// narrow form serves `nr ≤ 8`; `pb` rows stay `2·I8_NR`-strided).
        ///
        /// # Safety
        /// The CPU must support the enabled target features; pointers
        /// per [`mk_i8`]'s contract.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $name(
            kcp: usize,
            pa: *const i32,
            pb: *const i16,
            c: *mut i32,
            ldc: usize,
            mr: usize,
            nr: usize,
            first: bool,
        ) {
            mk_i8::<$vnni, $nv>(kcp, pa, pb, c, ldc, mr, nr, first)
        }
    };
}

i8_kernel!(mk_i8_6x16, "avx2", false, 2);
i8_kernel!(mk_i8_6x8, "avx2", false, 1);
i8_kernel!(mk_i8_6x16_vnni, "avx2,avx512vnni,avx512vl", true, 2);
i8_kernel!(mk_i8_6x8_vnni, "avx2,avx512vnni,avx512vl", true, 1);

/// Dispatch one microkernel tile to the VNNI or plain form. The `vnni`
/// flag is hoisted out of the tile loops by the caller; both forms
/// produce identical bytes (exact integer arithmetic, same order).
///
/// # Safety
/// Contracts of [`mk_i8_6x16`] / [`mk_i8_6x8`]; `vnni` only when
/// AVX-512 VNNI + VL are available.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_i8_tile(
    vnni: bool,
    kcp: usize,
    pa: *const i32,
    pb: *const i16,
    c: *mut i32,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    if nr <= 8 {
        if vnni {
            mk_i8_6x8_vnni(kcp, pa, pb, c, ldc, mr, nr, first);
        } else {
            mk_i8_6x8(kcp, pa, pb, c, ldc, mr, nr, first);
        }
    } else if vnni {
        mk_i8_6x16_vnni(kcp, pa, pb, c, ldc, mr, nr, first);
    } else {
        mk_i8_6x16(kcp, pa, pb, c, ldc, mr, nr, first);
    }
}

/// Requantize one accumulator row (`n` i32 at `acc`) into `n` i8 at
/// `dst`: `round_ne((acc − zp_corr[j])·mult[j] + badd[j] [max 0]) +
/// out_zp`, clamped to i8. Eight lanes at a time with a scalar tail
/// through [`crate::quant::requant_one`]; every vector op is the exact
/// IEEE counterpart of the scalar helper (`cvtdq2ps` = `as f32`,
/// `cvtps2dq` = `round_ties_even() as i32`, `maxps` = the `> 0.0`
/// select), so lanes and tail — and the scalar engine — agree bitwise.
///
/// # Safety
/// Requires AVX2; `acc`, `zp_corr`, `mult`, `badd` hold `n` readable
/// elements, `dst` `n` writable bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requant_row_avx2(
    acc: *const i32,
    zp_corr: *const i32,
    mult: *const f32,
    badd: *const f32,
    n: usize,
    relu: bool,
    out_zp: i32,
    dst: *mut i8,
) {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    let zp_v = _mm256_set1_epi32(out_zp);
    let lo_v = _mm256_set1_epi32(-128);
    let hi_v = _mm256_set1_epi32(127);
    let mut j = 0;
    while j + 8 <= n {
        let c = _mm256_sub_epi32(
            _mm256_loadu_si256(acc.add(j) as *const __m256i),
            _mm256_loadu_si256(zp_corr.add(j) as *const __m256i),
        );
        let mut v = _mm256_add_ps(
            _mm256_mul_ps(_mm256_cvtepi32_ps(c), _mm256_loadu_ps(mult.add(j))),
            _mm256_loadu_ps(badd.add(j)),
        );
        if relu {
            v = _mm256_max_ps(v, zero);
        }
        let q = _mm256_min_epi32(
            hi_v,
            _mm256_max_epi32(lo_v, _mm256_add_epi32(_mm256_cvtps_epi32(v), zp_v)),
        );
        // 8×i32 → 8×i8: the values are already in [-128, 127], so the
        // saturating packs are pure narrowing.
        let w = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
        let bytes = _mm_packs_epi16(w, w);
        _mm_storel_epi64(dst.add(j) as *mut __m128i, bytes);
        j += 8;
    }
    while j < n {
        let corrected = (*acc.add(j)).wrapping_sub(*zp_corr.add(j));
        *dst.add(j) =
            crate::quant::requant_one(corrected, *mult.add(j), *badd.add(j), relu, out_zp);
        j += 1;
    }
}

/// Blocked int8 GEMM with fused requantization:
/// `out = requantize(A[m,k]·Bᵀ − za·colsum + bias, relu)` where `pb` is
/// the prepacked transposed (`[n, k]`) weight layout ([`pack_b_full`])
/// — the only layout the quantized operators produce (linear weights
/// and im2col'd conv patches both stream `[rows, k]` against
/// `[out_channels, k]`).
///
/// Accumulation is exact i32 (see the module docs for why `madd_epi16`
/// over pre-widened pairs instead of `maddubs`); the epilogue applies
/// the FBGEMM row-offset correction `− a_zp·col_sums[j]`, then
/// requantizes through [`requant_row_avx2`] — op-for-op the IEEE twin
/// of the scalar engine's `requant_one` loop — so the int8 output is
/// **bit-identical** across engines, thread counts, batch positions and
/// blocking parameters.
///
/// `mult`/`badd` are the precomputed per-output-column requantization
/// coefficients (see [`crate::quant::qgemm_requant`], which derives
/// them once and hands the same slices to both engines); `layout` picks
/// the write-back index mapping.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_i8_nt(
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    pb: &PackedBI8,
    a_zp: i32,
    col_sums: &[i32],
    mult: &[f32],
    badd: &[f32],
    out_zp: i32,
    relu: bool,
    layout: &QOutI8,
    out: &mut [i8],
) {
    assert!(simd_available(), "simd::gemm_i8_nt requires AVX2");
    assert_eq!(a.len(), m * k, "gemm_i8: A length mismatch");
    assert_eq!(out.len(), m * n, "gemm_i8: output length mismatch");
    assert_eq!(col_sums.len(), n, "gemm_i8: col_sums length mismatch");
    assert_eq!(mult.len(), n, "gemm_i8: mult length mismatch");
    assert_eq!(badd.len(), n, "gemm_i8: badd length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let kcp_full = k.div_ceil(2);
    assert_eq!(
        pb.data.len(),
        n.div_ceil(I8_NR) * kcp_full * 2 * I8_NR,
        "gemm_i8: packed B size mismatch"
    );
    assert_eq!(pb.kcp, kcp_full, "gemm_i8: packed B kcp mismatch");

    let (kc_blk, nc_blk) = (gemm_kc(), gemm_nc());

    // Zero-point correction per column, shared by both paths below.
    let mut zp_corr = pool::alloc_i32(n);
    for (c, &s) in zp_corr.iter_mut().zip(col_sums) {
        *c = a_zp.wrapping_mul(s);
    }

    // Fused write-back of one accumulator row (`n` i32 at `src`) into
    // row `i`'s place in `out`: zero-point correction + requantize +
    // bias + ReLU ([`requant_row_avx2`]), then the layout's index map.
    // `tmp` is `n` bytes of worker-local scratch for the ImagePatch
    // transpose. Callers pass rows from disjoint ranges.
    let out_base = SendPtr(out.as_mut_ptr());
    let zp_corr_ref: &[i32] = &zp_corr;
    let write_row = |i: usize, src: *const i32, tmp: &mut [i8]| {
        let out_base = out_base;
        // SAFETY: AVX2 asserted above; `src`, `zp_corr`, `mult` and
        // `badd` hold `n` elements and `dst` takes `n` bytes.
        let requant = |dst: *mut i8| unsafe {
            requant_row_avx2(src, zp_corr_ref.as_ptr(), mult.as_ptr(), badd.as_ptr(), n, relu, out_zp, dst)
        };
        match *layout {
            // SAFETY: row `i` of `out` belongs to this caller alone.
            QOutI8::RowMajor => requant(unsafe { out_base.0.add(i * n) }),
            QOutI8::ImagePatch { p } => {
                requant(tmp.as_mut_ptr());
                let (img, patch) = (i / p, i % p);
                for (j, &v) in tmp.iter().enumerate() {
                    // SAFETY: distinct (i, j) map to distinct in-bounds
                    // ImagePatch indices; rows are disjoint.
                    unsafe { *out_base.0.add(img * n * p + j * p + patch) = v };
                }
            }
        }
    };
    let scratch = || match *layout {
        QOutI8::ImagePatch { .. } => pool::alloc_i8(n),
        QOutI8::RowMajor => Vec::new(),
    };

    // Fused strip path: when one (kc, nc) block covers the whole GEMM,
    // requantize each 6-row strip straight out of an L1-resident
    // accumulator instead of materializing (and re-reading) the full
    // `m×n` i32 buffer. Bit-identical to the blocked path: per output
    // element the k-chain order and the epilogue ops are the same —
    // only where the i32s briefly live differs.
    let vnni = vnni_enabled();
    if k > 0 && k <= kc_blk && n <= nc_blk {
        let kcp = kcp_full;
        let n_jpanels = n.div_ceil(I8_NR);
        let pb_ref: &[i16] = &pb.data;
        parallel_chunks(m.div_ceil(I8_MR), |range| {
            let mut pa = [0i32; I8_MR * (KC_MAX / 2)];
            let mut strip = pool::alloc_i32(I8_MR * n);
            let mut tmp = scratch();
            for rp in range {
                let i0 = rp * I8_MR;
                let mr_eff = I8_MR.min(m - i0);
                pack_a_i8(a, k, i0, mr_eff, 0, k, &mut pa);
                for jp in 0..n_jpanels {
                    let j = jp * I8_NR;
                    let nr_eff = I8_NR.min(n - j);
                    // SAFETY: AVX2 asserted above; `strip` is
                    // worker-local and `first=true` fully overwrites the
                    // `mr_eff × nr_eff` window before any read.
                    unsafe {
                        let pbp = pb_ref.as_ptr().add(jp * kcp * 2 * I8_NR);
                        let cp = strip.as_mut_ptr().add(j);
                        mk_i8_tile(vnni, kcp, pa.as_ptr(), pbp, cp, n, mr_eff, nr_eff, true);
                    }
                }
                for r in 0..mr_eff {
                    write_row(i0 + r, strip[r * n..].as_ptr(), &mut tmp);
                }
            }
            pool::recycle_i32(strip);
            pool::recycle_i8(tmp);
        });
        pool::recycle_i32(zp_corr);
        return;
    }

    let mut acc = pool::alloc_i32(m * n);
    if k > 0 {
        let acc_base = SendPtr(acc.as_mut_ptr());
        for jc in (0..n).step_by(nc_blk) {
            let nc_eff = nc_blk.min(n - jc);
            let n_jpanels = nc_eff.div_ceil(I8_NR);
            // `nc_blk` is I8_NR-quantized and `kc_blk` 8-quantized, so `jc`
            // lands on a panel boundary and `k0` on an (even) pair
            // boundary: a k-block of a prepacked panel is the contiguous
            // rows `[k0/2, k0/2 + kcp_eff)`.
            let jp0 = jc / I8_NR;
            for (pi, k0) in (0..k).step_by(kc_blk).enumerate() {
                let kc_eff = kc_blk.min(k - k0);
                let kcp_eff = kc_eff.div_ceil(2);
                let first = pi == 0;
                let pb_ref: &[i16] = &pb.data;
                let n_rpanels = m.div_ceil(I8_MR);
                parallel_chunks(n_rpanels, |range| {
                    let acc_base = acc_base;
                    let mut pa = [0i32; I8_MR * (KC_MAX / 2)];
                    for rp in range {
                        let i0 = rp * I8_MR;
                        let mr_eff = I8_MR.min(m - i0);
                        pack_a_i8(a, k, i0, mr_eff, k0, kc_eff, &mut pa);
                        for jp in 0..n_jpanels {
                            let j = jc + jp * I8_NR;
                            let nr_eff = I8_NR.min(n - j);
                            // SAFETY: AVX2 asserted above; row panels are
                            // disjoint across `rp`, so each microkernel
                            // writes an exclusive accumulator window.
                            unsafe {
                                let pbp = pb_ref
                                    .as_ptr()
                                    .add(((jp0 + jp) * kcp_full + k0 / 2) * 2 * I8_NR);
                                let cp = acc_base.0.add(i0 * n + j);
                                mk_i8_tile(vnni, kcp_eff, pa.as_ptr(), pbp, cp, n, mr_eff, nr_eff, first);
                            }
                        }
                    }
                });
            }
        }
    } else {
        acc.fill(0);
    }

    let acc_ref: &[i32] = &acc;
    parallel_chunks(m, |rows| {
        let mut tmp = scratch();
        for i in rows {
            write_row(i, acc_ref[i * n..].as_ptr(), &mut tmp);
        }
        pool::recycle_i8(tmp);
    });
    pool::recycle_i32(zp_corr);
    pool::recycle_i32(acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedableRng, StdRng};

    #[test]
    #[ignore]
    fn perf_probe_microkernel() {
        use std::time::Instant;
        let kcp = 128usize;
        let pa = vec![0x0101_0101i32; kcp * I8_MR];
        let pb = vec![1i16; kcp * 2 * I8_NR];
        let mut c = vec![0i32; I8_MR * 64];
        let iters = 200_000u32;
        unsafe { mk_i8_6x16(kcp, pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr(), I8_NR, I8_MR, I8_NR, true) };
        let t = Instant::now();
        for _ in 0..iters {
            unsafe { mk_i8_6x16(kcp, pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr(), I8_NR, I8_MR, I8_NR, true) };
        }
        let per = t.elapsed().as_secs_f64() / iters as f64;
        let macs = (I8_MR * I8_NR * 2 * kcp) as f64;
        eprintln!(
            "mk_i8_6x16: {:.1} ns/call, {:.1} GMAC/s ({:.2} ns/kp)",
            per * 1e9,
            macs / per / 1e9,
            per * 1e9 / kcp as f64
        );
        std::hint::black_box(&c);
    }

    #[test]
    #[ignore]
    fn perf_probe_gemm_components() {
        use std::time::Instant;
        let (m, k, n) = (256usize, 256usize, 256usize);
        let (kc, kcp) = (k, k / 2);
        let a = vec![3i8; m * k];
        let b = vec![5i8; n * k];
        let mut pb = vec![0i16; kcp * 2 * n.div_ceil(I8_NR) * I8_NR];
        let mut pa = vec![0i32; I8_MR * kcp];
        let mut acc = vec![0i32; m * n];
        let mut out = vec![0i8; m * n];
        let iters = 200;

        let t = Instant::now();
        for _ in 0..iters {
            pack_b_i8(&b, k, 0, kc, 0, n, kcp, &mut pb);
        }
        eprintln!("pack_b (full):  {:.3} ms", t.elapsed().as_secs_f64() / iters as f64 * 1e3);

        let n_rp = m.div_ceil(I8_MR);
        let t = Instant::now();
        for _ in 0..iters {
            for rp in 0..n_rp {
                let i0 = rp * I8_MR;
                pack_a_i8(&a, k, i0, I8_MR.min(m - i0), 0, kc, &mut pa);
            }
        }
        eprintln!("pack_a (all rp): {:.3} ms", t.elapsed().as_secs_f64() / iters as f64 * 1e3);

        let t = Instant::now();
        for _ in 0..iters {
            for rp in 0..n_rp {
                let i0 = rp * I8_MR;
                let mr = I8_MR.min(m - i0);
                for jp in 0..n / I8_NR {
                    unsafe {
                        mk_i8_6x16(
                            kcp,
                            pa.as_ptr(),
                            pb.as_ptr().add(jp * kcp * 2 * I8_NR),
                            acc.as_mut_ptr().add(i0 * n + jp * I8_NR),
                            n,
                            mr,
                            I8_NR,
                            true,
                        )
                    };
                }
            }
        }
        eprintln!("mk loop (real):  {:.3} ms", t.elapsed().as_secs_f64() / iters as f64 * 1e3);

        let zp_corr = vec![77i32 * 3; n];
        let mult = vec![0.005f32; n];
        let badd = vec![0.0f32; n];
        let t = Instant::now();
        for _ in 0..iters {
            for i in 0..m {
                unsafe {
                    requant_row_avx2(
                        acc.as_ptr().add(i * n),
                        zp_corr.as_ptr(),
                        mult.as_ptr(),
                        badd.as_ptr(),
                        n,
                        false,
                        0,
                        out.as_mut_ptr().add(i * n),
                    );
                }
            }
        }
        eprintln!("epilogue:        {:.3} ms", t.elapsed().as_secs_f64() / iters as f64 * 1e3);
        std::hint::black_box((&out, &acc));
    }

    /// Single-accumulator reference in the microkernel's summation
    /// order (sequential over k), used for the tight-tolerance checks.
    fn reference(m: usize, k: usize, n: usize, a: &[f32], b_at: impl Fn(usize, usize) -> f32) -> Vec<f32> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += (a[i * k + kk] as f64) * (b_at(kk, j) as f64);
                }
            }
        }
        c.into_iter().map(|v| v as f32).collect()
    }

    /// Documented ULP-style tolerance for a K-deep f32 reduction against
    /// a higher-precision oracle: `2·K·ε` relative to the magnitude sum.
    fn tol(k: usize, scale: f32) -> f32 {
        2.0 * (k.max(1) as f32) * f32::EPSILON * scale.max(1.0)
    }

    fn rand_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f64..1.0) as f32).collect()
    }

    fn rand_i8(len: usize, rng: &mut StdRng) -> Vec<i8> {
        (0..len).map(|_| rng.gen_range(-128i64..128) as i8).collect()
    }

    /// Odd-shape sweep (K below one lane, K=0, single row/column, exact
    /// tile multiples, primes) pitting the selected tile against an f64
    /// oracle in the same summation order.
    #[test]
    fn simd_gemm_matches_oracle_over_odd_shapes() {
        if !simd_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        let shapes = [
            (1usize, 0usize, 1usize),
            (1, 1, 1),
            (1, 3, 1),
            (1, 2048, 10),
            (5, 7, 13),
            (6, 16, 16),
            (7, 17, 18),
            (12, 256, 32),
            (13, 257, 31),
            (3, 5, 40),
            (23, 300, 17),
            (6, 512, 1),
        ];
        let mut rng = StdRng::seed_from_u64(0x51D);
        for &(m, k, n) in &shapes {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let scale = k as f32; // |a|,|b| ≤ 1 ⇒ Σ|a·b| ≤ k
            let want = reference(m, k, n, &a, |kk, j| b[kk * n + j]);

            let mut c = vec![f32::NAN; m * n];
            gemm(m, k, n, &a, BSrc::RowMajor(&b), &mut c, None, None, false);
            for (i, (&got, &w)) in c.iter().zip(&want).enumerate() {
                assert!(
                    (got - w).abs() <= tol(k, scale),
                    "nn {m}x{k}x{n} elem {i}: {got} vs {w}"
                );
            }

            // Same logical B, transposed storage — must agree with the
            // same oracle through the transposing packer.
            let mut bt = vec![0.0f32; n * k];
            for kk in 0..k {
                for j in 0..n {
                    bt[j * k + kk] = b[kk * n + j];
                }
            }
            let mut ct = vec![f32::NAN; m * n];
            gemm(m, k, n, &a, BSrc::Transposed(&bt), &mut ct, None, None, false);
            assert_eq!(c, ct, "nt packing must be bit-identical to nn ({m}x{k}x{n})");
        }
    }

    /// The fused epilogue must equal running bias-add and ReLU as
    /// separate passes, bit for bit.
    #[test]
    fn fused_epilogue_matches_separate_passes() {
        if !simd_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        let (m, k, n) = (9, 33, 21);
        let mut rng = StdRng::seed_from_u64(7);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let rbias = rand_vec(m, &mut rng);
        let cbias = rand_vec(n, &mut rng);

        let mut plain = vec![0.0f32; m * n];
        gemm(m, k, n, &a, BSrc::RowMajor(&b), &mut plain, None, None, false);
        for (i, row) in plain.chunks_mut(n).enumerate() {
            row.iter_mut().for_each(|v| *v += rbias[i]);
            for (v, &bv) in row.iter_mut().zip(&cbias) {
                *v += bv;
            }
            row.iter_mut().for_each(|v| *v = v.max(0.0));
        }
        let mut fused = vec![f32::NAN; m * n];
        gemm(m, k, n, &a, BSrc::RowMajor(&b), &mut fused, Some(&rbias), Some(&cbias), true);
        assert_eq!(plain, fused);
    }

    /// Thread count must not change a single bit (row panels only ever
    /// split the output, never the reduction).
    #[test]
    fn thread_count_does_not_change_bits() {
        if !simd_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        let (m, k, n) = (37, 65, 29);
        let mut rng = StdRng::seed_from_u64(11);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let prev = crate::threading::num_threads();
        crate::threading::set_num_threads(1);
        let mut c1 = vec![0.0f32; m * n];
        gemm(m, k, n, &a, BSrc::RowMajor(&b), &mut c1, None, None, false);
        crate::threading::set_num_threads(7);
        let mut c7 = vec![0.0f32; m * n];
        gemm(m, k, n, &a, BSrc::RowMajor(&b), &mut c7, None, None, false);
        crate::threading::set_num_threads(prev);
        assert_eq!(c1, c7);
    }

    /// Column count must not change the bits of existing columns: the
    /// guarantee dynamic batching relies on (a conv's patch axis grows
    /// with the batch) — including when the wider output switches the
    /// register tile (`n = 16` runs a one-vector tile, 64 and 1024 the
    /// two-vector one; 5 the narrow YMM tile).
    #[test]
    fn wider_output_preserves_existing_columns_bitwise() {
        if !simd_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        let (m, k) = (11, 70);
        let mut rng = StdRng::seed_from_u64(13);
        let a = rand_vec(m * k, &mut rng);
        for &(n_small, n_big) in &[(5usize, 600usize), (16, 64), (16, 1024)] {
            let b_big = rand_vec(k * n_big, &mut rng);
            let mut b_small = vec![0.0f32; k * n_small];
            for kk in 0..k {
                b_small[kk * n_small..(kk + 1) * n_small]
                    .copy_from_slice(&b_big[kk * n_big..kk * n_big + n_small]);
            }
            let mut c_small = vec![0.0f32; m * n_small];
            gemm(m, k, n_small, &a, BSrc::RowMajor(&b_small), &mut c_small, None, None, false);
            let mut c_big = vec![0.0f32; m * n_big];
            gemm(m, k, n_big, &a, BSrc::RowMajor(&b_big), &mut c_big, None, None, false);
            for i in 0..m {
                for j in 0..n_small {
                    assert_eq!(
                        c_small[i * n_small + j].to_bits(),
                        c_big[i * n_big + j].to_bits(),
                        "element ({i},{j}) changed bits when n grew {n_small} -> {n_big}"
                    );
                }
            }
        }
    }

    /// The numeric contract, written out: per element, one fused
    /// multiply-add per k step inside a `kc` panel, panels joined in k
    /// order by a separate add.
    fn chain(m: usize, k: usize, n: usize, kc: usize, a: &[f32], b_at: impl Fn(usize, usize) -> f32) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for k0 in (0..k).step_by(kc) {
                    let mut acc = 0.0f32;
                    for kk in k0..k.min(k0 + kc) {
                        acc = a[i * k + kk].mul_add(b_at(kk, j), acc);
                    }
                    c[i * n + j] = if k0 == 0 { acc } else { c[i * n + j] + acc };
                }
            }
        }
        c
    }

    /// The tiles this CPU can run; prints which it skips and why.
    fn runnable_tiles() -> Vec<&'static Tile> {
        let mut tiles = Vec::new();
        for tile in &TILES {
            if tile.level <= detected_level() {
                tiles.push(tile);
            } else {
                eprintln!("skipping tile {}: this CPU lacks {}", tile.name, tile.level.name());
            }
        }
        tiles
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i} is {g}, chain says {w}");
        }
    }

    /// Every f32 tile — AVX2 and AVX-512, full and half width, interior
    /// and edge — must reproduce the sequential-k chain bit for bit, and
    /// therefore each other: `K = 0`, `K` across three `KC` panels,
    /// `M` below, at and past `MR` (rows read in place and through the
    /// padded last panel), `N` around every tile's `NR`, row-major and
    /// transposed B.
    #[test]
    fn every_tile_matches_the_sequential_chain_bitwise() {
        let _quiet = pool::COUNTER_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let kc = gemm_kc();
        let mut rng = StdRng::seed_from_u64(0x711E);
        for &m in &[1usize, 5, 13, 24] {
            for &k in &[0usize, 7, 2 * kc + 37] {
                for &n in &[1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 70] {
                    let a = rand_vec(m * k, &mut rng);
                    let b = rand_vec(k * n, &mut rng);
                    let mut bt = vec![0.0f32; n * k];
                    for kk in 0..k {
                        for j in 0..n {
                            bt[j * k + kk] = b[kk * n + j];
                        }
                    }
                    let want = chain(m, k, n, kc, &a, |kk, j| b[kk * n + j]);
                    for tile in runnable_tiles() {
                        let mut c = vec![f32::NAN; m * n];
                        gemm_tiled(tile, m, k, n, &a, BSrc::RowMajor(&b), &mut c, None, None, false);
                        assert_bits_eq(&c, &want, &format!("{} nn {m}x{k}x{n}", tile.name));
                        let mut c = vec![f32::NAN; m * n];
                        gemm_tiled(tile, m, k, n, &a, BSrc::Transposed(&bt), &mut c, None, None, false);
                        assert_bits_eq(&c, &want, &format!("{} nt {m}x{k}x{n}", tile.name));
                    }
                }
            }
        }
    }

    /// The implicit-im2col packer under every tile, against the chain
    /// over an explicitly gathered patch matrix: long rows (copied as
    /// runs, stride 1 and 2, clipped by padding and dilation), short rows
    /// (gathered cell by cell), a channel-group offset, and `K` across
    /// three `KC` panels.
    #[test]
    fn every_tile_packs_patches_like_the_explicit_gather() {
        let _quiet = pool::COUNTER_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let kc = gemm_kc();
        let mut rng = StdRng::seed_from_u64(0x9A7C);
        // (images, total c, ch0, group c, h, w, kh, kw, stride, padding, dilation)
        let cases = [
            (2usize, 3usize, 0usize, 3usize, 9usize, 11usize, 3usize, 3usize, (1usize, 1usize), (1usize, 1usize), (1usize, 1usize)),
            (1, 2, 0, 2, 13, 17, 5, 3, (2, 2), (2, 1), (1, 1)),
            (3, 4, 0, 4, 4, 4, 3, 3, (1, 1), (1, 1), (1, 1)),
            (1, 6, 3, 3, 10, 12, 3, 3, (1, 1), (2, 2), (2, 2)),
            (2, 2 * kc / 9 + 8, 0, 2 * kc / 9 + 8, 8, 8, 3, 3, (1, 1), (1, 1), (1, 1)),
        ];
        for &(imgs, c, ch0, cg, h, w, kh, kw, stride, padding, dilation) in &cases {
            let oh = (h + 2 * padding.0 - dilation.0 * (kh - 1) - 1) / stride.0 + 1;
            let ow = (w + 2 * padding.1 - dilation.1 * (kw - 1) - 1) / stride.1 + 1;
            let (m, k, n) = (13, cg * kh * kw, imgs * oh * ow);
            let x = rand_vec(imgs * c * h * w, &mut rng);
            let a = rand_vec(m * k, &mut rng);
            let patches = PatchSrc { x: &x, c, h, w, ch0, kh, kw, stride, padding, dilation, oh, ow };
            let b_at = |kk: usize, j: usize| {
                let (ch, ky, kx) = (kk / (kh * kw), kk / kw % kh, kk % kw);
                let (img, oy, ox) = (j / (oh * ow), j / ow % oh, j % ow);
                let iy = (oy * stride.0 + ky * dilation.0) as isize - padding.0 as isize;
                let ix = (ox * stride.1 + kx * dilation.1) as isize - padding.1 as isize;
                if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                    return 0.0;
                }
                x[((img * c + ch0 + ch) * h + iy as usize) * w + ix as usize]
            };
            let want = chain(m, k, n, kc, &a, b_at);
            for tile in runnable_tiles() {
                let mut got = vec![f32::NAN; m * n];
                gemm_tiled(tile, m, k, n, &a, BSrc::Patches(&patches), &mut got, None, None, false);
                assert_bits_eq(&got, &want, &format!("{} patches {h}x{w} k{kh}x{kw} s{stride:?}", tile.name));
            }
        }
    }

    /// `FX_SIMD` resolution is a pure function of the variable and the
    /// detected level: a level the CPU lacks degrades to the widest it
    /// has with a note, junk means auto with a note, and nothing panics.
    #[test]
    fn fx_simd_values_resolve_and_degrade() {
        use Level::*;
        for detected in [Scalar, Avx2, Avx512] {
            assert_eq!(resolve_level(None, detected), (detected, None));
            assert_eq!(resolve_level(Some("1"), detected), (detected, None));
            assert_eq!(resolve_level(Some("0"), detected), (Scalar, None));
            for (var, asked) in [("avx2", Avx2), ("avx512", Avx512), (" avx512\n", Avx512)] {
                let (level, note) = resolve_level(Some(var), detected);
                assert_eq!(level, asked.min(detected), "FX_SIMD={var:?} on {detected:?}");
                assert_eq!(note.is_some(), asked > detected, "FX_SIMD={var:?} on {detected:?}");
            }
            let (level, note) = resolve_level(Some("banana"), detected);
            assert_eq!(level, detected);
            assert!(note.is_some_and(|n| n.contains("banana")));
        }
        // The process-wide level is one of the names `simd_level` documents.
        assert!(["scalar", "avx2", "avx512"].contains(&simd_level()));
        assert_eq!(simd_enabled(), simd_level() != "scalar");
    }

    /// The int8 microkernel's accumulator must equal the scalar i32
    /// triple loop exactly — integers, so `assert_eq` with zero
    /// tolerance, over odd shapes including edge tiles and odd k
    /// (exercising the zero-padded pair tail), adversarial ±127 values
    /// (which would saturate a maddubs-based kernel), and both layouts.
    #[test]
    fn i8_gemm_accumulator_is_exact() {
        if !simd_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        let shapes = [
            (1usize, 1usize, 1usize),
            (1, 3, 1),
            (5, 7, 13),
            (6, 16, 16),
            (7, 17, 18),
            (13, 257, 31),
            (23, 64, 17),
            (6, 511, 9),
            (12, 33, 40),
        ];
        let mut rng = StdRng::seed_from_u64(0xAB);
        for &(m, k, n) in &shapes {
            let mut a = rand_i8(m * k, &mut rng);
            let mut b = rand_i8(n * k, &mut rng);
            // Worst-case magnitude corners in fixed spots: the maddubs
            // saturation trap (two consecutive ±127·∓128 pairs).
            if k >= 2 {
                a[0] = -128;
                a[1] = -128;
                b[0] = 127;
                b[1] = 127;
            }
            let a_zp: i32 = 3;
            let col_sums: Vec<i32> = (0..n)
                .map(|j| b[j * k..(j + 1) * k].iter().map(|&v| v as i32).sum())
                .collect();
            // Identity requant (scale 1, zp 0) saturates, so compare the
            // *requantized* output against the scalar oracle running the
            // identical epilogue — exact acc ⇒ exact bytes.
            let x_scale = 0.05f32;
            let (out_scale, out_zp) = (0.11f32, -7);
            let mult = vec![x_scale * 0.02 * (1.0 / out_scale); n];
            let badd = vec![0.0f32; n];
            let mut want = vec![0i8; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0i32;
                    for kk in 0..k {
                        acc += a[i * k + kk] as i32 * b[j * k + kk] as i32;
                    }
                    acc = acc.wrapping_sub(a_zp.wrapping_mul(col_sums[j]));
                    want[i * n + j] =
                        crate::quant::requant_one(acc, mult[j], badd[j], false, out_zp);
                }
            }
            let pb = pack_b_full(&b, k, n);
            let mut got = vec![0i8; m * n];
            gemm_i8_nt(
                m, k, n, &a, &pb, a_zp, &col_sums, &mult, &badd, out_zp, false,
                &QOutI8::RowMajor, &mut got,
            );
            assert_eq!(got, want, "i8 gemm {m}x{k}x{n} diverged from scalar oracle");
        }
    }

    /// Thread count and the ImagePatch write-back must not change int8
    /// bytes (integer accumulation is order-free; the layout only
    /// permutes indices).
    #[test]
    fn i8_gemm_threads_and_layout_are_bitwise_stable() {
        if !simd_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        let (imgs, p, k, n) = (3usize, 14usize, 29usize, 10usize);
        let m = imgs * p;
        let mut rng = StdRng::seed_from_u64(0xC0);
        let a = rand_i8(m * k, &mut rng);
        let b = rand_i8(n * k, &mut rng);
        let col_sums: Vec<i32> = (0..n)
            .map(|j| b[j * k..(j + 1) * k].iter().map(|&v| v as i32).sum())
            .collect();
        let mult = vec![0.04f32 * 0.03 * (1.0 / 0.2); n];
        let badd = vec![0.0f32; n];
        let pb = pack_b_full(&b, k, n);
        let run = |layout: &QOutI8| {
            let mut out = vec![0i8; m * n];
            gemm_i8_nt(
                m, k, n, &a, &pb, -5, &col_sums, &mult, &badd, 1, true, layout,
                &mut out,
            );
            out
        };
        let prev = crate::threading::num_threads();
        crate::threading::set_num_threads(1);
        let rm1 = run(&QOutI8::RowMajor);
        let ip1 = run(&QOutI8::ImagePatch { p });
        crate::threading::set_num_threads(7);
        let rm7 = run(&QOutI8::RowMajor);
        let ip7 = run(&QOutI8::ImagePatch { p });
        crate::threading::set_num_threads(prev);
        assert_eq!(rm1, rm7, "thread count changed int8 bytes");
        assert_eq!(ip1, ip7, "thread count changed int8 bytes (ImagePatch)");
        // The two layouts hold the same bytes, permuted.
        for i in 0..m {
            for j in 0..n {
                let (img, patch) = (i / p, i % p);
                assert_eq!(rm1[i * n + j], ip1[img * n * p + j * p + patch]);
            }
        }
    }

    /// The VNNI microkernels must be bit-identical to the plain
    /// madd+add forms on every tile shape (full, edge rows, narrow and
    /// edge columns, odd k): `vpdpwssd` is the same exact i32
    /// arithmetic, fused.
    #[test]
    fn i8_vnni_kernels_match_plain_bitwise() {
        if !simd_available() || !vnni_enabled() {
            eprintln!("skipping: no AVX2+VNNI on this host");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0xD1);
        for &(kcp, mr, nr) in
            &[(64usize, I8_MR, I8_NR), (7, 3, I8_NR), (64, I8_MR, 11), (1, 1, 16), (33, I8_MR, 8), (5, 2, 5)]
        {
            let pa: Vec<i32> = (0..kcp * I8_MR)
                .map(|_| {
                    pack_pair(rng.gen_range(-128i64..128) as i8, rng.gen_range(-128i64..128) as i8)
                })
                .collect();
            let pb: Vec<i16> =
                (0..kcp * 2 * I8_NR).map(|_| rng.gen_range(-128i64..128) as i16).collect();
            let ldc = I8_NR + 3;
            let mut plain = vec![7i32; I8_MR * ldc];
            let mut vnni = vec![7i32; I8_MR * ldc];
            for first in [true, false] {
                // SAFETY: AVX2 + VNNI checked above; buffers sized per
                // the kernel contracts.
                unsafe {
                    mk_i8_tile(false, kcp, pa.as_ptr(), pb.as_ptr(), plain.as_mut_ptr(), ldc, mr, nr, first);
                    mk_i8_tile(true, kcp, pa.as_ptr(), pb.as_ptr(), vnni.as_mut_ptr(), ldc, mr, nr, first);
                }
                assert_eq!(plain, vnni, "VNNI diverged at kcp={kcp} mr={mr} nr={nr} first={first}");
            }
        }
    }

    /// FX_GEMM_KC/FX_GEMM_NC validation: in-range values round to the
    /// quantum (never below one), junk falls back to the default.
    #[test]
    fn block_param_validates() {
        // Unset → default.
        assert_eq!(block_param("FX_TEST_UNSET_BLOCK", 256, 8, 1024, 8), 256);
        std::env::set_var("FX_TEST_BLOCK_A", "384");
        assert_eq!(block_param("FX_TEST_BLOCK_A", 256, 8, 1024, 8), 384);
        std::env::set_var("FX_TEST_BLOCK_A", "100");
        assert_eq!(block_param("FX_TEST_BLOCK_A", 256, 8, 1024, 8), 96);
        std::env::set_var("FX_TEST_BLOCK_A", "7");
        assert_eq!(block_param("FX_TEST_BLOCK_A", 256, 8, 1024, 8), 256);
        std::env::set_var("FX_TEST_BLOCK_A", "99999");
        assert_eq!(block_param("FX_TEST_BLOCK_A", 256, 8, 1024, 8), 256);
        std::env::set_var("FX_TEST_BLOCK_A", "banana");
        assert_eq!(block_param("FX_TEST_BLOCK_A", 256, 8, 1024, 8), 256);
        // FX_GEMM_NC against the widest tile: a value below one panel
        // rounds *up* to it — `pack_b` writes whole panels, so a block
        // narrower than a panel would be overrun.
        for (var, want) in [("16", 32), ("48", 32), ("8192", 8192)] {
            std::env::set_var("FX_TEST_BLOCK_A", var);
            assert_eq!(block_param("FX_TEST_BLOCK_A", 512, 16, 8192, 32), want);
        }
        std::env::remove_var("FX_TEST_BLOCK_A");
        for tile in &TILES {
            assert_eq!(gemm_nc() % tile.nr, 0, "NC must be whole {} panels", tile.name);
        }
    }
}

