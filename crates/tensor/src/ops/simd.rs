//! GEMM microkernels with packed panels — f32 and int8, at every level.
//!
//! Every matmul, linear and convolution of the crate, f32 and int8,
//! runs here under every `FX_SIMD` level, built as **one blocking
//! driver, one microkernel body, and a table of tiles**, generic over
//! the element ([`Elem`]) so f32 and int8 are rows of one table rather
//! than two machines:
//!
//! * [`microkernel`] is a register-tile multiply-accumulate loop generic
//!   over a [`Vector`] (load / splat / add / store), a [`Dot`] step and
//!   a const `MR × NV` shape. Thin `#[target_feature]` wrappers
//!   instantiate it as the AVX2 tiles (6 rows × 1 or 2 YMM) and the
//!   AVX-512 tiles (12 rows × 1 or 2 ZMM), for f32 (`vfmadd`) and for
//!   int8 k-pairs (`vpmaddwd`+`vpaddd`) and k-quads (`vpdpbusd`). The
//!   portable tiles — 1 or 4 rows × one 8-lane [`Lanes`] array, which
//!   the compiler lowers to the baseline ISA (SSE2 on x86-64) — need no
//!   wrapper and run on any x86-64 CPU. A [`Tile`] names one with its
//!   geometry.
//! * [`gemm_tiled`] is the cache-blocking driver; every size it needs
//!   comes from the tile it was handed. B is repacked per `KC×NC` block
//!   into NR-wide column panels so the microkernel reads one contiguous,
//!   reusable stream whether the logical B is row-major (`matmul`),
//!   transposed (`linear` weights) or
//!   an *implicit im2col patch matrix* gathered straight from a
//!   convolution input — the packing routine is where layout
//!   differences die. A is read in place, row by row.
//! * [`select_tile`] picks the tile **per call from the output width**
//!   (and, between the portable tiles, the row count), so a narrow GEMM
//!   does not pay for padding a wide tile.
//!
//! The blocking is fixed at [`KC`] = 256 and [`NC`] = 512 elements
//! (`KC` is part of the f32 numeric contract, below). Pack buffers
//! are drawn from [`pool`](crate::pool) and fully overwritten, edge
//! padding included, so a recycled buffer's stale contents can never
//! leak into a result.
//!
//! Every GEMM has **one output path**: the caller names where the sums
//! accumulate ([`Sums`]: its own row-major output, in place, or a
//! pooled block the driver reuses), and each finished row leaves through
//! one `write(i, j0, row)` callback while it is in cache. The f32 entry
//! [`gemm`] runs its epilogue there — a linear's per-column bias, a
//! conv's per-channel one, plus optional ReLU, elementwise-identical to
//! the separate bias/ReLU kernels — on the output's own rows when it is
//! one row-major window (a matmul, a linear, a one-image conv), and
//! copies a multi-image conv's rows into NCHW out of the block. Plain
//! `matmul` passes no epilogue, so its sums are written once, in place.
//!
//! ## int8: the element is a k-quad or a k-pair
//!
//! An int8 GEMM multiplies `i8×i8→i32`. Its element is several
//! consecutive k steps in one i32 lane, so its broadcast-and-dot step is
//! the f32 kernel's `splat`/`fmadd` over a shallower array, C is i32, and
//! nothing in the driver or the body knows which it is:
//!
//! * a **k-quad** ([`Quad`]) where AVX-512 VNNI runs: four i8 as the
//!   lane's bytes, multiplied by `vpdpbusd`, which adds four u8×i8
//!   products straight into i32 — 64 MACs per ZMM, four times an FMA. A
//!   weight's raw rows are its A, read in place (padded to whole quads
//!   once when `k % 4 ≠ 0`); activations are the unsigned side, `x ^ 0x80`
//!   while B is packed, and the `128·Σₖ w` that adds folds into the
//!   requant's zero-point correction.
//! * a **k-pair** ([`pack_pair`]) everywhere else (`FX_VNNI=0`, AVX2
//!   without VNNI, the portable tiles): two i8 sign-extended to i16,
//!   multiplied by `vpmaddwd` + `vpaddd` (the portable tile's `Madd` on
//!   [`Lanes`]), with A widened once ([`pair_rows`]).
//!
//! Neither is FBGEMM's `_mm256_maddubs_epi16` chain, nor `vpdpbusds`:
//! both saturate (`127·255 + 127·255` overflows `maddubs`'s i16), which
//! would make SIMD results diverge from the exact sums on adversarial
//! inputs. A quad step adds at most `4·255·128`, a pair step `2·128²`,
//! so the running i32 sum is exact for any k the models reach (overflow
//! needs k ≳ 6.5·10⁴ in quads; ResNet-50's deepest is 4608). Because
//! integer accumulation has no rounding at all, every tile, either
//! element, any blocking and any summation order are **bit-identical**
//! to the scalar reference — a stronger guarantee than the f32 path can
//! offer, and one the tests check with `assert_eq`.
//!
//! [`gemm_i8`] is the entry point. A conv passes its weight as A and
//! its input's patches as B, so the output lands `[channel,
//! image·patch]` and each finished row panel of i32 sums is requantized
//! ([`requant_row`]: zero-point correction, scale, bias, ReLU,
//! round-to-even, clamp — op for op [`crate::quant`]'s scalar
//! `requant_one`, which the portable tiles call per element) straight
//! into contiguous NCHW spans while it is still in L1, through the same
//! write-back as every f32 GEMM, out of the driver's block (i32 sums
//! cannot live in an i8 output); they are never stored whole. A linear
//! over quads is a conv over one-patch images: its weight is A, read in
//! place, its input rows are B. A linear over pairs passes its input rows
//! as A and its weight as B — packed once ([`prepack_b`],
//! [`BSrc::Packed`]) — so a one-row request reads each weight once, in a
//! vector. Either way the output is row-major as it stands.
//!
//! ## The quantize lane
//!
//! The int8 elementwise work — `quantized_add`, the graph's
//! `quantize_per_tensor` boundaries, PTQ's per-channel weight
//! quantization and the epilogue above — is one more body per job over a
//! [`QLane`] (an f32 register and its i32 twin), instantiated at YMM and
//! ZMM like the tiles ([`QuantLane`]). Each step is the IEEE twin of the
//! scalar oracle's: true division (no reciprocal), separate mul and add
//! (no FMA), `f32::round`'s half-away-from-zero as `trunc` plus a
//! sign-step where `|x − trunc x| ≥ ½`, the requant epilogue's ties-even
//! as `cvtps2dq` — so every width writes the oracle's bytes.
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
//! part of the f32 chain (it decides where the partial sums are cut), so
//! it is one process-wide value, never a per-tile one; `NC`, `MR` and `NR`
//! only re-tile the output. The portable tile runs the same chain with a
//! rounded multiply and a separate add in place of each FMA
//! (`f32::mul_add` without the `fma` target feature is a libm call), so
//! its bits are not the FMA tiles' but sit, like theirs, within
//! `|Δ| ≤ 2·K·ε·Σ|aᵢ·bᵢ|` of the exact sum — see the ULP-tolerance
//! sweep in the tests.
//!
//! ## Selection
//!
//! The ISA [`Level`] is decided once per process by `FX_SIMD`: `0`
//! picks the portable tiles (the only ones off x86-64; `scripts/verify.sh`
//! sweeps the level to keep them from rotting), `avx2` / `avx512` pin a
//! level (degrading, with one stderr line, to the widest the CPU has),
//! unset or `1` takes the widest detected; the level governs the f32 and
//! the int8 tiles alike (`FX_VNNI=0` only swaps the int8 element). At
//! every level *every* GEMM goes through the one driver — an engine
//! cutover by shape would make results depend on the batch dimension and
//! break serve/solo parity; a *tile* cutover cannot, by the argument
//! above.

use crate::pool::{self, PoolElem};
use crate::threading::parallel_chunks;
use std::mem::MaybeUninit;
use std::sync::OnceLock;

/// K-panel depth, in elements (f32 and both int8 elements are 4 bytes):
/// a row panel's 12·256 of A (12 KiB) stays L1-resident, 256·32 of B
/// per column panel streams from L2. One constant for every tile and
/// every process — it is part of the f32 numeric contract (module docs),
/// so no two runs may cut the k-chain differently.
const KC: usize = 256;
/// Column-block width: one packed B block is `KC·NC` elements
/// (512 KiB), reused across every row panel of A. Shared by the f32 and
/// int8 paths.
const NC: usize = 512;

/// The GEMM engine a process can run, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    /// The portable tiles: no instruction beyond the target's baseline.
    Scalar,
    /// AVX2 + FMA: YMM tiles.
    Avx2,
    /// AVX-512F + BW: ZMM tiles (and the YMM ones for narrow outputs).
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

/// The widest level this CPU can run (ignores `FX_SIMD`). One ladder
/// for both dtypes: the int8 ZMM tiles multiply with `vpmaddwd`, which
/// is AVX-512BW, and every AVX-512 CPU but the discontinued Xeon Phi
/// has it — so BW is simply part of what `avx512` means here.
fn detected_level() -> Level {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        return if std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("avx512bw") {
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

/// Whether SIMD tiles are in use (`FX_SIMD=0` selects the portable tile
/// rows; otherwise runtime detection decides).
pub fn simd_enabled() -> bool {
    level() != Level::Scalar
}

/// Whether this CPU can run the microkernel at all (ignores `FX_SIMD`).
pub fn simd_available() -> bool {
    detected_level() != Level::Scalar
}

/// Whether this CPU has `vpdpbusd` at both vector widths (AVX-512 VNNI
/// + VL; ignores `FX_VNNI`).
fn vnni_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx512vnni") && std::arch::is_x86_feature_detected!("avx512vl");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Whether the int8 GEMMs run the [`Quad`] element under `vpdpbusd`:
/// a SIMD level on a VNNI CPU, unless `FX_VNNI=0` keeps k-pairs under
/// `vpmaddwd` (decided once per process). Both elements compute the exact
/// i32 sums, so outputs are bit-identical either way; the flag also
/// decides memory, since quads read a weight's raw i8 rows in place and
/// pairs keep a widened copy, 2 bytes a weight, in its [`crate::quant`]
/// slot.
pub(crate) fn quads() -> bool {
    static QUADS: OnceLock<bool> = OnceLock::new();
    *QUADS.get_or_init(|| level() != Level::Scalar && vnni_detected() && !std::env::var("FX_VNNI").is_ok_and(|v| v == "0"))
}

/// The int8 element this process runs: `vnni quads`, `madd pairs`
/// (`vpmaddwd`) or `portable pairs` (`FX_SIMD=0`).
pub fn int8_element() -> &'static str {
    match level() {
        Level::Scalar => "portable pairs",
        _ if quads() => "vnni quads",
        _ => "madd pairs",
    }
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
// Elem → Vector → microkernel → Tile → driver
// ===========================================================================

/// What the driver multiplies and sums: one `f32`, or one int8 **k-pair**
/// ([`pack_pair`]) or **k-quad** ([`Quad`]) in an `i32` lane, summed in
/// [`Elem::Acc`]. A and the packed B panels are arrays of elements, so the
/// blocking loops, the ragged-panel copy and the microkernel body never
/// learn which one they were instantiated for; only packing B does,
/// because its sources hold the narrower [`Elem::Raw`] form.
pub(crate) trait Elem: PoolElem {
    /// What the sums accumulate in (`f32`, or `i32` for int8).
    type Acc: PoolElem + std::ops::AddAssign;
    /// How a B source stores one k step (`f32` itself / `i8`).
    type Raw: PoolElem;
    /// Raw k steps per element.
    const PAIR: usize;
    /// Produce one `[rows, nr]` element panel from the row-major raw
    /// panel `fill` writes (`rows·PAIR` rows of `nr`): f32 lets `fill`
    /// write the panel itself, int8 gathers into `stage` and interleaves
    /// row pairs or quads.
    fn pack_panel(
        panel: &mut [Self],
        nr: usize,
        stage: &mut [Self::Raw],
        fill: impl FnOnce(&mut [Self::Raw]),
    );
    /// Pack one panel of patches its own way, if the element has one
    /// (quads: [`pack_patch_quads`]); `false` takes `pack_panel`'s.
    fn pack_patches(_: &PatchSrc<Self::Raw>, _: usize, _: usize, _: usize, _: usize, _: usize, _: &mut [Self]) -> bool {
        false
    }
}

impl Elem for f32 {
    type Acc = f32;
    type Raw = f32;
    const PAIR: usize = 1;
    #[inline(always)]
    fn pack_panel(panel: &mut [f32], _nr: usize, _stage: &mut [f32], fill: impl FnOnce(&mut [f32])) {
        fill(panel);
    }
}

impl Elem for i32 {
    type Acc = i32;
    type Raw = i8;
    const PAIR: usize = 2;
    fn pack_panel(panel: &mut [i32], nr: usize, stage: &mut [i8], fill: impl FnOnce(&mut [i8])) {
        let raw = &mut stage[..2 * panel.len()];
        fill(raw);
        for (row, two) in panel.chunks_exact_mut(nr).zip(raw.chunks_exact(2 * nr)) {
            let (even, odd) = two.split_at(nr);
            for ((d, &lo), &hi) in row.iter_mut().zip(even).zip(odd) {
                *d = pack_pair(lo, hi);
            }
        }
    }
}

/// One int8 element: an (even, odd) k-pair of i8 as two sign-extended
/// i16 halves of an i32, low half = even k — the operand shape
/// `vpmaddwd` multiplies exactly.
#[inline(always)]
fn pack_pair(lo: i8, hi: i8) -> i32 {
    ((lo as i16 as u16 as u32) | ((hi as i16 as u16 as u32) << 16)) as i32
}

/// Row-major `[rows, k]` i8 as `[rows, ⌈k/2⌉]` k-pair elements (an odd
/// tail pairs with 0), appended to `out`: the A operand of a pair GEMM.
/// A conv's weight is widened once and cached by [`crate::quant`]; a
/// linear's input rows are widened per call.
pub(crate) fn pair_rows(x: &[i8], k: usize, mut out: Vec<i32>) -> Vec<i32> {
    for row in x.chunks_exact(k.max(1)) {
        let mut pairs = row.chunks_exact(2);
        out.extend((&mut pairs).map(|p| pack_pair(p[0], p[1])));
        out.extend(pairs.remainder().iter().map(|&lo| pack_pair(lo, 0)));
    }
    out
}

/// The int8 element of the VNNI tiles: **four consecutive k steps** as
/// the bytes of one i32 lane, first k lowest — what `vpdpbusd` multiplies.
/// An A quad is four raw i8, so a `[rows, k]` weight with `k % 4 == 0`
/// *is* its quad rows, read in place (unaligned). A B quad holds each
/// activation as `x ^ 0x80` (`x + 128` as u8), set while packing, so row
/// `i`'s sums exceed the signed ones by `128·Σₖ A[i, k]` ([`Int8::OFFSET`]).
pub(crate) type Quad = [i8; 4];

impl Elem for Quad {
    type Acc = i32;
    type Raw = i8;
    const PAIR: usize = 4;
    fn pack_patches(p: &PatchSrc<i8>, k0: usize, kc: usize, j: usize, nr_eff: usize, nr: usize, panel: &mut [Quad]) -> bool {
        pack_patch_quads(p, k0, kc, j, nr_eff, nr, panel);
        true
    }
    fn pack_panel(panel: &mut [Quad], nr: usize, stage: &mut [i8], fill: impl FnOnce(&mut [i8])) {
        let raw = &mut stage[..4 * panel.len()];
        fill(raw);
        // Every tile's `nr` is a multiple of 8.
        for (row, four) in panel.chunks_exact_mut(nr).zip(raw.chunks_exact(4 * nr)) {
            for (j, quads) in row.chunks_exact_mut(8).enumerate() {
                let rows = std::array::from_fn(|t| four[t * nr + 8 * j..][..8].try_into().expect("8 bytes"));
                quads.copy_from_slice(&quads8(rows));
            }
        }
    }
}

/// Eight columns of four k rows (`rows[t][j]`: step `t` of column `j`)
/// as their eight B quads, each byte `x ^ 0x80`: SSE2 unpacks on x86-64.
#[inline(always)]
fn quads8(rows: [[i8; 8]; 4]) -> [Quad; 8] {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of every x86-64 target, and two `__m128i` are
    // the same 32 bytes as eight quads, with no invalid values.
    unsafe {
        use std::arch::x86_64::*;
        let [a, b, c, d] = rows.map(|r| _mm_set_epi64x(0, i64::from_le_bytes(r.map(|v| v as u8))));
        let (ab, cd, flip) = (_mm_unpacklo_epi8(a, b), _mm_unpacklo_epi8(c, d), _mm_set1_epi8(i8::MIN));
        let quads = [_mm_unpacklo_epi16(ab, cd), _mm_unpackhi_epi16(ab, cd)].map(|q| _mm_xor_si128(q, flip));
        std::mem::transmute::<[__m128i; 2], [Quad; 8]>(quads)
    }
    #[cfg(not(target_arch = "x86_64"))]
    std::array::from_fn(|j| rows.map(|r| r[j] ^ i8::MIN))
}

/// Row-major `[rows, k]` i8 as `[rows, ⌈k/4⌉]` quads, each row's tail
/// zero-padded: the A operand of a quad GEMM whose `k % 4 ≠ 0`.
pub(crate) fn quad_rows(x: &[i8], k: usize) -> Vec<Quad> {
    let kq = k.div_ceil(4).max(1);
    let mut out = vec![[0; 4]; x.len() / k.max(1) * kq];
    for (row, quads) in x.chunks_exact(k.max(1)).zip(out.chunks_exact_mut(kq)) {
        quads.as_flattened_mut()[..k].copy_from_slice(row);
    }
    out
}

/// One SIMD register of element lanes: the data movement the microkernel
/// body is written in. Every method is `#[inline(always)]` so the
/// intrinsic lands inside the `#[target_feature]` wrapper that
/// instantiated the body, and is only sound to call from there (anywhere,
/// for [`Lanes`]).
trait Vector: Copy {
    type Elem: Copy + std::ops::AddAssign;
    const LANES: usize;
    unsafe fn zero() -> Self;
    unsafe fn load(p: *const Self::Elem) -> Self;
    /// `*p` in every lane; `p` need not be aligned (an A [`Quad`] is
    /// four bytes of an i8 row).
    unsafe fn splat(p: *const Self::Elem) -> Self;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn store(self, p: *mut Self::Elem);
}

macro_rules! impl_vector {
    ($ty:ident, $elem:ty, $lanes:literal, $zero:ident, $load:ident, $set1:ident, $add:ident, $store:ident) => {
        #[cfg(target_arch = "x86_64")]
        impl Vector for std::arch::x86_64::$ty {
            type Elem = $elem;
            const LANES: usize = $lanes;
            #[inline(always)]
            unsafe fn zero() -> Self {
                std::arch::x86_64::$zero()
            }
            #[inline(always)]
            unsafe fn load(p: *const $elem) -> Self {
                std::arch::x86_64::$load(p.cast())
            }
            #[inline(always)]
            unsafe fn splat(p: *const $elem) -> Self {
                std::arch::x86_64::$set1(p.read_unaligned())
            }
            #[inline(always)]
            unsafe fn add(self, o: Self) -> Self {
                std::arch::x86_64::$add(self, o)
            }
            #[inline(always)]
            unsafe fn store(self, p: *mut $elem) {
                std::arch::x86_64::$store(p.cast(), self)
            }
        }
    };
}

impl_vector!(__m256, f32, 8, _mm256_setzero_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_add_ps, _mm256_storeu_ps);
impl_vector!(__m512, f32, 16, _mm512_setzero_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_add_ps, _mm512_storeu_ps);
impl_vector!(__m256i, i32, 8, _mm256_setzero_si256, _mm256_loadu_si256, _mm256_set1_epi32, _mm256_add_epi32, _mm256_storeu_si256);
impl_vector!(__m512i, i32, 16, _mm512_setzero_si512, _mm512_loadu_si512, _mm512_set1_epi32, _mm512_add_epi32, _mm512_storeu_si512);

/// The portable vector: eight lanes in a plain array, which the compiler
/// keeps in registers of whatever the target's baseline has (two SSE2
/// registers on x86-64). Integer lanes add wrapping, as `vpaddd` does.
#[derive(Clone, Copy)]
#[repr(transparent)]
struct Lanes<T>([T; 8]);

impl<T: Copy> Lanes<T> {
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(T, T) -> T) -> Self {
        let mut r = self.0;
        for (r, o) in r.iter_mut().zip(o.0) {
            *r = f(*r, o);
        }
        Lanes(r)
    }
}

macro_rules! impl_lanes {
    ($elem:ty, $add:expr) => {
        impl Vector for Lanes<$elem> {
            type Elem = $elem;
            const LANES: usize = 8;
            #[inline(always)]
            unsafe fn zero() -> Self {
                Lanes([<$elem>::default(); 8])
            }
            #[inline(always)]
            unsafe fn load(p: *const $elem) -> Self {
                Lanes(p.cast::<[$elem; 8]>().read_unaligned())
            }
            #[inline(always)]
            unsafe fn splat(p: *const $elem) -> Self {
                Lanes([p.read_unaligned(); 8])
            }
            #[inline(always)]
            unsafe fn add(self, o: Self) -> Self {
                self.zip(o, $add)
            }
            #[inline(always)]
            unsafe fn store(self, p: *mut $elem) {
                p.cast::<[$elem; 8]>().write_unaligned(self.0)
            }
        }
    };
}

impl_lanes!(f32, |x, y| x + y);
impl_lanes!(i32, i32::wrapping_add);

/// The multiply-accumulate of one k step, `acc + a·b` per lane, on
/// vector `V`. A separate name from [`Vector`] because the integer
/// vectors have two, one per int8 element: each computes the exact
/// integer dot product — no rounding — so every int8 tile is
/// bit-identical by construction (and unit-tested so).
trait Dot<V> {
    unsafe fn dot(acc: V, a: V, b: V) -> V;
}
/// f32: `a·b + acc` fused, one rounding.
struct Fma;
/// f32 on [`Lanes`]: `a·b` rounded, then `+ acc` rounded.
struct MulAdd;
/// int8 k-pairs: `vpmaddwd` + `vpaddd`, `acc + Σ₂ sx(a_i16)·sx(b_i16)`.
struct Madd;
/// int8 k-quads: `vpdpbusd` (AVX-512 VNNI), `acc + Σ₄ u8(b)·i8(a)`, no
/// saturating step (module docs).
struct Dpbusd;

macro_rules! impl_dot {
    ($dot:ident, $v:ident, |$acc:ident, $a:ident, $b:ident| $e:expr) => {
        #[cfg(target_arch = "x86_64")]
        impl Dot<std::arch::x86_64::$v> for $dot {
            #[inline(always)]
            unsafe fn dot(
                $acc: std::arch::x86_64::$v,
                $a: std::arch::x86_64::$v,
                $b: std::arch::x86_64::$v,
            ) -> std::arch::x86_64::$v {
                use std::arch::x86_64::*;
                $e
            }
        }
    };
}

impl_dot!(Fma, __m256, |acc, a, b| _mm256_fmadd_ps(a, b, acc));
impl_dot!(Fma, __m512, |acc, a, b| _mm512_fmadd_ps(a, b, acc));
impl_dot!(Madd, __m256i, |acc, a, b| _mm256_add_epi32(acc, _mm256_madd_epi16(a, b)));
impl_dot!(Madd, __m512i, |acc, a, b| _mm512_add_epi32(acc, _mm512_madd_epi16(a, b)));
impl_dot!(Dpbusd, __m256i, |acc, a, b| _mm256_dpbusd_epi32(acc, b, a));
impl_dot!(Dpbusd, __m512i, |acc, a, b| _mm512_dpbusd_epi32(acc, b, a));

impl Dot<Lanes<f32>> for MulAdd {
    #[inline(always)]
    unsafe fn dot(acc: Lanes<f32>, a: Lanes<f32>, b: Lanes<f32>) -> Lanes<f32> {
        acc.add(a.zip(b, |x, y| x * y))
    }
}

impl Dot<Lanes<i32>> for Madd {
    /// `vpmaddwd` + `vpaddd` lane for lane: the products of the
    /// sign-extended low and high i16 halves, summed, then added
    /// wrapping. On x86-64 the products are SSE2's `pmaddwd`, which every
    /// x86-64 CPU has and the compiler does not find in the lane formula.
    #[inline(always)]
    unsafe fn dot(acc: Lanes<i32>, a: Lanes<i32>, b: Lanes<i32>) -> Lanes<i32> {
        // SSE2 is part of every x86-64 target, and `[i32; 8]` and
        // `[__m128i; 2]` are the same 32 bytes with no invalid values.
        #[cfg(target_arch = "x86_64")]
        let products = {
            use std::arch::x86_64::{__m128i, _mm_madd_epi16};
            let [a, b] = [a, b].map(|v| std::mem::transmute::<[i32; 8], [__m128i; 2]>(v.0));
            let products = [_mm_madd_epi16(a[0], b[0]), _mm_madd_epi16(a[1], b[1])];
            Lanes(std::mem::transmute::<[__m128i; 2], [i32; 8]>(products))
        };
        #[cfg(not(target_arch = "x86_64"))]
        let products = a.zip(b, |x, y| (x as i16 as i32 * (y as i16 as i32)).wrapping_add((x >> 16) * (y >> 16)));
        acc.add(products)
    }
}

/// Write the valid `mr × nr` window of a register tile — the
/// accumulator array itself, viewed as scalars with row stride `ldt` —
/// into C: overwrite when `first`, else the same per-element add the
/// full-width vector write-back performs, which is what keeps edge
/// tiles bit-identical to interior ones.
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
/// with one sequential [`Dot`] chain per output element. `first`
/// overwrites C, otherwise the tile is added to it (a separate add — the
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
/// Only sound inside a `#[target_feature]` function enabling the
/// instruction sets of `V` and `D` (anywhere, for [`Lanes`]). `pa` must
/// cover `MR` rows of `kc` elements, `lda` apart (all `MR`, even when
/// `mr < MR`), at any alignment; `pb` must hold `(kc-1)*ldb + NV·LANES`
/// elements and `c` must cover `mr ≤ MR` rows of `ldc` columns with
/// `nr ≤ NV·LANES` valid columns per row.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel<V: Vector, D: Dot<V>, const MR: usize, const NV: usize>(
    kc: usize,
    pa: *const V::Elem,
    lda: usize,
    pb: *const V::Elem,
    ldb: usize,
    c: *mut V::Elem,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    let mut acc = [[V::zero(); NV]; MR];
    for kk in 0..kc {
        // One k step: `acc[r][v] += a[r] · b[v]`, an independent chain
        // per accumulator lane.
        let mut b = [V::zero(); NV];
        for (v, bv) in b.iter_mut().enumerate() {
            *bv = V::load(pb.add(kk * ldb + v * V::LANES));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = V::splat(pa.add(r * lda + kk));
            for (lane, &bv) in row.iter_mut().zip(&b) {
                *lane = D::dot(*lane, av, bv);
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
        write_edge(acc.as_ptr().cast::<V::Elem>(), width, c, ldc, mr, nr, first);
    }
}

/// A microkernel instance behind its `#[target_feature]` wrapper; the
/// arguments are [`microkernel`]'s, A and B as elements `E`, C as sums.
type Kernel<E> = unsafe fn(usize, *const E, usize, *const E, usize, *mut <E as Elem>::Acc, usize, usize, usize, bool);

macro_rules! tile_kernel {
    ($name:ident, $features:literal, $elem:ty, $v:ident, $dot:ident, $mr:literal, $nv:literal) => {
        /// [`microkernel`] instantiated for this element, vector type,
        /// dot step and shape (a quad is read as the i32 lane it fills).
        ///
        /// # Safety
        /// The CPU must support the enabled target features — callers
        /// reach this only through a [`Tile`] whose `level` (and `vnni`)
        /// runtime detection confirmed — and the pointers must satisfy
        /// [`microkernel`]'s contract for this `MR × NV`.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $name(
            kc: usize,
            pa: *const $elem,
            lda: usize,
            pb: *const $elem,
            ldb: usize,
            c: *mut <$elem as Elem>::Acc,
            ldc: usize,
            mr: usize,
            nr: usize,
            first: bool,
        ) {
            microkernel::<std::arch::x86_64::$v, $dot, $mr, $nv>(kc, pa.cast(), lda, pb.cast(), ldb, c, ldc, mr, nr, first)
        }
    };
}

// 6 rows × 2 YMM = 12 accumulators + 2 B loads + 1 A broadcast (+ 1
// `vpmaddwd` product) fit the 16-register AVX2 file; 12 rows × 2 ZMM =
// 24 + 2 + 1 (+ 1) fit AVX-512's 32. A ZMM `vpdpbusd` retires 64 MACs,
// four times a ZMM FMA.
tile_kernel!(mk_y6x8, "avx2,fma", f32, __m256, Fma, 6, 1);
tile_kernel!(mk_y6x16, "avx2,fma", f32, __m256, Fma, 6, 2);
tile_kernel!(mk_z12x16, "avx512f", f32, __m512, Fma, 12, 1);
tile_kernel!(mk_z12x32, "avx512f", f32, __m512, Fma, 12, 2);
tile_kernel!(mk_y6x8_madd, "avx2", i32, __m256i, Madd, 6, 1);
tile_kernel!(mk_y6x16_madd, "avx2", i32, __m256i, Madd, 6, 2);
tile_kernel!(mk_z12x16_madd, "avx512f,avx512bw", i32, __m512i, Madd, 12, 1);
tile_kernel!(mk_z12x32_madd, "avx512f,avx512bw", i32, __m512i, Madd, 12, 2);
tile_kernel!(mk_y6x8_quad, "avx2,avx512vnni,avx512vl", Quad, __m256i, Dpbusd, 6, 1);
tile_kernel!(mk_y6x16_quad, "avx2,avx512vnni,avx512vl", Quad, __m256i, Dpbusd, 6, 2);
tile_kernel!(mk_z12x16_quad, "avx512f,avx512vnni", Quad, __m512i, Dpbusd, 12, 1);
tile_kernel!(mk_z12x32_quad, "avx512f,avx512vnni", Quad, __m512i, Dpbusd, 12, 2);

/// One register tile the driver can run a GEMM with: its geometry, what
/// must be detected before its kernels may be called (`level`, plus
/// AVX-512 VNNI when `vnni`), and the kernels themselves. `half` serves
/// a trailing column panel with at most `nr/2` valid columns, reading
/// the same `nr`-strided packed B.
///
/// The portable tiles head the f32 and pair tables (the quad table has
/// none): 1 and 4 rows × 8 lanes (the taller one keeps 8 of the 16 SSE2
/// registers as accumulators), the body instantiated directly — it needs
/// no target feature.
#[derive(Clone, Copy)]
pub(crate) struct Tile<E: Elem> {
    name: &'static str,
    level: Level,
    vnni: bool,
    mr: usize,
    nr: usize,
    full: Kernel<E>,
    half: Kernel<E>,
}

/// The portable tiles, if any (1×8, 4×8), then the four SIMD
/// geometries, narrowest and shortest first, for kernels `$y8 … $z32`
/// (6×8, 6×16, 12×16, 12×32).
macro_rules! tiles {
    ($what:literal, $vnni:literal, [$($portable:expr),*], $y8:ident, $y16:ident, $z16:ident, $z32:ident) => {
        [
            $($portable,)*
            Tile { name: concat!("avx2 6x8", $what), level: Level::Avx2, vnni: $vnni, mr: 6, nr: 8, full: $y8, half: $y8 },
            Tile { name: concat!("avx2 6x16", $what), level: Level::Avx2, vnni: $vnni, mr: 6, nr: 16, full: $y16, half: $y8 },
            Tile { name: concat!("avx512 12x16", $what), level: Level::Avx512, vnni: $vnni, mr: 12, nr: 16, full: $z16, half: $z16 },
            Tile { name: concat!("avx512 12x32", $what), level: Level::Avx512, vnni: $vnni, mr: 12, nr: 32, full: $z32, half: $z16 },
        ]
    };
}

/// A portable tile of `$mr` rows over [`Lanes`] of `$elem`.
macro_rules! portable_tile {
    ($name:literal, $elem:ty, $dot:ident, $mr:literal) => {{
        const KERNEL: Kernel<$elem> = microkernel::<Lanes<$elem>, $dot, $mr, 1>;
        Tile { name: $name, level: Level::Scalar, vnni: false, mr: $mr, nr: 8, full: KERNEL, half: KERNEL }
    }};
}

/// The portable tiles of each element.
const PORTABLE_F32: [Tile<f32>; 2] =
    [portable_tile!("portable 1x8", f32, MulAdd, 1), portable_tile!("portable 4x8", f32, MulAdd, 4)];
const PORTABLE_I8: [Tile<i32>; 2] =
    [portable_tile!("portable 1x8 i8", i32, Madd, 1), portable_tile!("portable 4x8 i8", i32, Madd, 4)];

/// Every f32 tile.
#[cfg(target_arch = "x86_64")]
static TILES: [Tile<f32>; 6] =
    tiles!("", false, [PORTABLE_F32[0], PORTABLE_F32[1]], mk_y6x8, mk_y6x16, mk_z12x16, mk_z12x32);
/// Every int8 pair tile.
#[cfg(target_arch = "x86_64")]
static I8_TILES: [Tile<i32>; 6] =
    tiles!(" i8 madd", false, [PORTABLE_I8[0], PORTABLE_I8[1]], mk_y6x8_madd, mk_y6x16_madd, mk_z12x16_madd, mk_z12x32_madd);
/// Every int8 quad tile.
#[cfg(target_arch = "x86_64")]
static QUAD_TILES: [Tile<Quad>; 4] =
    tiles!(" i8 quad", true, [], mk_y6x8_quad, mk_y6x16_quad, mk_z12x16_quad, mk_z12x32_quad);

/// Rows of the tallest tile (the last: the tables are sorted): sizes the
/// stack A panel.
const MR_MAX: usize = TILES[TILES.len() - 1].mr;
/// Columns of the widest tile: sizes the per-panel run table.
const NR_MAX: usize = TILES[TILES.len() - 1].nr;
// A column block must be whole panels under every tile, or `pack_b`
// would write past the block it was given.
const _: () = assert!(NC.is_multiple_of(NR_MAX));

/// The geometry (an index into a tile table) for an `m × n` output at
/// `level`: the narrowest SIMD tile that covers `n` in one panel, else
/// the widest. Every tile of a level computes the same bits (module
/// docs), so this is purely a throughput choice — a narrow output (a
/// deep ResNet layer, a one-row request) is not padded out to a wide
/// tile. The row count does not enter there: a ZMM and a YMM
/// multiply-accumulate issue at the same rate, and a short GEMM streams
/// B faster than it multiplies padding rows. It does for the portable
/// tiles, whose multiplies are the cost: fewer than 4 rows take the
/// 1-row tile, of the same `nr`, so a panel packed for one serves both.
fn select_tile(level: Level, m: usize, n: usize) -> usize {
    match level {
        Level::Scalar if m < 4 => 0,
        Level::Scalar => 1,
        _ if n <= 8 => 2,
        Level::Avx512 if n <= 16 => 4,
        Level::Avx512 => 5,
        Level::Avx2 => 3,
    }
}

/// Where the logical `[k, n]` B operand of a GEMM over elements `E`
/// comes from: three layouts of raw values (`f32`, or `i8` for an int8
/// GEMM) that packing resolves — the microkernel sees identical panels
/// for all three — or panels packed earlier.
pub(crate) enum BSrc<'a, E: Elem> {
    /// Row-major `[k, n]`: value `(kk, j)` lives at `b[kk*n + j]`.
    RowMajor(&'a [E::Raw]),
    /// Transposed row-major `[n, k]` (a `Linear` weight): value
    /// `(kk, j)` lives at `b[j*k + kk]`.
    Transposed(&'a [E::Raw]),
    /// Implicit im2col: value `(kk, j)` is kernel-offset `kk` of
    /// convolution patch `j`, gathered from the input tensor on the fly.
    /// The full patch matrix is never materialized.
    Patches(&'a PatchSrc<'a, E::Raw>),
    /// Every panel over the whole depth, as [`prepack_b`] lays them out:
    /// read in place, nothing is packed per call (a quantized `Linear`
    /// weight, immutable across inference calls).
    Packed(&'a [E]),
}

/// Geometry for the implicit-GEMM convolution B operand: columns are
/// patches `j = (img, oy, ox)`, rows are kernel offsets
/// `kk = (ch, ky, kx)` within one group. There is no padding: a conv
/// pads its input once, as data (`ops::conv::with_patches`), so every
/// window lies inside `x`.
#[derive(Clone, Copy)]
pub(crate) struct PatchSrc<'a, T> {
    /// Full input `[N, C, H, W]`.
    pub x: &'a [T],
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
    /// Dilation.
    pub dilation: (usize, usize),
    /// Output spatial extents.
    pub oh: usize,
    /// See `oh`.
    pub ow: usize,
}

/// `dst = src` for the short equal-length spans the patch packer moves:
/// fixed 8-lane chunks the compiler turns into vector moves, where a
/// `memcpy` call would cost more than the copy.
#[inline(always)]
fn copy_span<T: Copy>(dst: &mut [T], src: &[T]) {
    let (mut d8, mut s8) = (dst.chunks_exact_mut(8), src.chunks_exact(8));
    for (d, s) in (&mut d8).zip(&mut s8) {
        d.copy_from_slice(s);
    }
    let (mut d4, mut s4) = (d8.into_remainder().chunks_exact_mut(4), s8.remainder().chunks_exact(4));
    for (d, s) in (&mut d4).zip(&mut s4) {
        d.copy_from_slice(s);
    }
    for (d, s) in d4.into_remainder().iter_mut().zip(s4.remainder()) {
        *d = *s;
    }
}

/// Pack `kc` kernel-offset rows (from `k0`) of the `nr_eff` patches
/// starting at `jbase` into one `nr`-wide raw panel.
///
/// Consecutive patches of one output row read input cells a horizontal
/// stride apart, so such a **run** is one (strided) copy. `UNIT` —
/// "horizontal stride 1" — is lifted to compile time, because the
/// per-run arithmetic is what the gather costs: a unit-stride run is a
/// plain span copy.
#[allow(clippy::too_many_arguments)]
fn pack_patches<T: PoolElem, const UNIT: bool>(
    p: &PatchSrc<T>,
    k0: usize,
    kc: usize,
    jbase: usize,
    nr_eff: usize,
    nr: usize,
    panel: &mut [T],
) {
    let plane = p.h * p.w;
    let hw_out = p.oh * p.ow;
    let khw = p.kh * p.kw;
    let s1 = if UNIT { 1 } else { p.stride.1 };
    // Decompose the panel's columns once: (first column, length, offset
    // in `x` of the first patch's window origin).
    let mut runs = [(0usize, 0usize, 0usize); NR_MAX];
    let mut n_runs = 0;
    let mut jj = 0;
    while jj < nr_eff {
        let pj = jbase + jj;
        let (img, rem) = (pj / hw_out, pj % hw_out);
        let (oy, ox) = (rem / p.ow, rem % p.ow);
        let len = (p.ow - ox).min(nr_eff - jj);
        runs[n_runs] = (jj, len, img * p.c * plane + oy * p.stride.0 * p.w + ox * s1);
        n_runs += 1;
        jj += len;
    }
    // Walk k rows as an incrementally-carried (ch, ky, kx) odometer —
    // no per-element div/mod.
    let mut ch = k0 / khw;
    let mut ky = (k0 % khw) / p.kw;
    let mut kx = k0 % p.kw;
    for row in panel.chunks_mut(nr).take(kc) {
        let k_off = (p.ch0 + ch) * plane + ky * p.dilation.0 * p.w + kx * p.dilation.1;
        for &(j0, len, origin) in &runs[..n_runs] {
            let (dst, src) = (&mut row[j0..j0 + len], &p.x[origin + k_off..]);
            if UNIT {
                copy_span(dst, &src[..len]);
            } else {
                // Sliced to the run's exact extent first: with the trip
                // count known, the strided copy compiles to a tighter
                // loop than over the open-ended tail of `x`.
                for (d, v) in dst.iter_mut().zip(src[..(len - 1) * s1 + 1].iter().step_by(s1)) {
                    *d = *v;
                }
            }
        }
        row[nr_eff..].fill(T::ZERO);
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

/// Pack `kc` k rows (from `k0`) of the `nr_eff` patches from `jbase`
/// straight into one `nr`-wide quad panel, with no raw stage: each quad is
/// four k rows' bytes at its column's window origin, `x ^ 0x80` (a row
/// past `kc` repeats the last; its A bytes are zero). On the short output
/// rows of deep layers that is far cheaper than [`pack_patches`]' runs.
fn pack_patch_quads(p: &PatchSrc<i8>, k0: usize, kc: usize, jbase: usize, nr_eff: usize, nr: usize, panel: &mut [Quad]) {
    let (plane, hw_out, khw) = (p.h * p.w, p.oh * p.ow, p.kh * p.kw);
    let (mut cols, mut patch) = ([0; NR_MAX], (jbase / hw_out, jbase % hw_out / p.ow, jbase % p.ow));
    for col in &mut cols[..nr_eff] {
        let (img, oy, ox) = patch;
        *col = img * p.c * plane + oy * p.stride.0 * p.w + ox * p.stride.1;
        patch = if ox + 1 < p.ow { (img, oy, ox + 1) } else if oy + 1 < p.oh { (img, oy + 1, 0) } else { (img + 1, 0, 0) };
    }
    let (mut odometer, mut off) = ((k0 / khw, k0 % khw / p.kw, k0 % p.kw), 0);
    for (e, row) in panel.chunks_mut(nr).enumerate() {
        let offs: [usize; 4] = std::array::from_fn(|t| {
            if 4 * e + t < kc {
                let (ch, ky, kx) = odometer;
                off = (p.ch0 + ch) * plane + ky * p.dilation.0 * p.w + kx * p.dilation.1;
                odometer = if kx + 1 < p.kw { (ch, ky, kx + 1) } else if ky + 1 < p.kh { (ch, ky + 1, 0) } else { (ch + 1, 0, 0) };
            }
            off
        });
        for (quads, cols) in row[..nr_eff].chunks_mut(8).zip(cols.chunks(8)) {
            if quads.len() == 8 && cols[7] == cols[0] + 7 {
                // Eight patches side by side in `x`: eight bytes a row.
                quads.copy_from_slice(&quads8(offs.map(|o| p.x[cols[0] + o..][..8].try_into().expect("8 bytes"))));
            } else {
                for (quad, &col) in quads.iter_mut().zip(cols) {
                    *quad = offs.map(|o| p.x[col + o] ^ i8::MIN);
                }
            }
        }
        row[nr_eff..].fill([0; 4]);
    }
}

/// Pack the `[k0..k0+kc) × [j0..j0+nc)` window of B (`k`s in raw
/// steps) into `nr`-wide column panels: panel `jp` holds, for each
/// element row, `nr` contiguous elements (zero past the matrix edge,
/// whose columns are never stored, and in the missing half of an odd
/// int8 k tail, whose A half is zero — so the value cannot matter).
/// Every element of the used region is written, so a recycled pool
/// buffer can never leak stale data.
#[allow(clippy::too_many_arguments)]
fn pack_b<E: Elem>(
    src: &BSrc<E>,
    nr: usize,
    n: usize,
    k: usize,
    k0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    pb: &mut [E],
    stage: &mut [E::Raw],
) {
    let rows = kc.div_ceil(E::PAIR);
    for jp in 0..nc.div_ceil(nr) {
        let jbase = j0 + jp * nr;
        let nr_eff = nr.min(j0 + nc - jbase);
        let panel = &mut pb[jp * rows * nr..(jp + 1) * rows * nr];
        if let BSrc::Patches(p) = src {
            if E::pack_patches(p, k0, kc, jbase, nr_eff, nr, panel) {
                continue;
            }
        }
        E::pack_panel(panel, nr, stage, |raw| {
            match src {
                BSrc::RowMajor(b) => {
                    for (kk, row) in raw.chunks_mut(nr).take(kc).enumerate() {
                        // Pull the next source row toward L1 while this
                        // one is being copied.
                        prefetch(b, (k0 + kk + 1) * n + jbase);
                        let srow = &b[(k0 + kk) * n + jbase..(k0 + kk) * n + jbase + nr_eff];
                        row[..nr_eff].copy_from_slice(srow);
                        row[nr_eff..].fill(E::Raw::ZERO);
                    }
                }
                BSrc::Transposed(b) => {
                    if nr_eff < nr {
                        raw[..kc * nr].fill(E::Raw::ZERO);
                    }
                    for jj in 0..nr_eff {
                        // The next column starts a stride away — warm
                        // it up while scattering this one.
                        prefetch(b, (jbase + jj + 1) * k + k0);
                        let col = &b[(jbase + jj) * k + k0..(jbase + jj) * k + k0 + kc];
                        for (kk, &v) in col.iter().enumerate() {
                            raw[kk * nr + jj] = v;
                        }
                    }
                }
                BSrc::Patches(p) if p.stride.1 == 1 => pack_patches::<_, true>(p, k0, kc, jbase, nr_eff, nr, raw),
                BSrc::Patches(p) => pack_patches::<_, false>(p, k0, kc, jbase, nr_eff, nr, raw),
                BSrc::Packed(_) => unreachable!("packed panels are read in place"),
            }
            raw[kc * nr..].fill(E::Raw::ZERO);
        });
    }
}

/// The `[n, k]` transposed-layout i8 weight `w` as [`BSrc::Packed`]
/// panels for the tile an `n`-column int8 GEMM selects in this process
/// (for any row count: [`select_tile`] keeps `nr` fixed per `n`).
pub(crate) fn prepack_b(w: &[i8], n: usize, k: usize) -> Vec<i32> {
    let (nr, ke) = (i32::tile(1, n).nr, k.div_ceil(2));
    let mut panels = vec![0; n.div_ceil(nr) * ke * nr];
    pack_b(&BSrc::Transposed(w), nr, n, k, 0, k, 0, n, &mut panels, &mut vec![0; 2 * ke * nr]);
    panels
}

/// Copy the ragged last row panel — rows `[i0, i0+mr_eff)`, columns
/// `[k0, k0+kc)` of A (leading dimension `lda`) — into a row-major
/// panel of `pa.len() / kc` rows whose rows past the matrix edge are
/// zero, so the kernel can read a full tile's rows. Writes every
/// element of `pa`.
fn pad_a<E: PoolElem>(a: &[E], lda: usize, i0: usize, mr_eff: usize, k0: usize, kc: usize, pa: &mut [MaybeUninit<E>]) {
    for (r, row) in pa.chunks_mut(kc.max(1)).enumerate() {
        let src = (r < mr_eff).then(|| &a[(i0 + r) * lda + k0..][..kc]);
        for (kk, slot) in row.iter_mut().enumerate() {
            slot.write(src.map_or(E::ZERO, |s| s[kk]));
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

/// The f32 GEMM `C = A[m, k] · B`, plus `bias[i]` (a conv's channel) or
/// `bias[j]` (`per_col`: a linear's feature), then ReLU — the separate
/// kernels' float ops. Row `i`, column `j = img·p + patch` lands at
/// `out[(img·channels + ch0 + i)·p + patch]`: `(n, m, 0)` is row-major
/// `[m, n]`, a conv's `(p, channels, ch0)` NCHW. One image (`p = n`) is
/// one row-major window, summed in place; more go through the block.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: BSrc<f32>,
    (bias, per_col): (Option<&[f32]>, bool),
    relu: bool,
    (p, channels, ch0): (usize, usize, usize),
    out: &mut [f32],
) {
    gemm_f32_tiled(&TILES[select_tile(level(), m, n)], m, k, n, a, b, (bias, per_col), relu, (p, channels, ch0), out);
}

/// [`gemm`] under an explicit tile.
#[allow(clippy::too_many_arguments)]
fn gemm_f32_tiled(
    tile: &Tile<f32>,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: BSrc<f32>,
    (bias, per_col): (Option<&[f32]>, bool),
    relu: bool,
    (p, channels, ch0): (usize, usize, usize),
    out: &mut [f32],
) {
    // `p = 0` passes only with no columns (`is_multiple_of(0)` is `n ==
    // 0`); a bias per column, only over one image.
    assert!(n.is_multiple_of(p) && ch0 + m <= channels && (p == n || !per_col), "gemm: bad output geometry");
    assert_eq!(out.len(), n / p.max(1) * channels * p, "gemm: output length mismatch");
    assert!(bias.is_none_or(|b| b.len() == if per_col { n } else { m }), "gemm: bias length mismatch");
    let finish = move |v: f32, bv: Option<f32>| {
        let v = bv.map_or(v, |b| v + b);
        if relu { v.max(0.0) } else { v }
    };
    // Each write-back first copies `finish` to a local, so no store
    // through a row can alias what its loop reads.
    if p == n {
        let window = &mut out[ch0 * p..(ch0 + m) * p];
        return gemm_tiled(tile, KC, NC, m, k, n, a, b, Sums::InPlace(window), &move |i, j0, sums| {
            let finish = finish;
            match bias {
                Some(b) if per_col => sums.iter_mut().zip(&b[j0..]).for_each(|(v, &bv)| *v = finish(*v, Some(bv))),
                Some(b) => sums.iter_mut().for_each(|v| *v = finish(*v, Some(b[i]))),
                None if relu => sums.iter_mut().for_each(|v| *v = finish(*v, None)),
                None => {}
            }
        });
    }
    let out_base = SendPtr(out.as_mut_ptr());
    gemm_tiled(tile, KC, NC, m, k, n, a, b, Sums::Block, &move |i, j0, sums| {
        let (out_base, finish, bv) = (out_base, finish, bias.map(|b| b[i]));
        let (mut j, mut sums) = (j0, &*sums);
        while !sums.is_empty() {
            let len = (p - j % p).min(sums.len());
            // SAFETY: row `i`, columns `j..j+len` of one image map to a
            // span inside `out` (asserted above) that no other row or
            // column maps to, and `out` is exclusively borrowed for the
            // whole call.
            let dst = unsafe { std::slice::from_raw_parts_mut(out_base.0.add((j / p * channels + ch0 + i) * p + j % p), len) };
            dst.iter_mut().zip(&sums[..len]).for_each(|(d, &v)| *d = finish(v, bv));
            (j, sums) = (j + len, &sums[len..]);
        }
    });
}

/// Where [`gemm_tiled`] accumulates its sums (of type `E`, an
/// [`Elem::Acc`]).
enum Sums<'a, E> {
    /// The caller's row-major `[m, n]` output, in place.
    InPlace(&'a mut [E]),
    /// A pooled `[m, NC]` block the driver reuses for every column block:
    /// for sums that cannot live in the output (int8's i32, a multi-image
    /// conv's columns).
    Block,
}

/// The one cache-blocking driver: `C = A[m, ⌈k/PAIR⌉] · B[k, n]` in
/// elements of `E`, summed in `E::Acc`, under an explicit register tile
/// and `kc × nc` blocking (`kc` in elements). Panel widths, the stack A panel and the
/// pool-drawn B block all take their geometry from `tile`.
///
/// The sums accumulate where `sums` says. Each finished row — once its
/// row panel's last k panel in a column block is done — leaves through
/// `write(i, j0, row)`: row `i`'s sums from column `j0`, while they are
/// cache-resident, mutable so an epilogue can run on them in place.
///
/// Row panels are distributed over the kernel thread pool; the packed B
/// block is shared read-only, so results are independent of the thread
/// count.
#[allow(clippy::too_many_arguments)]
fn gemm_tiled<E: Elem>(
    tile: &Tile<E>,
    kc_blk: usize,
    nc_blk: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[E],
    b: BSrc<E>,
    sums: Sums<E::Acc>,
    write: &(dyn Fn(usize, usize, &mut [E::Acc]) + Sync),
) {
    assert!(
        tile.level <= detected_level() && (!tile.vnni || vnni_detected()),
        "gemm: tile {} needs an ISA this CPU lacks",
        tile.name
    );
    let ke = k.div_ceil(E::PAIR);
    assert_eq!(a.len(), m * ke, "gemm: A length mismatch");
    assert!(!matches!(&sums, Sums::InPlace(c) if c.len() != m * n), "gemm: C length mismatch");
    let (mr, nr) = (tile.mr, tile.nr);
    let (b_len, b_want) = match &b {
        BSrc::RowMajor(b) | BSrc::Transposed(b) => (b.len(), k * n),
        BSrc::Patches(_) => (0, 0),
        BSrc::Packed(p) => (p.len(), n.div_ceil(nr) * ke * nr),
    };
    assert_eq!(b_len, b_want, "gemm: B length mismatch");
    let packed = if let BSrc::Packed(p) = &b { Some(*p) } else { None };
    if m == 0 || n == 0 {
        return;
    }
    // A column block must be whole panels, or `pack_b` would write past
    // the block it was given; the ragged A panel lives on the stack.
    assert_eq!(nc_blk % nr, 0, "gemm: NC {nc_blk} is not a multiple of NR {nr}");
    assert!((1..=KC).contains(&kc_blk), "gemm: KC {kc_blk} out of range");
    // The rows the sums accumulate in, `ldc` apart.
    let mut block = Vec::new();
    let (c, ldc, in_place) = match sums {
        Sums::InPlace(c) => (c, n, true),
        Sums::Block => {
            block = pool::alloc::<E::Acc>(m * n.min(nc_blk));
            (&mut block[..], n.min(nc_blk), false)
        }
    };
    let c_base = SendPtr(c.as_mut_ptr());

    // The block B is packed into (and, for int8, the raw rows it is
    // gathered through) — unless it arrived packed.
    let mut pb = if packed.is_none() { pool::alloc::<E>(kc_blk * nc_blk) } else { Vec::new() };
    let mut stage =
        if packed.is_none() && E::PAIR > 1 { pool::alloc::<E::Raw>(E::PAIR * kc_blk * nr) } else { Vec::new() };
    for jc in (0..n).step_by(nc_blk) {
        let nc_eff = nc_blk.min(n - jc);
        let n_jpanels = nc_eff.div_ceil(nr);
        // Column `jc` of C, or the first of the reused block.
        let c_jc = if in_place { SendPtr(c_base.0.wrapping_add(jc)) } else { c_base };
        // `K = 0` still makes one pass: the kernels' empty chains write
        // the zeros every sum then is.
        for e0 in (0..ke.max(1)).step_by(kc_blk) {
            let kc_eff = kc_blk.min(ke - e0);
            let k0 = e0 * E::PAIR;
            // This block's panels: `kc_eff` rows of `nr` each, `stride`
            // apart — just packed, or the window of the whole-depth ones.
            let (panels, stride): (&[E], usize) = match packed {
                Some(all) => (&all[(jc / nr * ke + e0) * nr..], ke * nr),
                None => {
                    pack_b(&b, nr, n, k, k0, (kc_eff * E::PAIR).min(k - k0), jc, nc_eff, &mut pb, &mut stage);
                    (&pb, kc_eff * nr)
                }
            };
            parallel_chunks(m.div_ceil(mr), |range| {
                let c_jc = c_jc;
                // Uninitialized on purpose: `pad_a` writes every element
                // of the `mr × kc_eff` prefix the kernel reads.
                let mut pa = [MaybeUninit::<E>::uninit(); MR_MAX * KC];
                for rp in range {
                    let i0 = rp * mr;
                    let mr_eff = mr.min(m - i0);
                    // A full row panel is read in place; the ragged last
                    // one through a zero-padded copy (identical values
                    // either way).
                    let (ap, lda) = if mr_eff == mr {
                        (a[i0 * ke + e0..].as_ptr(), ke)
                    } else {
                        pad_a(a, ke, i0, mr_eff, e0, kc_eff, &mut pa[..mr * kc_eff]);
                        (pa.as_ptr().cast::<E>(), kc_eff)
                    };
                    for jp in 0..n_jpanels {
                        let j = jp * nr;
                        let nr_eff = nr.min(nc_eff - j);
                        let kernel = if 2 * nr_eff <= nr { tile.half } else { tile.full };
                        // SAFETY: the tile's ISA was detected (asserted
                        // above). A: in place, `mr` full rows of `kc_eff`
                        // in-bounds elements; padded, fully written by
                        // `pad_a`. B: panel `jp` holds `kc_eff` rows of
                        // `nr` (`packed`'s length was checked against the
                        // whole depth). C: row panels are disjoint across `rp`,
                        // so each call writes an exclusive
                        // `mr_eff × nr_eff` window.
                        unsafe {
                            let pbp = panels[jp * stride..][..kc_eff * nr].as_ptr();
                            let cp = c_jc.0.add(i0 * ldc + j);
                            kernel(kc_eff, ap, lda, pbp, nr, cp, ldc, mr_eff, nr_eff, e0 == 0);
                        }
                    }
                    if e0 + kc_eff == ke {
                        for i in i0..i0 + mr_eff {
                            // SAFETY: row `i`'s `nc_eff` sums of this
                            // column block lie inside C; row panels are
                            // disjoint across workers, and this one's
                            // kernels have all returned.
                            write(i, jc, unsafe { std::slice::from_raw_parts_mut(c_jc.0.add(i * ldc), nc_eff) });
                        }
                    }
                }
            });
        }
    }
    pool::recycle(pb);
    pool::recycle(stage);
    pool::recycle(block);
}

// ===========================================================================
// The quantize lane: int8 elementwise work at YMM and ZMM
// ===========================================================================

/// One register of f32 lanes and its i32 twin: the steps the quantize
/// lane is written in, each the exact IEEE counterpart of one scalar
/// step of [`crate::quant`]'s oracle. Like [`Vector`], every method is
/// `#[inline(always)]` and only sound inside a `#[target_feature]`
/// wrapper enabling `Self`'s instruction set.
trait QLane: Copy {
    /// The i32 register with as many lanes.
    type I: Copy;
    const LANES: usize;
    unsafe fn splat(v: f32) -> Self;
    unsafe fn splat_i(v: i32) -> Self::I;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn load_i(p: *const i32) -> Self::I;
    /// `LANES` i8 at `p`, each `as i32`.
    unsafe fn load_i8(p: *const i8) -> Self::I;
    /// `(i − j) as f32`: a wrapping i32 subtract, then `cvtdq2ps`.
    unsafe fn sub_f32(i: Self::I, j: Self::I) -> Self;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    /// A true IEEE division (`divps`), never a reciprocal estimate.
    unsafe fn div(self, o: Self) -> Self;
    /// `maxps` / `minps`: `o` in any lane where either is NaN.
    unsafe fn max(self, o: Self) -> Self;
    unsafe fn min(self, o: Self) -> Self;
    /// `f32::round` — half away from zero — with NaN lanes made 0, the
    /// value `as i32` gives NaN: `t = trunc(x)`, plus `copysign(1, x)`
    /// where `|x − t| ≥ ½`. `x − t` is exact, and so is `t ± 1` (a
    /// fraction exists only below 2²³).
    unsafe fn round_away(self) -> Self;
    /// `cvttps2dq`: `self as i32` for integral lanes inside the i32 range.
    unsafe fn trunc_i(self) -> Self::I;
    /// `cvtps2dq` under the default rounding mode: `round_ties_even() as
    /// i32` inside the i32 range.
    unsafe fn even_i(self) -> Self::I;
    /// `(i + zp).clamp(QMIN, QMAX) as i8` — a wrapping add, then a
    /// saturating narrow — stored as `LANES` bytes at `p`.
    unsafe fn store_i8(i: Self::I, zp: Self::I, p: *mut i8);
}

/// A [`QLane`] impl: the uniform methods are one intrinsic each (named
/// in order: `set1_ps`, `set1_epi32`, `loadu_ps`, i32 load, `sub_epi32`,
/// `cvtepi32_ps`, `add_ps`, `mul_ps`, `div_ps`, `max_ps`, `min_ps`,
/// `cvttps_epi32`, `cvtps_epi32`); the three that differ by ISA are
/// written out at the invocation, over the named arguments.
macro_rules! impl_qlane {
    ($v:ident, $i:ident, $lanes:literal,
     [$set1:ident, $set1i:ident, $load:ident, $loadi:ident, $subi:ident, $cvt:ident, $add:ident,
      $mul:ident, $div:ident, $max:ident, $min:ident, $cvtt:ident, $cvtn:ident],
     load_i8($p:ident) $load_i8:block
     round_away($x:ident) $round:block
     store_i8($q:ident, $zp:ident, $dst:ident) $store:block) => {
        #[cfg(target_arch = "x86_64")]
        impl QLane for std::arch::x86_64::$v {
            type I = std::arch::x86_64::$i;
            const LANES: usize = $lanes;
            #[inline(always)]
            unsafe fn splat(v: f32) -> Self {
                std::arch::x86_64::$set1(v)
            }
            #[inline(always)]
            unsafe fn splat_i(v: i32) -> Self::I {
                std::arch::x86_64::$set1i(v)
            }
            #[inline(always)]
            unsafe fn load(p: *const f32) -> Self {
                std::arch::x86_64::$load(p)
            }
            #[inline(always)]
            unsafe fn load_i(p: *const i32) -> Self::I {
                std::arch::x86_64::$loadi(p.cast())
            }
            #[inline(always)]
            unsafe fn load_i8($p: *const i8) -> Self::I {
                use std::arch::x86_64::*;
                $load_i8
            }
            #[inline(always)]
            unsafe fn sub_f32(i: Self::I, j: Self::I) -> Self {
                std::arch::x86_64::$cvt(std::arch::x86_64::$subi(i, j))
            }
            #[inline(always)]
            unsafe fn add(self, o: Self) -> Self {
                std::arch::x86_64::$add(self, o)
            }
            #[inline(always)]
            unsafe fn mul(self, o: Self) -> Self {
                std::arch::x86_64::$mul(self, o)
            }
            #[inline(always)]
            unsafe fn div(self, o: Self) -> Self {
                std::arch::x86_64::$div(self, o)
            }
            #[inline(always)]
            unsafe fn max(self, o: Self) -> Self {
                std::arch::x86_64::$max(self, o)
            }
            #[inline(always)]
            unsafe fn min(self, o: Self) -> Self {
                std::arch::x86_64::$min(self, o)
            }
            #[inline(always)]
            unsafe fn round_away(self) -> Self {
                use std::arch::x86_64::*;
                let $x = self;
                $round
            }
            #[inline(always)]
            unsafe fn trunc_i(self) -> Self::I {
                std::arch::x86_64::$cvtt(self)
            }
            #[inline(always)]
            unsafe fn even_i(self) -> Self::I {
                std::arch::x86_64::$cvtn(self)
            }
            #[inline(always)]
            unsafe fn store_i8($q: Self::I, $zp: Self::I, $dst: *mut i8) {
                use std::arch::x86_64::*;
                $store
            }
        }
    };
}

impl_qlane!(__m256, __m256i, 8,
    [_mm256_set1_ps, _mm256_set1_epi32, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_sub_epi32, _mm256_cvtepi32_ps,
     _mm256_add_ps, _mm256_mul_ps, _mm256_div_ps, _mm256_max_ps, _mm256_min_ps, _mm256_cvttps_epi32, _mm256_cvtps_epi32],
    load_i8(p) { _mm256_cvtepi8_epi32(_mm_loadl_epi64(p.cast())) }
    round_away(x) {
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(x);
        let sign = _mm256_set1_ps(-0.0);
        let away = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_andnot_ps(sign, _mm256_sub_ps(x, t)), _mm256_set1_ps(0.5));
        let step = _mm256_or_ps(_mm256_and_ps(sign, x), _mm256_set1_ps(1.0));
        let r = _mm256_add_ps(t, _mm256_and_ps(away, step));
        _mm256_and_ps(r, _mm256_cmp_ps::<_CMP_ORD_Q>(x, x))
    }
    store_i8(q, zp, p) {
        let q = _mm256_add_epi32(q, zp);
        let w = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
        _mm_storel_epi64(p.cast(), _mm_packs_epi16(w, w));
    }
);
impl_qlane!(__m512, __m512i, 16,
    [_mm512_set1_ps, _mm512_set1_epi32, _mm512_loadu_ps, _mm512_loadu_si512, _mm512_sub_epi32, _mm512_cvtepi32_ps,
     _mm512_add_ps, _mm512_mul_ps, _mm512_div_ps, _mm512_max_ps, _mm512_min_ps, _mm512_cvttps_epi32, _mm512_cvtps_epi32],
    load_i8(p) { _mm512_cvtepi8_epi32(_mm_loadu_si128(p.cast())) }
    round_away(x) {
        let t = _mm512_roundscale_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(x);
        let away = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(_mm512_abs_ps(_mm512_sub_ps(x, t)), _mm512_set1_ps(0.5));
        let sign = _mm512_and_si512(_mm512_castps_si512(x), _mm512_set1_epi32(i32::MIN));
        let step = _mm512_castsi512_ps(_mm512_or_si512(sign, _mm512_castps_si512(_mm512_set1_ps(1.0))));
        let r = _mm512_mask_add_ps(t, away, t, step);
        _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_ORD_Q>(x, x), r)
    }
    store_i8(q, zp, p) { _mm_storeu_si128(p.cast(), _mm512_cvtsepi32_epi8(_mm512_add_epi32(q, zp))) }
);

/// Lanes of the widest [`QLane`]: sizes the stack copies of ragged tails.
const LANES_MAX: usize = 16;

/// `load` of the first `lanes` values of `s`, through a zero-padded
/// stack copy when `s` is shorter (a ragged tail).
#[inline(always)]
fn load_padded<T: Copy + Default, R>(s: &[T], lanes: usize, load: impl FnOnce(*const T) -> R) -> R {
    if s.len() >= lanes {
        load(s.as_ptr())
    } else {
        let mut buf = [T::default(); LANES_MAX];
        buf[..s.len()].copy_from_slice(s);
        load(buf.as_ptr())
    }
}

/// [`crate::quant::quantize_one`] lane for lane for one output scale and
/// zero point: divide, round half away from zero, clamp, add the zero
/// point, narrow. The clamp runs in f32, against `QMIN − zp` and `QMAX −
/// zp` — exact integers for every zero point in [`LANE_ZP`] — so the
/// conversion sees only in-range values and `+ zp` cannot wrap; that is
/// the whole of `as i32`'s saturation and `saturating_add`'s.
struct Quantizer<V: QLane> {
    scale: V,
    lo: V,
    hi: V,
    zp: V::I,
}

impl<V: QLane> Quantizer<V> {
    #[inline(always)]
    unsafe fn new(scale: f32, zp: i32) -> Self {
        use crate::quant::{QMAX, QMIN};
        let (lo, hi) = (V::splat((QMIN - zp) as f32), V::splat((QMAX - zp) as f32));
        Quantizer { scale: V::splat(scale), lo, hi, zp: V::splat_i(zp) }
    }

    /// Quantize the real values `x` into `dst` (`dst.len() ≤ LANES`).
    #[inline(always)]
    unsafe fn store(&self, x: V, dst: &mut [i8]) {
        let q = x.div(self.scale).round_away().max(self.lo).min(self.hi).trunc_i();
        if dst.len() == V::LANES {
            V::store_i8(q, self.zp, dst.as_mut_ptr());
        } else {
            let mut bytes = [0i8; LANES_MAX];
            V::store_i8(q, self.zp, bytes.as_mut_ptr());
            dst.copy_from_slice(&bytes[..dst.len()]);
        }
    }
}

/// The output zero points the quantize lane takes (its clamp bounds must
/// be exact in f32, so within ±2²⁴). Calibration only produces i8 zero
/// points; anything outside this runs the scalar oracle.
const LANE_ZP: std::ops::RangeInclusive<i32> = -(1 << 24) + 128..=(1 << 24) - 128;

/// `out[i] = quantize_one(x[i], scale, zp)`.
///
/// # Safety
/// Only sound inside a `#[target_feature]` function enabling `V`'s
/// instruction set; `zp` must be in [`LANE_ZP`].
#[inline(always)]
unsafe fn quantize_lane<V: QLane>(x: &[f32], scale: f32, zp: i32, out: &mut [i8]) {
    let q = Quantizer::<V>::new(scale, zp);
    for (x, dst) in x.chunks(V::LANES).zip(out.chunks_mut(V::LANES)) {
        q.store(load_padded(x, V::LANES, |p| V::load(p)), dst);
    }
}

/// A per-tensor `(scale, zero point)`.
type Affine = (f32, i32);

/// `out[i] = quantize_one((a[i] − za)·sa + (b[i] − zb)·sb, scale, zp)`:
/// [`crate::quant::quantized_add`]'s element, with the product sum as a
/// separate mul, mul and add (no FMA contraction).
///
/// # Safety
/// As [`quantize_lane`], for the output zero point `qo.1`.
#[inline(always)]
unsafe fn add_lane<V: QLane>(a: &[i8], b: &[i8], qa: Affine, qb: Affine, qo: Affine, out: &mut [i8]) {
    let q = Quantizer::<V>::new(qo.0, qo.1);
    let (sa, za, sb, zb) = (V::splat(qa.0), V::splat_i(qa.1), V::splat(qb.0), V::splat_i(qb.1));
    for ((a, b), dst) in a.chunks(V::LANES).zip(b.chunks(V::LANES)).zip(out.chunks_mut(V::LANES)) {
        let x = V::sub_f32(load_padded(a, V::LANES, |p| V::load_i8(p)), za).mul(sa);
        let y = V::sub_f32(load_padded(b, V::LANES, |p| V::load_i8(p)), zb).mul(sb);
        q.store(x.add(y), dst);
    }
}

/// Requantize `acc` — the sums of output row `i`, GEMM columns
/// `j0..j0+acc.len()` — into place, `V::LANES` at a time. Column `j` is
/// patch `j % p` of image `j / p`, and `out` is `[images, m, p]`, so a
/// row's columns land as one contiguous span per image (a linear is one
/// image of `p = n` "patches": plain row-major). Every step is the exact
/// IEEE counterpart of [`crate::quant::requant_one`] (`cvtdq2ps` = `as
/// f32`, a separate `mulps` and `addps`, `maxps` = the `> 0.0` select,
/// `cvtps2dq` = `round_ties_even() as i32`, the saturating narrow = the
/// clamp), so it agrees bitwise with the portable tiles' epilogue.
///
/// # Safety
/// Only sound inside a `#[target_feature]` function enabling `V`'s
/// instruction set. `out` must be valid for writes at every index this
/// row's columns map to, and no other thread may write them.
#[inline(always)]
unsafe fn requant_row<V: QLane>(acc: &[i32], rq: &Requant, i: usize, m: usize, j0: usize, p: usize, out: *mut i8) {
    let (zero, zp) = (V::splat(0.0), V::splat_i(rq.out_zp));
    let of_row = (!rq.per_col).then(|| (V::splat_i(rq.zp_corr[i]), V::splat(rq.mult[i]), V::splat(rq.badd[i])));
    let (mut img, mut patch) = (j0 / p, j0 % p);
    for (ci, chunk) in acc.chunks(V::LANES).enumerate() {
        let len = chunk.len();
        let (zc, mult, badd) = of_row.unwrap_or_else(|| {
            let j = j0 + V::LANES * ci;
            let (zc, mult, badd) = (&rq.zp_corr[j..], &rq.mult[j..], &rq.badd[j..]);
            let f32s = |s| load_padded(s, V::LANES, |p| V::load(p));
            (load_padded(zc, V::LANES, |p| V::load_i(p)), f32s(mult), f32s(badd))
        });
        let mut v = V::sub_f32(load_padded(chunk, V::LANES, |p| V::load_i(p)), zc).mul(mult).add(badd);
        if rq.relu {
            v = v.max(zero);
        }
        let q = v.even_i();
        if len == V::LANES && patch + len <= p {
            V::store_i8(q, zp, out.add((img * m + i) * p + patch));
            patch += len;
        } else {
            // The chunk straddles images (or is the row's tail): place
            // its bytes one by one.
            let mut bytes = [0i8; LANES_MAX];
            V::store_i8(q, zp, bytes.as_mut_ptr());
            for &b in &bytes[..len] {
                if patch == p {
                    (img, patch) = (img + 1, 0);
                }
                *out.add((img * m + i) * p + patch) = b;
                patch += 1;
            }
        }
        if patch == p {
            (img, patch) = (img + 1, 0);
        }
    }
}

/// [`requant_row`]'s job for the portable tiles: one
/// [`crate::quant::requant_one`] per column.
///
/// # Safety
/// As [`requant_row`]'s `out` contract.
unsafe fn requant_row_portable(acc: &[i32], rq: &Requant, i: usize, m: usize, j0: usize, p: usize, out: *mut i8) {
    let (mut img, mut patch) = (j0 / p, j0 % p);
    for (j, &sum) in (j0..).zip(acc) {
        let c = if rq.per_col { j } else { i };
        *out.add((img * m + i) * p + patch) =
            crate::quant::requant_one(sum.wrapping_sub(rq.zp_corr[c]), rq.mult[c], rq.badd[c], rq.relu, rq.out_zp);
        patch += 1;
        if patch == p {
            (img, patch) = (img + 1, 0);
        }
    }
}

/// The quantize lane at one vector width: [`quantize_lane`],
/// [`add_lane`] and [`requant_row`] instantiated for one [`QLane`]
/// behind `#[target_feature]` wrappers, and the [`Level`] that must be
/// detected before they may be called.
pub(crate) struct QuantLane {
    name: &'static str,
    level: Level,
    quantize: unsafe fn(&[f32], f32, i32, &mut [i8]),
    #[allow(clippy::type_complexity)]
    add: unsafe fn(&[i8], &[i8], Affine, Affine, Affine, &mut [i8]),
    requant: RequantRow,
}

/// A requantizing epilogue: [`requant_row`]'s arguments.
type RequantRow = unsafe fn(&[i32], &Requant, usize, usize, usize, usize, *mut i8);

/// A [`QuantLane`] of the three bodies instantiated for vector `$v`.
/// Each wrapper's safety contract is its body's, plus: the CPU must
/// support `$features` — callers reach them only through a lane whose
/// `level` runtime detection confirmed.
macro_rules! quant_lane {
    ($name:literal, $level:expr, $features:literal, $v:ident) => {{
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        unsafe fn quantize(x: &[f32], scale: f32, zp: i32, out: &mut [i8]) {
            quantize_lane::<std::arch::x86_64::$v>(x, scale, zp, out)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        unsafe fn add(a: &[i8], b: &[i8], qa: Affine, qb: Affine, qo: Affine, out: &mut [i8]) {
            add_lane::<std::arch::x86_64::$v>(a, b, qa, qb, qo, out)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        unsafe fn requant(acc: &[i32], rq: &Requant, i: usize, m: usize, j0: usize, p: usize, out: *mut i8) {
            requant_row::<std::arch::x86_64::$v>(acc, rq, i, m, j0, p, out)
        }
        QuantLane { name: $name, level: $level, quantize, add, requant }
    }};
}

/// The quantize lane at each width, narrowest first.
#[cfg(target_arch = "x86_64")]
static QUANT_LANES: [QuantLane; 2] = [
    quant_lane!("avx2 8-lane", Level::Avx2, "avx2", __m256),
    quant_lane!("avx512 16-lane", Level::Avx512, "avx512f,avx512bw", __m512),
];

impl QuantLane {
    /// The lane at `level` (which the caller has detected).
    fn at(level: Level) -> &'static QuantLane {
        &QUANT_LANES[(level == Level::Avx512) as usize]
    }

    fn check(&self, zp: i32) {
        assert!(self.level <= detected_level(), "quantize lane {} needs an ISA this CPU lacks", self.name);
        assert!(LANE_ZP.contains(&zp), "quantize lane: zero point {zp} outside {LANE_ZP:?}");
    }

    /// `out[i] = quantize_one(x[i], scale, zp)`, bit for bit.
    pub(crate) fn quantize(&self, x: &[f32], scale: f32, zp: i32, out: &mut [i8]) {
        assert_eq!(x.len(), out.len(), "quantize lane: length mismatch");
        self.check(zp);
        // SAFETY: the lane's ISA was detected (checked above).
        unsafe { (self.quantize)(x, scale, zp, out) }
    }

    /// `out[i] = quantize_one((a[i]−za)·sa + (b[i]−zb)·sb, scale, zp)`
    /// for `qa = (sa, za)`, `qb = (sb, zb)`, `qo = (scale, zp)`, bit for
    /// bit.
    pub(crate) fn add(&self, a: &[i8], b: &[i8], qa: Affine, qb: Affine, qo: Affine, out: &mut [i8]) {
        assert!(a.len() == out.len() && b.len() == out.len(), "quantize lane: length mismatch");
        self.check(qo.1);
        // SAFETY: the lane's ISA was detected (checked above).
        unsafe { (self.add)(a, b, qa, qb, qo, out) }
    }
}

/// The quantize lane this process runs for output zero point `zp`: the
/// one at [`level`]'s width, or `None` under `FX_SIMD=0` (the scalar
/// oracle runs) or for a zero point outside [`LANE_ZP`].
pub(crate) fn quant_lane(zp: i32) -> Option<&'static QuantLane> {
    (level() != Level::Scalar && LANE_ZP.contains(&zp)).then(|| QuantLane::at(level()))
}

// ===========================================================================
// int8: the requantizing epilogue and the entry point
// ===========================================================================

/// How an int8 GEMM's i32 sums become its i8 output: `round_ne((acc −
/// zp_corr[c])·mult[c] + badd[c] [max 0]) + out_zp`, clamped to i8, with
/// one set of coefficients per output channel `c` — the GEMM's **row**
/// where weights are A (a conv, a quad linear), its **column** where they
/// are B (a pair linear). [`crate::quant`] derives them once per call.
pub(crate) struct Requant<'a> {
    /// `(x_zp + OFFSET) · Σₖ w[c][k]`: the activation zero point, and the
    /// element's [`Int8::OFFSET`], folded out of the sum
    /// (`Σ(x−zp)·w = Σx·w − zp·Σw`).
    pub zp_corr: &'a [i32],
    /// `x_scale · w_scale[c] / out_scale`.
    pub mult: &'a [f32],
    /// `bias[c] / out_scale`.
    pub badd: &'a [f32],
    /// Whether `c` is the GEMM column rather than the row.
    pub per_col: bool,
    /// Clamp at real 0 before rounding.
    pub relu: bool,
    /// Output zero point.
    pub out_zp: i32,
}

/// An int8 element: a k-pair (`i32`) or a k-quad ([`Quad`]).
pub(crate) trait Int8: Elem<Acc = i32, Raw = i8> {
    /// What packing adds to each B value, so row `i`'s sums exceed the
    /// signed ones by `OFFSET·Σₖ A[i, k]`: 128 for a quad's unsigned side.
    const OFFSET: i32;
    /// The tile an `m × n` GEMM of this element runs under.
    fn tile(m: usize, n: usize) -> &'static Tile<Self>;
}

impl Int8 for i32 {
    const OFFSET: i32 = 0;
    fn tile(m: usize, n: usize) -> &'static Tile<i32> {
        &I8_TILES[select_tile(level(), m, n)]
    }
}

impl Int8 for Quad {
    const OFFSET: i32 = 128;
    fn tile(m: usize, n: usize) -> &'static Tile<Quad> {
        &QUAD_TILES[select_tile(level(), m, n) - PORTABLE_I8.len()]
    }
}

/// Int8 GEMM with fused requantization through the one driver:
/// `out[img, i, patch] = requant(Σₖ A[i, k]·B[k, img·p + patch])`, with
/// A `[m, ⌈k/PAIR⌉]` rows of the element, B any [`BSrc`] over i8 and
/// `out` laid out `[n/p, m, p]`. A conv passes its weight as A and its
/// input's patches as B, so `out` is NCHW (module docs for a linear). A
/// quad GEMM's [`Int8::OFFSET`] is per row, so its coefficients must be,
/// with the offset in `zp_corr`.
///
/// Accumulation is exact i32 (module docs), so the output is
/// **bit-identical** across tiles, elements, engines, thread counts,
/// batch positions and blocking parameters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_i8<E: Int8>(
    m: usize,
    k: usize,
    n: usize,
    a: &[E],
    b: BSrc<E>,
    rq: &Requant,
    p: usize,
    out: &mut [i8],
) {
    gemm_i8_tiled(E::tile(m, n), KC, NC, m, k, n, a, b, rq, p, out);
}

/// [`gemm_i8`] under an explicit tile and blocking.
#[allow(clippy::too_many_arguments)]
fn gemm_i8_tiled<E: Int8>(
    tile: &Tile<E>,
    kc_blk: usize,
    nc_blk: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[E],
    b: BSrc<E>,
    rq: &Requant,
    p: usize,
    out: &mut [i8],
) {
    assert_eq!(out.len(), m * n, "gemm_i8: output length mismatch");
    assert!(p > 0 && n.is_multiple_of(p), "gemm_i8: {n} columns are not whole images of {p}");
    assert!(E::OFFSET == 0 || !rq.per_col, "gemm_i8: a quad GEMM's offset is per row, so its coefficients must be");
    let channels = if rq.per_col { n } else { m };
    assert!(
        rq.zp_corr.len() == channels && rq.mult.len() == channels && rq.badd.len() == channels,
        "gemm_i8: requantization coefficients must be per output channel"
    );
    let out_base = SendPtr(out.as_mut_ptr());
    // The epilogue runs at the tile's width: 16 lanes behind a ZMM tile.
    let requant = match tile.level {
        Level::Scalar => requant_row_portable,
        level => QuantLane::at(level).requant,
    };
    gemm_tiled(tile, kc_blk, nc_blk, m, k, n, a, b, Sums::Block, &|i, j0, sums| {
        let out_base = out_base;
        // SAFETY: the tile's level was detected (`gemm_tiled` asserts it
        // before any row is finished). Row `i`, columns `j0..` map to
        // indices below `m·n` that no other row or block maps to, and
        // `out` is exclusively borrowed for the whole call.
        unsafe { requant(sums, rq, i, m, j0, p, out_base.0) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedableRng, StdRng};

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
            gemm(m, k, n, &a, BSrc::RowMajor(&b), (None, false), false, (n, m, 0), &mut c);
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
            gemm(m, k, n, &a, BSrc::Transposed(&bt), (None, false), false, (n, m, 0), &mut ct);
            assert_eq!(c, ct, "nt packing must be bit-identical to nn ({m}x{k}x{n})");
        }
    }

    /// The epilogue under every f32 tile and both targets — one image
    /// (in place) and three (the block) — must equal the plain GEMM, then
    /// bias, then ReLU, bit for bit: bias per row and per column, ReLU on
    /// and off, `n` across two `NC` column blocks and `m` past `MR`.
    #[test]
    fn fused_epilogue_matches_separate_passes() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, p) in &[(9usize, 33usize, 21usize), (MR_MAX + 5, 70, NC + 37)] {
            let a = rand_vec(m * k, &mut rng);
            for images in [1, 3] {
                let n = images * p;
                let (b, row_bias, col_bias) = (rand_vec(k * n, &mut rng), rand_vec(m, &mut rng), rand_vec(n, &mut rng));
                for tile in runnable(&TILES) {
                    let plain = run_f32(tile, m, k, n, &a, BSrc::RowMajor(&b));
                    let biases = [(None, false), (Some(&row_bias[..]), false), (Some(&col_bias[..]), true)];
                    // A bias per column (a linear's) has one image.
                    for (bias, per_col) in biases.into_iter().take(if images == 1 { 3 } else { 2 }) {
                        for relu in [false, true] {
                            let mut want = vec![0.0f32; m * n];
                            for (idx, &v) in plain.iter().enumerate() {
                                let (i, j) = (idx / n, idx % n);
                                let v = bias.map_or(v, |b| v + b[if per_col { j } else { i }]);
                                want[(j / p * m + i) * p + j % p] = if relu { v.max(0.0) } else { v };
                            }
                            let mut got = vec![f32::NAN; m * n];
                            let b = BSrc::RowMajor(&b);
                            gemm_f32_tiled(tile, m, k, n, &a, b, (bias, per_col), relu, (p, m, 0), &mut got);
                            let what = format!("{} {m}x{k}x{n} p={p} bias={} per_col={per_col} relu={relu}", tile.name, bias.is_some());
                            assert_bits_eq(&got, &want, &what);
                        }
                    }
                }
            }
        }
    }

    /// Thread count must not change a single bit (row panels only ever
    /// split the output, never the reduction).
    /// One [`gemm`] call of all-ones operands: `m` rows of `n`
    /// columns into `out_len` elements, `p` columns per image, rows
    /// landing on channels `ch0..` of `channels`.
    fn nchw_call(m: usize, n: usize, p: usize, geometry: (usize, usize), out_len: usize, bias_len: usize) {
        let k = 3;
        let (a, b, bias) = (vec![1.0f32; m * k], vec![1.0f32; k * n], vec![0.5f32; bias_len]);
        let mut out = vec![0.0f32; out_len];
        gemm(m, k, n, &a, BSrc::RowMajor(&b), (Some(&bias), false), false, (p, geometry.0, geometry.1), &mut out);
    }

    // `gemm` writes multi-image sums back through a raw pointer: its asserts are
    // all that keep a bad geometry inside `out`. Each row below breaks
    // one of them; (m, n, p, (channels, ch0)) = (2, 8, 4, (4, 0)) with
    // a 32-element output and a 2-element bias is the valid call.
    #[test]
    #[should_panic(expected = "bad output geometry")]
    fn gemm_nchw_rejects_a_group_past_the_last_channel() {
        nchw_call(2, 8, 4, (4, 3), 32, 2);
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn gemm_nchw_rejects_an_output_one_short() {
        nchw_call(2, 8, 4, (4, 0), 31, 2);
    }

    #[test]
    #[should_panic(expected = "bad output geometry")]
    fn gemm_nchw_rejects_a_partial_image() {
        nchw_call(2, 6, 4, (4, 0), 32, 2);
    }

    #[test]
    #[should_panic(expected = "bad output geometry")]
    fn gemm_nchw_rejects_zero_columns_per_image() {
        nchw_call(2, 8, 0, (4, 0), 32, 2);
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn gemm_nchw_rejects_a_bias_not_one_per_row() {
        nchw_call(2, 8, 4, (4, 0), 32, 3);
    }

    /// A group from `ch0 > 0` writes exactly its channels of every
    /// image — the plain GEMM's sums plus bias, then ReLU, bit for bit —
    /// and leaves every other element of a sentinel-filled output alone:
    /// over one image (its rows are one window, summed in place) and over
    /// three (through the block).
    #[test]
    fn gemm_nchw_group_writes_only_its_channels() {
        let mut rng = StdRng::seed_from_u64(0x9C);
        for images in [1, 3] {
            let (m, k, p, channels, ch0) = (2, 7, 6, 5, 2);
            let n = images * p;
            let (a, b, bias) = (rand_vec(m * k, &mut rng), rand_vec(k * n, &mut rng), rand_vec(m, &mut rng));
            let mut plain = vec![0.0f32; m * n];
            gemm(m, k, n, &a, BSrc::RowMajor(&b), (None, false), false, (n, m, 0), &mut plain);
            const SENTINEL: f32 = -7.25;
            let mut out = vec![SENTINEL; images * channels * p];
            gemm(m, k, n, &a, BSrc::RowMajor(&b), (Some(&bias), false), true, (p, channels, ch0), &mut out);
            for (idx, &got) in out.iter().enumerate() {
                let (img, ch, patch) = (idx / (channels * p), idx / p % channels, idx % p);
                let want = match ch.checked_sub(ch0).filter(|&i| i < m) {
                    Some(i) => (plain[i * n + img * p + patch] + bias[i]).max(0.0),
                    None => SENTINEL,
                };
                assert_eq!(got.to_bits(), want.to_bits(), "{images} images: image {img} channel {ch} patch {patch}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let (m, k, n) = (37, 65, 29);
        let mut rng = StdRng::seed_from_u64(11);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let prev = crate::threading::num_threads();
        crate::threading::set_num_threads(1);
        let mut c1 = vec![0.0f32; m * n];
        gemm(m, k, n, &a, BSrc::RowMajor(&b), (None, false), false, (n, m, 0), &mut c1);
        crate::threading::set_num_threads(7);
        let mut c7 = vec![0.0f32; m * n];
        gemm(m, k, n, &a, BSrc::RowMajor(&b), (None, false), false, (n, m, 0), &mut c7);
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
            gemm(m, k, n_small, &a, BSrc::RowMajor(&b_small), (None, false), false, (n_small, m, 0), &mut c_small);
            let mut c_big = vec![0.0f32; m * n_big];
            gemm(m, k, n_big, &a, BSrc::RowMajor(&b_big), (None, false), false, (n_big, m, 0), &mut c_big);
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

    /// The numeric contract, written out: per element, one multiply-add
    /// `step` per k step inside a `kc` panel, panels joined in k order by
    /// a separate add.
    #[allow(clippy::too_many_arguments)]
    fn chain(
        m: usize,
        k: usize,
        n: usize,
        kc: usize,
        a: &[f32],
        b_at: impl Fn(usize, usize) -> f32,
        step: fn(f32, f32, f32) -> f32,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for k0 in (0..k).step_by(kc) {
                    let mut acc = 0.0f32;
                    for kk in k0..k.min(k0 + kc) {
                        acc = step(a[i * k + kk], b_at(kk, j), acc);
                    }
                    c[i * n + j] = if k0 == 0 { acc } else { c[i * n + j] + acc };
                }
            }
        }
        c
    }

    /// Both chains over one problem, for [`pick`]: the FMA tiles' (one
    /// fused multiply-add per step), then the portable tiles' (a rounded
    /// multiply, then the add).
    fn chains(m: usize, k: usize, n: usize, a: &[f32], b_at: impl Fn(usize, usize) -> f32) -> [Vec<f32>; 2] {
        [chain(m, k, n, KC, a, &b_at, f32::mul_add), chain(m, k, n, KC, a, &b_at, |a, b, acc| acc + a * b)]
    }

    /// The chain of [`chains`] `tile` must reproduce.
    fn pick<'a>(want: &'a [Vec<f32>; 2], tile: &Tile<f32>) -> &'a [f32] {
        &want[(tile.level == Level::Scalar) as usize]
    }

    /// The tiles of `table` this CPU can run; prints which it skips.
    fn runnable<E: Elem>(table: &'static [Tile<E>]) -> Vec<&'static Tile<E>> {
        let mut tiles = Vec::new();
        for tile in table {
            if tile.level <= detected_level() && (!tile.vnni || vnni_detected()) {
                tiles.push(tile);
            } else {
                eprintln!("skipping tile {}: this CPU lacks its instructions", tile.name);
            }
        }
        tiles
    }

    /// `gemm_tiled` in place into a NaN-poisoned f32 C under the fixed
    /// blocking.
    fn run_f32(tile: &Tile<f32>, m: usize, k: usize, n: usize, a: &[f32], b: BSrc<f32>) -> Vec<f32> {
        let mut c = vec![f32::NAN; m * n];
        gemm_tiled(tile, KC, NC, m, k, n, a, b, Sums::InPlace(&mut c), &|_, _, _| {});
        c
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i} is {g}, chain says {w}");
        }
    }

    /// Every f32 tile — portable, AVX2 and AVX-512, full and half width,
    /// interior and edge — must reproduce its sequential-k chain bit for
    /// bit, and therefore every tile of the same dot step: `K = 0`, `K`
    /// across three `KC` panels, `M` below, at and past `MR` (rows read
    /// in place and through the padded last panel), `N` around every
    /// tile's `NR`, row-major and transposed B.
    #[test]
    fn every_tile_matches_the_sequential_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x711E);
        for &m in &[1usize, 5, 13, 24] {
            for &k in &[0usize, 7, 2 * KC + 37] {
                for &n in &[1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 70] {
                    let a = rand_vec(m * k, &mut rng);
                    let b = rand_vec(k * n, &mut rng);
                    let mut bt = vec![0.0f32; n * k];
                    for kk in 0..k {
                        for j in 0..n {
                            bt[j * k + kk] = b[kk * n + j];
                        }
                    }
                    let want = chains(m, k, n, &a, |kk, j| b[kk * n + j]);
                    for tile in runnable(&TILES) {
                        let c = run_f32(tile, m, k, n, &a, BSrc::RowMajor(&b));
                        assert_bits_eq(&c, pick(&want, tile), &format!("{} nn {m}x{k}x{n}", tile.name));
                        let c = run_f32(tile, m, k, n, &a, BSrc::Transposed(&bt));
                        assert_bits_eq(&c, pick(&want, tile), &format!("{} nt {m}x{k}x{n}", tile.name));
                    }
                }
            }
        }
    }

    /// Patch geometries for the packer tests: (images, total c, ch0,
    /// group c, h, w, kh, kw, stride, padding, dilation) — long rows
    /// (stride 1 and 2, padded, dilated), short rows (`ow` 4, below one
    /// register of patches), a channel-group offset, and a `K` of more
    /// than `2·k_deep`.
    type PatchCase = (usize, usize, usize, usize, usize, usize, usize, usize, (usize, usize), (usize, usize), (usize, usize));
    fn patch_cases(k_deep: usize) -> [PatchCase; 5] {
        [
            (2, 3, 0, 3, 9, 11, 3, 3, (1, 1), (1, 1), (1, 1)),
            (1, 2, 0, 2, 13, 17, 5, 3, (2, 2), (2, 1), (1, 1)),
            (3, 4, 0, 4, 4, 4, 3, 3, (1, 1), (1, 1), (1, 1)),
            (1, 6, 3, 3, 10, 12, 3, 3, (1, 1), (2, 2), (2, 2)),
            (2, 2 * k_deep / 9 + 8, 0, 2 * k_deep / 9 + 8, 8, 8, 3, 3, (1, 1), (1, 1), (1, 1)),
        ]
    }

    /// Run `gemm` on one case's patch source over `x`, built by the
    /// convs' shared pad helper with `fill` in the padding, given the
    /// explicit gather it must pack like and the patch count.
    fn with_case_patches<T: PoolElem>(
        case: PatchCase,
        x: &[T],
        fill: T,
        gemm: impl FnOnce(&PatchSrc<T>, usize, &dyn Fn(usize, usize) -> T),
    ) {
        let (imgs, c, ch0, _, h, w, kh, kw, stride, padding, dilation) = case;
        let oh = (h + 2 * padding.0 - dilation.0 * (kh - 1) - 1) / stride.0 + 1;
        let ow = (w + 2 * padding.1 - dilation.1 * (kw - 1) - 1) / stride.1 + 1;
        let b_at = move |kk: usize, j: usize| {
            let (ch, ky, kx) = (kk / (kh * kw), kk / kw % kh, kk % kw);
            let (img, oy, ox) = (j / (oh * ow), j / ow % oh, j % ow);
            let iy = (oy * stride.0 + ky * dilation.0) as isize - padding.0 as isize;
            let ix = (ox * stride.1 + kx * dilation.1) as isize - padding.1 as isize;
            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                return fill;
            }
            x[((img * c + ch0 + ch) * h + iy as usize) * w + ix as usize]
        };
        crate::ops::conv::with_patches(x, [imgs, c, h, w], (kh, kw), stride, padding, dilation, (oh, ow), fill, |p| {
            gemm(&PatchSrc { ch0, ..p }, imgs * oh * ow, &b_at)
        })
    }

    /// The implicit-im2col packer under every f32 tile, against the
    /// chain over an explicitly gathered patch matrix ([`patch_cases`],
    /// `K` across three `KC` panels).
    #[test]
    fn every_tile_packs_patches_like_the_explicit_gather() {
        let mut rng = StdRng::seed_from_u64(0x9A7C);
        for case in patch_cases(KC) {
            let (imgs, c, _, cg, h, w, kh, kw, stride, ..) = case;
            let x = rand_vec(imgs * c * h * w, &mut rng);
            let (m, k) = (13, cg * kh * kw);
            let a = rand_vec(m * k, &mut rng);
            with_case_patches(case, &x, 0.0, |patches, n, b_at| {
                let want = chains(m, k, n, &a, b_at);
                for tile in runnable(&TILES) {
                    let got = run_f32(tile, m, k, n, &a, BSrc::Patches(patches));
                    let what = format!("{} patches {h}x{w} k{kh}x{kw} s{stride:?}", tile.name);
                    assert_bits_eq(&got, pick(&want, tile), &what);
                }
            });
        }
    }

    /// The int8 element: low half = even k, high half = odd k, each
    /// sign-extended; a row's odd tail pairs with zero.
    #[test]
    fn pair_rows_widens_pairs_and_zero_pads_an_odd_tail() {
        assert_eq!(pack_pair(-1, 2), 0x0002_FFFF);
        assert_eq!(pack_pair(127, -128), 0xFF80_007Fu32 as i32);
        let rows = pair_rows(&[1, -1, 5, /* row 2 */ -128, 127, 0], 3, Vec::new());
        assert_eq!(rows, [pack_pair(1, -1), pack_pair(5, 0), pack_pair(-128, 127), pack_pair(0, 0)]);
        assert!(pair_rows(&[], 0, Vec::new()).is_empty());
    }

    /// A quad is four k steps in memory order, a row's tail padded with
    /// zeros; B quads hold `x ^ 0x80`, k step `t` in byte `t`.
    #[test]
    fn quads_keep_k_order_and_flip_only_b() {
        let rows = quad_rows(&[1, -1, 5, 7, 9, /* row 2 */ -128, 127, 0, 2, 3], 5);
        assert_eq!(rows, [[1, -1, 5, 7], [9, 0, 0, 0], [-128, 127, 0, 2], [3, 0, 0, 0]]);
        assert!(quad_rows(&[], 0).is_empty());
        let b: [[i8; 8]; 4] = std::array::from_fn(|t| std::array::from_fn(|j| (10 * t + j) as i8 ^ i8::MIN));
        let want: [Quad; 8] = std::array::from_fn(|j| std::array::from_fn(|t| (10 * t + j) as i8));
        assert_eq!(quads8(b), want);
    }

    /// The int8 contract, written out: plain i32 sums of i8 products.
    fn chain_i8(m: usize, k: usize, n: usize, a: &[i8], b_at: impl Fn(usize, usize) -> i8) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] = (0..k).map(|kk| a[i * k + kk] as i32 * b_at(kk, j) as i32).sum();
            }
        }
        c
    }

    /// An int8 element's A rows, for the tests: pairs widened, quads
    /// padded.
    trait TestRows: Int8 {
        fn rows(a: &[i8], k: usize) -> Vec<Self>;
    }
    impl TestRows for i32 {
        fn rows(a: &[i8], k: usize) -> Vec<i32> {
            pair_rows(a, k, Vec::new())
        }
    }
    impl TestRows for Quad {
        fn rows(a: &[i8], k: usize) -> Vec<Quad> {
            quad_rows(a, k)
        }
    }

    /// `OFFSET·Σₖ a[i]`: what packing B adds to row `i`'s sums.
    fn offsets<E: Int8>(a: &[i8], m: usize, k: usize) -> Vec<i32> {
        (0..m).map(|i| E::OFFSET * a[i * k..(i + 1) * k].iter().map(|&v| v as i32).sum::<i32>()).collect()
    }

    /// `gemm_tiled` in place into a poisoned i32 C, less the offset its
    /// element's B adds: the plain signed sums.
    #[allow(clippy::too_many_arguments)]
    fn run_i8<E: TestRows>(tile: &Tile<E>, kc: usize, nc: usize, m: usize, k: usize, n: usize, a: &[i8], b: BSrc<E>) -> Vec<i32> {
        let mut c = vec![i32::MIN; m * n];
        gemm_tiled(tile, kc, nc, m, k, n, &E::rows(a, k), b, Sums::InPlace(&mut c), &|_, _, _| {});
        for (i, off) in offsets::<E>(a, m, k).into_iter().enumerate() {
            c[i * n..(i + 1) * n].iter_mut().for_each(|v| *v = v.wrapping_sub(off));
        }
        c
    }

    /// Every int8 tile — pairs (portable, YMM and ZMM `vpmaddwd`) and
    /// quads (YMM and ZMM `vpdpbusd`), full and half width, interior and
    /// edge — must reproduce the scalar i32 sums exactly, and therefore
    /// each other: `K` of 0, 1, 2, 3, 5, 7 and 147 (every tail short of a
    /// pair and of a quad) and across three `KC` panels; `M` below, at
    /// and past `MR` (rows read in place and through the padded last
    /// panel); `N` around every tile's `NR` (so `2·nr_eff ≤ nr` picks the
    /// half kernel); `NC` of one panel; row-major, transposed and
    /// prepacked B; and the ±127/−128 corners that would saturate a
    /// `maddubs` kernel.
    #[test]
    fn every_i8_tile_matches_the_scalar_sums_exactly() {
        fn sweep<E: TestRows>(tiles: &'static [Tile<E>]) {
            let mut rng = StdRng::seed_from_u64(0x18);
            for &(kc, nc) in &[(KC, NC), (8, NR_MAX)] {
                for &m in &[1usize, 5, 13, 24] {
                    for &k in &[0usize, 1, 2, 3, 5, 7, 147, 4 * kc + 37] {
                        for &n in &[1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 70] {
                            let mut a = rand_i8(m * k, &mut rng);
                            let mut b = rand_i8(k * n, &mut rng);
                            if k >= 2 {
                                (a[0], a[1], b[0], b[n]) = (-128, -128, 127, 127);
                            }
                            let mut bt = vec![0i8; n * k];
                            for kk in 0..k {
                                for j in 0..n {
                                    bt[j * k + kk] = b[kk * n + j];
                                }
                            }
                            let want = chain_i8(m, k, n, &a, |kk, j| b[kk * n + j]);
                            for tile in runnable(tiles) {
                                let c = run_i8(tile, kc, nc, m, k, n, &a, BSrc::RowMajor(&b));
                                assert_eq!(c, want, "{} nn {m}x{k}x{n} kc={kc} nc={nc}", tile.name);
                                let c = run_i8(tile, kc, nc, m, k, n, &a, BSrc::Transposed(&bt));
                                assert_eq!(c, want, "{} nt {m}x{k}x{n} kc={kc} nc={nc}", tile.name);
                                // Whole-depth panels, packed the way `prepack_b` does for this tile.
                                let (nr, ke) = (tile.nr, k.div_ceil(E::PAIR));
                                let mut packed = vec![E::ZERO; n.div_ceil(nr) * ke * nr];
                                let mut stage = vec![0; E::PAIR * ke * nr];
                                pack_b(&BSrc::Transposed(&bt), nr, n, k, 0, k, 0, n, &mut packed, &mut stage);
                                let c = run_i8(tile, kc, nc, m, k, n, &a, BSrc::Packed(&packed));
                                assert_eq!(c, want, "{} packed {m}x{k}x{n} kc={kc} nc={nc}", tile.name);
                            }
                        }
                    }
                }
            }
        }
        sweep(&I8_TILES);
        sweep(&QUAD_TILES);
    }

    /// The extremes of both elements' products at ResNet-50's largest K
    /// (4608), under every int8 tile: all −128 and all 127 activations
    /// (B; a quad's unsigned byte is then 0 or 255) against all −128 and
    /// all 127 weights (A), row-major and as 3×3 patches. Every sum must
    /// be exact — no saturating step anywhere.
    #[test]
    fn every_i8_tile_sums_the_extremes_exactly_at_the_largest_k() {
        fn extremes<E: TestRows>(tiles: &'static [Tile<E>]) {
            let (m, k, n) = (13usize, 4608usize, 33usize);
            for (x, w) in [(-128i8, -128i8), (-128, 127), (127, -128), (127, 127)] {
                let (a, b) = (vec![w; m * k], vec![x; k * n]);
                let want = vec![x as i32 * w as i32 * k as i32; m * n];
                let xs = vec![x; 512 * 8 * 8];
                for tile in runnable(tiles) {
                    assert_eq!(run_i8(tile, KC, NC, m, k, n, &a, BSrc::RowMajor(&b)), want, "{} x={x} w={w}", tile.name);
                    // 3×3 over 512 channels of 6×6 (k = 4608), the patches
                    // gathered from the padded input.
                    let want = vec![x as i32 * w as i32 * k as i32; m * 36];
                    crate::ops::conv::with_patches(&xs, [1, 512, 6, 6], (3, 3), (1, 1), (0, 0), (1, 1), (6, 6), x, |p| {
                        let got = run_i8(tile, KC, NC, m, k, 36, &a, BSrc::Patches(&p));
                        assert_eq!(got, want, "{} patches x={x} w={w}", tile.name);
                    });
                }
            }
        }
        extremes(&I8_TILES);
        extremes(&QUAD_TILES);
    }

    /// The patch packer under every int8 tile: same geometries as f32,
    /// with the padding cells carrying a non-zero fill (the activation
    /// zero point) and `K`s that are not whole pairs or quads.
    #[test]
    fn every_i8_tile_packs_patches_like_the_explicit_gather() {
        fn gather<E: TestRows>(tiles: &'static [Tile<E>]) {
            let mut rng = StdRng::seed_from_u64(0x9A7D);
            for &kc in &[KC, 8] {
                for case in patch_cases(E::PAIR * kc) {
                    let (imgs, c, _, cg, h, w, kh, kw, stride, ..) = case;
                    let x = rand_i8(imgs * c * h * w, &mut rng);
                    let (m, k) = (13, cg * kh * kw);
                    let a = rand_i8(m * k, &mut rng);
                    with_case_patches(case, &x, -77, |patches, n, b_at| {
                        let want = chain_i8(m, k, n, &a, b_at);
                        for tile in runnable(tiles) {
                            let got = run_i8(tile, kc, NC, m, k, n, &a, BSrc::Patches(patches));
                            assert_eq!(got, want, "{} patches {h}x{w} k{kh}x{kw} s{stride:?} kc={kc}", tile.name);
                        }
                    });
                }
            }
        }
        gather(&I8_TILES);
        gather(&QUAD_TILES);
    }

    /// `requant_one` of `sums` (row-major `[m, n]`) with coefficients
    /// `(zp_corr, mult, badd)` per row or per column, into `[n/p, m, p]`.
    #[allow(clippy::too_many_arguments)]
    fn requant_all(sums: &[i32], m: usize, n: usize, p: usize, rq: &Requant) -> Vec<i8> {
        let mut want = vec![0i8; m * n];
        for (idx, &acc) in sums.iter().enumerate() {
            let (i, j) = (idx / n, idx % n);
            let c = if rq.per_col { j } else { i };
            want[(j / p * m + i) * p + j % p] =
                crate::quant::requant_one(acc.wrapping_sub(rq.zp_corr[c]), rq.mult[c], rq.badd[c], rq.relu, rq.out_zp);
        }
        want
    }

    /// The requantizing entry point under every int8 tile against
    /// `requant_one` over the scalar sums, coefficients per row (a conv)
    /// and, for pairs, per column (a linear's): images of 1, 3, 4, 20 and
    /// all columns, so spans end inside, at and across 8- and 16-lane
    /// chunks (the YMM tiles' epilogue and the ZMM tiles') and column
    /// blocks (`NC` of one panel: C is a reused block); thread count must
    /// not change a byte either. A quad tile's `zp_corr` carries its
    /// offset.
    #[test]
    fn gemm_i8_requantizes_into_image_spans_like_the_scalar_engine() {
        fn spans<E: TestRows>(tiles: &'static [Tile<E>]) {
            let (m, k) = (15usize, 21usize);
            let mut rng = StdRng::seed_from_u64(0xC0);
            let a = rand_i8(m * k, &mut rng);
            let prev = crate::threading::num_threads();
            for &(p, imgs) in &[(1usize, 67usize), (3, 23), (4, 17), (20, 3), (60, 1)] {
                let n = p * imgs;
                let b = rand_i8(k * n, &mut rng);
                let sums = chain_i8(m, k, n, &a, |kk, j| b[kk * n + j]);
                for (per_col, relu) in [(false, false), (false, true), (true, false), (true, true)] {
                    if per_col && E::OFFSET != 0 {
                        continue;
                    }
                    let channels = if per_col { n } else { m };
                    let zp_corr: Vec<i32> = (0..channels).map(|c| 31 * c as i32 - 200).collect();
                    let mult: Vec<f32> = (0..channels).map(|c| 0.004 + 0.0003 * c as f32).collect();
                    let badd: Vec<f32> = (0..channels).map(|c| c as f32 * 0.7 - 4.0).collect();
                    let rq = Requant { zp_corr: &zp_corr, mult: &mult, badd: &badd, per_col, relu, out_zp: 3 };
                    let want = requant_all(&sums, m, n, p, &rq);
                    let shifted: Vec<i32> = if per_col {
                        zp_corr.clone()
                    } else {
                        zp_corr.iter().zip(offsets::<E>(&a, m, k)).map(|(&z, o)| z.wrapping_add(o)).collect()
                    };
                    let rq = Requant { zp_corr: &shifted, ..rq };
                    for tile in runnable(tiles) {
                        for threads in [1, 7] {
                            crate::threading::set_num_threads(threads);
                            let mut got = vec![i8::MIN; m * n];
                            gemm_i8_tiled(tile, 8, NR_MAX, m, k, n, &E::rows(&a, k), BSrc::RowMajor(&b), &rq, p, &mut got);
                            assert_eq!(got, want, "{} p={p} per_col={per_col} relu={relu} threads={threads}", tile.name);
                        }
                    }
                }
            }
            crate::threading::set_num_threads(prev);
        }
        spans(&I8_TILES);
        spans(&QUAD_TILES);
    }

    /// A linear at 1 and 16 rows under every int8 tile, the way its
    /// element runs one: quads as a conv over one-patch images (the
    /// weight is A, the input rows transposed B, `p = 1`, coefficients per
    /// row), pairs with the input rows as A and the weight prepacked as B
    /// (coefficients per column) — against `requant_one` over the scalar
    /// sums, `K` a whole number of quads and not.
    #[test]
    fn every_i8_tile_runs_a_linear_at_1_and_16_rows() {
        fn linear<E: TestRows>(tiles: &'static [Tile<E>]) {
            let mut rng = StdRng::seed_from_u64(0x11E);
            for &(rows, k, o) in &[(1usize, 300usize, 37usize), (16, 300, 37), (1, 147, 40), (16, 147, 40)] {
                let (x, w) = (rand_i8(rows * k, &mut rng), rand_i8(o * k, &mut rng));
                let sums = chain_i8(rows, k, o, &x, |kk, j| w[j * k + kk]);
                let zp_corr: Vec<i32> = (0..o).map(|c| 13 * c as i32 - 90).collect();
                let mult: Vec<f32> = (0..o).map(|c| 0.003 + 0.0002 * c as f32).collect();
                let badd: Vec<f32> = (0..o).map(|c| c as f32 * 0.5 - 6.0).collect();
                let rq = Requant { zp_corr: &zp_corr, mult: &mult, badd: &badd, per_col: true, relu: false, out_zp: -1 };
                let want = requant_all(&sums, rows, o, o, &rq);
                for tile in runnable(tiles) {
                    let mut got = vec![i8::MIN; rows * o];
                    if E::OFFSET == 0 {
                        let (nr, ke) = (tile.nr, k.div_ceil(E::PAIR));
                        let mut panels = vec![E::ZERO; o.div_ceil(nr) * ke * nr];
                        pack_b(&BSrc::Transposed(&w), nr, o, k, 0, k, 0, o, &mut panels, &mut vec![0; E::PAIR * ke * nr]);
                        gemm_i8_tiled(tile, KC, NC, rows, k, o, &E::rows(&x, k), BSrc::Packed(&panels), &rq, o, &mut got);
                    } else {
                        let shifted: Vec<i32> = zp_corr.iter().zip(offsets::<E>(&w, o, k)).map(|(&z, off)| z + off).collect();
                        let rq = Requant { zp_corr: &shifted, per_col: false, ..rq };
                        gemm_i8_tiled(tile, KC, NC, o, k, rows, &E::rows(&w, k), BSrc::Transposed(&x), &rq, 1, &mut got);
                    }
                    assert_eq!(got, want, "{} linear {rows}x{k} -> {o}", tile.name);
                }
            }
        }
        linear(&I8_TILES);
        linear(&QUAD_TILES);
    }

    /// A quad GEMM's offset is per row, so coefficients per column are
    /// refused before anything runs.
    #[test]
    #[should_panic(expected = "coefficients must be")]
    fn a_quad_gemm_refuses_coefficients_per_column() {
        let (zp_corr, mult, badd) = (vec![0; 4], vec![1.0; 4], vec![0.0; 4]);
        let rq = Requant { zp_corr: &zp_corr, mult: &mult, badd: &badd, per_col: true, relu: false, out_zp: 0 };
        let mut out = vec![0i8; 8];
        gemm_i8_tiled(&QUAD_TILES[0], KC, NC, 2, 4, 4, &[[0; 4]; 2], BSrc::RowMajor(&[0; 16]), &rq, 4, &mut out);
    }

    /// The quantize lane at every width this CPU can run; prints which it
    /// skips.
    fn runnable_lanes() -> Vec<&'static QuantLane> {
        let mut lanes = Vec::new();
        for lane in &QUANT_LANES {
            if lane.level <= detected_level() {
                lanes.push(lane);
            } else {
                eprintln!("skipping quantize lane {}: this CPU lacks its instructions", lane.name);
            }
        }
        lanes
    }

    /// Zero points around every edge the lane's clamp has: the i8 limits
    /// and one past them, both signs, and the ends of [`LANE_ZP`].
    const ZPS: [i32; 11] = [-(1 << 24) + 128, -1000, -129, -128, -1, 0, 1, 127, 128, 1000, (1 << 24) - 128];

    /// `quantized_add` at every width against the scalar element over
    /// all 2¹⁶ input pairs, for a sweep of operand and output parameters:
    /// i8-limit and far-out zero points, an output scale far below the
    /// inputs' (nearly everything saturates), integer sums halved (every
    /// odd one an exact tie), and scales that are not powers of two. The
    /// pairs are walked from an odd offset so the last chunk is ragged.
    #[test]
    fn every_quant_lane_adds_all_pairs_like_the_scalar_oracle() {
        let a: Vec<i8> = (0..1 << 16).map(|i| (i & 0xFF) as u8 as i8).collect();
        let b: Vec<i8> = (0..1 << 16).map(|i| (i >> 8) as u8 as i8).collect();
        let sets: [(Affine, Affine, Affine); 9] = [
            ((0.02, 3), (0.05, -7), (0.07, 2)),
            ((0.1, -128), (0.1, 127), (1e-4, 0)),
            ((1.0, 0), (1.0, 0), (2.0, -128)),
            ((1.0, 5), (1.0, -5), (2.0, 127)),
            ((0.5, 0), (0.25, 1), (1.0, 1000)),
            ((0.013, 17), (0.0071, -40), (0.0193, -1000)),
            ((3.0, 128), (0.001, -129), (0.75, -1)),
            ((1e-3, 0), (1e-3, 0), (1e-3, (1 << 24) - 128)),
            ((2.5, -3), (1.5, 9), (4.0, -(1 << 24) + 128)),
        ];
        for lane in runnable_lanes() {
            for &(qa, qb, qo) in &sets {
                let want: Vec<i8> = a.iter().zip(&b).map(|(&x, &y)| crate::quant::add_one(x, y, qa, qb, qo)).collect();
                let mut got = vec![0x55i8; a.len()];
                lane.add(&a, &b, qa, qb, qo, &mut got);
                assert_eq!(got, want, "{} {qa:?} + {qb:?} -> {qo:?}", lane.name);
                let mut got = vec![0x55i8; a.len() - 8];
                lane.add(&a[3..a.len() - 5], &b[3..b.len() - 5], qa, qb, qo, &mut got);
                assert_eq!(got, want[3..want.len() - 5], "{} offset {qa:?} + {qb:?} -> {qo:?}", lane.name);
            }
        }
    }

    /// The quantize step at every width against `quantize_one` on the
    /// values that break a careless lane — ±inf, NaN, ±0, ±1e30, the i32
    /// limits, exact ties and their neighbours, values with no fraction
    /// left (≥ 2²³), subnormals — plus a random spread, under every
    /// zero point in [`ZPS`] and several scales, over every length up to
    /// three vectors (every tail).
    #[test]
    fn every_quant_lane_quantizes_like_the_scalar_oracle() {
        let mut x = vec![
            f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN, 0.0, -0.0, 1e30, -1e30, f32::MAX, f32::MIN,
            2147483648.0, -2147483648.0, 2147483520.0, -2147483520.0, 4294967296.0, 8388607.5, -8388607.5,
            4194304.5, 8388608.0, 16777215.0, 1e-45, -1e-45, 1.2e-38, 0.49999997, -0.49999997,
        ];
        for k in -130..130 {
            let tie = k as f32 + 0.5;
            x.extend([tie, tie.next_up(), tie.next_down(), k as f32]);
        }
        let mut rng = StdRng::seed_from_u64(0x9A17);
        x.extend((0..1000).map(|_| rng.gen_range(-400.0f64..400.0) as f32));
        for lane in runnable_lanes() {
            for &zp in &ZPS {
                for scale in [1.0f32, 0.5, 2.0, 0.037, 1e-3, 3.0] {
                    let want: Vec<i8> = x.iter().map(|&v| crate::quant::quantize_one(v, scale, zp)).collect();
                    let mut got = vec![0x55i8; x.len()];
                    lane.quantize(&x, scale, zp, &mut got);
                    assert_eq!(got, want, "{} scale={scale} zp={zp}", lane.name);
                    for len in 0..=3 * LANES_MAX {
                        let mut got = vec![0x55i8; len];
                        lane.quantize(&x[7..7 + len], scale, zp, &mut got);
                        assert_eq!(got, want[7..7 + len], "{} len={len} scale={scale} zp={zp}", lane.name);
                    }
                }
            }
        }
        // A zero point whose bounds f32 cannot hold exactly takes the
        // scalar oracle; every i8 zero point takes the lane.
        assert!(quant_lane(*LANE_ZP.end() + 1).is_none() && quant_lane(*LANE_ZP.start() - 1).is_none());
        assert_eq!(quant_lane(-128).is_some(), simd_enabled());
    }

    /// The requantizing epilogue at every width, and the portable tiles'
    /// loop, against `requant_one`, called directly: rows starting
    /// inside, at and past an image boundary, as long as and longer than
    /// a vector, images shorter than, equal to and longer than one (so
    /// 16-lane chunks straddle images and end in ragged tails),
    /// coefficients per row and per column, with and without ReLU. Bytes
    /// outside the row's spans stay untouched.
    #[test]
    fn every_quant_lane_requantizes_rows_across_images() {
        let mut rng = StdRng::seed_from_u64(0x4E9);
        let m = 3;
        let mut epilogues: Vec<(&str, RequantRow)> = vec![("portable", requant_row_portable)];
        epilogues.extend(runnable_lanes().iter().map(|lane| (lane.name, lane.requant)));
        for (name, requant) in epilogues {
            for &p in &[1usize, 3, 7, 8, 15, 16, 17, 33] {
                for &(j0, len) in &[(0usize, 1usize), (0, 16), (5, 17), (p - 1, 40), (2 * p, 100), (p + 3, 33)] {
                    let n = (j0 + len).div_ceil(p) * p;
                    let acc: Vec<i32> = (0..len).map(|_| rng.gen_range(-40000i64..40000) as i32).collect();
                    for (per_col, relu) in [(false, false), (false, true), (true, false), (true, true)] {
                        let channels = if per_col { n } else { m };
                        let zp_corr: Vec<i32> = (0..channels).map(|c| 37 * c as i32 - 900).collect();
                        let mult: Vec<f32> = (0..channels).map(|c| 0.002 + 0.0001 * c as f32).collect();
                        let badd: Vec<f32> = (0..channels).map(|c| c as f32 * 0.3 - 2.5).collect();
                        let rq = Requant { zp_corr: &zp_corr, mult: &mult, badd: &badd, per_col, relu, out_zp: -4 };
                        let i = 1;
                        let mut want = vec![0x55i8; m * n];
                        for (c, &s) in acc.iter().enumerate() {
                            let j = j0 + c;
                            let ch = if per_col { j } else { i };
                            want[(j / p * m + i) * p + j % p] =
                                crate::quant::requant_one(s.wrapping_sub(zp_corr[ch]), mult[ch], badd[ch], relu, -4);
                        }
                        let mut got = vec![0x55i8; m * n];
                        // SAFETY: the lane's level was detected; every
                        // index row `i` of columns `j0..j0+len` maps to
                        // is inside `got`.
                        unsafe { requant(&acc, &rq, i, m, j0, p, got.as_mut_ptr()) };
                        assert_eq!(got, want, "{name} p={p} j0={j0} len={len} per_col={per_col} relu={relu}");
                    }
                }
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
}
