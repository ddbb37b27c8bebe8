//! Regression suite for the buffer-pool stale-contents hazard.
//!
//! `pool::alloc_f32` hands back recycled buffers *without zeroing them*
//! — that is the whole point of the pool — so every kernel that draws
//! from it must overwrite the region it uses (or zero it explicitly)
//! before any element can reach an output. This test makes the hazard
//! observable: it pre-poisons the pool's buckets with NaN-filled
//! buffers across the size range the kernels request, then runs every
//! pooled kernel path (GEMM nn/nt, batched matmul, linear with fused
//! epilogue, pointwise conv, im2col conv, implicit-GEMM conv, grouped
//! and padded variants) and asserts no NaN leaks into any output.
//!
//! Runs as its own integration binary so the poisoned pool cannot
//! interfere with unrelated tests; `scripts/verify.sh` runs it under
//! every `FX_SIMD` level (the packed-panel buffers on the SIMD paths are
//! also pool-drawn and also must be fully written, whatever the tile).

use fx_tensor::rng::{SeedableRng, StdRng};
use fx_tensor::{ops, pool, Tensor};

/// Stuff NaN-filled buffers into every bucket a kernel might hit.
fn poison_pool() {
    // Power-of-two bucket sizes from 2^4 .. 2^22, several buffers each
    // so nested allocations (output + scratch + packed panels) all get
    // a poisoned buffer rather than a fresh one.
    for exp in 4..=22 {
        let len = 1usize << exp;
        for _ in 0..4 {
            pool::recycle_f32(vec![f32::NAN; len]);
        }
    }
}

fn assert_no_nan(t: &Tensor, what: &str) {
    let data = t.as_f32().unwrap();
    let nans = data.iter().filter(|v| v.is_nan()).count();
    assert_eq!(nans, 0, "{what}: {nans}/{} NaNs leaked from recycled pool buffers", data.len());
}

fn run_kernels(tag: &str) {
    let mut rng = StdRng::seed_from_u64(7);

    // Odd sizes on purpose: partial register tiles and k-panel tails
    // are exactly where a packing routine could skip zero-filling.
    let a = Tensor::rand_uniform(&[13, 37], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[37, 29], -1.0, 1.0, &mut rng);
    poison_pool();
    assert_no_nan(&ops::matmul(&a, &b).unwrap(), &format!("{tag} matmul nn"));

    // The widest register tile: more than 32 columns (two full panels
    // and a half-width tail), two k panels, and a ragged last row panel
    // read through its padded copy.
    let a = Tensor::rand_uniform(&[25, 300], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[300, 70], -1.0, 1.0, &mut rng);
    poison_pool();
    assert_no_nan(&ops::matmul(&a, &b).unwrap(), &format!("{tag} matmul nn, wide tile"));

    let ab = Tensor::rand_uniform(&[3, 5, 17], -1.0, 1.0, &mut rng);
    let bb = Tensor::rand_uniform(&[3, 17, 7], -1.0, 1.0, &mut rng);
    poison_pool();
    assert_no_nan(&ops::matmul(&ab, &bb).unwrap(), &format!("{tag} batched matmul"));

    let x = Tensor::rand_uniform(&[9, 31], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[23, 31], -1.0, 1.0, &mut rng);
    let bias = Tensor::rand_uniform(&[23], -1.0, 1.0, &mut rng);
    poison_pool();
    assert_no_nan(
        &ops::linear_act(&x, &w, Some(&bias), true).unwrap(),
        &format!("{tag} linear+relu"),
    );

    let img = Tensor::rand_uniform(&[2, 5, 11, 9], -1.0, 1.0, &mut rng);
    let pw = Tensor::rand_uniform(&[7, 5, 1, 1], -0.5, 0.5, &mut rng);
    let pb = Tensor::rand_uniform(&[7], -0.1, 0.1, &mut rng);
    poison_pool();
    assert_no_nan(
        &ops::conv2d_pointwise_act(&img, &pw, Some(&pb), true).unwrap(),
        &format!("{tag} pointwise conv"),
    );

    let cw = Tensor::rand_uniform(&[6, 5, 3, 3], -0.5, 0.5, &mut rng);
    let cb = Tensor::rand_uniform(&[6], -0.1, 0.1, &mut rng);
    poison_pool();
    assert_no_nan(
        &ops::conv2d(&img, &cw, Some(&cb), (2, 1), (1, 2), (1, 1), 1).unwrap(),
        &format!("{tag} strided padded conv"),
    );

    // Grouped conv: per-group weight panels and patch gathers must not
    // read past their group's packed region.
    let gx = Tensor::rand_uniform(&[1, 6, 8, 8], -1.0, 1.0, &mut rng);
    let gw = Tensor::rand_uniform(&[4, 3, 3, 3], -0.5, 0.5, &mut rng);
    poison_pool();
    assert_no_nan(
        &ops::conv2d(&gx, &gw, None, (1, 1), (1, 1), (1, 1), 2).unwrap(),
        &format!("{tag} grouped conv"),
    );
}

#[test]
fn recycled_pool_buffers_never_leak_into_kernel_outputs() {
    let _guard = pool::activate();
    run_kernels(fx_tensor::simd_level());
    pool::clear();
}
