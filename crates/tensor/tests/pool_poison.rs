//! Regression suite for the buffer-pool stale-contents hazard.
//!
//! `pool::alloc::<f32>` hands back recycled buffers *without zeroing them*
//! — that is the whole point of the pool — so every kernel that draws
//! from it must overwrite the region it uses (or zero it explicitly)
//! before any element can reach an output. This test makes the hazard
//! observable: it pre-poisons the pool's buckets with NaN-filled
//! buffers across the size range the kernels request, then runs every
//! pooled kernel path (GEMM nn/nt, batched matmul, linear with fused
//! epilogue, 1×1 conv, implicit-GEMM conv through its pooled padded
//! input copy, grouped and padded variants) and asserts no NaN leaks
//! into any output. The quantized kernels get the same treatment with
//! garbage integers: the
//! int8 pack path stages its gather in a pooled i8 buffer, packs k-pair
//! panels into a pooled i32 block, sums into a pooled i32 block and
//! pads the conv input into a pooled i8 copy — every one of them must be
//! fully written before it is read, so a poisoned run must equal a run
//! on fresh buffers byte for byte.
//!
//! Runs as its own integration binary so the poisoned pool cannot
//! interfere with unrelated tests; `scripts/verify.sh` runs it under
//! every `FX_SIMD` level (the packed-panel buffers are pool-drawn and
//! must be fully written, whatever the tile).

use fx_tensor::quant::{quantize_per_channel, quantize_per_tensor, quantized_conv2d, quantized_linear};
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
            pool::recycle::<f32>(vec![f32::NAN; len]);
            pool::recycle::<i8>(vec![0x5Ai8; len]);
            pool::recycle::<i32>(vec![0x5A5A_5A5Ai32; len]);
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
        &ops::conv2d_act(&img, &pw, Some(&pb), (1, 1), (0, 0), (1, 1), 1, true).unwrap(),
        &format!("{tag} 1x1 conv"),
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

/// The quantized kernels over the int8 driver's edge geometries; the
/// returned bytes are compared between fresh and poisoned buffers.
fn run_quantized_kernels() -> Vec<Vec<i8>> {
    let mut rng = StdRng::seed_from_u64(8);
    let mut outs = Vec::new();
    // (batch, c, h, w, o, kernel, stride, padding): an odd K under one
    // pair-row with fewer rows than a tile and fewer columns than a
    // panel; K across two KC panels with more than one NC block of
    // columns; a ragged last row panel with a half-width last column
    // panel; rows too short to copy as runs; a strided 1×1.
    let convs = [
        (1usize, 1usize, 3usize, 3usize, 2usize, 1usize, 1usize, 0usize),
        (1, 64, 24, 24, 7, 3, 1, 1),
        (3, 5, 7, 6, 29, 3, 1, 1),
        (2, 9, 4, 4, 13, 3, 1, 1),
        (2, 6, 9, 9, 5, 1, 2, 0),
    ];
    for &(n, c, h, w, o, k, s, p) in &convs {
        let x = quantize_per_tensor(&Tensor::rand_uniform(&[n, c, h, w], -1.0, 1.0, &mut rng), 2.0 / 255.0, -9).unwrap();
        let wt = quantize_per_channel(&Tensor::rand_uniform(&[o, c, k, k], -0.5, 0.5, &mut rng), 0).unwrap();
        let b = Tensor::rand_uniform(&[o], -0.1, 0.1, &mut rng);
        poison_pool();
        let y = quantized_conv2d(&x, &wt, Some(&b), (s, s), (p, p), 0.05, 4, true).unwrap();
        outs.push(y.as_qi8().unwrap().to_vec());
    }
    for &(m, k, o) in &[(1usize, 1usize, 1usize), (9, 31, 23), (40, 600, 17)] {
        let x = quantize_per_tensor(&Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng), 2.0 / 255.0, 11).unwrap();
        let wt = quantize_per_channel(&Tensor::rand_uniform(&[o, k], -0.5, 0.5, &mut rng), 0).unwrap();
        poison_pool();
        outs.push(quantized_linear(&x, &wt, None, 0.04, -2, false).unwrap().as_qi8().unwrap().to_vec());
    }
    outs
}

#[test]
fn recycled_pool_buffers_never_leak_into_kernel_outputs() {
    // Pool inactive: `poison_pool` recycles into nothing and every
    // buffer is fresh.
    let fresh = run_quantized_kernels();
    let _guard = pool::activate();
    run_kernels(fx_tensor::simd_level());
    let poisoned = run_quantized_kernels();
    for (i, (f, p)) in fresh.iter().zip(&poisoned).enumerate() {
        assert_eq!(f, p, "quantized kernel #{i}: recycled pool garbage changed the output");
    }
    pool::clear();
}
