//! The kernel throughput tool: prints GFLOP/s per GEMM/conv shape and
//! ns per element for the int8 elementwise kernels (the quantize lane)
//! under whichever engine `FX_SIMD` selects — the fast feedback loop
//! while tuning kernels. End-to-end claims are measured by the
//! benchmark of record in `benchmark/`, which reports the same kernels'
//! GFLOP/s inside whole models (`fx_tensor.ops.conv.gflops`):
//!
//! ```sh
//! cargo run --release -p fx-tensor --example kernel_probe
//! FX_SIMD=avx2 cargo run --release -p fx-tensor --example kernel_probe
//! ```

use fx_tensor::quant::{quantize_per_channel, quantize_per_tensor, quantized_add, quantized_conv2d, quantized_relu};
use fx_tensor::rng::{SeedableRng, StdRng};
use fx_tensor::{ops, Tensor};
use std::time::Instant;

/// Best-of-8 wall time of `f`, after two warm-up calls.
fn best_of(mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f(); // warm-up
    }
    let mut best = f64::INFINITY;
    for _ in 0..8 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn time_gflops(name: &str, flops: u64, f: impl FnMut()) {
    let best = best_of(f);
    println!("{name:32} {:9.3} ms  {:7.2} GFLOP/s", best * 1e3, flops as f64 / best / 1e9);
}

fn time_per_elem(name: &str, elems: usize, f: impl FnMut()) {
    let best = best_of(f);
    println!("{name:32} {:9.3} ms  {:7.3} ns/elem", best * 1e3, best / elems as f64 * 1e9);
}

fn main() {
    println!("simd_level = {}", fx_tensor::simd_level());
    let mut rng = StdRng::seed_from_u64(90);

    for &(m, k, n) in &[(256usize, 256usize, 256usize), (512, 512, 512)] {
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        time_gflops(&format!("gemm_nn {m}x{k}x{n}"), (2 * m * k * n) as u64, || {
            ops::matmul(&a, &b).unwrap();
        });
    }

    let x3 = Tensor::rand_uniform(&[1, 64, 56, 56], -1.0, 1.0, &mut rng);
    let w3 = Tensor::rand_uniform(&[64, 64, 3, 3], -0.5, 0.5, &mut rng);
    time_gflops("conv3x3 64->64 @56x56", 2 * 64 * 56 * 56 * 64 * 9, || {
        ops::conv2d(&x3, &w3, None, (1, 1), (1, 1), (1, 1), 1).unwrap();
    });

    // Deep-layer shapes of ResNet-50 on a 32x32 input: tiny spatial
    // extents, where the GEMM N dimension collapses to a handful of
    // columns.
    let x4 = Tensor::rand_uniform(&[1, 512, 2, 2], -1.0, 1.0, &mut rng);
    let w4 = Tensor::rand_uniform(&[512, 512, 3, 3], -0.5, 0.5, &mut rng);
    time_gflops("conv3x3 512->512 @2x2", 2 * 512 * 2 * 2 * 512 * 9, || {
        ops::conv2d(&x4, &w4, None, (1, 1), (1, 1), (1, 1), 1).unwrap();
    });
    let x1 = Tensor::rand_uniform(&[1, 512, 2, 2], -1.0, 1.0, &mut rng);
    let w1 = Tensor::rand_uniform(&[2048, 512, 1, 1], -0.5, 0.5, &mut rng);
    time_gflops("conv1x1 512->2048 @2x2", 2 * 2048 * 2 * 2 * 512, || {
        ops::conv2d_pointwise(&x1, &w1, None).unwrap();
    });

    // The int8 elementwise kernels at ResNet-50 sizes ([4,3,64,64]
    // input): a layer1 residual add and its ReLU, the input's quant
    // boundary, PTQ's weight quantization of a layer4 3x3 kernel, and the
    // conv epilogue — a 1x1 conv over two channels, so the GEMM is one
    // k-pair and requantizing its 64 output rows is the work.
    let (s, zp) = (0.05, 3);
    let qa = quantize_per_tensor(&Tensor::rand_uniform(&[4, 256, 16, 16], -4.0, 4.0, &mut rng), s, zp).unwrap();
    let qb = quantize_per_tensor(&Tensor::rand_uniform(&[4, 256, 16, 16], -4.0, 4.0, &mut rng), 0.04, -5).unwrap();
    time_per_elem("quantized_add [4,256,16,16]", qa.numel(), || {
        quantized_add(&qa, &qb, 0.07, -2).unwrap();
    });
    time_per_elem("quantized_relu [4,256,16,16]", qa.numel(), || {
        quantized_relu(&qa).unwrap();
    });
    let xf = Tensor::rand_uniform(&[4, 3, 64, 64], -2.0, 2.0, &mut rng);
    time_per_elem("quantize_per_tensor [4,3,64,64]", xf.numel(), || {
        quantize_per_tensor(&xf, s, zp).unwrap();
    });
    let wf = Tensor::rand_uniform(&[512, 512, 3, 3], -0.5, 0.5, &mut rng);
    time_per_elem("quantize_per_channel [512,512,3,3]", wf.numel(), || {
        quantize_per_channel(&wf, 0).unwrap();
    });
    let xq = quantize_per_tensor(&Tensor::rand_uniform(&[4, 2, 32, 32], -2.0, 2.0, &mut rng), s, zp).unwrap();
    let wq = quantize_per_channel(&Tensor::rand_uniform(&[64, 2, 1, 1], -0.5, 0.5, &mut rng), 0).unwrap();
    time_per_elem("requant (conv1x1 2->64 @32x32)", 4 * 64 * 32 * 32, || {
        quantized_conv2d(&xq, &wq, None, (1, 1), (0, 0), 0.05, -1, true).unwrap();
    });
}
