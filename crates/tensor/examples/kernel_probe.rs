//! Quick GEMM/conv throughput probe for kernel work: prints GFLOP/s per
//! shape under whichever engine `FX_SIMD` selects. Not a benchmark of
//! record — `fx-bench`'s `interp_vs_executor` writes the archived
//! numbers — just a fast feedback loop while tuning microkernels.

use fx_tensor::rng::{SeedableRng, StdRng};
use fx_tensor::{ops, Tensor};
use std::time::Instant;

fn time_gflops(name: &str, flops: u64, mut f: impl FnMut()) {
    for _ in 0..2 {
        f(); // warm-up
    }
    let trials = 8;
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    println!("{name:32} {:9.3} ms  {:7.2} GFLOP/s", best * 1e3, flops as f64 / best / 1e9);
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
}
