//! The kernel throughput tool: prints GFLOP/s per GEMM/conv shape — for
//! the f32 matmul, linear and conv (ResNet-50's shapes, and one over a
//! single image) and the int8 conv and linear with an FNV-1a hash of
//! each output, so one build per tree shows whether two trees agree bit
//! for bit — and
//! ns per element for the int8 elementwise kernels (the quantize lane)
//! under whichever engine `FX_SIMD` selects — the fast feedback loop
//! while tuning kernels. End-to-end claims are measured by the
//! benchmark of record in `benchmark/`, which reports the same kernels'
//! GFLOP/s inside whole models (`fx_tensor.ops.conv.gflops`):
//!
//! ```sh
//! cargo run --release -p fx-tensor --example kernel_probe
//! FX_SIMD=avx2 cargo run --release -p fx-tensor --example kernel_probe
//! FX_SIMD=0 taskset -c 1 cargo run --release -p fx-tensor --example kernel_probe
//! ```

use fx_tensor::quant::{
    quantize_per_channel, quantize_per_tensor, quantized_add, quantized_conv2d, quantized_linear, quantized_relu,
};
use fx_tensor::rng::{SeedableRng, StdRng};
use fx_tensor::{ops, pool, Tensor};
use std::time::Instant;

/// Best-of-8 wall time of `f`, after two warm-up calls. Each output
/// goes back to the buffer pool, as in a planned executor run, so a row
/// times the kernel rather than the allocator returning and re-faulting
/// its pages between calls.
fn best_of(mut f: impl FnMut() -> Tensor) -> f64 {
    let _pool = pool::activate();
    for _ in 0..2 {
        pool::recycle_tensor(f()); // warm-up
    }
    let mut best = f64::INFINITY;
    for _ in 0..8 {
        let t0 = Instant::now();
        pool::recycle_tensor(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn time_gflops(name: &str, flops: u64, f: impl FnMut() -> Tensor) {
    let best = best_of(f);
    println!("{name:32} {:9.3} ms  {:7.2} GFLOP/s", best * 1e3, flops as f64 / best / 1e9);
}

/// FNV-1a over the bytes of an int8 tensor, or the little-endian bit
/// patterns of an f32 one.
fn fnv(t: &Tensor) -> u64 {
    let bytes: Vec<u8> = match t.as_qi8() {
        Ok(q) => q.iter().map(|&b| b as u8).collect(),
        Err(_) => t.as_f32().unwrap().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect(),
    };
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// [`time_gflops`] for a kernel, plus the hash of its output.
fn time_hashed(name: &str, ops: usize, mut f: impl FnMut() -> Tensor) {
    let hash = fnv(&f());
    let best = best_of(f);
    println!("{name:32} {:9.3} ms  {:7.2} GOP/s   fnv {hash:016x}", best * 1e3, ops as f64 / best / 1e9);
}

fn time_per_elem(name: &str, elems: usize, f: impl FnMut() -> Tensor) {
    let best = best_of(f);
    println!("{name:32} {:9.3} ms  {:7.3} ns/elem", best * 1e3, best / elems as f64 * 1e9);
}

fn main() {
    println!("simd_level = {}", fx_tensor::simd_level());
    let mut rng = StdRng::seed_from_u64(90);

    for &(m, k, n) in &[(256usize, 256usize, 256usize), (512, 512, 512)] {
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        time_hashed(&format!("gemm_nn {m}x{k}x{n}"), 2 * m * k * n, || ops::matmul(&a, &b).unwrap());
    }
    // A wide product and a batched one, and f32 linears — the classifier
    // at batch 1 and 4, and two bias+ReLU layers — drawn from their own
    // seed so the rows after them keep their inputs.
    let mut mrng = StdRng::seed_from_u64(39);
    for (a_shape, b_shape) in [(vec![64usize, 64], vec![64usize, 1000]), (vec![8, 128, 64], vec![8, 64, 128])] {
        let a = Tensor::rand_uniform(&a_shape, -1.0, 1.0, &mut mrng);
        let b = Tensor::rand_uniform(&b_shape, -1.0, 1.0, &mut mrng);
        let flops = 2 * a.numel() * b_shape[b_shape.len() - 1];
        time_hashed(&format!("matmul {a_shape:?}@{b_shape:?}"), flops, || ops::matmul(&a, &b).unwrap());
    }
    for &(m, k, n, relu) in &[(1usize, 2048usize, 1000usize, false), (4, 2048, 10, false), (16, 512, 4096, true), (256, 256, 1024, true)] {
        let x = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut mrng);
        let w = Tensor::rand_uniform(&[n, k], -0.5, 0.5, &mut mrng);
        let b = Tensor::rand_uniform(&[n], -0.2, 0.2, &mut mrng);
        let name = format!("f32 linear {m}x{k} -> {n}{}", if relu { " relu" } else { "" });
        time_hashed(&name, 2 * m * k * n, || ops::linear_act(&x, &w, Some(&b), relu).unwrap());
    }

    let x3 = Tensor::rand_uniform(&[1, 64, 56, 56], -1.0, 1.0, &mut rng);
    let w3 = Tensor::rand_uniform(&[64, 64, 3, 3], -0.5, 0.5, &mut rng);
    time_gflops("conv3x3 64->64 @56x56", 2 * 64 * 56 * 56 * 64 * 9, || {
        ops::conv2d(&x3, &w3, None, (1, 1), (1, 1), (1, 1), 1).unwrap()
    });

    // Deep-layer shapes of ResNet-50 on a 32x32 input: tiny spatial
    // extents, where the GEMM N dimension collapses to a handful of
    // columns.
    let x4 = Tensor::rand_uniform(&[1, 512, 2, 2], -1.0, 1.0, &mut rng);
    let w4 = Tensor::rand_uniform(&[512, 512, 3, 3], -0.5, 0.5, &mut rng);
    time_gflops("conv3x3 512->512 @2x2", 2 * 512 * 2 * 2 * 512 * 9, || {
        ops::conv2d(&x4, &w4, None, (1, 1), (1, 1), (1, 1), 1).unwrap()
    });

    // The f32 conv (bias + fused ReLU) at ResNet-50 shapes on a
    // [4,3,64,64] input: the stem, layer1's 3x3 and both 1x1 directions
    // at 16x16, and a 3x3 and a 1x1 of layer3 (4x4) and layer4 (2x2).
    for &(c, h, o, k, stride, pad) in &[
        (3usize, 64usize, 64usize, 7usize, 2usize, 3usize),
        (64, 16, 64, 3, 1, 1),
        (64, 16, 256, 1, 1, 0),
        (256, 16, 64, 1, 1, 0),
        (256, 4, 256, 3, 1, 1),
        (256, 4, 1024, 1, 1, 0),
        (512, 2, 512, 3, 1, 1),
        (2048, 2, 512, 1, 1, 0),
    ] {
        let x = Tensor::rand_uniform(&[4, c, h, h], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[o, c, k, k], -0.5, 0.5, &mut rng);
        let b = Tensor::rand_uniform(&[o], -0.2, 0.2, &mut rng);
        let oh = (h + 2 * pad - k) / stride + 1;
        let name = format!("f32 conv{k}x{k} s{stride} {c}->{o} @4x{h}x{h}");
        time_hashed(&name, 2 * 4 * o * oh * oh * c * k * k, || {
            ops::conv2d_act(&x, &w, Some(&b), (stride, stride), (pad, pad), (1, 1), 1, true).unwrap()
        });
    }
    // The same layer1 3x3 over one image, whose output is one row-major
    // window per channel.
    let x = Tensor::rand_uniform(&[1, 64, 16, 16], -1.0, 1.0, &mut mrng);
    let w = Tensor::rand_uniform(&[64, 64, 3, 3], -0.5, 0.5, &mut mrng);
    let b = Tensor::rand_uniform(&[64], -0.2, 0.2, &mut mrng);
    time_hashed("f32 conv3x3 s1 64->64 @1x16x16", 2 * 64 * 16 * 16 * 64 * 9, || {
        ops::conv2d_act(&x, &w, Some(&b), (1, 1), (1, 1), (1, 1), 1, true).unwrap()
    });

    // The int8 GEMMs at ResNet-50 shapes on a [4,3,64,64] input — the
    // stem, a layer1 3x3 and 1x1, a layer4 3x3 — and the classifier
    // (one row, and a batch of 16 through a wide layer), with a non-zero
    // activation zero point under the padding.
    let (xs, xzp) = (2.0 / 255.0, 3);
    for &(n, c, h, o, k, stride, pad) in &[
        (4usize, 64usize, 16usize, 64usize, 3usize, 1usize, 1usize),
        (4, 256, 16, 64, 1, 1, 0),
        (4, 3, 64, 64, 7, 2, 3),
        (4, 512, 4, 512, 3, 1, 1),
    ] {
        let x = quantize_per_tensor(&Tensor::rand_uniform(&[n, c, h, h], -1.0, 1.0, &mut rng), xs, xzp).unwrap();
        let w = quantize_per_channel(&Tensor::rand_uniform(&[o, c, k, k], -0.5, 0.5, &mut rng), 0).unwrap();
        let b = Tensor::rand_uniform(&[o], -0.2, 0.2, &mut rng);
        let oh = (h + 2 * pad - k) / stride + 1;
        let name = format!("i8 conv{k}x{k} s{stride} {c}->{o} @{n}x{h}x{h}");
        time_hashed(&name, 2 * n * o * oh * oh * c * k * k, || {
            quantized_conv2d(&x, &w, Some(&b), (stride, stride), (pad, pad), 0.07, -2, true).unwrap()
        });
    }
    for &(m, k, n) in &[(1usize, 2048usize, 1000usize), (16, 512, 4096)] {
        let x = quantize_per_tensor(&Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng), xs, xzp).unwrap();
        let w = quantize_per_channel(&Tensor::rand_uniform(&[n, k], -0.5, 0.5, &mut rng), 0).unwrap();
        let b = Tensor::rand_uniform(&[n], -0.2, 0.2, &mut rng);
        time_hashed(&format!("i8 linear {m}x{k} -> {n}"), 2 * m * k * n, || {
            quantized_linear(&x, &w, Some(&b), 0.05, 1, false).unwrap()
        });
    }

    // The int8 elementwise kernels at ResNet-50 sizes ([4,3,64,64]
    // input): a layer1 residual add and its ReLU, the input's quant
    // boundary, PTQ's weight quantization of a layer4 3x3 kernel, and the
    // conv epilogue — a 1x1 conv over two channels, so the GEMM is one
    // k-pair and requantizing its 64 output rows is the work.
    let (s, zp) = (0.05, 3);
    let qa = quantize_per_tensor(&Tensor::rand_uniform(&[4, 256, 16, 16], -4.0, 4.0, &mut rng), s, zp).unwrap();
    let qb = quantize_per_tensor(&Tensor::rand_uniform(&[4, 256, 16, 16], -4.0, 4.0, &mut rng), 0.04, -5).unwrap();
    time_per_elem("quantized_add [4,256,16,16]", qa.numel(), || {
        quantized_add(&qa, &qb, 0.07, -2).unwrap()
    });
    time_per_elem("quantized_relu [4,256,16,16]", qa.numel(), || {
        quantized_relu(&qa).unwrap()
    });
    let xf = Tensor::rand_uniform(&[4, 3, 64, 64], -2.0, 2.0, &mut rng);
    time_per_elem("quantize_per_tensor [4,3,64,64]", xf.numel(), || {
        quantize_per_tensor(&xf, s, zp).unwrap()
    });
    let wf = Tensor::rand_uniform(&[512, 512, 3, 3], -0.5, 0.5, &mut rng);
    time_per_elem("quantize_per_channel [512,512,3,3]", wf.numel(), || {
        quantize_per_channel(&wf, 0).unwrap()
    });
    let xq = quantize_per_tensor(&Tensor::rand_uniform(&[4, 2, 32, 32], -2.0, 2.0, &mut rng), s, zp).unwrap();
    let wq = quantize_per_channel(&Tensor::rand_uniform(&[64, 2, 1, 1], -0.5, 0.5, &mut rng), 0).unwrap();
    time_per_elem("requant (conv1x1 2->64 @32x32)", 4 * 64 * 32 * 32, || {
        quantized_conv2d(&xq, &wq, None, (1, 1), (0, 0), 0.05, -1, true).unwrap()
    });
}
