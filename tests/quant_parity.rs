//! Quantized-model parity suite: a PTQ-converted int8 model must
//! produce **bit-identical** outputs across every executor
//! configuration (memory planning on/off × kernel thread counts), and the
//! serve registry must hot-swap between the f32 and int8 versions of
//! the same model with zero failed requests and version-exact answers,
//! and keep no int8 weight alive once swapped back to f32.
//!
//! Bit-identity holds because the int8 path accumulates exactly in i32
//! (every tile of the one GEMM driver, the portable one included) and
//! requantizes through one per-element epilogue contract, so neither
//! threading (row partitioning only), planned buffer reuse (dtype-keyed,
//! never across dtypes), nor batch stacking (pure byte concatenation)
//! can perturb a single output byte. The FX_SIMD axis is swept
//! cross-process by `scripts/verify.sh`; the direct-convolution oracle
//! every level must equal lives in `fx_tensor::quant` unit tests, and
//! `tests/golden_bits.rs` pins the bytes across commits.

use fx::prelude::*;
use fx::serve::{ModelConfig, Registry};
use fx_tensor::rng::{SeedableRng, StdRng};
use std::time::Duration;

const SHAPE: [usize; 4] = [1, 3, 32, 32];

/// resnet_tiny → fuse conv+bn → PTQ with a handful of calibration
/// batches: the same recipe the fuzz suite's int8 cases use.
fn f32_and_int8_resnet(seed: u64) -> (GraphModule, GraphModule) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = fx::models::resnet_tiny(&mut rng);
    let mut gm = symbolic_trace(&model).expect("resnet_tiny traces");
    fx::passes::fuse_conv_bn(&mut gm).expect("conv+bn fuses");
    let cal: Vec<Vec<Value>> = (0..3)
        .map(|_| {
            vec![Value::Tensor(Tensor::rand_uniform(
                &[2, 3, 32, 32],
                -1.0,
                1.0,
                &mut rng,
            ))]
        })
        .collect();
    let qgm = fx::quant::quantize_ptq(&gm, &cal, &fx::quant::QConfig::default())
        .expect("PTQ converts");
    (gm, qgm)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_f32()
        .expect("model output is f32")
        .iter()
        .map(|f| f.to_bits())
        .collect()
}

fn run_with(gm: &GraphModule, x: &Tensor, threads: usize, memplan: bool) -> Vec<u32> {
    bits(
        Executor::new(gm)
            .with_threads(threads)
            .with_memory_planning(memplan)
            .run(&[Value::Tensor(x.clone())])
            .expect("executor run")
            .as_tensor()
            .expect("model output is a tensor"),
    )
}

/// The named, deterministic counterpart of the randomized quantized
/// fuzz sweep: one real PTQ model, every memplan × thread combination,
/// all bit-identical to the 1-thread unplanned reference.
#[test]
fn int8_resnet_bit_identical_across_memplan_and_threads() {
    let (_, qgm) = f32_and_int8_resnet(42);
    let mut rng = StdRng::seed_from_u64(43);
    let x = Tensor::rand_uniform(&[4, 3, 32, 32], -1.0, 1.0, &mut rng);
    let want = run_with(&qgm, &x, 1, false);
    for threads in [1, 2, 8] {
        for memplan in [false, true] {
            assert_eq!(
                run_with(&qgm, &x, threads, memplan),
                want,
                "int8 resnet diverged at {threads} kernel thread(s), memplan={memplan}"
            );
        }
    }
}

/// Rows of a stacked batch must be bitwise equal to solo runs — the
/// property that makes dynamic batching of int8 models sound.
#[test]
fn int8_batch_rows_match_solo_runs() {
    let (_, qgm) = f32_and_int8_resnet(44);
    let mut rng = StdRng::seed_from_u64(45);
    let solos: Vec<Tensor> = (0..3)
        .map(|_| Tensor::rand_uniform(&SHAPE, -1.0, 1.0, &mut rng))
        .collect();
    let refs: Vec<&Tensor> = solos.iter().collect();
    let batch = fx_tensor::ops::stack_batch(&refs).expect("f32 inputs stack");
    let batched = Executor::new(&qgm)
        .with_threads(1)
        .run(&[Value::Tensor(batch)])
        .expect("batched run")
        .as_tensor()
        .expect("tensor output")
        .clone();
    let rows = fx_tensor::ops::split_batch(&batched, &[1, 1, 1]).expect("rows split");
    for (i, (x, row)) in solos.iter().zip(&rows).enumerate() {
        assert_eq!(
            bits(row),
            run_with(&qgm, x, 1, false),
            "batch row {i} differs from its solo int8 run"
        );
    }
}

/// Hot-swap smoke for quantized serving: register the f32 model, swap
/// in its int8 PTQ conversion (same input/output interface, so the
/// admission re-check must pass), swap back — every request answered,
/// every answer bit-exact for the version that served it.
#[test]
fn registry_hot_swaps_between_f32_and_int8() {
    let (gm, qgm) = f32_and_int8_resnet(46);
    let mut rng = StdRng::seed_from_u64(47);
    let inputs: Vec<Tensor> = (0..3)
        .map(|_| Tensor::rand_uniform(&SHAPE, -1.0, 1.0, &mut rng))
        .collect();
    let want_f32: Vec<Vec<u32>> = inputs.iter().map(|x| run_with(&gm, x, 1, false)).collect();
    let want_i8: Vec<Vec<u32>> = inputs.iter().map(|x| run_with(&qgm, x, 1, false)).collect();

    let registry = Registry::builder().workers(2).build().expect("registry builds");
    let handle = registry
        .register_with(
            "resnet",
            gm.clone(),
            &[SHAPE.to_vec()],
            ModelConfig::new()
                .max_batch_size(4)
                .max_batch_delay(Duration::from_millis(1)),
        )
        .expect("f32 model registers");

    let serve_all = |want: &[Vec<u32>], label: &str| {
        for (i, x) in inputs.iter().enumerate() {
            let out = handle
                .infer(vec![x.clone()])
                .unwrap_or_else(|e| panic!("{label}: request {i} failed: {e}"));
            assert_eq!(bits(&out[0]), want[i], "{label}: request {i} wrong bits");
        }
    };

    // The int8 weights, which own their packed forms once served.
    let int8_weights: Vec<Tensor> = fx::core::named_parameters(&qgm)
        .into_iter()
        .map(|(_, t)| t)
        .filter(|t| t.dtype() == DType::QI8)
        .collect();
    assert!(!int8_weights.is_empty(), "PTQ produced int8 weights");

    serve_all(&want_f32, "v1 (f32)");
    assert_eq!(registry.swap("resnet", qgm.clone()).expect("f32→int8 swap admits"), 2);
    serve_all(&want_i8, "v2 (int8)");
    assert_eq!(registry.swap("resnet", gm).expect("int8→f32 swap admits"), 3);
    serve_all(&want_f32, "v3 (f32 again)");

    // The swap dropped the int8 version, so once this test lets go of
    // its own copy, these handles are the only ones left: the registry
    // keeps no int8 storage, and so no packed weight, alive.
    drop(qgm);
    for (i, w) in int8_weights.into_iter().enumerate() {
        assert!(w.try_take_qi8().is_some(), "int8 weight {i} outlived the swap");
    }
    let snap = registry.shutdown();
    assert_eq!(snap.aggregate.requests_err, 0, "hot-swap run failed requests");
    assert_eq!(snap.total_swaps, 2, "expected exactly two hot swaps");
}
