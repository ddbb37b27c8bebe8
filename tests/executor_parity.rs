//! Executor parity suite: every execution path — the default
//! [`Executor`], the executor at 1, 2 and 8 kernel threads × memory
//! planning on/off, the exact-mode fused graph (`fx_backend::fuse`
//! without conv–BN folding) over the same grid, and the codegen
//! round-trip (print → parse → rebuild → run) — must be
//! **bit-identical** on the paper's evaluation models — including after
//! conv–BN fusion and post-training quantization.
//!
//! Bit-identity (not `allclose`) holds because every node is computed by
//! the same kernel on the same inputs, and kernels split only their
//! output across threads: no split reorders a sum.

use fx::backend::{fuse, CompileOptions};
use fx::passes::fuse_conv_bn;
use fx::prelude::*;
use fx::quant::{quantize_ptq, QConfig};
use fx_models::{resnet50, DeepRecommender, LearningToPaintActor};
use fx_tensor::rng::{SeedableRng, StdRng};

fn randn(shape: &[usize], seed: u64) -> Value {
    let mut rng = StdRng::seed_from_u64(seed);
    Value::Tensor(Tensor::randn(shape, &mut rng))
}

fn as_bits(v: &Value) -> Vec<u32> {
    v.as_tensor()
        .expect("model output is a tensor")
        .as_f32()
        .expect("model output is f32")
        .iter()
        .map(|f| f.to_bits())
        .collect()
}

/// Rebuild the module from its printed graph text (the codegen
/// round-trip) with the same parameters attached.
fn round_trip(gm: &GraphModule) -> GraphModule {
    let text = gm.graph().to_string();
    let parsed = fx::core::parse_graph(&text).expect("printed graph reparses");
    let (_, modules, attrs, input_names) = gm.clone().into_parts();
    GraphModule::new(parsed, modules, attrs, input_names).expect("reparsed graph lints")
}

/// All execution paths agree bit-for-bit on `inputs`: the default
/// executor, the executor across kernel thread counts × memory planning
/// on/off, the exact-mode fused graph across the same grid, and the
/// codegen round-trip. Each run sets its own kernel threads, so the
/// suite changes no process-wide setting.
fn assert_paths_bit_identical(gm: &GraphModule, inputs: &[Value], label: &str) {
    let reference = as_bits(
        &Executor::new(gm)
            .run(inputs)
            .unwrap_or_else(|e| panic!("{label}: default executor failed: {e}")),
    );
    for planning in [false, true] {
        for threads in [1, 2, 8] {
            let out = Executor::new(gm)
                .with_memory_planning(planning)
                .with_threads(threads)
                .run(inputs)
                .unwrap_or_else(|e| {
                    panic!("{label}: executor({threads}, memplan={planning}) failed: {e}")
                });
            assert_eq!(
                reference,
                as_bits(&out),
                "{label}: executor with {threads} kernel thread(s), memplan={planning} \
                 diverged from the interpreter"
            );
        }
    }
    // With conv–BN folding off, the backend's fusion pipeline
    // (`CompileOptions { fuse_conv_bn: false }`, what `compile_with`
    // documents as reproducing the traced graph's bits) is
    // bit-preserving passes in front of the same executor, so its fused
    // graph runs the same grid: no kernel thread count or planner mode
    // may move a bit. Ops outside its operator set (e.g. quantized
    // ones) are simply left unfused.
    let mut exact = gm.clone();
    fuse(&mut exact, CompileOptions { fuse_conv_bn: false })
        .unwrap_or_else(|e| panic!("{label}: exact-mode fusion failed: {e}"));
    for planning in [false, true] {
        for threads in [1, 2, 8] {
            let cfg = ExecConfig {
                threads,
                memory_planning: planning,
                fusion: false,
            };
            let fused = Executor::with_config(&exact, cfg)
                .run(inputs)
                .unwrap_or_else(|e| panic!("{label}: exact-mode fused graph ({cfg}) failed: {e}"));
            assert_eq!(
                reference,
                as_bits(&fused),
                "{label}: exact-mode fused graph ({cfg}) diverged"
            );
        }
    }
    let rt = round_trip(gm);
    let out = rt
        .run(inputs)
        .unwrap_or_else(|e| panic!("{label}: round-tripped module failed: {e}"));
    assert_eq!(
        reference,
        as_bits(&out),
        "{label}: codegen round-trip diverged"
    );
}

#[test]
fn resnet50_parity_and_after_fusion() {
    let mut rng = StdRng::seed_from_u64(50);
    let model = resnet50(3, 10, &mut rng);
    let mut gm = symbolic_trace(&model).unwrap();
    let x = randn(&[1, 3, 32, 32], 1);
    assert_paths_bit_identical(&gm, std::slice::from_ref(&x), "resnet50");

    let fused = fuse_conv_bn(&mut gm).unwrap();
    assert!(fused > 0, "resnet50 must have conv-bn pairs to fuse");
    assert_paths_bit_identical(&gm, std::slice::from_ref(&x), "resnet50+fuse");
}

#[test]
fn learning_to_paint_actor_parity_and_after_fusion() {
    let mut rng = StdRng::seed_from_u64(51);
    let actor = LearningToPaintActor::new(&mut rng);
    let mut gm = symbolic_trace(&actor).unwrap();
    let x = randn(&[1, 9, 32, 32], 2);
    assert_paths_bit_identical(&gm, std::slice::from_ref(&x), "paint-actor");

    let fused = fuse_conv_bn(&mut gm).unwrap();
    assert!(fused > 0, "the actor's backbone must fuse");
    assert_paths_bit_identical(&gm, std::slice::from_ref(&x), "paint-actor+fuse");
}

#[test]
fn deep_recommender_parity_and_after_quantization() {
    let mut rng = StdRng::seed_from_u64(52);
    let model = DeepRecommender::new(64, &mut rng);
    let gm = symbolic_trace(&model).unwrap();
    let x = randn(&[2, 64], 3);
    assert_paths_bit_identical(&gm, std::slice::from_ref(&x), "recommender");

    let batches: Vec<Vec<Value>> = (0..4).map(|s| vec![randn(&[2, 64], 100 + s)]).collect();
    let quantized = quantize_ptq(&gm, &batches, &QConfig::default()).unwrap();
    assert_paths_bit_identical(&quantized, std::slice::from_ref(&x), "recommender+ptq");
}

#[test]
fn plan_cache_hits_until_mutation() {
    let mut rng = StdRng::seed_from_u64(53);
    let model = DeepRecommender::new(32, &mut rng);
    let mut gm = symbolic_trace(&model).unwrap();
    let x = randn(&[1, 32], 4);

    let (_, p1) = Executor::new(&gm)
        .run_profiled(std::slice::from_ref(&x))
        .unwrap();
    assert!(!p1.plan_cache_hit, "first run compiles");
    assert_eq!(p1.plan_compiles, 1);

    let (_, p2) = Executor::new(&gm)
        .with_threads(8)
        .run_profiled(std::slice::from_ref(&x))
        .unwrap();
    assert!(p2.plan_cache_hit, "repeat run on an unmutated graph hits");
    assert_eq!(p2.plan_compiles, 1, "no recompilation on a hit");

    // Any structural edit bumps the graph version and invalidates.
    let id = gm
        .graph()
        .nodes()
        .find(|n| n.op() == Opcode::CallModule)
        .unwrap()
        .id();
    let target = gm.graph().node(id).target().to_string();
    gm.graph_mut().set_target(id, &target).unwrap();
    let (_, p3) = Executor::new(&gm)
        .run_profiled(std::slice::from_ref(&x))
        .unwrap();
    assert!(!p3.plan_cache_hit, "mutation must invalidate the plan");
    assert_eq!(p3.plan_compiles, 2);
}
