//! Differential fuzz harness (DESIGN.md "validation layer").
//!
//! A seeded generator builds random-but-valid models — conv stacks,
//! MLPs, and hand-edited function graphs — and checks, per case:
//!
//! * every execution path is **bit-identical**: `gm.run` (sequential)
//!   vs the [`Executor`] at 1/2/8 kernel threads × memory planning
//!   on/off vs the graph's exact-mode fused twin (`fx_backend::fuse`
//!   without conv–BN folding) vs the codegen round-trip (print → parse
//!   → rebuild → run);
//! * mutating passes are **idempotent**: running fuse / CSE / constant
//!   folding / each backend fusion pass a second time changes nothing
//!   (0 rewrites, same bits);
//! * the graph **validates** ([`GraphModule::validate`]) after tracing
//!   and after every transform.
//!
//! Everything is driven by the in-repo SplitMix64 [`StdRng`], so the
//! suite is deterministic and offline. A failing assertion prints
//! `case N (seed 0x…)`; reproduce it by re-running the test — the seed
//! for case N is always `FUZZ_SEED_BASE + N`, independent of the other
//! cases. Set `FX_FUZZ_CASES` to shrink or grow the sweep (the tier-1
//! smoke run uses a small slice; the default is 64).

use fx::passes::{
    eliminate_common_subexpressions, fold_constants, fuse_conv_bn, infer_shapes, shape_prop,
};
use fx::prelude::*;
use fx_core::Arg;
use fx_models::Mlp;
use fx_nn::{
    AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential,
};
use fx_tensor::rng::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

const FUZZ_SEED_BASE: u64 = 0x5EED_0000;

fn case_count() -> u64 {
    std::env::var("FX_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn rand_value(shape: &[usize], seed: u64) -> Value {
    let mut rng = StdRng::seed_from_u64(seed);
    Value::Tensor(Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng))
}

fn as_bits(v: &Value) -> Vec<u32> {
    v.as_tensor()
        .expect("fuzz model output is a tensor")
        .as_f32()
        .expect("fuzz model output is f32")
        .iter()
        .map(|f| f.to_bits())
        .collect()
}

/// Print → parse → rebuild with the same parameters attached.
fn round_trip(gm: &GraphModule, label: &str) -> GraphModule {
    let text = gm.graph().to_string();
    let parsed = fx::core::parse_graph(&text)
        .unwrap_or_else(|e| panic!("{label}: printed graph must reparse: {e}"));
    let (_, modules, attrs, input_names) = gm.clone().into_parts();
    GraphModule::new(parsed, modules, attrs, input_names)
        .unwrap_or_else(|e| panic!("{label}: reparsed graph must lint: {e}"))
}

/// The differential core: all execution paths agree bit-for-bit, and
/// the module validates. Returns the reference bits.
fn check_all_paths(gm: &GraphModule, inputs: &[Value], label: &str) -> Vec<u32> {
    gm.validate()
        .unwrap_or_else(|e| panic!("{label}: validate: {e}"));
    let reference = as_bits(
        &gm.run(inputs)
            .unwrap_or_else(|e| panic!("{label}: sequential run: {e}")),
    );
    for planning in [false, true] {
        for threads in [1usize, 2, 8] {
            let out = Executor::new(gm)
                .with_memory_planning(planning)
                .with_threads(threads)
                .run(inputs)
                .unwrap_or_else(|e| {
                    panic!("{label}: executor({threads}, memplan={planning}): {e}")
                });
            assert_eq!(
                reference,
                as_bits(&out),
                "{label}: executor at {threads} kernel thread(s) (memplan={planning}) diverged"
            );
        }
    }
    // The exact-mode fused twin. The backend's fusion passes leave
    // nodes they do not recognize alone, so the sweep is total over
    // whatever the fuzzer built.
    let mut fused = gm.clone();
    fx::backend::fuse(&mut fused, fx::backend::CompileOptions { fuse_conv_bn: false })
        .unwrap_or_else(|e| panic!("{label}: exact-mode fuse: {e}"));
    let out = fused
        .run(inputs)
        .unwrap_or_else(|e| panic!("{label}: exact-mode fused twin: {e}"));
    assert_eq!(reference, as_bits(&out), "{label}: exact-mode fused twin diverged");
    let rt = round_trip(gm, label);
    let out = rt
        .run(inputs)
        .unwrap_or_else(|e| panic!("{label}: round-trip run: {e}"));
    assert_eq!(reference, as_bits(&out), "{label}: codegen round-trip diverged");
    reference
}

/// Run a mutating pass twice; the second application must be a no-op
/// (0 rewrites) and the output must not move by a single bit.
fn check_idempotent(
    gm: &mut GraphModule,
    inputs: &[Value],
    label: &str,
    pass: fn(&mut GraphModule) -> fx_core::Result<usize>,
) -> Vec<u32> {
    pass(gm).unwrap_or_else(|e| panic!("{label}: first application: {e}"));
    let once = check_all_paths(gm, inputs, label);
    let second = pass(gm).unwrap_or_else(|e| panic!("{label}: second application: {e}"));
    assert_eq!(second, 0, "{label}: second application must rewrite nothing");
    let twice = check_all_paths(gm, inputs, &format!("{label} (x2)"));
    assert_eq!(once, twice, "{label}: second application changed the output");
    once
}

/// The shape rules against a real run: `infer_shapes` succeeds, and
/// agrees with the shape observed at every tensor node.
fn check_shape_rules(gm: &GraphModule, inputs: &[Value], label: &str) {
    let shapes: Vec<Vec<usize>> = inputs
        .iter()
        .map(|v| v.as_tensor().unwrap().shape().to_vec())
        .collect();
    let inferred = infer_shapes(&mut gm.clone(), &shapes)
        .unwrap_or_else(|e| panic!("{label}: infer_shapes: {e}"));
    let mut observed = gm.clone();
    shape_prop(&mut observed, inputs).unwrap_or_else(|e| panic!("{label}: shape_prop: {e}"));
    for node in observed.graph().nodes() {
        if let Some(shape) = node.shape_meta() {
            assert_eq!(
                inferred.get(node.name()).map(Vec::as_slice),
                Some(shape),
                "{label}: shape rule and observation disagree at `{}`",
                node.name()
            );
        }
    }
}

/// Family 1: a random conv stack. Shapes are tracked during generation
/// so every layer is valid by construction: Conv2d (kernel capped at
/// the current spatial extent), optional BatchNorm2d + ReLU, an
/// occasional 2×2 pool when it fits, then Flatten + Linear.
fn gen_conv_stack(rng: &mut StdRng) -> (Sequential, Vec<usize>) {
    let batch = rng.gen_range(1usize..3);
    let mut c = rng.gen_range(1usize..4);
    let mut h = rng.gen_range(6usize..13);
    let mut w = rng.gen_range(6usize..13);
    let input_shape = vec![batch, c, h, w];

    let mut layers: Vec<fx_core::ArcModule> = Vec::new();
    for _ in 0..rng.gen_range(1usize..4) {
        let out_c = rng.gen_range(1usize..6);
        let k = rng.gen_range(1usize..3.min(h).min(w) + 1);
        layers.push(Arc::new(Conv2d::new(c, out_c, (k, k), rng)));
        c = out_c;
        h = h - k + 1;
        w = w - k + 1;
        if rng.gen_range(0u64..2) == 0 {
            layers.push(Arc::new(BatchNorm2d::new(c)));
        }
        layers.push(Arc::new(ReLU));
        if h >= 2 && w >= 2 && rng.gen_range(0u64..2) == 0 {
            if rng.gen_range(0u64..2) == 0 {
                layers.push(Arc::new(MaxPool2d::new((2, 2))));
            } else {
                layers.push(Arc::new(AvgPool2d::new((2, 2))));
            }
            h = (h - 2) / 2 + 1;
            w = (w - 2) / 2 + 1;
        }
    }
    layers.push(Arc::new(Flatten::default()));
    let features = c * h * w;
    layers.push(Arc::new(Linear::new(features, rng.gen_range(1usize..6), rng)));
    (Sequential::new(layers), input_shape)
}

/// Family 3: a traced function graph (unary chains + `add` + `cat`)
/// followed by a random sequence of *valid* graph edits — insertions,
/// retargets, dead-node erasures — exercising the mutation API the
/// passes are built on.
fn gen_edited_function_graph(rng: &mut StdRng) -> (GraphModule, Vec<usize>) {
    const UNARY: [&str; 5] = ["relu", "sigmoid", "tanh", "abs", "neg"];
    let n = rng.gen_range(2usize..9);
    let ops: Vec<u64> = (0..rng.gen_range(1usize..7)).map(|_| rng.next_u64()).collect();
    let use_cat = rng.gen_range(0u64..2) == 0;

    let mut gm = symbolic_trace_fn(1, |xs| {
        let mut a = func::call(UNARY[0], std::slice::from_ref(&xs[0]))?;
        let mut b = xs[0].clone();
        for &o in &ops {
            let pick = UNARY[(o % UNARY.len() as u64) as usize];
            if o % 2 == 0 {
                a = func::call(pick, std::slice::from_ref(&a))?;
            } else {
                b = func::call(pick, std::slice::from_ref(&b))?;
            }
        }
        if use_cat {
            func::cat(&[a, b], 0)
        } else {
            func::add(&a, &b)
        }
    })
    .expect("function family traces");

    // Random valid edits (mirrors the proptests edit family).
    for _ in 0..rng.gen_range(0usize..6) {
        let kind = rng.gen_range(0u64..3);
        let pick = rng.gen_range(0usize..16);
        let ids = gm.graph().node_ids();
        let graph = gm.graph_mut();
        match kind {
            0 => {
                let ph = graph.placeholders()[0];
                let target = ids[pick % ids.len()];
                if graph.node(target).op() != Opcode::Placeholder {
                    let mut g = graph.inserting_before(target);
                    g.call_function(UNARY[pick % UNARY.len()], vec![Arg::Node(ph)], vec![]);
                }
            }
            1 => {
                let candidates: Vec<_> = ids
                    .iter()
                    .copied()
                    .filter(|&id| {
                        let n = graph.node(id);
                        n.op() == Opcode::CallFunction && UNARY.contains(&n.target())
                    })
                    .collect();
                if !candidates.is_empty() {
                    graph
                        .set_target(
                            candidates[pick % candidates.len()],
                            UNARY[(pick + 1) % UNARY.len()],
                        )
                        .unwrap();
                }
            }
            _ => {
                let dead: Vec<_> = ids
                    .iter()
                    .copied()
                    .filter(|&id| {
                        let n = graph.node(id);
                        n.op() == Opcode::CallFunction && graph.users(id).is_empty()
                    })
                    .collect();
                if !dead.is_empty() {
                    graph.erase_node(dead[pick % dead.len()]).unwrap();
                }
            }
        }
    }
    gm.graph_mut().eliminate_dead_code();
    gm.recompile().expect("edited graph recompiles");
    (gm, vec![n])
}

/// The sweep: every case generates one model from a seed-chosen family
/// and pushes it through the full differential battery.
#[test]
fn differential_fuzz_sweep() {
    for case in 0..case_count() {
        let seed = FUZZ_SEED_BASE + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let label = format!("case {case} (seed {seed:#x})");

        let (mut gm, input_shape) = match case % 3 {
            0 => {
                let (model, shape) = gen_conv_stack(&mut rng);
                let gm = symbolic_trace(&model)
                    .unwrap_or_else(|e| panic!("{label}: trace: {e}"));
                (gm, shape)
            }
            1 => {
                let n_widths = rng.gen_range(2usize..5);
                let widths: Vec<usize> =
                    (0..n_widths).map(|_| rng.gen_range(1usize..16)).collect();
                let batch = rng.gen_range(1usize..4);
                let mlp = Mlp::new(&widths, &mut rng);
                let gm = symbolic_trace(&mlp)
                    .unwrap_or_else(|e| panic!("{label}: trace: {e}"));
                (gm, vec![batch, widths[0]])
            }
            _ => gen_edited_function_graph(&mut rng),
        };

        let x = rand_value(&input_shape, seed ^ 0x5EED);
        let inputs = std::slice::from_ref(&x);
        let before = check_all_paths(&gm, inputs, &format!("{label}: traced"));

        // The backend's fusion passes, on the graph as traced (so
        // standalone BatchNorms are still there to lower): each
        // validates on exit, is idempotent, leaves a graph that prints,
        // reparses and runs on every path, and does not move a bit.
        {
            use fx::backend::passes::*;
            let mut gm = gm.clone();
            for (name, pass) in [
                ("elide_identities", elide_identities as fn(&mut _) -> _),
                ("bn_to_affine", bn_to_affine),
                ("fuse_epilogues", fuse_epilogues),
                ("fuse_unary_chains", fuse_unary_chains),
                ("eliminate_dead_code", eliminate_dead_code),
            ] {
                let after = check_idempotent(&mut gm, inputs, &format!("{label}: {name}"), pass);
                assert_eq!(before, after, "{label}: {name} changed observable bits");
                check_shape_rules(&gm, inputs, &format!("{label}: {name}"));
            }
        }

        // Conv–BN fusion is numerics-changing, so it gets its own
        // before/after reference; CSE and constant folding must each
        // preserve bits exactly relative to their own input.
        let fused =
            check_idempotent(&mut gm, inputs, &format!("{label}: fuse"), fuse_conv_bn);
        if case % 3 != 0 {
            // Non-conv families have nothing to fuse: bits are untouched.
            assert_eq!(before, fused, "{label}: fuse must be a no-op here");
        }
        let pre_cse = fused;
        let post_cse = check_idempotent(
            &mut gm,
            inputs,
            &format!("{label}: cse"),
            eliminate_common_subexpressions,
        );
        assert_eq!(pre_cse, post_cse, "{label}: CSE changed observable bits");
        let post_fold = check_idempotent(
            &mut gm,
            inputs,
            &format!("{label}: constfold"),
            fold_constants,
        );
        assert_eq!(post_cse, post_fold, "{label}: folding changed observable bits");
    }
}

/// Quantized sweep: random conv stacks and MLPs pushed through PTQ
/// (fuse → calibrate → convert), then checked on every execution path.
///
/// Invariants (the PR-7 f32 guarantees, extended to int8):
/// * the converted graph's output is **bit-identical** across
///   {memplan off, on} × {1, 2, 8 kernel threads}, and of its exact-mode
///   fused twin —
///   the int8 kernels accumulate exactly in i32 and share one
///   requantization epilogue, so nothing in the schedule may move a
///   byte;
/// * **batch position is invisible**: each row of a stacked batch
///   equals its solo run bit-for-bit (quantized linear/conv lower the
///   whole batch as one GEMM — rows must never see their neighbors);
/// * int8 vs f32 is compared against the documented quantization
///   tolerance (SQNR, not bitwise — DESIGN.md §5e).
///
/// The SIMD axis (`FX_SIMD`) is once-read per process, so it is swept
/// two ways: in-process tests inside `fx_tensor::quant` hold the level's
/// tiles to a direct-convolution oracle, and `scripts/verify.sh` runs
/// this very sweep under every level and both FX_MEMPLAN settings.
#[test]
fn quantized_differential_fuzz_sweep() {
    use fx::passes::batch_polymorphic;

    // PTQ per case (prepare + calibrate + convert) is heavier than the
    // f32 sweep; a smaller slice still crosses both families.
    let cases = case_count().min(16);
    for case in 0..cases {
        let seed = FUZZ_SEED_BASE + 0x9_0000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let label = format!("quant case {case} (seed {seed:#x})");

        let (mut gm, mut input_shape) = if case % 2 == 0 {
            let (model, shape) = gen_conv_stack(&mut rng);
            let gm =
                symbolic_trace(&model).unwrap_or_else(|e| panic!("{label}: trace: {e}"));
            (gm, shape)
        } else {
            let n_widths = rng.gen_range(2usize..5);
            let widths: Vec<usize> =
                (0..n_widths).map(|_| rng.gen_range(2usize..16)).collect();
            let mlp = Mlp::new(&widths, &mut rng);
            let gm =
                symbolic_trace(&mlp).unwrap_or_else(|e| panic!("{label}: trace: {e}"));
            let batch = rng.gen_range(1usize..4);
            (gm, vec![batch, widths[0]])
        };
        fuse_conv_bn(&mut gm).unwrap_or_else(|e| panic!("{label}: fuse: {e}"));

        let calibration: Vec<Vec<Value>> = (0..3)
            .map(|i| vec![rand_value(&input_shape, seed ^ (0xCA1 + i))])
            .collect();
        let qgm = fx::quant::quantize_ptq(&gm, &calibration, &fx::quant::QConfig::default())
            .unwrap_or_else(|e| panic!("{label}: quantize_ptq: {e}"));

        let x = rand_value(&input_shape, seed ^ 0xABCD);
        let inputs = std::slice::from_ref(&x);

        // Bit-identity across memplan × threads × fused twin (the same
        // battery the f32 sweep runs, on the converted graph).
        let reference = check_all_paths(&qgm, inputs, &format!("{label}: converted"));

        // Int8 vs f32 against the documented quantization tolerance.
        let y_f32 = gm
            .run(inputs)
            .unwrap_or_else(|e| panic!("{label}: f32 reference: {e}"));
        let (rf, rq) = (
            y_f32.as_tensor().unwrap().as_f32().unwrap(),
            reference.iter().map(|&b| f32::from_bits(b)).collect::<Vec<_>>(),
        );
        let signal: f64 = rf.iter().map(|&v| (v as f64).powi(2)).sum();
        let noise: f64 = rf
            .iter()
            .zip(&rq)
            .map(|(&a, &b)| ((a - b) as f64).powi(2))
            .sum();
        // Fuzz-scale models (layers as narrow as 2 units, 3 calibration
        // batches) quantize far worse than real networks; the bench
        // suite holds real models to > 20 dB, the fuzz gate here only
        // catches catastrophic breakage (sign flips, wrong zero point).
        if signal > 1e-6 {
            let sqnr_db = 10.0 * (signal / noise.max(1e-12)).log10();
            assert!(
                sqnr_db > 5.0,
                "{label}: int8 drifted past the documented tolerance \
                 (SQNR {sqnr_db:.1} dB <= 5 dB)"
            );
        }

        // Batch-position invariance: admit the graph, then check each
        // row of a stacked batch against its solo run, bit for bit.
        input_shape[0] = 1;
        batch_polymorphic(&qgm, &[input_shape.clone()])
            .unwrap_or_else(|e| panic!("{label}: admission: {e}"));
        let rows: Vec<Tensor> = (0..3)
            .map(|i| {
                rand_value(&input_shape, seed ^ (0xB000 + i))
                    .as_tensor()
                    .unwrap()
                    .clone()
            })
            .collect();
        let solo: Vec<Vec<u32>> = rows
            .iter()
            .map(|r| {
                as_bits(
                    &qgm.run(&[Value::Tensor(r.clone())])
                        .unwrap_or_else(|e| panic!("{label}: solo run: {e}")),
                )
            })
            .collect();
        let refs: Vec<&Tensor> = rows.iter().collect();
        let stacked = fx_tensor::ops::stack_batch(&refs)
            .unwrap_or_else(|e| panic!("{label}: stack: {e}"));
        let batched = as_bits(
            &qgm.run(&[Value::Tensor(stacked)])
                .unwrap_or_else(|e| panic!("{label}: batched run: {e}")),
        );
        let per_row = batched.len() / 3;
        for (i, s) in solo.iter().enumerate() {
            assert_eq!(
                &batched[i * per_row..(i + 1) * per_row],
                &s[..],
                "{label}: row {i} changed bits inside the batch"
            );
        }
    }
}

/// Regression sweep: inputs that used to crash the stack must now fail
/// with typed errors on every execution path — no panics, no poisoned
/// worker pools, no usize underflow.
#[test]
fn previously_panicking_inputs_fail_cleanly() {
    // (1) Oversized pool window: a 9×9 max-pool over a 4×4 image. This
    // underflowed in shape inference *and* in the runtime kernel.
    let mut g = Graph::new();
    let x = g.placeholder("x");
    let pooled = g.call_function(
        "max_pool2d",
        vec![
            Arg::Node(x),
            Arg::Tuple(vec![Arg::Int(9), Arg::Int(9)]),
            Arg::Tuple(vec![Arg::Int(1), Arg::Int(1)]),
            Arg::Tuple(vec![Arg::Int(0), Arg::Int(0)]),
        ],
        vec![],
    );
    g.output(Arg::Node(pooled));
    let mut gm = GraphModule::new(g, Default::default(), Default::default(), vec![
        "x".to_string(),
    ])
    .unwrap();

    let err = infer_shapes(&mut gm, &[vec![1, 3, 4, 4]]).unwrap_err();
    assert!(
        err.to_string().contains("does not fit"),
        "shape inference names the misfit: {err}"
    );
    let x = rand_value(&[1, 3, 4, 4], 7);
    for threads in [1usize, 2, 8] {
        let err = Executor::new(&gm)
            .with_threads(threads)
            .run(std::slice::from_ref(&x))
            .unwrap_err();
        assert!(
            err.to_string().contains("does not fit"),
            "execution at {threads} kernel thread(s) errors in kind: {err}"
        );
    }

    // (2) A custom op whose kernel panics outright: contained at every
    // kernel thread count, error names the node, and the pool stays
    // reusable.
    fn bomb(_i: &fx_core::dispatch::Inputs<'_>) -> fx_core::Result<Value> {
        panic!("fuzz bomb");
    }
    fx_core::dispatch::register_function("fuzz::bomb", bomb, fx_core::dispatch::OpKind::Same);
    let mut g = Graph::new();
    let x = g.placeholder("x");
    let b = g.call_function("fuzz::bomb", vec![Arg::Node(x)], vec![]);
    let r = g.call_function("relu", vec![Arg::Node(x)], vec![]);
    let a = g.call_function("add", vec![Arg::Node(b), Arg::Node(r)], vec![]);
    g.output(Arg::Node(a));
    let gm = GraphModule::new(g, Default::default(), Default::default(), vec![
        "x".to_string(),
    ])
    .unwrap();
    let x = rand_value(&[8], 8);
    for threads in [1usize, 2, 8] {
        let err = Executor::new(&gm)
            .with_threads(threads)
            .run(std::slice::from_ref(&x))
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("fuzz__bomb"), "names the node ({threads}t): {msg}");
        assert!(msg.contains("panic"), "says it panicked ({threads}t): {msg}");
    }
}
