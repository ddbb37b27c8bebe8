//! Cross-crate integration tests: transforms composed the way the
//! paper's case studies compose them.

use fx::backend::{lower, CompileOptions};
use fx::passes::{
    batch_polymorphic, eliminate_common_subexpressions, estimate, fold_constants, fuse_conv_bn,
    infer_shapes, infer_sym_shapes, shape_prop, split_by, to_dot, DeviceSpec, SymDim,
};
use fx::prelude::*;
use fx::quant::{quantize_ptq, QConfig};
use fx_models::{
    resnet50, resnet_tiny, DeepRecommender, Dlrm, LearningToPaintActor, Mlp,
    TransformerEncoderLayer,
};
use fx_tensor::rng::StdRng;
use fx_tensor::rng::SeedableRng;

fn randn(shape: &[usize], seed: u64) -> Value {
    let mut rng = StdRng::seed_from_u64(seed);
    Value::Tensor(Tensor::randn(shape, &mut rng))
}

#[test]
fn fuse_then_lower_then_run() {
    let mut rng = StdRng::seed_from_u64(0);
    let model = resnet_tiny(&mut rng);
    let mut gm = symbolic_trace(&model).unwrap();
    let fused = fuse_conv_bn(&mut gm).unwrap();
    assert!(fused > 0);
    let (lowered, report) = lower(&gm).unwrap();
    assert_eq!(report.fallback_partitions, 0);
    let x = randn(&[1, 3, 32, 32], 1);
    let y0 = gm.run(std::slice::from_ref(&x)).unwrap();
    let y1 = lowered.run(std::slice::from_ref(&x)).unwrap();
    assert!(y0
        .as_tensor()
        .unwrap()
        .allclose(y1.as_tensor().unwrap(), 1e-2));
}

#[test]
fn quantize_then_split_runs_with_fallback() {
    // Quantized ops are not engine-supported; lowering a quantized model
    // must fall back gracefully and stay correct.
    let mut rng = StdRng::seed_from_u64(2);
    let model = Mlp::new(&[16, 32, 8], &mut rng);
    let gm = symbolic_trace(&model).unwrap();
    let cal = vec![vec![randn(&[4, 16], 3)], vec![randn(&[4, 16], 4)]];
    let qgm = quantize_ptq(&gm, &cal, &QConfig::default()).unwrap();
    let (lowered, report) = lower(&qgm).unwrap();
    assert!(report.fallback_partitions > 0);
    let x = randn(&[2, 16], 5);
    let y0 = qgm.run(std::slice::from_ref(&x)).unwrap();
    let y1 = lowered.run(std::slice::from_ref(&x)).unwrap();
    assert!(y0
        .as_tensor()
        .unwrap()
        .allclose(y1.as_tensor().unwrap(), 1e-5));
}

#[test]
fn quantized_cnn_end_to_end() {
    // Fuse conv-bn first (BN has no quantized kernel), then quantize the
    // conv path, then run.
    let mut rng = StdRng::seed_from_u64(6);
    let model = resnet_tiny(&mut rng);
    let mut gm = symbolic_trace(&model).unwrap();
    fuse_conv_bn(&mut gm).unwrap();
    let cal: Vec<Vec<Value>> = (0..3).map(|i| vec![randn(&[1, 3, 32, 32], 10 + i)]).collect();
    let qgm = quantize_ptq(&gm, &cal, &QConfig::default()).unwrap();
    assert!(
        qgm.modules()
            .values()
            .any(|m| m.type_name().starts_with("QuantizedConv2d")),
        "convs should quantize after fusion:\n{}",
        qgm.code()
    );
    let x = randn(&[1, 3, 32, 32], 20);
    let y_ref = gm.run(std::slice::from_ref(&x)).unwrap();
    let y_q = qgm.run(std::slice::from_ref(&x)).unwrap();
    // int8 CNN drifts more than an MLP; demand the right argmax rather
    // than tight numerics.
    let am_ref = fx::tensor::ops::argmax(y_ref.as_tensor().unwrap(), -1).unwrap();
    let am_q = fx::tensor::ops::argmax(y_q.as_tensor().unwrap(), -1).unwrap();
    assert_eq!(am_ref.as_i64().unwrap(), am_q.as_i64().unwrap());
}

#[test]
fn analysis_stack_composes() {
    let mut rng = StdRng::seed_from_u64(7);
    let model = DeepRecommender::new(128, &mut rng);
    let mut gm = symbolic_trace(&model).unwrap();
    // Concrete shapes -> estimator -> report renders.
    shape_prop(&mut gm, &[randn(&[2, 128], 8)]).unwrap();
    let report = estimate(&gm, &DeviceSpec::xeon_6138()).unwrap();
    assert!(report.total_flops > 0);
    // Abstract agrees on this model.
    let mut gm2 = symbolic_trace(&model).unwrap();
    let inferred = infer_shapes(&mut gm2, &[vec![2, 128]]).unwrap();
    assert_eq!(inferred["fc5"], vec![2, 128]);
    // DOT renders with shapes.
    let dot = to_dot(&gm, "deeprecommender");
    assert!(dot.contains("shape=[2, 128]"));
}

#[test]
fn cleanup_passes_preserve_semantics_on_transformer() {
    let mut rng = StdRng::seed_from_u64(9);
    let layer = TransformerEncoderLayer::new(16, 2, &mut rng);
    // Batch/seq are shape arguments: specialize them via concrete_args
    // (the paper's §5.2 escape hatch), keeping the tensor symbolic.
    let gm = fx_core::symbolic_trace_concrete(
        &layer,
        std::sync::Arc::new(fx_core::DefaultTracer),
        &[None, Some(Value::Int(2)), Some(Value::Int(3))],
    )
    .unwrap();
    let x = randn(&[2, 3, 16], 10);
    let inputs = [x];
    let y0 = gm.run(&inputs).unwrap();

    let mut cleaned = gm.clone();
    eliminate_common_subexpressions(&mut cleaned).unwrap();
    fold_constants(&mut cleaned).unwrap();
    cleaned.graph_mut().eliminate_dead_code();
    cleaned.recompile().unwrap();
    cleaned.graph().lint().unwrap();
    let y1 = cleaned.run(&inputs).unwrap();
    assert!(y0
        .as_tensor()
        .unwrap()
        .allclose(y1.as_tensor().unwrap(), 1e-5));
}

#[test]
fn split_recombine_identity_on_recommender() {
    let mut rng = StdRng::seed_from_u64(11);
    let model = DeepRecommender::new(64, &mut rng);
    let gm = symbolic_trace(&model).unwrap();
    // Split at every SELU: alternating supported/unsupported partitions.
    let split = split_by(&gm, &|n| !n.target().starts_with("act")).unwrap();
    assert!(split.partitions.len() >= 5);
    let x = randn(&[2, 64], 12);
    let y0 = gm.run(std::slice::from_ref(&x)).unwrap();
    let y1 = split.module.run(std::slice::from_ref(&x)).unwrap();
    assert!(y0
        .as_tensor()
        .unwrap()
        .allclose(y1.as_tensor().unwrap(), 1e-6));
}

#[test]
fn to_folder_writes_sources() {
    let gm = symbolic_trace_fn(1, |xs| func::relu(&xs[0])).unwrap();
    let dir = std::env::temp_dir().join("fx_to_folder_test");
    gm.to_folder(&dir).unwrap();
    let py = std::fs::read_to_string(dir.join("module.py")).unwrap();
    assert!(py.contains("def forward"));
    let rs = std::fs::read_to_string(dir.join("module.rs")).unwrap();
    assert!(rs.contains("fn forward"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn transformer_traces_as_basic_block_program() {
    // §2.3 / §5.5: a Transformer encoder layer is a flat DAG — no control
    // flow anywhere in the captured IR.
    let mut rng = StdRng::seed_from_u64(13);
    let layer = TransformerEncoderLayer::new(32, 4, &mut rng);
    let traced = fx_core::symbolic_trace_concrete(
        &layer,
        std::sync::Arc::new(fx_core::DefaultTracer),
        &[None, Some(Value::Int(1)), Some(Value::Int(4))],
    )
    .unwrap();
    traced.graph().lint().unwrap();
    assert!(traced.graph().len() > 20);
    let x = randn(&[1, 4, 32], 14);
    let y0 = layer
        .forward(&[x.clone(), Value::Int(1), Value::Int(4)])
        .unwrap();
    let y1 = traced.run(&[x]).unwrap();
    assert!(y0
        .as_tensor()
        .unwrap()
        .allclose(y1.as_tensor().unwrap(), 1e-4));
}

/// The differential check behind the one-rule-per-operator table: on
/// `gm`, the rules' shapes equal the shapes a real run is observed to
/// produce at every tensor node; and, where the graph is admitted as
/// batch-polymorphic, one symbolic walk with the batch free, evaluated
/// at `N`, equals the concrete walk at batch `N`.
fn rules_agree_with_observation(label: &str, gm: &GraphModule, inputs: &[Value], polymorphic: bool) {
    let shapes: Vec<Vec<usize>> = inputs
        .iter()
        .map(|v| v.as_tensor().unwrap().shape().to_vec())
        .collect();
    let mut observed = gm.clone();
    shape_prop(&mut observed, inputs).unwrap_or_else(|e| panic!("{label}: run: {e}"));
    let inferred = infer_shapes(&mut gm.clone(), &shapes)
        .unwrap_or_else(|e| panic!("{label}: infer_shapes: {e}"));
    let mut tensor_nodes = 0;
    for node in observed.graph().nodes() {
        if let Some(shape) = node.shape_meta() {
            tensor_nodes += 1;
            assert_eq!(
                inferred.get(node.name()).map(Vec::as_slice),
                Some(shape),
                "{label}: rule and observation disagree at `{}`",
                node.name()
            );
        }
    }
    assert_eq!(tensor_nodes, inferred.len(), "{label}: the rules typed a non-tensor");

    let admitted = batch_polymorphic(gm, &shapes);
    assert_eq!(admitted.is_ok(), polymorphic, "{label}: admission: {admitted:?}");
    if !polymorphic {
        return;
    }
    let batched = |lead: SymDim| -> Vec<Vec<SymDim>> {
        shapes
            .iter()
            .map(|s| {
                std::iter::once(lead.clone())
                    .chain(s[1..].iter().map(|&d| SymDim::Const(d)))
                    .collect()
            })
            .collect()
    };
    let symbolic = infer_sym_shapes(gm, &batched(SymDim::var("N")))
        .unwrap_or_else(|e| panic!("{label}: infer_sym_shapes: {e}"));
    for n in [1usize, 3] {
        let at_n: Vec<Vec<usize>> = batched(SymDim::Const(n))
            .iter()
            .map(|s| s.iter().map(|d| d.as_const().unwrap()).collect())
            .collect();
        let concrete = infer_shapes(&mut gm.clone(), &at_n)
            .unwrap_or_else(|e| panic!("{label}: infer_shapes at batch {n}: {e}"));
        assert_eq!(symbolic.len(), concrete.len(), "{label}: batch {n}");
        let bindings = [("N".to_string(), n)].into_iter().collect();
        for (name, shape) in &symbolic {
            let evaluated: Vec<usize> = shape.iter().map(|d| d.eval(&bindings).unwrap()).collect();
            assert_eq!(Some(&evaluated), concrete.get(name), "{label}: `{name}` at N={n}");
        }
    }
}

/// [`rules_agree_with_observation`] on a model as traced and after every
/// transform that applies to it: conv–BN fusion, the backend's fusion
/// passes, lowering to engine leaves, and PTQ to int8 (then the backend
/// passes over the quantized graph).
fn rules_agree_across_transforms(label: &str, traced: &GraphModule, inputs: &[Value], polymorphic: bool) {
    let check = |what: &str, gm: &GraphModule| {
        rules_agree_with_observation(&format!("{label} ({what})"), gm, inputs, polymorphic)
    };
    check("traced", traced);
    let mut bn_fused = traced.clone();
    fuse_conv_bn(&mut bn_fused).unwrap();
    check("conv-BN fused", &bn_fused);
    let mut fused = traced.clone();
    fx::backend::fuse(&mut fused, CompileOptions::default()).unwrap();
    check("backend-fused", &fused);
    // The walk types tensors only: a lowering whose partitions return
    // tuples (the encoder layer's attention block) is outside it.
    let lowered = lower(traced).unwrap().0;
    if lowered.graph().nodes().all(|n| n.target() != "getitem") {
        check("lowered", &lowered);
    }
    // PTQ needs float inputs to observe.
    if inputs.iter().all(|v| v.as_tensor().unwrap().as_f32().is_ok()) {
        let calibration = vec![inputs.to_vec()];
        let mut int8 = quantize_ptq(&bn_fused, &calibration, &QConfig::default()).unwrap();
        check("PTQ int8", &int8);
        fx::backend::fuse(&mut int8, CompileOptions::default()).unwrap();
        check("PTQ int8, backend-fused", &int8);
    }
}

#[test]
fn shape_rules_match_observed_shapes_across_models_and_transforms() {
    let mut rng = StdRng::seed_from_u64(21);
    let gm = symbolic_trace(&resnet50(3, 10, &mut rng)).unwrap();
    rules_agree_across_transforms("resnet50", &gm, &[randn(&[2, 3, 32, 32], 1)], true);
    let gm = symbolic_trace(&resnet_tiny(&mut rng)).unwrap();
    rules_agree_across_transforms("resnet_tiny", &gm, &[randn(&[2, 3, 32, 32], 2)], true);
    let gm = symbolic_trace(&DeepRecommender::new(64, &mut rng)).unwrap();
    rules_agree_across_transforms("recommender", &gm, &[randn(&[2, 64], 3)], true);
    let gm = symbolic_trace(&LearningToPaintActor::new(&mut rng)).unwrap();
    rules_agree_across_transforms("paint-actor", &gm, &[randn(&[2, 9, 32, 32], 4)], true);

    let fields = [30usize, 20];
    let gm = symbolic_trace(&Dlrm::new(4, &fields, 8, &mut rng)).unwrap();
    let mut inputs = vec![randn(&[2, 4], 5)];
    inputs.extend(fields.iter().map(|&vocab| {
        Value::Tensor(Tensor::from_i64(vec![0, vocab as i64 - 1], &[2]))
    }));
    rules_agree_across_transforms("dlrm", &gm, &inputs, true);

    // The encoder layer bakes (batch, seq_len) into its reshapes: the
    // rules still match observation, and admission must refuse it.
    let layer = TransformerEncoderLayer::new(16, 2, &mut rng);
    let gm = fx_core::symbolic_trace_concrete(
        &layer,
        std::sync::Arc::new(fx_core::DefaultTracer),
        &[None, Some(Value::Int(2)), Some(Value::Int(3))],
    )
    .unwrap();
    rules_agree_across_transforms("transformer", &gm, &[randn(&[2, 3, 16], 6)], false);
}

/// The estimator reads a fused leaf through its function form: backend
/// fusion folds activations into their producers' epilogues, so the
/// fused graph costs what the conv–BN-fused graph costs minus exactly
/// those activations' elementwise FLOPs (it used to cost every fused
/// conv as one op per output element: 629,120 vs 2,203,904 here).
#[test]
fn estimate_sees_through_backend_fusion() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut bn_fused = symbolic_trace(&resnet_tiny(&mut rng)).unwrap();
    fuse_conv_bn(&mut bn_fused).unwrap();
    let mut fused = bn_fused.clone();
    assert!(fx::backend::fuse(&mut fused, CompileOptions::default()).unwrap() > 0);
    let x = randn(&[2, 3, 32, 32], 24);
    let device = DeviceSpec::v100();
    let report = |gm: &mut GraphModule| {
        shape_prop(gm, std::slice::from_ref(&x)).unwrap();
        estimate(gm, &device).unwrap()
    };
    let (before, after) = (report(&mut bn_fused), report(&mut fused));
    let survives = |name: &str| after.nodes.iter().find(|c| c.name == name);
    let mut folded_away = 0;
    for cost in &before.nodes {
        match survives(&cost.name) {
            Some(kept) => assert_eq!(kept.flops, cost.flops, "`{}` changed cost", cost.name),
            None if cost.name.contains("relu") => folded_away += cost.flops,
            // `add` became `add_act`, at the same elementwise cost.
            None => assert!(cost.name.starts_with("add"), "`{}` vanished", cost.name),
        }
    }
    assert!(folded_away > 0);
    assert_eq!(after.total_flops, before.total_flops - folded_away);
}
