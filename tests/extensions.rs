//! Integration tests for the paper-adjacent extensions (DESIGN.md §7):
//! symbolic shapes, QAT, the DLRM and LSTM models, concrete_args, and
//! the backend ablation knobs — exercised end to end through the public
//! facade.

use fx::backend::{compile_with, lower, CompileOptions};
use fx::passes::{infer_sym_shapes, shape_prop, SymDim};
use fx::prelude::*;
use fx::quant::{convert_qat, prepare_qat};
use fx_models::{resnet_tiny, Dlrm, Lstm, Mlp};
use fx_tensor::rng::StdRng;
use fx_tensor::rng::{Rng, SeedableRng};

#[test]
fn symbolic_batch_flows_through_resnet_and_binds_correctly() {
    let mut rng = StdRng::seed_from_u64(0);
    let model = resnet_tiny(&mut rng);
    let gm = symbolic_trace(&model).unwrap();
    let shapes = infer_sym_shapes(
        &gm,
        &[vec![
            SymDim::var("N"),
            SymDim::Const(3),
            SymDim::Const(32),
            SymDim::Const(32),
        ]],
    )
    .unwrap();
    let out = &shapes["output"];
    assert_eq!(out[0], SymDim::var("N"));
    assert_eq!(out[1], SymDim::Const(10));
    // Bind N=2 and cross-check against an actual run.
    let mut bindings = std::collections::HashMap::new();
    bindings.insert("N".to_string(), 2usize);
    let evaled: Vec<usize> = out.iter().map(|d| d.eval(&bindings).unwrap()).collect();
    let x = Value::Tensor(Tensor::randn(&[2, 3, 32, 32], &mut rng));
    let y = gm.run(&[x]).unwrap();
    assert_eq!(y.as_tensor().unwrap().shape(), evaled.as_slice());
}

#[test]
fn qat_then_convert_then_lower_composes() {
    let mut rng = StdRng::seed_from_u64(1);
    let model = Mlp::new(&[8, 16, 4], &mut rng);
    let gm = symbolic_trace(&model).unwrap();
    let qat = prepare_qat(&gm).unwrap();
    for _ in 0..4 {
        let x = Value::Tensor(Tensor::rand_uniform(&[4, 8], -1.0, 1.0, &mut rng));
        qat.run(&[x]).unwrap();
    }
    let converted = convert_qat(&qat).unwrap();
    // Quantized ops fall back on the interpreter when lowered.
    let (lowered, report) = lower(&converted).unwrap();
    assert!(report.fallback_partitions > 0);
    let x = Value::Tensor(Tensor::rand_uniform(&[2, 8], -1.0, 1.0, &mut rng));
    let a = converted.run(std::slice::from_ref(&x)).unwrap();
    let b = lowered.run(std::slice::from_ref(&x)).unwrap();
    assert!(a
        .as_tensor()
        .unwrap()
        .allclose(b.as_tensor().unwrap(), 1e-5));
}

#[test]
fn dlrm_traces_shapes_and_survives_shape_prop() {
    let mut rng = StdRng::seed_from_u64(2);
    let fields = [40usize, 25];
    let model = Dlrm::new(4, &fields, 8, &mut rng);
    let mut gm = symbolic_trace(&model).unwrap();
    let mut inputs = vec![Value::Tensor(Tensor::rand_uniform(&[3, 4], 0.0, 1.0, &mut rng))];
    for &v in &fields {
        let idx: Vec<i64> = (0..3).map(|_| rng.gen_range(0..v as i64)).collect();
        inputs.push(Value::Tensor(Tensor::from_i64(idx, &[3])));
    }
    let out = shape_prop(&mut gm, &inputs).unwrap();
    assert_eq!(out.as_tensor().unwrap().shape(), &[3, 1]);
    // Embedding lookups got i64 dtype metadata; the matmul interaction
    // node exists with a [3, 3, 3] shape (F+1 = 3 features).
    let inter = gm
        .graph()
        .nodes()
        .find(|n| n.target() == "matmul")
        .unwrap();
    assert_eq!(inter.shape_meta(), Some(&[3usize, 3, 3][..]));
}

#[test]
fn lstm_in_a_lowered_pipeline_falls_back_gracefully() {
    // An Lstm leaf is not engine-supported; lower() must fall back while
    // the surrounding ops still compile.
    #[derive(Debug)]
    struct SeqClassifier {
        lstm: fx_core::ArcModule,
        head: fx_core::ArcModule,
    }
    impl Module for SeqClassifier {
        fn forward(&self, xs: &[Value]) -> fx_core::Result<Value> {
            let h = self.lstm.call(&[xs[0].clone()])?;
            let pooled = fx_core::func::mean_dim(&h, 1, false)?;
            let logits = self.head.call(&[pooled])?;
            fx_core::func::relu(&logits)
        }
        fn type_name(&self) -> &'static str {
            "SeqClassifier"
        }
        fn children(&self) -> Vec<(String, fx_core::ArcModule)> {
            vec![
                ("lstm".to_string(), self.lstm.clone()),
                ("head".to_string(), self.head.clone()),
            ]
        }
    }
    let mut rng = StdRng::seed_from_u64(3);
    let model = SeqClassifier {
        lstm: std::sync::Arc::new(Lstm::new(4, 6, &mut rng)),
        head: std::sync::Arc::new(fx::nn::Linear::new(6, 3, &mut rng)),
    };
    let gm = symbolic_trace(&model).unwrap();
    let (lowered, report) = lower(&gm).unwrap();
    assert!(report.fallback_partitions >= 1, "lstm must fall back");
    assert!(report.engine_partitions >= 1, "head+relu must compile");
    let x = Value::Tensor(Tensor::randn(&[2, 5, 4], &mut rng));
    let a = gm.run(std::slice::from_ref(&x)).unwrap();
    let b = lowered.run(std::slice::from_ref(&x)).unwrap();
    assert!(a
        .as_tensor()
        .unwrap()
        .allclose(b.as_tensor().unwrap(), 1e-5));
}

#[test]
fn ablation_knobs_preserve_semantics_everywhere() {
    let mut rng = StdRng::seed_from_u64(4);
    let model = resnet_tiny(&mut rng);
    let gm = symbolic_trace(&model).unwrap();
    let x = Tensor::randn(&[1, 3, 32, 32], &mut rng);
    let reference = compile_with(&gm, CompileOptions::default())
        .unwrap()
        .run(std::slice::from_ref(&x))
        .unwrap();
    let no_bn_fold = compile_with(&gm, CompileOptions { fuse_conv_bn: false })
        .unwrap()
        .run(std::slice::from_ref(&x))
        .unwrap();
    assert!(
        no_bn_fold.allclose(&reference, 1e-2),
        "ablation `no_bn_fold` changed results"
    );
}

#[test]
fn concrete_args_compose_with_backend_lowering() {
    // Specialize a shape-dependent function, then lower the specialized
    // capture.
    let gm = symbolic_trace_fn(1, |xs| {
        let flat = fx_core::func::flatten(&xs[0], 1, -1)?;
        fx_core::func::relu(&flat)
    })
    .unwrap();
    let (lowered, report) = lower(&gm).unwrap();
    assert_eq!(report.fallback_partitions, 0);
    let x = Value::Tensor(Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[1, 2, 2]));
    let y = lowered.run(&[x]).unwrap();
    assert_eq!(
        y.as_tensor().unwrap().as_f32().unwrap(),
        &[0.0, 2.0, 0.0, 4.0]
    );
}

/// A user layer written with only what a module knows: its `forward`,
/// its name, and that it is a leaf. It writes no downcasting method.
#[derive(Debug)]
struct Shift {
    by: f64,
}

impl Module for Shift {
    fn forward(&self, xs: &[Value]) -> fx_core::Result<Value> {
        fx_core::func::add(&xs[0], &Value::Float(self.by))
    }
    fn type_name(&self) -> &'static str {
        "Shift"
    }
    fn is_builtin_leaf(&self) -> bool {
        true
    }
}

#[derive(Debug)]
struct ShiftThenRelu {
    shift: fx_core::ArcModule,
}

impl Module for ShiftThenRelu {
    fn forward(&self, xs: &[Value]) -> fx_core::Result<Value> {
        let shifted = self.shift.call(xs)?;
        fx_core::func::relu(&shifted)
    }
    fn type_name(&self) -> &'static str {
        "ShiftThenRelu"
    }
    fn children(&self) -> Vec<(String, fx_core::ArcModule)> {
        vec![("shift".to_string(), self.shift.clone())]
    }
}

#[test]
fn a_user_leaf_downcasts_without_writing_as_any() {
    let model = ShiftThenRelu {
        shift: std::sync::Arc::new(Shift { by: 0.5 }),
    };
    let gm = symbolic_trace(&model).unwrap();
    let leaf = gm
        .graph()
        .nodes()
        .find(|n| n.op() == Opcode::CallModule)
        .expect("the user layer is traced as a leaf");
    assert_eq!(leaf.target(), "shift");
    let module = gm.get_module("shift").unwrap();
    let shift = module.as_any().downcast_ref::<Shift>();
    assert_eq!(shift.map(|s| s.by), Some(0.5));
    // `as_any` on an `ArcModule` reaches the module, not the `Arc`.
    assert!(!module.as_any().is::<fx_core::ArcModule>());
    let x = Value::Tensor(Tensor::from_vec(vec![-1.0, 1.0], &[2]));
    let y = gm.run(&[x]).unwrap();
    assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[0.0, 1.5]);
}
