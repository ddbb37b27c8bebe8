//! Golden end-to-end tests for the paper's Figures 1–4: exact IR dumps,
//! exact generated code, the activation-replacement transform, the
//! compose-and-retrace flow, and the §5.3 data-dependent-control-flow
//! error.

use fx::prelude::*;
use fx_core::ArcModule;
use std::sync::Arc;

fn figure1_traced() -> GraphModule {
    // def my_func(x): return torch.relu(x).neg()
    symbolic_trace_fn(1, |xs| func::relu(&xs[0])?.neg()).expect("trace")
}

#[test]
fn figure1_ir_dump_matches_paper() {
    let traced = figure1_traced();
    let expected = "\
x = placeholder target=x args=()
relu = call_function target=relu args=(x,)
neg = call_method target=neg args=(relu,)
output = output target=output args=(neg,)
";
    assert_eq!(traced.graph().to_string(), expected);
}

#[test]
fn figure1_generated_code_matches_paper() {
    let traced = figure1_traced();
    let expected = "\
def forward(self, x):
    relu = torch.relu(x);  x = None
    neg = relu.neg();  relu = None
    return neg
";
    assert_eq!(traced.code(), expected);
}

#[test]
fn figure1_traced_executes_like_eager() {
    let traced = figure1_traced();
    let x = Value::Tensor(Tensor::from_vec(vec![-3.0, 0.0, 5.0], &[3]));
    let y = traced.run(&[x]).unwrap();
    assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[0.0, 0.0, -5.0]);
}

/// Figure 2's transform, verbatim logic: swap one activation for
/// another by retargeting nodes.
fn replace_activation(gm: &mut GraphModule, from: &str, to: &str) -> usize {
    let ids: Vec<_> = gm
        .graph()
        .nodes()
        .filter(|n| n.op() == Opcode::CallFunction && n.target() == from)
        .map(|n| n.id())
        .collect();
    for id in &ids {
        gm.graph_mut().set_target(*id, to).unwrap();
    }
    gm.recompile().unwrap();
    ids.len()
}

#[test]
fn figure2_activation_swap() {
    let mut traced = figure1_traced();
    assert_eq!(replace_activation(&mut traced, "relu", "gelu"), 1);
    assert!(traced.code().contains("torch.gelu(x)"));
    assert!(!traced.code().contains("torch.relu"));
    // gelu(-1).neg() != relu(-1).neg(): semantics actually changed.
    let x = Value::Tensor(Tensor::from_vec(vec![-1.0], &[1]));
    let y = traced.run(&[x]).unwrap();
    let out = y.as_tensor().unwrap().as_f32().unwrap()[0];
    assert!(out > 0.0 && out < 0.2, "gelu(-1) ~ -0.158, negated: {out}");
}

#[derive(Debug)]
struct SampleModule {
    act: ArcModule,
}

impl Module for SampleModule {
    fn forward(&self, xs: &[Value]) -> fx_core::Result<Value> {
        let shifted = func::add(&xs[0], &Value::Float(std::f64::consts::PI))?;
        self.act.call(&[shifted])
    }
    fn type_name(&self) -> &'static str {
        "SampleModule"
    }
    fn children(&self) -> Vec<(String, ArcModule)> {
        vec![("act".to_string(), self.act.clone())]
    }
}

#[test]
fn figure3_compose_and_retrace_inlines_transformed_code() {
    let mut inner = figure1_traced();
    replace_activation(&mut inner, "relu", "gelu");
    let sm = SampleModule {
        act: Arc::new(inner),
    };
    let retraced = symbolic_trace(&sm).expect("re-trace");
    let code = retraced.code();
    // The paper's Figure 3 output: add, then the *inlined* gelu and neg.
    assert!(code.contains("add = x + 3.141592653589793"), "{code}");
    assert!(code.contains("torch.gelu(add)"), "{code}");
    assert!(code.contains(".neg()"), "{code}");
    // No call_module remains — the GraphModule was traced through.
    assert!(
        retraced.graph().nodes().all(|n| n.op() != Opcode::CallModule),
        "{code}"
    );

    // And it computes gelu(x + pi).neg().
    let x = Value::Tensor(Tensor::from_vec(vec![0.0], &[1]));
    let y = retraced.run(&[x]).unwrap();
    let expect = {
        let v = std::f32::consts::PI;
        -(0.5 * v * (1.0 + (0.797_884_6 * (v + 0.044_715 * v * v * v)).tanh()))
    };
    assert!((y.as_tensor().unwrap().as_f32().unwrap()[0] - expect).abs() < 1e-5);
}

/// §5.3 / Figure 4 territory: symbolic tracing cannot observe
/// data-dependent control flow and must error with a pointer at the
/// offending value rather than silently specialize.
#[test]
fn data_dependent_control_flow_errors_loudly() {
    let result = symbolic_trace_fn(1, |xs| {
        let s = xs[0].size()?; // recorded as a node; still a proxy
        let first = func::getitem(&s, 0)?; // proxy
        // "if first > 0 { .. }" requires a concrete bool:
        match first.try_int() {
            Ok(_) => panic!("proxy must not convert to a concrete int"),
            Err(e) => Err(e),
        }
    });
    let err = result.unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("getitem"), "error should name the node: {msg}");
    assert!(msg.contains("§5.3") || msg.contains("specialize"), "{msg}");
}

/// §5.1: tracing *through* non-input-dependent control flow (the loop
/// inside Sequential) eliminates it from the IR.
#[test]
fn sequential_loop_is_unrolled() {
    use fx::nn::{Linear, ReLU, Sequential};
    use fx_tensor::rng::{SeedableRng, StdRng};
    let mut rng = StdRng::seed_from_u64(0);
    let seq = Sequential::new(vec![
        Arc::new(Linear::new(4, 4, &mut rng)),
        Arc::new(ReLU),
        Arc::new(Linear::new(4, 4, &mut rng)),
        Arc::new(ReLU),
    ]);
    let traced = symbolic_trace(&seq).unwrap();
    // Flat basic-block program: 4 call_modules, no loop structure at all.
    let calls = traced
        .graph()
        .nodes()
        .filter(|n| n.op() == Opcode::CallModule)
        .count();
    assert_eq!(calls, 4);
    traced.graph().lint().unwrap();
}
