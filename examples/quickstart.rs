//! Quickstart: the torch.fx paper's Figures 1–3, reproduced end to end.
//!
//! 1. **Capture** (Figure 1): symbolically trace `relu(x).neg()` and
//!    print the 6-opcode IR and the generated code.
//! 2. **Transform** (Figure 2): replace every `relu` with `gelu` by
//!    editing graph nodes directly.
//! 3. **Compose & re-capture** (Figure 3): install the transformed
//!    program as a submodule of a new model and symbolically trace the
//!    result — the generated code inlines the transformed body.
//!
//! Run: `cargo run --release --example quickstart`

use fx::prelude::*;
use fx_core::ArcModule;
use std::sync::Arc;

/// Figure 2's transform: find all instances of one activation function
/// and replace them with another, directly in Python— er, Rust.
fn replace_activation(gm: &mut GraphModule, from: &str, to: &str) -> usize {
    let targets: Vec<_> = gm
        .graph()
        .nodes()
        .filter(|n| n.op() == Opcode::CallFunction && n.target() == from)
        .map(|n| n.id())
        .collect();
    let count = targets.len();
    for id in &targets {
        gm.graph_mut()
            .set_target(*id, to)
            .expect("node id taken from a live graph walk");
    }
    gm.recompile().expect("edited graph still lints");
    count
}

/// Figure 3's `SampleModule`: `return self.act(x + pi)`.
#[derive(Debug)]
struct SampleModule {
    act: ArcModule,
}

impl Module for SampleModule {
    fn forward(&self, xs: &[Value]) -> fx::core::Result<Value> {
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

fn main() {
    // ----- Figure 1: program capture via symbolic tracing -----
    println!("=== Figure 1: capture ===\n");
    let traced = symbolic_trace_fn(1, |xs| func::relu(&xs[0])?.neg()).expect("trace");
    for node in traced.graph().nodes() {
        println!("{node}");
    }
    println!("\n{}", traced.code());

    // It runs like the original function.
    let x = Value::Tensor(fx::tensor::Tensor::from_vec(vec![-1.0, 2.0], &[2]));
    let y = traced.run(&[x.clone()]).expect("run");
    println!("traced([-1, 2]) = {:?}\n", y.as_tensor().unwrap().as_f32().unwrap());

    // ----- Figure 2: a transform written directly against the IR -----
    println!("=== Figure 2: replace relu with gelu ===\n");
    let mut transformed = traced.clone();
    let n = replace_activation(&mut transformed, "relu", "gelu");
    println!("replaced {n} activation(s):\n\n{}", transformed.code());

    // ----- Figure 3: compose and re-capture -----
    println!("=== Figure 3: compose into SampleModule and re-trace ===\n");
    let sm = SampleModule {
        act: Arc::new(transformed),
    };
    let retraced = symbolic_trace(&sm).expect("re-trace");
    println!("{}", retraced.code());
    println!("graph, tabular:\n{}", retraced.graph().tabular());

    let y = retraced.run(&[x]).expect("run retraced");
    println!(
        "retraced([-1, 2]) = {:?}",
        y.as_tensor().unwrap().as_f32().unwrap()
    );
}
