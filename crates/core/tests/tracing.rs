//! Integration tests for the symbolic tracer: leaf decisions, attribute
//! capture, tensor-constant promotion, custom tracers, concrete args,
//! multi-output graphs, error paths, and re-tracing.

use fx_core::{
    func, named_parameters, symbolic_trace, symbolic_trace_concrete, symbolic_trace_fn,
    symbolic_trace_with, ArcModule, DefaultTracer, Error, Graph, Meta, Module, ModuleExt,
    NodeId, Opcode, Result, Tracer, Value,
};
use fx_tensor::Tensor;
use std::sync::Arc;

/// A leaf layer: y = x * w.
#[derive(Debug)]
struct Scale {
    w: Tensor,
}

impl Module for Scale {
    fn forward(&self, xs: &[Value]) -> Result<Value> {
        let w = self.attr("w")?;
        func::mul(&xs[0], &w)
    }
    fn type_name(&self) -> &'static str {
        "Scale"
    }
    fn own_parameters(&self) -> Vec<(String, Tensor)> {
        vec![("w".to_string(), self.w.clone())]
    }
    fn is_builtin_leaf(&self) -> bool {
        true
    }
}

/// A user container: y = inner(x) + inner(x).
#[derive(Debug)]
struct Doubler {
    inner: ArcModule,
}

impl Module for Doubler {
    fn forward(&self, xs: &[Value]) -> Result<Value> {
        let a = self.inner.call(&[xs[0].clone()])?;
        let b = self.inner.call(&[xs[0].clone()])?;
        func::add(&a, &b)
    }
    fn type_name(&self) -> &'static str {
        "Doubler"
    }
    fn children(&self) -> Vec<(String, ArcModule)> {
        vec![("inner".to_string(), self.inner.clone())]
    }
}

fn doubler() -> Doubler {
    Doubler {
        inner: Arc::new(Scale {
            w: Tensor::full(&[2], 3.0),
        }),
    }
}

#[test]
fn leaf_module_becomes_call_module() {
    let traced = symbolic_trace(&doubler()).unwrap();
    let calls: Vec<&str> = traced
        .graph()
        .nodes()
        .filter(|n| n.op() == Opcode::CallModule)
        .map(|n| n.target())
        .collect();
    assert_eq!(calls, vec!["inner", "inner"], "two calls to the same leaf");
    // The leaf's internals (mul, get_attr) do NOT appear.
    assert!(!traced.graph().nodes().any(|n| n.target() == "mul"));
}

#[test]
fn non_leaf_traces_through_to_get_attr() {
    struct Everything;
    impl Tracer for Everything {
        fn is_leaf_module(&self, _m: &dyn Module, _q: &str) -> bool {
            false
        }
    }
    let traced = symbolic_trace_with(&doubler(), Arc::new(Everything)).unwrap();
    // Now the Scale internals are visible: get_attr inner.w + mul.
    assert!(traced
        .graph()
        .nodes()
        .any(|n| n.op() == Opcode::GetAttr && n.target() == "inner.w"));
    assert!(traced.graph().nodes().any(|n| n.target() == "mul"));
    assert!(traced.graph().nodes().all(|n| n.op() != Opcode::CallModule));
    // Attr resolved into the GraphModule state.
    assert!(traced.get_attr_tensor("inner.w").is_some());
    // Semantics: 3x + 3x = 6x.
    let y = traced
        .run(&[Value::Tensor(Tensor::ones(&[2]))])
        .unwrap();
    assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[6.0, 6.0]);
}

#[test]
fn tensor_constants_are_promoted_to_attrs() {
    let k = Tensor::from_vec(vec![10.0, 20.0], &[2]);
    let traced = symbolic_trace_fn(1, move |xs| func::add(&xs[0], &Value::Tensor(k.clone())))
        .unwrap();
    assert!(traced
        .graph()
        .nodes()
        .any(|n| n.op() == Opcode::GetAttr && n.target() == "_tensor_constant0"));
    assert!(traced.get_attr_tensor("_tensor_constant0").is_some());
    let y = traced
        .run(&[Value::Tensor(Tensor::ones(&[2]))])
        .unwrap();
    assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[11.0, 21.0]);
}

#[test]
fn proxy_free_subexpressions_partially_evaluate() {
    // §5.3: ops on concrete values during tracing run eagerly and appear
    // as immediates, not nodes.
    let traced = symbolic_trace_fn(1, |xs| {
        let two = func::add(&Value::Float(1.0), &Value::Float(1.0))?; // eager
        let two = two.as_tensor()?.item_f32()?;
        func::mul(&xs[0], &Value::Float(two as f64))
    })
    .unwrap();
    assert_eq!(traced.graph().len(), 3, "{}", traced.graph());
    assert!(traced.code().contains("x * 2.0"), "{}", traced.code());
}

#[test]
fn nested_trace_is_rejected() {
    let result = symbolic_trace_fn(1, |xs| {
        // Attempting to start another trace while tracing must fail.
        let inner = symbolic_trace_fn(1, |ys| func::relu(&ys[0]));
        assert!(matches!(inner, Err(Error::Trace(_))));
        func::relu(&xs[0])
    });
    assert!(result.is_ok(), "outer trace survives the rejected inner one");
}

#[test]
fn custom_tracer_on_node_attaches_metadata() {
    struct Annotate;
    impl Tracer for Annotate {
        fn on_node(&self, graph: &mut Graph, node: NodeId) {
            graph
                .node_meta_mut(node)
                .insert("origin".to_string(), Meta::Str("annotated".to_string()));
        }
    }
    let traced = symbolic_trace_with(&doubler(), Arc::new(Annotate)).unwrap();
    let annotated = traced
        .graph()
        .nodes()
        .filter(|n| n.meta.get("origin").is_some())
        .count();
    assert!(annotated >= 3, "call_modules and add carry metadata");
}

#[test]
fn concrete_args_bake_in_values() {
    #[derive(Debug)]
    struct TwoInput;
    impl Module for TwoInput {
        fn forward(&self, xs: &[Value]) -> Result<Value> {
            let n = xs[1].try_int()?; // requires a concrete int
            let mut acc = xs[0].clone();
            for _ in 0..n {
                acc = func::relu(&acc)?;
            }
            Ok(acc)
        }
        fn type_name(&self) -> &'static str {
            "TwoInput"
        }
        fn input_names(&self) -> Vec<String> {
            vec!["x".to_string(), "n".to_string()]
        }
    }
    // Without concrete args: the §5.3 error.
    let err = symbolic_trace(&TwoInput).unwrap_err();
    assert!(matches!(err, Error::DataDependentControlFlow { .. }));
    // With n = 3 concrete: the loop unrolls into 3 relu nodes.
    let traced =
        symbolic_trace_concrete(&TwoInput, Arc::new(DefaultTracer), &[None, Some(Value::Int(3))])
            .unwrap();
    let relus = traced
        .graph()
        .nodes()
        .filter(|n| n.target() == "relu")
        .count();
    assert_eq!(relus, 3);
    assert_eq!(traced.placeholder_names(), vec!["x".to_string()]);
}

#[test]
fn tuple_outputs_round_trip() {
    let traced = symbolic_trace_fn(1, |xs| {
        let a = func::relu(&xs[0])?;
        let b = func::neg(&xs[0])?;
        Ok(Value::Tuple(vec![a, b]))
    })
    .unwrap();
    traced.graph().lint().unwrap();
    let y = traced
        .run(&[Value::Tensor(Tensor::from_vec(vec![-1.0, 2.0], &[2]))])
        .unwrap();
    match y {
        Value::Tuple(items) => {
            assert_eq!(items[0].as_tensor().unwrap().as_f32().unwrap(), &[0.0, 2.0]);
            assert_eq!(items[1].as_tensor().unwrap().as_f32().unwrap(), &[1.0, -2.0]);
        }
        other => panic!("expected tuple, got {other:?}"),
    }
}

#[test]
fn trace_error_uninstalls_session() {
    // A forward that fails mid-trace must not leave the thread-local
    // session installed.
    let r = symbolic_trace_fn(1, |_| -> Result<Value> {
        Err(Error::Trace("deliberate".to_string()))
    });
    assert!(r.is_err());
    // A following trace works.
    let ok = symbolic_trace_fn(1, |xs| func::relu(&xs[0]));
    assert!(ok.is_ok());
}

#[test]
fn retrace_of_graphmodule_is_flat_and_equivalent() {
    let traced = symbolic_trace(&doubler()).unwrap();
    let retraced = symbolic_trace(&traced).unwrap();
    retraced.graph().lint().unwrap();
    let x = Value::Tensor(Tensor::from_vec(vec![1.5, -2.0], &[2]));
    let a = traced.run(std::slice::from_ref(&x)).unwrap();
    let b = retraced.run(std::slice::from_ref(&x)).unwrap();
    assert_eq!(a, b);
}

#[test]
fn graphmodule_parameters_visible_to_hierarchy_walks() {
    let traced = symbolic_trace(&doubler()).unwrap();
    let names: Vec<String> = named_parameters(&traced)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert!(names.contains(&"inner.w".to_string()), "{names:?}");
}

#[test]
fn wrong_arity_reported() {
    let traced = symbolic_trace(&doubler()).unwrap();
    let err = traced.forward(&[]).unwrap_err();
    assert!(err.to_string().contains("expects 1 inputs"));
}
