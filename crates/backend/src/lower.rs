//! Whole-model lowering with automatic fallback — the fx2trt user flow
//! (§6.4): compile everything the engine supports, leave the rest
//! unfused, and hand back a module that drops in anywhere the original
//! did.

use crate::compile::{compile, is_supported};
use crate::engine::Engine;
use fx_core::{GraphModule, Module, Result, Value};
use fx_passes::{fuse_conv_bn, split_by};
use std::sync::Arc;

/// A compiled [`Engine`] wrapped as a [`Module`], so lowered partitions
/// compose with everything else in the ecosystem (and can even be traced
/// over as opaque leaves).
#[derive(Debug, Clone)]
pub struct EngineModule {
    engine: Engine,
}

impl EngineModule {
    /// Wrap a compiled engine.
    pub fn new(engine: Engine) -> EngineModule {
        EngineModule { engine }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl Module for EngineModule {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        self.engine.graph_module().forward(inputs)
    }

    fn type_name(&self) -> &'static str {
        "EngineModule"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        format!("{} fused instructions", self.engine.instruction_count())
    }
}

/// Statistics about a lowering.
#[derive(Debug, Clone, Default)]
pub struct LowerReport {
    /// Partitions compiled into engines.
    pub engine_partitions: usize,
    /// Partitions left unfused.
    pub fallback_partitions: usize,
    /// Total fused engine instructions.
    pub engine_instructions: usize,
    /// Source-graph node count (after conv–BN fusion).
    pub source_nodes: usize,
}

/// Lower a traced model: fuse conv–BN, split by engine support, compile
/// each supported partition to an [`EngineModule`], and return the
/// recombined module plus a report.
///
/// The result runs anywhere the original [`GraphModule`] did; paper-wise
/// this is "automatic splitting of the model based on [the backend]'s
/// supported operators and automatically scheduling unsupported
/// operations in non-optimized blocks".
pub fn lower(gm: &GraphModule) -> Result<(GraphModule, LowerReport)> {
    let mut fused = gm.clone();
    fuse_conv_bn(&mut fused)?;
    fused.graph_mut().eliminate_dead_code();
    fused.recompile()?;

    let split = split_by(&fused, &|node| is_supported(&fused, node))?;
    let mut parent = split.module;
    let mut report = LowerReport {
        source_nodes: fused.graph().len(),
        ..Default::default()
    };
    for part in &split.partitions {
        if part.supported {
            let sub = parent
                .get_module(&part.name)
                .and_then(|m| m.as_any().downcast_ref::<GraphModule>().cloned())
                .expect("split partitions are GraphModules");
            // Conv–BN pairs were folded above, before the split could
            // separate them; compile finds none left.
            let engine = compile(&sub)?;
            report.engine_partitions += 1;
            report.engine_instructions += engine.instruction_count();
            parent.set_module(&part.name, Arc::new(EngineModule::new(engine)));
        } else {
            report.fallback_partitions += 1;
        }
    }
    Ok((parent, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{func, symbolic_trace, symbolic_trace_fn};
    use fx_models::{resnet_tiny, LearningToPaintActor};
    use fx_tensor::rng::{SeedableRng, StdRng};
    use fx_tensor::Tensor;

    #[test]
    fn fully_supported_model_lowers_to_one_engine() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = resnet_tiny(&mut rng);
        let gm = symbolic_trace(&model).unwrap();
        let (lowered, report) = lower(&gm).unwrap();
        assert_eq!(report.engine_partitions, 1);
        assert_eq!(report.fallback_partitions, 0);
        let x = Value::Tensor(Tensor::randn(&[1, 3, 32, 32], &mut rng));
        let y0 = gm.run(&[x.clone()]).unwrap();
        let y1 = lowered.run(&[x]).unwrap();
        assert!(y0
            .as_tensor()
            .unwrap()
            .allclose(y1.as_tensor().unwrap(), 1e-2));
    }

    #[test]
    fn unsupported_island_falls_back() {
        let gm = symbolic_trace_fn(1, |xs| {
            let a = func::relu(&xs[0])?; // engine
            let b = func::softmax(&a, -1)?; // fallback
            func::neg(&b) // engine
        })
        .unwrap();
        let (lowered, report) = lower(&gm).unwrap();
        assert_eq!(report.engine_partitions, 2);
        assert_eq!(report.fallback_partitions, 1);
        let x = Value::Tensor(Tensor::from_vec(vec![0.1, 0.9, -1.0], &[1, 3]));
        let y0 = gm.run(&[x.clone()]).unwrap();
        let y1 = lowered.run(&[x]).unwrap();
        assert!(y0
            .as_tensor()
            .unwrap()
            .allclose(y1.as_tensor().unwrap(), 1e-5));
    }

    #[test]
    fn learning_to_paint_lowers_whole() {
        let mut rng = StdRng::seed_from_u64(1);
        let actor = LearningToPaintActor::new(&mut rng);
        let gm = symbolic_trace(&actor).unwrap();
        let (lowered, report) = lower(&gm).unwrap();
        assert_eq!(report.fallback_partitions, 0, "sigmoid head is supported");
        let x = Value::Tensor(Tensor::randn(&[1, 9, 32, 32], &mut rng));
        let y0 = gm.run(&[x.clone()]).unwrap();
        let y1 = lowered.run(&[x]).unwrap();
        assert!(y0
            .as_tensor()
            .unwrap()
            .allclose(y1.as_tensor().unwrap(), 1e-3));
    }

    #[test]
    fn engine_module_is_traceable_as_leaf() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = resnet_tiny(&mut rng);
        let gm = symbolic_trace(&model).unwrap();
        let (lowered, _) = lower(&gm).unwrap();
        // Re-trace the lowered model: engine partitions appear as opaque
        // call_module nodes.
        let retraced = symbolic_trace(&lowered).unwrap();
        assert!(retraced
            .graph()
            .nodes()
            .any(|n| n.target().starts_with("submod_")));
        let x = Value::Tensor(Tensor::randn(&[1, 3, 32, 32], &mut rng));
        let y0 = lowered.run(&[x.clone()]).unwrap();
        let y1 = retraced.run(&[x]).unwrap();
        assert_eq!(
            y0.as_tensor().unwrap().shape(),
            y1.as_tensor().unwrap().shape()
        );
    }
}
