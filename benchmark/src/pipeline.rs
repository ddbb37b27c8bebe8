//! The capture → transform pipeline, one span per stage.
//!
//! It is the whole op of `transform_resnet50` and the set-up of every
//! other workload, so each stage is timed the same way wherever it
//! runs: `symbolic_trace` → `shape_prop` → `fuse_conv_bn` → CSE →
//! const-fold → `validate` → `exec_plan` → `fx_backend::compile` → PTQ
//! `prepare` / `calibrate` / `convert`.

use crate::layers::{self, GraphModule, Module, Res, Value};
use crate::span::Recorder;

/// Which optional stages run.
pub struct Recipe<'a> {
    /// Fold conv–BN pairs (off for `exec_tiny_f32`, which runs the
    /// graph exactly as traced).
    pub fuse: bool,
    /// Lower the f32 graph with `fx_backend::compile`.
    pub backend: bool,
    /// Post-training-quantize the f32 graph, calibrating on these.
    pub calibration: Option<&'a [Vec<Value>]>,
}

/// Exact counts the pipeline produced; they repeat run to run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facts {
    pub nodes_after_trace: usize,
    pub fusions_applied: usize,
    pub nodes_after_fuse: usize,
    pub cse_applied: usize,
    pub constfold_applied: usize,
    /// Plan compilations the module had seen before the pipeline's own
    /// `exec_plan` call (`shape_prop` runs the executor once, on the
    /// pre-fusion graph).
    pub compiles_before_plan: u64,
    pub engine_instructions: Option<usize>,
    pub observers: Option<usize>,
    pub nodes_after_convert: Option<usize>,
}

pub struct Compiled {
    /// The traced (and, per recipe, fused) f32 graph, plan cached.
    pub f32: GraphModule,
    pub int8: Option<GraphModule>,
    pub facts: Facts,
}

pub fn compile(
    model: &dyn Module,
    sample: &[Value],
    recipe: &Recipe<'_>,
    rec: &mut Recorder,
) -> Res<Compiled> {
    let mut facts = Facts::default();

    let mut gm = rec.time("fx_core.trace", || layers::symbolic_trace(model))?;
    facts.nodes_after_trace = layers::node_count(&gm);
    rec.time("fx_passes.shape_prop", || {
        layers::shape_prop(&mut gm, sample)
    })?;
    if recipe.fuse {
        facts.fusions_applied = rec.time("fx_passes.fuse", || layers::fuse_conv_bn(&mut gm))?;
    }
    facts.nodes_after_fuse = layers::node_count(&gm);
    facts.cse_applied = rec.time("fx_passes.cse", || {
        layers::eliminate_common_subexpressions(&mut gm)
    })?;
    facts.constfold_applied =
        rec.time("fx_passes.constfold", || layers::fold_constants(&mut gm))?;
    rec.time("fx_core.validate", || layers::validate(&gm))?;
    let (_, _, compiles, _) = rec.time("fx_core.exec_plan.compile", || layers::exec_plan(&gm))?;
    facts.compiles_before_plan = compiles - 1;

    if recipe.backend {
        let engine = rec.time("fx_backend.compile", || layers::backend_compile(&gm))?;
        facts.engine_instructions = Some(layers::instruction_count(&engine));
    }

    let int8 = match recipe.calibration {
        None => None,
        Some(batches) => {
            let observed = rec.time("fx_quant.prepare", || layers::quant_prepare(&gm))?;
            facts.observers = Some(
                layers::modules(&observed)
                    .filter(|m| layers::is_observer(*m))
                    .count(),
            );
            rec.time("fx_quant.calibrate", || {
                layers::quant_calibrate(&observed, batches)
            })?;
            let converted = rec.time("fx_quant.convert", || layers::quant_convert(&observed))?;
            facts.nodes_after_convert = Some(layers::node_count(&converted));
            Some(converted)
        }
    };

    Ok(Compiled {
        f32: gm,
        int8,
        facts,
    })
}
