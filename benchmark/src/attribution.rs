//! Per-node attribution of an executor run: which `fx_tensor` op class
//! each executed node belongs to, what it costs on paper, and the
//! profiled run that hangs `RunProfile.node_times` under the
//! `fx_core.executor.run` span.
//!
//! FLOPs and bytes are **computed** (`estimator::node_cost`), never
//! measured, and the roofline peak is `DeviceSpec::host_cpu_single_core`
//! — a nominal figure, not a property read from this host.

use crate::layers::{self, GraphModule, Node, Opcode, Res, Value};
use crate::metrics;
use crate::span::{Agg, Recorder};
use std::collections::BTreeMap;

/// An op class of `fx_tensor::ops`. Every call node falls in exactly
/// one; `Unclassified` exists so that a node this table does not know
/// shows up as busy time under its own name instead of vanishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Conv,
    Linear,
    Norm,
    Elementwise,
    Pool2d,
    QuantBoundary,
    Shape,
    Unclassified,
}

impl Class {
    pub const ALL: [Class; 8] = [
        Class::Conv,
        Class::Linear,
        Class::Norm,
        Class::Elementwise,
        Class::Pool2d,
        Class::QuantBoundary,
        Class::Shape,
        Class::Unclassified,
    ];

    /// The span name, which is also the metric prefix.
    pub fn span(self) -> &'static str {
        match self {
            Class::Conv => "fx_tensor.ops.conv",
            Class::Linear => "fx_tensor.ops.linear",
            Class::Norm => "fx_tensor.ops.norm",
            Class::Elementwise => "fx_tensor.ops.elementwise",
            Class::Pool2d => "fx_tensor.ops.pool2d",
            Class::QuantBoundary => "fx_tensor.ops.quant_boundary",
            Class::Shape => "fx_tensor.ops.shape",
            Class::Unclassified => "fx_tensor.ops.unclassified",
        }
    }
}

fn classify_module(type_name: &str) -> Class {
    match type_name {
        "Conv2d" | "QuantizedConv2d" | "QuantizedConv2dReLU" => Class::Conv,
        "Linear" | "QuantizedLinear" | "QuantizedLinearReLU" => Class::Linear,
        "BatchNorm2d" | "LayerNorm" => Class::Norm,
        "ReLU" | "Sigmoid" | "Tanh" | "GELU" | "SELU" | "Dropout" | "Identity" => {
            Class::Elementwise
        }
        "MaxPool2d" | "AvgPool2d" | "AdaptiveAvgPool2d" => Class::Pool2d,
        "Flatten" => Class::Shape,
        t if t.ends_with("Observer") || t == "FakeQuantize" => Class::QuantBoundary,
        _ => Class::Unclassified,
    }
}

fn classify_target(target: &str) -> Class {
    match target {
        "conv2d" | "quantized::conv2d" | "quantized::conv2d_relu" => Class::Conv,
        "linear" | "matmul" | "quantized::linear" | "quantized::linear_relu" => Class::Linear,
        "batch_norm" | "layer_norm" => Class::Norm,
        "relu"
        | "add"
        | "sub"
        | "mul"
        | "div"
        | "neg"
        | "sigmoid"
        | "tanh"
        | "gelu"
        | "selu"
        | "dropout"
        | "quantized::add"
        | "quantized::add_relu"
        | "quantized::relu" => Class::Elementwise,
        "max_pool2d" | "avg_pool2d" | "adaptive_avg_pool2d" => Class::Pool2d,
        "quantize_per_tensor" | "dequantize" => Class::QuantBoundary,
        "flatten" | "reshape" | "view" | "permute" | "transpose" | "contiguous" => Class::Shape,
        _ => Class::Unclassified,
    }
}

/// `None` for placeholder, `get_attr` and output steps: the executor
/// moves a value there and calls no tensor op, so their time stays in
/// the executor's own (residue) time.
pub fn classify(gm: &GraphModule, node: &Node) -> Option<Class> {
    match node.op() {
        Opcode::Placeholder | Opcode::GetAttr | Opcode::Output => None,
        Opcode::CallModule => Some(
            layers::module_type(gm, node.target()).map_or(Class::Unclassified, classify_module),
        ),
        Opcode::CallFunction | Opcode::CallMethod => Some(classify_target(node.target())),
    }
}

/// What the benchmark knows about one plan step before it runs.
pub struct Step {
    pub name: String,
    pub class: Option<Class>,
    /// The node name as a label in the recorder the table was built for.
    pub label: u32,
    pub flops: u64,
    pub bytes: u64,
    pub int8: bool,
}

/// One entry per graph node, in graph order — the order the sequential
/// executor reports `node_times` in. Needs shape metadata on `gm` for
/// the costs (nodes without it cost 0).
pub fn steps(gm: &GraphModule, rec: &mut Recorder) -> Vec<Step> {
    layers::nodes(gm)
        .map(|node| {
            let (flops, bytes, int8) = layers::node_cost(gm, node);
            Step {
                name: node.name().to_string(),
                class: classify(gm, node),
                label: rec.label(node.name()),
                flops,
                bytes,
                int8,
            }
        })
        .collect()
}

/// One profiled executor run, recorded as
/// `fx_core.executor.new` + `fx_core.executor.run{ op-class children }`
/// under whatever span is open. Children are laid end to end from the
/// run's start: `RunProfile` gives each node a duration, not a start.
pub fn profiled_run(
    gm: &GraphModule,
    inputs: &[Value],
    table: &[Step],
    rec: &mut Recorder,
) -> Res<(Value, layers::RunProfile)> {
    let new = rec.begin("fx_core.executor.new");
    let mut ex = layers::executor(gm);
    rec.end(new);
    let run = rec.begin("fx_core.executor.run");
    let result = layers::executor_run_profiled(&mut ex, inputs);
    rec.end(run);
    let (out, profile) = result?;
    if profile.node_times.len() != table.len() {
        return Err(format!(
            "profile has {} node times, the graph {} nodes",
            profile.node_times.len(),
            table.len()
        ));
    }
    let mut at = rec.spans[run as usize].start_ns;
    for (step, nt) in table.iter().zip(&profile.node_times) {
        if step.name != nt.name {
            return Err(format!(
                "profile order differs: {} vs {}",
                nt.name, step.name
            ));
        }
        let ns = (nt.seconds * 1e9) as u64;
        if let Some(class) = step.class {
            rec.child(run, class.span(), step.label, at, at + ns);
        }
        at += ns;
    }
    Ok((out, profile))
}

/// Plan-cache use across a series of profiled runs of one module:
/// compilations since (and including) set-up's own, and cache hits per
/// run. `RunProfile` carries the module's lifetime totals.
pub struct PlanUse {
    compiles_before: u64,
    first_hits: Option<u64>,
    last: (u64, u64),
    runs: u64,
}

impl PlanUse {
    /// `compiles_before`: compilations the module had seen before the
    /// one set-up made for the graph being run.
    pub fn since(compiles_before: u64) -> PlanUse {
        PlanUse {
            compiles_before,
            first_hits: None,
            last: (0, 0),
            runs: 0,
        }
    }

    pub fn observe(&mut self, profile: &layers::RunProfile) {
        self.first_hits.get_or_insert(profile.plan_hits);
        self.last = (profile.plan_compiles, profile.plan_hits);
        self.runs += 1;
    }

    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let Some(first_hits) = self.first_hits else {
            return;
        };
        out.insert(
            "fx_core.executor.plan_compiles",
            self.last.0.saturating_sub(self.compiles_before) as f64,
        );
        // The first run's own hit is inside `first_hits`.
        out.insert(
            "fx_core.executor.plan_hits",
            (self.last.1 - first_hits + 1) as f64 / self.runs as f64,
        );
    }
}

/// The `fx_core.executor.*` and `fx_tensor.ops.*` metrics, per executor
/// run, from the aggregated spans of [`profiled_run`]s over `table`.
pub fn executor_metrics(
    agg: &BTreeMap<&'static str, Agg>,
    table: &[Step],
    out: &mut BTreeMap<&'static str, f64>,
) {
    let run = agg.get("fx_core.executor.run").copied().unwrap_or_default();
    if run.calls == 0 {
        return;
    }
    let runs = run.calls as f64;
    let run_s = run.busy_s / runs;
    let residue_s = run.self_s / runs;
    out.insert("fx_core.executor.run_s", run_s);
    out.insert("fx_core.executor.node_busy_s", run_s - residue_s);
    out.insert("fx_core.executor.residue_s", residue_s);
    out.insert("fx_core.executor.residue_fraction", residue_s / run_s);
    out.insert(
        "fx_core.executor.new_s",
        agg.get("fx_core.executor.new").map_or(0.0, Agg::mean_s),
    );

    // A class has the metrics `metrics::PER_LAYER` lists for it: busy
    // time for all, calls for the named classes, rates for the two
    // GEMM-shaped ones.
    let device = layers::host_cpu_single_core();
    for class in Class::ALL {
        let a = agg.get(class.span()).copied().unwrap_or_default();
        let busy_s = a.busy_s / runs;
        let mut put = |suffix: &str, value: f64| {
            if let Some(def) = metrics::lookup(&format!("{}.{suffix}", class.span())) {
                out.insert(def.name, value);
            }
        };
        put("busy_s", busy_s);
        put("calls", a.calls as f64 / runs);
        if busy_s > 0.0 {
            let members = table.iter().filter(|s| s.class == Some(class));
            let (flops, roofline_s) = members.fold((0u64, 0.0), |(f, t), s| {
                (f + s.flops, t + device.op_time(s.flops, s.bytes, s.int8))
            });
            put("gflops", flops as f64 / busy_s / 1e9);
            put("roofline_fraction", roofline_s / busy_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_targets_classify_and_unknown_ones_show() {
        assert_eq!(classify_module("QuantizedConv2dReLU"), Class::Conv);
        assert_eq!(classify_module("AdaptiveAvgPool2d"), Class::Pool2d);
        assert_eq!(classify_module("MinMaxObserver"), Class::QuantBoundary);
        assert_eq!(classify_module("Mystery"), Class::Unclassified);
        assert_eq!(classify_target("quantized::add"), Class::Elementwise);
        assert_eq!(classify_target("dequantize"), Class::QuantBoundary);
        assert_eq!(classify_target("flatten"), Class::Shape);
        assert_eq!(classify_target("mystery"), Class::Unclassified);
    }
}
