//! Every public `fx-*` function the benchmark calls, by name and in one
//! place. No logic lives here: each item forwards to one public item of
//! a crate under `../crates/`, so the outside-in timing points can be
//! reviewed in one file and a later API rename is a one-file change.
//! The rest of the benchmark names fx types and functions only through
//! this module.

use fx_tensor::rng::{Rng as _, SeedableRng as _};
use std::sync::Arc;
use std::time::Duration;

pub use fx_backend::Engine;
pub use fx_core::{
    ExecConfig, ExecPlan, Executor, GraphModule, Module, Node, Opcode, RunProfile, Value,
};
pub use fx_models::ResNet;
pub use fx_passes::DeviceSpec;
pub use fx_serve::{Handle, Registry, ServeStats};
pub use fx_tensor::pool::PoolStats;
pub use fx_tensor::rng::StdRng;
pub use fx_tensor::Tensor;

/// Errors cross the benchmark as text: it reports them, never matches.
pub type Res<T> = Result<T, String>;

fn text<T, E: std::fmt::Display>(r: Result<T, E>) -> Res<T> {
    r.map_err(|e| e.to_string())
}

// ----- fx_tensor ------------------------------------------------------------

pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

pub fn next_u64(rng: &mut StdRng) -> u64 {
    rng.next_u64()
}

pub fn randn(shape: &[usize], rng: &mut StdRng) -> Tensor {
    Tensor::randn(shape, rng)
}

pub fn set_kernel_threads(n: usize) {
    fx_tensor::set_num_threads(n)
}

pub fn kernel_threads() -> usize {
    fx_tensor::num_threads()
}

pub fn simd_available() -> bool {
    fx_tensor::simd_available()
}

pub fn simd_enabled() -> bool {
    fx_tensor::simd_enabled()
}

pub fn pool_stats() -> PoolStats {
    fx_tensor::pool::stats()
}

pub fn pool_clear() {
    fx_tensor::pool::clear()
}

pub fn stack_batch(parts: &[&Tensor]) -> Res<Tensor> {
    text(fx_tensor::ops::stack_batch(parts))
}

pub fn split_batch(t: &Tensor, sizes: &[usize]) -> Res<Vec<Tensor>> {
    text(fx_tensor::ops::split_batch(t, sizes))
}

pub fn f32_data(t: &Tensor) -> Res<&[f32]> {
    text(t.as_f32())
}

pub fn output_tensor(v: &Value) -> Res<&Tensor> {
    text(v.as_tensor())
}

// ----- fx_models ------------------------------------------------------------

pub fn resnet50(rng: &mut StdRng) -> ResNet {
    fx_models::resnet50(3, 10, rng)
}

pub fn resnet_tiny(rng: &mut StdRng) -> ResNet {
    fx_models::resnet_tiny(rng)
}

// ----- fx_core --------------------------------------------------------------

/// Eager execution of the untraced model: the independent reference.
pub fn eager_forward(model: &dyn Module, inputs: &[Value]) -> Res<Value> {
    text(model.forward(inputs))
}

pub fn symbolic_trace(model: &dyn Module) -> Res<GraphModule> {
    text(fx_core::symbolic_trace(model))
}

pub fn validate(gm: &GraphModule) -> Res<()> {
    text(gm.validate())
}

pub fn node_count(gm: &GraphModule) -> usize {
    gm.graph().len()
}

/// Nodes in graph order — the order the sequential executor runs and
/// profiles them in.
pub fn nodes(gm: &GraphModule) -> impl Iterator<Item = &Node> {
    gm.graph().nodes()
}

/// The generated Python-style source (`traced.code`).
pub fn code(gm: &GraphModule) -> &str {
    gm.code()
}

/// Class name of the submodule a `call_module` node targets.
pub fn module_type(gm: &GraphModule, target: &str) -> Option<&'static str> {
    gm.get_module(target).map(|m| m.type_name())
}

/// Submodules by qualified path.
pub fn modules(gm: &GraphModule) -> impl Iterator<Item = &dyn Module> {
    gm.modules().values().map(|m| m.as_ref())
}

/// `(plan, cache_hit, lifetime_compiles, lifetime_hits)`.
pub fn exec_plan(gm: &GraphModule) -> Res<(Arc<ExecPlan>, bool, u64, u64)> {
    text(gm.exec_plan())
}

/// The executor every exec workload runs: one inter-op thread, pinned
/// through the public builder.
pub fn executor(gm: &GraphModule) -> Executor<'_> {
    Executor::new(gm).with_threads(1)
}

pub fn executor_run(ex: &mut Executor<'_>, inputs: &[Value]) -> Res<Value> {
    text(ex.run(inputs))
}

pub fn executor_run_profiled(ex: &mut Executor<'_>, inputs: &[Value]) -> Res<(Value, RunProfile)> {
    text(ex.run_profiled(inputs))
}

/// Sequential run with memory planning off: no pool, no in-place
/// rewrites. The bit-exact reference for transformed graphs.
pub fn run_unplanned(gm: &GraphModule, inputs: &[Value]) -> Res<Value> {
    text(
        Executor::new(gm)
            .with_threads(1)
            .with_memory_planning(false)
            .run(inputs),
    )
}

pub fn exec_config_from_env() -> ExecConfig {
    ExecConfig::from_env()
}

// ----- fx_passes ------------------------------------------------------------

pub fn shape_prop(gm: &mut GraphModule, inputs: &[Value]) -> Res<Value> {
    text(fx_passes::shape_prop(gm, inputs))
}

pub fn fuse_conv_bn(gm: &mut GraphModule) -> Res<usize> {
    text(fx_passes::fuse_conv_bn(gm))
}

pub fn eliminate_common_subexpressions(gm: &mut GraphModule) -> Res<usize> {
    text(fx_passes::eliminate_common_subexpressions(gm))
}

pub fn fold_constants(gm: &mut GraphModule) -> Res<usize> {
    text(fx_passes::fold_constants(gm))
}

/// Analytic `(flops, bytes, int8)` of one node: computed, not measured.
pub fn node_cost(gm: &GraphModule, node: &Node) -> (u64, u64, bool) {
    fx_passes::node_cost(gm, node)
}

pub fn host_cpu_single_core() -> DeviceSpec {
    DeviceSpec::host_cpu_single_core()
}

// ----- fx_quant -------------------------------------------------------------

pub fn quant_prepare(gm: &GraphModule) -> Res<GraphModule> {
    text(fx_quant::prepare(gm, &fx_quant::QConfig::default()))
}

pub fn quant_calibrate(observed: &GraphModule, batches: &[Vec<Value>]) -> Res<usize> {
    text(fx_quant::calibrate(observed, batches))
}

pub fn quant_convert(observed: &GraphModule) -> Res<GraphModule> {
    text(fx_quant::convert(observed))
}

pub fn is_observer(m: &dyn Module) -> bool {
    fx_quant::is_observer(m)
}

// ----- fx_backend -----------------------------------------------------------

pub fn backend_compile(gm: &GraphModule) -> Res<Engine> {
    text(fx_backend::compile(gm))
}

pub fn instruction_count(engine: &Engine) -> usize {
    engine.instruction_count()
}

// ----- fx_serve -------------------------------------------------------------

/// The serving parameters every serve workload uses.
pub const MAX_BATCH_ROWS: usize = 8;
pub const MAX_BATCH_DELAY: Duration = Duration::from_millis(2);
pub const QUEUE_DEPTH: usize = 64;

/// A registry with one worker.
pub fn registry() -> Res<Registry> {
    text(Registry::builder().workers(1).build())
}

pub fn register(
    registry: &Registry,
    name: &str,
    gm: GraphModule,
    sample_shape: &[usize],
    weight: u32,
) -> Res<Handle> {
    let cfg = fx_serve::ModelConfig::new()
        .max_batch_size(MAX_BATCH_ROWS)
        .max_batch_delay(MAX_BATCH_DELAY)
        .queue_depth(QUEUE_DEPTH)
        .weight(weight)
        .exec_config(ExecConfig {
            threads: 1,
            memory_planning: true,
            fusion: false,
        });
    text(registry.register_with(name, gm, &[sample_shape.to_vec()], cfg))
}

pub fn infer(handle: &Handle, input: Tensor) -> Res<Vec<Tensor>> {
    text(handle.infer(vec![input]))
}

pub fn swap(registry: &Registry, name: &str, gm: GraphModule) -> Res<u64> {
    text(registry.swap(name, gm))
}

pub fn handle_stats(handle: &Handle) -> ServeStats {
    handle.stats()
}
