//! The [`Executor`]: the one entry point for running a
//! [`GraphModule`].
//!
//! ```text
//! Executor::new(&gm)
//!     .with_threads(2)       // kernel threads for this run (default: the process setting)
//!     .run_profiled(&inputs)? // the output and its RunProfile; `run` for the output alone
//! ```
//!
//! Execution goes through a cached [`ExecPlan`]: the graph is compiled
//! into steps with pre-resolved arguments and last-use liveness once per
//! [`Graph::version`](crate::Graph::version), then replayed one step at
//! a time, in graph order, as the paper's interpreter runs a graph.
//! Parallelism lives only inside kernels: a run's thread count is the
//! kernel pool's ([`fx_tensor::threading::with_num_threads`]), so the
//! same kernels compute the same bits at every count.
//!
//! Hooks observe every node in that order. A run whose inputs contain
//! proxies, or that runs inside a trace session, re-records through the
//! dispatcher in the same order.

use crate::error::{Error, Result};
use crate::exec_plan::{ExecPlan, PlanArg, Step};
use crate::graph_module::GraphModule;
use crate::module::{join_path, module_ptr, ModuleExt};
use crate::node::{Node, Opcode};
use crate::trace;
use crate::value::Value;
use crate::dispatch;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Observe node-by-node execution — the pattern behind `shape_prop`
/// and the quantization observers (paper §6.3). Hooks visit nodes in
/// execution order.
pub trait InterpHook {
    /// Called after each node executes with the node and its produced
    /// value. Returning an error aborts the run.
    fn on_node(&mut self, node: &Node, value: &Value) -> Result<()>;
}

/// Run a node kernel with unwind containment: a panicking kernel
/// becomes an [`Error::Panic`] carrying the panic message instead of
/// unwinding through the executor and its caller (a serve worker, say).
fn run_caught(f: impl FnOnce() -> Result<Value>) -> Result<Value> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(res) => res,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(Error::Panic(msg))
        }
    }
}

/// Wall time attributed to one executed node.
#[derive(Debug, Clone)]
pub struct NodeTime {
    /// Node name.
    pub name: String,
    /// Node target.
    pub target: String,
    /// Opcode.
    pub op: Opcode,
    /// Kernel wall time in seconds.
    pub seconds: f64,
}

/// Observability record for one `Executor::run`, consumable by the
/// estimator (measured vs. predicted cost) and the backend engine.
#[derive(Debug, Clone, Default)]
pub struct RunProfile {
    /// End-to-end wall time of the run in seconds.
    pub total_seconds: f64,
    /// Kernel threads the run used (resolved: never `0`).
    pub threads: usize,
    /// Whether the plan was served from the `GraphModule` cache (no
    /// recompilation).
    pub plan_cache_hit: bool,
    /// Cumulative plan compilations on this `GraphModule`.
    pub plan_compiles: u64,
    /// Cumulative plan cache hits on this `GraphModule`.
    pub plan_hits: u64,
    /// Per-node wall times, in plan order.
    pub node_times: Vec<NodeTime>,
    /// Peak bytes of live intermediate values observed during the run.
    pub peak_live_bytes: usize,
    /// Whether memory planning (buffer pooling + in-place rewrites) was
    /// active for this run.
    pub memory_planning: bool,
}

impl RunProfile {
    /// Measured seconds for the named node, if it ran.
    pub fn node_seconds(&self, name: &str) -> Option<f64> {
        self.node_times
            .iter()
            .find(|t| t.name == name)
            .map(|t| t.seconds)
    }

    /// Sum of all per-node kernel times.
    pub fn busy_seconds(&self) -> f64 {
        self.node_times.iter().map(|t| t.seconds).sum()
    }
}

/// Builder-style runner for a [`GraphModule`] — the single execution
/// entry point.
///
/// ```
/// use fx_core::{func, symbolic_trace_fn, Executor, Value};
/// use fx_tensor::Tensor;
///
/// let gm = symbolic_trace_fn(1, |xs| func::relu(&xs[0])).unwrap();
/// let x = Value::Tensor(Tensor::from_vec(vec![-1.0, 2.0], &[2]));
/// let y = Executor::new(&gm).run(&[x]).unwrap();
/// assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[0.0, 2.0]);
/// ```
pub struct Executor<'m> {
    gm: &'m GraphModule,
    hook: Option<&'m mut dyn InterpHook>,
    threads: usize,
    memory_planning: bool,
}

impl<'m> Executor<'m> {
    /// An executor over `gm`'s current graph and state. Defaults come
    /// from [`ExecConfig::from_env`](crate::exec::ExecConfig::from_env)
    /// — kernel threads per `FX_THREADS` (unset: the process setting),
    /// memory planning on — with no hook.
    pub fn new(gm: &'m GraphModule) -> Executor<'m> {
        Self::with_config(gm, crate::exec::ExecConfig::from_env())
    }

    /// An executor with an explicit [`ExecConfig`](crate::exec::ExecConfig)
    /// (the unified knob set shared with `fx_serve`). Its inert `fusion`
    /// field is not read.
    pub fn with_config(gm: &'m GraphModule, cfg: crate::exec::ExecConfig) -> Executor<'m> {
        Executor {
            gm,
            hook: None,
            threads: cfg.threads,
            memory_planning: cfg.memory_planning,
        }
    }

    /// Invoke `hook` after every node, in execution order.
    pub fn with_hook(mut self, hook: &'m mut dyn InterpHook) -> Executor<'m> {
        self.hook = Some(hook);
        self
    }

    /// Run kernels on up to `n` threads for this executor's runs, without
    /// touching the process setting or other runs; `0` keeps the calling
    /// thread's count ([`fx_tensor::threading::num_threads`]: the process
    /// setting unless an enclosing run set one).
    pub fn with_threads(mut self, n: usize) -> Executor<'m> {
        self.threads = n;
        self
    }

    /// Enable or disable memory planning (buffer-pool recycling of dead
    /// intermediates plus in-place unary rewrites) for this executor;
    /// it is on by default. Planned runs are
    /// bit-identical to unplanned ones — the same kernels touch the same
    /// values in the same order; only allocation traffic changes.
    pub fn with_memory_planning(mut self, on: bool) -> Executor<'m> {
        self.memory_planning = on;
        self
    }

    /// Run the graph on `inputs` (one per placeholder).
    pub fn run(&mut self, inputs: &[Value]) -> Result<Value> {
        self.execute(inputs, false).map(|(out, _)| out)
    }

    /// Run and return the output with its [`RunProfile`]: per-node
    /// times and peak live memory on top of the plan-cache counters and
    /// the resolved kernel threads every run records.
    pub fn run_profiled(&mut self, inputs: &[Value]) -> Result<(Value, RunProfile)> {
        self.execute(inputs, true)
    }

    fn execute(&mut self, inputs: &[Value], profiling: bool) -> Result<(Value, RunProfile)> {
        let t0 = Instant::now();
        let (plan, cache_hit, compiles, hits) = self.gm.exec_plan()?;
        // Memory planning is value-level bookkeeping: it needs concrete
        // tensors, so a (re-)trace falls back to plain allocation.
        let tracing = trace::is_tracing() || inputs.iter().any(Value::contains_proxy);
        let planning = self.memory_planning && !tracing;
        let mut profile = RunProfile {
            plan_cache_hit: cache_hit,
            plan_compiles: compiles,
            plan_hits: hits,
            memory_planning: planning,
            ..RunProfile::default()
        };
        let out = fx_tensor::threading::with_num_threads(self.threads, || {
            profile.threads = fx_tensor::threading::num_threads();
            self.run_sequential(&plan, inputs, planning, profiling, &mut profile)
        })?;
        profile.total_seconds = t0.elapsed().as_secs_f64();
        Ok((out, profile))
    }

    fn run_sequential(
        &mut self,
        plan: &ExecPlan,
        inputs: &[Value],
        planning: bool,
        profiling: bool,
        profile: &mut RunProfile,
    ) -> Result<Value> {
        let mut env: Vec<Option<Value>> = vec![None; plan.len()];
        let mut live_bytes = 0usize;
        let graph = self.gm.graph();
        // While the guard is live, dead intermediates recycle into the
        // buffer pool and kernels allocate from it.
        let _pool = planning.then(fx_tensor::pool::activate);

        for (idx, step) in plan.steps.iter().enumerate() {
            let t0 = profiling.then(Instant::now);
            // Planned in-place step: its sole input dies here, so take
            // the value out of the environment (no clone — if nothing
            // else shares the buffer, the kernel rewrites it in place)
            // and skip the release loop's no-op on that slot.
            let value = if planning && plan.inplace_unary[idx] {
                let d = match step.args[0] {
                    PlanArg::Slot(d) => d,
                    _ => unreachable!("inplace_unary implies a slot arg"),
                };
                let input = env[d]
                    .take()
                    .ok_or_else(|| Error::Graph(format!("value of step #{d} not computed")))?;
                if profiling {
                    live_bytes -= value_bytes(&input);
                }
                run_caught(|| run_inplace_unary(&step.target, input))
            } else {
                run_caught(|| self.execute_step(step, &env, inputs))
            }
            .map_err(|e| Error::Interp {
                node: step.name.clone(),
                source: Box::new(e),
            })?;
            if let Some(t0) = t0 {
                profile.node_times.push(NodeTime {
                    name: step.name.clone(),
                    target: step.target.clone(),
                    op: step.op,
                    seconds: t0.elapsed().as_secs_f64(),
                });
            }
            if let Some(hook) = self.hook.as_deref_mut() {
                hook.on_node(graph.node(step.node), &value)?;
            }
            if step.op == Opcode::Output {
                return Ok(value);
            }
            if profiling {
                live_bytes += value_bytes(&value);
                profile.peak_live_bytes = profile.peak_live_bytes.max(live_bytes);
            }
            env[idx] = Some(value);
            // Early release: drop buffers whose last reader just ran,
            // recycling them into the pool on planned runs.
            for &slot in &plan.release_after[idx] {
                if slot != idx {
                    if let Some(dead) = env[slot].take() {
                        if profiling {
                            live_bytes -= value_bytes(&dead);
                        }
                        if planning {
                            reclaim_value(dead);
                        }
                    }
                }
            }
        }
        Err(Error::Graph(
            "graph has no output node; call Graph::output before running".to_string(),
        ))
    }

    /// Execute one step against the environment — the trace-aware path.
    fn execute_step(&self, step: &Step, env: &[Option<Value>], inputs: &[Value]) -> Result<Value> {
        match step.op {
            Opcode::Placeholder => inputs.get(step.input_index).cloned().ok_or_else(|| {
                Error::Module(format!(
                    "missing input for placeholder `{}` (got {} inputs)",
                    step.target,
                    inputs.len()
                ))
            }),
            Opcode::GetAttr => {
                // When this GraphModule is being re-traced as a child of a
                // larger trace, attribute fetches must be re-recorded with
                // the qualified prefix rather than baked in as constants.
                if trace::is_tracing() {
                    if let Some(prefix) = trace::current_path(module_ptr(self.gm)) {
                        let target = join_path(&prefix, &step.target);
                        return trace::record_get_attr(&target);
                    }
                }
                self.gm
                    .get_attr_tensor(&step.target)
                    .cloned()
                    .map(Value::Tensor)
                    .ok_or_else(|| {
                        Error::Module(format!("no attribute tensor named `{}`", step.target))
                    })
            }
            Opcode::CallFunction => {
                let (args, kwargs) = materialize(step, env)?;
                dispatch::call_function(&step.target, &args, &kwargs)
            }
            Opcode::CallMethod => {
                let (args, kwargs) = materialize(step, env)?;
                dispatch::call_method(&step.target, &args, &kwargs)
            }
            Opcode::CallModule => {
                let (args, _) = materialize(step, env)?;
                let m = self.gm.get_module(&step.target).ok_or_else(|| {
                    Error::Module(format!("no submodule named `{}`", step.target))
                })?;
                m.call(&args)
            }
            Opcode::Output => {
                let (args, _) = materialize(step, env)?;
                Ok(args.into_iter().next().unwrap_or(Value::None))
            }
        }
    }
}

/// Execute a planned in-place unary step. An f32 tensor rewrites its
/// buffer through the *same* scalar kernel the dispatch path bottoms
/// out in ([`fx_tensor::ops::unary_scalar`]); an int8 tensor under
/// `quantized::relu` clamps at its zero point in place — both
/// bit-identical to the out-of-place kernels; the `map_inplace`
/// variants copy first if anything else still shares the storage.
/// Other values fall back to normal dispatch.
fn run_inplace_unary(target: &str, input: Value) -> Result<Value> {
    match input {
        Value::Tensor(t)
            if t.dtype() == fx_tensor::DType::F32 && target != "quantized::relu" =>
        {
            let f = fx_tensor::ops::unary_scalar(target)
                .expect("planned in-place step has a scalar kernel");
            Ok(Value::Tensor(t.map_inplace(f)?))
        }
        Value::Tensor(t)
            if t.dtype() == fx_tensor::DType::QI8 && target == "quantized::relu" =>
        {
            // Same zero-point clamp as the out-of-place kernel, applied
            // to the dying input's own storage: bit-identical bytes.
            Ok(Value::Tensor(fx_tensor::quant::quantized_relu_inplace(t)?))
        }
        other => dispatch::call_function(target, std::slice::from_ref(&other), &[]),
    }
}

/// Return a dead value's uniquely-owned f32 buffers to the pool.
fn reclaim_value(v: Value) {
    match v {
        Value::Tensor(t) => fx_tensor::pool::recycle_tensor(t),
        Value::List(items) | Value::Tuple(items) => items.into_iter().for_each(reclaim_value),
        _ => {}
    }
}

/// Resolve a step's pre-compiled arguments against the dense slot
/// environment.
fn materialize(step: &Step, env: &[Option<Value>]) -> Result<(Vec<Value>, Vec<(String, Value)>)> {
    let args = step
        .args
        .iter()
        .map(|a| plan_arg_value(a, env))
        .collect::<Result<Vec<_>>>()?;
    let kwargs = step
        .kwargs
        .iter()
        .map(|(k, a)| Ok((k.clone(), plan_arg_value(a, env)?)))
        .collect::<Result<Vec<_>>>()?;
    Ok((args, kwargs))
}

fn plan_arg_value(arg: &PlanArg, env: &[Option<Value>]) -> Result<Value> {
    Ok(match arg {
        PlanArg::Const(v) => v.clone(),
        PlanArg::Slot(s) => env
            .get(*s)
            .and_then(|v| v.clone())
            .ok_or_else(|| Error::Graph(format!("value of step #{s} not computed")))?,
        PlanArg::List(items) => Value::List(
            items
                .iter()
                .map(|a| plan_arg_value(a, env))
                .collect::<Result<_>>()?,
        ),
        PlanArg::Tuple(items) => Value::Tuple(
            items
                .iter()
                .map(|a| plan_arg_value(a, env))
                .collect::<Result<_>>()?,
        ),
    })
}

/// Bytes of tensor payload held live by a value.
fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Tensor(t) => t.size_bytes(),
        Value::List(items) | Value::Tuple(items) => items.iter().map(value_bytes).sum(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func;
    use crate::trace::symbolic_trace_fn;
    use fx_tensor::Tensor;

    fn diamond_gm() -> GraphModule {
        symbolic_trace_fn(1, |xs| {
            let r = func::relu(&xs[0])?;
            let n = func::neg(&xs[0])?;
            func::add(&r, &n)
        })
        .unwrap()
    }

    fn input(n: usize) -> Value {
        Value::Tensor(Tensor::from_vec(
            (0..n).map(|i| i as f32 - n as f32 / 2.0).collect(),
            &[n],
        ))
    }

    #[test]
    fn sequential_and_parallel_agree() {
        // One kernel thread against several: the GEMM splits its rows
        // over the pool, and no split reorders a sum.
        let gm = symbolic_trace_fn(2, |xs| func::relu(&func::matmul(&xs[0], &xs[1])?)).unwrap();
        let a = Value::Tensor(Tensor::from_vec(
            (0..96 * 64).map(|i| (i % 13) as f32 - 6.0).collect(),
            &[96, 64],
        ));
        let b = Value::Tensor(Tensor::from_vec(
            (0..64 * 80).map(|i| (i % 7) as f32 * 0.5).collect(),
            &[64, 80],
        ));
        let run = |threads| {
            let out = Executor::new(&gm)
                .with_threads(threads)
                .run(&[a.clone(), b.clone()])
                .unwrap();
            out.as_tensor().unwrap().as_f32().unwrap().to_vec()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn profile_reports_cache_and_kernel_threads() {
        let gm = diamond_gm();
        let x = input(8);
        let before = fx_tensor::threading::num_threads();
        let mut ex = Executor::new(&gm).with_threads(2);
        let (_, first) = ex.run_profiled(std::slice::from_ref(&x)).unwrap();
        assert!(!first.plan_cache_hit, "first run must compile the plan");
        assert_eq!(first.plan_compiles, 1);
        assert_eq!(first.threads, 2);
        assert_eq!(first.node_times.len(), 5);
        assert_eq!(
            fx_tensor::threading::num_threads(),
            before,
            "the run's count is its own"
        );

        let (_, second) = ex.run_profiled(std::slice::from_ref(&x)).unwrap();
        assert!(second.plan_cache_hit, "unmutated graph must hit the cache");
        assert_eq!(second.plan_compiles, 1, "no recompilation on a hit");
        assert!(second.plan_hits >= 1);

        let (_, inherited) = Executor::new(&gm)
            .with_threads(0)
            .run_profiled(std::slice::from_ref(&x))
            .unwrap();
        assert_eq!(
            inherited.threads,
            fx_tensor::threading::num_threads(),
            "0 is the process setting"
        );
    }

    #[test]
    fn mutation_invalidates_plan_cache() {
        let mut gm = diamond_gm();
        let x = input(8);
        let (_, p1) = Executor::new(&gm).run_profiled(&[x.clone()]).unwrap();
        assert_eq!(p1.plan_compiles, 1);
        let relu = gm.graph().find_by_name("relu").unwrap().id();
        gm.graph_mut().set_target(relu, "gelu").unwrap();
        gm.recompile().unwrap();
        let (_, p2) = Executor::new(&gm).run_profiled(&[x]).unwrap();
        assert!(!p2.plan_cache_hit);
        assert_eq!(p2.plan_compiles, 2);
    }

    #[test]
    fn hook_sees_every_node_in_order() {
        struct Names(Vec<String>);
        impl InterpHook for Names {
            fn on_node(&mut self, n: &Node, _v: &Value) -> Result<()> {
                self.0.push(n.name().to_string());
                Ok(())
            }
        }
        let gm = diamond_gm();
        let mut hook = Names(Vec::new());
        Executor::new(&gm)
            .with_threads(8)
            .with_hook(&mut hook)
            .run(&[input(8)])
            .unwrap();
        let order: Vec<String> = gm.graph().nodes().map(|n| n.name().to_string()).collect();
        assert_eq!(hook.0, order);
    }

    #[test]
    fn errors_name_the_failing_node() {
        let gm = symbolic_trace_fn(2, |xs| func::matmul(&xs[0], &xs[1])).unwrap();
        let bad = [input(4), input(5)];
        for threads in [1, 4] {
            let err = Executor::new(&gm)
                .with_threads(threads)
                .run(&bad)
                .unwrap_err();
            assert!(
                err.to_string().contains("matmul"),
                "error should name the node: {err}"
            );
        }
    }

    #[test]
    fn missing_inputs_error_on_both_paths() {
        let gm = diamond_gm();
        for threads in [1, 4] {
            let err = Executor::new(&gm).with_threads(threads).run(&[]).unwrap_err();
            assert!(err.to_string().contains("missing input"), "{err}");
        }
    }

    #[test]
    fn planned_runs_are_bit_identical_to_unplanned() {
        // A chain with several in-place candidates plus a diamond join.
        let gm = symbolic_trace_fn(1, |xs| {
            let a = func::relu(&xs[0])?;
            let b = func::gelu(&a)?;
            let c = func::neg(&xs[0])?;
            let d = func::add(&b, &c)?;
            func::sigmoid(&d)
        })
        .unwrap();
        let x = input(97);
        let reference = Executor::new(&gm)
            .with_memory_planning(false)
            .run(std::slice::from_ref(&x))
            .unwrap();
        let ref_bits: Vec<u32> = reference
            .as_tensor()
            .unwrap()
            .as_f32()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for threads in [1, 4] {
            let planned = Executor::new(&gm)
                .with_memory_planning(true)
                .with_threads(threads)
                .run(std::slice::from_ref(&x))
                .unwrap();
            let bits: Vec<u32> = planned
                .as_tensor()
                .unwrap()
                .as_f32()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(ref_bits, bits, "planning changed bits ({threads} threads)");
        }
    }

    #[test]
    fn inplace_rewrite_never_corrupts_shared_values() {
        // The traced fn consumes x in a single unary: the planner marks
        // it in-place, but the caller still holds the input tensor, so
        // the kernel must copy-on-write rather than scribble over it.
        let gm = symbolic_trace_fn(1, |xs| func::neg(&xs[0])).unwrap();
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        let x = Value::Tensor(t.clone());
        let y = Executor::new(&gm)
            .with_memory_planning(true)
            .run(std::slice::from_ref(&x))
            .unwrap();
        assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[-1.0, 2.0, -3.0]);
        assert_eq!(t.as_f32().unwrap(), &[1.0, -2.0, 3.0], "input clobbered");
    }

    #[test]
    fn profile_records_memory_planning_flag() {
        let gm = diamond_gm();
        let x = input(8);
        let (_, p) = Executor::new(&gm)
            .with_memory_planning(true)
            .run_profiled(std::slice::from_ref(&x))
            .unwrap();
        assert!(p.memory_planning);
        let (_, p) = Executor::new(&gm)
            .with_memory_planning(false)
            .run_profiled(std::slice::from_ref(&x))
            .unwrap();
        assert!(!p.memory_planning);
    }

    #[test]
    fn panicking_kernel_is_a_clean_error_on_all_paths() {
        use crate::arg::Arg;
        use crate::dispatch::{register_function, Inputs, OpKind};
        use crate::graph::Graph;

        // The panic fires inside a kernel-pool chunk, which the pool
        // re-raises on the thread that runs the node.
        fn bomb(_i: &Inputs<'_>) -> Result<Value> {
            fx_tensor::threading::parallel_chunks(8, |r| {
                if r.contains(&7) {
                    panic!("deliberate test panic");
                }
            });
            Ok(Value::None)
        }
        register_function("test::bomb", bomb, OpKind::Same);

        let mut g = Graph::new();
        let x = g.placeholder("x");
        let b = g.call_function("test::bomb", vec![Arg::Node(x)], vec![]);
        let r = g.call_function("relu", vec![Arg::Node(x)], vec![]);
        let a = g.call_function("add", vec![Arg::Node(b), Arg::Node(r)], vec![]);
        g.output(Arg::Node(a));
        let gm = GraphModule::new(g, Default::default(), Default::default(), vec![
            "x".to_string(),
        ])
        .unwrap();

        let x = input(16);
        for threads in [1, 2, 8] {
            let err = Executor::new(&gm)
                .with_threads(threads)
                .run(std::slice::from_ref(&x))
                .unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("test__bomb"), "names the node ({threads}t): {msg}");
            assert!(msg.contains("panicked"), "says it panicked ({threads}t): {msg}");
            assert!(msg.contains("deliberate test panic"), "{msg}");
        }
        // The pool survived: a healthy graph still runs afterwards,
        // repeatedly, on more than one kernel thread.
        let healthy = diamond_gm();
        for _ in 0..3 {
            Executor::new(&healthy)
                .with_threads(4)
                .run(std::slice::from_ref(&x))
                .unwrap();
        }
    }
}
